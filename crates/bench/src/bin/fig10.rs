//! Fig. 10: weak scaling of data-parallel training, with and without
//! activation checkpointing.

use cbench::{banner, write_csv};
use ccore::Scenario;
use cpipeline::{encode_episode, EncodeConfig, Episode, TrainConfig, Trainer};
use csurrogate::{CheckpointPolicy, SwinSurrogate};
use ctensor::prelude::*;

fn main() {
    banner(
        "Fig. 10 — weak scaling of data-parallel training",
        "paper Fig. 10",
    );
    let sc = Scenario::small();
    let grid = sc.grid();
    let archive = sc.simulate_archive(&grid, 0, 30);
    let mask_vec: Vec<f32> = (0..grid.ny)
        .flat_map(|j| {
            let m = &grid.mask_rho;
            (0..grid.nx).map(move |i| m.get(j as isize, i as isize) as f32)
        })
        .collect();
    let mask = Tensor::from_vec(mask_vec, &[grid.ny, grid.nx]);
    let stats = cpipeline::NormStats::identity();
    let episodes: Vec<_> = archive
        .windows(sc.t_out + 1)
        .step_by(3)
        .map(|w| encode_episode(w, &stats, &EncodeConfig::default()))
        .collect();

    println!("\npaper: near-linear weak scaling 1→32 GPUs; ckpt (batch 2/GPU) above no-ckpt (batch 1/GPU)\n");
    let mut rows = Vec::new();
    for (label, ckpt, batch) in [
        ("ckpt", CheckpointPolicy::DiscardWMsa, 2usize),
        ("no-ckpt", CheckpointPolicy::None, 1usize),
    ] {
        for workers in [1usize, 2, 4, 8] {
            let model = SwinSurrogate::new(sc.swin.clone(), 1);
            let mut trainer = Trainer::new(model, mask.clone(), TrainConfig::default());
            trainer.set_checkpoint(ckpt);
            // Weak scaling: every step gives each worker `batch` episodes.
            let per_step = workers * batch;
            let t0 = std::time::Instant::now();
            let mut instances = 0;
            for step in 0..2 {
                let share: Vec<Episode> = (0..per_step)
                    .map(|k| episodes[(step * per_step + k) % episodes.len()].clone())
                    .collect();
                instances += trainer
                    .train_epoch_data_parallel(&share, workers, batch)
                    .instances;
            }
            let wall = t0.elapsed().as_secs_f64();
            let per_sec = instances as f64 / wall.max(1e-9);
            println!(
                "{label:<8} workers={workers:<3} {per_sec:>7.2} inst/s  ({instances} instances in {wall:.2}s)"
            );
            rows.push(format!("{label},{workers},{per_sec}"));
        }
    }
    write_csv("fig10.csv", "variant,workers,instances_per_sec", &rows);
}
