//! `repro <all|table1..table4|fig5..fig10>`: regenerate the paper's tables
//! and figures on the scaled scenario into `out/*.csv`. Every name is a
//! function over one shared [`Context`], built once per invocation.

use std::process::ExitCode;
use std::sync::Arc;

use cbench::{banner, write_csv, Context};
use ccore::{train_surrogate, ErrorTable, HybridForecaster, TrainedSurrogate};
use cocean::{Roms, Snapshot};
use cphysics::{pass_rate_curve, Verifier, VerifierConfig};
use cpipeline::{
    encode_episode, DataLoader, EncodeConfig, Episode, LoaderConfig, NormStats, SnapshotStore,
    TrainConfig, Trainer, WindowSpec,
};
use csurrogate::{episode_loss, CheckpointPolicy, SwinSurrogate};
use ctensor::prelude::*;

type Figure = fn(&Context);

const FIGURES: [(&str, Figure); 10] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
];

/// The figures `arg` names, or the usage message (before any set-up).
fn plan(arg: &str) -> Result<Vec<(&'static str, Figure)>, String> {
    if arg == "all" {
        return Ok(FIGURES.to_vec());
    }
    match FIGURES.iter().find(|(name, _)| *name == arg) {
        Some(&figure) => Ok(vec![figure]),
        None => {
            let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
            Err(format!("usage: repro <all|{}>", names.join("|")))
        }
    }
}

fn main() -> ExitCode {
    let plan = match plan(&std::env::args().nth(1).unwrap_or_default()) {
        Ok(plan) => plan,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let ctx = Context::small();
    for (name, figure) in plan {
        println!("\n##### {name} #####");
        figure(&ctx);
    }
    ExitCode::SUCCESS
}

/// Episode-chained forecast over `windows`: the reference snapshots and
/// the surrogate's, aligned step for step.
fn chained<'a>(
    model: &TrainedSurrogate,
    windows: impl IntoIterator<Item = &'a [Snapshot]>,
) -> (Vec<Snapshot>, Vec<Snapshot>) {
    let (mut refs, mut preds) = (Vec::new(), Vec::new());
    for w in windows {
        preds.extend(model.predict_episode(w));
        refs.extend(w[1..].iter().cloned());
    }
    (refs, preds)
}

/// Sorted mass residuals of every AI-predicted transition over `windows`.
fn ai_residuals(ctx: &Context, windows: &[&[Snapshot]]) -> Vec<f64> {
    let verifier = Verifier::new(&ctx.grid, VerifierConfig::default());
    let mut residuals = Vec::new();
    for w in windows {
        let mut trajectory = vec![w[0].clone()];
        trajectory.extend(ctx.trained.predict_episode(w));
        residuals.extend(verifier.residual_series(&trajectory));
    }
    residuals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    residuals
}

/// Table I: simulation overhead — MPI-style tiled ROMS at several core
/// counts vs the AI surrogate, on the same mesh and horizon.
fn table1(ctx: &Context) {
    banner(
        "Table I — ROMS vs AI surrogate simulation overhead",
        "paper Table I",
    );
    let horizon_snaps = 2 * ctx.scenario.t_out; // two episodes of forecast
    let interval = ctx.scenario.snapshot_interval;

    println!("\npaper: 898x598x12, 12-day horizon: MPI ROMS 512 cores = 9,908 s; surrogate (1×A100) = 22 s (450×)");
    println!(
        "ours : {}x{}x{} mesh, {} snapshots of {}s\n",
        ctx.grid.ny, ctx.grid.nx, ctx.grid.sigma.nz, horizon_snaps, interval
    );

    let mut rows = Vec::new();
    let mut roms_best = f64::INFINITY;
    for p in [1usize, 2, 4, 8] {
        let mut roms = Roms::tiled(&ctx.grid, ctx.scenario.ocean_config(&ctx.grid, 1), p);
        let t0 = std::time::Instant::now();
        roms.record(horizon_snaps, interval);
        let wall = t0.elapsed().as_secs_f64();
        let comm: f64 = roms
            .comm_stats()
            .iter()
            .map(|s| s.comm_seconds)
            .sum::<f64>()
            / p as f64;
        roms_best = roms_best.min(wall);
        println!("ROMS (tiled)     cores={p:<3} wall={wall:>8.3}s  mean-comm={comm:>7.3}s");
        rows.push(format!("roms,{p},{wall:.6},{comm:.6}"));
    }

    // Surrogate: same horizon = 2 episodes, batched inference.
    let ai = ctx.trained.time_inference(&ctx.test_windows()[..2]);
    println!("AI surrogate     cores=1   wall={ai:>8.3}s");
    rows.push(format!("surrogate,1,{ai:.6},0.0"));
    let speedup = roms_best / ai;
    println!("\nspeedup of surrogate over fastest ROMS run: {speedup:.1}x");
    rows.push(format!("speedup,,{speedup:.3},"));
    write_csv("table1.csv", "solution,cores,wall_s,comm_s", &rows);
    assert!(speedup > 1.0, "surrogate must beat the simulator");
}

/// Table II: memory requirement per training-pipeline stage.
fn table2(ctx: &Context) {
    banner("Table II — memory per training stage", "paper Table II");
    let ep = encode_episode(
        &ctx.train_archive[..ctx.scenario.t_out + 1],
        &ctx.trained.stats,
        &EncodeConfig::default(),
    );

    // Stage 1: training sample loading (episode payload).
    let sample_bytes = ep.nbytes();

    // Stage 2: training sample processing (metered activations). A
    // training-mode forward moves BatchNorm's running statistics, so it
    // runs on a copy: later figures must see the model as trained.
    let copy = ctx.trained.spec().instantiate();
    let mut g = Graph::new();
    g.training = true;
    let x3 = g.constant(ep.x3d.clone());
    let x2 = g.constant(ep.x2d.clone());
    let (p3, p2) = copy.model.forward(&mut g, x3, x2);
    let _ = episode_loss(&mut g, p3, p2, &ep.target3, &ep.target2, &ctx.trained.mask);
    let act_bytes = g.meter().peak;

    // Stage 3: model parameter updating (weights + grads + Adam m,v).
    let n_params = ctx.trained.model.num_parameters();
    let update_bytes = n_params * 4 * 4;

    println!("\npaper: loading 4 GB | processing 42 GB | updating 12 GB (per 900x600x12 sample)");
    println!(
        "ours  (scaled mesh {}x{}x{}):",
        ctx.grid.ny, ctx.grid.nx, ctx.grid.sigma.nz
    );
    println!(
        "  sample loading     : {:>12} bytes ({:.2} MB)",
        sample_bytes,
        sample_bytes as f64 / 1e6
    );
    println!(
        "  sample processing  : {:>12} bytes ({:.2} MB peak activations)",
        act_bytes,
        act_bytes as f64 / 1e6
    );
    println!(
        "  parameter updating : {:>12} bytes ({:.2} MB; {} params x 4 states)",
        update_bytes,
        update_bytes as f64 / 1e6,
        n_params
    );
    let rows = vec![
        format!("loading,{sample_bytes}"),
        format!("processing,{act_bytes}"),
        format!("updating,{update_bytes}"),
    ];
    write_csv("table2.csv", "stage,bytes", &rows);
    assert!(
        act_bytes > sample_bytes,
        "activations dominate, as in the paper"
    );
}

/// Table III: MAE/RMSE of the surrogate at short and long horizons.
fn table3(ctx: &Context) {
    banner(
        "Table III — surrogate MAE/RMSE per variable",
        "paper Table III",
    );
    // Short horizon (the paper's 12-hour model): per-episode prediction.
    let (refs, preds) = chained(&ctx.trained, ctx.test_windows());
    let short = ErrorTable::between(&ctx.grid, &refs, &preds);

    // Long horizon (the paper's 12-day model): a coarse model at 4x the
    // snapshot stride, evaluated on the strided test archive.
    let mut sc_coarse = ctx.scenario.clone();
    sc_coarse.snapshot_interval = ctx.scenario.snapshot_interval * 4.0;
    let coarse_train: Vec<_> = ctx.train_archive.iter().step_by(4).cloned().collect();
    let coarse = train_surrogate(&sc_coarse, &ctx.grid, &coarse_train);
    let coarse_test: Vec<_> = ctx.test_archive.iter().step_by(4).cloned().collect();
    let (crefs, cpreds) = chained(&coarse, coarse_test.chunks_exact(sc_coarse.t_out + 1));
    let long = ErrorTable::between(&ctx.grid, &crefs, &cpreds);

    println!("\npaper 12-hour: MAE u=1.80e-2 v=1.73e-2 w=9.60e-5 ζ=4.58e-2 | RMSE u=2.89e-2 v=2.61e-2 w=3.57e-4 ζ=7.25e-2");
    println!("paper 12-day : MAE u=1.49e-2 v=1.40e-2 w=8.27e-5 ζ=4.79e-2 | RMSE u=2.50e-2 v=2.10e-2 w=2.61e-4 ζ=7.74e-2\n");
    println!("{}", short.row("short"));
    println!("{}", long.row("long"));
    let csv_row = |name: &str, e: &ErrorTable| {
        let cells: Vec<String> = e.mae.iter().chain(&e.rmse).map(f64::to_string).collect();
        format!("{name},{}", cells.join(","))
    };
    write_csv(
        "table3.csv",
        "horizon,mae_u,mae_v,mae_w,mae_z,rmse_u,rmse_v,rmse_w,rmse_z",
        &[csv_row("short", &short), csv_row("long", &long)],
    );
    // Shape check: w errors are orders of magnitude below u/v (w ≈ 0).
    assert!(short.mae[2] < short.mae[0]);
}

/// Table IV: sensitivity to patch size — parameters, time/instance, errors.
fn table4(ctx: &Context) {
    banner("Table IV — patch-size sensitivity", "paper Table IV");
    println!("\npaper: patch 5 → 3.39M params (3.08 enc + 0.31 dec), 0.888 s/inst, best MAE;");
    println!("       patch 15/25 → fewer params, slightly slower, worse MAE\n");

    let mut rows = Vec::new();
    for patch_h in [2usize, 4, 8] {
        let mut sc = ctx.scenario.clone();
        sc.swin.patch = [patch_h, patch_h, sc.swin.patch[2]];
        sc.epochs = 2;
        let trained = train_surrogate(&sc, &ctx.grid, &ctx.train_archive);
        let enc = trained.model.encoder_parameters();
        let dec = trained.model.decoder_parameters();
        // Inference time per instance, then error on a few test episodes.
        let t = trained.time_inference(&ctx.test_windows()[..1]);
        let (refs, preds) = chained(&trained, ctx.test_windows().into_iter().take(3));
        let e = ErrorTable::between(&ctx.grid, &refs, &preds);
        println!(
            "patch {patch_h:<2} params={:>8} ({enc} enc + {dec} dec)  time/inst={t:>7.3}s  MAE ζ={:.3e} u={:.3e}",
            enc + dec, e.mae[3], e.mae[0]
        );
        rows.push(format!(
            "{patch_h},{},{enc},{dec},{t:.4},{:.6},{:.6}",
            enc + dec,
            e.mae[0],
            e.mae[3]
        ));
    }
    write_csv(
        "table4.csv",
        "patch,params,enc_params,dec_params,time_s,mae_u,mae_z",
        &rows,
    );
}

/// Fig. 5: spatial maps — ROMS vs surrogate vs difference for u, v, ζ.
fn fig5(ctx: &Context) {
    banner(
        "Fig. 5 — spatial forecast maps (ROMS vs AI vs diff)",
        "paper Fig. 5",
    );
    let w = ctx.test_windows()[0];
    let pred = ctx.trained.predict_episode(w);
    let reference = &w[w.len() - 1];
    let ai = pred.last().unwrap();
    let k = ctx.grid.sigma.nz - 1; // surface layer

    // One map: `roms, ai, diff` per (j, i) cell, returning max |diff|.
    let map = |name: &str, cell: &dyn Fn(usize, usize) -> (f32, f32)| {
        let mut rows = Vec::new();
        let mut max_diff = 0.0f32;
        for j in 0..reference.ny {
            for i in 0..reference.nx {
                let (r, p) = cell(j, i);
                max_diff = max_diff.max((p - r).abs());
                rows.push(format!("{j},{i},{r},{p},{}", p - r));
            }
        }
        write_csv(&format!("fig5_{name}.csv"), "j,i,roms,ai,diff", &rows);
        max_diff
    };
    for (name, rf, pf) in [("u", &reference.u, &ai.u), ("v", &reference.v, &ai.v)] {
        let max_diff = map(name, &|j, i| {
            let idx = reference.idx3(k, j, i);
            (rf[idx], pf[idx])
        });
        println!("{name}: surface-layer max |diff| = {max_diff:.4} m/s");
    }
    let max_diff = map("zeta", &|j, i| {
        let idx = reference.idx2(j, i);
        (reference.zeta[idx], ai.zeta[idx])
    });
    println!("ζ: max |diff| = {max_diff:.4} m (tidal range ~0.75 m)");
}

/// Fig. 6: ζ time series at three probe locations, ROMS vs surrogate.
fn fig6(ctx: &Context) {
    banner("Fig. 6 — ζ time series at 3 locations", "paper Fig. 6");
    // Three wet probes: ocean, inlet, inner estuary (like the paper's
    // spread across the domain).
    let g = &ctx.grid;
    let probes: Vec<(usize, usize)> = [0.15f64, 0.4, 0.7]
        .iter()
        .filter_map(|frac| {
            let i = (g.nx as f64 * frac) as usize;
            let wet = |j: &usize| {
                let (j, i) = (*j as isize, i as isize);
                g.mask_rho.get(j, i) > 0.5 && g.h.get(j, i) > 1.0
            };
            (2..g.ny - 2).rev().find(wet).map(|j| (j, i))
        })
        .collect();
    println!("probes: {probes:?}");

    // Episode-chained forecast across the test archive.
    let (reference, pred) = chained(&ctx.trained, ctx.test_windows());
    let mut rows = Vec::new();
    for (t, (r, p)) in reference.iter().zip(&pred).enumerate() {
        let mut row = format!("{t}");
        for &(j, i) in &probes {
            row.push_str(&format!(",{},{}", r.zeta_at(j, i), p.zeta_at(j, i)));
        }
        rows.push(row);
    }
    write_csv("fig6_series.csv", "t,roms1,ai1,roms2,ai2,roms3,ai3", &rows);
    for (n, &(j, i)) in probes.iter().enumerate() {
        let rmse = (reference
            .iter()
            .zip(&pred)
            .map(|(r, p)| {
                let d = (r.zeta_at(j, i) - p.zeta_at(j, i)) as f64;
                d * d
            })
            .sum::<f64>()
            / reference.len() as f64)
            .sqrt();
        println!(
            "location {} ({j},{i}): ζ RMSE = {rmse:.4} m over {} steps",
            n + 1,
            reference.len()
        );
    }
}

/// Fig. 7: verification pass rate vs water-mass-residual threshold.
fn fig7(ctx: &Context) {
    banner("Fig. 7 — pass rate vs residual threshold", "paper Fig. 7");
    // Residual of every AI-predicted transition over the test year.
    let residuals = ai_residuals(ctx, &ctx.test_windows());
    let median = residuals[residuals.len() / 2];
    println!(
        "\n{} transitions; residual median {median:.3e} m/s (paper's scale: 3e-4..5.5e-4)",
        residuals.len()
    );

    // Sweep thresholds spanning our residual distribution (same shape as
    // the paper's sweep around its scale).
    let thresholds: Vec<f64> = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
        .iter()
        .map(|m| m * median)
        .collect();
    let curve = pass_rate_curve(&residuals, &thresholds);
    let mut rows = Vec::new();
    for (t, r) in &curve {
        println!("threshold {t:.3e} m/s → pass rate {:.1}%", r * 100.0);
        rows.push(format!("{t},{r}"));
    }
    write_csv("fig7.csv", "threshold,pass_rate", &rows);
    // Shape: monotone increasing.
    for w in curve.windows(2) {
        assert!(w[1].1 >= w[0].1);
    }
}

/// Fig. 8: end-to-end hybrid workflow time and speedup vs threshold.
fn fig8(ctx: &Context) {
    banner(
        "Fig. 8 — hybrid workflow time & speedup vs threshold",
        "paper Fig. 8",
    );
    let n_episodes = 3usize;
    let t_out = ctx.scenario.t_out;
    let ocean = ctx.scenario.ocean_config(&ctx.grid, 1);

    // All-ROMS baseline for the same horizon.
    let t0 = std::time::Instant::now();
    let mut roms = Roms::new(&ctx.grid, ocean.clone());
    roms.load(&ctx.test_archive[0]);
    let _ = roms.record(n_episodes * t_out, ctx.scenario.snapshot_interval);
    let roms_wall = t0.elapsed().as_secs_f64();
    println!(
        "\nall-ROMS baseline: {roms_wall:.3}s for {} steps",
        n_episodes * t_out
    );

    // Threshold sweep anchored at the AI residual median (shape matches
    // the paper's absolute sweep around its own residual scale).
    let sample = ai_residuals(ctx, &ctx.test_windows()[..2]);
    let median = sample[sample.len() / 2];

    let mut rows = Vec::new();
    for mult in [0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let threshold = mult * median;
        let fc = HybridForecaster::new(
            &ctx.grid,
            &ctx.trained,
            ocean.clone(),
            VerifierConfig { threshold },
        );
        let r = fc
            .forecast(&ctx.test_archive, 0, n_episodes)
            .expect("reference long enough");
        let total = r.total_seconds();
        let speedup = roms_wall / total;
        println!(
            "threshold {threshold:.3e}: total {total:>7.3}s (AI {} / fallback {}) → speedup {speedup:>6.1}x",
            r.episodes_ai, r.episodes_fallback
        );
        rows.push(format!(
            "{threshold},{total},{},{},{speedup}",
            r.episodes_ai, r.episodes_fallback
        ));
    }
    write_csv(
        "fig8.csv",
        "threshold,total_s,episodes_ai,episodes_fallback,speedup",
        &rows,
    );
}

/// Fig. 9: training-throughput ablation — full pipeline vs each
/// optimization removed.
fn fig9(ctx: &Context) {
    banner("Fig. 9 — pipeline-optimization ablation", "paper Fig. 9");
    let sc = &ctx.scenario;
    let archive = &ctx.train_archive[..40];
    let mask_vec: Vec<f64> = ctx
        .trained
        .mask
        .as_slice()
        .iter()
        .map(|&v| v as f64)
        .collect();
    let stats = NormStats::from_snapshots(archive, &mask_vec);
    let starts = WindowSpec::train(sc.t_out).starts(archive.len());

    println!(
        "\npaper: ours 1.36 inst/s | w/o ckpt 0.81 | w/o pin-memory 0.74 | w/o prefetch 0.45\n"
    );
    let mut rows = Vec::new();
    let variants: [(&str, usize, bool, CheckpointPolicy, usize); 4] = [
        ("full", 2, true, CheckpointPolicy::DiscardWMsa, 2),
        ("w/o ckpt", 2, true, CheckpointPolicy::None, 1),
        ("w/o pinned", 2, false, CheckpointPolicy::DiscardWMsa, 2),
        ("w/o prefetch", 0, true, CheckpointPolicy::DiscardWMsa, 2),
    ];
    for (name, workers, pinned, ckpt, batch) in variants {
        // Make "I/O" non-trivial, like the paper's SSD leg.
        let mut store = SnapshotStore::build(archive);
        store.fetch_latency_us = 2_000; // 2 ms per snapshot "SSD read"
        let loader = DataLoader::new(
            Arc::new(store),
            starts.clone(),
            sc.t_out,
            stats,
            EncodeConfig::default(),
            LoaderConfig {
                prefetch_workers: workers,
                prefetch_factor: 4,
                pinned,
                batch_size: batch,
                shuffle_seed: Some(0),
            },
        );
        let mut model = SwinSurrogate::new(sc.swin.clone(), sc.seed);
        model.checkpoint = ckpt;
        let mut trainer = Trainer::new(model, ctx.trained.mask.clone(), TrainConfig::default());
        let e = trainer.train_epoch(&loader, 0);
        println!(
            "{name:<14} {:>6.2} inst/s  (loss {:.4})",
            e.instances_per_sec, e.mean_loss
        );
        rows.push(format!("{name},{}", e.instances_per_sec));
    }
    write_csv("fig9.csv", "variant,instances_per_sec", &rows);
}

/// Fig. 10: weak scaling of data-parallel training, with and without
/// activation checkpointing.
fn fig10(ctx: &Context) {
    banner(
        "Fig. 10 — weak scaling of data-parallel training",
        "paper Fig. 10",
    );
    let sc = &ctx.scenario;
    let stats = NormStats::identity();
    let episodes: Vec<_> = ctx.train_archive[..30]
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
            let mut trainer = Trainer::new(model, ctx.trained.mask.clone(), TrainConfig::default());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ten_names_are_unique() {
        let names: std::collections::BTreeSet<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn all_runs_each_figure_exactly_once_and_a_name_runs_itself() {
        let all: Vec<&str> = plan("all").unwrap().iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        assert_eq!(all, table);
        for name in table {
            let one: Vec<&str> = plan(name).unwrap().iter().map(|(n, _)| *n).collect();
            assert_eq!(one, [name]);
        }
    }

    #[test]
    fn unknown_name_is_a_usage_error_listing_every_name() {
        // `plan` takes no Context, so this fails before any set-up.
        for bad in ["", "table5", "repro_all"] {
            let usage = plan(bad).map(|_| ()).unwrap_err();
            assert!(usage.starts_with("usage: repro <all|"), "{usage}");
            for (name, _) in FIGURES {
                assert!(usage.contains(name), "{usage}");
            }
        }
    }
}
