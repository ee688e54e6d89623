//! Training loop: Adam over the masked episode loss, activation-memory
//! budgeting, and throughput instrumentation (paper §III-D).
//!
//! The loop is batch-first: the loader stacks episodes through the same
//! `stack_episodes` packing the serving path uses for `predict_batch`, so a
//! step's forward/backward runs the batched SIMD kernels end to end.
//! Gradient accumulation ([`TrainConfig::accum_steps`]) and the data-parallel
//! epoch ([`Trainer::train_epoch_data_parallel`]) both reduce gradients in a
//! fixed positional order, so results do not depend on thread scheduling.

use std::time::Instant;

use chpc::run_parallel;
use csurrogate::{episode_loss, CheckpointPolicy, SwinSurrogate};
use ctensor::nn::{load_state_dict, state_dict};
use ctensor::prelude::*;

use crate::checkpoint::TrainCheckpoint;
use crate::dataset::{stack_episodes, Episode};
use crate::loader::DataLoader;

/// Trainer configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub lr: f32,
    pub grad_clip: f32,
    /// Activation-memory budget in bytes: the trainer refuses batches
    /// whose metered forward peak exceeds it (the paper's 80 GB A100
    /// ceiling that forces batch 1 without checkpointing).
    pub memory_budget: Option<usize>,
    /// Micro-batches to accumulate before each optimizer update (≥1).
    /// Gradients are averaged over the accumulated micro-batches in a
    /// fixed positional order.
    pub accum_steps: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            grad_clip: 1.0,
            memory_budget: None,
            accum_steps: 1,
        }
    }
}

/// Result of one optimizer step.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    pub loss: f32,
    /// Peak activation bytes metered on the tape (incl. checkpoint
    /// transients).
    pub peak_activation_bytes: usize,
    /// Bytes resident on the tape at the end of the forward pass.
    pub resident_activation_bytes: usize,
    pub wall_seconds: f64,
    pub instances: usize,
}

/// Aggregate statistics for an epoch (or fixed step budget).
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    pub mean_loss: f32,
    pub instances: usize,
    pub wall_seconds: f64,
    pub instances_per_sec: f64,
    pub peak_activation_bytes: usize,
    /// Episodes lost to dead prefetch workers *during this epoch* — a
    /// non-zero value means the loader skipped instances instead of
    /// crashing, and the epoch trained on less data than scheduled.
    pub dropped_episodes: usize,
}

/// Supervised trainer for the Swin surrogate.
pub struct Trainer {
    pub model: SwinSurrogate,
    pub opt: Adam,
    pub cfg: TrainConfig,
    /// Land/sea mask `(ny, nx)`.
    pub mask: Tensor,
}

impl Trainer {
    pub fn new(model: SwinSurrogate, mask: Tensor, cfg: TrainConfig) -> Self {
        let params = model.params();
        let lr = cfg.lr;
        Self {
            model,
            opt: Adam::new(params, lr),
            cfg,
            mask,
        }
    }

    /// Forward + backward on a (possibly batched) episode *without* an
    /// optimizer update: gradients accumulate into the parameters, so
    /// calling this repeatedly before [`Trainer::apply_accumulated`]
    /// implements gradient accumulation.
    pub fn forward_backward(&mut self, batch: &Episode) -> StepStats {
        let t0 = Instant::now();
        let instances = batch.x3d.shape()[0];
        let mut g = Graph::new();
        g.training = true;
        let (loss, loss_v, resident) = {
            let _span = cobs::span!("train.forward");
            let x3 = g.constant(batch.x3d.clone());
            let x2 = g.constant(batch.x2d.clone());
            let (p3, p2) = self.model.forward(&mut g, x3, x2);
            let loss = episode_loss(&mut g, p3, p2, &batch.target3, &batch.target2, &self.mask);
            (loss, g.value(loss).item(), g.meter().current)
        };
        cobs::histogram!("train.forward_seconds").record_duration(t0.elapsed());
        if let Some(budget) = self.cfg.memory_budget {
            assert!(
                resident <= budget,
                "activation memory {resident} exceeds budget {budget}; \
                 lower the batch size or enable checkpointing"
            );
        }
        let t_bwd = Instant::now();
        {
            let _span = cobs::span!("train.backward");
            g.backward(loss);
        }
        cobs::histogram!("train.backward_seconds").record_duration(t_bwd.elapsed());
        StepStats {
            loss: loss_v,
            peak_activation_bytes: g.meter().peak,
            resident_activation_bytes: resident,
            wall_seconds: t0.elapsed().as_secs_f64(),
            instances,
        }
    }

    /// Average the gradients accumulated over `micro_batches` calls to
    /// [`Trainer::forward_backward`] (fixed positional order), clip, and
    /// apply one optimizer update.
    pub fn apply_accumulated(&mut self, micro_batches: usize) {
        let _span = cobs::span!("train.optimizer");
        let t0 = Instant::now();
        if micro_batches > 1 {
            let inv = 1.0 / micro_batches as f32;
            for p in self.opt.params() {
                if let Some(g) = p.grad() {
                    p.zero_grad();
                    p.accum_grad(&g.scale(inv));
                }
            }
        }
        clip_grad_norm(self.opt.params(), self.cfg.grad_clip);
        self.opt.step();
        cobs::histogram!("train.optimizer_seconds").record_duration(t0.elapsed());
    }

    /// One forward/backward/update on a (possibly batched) episode.
    pub fn step(&mut self, batch: &Episode) -> StepStats {
        let stats = self.forward_backward(batch);
        self.apply_accumulated(1);
        stats
    }

    /// Evaluation loss (no gradient, no update).
    pub fn eval(&self, batch: &Episode) -> f32 {
        let mut g = Graph::inference();
        let x3 = g.constant(batch.x3d.clone());
        let x2 = g.constant(batch.x2d.clone());
        let (p3, p2) = self.model.forward(&mut g, x3, x2);
        let loss = episode_loss(&mut g, p3, p2, &batch.target3, &batch.target2, &self.mask);
        g.value(loss).item()
    }

    /// Run one epoch from a loader; returns aggregate stats.
    ///
    /// Episodes silently skipped by the loader (a prefetch worker died
    /// mid-epoch) are surfaced in [`EpochStats::dropped_episodes`] and
    /// warned about on stderr — training on partial data must be loud.
    pub fn train_epoch(&mut self, loader: &DataLoader, epoch: u64) -> EpochStats {
        let t0 = Instant::now();
        let accum = self.cfg.accum_steps.max(1);
        let dropped_before = loader.dropped_episodes();
        let mut total_loss = 0.0f64;
        let mut instances = 0usize;
        let mut batches = 0usize;
        let mut peak = 0usize;
        let mut pending = 0usize;
        for batch in loader.epoch(epoch) {
            let s = self.forward_backward(&batch);
            total_loss += s.loss as f64;
            instances += s.instances;
            batches += 1;
            peak = peak.max(s.peak_activation_bytes);
            pending += 1;
            if pending == accum {
                self.apply_accumulated(pending);
                pending = 0;
            }
        }
        if pending > 0 {
            // Short tail at the end of the epoch still averages over the
            // micro-batches it actually saw.
            self.apply_accumulated(pending);
        }
        let wall = t0.elapsed().as_secs_f64();
        let dropped = loader.dropped_episodes() - dropped_before;
        cobs::counter!("train.epochs").inc();
        cobs::counter!("train.instances").add(instances as u64);
        cobs::histogram!("train.epoch_seconds").record(wall);
        if dropped > 0 {
            cobs::counter!("train.dropped_episodes").add(dropped as u64);
            eprintln!(
                "[trainer] WARNING: epoch {epoch} dropped {dropped} episode(s) — \
                 prefetch worker(s) died; trained on {instances} of {} instances",
                loader.len()
            );
        }
        EpochStats {
            mean_loss: (total_loss / batches.max(1) as f64) as f32,
            instances,
            wall_seconds: wall,
            instances_per_sec: instances as f64 / wall.max(1e-9),
            peak_activation_bytes: peak,
            dropped_episodes: dropped,
        }
    }

    /// Largest batch size whose *resident* activation footprint fits the
    /// budget, probed by metering forwards on stacked copies of `sample`
    /// (the paper: 1 without checkpointing, 2 with, on an 80 GB A100).
    pub fn max_batch_for_budget(&self, sample: &Episode, budget: usize, cap: usize) -> usize {
        let mut best = 0;
        for b in 1..=cap {
            let batch = crate::dataset::stack_episodes(&vec![sample.clone(); b]);
            let mut g = Graph::new();
            g.training = true;
            let x3 = g.constant(batch.x3d.clone());
            let x2 = g.constant(batch.x2d.clone());
            let (p3, p2) = self.model.forward(&mut g, x3, x2);
            let _ = episode_loss(&mut g, p3, p2, &batch.target3, &batch.target2, &self.mask);
            if g.meter().current <= budget {
                best = b;
            } else {
                break;
            }
        }
        best
    }

    /// One data-parallel "epoch" over an in-memory episode set: fan the
    /// episodes across `workers` model replicas (the same replica-shipping
    /// machinery as the serve pool — parameters travel as a `Send` state
    /// dict and are rebuilt per thread), run batch-first forward/backward on
    /// each worker's contiguous share in stacked micro-batches of
    /// `per_worker_batch`, then all-reduce the instance-weighted gradient
    /// sum at the end of the epoch and apply **one** optimizer update to
    /// this trainer's model.
    ///
    /// Determinism: each worker accumulates serially over its own share, and
    /// the main-thread reduction walks ranks in order with f64 accumulators,
    /// so a given `workers` count always produces bitwise-identical weights;
    /// `workers == 1` matches the serial [`Trainer::step`] on the stacked
    /// set whenever the episode count divides exactly (power-of-two counts
    /// are bitwise-exact). BatchNorm running stats are taken from rank 0.
    pub fn train_epoch_data_parallel(
        &mut self,
        episodes: &[Episode],
        workers: usize,
        per_worker_batch: usize,
    ) -> EpochStats {
        assert!(!episodes.is_empty(), "no episodes to train on");
        assert!(per_worker_batch >= 1);
        let workers = workers.clamp(1, episodes.len());
        let t0 = Instant::now();

        // A `scoped` backend is per thread: hand the caller's to every
        // worker, so the whole epoch runs on one set of kernels.
        let be = ctensor::backend::current();
        let state = state_dict(&self.model);
        let buffers = self.model.buffers();
        let model_cfg = self.model.cfg.clone();
        let policy = self.model.checkpoint;
        let mask = self.mask.clone();
        let per = episodes.len().div_ceil(workers);

        // (weighted loss sum, instances, instance-weighted flat grad, rank
        // buffers, peak activation bytes) per rank, in rank order.
        type RankResult = (f64, usize, Vec<f64>, Vec<Tensor>, usize);
        let results: Vec<RankResult> = run_parallel(vec![(); workers], |comm, ()| {
            let _backend = ctensor::backend::scoped(be.clone());
            let rank = comm.rank();
            let lo = (rank * per).min(episodes.len());
            let hi = ((rank + 1) * per).min(episodes.len());
            let share = &episodes[lo..hi];

            let mut model = SwinSurrogate::from_state(model_cfg.clone(), &state);
            model.load_buffers(&buffers);
            model.checkpoint = policy;
            let params = model.params();

            let mut loss_sum = 0.0f64;
            let mut instances = 0usize;
            let mut peak = 0usize;
            let flat_len: usize = params.iter().map(|p| p.numel()).sum();
            let mut flat = vec![0.0f64; flat_len];
            for micro in share.chunks(per_worker_batch) {
                let batch = stack_episodes(micro);
                let n = micro.len();
                let mut g = Graph::new();
                g.training = true;
                let x3 = g.constant(batch.x3d.clone());
                let x2 = g.constant(batch.x2d.clone());
                let (p3, p2) = model.forward(&mut g, x3, x2);
                let loss = episode_loss(&mut g, p3, p2, &batch.target3, &batch.target2, &mask);
                loss_sum += g.value(loss).item() as f64 * n as f64;
                g.backward(loss);
                peak = peak.max(g.meter().peak);
                // Weight each micro-batch's mean gradient by its instance
                // count, so uneven tails combine exactly.
                let mut off = 0usize;
                for p in &params {
                    let gr = p.grad().unwrap_or_else(|| Tensor::zeros(p.value().shape()));
                    for (a, &v) in flat[off..off + p.numel()].iter_mut().zip(gr.as_slice()) {
                        *a += v as f64 * n as f64;
                    }
                    p.zero_grad();
                    off += p.numel();
                }
                instances += n;
            }
            (loss_sum, instances, flat, model.buffers(), peak)
        });

        // Epoch-end all-reduce: rank-order f64 sum, then one update.
        let n_total: usize = results.iter().map(|r| r.1).sum();
        let loss_sum: f64 = results.iter().map(|r| r.0).sum();
        let peak = results.iter().map(|r| r.4).max().unwrap_or(0);
        let mut acc = vec![0.0f64; results[0].2.len()];
        for (_, _, flat, _, _) in &results {
            for (a, b) in acc.iter_mut().zip(flat) {
                *a += *b;
            }
        }
        let inv = 1.0 / n_total as f64;
        let params = self.opt.params().to_vec();
        let mut off = 0usize;
        for p in &params {
            let n = p.numel();
            let shape = p.value().shape().to_vec();
            let g32: Vec<f32> = acc[off..off + n]
                .iter()
                .map(|&v| (v * inv) as f32)
                .collect();
            p.zero_grad();
            p.accum_grad(&Tensor::from_vec(g32, &shape));
            off += n;
        }
        self.model.load_buffers(&results[0].3);
        clip_grad_norm(&params, self.cfg.grad_clip);
        self.opt.step();

        let wall = t0.elapsed().as_secs_f64();
        EpochStats {
            mean_loss: (loss_sum / n_total as f64) as f32,
            instances: n_total,
            wall_seconds: wall,
            instances_per_sec: n_total as f64 / wall.max(1e-9),
            peak_activation_bytes: peak,
            dropped_episodes: 0,
        }
    }

    /// Capture the full training state — parameters, BatchNorm buffers,
    /// Adam moments and step counter — for a later bitwise-identical
    /// resume (see [`TrainCheckpoint`]).
    pub fn save_checkpoint(&self, epoch: u64) -> TrainCheckpoint {
        let (opt_t, m, v) = self.opt.state_snapshot();
        TrainCheckpoint {
            epoch,
            opt_t,
            params: state_dict(&self.model),
            buffers: self.model.buffers(),
            m,
            v,
        }
    }

    /// Restore state captured by [`Trainer::save_checkpoint`]. Returns the
    /// stored epoch so the caller can continue the schedule where it left
    /// off.
    pub fn restore_checkpoint(&mut self, ck: &TrainCheckpoint) -> u64 {
        load_state_dict(&self.model, &ck.params);
        self.model.load_buffers(&ck.buffers);
        self.opt.load_state(ck.opt_t, ck.m.clone(), ck.v.clone());
        ck.epoch
    }

    /// Set the checkpoint policy (affects subsequent steps).
    pub fn set_checkpoint(&mut self, policy: CheckpointPolicy) {
        self.model.checkpoint = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{encode_episode, EncodeConfig};
    use crate::normalize::NormStats;
    use cocean::Snapshot;
    use csurrogate::SwinConfig;

    fn synthetic_snaps(n: usize, ny: usize, nx: usize, nz: usize) -> Vec<Snapshot> {
        (0..n)
            .map(|t| {
                let phase = t as f32 * 0.4;
                let mut s = Snapshot {
                    time: t as f64 * 1800.0,
                    nz,
                    ny,
                    nx,
                    zeta: vec![0.0; ny * nx],
                    u: vec![0.0; nz * ny * nx],
                    v: vec![0.0; nz * ny * nx],
                    w: vec![0.0; nz * ny * nx],
                };
                for j in 0..ny {
                    for i in 0..nx {
                        let x = i as f32 * 0.8;
                        s.zeta[j * nx + i] = 0.3 * (phase - x).sin();
                        for k in 0..nz {
                            let idx = s.idx3(k, j, i);
                            s.u[idx] = 0.1 * (phase - x).cos();
                        }
                    }
                }
                s
            })
            .collect()
    }

    fn episode(cfg: &SwinConfig) -> Episode {
        let snaps = synthetic_snaps(cfg.t_out + 1, cfg.ny, cfg.nx, cfg.nz);
        encode_episode(&snaps, &NormStats::identity(), &EncodeConfig::default())
    }

    fn tiny_trainer() -> (SwinConfig, Trainer) {
        let cfg = SwinConfig::tiny(8, 8, 4, 2);
        let model = SwinSurrogate::new(cfg.clone(), 0);
        let mask = Tensor::ones(&[cfg.ny, cfg.nx]);
        let trainer = Trainer::new(model, mask, TrainConfig::default());
        (cfg, trainer)
    }

    #[test]
    fn loss_decreases_over_steps() {
        let (cfg, mut trainer) = tiny_trainer();
        let ep = episode(&cfg);
        let first = trainer.step(&ep).loss;
        let mut last = first;
        for _ in 0..10 {
            last = trainer.step(&ep).loss;
        }
        assert!(
            last < first,
            "training on one episode must reduce its loss: {first} -> {last}"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn eval_is_deterministic_and_improves_with_training() {
        // (eval uses BatchNorm running stats, so it differs from the
        // train-mode loss by design — but it must be repeatable and must
        // drop after fitting.)
        let (cfg, mut trainer) = tiny_trainer();
        let ep = episode(&cfg);
        for _ in 0..3 {
            trainer.step(&ep); // populate running stats + fit a little
        }
        let before = trainer.eval(&ep);
        assert_eq!(before, trainer.eval(&ep), "eval must be deterministic");
        for _ in 0..15 {
            trainer.step(&ep);
        }
        let after = trainer.eval(&ep);
        assert!(
            after < before,
            "eval loss must improve with training: {before} -> {after}"
        );
    }

    #[test]
    fn checkpointing_reduces_resident_bytes() {
        let (cfg, mut trainer) = tiny_trainer();
        let ep = episode(&cfg);
        let plain = trainer.step(&ep);
        trainer.set_checkpoint(CheckpointPolicy::DiscardWMsa);
        let ck = trainer.step(&ep);
        assert!(
            ck.resident_activation_bytes < plain.resident_activation_bytes,
            "{} !< {}",
            ck.resident_activation_bytes,
            plain.resident_activation_bytes
        );
    }

    #[test]
    fn memory_budget_enforced() {
        let (cfg, mut trainer) = tiny_trainer();
        let ep = episode(&cfg);
        trainer.cfg.memory_budget = Some(1); // absurdly small
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trainer.step(&ep);
        }));
        assert!(r.is_err(), "budget violation must be detected");
    }

    #[test]
    fn train_epoch_surfaces_dropped_episodes() {
        use crate::loader::LoaderConfig;
        use crate::store::SnapshotStore;
        use std::sync::Arc;

        let cfg = SwinConfig::tiny(8, 8, 4, 2);
        let model = SwinSurrogate::new(cfg.clone(), 0);
        let mask = Tensor::ones(&[cfg.ny, cfg.nx]);
        let mut trainer = Trainer::new(model, mask, TrainConfig::default());

        let snaps = synthetic_snaps(10, 8, 8, 4);
        let store = Arc::new(SnapshotStore::build(&snaps));
        // Episode start 900 is out of range: the single prefetch worker
        // panics there, losing that episode and the undelivered one after.
        let loader = DataLoader::new(
            store,
            vec![0, 1, 900, 2],
            2,
            NormStats::identity(),
            EncodeConfig::default(),
            LoaderConfig {
                prefetch_workers: 1,
                prefetch_factor: 4,
                batch_size: 1,
                shuffle_seed: None,
                ..Default::default()
            },
        );
        let dropped_metric = cobs::counter!("train.dropped_episodes");
        let dropped_before = dropped_metric.get();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the worker panic
        let stats = trainer.train_epoch(&loader, 0);
        std::panic::set_hook(prev_hook);
        assert_eq!(stats.dropped_episodes, 2, "crashed + undelivered");
        assert_eq!(stats.instances, 2, "surviving episodes still train");
        assert_eq!(
            dropped_metric.get() - dropped_before,
            2,
            "drops must surface in the global metrics registry"
        );

        // A healthy epoch reports zero drops.
        let healthy = DataLoader::new(
            Arc::new(SnapshotStore::build(&synthetic_snaps(10, 8, 8, 4))),
            vec![0, 1, 2],
            2,
            NormStats::identity(),
            EncodeConfig::default(),
            LoaderConfig {
                prefetch_workers: 1,
                batch_size: 1,
                shuffle_seed: None,
                ..Default::default()
            },
        );
        let stats = trainer.train_epoch(&healthy, 1);
        assert_eq!(stats.dropped_episodes, 0);
        assert_eq!(stats.instances, 3);
    }

    #[test]
    fn grad_accumulation_takes_fewer_optimizer_steps() {
        use crate::loader::LoaderConfig;
        use crate::store::SnapshotStore;
        use std::sync::Arc;

        let cfg = SwinConfig::tiny(8, 8, 4, 2);
        let mk = |accum_steps: usize| {
            let model = SwinSurrogate::new(cfg.clone(), 0);
            let mask = Tensor::ones(&[cfg.ny, cfg.nx]);
            Trainer::new(
                model,
                mask,
                TrainConfig {
                    accum_steps,
                    ..Default::default()
                },
            )
        };
        let loader = || {
            DataLoader::new(
                Arc::new(SnapshotStore::build(&synthetic_snaps(10, 8, 8, 4))),
                vec![0, 1, 2, 3],
                2,
                NormStats::identity(),
                EncodeConfig::default(),
                LoaderConfig {
                    prefetch_workers: 0,
                    batch_size: 1,
                    shuffle_seed: None,
                    ..Default::default()
                },
            )
        };
        let mut plain = mk(1);
        plain.train_epoch(&loader(), 0);
        assert_eq!(plain.opt.t(), 4, "one update per micro-batch");
        let mut accum = mk(2);
        let stats = accum.train_epoch(&loader(), 0);
        assert_eq!(accum.opt.t(), 2, "one update per 2 accumulated batches");
        assert_eq!(stats.instances, 4);
        // A 3-batch tail (4 micro-batches, accum 3) still flushes.
        let mut tail = mk(3);
        tail.train_epoch(&loader(), 0);
        assert_eq!(tail.opt.t(), 2, "3 accumulated + 1 tail flush");
    }

    fn probe_all(t: &Trainer) -> Vec<u32> {
        t.opt
            .params()
            .iter()
            .flat_map(|p| {
                p.value()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// `n` distinct episodes: windows of one synthetic record, each starting
    /// one snapshot later.
    fn shifted_episodes(cfg: &SwinConfig, n: usize) -> Vec<Episode> {
        (0..n)
            .map(|i| {
                let snaps = synthetic_snaps(cfg.t_out + 1 + i, cfg.ny, cfg.nx, cfg.nz);
                encode_episode(
                    &snaps[i..],
                    &NormStats::identity(),
                    &EncodeConfig::default(),
                )
            })
            .collect()
    }

    #[test]
    fn data_parallel_single_worker_matches_serial_stacked_step() {
        // Four episodes (power of two, so the f64 weight/average round-trip
        // is exact), one worker, per-worker batch 4: the data-parallel epoch
        // must be bitwise-identical to one serial step on the stacked batch.
        let cfg = SwinConfig::tiny(8, 8, 4, 2);
        let eps = shifted_episodes(&cfg, 4);
        let mask = Tensor::ones(&[cfg.ny, cfg.nx]);

        let mut serial = Trainer::new(
            SwinSurrogate::new(cfg.clone(), 0),
            mask.clone(),
            TrainConfig::default(),
        );
        serial.step(&crate::dataset::stack_episodes(&eps));

        let mut dp = Trainer::new(
            SwinSurrogate::new(cfg.clone(), 0),
            mask.clone(),
            TrainConfig::default(),
        );
        let stats = dp.train_epoch_data_parallel(&eps, 1, 4);
        assert_eq!(stats.instances, 4);
        assert_eq!(
            probe_all(&serial),
            probe_all(&dp),
            "W=1 data-parallel must equal the serial stacked step bitwise"
        );

        // And a given worker count must be deterministic run-to-run.
        let mut dp2 = Trainer::new(
            SwinSurrogate::new(cfg.clone(), 0),
            mask,
            TrainConfig::default(),
        );
        dp2.train_epoch_data_parallel(&eps, 1, 4);
        assert_eq!(probe_all(&dp), probe_all(&dp2));
    }

    #[test]
    fn data_parallel_multi_worker_trains_and_is_deterministic() {
        let cfg = SwinConfig::tiny(8, 8, 4, 2);
        let eps = shifted_episodes(&cfg, 5);
        let mask = Tensor::ones(&[cfg.ny, cfg.nx]);
        let mut a = Trainer::new(
            SwinSurrogate::new(cfg.clone(), 0),
            mask.clone(),
            TrainConfig::default(),
        );
        // Uneven shares: 5 episodes over 2 workers (3 + 2), micro-batch 2.
        let s = a.train_epoch_data_parallel(&eps, 2, 2);
        assert_eq!(s.instances, 5);
        assert!(s.mean_loss.is_finite());
        assert!(s.instances_per_sec > 0.0 && s.wall_seconds > 0.0);
        let mut b = Trainer::new(
            SwinSurrogate::new(cfg.clone(), 0),
            mask,
            TrainConfig::default(),
        );
        b.train_epoch_data_parallel(&eps, 2, 2);
        assert_eq!(
            probe_all(&a),
            probe_all(&b),
            "same worker count must give bitwise-identical weights"
        );
    }

    #[test]
    fn backend_scope_around_data_parallel_epoch_reaches_every_worker() {
        use ctensor::backend::{scoped, ScalarRef};
        use std::sync::Arc;

        let (cfg, mut blocked) = tiny_trainer();
        let eps = shifted_episodes(&cfg, 2);
        blocked.train_epoch_data_parallel(&eps, 2, 1);

        let (_, mut scoped_epoch) = tiny_trainer();
        {
            let _oracle = scoped(Arc::new(ScalarRef));
            scoped_epoch.train_epoch_data_parallel(&eps, 2, 1);
        }

        // The same epoch by hand: one thread per rank, each scoping the
        // oracle itself, then the rank-order f64 mean and one update.
        let (_, mut by_hand) = tiny_trainer();
        let (state, mask) = (state_dict(&by_hand.model), by_hand.mask.clone());
        let rank_grads: Vec<Vec<f32>> = std::thread::scope(|s| {
            let ranks: Vec<_> = eps
                .iter()
                .map(|ep| {
                    let (cfg, state, mask) = (&cfg, &state, &mask);
                    s.spawn(move || {
                        let _oracle = scoped(Arc::new(ScalarRef));
                        let model = SwinSurrogate::from_state(cfg.clone(), state);
                        let mut rank = Trainer::new(model, mask.clone(), TrainConfig::default());
                        rank.forward_backward(ep);
                        let grads = rank.opt.params().iter().flat_map(|p| {
                            let g = p.grad().unwrap_or_else(|| Tensor::zeros(p.value().shape()));
                            g.as_slice().to_vec()
                        });
                        grads.collect()
                    })
                })
                .collect();
            ranks.into_iter().map(|r| r.join().unwrap()).collect()
        });
        {
            let _oracle = scoped(Arc::new(ScalarRef));
            let mut off = 0;
            for p in by_hand.opt.params() {
                let mean: Vec<f32> = (off..off + p.numel())
                    .map(|i| ((rank_grads[0][i] as f64 + rank_grads[1][i] as f64) * 0.5) as f32)
                    .collect();
                p.accum_grad(&Tensor::from_vec(mean, p.value().shape()));
                off += p.numel();
            }
            by_hand.apply_accumulated(1);
        }

        assert_eq!(
            probe_all(&scoped_epoch),
            probe_all(&by_hand),
            "a scope around the epoch must put every worker on the oracle"
        );
        assert_ne!(
            probe_all(&scoped_epoch),
            probe_all(&blocked),
            "the oracle epoch must not be the default-backend epoch"
        );
    }

    #[test]
    fn checkpoint_resume_is_bitwise_identical() {
        use crate::checkpoint::TrainCheckpoint;

        let (cfg, mut trainer) = tiny_trainer();
        let ep = episode(&cfg);
        for _ in 0..3 {
            trainer.step(&ep);
        }
        // Serialize mid-run, then keep training the original.
        let bytes = trainer.save_checkpoint(11).to_bytes();
        for _ in 0..3 {
            trainer.step(&ep);
        }
        let finished = probe_all(&trainer);

        // A fresh trainer (different init seed — restore must overwrite
        // everything) resumed from the byte stream must land on exactly
        // the same weights.
        let model = SwinSurrogate::new(cfg.clone(), 99);
        let mask = Tensor::ones(&[cfg.ny, cfg.nx]);
        let mut resumed = Trainer::new(model, mask, TrainConfig::default());
        let ck = TrainCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(resumed.restore_checkpoint(&ck), 11);
        assert_eq!(resumed.opt.t(), 3, "Adam step counter restored");
        for _ in 0..3 {
            resumed.step(&ep);
        }
        assert_eq!(
            finished,
            probe_all(&resumed),
            "resume from checkpoint must be bitwise-identical"
        );
    }

    #[test]
    fn max_batch_grows_with_checkpointing() {
        let (cfg, mut trainer) = tiny_trainer();
        let ep = episode(&cfg);
        // Probe the resident footprint at batch 1 without checkpointing,
        // then set the budget between the plain and checkpointed needs.
        let plain1 = {
            let mut g = Graph::new();
            g.training = true;
            let x3 = g.constant(ep.x3d.clone());
            let x2 = g.constant(ep.x2d.clone());
            let (p3, p2) = trainer.model.forward(&mut g, x3, x2);
            let _ = episode_loss(&mut g, p3, p2, &ep.target3, &ep.target2, &trainer.mask);
            g.meter().current
        };
        let budget = plain1 + plain1 / 2; // fits 1 plain batch, not 2
        let b_plain = trainer.max_batch_for_budget(&ep, budget, 4);
        trainer.set_checkpoint(CheckpointPolicy::DiscardWMsa);
        let b_ck = trainer.max_batch_for_budget(&ep, budget, 4);
        assert!(b_plain >= 1);
        assert!(
            b_ck > b_plain,
            "checkpointing must admit a larger batch: {b_ck} !> {b_plain}"
        );
    }
}
