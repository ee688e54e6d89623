//! `train`: the same layers used the other way round. Epochs of
//! `DataLoader::epoch` + `Trainer::step` (batch 4, one prefetch worker,
//! tape recording on, Adam) from a fresh model on the training archive;
//! the seed orders the samples of every epoch after the scored ones.

use std::sync::Arc;
use std::time::Instant;

use ccore::{SurrogateSpec, TrainedSurrogate};
use cpipeline::{
    DataLoader, EncodeConfig, LoaderConfig, NormStats, SnapshotStore, TrainConfig, Trainer,
    WindowSpec,
};
use csurrogate::SwinSurrogate;
use ctensor::prelude::{state_dict, Precision, Tensor};

use crate::context::{Context, Score};
use crate::report::{end_to_end, setup_metric, traced_rows, Metric, Pass, Report};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{probes, RunCfg, SETUP_REPS, TRACE_PASS_SHARE};

const BATCH: usize = 4;
/// Every run starts from the same weights.
const MODEL_SEED: u64 = 0;
/// The model is scored as it stands after this many epochs, however many
/// more the run's seconds allow, so accuracy does not depend on the
/// host's speed. A pass runs at least this many.
const SCORE_EPOCHS: usize = 8;
/// The scored epochs draw their samples in this fixed order, whatever the
/// run's seed. Early training sits on a plateau whose exit moves by
/// several epochs with the sample order: scored on seeded orders, ζ error
/// after 7 epochs spread 14 % from seed to seed, which gates nothing.
const SCORE_ORDER_SEED: u64 = 0;
/// Held-out snapshots (12 windows) the trained model is scored on.
const HELD_OUT: usize = 60;

struct Bench<'a> {
    ctx: &'a Context,
    stats: NormStats,
    mask: Tensor,
    /// Feeds the first [`SCORE_EPOCHS`] epochs.
    scored_loader: DataLoader,
    /// Feeds every later epoch, in the run's seeded order.
    loader: DataLoader,
}

/// What a pass produced beside its timings.
struct PassOut {
    pass: Pass,
    /// Seconds the consumer spent inside the loader's iterator.
    wait_s: f64,
    wall_s: f64,
    /// The model after [`SCORE_EPOCHS`] epochs.
    scored: SurrogateSpec,
}

impl<'a> Bench<'a> {
    /// Compress the archive, build the loader, and train one epoch on a
    /// throwaway model so the loader's buffer pool and lazy statics are warm.
    fn set_up(ctx: &'a Context, seed: u64) -> Bench<'a> {
        let mask_f64: Vec<f64> = ctx.wet.iter().map(|&w| f64::from(u8::from(w))).collect();
        let stats = NormStats::from_snapshots(&ctx.train_archive, &mask_f64);
        let mask = Tensor::from_vec(
            mask_f64.iter().map(|&v| v as f32).collect(),
            &[ctx.grid.ny, ctx.grid.nx],
        );
        let t_out = ctx.t_out();
        let store = Arc::new(SnapshotStore::build(&ctx.train_archive));
        let loader = |shuffle_seed| {
            DataLoader::new(
                Arc::clone(&store),
                WindowSpec::train(t_out).starts(ctx.train_archive.len()),
                t_out,
                stats,
                EncodeConfig::default(),
                LoaderConfig {
                    prefetch_workers: 1,
                    batch_size: BATCH,
                    shuffle_seed: Some(shuffle_seed),
                    ..LoaderConfig::default()
                },
            )
        };
        let bench = Bench {
            ctx,
            stats,
            mask,
            scored_loader: loader(SCORE_ORDER_SEED),
            loader: loader(seed),
        };
        bench.trainer().train_epoch(&bench.loader, 0);
        bench
    }

    fn trainer(&self) -> Trainer {
        Trainer::new(
            SwinSurrogate::new(self.ctx.scenario.swin.clone(), MODEL_SEED),
            self.mask.clone(),
            TrainConfig {
                lr: self.ctx.scenario.lr,
                ..TrainConfig::default()
            },
        )
    }

    fn spec(&self, trainer: &Trainer) -> SurrogateSpec {
        SurrogateSpec {
            swin: trainer.model.cfg.clone(),
            state: state_dict(&trainer.model),
            buffers: trainer.model.buffers(),
            stats: self.stats,
            mask: self.mask.clone(),
            encode: EncodeConfig::default(),
            snapshot_interval: self.ctx.scenario.snapshot_interval,
            precision: Precision::F32,
        }
    }

    /// Train a fresh model for `seconds`, and for [`SCORE_EPOCHS`] epochs
    /// at least, stopping at an epoch's end. Latency is a step's, and an
    /// op is a sample.
    fn pass(&self, seconds: f64, tracer: Option<&Tracer>, notes: &mut Vec<String>) -> PassOut {
        let mut trainer = self.trainer();
        let mut pass = Pass::default();
        let mut epoch_losses = Vec::new();
        let mut scored = None;
        let mut wait_s = 0.0;
        let t0 = Instant::now();
        for epoch in 0.. {
            let loader = match epoch < SCORE_EPOCHS {
                true => &self.scored_loader,
                false => &self.loader,
            };
            let mut batches = loader.epoch(epoch as u64);
            let (mut loss_sum, mut steps) = (0.0, 0u64);
            loop {
                let op = pass.lat_ms.len() as u64;
                let t = Instant::now();
                let batch =
                    trace::spanned(tracer, "cpipeline.loader.next", None, op, || batches.next());
                wait_s += t.elapsed().as_secs_f64();
                let Some(batch) = batch else { break };
                let began = Instant::now();
                let step = match tracer {
                    None => trainer.step(&batch),
                    // `step` is these two calls, in this order.
                    Some(t) => {
                        let root = t.begin("step", None, op);
                        let step = trace::spanned(
                            tracer,
                            "cpipeline.forward_backward",
                            Some(root),
                            op,
                            || trainer.forward_backward(&batch),
                        );
                        trace::spanned(tracer, "cpipeline.optimizer", Some(root), op, || {
                            trainer.apply_accumulated(1)
                        });
                        t.end(root);
                        step
                    }
                };
                let done = Instant::now();
                pass.lat_ms.push((done - began).as_secs_f64() * 1e3);
                pass.events
                    .push(((done - t0).as_secs_f64(), step.instances as u64));
                pass.attempted += step.instances as u64;
                if !step.loss.is_finite() {
                    pass.failed += step.instances as u64;
                }
                loss_sum += f64::from(step.loss);
                steps += 1;
            }
            epoch_losses.push(loss_sum / steps as f64);
            if epoch + 1 == SCORE_EPOCHS {
                scored = Some(self.spec(&trainer));
            }
            if epoch + 1 >= SCORE_EPOCHS && t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        // Checks on the pass as a whole; each broken one fails it.
        let (first, last) = (epoch_losses[0], epoch_losses[SCORE_EPOCHS - 1]);
        // NaN is not an improvement either.
        let improved = last < first;
        if !improved {
            pass.failed += 1;
            notes.push(format!(
                "training did not reduce the loss: epoch 1 {first:.4}, epoch {SCORE_EPOCHS} {last:.4}"
            ));
        }
        let scheduled = (epoch_losses.len() * self.loader.len()) as u64;
        if pass.attempted != scheduled {
            pass.failed += 1;
            notes.push(format!(
                "trained on {} samples, the schedule holds {scheduled}",
                pass.attempted
            ));
        }
        PassOut {
            pass,
            wait_s,
            wall_s: t0.elapsed().as_secs_f64(),
            scored: scored.expect("a pass runs SCORE_EPOCHS epochs"),
        }
    }

    fn dropped(&self) -> usize {
        self.scored_loader.dropped_episodes() + self.loader.dropped_episodes()
    }

    /// Forecast the held-out windows with the trained model.
    fn score(&self, surrogate: &TrainedSurrogate) -> Score {
        let t_out = self.ctx.t_out();
        let mut score = Score::default();
        for start in WindowSpec::test(t_out).starts(self.ctx.test_archive.len()) {
            let window = self.ctx.window(start);
            let steps = surrogate.predict_episode(window);
            score.add_episode(self.ctx, &window[0], &steps, &window[1..]);
        }
        score
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut notes = Vec::new();
    let ctx = Context::build(|_| HELD_OUT);
    let mut own = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        bench = Some(Bench::set_up(&ctx, cfg.seed));
        own.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("SETUP_REPS is at least 1");
    let setup = setup_metric(ctx.build_s, &own);

    let mut report = Report::new("train", cfg);
    let plain_seconds = if cfg.trace {
        cfg.seconds * TRACE_PASS_SHARE
    } else {
        cfg.seconds
    };
    let plain = bench.pass(plain_seconds, None, &mut notes);
    let surrogate = plain.scored.instantiate();
    let score = bench.score(&surrogate);
    (report.attempted, report.failed) = (plain.pass.attempted, plain.pass.failed);
    if !cfg.trace {
        report.metrics = end_to_end(setup, &plain.pass, &score, &mut notes);
    } else {
        let tracer = Tracer::new();
        let traced = bench.pass(plain_seconds, Some(&tracer), &mut notes);
        report.attempted += traced.pass.attempted;
        report.failed += traced.pass.failed;
        let mut rows = probes::run(cfg, &ctx, &surrogate, &tracer, &mut notes);
        let spans = tracer.spans();
        let span_ms = |name| Metric::point(median(&trace::durations(&spans, name)) * 1e-6);
        rows.extend([
            (
                "cpipeline.forward_backward.ms",
                span_ms("cpipeline.forward_backward"),
            ),
            ("cpipeline.optimizer.ms", span_ms("cpipeline.optimizer")),
            (
                "cpipeline.loader.wait_share",
                Metric::point(traced.wait_s / traced.wall_s),
            ),
            (
                "cpipeline.loader.dropped",
                Metric::point(bench.dropped() as f64),
            ),
        ]);
        rows.extend(traced_rows(&score, &plain.pass, &traced.pass));
        report.metrics = rows;
        report.spans = spans;
    }
    if bench.dropped() > 0 {
        report.failed += 1;
        notes.push(format!("the loaders dropped {} episodes", bench.dropped()));
    }
    report.correct = report.failed == 0;
    report.notes = notes;
    report
}
