//! `rollout12d` and `fallback12d`: chained 12-day forecasts through
//! `HybridForecaster::forecast`, one caller, f32. The two differ only in
//! the verifier's threshold, which decides whether the surrogate's episode
//! is delivered or thrown away and recomputed by the simulator.

use std::time::Instant;

use ccore::{HybridForecaster, HybridOutcome, TrainedSurrogate};
use cocean::Snapshot;
use cphysics::{VerifierConfig, ACCEPTED_THRESHOLD};

use crate::context::{bitwise_eq, Context, Score, TEST_YEAR};
use crate::report::{end_to_end, setup_metric, traced_rows, Metric, Pass, Report};
use crate::trace::{self, Tracer};
use crate::{probes, RunCfg, SETUP_REPS, TRACE_PASS_SHARE};

/// 12 days of half-hour steps in episodes of `t_out` = 4.
const EPISODES_12D: usize = 144;
/// The seed picks the forecast's first snapshot among this many.
const STARTS: usize = 4;
/// Episodes of the warm-up forecast inside set-up.
const WARM_EPISODES: usize = 12;

pub struct Kind {
    pub name: &'static str,
    threshold: f64,
    /// Episodes of the reference forecast the timed chain is compared with
    /// bit for bit, and on which accuracy is scored. A fallback episode
    /// costs four times a surrogate one, so its reference is two days.
    ref_episodes: usize,
}

pub const ROLLOUT: Kind = Kind {
    name: "rollout12d",
    threshold: ACCEPTED_THRESHOLD,
    ref_episodes: EPISODES_12D,
};

pub const FALLBACK: Kind = Kind {
    name: "fallback12d",
    // No surrogate episode has a residual this small: every one falls back.
    threshold: 1e-12,
    ref_episodes: 24,
};

/// Sums of what `HybridOutcome` returns over a pass.
#[derive(Default)]
struct Timers {
    call_s: f64,
    ai_s: f64,
    verify_s: f64,
    roms_s: f64,
    episodes: u64,
    fallbacks: u64,
}

impl Timers {
    fn add(&mut self, call_s: f64, out: &HybridOutcome) {
        self.call_s += call_s;
        self.ai_s += out.ai_seconds;
        self.verify_s += out.verify_seconds;
        self.roms_s += out.roms_seconds;
        self.episodes += out.episodes_total as u64;
        self.fallbacks += out.episodes_fallback as u64;
    }
}

struct Bench<'a> {
    kind: &'a Kind,
    ctx: &'a Context,
    forecaster: HybridForecaster<'a>,
    start: usize,
    /// `forecast(&test, start, ref_episodes)`, chained inside the program.
    reference: Vec<Snapshot>,
}

impl Bench<'_> {
    /// Chain 12-day forecasts from outside, one `forecast(.., 1)` call per
    /// episode, for `seconds`; a chain that reaches day 12 starts over.
    fn pass(&self, seconds: f64, tracer: Option<&Tracer>) -> (Pass, Timers) {
        let t_out = self.ctx.t_out();
        let archive = &self.ctx.test_archive;
        let mut traj = archive.clone();
        let mut pass = Pass::default();
        let mut timers = Timers::default();
        let t0 = Instant::now();
        loop {
            for e in 0..EPISODES_12D {
                let w0 = self.start + e * t_out;
                let op = pass.attempted;
                let root = tracer.map(|t| t.begin("episode", None, op));
                let began = Instant::now();
                let out = trace::spanned(tracer, "ccore.forecast", root, op, || {
                    self.forecaster.forecast(&traj, w0, 1)
                });
                let done = Instant::now();
                pass.attempted += 1;
                pass.lat_ms.push((done - began).as_secs_f64() * 1e3);
                pass.events.push(((done - t0).as_secs_f64(), 1));
                // The slot just used as initial condition goes back to the
                // archive: on the next lap its frame is the previous
                // episode's last boundary condition.
                traj[w0] = archive[w0].clone();
                match out {
                    Ok(out) if self.delivered_ok(e, &out) => {
                        timers.add((done - began).as_secs_f64(), &out);
                        // The next episode starts from this one's last step.
                        if e + 1 < EPISODES_12D {
                            traj[w0 + t_out] = out.snapshots[t_out - 1].clone();
                        }
                    }
                    // A failed episode leaves the archive's frame in place.
                    _ => pass.failed += 1,
                }
                if let (Some(t), Some(root)) = (tracer, root) {
                    t.end(root);
                }
                if (done - t0).as_secs_f64() >= seconds {
                    return (pass, timers);
                }
            }
        }
    }

    /// Episode `e` of an outside chain must equal the program's own chain
    /// bit for bit; past the reference it must at least have taken the
    /// expected arm and be finite.
    fn delivered_ok(&self, e: usize, out: &HybridOutcome) -> bool {
        let t_out = self.ctx.t_out();
        if out.snapshots.len() != t_out {
            return false;
        }
        if e < self.kind.ref_episodes {
            return bitwise_eq(&out.snapshots, &self.reference[e * t_out..(e + 1) * t_out]);
        }
        out.episodes_fallback == 1
            && out
                .snapshots
                .iter()
                .all(|s| s.zeta.iter().all(|z| z.is_finite()))
    }

    fn score(&self) -> Score {
        let t_out = self.ctx.t_out();
        let mut score = Score::default();
        for e in 0..self.kind.ref_episodes {
            let w0 = self.start + e * t_out;
            let initial = match e {
                0 => &self.ctx.test_archive[w0],
                _ => &self.reference[e * t_out - 1],
            };
            score.add_episode(
                self.ctx,
                initial,
                &self.reference[e * t_out..(e + 1) * t_out],
                &self.ctx.test_archive[w0 + 1..=w0 + t_out],
            );
        }
        score
    }
}

pub fn run(kind: &Kind, cfg: &RunCfg) -> Report {
    let mut notes = Vec::new();
    let ctx = Context::build(|t_out| EPISODES_12D * t_out + STARTS);
    let t = Instant::now();
    let surrogate: TrainedSurrogate = ctx.train();
    let train_s = t.elapsed().as_secs_f64();
    let start = (cfg.seed % STARTS as u64) as usize;
    let verifier = VerifierConfig {
        threshold: kind.threshold,
    };
    let ocean = ctx.scenario.ocean_config(&ctx.grid, TEST_YEAR);

    // The workload's own set-up: build the forecaster and make one short
    // forecast, so lazy statics and allocator pools are warm.
    let own: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let f = HybridForecaster::new(&ctx.grid, &surrogate, ocean.clone(), verifier);
            let warm = f.forecast(&ctx.test_archive, start, WARM_EPISODES);
            assert!(warm.is_ok(), "warm-up forecast failed: {:?}", warm.err());
            t.elapsed().as_secs_f64()
        })
        .collect();
    let setup = setup_metric(ctx.build_s + train_s, &own);

    let forecaster = HybridForecaster::new(&ctx.grid, &surrogate, ocean, verifier);
    let reference = forecaster
        .forecast(&ctx.test_archive, start, kind.ref_episodes)
        .expect("the archive covers 12 days from every start");
    let expected_fallbacks = if kind.threshold < ACCEPTED_THRESHOLD {
        kind.ref_episodes
    } else {
        0
    };
    let arms_ok = reference.episodes_fallback == expected_fallbacks;
    if !arms_ok {
        notes.push(format!(
            "reference forecast fell back on {} of {} episodes, expected {expected_fallbacks}",
            reference.episodes_fallback, kind.ref_episodes
        ));
    }
    let bench = Bench {
        kind,
        ctx: &ctx,
        forecaster,
        start,
        reference: reference.snapshots,
    };
    let score = bench.score();

    let mut report = Report::new(kind.name, cfg);
    if !cfg.trace {
        let (pass, _) = bench.pass(cfg.seconds, None);
        report.metrics = end_to_end(setup, &pass, &score, &mut notes);
        (report.attempted, report.failed) = (pass.attempted, pass.failed);
    } else {
        let (plain, _) = bench.pass(cfg.seconds * TRACE_PASS_SHARE, None);
        let tracer = Tracer::new();
        let (traced, timers) = bench.pass(cfg.seconds * TRACE_PASS_SHARE, Some(&tracer));
        (report.attempted, report.failed) = (
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
        );
        let mut rows = probes::run(cfg, &ctx, &surrogate, &tracer, &mut notes);
        let share = |x: f64| Metric::point(x / timers.call_s);
        rows.extend([
            ("ccore.hybrid.ai_share", share(timers.ai_s)),
            ("ccore.hybrid.verify_share", share(timers.verify_s)),
            ("ccore.hybrid.roms_share", share(timers.roms_s)),
            (
                "ccore.hybrid.glue_share",
                share(timers.call_s - timers.ai_s - timers.verify_s - timers.roms_s),
            ),
            (
                "ccore.hybrid.fallback_share",
                Metric::point(timers.fallbacks as f64 / timers.episodes as f64),
            ),
        ]);
        rows.extend(traced_rows(&score, &plain, &traced));
        report.metrics = rows;
        report.spans = tracer.spans();
    }
    report.correct = arms_ok && report.failed == 0;
    report.notes = notes;
    report
}
