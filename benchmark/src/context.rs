//! The inputs every workload starts from, and the scoring of delivered
//! forecasts against the simulator's archive.

use std::time::Instant;

use ccore::{train_surrogate, Scenario, TrainedSurrogate};
use cgrid::Grid;
use cocean::Snapshot;
use cphysics::{Verifier, VerifierConfig, ACCEPTED_THRESHOLD};

/// Epochs of the context's surrogate. `Scenario::small()` asks for 20; 8
/// reach within 5 % of its 12-day ζ error in 40 % of the time, and every
/// run pays for this training before it measures anything.
pub const CONTEXT_EPOCHS: usize = 8;

/// Forcing year of the archive forecasts are scored against (training
/// uses year 0).
pub const TEST_YEAR: u32 = 1;

pub struct Context {
    pub scenario: Scenario,
    pub grid: Grid,
    /// Row-major `(ny, nx)`, true over water.
    pub wet: Vec<bool>,
    pub train_archive: Vec<Snapshot>,
    pub test_archive: Vec<Snapshot>,
    /// Seconds spent building the fields above.
    pub build_s: f64,
}

impl Context {
    /// Grid, the 140-snapshot training archive and `test_len(t_out)`
    /// snapshots of the held-out year.
    pub fn build(test_len: impl FnOnce(usize) -> usize) -> Context {
        let t0 = Instant::now();
        let mut scenario = Scenario::small();
        scenario.epochs = CONTEXT_EPOCHS;
        let test_len = test_len(scenario.t_out);
        let grid = scenario.grid();
        let wet = (0..grid.ny)
            .flat_map(|j| (0..grid.nx).map(move |i| (j, i)))
            .map(|(j, i)| grid.mask_rho.get(j as isize, i as isize) >= 0.5)
            .collect();
        let train_archive = scenario.simulate_archive(&grid, 0, scenario.train_snapshots);
        let test_archive = scenario.simulate_archive(&grid, TEST_YEAR, test_len);
        Context {
            scenario,
            grid,
            wet,
            train_archive,
            test_archive,
            build_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// The context's surrogate, trained on the training archive.
    pub fn train(&self) -> TrainedSurrogate {
        train_surrogate(&self.scenario, &self.grid, &self.train_archive)
    }

    pub fn t_out(&self) -> usize {
        self.scenario.t_out
    }

    /// The episode window that starts at test snapshot `start`.
    pub fn window(&self, start: usize) -> &[Snapshot] {
        &self.test_archive[start..=start + self.t_out()]
    }
}

/// Accuracy and conservation verdict of delivered forecast steps.
#[derive(Default)]
pub struct Score {
    sq_err: f64,
    cells: u64,
    steps: u64,
    passed: u64,
}

impl Score {
    /// Score one delivered episode: `steps` follow `initial`, and `truth`
    /// holds the archive's snapshots at the same times.
    pub fn add_episode(
        &mut self,
        ctx: &Context,
        initial: &Snapshot,
        steps: &[Snapshot],
        truth: &[Snapshot],
    ) {
        for (s, t) in steps.iter().zip(truth) {
            for ((a, b), _) in s.zeta.iter().zip(&t.zeta).zip(&ctx.wet).filter(|x| *x.1) {
                self.sq_err += f64::from(a - b).powi(2);
                self.cells += 1;
            }
        }
        // One residual per transition; a step counts as passing on its own
        // residual, so one bad step does not hide the ones after it.
        let verifier = Verifier::new(
            &ctx.grid,
            VerifierConfig {
                threshold: ACCEPTED_THRESHOLD,
            },
        );
        let mut prev = initial;
        for s in steps {
            self.steps += 1;
            self.passed += u64::from(verifier.check_pair(prev, s).passed);
            prev = s;
        }
    }

    /// RMSE of delivered ζ over wet cells, metres.
    pub fn zeta_rmse_m(&self) -> f64 {
        (self.sq_err / self.cells as f64).sqrt()
    }

    /// Share of delivered steps whose mass residual passes
    /// `cphysics::ACCEPTED_THRESHOLD`.
    pub fn verify_pass_share(&self) -> f64 {
        self.passed as f64 / self.steps as f64
    }
}

/// Largest |Δζ| between two episodes, metres; infinite when their shapes
/// differ.
pub fn max_zeta_diff(a: &[Snapshot], b: &[Snapshot]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    let mut worst = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        if x.zeta.len() != y.zeta.len() {
            return f32::INFINITY;
        }
        for (p, q) in x.zeta.iter().zip(&y.zeta) {
            let d = (p - q).abs();
            // NaN compares false against everything, so test it by name.
            if d.is_nan() {
                return f32::INFINITY;
            }
            worst = worst.max(d);
        }
    }
    worst
}

/// Bit-for-bit equality of every field of two episodes.
pub fn bitwise_eq(a: &[Snapshot], b: &[Snapshot]) -> bool {
    let same = |p: &[f32], q: &[f32]| {
        p.len() == q.len() && p.iter().zip(q).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.time.to_bits() == y.time.to_bits()
                && same(&x.zeta, &y.zeta)
                && same(&x.u, &y.u)
                && same(&x.v, &y.v)
                && same(&x.w, &y.w)
        })
}
