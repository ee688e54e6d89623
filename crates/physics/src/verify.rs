//! Episode verification: threshold checks and pass-rate statistics
//! (paper §III-E, Fig. 7).

use cgrid::Grid;
use cocean::Snapshot;

use crate::mass::{water_mass_residual, ResidualField};

/// Thresholds the paper sweeps (m/s).
pub const PAPER_THRESHOLDS: [f64; 6] = [3.0e-4, 3.5e-4, 4.0e-4, 4.5e-4, 5.0e-4, 5.5e-4];

/// The threshold "typically considered acceptable by oceanographers".
pub const ACCEPTED_THRESHOLD: f64 = 5.0e-4;

/// Verifier configuration.
#[derive(Clone, Copy, Debug)]
pub struct VerifierConfig {
    /// Mean-residual threshold (m/s).
    pub threshold: f64,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        Self {
            threshold: ACCEPTED_THRESHOLD,
        }
    }
}

/// Outcome of verifying one snapshot transition.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    pub mean_residual: f64,
    pub max_residual: f64,
    pub passed: bool,
}

/// Physics-based verifier over a fixed grid.
pub struct Verifier<'g> {
    grid: &'g Grid,
    pub cfg: VerifierConfig,
}

impl<'g> Verifier<'g> {
    pub fn new(grid: &'g Grid, cfg: VerifierConfig) -> Self {
        Self { grid, cfg }
    }

    /// Verify one transition (consecutive snapshots).
    pub fn check_pair(&self, before: &Snapshot, after: &Snapshot) -> Verdict {
        let r = water_mass_residual(self.grid, before, after);
        self.verdict(&r)
    }

    /// Verify a whole episode: initial condition followed by predicted
    /// snapshots. Passes only if **every** transition passes; returns the
    /// per-transition verdicts (the workflow stops at the first failure).
    pub fn check_episode(&self, initial: &Snapshot, predicted: &[Snapshot]) -> Vec<Verdict> {
        let mut out = Vec::with_capacity(predicted.len());
        let mut prev = initial;
        for snap in predicted {
            let v = self.check_pair(prev, snap);
            let failed = !v.passed;
            out.push(v);
            if failed {
                break;
            }
            prev = snap;
        }
        out
    }

    /// [`Self::check_episode`] plus the acceptance rule every caller
    /// shares: the episode is accepted when a verdict exists for every
    /// predicted snapshot and each one passed.
    pub fn accepts(&self, initial: &Snapshot, predicted: &[Snapshot]) -> (Vec<Verdict>, bool) {
        let verdicts = self.check_episode(initial, predicted);
        let accepted = verdicts.len() == predicted.len() && verdicts.iter().all(|v| v.passed);
        (verdicts, accepted)
    }

    /// Mean residual of every transition in a trajectory (used for the
    /// pass-rate curve where each inference is judged independently).
    pub fn residual_series(&self, trajectory: &[Snapshot]) -> Vec<f64> {
        trajectory
            .windows(2)
            .map(|w| water_mass_residual(self.grid, &w[0], &w[1]).mean)
            .collect()
    }

    fn verdict(&self, r: &ResidualField) -> Verdict {
        Verdict {
            mean_residual: r.mean,
            max_residual: r.max,
            passed: r.mean <= self.cfg.threshold,
        }
    }
}

/// Pass rate of a residual population at a threshold.
pub fn pass_rate(residuals: &[f64], threshold: f64) -> f64 {
    if residuals.is_empty() {
        return 1.0;
    }
    residuals.iter().filter(|&&r| r <= threshold).count() as f64 / residuals.len() as f64
}

/// Pass-rate curve over the paper's threshold sweep.
pub fn pass_rate_curve(residuals: &[f64], thresholds: &[f64]) -> Vec<(f64, f64)> {
    thresholds
        .iter()
        .map(|&t| (t, pass_rate(residuals, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_rate_monotone_in_threshold() {
        let residuals = vec![1e-4, 2e-4, 3e-4, 4e-4, 6e-4, 8e-4];
        let curve = pass_rate_curve(&residuals, &PAPER_THRESHOLDS);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "pass rate must grow with threshold");
        }
        assert!((pass_rate(&residuals, 5.0e-4) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn pass_rate_edges() {
        assert_eq!(pass_rate(&[], 1e-4), 1.0);
        assert_eq!(pass_rate(&[1.0], 1e-4), 0.0);
        assert_eq!(pass_rate(&[1e-5], 1e-4), 1.0);
    }

    #[test]
    fn episode_check_stops_at_first_failure() {
        use cgrid::{EstuaryParams, GridParams};
        use cocean::{OceanConfig, Roms, TidalForcing};
        let grid = Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 16,
                nx: 16,
                ..Default::default()
            },
            nz: 3,
            ..Default::default()
        });
        let mut cfg = OceanConfig::for_grid(&grid);
        cfg.forcing = TidalForcing::single(0.3, 12.0);
        let mut m = Roms::new(&grid, cfg);
        m.spinup(2.0 * 3600.0);
        let interval = m.cfg.dt_slow();
        let snaps = m.record(4, interval);

        let verifier = Verifier::new(&grid, VerifierConfig::default());
        // Clean episode passes everywhere.
        let verdicts = verifier.check_episode(&snaps[0], &snaps[1..]);
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");
        assert!(verifier.accepts(&snaps[0], &snaps[1..]).1);

        // Corrupt the middle snapshot: the check stops there.
        let mut bad = snaps.clone();
        for v in bad[2].zeta.iter_mut() {
            *v += 0.3;
        }
        let verdicts = verifier.check_episode(&bad[0], &bad[1..]);
        assert!(verdicts.len() <= 2, "must stop at the corrupted step");
        assert!(!verdicts.last().unwrap().passed);
        assert!(!verifier.accepts(&bad[0], &bad[1..]).1);
    }
}
