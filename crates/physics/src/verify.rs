//! Episode verification: threshold checks and pass-rate statistics
//! (paper §III-E, Fig. 7).

use cgrid::Grid;
use cocean::Snapshot;

use crate::mass::MassBalance;

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
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// Mean |residual| (m/s) over the wet columns — the paper's pass metric.
    pub mean_residual: f64,
    pub max_residual: f64,
    pub passed: bool,
    /// Wet columns below `MIN_DEPTH` in either snapshot; their mean passes too.
    pub dry_columns: usize,
}

/// Physics-based verifier over a fixed grid.
pub struct Verifier {
    mass: MassBalance,
    pub cfg: VerifierConfig,
}

impl Verifier {
    pub fn new(grid: &Grid, cfg: VerifierConfig) -> Self {
        Self {
            mass: MassBalance::new(grid),
            cfg,
        }
    }

    /// Verify one transition (consecutive snapshots).
    pub fn check_pair(&self, before: &Snapshot, after: &Snapshot) -> Verdict {
        let mut one = self.transitions(before, std::slice::from_ref(after));
        one.next().expect("one transition")
    }

    /// Verify a whole episode: initial condition followed by predicted
    /// snapshots. Passes only if **every** transition passes; returns the
    /// per-transition verdicts (the workflow stops at the first failure).
    pub fn check_episode(&self, initial: &Snapshot, predicted: &[Snapshot]) -> Vec<Verdict> {
        let mut out = Vec::with_capacity(predicted.len());
        for v in self.transitions(initial, predicted) {
            out.push(v);
            if !v.passed {
                break;
            }
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
        let Some((first, rest)) = trajectory.split_first() else {
            return Vec::new();
        };
        self.transitions(first, rest)
            .map(|v| v.mean_residual)
            .collect()
    }

    /// Verdicts of `first → rest[0] → rest[1] …`, computed lazily: each
    /// snapshot is depth-averaged once and shared by its two transitions.
    fn transitions<'a>(
        &'a self,
        first: &'a Snapshot,
        rest: &'a [Snapshot],
    ) -> impl Iterator<Item = Verdict> + 'a {
        let mut prev = self.mass.column_means(first);
        rest.iter().map(move |snap| {
            let next = self.mass.column_means(snap);
            let v = self.mass.verdict(&prev, &next, self.cfg.threshold);
            prev = next;
            v
        })
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

    fn recorded(n: usize) -> (Grid, Vec<Snapshot>) {
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
        let snaps = m.record(n, interval);
        (grid, snaps)
    }

    #[test]
    fn episode_check_stops_at_first_failure() {
        let (grid, snaps) = recorded(4);
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

    #[test]
    fn shared_column_means_match_pairwise_checks_bitwise() {
        let (grid, mut snaps) = recorded(6);
        for v in snaps[3].zeta.iter_mut() {
            *v += 0.3;
        }
        // Residuals are finite and never -0.0, so `==` is bitwise here.
        for threshold in [ACCEPTED_THRESHOLD, 1e9] {
            let verifier = Verifier::new(&grid, VerifierConfig { threshold });
            let pairs: Vec<Verdict> = snaps
                .windows(2)
                .map(|w| verifier.check_pair(&w[0], &w[1]))
                .collect();
            let episode = verifier.check_episode(&snaps[0], &snaps[1..]);
            let stop = pairs.iter().position(|v| !v.passed);
            assert_eq!(stop.is_some(), threshold < 1.0, "{pairs:?}");
            assert_eq!(episode.len(), stop.map_or(pairs.len(), |k| k + 1));
            assert_eq!(episode, pairs[..episode.len()]);
            let means: Vec<f64> = pairs.iter().map(|v| v.mean_residual).collect();
            assert_eq!(verifier.residual_series(&snaps), means);
        }
    }
}
