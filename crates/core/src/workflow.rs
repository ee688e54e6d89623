//! The hybrid AI+ROMS workflow (paper Fig. 1 / Fig. 8): surrogate
//! inference, physics verification, and automatic fallback to the
//! simulator when a prediction violates mass conservation.

use std::time::Instant;

use cgrid::Grid;
use cocean::{OceanConfig, Roms, Snapshot};
use cphysics::{Verifier, VerifierConfig};

use crate::error::ForecastError;
use crate::train::TrainedSurrogate;

/// Outcome of a hybrid forecast.
#[derive(Clone, Debug)]
pub struct HybridOutcome {
    /// The forecast trajectory (episode-concatenated).
    pub snapshots: Vec<Snapshot>,
    pub episodes_total: usize,
    pub episodes_ai: usize,
    pub episodes_fallback: usize,
    pub ai_seconds: f64,
    pub roms_seconds: f64,
    pub verify_seconds: f64,
}

impl HybridOutcome {
    /// Total wall time of the forecast.
    pub fn total_seconds(&self) -> f64 {
        self.ai_seconds + self.roms_seconds + self.verify_seconds
    }
}

/// Hybrid forecaster over a fixed grid.
pub struct HybridForecaster<'a> {
    pub grid: &'a Grid,
    pub surrogate: &'a TrainedSurrogate,
    pub ocean: OceanConfig,
    pub verifier_cfg: VerifierConfig,
}

impl<'a> HybridForecaster<'a> {
    pub fn new(
        grid: &'a Grid,
        surrogate: &'a TrainedSurrogate,
        ocean: OceanConfig,
        verifier_cfg: VerifierConfig,
    ) -> Self {
        Self {
            grid,
            surrogate,
            ocean,
            verifier_cfg,
        }
    }

    /// Forecast `n_episodes` of `t_out` steps each, starting from
    /// `reference[start]`. Boundary conditions for each episode are read
    /// from the reference trajectory (in deployment they come from tide
    /// tables / a parent model); the reference also never leaks interior
    /// state into the surrogate input beyond the initial condition.
    ///
    /// Each episode is verified; on failure, the episode is recomputed
    /// with the simulator initialized from the last accepted state (the
    /// paper's "switch back to ROMS" arm), and the forecast continues.
    ///
    /// A reference trajectory too short to supply boundary frames is a
    /// typed [`ForecastError`], not a panic — serving workers stay up.
    pub fn forecast(
        &self,
        reference: &[Snapshot],
        start: usize,
        n_episodes: usize,
    ) -> Result<HybridOutcome, ForecastError> {
        let t_out = self.surrogate.model.cfg.t_out;
        if start + n_episodes * t_out >= reference.len() {
            return Err(ForecastError::ReferenceTooShort {
                needed: start + n_episodes * t_out + 1,
                got: reference.len(),
            });
        }
        let verifier = Verifier::new(self.grid, self.verifier_cfg);

        let mut out = HybridOutcome {
            snapshots: Vec::with_capacity(n_episodes * t_out),
            episodes_total: n_episodes,
            episodes_ai: 0,
            episodes_fallback: 0,
            ai_seconds: 0.0,
            roms_seconds: 0.0,
            verify_seconds: 0.0,
        };

        // The evolving initial condition: starts from the reference, then
        // follows our own forecast (AI or fallback).
        let mut current = reference[start].clone();

        for e in 0..n_episodes {
            let w0 = start + e * t_out;
            // Window for boundary conditions: current state + reference
            // boundary frames.
            let mut window = Vec::with_capacity(t_out + 1);
            window.push(current.clone());
            for s in &reference[w0 + 1..=w0 + t_out] {
                window.push(s.clone());
            }

            let t_ai = Instant::now();
            let prediction = self.surrogate.try_predict_episode(&window)?;
            out.ai_seconds += t_ai.elapsed().as_secs_f64();

            let t_v = Instant::now();
            let verdicts = verifier.check_episode(&current, &prediction);
            let passed = verdicts.iter().all(|v| v.passed) && verdicts.len() == t_out;
            out.verify_seconds += t_v.elapsed().as_secs_f64();

            if passed {
                out.episodes_ai += 1;
                current = prediction
                    .last()
                    .ok_or(ForecastError::EmptyEpisode)?
                    .clone();
                out.snapshots.extend(prediction);
            } else {
                // Fallback: run the simulator for this episode from the
                // last accepted state.
                let t_r = Instant::now();
                let mut roms = Roms::new(self.grid, self.ocean.clone());
                roms.load(&current);
                let sim = roms.record(t_out, self.surrogate.snapshot_interval);
                out.roms_seconds += t_r.elapsed().as_secs_f64();
                out.episodes_fallback += 1;
                current = sim.last().ok_or(ForecastError::EmptyEpisode)?.clone();
                out.snapshots.extend(sim);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_surrogate, Scenario, SurrogateSpec};
    use cphysics::ACCEPTED_THRESHOLD;
    use std::sync::OnceLock;

    type Fixture = (Grid, SurrogateSpec, Vec<Snapshot>, Scenario);

    /// Simulated and trained once for every test here (most of each
    /// test's cost in a debug build); each test instantiates its own
    /// model from the spec, since model parameters are thread-local.
    fn setup() -> (
        &'static Grid,
        TrainedSurrogate,
        &'static Vec<Snapshot>,
        &'static Scenario,
    ) {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        let (grid, spec, test, sc) = FIXTURE.get_or_init(|| {
            let sc = Scenario::small();
            let grid = sc.grid();
            let train = sc.simulate_archive(&grid, 0, 40);
            let spec = train_surrogate(&sc, &grid, &train).spec();
            let test = sc.simulate_archive(&grid, 1, 20);
            (grid, spec, test, sc)
        });
        (grid, spec.instantiate(), test, sc)
    }

    #[test]
    fn strict_threshold_forces_fallback_loose_allows_ai() {
        let (grid, trained, test, sc) = setup();
        let ocean = sc.ocean_config(grid, 1);

        // Absurdly strict: every episode must fall back to the simulator.
        let strict = HybridForecaster::new(
            grid,
            &trained,
            ocean.clone(),
            VerifierConfig { threshold: 1e-12 },
        );
        let r = strict.forecast(test, 0, 2).unwrap();
        assert_eq!(r.episodes_fallback, 2);
        assert_eq!(r.episodes_ai, 0);
        assert!(r.roms_seconds > 0.0);

        // Absurdly loose: every episode is accepted from the AI.
        let loose = HybridForecaster::new(grid, &trained, ocean, VerifierConfig { threshold: 1e9 });
        let r = loose.forecast(test, 0, 2).unwrap();
        assert_eq!(r.episodes_ai, 2);
        assert_eq!(r.episodes_fallback, 0);
        assert_eq!(r.snapshots.len(), 2 * sc.t_out);
    }

    #[test]
    fn fallback_episodes_satisfy_conservation() {
        let (grid, trained, test, sc) = setup();
        let ocean = sc.ocean_config(grid, 1);
        let fc = HybridForecaster::new(grid, &trained, ocean, VerifierConfig { threshold: 1e-12 });
        let r = fc.forecast(test, 0, 1).unwrap();
        // Simulator output passes the oceanographic threshold.
        let verifier = Verifier::new(
            grid,
            VerifierConfig {
                threshold: ACCEPTED_THRESHOLD,
            },
        );
        let verdicts = verifier.check_episode(&test[0], &r.snapshots);
        assert!(
            verdicts.iter().all(|v| v.passed),
            "fallback must be physical: {verdicts:?}"
        );
    }

    #[test]
    fn short_reference_is_typed_error_not_panic() {
        let (grid, trained, test, sc) = setup();
        let ocean = sc.ocean_config(grid, 1);
        let fc = HybridForecaster::new(grid, &trained, ocean, VerifierConfig { threshold: 1e9 });
        // 20 test snapshots cannot supply 10 episodes × t_out frames.
        let err = fc.forecast(test, 0, 10);
        assert!(matches!(err, Err(ForecastError::ReferenceTooShort { .. })));
        // A mesh mismatch in the window likewise surfaces as an error.
        let mut bad = test.clone();
        bad[1] = Snapshot {
            time: bad[1].time,
            nz: 1,
            ny: 2,
            nx: 2,
            zeta: vec![0.0; 4],
            u: vec![0.0; 4],
            v: vec![0.0; 4],
            w: vec![0.0; 4],
        };
        let err = fc.forecast(&bad, 0, 1);
        assert!(matches!(err, Err(ForecastError::MeshMismatch { .. })));
    }

    #[test]
    fn timing_fields_populated() {
        let (grid, trained, test, sc) = setup();
        let ocean = sc.ocean_config(grid, 1);
        let fc = HybridForecaster::new(grid, &trained, ocean, VerifierConfig { threshold: 1e9 });
        let r = fc.forecast(test, 0, 2).unwrap();
        assert!(r.ai_seconds > 0.0);
        assert!(r.verify_seconds > 0.0);
        assert!(r.total_seconds() >= r.ai_seconds);
    }
}
