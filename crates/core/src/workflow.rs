//! The hybrid AI+ROMS workflow (paper Fig. 1 / Fig. 8): surrogate
//! inference, physics verification, and automatic fallback to the
//! simulator when a prediction violates mass conservation. The loop lives
//! in [`HybridForecaster::episodes`] only; `forecast` chains it and the
//! ensemble runner calls it once per member chunk.

use std::time::Instant;

use cgrid::Grid;
use cocean::{OceanConfig, Roms, Snapshot, TidalForcing};
use cphysics::{Verdict, Verifier, VerifierConfig};

use crate::error::ForecastError;
use crate::train::TrainedSurrogate;

/// Which arm produced an episode: the accepted surrogate, or the
/// simulator after the verifier rejected the surrogate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    Ai,
    Fallback,
}

/// One verified episode: `t_out` snapshots from `route`'s arm, plus the
/// verdicts of the *surrogate* episode up to its first failure.
#[derive(Clone, Debug)]
pub struct EpisodeOutcome {
    pub forecast: Vec<Snapshot>,
    pub verdicts: Vec<Verdict>,
    pub route: Route,
}

/// Wall time of one [`HybridForecaster::episodes`] call, per phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSeconds {
    pub ai: f64,
    pub verify: f64,
    pub roms: f64,
}

/// Outcome of a hybrid forecast.
#[derive(Clone, Debug, Default)]
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
    /// Simulator configuration of the fallback; each episode runs it
    /// under its own input's forcing.
    pub ocean: OceanConfig,
    /// Built once per forecaster: its column weights depend only on the grid.
    pub verifier: Verifier,
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
            verifier: Verifier::new(grid, verifier_cfg),
        }
    }

    /// Forecast every input episode: one stacked
    /// [`TrainedSurrogate::predict_batch`] over the windows, one
    /// [`Verifier::accepts`] per episode, and for each rejected episode a
    /// simulator run from `window[0]` under that input's `forcing` (the
    /// paper's "switch back to ROMS" arm). Outcomes come back in input
    /// order.
    pub fn episodes(
        &self,
        inputs: &[(&[Snapshot], &TidalForcing)],
    ) -> Result<(Vec<EpisodeOutcome>, PhaseSeconds), ForecastError> {
        let mut secs = PhaseSeconds::default();
        let windows: Vec<&[Snapshot]> = inputs.iter().map(|&(w, _)| w).collect();
        let predictions = phase("ccore.predict_batch", &mut secs.ai, || {
            self.surrogate.predict_batch(&windows)
        })?;

        let mut out = Vec::with_capacity(inputs.len());
        for (&(window, forcing), prediction) in inputs.iter().zip(predictions) {
            let (verdicts, accepted) = phase("ccore.verify", &mut secs.verify, || {
                self.verifier.accepts(&window[0], &prediction)
            });
            let (forecast, route) = if accepted {
                cobs::counter!("ccore.episodes.ai").inc();
                (prediction, Route::Ai)
            } else {
                cobs::counter!("ccore.episodes.fallback").inc();
                let sim = phase("ccore.roms_fallback", &mut secs.roms, || {
                    let ocean = OceanConfig {
                        forcing: forcing.clone(),
                        ..self.ocean.clone()
                    };
                    let mut roms = Roms::new(self.grid, ocean);
                    roms.load(&window[0]);
                    roms.record(prediction.len(), self.surrogate.snapshot_interval)
                });
                (sim, Route::Fallback)
            };
            out.push(EpisodeOutcome {
                forecast,
                verdicts,
                route,
            });
        }
        Ok((out, secs))
    }

    /// Forecast `n_episodes` of `t_out` steps each, starting from
    /// `reference[start]`. Boundary conditions for each episode are read
    /// from the reference trajectory (in deployment they come from tide
    /// tables / a parent model); the reference also never leaks interior
    /// state into the surrogate input beyond the initial condition.
    ///
    /// Each episode is one [`Self::episodes`] call under the forecaster's
    /// own forcing, from the last accepted state (AI or fallback).
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

        let mut out = HybridOutcome {
            snapshots: Vec::with_capacity(n_episodes * t_out),
            episodes_total: n_episodes,
            ..HybridOutcome::default()
        };

        // The evolving initial condition: starts from the reference, then
        // follows our own forecast (AI or fallback).
        let mut current = reference[start].clone();

        for e in 0..n_episodes {
            let w0 = start + e * t_out;
            let mut window = Vec::with_capacity(t_out + 1);
            window.push(current);
            window.extend_from_slice(&reference[w0 + 1..=w0 + t_out]);

            let (mut episodes, secs) = self.episodes(&[(&window, &self.ocean.forcing)])?;
            let episode = episodes.pop().ok_or(ForecastError::EmptyEpisode)?;
            out.ai_seconds += secs.ai;
            out.verify_seconds += secs.verify;
            out.roms_seconds += secs.roms;
            out.episodes_fallback += usize::from(episode.route == Route::Fallback);
            current = episode
                .forecast
                .last()
                .ok_or(ForecastError::EmptyEpisode)?
                .clone();
            out.snapshots.extend(episode.forecast);
        }
        out.episodes_ai = n_episodes - out.episodes_fallback;
        Ok(out)
    }
}

/// Run `f` inside span `name`, adding its wall time to `seconds`.
fn phase<R>(name: &'static str, seconds: &mut f64, f: impl FnOnce() -> R) -> R {
    let _span = cobs::trace::span(name);
    let t = Instant::now();
    let r = f();
    *seconds += t.elapsed().as_secs_f64();
    r
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

    /// The hand-written loop `forecast` replaced: per episode,
    /// `try_predict_episode` → `check_episode` → on rejection a `Roms`
    /// load/record from the last accepted state.
    fn reference_chain(
        fc: &HybridForecaster,
        test: &[Snapshot],
        start: usize,
        n_episodes: usize,
    ) -> (Vec<Snapshot>, Vec<Route>) {
        let t_out = fc.surrogate.model.cfg.t_out;
        let (mut current, mut out, mut routes) = (test[start].clone(), Vec::new(), Vec::new());
        for e in 0..n_episodes {
            let w0 = start + e * t_out;
            let mut window = vec![current.clone()];
            window.extend_from_slice(&test[w0 + 1..=w0 + t_out]);
            let prediction = fc.surrogate.try_predict_episode(&window).unwrap();
            let verdicts = fc.verifier.check_episode(&current, &prediction);
            let episode = if verdicts.len() == t_out && verdicts.iter().all(|v| v.passed) {
                routes.push(Route::Ai);
                prediction
            } else {
                routes.push(Route::Fallback);
                let mut roms = Roms::new(fc.grid, fc.ocean.clone());
                roms.load(&current);
                roms.record(t_out, fc.surrogate.snapshot_interval)
            };
            current = episode.last().unwrap().clone();
            out.extend(episode);
        }
        (out, routes)
    }

    #[test]
    fn mixed_arm_chain_matches_reference_loop_bitwise() {
        let (grid, trained, test, sc) = setup();
        let ocean = sc.ocean_config(grid, 1);
        // An episode seeded from the archive or a ROMS state opens with a
        // larger residual than one seeded from the surrogate's own output.
        // From snapshot 2, the fixture's episodes on an all-fallback chain
        // peak at about 3.4e-4, 1.3e-2, 5.2e-3 and 1.4e-4 m/s, so this
        // threshold sends the first three to ROMS and accepts the last.
        let (start, n) = (2, 4);
        let fc = HybridForecaster::new(grid, &trained, ocean, VerifierConfig { threshold: 2.4e-4 });
        let got = fc.forecast(test, start, n).unwrap();
        let (expected, routes) = reference_chain(&fc, test, start, n);
        let fallbacks = routes.iter().filter(|&&r| r == Route::Fallback).count();
        assert!(
            fallbacks > 0 && fallbacks < n,
            "the threshold must split the arms: {routes:?}"
        );
        assert_eq!(got.episodes_fallback, fallbacks);
        assert_eq!(got.episodes_ai, n - fallbacks);
        assert_eq!(crate::bits(&got.snapshots), crate::bits(&expected));
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
