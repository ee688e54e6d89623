//! The ensemble runner: the hybrid AI+physics workflow lifted from one
//! scenario to N.
//!
//! Members are forecast in chunks of [`RunnerConfig::chunk`]. With a
//! verifier, a chunk is one [`HybridForecaster::episodes`] call, each
//! member falling back under its own forcing; without one, a bare
//! [`TrainedSurrogate::predict_batch`]. [`run_parallel`] fans member
//! slices out across `chpc` ranks, each rebuilding the model from a `Send`
//! [`SurrogateSpec`]. A member's forecast does not depend on its
//! chunkmates (batch rows are independent), so serial, chunked and
//! parallel runs produce identical ensembles.

use std::time::Instant;

use ccore::{ForecastError, HybridForecaster, Route, Scenario, SurrogateSpec, TrainedSurrogate};
use cgrid::Grid;
use cocean::Snapshot;
use cphysics::{Verdict, VerifierConfig};

use crate::member::MemberWindow;

/// Execution knobs for an ensemble run.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// Members stacked per batched forward pass.
    pub chunk: usize,
    /// Physics verification of every member episode, with ROMS fallback
    /// for rejected members (`None` skips both: inference only).
    pub verifier: Option<VerifierConfig>,
    /// Worker threads for [`run_parallel`] (`0` = all available cores).
    pub threads: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            chunk: 8,
            verifier: Some(VerifierConfig::default()),
            threads: 0,
        }
    }
}

/// One member's forecast plus its verification outcome.
#[derive(Clone, Debug)]
pub struct MemberOutcome {
    pub member_id: usize,
    /// The member's forecast trajectory (`t_out` snapshots) — surrogate
    /// output, or simulator output if the member fell back.
    pub forecast: Vec<Snapshot>,
    /// Per-transition verdicts of the *surrogate* episode (empty when
    /// verification is disabled).
    pub verdicts: Vec<Verdict>,
    /// [`Route::Ai`] when unverified or accepted.
    pub route: Route,
}

/// Aggregate result of an ensemble run.
#[derive(Clone, Debug, Default)]
pub struct EnsembleOutcome {
    /// Per-member outcomes in member order.
    pub members: Vec<MemberOutcome>,
    /// Batched forward passes executed.
    pub batches: usize,
    /// Wall time in stacked surrogate inference (summed across workers).
    pub inference_seconds: f64,
    pub verify_seconds: f64,
    pub fallback_seconds: f64,
}

impl EnsembleOutcome {
    /// Fraction of members served by the surrogate (every member when
    /// verification is disabled).
    pub fn pass_rate(&self) -> f64 {
        if self.members.is_empty() {
            return 1.0;
        }
        let ai = self.members.len() - self.fallback_members();
        ai as f64 / self.members.len() as f64
    }

    /// Members recomputed by the simulator.
    pub fn fallback_members(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.route == Route::Fallback)
            .count()
    }

    fn merge(mut parts: Vec<EnsembleOutcome>) -> EnsembleOutcome {
        let mut out = EnsembleOutcome::default();
        for p in parts.iter_mut() {
            out.members.append(&mut p.members);
            out.batches += p.batches;
            out.inference_seconds += p.inference_seconds;
            out.verify_seconds += p.verify_seconds;
            out.fallback_seconds += p.fallback_seconds;
        }
        out
    }
}

/// Ensemble executor bound to one grid + trained surrogate.
pub struct EnsembleRunner<'a> {
    pub grid: &'a Grid,
    pub surrogate: &'a TrainedSurrogate,
    /// Base scenario (fallback simulator configuration).
    pub scenario: &'a Scenario,
    /// Forcing year of the base run (selects the fallback config's base
    /// forcing when the scenario carries no override).
    pub year: u32,
    pub cfg: RunnerConfig,
}

impl<'a> EnsembleRunner<'a> {
    pub fn new(
        grid: &'a Grid,
        surrogate: &'a TrainedSurrogate,
        scenario: &'a Scenario,
        year: u32,
        cfg: RunnerConfig,
    ) -> Self {
        Self {
            grid,
            surrogate,
            scenario,
            year,
            cfg,
        }
    }

    /// Forecast every member in chunks: verified episodes with simulator
    /// fallback when a verifier is configured, bare stacked inference
    /// otherwise.
    pub fn run(&self, windows: &[MemberWindow]) -> Result<EnsembleOutcome, ForecastError> {
        if windows.is_empty() {
            return Err(ForecastError::EmptyBatch);
        }
        let hybrid = self.cfg.verifier.map(|v| {
            let ocean = self.scenario.ocean_config(self.grid, self.year);
            HybridForecaster::new(self.grid, self.surrogate, ocean, v)
        });
        let mut out = EnsembleOutcome::default();
        for group in windows.chunks(self.cfg.chunk.max(1)) {
            out.batches += 1;
            let ids = group.iter().map(|m| m.perturbation.member_id);
            let Some(hybrid) = &hybrid else {
                let refs: Vec<_> = group.iter().map(|m| &m.window[..]).collect();
                let t0 = Instant::now();
                let predictions = self.surrogate.predict_batch(&refs)?;
                out.inference_seconds += t0.elapsed().as_secs_f64();
                for (member_id, forecast) in ids.zip(predictions) {
                    out.members.push(MemberOutcome {
                        member_id,
                        forecast,
                        verdicts: Vec::new(),
                        route: Route::Ai,
                    });
                }
                continue;
            };
            let inputs: Vec<_> = group.iter().map(|m| (&m.window[..], &m.forcing)).collect();
            let (episodes, secs) = hybrid.episodes(&inputs)?;
            out.inference_seconds += secs.ai;
            out.verify_seconds += secs.verify;
            out.fallback_seconds += secs.roms;
            for (member_id, e) in ids.zip(episodes) {
                out.members.push(MemberOutcome {
                    member_id,
                    forecast: e.forecast,
                    verdicts: e.verdicts,
                    route: e.route,
                });
            }
        }
        Ok(out)
    }
}

/// Run an ensemble on `cfg.threads` `chpc` ranks, one contiguous slice of
/// members each. Each rank rebuilds the surrogate from `spec` (parameters
/// are thread-local `Rc`s; the spec is `Send`) and runs the chunked
/// stacked path of [`EnsembleRunner::run`]; one slice runs on the calling
/// thread. Member order and per-member results are identical to a serial
/// run.
pub fn run_parallel(
    spec: &SurrogateSpec,
    grid: &Grid,
    scenario: &Scenario,
    year: u32,
    cfg: RunnerConfig,
    windows: &[MemberWindow],
) -> Result<EnsembleOutcome, ForecastError> {
    if windows.is_empty() {
        return Err(ForecastError::EmptyBatch);
    }
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.threads
    }
    .min(windows.len());

    let per = windows.len().div_ceil(threads);
    let parts = chpc::run_parallel(windows.chunks(per).collect(), |_, slice| {
        let local = spec.instantiate();
        EnsembleRunner::new(grid, &local, scenario, year, cfg).run(slice)
    });
    Ok(EnsembleOutcome::merge(
        parts.into_iter().collect::<Result<_, _>>()?,
    ))
}
