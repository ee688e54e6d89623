//! # coastal-ensemble
//!
//! Ensemble forecasting engine — the workload the paper's ~6000× surrogate
//! speedup unlocks: instead of one deterministic forecast, run a whole
//! family of forcing scenarios and answer *probabilistic* questions
//! ("what is the chance the surge tops 0.5 m at this cell?").
//!
//! Three layers, in pipeline order:
//!
//! - [`catalog`] — a seed-driven [`PerturbationCatalog`] expands one base
//!   [`ccore::Scenario`] into N member scenarios: tidal constituent
//!   amplitude/phase scaling, weather-anomaly scaling, subtidal
//!   mean-level offsets (river-stage proxy), initial-condition noise, and
//!   a synthetic storm-surge pulse family — placed by grid sweep or
//!   Latin-hypercube sampling.
//! - [`member`] + [`runner`] — member episode windows are *synthesized*
//!   from one shared base simulation (the forcing delta is analytic), and
//!   the [`EnsembleRunner`] forecasts them in chunks, one
//!   [`ccore::HybridForecaster::episodes`] call each: a stacked forward,
//!   per-member physics verification, and ROMS fallback under the
//!   member's own forcing ([`run_parallel`] fans chunks across a thread
//!   pool for multicore hosts).
//! - [`stats`] — per-cell mean/spread/quantiles of ζ, u, v;
//!   exceedance-probability maps (`P[ζ_max > threshold]`, the flood-risk
//!   product); member ranking by [`ccore::ErrorTable`]. The pass rate
//!   is [`EnsembleOutcome::pass_rate`].
//!
//! Everything is deterministic per seed: catalog draws, synthesized
//! windows and statistics are bit-identical across runs, and per-member
//! forecasts are chunk- and thread-count-invariant.
//!
//! ```no_run
//! use ccore::{train_surrogate, Scenario};
//! use censemble::{
//!     synthesize_windows, EnsembleRunner, EnsembleStats, PerturbationCatalog,
//!     PerturbationSpace, RunnerConfig, SamplingStrategy,
//! };
//!
//! let sc = Scenario::small();
//! let grid = sc.grid();
//! let archive = sc.simulate_archive(&grid, 0, 40);
//! let trained = train_surrogate(&sc, &grid, &archive);
//!
//! let catalog = PerturbationCatalog::new(
//!     PerturbationSpace::surge_study(),
//!     SamplingStrategy::LatinHypercube { members: 16 },
//!     42,
//! );
//! let windows =
//!     synthesize_windows(&sc, &grid, &archive[..sc.t_out + 1], 0, &catalog.members()).unwrap();
//! let outcome = EnsembleRunner::new(&grid, &trained, &sc, 0, RunnerConfig::default())
//!     .run(&windows)
//!     .unwrap();
//! let stats = EnsembleStats::compute(&outcome, &EnsembleStats::DEFAULT_PROBS);
//! let flood_risk = stats.exceedance(0.5); // P[peak ζ > 0.5 m] per cell
//! # let _ = flood_risk;
//! ```

pub mod catalog;
pub mod member;
pub mod runner;
pub mod stats;

pub use catalog::{
    MemberPerturbation, ParamRange, PerturbationCatalog, PerturbationSpace, SamplingStrategy,
    SurgeFamily, SurgePulse,
};
pub use member::{synthesize_windows, MemberWindow};
pub use runner::{run_parallel, EnsembleOutcome, EnsembleRunner, MemberOutcome, RunnerConfig};
pub use stats::{rank_members, EnsembleStats, FieldSummary, MemberRank};
