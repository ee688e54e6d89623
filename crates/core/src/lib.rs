//! # coastal-core
//!
//! The top-level API of the reproduction: scenario configuration,
//! end-to-end surrogate training ([`train`]), the hybrid AI+ROMS workflow
//! ([`workflow`]: the one predict → verify → ROMS-fallback path, shared by
//! chained forecasts and ensemble chunks), and Table-III-style metrics
//! ([`metrics`]).
//!
//! ```no_run
//! use ccore::{Scenario, train_surrogate};
//!
//! let sc = Scenario::small();
//! let grid = sc.grid();
//! let archive = sc.simulate_archive(&grid, 0, 40);
//! let trained = train_surrogate(&sc, &grid, &archive);
//! let forecast = trained.predict_episode(&archive[..sc.t_out + 1]);
//! assert_eq!(forecast.len(), sc.t_out);
//! ```

pub mod error;
pub mod metrics;
pub mod train;
pub mod workflow;

pub use error::ForecastError;
pub use metrics::ErrorTable;
pub use train::{
    train_surrogate, validate_episode_window, Scenario, SurrogateSpec, TrainedSurrogate,
    ZETA_TOL_F16, ZETA_TOL_INT8,
};
pub use workflow::{EpisodeOutcome, HybridForecaster, HybridOutcome, PhaseSeconds, Route};

/// Every bit of a trajectory (times and fields), for bitwise assertions.
#[cfg(test)]
pub(crate) fn bits(snaps: &[cocean::Snapshot]) -> Vec<u64> {
    let mut out = Vec::new();
    for s in snaps {
        out.push(s.time.to_bits());
        for f in [&s.zeta, &s.u, &s.v, &s.w] {
            out.extend(f.iter().map(|x| u64::from(x.to_bits())));
        }
    }
    out
}
