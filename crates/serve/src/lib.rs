//! # coastal-serve
//!
//! On-demand forecast serving for the trained surrogate — the deployment
//! mode the paper's ~6000× speedup enables: coastal forecasts cheap
//! enough to answer per-request instead of per-scheduled-run.
//!
//! Components, in request order:
//!
//! - [`ForecastRequest`] — scenario id, initial-condition window, horizon,
//!   [`Priority`]; hashed into a [`request::CacheKey`].
//! - [`ForecastCache`] — LRU over completed trajectories with hit/miss
//!   accounting; entries rest as f16 payloads (half the f32 bytes) and
//!   hits widen back to f32, matching the first computation to f16
//!   rounding. Exact buffer sharing happens via single-flight coalescing
//!   of concurrent identical requests.
//! - [`MicroBatcher`] — bounded admission queue + dynamic micro-batching.
//!   Dispatch is work-conserving: an idle replica takes up to `max_batch`
//!   of whatever is pending immediately, so batches grow only while every
//!   replica is busy. Saturation is a typed [`ServeError::Overloaded`],
//!   not unbounded growth.
//! - [`replica` pool][ForecastServer] — worker threads that each rebuild
//!   the model from a [`ccore::SurrogateSpec`] (parameters are
//!   thread-local `Rc`s; the spec's tensors are `Send`). Each batch is
//!   **one** `predict_batch` forward pass, so throughput scales with
//!   batch size rather than request count.
//! - [`ServeMetrics`] — request counts, cache hits/misses, batch-size
//!   histogram. Latency quantiles live in the `cobs` registry's
//!   `serve.latency_seconds` histogram.
//!
//! Every request ends on one path (close trace, record one outcome,
//! send), which feeds the counters, the global flight recorder and a
//! per-server burn-rate [SLO engine](cobs::slo). The **ops plane** reads
//! them: [`ForecastServer::serve_ops`] starts a std-only HTTP server
//! ([`OpsServer`]) exposing `/metrics` (Prometheus), `/metrics.json`,
//! `/healthz`, `/readyz` and `/debug/traces`.
//!
//! Replicas serve at the precision of the [`ccore::SurrogateSpec`] they
//! are deployed from: `spec.with_precision(p)` is the one switch.
//!
//! ```no_run
//! use ccore::{train_surrogate, Scenario};
//! use cserve::{ForecastRequest, ForecastServer, ServeConfig};
//!
//! let sc = Scenario::small();
//! let grid = sc.grid();
//! let archive = sc.simulate_archive(&grid, 0, 40);
//! let trained = train_surrogate(&sc, &grid, &archive);
//!
//! let server = ForecastServer::new(trained.spec(), ServeConfig::default());
//! let req = ForecastRequest::new(0, archive[..sc.t_out + 1].to_vec(), sc.t_out);
//! let forecast = server.submit(req).unwrap().wait().unwrap();
//! assert_eq!(forecast.len(), sc.t_out);
//! ```

pub mod batcher;
pub mod cache;
pub mod error;
pub mod metrics;
pub mod ops;
mod replica;
pub mod request;
pub mod server;

pub use batcher::{BatcherConfig, MicroBatcher};
pub use cache::ForecastCache;
pub use error::ServeError;
pub use metrics::{MetricsRecorder, ServeMetrics};
pub use ops::{OpsServer, OpsState};
pub use request::{ForecastRequest, Priority};
pub use server::{ForecastServer, ResponseHandle, ServeConfig};

/// Lock `m`, taking the guard from a poisoned mutex too: the queue, cache,
/// in-flight registry, compute gate and metrics are updated in steps
/// that each leave them valid, and a replica that panicked mid-batch
/// must not turn every later request into a second panic.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serializes unit tests that feed or freeze the process-global flight
/// recorder, so one test's freeze or burst cannot hide another's records.
#[cfg(test)]
pub(crate) static GLOBAL_RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());
