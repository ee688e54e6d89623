//! # coastal-obs (`cobs`)
//!
//! End-to-end telemetry for the coastal surrogate stack — the substrate
//! every vertical crate (serve, pipeline, ensemble, tensor backends)
//! reports through. Dependency-free (std only), so it sits below every
//! other crate in the workspace graph.
//!
//! Two subsystems:
//!
//! - [`metrics`] — a process-global **metrics registry** of lock-sharded
//!   [`metrics::Counter`]s, [`metrics::Gauge`]s and log-bucketed
//!   [`metrics::Histogram`]s, registered by static name and snapshot-able
//!   as JSON ([`metrics::MetricsSnapshot::to_json`]) or Prometheus text
//!   exposition format ([`metrics::MetricsSnapshot::to_prometheus`]).
//!   Call sites use the [`counter!`]/[`gauge!`]/[`histogram!`] macros,
//!   which cache the registry lookup in a per-call-site `OnceLock` so the
//!   hot path is one atomic op, never a map probe.
//!
//! - [`trace`] — **structured tracing**: per-request traces minted with
//!   [`trace::start`], cheap nested span guards ([`span!`]) recording
//!   wall time into a per-trace span tree, and cross-thread
//!   [`trace::TraceHandle`]s so a request's trace follows it from the
//!   admission thread through the batcher to a replica worker. Disabled
//!   (the default) a span guard is a single atomic load; tracing is
//!   enabled per process via [`trace::set_enabled`] or `COASTAL_TRACE=1`.
//!
//! Kernel-level profiling (`COASTAL_PROFILE=1`) lives in
//! `ctensor::backend::Profiled`, which records per-op wall time into this
//! registry and emits kernel spans into whatever trace is active on the
//! calling thread.
//!
//! The **ops plane** adds two more subsystems on the same substrate:
//!
//! - [`recorder`] — an always-on rolling **flight recorder**: a bounded
//!   ring of the last N completed request traces plus per-latency-bucket
//!   exemplars, with anomaly-triggered freeze + JSON incident dumps
//!   ([`recorder::FlightRecorder`]).
//!
//! - [`slo`] — declarative **SLO specs** with multi-window burn-rate
//!   alerting ([`slo::SloEngine`]); windows are driven through a
//!   [`slo::Clock`] trait so tests never sleep.
//!
//! These are scraped over HTTP by `cserve::ops` (`/metrics`, `/healthz`,
//! `/readyz`, `/debug/traces`).

pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod trace;

pub use metrics::{global, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use recorder::{FlightRecorder, Outcome, RequestRecord};
pub use slo::{AlertState, Clock, ManualClock, SloEngine, SloSpec, SloStatus, SystemClock};
pub use trace::{SpanId, TraceHandle, TraceId};
