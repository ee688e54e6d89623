//! Serving counters: admitted and terminal request counts, coalescing,
//! cache hits/misses and the executed batch-size histogram, all behind
//! **one** mutex, so [`MetricsRecorder::snapshot`] describes one instant
//! and `completed + failed + rejected == submitted` holds on every
//! snapshot once writers have quiesced.
//!
//! [`MetricsRecorder::record_outcome`] is the one terminal feed point: it
//! also mirrors into the `cobs` registry (`serve.requests.*`,
//! `serve.latency_seconds`, where latency quantiles live), the global
//! [flight recorder](cobs::recorder) and this server's
//! [SLO engine](cobs::slo).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cobs::recorder::Outcome;
use cobs::slo::SloEngine;

use crate::lock;

/// Help text for every serving series this crate feeds, so the `/metrics`
/// exposition carries `# HELP` lines in any process that builds a server.
#[rustfmt::skip]
const HELP: [(&str, &str); 12] = [
    ("serve.requests.submitted", "Forecast requests admitted past validation"),
    ("serve.requests.completed", "Forecast requests answered (cache hits included)"),
    ("serve.requests.rejected", "Forecast requests shed at admission (queue at capacity)"),
    ("serve.requests.failed", "Forecast requests admitted but failed (replica or shutdown)"),
    ("serve.requests.coalesced", "Forecast requests joined onto an identical in-flight one"),
    ("serve.cache.hits", "Forecast cache hits"),
    ("serve.cache.misses", "Forecast cache misses"),
    ("serve.latency_seconds", "End-to-end forecast latency, submit to response"),
    ("serve.batch_size", "Executed model batch sizes"),
    ("serve.queue_wait_seconds", "Time requests spend queued before a replica picks them up"),
    ("serve.replica_compute_seconds", "Model forward time per executed batch"),
    ("serve.queue_depth", "Current admission queue depth"),
];

#[derive(Default)]
struct Inner {
    /// Executed batch sizes → count.
    batch_sizes: BTreeMap<usize, u64>,
    submitted: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    coalesced: u64,
}

/// Shared recorder the server and its workers write into.
pub struct MetricsRecorder {
    inner: Mutex<Inner>,
    /// Burn-rate SLOs fed by [`Self::record_outcome`] (the serving
    /// defaults: availability plus p99 latency), scraped via `/healthz`.
    slo: Arc<SloEngine>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    pub fn new() -> Self {
        for (name, help) in HELP {
            cobs::global().describe(name, help);
        }
        Self {
            inner: Mutex::new(Inner::default()),
            slo: Arc::new(SloEngine::standard()),
        }
    }

    /// This server's SLO engine (surfaced on the ops plane's `/healthz`).
    pub fn slo(&self) -> &Arc<SloEngine> {
        &self.slo
    }

    /// Record a request admitted past validation. Every submitted request
    /// ends in exactly one [`Self::record_outcome`].
    pub fn record_submitted(&self) {
        lock(&self.inner).submitted += 1;
        cobs::counter!("serve.requests.submitted").inc();
    }

    /// Record one request's terminal outcome: `Ok` counts as completed
    /// (cache hits included), `Rejected` as shed at admission, `Failed`
    /// as failed. `latency` is submit → response; `from_cache`,
    /// `coalesced` and `trace` flow into the flight recorder's
    /// [`cobs::recorder::RequestRecord`], whose span tree is rendered
    /// here, so the trace must already be closed.
    pub fn record_outcome(
        &self,
        outcome: Outcome,
        latency: Duration,
        from_cache: bool,
        coalesced: bool,
        trace: Option<&cobs::TraceHandle>,
    ) {
        {
            let mut inner = lock(&self.inner);
            *match outcome {
                Outcome::Ok => &mut inner.completed,
                Outcome::Rejected => &mut inner.rejected,
                Outcome::Failed => &mut inner.failed,
            } += 1;
        }
        match outcome {
            Outcome::Ok => {
                cobs::counter!("serve.requests.completed").inc();
                cobs::histogram!("serve.latency_seconds").record_duration(latency);
            }
            Outcome::Rejected => cobs::counter!("serve.requests.rejected").inc(),
            Outcome::Failed => cobs::counter!("serve.requests.failed").inc(),
        }
        let secs = latency.as_secs_f64();
        cobs::recorder::global().record("forecast", outcome, secs, from_cache, coalesced, trace);
        self.slo.record_request(secs, outcome == Outcome::Ok);
    }

    /// Record one executed model batch of `size` requests.
    pub fn record_batch(&self, size: usize) {
        *lock(&self.inner).batch_sizes.entry(size).or_insert(0) += 1;
        cobs::histogram!("serve.batch_size").record(size as f64);
    }

    /// Record a request coalesced onto an identical in-flight computation.
    pub fn record_coalesced(&self) {
        lock(&self.inner).coalesced += 1;
        cobs::counter!("serve.requests.coalesced").inc();
    }

    /// Snapshot the counters into an immutable [`ServeMetrics`] — one
    /// lock acquisition, so every field describes the same instant.
    /// `cache_stats` is `(hits, misses)` from the forecast cache.
    pub fn snapshot(&self, (cache_hits, cache_misses): (u64, u64)) -> ServeMetrics {
        let inner = lock(&self.inner);
        ServeMetrics {
            submitted: inner.submitted,
            completed: inner.completed,
            rejected: inner.rejected,
            failed: inner.failed,
            coalesced: inner.coalesced,
            cache_hits,
            cache_misses,
            batch_histogram: inner.batch_sizes.iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }
}

/// Immutable metrics snapshot.
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Requests admitted past validation (cache hits included). Once
    /// in-flight work drains, `completed + failed + rejected == submitted`.
    pub submitted: u64,
    /// Requests answered (computed or cache-served).
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that were admitted but errored (replica failure or
    /// shutdown).
    pub failed: u64,
    /// Requests that joined an identical in-flight computation
    /// (single-flight coalescing) instead of computing again.
    pub coalesced: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// `(batch size, batches executed)` pairs, ascending.
    pub batch_histogram: Vec<(usize, u64)>,
}

impl ServeMetrics {
    /// Mean executed batch size (0.0 when no batches ran).
    pub fn mean_batch_size(&self) -> f64 {
        let items: u64 = self
            .batch_histogram
            .iter()
            .map(|&(s, n)| s as u64 * n)
            .sum();
        let batches: u64 = self.batch_histogram.iter().map(|&(_, n)| n).sum();
        if batches == 0 {
            0.0
        } else {
            items as f64 / batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates() {
        let _serial = lock(&crate::GLOBAL_RECORDER);
        let m = MetricsRecorder::new();
        for i in 1..=10 {
            m.record_submitted();
            m.record_outcome(Outcome::Ok, Duration::from_millis(i), false, false, None);
        }
        for size in [4, 4, 2] {
            m.record_batch(size);
        }
        m.record_submitted();
        m.record_outcome(Outcome::Rejected, Duration::ZERO, false, false, None);
        let s = m.snapshot((3, 7));
        assert_eq!((s.submitted, s.completed, s.rejected), (11, 10, 1));
        assert_eq!((s.cache_hits, s.cache_misses), (3, 7));
        assert_eq!(s.batch_histogram, vec![(2, 1), (4, 2)]);
        assert!((s.mean_batch_size() - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn totals_reconcile_under_concurrent_recording() {
        // Threads each admit requests and end them on one of the three
        // terminal outcomes; the single-lock snapshot never catches a
        // half-applied update.
        let _serial = lock(&crate::GLOBAL_RECORDER);
        let m = MetricsRecorder::new();
        let outcomes = [Outcome::Ok, Outcome::Failed, Outcome::Rejected];
        std::thread::scope(|s| {
            for t in 0..8 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..500 {
                        m.record_submitted();
                        let outcome = outcomes[(t + i) % 3];
                        m.record_outcome(outcome, Duration::ZERO, false, false, None);
                    }
                });
            }
        });
        let s = m.snapshot((0, 0));
        assert_eq!(s.submitted, 8 * 500);
        assert_eq!(s.completed + s.failed + s.rejected, s.submitted, "{s:?}");
    }
}
