//! Serving telemetry: latency percentiles, throughput, batch-size
//! histogram, cache hit rate.
//!
//! All mutable state lives behind **one** mutex ([`MetricsRecorder`]'s
//! `Inner`), so [`MetricsRecorder::snapshot`] reads every counter and the
//! latency reservoir in a single consistent pass — `completed` can never
//! disagree with the latency window or the batch histogram mid-flush,
//! and the reconcile invariant `completed + failed + rejected ==
//! submitted` holds on every snapshot once writers have quiesced.
//!
//! Every recording also mirrors into the process-global `cobs` metrics
//! registry (`serve.requests.*`, `serve.latency_seconds`,
//! `serve.batch_size`), so serving counters appear in the same JSON /
//! Prometheus dump as trainer, ensemble, and kernel telemetry.
//!
//! The terminal recording methods are additionally the ops plane's feed
//! point: every completion/failure/rejection flows into the global
//! [flight recorder](cobs::recorder) and this server's
//! [SLO engine](cobs::slo) (both on by default), so `/debug/traces`,
//! `/healthz` and the burn-rate gauges describe real traffic with no
//! extra instrumentation at call sites.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cobs::metrics::Reservoir;
use cobs::recorder::Outcome;
use cobs::slo::SloEngine;

use crate::lock;

/// Latency samples kept for percentile estimation. Bounded so a
/// long-lived server's memory (and the sort in [`MetricsRecorder::snapshot`])
/// stays O(1) in request count: once full, the ring overwrites the
/// oldest sample, so percentiles describe the most recent window.
const LATENCY_RESERVOIR: usize = 65_536;

struct Inner {
    /// End-to-end request latencies (submit → response), milliseconds —
    /// the most recent [`LATENCY_RESERVOIR`] samples (shared
    /// [`cobs::metrics::Reservoir`] ring).
    latencies_ms: Reservoir,
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
    started: Instant,
    inner: Mutex<Inner>,
    /// Burn-rate SLOs fed by the terminal paths below (the serving
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
        // Help text for every serving series this recorder feeds, so the
        // `/metrics` exposition carries `# HELP` lines in any process
        // that builds a server — not only ones that also happen to
        // construct a governor or evaluate an SLO.
        let reg = cobs::global();
        reg.describe(
            "serve.requests.submitted",
            "Forecast requests admitted past validation",
        );
        reg.describe(
            "serve.requests.completed",
            "Forecast requests answered successfully (cache hits included)",
        );
        reg.describe(
            "serve.requests.rejected",
            "Forecast requests shed at admission (queue at capacity)",
        );
        reg.describe(
            "serve.requests.failed",
            "Forecast requests that reached a replica and failed",
        );
        reg.describe(
            "serve.requests.coalesced",
            "Forecast requests coalesced onto an identical in-flight computation",
        );
        reg.describe("serve.cache.hits", "Forecast cache hits");
        reg.describe("serve.cache.misses", "Forecast cache misses");
        reg.describe(
            "serve.latency_seconds",
            "End-to-end forecast latency, submit to response",
        );
        reg.describe("serve.batch_size", "Executed model batch sizes");
        reg.describe(
            "serve.queue_wait_seconds",
            "Time requests spend queued before a replica picks them up",
        );
        reg.describe(
            "serve.replica_compute_seconds",
            "Model forward time per executed batch",
        );
        reg.describe("serve.queue_depth", "Current admission queue depth");
        Self {
            started: Instant::now(),
            inner: Mutex::new(Inner {
                latencies_ms: Reservoir::new(LATENCY_RESERVOIR),
                batch_sizes: BTreeMap::new(),
                submitted: 0,
                completed: 0,
                rejected: 0,
                failed: 0,
                coalesced: 0,
            }),
            slo: Arc::new(SloEngine::standard()),
        }
    }

    /// This server's SLO engine (surfaced on the ops plane's `/healthz`).
    pub fn slo(&self) -> &Arc<SloEngine> {
        &self.slo
    }

    /// Feed the ops plane: the global flight recorder plus the SLO
    /// engine. One call per terminal outcome, from the record_* methods.
    fn feed_ops(
        &self,
        outcome: Outcome,
        latency: Duration,
        from_cache: bool,
        coalesced: bool,
        trace: Option<&cobs::TraceHandle>,
    ) {
        let secs = latency.as_secs_f64();
        cobs::recorder::global().record("forecast", outcome, secs, from_cache, coalesced, trace);
        self.slo.record_request(secs, outcome == Outcome::Ok);
    }

    /// Record a request admitted past validation. Every submitted request
    /// ends in exactly one of completed / failed / rejected.
    pub fn record_submitted(&self) {
        lock(&self.inner).submitted += 1;
        cobs::counter!("serve.requests.submitted").inc();
    }

    /// Record one completed request (cache hits included: they are real
    /// responses with real latencies). `from_cache`/`coalesced`/`trace`
    /// flow into the flight recorder's [`cobs::recorder::RequestRecord`].
    pub fn record_completion(
        &self,
        latency: Duration,
        from_cache: bool,
        coalesced: bool,
        trace: Option<&cobs::TraceHandle>,
    ) {
        let ms = latency.as_secs_f64() * 1e3;
        {
            let mut inner = lock(&self.inner);
            inner.completed += 1;
            inner.latencies_ms.push(ms);
        }
        cobs::counter!("serve.requests.completed").inc();
        cobs::histogram!("serve.latency_seconds").record_duration(latency);
        self.feed_ops(Outcome::Ok, latency, from_cache, coalesced, trace);
    }

    /// Record one executed model batch of `size` requests.
    pub fn record_batch(&self, size: usize) {
        *lock(&self.inner).batch_sizes.entry(size).or_insert(0) += 1;
        cobs::histogram!("serve.batch_size").record(size as f64);
    }

    /// Record an admission rejection (`Overloaded`). `latency` is
    /// submit → rejection (the client-observed wait for the error).
    pub fn record_rejection(&self, latency: Duration, trace: Option<&cobs::TraceHandle>) {
        lock(&self.inner).rejected += 1;
        cobs::counter!("serve.requests.rejected").inc();
        self.feed_ops(Outcome::Rejected, latency, false, false, trace);
    }

    /// Record a request that reached a replica but failed.
    pub fn record_failure(&self, latency: Duration, trace: Option<&cobs::TraceHandle>) {
        lock(&self.inner).failed += 1;
        cobs::counter!("serve.requests.failed").inc();
        self.feed_ops(Outcome::Failed, latency, false, false, trace);
    }

    /// Record a request coalesced onto an identical in-flight computation.
    pub fn record_coalesced(&self) {
        lock(&self.inner).coalesced += 1;
        cobs::counter!("serve.requests.coalesced").inc();
    }

    /// Snapshot the counters into an immutable [`ServeMetrics`] — one
    /// lock acquisition, so every field describes the same instant.
    /// `cache_stats` is `(hits, misses)` from the forecast cache.
    pub fn snapshot(&self, cache_stats: (u64, u64)) -> ServeMetrics {
        let (mut lat, batch_histogram, submitted, completed, rejected, failed, coalesced) = {
            let inner = lock(&self.inner);
            (
                inner.latencies_ms.samples().to_vec(),
                inner.batch_sizes.iter().map(|(&k, &v)| (k, v)).collect(),
                inner.submitted,
                inner.completed,
                inner.rejected,
                inner.failed,
                inner.coalesced,
            )
        };
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let elapsed = self.started.elapsed().as_secs_f64();
        let (hits, misses) = cache_stats;
        ServeMetrics {
            submitted,
            completed,
            rejected,
            failed,
            coalesced,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            p50_ms: percentile(&lat, 0.50),
            p95_ms: percentile(&lat, 0.95),
            p99_ms: percentile(&lat, 0.99),
            mean_ms: if lat.is_empty() {
                0.0
            } else {
                lat.iter().sum::<f64>() / lat.len() as f64
            },
            throughput_rps: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            batch_histogram,
        }
    }
}

/// Linear-interpolated percentile over a **sorted** sample (0.0 when
/// empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
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
    /// Requests that reached a replica but errored.
    pub failed: u64,
    /// Requests that joined an identical in-flight computation
    /// (single-flight coalescing) instead of computing again.
    pub coalesced: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_rate: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    /// Completions per second since the server started.
    pub throughput_rps: f64,
    /// `(batch size, batches executed)` pairs, ascending.
    pub batch_histogram: Vec<(usize, u64)>,
}

impl ServeMetrics {
    /// Mean executed batch size (0.0 when no batches ran).
    pub fn mean_batch_size(&self) -> f64 {
        let (items, batches) = self
            .batch_histogram
            .iter()
            .fold((0u64, 0u64), |(i, b), &(size, count)| {
                (i + size as u64 * count, b + count)
            });
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
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&v, 0.50) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn reservoir_at_capacity_keeps_percentiles_finite_and_monotone() {
        // Exactly LATENCY_RESERVOIR samples: the ring is full but has not
        // wrapped. Percentiles must be finite, ordered, and describe the
        // whole sample.
        let m = MetricsRecorder::new();
        for i in 0..LATENCY_RESERVOIR {
            m.record_completion(Duration::from_micros(1 + i as u64), false, false, None);
        }
        let s = m.snapshot((0, 0));
        assert_eq!(s.completed, LATENCY_RESERVOIR as u64);
        for p in [s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms] {
            assert!(p.is_finite() && p > 0.0, "non-finite percentile: {p}");
        }
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
    }

    #[test]
    fn reservoir_wrap_overwrites_oldest_and_stays_monotone() {
        // Overfill by half a reservoir: the ring wraps and the oldest
        // samples fall out. Old samples are all 1000 ms, new ones 1..=N µs
        // — after a full extra reservoir of new samples, the slow cohort
        // is gone entirely, so p99 must reflect the recent window.
        let m = MetricsRecorder::new();
        for _ in 0..LATENCY_RESERVOIR {
            m.record_completion(Duration::from_millis(1000), false, false, None);
        }
        for i in 0..LATENCY_RESERVOIR {
            m.record_completion(Duration::from_micros(1 + i as u64), false, false, None);
        }
        let s = m.snapshot((0, 0));
        assert_eq!(s.completed, 2 * LATENCY_RESERVOIR as u64);
        for p in [s.p50_ms, s.p95_ms, s.p99_ms] {
            assert!(p.is_finite(), "non-finite percentile after wrap: {p}");
        }
        assert!(
            s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms,
            "percentiles out of order after wrap: p50={} p95={} p99={}",
            s.p50_ms,
            s.p95_ms,
            s.p99_ms
        );
        assert!(
            s.p99_ms < 1000.0,
            "wrapped ring must describe the recent window, not evicted \
             samples: p99={}",
            s.p99_ms
        );
    }

    #[test]
    fn reservoir_partial_wrap_mixes_cohorts() {
        // Wrap by a quarter reservoir: 75% old (10 ms) + 25% new (1 ms)
        // coexist; the quantile ordering must survive the mixed, unsorted
        // ring layout.
        let m = MetricsRecorder::new();
        for _ in 0..LATENCY_RESERVOIR {
            m.record_completion(Duration::from_millis(10), false, false, None);
        }
        for _ in 0..LATENCY_RESERVOIR / 4 {
            m.record_completion(Duration::from_millis(1), false, false, None);
        }
        let s = m.snapshot((0, 0));
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
        // The new cohort is 25% of the window → p50 sits in the old one.
        assert!((s.p50_ms - 10.0).abs() < 1e-9, "p50={}", s.p50_ms);
        assert!((s.mean_ms - (0.75 * 10.0 + 0.25 * 1.0)).abs() < 1e-6);
    }

    #[test]
    fn snapshot_aggregates() {
        let m = MetricsRecorder::new();
        for i in 1..=10 {
            m.record_submitted();
            m.record_completion(Duration::from_millis(i), false, false, None);
        }
        m.record_batch(4);
        m.record_batch(4);
        m.record_batch(2);
        m.record_submitted();
        m.record_rejection(Duration::ZERO, None);
        let s = m.snapshot((3, 7));
        assert_eq!(s.submitted, 11);
        assert_eq!(s.completed, 10);
        assert_eq!(s.rejected, 1);
        assert!((s.cache_hit_rate - 0.3).abs() < 1e-12);
        assert_eq!(s.batch_histogram, vec![(2, 1), (4, 2)]);
        assert!((s.mean_batch_size() - 10.0 / 3.0).abs() < 1e-9);
        assert!(s.p50_ms >= 5.0 && s.p50_ms <= 6.0);
        assert!(s.throughput_rps > 0.0);
    }

    #[test]
    fn totals_reconcile_under_concurrent_recording() {
        // N threads each record a submitted request and finish it on one
        // of the three terminal paths. After joining, every snapshot must
        // satisfy completed + failed + rejected == submitted — the
        // single-lock snapshot can never catch a half-applied update.
        let m = std::sync::Arc::new(MetricsRecorder::new());
        let threads = 8;
        let per_thread = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..per_thread {
                        m.record_submitted();
                        match (t + i) % 3 {
                            0 => m.record_completion(
                                Duration::from_micros(i + 1),
                                false,
                                false,
                                None,
                            ),
                            1 => m.record_failure(Duration::ZERO, None),
                            _ => m.record_rejection(Duration::ZERO, None),
                        }
                    }
                });
            }
        });
        let s = m.snapshot((0, 0));
        assert_eq!(s.submitted, threads * per_thread);
        assert_eq!(
            s.completed + s.failed + s.rejected,
            s.submitted,
            "terminal outcomes must cover every submitted request: {s:?}"
        );
    }
}
