//! The metrics registry: lock-sharded counters, gauges and log-bucketed
//! histograms, all registered by static name and snapshot-able as JSON or
//! Prometheus text.
//!
//! Write paths are wait-free after registration: counters add to a
//! per-thread shard (no shared cache line under contention), gauges and
//! histogram cells are single atomics. Registration itself takes the
//! registry lock once per call site (the [`crate::counter!`] family of
//! macros memoizes the returned handle in a `OnceLock`), so steady-state
//! recording never touches a map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------- counter

/// Shards per counter: enough to keep 8 replica/worker threads off each
/// other's cache lines without bloating every counter to a page.
const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so concurrent writers never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// This thread's fixed shard index, assigned round-robin at first use.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Monotone event counter, sharded across cache lines.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over shards. Concurrent adds may or may not be visible — the
    /// value is exact once writers have quiesced (joined/synchronized).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

// ------------------------------------------------------------------ gauge

/// Last-value-wins instantaneous measurement (f64 bits in an atomic).
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

// -------------------------------------------------------------- histogram

/// Log-bucketed histogram geometry: two buckets per octave (√2 steps)
/// starting at [`HIST_MIN`]. 96 buckets cover `1e-9 · 2^48 ≈ 2.8e5`, so a
/// seconds-unit histogram spans nanoseconds to ~3 days.
pub(crate) const HIST_BUCKETS: usize = 96;
const HIST_MIN: f64 = 1e-9;
const HIST_SUB: f64 = 2.0; // buckets per octave

/// Bucket index of `v` (bucket 0 collects everything ≤ [`HIST_MIN`],
/// the last bucket everything beyond the covered range).
pub(crate) fn bucket_of(v: f64) -> usize {
    if v.is_nan() || v <= HIST_MIN {
        // NaN and non-positive values land in bucket 0 rather than
        // poisoning the distribution.
        return 0;
    }
    let idx = ((v / HIST_MIN).log2() * HIST_SUB).ceil() as isize;
    idx.clamp(0, (HIST_BUCKETS - 1) as isize) as usize
}

/// Upper edge of bucket `i` (inclusive; `f64::INFINITY` for the last).
pub(crate) fn bucket_upper(i: usize) -> f64 {
    if i + 1 >= HIST_BUCKETS {
        f64::INFINITY
    } else {
        HIST_MIN * (i as f64 / HIST_SUB).exp2()
    }
}

/// Lock-free log-bucketed histogram.
///
/// Counts are exact (every `record` lands in exactly one bucket with one
/// atomic add); the sum is accumulated with a CAS loop, so it applies
/// every sample exactly once (f64 rounding aside, order-dependent like
/// any float sum).
pub struct Histogram {
    buckets: Box<[AtomicU64; HIST_BUCKETS]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: Box::new([0u64; HIST_BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Histogram {
    pub fn record(&self, v: f64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let v = if v.is_finite() { v } else { 0.0 };
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Convenience for wall-time series: record a `Duration` in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Immutable copy of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Frozen histogram state with quantile estimation.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    /// Per-bucket counts (fixed [`HIST_BUCKETS`] geometry).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile: the upper edge of the bucket containing
    /// the q-th sample (an overestimate by at most one √2 step). 0.0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = bucket_upper(i);
                return if edge.is_finite() { edge } else { self.sum };
            }
        }
        0.0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// `(upper_edge, count)` for the non-empty buckets, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

// --------------------------------------------------------------- registry

/// Named-metric registry. One process-global instance ([`global`]) backs
/// the `counter!`/`gauge!`/`histogram!` macros; independent registries
/// can be built for tests.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    /// Help text per series name, emitted as `# HELP` lines in the
    /// Prometheus exposition (last [`Registry::describe`] wins).
    help: Mutex<BTreeMap<&'static str, &'static str>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-register the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(lock(&self.counters).entry(name).or_default())
    }

    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(lock(&self.gauges).entry(name).or_default())
    }

    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(lock(&self.histograms).entry(name).or_default())
    }

    /// Attach help text to the series `name` (any kind). Surfaced as a
    /// `# HELP` line in the Prometheus exposition, with backslashes and
    /// newlines escaped per the format. Idempotent; last call wins.
    pub fn describe(&self, name: &'static str, help: &'static str) {
        lock(&self.help).insert(name, help);
    }

    /// Freeze every registered series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            help: lock(&self.help)
                .iter()
                .map(|(&k, &v)| (k.to_string(), v.to_string()))
                .collect(),
            counters: lock(&self.counters)
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(Registry::default)
}

/// Counter handle memoized per call site — one atomic add steady-state.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __COBS_C: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**__COBS_C.get_or_init(|| $crate::metrics::global().counter($name))
    }};
}

/// Gauge handle memoized per call site.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static __COBS_G: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__COBS_G.get_or_init(|| $crate::metrics::global().gauge($name))
    }};
}

/// Histogram handle memoized per call site.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static __COBS_H: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__COBS_H.get_or_init(|| $crate::metrics::global().histogram($name))
    }};
}

// --------------------------------------------------------------- snapshot

/// Immutable registry state, serializable as JSON or Prometheus text.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Help text per original series name ([`Registry::describe`]).
    pub help: BTreeMap<String, String>,
}

fn json_f64(v: f64) -> String {
    // JSON has no inf/nan literals; clamp to 0 (telemetry, not science).
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `series.name` → `series_name` (Prometheus metric-name charset).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape `# HELP` text per the exposition format: backslash and newline
/// become the two-character sequences `\\` and `\n` so the line stays one
/// physical line and round-trips through a conforming parser.
fn prom_escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// The snapshot as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {"name":
    /// {"count": n, "sum": s, "mean": m, "p50": …, "p95": …, "p99": …,
    /// "buckets": [[le, count], …]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{k}\": {v}"));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{k}\": {}", json_f64(*v)));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{k}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                h.count,
                json_f64(h.sum),
                json_f64(h.mean()),
                json_f64(h.quantile(0.50)),
                json_f64(h.quantile(0.95)),
                json_f64(h.quantile(0.99)),
            ));
            for (j, (le, c)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                if le.is_finite() {
                    out.push_str(&format!("[{}, {c}]", json_f64(*le)));
                } else {
                    out.push_str(&format!("[\"+Inf\", {c}]"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition format (cumulative `le` buckets), with
    /// `# HELP` lines for every series registered via
    /// [`Registry::describe`].
    pub fn to_prometheus(&self) -> String {
        let help_line = |out: &mut String, k: &str, n: &str| {
            if let Some(h) = self.help.get(k) {
                out.push_str(&format!("# HELP {n} {}\n", prom_escape_help(h)));
            }
        };
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = prom_name(k);
            help_line(&mut out, k, &n);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = prom_name(k);
            help_line(&mut out, k, &n);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", json_f64(*v)));
        }
        for (k, h) in &self.histograms {
            let n = prom_name(k);
            help_line(&mut out, k, &n);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (le, c) in h.nonzero_buckets() {
                cum += c;
                if le.is_finite() {
                    out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cum}\n", json_f64(le)));
                }
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", json_f64(h.sum)));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards_and_threads() {
        let c = Arc::new(Counter::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn gauge_set_add_roundtrip() {
        let g = Gauge::default();
        g.set(1.5);
        g.add(2.5);
        assert_eq!(g.get(), 4.0);
        g.set(-3.0);
        assert_eq!(g.get(), -3.0);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_cover() {
        // Edges strictly increase and every positive value maps into a
        // bucket whose upper edge is >= the value.
        let mut prev = 0.0;
        for i in 0..HIST_BUCKETS - 1 {
            let e = bucket_upper(i);
            assert!(e > prev, "bucket {i} edge {e} <= {prev}");
            prev = e;
        }
        for v in [1e-10, 1e-9, 3e-7, 1e-3, 0.5, 1.0, 17.3, 2.5e5] {
            let b = bucket_of(v);
            assert!(
                bucket_upper(b) >= v,
                "value {v} above its bucket edge {}",
                bucket_upper(b)
            );
            if b > 0 {
                assert!(bucket_upper(b - 1) < v, "value {v} not in lowest bucket");
            }
        }
        // Hostile inputs land in bucket 0 instead of panicking.
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(f64::INFINITY), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1 ms .. 1 s
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!((s.sum - 500.5).abs() < 1e-6);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        // Bucketed quantiles overestimate by at most one √2 step.
        assert!((0.5..=0.5 * 1.5).contains(&p50), "p50 = {p50}");
        assert!((0.99..=0.99 * 1.5).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn registry_returns_same_instance_per_name() {
        let r = Registry::new();
        let a = r.counter("test.same");
        let b = r.counter("test.same");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("test.same").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_serializes_json_and_prometheus() {
        let r = Registry::new();
        r.counter("unit.requests").add(7);
        r.gauge("unit.depth").set(3.25);
        let h = r.histogram("unit.latency_seconds");
        h.record(0.010);
        h.record(0.020);
        let s = r.snapshot();

        let json = s.to_json();
        assert!(json.contains("\"unit.requests\": 7"), "{json}");
        assert!(json.contains("\"unit.depth\": 3.25"), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");

        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE unit_requests counter"), "{prom}");
        assert!(prom.contains("unit_requests 7"), "{prom}");
        assert!(prom.contains("# TYPE unit_latency_seconds histogram"));
        assert!(prom.contains("unit_latency_seconds_count 2"), "{prom}");
        assert!(prom.contains("le=\"+Inf\"}} 2".replace("}}", "}").as_str()));
    }

    #[test]
    fn prometheus_exposition_conforms() {
        // Format-conformance over a registry exercising every series kind
        // plus hostile help text: each # HELP precedes its # TYPE, help
        // backslashes/newlines are escaped onto one physical line, metric
        // names use the legal charset, sample lines are `name[{labels}]
        // value`, and histogram buckets are cumulative and end at +Inf.
        let r = Registry::new();
        r.counter("conf.requests").add(3);
        r.describe("conf.requests", "requests with a \\ backslash\nand newline");
        r.gauge("conf.depth").set(1.0);
        r.describe("conf.depth", "queue depth");
        let h = r.histogram("conf.latency_seconds");
        for v in [0.001, 0.002, 0.004, 0.5] {
            h.record(v);
        }
        r.describe("conf.latency_seconds", "latency");
        let prom = r.snapshot().to_prometheus();

        let help_at = prom.find("# HELP conf_requests").unwrap();
        let type_at = prom.find("# TYPE conf_requests counter").unwrap();
        assert!(help_at < type_at, "{prom}");
        assert!(
            prom.contains("# HELP conf_requests requests with a \\\\ backslash\\nand newline\n"),
            "help escaping broken:\n{prom}"
        );
        assert!(prom.contains("# HELP conf_latency_seconds latency\n"));

        let name_ok = |n: &str| {
            !n.is_empty()
                && !n.starts_with(|c: char| c.is_ascii_digit())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut inf_cum = None;
        let mut last_cum = 0u64;
        for line in prom.lines() {
            assert!(!line.is_empty(), "blank line in exposition");
            if line.starts_with('#') {
                let mut parts = line.splitn(4, ' ');
                assert_eq!(parts.next(), Some("#"));
                let kind = parts.next().unwrap();
                assert!(kind == "HELP" || kind == "TYPE", "{line}");
                assert!(name_ok(parts.next().unwrap()), "{line}");
                continue;
            }
            // Sample line: name or name{le="..."} then one float value.
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let base = series.split('{').next().unwrap();
            assert!(name_ok(base), "bad metric name in {line}");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line}"
            );
            if let Some(le) = series.strip_prefix("conf_latency_seconds_bucket{le=\"") {
                let cum: u64 = value.parse().unwrap();
                assert!(cum >= last_cum, "buckets not cumulative: {line}");
                last_cum = cum;
                if le.starts_with("+Inf") {
                    inf_cum = Some(cum);
                }
            }
        }
        assert_eq!(inf_cum, Some(4), "+Inf bucket must equal count");
        assert!(prom.ends_with('\n'));
    }

    #[test]
    fn global_macros_memoize_and_record() {
        crate::counter!("unit.macro_counter").add(5);
        crate::counter!("unit.macro_counter").inc();
        assert_eq!(global().counter("unit.macro_counter").get(), 6);
        crate::gauge!("unit.macro_gauge").set(1.0);
        crate::histogram!("unit.macro_hist").record(0.5);
        let s = global().snapshot();
        assert_eq!(s.counters["unit.macro_counter"], 6);
        assert_eq!(s.histograms["unit.macro_hist"].count, 1);
    }
}
