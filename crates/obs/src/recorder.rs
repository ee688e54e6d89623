//! The rolling flight recorder: an always-on bounded ring of the last N
//! completed request records, plus per-latency-bucket **exemplars** (the
//! slowest record retained per histogram bucket), with anomaly-triggered
//! freezing so an incident's traces survive the traffic that follows it.
//!
//! Metrics tell you *that* p99 spiked; the recorder tells you *which
//! requests* spiked and (when tracing is on) where their time went. Every
//! completed request is recorded as a small [`RequestRecord`] — label,
//! outcome, latency, cache/coalesce flags, and the full span-tree JSON
//! when the request carried a trace. The ring holds the most recent
//! `capacity` records in O(capacity) memory; exemplars pin one record per
//! log-latency bucket (same √2 geometry as [`crate::Histogram`]), so the
//! tail of the distribution keeps representatives even after the ring
//! has wrapped past them.
//!
//! **Freezing**: when an anomaly fires — a recorded latency more than
//! [`AnomalyPolicy::latency_spike_factor`]× the running mean (after
//! [`AnomalyPolicy::min_samples`] warm-up), or an explicit
//! [`FlightRecorder::freeze`] (an operator marking an incident) — the
//! ring stops overwriting. The spiking record itself is retained (freeze
//! happens *after* it is pushed); later records are counted as dropped.
//! [`FlightRecorder::dump_json`] serializes the frozen state for an
//! incident artifact; [`FlightRecorder::thaw`] resumes recording.
//!
//! Cost model: recording is one short mutex hold on a small struct push
//! (plus a `to_json` render only for traced requests), cheap against a
//! model forward; `bench_serve` gates the recorder-on mixed-traffic
//! headline at ≥0.95× of the recorder-off run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::metrics::{bucket_of, bucket_upper, HIST_BUCKETS};
use crate::trace::TraceHandle;

/// Terminal outcome of a recorded request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Failed,
    Rejected,
}

impl Outcome {
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Failed => "failed",
            Outcome::Rejected => "rejected",
        }
    }
}

/// One completed request, as retained by the ring.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Process-monotone sequence number (gaps mean records were dropped
    /// while frozen or recording was disabled).
    pub seq: u64,
    pub label: &'static str,
    pub outcome: Outcome,
    pub latency_seconds: f64,
    pub from_cache: bool,
    pub coalesced: bool,
    /// The request's trace id when it was traced.
    pub trace_id: Option<u64>,
    /// Full span tree (`TraceHandle::to_json`) when the request was
    /// traced; `None` for untraced requests (the record is still useful —
    /// latency, outcome and flags survive without tracing enabled).
    pub trace_json: Option<String>,
}

impl RequestRecord {
    fn to_json(&self) -> String {
        let trace_id = match self.trace_id {
            Some(id) => format!("\"{id:016x}\""),
            None => "null".into(),
        };
        let trace = self.trace_json.as_deref().unwrap_or("null");
        format!(
            "{{\"seq\": {}, \"label\": \"{}\", \"outcome\": \"{}\", \
             \"latency_seconds\": {:.9}, \"from_cache\": {}, \"coalesced\": {}, \
             \"trace_id\": {trace_id}, \"trace\": {trace}}}",
            self.seq,
            self.label,
            self.outcome.as_str(),
            self.latency_seconds,
            self.from_cache,
            self.coalesced,
        )
    }
}

/// When the recorder freezes itself.
#[derive(Clone, Copy, Debug)]
pub struct AnomalyPolicy {
    /// Freeze when a completed latency exceeds this multiple of the
    /// running mean latency.
    pub latency_spike_factor: f64,
    /// Completions observed before the spike detector arms (the mean is
    /// meaningless over the first few samples).
    pub min_samples: u64,
}

impl Default for AnomalyPolicy {
    fn default() -> Self {
        Self {
            latency_spike_factor: 16.0,
            min_samples: 64,
        }
    }
}

#[derive(Clone, Debug)]
struct FreezeInfo {
    reason: String,
    /// Sequence number of the last record admitted before the freeze.
    at_seq: u64,
    /// Records rejected since (they arrived while frozen).
    dropped: u64,
}

struct Inner {
    ring: VecDeque<RequestRecord>,
    exemplars: Vec<Option<RequestRecord>>,
    frozen: Option<FreezeInfo>,
    /// Running mean latency of completed requests (spike baseline).
    mean_latency: f64,
    completions: u64,
    /// Next sequence number. Assigned under the ring lock, so ring order
    /// and `seq` order are the same order.
    next_seq: u64,
}

/// The rolling flight recorder. One process-global instance ([`global`])
/// is fed by `cserve`; independent recorders can be built for tests.
pub struct FlightRecorder {
    capacity: usize,
    policy: AnomalyPolicy,
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

fn lock(m: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl FlightRecorder {
    pub fn new(capacity: usize, policy: AnomalyPolicy) -> Self {
        let reg = crate::metrics::global();
        reg.describe(
            "obs.recorder.freezes",
            "Flight-recorder freezes (anomaly or explicit incident)",
        );
        reg.describe(
            "obs.recorder.frozen",
            "1 while the flight recorder is frozen on an incident",
        );
        reg.describe(
            "obs.recorder.dropped_while_frozen",
            "Request records rejected because the recorder was frozen",
        );
        reg.gauge("obs.recorder.frozen").set(0.0);
        Self {
            capacity: capacity.max(1),
            policy,
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                exemplars: vec![None; HIST_BUCKETS],
                frozen: None,
                mean_latency: 0.0,
                completions: 0,
                next_seq: 0,
            }),
        }
    }

    /// Turn recording on or off (the overhead knob `bench_serve`
    /// measures). Off, [`Self::record`] is one atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        lock(&self.inner).ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record one completed request. The trace (when present) is rendered
    /// to JSON here, so the record survives the trace ring's eviction.
    pub fn record(
        &self,
        label: &'static str,
        outcome: Outcome,
        latency_seconds: f64,
        from_cache: bool,
        coalesced: bool,
        trace: Option<&TraceHandle>,
    ) {
        if !self.enabled() {
            return;
        }
        let trace_json = trace.map(TraceHandle::to_json);
        let mut inner = lock(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let rec = RequestRecord {
            seq,
            label,
            outcome,
            latency_seconds,
            from_cache,
            coalesced,
            trace_id: trace.map(|t| t.id().0),
            trace_json,
        };
        if let Some(f) = &mut inner.frozen {
            f.dropped += 1;
            crate::counter!("obs.recorder.dropped_while_frozen").inc();
            return;
        }
        // Spike detection against the running mean *before* this sample
        // joins it; the spiking record itself is pushed first, so the
        // frozen ring contains the anomaly that triggered it.
        let spike = outcome == Outcome::Ok
            && inner.completions >= self.policy.min_samples
            && inner.mean_latency > 0.0
            && latency_seconds > self.policy.latency_spike_factor * inner.mean_latency;
        if outcome == Outcome::Ok {
            inner.completions += 1;
            let n = inner.completions as f64;
            inner.mean_latency += (latency_seconds - inner.mean_latency) / n;
        }
        let b = bucket_of(latency_seconds);
        let replace = inner.exemplars[b]
            .as_ref()
            .is_none_or(|e| latency_seconds > e.latency_seconds);
        if replace {
            inner.exemplars[b] = Some(rec.clone());
        }
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(rec);
        if spike {
            let mean = inner.mean_latency;
            Self::freeze_locked(
                &mut inner,
                format!(
                    "tail-latency spike: {latency_seconds:.6}s > {}x mean {mean:.6}s",
                    self.policy.latency_spike_factor
                ),
                seq,
            );
        }
    }

    fn freeze_locked(inner: &mut Inner, reason: String, at_seq: u64) {
        if inner.frozen.is_some() {
            return; // first incident wins; keep its ring
        }
        inner.frozen = Some(FreezeInfo {
            reason,
            at_seq,
            dropped: 0,
        });
        crate::counter!("obs.recorder.freezes").inc();
        crate::gauge!("obs.recorder.frozen").set(1.0);
    }

    /// Freeze the ring explicitly (e.g. an operator marking an incident).
    /// Idempotent: the first freeze's reason and ring contents win.
    pub fn freeze(&self, reason: &str) {
        let mut inner = lock(&self.inner);
        let at_seq = inner.next_seq;
        Self::freeze_locked(&mut inner, reason.to_string(), at_seq);
    }

    /// Resume recording after an incident. The ring keeps its contents
    /// (new records age them out naturally); the spike baseline restarts
    /// so a post-incident regime change doesn't re-trigger immediately.
    pub fn thaw(&self) {
        let mut inner = lock(&self.inner);
        inner.frozen = None;
        inner.completions = 0;
        inner.mean_latency = 0.0;
        crate::gauge!("obs.recorder.frozen").set(0.0);
    }

    pub fn is_frozen(&self) -> bool {
        lock(&self.inner).frozen.is_some()
    }

    /// The freeze reason, when frozen.
    pub fn freeze_reason(&self) -> Option<String> {
        lock(&self.inner).frozen.as_ref().map(|f| f.reason.clone())
    }

    /// Copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<RequestRecord> {
        lock(&self.inner).ring.iter().cloned().collect()
    }

    /// The whole recorder state as one JSON object — the incident-dump
    /// artifact: ring (oldest first), per-bucket exemplars, and freeze
    /// metadata.
    pub fn dump_json(&self) -> String {
        let inner = lock(&self.inner);
        let (frozen, reason, at_seq, dropped) = match &inner.frozen {
            Some(f) => (true, json_escape(&f.reason), f.at_seq, f.dropped),
            None => (false, String::new(), 0, 0),
        };
        let mut out = format!(
            "{{\"frozen\": {frozen}, \"freeze_reason\": \"{reason}\", \
             \"frozen_at_seq\": {at_seq}, \"dropped_while_frozen\": {dropped}, \
             \"capacity\": {}, \"records\": [",
            self.capacity
        );
        for (i, r) in inner.ring.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&r.to_json());
        }
        out.push_str("], \"exemplars\": [");
        let mut first = true;
        for (b, e) in inner.exemplars.iter().enumerate() {
            let Some(rec) = e else { continue };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let le = bucket_upper(b);
            let le = if le.is_finite() {
                format!("{le:.9}")
            } else {
                "\"+Inf\"".into()
            };
            out.push_str(&format!("{{\"le\": {le}, \"record\": {}}}", rec.to_json()));
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The process-global flight recorder (capacity via
/// `COASTAL_RECORDER_CAP`, default 256; `COASTAL_RECORDER=0` starts it
/// disabled).
pub fn global() -> &'static FlightRecorder {
    static R: OnceLock<FlightRecorder> = OnceLock::new();
    R.get_or_init(|| {
        let cap = std::env::var("COASTAL_RECORDER_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        let rec = FlightRecorder::new(cap, AnomalyPolicy::default());
        if matches!(
            std::env::var("COASTAL_RECORDER").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        ) {
            rec.set_enabled(false);
        }
        rec
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(r: &FlightRecorder, latency: f64) {
        r.record("req", Outcome::Ok, latency, false, false, None);
    }

    #[test]
    fn ring_keeps_most_recent_capacity_records() {
        let r = FlightRecorder::new(4, AnomalyPolicy::default());
        for i in 0..10 {
            rec(&r, 0.001 * (i + 1) as f64);
        }
        let records = r.records();
        assert_eq!(records.len(), 4);
        let seqs: Vec<u64> = records.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn exemplars_pin_slowest_per_bucket_across_wrap() {
        let r = FlightRecorder::new(2, AnomalyPolicy::default());
        // The slow outlier wraps out of the tiny ring...
        rec(&r, 1.0);
        rec(&r, 0.001);
        rec(&r, 0.0011);
        rec(&r, 0.0012);
        assert_eq!(r.records().len(), 2);
        // ...but its exemplar survives in the ~1 s bucket.
        let dump = r.dump_json();
        assert!(dump.contains("\"latency_seconds\": 1.000000000"), "{dump}");
    }

    #[test]
    fn latency_spike_freezes_after_recording_the_spike() {
        let policy = AnomalyPolicy {
            latency_spike_factor: 10.0,
            min_samples: 8,
        };
        let r = FlightRecorder::new(64, policy);
        for _ in 0..20 {
            rec(&r, 0.010);
        }
        assert!(!r.is_frozen());
        rec(&r, 1.0); // 100x the mean
        assert!(r.is_frozen());
        assert!(
            r.freeze_reason().unwrap().contains("tail-latency spike"),
            "{:?}",
            r.freeze_reason()
        );
        // The spike itself is the last retained record; later records drop.
        let last_seq = r.records().last().unwrap().seq;
        rec(&r, 0.010);
        assert_eq!(r.records().last().unwrap().seq, last_seq);
        let dump = r.dump_json();
        assert!(dump.contains("\"frozen\": true"), "{dump}");
        assert!(dump.contains("\"dropped_while_frozen\": 1"), "{dump}");
        // Thaw resumes recording.
        r.thaw();
        rec(&r, 0.010);
        assert!(r.records().last().unwrap().seq > last_seq);
    }

    #[test]
    fn explicit_freeze_is_idempotent_first_reason_wins() {
        let r = FlightRecorder::new(8, AnomalyPolicy::default());
        rec(&r, 0.01);
        r.freeze("physics-fail burst");
        r.freeze("second incident");
        assert_eq!(r.freeze_reason().as_deref(), Some("physics-fail burst"));
        assert_eq!(r.records().len(), 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::new(8, AnomalyPolicy::default());
        r.set_enabled(false);
        rec(&r, 0.01);
        assert!(r.is_empty());
        r.set_enabled(true);
        rec(&r, 0.01);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn dump_json_carries_trace_when_present() {
        crate::trace::set_enabled(true);
        let t = crate::trace::start("req");
        t.close();
        let r = FlightRecorder::new(8, AnomalyPolicy::default());
        r.record("forecast", Outcome::Ok, 0.005, true, false, Some(&t));
        let dump = r.dump_json();
        assert!(dump.contains("\"trace_id\": \""), "{dump}");
        assert!(dump.contains("\"spans\": ["), "{dump}");
        assert!(dump.contains("\"from_cache\": true"), "{dump}");
    }
}
