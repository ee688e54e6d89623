//! Replicas: the micro-batcher's consumers.
//!
//! Model parameters are `Rc`-shared and therefore thread-local, so each
//! replica thread rebuilds its own `TrainedSurrogate` from the shared
//! [`SurrogateSpec`] (cheap: deferred-init skeleton + `Arc`-clone tensor
//! loads). A replica takes a batch straight from
//! [`MicroBatcher::next_ready`], runs it as **one** `predict_batch`
//! forward pass, and answers every request in it through its own channel.
//!
//! Scaling structure (the v1 pool collapsed to 0.21× sequential at four
//! workers; each piece below removes one cause):
//!
//! - **Readiness barrier** — [`spawn_replicas`] blocks until every
//!   replica has built its model, so spin-up cost can never overlap (and
//!   contend with) the serving window.
//! - **Cap at spawn** — at most `min(workers, available_parallelism)`
//!   replicas run, so concurrent forwards never oversubscribe the cores
//!   and no replica holds a batch while waiting for one.
//! - **Pickup from the queue itself** — an idle replica waits on the
//!   batcher's condvar, which releases the queue lock while it waits, and
//!   leaves with up to `max_batch` requests; no replica holds a lock
//!   while blocked on work (the v1 `Mutex<Receiver>` pickup convoy).

use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ccore::{SurrogateSpec, TrainedSurrogate};
use cobs::recorder::Outcome;
use cocean::Snapshot;

use crate::batcher::MicroBatcher;
use crate::cache::ForecastCache;
use crate::error::ServeError;
use crate::lock;
use crate::metrics::MetricsRecorder;
use crate::request::CacheKey;

pub(crate) type ResponseTx = Sender<Result<Arc<Vec<Snapshot>>, ServeError>>;

/// A request in flight between admission and its replica. The response
/// channels (with their per-client submit times) live in the
/// [`InflightRegistry`], keyed by the request's cache key, so duplicate
/// submissions can attach as extra waiters.
pub(crate) struct PendingRequest {
    pub window: Vec<Snapshot>,
    pub key: CacheKey,
    /// When the leader entered the micro-batcher (queue-wait span).
    pub enqueued: Instant,
    /// The leading submitter's trace, carried across the batcher so the
    /// replica can attribute queue wait and batch compute to it.
    pub trace: Option<cobs::TraceHandle>,
}

/// A waiter on an in-flight computation: its own submit time (so latency
/// is measured per client, not from the leader's arrival) and its
/// response channel.
pub(crate) struct Waiter {
    pub submitted: Instant,
    pub tx: ResponseTx,
    /// This client's trace; its root span closes when the response is
    /// sent (any terminal path).
    pub trace: Option<cobs::TraceHandle>,
}

impl Waiter {
    /// The one way a request ends: close the client's trace (the flight
    /// recorder renders it, and once `wait()` returns it must be
    /// complete), record one terminal outcome (`Ok` → completed,
    /// `Overloaded` → rejected, any other error → failed), then send. A
    /// dropped handle just means nobody is waiting.
    pub fn finish(
        self,
        metrics: &MetricsRecorder,
        result: Result<Arc<Vec<Snapshot>>, ServeError>,
        from_cache: bool,
        coalesced: bool,
    ) {
        if let Some(t) = &self.trace {
            t.close();
        }
        let outcome = match &result {
            Ok(_) => Outcome::Ok,
            Err(ServeError::Overloaded { .. }) => Outcome::Rejected,
            Err(_) => Outcome::Failed,
        };
        let latency = self.submitted.elapsed();
        metrics.record_outcome(outcome, latency, from_cache, coalesced, self.trace.as_ref());
        let _ = self.tx.send(result);
    }
}

/// Single-flight registry: one computation per distinct in-flight
/// request, however many concurrent clients asked for it. Duplicate
/// submissions join the original's waiter list instead of occupying
/// queue and batch slots — under fan-in traffic (many users, one storm)
/// this is where serving throughput detaches from request count.
#[derive(Default)]
pub(crate) struct InflightRegistry {
    map: Mutex<HashMap<CacheKey, Vec<Waiter>>>,
}

pub(crate) enum Admission {
    /// First request for this key: the caller must enqueue a computation.
    Leader,
    /// Joined an existing in-flight computation; nothing to enqueue.
    Joined,
}

impl InflightRegistry {
    /// Register a waiter for `key`. `Leader` means the caller owns
    /// enqueueing the computation (and must [`Self::finish`] the key if
    /// that fails).
    pub fn join_or_lead(&self, key: CacheKey, waiter: Waiter) -> Admission {
        let mut map = lock(&self.map);
        match map.get_mut(&key) {
            Some(waiters) => {
                waiters.push(waiter);
                Admission::Joined
            }
            None => {
                map.insert(key, vec![waiter]);
                Admission::Leader
            }
        }
    }

    /// Release `key` and [`Waiter::finish`] every waiter on it with
    /// `result`. Waiters are in arrival order, so index 0 is the leader
    /// and the rest coalesced onto its computation.
    pub fn finish(
        &self,
        key: &CacheKey,
        metrics: &MetricsRecorder,
        result: Result<Arc<Vec<Snapshot>>, ServeError>,
        from_cache: bool,
    ) {
        let waiters = lock(&self.map).remove(key).unwrap_or_default();
        for (i, w) in waiters.into_iter().enumerate() {
            w.finish(metrics, result.clone(), from_cache, i > 0);
        }
    }
}

/// Spawn the replicas that consume `batcher`, each rebuilding the model
/// from `spec` (at `spec`'s precision), and return once every one has
/// built its model.
///
/// At most `min(workers, available_parallelism)` replicas are spawned:
/// each runs its own forward, and oversubscribing the cores with tensor
/// forwards only thrashes caches. A replica past that cap could only take
/// a batch off the queue and then wait for a core.
pub(crate) fn spawn_replicas(
    spec: &SurrogateSpec,
    workers: usize,
    batcher: &Arc<MicroBatcher<PendingRequest>>,
    cache: &Arc<ForecastCache>,
    inflight: &Arc<InflightRegistry>,
    metrics: &Arc<MetricsRecorder>,
) -> Vec<JoinHandle<()>> {
    assert!(workers >= 1, "need at least one replica");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let replicas = workers.min(cores);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let joins: Vec<_> = (0..replicas)
        .map(|r| {
            let spec = spec.clone();
            let ready_tx = ready_tx.clone();
            let batcher = Arc::clone(batcher);
            let cache = Arc::clone(cache);
            let inflight = Arc::clone(inflight);
            let metrics = Arc::clone(metrics);
            std::thread::Builder::new()
                .name(format!("serve-replica-{r}"))
                .spawn(move || {
                    let surrogate = spec.instantiate();
                    let _ = ready_tx.send(());
                    drop(ready_tx);
                    replica_main(&surrogate, &batcher, &cache, &inflight, &metrics);
                })
                .expect("spawn replica")
        })
        .collect();
    drop(ready_tx);
    // Readiness barrier: block until every replica has built its model,
    // so replica spin-up can never bleed into the serving window. A
    // replica that dies while building drops its sender unsent; closing
    // the queue lets the others exit before the panic.
    for _ in 0..replicas {
        if ready_rx.recv().is_err() {
            batcher.close();
            panic!("replica worker died during model construction");
        }
    }
    joins
}

/// Take batches until the queue is closed and drained. A panic anywhere
/// in a batch fails that batch's requests, not the replica: a dead
/// replica would leave its waiters hanging and its keys in flight.
fn replica_main(
    surrogate: &TrainedSurrogate,
    batcher: &MicroBatcher<PendingRequest>,
    cache: &ForecastCache,
    inflight: &InflightRegistry,
    metrics: &MetricsRecorder,
) {
    while let Some(batch) = batcher.next_ready() {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(surrogate, &batch, cache, inflight, metrics);
        }));
        if let Err(payload) = run {
            let e = ServeError::Internal(format!(
                "replica panicked: {}",
                panic_message(payload.as_ref())
            ));
            // Keys this batch already finished are released, and
            // finishing a released key is a no-op.
            for p in &batch {
                inflight.finish(&p.key, metrics, Err(e.clone()), false);
            }
        }
    }
}

/// One `predict_batch` forward for `batch`, then cache and answer each
/// of its requests.
fn run_batch(
    surrogate: &TrainedSurrogate,
    batch: &[PendingRequest],
    cache: &ForecastCache,
    inflight: &InflightRegistry,
    metrics: &MetricsRecorder,
) {
    metrics.record_batch(batch.len());
    // Queue wait per member: enqueue → replica pickup. Recorded both as a
    // registry histogram and, for traced requests, an explicit-bounds
    // span under the request's root.
    let picked_up = Instant::now();
    for p in batch {
        let waited = picked_up.saturating_duration_since(p.enqueued);
        cobs::histogram!("serve.queue_wait_seconds").record_duration(waited);
        if let Some(t) = &p.trace {
            t.record("queue.wait", None, p.enqueued, picked_up);
        }
    }
    let windows: Vec<&[Snapshot]> = batch.iter().map(|p| p.window.as_slice()).collect();
    // The first traced member's trace becomes this thread's active trace
    // for the forward, so profiled backend kernels nest under its
    // replica.predict_batch span; other traced members get the same
    // interval recorded as a shared-batch span below.
    let lead_trace = batch.iter().find_map(|p| p.trace.clone());
    let fwd_start = Instant::now();
    let outcome = {
        let _enter = lead_trace.as_ref().map(|t| cobs::trace::enter(t, t.root()));
        let _span = cobs::span!("replica.predict_batch");
        surrogate.predict_batch(&windows)
    };
    let fwd_end = Instant::now();
    cobs::histogram!("serve.replica_compute_seconds")
        .record_duration(fwd_end.saturating_duration_since(fwd_start));
    for p in batch {
        if let Some(t) = &p.trace {
            if lead_trace.as_ref().map(cobs::TraceHandle::id) != Some(t.id()) {
                t.record("replica.predict_batch.shared", None, fwd_start, fwd_end);
            }
        }
    }
    match outcome {
        Ok(results) => {
            for (pending, snaps) in batch.iter().zip(results) {
                let value = Arc::new(snaps);
                // Cache before releasing the in-flight entry so late
                // duplicates land on one path or the other — never on a
                // recompute.
                cache.insert(pending.key, Arc::clone(&value));
                inflight.finish(&pending.key, metrics, Ok(value), false);
            }
        }
        // Validation happens at admission, so a forecast error is
        // unexpected — but it fails the batch, not the replica.
        Err(e) => {
            let e = ServeError::Forecast(e);
            for pending in batch {
                inflight.finish(&pending.key, metrics, Err(e.clone()), false);
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_closes_trace_records_one_outcome_then_sends() {
        // Thawed and serialized: no other test's freeze or burst can hide
        // this test's flight-recorder records.
        let _serial = lock(&crate::GLOBAL_RECORDER);
        let recorder = cobs::recorder::global();
        recorder.thaw();
        let overloaded = ServeError::Overloaded {
            depth: 1,
            capacity: 1,
        };
        let cases = [
            (Ok(Arc::new(Vec::new())), Outcome::Ok),
            (Err(overloaded), Outcome::Rejected),
            (Err(ServeError::Shutdown), Outcome::Failed),
            (Err(ServeError::Internal("boom".into())), Outcome::Failed),
        ];
        for (result, outcome) in cases {
            let metrics = MetricsRecorder::new();
            let trace = cobs::trace::start("forecast");
            let (tx, rx) = std::sync::mpsc::channel();
            // The receiver checks the trace the moment the value arrives.
            let receiver = {
                let trace = trace.clone();
                std::thread::spawn(move || {
                    let got = rx.recv().expect("finish sends");
                    (got, trace.span_seconds(trace.root()).is_some())
                })
            };
            let waiter = Waiter {
                submitted: Instant::now(),
                tx,
                trace: Some(trace.clone()),
            };
            waiter.finish(&metrics, result.clone(), false, false);

            let (got, closed) = receiver.join().unwrap();
            assert_eq!(got, result);
            assert!(closed, "{outcome:?}: trace open when the value arrived");
            let s = metrics.snapshot((0, 0));
            let moved = match outcome {
                Outcome::Ok => (1, 0, 0),
                Outcome::Rejected => (0, 1, 0),
                Outcome::Failed => (0, 0, 1),
            };
            assert_eq!((s.completed, s.rejected, s.failed), moved, "{outcome:?}");
            let records: Vec<_> = recorder
                .records()
                .into_iter()
                .filter(|r| r.trace_id == Some(trace.id().0))
                .collect();
            assert_eq!(records.len(), 1, "{outcome:?}: one flight record");
            assert_eq!(records[0].outcome, outcome);
            let json = records[0].trace_json.as_deref().expect("traced");
            assert!(
                !json.contains("\"end_us\": null"),
                "{outcome:?}: trace recorded before it was closed: {json}"
            );
        }
    }
}
