//! Replica worker pool.
//!
//! Model parameters are `Rc`-shared and therefore thread-local, so each
//! worker thread rebuilds its own `TrainedSurrogate` from the shared
//! [`SurrogateSpec`] (cheap: deferred-init skeleton + `Arc`-clone tensor
//! loads). Each batch runs as **one** `predict_batch` forward pass, and
//! every request in it gets its response through its own channel.
//!
//! Scaling structure (the v1 pool collapsed to 0.21× sequential at four
//! workers; each piece below removes one cause):
//!
//! - **Readiness barrier** — [`ReplicaPool::spawn`] blocks until every
//!   worker has built its model, so spin-up cost can never overlap (and
//!   contend with) the serving window.
//! - **Idle-token dispatch** — workers announce themselves on a shared
//!   idle channel and each owns a private batch channel. The dispatcher
//!   pairs one idle token with one batch; no worker ever holds a lock
//!   while blocking on work (the v1 `Mutex<Receiver>` pickup convoy).
//! - **Compute gate** — concurrent forward passes are capped at
//!   `min(workers, available_parallelism)`. Oversubscribing physical
//!   cores with tensor forwards just thrashes caches; excess workers
//!   still pipeline admission/response work while gated.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver as StdReceiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ccore::SurrogateSpec;
use cobs::recorder::Outcome;
use cocean::Snapshot;

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

/// Counting semaphore over `std::sync::{Mutex, Condvar}` bounding how many
/// forward passes run at once.
pub(crate) struct ComputeGate {
    slots: Mutex<usize>,
    cv: Condvar,
}

impl ComputeGate {
    fn new(permits: usize) -> Self {
        Self {
            slots: Mutex::new(permits.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> ComputePermit<'_> {
        let mut slots = lock(&self.slots);
        while *slots == 0 {
            slots = self.cv.wait(slots).unwrap_or_else(|e| e.into_inner());
        }
        *slots -= 1;
        ComputePermit { gate: self }
    }
}

pub(crate) struct ComputePermit<'a> {
    gate: &'a ComputeGate,
}

impl Drop for ComputePermit<'_> {
    fn drop(&mut self) {
        let mut slots = lock(&self.gate.slots);
        *slots += 1;
        self.gate.cv.notify_one();
    }
}

struct WorkerHandle {
    /// Rendezvous hand-off for this worker's next batch.
    batch_tx: Option<SyncSender<Vec<PendingRequest>>>,
    join: Option<JoinHandle<()>>,
}

/// Pool of replica worker threads fed by idle-token dispatch.
pub(crate) struct ReplicaPool {
    workers: Vec<WorkerHandle>,
    /// Workers push their index here when ready for a batch.
    idle_rx: StdReceiver<usize>,
}

impl ReplicaPool {
    /// Spawn `workers` workers, each rebuilding the model from `spec` (at
    /// `spec`'s precision).
    pub fn spawn(
        spec: &SurrogateSpec,
        workers: usize,
        cache: Arc<ForecastCache>,
        inflight: Arc<InflightRegistry>,
        metrics: Arc<MetricsRecorder>,
    ) -> Self {
        assert!(workers >= 1, "need at least one replica");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let gate = Arc::new(ComputeGate::new(workers.min(cores)));
        let (idle_tx, idle_rx) = std::sync::mpsc::channel::<usize>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            // Rendezvous (capacity 0): a send completes only when the
            // worker is receiving, so an idle token always means "this
            // worker is actually waiting", and backpressure flows to the
            // dispatcher the moment no token is available.
            let (batch_tx, batch_rx) = sync_channel::<Vec<PendingRequest>>(0);
            let spec = spec.clone();
            let cache = Arc::clone(&cache);
            let inflight = Arc::clone(&inflight);
            let metrics = Arc::clone(&metrics);
            let gate = Arc::clone(&gate);
            let idle_tx = idle_tx.clone();
            let ready_tx = ready_tx.clone();
            let join = std::thread::Builder::new()
                .name(format!("serve-replica-{w}"))
                .spawn(move || {
                    replica_main(
                        w, spec, &batch_rx, &idle_tx, &ready_tx, &gate, &cache, &inflight, &metrics,
                    )
                })
                .expect("spawn replica worker");
            handles.push(WorkerHandle {
                batch_tx: Some(batch_tx),
                join: Some(join),
            });
        }
        drop(ready_tx);
        // Readiness barrier: block until every worker has built its model,
        // so replica spin-up can never bleed into the serving window.
        for _ in 0..workers {
            ready_rx
                .recv()
                .expect("replica worker died during model construction");
        }
        Self {
            workers: handles,
            idle_rx,
        }
    }

    /// Block until some replica is idle; `None` when every worker has
    /// exited (shutdown race). Token-first dispatch: the dispatcher
    /// acquires capacity *before* flushing the batcher, so a queued
    /// request never waits out a batching deadline while a worker idles.
    pub fn acquire_idle(&self) -> Option<usize> {
        self.idle_rx.recv().ok()
    }

    /// Hand `batch` to worker `w` (previously acquired via
    /// [`Self::acquire_idle`]). If that worker died between announcing
    /// idle and receiving, falls back to the next idle token. Returns the
    /// batch when every worker is gone so the caller can fail its
    /// requests.
    pub fn send_to(
        &self,
        w: usize,
        mut batch: Vec<PendingRequest>,
    ) -> Result<(), Vec<PendingRequest>> {
        let mut next = Some(w);
        loop {
            let w = match next.take() {
                Some(w) => w,
                None => match self.idle_rx.recv() {
                    Ok(w) => w,
                    Err(_) => return Err(batch), // every worker exited
                },
            };
            match &self.workers[w].batch_tx {
                Some(tx) => match tx.send(batch) {
                    Ok(()) => return Ok(()),
                    // This worker died between announcing idle and
                    // receiving; try the next token.
                    Err(e) => batch = e.0,
                },
                None => return Err(batch),
            }
        }
    }

    /// Close every batch channel and join the workers (a worker finishes
    /// its in-hand batch first).
    pub fn shutdown(&mut self) {
        for wh in &mut self.workers {
            wh.batch_tx = None; // drop sender → worker sees end-of-stream
        }
        for wh in &mut self.workers {
            if let Some(h) = wh.join.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ReplicaPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[allow(clippy::too_many_arguments)]
fn replica_main(
    index: usize,
    spec: SurrogateSpec,
    batch_rx: &StdReceiver<Vec<PendingRequest>>,
    idle_tx: &Sender<usize>,
    ready_tx: &Sender<()>,
    gate: &ComputeGate,
    cache: &ForecastCache,
    inflight: &InflightRegistry,
    metrics: &MetricsRecorder,
) {
    let surrogate = spec.instantiate();
    let _ = ready_tx.send(());
    loop {
        // Announce idle, then wait on the private batch channel.
        if idle_tx.send(index).is_err() {
            return; // pool gone
        }
        let batch = match batch_rx.recv() {
            Ok(b) => b,
            Err(_) => return, // dispatcher gone: shutdown
        };
        if batch.is_empty() {
            continue;
        }
        metrics.record_batch(batch.len());
        // Queue wait per member: enqueue → replica pickup. Recorded both
        // as a registry histogram and, for traced requests, an
        // explicit-bounds span under the request's root.
        let picked_up = Instant::now();
        for p in &batch {
            let waited = picked_up.saturating_duration_since(p.enqueued);
            cobs::histogram!("serve.queue_wait_seconds").record_duration(waited);
            if let Some(t) = &p.trace {
                t.record("queue.wait", None, p.enqueued, picked_up);
            }
        }
        let windows: Vec<&[Snapshot]> = batch.iter().map(|p| p.window.as_slice()).collect();
        // Gate the forward so tensor compute never oversubscribes the
        // physical cores, then guard against panics in the tensor stack:
        // a panic must fail this batch's waiters, not kill the worker
        // (which would hang them forever and blackhole in-flight keys).
        let permit = gate.acquire();
        // The first traced member's trace becomes this thread's active
        // trace for the forward, so profiled backend kernels nest under
        // its replica.predict_batch span; other traced members get the
        // same interval recorded as a shared-batch span below.
        let lead_trace = batch.iter().find_map(|p| p.trace.clone());
        let fwd_start = Instant::now();
        let outcome = {
            let _enter = lead_trace.as_ref().map(|t| cobs::trace::enter(t, t.root()));
            let _span = cobs::span!("replica.predict_batch");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                surrogate.predict_batch(&windows)
            }))
        };
        let fwd_end = Instant::now();
        drop(permit);
        cobs::histogram!("serve.replica_compute_seconds")
            .record_duration(fwd_end.saturating_duration_since(fwd_start));
        for p in &batch {
            if let Some(t) = &p.trace {
                if lead_trace.as_ref().map(cobs::TraceHandle::id) != Some(t.id()) {
                    t.record("replica.predict_batch.shared", None, fwd_start, fwd_end);
                }
            }
        }
        let outcome = match outcome {
            // Validation happens at admission, so a forecast error is
            // unexpected — but it must fail the batch, not the worker.
            Ok(r) => r.map_err(ServeError::Forecast),
            Err(payload) => Err(ServeError::Internal(format!(
                "replica panicked: {}",
                panic_message(payload.as_ref())
            ))),
        };
        match outcome {
            Ok(results) => {
                for (pending, snaps) in batch.into_iter().zip(results) {
                    let value = Arc::new(snaps);
                    // Cache before releasing the in-flight entry so late
                    // duplicates land on one path or the other — never on
                    // a recompute.
                    cache.insert(pending.key, Arc::clone(&value));
                    inflight.finish(&pending.key, metrics, Ok(value), false);
                }
            }
            Err(e) => {
                for pending in &batch {
                    inflight.finish(&pending.key, metrics, Err(e.clone()), false);
                }
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
