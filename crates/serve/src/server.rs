//! The forecast server: admission → cache → micro-batcher → replicas.
//!
//! Request lifecycle:
//!
//! ```text
//! submit ──▶ validate ──▶ cache probe ──hit──▶ respond (shared trajectory)
//!                             │miss
//!                             ▼
//!                    bounded queue (admission control, Overloaded)
//!                             ▼
//!                    micro-batcher (work-conserving: an idle replica
//!                    takes up to max_batch pending at once)
//!                             ▼
//!                    replica (one predict_batch per batch)
//!                             ▼
//!                cache insert + per-request response channel
//! ```

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccore::SurrogateSpec;
use cocean::Snapshot;

use crate::batcher::{BatcherConfig, MicroBatcher};
use crate::cache::ForecastCache;
use crate::error::ServeError;
use crate::metrics::{MetricsRecorder, ServeMetrics};
use crate::replica::{spawn_replicas, Admission, InflightRegistry, PendingRequest, Waiter};
use crate::request::ForecastRequest;

/// Server deployment knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Replica workers, each owning a rebuilt surrogate and taking
    /// batches straight from the queue. At most
    /// `min(workers, available_parallelism)` are spawned: one forward per
    /// core at a time, so extra workers would only hold batches idle.
    pub workers: usize,
    /// Micro-batch flush size.
    pub max_batch: usize,
    /// Not read: batching is work-conserving (an idle replica takes
    /// whatever is pending at once), so no request waits on a batching
    /// deadline. Kept for callers that set it until a bounded linger of
    /// idle workers either gives it a meaning or deletes it.
    pub max_wait: Duration,
    /// Admission bound on pending (queued, unbatched) requests.
    pub queue_capacity: usize,
    /// Forecast cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// When set, requests whose `scenario_id` differs are rejected as
    /// `BadRequest` (misrouted traffic) instead of being silently
    /// answered by this deployment's model. `None` accepts any id and
    /// treats it purely as a cache namespace.
    pub scenario_id: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 16,
            max_wait: Duration::from_millis(5),
            queue_capacity: 256,
            cache_capacity: 128,
            scenario_id: None,
        }
    }
}

/// Waitable response to a submitted request.
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<Arc<Vec<Snapshot>>, ServeError>>,
    from_cache: bool,
    coalesced: bool,
    trace_id: Option<cobs::TraceId>,
}

impl ResponseHandle {
    /// The request's trace id when tracing is enabled
    /// (`cobs::trace::set_enabled` / `COASTAL_TRACE=1`); resolve it to a
    /// span tree with `cobs::trace::lookup`.
    pub fn trace_id(&self) -> Option<cobs::TraceId> {
        self.trace_id
    }

    /// True when the response was served from the forecast cache (it is
    /// then the first computation of this request, shared bit for bit).
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// True when this request joined an identical in-flight computation
    /// (single-flight coalescing) instead of occupying its own batch slot.
    pub fn coalesced(&self) -> bool {
        self.coalesced
    }

    /// Block until the forecast is ready, sharing the (possibly cached)
    /// trajectory.
    pub fn wait_shared(self) -> Result<Arc<Vec<Snapshot>>, ServeError> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(ServeError::Shutdown),
        }
    }

    /// Block until the forecast is ready and take an owned copy.
    pub fn wait(self) -> Result<Vec<Snapshot>, ServeError> {
        self.wait_shared().map(|arc| (*arc).clone())
    }
}

/// Concurrent forecast-serving frontend over one deployed surrogate.
pub struct ForecastServer {
    t_out: usize,
    mesh: (usize, usize, usize),
    scenario_id: Option<u64>,
    batcher: Arc<MicroBatcher<PendingRequest>>,
    cache: Arc<ForecastCache>,
    inflight: Arc<InflightRegistry>,
    metrics: Arc<MetricsRecorder>,
    /// The batcher's consumers; joined at shutdown once they have drained
    /// the queue.
    replicas: Vec<JoinHandle<()>>,
}

impl ForecastServer {
    /// Deploy `spec` behind micro-batching replicas. Replicas serve
    /// at `spec.precision`; reduced tiers quantize the model at load time
    /// and stay within the ζ parity gates (`ccore::ZETA_TOL_INT8` /
    /// `ccore::ZETA_TOL_F16`).
    pub fn new(spec: SurrogateSpec, cfg: ServeConfig) -> Self {
        let cache = Arc::new(ForecastCache::new(cfg.cache_capacity));
        let inflight = Arc::new(InflightRegistry::default());
        let metrics = Arc::new(MetricsRecorder::new());
        let batcher = Arc::new(MicroBatcher::new(BatcherConfig {
            max_batch: cfg.max_batch,
            capacity: cfg.queue_capacity,
        }));

        let replicas = spawn_replicas(&spec, cfg.workers, &batcher, &cache, &inflight, &metrics);
        Self {
            t_out: spec.t_out(),
            mesh: spec.mesh(),
            scenario_id: cfg.scenario_id,
            batcher,
            cache,
            inflight,
            metrics,
            replicas,
        }
    }

    /// Submit a request. Returns immediately with a waitable handle, a
    /// cache hit, or a typed rejection (`BadRequest` / `Overloaded` /
    /// `Shutdown`).
    pub fn submit(&self, req: ForecastRequest) -> Result<ResponseHandle, ServeError> {
        let submitted = Instant::now();
        // Mint a per-request trace when tracing is on; it follows the
        // request through the batcher into its replica, and its root span
        // closes on whichever terminal path the request takes.
        let trace = cobs::trace::enabled().then(|| cobs::trace::start("forecast"));
        let trace_id = trace.as_ref().map(cobs::TraceHandle::id);
        let _enter = trace.as_ref().map(|t| cobs::trace::enter(t, t.root()));

        let validated = {
            let _s = cobs::span!("submit.validate");
            self.validate(&req)
        };
        if let Err(e) = validated {
            if let Some(t) = &trace {
                t.close();
            }
            return Err(e);
        }
        // Counted only past validation: every submitted request ends in
        // exactly one of completed / failed / rejected.
        self.metrics.record_submitted();
        let key = req.cache_key();

        let (tx, rx) = mpsc::channel();
        let handle = |from_cache, coalesced| ResponseHandle {
            rx,
            from_cache,
            coalesced,
            trace_id,
        };
        let waiter = Waiter {
            submitted,
            tx,
            trace: trace.clone(),
        };
        let probe = {
            let _s = cobs::span!("submit.cache_probe");
            self.cache.get(&key)
        };
        if let Some(hit) = probe {
            waiter.finish(&self.metrics, Ok(hit), true, false);
            return Ok(handle(true, false));
        }

        // Single-flight: identical concurrent requests share one
        // computation. Only the leader enqueues; joiners wait on the
        // same in-flight entry.
        match self.inflight.join_or_lead(key, waiter) {
            Admission::Joined => {
                let _s = cobs::span!("submit.coalesce");
                self.metrics.record_coalesced();
                // A high-priority duplicate lends its urgency to the
                // queued leader: the shared computation must not wait
                // behind the normal backlog.
                if req.priority == crate::request::Priority::High {
                    self.batcher.promote_where(|p| p.key == key);
                }
                return Ok(handle(false, true));
            }
            Admission::Leader => {
                // Double-check the cache: the previous leader for this key
                // may have completed (insert, then registry release)
                // between our probe above and winning leadership here —
                // without this, a late duplicate would recompute a
                // forecast that is already cached. `peek` keeps the
                // hit/miss counters at one count per client lookup.
                if let Some(hit) = self.cache.peek(&key) {
                    self.inflight.finish(&key, &self.metrics, Ok(hit), true);
                    return Ok(handle(true, false));
                }
            }
        }

        let pending = PendingRequest {
            window: req.window,
            key,
            enqueued: Instant::now(),
            trace: trace.clone(),
        };
        let pushed = {
            let _s = cobs::span!("submit.enqueue");
            self.batcher.push(pending, req.priority)
        };
        match pushed {
            Ok(()) => {
                cobs::gauge!("serve.queue_depth").set(self.batcher.depth() as f64);
                Ok(handle(false, false))
            }
            Err(e) => {
                // Release the in-flight entry (ourselves plus any waiter
                // that joined in the race window): each was counted
                // submitted, so each gets exactly one outcome.
                self.inflight
                    .finish(&key, &self.metrics, Err(e.clone()), false);
                Err(e)
            }
        }
    }

    fn validate(&self, req: &ForecastRequest) -> Result<(), ServeError> {
        if let Some(id) = self.scenario_id {
            if req.scenario_id != id {
                return Err(ServeError::BadRequest(format!(
                    "scenario {} not served by this deployment (serving scenario {id})",
                    req.scenario_id
                )));
            }
        }
        if req.horizon != self.t_out {
            return Err(ServeError::BadRequest(format!(
                "horizon {} not served by this deployment (model t_out = {})",
                req.horizon, self.t_out
            )));
        }
        // Window shape/mesh checks share ccore's single implementation,
        // so admission and replica execution can never disagree on what
        // a valid episode is.
        ccore::validate_episode_window(self.t_out, self.mesh, &req.window)
            .map_err(|e| ServeError::BadRequest(e.to_string()))
    }

    /// Pending (queued, unbatched) requests right now.
    pub fn queue_depth(&self) -> usize {
        self.batcher.depth()
    }

    /// This server's burn-rate SLO engine (fed by every terminal request
    /// outcome; scraped via the ops plane's `/healthz`).
    pub fn slo(&self) -> &Arc<cobs::slo::SloEngine> {
        self.metrics.slo()
    }

    /// Ops-plane state wired to this server: ready (the constructor's
    /// readiness barrier has passed by the time `self` exists), live
    /// queue depth against the admission bound, and the SLO engine.
    pub fn ops_state(&self) -> crate::OpsState {
        let batcher = Arc::clone(&self.batcher);
        crate::OpsState {
            ready: Arc::new(std::sync::atomic::AtomicBool::new(true)),
            queue_depth: Arc::new(move || batcher.depth()),
            queue_capacity: self.batcher.capacity(),
            slo: Some(Arc::clone(self.metrics.slo())),
        }
    }

    /// Start the ops-plane HTTP server (`/metrics`, `/metrics.json`,
    /// `/healthz`, `/readyz`, `/debug/traces`) for this deployment.
    /// Returns the running server; drop or `shutdown()` to stop it.
    pub fn serve_ops<A: std::net::ToSocketAddrs>(
        &self,
        addr: A,
    ) -> std::io::Result<crate::OpsServer> {
        crate::OpsServer::bind(addr, self.ops_state())
    }

    /// Snapshot the serving metrics.
    pub fn metrics(&self) -> ServeMetrics {
        let (hits, misses, _) = self.cache.stats();
        self.metrics.snapshot((hits, misses))
    }

    /// Graceful shutdown: stop admitting, let the replicas drain the
    /// queue, join them. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.batcher.close();
        for h in self.replicas.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ForecastServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
