//! The ops plane: a std-only threaded HTTP/1.1 server exposing the
//! process's telemetry to scrapers and operators.
//!
//! | Endpoint         | Body                                     | Status |
//! |------------------|------------------------------------------|--------|
//! | `/metrics`       | Prometheus text exposition of `cobs`     | 200    |
//! | `/metrics.json`  | the same snapshot as JSON                | 200    |
//! | `/healthz`       | liveness + SLO alerts + recorder         | 200, 503 on page |
//! | `/readyz`        | replica-pool readiness + queue headroom  | 200 / 503 |
//! | `/debug/traces`  | flight-recorder dump (ring + exemplars)  | 200    |
//!
//! `/healthz` is *liveness with severity*: the process answers 200 while
//! it can serve, and degrades to 503 only when an SLO burn-rate alert
//! pages — load balancers keep sending traffic through a warning, and
//! shed it on a page. `/readyz` is
//! *readiness*: 503 until the replica pool is up and while the admission
//! queue is at capacity, so rolling deploys and autoscalers gate on it.
//!
//! Implementation notes: `TcpListener` + thread-per-connection (scrape
//! traffic is one connection per interval — a thread pool would be
//! ceremony), `Connection: close` semantics, no new dependencies.
//! Shutdown sets a flag and self-connects to unblock `accept`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cobs::slo::{AlertState, SloEngine};

/// What the ops endpoints report on. Build one by hand for a bespoke
/// deployment, or let [`crate::ForecastServer::ops_state`] wire it to a
/// live server.
#[derive(Clone)]
pub struct OpsState {
    /// Flipped once the serving pool is up (readiness, not liveness).
    pub ready: Arc<AtomicBool>,
    /// Live admission-queue depth.
    pub queue_depth: Arc<dyn Fn() -> usize + Send + Sync>,
    /// Queue capacity; `/readyz` reports not-ready at or above it.
    pub queue_capacity: usize,
    /// Burn-rate alerts surfaced on `/healthz`.
    pub slo: Option<Arc<SloEngine>>,
}

impl Default for OpsState {
    fn default() -> Self {
        Self {
            ready: Arc::new(AtomicBool::new(false)),
            queue_depth: Arc::new(|| 0),
            queue_capacity: usize::MAX,
            slo: None,
        }
    }
}

impl OpsState {
    fn health_json(&self) -> (AlertState, String) {
        let (worst, slos) = self.slo.as_ref().map_or_else(
            || (AlertState::Ok, "[]".into()),
            |e| (e.worst_state(), e.health_json()),
        );
        let rec = cobs::recorder::global();
        let freeze_reason = match rec.freeze_reason() {
            Some(r) => format!("\"{}\"", r.replace('\\', "\\\\").replace('"', "\\\"")),
            None => "null".into(),
        };
        let body = format!(
            "{{\"status\": \"{}\", \"slos\": {slos}, \
             \"recorder\": {{\"enabled\": {}, \"records\": {}, \"frozen\": {}, \
             \"freeze_reason\": {freeze_reason}}}}}",
            worst.as_str(),
            rec.enabled(),
            rec.len(),
            rec.is_frozen(),
        );
        (worst, body)
    }

    fn ready_json(&self) -> (bool, String) {
        let up = self.ready.load(Ordering::Acquire);
        let depth = (self.queue_depth)();
        let ready = up && depth < self.queue_capacity;
        let reason = if !up {
            "\"replica pool not ready\""
        } else if depth >= self.queue_capacity {
            "\"admission queue at capacity\""
        } else {
            "null"
        };
        let capacity = if self.queue_capacity == usize::MAX {
            "null".into()
        } else {
            self.queue_capacity.to_string()
        };
        let body = format!(
            "{{\"ready\": {ready}, \"queue_depth\": {depth}, \
             \"queue_capacity\": {capacity}, \"reason\": {reason}}}"
        );
        (ready, body)
    }
}

/// A running ops-plane HTTP server. Dropping it shuts it down.
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Bind and start serving. `addr` is usually `"127.0.0.1:0"` (tests)
    /// or `"0.0.0.0:9464"` (a scrape port).
    pub fn bind<A: ToSocketAddrs>(addr: A, state: OpsState) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            let state = Arc::new(state);
            std::thread::Builder::new()
                .name("serve-ops-http".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let state = Arc::clone(&state);
                        // Thread-per-connection: scrape cadence is
                        // seconds, not thousands of rps.
                        let _ = std::thread::Builder::new()
                            .name("serve-ops-conn".into())
                            .spawn(move || {
                                let _ = handle_connection(stream, &state);
                            });
                    }
                })?
        };
        cobs::global().describe("ops.server.starts", "Ops-plane HTTP servers started");
        cobs::global().describe("ops.http.requests", "Ops-plane HTTP requests handled");
        cobs::counter!("ops.server.starts").inc();
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. Idempotent; also runs
    /// on drop. In-flight responses finish on their own threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            // Unblock `accept` with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Most requests are a scrape every few seconds; a stuck client must not
/// pin its thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Request head cap — these endpoints take no bodies.
const MAX_HEAD: usize = 8 * 1024;

fn handle_connection(mut stream: TcpStream, state: &OpsState) -> io::Result<()> {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let head = read_head(&mut stream)?;
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    // Strip any query string: scrapers love cache-busters.
    let path = path.split('?').next().unwrap_or("");
    let (status, content_type, body) = route(method, path, state);
    cobs::counter!("ops.http.requests").inc();
    write_response(&mut stream, status, content_type, &body)
}

fn route(method: &str, path: &str, state: &OpsState) -> (u16, &'static str, String) {
    if method != "GET" {
        return (405, "text/plain", "method not allowed\n".into());
    }
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4",
            cobs::global().snapshot().to_prometheus(),
        ),
        "/metrics.json" => (200, "application/json", cobs::global().snapshot().to_json()),
        "/healthz" => {
            let (worst, body) = state.health_json();
            let status = if worst == AlertState::Page { 503 } else { 200 };
            (status, "application/json", body)
        }
        "/readyz" => {
            let (ready, body) = state.ready_json();
            (if ready { 200 } else { 503 }, "application/json", body)
        }
        "/debug/traces" => (
            200,
            "application/json",
            cobs::recorder::global().dump_json(),
        ),
        _ => (404, "text/plain", "not found\n".into()),
    }
}

/// Read until the end of the request head (`\r\n\r\n`), bounded.
fn read_head(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_HEAD {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
