//! Ops-plane integration tests over a real TCP socket: a live
//! `ForecastServer` with `serve_ops` bound on an ephemeral port, scraped
//! with hand-rolled HTTP GETs — `/metrics` must parse as Prometheus text
//! exposition, `/healthz`/`/readyz` must carry correct 200/503 semantics,
//! and `/debug/traces` must show the traffic that just ran.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ccore::{train_surrogate, Scenario, SurrogateSpec};
use cobs::{AlertState, Clock, ManualClock, SloEngine, SloSpec};
use cocean::Snapshot;
use cserve::{ForecastRequest, ForecastServer, OpsServer, OpsState, ServeConfig};

// Trained once, shared by every test (training dominates test wall time).
struct Ctx {
    spec: SurrogateSpec,
    archive: Vec<Snapshot>,
    t_out: usize,
}

static CTX: OnceLock<Ctx> = OnceLock::new();

fn ctx() -> &'static Ctx {
    CTX.get_or_init(|| {
        let mut sc = Scenario::small();
        sc.epochs = 2;
        let grid = sc.grid();
        let archive = sc.simulate_archive(&grid, 0, 40);
        let trained = train_surrogate(&sc, &grid, &archive);
        Ctx {
            spec: trained.spec(),
            archive,
            t_out: sc.t_out,
        }
    })
}

fn request(i: usize) -> ForecastRequest {
    let c = ctx();
    let len = c.t_out + 1;
    ForecastRequest::new(0, c.archive[i..i + len].to_vec(), c.t_out)
}

/// Minimal HTTP/1.1 GET over a fresh connection (the server speaks
/// `Connection: close`, so read-to-EOF frames the response).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Validate Prometheus text exposition: every non-comment line is
/// `name[{labels}] value`, metric names are legal, and histogram bucket
/// series are cumulative and end at `+Inf`.
fn assert_prometheus_wellformed(body: &str) {
    assert!(body.ends_with('\n'), "exposition must end with a newline");
    let mut last_bucket: Option<(String, f64)> = None;
    for line in body.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "unknown comment form: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line has no value: {line}");
        });
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable value in: {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name in: {line}"
        );
        if let Some(le) = series
            .split_once("le=\"")
            .and_then(|(_, rest)| rest.split('"').next())
        {
            let count: f64 = value.parse().unwrap();
            if let Some((prev_name, prev_count)) = &last_bucket {
                if *prev_name == name {
                    assert!(
                        count >= *prev_count,
                        "non-cumulative buckets in {name}: {prev_count} then {count}"
                    );
                }
            }
            last_bucket = Some((name.to_string(), count));
            if le == "+Inf" {
                last_bucket = None;
            }
        }
    }
}

#[test]
fn ops_endpoints_serve_live_telemetry_over_tcp() {
    let c = ctx();
    let server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let ops = server.serve_ops("127.0.0.1:0").expect("bind ops plane");
    let addr = ops.local_addr();

    // Real traffic: distinct requests plus a repeat (cache hit).
    for i in [0usize, 1, 2, 0] {
        server.submit(request(i)).expect("admitted").wait().unwrap();
    }

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_prometheus_wellformed(&metrics);
    assert!(
        metrics.contains("serve_requests_completed"),
        "serving counters must be exported: {metrics:.400}"
    );
    assert!(metrics.contains("# HELP "), "help text must be emitted");

    let (status, json) = http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert!(json.trim_start().starts_with('{'), "{json:.200}");
    assert!(json.contains("serve.requests.completed"), "{json:.400}");

    // Four debug-build forwards can cross the latency SLO on a loaded
    // host, so the expected status is whatever the server's own SLO
    // engine reports now; `healthz_degrades_to_503_when_an_slo_pages`
    // pins both answers with a manual clock.
    let paging = server.slo().worst_state() == AlertState::Page;
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(
        status,
        if paging { 503 } else { 200 },
        "/healthz must answer 503 exactly when an SLO pages: {health}"
    );
    assert!(health.contains("\"slos\""), "{health}");
    assert!(health.contains("\"availability\""), "{health}");
    assert!(health.contains("\"recorder\""), "{health}");

    let (status, ready) = http_get(addr, "/readyz");
    assert_eq!(status, 200, "{ready}");
    assert!(ready.contains("\"ready\": true"), "{ready}");

    let (status, traces) = http_get(addr, "/debug/traces");
    assert_eq!(status, 200);
    assert!(
        traces.contains("\"seq\": "),
        "flight recorder must hold the traffic that just ran: {traces:.300}"
    );
    assert!(traces.contains("\"outcome\": \"ok\""), "{traces:.300}");
    assert!(traces.contains("\"from_cache\": true"), "{traces:.300}");

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);
    // Non-GET methods are refused.
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw:.100}");
}

#[test]
fn readyz_is_503_before_readiness_and_under_queue_pressure() {
    // Standalone ops state: readiness is injectable, so the
    // pool-not-yet-ready phase is testable without racing a constructor.
    let state = OpsState {
        queue_capacity: 4,
        ..Default::default()
    };
    let ready = Arc::clone(&state.ready);
    let depth = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut state = state;
    state.queue_depth = {
        let depth = Arc::clone(&depth);
        Arc::new(move || depth.load(Ordering::Relaxed))
    };
    let ops = OpsServer::bind("127.0.0.1:0", state).expect("bind");
    let addr = ops.local_addr();

    let (status, body) = http_get(addr, "/readyz");
    assert_eq!(status, 503, "not ready before the pool is up: {body}");
    assert!(body.contains("\"ready\": false"), "{body}");
    assert!(body.contains("replica pool not ready"), "{body}");

    ready.store(true, Ordering::Release);
    let (status, body) = http_get(addr, "/readyz");
    assert_eq!(status, 200, "{body}");

    depth.store(4, Ordering::Relaxed); // at capacity
    let (status, body) = http_get(addr, "/readyz");
    assert_eq!(status, 503, "saturated queue must shed: {body}");
    assert!(body.contains("admission queue at capacity"), "{body}");

    depth.store(3, Ordering::Relaxed);
    let (status, _) = http_get(addr, "/readyz");
    assert_eq!(status, 200);
}

#[test]
fn healthz_degrades_to_503_when_an_slo_pages() {
    let clock = Arc::new(ManualClock::new(0.0));
    let slo = Arc::new(SloEngine::new(
        Arc::clone(&clock) as Arc<dyn Clock>,
        vec![SloSpec::availability("ops_test_availability", 0.99)],
    ));
    let state = OpsState {
        slo: Some(Arc::clone(&slo)),
        ..Default::default()
    };
    let ops = OpsServer::bind("127.0.0.1:0", state).expect("bind");
    let addr = ops.local_addr();

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    // Every request fails: both windows burn at 1 / budget = 100, far
    // past the page threshold.
    for _ in 0..30 {
        slo.record_request(0.01, false);
        clock.advance(1.0);
    }
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "a paging SLO must degrade: {body}");
    assert!(body.contains("\"status\": \"page\""), "{body}");
}
