//! The ops plane end to end, over real TCP.
//!
//! Drift watchdog: calibrate a baseline on a healthy surrogate, seed a
//! degraded surrogate (biased free surface), and watch the governor walk
//! the precision ladder int8 → f16 → f32 and force ROMS-fallback routing —
//! with the incident visible on `/healthz` and in the flight-recorder dump.
//!
//! Live server: serve a few forecasts, then check every endpoint's payload
//! is well-formed and the registry's request counters reconcile.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use coastal::obs::drift::{DriftBaseline, DriftConfig};
use coastal::physics::{Verifier, VerifierConfig};
use coastal::serve::{DriftGovernor, GovernorAction, OpsServer, OpsState, ServeRoute};
use coastal::tensor::quant::Precision;
use coastal::{train_surrogate, ForecastRequest, ForecastServer, Scenario, ServeConfig};
use cocean::Snapshot;

/// `(passed, ζ_mean, ζ_extreme)` for one member episode: the verifier's
/// verdict over the whole episode plus free-surface summary statistics.
fn member_stats(
    verifier: &Verifier,
    initial: &Snapshot,
    forecast: &[Snapshot],
) -> (bool, f64, f64) {
    let (_, passed) = verifier.accepts(initial, forecast);
    let (mut sum, mut n, mut extreme) = (0.0f64, 0usize, 0.0f64);
    for s in forecast {
        for &z in &s.zeta {
            sum += z as f64;
            n += 1;
            extreme = extreme.max((z as f64).abs());
        }
    }
    (passed, sum / n.max(1) as f64, extreme)
}

/// Both tests read the process-global flight recorder and the first one
/// freezes it: they take turns.
fn recorder_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn degraded_surrogate_walks_precision_ladder_into_roms_fallback() {
    let _turn = recorder_turn();
    let mut sc = Scenario::small();
    sc.epochs = 2;
    let grid = sc.grid();
    let archive = sc.simulate_archive(&grid, 0, 40);
    let trained = train_surrogate(&sc, &grid, &archive);
    let verifier = Verifier::new(&grid, VerifierConfig::default());

    // Calibration: healthy member episodes over sliding windows.
    let len = sc.t_out + 1;
    let healthy: Vec<(bool, f64, f64)> = (0..8)
        .map(|i| {
            let window = &archive[i..i + len];
            let forecast = trained.predict_episode(window);
            member_stats(&verifier, &window[0], &forecast)
        })
        .collect();
    let baseline = DriftBaseline::from_members(healthy.iter().copied());

    // Seeded degradation: a +1 m free-surface bias — the signature of a
    // drifted/corrupted surrogate (stale quantization, bad weight push).
    // It blows the ζ-mean drift gate and breaks mass conservation.
    let degraded: Vec<(bool, f64, f64)> = (0..8)
        .map(|i| {
            let window = &archive[i..i + len];
            let mut forecast = trained.predict_episode(window);
            for s in &mut forecast {
                for z in &mut s.zeta {
                    *z += 1.0;
                }
            }
            member_stats(&verifier, &window[0], &forecast)
        })
        .collect();

    // Thresholds sized so the natural tide-phase spread between healthy
    // sliding windows stays clean while the seeded 1 m bias always
    // breaches: windows of 4 members quantize pass rates to 0.25 steps,
    // and window ζ-means track the tide phase within centimeters.
    let cfg = DriftConfig {
        window: 4,
        max_pass_rate_drop: 0.6,
        max_mean_drift: 0.25,
        max_extreme_drift: 10.0,
        trip_windows: 2,
        recover_windows: 2,
    };
    let governor = Arc::new(DriftGovernor::new(
        baseline,
        cfg,
        vec![Precision::Int8, Precision::F16, Precision::F32],
    ));
    let state = OpsState::default().with_governor(Arc::clone(&governor));
    state.ready.store(true, Ordering::Release);
    let ops = OpsServer::bind("127.0.0.1:0", OpsState::clone(&state)).expect("bind ops");
    let addr = ops.local_addr();

    // Healthy members keep the fast tier.
    for &(p, m, x) in &healthy {
        assert!(governor.observe_member(p, m, x).is_none());
    }
    assert_eq!(governor.route(), ServeRoute::Surrogate(Precision::Int8));
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"route\": \"int8\""), "{body}");

    // The degraded stream trips escalations down the whole ladder: each
    // (trip_windows × window) = 8 degraded members steps one rung.
    let mut steps = Vec::new();
    for round in 0..3 {
        for &(p, m, x) in &degraded {
            if let Some(a) = governor.observe_member(p, m, x) {
                steps.push(a);
            }
        }
        assert_eq!(steps.len(), round + 1, "one escalation per 2 windows");
    }
    assert!(matches!(
        steps[0],
        GovernorAction::SteppedDown {
            from: ServeRoute::Surrogate(Precision::Int8),
            to: ServeRoute::Surrogate(Precision::F16),
        }
    ));
    assert!(matches!(
        steps[2],
        GovernorAction::SteppedDown {
            to: ServeRoute::RomsFallback,
            ..
        }
    ));
    assert_eq!(governor.route(), ServeRoute::RomsFallback);

    // The page is visible on /healthz (503 + route), and the incident
    // froze the flight recorder with the escalation as the reason.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "ROMS fallback must page: {body}");
    assert!(body.contains("\"status\": \"page\""), "{body}");
    assert!(body.contains("\"route\": \"roms_fallback\""), "{body}");
    assert!(body.contains("drift escalation"), "{body}");

    assert!(coastal::obs::recorder::global().is_frozen());
    let (status, dump) = http_get(addr, "/debug/traces");
    assert_eq!(status, 200);
    assert!(dump.contains("\"frozen\": true"), "{dump:.300}");
    assert!(dump.contains("drift escalation"), "{dump:.300}");

    // Recovery: healthy members walk it back up one rung per recovery.
    coastal::obs::recorder::global().thaw();
    let mut ups = 0;
    for _ in 0..16 {
        if governor.level() == 0 {
            break;
        }
        for &(p, m, x) in &healthy {
            if let Some(a) = governor.observe_member(p, m, x) {
                assert!(matches!(a, GovernorAction::SteppedUp { .. }));
                ups += 1;
            }
        }
    }
    assert_eq!(ups, 3, "three recoveries back to the fast tier");
    assert_eq!(governor.route(), ServeRoute::Surrogate(Precision::Int8));
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
}

/// Just enough JSON to check the ops payloads parse and to read fields
/// out of them; any malformed input panics, which fails the test.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = JsonParser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.skip_ws();
        assert_eq!(p.i, p.s.len(), "bytes after the JSON value: {text:.200}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
        .unwrap_or(&Json::Null)
    }

    fn len(&self) -> usize {
        match self {
            Json::Arr(items) => items.len(),
            _ => 0,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.s[self.i..].starts_with(token.as_bytes());
        if hit {
            self.i += token.len();
        }
        hit
    }

    /// Comma-separated items up to `close`, each read by `item`.
    fn list<T>(&mut self, close: &str, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return out;
        }
        loop {
            out.push(item(self));
            self.skip_ws();
            if self.eat(close) {
                return out;
            }
            assert!(
                self.eat(","),
                "expected ',' or '{close}' at byte {}",
                self.i
            );
        }
    }

    fn string(&mut self) -> String {
        self.skip_ws();
        assert!(self.eat("\""), "expected a string at byte {}", self.i);
        let mut out = Vec::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).expect("utf-8 string"),
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            let cp = u32::from_str_radix(hex, 16).expect("\\u escape");
                            let ch = char::from_u32(cp).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.to_string().as_bytes());
                            self.i += 4;
                        }
                        b'"' | b'\\' | b'/' => out.push(e),
                        _ => panic!("bad escape \\{} at byte {}", e as char, self.i),
                    }
                }
                _ => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        if self.eat("{") {
            Json::Obj(self.list("}", |p| {
                let key = p.string();
                p.skip_ws();
                assert!(p.eat(":"), "expected ':' at byte {}", p.i);
                (key, p.value())
            }))
        } else if self.eat("[") {
            Json::Arr(self.list("]", Self::value))
        } else if self.s[self.i] == b'"' {
            Json::Str(self.string())
        } else if self.eat("true") {
            Json::Bool(true)
        } else if self.eat("false") {
            Json::Bool(false)
        } else if self.eat("null") {
            Json::Null
        } else {
            let start = self.i;
            while self
                .s
                .get(self.i)
                .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
            {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number {text:?} at byte {start}")),
            )
        }
    }
}

#[test]
fn json_reader_accepts_json_and_rejects_near_json() {
    let v = Json::parse(r#" {"a": [1, -2.5e-3, "x\"\n\u00e9"], "b": {"c": null, "d": true}} "#);
    assert_eq!(v.get("a").len(), 3);
    assert_eq!(
        v.get("a"),
        &Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(-2.5e-3),
            Json::Str("x\"\né".into()),
        ])
    );
    assert_eq!(v.get("b").get("d"), &Json::Bool(true));
    assert_eq!(v.get("b").get("missing"), &Json::Null);
    for bad in ["{\"a\": 1,}", "{\"a\" 1}", "[1 2]", "{} x", "{\"a\": NaN}"] {
        assert!(
            std::panic::catch_unwind(|| Json::parse(bad)).is_err(),
            "{bad} must not parse"
        );
    }
}

/// What CI's ops-plane gate used to check with curl and python against a
/// held benchmark server, now against a server this test owns.
#[test]
fn live_endpoints_are_well_formed_and_counters_reconcile() {
    let _turn = recorder_turn();
    coastal::obs::recorder::global().thaw();

    let mut sc = Scenario::small();
    sc.epochs = 1;
    let grid = sc.grid();
    let archive = sc.simulate_archive(&grid, 0, 20);
    let trained = train_surrogate(&sc, &grid, &archive);
    let server = ForecastServer::new(trained.spec(), ServeConfig::default());
    let ops = server.serve_ops("127.0.0.1:0").expect("bind ops plane");
    let addr = ops.local_addr();

    // Six distinct windows, then two of them again (cache or coalesce).
    let handles: Vec<_> = [0, 1, 2, 3, 4, 5, 0, 1]
        .iter()
        .map(|&i| {
            let window = archive[i..i + sc.t_out + 1].to_vec();
            server
                .submit(ForecastRequest::new(0, window, sc.t_out))
                .expect("admitted")
        })
        .collect();
    for h in handles {
        h.wait().expect("answered");
    }

    let (status, body) = http_get(addr, "/readyz");
    assert_eq!(status, 200, "{body}");
    assert_eq!(Json::parse(&body).get("ready"), &Json::Bool(true), "{body}");

    // 503 is a legitimate answer (a slow host can page the latency SLO):
    // the payload is what must be well-formed.
    let (_, body) = http_get(addr, "/healthz");
    let health = Json::parse(&body);
    assert!(
        matches!(health.get("status"), Json::Str(s) if ["ok", "warning", "page"].contains(&s.as_str())),
        "{body}"
    );
    assert!(health.get("slos").len() > 0, "{body}");
    assert!(
        matches!(health.get("recorder").get("records"), Json::Num(n) if *n > 0.0),
        "{body}"
    );

    let (status, body) = http_get(addr, "/debug/traces");
    assert_eq!(status, 200);
    assert!(Json::parse(&body).get("records").len() > 0, "{body:.300}");

    // No request is in flight, so the terminal counters must add up. A
    // counter that never fired was never interned: it reads as 0.
    let (status, body) = http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    let registry = Json::parse(&body);
    let counter = |name: &str| match registry.get("counters").get(name) {
        Json::Num(n) => *n,
        _ => 0.0,
    };
    let submitted = counter("serve.requests.submitted");
    assert!(submitted >= 8.0, "{body:.300}");
    assert_eq!(
        counter("serve.requests.completed")
            + counter("serve.requests.failed")
            + counter("serve.requests.rejected"),
        submitted,
        "{body:.300}"
    );

    // Last, so the requests above are already in `ops_http_requests` (a
    // request is counted after its own body is rendered).
    let (status, prom) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(prom.ends_with('\n'), "exposition must end with a newline");
    assert!(prom.contains("# HELP ") && prom.contains("# TYPE "));
    for line in prom.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "{line}"
            );
        } else {
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "sample value in {line:?}");
        }
    }
    assert!(
        prom.contains("ops_http_requests"),
        "scrapes must be counted"
    );
}
