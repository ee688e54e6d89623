//! The ops plane end to end, over real TCP: serve a few forecasts, then
//! check every endpoint's payload is well-formed and the registry's
//! request counters reconcile.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use coastal::{train_surrogate, ForecastRequest, ForecastServer, Scenario, ServeConfig};

/// Tests that read the process-global flight recorder take turns.
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
