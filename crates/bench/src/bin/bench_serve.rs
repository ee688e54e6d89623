//! Serving-throughput benchmark: the micro-batched replica server vs the
//! sequential (batch=1) baseline, emitting `BENCH_serve.json`.
//!
//! Two workloads, 64 concurrent requests each, both on the Blocked
//! backend with the forecast cache disabled (so every win is earned by
//! the serving machinery, not by memoized results):
//!
//! - **distinct**: 64 unique episode windows swept over
//!   `(workers, max_batch)` — pure batched-compute scaling. On multi-core
//!   hosts this is where stacked forwards pull ahead; the JSON records
//!   whatever the hardware gives.
//! - **mixed** (the headline): 64 requests drawn round-robin from 8
//!   distinct windows — the paper's deployment traffic, where many users
//!   ask for the same storm forecast. Single-flight coalescing collapses
//!   duplicates onto one in-flight computation and the 8 leaders form one
//!   micro-batch, so the server answers 64 requests with 8 forwards. The
//!   sequential baseline (one `predict_episode` per request, no serving
//!   stack) recomputes all 64.
//!
//! Headline gate: mixed-traffic micro-batched throughput ≥ 3× the
//! sequential baseline.
//!
//! Every sweep point (and the sequential baseline) is best-of-N over
//! fresh servers — scheduler noise on small hosts easily swamps the
//! effect being measured, and best-of is the standard cure.
//!
//! The ops plane rides along: the mixed headline is re-measured with the
//! flight recorder disabled (the always-on recorder + SLO engine must
//! keep the recorder-on run ≥ 0.95× of recorder-off), a Prometheus
//! scraper hammers `/metrics` over real TCP *while* the mixed load runs
//! (scrape latency is reported), and the flight-recorder state is dumped
//! to `INCIDENT_serve.json`. With `--ops-hold-secs N` the ops server is
//! additionally held on `COASTAL_OPS_ADDR` (default `127.0.0.1:9464`)
//! after the report is written, so CI can curl the live endpoints.
//!
//! `--smoke` trims training and repeats so CI finishes in seconds; the
//! measured points and the JSON schema are identical.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccore::{train_surrogate, Scenario, SurrogateSpec};
use cocean::Snapshot;
use cserve::{ForecastRequest, ForecastServer, ServeConfig};

struct RunResult {
    workers: usize,
    max_batch: usize,
    wall_s: f64,
    rps: f64,
    speedup: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    coalesced: u64,
}

fn episode_windows(archive: &[Snapshot], t_out: usize, n: usize) -> Vec<Vec<Snapshot>> {
    // Stride-1 sliding windows: n distinct requests (distinct cache keys).
    (0..n).map(|i| archive[i..i + t_out + 1].to_vec()).collect()
}

/// Push `requests` through a fresh server and measure wall-clock
/// first-submit → last-response. Repeated `reps` times (fresh server and
/// cold queue each time); the best-throughput repetition is reported.
fn serve_run(
    spec: &SurrogateSpec,
    requests: &[Vec<Snapshot>],
    t_out: usize,
    workers: usize,
    max_batch: usize,
    seq_rps: f64,
    reps: usize,
) -> RunResult {
    let mut best: Option<RunResult> = None;
    for _ in 0..reps {
        let server = ForecastServer::new(
            spec.clone(),
            ServeConfig {
                workers,
                max_batch,
                max_wait: Duration::from_millis(2),
                queue_capacity: requests.len() * 2,
                cache_capacity: 0, // measure the serving machinery, not the LRU
                scenario_id: None,
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        let handles: Vec<_> = requests
            .iter()
            .map(|w| {
                server
                    .submit(ForecastRequest::new(0, w.clone(), t_out))
                    .expect("benchmark stays under queue capacity")
            })
            .collect();
        for h in handles {
            h.wait().expect("request answered");
        }
        let wall = t0.elapsed().as_secs_f64();
        let m = server.metrics();
        let rps = requests.len() as f64 / wall;
        let r = RunResult {
            workers,
            max_batch,
            wall_s: wall,
            rps,
            speedup: rps / seq_rps,
            p50_ms: m.p50_ms,
            p95_ms: m.p95_ms,
            p99_ms: m.p99_ms,
            mean_batch: m.mean_batch_size(),
            coalesced: m.coalesced,
        };
        if best.as_ref().is_none_or(|b| r.rps > b.rps) {
            best = Some(r);
        }
    }
    best.expect("reps >= 1")
}

fn result_json(r: &RunResult) -> String {
    format!(
        "{{\"workers\": {}, \"max_batch\": {}, \"wall_s\": {:.4}, \"throughput_rps\": {:.2}, \
         \"speedup_vs_sequential\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"mean_batch\": {:.2}, \"coalesced\": {}}}",
        r.workers,
        r.max_batch,
        r.wall_s,
        r.rps,
        r.speedup,
        r.p50_ms,
        r.p95_ms,
        r.p99_ms,
        r.mean_batch,
        r.coalesced
    )
}

/// Minimal HTTP/1.1 GET against the ops plane (the server answers
/// `Connection: close`, so read-to-EOF frames the response).
fn ops_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

struct ScrapeStats {
    scrapes: usize,
    failed: usize,
    p50_ms: f64,
    max_ms: f64,
    /// Mixed-traffic throughput while the scraper was hammering.
    load_rps: f64,
}

/// Push the mixed workload through `server` while a scraper thread GETs
/// `/metrics` in a tight loop — the "scrape under load" number: a live
/// Prometheus scrape must stay cheap and well-formed while the admission
/// queue is full.
fn scrape_under_load(
    server: &ForecastServer,
    ops_addr: SocketAddr,
    requests: &[Vec<Snapshot>],
    t_out: usize,
) -> ScrapeStats {
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut lat_ms = Vec::new();
            let mut failed = 0usize;
            loop {
                let t0 = Instant::now();
                match ops_get(ops_addr, "/metrics") {
                    Ok((200, body)) if body.contains("serve_") && body.ends_with('\n') => {
                        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    _ => failed += 1,
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (lat_ms, failed)
        })
    };

    let t0 = Instant::now();
    let handles: Vec<_> = requests
        .iter()
        .map(|w| {
            server
                .submit(ForecastRequest::new(0, w.clone(), t_out))
                .expect("benchmark stays under queue capacity")
        })
        .collect();
    for h in handles {
        h.wait().expect("request answered");
    }
    let load_rps = requests.len() as f64 / t0.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    let (mut lat_ms, failed) = scraper.join().expect("scraper thread");
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let p50_ms = lat_ms.get(lat_ms.len() / 2).copied().unwrap_or(0.0);
    let max_ms = lat_ms.last().copied().unwrap_or(0.0);
    ScrapeStats {
        scrapes: lat_ms.len(),
        failed,
        p50_ms,
        max_ms,
        load_rps,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let argv: Vec<String> = std::env::args().collect();
    let mut hold_secs = 0u64;
    for (i, a) in argv.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--ops-hold-secs=") {
            hold_secs = v.parse().unwrap_or(0);
        } else if a == "--ops-hold-secs" {
            hold_secs = argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(0);
        }
    }
    let n_requests = 64usize;
    let n_distinct_mixed = 8usize;

    let mut sc = Scenario::small();
    sc.epochs = if smoke { 1 } else { 3 };
    let grid = sc.grid();
    eprintln!("[serve] simulating training archive…");
    let train_archive = sc.simulate_archive(&grid, 0, 40);
    eprintln!("[serve] training surrogate ({} epochs)…", sc.epochs);
    let trained = train_surrogate(&sc, &grid, &train_archive);
    eprintln!("[serve] simulating test archive…");
    let test_archive = sc.simulate_archive(&grid, 1, n_requests + sc.t_out + 1);
    let distinct = episode_windows(&test_archive, sc.t_out, n_requests);
    // Mixed traffic: 64 requests round-robin over 8 distinct forecasts.
    let mixed: Vec<Vec<Snapshot>> = (0..n_requests)
        .map(|i| distinct[i % n_distinct_mixed].clone())
        .collect();
    let spec = trained.spec();

    let reps = if smoke { 2 } else { 3 };

    // ------------------------------------------------ sequential baseline
    // One thread, one `predict_episode` per request, no serving stack —
    // the pre-serving deployment recomputes every request, so distinct
    // and mixed traffic cost the same. Best-of-`reps` like the sweep.
    let mut seq_wall = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for w in &distinct {
            std::hint::black_box(trained.predict_episode(w));
        }
        seq_wall = seq_wall.min(t0.elapsed().as_secs_f64());
    }
    let seq_rps = n_requests as f64 / seq_wall;
    eprintln!("[serve] sequential baseline: {seq_rps:.1} req/s ({seq_wall:.3} s for {n_requests})");

    // ------------------------------------------- distinct-request sweep
    let points: &[(usize, usize)] = if smoke {
        &[(1, 1), (1, 8), (2, 16)]
    } else {
        &[(1, 1), (1, 4), (1, 8), (1, 16), (2, 8), (2, 16), (4, 16)]
    };
    let mut sweep = Vec::new();
    for &(w, b) in points {
        let r = serve_run(&spec, &distinct, sc.t_out, w, b, seq_rps, reps);
        eprintln!(
            "[serve] distinct workers={w} max_batch={b:>2}: {:>7.1} req/s ({:.2}x seq), \
             p50 {:.1} ms, p99 {:.1} ms, mean batch {:.1}",
            r.rps, r.speedup, r.p50_ms, r.p99_ms, r.mean_batch
        );
        sweep.push(r);
    }

    // ------------------------------------------- mixed-traffic headline
    let workers = 2;
    let mixed_run = serve_run(&spec, &mixed, sc.t_out, workers, 16, seq_rps, reps);
    eprintln!(
        "[serve] mixed ({n_distinct_mixed} distinct / {n_requests} requests) workers={workers} \
         max_batch=16: {:>7.1} req/s ({:.2}x seq), {} coalesced, mean batch {:.1}",
        mixed_run.rps, mixed_run.speedup, mixed_run.coalesced, mixed_run.mean_batch
    );

    // ------------------------------------------- ops-plane overhead gate
    // The flight recorder + SLO engine are on by default in every run
    // above; the deployment bar is that they stay effectively free: the
    // recorder-on mixed headline must hold ≥ 0.95× of recorder-off.
    // Off/on runs are interleaved back-to-back (best-of each side), so
    // slow drift on a shared host cancels instead of deciding the gate.
    cobs::recorder::global().thaw();
    // Each gate run carries 3× the headline's *distinct* windows (more
    // requests alone would just coalesce onto the same leaders): a single
    // mixed pass is ~0.1 s in release, where one scheduler hiccup swings
    // throughput by more than the effect being gated.
    let gate_distinct = (3 * n_distinct_mixed).min(n_requests);
    let gate_load: Vec<Vec<Snapshot>> = (0..3 * n_requests)
        .map(|i| distinct[i % gate_distinct].clone())
        .collect();
    // The gate statistic is the **median of paired on/off ratios**: the
    // two runs of a pair are adjacent in time, so host-load noise is
    // correlated and cancels inside each ratio, and the median discards
    // outlier rounds entirely. Pair order alternates so "second run of a
    // pair" effects (cold caches, turbo decay) don't bias one side.
    let gate_rounds = reps.max(5) + 2;
    let (mut mixed_off, mut mixed_on): (Option<RunResult>, Option<RunResult>) = (None, None);
    let mut ratios = Vec::new();
    for round in 0..gate_rounds {
        let mut pair = [0.0f64; 2]; // [off, on]
        for phase in 0..2 {
            let on = (round + phase) % 2 == 0;
            cobs::recorder::global().set_enabled(on);
            let r = serve_run(&spec, &gate_load, sc.t_out, workers, 16, seq_rps, 1);
            pair[on as usize] = r.rps;
            let best = if on { &mut mixed_on } else { &mut mixed_off };
            if best.as_ref().is_none_or(|b| r.rps > b.rps) {
                *best = Some(r);
            }
        }
        ratios.push(pair[1] / pair[0]);
    }
    cobs::recorder::global().set_enabled(true);
    let (mixed_off, mixed_on) = (mixed_off.unwrap(), mixed_on.unwrap());
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead_ratio = ratios[ratios.len() / 2];
    let overhead_pass = overhead_ratio >= 0.95;
    eprintln!(
        "[serve] recorder overhead: median on/off {:.3}x over {} pairs \
         (best on {:.1} req/s, best off {:.1} req/s) ({})",
        overhead_ratio,
        gate_rounds,
        mixed_on.rps,
        mixed_off.rps,
        if overhead_pass {
            "PASS >= 0.95x"
        } else {
            "FAIL < 0.95x"
        }
    );

    // ------------------------------------------------- scrape under load
    // One live server with the ops plane bound; a scraper thread GETs
    // /metrics in a loop while the mixed workload saturates the queue.
    let ops_server = ForecastServer::new(
        spec.clone(),
        ServeConfig {
            workers,
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_capacity: mixed.len() * 2,
            cache_capacity: 0,
            scenario_id: None,
            ..Default::default()
        },
    );
    let ops = ops_server
        .serve_ops("127.0.0.1:0")
        .expect("bind ops plane on an ephemeral port");
    let scrape = scrape_under_load(&ops_server, ops.local_addr(), &mixed, sc.t_out);
    eprintln!(
        "[serve] scrape under load: {} scrapes ({} failed), p50 {:.2} ms, max {:.2} ms \
         while serving {:.1} req/s",
        scrape.scrapes, scrape.failed, scrape.p50_ms, scrape.max_ms, scrape.load_rps
    );

    // ------------------------------------------------------------- report
    let stamp = cbench::RunStamp::capture("blocked");
    let mut json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"smoke\": {smoke},\n  \"requests\": {n_requests},\n  \
         \"best_of\": {reps},\n  \
         {},\n  \
         \"sequential\": {{\"wall_s\": {seq_wall:.4}, \"throughput_rps\": {seq_rps:.2}}},\n  \
         \"distinct_results\": [\n",
        stamp.json_fields()
    );
    for (i, r) in sweep.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&result_json(r));
        json.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    json.push_str(&format!(
        "  ],\n  \"mixed\": {{\"distinct\": {n_distinct_mixed}, \"result\": {}}},\n",
        result_json(&mixed_run)
    ));
    json.push_str(&format!(
        "  \"ops_plane\": {{\n    \"recorder_on\": {},\n    \"recorder_off\": {},\n    \
         \"overhead_ratio\": {overhead_ratio:.3}, \"gate\": 0.95, \"gate_pass\": {overhead_pass},\n    \
         \"scrape_under_load\": {{\"scrapes\": {}, \"failed\": {}, \"p50_ms\": {:.3}, \
         \"max_ms\": {:.3}, \"throughput_rps\": {:.2}}}\n  }},\n",
        result_json(&mixed_on),
        result_json(&mixed_off),
        scrape.scrapes,
        scrape.failed,
        scrape.p50_ms,
        scrape.max_ms,
        scrape.load_rps
    ));
    json.push_str(&format!(
        "  \"headline\": {{\"workload\": \"mixed\", \
         \"mechanism\": \"single-flight coalescing + micro-batching\", \
         \"note\": \"distinct-request batching alone is ~1x on single-core hosts (see distinct_results); the headline win comes from answering {} duplicate requests with {} batched forwards\", \
         \"workers\": {}, \"max_batch\": {}, \
         \"throughput_rps\": {:.2}, \"speedup_vs_sequential\": {:.3}}}\n}}\n",
        mixed_run.coalesced,
        n_requests as u64 - mixed_run.coalesced,
        mixed_run.workers,
        mixed_run.max_batch,
        mixed_run.rps,
        mixed_run.speedup
    ));

    let json = cbench::telemetry::splice_registry(json);
    let path = std::env::var("BENCH_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| eprintln!("[serve] could not write {path}: {e}"));
    println!("{json}");

    // Standalone telemetry artifacts: the registry as JSON and in
    // Prometheus text exposition format. With COASTAL_PROFILE=1 the JSON
    // additionally carries per-kernel `kernel.*` histograms.
    let snap = cobs::global().snapshot();
    for (suffix, body) in [("json", snap.to_json()), ("prom", snap.to_prometheus())] {
        let tpath = format!("TELEMETRY_serve.{suffix}");
        std::fs::File::create(&tpath)
            .and_then(|mut f| f.write_all(body.as_bytes()))
            .unwrap_or_else(|e| eprintln!("[serve] could not write {tpath}: {e}"));
    }
    eprintln!(
        "[serve] telemetry: {} kernel histogram series recorded (COASTAL_PROFILE={})",
        snap.histograms
            .keys()
            .filter(|k| k.starts_with("kernel."))
            .count(),
        std::env::var("COASTAL_PROFILE").unwrap_or_else(|_| "0".into()),
    );

    // Incident artifact: the flight recorder's full state (ring,
    // exemplars, freeze metadata) after the benchmark traffic — what an
    // operator would pull when paged, and what CI uploads.
    let ipath =
        std::env::var("BENCH_INCIDENT_OUT").unwrap_or_else(|_| "INCIDENT_serve.json".into());
    let dump = cobs::recorder::global().dump_json();
    std::fs::File::create(&ipath)
        .and_then(|mut f| f.write_all(dump.as_bytes()))
        .unwrap_or_else(|e| eprintln!("[serve] could not write {ipath}: {e}"));
    eprintln!(
        "[serve] incident dump: {} records retained -> {ipath}",
        cobs::recorder::global().len()
    );

    eprintln!(
        "[serve] headline serving speedup (mixed traffic; coalescing + micro-batching): {:.1}x ({})",
        mixed_run.speedup,
        if mixed_run.speedup >= 3.0 {
            "PASS >= 3x"
        } else {
            "below 3x target"
        }
    );

    // CI hook: hold a live ops plane (backed by the scrape server, whose
    // global-registry metrics cover everything above) so an external
    // probe can curl /metrics, /healthz, /readyz and /debug/traces.
    if hold_secs > 0 {
        let addr = std::env::var("COASTAL_OPS_ADDR").unwrap_or_else(|_| "127.0.0.1:9464".into());
        match ops_server.serve_ops(addr.as_str()) {
            Ok(held) => {
                eprintln!("[serve] ops plane held at http://{addr} for {hold_secs}s");
                std::thread::sleep(Duration::from_secs(hold_secs));
                drop(held);
            }
            Err(e) => eprintln!("[serve] could not hold ops plane on {addr}: {e}"),
        }
    }
    drop(ops);
}
