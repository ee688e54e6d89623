//! Replayable load harness for the forecast server, emitting
//! `BENCH_load.json` with per-precision latency/throughput summaries.
//!
//! A seeded LCG draws a fixed trace of `N` requests over `D` distinct
//! episode windows with zipf(s = 1.0) popularity — the paper's deployment
//! pattern, where a few active storm forecasts dominate traffic. The
//! *same* trace (same seed → same window sequence) is replayed against a
//! fresh server at each serving precision (f32, f16, int8), in two modes:
//!
//! - **closed loop**: `C` client threads, each walking its slice of the
//!   trace and submitting the next request only after the previous one
//!   answers — classic throughput probe, concurrency bounded by clients.
//! - **open loop**: requests submitted on a fixed schedule at 80% of the
//!   measured closed-loop throughput, from one pacing thread — latency
//!   under scheduled arrivals, where queueing (not client back-pressure)
//!   sets the tail.
//!
//! Every phase gets a fresh server so the latency reservoir and cache
//! stats describe exactly one (precision, mode) cell. The cache is
//! enabled (capacity `D`): repeat popularity is the point of the zipf
//! trace, and the hit rate is part of the report.
//!
//! `--smoke` shrinks the trace and training so CI finishes in seconds;
//! the JSON schema is identical. `BENCH_LOAD_OUT` overrides the output
//! path.

use std::io::Write;
use std::time::{Duration, Instant};

use ccore::{train_surrogate, Scenario, SurrogateSpec};
use cocean::Snapshot;
use cserve::{ForecastRequest, ForecastServer, ServeConfig};
use ctensor::quant::Precision;

/// Deterministic 64-bit LCG (same multiplier/increment as the repo's
/// calibration probes) — the trace is a pure function of the seed.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over ranks `0..d` by inverse CDF — rank 0 is the most
/// popular window.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(d: usize, s: f64) -> Self {
        let mut cdf: Vec<f64> = Vec::with_capacity(d);
        let mut acc = 0.0;
        for r in 0..d {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Self { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

struct PhaseResult {
    wall_s: f64,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    cache_hit_rate: f64,
    completed: u64,
}

fn phase_json(r: &PhaseResult, offered_rps: Option<f64>) -> String {
    let offered = offered_rps
        .map(|o| format!("\"offered_rps\": {o:.2}, "))
        .unwrap_or_default();
    format!(
        "{{{offered}\"wall_s\": {:.4}, \"throughput_rps\": {:.2}, \"p50_ms\": {:.3}, \
         \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"cache_hit_rate\": {:.4}, \"completed\": {}}}",
        r.wall_s, r.rps, r.p50_ms, r.p95_ms, r.p99_ms, r.cache_hit_rate, r.completed
    )
}

fn fresh_server(spec: &SurrogateSpec, precision: Precision, d: usize, n: usize) -> ForecastServer {
    ForecastServer::new(
        spec.clone(),
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_capacity: n * 2,
            cache_capacity: d,
            scenario_id: None,
            precision,
            ..Default::default()
        },
    )
}

/// Closed loop: `clients` threads round-robin the trace, each submitting
/// its next request only after the previous one returns.
fn closed_loop(
    server: &ForecastServer,
    windows: &[Vec<Snapshot>],
    trace: &[usize],
    t_out: usize,
    clients: usize,
) -> (f64, u64) {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                for (i, &widx) in trace.iter().enumerate() {
                    if i % clients != c {
                        continue;
                    }
                    let h = server
                        .submit(ForecastRequest::new(0, windows[widx].clone(), t_out))
                        .expect("trace stays under queue capacity");
                    h.wait().expect("request answered");
                }
            });
        }
    });
    (t0.elapsed().as_secs_f64(), trace.len() as u64)
}

/// Open loop: one pacing thread submits on a fixed schedule at
/// `offered_rps`, then waits for everything.
fn open_loop(
    server: &ForecastServer,
    windows: &[Vec<Snapshot>],
    trace: &[usize],
    t_out: usize,
    offered_rps: f64,
) -> (f64, u64) {
    let dt = Duration::from_secs_f64(1.0 / offered_rps);
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(trace.len());
    for (i, &widx) in trace.iter().enumerate() {
        let deadline = t0 + dt * i as u32;
        if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        handles.push(
            server
                .submit(ForecastRequest::new(0, windows[widx].clone(), t_out))
                .expect("open loop stays under queue capacity"),
        );
    }
    let n = handles.len() as u64;
    for h in handles {
        h.wait().expect("request answered");
    }
    (t0.elapsed().as_secs_f64(), n)
}

fn run_phase(
    spec: &SurrogateSpec,
    precision: Precision,
    windows: &[Vec<Snapshot>],
    trace: &[usize],
    t_out: usize,
    mode: Mode,
) -> PhaseResult {
    let mut server = fresh_server(spec, precision, windows.len(), trace.len());
    let (wall_s, submitted) = match mode {
        Mode::Closed { clients } => closed_loop(&server, windows, trace, t_out, clients),
        Mode::Open { offered_rps } => open_loop(&server, windows, trace, t_out, offered_rps),
    };
    let m = server.metrics();
    server.shutdown();
    assert_eq!(m.completed, submitted, "every trace request must complete");
    PhaseResult {
        wall_s,
        rps: submitted as f64 / wall_s,
        p50_ms: m.p50_ms,
        p95_ms: m.p95_ms,
        p99_ms: m.p99_ms,
        cache_hit_rate: m.cache_hit_rate,
        completed: m.completed,
    }
}

#[derive(Copy, Clone)]
enum Mode {
    Closed { clients: usize },
    Open { offered_rps: f64 },
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 42u64;
    let zipf_s = 1.0f64;
    let (distinct, n_requests, clients) = if smoke { (8, 48, 4) } else { (16, 256, 8) };

    // ------------------------------------------------ model + trace setup
    let mut sc = Scenario::small();
    sc.epochs = if smoke { 1 } else { 3 };
    let grid = sc.grid();
    eprintln!("[load] simulating training archive…");
    let train_archive = sc.simulate_archive(&grid, 0, 40);
    eprintln!("[load] training surrogate ({} epochs)…", sc.epochs);
    let trained = train_surrogate(&sc, &grid, &train_archive);
    let spec = trained.spec();
    eprintln!("[load] simulating {distinct} distinct request windows…");
    let test_archive = sc.simulate_archive(&grid, 1, distinct + sc.t_out + 1);
    let windows: Vec<Vec<Snapshot>> = (0..distinct)
        .map(|i| test_archive[i..i + sc.t_out + 1].to_vec())
        .collect();

    let mut lcg = Lcg(seed);
    let zipf = Zipf::new(distinct, zipf_s);
    let trace: Vec<usize> = (0..n_requests)
        .map(|_| zipf.sample(lcg.next_f64()))
        .collect();
    let hottest = trace.iter().filter(|&&w| w == 0).count();
    eprintln!(
        "[load] trace: {n_requests} requests over {distinct} windows, zipf s={zipf_s} \
         (hottest window: {hottest} requests), seed {seed}"
    );

    // ------------------------------------------------- per-precision runs
    let precisions = [Precision::F32, Precision::F16, Precision::Int8];
    let mut rows: Vec<String> = Vec::new();
    for &p in &precisions {
        let closed = run_phase(
            &spec,
            p,
            &windows,
            &trace,
            sc.t_out,
            Mode::Closed { clients },
        );
        eprintln!(
            "[load] {p} closed-loop ({clients} clients): {:>7.1} req/s, p50 {:.1} ms, \
             p99 {:.1} ms, cache hit {:.0}%",
            closed.rps,
            closed.p50_ms,
            closed.p99_ms,
            closed.cache_hit_rate * 100.0
        );
        let offered = closed.rps * 0.8;
        let open = run_phase(
            &spec,
            p,
            &windows,
            &trace,
            sc.t_out,
            Mode::Open {
                offered_rps: offered,
            },
        );
        eprintln!(
            "[load] {p} open-loop (offered {offered:.1} req/s): {:>7.1} req/s, p50 {:.1} ms, \
             p99 {:.1} ms",
            open.rps, open.p50_ms, open.p99_ms
        );
        rows.push(format!(
            "    {{\"precision\": \"{p}\", \"closed_loop\": {}, \"open_loop\": {}}}",
            phase_json(&closed, None),
            phase_json(&open, Some(offered))
        ));
    }

    // ------------------------------------------------------------- report
    let stamp = cbench::RunStamp::capture("blocked");
    let json = format!(
        "{{\n  \"bench\": \"load\",\n  \"smoke\": {smoke},\n  {},\n  \
         \"trace\": {{\"seed\": {seed}, \"requests\": {n_requests}, \"distinct\": {distinct}, \
         \"zipf_s\": {zipf_s:.1}, \"clients\": {clients}}},\n  \"precisions\": [\n{}\n  ]\n}}\n",
        stamp.json_fields(),
        rows.join(",\n")
    );

    let json = cbench::telemetry::splice_registry(json);
    let path = std::env::var("BENCH_LOAD_OUT").unwrap_or_else(|_| "BENCH_load.json".into());
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| eprintln!("[load] could not write {path}: {e}"));
    println!("{json}");
}
