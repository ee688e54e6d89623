//! Telemetry demo: trace one forecast end to end and dump the metrics
//! registry.
//!
//! Trains a tiny surrogate, deploys it behind the micro-batched server
//! with tracing enabled and the kernel profiler installed, submits one
//! forecast, and prints:
//!
//! 1. the request's **span tree** — admission → queue wait → replica
//!    forward, with the named backend kernels nested under the batch
//!    forward (matmul, layernorm, qlinear, …). Parent spans carry a
//!    `(self …)` annotation: total minus the time covered by direct
//!    children, so inter-kernel time (batch assembly, dispatch, result
//!    scatter) is visible instead of vanishing into the parent total;
//! 2. the global registry as a **Prometheus** text dump, `# HELP` and
//!    `# TYPE` lines included.
//!
//! Run with:
//! `COASTAL_PROFILE=1 cargo run --release --example trace_forecast`
//! (the profiler env var is set programmatically below as well, so a
//! plain `cargo run --example trace_forecast` shows the same output).

use coastal::{train_surrogate, ForecastRequest, ForecastServer, Scenario, ServeConfig};

fn main() {
    // The kernel profiler reads COASTAL_PROFILE once, at first backend
    // construction — set it before anything touches a tensor so the
    // wrapped backend is the one every layer resolves.
    if std::env::var("COASTAL_PROFILE").is_err() {
        std::env::set_var("COASTAL_PROFILE", "1");
    }
    coastal::obs::trace::set_enabled(true);

    // ------------------------------------------------------------- train
    let scenario = Scenario::small();
    let grid = scenario.grid();
    println!("simulating training archive + training surrogate…");
    let archive = scenario.simulate_archive(&grid, 0, 40);
    let trained = train_surrogate(&scenario, &grid, &archive);

    // ------------------------------------------------------------ deploy
    let server = ForecastServer::new(
        trained.spec(),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            cache_capacity: 16,
            ..Default::default()
        },
    );

    // ----------------------------------------------------- one forecast
    let window = archive[..scenario.t_out + 1].to_vec();
    let handle = server
        .submit(ForecastRequest::new(0, window, scenario.t_out))
        .expect("request admitted");
    let trace_id = handle.trace_id().expect("tracing is enabled");
    let forecast = handle.wait().expect("request answered");
    println!("forecast: {} steps\n", forecast.len());

    // -------------------------------------------------------- span tree
    let trace = coastal::obs::trace::lookup(trace_id).expect("trace retained");
    println!("--- span tree (trace {:#x}) ---", trace_id.0);
    print!("{}", trace.render());

    // -------------------------------------------------- registry dump
    println!("\n--- metrics registry (Prometheus exposition) ---");
    print!("{}", coastal::obs::global().snapshot().to_prometheus());
}
