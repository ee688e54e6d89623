//! Forecast serving demo: train a tiny surrogate, deploy it behind the
//! micro-batched replica server, and drive it with concurrent clients —
//! including the repeat traffic (many users, one storm) where the cache
//! and single-flight coalescing shine.
//!
//! Run with: `cargo run --release --example serve_demo`

use std::sync::Arc;
use std::time::Instant;

use coastal::serve::Priority;
use coastal::{train_surrogate, ForecastRequest, ForecastServer, Scenario, ServeConfig};

fn main() {
    // ------------------------------------------------------------- train
    let scenario = Scenario::small();
    let grid = scenario.grid();
    println!("simulating training archive + training surrogate…");
    let archive = scenario.simulate_archive(&grid, 0, 40);
    let trained = train_surrogate(&scenario, &grid, &archive);

    // ------------------------------------------------------------ deploy
    let server = Arc::new(ForecastServer::new(
        trained.spec(),
        ServeConfig {
            workers: 2,
            max_batch: 8,
            queue_capacity: 256,
            cache_capacity: 64,
            ..Default::default()
        },
    ));

    // ------------------------------------------------------------ clients
    // 4 client threads × 8 requests each, drawn from 6 distinct forecast
    // windows — so some requests repeat (cache / coalescing hits) and one
    // client sends high-priority traffic. Request windows come out of a
    // shared FP16 snapshot store, as they would from an archive service.
    let test = scenario.simulate_archive(&grid, 1, 6 + scenario.t_out + 1);
    let store = coastal::pipeline::SnapshotStore::build(&test);
    let windows: Vec<Vec<_>> = (0..6)
        .map(|i| {
            store
                .fetch_window(i, scenario.t_out + 1)
                .expect("window inside the archive")
        })
        .collect();
    let windows = Arc::new(windows);

    println!("driving 4 concurrent clients × 8 requests…");
    let t0 = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let server = Arc::clone(&server);
            let windows = Arc::clone(&windows);
            std::thread::spawn(move || {
                for r in 0..8 {
                    let mut req = ForecastRequest::new(
                        0,
                        windows[(c + 2 * r) % windows.len()].clone(),
                        windows[0].len() - 1,
                    );
                    if c == 0 {
                        req.priority = Priority::High;
                    }
                    let handle = server.submit(req).expect("request admitted");
                    let hit = handle.from_cache();
                    let joined = handle.coalesced();
                    let forecast = handle.wait().expect("request answered");
                    println!(
                        "client {c} request {r}: {} steps{}",
                        forecast.len(),
                        if hit {
                            " (cache hit)"
                        } else if joined {
                            " (coalesced)"
                        } else {
                            ""
                        }
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // ------------------------------------------------------------ report
    // Counts come from the server; latency quantiles from the process
    // registry's `serve.latency_seconds` histogram (bucketed: each is the
    // upper edge of its √2-wide bucket).
    let m = server.metrics();
    let lat = coastal::obs::global().snapshot().histograms["serve.latency_seconds"].clone();
    let ms = |q| lat.quantile(q) * 1e3;
    println!("\n--- serving metrics ---");
    println!("completed            {}", m.completed);
    println!(
        "throughput           {:.1} req/s",
        m.completed as f64 / elapsed
    );
    println!(
        "latency p50/p95/p99  {:.1} / {:.1} / {:.1} ms",
        ms(0.50),
        ms(0.95),
        ms(0.99)
    );
    println!(
        "cache                {} hits / {} misses",
        m.cache_hits, m.cache_misses
    );
    println!("coalesced in-flight  {}", m.coalesced);
    println!("batch histogram      {:?}", m.batch_histogram);
}
