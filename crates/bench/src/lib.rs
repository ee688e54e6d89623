//! # coastal-bench
//!
//! What `benchmark/` (the `BENCHMARK.json` contract) does not measure:
//! `repro` regenerates the paper's tables and figures on scaled
//! scenarios, and three gates (`bench_kernels`, `bench_serve`,
//! `bench_ensemble`) print a table plus one stamped JSON line and exit
//! non-zero when their own threshold fails.

use std::process::ExitCode;

use ccore::{train_surrogate, Scenario, TrainedSurrogate};
use cgrid::Grid;
use cocean::Snapshot;

pub mod stamp;

pub use stamp::RunStamp;

/// Best-of-`reps` wall time (ms) of `f`, after one warm-up call, on the
/// calling thread's current tensor backend.
pub fn best_of_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// A gate binary's last words: one stamped JSON line on stdout (`fields`
/// are the bench's own JSON object fields), each failed gate on stderr,
/// and the exit code CI relies on.
pub fn finish(bench: &str, backend: &str, fields: &str, failures: &[String]) -> ExitCode {
    println!(
        "{{\"bench\": \"{bench}\", {}, {fields}, \"pass\": {}}}",
        RunStamp::capture(backend).json_fields(),
        failures.is_empty()
    );
    for f in failures {
        eprintln!("[{bench}] GATE FAILED: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The experiment context every `repro` table and figure shares: grid,
/// trained surrogate, and the train/test archives they take prefixes of.
pub struct Context {
    pub scenario: Scenario,
    pub grid: Grid,
    pub train_archive: Vec<Snapshot>,
    pub test_archive: Vec<Snapshot>,
    pub trained: TrainedSurrogate,
}

impl Context {
    /// Build the default (small) context: the training year, the held-out
    /// test year, and the surrogate trained on the former.
    pub fn small() -> Context {
        let scenario = Scenario::small();
        let grid = scenario.grid();
        eprintln!(
            "[ctx] mesh {}x{}x{} ({} wet cells), t_out={}",
            grid.ny,
            grid.nx,
            grid.sigma.nz,
            grid.wet_cells(),
            scenario.t_out
        );
        eprintln!("[ctx] simulating training year…");
        let train_archive = scenario.simulate_archive(&grid, 0, scenario.train_snapshots);
        eprintln!("[ctx] simulating test year…");
        let test_archive = scenario.simulate_archive(&grid, 1, scenario.test_snapshots);
        eprintln!("[ctx] training surrogate…");
        let trained = train_surrogate(&scenario, &grid, &train_archive);
        eprintln!(
            "[ctx] trained: loss {:.4}, {:.2} inst/s",
            trained.last_epoch.mean_loss, trained.last_epoch.instances_per_sec
        );
        Context {
            scenario,
            grid,
            train_archive,
            test_archive,
            trained,
        }
    }

    /// Non-overlapping episode windows over the test archive.
    pub fn test_windows(&self) -> Vec<&[Snapshot]> {
        let len = self.scenario.t_out + 1;
        self.test_archive.chunks_exact(len).collect()
    }
}

/// Print the banner each table and figure opens with.
pub fn banner(title: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref}; scaled mesh — compare shapes, not absolutes)");
    println!("================================================================");
}

/// Write rows to a CSV under `out/`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::path::PathBuf {
    let dir = std::path::Path::new("out");
    std::fs::create_dir_all(dir).expect("create out/");
    let path = dir.join(name);
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    std::fs::write(&path, body).expect("write csv");
    println!("[csv] wrote {}", path.display());
    path
}
