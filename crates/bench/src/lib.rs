//! # coastal-bench
//!
//! Harness regenerating every table and figure of the paper's evaluation
//! on scaled scenarios. Binaries: `table1..table4`, `fig5..fig10`,
//! `repro_all`, and the `bench_*` bins that write `BENCH_*.json`.

use ccore::{train_surrogate, Scenario, TrainedSurrogate};
use cgrid::Grid;
use cocean::Snapshot;

pub mod stamp;
pub mod telemetry;

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

/// A prepared experiment context shared by the harness binaries:
/// grid + trained surrogate + train/test archives.
pub struct Context {
    pub scenario: Scenario,
    pub grid: Grid,
    pub train_archive: Vec<Snapshot>,
    pub test_archive: Vec<Snapshot>,
    pub trained: TrainedSurrogate,
}

impl Context {
    /// Build the default (small) context with at least `test_len` test
    /// snapshots of the held-out forcing year.
    pub fn small(test_len: usize) -> Context {
        Self::build(Scenario::small(), test_len)
    }

    /// Build from an explicit scenario.
    pub fn build(scenario: Scenario, test_len: usize) -> Context {
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
        let test_archive = scenario.simulate_archive(&grid, 1, test_len.max(scenario.t_out + 1));
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

/// Print a banner shared by all harness binaries.
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
