//! MPI-style strong scaling of the ROMS-like simulator (the paper's
//! Table I baseline): `Roms` on 1..8 tiles with communication statistics,
//! verifying every tiling equals the one-tile run bit-for-bit.
//!
//! Run with: `cargo run --release --example scaling_demo`

use coastal::ocean::Roms;
use coastal::Scenario;

fn main() {
    let scenario = Scenario::small();
    let grid = scenario.grid();
    let cfg = scenario.ocean_config(&grid, 0);
    let n_snaps = scenario.t_out;
    let interval = scenario.snapshot_interval;

    let mut serial = Roms::new(&grid, cfg.clone());
    let t0 = std::time::Instant::now();
    let reference = serial.record(n_snaps, interval);
    println!("serial: {:.3}s", t0.elapsed().as_secs_f64());

    for p in [1usize, 2, 4, 8] {
        let mut tiled = Roms::tiled(&grid, cfg.clone(), p);
        let t0 = std::time::Instant::now();
        let snaps = tiled.record(n_snaps, interval);
        let wall = t0.elapsed().as_secs_f64();
        let sent: usize = tiled.comm_stats().iter().map(|s| s.doubles_sent).sum();
        let identical = reference == snaps;
        println!(
            "tiled p={p}: {wall:.3}s, {:.1} MB halo traffic, bitwise == serial: {identical}",
            sent as f64 * 8.0 / 1e6
        );
        assert!(identical, "tiled runs must match serial exactly");
    }
}
