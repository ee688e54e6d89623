//! The flagship HPC property: the simulator on MPI-style tiles is
//! bit-identical to the one-tile run, across decompositions — plus the
//! analogous compute-backend property: the blocked/fused/SIMD tensor
//! backend is numerically equivalent to the scalar reference oracle on a
//! full surrogate forward pass.

use coastal::ocean::Roms;
use coastal::surrogate::{SwinConfig, SwinSurrogate};
use coastal::tensor::autograd::Graph;
use coastal::tensor::backend::{self, ScalarRef};
use coastal::tensor::init::randn;
use coastal::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn tiled_equals_serial_across_worker_counts() {
    let sc = Scenario::small();
    let grid = sc.grid();
    let cfg = sc.ocean_config(&grid, 0);
    let n = 2;
    let interval = sc.snapshot_interval;

    let mut serial = Roms::new(&grid, cfg.clone());
    let reference = serial.record(n, interval);

    for p in [2usize, 3, 4, 6] {
        let tiled = Roms::tiled(&grid, cfg.clone(), p).record(n, interval);
        for (a, b) in reference.iter().zip(&tiled) {
            assert_eq!(a.zeta, b.zeta, "ζ mismatch at p={p}");
            assert_eq!(a.u, b.u, "u mismatch at p={p}");
            assert_eq!(a.v, b.v, "v mismatch at p={p}");
            assert_eq!(a.w, b.w, "w mismatch at p={p}");
        }
    }
}

/// Backend parity on a whole model: one seeded `SwinSurrogate` run under a
/// `ScalarRef` scope and on the default `Blocked` fast path produces the
/// same forecast (within f32 reassociation noise), end to end through
/// embedding, windowed attention, merges, and decoding.
#[test]
fn surrogate_forward_matches_across_backends() {
    let cfg = SwinConfig::tiny(8, 8, 4, 3);
    let model = SwinSurrogate::new(cfg.clone(), 42);

    let mut rng = StdRng::seed_from_u64(7);
    let b = 2;
    let x3 = randn(&[b, 3, cfg.ny, cfg.nx, cfg.nz, cfg.t_in()], 0.5, &mut rng);
    let x2 = randn(&[b, 1, cfg.ny, cfg.nx, cfg.t_in()], 0.5, &mut rng);

    let run = |expect_backend: &str| {
        assert_eq!(backend::current().name(), expect_backend);
        let mut g = Graph::inference();
        let a = g.constant(x3.clone());
        let c = g.constant(x2.clone());
        let (o3, o2) = model.forward(&mut g, a, c);
        (g.value(o3).clone(), g.value(o2).clone())
    };
    let (r3, r2) = {
        let _oracle = backend::scoped(Arc::new(ScalarRef));
        run("scalar")
    };
    let (f3, f2) = run("blocked");

    let d3 = r3.max_abs_diff(&f3);
    let d2 = r2.max_abs_diff(&f2);
    assert!(d3 < 1e-4, "3-D forecast diverges across backends: {d3}");
    assert!(d2 < 1e-4, "ζ forecast diverges across backends: {d2}");
}
