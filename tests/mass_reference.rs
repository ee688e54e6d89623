//! The verifier's mass residual against the implementation it replaced,
//! and on columns drained below their bed.
//!
//! `water_mass_residual` below is the previous residual, kept as a
//! test-only reference: its arithmetic is unchanged, and only its second
//! parallel section runs serially (each cell is independent, so the values
//! are the same). It depth-averaged with `dz_k` per level and divided by
//! `max(h + ζ, 1e-6)`, so a drying column inflated the residual; the
//! verifier's `ū = Σ_k u_k ΔC_k` divides by nothing and clamps face depths
//! to `MIN_DEPTH` as the solver does.

use coastal::grid::Grid;
use coastal::ocean::{Snapshot, TidalForcing};
use coastal::physics::{Verifier, VerifierConfig, ACCEPTED_THRESHOLD};
use coastal::Scenario;
use rayon::prelude::*;
use std::ops::Range;

/// Residual field plus summary statistics for one snapshot pair.
#[derive(Clone, Debug)]
pub struct ResidualField {
    pub ny: usize,
    pub nx: usize,
    /// Per-cell |residual| (m/s); land cells are NaN-free zeros but are
    /// excluded from the statistics.
    pub values: Vec<f64>,
    /// Mean |residual| over wet cells (m/s) — the paper's pass metric.
    pub mean: f64,
    /// Max |residual| over wet cells.
    pub max: f64,
    /// Wet cell count.
    pub wet_cells: usize,
}

/// Depth-average a cell-centered 3-D velocity using sigma thicknesses.
fn depth_average(
    grid: &Grid,
    snap: &Snapshot,
    field: &[f32],
    j: usize,
    i: usize,
    zeta: f64,
) -> f64 {
    let h = grid.h.get(j as isize, i as isize);
    let total = (h + zeta).max(1e-6);
    let mut acc = 0.0;
    for k in 0..snap.nz {
        let dz = grid.sigma.dz(k, h, zeta);
        acc += field[snap.idx3(k, j, i)] as f64 * dz;
    }
    acc / total
}

/// Compute the residual field between two consecutive snapshots.
///
/// The time derivative uses the forward difference of ζ; the boundary flux
/// uses the time-mean of the two snapshots' depth-averaged velocities
/// (second-order in the snapshot interval).
pub fn water_mass_residual(grid: &Grid, before: &Snapshot, after: &Snapshot) -> ResidualField {
    assert_eq!(
        (before.ny, before.nx, before.nz),
        (after.ny, after.nx, after.nz)
    );
    assert!(
        after.time > before.time,
        "snapshots must be time-ordered: {} !> {}",
        after.time,
        before.time
    );
    let (ny, nx) = (before.ny, before.nx);
    let dt = after.time - before.time;

    // Pre-compute depth-averaged velocities at cell centers, time-averaged
    // over the pair.
    let wet = |j: usize, i: usize| grid.mask_rho.get(j as isize, i as isize) > 0.5;
    let mut ubar = vec![0.0f64; ny * nx];
    let mut vbar = vec![0.0f64; ny * nx];
    ubar.par_chunks_mut(nx)
        .zip(vbar.par_chunks_mut(nx))
        .enumerate()
        .for_each(|(j, (urow, vrow))| {
            for i in 0..nx {
                if !wet(j, i) {
                    continue;
                }
                let z0 = before.zeta[before.idx2(j, i)] as f64;
                let z1 = after.zeta[after.idx2(j, i)] as f64;
                urow[i] = 0.5
                    * (depth_average(grid, before, &before.u, j, i, z0)
                        + depth_average(grid, after, &after.u, j, i, z1));
                vrow[i] = 0.5
                    * (depth_average(grid, before, &before.v, j, i, z0)
                        + depth_average(grid, after, &after.v, j, i, z1));
            }
        });

    // Time-mean total depth per cell.
    let depth_at = |j: usize, i: usize| -> f64 {
        let h = grid.h.get(j as isize, i as isize);
        let z = 0.5 * (before.zeta[before.idx2(j, i)] + after.zeta[after.idx2(j, i)]) as f64;
        h + z
    };

    let values: Vec<f64> = (0..ny * nx)
        .map(|cell| {
            let (j, i) = (cell / nx, cell % nx);
            if !wet(j, i) {
                return 0.0;
            }
            let area = grid.cell_area(j, i);
            let dzeta_dt =
                (after.zeta[after.idx2(j, i)] - before.zeta[before.idx2(j, i)]) as f64 / dt;
            // Storage term per unit area: ∂ζ/∂t (h is constant in time).
            let storage = dzeta_dt;

            // Net inflow per unit area: -div[(h+ζ)ū]. Face values average
            // the two adjacent centers; land neighbors contribute no flux.
            let face = |ja: usize, ia: usize, jb: usize, ib: usize, vel: &[f64]| -> f64 {
                if !wet(jb, ib) {
                    return 0.0;
                }
                let d = 0.5 * (depth_at(ja, ia) + depth_at(jb, ib));
                let v = 0.5 * (vel[ja * nx + ia] + vel[jb * nx + ib]);
                d * v
            };
            let dx = grid.dx[i];
            let dy = grid.dy[j];
            let flux_e = if i + 1 < nx {
                face(j, i, j, i + 1, &ubar) * dy
            } else {
                0.0
            };
            let flux_w = if i > 0 {
                face(j, i, j, i - 1, &ubar) * dy
            } else {
                // Open west boundary: use the cell's own value.
                depth_at(j, i) * ubar[j * nx + i] * dy
            };
            let flux_n = if j + 1 < ny {
                face(j, i, j + 1, i, &vbar) * dy_to_dx(dx)
            } else {
                0.0
            };
            let flux_s = if j > 0 {
                face(j, i, j - 1, i, &vbar) * dy_to_dx(dx)
            } else {
                0.0
            };

            let inflow = -(flux_e - flux_w + flux_n - flux_s) / area;
            (storage - inflow).abs()
        })
        .collect();

    let mut mean = 0.0;
    let mut max = 0.0f64;
    let mut wet_cells = 0usize;
    for j in 0..ny {
        for i in 0..nx {
            if wet(j, i) {
                let v = values[j * nx + i];
                mean += v;
                max = max.max(v);
                wet_cells += 1;
            }
        }
    }
    mean /= wet_cells.max(1) as f64;

    ResidualField {
        ny,
        nx,
        values,
        mean,
        max,
        wet_cells,
    }
}

/// v-face flux length is dx (the face spans the cell width).
#[inline]
fn dy_to_dx(dx: f64) -> f64 {
    dx
}

/// A half-day of a 0.5 m tide on the small estuary: low water takes the
/// shallowest columns below `MIN_DEPTH`, high water keeps every column wet.
fn drying_tide() -> (Grid, Vec<Snapshot>) {
    let sc = Scenario {
        spinup: 3.0 * 3600.0,
        ..Scenario::small().with_forcing(TidalForcing::single(0.5, 12.0))
    };
    let grid = sc.grid();
    let snaps = sc.simulate_archive(&grid, 1, 26);
    (grid, snaps)
}

#[test]
fn matches_reference_when_wet_and_passes_roms_when_drying() {
    let (grid, snaps) = drying_tide();
    let verifier = Verifier::new(&grid, VerifierConfig::default());
    let rel = |a: f64, b: f64| ((a - b) / b).abs();
    let (mut wet_pairs, mut dry_pairs, mut reference_failures) = (0, 0, 0);
    for (t, w) in snaps.windows(2).enumerate() {
        let new = verifier.check_pair(&w[0], &w[1]);
        let old = water_mass_residual(&grid, &w[0], &w[1]);
        let old_passed = old.mean <= ACCEPTED_THRESHOLD;
        if new.dry_columns == 0 {
            wet_pairs += 1;
            assert!(
                rel(new.mean_residual, old.mean) < 1e-12 && rel(new.max_residual, old.max) < 1e-12,
                "pair {t}: {new:?} vs reference mean {} max {}",
                old.mean,
                old.max
            );
            assert_eq!(new.passed, old_passed, "pair {t}");
        } else {
            dry_pairs += 1;
            reference_failures += usize::from(!old_passed);
            assert!(new.mean_residual.is_finite() && new.max_residual.is_finite());
            assert!(
                new.mean_residual <= ACCEPTED_THRESHOLD && new.passed,
                "pair {t}: ROMS output must pass with its drying columns: {new:?}"
            );
        }
    }
    assert!(
        wet_pairs > 0 && dry_pairs > 0,
        "wet {wet_pairs}, drying {dry_pairs}"
    );
    assert!(
        reference_failures > 0,
        "the reference must fail some drying pair for this test to show the fix"
    );
}

/// The verifier and the first all-wet pair of the drying tide.
fn all_wet_pair() -> (Grid, Verifier, Snapshot, Snapshot) {
    let (grid, snaps) = drying_tide();
    let verifier = Verifier::new(&grid, VerifierConfig::default());
    let w = snaps
        .windows(2)
        .find(|w| verifier.check_pair(&w[0], &w[1]).dry_columns == 0)
        .expect("an all-wet pair");
    let (a, b) = (w[0].clone(), w[1].clone());
    (grid, verifier, a, b)
}

/// `b` with the wet cells of rows `js` × columns `is` drained to total
/// depth `h + ζ = depth`, and how many cells that is.
fn drain(
    grid: &Grid,
    b: &Snapshot,
    js: Range<usize>,
    is: Range<usize>,
    depth: f64,
) -> (Snapshot, usize) {
    let (mut out, mut n) = (b.clone(), 0);
    for j in js {
        for i in is.clone() {
            if grid.mask_rho.get(j as isize, i as isize) > 0.5 {
                let c = out.idx2(j, i);
                out.zeta[c] = (depth - grid.h.get(j as isize, i as isize)) as f32;
                n += 1;
            }
        }
    }
    (out, n)
}

#[test]
fn deep_column_driven_below_its_bed_fails() {
    // One ~2 m column half a metre below its bed keeps its storage term.
    // Spread over ~400 wet columns it leaves the mean under the threshold;
    // judged with the pair's other drying columns (none), it fails.
    let (grid, verifier, a, b) = all_wet_pair();
    assert!(verifier.check_pair(&a, &b).passed);
    assert!(grid.h.get(12, 10) > 2.0);
    let (one, _) = drain(&grid, &b, 12..13, 10..11, -0.5);
    let r = verifier.check_pair(&a, &one);
    assert_eq!(r.dry_columns, 1);
    assert!(r.mean_residual <= ACCEPTED_THRESHOLD && !r.passed, "{r:?}");
}

#[test]
fn uniform_bias_below_every_bed_fails() {
    // ζ = -(h + 1) on every column: all are dry, and the pair fails on
    // their storage terms instead of passing on none.
    let (grid, verifier, a, b) = all_wet_pair();
    let (biased, n) = drain(&grid, &b, 0..b.ny, 0..b.nx, -1.0);
    let r = verifier.check_pair(&a, &biased);
    assert_eq!(r.dry_columns, n);
    assert!(r.mean_residual > ACCEPTED_THRESHOLD && !r.passed, "{r:?}");
}
