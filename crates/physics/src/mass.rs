//! Water-mass conservation residual (paper Eq. 4/5).
//!
//! For each horizontal cell Ω with contour Γ the conservation law reads
//!
//! ```text
//!   ∂/∂t ∫_Ω (h + ζ) dΩ  =  ∮_Γ (h + ζ) u · n dΓ
//! ```
//!
//! The residual is the absolute difference of the two sides, normalized by
//! cell area — units m/s, matching the paper's thresholds (3e-4 … 5.5e-4
//! m/s; "smaller than 5.0e-4 m/s is typically considered acceptable in
//! oceanography"). Inputs are *cell-centered* snapshots (the surrogate's
//! output format); face values average the adjacent centers.
//!
//! The Shchepetkin transform gives every layer a fixed share of its column,
//! `dz_k = (h + ζ)·ΔC_k` with `ΔC_k = C(s_{k+1}) − C(s_k)`, so a depth
//! average is `ū = Σ_k u_k ΔC_k`: one serial pass per snapshot, shared by
//! both transitions the snapshot belongs to.
//!
//! Drying: as in the solver, ζ is free and face depths are clamped to
//! [`cocean::MIN_DEPTH`]. Columns below it ([`Verdict::dry_columns`]) stay in
//! the mean and must also pass the threshold on their own mean.

use cgrid::Grid;
use cocean::{Snapshot, MIN_DEPTH};

use crate::verify::Verdict;

/// The grid's fixed part of the residual, computed once per grid.
pub(crate) struct MassBalance {
    /// Column weights `ΔC_k`, bottom layer first.
    weights: Vec<f64>,
    wet: Vec<bool>,
    h: Vec<f64>,
    dx: Vec<f64>,
    dy: Vec<f64>,
}

/// One snapshot with its depth-averaged velocities at cell centers.
pub(crate) struct ColumnMeans<'s> {
    snap: &'s Snapshot,
    u: Vec<f64>,
    v: Vec<f64>,
}

impl MassBalance {
    pub(crate) fn new(grid: &Grid) -> Self {
        let c = |k: usize| grid.sigma.c_of_s(grid.sigma.s_w(k));
        let mask = grid.mask_rho.interior_to_vec();
        Self {
            weights: (0..grid.sigma.nz).map(|k| c(k + 1) - c(k)).collect(),
            wet: mask.iter().map(|&m| m > 0.5).collect(),
            h: grid.h.interior_to_vec(),
            dx: grid.dx.clone(),
            dy: grid.dy.clone(),
        }
    }

    pub(crate) fn column_means<'s>(&self, snap: &'s Snapshot) -> ColumnMeans<'s> {
        let (n, nz) = (self.h.len(), self.weights.len());
        assert_eq!(
            (snap.ny, snap.nx, snap.nz),
            (self.dy.len(), self.dx.len(), nz)
        );
        assert!(snap.zeta.len() == n && snap.u.len() == n * nz && snap.v.len() == n * nz);
        let mean = |field: &[f32]| {
            let mut out = vec![0.0; n];
            for (&w, layer) in self.weights.iter().zip(field.chunks_exact(n)) {
                for (o, &x) in out.iter_mut().zip(layer) {
                    *o += x as f64 * w;
                }
            }
            out
        };
        let (u, v) = (mean(&snap.u), mean(&snap.v));
        ColumnMeans { snap, u, v }
    }

    /// Residual of one transition: the forward difference of ζ against the
    /// boundary flux of the two snapshots' time-mean ū, v̄.
    pub(crate) fn verdict(&self, a: &ColumnMeans, b: &ColumnMeans, threshold: f64) -> Verdict {
        let (before, after) = (a.snap, b.snap);
        assert!(after.time > before.time, "snapshots must be time-ordered");
        let (ny, nx) = (self.dy.len(), self.dx.len());
        let dt = after.time - before.time;
        let time_mean = |x: &[f64], y: &[f64]| -> Vec<f64> {
            x.iter().zip(y).map(|(p, q)| 0.5 * (p + q)).collect()
        };
        let (ubar, vbar) = (time_mean(&a.u, &b.u), time_mean(&a.v, &b.v));

        // Time-mean total depth of every wet column.
        let depth: Vec<Option<f64>> = (0..ny * nx)
            .map(|c| self.wet[c].then(|| self.h[c] + 0.5 * (before.zeta[c] + after.zeta[c]) as f64))
            .collect();

        let (mut sum, mut max, mut cells, mut dry_sum, mut dry_columns) = (0.0, 0.0f64, 0, 0.0, 0);
        for (c, d) in depth.iter().enumerate() {
            let Some(d) = *d else { continue };
            let (j, i) = (c / nx, c % nx);
            let dry = self.h[c] + (before.zeta[c].min(after.zeta[c]) as f64) < MIN_DEPTH;
            // Storage term per unit area: ∂ζ/∂t (h is constant in time).
            let storage = (after.zeta[c] - before.zeta[c]) as f64 / dt;
            // Flux per unit face length: the two centers' mean depth (at least
            // MIN_DEPTH, as in the solver) times their mean velocity; land and
            // missing neighbors pass none.
            let face = |n: Option<usize>, vel: &[f64]| match n.map(|n| (n, depth[n])) {
                Some((n, Some(dn))) => (0.5 * (d + dn)).max(MIN_DEPTH) * (0.5 * (vel[c] + vel[n])),
                _ => 0.0,
            };
            let flux_e = face((i + 1 < nx).then_some(c + 1), &ubar);
            let flux_n = face((j + 1 < ny).then_some(c + nx), &vbar);
            let flux_s = face((j > 0).then(|| c - nx), &vbar);
            // The open west boundary carries the cell's own value.
            let flux_w = face(Some(if i > 0 { c - 1 } else { c }), &ubar);
            // Per unit area: a u-face's length over the cell area is 1/dx.
            let inflow = -((flux_e - flux_w) / self.dx[i] + (flux_n - flux_s) / self.dy[j]);
            let r = (storage - inflow).abs();
            if dry {
                (dry_sum, dry_columns) = (dry_sum + r, dry_columns + 1);
            }
            sum += r;
            max = max.max(r);
            cells += 1;
        }
        let mean_residual = sum / cells.max(1) as f64;
        let dry_passed = dry_sum <= threshold * dry_columns as f64;
        Verdict {
            mean_residual,
            max_residual: max,
            passed: cells > 0 && mean_residual <= threshold && dry_passed,
            dry_columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::verify::{Verdict, Verifier, VerifierConfig, ACCEPTED_THRESHOLD};
    use cgrid::{EstuaryParams, Grid, GridParams};
    use cocean::{OceanConfig, Roms, Snapshot, TidalForcing};

    fn grid() -> Grid {
        Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 24,
                nx: 20,
                ..Default::default()
            },
            nz: 4,
            ..Default::default()
        })
    }

    fn simulated_pair(grid: &Grid) -> (Snapshot, Snapshot) {
        let mut cfg = OceanConfig::for_grid(grid);
        cfg.forcing = TidalForcing::single(0.3, 12.0);
        let mut m = Roms::new(grid, cfg);
        m.spinup(4.0 * 3600.0);
        let interval = m.cfg.dt_slow();
        let snaps = m.record(2, interval);
        (snaps[0].clone(), snaps[1].clone())
    }

    fn check(g: &Grid, a: &Snapshot, b: &Snapshot) -> Verdict {
        Verifier::new(g, VerifierConfig::default()).check_pair(a, b)
    }

    #[test]
    fn simulator_output_has_small_residual() {
        let g = grid();
        let (a, b) = simulated_pair(&g);
        let r = check(&g, &a, &b);
        assert_eq!(r.dry_columns, 0);
        assert!(
            r.mean_residual < 5.0e-4,
            "simulator must pass the oceanographic threshold: mean {}",
            r.mean_residual
        );
    }

    #[test]
    fn corrupted_output_fails() {
        let g = grid();
        let (a, b) = simulated_pair(&g);
        let r_clean = check(&g, &a, &b).mean_residual;
        // Corrupt ζ with a large blob — mass appears from nowhere.
        let mut bad = b.clone();
        for j in 8..14 {
            for i in 8..14 {
                if g.mask_rho.get(j as isize, i as isize) > 0.5 {
                    let idx = bad.idx2(j, i);
                    bad.zeta[idx] += 2.0;
                }
            }
        }
        let r_bad = check(&g, &a, &bad).mean_residual;
        assert!(
            r_clean <= ACCEPTED_THRESHOLD,
            "clean simulation must pass: {r_clean}"
        );
        assert!(
            r_bad > ACCEPTED_THRESHOLD,
            "corruption must fail the oceanographic threshold: {r_bad}"
        );
        assert!(
            r_bad > 3.0 * r_clean,
            "corruption must raise the residual: {r_bad} vs {r_clean}"
        );
    }

    #[test]
    fn still_water_zero_residual() {
        let g = grid();
        let mk = |t: f64| {
            let cfg = OceanConfig::for_grid(&g);
            let m = Roms::new(&g, cfg);
            let mut s = m.snapshot();
            s.time = t;
            s
        };
        let r = check(&g, &mk(0.0), &mk(1800.0));
        assert!(r.mean_residual < 1e-12);
        assert!(r.max_residual < 1e-12);
    }

    #[test]
    fn residual_scales_with_violation() {
        // The residual *increase* over the clean baseline scales linearly
        // with a uniform spurious mass injection.
        let g = grid();
        let (a, b) = simulated_pair(&g);
        let r_clean = check(&g, &a, &b).mean_residual;
        let bump = |amount: f32| {
            let mut s = b.clone();
            for v in s.zeta.iter_mut() {
                *v += amount;
            }
            check(&g, &a, &s).mean_residual
        };
        let d_small = bump(0.05) - r_clean;
        let d_large = bump(0.5) - r_clean;
        assert!(d_small > 0.0);
        assert!(
            d_large > 5.0 * d_small,
            "excess residual must scale: {d_small} vs {d_large}"
        );
    }

    #[test]
    fn land_cells_excluded() {
        // Whatever a snapshot holds on land leaves the verdict unchanged.
        let g = grid();
        let (a, b) = simulated_pair(&g);
        let clean = check(&g, &a, &b);
        let (mut a2, mut b2) = (a.clone(), b.clone());
        let mut land = 0;
        for j in 0..a.ny {
            for i in 0..a.nx {
                if g.mask_rho.get(j as isize, i as isize) > 0.5 {
                    continue;
                }
                land += 1;
                for s in [&mut a2, &mut b2] {
                    let c = s.idx2(j, i);
                    s.zeta[c] = 3.0;
                    for k in 0..s.nz {
                        let c3 = s.idx3(k, j, i);
                        s.u[c3] = 5.0;
                        s.v[c3] = -5.0;
                    }
                }
            }
        }
        assert!(land > 0);
        assert_eq!(check(&g, &a2, &b2), clean);
    }
}
