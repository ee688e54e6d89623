//! Baroclinic (3-D) slow mode: vertical shear under implicit vertical
//! viscosity with quadratic bottom drag, barotropic-mode coupling, and
//! diagnosis of the vertical velocity from continuity.
//!
//! The surrogate's target regime is homogeneous-density tidal propagation,
//! so there is no baroclinic pressure gradient; the 3-D fields carry the
//! vertical structure (bottom boundary layer shear) the paper's `u, v, w`
//! variables exhibit, and the depth mean is constrained to the barotropic
//! solution after every solve (ROMS-style mode coupling).

use crate::barotropic::{PhysParams, MIN_DEPTH};
use crate::domain::TileDomain;
use crate::state::State;

/// Solve the tridiagonal system `a[k]·x[k-1] + b[k]·x[k] + c[k]·x[k+1] =
/// d[k]` (Thomas algorithm). `a[0]` and `c[n-1]` are ignored.
pub fn solve_tridiag(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64]) {
    let n = d.len();
    debug_assert!(a.len() == n && b.len() == n && c.len() == n);
    let mut cp = vec![0.0; n];
    let mut denom = b[0];
    assert!(denom.abs() > 1e-300, "singular tridiagonal system");
    cp[0] = c[0] / denom;
    d[0] /= denom;
    for k in 1..n {
        denom = b[k] - a[k] * cp[k - 1];
        assert!(denom.abs() > 1e-300, "singular tridiagonal system");
        cp[k] = c[k] / denom;
        d[k] = (d[k] - a[k] * d[k - 1]) / denom;
    }
    for k in (0..n - 1).rev() {
        d[k] -= cp[k] * d[k + 1];
    }
}

/// Implicit vertical viscosity solve for one velocity column.
///
/// `(I - dt ∂z Kv ∂z) u_new = u_old`, with linearized quadratic drag at the
/// bottom (`Kv ∂z u = Cd |u_b| u_b`) and zero stress at the surface.
/// `dz[k]` are layer thicknesses bottom-up. Returns the new profile in
/// place.
pub fn vertical_solve(u: &mut [f64], dz: &[f64], kv: f64, cd: f64, dt: f64) {
    let n = u.len();
    debug_assert_eq!(dz.len(), n);
    if n == 1 {
        // Single layer: only bottom drag (already applied in barotropic).
        return;
    }
    let mut a = vec![0.0; n];
    let mut b = vec![0.0; n];
    let mut c = vec![0.0; n];
    for k in 0..n {
        // Interface diffusivities divided by interface spacing.
        let flux_dn = if k > 0 {
            kv / (0.5 * (dz[k - 1] + dz[k]))
        } else {
            0.0
        };
        let flux_up = if k + 1 < n {
            kv / (0.5 * (dz[k] + dz[k + 1]))
        } else {
            0.0
        };
        a[k] = -dt * flux_dn / dz[k];
        c[k] = -dt * flux_up / dz[k];
        b[k] = 1.0 - a[k] - c[k];
    }
    // Linearized bottom drag sink on the bottom layer.
    b[0] += dt * cd * u[0].abs() / dz[0];
    solve_tridiag(&a, &b, &c, u);
}

/// One baroclinic step over the tile: vertical solves for every wet face
/// column, then barotropic-mode correction. `dt_slow` is the slow step.
pub fn step_baroclinic(dom: &TileDomain, state: &mut State, phys: &PhysParams, dt_slow: f64) {
    let (ny, nx, nz) = (dom.ny as isize, dom.nx as isize, dom.nz);
    let sigma = &dom.sigma;
    let mut col = vec![0.0f64; nz];
    let mut dz = vec![0.0f64; nz];

    // ------------------------------------------------------------ u columns
    for j in 0..ny {
        for i in 0..=nx {
            if dom.mask_u.get(j, i) < 0.5 {
                for k in 0..nz {
                    state.u.set(k, j, i, 0.0);
                }
                continue;
            }
            let zeta_f = 0.5 * (state.zeta.get(j, i - 1) + state.zeta.get(j, i));
            let h_f = dom.h_u(j, i);
            let depth = (h_f + zeta_f).max(MIN_DEPTH);
            for k in 0..nz {
                col[k] = state.u.get(k, j, i);
                dz[k] = sigma.dz(k, h_f, zeta_f).max(MIN_DEPTH / nz as f64);
            }
            vertical_solve(&mut col, &dz, phys.kv, phys.drag_cd, dt_slow);
            // Mode coupling: replace the depth mean with ubar.
            let mean: f64 = col.iter().zip(&dz).map(|(u, d)| u * d).sum::<f64>() / depth;
            let shift = state.ubar.get(j, i) - mean;
            for (k, &cu) in col.iter().enumerate().take(nz) {
                state.u.set(k, j, i, cu + shift);
            }
        }
    }

    // ------------------------------------------------------------ v columns
    for j in 0..=ny {
        for i in 0..nx {
            if dom.mask_v.get(j, i) < 0.5 {
                for k in 0..nz {
                    state.v.set(k, j, i, 0.0);
                }
                continue;
            }
            let zeta_f = 0.5 * (state.zeta.get(j - 1, i) + state.zeta.get(j, i));
            let h_f = dom.h_v(j, i);
            let depth = (h_f + zeta_f).max(MIN_DEPTH);
            for k in 0..nz {
                col[k] = state.v.get(k, j, i);
                dz[k] = sigma.dz(k, h_f, zeta_f).max(MIN_DEPTH / nz as f64);
            }
            vertical_solve(&mut col, &dz, phys.kv, phys.drag_cd, dt_slow);
            let mean: f64 = col.iter().zip(&dz).map(|(v, d)| v * d).sum::<f64>() / depth;
            let shift = state.vbar.get(j, i) - mean;
            for (k, &cv) in col.iter().enumerate().take(nz) {
                state.v.set(k, j, i, cv + shift);
            }
        }
    }

    diagnose_w(dom, state);
}

/// Integrate continuity upward to diagnose w at layer interfaces:
/// `w[k+1] = w[k] - dz_k · div_h(u_k, v_k)`, `w[0] = 0` at the bottom.
pub fn diagnose_w(dom: &TileDomain, state: &mut State) {
    let (ny, nx, nz) = (dom.ny as isize, dom.nx as isize, dom.nz);
    let sigma = &dom.sigma;
    for j in 0..ny {
        for i in 0..nx {
            if dom.mask_rho.get(j, i) < 0.5 {
                for k in 0..=nz {
                    state.w.set(k, j, i, 0.0);
                }
                continue;
            }
            let area = dom.dx_at(i) * dom.dy_at(j);
            let mut w = 0.0;
            state.w.set(0, j, i, 0.0);
            for k in 0..nz {
                // Layer thicknesses at the four faces.
                let zw = state.zeta.get(j, i);
                let dz_w = sigma.dz(k, dom.h_u(j, i), 0.5 * (state.zeta.get(j, i - 1) + zw));
                let dz_e = sigma.dz(k, dom.h_u(j, i + 1), 0.5 * (zw + state.zeta.get(j, i + 1)));
                let dz_s = sigma.dz(k, dom.h_v(j, i), 0.5 * (state.zeta.get(j - 1, i) + zw));
                let dz_n = sigma.dz(k, dom.h_v(j + 1, i), 0.5 * (zw + state.zeta.get(j + 1, i)));
                let flux = state.u.get(k, j, i + 1) * dz_e * dom.dy_at(j)
                    - state.u.get(k, j, i) * dz_w * dom.dy_at(j)
                    + state.v.get(k, j + 1, i) * dz_n * dom.dx_at(i)
                    - state.v.get(k, j, i) * dz_s * dom.dx_at(i);
                w -= flux / area;
                state.w.set(k + 1, j, i, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barotropic::{apply_boundary_halos, step_fast};
    use crate::forcing::TidalForcing;
    use cgrid::{EstuaryParams, Grid, GridParams};

    #[test]
    fn tridiag_solves_known_system() {
        // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3]
        let a = vec![0.0, 1.0, 1.0];
        let b = vec![2.0, 2.0, 2.0];
        let c = vec![1.0, 1.0, 0.0];
        let mut d = vec![4.0, 8.0, 8.0];
        solve_tridiag(&a, &b, &c, &mut d);
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 2.0).abs() < 1e-12);
        assert!((d[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tridiag_identity() {
        let n = 8;
        let a = vec![0.0; n];
        let b = vec![1.0; n];
        let c = vec![0.0; n];
        let mut d: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let expect = d.clone();
        solve_tridiag(&a, &b, &c, &mut d);
        for (x, e) in d.iter().zip(&expect) {
            assert!((x - e).abs() < 1e-12);
        }
    }

    #[test]
    fn vertical_solve_conserves_momentum_without_drag() {
        // Pure diffusion with no drag conserves Σ u·dz.
        let mut u = vec![0.1, 0.3, 0.6, 0.2];
        let dz = vec![1.0, 1.0, 1.0, 1.0];
        let before: f64 = u.iter().zip(&dz).map(|(a, b)| a * b).sum();
        vertical_solve(&mut u, &dz, 0.05, 0.0, 300.0);
        let after: f64 = u.iter().zip(&dz).map(|(a, b)| a * b).sum();
        assert!((before - after).abs() < 1e-10, "{before} vs {after}");
    }

    #[test]
    fn vertical_solve_smooths_profile() {
        let mut u = vec![0.0, 1.0, 0.0, 1.0];
        vertical_solve(&mut u, &[1.0; 4], 0.1, 0.0, 500.0);
        // Large diffusion number flattens the zig-zag.
        let spread = u.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - u.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 0.5, "profile should smooth, spread={spread}");
    }

    #[test]
    fn bottom_drag_slows_bottom_layer() {
        let mut u = vec![0.5; 5];
        vertical_solve(&mut u, &[1.0; 5], 0.01, 5e-3, 600.0);
        assert!(u[0] < u[4], "bottom must lag under drag: {u:?}");
        assert!(u[4] <= 0.5 + 1e-12);
    }

    fn tidal_spinup() -> (TileDomain, State, PhysParams) {
        let g = Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 24,
                nx: 20,
                ..Default::default()
            },
            nz: 6,
            ..Default::default()
        });
        let dom = TileDomain::whole(&g);
        let mut s = State::rest(&dom);
        let phys = PhysParams {
            dt_fast: 5.0,
            ..Default::default()
        };
        let forcing = TidalForcing::single(0.3, 12.0);
        // One hour with slow steps every 30 fast steps.
        for step in 0..720 {
            apply_boundary_halos(&dom, &mut s, &forcing);
            step_fast(&dom, &mut s, &phys, &forcing);
            if step % 30 == 29 {
                step_baroclinic(&dom, &mut s, &phys, 30.0 * phys.dt_fast);
            }
        }
        (dom, s, phys)
    }

    #[test]
    fn depth_mean_matches_ubar_after_coupling() {
        let (dom, s, _) = tidal_spinup();
        let sigma = &dom.sigma;
        let mut checked = 0;
        for j in 0..dom.ny as isize {
            for i in 0..=(dom.nx as isize) {
                if dom.mask_u.get(j, i) < 0.5 {
                    continue;
                }
                let zeta_f = 0.5 * (s.zeta.get(j, i - 1) + s.zeta.get(j, i));
                let h_f = dom.h_u(j, i);
                let depth = (h_f + zeta_f).max(MIN_DEPTH);
                let mean: f64 = (0..dom.nz)
                    .map(|k| s.u.get(k, j, i) * sigma.dz(k, h_f, zeta_f))
                    .sum::<f64>()
                    / depth;
                assert!(
                    (mean - s.ubar.get(j, i)).abs() < 1e-10,
                    "({j},{i}): mean {mean} vs ubar {}",
                    s.ubar.get(j, i)
                );
                checked += 1;
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn shear_develops_with_bottom_drag() {
        // Bottom speed, *time-averaged over a tidal stretch*, must lag the
        // surface speed in a deep channel (instantaneous profiles can
        // invert during flow reversal — tidal boundary layers lead in
        // phase — so only the average is a robust check).
        let (dom, mut s, phys) = tidal_spinup();
        let forcing = TidalForcing::single(0.3, 12.0);
        // Deepest u face with meaningful flow.
        let mut face = None;
        for j in 0..dom.ny as isize {
            for i in 1..dom.nx as isize {
                if dom.mask_u.get(j, i) > 0.5 && dom.h_u(j, i) > 5.0 {
                    face = Some((j, i));
                }
            }
        }
        let (j, i) = face.expect("no deep face found");
        let mut bottom_avg = 0.0;
        let mut surface_avg = 0.0;
        let mut n = 0usize;
        for step in 0..2400 {
            apply_boundary_halos(&dom, &mut s, &forcing);
            step_fast(&dom, &mut s, &phys, &forcing);
            if step % 30 == 29 {
                step_baroclinic(&dom, &mut s, &phys, 30.0 * phys.dt_fast);
                bottom_avg += s.u.get(0, j, i).abs();
                surface_avg += s.u.get(dom.nz - 1, j, i).abs();
                n += 1;
            }
        }
        bottom_avg /= n as f64;
        surface_avg /= n as f64;
        assert!(surface_avg > 0.005, "need flow at ({j},{i}): {surface_avg}");
        assert!(
            bottom_avg < surface_avg,
            "bottom ⟨|u|⟩={bottom_avg} must lag surface ⟨|u|⟩={surface_avg}"
        );
    }

    #[test]
    fn surface_w_equals_barotropic_divergence() {
        // Exact discrete identity: after mode coupling, the column-summed
        // 3-D flux divergence equals the barotropic one, so w at the
        // surface must equal -div((h+ζ)ū)/area to near machine precision
        // (on cells whose faces are deep enough to avoid the min-depth
        // clamps in the coupling).
        let (dom, mut s, phys) = tidal_spinup();
        step_baroclinic(&dom, &mut s, &phys, 30.0 * phys.dt_fast);
        let mut checked = 0;
        for j in 1..dom.ny as isize - 1 {
            for i in 1..dom.nx as isize - 1 {
                if dom.mask_rho.get(j, i) < 0.5 {
                    continue;
                }
                // All four faces comfortably deep (no clamping anywhere).
                let deep = dom.h_u(j, i) > 1.0
                    && dom.h_u(j, i + 1) > 1.0
                    && dom.h_v(j, i) > 1.0
                    && dom.h_v(j + 1, i) > 1.0;
                if !deep {
                    continue;
                }
                let d = |jj: isize, ii: isize| dom.h.get(jj, ii) + s.zeta.get(jj, ii);
                let hu_w = 0.5 * (d(j, i - 1) + d(j, i));
                let hu_e = 0.5 * (d(j, i) + d(j, i + 1));
                let hv_s = 0.5 * (d(j - 1, i) + d(j, i));
                let hv_n = 0.5 * (d(j, i) + d(j + 1, i));
                let area = dom.dx_at(i) * dom.dy_at(j);
                let div = (hu_e * s.ubar.get(j, i + 1) * dom.dy_at(j)
                    - hu_w * s.ubar.get(j, i) * dom.dy_at(j)
                    + hv_n * s.vbar.get(j + 1, i) * dom.dx_at(i)
                    - hv_s * s.vbar.get(j, i) * dom.dx_at(i))
                    / area;
                let w_top = s.w.get(dom.nz, j, i);
                assert!(
                    (w_top + div).abs() < 1e-12 + 1e-9 * div.abs(),
                    "w_top {w_top} vs -div {div} at ({j},{i})"
                );
                checked += 1;
            }
        }
        assert!(checked > 30, "need enough deep cells, got {checked}");
    }
}
