//! Barotropic (depth-averaged) fast mode: forward-backward shallow-water
//! step with Flather/Chapman open boundaries, quadratic bottom drag,
//! Coriolis and horizontal eddy viscosity.
//!
//! One implementation serves every tiling of the model, a single tile
//! covering the domain included; shared faces between tiles are computed
//! redundantly from exchanged halos, which keeps all tilings bit-identical
//! without extra communication.

use crate::domain::TileDomain;
use crate::forcing::TidalForcing;
use crate::state::State;

/// Gravitational acceleration (m/s²).
pub const G: f64 = 9.81;

/// Minimum total depth (m) guarding division in drying cells; the
/// verifier treats a column shallower than this as dry.
pub const MIN_DEPTH: f64 = 0.1;

/// Physical/numerical parameters of the solver.
#[derive(Clone, Copy, Debug)]
pub struct PhysParams {
    /// Barotropic time step (s).
    pub dt_fast: f64,
    /// Quadratic bottom drag coefficient.
    pub drag_cd: f64,
    /// Horizontal eddy viscosity (m²/s).
    pub visc: f64,
    /// Vertical eddy viscosity (m²/s) for the baroclinic mode.
    pub kv: f64,
}

impl Default for PhysParams {
    fn default() -> Self {
        Self {
            dt_fast: 10.0,
            drag_cd: 2.5e-3,
            visc: 2.0,
            kv: 0.02,
        }
    }
}

/// Fill physical-boundary halos: Chapman-style clamped ζ on the open west
/// boundary, zero-gradient elsewhere. The driver calls this *after* the
/// neighbor exchange so only true domain edges are touched.
pub fn apply_boundary_halos(dom: &TileDomain, state: &mut State, forcing: &TidalForcing) {
    let (ny, nx) = (dom.ny as isize, dom.nx as isize);
    let t = state.time;
    if dom.at_west {
        // y-coordinate of each row accumulated from dy (global, so every
        // tile along the boundary agrees).
        for j in 0..ny {
            let y = row_y(dom, j);
            let z_ext = forcing.elevation(y, t);
            state.zeta.set(j, -1, z_ext);
            state.ubar.set(j, -1, state.ubar.get(j, 0));
        }
        // vbar has ny+1 face rows — the top shared/boundary face included
        // (a tiled run reads its west halo through the Laplacian stencil).
        for j in 0..=ny {
            state.vbar.set(j, -1, state.vbar.get(j, 0));
        }
    }
    if dom.at_east {
        for j in 0..ny {
            state.zeta.set(j, nx, state.zeta.get(j, nx - 1));
            state.ubar.set(j, nx + 1, state.ubar.get(j, nx));
        }
        for j in 0..=ny {
            state.vbar.set(j, nx, state.vbar.get(j, nx - 1));
        }
    }
    if dom.at_south {
        for i in -1..=nx {
            state.zeta.set(-1, i, state.zeta.get(0, i));
            if i <= nx {
                state.ubar.set(-1, i, state.ubar.get(0, i));
            }
            state
                .vbar
                .set(-1, i.min(nx - 1), state.vbar.get(0, i.min(nx - 1)));
        }
        state.ubar.set(-1, nx + 1, state.ubar.get(0, nx + 1));
    }
    if dom.at_north {
        for i in -1..=nx {
            state.zeta.set(ny, i, state.zeta.get(ny - 1, i));
            if i <= nx {
                state.ubar.set(ny, i, state.ubar.get(ny - 1, i));
            }
            state
                .vbar
                .set(ny + 1, i.min(nx - 1), state.vbar.get(ny, i.min(nx - 1)));
        }
        state.ubar.set(ny, nx + 1, state.ubar.get(ny - 1, nx + 1));
    }
}

/// Global y (m) of the center of local row `j`, from the tile's dy profile.
/// Rows below the tile are approximated with the tile's mean spacing —
/// only the *relative* lag along a tile matters at our lag magnitudes, and
/// tiles agree on overlaps because the global row index anchors the sum.
#[inline]
pub fn row_y(dom: &TileDomain, j: isize) -> f64 {
    let grow = dom.global_row(j) as f64;
    grow * dom.dy_at(j)
}

/// One forward-backward barotropic step: momentum (with old ζ), then
/// continuity (with new velocities). Reads/writes `state` in place,
/// advancing `state.time` by `dt_fast`.
pub fn step_fast(dom: &TileDomain, state: &mut State, phys: &PhysParams, forcing: &TidalForcing) {
    let (ny, nx) = (dom.ny as isize, dom.nx as isize);
    let dt = phys.dt_fast;
    let f_cor = dom.coriolis;
    let t = state.time;

    // ---------------------------------------------------------- u momentum
    for j in 0..ny {
        for i in 0..=nx {
            let masked = dom.mask_u.get(j, i) < 0.5;
            let new_u = if masked {
                0.0
            } else if i == 0 && dom.at_west {
                // Flather radiation with an incoming progressive wave.
                let y = row_y(dom, j);
                let z_ext = forcing.elevation(y, t);
                let h_face = dom.h_u(j, i).max(MIN_DEPTH);
                let c = (G / h_face).sqrt();
                let z_here = state.zeta.get(j, 0);
                z_ext * c - c * (z_here - z_ext)
            } else if (i == nx && dom.at_east) || dom.mask_u.get(j, i) < 0.5 {
                0.0 // closed wall
            } else {
                let zw = state.zeta.get(j, i - 1);
                let ze = state.zeta.get(j, i);
                let pgrad = -G * (ze - zw) / dom.dx_u(i);

                let v_avg = 0.25
                    * (state.vbar.get(j, i - 1)
                        + state.vbar.get(j, i)
                        + state.vbar.get(j + 1, i - 1)
                        + state.vbar.get(j + 1, i));
                let cor = f_cor * v_avg;

                let uc = state.ubar.get(j, i);
                // Free-slip Laplacian: land neighbors mirror the center.
                let pick_u = |jj: isize, ii: isize| {
                    if dom.mask_u.get(jj, ii) > 0.5 {
                        state.ubar.get(jj, ii)
                    } else {
                        uc
                    }
                };
                let dx2 = dom.dx_u(i) * dom.dx_u(i);
                let dy2 = dom.dy_at(j) * dom.dy_at(j);
                let visc = phys.visc
                    * ((pick_u(j, i - 1) - 2.0 * uc + pick_u(j, i + 1)) / dx2
                        + (pick_u(j - 1, i) - 2.0 * uc + pick_u(j + 1, i)) / dy2);

                let depth = (dom.h_u(j, i) + 0.5 * (zw + ze)).max(MIN_DEPTH);
                let explicit = uc + dt * (pgrad + cor + visc);
                // Semi-implicit quadratic drag for stability in shallows.
                explicit / (1.0 + dt * phys.drag_cd * uc.abs() / depth)
            };
            state.ubar_next.set(j, i, new_u);
        }
    }

    // ---------------------------------------------------------- v momentum
    for j in 0..=ny {
        for i in 0..nx {
            let masked = dom.mask_v.get(j, i) < 0.5;
            let new_v = if masked || (j == 0 && dom.at_south) || (j == ny && dom.at_north) {
                0.0
            } else {
                let zs = state.zeta.get(j - 1, i);
                let zn = state.zeta.get(j, i);
                let pgrad = -G * (zn - zs) / dom.dy_v(j);

                let u_avg = 0.25
                    * (state.ubar.get(j - 1, i)
                        + state.ubar.get(j - 1, i + 1)
                        + state.ubar.get(j, i)
                        + state.ubar.get(j, i + 1));
                let cor = -f_cor * u_avg;

                let vc = state.vbar.get(j, i);
                let pick_v = |jj: isize, ii: isize| {
                    if dom.mask_v.get(jj, ii) > 0.5 {
                        state.vbar.get(jj, ii)
                    } else {
                        vc
                    }
                };
                let dx2 = dom.dx_at(i) * dom.dx_at(i);
                let dy2 = dom.dy_v(j) * dom.dy_v(j);
                let visc = phys.visc
                    * ((pick_v(j, i - 1) - 2.0 * vc + pick_v(j, i + 1)) / dx2
                        + (pick_v(j - 1, i) - 2.0 * vc + pick_v(j + 1, i)) / dy2);

                let depth = (dom.h_v(j, i) + 0.5 * (zs + zn)).max(MIN_DEPTH);
                let explicit = vc + dt * (pgrad + cor + visc);
                explicit / (1.0 + dt * phys.drag_cd * vc.abs() / depth)
            };
            state.vbar_next.set(j, i, new_v);
        }
    }

    // --------------------------------------------------------- continuity
    // Face depths use the OLD ζ (shared through halos), new velocities —
    // the "backward" half of forward-backward.
    for j in 0..ny {
        for i in 0..nx {
            if dom.mask_rho.get(j, i) < 0.5 {
                state.zeta_next.set(j, i, 0.0);
                continue;
            }
            let d = |jj: isize, ii: isize| dom.h.get(jj, ii) + state.zeta.get(jj, ii);

            // Wetting/drying guard: face depths never go below MIN_DEPTH
            // (ROMS uses dedicated wet/dry masking; the clamp is the
            // simplest stable equivalent and only bites in near-dry
            // cells on the shallow eastern flats).
            let hu_w = (0.5 * (d(j, i - 1) + d(j, i))).max(MIN_DEPTH);
            let hu_e = (0.5 * (d(j, i) + d(j, i + 1))).max(MIN_DEPTH);
            let hv_s = (0.5 * (d(j - 1, i) + d(j, i))).max(MIN_DEPTH);
            let hv_n = (0.5 * (d(j, i) + d(j + 1, i))).max(MIN_DEPTH);

            let flux_w = hu_w * state.ubar_next.get(j, i) * dom.dy_at(j);
            let flux_e = hu_e * state.ubar_next.get(j, i + 1) * dom.dy_at(j);
            let flux_s = hv_s * state.vbar_next.get(j, i) * dom.dx_at(i);
            let flux_n = hv_n * state.vbar_next.get(j + 1, i) * dom.dx_at(i);

            let area = dom.dx_at(i) * dom.dy_at(j);
            let dzdt = -(flux_e - flux_w + flux_n - flux_s) / area;
            state.zeta_next.set(j, i, state.zeta.get(j, i) + dt * dzdt);
        }
    }

    std::mem::swap(&mut state.zeta, &mut state.zeta_next);
    std::mem::swap(&mut state.ubar, &mut state.ubar_next);
    std::mem::swap(&mut state.vbar, &mut state.vbar_next);
    state.time += dt;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgrid::{EstuaryParams, Grid, GridParams};

    fn estuary_dom(ny: usize, nx: usize) -> TileDomain {
        let g = Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny,
                nx,
                ..Default::default()
            },
            nz: 4,
            ..Default::default()
        });
        TileDomain::whole(&g)
    }

    fn run_steps(
        dom: &TileDomain,
        state: &mut State,
        phys: &PhysParams,
        forcing: &TidalForcing,
        n: usize,
    ) {
        for _ in 0..n {
            apply_boundary_halos(dom, state, forcing);
            step_fast(dom, state, phys, forcing);
        }
    }

    #[test]
    fn rest_stays_at_rest_without_forcing() {
        let dom = estuary_dom(32, 24);
        let mut s = State::rest(&dom);
        let phys = PhysParams::default();
        run_steps(&dom, &mut s, &phys, &TidalForcing::none(), 50);
        assert_eq!(s.max_zeta(), 0.0, "no forcing must leave rest untouched");
        assert_eq!(s.max_speed(), 0.0);
    }

    #[test]
    fn tide_enters_and_stays_stable() {
        let dom = estuary_dom(32, 24);
        let mut s = State::rest(&dom);
        let phys = PhysParams {
            dt_fast: 5.0,
            ..Default::default()
        };
        let forcing = TidalForcing::single(0.3, 12.0);
        // Two hours of tide.
        let steps = (2.0 * 3600.0 / phys.dt_fast) as usize;
        run_steps(&dom, &mut s, &phys, &forcing, steps);
        assert!(s.is_finite(), "solver must stay finite");
        let zmax = s.max_zeta();
        assert!(zmax > 0.01, "tide should have entered: max ζ = {zmax}");
        assert!(zmax < 1.0, "ζ must stay bounded by forcing scale: {zmax}");
        assert!(s.max_speed() < 3.0, "currents must stay physical");
    }

    #[test]
    fn land_cells_stay_dry() {
        let dom = estuary_dom(32, 24);
        let mut s = State::rest(&dom);
        let phys = PhysParams {
            dt_fast: 5.0,
            ..Default::default()
        };
        let forcing = TidalForcing::single(0.3, 12.0);
        run_steps(&dom, &mut s, &phys, &forcing, 500);
        for j in 0..dom.ny as isize {
            for i in 0..dom.nx as isize {
                if dom.mask_rho.get(j, i) < 0.5 {
                    assert_eq!(s.zeta.get(j, i), 0.0, "land ζ at ({j},{i})");
                }
            }
        }
        for j in 0..dom.ny as isize {
            for i in 0..=(dom.nx as isize) {
                if dom.mask_u.get(j, i) < 0.5 {
                    assert_eq!(s.ubar.get(j, i), 0.0, "land u at ({j},{i})");
                }
            }
        }
    }

    #[test]
    fn interior_mass_is_conserved_between_boundary_fluxes() {
        // With closed walls everywhere (forcing none, Flather sees z_ext=0
        // but we start at rest → no flux), volume is exactly constant.
        let dom = estuary_dom(24, 20);
        let mut s = State::rest(&dom);
        let phys = PhysParams::default();
        let v0 = s.volume(&dom);
        run_steps(&dom, &mut s, &phys, &TidalForcing::none(), 100);
        let v1 = s.volume(&dom);
        assert!(((v1 - v0) / v0).abs() < 1e-12);
    }

    #[test]
    fn seiche_oscillates_and_decays() {
        // Initialize a tilted surface in the estuary; it must slosh and
        // (with drag) decay, never grow.
        let dom = estuary_dom(32, 24);
        let mut s = State::rest(&dom);
        for j in 0..dom.ny as isize {
            for i in 0..dom.nx as isize {
                if dom.mask_rho.get(j, i) > 0.5 {
                    let x = i as f64 / dom.nx as f64;
                    s.zeta.set(j, i, 0.05 * (x - 0.5));
                }
            }
        }
        let phys = PhysParams {
            dt_fast: 5.0,
            ..Default::default()
        };
        let z0 = s.max_zeta();
        run_steps(&dom, &mut s, &phys, &TidalForcing::none(), 2000);
        assert!(s.is_finite());
        assert!(
            s.max_zeta() < 2.0 * z0,
            "free oscillation must not grow: {} vs {z0}",
            s.max_zeta()
        );
    }

    #[test]
    fn gravity_wave_speed_matches_theory() {
        // Flat closed channel: a hump splits into two waves traveling at
        // c = sqrt(g h). Build a custom flat domain via a deep estuary
        // config and measure arrival time at a probe.
        let g = Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 16,
                nx: 64,
                ocean_depth: 10.0,
                estuary_depth: 10.0,
                channel_depth: 10.0,
                barrier_pos: 0.9, // push the barrier out of the way
                n_inlets: 5,
                inlet_halfwidth: 8,
                ..Default::default()
            },
            base_spacing: 500.0,
            refine_factor: 1.0, // uniform spacing
            nz: 2,
            ..Default::default()
        });
        let dom = TileDomain::whole(&g);
        let mut s = State::rest(&dom);
        // Gaussian hump centered at i=16.
        for j in 0..dom.ny as isize {
            for i in 0..dom.nx as isize {
                if dom.mask_rho.get(j, i) > 0.5 {
                    let d = (i as f64 - 16.0) / 3.0;
                    s.zeta.set(j, i, 0.01 * (-d * d).exp());
                }
            }
        }
        let phys = PhysParams {
            dt_fast: 2.0,
            drag_cd: 0.0,
            visc: 0.0,
            ..Default::default()
        };
        let probe_i = 40isize;
        let probe_j = (dom.ny / 2) as isize;
        let c = (G * 10.0f64).sqrt(); // ≈ 9.9 m/s
        let distance = (probe_i - 16) as f64 * 500.0;
        let expect_t = distance / c; // ≈ 1212 s
        let mut arrival = None;
        let mut t = 0.0;
        for _ in 0..2000 {
            apply_boundary_halos(&dom, &mut s, &TidalForcing::none());
            step_fast(&dom, &mut s, &phys, &TidalForcing::none());
            t += phys.dt_fast;
            if arrival.is_none() && s.zeta.get(probe_j, probe_i) > 0.002 {
                arrival = Some(t);
                break;
            }
        }
        let arrival = arrival.expect("wave never arrived");
        assert!(
            (arrival - expect_t).abs() < 0.35 * expect_t,
            "arrival {arrival} vs theory {expect_t}"
        );
    }
}
