//! Prognostic model state on one tile.

use cgrid::{Field2, Field3};

use crate::domain::TileDomain;

/// Free surface, barotropic and baroclinic velocities, and diagnosed
/// vertical velocity for one tile (staggered, halo-padded).
#[derive(Clone, Debug)]
pub struct State {
    /// Free surface elevation at rho points (m).
    pub zeta: Field2,
    /// Depth-averaged u at u faces, `(ny, nx+1)`.
    pub ubar: Field2,
    /// Depth-averaged v at v faces, `(ny+1, nx)`.
    pub vbar: Field2,
    /// Layer u at u faces, `(nz, ny, nx+1)`, bottom-up.
    pub u: Field3,
    /// Layer v at v faces, `(nz, ny+1, nx)`.
    pub v: Field3,
    /// Vertical velocity at layer interfaces, `(nz+1, ny, nx)`;
    /// `w[0]` = bottom (0 by kinematics), `w[nz]` = surface.
    pub w: Field3,
    /// Model time (s).
    pub time: f64,
    // Double buffers reused every fast step (never allocated in the loop).
    pub(crate) zeta_next: Field2,
    pub(crate) ubar_next: Field2,
    pub(crate) vbar_next: Field2,
}

impl State {
    /// At-rest state (ζ = 0, velocities 0).
    pub fn rest(dom: &TileDomain) -> Self {
        let (ny, nx, nz) = (dom.ny, dom.nx, dom.nz);
        Self {
            zeta: Field2::new(ny, nx),
            ubar: Field2::new(ny, nx + 1),
            vbar: Field2::new(ny + 1, nx),
            u: Field3::new(nz, ny, nx + 1),
            v: Field3::new(nz, ny + 1, nx),
            w: Field3::new(nz + 1, ny, nx),
            time: 0.0,
            zeta_next: Field2::new(ny, nx),
            ubar_next: Field2::new(ny, nx + 1),
            vbar_next: Field2::new(ny + 1, nx),
        }
    }

    /// The window of this whole-domain state that tile `dom` covers, halo
    /// ring included.
    pub(crate) fn crop(&self, dom: &TileDomain) -> State {
        let (j0, i0) = (dom.tile.j0 as isize, dom.tile.i0 as isize);
        let window = |dst: &mut Field2, src: &Field2| {
            for j in -1..=dst.ny() as isize {
                for i in -1..=dst.nx() as isize {
                    dst.set(j, i, src.get(j0 + j, i0 + i));
                }
            }
        };
        let mut s = State::rest(dom);
        s.time = self.time;
        window(&mut s.zeta, &self.zeta);
        window(&mut s.ubar, &self.ubar);
        window(&mut s.vbar, &self.vbar);
        for (dst, src) in [
            (&mut s.u, &self.u),
            (&mut s.v, &self.v),
            (&mut s.w, &self.w),
        ] {
            for k in 0..src.nz() {
                window(dst.layer_mut(k), src.layer(k));
            }
        }
        s
    }

    /// Total water volume over the tile interior (m³): Σ (h+ζ)·area.
    pub fn volume(&self, dom: &TileDomain) -> f64 {
        let mut vol = 0.0;
        for j in 0..dom.ny as isize {
            for i in 0..dom.nx as isize {
                if dom.mask_rho.get(j, i) > 0.5 {
                    vol += (dom.h.get(j, i) + self.zeta.get(j, i)) * dom.dx_at(i) * dom.dy_at(j);
                }
            }
        }
        vol
    }

    /// Maximum |ζ| on the interior (diagnostic / blow-up detection).
    pub fn max_zeta(&self) -> f64 {
        self.zeta.max_abs()
    }

    /// Maximum |ubar|, |vbar|.
    pub fn max_speed(&self) -> f64 {
        self.ubar.max_abs().max(self.vbar.max_abs())
    }

    /// True when every prognostic value is finite (blow-up check).
    pub fn is_finite(&self) -> bool {
        let ok2 = |f: &Field2| f.raw().iter().all(|v| v.is_finite());
        let ok3 = |f: &Field3| (0..f.nz()).all(|k| f.layer(k).raw().iter().all(|v| v.is_finite()));
        ok2(&self.zeta)
            && ok2(&self.ubar)
            && ok2(&self.vbar)
            && ok3(&self.u)
            && ok3(&self.v)
            && ok3(&self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgrid::{EstuaryParams, Grid, GridParams};

    fn dom() -> TileDomain {
        let g = Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 24,
                nx: 20,
                ..Default::default()
            },
            nz: 4,
            ..Default::default()
        });
        TileDomain::whole(&g)
    }

    #[test]
    fn rest_state_zeroed() {
        let d = dom();
        let s = State::rest(&d);
        assert_eq!(s.max_zeta(), 0.0);
        assert_eq!(s.max_speed(), 0.0);
        assert!(s.is_finite());
    }

    #[test]
    fn volume_positive_and_tracks_zeta() {
        let d = dom();
        let mut s = State::rest(&d);
        let v0 = s.volume(&d);
        assert!(v0 > 0.0);
        // Raise the surface uniformly by 0.1 m on wet cells.
        let mut wet_area = 0.0;
        for j in 0..d.ny as isize {
            for i in 0..d.nx as isize {
                if d.mask_rho.get(j, i) > 0.5 {
                    s.zeta.set(j, i, 0.1);
                    wet_area += d.dx_at(i) * d.dy_at(j);
                }
            }
        }
        let v1 = s.volume(&d);
        assert!((v1 - v0 - 0.1 * wet_area).abs() < 1e-6 * v0);
    }

    #[test]
    fn nonfinite_detected() {
        let d = dom();
        let mut s = State::rest(&d);
        s.zeta.set(3, 3, f64::NAN);
        assert!(!s.is_finite());
    }
}
