//! Tile-local view of the model domain.
//!
//! Every solver kernel operates on a [`TileDomain`]: a tile's interior plus
//! a one-cell halo of grid data. The one-tile model is the special case of
//! the MPI-style tiling, so every tiling executes the *same* kernel code on
//! the same values — which is what makes the tiled-equals-serial bitwise
//! test meaningful.

use cgrid::{Field2, Grid, SigmaCoords};
use chpc::Tile;

/// A tile's grid data (halo included) plus its position in the domain.
#[derive(Clone, Debug)]
pub struct TileDomain {
    /// Global index ranges of this tile.
    pub tile: Tile,
    /// Local interior size.
    pub ny: usize,
    pub nx: usize,
    /// Vertical layers.
    pub nz: usize,
    /// Depth at rho points, local with halo.
    pub h: Field2,
    /// Masks at rho/u/v points, local with halo.
    pub mask_rho: Field2,
    /// `(ny, nx+1)` — local face `i` is global face `tile.i0 + i`.
    pub mask_u: Field2,
    /// `(ny+1, nx)`.
    pub mask_v: Field2,
    /// Local spacing with halo: `dx[i+1]` is the spacing of local column
    /// `i`; indices 0 and nx+1 hold neighbor/clamped values.
    pub dx: Vec<f64>,
    pub dy: Vec<f64>,
    /// Does the tile touch each physical domain edge?
    pub at_west: bool,
    pub at_east: bool,
    pub at_south: bool,
    pub at_north: bool,
    pub sigma: SigmaCoords,
    pub coriolis: f64,
}

impl TileDomain {
    /// Extract the tile `t` of `grid`.
    pub fn from_grid(grid: &Grid, t: Tile) -> Self {
        let ny = t.ny();
        let nx = t.nx();
        let (gny, gnx) = (grid.ny as isize, grid.nx as isize);

        // Clamped global lookup (global halos replicate edges).
        let gj = |j: isize| (t.j0 as isize + j).clamp(-1, gny);
        let gi = |i: isize| (t.i0 as isize + i).clamp(-1, gnx);

        let mut h = Field2::new(ny, nx);
        let mut mask_rho = Field2::new(ny, nx);
        for j in -1..=(ny as isize) {
            for i in -1..=(nx as isize) {
                h.set(j, i, grid.h.get(gj(j), gi(i)));
                mask_rho.set(j, i, grid.mask_rho.get(gj(j), gi(i)));
            }
        }
        // Face masks: local u face i = global face t.i0 + i, i in 0..=nx;
        // halo faces map to neighbor faces (clamped at domain edge).
        let mut mask_u = Field2::new(ny, nx + 1);
        for j in -1..=(ny as isize) {
            for i in -1..=(nx as isize + 1) {
                let gjj = gj(j).clamp(0, gny - 1);
                let gii = (t.i0 as isize + i).clamp(0, gnx);
                mask_u.set(j, i, grid.mask_u.get(gjj, gii));
            }
        }
        let mut mask_v = Field2::new(ny + 1, nx);
        for j in -1..=(ny as isize + 1) {
            for i in -1..=(nx as isize) {
                let gjj = (t.j0 as isize + j).clamp(0, gny);
                let gii = gi(i).clamp(0, gnx - 1);
                mask_v.set(j, i, grid.mask_v.get(gjj, gii));
            }
        }

        let dx: Vec<f64> = (-1..=(nx as isize))
            .map(|i| grid.dx[gi(i).clamp(0, gnx - 1) as usize])
            .collect();
        let dy: Vec<f64> = (-1..=(ny as isize))
            .map(|j| grid.dy[gj(j).clamp(0, gny - 1) as usize])
            .collect();

        TileDomain {
            tile: t,
            ny,
            nx,
            nz: grid.sigma.nz,
            h,
            mask_rho,
            mask_u,
            mask_v,
            dx,
            dy,
            at_west: t.i0 == 0,
            at_east: t.i1 == grid.nx,
            at_south: t.j0 == 0,
            at_north: t.j1 == grid.ny,
            sigma: grid.sigma.clone(),
            coriolis: grid.coriolis,
        }
    }

    /// The tile covering the whole domain.
    pub fn whole(grid: &Grid) -> Self {
        Self::from_grid(
            grid,
            Tile {
                j0: 0,
                j1: grid.ny,
                i0: 0,
                i1: grid.nx,
            },
        )
    }

    /// Spacing of local column `i` (accepts -1..=nx).
    #[inline]
    pub fn dx_at(&self, i: isize) -> f64 {
        self.dx[(i + 1) as usize]
    }

    /// Spacing of local row `j` (accepts -1..=ny).
    #[inline]
    pub fn dy_at(&self, j: isize) -> f64 {
        self.dy[(j + 1) as usize]
    }

    /// Spacing across u face `i` (mean of adjacent columns).
    #[inline]
    pub fn dx_u(&self, i: isize) -> f64 {
        0.5 * (self.dx_at(i - 1) + self.dx_at(i))
    }

    /// Spacing across v face `j`.
    #[inline]
    pub fn dy_v(&self, j: isize) -> f64 {
        0.5 * (self.dy_at(j - 1) + self.dy_at(j))
    }

    /// Depth at u face `i` (mean of adjacent cells via halo).
    #[inline]
    pub fn h_u(&self, j: isize, i: isize) -> f64 {
        0.5 * (self.h.get(j, i - 1) + self.h.get(j, i))
    }

    /// Depth at v face `j`.
    #[inline]
    pub fn h_v(&self, j: isize, i: isize) -> f64 {
        0.5 * (self.h.get(j - 1, i) + self.h.get(j, i))
    }

    /// Global y-coordinate (m) of the center of local row `j` — used by
    /// the tidal forcing's alongshore phase lag. Computed from the global
    /// row index assuming the domain's dy profile, so all tiles agree.
    pub fn global_row(&self, j: isize) -> usize {
        (self.tile.j0 as isize + j).max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgrid::{EstuaryParams, GridParams};

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

    #[test]
    fn whole_domain_matches_grid() {
        let g = grid();
        let d = TileDomain::whole(&g);
        assert_eq!((d.ny, d.nx), (24, 20));
        assert!(d.at_west && d.at_east && d.at_south && d.at_north);
        for j in 0..24isize {
            for i in 0..20isize {
                assert_eq!(d.h.get(j, i), g.h.get(j, i));
                assert_eq!(d.mask_rho.get(j, i), g.mask_rho.get(j, i));
            }
        }
    }

    #[test]
    fn tile_halo_holds_neighbor_values() {
        let g = grid();
        let decomp = chpc::Decomp::with_grid(24, 20, 2, 2);
        let d0 = TileDomain::from_grid(&g, decomp.tile(0)); // south-west
                                                            // d0 east halo column = global column i1.
        let t = decomp.tile(0);
        for j in 0..t.ny() as isize {
            assert_eq!(
                d0.h.get(j, t.nx() as isize),
                g.h.get(t.j0 as isize + j, t.i1 as isize),
                "east halo must hold the neighbor's first column"
            );
        }
        assert!(d0.at_west && d0.at_south);
        assert!(!d0.at_east && !d0.at_north);
    }

    #[test]
    fn face_metrics_symmetric() {
        let g = grid();
        let d = TileDomain::whole(&g);
        // Interior u face spacing is mean of adjacent columns.
        assert!((d.dx_u(5) - 0.5 * (d.dx_at(4) + d.dx_at(5))).abs() < 1e-12);
        // Depth at face consistent with grid helper.
        let j = 10;
        let i = 6;
        assert!((d.h_u(j, i) - g.h_u(j, i)).abs() < 1e-12);
    }

    #[test]
    fn tiles_cover_grid_consistently() {
        let g = grid();
        let decomp = chpc::Decomp::with_grid(24, 20, 2, 2);
        // Every tile's interior values match the global grid.
        for r in 0..decomp.size() {
            let t = decomp.tile(r);
            let d = TileDomain::from_grid(&g, t);
            for j in 0..t.ny() as isize {
                for i in 0..t.nx() as isize {
                    let (gj, gi) = (t.j0 as isize + j, t.i0 as isize + i);
                    assert_eq!(d.h.get(j, i), g.h.get(gj, gi));
                    assert_eq!(d.mask_u.get(j, i), g.mask_u.get(gj, gi));
                }
            }
        }
    }
}
