//! Cell-centered snapshots — the simulator's output format and the
//! surrogate's training schema.
//!
//! The paper (§III-B): "current velocity variables are located on the sides
//! of cells … we use linear interpolation to resample all variables to cell
//! centers", and the FP64 model output is compressed for training. Here
//! snapshots are produced in `f32` (the compute dtype of the surrogate);
//! the pipeline's store further compresses to `f16`.

use crate::barotropic::MIN_DEPTH;
use crate::domain::TileDomain;
use crate::state::State;

/// One temporal snapshot of the four surrogate variables at cell centers.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Model time (s).
    pub time: f64,
    pub nz: usize,
    pub ny: usize,
    pub nx: usize,
    /// Free surface (m), `ny × nx` row-major.
    pub zeta: Vec<f32>,
    /// Eastward velocity (m/s), `nz × ny × nx`, bottom layer first.
    pub u: Vec<f32>,
    /// Northward velocity (m/s), same layout.
    pub v: Vec<f32>,
    /// Vertical velocity (m/s), layer centers, same layout.
    pub w: Vec<f32>,
}

impl Snapshot {
    /// Flat index into 2-D fields.
    #[inline]
    pub fn idx2(&self, j: usize, i: usize) -> usize {
        j * self.nx + i
    }

    /// Flat index into 3-D fields.
    #[inline]
    pub fn idx3(&self, k: usize, j: usize, i: usize) -> usize {
        (k * self.ny + j) * self.nx + i
    }

    /// ζ at a cell.
    #[inline]
    pub fn zeta_at(&self, j: usize, i: usize) -> f32 {
        self.zeta[j * self.nx + i]
    }

    /// Bytes of payload (the paper's I/O accounting).
    pub fn nbytes(&self) -> usize {
        (self.zeta.len() + self.u.len() + self.v.len() + self.w.len()) * std::mem::size_of::<f32>()
    }

    /// All-zero snapshot at `time`.
    pub(crate) fn zeros(time: f64, nz: usize, ny: usize, nx: usize) -> Snapshot {
        Snapshot {
            time,
            nz,
            ny,
            nx,
            zeta: vec![0.0; ny * nx],
            u: vec![0.0; nz * ny * nx],
            v: vec![0.0; nz * ny * nx],
            w: vec![0.0; nz * ny * nx],
        }
    }

    /// Write a tile's snapshot into its window of this global one.
    pub(crate) fn place(&mut self, local: &Snapshot, tile: chpc::Tile) {
        assert_eq!(
            (local.nz, local.ny, local.nx),
            (self.nz, tile.ny(), tile.nx())
        );
        let n = tile.nx();
        for j in 0..tile.ny() {
            let (dst, src) = (self.idx2(tile.j0 + j, tile.i0), j * n);
            self.zeta[dst..dst + n].copy_from_slice(&local.zeta[src..src + n]);
            for k in 0..self.nz {
                let (dst, src) = (self.idx3(k, tile.j0 + j, tile.i0), local.idx3(k, j, 0));
                self.u[dst..dst + n].copy_from_slice(&local.u[src..src + n]);
                self.v[dst..dst + n].copy_from_slice(&local.v[src..src + n]);
                self.w[dst..dst + n].copy_from_slice(&local.w[src..src + n]);
            }
        }
    }

    /// Root-mean-square difference per variable against another snapshot.
    pub fn rms_diff(&self, other: &Snapshot) -> [f32; 4] {
        fn rms(a: &[f32], b: &[f32]) -> f32 {
            let s: f64 = a.iter().zip(b).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
            ((s / a.len() as f64) as f32).sqrt()
        }
        [
            rms(&self.u, &other.u),
            rms(&self.v, &other.v),
            rms(&self.w, &other.w),
            rms(&self.zeta, &other.zeta),
        ]
    }
}

/// Interpolate the staggered state of one tile to cell centers.
pub fn take_snapshot(dom: &TileDomain, state: &State) -> Snapshot {
    let (nz, ny, nx) = (dom.nz, dom.ny, dom.nx);
    let mut snap = Snapshot::zeros(state.time, nz, ny, nx);
    for j in 0..ny {
        for i in 0..nx {
            let (js, is_) = (j as isize, i as isize);
            let wet = dom.mask_rho.get(js, is_) > 0.5;
            snap.zeta[j * nx + i] = if wet {
                state.zeta.get(js, is_) as f32
            } else {
                0.0
            };
            for k in 0..nz {
                let dst = (k * ny + j) * nx + i;
                if wet {
                    snap.u[dst] =
                        (0.5 * (state.u.get(k, js, is_) + state.u.get(k, js, is_ + 1))) as f32;
                    snap.v[dst] =
                        (0.5 * (state.v.get(k, js, is_) + state.v.get(k, js + 1, is_))) as f32;
                    snap.w[dst] =
                        (0.5 * (state.w.get(k, js, is_) + state.w.get(k + 1, js, is_))) as f32;
                }
            }
        }
    }
    snap
}

/// Rebuild a staggered state from a cell-centered snapshot (the inverse of
/// [`take_snapshot`], used when the hybrid workflow hands an AI-predicted
/// state back to the simulator). Faces average adjacent centers; `w` is
/// re-diagnosed by the next baroclinic step.
pub fn load_snapshot(dom: &TileDomain, snap: &Snapshot) -> State {
    assert_eq!((snap.ny, snap.nx, snap.nz), (dom.ny, dom.nx, dom.nz));
    let (nz, ny, nx) = (dom.nz, dom.ny as isize, dom.nx as isize);
    let mut s = State::rest(dom);
    s.time = snap.time;
    let at2 = |j: isize, i: isize| snap.zeta[(j as usize) * dom.nx + i as usize] as f64;
    let at3 = |k: usize, j: isize, i: isize| {
        snap.u[(k * dom.ny + j as usize) * dom.nx + i as usize] as f64
    };
    let at3v = |k: usize, j: isize, i: isize| {
        snap.v[(k * dom.ny + j as usize) * dom.nx + i as usize] as f64
    };
    for j in 0..ny {
        for i in 0..nx {
            if dom.mask_rho.get(j, i) > 0.5 {
                s.zeta.set(j, i, at2(j, i));
            }
        }
    }
    // u faces: average adjacent wet centers.
    for j in 0..ny {
        for i in 0..=nx {
            if dom.mask_u.get(j, i) < 0.5 {
                continue;
            }
            for k in 0..nz {
                let west = if i > 0 {
                    at3(k, j, i - 1)
                } else {
                    at3(k, j, 0)
                };
                let east = if i < nx {
                    at3(k, j, i)
                } else {
                    at3(k, j, nx - 1)
                };
                s.u.set(k, j, i, 0.5 * (west + east));
            }
        }
    }
    for j in 0..=ny {
        for i in 0..nx {
            if dom.mask_v.get(j, i) < 0.5 {
                continue;
            }
            for k in 0..nz {
                let south = if j > 0 {
                    at3v(k, j - 1, i)
                } else {
                    at3v(k, 0, i)
                };
                let north = if j < ny {
                    at3v(k, j, i)
                } else {
                    at3v(k, ny - 1, i)
                };
                s.v.set(k, j, i, 0.5 * (south + north));
            }
        }
    }
    // Barotropic fields = depth means of the layered fields.
    let sigma = &dom.sigma;
    for j in 0..ny {
        for i in 0..=nx {
            if dom.mask_u.get(j, i) < 0.5 {
                continue;
            }
            let zeta_f = 0.5 * (s.zeta.get(j, i - 1) + s.zeta.get(j, i));
            let h_f = dom.h_u(j, i);
            let depth = (h_f + zeta_f).max(MIN_DEPTH);
            let mean: f64 = (0..nz)
                .map(|k| s.u.get(k, j, i) * sigma.dz(k, h_f, zeta_f))
                .sum::<f64>()
                / depth;
            s.ubar.set(j, i, mean);
        }
    }
    for j in 0..=ny {
        for i in 0..nx {
            if dom.mask_v.get(j, i) < 0.5 {
                continue;
            }
            let zeta_f = 0.5 * (s.zeta.get(j - 1, i) + s.zeta.get(j, i));
            let h_f = dom.h_v(j, i);
            let depth = (h_f + zeta_f).max(MIN_DEPTH);
            let mean: f64 = (0..nz)
                .map(|k| s.v.get(k, j, i) * sigma.dz(k, h_f, zeta_f))
                .sum::<f64>()
                / depth;
            s.vbar.set(j, i, mean);
        }
    }
    crate::baroclinic::diagnose_w(dom, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgrid::{EstuaryParams, Grid, GridParams};

    fn dom() -> TileDomain {
        let g = Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 16,
                nx: 16,
                ..Default::default()
            },
            nz: 3,
            ..Default::default()
        });
        TileDomain::whole(&g)
    }

    #[test]
    fn snapshot_shapes() {
        let d = dom();
        let s = State::rest(&d);
        let snap = take_snapshot(&d, &s);
        assert_eq!(snap.zeta.len(), 16 * 16);
        assert_eq!(snap.u.len(), 3 * 16 * 16);
        assert_eq!(snap.nbytes(), (16 * 16 + 3 * 3 * 16 * 16) * 4);
    }

    #[test]
    fn centering_averages_faces() {
        let d = dom();
        let mut s = State::rest(&d);
        // Find a wet cell with wet faces.
        'outer: for j in 2..d.ny as isize - 2 {
            for i in 2..d.nx as isize - 2 {
                if d.mask_rho.get(j, i) > 0.5
                    && d.mask_u.get(j, i) > 0.5
                    && d.mask_u.get(j, i + 1) > 0.5
                {
                    s.u.set(0, j, i, 0.2);
                    s.u.set(0, j, i + 1, 0.4);
                    let snap = take_snapshot(&d, &s);
                    let c = snap.u[(j as usize) * d.nx + i as usize];
                    assert!((c - 0.3).abs() < 1e-6);
                    break 'outer;
                }
            }
        }
    }

    #[test]
    fn place_writes_tile_window() {
        let decomp = chpc::Decomp::with_grid(16, 16, 2, 3);
        let mut global = Snapshot::zeros(0.0, 3, 16, 16);
        for rank in 0..decomp.size() {
            let t = decomp.tile(rank);
            let mut local = Snapshot::zeros(0.0, 3, t.ny(), t.nx());
            for j in 0..t.ny() {
                for i in 0..t.nx() {
                    let l = local.idx2(j, i);
                    local.zeta[l] = ((t.j0 + j) * 100 + t.i0 + i) as f32;
                    for k in 0..3 {
                        let l = local.idx3(k, j, i);
                        (local.u[l], local.v[l], local.w[l]) = (rank as f32, k as f32, -1.0);
                    }
                }
            }
            global.place(&local, t);
        }
        for j in 0..16 {
            for i in 0..16 {
                assert_eq!(global.zeta_at(j, i), (j * 100 + i) as f32);
                let owner = (0..decomp.size())
                    .find(|&r| {
                        let t = decomp.tile(r);
                        (t.j0..t.j1).contains(&j) && (t.i0..t.i1).contains(&i)
                    })
                    .unwrap();
                for k in 0..3 {
                    let g = global.idx3(k, j, i);
                    let got = (global.u[g], global.v[g], global.w[g]);
                    assert_eq!(got, (owner as f32, k as f32, -1.0), "({k},{j},{i})");
                }
            }
        }
    }

    #[test]
    fn load_snapshot_roundtrips_zeta_and_interior_velocity() {
        let d = dom();
        let mut s = State::rest(&d);
        // Smooth field so face<->center interpolation is nearly exact.
        for j in 0..d.ny as isize {
            for i in 0..d.nx as isize {
                if d.mask_rho.get(j, i) > 0.5 {
                    s.zeta.set(j, i, 0.1 * (i as f64 * 0.1).sin());
                }
            }
        }
        for k in 0..d.nz {
            for j in 0..d.ny as isize {
                for i in 0..=(d.nx as isize) {
                    if d.mask_u.get(j, i) > 0.5 {
                        s.u.set(k, j, i, 0.05 * (k as f64 + 1.0));
                    }
                }
            }
        }
        let snap = take_snapshot(&d, &s);
        let s2 = load_snapshot(&d, &snap);
        // ζ roundtrips exactly (up to f32).
        for j in 0..d.ny as isize {
            for i in 0..d.nx as isize {
                if d.mask_rho.get(j, i) > 0.5 {
                    assert!((s2.zeta.get(j, i) - s.zeta.get(j, i)).abs() < 1e-6);
                }
            }
        }
        // Constant-per-layer u roundtrips on interior wet faces.
        let mut checked = 0;
        for j in 0..d.ny as isize {
            for i in 1..d.nx as isize {
                if d.mask_u.get(j, i) > 0.5
                    && d.mask_rho.get(j, i - 1) > 0.5
                    && d.mask_rho.get(j, i) > 0.5
                    && d.mask_u.get(j, i - 1) > 0.5
                    && d.mask_u.get(j, i + 1) > 0.5
                {
                    assert!((s2.u.get(1, j, i) - 0.1).abs() < 1e-5);
                    checked += 1;
                }
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn rms_diff_zero_for_identical() {
        let d = dom();
        let s = State::rest(&d);
        let a = take_snapshot(&d, &s);
        let b = a.clone();
        assert_eq!(a.rms_diff(&b), [0.0; 4]);
    }
}
