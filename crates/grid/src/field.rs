//! Halo-aware field storage for the finite-volume solver.
//!
//! The simulator runs in `f64` (as ROMS does — the paper compresses to FP16
//! only for the training archive). A [`Field2`] stores an `ny × nx` interior
//! plus a one-cell halo ring; boundary conditions and MPI-style exchanges
//! both write into the halo, which is what lets one tile and many run the
//! same kernels bit-for-bit.

/// 2-D scalar field with a one-cell halo ring. Interior indices are
/// `0..ny` × `0..nx`; halo cells are reachable at `-1` and `ny`/`nx`.
#[derive(Clone, Debug, PartialEq)]
pub struct Field2 {
    ny: usize,
    nx: usize,
    data: Vec<f64>,
}

impl Field2 {
    /// Zero-initialized field (halo included).
    pub fn new(ny: usize, nx: usize) -> Self {
        Self {
            ny,
            nx,
            data: vec![0.0; (ny + 2) * (nx + 2)],
        }
    }

    /// Constant-filled interior (halo zero).
    pub fn full(ny: usize, nx: usize, v: f64) -> Self {
        let mut f = Self::new(ny, nx);
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                f.set(j, i, v);
            }
        }
        f
    }

    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    #[inline]
    fn idx(&self, j: isize, i: isize) -> usize {
        debug_assert!(
            j >= -1 && j <= self.ny as isize && i >= -1 && i <= self.nx as isize,
            "field index ({j},{i}) outside halo bounds {}x{}",
            self.ny,
            self.nx
        );
        ((j + 1) as usize) * (self.nx + 2) + (i + 1) as usize
    }

    /// Read (interior or halo).
    #[inline]
    pub fn get(&self, j: isize, i: isize) -> f64 {
        self.data[self.idx(j, i)]
    }

    /// Write (interior or halo).
    #[inline]
    pub fn set(&mut self, j: isize, i: isize, v: f64) {
        let k = self.idx(j, i);
        self.data[k] = v;
    }

    /// Add into a cell.
    #[inline]
    pub fn add(&mut self, j: isize, i: isize, v: f64) {
        let k = self.idx(j, i);
        self.data[k] += v;
    }

    /// Raw storage including halo (row-major, `(ny+2) × (nx+2)`).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Copy the interior into a flat `Vec` (row-major, no halo).
    pub fn interior_to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.ny * self.nx);
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                out.push(self.get(j, i));
            }
        }
        out
    }

    /// Fill the interior from a flat row-major slice.
    pub fn interior_from_slice(&mut self, src: &[f64]) {
        assert_eq!(src.len(), self.ny * self.nx);
        for j in 0..self.ny {
            for i in 0..self.nx {
                self.set(j as isize, i as isize, src[j * self.nx + i]);
            }
        }
    }

    /// Extract a row strip `[i0, i1)` of interior row `j` (for halo sends).
    pub fn row_strip(&self, j: isize, i0: isize, i1: isize) -> Vec<f64> {
        (i0..i1).map(|i| self.get(j, i)).collect()
    }

    /// Extract a column strip `[j0, j1)` of interior column `i`.
    pub fn col_strip(&self, i: isize, j0: isize, j1: isize) -> Vec<f64> {
        (j0..j1).map(|j| self.get(j, i)).collect()
    }

    /// Write a row strip starting at `(j, i0)`.
    pub fn set_row_strip(&mut self, j: isize, i0: isize, vals: &[f64]) {
        for (d, &v) in vals.iter().enumerate() {
            self.set(j, i0 + d as isize, v);
        }
    }

    /// Write a column strip starting at `(j0, i)`.
    pub fn set_col_strip(&mut self, i: isize, j0: isize, vals: &[f64]) {
        for (d, &v) in vals.iter().enumerate() {
            self.set(j0 + d as isize, i, v);
        }
    }

    /// Maximum absolute interior value.
    pub fn max_abs(&self) -> f64 {
        let mut m = 0.0f64;
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                m = m.max(self.get(j, i).abs());
            }
        }
        m
    }

    /// Interior sum (f64 accumulation).
    pub fn interior_sum(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                s += self.get(j, i);
            }
        }
        s
    }

    /// Maximum absolute interior difference against another field.
    pub fn max_abs_diff(&self, other: &Field2) -> f64 {
        assert_eq!((self.ny, self.nx), (other.ny, other.nx));
        let mut m = 0.0f64;
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                m = m.max((self.get(j, i) - other.get(j, i)).abs());
            }
        }
        m
    }
}

/// Stack of `nz` [`Field2`] layers (halo in the horizontal only).
/// Layer 0 is the bottom sigma layer, `nz-1` the surface.
#[derive(Clone, Debug, PartialEq)]
pub struct Field3 {
    layers: Vec<Field2>,
}

impl Field3 {
    pub fn new(nz: usize, ny: usize, nx: usize) -> Self {
        Self {
            layers: (0..nz).map(|_| Field2::new(ny, nx)).collect(),
        }
    }

    #[inline]
    pub fn nz(&self) -> usize {
        self.layers.len()
    }

    #[inline]
    pub fn ny(&self) -> usize {
        self.layers[0].ny()
    }

    #[inline]
    pub fn nx(&self) -> usize {
        self.layers[0].nx()
    }

    #[inline]
    pub fn layer(&self, k: usize) -> &Field2 {
        &self.layers[k]
    }

    #[inline]
    pub fn layer_mut(&mut self, k: usize) -> &mut Field2 {
        &mut self.layers[k]
    }

    #[inline]
    pub fn get(&self, k: usize, j: isize, i: isize) -> f64 {
        self.layers[k].get(j, i)
    }

    #[inline]
    pub fn set(&mut self, k: usize, j: isize, i: isize, v: f64) {
        self.layers[k].set(j, i, v);
    }

    /// Maximum absolute interior difference against another field.
    pub fn max_abs_diff(&self, other: &Field3) -> f64 {
        assert_eq!(self.nz(), other.nz());
        self.layers
            .iter()
            .zip(&other.layers)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_and_halo_are_distinct() {
        let mut f = Field2::new(3, 4);
        f.set(0, 0, 1.0);
        f.set(-1, 0, 2.0); // halo
        f.set(3, 3, 3.0); // halo
        assert_eq!(f.get(0, 0), 1.0);
        assert_eq!(f.get(-1, 0), 2.0);
        assert_eq!(f.get(3, 3), 3.0);
        // Interior sum excludes halo.
        assert_eq!(f.interior_sum(), 1.0);
    }

    #[test]
    fn roundtrip_interior_vec() {
        let mut f = Field2::new(2, 3);
        f.interior_from_slice(&[1., 2., 3., 4., 5., 6.]);
        assert_eq!(f.interior_to_vec(), vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(f.get(1, 2), 6.0);
    }

    #[test]
    fn strips() {
        let mut f = Field2::new(3, 3);
        f.interior_from_slice(&[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        assert_eq!(f.row_strip(1, 0, 3), vec![4., 5., 6.]);
        assert_eq!(f.col_strip(2, 0, 3), vec![3., 6., 9.]);
        f.set_col_strip(-1, 0, &[10., 11., 12.]); // west halo column
        assert_eq!(f.get(0, -1), 10.0);
        assert_eq!(f.get(2, -1), 12.0);
    }

    #[test]
    fn field3_layers() {
        let mut f = Field3::new(2, 2, 2);
        f.set(0, 0, 0, 5.0);
        f.set(1, 1, 1, 7.0);
        assert_eq!(f.get(0, 0, 0), 5.0);
        assert_eq!(f.get(1, 1, 1), 7.0);
        assert_eq!(f.layer(0).get(1, 1), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = Field2::full(2, 2, 1.0);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 1, 1.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
