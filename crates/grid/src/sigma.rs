//! Terrain-following sigma vertical coordinate (ROMS-style stretching).
//!
//! Layer interfaces follow the bathymetry at the bottom and the free
//! surface at the top; intermediate levels are distributed by the standard
//! Song & Haidvogel stretching so resolution concentrates near surface
//! and/or bottom.

/// Sigma-coordinate configuration.
#[derive(Clone, Debug)]
pub struct SigmaCoords {
    /// Number of layers (the paper's mesh uses 12).
    pub nz: usize,
    /// Surface stretching intensity (0 = uniform).
    pub theta_s: f64,
    /// Bottom stretching intensity.
    pub theta_b: f64,
}

impl SigmaCoords {
    pub fn new(nz: usize, theta_s: f64, theta_b: f64) -> Self {
        assert!(nz >= 1);
        Self {
            nz,
            theta_s,
            theta_b,
        }
    }

    /// Uniform layers (no stretching).
    pub fn uniform(nz: usize) -> Self {
        Self::new(nz, 0.0, 0.0)
    }

    /// s-value of interface `k` (k = 0 bottom .. nz top), in [-1, 0].
    pub fn s_w(&self, k: usize) -> f64 {
        debug_assert!(k <= self.nz);
        -1.0 + k as f64 / self.nz as f64
    }

    /// Stretching function C(s) (Song & Haidvogel 1994).
    pub fn c_of_s(&self, s: f64) -> f64 {
        if self.theta_s.abs() < 1e-12 {
            return s;
        }
        let ts = self.theta_s;
        let tb = self.theta_b;

        (1.0 - tb) * (ts * s).sinh() / ts.sinh()
            + tb * ((ts * (s + 0.5)).tanh() / (2.0 * (ts * 0.5).tanh()) - 0.5)
    }

    /// Depth (negative, m) of interface `k` for water depth `h` and free
    /// surface `zeta` — linear (Shchepetkin) transform.
    pub fn z_w(&self, k: usize, h: f64, zeta: f64) -> f64 {
        let s = self.s_w(k);
        let c = self.c_of_s(s);
        // z = zeta + (zeta + h) * sigma with stretched sigma
        zeta + (zeta + h) * c
    }

    /// Thickness (m) of layer `k` (0-based, bottom-up) for the column.
    pub fn dz(&self, k: usize, h: f64, zeta: f64) -> f64 {
        debug_assert!(k < self.nz);
        self.z_w(k + 1, h, zeta) - self.z_w(k, h, zeta)
    }

    /// All layer thicknesses bottom-up; sums to `h + zeta`.
    pub fn thicknesses(&self, h: f64, zeta: f64) -> Vec<f64> {
        (0..self.nz).map(|k| self.dz(k, h, zeta)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layers_have_equal_thickness() {
        let s = SigmaCoords::uniform(4);
        let dz = s.thicknesses(8.0, 0.0);
        for d in &dz {
            assert!((d - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn thicknesses_sum_to_total_depth() {
        for &(ts, tb) in &[(0.0, 0.0), (3.0, 0.4), (5.0, 0.9)] {
            let s = SigmaCoords::new(12, ts, tb);
            for &(h, zeta) in &[(10.0, 0.0), (3.5, 0.7), (20.0, -0.4)] {
                let sum: f64 = s.thicknesses(h, zeta).iter().sum();
                assert!(
                    (sum - (h + zeta)).abs() < 1e-9,
                    "ts={ts} h={h} zeta={zeta}: sum {sum}"
                );
            }
        }
    }

    #[test]
    fn interfaces_monotone() {
        let s = SigmaCoords::new(12, 4.0, 0.5);
        let mut prev = s.z_w(0, 15.0, 0.2);
        assert!((prev - (-15.0 + 0.2 * 0.0)).abs() < 1.0); // near bottom
        for k in 1..=12 {
            let z = s.z_w(k, 15.0, 0.2);
            assert!(z > prev, "interfaces must increase upward");
            prev = z;
        }
        assert!((s.z_w(12, 15.0, 0.2) - 0.2).abs() < 1e-9, "top = zeta");
        assert!((s.z_w(0, 15.0, 0.2) + 15.0).abs() < 1e-9, "bottom = -h");
    }

    #[test]
    fn surface_stretching_refines_near_surface() {
        let s = SigmaCoords::new(10, 5.0, 0.0);
        let dz = s.thicknesses(10.0, 0.0);
        // Top layer thinner than bottom layer with surface stretching.
        assert!(dz[9] < dz[0]);
    }

    #[test]
    fn free_surface_follows_top() {
        let s = SigmaCoords::uniform(3);
        assert!((s.z_w(3, 5.0, 0.8) - 0.8).abs() < 1e-12);
        assert!((s.z_w(3, 5.0, -0.3) + 0.3).abs() < 1e-12);
    }
}
