//! Z-score normalization over the training year (paper §III-B: "All
//! variables are normalized using z-score normalization based on the mean
//! and standard deviation from the 2011 data").

use cocean::Snapshot;

/// Variable order used throughout: u, v, w, ζ.
pub const VAR_NAMES: [&str; 4] = ["u", "v", "w", "zeta"];

/// Per-variable mean/std in physical units.
#[derive(Clone, Copy, Debug)]
pub struct NormStats {
    pub mean: [f64; 4],
    pub std: [f64; 4],
}

impl NormStats {
    /// Identity (no-op) normalization.
    pub fn identity() -> Self {
        Self {
            mean: [0.0; 4],
            std: [1.0; 4],
        }
    }

    /// Compute stats over a snapshot archive, restricted to water cells.
    /// `mask` is row-major `(ny, nx)` with 1.0 = water.
    pub fn from_snapshots(snaps: &[Snapshot], mask: &[f64]) -> Self {
        assert!(!snaps.is_empty());
        let mut sum = [0.0f64; 4];
        let mut sum_sq = [0.0f64; 4];
        let mut count = [0usize; 4];
        for s in snaps {
            assert_eq!(mask.len(), s.ny * s.nx);
            for j in 0..s.ny {
                for i in 0..s.nx {
                    if mask[j * s.nx + i] < 0.5 {
                        continue;
                    }
                    for k in 0..s.nz {
                        let idx = s.idx3(k, j, i);
                        for (c, field) in [&s.u, &s.v, &s.w].into_iter().enumerate() {
                            let v = field[idx] as f64;
                            sum[c] += v;
                            sum_sq[c] += v * v;
                            count[c] += 1;
                        }
                    }
                    let z = s.zeta[s.idx2(j, i)] as f64;
                    sum[3] += z;
                    sum_sq[3] += z * z;
                    count[3] += 1;
                }
            }
        }
        let mut mean = [0.0; 4];
        let mut std = [0.0; 4];
        for c in 0..4 {
            let n = count[c].max(1) as f64;
            mean[c] = sum[c] / n;
            let var = (sum_sq[c] / n - mean[c] * mean[c]).max(0.0);
            // Floor the std so degenerate variables (e.g. w ≈ 0 early in
            // spinup) do not explode when normalized.
            std[c] = var.sqrt().max(1e-8);
        }
        Self { mean, std }
    }

    /// Normalize a value of variable `c` (0=u, 1=v, 2=w, 3=ζ).
    #[inline]
    pub fn normalize(&self, c: usize, v: f32) -> f32 {
        ((v as f64 - self.mean[c]) / self.std[c]) as f32
    }

    /// Invert the normalization.
    #[inline]
    pub fn denormalize(&self, c: usize, v: f32) -> f32 {
        (v as f64 * self.std[c] + self.mean[c]) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(ny: usize, nx: usize, nz: usize, base: f32) -> Snapshot {
        let n3 = nz * ny * nx;
        Snapshot {
            time: 0.0,
            nz,
            ny,
            nx,
            zeta: (0..ny * nx).map(|i| base + i as f32).collect(),
            u: vec![base; n3],
            v: vec![-base; n3],
            w: vec![0.0; n3],
        }
    }

    #[test]
    fn stats_match_hand_computation() {
        let s1 = snap(2, 2, 1, 1.0);
        let s2 = snap(2, 2, 1, 3.0);
        let mask = vec![1.0; 4];
        let stats = NormStats::from_snapshots(&[s1, s2], &mask);
        assert!((stats.mean[0] - 2.0).abs() < 1e-6); // u: 1 and 3
        assert!((stats.std[0] - 1.0).abs() < 1e-6);
        assert!((stats.mean[1] + 2.0).abs() < 1e-6); // v: -1 and -3
                                                     // ζ: values base..base+3 for base 1 and 3 → mean 3.5
        assert!((stats.mean[3] - 3.5).abs() < 1e-6);
    }

    #[test]
    fn masked_cells_excluded() {
        let mut s = snap(1, 2, 1, 1.0);
        s.u[0] = 0.0;
        s.u[1] = 1000.0; // land cell
        let mask = vec![1.0, 0.0];
        let stats = NormStats::from_snapshots(&[s], &mask);
        assert!(stats.mean[0].abs() < 1e-9, "land must not pollute stats");
    }

    #[test]
    fn roundtrip() {
        let stats = NormStats {
            mean: [0.1, -0.2, 0.0, 0.5],
            std: [0.3, 0.4, 1e-4, 0.2],
        };
        for c in 0..4 {
            for &v in &[0.0f32, 1.5, -2.25] {
                let n = stats.normalize(c, v);
                let back = stats.denormalize(c, n);
                assert!((back - v).abs() < 1e-5, "c={c}, v={v}: {back}");
            }
        }
    }

    #[test]
    fn degenerate_std_floored() {
        let s = snap(2, 2, 1, 0.0); // w identically zero
        let stats = NormStats::from_snapshots(&[s], &[1.0; 4]);
        assert!(stats.std[2] >= 1e-8);
        assert!(stats.normalize(2, 0.0).is_finite());
    }
}
