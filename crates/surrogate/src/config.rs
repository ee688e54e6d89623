//! Surrogate model configuration.

/// 4-D extent (space × time) used for windows and shifts.
pub type Win4 = [usize; 4];

/// Configuration of the 4D Swin Transformer surrogate.
///
/// Paper defaults (§IV-B): patch 5×5×4 (3-D) / 5×5 (2-D), embed dim 24,
/// three stages with heads 3/6/12, first window (4,4,2,2) then (2,2,2,2).
/// The mesh and horizon here default to the scaled test domain.
#[derive(Clone, Debug)]
pub struct SwinConfig {
    /// Mesh rows (north-south).
    pub ny: usize,
    /// Mesh columns (east-west).
    pub nx: usize,
    /// Sigma layers.
    pub nz: usize,
    /// Forecast steps per episode (the paper uses 24). The model input
    /// carries `t_out + 1` frames: the initial condition plus `t_out`
    /// boundary-condition frames.
    pub t_out: usize,
    /// Spatial patch size (horizontal, horizontal, vertical).
    pub patch: [usize; 3],
    /// Initial embedding dimension.
    pub embed_dim: usize,
    /// Attention heads per stage (also sets the number of stages).
    pub num_heads: Vec<usize>,
    /// Window of the first stage.
    pub window_first: Win4,
    /// Window of the later stages.
    pub window_rest: Win4,
    /// MLP hidden width = `mlp_ratio * dim`.
    pub mlp_ratio: f32,
}

impl Default for SwinConfig {
    fn default() -> Self {
        Self {
            ny: 96,
            nx: 64,
            nz: 8,
            t_out: 24,
            patch: [4, 4, 4],
            embed_dim: 24,
            num_heads: vec![3, 6, 12],
            window_first: [4, 4, 2, 2],
            window_rest: [2, 2, 2, 2],
            mlp_ratio: 2.0,
        }
    }
}

impl SwinConfig {
    /// A tiny configuration for fast tests.
    pub fn tiny(ny: usize, nx: usize, nz: usize, t_out: usize) -> Self {
        Self {
            ny,
            nx,
            nz,
            t_out,
            patch: [4, 4, 2],
            embed_dim: 12,
            num_heads: vec![2, 4],
            window_first: [2, 2, 2, 2],
            window_rest: [2, 2, 2, 2],
            mlp_ratio: 1.5,
        }
    }

    /// Number of encoder stages.
    pub fn n_stages(&self) -> usize {
        self.num_heads.len()
    }

    /// Embedding dim at stage `s` (doubles per merge).
    pub fn dim_at(&self, s: usize) -> usize {
        self.embed_dim << s
    }

    /// Input frames (initial condition + boundary frames).
    pub fn t_in(&self) -> usize {
        self.t_out + 1
    }

    /// Padded mesh extents (multiples of the patch size; the paper pads
    /// 898×598×12 to 900×600×12).
    pub fn padded_mesh(&self) -> (usize, usize, usize) {
        (
            self.ny.div_ceil(self.patch[0]) * self.patch[0],
            self.nx.div_ceil(self.patch[1]) * self.patch[1],
            self.nz.div_ceil(self.patch[2]) * self.patch[2],
        )
    }

    /// Token-grid extents after embedding: `(H', W', D'+1, T)` — the +1 is
    /// the 2-D variable's plane concatenated along depth.
    pub fn token_grid(&self) -> (usize, usize, usize, usize) {
        let (ph, pw, pd) = self.padded_mesh();
        (
            ph / self.patch[0],
            pw / self.patch[1],
            pd / self.patch[2] + 1,
            self.t_in(),
        )
    }

    /// Window extent for stage `s`.
    pub fn window_at(&self, s: usize) -> Win4 {
        if s == 0 {
            self.window_first
        } else {
            self.window_rest
        }
    }

    /// Validate dimensions (panics with a clear message on conflicts).
    pub fn validate(&self) {
        assert!(self.n_stages() >= 1, "need at least one stage");
        for (s, &h) in self.num_heads.iter().enumerate() {
            let dim = self.dim_at(s);
            assert_eq!(
                dim % h,
                0,
                "stage {s}: dim {dim} not divisible by heads {h}"
            );
        }
        assert!(self.t_out >= 1);
        assert!(self.patch.iter().all(|&p| p >= 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_valid() {
        let c = SwinConfig::default();
        c.validate();
        assert_eq!(c.token_grid(), (24, 16, 3, 25));
        assert_eq!(c.dim_at(2), 96);
    }

    #[test]
    fn padding_rounds_up() {
        let c = SwinConfig {
            ny: 97,
            nx: 63,
            nz: 7,
            ..Default::default()
        };
        let (ph, pw, pd) = c.padded_mesh();
        assert_eq!((ph, pw, pd), (100, 64, 8));
    }

    #[test]
    fn paper_shape_arithmetic() {
        // The paper's mesh: 898×598×12 padded to 900×600×12 with patch
        // 5×5×4 → tokens 180×120×(3+1)×25.
        let c = SwinConfig {
            ny: 898,
            nx: 598,
            nz: 12,
            t_out: 24,
            patch: [5, 5, 4],
            ..Default::default()
        };
        assert_eq!(c.padded_mesh(), (900, 600, 12));
        assert_eq!(c.token_grid(), (180, 120, 4, 25));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_heads_panics() {
        let c = SwinConfig {
            embed_dim: 10,
            num_heads: vec![3],
            ..Default::default()
        };
        c.validate();
    }
}
