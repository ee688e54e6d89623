//! The 4D Swin Transformer surrogate (paper Fig. 2): encoder-decoder over
//! the four tidal variables, with optional activation checkpointing.

use ctensor::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::block::{merged_dims, PatchMerge, SwinStage};
use crate::config::{SwinConfig, Win4};
use crate::decoder::UpsampleBlock;
use crate::embed::{
    PatchEmbed2d, PatchEmbed3d, PatchRecover2d, PatchRecover3d, PositionalEncoding,
};

/// Activation-checkpointing policy (paper §III-D: keep the SW-MSA
/// activations, discard and recompute the rest).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Keep every activation on the tape.
    None,
    /// Checkpoint the W-MSA blocks (recomputed in backward); SW-MSA blocks
    /// stay resident.
    DiscardWMsa,
}

/// The surrogate model.
#[derive(Clone)]
pub struct SwinSurrogate {
    pub cfg: SwinConfig,
    pub embed3d: PatchEmbed3d,
    pub embed2d: PatchEmbed2d,
    pub pos: PositionalEncoding,
    pub stages: Vec<SwinStage>,
    pub merges: Vec<PatchMerge>,
    pub ups: Vec<UpsampleBlock>,
    pub recover3d: PatchRecover3d,
    pub recover2d: PatchRecover2d,
    pub checkpoint: CheckpointPolicy,
    /// Token extents per stage.
    stage_dims: Vec<Win4>,
}

impl SwinSurrogate {
    /// Build the model with deterministic initialization.
    pub fn new(cfg: SwinConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let e = cfg.embed_dim;
        let embed3d = PatchEmbed3d::new("embed3d", 3, cfg.patch, e, &mut rng);
        let embed2d = PatchEmbed2d::new("embed2d", 1, [cfg.patch[0], cfg.patch[1]], e, &mut rng);

        let grid = cfg.token_grid();
        let dims0: Win4 = [grid.0, grid.1, grid.2, grid.3];
        let pos = PositionalEncoding::new("pos", dims0, e, &mut rng);

        let mut stage_dims = vec![dims0];
        let mut stages = Vec::new();
        let mut merges = Vec::new();
        for s in 0..cfg.n_stages() {
            let dims = stage_dims[s];
            stages.push(SwinStage::new(
                &format!("enc{s}"),
                cfg.dim_at(s),
                cfg.num_heads[s],
                1,
                dims,
                cfg.window_at(s),
                cfg.mlp_ratio,
                &mut rng,
            ));
            if s + 1 < cfg.n_stages() {
                merges.push(PatchMerge::new(
                    &format!("merge{s}"),
                    cfg.dim_at(s),
                    &mut rng,
                ));
                stage_dims.push(merged_dims(dims));
            }
        }

        let mut ups = Vec::new();
        for s in (0..cfg.n_stages() - 1).rev() {
            ups.push(UpsampleBlock::new(
                &format!("up{s}"),
                cfg.dim_at(s + 1),
                cfg.dim_at(s),
                &mut rng,
            ));
        }

        let recover3d = PatchRecover3d::new("recover3d", e, 3, cfg.patch, &mut rng);
        let recover2d =
            PatchRecover2d::new("recover2d", e, 1, [cfg.patch[0], cfg.patch[1]], &mut rng);

        Self {
            cfg,
            embed3d,
            embed2d,
            pos,
            stages,
            merges,
            ups,
            recover3d,
            recover2d,
            checkpoint: CheckpointPolicy::None,
            stage_dims,
        }
    }

    /// Rebuild a model from a configuration plus a parameter snapshot
    /// (as produced by [`state_dict`]). The seed used for construction is
    /// irrelevant: every parameter is overwritten by `state`. For an
    /// *exact* reconstruction of a trained model also restore the
    /// non-trainable buffers ([`Self::buffers`] / [`Self::load_buffers`]):
    /// BatchNorm running statistics live outside the state dict.
    ///
    /// This is the thread-migration path: parameters are `Rc`-shared and
    /// thus thread-local, but `state_dict` tensors are `Send`, so a model
    /// can be shipped across threads as `(SwinConfig, Vec<Tensor>)` and
    /// reconstructed exactly on the other side.
    pub fn from_state(cfg: SwinConfig, state: &[Tensor]) -> Self {
        // Skip the (trunc-normal rejection-sampling) random init: every
        // parameter is overwritten by `state` — `load_state_dict` asserts
        // full coverage — so construct the skeleton with zero fills. This
        // keeps serve-pool worker spin-up off the request-latency path.
        let model = {
            let _defer = ctensor::init::defer();
            Self::new(cfg, 0)
        };
        load_state_dict(&model, state);
        model
    }

    /// Every BatchNorm in forward order (upsample blocks, then the two
    /// recovery heads) — the modules that carry non-parameter buffers.
    fn batch_norms(&self) -> Vec<&ctensor::nn::BatchNorm> {
        let mut v: Vec<&ctensor::nn::BatchNorm> = self.ups.iter().map(|u| &u.bn).collect();
        v.push(&self.recover3d.bn);
        v.push(&self.recover2d.bn);
        v
    }

    /// Non-trainable buffers (BatchNorm running mean/var, interleaved) in
    /// a deterministic order matching [`Self::load_buffers`].
    pub fn buffers(&self) -> Vec<Tensor> {
        self.batch_norms()
            .into_iter()
            .flat_map(|bn| {
                let (mean, var) = bn.running_stats();
                [mean, var]
            })
            .collect()
    }

    /// Restore buffers captured by [`Self::buffers`].
    pub fn load_buffers(&self, buffers: &[Tensor]) {
        let bns = self.batch_norms();
        assert_eq!(buffers.len(), 2 * bns.len(), "buffer count mismatch");
        for (bn, pair) in bns.into_iter().zip(buffers.chunks_exact(2)) {
            bn.set_running_stats(pair[0].clone(), pair[1].clone());
        }
    }

    /// Forward pass.
    ///
    /// `x3d`: `(B, 3, ny, nx, nz, T+1)` — frame 0 is the full initial
    /// condition, frames 1..=T carry boundary conditions (interior zeros).
    /// `x2d`: `(B, 1, ny, nx, T+1)` likewise for ζ.
    ///
    /// Returns `(pred3d, pred2d)`: `(B, 3, ny, nx, nz, T)` and
    /// `(B, 1, ny, nx, T)` — the T forecast frames.
    pub fn forward(&self, g: &mut Graph, x3d: Var, x2d: Var) -> (Var, Var) {
        let cfg = &self.cfg;
        let t_in = cfg.t_in();
        {
            let s3 = g.value(x3d).shape();
            assert_eq!(
                s3,
                &[s3[0], 3, cfg.ny, cfg.nx, cfg.nz, t_in],
                "x3d shape mismatch"
            );
        }
        let b = g.value(x3d).shape()[0];

        // ---------------------------------------------------------- encode
        let t3 = self.embed3d.forward(g, x3d);
        let t2 = self.embed2d.forward(g, x2d);
        let tokens = g.concat(&[t3, t2], 3); // depth axis
        let mut x = self.pos.forward(g, tokens);

        let mut skips: Vec<Var> = Vec::with_capacity(self.stages.len());
        for (s, stage) in self.stages.iter().enumerate() {
            x = self.run_stage(g, stage, x);
            skips.push(x);
            if s + 1 < self.stages.len() {
                x = self.merges[s].forward(g, x);
            }
        }

        // ---------------------------------------------------------- decode
        for (k, up) in self.ups.iter().enumerate() {
            let skip = skips[self.stages.len() - 2 - k];
            x = up.forward(g, x, skip);
        }

        // Split 3-D planes from the ζ plane along depth.
        let d3 = self.stage_dims[0][2] - 1;
        let x3 = g.narrow(x, 3, 0, d3);
        let x2 = g.narrow(x, 3, d3, 1);

        let out3 = self.recover3d.forward(g, x3); // (B,3,Hp,Wp,Dp,T+1)
        let out2 = self.recover2d.forward(g, x2); // (B,1,Hp,Wp,T+1)

        // Crop spatial padding, drop the initial-condition frame.
        let out3 = crop_to(g, out3, &[b, 3, cfg.ny, cfg.nx, cfg.nz, t_in]);
        let out3 = g.narrow(out3, 5, 1, cfg.t_out);
        let out2 = crop_to(g, out2, &[b, 1, cfg.ny, cfg.nx, t_in]);
        let out2 = g.narrow(out2, 4, 1, cfg.t_out);
        (out3, out2)
    }

    fn run_stage(&self, g: &mut Graph, stage: &SwinStage, x: Var) -> Var {
        match self.checkpoint {
            CheckpointPolicy::None => stage.forward(g, x),
            CheckpointPolicy::DiscardWMsa => {
                let mut cur = x;
                for pair in &stage.pairs {
                    // W-MSA block checkpointed: its activations are
                    // recomputed during backward.
                    let blk = pair.w_block.clone();
                    let dims = stage.dims;
                    let mask = stage.mask_plain().clone();
                    cur = g.checkpoint(&[cur], move |g, ins| blk.forward(g, ins[0], dims, &mask));
                    // SW-MSA block stays resident (the expensive one to
                    // recompute, per the paper).
                    cur = pair
                        .sw_block
                        .forward(g, cur, stage.dims, stage.mask_shifted());
                }
                cur
            }
        }
    }

    /// Parameters of the encoder side (embeddings, positional encoding,
    /// stages, merges) — the paper's Table IV splits parameter counts into
    /// encoder + decoder.
    pub fn encoder_parameters(&self) -> usize {
        let mut v = Vec::new();
        self.embed3d.collect_params(&mut v);
        self.embed2d.collect_params(&mut v);
        self.pos.collect_params(&mut v);
        for s in &self.stages {
            s.collect_params(&mut v);
        }
        for m in &self.merges {
            m.collect_params(&mut v);
        }
        v.iter().map(|p| p.numel()).sum()
    }

    /// Parameters of the decoder side (upsampling + recovery heads).
    pub fn decoder_parameters(&self) -> usize {
        let mut v = Vec::new();
        for u in &self.ups {
            u.collect_params(&mut v);
        }
        self.recover3d.collect_params(&mut v);
        self.recover2d.collect_params(&mut v);
        v.iter().map(|p| p.numel()).sum()
    }
}

/// Narrow every axis of `x` down to `target` (no-op where equal).
fn crop_to(g: &mut Graph, mut x: Var, target: &[usize]) -> Var {
    let shape = g.value(x).shape().to_vec();
    assert_eq!(shape.len(), target.len());
    for (axis, (&cur, &want)) in shape.iter().zip(target).enumerate() {
        if cur != want {
            assert!(cur > want, "axis {axis}: have {cur}, want {want}");
            x = g.narrow(x, axis, 0, want);
        }
    }
    x
}

impl Module for SwinSurrogate {
    fn forward(&self, _g: &mut Graph, _x: Var) -> Var {
        panic!("SwinSurrogate takes two inputs; call forward(g, x3d, x2d)");
    }

    fn collect_params(&self, out: &mut Vec<Param>) {
        self.embed3d.collect_params(out);
        self.embed2d.collect_params(out);
        self.pos.collect_params(out);
        for s in &self.stages {
            s.collect_params(out);
        }
        for m in &self.merges {
            m.collect_params(out);
        }
        for u in &self.ups {
            u.collect_params(out);
        }
        self.recover3d.collect_params(out);
        self.recover2d.collect_params(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SwinConfig {
        SwinConfig::tiny(8, 8, 4, 3)
    }

    fn inputs(cfg: &SwinConfig, b: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x3 = ctensor::init::randn(&[b, 3, cfg.ny, cfg.nx, cfg.nz, cfg.t_in()], 0.5, &mut rng);
        let x2 = ctensor::init::randn(&[b, 1, cfg.ny, cfg.nx, cfg.t_in()], 0.5, &mut rng);
        (x3, x2)
    }

    #[test]
    fn forward_shapes() {
        let cfg = tiny();
        let model = SwinSurrogate::new(cfg.clone(), 0);
        let (x3, x2) = inputs(&cfg, 2, 1);
        let mut g = Graph::inference();
        let a = g.constant(x3);
        let b = g.constant(x2);
        let (o3, o2) = model.forward(&mut g, a, b);
        assert_eq!(g.value(o3).shape(), &[2, 3, 8, 8, 4, 3]);
        assert_eq!(g.value(o2).shape(), &[2, 1, 8, 8, 3]);
        assert!(g.value(o3).all_finite());
        assert!(g.value(o2).all_finite());
    }

    #[test]
    fn deterministic_construction() {
        let cfg = tiny();
        let m1 = SwinSurrogate::new(cfg.clone(), 7);
        let m2 = SwinSurrogate::new(cfg, 7);
        for (a, b) in m1.params().iter().zip(m2.params().iter()) {
            assert_eq!(a.value().as_slice(), b.value().as_slice());
        }
    }

    #[test]
    fn encoder_decoder_param_split_adds_up() {
        let model = SwinSurrogate::new(tiny(), 0);
        assert_eq!(
            model.encoder_parameters() + model.decoder_parameters(),
            model.num_parameters()
        );
        assert!(model.num_parameters() > 1000);
    }

    #[test]
    fn training_step_produces_all_grads() {
        let cfg = tiny();
        let model = SwinSurrogate::new(cfg.clone(), 0);
        let (x3, x2) = inputs(&cfg, 1, 2);
        let mut g = Graph::new();
        g.training = true;
        let a = g.constant(x3);
        let b = g.constant(x2);
        let (o3, o2) = model.forward(&mut g, a, b);
        let t3 = g.constant(Tensor::zeros(&[1, 3, 8, 8, 4, 3]));
        let t2 = g.constant(Tensor::zeros(&[1, 1, 8, 8, 3]));
        let l3 = g.mse_loss(o3, t3);
        let l2 = g.mse_loss(o2, t2);
        let loss = g.add(l3, l2);
        g.backward(loss);
        let missing: Vec<String> = model
            .params()
            .iter()
            .filter(|p| p.grad().is_none())
            .map(|p| p.name())
            .collect();
        assert!(missing.is_empty(), "params without grads: {missing:?}");
    }

    #[test]
    fn checkpointing_matches_plain_loss_and_grads() {
        let cfg = tiny();
        let (x3, x2) = inputs(&cfg, 1, 3);

        let run = |policy: CheckpointPolicy| {
            let mut model = SwinSurrogate::new(cfg.clone(), 0);
            model.checkpoint = policy;
            let mut g = Graph::new();
            g.training = true;
            let a = g.constant(x3.clone());
            let b = g.constant(x2.clone());
            let (o3, o2) = model.forward(&mut g, a, b);
            let t3 = g.constant(Tensor::full(&[1, 3, 8, 8, 4, 3], 0.1));
            let t2 = g.constant(Tensor::full(&[1, 1, 8, 8, 3], 0.1));
            let l3 = g.mse_loss(o3, t3);
            let l2 = g.mse_loss(o2, t2);
            let loss = g.add(l3, l2);
            let lv = g.value(loss).item();
            g.backward(loss);
            let grads: Vec<Tensor> = model.params().iter().map(|p| p.grad().unwrap()).collect();
            (lv, grads, g.meter())
        };

        let (l_plain, g_plain, m_plain) = run(CheckpointPolicy::None);
        let (l_ck, g_ck, m_ck) = run(CheckpointPolicy::DiscardWMsa);
        assert!((l_plain - l_ck).abs() < 1e-5, "{l_plain} vs {l_ck}");
        for (a, b) in g_plain.iter().zip(&g_ck) {
            assert!(a.allclose(b, 1e-4), "checkpointed grads must match plain");
        }
        assert!(
            m_ck.current < m_plain.current,
            "checkpointing must shrink the resident tape: {} vs {}",
            m_ck.current,
            m_plain.current
        );
    }

    #[test]
    fn from_state_reconstructs_exactly() {
        let cfg = tiny();
        let m1 = SwinSurrogate::new(cfg.clone(), 123);
        let state = state_dict(&m1);
        let m2 = SwinSurrogate::from_state(cfg.clone(), &state);
        for (a, b) in m1.params().iter().zip(m2.params().iter()) {
            assert_eq!(a.value().as_slice(), b.value().as_slice());
        }
        // Identical forwards on identical input.
        let (x3, x2) = inputs(&cfg, 1, 9);
        let run = |m: &SwinSurrogate| {
            let mut g = Graph::inference();
            let a = g.constant(x3.clone());
            let b = g.constant(x2.clone());
            let (o3, _) = m.forward(&mut g, a, b);
            g.value(o3).clone()
        };
        assert_eq!(run(&m1).as_slice(), run(&m2).as_slice());
    }

    #[test]
    fn boundary_frames_influence_prediction() {
        // Zero out the boundary frames: the forecast must change — the
        // model genuinely consumes future boundary conditions (the paper's
        // key difference from global weather surrogates).
        let cfg = tiny();
        let model = SwinSurrogate::new(cfg.clone(), 0);
        let (x3, x2) = inputs(&cfg, 1, 4);
        let run = |x3: Tensor, x2: Tensor| {
            let mut g = Graph::inference();
            let a = g.constant(x3);
            let b = g.constant(x2);
            let (o3, _) = model.forward(&mut g, a, b);
            g.value(o3).clone()
        };
        let base = run(x3.clone(), x2.clone());
        // Zero frames 1.. of x3d (keep the IC).
        let mut x3z = x3.clone();
        {
            let t_in = cfg.t_in();
            let n = x3z.numel();
            let data = x3z.as_mut_slice();
            for (i, v) in data.iter_mut().enumerate() {
                if i % t_in != 0 {
                    *v = 0.0;
                }
            }
            let _ = n;
        }
        let changed = run(x3z, x2);
        assert!(
            base.max_abs_diff(&changed) > 1e-5,
            "boundary frames must matter"
        );
    }
}
