//! Optimizers: SGD (with momentum), Adam, AdamW; global-norm clipping.
//!
//! Both `step` methods run as fused single-pass kernels through the active
//! [`Backend`](crate::backend::Backend) (`sgd_step` / `adam_step`): one sweep
//! over params+grads+moments, no per-op temporaries. Moment buffers are
//! zero-initialized on first use, which is bitwise-identical to the
//! "first step copies the gradient" formulation (`0·β + x` rounds to `x·(1−β)`
//! exactly).

use crate::autograd::Param;
use crate::backend::{self, AdamStepSpec};
use crate::tensor::Tensor;

/// Clip gradients so the global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Param], max_norm: f32) -> f32 {
    let mut total = 0.0f64;
    for p in params {
        if let Some(g) = p.grad() {
            total += g
                .as_slice()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>();
        }
    }
    let norm = (total.sqrt()) as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(g) = p.grad() {
                p.zero_grad();
                p.accum_grad(&g.scale(scale));
            }
        }
    }
    norm
}

/// Zero every parameter's gradient.
pub fn zero_grads(params: &[Param]) {
    for p in params {
        p.zero_grad();
    }
}

/// Stochastic gradient descent with optional momentum.
pub struct Sgd {
    params: Vec<Param>,
    velocity: Vec<Option<Tensor>>,
    pub lr: f32,
    pub momentum: f32,
}

impl Sgd {
    pub fn new(params: Vec<Param>, lr: f32, momentum: f32) -> Self {
        let n = params.len();
        Self {
            params,
            velocity: (0..n).map(|_| None).collect(),
            lr,
            momentum,
        }
    }

    /// Apply one update using accumulated gradients, then clear them.
    ///
    /// Runs the fused [`Backend::sgd_step`](crate::backend::Backend::sgd_step)
    /// kernel in place on the parameter (and velocity) buffers.
    pub fn step(&mut self) {
        let be = backend::current();
        for (i, p) in self.params.iter().enumerate() {
            let Some(g) = p.grad() else { continue };
            let mut val = p.value();
            if self.momentum > 0.0 {
                let vel = self.velocity[i].get_or_insert_with(|| Tensor::zeros(val.shape()));
                be.sgd_step(
                    val.as_mut_slice(),
                    g.as_slice(),
                    Some(vel.as_mut_slice()),
                    self.lr,
                    self.momentum,
                );
            } else {
                be.sgd_step(
                    val.as_mut_slice(),
                    g.as_slice(),
                    None,
                    self.lr,
                    self.momentum,
                );
            }
            p.set_value(val);
            p.zero_grad();
        }
    }
}

/// Adam / AdamW. `weight_decay > 0` applies decoupled decay (AdamW).
pub struct Adam {
    params: Vec<Param>,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
    t: i32,
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
}

impl Adam {
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        let n = params.len();
        Self {
            params,
            m: (0..n).map(|_| None).collect(),
            v: (0..n).map(|_| None).collect(),
            t: 0,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }

    /// AdamW constructor with decoupled weight decay.
    pub fn adamw(params: Vec<Param>, lr: f32, weight_decay: f32) -> Self {
        let mut a = Self::new(params, lr);
        a.weight_decay = weight_decay;
        a
    }

    /// Parameters managed by this optimizer.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Step counter (number of `step` calls applied so far).
    pub fn t(&self) -> i32 {
        self.t
    }

    /// Snapshot the moment state for checkpointing:
    /// `(step count, first moments, second moments)`. `None` entries are
    /// parameters whose moments have not been touched yet.
    pub fn state_snapshot(&self) -> (i32, Vec<Option<Tensor>>, Vec<Option<Tensor>>) {
        (self.t, self.m.clone(), self.v.clone())
    }

    /// Restore moment state captured by [`Adam::state_snapshot`]. Lengths must
    /// match the managed parameter list.
    pub fn load_state(&mut self, t: i32, m: Vec<Option<Tensor>>, v: Vec<Option<Tensor>>) {
        assert_eq!(m.len(), self.params.len(), "moment/param length mismatch");
        assert_eq!(v.len(), self.params.len(), "moment/param length mismatch");
        self.t = t;
        self.m = m;
        self.v = v;
    }

    /// Apply one Adam update using accumulated gradients, then clear them.
    ///
    /// Runs the fused [`Backend::adam_step`](crate::backend::Backend::adam_step)
    /// kernel: a single pass updating `p`, `m`, `v` in place, with
    /// reciprocal-multiply bias correction and decoupled (AdamW) decay that
    /// reads the pre-update weight.
    pub fn step(&mut self) {
        self.t += 1;
        let spec = AdamStepSpec {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            bc1: 1.0 - self.beta1.powi(self.t),
            bc2: 1.0 - self.beta2.powi(self.t),
        };
        let be = backend::current();
        for (i, p) in self.params.iter().enumerate() {
            let Some(g) = p.grad() else { continue };
            let mut val = p.value();
            let m = self.m[i].get_or_insert_with(|| Tensor::zeros(val.shape()));
            let v = self.v[i].get_or_insert_with(|| Tensor::zeros(val.shape()));
            be.adam_step(
                val.as_mut_slice(),
                g.as_slice(),
                m.as_mut_slice(),
                v.as_mut_slice(),
                &spec,
            );
            p.set_value(val);
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Graph;

    /// Run 300 steps minimizing f(w) = (w - 3)^2 with the given updater.
    fn quadratic_converges_with(p: &Param, step: &mut dyn FnMut(&Param)) -> f32 {
        for _ in 0..300 {
            let mut g = Graph::new();
            let w = g.param(p);
            let t = g.constant(Tensor::scalar(3.0));
            let d = g.sub(w, t);
            let loss = g.square(d);
            let loss_s = g.sum_all(loss);
            g.backward(loss_s);
            step(p);
        }
        p.value().item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let p = Param::new("w", Tensor::scalar(0.0));
        let mut opt = Sgd::new(vec![p.clone()], 0.1, 0.0);
        let w = quadratic_converges_with(&p, &mut |_| opt.step());
        assert!((w - 3.0).abs() < 1e-3, "w={w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let p = Param::new("w", Tensor::scalar(0.0));
        let mut opt = Sgd::new(vec![p.clone()], 0.05, 0.9);
        let w = quadratic_converges_with(&p, &mut |_| opt.step());
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Param::new("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let w = quadratic_converges_with(&p, &mut |_| opt.step());
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn adamw_decay_shrinks_weights() {
        // With zero gradient signal and weight decay, weights shrink.
        let p = Param::new("w", Tensor::scalar(10.0));
        let mut opt = Adam::adamw(vec![p.clone()], 0.1, 0.1);
        for _ in 0..10 {
            p.accum_grad(&Tensor::scalar(0.0));
            opt.step();
        }
        assert!(p.value().item() < 10.0);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let p = Param::new("w", Tensor::zeros(&[4]));
        p.accum_grad(&Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[4]));
        let pre = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let g = p.grad().unwrap();
        let post: f32 = g.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_when_below_threshold() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        p.accum_grad(&Tensor::from_vec(vec![0.1, 0.1], &[2]));
        clip_grad_norm(std::slice::from_ref(&p), 10.0);
        assert_eq!(p.grad().unwrap().as_slice(), &[0.1, 0.1]);
    }
}
