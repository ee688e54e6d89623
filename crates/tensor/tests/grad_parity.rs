//! Gradient-parity harness: the tape's backward kernels against central
//! finite differences and against the scalar reference backend.
//!
//! Two layers of checks, mirroring `kernel_parity.rs` on the forward side:
//!
//! 1. **Finite-difference parity** — for every op with a hand-written
//!    backward kernel (matmul, linear+bias, gelu/relu/tanh, softmax rows,
//!    layer norm, fused attention), the tape gradient of a scalar loss is
//!    compared against central differences over hostile shapes: odd,
//!    non-lane-multiple dimensions that exercise packing tails.
//! 2. **Backend gradient parity** — the same backward pass run once under
//!    `Blocked` (wide SIMD) and once under `ScalarRef`; gradients must
//!    agree within FMA-reassociation tolerance.

use std::sync::Arc;

use ctensor::autograd::{Graph, Var};
use ctensor::backend::{self, Backend, Blocked, ScalarRef};
use ctensor::simd;
use ctensor::tensor::Tensor;
use proptest::prelude::*;

// ------------------------------------------------------------ generators

/// splitmix64 step (same stream family as `kernel_parity.rs`).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Well-scaled deterministic values in roughly [-2, 2] — finite differences
/// in f32 need moderate magnitudes to resolve the slope at `h = 1e-2`.
fn values(seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = mix(seed ^ mix(i as u64 ^ 0x6A09_E667));
            let unit = ((h >> 16) & 0xFFFF) as f32 / 65536.0;
            (unit * 4.0 - 2.0) * 0.9
        })
        .collect()
}

/// Values bounded away from zero (for the relu kink — FD is meaningless
/// when a perturbation crosses it).
fn values_off_kink(seed: u64, len: usize) -> Vec<f32> {
    values(seed, len)
        .into_iter()
        .map(|v| if v.abs() < 0.05 { 0.1 + v } else { v })
        .collect()
}

fn blocked_wide() -> Arc<dyn Backend> {
    Arc::new(Blocked::with_simd(simd::level()))
}

// ------------------------------------------------- finite-difference parity

/// Compare the tape gradient of the scalar-valued composite `build` against
/// central finite differences, elementwise:
/// `|analytic - fd| <= tol * (1 + |fd|)`.
fn check_grad_fd(build: &dyn Fn(&mut Graph, Var) -> Var, x0: &Tensor, tol: f32) {
    let mut g = Graph::new();
    let x = g.leaf(x0.clone());
    let out = build(&mut g, x);
    assert_eq!(g.value(out).numel(), 1, "check_grad_fd needs a scalar loss");
    let grads = g.backward(out);
    let analytic = grads.get(x).expect("no gradient reached the leaf").clone();

    let h = 1e-2f32;
    let eval = |xt: Tensor| {
        let mut g = Graph::inference();
        let x = g.leaf(xt);
        let o = build(&mut g, x);
        g.value(o).item()
    };
    for i in 0..x0.numel() {
        let mut xp = x0.clone();
        xp.as_mut_slice()[i] += h;
        let mut xm = x0.clone();
        xm.as_mut_slice()[i] -= h;
        let fd = (eval(xp) - eval(xm)) / (2.0 * h);
        let a = analytic.as_slice()[i];
        assert!(
            (a - fd).abs() <= tol * (1.0 + fd.abs()),
            "grad[{i}]: analytic {a} vs fd {fd} (tol {tol})"
        );
    }
}

proptest! {

    /// Matmul adjoints (dA = g·Bᵀ through the strided-GEBP path, dB = Aᵀ·g)
    /// against finite differences, for both operands, over odd shapes.
    #[test]
    fn fd_matmul_grads(m in 1usize..7, k in 1usize..9, n in 1usize..8, seed in 0u64..1_000_000) {
        let _be = backend::scoped(blocked_wide());
        let a0 = Tensor::from_vec(values(seed, m * k), &[m, k]);
        let b0 = Tensor::from_vec(values(seed ^ 0xB, k * n), &[k, n]);
        let bc = b0.clone();
        check_grad_fd(&move |g, x| {
            let w = g.constant(bc.clone());
            let y = g.matmul(x, w);
            g.sum_all(y)
        }, &a0, 2e-2);
        let ac = a0.clone();
        check_grad_fd(&move |g, x| {
            let a = g.constant(ac.clone());
            let y = g.matmul(a, x);
            g.sum_all(y)
        }, &b0, 2e-2);
    }

    /// Linear-layer bias gradient (the `col_sums` column-reduction kernel)
    /// against finite differences.
    #[test]
    fn fd_linear_bias_grad(rows in 1usize..9, k in 1usize..7, n in 1usize..9, seed in 0u64..1_000_000) {
        let _be = backend::scoped(blocked_wide());
        let x0 = Tensor::from_vec(values(seed, rows * k), &[rows, k]);
        let w0 = Tensor::from_vec(values(seed ^ 0x17, k * n), &[k, n]);
        let b0 = Tensor::from_vec(values(seed ^ 0x2F, n), &[n]);
        check_grad_fd(&move |g, bias| {
            let x = g.constant(x0.clone());
            let w = g.constant(w0.clone());
            let y = g.linear(x, w, Some(bias));
            // Square so the bias gradient depends on the output, not just
            // the (constant) row count.
            let y2 = g.square(y);
            g.sum_all(y2)
        }, &b0, 2e-2);
    }

    /// Elementwise backward kernels (GeluGrad / ReluGrad / TanhGrad routed
    /// through `UnaryOp`) against finite differences.
    #[test]
    fn fd_activation_grads(len in 1usize..40, seed in 0u64..1_000_000) {
        let _be = backend::scoped(blocked_wide());
        let x0 = Tensor::from_vec(values_off_kink(seed, len), &[len]);
        check_grad_fd(&|g, x| { let y = g.gelu(x); g.sum_all(y) }, &x0, 2e-2);
        check_grad_fd(&|g, x| { let y = g.relu(x); g.sum_all(y) }, &x0, 2e-2);
        check_grad_fd(&|g, x| { let y = g.tanh(x); let y2 = g.square(y); g.sum_all(y2) }, &x0, 2e-2);
    }

    /// Fused softmax and layer-norm row gradients against finite
    /// differences (weighted loss so every row position gets a distinct
    /// adjoint).
    #[test]
    fn fd_softmax_and_layernorm_grads(rows in 1usize..5, n in 2usize..11, seed in 0u64..1_000_000) {
        let _be = backend::scoped(blocked_wide());
        let x0 = Tensor::from_vec(values(seed, rows * n), &[rows, n]);
        let w = Tensor::from_vec(values(seed ^ 0x55AA, rows * n), &[rows, n]);
        let wc = w.clone();
        check_grad_fd(&move |g, x| {
            let y = g.softmax_last(x);
            let w = g.constant(wc.clone());
            let yw = g.mul(y, w);
            g.sum_all(yw)
        }, &x0, 3e-2);
        let wc = w.clone();
        check_grad_fd(&move |g, x| {
            let y = g.layer_norm(x, 1e-5);
            let w = g.constant(wc.clone());
            let yw = g.mul(y, w);
            g.sum_all(yw)
        }, &x0, 3e-2);
    }

    /// Fused attention backward (probability replay + three strided-GEBP
    /// adjoints) against finite differences for q, k and v, with and
    /// without an additive window mask.
    #[test]
    fn fd_attention_grads(
        b in 1usize..3,
        n in 2usize..7,
        d in 1usize..5,
        masked in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let _be = backend::scoped(blocked_wide());
        let h = 2usize;
        let shape = [b, h, n, d];
        let sz = b * h * n * d;
        let q0 = Tensor::from_vec(values(seed, sz), &shape);
        let k0 = Tensor::from_vec(values(seed ^ 0x1111, sz), &shape);
        let v0 = Tensor::from_vec(values(seed ^ 0x2222, sz), &shape);
        let mask = (masked == 1).then(|| {
            Tensor::from_vec(
                (0..n * n).map(|i| if i % 5 == 3 { -1.0e9 } else { 0.0 }).collect(),
                &[1, n, n],
            )
        });
        let scale = 1.0 / (d as f32).sqrt();
        let w = Tensor::from_vec(values(seed ^ 0x7777, sz), &shape);

        // Differentiate w.r.t. each operand in turn, holding the others.
        for leaf_idx in 0..3 {
            let (q0, k0, v0) = (q0.clone(), k0.clone(), v0.clone());
            let (mask, w) = (mask.clone(), w.clone());
            let x0 = [&q0, &k0, &v0][leaf_idx].clone();
            check_grad_fd(&move |g, x| {
                let ops: [Var; 3] = match leaf_idx {
                    0 => [x, g.constant(k0.clone()), g.constant(v0.clone())],
                    1 => [g.constant(q0.clone()), x, g.constant(v0.clone())],
                    _ => [g.constant(q0.clone()), g.constant(k0.clone()), x],
                };
                let y = g.attention(ops[0], ops[1], ops[2], mask.as_ref(), scale);
                let w = g.constant(w.clone());
                let yw = g.mul(y, w);
                g.sum_all(yw)
            }, &x0, 3e-2);
        }
    }
}

// ------------------------------------------------- backend gradient parity

/// Forward + backward of a composite touching every backward kernel; the
/// shared leaf `x` feeds two consumers so gradient accumulation runs too.
/// Returns every leaf gradient concatenated.
fn composite_grads(be: Arc<dyn Backend>, rows: usize, k: usize, n: usize) -> Vec<f32> {
    let _be = backend::scoped(be);
    let x0 = Tensor::from_vec(values(0xF00D, rows * k), &[rows, k]);
    let w0 = Tensor::from_vec(values(0xBEEF, k * n), &[k, n]);
    let b0 = Tensor::from_vec(values(0xCAFE, n), &[n]);

    let mut g = Graph::new();
    let x = g.leaf(x0);
    let w = g.leaf(w0);
    let b = g.leaf(b0);
    let lin = g.linear(x, w, Some(b));
    let act = g.gelu(lin);
    let norm = g.layer_norm(act, 1e-5);
    let probs = g.softmax_last(norm);
    // Second consumer of x: tanh branch merged in (exercises accumulation).
    let t = g.tanh(x);
    let tw = g.matmul(t, w);
    let merged = g.add(probs, tw);
    let loss = g.sum_all(merged);
    let grads = g.backward(loss);

    let mut out = Vec::new();
    for leaf in [x, w, b] {
        out.extend_from_slice(grads.get(leaf).expect("missing leaf grad").as_slice());
    }
    out
}

/// Attention gradients for fixed inputs under a given backend.
fn attention_grads(be: Arc<dyn Backend>, b: usize, n: usize, d: usize) -> Vec<f32> {
    let _be = backend::scoped(be);
    let h = 2usize;
    let sz = b * h * n * d;
    let shape = [b, h, n, d];
    let mk = |seed: u64| Tensor::from_vec(values(seed, sz), &shape);
    let mask = Tensor::from_vec(
        (0..n * n)
            .map(|i| if i % 7 == 2 { -1.0e9 } else { 0.0 })
            .collect(),
        &[1, n, n],
    );
    let mut g = Graph::new();
    let (q, k, v) = (g.leaf(mk(1)), g.leaf(mk(2)), g.leaf(mk(3)));
    let y = g.attention(q, k, v, Some(&mask), 1.0 / (d as f32).sqrt());
    let w = g.constant(mk(4));
    let yw = g.mul(y, w);
    let loss = g.sum_all(yw);
    let grads = g.backward(loss);
    let mut out = Vec::new();
    for leaf in [q, k, v] {
        out.extend_from_slice(grads.get(leaf).expect("missing grad").as_slice());
    }
    out
}

proptest! {

    /// The full backward pass under `Blocked` (SIMD kernels) matches
    /// `ScalarRef` within reassociation tolerance.
    #[test]
    fn backward_matches_scalar_backend(rows in 1usize..24, k in 1usize..20, n in 1usize..24) {
        let fast = composite_grads(blocked_wide(), rows, k, n);
        let oracle = composite_grads(Arc::new(ScalarRef), rows, k, n);
        prop_assert_eq!(fast.len(), oracle.len());
        for (i, (f, o)) in fast.iter().zip(&oracle).enumerate() {
            let tol = 1e-4 + 2e-4 * o.abs();
            prop_assert!((f - o).abs() <= tol, "grad[{}]: blocked {} vs scalar {}", i, f, o);
        }
    }

    /// Attention backward under `Blocked` matches `ScalarRef`.
    #[test]
    fn attention_backward_matches_scalar_backend(b in 1usize..4, n in 2usize..16, d in 1usize..10) {
        let fast = attention_grads(blocked_wide(), b, n, d);
        let oracle = attention_grads(Arc::new(ScalarRef), b, n, d);
        prop_assert_eq!(fast.len(), oracle.len());
        for (i, (f, o)) in fast.iter().zip(&oracle).enumerate() {
            let tol = 1e-4 + 2e-4 * o.abs();
            prop_assert!((f - o).abs() <= tol, "attn grad[{}]: blocked {} vs scalar {}", i, f, o);
        }
    }
}
