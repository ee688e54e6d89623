//! Kernel-parity harness: every SIMD kernel against the scalar oracle.
//!
//! Two layers of checks:
//!
//! 1. **Raw kernel parity** — the public `simd::*` dispatch functions run
//!    once at the detected wide level and once pinned to
//!    `SimdLevel::Scalar`, over hostile inputs: odd lengths, non-lane-
//!    multiple tails, subnormals, extreme magnitudes, signed zeros,
//!    infinities and NaNs. Agreement is bitwise-or-tolerance: a pair
//!    passes if the bit patterns match, both are NaN, or the difference
//!    is within the per-kernel bound (transcendentals are polynomial
//!    approximations, so exact equality is not the contract there).
//! 2. **Backend parity + thread invariance** — `Blocked` with
//!    `par_threshold = 1` (forcing every rayon path) against `ScalarRef`
//!    through the `Backend` trait, and a bitwise thread-invariance sweep
//!    at 1/2/4/8 worker threads: identical output bits regardless of
//!    thread count, which is the determinism guarantee Blocked v2 makes.
//!
//! On a host without the wide instruction set, the raw-parity properties
//! compare scalar to scalar — vacuous but harmless; the thread-invariance
//! sweep still exercises the parallel partitioning logic.

use std::sync::Arc;

use ctensor::backend::{self, AttentionSpec, Backend, Blocked, MatmulSpec, ScalarRef, UnaryOp};
use ctensor::simd::{self, SimdLevel};
use ctensor::tensor::Tensor;
use proptest::prelude::*;

// ------------------------------------------------------------ generators

/// splitmix64 step, used to derive per-element value classes.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic hostile value stream: mostly moderate magnitudes, salted
/// with subnormals, huge values, signed zeros, and (optionally)
/// infinities and NaNs.
fn hostile_values(seed: u64, len: usize, nonfinite: bool) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = mix(seed ^ mix(i as u64 ^ 0x51DE_AD00));
            let sign = if h & 1 == 0 { 1.0f32 } else { -1.0 };
            let unit = ((h >> 16) & 0xFFFF) as f32 / 65536.0; // [0, 1)
            match (h >> 8) % 16 {
                0..=9 => sign * (unit * 12.0 - 6.0).abs() * sign, // [-6, 6]
                10 => sign * unit * 1.0e4,                        // extreme magnitude
                11 => sign * f32::from_bits(((h >> 24) as u32 & 0x007F_FFFF).max(1)), // subnormal
                12 => sign * 1.0e30,
                13 => sign * 0.0, // signed zero
                14 if nonfinite => sign * f32::INFINITY,
                15 if nonfinite => f32::NAN,
                _ => sign * unit * 4.0,
            }
        })
        .collect()
}

/// Well-scaled values (for reduction-heavy kernels where NaN/inf would
/// swallow the whole output and hide real divergence).
fn moderate_values(seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = mix(seed ^ mix(i as u64));
            let unit = ((h >> 16) & 0xFFFF) as f32 / 65536.0;
            (unit * 8.0 - 4.0) * if h & 1 == 0 { 1.0 } else { -1.0 }
        })
        .collect()
}

// ------------------------------------------------------------ comparison

/// Bitwise-or-tolerance agreement: identical bits, both-NaN, or
/// `|fast - oracle| <= abs + rel * max(|fast|, |oracle|)`. Mismatched
/// infinities fail (difference is inf/NaN, never within tolerance).
fn assert_parity(tag: &str, fast: &[f32], oracle: &[f32], rel: f32, abs: f32) {
    assert_eq!(fast.len(), oracle.len(), "{tag}: length mismatch");
    for (i, (&f, &o)) in fast.iter().zip(oracle).enumerate() {
        if f.to_bits() == o.to_bits() || (f.is_nan() && o.is_nan()) {
            continue;
        }
        let tol = abs + rel * f.abs().max(o.abs());
        assert!(
            (f - o).abs() <= tol,
            "{tag}[{i}]: simd {f:e} vs scalar {o:e} (tol {tol:e})"
        );
    }
}

fn assert_bitwise(tag: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{tag}[{i}]: {g:e} vs {w:e} (bitwise)"
        );
    }
}

// ----------------------------------------------------- raw kernel parity

type MapFn = fn(SimdLevel, &[f32], &mut [f32]);
type MapInplaceFn = fn(SimdLevel, &mut [f32]);

/// Every elementwise kernel pair with its tolerance and whether its
/// non-finite behavior is part of the parity contract.
const ELEMENTWISE: &[(&str, MapFn, MapInplaceFn, f32, f32, bool)] = &[
    (
        "exp",
        simd::exp_slice,
        simd::exp_slice_inplace,
        2e-6,
        1e-37,
        true,
    ),
    (
        "tanh",
        simd::tanh_slice,
        simd::tanh_slice_inplace,
        2e-6,
        1e-6,
        true,
    ),
    (
        "gelu",
        simd::gelu_slice,
        simd::gelu_slice_inplace,
        1e-5,
        1e-6,
        true,
    ),
    (
        "gelu_grad",
        simd::gelu_grad_slice,
        simd::gelu_grad_slice_inplace,
        1e-5,
        1e-6,
        true,
    ),
];

proptest! {
    /// Elementwise SIMD kernels match the scalar oracle over hostile
    /// inputs (ragged tails, subnormals, extremes, NaN/inf), and the
    /// in-place variants are bitwise identical to the out-of-place ones.
    #[test]
    fn elementwise_kernels_match_scalar_oracle(len in 0usize..200, seed in 0u64..1_000_000_000) {
        let wide = simd::level();
        for &(name, map, map_inplace, rel, abs, nonfinite) in ELEMENTWISE {
            let x = hostile_values(seed, len, nonfinite);
            let mut fast = vec![0.0f32; len];
            let mut oracle = vec![0.0f32; len];
            map(wide, &x, &mut fast);
            map(SimdLevel::Scalar, &x, &mut oracle);
            assert_parity(name, &fast, &oracle, rel, abs);
            // In-place runs the same lane code over the same split.
            let mut inplace = x.clone();
            map_inplace(wide, &mut inplace);
            assert_bitwise(&format!("{name}_inplace"), &inplace, &fast);
        }
    }

    /// SIMD softmax (lane-wise max reduction) matches the scalar row
    /// kernel, stays normalized for finite rows, and survives logits
    /// spanning ±1e4.
    #[test]
    fn softmax_row_matches_scalar_oracle(
        n in 1usize..96,
        seed in 0u64..1_000_000_000,
        magnitude in 0usize..3,
    ) {
        let wide = simd::level();
        let scale = [1.0f32, 1.0e4, 1.0e4][magnitude];
        let mut x = moderate_values(seed, n);
        if magnitude > 0 {
            for v in &mut x {
                *v *= scale / 4.0; // logits spanning roughly ±1e4
            }
        }
        if magnitude == 2 && n > 1 {
            x[n / 2] = f32::NEG_INFINITY; // masked-out position
        }
        let mut fast = vec![0.0f32; n];
        let mut oracle = vec![0.0f32; n];
        simd::softmax_row(wide, &x, &mut fast);
        simd::softmax_row(SimdLevel::Scalar, &x, &mut oracle);
        assert_parity("softmax_row", &fast, &oracle, 1e-5, 1e-6);
        let sum: f32 = fast.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "softmax sum {sum} (n={n})");
        prop_assert!(fast.iter().all(|v| v.is_finite()), "non-finite prob");
    }

    /// dot / axpy / the 4x16 microkernel match naive reference loops.
    #[test]
    fn dot_axpy_microkernel_match_naive(k in 1usize..80, seed in 0u64..1_000_000_000) {
        let wide = simd::level();
        let a = moderate_values(seed, k);
        let b = moderate_values(seed ^ 0xABCD, k);
        let tol = 1e-6 * k as f32;

        let d = simd::dot(wide, &a, &b);
        let dref: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert!((d - dref).abs() <= tol + 1e-5 * dref.abs(), "dot {d} vs {dref}");

        let mut acc = moderate_values(seed ^ 0x5A5A, k);
        let accref: Vec<f32> = acc.iter().zip(&a).map(|(c, x)| c + 0.37 * x).collect();
        simd::axpy(wide, 0.37, &a, &mut acc);
        assert_parity("axpy", &acc, &accref, 1e-5, tol);

        // Microkernel: C[4x16] += A[k x 4] * B[k x 16] in packed layouts.
        let apack = moderate_values(seed ^ 0x77, k * 4);
        let bpack = moderate_values(seed ^ 0x99, k * 16);
        let mut acc = [[0.0f32; 16]; 4];
        simd::microkernel_4x16(wide, &apack, &bpack, k, &mut acc);
        for r in 0..4 {
            for c in 0..16 {
                let want: f32 = (0..k).map(|p| apack[p * 4 + r] * bpack[p * 16 + c]).sum();
                prop_assert!(
                    (acc[r][c] - want).abs() <= tol + 1e-5 * want.abs(),
                    "microkernel[{r}][{c}]: {} vs {want}",
                    acc[r][c]
                );
            }
        }
    }

    /// Fused attention block kernels (scores and P·V, including the d=8
    /// fast paths) match the scalar block kernels.
    #[test]
    fn attention_blocks_match_scalar_oracle(
        ib in 1usize..9,
        n in 1usize..40,
        d in 1usize..13,
        seed in 0u64..1_000_000_000,
    ) {
        let wide = simd::level();
        let q = moderate_values(seed, ib * d);
        let k = moderate_values(seed ^ 0x1111, n * d);
        let v = moderate_values(seed ^ 0x2222, n * d);
        let scale = 1.0 / (d as f32).sqrt();

        let mut fast = vec![f32::NAN; ib * n];
        let mut oracle = vec![f32::NAN; ib * n];
        simd::attn_scores_block(wide, &q, &k, &mut fast, ib, n, d, scale);
        simd::attn_scores_block(SimdLevel::Scalar, &q, &k, &mut oracle, ib, n, d, scale);
        assert_parity("attn_scores", &fast, &oracle, 1e-5, 1e-6 * d as f32);

        let probs = moderate_values(seed ^ 0x3333, ib * n);
        let mut fast = vec![f32::NAN; ib * d];
        let mut oracle = vec![f32::NAN; ib * d];
        simd::attn_pv_block(wide, &probs, &v, &mut fast, ib, n, d);
        simd::attn_pv_block(SimdLevel::Scalar, &probs, &v, &mut oracle, ib, n, d);
        assert_parity("attn_pv", &fast, &oracle, 1e-5, 1e-6 * n as f32);
    }
}

// --------------------------------------------------------- backend parity

fn blocked_wide() -> Arc<dyn Backend> {
    Arc::new(Blocked::with_simd(1, simd::level()))
}

proptest! {
    /// `Blocked` elementwise ops through the `Backend` trait (covering the
    /// fixed-chunk parallel split and its ragged tail) match `ScalarRef`.
    #[test]
    fn backend_unary_matches_scalar_ref(len in 0usize..9000, seed in 0u64..1_000_000_000) {
        let fast_be = blocked_wide();
        let x = hostile_values(seed, len, true);
        for (op, rel, abs) in [
            (UnaryOp::Exp, 2e-6f32, 1e-37f32),
            (UnaryOp::Tanh, 2e-6, 1e-6),
            (UnaryOp::Gelu, 1e-5, 1e-6),
            (UnaryOp::GeluGrad, 1e-5, 1e-6),
        ] {
            let mut fast = vec![0.0f32; len];
            let mut oracle = vec![0.0f32; len];
            fast_be.unary(op, &x, &mut fast);
            ScalarRef.unary(op, &x, &mut oracle);
            assert_parity(&format!("backend {op:?}"), &fast, &oracle, rel, abs);
            let mut inplace = x.clone();
            fast_be.unary_inplace(op, &mut inplace);
            assert_bitwise(&format!("backend {op:?} inplace"), &inplace, &fast);
        }
    }

    /// Batched matmul (+fused bias) under `Blocked` (GEBP microkernel,
    /// rayon row split) agrees with `ScalarRef` within FMA-reassociation
    /// tolerance.
    #[test]
    fn backend_matmul_matches_scalar_ref(
        m in 1usize..20,
        k in 1usize..48,
        n in 1usize..40,
        batch in 1usize..4,
        with_bias in 0usize..2,
        seed in 0u64..1_000_000_000,
    ) {
        let fast_be = blocked_wide();
        let a = moderate_values(seed, batch * m * k);
        let b = moderate_values(seed ^ 0xB00, batch * k * n);
        let bias = moderate_values(seed ^ 0xB1A5, n);
        let offsets: Vec<(usize, usize)> = (0..batch).map(|i| (i, i)).collect();
        let spec = MatmulSpec {
            m,
            k,
            n,
            batch_offsets: &offsets,
            bias: if with_bias == 1 { Some(&bias) } else { None },
        };
        // Per the trait contract `out` is pre-zeroed (gebp accumulates).
        let mut fast = vec![0.0f32; batch * m * n];
        let mut oracle = vec![0.0f32; batch * m * n];
        fast_be.matmul(&a, &b, &mut fast, &spec);
        ScalarRef.matmul(&a, &b, &mut oracle, &spec);
        assert_parity("backend matmul", &fast, &oracle, 1e-5, 1e-6 * k as f32);
    }

    /// Fused attention under `Blocked` (blocked scores + SIMD softmax +
    /// P·V, optional additive mask) agrees with `ScalarRef`.
    #[test]
    fn backend_attention_matches_scalar_ref(
        bh in 1usize..6,
        n in 1usize..24,
        d in 1usize..12,
        masked in 0usize..2,
        seed in 0u64..1_000_000_000,
    ) {
        let fast_be = blocked_wide();
        let q = moderate_values(seed, bh * n * d);
        let k = moderate_values(seed ^ 0x4444, bh * n * d);
        let v = moderate_values(seed ^ 0x5555, bh * n * d);
        // Additive mask with a few large-negative (masked-out) entries,
        // never a fully-masked row (row 0 stays open).
        let mask: Vec<f32> = (0..n * n)
            .map(|i| if masked == 1 && i % 7 == 3 && i >= n { -1.0e9 } else { 0.0 })
            .collect();
        let spec = AttentionSpec {
            batch: bh,
            heads: 1,
            n,
            d,
            scale: 1.0 / (d as f32).sqrt(),
            mask: if masked == 1 { Some(&mask) } else { None },
            mask_windows: 1,
        };
        let mut fast = vec![f32::NAN; bh * n * d];
        let mut oracle = vec![f32::NAN; bh * n * d];
        fast_be.attention(&q, &k, &v, &mut fast, &spec);
        ScalarRef.attention(&q, &k, &v, &mut oracle, &spec);
        assert_parity("backend attention", &fast, &oracle, 1e-5, 1e-5);
    }

    /// `sum` under `Blocked` (positional f64 partials) matches the serial
    /// `ScalarRef` accumulation to f64 round-off.
    #[test]
    fn backend_sum_matches_scalar_ref(len in 0usize..20_000, seed in 0u64..1_000_000_000) {
        let fast_be = blocked_wide();
        let x = moderate_values(seed, len);
        let fast = fast_be.sum(&x);
        let oracle = ScalarRef.sum(&x);
        prop_assert!(
            (fast - oracle).abs() <= 1e-9 + 1e-10 * oracle.abs(),
            "sum {fast} vs {oracle} (len {len})"
        );
    }
}

/// Softmax over rows with logits spanning ±1e4 at the tensor level: the
/// SIMD lane-wise max reduction must keep extreme rows normalized under
/// both backends (satellite: softmax numerical-stability under SIMD).
#[test]
fn softmax_extreme_logits_backend_parity() {
    let rows = 7usize;
    let n = 61usize;
    let mut data = moderate_values(0xEE, rows * n);
    for (i, v) in data.iter_mut().enumerate() {
        *v *= 2.5e3; // spread logits across roughly ±1e4
        if i % 13 == 5 {
            *v = -1.0e4;
        }
        if i % 17 == 2 {
            *v = 1.0e4;
        }
    }
    let t = Tensor::from_vec(data, &[rows, n]);
    let run = |be: Arc<dyn Backend>| {
        let _g = backend::scoped(be);
        t.softmax_last()
    };
    let fast = run(blocked_wide());
    let oracle = run(Arc::new(ScalarRef));
    assert_parity(
        "softmax_last ±1e4",
        fast.as_slice(),
        oracle.as_slice(),
        1e-5,
        1e-6,
    );
    for r in 0..rows {
        let s: f32 = fast.as_slice()[r * n..(r + 1) * n].iter().sum();
        assert!((s - 1.0).abs() < 1e-4, "row {r} sum {s}");
        assert!(
            fast.as_slice()[r * n..(r + 1) * n]
                .iter()
                .all(|v| v.is_finite()),
            "row {r} has non-finite probabilities"
        );
    }
}

// ------------------------------------------------------ thread invariance

/// Bit patterns of every parallel-path workload under `Blocked` with
/// `par_threshold = 1` (all rayon paths active).
fn parallel_workload_bits(be: &dyn Backend) -> Vec<u64> {
    let mut bits: Vec<u64> = Vec::new();
    fn push(bits: &mut Vec<u64>, s: &[f32]) {
        bits.extend(s.iter().map(|v| u64::from(v.to_bits())));
    }

    // Elementwise: several fixed 4096-chunks plus a ragged tail, salted
    // with specials (NaN propagation must also be thread-invariant).
    let x = hostile_values(0xC0FFEE, 3 * 4096 + 123, true);
    let mut out = vec![0.0f32; x.len()];
    be.unary(UnaryOp::Gelu, &x, &mut out);
    push(&mut bits, &out);
    be.unary(UnaryOp::Exp, &x, &mut out);
    push(&mut bits, &out);

    // Reduction: positional partials must fold in a fixed order.
    let y = moderate_values(0xFACADE, 3 * 4096 + 777);
    bits.push(be.sum(&y).to_bits());

    // Row-split kernels on odd, non-lane-multiple shapes.
    let rows = 37usize;
    let cols = 61usize;
    let z = moderate_values(0x50F7, rows * cols);
    let mut out = vec![0.0f32; z.len()];
    be.softmax_rows(&z, &mut out, cols);
    push(&mut bits, &out);
    be.layernorm_rows(&z, &mut out, cols, 1e-5);
    push(&mut bits, &out);

    // Batched matmul across the row/batch split decision points.
    let (m, k, n, batch) = (13usize, 29usize, 31usize, 3usize);
    let a = moderate_values(0xA0, batch * m * k);
    let b = moderate_values(0xB0, batch * k * n);
    let bias = moderate_values(0xBB, n);
    let offsets: Vec<(usize, usize)> = (0..batch).map(|i| (i, i)).collect();
    let spec = MatmulSpec {
        m,
        k,
        n,
        batch_offsets: &offsets,
        bias: Some(&bias),
    };
    let mut out = vec![0.0f32; batch * m * n];
    be.matmul(&a, &b, &mut out, &spec);
    push(&mut bits, &out);

    // Fused attention (d=8 fast path) across the batch split.
    let (bh, an, ad) = (5usize, 33usize, 8usize);
    let q = moderate_values(0x01, bh * an * ad);
    let kk = moderate_values(0x02, bh * an * ad);
    let v = moderate_values(0x03, bh * an * ad);
    let spec = AttentionSpec {
        batch: bh,
        heads: 1,
        n: an,
        d: ad,
        scale: 1.0 / (ad as f32).sqrt(),
        mask: None,
        mask_windows: 1,
    };
    let mut out = vec![0.0f32; bh * an * ad];
    be.attention(&q, &kk, &v, &mut out, &spec);
    push(&mut bits, &out);

    bits
}

/// Blocked v2's determinism guarantee: identical output bits at 1, 2, 4
/// and 8 worker threads, for every parallel code path.
#[test]
fn parallel_paths_are_thread_count_invariant() {
    let be = blocked_wide();
    let mut reference: Option<(usize, Vec<u64>)> = None;
    for &threads in &[1usize, 2, 4, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("thread pool override");
        let bits = parallel_workload_bits(be.as_ref());
        match &reference {
            None => reference = Some((threads, bits)),
            Some((t0, want)) => {
                assert_eq!(bits.len(), want.len());
                for (i, (g, w)) in bits.iter().zip(want).enumerate() {
                    assert_eq!(
                        g, w,
                        "output bit pattern diverged at word {i}: {threads} threads vs {t0} threads"
                    );
                }
            }
        }
    }
    // Restore the default pool size for the rest of the test binary.
    rayon::ThreadPoolBuilder::new()
        .build_global()
        .expect("restore thread pool default");
}
