//! Runtime-detected SIMD lanes for the Blocked v2 kernels.
//!
//! Everything here comes in pairs: an `x86_64` AVX2+FMA implementation
//! (8-wide `f32` lanes via `std::arch`) and a portable scalar fallback
//! with identical semantics. Which pair member runs is decided **once**
//! per process by [`level`] — `is_x86_feature_detected!` at first use —
//! and callers may also pin a level explicitly (the kernel-parity tests
//! exercise both paths in one process).
//!
//! Numerical contract:
//!
//! - `exp`/`tanh`/`gelu` lanes use polynomial approximations (Cephes-style
//!   range reduction for `exp`) accurate to ~1 ulp; agreement with the
//!   `ScalarRef` oracle is within `1e-6` absolute for softmax/attention
//!   outputs and `1e-5` relative for raw exponentials. NaN propagates;
//!   `exp` of values beyond the f32-overflow threshold returns `inf`
//!   exactly like `f32::exp`.
//! - Lane/tail splits are **data-independent** (fixed by slice length
//!   only), so results are bitwise-identical regardless of how many rayon
//!   threads execute a kernel — required by the thread-invariance tests.

/// Lane width of the wide path (f32 elements per vector register).
pub const LANES: usize = 8;

/// Which instruction set the wide kernels use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops (also the non-x86 path).
    Scalar,
    /// AVX2 + FMA 8-wide lanes.
    Avx2Fma,
}

impl SimdLevel {
    /// Short identifier recorded into bench provenance stamps.
    pub fn feature_string(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2+fma",
        }
    }
}

/// The process-wide SIMD level: hardware detection, cached after the
/// first call.
pub fn level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        SimdLevel::Avx2Fma
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

/// Feature set of the active level (for `RunStamp` provenance).
pub fn feature_string() -> &'static str {
    level().feature_string()
}

// ====================================================== scalar reference
//
// The scalar pair members. These intentionally use `f32::exp`/`f32::tanh`
// (libm), matching the `ScalarRef` backend bit-for-bit, so a Blocked
// backend pinned to `SimdLevel::Scalar` differs from the oracle only in
// loop structure, never in math.

mod scalar {
    use crate::tensor::ops::{gelu_grad_scalar, gelu_scalar};

    pub fn exp_slice(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v.exp();
        }
    }

    pub fn tanh_slice(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v.tanh();
        }
    }

    pub fn gelu_slice(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = gelu_scalar(v);
        }
    }

    pub fn gelu_grad_slice(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = gelu_grad_scalar(v);
        }
    }

    pub fn exp_slice_inplace(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = v.exp();
        }
    }

    pub fn tanh_slice_inplace(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = v.tanh();
        }
    }

    pub fn gelu_slice_inplace(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = gelu_scalar(*v);
        }
    }

    pub fn gelu_grad_slice_inplace(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = gelu_grad_scalar(*v);
        }
    }

    /// Attention score block: `scores[r·n + j] = dot(q_r, k_j) · scale`.
    pub fn attn_scores_block(
        q_block: &[f32],
        km: &[f32],
        scores: &mut [f32],
        ib: usize,
        n: usize,
        d: usize,
        scale: f32,
    ) {
        for r in 0..ib {
            let q_row = &q_block[r * d..(r + 1) * d];
            for j in 0..n {
                let k_row = &km[j * d..(j + 1) * d];
                let mut acc = 0.0f32;
                for c in 0..d {
                    acc += q_row[c] * k_row[c];
                }
                scores[r * n + j] = acc * scale;
            }
        }
    }

    /// Attention value block: `out_r = Σ_j probs[r·n + j] · v_j`.
    ///
    /// For each `(r, c)` the accumulation runs over increasing `j`, the
    /// same per-element order as the `ScalarRef` oracle.
    pub fn attn_pv_block(
        probs: &[f32],
        vm: &[f32],
        out_block: &mut [f32],
        ib: usize,
        n: usize,
        d: usize,
    ) {
        for r in 0..ib {
            let prow = &probs[r * n..(r + 1) * n];
            let o_row = &mut out_block[r * d..(r + 1) * d];
            o_row.fill(0.0);
            for (j, &w) in prow.iter().enumerate() {
                let v_row = &vm[j * d..(j + 1) * d];
                for c in 0..d {
                    o_row[c] += w * v_row[c];
                }
            }
        }
    }

    /// Softmax backward of one row: `dx = (dy − Σ dy⊙y) ⊙ y`.
    pub fn softmax_grad_row(y: &[f32], dy: &[f32], dx: &mut [f32]) {
        let s: f32 = y.iter().zip(dy).map(|(&a, &b)| a * b).sum();
        for ((o, &yv), &dv) in dx.iter_mut().zip(y).zip(dy) {
            *o = (dv - s) * yv;
        }
    }

    /// Layernorm backward of one row (stats recomputed from `x`):
    /// `dx = inv·(dy − mean(dy) − x̂·mean(dy⊙x̂))`.
    pub fn layernorm_grad_row(x: &[f32], dy: &[f32], dx: &mut [f32], eps: f32) {
        let inv_n = 1.0 / x.len() as f32;
        let mean = x.iter().sum::<f32>() * inv_n;
        let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() * inv_n;
        let inv = 1.0 / (var + eps).sqrt();
        let mut a = 0.0f32;
        let mut b = 0.0f32;
        for (&dv, &xv) in dy.iter().zip(x) {
            a += dv;
            b += dv * (xv - mean) * inv;
        }
        a *= inv_n;
        b *= inv_n;
        for ((o, &dv), &xv) in dx.iter_mut().zip(dy).zip(x) {
            *o = inv * (dv - a - (xv - mean) * inv * b);
        }
    }

    /// Fused Adam/AdamW update over one chunk (see `Backend::adam_step`).
    pub fn adam_step_slice(
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &crate::backend::AdamStepSpec,
    ) {
        for i in 0..p.len() {
            let gi = g[i];
            m[i] = m[i] * s.beta1 + gi * (1.0 - s.beta1);
            v[i] = v[i] * s.beta2 + gi * gi * (1.0 - s.beta2);
            let m_hat = m[i] * (1.0 / s.bc1);
            let v_hat = v[i] * (1.0 / s.bc2);
            let update = s.lr * (m_hat / (v_hat.sqrt() + s.eps));
            let decay = s.lr * s.weight_decay * p[i];
            p[i] = p[i] - update - decay;
        }
    }

    /// Fused SGD(+momentum) update over one chunk.
    pub fn sgd_step_slice(p: &mut [f32], g: &[f32], vel: Option<&mut [f32]>, lr: f32, mom: f32) {
        match vel {
            Some(vel) => {
                for i in 0..p.len() {
                    vel[i] = vel[i] * mom + g[i];
                    p[i] -= lr * vel[i];
                }
            }
            None => {
                for (pv, &gv) in p.iter_mut().zip(g) {
                    *pv -= lr * gv;
                }
            }
        }
    }

    /// Numerically-stable softmax of one row (max-subtracted).
    pub fn softmax_row(x: &[f32], out: &mut [f32]) {
        let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (o, &v) in out.iter_mut().zip(x) {
            let e = (v - m).exp();
            *o = e;
            denom += e;
        }
        let inv = 1.0 / denom;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }
}

// ======================================================== avx2 kernels

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::LANES;
    use std::arch::x86_64::*;

    /// exp(x) for one lane: Cephes-style range reduction
    /// (`x = n·ln2 + r`, `|r| ≤ ln2/2`), degree-5 polynomial on `r`, then
    /// two-step `2^n` scaling so the full f32 range (including `n = 128`
    /// at the overflow edge and `n = -126` near the denormal edge) is
    /// reconstructed without integer-exponent overflow.
    ///
    /// Inputs above `ln(f32::MAX)` return `inf` (as `f32::exp` does);
    /// inputs below the normal range clamp to ~1.2e-38 (abs error vs the
    /// denormal-producing libm ≤ 1.2e-38). NaN propagates.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_ps(x: __m256) -> __m256 {
        // f32::exp overflows to inf strictly above ln(f32::MAX).
        const OVERFLOW: f32 = 88.722_84;
        const UNDERFLOW: f32 = -87.336_54; // below: clamp (normal range)
        let overflow_mask = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(OVERFLOW));
        // Clamp operand order chosen so NaN in `x` propagates (max/min
        // return the second source when either operand is NaN).
        let xc = _mm256_max_ps(_mm256_set1_ps(UNDERFLOW), x);
        let xc = _mm256_min_ps(_mm256_set1_ps(OVERFLOW), xc);

        let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(xc, log2e),
        );
        // r = x - n·ln2, split high/low for extra precision.
        let ln2_hi = _mm256_set1_ps(0.693_359_4);
        let ln2_lo = _mm256_set1_ps(-2.121_944_4e-4);
        let r = _mm256_fnmadd_ps(n, ln2_hi, xc);
        let r = _mm256_fnmadd_ps(n, ln2_lo, r);

        // exp(r) ≈ 1 + r + r²·P(r) (Cephes expf coefficients).
        let mut p = _mm256_set1_ps(1.987_569_1e-4);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.398_199_9e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.333_452e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.166_579_6e-2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.666_666_5e-1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.000_000_3e-1));
        let r2 = _mm256_mul_ps(r, r);
        let y = _mm256_fmadd_ps(p, r2, r);
        let y = _mm256_add_ps(y, _mm256_set1_ps(1.0));

        // 2^n via two half-steps: n in [-126, 128] splits into two
        // exponents each within the representable bias range.
        let ni = _mm256_cvtps_epi32(n);
        let half = _mm256_srai_epi32::<1>(ni); // floor(n/2)
        let rest = _mm256_sub_epi32(ni, half);
        let bias = _mm256_set1_epi32(127);
        let p1 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(half, bias)));
        let p2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(rest, bias)));
        let scaled = _mm256_mul_ps(_mm256_mul_ps(y, p1), p2);

        // Exact inf on overflow, matching libm (NaN lanes fail GT and keep
        // their propagated NaN).
        _mm256_blendv_ps(scaled, _mm256_set1_ps(f32::INFINITY), overflow_mask)
    }

    /// tanh(x) = (e^{2x} − 1) / (e^{2x} + 1), with |x| clamped to 9.01
    /// (tanh saturates within half an f32 ulp of ±1 there). NaN propagates
    /// through the clamp operand order.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tanh_ps(x: __m256) -> __m256 {
        let lim = _mm256_set1_ps(9.01);
        let xc = _mm256_max_ps(_mm256_sub_ps(_mm256_setzero_ps(), lim), x);
        let xc = _mm256_min_ps(lim, xc);
        let e2 = exp_ps(_mm256_add_ps(xc, xc));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(_mm256_sub_ps(e2, one), _mm256_add_ps(e2, one))
    }

    /// GELU (tanh approximation), lane-parallel.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gelu_ps(x: __m256) -> __m256 {
        let c = _mm256_set1_ps(0.797_884_6); // sqrt(2/pi)
        let a = _mm256_set1_ps(0.044715);
        let x2 = _mm256_mul_ps(x, x);
        let inner = _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_mul_ps(a, x2), x, x));
        let t = tanh_ps(inner);
        let half_x = _mm256_mul_ps(_mm256_set1_ps(0.5), x);
        _mm256_mul_ps(half_x, _mm256_add_ps(t, _mm256_set1_ps(1.0)))
    }

    /// d/dx of the tanh-approximated GELU, lane-parallel.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gelu_grad_ps(x: __m256) -> __m256 {
        let c = _mm256_set1_ps(0.797_884_6);
        let a = _mm256_set1_ps(0.044715);
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let x2 = _mm256_mul_ps(x, x);
        let inner = _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_mul_ps(a, x2), x, x));
        let t = tanh_ps(inner);
        let sech2 = _mm256_fnmadd_ps(t, t, one);
        // 0.5·(1+t) + 0.5·x·sech²·C·(1 + 3a·x²)
        let slope = _mm256_fmadd_ps(_mm256_set1_ps(3.0 * 0.044715), x2, one);
        let second = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(half, x), sech2),
            _mm256_mul_ps(c, slope),
        );
        _mm256_fmadd_ps(half, _mm256_add_ps(one, t), second)
    }

    #[inline]
    unsafe fn load(x: &[f32], i: usize) -> __m256 {
        _mm256_loadu_ps(x.as_ptr().add(i))
    }

    #[inline]
    unsafe fn store(out: &mut [f32], i: usize, v: __m256) {
        _mm256_storeu_ps(out.as_mut_ptr().add(i), v)
    }

    /// Apply a lane function over `x`, scalar-tail with `tail` — the
    /// lane/tail split depends only on `x.len()`, keeping results
    /// invariant under any outer parallel chunking that preserves
    /// LANES-aligned boundaries.
    macro_rules! map_slice {
        ($name:ident, $lane:ident, $tail:expr) => {
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $name(x: &[f32], out: &mut [f32]) {
                debug_assert_eq!(x.len(), out.len());
                let n = x.len();
                let main = n - n % LANES;
                let mut i = 0;
                while i < main {
                    store(out, i, $lane(load(x, i)));
                    i += LANES;
                }
                #[allow(clippy::redundant_closure_call)]
                for j in main..n {
                    out[j] = $tail(x[j]);
                }
            }
        };
    }

    map_slice!(exp_slice, exp_ps, |v: f32| v.exp());
    map_slice!(tanh_slice, tanh_ps, |v: f32| v.tanh());
    map_slice!(gelu_slice, gelu_ps, crate::tensor::ops::gelu_scalar);
    map_slice!(
        gelu_grad_slice,
        gelu_grad_ps,
        crate::tensor::ops::gelu_grad_scalar
    );

    /// In-place variant of [`map_slice!`]: same lane/tail structure,
    /// loading and storing through the same addresses.
    macro_rules! map_slice_inplace {
        ($name:ident, $lane:ident, $tail:expr) => {
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $name(x: &mut [f32]) {
                let n = x.len();
                let main = n - n % LANES;
                let mut i = 0;
                while i < main {
                    let v = _mm256_loadu_ps(x.as_ptr().add(i));
                    _mm256_storeu_ps(x.as_mut_ptr().add(i), $lane(v));
                    i += LANES;
                }
                #[allow(clippy::redundant_closure_call)]
                for v in &mut x[main..] {
                    *v = $tail(*v);
                }
            }
        };
    }

    map_slice_inplace!(exp_slice_inplace, exp_ps, |v: f32| v.exp());
    map_slice_inplace!(tanh_slice_inplace, tanh_ps, |v: f32| v.tanh());
    map_slice_inplace!(gelu_slice_inplace, gelu_ps, crate::tensor::ops::gelu_scalar);
    map_slice_inplace!(
        gelu_grad_slice_inplace,
        gelu_grad_ps,
        crate::tensor::ops::gelu_grad_scalar
    );

    /// Horizontal max of a lane.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hmax(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps::<1>(v);
        let lo = _mm256_castps256_ps128(v);
        let m = _mm_max_ps(lo, hi);
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        let m = _mm_max_ss(m, _mm_shuffle_ps::<1>(m, m));
        _mm_cvtss_f32(m)
    }

    /// Horizontal sum of a lane.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps::<1>(v);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
        _mm_cvtss_f32(s)
    }

    /// Numerically-stable softmax of one row: lane-wise max reduction
    /// (then horizontal fold), subtract-exp-sum, scale. Matches the
    /// scalar semantics: the max subtraction keeps `exp` arguments ≤ 0,
    /// so logits spanning ±1e4 neither overflow nor flush the row to 0.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn softmax_row(x: &[f32], out: &mut [f32]) {
        let n = x.len();
        let main = n - n % LANES;
        // Lane-wise max, then horizontal; scalar tail folds on top.
        let mut m = if main > 0 {
            let mut acc = load(x, 0);
            let mut i = LANES;
            while i < main {
                // Operand order: NaN in the data (second source) wins.
                acc = _mm256_max_ps(acc, load(x, i));
                i += LANES;
            }
            hmax(acc)
        } else {
            f32::NEG_INFINITY
        };
        for &v in &x[main..] {
            m = if v > m || m.is_nan() { v } else { m };
        }
        if m.is_nan() {
            // Scalar `f32::max` skips NaN, so the oracle's max over a
            // NaN-bearing row is the max of the rest; every exp(NaN - m)
            // is NaN either way. Recompute ignoring NaN to keep the
            // non-NaN lanes bit-comparable.
            m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        }

        let mv = _mm256_set1_ps(m);
        let mut sum = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            let e = exp_ps(_mm256_sub_ps(load(x, i), mv));
            store(out, i, e);
            sum = _mm256_add_ps(sum, e);
            i += LANES;
        }
        let mut denom = hsum(sum);
        for j in main..n {
            let e = (x[j] - m).exp();
            out[j] = e;
            denom += e;
        }
        let inv = 1.0 / denom;
        let invv = _mm256_set1_ps(inv);
        let mut i = 0;
        while i < main {
            store(out, i, _mm256_mul_ps(load(out, i), invv));
            i += LANES;
        }
        for o in &mut out[main..] {
            *o *= inv;
        }
    }

    /// Attention score block, one `target_feature` region per query block
    /// (per-dot dispatch overhead would otherwise eat the lane win).
    ///
    /// `d == 8` (the Swin head dim, exactly one lane) takes a fast path:
    /// eight K rows load as eight lanes and a 3-level `hadd` tree reduces
    /// them to a single lane holding eight finished dot products.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn attn_scores_block(
        q_block: &[f32],
        km: &[f32],
        scores: &mut [f32],
        ib: usize,
        n: usize,
        d: usize,
        scale: f32,
    ) {
        if d == LANES {
            let sv = _mm256_set1_ps(scale);
            for r in 0..ib {
                let q = load(q_block, r * LANES);
                let main = n - n % LANES;
                let mut j = 0;
                while j < main {
                    let p0 = _mm256_mul_ps(q, load(km, j * LANES));
                    let p1 = _mm256_mul_ps(q, load(km, (j + 1) * LANES));
                    let p2 = _mm256_mul_ps(q, load(km, (j + 2) * LANES));
                    let p3 = _mm256_mul_ps(q, load(km, (j + 3) * LANES));
                    let p4 = _mm256_mul_ps(q, load(km, (j + 4) * LANES));
                    let p5 = _mm256_mul_ps(q, load(km, (j + 5) * LANES));
                    let p6 = _mm256_mul_ps(q, load(km, (j + 6) * LANES));
                    let p7 = _mm256_mul_ps(q, load(km, (j + 7) * LANES));
                    let t0 = _mm256_hadd_ps(p0, p1);
                    let t1 = _mm256_hadd_ps(p2, p3);
                    let t2 = _mm256_hadd_ps(p4, p5);
                    let t3 = _mm256_hadd_ps(p6, p7);
                    let s0 = _mm256_hadd_ps(t0, t1);
                    let s1 = _mm256_hadd_ps(t2, t3);
                    // [dots 0-3 half-sums | dots 4-7 half-sums] → in-order
                    // lane of the 8 dot products.
                    let lo = _mm256_permute2f128_ps::<0x20>(s0, s1);
                    let hi = _mm256_permute2f128_ps::<0x31>(s0, s1);
                    let dots = _mm256_add_ps(lo, hi);
                    store(scores, r * n + j, _mm256_mul_ps(dots, sv));
                    j += LANES;
                }
                for jj in main..n {
                    let k_row = &km[jj * d..(jj + 1) * d];
                    scores[r * n + jj] = dot(&q_block[r * d..(r + 1) * d], k_row) * scale;
                }
            }
        } else {
            for r in 0..ib {
                let q_row = &q_block[r * d..(r + 1) * d];
                for j in 0..n {
                    scores[r * n + j] = dot(q_row, &km[j * d..(j + 1) * d]) * scale;
                }
            }
        }
    }

    /// Attention value block: `out_r = Σ_j probs[r·n + j] · v_j`, one
    /// `target_feature` region per query block. With `d == 8` each output
    /// row is a single FMA-accumulated lane.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn attn_pv_block(
        probs: &[f32],
        vm: &[f32],
        out_block: &mut [f32],
        ib: usize,
        n: usize,
        d: usize,
    ) {
        if d == LANES {
            for r in 0..ib {
                let prow = &probs[r * n..(r + 1) * n];
                let mut acc = _mm256_setzero_ps();
                for (j, &w) in prow.iter().enumerate() {
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(w), load(vm, j * LANES), acc);
                }
                store(out_block, r * LANES, acc);
            }
        } else {
            for r in 0..ib {
                let prow = &probs[r * n..(r + 1) * n];
                out_block[r * d..(r + 1) * d].fill(0.0);
                for (j, &w) in prow.iter().enumerate() {
                    axpy(
                        w,
                        &vm[j * d..(j + 1) * d],
                        &mut out_block[r * d..(r + 1) * d],
                    );
                }
            }
        }
    }

    /// `acc[..] += w · v[..]` (attention value accumulation).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(w: f32, v: &[f32], acc: &mut [f32]) {
        let n = v.len();
        let main = n - n % LANES;
        let wv = _mm256_set1_ps(w);
        let mut i = 0;
        while i < main {
            store(acc, i, _mm256_fmadd_ps(wv, load(v, i), load(acc, i)));
            i += LANES;
        }
        for j in main..n {
            acc[j] += w * v[j];
        }
    }

    /// Dot product of two equal-length rows (attention scores).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let main = n - n % LANES;
        let mut accv = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            accv = _mm256_fmadd_ps(load(a, i), load(b, i), accv);
            i += LANES;
        }
        let mut acc = hsum(accv);
        for j in main..n {
            acc += a[j] * b[j];
        }
        acc
    }

    /// GEBP microkernel: `acc[r][0..16] += a_strip[kk·MR + r] · panel row`
    /// over `kc` packed K steps. `MR = 4`, `NR = 16` (two lanes per row).
    /// `panel` rows are NR-contiguous (`panel[kk*16..kk*16+16]`), exactly
    /// the packing `gebp` produces.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_4x16(apack: &[f32], panel: &[f32], kc: usize, acc: &mut [[f32; 16]]) {
        debug_assert!(acc.len() == 4);
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        for kk in 0..kc {
            let b0 = load(panel, kk * 16);
            let b1 = load(panel, kk * 16 + 8);
            let a0 = _mm256_set1_ps(apack[kk * 4]);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_set1_ps(apack[kk * 4 + 1]);
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_set1_ps(apack[kk * 4 + 2]);
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_set1_ps(apack[kk * 4 + 3]);
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
        }
        store(&mut acc[0], 0, c00);
        store(&mut acc[0], 8, c01);
        store(&mut acc[1], 0, c10);
        store(&mut acc[1], 8, c11);
        store(&mut acc[2], 0, c20);
        store(&mut acc[2], 8, c21);
        store(&mut acc[3], 0, c30);
        store(&mut acc[3], 8, c31);
    }

    /// Softmax backward of one row: lane-FMA dot `Σ dy⊙y`, then a fused
    /// `(dy − s)·y` pass.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn softmax_grad_row(y: &[f32], dy: &[f32], dx: &mut [f32]) {
        let s = dot(dy, y);
        let n = y.len();
        let main = n - n % LANES;
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i < main {
            let d = _mm256_sub_ps(load(dy, i), sv);
            store(dx, i, _mm256_mul_ps(d, load(y, i)));
            i += LANES;
        }
        for j in main..n {
            dx[j] = (dy[j] - s) * y[j];
        }
    }

    /// Layernorm backward of one row: three lane-reduced sums
    /// (`Σx`, `Σx²`-centered, `Σdy` / `Σdy⊙x̂`), then one fused output pass.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn layernorm_grad_row(x: &[f32], dy: &[f32], dx: &mut [f32], eps: f32) {
        let n = x.len();
        let main = n - n % LANES;
        let inv_n = 1.0 / n as f32;
        // mean
        let mut sx = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            sx = _mm256_add_ps(sx, load(x, i));
            i += LANES;
        }
        let mut mean = hsum(sx);
        for &xv in &x[main..] {
            mean += xv;
        }
        mean *= inv_n;
        // variance
        let mv = _mm256_set1_ps(mean);
        let mut sv = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            let c = _mm256_sub_ps(load(x, i), mv);
            sv = _mm256_fmadd_ps(c, c, sv);
            i += LANES;
        }
        let mut var = hsum(sv);
        for &xv in &x[main..] {
            var += (xv - mean) * (xv - mean);
        }
        var *= inv_n;
        let inv = 1.0 / (var + eps).sqrt();
        // a = Σdy, b = Σ dy·x̂
        let invv = _mm256_set1_ps(inv);
        let mut sa = _mm256_setzero_ps();
        let mut sb = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            let d = load(dy, i);
            let xh = _mm256_mul_ps(_mm256_sub_ps(load(x, i), mv), invv);
            sa = _mm256_add_ps(sa, d);
            sb = _mm256_fmadd_ps(d, xh, sb);
            i += LANES;
        }
        let mut a = hsum(sa);
        let mut b = hsum(sb);
        for j in main..n {
            a += dy[j];
            b += dy[j] * (x[j] - mean) * inv;
        }
        a *= inv_n;
        b *= inv_n;
        // dx = inv·(dy − a − x̂·b)
        let av = _mm256_set1_ps(a);
        let bv = _mm256_set1_ps(b);
        let mut i = 0;
        while i < main {
            let xh = _mm256_mul_ps(_mm256_sub_ps(load(x, i), mv), invv);
            let t = _mm256_sub_ps(_mm256_sub_ps(load(dy, i), av), _mm256_mul_ps(xh, bv));
            store(dx, i, _mm256_mul_ps(t, invv));
            i += LANES;
        }
        for j in main..n {
            dx[j] = inv * (dy[j] - a - (x[j] - mean) * inv * b);
        }
    }

    /// Fused Adam/AdamW update: one load/store pass over `p`, `m`, `v`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_step_slice(
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &crate::backend::AdamStepSpec,
    ) {
        let n = p.len();
        let main = n - n % LANES;
        let b1 = _mm256_set1_ps(s.beta1);
        let omb1 = _mm256_set1_ps(1.0 - s.beta1);
        let b2 = _mm256_set1_ps(s.beta2);
        let omb2 = _mm256_set1_ps(1.0 - s.beta2);
        let ibc1 = _mm256_set1_ps(1.0 / s.bc1);
        let ibc2 = _mm256_set1_ps(1.0 / s.bc2);
        let lr = _mm256_set1_ps(s.lr);
        let eps = _mm256_set1_ps(s.eps);
        let lrwd = _mm256_set1_ps(s.lr * s.weight_decay);
        let mut i = 0;
        while i < main {
            let gv = load(g, i);
            let mi = _mm256_fmadd_ps(load(m, i), b1, _mm256_mul_ps(gv, omb1));
            let vi = _mm256_fmadd_ps(load(v, i), b2, _mm256_mul_ps(_mm256_mul_ps(gv, gv), omb2));
            store(m, i, mi);
            store(v, i, vi);
            let m_hat = _mm256_mul_ps(mi, ibc1);
            let v_hat = _mm256_mul_ps(vi, ibc2);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
            let update = _mm256_mul_ps(lr, _mm256_div_ps(m_hat, denom));
            let pv = load(p, i);
            let decay = _mm256_mul_ps(lrwd, pv);
            store(p, i, _mm256_sub_ps(_mm256_sub_ps(pv, update), decay));
            i += LANES;
        }
        for j in main..n {
            let gi = g[j];
            m[j] = m[j] * s.beta1 + gi * (1.0 - s.beta1);
            v[j] = v[j] * s.beta2 + gi * gi * (1.0 - s.beta2);
            let m_hat = m[j] * (1.0 / s.bc1);
            let v_hat = v[j] * (1.0 / s.bc2);
            let update = s.lr * (m_hat / (v_hat.sqrt() + s.eps));
            let decay = s.lr * s.weight_decay * p[j];
            p[j] = p[j] - update - decay;
        }
    }

    /// Fused SGD(+momentum) update.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sgd_step_slice(
        p: &mut [f32],
        g: &[f32],
        vel: Option<&mut [f32]>,
        lr: f32,
        mom: f32,
    ) {
        let n = p.len();
        let main = n - n % LANES;
        let lrv = _mm256_set1_ps(lr);
        match vel {
            Some(vel) => {
                let momv = _mm256_set1_ps(mom);
                let mut i = 0;
                while i < main {
                    let vi = _mm256_fmadd_ps(load(vel, i), momv, load(g, i));
                    store(vel, i, vi);
                    store(p, i, _mm256_fnmadd_ps(lrv, vi, load(p, i)));
                    i += LANES;
                }
                for j in main..n {
                    vel[j] = vel[j] * mom + g[j];
                    p[j] -= lr * vel[j];
                }
            }
            None => {
                let mut i = 0;
                while i < main {
                    store(p, i, _mm256_fnmadd_ps(lrv, load(g, i), load(p, i)));
                    i += LANES;
                }
                for j in main..n {
                    p[j] -= lr * g[j];
                }
            }
        }
    }
}

// ===================================================== dispatch surface
//
// Safe entry points: dispatch on the given level, fall back to the scalar
// pair member when the wide path is unavailable. All are whole-slice
// operations with data-independent lane/tail splits.

macro_rules! dispatch_map {
    ($name:ident) => {
        /// Elementwise kernel; see module docs for the numerical contract.
        pub fn $name(level: SimdLevel, x: &[f32], out: &mut [f32]) {
            debug_assert_eq!(x.len(), out.len());
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2Fma => unsafe { avx2::$name(x, out) },
                #[allow(unreachable_patterns)]
                _ => scalar::$name(x, out),
            }
        }
    };
}

dispatch_map!(exp_slice);
dispatch_map!(tanh_slice);
dispatch_map!(gelu_slice);
dispatch_map!(gelu_grad_slice);

macro_rules! dispatch_map_inplace {
    ($name:ident) => {
        /// In-place elementwise kernel (same lane/tail contract).
        pub fn $name(level: SimdLevel, x: &mut [f32]) {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2Fma => unsafe { avx2::$name(x) },
                #[allow(unreachable_patterns)]
                _ => scalar::$name(x),
            }
        }
    };
}

dispatch_map_inplace!(exp_slice_inplace);
dispatch_map_inplace!(tanh_slice_inplace);
dispatch_map_inplace!(gelu_slice_inplace);
dispatch_map_inplace!(gelu_grad_slice_inplace);

/// Numerically-stable softmax of one row (lane-wise max reduction on the
/// wide path).
pub fn softmax_row(level: SimdLevel, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::softmax_row(x, out) },
        #[allow(unreachable_patterns)]
        _ => scalar::softmax_row(x, out),
    }
}

/// Attention score block: `scores[r·n + j] = dot(q_r, k_j) · scale` for a
/// block of `ib` query rows against all `n` key rows.
#[allow(clippy::too_many_arguments)]
pub fn attn_scores_block(
    level: SimdLevel,
    q_block: &[f32],
    km: &[f32],
    scores: &mut [f32],
    ib: usize,
    n: usize,
    d: usize,
    scale: f32,
) {
    debug_assert!(q_block.len() >= ib * d && km.len() >= n * d && scores.len() >= ib * n);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe {
            avx2::attn_scores_block(q_block, km, scores, ib, n, d, scale)
        },
        #[allow(unreachable_patterns)]
        _ => scalar::attn_scores_block(q_block, km, scores, ib, n, d, scale),
    }
}

/// Attention value block: `out_r = Σ_j probs[r·n + j] · v_j` (rows of
/// `out_block` are overwritten).
pub fn attn_pv_block(
    level: SimdLevel,
    probs: &[f32],
    vm: &[f32],
    out_block: &mut [f32],
    ib: usize,
    n: usize,
    d: usize,
) {
    debug_assert!(probs.len() >= ib * n && vm.len() >= n * d && out_block.len() >= ib * d);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::attn_pv_block(probs, vm, out_block, ib, n, d) },
        #[allow(unreachable_patterns)]
        _ => scalar::attn_pv_block(probs, vm, out_block, ib, n, d),
    }
}

/// `acc += w·v` elementwise.
pub fn axpy(level: SimdLevel, w: f32, v: &[f32], acc: &mut [f32]) {
    debug_assert_eq!(v.len(), acc.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::axpy(w, v, acc) },
        #[allow(unreachable_patterns)]
        _ => {
            for (a, &x) in acc.iter_mut().zip(v) {
                *a += w * x;
            }
        }
    }
}

/// Dot product of two equal-length rows.
pub fn dot(level: SimdLevel, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::dot(a, b) },
        #[allow(unreachable_patterns)]
        _ => a.iter().zip(b).map(|(&x, &y)| x * y).sum(),
    }
}

/// Softmax backward of one row: `dx = (dy − Σ dy⊙y) ⊙ y`.
pub fn softmax_grad_row(level: SimdLevel, y: &[f32], dy: &[f32], dx: &mut [f32]) {
    debug_assert!(y.len() == dy.len() && y.len() == dx.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::softmax_grad_row(y, dy, dx) },
        #[allow(unreachable_patterns)]
        _ => scalar::softmax_grad_row(y, dy, dx),
    }
}

/// Layernorm backward of one row (per-row stats recomputed from `x`).
pub fn layernorm_grad_row(level: SimdLevel, x: &[f32], dy: &[f32], dx: &mut [f32], eps: f32) {
    debug_assert!(x.len() == dy.len() && x.len() == dx.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::layernorm_grad_row(x, dy, dx, eps) },
        #[allow(unreachable_patterns)]
        _ => scalar::layernorm_grad_row(x, dy, dx, eps),
    }
}

/// Fused Adam/AdamW update over one chunk (single pass over `p`/`m`/`v`).
pub fn adam_step_slice(
    level: SimdLevel,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    s: &crate::backend::AdamStepSpec,
) {
    debug_assert!(p.len() == g.len() && p.len() == m.len() && p.len() == v.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::adam_step_slice(p, g, m, v, s) },
        #[allow(unreachable_patterns)]
        _ => scalar::adam_step_slice(p, g, m, v, s),
    }
}

/// Fused SGD(+momentum) update over one chunk.
pub fn sgd_step_slice(
    level: SimdLevel,
    p: &mut [f32],
    g: &[f32],
    vel: Option<&mut [f32]>,
    lr: f32,
    momentum: f32,
) {
    debug_assert!(p.len() == g.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::sgd_step_slice(p, g, vel, lr, momentum) },
        #[allow(unreachable_patterns)]
        _ => scalar::sgd_step_slice(p, g, vel, lr, momentum),
    }
}

/// `MR×NR = 4×16` GEBP register microkernel over packed panels; `acc` is
/// overwritten with the tile product (callers add it into C). The scalar
/// fallback runs the identical accumulation order without FMA.
pub fn microkernel_4x16(
    level: SimdLevel,
    apack: &[f32],
    panel: &[f32],
    kc: usize,
    acc: &mut [[f32; 16]; 4],
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::microkernel_4x16(apack, panel, kc, &mut acc[..]) },
        #[allow(unreachable_patterns)]
        _ => {
            *acc = [[0.0; 16]; 4];
            for kk in 0..kc {
                let brow = &panel[kk * 16..kk * 16 + 16];
                for r in 0..4 {
                    let av = apack[kk * 4 + r];
                    let arow = &mut acc[r];
                    for (c, &bv) in arow.iter_mut().zip(brow) {
                        *c += av * bv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_levels() -> Vec<SimdLevel> {
        let mut v = vec![SimdLevel::Scalar];
        if detect() == SimdLevel::Avx2Fma {
            v.push(SimdLevel::Avx2Fma);
        }
        v
    }

    #[test]
    fn exp_matches_libm_over_range() {
        for lv in both_levels() {
            let xs: Vec<f32> = (-2000..2000).map(|i| i as f32 * 0.05).collect();
            let mut out = vec![0.0; xs.len()];
            exp_slice(lv, &xs, &mut out);
            for (&x, &e) in xs.iter().zip(&out) {
                let r = x.exp();
                if r.is_infinite() {
                    assert_eq!(e, r, "{lv:?} exp({x})");
                    continue;
                }
                let tol = 2e-6 * r.max(1e-30);
                assert!((e - r).abs() <= tol, "{lv:?} exp({x}) = {e}, libm {r}");
            }
        }
    }

    #[test]
    fn exp_edge_cases_match_libm() {
        for lv in both_levels() {
            let xs = [
                88.7,
                88.73,
                200.0,
                f32::INFINITY,
                -87.3,
                -90.0,
                f32::NAN,
                0.0,
                -0.0,
            ];
            let mut out = [0.0; 9];
            exp_slice(lv, &xs, &mut out);
            assert_eq!(out[1], f32::INFINITY, "{lv:?}: just past overflow");
            assert_eq!(out[2], f32::INFINITY, "{lv:?}: far past overflow");
            assert_eq!(out[3], f32::INFINITY, "{lv:?}: exp(inf)");
            assert!(out[6].is_nan(), "{lv:?}: exp(NaN) must be NaN");
            assert!((out[7] - 1.0).abs() < 1e-6 && (out[8] - 1.0).abs() < 1e-6);
            // Below-normal-range inputs: tiny, within 1.2e-38 of libm.
            assert!((out[5] - (-90.0f32).exp()).abs() < 1.3e-38, "{lv:?}");
        }
    }

    #[test]
    fn tanh_saturates_and_propagates_nan() {
        for lv in both_levels() {
            let xs = [
                -50.0,
                -9.5,
                -1.0,
                -1e-4,
                0.0,
                1e-4,
                1.0,
                9.5,
                50.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ];
            let mut out = [0.0; 12];
            tanh_slice(lv, &xs, &mut out);
            for (&x, &t) in xs.iter().zip(&out) {
                if x.is_nan() {
                    assert!(t.is_nan(), "{lv:?}: tanh(NaN)");
                } else {
                    assert!((t - x.tanh()).abs() < 1e-6, "{lv:?} tanh({x}) = {t}");
                }
            }
        }
    }

    #[test]
    fn gelu_and_grad_match_scalar_reference() {
        use crate::tensor::ops::{gelu_grad_scalar, gelu_scalar};
        for lv in both_levels() {
            let xs: Vec<f32> = (-400..400).map(|i| i as f32 * 0.025).collect();
            let mut g = vec![0.0; xs.len()];
            let mut dg = vec![0.0; xs.len()];
            gelu_slice(lv, &xs, &mut g);
            gelu_grad_slice(lv, &xs, &mut dg);
            for i in 0..xs.len() {
                assert!(
                    (g[i] - gelu_scalar(xs[i])).abs() < 1e-5,
                    "{lv:?} gelu({}) = {} vs {}",
                    xs[i],
                    g[i],
                    gelu_scalar(xs[i])
                );
                assert!(
                    (dg[i] - gelu_grad_scalar(xs[i])).abs() < 1e-5,
                    "{lv:?} gelu'({})",
                    xs[i]
                );
            }
        }
    }

    #[test]
    fn softmax_row_extreme_logits_stay_normalized() {
        for lv in both_levels() {
            // Logits spanning ±1e4: without max subtraction exp overflows.
            let xs = [1e4f32, -1e4, 9.9e3, 0.0, -5.0e3, 1.0e4, 17.0, -3.0, 2.5];
            let mut out = [0.0; 9];
            softmax_row(lv, &xs, &mut out);
            let s: f32 = out.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "{lv:?}: sum {s}");
            assert!(out.iter().all(|v| v.is_finite()), "{lv:?}: {out:?}");
            // The two max logits (1e4 twice) split the mass.
            assert!((out[0] - 0.5).abs() < 1e-4 && (out[5] - 0.5).abs() < 1e-4);
        }
    }

    #[test]
    fn dot_axpy_microkernel_match_reference() {
        for lv in both_levels() {
            let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.3).sin()).collect();
            let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.7).cos()).collect();
            let d = dot(lv, &a, &b);
            let dref: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            assert!((d - dref).abs() < 1e-4, "{lv:?}: {d} vs {dref}");

            let mut acc = vec![1.0f32; 37];
            axpy(lv, 0.5, &a, &mut acc);
            for (i, &v) in acc.iter().enumerate() {
                assert!((v - (1.0 + 0.5 * a[i])).abs() < 1e-6, "{lv:?}");
            }

            let kc = 13;
            let apack: Vec<f32> = (0..4 * kc).map(|i| ((i % 9) as f32) - 4.0).collect();
            let panel: Vec<f32> = (0..16 * kc).map(|i| ((i % 7) as f32) * 0.5).collect();
            let mut acc = [[0.0f32; 16]; 4];
            microkernel_4x16(lv, &apack, &panel, kc, &mut acc);
            for r in 0..4 {
                for c in 0..16 {
                    let want: f32 = (0..kc)
                        .map(|kk| apack[kk * 4 + r] * panel[kk * 16 + c])
                        .sum();
                    assert!((acc[r][c] - want).abs() < 1e-3, "{lv:?} [{r}][{c}]");
                }
            }
        }
    }

    #[test]
    fn attn_blocks_match_reference() {
        // d = 8 exercises the hadd-tree / single-lane fast paths; d = 5 the
        // generic ragged path; n = 11 leaves a non-multiple-of-8 tail.
        for lv in both_levels() {
            for &(ib, n, d) in &[(8usize, 11usize, 8usize), (3, 16, 5), (1, 1, 1), (8, 64, 8)] {
                let q: Vec<f32> = (0..ib * d)
                    .map(|i| ((i * 13 % 31) as f32 - 15.0) * 0.1)
                    .collect();
                let k: Vec<f32> = (0..n * d)
                    .map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.1)
                    .collect();
                let v: Vec<f32> = (0..n * d)
                    .map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.1)
                    .collect();
                let scale = 0.35;
                let mut scores = vec![0.0f32; ib * n];
                attn_scores_block(lv, &q, &k, &mut scores, ib, n, d, scale);
                for r in 0..ib {
                    for j in 0..n {
                        let want: f32 =
                            (0..d).map(|c| q[r * d + c] * k[j * d + c]).sum::<f32>() * scale;
                        assert!(
                            (scores[r * n + j] - want).abs() < 1e-5,
                            "{lv:?} scores[{r}][{j}] (ib={ib} n={n} d={d})"
                        );
                    }
                }
                let probs: Vec<f32> = (0..ib * n).map(|i| ((i % 5) as f32 + 1.0) * 0.05).collect();
                let mut out = vec![f32::NAN; ib * d]; // must be overwritten
                attn_pv_block(lv, &probs, &v, &mut out, ib, n, d);
                for r in 0..ib {
                    for c in 0..d {
                        let want: f32 = (0..n).map(|j| probs[r * n + j] * v[j * d + c]).sum();
                        assert!(
                            (out[r * d + c] - want).abs() < 1e-5,
                            "{lv:?} out[{r}][{c}] (ib={ib} n={n} d={d})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn grad_and_step_kernels_match_scalar_pair() {
        let n = 37; // ragged tail past 4 lanes
        let y: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32 + 1.0) * 0.02).collect();
        let dy: Vec<f32> = (0..n).map(|i| ((i * 5 % 11) as f32 - 5.0) * 0.3).collect();
        let x: Vec<f32> = (0..n).map(|i| ((i * 3 % 17) as f32 - 8.0) * 0.7).collect();
        for lv in both_levels() {
            let mut dx = vec![0.0f32; n];
            softmax_grad_row(lv, &y, &dy, &mut dx);
            let mut want = vec![0.0f32; n];
            super::scalar::softmax_grad_row(&y, &dy, &mut want);
            for (a, b) in dx.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "{lv:?} softmax_grad {a} vs {b}");
            }

            let mut dx = vec![0.0f32; n];
            layernorm_grad_row(lv, &x, &dy, &mut dx, 1e-5);
            let mut want = vec![0.0f32; n];
            super::scalar::layernorm_grad_row(&x, &dy, &mut want, 1e-5);
            for (a, b) in dx.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "{lv:?} layernorm_grad {a} vs {b}");
            }

            let spec = crate::backend::AdamStepSpec {
                lr: 0.01,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay: 0.01,
                bc1: 0.1,
                bc2: 0.001,
            };
            let (mut p, mut m, mut v) = (
                x.clone(),
                y.clone(),
                dy.iter().map(|d| d * d).collect::<Vec<_>>(),
            );
            let (mut pw, mut mw, mut vw) = (p.clone(), m.clone(), v.clone());
            adam_step_slice(lv, &mut p, &dy, &mut m, &mut v, &spec);
            super::scalar::adam_step_slice(&mut pw, &dy, &mut mw, &mut vw, &spec);
            for (a, b) in p.iter().zip(&pw) {
                assert!((a - b).abs() < 1e-5, "{lv:?} adam {a} vs {b}");
            }

            let mut p = x.clone();
            let mut vel = y.clone();
            let mut pw = x.clone();
            let mut velw = y.clone();
            sgd_step_slice(lv, &mut p, &dy, Some(&mut vel), 0.05, 0.9);
            super::scalar::sgd_step_slice(&mut pw, &dy, Some(&mut velw), 0.05, 0.9);
            for (a, b) in p.iter().zip(&pw).chain(vel.iter().zip(&velw)) {
                assert!((a - b).abs() < 1e-5, "{lv:?} sgd {a} vs {b}");
            }
        }
    }

    #[test]
    fn feature_string_is_stable() {
        assert!(["scalar", "avx2+fma"].contains(&feature_string()));
        assert_eq!(SimdLevel::Scalar.feature_string(), "scalar");
    }
}
