//! Quantized inference: int8 / f16 weight tiers with a fused dequant GEMM.
//!
//! # Scheme
//!
//! **Weights** are quantized per *output channel* (column `j` of the
//! `[k, n]` linear weight), symmetric: `scale_j = max_i |W[i,j]| / 127`,
//! `qW[i,j] = round(W[i,j] / scale_j) ∈ [-127, 127]` as `i8`.
//!
//! **Activations** are quantized dynamically per *row* to **unsigned
//! 7-bit** with a fixed zero point of 64:
//! `s_r = max_i |x[r,i]| / 63`, `qx[r,i] = round(x[r,i]/s_r) + 64 ∈ [1, 127]`.
//! Capping the activation magnitude at 7 bits is what makes the AVX2
//! `vpmaddubsw` path exact: the instruction sums two adjacent
//! `u8 × i8` products into a *saturating* `i16`, and `127·127·2 = 32258`
//! fits where `255·127·2` would not. The integer accumulation is
//! therefore overflow-free and **bit-identical** between the scalar
//! oracle and the SIMD microkernels.
//!
//! On hosts with AVX-512 VNNI (detected at runtime), the inner product
//! uses `vpdpbusd`, which fuses multiply, widen, and i32 accumulate into
//! one instruction. Plain AVX2 needs a `vpmaddwd` after every
//! `vpmaddubsw`, and the two fight for the same two SIMD multiply ports
//! — capping int8 at roughly f32-FMA throughput; `vpdpbusd` is what
//! actually doubles the MAC rate. `vpdpbusd` wraps (no i16 saturation),
//! so it is exact for the full u8×i8 range and agrees bit-for-bit with
//! the scalar oracle and the `maddubs` path.
//!
//! **Epilogue** (fused dequant + bias): with `wsum_j = Σ_i qW[i,j]`,
//!
//! ```text
//! y[r,j] = (acc[r,j] − 64·wsum_j) as f32 · (s_r · scale_j) + bias_j
//! ```
//!
//! computed as one fused multiply-add in both paths, so the float
//! rounding also matches bit-for-bit.
//!
//! # Packed layout
//!
//! Weights are packed once at quantize time into `NR = 16`-column panels,
//! `KG = 4`-deep k-groups (the `maddubs` operand width): within panel `p`
//! and group `g`, the 64 bytes are `[col0 k0..k3, col1 k0..k3, …,
//! col15 k0..k3]`. `k` is zero-padded to a multiple of 4 and `n` to a
//! multiple of 16 (padded columns carry `scale = 1`, `wsum = 0` and are
//! never stored to the output). Both the scalar oracle and the AVX2
//! kernel read this same packed buffer.
//!
//! # Tiers
//!
//! [`QuantWeight::build`] runs a small deterministic calibration GEMM per
//! layer; a layer whose int8 relative error exceeds
//! [`INT8_TIER_THRESHOLD`] falls back to the f16 tier (f16 weights,
//! f32 accumulate via the regular backend matmul) — mirroring
//! selective-precision schemes where a handful of sensitive layers stay
//! in the higher tier.

use crate::f16::F16;
use crate::simd::SimdLevel;

/// Column-panel width of the packed int8 weight layout.
pub const NR: usize = 16;
/// K-group depth (one `maddubs` operand spans 4 bytes per column).
pub const KG: usize = 4;
/// Symmetric weight-code magnitude bound.
pub const W_MAX: i32 = 127;

/// Per-layer calibration gate: a layer whose int8 calibration GEMM shows
/// a larger max relative error than this falls back to the f16 tier.
pub const INT8_TIER_THRESHOLD: f32 = 0.03;

/// Numeric precision of an inference path.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash, Default)]
pub enum Precision {
    /// Full f32 weights and arithmetic (the training dtype).
    #[default]
    F32,
    /// f16 weights, f32 accumulate.
    F16,
    /// int8 weights + u7 dynamic activations, i32 accumulate, with
    /// per-layer f16 fallback when the calibration gate fails.
    Int8,
}

impl Precision {
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Parse `"f32" | "f16" | "int8"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Precision> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(Precision::F32),
            "f16" => Some(Precision::F16),
            "int8" | "i8" => Some(Precision::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A `[k, n]` linear weight quantized to per-output-channel symmetric
/// codes in `[-W_MAX, W_MAX]` (stored as `i8`), packed into the panel
/// layout the GEMM microkernel consumes.
#[derive(Clone, Debug)]
pub struct QuantizedTensor {
    /// Logical input features (rows of the f32 weight).
    pub k: usize,
    /// Logical output features (columns of the f32 weight).
    pub n: usize,
    /// `k` rounded up to a multiple of [`KG`].
    pub kp: usize,
    /// `n` rounded up to a multiple of [`NR`].
    pub np: usize,
    /// Packed weight bytes: `np/NR` panels × `kp/KG` groups × 64 bytes.
    pub data: Vec<i8>,
    /// Per-column dequant scales, length `np` (padding columns get 1.0).
    pub scales: Vec<f32>,
    /// Per-column sums of the quantized weights, length `np` (padding 0).
    /// The epilogue subtracts `64·wsum_j` to undo the activation zero
    /// point.
    pub wsum: Vec<i32>,
}

impl QuantizedTensor {
    /// Quantize a row-major `[k, n]` f32 weight.
    pub fn quantize(w: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(w.len(), k * n, "weight slice does not match [k, n]");
        let kp = k.next_multiple_of(KG);
        let np = n.next_multiple_of(NR);
        let groups = kp / KG;
        let mut scales = vec![1.0f32; np];
        let mut wsum = vec![0i32; np];
        let mut data = vec![0i8; (np / NR) * groups * KG * NR];

        for j in 0..n {
            let mut maxabs = 0.0f32;
            for i in 0..k {
                maxabs = maxabs.max(w[i * n + j].abs());
            }
            let s = if maxabs > 0.0 {
                maxabs / W_MAX as f32
            } else {
                1.0
            };
            scales[j] = s;
            let p = j / NR;
            let j2 = j % NR;
            let panel = p * groups * KG * NR;
            let mut sum = 0i32;
            for i in 0..k {
                let q = (w[i * n + j] / s)
                    .round_ties_even()
                    .clamp(-(W_MAX as f32), W_MAX as f32) as i8;
                sum += q as i32;
                let (g, t) = (i / KG, i % KG);
                data[panel + g * KG * NR + j2 * KG + t] = q;
            }
            wsum[j] = sum;
        }
        Self {
            k,
            n,
            kp,
            np,
            data,
            scales,
            wsum,
        }
    }

    /// Reconstruct the row-major `[k, n]` f32 weight (with quantization
    /// error) — test/debug helper.
    pub fn dequantize(&self) -> Vec<f32> {
        let groups = self.kp / KG;
        let mut out = vec![0.0f32; self.k * self.n];
        for j in 0..self.n {
            let (p, j2) = (j / NR, j % NR);
            let panel = p * groups * KG * NR;
            for i in 0..self.k {
                let (g, t) = (i / KG, i % KG);
                let q = self.data[panel + g * KG * NR + j2 * KG + t];
                out[i * self.n + j] = q as f32 * self.scales[j];
            }
        }
        out
    }

    /// Heap bytes of the packed representation.
    pub fn nbytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4 + self.wsum.len() * 4
    }
}

/// A `[k, n]` weight stored as f16, decompressed to f32 per forward.
#[derive(Clone, Debug)]
pub struct F16Weight {
    pub k: usize,
    pub n: usize,
    pub data: Vec<F16>,
}

impl F16Weight {
    pub fn compress(w: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(w.len(), k * n, "weight slice does not match [k, n]");
        Self {
            k,
            n,
            data: crate::f16::compress(w),
        }
    }

    /// Decompress to row-major f32.
    pub fn decompress(&self) -> Vec<f32> {
        crate::f16::decompress(&self.data)
    }

    pub fn nbytes(&self) -> usize {
        self.data.len() * 2
    }
}

/// A quantized weight at one of the reduced-precision tiers.
#[derive(Clone, Debug)]
pub enum QuantWeight {
    Int8(QuantizedTensor),
    F16(F16Weight),
}

impl QuantWeight {
    /// Build the weight representation for `precision`.
    ///
    /// `Precision::Int8` runs the per-layer calibration gate
    /// ([`select_tier`]) and may come back as the f16 tier;
    /// `Precision::F16` always compresses to f16. `Precision::F32` is
    /// the identity path and never reaches here.
    pub fn build(w: &[f32], k: usize, n: usize, precision: Precision) -> Self {
        match precision {
            Precision::F32 => panic!("QuantWeight::build called for f32"),
            Precision::F16 => QuantWeight::F16(F16Weight::compress(w, k, n)),
            Precision::Int8 => select_tier(w, k, n, INT8_TIER_THRESHOLD).0,
        }
    }

    pub fn tier(&self) -> &'static str {
        match self {
            QuantWeight::Int8(_) => "int8",
            QuantWeight::F16(_) => "f16",
        }
    }

    pub fn nbytes(&self) -> usize {
        match self {
            QuantWeight::Int8(q) => q.nbytes(),
            QuantWeight::F16(f) => f.nbytes(),
        }
    }
}

/// Per-layer tier selection: quantize to int8, run a small deterministic
/// calibration GEMM against the f32 reference, and fall back to f16 when
/// the max relative error exceeds `threshold`.
///
/// Returns the chosen tier and the measured int8 relative error.
pub fn select_tier(w: &[f32], k: usize, n: usize, threshold: f32) -> (QuantWeight, f32) {
    let q = QuantizedTensor::quantize(w, k, n);
    let m = 16usize;
    // Deterministic LCG calibration input in [-1, 1] — no RNG dependency,
    // same probe on every host.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut x = vec![0.0f32; m * k];
    for v in x.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0;
    }
    // f32 reference.
    let mut y_ref = vec![0.0f32; m * n];
    for r in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for i in 0..k {
                acc += x[r * k + i] * w[i * n + j];
            }
            y_ref[r * n + j] = acc;
        }
    }
    // int8 path (scalar oracle).
    let acts = quantize_acts(&x, m, k);
    let mut y_q = vec![0.0f32; m * n];
    qgemm(SimdLevel::Scalar, &acts, &q, None, &mut y_q);

    let mut max_ref = 0.0f32;
    let mut max_err = 0.0f32;
    for (a, b) in y_ref.iter().zip(&y_q) {
        max_ref = max_ref.max(a.abs());
        max_err = max_err.max((a - b).abs());
    }
    let rel = max_err / max_ref.max(1e-12);
    if rel <= threshold {
        cobs::counter!("quant.tier.int8").inc();
        (QuantWeight::Int8(q), rel)
    } else {
        cobs::counter!("quant.tier.f16_fallback").inc();
        (QuantWeight::F16(F16Weight::compress(w, k, n)), rel)
    }
}

/// Dynamically quantized activations: `[m, kp]` u8 rows (zero point 64)
/// plus one dequant scale per row.
#[derive(Clone, Debug)]
pub struct QuantActs {
    pub m: usize,
    pub k: usize,
    /// `k` rounded up to a multiple of [`KG`]; rows are padded with the
    /// byte 0 (the matching padded weight rows are 0, so padding
    /// contributes nothing).
    pub kp: usize,
    pub data: Vec<u8>,
    pub scales: Vec<f32>,
}

/// Quantize a row-major `[m, k]` activation block to u7-with-zero-point-64
/// rows. This is O(m·k) against the GEMM's O(m·k·n), but at serving batch
/// sizes a scalar encode costs more than the VNNI GEMM itself, so the hot
/// loop is vectorized on AVX2 hosts; the scalar path is the oracle and
/// both produce identical bytes (tested bitwise).
pub fn quantize_acts(x: &[f32], m: usize, k: usize) -> QuantActs {
    assert_eq!(x.len(), m * k, "activation slice does not match [m, k]");
    let kp = k.next_multiple_of(KG);
    let mut data = vec![0u8; m * kp];
    let mut scales = vec![1.0f32; m];
    #[cfg(target_arch = "x86_64")]
    if crate::simd::level() == SimdLevel::Avx2Fma {
        unsafe { avx2_acts::quantize_rows(x, m, k, kp, &mut data, &mut scales) };
        return QuantActs {
            m,
            k,
            kp,
            data,
            scales,
        };
    }
    quantize_acts_scalar(x, m, k, kp, &mut data, &mut scales);
    QuantActs {
        m,
        k,
        kp,
        data,
        scales,
    }
}

/// Scalar activation-encode oracle. The rounded code is clamped in the
/// *float* domain (`[-63, 63]`) before conversion so pathological scales
/// (subnormal row maxima) stay in byte range on every path; NaN falls
/// through `as i32` to 0 → the zero point → decodes to 0.
fn quantize_acts_scalar(
    x: &[f32],
    m: usize,
    k: usize,
    kp: usize,
    data: &mut [u8],
    scales: &mut [f32],
) {
    for r in 0..m {
        let row = &x[r * k..(r + 1) * k];
        let mut maxabs = 0.0f32;
        for &v in row {
            maxabs = maxabs.max(v.abs());
        }
        let s = if maxabs > 0.0 { maxabs / 63.0 } else { 1.0 };
        let inv = 1.0 / s;
        let out = &mut data[r * kp..r * kp + k];
        for (o, &v) in out.iter_mut().zip(row) {
            let q = (v * inv).round_ties_even().clamp(-63.0, 63.0) as i32 + 64;
            *o = q as u8;
        }
        scales[r] = s;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2_acts {
    //! Vectorized activation encode: per row, an 8-wide `|v|` max
    //! reduction (exact — max is order-free), then a 32-wide
    //! multiply → round → clamp → convert → pack pipeline. Every float
    //! op (`mulps`, `roundps` nearest-even, min/max clamp ordered to
    //! propagate NaN like `f32::clamp`, exact in-range `cvtps`) mirrors
    //! the scalar oracle operation-for-operation, so the emitted codes
    //! are bit-identical.

    use core::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2+FMA (checked by the caller). `data` is `m × kp`
    /// zero-initialized, `scales` is length `m`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn quantize_rows(
        x: &[f32],
        m: usize,
        k: usize,
        kp: usize,
        data: &mut [u8],
        scales: &mut [f32],
    ) {
        let sign = _mm256_set1_ps(-0.0);
        let lo = _mm256_set1_ps(-63.0);
        let hi = _mm256_set1_ps(63.0);
        let zp = _mm256_set1_epi32(64);
        // Dword shuffle undoing the 128-bit-lane interleave of
        // packs_epi32 + packus_epi16.
        let unlane = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        for r in 0..m {
            let row = &x[r * k..(r + 1) * k];
            let mut acc = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 8 <= k {
                let a = _mm256_andnot_ps(sign, _mm256_loadu_ps(row.as_ptr().add(i)));
                // maxps returns the second operand on NaN — matching
                // f32::max(acc, NaN) == acc.
                acc = _mm256_max_ps(a, acc);
                i += 8;
            }
            let mut tmp = [0.0f32; 8];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc);
            let mut maxabs = tmp.iter().fold(0.0f32, |a, &t| a.max(t));
            while i < k {
                maxabs = maxabs.max(row[i].abs());
                i += 1;
            }
            let s = if maxabs > 0.0 { maxabs / 63.0 } else { 1.0 };
            let inv = 1.0 / s;
            scales[r] = s;

            let out = &mut data[r * kp..r * kp + k];
            let vinv = _mm256_set1_ps(inv);
            let code8 = |off: usize| -> __m256i {
                let t = _mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(off)), vinv);
                let rr = _mm256_round_ps(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
                // min(hi, max(lo, rr)): NaN rides through in the second
                // operand, exactly like f32::clamp.
                let c = _mm256_min_ps(hi, _mm256_max_ps(lo, rr));
                let ord = _mm256_castps_si256(_mm256_cmp_ps(c, c, _CMP_ORD_Q));
                // cvt is exact on the clamped range; NaN lanes (cvt →
                // i32::MIN) are zeroed by the ordered mask → zero point.
                _mm256_add_epi32(_mm256_and_si256(_mm256_cvtps_epi32(c), ord), zp)
            };
            let mut i = 0usize;
            while i + 32 <= k {
                let p01 = _mm256_packs_epi32(code8(i), code8(i + 8));
                let p23 = _mm256_packs_epi32(code8(i + 16), code8(i + 24));
                // Codes are already in [0, 127]; the packs are pure
                // narrowing, never saturation.
                let b = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(p01, p23), unlane);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, b);
                i += 32;
            }
            for (o, &v) in out[i..].iter_mut().zip(&row[i..]) {
                let q = (v * inv).round_ties_even().clamp(-63.0, 63.0) as i32 + 64;
                *o = q as u8;
            }
        }
    }
}

/// Fused int8 GEMM + dequant + bias: `out[m, n] = dequant(qx · qW) + bias`.
///
/// Runs in 4-row blocks; the integer accumulation is exact and the
/// epilogue is per-element, so outputs are bitwise identical at either
/// SIMD level.
pub fn qgemm(
    level: SimdLevel,
    acts: &QuantActs,
    w: &QuantizedTensor,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(acts.kp, w.kp, "activation/weight K mismatch");
    assert_eq!(acts.k, w.k, "activation/weight k mismatch");
    assert_eq!(out.len(), acts.m * w.n, "output buffer mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), w.n, "bias length mismatch");
    }
    let m = acts.m;
    let n = w.n;
    if m == 0 || n == 0 {
        return;
    }
    // Padded bias so the 8-wide epilogue never reads past `n`.
    let mut bias_p = vec![0.0f32; w.np];
    if let Some(b) = bias {
        bias_p[..n].copy_from_slice(b);
    }

    let mut r = 0;
    while r < m {
        let mr = (m - r).min(4);
        let rows_out = &mut out[r * n..(r + mr) * n];
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => unsafe {
                if vnni_available() {
                    vnni::qgemm_block(acts, w, &bias_p, r, mr, rows_out);
                } else {
                    avx2::qgemm_block(acts, w, &bias_p, r, mr, rows_out);
                }
            },
            _ => qgemm_block_scalar(acts, w, &bias_p, r, mr, rows_out),
        }
        r += mr;
    }
}

/// Scalar oracle for one ≤4-row block. Reads the same packed panel bytes
/// as the AVX2 kernel and uses the same fused epilogue expression, so the
/// two paths agree bit-for-bit.
fn qgemm_block_scalar(
    acts: &QuantActs,
    w: &QuantizedTensor,
    bias_p: &[f32],
    r0: usize,
    mr: usize,
    out: &mut [f32],
) {
    let groups = w.kp / KG;
    let panel_stride = groups * KG * NR;
    for dr in 0..mr {
        let r = r0 + dr;
        let qrow = &acts.data[r * acts.kp..(r + 1) * acts.kp];
        let sa = acts.scales[r];
        for p in 0..w.np / NR {
            let panel = &w.data[p * panel_stride..(p + 1) * panel_stride];
            for j2 in 0..NR {
                let j = p * NR + j2;
                if j >= w.n {
                    break;
                }
                let mut acc = 0i32;
                for g in 0..groups {
                    let a = &qrow[g * KG..g * KG + KG];
                    let b = &panel[g * KG * NR + j2 * KG..g * KG * NR + j2 * KG + KG];
                    for t in 0..KG {
                        acc += a[t] as i32 * b[t] as i32;
                    }
                }
                let c = (acc - 64 * w.wsum[j]) as f32;
                out[dr * w.n + j] = c.mul_add(sa * w.scales[j], bias_p[j]);
            }
        }
    }
}

/// Whether the `vpdpbusd` microkernel is usable on this host. Cached:
/// the qgemm dispatch is on the per-block hot path.
#[cfg(target_arch = "x86_64")]
fn vnni_available() -> bool {
    static V: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *V.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512vl")
    })
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 i8×u8→i32 microkernel: 4 rows × 16-column panels.
    //!
    //! Per k-group of 4, each row broadcasts its 4 activation bytes to
    //! every 32-bit lane (`vpbroadcastd`); `vpmaddubsw` multiplies them
    //! against the packed weight bytes (u8 × i8 → paired i16 sums —
    //! exact, because activations are capped at 127) and `vpmaddwd`
    //! widens each i16 pair into the i32 accumulators. 8 accumulator
    //! registers (4 rows × 2 column halves) stay resident across the
    //! whole K loop, and each 64-byte weight group is loaded once and
    //! shared by all 4 rows.

    use super::{QuantActs, QuantizedTensor, KG, NR};
    use core::arch::x86_64::*;

    /// One ≤4-row × all-panels block, rows starting at `r0`; `out` is the
    /// `mr × n` output rows.
    ///
    /// # Safety
    /// Requires AVX2+FMA (checked by the caller's dispatch level).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn qgemm_block(
        acts: &QuantActs,
        w: &QuantizedTensor,
        bias_p: &[f32],
        r0: usize,
        mr: usize,
        out: &mut [f32],
    ) {
        debug_assert!((1..=4).contains(&mr));
        let groups = w.kp / KG;
        let panel_stride = groups * KG * NR;
        let ones = _mm256_set1_epi16(1);

        for p in 0..w.np / NR {
            let panel = w.data.as_ptr().add(p * panel_stride) as *const u8;
            let mut acc = [[_mm256_setzero_si256(); 2]; 4];
            for g in 0..groups {
                let b0 = _mm256_loadu_si256(panel.add(g * KG * NR) as *const __m256i);
                let b1 = _mm256_loadu_si256(panel.add(g * KG * NR + 32) as *const __m256i);
                for (dr, acc_r) in acc.iter_mut().enumerate().take(mr) {
                    let arow = acts.data.as_ptr().add((r0 + dr) * acts.kp + g * KG);
                    let a = _mm256_set1_epi32((arow as *const i32).read_unaligned());
                    acc_r[0] = _mm256_add_epi32(
                        acc_r[0],
                        _mm256_madd_epi16(_mm256_maddubs_epi16(a, b0), ones),
                    );
                    acc_r[1] = _mm256_add_epi32(
                        acc_r[1],
                        _mm256_madd_epi16(_mm256_maddubs_epi16(a, b1), ones),
                    );
                }
            }
            super::x86_epilogue(acts, w, bias_p, r0, mr, out, p, &acc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod vnni {
    //! AVX-512-VNNI variant of the microkernel (256-bit registers via
    //! AVX512VL): `vpdpbusd` fuses the u8×i8 multiply, the widening, and
    //! the i32 accumulate into one instruction. The plain-AVX2 path needs
    //! `vpmaddubsw` + `vpmaddwd`, which contend for the same two SIMD
    //! multiply ports and cap int8 at roughly f32-FMA throughput; one
    //! `vpdpbusd` per 32 MACs is what delivers the ≥2× win over f32.
    //! `vpdpbusd` accumulates in full i32 (no i16 saturation anywhere),
    //! so the result is bit-identical to the scalar oracle and to the
    //! `maddubs` path.

    use super::{QuantActs, QuantizedTensor, KG, NR};
    use core::arch::x86_64::*;

    /// One ≤4-row × all-panels block, rows starting at `r0`; `out` is the
    /// `mr × n` output rows.
    ///
    /// # Safety
    /// Requires AVX2+FMA+AVX512VNNI+AVX512VL (checked by
    /// [`super::vnni_available`] at dispatch).
    #[target_feature(enable = "avx2,fma,avx512vnni,avx512vl")]
    pub unsafe fn qgemm_block(
        acts: &QuantActs,
        w: &QuantizedTensor,
        bias_p: &[f32],
        r0: usize,
        mr: usize,
        out: &mut [f32],
    ) {
        debug_assert!((1..=4).contains(&mr));
        let groups = w.kp / KG;
        let panel_stride = groups * KG * NR;

        for p in 0..w.np / NR {
            let panel = w.data.as_ptr().add(p * panel_stride) as *const u8;
            let mut acc = [[_mm256_setzero_si256(); 2]; 4];
            for g in 0..groups {
                let b0 = _mm256_loadu_si256(panel.add(g * KG * NR) as *const __m256i);
                let b1 = _mm256_loadu_si256(panel.add(g * KG * NR + 32) as *const __m256i);
                for (dr, acc_r) in acc.iter_mut().enumerate().take(mr) {
                    let arow = acts.data.as_ptr().add((r0 + dr) * acts.kp + g * KG);
                    let a = _mm256_set1_epi32((arow as *const i32).read_unaligned());
                    acc_r[0] = _mm256_dpbusd_epi32(acc_r[0], a, b0);
                    acc_r[1] = _mm256_dpbusd_epi32(acc_r[1], a, b1);
                }
            }
            super::x86_epilogue(acts, w, bias_p, r0, mr, out, p, &acc);
        }
    }
}

/// Fused dequant + bias epilogue shared by the x86 microkernels:
/// `(acc − 64·wsum) · (s_r·s_j) + b` for one panel's 4×2 accumulators,
/// with a masked tail store on the last ragged panel.
///
/// # Safety
/// Requires AVX2+FMA; `acc` holds panel `p`'s accumulators for rows
/// `r0..r0+mr`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn x86_epilogue(
    acts: &QuantActs,
    w: &QuantizedTensor,
    bias_p: &[f32],
    r0: usize,
    mr: usize,
    out: &mut [f32],
    p: usize,
    acc: &[[core::arch::x86_64::__m256i; 2]; 4],
) {
    use core::arch::x86_64::*;
    let n = w.n;
    for (dr, acc_r) in acc.iter().enumerate().take(mr) {
        let sa = _mm256_set1_ps(acts.scales[r0 + dr]);
        for (h, &acc_h) in acc_r.iter().enumerate() {
            let j0 = p * NR + h * 8;
            let wsum = _mm256_loadu_si256(w.wsum.as_ptr().add(j0) as *const __m256i);
            let corr = _mm256_sub_epi32(acc_h, _mm256_slli_epi32(wsum, 6));
            let c = _mm256_cvtepi32_ps(corr);
            let sj = _mm256_loadu_ps(w.scales.as_ptr().add(j0));
            let bv = _mm256_loadu_ps(bias_p.as_ptr().add(j0));
            let y = _mm256_fmadd_ps(c, _mm256_mul_ps(sa, sj), bv);
            if j0 + 8 <= n {
                _mm256_storeu_ps(out.as_mut_ptr().add(dr * n + j0), y);
            } else if j0 < n {
                let mut tmp = [0.0f32; 8];
                _mm256_storeu_ps(tmp.as_mut_ptr(), y);
                out[dr * n + j0..dr * n + n].copy_from_slice(&tmp[..n - j0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_vec(n: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                lo + ((state >> 40) as f32 / (1u64 << 24) as f32) * (hi - lo)
            })
            .collect()
    }

    /// Reference f32 matmul for error bounds.
    fn matmul_ref(x: &[f32], w: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut y = vec![0.0f32; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for i in 0..k {
                    acc += x[r * k + i] * w[i * n + j];
                }
                y[r * n + j] = acc;
            }
        }
        y
    }

    #[test]
    fn weight_roundtrip_error_bounded() {
        let (k, n) = (37, 19);
        let w = lcg_vec(k * n, 7, -2.0, 2.0);
        let q = QuantizedTensor::quantize(&w, k, n);
        let wd = q.dequantize();
        for j in 0..n {
            let maxabs = (0..k).fold(0.0f32, |a, i| a.max(w[i * n + j].abs()));
            for i in 0..k {
                let err = (w[i * n + j] - wd[i * n + j]).abs();
                // Symmetric ±W_MAX codes: error ≤ half a quantization step.
                assert!(
                    err <= maxabs / W_MAX as f32 * 0.5 + 1e-7,
                    "col {j} row {i}: err {err} vs step {}",
                    maxabs / W_MAX as f32
                );
            }
        }
    }

    #[test]
    fn act_quantization_zero_point_and_range() {
        let x = vec![0.0, 1.0, -1.0, 0.5, -0.25, 63.0, -63.0, 0.0];
        let acts = quantize_acts(&x, 2, 4);
        assert_eq!(acts.kp, 4);
        // All bytes within [0, 127]; zero maps to the zero point 64.
        assert!(acts.data.iter().all(|&b| b <= 127));
        assert_eq!(acts.data[0], 64);
        // Row of all zeros gets scale 1.0.
        let z = quantize_acts(&[0.0; 8], 2, 4);
        assert_eq!(z.scales, vec![1.0, 1.0]);
        assert!(z.data.iter().all(|&b| b == 64));
    }

    #[test]
    fn qgemm_matches_f32_within_bound() {
        for &(m, k, n) in &[(1, 8, 4), (5, 37, 19), (16, 96, 288), (3, 4, 16)] {
            let x = lcg_vec(m * k, 11, -1.5, 1.5);
            let w = lcg_vec(k * n, 13, -0.8, 0.8);
            let bias = lcg_vec(n, 17, -0.5, 0.5);
            let y_ref = {
                let mut y = matmul_ref(&x, &w, m, k, n);
                for r in 0..m {
                    for j in 0..n {
                        y[r * n + j] += bias[j];
                    }
                }
                y
            };
            let q = QuantizedTensor::quantize(&w, k, n);
            let acts = quantize_acts(&x, m, k);
            let mut y = vec![0.0f32; m * n];
            qgemm(SimdLevel::Scalar, &acts, &q, Some(&bias), &mut y);
            let max_ref = y_ref.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            for (a, b) in y_ref.iter().zip(&y) {
                assert!(
                    (a - b).abs() <= 0.02 * max_ref.max(1.0),
                    "({m},{k},{n}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn avx2_matches_scalar_bitwise() {
        if crate::simd::level() != SimdLevel::Avx2Fma {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        // Hostile shapes: ragged k (groups padding), ragged n (panel
        // padding + masked store), row tails at every mr in 1..=4.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 5),
            (4, 4, 16),
            (5, 7, 17),
            (6, 96, 288),
            (9, 33, 31),
            (16, 13, 40),
        ] {
            let x = lcg_vec(m * k, 23, -3.0, 3.0);
            let w = lcg_vec(k * n, 29, -1.0, 1.0);
            let bias = lcg_vec(n, 31, -0.5, 0.5);
            let q = QuantizedTensor::quantize(&w, k, n);
            let acts = quantize_acts(&x, m, k);
            let mut y_s = vec![0.0f32; m * n];
            let mut y_v = vec![0.0f32; m * n];
            qgemm(SimdLevel::Scalar, &acts, &q, Some(&bias), &mut y_s);
            qgemm(SimdLevel::Avx2Fma, &acts, &q, Some(&bias), &mut y_v);
            assert_eq!(
                y_s.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k},{n}) scalar vs avx2 not bitwise"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn quantize_acts_simd_matches_scalar_bitwise() {
        if crate::simd::level() != SimdLevel::Avx2Fma {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        // Ragged k around both the 8-wide max loop and the 32-wide encode
        // loop, plus special values (zero rows, subnormals, huge spread).
        for &(m, k) in &[
            (1, 1),
            (3, 7),
            (5, 31),
            (4, 96),
            (2, 100),
            (7, 33),
            (1, 256),
        ] {
            let mut x = lcg_vec(m * k, 53, -40.0, 40.0);
            if m > 1 {
                for v in &mut x[k..2 * k] {
                    *v = 0.0; // all-zero row → scale 1.0, all codes 64
                }
            }
            x[0] = 1e-40; // subnormal
            let q_simd = quantize_acts(&x, m, k);
            let kp = k.next_multiple_of(KG);
            let mut data = vec![0u8; m * kp];
            let mut scales = vec![1.0f32; m];
            super::quantize_acts_scalar(&x, m, k, kp, &mut data, &mut scales);
            assert_eq!(q_simd.data, data, "({m},{k}) codes differ");
            assert_eq!(
                q_simd
                    .scales
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                scales.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k}) scales differ"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vnni_matches_maddubs_bitwise() {
        if crate::simd::level() != SimdLevel::Avx2Fma || !super::vnni_available() {
            eprintln!("skipping: no AVX-512 VNNI on this host");
            return;
        }
        // `qgemm` auto-dispatches to the vpdpbusd kernel here; drive the
        // maddubs kernel directly so both SIMD paths are pinned against
        // each other (avx2_matches_scalar_bitwise covers scalar vs auto).
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 17), (6, 96, 288), (16, 13, 40)] {
            let x = lcg_vec(m * k, 23, -3.0, 3.0);
            let w = lcg_vec(k * n, 29, -1.0, 1.0);
            let bias = lcg_vec(n, 31, -0.5, 0.5);
            let q = QuantizedTensor::quantize(&w, k, n);
            let acts = quantize_acts(&x, m, k);
            let mut bias_p = vec![0.0f32; q.np];
            bias_p[..n].copy_from_slice(&bias);
            let mut y_vnni = vec![0.0f32; m * n];
            qgemm(SimdLevel::Avx2Fma, &acts, &q, Some(&bias), &mut y_vnni);
            let mut y_maddubs = vec![0.0f32; m * n];
            let mut r = 0;
            while r < m {
                let mr = (m - r).min(4);
                unsafe {
                    super::avx2::qgemm_block(
                        &acts,
                        &q,
                        &bias_p,
                        r,
                        mr,
                        &mut y_maddubs[r * n..(r + mr) * n],
                    );
                }
                r += mr;
            }
            assert_eq!(
                y_vnni.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_maddubs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k},{n}) vnni vs maddubs not bitwise"
            );
        }
    }

    #[test]
    fn tier_selection_falls_back_on_pathological_weights() {
        // A well-behaved weight stays int8.
        let w = lcg_vec(32 * 16, 51, -1.0, 1.0);
        let (tier, rel) = select_tier(&w, 32, 16, INT8_TIER_THRESHOLD);
        assert_eq!(tier.tier(), "int8", "rel err {rel}");
        // A column with one huge outlier crushes the scale of everything
        // else in that channel → calibration error blows past the gate.
        let mut w_bad = w.clone();
        for i in 0..32 {
            // Tiny signal everywhere...
            w_bad[i * 16] = 1e-4 * (i as f32 - 16.0);
        }
        w_bad[16] = 1e4; // ...one enormous outlier in the same column.
        let (_, rel_bad) = select_tier(&w_bad, 32, 16, INT8_TIER_THRESHOLD);
        assert!(rel_bad > 0.0);
        let (tier_forced, _) = select_tier(&w_bad, 32, 16, 0.0);
        assert_eq!(tier_forced.tier(), "f16");
    }

    #[test]
    fn f16_weight_roundtrip() {
        let w = lcg_vec(24 * 12, 61, -4.0, 4.0);
        let fw = F16Weight::compress(&w, 24, 12);
        let wd = fw.decompress();
        for (a, b) in w.iter().zip(&wd) {
            assert!((a - b).abs() <= a.abs() * 1.0 / 1024.0 + 1e-6);
        }
        assert_eq!(fw.nbytes(), 24 * 12 * 2);
    }

    #[test]
    fn precision_parse_roundtrip() {
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            assert_eq!(Precision::parse(p.as_str()), Some(p));
        }
        assert_eq!(Precision::parse("bf16"), None);
    }
}
