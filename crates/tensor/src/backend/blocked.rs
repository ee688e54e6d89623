//! `Blocked`: the default fast backend.
//!
//! - **matmul** — GEBP-style: the B operand is packed into `NR`-wide column
//!   panels per `KC`-deep K-block, A into `MR`-tall row strips, and an
//!   `MR×NR` register-tile microkernel runs over the packed panels. Batches
//!   and row blocks parallelize over rayon.
//! - **attention** — fused `softmax(Q·Kᵀ·scale + mask)·V`: query rows are
//!   processed in blocks of [`QB`] so each K/V row streams from cache once
//!   per block, and the `(n, n)` score matrix is never materialized.
//! - **elementwise / reductions / softmax** — rayon-parallel above the
//!   runtime-tunable [`Blocked::par_threshold`] element count, with
//!   in-place variants that skip the output allocation entirely.
//!
//! # Blocked v2: SIMD lanes + thread determinism
//!
//! The transcendental elementwise kernels (`gelu`, `gelu_grad`, `exp`,
//! `tanh`), row softmax, fused attention, and the GEBP microkernel route
//! through [`crate::simd`]: 8-wide AVX2+FMA lanes when the CPU has them,
//! an exactly-libm scalar fallback otherwise ([`Blocked::with_simd`]
//! pins it per instance for parity tests).
//!
//! Every kernel is **bitwise thread-count invariant**: the same input
//! yields the same bits at 1, 2, 4, or any number of rayon threads.
//! - Lane/tail-structured elementwise kernels parallelize over
//!   **fixed-size** [`SIMD_CHUNK`] chunks (a multiple of
//!   [`crate::simd::LANES`]), so the lane/tail split of every element is a
//!   function of slice length alone, never of thread count.
//! - Row kernels (softmax, layernorm, attention) split on row boundaries;
//!   each row's arithmetic is self-contained.
//! - The matmul's parallel row-split is `MR`-aligned and per-element
//!   accumulation order (`KC`-block outer, packed-`kk` inner) is identical
//!   no matter which task computes a row.
//! - [`Backend::sum`] reduces fixed 4096-element chunk partials into a
//!   positionally-ordered buffer and folds that buffer serially, so even
//!   the f64 add order is thread-independent.

use rayon::prelude::*;

use super::{AttentionSpec, Backend, BinaryOp, MatmulSpec, UnaryOp};
use crate::simd::{self, SimdLevel};

/// Parallelism threshold (elements) of the process default; tests pin
/// other values per instance.
pub const DEFAULT_PAR_THRESHOLD: usize = 32 * 1024;

/// Microkernel tile: MR rows of A × NR columns of B held in registers.
const MR: usize = 4;
const NR: usize = 16;
/// K-blocking depth: one packed B panel spans `KC × NR` floats (16 KiB at
/// 256×16), sized to stay L1/L2-resident under streaming.
const KC: usize = 256;
/// Query-row block of the fused attention kernel.
const QB: usize = 8;
/// Serial cutoff: problems under this many flops aren't worth fan-out.
const MIN_PAR_FLOPS: usize = 64 * 1024;
/// Fixed parallel chunk (elements) for lane-structured elementwise
/// kernels. A multiple of [`simd::LANES`], so chunk boundaries never move
/// an element between the lane and tail paths — outputs are bitwise
/// identical at any thread count.
const SIMD_CHUNK: usize = 4096;
const _: () = assert!(SIMD_CHUNK.is_multiple_of(simd::LANES));
// The packed-panel microkernel is specialized to this tile.
const _: () = assert!(MR == 4 && NR == 16);

#[derive(Debug, Clone)]
pub struct Blocked {
    par_threshold: usize,
    simd: SimdLevel,
}

impl Default for Blocked {
    fn default() -> Self {
        Self::new(DEFAULT_PAR_THRESHOLD)
    }
}

impl Blocked {
    /// Backend with an explicit parallelism threshold (elements).
    pub fn new(par_threshold: usize) -> Self {
        Self::with_simd(par_threshold, simd::level())
    }

    /// Backend with a pinned SIMD level — the kernel-parity tests use this
    /// to run the lane and fallback paths side by side in one process.
    pub fn with_simd(par_threshold: usize, level: SimdLevel) -> Self {
        Self {
            par_threshold: par_threshold.max(1),
            simd: level,
        }
    }

    #[inline]
    fn parallel(&self, n: usize) -> bool {
        n >= self.par_threshold && rayon::current_num_threads() > 1
    }

    fn run_unary(&self, x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32 + Sync + Send) {
        if self.parallel(out.len()) {
            out.par_iter_mut()
                .zip(x.par_iter())
                .for_each(|(o, &v)| *o = f(v));
        } else {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = f(v);
            }
        }
    }

    fn run_unary_inplace(&self, x: &mut [f32], f: impl Fn(f32) -> f32 + Sync + Send) {
        if self.parallel(x.len()) {
            x.par_iter_mut().for_each(|v| *v = f(*v));
        } else {
            for v in x.iter_mut() {
                *v = f(*v);
            }
        }
    }

    fn run_binary(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        f: impl Fn(f32, f32) -> f32 + Sync + Send,
    ) {
        if self.parallel(out.len()) {
            out.par_iter_mut()
                .zip(a.par_iter().zip(b.par_iter()))
                .for_each(|(o, (&x, &y))| *o = f(x, y));
        } else {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
    }

    fn run_binary_inplace(
        &self,
        acc: &mut [f32],
        b: &[f32],
        f: impl Fn(f32, f32) -> f32 + Sync + Send,
    ) {
        if self.parallel(acc.len()) {
            acc.par_iter_mut()
                .zip(b.par_iter())
                .for_each(|(x, &y)| *x = f(*x, y));
        } else {
            for (x, &y) in acc.iter_mut().zip(b) {
                *x = f(*x, y);
            }
        }
    }

    fn run_simd_unary(&self, x: &[f32], out: &mut [f32], kern: SimdMapFn) {
        if self.parallel(out.len()) {
            out.par_chunks_mut(SIMD_CHUNK)
                .zip(x.par_chunks(SIMD_CHUNK))
                .for_each(|(o, xc)| kern(self.simd, xc, o));
        } else {
            kern(self.simd, x, out);
        }
    }

    fn run_simd_unary_inplace(&self, x: &mut [f32], kern: SimdMapInplaceFn) {
        if self.parallel(x.len()) {
            x.par_chunks_mut(SIMD_CHUNK)
                .for_each(|c| kern(self.simd, c));
        } else {
            kern(self.simd, x);
        }
    }

    /// Shared driver of the two matmul adjoints: a batched `gm×gk · gk×gn`
    /// product where each operand is a *strided view* (`ars`/`acs`,
    /// `brs`/`bcs` = row/column element strides), so transposed operands run
    /// through the packed microkernel without materializing a transpose.
    /// `offs[bi]` are element offsets of batch `bi`'s operand matrices; the
    /// output is dense `gm×gn` per batch. Parallel dispatch mirrors
    /// [`Backend::matmul`]: per-batch tasks when batches are plentiful,
    /// MR-aligned row splits otherwise — accumulation order per output
    /// element is thread-count invariant either way.
    #[allow(clippy::too_many_arguments)]
    fn grad_gemm(
        &self,
        aop: &[f32],
        bop: &[f32],
        out: &mut [f32],
        gm: usize,
        gk: usize,
        gn: usize,
        ars: usize,
        acs: usize,
        brs: usize,
        bcs: usize,
        offs: &[(usize, usize)],
    ) {
        let o_mat = gm * gn;
        if o_mat == 0 || offs.is_empty() {
            return;
        }
        let n_batch = offs.len();
        let flops = 2 * n_batch * gm * gk * gn;
        let threads = rayon::current_num_threads();

        if flops < MIN_PAR_FLOPS || threads <= 1 {
            for (bi, o) in out.chunks_mut(o_mat).enumerate() {
                let (aoff, boff) = offs[bi];
                gebp_strided(
                    self.simd,
                    &aop[aoff..],
                    &bop[boff..],
                    o,
                    gm,
                    gk,
                    gn,
                    ars,
                    acs,
                    brs,
                    bcs,
                );
            }
        } else if n_batch >= threads {
            out.par_chunks_mut(o_mat).enumerate().for_each(|(bi, o)| {
                let (aoff, boff) = offs[bi];
                gebp_strided(
                    self.simd,
                    &aop[aoff..],
                    &bop[boff..],
                    o,
                    gm,
                    gk,
                    gn,
                    ars,
                    acs,
                    brs,
                    bcs,
                );
            });
        } else {
            let rows_per_task = gm.div_ceil(threads.div_ceil(n_batch)).div_ceil(MR).max(1) * MR;
            let tasks: Vec<(usize, usize, usize)> = (0..n_batch)
                .flat_map(|bi| {
                    (0..gm)
                        .step_by(rows_per_task)
                        .map(move |r0| (bi, r0, (r0 + rows_per_task).min(gm)))
                })
                .collect();
            type RowTask<'a> = (&'a mut [f32], (usize, usize, usize));
            let mut slices: Vec<RowTask<'_>> = Vec::with_capacity(tasks.len());
            {
                let mut rest = out;
                let mut prev_end = 0usize;
                for &(bi, r0, r1) in &tasks {
                    let start = bi * o_mat + r0 * gn;
                    let end = bi * o_mat + r1 * gn;
                    let (_, tail) = rest.split_at_mut(start - prev_end);
                    let (mine, tail) = tail.split_at_mut(end - start);
                    rest = tail;
                    prev_end = end;
                    slices.push((mine, (bi, r0, r1)));
                }
            }
            slices.par_iter_mut().for_each(|(o, (bi, r0, r1))| {
                let (aoff, boff) = offs[*bi];
                // Row block [r0, r1) of the A view starts r0 row-strides in.
                gebp_strided(
                    self.simd,
                    &aop[aoff + *r0 * ars..],
                    &bop[boff..],
                    o,
                    *r1 - *r0,
                    gk,
                    gn,
                    ars,
                    acs,
                    brs,
                    bcs,
                );
            });
        }
    }
}

/// Slice-level lane kernel signatures (see `ctensor::simd`).
type SimdMapFn = fn(SimdLevel, &[f32], &mut [f32]);
type SimdMapInplaceFn = fn(SimdLevel, &mut [f32]);

/// The transcendental ops with a lane implementation; everything else
/// stays on the (auto-vectorizing) per-element path.
fn simd_unary(op: UnaryOp) -> Option<SimdMapFn> {
    match op {
        UnaryOp::Exp => Some(simd::exp_slice),
        UnaryOp::Tanh => Some(simd::tanh_slice),
        UnaryOp::Gelu => Some(simd::gelu_slice),
        UnaryOp::GeluGrad => Some(simd::gelu_grad_slice),
        _ => None,
    }
}

fn simd_unary_inplace(op: UnaryOp) -> Option<SimdMapInplaceFn> {
    match op {
        UnaryOp::Exp => Some(simd::exp_slice_inplace),
        UnaryOp::Tanh => Some(simd::tanh_slice_inplace),
        UnaryOp::Gelu => Some(simd::gelu_slice_inplace),
        UnaryOp::GeluGrad => Some(simd::gelu_grad_slice_inplace),
        _ => None,
    }
}

impl Backend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn par_threshold(&self) -> usize {
        self.par_threshold
    }

    fn unary(&self, op: UnaryOp, x: &[f32], out: &mut [f32]) {
        if let Some(kern) = simd_unary(op) {
            return self.run_simd_unary(x, out, kern);
        }
        match op {
            UnaryOp::Scale(c) => self.run_unary(x, out, move |v| v * c),
            UnaryOp::AddScalar(c) => self.run_unary(x, out, move |v| v + c),
            _ => self.run_unary(x, out, move |v| op.apply(v)),
        }
    }

    fn unary_inplace(&self, op: UnaryOp, x: &mut [f32]) {
        if let Some(kern) = simd_unary_inplace(op) {
            return self.run_simd_unary_inplace(x, kern);
        }
        match op {
            UnaryOp::Scale(c) => self.run_unary_inplace(x, move |v| v * c),
            UnaryOp::AddScalar(c) => self.run_unary_inplace(x, move |v| v + c),
            _ => self.run_unary_inplace(x, move |v| op.apply(v)),
        }
    }

    fn binary(&self, op: BinaryOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        match op {
            BinaryOp::Add => self.run_binary(a, b, out, |x, y| x + y),
            BinaryOp::Sub => self.run_binary(a, b, out, |x, y| x - y),
            BinaryOp::Mul => self.run_binary(a, b, out, |x, y| x * y),
            BinaryOp::Div => self.run_binary(a, b, out, |x, y| x / y),
        }
    }

    fn binary_inplace(&self, op: BinaryOp, acc: &mut [f32], b: &[f32]) {
        match op {
            BinaryOp::Add => self.run_binary_inplace(acc, b, |x, y| x + y),
            BinaryOp::Sub => self.run_binary_inplace(acc, b, |x, y| x - y),
            BinaryOp::Mul => self.run_binary_inplace(acc, b, |x, y| x * y),
            BinaryOp::Div => self.run_binary_inplace(acc, b, |x, y| x / y),
        }
    }

    fn binary_strided(
        &self,
        op: BinaryOp,
        a: &[f32],
        sa: &[usize],
        b: &[f32],
        sb: &[usize],
        out_shape: &[usize],
        out: &mut [f32],
    ) {
        let nd = out_shape.len();
        let n = out.len();
        // Odometer walk with incrementally-maintained operand offsets — one
        // add per dimension step instead of a full unravel per element.
        let compute = |start: usize, chunk: &mut [f32]| {
            let mut idx = vec![0usize; nd];
            crate::shape::unravel(start, out_shape, &mut idx);
            let mut off_a: usize = idx.iter().zip(sa).map(|(&i, &s)| i * s).sum();
            let mut off_b: usize = idx.iter().zip(sb).map(|(&i, &s)| i * s).sum();
            for o in chunk.iter_mut() {
                *o = op.apply(a[off_a], b[off_b]);
                for d in (0..nd).rev() {
                    idx[d] += 1;
                    off_a += sa[d];
                    off_b += sb[d];
                    if idx[d] < out_shape[d] {
                        break;
                    }
                    off_a -= sa[d] * out_shape[d];
                    off_b -= sb[d] * out_shape[d];
                    idx[d] = 0;
                }
            }
        };
        if self.parallel(n) {
            let chunk = n
                .div_ceil(rayon::current_num_threads().max(1) * 4)
                .max(1024);
            out.par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(ci, c)| compute(ci * chunk, c));
        } else {
            compute(0, out);
        }
    }

    fn sum(&self, x: &[f32]) -> f64 {
        if self.parallel(x.len()) {
            // Fixed 4096-element chunk partials land in positional slots and
            // are folded serially, so the f64 add order — hence the result's
            // bits — is independent of the thread count.
            let mut partials = vec![0.0f64; x.len().div_ceil(4096)];
            partials
                .par_iter_mut()
                .zip(x.par_chunks(4096))
                .for_each(|(p, c)| *p = c.iter().map(|&v| v as f64).sum::<f64>());
            partials.iter().sum()
        } else {
            x.iter().map(|&v| v as f64).sum()
        }
    }

    fn softmax_rows(&self, x: &[f32], out: &mut [f32], row: usize) {
        if row == 0 {
            return;
        }
        // Lane-wise max reduction + subtraction before exp (numerical
        // stability for logits spanning ±1e4) lives in the simd kernel.
        let lv = self.simd;
        let body = move |xr: &[f32], or: &mut [f32]| simd::softmax_row(lv, xr, or);
        if self.parallel(x.len()) && x.len() > row {
            out.par_chunks_mut(row)
                .zip(x.par_chunks(row))
                .for_each(|(or, xr)| body(xr, or));
        } else {
            for (xr, or) in x.chunks(row).zip(out.chunks_mut(row)) {
                body(xr, or);
            }
        }
    }

    fn layernorm_rows(&self, x: &[f32], out: &mut [f32], row: usize, eps: f32) {
        if row == 0 {
            return;
        }
        let body = |xr: &[f32], or: &mut [f32]| {
            let mean = xr.iter().sum::<f32>() / row as f32;
            let var = xr.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / row as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (o, &v) in or.iter_mut().zip(xr) {
                *o = (v - mean) * inv;
            }
        };
        if self.parallel(x.len()) && x.len() > row {
            out.par_chunks_mut(row)
                .zip(x.par_chunks(row))
                .for_each(|(or, xr)| body(xr, or));
        } else {
            for (xr, or) in x.chunks(row).zip(out.chunks_mut(row)) {
                body(xr, or);
            }
        }
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], spec: &MatmulSpec) {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        let n_batch = spec.batch_offsets.len();
        let o_mat = m * n;
        if o_mat == 0 || n_batch == 0 {
            return; // degenerate output; chunks_mut(0) below would panic
        }
        let flops = 2 * n_batch * m * n * k;
        let threads = rayon::current_num_threads();

        if flops < MIN_PAR_FLOPS || threads <= 1 {
            for (bi, o) in out.chunks_mut(o_mat).enumerate() {
                let (ao, bo) = spec.batch_offsets[bi];
                gebp(
                    self.simd,
                    &a[ao * m * k..(ao + 1) * m * k],
                    &b[bo * k * n..(bo + 1) * k * n],
                    o,
                    m,
                    k,
                    n,
                    spec.bias,
                );
            }
        } else if n_batch >= threads {
            // Many batches: one task per output matrix.
            out.par_chunks_mut(o_mat).enumerate().for_each(|(bi, o)| {
                let (ao, bo) = spec.batch_offsets[bi];
                gebp(
                    self.simd,
                    &a[ao * m * k..(ao + 1) * m * k],
                    &b[bo * k * n..(bo + 1) * k * n],
                    o,
                    m,
                    k,
                    n,
                    spec.bias,
                );
            });
        } else {
            // Few batches: split row blocks within each matrix. Row blocks
            // are MR-aligned so no two tasks share a microkernel tile.
            let rows_per_task = m.div_ceil(threads.div_ceil(n_batch)).div_ceil(MR).max(1) * MR;
            let tasks: Vec<(usize, usize, usize)> = (0..n_batch)
                .flat_map(|bi| {
                    (0..m)
                        .step_by(rows_per_task)
                        .map(move |r0| (bi, r0, (r0 + rows_per_task).min(m)))
                })
                .collect();
            // Hand each task its disjoint slice of `out`.
            type RowTask<'a> = (&'a mut [f32], (usize, usize, usize));
            let mut slices: Vec<RowTask<'_>> = Vec::with_capacity(tasks.len());
            {
                let mut rest = out;
                let mut prev_end = 0usize;
                for &(bi, r0, r1) in &tasks {
                    let start = bi * o_mat + r0 * n;
                    let end = bi * o_mat + r1 * n;
                    let (_, tail) = rest.split_at_mut(start - prev_end);
                    let (mine, tail) = tail.split_at_mut(end - start);
                    rest = tail;
                    prev_end = end;
                    slices.push((mine, (bi, r0, r1)));
                }
            }
            slices.par_iter_mut().for_each(|(o, (bi, r0, r1))| {
                let (ao, bo) = spec.batch_offsets[*bi];
                let a_mat = &a[ao * m * k..(ao + 1) * m * k];
                gebp(
                    self.simd,
                    &a_mat[*r0 * k..*r1 * k],
                    &b[bo * k * n..(bo + 1) * k * n],
                    o,
                    *r1 - *r0,
                    k,
                    n,
                    spec.bias,
                );
            });
        }
    }

    fn attention(&self, q: &[f32], k: &[f32], v: &[f32], out: &mut [f32], spec: &AttentionSpec) {
        let (n, d) = (spec.n, spec.d);
        let mat = n * d;
        if mat == 0 || spec.batch == 0 {
            return;
        }
        let flops = 4 * spec.batch * n * n * d;
        if flops >= MIN_PAR_FLOPS && rayon::current_num_threads() > 1 && spec.batch > 1 {
            out.par_chunks_mut(mat).enumerate().for_each(|(bh, om)| {
                attention_one(
                    self.simd,
                    &q[bh * mat..(bh + 1) * mat],
                    &k[bh * mat..(bh + 1) * mat],
                    &v[bh * mat..(bh + 1) * mat],
                    om,
                    bh,
                    spec,
                );
            });
        } else {
            for (bh, om) in out.chunks_mut(mat).enumerate() {
                attention_one(
                    self.simd,
                    &q[bh * mat..(bh + 1) * mat],
                    &k[bh * mat..(bh + 1) * mat],
                    &v[bh * mat..(bh + 1) * mat],
                    om,
                    bh,
                    spec,
                );
            }
        }
    }

    fn matmul_grad_a(&self, dc: &[f32], b: &[f32], da: &mut [f32], spec: &MatmulSpec) {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        // dA (m×k) = dC (m×n, row-major) · Bᵀ. Bᵀ is a strided view of B:
        // element (kk∈[0,n), j∈[0,k)) lives at b[j·n + kk] → strides (1, n).
        let offs: Vec<(usize, usize)> = spec
            .batch_offsets
            .iter()
            .enumerate()
            .map(|(bi, &(_, bo))| (bi * m * n, bo * k * n))
            .collect();
        self.grad_gemm(dc, b, da, m, n, k, n, 1, 1, n, &offs);
    }

    fn matmul_grad_b(&self, a: &[f32], dc: &[f32], db: &mut [f32], spec: &MatmulSpec) {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        // dB (k×n) = Aᵀ · dC. Aᵀ element (i∈[0,k), kk∈[0,m)) lives at
        // a[kk·k + i] → strides (1, k); dC is row-major (n, 1).
        let offs: Vec<(usize, usize)> = spec
            .batch_offsets
            .iter()
            .enumerate()
            .map(|(bi, &(ao, _))| (ao * m * k, bi * m * n))
            .collect();
        self.grad_gemm(a, dc, db, k, m, n, 1, k, n, 1, &offs);
    }

    fn col_sums(&self, x: &[f32], out: &mut [f32], row: usize) {
        if row == 0 {
            return;
        }
        let lv = self.simd;
        // FMA with w = 1.0 rounds exactly like a plain add, so the axpy lane
        // kernel is bitwise-equal to the serial reference; SIMD_CHUNK column
        // blocks keep lane/tail splits a function of geometry, not threads.
        if self.parallel(x.len()) && row > 1 {
            out[..row]
                .par_chunks_mut(SIMD_CHUNK)
                .enumerate()
                .for_each(|(ci, oc)| {
                    let j0 = ci * SIMD_CHUNK;
                    for r in x.chunks_exact(row) {
                        simd::axpy(lv, 1.0, &r[j0..j0 + oc.len()], oc);
                    }
                });
        } else {
            for r in x.chunks_exact(row) {
                simd::axpy(lv, 1.0, r, &mut out[..row]);
            }
        }
    }

    fn row_sums(&self, x: &[f32], out: &mut [f32], row: usize) {
        if row == 0 {
            return;
        }
        let rows = x.len() / row;
        if self.parallel(x.len()) && rows > 1 {
            out[..rows]
                .par_iter_mut()
                .zip(x[..rows * row].par_chunks(row))
                .for_each(|(o, r)| *o += r.iter().sum::<f32>());
        } else {
            for (o, r) in out.iter_mut().zip(x.chunks_exact(row)) {
                *o += r.iter().sum::<f32>();
            }
        }
    }

    fn softmax_grad_rows(&self, y: &[f32], dy: &[f32], dx: &mut [f32], row: usize) {
        if row == 0 {
            return;
        }
        let lv = self.simd;
        if self.parallel(y.len()) && y.len() > row {
            dx.par_chunks_mut(row)
                .zip(y.par_chunks(row).zip(dy.par_chunks(row)))
                .for_each(|(dxr, (yr, dyr))| simd::softmax_grad_row(lv, yr, dyr, dxr));
        } else {
            for ((yr, dyr), dxr) in y.chunks(row).zip(dy.chunks(row)).zip(dx.chunks_mut(row)) {
                simd::softmax_grad_row(lv, yr, dyr, dxr);
            }
        }
    }

    fn layernorm_grad_rows(&self, x: &[f32], dy: &[f32], dx: &mut [f32], row: usize, eps: f32) {
        if row == 0 {
            return;
        }
        let lv = self.simd;
        if self.parallel(x.len()) && x.len() > row {
            dx.par_chunks_mut(row)
                .zip(x.par_chunks(row).zip(dy.par_chunks(row)))
                .for_each(|(dxr, (xr, dyr))| simd::layernorm_grad_row(lv, xr, dyr, dxr, eps));
        } else {
            for ((xr, dyr), dxr) in x.chunks(row).zip(dy.chunks(row)).zip(dx.chunks_mut(row)) {
                simd::layernorm_grad_row(lv, xr, dyr, dxr, eps);
            }
        }
    }

    fn attention_grad(
        &self,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        dout: &[f32],
        dq: &mut [f32],
        dk: &mut [f32],
        dv: &mut [f32],
        spec: &AttentionSpec,
    ) {
        let (n, d) = (spec.n, spec.d);
        let mat = n * d;
        if mat == 0 || spec.batch == 0 {
            return;
        }
        let lv = self.simd;
        // ~10 n²d flops per batch-head (recompute + four products).
        let flops = 10 * spec.batch * n * n * d;
        if flops >= MIN_PAR_FLOPS && rayon::current_num_threads() > 1 && spec.batch > 1 {
            // Each batch-head owns disjoint dq/dk/dv slices, so the three
            // gradient buffers split in lockstep.
            dq.par_chunks_mut(mat)
                .zip(dk.par_chunks_mut(mat).zip(dv.par_chunks_mut(mat)))
                .enumerate()
                .for_each(|(bh, (dqm, (dkm, dvm)))| {
                    attention_grad_one(
                        lv,
                        &q[bh * mat..(bh + 1) * mat],
                        &k[bh * mat..(bh + 1) * mat],
                        &v[bh * mat..(bh + 1) * mat],
                        &dout[bh * mat..(bh + 1) * mat],
                        dqm,
                        dkm,
                        dvm,
                        bh,
                        spec,
                    );
                });
        } else {
            for bh in 0..spec.batch {
                attention_grad_one(
                    lv,
                    &q[bh * mat..(bh + 1) * mat],
                    &k[bh * mat..(bh + 1) * mat],
                    &v[bh * mat..(bh + 1) * mat],
                    &dout[bh * mat..(bh + 1) * mat],
                    &mut dq[bh * mat..(bh + 1) * mat],
                    &mut dk[bh * mat..(bh + 1) * mat],
                    &mut dv[bh * mat..(bh + 1) * mat],
                    bh,
                    spec,
                );
            }
        }
    }

    fn adam_step(
        &self,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &super::AdamStepSpec,
    ) {
        let lv = self.simd;
        if self.parallel(p.len()) {
            p.par_chunks_mut(SIMD_CHUNK)
                .zip(
                    g.par_chunks(SIMD_CHUNK).zip(
                        m.par_chunks_mut(SIMD_CHUNK)
                            .zip(v.par_chunks_mut(SIMD_CHUNK)),
                    ),
                )
                .for_each(|(pc, (gc, (mc, vc)))| simd::adam_step_slice(lv, pc, gc, mc, vc, s));
        } else {
            simd::adam_step_slice(lv, p, g, m, v, s);
        }
    }

    fn sgd_step(&self, p: &mut [f32], g: &[f32], vel: Option<&mut [f32]>, lr: f32, momentum: f32) {
        let lv = self.simd;
        if self.parallel(p.len()) {
            match vel {
                Some(vel) => {
                    p.par_chunks_mut(SIMD_CHUNK)
                        .zip(g.par_chunks(SIMD_CHUNK).zip(vel.par_chunks_mut(SIMD_CHUNK)))
                        .for_each(|(pc, (gc, vc))| {
                            simd::sgd_step_slice(lv, pc, gc, Some(vc), lr, momentum)
                        });
                }
                None => {
                    p.par_chunks_mut(SIMD_CHUNK)
                        .zip(g.par_chunks(SIMD_CHUNK))
                        .for_each(|(pc, gc)| simd::sgd_step_slice(lv, pc, gc, None, lr, momentum));
                }
            }
        } else {
            simd::sgd_step_slice(lv, p, g, vel, lr, momentum);
        }
    }

    fn qlinear_i8(
        &self,
        acts: &crate::quant::QuantActs,
        w: &crate::quant::QuantizedTensor,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let flops = 2 * acts.m * w.kp * w.np;
        let parallel = flops >= MIN_PAR_FLOPS && rayon::current_num_threads() > 1;
        crate::quant::qgemm(self.simd, acts, w, bias, out, parallel);
    }
}

/// Fused attention for one `(n, d)` head: blocked two-pass streaming of K
/// then V per [`QB`]-row query block; scores live in a `QB×n` scratch.
///
/// SIMD structure: each pass is one `target_feature` region per query
/// block — [`simd::attn_scores_block`] (an 8-dots-at-once `hadd` tree when
/// `d = 8`, the Swin head dim), the lane-max [`simd::softmax_row`] per
/// score row, and [`simd::attn_pv_block`] (FMA-accumulated value lanes).
fn attention_one(
    lv: SimdLevel,
    qm: &[f32],
    km: &[f32],
    vm: &[f32],
    om: &mut [f32],
    bh: usize,
    spec: &AttentionSpec,
) {
    let (n, d) = (spec.n, spec.d);
    let mut scores = vec![0.0f32; QB * n];
    let mut probs = vec![0.0f32; QB * n];
    for i0 in (0..n).step_by(QB) {
        let ib = (n - i0).min(QB);
        // Pass 1: scores = Q_block · Kᵀ · scale.
        simd::attn_scores_block(
            lv,
            &qm[i0 * d..(i0 + ib) * d],
            km,
            &mut scores[..ib * n],
            ib,
            n,
            d,
            spec.scale,
        );
        // Softmax per query row (with the additive mask).
        for r in 0..ib {
            let row = &mut scores[r * n..(r + 1) * n];
            if let Some(mr) = spec.mask_row(bh, i0 + r) {
                for (s, &mv) in row.iter_mut().zip(mr) {
                    *s += mv;
                }
            }
            simd::softmax_row(lv, row, &mut probs[r * n..(r + 1) * n]);
        }
        // Pass 2: out_block = P · V.
        simd::attn_pv_block(
            lv,
            &probs[..ib * n],
            vm,
            &mut om[i0 * d..(i0 + ib) * d],
            ib,
            n,
            d,
        );
    }
}

/// Single-matrix GEBP: C (m×n, pre-zeroed or bias-seeded) += A (m×k) · B (k×n).
#[allow(clippy::too_many_arguments)]
fn gebp(
    lv: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    // Seed the output rows.
    if let Some(bias) = bias {
        for row in c.chunks_mut(n) {
            row.copy_from_slice(bias);
        }
    }
    let panels = n.div_ceil(NR);
    let mut bpack = vec![0.0f32; panels * KC * NR];
    let mut apack = [0.0f32; MR * KC];
    for kc0 in (0..k).step_by(KC) {
        let kc = (k - kc0).min(KC);
        // Pack B[kc0..kc0+kc, :] into NR-wide panels: panel p holds columns
        // [p·NR, p·NR+NR), laid out kk-major so the microkernel streams it
        // linearly. Ragged right edge is zero-padded.
        for p in 0..panels {
            let j0 = p * NR;
            let jw = (n - j0).min(NR);
            let dst = &mut bpack[p * KC * NR..p * KC * NR + kc * NR];
            for kk in 0..kc {
                let src = &b[(kc0 + kk) * n + j0..(kc0 + kk) * n + j0 + jw];
                let d = &mut dst[kk * NR..kk * NR + NR];
                d[..jw].copy_from_slice(src);
                d[jw..].fill(0.0);
            }
        }
        for i0 in (0..m).step_by(MR) {
            let mi = (m - i0).min(MR);
            // Pack the A strip kk-major (zero-padding short strips).
            for kk in 0..kc {
                for r in 0..MR {
                    apack[kk * MR + r] = if r < mi {
                        a[(i0 + r) * k + kc0 + kk]
                    } else {
                        0.0
                    };
                }
            }
            for p in 0..panels {
                let j0 = p * NR;
                let jw = (n - j0).min(NR);
                // MR×NR register tile (FMA microkernel on the lane path).
                let mut acc = [[0.0f32; NR]; MR];
                simd::microkernel_4x16(lv, &apack[..kc * MR], &bpack[p * KC * NR..], kc, &mut acc);
                for r in 0..mi {
                    let crow = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + jw];
                    for (co, &av) in crow.iter_mut().zip(&acc[r][..jw]) {
                        *co += av;
                    }
                }
            }
        }
    }
}

/// Strided-operand GEBP: C (dense m×n) += A·B where A element `(i, kk)` is
/// `a[i·ars + kk·acs]` and B element `(kk, j)` is `b[kk·brs + j·bcs]`.
///
/// With `(ars, acs) = (k, 1)` / `(brs, bcs) = (n, 1)` this is the forward
/// [`gebp`]; the matmul adjoints pass stride pairs that read a transposed
/// view directly out of the untransposed buffer, so `dC·Bᵀ` and `Aᵀ·dC`
/// reuse the same packed panels + 4×16 FMA microkernel as the forward pass.
/// Accumulation order per output element (KC-block outer, packed-kk inner)
/// is identical to [`gebp`] and independent of any parallel row split.
#[allow(clippy::too_many_arguments)]
fn gebp_strided(
    lv: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ars: usize,
    acs: usize,
    brs: usize,
    bcs: usize,
) {
    let panels = n.div_ceil(NR);
    let mut bpack = vec![0.0f32; panels * KC * NR];
    let mut apack = [0.0f32; MR * KC];
    for kc0 in (0..k).step_by(KC) {
        let kc = (k - kc0).min(KC);
        for p in 0..panels {
            let j0 = p * NR;
            let jw = (n - j0).min(NR);
            let dst = &mut bpack[p * KC * NR..p * KC * NR + kc * NR];
            for kk in 0..kc {
                let base = (kc0 + kk) * brs + j0 * bcs;
                let d = &mut dst[kk * NR..kk * NR + NR];
                if bcs == 1 {
                    d[..jw].copy_from_slice(&b[base..base + jw]);
                } else {
                    for (jj, slot) in d[..jw].iter_mut().enumerate() {
                        *slot = b[base + jj * bcs];
                    }
                }
                d[jw..].fill(0.0);
            }
        }
        for i0 in (0..m).step_by(MR) {
            let mi = (m - i0).min(MR);
            for kk in 0..kc {
                for r in 0..MR {
                    apack[kk * MR + r] = if r < mi {
                        a[(i0 + r) * ars + (kc0 + kk) * acs]
                    } else {
                        0.0
                    };
                }
            }
            for p in 0..panels {
                let j0 = p * NR;
                let jw = (n - j0).min(NR);
                let mut acc = [[0.0f32; NR]; MR];
                simd::microkernel_4x16(lv, &apack[..kc * MR], &bpack[p * KC * NR..], kc, &mut acc);
                for r in 0..mi {
                    let crow = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + jw];
                    for (co, &av) in crow.iter_mut().zip(&acc[r][..jw]) {
                        *co += av;
                    }
                }
            }
        }
    }
}

/// Attention backward for one `(n, d)` batch-head. P is recomputed exactly
/// as [`attention_one`] does (QB-blocked scores + mask + lane softmax), then
/// the four adjoint products run on SIMD kernels:
/// `dP = dO·Vᵀ` via [`simd::attn_scores_block`] (scale 1),
/// `dS = (dP − rowsum(dP⊙P))⊙P·scale` via [`simd::softmax_grad_row`],
/// and `dV += Pᵀ·dO`, `dQ += dS·K`, `dK += dSᵀ·Q` via [`gebp_strided`]
/// (transposed views by stride, nothing materialized). Scratch is `O(n²)`
/// per batch-head, matching the reference contract.
#[allow(clippy::too_many_arguments)]
fn attention_grad_one(
    lv: SimdLevel,
    qm: &[f32],
    km: &[f32],
    vm: &[f32],
    dom: &[f32],
    dqm: &mut [f32],
    dkm: &mut [f32],
    dvm: &mut [f32],
    bh: usize,
    spec: &AttentionSpec,
) {
    let (n, d) = (spec.n, spec.d);
    let mut scores = vec![0.0f32; QB * n];
    let mut probs = vec![0.0f32; n * n];
    for i0 in (0..n).step_by(QB) {
        let ib = (n - i0).min(QB);
        simd::attn_scores_block(
            lv,
            &qm[i0 * d..(i0 + ib) * d],
            km,
            &mut scores[..ib * n],
            ib,
            n,
            d,
            spec.scale,
        );
        for r in 0..ib {
            let row = &mut scores[r * n..(r + 1) * n];
            if let Some(mr) = spec.mask_row(bh, i0 + r) {
                for (s, &mv) in row.iter_mut().zip(mr) {
                    *s += mv;
                }
            }
            simd::softmax_row(lv, row, &mut probs[(i0 + r) * n..(i0 + r + 1) * n]);
        }
    }
    // dP[i·n + j] = dO_i · V_j — the score kernel against V with scale 1.
    let mut dp = vec![0.0f32; n * n];
    simd::attn_scores_block(lv, dom, vm, &mut dp, n, n, d, 1.0);
    let mut dsm = vec![0.0f32; n * n];
    for i in 0..n {
        simd::softmax_grad_row(
            lv,
            &probs[i * n..(i + 1) * n],
            &dp[i * n..(i + 1) * n],
            &mut dsm[i * n..(i + 1) * n],
        );
    }
    if spec.scale != 1.0 {
        for x in dsm.iter_mut() {
            *x *= spec.scale;
        }
    }
    // dV += Pᵀ·dO ; dQ += dS·K ; dK += dSᵀ·Q.
    gebp_strided(lv, &probs, dom, dvm, n, n, d, 1, n, d, 1);
    gebp_strided(lv, &dsm, km, dqm, n, n, d, n, 1, d, 1);
    gebp_strided(lv, &dsm, qm, dkm, n, n, d, 1, n, d, 1);
}

#[cfg(test)]
mod tests {
    use super::super::ScalarRef;
    use super::*;

    fn fill(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    #[test]
    fn gebp_matches_reference_odd_sizes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (17, 33, 19),
            (64, 70, 48),
        ] {
            let a = fill(m * k, |i| ((i * 7 % 13) as f32) - 6.0);
            let b = fill(k * n, |i| ((i * 5 % 11) as f32) * 0.25 - 1.0);
            let spec = MatmulSpec {
                m,
                k,
                n,
                batch_offsets: &[(0, 0)],
                bias: None,
            };
            let mut fast = vec![0.0f32; m * n];
            Blocked::default().matmul(&a, &b, &mut fast, &spec);
            let mut slow = vec![0.0f32; m * n];
            ScalarRef.matmul(&a, &b, &mut slow, &spec);
            for (x, y) in fast.iter().zip(&slow) {
                assert!((x - y).abs() < 1e-3, "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_bias_seeds_rows() {
        let (m, k, n) = (5, 4, 6);
        let a = fill(m * k, |i| i as f32 * 0.1);
        let b = fill(k * n, |i| 1.0 - i as f32 * 0.05);
        let bias = fill(n, |i| 100.0 + i as f32);
        let spec = MatmulSpec {
            m,
            k,
            n,
            batch_offsets: &[(0, 0)],
            bias: Some(&bias),
        };
        let mut fast = vec![0.0f32; m * n];
        Blocked::default().matmul(&a, &b, &mut fast, &spec);
        let mut slow = vec![0.0f32; m * n];
        ScalarRef.matmul(&a, &b, &mut slow, &spec);
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn parallel_row_split_matches_reference() {
        // Few batches + many rows exercises the row-splitting branch.
        let (m, k, n) = (133, 40, 37);
        let a = fill(2 * m * k, |i| ((i % 17) as f32 - 8.0) * 0.3);
        let b = fill(2 * k * n, |i| ((i % 7) as f32 - 3.0) * 0.5);
        let spec = MatmulSpec {
            m,
            k,
            n,
            batch_offsets: &[(0, 0), (1, 1)],
            bias: None,
        };
        let mut fast = vec![0.0f32; 2 * m * n];
        Blocked::default().matmul(&a, &b, &mut fast, &spec);
        let mut slow = vec![0.0f32; 2 * m * n];
        ScalarRef.matmul(&a, &b, &mut slow, &spec);
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 2e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn fused_attention_matches_reference_with_mask() {
        let (batch, heads, n, d) = (4, 2, 10, 8);
        let q = fill(batch * n * d, |i| ((i * 3 % 23) as f32 - 11.0) * 0.1);
        let k = fill(batch * n * d, |i| ((i * 5 % 19) as f32 - 9.0) * 0.1);
        let v = fill(batch * n * d, |i| ((i * 7 % 29) as f32 - 14.0) * 0.1);
        let nw = 2;
        let mask = fill(nw * n * n, |i| if i % 13 == 0 { -1e9 } else { 0.0 });
        let spec = AttentionSpec {
            batch,
            heads,
            n,
            d,
            scale: 1.0 / (d as f32).sqrt(),
            mask: Some(&mask),
            mask_windows: nw,
        };
        let mut fast = vec![0.0f32; batch * n * d];
        Blocked::default().attention(&q, &k, &v, &mut fast, &spec);
        let mut slow = vec![0.0f32; batch * n * d];
        ScalarRef.attention(&q, &k, &v, &mut slow, &spec);
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_sized_matmul_and_attention_are_noops() {
        // m==0 / n==0 outputs must not panic (chunks_mut(0)) on any path.
        for &(m, k, n) in &[(0usize, 3usize, 4usize), (4, 3, 0), (0, 0, 0), (2, 0, 3)] {
            let a = vec![0.0f32; m * k];
            let b = vec![0.0f32; k * n];
            let spec = MatmulSpec {
                m,
                k,
                n,
                batch_offsets: &[(0, 0)],
                bias: None,
            };
            // Per the trait contract `out` is pre-zeroed.
            let mut out = vec![0.0f32; m * n];
            Blocked::default().matmul(&a, &b, &mut out, &spec);
            let mut slow = vec![0.0f32; m * n];
            ScalarRef.matmul(&a, &b, &mut slow, &spec);
            assert_eq!(out, slow, "{m}x{k}x{n}");
        }
        let spec = AttentionSpec {
            batch: 2,
            heads: 1,
            n: 0,
            d: 4,
            scale: 1.0,
            mask: None,
            mask_windows: 1,
        };
        let mut out: Vec<f32> = vec![];
        Blocked::default().attention(&[], &[], &[], &mut out, &spec);
        ScalarRef.attention(&[], &[], &[], &mut out, &spec);
        let mut empty: Vec<f32> = vec![];
        Blocked::default().softmax_rows(&[], &mut empty, 0);
        ScalarRef.softmax_rows(&[], &mut empty, 0);
    }

    #[test]
    fn matmul_grads_match_reference() {
        // Shapes cover the serial, per-batch-parallel, and row-split paths.
        for &(m, k, n, nb) in &[
            (3usize, 5usize, 7usize, 1usize),
            (33, 20, 17, 4),
            (133, 40, 37, 2),
        ] {
            let a = fill(nb * m * k, |i| ((i * 7 % 13) as f32 - 6.0) * 0.3);
            let b = fill(nb * k * n, |i| ((i * 5 % 11) as f32 - 5.0) * 0.25);
            let dc = fill(nb * m * n, |i| ((i * 3 % 17) as f32 - 8.0) * 0.2);
            let offsets: Vec<(usize, usize)> = (0..nb).map(|bi| (bi, bi)).collect();
            let spec = MatmulSpec {
                m,
                k,
                n,
                batch_offsets: &offsets,
                bias: None,
            };
            let fast = Blocked::new(1);
            let mut da_f = vec![0.0f32; nb * m * k];
            let mut db_f = vec![0.0f32; nb * k * n];
            fast.matmul_grad_a(&dc, &b, &mut da_f, &spec);
            fast.matmul_grad_b(&a, &dc, &mut db_f, &spec);
            let mut da_s = vec![0.0f32; nb * m * k];
            let mut db_s = vec![0.0f32; nb * k * n];
            ScalarRef.matmul_grad_a(&dc, &b, &mut da_s, &spec);
            ScalarRef.matmul_grad_b(&a, &dc, &mut db_s, &spec);
            for (x, y) in da_f.iter().zip(&da_s) {
                assert!((x - y).abs() < 2e-2, "dA {m}x{k}x{n}x{nb}: {x} vs {y}");
            }
            for (x, y) in db_f.iter().zip(&db_s) {
                assert!((x - y).abs() < 2e-2, "dB {m}x{k}x{n}x{nb}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn attention_grad_matches_reference_with_mask() {
        let (batch, heads, n, d) = (4, 2, 10, 8);
        let q = fill(batch * n * d, |i| ((i * 3 % 23) as f32 - 11.0) * 0.1);
        let k = fill(batch * n * d, |i| ((i * 5 % 19) as f32 - 9.0) * 0.1);
        let v = fill(batch * n * d, |i| ((i * 7 % 29) as f32 - 14.0) * 0.1);
        let dout = fill(batch * n * d, |i| ((i * 11 % 31) as f32 - 15.0) * 0.05);
        let nw = 2;
        let mask = fill(nw * n * n, |i| if i % 13 == 0 { -1e9 } else { 0.0 });
        let spec = AttentionSpec {
            batch,
            heads,
            n,
            d,
            scale: 1.0 / (d as f32).sqrt(),
            mask: Some(&mask),
            mask_windows: nw,
        };
        let sz = batch * n * d;
        let (mut dq_f, mut dk_f, mut dv_f) = (vec![0.0; sz], vec![0.0; sz], vec![0.0; sz]);
        Blocked::new(1).attention_grad(&q, &k, &v, &dout, &mut dq_f, &mut dk_f, &mut dv_f, &spec);
        let (mut dq_s, mut dk_s, mut dv_s) = (vec![0.0; sz], vec![0.0; sz], vec![0.0; sz]);
        ScalarRef.attention_grad(&q, &k, &v, &dout, &mut dq_s, &mut dk_s, &mut dv_s, &spec);
        for (name, f, s) in [
            ("dq", &dq_f, &dq_s),
            ("dk", &dk_f, &dk_s),
            ("dv", &dv_f, &dv_s),
        ] {
            for (x, y) in f.iter().zip(s.iter()) {
                assert!((x - y).abs() < 1e-4, "{name}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn reductions_and_row_grads_match_reference() {
        let (rows, row) = (37, 29);
        let x = fill(rows * row, |i| ((i * 7 % 23) as f32 - 11.0) * 0.17);
        let dy = fill(rows * row, |i| ((i * 5 % 19) as f32 - 9.0) * 0.13);
        let fast = Blocked::new(1);

        let mut cs_f = vec![0.1f32; row];
        let mut cs_s = vec![0.1f32; row];
        fast.col_sums(&x, &mut cs_f, row);
        ScalarRef.col_sums(&x, &mut cs_s, row);
        // axpy(w=1) is a plain add on every path — bitwise equal.
        assert_eq!(cs_f, cs_s);

        let mut rs_f = vec![0.2f32; rows];
        let mut rs_s = vec![0.2f32; rows];
        fast.row_sums(&x, &mut rs_f, row);
        ScalarRef.row_sums(&x, &mut rs_s, row);
        assert_eq!(rs_f, rs_s);

        let mut y = vec![0.0f32; rows * row];
        fast.softmax_rows(&x, &mut y, row);
        let mut sg_f = vec![0.0f32; rows * row];
        let mut sg_s = vec![0.0f32; rows * row];
        fast.softmax_grad_rows(&y, &dy, &mut sg_f, row);
        ScalarRef.softmax_grad_rows(&y, &dy, &mut sg_s, row);
        for (a, b) in sg_f.iter().zip(&sg_s) {
            assert!((a - b).abs() < 1e-5, "softmax grad: {a} vs {b}");
        }

        let mut lg_f = vec![0.0f32; rows * row];
        let mut lg_s = vec![0.0f32; rows * row];
        fast.layernorm_grad_rows(&x, &dy, &mut lg_f, row, 1e-5);
        ScalarRef.layernorm_grad_rows(&x, &dy, &mut lg_s, row, 1e-5);
        for (a, b) in lg_f.iter().zip(&lg_s) {
            assert!((a - b).abs() < 1e-4, "layernorm grad: {a} vs {b}");
        }
    }

    #[test]
    fn fused_optimizer_steps_match_reference() {
        let n = 10_000; // crosses the par threshold with chunked lanes
        let g = fill(n, |i| ((i * 13 % 37) as f32 - 18.0) * 0.02);
        let spec = super::super::AdamStepSpec {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            bc1: 0.1,
            bc2: 1e-3,
        };
        let fast = Blocked::new(1);
        let (mut p_f, mut m_f, mut v_f) = (
            fill(n, |i| (i % 7) as f32 * 0.1),
            vec![0.01; n],
            vec![0.02; n],
        );
        let (mut p_s, mut m_s, mut v_s) = (p_f.clone(), m_f.clone(), v_f.clone());
        fast.adam_step(&mut p_f, &g, &mut m_f, &mut v_f, &spec);
        ScalarRef.adam_step(&mut p_s, &g, &mut m_s, &mut v_s, &spec);
        for (a, b) in p_f.iter().zip(&p_s) {
            assert!((a - b).abs() < 1e-6, "adam p: {a} vs {b}");
        }

        let (mut p_f, mut vel_f) = (fill(n, |i| (i % 5) as f32 * 0.2), vec![0.05f32; n]);
        let (mut p_s, mut vel_s) = (p_f.clone(), vel_f.clone());
        fast.sgd_step(&mut p_f, &g, Some(&mut vel_f), 0.01, 0.9);
        ScalarRef.sgd_step(&mut p_s, &g, Some(&mut vel_s), 0.01, 0.9);
        for (a, b) in p_f.iter().zip(&p_s) {
            assert!((a - b).abs() < 1e-6, "sgd p: {a} vs {b}");
        }
        // Plain SGD (no velocity) path.
        fast.sgd_step(&mut p_f, &g, None, 0.01, 0.0);
        ScalarRef.sgd_step(&mut p_s, &g, None, 0.01, 0.0);
        for (a, b) in p_f.iter().zip(&p_s) {
            assert!((a - b).abs() < 1e-6, "sgd plain p: {a} vs {b}");
        }
    }
}
