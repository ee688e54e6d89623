//! Pluggable compute backends for the tensor kernel layer.
//!
//! Every hot kernel of the crate — elementwise chains, reductions, softmax,
//! batched matmul, and the attention score-softmax-value composite — is
//! expressed against the [`Backend`] trait, with two implementations:
//!
//! - [`ScalarRef`]: simple, obviously-correct serial loops. The correctness
//!   oracle that property tests compare against, and a debugging fallback.
//! - [`Blocked`] (the default): cache-blocked and panel-packed matmul,
//!   fused attention, SIMD lanes, and in-place elementwise variants that
//!   avoid the one-allocation-per-op pattern.
//!
//! Every kernel of both backends runs on its caller's thread. Parallelism
//! lives one level up: serving replicas, `chpc` ranks and ensemble member
//! slices each run their own kernels.
//!
//! Dispatch happens once per kernel call (an `Arc<dyn Backend>` virtual
//! call), never per element. [`current`] picks the backend in two steps:
//!
//! 1. the innermost [`scoped`] guard on this thread, if any — how the
//!    oracle suites run a model or trainer under [`ScalarRef`];
//! 2. otherwise the one process-wide [`Blocked`], built on first use
//!    (wrapped in [`Profiled`] when `COASTAL_PROFILE=1`).
//!
//! The trait has no default bodies: a wrapper such as [`Profiled`] that
//! forgets a kernel fails to compile instead of silently running the
//! scalar loop in place of a [`Blocked`] override.

mod blocked;
mod profiled;
mod scalar;

pub use blocked::Blocked;
use profiled::maybe_profile;
pub use profiled::Profiled;
pub use scalar::ScalarRef;

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

// ----------------------------------------------------------------- errors

/// Typed shape mismatch, surfaced instead of a panic so callers (e.g. the
/// pipeline) can report bad batch shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// Elementwise broadcast failure.
    Broadcast { lhs: Vec<usize>, rhs: Vec<usize> },
    /// Contracted dimensions disagree: `(..., m, k) @ (..., k', n)`.
    MatmulInner { lhs: Vec<usize>, rhs: Vec<usize> },
    /// Leading (batch) dims of a matmul don't broadcast.
    MatmulBatch { lhs: Vec<usize>, rhs: Vec<usize> },
    /// Operand rank too small for the operation.
    Rank {
        op: &'static str,
        shape: Vec<usize>,
        min_ndim: usize,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::Broadcast { lhs, rhs } => {
                write!(f, "broadcast {lhs:?} vs {rhs:?}")
            }
            ShapeError::MatmulInner { lhs, rhs } => {
                write!(f, "matmul inner dim mismatch: {lhs:?} @ {rhs:?}")
            }
            ShapeError::MatmulBatch { lhs, rhs } => {
                write!(f, "matmul batch broadcast {lhs:?} vs {rhs:?}")
            }
            ShapeError::Rank {
                op,
                shape,
                min_ndim,
            } => {
                write!(f, "{op} needs ndim >= {min_ndim}, got {shape:?}")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

// -------------------------------------------------------------- op enums

/// Named elementwise unary kernels (dispatch once, not per element).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum UnaryOp {
    Neg,
    Abs,
    Square,
    Sqrt,
    Rsqrt,
    Exp,
    Tanh,
    Relu,
    Gelu,
    GeluGrad,
    /// Heaviside step of the ReLU input (`1` where `x > 0`, else `0`).
    ReluGrad,
    /// `1 - x²` — the tanh derivative expressed in terms of `y = tanh(x)`.
    TanhGrad,
    Scale(f32),
    AddScalar(f32),
}

impl UnaryOp {
    /// Scalar semantics of the op (shared by every backend).
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Abs => x.abs(),
            UnaryOp::Square => x * x,
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Rsqrt => 1.0 / x.sqrt(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Gelu => crate::tensor::ops::gelu_scalar(x),
            UnaryOp::GeluGrad => crate::tensor::ops::gelu_grad_scalar(x),
            UnaryOp::ReluGrad => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryOp::TanhGrad => 1.0 - x * x,
            UnaryOp::Scale(c) => x * c,
            UnaryOp::AddScalar(c) => x + c,
        }
    }
}

/// Named elementwise binary kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinaryOp {
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
        }
    }
}

// -------------------------------------------------------------- kernel specs

/// Geometry of a batched matmul with broadcast-resolved batch indices.
///
/// `a` is `batch_offsets.len()` matrices of `m×k` (indexed by the first
/// element of each pair, in units of whole matrices), `b` likewise `k×n`;
/// `out` is dense `m×n` per output batch.
pub struct MatmulSpec<'a> {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Per output batch: (a matrix index, b matrix index).
    pub batch_offsets: &'a [(usize, usize)],
    /// Optional row of length `n` added to every output row (fused linear
    /// bias).
    pub bias: Option<&'a [f32]>,
}

/// Geometry of a fused `softmax(Q·Kᵀ·scale + mask)·V` kernel.
///
/// `q`, `k`, `v`, `out` are each `batch` contiguous `n×d` matrices, where
/// `batch = B·heads` flattened row-major as `(B, heads)`.
pub struct AttentionSpec<'a> {
    pub batch: usize,
    pub heads: usize,
    pub n: usize,
    pub d: usize,
    pub scale: f32,
    /// Additive mask `(windows, n, n)`; batch matrix `i` uses window
    /// `(i / heads) % windows` (the Swin shifted-window layout).
    pub mask: Option<&'a [f32]>,
    pub mask_windows: usize,
}

impl AttentionSpec<'_> {
    /// Mask row for (batch matrix `bh`, query row `i`), if any.
    #[inline]
    pub fn mask_row(&self, bh: usize, i: usize) -> Option<&[f32]> {
        self.mask.map(|m| {
            let w = (bh / self.heads) % self.mask_windows;
            let base = (w * self.n + i) * self.n;
            &m[base..base + self.n]
        })
    }
}

/// Hyperparameters of one fused Adam/AdamW update ([`Backend::adam_step`]).
///
/// `bc1`/`bc2` are the bias corrections `1 − βᵢᵗ` for the *current* step,
/// computed by the optimizer (the kernel stays stateless).
#[derive(Copy, Clone, Debug)]
pub struct AdamStepSpec {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled (AdamW) decay; `0` disables it.
    pub weight_decay: f32,
    pub bc1: f32,
    pub bc2: f32,
}

// ------------------------------------------------------------------ trait

/// The kernel surface every compute backend implements.
///
/// All slices are dense row-major `f32`; shape/stride resolution happens in
/// the tensor layer, so backends only see flat geometry.
pub trait Backend: Send + Sync + fmt::Debug {
    /// Short identifier (`"scalar"`, `"blocked"`).
    fn name(&self) -> &'static str;

    /// `out[i] = op(x[i])`.
    fn unary(&self, op: UnaryOp, x: &[f32], out: &mut [f32]);

    /// `x[i] = op(x[i])` — fused in-place variant (no allocation).
    fn unary_inplace(&self, op: UnaryOp, x: &mut [f32]);

    /// `out[i] = op(a[i], b[i])` for equal-shape operands.
    fn binary(&self, op: BinaryOp, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `acc[i] = op(acc[i], b[i])` in place for equal-shape operands.
    fn binary_inplace(&self, op: BinaryOp, acc: &mut [f32], b: &[f32]);

    /// Broadcast elementwise: `sa`/`sb` are per-output-dim strides into the
    /// operands (0 on broadcast dims), `out` is dense over `out_shape`.
    #[allow(clippy::too_many_arguments)]
    fn binary_strided(
        &self,
        op: BinaryOp,
        a: &[f32],
        sa: &[usize],
        b: &[f32],
        sb: &[usize],
        out_shape: &[usize],
        out: &mut [f32],
    );

    /// Sum of all elements with an f64 accumulator.
    fn sum(&self, x: &[f32]) -> f64;

    /// Row-wise numerically-stable softmax: `x` and `out` are `len/row`
    /// rows of `row` elements.
    fn softmax_rows(&self, x: &[f32], out: &mut [f32], row: usize);

    /// Row-wise layer normalization (no affine): zero mean / unit variance
    /// per row of `row` elements.
    fn layernorm_rows(&self, x: &[f32], out: &mut [f32], row: usize, eps: f32);

    /// Batched matmul; `out` must be zero-filled (the kernel accumulates,
    /// seeding rows from `spec.bias` when present).
    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], spec: &MatmulSpec);

    /// Fused attention `softmax(Q·Kᵀ·scale + mask)·V` without
    /// materializing the `(batch, n, n)` score tensor (backends may choose
    /// to materialize per-row/block internally).
    fn attention(&self, q: &[f32], k: &[f32], v: &[f32], out: &mut [f32], spec: &AttentionSpec);

    // ------------------------------------------------------- backward kernels
    //
    // Adjoints of the forward kernels above (`ScalarRef` holds the
    // reference loops, `Blocked` the blocked/SIMD ones). All outputs are
    // accumulated into (callers pre-zero or seed them).

    /// Matmul adjoint w.r.t. A: `da[bi] += dc[bi] · B[bo]ᵀ` per output
    /// batch, where `spec` is the *forward* geometry (`m,k,n`,
    /// `batch_offsets`; `bias` is ignored). `da` holds one dense `m×k`
    /// matrix per entry of `spec.batch_offsets` — broadcast batch
    /// reduction happens in the tensor layer.
    fn matmul_grad_a(&self, dc: &[f32], b: &[f32], da: &mut [f32], spec: &MatmulSpec);

    /// Matmul adjoint w.r.t. B: `db[bi] += A[ao]ᵀ · dc[bi]` per output
    /// batch (dense `k×n` matrices; same conventions as
    /// [`Backend::matmul_grad_a`]).
    fn matmul_grad_b(&self, a: &[f32], dc: &[f32], db: &mut [f32], spec: &MatmulSpec);

    /// Column sums over rows of length `row`: `out[j] += Σ_i x[i·row + j]`
    /// (the linear-bias gradient and leading-axis reduction kernel).
    /// Accumulation runs in row order for every column.
    fn col_sums(&self, x: &[f32], out: &mut [f32], row: usize);

    /// Row sums: `out[i] += Σ_j x[i·row + j]` (trailing-axis reduction
    /// kernel), serial f32 accumulation within each row.
    fn row_sums(&self, x: &[f32], out: &mut [f32], row: usize);

    /// Softmax backward per row: given `y = softmax(x)` and upstream `dy`,
    /// `dx = (dy − Σ_j dy_j·y_j) ⊙ y`.
    fn softmax_grad_rows(&self, y: &[f32], dy: &[f32], dx: &mut [f32], row: usize);

    /// Backward of [`Backend::layernorm_rows`] (no affine). Per-row stats
    /// are recomputed from `x`, then with `x̂ = (x − μ)·inv`:
    /// `dx = inv·(dy − mean(dy) − x̂·mean(dy ⊙ x̂))`.
    fn layernorm_grad_rows(&self, x: &[f32], dy: &[f32], dx: &mut [f32], row: usize, eps: f32);

    /// Backward of the fused attention kernel. Probabilities are recomputed
    /// from `q`/`k`/mask (only `O(n²)` scratch per batch-head, never a
    /// `(batch, n, n)` tensor), then `dq`/`dk`/`dv` are accumulated:
    /// `dV += Pᵀ·dO`, `dP = dO·Vᵀ`, `dS = (dP − rowsum(dP⊙P))⊙P·scale`,
    /// `dQ += dS·K`, `dK += dSᵀ·Q`.
    #[allow(clippy::too_many_arguments)]
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
    );

    // ---------------------------------------------------- quantized inference

    /// Fused int8 linear: `out[m, n] = dequant(qx · qW) + bias`, where the
    /// activations were dynamically quantized with
    /// [`crate::quant::quantize_acts`] and the weight packed by
    /// [`crate::quant::QuantizedTensor::quantize`]. [`ScalarRef`] runs the
    /// scalar oracle; [`Blocked`] the AVX2 `maddubs` microkernel (the
    /// integer accumulation is exact, so outputs are bitwise identical
    /// across backends).
    fn qlinear_i8(
        &self,
        acts: &crate::quant::QuantActs,
        w: &crate::quant::QuantizedTensor,
        bias: Option<&[f32]>,
        out: &mut [f32],
    );

    // ------------------------------------------------- fused optimizer steps

    /// One fused Adam/AdamW update over a parameter slice: updates `m`,
    /// `v`, and `p` in a single pass with no temporaries.
    fn adam_step(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], s: &AdamStepSpec);

    /// One fused SGD(+momentum) update: `vel = momentum·vel + g` (when
    /// `vel` is present), `p −= lr·vel` — single pass, no temporaries.
    fn sgd_step(&self, p: &mut [f32], g: &[f32], vel: Option<&mut [f32]>, lr: f32, momentum: f32);
}

// -------------------------------------------------------------- selection

thread_local! {
    static SCOPE_STACK: RefCell<Vec<Arc<dyn Backend>>> = const { RefCell::new(Vec::new()) };
}

/// The backend active on this thread: the innermost [`scoped`] guard,
/// else the process-wide [`Blocked`].
pub fn current() -> Arc<dyn Backend> {
    static DEFAULT: OnceLock<Arc<dyn Backend>> = OnceLock::new();
    SCOPE_STACK
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| {
            DEFAULT
                .get_or_init(|| maybe_profile(Arc::new(Blocked::default())))
                .clone()
        })
}

/// RAII guard pinning `b` as this thread's backend until dropped.
///
/// Guards nest; drop order must match scope order (guaranteed when bound to
/// locals).
pub struct ScopedBackend {
    _private: (),
}

pub fn scoped(b: Arc<dyn Backend>) -> ScopedBackend {
    SCOPE_STACK.with(|s| s.borrow_mut().push(b));
    ScopedBackend { _private: () }
}

impl Drop for ScopedBackend {
    fn drop(&mut self) {
        SCOPE_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_overrides_then_restores() {
        let outer = current().name();
        {
            let _g = scoped(Arc::new(ScalarRef));
            assert_eq!(current().name(), "scalar");
            {
                // The scoped instance itself, not the process default.
                let inner: Arc<dyn Backend> = Arc::new(Blocked::new());
                let _g2 = scoped(inner.clone());
                assert!(Arc::ptr_eq(&current(), &inner));
            }
            assert_eq!(current().name(), "scalar");
        }
        assert_eq!(current().name(), outer);
    }

    #[test]
    fn shape_error_messages_name_shapes() {
        let e = ShapeError::MatmulInner {
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        let msg = e.to_string();
        assert!(msg.contains("[2, 3]") && msg.contains("[4, 5]"), "{msg}");
    }

    #[test]
    fn scoped_override_is_thread_local() {
        // The fresh thread asks while this one provably holds the scope.
        let (held, is_held) = std::sync::mpsc::channel();
        let fresh = std::thread::spawn(move || {
            is_held.recv().unwrap();
            current().name()
        });
        let _g = scoped(Arc::new(ScalarRef));
        assert_eq!(current().name(), "scalar");
        held.send(()).unwrap();
        assert_eq!(
            fresh.join().unwrap(),
            "blocked",
            "a thread without a scope gets the process default"
        );
        assert_eq!(current().name(), "scalar");
    }
}
