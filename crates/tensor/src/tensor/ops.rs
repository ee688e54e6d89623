//! Elementwise and reduction operations.
//!
//! Every *named* op (add/mul/…, exp/tanh/…, softmax, sums) dispatches
//! through the active [`crate::backend::Backend`] — one virtual call per
//! kernel, shared by forward and backward passes. The generic [`Tensor::map`]
//! / [`Tensor::zip`] closures remain for one-off derivatives that have no
//! named kernel.

use super::Tensor;
use crate::backend::{self, BinaryOp, ShapeError, UnaryOp};
use crate::shape::{broadcast_shapes, broadcast_strides, normalize_axes, numel, strides_for};

impl Tensor {
    /// Apply `f` elementwise, producing a new tensor.
    ///
    /// For the named elementwise kernels prefer the dedicated methods
    /// (`exp`, `tanh`, …) — those dispatch through the compute backend.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = vec![0.0f32; self.numel()];
        for (o, &x) in out.iter_mut().zip(self.as_slice()) {
            *o = f(x);
        }
        Tensor::from_vec(out, self.shape())
    }

    /// Named unary kernel through the active backend.
    pub fn unary_op(&self, op: UnaryOp) -> Tensor {
        let mut out = vec![0.0f32; self.numel()];
        backend::current().unary(op, self.as_slice(), &mut out);
        Tensor::from_vec(out, self.shape())
    }

    /// Named unary kernel in place (copy-on-write; allocation-free when
    /// this tensor owns its buffer).
    pub fn unary_op_inplace(&mut self, op: UnaryOp) {
        backend::current().unary_inplace(op, self.as_mut_slice());
    }

    /// Apply `f(self[i], other[j])` with NumPy broadcasting.
    ///
    /// # Panics
    /// If the shapes don't broadcast; use [`Tensor::try_zip`] to handle the
    /// mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.try_zip(other, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Broadcasting `zip` with a typed shape error.
    pub fn try_zip(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, ShapeError> {
        let out_shape =
            broadcast_shapes(self.shape(), other.shape()).ok_or_else(|| ShapeError::Broadcast {
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            })?;
        // Fast path: identical shapes — straight zip, no index math.
        if self.shape() == other.shape() {
            let mut out = vec![0.0f32; self.numel()];
            for ((o, &a), &b) in out.iter_mut().zip(self.as_slice()).zip(other.as_slice()) {
                *o = f(a, b);
            }
            return Ok(Tensor::from_vec(out, &out_shape));
        }
        let sa = broadcast_strides(self.shape(), &out_shape);
        let sb = broadcast_strides(other.shape(), &out_shape);
        let da = self.as_slice();
        let db = other.as_slice();
        let nd = out_shape.len();
        let mut out = vec![0.0f32; numel(&out_shape)];
        let mut idx = vec![0usize; nd];
        let (mut off_a, mut off_b) = (0usize, 0usize);
        for o in out.iter_mut() {
            *o = f(da[off_a], db[off_b]);
            // Increment the multi-index (row-major odometer), updating
            // both offsets incrementally.
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
        Ok(Tensor::from_vec(out, &out_shape))
    }

    /// Named binary kernel with broadcasting through the active backend.
    pub fn try_binary_op(&self, other: &Tensor, op: BinaryOp) -> Result<Tensor, ShapeError> {
        let out_shape =
            broadcast_shapes(self.shape(), other.shape()).ok_or_else(|| ShapeError::Broadcast {
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            })?;
        let be = backend::current();
        let mut out = vec![0.0f32; numel(&out_shape)];
        if self.shape() == other.shape() {
            be.binary(op, self.as_slice(), other.as_slice(), &mut out);
        } else {
            let sa = broadcast_strides(self.shape(), &out_shape);
            let sb = broadcast_strides(other.shape(), &out_shape);
            be.binary_strided(
                op,
                self.as_slice(),
                &sa,
                other.as_slice(),
                &sb,
                &out_shape,
                &mut out,
            );
        }
        Ok(Tensor::from_vec(out, &out_shape))
    }

    fn binary_op(&self, other: &Tensor, op: BinaryOp) -> Tensor {
        self.try_binary_op(other, op)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// In-place `self = op(self, other)` for equal shapes; falls back to an
    /// allocating broadcast op otherwise.
    pub fn binary_assign(&mut self, other: &Tensor, op: BinaryOp) {
        if self.shape() == other.shape() {
            backend::current().binary_inplace(op, self.as_mut_slice(), other.as_slice());
        } else {
            *self = self.binary_op(other, op);
        }
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, BinaryOp::Add)
    }

    /// In-place addition (the gradient-accumulation hot path).
    pub fn add_assign(&mut self, other: &Tensor) {
        self.binary_assign(other, BinaryOp::Add);
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, BinaryOp::Sub)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, BinaryOp::Mul)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, BinaryOp::Div)
    }

    /// Multiply by a scalar.
    pub fn scale(&self, c: f32) -> Tensor {
        self.unary_op(UnaryOp::Scale(c))
    }

    /// Add a scalar.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.unary_op(UnaryOp::AddScalar(c))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.unary_op(UnaryOp::Neg)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.unary_op(UnaryOp::Square)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary_op(UnaryOp::Sqrt)
    }

    /// Elementwise reciprocal square root.
    pub fn rsqrt(&self) -> Tensor {
        self.unary_op(UnaryOp::Rsqrt)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.unary_op(UnaryOp::Exp)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.unary_op(UnaryOp::Abs)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.unary_op(UnaryOp::Tanh)
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Tensor {
        self.unary_op(UnaryOp::Relu)
    }

    /// GELU activation (tanh approximation, matching common DL frameworks).
    pub fn gelu(&self) -> Tensor {
        self.unary_op(UnaryOp::Gelu)
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum_all(&self) -> f32 {
        backend::current().sum(self.as_slice()) as f32
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        self.sum_all() / self.numel() as f32
    }

    /// Maximum element.
    pub fn max_all(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min_all(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Sum over the given axes, keeping them as size-1 dims.
    pub fn sum_axes_keepdims(&self, axes: &[usize]) -> Tensor {
        let axes = normalize_axes(axes, self.ndim());
        let mut out_shape = self.shape().to_vec();
        for &a in &axes {
            out_shape[a] = 1;
        }
        let n_out = numel(&out_shape);
        let mut out = vec![0.0f32; n_out];
        let in_shape = self.shape().to_vec();
        let nd = in_shape.len();

        // Fast path: reductions over a leading prefix and/or trailing suffix
        // of axes (bias gradients, broadcast adjoints, batch-norm statistics
        // — every backward-pass reduction in practice) route through the
        // backend's column/row-sum kernels. Anything else falls to
        // the serial odometer below.
        if !axes.is_empty() && self.numel() > 0 {
            let p = (0..nd).take_while(|d| axes.contains(d)).count();
            let s = (0..nd - p)
                .take_while(|i| axes.contains(&(nd - 1 - i)))
                .count();
            if axes.len() == p + s {
                let lead: usize = in_shape[..p].iter().product();
                let tail: usize = in_shape[nd - s..].iter().product();
                let rest = self.numel() / lead; // mid·tail
                let be = backend::current();
                let colled: std::borrow::Cow<'_, [f32]> = if p > 0 && lead > 1 {
                    let mut tmp = vec![0.0f32; rest];
                    be.col_sums(self.as_slice(), &mut tmp, rest);
                    tmp.into()
                } else {
                    self.as_slice().into()
                };
                if s > 0 && tail > 1 {
                    be.row_sums(&colled, &mut out, tail);
                } else {
                    out.copy_from_slice(&colled);
                }
                return Tensor::from_vec(out, &out_shape);
            }
        }

        let out_strides = strides_for(&out_shape);
        let data = self.as_slice();
        // Serial odometer walk over the input, accumulating into the output.
        // Reductions here are small relative to matmuls; keep it simple.
        let mut idx = vec![0usize; nd];
        let mut out_off = 0usize;
        for &v in data {
            out[out_off] += v;
            for d in (0..nd).rev() {
                idx[d] += 1;
                if out_shape[d] != 1 {
                    out_off += out_strides[d];
                }
                if idx[d] < in_shape[d] {
                    break;
                }
                if out_shape[d] != 1 {
                    out_off -= out_strides[d] * in_shape[d];
                }
                idx[d] = 0;
            }
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Mean over the given axes, keeping them as size-1 dims.
    pub fn mean_axes_keepdims(&self, axes: &[usize]) -> Tensor {
        let axes = normalize_axes(axes, self.ndim());
        let count: usize = axes.iter().map(|&a| self.shape()[a]).product();
        let mut out = self.sum_axes_keepdims(&axes);
        out.unary_op_inplace(UnaryOp::Scale(1.0 / count as f32));
        out
    }

    /// Reduce this tensor (by summation) down to `target` shape — the adjoint
    /// of broadcasting. `target` must be broadcastable to `self.shape()`.
    pub fn sum_to(&self, target: &[usize]) -> Tensor {
        if self.shape() == target {
            return self.clone();
        }
        let nd = self.ndim();
        let off = nd - target.len();
        // Sum away leading dims plus any stretched (size-1-in-target) dims.
        let mut axes: Vec<usize> = (0..off).collect();
        for (i, &t) in target.iter().enumerate() {
            if t == 1 && self.shape()[off + i] != 1 {
                axes.push(off + i);
            }
        }
        let r = self.sum_axes_keepdims(&axes);
        r.reshaped(target)
    }

    /// Materialize this tensor broadcast to `target` shape.
    pub fn broadcast_to(&self, target: &[usize]) -> Tensor {
        if self.shape() == target {
            return self.clone();
        }
        let strides = broadcast_strides(self.shape(), target);
        let n = numel(target);
        let data = self.as_slice();
        let nd = target.len();
        let mut out = vec![0.0f32; n];
        let mut idx = vec![0usize; nd];
        let mut src = 0usize;
        for o in out.iter_mut() {
            *o = data[src];
            for d in (0..nd).rev() {
                idx[d] += 1;
                src += strides[d];
                if idx[d] < target[d] {
                    break;
                }
                src -= strides[d] * target[d];
                idx[d] = 0;
            }
        }
        Tensor::from_vec(out, target)
    }

    /// Softmax over the last axis, numerically stabilized.
    pub fn softmax_last(&self) -> Tensor {
        let n = *self.shape().last().expect("softmax needs ndim >= 1");
        let mut out = vec![0.0f32; self.numel()];
        backend::current().softmax_rows(self.as_slice(), &mut out, n);
        Tensor::from_vec(out, self.shape())
    }
}

/// GELU (tanh approximation) on a scalar.
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of the tanh-approximated GELU.
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let b = Tensor::from_vec(vec![10., 20., 30.], &[3]);
        assert_eq!(a.add(&b).as_slice(), &[11., 22., 33.]);
    }

    #[test]
    fn broadcast_row_and_col() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3, 1]);
        let b = Tensor::from_vec(vec![10., 20.], &[1, 2]);
        let c = a.add(&b);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.as_slice(), &[11., 21., 12., 22., 13., 23.]);
    }

    #[test]
    fn broadcast_scalar_like() {
        let a = Tensor::from_vec(vec![1., 2.], &[2]);
        let s = Tensor::scalar(5.0);
        assert_eq!(a.mul(&s).as_slice(), &[5., 10.]);
    }

    #[test]
    fn incompatible_shapes_error_is_typed() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4]);
        match a.try_binary_op(&b, BinaryOp::Add) {
            Err(ShapeError::Broadcast { lhs, rhs }) => {
                assert_eq!(lhs, vec![2, 3]);
                assert_eq!(rhs, vec![4]);
            }
            other => panic!("expected Broadcast error, got {other:?}"),
        }
        assert!(a.try_zip(&b, |x, y| x + y).is_err());
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn incompatible_add_panics() {
        let _ = Tensor::ones(&[2, 3]).add(&Tensor::ones(&[4]));
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let b = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]);
        let expect = a.add(&b);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), expect.as_slice());
        // Broadcasting fallback still works in place.
        let mut c = Tensor::ones(&[2, 3]);
        c.add_assign(&Tensor::from_vec(vec![1., 2., 3.], &[3]));
        assert_eq!(c.as_slice(), &[2., 3., 4., 2., 3., 4.]);
    }

    #[test]
    fn inplace_unary_copy_on_write() {
        let mut a = Tensor::from_vec(vec![1., 4., 9.], &[3]);
        let shared = a.clone();
        a.unary_op_inplace(UnaryOp::Sqrt);
        assert_eq!(a.as_slice(), &[1., 2., 3.]);
        assert_eq!(
            shared.as_slice(),
            &[1., 4., 9.],
            "clone must not observe mutation"
        );
    }

    #[test]
    fn sum_axes_keepdims_matrix() {
        let a = Tensor::arange(6).reshaped(&[2, 3]);
        let rows = a.sum_axes_keepdims(&[1]);
        assert_eq!(rows.shape(), &[2, 1]);
        assert_eq!(rows.as_slice(), &[3., 12.]);
        let cols = a.sum_axes_keepdims(&[0]);
        assert_eq!(cols.shape(), &[1, 3]);
        assert_eq!(cols.as_slice(), &[3., 5., 7.]);
        let all = a.sum_axes_keepdims(&[0, 1]);
        assert_eq!(all.as_slice(), &[15.]);
    }

    #[test]
    fn sum_to_inverts_broadcast() {
        let a = Tensor::ones(&[2, 3, 4]);
        let r = a.sum_to(&[3, 1]);
        assert_eq!(r.shape(), &[3, 1]);
        assert!(r.as_slice().iter().all(|&v| (v - 8.0).abs() < 1e-6));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1., 2., 3., 1., 1., 1.], &[2, 3]);
        let s = a.softmax_last();
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // uniform row -> uniform softmax
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![100., 101., 102.], &[3]);
        let b = Tensor::from_vec(vec![0., 1., 2.], &[3]);
        assert!(a.softmax_last().allclose(&b.softmax_last(), 1e-6));
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh approximation.
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        assert!((gelu_scalar(1.0) - 0.841192).abs() < 1e-4);
        assert!((gelu_scalar(-1.0) + 0.158808).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_finite_diff() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad_scalar(x) - fd).abs() < 1e-3,
                "x={x}: {} vs {}",
                gelu_grad_scalar(x),
                fd
            );
        }
    }

    #[test]
    fn mean_all_matches() {
        let a = Tensor::arange(5);
        assert!((a.mean_all() - 2.0).abs() < 1e-6);
    }
}
