//! Batched matrix multiplication, the dominant kernel of the surrogate.
//!
//! `matmul` treats the trailing two axes as matrices and broadcasts the
//! leading (batch) axes NumPy-style. Shape/stride resolution happens here;
//! the flat kernel itself is the active [`crate::backend::Backend`]'s
//! `matmul` (cache-blocked + panel-packed + SIMD microkernel under
//! [`crate::backend::Blocked`], a naive triple loop under
//! [`crate::backend::ScalarRef`]).

use super::Tensor;
use crate::backend::{self, MatmulSpec, ShapeError};
use crate::shape::{broadcast_shapes, broadcast_strides, numel, unravel};

impl Tensor {
    /// Batched matrix product with broadcasting over leading dims.
    ///
    /// Shapes: `(..., m, k) @ (..., k, n) -> (broadcast(...), m, n)`.
    /// 1-D operands are promoted like NumPy (`[k] @ [k, n]`, `[m, k] @ [k]`).
    ///
    /// # Panics
    /// On shape mismatch; use [`Tensor::try_matmul`] for a typed error.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Tensor::matmul`] with a typed [`ShapeError`] instead of a panic.
    pub fn try_matmul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        // Promote 1-D operands.
        let a = if self.ndim() == 1 {
            self.reshaped(&[1, self.shape()[0]])
        } else {
            self.clone()
        };
        let b = if other.ndim() == 1 {
            other.reshaped(&[other.shape()[0], 1])
        } else {
            other.clone()
        };
        let out = try_matmul_nd(&a, &b, None)?;
        // Undo promotion.
        Ok(match (self.ndim(), other.ndim()) {
            (1, 1) => out.reshaped(&[]),
            (1, _) => {
                let mut s = out.shape().to_vec();
                s.remove(s.len() - 2);
                out.reshaped(&s)
            }
            (_, 1) => {
                let mut s = out.shape().to_vec();
                s.pop();
                out.reshaped(&s)
            }
            _ => out,
        })
    }

    /// Fused `self @ other + bias` (bias broadcast over rows) — the linear
    /// layer's kernel, saving the separate broadcast-add pass.
    pub fn matmul_bias(&self, other: &Tensor, bias: &Tensor) -> Tensor {
        self.try_matmul_bias(other, bias)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Tensor::matmul_bias`] with a typed error.
    pub fn try_matmul_bias(&self, other: &Tensor, bias: &Tensor) -> Result<Tensor, ShapeError> {
        if self.ndim() < 2 || other.ndim() < 2 {
            return Err(ShapeError::Rank {
                op: "matmul_bias",
                shape: if self.ndim() < 2 {
                    self.shape().to_vec()
                } else {
                    other.shape().to_vec()
                },
                min_ndim: 2,
            });
        }
        let n = other.shape()[other.ndim() - 1];
        if bias.shape() != [n] {
            return Err(ShapeError::Broadcast {
                lhs: bias.shape().to_vec(),
                rhs: vec![n],
            });
        }
        try_matmul_nd(self, other, Some(bias))
    }
}

/// Adjoints of [`Tensor::matmul`] / [`Tensor::matmul_bias`]: given the
/// forward operands and the upstream gradient `g` of shape
/// `(batch..., m, n)`, returns `(dA, dB)` already sum-reduced onto the
/// operand shapes (the adjoint of batch broadcasting).
///
/// The per-batch products `dA = g·Bᵀ` and `dB = Aᵀ·g` run on the backend's
/// dedicated [`crate::backend::Backend::matmul_grad_a`] /
/// [`crate::backend::Backend::matmul_grad_b`] kernels — transposed operands
/// are read by stride, never materialized. Both operands must be ≥ 2-D
/// (the autograd layer enforces this before recording).
pub(crate) fn matmul_grads(a: &Tensor, b: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    let (m, k) = (a.shape()[a.ndim() - 2], a.shape()[a.ndim() - 1]);
    let n = b.shape()[b.ndim() - 1];
    let a_batch = &a.shape()[..a.ndim() - 2];
    let b_batch = &b.shape()[..b.ndim() - 2];
    let batch_shape = broadcast_shapes(a_batch, b_batch)
        .expect("matmul_grads: operands already multiplied in the forward pass");
    let n_batch = numel(&batch_shape);
    let a_bstrides = broadcast_strides(a_batch, &batch_shape);
    let b_bstrides = broadcast_strides(b_batch, &batch_shape);
    let nd = batch_shape.len();
    let batch_offsets: Vec<(usize, usize)> = (0..n_batch)
        .map(|bi| {
            let mut idx = vec![0usize; nd];
            unravel(bi, &batch_shape, &mut idx);
            let ao: usize = idx.iter().zip(&a_bstrides).map(|(&i, &s)| i * s).sum();
            let bo: usize = idx.iter().zip(&b_bstrides).map(|(&i, &s)| i * s).sum();
            (ao, bo)
        })
        .collect();
    let spec = MatmulSpec {
        m,
        k,
        n,
        batch_offsets: &batch_offsets,
        bias: None,
    };
    let be = backend::current();
    let mut da = vec![0.0f32; n_batch * m * k];
    be.matmul_grad_a(g.as_slice(), b.as_slice(), &mut da, &spec);
    let mut db = vec![0.0f32; n_batch * k * n];
    be.matmul_grad_b(a.as_slice(), g.as_slice(), &mut db, &spec);
    let mut da_shape = batch_shape.clone();
    da_shape.extend([m, k]);
    let mut db_shape = batch_shape;
    db_shape.extend([k, n]);
    (
        Tensor::from_vec(da, &da_shape).sum_to(a.shape()),
        Tensor::from_vec(db, &db_shape).sum_to(b.shape()),
    )
}

fn try_matmul_nd(a: &Tensor, b: &Tensor, bias: Option<&Tensor>) -> Result<Tensor, ShapeError> {
    let (am, ak) = (a.shape()[a.ndim() - 2], a.shape()[a.ndim() - 1]);
    let (bk, bn) = (b.shape()[b.ndim() - 2], b.shape()[b.ndim() - 1]);
    if ak != bk {
        return Err(ShapeError::MatmulInner {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let a_batch = &a.shape()[..a.ndim() - 2];
    let b_batch = &b.shape()[..b.ndim() - 2];
    let batch_shape =
        broadcast_shapes(a_batch, b_batch).ok_or_else(|| ShapeError::MatmulBatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        })?;
    let n_batch = numel(&batch_shape);

    // Per-batch matrix indices honoring broadcast.
    let a_bstrides = broadcast_strides(a_batch, &batch_shape);
    let b_bstrides = broadcast_strides(b_batch, &batch_shape);
    let nd = batch_shape.len();
    let batch_offsets: Vec<(usize, usize)> = (0..n_batch)
        .map(|bi| {
            let mut idx = vec![0usize; nd];
            unravel(bi, &batch_shape, &mut idx);
            let ao: usize = idx.iter().zip(&a_bstrides).map(|(&i, &s)| i * s).sum();
            let bo: usize = idx.iter().zip(&b_bstrides).map(|(&i, &s)| i * s).sum();
            (ao, bo)
        })
        .collect();

    let mut out_shape = batch_shape.clone();
    out_shape.push(am);
    out_shape.push(bn);
    let mut out = vec![0.0f32; n_batch * am * bn];
    let spec = MatmulSpec {
        m: am,
        k: ak,
        n: bn,
        batch_offsets: &batch_offsets,
        bias: bias.map(|t| t.as_slice()),
    };
    backend::current().matmul(a.as_slice(), b.as_slice(), &mut out, &spec);
    Ok(Tensor::from_vec(out, &out_shape))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::arange(6).reshaped(&[2, 3]);
        let b = Tensor::arange(12).reshaped(&[3, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 4]);
        // row 0: [0,1,2] . cols of b
        assert_eq!(c.at(&[0, 0]), 0. * 0. + 1. * 4. + 2. * 8.);
        assert_eq!(c.at(&[1, 3]), 3. * 3. + 4. * 7. + 5. * 11.);
    }

    #[test]
    fn matmul_batched() {
        let a = Tensor::arange(2 * 2 * 3).reshaped(&[2, 2, 3]);
        let b = Tensor::arange(2 * 3 * 2).reshaped(&[2, 3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        // Batch 1 must equal standalone product of its matrices.
        let a1 = a.narrow(0, 1, 1).reshaped(&[2, 3]);
        let b1 = b.narrow(0, 1, 1).reshaped(&[3, 2]);
        let c1 = a1.matmul(&b1);
        assert_eq!(
            c.narrow(0, 1, 1).reshaped(&[2, 2]).as_slice(),
            c1.as_slice()
        );
    }

    #[test]
    fn matmul_broadcast_batch() {
        // (1,2,2) @ (3,2,2) broadcasts to (3,2,2)
        let a = Tensor::arange(4).reshaped(&[1, 2, 2]);
        let b = Tensor::ones(&[3, 2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[3, 2, 2]);
        for bi in 0..3 {
            assert_eq!(c.at(&[bi, 0, 0]), 1.0);
            assert_eq!(c.at(&[bi, 1, 1]), 5.0);
        }
    }

    #[test]
    fn matmul_vec_promotions() {
        let v = Tensor::from_vec(vec![1., 2.], &[2]);
        let m = Tensor::arange(6).reshaped(&[2, 3]);
        let r = v.matmul(&m);
        assert_eq!(r.shape(), &[3]);
        // m = [[0,1,2],[3,4,5]]; v @ m = [1*0+2*3, 1*1+2*4, 1*2+2*5]
        assert_eq!(r.as_slice(), &[6., 9., 12.]);
        let r2 = m.transpose_last().matmul(&v);
        assert_eq!(r2.shape(), &[3]);
        assert_eq!(r2.as_slice(), r.as_slice());
        let dot = v.matmul(&v);
        assert_eq!(dot.shape(), &[] as &[usize]);
        assert_eq!(dot.item(), 5.0);
    }

    #[test]
    fn matmul_identity() {
        let n = 17;
        let mut eye = Tensor::zeros(&[n, n]);
        for i in 0..n {
            eye.set(&[i, i], 1.0);
        }
        let a = Tensor::arange(n * n).reshaped(&[n, n]);
        assert!(a.matmul(&eye).allclose(&a, 1e-5));
        assert!(eye.matmul(&a).allclose(&a, 1e-5));
    }

    #[test]
    fn matmul_large_parallel_matches_serial_small_blocks() {
        // Compose a large product from per-batch small products.
        let b = 9;
        let a = Tensor::from_vec(
            (0..b * 40 * 30).map(|i| ((i % 13) as f32) - 6.0).collect(),
            &[b, 40, 30],
        );
        let w = Tensor::from_vec(
            (0..b * 30 * 20).map(|i| ((i % 7) as f32) - 3.0).collect(),
            &[b, 30, 20],
        );
        let full = a.matmul(&w);
        for bi in 0..b {
            let ai = a.narrow(0, bi, 1).reshaped(&[40, 30]);
            let wi = w.narrow(0, bi, 1).reshaped(&[30, 20]);
            let ci = ai.matmul(&wi);
            assert!(full
                .narrow(0, bi, 1)
                .reshaped(&[40, 20])
                .allclose(&ci, 1e-4));
        }
    }

    #[test]
    fn zero_row_matmul_yields_empty_output() {
        let a = Tensor::from_vec(vec![], &[0, 3]);
        let b = Tensor::ones(&[3, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[0, 4]);
        assert_eq!(c.numel(), 0);
    }

    #[test]
    fn try_matmul_reports_typed_errors() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 5]);
        match a.try_matmul(&b) {
            Err(ShapeError::MatmulInner { lhs, rhs }) => {
                assert_eq!(lhs, vec![2, 3]);
                assert_eq!(rhs, vec![4, 5]);
            }
            other => panic!("expected MatmulInner, got {other:?}"),
        }
        // Incompatible batch dims.
        let a = Tensor::ones(&[2, 3, 4]);
        let b = Tensor::ones(&[5, 4, 6]);
        assert!(matches!(
            a.try_matmul(&b),
            Err(ShapeError::MatmulBatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "matmul inner dim mismatch")]
    fn matmul_mismatch_panics_with_message() {
        let _ = Tensor::ones(&[2, 3]).matmul(&Tensor::ones(&[4, 5]));
    }

    #[test]
    fn matmul_bias_matches_unfused() {
        let a = Tensor::arange(6).reshaped(&[2, 3]);
        let w = Tensor::arange(12).reshaped(&[3, 4]);
        let bias = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[4]);
        let fused = a.matmul_bias(&w, &bias);
        let unfused = a.matmul(&w).add(&bias);
        assert!(fused.allclose(&unfused, 1e-5));
        // Bad bias length is a typed error.
        assert!(a.try_matmul_bias(&w, &Tensor::ones(&[3])).is_err());
    }
}
