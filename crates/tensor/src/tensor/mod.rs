//! Dense row-major `f32` tensor with cheap (`Arc`) cloning.
//!
//! All tensors are contiguous; layout-changing ops (`permute`, `pad`, …)
//! materialize a new contiguous buffer. Mutation goes through
//! [`Tensor::as_mut_slice`], which copies-on-write when the buffer is shared.

mod layout;
mod linalg;
pub mod ops;

pub(crate) use linalg::matmul_grads;

use std::fmt;
use std::sync::Arc;

use crate::shape::{self, numel};

/// A dense, contiguous, row-major tensor of `f32`.
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Build a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data: Arc::new(data),
            shape: shape.to_vec(),
        }
    }

    /// Scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(vec![v], &[])
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::from_vec(vec![0.0; numel(shape)], shape)
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Self::from_vec(vec![v; numel(shape)], shape)
    }

    /// `0, 1, 2, …` as f32, shaped `[n]`.
    pub fn arange(n: usize) -> Self {
        Self::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    /// Tensor shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of the buffer in bytes (used by the activation-memory meter).
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Read-only view of the flat buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer; clones the storage if shared.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Value of a rank-0 or single-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elems",
            self.numel()
        );
        self.data[0]
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[shape::ravel(index, &self.shape)]
    }

    /// Set element at a multi-index (copy-on-write).
    pub fn set(&mut self, index: &[usize], v: f32) {
        let off = shape::ravel(index, &self.shape);
        self.as_mut_slice()[off] = v;
    }

    /// Reinterpret with a new shape of identical element count (no copy).
    pub fn reshaped(&self, new_shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            numel(new_shape),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            new_shape
        );
        Tensor {
            data: Arc::clone(&self.data),
            shape: new_shape.to_vec(),
        }
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference against another tensor of equal shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Approximate equality within `tol` (absolute, elementwise).
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, ", data={:?}", self.as_slice())?;
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1]
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    fn clone_is_shallow_until_mutated() {
        let mut a = Tensor::zeros(&[4]);
        let b = a.clone();
        a.set(&[0], 7.0);
        assert_eq!(a.at(&[0]), 7.0);
        assert_eq!(b.at(&[0]), 0.0, "clone must not observe mutation");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshaped(&[2, 3]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic]
    fn bad_reshape_panics() {
        let _ = Tensor::arange(6).reshaped(&[4, 2]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }
}
