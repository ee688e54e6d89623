//! Layout-changing operations: permute, pad, narrow, concat, roll.
//!
//! All of these materialize a new contiguous buffer (tensors in this crate
//! are always contiguous), so each op is its own gather/scatter kernel.

use super::Tensor;
use crate::shape::{numel, strides_for};

impl Tensor {
    /// Permute axes: `out[i0,…] = self[i_axes[0],…]`. `axes` must be a
    /// permutation of `0..ndim`.
    pub fn permute(&self, axes: &[usize]) -> Tensor {
        let nd = self.ndim();
        assert_eq!(axes.len(), nd, "permute axes length mismatch");
        let mut seen = vec![false; nd];
        for &a in axes {
            assert!(a < nd && !seen[a], "invalid permutation {axes:?}");
            seen[a] = true;
        }
        let in_strides = strides_for(self.shape());
        let out_shape: Vec<usize> = axes.iter().map(|&a| self.shape()[a]).collect();
        // Stride in the *input* for each output axis.
        let gather_strides: Vec<usize> = axes.iter().map(|&a| in_strides[a]).collect();
        let data = self.as_slice();
        let nd_out = out_shape.len();
        let mut out = vec![0.0f32; self.numel()];
        let mut idx = vec![0usize; nd_out];
        let mut src = 0usize;
        for o in out.iter_mut() {
            *o = data[src];
            for d in (0..nd_out).rev() {
                idx[d] += 1;
                src += gather_strides[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                src -= gather_strides[d] * out_shape[d];
                idx[d] = 0;
            }
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Swap the last two axes (matrix transpose over batched dims).
    pub fn transpose_last(&self) -> Tensor {
        let nd = self.ndim();
        assert!(nd >= 2, "transpose_last needs ndim >= 2");
        let mut axes: Vec<usize> = (0..nd).collect();
        axes.swap(nd - 1, nd - 2);
        self.permute(&axes)
    }

    /// Zero-pad: `pads[d] = (before, after)` per dimension.
    pub fn pad(&self, pads: &[(usize, usize)]) -> Tensor {
        assert_eq!(pads.len(), self.ndim(), "pad spec length mismatch");
        if pads.iter().all(|&(b, a)| b == 0 && a == 0) {
            return self.clone();
        }
        let out_shape: Vec<usize> = self
            .shape()
            .iter()
            .zip(pads)
            .map(|(&d, &(b, a))| d + b + a)
            .collect();
        let mut out = vec![0.0f32; numel(&out_shape)];
        let out_strides = strides_for(&out_shape);
        let in_shape = self.shape();
        let nd = in_shape.len();
        let data = self.as_slice();
        // Walk the input; scatter into the padded output.
        let mut idx = vec![0usize; nd];
        let base: usize = pads
            .iter()
            .zip(&out_strides)
            .map(|(&(b, _), &s)| b * s)
            .sum();
        let mut dst = base;
        for &v in data {
            out[dst] = v;
            for d in (0..nd).rev() {
                idx[d] += 1;
                dst += out_strides[d];
                if idx[d] < in_shape[d] {
                    break;
                }
                dst -= out_strides[d] * in_shape[d];
                idx[d] = 0;
            }
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Slice out `[start, start+len)` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        assert!(axis < self.ndim(), "narrow axis out of range");
        assert!(
            start + len <= self.shape()[axis],
            "narrow [{start}, {}) exceeds dim {} of {:?}",
            start + len,
            axis,
            self.shape()
        );
        let in_shape = self.shape();
        let mut out_shape = in_shape.to_vec();
        out_shape[axis] = len;
        // View the tensor as (outer, dim, inner); copy contiguous inner runs.
        let outer: usize = in_shape[..axis].iter().product();
        let inner: usize = in_shape[axis + 1..].iter().product();
        let dim = in_shape[axis];
        let data = self.as_slice();
        let mut out = vec![0.0f32; outer * len * inner];
        let run = len * inner;
        for o in 0..outer {
            let src = (o * dim + start) * inner;
            out[o * run..(o + 1) * run].copy_from_slice(&data[src..src + run]);
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Concatenate tensors along `axis`. All other dims must agree.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let nd = parts[0].ndim();
        assert!(axis < nd);
        for p in parts {
            assert_eq!(p.ndim(), nd, "concat rank mismatch");
            for d in 0..nd {
                if d != axis {
                    assert_eq!(p.shape()[d], parts[0].shape()[d], "concat dim {d} mismatch");
                }
            }
        }
        let total: usize = parts.iter().map(|p| p.shape()[axis]).sum();
        let mut out_shape = parts[0].shape().to_vec();
        out_shape[axis] = total;
        let outer: usize = out_shape[..axis].iter().product();
        let inner: usize = out_shape[axis + 1..].iter().product();
        let mut out = vec![0.0f32; numel(&out_shape)];
        let out_run = total * inner;
        let mut off_in_axis = 0usize;
        for p in parts {
            let plen = p.shape()[axis];
            let prun = plen * inner;
            let pdata = p.as_slice();
            for o in 0..outer {
                let dst = o * out_run + off_in_axis * inner;
                out[dst..dst + prun].copy_from_slice(&pdata[o * prun..(o + 1) * prun]);
            }
            off_in_axis += plen;
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Cyclic shift along each axis: element at index `i` moves to
    /// `(i + shift) mod dim` (positive shifts move content "right/down",
    /// matching `torch.roll`). Shifts may be negative.
    pub fn roll(&self, shifts: &[isize]) -> Tensor {
        assert_eq!(shifts.len(), self.ndim(), "roll shift length mismatch");
        if shifts.iter().all(|&s| s == 0) {
            return self.clone();
        }
        let shape = self.shape().to_vec();
        let nd = shape.len();
        // Normalized non-negative shifts.
        let norm: Vec<usize> = shifts
            .iter()
            .zip(&shape)
            .map(|(&s, &d)| {
                let d = d as isize;
                (((s % d) + d) % d) as usize
            })
            .collect();
        let strides = strides_for(&shape);
        let data = self.as_slice();
        let mut out = vec![0.0f32; self.numel()];
        // For each output position, the source index is (i - shift) mod dim.
        let mut idx = vec![0usize; nd];
        for o in out.iter_mut() {
            let mut src = 0usize;
            for d in 0..nd {
                let s = (idx[d] + shape[d] - norm[d]) % shape[d];
                src += s * strides[d];
            }
            *o = data[src];
            for d in (0..nd).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor::from_vec(out, &shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permute_matrix_transpose() {
        let a = Tensor::arange(6).reshaped(&[2, 3]);
        let t = a.permute(&[1, 0]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_slice(), &[0., 3., 1., 4., 2., 5.]);
    }

    #[test]
    fn permute_3d_roundtrip() {
        let a = Tensor::arange(24).reshaped(&[2, 3, 4]);
        let p = a.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        // inverse permutation of [2,0,1] is [1,2,0]
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back.as_slice(), a.as_slice());
    }

    #[test]
    fn pad_then_narrow_roundtrip() {
        let a = Tensor::arange(6).reshaped(&[2, 3]);
        let p = a.pad(&[(1, 1), (0, 2)]);
        assert_eq!(p.shape(), &[4, 5]);
        assert_eq!(p.at(&[0, 0]), 0.0); // padded row
        assert_eq!(p.at(&[1, 0]), 0.0); // a[0,0]
        assert_eq!(p.at(&[1, 1]), 1.0); // a[0,1]; columns only padded on the right
        assert_eq!(p.at(&[1, 4]), 0.0); // padded col
        let back = p.narrow(0, 1, 2).narrow(1, 0, 3);
        assert_eq!(back.as_slice(), a.as_slice());
    }

    #[test]
    fn narrow_middle_axis() {
        let a = Tensor::arange(24).reshaped(&[2, 3, 4]);
        let n = a.narrow(1, 1, 2);
        assert_eq!(n.shape(), &[2, 2, 4]);
        assert_eq!(n.at(&[0, 0, 0]), a.at(&[0, 1, 0]));
        assert_eq!(n.at(&[1, 1, 3]), a.at(&[1, 2, 3]));
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::arange(4).reshaped(&[2, 2]);
        let b = Tensor::full(&[2, 1], 9.0);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[0., 1., 9., 2., 3., 9.]);
    }

    #[test]
    fn concat_then_narrow_recovers_parts() {
        let a = Tensor::arange(6).reshaped(&[2, 3]);
        let b = Tensor::arange(4).reshaped(&[2, 2]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.narrow(1, 0, 3).as_slice(), a.as_slice());
        assert_eq!(c.narrow(1, 3, 2).as_slice(), b.as_slice());
    }

    #[test]
    fn roll_matches_torch_semantics() {
        let a = Tensor::arange(4); // [0,1,2,3]
        let r = a.roll(&[1]);
        assert_eq!(r.as_slice(), &[3., 0., 1., 2.]);
        let r2 = a.roll(&[-1]);
        assert_eq!(r2.as_slice(), &[1., 2., 3., 0.]);
    }

    #[test]
    fn roll_inverse_is_negative_shift() {
        let a = Tensor::arange(24).reshaped(&[2, 3, 4]);
        let r = a.roll(&[1, -2, 3]).roll(&[-1, 2, -3]);
        assert_eq!(r.as_slice(), a.as_slice());
    }

    #[test]
    fn transpose_last_batched() {
        let a = Tensor::arange(12).reshaped(&[2, 2, 3]);
        let t = a.transpose_last();
        assert_eq!(t.shape(), &[2, 3, 2]);
        assert_eq!(t.at(&[1, 2, 0]), a.at(&[1, 0, 2]));
    }
}
