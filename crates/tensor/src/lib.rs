//! # coastal-tensor
//!
//! A self-contained tensor / autograd / neural-network library powering the
//! 4D Swin Transformer surrogate of this repository.
//!
//! Components:
//! - [`tensor::Tensor`]: dense row-major `f32` tensors with cheap `Arc`
//!   cloning and rayon-parallel kernels (batched matmul, softmax,
//!   broadcasting elementwise ops, layout ops).
//! - [`autograd::Graph`]: tape-based reverse-mode autodiff with activation
//!   memory metering and generic activation checkpointing
//!   ([`autograd::Graph::checkpoint`]).
//! - [`nn`]: Linear / LayerNorm / BatchNorm / MLP / multi-head attention
//!   modules sharing parameters through [`autograd::Param`] handles.
//! - [`optim`]: SGD, Adam, AdamW, gradient clipping.
//! - [`f16`]: software IEEE binary16 used as the snapshot storage dtype
//!   (the paper compresses its FP64 ROMS archive to FP16 for training).
//!
//! ```
//! use ctensor::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let layer = Linear::new("demo", 4, 2, true, &mut rng);
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::ones(&[3, 4]));
//! let y = layer.forward(&mut g, x);
//! let loss = g.mean_all(y);
//! g.backward(loss);
//! assert!(layer.weight.grad().is_some());
//! ```

pub mod autograd;
pub mod backend;
pub mod f16;
pub mod init;
pub mod nn;
pub mod optim;
pub mod quant;
pub mod shape;
pub mod simd;
pub mod tensor;

/// Convenient glob import.
pub mod prelude {
    pub use crate::autograd::{GradBuf, Graph, MemMeter, Param, Var};
    pub use crate::backend::{Backend, Blocked, ScalarRef, ShapeError};
    pub use crate::f16::F16;
    pub use crate::nn::{
        average_states, load_state_dict, state_dict, BatchNorm, LayerNorm, Linear, Mlp, Module,
        MultiHeadAttention,
    };
    pub use crate::optim::{clip_grad_norm, zero_grads, Adam, Sgd};
    pub use crate::quant::Precision;
    pub use crate::tensor::Tensor;
}
