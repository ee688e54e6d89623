//! # coastal-pipeline
//!
//! The GPU-style training pipeline of the paper's §III-D, on CPU:
//!
//! - [`normalize`]: z-score statistics over the training year.
//! - [`dataset`]: sliding-window episode construction — full initial
//!   condition + boundary-ring future frames in, full interiors out.
//! - [`store`]: FP16-compressed snapshot archive (the 2.6 TB store,
//!   scaled), decompression-as-I/O.
//! - [`loader`]: prefetch workers, pinned staging-buffer pool, and
//!   deterministic batch ordering.
//! - [`trainer`]: batch-first Adam training with gradient accumulation,
//!   activation-memory budgeting, throughput metering, and the
//!   data-parallel epoch (weak scaling, Fig. 10).
//! - [`checkpoint`]: full training-state snapshots (params, buffers, Adam
//!   moments) for bitwise-identical stop/resume.

pub mod checkpoint;
pub mod dataset;
pub mod loader;
pub mod normalize;
pub mod store;
pub mod trainer;

pub use checkpoint::TrainCheckpoint;
pub use dataset::{
    decode_prediction, decode_prediction_batch, decode_sample, encode_episode, stack_episodes,
    EncodeConfig, Episode, WindowSpec,
};
pub use loader::{DataLoader, LoaderConfig};
pub use normalize::NormStats;
pub use store::SnapshotStore;
pub use trainer::{EpochStats, StepStats, TrainConfig, Trainer};
