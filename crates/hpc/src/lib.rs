//! # coastal-hpc
//!
//! An MPI-like runtime on threads: rectangular 2-D domain decomposition
//! ([`decomp::Decomp`]), tagged point-to-point messaging over dedicated
//! FIFO channels ([`comm::Comm`]) and deadlock-free halo exchange
//! ([`halo::exchange_halo`]). This is the substrate under the
//! "Traditional MPI ROMS" baseline of the paper's Table I, reproduced
//! here with threads on one machine.

pub mod comm;
pub mod decomp;
pub mod halo;

pub use comm::{communicators, run_parallel, Comm, CommStats};
pub use decomp::{split_range, Decomp, Neighbors, Tile};
pub use halo::{exchange_halo, Side};
