//! # coastal-ocean
//!
//! A ROMS-like coastal circulation model: split-explicit free-surface
//! solver on an Arakawa-C grid with terrain-following sigma layers.
//!
//! - Fast (barotropic) mode: forward-backward shallow-water stepping with
//!   Flather/Chapman open-boundary tidal forcing, quadratic bottom drag,
//!   Coriolis, horizontal eddy viscosity ([`barotropic`]).
//! - Slow (baroclinic) mode: implicit vertical viscosity (tridiagonal
//!   solve per column), ROMS-style barotropic mode coupling, vertical
//!   velocity diagnosed from continuity ([`baroclinic`]).
//! - One driver, [`model::Roms`], runs the kernels on the tiles of a
//!   `chpc::Decomp` with MPI-style halo exchange; one tile is the serial
//!   model, and any tile count gives bit-identical output.
//! - Output: cell-centered [`snapshot::Snapshot`]s matching the paper's
//!   data-preparation step (side→center interpolation, f32).

pub mod baroclinic;
pub mod barotropic;
pub mod domain;
pub mod forcing;
pub mod model;
mod par;
pub mod snapshot;
pub mod state;

pub use barotropic::{PhysParams, G, MIN_DEPTH};
pub use domain::TileDomain;
pub use forcing::{Constituent, ForcingError, TidalForcing};
pub use model::{OceanConfig, Roms};
pub use snapshot::{load_snapshot, take_snapshot, Snapshot};
pub use state::State;
