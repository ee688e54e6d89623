//! # coastal
//!
//! Workspace façade for the reproduction of *Accelerate Coastal Ocean
//! Circulation Model with AI Surrogate* (IPDPS 2025): re-exports the
//! public API of every crate. See `README.md` for a tour and `DESIGN.md`
//! for the system inventory.

pub use ccore as core;
pub use censemble as ensemble;
pub use cgrid as grid;
pub use chpc as hpc;
pub use cobs as obs;
pub use cocean as ocean;
pub use cphysics as physics;
pub use cpipeline as pipeline;
pub use cserve as serve;
pub use csurrogate as surrogate;
pub use ctensor as tensor;

pub use ccore::{
    train_surrogate, ErrorTable, ForecastError, HybridForecaster, Scenario, SurrogateSpec,
    TrainedSurrogate,
};
pub use censemble::{
    EnsembleRunner, EnsembleStats, PerturbationCatalog, PerturbationSpace, SamplingStrategy,
};
pub use cserve::{ForecastRequest, ForecastServer, ServeConfig, ServeError, ServeMetrics};
