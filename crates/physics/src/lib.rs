//! # coastal-physics
//!
//! Physics-based verification of simulation and surrogate output: the
//! water-mass conservation residual of the paper's Eq. 4/5 (`mass`),
//! threshold verdicts, episode checking and pass-rate curves ([`verify`]).

mod mass;
pub mod verify;

pub use verify::{
    pass_rate, pass_rate_curve, Verdict, Verifier, VerifierConfig, ACCEPTED_THRESHOLD,
    PAPER_THRESHOLDS,
};
