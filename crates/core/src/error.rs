//! Typed forecasting errors.
//!
//! A malformed request must never take down a long-lived serving worker,
//! so every validation that used to `assert!`/`unwrap()` in the forecast
//! paths surfaces here as a [`ForecastError`] instead.

use std::fmt;

/// Why a forecast request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForecastError {
    /// The episode window has the wrong length for the model horizon
    /// (needs the initial condition plus `t_out` boundary frames).
    WindowLength { needed: usize, got: usize },
    /// The reference trajectory is too short to supply boundary frames.
    ReferenceTooShort { needed: usize, got: usize },
    /// A snapshot's mesh does not match the model's configured mesh.
    MeshMismatch {
        expected: (usize, usize, usize),
        got: (usize, usize, usize),
    },
    /// A snapshot's field holds a different number of values than its
    /// mesh implies (`ny·nx` for ζ, `nz·ny·nx` for u, v and w).
    FieldLength {
        frame: usize,
        field: &'static str,
        expected: usize,
        got: usize,
    },
    /// A prediction or simulation produced no snapshots.
    EmptyEpisode,
    /// A batched call was handed zero episodes.
    EmptyBatch,
}

impl fmt::Display for ForecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForecastError::WindowLength { needed, got } => {
                write!(f, "episode window needs {needed} snapshots, got {got}")
            }
            ForecastError::ReferenceTooShort { needed, got } => {
                write!(
                    f,
                    "reference trajectory needs {needed} snapshots, got {got}"
                )
            }
            ForecastError::MeshMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot mesh {got:?} does not match model mesh {expected:?} (nz, ny, nx)"
                )
            }
            ForecastError::FieldLength {
                frame,
                field,
                expected,
                got,
            } => write!(
                f,
                "snapshot {frame} field {field} holds {got} values, its mesh needs {expected}"
            ),
            ForecastError::EmptyEpisode => write!(f, "episode produced no snapshots"),
            ForecastError::EmptyBatch => write!(f, "batched forecast needs at least one episode"),
        }
    }
}

impl std::error::Error for ForecastError {}
