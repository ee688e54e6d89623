//! Tidal and subtidal boundary forcing.
//!
//! The west boundary carries a prescribed sea-surface elevation built from
//! astronomical tidal constituents (Gulf-coast Florida is a mixed regime:
//! M2/S2 semidiurnal plus K1/O1 diurnal) and a seeded low-frequency
//! "weather" anomaly so different simulated years differ — this is what
//! separates the training year from the test year in the data pipeline,
//! standing in for the paper's 2011-train / 2012-test split.

use std::fmt;

/// Why a forcing parameterization was rejected at construction.
///
/// A non-finite amplitude or a non-positive period would silently turn
/// every boundary elevation into NaN/∞ deep inside the solver, so the
/// constructors reject them up front — essential once forcings are
/// *generated* (ensemble perturbations) rather than hand-written.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ForcingError {
    /// Amplitude was NaN or ±∞.
    NonFiniteAmplitude { amplitude: f64 },
    /// Period must be finite and strictly positive (seconds).
    InvalidPeriod { period: f64 },
    /// Phase was NaN or ±∞.
    NonFinitePhase { phase: f64 },
    /// A named forcing field (alongshore lag, time origin) was NaN or ±∞.
    NonFiniteParameter { name: &'static str, value: f64 },
}

impl fmt::Display for ForcingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForcingError::NonFiniteAmplitude { amplitude } => {
                write!(f, "constituent amplitude must be finite, got {amplitude}")
            }
            ForcingError::InvalidPeriod { period } => {
                write!(
                    f,
                    "constituent period must be finite and > 0 s, got {period}"
                )
            }
            ForcingError::NonFinitePhase { phase } => {
                write!(f, "constituent phase must be finite, got {phase}")
            }
            ForcingError::NonFiniteParameter { name, value } => {
                write!(f, "forcing {name} must be finite, got {value}")
            }
        }
    }
}

impl std::error::Error for ForcingError {}

/// One tidal constituent.
#[derive(Clone, Copy, Debug)]
pub struct Constituent {
    /// Amplitude (m).
    pub amplitude: f64,
    /// Period (s).
    pub period: f64,
    /// Phase at t = 0 (rad).
    pub phase: f64,
}

impl Constituent {
    /// Constituent from literal parameters.
    ///
    /// # Panics
    /// On non-finite amplitude/phase or non-positive period — use
    /// [`Constituent::try_new`] for computed inputs.
    pub fn new(amplitude: f64, period_hours: f64, phase: f64) -> Self {
        Self::try_new(amplitude, period_hours, phase).expect("invalid tidal constituent")
    }

    /// Fallible constructor: rejects non-finite amplitude/phase and
    /// non-positive or non-finite period with a typed [`ForcingError`]
    /// instead of letting NaN elevations propagate into the solver.
    pub fn try_new(amplitude: f64, period_hours: f64, phase: f64) -> Result<Self, ForcingError> {
        if !amplitude.is_finite() {
            return Err(ForcingError::NonFiniteAmplitude { amplitude });
        }
        let period = period_hours * 3600.0;
        if !period.is_finite() || period <= 0.0 {
            return Err(ForcingError::InvalidPeriod { period });
        }
        if !phase.is_finite() {
            return Err(ForcingError::NonFinitePhase { phase });
        }
        Ok(Self {
            amplitude,
            period,
            phase,
        })
    }

    /// Re-check an existing constituent (e.g. after field surgery).
    pub fn validate(&self) -> Result<(), ForcingError> {
        if !self.amplitude.is_finite() {
            return Err(ForcingError::NonFiniteAmplitude {
                amplitude: self.amplitude,
            });
        }
        if !self.period.is_finite() || self.period <= 0.0 {
            return Err(ForcingError::InvalidPeriod {
                period: self.period,
            });
        }
        if !self.phase.is_finite() {
            return Err(ForcingError::NonFinitePhase { phase: self.phase });
        }
        Ok(())
    }

    /// Angular frequency (rad/s).
    #[inline]
    pub fn omega(&self) -> f64 {
        std::f64::consts::TAU / self.period
    }
}

/// Boundary forcing: tidal constituents + low-frequency anomaly.
#[derive(Clone, Debug)]
pub struct TidalForcing {
    pub constituents: Vec<Constituent>,
    /// Alongshore phase lag (rad per meter of boundary) — the tide arrives
    /// slightly later to the north, like a wave propagating along the coast.
    pub alongshore_lag: f64,
    /// Low-frequency anomaly components `(amplitude m, period s, phase)`.
    pub anomaly: Vec<Constituent>,
    /// Time origin offset (s) — shifts the astronomical alignment, used to
    /// generate distinct "years".
    pub t_origin: f64,
}

impl TidalForcing {
    /// Gulf-coast mixed tide defaults.
    pub fn gulf_default() -> Self {
        Self {
            constituents: vec![
                Constituent::new(0.35, 12.42, 0.0), // M2
                Constituent::new(0.12, 12.00, 0.8), // S2
                Constituent::new(0.16, 23.93, 1.9), // K1
                Constituent::new(0.12, 25.82, 4.1), // O1
            ],
            alongshore_lag: 2.0e-6,
            anomaly: Vec::new(),
            t_origin: 0.0,
        }
    }

    /// Defaults plus a deterministic weather anomaly for `year` (year 0 =
    /// training epoch, 1 = test epoch, …).
    pub fn for_year(year: u32) -> Self {
        let mut f = Self::gulf_default();
        f.t_origin = year as f64 * 365.25 * 86_400.0;
        // Three slow oscillations whose periods/phases depend on the year
        // through a small deterministic hash.
        let mix = |k: u32| {
            let x = (year.wrapping_mul(2654435761).wrapping_add(k * 40503)) as f64;
            (x * 1e-4).sin().abs()
        };
        for k in 0..3u32 {
            let period_days = 2.5 + 6.0 * mix(k);
            let amp = 0.04 + 0.06 * mix(k + 7);
            let phase = std::f64::consts::TAU * mix(k + 13);
            f.anomaly
                .push(Constituent::new(amp, period_days * 24.0, phase));
        }
        f
    }

    /// Single-constituent forcing (analytic tests).
    pub fn single(amplitude: f64, period_hours: f64) -> Self {
        Self {
            constituents: vec![Constituent::new(amplitude, period_hours, 0.0)],
            alongshore_lag: 0.0,
            anomaly: Vec::new(),
            t_origin: 0.0,
        }
    }

    /// No forcing at all (free oscillation tests).
    pub fn none() -> Self {
        Self {
            constituents: Vec::new(),
            alongshore_lag: 0.0,
            anomaly: Vec::new(),
            t_origin: 0.0,
        }
    }

    /// Validate every constituent (astronomical + anomaly) and the lag /
    /// origin fields. Generated forcings (ensemble perturbations, sweeps)
    /// should be validated before they reach the solver.
    pub fn validate(&self) -> Result<(), ForcingError> {
        for c in self.constituents.iter().chain(&self.anomaly) {
            c.validate()?;
        }
        if !self.alongshore_lag.is_finite() {
            return Err(ForcingError::NonFiniteParameter {
                name: "alongshore_lag",
                value: self.alongshore_lag,
            });
        }
        if !self.t_origin.is_finite() {
            return Err(ForcingError::NonFiniteParameter {
                name: "t_origin",
                value: self.t_origin,
            });
        }
        Ok(())
    }

    /// Prescribed elevation (m) at boundary position `y` (m along the
    /// boundary) and model time `t` (s).
    pub fn elevation(&self, y: f64, t: f64) -> f64 {
        let tt = t + self.t_origin;
        let mut z = 0.0;
        for c in &self.constituents {
            let omega = std::f64::consts::TAU / c.period;
            z += c.amplitude * (omega * tt - c.phase - self.alongshore_lag * y).cos();
        }
        for c in &self.anomaly {
            let omega = std::f64::consts::TAU / c.period;
            z += c.amplitude * (omega * tt - c.phase).cos();
        }
        z
    }

    /// Largest possible |elevation| (sum of amplitudes).
    pub fn max_elevation(&self) -> f64 {
        self.constituents
            .iter()
            .chain(&self.anomaly)
            .map(|c| c.amplitude)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elevation_bounded_by_amplitude_sum() {
        let f = TidalForcing::for_year(0);
        let bound = f.max_elevation();
        for k in 0..500 {
            let t = k as f64 * 977.0;
            let z = f.elevation(1234.0, t);
            assert!(z.abs() <= bound + 1e-12, "t={t}: {z} vs {bound}");
        }
    }

    #[test]
    fn single_constituent_is_cosine() {
        let f = TidalForcing::single(0.5, 12.0);
        let period = 12.0 * 3600.0;
        assert!((f.elevation(0.0, 0.0) - 0.5).abs() < 1e-12);
        assert!((f.elevation(0.0, period / 2.0) + 0.5).abs() < 1e-9);
        assert!((f.elevation(0.0, period) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn alongshore_lag_shifts_phase() {
        let mut f = TidalForcing::single(1.0, 12.0);
        f.alongshore_lag = 1e-5;
        let z0 = f.elevation(0.0, 0.0);
        let z1 = f.elevation(50_000.0, 0.0);
        assert!((z0 - z1).abs() > 0.05, "lag should shift the wave");
    }

    #[test]
    fn years_differ_but_are_deterministic() {
        let y0a = TidalForcing::for_year(0);
        let y0b = TidalForcing::for_year(0);
        let y1 = TidalForcing::for_year(1);
        let probe = |f: &TidalForcing| {
            (0..50)
                .map(|k| f.elevation(0.0, k as f64 * 3571.0))
                .sum::<f64>()
        };
        assert_eq!(probe(&y0a), probe(&y0b));
        assert!((probe(&y0a) - probe(&y1)).abs() > 1e-6);
    }

    #[test]
    fn none_is_flat() {
        let f = TidalForcing::none();
        assert_eq!(f.elevation(10.0, 99999.0), 0.0);
    }

    #[test]
    fn try_new_rejects_non_finite_amplitude_and_bad_period() {
        assert!(matches!(
            Constituent::try_new(f64::NAN, 12.0, 0.0),
            Err(ForcingError::NonFiniteAmplitude { .. })
        ));
        assert!(matches!(
            Constituent::try_new(f64::INFINITY, 12.0, 0.0),
            Err(ForcingError::NonFiniteAmplitude { .. })
        ));
        assert!(matches!(
            Constituent::try_new(0.3, 0.0, 0.0),
            Err(ForcingError::InvalidPeriod { .. })
        ));
        assert!(matches!(
            Constituent::try_new(0.3, -12.0, 0.0),
            Err(ForcingError::InvalidPeriod { .. })
        ));
        assert!(matches!(
            Constituent::try_new(0.3, f64::NAN, 0.0),
            Err(ForcingError::InvalidPeriod { .. })
        ));
        assert!(matches!(
            Constituent::try_new(0.3, 12.0, f64::NAN),
            Err(ForcingError::NonFinitePhase { .. })
        ));
        let ok = Constituent::try_new(0.3, 12.0, 1.0).unwrap();
        assert_eq!(ok.period, 12.0 * 3600.0);
    }

    #[test]
    #[should_panic(expected = "invalid tidal constituent")]
    fn new_panics_on_invalid_input() {
        let _ = Constituent::new(0.3, -1.0, 0.0);
    }

    #[test]
    fn forcing_validate_catches_polluted_members() {
        let mut f = TidalForcing::for_year(0);
        assert!(f.validate().is_ok());
        f.anomaly.push(Constituent {
            amplitude: f64::NAN,
            period: 3600.0,
            phase: 0.0,
        });
        assert!(matches!(
            f.validate(),
            Err(ForcingError::NonFiniteAmplitude { .. })
        ));
        let mut g = TidalForcing::gulf_default();
        g.constituents[0].period = 0.0;
        assert!(matches!(
            g.validate(),
            Err(ForcingError::InvalidPeriod { .. })
        ));
        let mut h = TidalForcing::gulf_default();
        h.alongshore_lag = f64::NAN;
        match h.validate() {
            Err(ForcingError::NonFiniteParameter { name, .. }) => {
                assert_eq!(name, "alongshore_lag")
            }
            other => panic!("expected NonFiniteParameter, got {other:?}"),
        }
    }
}
