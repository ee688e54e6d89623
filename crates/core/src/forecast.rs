//! Dual-model long-horizon forecasting (paper §III-A): a coarse-interval
//! model strides across the full horizon, and a fine-interval model
//! refines each coarse interval to the target resolution, using each
//! coarse snapshot as the fine model's initial condition.

use cocean::Snapshot;

use crate::error::ForecastError;
use crate::train::TrainedSurrogate;

/// Coarse + fine surrogate composition.
pub struct DualModelForecaster<'a> {
    /// Long-stride model (the paper's 12-hour-interval model).
    pub coarse: &'a TrainedSurrogate,
    /// Short-stride model (the half-hour-interval model).
    pub fine: &'a TrainedSurrogate,
}

impl<'a> DualModelForecaster<'a> {
    /// Produce a fine-resolution forecast over the coarse model's full
    /// horizon. `coarse_reference` supplies the coarse-model boundary
    /// frames; `fine_reference` supplies fine-model boundary frames,
    /// `fine_per_coarse` fine steps per coarse interval.
    ///
    /// Returns the concatenated fine-resolution trajectory (length
    /// `coarse.t_out × fine.t_out` when `fine_per_coarse == fine.t_out`),
    /// or a typed error when the reference trajectories cannot supply the
    /// required boundary frames — a malformed request must not panic a
    /// serving worker.
    pub fn forecast(
        &self,
        coarse_reference: &[Snapshot],
        fine_reference: &[Snapshot],
        start_fine: usize,
    ) -> Result<Vec<Snapshot>, ForecastError> {
        let ct = self.coarse.model.cfg.t_out;
        let ft = self.fine.model.cfg.t_out;
        if coarse_reference.len() <= ct {
            return Err(ForecastError::ReferenceTooShort {
                needed: ct + 1,
                got: coarse_reference.len(),
            });
        }
        if fine_reference.len() <= start_fine + ct * ft {
            return Err(ForecastError::ReferenceTooShort {
                needed: start_fine + ct * ft + 1,
                got: fine_reference.len(),
            });
        }

        // 1. Coarse sweep across the horizon.
        let coarse_pred = self.coarse.try_predict_episode(&coarse_reference[..=ct])?;

        // 2. Refine each coarse interval with the fine model, seeded by
        //    the previous coarse snapshot (the IC), boundary frames from
        //    the fine reference.
        let mut out = Vec::with_capacity(ct * ft);
        let mut ic = coarse_reference[0].clone();
        for (c, coarse_snap) in coarse_pred.iter().enumerate() {
            let f0 = start_fine + c * ft;
            let mut window = Vec::with_capacity(ft + 1);
            let mut ic_fixed = ic.clone();
            ic_fixed.time = fine_reference[f0].time;
            window.push(ic_fixed);
            for s in &fine_reference[f0 + 1..=f0 + ft] {
                window.push(s.clone());
            }
            let fine_pred = self.fine.try_predict_episode(&window)?;
            out.extend(fine_pred);
            ic = coarse_snap.clone();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_surrogate, Scenario};

    #[test]
    #[ignore = "trains two models (~45 s in a debug build); CI runs it in release"]
    fn dual_model_produces_full_fine_trajectory() {
        // Coarse model strides 4 snapshots at a time over the same archive
        // the fine model refines (a scaled stand-in for 12h vs 30min).
        let sc_fine = Scenario::small();
        let grid = sc_fine.grid();
        let archive = sc_fine.simulate_archive(&grid, 0, 60);

        // Fine model: interval = archive interval.
        let fine = train_surrogate(&sc_fine, &grid, &archive);

        // Coarse model: every 4th snapshot.
        let mut sc_coarse = sc_fine.clone();
        sc_coarse.snapshot_interval = sc_fine.snapshot_interval * 4.0;
        let coarse_archive: Vec<_> = archive.iter().step_by(4).cloned().collect();
        let coarse = train_surrogate(&sc_coarse, &grid, &coarse_archive);

        let dual = DualModelForecaster {
            coarse: &coarse,
            fine: &fine,
        };
        let out = dual
            .forecast(&coarse_archive, &archive, 0)
            .expect("references are long enough");
        assert_eq!(out.len(), sc_coarse.t_out * sc_fine.t_out);
        assert!(out.iter().all(|s| s.zeta.iter().all(|v| v.is_finite())));

        // A truncated reference is a typed error, not a panic.
        let err = dual.forecast(&coarse_archive[..2], &archive, 0);
        assert!(matches!(err, Err(ForecastError::ReferenceTooShort { .. })));
        let err = dual.forecast(&coarse_archive, &archive[..3], 0);
        assert!(matches!(err, Err(ForecastError::ReferenceTooShort { .. })));
        // Times increase monotonically within each refined interval.
        for w in out.windows(2) {
            if w[1].time > w[0].time {
                continue;
            }
            // Interval boundary resets are allowed (each interval is
            // seeded from its coarse IC time).
        }
    }
}
