//! The drift governor: turns `cobs::drift` escalation events into
//! serving-precision decisions.
//!
//! The precision ladder orders serving tiers from fastest to most
//! conservative (typically `[Int8, F16, F32]`). A healthy deployment
//! serves at rung 0. Each drift **escalation** (consecutive windows of
//! degraded physics pass-rate or ζ drift — see
//! [`cobs::drift::DriftMonitor`]) steps one rung toward full precision;
//! escalating past the last rung forces **ROMS-fallback routing** — the
//! surrogate is no longer trusted at any precision and requests should go
//! to the physics model, exactly the per-episode fallback the paper's
//! verification stage prescribes, promoted to a fleet-wide decision.
//! Drift **recovery** events step back one rung at a time.
//!
//! On every escalation the governor freezes the global flight recorder
//! (preserving the traces that crossed the incident) so the `/debug/traces`
//! dump is an artifact of the drift event, not of whatever traffic came
//! after it.
//!
//! The governor is advisory about *where* the route applies: serving
//! replicas pin their precision at spawn, so acting on a route change
//! means redeploying the pool (cheap — see `ForecastServer::new`) or
//! steering requests to ROMS. What the governor owns is the decision and
//! its visibility: `/healthz` surfaces the route, the alert level, and
//! the last event.

use std::sync::Mutex;

use cobs::drift::{DriftBaseline, DriftConfig, DriftEvent, DriftMonitor};
use cobs::slo::AlertState;
use ctensor::quant::Precision;

use crate::lock;

/// Where requests should go right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeRoute {
    /// Serve with the surrogate at this precision.
    Surrogate(Precision),
    /// The surrogate is out of its calibration envelope at every rung:
    /// route to the physics model.
    RomsFallback,
}

impl ServeRoute {
    pub fn as_str(self) -> &'static str {
        match self {
            ServeRoute::Surrogate(p) => p.as_str(),
            ServeRoute::RomsFallback => "roms_fallback",
        }
    }
}

/// What an observation changed, when it changed anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GovernorAction {
    /// Escalated one rung down the ladder (toward full precision).
    SteppedDown { from: ServeRoute, to: ServeRoute },
    /// Recovered one rung up the ladder (toward the fast tier).
    SteppedUp { from: ServeRoute, to: ServeRoute },
}

struct GovInner {
    monitor: DriftMonitor,
    /// Rung index into the ladder; `ladder.len()` means ROMS fallback.
    level: usize,
    last_event: Option<String>,
}

/// Fleet-level physics-drift watchdog with a precision ladder.
pub struct DriftGovernor {
    ladder: Vec<Precision>,
    inner: Mutex<GovInner>,
}

impl DriftGovernor {
    /// `ladder` orders serving tiers fastest-first; it must be non-empty.
    pub fn new(baseline: DriftBaseline, cfg: DriftConfig, ladder: Vec<Precision>) -> Self {
        assert!(!ladder.is_empty(), "precision ladder must be non-empty");
        cobs::global().describe(
            "drift.level",
            "precision-ladder rung forced by drift (ladder length = ROMS fallback)",
        );
        cobs::gauge!("drift.level").set(0.0);
        cobs::gauge!("drift.roms_fallback").set(0.0);
        Self {
            ladder,
            inner: Mutex::new(GovInner {
                monitor: DriftMonitor::new(baseline, cfg),
                level: 0,
                last_event: None,
            }),
        }
    }

    /// The standard ladder for a quantized deployment: int8 → f16 → f32.
    pub fn standard(baseline: DriftBaseline) -> Self {
        Self::new(
            baseline,
            DriftConfig::default(),
            vec![Precision::Int8, Precision::F16, Precision::F32],
        )
    }

    fn route_at(&self, level: usize) -> ServeRoute {
        match self.ladder.get(level) {
            Some(&p) => ServeRoute::Surrogate(p),
            None => ServeRoute::RomsFallback,
        }
    }

    /// Feed one ensemble member's verification outcome and ζ summary.
    /// Returns the ladder move when this observation caused one.
    pub fn observe_member(
        &self,
        passed: bool,
        zeta_mean: f64,
        zeta_extreme: f64,
    ) -> Option<GovernorAction> {
        let mut inner = lock(&self.inner);
        let event = inner.monitor.observe(passed, zeta_mean, zeta_extreme)?;
        let from = self.route_at(inner.level);
        let action = match event {
            DriftEvent::Escalate(stats) => {
                if inner.level >= self.ladder.len() {
                    // Already at ROMS fallback: nothing left to step down.
                    inner.last_event = Some(format!(
                        "escalation at roms_fallback: {}",
                        stats.breaches.join("; ")
                    ));
                    None
                } else {
                    inner.level += 1;
                    let to = self.route_at(inner.level);
                    let reason = format!(
                        "drift escalation: {} -> {} ({})",
                        from.as_str(),
                        to.as_str(),
                        stats.breaches.join("; ")
                    );
                    // Preserve the traffic that crossed the incident.
                    cobs::recorder::global().freeze(&reason);
                    cobs::counter!("drift.escalations").inc();
                    inner.last_event = Some(reason);
                    Some(GovernorAction::SteppedDown { from, to })
                }
            }
            DriftEvent::Recover(_) => {
                if inner.level == 0 {
                    None
                } else {
                    inner.level -= 1;
                    let to = self.route_at(inner.level);
                    cobs::counter!("drift.recoveries").inc();
                    inner.last_event = Some(format!(
                        "drift recovery: {} -> {}",
                        from.as_str(),
                        to.as_str()
                    ));
                    Some(GovernorAction::SteppedUp { from, to })
                }
            }
        };
        cobs::gauge!("drift.level").set(inner.level as f64);
        cobs::gauge!("drift.roms_fallback").set((inner.level >= self.ladder.len()) as u8 as f64);
        action
    }

    /// Current routing decision.
    pub fn route(&self) -> ServeRoute {
        self.route_at(lock(&self.inner).level)
    }

    /// Current ladder rung (`ladder.len()` = ROMS fallback).
    pub fn level(&self) -> usize {
        lock(&self.inner).level
    }

    /// Alert severity implied by the route: warning while degraded on
    /// the ladder, page once routing fell back to ROMS. Merged into
    /// `/healthz` alongside the SLO burn-rate alerts.
    pub fn alert_state(&self) -> AlertState {
        let level = lock(&self.inner).level;
        if level >= self.ladder.len() {
            AlertState::Page
        } else if level > 0 {
            AlertState::Warning
        } else {
            AlertState::Ok
        }
    }

    /// `/healthz` fragment describing the governor.
    pub fn status_json(&self) -> String {
        let inner = lock(&self.inner);
        let ladder: Vec<String> = self
            .ladder
            .iter()
            .map(|p| format!("\"{}\"", p.as_str()))
            .collect();
        let last = match &inner.last_event {
            Some(e) => format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "\\\"")),
            None => "null".into(),
        };
        format!(
            "{{\"route\": \"{}\", \"level\": {}, \"ladder\": [{}], \
             \"alert\": \"{}\", \"windows_evaluated\": {}, \"last_event\": {last}}}",
            self.route_at(inner.level).as_str(),
            inner.level,
            ladder.join(", "),
            if inner.level >= self.ladder.len() {
                "page"
            } else if inner.level > 0 {
                "warning"
            } else {
                "ok"
            },
            inner.monitor.windows_evaluated(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor() -> DriftGovernor {
        let baseline = DriftBaseline {
            pass_rate: 1.0,
            zeta_mean: 0.10,
            zeta_extreme: 0.80,
        };
        let cfg = DriftConfig {
            window: 4,
            trip_windows: 2,
            recover_windows: 2,
            ..DriftConfig::default()
        };
        DriftGovernor::new(
            baseline,
            cfg,
            vec![Precision::Int8, Precision::F16, Precision::F32],
        )
    }

    /// One escalation = trip_windows × window failing members.
    fn fail_until_step(g: &DriftGovernor) -> GovernorAction {
        for _ in 0..8 {
            if let Some(a) = g.observe_member(false, 0.10, 0.80) {
                return a;
            }
        }
        panic!("8 failing members must trip the governor");
    }

    // One test, not two: the governor freezes the process-global flight
    // recorder on escalation, so splitting ladder-walk and recovery into
    // parallel #[test]s would race on that shared state.
    #[test]
    fn walks_the_ladder_then_falls_back_then_recovers() {
        let _serial = crate::lock(&crate::GLOBAL_RECORDER);
        let g = governor();
        assert_eq!(g.route(), ServeRoute::Surrogate(Precision::Int8));
        assert_eq!(g.alert_state(), AlertState::Ok);

        assert_eq!(
            fail_until_step(&g),
            GovernorAction::SteppedDown {
                from: ServeRoute::Surrogate(Precision::Int8),
                to: ServeRoute::Surrogate(Precision::F16),
            }
        );
        assert_eq!(g.alert_state(), AlertState::Warning);
        fail_until_step(&g);
        assert_eq!(g.route(), ServeRoute::Surrogate(Precision::F32));
        assert_eq!(
            fail_until_step(&g),
            GovernorAction::SteppedDown {
                from: ServeRoute::Surrogate(Precision::F32),
                to: ServeRoute::RomsFallback,
            }
        );
        assert_eq!(g.alert_state(), AlertState::Page);
        assert!(g.status_json().contains("\"route\": \"roms_fallback\""));
        // The escalation froze the flight recorder for the incident dump.
        assert!(cobs::recorder::global().is_frozen());
        cobs::recorder::global().thaw();

        // Healthy members now walk it back up, one rung per recovery.
        let mut ups = 0;
        for _ in 0..64 {
            if let Some(a) = g.observe_member(true, 0.10, 0.80) {
                assert!(matches!(a, GovernorAction::SteppedUp { .. }), "{a:?}");
                ups += 1;
            }
            if g.level() == 0 {
                break;
            }
        }
        assert_eq!(ups, 3, "roms_fallback -> f32 -> f16 -> int8");
        assert_eq!(g.route(), ServeRoute::Surrogate(Precision::Int8));
        assert_eq!(g.alert_state(), AlertState::Ok);
    }
}
