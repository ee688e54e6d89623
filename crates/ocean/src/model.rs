//! Serial model driver: split-explicit time stepping and recording.

use cgrid::Grid;

use crate::baroclinic::step_baroclinic;
use crate::barotropic::{apply_boundary_halos, step_fast, PhysParams};
use crate::domain::TileDomain;
use crate::forcing::TidalForcing;
use crate::snapshot::{load_snapshot, take_snapshot, Snapshot};
use crate::state::State;

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct OceanConfig {
    pub phys: PhysParams,
    /// Fast (barotropic) steps per slow (baroclinic) step.
    pub ndtfast: usize,
    pub forcing: TidalForcing,
}

impl Default for OceanConfig {
    fn default() -> Self {
        Self {
            phys: PhysParams::default(),
            ndtfast: 30,
            forcing: TidalForcing::gulf_default(),
        }
    }
}

impl OceanConfig {
    /// Configuration with a CFL-safe fast step for `grid`.
    pub fn for_grid(grid: &Grid) -> Self {
        let mut cfg = Self::default();
        cfg.phys.dt_fast = grid.barotropic_dt(0.6).min(cfg.phys.dt_fast);
        cfg
    }

    /// Slow (baroclinic) step length (s).
    pub fn dt_slow(&self) -> f64 {
        self.phys.dt_fast * self.ndtfast as f64
    }
}

/// The serial split-explicit model (single tile covering the domain).
pub struct Roms {
    pub dom: TileDomain,
    pub state: State,
    pub cfg: OceanConfig,
    /// Count of fast steps taken (diagnostics).
    pub fast_steps: u64,
}

impl Roms {
    pub fn new(grid: &Grid, cfg: OceanConfig) -> Self {
        let dom = TileDomain::whole(grid);
        let state = State::rest(&dom);
        Self {
            dom,
            state,
            cfg,
            fast_steps: 0,
        }
    }

    /// One slow step: `ndtfast` barotropic steps then the baroclinic solve.
    pub fn step_slow(&mut self) {
        for _ in 0..self.cfg.ndtfast {
            apply_boundary_halos(&self.dom, &mut self.state, &self.cfg.forcing);
            step_fast(
                &self.dom,
                &mut self.state,
                &self.cfg.phys,
                &self.cfg.forcing,
            );
            self.fast_steps += 1;
        }
        step_baroclinic(
            &self.dom,
            &mut self.state,
            &self.cfg.phys,
            self.cfg.dt_slow(),
        );
    }

    /// Advance by (at least) `seconds`, in whole slow steps.
    pub fn run_seconds(&mut self, seconds: f64) {
        let steps = (seconds / self.cfg.dt_slow()).ceil() as usize;
        for _ in 0..steps {
            self.step_slow();
        }
    }

    /// Spin up from rest so tidal co-oscillation is established.
    pub fn spinup(&mut self, seconds: f64) {
        self.run_seconds(seconds);
    }

    /// Current state as a cell-centered snapshot.
    pub fn snapshot(&self) -> Snapshot {
        take_snapshot(&self.dom, &self.state)
    }

    /// Replace the model state from a cell-centered snapshot (hybrid
    /// workflow fallback entry point).
    pub fn load(&mut self, snap: &Snapshot) {
        self.state = load_snapshot(&self.dom, snap);
    }

    /// Record `n` snapshots `interval` seconds apart (the first after one
    /// interval). `interval` must be a multiple of the slow step.
    pub fn record(&mut self, n: usize, interval: f64) -> Vec<Snapshot> {
        let per = (interval / self.cfg.dt_slow()).round() as usize;
        assert!(
            per >= 1 && (per as f64 * self.cfg.dt_slow() - interval).abs() < 1e-6,
            "interval {interval}s must be a multiple of the slow step {}s",
            self.cfg.dt_slow()
        );
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            for _ in 0..per {
                self.step_slow();
            }
            out.push(self.snapshot());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgrid::{EstuaryParams, GridParams};

    fn small_grid() -> Grid {
        Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 24,
                nx: 20,
                ..Default::default()
            },
            nz: 4,
            ..Default::default()
        })
    }

    #[test]
    fn runs_stable_for_a_tidal_day() {
        let grid = small_grid();
        let mut cfg = OceanConfig::for_grid(&grid);
        cfg.forcing = TidalForcing::single(0.3, 12.0);
        let mut model = Roms::new(&grid, cfg);
        model.run_seconds(24.0 * 3600.0);
        assert!(model.state.is_finite());
        assert!(model.state.max_zeta() > 0.02, "tide must penetrate");
        assert!(model.state.max_zeta() < 1.0);
    }

    #[test]
    fn record_produces_evenly_spaced_snapshots() {
        let grid = small_grid();
        let mut cfg = OceanConfig::for_grid(&grid);
        cfg.forcing = TidalForcing::single(0.3, 12.0);
        let dt_slow = cfg.dt_slow();
        let interval = dt_slow * 4.0;
        let mut model = Roms::new(&grid, cfg);
        let snaps = model.record(5, interval);
        assert_eq!(snaps.len(), 5);
        for w in snaps.windows(2) {
            assert!((w[1].time - w[0].time - interval).abs() < 1e-6);
        }
    }

    #[test]
    fn snapshots_vary_over_a_tide() {
        let grid = small_grid();
        let mut cfg = OceanConfig::for_grid(&grid);
        cfg.forcing = TidalForcing::single(0.3, 12.0);
        let mut model = Roms::new(&grid, cfg);
        model.spinup(6.0 * 3600.0);
        let dt_slow = model.cfg.dt_slow();
        let snaps = model.record(4, dt_slow * 10.0);
        let d = snaps[0].rms_diff(&snaps[3]);
        assert!(d[3] > 1e-3, "ζ must evolve over the tide: {d:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let grid = small_grid();
        let run = || {
            let mut cfg = OceanConfig::for_grid(&grid);
            cfg.forcing = TidalForcing::for_year(0);
            let mut m = Roms::new(&grid, cfg);
            m.run_seconds(3600.0);
            m.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a.zeta, b.zeta);
        assert_eq!(a.u, b.u);
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn load_then_continue_stays_stable() {
        let grid = small_grid();
        let mut cfg = OceanConfig::for_grid(&grid);
        cfg.forcing = TidalForcing::single(0.3, 12.0);
        let mut model = Roms::new(&grid, cfg.clone());
        model.spinup(4.0 * 3600.0);
        let snap = model.snapshot();

        let mut resumed = Roms::new(&grid, cfg);
        resumed.load(&snap);
        assert!((resumed.state.time - snap.time).abs() < 1e-9);
        resumed.run_seconds(3600.0);
        assert!(resumed.state.is_finite());
        assert!(resumed.state.max_zeta() < 1.0);
    }
}
