//! The model driver: split-explicit time stepping and recording on the
//! tiles of one [`Decomp`].

use cgrid::Grid;
use chpc::{run_parallel, CommStats, Decomp};

use crate::baroclinic::step_baroclinic;
use crate::barotropic::{apply_boundary_halos, step_fast, PhysParams};
use crate::domain::TileDomain;
use crate::forcing::TidalForcing;
use crate::par::exchange_state_halos;
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

/// The split-explicit model on `p` tiles, one rank thread per tile (one
/// tile runs on the caller's thread). Any `p` gives bit-identical output.
pub struct Roms {
    /// Prognostic state of each tile, in rank order.
    pub state: Vec<State>,
    pub cfg: OceanConfig,
    decomp: Decomp,
    /// Grid data of each tile, in rank order.
    doms: Vec<TileDomain>,
    /// The whole domain, which [`Roms::load`] scatters from; `None` when
    /// it is the only tile.
    whole: Option<TileDomain>,
    /// Communication of each tile, summed over calls.
    stats: Vec<CommStats>,
}

impl Roms {
    /// The model on one tile covering the domain.
    pub fn new(grid: &Grid, cfg: OceanConfig) -> Self {
        Self::tiled(grid, cfg, 1)
    }

    /// The model on `p` tiles of [`Decomp::auto`], at rest.
    pub fn tiled(grid: &Grid, cfg: OceanConfig, p: usize) -> Self {
        let decomp = Decomp::auto(grid.ny, grid.nx, p);
        let doms: Vec<TileDomain> = (0..p)
            .map(|rank| TileDomain::from_grid(grid, decomp.tile(rank)))
            .collect();
        Self {
            state: doms.iter().map(State::rest).collect(),
            cfg,
            decomp,
            whole: (p > 1).then(|| TileDomain::whole(grid)),
            doms,
            stats: vec![CommStats::default(); p],
        }
    }

    /// Advance `n` times by `per` slow steps; when `record`, return the
    /// snapshot taken after each of the `n` blocks. The only time loop:
    /// each slow step is `ndtfast` barotropic steps then the baroclinic
    /// solve.
    fn advance(&mut self, n: usize, per: usize, record: bool) -> Vec<Snapshot> {
        let (cfg, decomp) = (&self.cfg, &self.decomp);
        let tiles: Vec<_> = self.doms.iter().zip(&mut self.state).collect();
        let ranks = run_parallel(tiles, |comm, (dom, state)| {
            let mut snaps = Vec::with_capacity(if record { n } else { 0 });
            for _ in 0..n {
                for _ in 0..per {
                    for _ in 0..cfg.ndtfast {
                        exchange_state_halos(comm, decomp, dom, state);
                        apply_boundary_halos(dom, state, &cfg.forcing);
                        step_fast(dom, state, &cfg.phys, &cfg.forcing);
                    }
                    // Refresh interior halos so both owners of a
                    // tile-shared face see the post-fast-loop ζ
                    // (physical-boundary halos stay as the fast loop left
                    // them: the baroclinic solve reads that stale ζ_ext).
                    exchange_state_halos(comm, decomp, dom, state);
                    step_baroclinic(dom, state, &cfg.phys, cfg.dt_slow());
                }
                if record {
                    snaps.push(take_snapshot(dom, state));
                }
            }
            (snaps, comm.stats())
        });
        let mut locals = Vec::with_capacity(ranks.len());
        for ((snaps, stats), total) in ranks.into_iter().zip(&mut self.stats) {
            *total += stats;
            locals.push(snaps);
        }
        self.assemble(locals)
    }

    /// Global snapshots from each tile's local ones (rank order).
    fn assemble(&self, mut locals: Vec<Vec<Snapshot>>) -> Vec<Snapshot> {
        if locals.len() == 1 {
            return locals.pop().expect("one tile");
        }
        let (ny, nx) = (self.decomp.ny, self.decomp.nx);
        let mut out: Vec<Snapshot> = locals[0]
            .iter()
            .map(|s| Snapshot::zeros(s.time, s.nz, ny, nx))
            .collect();
        for (dom, local) in self.doms.iter().zip(&locals) {
            for (global, tile) in out.iter_mut().zip(local) {
                global.place(tile, dom.tile);
            }
        }
        out
    }

    /// Advance by (at least) `seconds`, in whole slow steps.
    pub fn run_seconds(&mut self, seconds: f64) {
        let steps = (seconds / self.cfg.dt_slow()).ceil() as usize;
        self.advance(1, steps, false);
    }

    /// Spin up from rest so tidal co-oscillation is established.
    pub fn spinup(&mut self, seconds: f64) {
        self.run_seconds(seconds);
    }

    /// Current state as a cell-centered snapshot of the whole domain.
    pub fn snapshot(&self) -> Snapshot {
        let locals = self
            .doms
            .iter()
            .zip(&self.state)
            .map(|(dom, state)| vec![take_snapshot(dom, state)])
            .collect();
        self.assemble(locals).pop().expect("one snapshot")
    }

    /// Replace the model state from a cell-centered snapshot (hybrid
    /// workflow fallback entry point): rebuilt on the whole domain, then
    /// each tile takes its window.
    pub fn load(&mut self, snap: &Snapshot) {
        self.state = match &self.whole {
            None => vec![load_snapshot(&self.doms[0], snap)],
            Some(whole) => {
                let global = load_snapshot(whole, snap);
                self.doms.iter().map(|dom| global.crop(dom)).collect()
            }
        };
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
        self.advance(n, per, true)
    }

    /// Communication of each tile (rank order), summed over every call
    /// since construction. All zero on one tile.
    pub fn comm_stats(&self) -> &[CommStats] {
        &self.stats
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
        assert!(model.state[0].is_finite());
        assert!(model.state[0].max_zeta() > 0.02, "tide must penetrate");
        assert!(model.state[0].max_zeta() < 1.0);
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
        assert!((resumed.state[0].time - snap.time).abs() < 1e-9);
        resumed.run_seconds(3600.0);
        assert!(resumed.state[0].is_finite());
        assert!(resumed.state[0].max_zeta() < 1.0);
    }
}
