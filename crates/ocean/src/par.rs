//! Halo exchange between the tiles of [`Roms`](crate::model::Roms) — the
//! MPI part of the "Traditional MPI ROMS" baseline of the paper's Table I,
//! on threads.
//!
//! Each rank owns one tile ([`TileDomain`]), exchanges ζ/ūbar/v̄bar halos
//! every fast step, and computes tile-edge-shared faces redundantly from
//! the exchanged halos, which keeps a run on `p` tiles **bit-identical** to
//! the one-tile run (asserted by tests). A lone tile has no neighbours, so
//! its exchanges send nothing.

use chpc::halo::{recv_halo, send_halo};
use chpc::{Comm, Decomp, Side};

use crate::domain::TileDomain;
use crate::state::State;

/// Tag bases per exchanged field (direction tags 0..4 are added).
const TAG_ZETA: u64 = 10;
const TAG_UBAR: u64 = 20;
const TAG_VBAR: u64 = 30;

/// Exchange ζ, ubar, vbar halos with all neighbors.
pub(crate) fn exchange_state_halos(
    comm: &Comm,
    decomp: &Decomp,
    dom: &TileDomain,
    state: &mut State,
) {
    let (ny, nx) = (dom.ny as isize, dom.nx as isize);

    // ζ: interior edge cells -> neighbor halo ring.
    let zeta = &mut state.zeta;
    send_halo(comm, decomp, TAG_ZETA, |side| match side {
        Side::West => zeta.col_strip(0, 0, ny),
        Side::East => zeta.col_strip(nx - 1, 0, ny),
        Side::South => zeta.row_strip(0, 0, nx),
        Side::North => zeta.row_strip(ny - 1, 0, nx),
    });
    recv_halo(comm, decomp, TAG_ZETA, |side, s| match side {
        Side::West => zeta.set_col_strip(-1, 0, &s),
        Side::East => zeta.set_col_strip(nx, 0, &s),
        Side::South => zeta.set_row_strip(-1, 0, &s),
        Side::North => zeta.set_row_strip(ny, 0, &s),
    });

    // ubar on (ny, nx+1) faces: shared edge faces are computed on both
    // sides; halos carry the next interior face column / full face rows.
    let ubar = &mut state.ubar;
    send_halo(comm, decomp, TAG_UBAR, |side| match side {
        Side::West => ubar.col_strip(1, 0, ny),
        Side::East => ubar.col_strip(nx - 1, 0, ny),
        Side::South => ubar.row_strip(0, 0, nx + 1),
        Side::North => ubar.row_strip(ny - 1, 0, nx + 1),
    });
    recv_halo(comm, decomp, TAG_UBAR, |side, s| match side {
        Side::West => ubar.set_col_strip(-1, 0, &s),
        Side::East => ubar.set_col_strip(nx + 1, 0, &s),
        Side::South => ubar.set_row_strip(-1, 0, &s),
        Side::North => ubar.set_row_strip(ny, 0, &s),
    });

    // vbar on (ny+1, nx) faces.
    let vbar = &mut state.vbar;
    send_halo(comm, decomp, TAG_VBAR, |side| match side {
        Side::West => vbar.col_strip(0, 0, ny + 1),
        Side::East => vbar.col_strip(nx - 1, 0, ny + 1),
        Side::South => vbar.row_strip(1, 0, nx),
        Side::North => vbar.row_strip(ny - 1, 0, nx),
    });
    recv_halo(comm, decomp, TAG_VBAR, |side, s| match side {
        Side::West => vbar.set_col_strip(-1, 0, &s),
        Side::East => vbar.set_col_strip(nx, 0, &s),
        Side::South => vbar.set_row_strip(-1, 0, &s),
        Side::North => vbar.set_row_strip(ny + 1, 0, &s),
    });
}

#[cfg(test)]
mod tests {
    use crate::baroclinic::step_baroclinic;
    use crate::barotropic::{apply_boundary_halos, step_fast};
    use crate::domain::TileDomain;
    use crate::forcing::TidalForcing;
    use crate::model::{OceanConfig, Roms};
    use crate::snapshot::take_snapshot;
    use crate::state::State;
    use cgrid::{EstuaryParams, Grid, GridParams};

    fn grid() -> Grid {
        Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 24,
                nx: 20,
                ..Default::default()
            },
            nz: 3,
            ..Default::default()
        })
    }

    fn cfg(grid: &Grid) -> OceanConfig {
        let mut c = OceanConfig::for_grid(grid);
        c.forcing = TidalForcing::single(0.3, 12.0);
        c.ndtfast = 10;
        c
    }

    #[test]
    fn tiled_matches_serial_bitwise() {
        let g = grid();
        let c = cfg(&g);
        let interval = c.dt_slow() * 3.0;

        let mut serial = Roms::new(&g, c.clone());
        let serial_snaps = serial.record(2, interval);

        for p in [2usize, 4] {
            let tiled = Roms::tiled(&g, c.clone(), p).record(2, interval);
            assert_eq!(tiled.len(), 2);
            for (a, b) in serial_snaps.iter().zip(&tiled) {
                assert_eq!(a.time, b.time);
                assert_eq!(a.zeta, b.zeta, "ζ must be bit-identical at p={p}");
                assert_eq!(a.u, b.u, "u must be bit-identical at p={p}");
                assert_eq!(a.v, b.v, "v must be bit-identical at p={p}");
                assert_eq!(a.w, b.w, "w must be bit-identical at p={p}");
            }
        }
    }

    /// The fallback's path: `load` a mid-run snapshot, then `record`.
    #[test]
    fn tiled_from_loaded_snapshot_matches_serial_bitwise() {
        let g = grid();
        let c = cfg(&g);
        let interval = c.dt_slow() * 2.0;
        let mut spun = Roms::new(&g, c.clone());
        spun.run_seconds(3.0 * 3600.0);
        let start = spun.snapshot();

        let mut serial = Roms::new(&g, c.clone());
        serial.load(&start);
        let loaded = serial.snapshot();
        let reference = serial.record(3, interval);
        let reference_end = serial.snapshot();

        for p in [1usize, 2, 4] {
            let mut tiled = Roms::tiled(&g, c.clone(), p);
            tiled.load(&start);
            assert_eq!(tiled.snapshot(), loaded, "load → snapshot at p={p}");
            let snaps = tiled.record(3, interval);
            assert_eq!(snaps, reference, "record from a loaded state at p={p}");
            assert_eq!(tiled.snapshot(), reference_end, "snapshot at p={p}");
        }
    }

    #[test]
    fn comm_volume_grows_with_ranks() {
        let g = grid();
        let c = cfg(&g);
        let interval = c.dt_slow();
        let sent = |p: usize| -> usize {
            let mut roms = Roms::tiled(&g, c.clone(), p);
            roms.record(1, interval);
            roms.comm_stats().iter().map(|s| s.doubles_sent).sum()
        };
        let (total1, total2, total4) = (sent(1), sent(2), sent(4));
        assert_eq!(total1, 0, "a lone tile has no neighbours");
        assert!(
            total4 > total2,
            "more tiles → more halo traffic ({total2} vs {total4})"
        );
    }

    /// The one-tile driver equals the bare kernel sequence on the whole
    /// domain: its halo exchanges are no-ops.
    #[test]
    fn single_rank_tiled_equals_serial() {
        let g = grid();
        let c = cfg(&g);
        let dom = TileDomain::whole(&g);
        let mut state = State::rest(&dom);
        for _ in 0..2 {
            for _ in 0..c.ndtfast {
                apply_boundary_halos(&dom, &mut state, &c.forcing);
                step_fast(&dom, &mut state, &c.phys, &c.forcing);
            }
            step_baroclinic(&dom, &mut state, &c.phys, c.dt_slow());
        }
        let t = Roms::tiled(&g, c.clone(), 1).record(1, c.dt_slow() * 2.0);
        assert_eq!(take_snapshot(&dom, &state), t[0]);
    }
}
