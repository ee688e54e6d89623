//! End-to-end ensemble engine tests: seeded determinism (bit-identical
//! members, windows and statistics), chunk/thread invariance of member
//! forecasts, hybrid fallback behavior, and quantile sanity properties.

use std::sync::OnceLock;

use ccore::{train_surrogate, Route, Scenario, SurrogateSpec, TrainedSurrogate};
use censemble::{
    rank_members, synthesize_windows, EnsembleRunner, EnsembleStats, PerturbationCatalog,
    PerturbationSpace, RunnerConfig, SamplingStrategy,
};
use cgrid::Grid;
use cocean::{Roms, Snapshot, TidalForcing};
use cphysics::VerifierConfig;
use proptest::prelude::*;

// Trained once, shared by every test (training dominates test wall time).
// Live models hold thread-local `Rc`s, so the shared state is the `Send`
// spec; each test instantiates its own local model from it.
struct Ctx {
    sc: Scenario,
    spec: SurrogateSpec,
    archive: Vec<Snapshot>,
}

static CTX: OnceLock<Ctx> = OnceLock::new();

fn setup() -> (Scenario, Grid, TrainedSurrogate, Vec<Snapshot>) {
    let ctx = CTX.get_or_init(|| {
        let mut sc = Scenario::small();
        sc.epochs = 2;
        let grid = sc.grid();
        let archive = sc.simulate_archive(&grid, 0, 40);
        let trained = train_surrogate(&sc, &grid, &archive);
        Ctx {
            spec: trained.spec(),
            sc,
            archive,
        }
    });
    (
        ctx.sc.clone(),
        ctx.sc.grid(),
        ctx.spec.instantiate(),
        ctx.archive.clone(),
    )
}

fn catalog(members: usize, seed: u64) -> PerturbationCatalog {
    PerturbationCatalog::new(
        PerturbationSpace::surge_study(),
        SamplingStrategy::LatinHypercube { members },
        seed,
    )
}

#[test]
fn seeded_ensemble_is_bit_identical_end_to_end() {
    let (sc, grid, trained, archive) = setup();
    let base = &archive[..sc.t_out + 1];

    let run = |seed: u64| {
        let members = catalog(8, seed).members();
        let windows = synthesize_windows(&sc, &grid, base, 0, &members).unwrap();
        let cfg = RunnerConfig {
            chunk: 4,
            verifier: Some(VerifierConfig { threshold: 1e9 }),
            threads: 1,
        };
        let outcome = EnsembleRunner::new(&grid, &trained, &sc, 0, cfg)
            .run(&windows)
            .unwrap();
        EnsembleStats::compute(&outcome, &EnsembleStats::DEFAULT_PROBS)
    };

    let a = run(42);
    let b = run(42);
    assert_eq!(a.peak_zeta.mean, b.peak_zeta.mean, "same seed ⇒ same stats");
    assert_eq!(a.peak_zeta.quantiles, b.peak_zeta.quantiles);
    assert_eq!(a.exceedance(0.2), b.exceedance(0.2));

    let c = run(43);
    assert_ne!(
        a.peak_zeta.mean, c.peak_zeta.mean,
        "different seed ⇒ different ensemble"
    );
}

#[test]
fn member_forecasts_are_chunk_and_thread_invariant() {
    let (sc, grid, trained, archive) = setup();
    let members = catalog(6, 7).members();
    let windows = synthesize_windows(&sc, &grid, &archive[..sc.t_out + 1], 0, &members).unwrap();
    let cfg = |chunk: usize| RunnerConfig {
        chunk,
        verifier: None,
        threads: 1,
    };

    let whole = EnsembleRunner::new(&grid, &trained, &sc, 0, cfg(16))
        .run(&windows)
        .unwrap();
    let chunked = EnsembleRunner::new(&grid, &trained, &sc, 0, cfg(2))
        .run(&windows)
        .unwrap();
    assert_eq!(whole.batches, 1);
    assert_eq!(chunked.batches, 3);
    for (a, b) in whole.members.iter().zip(&chunked.members) {
        assert_eq!(a.member_id, b.member_id);
        for (sa, sb) in a.forecast.iter().zip(&b.forecast) {
            assert_eq!(
                sa.zeta, sb.zeta,
                "chunking must not change a member's forecast"
            );
            assert_eq!(sa.u, sb.u);
        }
    }

    // Thread fan-out rebuilds the model from the spec on each worker —
    // still the same forecasts, in the same member order.
    let spec = trained.spec();
    let parallel = censemble::run_parallel(
        &spec,
        &grid,
        &sc,
        0,
        RunnerConfig {
            chunk: 2,
            verifier: None,
            threads: 2,
        },
        &windows,
    )
    .unwrap();
    assert_eq!(parallel.members.len(), whole.members.len());
    for (a, b) in whole.members.iter().zip(&parallel.members) {
        assert_eq!(a.member_id, b.member_id);
        for (sa, sb) in a.forecast.iter().zip(&b.forecast) {
            assert_eq!(
                sa.zeta, sb.zeta,
                "threading must not change a member's forecast"
            );
        }
    }
}

/// Every bit of a trajectory (times and fields).
fn bits(snaps: &[Snapshot]) -> Vec<u64> {
    let mut out = Vec::new();
    for s in snaps {
        out.push(s.time.to_bits());
        for f in [&s.zeta, &s.u, &s.v, &s.w] {
            out.extend(f.iter().map(|x| u64::from(x.to_bits())));
        }
    }
    out
}

#[test]
fn strict_verifier_forces_member_fallback() {
    let (sc, grid, trained, archive) = setup();
    let members = catalog(3, 1).members();
    let windows = synthesize_windows(&sc, &grid, &archive[..sc.t_out + 1], 0, &members).unwrap();

    let fallback_metric = cobs::counter!("ccore.episodes.fallback");
    let fallbacks_before = fallback_metric.get();
    let strict = EnsembleRunner::new(
        &grid,
        &trained,
        &sc,
        0,
        RunnerConfig {
            chunk: 8,
            verifier: Some(VerifierConfig { threshold: 1e-12 }),
            threads: 1,
        },
    )
    .run(&windows)
    .unwrap();
    assert_eq!(strict.fallback_members(), 3, "every member must fall back");
    assert!(
        fallback_metric.get() - fallbacks_before >= 3,
        "ROMS fallbacks must surface in the global metrics registry"
    );
    assert_eq!(strict.pass_rate(), 0.0);
    assert!(strict.fallback_seconds > 0.0);
    assert!(strict
        .members
        .iter()
        .all(|m| m.route == Route::Fallback && !m.verdicts.is_empty()));

    // Each fallback is the simulator from the member's IC under the
    // member's own forcing, and that forcing reaches it: a member with
    // rescaled tides differs from the same IC under the base forcing.
    let simulate = |ic: &Snapshot, forcing: &TidalForcing| {
        let mut ocean = sc.ocean_config(&grid, 0);
        ocean.forcing = forcing.clone();
        let mut roms = Roms::new(&grid, ocean);
        roms.load(ic);
        roms.record(sc.t_out, trained.snapshot_interval)
    };
    let base = sc.base_forcing(0);
    for (mw, m) in windows.iter().zip(&strict.members) {
        assert_eq!(
            bits(&m.forecast),
            bits(&simulate(&mw.window[0], &mw.forcing)),
            "member {} fallback must run under its own forcing",
            m.member_id
        );
    }
    let (mw, m) = windows
        .iter()
        .zip(&strict.members)
        .find(|(mw, _)| mw.perturbation.tidal_amp_scale != 1.0)
        .expect("a member with rescaled tides");
    assert_ne!(bits(&m.forecast), bits(&simulate(&mw.window[0], &base)));

    let loose = EnsembleRunner::new(
        &grid,
        &trained,
        &sc,
        0,
        RunnerConfig {
            chunk: 8,
            verifier: Some(VerifierConfig { threshold: 1e9 }),
            threads: 1,
        },
    )
    .run(&windows)
    .unwrap();
    assert_eq!(loose.fallback_members(), 0);
    assert_eq!(loose.pass_rate(), 1.0);
    assert_eq!(loose.fallback_seconds, 0.0);
}

#[test]
fn stats_products_are_consistent() {
    let (sc, grid, trained, archive) = setup();
    let members = catalog(8, 5).members();
    let base = &archive[..sc.t_out + 1];
    let windows = synthesize_windows(&sc, &grid, base, 0, &members).unwrap();
    let outcome = EnsembleRunner::new(
        &grid,
        &trained,
        &sc,
        0,
        RunnerConfig {
            chunk: 8,
            verifier: Some(VerifierConfig { threshold: 1e9 }),
            threads: 1,
        },
    )
    .run(&windows)
    .unwrap();
    let stats = EnsembleStats::compute(&outcome, &[0.1, 0.5, 0.9]);

    // Quantile monotonicity + mean within [min, max], per cell.
    let cells = grid.ny * grid.nx;
    for c in 0..cells {
        assert!(stats.peak_zeta.quantiles[0][c] <= stats.peak_zeta.quantiles[1][c]);
        assert!(stats.peak_zeta.quantiles[1][c] <= stats.peak_zeta.quantiles[2][c]);
        assert!(stats.peak_zeta.mean[c] >= stats.peak_zeta.min[c] - 1e-5);
        assert!(stats.peak_zeta.mean[c] <= stats.peak_zeta.max[c] + 1e-5);
    }

    // Exceedance probabilities are proper fractions, monotone in the
    // threshold, and 0 beyond the ensemble maximum.
    let lo = stats.exceedance(-10.0);
    let mid = stats.exceedance(0.1);
    let hi = stats.exceedance(1e9);
    for c in 0..cells {
        assert!((0.0..=1.0).contains(&mid[c]));
        assert!(lo[c] >= mid[c] && mid[c] >= hi[c]);
        assert_eq!(hi[c], 0.0);
    }

    // Surge members raise flood risk relative to the base run's envelope:
    // at least one wet cell must exceed a mid threshold in some member.
    assert!(mid.iter().any(|&p| p > 0.0));

    // Ranking orders by ζ RMSE against the truth.
    let reference = &archive[1..=sc.t_out];
    let ranks = rank_members(&grid, reference, &outcome);
    assert_eq!(ranks.len(), 8);
    for pair in ranks.windows(2) {
        assert!(pair[0].score <= pair[1].score);
    }
}

proptest! {
    #[test]
    fn field_summary_properties_hold(members in 2usize..9, cells in 1usize..40, scale in 0.01f32..10.0) {
        // Synthetic member fields with a deterministic irregular pattern.
        let fields: Vec<Vec<f32>> = (0..members)
            .map(|m| {
                (0..cells)
                    .map(|c| ((m * 37 + c * 101 + m * c * 13) % 29) as f32 * scale - 14.0 * scale)
                    .collect()
            })
            .collect();
        let s = censemble::FieldSummary::across_members(&fields, 1, cells, &[0.1, 0.5, 0.9]);
        for c in 0..cells {
            prop_assert!(s.quantiles[0][c] <= s.quantiles[1][c] + 1e-4 * scale);
            prop_assert!(s.quantiles[1][c] <= s.quantiles[2][c] + 1e-4 * scale);
            prop_assert!(s.min[c] <= s.max[c]);
            prop_assert!(s.mean[c] >= s.min[c] - 1e-3 * scale);
            prop_assert!(s.mean[c] <= s.max[c] + 1e-3 * scale);
            prop_assert!(s.std[c] >= 0.0);
            prop_assert!(s.std[c] <= (s.max[c] - s.min[c]) + 1e-3 * scale);
        }
    }
}
