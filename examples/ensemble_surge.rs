//! Probabilistic storm-surge forecasting with the ensemble engine: a
//! seeded 16-member surge ensemble over one trained surrogate, producing
//! an exceedance-probability map (`P[peak ζ > threshold]`), per-member
//! physics verdicts, quantile envelopes and member skill ranking.
//!
//! Deterministic end to end: rerunning prints the identical map.
//!
//! Run with: `cargo run --release --example ensemble_surge`

use coastal::core::{train_surrogate, Route};
use coastal::ensemble::{
    rank_members, synthesize_windows, EnsembleRunner, EnsembleStats, PerturbationCatalog,
    PerturbationSpace, RunnerConfig, SamplingStrategy,
};
use coastal::physics::VerifierConfig;
use coastal::Scenario;

fn main() {
    // ------------------------------------------------------------- train
    let sc = Scenario::small();
    let grid = sc.grid();
    println!("simulating training archive + training surrogate…");
    let archive = sc.simulate_archive(&grid, 0, 40);
    let trained = train_surrogate(&sc, &grid, &archive);

    // --------------------------------------------------- define ensemble
    // A 16-member Latin-hypercube surge study: tidal amplitude/phase
    // uncertainty, weather-anomaly scaling, river stage, IC noise, and a
    // storm-surge pulse family (0.2–0.8 m, 3–9 h, variable landfall).
    let catalog = PerturbationCatalog::new(
        PerturbationSpace::surge_study(),
        SamplingStrategy::LatinHypercube { members: 16 },
        42,
    );
    let members = catalog.members();
    println!("\n{} members drawn (seed {}):", members.len(), catalog.seed);
    for m in members.iter().take(4) {
        println!("  {}", m.label());
    }
    println!("  …");

    // ------------------------------------------------- forecast ensemble
    // One simulated base episode (test-year forcing) is shared by every
    // member; member windows are synthesized analytically and forecast in
    // stacked predict_batch chunks, each verified against mass
    // conservation with ROMS fallback.
    let test = sc.simulate_archive(&grid, 1, sc.t_out + 1);
    let windows = synthesize_windows(&sc, &grid, &test, 1, &members).expect("valid perturbations");
    let outcome = EnsembleRunner::new(
        &grid,
        &trained,
        &sc,
        1,
        RunnerConfig {
            chunk: 8,
            verifier: Some(VerifierConfig::default()),
            threads: 1,
        },
    )
    .run(&windows)
    .expect("ensemble run");
    println!(
        "\nforecast {} members in {} stacked batch(es): {} fallback, pass rate {:.0}%",
        outcome.members.len(),
        outcome.batches,
        outcome.fallback_members(),
        outcome.pass_rate() * 100.0
    );

    // ---------------------------------------------------- surge products
    let stats = EnsembleStats::compute(&outcome, &EnsembleStats::DEFAULT_PROBS);

    // Adaptive flood threshold: halfway between the ensemble-median and
    // ensemble-max peak surge over wet cells.
    let wet: Vec<usize> = (0..grid.ny * grid.nx)
        .filter(|&c| {
            grid.mask_rho
                .get((c / grid.nx) as isize, (c % grid.nx) as isize)
                > 0.5
        })
        .collect();
    let med = percentile_over(&stats.peak_zeta.quantiles[1], &wet, 0.5);
    let peak = percentile_over(&stats.peak_zeta.max, &wet, 1.0);
    let threshold = (0.5 * (med + peak)) as f32;
    let exceed = stats.exceedance(threshold);

    println!(
        "\nexceedance-probability map  P[peak ζ > {threshold:.2} m]  ({}×{}, west = open ocean):",
        grid.ny, grid.nx
    );
    println!("  █ p>0.8  ▓ p>0.5  ▒ p>0.2  · p>0  (space: dry/safe, ~ land)");
    for j in (0..grid.ny).step_by(2) {
        let mut row = String::from("  ");
        for i in 0..grid.nx {
            let c = j * grid.nx + i;
            let ch = if grid.mask_rho.get(j as isize, i as isize) < 0.5 {
                '~'
            } else if exceed[c] > 0.8 {
                '█'
            } else if exceed[c] > 0.5 {
                '▓'
            } else if exceed[c] > 0.2 {
                '▒'
            } else if exceed[c] > 0.0 {
                '·'
            } else {
                ' '
            };
            row.push(ch);
        }
        println!("{row}");
    }

    // Quantile envelope at the most uncertain wet cell (max spread) —
    // where the ensemble adds the most information over a single run.
    let c_max = wet
        .iter()
        .copied()
        .max_by(|&a, &b| stats.peak_zeta.std[a].total_cmp(&stats.peak_zeta.std[b]))
        .expect("wet cell");
    println!(
        "\npeak ζ at most uncertain cell ({},{}):  q10 {:+.3} m  q50 {:+.3} m  q90 {:+.3} m  \
         (spread ±{:.3} m, P[> {threshold:.2} m] = {:.0}%)",
        c_max / grid.nx,
        c_max % grid.nx,
        stats.peak_zeta.quantiles[0][c_max],
        stats.peak_zeta.quantiles[1][c_max],
        stats.peak_zeta.quantiles[2][c_max],
        stats.peak_zeta.std[c_max],
        exceed[c_max] * 100.0
    );

    // ------------------------------------------------- verdicts + skill
    println!("\nper-member physics verdicts and skill vs the unperturbed run:");
    let reference = &test[1..=sc.t_out];
    let ranks = rank_members(&grid, reference, &outcome);
    for r in &ranks {
        let m = &outcome.members[r.member_id];
        let worst = m
            .verdicts
            .iter()
            .map(|v| v.mean_residual)
            .fold(0.0f64, f64::max);
        println!(
            "  {}  {}  worst residual {worst:.2e} m/s  ζ-RMSE {:.3} m  {}",
            members[r.member_id].label(),
            match m.route {
                Route::Ai => "PASS",
                Route::Fallback => "FAIL→ROMS",
            },
            r.score,
            if r.member_id == ranks[0].member_id {
                "← closest to base"
            } else {
                ""
            }
        );
    }
}

/// Percentile of `field` restricted to the `cells` subset.
fn percentile_over(field: &[f32], cells: &[usize], p: f64) -> f64 {
    let mut vals: Vec<f32> = cells.iter().map(|&c| field[c]).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    let idx = ((vals.len() - 1) as f64 * p).round() as usize;
    vals[idx] as f64
}
