//! Ensemble-forecasting throughput: the ensemble engine (one shared base
//! simulation + analytic member-window synthesis + members stacked
//! through `predict_batch`) against naive per-member sequential
//! forecasting. `BENCHMARK.json` has no ensemble workload, so this is
//! the only place engine-vs-naive is measured.
//!
//! Both arms solve the same task: given a trained surrogate, an analysis
//! state (`ic`) and the base forcing, forecast N perturbed forcing
//! scenarios (a seeded Latin-hypercube surge study).
//!
//! - **naive** — what the repo supported before the ensemble subsystem:
//!   each member scenario only exists as forcing parameters, so its
//!   episode window (IC + future boundary frames consistent with *its*
//!   forcing) must be produced by running the physics per member, then
//!   forecast with one `predict_episode` each.
//! - **engine** — the perturbation catalog constructs families whose
//!   boundary response is analytic, so ONE base ROMS episode is shared by
//!   every member: windows are synthesized (forcing elevation delta +
//!   surge pulse + seeded IC noise) and forecast in stacked
//!   `predict_batch` chunks.
//!
//! The headline is engine-vs-naive members/sec, gated at ≥ 2× (exit 1
//! below it). The stacked-vs-sequential *inference* ratio on identical
//! windows is also recorded honestly — including the thread-pool fan-out,
//! which is where multi-core hosts gain — so no term of the win hides
//! inside the headline.
//!
//! `--smoke` trims training and the member count for CI; the measured
//! points and the JSON schema are identical.

use std::process::ExitCode;
use std::time::Instant;

use ccore::{train_surrogate, Scenario};
use censemble::{
    synthesize_windows, EnsembleRunner, EnsembleStats, PerturbationCatalog, PerturbationSpace,
    RunnerConfig, SamplingStrategy,
};
use cocean::Roms;
use cphysics::VerifierConfig;

const GATE: f64 = 2.0;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_members = if smoke { 8 } else { 16 };
    let seed = 42u64;
    let year = 1u32;

    let mut sc = Scenario::small();
    sc.epochs = if smoke { 1 } else { 3 };
    let grid = sc.grid();
    eprintln!("[ensemble] simulating training archive…");
    let train_archive = sc.simulate_archive(&grid, 0, 40);
    eprintln!("[ensemble] training surrogate ({} epochs)…", sc.epochs);
    let trained = train_surrogate(&sc, &grid, &train_archive);

    // The shared operational inputs: an analysis state after spin-up.
    eprintln!("[ensemble] spinning up analysis state (test year)…");
    let ic = sc
        .simulate_archive(&grid, year, 1)
        .pop()
        .expect("one snapshot");
    let t_out = sc.t_out;
    let interval = sc.snapshot_interval;

    let catalog = PerturbationCatalog::new(
        PerturbationSpace::surge_study(),
        SamplingStrategy::LatinHypercube { members: n_members },
        seed,
    );
    let members = catalog.members();

    // ---------------------------------------------------- naive baseline
    // Per member: ROMS under the member's forcing supplies the boundary
    // window, then one `predict_episode`.
    eprintln!("[ensemble] naive arm: {n_members} per-member simulations + forecasts…");
    let t_naive = Instant::now();
    let mut naive_sim_s = 0.0;
    let mut naive_infer_s = 0.0;
    let mut naive_forecasts = Vec::with_capacity(n_members);
    for m in &members {
        let member_sc = m.scenario(&sc, year).expect("valid member scenario");
        let t0 = Instant::now();
        let mut roms = Roms::new(&grid, member_sc.ocean_config(&grid, year));
        roms.load(&ic);
        let frames = roms.record(t_out, interval);
        naive_sim_s += t0.elapsed().as_secs_f64();
        let mut window = Vec::with_capacity(t_out + 1);
        window.push(ic.clone());
        window.extend(frames);
        let t0 = Instant::now();
        naive_forecasts.push(std::hint::black_box(trained.predict_episode(&window)));
        naive_infer_s += t0.elapsed().as_secs_f64();
    }
    drop(naive_forecasts);
    let naive_wall = t_naive.elapsed().as_secs_f64();
    let naive_rate = n_members as f64 / naive_wall;
    println!(
        "naive: {naive_wall:.2} s ({naive_rate:.2} members/s; \
         sim {naive_sim_s:.2} s, inference {naive_infer_s:.3} s)"
    );

    // -------------------------------------------------- ensemble engine
    // One base episode simulation shared by all members, synthesized
    // windows, stacked inference.
    eprintln!("[ensemble] engine arm: shared base episode + synthesis + stacked inference…");
    let t_engine = Instant::now();
    let t0 = Instant::now();
    let mut roms = Roms::new(&grid, sc.ocean_config(&grid, year));
    roms.load(&ic);
    let frames = roms.record(t_out, interval);
    let mut base_window = Vec::with_capacity(t_out + 1);
    base_window.push(ic.clone());
    base_window.extend(frames);
    let base_sim_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let windows =
        synthesize_windows(&sc, &grid, &base_window, year, &members).expect("valid members");
    let synth_s = t0.elapsed().as_secs_f64();

    let runner_cfg = RunnerConfig {
        chunk: n_members,
        verifier: None,
        threads: 1,
    };
    let runner = EnsembleRunner::new(&grid, &trained, &sc, year, runner_cfg);
    let outcome = runner.run(&windows).expect("ensemble run");
    let engine_wall = t_engine.elapsed().as_secs_f64();
    let engine_rate = n_members as f64 / engine_wall;
    let headline_speedup = naive_wall / engine_wall;
    println!(
        "engine: {engine_wall:.2} s ({engine_rate:.2} members/s; base sim \
         {base_sim_s:.2} s, synthesis {synth_s:.3} s, stacked inference {:.3} s in {} batch(es))",
        outcome.inference_seconds, outcome.batches
    );

    // ------------------------------- stacked-vs-sequential inference only
    // Same synthesized windows, so this isolates what stacking (and the
    // thread pool) buys at the inference layer alone.
    let best_of = |reps: usize, mut f: Box<dyn FnMut() -> f64 + '_>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            best = best.min(f());
        }
        best
    };
    let reps = if smoke { 1 } else { 3 };
    let seq_infer_s = best_of(
        reps,
        Box::new(|| {
            let t0 = Instant::now();
            for w in &windows {
                std::hint::black_box(trained.predict_episode(&w.window));
            }
            t0.elapsed().as_secs_f64()
        }),
    );
    let stacked_infer_s = best_of(
        reps,
        Box::new(|| {
            let t0 = Instant::now();
            std::hint::black_box(runner.run(&windows).expect("stacked run"));
            t0.elapsed().as_secs_f64()
        }),
    );
    let spec = trained.spec();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let par_cfg = RunnerConfig {
        chunk: n_members.div_ceil(threads).max(1),
        verifier: None,
        threads,
    };
    let par_infer_s = best_of(
        reps,
        Box::new(|| {
            let t0 = Instant::now();
            std::hint::black_box(
                censemble::run_parallel(&spec, &grid, &sc, year, par_cfg, &windows)
                    .expect("parallel run"),
            );
            t0.elapsed().as_secs_f64()
        }),
    );
    let stacked_speedup = seq_infer_s / stacked_infer_s;
    let par_speedup = seq_infer_s / par_infer_s;
    println!(
        "inference only: sequential {:.1} ms, stacked {:.1} ms ({stacked_speedup:.2}x), \
         {threads}-thread pool {:.1} ms ({par_speedup:.2}x)",
        seq_infer_s * 1e3,
        stacked_infer_s * 1e3,
        par_infer_s * 1e3
    );

    // ------------------------------------------ verified surge products
    // The full hybrid product: verification verdicts per member, fallback
    // where physics rejects the surrogate, exceedance map.
    let verified = EnsembleRunner::new(
        &grid,
        &trained,
        &sc,
        year,
        RunnerConfig {
            chunk: n_members,
            verifier: Some(VerifierConfig::default()),
            threads: 1,
        },
    )
    .run(&windows)
    .expect("verified run");
    let stats = EnsembleStats::compute(&verified, &EnsembleStats::DEFAULT_PROBS);
    let threshold = 0.3f32;
    let exceed = stats.exceedance(threshold);
    let at_risk = exceed.iter().filter(|&&p| p > 0.5).count();
    println!(
        "verified products: pass rate {:.0}%, {} fallback member(s), \
         {at_risk} cells with P[peak ζ > {threshold} m] > 0.5",
        verified.pass_rate() * 100.0,
        verified.fallback_members()
    );

    // ------------------------------------------------------------- report
    println!("engine vs naive: {headline_speedup:.1}x (gate {GATE}x)");

    let mut failures = Vec::new();
    if headline_speedup < GATE {
        failures.push(format!(
            "engine is {headline_speedup:.2}x naive per-member forecasting, below {GATE}x"
        ));
    }
    cbench::finish(
        "ensemble",
        "blocked",
        &format!(
            "\"smoke\": {smoke}, \"members\": {n_members}, \"t_out\": {t_out}, \"seed\": {seed}, \
             \"naive_sequential\": {{\"wall_s\": {naive_wall:.4}, \"members_per_s\": {naive_rate:.3}, \
             \"sim_s\": {naive_sim_s:.4}, \"inference_s\": {naive_infer_s:.4}}}, \
             \"engine\": {{\"wall_s\": {engine_wall:.4}, \"members_per_s\": {engine_rate:.3}, \
             \"base_sim_s\": {base_sim_s:.4}, \"synthesis_s\": {synth_s:.4}, \
             \"stacked_inference_s\": {:.4}, \"batches\": {}, \"chunk\": {n_members}}}, \
             \"stacked_inference\": {{\"sequential_s\": {seq_infer_s:.4}, \"stacked_s\": {stacked_infer_s:.4}, \
             \"speedup\": {stacked_speedup:.3}, \"pool_threads\": {threads}, \"pool_s\": {par_infer_s:.4}, \
             \"pool_speedup\": {par_speedup:.3}}}, \
             \"verified\": {{\"pass_rate\": {:.4}, \"fallback_members\": {}, \
             \"exceedance_threshold_m\": {threshold}, \"cells_above_half_probability\": {at_risk}}}, \
             \"speedup_vs_naive\": {headline_speedup:.3}, \"gate\": {GATE}",
            outcome.inference_seconds,
            outcome.batches,
            verified.pass_rate(),
            verified.fallback_members(),
        ),
        &failures,
    )
}
