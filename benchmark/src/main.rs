//! The repo's benchmark: five workloads over the surrogate, its physics
//! check, the simulator fallback, the serving front door and the trainer.
//! README.md beside this package says what each workload and metric is
//! for; `BENCHMARK.json` at the root of the repo is the contract.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! benchmark compare <base> <new>        # result files or directories of them
//! ```
//!
//! Everything measured is reached through the public API of the `c*`
//! crates, and only through these items:
//!
//! - `ccore`: `Scenario`, `train_surrogate`, `TrainedSurrogate`,
//!   `SurrogateSpec`, `HybridForecaster`, `HybridOutcome`, `ZETA_TOL_F16`
//! - `cgrid`: `Grid`
//! - `cocean`: `Snapshot`, `Roms`
//! - `cphysics`: `Verifier`, `VerifierConfig`, `ACCEPTED_THRESHOLD`
//! - `cpipeline`: `encode_episode`, `stack_episodes`, `decode_prediction`,
//!   `Episode`, `EncodeConfig`, `NormStats`, `SnapshotStore`, `WindowSpec`,
//!   `DataLoader`, `LoaderConfig`, `Trainer`, `TrainConfig`
//! - `cserve`: `ForecastServer`, `ServeConfig`, `ForecastRequest`,
//!   `ResponseHandle`, `ServeMetrics`, `ServeError`, `request::hash_window`
//! - `csurrogate`: `SwinSurrogate`, `window::{padded_dims, window_count}`
//! - `ctensor`: `backend::{current, Backend, MatmulSpec, AttentionSpec,
//!   AdamStepSpec, UnaryOp}`, `quant::{quantize_acts, QuantizedTensor}`,
//!   `simd::feature_string`, `prelude::{Graph, Module, Precision, Tensor,
//!   state_dict}`

mod affinity;
mod compare;
mod context;
mod gen;
mod hybrid;
mod json;
mod probes;
mod report;
mod serve;
mod spec;
mod stamp;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Metric;

/// The workload's own set-up (construction and warm-up) is repeated this
/// many times and its median taken.
pub const SETUP_REPS: usize = 3;

/// A traced run spends this share of its seconds on an untraced pass and
/// the same again on the traced one (their ratio is the tracing
/// overhead); the probes take the rest.
pub const TRACE_PASS_SHARE: f64 = 0.3;

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// CPUs this process may use, read before any thread is pinned.
    pub nproc: usize,
}

struct Args {
    workload: String,
    cfg: RunCfg,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        cfg: RunCfg {
            seed: 42,
            seconds: 10.0,
            trace: false,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.cfg.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0)
                    .ok_or_else(|| bad("a number of seconds, at least 1"))?
            }
            "--trace" => {
                parsed.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !spec::WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            spec::WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn run(args: &Args) -> ExitCode {
    let mut report = match args.workload.as_str() {
        "rollout12d" => hybrid::run(&hybrid::ROLLOUT, &args.cfg),
        "fallback12d" => hybrid::run(&hybrid::FALLBACK, &args.cfg),
        "serve_distinct" => serve::run(&serve::DISTINCT_KIND, &args.cfg),
        "serve_zipf" => serve::run(&serve::ZIPF_KIND, &args.cfg),
        "train" => train::run(&args.cfg),
        other => unreachable!("parse() admits only listed workloads, got {other}"),
    };
    if args.cfg.trace {
        // A row the workload's traced pass never touched is a layer it
        // never called.
        for (name, _, _) in spec::PER_LAYER {
            report.metrics.entry(name).or_insert(Metric::point(0.0));
        }
    }

    let name = format!(
        "{}.seed{}.trace{}",
        report.workload,
        report.seed,
        u8::from(report.trace)
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            let stamp = stamp::json_fields(&args.cfg);
            std::fs::write(
                args.out.join(format!("{name}.json")),
                report.file_json(&stamp),
            )
        })
        .and_then(|()| match report.trace {
            true => std::fs::write(
                args.out.join(format!("{name}.spans.json")),
                trace::to_json(&report.spans),
            ),
            false => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("could not write results under {}: {e}", args.out.display());
    }
    eprint!("{}", report.table());
    if report.trace {
        eprint!("{}", trace::table(&report.spans));
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // One kernel thread, set before any kernel reads it: on a two-core
    // host the second core belongs to the serving and loader threads.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [base, new] => ExitCode::from(compare::main(base, new) as u8),
            _ => {
                eprintln!("usage: benchmark compare <base> <new>");
                ExitCode::from(2)
            }
        };
    }
    match parse(&args) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            ExitCode::from(2)
        }
    }
}
