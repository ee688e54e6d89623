//! What a run measures and how it is printed.

use std::collections::BTreeMap;

use crate::context::Score;
use crate::json::{number, quote};
use crate::spec::{self, Better};
use crate::stats::{self, Events};
use crate::trace::Span;
use crate::RunCfg;

/// One measured value, its spread inside the run (0 where the run yields
/// one value) and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub spread: f64,
    pub n: usize,
}

impl Metric {
    pub fn point(value: f64) -> Metric {
        Metric {
            value,
            spread: 0.0,
            n: 1,
        }
    }

    /// Median of `xs` with their interquartile range as the spread.
    pub fn median_of(xs: &[f64]) -> Metric {
        Metric {
            value: stats::median(xs),
            spread: stats::iqr_share(xs),
            n: xs.len(),
        }
    }

    /// A value taken over all of a run's samples, with the same statistic
    /// of each slice. The slices' interquartile range (as a share of their
    /// median) is how much one slice moves; a value over `k` slices moves
    /// about 1/√k of that, which is the spread kept here. Measured on
    /// `serve_zipf`, whose slices differ most (each holds a different mix
    /// of hits and misses): slices spread 24 %, whole runs 6 %.
    fn over_slices(value: f64, per_slice: &[f64], n: usize) -> Metric {
        Metric {
            value,
            spread: stats::iqr_share(per_slice) / (per_slice.len().max(1) as f64).sqrt(),
            n,
        }
    }
}

pub type Metrics = BTreeMap<&'static str, Metric>;

/// Set-up time: the shared context (built once: it is seconds of
/// deterministic computation) plus the median of the workload's own
/// set-up, which is repeated.
pub fn setup_metric(context_s: f64, own_s: &[f64]) -> Metric {
    let own = Metric::median_of(own_s);
    let value = context_s + own.value;
    Metric {
        value,
        spread: own.spread * own.value / value,
        n: own.n,
    }
}

/// The timed work of one pass over a workload.
#[derive(Default)]
pub struct Pass {
    /// Latency samples, milliseconds, in completion order.
    pub lat_ms: Vec<f64>,
    /// Completions the throughput is read from.
    pub events: Vec<(f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Pass {
    /// Ops per second: the mean over the middle slices of the timed work,
    /// fastest and slowest left out, so that one stalled (or lucky) stretch
    /// does not move it while the rest still average their noise away.
    pub fn throughput(&self) -> Metric {
        let rates = stats::slice_rates(&self.events as &Events);
        Metric::over_slices(stats::trimmed_mean(&rates), &rates, rates.len())
    }

    /// Percentile `p` of the latency samples; its spread is taken over the
    /// same percentile of each slice.
    pub fn latency(&self, p: f64) -> Metric {
        let per_slice: Vec<f64> = stats::slices(&self.lat_ms)
            .into_iter()
            .map(|s| stats::rank(s, p))
            .collect();
        Metric::over_slices(stats::rank(&self.lat_ms, p), &per_slice, self.lat_ms.len())
    }
}

/// The six end-to-end metrics of a run. A run too short for its tail
/// percentile says so in `notes`.
pub fn end_to_end(setup: Metric, pass: &Pass, score: &Score, notes: &mut Vec<String>) -> Metrics {
    if stats::percentile(&pass.lat_ms, 0.90).is_none() {
        notes.push(format!(
            "latency_ms_p90 unresolved: {} samples leave fewer than {} beyond the percentile",
            pass.lat_ms.len(),
            stats::MIN_BEYOND
        ));
    }
    Metrics::from([
        ("setup_s", setup),
        ("throughput_per_s", pass.throughput()),
        ("latency_ms_p50", pass.latency(0.50)),
        ("latency_ms_p90", pass.latency(0.90)),
        ("zeta_rmse_m", Metric::point(score.zeta_rmse_m())),
        (
            "verify_pass_share",
            Metric::point(score.verify_pass_share()),
        ),
    ])
}

/// The two per-layer rows every workload's traced run reads off its own
/// passes: the verdict share of what it delivered, and what tracing cost.
pub fn traced_rows(score: &Score, plain: &Pass, traced: &Pass) -> [(&'static str, Metric); 2] {
    [
        (
            "cphysics.pass_share",
            Metric::point(score.verify_pass_share()),
        ),
        (
            "bench.trace_overhead_share",
            Metric::point(1.0 - traced.throughput().value / plain.throughput().value),
        ),
    ]
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced one.
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// What a reader needs beside the numbers: failed checks, late
    /// generators, array sizes.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Report {
    /// An empty report of a run that has failed nothing yet.
    pub fn new(workload: &'static str, cfg: &RunCfg) -> Report {
        Report {
            workload,
            seed: cfg.seed,
            seconds: cfg.seconds,
            trace: cfg.trace,
            metrics: Metrics::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn metrics_json(&self, full: bool) -> String {
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let unit = spec::unit_of(name).expect("every reported metric is in the spec");
                let extra = if full {
                    format!(", \"spread\": {}, \"n\": {}", number(m.spread), m.n)
                } else {
                    String::new()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
                    quote(name),
                    number(m.value),
                    quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// The one line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json(false)
        )
    }

    /// The result file: the result line's fields plus what `compare` and a
    /// reader need (workload, seed, stamp, spreads, notes).
    pub fn file_json(&self, stamp_fields: &str) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| quote(n)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"stamp\": {{{}}},\n \
             \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \"metrics\": {},\n \"notes\": [{}]}}\n",
            quote(self.workload),
            self.seed,
            number(self.seconds),
            u8::from(self.trace),
            stamp_fields,
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json(true),
            notes.join(", ")
        )
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} {} s {}: {} of {} ops failed, outputs {}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace { "traced" } else { "untraced" },
            self.failed,
            self.attempted,
            if self.correct { "correct" } else { "WRONG" }
        );
        for (name, m) in &self.metrics {
            let unit = spec::unit_of(name).unwrap_or("?");
            let dir = match spec::better_of(name) {
                Some(Better::Higher) => "higher is better",
                Some(Better::Lower) => "lower is better",
                None => "",
            };
            out.push_str(&format!(
                "  {name:<44} {:>14.6} {unit:<8} n={:<6} spread {:>5.1}%  {dir}\n",
                m.value,
                m.n,
                m.spread * 100.0
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}
