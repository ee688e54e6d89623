//! `benchmark compare BASE NEW`: one row per workload and metric, each
//! ratio beside its base, judged against the metric's bound.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{iqr_share, median};

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs spread wider than the bound: they cannot tell.
    Unresolved,
}

/// With this many runs on a side, the spread is taken between the runs;
/// with fewer, from the slices inside each run.
const RUNS_FOR_SPREAD: usize = 4;

/// Values and within-run spreads of one metric on one workload.
#[derive(Default)]
struct Samples {
    values: Vec<f64>,
    spreads: Vec<f64>,
}

impl Samples {
    fn spread(&self) -> f64 {
        if self.values.len() >= RUNS_FOR_SPREAD {
            iqr_share(&self.values)
        } else {
            self.spreads.iter().copied().fold(0.0, f64::max)
        }
    }
}

type Table = BTreeMap<(String, String), Samples>;

pub fn verdict(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if !(base.is_finite() && new.is_finite()) || spread > bound {
        return Verdict::Unresolved;
    }
    let scale = base.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (new - base) / scale,
        Better::Higher => (base - new) / scale,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn add_result(table: &mut Table, doc: &Json) {
    let (Some(workload), Some(Json::Obj(metrics))) =
        (doc.get("workload").and_then(Json::str), doc.get("metrics"))
    else {
        return;
    };
    for (name, m) in metrics {
        if let Some(value) = m.get("value").and_then(Json::num) {
            let s = table
                .entry((workload.to_string(), name.clone()))
                .or_default();
            s.values.push(value);
            s.spreads
                .push(m.get("spread").and_then(Json::num).unwrap_or(0.0));
        }
    }
}

/// Read one result file, or every result file of a directory.
fn load(path: &str) -> Result<Table, String> {
    let mut table = Table::new();
    let mut files = Vec::new();
    if Path::new(path).is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{path}: {e}"))? {
            let p = entry.map_err(|e| format!("{path}: {e}"))?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.into());
    }
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        // Span dumps share the directory; they are arrays and add nothing.
        add_result(
            &mut table,
            &Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?,
        );
    }
    if table.is_empty() {
        return Err(format!("{path}: no benchmark results"));
    }
    Ok(table)
}

/// The comparison as text, and whether any row is worse.
fn render(base: &Table, new: &Table) -> (String, bool) {
    let mut out = format!(
        "{:<15} {:<40} {:>14} {:>14} {:>16} {:>7} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let mut any_worse = false;
    for (key, b) in base {
        let Some(n) = new.get(key) else { continue };
        let (bv, nv) = (median(&b.values), median(&n.values));
        let spread = b.spread().max(n.spread());
        let judged = spec::bound_of(&key.1).zip(spec::better_of(&key.1));
        let verdict = judged.map(|(bound, better)| verdict(bv, nv, better, bound, spread));
        any_worse |= verdict == Some(Verdict::Worse);
        out.push_str(&format!(
            "{:<15} {:<40} {bv:>14.6} {nv:>14.6} {:>9.4}x base {:>7} {:>7.1}%  {}\n",
            key.0,
            key.1,
            nv / bv,
            judged.map_or("-".into(), |(bound, _)| format!("{:.0}%", bound * 100.0)),
            spread * 100.0,
            match verdict {
                Some(Verdict::Better) => "better",
                Some(Verdict::Same) => "same",
                Some(Verdict::Worse) => "WORSE",
                Some(Verdict::Unresolved) => "unresolved",
                // Per-layer metrics have no bound: they explain, not gate.
                None => "info",
            }
        ));
    }
    (out, any_worse)
}

/// Exit code of `benchmark compare BASE NEW`: 1 when a metric got worse,
/// 2 when the inputs cannot be read.
pub fn main(base: &str, new: &str) -> i32 {
    match (load(base), load(new)) {
        (Ok(b), Ok(n)) => {
            let (text, any_worse) = render(&b, &n);
            print!("{text}");
            i32::from(any_worse)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // lower is better, bound 10 %
        assert_eq!(verdict(10.0, 10.9, Lower, 0.10, 0.02), Verdict::Same);
        assert_eq!(verdict(10.0, 11.1, Lower, 0.10, 0.02), Verdict::Worse);
        assert_eq!(verdict(10.0, 8.5, Lower, 0.10, 0.02), Verdict::Better);
        // higher is better: the same numbers read the other way
        assert_eq!(verdict(10.0, 11.1, Higher, 0.10, 0.02), Verdict::Better);
        assert_eq!(verdict(10.0, 8.5, Higher, 0.10, 0.02), Verdict::Worse);
        // a spread wider than the bound resolves nothing, whatever the ratio
        assert_eq!(verdict(10.0, 20.0, Lower, 0.10, 0.11), Verdict::Unresolved);
        assert_eq!(
            verdict(10.0, f64::NAN, Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        // a zero base does not divide by zero
        assert_eq!(verdict(0.0, 0.0, Lower, 0.10, 0.0), Verdict::Same);
    }

    fn result(workload: &str, p50: f64, spread: f64) -> Json {
        Json::parse(&format!(
            "{{\"workload\": \"{workload}\", \"metrics\": {{\"latency_ms_p50\": \
             {{\"value\": {p50}, \"unit\": \"ms\", \"spread\": {spread}}}, \
             \"cserve.submit.us\": {{\"value\": 5, \"unit\": \"us\", \"spread\": 0}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn rows_are_judged_per_workload_and_worse_sets_the_exit() {
        let (mut base, mut new) = (Table::new(), Table::new());
        add_result(&mut base, &result("rollout12d", 10.0, 0.01));
        add_result(&mut base, &result("train", 50.0, 0.01));
        add_result(&mut new, &result("rollout12d", 10.2, 0.01));
        add_result(&mut new, &result("train", 70.0, 0.01));
        let (text, any_worse) = render(&base, &new);
        assert!(any_worse);
        let line = |w: &str, m: &str| {
            text.lines()
                .find(|l| l.starts_with(w) && l.contains(m))
                .unwrap()
                .to_string()
        };
        assert!(line("rollout12d", "latency_ms_p50").ends_with("same"));
        assert!(line("train", "latency_ms_p50").ends_with("WORSE"));
        assert!(line("train", "latency_ms_p50").contains("1.4000x base"));
        assert!(line("train", "cserve.submit.us").ends_with("info"));

        // One noisy run on either side makes the row unresolved, not worse.
        let mut noisy = Table::new();
        add_result(&mut noisy, &result("train", 70.0, 0.5));
        let (text, any_worse) = render(&base, &noisy);
        assert!(!any_worse && text.contains("unresolved"));
    }

    #[test]
    fn four_runs_a_side_take_their_spread_between_runs() {
        let mut t = Table::new();
        for v in [10.0, 10.1, 9.9, 10.0] {
            add_result(&mut t, &result("train", v, 0.5));
        }
        let s = &t[&("train".to_string(), "latency_ms_p50".to_string())];
        assert!(s.spread() < 0.05, "{}", s.spread());
    }
}
