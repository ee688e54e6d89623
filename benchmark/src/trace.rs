//! Benchmark-side spans around calls into a layer's public functions.
//! Spans are kept in memory and written out when the run ends; spans
//! inside the program are a later change (ROADMAP item 1).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one op (episode, request, step) share this identifier.
    pub op_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op_id,
        };
        let mut spans = self.spans.lock().expect("no span writer panics");
        spans.push(span);
        (spans.len() - 1) as SpanId
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, op_id, now, now)
    }

    pub fn end(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("no span writer panics")[id as usize].end_ns = end;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }
}

/// Run `f` under a span when tracing, plainly otherwise.
pub fn spanned<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    op_id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let id = t.begin(name, parent, op_id);
            let out = f();
            t.end(id);
            out
        }
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children.entry(p).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&(i as SpanId)).unwrap_or_default();
            kids.sort_unstable();
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total and self nanoseconds per span name, and the span count.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += s.end_ns - s.start_ns;
        e.1 += own;
        e.2 += 1;
    }
    out
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// Per span name: count, total and self milliseconds.
pub fn table(spans: &[Span]) -> String {
    let mut out = format!(
        "  {:<32} {:>8} {:>12} {:>12}\n",
        "span", "count", "total ms", "self ms"
    );
    for (name, (total, own, count)) in by_name(spans) {
        out.push_str(&format!(
            "  {name:<32} {count:>8} {:>12.3} {:>12.3}\n",
            total as f64 * 1e-6,
            own as f64 * 1e-6
        ));
    }
    out
}

pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op_id
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("episode", 0, 100, None),
            span("encode", 10, 30, Some(0)),
            // overlaps encode by 10 and runs past it
            span("forward", 20, 60, Some(0)),
            span("kernel", 25, 35, Some(2)),
            // a child that ends after its parent is clipped to the parent
            span("verify", 90, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 50 - 10, 20, 30, 10, 30]);
        let names = by_name(&spans);
        assert_eq!(names["episode"], (100, 40, 1));
        assert_eq!(names["forward"], (40, 30, 1));
    }

    #[test]
    fn tracer_links_spans_and_orders_time() {
        let t = Tracer::new();
        let root = t.begin("request", None, 7);
        let out = spanned(Some(&t), "submit", Some(root), 7, || 3);
        t.end(root);
        assert_eq!(out, 3);
        assert_eq!(spanned(None, "submit", None, 0, || 4), 4);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].op_id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"parent\":0"));
    }
}
