//! Structured tracing: per-request span trees.
//!
//! A trace is minted once per request ([`start`]) and its [`TraceHandle`]
//! travels with the request across threads (admission → batcher → replica
//! worker). Any thread holding the handle can [`enter`] it, making
//! [`span!`](crate::span!) guards on that thread record into the trace's
//! span tree; explicit-bounds spans ([`TraceHandle::record`]) cover
//! intervals measured without a guard on the stack (e.g. queue wait,
//! observed as `enqueued → dequeued` from different threads).
//!
//! Cost model: tracing is **off by default** — a
//! [`span!`](crate::span!) then costs one relaxed atomic load. Enable per
//! process with [`set_enabled`] or `COASTAL_TRACE=1`. Enabled, a span is
//! one short mutex hold on the trace's own data (never a global lock).
//!
//! Span guards are panic-safe: a guard dropped during unwinding closes its
//! span and restores the thread's span stack to the guard's parent, so a
//! panicking replica worker leaves the trace well-formed (inner guards
//! drop before outer ones during unwind).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Process-unique trace identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Index of a span within its trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

// ---------------------------------------------------------------- enabled

static ENABLED: AtomicBool = AtomicBool::new(false);

fn env_init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if matches!(
            std::env::var("COASTAL_TRACE").as_deref(),
            Ok("1") | Ok("true") | Ok("on")
        ) {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// Turn tracing on or off for the whole process.
pub fn set_enabled(on: bool) {
    env_init();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether traces are being minted/recorded (also keyed by
/// `COASTAL_TRACE=1` at first check).
pub fn enabled() -> bool {
    env_init();
    ENABLED.load(Ordering::Relaxed)
}

// ------------------------------------------------------------------ data

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

#[derive(Debug)]
struct TraceData {
    label: &'static str,
    spans: Vec<Span>,
}

/// Shared, cloneable handle to one trace. All recording goes through the
/// trace's own mutex; handles are `Send + Sync` so a request can carry
/// its trace across the batcher into a replica thread.
#[derive(Clone)]
pub struct TraceHandle {
    id: TraceId,
    /// Start-of-trace anchor; span times are offsets from it.
    epoch: Instant,
    data: Arc<Mutex<TraceData>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle").field("id", &self.id).finish()
    }
}

fn lock(m: &Mutex<TraceData>) -> std::sync::MutexGuard<'_, TraceData> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl TraceHandle {
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The root span (always present, opened by [`start`]).
    pub fn root(&self) -> SpanId {
        SpanId(0)
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open_span(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let mut d = lock(&self.data);
        let id = SpanId(d.spans.len() as u32);
        d.spans.push(Span {
            name,
            parent,
            start_ns: self.ns_since_epoch(Instant::now()),
            end_ns: None,
        });
        id
    }

    fn close_span(&self, id: SpanId) {
        let end = self.ns_since_epoch(Instant::now());
        let mut d = lock(&self.data);
        if let Some(s) = d.spans.get_mut(id.0 as usize) {
            if s.end_ns.is_none() {
                s.end_ns = Some(end);
            }
        }
    }

    /// Record a span with explicit bounds (measured elsewhere, e.g. a
    /// queue wait observed from the dequeuing thread).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let parent = Some(parent.unwrap_or(SpanId(0)));
        let (start_ns, end_ns) = (self.ns_since_epoch(start), self.ns_since_epoch(end));
        let mut d = lock(&self.data);
        let id = SpanId(d.spans.len() as u32);
        d.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: Some(end_ns),
        });
        id
    }

    /// Close the root span (idempotent). Call when the request completes.
    pub fn close(&self) {
        self.close_span(SpanId(0));
    }

    /// Total wall time of span `id` in seconds, if closed.
    pub fn span_seconds(&self, id: SpanId) -> Option<f64> {
        let d = lock(&self.data);
        let s = d.spans.get(id.0 as usize)?;
        Some((s.end_ns? - s.start_ns) as f64 * 1e-9)
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        lock(&self.data).spans.len()
    }

    /// Render the span tree as indented text. Groups of same-named
    /// childless siblings collapse into one `name ×count (total)` line so
    /// per-kernel spans don't flood the output. Spans with children also
    /// print their **self time** (total minus time covered by direct
    /// children), so a profile tree distinguishes "slow here" from "slow
    /// below".
    pub fn render(&self) -> String {
        let d = lock(&self.data);
        let mut out = format!("trace {} [{}]\n", self.id, d.label);
        // children[i] = indices of spans whose parent is span i.
        let n = d.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in d.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if (p.0 as usize) < n && p.0 as usize != i {
                    children[p.0 as usize].push(i);
                }
            }
        }
        fn fmt_dur(ns: u64) -> String {
            let s = ns as f64 * 1e-9;
            if s >= 1.0 {
                format!("{s:.3}s")
            } else if s >= 1e-3 {
                format!("{:.3}ms", s * 1e3)
            } else {
                format!("{:.1}us", s * 1e6)
            }
        }
        fn walk(
            d: &TraceData,
            children: &[Vec<usize>],
            idx: usize,
            depth: usize,
            out: &mut String,
        ) {
            let s = &d.spans[idx];
            let span_ns = |i: usize| {
                let s = &d.spans[i];
                s.end_ns.unwrap_or(s.start_ns).saturating_sub(s.start_ns)
            };
            let dur = match s.end_ns {
                Some(e) => fmt_dur(e.saturating_sub(s.start_ns)),
                None => "(open)".into(),
            };
            // Self time = total minus direct-child time. Children of one
            // span run sequentially on a thread (guards nest), so the sum
            // is the covered interval; explicit-bounds spans recorded from
            // other threads can exceed the parent, hence the saturation.
            if children[idx].is_empty() {
                out.push_str(&format!(
                    "{:indent$}{} {}\n",
                    "",
                    s.name,
                    dur,
                    indent = depth * 2
                ));
            } else {
                let child_ns: u64 = children[idx].iter().map(|&c| span_ns(c)).sum();
                let self_ns = span_ns(idx).saturating_sub(child_ns);
                out.push_str(&format!(
                    "{:indent$}{} {} (self {})\n",
                    "",
                    s.name,
                    dur,
                    fmt_dur(self_ns),
                    indent = depth * 2
                ));
            }
            // Partition this span's children: aggregate runs of same-named
            // childless spans, recurse into the rest in start order.
            let kids = &children[idx];
            let mut i = 0;
            while i < kids.len() {
                let k = kids[i];
                let name = d.spans[k].name;
                // Count the contiguous same-named childless run.
                let mut j = i;
                while j < kids.len()
                    && d.spans[kids[j]].name == name
                    && children[kids[j]].is_empty()
                {
                    j += 1;
                }
                if j - i > 1 {
                    let total: u64 = kids[i..j]
                        .iter()
                        .map(|&c| {
                            let s = &d.spans[c];
                            s.end_ns.unwrap_or(s.start_ns).saturating_sub(s.start_ns)
                        })
                        .sum();
                    out.push_str(&format!(
                        "{:indent$}{} x{} ({})\n",
                        "",
                        name,
                        j - i,
                        fmt_dur(total),
                        indent = (depth + 1) * 2
                    ));
                    i = j;
                } else {
                    walk(d, children, k, depth + 1, out);
                    i += 1;
                }
            }
        }
        if !d.spans.is_empty() {
            walk(&d, &children, 0, 0, &mut out);
        }
        out
    }

    /// The trace as one JSON object (span times in microseconds from the
    /// trace epoch; `end_us` is null for open spans).
    pub fn to_json(&self) -> String {
        let d = lock(&self.data);
        let mut out = format!(
            "{{\"trace_id\": \"{}\", \"label\": \"{}\", \"spans\": [",
            self.id, d.label
        );
        for (i, s) in d.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let parent = match s.parent {
                Some(p) => p.0.to_string(),
                None => "null".into(),
            };
            let end = match s.end_ns {
                Some(e) => format!("{:.1}", e as f64 * 1e-3),
                None => "null".into(),
            };
            out.push_str(&format!(
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {end}}}",
                s.name,
                s.start_ns as f64 * 1e-3,
            ));
        }
        out.push_str("]}");
        out
    }
}

// -------------------------------------------------------- trace registry

/// Recent traces kept for lookup by id (e.g. from a response handle).
const KEEP_TRACES: usize = 256;

fn registry() -> &'static Mutex<VecDeque<TraceHandle>> {
    static R: OnceLock<Mutex<VecDeque<TraceHandle>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Mint a new trace with an open root span named `label`, and retain it
/// in the recent-trace ring for [`lookup`].
pub fn start(label: &'static str) -> TraceHandle {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let handle = TraceHandle {
        id: TraceId(NEXT.fetch_add(1, Ordering::Relaxed)),
        epoch: Instant::now(),
        data: Arc::new(Mutex::new(TraceData {
            label,
            spans: vec![Span {
                name: label,
                parent: None,
                start_ns: 0,
                end_ns: None,
            }],
        })),
    };
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.push_back(handle.clone());
    while reg.len() > KEEP_TRACES {
        reg.pop_front();
    }
    handle
}

/// Find a recently minted trace by id.
pub fn lookup(id: TraceId) -> Option<TraceHandle> {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.iter().rev().find(|h| h.id == id).cloned()
}

// ------------------------------------------------------- per-thread state

struct Active {
    handle: TraceHandle,
    /// Open span guards on this thread, innermost last.
    stack: Vec<SpanId>,
}

thread_local! {
    static ACTIVE: RefCell<Vec<Active>> = const { RefCell::new(Vec::new()) };
}

/// Make `handle` the active trace on this thread until the guard drops;
/// `parent` is the span new guards on this thread nest under.
pub fn enter(handle: &TraceHandle, parent: SpanId) -> EnterGuard {
    ACTIVE.with(|a| {
        a.borrow_mut().push(Active {
            handle: handle.clone(),
            stack: vec![parent],
        })
    });
    EnterGuard {
        id: handle.id,
        _not_send: std::marker::PhantomData,
    }
}

/// The active trace on this thread, if any.
pub fn current() -> Option<TraceHandle> {
    ACTIVE.with(|a| a.borrow().last().map(|e| e.handle.clone()))
}

/// Scope guard for [`enter`]; restores the previously active trace.
pub struct EnterGuard {
    id: TraceId,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            let mut v = a.borrow_mut();
            // Normally ours is last; under panic-unwind inner span guards
            // already dropped, so a plain pop of the matching entry holds.
            if let Some(pos) = v.iter().rposition(|e| e.handle.id == self.id) {
                v.remove(pos);
            }
        });
    }
}

/// Open a nested span in this thread's active trace; no-op (one atomic
/// load) when tracing is disabled or no trace is active here.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let open = ACTIVE.with(|a| {
        let mut v = a.borrow_mut();
        let entry = v.last_mut()?;
        let parent = entry.stack.last().copied();
        let id = entry.handle.open_span(name, parent);
        entry.stack.push(id);
        Some((entry.handle.clone(), id))
    });
    SpanGuard { open }
}

/// RAII guard closing its span (and unwinding the thread's span stack to
/// its parent) on drop — including during panic unwind.
pub struct SpanGuard {
    open: Option<(TraceHandle, SpanId)>,
}

impl SpanGuard {
    /// The span this guard opened, if tracing was live.
    pub fn id(&self) -> Option<SpanId> {
        self.open.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((handle, id)) = self.open.take() else {
            return;
        };
        handle.close_span(id);
        ACTIVE.with(|a| {
            let mut v = a.borrow_mut();
            if let Some(entry) = v.iter_mut().rfind(|e| e.handle.id == handle.id) {
                // Pop through our id: anything above it belongs to guards
                // leaked by the unwind already past.
                if let Some(pos) = entry.stack.iter().rposition(|&s| s == id) {
                    entry.stack.truncate(pos);
                }
            }
        });
    }
}

/// Open a named span in the thread's active trace:
/// `let _s = cobs::span!("batcher.flush");`
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::trace::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        // Tests in this module share the process-wide flag, and
        // `disabled_span_is_noop` turns it off for a moment: they take
        // turns, so no test sees another's switch.
        static TURN: Mutex<()> = Mutex::new(());
        let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        f()
    }

    #[test]
    fn spans_nest_and_render() {
        with_tracing(|| {
            let t = start("req");
            {
                let _e = enter(&t, t.root());
                let _a = span("outer");
                {
                    let _b = span("inner");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            t.close();
            let r = t.render();
            assert!(r.contains("req"), "{r}");
            let outer_at = r.find("outer").unwrap();
            let inner_at = r.find("inner").unwrap();
            assert!(inner_at > outer_at);
            // inner is indented deeper than outer
            let indent = |at: usize| r[..at].rfind('\n').map(|n| at - n - 1).unwrap_or(at);
            assert!(indent(inner_at) > indent(outer_at), "{r}");
            assert!(t.span_seconds(t.root()).unwrap() >= 0.001);
        });
    }

    #[test]
    fn disabled_span_is_noop() {
        // Even with a trace entered, a guard minted via span() after
        // disabling records nothing.
        with_tracing(|| {
            let t = start("req");
            let _e = enter(&t, t.root());
            set_enabled(false);
            let before = t.span_count();
            {
                let _s = span("ghost");
            }
            set_enabled(true);
            assert_eq!(t.span_count(), before);
        });
    }

    #[test]
    fn explicit_record_defaults_parent_to_root() {
        with_tracing(|| {
            let t = start("req");
            let now = Instant::now();
            t.record("queue.wait", None, now, now + Duration::from_millis(2));
            t.close();
            let r = t.render();
            assert!(r.contains("queue.wait"), "{r}");
        });
    }

    #[test]
    fn panic_unwind_restores_span_stack() {
        with_tracing(|| {
            let t = start("req");
            let _e = enter(&t, t.root());
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _a = span("will_unwind");
                let _b = span("inner_unwind");
                panic!("boom");
            }));
            assert!(res.is_err());
            // Stack restored to root: a fresh span nests under root, and
            // both unwound spans are closed.
            let id = span("after").id().unwrap();
            drop(span("noop"));
            let d = lock(&t.data);
            let after = &d.spans[id.0 as usize];
            assert_eq!(after.parent, Some(SpanId(0)));
            for s in d.spans.iter() {
                if s.name == "will_unwind" || s.name == "inner_unwind" {
                    assert!(s.end_ns.is_some(), "{} left open", s.name);
                }
            }
        });
    }

    #[test]
    fn render_prints_self_time_on_parents_only() {
        with_tracing(|| {
            let t = start("req");
            {
                let _e = enter(&t, t.root());
                let _a = span("parent");
                {
                    let _b = span("child");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            t.close();
            let r = t.render();
            // Parents (root + "parent") carry a self-time annotation;
            // the leaf does not.
            let parent_line = r.lines().find(|l| l.contains("parent")).unwrap();
            assert!(parent_line.contains("(self "), "{r}");
            let child_line = r.lines().find(|l| l.contains("child")).unwrap();
            assert!(!child_line.contains("(self "), "{r}");
            // The child's sleep dominates: parent self-time is far below
            // its total, i.e. "slow below", not "slow here".
            let total_ms = t.span_seconds(SpanId(1)).unwrap() * 1e3;
            assert!(total_ms >= 5.0, "{r}");
            let self_part = parent_line.split("(self ").nth(1).unwrap();
            assert!(
                self_part.contains("us") || self_part.starts_with("0."),
                "parent self-time should be tiny: {parent_line}"
            );
        });
    }

    #[test]
    fn childless_sibling_runs_aggregate_in_render() {
        with_tracing(|| {
            let t = start("req");
            {
                let _e = enter(&t, t.root());
                for _ in 0..5 {
                    let _k = span("kernel.matmul.f32");
                }
            }
            t.close();
            let r = t.render();
            assert!(r.contains("kernel.matmul.f32 x5"), "{r}");
            assert_eq!(r.matches("kernel.matmul.f32").count(), 1, "{r}");
        });
    }

    #[test]
    fn lookup_finds_recent_trace_and_json_parses_shape() {
        with_tracing(|| {
            let t = start("req");
            assert_eq!(lookup(t.id()).map(|h| h.id()), Some(t.id()));
            t.close();
            let j = t.to_json();
            assert!(j.starts_with("{\"trace_id\""), "{j}");
            assert!(j.contains("\"spans\": ["), "{j}");
            assert!(j.ends_with("]}"), "{j}");
        });
    }

    #[test]
    fn cross_thread_recording_via_handle() {
        with_tracing(|| {
            let t = start("req");
            let t2 = t.clone();
            std::thread::spawn(move || {
                let _e = enter(&t2, t2.root());
                let _s = span("worker.compute");
            })
            .join()
            .unwrap();
            assert!(t.render().contains("worker.compute"));
        });
    }
}
