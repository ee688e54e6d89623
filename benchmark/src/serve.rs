//! `serve_distinct` and `serve_zipf`: one `ForecastServer` with one
//! replica, first under an open loop (requests sent on a seeded schedule
//! whatever the server does; latency is read here, from the instant each
//! request was due) and then under a closed loop of waiting clients
//! (throughput is read here). The two differ in what the requests share:
//! nothing, with the cache off, or a zipf popularity over a working set
//! four times the cache.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ccore::{TrainedSurrogate, ZETA_TOL_F16};
use cocean::Snapshot;
use cserve::{
    ForecastRequest, ForecastServer, ResponseHandle, ServeConfig, ServeError, ServeMetrics,
};

use crate::affinity::{self, CpuSet};
use crate::context::{max_zeta_diff, Context, Score};
use crate::gen;
use crate::report::{end_to_end, setup_metric, traced_rows, Metric, Pass, Report};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{probes, RunCfg, SETUP_REPS, TRACE_PASS_SHARE};

/// Distinct episode windows requests are drawn from.
const DISTINCT: usize = 64;
/// Largest |Δζ| (m) between a computed response and `predict_episode` on
/// the same window: batching may reorder float sums, nothing more.
const BATCH_TOL_M: f32 = 1e-4;
/// Clients of the closed loop, each waiting for its reply before it sends again.
const CLIENTS: usize = 16;
/// The open loop's share of a pass; the closed loop takes the rest.
const OPEN_SHARE: f64 = 0.4;
/// A generator later than this (p95, ms) cannot resolve the latencies it produced.
const MAX_LATE_MS: f64 = 1.0;

pub struct Kind {
    pub name: &'static str,
    cache_capacity: usize,
    arrivals: Arrivals,
}

enum Arrivals {
    /// Bursts of `burst` different windows, one burst every `period_s`,
    /// the requests of a burst `spacing_s` apart: about half the
    /// replica's capacity, arriving the way batching likes it.
    Bursts {
        burst: usize,
        period_s: f64,
        spacing_s: f64,
    },
    /// Poisson arrivals at `rate` per second, windows drawn zipf(`s`).
    Zipf { rate: f64, s: f64 },
}

pub const DISTINCT_KIND: Kind = Kind {
    name: "serve_distinct",
    cache_capacity: 0,
    arrivals: Arrivals::Bursts {
        burst: 8,
        period_s: 0.160,
        spacing_s: 0.0003,
    },
};

pub const ZIPF_KIND: Kind = Kind {
    name: "serve_zipf",
    cache_capacity: DISTINCT / 2,
    arrivals: Arrivals::Zipf {
        rate: 100.0,
        s: 1.0,
    },
};

/// The deployment both serve workloads run: one replica, batches of up to
/// 8, a 2 ms batching wait.
pub fn config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_capacity: 1024,
        cache_capacity,
        ..ServeConfig::default()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Hit,
    Coalesced,
    Miss,
}

/// One answered (or refused) request.
struct Record {
    /// Milliseconds from when the request was due (open loop) or sent
    /// (closed loop) to its response; NaN for a refused request.
    latency_ms: f64,
    /// Seconds from the phase start to the response.
    done_s: f64,
    class: Class,
    ok: bool,
}

impl Record {
    /// A request the server would not admit.
    fn refused(t0: Instant) -> Record {
        Record {
            latency_ms: f64::NAN,
            done_s: t0.elapsed().as_secs_f64(),
            class: Class::Miss,
            ok: false,
        }
    }
}

/// The server's counters that the benchmark reads, so two snapshots can
/// be subtracted.
#[derive(Clone, Copy, Default)]
struct Counts {
    submitted: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    coalesced: u64,
    hits: u64,
    misses: u64,
    batches: u64,
    forwards: u64,
}

impl Counts {
    fn of(m: &ServeMetrics) -> Counts {
        Counts {
            submitted: m.submitted,
            completed: m.completed,
            rejected: m.rejected,
            failed: m.failed,
            coalesced: m.coalesced,
            hits: m.cache_hits,
            misses: m.cache_misses,
            batches: m.batch_histogram.iter().map(|b| b.1).sum(),
            forwards: m.batch_histogram.iter().map(|b| b.0 as u64 * b.1).sum(),
        }
    }

    fn since(self, earlier: Counts) -> Counts {
        Counts {
            submitted: self.submitted - earlier.submitted,
            completed: self.completed - earlier.completed,
            rejected: self.rejected - earlier.rejected,
            failed: self.failed - earlier.failed,
            coalesced: self.coalesced - earlier.coalesced,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            batches: self.batches - earlier.batches,
            forwards: self.forwards - earlier.forwards,
        }
    }

    /// Every admitted request ended in exactly one outcome.
    fn reconciles(self) -> bool {
        self.completed + self.failed + self.rejected == self.submitted
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// A request between `submit` and its response.
struct InFlight {
    window: usize,
    class: Class,
    /// When the schedule wanted the request sent (open loop), or when it
    /// was sent (closed loop).
    due: Instant,
    sent: Instant,
    submitted: Instant,
    handle: ResponseHandle,
}

impl InFlight {
    fn new(window: usize, due: Instant, sent: Instant, handle: ResponseHandle) -> InFlight {
        InFlight {
            window,
            class: match (handle.from_cache(), handle.coalesced()) {
                (true, _) => Class::Hit,
                (false, true) => Class::Coalesced,
                (false, false) => Class::Miss,
            },
            due,
            sent,
            submitted: Instant::now(),
            handle,
        }
    }
}

/// Milliseconds from `from` to `to`, 0 when `to` is the earlier.
fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// An open-loop request's latency runs from when it was due, not from
/// when a stalled generator got round to sending it: the wait a stall
/// imposes on later requests is the server's users' wait too. Returns
/// `(latency_ms, generator_late_ms)`.
fn due_accounting(due: Instant, sent: Instant, done: Instant) -> (f64, f64) {
    (ms_between(due, done), ms_between(due, sent))
}

/// What one pass (open loop, then closed loop) produced.
struct PassOut {
    pass: Pass,
    open: Vec<Record>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    open_counts: Counts,
    counts: Counts,
}

impl PassOut {
    /// How late the open loop's generator ran, p95, milliseconds; past
    /// [`MAX_LATE_MS`] the notes say what that does to the latencies.
    fn late_ms_p95(&self, notes: &mut Vec<String>) -> f64 {
        let p95 = stats::rank(&self.late_ms, 0.95);
        if p95 > MAX_LATE_MS {
            notes.push(format!(
                "open-loop generator ran {p95:.3} ms late at p95 (limit {MAX_LATE_MS} ms): \
                 latency_ms_p50 and latency_ms_p90 are unresolved"
            ));
        }
        p95
    }

    /// The `cserve` rows of a traced pass. Counts cover both loops; batch
    /// size and the per-class latencies are the open loop's.
    fn layer_rows(&self, predict_ms: f64, notes: &mut Vec<String>) -> Vec<(&'static str, Metric)> {
        let class_p50 = |class: Class| {
            let ms: Vec<f64> = self
                .open
                .iter()
                .filter(|r| r.class == class && r.latency_ms.is_finite())
                .map(|r| r.latency_ms)
                .collect();
            if ms.is_empty() {
                0.0
            } else {
                median(&ms)
            }
        };
        let (hit_ms, miss_ms) = (class_p50(Class::Hit), class_p50(Class::Miss));
        let mean_batch = ratio(self.open_counts.forwards, self.open_counts.batches);
        let c = self.counts;
        let point = Metric::point;
        vec![
            ("cserve.submit.us", Metric::median_of(&self.submit_us)),
            (
                "cserve.cache_hit_share",
                point(ratio(c.hits, c.hits + c.misses)),
            ),
            (
                "cserve.coalesced_share",
                point(ratio(c.coalesced, c.submitted)),
            ),
            (
                "cserve.forwards_per_request",
                point(ratio(c.forwards, c.completed)),
            ),
            ("cserve.mean_batch", point(mean_batch)),
            ("cserve.hit.latency_us_p50", point(hit_ms * 1e3)),
            ("cserve.miss.latency_ms_p50", point(miss_ms)),
            (
                "cserve.overhead_ms",
                point(miss_ms - mean_batch * predict_ms),
            ),
            ("cserve.rejected", point(c.rejected as f64)),
            ("cserve.failed", point(c.failed as f64)),
            ("bench.gen_late_ms_p95", point(self.late_ms_p95(notes))),
        ]
    }
}

struct Bench<'a> {
    kind: &'a Kind,
    seed: u64,
    t_out: usize,
    windows: Vec<Vec<Snapshot>>,
    /// `predict_episode` on each window: what every response is checked against.
    reference: Vec<Vec<Snapshot>>,
    /// Popularity rank (or position in the round) -> window.
    order: Vec<usize>,
    server: ForecastServer,
}

impl Bench<'_> {
    fn request(&self, window: usize) -> ForecastRequest {
        ForecastRequest::new(0, self.windows[window].clone(), self.t_out)
    }

    fn counts(&self) -> Counts {
        Counts::of(&self.server.metrics())
    }

    /// A computed response may differ from the unbatched forecast by
    /// float reordering; a cached one also by its f16 rest.
    fn response_ok(
        &self,
        window: usize,
        class: Class,
        response: &Result<Arc<Vec<Snapshot>>, ServeError>,
    ) -> bool {
        let tol = match class {
            Class::Hit => ZETA_TOL_F16,
            Class::Coalesced | Class::Miss => BATCH_TOL_M,
        };
        response
            .as_ref()
            .is_ok_and(|steps| max_zeta_diff(steps, &self.reference[window]) <= tol)
    }

    /// The windows of the open loop's requests and when each is due
    /// (seconds from the phase start).
    fn schedule(&self, seconds: f64) -> (Vec<usize>, Vec<f64>) {
        match self.kind.arrivals {
            Arrivals::Bursts {
                burst,
                period_s,
                spacing_s,
            } => {
                let due = gen::burst_due(burst, period_s, spacing_s, seconds);
                let seq = (0..due.len()).map(|k| self.order[k % DISTINCT]).collect();
                (seq, due)
            }
            Arrivals::Zipf { rate, s } => {
                let due = gen::poisson_due(self.seed, rate, seconds);
                let seq = gen::zipf_ranks(self.seed, due.len(), DISTINCT, s)
                    .into_iter()
                    .map(|r| self.order[r])
                    .collect();
                (seq, due)
            }
        }
    }

    /// The closed loop's requests, cycled through for as long as it runs.
    fn closed_sequence(&self) -> Vec<usize> {
        match self.kind.arrivals {
            // Consecutive requests are different windows, so the clients'
            // outstanding requests never coalesce.
            Arrivals::Bursts { .. } => self.order.clone(),
            Arrivals::Zipf { s, .. } => gen::zipf_ranks(self.seed ^ 0xc105ed, 1 << 16, DISTINCT, s)
                .into_iter()
                .map(|r| self.order[r])
                .collect(),
        }
    }

    fn finish(&self, tracer: Option<&Tracer>, f: InFlight, t0: Instant) -> Record {
        let response = f.handle.wait_shared();
        let done = Instant::now();
        if let Some(t) = tracer {
            let op = (f.due - t0).as_nanos() as u64;
            let root = t.record("request", None, op, f.due, done);
            t.record("cserve.submit", Some(root), op, f.sent, f.submitted);
            t.record("cserve.wait", Some(root), op, f.submitted, done);
        }
        Record {
            latency_ms: due_accounting(f.due, f.sent, done).0,
            done_s: (done - t0).as_secs_f64(),
            class: f.class,
            ok: self.response_ok(f.window, f.class, &response),
        }
    }

    /// One pacer (this thread) submits each request when it is due; one
    /// waiter collects the responses that are not ready at once. With one
    /// replica and one priority, responses come back in submission order,
    /// so the waiter never sits on a finished response.
    fn open_loop(
        &self,
        seq: &[usize],
        due: &[f64],
        tracer: Option<&Tracer>,
    ) -> (Vec<Record>, Vec<f64>, Vec<f64>) {
        let (tx, rx) = mpsc::channel::<InFlight>();
        let t0 = Instant::now() + Duration::from_millis(2);
        let mut records = Vec::with_capacity(seq.len());
        let mut late_ms = Vec::with_capacity(seq.len());
        let mut submit_us = Vec::with_capacity(seq.len());
        let waited = std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                rx.into_iter()
                    .map(|f| self.finish(tracer, f, t0))
                    .collect::<Vec<_>>()
            });
            for (&window, &d) in seq.iter().zip(due) {
                let request = self.request(window);
                let due = t0 + Duration::from_secs_f64(d);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                late_ms.push(due_accounting(due, sent, sent).1);
                match self.server.submit(request) {
                    Ok(handle) => {
                        let f = InFlight::new(window, due, sent, handle);
                        submit_us.push(ms_between(sent, f.submitted) * 1e3);
                        if f.class == Class::Hit {
                            // A hit's response is already in its handle.
                            records.push(self.finish(tracer, f, t0));
                        } else {
                            tx.send(f).expect("the waiter outlives the pacer");
                        }
                    }
                    Err(_) => records.push(Record::refused(t0)),
                }
            }
            drop(tx);
            waiter.join().expect("the waiter does not panic")
        });
        records.extend(waited);
        records.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        (records, late_ms, submit_us)
    }

    /// [`CLIENTS`] clients, each sending its next request when the last is
    /// answered, for `seconds`.
    fn closed_loop(&self, seq: &[usize], seconds: f64) -> Vec<Record> {
        // A ticket counter: it orders nothing but itself.
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let mut records: Vec<Record> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while t0.elapsed().as_secs_f64() < seconds {
                            let window = seq[next.fetch_add(1, Ordering::Relaxed) % seq.len()];
                            let request = self.request(window);
                            let sent = Instant::now();
                            mine.push(match self.server.submit(request) {
                                Ok(handle) => {
                                    self.finish(None, InFlight::new(window, sent, sent, handle), t0)
                                }
                                Err(_) => Record::refused(t0),
                            });
                        }
                        mine
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("a client does not panic"))
                .collect()
        });
        records.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        records
    }

    fn pass(&self, seconds: f64, tracer: Option<&Tracer>, notes: &mut Vec<String>) -> PassOut {
        let before = self.counts();
        let (seq, due) = self.schedule(seconds * OPEN_SHARE);
        let (open, late_ms, submit_us) = self.open_loop(&seq, &due, tracer);
        let after_open = self.counts();
        let closed = self.closed_loop(&self.closed_sequence(), seconds * (1.0 - OPEN_SHARE));
        let after = self.counts();
        // Checks on the server's own counts; each broken one fails the pass.
        let mut broken = 0;
        for (phase, c) in [("open", after_open), ("closed", after)] {
            if !c.reconciles() {
                broken += 1;
                notes.push(format!(
                    "after the {phase} loop completed {} + failed {} + rejected {} != submitted {}",
                    c.completed, c.failed, c.rejected, c.submitted
                ));
            }
        }
        let counts = after.since(before);
        if matches!(self.kind.arrivals, Arrivals::Bursts { .. })
            && counts.hits + counts.coalesced > 0
        {
            broken += 1;
            notes.push(format!(
                "distinct requests must each be computed: {} hits, {} coalesced",
                counts.hits, counts.coalesced
            ));
        }
        let all = || open.iter().chain(&closed);
        let pass = Pass {
            lat_ms: open
                .iter()
                .map(|r| r.latency_ms)
                .filter(|l| l.is_finite())
                .collect(),
            events: closed
                .iter()
                .filter(|r| r.ok)
                .map(|r| (r.done_s, 1))
                .collect(),
            attempted: all().count() as u64,
            failed: all().filter(|r| !r.ok).count() as u64 + broken,
        };
        PassOut {
            pass,
            open,
            late_ms,
            submit_us,
            open_counts: after_open.since(before),
            counts,
        }
    }
}

/// Spin a server up and send it every window once, the most popular
/// last, so a cache holds the head of the popularity order when the timed
/// work begins. Returns the server and the responses by window.
fn spin_up(
    surrogate: &TrainedSurrogate,
    kind: &Kind,
    windows: &[Vec<Snapshot>],
    order: &[usize],
    t_out: usize,
    cpus: Option<&(CpuSet, CpuSet)>,
) -> (ForecastServer, Vec<Option<Arc<Vec<Snapshot>>>>) {
    // Threads inherit their creator's CPUs: the server's are spawned from
    // the server's share, then this thread (and the waiter and clients it
    // spawns later) moves to the generator's.
    let pinned = cpus.is_some_and(|(_, server)| affinity::pin(server));
    let server = ForecastServer::new(surrogate.spec(), config(kind.cache_capacity));
    if let (true, Some((generator, _))) = (pinned, cpus) {
        affinity::pin(generator);
    }
    let mut responses = vec![None; windows.len()];
    for &w in order.iter().rev() {
        let request = ForecastRequest::new(0, windows[w].clone(), t_out);
        responses[w] = server
            .submit(request)
            .and_then(ResponseHandle::wait_shared)
            .ok();
    }
    (server, responses)
}

pub fn run(kind: &Kind, cfg: &RunCfg) -> Report {
    let mut notes = Vec::new();
    let ctx = Context::build(|t_out| DISTINCT + t_out);
    let t = Instant::now();
    let surrogate = ctx.train();
    let train_s = t.elapsed().as_secs_f64();
    let t_out = ctx.t_out();
    let windows: Vec<Vec<Snapshot>> = (0..DISTINCT).map(|i| ctx.window(i).to_vec()).collect();
    let order = gen::permutation(cfg.seed, DISTINCT);

    let cpus = affinity::split();
    if cpus.is_none() {
        notes.push("one CPU (or no affinity call): load generator and server share it".into());
    }
    let mut own = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Dropping the previous server joins its threads.
        drop(last.take());
        let t = Instant::now();
        last = Some(spin_up(
            &surrogate,
            kind,
            &windows,
            &order,
            t_out,
            cpus.as_ref(),
        ));
        own.push(t.elapsed().as_secs_f64());
    }
    let (server, warm) = last.expect("SETUP_REPS is at least 1");
    let setup = setup_metric(ctx.build_s + train_s, &own);

    // The oracle, and the score of what the warm-up delivered (every
    // window once, computed, so within the batching tolerance of it).
    let reference: Vec<Vec<Snapshot>> = windows
        .iter()
        .map(|w| surrogate.predict_episode(w))
        .collect();
    let mut score = Score::default();
    let mut correct = true;
    for (w, response) in warm.iter().enumerate() {
        match response {
            Some(steps) if max_zeta_diff(steps, &reference[w]) <= BATCH_TOL_M => {
                score.add_episode(&ctx, &windows[w][0], steps, &windows[w][1..]);
            }
            _ => {
                correct = false;
                notes.push(format!(
                    "warm-up response for window {w} is missing or wrong"
                ));
            }
        }
    }

    let mut bench = Bench {
        kind,
        seed: cfg.seed,
        t_out,
        windows,
        reference,
        order,
        server,
    };
    let mut report = Report::new(kind.name, cfg);
    if !cfg.trace {
        let out = bench.pass(cfg.seconds, None, &mut notes);
        out.late_ms_p95(&mut notes);
        report.metrics = end_to_end(setup, &out.pass, &score, &mut notes);
        (report.attempted, report.failed) = (out.pass.attempted, out.pass.failed);
    } else {
        let plain = bench.pass(cfg.seconds * TRACE_PASS_SHARE, None, &mut notes);
        let tracer = Tracer::new();
        let out = bench.pass(cfg.seconds * TRACE_PASS_SHARE, Some(&tracer), &mut notes);
        (report.attempted, report.failed) = (
            plain.pass.attempted + out.pass.attempted,
            plain.pass.failed + out.pass.failed,
        );
        let mut rows = probes::run(cfg, &ctx, &surrogate, &tracer, &mut notes);
        let predict_ms = rows["ccore.predict_episode.ms"].value;
        rows.extend(out.layer_rows(predict_ms, &mut notes));
        rows.extend(traced_rows(&score, &plain.pass, &out.pass));
        report.metrics = rows;
        report.spans = tracer.spans();
    }
    bench.server.shutdown();
    report.correct = correct && report.failed == 0;
    report.notes = notes;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_generator_charges_its_stall_to_the_requests_it_delayed() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Four requests due 10 ms apart, each answered 5 ms after it is
        // sent; the generator stalls for 50 ms after sending the first.
        let due = [0, 10, 20, 30];
        let sent = [0, 50, 50, 50];
        let samples: Vec<(f64, f64)> = due
            .iter()
            .zip(sent)
            .map(|(&d, s)| due_accounting(at(d), at(s), at(s + 5)))
            .collect();
        let latency: Vec<f64> = samples.iter().map(|x| x.0).collect();
        let late: Vec<f64> = samples.iter().map(|x| x.1).collect();
        // Timed from the send, every request would read 5 ms.
        assert_eq!(latency, vec![5.0, 45.0, 35.0, 25.0]);
        assert_eq!(late, vec![0.0, 40.0, 30.0, 20.0]);
        // A request sent early (the clock read before its due time) is not late.
        assert_eq!(due_accounting(at(10), at(9), at(12)), (2.0, 0.0));
    }

    #[test]
    fn counts_subtract_and_reconcile() {
        let before = Counts {
            submitted: 10,
            completed: 9,
            rejected: 1,
            hits: 4,
            ..Counts::default()
        };
        let after = Counts {
            submitted: 30,
            completed: 27,
            rejected: 1,
            failed: 2,
            hits: 10,
            ..Counts::default()
        };
        let delta = after.since(before);
        assert_eq!(
            (delta.submitted, delta.completed, delta.failed, delta.hits),
            (20, 18, 2, 6)
        );
        assert!(after.reconciles() && before.reconciles());
        assert!(!Counts {
            submitted: 3,
            completed: 2,
            ..Counts::default()
        }
        .reconciles());
        assert_eq!(ratio(1, 0), 0.0);
    }
}
