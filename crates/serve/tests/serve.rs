//! End-to-end serving tests over a (tiny) trained surrogate: concurrent
//! clients, micro-batching, cache identity, backpressure, and parity with
//! direct prediction.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ccore::{train_surrogate, Scenario, SurrogateSpec};
use cocean::Snapshot;
use cserve::{ForecastRequest, ForecastServer, Priority, ServeConfig, ServeError};

// Trained once, shared by every test (training dominates test wall time).
struct Ctx {
    spec: SurrogateSpec,
    archive: Vec<Snapshot>,
    t_out: usize,
}

static CTX: OnceLock<Ctx> = OnceLock::new();

fn ctx() -> &'static Ctx {
    CTX.get_or_init(|| {
        let mut sc = Scenario::small();
        sc.epochs = 2;
        let grid = sc.grid();
        let archive = sc.simulate_archive(&grid, 0, 40);
        let trained = train_surrogate(&sc, &grid, &archive);
        Ctx {
            spec: trained.spec(),
            archive,
            t_out: sc.t_out,
        }
    })
}

/// Sliding episode windows (stride 1 → plenty of distinct requests).
fn windows(n: usize) -> Vec<Vec<Snapshot>> {
    let c = ctx();
    let len = c.t_out + 1;
    (0..n).map(|i| c.archive[i..i + len].to_vec()).collect()
}

fn request(i: usize) -> ForecastRequest {
    let c = ctx();
    ForecastRequest::new(0, windows(i + 1).pop().unwrap(), c.t_out)
}

/// Every bit of a trajectory (times and fields), for bitwise assertions.
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
fn concurrent_requests_all_answered() {
    let c = ctx();
    let server = Arc::new(ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 2,
            max_batch: 8,
            ..Default::default()
        },
    ));
    let n = 16;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                server
                    .submit(request(i))
                    .expect("admitted")
                    .wait()
                    .expect("answered")
            })
        })
        .collect();
    // Two replicas pull batches at once: each client must still get the
    // forecast of its own window, not another request's.
    let direct = c.spec.instantiate();
    for (i, h) in handles.into_iter().enumerate() {
        let forecast = h.join().unwrap();
        let want = direct.predict_episode(&request(i).window);
        assert_eq!(forecast.len(), want.len());
        for (a, b) in want.iter().zip(&forecast) {
            for (name, x, y) in [
                ("zeta", &a.zeta, &b.zeta),
                ("u", &a.u, &b.u),
                ("v", &a.v, &b.v),
                ("w", &a.w, &b.w),
            ] {
                let d = x
                    .iter()
                    .zip(y)
                    .map(|(p, q)| (p - q).abs())
                    .fold(0.0, f32::max);
                assert!(
                    d < 1e-5,
                    "client {i}: {name} off its own forecast by {d:.3e}"
                );
            }
        }
    }
    let m = server.metrics();
    assert_eq!(m.completed, n as u64);
    assert_eq!(m.failed, 0);
    assert_eq!(m.submitted, n as u64);
}

#[test]
fn micro_batches_form_under_load() {
    let c = ctx();
    let server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            cache_capacity: 0, // all 16 requests must hit the model
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..16)
        .map(|i| server.submit(request(i)).expect("admitted"))
        .collect();
    for h in handles {
        h.wait().expect("answered");
    }
    let m = server.metrics();
    assert_eq!(m.completed, 16);
    assert!(
        m.mean_batch_size() > 1.5,
        "requests must coalesce into batches: {:?}",
        m.batch_histogram
    );
    assert!(
        m.batch_histogram.iter().any(|&(size, _)| size >= 4),
        "expected at least one large batch: {:?}",
        m.batch_histogram
    );
}

#[test]
fn served_forecast_matches_direct_prediction() {
    let c = ctx();
    let direct_model = c.spec.instantiate();
    let server = ForecastServer::new(c.spec.clone(), ServeConfig::default());

    for i in [0usize, 3, 11] {
        let w = windows(i + 1).pop().unwrap();
        let direct = direct_model.predict_episode(&w);
        let served = server
            .submit(ForecastRequest::new(0, w, c.t_out))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(direct.len(), served.len());
        for (a, b) in direct.iter().zip(&served) {
            for (x, y) in a.zeta.iter().zip(&b.zeta) {
                assert!((x - y).abs() < 1e-5, "zeta {x} vs {y}");
            }
            for (x, y) in a.u.iter().zip(&b.u) {
                assert!((x - y).abs() < 1e-5, "u {x} vs {y}");
            }
        }
    }
}

#[test]
fn repeated_requests_hit_cache_bitwise() {
    let c = ctx();
    let server = ForecastServer::new(c.spec.clone(), ServeConfig::default());
    let w = windows(1).pop().unwrap();

    let first = server
        .submit(ForecastRequest::new(7, w.clone(), c.t_out))
        .unwrap();
    assert!(!first.from_cache());
    let first = first.wait_shared().unwrap();

    let second = server.submit(ForecastRequest::new(7, w, c.t_out)).unwrap();
    assert!(second.from_cache(), "identical request must hit the cache");
    let second = second.wait_shared().unwrap();

    // The cache holds the leader's trajectory itself: a hit shares it.
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(bits(&first), bits(&second));
    let m = server.metrics();
    assert_eq!((m.cache_hits, m.cache_misses), (1, 1));
}

#[test]
fn distinct_initial_conditions_never_collide() {
    let c = ctx();
    let server = ForecastServer::new(c.spec.clone(), ServeConfig::default());
    // Two requests whose windows differ only in the IC interior.
    let w1 = windows(1).pop().unwrap();
    let mut w2 = w1.clone();
    w2[0].zeta[25] += 1e-3;

    let r1 = server.submit(ForecastRequest::new(0, w1, c.t_out)).unwrap();
    assert!(!r1.from_cache());
    r1.wait().unwrap();
    let r2 = server.submit(ForecastRequest::new(0, w2, c.t_out)).unwrap();
    assert!(
        !r2.from_cache(),
        "a perturbed IC is a different request and must miss"
    );
    r2.wait().unwrap();
}

#[test]
fn overload_surfaces_as_typed_backpressure() {
    let c = ctx();
    let mut server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 1, // one request per model run: the worker saturates at once
            queue_capacity: 3,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    // Dispatch is work-conserving (an idle worker drains the queue
    // immediately), so overload requires genuine
    // saturation: flood the lone worker with distinct requests faster
    // than it can forecast until the bounded queue rejects one. Each
    // submit is microseconds while a forecast is milliseconds, so the
    // queue fills long before the flood ends.
    let mut handles = Vec::new();
    let mut overloaded = None;
    for i in 0..32 {
        match server.submit(request(i)) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded { depth, capacity }) => {
                overloaded = Some((depth, capacity));
                break;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    let (depth, capacity) = overloaded.expect("flood must trip the bounded queue");
    assert_eq!((depth, capacity), (3, 3));
    assert_eq!(server.metrics().rejected, 1);

    // Graceful shutdown flushes the backlog; the admitted requests
    // still complete.
    server.shutdown();
    for h in handles {
        assert_eq!(h.wait().expect("drained at shutdown").len(), c.t_out);
    }
    // …and new submissions are now refused.
    assert!(matches!(
        server.submit(request(0)),
        Err(ServeError::Shutdown)
    ));
}

#[test]
fn malformed_requests_rejected_up_front() {
    let c = ctx();
    let server = ForecastServer::new(c.spec.clone(), ServeConfig::default());

    // Wrong horizon.
    let w = windows(1).pop().unwrap();
    let mut req = ForecastRequest::new(0, w.clone(), c.t_out + 1);
    assert!(matches!(server.submit(req), Err(ServeError::BadRequest(_))));

    // Window too short for the horizon.
    req = ForecastRequest::new(0, w[..c.t_out].to_vec(), c.t_out);
    assert!(matches!(server.submit(req), Err(ServeError::BadRequest(_))));

    // Mesh mismatch.
    let mut bad = w;
    bad[0] = Snapshot {
        time: 0.0,
        nz: 1,
        ny: 2,
        nx: 2,
        zeta: vec![0.0; 4],
        u: vec![0.0; 4],
        v: vec![0.0; 4],
        w: vec![0.0; 4],
    };
    req = ForecastRequest::new(0, bad, c.t_out);
    assert!(matches!(server.submit(req), Err(ServeError::BadRequest(_))));

    // Misrouted scenario id, on a deployment that pins one.
    let pinned = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            scenario_id: Some(0),
            ..Default::default()
        },
    );
    pinned
        .submit(ForecastRequest::new(0, windows(1).pop().unwrap(), c.t_out))
        .expect("matching scenario id admitted")
        .wait()
        .unwrap();
    assert!(matches!(
        pinned.submit(ForecastRequest::new(9, windows(1).pop().unwrap(), c.t_out)),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn truncated_field_rejected_without_failing_its_batch() {
    let c = ctx();
    let mut server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let mut bad = windows(1).pop().unwrap();
    bad[1].u.truncate(10);

    // The malformed request arrives amid well-formed ones that would
    // share its micro-batch if it were admitted.
    let mut handles: Vec<_> = (0..3).map(|i| server.submit(request(i)).unwrap()).collect();
    let rejected = server.submit(ForecastRequest::new(0, bad, c.t_out));
    handles.extend((3..7).map(|i| server.submit(request(i)).unwrap()));
    match rejected {
        Err(ServeError::BadRequest(msg)) => assert!(msg.contains("field u"), "{msg}"),
        Err(e) => panic!("expected BadRequest, got {e}"),
        Ok(_) => panic!("a truncated field must be rejected at submit"),
    }
    for h in handles {
        h.wait().expect("well-formed requests complete");
    }
    server.shutdown();
    let m = server.metrics();
    assert_eq!((m.completed, m.failed), (7, 0), "{m:?}");
    assert_eq!(m.completed + m.failed + m.rejected, m.submitted, "{m:?}");
}

#[test]
fn replica_panic_fails_its_batch_and_the_server_keeps_answering() {
    let c = ctx();
    // A 1×1 land mask makes `mask_land` index out of bounds inside
    // `predict_batch`: every batch this deployment runs panics.
    let mut spec = c.spec.clone();
    spec.mask = ctensor::tensor::Tensor::zeros(&[1, 1]);
    let mut server = ForecastServer::new(
        spec,
        ServeConfig {
            workers: 1,
            max_batch: 4,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..6).map(|i| server.submit(request(i)).unwrap()).collect();
    for h in handles {
        match h.wait() {
            Err(ServeError::Internal(msg)) => {
                assert!(msg.starts_with("replica panicked"), "{msg}");
            }
            other => panic!("expected a replica panic, got {:?}", other.map(|f| f.len())),
        }
    }
    // The replica survived its panics: a later request is answered (with
    // the same error), not left hanging.
    let late = server.submit(request(6)).unwrap().wait();
    assert!(matches!(late, Err(ServeError::Internal(_))), "{late:?}");
    server.shutdown();
    let m = server.metrics();
    assert_eq!((m.completed, m.failed), (0, 7), "{m:?}");
    assert_eq!(m.completed + m.failed + m.rejected, m.submitted, "{m:?}");
}

#[test]
fn identical_inflight_requests_coalesce_to_one_computation() {
    let c = ctx();
    // Cache disabled: any sharing must come from single-flight
    // coalescing, not the LRU.
    let server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 16,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let w = windows(1).pop().unwrap();
    let handles: Vec<_> = (0..12)
        .map(|_| {
            server
                .submit(ForecastRequest::new(0, w.clone(), c.t_out))
                .unwrap()
        })
        .collect();
    assert!(!handles[0].coalesced(), "first request leads");
    assert!(
        handles[1..].iter().all(|h| h.coalesced()),
        "duplicates join the in-flight computation"
    );
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait_shared().unwrap())
        .collect();
    // All twelve share the single computation's buffers.
    for r in &results[1..] {
        assert!(Arc::ptr_eq(&results[0], r));
    }
    let m = server.metrics();
    assert_eq!(m.completed, 12);
    assert_eq!(m.coalesced, 11);
    // Exactly one model execution, of batch size 1.
    let total_computed: u64 = m
        .batch_histogram
        .iter()
        .map(|&(size, count)| size as u64 * count)
        .sum();
    assert_eq!(total_computed, 1, "histogram: {:?}", m.batch_histogram);
}

#[test]
fn high_priority_requests_overtake_normal() {
    let c = ctx();
    // One worker: requests queued behind its first forward land in one
    // batch, whose intra-batch order is priority-first.
    let server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let mut normal = Vec::new();
    for i in 0..3 {
        normal.push(server.submit(request(i)).unwrap());
    }
    let mut urgent = request(3);
    urgent.priority = Priority::High;
    let urgent = server.submit(urgent).unwrap();
    // All four complete (ordering inside the batch is covered by the
    // batcher unit tests; here we assert the class is accepted end-to-end).
    urgent.wait().unwrap();
    for h in normal {
        h.wait().unwrap();
    }
    assert_eq!(server.metrics().completed, 4);
}

#[test]
fn ensemble_submission_reuses_batcher_and_cache() {
    let c = ctx();
    let server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            queue_capacity: 16,
            cache_capacity: 32,
            ..Default::default()
        },
    );

    // A 6-member "ensemble" with one duplicated window, submitted as
    // ordinary requests: members flow through the same micro-batcher
    // (stacked forwards) and warm the cache; the duplicate coalesces onto
    // its leader.
    let ws = windows(5);
    let handles: Vec<_> = ws
        .iter()
        .chain([&ws[0]])
        .map(|w| {
            server
                .submit(ForecastRequest::new(0, w.clone(), c.t_out))
                .unwrap()
        })
        .collect();
    let forecasts: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();

    // Member order preserved: each matches the direct model prediction.
    let direct = c.spec.instantiate();
    for (w, got) in ws.iter().zip(&forecasts) {
        let want = direct.predict_episode(w);
        for (a, b) in want.iter().zip(got) {
            assert_eq!(a.zeta, b.zeta, "served member must match direct prediction");
        }
    }
    // The duplicate member returned member 0's trajectory bit for bit,
    // whether it coalesced onto the in-flight computation or raced member
    // 0's completion and hit the cache.
    assert_eq!(bits(&forecasts[5]), bits(&forecasts[0]));

    // A later client asking for a member forecast hits the warm cache.
    let again = server
        .submit(ForecastRequest::new(0, ws[2].clone(), c.t_out))
        .unwrap();
    assert!(again.from_cache(), "ensemble must have warmed the cache");
    again.wait().unwrap();
}

#[test]
fn ensemble_larger_than_queue_streams_through_with_retry() {
    let c = ctx();
    // Admission is streaming: the replicas drain the bounded queue while
    // members enqueue, so an ensemble 3× the queue capacity is admissible
    // — and when the submitter outruns the drain, the typed Overloaded
    // plus a backed-off resubmit of that member completes cheaply because
    // already-computed members return as cache hits / coalesce.
    let server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_capacity: 4,
            cache_capacity: 32,
            ..Default::default()
        },
    );
    let mut handles = Vec::new();
    for w in windows(12) {
        let mut admitted = None;
        for _attempt in 0..100 {
            match server.submit(ForecastRequest::new(0, w.clone(), c.t_out)) {
                Ok(h) => {
                    admitted = Some(h);
                    break;
                }
                Err(ServeError::Overloaded { .. }) => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        handles.push(admitted.expect("member admitted after backoff"));
    }
    for h in handles {
        assert_eq!(h.wait().expect("answered").len(), c.t_out);
    }
}

/// A server deployed from a reduced-precision spec (int8, f16) serves at
/// that precision: its answers differ from the f32 model's, and every
/// one stays within the documented int8 ζ parity gate.
#[test]
fn reduced_precision_servers_stay_within_parity_gate() {
    use ccore::ZETA_TOL_INT8;
    use ctensor::quant::Precision;

    let c = ctx();
    let direct = c.spec.instantiate();
    for precision in [Precision::Int8, Precision::F16] {
        let server = ForecastServer::new(
            c.spec.clone().with_precision(precision),
            ServeConfig {
                workers: 1,
                max_batch: 4,
                cache_capacity: 0,
                ..Default::default()
            },
        );
        let mut max_dz = 0.0f32;
        for i in 0..3 {
            let w = windows(i + 1).pop().unwrap();
            let want = direct.predict_episode(&w);
            let got = server
                .submit(ForecastRequest::new(0, w, c.t_out))
                .unwrap()
                .wait()
                .unwrap();
            let mut dz = 0.0f32;
            for (a, b) in want.iter().zip(&got) {
                for (x, y) in a.zeta.iter().zip(&b.zeta) {
                    dz = dz.max((x - y).abs());
                }
            }
            assert!(
                dz <= ZETA_TOL_INT8,
                "{precision:?} server drifted past the int8 gate: {dz:.3e}"
            );
            max_dz = max_dz.max(dz);
        }
        assert!(max_dz > 0.0, "{precision:?} server answered at f32");
        assert_eq!(server.metrics().completed, 3);
    }
}

/// Regression guard for the v1 pool-scaling collapse (four workers fell
/// to 0.21x of one worker on distinct requests). Distinct-request
/// throughput with a multi-worker pool must stay within 10% of the
/// single-worker configuration — on a single-core host extra workers
/// cannot help, but they must never hurt.
#[test]
fn multi_worker_distinct_throughput_does_not_collapse() {
    let c = ctx();
    let clients = 6usize;
    let per_client = ((c.archive.len() - c.t_out - 1) / clients).min(6);
    assert!(per_client >= 3, "archive too short for a meaningful sweep");
    let wins = windows(clients * per_client); // all-distinct, uncacheable mix

    let throughput = |workers: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            // Fresh server per repetition: cold cache, fresh queue.
            let server = Arc::new(ForecastServer::new(
                c.spec.clone(),
                ServeConfig {
                    workers,
                    max_batch: 8,
                    ..Default::default()
                },
            ));
            let t0 = std::time::Instant::now();
            let handles: Vec<_> = (0..clients)
                .map(|cl| {
                    let server = Arc::clone(&server);
                    let wins = wins[cl * per_client..(cl + 1) * per_client].to_vec();
                    std::thread::spawn(move || {
                        // Each client streams submit→wait, so at most
                        // `clients` requests are in flight at once.
                        for w in wins {
                            let req = ForecastRequest::new(0, w, ctx().t_out);
                            server
                                .submit(req)
                                .expect("admitted")
                                .wait()
                                .expect("answered");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (clients * per_client) as f64 / best
    };

    let one = throughput(1);
    let multi = throughput(4);
    assert!(
        multi >= 0.9 * one,
        "pool scaling collapsed: 4 workers at {multi:.1} rps vs 1 worker at {one:.1} rps \
         ({:.2}x, regression threshold 0.9x)",
        multi / one
    );
}

/// Serializes tests that toggle the process-global trace switch.
static TRACE_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn serve_totals_reconcile_end_to_end() {
    let c = ctx();
    let mut server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 2,
            queue_capacity: 2,
            cache_capacity: 4,
            ..Default::default()
        },
    );
    // Mixed traffic against a deliberately tiny deployment: distinct
    // requests (some of which trip the bounded queue), duplicates (which
    // coalesce onto in-flight leaders), and repeats (which hit the
    // cache). Every admission outcome must land in exactly one terminal
    // counter.
    let mut handles = Vec::new();
    let mut rejected_at_submit = 0u64;
    for round in 0..4 {
        for i in 0..6 {
            // Reuse a few keys so coalescing and cache hits both occur.
            let idx = if round % 2 == 0 { i } else { i % 3 };
            match server.submit(request(idx)) {
                Ok(h) => handles.push(h),
                Err(ServeError::Overloaded { .. }) => rejected_at_submit += 1,
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
    }
    // Waiters joined onto an overloaded leader surface the error at
    // wait(); either way the request already reached a terminal counter.
    for h in handles {
        let _ = h.wait();
    }
    server.shutdown();
    let m = server.metrics();
    assert!(rejected_at_submit > 0, "tiny queue must reject under flood");
    assert!(m.completed > 0, "most of the flood completes");
    assert_eq!(
        m.completed + m.failed + m.rejected,
        m.submitted,
        "terminal counters must partition admissions: {m:?}"
    );
}

#[test]
fn traced_forecast_records_full_span_tree() {
    let c = ctx();
    let _gate = TRACE_GATE.lock().unwrap();
    cobs::trace::set_enabled(true);
    let server = ForecastServer::new(
        c.spec.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            cache_capacity: 8,
            ..Default::default()
        },
    );

    // Cold request: admission → queue → replica, all on one trace.
    let h = server.submit(request(0)).expect("admitted");
    let tid = h.trace_id().expect("tracing enabled mints a trace id");
    h.wait().expect("answered");
    let t = cobs::trace::lookup(tid).expect("trace retained in registry");
    let rendered = t.render();
    for needle in [
        "forecast",
        "submit.validate",
        "submit.cache_probe",
        "queue.wait",
        "replica.predict_batch",
    ] {
        assert!(
            rendered.contains(needle),
            "span {needle:?} missing from trace:\n{rendered}"
        );
    }
    assert!(
        t.span_seconds(t.root()).is_some(),
        "root span closed by the time wait() returns:\n{rendered}"
    );

    // Warm repeat: the cache hit still gets a (short) closed trace.
    let h2 = server.submit(request(0)).expect("admitted");
    let tid2 = h2.trace_id().expect("trace minted on the hit path too");
    assert_ne!(tid, tid2, "each submission gets its own trace");
    h2.wait().expect("answered from cache");
    let t2 = cobs::trace::lookup(tid2).expect("trace retained");
    assert!(
        t2.span_seconds(t2.root()).is_some(),
        "cache-hit path closes the root before responding"
    );
    assert!(
        t2.render().contains("submit.cache_probe"),
        "hit path records its probe: {}",
        t2.render()
    );
    cobs::trace::set_enabled(false);
}

#[test]
fn span_stack_survives_panic_unwind_in_worker_thread() {
    let _gate = TRACE_GATE.lock().unwrap();
    cobs::trace::set_enabled(true);
    let t = cobs::trace::start("forecast");
    let handle = t.clone();
    // Mirror a replica's structure: it enters the request's trace, opens
    // the compute span inside catch_unwind, and keeps serving after the
    // model panics.
    std::thread::Builder::new()
        .name("serve-replica-test".into())
        .spawn(move || {
            let _enter = cobs::trace::enter(&handle, handle.root());
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _span = cobs::trace::span("replica.predict_batch");
                panic!("kernel exploded mid-batch");
            }));
            assert!(unwound.is_err());
            // The guard's Drop ran during unwinding, so the next span
            // must attach back under the root, not under the dead span.
            let _span = cobs::trace::span("replica.predict_batch");
        })
        .unwrap()
        .join()
        .unwrap();
    t.close();
    let rendered = t.render();
    assert!(
        rendered.contains("replica.predict_batch x2"),
        "both compute spans must be siblings under the root \
         (panicked + recovered), aggregated in render:\n{rendered}"
    );
    cobs::trace::set_enabled(false);
}
