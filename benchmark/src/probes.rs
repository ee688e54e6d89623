//! Per-layer probes: each times one public call of a layer in isolation,
//! on the workload's own inputs and at the shapes the small model issues
//! for one sample. They run in every traced run, so their rows read the
//! same on every workload; the rows that differ between workloads come
//! from the traced pass itself.

use std::hint::black_box;
use std::time::Instant;

use ccore::TrainedSurrogate;
use cocean::{Roms, Snapshot};
use cphysics::{Verifier, VerifierConfig, ACCEPTED_THRESHOLD};
use cpipeline::{decode_prediction, encode_episode, stack_episodes};
use cserve::ForecastServer;
use csurrogate::window::{padded_dims, window_count};
use ctensor::backend::{self, AdamStepSpec, AttentionSpec, MatmulSpec, UnaryOp};
use ctensor::prelude::{Graph, Module, Precision};
use ctensor::quant::{quantize_acts, QuantizedTensor};

use crate::context::{Context, TEST_YEAR};
use crate::gen::Rng;
use crate::report::{Metric, Metrics};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::RunCfg;

/// A timing sample lasts at least this long, so the clock's resolution
/// and the call into `Instant::now` stay below a percent of it.
const MIN_SAMPLE_S: f64 = 200e-6;
/// Samples per probe.
const SAMPLES: usize = 15;

/// Median seconds of one call of `f`.
fn time_call(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64();
    let calls = ((MIN_SAMPLE_S / once.max(1e-9)).ceil() as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

fn noise(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.next_f64() as f32 - 0.5).collect()
}

/// A kernel's time with the operation and byte counts computed from its
/// tensor sizes (not measured: cache misses move more bytes than these).
fn kernel_rows(rows: &mut Metrics, names: [&'static str; 3], seconds: f64, flops: f64, bytes: f64) {
    rows.insert(names[0], Metric::point(seconds * 1e6));
    rows.insert(names[1], Metric::point(flops / seconds / 1e9));
    rows.insert(names[2], Metric::point(bytes / seconds / 1e9));
}

pub fn run(
    cfg: &RunCfg,
    ctx: &Context,
    surrogate: &TrainedSurrogate,
    tracer: &Tracer,
    notes: &mut Vec<String>,
) -> Metrics {
    let mut rows = Metrics::new();
    host(cfg.nproc, &mut rows, notes);
    kernels(surrogate, &mut rows);
    layers(ctx, surrogate, tracer, &mut rows);
    rows
}

// ------------------------------------------------------------------- host

/// Peak single-thread AVX2 FMA rate: twelve independent 8-lane
/// accumulators hide the FMA latency on both ports.
#[cfg(target_arch = "x86_64")]
fn fma_peak_gflops() -> Option<f64> {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};

    #[target_feature(enable = "avx2,fma")]
    unsafe fn spin(iters: usize) -> f32 {
        // Opaque operands: with constants the compiler finds the fixed
        // point x·a + b = x and deletes the loop.
        let (a, b) = (
            _mm256_set1_ps(black_box(0.999_999)),
            _mm256_set1_ps(black_box(1e-6)),
        );
        let mut acc = [_mm256_set1_ps(black_box(1.0)); 12];
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = _mm256_fmadd_ps(*x, a, b);
            }
        }
        let mut out = [0.0f32; 8];
        let mut sum = 0.0;
        for x in acc {
            _mm256_storeu_ps(out.as_mut_ptr(), x);
            sum += out.iter().sum::<f32>();
        }
        sum
    }

    if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
        return None;
    }
    const ITERS: usize = 200_000;
    let seconds = time_call(|| {
        // SAFETY: AVX2 and FMA were detected on this CPU just above, which
        // is all `spin` requires; it touches no memory but its own locals.
        black_box(unsafe { spin(black_box(ITERS)) });
    });
    Some((ITERS * 12 * 8 * 2) as f64 / seconds / 1e9)
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_peak_gflops() -> Option<f64> {
    None
}

/// Bytes of the last-level cache, as the kernel reports it.
fn llc_bytes() -> Option<usize> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| std::fs::read_to_string(format!("{dir}/index{i}/size")).ok())
        .filter_map(|s| s.trim().strip_suffix('K')?.parse::<usize>().ok())
        .map(|kib| kib * 1024)
        .max()
}

/// Triad `a = b + s·c` over arrays meant to be four times the last-level
/// cache; the arrays are capped so a traced run stays within its time.
fn stream_gbs(notes: &mut Vec<String>) -> f64 {
    const MIN_BYTES: usize = 64 << 20;
    const MAX_BYTES: usize = 256 << 20;
    let llc = llc_bytes();
    let bytes = llc.map_or(MIN_BYTES, |l| (4 * l).clamp(MIN_BYTES, MAX_BYTES));
    notes.push(format!(
        "host.stream_gbs: 3 arrays of {} MiB each, last-level cache {}{}",
        bytes >> 20,
        llc.map_or("unknown".into(), |l| format!("{} MiB", l >> 20)),
        if llc.is_some_and(|l| 4 * l > bytes) {
            " (arrays capped below 4x the cache: the figure may include cache hits)"
        } else {
            ""
        }
    ));
    let n = bytes / 4;
    let (b, c) = (vec![1.0f32; n], vec![2.0f32; n]);
    let mut a = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 3.0 * z;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3 * bytes) as f64 / best / 1e9
}

fn host(nproc: usize, rows: &mut Metrics, notes: &mut Vec<String>) {
    rows.insert("host.nproc", Metric::point(nproc as f64));
    let peak = fma_peak_gflops().unwrap_or_else(|| {
        notes.push("host.fma_peak_gflops: no AVX2+FMA on this host, reported as 0".into());
        0.0
    });
    rows.insert("host.fma_peak_gflops", Metric::point(peak));
    rows.insert("host.stream_gbs", Metric::point(stream_gbs(notes)));
}

// ---------------------------------------------------------------- kernels

/// `ctensor` kernels through the backend the model runs on, at the
/// first stage's shapes for one sample.
fn kernels(surrogate: &TrainedSurrogate, rows: &mut Metrics) {
    let cfg = &surrogate.model.cfg;
    let be = backend::current();
    let mut rng = Rng::new(1);
    let grid = cfg.token_grid();
    let dims = [grid.0, grid.1, grid.2, grid.3];
    let win = cfg.window_at(0);
    let (dim, heads) = (cfg.dim_at(0), cfg.num_heads[0]);
    let tokens: usize = dims.iter().product();
    let padded: usize = padded_dims(dims, win).iter().product();

    // The qkv projection: every padded token, dim -> 3·dim, fused bias.
    let (m, k, n) = (padded, dim, 3 * dim);
    let (x, w, bias) = (
        noise(m * k, &mut rng),
        noise(k * n, &mut rng),
        noise(n, &mut rng),
    );
    let mut out = vec![0.0f32; m * n];
    let spec = MatmulSpec {
        m,
        k,
        n,
        batch_offsets: &[(0, 0)],
        bias: Some(&bias),
    };
    let flops = (2 * m * k * n) as f64;
    let matmul_s = time_call(|| {
        be.matmul(&x, &w, &mut out, &spec);
        black_box(&mut out);
    });
    kernel_rows(
        rows,
        [
            "ctensor.matmul.us",
            "ctensor.matmul.gflops",
            "ctensor.matmul.gbs_computed",
        ],
        matmul_s,
        flops,
        (4 * (m * k + k * n + n + m * n)) as f64,
    );

    // The same projection on the int8 path, activation quantisation
    // included: a request pays for both.
    let qw = QuantizedTensor::quantize(&w, k, n);
    let q_s = time_call(|| {
        let acts = quantize_acts(&x, m, k);
        be.qlinear_i8(&acts, &qw, Some(&bias), &mut out);
        black_box(&mut out);
    });
    kernel_rows(
        rows,
        [
            "ctensor.qlinear_i8.us",
            "ctensor.qlinear_i8.gflops",
            "ctensor.qlinear_i8.gbs_computed",
        ],
        q_s,
        flops,
        (4 * m * k + m * k + qw.nbytes() + 4 * n + 4 * m * n) as f64,
    );
    rows.insert(
        "ctensor.qlinear_i8.speedup_vs_f32",
        Metric::point(matmul_s / q_s),
    );

    let (dc, mut da, mut db) = (
        noise(m * n, &mut rng),
        vec![0.0f32; m * k],
        vec![0.0f32; k * n],
    );
    let grad_s = time_call(|| {
        be.matmul_grad_a(&dc, &w, &mut da, &spec);
        be.matmul_grad_b(&x, &dc, &mut db, &spec);
        black_box((&mut da, &mut db));
    });
    rows.insert("ctensor.matmul_grad.us", Metric::point(grad_s * 1e6));

    // Windowed attention: every window and head, window volume × head dim.
    let (batch, wn, d) = (
        window_count(dims, win) * heads,
        win.iter().product::<usize>(),
        dim / heads,
    );
    let (q, kk, v) = (
        noise(batch * wn * d, &mut rng),
        noise(batch * wn * d, &mut rng),
        noise(batch * wn * d, &mut rng),
    );
    let mut att = vec![0.0f32; batch * wn * d];
    let aspec = AttentionSpec {
        batch,
        heads,
        n: wn,
        d,
        scale: 1.0 / (d as f32).sqrt(),
        mask: None,
        mask_windows: 1,
    };
    let att_s = time_call(|| {
        be.attention(&q, &kk, &v, &mut att, &aspec);
        black_box(&mut att);
    });
    // Q·Kᵀ and P·V are 2·n²·d each; the softmax between them is not counted.
    kernel_rows(
        rows,
        [
            "ctensor.attention.us",
            "ctensor.attention.gflops",
            "ctensor.attention.gbs_computed",
        ],
        att_s,
        (4 * batch * wn * wn * d) as f64,
        (4 * 4 * batch * wn * d) as f64,
    );
    let dout = noise(batch * wn * d, &mut rng);
    let (mut dq, mut dk, mut dv) = (att.clone(), att.clone(), att.clone());
    let att_grad_s = time_call(|| {
        be.attention_grad(&q, &kk, &v, &dout, &mut dq, &mut dk, &mut dv, &aspec);
        black_box((&mut dq, &mut dk, &mut dv));
    });
    rows.insert("ctensor.attention_grad.us", Metric::point(att_grad_s * 1e6));

    // Row kernels. Their operation counts are nominal (5 per softmax
    // element, 8 per layer-norm element, 10 per GELU element): the byte
    // rate is the one to read.
    let scores = noise(batch * wn * wn, &mut rng);
    let mut probs = vec![0.0f32; scores.len()];
    let s = time_call(|| {
        be.softmax_rows(&scores, &mut probs, wn);
        black_box(&mut probs);
    });
    kernel_rows(
        rows,
        [
            "ctensor.softmax_rows.us",
            "ctensor.softmax_rows.gflops",
            "ctensor.softmax_rows.gbs_computed",
        ],
        s,
        (5 * scores.len()) as f64,
        (8 * scores.len()) as f64,
    );
    let acts = noise(tokens * dim, &mut rng);
    let mut normed = vec![0.0f32; acts.len()];
    let s = time_call(|| {
        be.layernorm_rows(&acts, &mut normed, dim, 1e-5);
        black_box(&mut normed);
    });
    kernel_rows(
        rows,
        [
            "ctensor.layernorm_rows.us",
            "ctensor.layernorm_rows.gflops",
            "ctensor.layernorm_rows.gbs_computed",
        ],
        s,
        (8 * acts.len()) as f64,
        (8 * acts.len()) as f64,
    );
    let hidden = noise(tokens * (dim as f32 * cfg.mlp_ratio) as usize, &mut rng);
    let mut gelu = vec![0.0f32; hidden.len()];
    let s = time_call(|| {
        be.unary(UnaryOp::Gelu, &hidden, &mut gelu);
        black_box(&mut gelu);
    });
    kernel_rows(
        rows,
        [
            "ctensor.gelu.us",
            "ctensor.gelu.gflops",
            "ctensor.gelu.gbs_computed",
        ],
        s,
        (10 * hidden.len()) as f64,
        (8 * hidden.len()) as f64,
    );

    // One fused Adam update over as many values as the model has parameters.
    let n_params: usize = surrogate.model.params().iter().map(|p| p.numel()).sum();
    let (mut p, g) = (noise(n_params, &mut rng), noise(n_params, &mut rng));
    let (mut m1, mut m2) = (vec![0.0f32; n_params], vec![0.0f32; n_params]);
    let adam = AdamStepSpec {
        lr: 1e-3,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        weight_decay: 0.0,
        bc1: 0.1,
        bc2: 0.001,
    };
    let s = time_call(|| {
        be.adam_step(&mut p, &g, &mut m1, &mut m2, &adam);
        black_box(&mut p);
    });
    rows.insert("ctensor.adam_step.us", Metric::point(s * 1e6));

    let peak = rows["host.fma_peak_gflops"].value;
    let share = if peak > 0.0 {
        rows["ctensor.matmul.gflops"].value / peak
    } else {
        0.0
    };
    rows.insert("ctensor.matmul.peak_share", Metric::point(share));
}

// ----------------------------------------------------------------- layers

/// One episode through `ccore`'s public steps, each under its own span,
/// as `TrainedSurrogate::predict_episode` + `Verifier::check_episode`
/// chain them. Land masking is private to `ccore`, so it is missing here
/// and shows up in `bench.waterfall_residual_share`.
fn replay_episode(
    surrogate: &TrainedSurrogate,
    verifier: &Verifier,
    window: &[Snapshot],
    tracer: &Tracer,
    op: u64,
) {
    let t = Some(tracer);
    let root = tracer.begin("episode.replay", None, op);
    let ep = trace::spanned(t, "cpipeline.encode", Some(root), op, || {
        encode_episode(window, &surrogate.stats, &surrogate.encode)
    });
    let (g, p3, p2) = trace::spanned(t, "csurrogate.forward", Some(root), op, || {
        let mut g = Graph::inference_with_precision(Precision::F32);
        let x3 = g.constant(ep.x3d.clone());
        let x2 = g.constant(ep.x2d.clone());
        let (p3, p2) = surrogate.model.forward(&mut g, x3, x2);
        (g, p3, p2)
    });
    let steps = trace::spanned(t, "cpipeline.decode", Some(root), op, || {
        decode_prediction(
            g.value(p3),
            g.value(p2),
            &surrogate.stats,
            ep.t0,
            surrogate.snapshot_interval,
        )
    });
    trace::spanned(t, "cphysics.check_episode", Some(root), op, || {
        black_box(verifier.check_episode(&window[0], &steps));
    });
    tracer.end(root);
}

fn layers(ctx: &Context, surrogate: &TrainedSurrogate, tracer: &Tracer, rows: &mut Metrics) {
    let ms = |s: f64| Metric::point(s * 1e3);
    let us = |s: f64| Metric::point(s * 1e6);
    let windows: Vec<&[Snapshot]> = (0..8).map(|i| ctx.window(i)).collect();
    let window = windows[0];

    // csurrogate: the forward alone, per precision and at batch 8.
    let one = encode_episode(window, &surrogate.stats, &surrogate.encode);
    let eight = stack_episodes(
        &windows
            .iter()
            .map(|w| encode_episode(w, &surrogate.stats, &surrogate.encode))
            .collect::<Vec<_>>(),
    );
    let forward = |p: Precision, ep: &cpipeline::Episode| {
        time_call(|| {
            let mut g = Graph::inference_with_precision(p);
            let x3 = g.constant(ep.x3d.clone());
            let x2 = g.constant(ep.x2d.clone());
            black_box(surrogate.model.forward(&mut g, x3, x2));
        })
    };
    let forward_f32 = forward(Precision::F32, &one);
    rows.insert("csurrogate.forward.ms.b1.f32", ms(forward_f32));
    rows.insert(
        "csurrogate.forward.ms.b1.f16",
        ms(forward(Precision::F16, &one)),
    );
    rows.insert(
        "csurrogate.forward.ms.b1.int8",
        ms(forward(Precision::Int8, &one)),
    );
    rows.insert(
        "csurrogate.forward.ms_per_sample.b8.f32",
        ms(forward(Precision::F32, &eight) / 8.0),
    );

    // cpipeline: what wraps the forward.
    rows.insert(
        "cpipeline.encode.us",
        us(time_call(|| {
            black_box(encode_episode(window, &surrogate.stats, &surrogate.encode));
        })),
    );
    let eps = vec![one.clone(); 8];
    rows.insert(
        "cpipeline.stack8.us",
        us(time_call(|| {
            black_box(stack_episodes(&eps));
        })),
    );
    let mut g = Graph::inference();
    let (x3, x2) = (g.constant(one.x3d.clone()), g.constant(one.x2d.clone()));
    let (p3, p2) = surrogate.model.forward(&mut g, x3, x2);
    rows.insert(
        "cpipeline.decode.us",
        us(time_call(|| {
            black_box(decode_prediction(
                g.value(p3),
                g.value(p2),
                &surrogate.stats,
                one.t0,
                surrogate.snapshot_interval,
            ));
        })),
    );

    // ccore: the whole predict, alone and batched, and replica spin-up.
    let predict = time_call(|| {
        black_box(surrogate.predict_episode(window));
    });
    let batched = time_call(|| {
        black_box(
            surrogate
                .predict_batch(&windows)
                .expect("eight valid windows"),
        );
    }) / 8.0;
    rows.insert("ccore.predict_episode.ms", ms(predict));
    rows.insert("ccore.predict_batch8.ms_per_sample", ms(batched));
    rows.insert("ccore.batch_efficiency", Metric::point(predict / batched));
    rows.insert(
        "csurrogate.forward.share_of_predict",
        Metric::point(forward_f32 / predict),
    );
    let spec = surrogate.spec();
    for (name, p) in [
        ("ccore.instantiate.ms.f32", Precision::F32),
        ("ccore.instantiate.ms.int8", Precision::Int8),
    ] {
        let spec = spec.clone().with_precision(p);
        rows.insert(
            name,
            ms(time_call(|| {
                black_box(spec.instantiate());
            })),
        );
    }

    // cphysics: the verdict on the episode just predicted.
    let verifier = Verifier::new(
        &ctx.grid,
        VerifierConfig {
            threshold: ACCEPTED_THRESHOLD,
        },
    );
    let steps = surrogate.predict_episode(window);
    let check = time_call(|| {
        black_box(verifier.check_episode(&window[0], &steps));
    });
    rows.insert("cphysics.check_episode.us", us(check));
    rows.insert(
        "cphysics.share_of_episode",
        Metric::point(check / (predict + check)),
    );

    // The waterfall: what the replayed steps leave unexplained of the
    // whole calls timed above.
    const REPLAYS: u64 = 20;
    for op in 0..REPLAYS {
        replay_episode(surrogate, &verifier, window, tracer, op);
    }
    let spans = tracer.spans();
    let explained: f64 = [
        "cpipeline.encode",
        "csurrogate.forward",
        "cpipeline.decode",
        "cphysics.check_episode",
    ]
    .iter()
    .map(|name| median(&trace::durations(&spans, name)) * 1e-9)
    .sum();
    rows.insert(
        "bench.waterfall_residual_share",
        Metric::point(1.0 - explained / (predict + check)),
    );

    // cocean: the fallback arm's three calls.
    let ocean = ctx.scenario.ocean_config(&ctx.grid, TEST_YEAR);
    let t_out = ctx.t_out();
    let mut roms = Roms::new(&ctx.grid, ocean.clone());
    rows.insert(
        "cocean.load.us",
        us(time_call(|| {
            roms.load(&window[0]);
        })),
    );
    rows.insert(
        "cocean.record.ms_per_step",
        ms(time_call(|| {
            roms.load(&window[0]);
            black_box(roms.record(t_out, ctx.scenario.snapshot_interval));
        }) / t_out as f64),
    );
    let t = Instant::now();
    let mut fresh = Roms::new(&ctx.grid, ocean);
    fresh.spinup(ctx.scenario.spinup);
    black_box(&fresh.state);
    rows.insert("cocean.spinup_s", Metric::point(t.elapsed().as_secs_f64()));

    // cserve: the front door's fixed costs.
    let request_window = window.to_vec();
    rows.insert(
        "cserve.hash_window.us",
        us(time_call(|| {
            black_box(cserve::request::hash_window(&request_window));
        })),
    );
    let spin_ups: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut server = ForecastServer::new(spec.clone(), crate::serve::config(0));
            let s = t.elapsed().as_secs_f64();
            server.shutdown();
            s
        })
        .collect();
    rows.insert("cserve.new.ms", ms(median(&spin_ups)));
}
