//! Training-path benchmark: batch-first tape training throughput
//! (samples/sec headline) and every hand-written backward kernel
//! scalar-vs-blocked, emitting a `BENCH_train.json` summary.
//!
//! The backward table mirrors the forward table in `bench_kernels`: the
//! matmul adjoints (strided GEBP), the full linear+bias backward, the
//! GELU gradient chain, softmax/layer-norm row gradients, and the fused
//! attention backward. Acceptance: every row ≥ 2× over the scalar
//! reference; the headline row is the matmul adjoint pair. The fused Adam
//! step is reported separately (it is bandwidth-bound, so its interesting
//! ratio is fused-vs-unfused, not scalar-vs-SIMD).
//!
//! `--smoke` shrinks shapes and repetitions for CI; `BENCH_TRAIN_OUT`
//! overrides the output path.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use cbench::best_of_ms;
use cocean::Snapshot;
use cpipeline::{
    encode_episode, stack_episodes, EncodeConfig, Episode, NormStats, TrainConfig, Trainer,
};
use csurrogate::{SwinConfig, SwinSurrogate};
use ctensor::backend::{self, AdamStepSpec, AttentionSpec, MatmulSpec, ScalarRef, UnaryOp};
use ctensor::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Row {
    name: &'static str,
    scalar_ms: f64,
    blocked_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.blocked_ms
    }
}

fn compare(name: &'static str, reps: usize, mut f: impl FnMut()) -> Row {
    let blocked_ms = best_of_ms(reps, &mut f);
    let scalar_ms = {
        let _oracle = backend::scoped(Arc::new(ScalarRef));
        best_of_ms(reps, &mut f)
    };
    let r = Row {
        name,
        scalar_ms,
        blocked_ms,
    };
    eprintln!(
        "[train] {name}: scalar {scalar_ms:.2} ms, blocked {blocked_ms:.2} ms ({:.1}x)",
        r.speedup()
    );
    r
}

fn synthetic_episodes(cfg: &SwinConfig, count: usize) -> Vec<Episode> {
    (0..count)
        .map(|e| {
            let snaps: Vec<Snapshot> = (0..=cfg.t_out)
                .map(|t| {
                    let phase = (e * 5 + t) as f32 * 0.4;
                    let mut s = Snapshot {
                        time: t as f64 * 1800.0,
                        nz: cfg.nz,
                        ny: cfg.ny,
                        nx: cfg.nx,
                        zeta: vec![0.0; cfg.ny * cfg.nx],
                        u: vec![0.05; cfg.nz * cfg.ny * cfg.nx],
                        v: vec![0.0; cfg.nz * cfg.ny * cfg.nx],
                        w: vec![0.0; cfg.nz * cfg.ny * cfg.nx],
                    };
                    for (i, z) in s.zeta.iter_mut().enumerate() {
                        *z = 0.3 * (phase + i as f32 * 0.7).sin();
                    }
                    s
                })
                .collect();
            encode_episode(&snaps, &NormStats::identity(), &EncodeConfig::default())
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rng = StdRng::seed_from_u64(0);
    let mut rows: Vec<Row> = Vec::new();

    // ------------------------------------------------ backward kernel table

    // Headline: the matmul adjoint pair (dA = g·Bᵀ, dB = Aᵀ·g) on the
    // paper-shaped batched matmul from the forward headline.
    {
        let (batch, m, k, n) = if smoke {
            (2usize, 96usize, 96usize, 96usize)
        } else {
            (8usize, 256usize, 256usize, 256usize)
        };
        let a = ctensor::init::randn(&[batch * m * k], 1.0, &mut rng);
        let b = ctensor::init::randn(&[batch * k * n], 0.1, &mut rng);
        let g = ctensor::init::randn(&[batch * m * n], 0.1, &mut rng);
        let offsets: Vec<(usize, usize)> = (0..batch).map(|i| (i, i)).collect();
        let mut da = vec![0.0f32; batch * m * k];
        let mut db = vec![0.0f32; batch * k * n];
        rows.push(compare(
            "matmul_grad_pair",
            if smoke { 2 } else { 5 },
            || {
                let spec = MatmulSpec {
                    m,
                    k,
                    n,
                    batch_offsets: &offsets,
                    bias: None,
                };
                da.iter_mut().for_each(|v| *v = 0.0);
                db.iter_mut().for_each(|v| *v = 0.0);
                let be = backend::current();
                be.matmul_grad_a(g.as_slice(), b.as_slice(), &mut da, &spec);
                be.matmul_grad_b(a.as_slice(), g.as_slice(), &mut db, &spec);
                std::hint::black_box((&da, &db));
            },
        ));
    }

    // Full linear+bias backward: dX = g·Wᵀ, dW = Xᵀ·g (strided GEBP) and
    // dbias = column sums, on the token-rows × embed-dims linear shape.
    {
        let (rows_n, k, cols) = if smoke {
            (1024usize, 96usize, 288usize)
        } else {
            (4096usize, 96usize, 288usize)
        };
        let x = ctensor::init::randn(&[rows_n * k], 1.0, &mut rng);
        let w = ctensor::init::randn(&[k * cols], 0.1, &mut rng);
        let g = ctensor::init::randn(&[rows_n * cols], 1.0, &mut rng);
        let offsets = [(0usize, 0usize)];
        let mut dx = vec![0.0f32; rows_n * k];
        let mut dw = vec![0.0f32; k * cols];
        let mut dbias = vec![0.0f32; cols];
        rows.push(compare(
            "linear_bias_grad",
            if smoke { 5 } else { 10 },
            || {
                let spec = MatmulSpec {
                    m: rows_n,
                    k,
                    n: cols,
                    batch_offsets: &offsets,
                    bias: None,
                };
                dx.iter_mut().for_each(|v| *v = 0.0);
                dw.iter_mut().for_each(|v| *v = 0.0);
                dbias.iter_mut().for_each(|v| *v = 0.0);
                let be = backend::current();
                be.matmul_grad_a(g.as_slice(), w.as_slice(), &mut dx, &spec);
                be.matmul_grad_b(x.as_slice(), g.as_slice(), &mut dw, &spec);
                be.col_sums(g.as_slice(), &mut dbias, cols);
                std::hint::black_box((&dx, &dw, &dbias));
            },
        ));
    }

    // GELU gradient on an episode-sized activation.
    {
        let len = if smoke { 512 * 1024 } else { 2 * 1024 * 1024 };
        let x = ctensor::init::randn(&[len], 1.0, &mut rng);
        let mut out = vec![0.0f32; len];
        rows.push(compare("gelu_grad", 10, || {
            backend::current().unary(UnaryOp::GeluGrad, x.as_slice(), &mut out);
            std::hint::black_box(&out);
        }));
    }

    // Softmax and layer-norm row gradients over attention-score rows.
    // Cache-resident on purpose: in training these rows are produced and
    // consumed inside a cache-warm attention block, so a DRAM-streaming
    // shape would measure memory bandwidth, not the row kernels.
    {
        let (nrows, rowlen) = if smoke {
            (16 * 64, 64usize)
        } else {
            (32 * 64, 64usize)
        };
        let y = {
            let logits = ctensor::init::randn(&[nrows, rowlen], 1.0, &mut rng);
            logits.softmax_last()
        };
        let x = ctensor::init::randn(&[nrows * rowlen], 1.0, &mut rng);
        let dy = ctensor::init::randn(&[nrows * rowlen], 1.0, &mut rng);
        let mut dx = vec![0.0f32; nrows * rowlen];
        rows.push(compare("softmax_grad_rows", 20, || {
            backend::current().softmax_grad_rows(y.as_slice(), dy.as_slice(), &mut dx, rowlen);
            std::hint::black_box(&dx);
        }));
        rows.push(compare("layernorm_grad_rows", 20, || {
            backend::current().layernorm_grad_rows(
                x.as_slice(),
                dy.as_slice(),
                &mut dx,
                rowlen,
                1e-5,
            );
            std::hint::black_box(&dx);
        }));
    }

    // Fused attention backward: windowed Swin shape.
    {
        let (bh, n, d) = if smoke {
            (24usize, 64usize, 8usize)
        } else {
            (96usize, 64usize, 8usize)
        };
        let sz = bh * n * d;
        let q = ctensor::init::randn(&[sz], 1.0, &mut rng);
        let k = ctensor::init::randn(&[sz], 1.0, &mut rng);
        let v = ctensor::init::randn(&[sz], 1.0, &mut rng);
        let dout = ctensor::init::randn(&[sz], 1.0, &mut rng);
        let scale = 1.0 / (d as f32).sqrt();
        let mut dq = vec![0.0f32; sz];
        let mut dk = vec![0.0f32; sz];
        let mut dv = vec![0.0f32; sz];
        rows.push(compare("attention_grad", if smoke { 3 } else { 5 }, || {
            let spec = AttentionSpec {
                batch: bh,
                heads: 3,
                n,
                d,
                scale,
                mask: None,
                mask_windows: 1,
            };
            dq.iter_mut().for_each(|x| *x = 0.0);
            dk.iter_mut().for_each(|x| *x = 0.0);
            dv.iter_mut().for_each(|x| *x = 0.0);
            backend::current().attention_grad(
                q.as_slice(),
                k.as_slice(),
                v.as_slice(),
                dout.as_slice(),
                &mut dq,
                &mut dk,
                &mut dv,
                &spec,
            );
            std::hint::black_box((&dq, &dk, &dv));
        }));
    }

    // Fused Adam step: single pass over params + grads + both moments,
    // versus the unfused tensor-op composite it replaced (eight whole-array
    // passes with a fresh temporary each). The fused/unfused ratio is the
    // optimizer-fusion win; both run under the Blocked backend. Reported
    // separately from the backward table — the update is O(memory), not a
    // backward kernel, so the scalar-vs-blocked ratio is bandwidth-bound.
    let adam = {
        let len = if smoke { 512 * 1024 } else { 2 * 1024 * 1024 };
        let p0 = ctensor::init::randn(&[len], 1.0, &mut rng);
        let g = ctensor::init::randn(&[len], 0.1, &mut rng);
        let spec = AdamStepSpec {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            bc1: 0.1,
            bc2: 1e-3,
        };
        let mut p = p0.as_slice().to_vec();
        let mut m = vec![0.0f32; len];
        let mut v = vec![0.0f32; len];
        let mut fused = || {
            backend::current().adam_step(&mut p, g.as_slice(), &mut m, &mut v, &spec);
            std::hint::black_box((&p, &m, &v));
        };
        let fused_blocked_ms = best_of_ms(10, &mut fused);
        let fused_scalar_ms = {
            let _oracle = backend::scoped(Arc::new(ScalarRef));
            best_of_ms(10, &mut fused)
        };

        let gt = Tensor::from_vec(g.as_slice().to_vec(), &[len]);
        let mut pt = p0.clone();
        let mut mt = Tensor::zeros(&[len]);
        let mut vt = Tensor::zeros(&[len]);
        let unfused_blocked_ms = best_of_ms(10, || {
            mt = mt.scale(spec.beta1).add(&gt.scale(1.0 - spec.beta1));
            vt = vt
                .scale(spec.beta2)
                .add(&gt.square().scale(1.0 - spec.beta2));
            let m_hat = mt.scale(1.0 / spec.bc1);
            let v_hat = vt.scale(1.0 / spec.bc2);
            let denom = v_hat.sqrt().map(|x| x + spec.eps);
            let update = m_hat.div(&denom).scale(spec.lr);
            let decay = pt.scale(spec.lr * spec.weight_decay);
            pt = pt.sub(&update).sub(&decay);
            std::hint::black_box((&pt, &mt, &vt));
        });
        eprintln!(
            "[train] adam_step: fused blocked {fused_blocked_ms:.2} ms, fused scalar \
             {fused_scalar_ms:.2} ms, unfused blocked {unfused_blocked_ms:.2} ms \
             ({:.1}x fusion win)",
            unfused_blocked_ms / fused_blocked_ms
        );
        (len, fused_blocked_ms, fused_scalar_ms, unfused_blocked_ms)
    };

    // --------------------------------------------- samples/sec headline

    // Batch-first training throughput on the tiny Swin surrogate: stacked
    // 4-episode batches through forward, tape backward, and the fused
    // optimizer — the full training step the paper measures per-GPU.
    let (batch_size, steps) = if smoke {
        (4usize, 2usize)
    } else {
        (4usize, 6usize)
    };
    let model_cfg = SwinConfig::tiny(8, 8, 4, 2);
    let episodes = synthetic_episodes(&model_cfg, batch_size);
    let batch = stack_episodes(&episodes);
    let model = SwinSurrogate::new(model_cfg.clone(), 0);
    let mask = Tensor::ones(&[model_cfg.ny, model_cfg.nx]);
    let mut trainer = Trainer::new(model, mask, TrainConfig::default());
    trainer.step(&batch); // warmup (backend caches, allocator)
    let t0 = Instant::now();
    let mut instances = 0usize;
    for _ in 0..steps {
        instances += trainer.step(&batch).instances;
    }
    let train_wall = t0.elapsed().as_secs_f64();
    let samples_per_sec = instances as f64 / train_wall.max(1e-9);
    eprintln!(
        "[train] batch-first training: {instances} instances in {train_wall:.3}s \
         = {samples_per_sec:.2} samples/sec"
    );

    // ------------------------------------------------------------- report
    let hw_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let headline = rows[0].speedup();
    let all_pass = rows.iter().all(|r| r.speedup() >= 2.0);
    let stamp = cbench::RunStamp::capture("blocked-vs-scalar");
    let mut json = format!(
        "{{\n  \"bench\": \"train\",\n  \"unit\": \"ms\",\n  {},\n  \"hardware_cores\": {},\n  \"smoke\": {},\n  \"samples_per_sec\": {:.3},\n  \"train\": {{\"batch\": {}, \"steps\": {}, \"instances\": {}, \"wall_seconds\": {:.4}}},\n  \"backward_results\": [\n",
        stamp.json_fields(),
        hw_cores,
        smoke,
        samples_per_sec,
        batch_size,
        steps,
        instances,
        train_wall,
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ms\": {:.4}, \"blocked_ms\": {:.4}, \"speedup\": {:.3}, \"pass_2x\": {}}}{}\n",
            r.name,
            r.scalar_ms,
            r.blocked_ms,
            r.speedup(),
            r.speedup() >= 2.0,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let (adam_len, adam_fused_blocked, adam_fused_scalar, adam_unfused_blocked) = adam;
    json.push_str(&format!(
        "  ],\n  \"optimizer\": {{\"name\": \"adam_step\", \"elements\": {adam_len}, \
         \"fused_blocked_ms\": {adam_fused_blocked:.4}, \"fused_scalar_ms\": {adam_fused_scalar:.4}, \
         \"unfused_blocked_ms\": {adam_unfused_blocked:.4}, \"fusion_speedup\": {:.3}}},\n  \
         \"headline_backward_speedup\": {headline:.3},\n  \"all_rows_pass_2x\": {all_pass}\n}}\n",
        adam_unfused_blocked / adam_fused_blocked,
    ));

    let json = cbench::telemetry::splice_registry(json);
    let path = std::env::var("BENCH_TRAIN_OUT").unwrap_or_else(|_| "BENCH_train.json".into());
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| eprintln!("[train] could not write {path}: {e}"));
    println!("{json}");

    eprintln!(
        "[train] headline backward (matmul adjoints) speedup: {headline:.1}x ({}); all rows >= 2x: {all_pass}",
        if headline >= 2.0 { "PASS >= 2x" } else { "below 2x target" }
    );
}
