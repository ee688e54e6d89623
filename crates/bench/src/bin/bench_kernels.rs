//! The scalar-vs-blocked oracle ratios: every forward kernel and every
//! hand-written backward kernel timed best-of-N under `Blocked` and under
//! the `ScalarRef` oracle, on paper-shaped workloads. Absolute kernel
//! times, GFLOP/s, the int8/f16 tiers and Adam are `BENCHMARK.json` rows
//! (`ctensor.*`); only the ratio against the oracle lives here.
//!
//! Gates (exit 1): the forward headline (`B=8, 256³` batched matmul) and
//! the backward headline (its adjoint pair) must each be ≥ 2× the oracle.

use std::process::ExitCode;
use std::sync::Arc;

use cbench::best_of_ms;
use ctensor::backend::{self, AttentionSpec, MatmulSpec, ScalarRef, UnaryOp};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GATE: f64 = 2.0;

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
    println!(
        "{name:<26} scalar {scalar_ms:>8.2} ms  blocked {blocked_ms:>7.2} ms  {:>5.1}x",
        r.speedup()
    );
    r
}

fn zero(bufs: &mut [&mut Vec<f32>]) {
    for b in bufs {
        b.fill(0.0);
    }
}

fn main() -> ExitCode {
    let mut rng = StdRng::seed_from_u64(0);
    let mut randn = |shape: &[usize], std: f32| ctensor::init::randn(shape, std, &mut rng);
    // Windowed attention: B*H = 96 windows of 64 tokens, head dim 8.
    let (bh, n, d) = (96usize, 64usize, 8usize);
    let attention = AttentionSpec {
        batch: bh,
        heads: 3,
        n,
        d,
        scale: 1.0 / (d as f32).sqrt(),
        mask: None,
        mask_windows: 1,
    };
    let sz = bh * n * d;
    let [q, k, v, dout] = [(); 4].map(|_| randn(&[sz], 1.0));

    println!("--- forward ---");
    let mut forward = Vec::new();

    // Headline: paper-shaped batched matmul.
    let a = randn(&[8, 256, 256], 1.0);
    let b = randn(&[8, 256, 256], 1.0);
    forward.push(compare("matmul_b8_256x256x256", 5, || {
        std::hint::black_box(a.matmul(&b));
    }));

    // Linear-layer shape: token rows x embed dims with fused bias.
    let x = randn(&[4096, 96], 1.0);
    let w = randn(&[96, 288], 0.1);
    let bias = randn(&[288], 0.1);
    forward.push(compare("linear_4096x96x288_bias", 10, || {
        std::hint::black_box(x.matmul_bias(&w, &bias));
    }));

    {
        let mut out = vec![0.0f32; sz];
        forward.push(compare("attention_fused_96x64x8", 10, || {
            backend::current().attention(
                q.as_slice(),
                k.as_slice(),
                v.as_slice(),
                &mut out,
                &attention,
            );
            std::hint::black_box(&out);
        }));
    }

    // Softmax over attention-score rows.
    let scores = randn(&[96, 64, 64], 1.0);
    forward.push(compare("softmax_96x64x64", 10, || {
        std::hint::black_box(scores.softmax_last());
    }));

    // Elementwise chain (GELU on an episode-sized activation).
    let act = randn(&[2 * 1024 * 1024], 1.0);
    forward.push(compare("gelu_2m", 10, || {
        std::hint::black_box(act.gelu());
    }));

    println!("--- backward ---");
    let mut backward = Vec::new();

    // Headline: the matmul adjoint pair (dA = g·Bᵀ, dB = Aᵀ·g) on the
    // forward headline's shape.
    {
        let (batch, m, k, n) = (8usize, 256usize, 256usize, 256usize);
        let g = randn(&[batch * m * n], 0.1);
        let offsets: Vec<(usize, usize)> = (0..batch).map(|i| (i, i)).collect();
        let mut da = vec![0.0f32; batch * m * k];
        let mut db = vec![0.0f32; batch * k * n];
        backward.push(compare("matmul_grad_pair", 5, || {
            let spec = MatmulSpec {
                m,
                k,
                n,
                batch_offsets: &offsets,
                bias: None,
            };
            zero(&mut [&mut da, &mut db]);
            let be = backend::current();
            be.matmul_grad_a(g.as_slice(), b.as_slice(), &mut da, &spec);
            be.matmul_grad_b(a.as_slice(), g.as_slice(), &mut db, &spec);
            std::hint::black_box((&da, &db));
        }));
    }

    // Full linear+bias backward: dX = g·Wᵀ, dW = Xᵀ·g (strided GEBP) and
    // dbias = column sums, on the forward linear shape.
    {
        let (rows_n, k, cols) = (4096usize, 96usize, 288usize);
        let g = randn(&[rows_n * cols], 1.0);
        let offsets = [(0usize, 0usize)];
        let mut dx = vec![0.0f32; rows_n * k];
        let mut dw = vec![0.0f32; k * cols];
        let mut dbias = vec![0.0f32; cols];
        backward.push(compare("linear_bias_grad", 10, || {
            let spec = MatmulSpec {
                m: rows_n,
                k,
                n: cols,
                batch_offsets: &offsets,
                bias: None,
            };
            zero(&mut [&mut dx, &mut dw, &mut dbias]);
            let be = backend::current();
            be.matmul_grad_a(g.as_slice(), w.as_slice(), &mut dx, &spec);
            be.matmul_grad_b(x.as_slice(), g.as_slice(), &mut dw, &spec);
            be.col_sums(g.as_slice(), &mut dbias, cols);
            std::hint::black_box((&dx, &dw, &dbias));
        }));
    }

    // GELU gradient on the forward GELU's activation.
    {
        let mut out = vec![0.0f32; act.as_slice().len()];
        backward.push(compare("gelu_grad", 10, || {
            backend::current().unary(UnaryOp::GeluGrad, act.as_slice(), &mut out);
            std::hint::black_box(&out);
        }));
    }

    // Softmax and layer-norm row gradients over attention-score rows.
    // Cache-resident on purpose: in training these rows are produced and
    // consumed inside a cache-warm attention block, so a DRAM-streaming
    // shape would measure memory bandwidth, not the row kernels.
    {
        let (nrows, rowlen) = (32 * 64, 64usize);
        let y = randn(&[nrows, rowlen], 1.0).softmax_last();
        let x = randn(&[nrows * rowlen], 1.0);
        let dy = randn(&[nrows * rowlen], 1.0);
        let mut dx = vec![0.0f32; nrows * rowlen];
        backward.push(compare("softmax_grad_rows", 20, || {
            backend::current().softmax_grad_rows(y.as_slice(), dy.as_slice(), &mut dx, rowlen);
            std::hint::black_box(&dx);
        }));
        backward.push(compare("layernorm_grad_rows", 20, || {
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

    // Fused attention backward on the forward attention's shape.
    {
        let (mut dq, mut dk, mut dv) = (vec![0.0f32; sz], vec![0.0f32; sz], vec![0.0f32; sz]);
        backward.push(compare("attention_grad", 5, || {
            zero(&mut [&mut dq, &mut dk, &mut dv]);
            backend::current().attention_grad(
                q.as_slice(),
                k.as_slice(),
                v.as_slice(),
                dout.as_slice(),
                &mut dq,
                &mut dk,
                &mut dv,
                &attention,
            );
            std::hint::black_box((&dq, &dk, &dv));
        }));
    }

    // ------------------------------------------------------------- report
    let rows_json = |rows: &[Row]| {
        let cells: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\": \"{}\", \"scalar_ms\": {:.4}, \"blocked_ms\": {:.4}, \"speedup\": {:.3}}}",
                    r.name, r.scalar_ms, r.blocked_ms, r.speedup()
                )
            })
            .collect();
        format!("[{}]", cells.join(", "))
    };
    let mut failures = Vec::new();
    for (side, rows) in [("forward", &forward), ("backward", &backward)] {
        let headline = &rows[0];
        if headline.speedup() < GATE {
            failures.push(format!(
                "{side} headline {} is {:.2}x the scalar oracle, below {GATE}x",
                headline.name,
                headline.speedup()
            ));
        }
    }
    cbench::finish(
        "kernels",
        "blocked-vs-scalar",
        &format!(
            "\"unit\": \"ms\", \"gate\": {GATE}, \"forward\": {}, \"backward\": {}",
            rows_json(&forward),
            rows_json(&backward)
        ),
        &failures,
    )
}
