//! Kernel-layer backend comparison: `ScalarRef` vs `Blocked` on
//! paper-shaped workloads, emitting a `BENCH_kernels.json` summary.
//!
//! Workloads mirror the surrogate's hot shapes: the batched matmul of the
//! qkv/projection linears, windowed-attention score blocks, softmax rows,
//! and a GELU elementwise chain. Each kernel is timed as best-of-N wall
//! time per backend; the headline number is the `B=8, 256×256×256` batched
//! matmul speedup.

use std::io::Write;
use std::sync::Arc;

use cbench::best_of_ms;
use ctensor::backend::{self, ScalarRef};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct KernelResult {
    name: &'static str,
    scalar_ms: f64,
    blocked_ms: f64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.blocked_ms
    }
}

fn compare(name: &'static str, reps: usize, mut f: impl FnMut()) -> KernelResult {
    let blocked_ms = best_of_ms(reps, &mut f);
    let scalar_ms = {
        let _oracle = backend::scoped(Arc::new(ScalarRef));
        best_of_ms(reps, &mut f)
    };
    let r = KernelResult {
        name,
        scalar_ms,
        blocked_ms,
    };
    eprintln!(
        "[kernels] {name}: scalar {scalar_ms:.2} ms, blocked {blocked_ms:.2} ms ({:.1}x)",
        r.speedup()
    );
    r
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut results: Vec<KernelResult> = Vec::new();

    // Headline: paper-shaped batched matmul (acceptance: blocked >= 2x).
    let a = ctensor::init::randn(&[8, 256, 256], 1.0, &mut rng);
    let b = ctensor::init::randn(&[8, 256, 256], 1.0, &mut rng);
    results.push(compare("matmul_b8_256x256x256", 5, || {
        std::hint::black_box(a.matmul(&b));
    }));

    // Linear-layer shape: token rows x embed dims with fused bias.
    let x = ctensor::init::randn(&[4096, 96], 1.0, &mut rng);
    let w = ctensor::init::randn(&[96, 288], 0.1, &mut rng);
    let bias = ctensor::init::randn(&[288], 0.1, &mut rng);
    results.push(compare("linear_4096x96x288_bias", 10, || {
        std::hint::black_box(x.matmul_bias(&w, &bias));
    }));

    // Windowed attention: B*H = 96 windows of 64 tokens, head dim 8.
    {
        let (bh, n, d) = (96usize, 64usize, 8usize);
        let q = ctensor::init::randn(&[bh * n * d], 1.0, &mut rng);
        let k = ctensor::init::randn(&[bh * n * d], 1.0, &mut rng);
        let v = ctensor::init::randn(&[bh * n * d], 1.0, &mut rng);
        let spec_scale = 1.0 / (d as f32).sqrt();
        let mut out = vec![0.0f32; bh * n * d];
        results.push(compare("attention_fused_96x64x8", 10, || {
            let spec = ctensor::backend::AttentionSpec {
                batch: bh,
                heads: 3,
                n,
                d,
                scale: spec_scale,
                mask: None,
                mask_windows: 1,
            };
            backend::current().attention(q.as_slice(), k.as_slice(), v.as_slice(), &mut out, &spec);
            std::hint::black_box(&out);
        }));
    }

    // Softmax over attention-score rows.
    let scores = ctensor::init::randn(&[96, 64, 64], 1.0, &mut rng);
    results.push(compare("softmax_96x64x64", 10, || {
        std::hint::black_box(scores.softmax_last());
    }));

    // Elementwise chain (GELU on an episode-sized activation).
    let act = ctensor::init::randn(&[2 * 1024 * 1024], 1.0, &mut rng);
    results.push(compare("gelu_2m", 10, || {
        std::hint::black_box(act.gelu());
    }));

    // Quantized serving path on the linear shape: f32 Blocked matmul_bias
    // vs the fused int8 dequant GEMM (including dynamic activation
    // quantization — the real per-request cost) vs the f16 tier
    // (widen-then-matmul, exactly what `forward_quantized` runs).
    // Acceptance: int8 >= 2x the f32 Blocked time on this shape.
    let quant = {
        let (m, k, n) = (4096usize, 96usize, 288usize);
        let qw = ctensor::quant::QuantizedTensor::quantize(w.as_slice(), k, n);
        let fw = ctensor::quant::F16Weight::compress(w.as_slice(), k, n);
        let mut out = vec![0.0f32; m * n];
        let f32_ms = best_of_ms(10, || {
            std::hint::black_box(x.matmul_bias(&w, &bias));
        });
        let int8_ms = best_of_ms(10, || {
            let acts = ctensor::quant::quantize_acts(x.as_slice(), m, k);
            backend::current().qlinear_i8(&acts, &qw, Some(bias.as_slice()), &mut out);
            std::hint::black_box(&out);
        });
        let f16_ms = best_of_ms(10, || {
            let wt = ctensor::tensor::Tensor::from_vec(fw.decompress(), &[k, n]);
            std::hint::black_box(x.matmul_bias(&wt, &bias));
        });
        eprintln!(
            "[kernels] quantized linear_{m}x{k}x{n}: f32 {f32_ms:.2} ms, int8 {int8_ms:.2} ms \
             ({:.1}x), f16 {f16_ms:.2} ms ({:.1}x)",
            f32_ms / int8_ms,
            f32_ms / f16_ms
        );
        (format!("linear_{m}x{k}x{n}_bias"), f32_ms, int8_ms, f16_ms)
    };

    // Threads axis: the same parallel matmul at 1/2/4 worker threads via
    // the ThreadPoolBuilder facade (the shim allows reconfiguration, so
    // the sweep runs in-process). Output is bitwise thread-invariant; only
    // wall time moves.
    let hw_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut scaling: Vec<(usize, f64)> = Vec::new();
    for &t in &[1usize, 2, 4] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global()
            .expect("thread pool override");
        let ms = best_of_ms(5, || {
            std::hint::black_box(a.matmul(&b));
        });
        eprintln!("[kernels] matmul_b8_256x256x256 @ {t} threads: {ms:.2} ms");
        scaling.push((t, ms));
    }
    rayon::ThreadPoolBuilder::new().build_global().ok(); // restore default
    let scale_1_to_4 = scaling[0].1 / scaling[2].1;
    let scaling_note = if hw_cores < 4 {
        format!(
            "host exposes {hw_cores} hardware core(s); 1->4 thread scaling is bounded by physical parallelism, not the kernel"
        )
    } else {
        String::new()
    };

    // ------------------------------------------------------------- report
    let stamp = cbench::RunStamp::capture("blocked-vs-scalar");
    let mut json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"unit\": \"ms\",\n  {},\n  \"hardware_cores\": {},\n  \"results\": [\n",
        stamp.json_fields(),
        hw_cores
    );
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ms\": {:.4}, \"blocked_ms\": {:.4}, \"speedup\": {:.3}}}{}\n",
            r.name,
            r.scalar_ms,
            r.blocked_ms,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"quantized\": {{\"name\": \"{}\", \"f32_ms\": {:.4}, \"int8_ms\": {:.4}, \
         \"f16_ms\": {:.4}, \"speedup_int8_vs_f32\": {:.3}, \"speedup_f16_vs_f32\": {:.3}}},\n",
        quant.0,
        quant.1,
        quant.2,
        quant.3,
        quant.1 / quant.2,
        quant.1 / quant.3
    ));
    json.push_str("  \"matmul_thread_scaling\": {\n    \"workload\": \"matmul_b8_256x256x256\",\n    \"points\": [\n");
    for (i, (t, ms)) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"threads\": {t}, \"blocked_ms\": {ms:.4}}}{}\n",
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"speedup_1_to_4\": {scale_1_to_4:.3},\n    \"note\": \"{scaling_note}\"\n  }}\n"
    ));
    json.push('}');
    json.push('\n');

    let json = cbench::telemetry::splice_registry(json);
    let path = std::env::var("BENCH_KERNELS_OUT").unwrap_or_else(|_| "BENCH_kernels.json".into());
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| eprintln!("[kernels] could not write {path}: {e}"));
    println!("{json}");

    let headline = &results[0];
    eprintln!(
        "[kernels] headline matmul speedup: {:.1}x ({})",
        headline.speedup(),
        if headline.speedup() >= 2.0 {
            "PASS >= 2x"
        } else {
            "below 2x target"
        }
    );
    let int8_speedup = quant.1 / quant.2;
    eprintln!(
        "[kernels] int8 fused dequant GEMM vs f32 Blocked on {}: {:.1}x ({})",
        quant.0,
        int8_speedup,
        if int8_speedup >= 2.0 {
            "PASS >= 2x"
        } else {
            "below 2x target"
        }
    );
}
