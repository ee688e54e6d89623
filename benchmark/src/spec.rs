//! Names, units, directions and bounds of everything the benchmark
//! reports. `BENCHMARK.json` at the root of the repo lists the same
//! (a test below holds the two together); README.md says why each exists
//! and which end-to-end metric each per-layer metric should move.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

use Better::{Higher, Lower};

pub const WORKLOADS: [&str; 5] = [
    "rollout12d",
    "fallback12d",
    "serve_distinct",
    "serve_zipf",
    "train",
];

/// `(name, unit, better, bound)`: the bound is the share of the base value
/// by which a metric may get worse before `compare` calls it worse.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Lower, 0.25),
    ("throughput_per_s", "op/s", Higher, 0.20),
    ("latency_ms_p50", "ms", Lower, 0.25),
    ("latency_ms_p90", "ms", Lower, 0.25),
    ("zeta_rmse_m", "m", Lower, 0.10),
    ("verify_pass_share", "ratio", Higher, 0.05),
];

/// `(name, unit, better)`. Rows a probe fills are the same on every
/// workload; rows read from the traced pass are 0 on a workload that
/// never calls the layer.
pub const PER_LAYER: [(&str, &str, Better); 69] = [
    ("host.nproc", "count", Higher),
    ("host.fma_peak_gflops", "GFLOP/s", Higher),
    ("host.stream_gbs", "GB/s", Higher),
    ("ctensor.matmul.us", "us", Lower),
    ("ctensor.matmul.gflops", "GFLOP/s", Higher),
    ("ctensor.matmul.gbs_computed", "GB/s", Higher),
    ("ctensor.matmul.peak_share", "ratio", Higher),
    ("ctensor.qlinear_i8.us", "us", Lower),
    ("ctensor.qlinear_i8.gflops", "GFLOP/s", Higher),
    ("ctensor.qlinear_i8.gbs_computed", "GB/s", Higher),
    ("ctensor.qlinear_i8.speedup_vs_f32", "ratio", Higher),
    ("ctensor.attention.us", "us", Lower),
    ("ctensor.attention.gflops", "GFLOP/s", Higher),
    ("ctensor.attention.gbs_computed", "GB/s", Higher),
    ("ctensor.softmax_rows.us", "us", Lower),
    ("ctensor.softmax_rows.gflops", "GFLOP/s", Higher),
    ("ctensor.softmax_rows.gbs_computed", "GB/s", Higher),
    ("ctensor.layernorm_rows.us", "us", Lower),
    ("ctensor.layernorm_rows.gflops", "GFLOP/s", Higher),
    ("ctensor.layernorm_rows.gbs_computed", "GB/s", Higher),
    ("ctensor.gelu.us", "us", Lower),
    ("ctensor.gelu.gflops", "GFLOP/s", Higher),
    ("ctensor.gelu.gbs_computed", "GB/s", Higher),
    ("ctensor.matmul_grad.us", "us", Lower),
    ("ctensor.attention_grad.us", "us", Lower),
    ("ctensor.adam_step.us", "us", Lower),
    ("csurrogate.forward.ms.b1.f32", "ms", Lower),
    ("csurrogate.forward.ms.b1.f16", "ms", Lower),
    ("csurrogate.forward.ms.b1.int8", "ms", Lower),
    ("csurrogate.forward.ms_per_sample.b8.f32", "ms", Lower),
    ("csurrogate.forward.share_of_predict", "ratio", Lower),
    ("cpipeline.encode.us", "us", Lower),
    ("cpipeline.stack8.us", "us", Lower),
    ("cpipeline.decode.us", "us", Lower),
    ("cpipeline.forward_backward.ms", "ms", Lower),
    ("cpipeline.optimizer.ms", "ms", Lower),
    ("cpipeline.loader.wait_share", "ratio", Lower),
    ("cpipeline.loader.dropped", "count", Lower),
    ("cphysics.check_episode.us", "us", Lower),
    ("cphysics.share_of_episode", "ratio", Lower),
    ("cphysics.pass_share", "ratio", Higher),
    ("cocean.record.ms_per_step", "ms", Lower),
    ("cocean.load.us", "us", Lower),
    ("cocean.spinup_s", "s", Lower),
    ("ccore.predict_episode.ms", "ms", Lower),
    ("ccore.predict_batch8.ms_per_sample", "ms", Lower),
    ("ccore.batch_efficiency", "ratio", Higher),
    ("ccore.hybrid.ai_share", "ratio", Higher),
    ("ccore.hybrid.verify_share", "ratio", Lower),
    ("ccore.hybrid.roms_share", "ratio", Lower),
    ("ccore.hybrid.glue_share", "ratio", Lower),
    ("ccore.hybrid.fallback_share", "ratio", Lower),
    ("ccore.instantiate.ms.f32", "ms", Lower),
    ("ccore.instantiate.ms.int8", "ms", Lower),
    ("cserve.new.ms", "ms", Lower),
    ("cserve.submit.us", "us", Lower),
    ("cserve.hash_window.us", "us", Lower),
    ("cserve.cache_hit_share", "ratio", Higher),
    ("cserve.coalesced_share", "ratio", Higher),
    ("cserve.forwards_per_request", "ratio", Lower),
    ("cserve.mean_batch", "count", Higher),
    ("cserve.hit.latency_us_p50", "us", Lower),
    ("cserve.miss.latency_ms_p50", "ms", Lower),
    ("cserve.overhead_ms", "ms", Lower),
    ("cserve.rejected", "count", Lower),
    ("cserve.failed", "count", Lower),
    ("bench.gen_late_ms_p95", "ms", Lower),
    ("bench.trace_overhead_share", "ratio", Lower),
    ("bench.waterfall_residual_share", "ratio", Lower),
];

fn lookup(name: &str) -> Option<(&'static str, Better)> {
    END_TO_END
        .iter()
        .map(|&(n, u, b, _)| (n, u, b))
        .chain(PER_LAYER.iter().copied())
        .find(|&(n, _, _)| n == name)
        .map(|(_, u, b)| (u, b))
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    lookup(name).map(|x| x.0)
}

pub fn better_of(name: &str) -> Option<Better> {
    lookup(name).map(|x| x.1)
}

/// The regression bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|e| e.0 == name).map(|e| e.3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn benchmark_json_lists_exactly_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |row: &Json, k: &str| row.get(k).and_then(Json::str).unwrap().to_string();
        let better = |b: Better| if b == Higher { "higher" } else { "lower" };

        let names: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS);

        let e2e = doc.get("end_to_end").unwrap().arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, &(name, unit, b, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "unit"), unit, "{name}");
            assert_eq!(field(row, "better"), better(b), "{name}");
            assert_eq!(row.get("bound").and_then(Json::num), Some(bound), "{name}");
        }

        let layers = doc.get("per_layer").unwrap().arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, &(name, unit, b)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "unit"), unit, "{name}");
            assert_eq!(field(row, "better"), better(b), "{name}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().map(|e| e.0));
        all.extend(PER_LAYER.iter().map(|e| e.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &all {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|e| e.1)
            .chain(PER_LAYER.iter().map(|e| e.1))
        {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
    }
}
