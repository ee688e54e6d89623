//! What produced a result: the tree, the host and the run's settings.

use std::process::Command;

use crate::json::quote;
use crate::RunCfg;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The stamp as JSON object fields (no braces). Outside a git checkout the
/// revision is `unknown` and the dirty flag `null`.
pub fn json_fields(cfg: &RunCfg) -> String {
    let (seed, seconds) = (cfg.seed, cfg.seconds);
    let revision = output_of("git", &["rev-parse", "HEAD"]).filter(|r| !r.is_empty());
    let dirty = revision
        .as_ref()
        .and_then(|_| output_of("git", &["status", "--porcelain"]))
        .map_or("null".to_string(), |s| (!s.is_empty()).to_string());
    #[cfg(target_arch = "x86_64")]
    let vnni = is_x86_feature_detected!("avx512vnni");
    #[cfg(not(target_arch = "x86_64"))]
    let vnni = false;
    format!(
        "\"revision\": {}, \"dirty\": {dirty}, \"nproc\": {}, \"simd\": {}, \"vnni\": {vnni}, \
         \"kernel_threads\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"rustc\": {}",
        quote(revision.as_deref().unwrap_or("unknown")),
        cfg.nproc,
        quote(ctensor::simd::feature_string()),
        quote(&std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
        quote(&output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
    )
}
