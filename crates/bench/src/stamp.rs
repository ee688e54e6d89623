//! Provenance stamp shared by every `BENCH_*.json` emitter: git revision,
//! ISO-8601 UTC timestamp, backend under test and detected SIMD feature
//! set — so the perf trajectory across commits is attributable without
//! digging through CI logs.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Run provenance recorded into benchmark reports.
#[derive(Clone, Debug)]
pub struct RunStamp {
    /// Short git revision (or `unknown` outside a checkout).
    pub git_rev: String,
    /// ISO-8601 UTC timestamp (`YYYY-MM-DDTHH:MM:SSZ`).
    pub timestamp_utc: String,
    /// Compute backend the benchmark exercises.
    pub backend: String,
    /// SIMD feature set the kernels dispatch to (`avx2+fma` / `scalar`).
    pub simd: String,
}

impl RunStamp {
    /// Capture the current revision/time/simd provenance.
    pub fn capture(backend: &str) -> Self {
        Self {
            git_rev: git_rev(),
            timestamp_utc: iso8601_utc_now(),
            backend: backend.to_string(),
            simd: ctensor::simd::feature_string().to_string(),
        }
    }

    /// The stamp as JSON object fields (no surrounding braces), ready to
    /// splice into a report: `"git_rev": "…", "timestamp_utc": "…",
    /// "backend": "…", "simd": "…"`.
    pub fn json_fields(&self) -> String {
        format!(
            "\"git_rev\": \"{}\", \"timestamp_utc\": \"{}\", \"backend\": \"{}\", \"simd\": \"{}\"",
            self.git_rev, self.timestamp_utc, self.backend, self.simd
        )
    }
}

fn git_rev() -> String {
    let from_git = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    from_git
        .or_else(|| {
            std::env::var("GITHUB_SHA")
                .ok()
                .map(|s| s[..s.len().min(12)].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Current UTC time as ISO-8601, computed from the epoch (no external
/// time crates in this offline workspace).
fn iso8601_utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    iso8601_from_epoch(secs)
}

fn iso8601_from_epoch(secs: i64) -> String {
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        tod / 3600,
        (tod / 60) % 60,
        tod % 60
    )
}

/// Gregorian date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_rendering_matches_known_dates() {
        assert_eq!(iso8601_from_epoch(0), "1970-01-01T00:00:00Z");
        // 2000-02-29 (leap day) 12:34:56 UTC = 951827696.
        assert_eq!(iso8601_from_epoch(951_827_696), "2000-02-29T12:34:56Z");
        // 2026-01-01 00:00:00 UTC = 1767225600.
        assert_eq!(iso8601_from_epoch(1_767_225_600), "2026-01-01T00:00:00Z");
    }

    #[test]
    fn stamp_fields_are_well_formed() {
        let s = RunStamp::capture("blocked");
        assert!(!s.git_rev.is_empty());
        assert_eq!(s.timestamp_utc.len(), 20, "{}", s.timestamp_utc);
        assert!(s.timestamp_utc.ends_with('Z'));
        let json = s.json_fields();
        assert!(json.contains("\"git_rev\""));
        assert!(json.contains("\"backend\": \"blocked\""));
    }
}
