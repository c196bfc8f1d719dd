//! The `bench_check` comparison engine: diffs freshly generated `BENCH_*.json`
//! reports against committed baselines, strictly on deterministic fields and
//! advisory-only on throughput.
//!
//! A bench report mixes three kinds of leaves:
//!
//! * **deterministic** — scheduler counters, session/registry statistics, chaos
//!   outcomes, bitwise flags, geometry.  Identical on every run at a pinned
//!   worker count; any drift is a real behaviour change and **fails** the check.
//! * **timing** — Mpts/s and derived ratios.  Machine-dependent; compared within
//!   a tolerance band and reported as **advisory** either way (CI runners are far
//!   too noisy for a hard throughput gate).
//! * **environment** — worker counts, detected ISA, autotune profile choices,
//!   queue-depth gauges.  Skipped entirely.
//!
//! On top of that, a report may carry **floors**: self-normalised ratios (two
//! rates measured in the same run on the same host) that must reach a fixed
//! minimum in the fresh report.  A ratio cancels the host's speed, so it can
//! be gated strictly where the raw rate cannot; a miss **fails** the check.
//!
//! Classification is by substring over the dot-joined leaf path (lowercased), so
//! the same rule set covers every report shape; [`rules_for`] adds per-file
//! extras (e.g. the SIMD report's dispatched-kernel names follow the host ISA).

use pochoir_trace::Json;

/// Relative tolerance for advisory throughput comparisons (±50%: generous enough
/// for shared CI runners, tight enough to flag an order-of-magnitude cliff).
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Leaf classification rules for one report file.
#[derive(Clone, Debug)]
pub struct CheckRules {
    /// Leaf paths containing any of these substrings are ignored entirely
    /// (environment-dependent fields).
    pub skip: Vec<&'static str>,
    /// Leaf paths containing any of these substrings are compared within
    /// [`tolerance`](Self::tolerance) and never fail the check.
    pub advisory: Vec<&'static str>,
    /// Relative tolerance for advisory numeric fields.
    pub tolerance: f64,
    /// `(substring, minimum)`: a fresh leaf whose path contains the substring
    /// must be a number of at least `minimum`, whatever its class.
    pub floors: Vec<(&'static str, f64)>,
}

/// Floor on `BENCH_serve.json`'s `live_over_inprocess` (live wire replay over
/// in-process sequential replay of the same trace, one worker).  Seven runs
/// against a freshly started server read 0.47–0.75 on a 2-core Xeon (median
/// 0.62), so the floor sits at under half of that; the Nagle/delayed-ACK
/// floor it guards against reads ~0.0007.
pub const SERVE_LIVE_OVER_INPROCESS_FLOOR: f64 = 0.25;

/// Fields that are environment-dependent in every report.
const SKIP_ALWAYS: &[&str] = &[
    "workers",
    "worker_executed",
    "queue_depth_peak",
    "peak_ready",
    "detected_isa",
    "tune_profile",
    "git_",
    "rustc",
    "hostname",
    "timestamp",
];

/// Fields that are timing-derived in every report.
const ADVISORY_ALWAYS: &[&str] = &[
    "mpoints",
    "mpts",
    "gstencil",
    "gflop",
    "_over_",
    "over_scalar",
    "over_recursive",
    "over_barrier",
    "over_sequential",
    "over_point",
    "elapsed",
    "seconds",
    "speedup",
    "parallelism",
];

/// The rule set for a report file, by its file name (e.g. `BENCH_serving.json`).
pub fn rules_for(file_name: &str) -> CheckRules {
    let mut skip: Vec<&'static str> = SKIP_ALWAYS.to_vec();
    let advisory: Vec<&'static str> = ADVISORY_ALWAYS.to_vec();
    let mut floors = Vec::new();
    match file_name {
        // The dispatched kernel name follows the host ISA (the leading dot keeps
        // the pattern anchored to the key, not to e.g. a "simd_*" counter).
        "BENCH_simd.json" => skip.push(".simd"),
        // Auto shard geometry (tile count and the halo cells it implies) follows
        // the worker count; the bitwise flag and registry counters stay strict.
        "BENCH_shard.json" => {
            skip.push("tiles");
            skip.push("halo");
        }
        "BENCH_serve.json" => floors.push(("live_over_inprocess", SERVE_LIVE_OVER_INPROCESS_FLOOR)),
        _ => {}
    }
    CheckRules {
        skip,
        advisory,
        tolerance: DEFAULT_TOLERANCE,
        floors,
    }
}

/// One comparison's outcome.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Deterministic-field mismatches (any entry fails the gate).
    pub failures: Vec<String>,
    /// Advisory notes: throughput outside the tolerance band.
    pub advisories: Vec<String>,
    /// Leaves compared strictly and found equal.
    pub strict_ok: usize,
    /// Leaves compared advisorily (in or out of band).
    pub advisory_ok: usize,
    /// Leaves skipped as environment-dependent.
    pub skipped: usize,
}

impl CheckReport {
    /// True when no deterministic field drifted.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Skip,
    Advisory,
    Strict,
}

fn classify(path: &str, rules: &CheckRules) -> Class {
    let lower = path.to_ascii_lowercase();
    if rules.skip.iter().any(|p| lower.contains(p)) {
        return Class::Skip;
    }
    if rules.advisory.iter().any(|p| lower.contains(p)) {
        return Class::Advisory;
    }
    Class::Strict
}

fn as_number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn leaf_repr(v: &Json) -> String {
    v.to_string()
}

fn walk(path: &str, baseline: &Json, fresh: &Json, rules: &CheckRules, out: &mut CheckReport) {
    let lower = path.to_ascii_lowercase();
    if let Some(&(_, floor)) = rules.floors.iter().find(|(p, _)| lower.contains(p)) {
        if !as_number(fresh).is_some_and(|f| f >= floor) {
            out.failures.push(format!(
                "{path}: {} is below the floor {floor}",
                leaf_repr(fresh)
            ));
        }
    }
    match classify(path, rules) {
        Class::Skip => {
            out.skipped += 1;
            return;
        }
        Class::Advisory => {
            out.advisory_ok += 1;
            if let (Some(b), Some(f)) = (as_number(baseline), as_number(fresh)) {
                let denom = b.abs().max(1e-12);
                let delta = (f - b) / denom;
                if delta.abs() > rules.tolerance {
                    out.advisories.push(format!(
                        "{path}: {b:.3} -> {f:.3} ({:+.0}% vs ±{:.0}% band)",
                        delta * 100.0,
                        rules.tolerance * 100.0
                    ));
                }
            }
            return;
        }
        Class::Strict => {}
    }
    match (baseline, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            for (key, bv) in b {
                let child = format!("{path}.{key}");
                match f.iter().find(|(k, _)| k == key) {
                    Some((_, fv)) => walk(&child, bv, fv, rules, out),
                    None => {
                        if classify(&child, rules) != Class::Skip {
                            out.failures
                                .push(format!("{child}: missing from fresh report"));
                        }
                    }
                }
            }
            for (key, _) in f {
                if !b.iter().any(|(k, _)| k == key) {
                    let child = format!("{path}.{key}");
                    if classify(&child, rules) != Class::Skip {
                        out.failures
                            .push(format!("{child}: not present in baseline"));
                    }
                }
            }
        }
        (Json::Arr(b), Json::Arr(f)) => {
            if b.len() != f.len() {
                out.failures
                    .push(format!("{path}: array length {} -> {}", b.len(), f.len()));
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                walk(&format!("{path}[{i}]"), bv, fv, rules, out);
            }
        }
        _ => {
            // Numbers compare numerically so `4` and `4.0` agree; everything
            // else must match exactly.
            let equal = match (as_number(baseline), as_number(fresh)) {
                (Some(b), Some(f)) => b == f,
                _ => baseline == fresh,
            };
            if equal {
                out.strict_ok += 1;
            } else {
                out.failures.push(format!(
                    "{path}: {} -> {}",
                    leaf_repr(baseline),
                    leaf_repr(fresh)
                ));
            }
        }
    }
}

/// Compares a fresh report against its baseline under `rules`.
pub fn compare(baseline: &Json, fresh: &Json, rules: &CheckRules) -> CheckReport {
    let mut out = CheckReport::default();
    walk("$", baseline, fresh, rules, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(s: &str) -> Json {
        Json::parse(s).expect("test JSON parses")
    }

    fn default_rules() -> CheckRules {
        rules_for("BENCH_serving.json")
    }

    #[test]
    fn identical_reports_pass() {
        let v = j(r#"{"bench":"serving","windows":24,"mpoints_per_s":12.5}"#);
        let report = compare(&v, &v.clone(), &default_rules());
        assert!(report.passed());
        assert!(report.advisories.is_empty());
        assert!(report.strict_ok >= 2);
    }

    #[test]
    fn deterministic_counter_drift_fails() {
        let b = j(r#"{"windows":24,"deadline_misses":0}"#);
        let f = j(r#"{"windows":24,"deadline_misses":3}"#);
        let report = compare(&b, &f, &default_rules());
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("deadline_misses"));
    }

    #[test]
    fn throughput_drift_is_advisory_only() {
        let b = j(r#"{"pipelined_mpoints_per_s":100.0}"#);
        let f = j(r#"{"pipelined_mpoints_per_s":10.0}"#);
        let report = compare(&b, &f, &default_rules());
        assert!(report.passed(), "timing never fails: {:?}", report.failures);
        assert_eq!(report.advisories.len(), 1);
    }

    #[test]
    fn throughput_within_band_is_silent() {
        let b = j(r#"{"pipelined_mpoints_per_s":100.0}"#);
        let f = j(r#"{"pipelined_mpoints_per_s":120.0}"#);
        let report = compare(&b, &f, &default_rules());
        assert!(report.passed());
        assert!(report.advisories.is_empty());
    }

    #[test]
    fn environment_fields_are_skipped() {
        let b = j(r#"{"workers":1,"queue_depth_peak":4,"windows":8}"#);
        let f = j(r#"{"workers":16,"queue_depth_peak":900,"windows":8}"#);
        let report = compare(&b, &f, &default_rules());
        assert!(report.passed());
        assert_eq!(report.skipped, 2);
    }

    #[test]
    fn missing_and_extra_keys_fail() {
        let b = j(r#"{"windows":8,"gone":1}"#);
        let f = j(r#"{"windows":8,"added":2}"#);
        let report = compare(&b, &f, &default_rules());
        assert_eq!(report.failures.len(), 2);
    }

    #[test]
    fn array_shape_drift_fails() {
        let b = j(r#"{"results":[{"windows":4},{"windows":4}]}"#);
        let f = j(r#"{"results":[{"windows":4}]}"#);
        let report = compare(&b, &f, &default_rules());
        assert!(!report.passed());
    }

    #[test]
    fn int_and_float_spellings_agree() {
        let b = j(r#"{"windows":4}"#);
        let f = j(r#"{"windows":4.0}"#);
        assert!(compare(&b, &f, &default_rules()).passed());
    }

    #[test]
    fn shard_rules_skip_tile_geometry() {
        let rules = rules_for("BENCH_shard.json");
        let b = j(r#"{"tiles":4,"halo_cells":1200,"halo_overhead_fraction":0.01,"windows":3}"#);
        let f = j(r#"{"tiles":8,"halo_cells":2400,"halo_overhead_fraction":0.02,"windows":3}"#);
        let report = compare(&b, &f, &rules);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn serve_ratio_below_its_floor_fails() {
        let rules = rules_for("BENCH_serve.json");
        let b = j(r#"{"live_mpoints_per_s":48.0,"live_over_inprocess":0.5}"#);
        let ok = j(r#"{"live_mpoints_per_s":20.0,"live_over_inprocess":0.3}"#);
        let report = compare(&b, &ok, &rules);
        assert!(report.passed(), "{:?}", report.failures);
        let cliff = j(r#"{"live_mpoints_per_s":0.07,"live_over_inprocess":0.0006}"#);
        let report = compare(&b, &cliff, &rules);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("live_over_inprocess"));
        // Only the serve report carries the floor.
        assert!(compare(&b, &cliff, &default_rules()).passed());
    }

    #[test]
    fn simd_rules_skip_kernel_name_but_not_counters() {
        let rules = rules_for("BENCH_simd.json");
        let b = j(r#"{"simd":"avx2","engine":"trap"}"#);
        let f = j(r#"{"simd":"sse2","engine":"loops"}"#);
        let report = compare(&b, &f, &rules);
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("engine"));
    }
}
