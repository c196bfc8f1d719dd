//! The CI perf-regression gate: compares freshly generated `BENCH_*.json` reports
//! against the committed baselines in `baselines/`.
//!
//! Deterministic fields (scheduler counters, session/registry statistics, chaos
//! outcomes, bitwise flags) must match exactly, and self-normalised ratios
//! with a floor (e.g. `BENCH_serve.json`'s `live_over_inprocess`) must reach
//! it — any miss exits 1 with a per-path diff.  Throughput fields are compared within a tolerance band and
//! reported as advisory notes only; environment fields (worker counts, detected
//! ISA, autotune profile choices) are skipped.  The classification lives in
//! `pochoir_bench::check` and is unit-tested there.
//!
//! Every file present in the baseline directory must exist fresh; a fresh
//! `BENCH_*.json` without a committed baseline also fails, so new benches ship
//! with their baseline in the same change.
//!
//! Usage: `bench_check [--baselines DIR] [--fresh DIR]`

use pochoir_bench::check::{compare, rules_for};
use pochoir_trace::Json;

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bench_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(_) => Vec::new(),
    };
    names.sort();
    names
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "bench_check: gate fresh BENCH_*.json reports against committed baselines\n\
             usage: bench_check [--baselines DIR] [--fresh DIR]"
        );
        return;
    }
    let arg = |name: &str, default: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| default.to_string())
    };
    let baseline_dir = std::path::PathBuf::from(arg("--baselines", "baselines"));
    let fresh_dir = std::path::PathBuf::from(arg("--fresh", "."));

    let baselines = bench_files(&baseline_dir);
    if baselines.is_empty() {
        eprintln!(
            "bench_check: no BENCH_*.json baselines under {}",
            baseline_dir.display()
        );
        std::process::exit(2);
    }

    let mut failed = false;
    for name in &baselines {
        let rules = rules_for(name);
        let baseline = match read_json(&baseline_dir.join(name)) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("FAIL {name}: baseline unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let fresh = match read_json(&fresh_dir.join(name)) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("FAIL {name}: fresh report unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let report = compare(&baseline, &fresh, &rules);
        for note in &report.advisories {
            println!("  advisory {name} {note}");
        }
        if report.passed() {
            println!(
                "OK   {name}: {} strict, {} advisory, {} skipped",
                report.strict_ok, report.advisory_ok, report.skipped
            );
        } else {
            for failure in &report.failures {
                eprintln!("  fail {name} {failure}");
            }
            eprintln!(
                "FAIL {name}: {} gated field(s) drifted or fell below a floor",
                report.failures.len()
            );
            failed = true;
        }
    }

    // A fresh report with no committed baseline fails too: new benches ship with
    // their baseline (regenerate under the same pinned conditions as CI).
    for name in bench_files(&fresh_dir) {
        if !baselines.contains(&name) {
            eprintln!(
                "FAIL {name}: fresh report has no baseline under {} — commit one",
                baseline_dir.display()
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("bench_check: all {} baseline(s) hold", baselines.len());
}
