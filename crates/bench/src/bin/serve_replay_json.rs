//! Emits `BENCH_serve.json`: the network-serving smoke harness.
//!
//! Replays one committed trace against a **live** `pochoir_serve` instance over
//! TCP (the server is started separately — in CI, the bench-smoke job launches
//! `target/release/pochoir_serve` before this step), then replays the same
//! trace in-process under the sequential discipline and reports:
//!
//! * deterministic outcomes: record/accept/shed counts, distinct sessions, the
//!   points delivered, and the bitwise live-vs-sequential digest flag — the
//!   network layer must be invisible to the numerics;
//! * wall-clock throughput for the live path and for the in-process
//!   sequential replay of the same trace (advisory: machine-dependent), and
//!   their ratio `live_over_inprocess`.  The ratio cancels the host's speed,
//!   so `bench_check` gates it strictly against a floor: a wire path that
//!   falls back onto a TCP timer floor (~700× slower) fails CI.
//!
//! Every non-timing field is deterministic for an unquota'd server at
//! `POCHOIR_NUM_THREADS=1`; the CI gate (`bench_check`) compares those fields
//! strictly against `baselines/BENCH_serve.json`.
//!
//! Usage: `serve_replay_json [--addr HOST:PORT] [--trace NAME] [--traces DIR] [--out PATH]`

use std::time::Instant;

use pochoir_bench::replay::{replay, Discipline, ReplayOptions};
use pochoir_bench::{out_path_from_args, provenance_json_fields};
use pochoir_serve::replay_trace;
use pochoir_trace::{corpus, Trace};

/// The trace replayed by default: single-geometry Poisson arrivals — small
/// enough for a CI smoke step, busy enough to pipeline several epochs.
const DEFAULT_TRACE: &str = "poisson";

fn arg_after(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

/// Loads the named corpus trace from `dir`, or from the built-in corpus
/// definition when the directory (or file) is absent.
fn load_trace(dir: &str, name: &str) -> Trace {
    let path = format!("{dir}/{name}.json");
    if let Ok(text) = std::fs::read_to_string(&path) {
        return Trace::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    }
    eprintln!("serve_replay_json: no {path}; using the built-in corpus definition");
    corpus::standard()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no corpus trace named {name:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "serve_replay_json: replay a committed trace against a live pochoir_serve \
             instance and write BENCH_serve.json\n\
             usage: serve_replay_json [--addr HOST:PORT] [--trace NAME] [--traces DIR] [--out PATH]"
        );
        return;
    }
    let addr = arg_after(&args, "--addr", "127.0.0.1:7411");
    let name = arg_after(&args, "--trace", DEFAULT_TRACE);
    let traces_dir = arg_after(&args, "--traces", "traces");
    let out_path = out_path_from_args("BENCH_serve.json");

    let trace = load_trace(&traces_dir, &name);
    let workers = pochoir_runtime::Runtime::global().num_threads();

    eprintln!(
        "replaying {} ({} records, {} servers) against {addr}...",
        trace.name,
        trace.records.len(),
        trace.distinct_servers()
    );
    let started = Instant::now();
    let live = replay_trace(&addr, &trace)
        .unwrap_or_else(|e| panic!("live replay against {addr} failed: {e}"));
    let elapsed = started.elapsed().as_secs_f64();

    // In-process ground truth: the same records, one at a time, no queue.
    let started = Instant::now();
    let sequential = replay(&trace, Discipline::Sequential, &ReplayOptions::default());
    let inprocess_elapsed = started.elapsed().as_secs_f64();

    let accepted = live.iter().filter(|d| d.is_some()).count();
    let shed = live.len() - accepted;
    // Points actually delivered: cells × steps per completed record.
    let delivered = |digests: &[Option<u64>]| -> u64 {
        trace
            .records
            .iter()
            .zip(digests)
            .filter(|(_, d)| d.is_some())
            .map(|(r, _)| r.geometry.iter().product::<u64>() * r.window.max(0) as u64)
            .sum()
    };
    let points = delivered(&live);
    // The wire must be invisible: every digest the live server produced equals
    // the in-process sequential result for the same record.
    let bitwise = live.iter().zip(&sequential.digests).all(|(l, s)| match l {
        Some(d) => Some(*d) == *s,
        None => true,
    });
    let rate = |points: u64, elapsed: f64| {
        if elapsed > 0.0 {
            points as f64 / elapsed / 1e6
        } else {
            0.0
        }
    };
    let mpts = rate(points, elapsed);
    let inprocess_mpts = rate(delivered(&sequential.digests), inprocess_elapsed);
    let ratio = if inprocess_mpts > 0.0 {
        mpts / inprocess_mpts
    } else {
        0.0
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve_replay\",\n");
    json.push_str("  \"format\": \"pochoir-bench-serve\",\n");
    json.push_str("  \"version\": 1,\n");
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&provenance_json_fields("  "));
    json.push_str(&format!("  \"trace\": \"{}\",\n", trace.name));
    json.push_str(&format!("  \"seed\": {},\n", trace.seed));
    json.push_str(&format!("  \"records\": {},\n", trace.records.len()));
    json.push_str(&format!("  \"servers\": {},\n", trace.distinct_servers()));
    json.push_str(&format!("  \"accepted\": {accepted},\n"));
    json.push_str(&format!("  \"shed\": {shed},\n"));
    json.push_str(&format!("  \"points\": {points},\n"));
    json.push_str(&format!("  \"live_mpoints_per_s\": {mpts:.3},\n"));
    json.push_str(&format!(
        "  \"inprocess_mpoints_per_s\": {inprocess_mpts:.3},\n"
    ));
    json.push_str(&format!("  \"live_over_inprocess\": {ratio:.3},\n"));
    json.push_str(&format!("  \"bitwise_live_vs_sequential\": {bitwise}\n"));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");
}
