//! `pochoir-perfbench`: one seeded benchmark for the whole stencil stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_apps|tenants|wire_small|wire_bulk> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from the seed, measures for `--seconds`,
//! checks every output bitwise against the Figure-1 loop nest, and prints as
//! its last stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`.  Lines before it (prefixed `#`) are the human-readable
//! report.  See `perfbench/README.md`.

mod counters;
mod paper_apps;
mod reference;
mod report;
mod spans;
mod tenants;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{ratio, Metrics};
use spans::{Recorder, Summary};

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("mpoints_per_s", "Mpts/s"),
    ("heat2d_mpoints_per_s", "Mpts/s"),
    ("life_mpoints_per_s", "Mpts/s"),
    ("wave3d_mpoints_per_s", "Mpts/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1` (0 where the
/// workload does not exercise the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("executor.build_ms", "ms"),
    ("executor.run_ms", "ms"),
    ("executor.runs", "count"),
    ("executor.over_loops", "ratio"),
    ("loops.heat2d_mpoints_per_s", "Mpts/s"),
    ("schedule.compiles", "count"),
    ("schedule.fetches", "count"),
    ("schedule.reuses", "count"),
    ("schedule.reuse_ratio", "ratio"),
    ("schedule.cache_hits", "count"),
    ("schedule.cache_misses", "count"),
    ("schedule.cache_evictions", "count"),
    ("schedule.leaves", "count"),
    ("schedule.phases", "count"),
    ("schedule.rejections", "count"),
    ("simd.rows_avx2", "count"),
    ("simd.rows_sse2", "count"),
    ("kernel.heat2d_gb_per_s_computed", "GB/s"),
    ("kernel.life_gb_per_s_computed", "GB/s"),
    ("kernel.wave3d_gb_per_s_computed", "GB/s"),
    ("memory.copy_gb_per_s", "GB/s"),
    ("runtime.workers", "count"),
    ("runtime.jobs_spawned", "count"),
    ("runtime.jobs_stolen", "count"),
    ("runtime.steal_ratio", "ratio"),
    ("runtime.worker_imbalance", "ratio"),
    ("runtime.speedup_2w", "ratio"),
    ("analysis.predicted_parallelism", "ratio"),
    ("serving.submit_us_p50", "us"),
    ("serving.submit_us_p90", "us"),
    ("serving.drain_ms_p50", "ms"),
    ("serving.drain_ms_p90", "ms"),
    ("serving.windows", "count"),
    ("serving.windows_per_s", "1/s"),
    ("serving.queue_depth_peak", "count"),
    ("serving.deadline_misses", "count"),
    ("serving.shed", "count"),
    ("registry.hits", "count"),
    ("registry.misses", "count"),
    ("registry.evictions", "count"),
    ("registry.hit_ratio", "ratio"),
    ("shard.tiles", "count"),
    ("shard.halo_cells", "count"),
    ("shard.halo_frac", "ratio"),
    ("client.negotiate_ms", "ms"),
    ("client.submit_ms_p50", "ms"),
    ("client.submit_ms_p90", "ms"),
    ("client.wait_ms_p50", "ms"),
    ("client.wait_ms_p90", "ms"),
    ("client.polls_per_req", "count"),
    ("client.fetch_ms_p50", "ms"),
    ("client.fetch_ms_p90", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.grid_to_bytes_us", "us"),
    ("protocol.grid_from_bytes_us", "us"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.frames_per_req", "count"),
    ("net.bytes_in", "B"),
    ("net.bytes_out", "B"),
    ("net.bytes_per_req", "B"),
    ("net.protocol_errors", "count"),
    ("net.connections", "count"),
    ("latency.samples", "count"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: &[&str] = &["paper_apps", "tenants", "wire_small", "wire_bulk"];

/// What the command line asked for.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests (or windows) the workload issued.
    pub attempted: u64,
    /// Failed, shed, refused and output-mismatched requests.
    pub failed: u64,
    /// Outputs whose digest differed from the loop-nest reference.
    pub mismatched: u64,
    /// End-to-end metrics (gated run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// The traced pass's spans (traced run only).
    pub spans: Option<Recorder>,
    /// Root span names whose uncovered wall time is `trace.unaccounted_frac`.
    pub roots: &'static [&'static str],
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pochoir-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some(Args {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

/// Refuses settings that change the presets' plans: two commits must be
/// measured on identical plans.
fn preflight() -> Result<(), String> {
    if std::env::var_os("POCHOIR_SIMD").is_some() {
        return Err("POCHOIR_SIMD is set; it overrides the presets' SIMD policy".into());
    }
    if pochoir_autotune::profile::cached().is_some() {
        return Err(format!(
            "the tune profile at {} overrides the presets' plans",
            pochoir_autotune::profile::default_path().display()
        ));
    }
    Ok(())
}

/// The host facts every report carries.
fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workers = pochoir_runtime::Runtime::global().num_threads();
    let isa = pochoir_core::simd::detected().map_or("scalar", |i| i.name());
    format!(
        "{{\"nproc\": {nproc}, \"workers\": {workers}, \"isa\": \"{isa}\", \"l3_bytes\": {}}}",
        l3_bytes()
    )
}

/// The last-level (L3) cache size from CPUID leaf 4, or 0 when not reported.
#[cfg(target_arch = "x86_64")]
fn l3_bytes() -> u64 {
    use std::arch::x86_64::__cpuid_count;
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        if (r.eax >> 5) & 0x7 == 3 {
            let ways = u64::from((r.ebx >> 22) + 1);
            let partitions = u64::from(((r.ebx >> 12) & 0x3ff) + 1);
            let line = u64::from((r.ebx & 0xfff) + 1);
            let sets = u64::from(r.ecx) + 1;
            return ways * partitions * line * sets;
        }
    }
    0
}

#[cfg(not(target_arch = "x86_64"))]
fn l3_bytes() -> u64 {
    0
}

/// Peak resident set size of this process, in MiB (`getrusage`).
fn peak_rss_mb() -> f64 {
    /// Linux's `struct rusage`: two timevals, then fourteen longs.
    #[repr(C)]
    struct Rusage {
        _times: [i64; 4],
        maxrss_kib: i64,
        _rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        _times: [0; 4],
        maxrss_kib: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of Linux's
    // `struct rusage`, which is all getrusage writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss_kib as f64 / 1024.0
    } else {
        0.0
    }
}

/// Where the traced run writes its spans and labelled report.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if let Err(why) = preflight() {
        eprintln!("pochoir-perfbench: refusing to run: {why}");
        return ExitCode::from(3);
    }
    let provenance = provenance();
    println!("# provenance {provenance}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "paper_apps" => paper_apps::run(&args),
        "tenants" => tenants::run(&args),
        "wire_small" => wire::run(&args, wire::Scale::Small),
        "wire_bulk" => wire::run(&args, wire::Scale::Bulk),
        _ => unreachable!("parse_args only accepts known workloads"),
    };
    let correct = out.mismatched == 0;
    println!(
        "# attempted {} failed {} mismatched {} failed_frac {} wall_s {:.3}",
        out.attempted,
        out.failed,
        out.mismatched,
        ratio(out.failed as f64, out.attempted as f64),
        started.elapsed().as_secs_f64()
    );

    let metrics = if args.trace {
        let summary: Option<Summary> = out.spans.as_ref().map(|r| r.summary(out.roots));
        if let Some(summary) = &summary {
            summary.record(&mut out.metrics);
            summary.print();
        }
        out.metrics.print_table("per-layer metrics", PER_LAYER);
        if let Err(e) = write_trace(&args, &provenance, &out, summary.as_ref()) {
            eprintln!("pochoir-perfbench: could not write the trace: {e}");
        }
        out.metrics.json_object(PER_LAYER)
    } else {
        out.metrics.time("peak_rss_mb", peak_rss_mb(), "MiB");
        out.metrics.time(
            "ok_frac",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        );
        out.metrics.print_table("end-to-end metrics", END_TO_END);
        out.metrics.json_object(END_TO_END)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}

/// Writes the spans (JSON lines) and the labelled per-layer report.
fn write_trace(
    args: &Args,
    provenance: &str,
    out: &Outcome,
    summary: Option<&Summary>,
) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    if let Some(rec) = &out.spans {
        rec.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    let report = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"provenance\": {provenance}, \"self_time\": {}, \"metrics\": {}}}\n",
        args.workload,
        args.seed,
        summary.map_or("{}".to_string(), |s| s.json()),
        out.metrics.labelled_json()
    );
    std::fs::write(dir.join(format!("{stem}.report.json")), report)?;
    println!("# trace written to {}", dir.join(&stem).display());
    Ok(())
}
