//! Snapshots of the counters the library already keeps, and their deltas as
//! per-layer metrics.

use pochoir_core::engine::schedule::{self, CacheStats};
use pochoir_core::engine::serving::{self, RegistryStats};
use pochoir_core::engine::SessionStats;
use pochoir_core::simd;
use pochoir_runtime::{MetricsSnapshot, Runtime};

use crate::report::{ratio, Metrics};

/// Every process-global counter, read at one instant.
pub struct Counters {
    runtime: MetricsSnapshot,
    executed: Vec<u64>,
    cache: CacheStats,
    registry: RegistryStats,
    simd_rows: (u64, u64),
}

impl Counters {
    pub fn now() -> Self {
        let rt = Runtime::global();
        Counters {
            runtime: rt.metrics(),
            executed: rt.worker_executed(),
            cache: schedule::cache_stats(),
            registry: serving::registry_stats(),
            simd_rows: simd::rows_snapshot(),
        }
    }

    /// Records what happened between `self` and `later`.  `giant_cells` is the
    /// volume of sharded grids stepped in the interval (for `shard.halo_frac`);
    /// `requests` is the number of completed requests (for the per-request
    /// network ratios).
    pub fn record_delta(&self, later: &Counters, giant_cells: f64, requests: f64, m: &mut Metrics) {
        let d = self.runtime.delta(&later.runtime);
        let c = |a: u64, b: u64| b.saturating_sub(a) as f64;

        m.count(
            "runtime.workers",
            Runtime::global().num_threads() as f64,
            "count",
        );
        m.count("runtime.jobs_spawned", d.spawned as f64, "count");
        m.count("runtime.jobs_stolen", d.stolen as f64, "count");
        m.count(
            "runtime.steal_ratio",
            ratio(d.stolen as f64, d.executed as f64),
            "ratio",
        );
        let per_worker: Vec<f64> = later
            .executed
            .iter()
            .zip(self.executed.iter().chain(std::iter::repeat(&0)))
            .map(|(&b, &a)| c(a, b))
            .collect();
        let mean = per_worker.iter().sum::<f64>() / per_worker.len().max(1) as f64;
        let max = per_worker.iter().cloned().fold(0.0, f64::max);
        m.count("runtime.worker_imbalance", ratio(max, mean), "ratio");

        m.count(
            "schedule.cache_hits",
            c(self.cache.hits, later.cache.hits),
            "count",
        );
        m.count(
            "schedule.cache_misses",
            c(self.cache.compiles, later.cache.compiles),
            "count",
        );
        m.count(
            "schedule.cache_evictions",
            c(self.cache.evictions, later.cache.evictions),
            "count",
        );
        m.count(
            "schedule.rejections",
            d.schedule_compile_rejections as f64,
            "count",
        );

        let (hits, misses) = (
            c(self.registry.hits, later.registry.hits),
            c(self.registry.misses, later.registry.misses),
        );
        m.count("registry.hits", hits, "count");
        m.count("registry.misses", misses, "count");
        m.count(
            "registry.evictions",
            c(self.registry.evictions, later.registry.evictions),
            "count",
        );
        m.count("registry.hit_ratio", ratio(hits, hits + misses), "ratio");

        m.count(
            "simd.rows_sse2",
            c(self.simd_rows.0, later.simd_rows.0),
            "count",
        );
        m.count(
            "simd.rows_avx2",
            c(self.simd_rows.1, later.simd_rows.1),
            "count",
        );

        m.count("serving.windows", d.serving_windows as f64, "count");
        m.count(
            "serving.queue_depth_peak",
            d.serving_queue_depth_peak as f64,
            "count",
        );
        m.count(
            "serving.deadline_misses",
            d.serving_deadline_misses as f64,
            "count",
        );
        m.count("serving.shed", d.serving_shed as f64, "count");

        m.count("shard.tiles", d.shard_tiles as f64, "count");
        m.count("shard.halo_cells", d.shard_halo_cells as f64, "count");
        m.count(
            "shard.halo_frac",
            ratio(d.shard_halo_cells as f64, giant_cells),
            "ratio",
        );

        let frames = (d.net_frames_in + d.net_frames_out) as f64;
        let bytes = (d.net_bytes_in + d.net_bytes_out) as f64;
        m.count("net.connections", d.net_connections as f64, "count");
        m.count("net.frames_in", d.net_frames_in as f64, "count");
        m.count("net.frames_out", d.net_frames_out as f64, "count");
        m.count("net.frames_per_req", ratio(frames, requests), "count");
        m.count("net.bytes_in", d.net_bytes_in as f64, "B");
        m.count("net.bytes_out", d.net_bytes_out as f64, "B");
        m.count("net.bytes_per_req", ratio(bytes, requests), "B");
        m.count("net.protocol_errors", d.net_protocol_errors as f64, "count");
    }
}

/// Adds what a session's executor counters gained between `earlier` and
/// `later` into running totals.
pub fn add_session(total: &mut SessionStats, later: SessionStats, earlier: SessionStats) {
    total.runs += later.runs - earlier.runs;
    total.schedule_reuses += later.schedule_reuses - earlier.schedule_reuses;
    total.schedule_fetches += later.schedule_fetches - earlier.schedule_fetches;
    total.schedule_compiles += later.schedule_compiles - earlier.schedule_compiles;
    total.schedule_rejections += later.schedule_rejections - earlier.schedule_rejections;
    total.sharded_runs += later.sharded_runs - earlier.sharded_runs;
    total.recursive_runs += later.recursive_runs - earlier.recursive_runs;
}

/// Records summed session counters.
pub fn record_sessions(s: &SessionStats, m: &mut Metrics) {
    m.count("executor.runs", s.runs as f64, "count");
    m.count("schedule.compiles", s.schedule_compiles as f64, "count");
    m.count("schedule.fetches", s.schedule_fetches as f64, "count");
    m.count("schedule.reuses", s.schedule_reuses as f64, "count");
    m.count(
        "schedule.reuse_ratio",
        ratio(s.schedule_reuses as f64, s.runs as f64),
        "ratio",
    );
}
