//! `paper_apps`: the library path.  One `CompiledStencil` session per paper
//! application, stepped window after window with `run` on one grid.  heat2d
//! and life grids are at least 4× the host's 105 MiB L3 (memory-bound: where
//! TRAP's cache-obliviousness pays); wave3d fits in L3 (compute-bound, depth
//! 2).  A "request" is one `run` call of one window; windows are sized so each
//! app's window takes a few hundred milliseconds, and the measured loop always
//! runs the app with the least time so far, so each app gets a third of the
//! measured time, spread over all of it.

use std::time::{Duration, Instant};

use pochoir_analysis::{parallelism_of, Algorithm};
use pochoir_core::engine::executor::CompiledStencil;
use pochoir_core::engine::{self, schedule, serving, ExecutionPlan};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_runtime::Runtime;
use pochoir_stencils::heat::{self, HeatKernel};
use pochoir_stencils::life::{self, LifeKernel};
use pochoir_stencils::traffic::{digest_grid, heat_grid, life_grid, wave_grid, DigestBits};
use pochoir_stencils::wave::{self, WaveKernel};
use pochoir_trace::gen::Rng;

use crate::counters::{record_sessions, Counters};
use crate::reference::loops_digest;
use crate::report::{median, quantile, ratio, Metrics};
use crate::spans::Recorder;
use crate::{Args, Outcome};

/// heat2d extent: 5248² f64 × 2 slices = 420.25 MiB, 4× a 105 MiB L3.
const HEAT_N: usize = 5248;
/// life extent: 14848² u8 × 2 slices = 420.5 MiB.
const LIFE_N: usize = 14848;
/// wave3d extent: 128³ f64 × 3 slices = 48 MiB, inside L3.
const WAVE_N: usize = 128;
/// Tenant ids are drawn below this: `life_grid` fills `300 + tenant` per
/// mille of the board, so ids stay well under 700 to keep a random soup.
const TENANTS: u64 = 400;
/// Setup repetitions in the gated run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Windows per app in each pass of the traced run.
const TRACED_WINDOWS: usize = 3;

/// One paper application: its geometry, window, and how to build it.
struct App<T, K, const D: usize> {
    name: &'static str,
    sizes: [usize; D],
    window: i64,
    grid: fn([usize; D], u32) -> PochoirArray<T, D>,
    session: fn([usize; D], i64) -> CompiledStencil<T, K, D>,
    spec: fn() -> StencilSpec<D>,
    kernel: fn() -> K,
    /// Grid bytes one point update touches by array size: every input slice
    /// read once and the output slice written once.
    bytes_per_point: f64,
}

fn heat_app() -> App<f64, HeatKernel<2>, 2> {
    App {
        name: "heat2d",
        sizes: [HEAT_N; 2],
        window: 16,
        grid: heat_grid::<2>,
        session: heat::session_2d,
        spec: || StencilSpec::new(heat::shape::<2>()),
        kernel: HeatKernel::<2>::default,
        bytes_per_point: 16.0,
    }
}

fn life_app() -> App<u8, LifeKernel, 2> {
    App {
        name: "life",
        sizes: [LIFE_N; 2],
        window: 4,
        grid: life_grid,
        session: life::session,
        spec: || StencilSpec::new(life::shape()),
        kernel: || LifeKernel,
        bytes_per_point: 2.0,
    }
}

fn wave_app() -> App<f64, WaveKernel, 3> {
    App {
        name: "wave3d",
        sizes: [WAVE_N; 3],
        window: 32,
        grid: wave_grid,
        session: wave::session,
        spec: || StencilSpec::new(wave::shape()),
        kernel: WaveKernel::default,
        bytes_per_point: 24.0,
    }
}

/// Empties the process-global schedule cache and session registry, so each
/// build compiles from scratch whatever ran before.
fn cold() {
    schedule::clear_cache();
    serving::clear_registry();
}

/// An app with its grid and session, stepped to time `t`.
struct Live<T, K, const D: usize> {
    app: App<T, K, D>,
    tenant: u32,
    grid: PochoirArray<T, D>,
    session: CompiledStencil<T, K, D>,
    t: i64,
    /// Durations of the measured windows.
    windows: Vec<f64>,
}

/// The part of a live app the measured loop needs.
trait Stepper {
    fn name(&self) -> &'static str;
    fn points_per_window(&self) -> f64;
    /// Runs and times one window.
    fn step(&mut self) -> f64;
    fn windows(&self) -> &[f64];
    /// Checks the final state against the loop nest, freeing the grid.
    fn check(self: Box<Self>) -> bool;
}

impl<T, K, const D: usize> Live<T, K, D>
where
    T: DigestBits + Default + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    /// Setup: generate the grid, build the session, run one warm-up window.
    fn setup(app: App<T, K, D>, tenant: u32) -> Self {
        let mut grid = (app.grid)(app.sizes, tenant);
        let session = (app.session)(app.sizes, app.window);
        session.run(&mut grid, 0, app.window);
        Live {
            t: app.window,
            app,
            tenant,
            grid,
            session,
            windows: Vec::new(),
        }
    }

    fn points_per_window(&self) -> f64 {
        self.app.sizes.iter().product::<usize>() as f64 * self.app.window as f64
    }

    fn step(&mut self) -> f64 {
        let w = Instant::now();
        self.session
            .run(&mut self.grid, self.t, self.t + self.app.window);
        let d = w.elapsed().as_secs_f64();
        self.t += self.app.window;
        d
    }

    /// Median points per second over the measured windows, in millions.
    fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| self.points_per_window() / w / 1e6)
            .collect();
        median(&rates)
    }

    fn check(self) -> bool {
        let Live {
            app,
            tenant,
            t,
            grid,
            ..
        } = self;
        let got = digest_grid(&grid, t);
        drop(grid);
        let start = Instant::now();
        let want = loops_digest(
            (app.grid)(app.sizes, tenant),
            (app.spec)(),
            (app.kernel)(),
            t,
        );
        println!(
            "# reference {} {t} steps checked in {:.3} s",
            app.name,
            start.elapsed().as_secs_f64()
        );
        got == want
    }

    /// One traced-run pass: a cold session build plus `TRACED_WINDOWS`
    /// windows, with counter deltas over exactly that work.  Returns the
    /// pass's metrics and wall time.
    fn pass(&mut self, rec: &mut Recorder, keep: bool) -> (Metrics, f64) {
        let mut m = Metrics::default();
        cold();
        let before = Counters::now();
        let start = Instant::now();
        let root = rec.open("app", None, 0);
        let span = rec.open("executor.build", root, 0);
        self.session = (self.app.session)(self.app.sizes, self.app.window);
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        rec.close(span);
        for _ in 0..TRACED_WINDOWS {
            let span = rec.open("executor.run", root, 0);
            let d = self.step();
            rec.close(span);
            if keep {
                self.windows.push(d);
            }
        }
        rec.close(root);
        let wall = start.elapsed().as_secs_f64();
        before.record_delta(&Counters::now(), 0.0, 0.0, &mut m);
        m.time("executor.build_ms", build_ms, "ms");
        record_sessions(&self.session.stats(), &mut m);
        if let Some(s) = self.session.schedule() {
            m.count("schedule.leaves", s.num_leaves() as f64, "count");
            m.count("schedule.phases", s.num_phases() as f64, "count");
        }
        (m, wall)
    }
}

impl<T, K, const D: usize> Stepper for Live<T, K, D>
where
    T: DigestBits + Default + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    fn name(&self) -> &'static str {
        self.app.name
    }

    fn points_per_window(&self) -> f64 {
        Live::points_per_window(self)
    }

    fn step(&mut self) -> f64 {
        let d = Live::step(self);
        self.windows.push(d);
        d
    }

    fn windows(&self) -> &[f64] {
        &self.windows
    }

    fn check(self: Box<Self>) -> bool {
        Live::check(*self)
    }
}

/// Gated run: `SETUP_REPS` setups of all three apps, then the measured loop,
/// then the checks.
fn gated(args: &Args, tenants: &[u32], out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut apps: Vec<Box<dyn Stepper>> = Vec::new();
    for _ in 0..SETUP_REPS {
        apps.clear();
        cold();
        let start = Instant::now();
        apps.push(Box::new(Live::setup(heat_app(), tenants[0])));
        apps.push(Box::new(Live::setup(life_app(), tenants[1])));
        apps.push(Box::new(Live::setup(wave_app(), tenants[2])));
        setups.push(start.elapsed().as_secs_f64());
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let mut spent = vec![0.0f64; apps.len()];
    let start = Instant::now();
    while start.elapsed() < budget || apps.iter().any(|a| a.windows().is_empty()) {
        let k = (0..apps.len())
            .min_by(|&a, &b| spent[a].total_cmp(&spent[b]))
            .expect("three apps");
        spent[k] += apps[k].step();
    }

    // Whole-run rates use each app's median window, so one window slowed by
    // the host does not move them.
    let m = &mut out.metrics;
    let mut all = Vec::new();
    let (mut points, mut wall) = (0.0, 0.0);
    for a in &apps {
        let n = a.windows().len() as f64;
        let typical = median(a.windows());
        let rate = a.points_per_window() / typical / 1e6;
        print_app(a.name(), a.windows(), rate);
        m.time(format!("{}_mpoints_per_s", a.name()), rate, "Mpts/s");
        points += a.points_per_window() * n;
        wall += typical * n;
        all.extend_from_slice(a.windows());
    }
    m.time("mpoints_per_s", points / wall / 1e6, "Mpts/s");
    m.time("req_per_s", all.len() as f64 / wall, "1/s");
    m.time("latency_p50_ms", quantile(&all, 0.5) * 1e3, "ms");
    m.time("latency_p90_ms", quantile(&all, 0.9) * 1e3, "ms");
    m.time("setup_s", median(&setups), "s");
    println!("# latency samples {}", all.len());
    out.attempted = all.len() as u64;
    for a in apps {
        if !a.check() {
            out.mismatched += 1;
        }
    }
}

fn print_app(name: &str, windows: &[f64], rate: f64) {
    println!(
        "# app {name:<7} windows {:>4} median {rate:>9.3} Mpts/s  window p10/p50/p90 {:.3}/{:.3}/{:.3} ms",
        windows.len(),
        quantile(windows, 0.1) * 1e3,
        median(windows) * 1e3,
        quantile(windows, 0.9) * 1e3,
    );
}

/// What one app's traced run measured.
struct Traced {
    name: &'static str,
    rate: f64,
    windows: Vec<f64>,
    bytes_per_point: f64,
    pass_b: Metrics,
    pass_c: Metrics,
    untraced_s: f64,
    traced_s: f64,
    ok: bool,
}

/// Traced run of one app: setup once, then passes A (untraced), B (traced)
/// and C (an untraced repeat of B, to label counts exact or advisory), then
/// `extras`, then the check.
fn traced<T, K, const D: usize>(
    app: App<T, K, D>,
    tenant: u32,
    rec: &mut Recorder,
    extras: impl FnOnce(&mut Live<T, K, D>, &mut Metrics),
) -> Traced
where
    T: DigestBits + Default + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let mut live = Live::setup(app, tenant);
    let mut off = Recorder::new(false, Instant::now());
    let (_, untraced_s) = live.pass(&mut off, false);
    let (mut pass_b, traced_s) = live.pass(rec, true);
    let (pass_c, _) = live.pass(&mut off, false);
    extras(&mut live, &mut pass_b);
    print_app(live.app.name, &live.windows, live.rate());
    Traced {
        name: live.app.name,
        rate: live.rate(),
        windows: live.windows.clone(),
        bytes_per_point: live.app.bytes_per_point,
        pass_b,
        pass_c,
        untraced_s,
        traced_s,
        ok: live.check(),
    }
}

/// heat2d-only extras: the one-worker baseline, the Figure-1 loops baseline
/// (default SIMD policy, same grid) and the analyzer's predicted parallelism.
fn heat_extras(live: &mut Live<f64, HeatKernel<2>, 2>, m: &mut Metrics) {
    let window = live.app.window;
    let one = Runtime::new(1);
    let mut one_worker = Vec::new();
    for _ in 0..TRACED_WINDOWS {
        let w = Instant::now();
        live.session
            .run_with(&mut live.grid, live.t, live.t + window, &one);
        one_worker.push(w.elapsed().as_secs_f64());
        live.t += window;
    }
    drop(one);
    m.time(
        "runtime.speedup_2w",
        ratio(median(&one_worker), median(&live.windows)),
        "ratio",
    );

    let w = Instant::now();
    engine::run(
        &mut live.grid,
        &(live.app.spec)(),
        &(live.app.kernel)(),
        live.t,
        live.t + window,
        &ExecutionPlan::loops_parallel(),
        Runtime::global(),
    );
    let loops = live.points_per_window() / w.elapsed().as_secs_f64() / 1e6;
    live.t += window;
    m.time("loops.heat2d_mpoints_per_s", loops, "Mpts/s");
    m.time("executor.over_loops", ratio(live.rate(), loops), "ratio");

    let ws = parallelism_of::<2>(Algorithm::Trap, live.app.sizes[0] as i64, window);
    m.time("analysis.predicted_parallelism", ws.parallelism(), "ratio");
}

/// Copy bandwidth of a buffer as large as the heat2d grid (read + write bytes
/// per second): the memory roofline the memory-bound kernels sit under.
fn copy_bandwidth() -> f64 {
    let len = HEAT_N * HEAT_N * 16;
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    let mut times = Vec::new();
    for _ in 0..4 {
        let w = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        times.push(w.elapsed().as_secs_f64());
    }
    // The first copy faults the destination pages in.
    2.0 * len as f64 / median(&times[1..]) / 1e9
}

/// Counts summed across the apps.
const SUMMED: &[&str] = &[
    "executor.runs",
    "schedule.compiles",
    "schedule.fetches",
    "schedule.reuses",
    "schedule.cache_hits",
    "schedule.cache_misses",
    "schedule.cache_evictions",
    "schedule.leaves",
    "schedule.phases",
    "schedule.rejections",
    "simd.rows_avx2",
    "simd.rows_sse2",
    "runtime.jobs_spawned",
    "runtime.jobs_stolen",
];

/// Sums one pass's counts across the apps; ratios take the worst app.
fn combine(results: &[Traced], pick: fn(&Traced) -> &Metrics) -> Metrics {
    let mut m = Metrics::default();
    let total = |name: &str| {
        results
            .iter()
            .filter_map(|r| pick(r).get(name))
            .sum::<f64>()
    };
    for name in SUMMED {
        m.count(*name, total(name), "count");
    }
    for name in ["runtime.steal_ratio", "runtime.worker_imbalance"] {
        let worst = results
            .iter()
            .filter_map(|r| pick(r).get(name))
            .fold(0.0, f64::max);
        m.count(name, worst, "ratio");
    }
    m.count(
        "schedule.reuse_ratio",
        ratio(total("schedule.reuses"), total("executor.runs")),
        "ratio",
    );
    m.count(
        "runtime.workers",
        Runtime::global().num_threads() as f64,
        "count",
    );
    let samples = results.iter().map(|r| r.windows.len()).sum::<usize>();
    m.count("latency.samples", samples as f64, "count");
    m
}

fn traced_run(tenants: &[u32], out: &mut Outcome) {
    let mut rec = Recorder::new(true, Instant::now());
    let results = vec![
        traced(heat_app(), tenants[0], &mut rec, heat_extras),
        traced(life_app(), tenants[1], &mut rec, |_, _| {}),
        traced(wave_app(), tenants[2], &mut rec, |_, _| {}),
    ];
    out.spans = Some(rec);
    let mut m = combine(&results, |r| &r.pass_b);
    m.label_against(&combine(&results, |r| &r.pass_c));
    let all: Vec<f64> = results
        .iter()
        .flat_map(|r| r.windows.iter().copied())
        .collect();
    let total = |name: &str| {
        results
            .iter()
            .filter_map(|r| r.pass_b.get(name))
            .sum::<f64>()
    };
    m.time("executor.build_ms", total("executor.build_ms"), "ms");
    m.time(
        "executor.run_ms",
        all.iter().sum::<f64>() / all.len().max(1) as f64 * 1e3,
        "ms",
    );
    for r in &results {
        m.time(
            format!("kernel.{}_gb_per_s_computed", r.name),
            r.rate * 1e6 * r.bytes_per_point / 1e9,
            "GB/s",
        );
    }
    for (name, unit) in [
        ("runtime.speedup_2w", "ratio"),
        ("loops.heat2d_mpoints_per_s", "Mpts/s"),
        ("executor.over_loops", "ratio"),
        ("analysis.predicted_parallelism", "ratio"),
    ] {
        m.time(name, results[0].pass_b.get(name).unwrap_or(0.0), unit);
    }
    let untraced: f64 = results.iter().map(|r| r.untraced_s).sum();
    let traced: f64 = results.iter().map(|r| r.traced_s).sum();
    m.time(
        "trace.overhead_frac",
        ratio(traced, untraced) - 1.0,
        "ratio",
    );
    m.time("memory.copy_gb_per_s", copy_bandwidth(), "GB/s");
    out.metrics = m;
    out.attempted = (results.len() * 3 * TRACED_WINDOWS) as u64;
    out.mismatched = results.iter().filter(|r| !r.ok).count() as u64;
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = Rng::new(args.seed);
    let tenants: Vec<u32> = (0..3).map(|_| rng.below(TENANTS) as u32).collect();
    let mut out = Outcome {
        roots: &["app"],
        ..Outcome::default()
    };
    if args.trace {
        traced_run(&tenants, &mut out);
    } else {
        gated(args, &tenants, &mut out);
    }
    out.failed = out.mismatched;
    out
}
