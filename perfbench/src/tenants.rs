//! `tenants`: in-process multi-tenant serving.  A seeded trace from
//! `pochoir_trace::gen` mixes skewed (`heavy_tail`) heat2d tenants, bursty
//! (`diurnal`) life and wave3d tenants, `geometry_churn` over more geometries
//! than the session registry holds, and periodic sharded giant 1D heat grids
//! (`giant_grid`).  Records are bucketed into epochs by arrival tick; each epoch
//! submits its records through `StencilServer::try_submit_with` /
//! `try_submit_sharded` and drains every server with `drain()`.  Servers are
//! fetched from the session registry per epoch and dropped after it, so churned
//! geometries pay registry compiles and evictions inside the measured loop, as
//! users would.  A request is timed from the start of its submit call until
//! the drain that ran it returned.
//!
//! Every trace round has the same mix (one giant included) and lasts a fraction
//! of a second, so the gated run measures whole rounds and reports the median
//! of the per-round figures: a burst of load from elsewhere on a shared host
//! spoils a few rounds, not the run's figure.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use pochoir_core::engine::{
    schedule, serving, Coarsening, ExecutionPlan, ServeError, SessionStats, Sharding,
    StencilServer, SubmitOptions, TicketOutcome,
};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_runtime::Runtime;
use pochoir_stencils::heat::{self, HeatKernel};
use pochoir_stencils::life::{self, LifeKernel};
use pochoir_stencils::traffic::{usizes, DigestBits};
use pochoir_stencils::wave::{self, WaveKernel};
use pochoir_trace::corpus::{GIANT_CELLS, GIANT_TILES};
use pochoir_trace::gen::{self, DayCycle, GiantCell, WorkShape};
use pochoir_trace::{TraceApp, TraceRecord};

use crate::counters::{add_session, record_sessions, Counters};
use crate::reference::{Grid, TenantReference};
use crate::report::{median, quantile, Metrics};
use crate::spans::Recorder;
use crate::{Args, Outcome};

/// Drain window (trace chunk) of every served session.
const CHUNK: i64 = 4;
/// Arrival ticks per drain epoch.
const EPOCH_TICKS: u64 = 16;
/// Distinct churn geometries per 2D app: 2 × 48 keys exceed the registry's
/// default capacity of 64 sessions.
const CHURN_POOL: u64 = 48;
/// `giant_grid` arrivals per round; the last one is a giant, stepped two
/// chunks so its tiles exchange halos once.
const GIANT_EVERY: usize = 144;
/// Cells of the per-round giant: a tenth of the corpus giant.  A sharded
/// giant (uncoarsened, so it takes the tile route) steps ~10× slower per point
/// than the small tenants; this size keeps it near a quarter of a round's time.
const GIANT_ROUND_CELLS: u64 = GIANT_CELLS / 10;
/// Rounds of one traced-run pass.
const PASS_ROUNDS: u64 = 10;
/// Setup repetitions in the gated run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One trace round: every generator once, merged by arrival tick.  Rounds
/// repeat with fresh sub-seeds for as long as the run measures.
fn round(seed: u64, round: u64) -> Vec<TraceRecord> {
    let s = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    let heat = WorkShape::heat2d(48, 8);
    let life = WorkShape::life(48, 6);
    let wave = WorkShape::wave3d(16, 4);
    let day = DayCycle {
        day_ticks: 96,
        peak_gap: 1,
        trough_gap: 8,
    };
    let giant = GiantCell {
        every: GIANT_EVERY,
        cells: GIANT_ROUND_CELLS,
        window: 2 * CHUNK,
    };
    let mut records: Vec<TraceRecord> = [
        gen::heavy_tail(s ^ 1, &heat, 16, 192, CHUNK),
        gen::diurnal(s ^ 2, &life, 12, 128, day, CHUNK),
        gen::diurnal(s ^ 3, &wave, 8, 96, day, CHUNK),
        gen::geometry_churn(s ^ 4, 2, 288, CHURN_POOL, 24, 4, CHUNK),
        gen::giant_grid(s ^ 5, &heat, 6, GIANT_EVERY, giant, CHUNK),
    ]
    .into_iter()
    .flat_map(|t| t.records)
    .collect();
    records.sort_by_key(|r| r.arrival_tick);
    records
}

/// An endless sequence of non-empty epochs, each tagged with its round.
struct Epochs {
    seed: u64,
    round: u64,
    ready: VecDeque<(u64, Vec<TraceRecord>)>,
}

impl Epochs {
    fn new(seed: u64) -> Self {
        Epochs {
            seed,
            round: 0,
            ready: VecDeque::new(),
        }
    }

    /// The next epoch, or `None` once `rounds` whole rounds were handed out.
    fn next_within(&mut self, rounds: u64) -> Option<Vec<TraceRecord>> {
        if self.ready.is_empty() && self.round >= rounds {
            return None;
        }
        Some(self.next_epoch().1)
    }

    fn next_epoch(&mut self) -> (u64, Vec<TraceRecord>) {
        while self.ready.is_empty() {
            let mut buckets: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
            for r in round(self.seed, self.round) {
                buckets
                    .entry(r.arrival_tick / EPOCH_TICKS)
                    .or_default()
                    .push(r);
            }
            let round = self.round;
            self.ready
                .extend(buckets.into_values().map(|records| (round, records)));
            self.round += 1;
        }
        self.ready.pop_front().expect("refilled above")
    }
}

/// A served `(app, geometry)` pair.
enum AnyServer {
    Heat2d(StencilServer<f64, HeatKernel<2>, 2>),
    Life(StencilServer<u8, LifeKernel, 2>),
    Wave3d(StencilServer<f64, WaveKernel, 3>),
    HeatGiant1d(StencilServer<f64, HeatKernel<1>, 1>),
}

macro_rules! with_server {
    ($any:expr, $srv:ident => $body:expr) => {
        match $any {
            AnyServer::Heat2d($srv) => $body,
            AnyServer::Life($srv) => $body,
            AnyServer::Wave3d($srv) => $body,
            AnyServer::HeatGiant1d($srv) => $body,
        }
    };
}

/// A queued ticket: which epoch record it serves, and whether it holds the
/// record's result (member tiles of a sharded group do not).
struct Ticket {
    record: usize,
    lead: bool,
}

struct Slot {
    server: AnyServer,
    tickets: Vec<Ticket>,
    /// The shared program's counters when this epoch fetched it: zero for a
    /// fresh compile (so its build counts), the history so far for a
    /// registry hit.
    baseline: SessionStats,
}

fn build(app: TraceApp, geometry: &[u64]) -> Result<AnyServer, ServeError> {
    Ok(match app {
        TraceApp::Heat2d => AnyServer::Heat2d(heat::try_serve_2d(usizes::<2>(geometry), CHUNK)?),
        TraceApp::Life => AnyServer::Life(life::try_serve(usizes::<2>(geometry), CHUNK)?),
        TraceApp::Wave3d => AnyServer::Wave3d(wave::try_serve(usizes::<3>(geometry), CHUNK)?),
        // The tile count is pinned: automatic sharding sizes groups off the
        // host's worker count.
        TraceApp::HeatGiant1d => AnyServer::HeatGiant1d(StencilServer::try_new(
            StencilSpec::new(heat::shape::<1>()),
            HeatKernel::<1>::default(),
            ExecutionPlan::trap()
                .with_coarsening(Coarsening::none())
                .with_sharding(Sharding::Tiles(GIANT_TILES)),
            usizes::<1>(geometry),
            CHUNK,
        )?),
    })
}

impl Slot {
    /// Queues epoch record `index`; a giant adds one member ticket per tile
    /// the shard plan actually created.
    fn submit(&mut self, index: usize, r: &TraceRecord, grid: Grid) -> Result<(), ServeError> {
        let opts = SubmitOptions {
            weight: r.weight,
            deadline: r.deadline,
        };
        let before = with_server!(&self.server, s => s.pending());
        match (&mut self.server, grid) {
            (AnyServer::Heat2d(s), Grid::Heat2d(g)) => {
                s.try_submit_with(g, 0, r.window, opts)?;
            }
            (AnyServer::Life(s), Grid::Life(g)) => {
                s.try_submit_with(g, 0, r.window, opts)?;
            }
            (AnyServer::Wave3d(s), Grid::Wave3d(g)) => {
                s.try_submit_with(g, 0, r.window, opts)?;
            }
            (AnyServer::HeatGiant1d(s), Grid::HeatGiant1d(g)) => {
                s.try_submit_sharded(g, 0, r.window, opts)?;
            }
            _ => unreachable!("servers are keyed by app"),
        }
        let queued = with_server!(&self.server, s => s.pending()) - before;
        for k in 0..queued.max(1) {
            self.tickets.push(Ticket {
                record: index,
                lead: k == 0,
            });
        }
        Ok(())
    }

    /// Drains; returns `(record, completed, grid)` per lead ticket.  The
    /// caller digests the grids outside the measured time.
    fn drain(&mut self) -> Vec<(usize, bool, Grid)> {
        let tickets = std::mem::take(&mut self.tickets);
        fn collect<T, K, const D: usize>(
            s: &mut StencilServer<T, K, D>,
            tickets: &[Ticket],
            wrap: fn(PochoirArray<T, D>) -> Grid,
        ) -> Vec<(usize, bool, Grid)>
        where
            T: DigestBits + Send + Sync + 'static,
            K: StencilKernel<T, D>,
        {
            let grids = s.drain();
            let report = s.last_drain();
            let completed: Vec<bool> = (0..tickets.len())
                .map(|i| {
                    matches!(
                        report.and_then(|r| r.outcome(i)),
                        Some(TicketOutcome::Completed)
                    )
                })
                .collect();
            tickets
                .iter()
                .zip(grids)
                .zip(completed)
                .filter(|((t, _), _)| t.lead)
                .map(|((t, g), ok)| (t.record, ok, wrap(g)))
                .collect()
        }
        match &mut self.server {
            AnyServer::Heat2d(s) => collect(s, &tickets, Grid::Heat2d),
            AnyServer::Life(s) => collect(s, &tickets, Grid::Life),
            AnyServer::Wave3d(s) => collect(s, &tickets, Grid::Wave3d),
            AnyServer::HeatGiant1d(s) => collect(s, &tickets, Grid::HeatGiant1d),
        }
    }

    fn stats(&self) -> SessionStats {
        with_server!(&self.server, s => s.stats())
    }
}

/// Everything a sequence of epochs measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
    /// Measured seconds: submit through drain of every epoch.
    wall: f64,
    latencies: Vec<f64>,
    submit_s: Vec<f64>,
    drain_s: Vec<f64>,
    /// Completed stencil points, per app.
    points: BTreeMap<TraceApp, f64>,
    giant_cells: f64,
    sessions: SessionStats,
    epochs: u64,
}

/// The gated run's metrics that are measured per round.
const ROUND_METRICS: [(&str, &str); 7] = [
    ("mpoints_per_s", "Mpts/s"),
    ("heat2d_mpoints_per_s", "Mpts/s"),
    ("life_mpoints_per_s", "Mpts/s"),
    ("wave3d_mpoints_per_s", "Mpts/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Where a tally stood when a round began.
struct Mark {
    wall: f64,
    points: BTreeMap<TraceApp, f64>,
    latencies: usize,
}

impl Mark {
    fn of(tally: &Tally) -> Mark {
        Mark {
            wall: tally.wall,
            points: tally.points.clone(),
            latencies: tally.latencies.len(),
        }
    }
}

/// The `ROUND_METRICS` of the round that began at `from`.
fn round_figures(tally: &Tally, from: &Mark) -> [f64; ROUND_METRICS.len()] {
    let wall = tally.wall - from.wall;
    let points = |app: &TraceApp| {
        tally.points.get(app).copied().unwrap_or(0.0) - from.points.get(app).copied().unwrap_or(0.0)
    };
    let mpts = |p: f64| p / wall / 1e6;
    let latencies = &tally.latencies[from.latencies..];
    [
        mpts(tally.points.keys().map(points).sum()),
        mpts(points(&TraceApp::Heat2d)),
        mpts(points(&TraceApp::Life)),
        mpts(points(&TraceApp::Wave3d)),
        latencies.len() as f64 / wall,
        quantile(latencies, 0.5) * 1e3,
        quantile(latencies, 0.9) * 1e3,
    ]
}

/// Runs one epoch: submit every record, drain every server, then (outside
/// the measured time) compare each result with the loop-nest reference.
fn epoch(
    records: &[TraceRecord],
    group: u64,
    rec: &mut Recorder,
    reference: &mut TenantReference,
    tally: &mut Tally,
) {
    // Inputs are built before the clock starts, as a client would hold them.
    let inputs: Vec<Grid> = records
        .iter()
        .map(|r| reference.input(r.app, &r.geometry, r.tenant, r.window))
        .collect();
    let start = Instant::now();
    let root = rec.open("epoch", None, group);
    let mut slots: BTreeMap<(TraceApp, Vec<u64>), Slot> = BTreeMap::new();
    let mut submitted: Vec<Option<Instant>> = vec![None; records.len()];
    for ((i, r), input) in records.iter().enumerate().zip(inputs) {
        tally.attempted += 1;
        let key = (r.app, r.geometry.clone());
        if !slots.contains_key(&key) {
            let span = rec.open("serving.build", root, group);
            let built = build(r.app, &r.geometry);
            rec.close(span);
            match built {
                Ok(server) => {
                    let stats = with_server!(&server, s => s.stats());
                    let baseline = if stats.runs == 0 {
                        SessionStats::default()
                    } else {
                        stats
                    };
                    slots.insert(
                        key.clone(),
                        Slot {
                            server,
                            tickets: Vec::new(),
                            baseline,
                        },
                    );
                }
                Err(_) => {
                    tally.failed += 1;
                    continue;
                }
            }
        }
        let slot = slots.get_mut(&key).expect("inserted above");
        let span = rec.open("serving.submit", root, group);
        let t = Instant::now();
        let queued = slot.submit(i, r, input);
        tally.submit_s.push(t.elapsed().as_secs_f64());
        rec.close(span);
        match queued {
            Ok(()) => submitted[i] = Some(t),
            Err(_) => tally.failed += 1,
        }
    }
    let mut drained = Vec::new();
    for slot in slots.values_mut() {
        let span = rec.open("serving.drain", root, group);
        let t = Instant::now();
        let results = slot.drain();
        let done = Instant::now();
        tally.drain_s.push((done - t).as_secs_f64());
        rec.close(span);
        for (i, ok, grid) in results {
            if let Some(sent) = submitted[i] {
                tally.latencies.push((done - sent).as_secs_f64());
            }
            drained.push((i, ok, grid));
        }
    }
    rec.close(root);
    tally.wall += start.elapsed().as_secs_f64();
    tally.epochs += 1;
    for slot in slots.values() {
        add_session(&mut tally.sessions, slot.stats(), slot.baseline);
    }
    drop(slots);

    for (i, ok, grid) in drained {
        let r = &records[i];
        if !ok {
            tally.failed += 1;
            continue;
        }
        if !reference.matches(r.app, &r.geometry, r.tenant, r.window, &grid) {
            tally.mismatched += 1;
            tally.failed += 1;
            continue;
        }
        let volume = r.geometry.iter().product::<u64>() as f64;
        *tally.points.entry(r.app).or_default() += volume * r.window as f64;
        if r.app == TraceApp::HeatGiant1d {
            tally.giant_cells += volume * r.window as f64;
        }
    }
}

/// One setup: cold caches, the trace's first rounds, and one warm-up request
/// per preset, giant included (which compiles and registers its sessions).
/// Returns the setup time (the warm-up's check excluded) and the warm-up's
/// tally.
fn setup(seed: u64, reference: &mut TenantReference) -> (f64, Tally) {
    schedule::clear_cache();
    serving::clear_registry();
    let start = Instant::now();
    let first = round(seed, 0);
    let mut warm = Vec::new();
    for app in pochoir_trace::TRACE_APPS {
        if let Some(r) = first.iter().find(|r| r.app == app) {
            warm.push(TraceRecord {
                arrival_tick: 0,
                ..r.clone()
            });
        }
    }
    let generated = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    epoch(
        &warm,
        0,
        &mut Recorder::new(false, start),
        reference,
        &mut tally,
    );
    (generated + tally.wall, tally)
}

/// One traced-run pass over the first `PASS_ROUNDS` rounds, from cold caches.
fn pass(seed: u64, rec: &mut Recorder, reference: &mut TenantReference) -> (Tally, Metrics) {
    schedule::clear_cache();
    serving::clear_registry();
    let mut epochs = Epochs::new(seed);
    let mut tally = Tally::default();
    let before = Counters::now();
    while let Some(records) = epochs.next_within(PASS_ROUNDS) {
        let group = tally.epochs;
        epoch(&records, group, rec, reference, &mut tally);
    }
    let mut m = Metrics::default();
    let requests = tally.latencies.len() as f64;
    before.record_delta(&Counters::now(), tally.giant_cells, requests, &mut m);
    record_sessions(&tally.sessions, &mut m);
    m.count("latency.samples", requests, "count");
    (tally, m)
}

/// Runs the workload on a worker of the global pool, so the thread that
/// submits and drains is a pool worker.  An outside caller is one runnable
/// thread more than the pool has cores for, and would measure the OS
/// scheduler's handoffs between it and the spinning workers.
pub fn run(args: &Args) -> Outcome {
    Runtime::global().install(|| run_in_pool(args))
}

fn run_in_pool(args: &Args) -> Outcome {
    let mut reference = TenantReference::default();
    let mut out = Outcome {
        roots: &["epoch"],
        ..Outcome::default()
    };
    let tally = if args.trace {
        let mut off = Recorder::new(false, Instant::now());
        let (a, _) = pass(args.seed, &mut off, &mut reference);
        let mut rec = Recorder::new(true, Instant::now());
        let (b, mut m) = pass(args.seed, &mut rec, &mut reference);
        let (c, mc) = pass(args.seed, &mut off, &mut reference);
        m.label_against(&mc);
        m.time(
            "serving.submit_us_p50",
            quantile(&b.submit_s, 0.5) * 1e6,
            "us",
        );
        m.time(
            "serving.submit_us_p90",
            quantile(&b.submit_s, 0.9) * 1e6,
            "us",
        );
        m.time(
            "serving.drain_ms_p50",
            quantile(&b.drain_s, 0.5) * 1e3,
            "ms",
        );
        m.time(
            "serving.drain_ms_p90",
            quantile(&b.drain_s, 0.9) * 1e3,
            "ms",
        );
        let windows = m.get("serving.windows").unwrap_or(0.0);
        m.time("serving.windows_per_s", windows / b.wall, "1/s");
        m.time("trace.overhead_frac", b.wall / a.wall - 1.0, "ratio");
        out.metrics = m;
        out.spans = Some(rec);
        for t in [&a, &b, &c] {
            out.attempted += t.attempted;
            out.failed += t.failed;
            out.mismatched += t.mismatched;
        }
        b
    } else {
        let mut setups = Vec::new();
        for _ in 0..SETUP_REPS {
            let (seconds, warm) = setup(args.seed, &mut reference);
            setups.push(seconds);
            out.failed += warm.failed;
            out.mismatched += warm.mismatched;
        }
        let mut epochs = Epochs::new(args.seed);
        let mut tally = Tally::default();
        let mut rec = Recorder::new(false, Instant::now());
        let mut rounds: Vec<[f64; ROUND_METRICS.len()]> = Vec::new();
        let mut current = 0;
        let mut mark = Mark::of(&tally);
        loop {
            let (round, records) = epochs.next_epoch();
            if round != current {
                rounds.push(round_figures(&tally, &mark));
                if tally.wall >= args.seconds {
                    break;
                }
                current = round;
                mark = Mark::of(&tally);
            }
            let group = tally.epochs;
            epoch(&records, group, &mut rec, &mut reference, &mut tally);
        }
        let m = &mut out.metrics;
        for (k, (name, unit)) in ROUND_METRICS.iter().enumerate() {
            let per_round: Vec<f64> = rounds.iter().map(|f| f[k]).collect();
            m.time(*name, median(&per_round), unit);
        }
        println!(
            "# rounds {} (metrics are per-round medians); whole-run mpoints_per_s {:.3}",
            rounds.len(),
            tally.points.values().sum::<f64>() / tally.wall / 1e6
        );
        m.time("setup_s", median(&setups), "s");
        out.attempted = tally.attempted;
        out.failed += tally.failed;
        out.mismatched += tally.mismatched;
        tally
    };
    println!(
        "# epochs {} requests {} latency samples {} measured {:.3} s",
        tally.epochs,
        tally.attempted,
        tally.latencies.len(),
        tally.wall
    );
    out
}
