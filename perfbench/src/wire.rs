//! `wire_small` and `wire_bulk`: a closed loop over TCP.  Two connections to an
//! in-process `pochoir_serve::Server` on an ephemeral loopback port each send
//! seeded heat2d / life / wave3d requests, one at a time, as
//! `submit_grid` → `wait` → `fetch`.  A request is timed from the start of its
//! submit call until its result is in hand.  `wire_small` sends 48² / 16³
//! grids, so roundtrips, syscalls, poll sleeps and drain wake-ups make up the
//! latency; `wire_bulk` sends MB-scale grids each way, so payload copies and
//! engine compute matter too.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use pochoir_core::engine::{schedule, serving};
use pochoir_core::grid::PochoirArray;
use pochoir_serve::protocol::{grid_from_bytes, grid_to_bytes, WireElem};
use pochoir_serve::{Client, ClientError, Deadline, ElemType, Frame, ServeConfig, Server, Session};
use pochoir_trace::gen::Rng;
use pochoir_trace::TraceApp;

use crate::counters::Counters;
use crate::reference::{Grid, TenantReference};
use crate::report::{median, quantile, Metrics};
use crate::spans::Recorder;
use crate::{Args, Outcome};

/// Which grid sizes the connections send.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Small,
    Bulk,
}

/// Connections (and client threads).
const CONNECTIONS: usize = 2;
/// Drain window of every negotiated session.
const CHUNK: i64 = 4;
/// Input grids generated per app and connection; requests cycle through them.
const POOL: usize = 2;
/// Setup repetitions in the gated run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// How long a client waits for one request before calling it failed.
const WAIT_LIMIT: Duration = Duration::from_secs(60);

/// One request shape: app, geometry and steps per request.
struct Shape {
    app: TraceApp,
    geometry: Vec<u64>,
    steps: i64,
}

fn shapes(scale: Scale) -> Vec<Shape> {
    let (n2, nl, n3) = match scale {
        Scale::Small => (48, 48, 16),
        // heat2d 1024² f64 and wave3d 96³ f64: 16 and 13.5 MiB per submit
        // payload; life 2048² u8: 8 MiB.
        Scale::Bulk => (1024, 2048, 96),
    };
    vec![
        Shape {
            app: TraceApp::Heat2d,
            geometry: vec![n2, n2],
            steps: 8,
        },
        Shape {
            app: TraceApp::Life,
            geometry: vec![nl, nl],
            steps: 8,
        },
        Shape {
            app: TraceApp::Wave3d,
            geometry: vec![n3, n3, n3],
            steps: 8,
        },
    ]
}

/// Submits `grid` over `[0, t1)` on `session`.
fn submit(
    c: &mut Client,
    session: &Session,
    grid: &Grid,
    tenant: u32,
    t1: i64,
) -> Result<u64, ClientError> {
    match grid {
        Grid::Heat2d(g) => c.submit_grid(session, g, tenant, 0, t1, 1, Deadline::None),
        Grid::Life(g) => c.submit_grid(session, g, tenant, 0, t1, 1, Deadline::None),
        Grid::Wave3d(g) => c.submit_grid(session, g, tenant, 0, t1, 1, Deadline::None),
        Grid::HeatGiant1d(g) => c.submit_grid(session, g, tenant, 0, t1, 1, Deadline::None),
    }
}

/// How long a connection's request loop runs.
#[derive(Clone, Copy)]
enum Until {
    /// Only connect, negotiate and warm up (a setup repetition).
    WarmedUp,
    /// Measure for this long after warm-up.
    Elapsed(Duration),
    /// Send exactly this many requests, without warm-up (traced passes).
    Requests(usize),
}

/// One completed request, checked later.
struct Done {
    shape: usize,
    tenant: u32,
    digest: u64,
}

/// What one connection measured.
#[derive(Default)]
struct ConnTally {
    attempted: u64,
    failed: u64,
    latencies: Vec<f64>,
    submit: Vec<f64>,
    wait: Vec<f64>,
    fetch: Vec<f64>,
    negotiate: Vec<f64>,
    /// Measured loop wall.
    wall: f64,
    points: [f64; 3],
    done: Vec<Done>,
}

/// One connection: connect, negotiate a session per shape, build its input
/// pool, optionally warm up, wait for the other connections, then loop.
#[allow(clippy::too_many_arguments)]
fn connection(
    addr: &str,
    conn: usize,
    seed: u64,
    shapes: &[Shape],
    until: Until,
    ready: &Barrier,
    go: &Barrier,
    mut rec: Recorder,
) -> (ConnTally, Recorder) {
    let mut tally = ConnTally::default();
    let mut rng = Rng::new(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let setup = (|| {
        let mut client = Client::connect(addr).ok()?;
        let mut sessions = Vec::new();
        for shape in shapes {
            let t = Instant::now();
            sessions.push(client.negotiate(shape.app, &shape.geometry, CHUNK).ok()?);
            tally.negotiate.push(t.elapsed().as_secs_f64());
        }
        let pool: Vec<Vec<(u32, Grid)>> = shapes
            .iter()
            .map(|shape| {
                (0..POOL)
                    .map(|_| {
                        let tenant = rng.below(400) as u32;
                        (tenant, Grid::new(shape.app, &shape.geometry, tenant))
                    })
                    .collect()
            })
            .collect();
        if !matches!(until, Until::Requests(_)) {
            for (k, shape) in shapes.iter().enumerate() {
                let (tenant, input) = &pool[k][0];
                let id = submit(&mut client, &sessions[k], input, *tenant, shape.steps).ok()?;
                client.wait(id, WAIT_LIMIT).ok()?;
                client.fetch(id).ok()?;
            }
        }
        Some((client, sessions, pool))
    })();
    ready.wait();
    go.wait();
    let Some((mut client, sessions, pool)) = setup else {
        tally.attempted = 1;
        tally.failed = 1;
        return (tally, rec);
    };

    let start = Instant::now();
    let mut checking = Duration::ZERO;
    let mut i = 0usize;
    loop {
        let more = match until {
            Until::WarmedUp => false,
            Until::Elapsed(d) => start.elapsed() - checking < d,
            Until::Requests(n) => i < n,
        };
        if !more {
            break;
        }
        // Connections start on different apps so both are never in the same
        // phase of the rotation.
        let k = (i + conn) % shapes.len();
        let (tenant, input) = &pool[k][(i / shapes.len()) % POOL];
        let shape = &shapes[k];
        i += 1;
        tally.attempted += 1;
        let group = (conn as u64) << 32 | i as u64;
        let root = rec.open("request", None, group);
        let t = Instant::now();
        let span = rec.open("client.submit", root, group);
        let submitted = submit(&mut client, &sessions[k], input, *tenant, shape.steps);
        rec.close(span);
        let t_sub = Instant::now();
        let Ok(id) = submitted else {
            tally.failed += 1;
            rec.close(root);
            continue;
        };
        let span = rec.open("client.wait", root, group);
        let waited = client.wait(id, WAIT_LIMIT);
        rec.close(span);
        let t_wait = Instant::now();
        let span = rec.open("client.fetch", root, group);
        let fetched = client.fetch(id);
        rec.close(span);
        let t_done = Instant::now();
        rec.close(root);
        match (waited, fetched) {
            (Ok(_), Ok(result)) => {
                let check = Instant::now();
                tally.latencies.push((t_done - t).as_secs_f64());
                tally.submit.push((t_sub - t).as_secs_f64());
                tally.wait.push((t_wait - t_sub).as_secs_f64());
                tally.fetch.push((t_done - t_wait).as_secs_f64());
                let volume = shape.geometry.iter().product::<u64>() as f64;
                tally.points[k] += volume * shape.steps as f64;
                tally.done.push(Done {
                    shape: k,
                    tenant: *tenant,
                    digest: result.digest(),
                });
                checking += check.elapsed();
            }
            _ => tally.failed += 1,
        }
    }
    // The client's digest of each result is a check, not load: it stays out
    // of the measured wall.
    tally.wall = (start.elapsed() - checking).as_secs_f64();
    let _ = client.close();
    (tally, rec)
}

/// One server lifetime: start it, run `CONNECTIONS` connections, shut down.
/// Returns the setup time (server start until every connection is ready),
/// the connections' tallies and their spans.
fn serve_once(
    seed: u64,
    shapes: &[Shape],
    until: Until,
    rec: &Recorder,
) -> (f64, Vec<ConnTally>, Recorder) {
    schedule::clear_cache();
    serving::clear_registry();
    let start = Instant::now();
    let server = Server::start(ServeConfig::default()).expect("bind an ephemeral loopback port");
    let addr = server.addr().to_string();
    let ready = Barrier::new(CONNECTIONS + 1);
    let go = Barrier::new(CONNECTIONS + 1);
    let mut spans = rec.fork();
    let (setup_s, tallies) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (addr, ready, go, r) = (&addr, &ready, &go, rec.fork());
                s.spawn(move || connection(addr, c, seed, shapes, until, ready, go, r))
            })
            .collect();
        ready.wait();
        let setup_s = start.elapsed().as_secs_f64();
        go.wait();
        let tallies: Vec<ConnTally> = handles
            .into_iter()
            .map(|h| {
                let (tally, r) = h.join().expect("connection thread panicked");
                spans.absorb(r);
                tally
            })
            .collect();
        (setup_s, tallies)
    });
    server.shutdown();
    (setup_s, tallies, spans)
}

/// Checks every fetched digest against the loop-nest reference; returns the
/// number of mismatches.
fn check(shapes: &[Shape], tallies: &[ConnTally], reference: &mut TenantReference) -> u64 {
    let mut bad = 0;
    for t in tallies {
        for d in &t.done {
            let s = &shapes[d.shape];
            if d.digest != reference.digest(s.app, &s.geometry, d.tenant, s.steps) {
                bad += 1;
            }
        }
    }
    bad
}

/// Times the protocol's public codec functions on this workload's own
/// payloads: `grid_to_bytes`, `Frame::encode`, `Frame::decode` and
/// `grid_from_bytes`, median over a few repetitions, summed over the shapes.
fn protocol_timings(shapes: &[Shape], m: &mut Metrics) {
    fn one<T: WireElem, const D: usize>(
        grid: &PochoirArray<T, D>,
        elem: ElemType,
        acc: &mut [Vec<f64>; 4],
    ) {
        let t = Instant::now();
        let bytes = grid_to_bytes(grid);
        acc[0].push(t.elapsed().as_secs_f64());
        let frame = Frame::Submit {
            session: 1,
            tenant: 1,
            t0: 0,
            t1: 8,
            weight: 1,
            deadline: Deadline::None,
            elem,
            grid: bytes,
        };
        let t = Instant::now();
        let body = frame.encode();
        acc[1].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let decoded = Frame::decode(std::hint::black_box(&body)).expect("own frame decodes");
        acc[2].push(t.elapsed().as_secs_f64());
        let Frame::Submit { grid: bytes, .. } = decoded else {
            unreachable!("a Submit frame decodes as Submit")
        };
        let t = Instant::now();
        let back = grid_from_bytes(
            grid.sizes(),
            grid.time_slices(),
            grid.boundary().clone(),
            &bytes,
        )
        .expect("own payload rebuilds");
        acc[3].push(t.elapsed().as_secs_f64());
        std::hint::black_box(back);
    }
    let mut totals = [0.0f64; 4];
    for shape in shapes {
        let mut acc: [Vec<f64>; 4] = Default::default();
        let grid = Grid::new(shape.app, &shape.geometry, 1);
        for _ in 0..5 {
            match &grid {
                Grid::Heat2d(g) => one(g, ElemType::F64, &mut acc),
                Grid::Life(g) => one(g, ElemType::U8, &mut acc),
                Grid::Wave3d(g) => one(g, ElemType::F64, &mut acc),
                Grid::HeatGiant1d(g) => one(g, ElemType::F64, &mut acc),
            }
        }
        for (total, a) in totals.iter_mut().zip(&acc) {
            *total += median(a);
        }
    }
    for (name, v) in [
        "protocol.grid_to_bytes_us",
        "protocol.encode_us",
        "protocol.decode_us",
        "protocol.grid_from_bytes_us",
    ]
    .into_iter()
    .zip(totals)
    {
        m.time(name, v * 1e6, "us");
    }
}

/// Requests per connection in each traced pass.
fn traced_requests(scale: Scale) -> usize {
    match scale {
        Scale::Small => 24,
        Scale::Bulk => 12,
    }
}

/// One traced-run pass: a fresh server, exact request counts, counter deltas
/// over its whole life.
fn pass(seed: u64, scale: Scale, rec: &Recorder) -> (Vec<ConnTally>, Recorder, Metrics) {
    let shapes = shapes(scale);
    let before = Counters::now();
    let (_, tallies, spans) =
        serve_once(seed, &shapes, Until::Requests(traced_requests(scale)), rec);
    let requests: usize = tallies.iter().map(|t| t.latencies.len()).sum();
    let mut m = Metrics::default();
    before.record_delta(&Counters::now(), 0.0, requests as f64, &mut m);
    // Per connection: Hello, one Negotiate per shape and Close; per request
    // one Submit and one Fetch.  Every other inbound frame is a Poll.
    let handshake = (CONNECTIONS * (shapes.len() + 2)) as f64;
    let frames_in = m.get("net.frames_in").unwrap_or(0.0);
    m.count(
        "client.polls_per_req",
        ((frames_in - handshake) / requests.max(1) as f64 - 2.0).max(0.0),
        "count",
    );
    m.count("latency.samples", requests as f64, "count");
    (tallies, spans, m)
}

pub fn run(args: &Args, scale: Scale) -> Outcome {
    let shapes = shapes(scale);
    let mut reference = TenantReference::default();
    let mut out = Outcome {
        roots: &["request"],
        ..Outcome::default()
    };
    let tallies = if args.trace {
        let off = Recorder::new(false, Instant::now());
        let on = Recorder::new(true, Instant::now());
        let (a, _, _) = pass(args.seed, scale, &off);
        let (b, spans, mut m) = pass(args.seed, scale, &on);
        let (c, _, mc) = pass(args.seed, scale, &off);
        m.label_against(&mc);
        let all = |f: fn(&ConnTally) -> &Vec<f64>| -> Vec<f64> {
            b.iter().flat_map(|t| f(t).iter().copied()).collect()
        };
        m.time(
            "client.negotiate_ms",
            median(&all(|t| &t.negotiate)) * 1e3,
            "ms",
        );
        for (name, v) in [
            ("client.submit_ms", all(|t| &t.submit)),
            ("client.wait_ms", all(|t| &t.wait)),
            ("client.fetch_ms", all(|t| &t.fetch)),
        ] {
            m.time(format!("{name}_p50"), quantile(&v, 0.5) * 1e3, "ms");
            m.time(format!("{name}_p90"), quantile(&v, 0.9) * 1e3, "ms");
        }
        let wall = |ts: &[ConnTally]| ts.iter().map(|t| t.wall).fold(0.0, f64::max);
        m.time("trace.overhead_frac", wall(&b) / wall(&a) - 1.0, "ratio");
        protocol_timings(&shapes, &mut m);
        out.metrics = m;
        out.spans = Some(spans);
        for ts in [&a, &b, &c] {
            out.mismatched += check(&shapes, ts, &mut reference);
            out.attempted += ts.iter().map(|t| t.attempted).sum::<u64>();
            out.failed += ts.iter().map(|t| t.failed).sum::<u64>();
        }
        b
    } else {
        let off = Recorder::new(false, Instant::now());
        let mut setups = Vec::new();
        for _ in 1..SETUP_REPS {
            setups.push(serve_once(args.seed, &shapes, Until::WarmedUp, &off).0);
        }
        let budget = Duration::from_secs_f64(args.seconds);
        let (setup_s, tallies, _) = serve_once(args.seed, &shapes, Until::Elapsed(budget), &off);
        setups.push(setup_s);

        let latencies: Vec<f64> = tallies
            .iter()
            .flat_map(|t| t.latencies.iter().copied())
            .collect();
        let wall = tallies.iter().map(|t| t.wall).fold(0.0, f64::max);
        let points: Vec<f64> = (0..3)
            .map(|k| tallies.iter().map(|t| t.points[k]).sum())
            .collect();
        let m = &mut out.metrics;
        m.time(
            "mpoints_per_s",
            points.iter().sum::<f64>() / wall / 1e6,
            "Mpts/s",
        );
        for (k, name) in [
            "heat2d_mpoints_per_s",
            "life_mpoints_per_s",
            "wave3d_mpoints_per_s",
        ]
        .into_iter()
        .enumerate()
        {
            m.time(name, points[k] / wall / 1e6, "Mpts/s");
        }
        m.time("req_per_s", latencies.len() as f64 / wall, "1/s");
        m.time("latency_p50_ms", quantile(&latencies, 0.5) * 1e3, "ms");
        m.time("latency_p90_ms", quantile(&latencies, 0.9) * 1e3, "ms");
        m.time("setup_s", median(&setups), "s");
        out.mismatched = check(&shapes, &tallies, &mut reference);
        out.attempted = tallies.iter().map(|t| t.attempted).sum();
        out.failed = tallies.iter().map(|t| t.failed).sum();
        println!("# latency samples {}", latencies.len());
        tallies
    };
    out.failed += out.mismatched;
    let done: usize = tallies.iter().map(|t| t.latencies.len()).sum();
    println!("# completed requests {done}");
    out
}
