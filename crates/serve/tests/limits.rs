//! Resource-ceiling and small-geometry pins for `pochoir-serve`:
//!
//! * a giant session whose extent is **smaller than the configured tile
//!   count** (the shard plan clamps to the extent) keeps its per-request
//!   bookkeeping aligned — back-to-back submissions each fetch their own
//!   result, bitwise-equal to the in-process sharded run;
//! * the session table is bounded: a `Negotiate` for a new geometry past
//!   `max_sessions` is refused with a typed `Shed` error while existing
//!   geometries keep re-joining;
//! * geometries whose submit payload can never fit in a frame are refused at
//!   negotiation, and oversized step spans are refused at submit — in both
//!   cases with a typed error that leaves the connection usable;
//! * shutdown joins promptly while a client is blocked in an untimed `Wait`
//!   on a long drain.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use pochoir_core::engine::{
    run_batch, BatchRun, Coarsening, ExecutionPlan, Sharding, StencilServer, SubmitOptions,
};
use pochoir_core::kernel::StencilSpec;
use pochoir_runtime::Runtime;
use pochoir_serve::protocol::{Deadline, RequestStatus};
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, ClientError, ErrorCode};
use pochoir_stencils::heat::HeatKernel;
use pochoir_stencils::traffic::{digest_grid, heat_grid, usizes};
use pochoir_stencils::{heat, traffic};
use pochoir_trace::corpus::GIANT_TILES;
use pochoir_trace::TraceApp;

const WINDOW: i64 = 4;
const T1: i64 = 8;

/// Extent below `GIANT_TILES`, so `Sharding::Tiles` clamps the tile count and
/// every submission creates fewer scheduler tickets than the configured K.
const SMALL_GIANT: [u64; 1] = [3];

/// In-process baselines: the same sharded preset the server builds, one
/// submission per tenant, digests taken at each group's lead ticket.
fn local_giant_digests(tenants: &[u32]) -> Vec<u64> {
    let mut server: StencilServer<f64, HeatKernel<1>, 1> = StencilServer::new(
        StencilSpec::new(heat::shape::<1>()),
        HeatKernel::<1>::default(),
        ExecutionPlan::trap()
            .with_coarsening(Coarsening::none())
            .with_sharding(Sharding::Tiles(GIANT_TILES)),
        traffic::usizes::<1>(&SMALL_GIANT),
        WINDOW,
    );
    let leads: Vec<usize> = tenants
        .iter()
        .map(|&tenant| {
            server
                .try_submit_sharded(
                    heat_grid(usizes::<1>(&SMALL_GIANT), tenant),
                    0,
                    T1,
                    SubmitOptions::default(),
                )
                .expect("in-process sharded submit")
        })
        .collect();
    let results = server.drain();
    leads
        .iter()
        .map(|&lead| digest_grid(&results[lead], T1))
        .collect()
}

#[test]
fn small_extent_giant_requests_each_get_their_own_result() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let session = client
        .negotiate(TraceApp::HeatGiant1d, &SMALL_GIANT, WINDOW)
        .expect("negotiate small giant");

    // Submit all requests back-to-back before fetching anything, so several
    // groups can land in one drain batch — the regression this pins is a
    // later request being paired with an earlier request's result when the
    // bookkeeping assumed `GIANT_TILES` tickets per group.
    let tenants: Vec<u32> = (0..4).collect();
    let requests: Vec<u64> = tenants
        .iter()
        .map(|&tenant| {
            client
                .submit_tenant(&session, tenant, T1, 1, Deadline::None)
                .expect("submit")
        })
        .collect();
    let live: Vec<u64> = requests
        .iter()
        .map(|&request| {
            client
                .wait_fetch(request, Duration::from_secs(120))
                .expect("wait+fetch")
                .digest()
        })
        .collect();
    client.close().expect("close");
    server.shutdown();

    let expected = local_giant_digests(&tenants);
    assert_eq!(
        live, expected,
        "each small-extent giant request must fetch its own grid, \
         bitwise-equal to the in-process sharded run"
    );
}

#[test]
fn session_table_is_bounded_and_existing_keys_rejoin() {
    let server = Server::start(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let first = client
        .negotiate(TraceApp::Heat2d, &[8, 8], WINDOW)
        .expect("first geometry fills the table");
    match client.negotiate(TraceApp::Heat2d, &[10, 10], WINDOW) {
        Err(ClientError::Server { code, .. }) => assert_eq!(
            code,
            ErrorCode::Shed,
            "a full session table sheds new geometries with a typed error"
        ),
        other => panic!("expected a typed Shed rejection, got {other:?}"),
    }
    // The same key re-joins (no new compile, no new slot) and still serves.
    let again = client
        .negotiate(TraceApp::Heat2d, &[8, 8], WINDOW)
        .expect("existing geometry re-joins past the cap");
    assert_eq!(again.id, first.id);
    let request = client
        .submit_tenant(&again, 0, T1, 1, Deadline::None)
        .expect("submit on the surviving session");
    client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("the bounded server still serves");
    client.close().expect("close");
    server.shutdown();
}

#[test]
fn oversized_spans_and_geometries_are_refused_typed() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // A geometry whose submit payload exceeds MAX_FRAME can never be used:
    // refused at negotiation, before anything is compiled for it.
    match client.negotiate(TraceApp::Heat2d, &[1 << 16, 1 << 16], WINDOW) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadPayload),
        other => panic!("expected BadPayload for an unsubmittable geometry, got {other:?}"),
    }

    let session = client
        .negotiate(TraceApp::Heat2d, &[8, 8], WINDOW)
        .expect("negotiate");
    // One cheap frame must not buy an unbounded drain: the step span is
    // capped with a typed error and the connection stays usable.
    match client.submit_tenant(&session, 0, i64::MAX - 1, 1, Deadline::None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadPayload),
        other => panic!("expected BadPayload for an oversized span, got {other:?}"),
    }
    let request = client
        .submit_tenant(&session, 0, T1, 1, Deadline::None)
        .expect("a sane submit after the rejection");
    client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("connection survives typed rejections");
    client.close().expect("close");
    server.shutdown();
}

/// Steps of a 64² heat2d run that take about `target` on this build, measured
/// in-process, so the drain below is long in debug and release builds alike.
/// The probe doubles until it runs long enough that fixed costs do not
/// inflate the per-step time.
fn steps_lasting(target: Duration) -> i64 {
    let server = heat::serve_2d([64, 64], WINDOW);
    let mut probe: i64 = 64;
    loop {
        let mut grid = heat_grid([64, 64], 0);
        let started = Instant::now();
        run_batch(
            server.program(),
            server.kernel(),
            &mut [BatchRun {
                array: &mut grid,
                t0: 0,
                t1: probe,
            }],
            1,
            Runtime::global(),
        );
        let took = started.elapsed();
        if took >= Duration::from_millis(50) || probe >= 1 << 20 {
            let per_step = took.as_secs_f64() / probe as f64;
            return ((target.as_secs_f64() / per_step) as i64).clamp(probe, 1 << 20);
        }
        probe *= 2;
    }
}

#[test]
fn shutdown_joins_promptly_while_a_client_is_blocked_in_wait() {
    const DRAIN: Duration = Duration::from_secs(3);
    let steps = steps_lasting(DRAIN);
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    let (submitted_tx, submitted_rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect");
        let session = client
            .negotiate(TraceApp::Heat2d, &[64, 64], WINDOW)
            .expect("negotiate");
        let request = client
            .submit_tenant(&session, 0, steps, 1, Deadline::None)
            .expect("submit the long drain");
        submitted_tx.send(()).expect("signal the submit");
        // No deadline: only completion or shutdown can answer this.
        let waited = client.wait(request, Duration::MAX);
        (waited, Instant::now())
    });
    submitted_rx.recv().expect("the long request was submitted");
    // Let the `Wait` frame reach the server while the drain runs.
    std::thread::sleep(Duration::from_millis(100));

    let (done_tx, done_rx) = mpsc::channel();
    let shutdown_started = Instant::now();
    std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(()).expect("report the shutdown");
    });
    done_rx
        .recv_timeout(DRAIN * 10)
        .expect("shutdown must not hang on a worker blocked in Wait");
    let (waited, released) = waiter.join().expect("waiting client");
    assert!(
        !matches!(waited, Ok(RequestStatus::Done)),
        "the drain must still have been running at shutdown, got {waited:?}"
    );
    assert!(
        released.duration_since(shutdown_started) < DRAIN / 2,
        "the blocked client must be released at shutdown, not at drain end \
         ({:?} after shutdown began)",
        released.duration_since(shutdown_started)
    );
}
