//! Latency tripwire: a small request over loopback must cost the engine's
//! work plus a few syscalls, not TCP timer floors.
//!
//! * The client's socket has `TCP_NODELAY` set, so a small frame is never
//!   held back by Nagle's algorithm waiting for a delayed ACK.
//! * 40 sequential 48² heat2d `submit_grid → wait → fetch` cycles against an
//!   in-process server finish in under 4 s.  On the Nagle/delayed-ACK floor
//!   (~88 ms per roundtrip, three roundtrips per cycle) they take ~10.6 s;
//!   with `Wait` answered on completion they take milliseconds.
//! * Every result stays bitwise-equal to in-process `run_batch`.

use std::time::{Duration, Instant};

use pochoir_core::engine::{run_batch, BatchRun};
use pochoir_runtime::Runtime;
use pochoir_serve::protocol::Deadline;
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::Client;
use pochoir_stencils::heat;
use pochoir_stencils::traffic::{digest_grid, heat_grid, usizes};
use pochoir_trace::TraceApp;

const GEOMETRY: [u64; 2] = [48, 48];
const WINDOW: i64 = 4;
const T1: i64 = 8;
const CYCLES: u32 = 40;
const BUDGET: Duration = Duration::from_secs(4);

/// The in-process digest of tenant `tenant`'s grid stepped to `T1`.
fn local_digest(tenant: u32) -> u64 {
    let server = heat::serve_2d(usizes::<2>(&GEOMETRY), WINDOW);
    let mut grid = heat_grid(usizes::<2>(&GEOMETRY), tenant);
    let mut jobs = [BatchRun {
        array: &mut grid,
        t0: 0,
        t1: T1,
    }];
    run_batch(
        server.program(),
        server.kernel(),
        &mut jobs,
        1,
        Runtime::global(),
    );
    digest_grid(&grid, T1)
}

#[test]
fn small_requests_are_not_held_by_tcp_timers() {
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert!(
        client.nodelay().expect("read TCP_NODELAY"),
        "the client socket must set TCP_NODELAY"
    );
    let session = client
        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
        .expect("negotiate");
    let grids: Vec<_> = (0..CYCLES)
        .map(|tenant| heat_grid(usizes::<2>(&GEOMETRY), tenant))
        .collect();

    let started = Instant::now();
    let digests: Vec<u64> = grids
        .iter()
        .zip(0..)
        .map(|(grid, tenant)| {
            let request = client
                .submit_grid(&session, grid, tenant, 0, T1, 1, Deadline::None)
                .expect("submit");
            client
                .wait_fetch(request, Duration::from_secs(60))
                .expect("wait+fetch")
                .digest()
        })
        .collect();
    let elapsed = started.elapsed();
    client.close().expect("close");
    server.shutdown();

    assert!(
        elapsed < BUDGET,
        "{CYCLES} sequential small cycles took {elapsed:?} (budget {BUDGET:?}): \
         the wire path is back on a TCP timer floor"
    );
    for (tenant, digest) in (0..CYCLES).zip(digests) {
        assert_eq!(
            digest,
            local_digest(tenant),
            "tenant {tenant}: live result must be bitwise-equal to in-process run_batch"
        );
    }
}
