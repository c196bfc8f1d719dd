//! Wire-counter conservation pin: the runtime's `net_*` counters account for
//! every connection and frame a live server handles.
//!
//! * Each accepted connection counts once in `net_connections`.
//! * Every decoded frame except `Close` gets exactly one reply, so
//!   `net_frames_out == net_frames_in − closes` over clean client lifecycles.
//! * A garbage frame counts as one protocol error (answered by one typed
//!   `Error` frame, never decoded), and clean traffic counts none.
//! * `serving_windows` equals the windows the clients submitted.
//!
//! One `#[test]` on purpose, in its own test binary: the `Runtime::global()`
//! deltas must see no traffic but this scenario's.  Each phase ends with
//! `Server::shutdown`, which joins every connection worker and the drain
//! thread, so the counters are settled when they are read.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use pochoir_runtime::{MetricsSnapshot, Runtime};
use pochoir_serve::protocol::{read_frame, Deadline, ErrorCode, Frame, RequestStatus};
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::Client;
use pochoir_stencils::traffic::{heat_grid, usizes};
use pochoir_trace::TraceApp;

const CLIENTS: u32 = 4;
const GEOMETRY: [u64; 2] = [16, 16];
const WINDOW: i64 = 4;

/// Runs `phase` against a fresh server and returns the runtime counter deltas
/// it caused, read after the server has shut down.
fn measure(phase: impl FnOnce(&str)) -> MetricsSnapshot {
    let rt = Runtime::global();
    let before = rt.metrics();
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    phase(&server.addr().to_string());
    server.shutdown();
    before.delta(&rt.metrics())
}

/// One clean lifecycle: connect → negotiate → submit_grid → wait → fetch →
/// close.  Tenant `n` submits `n + 1` windows; returns the windows submitted.
fn client_lifecycle(addr: &str, tenant: u32) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
        .expect("negotiate");
    let windows = u64::from(tenant) + 1;
    let grid = heat_grid(usizes::<2>(&GEOMETRY), tenant);
    let t1 = session.window * windows as i64;
    let request = client
        .submit_grid(&session, &grid, tenant, 0, t1, 1, Deadline::None)
        .expect("submit");
    let status = client
        .wait(request, Duration::from_secs(120))
        .expect("wait");
    assert_eq!(status, RequestStatus::Done, "tenant {tenant}");
    assert_eq!(client.fetch(request).expect("fetch").t1, t1);
    client.close().expect("close");
    windows
}

#[test]
fn net_counters_conserve_frames_and_count_protocol_errors() {
    let mut submitted = 0;
    let clean = measure(|addr| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|tenant| {
                let addr = addr.to_string();
                std::thread::spawn(move || client_lifecycle(&addr, tenant))
            })
            .collect();
        submitted = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum();
    });
    let closes = u64::from(CLIENTS);
    assert_eq!(clean.net_connections, closes);
    // Hello, Negotiate, Submit, Wait, Fetch, Close per client.
    assert!(
        clean.net_frames_in >= 6 * closes,
        "frames in: {}",
        clean.net_frames_in
    );
    assert_eq!(
        clean.net_frames_out,
        clean.net_frames_in - closes,
        "every decoded frame but Close gets exactly one reply"
    );
    assert!(clean.net_bytes_in > 0 && clean.net_bytes_out > 0);
    assert_eq!(clean.net_protocol_errors, 0);
    assert_eq!(clean.serving_windows, submitted);

    let garbage = measure(|addr| {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        // A well-framed body whose opcode is not part of the protocol.
        stream
            .write_all(&[3, 0, 0, 0, 0xff, 0xde, 0xad])
            .expect("write garbage");
        match read_frame(&mut stream).expect("error reply").0 {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
            other => panic!("expected Error, got {other:?}"),
        }
    });
    assert_eq!(garbage.net_connections, 1);
    assert_eq!(garbage.net_protocol_errors, 1);
    assert_eq!(garbage.net_frames_in, 0, "a garbage frame is never decoded");
    assert_eq!(garbage.net_frames_out, 1, "one typed Error reply");
}
