//! Network chaos pin: a client that dies mid-submit, or vanishes mid-poll or
//! mid-wait, must retire only its own work.  Well-behaved survivors sharing the server drain
//! to results bitwise-equal to a fault-free run, and the server keeps
//! accepting fresh connections afterwards.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use pochoir_serve::protocol::{
    grid_to_bytes, read_frame, write_frame, Deadline, ElemType, Frame, PROTOCOL_VERSION,
};
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::Client;
use pochoir_stencils::traffic::heat_grid;
use pochoir_trace::TraceApp;

const GEOMETRY: [u64; 2] = [16, 16];
const WINDOW: i64 = 4;
const T1: i64 = 8;

/// Run the three well-behaved heat tenants against a server and return their
/// digests in tenant order.
fn run_survivors(addr: &str) -> Vec<u64> {
    let handles: Vec<_> = (0..3u32)
        .map(|tenant| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let session = client
                    .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
                    .expect("negotiate");
                let request = client
                    .submit_tenant(&session, tenant, T1, 1, Deadline::None)
                    .expect("submit");
                let result = client
                    .wait_fetch(request, Duration::from_secs(120))
                    .expect("wait+fetch");
                client.close().expect("close");
                result.digest()
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("survivor thread"))
        .collect()
}

/// Raw handshake + negotiate on a bare socket, so the test can then misbehave
/// below the `Client` abstraction.
fn raw_session(addr: &str) -> (TcpStream, u32) {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    match read_frame(&mut stream).expect("hello ack").0 {
        Frame::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    write_frame(
        &mut stream,
        &Frame::Negotiate {
            app: TraceApp::Heat2d,
            geometry: GEOMETRY.to_vec(),
            chunk: WINDOW,
        },
    )
    .expect("negotiate");
    match read_frame(&mut stream).expect("session ack").0 {
        Frame::SessionAck { session, .. } => (stream, session),
        other => panic!("expected SessionAck, got {other:?}"),
    }
}

/// Dies mid-submit: declares a full Submit frame, sends half of it, vanishes.
/// The server sees an unexpected EOF inside a body and must just drop the
/// connection.
fn chaos_truncated_submit(addr: &str) {
    let (mut stream, session) = raw_session(addr);
    let grid = heat_grid::<2>([16, 16], 99);
    let body = Frame::Submit {
        session,
        tenant: 99,
        t0: 0,
        t1: T1,
        weight: 1,
        deadline: Deadline::None,
        elem: ElemType::F64,
        grid: grid_to_bytes(&grid),
    }
    .encode();
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .expect("prefix");
    stream
        .write_all(&body[..body.len() / 2])
        .expect("half body");
    stream.flush().expect("flush");
    drop(stream); // mid-frame disconnect
}

/// Submits tenant `tenant`'s grid on a raw session; returns the request id.
fn raw_submit(stream: &mut TcpStream, session: u32, tenant: u32) -> u64 {
    let grid = heat_grid::<2>([16, 16], tenant);
    write_frame(
        stream,
        &Frame::Submit {
            session,
            tenant,
            t0: 0,
            t1: T1,
            weight: 1,
            deadline: Deadline::None,
            elem: ElemType::F64,
            grid: grid_to_bytes(&grid),
        },
    )
    .expect("submit");
    match read_frame(stream).expect("submitted").0 {
        Frame::Submitted { request } => request,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

/// Dies mid-poll: submits a valid grid, polls once, then vanishes without
/// fetching.  Its queued/finished work must be orphaned, not delivered to or
/// blocked on anyone else.
fn chaos_abandoned_poll(addr: &str) {
    let (mut stream, session) = raw_session(addr);
    let request = raw_submit(&mut stream, session, 77);
    write_frame(&mut stream, &Frame::Poll { request }).expect("poll");
    let _ = read_frame(&mut stream).expect("status");
    drop(stream); // abandons the request forever
}

/// Vanishes mid-wait: submits a valid grid, sends an untimed `Wait`, and
/// drops the socket before the answer arrives.  The worker parked on the
/// completion condvar must wake, find its peer gone, and retire the request
/// without disturbing anyone else.
fn chaos_vanished_wait(addr: &str) {
    let (mut stream, session) = raw_session(addr);
    let request = raw_submit(&mut stream, session, 55);
    write_frame(
        &mut stream,
        &Frame::Wait {
            request,
            timeout_ms: u64::MAX,
        },
    )
    .expect("wait");
    drop(stream); // gone before the Status reply
}

#[test]
fn client_failures_retire_only_their_own_chains() {
    // Fault-free baseline on its own server instance.
    let baseline_server = Server::start(ServeConfig::default()).expect("baseline server");
    let baseline = run_survivors(&baseline_server.addr().to_string());
    baseline_server.shutdown();

    // Chaos run: the same survivors share the server with three misbehaving
    // clients injected while they work.
    let server = Server::start(ServeConfig::default()).expect("chaos server");
    let addr = server.addr().to_string();

    let chaos = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            chaos_truncated_submit(&addr);
            chaos_abandoned_poll(&addr);
            chaos_vanished_wait(&addr);
        })
    };
    let survivors = run_survivors(&addr);
    chaos.join().expect("chaos thread");

    assert_eq!(
        survivors, baseline,
        "survivors must drain bitwise-equal to the fault-free run"
    );

    // The server is still healthy: a fresh client can do a full round trip.
    let mut client = Client::connect(&addr).expect("post-chaos connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
        .expect("post-chaos negotiate");
    let request = client
        .submit_tenant(&session, 0, T1, 1, Deadline::None)
        .expect("post-chaos submit");
    let result = client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("post-chaos fetch");
    assert_eq!(
        result.digest(),
        baseline[0],
        "post-chaos result for tenant 0 must still match the baseline"
    );
    client.close().expect("close");

    server.shutdown();
}
