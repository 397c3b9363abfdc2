//! Graceful-drain integration tests: a shutdown signalled while clients
//! are connected must complete in-flight requests (their replies are
//! written before the socket dies), close idle connections with a clean
//! end-of-stream (a FIN at a frame boundary, never a reset mid-frame),
//! and bring the serve loop to a graceful exit.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use concealer_client::{ClientBuilder, ClientError, Session};
use concealer_core::{ConcealerSystem, Query, QueryAnswer, UserHandle};
use concealer_examples::{demo_system, demo_workload};
use concealer_server::{Request, Response, Server, ServerConfig, PROTOCOL_VERSION};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::frame::{read_frame, write_frame, FrameError};

const HOURS: u64 = 2;
const SEED: u64 = 7_700;

/// How long the tests give the server to read and dispatch a request that
/// has already been written to a loopback socket before signalling
/// shutdown. The serving thread is parked waiting for exactly those
/// bytes, so this is generous scheduling headroom, not a tuned race.
const DISPATCH_WINDOW: Duration = Duration::from_millis(300);

/// Safety net on raw idle streams: a drain bug should fail an assertion
/// after this timeout instead of hanging the suite on a blocked read.
const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(10);

fn spawn_demo_server() -> (
    Arc<ConcealerSystem>,
    UserHandle,
    concealer_server::ServerHandle,
) {
    let (system, user, _records) = demo_system(HOURS, SEED);
    let system = Arc::new(system);
    let handle = Server::new(Arc::clone(&system), ServerConfig::default())
        .spawn()
        .expect("bind loopback");
    (system, user, handle)
}

fn wire_bytes(answer: &QueryAnswer) -> Vec<u8> {
    serde::bin::to_bytes(answer)
}

/// Attest + authenticate with the redesigned client surface.
fn connect_user(
    addr: std::net::SocketAddr,
    user: &UserHandle,
    name: &str,
) -> Result<Session, ClientError> {
    ClientBuilder::new(addr)
        .user(user)
        .client_name(name)
        .connect()
}

/// Open a raw authenticated connection that will sit idle: Hello by hand
/// so the test keeps the bare stream and can observe exactly how the
/// server ends it.
fn idle_stream(addr: std::net::SocketAddr, user: &UserHandle) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect idle");
    stream
        .set_read_timeout(Some(IDLE_READ_TIMEOUT))
        .expect("read timeout");
    // Protocol v4: the pre-auth `Attest` exchange must precede `Hello`.
    write_frame(
        &mut stream,
        &Request::Attest {
            id: 1,
            nonce: [9u8; 32],
        },
    )
    .expect("write attest");
    let reply: Response = read_frame(&mut stream, 1 << 20).expect("read attest reply");
    assert!(matches!(reply, Response::AttestOk { .. }), "{reply:?}");
    write_frame(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            user_id: user.user_id.0,
            credential: user.credential.0,
            client_name: "idler".into(),
        },
    )
    .expect("write hello");
    let reply: Response = read_frame(&mut stream, 1 << 20).expect("read hello reply");
    assert!(matches!(reply, Response::HelloOk(_)), "{reply:?}");
    stream
}

/// A locally signalled shutdown with idle and active connections open:
/// the in-flight reply is still written and matches the oracle, the idle
/// connections see a clean end-of-stream at a frame boundary, the
/// drained connection refuses further use, and the loop exits
/// gracefully.
#[test]
fn drain_completes_in_flight_reply_and_closes_idle_connections() {
    const IDLE: usize = 5;
    let (system, user, handle) = spawn_demo_server();
    let addr = handle.local_addr();
    let workload = demo_workload(HOURS);
    let mut rng = StdRng::seed_from_u64(SEED);

    let idlers: Vec<TcpStream> = (0..IDLE).map(|_| idle_stream(addr, &user)).collect();

    let mut active = connect_user(addr, &user, "active").expect("connect active");
    // One full round trip first, so the submit below is the only frame
    // the server still owes this connection.
    let warmup = workload.q1(30 * 60, &mut rng);
    active.execute(&warmup).expect("warm-up query");

    let pending_query = workload.q1(45 * 60, &mut rng);
    let ticket = active
        .submit_execute(&pending_query, None)
        .expect("submit in-flight query");
    std::thread::sleep(DISPATCH_WINDOW);

    handle.signal_shutdown();

    // The drain must still deliver the dispatched reply, bit-identical
    // to the in-process oracle.
    let got = active
        .wait_execute(ticket)
        .expect("in-flight reply survives drain");
    let want = system
        .session(&user)
        .execute(&pending_query)
        .expect("oracle");
    assert_eq!(wire_bytes(&got), wire_bytes(&want));

    // Idle connections end with a FIN at a frame boundary — the codec
    // reports Closed, never a torn frame or a connection reset.
    for mut stream in idlers {
        match read_frame::<_, Response>(&mut stream, 1 << 20) {
            Err(FrameError::Closed) => {}
            other => panic!("idle connection did not close cleanly: {other:?}"),
        }
    }

    let report = handle.join();
    assert!(report.graceful);
    assert_eq!(report.connections_served, (IDLE + 1) as u64);

    // With the server gone the drained connection refuses further use
    // cleanly instead of hanging. (Checked only after the join: a request
    // racing the shutdown signal itself may still be legitimately served
    // in the instant before the drain fences reads.)
    let err = active.execute(&warmup).unwrap_err();
    assert!(
        matches!(err, ClientError::Closed | ClientError::Io(_)),
        "{err}"
    );
}

/// A wire `Shutdown` request: the requester gets its ack, and a query
/// in flight on another connection still redeems during the drain.
#[test]
fn wire_shutdown_acknowledges_then_drains_in_flight_work() {
    let (system, user, handle) = spawn_demo_server();
    let addr = handle.local_addr();
    let workload = demo_workload(HOURS);
    let mut rng = StdRng::seed_from_u64(SEED + 1);

    let mut active = connect_user(addr, &user, "active").expect("connect active");
    let warmup = workload.q1(30 * 60, &mut rng);
    active.execute(&warmup).expect("warm-up query");
    let pending_query = workload.q2(40 * 60, 4, &mut rng);
    let ticket = active
        .submit_execute(&pending_query, None)
        .expect("submit in-flight query");
    std::thread::sleep(DISPATCH_WINDOW);

    let mut controller = connect_user(addr, &user, "controller").expect("connect controller");
    controller.shutdown_server().expect("shutdown acknowledged");
    drop(controller);

    let got = active
        .wait_execute(ticket)
        .expect("in-flight reply survives drain");
    let want = system
        .session(&user)
        .execute(&pending_query)
        .expect("oracle");
    assert_eq!(wire_bytes(&got), wire_bytes(&want));

    let report = handle.join();
    assert!(report.graceful);
    assert_eq!(report.connections_served, 2);
}

/// *Every* pipelined request dispatched before the shutdown replies
/// during the drain, and the tickets redeem out of order. (The server
/// works through the pipeline one frame at a time, which the dispatch
/// window covers.)
#[test]
fn pipelined_in_flight_replies_all_flush_during_drain() {
    const PIPELINED: usize = 6;
    let (system, user, handle) = spawn_demo_server();
    let addr = handle.local_addr();
    let workload = demo_workload(HOURS);
    let mut rng = StdRng::seed_from_u64(SEED + 2);

    let idler = idle_stream(addr, &user);

    let mut active = connect_user(addr, &user, "pipeliner").expect("connect active");
    let queries: Vec<Query> = (0..PIPELINED)
        .map(|_| workload.q1(30 * 60, &mut rng))
        .collect();
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| active.submit_execute(q, None).expect("submit"))
        .collect();
    std::thread::sleep(DISPATCH_WINDOW);

    handle.signal_shutdown();

    // Redeem in reverse order: every dispatched reply must have been
    // written before the connection closed.
    let oracle = system.session(&user);
    for (ticket, query) in tickets.into_iter().zip(&queries).rev() {
        let got = active
            .wait_execute(ticket)
            .expect("pipelined reply survives drain");
        let want = oracle.execute(query).expect("oracle");
        assert_eq!(wire_bytes(&got), wire_bytes(&want));
    }

    {
        let mut stream = idler;
        match read_frame::<_, Response>(&mut stream, 1 << 20) {
            Err(FrameError::Closed) => {}
            other => panic!("idle connection did not close cleanly: {other:?}"),
        }
    }

    let report = handle.join();
    assert!(report.graceful);
    assert_eq!(report.connections_served, 2);
}
