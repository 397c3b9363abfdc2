//! Loopback tests of the serving layer: answers delivered over TCP must
//! be **bit-identical** (same `serde::bin` encoding) to executing the
//! same queries on an in-process [`Session`] oracle, under concurrency,
//! pipelining, live wire ingest, structured error replies, and — on the
//! disk backend — a mid-connection server restart.
//!
//! The fixture honors `CONCEALER_TEST_BACKEND`, so the CI backend matrix
//! reruns this whole suite against the durable store; the restart test
//! constructs its disk deployment explicitly and runs everywhere.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use concealer_bench::{server_request_mix, ServerRequest};
use concealer_client::{ClientBuilder, ClientError, Session};
use concealer_core::{
    ConcealerSystem, DiskEpochStore, ExecOptions, MasterKey, Query, QueryAnswer, RangeMethod,
    SystemBuilder, UserHandle,
};
use concealer_examples::{demo_config, demo_epoch_records, demo_system, demo_workload};
use concealer_server::{ErrorCode, Request, Server, ServerConfig, PROTOCOL_VERSION};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::frame::{read_frame, write_frame, FrameError};

const HOURS: u64 = 2;
const SEED: u64 = 4242;

/// Spawn a server over a fresh demo deployment, returning the shared
/// system (the oracle), the user, and the handle.
fn spawn_demo_server(
    config: ServerConfig,
) -> (
    Arc<ConcealerSystem>,
    UserHandle,
    concealer_server::ServerHandle,
) {
    let (system, user, _records) = demo_system(HOURS, SEED);
    let system = Arc::new(system);
    let handle = Server::new(Arc::clone(&system), config)
        .spawn()
        .expect("bind loopback");
    (system, user, handle)
}

fn wire_bytes(answer: &QueryAnswer) -> Vec<u8> {
    serde::bin::to_bytes(answer)
}

/// Attest + authenticate with the redesigned client surface (the default
/// trust policy — the demo enclave's quotes must verify).
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

/// ≥ 8 concurrent TCP clients run mixed point/range/batch workloads;
/// every wire answer must encode byte-for-byte like the in-process oracle
/// session's answer.
#[test]
fn concurrent_clients_match_in_process_oracle_bit_for_bit() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 18;
    let (system, user, handle) = spawn_demo_server(ServerConfig::default());
    let addr = handle.local_addr();
    let workload = demo_workload(HOURS);

    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let system = &system;
            let user = &user;
            let workload = &workload;
            scope.spawn(move || {
                let mix = server_request_mix(workload, SEED + client_idx as u64, REQUESTS, 6);
                let mut conn =
                    connect_user(addr, user, "loopback").expect("connect and authenticate");
                let oracle = system.session(user);
                for request in &mix {
                    match request {
                        ServerRequest::Query(query, options) => {
                            let got = conn.execute_with(query, *options).expect("wire query");
                            let want = oracle.execute_with(query, *options).expect("oracle query");
                            assert_eq!(wire_bytes(&got), wire_bytes(&want));
                        }
                        ServerRequest::Batch(queries, options) => {
                            let got = conn
                                .execute_batch_with(queries, *options)
                                .expect("wire batch");
                            let want = oracle.clone().with_options(*options).execute_batch(queries);
                            assert_eq!(got.len(), want.len());
                            for (g, w) in got.iter().zip(&want) {
                                let g = g.as_ref().expect("wire batch entry");
                                let w = w.as_ref().expect("oracle batch entry");
                                assert_eq!(wire_bytes(g), wire_bytes(w));
                            }
                        }
                    }
                }
                conn.close().expect("clean goodbye");
            });
        }
    });

    let report = handle.shutdown_and_join();
    assert!(report.graceful);
    assert_eq!(report.connections_served, CLIENTS as u64);
}

/// Every other suite here is as green at 200 ms a reply as at 0.2 ms, so a
/// transport that stalls replies (a lost wake-up, a poll timeout on the
/// reply path) passes them all. This one bounds the exchange: two
/// closed-loop sessions, 200 warm point queries each, every answer
/// byte-equal to the oracle, inside a bound some hundred times what a
/// healthy server needs — and a tenth of what one stalled reply per query
/// costs.
#[test]
fn two_closed_loop_sessions_answer_at_loopback_speed() {
    const QUERIES: usize = 200;
    const BOUND: Duration = Duration::from_secs(5);
    let (system, user, handle) = spawn_demo_server(ServerConfig::default());
    let addr = handle.local_addr();
    let points: Vec<Query> = (0..8u64)
        .map(|i| Query::count().at_dims([i]).at(600 * (i + 1)))
        .collect();
    // The oracle shares the served system, so this also warms the cache.
    let oracle = system.session(&user);
    let want: Vec<Vec<u8>> = points
        .iter()
        .map(|q| wire_bytes(&oracle.execute(q).expect("oracle point")))
        .collect();

    let mut sessions: Vec<Session> = (0..2)
        .map(|_| connect_user(addr, &user, "closed-loop").expect("connect"))
        .collect();
    let start = Barrier::new(sessions.len());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn in &mut sessions {
            let (start, points, want) = (&start, &points, &want);
            scope.spawn(move || {
                start.wait();
                for k in 0..QUERIES {
                    let got = conn.execute(&points[k % points.len()]).expect("wire point");
                    assert_eq!(wire_bytes(&got), want[k % want.len()]);
                }
            });
        }
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < BOUND,
        "2 x {QUERIES} warm point queries took {elapsed:?}: replies are stalling"
    );
    for conn in sessions {
        conn.close().expect("clean goodbye");
    }
    assert!(handle.shutdown_and_join().graceful);
}

/// Send `mix` over one connection, in order, returning every answer's
/// wire encoding.
fn run_mix_over_wire(conn: &mut Session, mix: &[ServerRequest]) -> Vec<Vec<u8>> {
    let mut answers = Vec::new();
    for request in mix {
        match request {
            ServerRequest::Query(query, options) => {
                answers.push(wire_bytes(
                    &conn.execute_with(query, *options).expect("wire query"),
                ));
            }
            ServerRequest::Batch(queries, options) => {
                for answer in conn
                    .execute_batch_with(queries, *options)
                    .expect("wire batch")
                {
                    answers.push(wire_bytes(&answer.expect("wire batch entry")));
                }
            }
        }
    }
    answers
}

/// The same requests on an in-process session.
fn run_mix_in_process(
    system: &ConcealerSystem,
    user: &UserHandle,
    mix: &[ServerRequest],
) -> Vec<Vec<u8>> {
    let session = system.session(user);
    let mut answers = Vec::new();
    for request in mix {
        match request {
            ServerRequest::Query(query, options) => {
                answers.push(wire_bytes(
                    &session.execute_with(query, *options).expect("oracle query"),
                ));
            }
            ServerRequest::Batch(queries, options) => {
                for answer in session
                    .clone()
                    .with_options(*options)
                    .execute_batch(queries)
                {
                    answers.push(wire_bytes(&answer.expect("oracle batch entry")));
                }
            }
        }
    }
    answers
}

/// A served system records no adversary trace — nothing that serves reads
/// it — while its answers stay the in-process oracle's; and a caller that
/// does want the trace at the wire entry point turns recording back on
/// after `spawn` and gets, event for event, what the same requests record
/// in process.
#[test]
fn a_served_system_keeps_no_trace_unless_asked_and_then_the_in_process_one() {
    let (system, user, handle) = spawn_demo_server(ServerConfig::default());
    // The same deployment again, never served: answers and trace of
    // the same requests in process.
    let (oracle, oracle_user, _records) = demo_system(HOURS, SEED);
    let mix = server_request_mix(&demo_workload(HOURS), SEED, 24, 6);
    oracle.observer().reset();
    let want = run_mix_in_process(&oracle, &oracle_user, &mix);
    let want_trace = oracle.observer().take_events();
    assert!(!want_trace.is_empty(), "in-process systems record");

    assert!(!system.observer().is_recording(), "serving switches it off");
    system.observer().reset(); // what ingest recorded before `spawn`
    let mut conn = connect_user(handle.local_addr(), &user, "no-trace").expect("connect");
    assert_eq!(run_mix_over_wire(&mut conn, &mix), want);
    assert!(
        system.observer().is_empty(),
        "{} events kept by a served system",
        system.observer().len()
    );

    system.observer().set_recording(true);
    assert_eq!(run_mix_over_wire(&mut conn, &mix), want);
    assert_eq!(system.observer().take_events(), want_trace);

    conn.close().expect("clean goodbye");
    assert!(handle.shutdown_and_join().graceful);
}

/// Pipelined batches on one connection: several tickets in flight, redeemed
/// out of submission order, each matching the oracle.
#[test]
fn pipelined_batches_redeemed_out_of_order() {
    let (system, user, handle) = spawn_demo_server(ServerConfig::default());
    let workload = demo_workload(HOURS);
    let mut rng = StdRng::seed_from_u64(77);
    let batches: Vec<Vec<Query>> = (0..4)
        .map(|_| {
            (0..5)
                .map(|_| workload.q1(25 * 60, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect();
    let options = ExecOptions::with_method(RangeMethod::Bpb);

    let mut conn = connect_user(handle.local_addr(), &user, "pipeline").unwrap();
    let tickets: Vec<_> = batches
        .iter()
        .map(|queries| conn.submit_batch(queries, Some(options)).expect("submit"))
        .collect();
    // Redeem in reverse order: replies park until their ticket comes up.
    let oracle = system.session(&user).with_options(options);
    for (ticket, queries) in tickets.into_iter().zip(&batches).rev() {
        let got = conn.wait_batch(ticket).expect("pipelined batch");
        let want = oracle.execute_batch(queries);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                wire_bytes(g.as_ref().unwrap()),
                wire_bytes(w.as_ref().unwrap())
            );
        }
    }
    conn.close().unwrap();
    handle.shutdown_and_join();
}

/// Wire ingest lands concurrently with live query traffic; queries bounded
/// to the first epoch keep answering identically throughout, and the new
/// epoch becomes queryable.
#[test]
fn wire_ingest_runs_alongside_live_queries() {
    let (system, user, handle) = spawn_demo_server(ServerConfig::default());
    let addr = handle.local_addr();
    let workload = demo_workload(HOURS);
    let epoch_query = Query::count().at_dims([4]).between(0, HOURS * 3600 - 1);
    let baseline = system.session(&user).execute(&epoch_query).unwrap();

    std::thread::scope(|scope| {
        let user = &user;
        // Ingest client: two follow-up epochs.
        scope.spawn(move || {
            let mut conn = connect_user(addr, user, "ingester").unwrap();
            for k in 1..=2u64 {
                let epoch_start = k * HOURS * 3600;
                let records = demo_epoch_records(HOURS, SEED, epoch_start);
                let rows = conn.ingest_epoch(epoch_start, &records).expect("ingest");
                assert!(rows > 0);
            }
            conn.close().unwrap();
        });
        // Query clients hammering the first epoch while ingest is live.
        for i in 0..3 {
            let workload = &workload;
            let epoch_query = &epoch_query;
            let baseline = &baseline;
            scope.spawn(move || {
                let mut conn = connect_user(addr, user, "querier").unwrap();
                let mut rng = StdRng::seed_from_u64(100 + i);
                for _ in 0..10 {
                    let q = workload.q1(30 * 60, &mut rng);
                    conn.execute(&q).expect("query during ingest");
                    let stable = conn.execute(epoch_query).expect("stable query");
                    assert_eq!(wire_bytes(&stable), wire_bytes(baseline));
                }
                conn.close().unwrap();
            });
        }
    });

    // After ingest: a spanning query touches the new epochs, and the wire
    // answer still matches the oracle on the same (shared) system.
    let mut conn = connect_user(addr, &user, "after").unwrap();
    let spanning = Query::count().at_dims([4]).between(0, 3 * HOURS * 3600 - 1);
    let got = conn.execute(&spanning).unwrap();
    let want = system.session(&user).execute(&spanning).unwrap();
    assert_eq!(wire_bytes(&got), wire_bytes(&want));
    assert_eq!(got.epochs_touched, 3);
    conn.close().unwrap();
    handle.shutdown_and_join();
}

/// Error replies through the client library and the real engine: bad
/// credentials, oversized batches and oversized frames come back as
/// structured errors, and the recoverable ones leave the connection
/// usable. (The raw-frame refusals — wrong version, premature requests,
/// malformed payloads, reserved ids — are scripted in
/// `tests/connection_protocol.rs`.)
#[test]
fn structured_error_replies() {
    let (_system, user, handle) = spawn_demo_server(ServerConfig {
        max_batch: 4,
        max_frame_len: 64 << 10,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // Wrong credential → AuthFailed at the handshake.
    let err = ClientBuilder::new(addr)
        .credential(user.user_id.0, [0u8; 32])
        .client_name("evil")
        .connect()
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Handshake(ref m) if m.contains("auth_failed")),
        "{err}"
    );

    // Unknown user → AuthFailed too.
    let err = ClientBuilder::new(addr)
        .credential(999, user.credential.0)
        .client_name("ghost")
        .connect()
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Handshake(ref m) if m.contains("auth_failed")),
        "{err}"
    );

    // Oversized batch → BatchTooLarge, and the connection stays usable.
    {
        let mut conn = connect_user(addr, &user, "bigbatch").unwrap();
        let queries: Vec<Query> = (0..5)
            .map(|i| Query::count().at_dims([i]).at(600))
            .collect();
        let err = conn.execute_batch(&queries).unwrap_err();
        assert!(
            matches!(err, ClientError::Server(ref e) if e.code == ErrorCode::BatchTooLarge),
            "{err}"
        );
        // Still serving:
        conn.execute(&Query::count().at_dims([1]).at(600)).unwrap();
        conn.close().unwrap();
    }

    // Oversized frame → FrameTooLarge, connection survives (the server
    // drains the payload to stay frame-aligned).
    {
        let mut conn = connect_user(addr, &user, "bigframe").unwrap();
        let records: Vec<concealer_core::Record> = (0..20_000)
            .map(|i| concealer_core::Record::spatial(i % 12, i % 7200, 1000 + i % 40))
            .collect();
        let err = conn.ingest_epoch(4 * HOURS * 3600, &records).unwrap_err();
        assert!(
            matches!(err, ClientError::Server(ref e) if e.code == ErrorCode::FrameTooLarge),
            "{err}"
        );
        conn.execute(&Query::count().at_dims([1]).at(600)).unwrap();
        conn.close().unwrap();
    }

    handle.shutdown_and_join();
}

/// Individualized queries still enforce device authorization over the
/// wire: a user asking about someone else's device gets `Unauthorized`.
#[test]
fn wire_queries_enforce_authorization_scope() {
    let (_system, user, handle) = spawn_demo_server(ServerConfig::default());
    let mut conn = connect_user(handle.local_addr(), &user, "scope").unwrap();
    // demo_system authorizes devices 1000..1300; 555 belongs to no one.
    let foreign = Query::collect_rows().observing(555).between(0, 3_599);
    let err = conn.execute(&foreign).unwrap_err();
    assert!(
        matches!(err, ClientError::Server(ref e) if e.code == ErrorCode::Unauthorized),
        "{err}"
    );
    // The session survives the refusal.
    conn.execute(&Query::count().at_dims([2]).at(120)).unwrap();
    conn.close().unwrap();
    handle.shutdown_and_join();
}

/// The connection cap: connections over `max_connections` are refused
/// with a `Busy` error frame, earlier ones keep working.
#[test]
fn connections_over_the_cap_are_refused_busy() {
    let (_system, user, handle) = spawn_demo_server(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut first = connect_user(addr, &user, "one").unwrap();
    let second = connect_user(addr, &user, "two").unwrap();
    // The third must come back Busy (the cap is checked at accept time;
    // the refusal path drains the pending Hello so the frame is reliably
    // delivered, never lost to an RST).
    let err = connect_user(addr, &user, "three").unwrap_err();
    assert!(
        matches!(err, ClientError::Handshake(ref m) if m.contains("busy")),
        "{err}"
    );
    first.execute(&Query::count().at_dims([1]).at(60)).unwrap();
    drop(second);
    first.close().unwrap();
    let report = handle.shutdown_and_join();
    assert!(report.rejected_busy >= 1);
}

/// Mid-connection server restart on the disk backend: a client loses its
/// connection, the deployment reopens from the same durable root (same
/// master), a new server serves it, and answers are bit-identical to
/// before the restart.
#[test]
fn disk_backend_survives_mid_connection_server_restart() {
    let root = std::env::temp_dir().join(format!(
        "concealer-server-restart-{}-{}",
        std::process::id(),
        SEED
    ));
    let _ = std::fs::remove_dir_all(&root);
    let master = MasterKey::from_bytes([21u8; 32]);
    let records = demo_epoch_records(HOURS, SEED, 0);
    let queries: Vec<Query> = vec![
        Query::count().at_dims([4]).between(0, HOURS * 3600 - 1),
        Query::top_k_locations(5).between(0, HOURS * 3600 - 1),
        Query::count().at_dims([7]).at(1_800),
    ];

    let build = |rng_seed: u64| -> (ConcealerSystem, UserHandle) {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut system = SystemBuilder::new(demo_config(HOURS))
            .master(master.clone())
            .with_backend(Arc::new(DiskEpochStore::open(&root).expect("open root")))
            .build(&mut rng)
            .expect("build on durable root");
        let user = system.register_user(7, (1000..1300).collect(), true);
        (system, user)
    };

    // First server generation: ingest, query over the wire, then shut the
    // server down while the client connection is still open.
    let before = {
        let (system, user) = build(1);
        let mut rng = StdRng::seed_from_u64(2);
        system.ingest_epoch(0, &records, &mut rng).expect("ingest");
        let handle = Server::new(Arc::new(system), ServerConfig::default())
            .spawn()
            .unwrap();
        let mut conn = connect_user(handle.local_addr(), &user, "gen1").unwrap();
        let before: Vec<Vec<u8>> = queries
            .iter()
            .map(|q| wire_bytes(&conn.execute(q).expect("pre-restart query")))
            .collect();
        // Kill the server mid-connection (not via Goodbye).
        handle.shutdown_and_join();
        // The surviving connection now fails cleanly.
        let err = conn.execute(&queries[0]).unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Closed | ClientError::Io(_) | ClientError::Server(_)
            ),
            "{err}"
        );
        before
    };

    // Second generation: reopen the same root (nothing re-ingested) and
    // serve again (a fresh ephemeral port — the old one may sit in
    // TIME_WAIT); a fresh client sees bit-identical answers.
    let (system, user) = build(3);
    let handle = Server::new(Arc::new(system), ServerConfig::default())
        .spawn()
        .expect("serve the reopened deployment");
    let mut conn = connect_user(handle.local_addr(), &user, "gen2").unwrap();
    assert_eq!(conn.server_info().backend, "disk");
    for (query, before) in queries.iter().zip(&before) {
        let after = conn.execute(query).expect("post-restart query");
        assert_eq!(&wire_bytes(&after), before);
        assert!(after.verified);
    }
    conn.close().unwrap();
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&root);
}

/// Stats and server info over the wire reflect the deployment.
#[test]
fn stats_and_server_info_reflect_the_deployment() {
    let (system, user, handle) = spawn_demo_server(ServerConfig {
        server_name: "loopback-fixture".into(),
        ..ServerConfig::default()
    });
    let mut conn = connect_user(handle.local_addr(), &user, "stats").unwrap();
    let info = conn.server_info().clone();
    assert_eq!(info.protocol_version, PROTOCOL_VERSION);
    assert_eq!(info.server_name, "loopback-fixture");
    assert_eq!(info.backend, system.store().backend_kind());
    assert!(info.ingest_allowed);

    use concealer_core::SecureIndex as _;
    let want = system.answer_stats();
    let got = conn.stats().unwrap();
    assert_eq!(got.backend, want.backend);
    assert_eq!(got.epochs as usize, want.epochs);
    assert_eq!(got.rows_stored as usize, want.rows_stored);
    assert!(got.volume_hiding && got.verifiable);
    conn.close().unwrap();
    handle.shutdown_and_join();
}

// ---------------------------------------------------------------------
// Frame-codec property tests
// ---------------------------------------------------------------------

/// A deterministic random protocol message (requests and responses both
/// travel the same frame codec).
fn random_request(rng: &mut StdRng) -> Request {
    let workload = demo_workload(HOURS);
    match rng.gen_range(0u32..6) {
        0 => Request::Hello {
            version: rng.gen(),
            user_id: rng.gen(),
            credential: std::array::from_fn(|_| rng.gen()),
            client_name: format!("client-{}", rng.gen_range(0u32..1000)),
        },
        1 => Request::Execute {
            id: rng.gen_range(1u64..u64::MAX),
            query: workload.q1(30 * 60, rng),
            options: Some(ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(3)),
        },
        2 => Request::ExecuteBatch {
            id: rng.gen_range(1u64..u64::MAX),
            queries: (0..rng.gen_range(0usize..6))
                .map(|_| workload.q2(45 * 60, 4, rng))
                .collect(),
            options: None,
        },
        3 => Request::IngestEpoch {
            id: rng.gen_range(1u64..u64::MAX),
            epoch_start: rng.gen_range(0u64..1 << 40),
            records: (0..rng.gen_range(0usize..8))
                .map(|_| {
                    concealer_core::Record::spatial(
                        rng.gen_range(0u64..30),
                        rng.gen_range(0u64..7200),
                        rng.gen_range(1000u64..1300),
                    )
                })
                .collect(),
        },
        4 => Request::Stats {
            id: rng.gen_range(1u64..u64::MAX),
        },
        _ => Request::Goodbye,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Frame round-trip: any protocol message written as a frame reads
    /// back identical, and chained frames on one stream stay aligned.
    #[test]
    fn frame_codec_round_trips_protocol_messages(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let messages: Vec<Request> = (0..rng.gen_range(1usize..6))
            .map(|_| random_request(&mut rng))
            .collect();
        let mut buf = Vec::new();
        for message in &messages {
            write_frame(&mut buf, message).unwrap();
        }
        let mut reader = buf.as_slice();
        for message in &messages {
            let decoded: Request = read_frame(&mut reader, 1 << 20).expect("frame decode");
            prop_assert_eq!(&decoded, message);
        }
        prop_assert!(matches!(
            read_frame::<_, Request>(&mut reader, 1 << 20),
            Err(FrameError::Closed)
        ));
    }

    /// A truncated frame never decodes successfully — it errors (torn
    /// stream or short payload), it does not alias another message.
    #[test]
    fn truncated_frames_error_instead_of_aliasing(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let message = random_request(&mut rng);
        let mut buf = Vec::new();
        write_frame(&mut buf, &message).unwrap();
        let cut = rng.gen_range(0..buf.len());
        let mut reader = &buf[..cut];
        match read_frame::<_, Request>(&mut reader, 1 << 20) {
            Err(_) => {}
            Ok(decoded) => {
                // Only the degenerate cut-at-zero case may look clean, and
                // that path returns Closed (an Err) — decoding cannot
                // succeed on a strict prefix.
                prop_assert!(false, "truncated frame decoded as {decoded:?}");
            }
        }
    }
}
