//! Loopback tests of multi-node serving: a `concealer-router` fronting
//! 2–4 epoch-sharded shard servers must deliver answers **bit-identical**
//! (same `serde::bin` encoding) to a single-process in-process oracle —
//! across mixed workloads, batches (dedup metadata included), routed
//! wire ingest, shard failure (structured `shard_unavailable`, never
//! divergence), shard restart (reconnect, identical answers), and a
//! router-initiated deployment-wide drain.
//!
//! The replica-set leg (bottom of the file) runs a 1-shard set of one
//! writer plus one read replica on a shared durable store root: reads
//! balance across members bit-identically, a replica kill fails over
//! with zero divergence, and a **writer** kill triggers wire promotion
//! (store re-open — no key material moves) with answers bit-identical
//! across the failover.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use concealer_bench::{server_request_mix, ServerRequest};
use concealer_client::{ClientBuilder, ClientError, Session, TrustPolicy};
use concealer_core::{shard_of_epoch, Query, QueryAnswer, UserHandle};
use concealer_examples::{
    demo_epoch_records, demo_system, demo_system_replica, demo_system_sharded, demo_workload,
};
use concealer_router::{RouterConfig, RouterHandler};
use concealer_server::protocol::{ShardDescriptor, ShardRole, WireQuote};
use concealer_server::{
    ErrorCode, Request, Response, Server, ServerConfig, ServerHandle, CONNECTION_LEVEL_ID,
    PROTOCOL_VERSION,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::frame::{read_frame, write_frame};

const HOURS: u64 = 2;
const SEED: u64 = 4242;
const EPOCH: u64 = HOURS * 3600;

fn wire_bytes(answer: &QueryAnswer) -> Vec<u8> {
    serde::bin::to_bytes(answer)
}

/// Attest + authenticate through the redesigned client surface (default
/// trust policy: the demo enclaves' relayed quotes must verify end to
/// end, even through the keyless router).
fn connect_user(addr: SocketAddr, user: &UserHandle, name: &str) -> Result<Session, ClientError> {
    ClientBuilder::new(addr)
        .user(user)
        .client_name(name)
        .connect()
}

/// Spawn `total` shard servers (each owning its epoch-hash slice of the
/// demo deployment) plus a router fronting them, served with
/// `router_serving`. Returns the running pieces and the shared demo user.
fn spawn_routed_deployment(
    total: u32,
    router_config: RouterConfig,
    router_serving: ServerConfig,
) -> (Vec<ServerHandle>, ServerHandle, UserHandle) {
    let mut shard_handles = Vec::new();
    let mut shard_addrs = Vec::new();
    let mut user = None;
    for index in 0..total {
        let (system, shard_user, _records) = demo_system_sharded(HOURS, SEED, index, total);
        user.get_or_insert(shard_user);
        let handle = Server::new(
            Arc::new(system),
            ServerConfig {
                shard: Some((index, total)),
                ..ServerConfig::default()
            },
        )
        .spawn()
        .expect("bind shard");
        shard_addrs.push(handle.local_addr().to_string());
        shard_handles.push(handle);
    }
    let handler = RouterHandler::probe(RouterConfig {
        shards: shard_addrs,
        ..router_config
    })
    .expect("probe shard map");
    let router = Server::with_handler(Arc::new(handler), router_serving)
        .spawn()
        .expect("bind router");
    (shard_handles, router, user.expect("at least one shard"))
}

/// The single-process oracle holding the same data as the whole sharded
/// deployment: epoch 0 (the demo ingest) plus `extra` follow-up epochs
/// ingested with the *wire* RNG derivation, so routed `IngestEpoch` and
/// the oracle produce identical sealed state.
fn oracle_with_extra_epochs(extra: u64) -> (concealer_core::ConcealerSystem, UserHandle) {
    let (system, user, _records) = demo_system(HOURS, SEED);
    let ingest_seed = ServerConfig::default().ingest_seed;
    for k in 1..=extra {
        let epoch_start = k * EPOCH;
        let records = demo_epoch_records(HOURS, SEED, epoch_start);
        let mut rng =
            StdRng::seed_from_u64(ingest_seed ^ epoch_start.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        system
            .ingest_epoch(epoch_start, &records, &mut rng)
            .expect("oracle ingest");
    }
    (system, user)
}

/// Mixed point/range/batch workloads from concurrent clients, all routed
/// over 2 shards: every answer — and every per-query batch entry with
/// its dedup fetch metadata — encodes byte-for-byte like the oracle.
#[test]
fn routed_answers_match_single_process_oracle_bit_for_bit() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 12;
    let (shards, router, user) =
        spawn_routed_deployment(2, RouterConfig::default(), ServerConfig::default());
    let addr = router.local_addr();
    let (oracle_system, oracle_user) = oracle_with_extra_epochs(0);
    let workload = demo_workload(HOURS);

    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let oracle_system = &oracle_system;
            let oracle_user = &oracle_user;
            let user = &user;
            let workload = &workload;
            scope.spawn(move || {
                let mix = server_request_mix(workload, SEED + client_idx as u64, REQUESTS, 5);
                let mut conn = connect_user(addr, user, "routed").expect("connect via router");
                let oracle = oracle_system.session(oracle_user);
                for request in &mix {
                    match request {
                        ServerRequest::Query(query, options) => {
                            let got = conn.execute_with(query, *options).expect("routed query");
                            let want = oracle.execute_with(query, *options).expect("oracle");
                            assert_eq!(wire_bytes(&got), wire_bytes(&want));
                        }
                        ServerRequest::Batch(queries, options) => {
                            let got = conn
                                .execute_batch_with(queries, *options)
                                .expect("routed batch");
                            let want = oracle.clone().with_options(*options).execute_batch(queries);
                            assert_eq!(got.len(), want.len());
                            for (g, w) in got.iter().zip(&want) {
                                let g = g.as_ref().expect("routed batch entry");
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

    let report = router.shutdown_and_join();
    assert!(report.graceful);
    for shard in shards {
        shard.shutdown_and_join();
    }
}

/// The routed twin of `server_loopback`'s
/// `two_closed_loop_sessions_answer_at_loopback_speed`: two closed-loop
/// sessions through a router over two shards, 200 warm point queries
/// each, every answer byte-equal to the oracle, inside a bound a stalled
/// reply path (router or shard) overshoots tenfold.
#[test]
fn two_closed_loop_sessions_through_the_router_answer_at_loopback_speed() {
    const QUERIES: usize = 200;
    const BOUND: Duration = Duration::from_secs(5);
    let (shards, router, user) =
        spawn_routed_deployment(2, RouterConfig::default(), ServerConfig::default());
    let addr = router.local_addr();
    let points: Vec<Query> = (0..8u64)
        .map(|i| Query::count().at_dims([i]).at(600 * (i + 1)))
        .collect();
    let (oracle_system, oracle_user) = oracle_with_extra_epochs(0);
    let oracle = oracle_system.session(&oracle_user);
    let want: Vec<Vec<u8>> = points
        .iter()
        .map(|q| wire_bytes(&oracle.execute(q).expect("oracle point")))
        .collect();

    let mut sessions: Vec<Session> = (0..2)
        .map(|_| connect_user(addr, &user, "closed-loop").expect("connect via router"))
        .collect();
    // One untimed pass warms the shards' caches and the upstream pool.
    for (query, want) in points.iter().zip(&want) {
        let got = sessions[0].execute(query).expect("routed point");
        assert_eq!(&wire_bytes(&got), want);
    }
    let start = Barrier::new(sessions.len());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn in &mut sessions {
            let (start, points, want) = (&start, &points, &want);
            scope.spawn(move || {
                start.wait();
                for k in 0..QUERIES {
                    let got = conn
                        .execute(&points[k % points.len()])
                        .expect("routed point");
                    assert_eq!(wire_bytes(&got), want[k % want.len()]);
                }
            });
        }
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < BOUND,
        "2 x {QUERIES} routed warm point queries took {elapsed:?}: replies are stalling"
    );
    for conn in sessions {
        conn.close().expect("clean goodbye");
    }
    assert!(router.shutdown_and_join().graceful);
    for shard in shards {
        shard.shutdown_and_join();
    }
}

/// Routed ingest over 3 shards: each `IngestEpoch` lands on the owning
/// shard only, spanning queries then touch every epoch and match the
/// oracle bit-for-bit, per-shard counters reflect the fan-out, and a
/// wire shutdown at the router drains the entire deployment.
#[test]
fn routed_ingest_partitions_epochs_and_drains_the_deployment() {
    const TOTAL: u32 = 3;
    const EXTRA: u64 = 3;
    let (shards, router, user) =
        spawn_routed_deployment(TOTAL, RouterConfig::default(), ServerConfig::default());
    let mut conn = connect_user(router.local_addr(), &user, "ingest").unwrap();

    for k in 1..=EXTRA {
        let records = demo_epoch_records(HOURS, SEED, k * EPOCH);
        let rows = conn
            .ingest_epoch(k * EPOCH, &records)
            .expect("routed ingest");
        assert!(rows > 0);
    }

    // The epochs really are partitioned: ask each shard directly.
    let mut owners_seen = std::collections::BTreeSet::new();
    for (index, shard) in shards.iter().enumerate() {
        let mut probe = ClientBuilder::new(shard.local_addr())
            .probe()
            .expect("probe shard");
        let ShardDescriptor {
            shard_index,
            shard_total,
            epochs,
            ..
        } = probe.shard_info().expect("shard info");
        assert_eq!(shard_index, index as u32);
        assert_eq!(shard_total, TOTAL);
        for epoch in epochs {
            assert_eq!(
                shard_of_epoch(epoch, TOTAL as usize),
                index,
                "epoch {epoch} stored off its owner slice"
            );
            owners_seen.insert(index);
        }
    }
    assert!(
        owners_seen.len() >= 2,
        "fixture degenerated: all epochs hashed to one shard"
    );

    // Spanning queries merge the partitioned epochs back bit-for-bit.
    let (oracle_system, oracle_user) = oracle_with_extra_epochs(EXTRA);
    let oracle = oracle_system.session(&oracle_user);
    let spanning = Query::count()
        .at_dims([4])
        .between(0, (EXTRA + 1) * EPOCH - 1);
    let got = conn.execute(&spanning).expect("spanning query");
    let want = oracle.execute(&spanning).expect("oracle spanning");
    assert_eq!(wire_bytes(&got), wire_bytes(&want));
    assert_eq!(got.epochs_touched as u64, EXTRA + 1);
    let top_k = Query::top_k_locations(5).between(0, (EXTRA + 1) * EPOCH - 1);
    assert_eq!(
        wire_bytes(&conn.execute(&top_k).unwrap()),
        wire_bytes(&oracle.execute(&top_k).unwrap())
    );

    // Backend stats aggregate across the deployment.
    let stats = conn.stats().expect("routed stats");
    assert_eq!(stats.epochs, EXTRA + 1);
    assert!(stats.volume_hiding && stats.verifiable);

    // The router accounts its fan-out per shard; every shard served
    // something (auth, probe, partials, or the ingest it owns).
    let router_stats = conn.router_stats().expect("router stats");
    assert_eq!(router_stats.shards.len(), TOTAL as usize);
    for load in &router_stats.shards {
        assert!(load.available, "shard {} marked down", load.shard_index);
        assert!(load.requests_forwarded > 0);
    }

    // Asking a shard for router stats is a tier error, not a crash.
    let mut direct = connect_user(shards[0].local_addr(), &user, "direct").unwrap();
    let err = direct.router_stats().unwrap_err();
    assert!(
        matches!(err, ClientError::Server(ref e) if e.code == ErrorCode::ProtocolViolation),
        "{err}"
    );
    direct.close().unwrap();

    // One wire shutdown at the router quiesces the whole deployment.
    conn.shutdown_server().expect("routed shutdown");
    drop(conn);
    let report = router.join();
    assert!(report.graceful, "router must drain gracefully");
    for shard in shards {
        let report = shard.join();
        assert!(report.graceful, "shard must drain gracefully");
    }
}

/// A router advertises the limits it is served with — not its own
/// defaults — and enforces exactly those: an oversized batch is refused
/// (`batch_too_large`) before any shard sees work, and the connection
/// stays usable.
#[test]
fn router_refuses_oversized_batches() {
    let (shards, router, user) = spawn_routed_deployment(
        2,
        RouterConfig::default(),
        ServerConfig {
            max_frame_len: 1 << 20,
            max_batch: 3,
            ..ServerConfig::default()
        },
    );
    let mut conn = connect_user(router.local_addr(), &user, "bigbatch").unwrap();
    assert_eq!(conn.server_info().max_frame_len, 1 << 20);
    assert_eq!(conn.server_info().max_batch, 3);
    let queries: Vec<Query> = (0..4)
        .map(|i| Query::count().at_dims([i]).at(600))
        .collect();
    let err = conn.execute_batch(&queries).unwrap_err();
    assert!(
        matches!(err, ClientError::Server(ref e) if e.code == ErrorCode::BatchTooLarge),
        "{err}"
    );
    conn.execute(&Query::count().at_dims([1]).at(600))
        .expect("connection survives the refusal");
    conn.close().unwrap();
    router.shutdown_and_join();
    for shard in shards {
        shard.shutdown_and_join();
    }
}

/// Kill one shard mid-connection: queries fail with a **structured**
/// `shard_unavailable` error naming the shard — never a silently
/// shrunken answer. Restart the shard on the same port: the router
/// reconnects and answers are bit-identical to before the failure.
#[test]
fn shard_restart_reconnects_with_identical_answers() {
    const TOTAL: u32 = 2;
    let (mut shards, router, user) = spawn_routed_deployment(
        TOTAL,
        RouterConfig {
            // Short backoff so the reconnect probe below converges fast.
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        },
        ServerConfig::default(),
    );
    let mut conn = connect_user(router.local_addr(), &user, "failover").unwrap();
    let query = Query::count().at_dims([4]).between(0, EPOCH - 1);
    let before = wire_bytes(&conn.execute(&query).expect("pre-failure query"));

    // Kill shard 1 out from under the router.
    let victim = shards.pop().expect("two shards");
    let victim_addr = victim.local_addr();
    victim.shutdown_and_join();

    // Every slice must answer for a query to be served: the router
    // reports the dead shard, structurally.
    let err = conn.execute(&query).unwrap_err();
    match err {
        ClientError::Server(ref e) => {
            assert_eq!(e.code, ErrorCode::ShardUnavailable, "{e}");
            assert!(e.message.contains("shard 1"), "{e}");
        }
        other => panic!("expected a structured shard_unavailable, got {other:?}"),
    }

    // Restart the shard on the same address (retrying the bind briefly:
    // the old listener's sockets may take a moment to release).
    let (system, _user, _records) = demo_system_sharded(HOURS, SEED, 1, TOTAL);
    let system = Arc::new(system);
    let deadline = Instant::now() + Duration::from_secs(10);
    let restarted = loop {
        match Server::new(
            Arc::clone(&system),
            ServerConfig {
                bind: SocketAddr::from(([127, 0, 0, 1], victim_addr.port())),
                shard: Some((1, TOTAL)),
                ..ServerConfig::default()
            },
        )
        .spawn()
        {
            Ok(handle) => break handle,
            Err(e) if Instant::now() < deadline => {
                eprintln!("rebind pending: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => panic!("could not rebind shard address: {e}"),
        }
    };
    shards.push(restarted);

    // The router backs off, reconnects, and the answer is bit-identical
    // to the pre-failure one.
    let deadline = Instant::now() + Duration::from_secs(10);
    let after = loop {
        match conn.execute(&query) {
            Ok(answer) => break wire_bytes(&answer),
            Err(ClientError::Server(ref e)) if e.code == ErrorCode::ShardUnavailable => {
                assert!(
                    Instant::now() < deadline,
                    "router never reconnected to the restarted shard"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(other) => panic!("only structured errors are acceptable: {other:?}"),
        }
    };
    assert_eq!(after, before, "post-restart answer diverged");

    // The reconnect is visible in the router's accounting.
    let stats = conn.router_stats().expect("router stats");
    let shard1 = &stats.shards[1];
    assert!(shard1.errors > 0, "failure never counted");
    assert!(shard1.available, "restarted shard still marked down");

    conn.close().unwrap();
    router.shutdown_and_join();
    for shard in shards {
        shard.shutdown_and_join();
    }
}

/// A shard whose addresses are listed out of order — or a shard map with
/// the wrong total — is refused at the startup probe, before the router
/// ever serves a client.
#[test]
fn shard_map_disagreement_is_refused_at_startup() {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for index in 0..2u32 {
        let (system, _user, _records) = demo_system_sharded(HOURS, SEED, index, 2);
        let handle = Server::new(
            Arc::new(system),
            ServerConfig {
                shard: Some((index, 2)),
                ..ServerConfig::default()
            },
        )
        .spawn()
        .unwrap();
        addrs.push(handle.local_addr().to_string());
        handles.push(handle);
    }

    // Reversed order: shard 1 sits at position 0. The refusal names
    // **every** disagreeing member and the map it reported, so one
    // startup failure shows the whole mis-wiring.
    let err = RouterHandler::probe(RouterConfig {
        shards: vec![addrs[1].clone(), addrs[0].clone()],
        ..RouterConfig::default()
    })
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("shard order"), "{msg}");
    assert!(
        msg.contains(&addrs[0]) && msg.contains(&addrs[1]),
        "disagreement must name every disagreeing shard: {msg}"
    );
    assert!(
        msg.contains("reports slice 1/2") && msg.contains("reports slice 0/2"),
        "disagreement must name each shard's reported map: {msg}"
    );

    // Wrong total: a 2-shard deployment behind a 1-shard router config.
    let err = RouterHandler::probe(RouterConfig {
        shards: vec![addrs[0].clone()],
        ..RouterConfig::default()
    })
    .unwrap_err();
    assert!(err.to_string().contains("configured with 1 shard"), "{err}");

    for handle in handles {
        handle.shutdown_and_join();
    }
}

/// An upstream speaking a different protocol version: the probe works
/// (`ShardInfo` is version-independent topology discovery), but the
/// client handshake is refused with a structured error naming the
/// upstream version problem — the router never silently downgrades.
#[test]
fn version_mismatch_upstream_surfaces_structurally() {
    // A fake shard: answers the probe, refuses every Hello the way a
    // future/past server generation would.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        // The startup probe, the forwarded attestation round, and the
        // handshake dial each open their own upstream connection.
        for _ in 0..3 {
            let (mut stream, _) = listener.accept().unwrap();
            while let Ok(request) = read_frame::<_, Request>(&mut stream, 1 << 20) {
                match request {
                    Request::Attest { id, nonce } => {
                        // A syntactically valid (but unsigned) quote: the
                        // router forwards it verbatim; the client below
                        // opts out of verification — this test is about
                        // the version refusal, not trust establishment.
                        write_frame(
                            &mut stream,
                            &Response::AttestOk {
                                id,
                                quotes: vec![WireQuote {
                                    shard_index: 0,
                                    member: 0,
                                    measurement: [0u8; 32],
                                    code_version: 1,
                                    timestamp: 0,
                                    nonce,
                                    signature: [0u8; 32],
                                }],
                            },
                        )
                        .unwrap();
                    }
                    Request::ShardInfo { id } => {
                        write_frame(
                            &mut stream,
                            &Response::ShardInfoOk {
                                id,
                                shard: ShardDescriptor {
                                    shard_index: 0,
                                    shard_total: 1,
                                    epoch_duration: EPOCH,
                                    epochs: vec![0],
                                    role: ShardRole::Writer,
                                    store_generation: 0,
                                },
                            },
                        )
                        .unwrap();
                    }
                    Request::Hello { version, .. } => {
                        write_frame(
                            &mut stream,
                            &Response::Error {
                                id: CONNECTION_LEVEL_ID,
                                error: concealer_server::WireError::new(
                                    ErrorCode::UnsupportedVersion,
                                    format!(
                                        "shard speaks protocol {}, router sent {version}",
                                        PROTOCOL_VERSION + 1
                                    ),
                                ),
                            },
                        )
                        .unwrap();
                        break;
                    }
                    _ => break,
                }
            }
        }
    });

    let handler = RouterHandler::probe(RouterConfig {
        shards: vec![addr.to_string()],
        ..RouterConfig::default()
    })
    .expect("probe succeeds: topology discovery is version-independent");
    let router = Server::with_handler(Arc::new(handler), ServerConfig::default())
        .spawn()
        .unwrap();

    let err = ClientBuilder::new(router.local_addr())
        .credential(7, [0u8; 32])
        .client_name("future")
        .trust_policy(TrustPolicy::allow_unattested())
        .connect()
        .unwrap_err();
    match err {
        ClientError::Handshake(ref m) => {
            assert!(m.contains("unsupported_version"), "{m}");
            assert!(m.contains("shard 0"), "{m}");
        }
        other => panic!("expected a structured handshake refusal, got {other:?}"),
    }

    router.shutdown_and_join();
    fake.join().unwrap();
}

// ---------------------------------------------------------------------------
// Replica sets: one writer + one read replica sharing a durable store root.
// ---------------------------------------------------------------------------

/// A scratch store root under the system temp dir, removed on drop.
struct TempRoot(std::path::PathBuf);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "concealer-replica-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        TempRoot(path)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Drive the replica's refresh path until it has absorbed `epoch` from
/// the shared store (what the `--refresh-ms` loop does in the binary).
fn absorb_until(replica: &concealer_core::ConcealerSystem, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // Epochs already on disk at build time are registered by
        // assembly itself; refresh picks up everything committed since.
        replica.refresh_epochs().expect("replica refresh");
        if replica.store().epoch_ids().contains(&epoch) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica never absorbed epoch {epoch}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawn a 1-shard replica set on `root`: a writer (which performs the
/// demo ingest of epoch 0) and a read replica that has absorbed it, plus
/// a router fronting the pair as one comma-separated member list.
/// Returns the member systems too, so tests can drive the replica's
/// refresh path deterministically.
#[allow(clippy::type_complexity)]
fn spawn_replicated_deployment(
    root: &std::path::Path,
    router_config: RouterConfig,
) -> (
    ServerHandle,
    ServerHandle,
    ServerHandle,
    Arc<concealer_core::ConcealerSystem>,
    UserHandle,
) {
    let (writer_system, user, _records) = demo_system_replica(HOURS, SEED, None, root, true);
    let writer = Server::new(Arc::new(writer_system), ServerConfig::default())
        .spawn()
        .expect("bind writer");

    let (replica_system, _user, _records) = demo_system_replica(HOURS, SEED, None, root, false);
    let replica_system = Arc::new(replica_system);
    absorb_until(&replica_system, 0);
    let replica = Server::new(Arc::clone(&replica_system), ServerConfig::default())
        .spawn()
        .expect("bind replica");

    let handler = RouterHandler::probe(RouterConfig {
        shards: vec![format!("{},{}", writer.local_addr(), replica.local_addr())],
        ..router_config
    })
    .expect("probe replica set");
    let router = Server::with_handler(Arc::new(handler), ServerConfig::default())
        .spawn()
        .expect("bind router");
    (writer, replica, router, replica_system, user)
}

/// Reads round-robin across the replica set: every answer is
/// bit-identical to the single-process oracle, both members serve
/// partials, and the router knows which member is the writer.
#[test]
fn replicated_reads_balance_across_members_bit_identically() {
    let root = TempRoot::new("balance");
    let (writer, replica, router, _replica_system, user) =
        spawn_replicated_deployment(&root.0, RouterConfig::default());
    let mut conn = connect_user(router.local_addr(), &user, "balanced").unwrap();
    let (oracle_system, oracle_user) = oracle_with_extra_epochs(0);
    let oracle = oracle_system.session(&oracle_user);

    let workload = demo_workload(HOURS);
    let mix = server_request_mix(&workload, SEED + 9, 16, 4);
    for request in &mix {
        match request {
            ServerRequest::Query(query, options) => {
                let got = conn.execute_with(query, *options).expect("routed query");
                let want = oracle.execute_with(query, *options).expect("oracle");
                assert_eq!(wire_bytes(&got), wire_bytes(&want));
            }
            ServerRequest::Batch(queries, options) => {
                let got = conn
                    .execute_batch_with(queries, *options)
                    .expect("routed batch");
                let want = oracle.clone().with_options(*options).execute_batch(queries);
                for (g, w) in got.iter().zip(&want) {
                    let g = g.as_ref().expect("routed batch entry");
                    let w = w.as_ref().expect("oracle batch entry");
                    assert_eq!(wire_bytes(g), wire_bytes(w));
                }
            }
        }
    }

    // Both members carried read traffic, and the roles are visible.
    let stats = conn.router_stats().expect("router stats");
    assert_eq!(stats.shards.len(), 2, "one ShardLoad per member");
    let mut writers = 0;
    for load in &stats.shards {
        assert_eq!(load.shard_index, 0);
        assert!(
            load.requests_forwarded > 0,
            "member {} ({}) never served",
            load.member,
            load.addr
        );
        if load.writer {
            writers += 1;
            assert_eq!(load.member, 0, "probe found the writer at member 0");
        }
    }
    assert_eq!(writers, 1, "exactly one writer per set");

    conn.close().unwrap();
    router.shutdown_and_join();
    writer.shutdown_and_join();
    replica.shutdown_and_join();
}

/// Kill the read replica mid-load: reads fail over to the writer with
/// no divergence and no unstructured failure — and after the replica
/// rejoins on the same address, the router resumes using it.
#[test]
fn replica_kill_mid_load_fails_over_and_recovers() {
    let root = TempRoot::new("replica-kill");
    let (writer, replica, router, replica_system, user) = spawn_replicated_deployment(
        &root.0,
        RouterConfig {
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        },
    );
    let mut conn = connect_user(router.local_addr(), &user, "replica-kill").unwrap();
    let query = Query::count().at_dims([4]).between(0, EPOCH - 1);
    let before = wire_bytes(&conn.execute(&query).expect("pre-kill query"));

    // Kill the replica out from under the router.
    let replica_addr = replica.local_addr();
    drop(replica_system);
    replica.shutdown_and_join();

    // Reads keep being served (by the writer): bit-identical, with at
    // worst a structured shard_unavailable while the router notices.
    let mut served = 0;
    for _ in 0..10 {
        match conn.execute(&query) {
            Ok(answer) => {
                assert_eq!(wire_bytes(&answer), before, "failover answer diverged");
                served += 1;
            }
            Err(ClientError::Server(ref e)) if e.code == ErrorCode::ShardUnavailable => {}
            Err(other) => panic!("only structured errors are acceptable: {other:?}"),
        }
    }
    assert!(served > 0, "no read survived the replica kill");

    // Rejoin: a fresh replica on the same address re-absorbs the store.
    let (rejoined_system, _user, _records) = demo_system_replica(HOURS, SEED, None, &root.0, false);
    let rejoined_system = Arc::new(rejoined_system);
    absorb_until(&rejoined_system, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let rejoined = loop {
        match Server::new(
            Arc::clone(&rejoined_system),
            ServerConfig {
                bind: SocketAddr::from(([127, 0, 0, 1], replica_addr.port())),
                ..ServerConfig::default()
            },
        )
        .spawn()
        {
            Ok(handle) => break handle,
            Err(e) if Instant::now() < deadline => {
                eprintln!("rebind pending: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => panic!("could not rebind replica address: {e}"),
        }
    };

    // The router reconnects (round-robin lands on the rejoined member
    // again once its backoff expires) and answers stay bit-identical.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let answer = conn.execute(&query).expect("post-rejoin query");
        assert_eq!(wire_bytes(&answer), before, "post-rejoin answer diverged");
        let stats = conn.router_stats().expect("router stats");
        let member1 = stats
            .shards
            .iter()
            .find(|l| l.member == 1)
            .expect("member 1 listed");
        if member1.available {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never took the rejoined replica back"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    conn.close().unwrap();
    router.shutdown_and_join();
    writer.shutdown_and_join();
    rejoined.shutdown_and_join();
}

/// Kill the **writer** mid-deployment: the next routed ingest promotes
/// the replica over the wire (store re-open, no key material moves),
/// lands on the new writer, and answers before and after the promotion
/// are bit-identical — zero divergence across the failover.
#[test]
fn writer_kill_promotes_replica_with_zero_divergence() {
    let root = TempRoot::new("writer-kill");
    let (writer, replica, router, replica_system, user) = spawn_replicated_deployment(
        &root.0,
        RouterConfig {
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        },
    );
    let mut conn = connect_user(router.local_addr(), &user, "writer-kill").unwrap();

    // Routed ingest of epoch 1 lands on the writer; the replica absorbs
    // it through the shared store before serving reads that touch it.
    let records = demo_epoch_records(HOURS, SEED, EPOCH);
    assert!(conn.ingest_epoch(EPOCH, &records).expect("routed ingest") > 0);
    absorb_until(&replica_system, EPOCH);

    let spanning = Query::count().at_dims([4]).between(0, 2 * EPOCH - 1);
    let before = wire_bytes(&conn.execute(&spanning).expect("pre-kill query"));

    // Kill the writer. Its store handle dies with it; the replica (and
    // the shared root) live on.
    writer.shutdown_and_join();

    // The next ingest finds the writer dead, promotes the replica over
    // the wire, and lands there — one structured round, no divergence.
    let records = demo_epoch_records(HOURS, SEED, 2 * EPOCH);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match conn.ingest_epoch(2 * EPOCH, &records) {
            Ok(rows) => {
                assert!(rows > 0);
                break;
            }
            Err(ClientError::Server(ref e)) if e.code == ErrorCode::ShardUnavailable => {
                assert!(
                    Instant::now() < deadline,
                    "ingest never failed over to the promoted replica"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(other) => panic!("only structured errors are acceptable: {other:?}"),
        }
    }

    // The promotion is visible in the router's accounting…
    let stats = conn.router_stats().expect("router stats");
    let promoted = stats
        .shards
        .iter()
        .find(|l| l.member == 1)
        .expect("member 1 listed");
    assert!(
        promoted.writer,
        "member 1 must be the writer after failover"
    );
    let demoted = stats
        .shards
        .iter()
        .find(|l| l.member == 0)
        .expect("member 0 listed");
    assert!(!demoted.writer, "the dead member cannot stay writer");

    // …and invisible in the answers: pre-kill bytes replay identically,
    // and the post-promotion ingest serves alongside the old epochs
    // exactly like a single process that ingested all three.
    assert_eq!(
        wire_bytes(&conn.execute(&spanning).expect("post-promotion query")),
        before,
        "answers diverged across the failover"
    );
    let (oracle_system, oracle_user) = oracle_with_extra_epochs(2);
    let oracle = oracle_system.session(&oracle_user);
    let full = Query::count().at_dims([4]).between(0, 3 * EPOCH - 1);
    let got = conn.execute(&full).expect("spanning query");
    let want = oracle.execute(&full).expect("oracle spanning");
    assert_eq!(wire_bytes(&got), wire_bytes(&want));
    assert_eq!(got.epochs_touched as u64, 3);

    conn.close().unwrap();
    router.shutdown_and_join();
    replica.shutdown_and_join();
}

/// A member that died is backed off from its first failed dial, even when
/// that dial is the forwarded attestation round: `RouterStats` shows it
/// unavailable before any read, so the next client to connect does not
/// re-dial it while the backoff runs.
#[test]
fn a_failed_attest_dial_backs_the_member_off() {
    let root = TempRoot::new("attest-backoff");
    let (writer, replica, router, replica_system, user) = spawn_replicated_deployment(
        &root.0,
        RouterConfig {
            backoff_base: Duration::from_secs(5),
            backoff_max: Duration::from_secs(5),
            connect_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        },
    );
    drop(replica_system);
    replica.shutdown_and_join();

    // Attest (member 0 answers, member 1's dial is refused), then the
    // handshake, which authenticates against member 0.
    let mut conn = connect_user(router.local_addr(), &user, "attest-backoff").unwrap();
    let stats = conn.router_stats().expect("router stats");
    let counts: Vec<(u32, u64, u64, u64, bool)> = stats
        .shards
        .iter()
        .map(|l| {
            (
                l.member,
                l.requests_forwarded,
                l.errors,
                l.reconnects,
                l.available,
            )
        })
        .collect();
    assert_eq!(
        counts,
        vec![(0, 2, 0, 0, true), (1, 1, 1, 0, false)],
        "(member, forwarded, errors, reconnects, available)"
    );

    conn.close().unwrap();
    router.shutdown_and_join();
    writer.shutdown_and_join();
}
