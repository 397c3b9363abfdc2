//! `concealer-load`: drive a running Concealer server with N concurrent
//! clients of mixed point/range/batch workloads, check every answer
//! bit-for-bit against a local oracle, and emit a `BENCH_server.json`
//! summary (schema `concealer-server-load/v3`: serving mode, the server's
//! connection high-water mark, qps, p50/p95/p99 latency).
//!
//! ```text
//! concealer-load --addr HOST:PORT [--clients N] [--requests N]
//!                [--batch-len N] [--hours H] [--seed S] [--ingest-epochs N]
//!                [--router] [--no-check] [--shutdown]
//!                [--out BENCH_server.json]
//! ```
//!
//! Flags accept both `--flag value` and `--flag=value` (parsing shared
//! with the other binaries via `concealer-cli`).
//!
//! `--router` points `--addr` at a `concealer-router` instead of a single
//! server; the scenario runs **unchanged** (the routed deployment is
//! supposed to be indistinguishable). Two differences in accounting:
//! structured `shard_unavailable` replies are tolerated — counted
//! (`shard_unavailable` in the summary), never compared against the
//! oracle, and not run-fatal, because the routed soak kills a shard
//! mid-load on purpose — and the summary gains a `router_shards` array
//! with each upstream **member**'s forwarded/error/reconnect counters
//! (plus its replica-set position and writer flag) from the router's
//! `RouterStats` endpoint. Divergences and unstructured
//! (transport-level) errors still fail the run: a dying shard must never
//! tear the client-facing connection or shrink an answer.
//!
//! `(hours, seed)` must match the server's: the oracle rebuilds the same
//! deterministic demo deployment in-process (same master key, data, and
//! credential — the harness stand-in for the data provider distributing
//! credentials out of band), regenerates each client's request stream
//! from its seed, and compares the `serde::bin` encoding of every wire
//! answer against local execution. Any mismatch is a divergence and fails
//! the run — this is what the CI `server-soak` job gates on.
//!
//! With `--ingest-epochs N`, one extra connection ingests follow-up
//! epochs *while query traffic is live*; checked queries all lie in the
//! first epoch's window, whose answers ingest must not disturb.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use concealer_bench::{server_request_mix, ServerRequest};
use concealer_client::{ClientBuilder, ClientError, Session};
use concealer_examples::{demo_epoch_records, demo_system, demo_workload};

const USAGE: &str = "concealer-load --addr HOST:PORT [--clients N] [--requests N] \
                     [--batch-len N] [--hours H] [--seed S] [--ingest-epochs N] \
                     [--router] [--no-check] [--shutdown] \
                     [--out BENCH_server.json]";

/// One authenticated session to the target deployment. The load
/// generator trusts the demo enclave by default (the default
/// [`concealer_client::TrustPolicy`] verifies signatures and freshness);
/// what it *checks* is the answers, bit-for-bit against the oracle.
fn connect(
    args: &Args,
    user: &concealer_core::UserHandle,
    name: &str,
) -> Result<Session, ClientError> {
    ClientBuilder::new(args.addr.as_str())
        .user(user)
        .client_name(name)
        .connect()
}

struct Args {
    addr: String,
    clients: usize,
    requests: usize,
    batch_len: usize,
    hours: u64,
    seed: u64,
    ingest_epochs: u64,
    router: bool,
    check: bool,
    shutdown: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut cli = concealer_cli::Args::new("concealer-load", USAGE);
    let mut args = Args {
        addr: String::new(),
        clients: 8,
        requests: 36,
        batch_len: 8,
        hours: 2,
        seed: 42,
        ingest_epochs: 0,
        router: false,
        check: true,
        shutdown: false,
        out: "BENCH_server.json".to_string(),
    };
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--addr" => args.addr = cli.value("--addr"),
            "--clients" => args.clients = cli.parse("--clients"),
            "--requests" => args.requests = cli.parse("--requests"),
            "--batch-len" => args.batch_len = cli.parse("--batch-len"),
            "--hours" => args.hours = cli.parse("--hours"),
            "--seed" => args.seed = cli.parse("--seed"),
            "--ingest-epochs" => args.ingest_epochs = cli.parse("--ingest-epochs"),
            "--router" => args.router = true,
            "--no-check" => args.check = false,
            "--shutdown" => args.shutdown = true,
            "--out" => args.out = cli.value("--out"),
            "--help" | "-h" => cli.help(),
            other => cli.unknown(other),
        }
    }
    if args.addr.is_empty() {
        cli.fail("--addr HOST:PORT is required");
    }
    if args.clients == 0 || args.requests == 0 {
        cli.fail("--clients and --requests must be at least 1");
    }
    args
}

/// Per-client outcome.
#[derive(Debug, Default)]
struct ClientReport {
    latencies: Vec<Duration>,
    queries: u64,
    divergences: u64,
    /// Structured `shard_unavailable` replies tolerated in `--router`
    /// mode (a shard was killed mid-load; the answer was refused, not
    /// shrunk). Never counted as divergences or run-fatal errors.
    shard_unavailable: u64,
    errors: Vec<String>,
}

/// In `--router` mode, a structured `shard_unavailable` reply is an
/// expected mid-failover outcome: count it, skip the oracle compare for
/// that request, keep the connection (the reply was frame-aligned).
fn tolerated_by_router(args: &Args, err: &concealer_client::ClientError) -> bool {
    args.router
        && matches!(
            err,
            concealer_client::ClientError::Server(ref e)
                if e.code == concealer_server::ErrorCode::ShardUnavailable
        )
}

/// Run one client's deterministic request stream, checking wire answers
/// against the oracle system in-process.
fn run_client(
    args: &Args,
    client_idx: usize,
    oracle: Option<&concealer_core::ConcealerSystem>,
    user: &concealer_core::UserHandle,
) -> ClientReport {
    let mut report = ClientReport::default();
    let workload = demo_workload(args.hours);
    let mix = server_request_mix(
        &workload,
        args.seed.wrapping_add(1_000 + client_idx as u64),
        args.requests,
        args.batch_len,
    );
    let mut conn = match connect(args, user, &format!("load-client-{client_idx}")) {
        Ok(conn) => conn,
        Err(e) => {
            report.errors.push(format!("connect: {e}"));
            return report;
        }
    };
    let oracle_session = oracle.map(|system| system.session(user));

    for (request_idx, request) in mix.iter().enumerate() {
        let label = format!("client {client_idx} request {request_idx}");
        if !run_request(
            args,
            &mut conn,
            request,
            oracle_session.as_ref(),
            &mut report,
            &label,
        ) {
            return report;
        }
    }
    if let Err(e) = conn.close() {
        report
            .errors
            .push(format!("client {client_idx} close: {e}"));
    }
    report
}

/// Send one request, time it, and (when checking) compare every answer's
/// wire encoding against local oracle execution. Returns `false` when the
/// connection died and the caller should stop using it.
fn run_request(
    args: &Args,
    conn: &mut Session,
    request: &ServerRequest,
    oracle_session: Option<&concealer_core::Session<'_>>,
    report: &mut ClientReport,
    label: &str,
) -> bool {
    let started = Instant::now();
    let outcome = match request {
        ServerRequest::Query(query, options) => conn
            .execute_with(query, *options)
            .map(|answer| vec![answer]),
        ServerRequest::Batch(queries, options) => conn
            .execute_batch_with(queries, *options)
            .and_then(|results| {
                results
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(concealer_client::ClientError::Server)
            }),
    };
    let elapsed = started.elapsed();
    let answers = match outcome {
        Ok(answers) => answers,
        Err(e) if tolerated_by_router(args, &e) => {
            report.shard_unavailable += 1;
            return true;
        }
        Err(e) => {
            report.errors.push(format!("{label}: {e}"));
            return false;
        }
    };
    report.latencies.push(elapsed);
    report.queries += answers.len() as u64;

    if let Some(session) = oracle_session {
        let expected: Vec<_> = match request {
            ServerRequest::Query(query, options) => {
                vec![session.execute_with(query, *options).expect("oracle query")]
            }
            ServerRequest::Batch(queries, options) => session
                .clone()
                .with_options(*options)
                .execute_batch(queries)
                .into_iter()
                .map(|r| r.expect("oracle batch query"))
                .collect(),
        };
        // A short (or long) reply is itself a divergence — zip below
        // would silently compare only the common prefix.
        if answers.len() != expected.len() {
            report.divergences += 1;
            report.errors.push(format!(
                "{label}: wire returned {} answer(s), oracle expected {}",
                answers.len(),
                expected.len()
            ));
            return true;
        }
        // Bit-identical: compare the wire encodings, not just equality.
        for (got, want) in answers.iter().zip(&expected) {
            if serde::bin::to_bytes(got) != serde::bin::to_bytes(want) {
                report.divergences += 1;
                report.errors.push(format!(
                    "{label}: wire answer {got:?} diverges from oracle {want:?}"
                ));
            }
        }
    }
    true
}

/// Latency percentile in milliseconds over sorted samples.
fn percentile_ms(sorted: &[Duration], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args = parse_args();

    eprintln!(
        "concealer-load: building oracle deployment (hours={}, seed={})",
        args.hours, args.seed
    );
    // The oracle is always built (it owns the credential); --no-check only
    // skips the per-answer comparison.
    let (oracle_system, user, _records) = demo_system(args.hours, args.seed);
    let oracle = args.check.then_some(&oracle_system);

    eprintln!(
        "concealer-load: {} client(s) x {} request(s) (batch-len {}) against {}",
        args.clients, args.requests, args.batch_len, args.addr
    );
    let ingested = AtomicU64::new(0);
    let unavailable_ingests = AtomicU64::new(0);
    let started = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let ingest_handle = (args.ingest_epochs > 0).then(|| {
            let args = &args;
            let user = &user;
            let ingested = &ingested;
            let unavailable_ingests = &unavailable_ingests;
            scope.spawn(move || -> Result<(), String> {
                let mut conn = connect(args, user, "load-ingest")
                    .map_err(|e| format!("ingest connect: {e}"))?;
                for k in 1..=args.ingest_epochs {
                    let epoch_start = k * args.hours * 3600;
                    let records = demo_epoch_records(args.hours, args.seed, epoch_start);
                    match conn.ingest_epoch(epoch_start, &records) {
                        Ok(_) => {
                            ingested.fetch_add(1, Ordering::Relaxed);
                        }
                        // An epoch whose owning shard is down is
                        // refused structurally; the next epoch may
                        // hash to a live shard, so keep going.
                        Err(e) if tolerated_by_router(args, &e) => {
                            unavailable_ingests.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => return Err(format!("ingest epoch {epoch_start}: {e}")),
                    }
                    // Spread the ingests across the query phase.
                    std::thread::sleep(Duration::from_millis(20));
                }
                conn.close().map_err(|e| format!("ingest close: {e}"))
            })
        });
        let handles: Vec<_> = (0..args.clients)
            .map(|client_idx| {
                let args = &args;
                let user = &user;
                scope.spawn(move || run_client(args, client_idx, oracle, user))
            })
            .collect();
        let mut reports: Vec<ClientReport> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        if let Some(handle) = ingest_handle {
            if let Err(e) = handle.join().expect("ingest thread panicked") {
                reports.push(ClientReport {
                    errors: vec![e],
                    ..ClientReport::default()
                });
            }
        }
        reports
    });
    let elapsed = started.elapsed();

    // Ask the server for its own view: serving mode and the concurrent
    // connection high-water mark.
    let probe_result = connect(&args, &user, "load-stats").and_then(|mut conn| {
        let stats = conn.serve_stats()?;
        conn.close()?;
        Ok(stats)
    });
    let (server_mode, max_concurrent) = match probe_result {
        Ok(stats) => (stats.mode, stats.peak_connections),
        Err(e) => {
            eprintln!("concealer-load: serve-stats probe failed: {e}");
            ("unknown".to_string(), 0)
        }
    };
    // In router mode, pull the per-shard forwarding counters for the
    // summary — the routed soak gates on the deployment having actually
    // fanned out (and, after a kill, reconnected).
    let router_shards = if args.router {
        match connect(&args, &user, "load-router-stats").and_then(|mut conn| {
            let stats = conn.router_stats()?;
            conn.close()?;
            Ok(stats)
        }) {
            Ok(stats) => stats.shards,
            Err(e) => {
                eprintln!("concealer-load: router-stats probe failed: {e}");
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };

    let mut latencies: Vec<Duration> = reports.iter().flat_map(|r| r.latencies.clone()).collect();
    latencies.sort_unstable();
    let queries: u64 = reports.iter().map(|r| r.queries).sum();
    let requests: usize = reports.iter().map(|r| r.latencies.len()).sum();
    let divergences: u64 = reports.iter().map(|r| r.divergences).sum();
    let shard_unavailable: u64 = reports.iter().map(|r| r.shard_unavailable).sum::<u64>()
        + unavailable_ingests.load(Ordering::Relaxed);
    let errors: Vec<&String> = reports.iter().flat_map(|r| r.errors.iter()).collect();
    let qps = queries as f64 / elapsed.as_secs_f64().max(1e-9);
    let backend = oracle_system.store().backend_kind();

    let router_shards_json = router_shards
        .iter()
        .map(|s| {
            format!(
                "{{\"shard_index\": {}, \"member\": {}, \"writer\": {}, \"addr\": \"{}\", \
                 \"requests_forwarded\": {}, \"errors\": {}, \"reconnects\": {}, \
                 \"available\": {}}}",
                s.shard_index,
                s.member,
                s.writer,
                s.addr,
                s.requests_forwarded,
                s.errors,
                s.reconnects,
                s.available
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"schema\": \"concealer-server-load/v3\",\n  \"addr\": \"{}\",\n  \"backend\": \"{backend}\",\n  \"mode\": \"{server_mode}\",\n  \"router\": {},\n  \"clients\": {},\n  \"requests_per_client\": {},\n  \"batch_len\": {},\n  \"max_concurrent_connections\": {max_concurrent},\n  \"requests\": {requests},\n  \"queries\": {queries},\n  \"ingest_epochs\": {},\n  \"elapsed_s\": {:.3},\n  \"qps\": {qps:.2},\n  \"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}},\n  \"checked\": {},\n  \"divergences\": {divergences},\n  \"shard_unavailable\": {shard_unavailable},\n  \"router_shards\": [{router_shards_json}],\n  \"client_errors\": {}\n}}\n",
        args.addr,
        args.router,
        args.clients,
        args.requests,
        args.batch_len,
        ingested.load(Ordering::Relaxed),
        elapsed.as_secs_f64(),
        percentile_ms(&latencies, 50.0),
        percentile_ms(&latencies, 95.0),
        percentile_ms(&latencies, 99.0),
        latencies.last().map_or(0.0, |d| d.as_secs_f64() * 1e3),
        args.check,
        errors.len(),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("concealer-load: writing {} failed: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "concealer-load: [{server_mode}] {queries} queries in {:.2}s ({qps:.0} q/s), \
         p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms; \
         server peak {max_concurrent} connection(s); {divergences} divergence(s), {} client error(s), \
         {shard_unavailable} shard-unavailable (tolerated); wrote {}",
        elapsed.as_secs_f64(),
        percentile_ms(&latencies, 50.0),
        percentile_ms(&latencies, 95.0),
        percentile_ms(&latencies, 99.0),
        errors.len(),
        args.out
    );
    for shard in &router_shards {
        eprintln!(
            "concealer-load: shard {} member {} [{}] ({}): {} forwarded, {} error(s), \
             {} reconnect(s), available={}",
            shard.shard_index,
            shard.member,
            if shard.writer { "writer" } else { "replica" },
            shard.addr,
            shard.requests_forwarded,
            shard.errors,
            shard.reconnects,
            shard.available
        );
    }
    for error in &errors {
        eprintln!("concealer-load: error: {error}");
    }

    if args.shutdown {
        eprintln!("concealer-load: requesting graceful server shutdown");
        match connect(&args, &user, "load-shutdown").and_then(|mut conn| conn.shutdown_server()) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("concealer-load: shutdown request failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if divergences > 0 || !errors.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
