//! The `concealer-server` binary: build the deterministic demo deployment
//! and serve it over TCP until a graceful shutdown.
//!
//! ```text
//! concealer-server [--port N] [--hours H] [--seed S] [--max-connections N]
//!                  [--max-in-flight N] [--no-ingest]
//!                  [--shard INDEX/TOTAL] [--store PATH [--replica] [--refresh-ms N]]
//!                  [--rotate-after-ms N]
//! ```
//!
//! Flags accept both `--flag value` and `--flag=value` (parsing shared
//! with the other binaries via `concealer-cli`).
//!
//! The deployment is `concealer_examples::demo_system(hours, seed)` —
//! fully determined by `(hours, seed)`, including the master key, so a
//! load generator given the same pair derives the same user credential
//! and the same oracle answers. The storage backend honors the
//! `CONCEALER_TEST_BACKEND` harness hook (`memory` default, `disk` for
//! a scratch durable store).
//!
//! `--store PATH` places the sealed epochs in a durable store rooted at
//! `PATH` instead; with `--replica` the process joins `PATH`'s replica set
//! read-only, absorbing the writer's committed epochs every `--refresh-ms`
//! (default 200) until promoted over the wire.
//!
//! `--rotate-after-ms N` rotates the master-key generation online N
//! milliseconds after the listener binds, printing one
//! `ROTATION generation=… epochs=…` line on stdout when the re-wrap
//! completes; a shutdown before then cancels it. The soak test uses it to
//! rotate under live query load (`OPERATIONS.md` § "Master-key rotation").
//!
//! Prints exactly one `READY addr=… backend=… protocol=…` line on stdout
//! once the listener is bound (what the soak waits for), and a
//! `SHUTDOWN graceful …` line when a wire shutdown drained cleanly.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use concealer_server::{Server, ServerConfig, PROTOCOL_VERSION};

const USAGE: &str = "concealer-server [--port N] [--hours H] [--seed S] \
                     [--max-connections N] [--max-in-flight N] [--no-ingest] \
                     [--shard INDEX/TOTAL] [--store PATH [--replica] [--refresh-ms N]] \
                     [--rotate-after-ms N]";

struct Args {
    port: u16,
    hours: u64,
    seed: u64,
    max_connections: usize,
    max_in_flight: usize,
    allow_ingest: bool,
    shard: Option<(u32, u32)>,
    store: Option<std::path::PathBuf>,
    replica: bool,
    refresh_ms: u64,
    rotate_after_ms: Option<u64>,
}

/// Parse `--shard i/t` (e.g. `1/4`): this process owns epoch-hash slice
/// `i` of `t`.
fn parse_shard(s: &str) -> Result<(u32, u32), String> {
    let (index, total) = s
        .split_once('/')
        .ok_or_else(|| format!("invalid shard spec {s:?} (expected INDEX/TOTAL, e.g. 0/2)"))?;
    let index: u32 = index
        .parse()
        .map_err(|_| format!("invalid shard index {index:?}"))?;
    let total: u32 = total
        .parse()
        .map_err(|_| format!("invalid shard total {total:?}"))?;
    if total == 0 || index >= total {
        return Err(format!(
            "shard index {index} out of range for total {total}"
        ));
    }
    Ok((index, total))
}

fn parse_args() -> Args {
    let mut cli = concealer_cli::Args::new("concealer-server", USAGE);
    let mut args = Args {
        port: 0,
        hours: 2,
        seed: 42,
        max_connections: 16,
        max_in_flight: 8,
        allow_ingest: true,
        shard: None,
        store: None,
        replica: false,
        refresh_ms: 200,
        rotate_after_ms: None,
    };
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--port" => args.port = cli.parse("--port"),
            "--hours" => args.hours = cli.parse("--hours"),
            "--seed" => args.seed = cli.parse("--seed"),
            "--max-connections" => args.max_connections = cli.parse("--max-connections"),
            "--max-in-flight" => args.max_in_flight = cli.parse("--max-in-flight"),
            "--no-ingest" => args.allow_ingest = false,
            "--shard" => args.shard = Some(cli.parse_with("--shard", parse_shard)),
            "--store" => args.store = Some(std::path::PathBuf::from(cli.value("--store"))),
            "--replica" => args.replica = true,
            "--refresh-ms" => args.refresh_ms = cli.parse("--refresh-ms"),
            "--rotate-after-ms" => args.rotate_after_ms = Some(cli.parse("--rotate-after-ms")),
            "--help" | "-h" => cli.help(),
            other => cli.unknown(other),
        }
    }
    if args.hours == 0 {
        cli.fail("--hours must be at least 1");
    }
    if args.replica && args.store.is_none() {
        cli.fail("--replica requires --store PATH (the writer's store root)");
    }
    if args.refresh_ms == 0 {
        cli.fail("--refresh-ms must be at least 1");
    }
    args
}

/// Wait up to `timeout` on `stop`; true once `main` has dropped its sender
/// because the server drained.
fn drained_within(stop: &Receiver<()>, timeout: Duration) -> bool {
    stop.recv_timeout(timeout) != Err(RecvTimeoutError::Timeout)
}

fn main() -> ExitCode {
    let args = parse_args();

    eprintln!(
        "concealer-server: building demo deployment (hours={}, seed={})",
        args.hours, args.seed
    );
    let (system, user, records) = match (&args.store, args.shard) {
        (Some(root), shard) => concealer_examples::demo_system_replica(
            args.hours,
            args.seed,
            shard,
            root,
            !args.replica,
        ),
        (None, Some((index, total))) => {
            concealer_examples::demo_system_sharded(args.hours, args.seed, index, total)
        }
        (None, None) => concealer_examples::demo_system(args.hours, args.seed),
    };
    let backend = system.store().backend_kind();
    eprintln!(
        "concealer-server: {} rows ingested, backend={backend}, serving user {}",
        records.len(),
        user.user_id.0
    );
    for (epoch_id, e) in system.refused_at_open() {
        eprintln!("concealer-server: replica refused epoch {epoch_id}: {e}");
    }

    let config = ServerConfig {
        bind: SocketAddr::from(([127, 0, 0, 1], args.port)),
        max_connections: args.max_connections,
        max_in_flight: args.max_in_flight,
        allow_ingest: args.allow_ingest,
        shard: args.shard,
        ..ServerConfig::default()
    };
    let system = Arc::new(system);
    let handle = match Server::new(Arc::clone(&system), config).spawn() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("concealer-server: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The background threads wait on these instead of sleeping, so neither
    // outlives the shutdown.
    let (refresh_stop, refresh_wait) = mpsc::channel::<()>();
    let (rotate_stop, rotate_wait) = mpsc::channel::<()>();

    // A replica's refresh loop: absorb the writer's newly committed epochs
    // every tick. Runs until shutdown; after a wire promotion each tick is
    // a cheap no-op (the store is no longer read-only).
    let refresh_thread = args.replica.then(|| {
        let system = Arc::clone(&system);
        let tick = Duration::from_millis(args.refresh_ms);
        std::thread::spawn(move || loop {
            match system.refresh_epochs() {
                Ok(pass) => {
                    if !pass.registered.is_empty() {
                        let absorbed = &pass.registered;
                        eprintln!("concealer-server: replica absorbed epochs {absorbed:?}");
                    }
                    for (epoch_id, e) in &pass.refused {
                        eprintln!("concealer-server: replica refused epoch {epoch_id}: {e}");
                    }
                }
                Err(e) => eprintln!("concealer-server: replica refresh failed: {e}"),
            }
            if drained_within(&refresh_wait, tick) {
                break;
            }
        })
    });

    // The online-rotation hook: bump the master-key generation mid-serve,
    // while queries keep flowing. A shutdown before the delay cancels it.
    // The ROTATION line is the machine-readable signal the soak reads.
    let rotate_thread = args.rotate_after_ms.map(|ms| {
        let system = Arc::clone(&system);
        std::thread::spawn(move || {
            if drained_within(&rotate_wait, Duration::from_millis(ms)) {
                return;
            }
            match system.rotate_master_generation() {
                Ok((generation, epochs)) => {
                    println!("ROTATION generation={generation} epochs={epochs}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
                Err(e) => eprintln!("concealer-server: online key rotation failed: {e}"),
            }
        })
    });

    // The READY line is the machine-readable contract with the soak test
    // and any other launcher: one line, stdout, flushed before serving.
    let shard_suffix = args
        .shard
        .map(|(i, t)| format!(" shard={i}/{t}"))
        .unwrap_or_default();
    let role_suffix = match (&args.store, args.replica) {
        (None, _) => String::new(),
        (Some(_), false) => " role=writer".to_string(),
        (Some(_), true) => " role=replica".to_string(),
    };
    println!(
        "READY addr={} backend={backend} protocol={PROTOCOL_VERSION}{shard_suffix}{role_suffix}",
        handle.local_addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let report = handle.join();
    drop((refresh_stop, rotate_stop));
    if let Some(thread) = refresh_thread {
        let _ = thread.join();
    }
    if let Some(thread) = rotate_thread {
        let _ = thread.join();
    }
    if report.graceful {
        println!(
            "SHUTDOWN graceful connections={} requests={} busy_rejected={}",
            report.connections_served, report.requests_served, report.rejected_busy
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("concealer-server: listener failed; exiting non-gracefully");
        ExitCode::FAILURE
    }
}
