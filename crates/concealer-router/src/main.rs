//! The `concealer-router` binary: probe a set of epoch-sharded
//! `concealer-server` processes, validate the shard map, and serve the
//! same wire protocol in front of them until a graceful shutdown.
//!
//! ```text
//! concealer-router --shard-addr HOST:PORT [--shard-addr HOST:PORT ...]
//!                  [--port N] [--max-connections N] [--max-in-flight N]
//! ```
//!
//! Flags accept both `--flag value` and `--flag=value` (parsing shared
//! with the other binaries via `concealer-cli`).
//!
//! `--shard-addr` must be given **in shard order**: the i-th entry
//! names the server(s) started with `--shard i/N`. An entry may be a
//! comma-separated replica-set member list
//! (`writer:port,replica:port`); member roles are discovered from each
//! member's `ShardInfo` at probe time. The startup probe refuses to
//! serve on any shard-map disagreement (wrong total, wrong position,
//! diverging epoch durations, a set without exactly one writer) — exit
//! code 1 with a diagnostic naming every disagreeing member, before the
//! listener binds.
//!
//! Each client connection holds one OS thread, at most
//! `--max-connections` of them; a request's upstream fan-out blocks that
//! thread, and `--max-in-flight` bounds how many fan-outs run at once.
//!
//! Prints one `READY addr=… shards=… protocol=…` line on stdout
//! once the listener is bound, and a `SHUTDOWN graceful …` line when a
//! wire shutdown drained cleanly; `tests/binary.rs` holds the binary to
//! that contract. See `OPERATIONS.md` § "Routed deployment" for the full
//! recipe.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use concealer_router::{RouterConfig, RouterHandler};
use concealer_server::{Server, ServerConfig, PROTOCOL_VERSION};

const USAGE: &str = "concealer-router --shard-addr HOST:PORT [--shard-addr HOST:PORT ...] \
                     [--port N] [--max-connections N] [--max-in-flight N]";

struct Args {
    port: u16,
    shards: Vec<String>,
    max_connections: usize,
    max_in_flight: usize,
}

fn parse_args() -> Args {
    let mut cli = concealer_cli::Args::new("concealer-router", USAGE);
    let mut args = Args {
        port: 0,
        shards: Vec::new(),
        max_connections: 64,
        max_in_flight: 8,
    };
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--port" => args.port = cli.parse("--port"),
            "--shard-addr" => args.shards.push(cli.value("--shard-addr")),
            "--max-connections" => args.max_connections = cli.parse("--max-connections"),
            "--max-in-flight" => args.max_in_flight = cli.parse("--max-in-flight"),
            "--help" | "-h" => cli.help(),
            other => cli.unknown(other),
        }
    }
    if args.shards.is_empty() {
        cli.fail("at least one --shard-addr is required");
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    let shard_count = args.shards.len();
    eprintln!("concealer-router: probing {shard_count} shard(s)");
    let router_config = RouterConfig {
        shards: args.shards,
        ..RouterConfig::default()
    };
    let handler = match RouterHandler::probe(router_config) {
        Ok(handler) => handler,
        Err(e) => {
            eprintln!("concealer-router: startup probe failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let config = ServerConfig {
        bind: SocketAddr::from(([127, 0, 0, 1], args.port)),
        server_name: "concealer-router".to_string(),
        max_connections: args.max_connections,
        max_in_flight: args.max_in_flight,
        ..ServerConfig::default()
    };
    let handle = match Server::with_handler(Arc::new(handler), config).spawn() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("concealer-router: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Same machine-readable READY contract as concealer-server: one line,
    // stdout, flushed before serving.
    println!(
        "READY addr={} shards={shard_count} protocol={PROTOCOL_VERSION}",
        handle.local_addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let report = handle.join();
    if report.graceful {
        println!(
            "SHUTDOWN graceful connections={} requests={} busy_rejected={}",
            report.connections_served, report.requests_served, report.rejected_busy
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("concealer-router: listener failed; exiting non-gracefully");
        ExitCode::FAILURE
    }
}
