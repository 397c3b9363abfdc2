//! The soak: real `concealer-server` processes under concurrent clients,
//! every answer's `serde::bin` bytes checked against an in-process oracle,
//! each fault placed by count rather than by the clock. The fault fires
//! once every client has had `K` answers checked; each client then sends
//! exactly `K` more requests. One follow-up epoch is ingested just before
//! the fault and one just after it, while every client is still sending.
//! The legs: memory and disk with no fault; an online key rotation; three
//! shards behind the in-process router, one SIGKILLed; a writer and a
//! replica of one shard, the writer SIGKILLed. `shard_unavailable` is
//! tolerated in routed legs only, and every survivor must drain
//! gracefully. Clocks only bound waits; a deadline that passes fails the
//! leg and names what it waited for.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use concealer_bench::{server_request_mix, ServerRequest};
use concealer_client::{ClientBuilder, ClientError, Session};
use concealer_core::{ConcealerSystem, UserHandle};
use concealer_examples::{demo_epoch_records, demo_system, demo_workload};
use concealer_router::{RouterConfig, RouterHandler};
use concealer_server::protocol::RouterStats;
use concealer_server::{ErrorCode, Server, ServerConfig};

const HOURS: u64 = 2;
const SEED: u64 = 42;
const CLIENTS: usize = 4;
/// Answers every client has checked before the fault fires, and requests
/// every client sends after it.
const K: usize = 12;
/// Length of one client's request stream; a client cycles through it.
const MIX_LEN: usize = 36;
const BATCH_LEN: usize = 8;
/// The longest the harness waits for a line, an exit or a milestone.
const DEADLINE: Duration = Duration::from_secs(30);
/// `Report` indices: whether the fault had fired when a request was sent.
const BEFORE: usize = 0;
const AFTER: usize = 1;

/// One `concealer-server` child. Dropping it kills and reaps the process,
/// so a failed assertion leaves nothing running; a panicking test also
/// prints the child's stderr.
struct Child {
    name: String,
    process: std::process::Child,
    stdout: Receiver<String>,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Child {
    /// Start the server binary with `args`. Its backend is what the
    /// arguments say; nothing is inherited from the test's environment.
    fn server(name: &str, args: &[&str]) -> Child {
        let mut process = Command::new(env!("CARGO_BIN_EXE_concealer-server"))
            .args(["--hours", &HOURS.to_string(), "--seed", &SEED.to_string()])
            .args(args)
            .env_remove("CONCEALER_TEST_BACKEND")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("{name}: spawn failed: {e}"));
        let (tx, stdout) = mpsc::channel();
        let lines = BufReader::new(process.stdout.take().expect("piped stdout")).lines();
        std::thread::spawn(move || lines.map_while(Result::ok).try_for_each(|l| tx.send(l)));
        let err = process.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || std::io::read_to_string(err).unwrap_or_default());
        Child {
            name: name.to_string(),
            process,
            stdout,
            stderr: Some(stderr),
        }
    }

    /// The next stdout line starting with `prefix`, skipping others.
    fn line(&mut self, prefix: &str) -> String {
        let deadline = Instant::now() + DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.stdout.recv_timeout(left) {
                Ok(line) if line.starts_with(prefix) => return line,
                Ok(_) => {}
                Err(e) => panic!("{}: no {prefix:?} line ({e})", self.name),
            }
        }
    }

    /// Wait for `READY`, check it carries every `want` token, and return
    /// the address it names.
    fn ready(&mut self, want: &[&str]) -> SocketAddr {
        let line = self.line("READY ");
        for token in want {
            assert!(line.contains(token), "{line:?} lacks {token}");
        }
        field(&line, "addr=").parse().expect("READY addr")
    }

    /// After a wire shutdown: require exit 0 and a `SHUTDOWN graceful`
    /// line. Returns the stdout lines not read before.
    fn drained(mut self) -> Vec<String> {
        let deadline = Instant::now() + DEADLINE;
        let status = loop {
            if let Some(status) = self.process.try_wait().expect("poll child") {
                break status;
            }
            assert!(Instant::now() < deadline, "{}: never exited", self.name);
            std::thread::sleep(Duration::from_millis(10));
        };
        let lines: Vec<String> = self.stdout.iter().collect();
        assert!(status.success(), "{}: exited with {status}", self.name);
        let graceful = lines.iter().any(|l| l.starts_with("SHUTDOWN graceful"));
        assert!(graceful, "{}: no graceful shutdown in {lines:?}", self.name);
        lines
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
        let stderr = self.stderr.take().map(|h| h.join().unwrap_or_default());
        if std::thread::panicking() {
            let stderr = stderr.unwrap_or_default();
            eprintln!("--- {} stderr ---\n{stderr}", self.name);
        }
    }
}

/// The value of the `key…` token of a stdout line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let value = line.split(' ').find_map(|t| t.strip_prefix(key));
    value.unwrap_or_else(|| panic!("{line:?} lacks {key}"))
}

/// A store root under the system temp dir, removed on drop.
struct TempRoot(String);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        let dir = format!("concealer-soak-{tag}-{}", std::process::id());
        let root = std::env::temp_dir().join(dir).display().to_string();
        let _ = std::fs::remove_dir_all(&root);
        TempRoot(root)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the harness and its clients share.
#[derive(Default)]
struct Progress {
    /// Per client: answers checked so far.
    checked: Vec<usize>,
    fired: bool,
    /// Clients that have stopped sending, for whatever reason.
    stopped: usize,
}

#[derive(Default)]
struct Load {
    progress: Mutex<Progress>,
    changed: Condvar,
}

impl Load {
    fn update(&self, f: impl FnOnce(&mut Progress)) {
        f(&mut self.progress.lock().unwrap());
        self.changed.notify_all();
    }

    /// Wait until every client has `K` checked answers; false if a client
    /// stopped first or the deadline passed.
    fn reached_k(&self) -> bool {
        let progress = self.progress.lock().unwrap();
        let waiting = |p: &mut Progress| p.stopped == 0 && p.checked.iter().any(|&n| n < K);
        let waited = self.changed.wait_timeout_while(progress, DEADLINE, waiting);
        waited.unwrap().0.checked.iter().all(|&n| n >= K)
    }
}

/// Runs its closure when dropped, on every way out of a scope, a panic
/// included.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// One client's outcome, split at the fault.
#[derive(Debug, Default)]
struct Report {
    checked: [usize; 2],
    unavailable: [usize; 2],
    failures: Vec<String>,
}

fn is_unavailable(e: &ClientError) -> bool {
    matches!(e, ClientError::Server(w) if w.code == ErrorCode::ShardUnavailable)
}

/// The oracle deployment and the demo user whose credential the servers
/// derive from the same `(HOURS, SEED)`.
struct Soak {
    oracle: ConcealerSystem,
    user: UserHandle,
}

impl Soak {
    fn new() -> Soak {
        let (oracle, user, _records) = demo_system(HOURS, SEED);
        Soak { oracle, user }
    }

    fn connect(&self, addr: SocketAddr, name: &str) -> Session {
        let builder = ClientBuilder::new(addr).user(&self.user).client_name(name);
        builder.connect().unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// Run the load against `addr`, calling `fault` once every client has
    /// `K` checked answers. `routed` tolerates `shard_unavailable`.
    fn run(&self, addr: SocketAddr, routed: bool, fault: impl FnOnce()) -> Vec<Report> {
        let load = Load::default();
        load.update(|p| p.checked = vec![0; CLIENTS]);
        let reports: Vec<Report> = std::thread::scope(|scope| {
            let load = &load;
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || self.client(load, c, addr, routed)))
                .collect();
            {
                // However this block ends, the clients are told to finish.
                let _fire = OnDrop(|| load.update(|p| p.fired = true));
                if load.reached_k() {
                    self.ingest(addr, 1, routed);
                    fault();
                    self.ingest(addr, 2, routed);
                }
            }
            clients.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (c, report) in reports.iter().enumerate() {
            assert!(report.failures.is_empty(), "client {c}: {report:?}");
            assert!(report.checked[BEFORE] >= K, "client {c}: {report:?}");
            let after = report.checked[AFTER] + report.unavailable[AFTER];
            assert_eq!(after, K, "client {c}: {report:?}");
        }
        reports
    }

    /// One client: send the request stream until `K` requests have gone
    /// out after the fault, checking every answer against the oracle.
    fn client(&self, load: &Load, c: usize, addr: SocketAddr, routed: bool) -> Report {
        let _stopped = OnDrop(|| load.update(|p| p.stopped += 1));
        let mut report = Report::default();
        let seed = SEED + 1_000 + c as u64;
        let mix = server_request_mix(&demo_workload(HOURS), seed, MIX_LEN, BATCH_LEN);
        let oracle = self.oracle.session(&self.user);
        let mut conn = self.connect(addr, &format!("soak-client-{c}"));
        let mut sent_after = 0;
        for (n, request) in mix.iter().cycle().enumerate() {
            let fired = load.progress.lock().unwrap().fired;
            if fired && sent_after == K {
                break;
            }
            sent_after += usize::from(fired);
            let side = if fired { AFTER } else { BEFORE };
            match send(&mut conn, request) {
                Ok(got) if got == expected(&oracle, request) => {
                    report.checked[side] += 1;
                    load.update(|p| p.checked[c] += 1);
                }
                Err(e) if routed && is_unavailable(&e) => report.unavailable[side] += 1,
                Ok(_) => {
                    report.failures.push(format!("request {n} diverges"));
                    break;
                }
                Err(e) => {
                    report.failures.push(format!("request {n}: {e}"));
                    break;
                }
            }
        }
        if let Err(e) = conn.close() {
            report.failures.push(format!("close: {e}"));
        }
        report
    }

    /// Ingest follow-up epoch `k` over the wire. A routed deployment may
    /// refuse it structurally when the epoch's owner is dead.
    fn ingest(&self, addr: SocketAddr, k: u64, routed: bool) {
        let epoch = k * HOURS * 3600;
        let records = demo_epoch_records(HOURS, SEED, epoch);
        let ingested = self
            .connect(addr, "soak-ingest")
            .ingest_epoch(epoch, &records);
        if let Err(e) = ingested {
            assert!(routed && is_unavailable(&e), "ingest of epoch {epoch}: {e}");
        }
    }

    fn router_stats(&self, addr: SocketAddr) -> RouterStats {
        let mut conn = self.connect(addr, "soak-stats");
        conn.router_stats().expect("router stats")
    }

    fn shutdown(&self, addr: SocketAddr) {
        let mut conn = self.connect(addr, "soak-shutdown");
        conn.shutdown_server().expect("wire shutdown");
    }
}

/// Send one request; its answers as `serde::bin` bytes.
fn send(conn: &mut Session, request: &ServerRequest) -> Result<Vec<Vec<u8>>, ClientError> {
    let answers = match request {
        ServerRequest::Query(query, options) => vec![conn.execute_with(query, *options)?],
        ServerRequest::Batch(queries, options) => conn
            .execute_batch_with(queries, *options)?
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(ClientError::Server)?,
    };
    Ok(answers.iter().map(serde::bin::to_bytes).collect())
}

fn expected(oracle: &concealer_core::Session<'_>, request: &ServerRequest) -> Vec<Vec<u8>> {
    let answers = match request {
        ServerRequest::Query(query, options) => vec![oracle.execute_with(query, *options)],
        ServerRequest::Batch(queries, options) => {
            oracle.clone().with_options(*options).execute_batch(queries)
        }
    };
    let answers = answers.into_iter().map(|a| a.expect("oracle answer"));
    answers.map(|a| serde::bin::to_bytes(&a)).collect()
}

/// Run the load through an in-process router over `shards` (one entry
/// per shard, comma-joined members), SIGKILL `victim` as the fault and
/// drain the router and the `survivors`. `before_kill` sees the router's
/// counters just before the kill. Returns the reports and the counters
/// after the load, where every member must have been used.
fn routed(
    soak: &Soak,
    shards: Vec<String>,
    victim: Child,
    survivors: Vec<Child>,
    before_kill: impl FnOnce(RouterStats),
) -> (Vec<Report>, RouterStats) {
    let config = RouterConfig {
        shards,
        ..RouterConfig::default()
    };
    let handler = RouterHandler::probe(config).expect("probe the shard map");
    let router = Server::with_handler(Arc::new(handler), ServerConfig::default())
        .spawn()
        .expect("bind router");
    let addr = router.local_addr();
    let reports = soak.run(addr, true, || {
        before_kill(soak.router_stats(addr));
        drop(victim); // SIGKILLs and reaps it
    });
    let stats = soak.router_stats(addr);
    for load in &stats.shards {
        assert!(load.requests_forwarded >= 1, "member never used: {load:?}");
    }
    soak.shutdown(addr);
    assert!(router.join().graceful, "router drained non-gracefully");
    for member in survivors {
        member.drained();
    }
    (reports, stats)
}

#[test]
fn memory_leg_answers_every_request_like_the_oracle() {
    let soak = Soak::new();
    let mut server = Child::server("server", &[]);
    let addr = server.ready(&["backend=memory"]);
    soak.run(addr, false, || ());
    soak.shutdown(addr);
    server.drained();
}

#[test]
fn disk_leg_answers_every_request_like_the_oracle() {
    let soak = Soak::new();
    let root = TempRoot::new("disk");
    let mut server = Child::server("server", &["--store", &root.0]);
    let addr = server.ready(&["backend=disk", "role=writer"]);
    soak.run(addr, false, || ());
    soak.shutdown(addr);
    server.drained();
}

/// An online master-key rotation under live queries: clients keep sending
/// until the `ROTATION` line has been read, then `K` more each. The line
/// must not be out before every client has `K` checked answers.
#[test]
fn rotation_leg_rewraps_the_vault_under_live_queries() {
    let soak = Soak::new();
    let root = TempRoot::new("rotation");
    // Far longer than the clients take to reach `K` checked answers.
    let args = ["--store", &root.0, "--rotate-after-ms", "2000"];
    let mut server = Child::server("server", &args);
    let addr = server.ready(&["backend=disk"]);
    let mut rotation = String::new();
    soak.run(addr, false, || {
        let early = server.stdout.try_iter().any(|l| l.starts_with("ROTATION"));
        assert!(!early, "rotated before every client had K answers");
        rotation = server.line("ROTATION ");
    });
    for key in ["generation=", "epochs="] {
        let count: u64 = field(&rotation, key).parse().expect("a count");
        assert!(count >= 1, "{rotation}");
    }
    soak.shutdown(addr);
    server.drained();
}

/// Three epoch shards behind the router, the last SIGKILLed. Every query
/// fans out to every shard, so after the kill every request is refused
/// as `shard_unavailable`, never answered short.
#[test]
fn sharded_leg_refuses_structurally_after_a_shard_dies() {
    let soak = Soak::new();
    let mut members = Vec::new();
    let mut shards = Vec::new();
    for i in 0..3 {
        let mut member = Child::server(&format!("shard {i}"), &["--shard", &format!("{i}/3")]);
        shards.push(member.ready(&[&format!("shard={i}/3")]).to_string());
        members.push(member);
    }
    let victim = members.pop().expect("shard 2");
    let (reports, stats) = routed(&soak, shards, victim, members, |_| ());
    let refused: usize = reports.iter().map(|r| r.unavailable[AFTER]).sum();
    assert!(refused >= 1, "no request met the dead shard: {reports:?}");
    assert!(stats.shards[2].errors >= 1, "{stats:?}");
}

/// A writer and a read replica of one shard on a shared store, the writer
/// SIGKILLed. Reads fail over to the replica, so answers are checked on
/// both sides of the kill; the ingest after it promotes the replica.
#[test]
fn replicated_leg_fails_over_when_the_writer_dies() {
    let soak = Soak::new();
    let root = TempRoot::new("replicated");
    let store = &root.0;
    // The replica starts after the writer has committed epoch 0.
    let mut writer = Child::server("writer", &["--store", store]);
    let writer_addr = writer.ready(&["role=writer"]);
    let args = ["--store", store, "--replica", "--refresh-ms", "100"];
    let mut replica = Child::server("replica", &args);
    let replica_addr = replica.ready(&["role=replica"]);
    let shards = vec![format!("{writer_addr},{replica_addr}")];
    let (reports, stats) = routed(&soak, shards, writer, vec![replica], |before| {
        let writers: Vec<bool> = before.shards.iter().map(|m| m.writer).collect();
        assert_eq!(writers, [true, false], "before the kill: {before:?}");
    });
    let answered = reports.iter().all(|r| r.checked[AFTER] >= 1);
    assert!(
        answered,
        "a client had no answer after the kill: {reports:?}"
    );
    assert!(stats.shards[0].errors >= 1, "{stats:?}");
}

/// A wire `Shutdown` long before `--rotate-after-ms` runs out drains the
/// server promptly, and no rotation follows it.
#[test]
fn a_pending_rotation_does_not_outlive_shutdown() {
    let soak = Soak::new();
    let mut server = Child::server("server", &["--rotate-after-ms", "60000"]);
    let addr = server.ready(&[]);
    let started = Instant::now();
    soak.shutdown(addr);
    let lines = server.drained();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "{elapsed:?}");
    let rotated = lines.iter().any(|l| l.starts_with("ROTATION"));
    assert!(!rotated, "rotated after shutdown: {lines:?}");
}
