//! The `concealer-router` binary's stdout contract: one `READY addr=…
//! shards=… protocol=…` line once it serves, `SHUTDOWN graceful` and exit
//! 0 after a wire shutdown, and exit 1 with no `READY` when the startup
//! probe refuses the shard map. The shards run in-process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use concealer_client::ClientBuilder;
use concealer_core::Query;
use concealer_examples::{demo_system, demo_system_sharded};
use concealer_server::{Server, ServerConfig, ServerHandle, PROTOCOL_VERSION};

const HOURS: u64 = 2;
const SEED: u64 = 4242;
const DEADLINE: Duration = Duration::from_secs(30);

/// The router binary in front of two in-process shards of the demo
/// deployment. The child is killed and reaped on drop, so a failing
/// assertion leaves nothing running.
struct Router {
    child: std::process::Child,
    /// The router's stdout lines.
    out: Receiver<String>,
    shards: Vec<ServerHandle>,
}

impl Router {
    /// Start the shards, then the router with their addresses in `order`.
    fn start(order: [usize; 2]) -> Router {
        let shards: Vec<ServerHandle> = (0..2)
            .map(|index| {
                let (system, _user, _records) = demo_system_sharded(HOURS, SEED, index, 2);
                let config = ServerConfig {
                    shard: Some((index, 2)),
                    ..ServerConfig::default()
                };
                let server = Server::new(Arc::new(system), config);
                server.spawn().expect("bind shard")
            })
            .collect();
        let mut command = Command::new(env!("CARGO_BIN_EXE_concealer-router"));
        for i in order {
            command.args(["--shard-addr", &shards[i].local_addr().to_string()]);
        }
        let mut child = command
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn concealer-router");
        let lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let (tx, out) = mpsc::channel();
        std::thread::spawn(move || lines.map_while(Result::ok).try_for_each(|l| tx.send(l)));
        Router { child, out, shards }
    }

    /// Wait for the router to exit: its exit code and the stdout lines not
    /// read before.
    fn exit(&mut self) -> (Option<i32>, Vec<String>) {
        let deadline = Instant::now() + DEADLINE;
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll router") {
                break status;
            }
            assert!(Instant::now() < deadline, "the router never exited");
            std::thread::sleep(Duration::from_millis(10));
        };
        (status.code(), self.out.iter().collect())
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn the_router_binary_serves_answers_and_drains_on_shutdown() {
    let mut router = Router::start([0, 1]);
    let ready = router.out.recv_timeout(DEADLINE).expect("a READY line");
    let addr = ready.split(' ').find_map(|t| t.strip_prefix("addr="));
    let addr = addr.unwrap_or_else(|| panic!("{ready:?} names no addr"));
    let want = format!("READY addr={addr} shards=2 protocol={PROTOCOL_VERSION}");
    assert_eq!(ready, want);
    let addr: SocketAddr = addr.parse().expect("READY addr");

    let (oracle, user, _records) = demo_system(HOURS, SEED);
    let query = Query::count().at_dims([3]).between(0, HOURS * 3600 - 1);
    let want = oracle.session(&user).execute(&query).expect("oracle");
    let builder = ClientBuilder::new(addr)
        .user(&user)
        .client_name("router-binary");
    let mut conn = builder.connect().expect("connect via the router binary");
    let got = conn.execute(&query).expect("routed query");
    assert_eq!(serde::bin::to_bytes(&got), serde::bin::to_bytes(&want));
    conn.shutdown_server().expect("wire shutdown");

    let (code, rest) = router.exit();
    assert_eq!(code, Some(0));
    let graceful = rest.iter().any(|l| l.starts_with("SHUTDOWN graceful"));
    assert!(graceful, "{rest:?}");
    // The router forwarded the shutdown to both shards.
    for shard in router.shards.drain(..) {
        assert!(shard.join().graceful);
    }
}

#[test]
fn a_misordered_shard_list_exits_1_before_ready() {
    let mut router = Router::start([1, 0]);
    let (code, printed) = router.exit();
    assert_eq!(code, Some(1));
    let ready = printed.iter().any(|l| l.starts_with("READY"));
    assert!(!ready, "{printed:?}");
}
