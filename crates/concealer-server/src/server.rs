//! The multi-client TCP front-end: configuration, the deployment-handler
//! seam, and the thread-per-connection transport with its connection cap,
//! admission control, and graceful drain on shutdown.
//!
//! What a connection *means* — the pre-auth matrix, reserved ids, frame
//! errors, limits, the close and drain rules — is the private `conn`
//! module's state machine. The transport in this file only moves frames
//! and decides where work runs:
//!
//! * One acceptor loop (the serve thread) blocks in `accept()` and spawns
//!   one scoped thread per accepted connection. Connections beyond
//!   [`ServerConfig::max_connections`] are refused eagerly with a
//!   [`ErrorCode::Busy`] error frame.
//! * Each connection thread owns its socket, reads one frame at a time
//!   (through one read buffer, so it reads ahead by at most std's 8 KiB)
//!   and runs the work it leads to inline, so one connection has at most
//!   one request executing — a pipelining client queues further frames in
//!   the socket buffer, which is the per-session in-flight bound.
//! * Across connections, work runs under an admission gate bounding
//!   concurrent handler calls ([`ServerConfig::max_in_flight`]). A
//!   connection waiting on the gate stops reading its socket, so TCP flow
//!   control propagates the backpressure all the way to the client.
//! * Queries run on the shared [`ConcealerSystem`] through ordinary
//!   [`Session`](concealer_core::Session) handles; ingest takes `&self`
//!   and publishes a new epoch snapshot to the store, so epochs land
//!   concurrently with live query traffic.
//!
//! Shutdown (via [`ServerHandle::signal_shutdown`] or a wire
//! `Request::Shutdown`) is graceful: whoever raises the drain flag wakes
//! the acceptor with one loopback connect, the acceptor stops, every
//! connection's read half is shut down so blocked reads wake, in-flight
//! requests still write their replies, and the serve thread joins all
//! connection threads before reporting. A frame already in a connection's
//! read buffer when the drain begins is still taken, and refused with
//! `shutting_down`.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use concealer_core::{
    shard_of_epoch, ConcealerSystem, Credential, ExecOptions, Query, Record, SecureIndex,
    UserHandle, UserId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::frame::{read_frame, write_frame};

use crate::conn::{Done, Machine, Shared, Step};
use crate::error::{ErrorCode, WireError};
use crate::protocol::{
    Response, ShardDescriptor, ShardRole, WirePartialResult, WireQuote, WireResult,
    CONNECTION_LEVEL_ID, DEFAULT_MAX_BATCH, DEFAULT_MAX_FRAME_LEN,
};

/// The name of the serving core. There is one, so this is not a choice:
/// the type, [`ServerConfig::mode`] and
/// [`ServeStats::mode`](crate::protocol::ServeStats::mode) exist only
/// because `benchmark/` spells the core it measures; the next
/// `[benchmark]` PR removes all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// Thread-per-connection: strictly ordered replies, one OS thread per
    /// open connection.
    #[default]
    Threaded,
}

impl ServerMode {
    /// Stable lowercase name (`"threaded"`), as reported in
    /// [`ServeStats::mode`](crate::protocol::ServeStats::mode) and the
    /// binaries' READY lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServerMode::Threaded => "threaded",
        }
    }

    /// Parse [`ServerMode::name`]'s spelling.
    pub fn parse(s: &str) -> Result<ServerMode, String> {
        match s {
            "threaded" => Ok(ServerMode::Threaded),
            other => Err(format!("unknown server mode {other:?} (threaded)")),
        }
    }
}

/// Everything that tunes a [`Server`] deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port `0` picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub bind: SocketAddr,
    /// Name reported in the handshake.
    pub server_name: String,
    /// Maximum concurrently served connections, which is also the most
    /// connection threads alive at once. Further connections receive a
    /// `Busy` error frame.
    pub max_connections: usize,
    /// Maximum queries per `ExecuteBatch` request.
    pub max_batch: usize,
    /// Maximum frame payload size accepted (and advertised).
    pub max_frame_len: usize,
    /// Maximum requests executing concurrently inside the engine; excess
    /// requests wait, which backpressures their connections.
    pub max_in_flight: usize,
    /// Cap applied to client-supplied `ExecOptions::parallelism`.
    pub max_parallelism: usize,
    /// Whether `IngestEpoch` requests are accepted (the simulated data
    /// provider channel; disable on query-only deployments).
    pub allow_ingest: bool,
    /// Seed for the per-ingest RNG: the RNG for epoch `e` is derived as
    /// `ingest_seed ^ mix(e)`, so a server restarted with the same seed
    /// ingests identically (what lets soak oracles predict post-ingest
    /// state).
    pub ingest_seed: u64,
    /// The serving core's name — one value, removed with [`ServerMode`].
    pub mode: ServerMode,
    /// Multi-node serving: `Some((index, total))` makes this process own
    /// the epoch-hash slice `index` of `total` (the
    /// [`concealer_core::shard_of_epoch`] discipline). The slice is
    /// reported via `Request::ShardInfo`, and wire ingest of unowned
    /// epochs is refused so a misrouted ingest can never split an epoch
    /// across processes. `None` (the default) serves every epoch.
    pub shard: Option<(u32, u32)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            server_name: "concealer-server".to_string(),
            max_connections: 16,
            max_batch: DEFAULT_MAX_BATCH,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_in_flight: 8,
            max_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            allow_ingest: true,
            ingest_seed: 0xC0CE_A1E5_0000_0001,
            mode: ServerMode::Threaded,
            shard: None,
        }
    }
}

/// What the serving core asks of the deployment behind it. The connection
/// state machine speaks the wire protocol — framing, the pre-auth matrix,
/// version and limit checks, drain — and hands everything that needs the
/// deployment to a handler:
///
/// * [`EngineHandler`] (what [`Server::new`] installs) answers against a
///   local [`ConcealerSystem`] — the single-process and shard-server
///   deployments;
/// * the `concealer-router` crate's handler answers by fanning out to
///   shard servers and merging their per-epoch partials.
///
/// Every method may block: it is called on the connection's own thread
/// under its admission permit.
pub trait ServeHandler: Send + Sync + 'static {
    /// Authenticate a credential. The machine has already checked the
    /// protocol version and that the connection attested; it fills the
    /// protocol half of `ServerInfo` itself. `Err` is the refusal reply
    /// to send before closing.
    fn handshake(
        &self,
        user_id: u64,
        credential: [u8; 32],
    ) -> Result<(UserHandle, DeploymentFacts), Response>;

    /// Execute one authenticated engine request to completion. The
    /// machine has already rejected reserved ids and over-cap batches.
    fn execute(&self, user: &UserHandle, request: EngineRequest) -> Response;

    /// Answer pre-auth topology discovery (`Request::ShardInfo`).
    fn shard_info(&self, id: u64) -> Response;

    /// Answer the pre-auth attestation challenge (`Request::Attest`):
    /// produce the serving enclave's quote(s) over `nonce`. A router
    /// dials every upstream member for its quote.
    fn attest(&self, id: u64, nonce: [u8; 32]) -> Response;

    /// Answer `Request::RouterStats` (shard servers refuse it).
    fn router_stats(&self, id: u64) -> Response;

    /// A wire `Shutdown` was accepted on behalf of `user`; a router
    /// forwards the shutdown to its upstreams here. Called before the
    /// core acknowledges, and may block briefly.
    fn on_wire_shutdown(&self, user: &UserHandle) {
        let _ = user;
    }
}

/// What a successful [`ServeHandler::handshake`] reports about the
/// deployment — the half of `ServerInfo` the protocol layer cannot know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentFacts {
    /// Storage backend the sealed epochs live on (`"memory"` / `"disk"`).
    pub backend: String,
    /// Whether `IngestEpoch` is accepted.
    pub ingest_allowed: bool,
}

/// An authenticated request that executes against the deployment: the
/// engine-bound variants of [`Request`](crate::protocol::Request), field
/// for field. Connection-level requests never reach a handler, so they
/// have no variant here.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // Fields are documented on the wire variants.
pub enum EngineRequest {
    Execute {
        id: u64,
        query: Query,
        options: Option<ExecOptions>,
    },
    ExecuteBatch {
        id: u64,
        queries: Vec<Query>,
        options: Option<ExecOptions>,
    },
    ExecuteBatchPartial {
        id: u64,
        queries: Vec<Query>,
        options: Option<ExecOptions>,
    },
    IngestEpoch {
        id: u64,
        epoch_start: u64,
        records: Vec<Record>,
    },
    Stats {
        id: u64,
    },
    Promote {
        id: u64,
    },
}

impl EngineRequest {
    /// The request id the reply must echo.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            EngineRequest::Execute { id, .. }
            | EngineRequest::ExecuteBatch { id, .. }
            | EngineRequest::ExecuteBatchPartial { id, .. }
            | EngineRequest::IngestEpoch { id, .. }
            | EngineRequest::Stats { id }
            | EngineRequest::Promote { id } => *id,
        }
    }
}

/// The [`ServeHandler`] answering against a local [`ConcealerSystem`] —
/// what every non-router deployment uses.
#[derive(Debug)]
pub struct EngineHandler {
    system: Arc<ConcealerSystem>,
    config: ServerConfig,
}

impl EngineHandler {
    /// Wrap a local deployment, and stop it keeping the adversary trace:
    /// nothing that serves reads [`ConcealerSystem::observer`], and an
    /// unbounded trace nobody drains is memory proportional to the
    /// requests served. A caller that does read it (a trace check at the
    /// wire entry point) turns recording back on after this returns.
    #[must_use]
    pub fn new(system: Arc<ConcealerSystem>, config: ServerConfig) -> Self {
        system.observer().set_recording(false);
        EngineHandler { system, config }
    }

    /// Apply server policy to client-supplied options.
    fn clamp(&self, options: Option<ExecOptions>) -> ExecOptions {
        let mut options = options.unwrap_or_default();
        options.parallelism = options.parallelism.min(self.config.max_parallelism.max(1));
        options
    }
}

impl ServeHandler for EngineHandler {
    fn handshake(
        &self,
        user_id: u64,
        credential: [u8; 32],
    ) -> Result<(UserHandle, DeploymentFacts), Response> {
        let user_id = UserId(user_id);
        let credential = Credential(credential);
        // The handshake authenticates the credential only; each query's
        // scope is authorized when it runs.
        if let Err(e) = self
            .system
            .engine()
            .enclave()
            .authenticate(user_id, &credential)
        {
            return Err(error_reply(
                CONNECTION_LEVEL_ID,
                ErrorCode::AuthFailed,
                format!("credential rejected: {e}"),
            ));
        }
        Ok((
            UserHandle {
                user_id,
                credential,
            },
            DeploymentFacts {
                backend: self.system.store().backend_kind().to_string(),
                ingest_allowed: self.config.allow_ingest,
            },
        ))
    }

    fn execute(&self, user: &UserHandle, request: EngineRequest) -> Response {
        let (system, config) = (&*self.system, &self.config);
        match request {
            EngineRequest::Execute { id, query, options } => {
                match system
                    .session(user)
                    .execute_with(&query, self.clamp(options))
                {
                    Ok(answer) => Response::Answer { id, answer },
                    Err(e) => Response::Error {
                        id,
                        error: WireError::from(&e),
                    },
                }
            }
            EngineRequest::ExecuteBatch {
                id,
                queries,
                options,
            } => {
                let results: Vec<WireResult> = system
                    .session(user)
                    .with_options(self.clamp(options))
                    .execute_batch(&queries)
                    .into_iter()
                    .map(WireResult::from)
                    .collect();
                Response::BatchAnswer { id, results }
            }
            EngineRequest::ExecuteBatchPartial {
                id,
                queries,
                options,
            } => {
                let results: Vec<WirePartialResult> = system
                    .session(user)
                    .with_options(self.clamp(options))
                    .execute_batch_partials(&queries)
                    .into_iter()
                    .map(WirePartialResult::from)
                    .collect();
                Response::BatchPartialAnswer { id, results }
            }
            EngineRequest::IngestEpoch {
                id,
                epoch_start,
                records,
            } => {
                // The replica check comes first: "you are talking to the wrong
                // member" is more actionable than this server's ingest policy,
                // and it is what the router keys failover on.
                if system.store_read_only() {
                    return error_reply(
                        id,
                        ErrorCode::NotWriter,
                        "this server is a read-only replica; ingest goes to the \
                         shard's writer (or promote this member first)",
                    );
                }
                if !config.allow_ingest {
                    return error_reply(
                        id,
                        ErrorCode::Unauthorized,
                        "this server does not accept wire ingest",
                    );
                }
                // A sharded process only ingests the epochs its slice owns;
                // accepting a misrouted epoch would split ownership and break
                // the disjoint-union merge at the router.
                if let Some((index, total)) = config.shard {
                    let owner = shard_of_epoch(epoch_start, total as usize);
                    if owner != index as usize {
                        return error_reply(
                            id,
                            ErrorCode::InvalidConfig,
                            format!(
                                "shard {index}/{total} does not own epoch {epoch_start} \
                                 (owner is shard {owner})"
                            ),
                        );
                    }
                }
                // Deterministic per-epoch RNG (see `ServerConfig::ingest_seed`).
                let mut rng = StdRng::seed_from_u64(
                    config.ingest_seed ^ epoch_start.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                match system.ingest_epoch(epoch_start, &records, &mut rng) {
                    Ok(stats) => Response::IngestOk {
                        id,
                        epoch_id: epoch_start,
                        rows_stored: (stats.real_rows + stats.fake_rows) as u64,
                    },
                    Err(e) => Response::Error {
                        id,
                        error: WireError::from(&e),
                    },
                }
            }
            EngineRequest::Stats { id } => Response::StatsOk {
                id,
                stats: system.answer_stats().into(),
            },
            EngineRequest::Promote { id } => match system.promote_to_writer() {
                Ok(pass) => {
                    // The member is the writer now; an epoch it could not
                    // register waits for a re-ingest.
                    for (epoch_id, e) in &pass.refused {
                        eprintln!("concealer-server: promotion refused epoch {epoch_id}: {e}");
                    }
                    Response::PromoteOk {
                        id,
                        epochs_registered: pass.registered.len() as u64,
                    }
                }
                Err(e) => Response::Error {
                    id,
                    error: WireError::from(&e),
                },
            },
        }
    }

    /// An unsharded deployment reports itself as the whole map (`0/1`).
    fn shard_info(&self, id: u64) -> Response {
        let (shard_index, shard_total) = self.config.shard.unwrap_or((0, 1));
        let role = if self.system.store_read_only() {
            ShardRole::Replica
        } else {
            ShardRole::Writer
        };
        Response::ShardInfoOk {
            id,
            shard: ShardDescriptor {
                shard_index,
                shard_total,
                epoch_duration: self.system.engine().config().epoch_duration,
                epochs: self.system.engine().registered_epochs(),
                role,
                store_generation: self.system.store().backend().store_generation(),
            },
        }
    }

    /// This process's own enclave quote, as member `0`: the member index
    /// is a replica-set notion only a router knows; it rewrites the tag
    /// when forwarding.
    fn attest(&self, id: u64, nonce: [u8; 32]) -> Response {
        let (shard_index, _total) = self.config.shard.unwrap_or((0, 1));
        let timestamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let quote = self.system.engine().enclave().quote(nonce, timestamp);
        Response::AttestOk {
            id,
            quotes: vec![WireQuote {
                shard_index,
                member: 0,
                measurement: quote.measurement,
                code_version: quote.code_version,
                timestamp: quote.timestamp,
                nonce: quote.nonce,
                signature: quote.signature,
            }],
        }
    }

    /// Per-shard load accounting only exists at a router, so asking a
    /// shard directly is a protocol violation (the connection survives —
    /// the request was well-formed, just aimed at the wrong tier).
    fn router_stats(&self, id: u64) -> Response {
        error_reply(
            id,
            ErrorCode::ProtocolViolation,
            "router_stats is a router endpoint; this is a shard server",
        )
    }
}

pub(crate) fn error_reply(id: u64, code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        id,
        error: WireError::new(code, message),
    }
}

/// Totals the serve loop reports after draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeReport {
    /// Connections accepted and served (not counting busy-rejects).
    pub connections_served: u64,
    /// Requests answered (any reply, including error replies).
    pub requests_served: u64,
    /// Connections refused at the cap.
    pub rejected_busy: u64,
    /// Whether the loop exited via a shutdown signal (as opposed to a
    /// listener error).
    pub graceful: bool,
}

/// A deployment handler plus the serving configuration; [`Server::spawn`]
/// turns it into a running listener.
pub struct Server {
    handler: Arc<dyn ServeHandler>,
    config: ServerConfig,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Wrap a deployment for serving. The system is shared — the caller
    /// may keep using its own [`Session`](concealer_core::Session) handles
    /// (the loopback tests use exactly that as the oracle).
    #[must_use]
    pub fn new(system: Arc<ConcealerSystem>, config: ServerConfig) -> Self {
        let handler = Arc::new(EngineHandler::new(system, config.clone()));
        Server { handler, config }
    }

    /// Serve an arbitrary [`ServeHandler`] — how `concealer-router` reuses
    /// the serving core (frame handling, connection state machine, drain)
    /// with fan-out execution instead of a local engine.
    #[must_use]
    pub fn with_handler(handler: Arc<dyn ServeHandler>, config: ServerConfig) -> Self {
        Server { handler, config }
    }

    /// Bind the configured address and start serving on a background
    /// thread. Returns once the listener is bound, so
    /// [`ServerHandle::local_addr`] is immediately connectable.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(self.config.bind)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(self.config));
        let serving = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("concealer-serve".to_string())
            .spawn(move || serve(&*self.handler, &serving, &listener, local_addr))?;
        Ok(ServerHandle {
            local_addr,
            shared,
            thread,
        })
    }
}

/// A running server: the bound address, the shutdown signal, and the serve
/// thread to join.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<ServeReport>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .field("shutdown", &self.shared.shutdown)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server is listening on (with the ephemeral port
    /// resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Ask the server to shut down gracefully; returns without waiting
    /// for the drain. The acceptor wakes every connection and drains
    /// in-flight requests.
    pub fn signal_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        wake_acceptor(self.local_addr);
    }

    /// Wait for the serve loop to finish and return its report. Panics if
    /// the serve thread panicked.
    pub fn join(self) -> ServeReport {
        self.thread.join().expect("serve thread panicked")
    }

    /// [`ServerHandle::signal_shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) -> ServeReport {
        self.signal_shutdown();
        self.join()
    }
}

/// Counting admission gate: at most `max` holders at a time; `acquire`
/// blocks (backpressure) until a slot frees.
struct Admission {
    max: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl Admission {
    fn new(max: usize) -> Self {
        Admission {
            max: max.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Take a slot, counting the caller in `waiting` while it is blocked.
    fn acquire(&self, waiting: &AtomicU64) -> AdmissionPermit<'_> {
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if *in_flight >= self.max {
            waiting.fetch_add(1, Ordering::Relaxed);
            while *in_flight >= self.max {
                in_flight = self
                    .freed
                    .wait(in_flight)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            waiting.fetch_sub(1, Ordering::Relaxed);
        }
        *in_flight += 1;
        AdmissionPermit { gate: self }
    }
}

struct AdmissionPermit<'a> {
    gate: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut in_flight = self
            .gate
            .in_flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *in_flight -= 1;
        drop(in_flight);
        self.gate.freed.notify_one();
    }
}

/// Read-half handles of live connections, so shutdown can wake blocked
/// reads without tearing down in-flight replies (writes stay open).
#[derive(Default)]
struct ConnRegistry {
    streams: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnRegistry {
    fn register(&self, conn_id: u64, stream: TcpStream) {
        self.streams
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(conn_id, stream);
    }

    fn deregister(&self, conn_id: u64) {
        self.streams
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&conn_id);
    }

    fn wake_all(&self) {
        let streams = self
            .streams
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for stream in streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// State shared between the acceptor and every connection thread.
struct Threaded<'a> {
    handler: &'a dyn ServeHandler,
    shared: &'a Arc<Shared>,
    admission: Admission,
    registry: ConnRegistry,
    /// Where [`wake_acceptor`] reaches this server's listener.
    local_addr: SocketAddr,
}

/// Unblock the acceptor so it sees the drain flag its caller has just
/// raised: one connect to the listener (through loopback when it is bound
/// to an unspecified address), which the acceptor takes and drops. A
/// failed connect needs no handling — the listener is then already gone,
/// or its backlog is full and `accept()` is about to return anyway.
fn wake_acceptor(local_addr: SocketAddr) {
    let mut addr = local_addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// The serve loop: accept until shutdown, then drain.
fn serve(
    handler: &dyn ServeHandler,
    shared: &Arc<Shared>,
    listener: &TcpListener,
    local_addr: SocketAddr,
) -> ServeReport {
    let serving = Threaded {
        handler,
        shared,
        admission: Admission::new(shared.config.max_in_flight),
        registry: ConnRegistry::default(),
        local_addr,
    };

    let mut report = ServeReport::default();
    std::thread::scope(|scope| {
        let mut next_conn_id: u64 = 1;
        loop {
            let accepted = listener.accept();
            // Checked after every return from `accept()`, so whatever came
            // in once the flag is up — the wake-up connect, or a client
            // that lost the race — is dropped uncounted.
            if shared.draining() {
                report.graceful = true;
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if !shared.has_room() {
                        report.rejected_busy += 1;
                        refuse_busy(stream);
                        continue;
                    }
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    if let Ok(read_half) = stream.try_clone() {
                        serving.registry.register(conn_id, read_half);
                    }
                    shared.connection_opened();
                    let serving = &serving;
                    let spawned = std::thread::Builder::new()
                        .name(format!("conn-{conn_id}"))
                        .spawn_scoped(scope, move || {
                            handle_connection(serving, stream);
                            serving.registry.deregister(conn_id);
                            serving.shared.connection_closed();
                        });
                    if spawned.is_err() {
                        // No thread to serve it: the closure (and with it
                        // the socket) is already dropped, which closes the
                        // connection; undo its bookkeeping and keep
                        // accepting.
                        serving.registry.deregister(conn_id);
                        shared.connection_closed();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        // Wake every blocked read so connection threads can drain; their
        // in-flight replies still go out on the intact write halves.
        serving.registry.wake_all();
    });
    report.connections_served = shared.counters.connections_served.load(Ordering::Relaxed);
    report.requests_served = shared.counters.requests_served.load(Ordering::Relaxed);
    report
}

/// Refuse a connection over the cap with a structured `Busy` error frame.
///
/// The client has typically already written its `Hello`; closing the
/// socket with those bytes unread can emit an RST that discards the Busy
/// frame from the client's receive queue. So after writing the frame,
/// signal end-of-stream (write-half shutdown) and briefly drain the
/// client's pending bytes until it closes, so the reply is reliably
/// delivered before the socket goes away.
fn refuse_busy(mut stream: TcpStream) {
    use std::io::Read as _;
    let busy = error_reply(
        CONNECTION_LEVEL_ID,
        ErrorCode::Busy,
        "connection cap reached; retry later",
    );
    let _ = write_frame(&mut stream, &busy);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scratch = [0u8; 512];
    while matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
}

/// Serve one connection until its machine closes it. Work runs inline
/// under the admission gate, so every frame is driven to its reply before
/// the next one is read; a drain reaches a parked read as end-of-stream.
/// Frames are read through one buffer for the connection's life (a frame
/// that arrived whole costs one `read`) and replies are written straight
/// to the socket, one `write` each.
fn handle_connection(serving: &Threaded<'_>, stream: TcpStream) {
    let shared = serving.shared;
    let mut machine = Machine::new(Arc::clone(shared));
    let mut reader = BufReader::new(&stream);
    loop {
        let mut step = machine.on_frame(read_frame(&mut reader, shared.config.max_frame_len));
        loop {
            match step {
                Step::Work(work) => {
                    let permit = serving.admission.acquire(&shared.counters.backlog);
                    let done = work.run(serving.handler);
                    drop(permit);
                    let raises_drain = matches!(done, Done::Shutdown { .. });
                    step = machine.on_done(done);
                    if raises_drain {
                        wake_acceptor(serving.local_addr);
                    }
                }
                Step::Reply(reply) => {
                    if write_frame(&mut &stream, &reply).is_err() {
                        return;
                    }
                    break;
                }
                Step::Close(replies) => {
                    for reply in &replies {
                        if write_frame(&mut &stream, reply).is_err() {
                            break;
                        }
                    }
                    return;
                }
            }
        }
    }
}
