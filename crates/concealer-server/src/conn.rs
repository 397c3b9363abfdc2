//! The connection protocol, stated once: a sans-I/O state machine the
//! transport drives. Frames go in, [`Step`]s come out; the machine never
//! touches a socket, a thread or a clock, so every transition can be
//! enumerated in a unit test.
//!
//! ```text
//!  unattested ──Attest ok──▶ attested ──Hello ok──▶ ready ──▶ closed
//!      │  ▲ Attest error        │ Hello refused ─────────────▶   ▲
//!      └──┘ (retry allowed)     └──────── any fatal reply ───────┘
//! ```
//!
//! Transitions fire by priority — frame error, drain, reserved id, the
//! pre-auth matrix, dispatch — so the rules that protect the stream come
//! before anything that looks at the request itself (`ARCHITECTURE.md`
//! § "Serving layer" spells each one out).
//!
//! Everything that reaches a [`ServeHandler`] is a [`Work`] item, and
//! [`Work::run`] is the only caller of the handler. The transport runs
//! the work (inline, under its admission permit) and hands the [`Done`]
//! back through [`Machine::on_done`] before it presents the next frame,
//! so a connection has at most one item outstanding and replies leave in
//! request order.
//!
//! One close rule covers `Goodbye`, fatal errors, end of stream and the
//! drain alike: [`Step::Close`] carries the frames the close owes (`Bye`,
//! the error reply) and is the last step of the connection.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use concealer_core::UserHandle;
use serde::frame::FrameError;

use crate::error::ErrorCode;
use crate::protocol::{
    Request, Response, ServeStats, ServerInfo, CONNECTION_LEVEL_ID, PROTOCOL_VERSION,
};
use crate::server::{error_reply, DeploymentFacts, EngineRequest, ServeHandler, ServerConfig};

/// The gauges and totals [`ServeStats`] is a snapshot of. Statistics
/// only — nothing is published through them — so plain `Relaxed`
/// updates suffice, except `connections`, which the acceptor reads to
/// enforce the connection cap.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Connections being served right now.
    pub(crate) connections: AtomicU64,
    pub(crate) peak_connections: AtomicU64,
    pub(crate) connections_served: AtomicU64,
    /// [`Work`] handed out and not yet returned through
    /// [`Machine::on_done`].
    pub(crate) in_flight: AtomicU64,
    /// The part of `in_flight` that is waiting at the admission gate.
    pub(crate) backlog: AtomicU64,
    pub(crate) requests_served: AtomicU64,
}

/// What every connection of one server shares: the configuration the
/// protocol limits come from, the counters, and the drain flag.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) counters: Counters,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn new(config: ServerConfig) -> Shared {
        Shared {
            config,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether another connection fits under the cap.
    pub(crate) fn has_room(&self) -> bool {
        self.counters.connections.load(Ordering::Acquire) < self.config.max_connections as u64
    }

    /// Count an accepted connection in.
    pub(crate) fn connection_opened(&self) {
        let live = self.counters.connections.fetch_add(1, Ordering::AcqRel) + 1;
        self.counters
            .peak_connections
            .fetch_max(live, Ordering::Relaxed);
        self.counters
            .connections_served
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.counters.connections.fetch_sub(1, Ordering::AcqRel);
    }

    fn serve_stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            mode: self.config.mode.name().to_string(),
            connections: c.connections.load(Ordering::Acquire),
            peak_connections: c.peak_connections.load(Ordering::Relaxed),
            connections_served: c.connections_served.load(Ordering::Relaxed),
            in_flight: c.in_flight.load(Ordering::Relaxed),
            backlog: c.backlog.load(Ordering::Relaxed),
            requests_served: c.requests_served.load(Ordering::Relaxed),
        }
    }
}

/// One unit of handler work — only what can reach a [`ServeHandler`].
#[derive(Debug)]
pub(crate) enum Work {
    /// The pre-auth attestation challenge.
    Attest {
        id: u64,
        nonce: [u8; 32],
    },
    /// A credential to validate; only ever emitted after an `AttestOk`.
    Hello {
        user_id: u64,
        credential: [u8; 32],
    },
    /// Topology discovery (answerable in every place).
    ShardInfo {
        id: u64,
    },
    RouterStats {
        id: u64,
    },
    /// An authenticated, id-checked, batch-capped engine request.
    Engine {
        user: UserHandle,
        request: EngineRequest,
    },
    /// An accepted wire `Shutdown`: the handler forwards it (a router
    /// tells its upstreams) before the machine raises the drain flag.
    Shutdown {
        id: u64,
        user: UserHandle,
    },
}

/// What a finished [`Work`] means for its connection.
#[derive(Debug)]
pub(crate) enum Done {
    /// `AttestOk` marks the connection attested; an error reply leaves it
    /// open and unattested so the client may retry.
    Attest(Response),
    /// `Ok` authenticates the connection; `Err` is the fatal refusal.
    Hello(Result<(UserHandle, DeploymentFacts), Response>),
    Reply(Response),
    Shutdown {
        id: u64,
    },
}

impl Work {
    /// Run against the deployment. May block (engine execution, a
    /// router's upstream dials).
    pub(crate) fn run(self, handler: &dyn ServeHandler) -> Done {
        match self {
            Work::Attest { id, nonce } => Done::Attest(handler.attest(id, nonce)),
            Work::Hello {
                user_id,
                credential,
            } => Done::Hello(handler.handshake(user_id, credential)),
            Work::ShardInfo { id } => Done::Reply(handler.shard_info(id)),
            Work::RouterStats { id } => Done::Reply(handler.router_stats(id)),
            Work::Engine { user, request } => Done::Reply(handler.execute(&user, request)),
            Work::Shutdown { id, user } => {
                handler.on_wire_shutdown(&user);
                Done::Shutdown { id }
            }
        }
    }
}

/// What the transport does next.
#[derive(Debug)]
pub(crate) enum Step {
    /// Send this reply and keep serving.
    Reply(Response),
    /// Run this, then report through [`Machine::on_done`].
    Work(Work),
    /// Send these in order, then close the connection; the machine takes
    /// nothing after it.
    Close(Vec<Response>),
}

/// The authentication place of a connection.
#[derive(Debug)]
enum Auth {
    /// Nothing accepted yet but `Attest`, `ShardInfo` and (once attested)
    /// `Hello`.
    AwaitingHello,
    Ready(UserHandle),
}

/// One connection's protocol state.
#[derive(Debug)]
pub(crate) struct Machine {
    shared: Arc<Shared>,
    auth: Auth,
    /// Whether an `Attest` has succeeded: `Hello` is refused until then,
    /// so a credential never reaches an enclave that failed (or skipped)
    /// measurement.
    attested: bool,
}

impl Machine {
    pub(crate) fn new(shared: Arc<Shared>) -> Machine {
        Machine {
            shared,
            auth: Auth::AwaitingHello,
            attested: false,
        }
    }

    /// Present the next frame, or the error that ended the stream.
    pub(crate) fn on_frame(&self, frame: Result<Request, FrameError>) -> Step {
        let request = match frame {
            Ok(request) => request,
            Err(FrameError::TooLarge { len, max }) => {
                return self.reply(error_reply(
                    CONNECTION_LEVEL_ID,
                    ErrorCode::FrameTooLarge,
                    format!("frame of {len} bytes exceeds the {max}-byte limit"),
                ))
            }
            // A malformed payload means the peer speaks a different
            // dialect: answer structurally, then close.
            Err(FrameError::Decode(e)) => {
                return self.refuse(
                    ErrorCode::MalformedFrame,
                    format!("payload did not decode as a request: {e}"),
                )
            }
            Err(FrameError::Closed | FrameError::Io(_)) => return self.close(Vec::new()),
        };
        if self.shared.draining() {
            return self.refuse(ErrorCode::ShuttingDown, "server is draining");
        }
        let carries_id = !matches!(request, Request::Hello { .. } | Request::Goodbye);
        if carries_id && request.id() == CONNECTION_LEVEL_ID {
            return self.refuse(
                ErrorCode::ProtocolViolation,
                "request id 0 is reserved for connection-level errors",
            );
        }
        match &self.auth {
            Auth::Ready(user) => self.on_ready(user.clone(), request),
            Auth::AwaitingHello => self.on_pre_auth(request),
        }
    }

    fn on_pre_auth(&self, request: Request) -> Step {
        match request {
            // Topology discovery is answerable in every place: a router
            // probes each shard's slice at startup, before it holds any
            // client credential. The descriptor only names which epochs a
            // process serves — data never moves without a session.
            Request::ShardInfo { id } => self.work(Work::ShardInfo { id }),
            // The challenge must be answerable before authentication:
            // clients refuse to send `Hello` until the quotes verify.
            Request::Attest { id, nonce } => self.work(Work::Attest { id, nonce }),
            Request::Hello {
                version,
                user_id,
                credential,
                client_name: _,
            } => {
                if !self.attested {
                    self.refuse(
                        ErrorCode::AttestationFailed,
                        "Hello before a successful Attest; complete the \
                         attestation exchange first",
                    )
                } else if version != PROTOCOL_VERSION {
                    self.refuse(
                        ErrorCode::UnsupportedVersion,
                        format!("server speaks protocol {PROTOCOL_VERSION}, client sent {version}"),
                    )
                } else {
                    self.work(Work::Hello {
                        user_id,
                        credential,
                    })
                }
            }
            _ => self.refuse(
                ErrorCode::NotAuthenticated,
                "the first request must be Hello",
            ),
        }
    }

    fn on_ready(&self, user: UserHandle, request: Request) -> Step {
        let request = match request {
            Request::Execute { id, query, options } => {
                EngineRequest::Execute { id, query, options }
            }
            Request::ExecuteBatch {
                id,
                queries,
                options,
            } => EngineRequest::ExecuteBatch {
                id,
                queries,
                options,
            },
            Request::ExecutePartial { id, query, options } => {
                EngineRequest::ExecutePartial { id, query, options }
            }
            Request::ExecuteBatchPartial {
                id,
                queries,
                options,
            } => EngineRequest::ExecuteBatchPartial {
                id,
                queries,
                options,
            },
            Request::IngestEpoch {
                id,
                epoch_start,
                records,
            } => EngineRequest::IngestEpoch {
                id,
                epoch_start,
                records,
            },
            Request::Stats { id } => EngineRequest::Stats { id },
            Request::Promote { id } => EngineRequest::Promote { id },
            Request::RouterStats { id } => return self.work(Work::RouterStats { id }),
            Request::Shutdown { id } => return self.work(Work::Shutdown { id, user }),
            Request::ServeStats { id } => {
                let stats = self.shared.serve_stats();
                return self.reply(Response::ServeStatsOk { id, stats });
            }
            Request::Goodbye => return self.close(vec![Response::Bye]),
            // The connection's trust decision was already made.
            Request::Attest { .. } => {
                return self.refuse(
                    ErrorCode::ProtocolViolation,
                    "Attest must precede authentication",
                )
            }
            Request::Hello { .. } => {
                return self.refuse(
                    ErrorCode::ProtocolViolation,
                    "connection is already authenticated",
                )
            }
            Request::ShardInfo { id } => return self.work(Work::ShardInfo { id }),
        };
        let max_batch = self.shared.config.max_batch;
        match &request {
            EngineRequest::ExecuteBatch { id, queries, .. }
            | EngineRequest::ExecuteBatchPartial { id, queries, .. }
                if queries.len() > max_batch =>
            {
                self.reply(error_reply(
                    *id,
                    ErrorCode::BatchTooLarge,
                    format!(
                        "batch of {} queries exceeds the {max_batch}-query limit",
                        queries.len()
                    ),
                ))
            }
            _ => self.work(Work::Engine { user, request }),
        }
    }

    /// Report a finished [`Work`] item.
    pub(crate) fn on_done(&mut self, done: Done) -> Step {
        self.shared
            .counters
            .in_flight
            .fetch_sub(1, Ordering::Relaxed);
        match done {
            Done::Reply(reply) => self.reply(reply),
            Done::Attest(reply) => {
                if matches!(reply, Response::AttestOk { .. }) {
                    self.attested = true;
                }
                self.reply(reply)
            }
            Done::Hello(Ok((user, facts))) => {
                self.auth = Auth::Ready(user);
                let config = &self.shared.config;
                self.reply(Response::HelloOk(ServerInfo {
                    protocol_version: PROTOCOL_VERSION,
                    server_name: config.server_name.clone(),
                    backend: facts.backend,
                    max_batch: config.max_batch as u64,
                    max_frame_len: config.max_frame_len as u64,
                    ingest_allowed: facts.ingest_allowed,
                }))
            }
            Done::Hello(Err(refusal)) => self.close(vec![refusal]),
            Done::Shutdown { id } => {
                self.shared.shutdown.store(true, Ordering::Release);
                self.close(vec![Response::ShutdownOk { id }])
            }
        }
    }

    fn reply(&self, reply: Response) -> Step {
        self.count_replies(1);
        Step::Reply(reply)
    }

    fn work(&self, work: Work) -> Step {
        self.shared
            .counters
            .in_flight
            .fetch_add(1, Ordering::Relaxed);
        Step::Work(work)
    }

    /// Close over an error that concerns the connection, not one request.
    fn refuse(&self, code: ErrorCode, message: impl Into<String>) -> Step {
        self.close(vec![error_reply(CONNECTION_LEVEL_ID, code, message)])
    }

    fn close(&self, owed: Vec<Response>) -> Step {
        self.count_replies(owed.len());
        Step::Close(owed)
    }

    fn count_replies(&self, n: usize) {
        self.shared
            .counters
            .requests_served
            .fetch_add(n as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;
    use concealer_core::{Credential, ExecOptions, Query, Record, UserId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde::frame::{write_frame, FrameDecoder};

    const MAX_FRAME: usize = 4096;

    fn shared() -> Arc<Shared> {
        Arc::new(Shared::new(ServerConfig {
            max_batch: 3,
            max_frame_len: MAX_FRAME,
            ..ServerConfig::default()
        }))
    }

    fn user() -> UserHandle {
        UserHandle {
            user_id: UserId(7),
            credential: Credential([7u8; 32]),
        }
    }

    /// Every id-carrying request with the given id (`Hello` and `Goodbye`
    /// carry none).
    fn id_carrying(id: u64) -> Vec<Request> {
        let query = Query::count().at_dims([1]).at(60);
        vec![
            Request::Execute {
                id,
                query: query.clone(),
                options: None,
            },
            Request::ExecuteBatch {
                id,
                queries: vec![query.clone()],
                options: Some(ExecOptions::default()),
            },
            Request::IngestEpoch {
                id,
                epoch_start: 7200,
                records: vec![Record::spatial(1, 7260, 1001)],
            },
            Request::Stats { id },
            Request::Shutdown { id },
            Request::ServeStats { id },
            Request::ShardInfo { id },
            Request::ExecutePartial {
                id,
                query: query.clone(),
                options: None,
            },
            Request::ExecuteBatchPartial {
                id,
                queries: vec![query],
                options: None,
            },
            Request::RouterStats { id },
            Request::Promote { id },
            Request::Attest {
                id,
                nonce: [3u8; 32],
            },
        ]
    }

    /// A random request over the whole message set — batches up to twice
    /// the cap, ids occasionally the reserved one, versions occasionally
    /// wrong.
    fn random_request(rng: &mut StdRng) -> Request {
        if rng.gen_range(0u32..7) == 0 {
            return if rng.gen() {
                Request::Goodbye
            } else {
                Request::Hello {
                    version: PROTOCOL_VERSION + u32::from(rng.gen_range(0u32..5) == 0),
                    user_id: rng.gen(),
                    credential: std::array::from_fn(|_| rng.gen()),
                    client_name: format!("client-{}", rng.gen_range(0u32..1000)),
                }
            };
        }
        let id = if rng.gen_range(0u32..8) == 0 {
            CONNECTION_LEVEL_ID
        } else {
            rng.gen_range(1u64..u64::MAX)
        };
        let mut all = id_carrying(id);
        let mut request = all.swap_remove(rng.gen_range(0..all.len()));
        if let Request::ExecuteBatch { queries, .. }
        | Request::ExecuteBatchPartial { queries, .. } = &mut request
        {
            let query = queries[0].clone();
            queries.resize(rng.gen_range(0usize..7), query);
        }
        request
    }

    /// The deployment double: finishes `work` successfully — engine work
    /// answers `PromoteOk` under its own id — or, for `Attest` and `Hello`
    /// with `ok` false, with a refusal.
    fn finish(work: Work, ok: bool) -> Done {
        let refusal = Response::Error {
            id: CONNECTION_LEVEL_ID,
            error: WireError::new(ErrorCode::AuthFailed, "refused by the double"),
        };
        match work {
            Work::Attest { id, .. } if ok => Done::Attest(Response::AttestOk {
                id,
                quotes: Vec::new(),
            }),
            Work::Attest { .. } => Done::Attest(refusal),
            Work::Hello { .. } if ok => Done::Hello(Ok((
                user(),
                DeploymentFacts {
                    backend: "double".into(),
                    ingest_allowed: false,
                },
            ))),
            Work::Hello { .. } => Done::Hello(Err(refusal)),
            Work::Shutdown { id, .. } => Done::Shutdown { id },
            Work::ShardInfo { id } | Work::RouterStats { id } => {
                Done::Reply(Response::ShutdownOk { id })
            }
            Work::Engine { request, .. } => Done::Reply(Response::PromoteOk {
                id: request.id(),
                epochs_registered: 0,
            }),
        }
    }

    /// What the machine itself may say about a connection, as opposed to
    /// about one request.
    fn assert_connection_level(reply: &Response) {
        if let Response::Error { id, error } = reply {
            if error.code == ErrorCode::BatchTooLarge {
                assert_ne!(*id, CONNECTION_LEVEL_ID, "{error}");
            } else {
                assert_eq!(*id, CONNECTION_LEVEL_ID, "{error}");
            }
        }
    }

    /// Arbitrary request sequences with arbitrary handler outcomes: no
    /// panic, no credential work before an `AttestOk`, no engine work
    /// before a `Hello` succeeded, a completion never hands out more
    /// work, and the gauge returns to zero.
    #[test]
    fn arbitrary_conversations_keep_the_invariants() {
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let shared = shared();
            let mut machine = Machine::new(Arc::clone(&shared));
            let (mut attest_ok, mut hello_ok) = (false, false);
            for _ in 0..80 {
                let frame = match rng.gen_range(0u32..12) {
                    0 => Err(FrameError::TooLarge {
                        len: 1 << 30,
                        max: MAX_FRAME as u64,
                    }),
                    1 => Err(FrameError::Closed),
                    _ => Ok(random_request(&mut rng)),
                };
                let mut step = machine.on_frame(frame);
                if let Step::Work(work) = step {
                    match &work {
                        Work::Attest { .. } | Work::ShardInfo { .. } => {}
                        Work::Hello { .. } => assert!(attest_ok, "{seed}: Hello unattested"),
                        Work::Engine { request, .. } => {
                            assert!(hello_ok, "{seed}: engine work before Hello");
                            assert_ne!(request.id(), CONNECTION_LEVEL_ID);
                        }
                        Work::RouterStats { .. } | Work::Shutdown { .. } => {
                            assert!(hello_ok, "{seed}: {work:?} before Hello");
                        }
                    }
                    let done = finish(work, rng.gen());
                    attest_ok |= matches!(done, Done::Attest(Response::AttestOk { .. }));
                    hello_ok |= matches!(done, Done::Hello(Ok(_)));
                    step = machine.on_done(done);
                }
                match step {
                    Step::Work(work) => panic!("{seed}: a completion handed out {work:?}"),
                    Step::Reply(reply) => assert_connection_level(&reply),
                    Step::Close(replies) => {
                        replies.iter().for_each(assert_connection_level);
                        break;
                    }
                }
            }
            assert_eq!(shared.counters.in_flight.load(Ordering::Relaxed), 0);
        }
    }

    /// Id 0 on any id-carrying variant is the reserved-id close, whatever
    /// place the connection is in.
    #[test]
    fn reserved_id_fires_before_dispatch_in_every_place() {
        for place in 0..3 {
            for request in id_carrying(CONNECTION_LEVEL_ID) {
                let mut machine = Machine::new(shared());
                if place >= 1 {
                    machine.attested = true;
                }
                if place == 2 {
                    machine.auth = Auth::Ready(user());
                }
                let Step::Close(replies) = machine.on_frame(Ok(request.clone())) else {
                    panic!("place {place}: {request:?} did not close");
                };
                assert!(
                    matches!(
                        replies.as_slice(),
                        [Response::Error { id: CONNECTION_LEVEL_ID, error }]
                            if error.code == ErrorCode::ProtocolViolation
                    ),
                    "place {place}: {request:?} → {replies:?}"
                );
            }
        }
    }

    /// Push `stream` through decoder + machine in the given chunking,
    /// running work inline, then signal end of stream. Returns every
    /// reply and whether the machine closed before the stream ended.
    fn converse(stream: &[u8], rng: &mut StdRng, whole: bool) -> (Vec<Response>, bool) {
        let mut machine = Machine::new(shared());
        let mut decoder = FrameDecoder::new(MAX_FRAME);
        let mut replies = Vec::new();
        let (mut closed, mut closed_early) = (false, false);
        let mut rest = stream;
        loop {
            let eof = rest.is_empty();
            let take = if whole {
                rest.len()
            } else {
                rng.gen_range(0..=rest.len().min(97))
            };
            decoder.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            while !closed {
                let frame = match decoder.try_decode::<Request>() {
                    Ok(Some(request)) => Ok(request),
                    Ok(None) if !eof => break,
                    Ok(None) if decoder.mid_frame() => {
                        Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof.into()))
                    }
                    Ok(None) => Err(FrameError::Closed),
                    Err(e) => Err(e),
                };
                let mut step = machine.on_frame(frame);
                while let Step::Work(work) = step {
                    step = machine.on_done(finish(work, true));
                }
                match step {
                    Step::Work(_) => unreachable!("run by the loop above"),
                    Step::Reply(reply) => replies.push(reply),
                    Step::Close(last) => {
                        closed = true;
                        closed_early = !eof || !rest.is_empty();
                        replies.extend(last);
                    }
                }
            }
            if closed {
                return (replies, closed_early);
            }
        }
    }

    /// Arbitrary bytes — raw noise, and valid frames with noise spliced
    /// in — in arbitrary chunkings: never a panic, the chunking never
    /// changes the reply stream (no desync), and whatever ends the
    /// conversation early is a connection-level error from the registry.
    #[test]
    fn arbitrary_bytes_in_arbitrary_chunkings_never_desync() {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream = Vec::new();
            for _ in 0..rng.gen_range(1usize..8) {
                match rng.gen_range(0u32..5) {
                    0 => stream.extend((0..rng.gen_range(1usize..40)).map(|_| rng.gen::<u8>())),
                    1 => write_frame(&mut stream, &vec![0xFFu8; rng.gen_range(1usize..30)])
                        .expect("encode noise frame"),
                    _ => write_frame(&mut stream, &random_request(&mut rng))
                        .expect("encode request frame"),
                }
            }
            let (reference, closed_early) = converse(&stream, &mut rng, true);
            for _ in 0..3 {
                let (chunked, _) = converse(&stream, &mut rng, false);
                assert_eq!(
                    chunked, reference,
                    "seed {seed}: chunking changed the replies"
                );
            }
            reference.iter().for_each(assert_connection_level);
            if closed_early {
                let last = reference.last().expect("an early close says why");
                assert!(
                    matches!(
                        last,
                        Response::Error { .. } | Response::Bye | Response::ShutdownOk { .. }
                    ),
                    "seed {seed}: closed early with {last:?}"
                );
            }
        }
    }

    /// The drain rule: once the flag is up the next frame is refused
    /// with `shutting_down`; end of stream stays a silent close.
    #[test]
    fn drain_refuses_the_next_frame_and_eof_stays_clean() {
        let shared = shared();
        shared.shutdown.store(true, Ordering::Release);
        let machine = Machine::new(Arc::clone(&shared));
        let Step::Close(replies) = machine.on_frame(Ok(Request::ShardInfo { id: 1 })) else {
            panic!("a frame taken during the drain closes");
        };
        assert!(matches!(
            replies.as_slice(),
            [Response::Error { id: CONNECTION_LEVEL_ID, error }]
                if error.code == ErrorCode::ShuttingDown
        ));
        let idle = Machine::new(shared);
        assert!(matches!(
            idle.on_frame(Err(FrameError::Closed)),
            Step::Close(replies) if replies.is_empty()
        ));
    }
}
