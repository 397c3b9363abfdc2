//! The query router for multi-node Concealer serving.
//!
//! A deployment shards its epochs across N `concealer-server` processes
//! (each started with `--shard INDEX/TOTAL`, owning the
//! [`concealer_core::shard_of_epoch`] slice of the epoch-hash space).
//! The router sits in front: it speaks the same versioned wire protocol
//! to clients (see `PROTOCOL.md`) and answers every query by fanning
//! partial executions out to the shard servers and recombining their
//! per-epoch partials with [`concealer_core::merge_partials`] — the
//! disjoint-union merge that reproduces a single-process answer
//! bit-for-bit, batch dedup metadata included.
//!
//! # Replica sets
//!
//! Each shard position may name a whole **replica set**: a
//! comma-separated member list (`writer:port,replica:port,...`) whose
//! members share one durable store root. Roles are not configured — the
//! startup probe discovers them from each member's `ShardInfo` (`role`,
//! protocol v3) and requires exactly one writer per set. **Reads**
//! (partial executions, stats) round-robin across a set's members and
//! fail over before a query is given up as `shard_unavailable`.
//! **Ingest** goes to the writer only — epoch ownership is a partition,
//! and only the writer may mutate the shared store; a writer unreachable
//! on a *fresh dial* (dead, not merely slow) is replaced by promoting a
//! replica over the wire (`Request::Promote`). These rules live once, in
//! the pure `members` machine; `merge` validates the shard map and
//! recombines replies; this file is the I/O shell around both.
//!
//! The router reuses the serving core from `concealer-server`
//! unchanged: [`RouterHandler`] implements
//! [`ServeHandler`], so
//! `Server::with_handler` gives it frame handling, the connection state
//! machine (version check, batch and frame limits included — they come
//! from the [`ServerConfig`](concealer_server::ServerConfig) it is served
//! with), busy refusal, and graceful drain. A request's upstream fan-out
//! blocks its connection's own thread, under the admission permit.
//!
//! Trust: the router lives entirely in the **untrusted zone**. It moves
//! sealed partials and forwards client credentials verbatim; every
//! answer still carries the enclave's verification metadata, so a
//! tampering router is detected exactly like a tampering server (see
//! `ARCHITECTURE.md` § "Multi-node serving"). Promotion moves no key
//! material either — it only tells a replica to re-open the store it
//! already holds as the writer. Attestation (protocol v4) keeps the
//! same shape: the router forwards a client's challenge nonce to every
//! member and relays the signed quotes verbatim (retagging only the
//! shard/member labels) — it never verifies them itself, because its
//! word is worth nothing; the end client's [`TrustPolicy`] checks the
//! enclave signatures across the untrusted hop.
//!
//! Failure semantics: a shard whose every member is unreachable
//! (connect refused, timeout, torn stream) never silently shrinks an
//! answer. The affected query gets a structured `shard_unavailable`
//! error naming the shard, the router backs off each member from its
//! first failed fresh dial, and later requests retry through fresh
//! connections (see `OPERATIONS.md` § "Failure playbook").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod members;
mod merge;

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use concealer_client::{ClientBuilder, ClientError, Pending, Session, TrustPolicy};
use concealer_core::{shard_of_epoch, ExecOptions, Query, Record, UserHandle};
use concealer_server::protocol::{
    Response, ShardDescriptor, WirePartialResult, WireQuote, CONNECTION_LEVEL_ID,
};
use concealer_server::{
    DeploymentFacts, EngineRequest, ErrorCode, ServeHandler, WireError, WireResult, WireStats,
};

use members::{Event, MemberId, Members};
use merge::{combine_partials, merge_answer, split_batch, ShardFailure};

/// The name the router presents to its upstream shards (clients see
/// `ServerConfig::server_name`).
const ROUTER_NAME: &str = "concealer-router";

/// Cap on each blocking upstream read or write. A shard that accepted
/// work and went silent turns into a clean `shard_unavailable` after this
/// long instead of wedging a connection thread.
const UPSTREAM_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything that tunes a router deployment (the serving side — bind
/// address, connection caps, batch and frame limits, mode — stays in
/// [`ServerConfig`](concealer_server::ServerConfig)).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Upstream shard addresses **in shard order**: `shards[i]` must
    /// name the server(s) started with `--shard i/N`. Each entry is a
    /// comma-separated replica-set member list (a single address is a
    /// one-member set); member roles are discovered from `ShardInfo` at
    /// probe time, and every set must have exactly one writer.
    pub shards: Vec<String>,
    /// Cap on establishing one upstream TCP connection.
    pub connect_timeout: Duration,
    /// First backoff applied to a member after a failed fresh dial;
    /// doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Ceiling of the exponential backoff.
    pub backoff_max: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: Vec::new(),
            connect_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(250),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// A startup (probe-time) failure: unreachable upstream, inconsistent
/// shard map, diverging epoch durations, a replica set without exactly
/// one writer.
#[derive(Debug)]
pub struct RouterError(String);

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RouterError {}

type Call<'a, T> = &'a mut dyn FnMut(&mut Session) -> Result<T, ClientError>;

/// Whether an exchange may send its request twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Idempotent: a torn pooled stream re-runs it once on a fresh dial.
    Read,
    /// Never re-sent — one that half-landed would apply twice. Any torn
    /// stream is followed by a fresh dial that only learns whether the
    /// member lives, so a live writer is never replaced.
    Ingest,
}

/// The machine and the idle sessions, behind the router's one lock: held
/// for decisions and pool moves only, never across network I/O, so
/// concurrent connections fan out in parallel.
#[derive(Debug)]
struct State {
    members: Members,
    /// Idle authenticated sessions by member and user id. Upstream
    /// sessions are per-credential, so they are not shareable across
    /// users.
    pool: HashMap<(MemberId, u64), Vec<Session>>,
}

/// The builder every upstream dial starts from: the router's timeouts,
/// its name, and — crucially — the *unattested* trust policy. The router
/// still runs the v4 attestation round (upstream servers demand it
/// before `Hello`) but never verifies the quotes: it is an untrusted
/// intermediary with no say in trust decisions. End clients verify the
/// relayed quotes themselves.
fn upstream_builder(config: &RouterConfig, addr: &str) -> ClientBuilder {
    ClientBuilder::new(addr)
        .client_name(ROUTER_NAME)
        .connect_timeout(config.connect_timeout)
        .read_timeout(UPSTREAM_IO_TIMEOUT)
        .write_timeout(UPSTREAM_IO_TIMEOUT)
        .trust_policy(TrustPolicy::allow_unattested())
}

/// Whether a failed call still heard the member answer — a structured
/// refusal of the request, the handshake or the attestation challenge —
/// rather than losing the stream.
fn answered(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Server(_) | ClientError::Handshake(_) | ClientError::Attestation(_)
    )
}

/// The [`ServeHandler`] that answers by fanning out to shard servers.
///
/// Built by [`RouterHandler::probe`], which validates the shard map
/// before any client traffic is accepted; served via
/// [`Server::with_handler`](concealer_server::Server::with_handler).
#[derive(Debug)]
pub struct RouterHandler {
    config: RouterConfig,
    /// Member addresses, `addrs[shard][member]`, in configured order.
    addrs: Vec<Vec<String>>,
    state: Mutex<State>,
    /// The machine's clock: time since the probe.
    started: Instant,
    /// What the router reports as its own `ShardInfo`.
    descriptor: ShardDescriptor,
}

impl RouterHandler {
    /// Probe every configured member and validate the shard map (see
    /// `merge::validate_map` for the rules): a mis-wired deployment is
    /// refused before any client traffic, with every disagreeing member
    /// named.
    pub fn probe(config: RouterConfig) -> Result<RouterHandler, RouterError> {
        let addrs = merge::member_lists(&config.shards)?;
        let mut reports = vec![Vec::new(); addrs.len()];
        for (index, set) in addrs.iter().enumerate() {
            for addr in set {
                let mut conn = upstream_builder(&config, addr).probe().map_err(|e| {
                    RouterError(format!("probing shard {index} at {addr} failed: {e}"))
                })?;
                reports[index].push(conn.shard_info().map_err(|e| {
                    RouterError(format!("shard {index} at {addr} refused ShardInfo: {e}"))
                })?);
            }
        }
        let (writers, descriptor) = merge::validate_map(&addrs, reports)?;
        let sets: Vec<_> = addrs.iter().map(Vec::len).zip(writers).collect();
        let members = Members::new(&sets, config.backoff_base, config.backoff_max);
        let pool = HashMap::new();
        Ok(RouterHandler {
            config,
            addrs,
            state: Mutex::new(State { members, pool }),
            started: Instant::now(),
            descriptor,
        })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every member of every set, in shard then member order.
    fn every_member(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.addrs
            .iter()
            .enumerate()
            .flat_map(|(shard, set)| (0..set.len()).map(move |member| MemberId { shard, member }))
    }

    fn unavailable(&self, at: MemberId, why: impl std::fmt::Display) -> ShardFailure {
        let addr = &self.addrs[at.shard][at.member];
        ShardFailure::Unavailable(format!("shard {} ({addr}) unavailable: {why}", at.shard))
    }

    /// The machine's gate: a member is not tried while it backs off.
    fn gate(&self, at: MemberId) -> Result<(), ShardFailure> {
        let open = self.state().members.may_try(at, self.started.elapsed());
        let why = "backing off after a transport failure";
        open.then_some(()).ok_or_else(|| self.unavailable(at, why))
    }

    /// Pass the gate, then take an idle pooled session, if there is one.
    fn checkout(&self, at: MemberId, user_id: u64) -> Result<Option<Session>, ShardFailure> {
        self.gate(at)?;
        Ok(self.state().pool.get_mut(&(at, user_id)).and_then(Vec::pop))
    }

    /// Dial and authenticate a fresh session to `at` as `user` (the
    /// router forwards the client's credential verbatim — it holds no
    /// authority of its own).
    fn dial(&self, at: MemberId, user: &UserHandle) -> Result<Session, ClientError> {
        upstream_builder(&self.config, &self.addrs[at.shard][at.member])
            .credential(user.user_id.0, user.credential.0)
            .connect()
    }

    /// Run `call` on `session` — taken from the pool (`pooled`) or just
    /// opened — and report the one event the attempt produced; also says
    /// whether its stream tore (a failed open is not a tear: it already
    /// says the member is down). A session that replied returns to the
    /// pool under `pool_as`, a user id (pre-auth probes are not pooled).
    /// After a refusal the stream is still frame-aligned, but the session
    /// is dropped all the same: the client library reports a refusal of
    /// the request and a connection-level error (after which the member
    /// closes the connection) alike, so a refused session may be closing.
    /// A failed fresh session also drops the member's other pooled
    /// sessions — they share the dead peer.
    fn attempt<T>(
        &self,
        at: MemberId,
        pooled: bool,
        session: Result<Session, ClientError>,
        pool_as: Option<u64>,
        call: Call<'_, T>,
    ) -> (Result<T, ShardFailure>, bool) {
        let (result, conn) = match session {
            Ok(mut conn) => (call(&mut conn), Some(conn)),
            Err(e) => (Err(e), None),
        };
        let torn = conn.is_some() && matches!(&result, Err(e) if !answered(e));
        let event = match &result {
            Ok(_) => Event::Replied,
            Err(e) if answered(e) => Event::Refused,
            Err(_) if pooled => Event::PooledTorn,
            Err(_) => Event::DialFailed,
        };
        let mut state = self.state();
        state.members.report(at, event, self.started.elapsed());
        match (event, conn.zip(pool_as)) {
            (Event::Replied, Some((conn, user_id))) => {
                state.pool.entry((at, user_id)).or_default().push(conn);
            }
            (Event::DialFailed, _) => state.pool.retain(|(member, _), _| *member != at),
            _ => {}
        }
        drop(state);
        let result = result.map_err(|e| match e {
            ClientError::Server(e) => ShardFailure::Server(e),
            ClientError::Handshake(m) | ClientError::Attestation(m) => {
                let refusal = format!("upstream shard {} refused: {m}", at.shard);
                ShardFailure::Server(WireError::new(ErrorCode::ShardUnavailable, refusal))
            }
            e => self.unavailable(at, e),
        });
        (result, torn)
    }

    /// The one upstream exchange: run `call` as `user` on the members in
    /// `order` until one answers, each over an idle pooled session or a
    /// fresh dial as `mode` allows. A member the machine's gate refuses,
    /// or one that cannot be reached, is failed over; a structured refusal
    /// ends the exchange — members are bit-identical, so each would refuse
    /// alike. `checked_out` is a session the caller already took from
    /// `order[0]`'s pool and submitted on (the fan's pipelined attempt).
    fn exchange<T>(
        &self,
        order: &[MemberId],
        user: &UserHandle,
        mode: Mode,
        mut checked_out: Option<Session>,
        call: Call<'_, T>,
    ) -> Result<T, ShardFailure> {
        let user_id = Some(user.user_id.0);
        let mut last = None;
        for &at in order {
            let pooled = match checked_out.take() {
                Some(conn) => Ok(Some(conn)),
                None => self.checkout(at, user.user_id.0),
            };
            let (settled, torn) = match pooled {
                Err(backing_off) => (Err(backing_off), false),
                Ok(Some(conn)) => match self.attempt(at, true, Ok(conn), user_id, call) {
                    (_, true) if mode == Mode::Read => {
                        self.attempt(at, false, self.dial(at, user), user_id, call)
                    }
                    done => done,
                },
                Ok(None) => self.attempt(at, false, self.dial(at, user), user_id, call),
            };
            if torn && mode == Mode::Ingest {
                let mut nothing = |_: &mut Session| Ok(());
                let _alive = self.attempt(at, false, self.dial(at, user), user_id, &mut nothing);
            }
            match settled {
                Err(failure @ ShardFailure::Unavailable(_)) => last = Some(failure),
                done => return done,
            }
        }
        Err(last.expect("replica sets have at least one member"))
    }

    /// Route one ingest to the writer of the one shard that owns its
    /// epoch — ownership is a partition. The machine offers replicas to
    /// promote only if the writer's fresh dial failed; the ingest is
    /// retried once on the promoted one. The epoch cannot have
    /// half-landed: the dead writer never committed it, and the manifest
    /// commit point makes a torn segment invisible after the promotion's
    /// recovery pass.
    fn ingest(
        &self,
        user: &UserHandle,
        epoch_start: u64,
        records: &[Record],
    ) -> Result<u64, ShardFailure> {
        let shard = shard_of_epoch(epoch_start, self.addrs.len());
        let mut call = |conn: &mut Session| conn.ingest_epoch(epoch_start, records);
        let writer = self.state().members.writer(shard);
        let failure = match self.exchange(&[writer], user, Mode::Ingest, None, &mut call) {
            Err(failure @ ShardFailure::Unavailable(_)) => failure,
            done => return done,
        };
        let candidates = self.state().members.promotion_order(shard);
        for at in candidates {
            // Promotion re-opens the shared store as owner: no key
            // material moves, and recovery truncates any segment the
            // dead writer tore mid-write.
            match self.exchange(&[at], user, Mode::Read, None, &mut |conn| conn.promote()) {
                Ok(_) if self.state().members.promoted(at) => {
                    return self.exchange(&[at], user, Mode::Ingest, None, &mut call)
                }
                Ok(_) => break,
                Err(ShardFailure::Server(e)) => return Err(ShardFailure::Server(e)),
                Err(ShardFailure::Unavailable(_)) => continue,
            }
        }
        Err(failure)
    }

    /// Fan one pipelined exchange out to **every** shard: submit at each
    /// shard's first member in read order, then collect the replies in
    /// shard order — so the shards execute concurrently while the calling
    /// thread blocks once per upstream. Only an idle pooled session is
    /// submitted on up front. A shard without one, and a pipelined
    /// attempt that tears at submit or at wait, goes through the same
    /// exchange as any other: a fresh dial of that member, then failover.
    ///
    /// Epoch ownership is hash-scattered across the slice space
    /// ([`shard_of_epoch`]), so any time range may touch any shard; the
    /// partition of work happens structurally, because each shard only
    /// holds (and therefore only executes) the epochs its slice owns.
    fn fan<T>(
        &self,
        user: &UserHandle,
        submit: &dyn Fn(&mut Session) -> Result<Pending, ClientError>,
        wait: &dyn Fn(&mut Session, Pending) -> Result<T, ClientError>,
    ) -> Vec<Result<T, ShardFailure>> {
        let started: Vec<_> = (0..self.addrs.len())
            .map(|shard| {
                let order = self.state().members.read_order(shard);
                let idle = self.checkout(order[0], user.user_id.0);
                let sent = idle.ok().flatten().map(|mut conn| {
                    let ticket = submit(&mut conn);
                    (conn, ticket)
                });
                (order, sent)
            })
            .collect();
        let collect = |(order, sent): (Vec<MemberId>, Option<_>)| {
            // The first attempt redeems the pipelined ticket; any later
            // one submits afresh.
            let (conn, mut ticket) = sent.unzip();
            self.exchange(&order, user, Mode::Read, conn, &mut |conn| {
                let pending = match ticket.take() {
                    Some(ticket) => ticket?,
                    None => submit(conn)?,
                };
                wait(conn, pending)
            })
        };
        started.into_iter().map(collect).collect()
    }

    /// One query over every shard, merged unless the union was asked for.
    fn query(
        &self,
        user: &UserHandle,
        id: u64,
        query: &Query,
        options: Option<ExecOptions>,
        merge: bool,
    ) -> Response {
        let union = combine_partials(self.fan(
            user,
            &|conn| conn.submit_partial(query, options),
            &|conn, pending| conn.wait_partial(pending),
        ));
        if !merge {
            let result = partial_result(union);
            return Response::PartialAnswer { id, result };
        }
        match merge_answer(query, union) {
            Ok(answer) => Response::Answer { id, answer },
            Err(error) => Response::Error { id, error },
        }
    }

    /// One batch over every shard (each deduplicates its fetches across the
    /// batch), merged per query unless the unions were asked for.
    fn batch(
        &self,
        user: &UserHandle,
        id: u64,
        queries: &[Query],
        options: Option<ExecOptions>,
        merge: bool,
    ) -> Response {
        let per_shard = self.fan(
            user,
            &|conn| conn.submit_batch_partial(queries, options),
            &|conn, pending| conn.wait_batch_partial(pending),
        );
        let unions = split_batch(per_shard, queries.len())
            .into_iter()
            .map(combine_partials);
        if !merge {
            let results = unions.map(partial_result).collect();
            return Response::BatchPartialAnswer { id, results };
        }
        let results = queries
            .iter()
            .zip(unions)
            .map(|(query, union)| match merge_answer(query, union) {
                Ok(answer) => WireResult::Ok(answer),
                Err(e) => WireResult::Err(e),
            })
            .collect();
        Response::BatchAnswer { id, results }
    }

    /// The backend profile across the deployment. One member per set
    /// answers — replicas serve the same committed epochs, so any
    /// member's numbers stand for the shard.
    fn stats(&self, user: &UserHandle) -> Result<WireStats, WireError> {
        let per_shard = (0..self.addrs.len())
            .map(|shard| {
                let order = self.state().members.read_order(shard);
                self.exchange(&order, user, Mode::Read, None, &mut |conn| conn.stats())
            })
            .collect::<Result<Vec<_>, ShardFailure>>()?;
        per_shard
            .into_iter()
            .reduce(merge::fold_stats)
            .ok_or_else(|| WireError::new(ErrorCode::ShardUnavailable, "no shards configured"))
    }
}

fn partial_result(union: merge::Answered) -> WirePartialResult {
    match union {
        Ok(partials) => WirePartialResult::Ok(partials),
        Err(e) => WirePartialResult::Err(e),
    }
}

impl ServeHandler for RouterHandler {
    /// Authenticate the credential against the first member that can be
    /// reached, on a fresh dial (the pool is keyed by user id, not by
    /// credential) — the router holds no credential store of its own, so
    /// upstream acceptance *is* the authentication, and a refusal is its
    /// answer (`auth_failed`), not retried: every member shares the same
    /// enclave registry.
    fn handshake(
        &self,
        user_id: u64,
        credential: [u8; 32],
    ) -> Result<(UserHandle, DeploymentFacts), Response> {
        let user = UserHandle {
            user_id: concealer_core::UserId(user_id),
            credential: concealer_core::Credential(credential),
        };
        let fail = |code, why| Response::Error {
            id: CONNECTION_LEVEL_ID,
            error: WireError::new(code, why),
        };
        let mut last = String::new();
        for at in self.every_member() {
            let mut facts = |conn: &mut Session| {
                let upstream = conn.server_info();
                Ok(DeploymentFacts {
                    backend: upstream.backend.clone(),
                    ingest_allowed: upstream.ingest_allowed,
                })
            };
            let authenticated = self.gate(at).and_then(|()| {
                let conn = self.dial(at, &user);
                self.attempt(at, false, conn, Some(user_id), &mut facts).0
            });
            match authenticated {
                Ok(facts) => return Ok((user, facts)),
                Err(ShardFailure::Unavailable(msg)) => last = msg,
                Err(ShardFailure::Server(e)) => return Err(fail(ErrorCode::AuthFailed, e.message)),
            }
        }
        let why = format!("no shard reachable to authenticate against (last: {last})");
        Err(fail(ErrorCode::ShardUnavailable, why))
    }

    /// `Execute` and `ExecutePartial` share one fan and differ only in
    /// whether the partial union is merged; so do the two batch requests.
    fn execute(&self, user: &UserHandle, request: EngineRequest) -> Response {
        let merge = matches!(
            request,
            EngineRequest::Execute { .. } | EngineRequest::ExecuteBatch { .. }
        );
        match request {
            EngineRequest::Execute { id, query, options }
            | EngineRequest::ExecutePartial { id, query, options } => {
                self.query(user, id, &query, options, merge)
            }
            EngineRequest::ExecuteBatch {
                id,
                queries,
                options,
            }
            | EngineRequest::ExecuteBatchPartial {
                id,
                queries,
                options,
            } => self.batch(user, id, &queries, options, merge),
            EngineRequest::IngestEpoch {
                id,
                epoch_start,
                records,
            } => match self.ingest(user, epoch_start, &records) {
                Ok(rows_stored) => Response::IngestOk {
                    id,
                    epoch_id: epoch_start,
                    rows_stored,
                },
                Err(failure) => Response::Error {
                    id,
                    error: failure.into(),
                },
            },
            EngineRequest::Promote { id } => {
                // Promotion is member-addressed: the wire carries no way
                // to say *which* member of *which* set should take over,
                // and the router already promotes automatically when an
                // ingest finds the writer dead. Operators doing a planned
                // handover connect to the chosen replica directly (see
                // OPERATIONS.md § "Planned writer handover").
                Response::Error {
                    id,
                    error: WireError::new(
                        ErrorCode::InvalidConfig,
                        "the router does not forward Promote; connect directly to the replica \
                         member that should become the writer",
                    ),
                }
            }
            EngineRequest::Stats { id } => match self.stats(user) {
                Ok(stats) => Response::StatsOk { id, stats },
                Err(error) => Response::Error { id, error },
            },
        }
    }

    /// Forward the client's attestation challenge to every replica-set
    /// member and relay the signed quotes verbatim, retagging only the
    /// shard/member labels to the router's own configuration (a shard
    /// server cannot know its position in a replica set). The router
    /// dials fresh probe sessions — pooled sessions are post-handshake,
    /// where `Attest` is a protocol violation — and skips members that
    /// are unreachable or backing off: attestation needs proof that the
    /// enclaves *serving* are genuine, and a dead member is not serving.
    /// A failed dial backs the member off like any other. Zero reachable
    /// members means the client can verify nothing, which is a
    /// structured `attestation_failed`, never an empty `AttestOk`.
    fn attest(&self, id: u64, nonce: [u8; 32]) -> Response {
        let mut quotes: Vec<WireQuote> = Vec::new();
        let mut last = String::new();
        for at in self.every_member() {
            let relayed = self.gate(at).and_then(|()| {
                let addr = &self.addrs[at.shard][at.member];
                let probe = upstream_builder(&self.config, addr)
                    .attest_nonce(nonce)
                    .probe();
                let mut take = |session: &mut Session| Ok(session.quotes().to_vec());
                self.attempt(at, false, probe, None, &mut take).0
            });
            match relayed {
                Ok(relayed) => quotes.extend(relayed.into_iter().map(|quote| WireQuote {
                    shard_index: at.shard as u32,
                    member: at.member as u32,
                    ..quote
                })),
                Err(failure) => last = WireError::from(failure).message,
            }
        }
        if quotes.is_empty() {
            let why = format!("no upstream enclave produced a quote (last: {last})");
            let error = WireError::new(ErrorCode::AttestationFailed, why);
            return Response::Error { id, error };
        }
        Response::AttestOk { id, quotes }
    }

    fn shard_info(&self, id: u64) -> Response {
        let shard = self.descriptor.clone();
        Response::ShardInfoOk { id, shard }
    }

    fn router_stats(&self, id: u64) -> Response {
        let now = self.started.elapsed();
        let stats = self.state().members.stats(&self.addrs, now);
        Response::RouterStatsOk { id, stats }
    }

    /// A wire shutdown at the router drains the whole deployment:
    /// forward it to every member of every set (tolerating members that
    /// are already gone), then let the serving core drain the router
    /// itself.
    fn on_wire_shutdown(&self, user: &UserHandle) {
        for at in self.every_member() {
            let mut shutdown = |conn: &mut Session| conn.shutdown_server();
            let _ = self.exchange(&[at], user, Mode::Read, None, &mut shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concealer_server::protocol::WirePartial;
    use merge::split_members;

    #[test]
    fn probe_refuses_empty_shard_list() {
        let err = RouterHandler::probe(RouterConfig::default()).unwrap_err();
        assert!(err.to_string().contains("no shards"));
    }

    #[test]
    fn probe_refuses_unreachable_shard() {
        // A bound-then-dropped listener leaves a port nothing listens on.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("local addr").port()
        };
        let config = RouterConfig {
            shards: vec![format!("127.0.0.1:{port}")],
            connect_timeout: Duration::from_millis(250),
            ..RouterConfig::default()
        };
        let err = RouterHandler::probe(config).unwrap_err();
        assert!(
            err.to_string().contains("probing shard 0"),
            "unexpected probe error: {err}"
        );
    }

    #[test]
    fn split_members_drops_empty_segments() {
        assert_eq!(
            split_members("127.0.0.1:7000,127.0.0.1:7001"),
            vec!["127.0.0.1:7000".to_string(), "127.0.0.1:7001".to_string()]
        );
        assert_eq!(
            split_members(" 127.0.0.1:7000 , ,127.0.0.1:7001,"),
            vec!["127.0.0.1:7000".to_string(), "127.0.0.1:7001".to_string()]
        );
        assert!(split_members(",,").is_empty());
    }

    #[test]
    fn round_robin_cursor_cycles_members() {
        let mut members = Members::new(&[(3, 0)], Duration::ZERO, Duration::ZERO);
        let picks: Vec<usize> = (0..6).map(|_| members.read_order(0)[0].member).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        let order = |o: Vec<MemberId>| o.iter().map(|at| at.member).collect::<Vec<_>>();
        assert_eq!(order(members.read_order(0)), vec![0, 1, 2]);
        assert_eq!(order(members.read_order(0)), vec![1, 2, 0]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(100);
        let max = Duration::from_millis(350);
        let mut members = Members::new(&[(1, 0)], base, max);
        let at = MemberId {
            shard: 0,
            member: 0,
        };
        let t = Duration::from_secs(7);
        assert!(members.may_try(at, t));
        // base · 2^(streak−1), capped: 100, 200, then 400 → 350 for good.
        let expected = [100, 200, 350, 350, 350].map(Duration::from_millis);
        for backoff in expected {
            members.report(at, Event::DialFailed, t);
            assert!(!members.may_try(at, t + backoff - Duration::from_nanos(1)));
            assert!(members.may_try(at, t + backoff));
        }
        assert_eq!(members.backoff(40), max);
        // A reply clears the streak: the next failure backs off from base.
        members.report(at, Event::Replied, t);
        assert!(members.may_try(at, t));
        members.report(at, Event::DialFailed, t);
        assert!(members.may_try(at, t + base));
        assert!(!members.may_try(at, t + base - Duration::from_nanos(1)));
    }

    #[test]
    fn split_batch_propagates_shard_failures_positionally() {
        let per_shard = vec![
            Ok(vec![Ok(vec![]), Ok(vec![])]),
            Err(ShardFailure::Unavailable("shard 1 down".to_string())),
        ];
        let per_query = split_batch(per_shard, 2);
        assert_eq!(per_query.len(), 2);
        for outcomes in &per_query {
            assert_eq!(outcomes.len(), 2);
            assert!(matches!(outcomes[0], Ok(Ok(_))));
            assert!(matches!(outcomes[1], Err(ShardFailure::Unavailable(_))));
        }
    }

    #[test]
    fn split_batch_turns_length_mismatch_into_unavailable() {
        let per_shard = vec![Ok(vec![Ok(Vec::<WirePartial>::new())])];
        let per_query = split_batch(per_shard, 2);
        assert_eq!(per_query.len(), 2);
        assert!(matches!(per_query[1][0], Err(ShardFailure::Unavailable(_))));
    }
}
