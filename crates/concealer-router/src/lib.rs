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
//! startup probe discovers them from each member's extended `ShardInfo`
//! descriptor (`role`, protocol v3) and validates that every set has
//! exactly one writer. At serve time:
//!
//! - **reads** (partial executions, stats) round-robin across a set's
//!   members and fail over to the remaining members before a query is
//!   given up as `shard_unavailable`;
//! - **ingest** goes to the set's writer only — epoch ownership is a
//!   partition, and only the writer may mutate the shared store. If the
//!   writer is unreachable on a *fresh dial* (dead, not merely slow),
//!   the router promotes the first healthy replica over the wire
//!   (`Request::Promote`), swaps its writer pointer, and retries the
//!   ingest exactly once on the new writer.
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
//! error naming the shard, the router backs off the failing members,
//! and later requests retry through fresh connections (see
//! `OPERATIONS.md` § "Failure playbook").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use concealer_client::{ClientBuilder, ClientError, Pending, Session, TrustPolicy};
use concealer_core::{merge_partials, shard_of_epoch, Query, UserHandle};
use concealer_server::protocol::{
    Response, RouterStats, ShardDescriptor, ShardLoad, ShardRole, WirePartial, WirePartialResult,
    WireQuote, CONNECTION_LEVEL_ID,
};
use concealer_server::{
    DeploymentFacts, EngineRequest, ErrorCode, ServeHandler, WireError, WireResult, WireStats,
};

/// Everything that tunes a router deployment (the serving side — bind
/// address, connection caps, batch and frame limits, mode — stays in
/// [`ServerConfig`](concealer_server::ServerConfig)).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Name the router presents to its upstream shards (clients see
    /// `ServerConfig::server_name`).
    pub router_name: String,
    /// Upstream shard addresses **in shard order**: `shards[i]` must
    /// name the server(s) started with `--shard i/N`. Each entry is a
    /// comma-separated replica-set member list (a single address is a
    /// one-member set); member roles are discovered from `ShardInfo` at
    /// probe time, and every set must have exactly one writer.
    pub shards: Vec<String>,
    /// Cap on establishing one upstream TCP connection.
    pub connect_timeout: Duration,
    /// Cap on each blocking upstream read. A shard that accepted work
    /// and went silent turns into a clean `shard_unavailable` after this
    /// long instead of wedging a connection thread.
    pub read_timeout: Duration,
    /// First backoff applied to an upstream after a transport failure;
    /// doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Ceiling of the exponential backoff.
    pub backoff_max: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            router_name: "concealer-router".to_string(),
            shards: Vec::new(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
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

/// Why one shard could not contribute to a fan-out.
enum ShardFailure {
    /// Transport-level: the shard is unreachable or the stream tore. The
    /// client sees a structured [`ErrorCode::ShardUnavailable`].
    Unavailable(String),
    /// The shard answered with a structured error reply (its stream
    /// stayed frame-aligned).
    Server(WireError),
}

/// Mutable per-member state, held only across pool operations — never
/// across network I/O, so concurrent connections fan out in parallel.
struct UpstreamState {
    /// Checkout refuses (fast `shard_unavailable`) until this instant.
    down_until: Option<Instant>,
    /// Consecutive transport failures, driving the exponential backoff.
    fail_streak: u32,
    /// Idle authenticated sessions, keyed by user id. Upstream
    /// sessions are per-credential, so they are not shareable
    /// across users.
    pool: HashMap<u64, Vec<Session>>,
}

/// One replica-set member: its address, connection pool, backoff state,
/// and load counters (reported by `Request::RouterStats`).
struct Upstream {
    /// Shard position this member serves a slice of.
    shard: u32,
    /// Position within the shard's replica set (the order of the
    /// configured member list).
    member: u32,
    addr: String,
    state: Mutex<UpstreamState>,
    requests_forwarded: AtomicU64,
    errors: AtomicU64,
    reconnects: AtomicU64,
}

impl Upstream {
    fn new(shard: u32, member: u32, addr: String) -> Upstream {
        Upstream {
            shard,
            member,
            addr,
            state: Mutex::new(UpstreamState {
                down_until: None,
                fail_streak: 0,
                pool: HashMap::new(),
            }),
            requests_forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, UpstreamState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether checkout would refuse right now (used by the stats
    /// snapshot's `available` flag).
    fn in_backoff(&self) -> bool {
        self.lock()
            .down_until
            .is_some_and(|until| until > Instant::now())
    }

    /// Take an idle pooled session for `user`, if any. `None` means
    /// the caller dials; `Err` means the member is backing off.
    fn checkout(&self, user_id: u64) -> Result<Option<Session>, ShardFailure> {
        let mut state = self.lock();
        if state.down_until.is_some_and(|until| until > Instant::now()) {
            return Err(self.unavailable("backing off after a transport failure"));
        }
        Ok(state.pool.get_mut(&user_id).and_then(Vec::pop))
    }

    /// Return a healthy session to the pool.
    fn checkin(&self, user_id: u64, conn: Session) {
        self.lock().pool.entry(user_id).or_default().push(conn);
    }

    /// A request round-tripped: clear the failure streak.
    fn mark_up(&self) {
        let mut state = self.lock();
        state.fail_streak = 0;
        state.down_until = None;
    }

    /// A fresh dial (not just a stale pooled stream) failed: back off
    /// exponentially and drop every pooled connection — they share the
    /// dead peer.
    fn mark_down(&self, config: &RouterConfig) {
        let mut state = self.lock();
        state.fail_streak = state.fail_streak.saturating_add(1);
        let exp = state.fail_streak.saturating_sub(1).min(16);
        let backoff = config
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(config.backoff_max);
        state.down_until = Some(Instant::now() + backoff);
        state.pool.clear();
    }

    fn unavailable(&self, why: &str) -> ShardFailure {
        ShardFailure::Unavailable(format!(
            "shard {} ({}) unavailable: {why}",
            self.shard, self.addr
        ))
    }
}

/// One shard position's replica set: its members in configured order,
/// the current writer, and a round-robin cursor for read balancing.
struct ShardSet {
    members: Vec<Upstream>,
    /// Index into `members` of the current writer. Swapped (only) by a
    /// successful promotion after the probed writer died.
    writer: AtomicUsize,
    /// Round-robin cursor: successive reads start at successive members
    /// so partial executions spread across the set.
    rr: AtomicUsize,
}

impl ShardSet {
    /// Advance the read cursor and return the member index the next
    /// read should start from.
    fn next_read(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.members.len()
    }
}

/// The builder every upstream dial starts from: the router's timeouts,
/// its name, and — crucially — the *unattested* trust policy. The router
/// still runs the v4 attestation round (upstream servers demand it
/// before `Hello`) but never verifies the quotes: it is an untrusted
/// intermediary with no say in trust decisions. End clients verify the
/// relayed quotes themselves.
fn upstream_builder(config: &RouterConfig, addr: &str) -> ClientBuilder {
    ClientBuilder::new(addr)
        .client_name(&config.router_name)
        .connect_timeout(config.connect_timeout)
        .read_timeout(config.read_timeout)
        .write_timeout(config.read_timeout)
        .trust_policy(TrustPolicy::allow_unattested())
}

/// Split one configured shard entry into its member addresses (empty
/// segments from stray commas are dropped).
fn split_members(entry: &str) -> Vec<String> {
    entry
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn role_name(role: ShardRole) -> &'static str {
    match role {
        ShardRole::Writer => "writer",
        ShardRole::Replica => "replica",
    }
}

/// The [`ServeHandler`] that answers by fanning out to shard servers.
///
/// Built by [`RouterHandler::probe`], which validates the shard map
/// before any client traffic is accepted; served via
/// [`Server::with_handler`](concealer_server::Server::with_handler).
pub struct RouterHandler {
    config: RouterConfig,
    sets: Vec<ShardSet>,
    /// Epoch duration every member agreed on at probe time.
    epoch_duration: u64,
    /// Union of the members' registered epochs at probe time — a
    /// startup snapshot for topology discovery, not a live inventory
    /// (shards keep ingesting after the probe).
    probed_epochs: Vec<u64>,
    /// Highest committed store generation reported at probe time.
    probed_generation: u64,
}

impl std::fmt::Debug for RouterHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandler")
            .field("config", &self.config)
            .field("epoch_duration", &self.epoch_duration)
            .finish_non_exhaustive()
    }
}

impl RouterHandler {
    /// Probe every configured member and validate the shard map:
    /// `shards[i]`'s members must all report slice `i` of
    /// `shards.len()`, every member must agree on the epoch duration,
    /// and every replica set must have exactly one writer. Refusing to
    /// start on a disagreement is what keeps a mis-wired deployment
    /// from serving silently wrong (partially merged) answers — and the
    /// refusal names **every** disagreeing member and the map it
    /// reported, so one startup failure is enough to see the whole
    /// mis-wiring instead of fixing it one address at a time.
    pub fn probe(config: RouterConfig) -> Result<RouterHandler, RouterError> {
        if config.shards.is_empty() {
            return Err(RouterError("router configured with no shards".to_string()));
        }
        let total = u32::try_from(config.shards.len())
            .map_err(|_| RouterError("shard count exceeds u32".to_string()))?;
        let mut epoch_duration: Option<u64> = None;
        let mut epochs = BTreeSet::new();
        let mut probed_generation = 0u64;
        let mut disagreements: Vec<String> = Vec::new();
        let mut sets = Vec::new();
        for (i, entry) in config.shards.iter().enumerate() {
            let index = i as u32;
            let addrs = split_members(entry);
            if addrs.is_empty() {
                return Err(RouterError(format!(
                    "shard {index} has no member addresses (entry {entry:?})"
                )));
            }
            let mut members = Vec::new();
            let mut writers: Vec<usize> = Vec::new();
            let mut roles: Vec<String> = Vec::new();
            for (m, addr) in addrs.iter().enumerate() {
                let mut conn = upstream_builder(&config, addr).probe().map_err(|e| {
                    RouterError(format!("probing shard {index} at {addr} failed: {e}"))
                })?;
                let descriptor = conn.shard_info().map_err(|e| {
                    RouterError(format!("shard {index} at {addr} refused ShardInfo: {e}"))
                })?;
                if descriptor.shard_total != total {
                    disagreements.push(format!(
                        "{addr} reports {}/{} but the router is configured with {total} shards",
                        descriptor.shard_index, descriptor.shard_total
                    ));
                } else if descriptor.shard_index != index {
                    disagreements.push(format!(
                        "{addr} reports slice {}/{} but is listed at position {index} (shard \
                         addresses must be in shard order)",
                        descriptor.shard_index, descriptor.shard_total
                    ));
                }
                match epoch_duration {
                    None => epoch_duration = Some(descriptor.epoch_duration),
                    Some(d) if d != descriptor.epoch_duration => {
                        disagreements.push(format!(
                            "{addr} uses epoch duration {} but shard 0 uses {d}",
                            descriptor.epoch_duration
                        ));
                    }
                    Some(_) => {}
                }
                if descriptor.role == ShardRole::Writer {
                    writers.push(m);
                }
                roles.push(format!("{addr}={}", role_name(descriptor.role)));
                probed_generation = probed_generation.max(descriptor.store_generation);
                epochs.extend(descriptor.epochs);
                members.push(Upstream::new(index, m as u32, addr.clone()));
            }
            let writer = match writers.as_slice() {
                [w] => *w,
                [] => {
                    disagreements.push(format!(
                        "shard {index} replica set has no writer ({})",
                        roles.join(", ")
                    ));
                    0
                }
                many => {
                    disagreements.push(format!(
                        "shard {index} replica set has {} writers ({})",
                        many.len(),
                        roles.join(", ")
                    ));
                    0
                }
            };
            sets.push(ShardSet {
                members,
                writer: AtomicUsize::new(writer),
                rr: AtomicUsize::new(0),
            });
        }
        if !disagreements.is_empty() {
            return Err(RouterError(format!(
                "shard map disagreement: {}",
                disagreements.join("; ")
            )));
        }
        Ok(RouterHandler {
            config,
            sets,
            epoch_duration: epoch_duration.unwrap_or(0),
            probed_epochs: epochs.into_iter().collect(),
            probed_generation,
        })
    }

    /// Dial and authenticate a fresh session to `upstream` as `user`
    /// (the router forwards the client's credential verbatim — it holds
    /// no authority of its own).
    fn dial(&self, upstream: &Upstream, user: &UserHandle) -> Result<Session, ClientError> {
        upstream_builder(&self.config, &upstream.addr)
            .credential(user.user_id.0, user.credential.0)
            .connect()
    }

    /// Run one submit/wait exchange against `upstream`, reusing a pooled
    /// connection when one exists. `retry` allows one full retry on a
    /// fresh connection — right for idempotent reads, wrong for ingest.
    ///
    /// A structured error reply leaves the stream frame-aligned, so the
    /// connection is still pooled; any transport failure drops it, and a
    /// failure on a *freshly dialed* connection marks the member down.
    fn call_shard<T>(
        &self,
        upstream: &Upstream,
        user: &UserHandle,
        retry: bool,
        op: &mut dyn FnMut(&mut Session) -> Result<T, ClientError>,
    ) -> Result<T, ShardFailure> {
        let user_id = user.user_id.0;
        let pooled = upstream.checkout(user_id)?;
        let pooled_was_fresh = pooled.is_none();
        upstream.requests_forwarded.fetch_add(1, Ordering::Relaxed);
        let mut conn = match pooled {
            Some(conn) => conn,
            None => match self.dial(upstream, user) {
                Ok(conn) => conn,
                Err(e) => {
                    upstream.errors.fetch_add(1, Ordering::Relaxed);
                    upstream.mark_down(&self.config);
                    return Err(upstream.unavailable(&e.to_string()));
                }
            },
        };
        match op(&mut conn) {
            Ok(value) => {
                upstream.checkin(user_id, conn);
                upstream.mark_up();
                return Ok(value);
            }
            Err(ClientError::Server(e)) => {
                // The reply arrived; only its content was an error. Drop
                // the connection out of caution (connection-level errors
                // usually precede a close) but do not back off.
                return Err(ShardFailure::Server(e));
            }
            Err(e) => {
                upstream.errors.fetch_add(1, Ordering::Relaxed);
                if pooled_was_fresh || !retry {
                    // The failure happened on a connection we just
                    // dialed, so the member itself is unhealthy.
                    if pooled_was_fresh {
                        upstream.mark_down(&self.config);
                    }
                    return Err(upstream.unavailable(&e.to_string()));
                }
            }
        }
        // The pooled connection was stale (typical after a member
        // restart): reconnect and retry the exchange once.
        upstream.reconnects.fetch_add(1, Ordering::Relaxed);
        let mut conn = match self.dial(upstream, user) {
            Ok(conn) => conn,
            Err(e) => {
                upstream.errors.fetch_add(1, Ordering::Relaxed);
                upstream.mark_down(&self.config);
                return Err(upstream.unavailable(&e.to_string()));
            }
        };
        match op(&mut conn) {
            Ok(value) => {
                upstream.checkin(user_id, conn);
                upstream.mark_up();
                Ok(value)
            }
            Err(ClientError::Server(e)) => Err(ShardFailure::Server(e)),
            Err(e) => {
                upstream.errors.fetch_add(1, Ordering::Relaxed);
                upstream.mark_down(&self.config);
                Err(upstream.unavailable(&e.to_string()))
            }
        }
    }

    /// Run a read exchange against `set`, starting at member `start`
    /// and failing over through the remaining members before giving the
    /// shard up as unavailable. A structured error reply ends the
    /// attempt immediately — replicas are bit-identical, so every
    /// member would answer the same error.
    fn call_set_from<T>(
        &self,
        set: &ShardSet,
        user: &UserHandle,
        start: usize,
        op: &mut dyn FnMut(&mut Session) -> Result<T, ClientError>,
    ) -> Result<T, ShardFailure> {
        let n = set.members.len();
        let mut last: Option<ShardFailure> = None;
        for k in 0..n {
            let member = &set.members[(start + k) % n];
            match self.call_shard(member, user, true, op) {
                Ok(value) => return Ok(value),
                Err(ShardFailure::Server(e)) => return Err(ShardFailure::Server(e)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("replica sets have at least one member"))
    }

    /// A read exchange against `set` starting at the round-robin cursor.
    fn call_set_read<T>(
        &self,
        set: &ShardSet,
        user: &UserHandle,
        op: &mut dyn FnMut(&mut Session) -> Result<T, ClientError>,
    ) -> Result<T, ShardFailure> {
        let start = set.next_read();
        self.call_set_from(set, user, start, op)
    }

    /// Route one ingest to `set`'s writer — never retried there (a
    /// retried ingest that half-landed would double-apply). If the
    /// writer is unreachable on a fresh dial, promote the first healthy
    /// replica over the wire, swap the writer pointer, and retry the
    /// ingest exactly once on the new writer (the epoch cannot have
    /// half-landed: the dead writer never committed it, and the manifest
    /// commit point makes a torn segment invisible after the promotion's
    /// recovery pass).
    fn call_set_ingest(
        &self,
        set: &ShardSet,
        user: &UserHandle,
        epoch_start: u64,
        records: &[concealer_core::Record],
    ) -> Result<u64, ShardFailure> {
        let writer_idx = set.writer.load(Ordering::Acquire);
        let writer = &set.members[writer_idx];
        let unavailable = match self.call_shard(writer, user, false, &mut |conn| {
            conn.ingest_epoch(epoch_start, records)
        }) {
            Ok(rows) => return Ok(rows),
            Err(ShardFailure::Server(e)) => return Err(ShardFailure::Server(e)),
            Err(e) => e,
        };
        // A torn pooled stream alone is not death — the exchange's
        // outcome is unknown and the writer may be fine. Only a failed
        // *fresh dial* licenses promotion; if the writer still answers,
        // surface the failure and let the operator (or the next ingest)
        // decide.
        if self.dial(writer, user).is_ok() {
            return Err(unavailable);
        }
        // Mid-load failover: the writer is gone. Promotion re-opens the
        // shared store as owner — no key material moves, and recovery
        // truncates any segment the dead writer tore mid-write.
        for k in 1..set.members.len() {
            let idx = (writer_idx + k) % set.members.len();
            let member = &set.members[idx];
            match self.call_shard(member, user, false, &mut |conn| conn.promote()) {
                Ok(_epochs_registered) => {
                    set.writer.store(idx, Ordering::Release);
                    return self.call_shard(member, user, false, &mut |conn| {
                        conn.ingest_epoch(epoch_start, records)
                    });
                }
                Err(ShardFailure::Server(e)) => return Err(ShardFailure::Server(e)),
                Err(_) => continue,
            }
        }
        Err(unavailable)
    }

    /// Fan one pipelined exchange out to **every** shard: submit on all
    /// upstream connections first, then collect the replies — so the
    /// shards execute concurrently while the calling thread blocks only
    /// once per upstream, in shard order. Within each replica set the
    /// round-robin cursor picks the member, so successive fans spread
    /// reads across the set.
    ///
    /// Epoch ownership is hash-scattered across the slice space
    /// ([`shard_of_epoch`]), so any time range may touch any shard; the
    /// partition of work happens structurally, because each shard only
    /// holds (and therefore only executes) the epochs its slice owns.
    /// A member whose checked-out connection tears at submit or wait
    /// time falls back to a sequential retry through
    /// [`Self::call_set_from`], which fails over to the set's other
    /// members.
    fn fan<T>(
        &self,
        user: &UserHandle,
        submit: &dyn Fn(&mut Session) -> Result<Pending, ClientError>,
        wait: &dyn Fn(&mut Session, Pending) -> Result<T, ClientError>,
    ) -> Vec<Result<T, ShardFailure>> {
        let user_id = user.user_id.0;
        // Phase 1: put a request on the wire to every reachable shard.
        let mut in_flight: Vec<(usize, Option<(Session, Pending)>)> = Vec::new();
        for set in &self.sets {
            let start = set.next_read();
            let member = &set.members[start];
            let slot = match member.checkout(user_id) {
                Err(_) | Ok(None) => None, // backoff or no pooled conn: sequential path below
                Ok(Some(mut conn)) => match submit(&mut conn) {
                    Ok(pending) => {
                        member.requests_forwarded.fetch_add(1, Ordering::Relaxed);
                        Some((conn, pending))
                    }
                    // Stale pooled stream: drop it; the sequential retry
                    // below dials fresh.
                    Err(_) => None,
                },
            };
            in_flight.push((start, slot));
        }
        // Phase 2: collect, falling back to a fresh sequential exchange
        // wherever phase 1 had nothing usable in flight.
        self.sets
            .iter()
            .zip(in_flight)
            .map(|(set, (start, slot))| match slot {
                Some((mut conn, pending)) => {
                    let member = &set.members[start];
                    match wait(&mut conn, pending) {
                        Ok(value) => {
                            member.checkin(user_id, conn);
                            member.mark_up();
                            Ok(value)
                        }
                        Err(ClientError::Server(e)) => Err(ShardFailure::Server(e)),
                        Err(_) => {
                            // The pipelined attempt tore mid-reply; retry
                            // the whole exchange, failing over through the
                            // set's other members.
                            member.errors.fetch_add(1, Ordering::Relaxed);
                            member.reconnects.fetch_add(1, Ordering::Relaxed);
                            self.call_set_from(set, user, start, &mut |conn| {
                                let pending = submit(conn)?;
                                wait(conn, pending)
                            })
                        }
                    }
                }
                None => self.call_set_from(set, user, start, &mut |conn| {
                    let pending = submit(conn)?;
                    wait(conn, pending)
                }),
            })
            .collect()
    }

    /// Collapse one query's per-shard partial outcomes into the partial
    /// union, or the error the client should see. Structured errors win
    /// over transport errors (they are the more specific diagnosis), and
    /// the lowest shard index wins among structured errors so the choice
    /// is deterministic.
    fn combine_partials(
        outcomes: Vec<Result<Result<Vec<WirePartial>, WireError>, ShardFailure>>,
    ) -> Result<Vec<WirePartial>, WireError> {
        let mut partials = Vec::new();
        let mut unavailable: Option<WireError> = None;
        for outcome in outcomes {
            match outcome {
                Ok(Ok(shard_partials)) => partials.extend(shard_partials),
                Ok(Err(e)) | Err(ShardFailure::Server(e)) => return Err(e),
                Err(ShardFailure::Unavailable(msg)) => {
                    unavailable
                        .get_or_insert_with(|| WireError::new(ErrorCode::ShardUnavailable, msg));
                }
            }
        }
        match unavailable {
            // A missing slice must never silently shrink an answer.
            Some(e) => Err(e),
            None => {
                partials.sort_by_key(|p| p.epoch_id);
                Ok(partials)
            }
        }
    }

    /// Merge a query's partial union into the final answer, reproducing
    /// the single-process execution bit-for-bit (including the
    /// `NoDataForRange` refusal when no shard held an overlapping epoch).
    fn merge_answer(
        query: &Query,
        partials: Vec<WirePartial>,
    ) -> Result<concealer_core::QueryAnswer, WireError> {
        merge_partials(
            query,
            partials
                .into_iter()
                .map(WirePartial::into_partial)
                .collect(),
        )
        .map_err(|e| WireError::from(&e))
    }
}

impl ServeHandler for RouterHandler {
    /// Authenticate the credential against the first reachable member —
    /// the router holds no credential store of its own, so upstream
    /// acceptance *is* the authentication.
    fn handshake(
        &self,
        user_id: u64,
        credential: [u8; 32],
    ) -> Result<(UserHandle, DeploymentFacts), Response> {
        let user = UserHandle {
            user_id: concealer_core::UserId(user_id),
            credential: concealer_core::Credential(credential),
        };
        let mut last_unreachable: Option<String> = None;
        for set in &self.sets {
            for member in &set.members {
                if member.in_backoff() {
                    last_unreachable = Some(format!(
                        "shard {} ({}) backing off",
                        member.shard, member.addr
                    ));
                    continue;
                }
                member.requests_forwarded.fetch_add(1, Ordering::Relaxed);
                match self.dial(member, &user) {
                    Ok(conn) => {
                        let upstream = conn.server_info();
                        let facts = DeploymentFacts {
                            backend: upstream.backend.clone(),
                            ingest_allowed: upstream.ingest_allowed,
                        };
                        member.checkin(user_id, conn);
                        member.mark_up();
                        return Ok((user, facts));
                    }
                    Err(ClientError::Handshake(e)) => {
                        // The member answered and refused: the credential
                        // (or version) is bad, and every member shares the
                        // same enclave registry — propagate instead of
                        // retrying.
                        return Err(Response::Error {
                            id: CONNECTION_LEVEL_ID,
                            error: WireError::new(
                                ErrorCode::AuthFailed,
                                format!("upstream shard {} refused: {e}", member.shard),
                            ),
                        });
                    }
                    Err(e) => {
                        member.errors.fetch_add(1, Ordering::Relaxed);
                        member.mark_down(&self.config);
                        last_unreachable =
                            Some(format!("shard {} ({}): {e}", member.shard, member.addr));
                    }
                }
            }
        }
        Err(Response::Error {
            id: CONNECTION_LEVEL_ID,
            error: WireError::new(
                ErrorCode::ShardUnavailable,
                format!(
                    "no shard reachable to authenticate against (last: {})",
                    last_unreachable.unwrap_or_else(|| "none tried".to_string())
                ),
            ),
        })
    }

    fn execute(&self, user: &UserHandle, request: EngineRequest) -> Response {
        match request {
            EngineRequest::Execute { id, query, options } => {
                let outcomes = self.fan(
                    user,
                    &|conn| conn.submit_partial(&query, options),
                    &|conn, pending| conn.wait_partial(pending),
                );
                let result =
                    Self::combine_partials(outcomes).and_then(|p| Self::merge_answer(&query, p));
                match result {
                    Ok(answer) => Response::Answer { id, answer },
                    Err(error) => Response::Error { id, error },
                }
            }
            EngineRequest::ExecuteBatch {
                id,
                queries,
                options,
            } => {
                let per_shard = self.fan(
                    user,
                    &|conn| conn.submit_batch_partial(&queries, options),
                    &|conn, pending| conn.wait_batch_partial(pending),
                );
                let per_query = split_batch(per_shard, queries.len());
                let results = queries
                    .iter()
                    .zip(per_query)
                    .map(|(query, outcomes)| {
                        match Self::combine_partials(outcomes)
                            .and_then(|p| Self::merge_answer(query, p))
                        {
                            Ok(answer) => WireResult::Ok(answer),
                            Err(e) => WireResult::Err(e),
                        }
                    })
                    .collect();
                Response::BatchAnswer { id, results }
            }
            EngineRequest::ExecutePartial { id, query, options } => {
                let outcomes = self.fan(
                    user,
                    &|conn| conn.submit_partial(&query, options),
                    &|conn, pending| conn.wait_partial(pending),
                );
                let result = match Self::combine_partials(outcomes) {
                    Ok(partials) => WirePartialResult::Ok(partials),
                    Err(e) => WirePartialResult::Err(e),
                };
                Response::PartialAnswer { id, result }
            }
            EngineRequest::ExecuteBatchPartial {
                id,
                queries,
                options,
            } => {
                let per_shard = self.fan(
                    user,
                    &|conn| conn.submit_batch_partial(&queries, options),
                    &|conn, pending| conn.wait_batch_partial(pending),
                );
                let results = split_batch(per_shard, queries.len())
                    .into_iter()
                    .map(|outcomes| match Self::combine_partials(outcomes) {
                        Ok(partials) => WirePartialResult::Ok(partials),
                        Err(e) => WirePartialResult::Err(e),
                    })
                    .collect();
                Response::BatchPartialAnswer { id, results }
            }
            EngineRequest::IngestEpoch {
                id,
                epoch_start,
                records,
            } => {
                // Epoch ownership is a partition: exactly one shard may
                // take this epoch, so route there — and within the set,
                // to the writer (with promote-on-death failover).
                let owner = shard_of_epoch(epoch_start, self.sets.len());
                let set = &self.sets[owner];
                match self.call_set_ingest(set, user, epoch_start, &records) {
                    Ok(rows_stored) => Response::IngestOk {
                        id,
                        epoch_id: epoch_start,
                        rows_stored,
                    },
                    Err(ShardFailure::Server(error)) => Response::Error { id, error },
                    Err(ShardFailure::Unavailable(msg)) => Response::Error {
                        id,
                        error: WireError::new(ErrorCode::ShardUnavailable, msg),
                    },
                }
            }
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
            EngineRequest::Stats { id } => {
                // Aggregate the backend profile across the deployment:
                // counters sum, the security properties hold only if
                // every slice upholds them. One member per set answers —
                // replicas serve the same committed epochs, so any
                // member's numbers stand for the shard.
                let mut merged: Option<WireStats> = None;
                for set in &self.sets {
                    let stats = match self.call_set_read(set, user, &mut |conn| conn.stats()) {
                        Ok(stats) => stats,
                        Err(ShardFailure::Server(error)) => return Response::Error { id, error },
                        Err(ShardFailure::Unavailable(msg)) => {
                            return Response::Error {
                                id,
                                error: WireError::new(ErrorCode::ShardUnavailable, msg),
                            }
                        }
                    };
                    merged = Some(match merged {
                        None => stats,
                        Some(acc) => WireStats {
                            backend: acc.backend,
                            epochs: acc.epochs + stats.epochs,
                            rows_stored: acc.rows_stored + stats.rows_stored,
                            volume_hiding: acc.volume_hiding && stats.volume_hiding,
                            verifiable: acc.verifiable && stats.verifiable,
                        },
                    });
                }
                match merged {
                    Some(stats) => Response::StatsOk { id, stats },
                    None => Response::Error {
                        id,
                        error: WireError::new(ErrorCode::ShardUnavailable, "no shards configured"),
                    },
                }
            }
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
    /// Zero reachable members means the client can verify nothing, which
    /// is a structured `attestation_failed`, never an empty `AttestOk`.
    fn attest(&self, id: u64, nonce: [u8; 32]) -> Response {
        let mut quotes: Vec<WireQuote> = Vec::new();
        let mut last_failure: Option<String> = None;
        for set in &self.sets {
            for member in &set.members {
                if member.in_backoff() {
                    last_failure = Some(format!(
                        "shard {} ({}) backing off",
                        member.shard, member.addr
                    ));
                    continue;
                }
                member.requests_forwarded.fetch_add(1, Ordering::Relaxed);
                match upstream_builder(&self.config, &member.addr)
                    .attest_nonce(nonce)
                    .probe()
                {
                    Ok(session) => {
                        quotes.extend(session.quotes().iter().map(|quote| WireQuote {
                            shard_index: member.shard,
                            member: member.member,
                            ..quote.clone()
                        }));
                        let _ = session.close();
                    }
                    Err(e) => {
                        member.errors.fetch_add(1, Ordering::Relaxed);
                        last_failure =
                            Some(format!("shard {} ({}): {e}", member.shard, member.addr));
                    }
                }
            }
        }
        if quotes.is_empty() {
            return Response::Error {
                id,
                error: WireError::new(
                    ErrorCode::AttestationFailed,
                    format!(
                        "no upstream enclave produced a quote (last: {})",
                        last_failure.unwrap_or_else(|| "none tried".to_string())
                    ),
                ),
            };
        }
        Response::AttestOk { id, quotes }
    }

    /// The router presents itself as the whole map (`0/1`) and reports
    /// the probe-time union of its shards' epochs — a topology snapshot,
    /// not a live inventory. It reports the writer role: clients route
    /// ingest through it, and it is never itself a read replica.
    fn shard_info(&self, id: u64) -> Response {
        Response::ShardInfoOk {
            id,
            shard: ShardDescriptor {
                shard_index: 0,
                shard_total: 1,
                epoch_duration: self.epoch_duration,
                epochs: self.probed_epochs.clone(),
                role: ShardRole::Writer,
                store_generation: self.probed_generation,
            },
        }
    }

    fn router_stats(&self, id: u64) -> Response {
        Response::RouterStatsOk {
            id,
            stats: RouterStats {
                shards: self
                    .sets
                    .iter()
                    .flat_map(|set| {
                        let writer = set.writer.load(Ordering::Acquire);
                        set.members.iter().enumerate().map(move |(m, u)| ShardLoad {
                            shard_index: u.shard,
                            addr: u.addr.clone(),
                            requests_forwarded: u.requests_forwarded.load(Ordering::Relaxed),
                            errors: u.errors.load(Ordering::Relaxed),
                            reconnects: u.reconnects.load(Ordering::Relaxed),
                            available: !u.in_backoff(),
                            member: u.member,
                            writer: m == writer,
                        })
                    })
                    .collect(),
            },
        }
    }

    /// A wire shutdown at the router drains the whole deployment:
    /// forward it to every member of every set (tolerating members that
    /// are already gone), then let the serving core drain the router
    /// itself.
    fn on_wire_shutdown(&self, user: &UserHandle) {
        for set in &self.sets {
            for member in &set.members {
                let _ = self.call_shard(member, user, false, &mut |conn| conn.shutdown_server());
            }
        }
    }
}

/// Transpose per-shard batch replies into per-query outcome lists for
/// positional merging. A shard whose reply does not line up with the
/// submitted batch is treated as unavailable — a length mismatch means
/// the upstream is not speaking the protocol we validated at probe time.
#[allow(clippy::type_complexity)]
fn split_batch(
    per_shard: Vec<Result<Vec<Result<Vec<WirePartial>, WireError>>, ShardFailure>>,
    queries: usize,
) -> Vec<Vec<Result<Result<Vec<WirePartial>, WireError>, ShardFailure>>> {
    let mut per_query: Vec<Vec<Result<Result<Vec<WirePartial>, WireError>, ShardFailure>>> =
        (0..queries).map(|_| Vec::new()).collect();
    for (shard_index, outcome) in per_shard.into_iter().enumerate() {
        match outcome {
            Ok(results) if results.len() == queries => {
                for (slot, result) in per_query.iter_mut().zip(results) {
                    slot.push(Ok(result));
                }
            }
            Ok(results) => {
                let msg = format!(
                    "shard {shard_index} answered {} results for a {queries}-query batch",
                    results.len()
                );
                for slot in &mut per_query {
                    slot.push(Err(ShardFailure::Unavailable(msg.clone())));
                }
            }
            Err(ShardFailure::Server(e)) => {
                for slot in &mut per_query {
                    slot.push(Err(ShardFailure::Server(e.clone())));
                }
            }
            Err(ShardFailure::Unavailable(msg)) => {
                for slot in &mut per_query {
                    slot.push(Err(ShardFailure::Unavailable(msg.clone())));
                }
            }
        }
    }
    per_query
}

#[cfg(test)]
mod tests {
    use super::*;

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
            read_timeout: Duration::from_millis(250),
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
        let set = ShardSet {
            members: vec![
                Upstream::new(0, 0, "127.0.0.1:1".to_string()),
                Upstream::new(0, 1, "127.0.0.1:2".to_string()),
                Upstream::new(0, 2, "127.0.0.1:3".to_string()),
            ],
            writer: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
        };
        let picks: Vec<usize> = (0..6).map(|_| set.next_read()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let config = RouterConfig {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_millis(350),
            ..RouterConfig::default()
        };
        let upstream = Upstream::new(0, 0, "127.0.0.1:1".to_string());
        assert!(!upstream.in_backoff());
        upstream.mark_down(&config);
        assert!(upstream.in_backoff());
        let first = upstream.lock().down_until.expect("backed off");
        upstream.mark_down(&config);
        let second = upstream.lock().down_until.expect("backed off");
        assert!(second >= first, "backoff must not shrink under failures");
        // After many failures the backoff saturates at the cap.
        for _ in 0..20 {
            upstream.mark_down(&config);
        }
        let capped = upstream.lock().down_until.expect("backed off");
        assert!(capped.saturating_duration_since(Instant::now()) <= Duration::from_millis(400));
        upstream.mark_up();
        assert!(!upstream.in_backoff());
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
