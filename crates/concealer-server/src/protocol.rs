//! The Concealer wire protocol: versioned handshake, request/response
//! message enums, and the frame limits both sides agree on.
//!
//! Every message is one length-prefixed frame (see `serde::frame`): a
//! 4-byte little-endian payload length followed by the payload in the
//! positional `serde::bin` LEB128 format. The message enums below *are*
//! the wire format — variants are tagged by declaration index, fields are
//! written in declaration order — so **their declaration order is part of
//! the protocol**: append new variants, never reorder, and bump
//! [`PROTOCOL_VERSION`] on any incompatible change — which every change
//! to a struct's fields is.
//!
//! A connection's lifecycle:
//!
//! ```text
//! client                                server
//!   │  Request::Hello{version,user,cred}  │
//!   ├────────────────────────────────────▶│  authenticate credential
//!   │      Response::HelloOk(ServerInfo)  │  (or Error{AuthFailed} + close)
//!   │◀────────────────────────────────────┤
//!   │  Request::Execute{id,query,opts}    │
//!   ├────────────────────────────────────▶│  Session::execute_with
//!   │        Response::Answer{id,answer}  │
//!   │◀────────────────────────────────────┤
//!   │  …ExecuteBatch / IngestEpoch /      │  requests may be pipelined;
//!   │    Stats / Shutdown, any order…     │  replies come back in request
//!   │  Request::Goodbye                   │  order per connection
//!   ├────────────────────────────────────▶│
//!   │                      Response::Bye  │
//!   │◀────────────────────────────────────┤ close
//! ```
//!
//! The wire sits in the **untrusted zone** of Concealer's threat model:
//! it connects analysts to the service provider's front-end, exactly like
//! the DBMS connection the paper assumes. Nothing the protocol carries
//! extends the trusted base — queries and answers are the same values the
//! enclave exchanges in-process, answers keep their `verified` metadata,
//! and credentials are the HMAC capabilities the data provider issued out
//! of band (an eavesdropper learns what the untrusted service provider
//! already sees; deploy TLS underneath for channel privacy).

use concealer_core::{ExecOptions, Query, QueryAnswer, Record};
use serde::{Deserialize, Serialize};

use crate::error::WireError;

/// Version of the message set defined in this module. Sent in
/// `Request::Hello`; the server refuses mismatches with
/// [`crate::error::ErrorCode::UnsupportedVersion`].
///
/// No peer of an earlier version was ever deployed, so there is one
/// layout: versions 1–4 appended the routing, replica-set and attestation
/// messages, version 5 dropped the last field of `ExecOptions`, version 6
/// dropped `ServeStats::loop_iterations`. The canonical field-by-field
/// layout of every message lives in `PROTOCOL.md` at the repository root.
pub const PROTOCOL_VERSION: u32 = 6;

/// Request id used for connection-level errors that cannot be attributed
/// to a request (malformed frame, handshake refusal, admission rejection).
/// Clients must not issue this id themselves.
pub const CONNECTION_LEVEL_ID: u64 = 0;

/// Default cap on one frame's payload size (4 MiB): large enough for a
/// maximal batch of `CollectRows` answers, small enough that a malicious
/// length prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME_LEN: usize = 4 << 20;

/// Default cap on the number of queries in one `ExecuteBatch`.
pub const DEFAULT_MAX_BATCH: usize = 256;

/// Client → server messages.
///
/// The first request on a connection must be [`Request::Hello`]; the
/// server answers everything else before it with a
/// [`crate::error::ErrorCode::NotAuthenticated`] error and closes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Versioned hello + authentication, the mandatory first frame.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
        /// The registered user executing on this connection.
        user_id: u64,
        /// The HMAC credential the data provider issued for `user_id`.
        credential: [u8; 32],
        /// Free-form client identification (for server logs only).
        client_name: String,
    },
    /// Execute one query.
    Execute {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
        /// The query.
        query: Query,
        /// Execution options; `None` uses the server's defaults. The
        /// server caps `parallelism` at its configured maximum.
        options: Option<ExecOptions>,
    },
    /// Execute a batch of queries ([`concealer_core::Session::execute_batch`]
    /// semantics: cross-query bin dedup under BPB, per-query fallback
    /// otherwise).
    ExecuteBatch {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
        /// The queries, answered positionally in
        /// [`Response::BatchAnswer::results`].
        queries: Vec<Query>,
        /// Execution options; `None` uses the server's defaults.
        options: Option<ExecOptions>,
    },
    /// Ingest one epoch of cleartext records. This simulates the data
    /// provider's channel: in a real deployment it is a separate,
    /// DP-authenticated endpoint, so servers may refuse it
    /// ([`crate::server::ServerConfig::allow_ingest`]).
    IngestEpoch {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
        /// Epoch start (seconds; also the epoch id).
        epoch_start: u64,
        /// The cleartext readings of the epoch.
        records: Vec<Record>,
    },
    /// Ask for the backend's [`concealer_core::IndexStats`] profile.
    Stats {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
    },
    /// Request a graceful server-wide shutdown: the server acknowledges,
    /// stops accepting connections, drains in-flight requests and exits.
    Shutdown {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
    },
    /// Close this connection cleanly; the server answers [`Response::Bye`].
    Goodbye,
    /// Ask for the *serving layer's* live profile ([`ServeStats`]):
    /// connection counts, dispatch backlog, loop metrics. Complements
    /// [`Request::Stats`], which profiles the storage backend.
    ServeStats {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
    },
    /// Ask which epoch slice this server owns ([`ShardDescriptor`]).
    ///
    /// Unlike every other non-`Hello` request, this is answerable
    /// **before** authentication: it carries deployment metadata only (no
    /// query results), and the router probes it at startup to validate the
    /// shard map before any user credential exists on the connection.
    ShardInfo {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
    },
    /// Execute one query over only the epochs this server owns, answering
    /// with per-epoch partials ([`Response::PartialAnswer`]) instead of a
    /// finished answer. The shard half of routed execution; see
    /// [`concealer_core::QueryEngine::execute_partials`].
    ExecutePartial {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
        /// The query.
        query: Query,
        /// Execution options; `None` uses the server's defaults.
        options: Option<ExecOptions>,
    },
    /// Partial-execution batch: like [`Request::ExecuteBatch`] but each
    /// query answers with its per-epoch partials over this server's slice
    /// ([`Response::BatchPartialAnswer`]), with `(epoch, bin)` fetches
    /// deduplicated across the batch within the slice.
    ExecuteBatchPartial {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
        /// The queries, answered positionally.
        queries: Vec<Query>,
        /// Execution options; `None` uses the server's defaults.
        options: Option<ExecOptions>,
    },
    /// Ask a `concealer-router` for its per-shard forwarding counters
    /// ([`RouterStats`]). Shard servers are not routers and refuse this
    /// with [`crate::error::ErrorCode::ProtocolViolation`].
    RouterStats {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
    },
    /// Promote this server's read-only replica store to writer (a reopen
    /// of the shared durable root — no key material moves). The failover
    /// half of replica sets: the router issues this to a surviving member
    /// when the writer dies. Idempotent on a server that is already the
    /// writer.
    Promote {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
    },
    /// Ask the serving enclave(s) to prove their identity before any
    /// credential is sent. Like [`Request::ShardInfo`], this is
    /// answerable **before** authentication — it must be, because clients
    /// refuse to send `Hello` until the quotes verify. Servers in turn
    /// refuse `Hello` on a connection that has not completed a successful
    /// `Attest` ([`crate::error::ErrorCode::AttestationFailed`]), so the
    /// exchange is mandatory in both directions.
    Attest {
        /// Caller-chosen request id echoed in the reply (must be nonzero).
        id: u64,
        /// Client-chosen freshness challenge, echoed inside every quote's
        /// signature so a captured quote cannot be replayed.
        nonce: [u8; 32],
    },
}

impl Request {
    /// The request id a reply to this request will carry
    /// ([`CONNECTION_LEVEL_ID`] for `Hello` / `Goodbye`).
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Request::Hello { .. } | Request::Goodbye => CONNECTION_LEVEL_ID,
            Request::Execute { id, .. }
            | Request::ExecuteBatch { id, .. }
            | Request::IngestEpoch { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id }
            | Request::ServeStats { id }
            | Request::ShardInfo { id }
            | Request::ExecutePartial { id, .. }
            | Request::ExecuteBatchPartial { id, .. }
            | Request::RouterStats { id }
            | Request::Promote { id }
            | Request::Attest { id, .. } => *id,
        }
    }
}

/// What the server tells a client about itself in [`Response::HelloOk`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// The server's [`PROTOCOL_VERSION`].
    pub protocol_version: u32,
    /// Human-readable server identification.
    pub server_name: String,
    /// Storage backend the sealed epochs live on (`"memory"` / `"disk"`).
    pub backend: String,
    /// Largest accepted `ExecuteBatch` size.
    pub max_batch: u64,
    /// Largest accepted frame payload, in bytes.
    pub max_frame_len: u64,
    /// Whether this server accepts [`Request::IngestEpoch`].
    pub ingest_allowed: bool,
}

/// The backend profile reported by [`Response::StatsOk`] — the wire form
/// of [`concealer_core::IndexStats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Short backend identifier (`"concealer"`).
    pub backend: String,
    /// Epochs ingested so far.
    pub epochs: u64,
    /// Rows stored, including volume-hiding fakes.
    pub rows_stored: u64,
    /// Whether per-query fetch volumes are data-independent.
    pub volume_hiding: bool,
    /// Whether fetched data is integrity-verified.
    pub verifiable: bool,
}

impl From<concealer_core::IndexStats> for WireStats {
    fn from(stats: concealer_core::IndexStats) -> Self {
        WireStats {
            backend: stats.backend.to_string(),
            epochs: stats.epochs as u64,
            rows_stored: stats.rows_stored as u64,
            volume_hiding: stats.volume_hiding,
            verifiable: stats.verifiable,
        }
    }
}

/// The serving layer's live profile, reported by
/// [`Response::ServeStatsOk`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// The serving core's name, always `"threaded"` — kept for
    /// `benchmark/`, removed with [`ServerMode`](crate::server::ServerMode).
    pub mode: String,
    /// Connections live right now (the replying one included).
    pub connections: u64,
    /// High-water mark of concurrently live connections.
    pub peak_connections: u64,
    /// Connections accepted and served so far (busy-rejects excluded).
    pub connections_served: u64,
    /// Work handed to the deployment but not yet answered: admission
    /// permits held plus connection threads waiting for one.
    pub in_flight: u64,
    /// The waiting part of `in_flight`: connection threads blocked at the
    /// admission gate.
    pub backlog: u64,
    /// Replies written so far, error replies included.
    pub requests_served: u64,
}

/// One per-query outcome inside [`Response::BatchAnswer`] (the shim serde
/// derive has no `Result` impl, and the error side must be the wire error
/// anyway).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireResult {
    /// The query succeeded.
    Ok(QueryAnswer),
    /// The query failed; the batch's other queries are unaffected.
    Err(WireError),
}

impl WireResult {
    /// Convert into a std `Result`.
    pub fn into_result(self) -> Result<QueryAnswer, WireError> {
        match self {
            WireResult::Ok(answer) => Ok(answer),
            WireResult::Err(e) => Err(e),
        }
    }
}

impl From<Result<QueryAnswer, concealer_core::CoreError>> for WireResult {
    fn from(result: Result<QueryAnswer, concealer_core::CoreError>) -> Self {
        match result {
            Ok(answer) => WireResult::Ok(answer),
            Err(e) => WireResult::Err(WireError::from(&e)),
        }
    }
}

/// A server's role within its shard's replica set. Tagged by
/// declaration index on the wire, like every protocol enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardRole {
    /// Owns the durable store root: accepts ingest and §6 rewrites.
    /// Single-process deployments and servers without a durable root are
    /// writers too — a replica set of one.
    Writer,
    /// Follows the writer's store root read-only, absorbing committed
    /// epochs on a refresh tick; refuses ingest with
    /// [`crate::error::ErrorCode::NotWriter`] until promoted.
    Replica,
}

/// The epoch slice one shard server owns, reported by
/// [`Response::ShardInfoOk`]. The router probes every upstream at startup
/// and refuses to serve when the shard map is inconsistent (index/total
/// mismatch, missing slices, diverging epoch durations, replica sets
/// without exactly one writer).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardDescriptor {
    /// This server's shard index (0-based), or `0` when unsharded.
    pub shard_index: u32,
    /// Total shard count of the deployment (`1` when unsharded).
    pub shard_total: u32,
    /// The deployment's epoch duration in seconds — every shard must
    /// agree, or time-range routing is meaningless.
    pub epoch_duration: u64,
    /// The epoch ids (start times) this server currently holds, ascending.
    pub epochs: Vec<u64>,
    /// This server's role in the shard's replica set.
    pub role: ShardRole,
    /// The durable store's monotonic commit-point version; `0` on
    /// backends without one. Replica lag is the writer's value minus the
    /// replica's.
    pub store_generation: u64,
}

/// One epoch's contribution to a query answer on the wire — the
/// serializable form of [`concealer_core::EpochPartial`], carried by
/// [`Response::PartialAnswer`] / [`Response::BatchPartialAnswer`]. The
/// accumulator fields are flattened (`per_location` as ascending pairs)
/// because partials cross the wire between shard and router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WirePartial {
    /// The epoch this partial covers (its start time).
    pub epoch_id: u64,
    /// Matching-tuple count.
    pub count: u64,
    /// Sum of the aggregated payload attribute.
    pub sum: u64,
    /// Minimum seen, if any tuple matched.
    pub min: Option<u64>,
    /// Maximum seen, if any tuple matched.
    pub max: Option<u64>,
    /// Per-first-dimension counts, ascending by dimension value.
    pub per_location: Vec<(u64, u64)>,
    /// Collected cleartext records (row-collection queries).
    pub rows: Vec<Record>,
    /// Encrypted rows fetched from this epoch's segments.
    pub rows_fetched: u64,
    /// Rows decrypted while filtering this epoch.
    pub rows_decrypted: u64,
    /// Whether hash-chain verification ran for this epoch's fetches.
    pub verified: bool,
}

impl From<concealer_core::EpochPartial> for WirePartial {
    fn from(partial: concealer_core::EpochPartial) -> Self {
        WirePartial {
            epoch_id: partial.epoch_id,
            count: partial.acc.count,
            sum: partial.acc.sum,
            min: partial.acc.min,
            max: partial.acc.max,
            per_location: partial.acc.per_location.into_iter().collect(),
            rows: partial.acc.rows,
            rows_fetched: partial.rows_fetched as u64,
            rows_decrypted: partial.rows_decrypted as u64,
            verified: partial.verified,
        }
    }
}

impl WirePartial {
    /// Convert back into the engine-side partial for
    /// [`concealer_core::merge_partials`].
    #[must_use]
    pub fn into_partial(self) -> concealer_core::EpochPartial {
        concealer_core::EpochPartial {
            epoch_id: self.epoch_id,
            acc: concealer_core::query::Accumulator {
                count: self.count,
                sum: self.sum,
                min: self.min,
                max: self.max,
                per_location: self.per_location.into_iter().collect(),
                rows: self.rows,
            },
            rows_fetched: self.rows_fetched as usize,
            rows_decrypted: self.rows_decrypted as usize,
            verified: self.verified,
        }
    }
}

/// One per-query outcome of a partial execution
/// ([`Response::PartialAnswer`] / [`Response::BatchPartialAnswer`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WirePartialResult {
    /// The query's per-epoch partials over this server's slice (possibly
    /// empty — other shards may own the query's epochs).
    Ok(Vec<WirePartial>),
    /// The query failed on this server's slice.
    Err(WireError),
}

impl WirePartialResult {
    /// Convert into a std `Result`.
    pub fn into_result(self) -> Result<Vec<WirePartial>, WireError> {
        match self {
            WirePartialResult::Ok(partials) => Ok(partials),
            WirePartialResult::Err(e) => Err(e),
        }
    }
}

impl From<Result<Vec<concealer_core::EpochPartial>, concealer_core::CoreError>>
    for WirePartialResult
{
    fn from(result: Result<Vec<concealer_core::EpochPartial>, concealer_core::CoreError>) -> Self {
        match result {
            Ok(partials) => {
                WirePartialResult::Ok(partials.into_iter().map(WirePartial::from).collect())
            }
            Err(e) => WirePartialResult::Err(WireError::from(&e)),
        }
    }
}

/// A router's per-shard forwarding counters, reported by
/// [`Response::RouterStatsOk`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStats {
    /// One entry per configured upstream shard, ascending by index.
    pub shards: Vec<ShardLoad>,
}

/// One replica-set member's load counters inside [`RouterStats`]: one
/// entry per member, ascending by `(shard_index, member)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardLoad {
    /// The shard's index in the deployment.
    pub shard_index: u32,
    /// The member's upstream address, as configured on the router.
    pub addr: String,
    /// Exchanges attempted on this member: handshakes and attestation
    /// probes included, members skipped while backing off not.
    pub requests_forwarded: u64,
    /// Transport failures: torn pooled streams and failed fresh dials.
    pub errors: u64,
    /// Fresh dials that replaced a torn pooled stream.
    pub reconnects: u64,
    /// Whether the member may be tried at snapshot time (false while the
    /// router backs off after a failed fresh dial).
    pub available: bool,
    /// The member's position within its shard's replica set (0-based,
    /// configuration order).
    pub member: u32,
    /// Whether the router currently routes this shard's ingest to this
    /// member (moves on promotion).
    pub writer: bool,
}

/// One enclave's attestation evidence inside [`Response::AttestOk`]:
/// the wire form of [`concealer_enclave::Quote`], tagged with which shard
/// member produced it. A single server reports one quote; a router reports
/// one per reachable upstream member, so the client sees every enclave its
/// queries may touch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireQuote {
    /// The shard index of the member that produced this quote (`0` when
    /// unsharded).
    pub shard_index: u32,
    /// The member's position within its shard's replica set (0-based).
    pub member: u32,
    /// The enclave's deterministic measurement (hash over code version and
    /// configuration).
    pub measurement: [u8; 32],
    /// The enclave code version baked into the measurement.
    pub code_version: u32,
    /// When the quote was produced (seconds since the Unix epoch); clients
    /// bound its age via their trust policy.
    pub timestamp: u64,
    /// The client nonce this quote answers (echoed from the request).
    pub nonce: [u8; 32],
    /// Signature binding measurement, code version, timestamp and nonce
    /// under the simulated attestation root key.
    pub signature: [u8; 32],
}

/// Server → client messages. Replies echo the request id, and one
/// connection's replies leave in request order; clients still match by id
/// (`concealer-client` redeems pipelined tickets in any order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The handshake succeeded; the connection may now issue requests.
    HelloOk(ServerInfo),
    /// Reply to [`Request::Execute`].
    Answer {
        /// The echoed request id.
        id: u64,
        /// The answer, metadata included.
        answer: QueryAnswer,
    },
    /// Reply to [`Request::ExecuteBatch`], positionally aligned with the
    /// request's `queries`.
    BatchAnswer {
        /// The echoed request id.
        id: u64,
        /// Per-query outcomes.
        results: Vec<WireResult>,
    },
    /// Reply to [`Request::IngestEpoch`].
    IngestOk {
        /// The echoed request id.
        id: u64,
        /// The epoch id ingested (its start time).
        epoch_id: u64,
        /// Rows now stored for the epoch (reals plus volume-hiding fakes).
        rows_stored: u64,
    },
    /// Reply to [`Request::Stats`].
    StatsOk {
        /// The echoed request id.
        id: u64,
        /// The backend profile.
        stats: WireStats,
    },
    /// Reply to [`Request::Shutdown`]: acknowledged; the server exits
    /// after draining.
    ShutdownOk {
        /// The echoed request id.
        id: u64,
    },
    /// A structured error reply. `id` is the failed request's id, or
    /// [`CONNECTION_LEVEL_ID`] for connection-level failures.
    Error {
        /// The request id, or [`CONNECTION_LEVEL_ID`].
        id: u64,
        /// What went wrong.
        error: WireError,
    },
    /// Reply to [`Request::Goodbye`]; the server closes afterwards.
    Bye,
    /// Reply to [`Request::ServeStats`].
    ServeStatsOk {
        /// The echoed request id.
        id: u64,
        /// The serving layer's live profile.
        stats: ServeStats,
    },
    /// Reply to [`Request::ShardInfo`].
    ShardInfoOk {
        /// The echoed request id.
        id: u64,
        /// The epoch slice this server owns.
        shard: ShardDescriptor,
    },
    /// Reply to [`Request::ExecutePartial`].
    PartialAnswer {
        /// The echoed request id.
        id: u64,
        /// The query's per-epoch partials over this server's slice.
        result: WirePartialResult,
    },
    /// Reply to [`Request::ExecuteBatchPartial`], positionally aligned
    /// with the request's `queries`.
    BatchPartialAnswer {
        /// The echoed request id.
        id: u64,
        /// Per-query outcomes.
        results: Vec<WirePartialResult>,
    },
    /// Reply to [`Request::RouterStats`].
    RouterStatsOk {
        /// The echoed request id.
        id: u64,
        /// The router's per-shard forwarding counters.
        stats: RouterStats,
    },
    /// Reply to [`Request::Promote`]: this server now owns its store root.
    PromoteOk {
        /// The echoed request id.
        id: u64,
        /// Epochs newly registered by the promotion's recovery pass (zero
        /// when the refresh loop had already absorbed everything, or the
        /// server was already the writer).
        epochs_registered: u64,
    },
    /// Reply to [`Request::Attest`]: the enclave quote(s) answering
    /// the request's nonce. A failed attestation is a
    /// [`Response::Error`] with
    /// [`crate::error::ErrorCode::AttestationFailed`] instead.
    AttestOk {
        /// The echoed request id.
        id: u64,
        /// One quote per serving enclave: a single entry from a shard
        /// server, one per reachable replica-set member from a router.
        quotes: Vec<WireQuote>,
    },
}

impl Response {
    /// The request id this response answers ([`CONNECTION_LEVEL_ID`] for
    /// handshake/close frames).
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Response::HelloOk(_) | Response::Bye => CONNECTION_LEVEL_ID,
            Response::Answer { id, .. }
            | Response::BatchAnswer { id, .. }
            | Response::IngestOk { id, .. }
            | Response::StatsOk { id, .. }
            | Response::ShutdownOk { id }
            | Response::Error { id, .. }
            | Response::ServeStatsOk { id, .. }
            | Response::ShardInfoOk { id, .. }
            | Response::PartialAnswer { id, .. }
            | Response::BatchPartialAnswer { id, .. }
            | Response::RouterStatsOk { id, .. }
            | Response::PromoteOk { id, .. }
            | Response::AttestOk { id, .. } => *id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorCode;
    use serde::bin::{from_bytes, to_bytes};

    fn roundtrip<T>(value: &T) -> T
    where
        T: Serialize + serde::DeserializeOwned,
    {
        from_bytes(&to_bytes(value)).expect("round-trip decode")
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Hello {
                version: PROTOCOL_VERSION,
                user_id: 7,
                credential: [9u8; 32],
                client_name: "test".into(),
            },
            Request::Execute {
                id: 1,
                query: Query::count().at_dims([3]).between(0, 1799),
                options: Some(ExecOptions::default()),
            },
            Request::ExecuteBatch {
                id: 2,
                queries: vec![
                    Query::count().at_dims([3]).at(60),
                    Query::top_k_locations(4).between(0, 3599),
                ],
                options: None,
            },
            Request::IngestEpoch {
                id: 3,
                epoch_start: 7200,
                records: vec![Record::spatial(1, 7260, 1001)],
            },
            Request::Stats { id: 4 },
            Request::Shutdown { id: 5 },
            Request::Goodbye,
            Request::ServeStats { id: 6 },
            Request::ShardInfo { id: 7 },
            Request::ExecutePartial {
                id: 8,
                query: Query::average(0).between(0, 7199),
                options: None,
            },
            Request::ExecuteBatchPartial {
                id: 9,
                queries: vec![Query::count().at_dims([1]).at(60)],
                options: Some(ExecOptions::default()),
            },
            Request::RouterStats { id: 10 },
            Request::Promote { id: 11 },
            Request::Attest {
                id: 12,
                nonce: [0xA5u8; 32],
            },
        ];
        for request in requests {
            assert_eq!(roundtrip(&request), request);
        }
    }

    #[test]
    fn responses_round_trip() {
        use concealer_core::query::AnswerValue;
        let answer = QueryAnswer {
            value: AnswerValue::Count(17),
            rows_fetched: 120,
            rows_decrypted: 0,
            verified: true,
            epochs_touched: 1,
        };
        let responses = [
            Response::HelloOk(ServerInfo {
                protocol_version: PROTOCOL_VERSION,
                server_name: "s".into(),
                backend: "memory".into(),
                max_batch: 256,
                max_frame_len: 4 << 20,
                ingest_allowed: true,
            }),
            Response::Answer {
                id: 1,
                answer: answer.clone(),
            },
            Response::BatchAnswer {
                id: 2,
                results: vec![
                    WireResult::Ok(answer),
                    WireResult::Err(WireError {
                        code: ErrorCode::NoDataForRange,
                        message: "no ingested epoch overlaps".into(),
                    }),
                ],
            },
            Response::IngestOk {
                id: 3,
                epoch_id: 7200,
                rows_stored: 640,
            },
            Response::StatsOk {
                id: 4,
                stats: WireStats {
                    backend: "concealer".into(),
                    epochs: 2,
                    rows_stored: 1280,
                    volume_hiding: true,
                    verifiable: true,
                },
            },
            Response::ShutdownOk { id: 5 },
            Response::Error {
                id: CONNECTION_LEVEL_ID,
                error: WireError {
                    code: ErrorCode::Busy,
                    message: "connection cap reached".into(),
                },
            },
            Response::Bye,
            Response::ServeStatsOk {
                id: 6,
                stats: ServeStats {
                    mode: "threaded".into(),
                    connections: 3,
                    peak_connections: 11,
                    connections_served: 40,
                    in_flight: 2,
                    backlog: 1,
                    requests_served: 678,
                },
            },
            Response::ShardInfoOk {
                id: 7,
                shard: ShardDescriptor {
                    shard_index: 1,
                    shard_total: 3,
                    epoch_duration: 7200,
                    epochs: vec![0, 14_400],
                    role: ShardRole::Replica,
                    store_generation: 12,
                },
            },
            Response::PartialAnswer {
                id: 8,
                result: WirePartialResult::Ok(vec![WirePartial {
                    epoch_id: 7200,
                    count: 5,
                    sum: 90,
                    min: Some(3),
                    max: Some(40),
                    per_location: vec![(1, 2), (4, 3)],
                    rows: vec![Record::spatial(1, 7260, 1001)],
                    rows_fetched: 64,
                    rows_decrypted: 64,
                    verified: true,
                }]),
            },
            Response::BatchPartialAnswer {
                id: 9,
                results: vec![
                    WirePartialResult::Ok(Vec::new()),
                    WirePartialResult::Err(WireError {
                        code: ErrorCode::ShardUnavailable,
                        message: "shard 2 unreachable".into(),
                    }),
                ],
            },
            Response::RouterStatsOk {
                id: 10,
                stats: RouterStats {
                    shards: vec![ShardLoad {
                        shard_index: 0,
                        addr: "127.0.0.1:9100".into(),
                        requests_forwarded: 42,
                        errors: 1,
                        reconnects: 2,
                        available: true,
                        member: 1,
                        writer: false,
                    }],
                },
            },
            Response::PromoteOk {
                id: 11,
                epochs_registered: 3,
            },
            Response::AttestOk {
                id: 12,
                quotes: vec![WireQuote {
                    shard_index: 2,
                    member: 1,
                    measurement: [7u8; 32],
                    code_version: 1,
                    timestamp: 1_700_000_000,
                    nonce: [0xA5u8; 32],
                    signature: [9u8; 32],
                }],
            },
        ];
        for response in responses {
            assert_eq!(roundtrip(&response), response);
        }
    }

    #[test]
    fn wire_partial_round_trips_through_engine_form() {
        let wire = WirePartial {
            epoch_id: 3600,
            count: 7,
            sum: 120,
            min: Some(2),
            max: Some(60),
            per_location: vec![(0, 4), (5, 3)],
            rows: vec![Record::spatial(2, 3660, 1002)],
            rows_fetched: 128,
            rows_decrypted: 96,
            verified: true,
        };
        let back = WirePartial::from(wire.clone().into_partial());
        assert_eq!(back, wire);
    }

    #[test]
    fn ids_are_extracted() {
        assert_eq!(Request::Stats { id: 9 }.id(), 9);
        assert_eq!(Request::Goodbye.id(), CONNECTION_LEVEL_ID);
        assert_eq!(Request::ServeStats { id: 9 }.id(), 9);
        assert_eq!(Response::ShutdownOk { id: 9 }.id(), 9);
        assert_eq!(Response::Bye.id(), CONNECTION_LEVEL_ID);
        assert_eq!(
            Response::ServeStatsOk {
                id: 9,
                stats: ServeStats {
                    mode: "threaded".into(),
                    connections: 0,
                    peak_connections: 0,
                    connections_served: 0,
                    in_flight: 0,
                    backlog: 0,
                    requests_served: 0,
                },
            }
            .id(),
            9
        );
    }
}
