//! Blocking client for the Concealer wire protocol.
//!
//! [`ClientBuilder`] is the connection surface: it resolves the address,
//! runs the protocol-v4 attestation exchange against the client's
//! [`TrustPolicy`], then the versioned hello/auth handshake, and produces
//! a [`Session`]. The session exposes the batched query surface —
//! [`Session::execute`], [`Session::execute_batch`],
//! [`Session::ingest_epoch`], [`Session::stats`] — plus *pipelined*
//! submission ([`Session::submit_batch`] / [`Session::wait_batch`]) that
//! keeps several batches in flight on one connection without waiting for
//! each reply.
//!
//! Replies arrive in request order per connection (a protocol guarantee),
//! but `wait_batch` matches on request ids and parks out-of-order replies,
//! so callers may await pipelined responses in any order.
//!
//! The wire is part of Concealer's **untrusted zone**. Since protocol v4 a
//! client refuses to hand its credential to any enclave whose signed
//! quote fails its trust policy, but nothing authenticates what comes
//! back: an answer and its `QueryAnswer::verified` flag travel as plain
//! frames, so the host process or an on-path proxy can rewrite both and
//! the client cannot tell. The canonical frame-and-message specification
//! this client implements is `PROTOCOL.md` at the repository root; a session
//! works identically against a single `concealer-server` or a
//! `concealer-router` fronting an epoch-sharded deployment.
//!
//! ```no_run
//! use concealer_client::ClientBuilder;
//! use concealer_core::Query;
//!
//! let mut session = ClientBuilder::new("127.0.0.1:7171")
//!     .credential(7, [0u8; 32])
//!     .client_name("quickstart")
//!     .connect()?;
//! let answer = session.execute(&Query::count().at_dims([3]).between(0, 1_799))?;
//! println!("count = {:?} (verified: {})", answer.value, answer.verified);
//! session.close()?;
//! # Ok::<(), concealer_client::ClientError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use concealer_core::{ExecOptions, Query, QueryAnswer, Record, UserHandle};
use concealer_server::protocol::{
    Request, Response, RouterStats, ServerInfo, ShardDescriptor, WirePartial, WireQuote,
    CONNECTION_LEVEL_ID, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use concealer_server::{ServeStats, WireError};
use serde::frame::{read_frame, write_frame, FrameError};

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write, torn frame).
    Io(std::io::Error),
    /// A reply frame did not decode as a [`Response`].
    Decode(String),
    /// The server closed the connection.
    Closed,
    /// The handshake was refused or answered unexpectedly.
    Handshake(String),
    /// The server answered with a structured error reply.
    Server(WireError),
    /// The server answered with the wrong reply shape or id.
    Protocol(String),
    /// A configured connect/read/write timeout elapsed
    /// ([`ClientBuilder::connect_timeout`] and friends). A timeout
    /// mid-reply leaves the stream misaligned on a partial frame, so the
    /// connection should be dropped, not retried.
    TimedOut,
    /// The attestation exchange failed the client's [`TrustPolicy`]: the
    /// server refused the challenge, a quote's signature or nonce echo was
    /// wrong, a quote was too old, or its measurement is not an accepted
    /// one. No credential was sent.
    Attestation(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Decode(e) => write!(f, "reply decode error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Handshake(e) => write!(f, "handshake failed: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClientError::TimedOut => write!(f, "operation timed out"),
            ClientError::Attestation(e) => write!(f, "attestation failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::from(e),
            FrameError::Decode(e) => ClientError::Decode(e.to_string()),
            FrameError::Closed => ClientError::Closed,
            FrameError::TooLarge { len, max } => ClientError::Decode(format!(
                "reply frame of {len} bytes exceeds the client's {max}-byte limit"
            )),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // A timed-out socket read surfaces as `WouldBlock` on Unix and
        // `TimedOut` on Windows; fold both into the dedicated variant.
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ClientError::TimedOut,
            _ => ClientError::Io(e),
        }
    }
}

/// Default bound on how old a quote's timestamp may be (seconds, either
/// direction — covers modest clock skew). Documented in `PROTOCOL.md`;
/// `ci/check-docs.sh` guards the two against drifting apart.
pub const DEFAULT_MAX_QUOTE_AGE_SECS: u64 = 300;

/// What the client requires of the enclave quotes it receives before it
/// will send its credential.
///
/// The default policy *requires* attestation: quotes must be present,
/// signature-valid under the attestation root key, echo the client's
/// nonce, and be no older than [`DEFAULT_MAX_QUOTE_AGE_SECS`]. Pinning
/// specific measurements is opt-in via
/// [`TrustPolicy::accepted_measurements`].
#[derive(Debug, Clone)]
pub struct TrustPolicy {
    /// Accepted enclave measurements. Empty (the default) accepts any
    /// validly signed quote — signature, nonce echo and freshness are
    /// still enforced; non-empty additionally requires every quote's
    /// measurement to appear in this list (how an operator pins the exact
    /// enclave build fleet-wide).
    pub accepted_measurements: Vec<[u8; 32]>,
    /// Maximum age of a quote's timestamp, in either direction (allows
    /// modest clock skew between client and server).
    pub max_quote_age: Duration,
    /// Escape hatch: skip quote verification entirely. The attestation
    /// round still runs — v4 servers refuse `Hello` without it — but the
    /// quotes are accepted unexamined. For untrusted intermediaries (the
    /// router's keyless upstream face) and explicitly opted-out tooling
    /// only; never the default.
    pub allow_unattested: bool,
}

impl Default for TrustPolicy {
    fn default() -> Self {
        TrustPolicy {
            accepted_measurements: Vec::new(),
            max_quote_age: Duration::from_secs(DEFAULT_MAX_QUOTE_AGE_SECS),
            allow_unattested: false,
        }
    }
}

impl TrustPolicy {
    /// The policy of an untrusted intermediary (or opted-out tool): run
    /// the attestation round but accept the quotes unexamined.
    #[must_use]
    pub fn allow_unattested() -> Self {
        TrustPolicy {
            allow_unattested: true,
            ..TrustPolicy::default()
        }
    }

    /// Require the quote measurements to be exactly one of `measurements`
    /// (on top of signature, nonce and freshness checks).
    #[must_use]
    pub fn pinned(measurements: Vec<[u8; 32]>) -> Self {
        TrustPolicy {
            accepted_measurements: measurements,
            ..TrustPolicy::default()
        }
    }

    /// Check one received quote against this policy. `nonce` is the
    /// challenge the client sent; `now` is the client's clock (seconds
    /// since the Unix epoch).
    fn check(&self, quote: &WireQuote, nonce: &[u8; 32], now: u64) -> Result<(), String> {
        let enclave_quote = concealer_enclave::Quote {
            measurement: quote.measurement,
            code_version: quote.code_version,
            timestamp: quote.timestamp,
            nonce: quote.nonce,
            signature: quote.signature,
        };
        if !concealer_enclave::attest::verify_signature(&enclave_quote) {
            return Err(format!(
                "quote from shard {} member {} has an invalid signature",
                quote.shard_index, quote.member
            ));
        }
        if &quote.nonce != nonce {
            return Err(format!(
                "quote from shard {} member {} echoes the wrong nonce",
                quote.shard_index, quote.member
            ));
        }
        let age = now.abs_diff(quote.timestamp);
        if age > self.max_quote_age.as_secs() {
            return Err(format!(
                "quote from shard {} member {} is {age}s old (policy allows {}s)",
                quote.shard_index,
                quote.member,
                self.max_quote_age.as_secs()
            ));
        }
        if !self.accepted_measurements.is_empty()
            && !self.accepted_measurements.contains(&quote.measurement)
        {
            return Err(format!(
                "quote from shard {} member {} reports a measurement not in the accepted set",
                quote.shard_index, quote.member
            ));
        }
        Ok(())
    }
}

/// A fresh attestation nonce. No RNG dependency: hash the wall clock, a
/// process-global counter and the process id — uniqueness (not secrecy)
/// is what replay protection needs, since the nonce travels in cleartext
/// anyway.
fn fresh_nonce() -> [u8; 32] {
    use std::hash::{DefaultHasher, Hash, Hasher};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut nonce = [0u8; 32];
    for (i, chunk) in nonce.chunks_mut(8).enumerate() {
        let mut h = DefaultHasher::new();
        nanos.hash(&mut h);
        count.hash(&mut h);
        std::process::id().hash(&mut h);
        i.hash(&mut h);
        chunk.copy_from_slice(&h.finish().to_le_bytes());
    }
    nonce
}

/// A ticket for a pipelined request, redeemed with
/// [`Session::wait_batch`] (or the matching `wait_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    id: u64,
}

/// Builds a [`Session`]: address, identity, timeouts and trust policy,
/// then [`ClientBuilder::connect`] (attest → verify → hello) or
/// [`ClientBuilder::probe`] (attest → verify only — the pre-auth
/// surface).
///
/// The address is resolved eagerly in [`ClientBuilder::new`], so a bad
/// address fails at connect time with the original resolution error.
#[derive(Debug)]
pub struct ClientBuilder {
    addrs: std::io::Result<Vec<SocketAddr>>,
    credential: Option<(u64, [u8; 32])>,
    client_name: String,
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    trust: TrustPolicy,
    attest_nonce: Option<[u8; 32]>,
}

impl ClientBuilder {
    /// Start building a session to `addr`. Resolution happens now; the
    /// outcome surfaces from [`ClientBuilder::connect`] /
    /// [`ClientBuilder::probe`].
    #[must_use]
    pub fn new(addr: impl ToSocketAddrs) -> ClientBuilder {
        ClientBuilder {
            addrs: addr.to_socket_addrs().map(Iterator::collect),
            credential: None,
            client_name: "concealer-client".to_string(),
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
            trust: TrustPolicy::default(),
            attest_nonce: None,
        }
    }

    /// Authenticate as `user_id` with the credential the data provider
    /// issued (`UserHandle::credential.0`). Required for
    /// [`ClientBuilder::connect`]; ignored by [`ClientBuilder::probe`].
    #[must_use]
    pub fn credential(mut self, user_id: u64, credential: [u8; 32]) -> ClientBuilder {
        self.credential = Some((user_id, credential));
        self
    }

    /// [`ClientBuilder::credential`] from an in-process [`UserHandle`]
    /// (test and example convenience).
    #[must_use]
    pub fn user(self, user: &UserHandle) -> ClientBuilder {
        self.credential(user.user_id.0, user.credential.0)
    }

    /// Free-form client identification, sent in the hello (server logs
    /// only). Defaults to `"concealer-client"`.
    #[must_use]
    pub fn client_name(mut self, name: &str) -> ClientBuilder {
        self.client_name = name.to_string();
        self
    }

    /// Cap TCP connection establishment per resolved address.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Cap each blocking read, including attestation and handshake
    /// replies — what turns a server that accepted but stopped responding
    /// into a clean [`ClientError::TimedOut`] instead of a hang.
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.read_timeout = Some(timeout);
        self
    }

    /// Cap each blocking write (a server that stopped *reading* while the
    /// client streams a large request).
    #[must_use]
    pub fn write_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.write_timeout = Some(timeout);
        self
    }

    /// Replace the default [`TrustPolicy`] (which requires validly
    /// signed, fresh quotes).
    #[must_use]
    pub fn trust_policy(mut self, policy: TrustPolicy) -> ClientBuilder {
        self.trust = policy;
        self
    }

    /// Use `nonce` as the attestation challenge instead of generating a
    /// fresh one. This is how an intermediary (the router) forwards a
    /// *client's* challenge to its upstreams, so the quotes it relays
    /// echo the nonce the end client chose and remain end-to-end
    /// replay-protected across the untrusted hop.
    #[must_use]
    pub fn attest_nonce(mut self, nonce: [u8; 32]) -> ClientBuilder {
        self.attest_nonce = Some(nonce);
        self
    }

    /// Connect, attest, verify the quotes against the trust policy, then
    /// authenticate. Fails with [`ClientError::Attestation`] — before any
    /// credential crosses the wire — if the quotes do not satisfy the
    /// policy.
    pub fn connect(self) -> Result<Session, ClientError> {
        let Some((user_id, credential)) = self.credential else {
            return Err(ClientError::Handshake(
                "no credential configured; call ClientBuilder::credential (or .user) \
                 before connect, or use probe() for the pre-auth surface"
                    .to_string(),
            ));
        };
        let client_name = self.client_name.clone();
        let mut session = self.open_attested()?;
        session.send(&Request::Hello {
            version: PROTOCOL_VERSION,
            user_id,
            credential,
            client_name,
        })?;
        match session.read_response()? {
            Response::HelloOk(info) => {
                session.info = info;
                Ok(session)
            }
            Response::Error { error, .. } => Err(ClientError::Handshake(error.to_string())),
            other => Err(ClientError::Handshake(format!(
                "expected HelloOk, got {other:?}"
            ))),
        }
    }

    /// Connect and attest **without** authenticating: no `Hello` is sent,
    /// so only pre-authentication requests — [`Session::shard_info`] —
    /// are answerable; anything else gets a `not_authenticated` refusal.
    /// This is how a router probes shard topology at startup, before it
    /// holds any client credential to forward.
    pub fn probe(self) -> Result<Session, ClientError> {
        self.open_attested()
    }

    /// Open the TCP stream and run the attestation round.
    fn open_attested(self) -> Result<Session, ClientError> {
        let addrs = self.addrs?;
        let stream = match self.connect_timeout {
            None => {
                // Mirror `TcpStream::connect(&[SocketAddr])`: try each
                // resolved candidate, report the last failure.
                TcpStream::connect(addrs.as_slice())?
            }
            Some(limit) => {
                let mut last_err: Option<std::io::Error> = None;
                let mut connected = None;
                for resolved in &addrs {
                    match TcpStream::connect_timeout(resolved, limit) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match connected {
                    Some(stream) => stream,
                    None => {
                        return Err(last_err.map(ClientError::from).unwrap_or_else(|| {
                            ClientError::Io(std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no candidates",
                            ))
                        }))
                    }
                }
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        let mut session = Session {
            conn: BufReader::new(stream),
            info: ServerInfo {
                protocol_version: 0,
                server_name: String::new(),
                backend: String::new(),
                max_batch: 0,
                max_frame_len: DEFAULT_MAX_FRAME_LEN as u64,
                ingest_allowed: false,
            },
            next_id: 1,
            in_flight: BTreeMap::new(),
            quotes: Vec::new(),
        };
        session.attest(&self.trust, self.attest_nonce)?;
        Ok(session)
    }
}

/// One attested (and, after [`ClientBuilder::connect`], authenticated)
/// connection to a Concealer server.
#[derive(Debug)]
pub struct Session {
    /// The socket, read through one buffer for the session's life and
    /// written through `get_mut()`, one `write` per frame.
    conn: BufReader<TcpStream>,
    info: ServerInfo,
    next_id: u64,
    /// Requests sent and not yet redeemed, by id, each with its reply
    /// once that was read while waiting for a different id (pipelining
    /// out of order). A reply whose id is not here answers nothing the
    /// session asked.
    in_flight: BTreeMap<u64, Option<Response>>,
    /// The quotes received (and, unless the policy opted out, verified)
    /// during the attestation round.
    quotes: Vec<WireQuote>,
}

impl Session {
    /// Run the v4 attestation round: challenge, collect quotes, verify
    /// them against `trust` (unless it opts out). Quotes are retained for
    /// [`Session::quotes`].
    fn attest(
        &mut self,
        trust: &TrustPolicy,
        nonce_override: Option<[u8; 32]>,
    ) -> Result<(), ClientError> {
        let nonce = nonce_override.unwrap_or_else(fresh_nonce);
        let id = self.fresh_id();
        self.send(&Request::Attest { id, nonce })?;
        let quotes = match self.wait_for(id) {
            Ok(Response::AttestOk { quotes, .. }) => quotes,
            Ok(other) => return Err(unexpected("AttestOk", &other)),
            Err(ClientError::Server(e)) => {
                // A refusal of the challenge itself is an attestation
                // failure; other refusals (busy, protocol) keep their own
                // meaning — they happened during the handshake, not
                // because trust could not be established.
                return Err(
                    if e.code == concealer_server::ErrorCode::AttestationFailed {
                        ClientError::Attestation(e.to_string())
                    } else {
                        ClientError::Handshake(e.to_string())
                    },
                );
            }
            Err(e) => return Err(e),
        };
        if !trust.allow_unattested {
            if quotes.is_empty() {
                return Err(ClientError::Attestation(
                    "server produced no enclave quotes".to_string(),
                ));
            }
            let now = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            for quote in &quotes {
                trust
                    .check(quote, &nonce, now)
                    .map_err(ClientError::Attestation)?;
            }
        }
        self.quotes = quotes;
        Ok(())
    }

    /// The enclave quotes received during the attestation round, one per
    /// serving enclave (a single server reports one; a router reports one
    /// per reachable replica-set member).
    #[must_use]
    pub fn quotes(&self) -> &[WireQuote] {
        &self.quotes
    }

    /// What the server reported in the handshake.
    #[must_use]
    pub fn server_info(&self) -> &ServerInfo {
        &self.info
    }

    /// Change the per-read timeout on the live session (`None` blocks
    /// indefinitely). On [`ClientError::TimedOut`] part of a frame may
    /// already sit in the session's read buffer and the stream is
    /// misaligned mid-frame — drop the session rather than reuse it.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        Ok(self.conn.get_ref().set_read_timeout(timeout)?)
    }

    // ---------------------------------------------------------------
    // Synchronous calls (submit + wait in one step)
    // ---------------------------------------------------------------

    /// Execute one query with the server's default options.
    pub fn execute(&mut self, query: &Query) -> Result<QueryAnswer, ClientError> {
        self.execute_opt(query, None)
    }

    /// Execute one query with explicit options.
    pub fn execute_with(
        &mut self,
        query: &Query,
        options: ExecOptions,
    ) -> Result<QueryAnswer, ClientError> {
        self.execute_opt(query, Some(options))
    }

    fn execute_opt(
        &mut self,
        query: &Query,
        options: Option<ExecOptions>,
    ) -> Result<QueryAnswer, ClientError> {
        let pending = self.submit_execute(query, options)?;
        self.wait_execute(pending)
    }

    /// Execute a batch with the server's default options.
    pub fn execute_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<Result<QueryAnswer, WireError>>, ClientError> {
        let pending = self.submit_batch(queries, None)?;
        self.wait_batch(pending)
    }

    /// Execute a batch with explicit options (e.g. BPB + parallelism for
    /// cross-query dedup on the server).
    pub fn execute_batch_with(
        &mut self,
        queries: &[Query],
        options: ExecOptions,
    ) -> Result<Vec<Result<QueryAnswer, WireError>>, ClientError> {
        let pending = self.submit_batch(queries, Some(options))?;
        self.wait_batch(pending)
    }

    /// Ingest one epoch of cleartext records (the simulated data-provider
    /// channel); returns the rows stored (reals + fakes).
    pub fn ingest_epoch(
        &mut self,
        epoch_start: u64,
        records: &[Record],
    ) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::IngestEpoch {
            id,
            epoch_start,
            records: records.to_vec(),
        })?;
        match self.wait_for(id)? {
            Response::IngestOk { rows_stored, .. } => Ok(rows_stored),
            other => Err(unexpected("IngestOk", &other)),
        }
    }

    /// Fetch the backend's stats profile.
    pub fn stats(&mut self) -> Result<concealer_server::WireStats, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Stats { id })?;
        match self.wait_for(id)? {
            Response::StatsOk { stats, .. } => Ok(stats),
            other => Err(unexpected("StatsOk", &other)),
        }
    }

    /// Fetch the serving core's live counters: connection counts and
    /// in-flight/backlog depth.
    pub fn serve_stats(&mut self) -> Result<ServeStats, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::ServeStats { id })?;
        match self.wait_for(id)? {
            Response::ServeStatsOk { stats, .. } => Ok(stats),
            other => Err(unexpected("ServeStatsOk", &other)),
        }
    }

    /// Ask which epoch-hash slice the server owns (answerable before
    /// authentication; see [`ClientBuilder::probe`]). An unsharded server
    /// reports itself as slice `0/1`.
    pub fn shard_info(&mut self) -> Result<ShardDescriptor, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::ShardInfo { id })?;
        match self.wait_for(id)? {
            Response::ShardInfoOk { shard, .. } => Ok(shard),
            other => Err(unexpected("ShardInfoOk", &other)),
        }
    }

    /// Fetch a router's per-shard load accounting. Shard servers refuse
    /// this with a `protocol_violation` error — it only means something
    /// at the routing tier.
    pub fn router_stats(&mut self) -> Result<RouterStats, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::RouterStats { id })?;
        match self.wait_for(id)? {
            Response::RouterStatsOk { stats, .. } => Ok(stats),
            other => Err(unexpected("RouterStatsOk", &other)),
        }
    }

    /// Promote the server's read-only replica store to writer (the
    /// failover half of replica sets; idempotent on a server that is
    /// already the writer). Returns the number of epochs the promotion's
    /// recovery pass newly registered.
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Promote { id })?;
        match self.wait_for(id)? {
            Response::PromoteOk {
                epochs_registered, ..
            } => Ok(epochs_registered),
            other => Err(unexpected("PromoteOk", &other)),
        }
    }

    /// Request a graceful server-wide shutdown and wait for the ack.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Shutdown { id })?;
        match self.wait_for(id)? {
            Response::ShutdownOk { .. } => Ok(()),
            other => Err(unexpected("ShutdownOk", &other)),
        }
    }

    /// Close the session cleanly (Goodbye / Bye). Replies to pipelined
    /// requests whose tickets were never redeemed are drained and
    /// discarded — the server answers in order, so they arrive before the
    /// `Bye`; only a connection-level error aborts the close.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.send(&Request::Goodbye)?;
        loop {
            match self.read_response()? {
                Response::Bye => return Ok(()),
                Response::Error {
                    id: CONNECTION_LEVEL_ID,
                    error,
                } => return Err(ClientError::Server(error)),
                _unredeemed_pipelined_reply => {}
            }
        }
    }

    // ---------------------------------------------------------------
    // Pipelined submission
    // ---------------------------------------------------------------

    /// Submit one query without waiting for the reply.
    pub fn submit_execute(
        &mut self,
        query: &Query,
        options: Option<ExecOptions>,
    ) -> Result<Pending, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Execute {
            id,
            query: query.clone(),
            options,
        })?;
        Ok(Pending { id })
    }

    /// Redeem a [`Session::submit_execute`] ticket.
    pub fn wait_execute(&mut self, pending: Pending) -> Result<QueryAnswer, ClientError> {
        match self.wait_for(pending.id)? {
            Response::Answer { answer, .. } => Ok(answer),
            other => Err(unexpected("Answer", &other)),
        }
    }

    /// Submit a batch without waiting for the reply; several batches can
    /// be in flight on one session (the server answers in order, the
    /// client matches ids).
    pub fn submit_batch(
        &mut self,
        queries: &[Query],
        options: Option<ExecOptions>,
    ) -> Result<Pending, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::ExecuteBatch {
            id,
            queries: queries.to_vec(),
            options,
        })?;
        Ok(Pending { id })
    }

    /// Redeem a [`Session::submit_batch`] ticket: per-query outcomes,
    /// positionally aligned with the submitted queries.
    pub fn wait_batch(
        &mut self,
        pending: Pending,
    ) -> Result<Vec<Result<QueryAnswer, WireError>>, ClientError> {
        match self.wait_for(pending.id)? {
            Response::BatchAnswer { results, .. } => Ok(results
                .into_iter()
                .map(concealer_server::WireResult::into_result)
                .collect()),
            other => Err(unexpected("BatchAnswer", &other)),
        }
    }

    /// Submit a batch of partial executions without waiting: the server
    /// answers each query with per-epoch partials over only the epochs it
    /// holds (the shard half of multi-node serving; see
    /// `concealer_core::merge_partials`), deduplicating `(epoch, bin)`
    /// fetches across the batch within its slice, exactly as a
    /// single-process `ExecuteBatch` would. One query's partials are a
    /// batch of one.
    pub fn submit_batch_partial(
        &mut self,
        queries: &[Query],
        options: Option<ExecOptions>,
    ) -> Result<Pending, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::ExecuteBatchPartial {
            id,
            queries: queries.to_vec(),
            options,
        })?;
        Ok(Pending { id })
    }

    /// Redeem a [`Session::submit_batch_partial`] ticket: per-query
    /// partial outcomes, positionally aligned with the submitted queries.
    /// The outer `Result` is the transport; each inner one is the shard's
    /// structured outcome (kept structured so a router can merge errors
    /// positionally).
    #[allow(clippy::type_complexity)]
    pub fn wait_batch_partial(
        &mut self,
        pending: Pending,
    ) -> Result<Vec<Result<Vec<WirePartial>, WireError>>, ClientError> {
        match self.wait_for(pending.id)? {
            Response::BatchPartialAnswer { results, .. } => Ok(results
                .into_iter()
                .map(concealer_server::protocol::WirePartialResult::into_result)
                .collect()),
            other => Err(unexpected("BatchPartialAnswer", &other)),
        }
    }

    // ---------------------------------------------------------------
    // Plumbing
    // ---------------------------------------------------------------

    /// The next request id, counted in flight from here on.
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight.insert(id, None);
        id
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        Ok(write_frame(self.conn.get_mut(), request)?)
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        // Accept replies up to the larger of the default cap and the
        // limit the server advertised in the handshake — a server
        // configured for bigger frames (large CollectRows replies) must
        // not have its answers rejected client-side. During the
        // handshake itself `info.max_frame_len` already holds the
        // default, so the cap is never zero.
        let cap = usize::try_from(self.info.max_frame_len)
            .unwrap_or(usize::MAX)
            .max(DEFAULT_MAX_FRAME_LEN);
        Ok(read_frame(&mut self.conn, cap)?)
    }

    /// Read until the reply for `id` arrives, parking the replies of
    /// other requests in flight. A structured error reply for `id` — or a
    /// connection-level error (id 0) — surfaces as
    /// [`ClientError::Server`]; any other reply that answers no request in
    /// flight (a second reply to one id, an id never sent, a stray `Bye`)
    /// is a [`ClientError::Protocol`].
    fn wait_for(&mut self, id: u64) -> Result<Response, ClientError> {
        if let Some(parked) = self.in_flight.remove(&id).flatten() {
            return Ok(parked);
        }
        loop {
            let response = self.read_response()?;
            match response {
                Response::Error {
                    id: reply_id,
                    error,
                } if reply_id == id || reply_id == CONNECTION_LEVEL_ID => {
                    return Err(ClientError::Server(error))
                }
                response if response.id() == id => return Ok(response),
                response => match self.in_flight.get_mut(&response.id()) {
                    Some(slot @ None) => *slot = Some(response),
                    _ => {
                        return Err(ClientError::Protocol(format!(
                            "{response:?} answers no request in flight"
                        )))
                    }
                },
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error { error, .. } => ClientError::Server(error.clone()),
        other => ClientError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concealer_core::query::AnswerValue;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    /// A server that never answers must produce a clean `TimedOut`, not a
    /// hang. The listener is bound but never calls `accept` — the kernel
    /// completes the TCP handshake and swallows the `Attest`, which is
    /// exactly a server that stopped reading.
    #[test]
    fn read_timeout_turns_a_silent_server_into_timed_out() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");

        let started = Instant::now();
        let result = ClientBuilder::new(addr)
            .credential(7, [0u8; 32])
            .client_name("timeout-test")
            .read_timeout(Duration::from_millis(100))
            .connect();
        let elapsed = started.elapsed();

        match result {
            Err(ClientError::TimedOut) => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "timeout took {elapsed:?}, configured 100ms"
        );
        drop(listener);
    }

    /// The id of a session's first `Execute`: `Attest` took id 1.
    const EXECUTE_ID: u64 = 2;
    const READ_TIMEOUT: Duration = Duration::from_secs(5);

    /// What a scripted server sends in reply to one `Execute`: noise,
    /// valid replies — the matching `Answer`, one for an id never sent,
    /// errors, a stray `Bye`, the wrong reply shape — and valid replies
    /// with noise spliced in, in seeded order.
    fn scripted_replies(rng: &mut StdRng) -> Vec<u8> {
        let answer = |count| QueryAnswer {
            value: AnswerValue::Count(count),
            rows_fetched: 0,
            rows_decrypted: 0,
            verified: true,
            epochs_touched: 1,
        };
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(1usize..5) {
            let reply = match rng.gen_range(0u32..6) {
                0 => Response::Answer {
                    id: EXECUTE_ID,
                    answer: answer(rng.gen_range(0u64..100)),
                },
                1 => Response::Answer {
                    id: EXECUTE_ID + 1,
                    answer: answer(1),
                },
                2 => Response::Error {
                    id: if rng.gen() {
                        EXECUTE_ID
                    } else {
                        CONNECTION_LEVEL_ID
                    },
                    error: WireError::new(concealer_server::ErrorCode::Busy, "scripted"),
                },
                3 => Response::Bye,
                4 => Response::ShutdownOk { id: EXECUTE_ID },
                _ => {
                    stream.extend((0..rng.gen_range(1usize..40)).map(|_| rng.gen::<u8>()));
                    continue;
                }
            };
            let mut frame = Vec::new();
            write_frame(&mut frame, &reply).expect("encode a scripted reply");
            if rng.gen_range(0u32..4) == 0 {
                let at = rng.gen_range(0..=frame.len());
                let noise: Vec<u8> = (0..rng.gen_range(1usize..8)).map(|_| rng.gen()).collect();
                frame.splice(at..at, noise);
            }
            stream.extend(frame);
        }
        stream
    }

    /// Serve one connection: `AttestOk` without quotes, `HelloOk`, then
    /// `script` for the `Execute` — whole, or in random pieces when
    /// `pieces` seeds them — and close.
    fn serve_script(listener: &std::net::TcpListener, script: &[u8], pieces: Option<u64>) {
        use std::io::Write as _;
        let (socket, _) = listener.accept().expect("accept");
        socket.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(&socket);
        let mut next = || read_frame::<_, Request>(&mut reader, DEFAULT_MAX_FRAME_LEN);
        let Ok(Request::Attest { id, .. }) = next() else {
            panic!("the session opens with Attest");
        };
        let quotes = Vec::new();
        write_frame(&mut &socket, &Response::AttestOk { id, quotes }).expect("attest reply");
        assert!(matches!(next(), Ok(Request::Hello { .. })));
        let info = ServerInfo {
            protocol_version: PROTOCOL_VERSION,
            server_name: "scripted".into(),
            backend: "none".into(),
            max_batch: 1,
            max_frame_len: DEFAULT_MAX_FRAME_LEN as u64,
            ingest_allowed: false,
        };
        write_frame(&mut &socket, &Response::HelloOk(info)).expect("hello reply");
        let Ok(Request::Execute { id, .. }) = next() else {
            panic!("the session sends one Execute");
        };
        assert_eq!(id, EXECUTE_ID);
        let mut rng = pieces.map(StdRng::seed_from_u64);
        let mut rest = script;
        while !rest.is_empty() {
            let n = rng
                .as_mut()
                .map_or(rest.len(), |rng| rng.gen_range(1..=rest.len().min(97)));
            // The client may have settled and hung up already.
            if (&socket).write_all(&rest[..n]).is_err() {
                break;
            }
            rest = &rest[n..];
        }
    }

    /// One `execute` against a server that answers with `script`: the
    /// outcome, spelled out so two runs compare.
    fn execute_against(script: &[u8], pieces: Option<u64>) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        std::thread::scope(|scope| {
            scope.spawn(|| serve_script(&listener, script, pieces));
            let started = Instant::now();
            let outcome = ClientBuilder::new(addr)
                .credential(7, [0u8; 32])
                .read_timeout(READ_TIMEOUT)
                .trust_policy(TrustPolicy::allow_unattested())
                .connect()
                .and_then(|mut session| session.execute(&Query::count().at_dims([1]).at(60)));
            assert!(
                started.elapsed() < READ_TIMEOUT,
                "the call outlived its timeout"
            );
            format!("{outcome:?}")
        })
    }

    /// The client's reply path against noise, valid replies and noise
    /// spliced into valid replies, written whole and in random pieces:
    /// the pieces never change the outcome, and the outcome is the answer
    /// only when the first complete frame is the matching `Answer`.
    #[test]
    fn scripted_reply_streams_settle_alike_in_every_chunking() {
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let script = scripted_replies(&mut rng);
            let reference = execute_against(&script, None);
            for _ in 0..2 {
                let pieces = Some(rng.gen());
                assert_eq!(
                    execute_against(&script, pieces),
                    reference,
                    "seed {seed}: the chunking changed the outcome"
                );
            }
            let first = read_frame::<_, Response>(&mut script.as_slice(), DEFAULT_MAX_FRAME_LEN);
            match first {
                Ok(Response::Answer { id, answer }) if id == EXECUTE_ID => {
                    let ok: Result<QueryAnswer, ClientError> = Ok(answer);
                    assert_eq!(reference, format!("{ok:?}"), "seed {seed}");
                }
                _ => assert!(reference.starts_with("Err("), "seed {seed}: {reference}"),
            }
        }
    }

    /// A configured connect timeout must bound connection establishment.
    /// The target is a TEST-NET-1 address nothing answers for; depending
    /// on the sandbox the connect either times out or is refused outright
    /// — both are acceptable, hanging is not.
    #[test]
    fn connect_timeout_fails_fast() {
        let started = Instant::now();
        let result = ClientBuilder::new("192.0.2.1:9")
            .credential(7, [0u8; 32])
            .client_name("connect-timeout-test")
            .connect_timeout(Duration::from_millis(250))
            .read_timeout(Duration::from_millis(250))
            .connect();
        let elapsed = started.elapsed();

        assert!(result.is_err(), "nothing listens on TEST-NET-1");
        match result {
            Err(ClientError::TimedOut | ClientError::Io(_) | ClientError::Closed) => {}
            other => panic!("expected a transport failure, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "connect took {elapsed:?}, configured 250ms"
        );
    }

    /// A builder without timeouts must still surface immediate transport
    /// errors (proving the no-timeout path blocks on the OS defaults but
    /// does not swallow refusals), and the default trust policy must
    /// require attestation.
    #[test]
    fn default_builder_means_no_timeouts_and_required_attestation() {
        let policy = TrustPolicy::default();
        assert!(!policy.allow_unattested);
        assert!(policy.accepted_measurements.is_empty());
        assert_eq!(
            policy.max_quote_age,
            Duration::from_secs(DEFAULT_MAX_QUOTE_AGE_SECS)
        );

        // A bound-then-dropped listener leaves a port nothing listens on;
        // connecting must fail with a refusal (reported as Io), proving
        // the no-timeout path still surfaces immediate errors.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("local addr").port()
        };
        let result = ClientBuilder::new(("127.0.0.1", port))
            .credential(7, [0u8; 32])
            .client_name("refused-test")
            .connect();
        match result {
            Err(ClientError::Io(_) | ClientError::Closed) => {}
            other => panic!("expected connection refused, got {other:?}"),
        }
    }

    /// Attestation nonces must differ call to call (replay protection is
    /// only as good as nonce uniqueness).
    #[test]
    fn nonces_are_unique() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
        assert_ne!(a, [0u8; 32]);
    }

    /// The trust policy's individual checks: signature, nonce echo,
    /// freshness, and measurement pinning.
    #[test]
    fn trust_policy_checks_quotes() {
        let nonce = [7u8; 32];
        let now = 1_000_000u64;
        let enclave = concealer_enclave::Enclave::provision(
            concealer_core::MasterKey::from_bytes([1u8; 32]),
            concealer_enclave::UserRegistry::new(),
            concealer_enclave::EnclaveConfig::default(),
        );
        let good = enclave.quote(nonce, now);
        let wire = WireQuote {
            shard_index: 0,
            member: 0,
            measurement: good.measurement,
            code_version: good.code_version,
            timestamp: good.timestamp,
            nonce: good.nonce,
            signature: good.signature,
        };
        let policy = TrustPolicy::default();
        assert!(policy.check(&wire, &nonce, now).is_ok());

        let mut tampered = wire.clone();
        tampered.measurement[0] ^= 1;
        assert!(policy.check(&tampered, &nonce, now).is_err());

        assert!(policy.check(&wire, &[8u8; 32], now).is_err());

        let stale = now + DEFAULT_MAX_QUOTE_AGE_SECS + 1;
        assert!(policy.check(&wire, &nonce, stale).is_err());

        let pinned_wrong = TrustPolicy::pinned(vec![[0xEE; 32]]);
        assert!(pinned_wrong.check(&wire, &nonce, now).is_err());
        let pinned_right = TrustPolicy::pinned(vec![wire.measurement]);
        assert!(pinned_right.check(&wire, &nonce, now).is_ok());
    }
}
