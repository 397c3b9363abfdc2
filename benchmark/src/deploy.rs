//! Builds what each workload runs against — data, systems, servers,
//! router, connections — and checks answers against ground truth before
//! anything is timed.
//!
//! Every system goes through `SystemBuilder` with an explicit backend and
//! every server gets an explicit mode, so no library default that reads
//! the environment decides what is measured.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{
    aggregate_records, demo_config, demo_wifi_config, demo_workload, record_matches,
    shard_of_epoch, ClientBuilder, ConcealerSystem, CoreSession, DiskEpochStore, ExecOptions,
    FakeTupleStrategy, MasterKey, MemoryBackend, Predicate, Query, QueryAnswer, QueryWorkload,
    Record, RouterConfig, RouterHandler, Server, ServerConfig, ServerHandle, ServerMode,
    ServerRequest, StorageBackend, SystemBuilder, SystemConfig, UserHandle, WifiConfig,
    WifiGenerator, WifiScale, WireSession, DEMO_DEVICES,
};
use crate::streams::{
    request_stream, Workload, CHECK_REQUESTS, DEMO_HOURS, ROUTED_EPOCH, ROUTED_EPOCHS,
};

/// `SystemConfig::time_granularity` of every deployment here (seconds).
const TIME_GRANULE: u64 = 60;
/// Seed of every stored dataset. The data is the deployment's fixture and
/// the same on every run; `--seed` drives what is *sent*: the request
/// streams and the paced ingest's epochs. (Bin sizes follow the data's
/// skew, so reseeding the data moves every metric by ±15 % and would
/// drown the run-to-run spread the benchmark has to resolve.)
pub const DATA_SEED: u64 = 0xC0CE_A1E5;
/// Bin-cache entries on `cold_verify`: a tenth of its working set.
pub const COLD_CACHE_BINS: usize = 16;
/// Serving core of the wire workloads: the repository's default.
pub const DEFAULT_SERVER_MODE: &str = "threaded";
/// Seed of the servers' per-ingest RNG, shared with the routed oracle so
/// both seal identical epochs.
const INGEST_SEED: u64 = 0xC0CE_A1E5_0000_0001;
/// Reference hour (09:00, peak) every routed epoch's records are generated
/// at before being shifted into place, so all epochs are the same size.
const ROUTED_REFERENCE_START: u64 = 9 * 3600;

/// A failure of the harness itself or of an answer check; aborts the run.
#[derive(Debug)]
pub struct BenchError(pub String);

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

pub type BenchResult<T> = Result<T, BenchError>;

pub fn fail<T>(context: &str, err: impl std::fmt::Display) -> BenchResult<T> {
    Err(BenchError(format!("{context}: {err}")))
}

/// What the answer-check pass counted; `rows_fetched / queries` is the
/// `rows_fetched_per_query` metric, a pure function of the seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    pub requests: usize,
    pub queries: usize,
    pub rows_fetched: usize,
}

/// A ready deployment: built, ingested, spawned, connected once and
/// answer-checked.
pub struct Deployment {
    pub workload: Workload,
    /// The engines serving requests (one, or one per shard); the harness
    /// reads their public counters and drains their observers.
    pub systems: Vec<Arc<ConcealerSystem>>,
    /// An in-process system holding the same data, used as the oracle and
    /// for traced replays. On single-system workloads it *is* `systems[0]`.
    pub oracle: Arc<ConcealerSystem>,
    pub user: UserHandle,
    /// Where callers connect (`None` in-process).
    pub addr: Option<SocketAddr>,
    pub shard_addrs: Vec<SocketAddr>,
    /// One request stream per caller.
    pub streams: Vec<Vec<ServerRequest>>,
    /// The `--seed` of the run: request streams and paced epochs.
    pub seed: u64,
    /// Index of the next fresh epoch the paced ingest will send.
    next_paced_epoch: u64,
    /// The cleartext records ingested in set-up (ground truth).
    ground_truth: Vec<Record>,
    pub checked: Checked,
    /// Segment bytes on disk ÷ `serde::bin` bytes of the records ingested
    /// in set-up (`routed_ingest` only, else `0`).
    pub stored_bytes_per_user_byte: f64,
    pub backend: &'static str,
    /// The mode the server itself reports in `ServeStats.mode`.
    pub server_mode: String,
    /// Router first, then shards: shut down in this order.
    servers: Vec<ServerHandle>,
    scratch: Option<PathBuf>,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for server in self.servers.drain(..) {
            server.shutdown_and_join();
        }
        // Scratch stores remove their own roots with their last handle;
        // this removes the directory that held them.
        self.systems.clear();
        if let Some(dir) = self.scratch.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One closed-loop caller: an in-process session or a wire connection.
pub enum Caller<'a> {
    Local(CoreSession<'a>),
    Wire(WireSession),
}

impl Caller<'_> {
    /// Send one request and return its answers (one per query).
    pub fn call(&mut self, request: &ServerRequest) -> Result<Vec<QueryAnswer>, String> {
        match (self, request) {
            (Caller::Local(s), ServerRequest::Query(q, o)) => s
                .execute_with(q, *o)
                .map(|a| vec![a])
                .map_err(|e| e.to_string()),
            (Caller::Local(s), ServerRequest::Batch(qs, o)) => s
                .clone()
                .with_options(*o)
                .execute_batch(qs)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string()),
            (Caller::Wire(s), ServerRequest::Query(q, o)) => s
                .execute_with(q, *o)
                .map(|a| vec![a])
                .map_err(|e| e.to_string()),
            (Caller::Wire(s), ServerRequest::Batch(qs, o)) => s
                .execute_batch_with(qs, *o)
                .map_err(|e| e.to_string())?
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string()),
        }
    }
}

impl Deployment {
    /// A new caller: a session on the in-process system, or a fresh
    /// attested connection to the server or router.
    pub fn caller(&self, name: &str) -> BenchResult<Caller<'_>> {
        match self.addr {
            None => Ok(Caller::Local(self.systems[0].session(&self.user))),
            Some(addr) => Ok(Caller::Wire(connect(addr, &self.user, name)?)),
        }
    }

    /// The oracle as a caller (traced replays, answer checks).
    pub fn oracle_caller(&self) -> Caller<'_> {
        Caller::Local(self.oracle.session(&self.user))
    }

    /// Drop the adversary-trace events the engines accumulated. A serving
    /// process never does this itself, so an undrained trace makes memory
    /// a function of requests served; the harness plays the operator.
    pub fn drain_observers(&self) {
        for system in self.systems.iter().chain(std::iter::once(&self.oracle)) {
            system.observer().reset();
        }
    }

    /// Build the deployment of `workload` from `seed` and answer-check it.
    pub fn build(workload: Workload, seed: u64) -> BenchResult<Deployment> {
        let mut deployment = match workload {
            Workload::WarmBatch => in_process(workload, WifiScale::Small, seed, None)?,
            Workload::ColdVerify => {
                in_process(workload, WifiScale::Large, seed, Some(COLD_CACHE_BINS))?
            }
            Workload::WirePoints => wire_points(seed)?,
            Workload::RoutedIngest => routed_ingest(seed)?,
        };
        deployment.check_answers()?;
        Ok(deployment)
    }

    /// Replay the first [`CHECK_REQUESTS`] requests of every stream:
    /// answers must be `Ok`, verified, match the cleartext ground truth,
    /// and — over the wire — encode byte-for-byte like the oracle's.
    /// Doubles as the warm-up: caches fill and lazy plans are built here.
    fn check_answers(&mut self) -> BenchResult<()> {
        let records = &self.ground_truth;
        let mut checked = Checked::default();
        for (idx, stream) in self.streams.iter().enumerate() {
            let mut caller = self.caller(&format!("check-{idx}"))?;
            let mut oracle = self.oracle_caller();
            for (i, request) in stream.iter().take(CHECK_REQUESTS).enumerate() {
                let label = format!("{} caller {idx} request {i}", self.workload.name());
                let got = caller
                    .call(request)
                    .or_else(|e| fail(&format!("answer check, {label}"), e))?;
                let queries = request_queries(request);
                if got.len() != queries.len() {
                    return fail(&label, "wrong number of answers");
                }
                if self.addr.is_some() {
                    let want = oracle
                        .call(request)
                        .or_else(|e| fail(&format!("oracle, {label}"), e))?;
                    if serde::bin::to_bytes(&got) != serde::bin::to_bytes(&want) {
                        return fail(&label, "wire answer diverges from the in-process oracle");
                    }
                }
                for (query, answer) in queries.iter().zip(&got) {
                    if !answer.verified {
                        return fail(&label, "answer was not verified");
                    }
                    let truth = ground_truth_query(query);
                    let matching = records
                        .iter()
                        .filter(|r| record_matches(r, &truth.predicate));
                    if answer.value != aggregate_records(matching, &truth) {
                        return fail(&label, "answer differs from the cleartext ground truth");
                    }
                    checked.rows_fetched += answer.rows_fetched;
                }
                checked.requests += 1;
                checked.queries += queries.len();
            }
            if let Caller::Wire(session) = caller {
                session
                    .close()
                    .or_else(|e| fail("closing check connection", e))?;
            }
        }
        self.checked = checked;
        Ok(())
    }
}

/// The query whose cleartext evaluation is `query`'s ground truth: the
/// engine answers a point query for the whole [`TIME_GRANULE`] around its
/// instant, so a point becomes that one-granule range.
fn ground_truth_query(query: &Query) -> Query {
    match &query.predicate {
        Predicate::Point { dims, time } => Query {
            aggregate: query.aggregate,
            predicate: Predicate::Range {
                dims: Some(dims.clone()),
                observation: None,
                time_start: time / TIME_GRANULE * TIME_GRANULE,
                time_end: time / TIME_GRANULE * TIME_GRANULE + TIME_GRANULE - 1,
            },
        },
        Predicate::Range { .. } => query.clone(),
    }
}

fn request_queries(request: &ServerRequest) -> &[Query] {
    match request {
        ServerRequest::Query(q, _) => std::slice::from_ref(q),
        ServerRequest::Batch(qs, _) => qs,
    }
}

/// Attest and authenticate one connection (default trust policy).
pub fn connect(addr: SocketAddr, user: &UserHandle, name: &str) -> BenchResult<WireSession> {
    ClientBuilder::new(addr)
        .user(user)
        .client_name(name)
        .connect()
        .or_else(|e| fail(&format!("connecting {name} to {addr}"), e))
}

pub fn memory_backend() -> Arc<dyn StorageBackend> {
    Arc::new(MemoryBackend::new())
}

/// A server configuration with everything that shapes a measurement
/// stated: serving core, ingest RNG seed and shard slice.
pub fn server_config(mode: ServerMode, shard: Option<(u32, u32)>) -> ServerConfig {
    ServerConfig {
        mode,
        shard,
        ingest_seed: INGEST_SEED,
        allow_ingest: true,
        ..ServerConfig::default()
    }
}

pub fn default_server_mode() -> BenchResult<ServerMode> {
    ServerMode::parse(DEFAULT_SERVER_MODE).or_else(|e| fail("default serving core", e))
}

/// The WiFi deployment shape of `scale`, as the repository's own benches
/// configure it (`concealer-bench::setup`), at scale multiplier 1.
pub fn wifi_shape(scale: WifiScale) -> (SystemConfig, WifiConfig, QueryWorkload) {
    let hours = scale.base_hours();
    let grid = scale.grid(hours);
    let config = SystemConfig {
        winsec_rows_per_interval: (grid.time_subintervals / 6).max(1),
        grid,
        epoch_duration: hours * 3600,
        time_granularity: TIME_GRANULE,
        fake_strategy: FakeTupleStrategy::SimulateBins,
        verify_integrity: true,
        oblivious: false,
    };
    let wifi = WifiConfig {
        access_points: scale.access_points(),
        devices: 500,
        peak_rows_per_hour: 5_000,
        offpeak_rows_per_hour: 600,
        location_skew: 0.8,
    };
    let queries = QueryWorkload {
        locations: scale.access_points(),
        devices: (1000..1500).collect(),
        time_extent: (0, hours * 3600),
    };
    (config, wifi, queries)
}

/// One in-memory system holding one WiFi epoch at `scale`.
pub fn build_wifi(
    scale: WifiScale,
) -> BenchResult<(ConcealerSystem, UserHandle, Vec<Record>, QueryWorkload)> {
    let (config, wifi, queries) = wifi_shape(scale);
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let records = WifiGenerator::new(wifi).generate_epoch(0, config.epoch_duration, &mut rng);
    let mut system = SystemBuilder::new(config)
        .with_backend(memory_backend())
        .build(&mut rng)
        .or_else(|e| fail("building WiFi system", e))?;
    let user = system.register_user(1, queries.devices.clone(), true);
    system
        .ingest_epoch(0, &records, &mut rng)
        .or_else(|e| fail("ingesting WiFi epoch", e))?;
    Ok((system, user, records, queries))
}

fn in_process(
    workload: Workload,
    scale: WifiScale,
    seed: u64,
    cache_bins: Option<usize>,
) -> BenchResult<Deployment> {
    let (system, user, records, queries) = build_wifi(scale)?;
    if let Some(bins) = cache_bins {
        system.set_bin_cache_capacity(bins);
    }
    let system = Arc::new(system);
    Ok(Deployment {
        workload,
        oracle: Arc::clone(&system),
        systems: vec![system],
        user,
        addr: None,
        shard_addrs: Vec::new(),
        streams: vec![request_stream(workload, seed, 0, &queries)],
        seed,
        next_paced_epoch: ROUTED_EPOCHS,
        checked: Checked::default(),
        stored_bytes_per_user_byte: 0.0,
        backend: "memory",
        server_mode: "in-process".to_string(),
        servers: Vec::new(),
        scratch: None,
        ground_truth: records,
    })
}

/// The demo deployment (`concealer-examples::demo_system`) built on an
/// explicit memory backend.
pub fn build_demo() -> BenchResult<(ConcealerSystem, UserHandle, Vec<Record>)> {
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let records =
        WifiGenerator::new(demo_wifi_config()).generate_epoch(0, DEMO_HOURS * 3600, &mut rng);
    let mut system = SystemBuilder::new(demo_config(DEMO_HOURS))
        .with_backend(memory_backend())
        .build(&mut rng)
        .or_else(|e| fail("building demo system", e))?;
    let user = system.register_user(7, DEMO_DEVICES.collect(), true);
    system
        .ingest_epoch(0, &records, &mut rng)
        .or_else(|e| fail("ingesting demo epoch", e))?;
    Ok((system, user, records))
}

/// Spawn a server over `system` and report the mode it says it runs.
pub fn spawn_server(
    system: Arc<ConcealerSystem>,
    config: ServerConfig,
) -> BenchResult<ServerHandle> {
    Server::new(system, config)
        .spawn()
        .or_else(|e| fail("binding server", e))
}

fn reported_mode(addr: SocketAddr, user: &UserHandle) -> BenchResult<String> {
    let mut session = connect(addr, user, "mode-probe")?;
    let stats = session.serve_stats().or_else(|e| fail("serve_stats", e))?;
    session.close().or_else(|e| fail("closing mode probe", e))?;
    Ok(stats.mode)
}

fn wire_points(seed: u64) -> BenchResult<Deployment> {
    let workload = Workload::WirePoints;
    let (system, user, records) = build_demo()?;
    let system = Arc::new(system);
    let server = spawn_server(
        Arc::clone(&system),
        server_config(default_server_mode()?, None),
    )?;
    let addr = server.local_addr();
    let queries = demo_workload(DEMO_HOURS);
    Ok(Deployment {
        workload,
        oracle: Arc::clone(&system),
        systems: vec![system],
        server_mode: reported_mode(addr, &user)?,
        user,
        addr: Some(addr),
        shard_addrs: Vec::new(),
        streams: (0..workload.callers())
            .map(|c| request_stream(workload, seed, c, &queries))
            .collect(),
        seed,
        next_paced_epoch: ROUTED_EPOCHS,
        checked: Checked::default(),
        stored_bytes_per_user_byte: 0.0,
        backend: "memory",
        servers: vec![server],
        scratch: None,
        ground_truth: records,
    })
}

/// System configuration of the routed deployment: the demo shape with
/// 90-minute epochs. Whole-hour epochs all hash to shard 0 of 2 under
/// `shard_of_epoch`; 5400 s epochs alternate.
pub fn routed_config() -> SystemConfig {
    let mut config = demo_config(DEMO_HOURS);
    config.epoch_duration = ROUTED_EPOCH;
    config.grid.time_subintervals = ROUTED_EPOCH / 900;
    config
}

/// The records of the routed epoch starting at `epoch_start`: generated
/// at a fixed peak-hour reference window and shifted into place.
pub fn routed_epoch_records(seed: u64, epoch_start: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed ^ epoch_start.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let generator = WifiGenerator::new(demo_wifi_config());
    let reference_end = ROUTED_REFERENCE_START + ROUTED_EPOCH;
    let mut records = Vec::new();
    let mut hour = ROUTED_REFERENCE_START;
    while hour < reference_end {
        records.extend(
            generator
                .generate_hour(hour, &mut rng)
                .into_iter()
                .filter(|r| r.time < reference_end),
        );
        hour += 3600;
    }
    for record in &mut records {
        record.time = record.time - ROUTED_REFERENCE_START + epoch_start;
    }
    records
}

/// The per-epoch RNG a server derives for a wire ingest.
fn ingest_rng(epoch_start: u64) -> StdRng {
    StdRng::seed_from_u64(INGEST_SEED ^ epoch_start.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory inside the checkout (`benchmark/out/`),
/// removed when its deployment drops.
pub fn scratch_dir() -> BenchResult<PathBuf> {
    let dir = crate::report::out_dir().join(format!(
        "scratch-{}-{}",
        std::process::id(),
        SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).or_else(|e| fail("creating scratch directory", e))?;
    Ok(dir)
}

/// One member of the routed deployment (a shard or the oracle): all share
/// the master key, so the user's credential is valid on each.
fn routed_system(backend: Arc<dyn StorageBackend>) -> BenchResult<(ConcealerSystem, UserHandle)> {
    let mut master = [0xB5u8; 32];
    master[..8].copy_from_slice(&DATA_SEED.to_le_bytes());
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let mut system = SystemBuilder::new(routed_config())
        .master(MasterKey::from_bytes(master))
        .engine_seed(DATA_SEED)
        .with_backend(backend)
        .build(&mut rng)
        .or_else(|e| fail("building routed system", e))?;
    let user = system.register_user(7, DEMO_DEVICES.collect(), true);
    Ok((system, user))
}

/// Bytes of every file under `dir/segments` (a `DiskEpochStore` root).
pub fn segment_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("segments"))
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

const ROUTED_SHARDS: u32 = 2;

fn routed_ingest(seed: u64) -> BenchResult<Deployment> {
    let workload = Workload::RoutedIngest;
    let mode = default_server_mode()?;
    let scratch = scratch_dir()?;
    let mut systems = Vec::new();
    let mut servers = Vec::new();
    let mut shard_addrs = Vec::new();
    let mut roots = Vec::new();
    for index in 0..ROUTED_SHARDS {
        let root = scratch.join(format!("shard{index}"));
        let store =
            DiskEpochStore::open_scratch(&root).or_else(|e| fail("opening shard store", e))?;
        let (system, _user) = routed_system(Arc::new(store))?;
        let system = Arc::new(system);
        let server = spawn_server(
            Arc::clone(&system),
            server_config(mode, Some((index, ROUTED_SHARDS))),
        )?;
        shard_addrs.push(server.local_addr());
        servers.push(server);
        systems.push(system);
        roots.push(root);
    }
    let handler = RouterHandler::probe(RouterConfig {
        shards: shard_addrs.iter().map(SocketAddr::to_string).collect(),
        ..RouterConfig::default()
    })
    .or_else(|e| fail("probing shards", e))?;
    let router = Server::with_handler(Arc::new(handler), server_config(mode, None))
        .spawn()
        .or_else(|e| fail("binding router", e))?;
    let addr = router.local_addr();
    servers.insert(0, router);

    // The oracle: one memory system ingesting the same epochs with the
    // servers' per-epoch RNG derivation, so sealed state is identical.
    let (oracle, user) = routed_system(memory_backend())?;
    let mut deployment = Deployment {
        workload,
        systems,
        oracle: Arc::new(oracle),
        server_mode: String::new(),
        user,
        addr: Some(addr),
        shard_addrs,
        streams: Vec::new(),
        seed,
        next_paced_epoch: ROUTED_EPOCHS,
        checked: Checked::default(),
        stored_bytes_per_user_byte: 0.0,
        backend: "disk",
        servers,
        scratch: Some(scratch),
        ground_truth: Vec::new(),
    };

    // Pre-ingest through the router: adjacent epochs land on different
    // shards, two per shard.
    let mut ingest = connect(addr, &deployment.user, "pre-ingest")?;
    let mut user_bytes = 0usize;
    for k in 0..ROUTED_EPOCHS {
        let epoch_start = k * ROUTED_EPOCH;
        if shard_of_epoch(epoch_start, ROUTED_SHARDS as usize) != (k % 2) as usize {
            return fail(
                "routed_ingest",
                "pre-ingested epochs no longer alternate shards",
            );
        }
        let records = routed_epoch_records(DATA_SEED, epoch_start);
        user_bytes += serde::bin::to_bytes(&records).len();
        ingest
            .ingest_epoch(epoch_start, &records)
            .or_else(|e| fail("pre-ingesting through the router", e))?;
        deployment
            .oracle
            .ingest_epoch(epoch_start, &records, &mut ingest_rng(epoch_start))
            .or_else(|e| fail("oracle ingest", e))?;
        deployment.ground_truth.extend(records);
    }
    ingest
        .close()
        .or_else(|e| fail("closing pre-ingest connection", e))?;
    let stored: u64 = roots.iter().map(|r| segment_bytes(r)).sum();
    deployment.stored_bytes_per_user_byte = stored as f64 / user_bytes as f64;
    deployment.server_mode = reported_mode(addr, &deployment.user)?;

    let one_epoch = QueryWorkload {
        time_extent: (0, ROUTED_EPOCH),
        ..demo_workload(DEMO_HOURS)
    };
    deployment.streams = (0..workload.callers())
        .map(|c| request_stream(workload, seed, c, &one_epoch))
        .collect();
    Ok(deployment)
}

impl Deployment {
    /// Generate the next `count` fresh epochs for the paced ingest
    /// (`routed_ingest` only; empty elsewhere).
    pub fn paced_epochs(&mut self, count: usize) -> Vec<(u64, Vec<Record>)> {
        if self.workload != Workload::RoutedIngest {
            return Vec::new();
        }
        let first = self.next_paced_epoch;
        self.next_paced_epoch += count as u64;
        (first..self.next_paced_epoch)
            .map(|k| {
                (
                    k * ROUTED_EPOCH,
                    routed_epoch_records(self.seed, k * ROUTED_EPOCH),
                )
            })
            .collect()
    }
}

/// Options of a single query request, for replaying it elsewhere.
pub fn request_options(request: &ServerRequest) -> ExecOptions {
    match request {
        ServerRequest::Query(_, o) | ServerRequest::Batch(_, o) => *o,
    }
}
