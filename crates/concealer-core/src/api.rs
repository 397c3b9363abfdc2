//! The unified query surface: [`ExecOptions`], [`Session`] handles and the
//! [`SecureIndex`] trait.
//!
//! Every executor in the workspace — [`ConcealerSystem`] and the three
//! baselines in `concealer-baselines` — answers the same [`Query`] model
//! behind the same normalized [`QueryAnswer`], so equivalence tests,
//! benchmarks and examples are written once against this module instead of
//! hand-rolling per-backend glue.
//!
//! The pieces:
//!
//! * [`ExecOptions`] — everything that tunes *how* a query executes (range
//!   method, super-bins, forward privacy, verification, obliviousness),
//!   the merge of the old `RangeOptions` with the per-deployment toggles.
//! * [`Session`] — a user's handle on a [`ConcealerSystem`]: it carries the
//!   authenticated [`UserHandle`] plus default `ExecOptions`, and exposes
//!   [`Session::execute`] (dispatching on the predicate, replacing the old
//!   `point_query`/`range_query` split) and [`Session::execute_batch`]
//!   (cross-query bin deduplication — see the engine docs).
//! * [`SystemBuilder`] — deployment construction: master key, engine seed
//!   and, most importantly, *where the sealed epochs live* via
//!   [`SystemBuilder::with_backend`] (in-memory by default, or the durable
//!   [`DiskEpochStore`]). Reopening a durable backend re-registers every
//!   committed epoch with the enclave engine.
//! * [`SecureIndex`] — the minimal executor interface (`ingest_epoch` /
//!   `execute` / `answer_stats`) every backend implements.

use std::sync::Arc;

use concealer_crypto::MasterKey;
use concealer_storage::{DiskEpochStore, EpochStore, StorageBackend};
use rand::{Rng, RngCore};

use crate::config::SystemConfig;
use crate::engine::{ConcealerSystem, RangeMethod, UserHandle};
use crate::query::{Query, QueryAnswer};
use crate::types::Record;
use crate::{CoreError, Result};

/// Options controlling query execution (the merge of the old
/// `RangeOptions` with the verification and obliviousness toggles).
///
/// A [`Session`] carries one of these as its defaults; individual calls can
/// override them with [`Session::execute_with`].
///
/// Serializable so remote clients can carry execution options per request
/// (the serving layer caps `parallelism` server-side before dispatching).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExecOptions {
    /// Which method range queries execute with (§4.2, §5.2, §5.3).
    /// Point queries always fetch their single bin and ignore this.
    pub method: RangeMethod,
    /// Whether to group bins into super-bins (§8) and fetch whole
    /// super-bins, defending against query-workload frequency attacks.
    pub use_superbins: bool,
    /// Number of super-bins (`f` in §8).
    pub num_super_bins: usize,
    /// Whether to run the §6 multi-round protocol: when the deployment
    /// holds more than one epoch, a range also fetches random cover bins
    /// from every round it spans, and after the fetch everything it
    /// fetched is re-encrypted and written back in one commit per epoch.
    /// A §6 query whose fetch fails rewrites nothing. In a batch, a bin
    /// several §6 ranges fetch is fetched and rewritten once. On a
    /// one-epoch deployment a §6 range is the BPB range.
    /// The protocol re-encrypts whole bins, so a forward-private *range*
    /// runs only under [`RangeMethod::Bpb`]: under eBPB (the default) or
    /// winSecRange it is refused with [`CoreError::InvalidConfig`] before
    /// any trapdoor. Points fetch one bin under every method and run.
    /// The partial entry points (`execute_partials`,
    /// `execute_batch_partials`) refuse it.
    pub forward_private: bool,
    /// Whether to hash-chain-verify fetched bins. Effective only when the
    /// deployment shipped verification tags (`SystemConfig::verify_integrity`);
    /// setting it to `false` skips verification even when tags exist.
    pub verify: bool,
    /// Override the enclave's oblivious (Concealer+) mode for this
    /// execution: `None` inherits the deployment default.
    pub oblivious: Option<bool>,
    /// Worker threads for execution, the calling thread included (`0` and
    /// `1` both mean one worker, the calling thread). The engine uses
    /// exactly this many — never more than the batch has fetch units, and
    /// with no regard to the host's core count: capping it is deployment
    /// policy (`ServerConfig::max_parallelism` in the serving layer;
    /// [`Session::par_execute_batch`] asks for one per core). Batches of
    /// every method, single queries as batches of one and forward-private
    /// (§6) ranges run their fetch+verify and per-query aggregation stages
    /// on these workers (a §6 rewrite runs after them, on the calling
    /// thread); answers and the adversary-observable trace are
    /// bit-identical at every count.
    pub parallelism: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            method: RangeMethod::default(),
            use_superbins: false,
            num_super_bins: 4,
            forward_private: false,
            verify: true,
            oblivious: None,
            parallelism: 1,
        }
    }
}

impl ExecOptions {
    /// Options selecting a specific range method, otherwise default.
    #[must_use]
    pub fn with_method(method: RangeMethod) -> Self {
        ExecOptions {
            method,
            ..Self::default()
        }
    }

    /// Set the batch-execution worker-thread count (builder style).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// A user's authenticated handle on a [`ConcealerSystem`]: the single entry
/// point for executing queries.
///
/// ```
/// # use concealer_core::{ConcealerSystem, SystemConfig, Query, Record};
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// # let mut system = ConcealerSystem::new(SystemConfig::small_test(), &mut rng);
/// # let user = system.register_user(7, vec![1000], true);
/// # let records: Vec<Record> = (0..50)
/// #     .map(|i| Record::spatial(i % 4, i * 60, 1000 + i % 3))
/// #     .collect();
/// # system.ingest_epoch(0, &records, &mut rng).unwrap();
/// let session = system.session(&user);
/// let answer = session
///     .execute(&Query::count().at_dims([3]).between(0, 1_799))
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Session<'a> {
    system: &'a ConcealerSystem,
    user: UserHandle,
    options: ExecOptions,
}

impl<'a> Session<'a> {
    pub(crate) fn new(system: &'a ConcealerSystem, user: UserHandle) -> Self {
        Session {
            system,
            user,
            options: ExecOptions::default(),
        }
    }

    /// Replace the session's default execution options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// The session's default execution options.
    #[must_use]
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// The user this session executes as.
    #[must_use]
    pub fn user(&self) -> &UserHandle {
        &self.user
    }

    /// Execute one query with the session's default options, dispatching on
    /// the predicate (point fetches its bin; ranges run the configured
    /// range method).
    pub fn execute(&self, query: &Query) -> Result<QueryAnswer> {
        self.execute_with(query, self.options)
    }

    /// Execute one query with explicit options (overriding the session
    /// defaults for this call only).
    pub fn execute_with(&self, query: &Query, options: ExecOptions) -> Result<QueryAnswer> {
        self.system.engine().execute(&self.user, query, options)
    }

    /// Execute a batch of queries. Fetch units — a bin under BPB and for
    /// points, an eBPB / winSecRange cell-group of one round — are
    /// deduplicated across the batch: each unit the batch needs is
    /// fetched — and hash-chain-verified — exactly once, then filtered and
    /// aggregated per query, with answers (including per-query fetch
    /// metadata) identical to sequential execution. In a forward-private
    /// session a bin several §6 ranges share is also rewritten once; see
    /// [`crate::engine::QueryEngine::execute_batch`] for the leakage
    /// argument.
    pub fn execute_batch(&self, queries: &[Query]) -> Vec<Result<QueryAnswer>> {
        self.system
            .engine()
            .execute_batch(&self.user, queries, self.options)
    }

    /// Execute one query over only the epochs this process holds,
    /// returning one [`crate::EpochPartial`] per touched epoch instead of
    /// a finished answer — the shard half of multi-node serving. Partials
    /// from every shard recombine through [`crate::merge_partials`] into
    /// the answer a single-process [`Session::execute_with`] would
    /// produce, bit for bit. An empty vector is not an error: the query's
    /// epochs may live on other shards.
    pub fn execute_partials(
        &self,
        query: &Query,
        options: ExecOptions,
    ) -> Result<Vec<crate::EpochPartial>> {
        self.system
            .engine()
            .execute_partials(&self.user, query, options)
    }

    /// Partial-execution counterpart of [`Session::execute_batch`]: run a
    /// batch over only the epochs this process holds, with `(epoch, unit)`
    /// fetches deduplicated across the batch within the shard's slice.
    /// See [`crate::engine::QueryEngine::execute_batch_partials`].
    pub fn execute_batch_partials(
        &self,
        queries: &[Query],
    ) -> Vec<Result<Vec<crate::EpochPartial>>> {
        self.system
            .engine()
            .execute_batch_partials(&self.user, queries, self.options)
    }

    /// Execute a batch of queries on all available cores: [`Session::execute_batch`]
    /// with [`ExecOptions::parallelism`] set to
    /// [`std::thread::available_parallelism`].
    ///
    /// Parallelism changes **nothing observable**: per-query answers
    /// (including fetch metadata) are bit-identical to sequential
    /// execution, and the storage-level trace is merged back in
    /// deterministic unit order, so it equals the sequential trace exactly.
    pub fn par_execute_batch(&self, queries: &[Query]) -> Vec<Result<QueryAnswer>> {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let options = ExecOptions {
            parallelism: threads,
            ..self.options
        };
        self.system
            .engine()
            .execute_batch(&self.user, queries, options)
    }
}

/// Environment variable the test and bench harnesses use to select the
/// storage backend (`memory` — the default — or `disk`). Read by
/// [`SystemBuilder::backend_from_env`]; ordinary construction paths never
/// consult the environment.
pub const BACKEND_ENV_VAR: &str = "CONCEALER_TEST_BACKEND";

/// Deployment constructor: configuration plus the optional master key,
/// engine RNG seed and storage backend.
///
/// ```
/// use std::sync::Arc;
/// use concealer_core::{DiskEpochStore, Query, Record, SystemBuilder, SystemConfig};
/// use rand::SeedableRng;
///
/// # let root = std::env::temp_dir().join(format!("concealer-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&root);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // Place the sealed epochs on disk instead of in memory:
/// let backend = Arc::new(DiskEpochStore::open(&root)?);
/// let mut system = SystemBuilder::new(SystemConfig::small_test())
///     .with_backend(backend)
///     .build(&mut rng)?;
/// let user = system.register_user(7, vec![1000], true);
/// let records: Vec<Record> = (0..50)
///     .map(|i| Record::spatial(i % 4, i * 60, 1000 + i % 3))
///     .collect();
/// system.ingest_epoch(0, &records, &mut rng)?;
/// // ... the ingested epoch now survives a process restart: reopening the
/// // same root with the same master key serves it again.
/// # let _ = std::fs::remove_dir_all(&root);
/// # Ok::<(), concealer_core::CoreError>(())
/// ```
///
/// Durability does not change what the adversary may do — the backend is
/// the *untrusted* service provider's storage either way, and hash-chain
/// verification catches tampering identically. One restriction applies to
/// reopened deployments: the §6 forward-privacy round counters are
/// enclave-resident state, so epochs rewritten by forward-private queries
/// do not survive a restart of the enclave (re-ingest them instead).
#[derive(Debug)]
pub struct SystemBuilder {
    config: SystemConfig,
    master: Option<MasterKey>,
    engine_seed: Option<u64>,
    backend: Option<Arc<dyn StorageBackend>>,
}

impl SystemBuilder {
    /// Start a builder for the given deployment configuration.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        SystemBuilder {
            config,
            master: None,
            engine_seed: None,
            backend: None,
        }
    }

    /// Use an explicit master key (required to reopen a durable backend:
    /// the epochs on it are sealed under this key). Default: generated
    /// from the `build` RNG.
    #[must_use]
    pub fn master(mut self, master: MasterKey) -> Self {
        self.master = Some(master);
        self
    }

    /// Seed the engine's internal RNG (reproducible §6 extra-bin choices).
    /// Default: drawn from the `build` RNG.
    #[must_use]
    pub fn engine_seed(mut self, seed: u64) -> Self {
        self.engine_seed = Some(seed);
        self
    }

    /// Store sealed epochs on an explicit [`StorageBackend`] — e.g. a
    /// [`DiskEpochStore`] — instead of the default in-memory backend.
    /// Epochs already committed on the backend (a reopened durable store)
    /// are re-registered with the engine during [`SystemBuilder::build`].
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn StorageBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Honor the [`BACKEND_ENV_VAR`] harness hook: `disk` swaps in a
    /// [`DiskEpochStore`] rooted in a fresh scratch directory under the OS
    /// temp dir; unset, empty or `memory` leaves the builder unchanged.
    /// Any other value is an error — a typo must not silently run the
    /// matrix against the wrong backend.
    ///
    /// This is for test/bench harnesses (the CI backend matrix reruns the
    /// integration suites with `CONCEALER_TEST_BACKEND=disk`); production
    /// callers pick their backend explicitly via
    /// [`SystemBuilder::with_backend`].
    pub fn backend_from_env(self) -> Result<Self> {
        match std::env::var(BACKEND_ENV_VAR) {
            Err(_) => Ok(self),
            Ok(v) if v.is_empty() || v == "memory" => Ok(self),
            Ok(v) if v == "disk" => {
                // A scratch store: the directory is deleted when the last
                // handle drops, so matrix runs leave no residue in /tmp.
                let backend = DiskEpochStore::open_scratch(scratch_dir())?;
                Ok(self.with_backend(Arc::new(backend)))
            }
            Ok(v) => Err(CoreError::InvalidConfig {
                reason: format!("unknown {BACKEND_ENV_VAR} value {v:?} (expected memory or disk)"),
            }),
        }
    }

    /// Assemble the deployment. Fails when a pre-populated backend's
    /// epochs cannot be registered (metadata or key-vault entry sealed
    /// under a different master key, corrupt metadata, or an epoch the §6
    /// protocol rewrote) — except on a read-only replica, which serves the
    /// rest and lists them in [`ConcealerSystem::refused_at_open`].
    pub fn build<R: RngCore>(self, rng: &mut R) -> Result<ConcealerSystem> {
        let master = self.master.unwrap_or_else(|| MasterKey::generate(rng));
        let engine_seed = self.engine_seed.unwrap_or_else(|| rng.gen());
        let store = match self.backend {
            Some(backend) => EpochStore::with_backend(backend),
            None => EpochStore::new(),
        };
        ConcealerSystem::assemble(self.config, master, engine_seed, store)
    }
}

/// A fresh, unique scratch directory for an env-selected disk backend.
fn scratch_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos: u64 = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()));
    std::env::temp_dir().join(format!(
        "concealer-backend-{}-{}-{nanos}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Descriptive statistics a [`SecureIndex`] backend reports about how it
/// answers queries — its cost/leakage profile plus storage totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Short backend identifier (`"concealer"`, `"cleartext"`, …).
    pub backend: &'static str,
    /// Epochs ingested so far.
    pub epochs: usize,
    /// Rows stored (for Concealer this includes volume-hiding fakes).
    pub rows_stored: usize,
    /// Whether per-query fetch volumes are independent of the data
    /// distribution.
    pub volume_hiding: bool,
    /// Whether fetched data is integrity-verified against provider tags.
    pub verifiable: bool,
    /// Whether every query scans the full store (Opaque-style baselines).
    pub full_scan_per_query: bool,
    /// Decrypted-bin cache statistics, for backends that keep one
    /// (Concealer's enclave-side cache); `None` for the baselines.
    pub bin_cache: Option<crate::BinCacheStats>,
}

/// The minimal interface every secure-index backend exposes: ingest epochs,
/// execute queries behind the normalized [`QueryAnswer`], and describe
/// itself. Implemented by [`ConcealerSystem`] and by all three baselines in
/// `concealer-baselines`, so equivalence tests and benchmarks can treat
/// backends uniformly.
pub trait SecureIndex {
    /// Encrypt (where applicable) and ingest one epoch of records.
    fn ingest_epoch(
        &mut self,
        epoch_start: u64,
        records: &[Record],
        rng: &mut dyn RngCore,
    ) -> Result<()>;

    /// Execute one query and return the normalized answer.
    fn execute(&self, query: &Query) -> Result<QueryAnswer>;

    /// The backend's execution profile and storage totals.
    fn answer_stats(&self) -> IndexStats;
}

impl SecureIndex for ConcealerSystem {
    /// Ingest via the data provider pipeline (Phase 1 of the paper).
    fn ingest_epoch(
        &mut self,
        epoch_start: u64,
        records: &[Record],
        mut rng: &mut dyn RngCore,
    ) -> Result<()> {
        // `&mut &mut dyn RngCore` is a sized `RngCore`, satisfying the
        // inherent method's generic bound.
        ConcealerSystem::ingest_epoch(self, epoch_start, records, &mut rng).map(|_| ())
    }

    /// Execute as the system's default user (the first registered user)
    /// with default [`ExecOptions`]. Use [`ConcealerSystem::session`] when
    /// a specific user or non-default options are needed.
    fn execute(&self, query: &Query) -> Result<QueryAnswer> {
        let user = self.default_user().ok_or(crate::CoreError::InvalidQuery {
            reason: "SecureIndex::execute needs a registered user; call register_user first",
        })?;
        self.session(user).execute(query)
    }

    fn answer_stats(&self) -> IndexStats {
        IndexStats {
            backend: "concealer",
            epochs: self.engine().registered_epochs().len(),
            rows_stored: self.store().total_rows(),
            volume_hiding: true,
            verifiable: self.engine().config().verify_integrity,
            full_scan_per_query: false,
            bin_cache: Some(self.engine().bin_cache_stats()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("concealer-api-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<Record> {
        (0..60)
            .map(|i| Record::spatial(i % 4, i * 55, 1000 + i % 3))
            .collect()
    }

    #[test]
    fn disk_backed_system_survives_drop_and_reopen() {
        let root = scratch("reopen");
        let master = MasterKey::from_bytes([3u8; 32]);
        let records = sample_records();
        let query = Query::count().at_dims([2]).between(0, 3_599);

        let expected = {
            let mut rng = StdRng::seed_from_u64(5);
            let mut system = SystemBuilder::new(SystemConfig::small_test())
                .master(master.clone())
                .with_backend(Arc::new(DiskEpochStore::open(&root).unwrap()))
                .build(&mut rng)
                .unwrap();
            let user = system.register_user(1, vec![], true);
            system.ingest_epoch(0, &records, &mut rng).unwrap();
            let answer = system.session(&user).execute(&query).unwrap();
            assert!(answer.verified);
            answer
        };

        // A new process: same root, same master, nothing re-ingested.
        let mut rng = StdRng::seed_from_u64(99);
        let mut system = SystemBuilder::new(SystemConfig::small_test())
            .master(master)
            .with_backend(Arc::new(DiskEpochStore::open(&root).unwrap()))
            .build(&mut rng)
            .unwrap();
        assert_eq!(system.store().backend_kind(), "disk");
        assert_eq!(system.engine().registered_epochs(), vec![0]);
        let user = system.register_user(1, vec![], true);
        let answer = system.session(&user).execute(&query).unwrap();
        assert_eq!(answer, expected);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopening_with_the_wrong_master_fails_registration() {
        let root = scratch("wrongmaster");
        {
            let mut rng = StdRng::seed_from_u64(6);
            let mut system = SystemBuilder::new(SystemConfig::small_test())
                .master(MasterKey::from_bytes([7u8; 32]))
                .with_backend(Arc::new(DiskEpochStore::open(&root).unwrap()))
                .build(&mut rng)
                .unwrap();
            system.register_user(1, vec![], true);
            system.ingest_epoch(0, &sample_records(), &mut rng).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(7);
        let err = SystemBuilder::new(SystemConfig::small_test())
            .master(MasterKey::from_bytes([8u8; 32]))
            .with_backend(Arc::new(DiskEpochStore::open(&root).unwrap()))
            .build(&mut rng)
            .unwrap_err();
        assert!(matches!(err, CoreError::CorruptMetadata));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn backend_env_hook_passthrough_when_unset() {
        // Env mutation is process-global, so this test only covers the
        // variable's current state: pass-through when unset/memory, a disk
        // backend when the matrix set `disk`.
        let builder = SystemBuilder::new(SystemConfig::small_test())
            .backend_from_env()
            .unwrap();
        match std::env::var(BACKEND_ENV_VAR).as_deref() {
            Ok("disk") => assert!(builder.backend.is_some()),
            _ => assert!(builder.backend.is_none()),
        }
    }

    #[test]
    fn reopening_a_forward_private_rewritten_epoch_fails_at_build() {
        let root = scratch("fwdpriv");
        let master = MasterKey::from_bytes([9u8; 32]);
        {
            let mut rng = StdRng::seed_from_u64(8);
            let mut system = SystemBuilder::new(SystemConfig::small_test())
                .master(master.clone())
                .with_backend(Arc::new(DiskEpochStore::open(&root).unwrap()))
                .build(&mut rng)
                .unwrap();
            let user = system.register_user(1, vec![], true);
            let later: Vec<Record> = sample_records()
                .into_iter()
                .map(|mut r| {
                    r.time += 3_600;
                    r
                })
                .collect();
            system.ingest_epoch(0, &sample_records(), &mut rng).unwrap();
            system.ingest_epoch(3_600, &later, &mut rng).unwrap();
            // A forward-private multi-epoch query triggers the §6 rewrite
            // protocol, bumping round keys the reopened enclave cannot know.
            let opts = ExecOptions {
                method: RangeMethod::Bpb,
                forward_private: true,
                ..ExecOptions::default()
            };
            let q = Query::count().at_dims([1]).between(0, 7_199);
            system
                .session(&user)
                .with_options(opts)
                .execute(&q)
                .unwrap();
            assert!(system.store().rewrite_count(0).unwrap() > 0);
        }
        // Build must refuse cleanly instead of serving round-0 trapdoors
        // against round-1 ciphertexts (a spurious integrity violation at
        // best, a wrong answer with verification off at worst).
        let mut rng = StdRng::seed_from_u64(9);
        let err = SystemBuilder::new(SystemConfig::small_test())
            .master(master)
            .with_backend(Arc::new(DiskEpochStore::open(&root).unwrap()))
            .build(&mut rng)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidConfig { ref reason } if reason.contains("re-ingest")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A replica's refresh strands no epoch behind one that fails: the
    /// writer commits epochs 0 and 3600, epoch 0 with its sealed
    /// `c_tuple[]` corrupted, and the replica's refresh still registers
    /// 3600, which then answers as on the writer. The refresh reports epoch
    /// 0's refusal once; the next one does not decrypt it again.
    #[test]
    fn a_failed_epoch_strands_no_later_epoch_on_a_replica() {
        let root = scratch("replica-strand");
        let master = MasterKey::from_bytes([11u8; 32]);
        let build = |backend: DiskEpochStore, seed: u64| {
            SystemBuilder::new(SystemConfig::small_test())
                .master(master.clone())
                .with_backend(Arc::new(backend))
                .build(&mut StdRng::seed_from_u64(seed))
                .unwrap()
        };
        let mut writer = build(DiskEpochStore::open(&root).unwrap(), 10);
        let mut replica = build(DiskEpochStore::open_replica(&root).unwrap(), 11);

        let mut rng = StdRng::seed_from_u64(12);
        let mut shipment = writer
            .provider()
            .encrypt_epoch(0, &sample_records(), &mut rng)
            .unwrap();
        *shipment.metadata.enc_c_tuple.last_mut().unwrap() ^= 1;
        writer
            .store()
            .ingest_epoch(0, shipment.rows, shipment.metadata)
            .unwrap();
        let later: Vec<Record> = sample_records()
            .into_iter()
            .map(|mut r| {
                r.time += 3_600;
                r
            })
            .collect();
        writer.ingest_epoch(3_600, &later, &mut rng).unwrap();

        let refreshed = replica.refresh_epochs().unwrap();
        assert_eq!(refreshed.registered, vec![3_600]);
        assert!(
            matches!(refreshed.refused[..], [(0, CoreError::CorruptMetadata)]),
            "{refreshed:?}"
        );
        assert_eq!(replica.engine().registered_epochs(), vec![3_600]);
        let query = Query::count().at_dims([2]).between(3_600, 7_199);
        let user = replica.register_user(1, vec![], true);
        let answer = replica.session(&user).execute(&query).unwrap();
        let writer_user = writer.register_user(1, vec![], true);
        let expected = writer.session(&writer_user).execute(&query).unwrap();
        assert_eq!((&answer.value, answer.verified), (&expected.value, true));

        let again = replica.refresh_epochs().unwrap();
        assert!(
            again.registered.is_empty() && again.refused.is_empty(),
            "{again:?}"
        );
        assert_eq!(replica.engine().registered_epochs(), vec![3_600]);
        drop((writer, replica));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A replica that absorbed epochs the writer had already rewritten
    /// under §6 refuses them, and still becomes the writer on promotion:
    /// the promotion reports them refused and the promoted member takes
    /// ingests and answers over them.
    #[test]
    fn promotion_survives_epochs_rewritten_before_the_replica_saw_them() {
        let root = scratch("promote-rewritten");
        let master = MasterKey::from_bytes([13u8; 32]);
        let build = |backend: DiskEpochStore, seed: u64| {
            SystemBuilder::new(SystemConfig::small_test())
                .master(master.clone())
                .with_backend(Arc::new(backend))
                .build(&mut StdRng::seed_from_u64(seed))
                .unwrap()
        };
        let mut writer = build(DiskEpochStore::open(&root).unwrap(), 20);
        let mut replica = build(DiskEpochStore::open_replica(&root).unwrap(), 21);
        let shifted = |by: u64| -> Vec<Record> {
            sample_records()
                .into_iter()
                .map(|mut r| {
                    r.time += by;
                    r
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(22);
        writer.ingest_epoch(0, &shifted(0), &mut rng).unwrap();
        writer
            .ingest_epoch(3_600, &shifted(3_600), &mut rng)
            .unwrap();
        let user = writer.register_user(1, vec![], true);
        let opts = ExecOptions {
            method: RangeMethod::Bpb,
            forward_private: true,
            ..ExecOptions::default()
        };
        let q = Query::count().at_dims([1]).between(0, 7_199);
        writer
            .session(&user)
            .with_options(opts)
            .execute(&q)
            .unwrap();
        assert!(writer.store().rewrite_count(0).unwrap() > 0);
        assert!(writer.store().rewrite_count(3_600).unwrap() > 0);

        let refreshed = replica.refresh_epochs().unwrap();
        assert!(refreshed.registered.is_empty(), "{refreshed:?}");
        assert_eq!(
            refreshed
                .refused
                .iter()
                .map(|(e, _)| *e)
                .collect::<Vec<_>>(),
            vec![0, 3_600]
        );
        drop(writer);

        let promoted = replica.promote_to_writer().unwrap();
        assert!(promoted.registered.is_empty(), "{promoted:?}");
        assert!(
            promoted.refused.iter().all(|(_, e)| {
                matches!(e, CoreError::InvalidConfig { reason } if reason.contains("re-ingest"))
            }),
            "{promoted:?}"
        );
        assert_eq!(promoted.refused.len(), 2, "{promoted:?}");
        assert!(!replica.store_read_only());

        replica
            .ingest_epoch(7_200, &shifted(7_200), &mut rng)
            .unwrap();
        assert_eq!(replica.engine().registered_epochs(), vec![7_200]);
        let replica_user = replica.register_user(1, vec![], true);
        let answer = replica
            .session(&replica_user)
            .execute(&Query::count().at_dims([1]).between(7_200, 10_799))
            .unwrap();
        // Every fourth sample record is at location 1.
        assert_eq!(
            (answer.value, answer.verified),
            (crate::query::AnswerValue::Count(15), true)
        );
        drop(replica);
        let _ = std::fs::remove_dir_all(&root);
    }
    /// A writer over `root` holding epochs 0 and 3600, and its user.
    fn writer_of_two_epochs(
        root: &std::path::Path,
        master: &MasterKey,
    ) -> (ConcealerSystem, crate::UserHandle) {
        let mut rng = StdRng::seed_from_u64(30);
        let mut writer = SystemBuilder::new(SystemConfig::small_test())
            .master(master.clone())
            .with_backend(Arc::new(DiskEpochStore::open(root).unwrap()))
            .build(&mut rng)
            .unwrap();
        for start in [0, 3_600] {
            let records: Vec<Record> = sample_records()
                .into_iter()
                .map(|mut r| {
                    r.time += start;
                    r
                })
                .collect();
            writer.ingest_epoch(start, &records, &mut rng).unwrap();
        }
        let user = writer.register_user(1, vec![], true);
        (writer, user)
    }

    /// A BPB §6 count over `[t0, t1]` on `system`, which rewrites every
    /// epoch it touches.
    fn forward_private_range(system: &ConcealerSystem, user: &crate::UserHandle, t0: u64, t1: u64) {
        let opts = ExecOptions {
            method: RangeMethod::Bpb,
            forward_private: true,
            ..ExecOptions::default()
        };
        let q = Query::count().at_dims([1]).between(t0, t1);
        system.session(user).with_options(opts).execute(&q).unwrap();
    }

    fn replica_of(root: &std::path::Path, master: &MasterKey) -> Result<ConcealerSystem> {
        SystemBuilder::new(SystemConfig::small_test())
            .master(master.clone())
            .with_backend(Arc::new(DiskEpochStore::open_replica(root).unwrap()))
            .build(&mut StdRng::seed_from_u64(31))
    }

    fn refused_ids(refused: &[(u64, CoreError)]) -> Vec<u64> {
        assert!(
            refused.iter().all(|(_, e)| {
                matches!(e, CoreError::InvalidConfig { reason } if reason.contains("re-ingest"))
            }),
            "{refused:?}"
        );
        refused.iter().map(|(epoch_id, _)| *epoch_id).collect()
    }

    /// A replica registered epochs 0 and 3600 before the writer rewrote
    /// both under §6. Promotion loads the rewritten generations, so it
    /// reports both refused; they stay registered, and a query over them
    /// fails its verification rather than answering without them.
    #[test]
    fn promotion_refuses_epochs_rewritten_after_the_replica_registered_them() {
        let root = scratch("promote-stale");
        let master = MasterKey::from_bytes([15u8; 32]);
        let (writer, user) = writer_of_two_epochs(&root, &master);
        let mut replica = replica_of(&root, &master).unwrap();
        assert_eq!(replica.engine().registered_epochs(), vec![0, 3_600]);
        forward_private_range(&writer, &user, 0, 7_199);
        assert!(writer.store().rewrite_count(0).unwrap() > 0);
        assert!(writer.store().rewrite_count(3_600).unwrap() > 0);
        drop(writer);

        let promoted = replica.promote_to_writer().unwrap();
        assert!(promoted.registered.is_empty(), "{promoted:?}");
        assert_eq!(refused_ids(&promoted.refused), vec![0, 3_600]);
        assert_eq!(replica.engine().registered_epochs(), vec![0, 3_600]);
        let user = replica.register_user(1, vec![], true);
        let answer = replica
            .session(&user)
            .execute(&Query::count().at_dims([1]).between(0, 7_199));
        assert!(
            matches!(answer, Err(CoreError::IntegrityViolation { .. })),
            "{answer:?}"
        );
        drop(replica);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A replica started over a root that holds a §6-rewritten epoch
    /// refuses that epoch, serves the other one verified, and reports the
    /// refusal as a refresh would.
    #[test]
    fn a_replica_opens_over_a_rewritten_epoch() {
        let root = scratch("replica-open-rewritten");
        let master = MasterKey::from_bytes([16u8; 32]);
        let (writer, user) = writer_of_two_epochs(&root, &master);
        forward_private_range(&writer, &user, 0, 3_599);
        assert!(writer.store().rewrite_count(0).unwrap() > 0);
        assert_eq!(writer.store().rewrite_count(3_600).unwrap(), 0);

        let mut replica = replica_of(&root, &master).unwrap();
        assert_eq!(refused_ids(replica.refused_at_open()), vec![0]);
        assert_eq!(replica.engine().registered_epochs(), vec![3_600]);
        let query = Query::count().at_dims([2]).between(3_600, 7_199);
        let replica_user = replica.register_user(1, vec![], true);
        let answer = replica.session(&replica_user).execute(&query).unwrap();
        let expected = writer.session(&user).execute(&query).unwrap();
        assert_eq!((&answer.value, answer.verified), (&expected.value, true));
        drop((writer, replica));
        let _ = std::fs::remove_dir_all(&root);
    }
}
