//! The top-level [`ConcealerSystem`] facade: data provider, store and
//! engine wired into one deployment.

use concealer_crypto::MasterKey;
use concealer_enclave::registry::{UserId, UserRegistry};
use concealer_enclave::{Enclave, EnclaveConfig, SideChannelMeter};
use concealer_storage::{AccessObserver, EpochStore};
use rand::{Rng, RngCore};

use crate::api::Session;
use crate::bin_cache::BinCacheStats;
use crate::config::SystemConfig;
use crate::engine::{PhaseBreakdown, QueryEngine, UserHandle};
use crate::provider::{DataProvider, EpochStats};
use crate::types::Record;
use crate::{CoreError, Result};

/// What one registration pass did ([`ConcealerSystem::refresh_epochs`],
/// [`ConcealerSystem::promote_to_writer`]): the stored epochs it registered
/// with the engine and those it refused, both ascending.
#[derive(Debug, Default)]
pub struct Registration {
    /// Epoch ids registered by this pass.
    pub registered: Vec<u64>,
    /// Epochs left unregistered, each with the rule it failed.
    pub refused: Vec<(u64, CoreError)>,
}

/// Convenience facade bundling the data provider, the service-provider
/// store and the enclave-side query engine — the full deployment of
/// Figure 1 of the paper in one value. Examples and benchmarks use this;
/// library users who need to place the three roles on different machines
/// can use [`DataProvider`], [`concealer_storage::EpochStore`] and
/// [`QueryEngine`] directly.
///
/// Queries go through [`ConcealerSystem::session`]:
///
/// ```text
/// let session = system.session(&user);
/// let answer = session.execute(&Query::count().at_dims([3]).between(0, 1799))?;
/// ```
pub struct ConcealerSystem {
    provider: DataProvider,
    store: EpochStore,
    engine: QueryEngine,
    registry: UserRegistry,
    default_user: Option<UserHandle>,
    refused_at_open: Vec<(u64, CoreError)>,
}

impl std::fmt::Debug for ConcealerSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcealerSystem")
            .field("epochs", &self.engine.registered_epochs().len())
            .field("users", &self.registry.len())
            .finish_non_exhaustive()
    }
}

impl ConcealerSystem {
    /// Set up a full deployment: generate the shared secret, provision the
    /// enclave, and wire the store to it.
    #[must_use]
    pub fn new<R: RngCore>(config: SystemConfig, rng: &mut R) -> Self {
        let master = MasterKey::generate(rng);
        Self::assemble(config, master, rng.gen(), EpochStore::new())
            .expect("an empty in-memory store has no epochs to re-register")
    }

    /// Wire a deployment around an existing store, re-registering with the
    /// engine every epoch the store already holds (a reopened durable
    /// backend; see [`ConcealerSystem::register_epochs`] for the
    /// rules). A writer's open fails on a refusal — with
    /// [`CoreError::CorruptMetadata`] when `master` is not the key the
    /// epochs were sealed under; a replica's serves the rest and reports
    /// it in [`ConcealerSystem::refused_at_open`].
    pub(crate) fn assemble(
        config: SystemConfig,
        master: MasterKey,
        engine_seed: u64,
        store: EpochStore,
    ) -> Result<Self> {
        let provider = DataProvider::new(master.clone(), config.clone());
        let enclave_config = if config.oblivious {
            EnclaveConfig::oblivious()
        } else {
            EnclaveConfig::default()
        };
        let enclave = Enclave::provision(master, UserRegistry::new(), enclave_config);
        let engine = QueryEngine::new(config, enclave, store.clone(), engine_seed);
        let mut system = ConcealerSystem {
            provider,
            store,
            engine,
            registry: UserRegistry::new(),
            default_user: None,
            refused_at_open: Vec::new(),
        };
        system.refused_at_open = system.register_epochs(system.store.epoch_ids()).refused;
        match system.refused_at_open.first() {
            Some((_, e)) if !system.store.backend().read_only() => Err(e.clone()),
            _ => Ok(system),
        }
    }

    /// Register with the engine each of `candidates` that it does not hold
    /// yet — at open, on a replica's refresh tick and at promotion alike —
    /// and check each one it holds against the store. An epoch that fails
    /// is reported and the rest are still registered.
    ///
    /// Registration is a function of the stored snapshot alone, so a
    /// refused snapshot is not tried again: a replica's refresh offers only
    /// the epochs it has just absorbed, and promotion offers every stored
    /// epoch once more, since its recovery pass may re-read them.
    ///
    /// Two rules come before registration proper:
    ///
    /// * An epoch the §6 protocol rewrote in another process is refused
    ///   ([`QueryEngine::check_rewrites`]) — also one this engine holds,
    ///   registered by a replica before the writer rewrote it and loaded
    ///   by promotion since. That one stays registered, so its queries
    ///   fail verification rather than answer without it. The remedy is
    ///   to re-ingest the epoch.
    /// * An epoch with a key-vault entry must unwrap under this master at
    ///   the recorded generation; a mismatch means the store was sealed
    ///   under another master (or another lifecycle history). Epochs
    ///   without an entry predate the vault and are validated by metadata
    ///   registration alone.
    fn register_epochs(&self, candidates: Vec<u64>) -> Registration {
        let known: std::collections::BTreeSet<u64> =
            self.engine.registered_epochs().into_iter().collect();
        let mut pass = Registration::default();
        for epoch_id in candidates {
            let registered = if known.contains(&epoch_id) {
                self.engine.check_rewrites(epoch_id).map(|()| false)
            } else {
                self.register_stored_epoch(epoch_id).map(|()| true)
            };
            match registered {
                Ok(true) => pass.registered.push(epoch_id),
                Ok(false) => {}
                Err(e) => pass.refused.push((epoch_id, e)),
            }
        }
        pass
    }

    fn register_stored_epoch(&self, epoch_id: u64) -> Result<()> {
        self.engine.check_rewrites(epoch_id)?;
        if let Some((generation, blob)) = self.store.backend().sealed_key(epoch_id) {
            if self
                .provider
                .master()
                .unwrap_epoch_seal(generation, epoch_id, &blob)
                .is_none()
            {
                return Err(CoreError::CorruptMetadata);
            }
        }
        self.engine.register_epoch(epoch_id)
    }

    /// The stored epochs a replica's open refused, each with the rule it
    /// failed, as [`ConcealerSystem::refresh_epochs`] reports them. Empty
    /// on a writer, whose open fails instead.
    #[must_use]
    pub fn refused_at_open(&self) -> &[(u64, CoreError)] {
        &self.refused_at_open
    }

    /// Register a user with the data provider; the updated registry is
    /// pushed to the enclave, and the credential is returned to the user.
    /// The first registered user becomes the system's default user (used by
    /// the [`crate::SecureIndex`] impl).
    pub fn register_user(
        &mut self,
        user_id: u64,
        devices: Vec<u64>,
        aggregate: bool,
    ) -> UserHandle {
        let credential =
            self.registry
                .register(self.provider.master(), UserId(user_id), devices, aggregate);
        self.engine.enclave().update_registry(self.registry.clone());
        let handle = UserHandle {
            user_id: UserId(user_id),
            credential,
        };
        if self.default_user.is_none() {
            self.default_user = Some(handle.clone());
        }
        handle
    }

    /// The system's default user: the first user registered, if any.
    #[must_use]
    pub fn default_user(&self) -> Option<&UserHandle> {
        self.default_user.as_ref()
    }

    /// Open a query session for a registered user. The session carries the
    /// user's handle plus default [`crate::ExecOptions`] and is the primary way to
    /// execute queries (see [`Session`]).
    #[must_use]
    pub fn session(&self, user: &UserHandle) -> Session<'_> {
        Session::new(self, user.clone())
    }

    /// Encrypt and ingest one epoch of records (Phase 1 of the paper).
    ///
    /// Takes `&self`: ingest only publishes a new epoch snapshot to the
    /// store and touches the engine's epoch registry, so epochs can be ingested
    /// concurrently with query execution — late epochs land while earlier
    /// ones keep serving.
    pub fn ingest_epoch<R: RngCore>(
        &self,
        epoch_start: u64,
        records: &[Record],
        rng: &mut R,
    ) -> Result<EpochStats> {
        let shipment = self.provider.encrypt_epoch(epoch_start, records, rng)?;
        let stats = shipment.stats.clone();
        // The epoch's seal secret, wrapped under the current master
        // generation, is its key-vault entry: committed with the epoch in
        // one store write, so reopen can prove the epoch is readable under
        // this master and rotation has an entry to re-wrap. Backends
        // without lifecycle state discard it.
        let generation = self.store.backend().key_generation();
        let seal = self
            .provider
            .master()
            .wrap_epoch_seal(generation, epoch_start);
        self.store.ingest_sealed_epoch(
            shipment.epoch_id,
            shipment.rows,
            shipment.metadata,
            Some((generation, seal)),
        )?;
        self.engine.register_epoch(epoch_start)?;
        Ok(stats)
    }

    /// Pull in and register epochs another process committed to the shared
    /// durable store since the last look (the replica's refresh tick; see
    /// [`concealer_storage::StorageBackend::refresh`]). Takes `&self` for
    /// the same reason [`ConcealerSystem::ingest_epoch`] does: late epochs
    /// land while earlier ones keep serving. A no-op once the store is
    /// writable: the writer registers its own ingests.
    ///
    /// Registration follows the rules of a reopened store (see
    /// [`crate::SystemBuilder::build`]). An absorbed epoch that fails them
    /// — one the writer has rewritten under the §6 protocol, or whose
    /// sealed metadata does not decrypt — is reported in
    /// [`Registration::refused`] once, holds back no other epoch, and is
    /// not tried again on later ticks. `Err` means the store's refresh
    /// itself failed and nothing was registered.
    pub fn refresh_epochs(&self) -> Result<Registration> {
        let absorbed = self.store.backend().refresh()?;
        Ok(self.register_epochs(absorbed))
    }

    /// Promote this system's store from read-only replica to writer (a
    /// reopen of the durable root — no key material moves; see
    /// [`concealer_storage::StorageBackend::promote`]), then register
    /// every stored epoch the engine does not hold yet and check those it
    /// holds. Idempotent on a system that is already the writer.
    ///
    /// Once the store is the writer the promotion has happened, so a
    /// refused epoch does not fail it: it is reported in
    /// [`Registration::refused`], and the new writer must re-ingest it.
    /// That is the fate of an epoch the dead writer rewrote under the §6
    /// protocol, exactly as after a single-node restart — also one this
    /// replica had registered before the rewrite, which stays registered
    /// and fails its queries' verification. `Err` means the store's
    /// promotion itself failed.
    pub fn promote_to_writer(&self) -> Result<Registration> {
        self.store.backend().promote()?;
        Ok(self.register_epochs(self.store.epoch_ids()))
    }

    /// Whether this system's store is a read-only replica (ingest and §6
    /// rewrites are refused until [`ConcealerSystem::promote_to_writer`]).
    #[must_use]
    pub fn store_read_only(&self) -> bool {
        self.store.backend().read_only()
    }

    /// The master-key generation most recently begun on this system's
    /// store (`0` until the first rotation, and always `0` on backends
    /// without lifecycle state).
    #[must_use]
    pub fn key_generation(&self) -> u64 {
        self.store.backend().key_generation()
    }

    /// Number of key-vault entries still wrapped under an older master
    /// generation — `0` when no rotation is in flight.
    #[must_use]
    pub fn rotation_pending(&self) -> usize {
        self.store.backend().rotation_pending()
    }

    /// Rotate the master-key generation online: durably begin generation
    /// `current + 1`, then re-wrap every vault entry in bounded batches.
    /// Returns `(new_generation, entries_rewrapped)`.
    ///
    /// The rotation touches only the manifest's key vault — never the
    /// epochs, the enclave's derived keys, or anything on the query path
    /// (fetches read the resident cache) — so queries running concurrently
    /// with a rotation return bit-identical answers and traces. A crash
    /// mid-rotation is safe: the generation counter is bumped before any
    /// entry moves, so reopen sees a legal resumable state (see
    /// [`concealer_storage::StorageBackend::begin_key_rotation`]) and
    /// [`ConcealerSystem::resume_key_rotation`] finishes the job.
    pub fn rotate_master_generation(&self) -> Result<(u64, usize)> {
        let new_generation = self.store.backend().key_generation() + 1;
        self.store.backend().begin_key_rotation(new_generation)?;
        let rewrapped = self.resume_key_rotation()?;
        Ok((new_generation, rewrapped))
    }

    /// Finish a rotation another process (or a crashed run of this one)
    /// began: re-wrap every vault entry still behind the current key
    /// generation, in bounded batches. Returns how many entries moved.
    /// Idempotent; a store with no rotation in flight returns `0`.
    pub fn resume_key_rotation(&self) -> Result<usize> {
        /// Entries per batch: small enough that each durable manifest
        /// commit is quick, large enough to finish promptly.
        const REWRAP_BATCH: usize = 8;
        let backend = self.store.backend();
        let master = self.provider.master();
        let mut total = 0;
        loop {
            let moved = backend.rewrap_keys(
                &mut |epoch_id, generation, _old_blob| {
                    Ok(master.wrap_epoch_seal(generation, epoch_id))
                },
                REWRAP_BATCH,
            )?;
            if moved == 0 {
                return Ok(total);
            }
            total += moved;
        }
    }

    /// The adversary's view of the storage layer.
    #[must_use]
    pub fn observer(&self) -> &AccessObserver {
        self.store.observer()
    }

    /// The enclave's side-channel meter.
    #[must_use]
    pub fn meter(&self) -> &SideChannelMeter {
        self.engine.meter()
    }

    /// Statistics of the enclave-side decrypted-bin cache.
    #[must_use]
    pub fn bin_cache_stats(&self) -> BinCacheStats {
        self.engine.bin_cache_stats()
    }

    /// Resize the enclave-side decrypted-bin cache (`0` disables it). See
    /// [`QueryEngine::set_bin_cache_capacity`].
    pub fn set_bin_cache_capacity(&self, capacity: usize) {
        self.engine.set_bin_cache_capacity(capacity);
    }

    /// Snapshot of the engine's per-phase wall-clock accumulators.
    #[must_use]
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        self.engine.phase_breakdown()
    }

    /// The service-provider store.
    #[must_use]
    pub fn store(&self) -> &EpochStore {
        &self.store
    }

    /// The enclave-side query engine.
    #[must_use]
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The data provider.
    #[must_use]
    pub fn provider(&self) -> &DataProvider {
        &self.provider
    }
}
