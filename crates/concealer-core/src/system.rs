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
        Self::with_master(config, master, rng.gen())
    }

    /// Set up a deployment with an explicit master key and engine RNG seed
    /// (useful for reproducible tests and benchmarks).
    ///
    /// Uses the default in-memory store; to place the sealed segments on a
    /// different [`concealer_storage::StorageBackend`] (e.g. the durable
    /// [`concealer_storage::DiskEpochStore`]), use [`crate::SystemBuilder`].
    #[must_use]
    pub fn with_master(config: SystemConfig, master: MasterKey, engine_seed: u64) -> Self {
        Self::assemble(config, master, engine_seed, EpochStore::new())
            .expect("an empty in-memory store has no epochs to re-register")
    }

    /// Wire a deployment around an existing store, re-registering with the
    /// engine every epoch the store already holds (a reopened durable
    /// backend). Registration decrypts each epoch's metadata, so it fails
    /// with [`CoreError::CorruptMetadata`] when `master` does not match the
    /// key the epochs were sealed under.
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
        for epoch_id in store.epoch_ids() {
            // The §6 protocol re-encrypts bins under per-bin round keys whose
            // counters are enclave-resident state; registration would reset
            // them to round 0 and the next query on a rewritten bin would
            // issue trapdoors that miss every row (surfacing as a spurious
            // integrity violation, or a wrong answer with verification off).
            // Fail at build time instead, where the remedy is actionable.
            if store.rewrite_count(epoch_id)? > 0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "epoch {epoch_id} was rewritten by the forward-private (§6) \
                         protocol; its round counters are enclave state and do not \
                         survive a restart — re-ingest the epoch"
                    ),
                });
            }
            // Epochs carrying a key-vault entry must unwrap under this
            // master at the recorded generation — a mismatch means the
            // store was sealed under a different master (or a different
            // lifecycle history) and would fail at decrypt time anyway;
            // refuse here, where the remedy is actionable. Epochs without
            // an entry predate the vault and are validated by metadata
            // registration alone, as before.
            if let Some((generation, blob)) = store.backend().sealed_key(epoch_id) {
                if engine
                    .enclave()
                    .master_key_for_data_provider()
                    .unwrap_epoch_seal(generation, epoch_id, &blob)
                    .is_none()
                {
                    return Err(CoreError::CorruptMetadata);
                }
            }
            engine.register_epoch(epoch_id)?;
        }
        Ok(ConcealerSystem {
            provider,
            store,
            engine,
            registry: UserRegistry::new(),
            default_user: None,
        })
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
    /// Takes `&self`: ingest only touches the (sharded, internally locked)
    /// store and the engine's epoch registry, so epochs can be ingested
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
        self.store
            .ingest_epoch(shipment.epoch_id, shipment.rows, shipment.metadata)?;
        // Record the epoch's wrapped seal secret in the store's key vault
        // under the current master generation, so reopen can prove the
        // epoch is readable under this master and rotation has an entry
        // to re-wrap. A no-op on backends without lifecycle state.
        let backend = self.store.backend();
        let generation = backend.key_generation();
        backend.seal_key(
            epoch_start,
            generation,
            self.provider
                .master()
                .wrap_epoch_seal(generation, epoch_start),
        )?;
        self.engine.register_epoch(epoch_start)?;
        Ok(stats)
    }

    /// Pull in and register epochs another process committed to the shared
    /// durable store since the last look (the replica's refresh tick; see
    /// [`concealer_storage::StorageBackend::refresh`]). Returns the epoch
    /// ids registered. Takes `&self` for the same reason
    /// [`ConcealerSystem::ingest_epoch`] does: late epochs land while
    /// earlier ones keep serving.
    ///
    /// Epochs the writer has rewritten under the forward-private (§6)
    /// protocol are *not* registered: their per-bin round counters are the
    /// writer's enclave state and do not survive the hop (the same rule
    /// that makes a restarted system refuse them — see the build-time
    /// check in `assemble`).
    pub fn refresh_epochs(&self) -> Result<Vec<u64>> {
        let mut registered = Vec::new();
        for epoch_id in self.store.refresh()? {
            if self.store.rewrite_count(epoch_id)? > 0 {
                continue;
            }
            self.engine.register_epoch(epoch_id)?;
            registered.push(epoch_id);
        }
        Ok(registered)
    }

    /// Promote this system's store from read-only replica to writer (a
    /// reopen of the durable root — no key material moves; see
    /// [`concealer_storage::StorageBackend::promote`]), then register
    /// anything the recovery pass surfaced that the refresh loop had not
    /// absorbed yet. Idempotent on a system that is already the writer.
    /// Returns the epoch ids newly registered.
    ///
    /// Epochs the dead writer rewrote under the §6 protocol do not survive
    /// the failover (their round counters were the dead writer's enclave
    /// state — the restart rule); they are skipped here and must be
    /// re-ingested, exactly as after a single-node restart.
    pub fn promote_to_writer(&self) -> Result<Vec<u64>> {
        self.store.promote()?;
        let known: std::collections::BTreeSet<u64> =
            self.engine.registered_epochs().into_iter().collect();
        let mut registered = Vec::new();
        for epoch_id in self.store.epoch_ids() {
            if known.contains(&epoch_id) || self.store.rewrite_count(epoch_id)? > 0 {
                continue;
            }
            self.engine.register_epoch(epoch_id)?;
            registered.push(epoch_id);
        }
        Ok(registered)
    }

    /// Whether this system's store is a read-only replica (ingest and §6
    /// rewrites are refused until [`ConcealerSystem::promote_to_writer`]).
    #[must_use]
    pub fn store_read_only(&self) -> bool {
        self.store.read_only()
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
