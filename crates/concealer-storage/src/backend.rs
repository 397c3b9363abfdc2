//! The pluggable persistence layer behind [`crate::EpochStore`].
//!
//! [`StorageBackend`] is the seam between *what the service provider
//! stores* (sealed epoch segments: encrypted rows, encrypted metadata,
//! rewrite counters) and *where it stores them*. The query path, the
//! observer instrumentation and the access-pattern guarantees all live in
//! [`crate::EpochStore`], which drives whichever backend it was built on —
//! so every backend is, by construction, adversary-visible storage whose
//! contents the hash-chain verification layer keeps honest.
//!
//! Two implementations ship:
//!
//! * [`MemoryBackend`] — the default: epochs live in a 16-way sharded
//!   in-process map and vanish with the process.
//! * [`crate::DiskEpochStore`] — crash-safe on-disk segments with a
//!   manifest for atomic epoch commit (see [`crate::disk`]).

use crate::epoch_store::StoredEpoch;
use crate::{unpoisoned, Result, StorageError};
use std::collections::BTreeMap;
use std::sync::RwLock;

/// Number of independently locked epoch shards. Epochs hash to a fixed
/// shard, so queries touching different epochs never contend on one lock
/// and parallel batch fetches scale with the shard count rather than
/// serializing on a single store-wide `RwLock`. Every backend keeps this
/// discipline so `ingest_epoch(&self)` stays concurrent regardless of
/// where the bytes land.
pub(crate) const EPOCH_SHARDS: usize = 16;

/// The shard (out of `total`) owning `epoch_id`.
///
/// This is the repository's *one* epoch-sharding discipline: the in-process
/// lock shards below, the `--shard <i>/<t>` slice a multi-node
/// `concealer-server` process owns, and the `concealer-router`'s fan-out
/// all reduce an epoch id through this exact function, so a deployment can
/// never disagree with itself about which process holds an epoch. Epoch
/// ids are epoch *start times* (multiples of the epoch duration), so they
/// are mixed before reduction — a plain modulo would park every epoch of a
/// deployment whose duration is divisible by the shard count on one shard.
#[must_use]
pub fn shard_of_epoch(epoch_id: u64, total: usize) -> usize {
    assert!(total > 0, "shard total must be positive");
    let mixed = epoch_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize % total
}

/// The epoch map, split into [`EPOCH_SHARDS`] independently locked shards.
/// Shared by the in-memory backend and the disk backend's resident cache.
#[derive(Debug)]
pub(crate) struct ShardedEpochs {
    shards: Vec<RwLock<BTreeMap<u64, StoredEpoch>>>,
}

impl Default for ShardedEpochs {
    fn default() -> Self {
        ShardedEpochs {
            shards: (0..EPOCH_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }
}

impl ShardedEpochs {
    /// The shard owning `epoch_id`. Epoch ids are epoch *start times*
    /// (multiples of the epoch duration), so they are mixed before
    /// reduction — a plain modulo would park every epoch of a deployment
    /// whose duration is divisible by the shard count on one shard.
    pub(crate) fn shard(&self, epoch_id: u64) -> &RwLock<BTreeMap<u64, StoredEpoch>> {
        &self.shards[shard_of_epoch(epoch_id, self.shards.len())]
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn epoch_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|shard| {
                unpoisoned(shard.read())
                    .keys()
                    .copied()
                    .collect::<Vec<u64>>()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    pub(crate) fn epoch_count(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| unpoisoned(shard.read()).len())
            .sum()
    }

    pub(crate) fn total_rows(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                unpoisoned(shard.read())
                    .values()
                    .map(|e| e.table.len())
                    .sum::<usize>()
            })
            .sum()
    }

    pub(crate) fn with_epoch(&self, epoch_id: u64, f: &mut dyn FnMut(&StoredEpoch)) -> Result<()> {
        let guard = unpoisoned(self.shard(epoch_id).read());
        let epoch = guard
            .get(&epoch_id)
            .ok_or(StorageError::UnknownEpoch { epoch_id })?;
        f(epoch);
        Ok(())
    }
}

/// Pluggable storage of sealed epoch segments, keyed by epoch id.
///
/// Implementations persist whole [`StoredEpoch`] values — the encrypted
/// table, the encrypted metadata (bin vectors + verifiable tags) and the
/// rewrite counter — and must uphold two contracts the query layer relies
/// on:
///
/// * **Atomic visibility** — an epoch either is fully stored (and
///   enumerable, fetchable, durable where applicable) or absent; readers
///   never observe a half-written segment.
/// * **Shard discipline** — operations on different epochs must not
///   serialize on a single store-wide lock, so concurrent ingest and
///   parallel batch fetches scale ([`StorageBackend::shard_count`] reports
///   the concurrency the backend provides).
///
/// The re-wrap callback [`StorageBackend::rewrap_keys`] drives:
/// `(epoch_id, new_generation, old_blob)` → the blob re-wrapped under the
/// new generation.
pub type RewrapFn<'a> = dyn FnMut(u64, u64, &[u8]) -> Result<Vec<u8>> + 'a;

/// Backends store ciphertext only and are *untrusted*: nothing here is
/// security-sensitive, because tampering (on disk or in memory) is caught
/// by the enclave's hash-chain verification at fetch time.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Short identifier for diagnostics: `"memory"`, `"disk"`, …
    fn kind(&self) -> &'static str;

    /// Insert or replace a whole epoch segment. When the call returns
    /// `Ok`, the epoch is committed (durably, for persistent backends).
    fn put_epoch(&self, epoch_id: u64, epoch: StoredEpoch) -> Result<()>;

    /// Run a closure over a stored epoch under the shard's read lock.
    /// Returns [`StorageError::UnknownEpoch`] without invoking the closure
    /// when the epoch is absent.
    fn with_epoch(&self, epoch_id: u64, f: &mut dyn FnMut(&StoredEpoch)) -> Result<()>;

    /// Mutate a stored epoch under the shard's write lock. The mutation is
    /// all-or-nothing: when the closure errors, the stored epoch is
    /// unchanged; when it succeeds, the new state is committed (durably,
    /// for persistent backends) before the call returns.
    fn update_epoch(
        &self,
        epoch_id: u64,
        f: &mut dyn FnMut(&mut StoredEpoch) -> Result<()>,
    ) -> Result<()>;

    /// Epoch ids currently stored, ascending.
    fn epoch_ids(&self) -> Vec<u64>;

    /// Number of epochs stored.
    fn epoch_count(&self) -> usize;

    /// Total rows across all epochs (real + fake; indistinguishable here).
    fn total_rows(&self) -> usize;

    /// Number of independently locked epoch shards.
    fn shard_count(&self) -> usize;

    /// Whether this backend was opened as a read-only replica following
    /// another process's store. Replicas refuse `put_epoch` /
    /// `update_epoch` with [`StorageError::ReadOnly`] until
    /// [`StorageBackend::promote`]d. Backends without a replica mode are
    /// always writable.
    fn read_only(&self) -> bool {
        false
    }

    /// Re-scan durable state for epochs committed by another process
    /// since open (the replica's watch over the writer's manifest).
    /// Returns the epoch ids that became newly visible; backends without
    /// shared durable state see nothing new, ever.
    fn refresh(&self) -> Result<Vec<u64>> {
        Ok(Vec::new())
    }

    /// Promote a read-only replica to writer: take ownership of the store
    /// root (running the writer's recovery pass over it) and accept
    /// mutations from now on. A no-op on backends that are already
    /// writable.
    fn promote(&self) -> Result<()> {
        Ok(())
    }

    /// A monotonic commit-point version for the store (the durable
    /// manifest's highest committed segment generation). Replica lag is
    /// the difference between the writer's and the replica's values.
    /// Backends without a durable commit point report 0.
    fn store_generation(&self) -> u64 {
        0
    }

    /// Record a wrapped per-epoch seal secret in the store's key vault:
    /// "epoch `epoch_id`'s seal secret, wrapped under master-key
    /// generation `generation`". Backends without durable lifecycle state
    /// accept and discard it — key material never *needs* the vault; it
    /// exists so a durable store can prove which master generation its
    /// epochs are readable under and so rotation has something to re-wrap.
    fn seal_key(&self, epoch_id: u64, generation: u64, wrapped: Vec<u8>) -> Result<()> {
        let _ = (epoch_id, generation, wrapped);
        Ok(())
    }

    /// The vault entry for an epoch: `(generation, wrapped blob)`, or
    /// `None` when the epoch has no entry (ingested before the vault
    /// existed, or a backend without one).
    fn sealed_key(&self, epoch_id: u64) -> Option<(u64, Vec<u8>)> {
        let _ = epoch_id;
        None
    }

    /// The master-key generation rotation has most recently *begun* on
    /// this store. Vault entries may lag this counter mid-rotation; they
    /// may never lead it.
    fn key_generation(&self) -> u64 {
        0
    }

    /// Durably begin rotating to `new_generation`: bump the generation
    /// counter *before* any entry is re-wrapped, so a crash mid-rotation
    /// leaves entries behind the counter (a legal, resumable state) and
    /// never ahead of it. Bumping to a generation at or below the current
    /// one is a no-op (idempotent resume).
    fn begin_key_rotation(&self, new_generation: u64) -> Result<()> {
        let _ = new_generation;
        Ok(())
    }

    /// Re-wrap up to `limit` vault entries still behind the current key
    /// generation, calling `rewrap(epoch_id, new_generation, old_blob)`
    /// for each — `new_generation` is the generation the backend will
    /// record for the returned blob — and committing every new blob
    /// durably before the next. Returns how many entries were re-wrapped;
    /// `0` means the rotation is complete. Bounded batches keep each
    /// manifest commit small, so the background rotation job never holds
    /// a lock for long and queries are never blocked on it.
    fn rewrap_keys(&self, rewrap: &mut RewrapFn<'_>, limit: usize) -> Result<usize> {
        let _ = (rewrap, limit);
        Ok(0)
    }

    /// Number of vault entries still wrapped under a generation older than
    /// [`StorageBackend::key_generation`] — `0` when no rotation is in
    /// flight.
    fn rotation_pending(&self) -> usize {
        0
    }
}

/// The default backend: epochs in a sharded in-process map, gone when the
/// process exits. This is the seed implementation the paper's evaluation
/// ran against; [`crate::DiskEpochStore`] adds durability with identical
/// observable behavior.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    epochs: ShardedEpochs,
}

impl MemoryBackend {
    /// Create an empty in-memory backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> &'static str {
        "memory"
    }

    fn put_epoch(&self, epoch_id: u64, epoch: StoredEpoch) -> Result<()> {
        unpoisoned(self.epochs.shard(epoch_id).write()).insert(epoch_id, epoch);
        Ok(())
    }

    fn with_epoch(&self, epoch_id: u64, f: &mut dyn FnMut(&StoredEpoch)) -> Result<()> {
        self.epochs.with_epoch(epoch_id, f)
    }

    fn update_epoch(
        &self,
        epoch_id: u64,
        f: &mut dyn FnMut(&mut StoredEpoch) -> Result<()>,
    ) -> Result<()> {
        let mut guard = unpoisoned(self.epochs.shard(epoch_id).write());
        let epoch = guard
            .get_mut(&epoch_id)
            .ok_or(StorageError::UnknownEpoch { epoch_id })?;
        f(epoch)
    }

    fn epoch_ids(&self) -> Vec<u64> {
        self.epochs.epoch_ids()
    }

    fn epoch_count(&self) -> usize {
        self.epochs.epoch_count()
    }

    fn total_rows(&self) -> usize {
        self.epochs.total_rows()
    }

    fn shard_count(&self) -> usize {
        self.epochs.shard_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch_store::EpochMetadata;
    use crate::table::{EncryptedRow, EncryptedTable};

    fn epoch(n: u64) -> StoredEpoch {
        let rows: Vec<EncryptedRow> = (0..n)
            .map(|i| EncryptedRow {
                index_key: i.to_be_bytes().to_vec(),
                filters: vec![],
                payload: vec![i as u8; 8],
            })
            .collect();
        StoredEpoch {
            table: EncryptedTable::bulk_load(rows).unwrap(),
            metadata: EpochMetadata::default(),
            rewrite_count: 0,
        }
    }

    #[test]
    fn memory_backend_round_trip() {
        let backend = MemoryBackend::new();
        assert_eq!(backend.kind(), "memory");
        assert_eq!(backend.epoch_count(), 0);
        backend.put_epoch(3, epoch(5)).unwrap();
        backend.put_epoch(9, epoch(2)).unwrap();
        assert_eq!(backend.epoch_ids(), vec![3, 9]);
        assert_eq!(backend.total_rows(), 7);

        let mut seen = 0;
        backend
            .with_epoch(3, &mut |e| seen = e.table.len())
            .unwrap();
        assert_eq!(seen, 5);
        assert!(matches!(
            backend.with_epoch(4, &mut |_| {}),
            Err(StorageError::UnknownEpoch { epoch_id: 4 })
        ));
    }

    #[test]
    fn update_epoch_is_all_or_nothing_on_closure_error() {
        let backend = MemoryBackend::new();
        backend.put_epoch(1, epoch(4)).unwrap();
        let err = backend.update_epoch(1, &mut |_| Err(StorageError::DuplicateKey));
        assert_eq!(err, Err(StorageError::DuplicateKey));
        backend
            .update_epoch(1, &mut |e| {
                e.rewrite_count += 1;
                Ok(())
            })
            .unwrap();
        let mut count = 0;
        backend
            .with_epoch(1, &mut |e| count = e.rewrite_count)
            .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn shard_mixing_spreads_epoch_multiples() {
        let sharded = ShardedEpochs::default();
        // Epoch ids that are multiples of a duration divisible by the shard
        // count must not all land on one shard.
        let shards: std::collections::BTreeSet<usize> = (0..32u64)
            .map(|i| {
                let id = i * 3600;
                sharded.shard(id) as *const _ as usize
            })
            .collect();
        assert!(shards.len() > 1);
    }
}
