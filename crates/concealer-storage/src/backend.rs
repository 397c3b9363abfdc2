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
//! A stored epoch is a snapshot: [`StorageBackend::epoch`] hands out the
//! current [`StoredEpoch`] behind an `Arc`, which the reader keeps for as
//! long as it reads, and a write publishes the next snapshot whole. A
//! reader therefore never waits for a write in progress, and a write
//! never edits what a reader holds.
//!
//! Two implementations ship:
//!
//! * [`MemoryBackend`] — the default: epochs live in an in-process map and
//!   vanish with the process.
//! * [`crate::DiskEpochStore`] — crash-safe on-disk segments with a
//!   manifest for atomic epoch commit (see [`crate::disk`]).

use crate::epoch_store::StoredEpoch;
use crate::{unpoisoned, Result, StorageError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

/// The shard (out of `total`) owning `epoch_id`.
///
/// This is the repository's *one* epoch-partitioning rule: the
/// `--shard <i>/<t>` slice a multi-node `concealer-server` process owns
/// and the `concealer-router`'s fan-out both reduce an epoch id through
/// this exact function, so a deployment can never disagree with itself
/// about which process holds an epoch. Epoch ids are epoch *start times*
/// (multiples of the epoch duration), so they are mixed before reduction —
/// a plain modulo would park every epoch of a deployment whose duration is
/// divisible by the shard count on one shard.
#[must_use]
pub fn shard_of_epoch(epoch_id: u64, total: usize) -> usize {
    assert!(total > 0, "shard total must be positive");
    let mixed = epoch_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize % total
}

/// The stored epochs, one snapshot each: the in-memory backend's whole
/// state and the disk backend's resident copy.
///
/// The map's lock is held only to clone or swap an `Arc`, so a reader
/// waits for no write. Writes to one epoch run in turn: a write holds
/// that epoch's writer lock from reading its current snapshot to
/// publishing the next, so no write builds on a snapshot another write
/// has already replaced. Writes to different epochs do not wait for each
/// other.
#[derive(Debug, Default)]
pub(crate) struct EpochMap {
    epochs: RwLock<BTreeMap<u64, Arc<StoredEpoch>>>,
    /// One writer lock per epoch id ever written, kept for the map's life.
    writers: Mutex<BTreeMap<u64, Arc<Mutex<()>>>>,
}

impl EpochMap {
    /// The current snapshot of `epoch_id`.
    pub(crate) fn get(&self, epoch_id: u64) -> Result<Arc<StoredEpoch>> {
        unpoisoned(self.epochs.read())
            .get(&epoch_id)
            .map(Arc::clone)
            .ok_or(StorageError::UnknownEpoch { epoch_id })
    }

    /// Make `epoch` the current snapshot of `epoch_id`. The snapshot it
    /// replaces lives on in the readers that hold it, and is freed after
    /// the map's lock is released when none does.
    pub(crate) fn publish(&self, epoch_id: u64, epoch: StoredEpoch) {
        let epoch = Arc::new(epoch);
        let _superseded = unpoisoned(self.epochs.write()).insert(epoch_id, epoch);
    }

    pub(crate) fn remove(&self, epoch_id: u64) {
        let _removed = unpoisoned(self.epochs.write()).remove(&epoch_id);
    }

    /// Run `write` as the only write to `epoch_id` in progress (see the
    /// type's docs).
    pub(crate) fn write<T>(&self, epoch_id: u64, write: impl FnOnce() -> T) -> T {
        let turn = Arc::clone(unpoisoned(self.writers.lock()).entry(epoch_id).or_default());
        let _turn = unpoisoned(turn.lock());
        write()
    }

    pub(crate) fn epoch_ids(&self) -> Vec<u64> {
        unpoisoned(self.epochs.read()).keys().copied().collect()
    }

    pub(crate) fn total_rows(&self) -> usize {
        unpoisoned(self.epochs.read())
            .values()
            .map(|e| e.table.len())
            .sum()
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
/// * **Snapshots** — [`StorageBackend::epoch`] returns the epoch as the
///   last completed write left it, and never waits for a write in
///   progress; writes to one epoch run in turn.
///
/// The re-wrap callback [`StorageBackend::rewrap_keys`] drives:
/// `(epoch_id, new_generation, old_blob)` → the blob re-wrapped under the
/// new generation.
pub type RewrapFn<'a> = dyn FnMut(u64, u64, &[u8]) -> Result<Vec<u8>> + 'a;

/// The function [`StorageBackend::update_epoch`] applies: the current
/// snapshot of an epoch → the next one.
pub type NextEpochFn<'a> = dyn FnMut(&StoredEpoch) -> Result<StoredEpoch> + 'a;

/// Backends store ciphertext only and are *untrusted*: nothing here is
/// security-sensitive, because tampering (on disk or in memory) is caught
/// by the enclave's hash-chain verification at fetch time.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Short identifier for diagnostics: `"memory"`, `"disk"`, …
    fn kind(&self) -> &'static str;

    /// Insert or replace a whole epoch segment with its key-vault entry
    /// `seal`, `(generation, wrapped seal secret)`, if given (`None` keeps
    /// an earlier entry); on `Ok` both are committed together (durably,
    /// for persistent backends). Backends without a vault discard it.
    fn put_epoch(
        &self,
        epoch_id: u64,
        epoch: StoredEpoch,
        seal: Option<(u64, Vec<u8>)>,
    ) -> Result<()>;

    /// The current snapshot of a stored epoch, or
    /// [`StorageError::UnknownEpoch`] when the epoch is absent.
    fn epoch(&self, epoch_id: u64) -> Result<Arc<StoredEpoch>>;

    /// Replace a stored epoch with `next(current)`. The result is
    /// published only once `next` succeeds (and, for persistent backends,
    /// once it is durable); on any error the stored epoch is unchanged.
    /// Readers keep seeing the current snapshot until the publish.
    fn update_epoch(&self, epoch_id: u64, next: &mut NextEpochFn<'_>) -> Result<()>;

    /// Epoch ids currently stored, ascending.
    fn epoch_ids(&self) -> Vec<u64>;

    /// Total rows across all epochs (real + fake; indistinguishable here).
    fn total_rows(&self) -> usize;

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

/// The default backend: epochs in an in-process map, gone when the
/// process exits. This is the seed implementation the paper's evaluation
/// ran against; [`crate::DiskEpochStore`] adds durability with identical
/// observable behavior.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    epochs: EpochMap,
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

    fn put_epoch(
        &self,
        epoch_id: u64,
        epoch: StoredEpoch,
        _: Option<(u64, Vec<u8>)>,
    ) -> Result<()> {
        self.epochs
            .write(epoch_id, || self.epochs.publish(epoch_id, epoch));
        Ok(())
    }

    fn epoch(&self, epoch_id: u64) -> Result<Arc<StoredEpoch>> {
        self.epochs.get(epoch_id)
    }

    fn update_epoch(&self, epoch_id: u64, next: &mut NextEpochFn<'_>) -> Result<()> {
        self.epochs.write(epoch_id, || {
            let current = self.epochs.get(epoch_id)?;
            self.epochs.publish(epoch_id, next(&current)?);
            Ok(())
        })
    }

    fn epoch_ids(&self) -> Vec<u64> {
        self.epochs.epoch_ids()
    }

    fn total_rows(&self) -> usize {
        self.epochs.total_rows()
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
        assert_eq!(backend.epoch_ids(), Vec::<u64>::new());
        backend.put_epoch(3, epoch(5), None).unwrap();
        backend.put_epoch(9, epoch(2), None).unwrap();
        assert_eq!(backend.epoch_ids(), vec![3, 9]);
        assert_eq!(backend.total_rows(), 7);

        assert_eq!(backend.epoch(3).unwrap().table.len(), 5);
        assert!(matches!(
            backend.epoch(4),
            Err(StorageError::UnknownEpoch { epoch_id: 4 })
        ));
    }

    #[test]
    fn update_epoch_is_all_or_nothing_on_closure_error() {
        let backend = MemoryBackend::new();
        backend.put_epoch(1, epoch(4), None).unwrap();
        let err = backend.update_epoch(1, &mut |_| Err(StorageError::DuplicateKey));
        assert_eq!(err, Err(StorageError::DuplicateKey));
        let before = backend.epoch(1).unwrap();
        backend
            .update_epoch(1, &mut |e| {
                Ok(StoredEpoch {
                    rewrite_count: e.rewrite_count + 1,
                    ..e.clone()
                })
            })
            .unwrap();
        assert_eq!(backend.epoch(1).unwrap().rewrite_count, 1);
        // A snapshot taken before the update is not changed by it.
        assert_eq!(before.rewrite_count, 0);
    }

    #[test]
    fn shard_mixing_spreads_epoch_multiples() {
        // Epoch ids that are multiples of a duration divisible by the shard
        // count must not all land on one shard.
        let shards: std::collections::BTreeSet<usize> =
            (0..32u64).map(|i| shard_of_epoch(i * 3600, 16)).collect();
        assert!(shards.len() > 1);
    }
}
