//! The service provider's database: one encrypted table segment per
//! epoch/round, plus the encrypted metadata the data provider ships with it.
//!
//! Phase 1 of the paper has DP send, per epoch: the permuted encrypted
//! tuples, the encrypted `cell_id[]` and `c_tuple[]` vectors, and the
//! encrypted hash-chain tags. The store keeps all of that, lets the enclave
//! fetch rows by trapdoor (recording every access in the
//! [`AccessObserver`]), and supports atomically replacing an epoch's rows
//! when the §6 dynamic-insertion protocol re-encrypts them.
//!
//! Where the sealed segments live is pluggable: [`EpochStore`] drives a
//! [`StorageBackend`] — the in-memory [`crate::MemoryBackend`] by default,
//! or the crash-safe [`crate::DiskEpochStore`] for deployments that must
//! survive a restart. The query path, observer instrumentation and every
//! invariant the security tests assert are backend-agnostic: answers and
//! adversary-observable traces are identical across backends.

use crate::backend::{MemoryBackend, StorageBackend};
use crate::observer::{AccessEvent, AccessObserver};
use crate::table::{EncryptedRow, EncryptedTable, RowArena, RowId, RowRef};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Opaque encrypted metadata shipped with an epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochMetadata {
    /// Encrypted `cell_id[x*y]` vector (non-deterministic encryption).
    pub enc_cell_id: Vec<u8>,
    /// Encrypted `c_tuple[u]` vector (non-deterministic encryption).
    pub enc_c_tuple: Vec<u8>,
    /// Encrypted per-cell-id verifiable tags (hash-chain heads), in cell-id
    /// order. Empty when DP skipped the optional verification step.
    pub enc_tags: Vec<Vec<u8>>,
    /// Number of rows DP claims to have shipped (real + fake). Public.
    pub advertised_rows: usize,
}

/// One stored epoch: the table segment and its metadata.
#[derive(Debug, Clone)]
pub struct StoredEpoch {
    /// Encrypted tuples with the index over the `Index` column.
    pub table: EncryptedTable,
    /// Encrypted metadata vectors and tags.
    pub metadata: EpochMetadata,
    /// How many times this epoch has been rewritten by the dynamic-insertion
    /// protocol (the adversary can count rewrites; the paper accepts this).
    pub rewrite_count: u64,
}

/// The untrusted service provider's storage engine.
///
/// Cloning shares the underlying backend (it is an `Arc`): the data
/// provider handle, the enclave handle and the test harness all talk to one
/// store.
///
/// Epoch segments are held by a pluggable [`StorageBackend`]; the default
/// is the in-memory [`MemoryBackend`], whose epoch map is split into
/// [`EpochStore::shard_count`] independently locked shards keyed by epoch
/// id, so concurrent fetches against different epochs — and concurrent
/// ingest of new epochs — do not serialize on one store-wide lock. The
/// on-disk backend keeps the same shard discipline over its resident cache.
#[derive(Debug, Clone)]
pub struct EpochStore {
    backend: Arc<dyn StorageBackend>,
    observer: AccessObserver,
}

impl Default for EpochStore {
    fn default() -> Self {
        EpochStore {
            backend: Arc::new(MemoryBackend::new()),
            observer: AccessObserver::default(),
        }
    }
}

impl EpochStore {
    /// Create an empty in-memory store with a fresh observer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a store over an explicit [`StorageBackend`] (e.g. a
    /// [`crate::DiskEpochStore`]) with a fresh observer. Epochs already
    /// committed in the backend — a reopened on-disk store — are
    /// immediately visible.
    #[must_use]
    pub fn with_backend(backend: Arc<dyn StorageBackend>) -> Self {
        EpochStore {
            backend,
            observer: AccessObserver::default(),
        }
    }

    /// A handle on the *same* stored data that reports accesses to a
    /// different observer. The parallel batch path hands each worker task a
    /// handle bound to a task-local observer, then merges the task traces
    /// into the shared observer in deterministic (bin) order — see
    /// [`AccessObserver::record_batch`].
    #[must_use]
    pub fn observed_by(&self, observer: AccessObserver) -> EpochStore {
        EpochStore {
            backend: Arc::clone(&self.backend),
            observer,
        }
    }

    /// The adversary's view of this store.
    #[must_use]
    pub fn observer(&self) -> &AccessObserver {
        &self.observer
    }

    /// The backend holding the sealed segments.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The backend's short identifier (`"memory"`, `"disk"`, …).
    #[must_use]
    pub fn backend_kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// Number of independently locked epoch shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.backend.shard_count()
    }

    /// Whether the backend was opened as a read-only replica (see
    /// [`StorageBackend::read_only`]).
    #[must_use]
    pub fn read_only(&self) -> bool {
        self.backend.read_only()
    }

    /// Pull in epochs committed to shared durable state by another process
    /// since the last look; returns the newly visible epoch ids (see
    /// [`StorageBackend::refresh`]).
    pub fn refresh(&self) -> Result<Vec<u64>> {
        self.backend.refresh()
    }

    /// Promote a read-only replica backend to writer (see
    /// [`StorageBackend::promote`]).
    pub fn promote(&self) -> Result<()> {
        self.backend.promote()
    }

    /// The backend's monotonic durable commit-point version (see
    /// [`StorageBackend::store_generation`]).
    #[must_use]
    pub fn store_generation(&self) -> u64 {
        self.backend.store_generation()
    }

    /// Ingest a new epoch shipment — the data provider's [`RowArena`], or
    /// owned rows in shipment order. Replaces any previous segment for the
    /// same epoch id (the paper never re-ships an epoch, but tests do).
    pub fn ingest_epoch(
        &self,
        epoch_id: u64,
        rows: impl Into<RowArena>,
        metadata: EpochMetadata,
    ) -> Result<()> {
        let rows = rows.into();
        let bytes = rows.byte_size();
        let row_count = rows.len();
        let table = EncryptedTable::bulk_load(rows)?;
        self.backend.put_epoch(
            epoch_id,
            StoredEpoch {
                table,
                metadata,
                rewrite_count: 0,
            },
        )?;
        // Only a committed shipment is an ingest the adversary saw happen.
        self.observer.record(AccessEvent::EpochIngested {
            epoch_id,
            rows: row_count,
            bytes,
        });
        Ok(())
    }

    /// Epoch ids currently stored, ascending.
    #[must_use]
    pub fn epoch_ids(&self) -> Vec<u64> {
        self.backend.epoch_ids()
    }

    /// Number of epochs stored.
    #[must_use]
    pub fn epoch_count(&self) -> usize {
        self.backend.epoch_count()
    }

    /// Total rows across all epochs (real + fake; indistinguishable here).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.backend.total_rows()
    }

    /// Fetch the encrypted metadata for an epoch (the enclave decrypts it).
    pub fn metadata(&self, epoch_id: u64) -> Result<EpochMetadata> {
        let mut out = None;
        self.backend
            .with_epoch(epoch_id, &mut |e| out = Some(e.metadata.clone()))?;
        Ok(out.expect("with_epoch ran the closure"))
    }

    /// Number of rows in one epoch segment.
    pub fn epoch_rows(&self, epoch_id: u64) -> Result<usize> {
        let mut out = 0;
        self.backend
            .with_epoch(epoch_id, &mut |e| out = e.table.len())?;
        Ok(out)
    }

    /// Execute one exact-match trapdoor against an epoch's index, recording
    /// what the adversary observes. Returns the matching row, if any.
    pub fn fetch_by_trapdoor(
        &self,
        epoch_id: u64,
        trapdoor: &[u8],
    ) -> Result<Option<EncryptedRow>> {
        let mut out = None;
        let mut events = self.event_buffer(1);
        self.backend.with_epoch(epoch_id, &mut |epoch| {
            let hit = epoch.table.lookup(trapdoor);
            out = observe_lookup(epoch_id, trapdoor, hit, &mut events).map(|row| row.to_row());
        })?;
        self.record_events(events);
        Ok(out)
    }

    /// Execute a batch of trapdoors (one bin fetch). Rows are returned in
    /// trapdoor order; misses are silently skipped, as a DBMS `IN (...)`
    /// predicate would. The hits are copied into one arena — the enclave's
    /// copy of what the provider sent — together, not row by row
    /// ([`RowArena::extend_from_views`]).
    ///
    /// The whole batch runs under a single backend access, its trapdoors
    /// are resolved against the index together
    /// ([`EncryptedTable::lookup_many`]), and its events are appended to
    /// the observer in one [`AccessObserver::record_batch`] call — per
    /// trapdoor, in trapdoor order, the same event sequence
    /// [`Self::fetch_by_trapdoor`] records (`TrapdoorIssued`, then
    /// `RowFetched` on a hit), just without re-locking per row.
    pub fn fetch_batch<K: AsRef<[u8]>>(&self, epoch_id: u64, trapdoors: &[K]) -> Result<RowArena> {
        let mut rows = RowArena::new();
        let mut events = self.event_buffer(trapdoors.len());
        self.backend.with_epoch(epoch_id, &mut |epoch| {
            let hits: Vec<RowRef<'_>> = trapdoors
                .iter()
                .zip(epoch.table.lookup_many(trapdoors))
                .filter_map(|(t, hit)| observe_lookup(epoch_id, t.as_ref(), hit, &mut events))
                .collect();
            rows.extend_from_views(&hits);
        })?;
        self.record_events(events);
        Ok(rows)
    }

    /// Re-execute a batch of trapdoors and compare the hits against
    /// `expected` **without copying any row**. The adversary-observable
    /// events are exactly those of [`Self::fetch_batch`] with the same
    /// trapdoors; only the enclave-side copy is skipped. Returns `true`
    /// when the fetched rows equal `expected` exactly (same rows byte for
    /// byte with the same column boundaries, same order, same count).
    ///
    /// This is the warm half of the engine's decrypted-bin cache: a cache
    /// hit still drives the full fetch through the untrusted store — so the
    /// trace cannot reveal the cache — and only reuses the enclave-side
    /// plaintext when the provider returned bit-identical rows.
    pub fn fetch_batch_matches<K: AsRef<[u8]>>(
        &self,
        epoch_id: u64,
        trapdoors: &[K],
        expected: &RowArena,
    ) -> Result<bool> {
        let mut events = self.event_buffer(trapdoors.len());
        let mut matched = 0usize;
        let mut same = true;
        self.backend.with_epoch(epoch_id, &mut |epoch| {
            for (t, hit) in trapdoors.iter().zip(epoch.table.lookup_many(trapdoors)) {
                if let Some(row) = observe_lookup(epoch_id, t.as_ref(), hit, &mut events) {
                    same = same && expected.get(matched) == Some(row);
                    matched += 1;
                }
            }
        })?;
        self.record_events(events);
        Ok(same && matched == expected.len())
    }

    /// Room for the events of `trapdoors` lookups — or nothing at all when
    /// the observer is not recording, so a serving process does not build
    /// two events per fetched row only to drop them.
    fn event_buffer(&self, trapdoors: usize) -> Option<Vec<AccessEvent>> {
        self.observer
            .is_recording()
            .then(|| Vec::with_capacity(trapdoors * 2))
    }

    fn record_events(&self, events: Option<Vec<AccessEvent>>) {
        if let Some(events) = events {
            self.observer.record_batch(events);
        }
    }

    /// Read an entire epoch segment (full scan), as the Opaque-style
    /// baseline must.
    pub fn full_scan(&self, epoch_id: u64) -> Result<Vec<EncryptedRow>> {
        let mut rows: Vec<EncryptedRow> = Vec::new();
        self.backend.with_epoch(epoch_id, &mut |epoch| {
            rows = epoch.table.rows().to_rows();
        })?;
        self.observer.record(AccessEvent::FullScan {
            epoch_id,
            rows: rows.len(),
            bytes: rows.iter().map(EncryptedRow::byte_size).sum(),
        });
        Ok(rows)
    }

    /// Mark a query boundary on the shared observer.
    pub fn mark_query_boundary(&self) {
        self.observer.mark_query_boundary();
    }

    /// Replace a *subset* of an epoch's rows in place, keyed by their old
    /// `Index` values. Used by the dynamic-insertion protocol (§6 of the
    /// paper): the enclave re-encrypts exactly the rows it fetched and the
    /// service provider swaps them in, leaving the rest of the segment
    /// untouched. The segment's cardinality never changes.
    pub fn rewrite_rows(
        &self,
        epoch_id: u64,
        replacements: Vec<(Vec<u8>, EncryptedRow)>,
    ) -> Result<()> {
        self.rewrite_bin(epoch_id, replacements, Vec::new())
    }

    /// Apply a full §6 bin rewrite atomically: swap re-encrypted rows in
    /// place (keyed by old `Index` values, as [`EpochStore::rewrite_rows`])
    /// *and* refresh the affected verifiable tags in one backend commit —
    /// on the durable backend this persists a single new segment generation
    /// instead of one per call. The rewrite counter advances (and the
    /// rewrite is observable) only when rows were actually replaced.
    pub fn rewrite_bin(
        &self,
        epoch_id: u64,
        replacements: Vec<(Vec<u8>, EncryptedRow)>,
        tag_updates: Vec<(usize, Vec<u8>)>,
    ) -> Result<()> {
        if replacements.is_empty() && tag_updates.is_empty() {
            return Ok(());
        }
        let rows_replaced = !replacements.is_empty();
        let mut replacements = Some(replacements);
        let mut tag_updates = Some(tag_updates);
        let mut row_count = 0;
        self.backend.update_epoch(epoch_id, &mut |epoch| {
            let replacements = replacements.take().expect("update closure runs once");
            if !replacements.is_empty() {
                epoch.table.replace_rows(replacements)?;
                row_count = epoch.table.len();
                epoch.rewrite_count += 1;
            }
            for (cell_id, tag) in tag_updates.take().expect("update closure runs once") {
                if let Some(slot) = epoch.metadata.enc_tags.get_mut(cell_id) {
                    *slot = tag;
                }
            }
            Ok(())
        })?;
        if rows_replaced {
            self.observer.record(AccessEvent::EpochRewritten {
                epoch_id,
                rows: row_count,
            });
        }
        Ok(())
    }

    /// How many times an epoch has been rewritten.
    pub fn rewrite_count(&self, epoch_id: u64) -> Result<u64> {
        let mut out = 0;
        self.backend
            .with_epoch(epoch_id, &mut |e| out = e.rewrite_count)?;
        Ok(out)
    }
}

/// Append to `events` what the adversary observes of one trapdoor's
/// lookup, whose outcome is `hit`: `TrapdoorIssued`, then `RowFetched` on a
/// hit. Returns the row hit.
fn observe_lookup<'a>(
    epoch_id: u64,
    trapdoor: &[u8],
    hit: Option<(RowId, RowRef<'a>)>,
    events: &mut Option<Vec<AccessEvent>>,
) -> Option<RowRef<'a>> {
    let Some(events) = events else {
        return hit.map(|(_, row)| row);
    };
    events.push(AccessEvent::TrapdoorIssued {
        epoch_id,
        trapdoor_len: trapdoor.len(),
        hit: hit.is_some(),
    });
    let (row_id, row) = hit?;
    events.push(AccessEvent::RowFetched {
        epoch_id,
        row_id,
        bytes: row.byte_size(),
    });
    Some(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageError;

    fn row(key: &[u8], tag: u8) -> EncryptedRow {
        EncryptedRow {
            index_key: key.to_vec(),
            filters: vec![vec![tag; 16]],
            payload: vec![tag; 48],
        }
    }

    fn sample_epoch(n: u64, salt: u8) -> Vec<EncryptedRow> {
        (0..n)
            .map(|i| row(&[salt, (i >> 8) as u8, i as u8], (i % 251) as u8))
            .collect()
    }

    #[test]
    fn ingest_and_fetch() {
        let store = EpochStore::new();
        assert_eq!(store.backend_kind(), "memory");
        store
            .ingest_epoch(1, sample_epoch(100, 1), EpochMetadata::default())
            .unwrap();
        assert_eq!(store.epoch_count(), 1);
        assert_eq!(store.total_rows(), 100);

        let hit = store.fetch_by_trapdoor(1, &[1, 0, 5]).unwrap();
        assert!(hit.is_some());
        let miss = store.fetch_by_trapdoor(1, &[9, 9, 9]).unwrap();
        assert!(miss.is_none());

        let s = store.observer().summary();
        assert_eq!(s.trapdoors, 2);
        assert_eq!(s.rows_fetched, 1);
    }

    #[test]
    fn unknown_epoch_errors() {
        let store = EpochStore::new();
        assert!(matches!(
            store.fetch_by_trapdoor(7, b"x"),
            Err(StorageError::UnknownEpoch { epoch_id: 7 })
        ));
        assert!(store.metadata(7).is_err());
        assert!(store.full_scan(7).is_err());
        assert!(store.rewrite_count(7).is_err());
        assert!(store.epoch_rows(7).is_err());
    }

    #[test]
    fn fetch_batch_skips_misses() {
        let store = EpochStore::new();
        store
            .ingest_epoch(1, sample_epoch(10, 1), EpochMetadata::default())
            .unwrap();
        let trapdoors = vec![vec![1, 0, 2], vec![8, 8, 8], vec![1, 0, 3]];
        let rows = store.fetch_batch(1, &trapdoors).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn fetch_batch_events_equal_per_trapdoor_fetches() {
        let trapdoors = vec![vec![1, 0, 2], vec![8, 8, 8], vec![1, 0, 3]];

        let per_row = EpochStore::new();
        per_row
            .ingest_epoch(1, sample_epoch(10, 1), EpochMetadata::default())
            .unwrap();
        per_row.observer().reset();
        for t in &trapdoors {
            let _ = per_row.fetch_by_trapdoor(1, t).unwrap();
        }

        let batched = EpochStore::new();
        batched
            .ingest_epoch(1, sample_epoch(10, 1), EpochMetadata::default())
            .unwrap();
        batched.observer().reset();
        batched.fetch_batch(1, &trapdoors).unwrap();

        assert_eq!(batched.observer().trace(), per_row.observer().trace());
    }

    proptest::proptest! {
        /// The staged copy is the copy: for hits, misses, trapdoors asked
        /// twice and the empty batch, `fetch_batch` returns the arena the
        /// rows of per-trapdoor `fetch_by_trapdoor` calls make, and records
        /// the events those calls record.
        #[test]
        fn fetch_batch_is_the_per_trapdoor_fetches(
            picks in proptest::collection::vec(0u16..400, 0..60),
        ) {
            let store = EpochStore::new();
            store
                .ingest_epoch(1, sample_epoch(300, 1), EpochMetadata::default())
                .unwrap();
            // Rows 0..300 hold keys [1, hi, lo]; a pick past them misses.
            let trapdoor = |p: u16| vec![1 + u8::from(p >= 300), (p >> 8) as u8, p as u8];
            let batch: Vec<Vec<u8>> = picks.iter().map(|&p| trapdoor(p)).collect();
            for batch in [&batch[..], &[]] {
                store.observer().reset();
                let rows: Vec<EncryptedRow> = batch
                    .iter()
                    .filter_map(|t| store.fetch_by_trapdoor(1, t).unwrap())
                    .collect();
                let singles = store.observer().take_events();
                let fetched = store.fetch_batch(1, batch).unwrap();
                proptest::prop_assert_eq!(store.observer().take_events(), singles);
                proptest::prop_assert_eq!(fetched, RowArena::from(rows));
            }
        }
    }

    #[test]
    fn fetch_batch_matches_replays_the_exact_fetch_trace() {
        let store = EpochStore::new();
        store
            .ingest_epoch(1, sample_epoch(10, 1), EpochMetadata::default())
            .unwrap();
        let trapdoors = vec![vec![1, 0, 2], vec![8, 8, 8], vec![1, 0, 3]];
        store.observer().reset();
        let rows = store.fetch_batch(1, &trapdoors).unwrap();
        let cold_trace = store.observer().take_events();

        assert!(store.fetch_batch_matches(1, &trapdoors, &rows).unwrap());
        assert_eq!(
            store.observer().take_events(),
            cold_trace,
            "warm replay must be event-for-event identical to the cold fetch"
        );

        // Any divergence between stored rows and the expectation is flagged.
        let mut tampered = rows.to_rows();
        tampered[0].payload[0] ^= 1;
        assert!(!store
            .fetch_batch_matches(1, &trapdoors, &tampered.into())
            .unwrap());
        assert!(!store
            .fetch_batch_matches(1, &trapdoors, &rows.gather(&[0]))
            .unwrap());
        let mut extra = rows.clone();
        extra.push(&row(&[9, 9, 9], 9));
        assert!(!store.fetch_batch_matches(1, &trapdoors, &extra).unwrap());
        // Same bytes, different column boundaries.
        let mut shifted = rows.to_rows();
        let moved = shifted[0].filters[0].pop().unwrap();
        shifted[0].payload.insert(0, moved);
        assert!(!store
            .fetch_batch_matches(1, &trapdoors, &shifted.into())
            .unwrap());
    }

    #[test]
    fn rewrite_after_a_fetch_fails_the_replay_but_not_its_trace() {
        let store = EpochStore::new();
        store
            .ingest_epoch(1, sample_epoch(10, 1), EpochMetadata::default())
            .unwrap();
        let trapdoors = vec![vec![1, 0, 2], vec![8, 8, 8], vec![1, 0, 3]];
        let cached = store.fetch_batch(1, &trapdoors).unwrap();

        // The provider swaps one fetched row's payload under its old key.
        let mut tampered = cached.get(1).unwrap().to_row();
        tampered.payload[0] ^= 1;
        store
            .rewrite_rows(1, vec![(vec![1, 0, 3], tampered)])
            .unwrap();

        store.observer().reset();
        assert!(!store.fetch_batch_matches(1, &trapdoors, &cached).unwrap());
        let replay_trace = store.observer().take_events();
        let refetched = store.fetch_batch(1, &trapdoors).unwrap();
        assert_eq!(store.observer().take_events(), replay_trace);
        assert_ne!(refetched, cached);
    }

    /// Pins the adversary trace of a fixed shipment and trapdoor list, row
    /// ids included: a row id is the row's position in the shipment, not its
    /// rank in key order, and an index change must not renumber rows.
    #[test]
    fn golden_trace_of_a_fixed_epoch() {
        let mut shipment = sample_epoch(10, 1);
        shipment.reverse();
        shipment.swap(2, 6);
        let store = EpochStore::new();
        store
            .ingest_epoch(4, shipment, EpochMetadata::default())
            .unwrap();
        let trapdoors = vec![
            vec![1, 0, 3],
            vec![1, 0, 7],
            vec![1, 0],
            vec![1, 0, 0],
            vec![1, 0, 9, 0],
            vec![1, 0, 9],
        ];
        store.fetch_batch(4, &trapdoors).unwrap();
        store.mark_query_boundary();
        store.fetch_by_trapdoor(4, &[1, 0, 5]).unwrap();

        let issued = |trapdoor_len, hit| AccessEvent::TrapdoorIssued {
            epoch_id: 4,
            trapdoor_len,
            hit,
        };
        let fetched = |row_id| AccessEvent::RowFetched {
            epoch_id: 4,
            row_id,
            bytes: 67,
        };
        assert_eq!(
            store.observer().trace(),
            vec![
                AccessEvent::EpochIngested {
                    epoch_id: 4,
                    rows: 10,
                    bytes: 670,
                },
                issued(3, true),
                fetched(2),
                issued(3, true),
                fetched(6),
                issued(2, false),
                issued(3, true),
                fetched(9),
                issued(4, false),
                issued(3, true),
                fetched(0),
                AccessEvent::QueryBoundary,
                issued(3, true),
                fetched(4),
            ]
        );
    }

    #[test]
    fn full_scan_reads_everything() {
        let store = EpochStore::new();
        store
            .ingest_epoch(2, sample_epoch(64, 2), EpochMetadata::default())
            .unwrap();
        let rows = store.full_scan(2).unwrap();
        assert_eq!(rows.len(), 64);
        assert_eq!(store.observer().summary().scanned_rows, 64);
    }

    #[test]
    fn metadata_roundtrip() {
        let store = EpochStore::new();
        let meta = EpochMetadata {
            enc_cell_id: vec![1, 2, 3],
            enc_c_tuple: vec![4, 5],
            enc_tags: vec![vec![6], vec![7]],
            advertised_rows: 12,
        };
        store
            .ingest_epoch(9, sample_epoch(12, 9), meta.clone())
            .unwrap();
        assert_eq!(store.metadata(9).unwrap(), meta);
        assert_eq!(store.epoch_rows(9).unwrap(), 12);
        assert_eq!(store.epoch_ids(), vec![9]);
    }

    #[test]
    fn epoch_metadata_serde_round_trip() {
        let meta = EpochMetadata {
            enc_cell_id: vec![1, 2, 3],
            enc_c_tuple: vec![4, 5],
            enc_tags: vec![vec![6], vec![], vec![7, 8]],
            advertised_rows: 99,
        };
        let bytes = serde::bin::to_bytes(&meta);
        assert_eq!(serde::bin::from_bytes::<EpochMetadata>(&bytes), Ok(meta));
    }

    #[test]
    fn rewrite_rows_swaps_in_place() {
        let store = EpochStore::new();
        store
            .ingest_epoch(5, sample_epoch(30, 5), EpochMetadata::default())
            .unwrap();
        // Replace two rows, keeping the same index keys for one and changing
        // the other's key.
        let replacements = vec![
            (vec![5, 0, 3], row(&[5, 0, 3], 0xAA)),
            (vec![5, 0, 7], row(&[9, 9, 9], 0xBB)),
        ];
        store.rewrite_rows(5, replacements).unwrap();
        assert_eq!(store.epoch_rows(5).unwrap(), 30, "cardinality unchanged");
        let r = store.fetch_by_trapdoor(5, &[5, 0, 3]).unwrap().unwrap();
        assert_eq!(r.payload, vec![0xAA; 48]);
        assert!(store.fetch_by_trapdoor(5, &[5, 0, 7]).unwrap().is_none());
        assert!(store.fetch_by_trapdoor(5, &[9, 9, 9]).unwrap().is_some());
        assert_eq!(store.rewrite_count(5).unwrap(), 1);
    }

    #[test]
    fn rewrite_rows_with_unknown_old_key_fails() {
        let store = EpochStore::new();
        store
            .ingest_epoch(6, sample_epoch(10, 6), EpochMetadata::default())
            .unwrap();
        let err = store.rewrite_rows(6, vec![(vec![1, 2, 3], row(&[1, 2, 3], 1))]);
        assert!(err.is_err());
        // Empty replacement list is a no-op.
        store.rewrite_rows(6, vec![]).unwrap();
        assert_eq!(store.rewrite_count(6).unwrap(), 0);
    }

    #[test]
    fn multiple_epochs_isolated() {
        let store = EpochStore::new();
        store
            .ingest_epoch(1, sample_epoch(10, 1), EpochMetadata::default())
            .unwrap();
        store
            .ingest_epoch(2, sample_epoch(10, 2), EpochMetadata::default())
            .unwrap();
        // A key from epoch 1 is not findable in epoch 2.
        assert!(store.fetch_by_trapdoor(2, &[1, 0, 1]).unwrap().is_none());
        assert!(store.fetch_by_trapdoor(1, &[1, 0, 1]).unwrap().is_some());
        assert_eq!(store.epoch_ids(), vec![1, 2]);
    }
}
