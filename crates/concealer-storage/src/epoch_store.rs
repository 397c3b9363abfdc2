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
use crate::observer::{AccessEvent, AccessObserver, TraceLog};
use crate::table::{EncryptedRow, EncryptedTable, RowArena, RowId};
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
    /// Number of rows DP says it shipped (real + fake): the shipment's own
    /// statement, public and stored by the untrusted host. The enclave
    /// never reads it; it derives the number of fakes from the sealed
    /// vectors above.
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
/// is the in-memory [`MemoryBackend`]. Every read takes one snapshot of its
/// epoch ([`StorageBackend::epoch`]) and works on it alone, so a fetch
/// never waits for an ingest or a §6 rewrite in progress, and a rewrite
/// publishes the next snapshot whole ([`StorageBackend::update_epoch`]).
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
    /// different observer. The batch executor hands each spawned worker a
    /// handle bound to a task-local observer, then merges the task traces
    /// into the shared observer in deterministic (bin) order — see
    /// [`AccessObserver::append`].
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

    /// Ingest a new epoch shipment — the data provider's [`RowArena`], or
    /// owned rows in shipment order. Replaces any previous segment for the
    /// same epoch id (the paper never re-ships an epoch, but tests do).
    /// This is [`Self::ingest_sealed_epoch`] without a key-vault entry.
    pub fn ingest_epoch(
        &self,
        epoch_id: u64,
        rows: impl Into<RowArena>,
        metadata: EpochMetadata,
    ) -> Result<()> {
        self.ingest_sealed_epoch(epoch_id, rows, metadata, None)
    }

    /// Ingest a new epoch shipment together with its key-vault entry
    /// `seal`, `(generation, wrapped seal secret)`, in one backend commit
    /// (see [`StorageBackend::put_epoch`]): no crash and no failed call
    /// leaves the epoch committed without its entry.
    pub fn ingest_sealed_epoch(
        &self,
        epoch_id: u64,
        rows: impl Into<RowArena>,
        metadata: EpochMetadata,
        seal: Option<(u64, Vec<u8>)>,
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
            seal,
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

    /// Total rows across all epochs (real + fake; indistinguishable here).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.backend.total_rows()
    }

    /// Fetch the encrypted metadata for an epoch (the enclave decrypts it).
    pub fn metadata(&self, epoch_id: u64) -> Result<EpochMetadata> {
        Ok(self.backend.epoch(epoch_id)?.metadata.clone())
    }

    /// Execute a batch of trapdoors (one bin fetch). Rows are returned in
    /// trapdoor order; misses are silently skipped, as a DBMS `IN (...)`
    /// predicate would. The hits are copied into one arena — the enclave's
    /// copy of what the provider sent — sized once for every candidate
    /// row.
    ///
    /// The whole batch reads one snapshot of the epoch and is one staged
    /// lookup (`table::StagedLookup`): every trapdoor's candidate row
    /// resolved, every line of every candidate loaded, then per trapdoor
    /// the key confirmed against the row's first bytes, the row copied
    /// whole and the lookup recorded. The lookups reach the observer in
    /// one [`AccessObserver`] append — per trapdoor, in trapdoor order,
    /// what `fetch_by_trapdoor` records (`TrapdoorIssued`, then
    /// `RowFetched` on a hit), kept as one row id per lookup.
    pub fn fetch_batch<K: AsRef<[u8]>>(&self, epoch_id: u64, trapdoors: &[K]) -> Result<RowArena> {
        let epoch = self.backend.epoch(epoch_id)?;
        // The fetch's scratch is allocated around the arena, which outlives
        // it, in this order: log, lookup, arena. Allocating the log after
        // the arena left ≈11 MB more of the heap resident under a stream of
        // cold fetches, and freeing the lookup after the log ≈2 MB.
        let mut log = self.trace_log(trapdoors.len());
        let lookup = epoch.table.lookup_many(trapdoors);
        let rows = lookup.copy_hits(|trapdoor, hit| observe(&mut log, epoch_id, trapdoor, hit));
        drop(lookup);
        self.record_log(log);
        Ok(rows)
    }

    /// Re-execute a batch of trapdoors and compare the hits against
    /// `expected` **without copying any row**. The adversary-observable
    /// events are exactly those of [`Self::fetch_batch`] with the same
    /// trapdoors, from the same staged lookup; only the enclave-side copy
    /// is skipped, and each confirmed hit is compared in full with its
    /// cached row instead. Returns `true` when the fetched rows equal
    /// `expected` exactly (same rows byte for byte with the same column
    /// boundaries, same order, same count).
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
        let epoch = self.backend.epoch(epoch_id)?;
        let mut log = self.trace_log(trapdoors.len());
        let lookup = epoch.table.lookup_many(trapdoors);
        let same = lookup.hits_equal(expected, |trapdoor, hit| {
            observe(&mut log, epoch_id, trapdoor, hit);
        });
        drop(lookup);
        self.record_log(log);
        Ok(same)
    }

    /// Room for the records of `trapdoors` lookups — or nothing at all when
    /// the observer is not recording, so a serving process does not build
    /// a trace only to drop it.
    fn trace_log(&self, trapdoors: usize) -> Option<TraceLog> {
        self.observer
            .is_recording()
            .then(|| TraceLog::with_lookups(trapdoors))
    }

    fn record_log(&self, log: Option<TraceLog>) {
        if let Some(log) = log {
            self.observer.record_log(log);
        }
    }

    /// Read an entire epoch segment (full scan), as the Opaque-style
    /// baseline must.
    pub fn full_scan(&self, epoch_id: u64) -> Result<Vec<EncryptedRow>> {
        let rows = self.backend.epoch(epoch_id)?.table.rows().to_rows();
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

    /// Apply a §6 rewrite atomically: put re-encrypted rows in place of
    /// the rows stored under their old `Index` values *and* refresh the
    /// affected verifiable tags, in one backend commit. Used by the
    /// dynamic-insertion protocol (§6 of the paper): the enclave
    /// re-encrypts exactly the rows it fetched and the service provider
    /// swaps them in, leaving the rest of the segment untouched; the
    /// segment's cardinality never changes. The rows may be any set of the
    /// epoch's rows — the engine passes every bin a query batch fetched
    /// from the epoch at once — and the call is one commit (on the durable
    /// backend, a single new segment generation), one step of the rewrite
    /// counter and one [`AccessEvent::EpochRewritten`], whatever the number
    /// of rows. The counter advances (and the rewrite is observable) only
    /// when rows were actually replaced.
    ///
    /// The rewrite builds the epoch's next snapshot from its current one
    /// (`EncryptedTable::replace_rows`); readers holding the current
    /// snapshot keep it.
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
        let mut row_count = 0;
        self.backend.update_epoch(epoch_id, &mut |epoch| {
            let table = if rows_replaced {
                epoch.table.replace_rows(&replacements)?
            } else {
                epoch.table.clone()
            };
            row_count = table.len();
            let mut metadata = epoch.metadata.clone();
            for (cell_id, tag) in &tag_updates {
                if let Some(slot) = metadata.enc_tags.get_mut(*cell_id) {
                    slot.clone_from(tag);
                }
            }
            Ok(StoredEpoch {
                table,
                metadata,
                rewrite_count: epoch.rewrite_count + u64::from(rows_replaced),
            })
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
        Ok(self.backend.epoch(epoch_id)?.rewrite_count)
    }
}

/// Append to `log` what the adversary observes of one trapdoor's lookup,
/// whose outcome is `hit` (row id and bytes): one lookup record, which
/// reads back as `TrapdoorIssued`, then `RowFetched` on a hit.
#[inline]
fn observe(
    log: &mut Option<TraceLog>,
    epoch_id: u64,
    trapdoor: &[u8],
    hit: Option<(RowId, usize)>,
) {
    if let Some(log) = log {
        log.push_lookup(epoch_id, trapdoor.len(), hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageError;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    impl EpochStore {
        /// Execute one exact-match trapdoor against an epoch's index,
        /// recording what the adversary observes, and return the matching
        /// row, if any: the reference [`Self::fetch_batch`] is tested
        /// against.
        ///
        /// It records the trace as events, one at a time, so the
        /// records of a staged fetch are checked against the events they
        /// must read back as.
        pub(crate) fn fetch_by_trapdoor(
            &self,
            epoch_id: u64,
            trapdoor: &[u8],
        ) -> Result<Option<EncryptedRow>> {
            let epoch = self.backend.epoch(epoch_id)?;
            let hit = epoch.table.lookup(trapdoor);
            self.observer.record(AccessEvent::TrapdoorIssued {
                epoch_id,
                trapdoor_len: trapdoor.len(),
                hit: hit.is_some(),
            });
            Ok(hit.map(|(row_id, row)| {
                self.observer.record(AccessEvent::RowFetched {
                    epoch_id,
                    row_id,
                    bytes: row.byte_size(),
                });
                row.to_row()
            }))
        }
    }

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
        assert_eq!(store.epoch_ids().len(), 1);
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

    /// A row of 267 bytes, so a compare runs past the first three cache
    /// lines a key confirmation loads: two filters and a payload whose
    /// bytes differ from column to column and from byte to byte.
    fn long_row(key: &[u8], tag: u8) -> EncryptedRow {
        let bytes = |len: usize, salt: u8| -> Vec<u8> {
            (0..len).map(|i| tag ^ salt ^ (i as u8)).collect()
        };
        EncryptedRow {
            index_key: key.to_vec(),
            filters: vec![bytes(24, 0x11), bytes(40, 0x22)],
            payload: bytes(200, 0x33),
        }
    }

    /// `rows` with one change drawn from `(kind, a, b)`: none, one byte
    /// flipped at a drawn column and offset, the payload's last byte
    /// flipped, a column boundary shifted by a byte, a row dropped, or a
    /// row added.
    fn changed(rows: &RowArena, kind: u8, a: usize, b: usize) -> RowArena {
        let mut rows = rows.to_rows();
        let n = rows.len();
        match kind {
            1..=3 if n > 0 => {
                let row = &mut rows[a % n];
                let cols = row.filters.len() + 2;
                let col = match kind {
                    1 => b % cols,
                    _ => cols - 1,
                };
                let column = match col {
                    0 => &mut row.index_key,
                    c if c == cols - 1 => &mut row.payload,
                    c => &mut row.filters[c - 1],
                };
                if kind == 3 {
                    // The payload's first byte moves to the last filter.
                    let moved = column.remove(0);
                    row.filters.last_mut().unwrap().push(moved);
                } else {
                    let at = if kind == 2 {
                        column.len() - 1
                    } else {
                        (a / n) % column.len()
                    };
                    column[at] ^= 1 << (b % 8);
                }
            }
            4 if n > 0 => drop(rows.remove(a % n)),
            5 => rows.insert(a % (n + 1), long_row(&[1, 0, (a % 300) as u8], b as u8)),
            _ => {}
        }
        rows.into()
    }

    proptest::proptest! {
        /// The replay is fetch-then-compare: on rows longer than the lines
        /// key confirmation loads, for trapdoor lists with hits, misses,
        /// repeats and none at all, and an expectation that is the cold
        /// fetch or the cold fetch with one byte flipped, a column boundary
        /// shifted, a row dropped or a row added, `fetch_batch_matches`
        /// says exactly whether `fetch_batch` returns the expectation, and
        /// records the trace `fetch_batch` records.
        #[test]
        fn fetch_batch_matches_is_fetch_then_compare(
            picks in proptest::collection::vec(0u16..400, 0..60),
            change in (0u8..6, proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
        ) {
            let store = EpochStore::new();
            let shipment: Vec<EncryptedRow> =
                (0..300u16).map(|i| long_row(&[1, (i >> 8) as u8, i as u8], i as u8)).collect();
            store.ingest_epoch(1, shipment, EpochMetadata::default()).unwrap();
            // Rows 0..300 hold keys [1, hi, lo]; a pick past them misses.
            let trapdoor = |p: u16| vec![1 + u8::from(p >= 300), (p >> 8) as u8, p as u8];
            let batch: Vec<Vec<u8>> = picks.iter().map(|&p| trapdoor(p)).collect();
            for batch in [&batch[..], &[]] {
                store.observer().reset();
                let fetched = store.fetch_batch(1, batch).unwrap();
                let fetch_trace = store.observer().take_events();
                let (kind, a, b) = change;
                let expected = changed(&fetched, kind, a, b);
                let matches = store.fetch_batch_matches(1, batch, &expected).unwrap();
                proptest::prop_assert_eq!(store.observer().take_events(), fetch_trace);
                proptest::prop_assert_eq!(matches, fetched == expected);
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
            .rewrite_bin(1, vec![(vec![1, 0, 3], tampered)], Vec::new())
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
        assert_eq!(store.full_scan(9).unwrap().len(), 12);
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
    fn rewrite_bin_swaps_rows_in_place() {
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
        store.rewrite_bin(5, replacements, Vec::new()).unwrap();
        assert_eq!(
            store.full_scan(5).unwrap().len(),
            30,
            "cardinality unchanged"
        );
        let r = store.fetch_by_trapdoor(5, &[5, 0, 3]).unwrap().unwrap();
        assert_eq!(r.payload, vec![0xAA; 48]);
        assert!(store.fetch_by_trapdoor(5, &[5, 0, 7]).unwrap().is_none());
        assert!(store.fetch_by_trapdoor(5, &[9, 9, 9]).unwrap().is_some());
        assert_eq!(store.rewrite_count(5).unwrap(), 1);
    }

    #[test]
    fn rewrite_bin_with_unknown_old_key_fails() {
        let store = EpochStore::new();
        store
            .ingest_epoch(6, sample_epoch(10, 6), EpochMetadata::default())
            .unwrap();
        let err = store.rewrite_bin(6, vec![(vec![1, 2, 3], row(&[1, 2, 3], 1))], Vec::new());
        assert!(err.is_err());
        // Empty replacement list is a no-op.
        store.rewrite_bin(6, vec![], Vec::new()).unwrap();
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

    /// A store on each backend: in memory, and on disk under a scratch root
    /// that is removed with the store.
    fn stores(tag: &str) -> Vec<EpochStore> {
        let root = std::env::temp_dir().join(format!(
            "concealer-epoch-store-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let disk = crate::DiskEpochStore::open_scratch(root).unwrap();
        vec![EpochStore::new(), EpochStore::with_backend(Arc::new(disk))]
    }

    /// While an update's function is parked, a fetch of the same epoch on
    /// another thread returns, and returns the rows as they were; once the
    /// update publishes, a fetch sees the new rows.
    #[test]
    fn readers_never_wait_for_a_writer() {
        for store in stores("readers") {
            store
                .ingest_epoch(1, sample_epoch(10, 1), EpochMetadata::default())
                .unwrap();
            let trapdoors = vec![vec![1, 0, 2], vec![1, 0, 3]];
            let old = store.fetch_batch(1, &trapdoors).unwrap();
            let replacement = row(&[1, 0, 3], 0xEE);
            let (parked_tx, parked_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let store = &store;
            let during = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let replacements = [(vec![1, 0, 3], replacement.clone())];
                    store.backend().update_epoch(1, &mut move |epoch| {
                        parked_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok(StoredEpoch {
                            table: epoch.table.replace_rows(&replacements)?,
                            ..epoch.clone()
                        })
                    })
                });
                parked_rx.recv().unwrap();
                let (fetched_tx, fetched_rx) = mpsc::channel();
                let trapdoors = &trapdoors;
                s.spawn(move || fetched_tx.send(store.fetch_batch(1, trapdoors).unwrap()));
                let during = fetched_rx.recv_timeout(Duration::from_secs(5));
                release_tx.send(()).unwrap();
                writer.join().unwrap().unwrap();
                during
            });
            let during = during.expect("a fetch waited for a write in progress");
            assert_eq!(during, old, "{}", store.backend_kind());
            let after = store.fetch_batch(1, &trapdoors).unwrap();
            assert_eq!(after.get(1).unwrap(), replacement);
            assert_eq!(after.get(0), old.get(0));
        }
    }

    /// A write waits only for writes to its own epoch. While an update of
    /// epoch 1 is parked, an ingest and a rewrite of epoch 2 both land,
    /// and a re-ingest of epoch 1 lands only after the update, so the
    /// re-ingest is what stays stored.
    #[test]
    fn writes_wait_only_for_writes_to_their_epoch() {
        for store in stores("writers") {
            for salt in [1, 2] {
                store
                    .ingest_epoch(
                        u64::from(salt),
                        sample_epoch(10, salt),
                        EpochMetadata::default(),
                    )
                    .unwrap();
            }
            let (parked_tx, parked_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let store = &store;
            let (other, same_early) = std::thread::scope(|s| {
                let update = s.spawn(move || {
                    store.backend().update_epoch(1, &mut move |epoch| {
                        parked_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok(StoredEpoch {
                            rewrite_count: epoch.rewrite_count + 1,
                            ..epoch.clone()
                        })
                    })
                });
                parked_rx.recv().unwrap();
                let (other_tx, other_rx) = mpsc::channel();
                s.spawn(move || {
                    let meta = EpochMetadata::default();
                    store.ingest_epoch(2, sample_epoch(12, 2), meta).unwrap();
                    let rewrite = vec![(vec![2, 0, 3], row(&[2, 0, 3], 0xEE))];
                    store.rewrite_bin(2, rewrite, Vec::new()).unwrap();
                    other_tx.send(()).unwrap();
                });
                let other = other_rx.recv_timeout(Duration::from_secs(5));
                let (same_tx, same_rx) = mpsc::channel();
                s.spawn(move || {
                    let meta = EpochMetadata::default();
                    store.ingest_epoch(1, sample_epoch(12, 1), meta).unwrap();
                    same_tx.send(()).unwrap();
                });
                let same_early = same_rx.recv_timeout(Duration::from_millis(100));
                release_tx.send(()).unwrap();
                update.join().unwrap().unwrap();
                same_rx.recv().unwrap();
                (other, same_early)
            });
            let kind = store.backend_kind();
            other.unwrap_or_else(|e| panic!("{kind}: a write to epoch 2 waited for epoch 1: {e}"));
            assert!(
                same_early.is_err(),
                "{kind}: a re-ingest overtook an update"
            );
            assert_eq!(store.full_scan(1).unwrap().len(), 12, "{kind}");
            assert_eq!(store.rewrite_count(1).unwrap(), 0, "{kind}");
            assert_eq!(store.rewrite_count(2).unwrap(), 1, "{kind}");
        }
    }

    /// Two rewrites of one epoch that start together both land: neither
    /// builds its snapshot on one the other has already replaced.
    #[test]
    fn concurrent_rewrites_lose_no_update() {
        const ROUNDS: u8 = 8;
        for store in stores("rewrites") {
            store
                .ingest_epoch(1, sample_epoch(2000, 1), EpochMetadata::default())
                .unwrap();
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                for key in [[1, 0, 2], [1, 0, 3]] {
                    let (store, barrier) = (&store, &barrier);
                    s.spawn(move || {
                        for round in 0..ROUNDS {
                            barrier.wait();
                            let rewrite = vec![(key.to_vec(), row(&key, round))];
                            store.rewrite_bin(1, rewrite, Vec::new()).unwrap();
                        }
                    });
                }
            });
            assert_eq!(store.rewrite_count(1).unwrap(), 2 * u64::from(ROUNDS));
            for key in [[1, 0, 2], [1, 0, 3]] {
                let stored = store.fetch_by_trapdoor(1, &key).unwrap().unwrap();
                assert_eq!(stored, row(&key, ROUNDS - 1), "{}", store.backend_kind());
            }
        }
    }
}
