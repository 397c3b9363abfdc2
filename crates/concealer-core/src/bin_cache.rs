//! Enclave-side cache of decrypted, verified bins.
//!
//! Fetching a bin costs trapdoor generation (one deterministic encryption
//! per tuple the bin holds), a store round-trip, hash-chain verification and
//! — per query — payload decryption. Under batched workloads the same hot
//! bins are fetched over and over, so the engine keeps the most recently
//! used bins resident (conceptually inside the enclave: everything cached
//! here is plaintext-adjacent key material and decode results that never
//! cross the trust boundary).
//!
//! # Why the cache is invisible to the adversary
//!
//! A cache that skipped the store round-trip would be a textbook
//! side channel: the service provider could distinguish "bin already
//! queried" from "bin first touched" by the *absence* of fetches. The
//! engine therefore never short-circuits the observable access pattern — a
//! warm hit replays the cached trapdoors against the store
//! ([`concealer_storage::EpochStore::fetch_batch_matches`]): the staged
//! lookup a cold fetch makes, every lookup and key confirmation included,
//! so it records the exact `TrapdoorIssued`/`RowFetched` event sequence a
//! cold fetch would, and the replayed rows are compared byte for byte
//! with the cached ones where a cold fetch copies them. It also replays
//! the recorded generation counters into the side-channel meter. What a
//! hit *skips* is work the adversary cannot observe in either
//! channel: re-deriving trapdoor ciphertexts, re-verifying hash chains,
//! re-decrypting payloads and re-matching every row against the filter
//! tokens inside the enclave — the entry's `DecodedBin` keeps each row's
//! decode and the indexes that let a fold visit only the rows that can
//! match. `tests/cache_side_channel.rs` pins warm-equals-cold for both the
//! event trace and the meter.
//!
//! Entries are keyed by `(epoch, bin, round)`; the §6 forward-privacy
//! protocol bumps a bin's round counter when it rewrites the bin, so
//! rewritten bins miss naturally and re-fetch under the new key. If the
//! store's answer diverges from the cached rows anyway (out-of-band rewrite
//! or tampering), the mismatch invalidates the entry and the engine falls
//! back to a cold fetch — whose verification then surfaces the violation.

use std::collections::HashMap;
use std::sync::Arc;

use concealer_crypto::EpochKey;
use concealer_enclave::MeterSnapshot;
use concealer_storage::RowArena;
use std::sync::Mutex;

use crate::query::filter::DecodedBin;
use crate::query::trapdoor::Trapdoor;
use crate::unpoisoned;

/// Default number of bins kept resident (see
/// [`crate::ConcealerSystem::set_bin_cache_capacity`]).
pub const DEFAULT_BIN_CACHE_CAPACITY: usize = 128;

/// Cache key: `(epoch_id, bin_idx, re-encryption round)`.
pub(crate) type BinKey = (u64, usize, u64);

/// Everything the engine needs to serve a bin without re-deriving it: the
/// round key, the deterministic trapdoors (replayed against the store on
/// every hit), the side-channel counters their generation produced, the
/// fetched rows, and what the filter stage fills in lazily: the per-row
/// payload decodes and the row indexes of [`DecodedBin`]. The indexes,
/// built by the first fold that needs each, cost 16 B per row for each
/// filter column plain folds have matched, and 32 B per authentic row
/// more once predicates the tokens cannot decide have — the time index
/// carries each row's time, location and first payload value: at most
/// 64 B per row, beside the rows' ≈145 B of ciphertext. A
/// fetched eBPB / winSecRange cell-group has the same shape, but is never
/// cached.
pub(crate) struct BinEntry {
    /// The `(epoch, round)` key the bin's rows are encrypted under.
    pub key: Arc<EpochKey>,
    /// The bin's re-encryption round at fetch time (filter-plan memo key).
    pub round: u64,
    /// The deterministic trapdoors the cold fetch issued, in issue order.
    pub trapdoors: Vec<Trapdoor>,
    /// Meter counters trapdoor generation produced cold; replayed verbatim
    /// on every hit so warm and cold executions meter identically.
    pub gen_meter: MeterSnapshot,
    /// The fetched (still encrypted) rows, in fetch order: the enclave's
    /// one copy of what the store returned.
    pub rows: RowArena,
    /// Lazily populated per-row payload decode results and row indexes.
    pub decoded: DecodedBin,
    /// Which rows a fake trapdoor claimed, as verification found them
    /// (empty for an unverified entry): the filter stage refuses any of
    /// them that would contribute, on every hit as on the cold fetch.
    pub fake_claimed: Vec<bool>,
    /// Whether the rows passed hash-chain verification when cached. An
    /// unverified entry cannot serve a verifying execution.
    pub verified: bool,
    /// Whether the trapdoors were generated by the oblivious schedule. A
    /// hit must replay the counters of the mode it executes under.
    pub oblivious: bool,
}

/// Point-in-time statistics of the decrypted-bin cache, exposed through
/// [`crate::IndexStats::bin_cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinCacheStats {
    /// Maximum entries kept resident (`0` = caching disabled).
    pub capacity: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Fetches served warm (trapdoor replay matched the store).
    pub hits: u64,
    /// Fetches that ran cold (no entry, unusable entry, or replay mismatch).
    pub misses: u64,
    /// Entries dropped to make room for newer ones.
    pub evictions: u64,
}

struct CacheInner {
    map: HashMap<BinKey, (u64, Arc<BinEntry>)>,
    stamp: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The LRU bin cache. Interior-mutable so the engine can consult it from
/// shared references on the (parallel) query path; the lock is held only
/// for map bookkeeping, never across fetches or crypto. Nor is an entry
/// freed under it: whatever leaves the map is handed back to the caller,
/// and dropping the last reference to a bin (its arena, its trapdoors, its
/// decode slots) happens after the guard is gone.
pub(crate) struct BinCache {
    inner: Mutex<CacheInner>,
}

impl BinCache {
    pub fn new(capacity: usize) -> Self {
        BinCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                stamp: 0,
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Look up an entry, refreshing its recency. Counts neither hit nor
    /// miss — the caller decides after checking the entry is usable and the
    /// store still matches it.
    pub fn lookup(&self, key: BinKey) -> Option<Arc<BinEntry>> {
        let mut inner = unpoisoned(self.inner.lock());
        inner.stamp += 1;
        let stamp = inner.stamp;
        let (slot_stamp, entry) = inner.map.get_mut(&key)?;
        *slot_stamp = stamp;
        Some(Arc::clone(entry))
    }

    /// Insert (or replace) an entry, evicting the least recently used one
    /// when full. A capacity of zero disables caching entirely. Returns
    /// the entry that left the map — the one evicted, or the one replaced
    /// — for the caller to drop outside the lock.
    pub fn insert(&self, key: BinKey, entry: Arc<BinEntry>) -> Option<Arc<BinEntry>> {
        let mut inner = unpoisoned(self.inner.lock());
        if inner.capacity == 0 {
            return None;
        }
        inner.stamp += 1;
        let stamp = inner.stamp;
        let evicted = if inner.map.len() >= inner.capacity && !inner.map.contains_key(&key) {
            inner.evict_lru()
        } else {
            None
        };
        let replaced = inner.map.insert(key, (stamp, entry));
        evicted.or(replaced.map(|(_, entry)| entry))
    }

    /// Remove an entry (stale mode, failed replay, or §6 rewrite cleanup),
    /// handing it back to be dropped outside the lock.
    pub fn invalidate(&self, key: BinKey) -> Option<Arc<BinEntry>> {
        let removed = unpoisoned(self.inner.lock()).map.remove(&key);
        removed.map(|(_, entry)| entry)
    }

    pub fn record_hit(&self) {
        unpoisoned(self.inner.lock()).hits += 1;
    }

    pub fn record_miss(&self) {
        unpoisoned(self.inner.lock()).misses += 1;
    }

    /// Resize the cache; shrinking evicts least-recently-used entries, and
    /// a capacity of zero flushes everything and disables caching. Returns
    /// the evicted entries, least recently used first, for the caller to
    /// drop outside the lock.
    pub fn set_capacity(&self, capacity: usize) -> Vec<Arc<BinEntry>> {
        let mut inner = unpoisoned(self.inner.lock());
        inner.capacity = capacity;
        let excess = inner.map.len().saturating_sub(capacity);
        (0..excess).filter_map(|_| inner.evict_lru()).collect()
    }

    pub fn stats(&self) -> BinCacheStats {
        let inner = unpoisoned(self.inner.lock());
        BinCacheStats {
            capacity: inner.capacity,
            entries: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

impl CacheInner {
    /// Remove the least recently used entry and count the eviction.
    fn evict_lru(&mut self) -> Option<Arc<BinEntry>> {
        // O(n) scan: capacities are small (hundreds) and the scan touches
        // only stamps, so this stays off any profile.
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, (s, _))| *s)
            .map(|(k, _)| *k)?;
        self.evictions += 1;
        self.map.remove(&oldest).map(|(_, entry)| entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concealer_crypto::{EpochId, MasterKey};

    fn entry(round: u64) -> Arc<BinEntry> {
        Arc::new(BinEntry {
            key: Arc::new(MasterKey::from_bytes([1u8; 32]).epoch_key(EpochId(0), round)),
            round,
            trapdoors: Vec::new(),
            gen_meter: MeterSnapshot::default(),
            rows: RowArena::new(),
            decoded: DecodedBin::new(0),
            fake_claimed: Vec::new(),
            verified: true,
            oblivious: false,
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = BinCache::new(2);
        cache.insert((0, 0, 0), entry(0));
        cache.insert((0, 1, 0), entry(0));
        // Touch bin 0 so bin 1 is the LRU victim.
        assert!(cache.lookup((0, 0, 0)).is_some());
        cache.insert((0, 2, 0), entry(0));
        assert!(cache.lookup((0, 0, 0)).is_some());
        assert!(cache.lookup((0, 1, 0)).is_none());
        assert!(cache.lookup((0, 2, 0)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = BinCache::new(0);
        cache.insert((0, 0, 0), entry(0));
        assert!(cache.lookup((0, 0, 0)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let cache = BinCache::new(8);
        for bin in 0..6 {
            cache.insert((0, bin, 0), entry(0));
        }
        cache.set_capacity(2);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 4);
        cache.set_capacity(0);
        assert_eq!(cache.stats().entries, 0);
    }

    /// What leaves the map comes back to the caller (to be dropped after
    /// the lock): `insert` hands back the LRU entry it evicts or the entry
    /// it replaces, `set_capacity` every entry it sheds, oldest first.
    #[test]
    fn removed_entries_are_handed_back_not_dropped_under_the_lock() {
        let cache = BinCache::new(3);
        let entries: Vec<Arc<BinEntry>> = (0..6).map(entry).collect();
        for (bin, e) in entries.iter().take(3).enumerate() {
            assert!(cache.insert((0, bin, 0), Arc::clone(e)).is_none());
        }
        // Bin 0 is touched, so bin 1 is the LRU victim.
        assert!(cache.lookup((0, 0, 0)).is_some());
        let evicted = cache.insert((0, 3, 0), Arc::clone(&entries[3]));
        assert!(Arc::ptr_eq(&evicted.unwrap(), &entries[1]));
        let replaced = cache.insert((0, 3, 0), Arc::clone(&entries[4]));
        assert!(Arc::ptr_eq(&replaced.unwrap(), &entries[3]));
        // Recency now, oldest first: bins 2, 0, 3.
        let shed = cache.set_capacity(1);
        assert_eq!(shed.len(), 2);
        assert!(Arc::ptr_eq(&shed[0], &entries[2]));
        assert!(Arc::ptr_eq(&shed[1], &entries[0]));
        assert_eq!(cache.stats().evictions, 3);
        let removed = cache.invalidate((0, 3, 0));
        assert!(Arc::ptr_eq(&removed.unwrap(), &entries[4]));
        assert!(cache.invalidate((0, 3, 0)).is_none());
        assert!(cache.set_capacity(0).is_empty());
    }

    #[test]
    fn rounds_key_separate_entries() {
        let cache = BinCache::new(4);
        cache.insert((0, 0, 0), entry(0));
        cache.insert((0, 0, 1), entry(1));
        assert_eq!(cache.lookup((0, 0, 0)).unwrap().round, 0);
        assert_eq!(cache.lookup((0, 0, 1)).unwrap().round, 1);
        cache.invalidate((0, 0, 0));
        assert!(cache.lookup((0, 0, 0)).is_none());
        assert!(cache.lookup((0, 0, 1)).is_some());
    }
}
