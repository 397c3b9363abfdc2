//! The index over the `Index` column: bulk-built once per segment,
//! pointer-free, and one directory load away from the entry on the lookup
//! path.
//!
//! This plays the role MySQL's secondary index plays in the paper: the
//! data provider ships tuples whose `Index` column holds the deterministic
//! ciphertext `E_k(cid || counter)`, the DBMS indexes that column, and
//! every query the enclave issues is |bin| exact-match lookups of
//! trapdoors against this index. Exact match is the *only* operation the
//! server needs — there is no range scan, no ordered iteration and no
//! single-row insert, because epochs arrive whole and §6 rewrites swap
//! whole bins (see `EncryptedTable::replace_rows`).
//!
//! **Entries.** One sorted array of 8-byte big-endian key prefixes beside
//! one array of row positions. No key bytes are copied into the index —
//! every key is stored once, in its row, and a lookup touches the row's
//! `Index` column only to confirm the hit. Prefix order agrees with
//! byte-string order wherever two prefixes differ, and keys shorter than 8
//! bytes are zero-padded, so `[1]` and `[1, 0]` share a prefix: entries
//! with equal prefixes are ordered by full key at build time (which is
//! also what makes a duplicate key adjacent to its twin, and therefore
//! detectable), and a lookup walks the run of equal prefixes comparing
//! full keys.
//!
//! **Bucket directory.** Over the sorted prefixes lies a directory of
//! `2^b + 1` entry offsets, `b = max(1, ⌈log2 n⌉)` for `n` rows: bucket `k`
//! is the entries whose prefix has `k` in its top `b` bits, and because
//! the prefixes are sorted that is the contiguous slice
//! `dir[k]..dir[k + 1]` — one counting pass after the sort builds it. A
//! lookup shifts the wanted prefix down to its bucket number, reads the
//! two offsets, and binary-searches only that slice. The `Index` column
//! holds SIV ciphertexts whose first 16 bytes are a CMAC, so prefixes are
//! uniform: with at least as many buckets as entries a bucket holds one
//! entry on average (fewer than one above a power of two), the slice
//! search is a comparison or two inside one cache line, and a lookup
//! costs O(1) loads whatever the segment's size — where a binary search
//! of the whole array pays ⌈log2 n⌉ dependent loads, the lower half of
//! which miss the CPU caches once a segment outgrows them. Nothing relies
//! on uniformity for correctness or for a bound: keys an adversary
//! clustered under one prefix head all land in one bucket, and searching
//! that bucket is exactly the binary search of the whole array — never
//! worse. A run of equal prefixes longer than one entry takes a 64-bit
//! MAC collision. The directory costs `4 B × (2^b + 1)` per segment, i.e.
//! 4–8 B per row on top of the entries' 12 B.
//!
//! **Batches.** A bin fetch is hundreds of lookups whose keys are all
//! known up front, so a batch is resolved stage by stage — every key's
//! bucket, then every run start and candidate row
//! ([`KeyIndex::candidates`], both into one buffer of [`Probe`]s), then
//! every full-key confirmation ([`KeyIndex::confirm`]) — instead of key by
//! key. Each stage is a tight loop of loads that do not depend on one
//! another, which the core overlaps; key by key, each lookup's chain of
//! dependent cache misses (directory → prefix → position → row bytes)
//! mostly waits for the one before it. A position is a row's place in its
//! arena's fixed-width slots, so the row is one multiply away and its key
//! is its first `key_width` bytes. The store's fetch
//! (`table::StagedLookup`) puts one more stage between the last two: it
//! loads every line of every candidate row, so confirmation and what
//! follows it find the rows on their way in.

use crate::table::{RowArena, Slots};
use crate::{Result, StorageError};
use std::ops::Range;

/// The first 8 bytes of `key` as a big-endian integer, zero-padded.
fn prefix(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// A key's slot in a staged batch lookup. [`KeyIndex::candidates`] fills
/// it in two stages: first with the key's prefix and bucket, then, in
/// place, with the key's candidate row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// The key's prefix.
    wanted: u64,
    /// After the first stage, where the key's bucket starts; after the
    /// second, the row the key's run names first, or [`NO_ROW`] when no
    /// entry has the key's prefix.
    at: u32,
    /// Where the key's bucket ends.
    end: u32,
}

/// The candidate of a [`Probe`] whose prefix no entry has. No row has this
/// position: a segment holds at most `u32::MAX` rows.
const NO_ROW: u32 = u32::MAX;

impl Probe {
    /// The row whose key the second stage found the probe's prefix on:
    /// the only row the key can be, unless two keys share the prefix.
    pub(crate) fn candidate(self) -> Option<u32> {
        (self.at != NO_ROW).then_some(self.at)
    }
}

/// Exact-match index from `Index` value to row position over one segment's
/// rows. It borrows the keys from the rows it was built over: every
/// method takes that same arena's slots.
#[derive(Debug, Clone)]
pub(crate) struct KeyIndex {
    /// Key prefixes, ascending (ties in full-key order).
    prefixes: Vec<u64>,
    /// `positions[i]` is the row whose key has `prefixes[i]`.
    positions: Vec<u32>,
    /// `dir[k]..dir[k + 1]` are the entries whose prefix, shifted right by
    /// `shift`, is `k`; `2^(64 - shift) + 1` offsets.
    dir: Vec<u32>,
    /// `64 - b` for a directory over the prefixes' top `b ≥ 1` bits.
    shift: u32,
}

impl Default for KeyIndex {
    fn default() -> Self {
        KeyIndex::over(Vec::new(), Vec::new())
    }
}

impl KeyIndex {
    /// Index `rows` by their `Index` column. Keys must be unique.
    pub(crate) fn build(rows: &RowArena) -> Result<Self> {
        assert!(
            u32::try_from(rows.len()).is_ok(),
            "a segment holds at most u32::MAX rows"
        );
        let slots = rows.slots();
        let key_of = |pos: u32| slots.key(pos as usize);
        let mut entries: Vec<(u64, u32)> = (0..rows.len() as u32)
            .map(|pos| (prefix(key_of(pos)), pos))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| key_of(a.1).cmp(key_of(b.1))));
        if entries
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && key_of(w[0].1) == key_of(w[1].1))
        {
            return Err(StorageError::DuplicateKey);
        }
        let (prefixes, positions) = entries.into_iter().unzip();
        Ok(KeyIndex::over(prefixes, positions))
    }

    /// Lay the bucket directory over sorted entries.
    fn over(prefixes: Vec<u64>, positions: Vec<u32>) -> Self {
        // At least as many buckets as entries, and at least two, so the
        // shift stays below the prefix's width.
        let bits = prefixes.len().next_power_of_two().trailing_zeros().max(1);
        let shift = u64::BITS - bits;
        // Count each bucket's entries one slot up, then sum: slot `k` ends
        // as the number of entries in buckets below `k`.
        let mut dir = vec![0u32; (1usize << bits) + 1];
        for &p in &prefixes {
            dir[(p >> shift) as usize + 1] += 1;
        }
        let mut below = 0;
        for slot in &mut dir {
            below += *slot;
            *slot = below;
        }
        KeyIndex {
            prefixes,
            positions,
            dir,
            shift,
        }
    }

    /// The entries of the bucket `wanted` falls in.
    #[inline]
    fn bucket(&self, wanted: u64) -> Range<usize> {
        let k = (wanted >> self.shift) as usize;
        self.dir[k] as usize..self.dir[k + 1] as usize
    }

    /// The first entry of `bucket` whose prefix is not below `wanted` —
    /// where the run of entries with that prefix starts if there is one.
    /// This may be the bucket's end, and an entry there has another prefix.
    #[inline]
    fn run_start(&self, wanted: u64, bucket: Range<usize>) -> usize {
        bucket.start + self.prefixes[bucket].partition_point(|&p| p < wanted)
    }

    /// The position of the row of `rows` whose `Index` column equals
    /// `key`: walk the run of entries with the key's prefix, comparing
    /// full keys.
    pub(crate) fn get(&self, key: &[u8], rows: Slots<'_>) -> Option<usize> {
        let wanted = prefix(key);
        let start = self.run_start(wanted, self.bucket(wanted));
        self.prefixes[start..]
            .iter()
            .zip(&self.positions[start..])
            .take_while(|(&p, _)| p == wanted)
            .map(|(_, &pos)| pos as usize)
            .find(|&pos| rows.key(pos) == key)
    }

    /// The first two stages of a batch lookup of `keys`, into one probe
    /// per key in their order: every key's bucket, then where each key's
    /// run starts and the row its first entry names.
    pub(crate) fn candidates<K: AsRef<[u8]>>(&self, keys: &[K]) -> Vec<Probe> {
        let mut probes: Vec<Probe> = keys
            .iter()
            .map(|key| {
                let wanted = prefix(key.as_ref());
                let bucket = self.bucket(wanted);
                Probe {
                    wanted,
                    at: bucket.start as u32,
                    end: bucket.end as u32,
                }
            })
            .collect();
        for probe in &mut probes {
            let start = self.run_start(probe.wanted, probe.at as usize..probe.end as usize);
            probe.at = match self.prefixes.get(start) {
                Some(&p) if p == probe.wanted => self.positions[start],
                _ => NO_ROW,
            };
        }
        probes
    }

    /// The last stage of a batch lookup: the position of the row of
    /// `rows` whose `Index` column equals `key`, given the key's `probe`.
    /// A run's first entry is its only one unless two keys share a prefix,
    /// and then [`Self::get`] walks it.
    #[inline]
    pub(crate) fn confirm(&self, key: &[u8], probe: Probe, rows: Slots<'_>) -> Option<usize> {
        let pos = probe.candidate()? as usize;
        if rows.key(pos) == key {
            Some(pos)
        } else {
            self.get(key, rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::EncryptedRow;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    fn rows_of<K: AsRef<[u8]>>(keys: impl IntoIterator<Item = K>) -> RowArena {
        keys.into_iter()
            .map(|k| EncryptedRow {
                index_key: k.as_ref().to_vec(),
                filters: Vec::new(),
                payload: Vec::new(),
            })
            .collect::<Vec<_>>()
            .into()
    }

    /// `KeyIndex::get` over the slots of `rows`.
    fn get(index: &KeyIndex, key: &[u8], rows: &RowArena) -> Option<usize> {
        index.get(key, rows.slots())
    }

    /// The round-trip law: after `build(rows)`, looking up `rows[i]`'s key
    /// yields `i`, for every `i`.
    fn assert_round_trip(rows: &RowArena) -> KeyIndex {
        let index = KeyIndex::build(rows).unwrap();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(get(&index, row.index_key(), rows), Some(i));
        }
        index
    }

    /// `keys` cut or zero-padded to `width` bytes: a table's keys share
    /// one width, as its rows share one shape.
    fn of_width(keys: impl IntoIterator<Item = Vec<u8>>, width: usize) -> BTreeSet<Vec<u8>> {
        keys.into_iter()
            .map(|mut key| {
                key.resize(width, 0);
                key
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let none = RowArena::new();
        let index = KeyIndex::build(&none).unwrap();
        assert_eq!(get(&index, b"anything", &none), None);
        assert_eq!(get(&index, b"", &none), None);
    }

    #[test]
    fn insert_and_get_small() {
        let rows = rows_of([b"b", b"a", b"c"]);
        let index = assert_round_trip(&rows);
        assert_eq!(get(&index, b"d", &rows), None);
        assert_eq!(get(&index, b"", &rows), None);
    }

    #[test]
    fn duplicate_rejected() {
        assert_eq!(
            KeyIndex::build(&rows_of([b"k", b"j", b"k"])).err(),
            Some(StorageError::DuplicateKey)
        );
    }

    #[test]
    fn many_sequential_inserts() {
        let rows = rows_of((0..10_000u64).map(u64::to_be_bytes));
        assert_round_trip(&rows);
    }

    #[test]
    fn many_random_order_inserts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut keys: Vec<u64> = (0..5000).collect();
        keys.shuffle(&mut rng);
        let rows = rows_of(keys.iter().map(|k| k.to_be_bytes()));
        let index = assert_round_trip(&rows);
        assert_eq!(get(&index, &5000u64.to_be_bytes(), &rows), None);
    }

    /// Keys of one width per table: below 8 bytes, whose prefixes are
    /// zero-padded, and above, where keys share 8-byte prefixes and a
    /// lookup walks their run. Trapdoors of other lengths miss, also where
    /// their zero-padded prefix is a key's.
    #[test]
    fn variable_length_keys() {
        let short = rows_of([
            b"\0\0\0".to_vec(),
            b"a\0\0".to_vec(),
            b"aa\0".to_vec(),
            b"aaa".to_vec(),
            b"ab\0".to_vec(),
            vec![0xff; 3],
            vec![1, 0, 0],
        ]);
        let index = assert_round_trip(&short);
        for probe in [&[1][..], &[1, 0], &[1, 0, 0, 0], b"aa", b"", &[0xff; 4]] {
            assert_eq!(get(&index, probe, &short), None, "{probe:?}");
        }
        let long = rows_of([
            vec![0xff; 100],
            [&[0xff; 99][..], &[0]].concat(),
            [&[1, 0, 0, 0, 0, 0, 0, 0][..], &[0; 92]].concat(),
            [&[1, 0, 0, 0, 0, 0, 0, 0][..], &[0; 91], &[1]].concat(),
            [&[1, 0, 0, 0, 0, 0, 0, 0][..], &[1; 92]].concat(),
        ]);
        let index = assert_round_trip(&long);
        assert_eq!(get(&index, &[0xff; 99], &long), None);
        assert_eq!(get(&index, &[1, 0, 0, 0, 0, 0, 0, 0], &long), None);
        assert_eq!(
            get(
                &index,
                &[[1, 0, 0, 0, 0, 0, 0, 0].as_slice(), &[2; 92]].concat(),
                &long
            ),
            None
        );
    }

    /// A shipment holding exactly `keys`, in an order drawn from `seed`.
    fn shipment(keys: BTreeSet<Vec<u8>>, seed: u64) -> RowArena {
        let mut keys: Vec<Vec<u8>> = keys.into_iter().collect();
        keys.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        rows_of(keys)
    }

    /// Index ≡ `BTreeMap<key, position>`, on the shipment's own keys (the
    /// round-trip law) and on `probes`.
    fn matches_btreemap(rows: &RowArena, probes: &[Vec<u8>]) -> bool {
        let reference: BTreeMap<&[u8], usize> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (r.index_key(), i))
            .collect();
        let index = assert_round_trip(rows);
        probes
            .iter()
            .all(|k| get(&index, k, rows) == reference.get(k.as_slice()).copied())
    }

    /// [`KeyIndex::get`] for every key of `keys`, in their order, resolved
    /// in stages.
    fn get_many<K: AsRef<[u8]>>(
        index: &KeyIndex,
        keys: &[K],
        rows: &RowArena,
    ) -> Vec<Option<usize>> {
        keys.iter()
            .zip(index.candidates(keys))
            .map(|(key, probe)| index.confirm(key.as_ref(), probe, rows.slots()))
            .collect()
    }

    /// [`matches_btreemap`], and the batch form agrees with the single one
    /// on the shipment's keys followed by `probes`.
    fn batch_and_single_match_btreemap(rows: &RowArena, probes: &[Vec<u8>]) -> bool {
        let index = KeyIndex::build(rows).unwrap();
        let keys: Vec<&[u8]> = rows
            .iter()
            .map(|r| r.index_key())
            .chain(probes.iter().map(Vec::as_slice))
            .collect();
        let singles: Vec<_> = keys.iter().map(|k| get(&index, k, rows)).collect();
        matches_btreemap(rows, probes) && get_many(&index, &keys, rows) == singles
    }

    /// Keys spread over the whole prefix space, as CMAC-led ciphertexts are.
    fn spread_key(i: u64) -> Vec<u8> {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes().to_vec()
    }

    #[test]
    fn sizes_around_every_directory_width() {
        let powers = (2..=11).map(|k| 1u64 << k);
        let sizes = (0..=3).chain(powers.flat_map(|p| [p - 1, p, p + 1]));
        for n in sizes {
            let rows = rows_of((0..n).map(spread_key));
            let absent: Vec<Vec<u8>> = (n..n + 20).map(spread_key).collect();
            assert!(batch_and_single_match_btreemap(&rows, &absent), "{n} rows");
        }
    }

    #[test]
    fn one_bucket_holding_every_key_is_a_binary_search() {
        // 1000 rows index on the top 10 bits; these keys agree on 16, so
        // one bucket holds them all — with runs of four equal prefixes
        // inside, keys being 9 bytes.
        let head = [0xAB, 0xCD];
        let clustered =
            |i: u16, last: u8| [head.as_slice(), &i.to_be_bytes(), &[0, 0, 0, 0, last]].concat();
        let keys: Vec<Vec<u8>> = (0..250)
            .flat_map(|i| (0..4).map(move |last| clustered(i, last)))
            .collect();
        let probes = [
            clustered(250, 0),
            clustered(3, 4),
            [head.as_slice(), &[0, 3, 0, 0, 0, 0]].concat(),
            vec![0xAB],
            vec![0xAB, 0xCE],
            vec![],
        ];
        assert!(batch_and_single_match_btreemap(&rows_of(keys), &probes));

        // Short keys alone, zero-padded: every prefix is in bucket 0 or 1
        // of the two there are.
        let short = rows_of([vec![1, 0, 0], vec![1, 0, 1], vec![0, 1, 0], vec![0, 0, 0]]);
        let probes = [
            vec![1, 0, 0, 0],
            vec![1, 0],
            vec![0],
            vec![2, 0, 0],
            vec![0xff; 7],
        ];
        assert!(batch_and_single_match_btreemap(&short, &probes));
    }

    /// Keys below 8 bytes over three byte values: zero-padding ties such as
    /// `[1]` vs `[1, 0]` are common.
    fn short_key() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..3, 0..8)
    }

    fn with_head(head: &[u8], tails: impl IntoIterator<Item = Vec<u8>>) -> Vec<Vec<u8>> {
        tails.into_iter().map(|t| [head, &t].concat()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One key width per table, drawn; probes of that width and of
        /// any other.
        #[test]
        fn prop_matches_std_btreemap(
            width in 0usize..24,
            keys in proptest::collection::btree_set(proptest::collection::vec(any::<u8>(), 0..24), 0..600),
            probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..50),
            seed in any::<u64>(),
        ) {
            let mut probes = probes;
            probes.extend(of_width(probes.clone(), width));
            prop_assert!(matches_btreemap(&shipment(of_width(keys, width), seed), &probes));
        }

        /// Keys of 9–14 bytes under one 8-byte head: every lookup walks a
        /// run of equal prefixes.
        #[test]
        fn prop_keys_sharing_a_prefix_match_std_btreemap(
            head in proptest::collection::vec(any::<u8>(), 8..12),
            tail_width in 1usize..4,
            tails in proptest::collection::btree_set(proptest::collection::vec(0u8..4, 0..4), 0..80),
            probes in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..4), 0..40),
            seed in any::<u64>(),
        ) {
            let keys = with_head(&head, of_width(tails, tail_width)).into_iter().collect();
            let mut probes = with_head(&head, probes.clone());
            probes.extend(with_head(&head, of_width(probes.clone(), tail_width)));
            prop_assert!(matches_btreemap(&shipment(keys, seed), &probes));
        }

        /// Keys below 8 bytes, zero-padded to their prefixes, one width
        /// per table; probes of every short length.
        #[test]
        fn prop_short_keys_match_std_btreemap(
            width in 0usize..8,
            keys in proptest::collection::btree_set(short_key(), 0..100),
            probes in proptest::collection::vec(short_key(), 0..40),
            seed in any::<u64>(),
        ) {
            let mut probes = probes;
            probes.extend(of_width(probes.clone(), width));
            prop_assert!(matches_btreemap(&shipment(of_width(keys, width), seed), &probes));
        }

        #[test]
        fn prop_a_duplicate_anywhere_is_rejected(
            width in 0usize..24,
            keys in proptest::collection::btree_set(proptest::collection::vec(any::<u8>(), 0..24), 1..200),
            seed in any::<u64>(),
            from in any::<usize>(),
            to in any::<usize>(),
        ) {
            let mut rows = shipment(of_width(keys, width), seed).to_rows();
            let twin = rows[from % rows.len()].clone();
            rows.insert(to % (rows.len() + 1), twin);
            prop_assert_eq!(KeyIndex::build(&rows.into()).err(), Some(StorageError::DuplicateKey));
        }

        #[test]
        fn prop_absent_keys_return_none(
            present in proptest::collection::btree_set(any::<u32>(), 1..200),
            probe in any::<u32>(),
        ) {
            let keys: Vec<u32> = present.iter().copied().collect();
            let rows = rows_of(keys.iter().map(|k| k.to_be_bytes()));
            let index = KeyIndex::build(&rows).unwrap();
            let expect = keys.iter().position(|k| *k == probe);
            prop_assert_eq!(get(&index, &probe.to_be_bytes(), &rows), expect);
        }
    }
}
