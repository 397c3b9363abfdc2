//! The index over the `Index` column: bulk-built once per segment, and
//! pointer-free on the lookup path.
//!
//! This plays the role MySQL's secondary B-tree index plays in the paper:
//! the data provider ships tuples whose `Index` column holds the
//! deterministic ciphertext `E_k(cid || counter)`, the DBMS indexes that
//! column, and every query the enclave issues is |bin| exact-match lookups
//! of trapdoors against this index. Exact match is the *only* operation
//! the server needs — there is no range scan, no ordered iteration and no
//! single-row insert, because epochs arrive whole and §6 rewrites swap
//! whole bins (see [`crate::EncryptedTable::replace_rows`]). So the index
//! is what a bulk-loaded B+-tree's leaf level is, flattened: one sorted
//! array of 8-byte big-endian key prefixes beside one array of row
//! positions. A lookup binary-searches the contiguous prefix array and
//! touches a row's `Index` column only to confirm the hit; no key bytes
//! are copied into the index, so every key is stored once (in its row).
//!
//! Prefix order agrees with byte-string order wherever two prefixes
//! differ, and keys shorter than 8 bytes are zero-padded, so `[1]` and
//! `[1, 0]` share a prefix: entries with equal prefixes are ordered by
//! full key at build time (which is also what makes a duplicate key
//! adjacent to its twin, and therefore detectable), and a lookup walks the
//! run of equal prefixes comparing full keys. The `Index` column holds SIV
//! ciphertexts whose first 16 bytes are a CMAC, so a run longer than one
//! entry takes a 64-bit MAC collision.

use crate::table::{RowArena, RowRef};
use crate::{Result, StorageError};

/// The first 8 bytes of `key` as a big-endian integer, zero-padded.
fn prefix(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// The row at `pos` of the arena the index was built over.
fn row_at(rows: &RowArena, pos: usize) -> RowRef<'_> {
    rows.get(pos).expect("indexed position")
}

/// Exact-match index from `Index` value to row position over one segment's
/// rows. It borrows the keys from the rows it was built over: every
/// method takes that same arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyIndex {
    /// Key prefixes, ascending (ties in full-key order).
    prefixes: Vec<u64>,
    /// `positions[i]` is the row whose key has `prefixes[i]`.
    positions: Vec<u32>,
}

impl KeyIndex {
    /// Index `rows` by their `Index` column. Keys must be unique.
    pub(crate) fn build(rows: &RowArena) -> Result<Self> {
        assert!(
            u32::try_from(rows.len()).is_ok(),
            "a segment holds at most u32::MAX rows"
        );
        let key_of = |pos: u32| row_at(rows, pos as usize).index_key();
        let mut entries: Vec<(u64, u32)> = rows
            .iter()
            .enumerate()
            .map(|(pos, row)| (prefix(row.index_key()), pos as u32))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| key_of(a.1).cmp(key_of(b.1))));
        if entries
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && key_of(w[0].1) == key_of(w[1].1))
        {
            return Err(StorageError::DuplicateKey);
        }
        let (prefixes, positions) = entries.into_iter().unzip();
        Ok(KeyIndex {
            prefixes,
            positions,
        })
    }

    /// The row of `rows` whose `Index` column equals `key`, and its
    /// position.
    pub(crate) fn get<'r>(&self, key: &[u8], rows: &'r RowArena) -> Option<(usize, RowRef<'r>)> {
        let wanted = prefix(key);
        let start = self.prefixes.partition_point(|&p| p < wanted);
        self.prefixes[start..]
            .iter()
            .zip(&self.positions[start..])
            .take_while(|(&p, _)| p == wanted)
            .map(|(_, &pos)| (pos as usize, row_at(rows, pos as usize)))
            .find(|(_, row)| row.index_key() == key)
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

    /// The round-trip law: after `build(rows)`, looking up `rows[i]`'s key
    /// yields `i`, for every `i`.
    /// `KeyIndex::get`, position only.
    fn get(index: &KeyIndex, key: &[u8], rows: &RowArena) -> Option<usize> {
        index.get(key, rows).map(|(pos, _)| pos)
    }

    fn assert_round_trip(rows: &RowArena) -> KeyIndex {
        let index = KeyIndex::build(rows).unwrap();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(index.get(row.index_key(), rows), Some((i, row)));
        }
        index
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

    #[test]
    fn variable_length_keys() {
        let rows = rows_of([
            b"".to_vec(),
            b"a".to_vec(),
            b"aa".to_vec(),
            b"aaa".to_vec(),
            b"ab".to_vec(),
            vec![0xff; 100],
            // Equal zero-padded prefixes, different keys.
            vec![1],
            vec![1, 0],
            vec![1, 0, 0, 0, 0, 0, 0, 0],
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0],
        ]);
        let index = assert_round_trip(&rows);
        assert_eq!(get(&index, &[1, 0, 0], &rows), None);
        assert_eq!(get(&index, &[0xff; 99], &rows), None);
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

        #[test]
        fn prop_matches_std_btreemap(
            keys in proptest::collection::btree_set(proptest::collection::vec(any::<u8>(), 0..24), 0..600),
            probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..50),
            seed in any::<u64>(),
        ) {
            prop_assert!(matches_btreemap(&shipment(keys, seed), &probes));
        }

        #[test]
        fn prop_keys_sharing_a_prefix_match_std_btreemap(
            head in proptest::collection::vec(any::<u8>(), 8..12),
            tails in proptest::collection::btree_set(proptest::collection::vec(0u8..4, 0..4), 0..80),
            probes in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..4), 0..40),
            seed in any::<u64>(),
        ) {
            let keys = with_head(&head, tails).into_iter().collect();
            prop_assert!(matches_btreemap(&shipment(keys, seed), &with_head(&head, probes)));
        }

        #[test]
        fn prop_short_keys_match_std_btreemap(
            keys in proptest::collection::btree_set(short_key(), 0..100),
            probes in proptest::collection::vec(short_key(), 0..40),
            seed in any::<u64>(),
        ) {
            prop_assert!(matches_btreemap(&shipment(keys, seed), &probes));
        }

        #[test]
        fn prop_a_duplicate_anywhere_is_rejected(
            keys in proptest::collection::btree_set(proptest::collection::vec(any::<u8>(), 0..24), 1..200),
            seed in any::<u64>(),
            from in any::<usize>(),
            to in any::<usize>(),
        ) {
            let mut rows = shipment(keys, seed).to_rows();
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
