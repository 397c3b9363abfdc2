//! Dynamic insertion and forward privacy (§6 of the paper).
//!
//! Data arrives in epochs (rounds). Queries that span several rounds would
//! let the adversary correlate bins across rounds (Example 6.1), so after a
//! multi-round query the enclave *re-encrypts* every tuple it fetched under
//! a fresh key (`k ← sk || eid || round_counter`), permutes them, and writes
//! them back — inspired by Path-ORAM's re-write step but without the
//! external tree, because the enclave keeps the tiny meta-index (the per-bin
//! round counters) inside the trusted region.
//!
//! This module implements the per-bin re-encryption: given the rows of a
//! fetched bin (encrypted under `old_key`), produce the replacement rows
//! (encrypted under `new_key`), shuffled so physical slots cannot be linked
//! to logical tuples, plus recomputed verifiable tags for the affected
//! cell-ids.

use std::collections::HashMap;

use concealer_crypto::EpochKey;
use concealer_storage::{EncryptedRow, RowArena};
use rand::seq::SliceRandom;
use rand::RngCore;

use crate::codec;
use crate::verify::HashChainBuilder;
use crate::{CoreError, Result};

/// The output of re-encrypting one fetched bin.
#[derive(Debug)]
pub struct ReencryptedBin {
    /// `(old Index value, replacement row)` pairs to hand to the storage
    /// layer. The replacement assignment is shuffled.
    pub replacements: Vec<(Vec<u8>, EncryptedRow)>,
    /// Recomputed verifiable tags for every cell-id whose tuples were
    /// touched: `(cell_id, encrypted tag)`.
    pub new_tags: Vec<(u32, Vec<u8>)>,
}

/// Re-encrypt the rows of a fetched bin from `old_key` to `new_key`.
///
/// Every row must have been encrypted under `old_key` (real tuples decrypt
/// and re-encrypt column by column; fake tuples get fresh random column
/// fillers but keep their logical fake id so future trapdoors still find
/// them). `bin_cell_ids` lists every cell-id belonging to the bin — tags
/// are refreshed for all of them, including cell-ids that currently hold no
/// tuples, so later verifications under the new round key still succeed.
pub fn reencrypt_bin<R: RngCore>(
    old_key: &EpochKey,
    new_key: &EpochKey,
    rows: &RowArena,
    bin_cell_ids: &[u32],
    num_cell_ids: usize,
    rng: &mut R,
) -> Result<ReencryptedBin> {
    // Decrypt / re-encrypt, remembering per-cell-id rows for tag rebuild.
    let mut new_rows: Vec<EncryptedRow> = Vec::with_capacity(rows.len());
    let mut per_cell: HashMap<u32, Vec<(u32, usize)>> = HashMap::new();

    for row in rows.iter() {
        let index_plain = old_key
            .det
            .decrypt(row.index_key())
            .map_err(|_| CoreError::CorruptMetadata)?;
        let new_index = new_key.det.encrypt(&index_plain);

        let new_row = if let Some((cid, counter)) = codec::decode_index_plain(&index_plain) {
            // Real tuple: re-encrypt every column under the new key.
            let mut filters = Vec::with_capacity(row.filter_count());
            for f in row.filters() {
                let plain = old_key
                    .det
                    .decrypt(f)
                    .map_err(|_| CoreError::CorruptMetadata)?;
                filters.push(new_key.det.encrypt(&plain));
            }
            let payload_plain = old_key
                .det
                .decrypt(row.payload())
                .map_err(|_| CoreError::CorruptMetadata)?;
            let payload = new_key.det.encrypt(&payload_plain);
            per_cell
                .entry(cid)
                .or_default()
                .push((counter, new_rows.len()));
            EncryptedRow {
                index_key: new_index,
                filters,
                payload,
            }
        } else {
            // Fake tuple: columns are random filler; refresh them so the
            // rewrite is unlinkable, preserving widths.
            let filters = row
                .filters()
                .map(|f| {
                    let mut fresh = vec![0u8; f.len()];
                    rng.fill_bytes(&mut fresh);
                    fresh
                })
                .collect();
            let mut payload = vec![0u8; row.payload().len()];
            rng.fill_bytes(&mut payload);
            EncryptedRow {
                index_key: new_index,
                filters,
                payload,
            }
        };
        new_rows.push(new_row);
    }

    // Rebuild the hash chains for every cell-id of the bin under the new
    // key (cell-ids without tuples get the empty-chain tag).
    let mut chain = HashChainBuilder::new(new_key, num_cell_ids);
    let mut touched: Vec<u32> = bin_cell_ids.to_vec();
    touched.extend(per_cell.keys().copied());
    touched.sort_unstable();
    touched.dedup();
    for &cid in &touched {
        let mut entries = per_cell.remove(&cid).unwrap_or_default();
        entries.sort_unstable_by_key(|(counter, _)| *counter);
        for (_, row_idx) in entries {
            chain.absorb(cid, &new_rows[row_idx]);
        }
    }
    let all_tags = chain.finalize(rng);
    let new_tags: Vec<(u32, Vec<u8>)> = touched
        .iter()
        .map(|&cid| (cid, all_tags[cid as usize].clone()))
        .collect();

    // Shuffle which replacement row lands in which physical slot.
    let old_keys: Vec<Vec<u8>> = rows.iter().map(|r| r.index_key().to_vec()).collect();
    let mut shuffled = new_rows;
    shuffled.shuffle(rng);
    let replacements = old_keys.into_iter().zip(shuffled).collect();

    Ok(ReencryptedBin {
        replacements,
        new_tags,
    })
}

/// Number of additional random bins to fetch per round when a query spans
/// multiple rounds (`log |Bin|` in §6, at least 1).
#[must_use]
pub fn extra_bins_per_round(num_bins: usize) -> usize {
    if num_bins <= 1 {
        return 0;
    }
    (usize::BITS - (num_bins - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use concealer_crypto::{EpochId, MasterKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> (EpochKey, EpochKey) {
        let mk = MasterKey::from_bytes([5u8; 32]);
        (mk.epoch_key(EpochId(10), 0), mk.epoch_key(EpochId(10), 1))
    }

    fn real_row(key: &EpochKey, cid: u32, counter: u32) -> EncryptedRow {
        EncryptedRow {
            index_key: key.det.encrypt(&codec::index_real_plain(cid, counter)),
            filters: vec![
                key.det.encrypt(&codec::filter_dims_plain(&[7], 3)),
                key.det.encrypt(&codec::filter_obs_plain(9, 3)),
            ],
            payload: key.det.encrypt(&codec::payload_plain(&[7], 200, &[9])),
        }
    }

    fn fake_row(key: &EpochKey, id: u64) -> EncryptedRow {
        EncryptedRow {
            index_key: key.det.encrypt(&codec::index_fake_plain(id)),
            filters: vec![vec![1u8; 41], vec![2u8; 33]],
            payload: vec![3u8; 61],
        }
    }

    #[test]
    fn reencrypted_rows_are_findable_under_new_key() {
        let (old, new) = keys();
        let mut rng = StdRng::seed_from_u64(1);
        let rows = vec![
            real_row(&old, 2, 1),
            real_row(&old, 2, 2),
            fake_row(&old, 0),
        ];
        let out = reencrypt_bin(&old, &new, &rows.into(), &[2], 4, &mut rng).unwrap();
        assert_eq!(out.replacements.len(), 3);

        // Every replacement's index key decrypts under the *new* key to the
        // same logical plaintext set.
        let mut new_plains: Vec<Vec<u8>> = out
            .replacements
            .iter()
            .map(|(_, r)| new.det.decrypt(&r.index_key).unwrap())
            .collect();
        new_plains.sort();
        let mut expected = vec![
            codec::index_real_plain(2, 1),
            codec::index_real_plain(2, 2),
            codec::index_fake_plain(0),
        ];
        expected.sort();
        assert_eq!(new_plains, expected);

        // Old-key trapdoors no longer match any replacement.
        let old_trapdoor = old.det.encrypt(&codec::index_real_plain(2, 1));
        assert!(out
            .replacements
            .iter()
            .all(|(_, r)| r.index_key != old_trapdoor));
    }

    #[test]
    fn reencrypted_payload_content_is_preserved() {
        let (old, new) = keys();
        let mut rng = StdRng::seed_from_u64(2);
        let rows = vec![real_row(&old, 1, 1)];
        let out = reencrypt_bin(&old, &new, &rows.into(), &[1], 2, &mut rng).unwrap();
        let (_, new_row) = &out.replacements[0];
        let plain = new.det.decrypt(&new_row.payload).unwrap();
        let (dims, time, payload) = codec::decode_payload_plain(&plain).unwrap();
        assert_eq!(dims, vec![7]);
        assert_eq!(time, 200);
        assert_eq!(payload, vec![9]);
    }

    #[test]
    fn new_tags_verify_under_new_key() {
        let (old, new) = keys();
        let mut rng = StdRng::seed_from_u64(3);
        let rows = vec![real_row(&old, 3, 1), real_row(&old, 3, 2)];
        let out = reencrypt_bin(&old, &new, &rows.into(), &[3], 5, &mut rng).unwrap();
        assert_eq!(out.new_tags.len(), 1);
        let (cid, tag) = &out.new_tags[0];
        assert_eq!(*cid, 3);

        // Reconstruct the rows in counter order from the replacements and
        // verify the chain.
        let mut with_counters: Vec<(u32, &EncryptedRow)> = out
            .replacements
            .iter()
            .filter_map(|(_, r)| {
                let plain = new.det.decrypt(&r.index_key).ok()?;
                codec::decode_index_plain(&plain).map(|(_, ctr)| (ctr, r))
            })
            .collect();
        with_counters.sort_by_key(|(c, _)| *c);
        let ordered: Vec<&EncryptedRow> = with_counters.into_iter().map(|(_, r)| r).collect();
        assert!(crate::verify::verify_cell_chain(&new, 3, &ordered, tag).is_ok());
    }

    #[test]
    fn wrong_old_key_is_rejected() {
        let (old, new) = keys();
        let other = MasterKey::from_bytes([6u8; 32]).epoch_key(EpochId(10), 0);
        let mut rng = StdRng::seed_from_u64(4);
        let rows = vec![real_row(&old, 1, 1)];
        assert!(reencrypt_bin(&other, &new, &rows.into(), &[1], 2, &mut rng).is_err());
    }

    #[test]
    fn extra_bins_logarithmic() {
        assert_eq!(extra_bins_per_round(0), 0);
        assert_eq!(extra_bins_per_round(1), 0);
        assert_eq!(extra_bins_per_round(2), 1);
        assert_eq!(extra_bins_per_round(8), 3);
        assert_eq!(extra_bins_per_round(9), 4);
        assert_eq!(extra_bins_per_round(1024), 10);
    }
}
