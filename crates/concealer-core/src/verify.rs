//! Hash-chain integrity verification (Algorithm 1 lines 16-21 and §4.2
//! Step 4 of the paper).
//!
//! For every cell-id the data provider hashes the encrypted tuples that
//! carry it, in counter order, as **one** keyed SHA-256 message:
//!
//! ```text
//! h = SHA-256(prefix ‖ row_1 ‖ row_2 ‖ … ‖ row_n)
//! prefix = "concealer/hash-chain/v3" ‖ hash_chain_key ‖ 9 zero bytes
//! row_j  = column count ‖ (LEB128 length ‖ column)*
//! ```
//!
//! over every column of the row, `Index` included. SHA-256 is itself a
//! Merkle–Damgård chain, so the message is the chain the paper asks for
//! with the compression block as its unit: a dropped, added, reordered or
//! modified row changes the message and therefore `h`. The column count and
//! lengths make the encoding injective, so no two row sequences share a
//! message. A cell-id without tuples seals the digest of the prefix alone.
//! The digest is encrypted (so the service provider cannot recompute or
//! forge it) and shipped as the cell-id's *verifiable tag*. At query time
//! the enclave rebuilds the message from the fetched tuples and compares
//! its digest against the decrypted tag.
//!
//! The paper builds one chain per column (`E_l`, `E_o`, `E_r`); this
//! implementation chains the concatenation of all columns, which detects
//! the same tamper classes with a third of the tag volume. The consolidation
//! is noted in ARCHITECTURE.md.
//!
//! Which cell and counter a fetched row belongs to is settled without
//! decrypting anything ([`verify_fetch`]): the enclave issued the
//! trapdoor `E_k(cid || counter)` a moment earlier, and a row whose
//! `Index` column equals that ciphertext byte for byte *is* the row of
//! `(cid, counter)`. Every returned row must be claimed by one issued
//! trapdoor, so nothing the provider adds to a fetch reaches the filter
//! stage unaccounted for.

use concealer_crypto::sha256::{Digest, Sha256};
use concealer_crypto::EpochKey;
use concealer_storage::{EncryptedRow, RowArena, RowRef};
use rand::RngCore;

use crate::query::trapdoor::LabelledTrapdoors;
use crate::{CoreError, Result};

/// Domain-separation prefix for chain hashing.
const CHAIN_DOMAIN: &[u8] = b"concealer/hash-chain/v3";

/// What every cell-id's message starts from, built once per builder or
/// verification call: the hasher that has absorbed `domain ‖
/// hash_chain_key` zero-padded to exactly one SHA-256 block (cloned per
/// cell-id), and the buffer rows are laid out in before they are absorbed
/// (reused, so the hasher copies each byte once rather than once per
/// length and column).
struct ChainPrefix {
    hasher: Sha256,
    buffer: Vec<u8>,
}

fn chain_prefix(key: &EpochKey) -> ChainPrefix {
    let mut block = [0u8; 64];
    let (domain, rest) = block.split_at_mut(CHAIN_DOMAIN.len());
    domain.copy_from_slice(CHAIN_DOMAIN);
    rest[..key.hash_chain_key.len()].copy_from_slice(&key.hash_chain_key);
    let mut hasher = Sha256::new();
    hasher.update(&block);
    ChainPrefix {
        hasher,
        buffer: Vec::new(),
    }
}

/// Append `n` as LEB128: one byte under 128. A WiFi row's column count and
/// each of its four column lengths take one, so its 138 bytes of columns
/// encode in 143.
fn push_leb128(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push((n & 0x7f) as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Append one row of a cell-id's message: its column count, then every
/// column behind its length.
fn encode_row<'r>(out: &mut Vec<u8>, columns: impl Iterator<Item = &'r [u8]> + Clone) {
    push_leb128(out, columns.clone().count());
    for column in columns {
        push_leb128(out, column.len());
        out.extend_from_slice(column);
    }
}

/// Builds per-cell-id hash chains at the data provider: one running
/// message per cell-id, each row absorbed with one `update`.
pub struct HashChainBuilder<'k> {
    key: &'k EpochKey,
    prefix: ChainPrefix,
    messages: Vec<Sha256>,
}

impl std::fmt::Debug for HashChainBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashChainBuilder")
            .field("cell_ids", &self.messages.len())
            .finish_non_exhaustive()
    }
}

impl<'k> HashChainBuilder<'k> {
    /// Start chains for `num_cell_ids` cell-ids.
    #[must_use]
    pub fn new(key: &'k EpochKey, num_cell_ids: usize) -> Self {
        let prefix = chain_prefix(key);
        HashChainBuilder {
            key,
            messages: vec![prefix.hasher.clone(); num_cell_ids],
            prefix,
        }
    }

    /// Absorb the next tuple of `cell_id` (tuples must be absorbed in
    /// counter order, which is the order Algorithm 1 encrypts them in).
    pub fn absorb(&mut self, cell_id: u32, row: &EncryptedRow) {
        self.absorb_columns(cell_id, row.columns());
    }

    /// [`Self::absorb`] for a row viewed in an arena.
    pub fn absorb_view(&mut self, cell_id: u32, row: RowRef<'_>) {
        self.absorb_columns(cell_id, row.columns());
    }

    fn absorb_columns<'r>(
        &mut self,
        cell_id: u32,
        columns: impl Iterator<Item = &'r [u8]> + Clone,
    ) {
        let buffer = &mut self.prefix.buffer;
        buffer.clear();
        encode_row(buffer, columns);
        self.messages[cell_id as usize].update(buffer);
    }

    /// Every cell-id's digest so far.
    #[cfg(test)]
    fn digests(&self) -> Vec<Digest> {
        self.messages.iter().map(|m| m.clone().finalize()).collect()
    }

    /// Encrypt the digest of every cell-id's message, producing the
    /// verifiable tags shipped to the service provider. A cell-id that
    /// received no tuples seals the prefix's own digest, so its absence of
    /// data is authenticated too.
    #[must_use]
    pub fn finalize<R: RngCore>(self, rng: &mut R) -> Vec<Vec<u8>> {
        let key = self.key;
        self.messages
            .into_iter()
            .map(|message| key.rand.encrypt(rng, &message.finalize()))
            .collect()
    }
}

/// The digest of one cell-id's message over `rows` (each a row's columns,
/// in counter order): the rows are laid out whole in the prefix's buffer
/// and absorbed with one `update`.
fn cell_digest<'r, C: Iterator<Item = &'r [u8]> + Clone>(
    prefix: &mut ChainPrefix,
    rows: impl Iterator<Item = C>,
) -> Digest {
    let buffer = &mut prefix.buffer;
    buffer.clear();
    for columns in rows {
        encode_row(buffer, columns);
    }
    let mut message = prefix.hasher.clone();
    message.update(buffer);
    message.finalize()
}

/// Rebuild one cell-id's message over `rows` and compare its digest with
/// the decrypted tag.
fn check_chain<'r, C: Iterator<Item = &'r [u8]> + Clone>(
    key: &EpochKey,
    prefix: &mut ChainPrefix,
    cell_id: u32,
    rows: impl Iterator<Item = C>,
    enc_tag: &[u8],
) -> Result<()> {
    let digest = cell_digest(prefix, rows);
    let expected = key
        .rand
        .decrypt(enc_tag)
        .map_err(|_| CoreError::IntegrityViolation { cell_id })?;
    if !concealer_crypto::ct_eq(&expected, &digest) {
        return Err(CoreError::IntegrityViolation { cell_id });
    }
    Ok(())
}

/// Verify the fetched tuples of one cell-id against its verifiable tag
/// (enclave side).
///
/// `rows` must contain exactly the real tuples of `cell_id`, in counter
/// order — which is how the engine fetches them, because trapdoors are
/// generated for counters `1..=c_tuple[cell_id]` in order.
pub fn verify_cell_chain(
    key: &EpochKey,
    cell_id: u32,
    rows: &[&EncryptedRow],
    enc_tag: &[u8],
) -> Result<()> {
    let rows = rows.iter().map(|row| row.columns());
    check_chain(key, &mut chain_prefix(key), cell_id, rows, enc_tag)
}

/// Verify everything one fetch returned (enclave side): `rows` is the
/// store's answer to the trapdoors `issued`, and `tags` the epoch's
/// verifiable tags by cell-id.
///
/// A legitimate store returns rows in trapdoor order with misses skipped,
/// so one forward walk assigns each row to the issued trapdoor its `Index`
/// column equals. Equality with a ciphertext the enclave itself just
/// produced identifies the row's `(cell_id, counter)` at least as firmly
/// as decrypting the column would: the SIV check accepts *any* valid
/// `E_k(·)`, equality accepts one. A row no remaining trapdoor claims —
/// foreign, duplicated, out of order, or answering no trapdoor at all —
/// fails the fetch with [`CoreError::IntegrityViolation`] (reported against
/// the fetch's first cell-id, `u32::MAX` for an all-fake fetch), because the
/// filter stage aggregates every returned row. Each cell-id the fetch
/// covers then has its claimed rows laid out in counter order and hashed as
/// one message against its tag; a missing tuple shows there.
///
/// Fake tuples are claimed but belong to no chain, so whatever the provider
/// stored under a fake's `Index` value reaches the enclave unchecked. The
/// returned mask says which rows a fake trapdoor claimed (`true` at their
/// positions in `rows`); the filter stage fails the fetch if one of them
/// would contribute to an answer.
pub fn verify_fetch(
    key: &EpochKey,
    issued: &LabelledTrapdoors,
    rows: &RowArena,
    tags: &[Vec<u8>],
) -> Result<Vec<bool>> {
    // (cell_id, counter, position in `rows`) of every claimed real tuple.
    let mut claimed: Vec<(u32, u32, usize)> = Vec::with_capacity(rows.len());
    let mut fake_claimed = vec![false; rows.len()];
    let mut unclaimed = issued.trapdoors.iter().zip(&issued.labels);
    for (pos, row) in rows.iter().enumerate() {
        let index_key = row.index_key();
        let Some((_, label)) = unclaimed.find(|(trapdoor, _)| trapdoor.as_slice() == index_key)
        else {
            let cell_id = issued.cell_ids.first().copied().unwrap_or(u32::MAX);
            return Err(CoreError::IntegrityViolation { cell_id });
        };
        match *label {
            Some((cell_id, counter)) => claimed.push((cell_id, counter, pos)),
            None => fake_claimed[pos] = true,
        }
    }
    claimed.sort_unstable();

    let mut prefix = chain_prefix(key);
    for &cell_id in &issued.cell_ids {
        let start = claimed.partition_point(|&(cid, _, _)| cid < cell_id);
        let len = claimed[start..].partition_point(|&(cid, _, _)| cid == cell_id);
        let cell_rows = claimed[start..start + len]
            .iter()
            .map(|&(_, _, pos)| rows.get(pos).expect("claimed position").columns());
        let tag = tags
            .get(cell_id as usize)
            .ok_or(CoreError::IntegrityViolation { cell_id })?;
        check_chain(key, &mut prefix, cell_id, cell_rows, tag)?;
    }
    Ok(fake_claimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::query::trapdoor::{
        generate_oblivious, generate_plain, FetchSpec, Trapdoor, TrapdoorLabel,
    };
    use concealer_crypto::{EpochId, MasterKey};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> EpochKey {
        MasterKey::from_bytes([9u8; 32]).epoch_key(EpochId(5), 0)
    }

    fn row(tag: u8) -> EncryptedRow {
        EncryptedRow {
            index_key: vec![tag; 9],
            filters: vec![vec![tag; 16], vec![tag ^ 0xff; 16]],
            payload: vec![tag; 40],
        }
    }

    #[test]
    fn roundtrip_verification() {
        let key = key();
        let mut rng = StdRng::seed_from_u64(1);
        let rows = vec![row(1), row(2), row(3)];

        let mut builder = HashChainBuilder::new(&key, 4);
        for r in &rows {
            builder.absorb(2, r);
        }
        let tags = builder.finalize(&mut rng);
        assert_eq!(tags.len(), 4);

        let refs: Vec<&EncryptedRow> = rows.iter().collect();
        assert!(verify_cell_chain(&key, 2, &refs, &tags[2]).is_ok());
        // Empty cell-ids verify against their empty-chain tags.
        assert!(verify_cell_chain(&key, 0, &[], &tags[0]).is_ok());
    }

    #[test]
    fn detects_modification() {
        let key = key();
        let mut rng = StdRng::seed_from_u64(2);
        let rows = vec![row(1), row(2)];
        let mut builder = HashChainBuilder::new(&key, 1);
        for r in &rows {
            builder.absorb(0, r);
        }
        let tags = builder.finalize(&mut rng);

        let mut tampered = rows.clone();
        tampered[1].payload[0] ^= 1;
        let refs: Vec<&EncryptedRow> = tampered.iter().collect();
        assert_eq!(
            verify_cell_chain(&key, 0, &refs, &tags[0]),
            Err(CoreError::IntegrityViolation { cell_id: 0 })
        );
    }

    #[test]
    fn detects_deletion_injection_and_reorder() {
        let key = key();
        let mut rng = StdRng::seed_from_u64(3);
        let rows = vec![row(1), row(2), row(3)];
        let mut builder = HashChainBuilder::new(&key, 1);
        for r in &rows {
            builder.absorb(0, r);
        }
        let tags = builder.finalize(&mut rng);

        // Deletion.
        let missing: Vec<&EncryptedRow> = rows.iter().take(2).collect();
        assert!(verify_cell_chain(&key, 0, &missing, &tags[0]).is_err());
        // Injection.
        let extra_row = row(9);
        let mut extra: Vec<&EncryptedRow> = rows.iter().collect();
        extra.push(&extra_row);
        assert!(verify_cell_chain(&key, 0, &extra, &tags[0]).is_err());
        // Reorder.
        let reordered: Vec<&EncryptedRow> = vec![&rows[1], &rows[0], &rows[2]];
        assert!(verify_cell_chain(&key, 0, &reordered, &tags[0]).is_err());
    }

    #[test]
    fn detects_forged_tag() {
        let key = key();
        let rows = [row(1)];
        let refs: Vec<&EncryptedRow> = rows.iter().collect();
        // A tag not produced under the epoch key fails decryption → error.
        assert!(verify_cell_chain(&key, 0, &refs, &[0u8; 64]).is_err());
    }

    /// One stored epoch as `verify_fetch` sees it: the rows of six
    /// cell-ids (cell 1 holds none) and six fakes by `Index` value, and the
    /// tags the data provider chained over them.
    struct SealedEpoch {
        key: EpochKey,
        rows: std::collections::HashMap<Vec<u8>, EncryptedRow>,
        tags: Vec<Vec<u8>>,
    }

    const CELL_COUNTS: [u32; 6] = [3, 0, 4, 2, 1, 3];

    impl SealedEpoch {
        fn new() -> Self {
            let key = key();
            let mut chain = HashChainBuilder::new(&key, CELL_COUNTS.len());
            let mut rows = std::collections::HashMap::new();
            let mut next = 0u8;
            let mut store = |index_plain: [u8; codec::INDEX_PLAIN_LEN], cell: Option<u32>| {
                next += 1;
                let row = EncryptedRow {
                    index_key: key.det.encrypt(&index_plain),
                    ..row(next)
                };
                if let Some(cell) = cell {
                    chain.absorb(cell, &row);
                }
                rows.insert(row.index_key.clone(), row);
            };
            for (cid, &count) in CELL_COUNTS.iter().enumerate() {
                for counter in 1..=count {
                    store(
                        codec::index_real_plain(cid as u32, counter),
                        Some(cid as u32),
                    );
                }
            }
            for fake in 0..6 {
                store(codec::index_fake_plain(fake), None);
            }
            let tags = chain.finalize(&mut StdRng::seed_from_u64(4));
            SealedEpoch { key, rows, tags }
        }

        /// What an honest store returns: hits in trapdoor order.
        fn answer(&self, issued: &LabelledTrapdoors) -> Vec<EncryptedRow> {
            let hit = |t: &Trapdoor| self.rows.get(t.as_slice()).cloned();
            issued.trapdoors.iter().filter_map(hit).collect()
        }

        fn row_of(&self, cid: u32, counter: u32) -> EncryptedRow {
            self.rows[&self.key.det.encrypt(&codec::index_real_plain(cid, counter))].clone()
        }

        fn verify(&self, issued: &LabelledTrapdoors, returned: Vec<EncryptedRow>) -> Result<()> {
            verify_fetch(&self.key, issued, &returned.into(), &self.tags).map(drop)
        }
    }

    /// {plain, oblivious} × {whole-bin, cell-group}: an honest answer
    /// verifies, and every way of tampering with the returned rows is an
    /// integrity violation.
    #[test]
    fn verify_fetch_accepts_the_honest_answer_and_nothing_else() {
        let epoch = SealedEpoch::new();
        let meter = concealer_enclave::SideChannelMeter::new();
        // A whole bin lists all its cell-ids, the empty one included, and
        // owns a slice of the fakes; a cell-group is some cell-ids padded
        // with fakes from zero.
        let whole_bin = FetchSpec {
            cells: vec![(0, 3), (1, 0), (2, 4)],
            fake_range: (2, 5),
        };
        let cell_group = FetchSpec {
            cells: vec![(5, 3), (3, 2)],
            fake_range: (0, 2),
        };
        for (shape, spec) in [("whole bin", &whole_bin), ("cell group", &cell_group)] {
            for oblivious in [false, true] {
                let issued = if oblivious {
                    generate_oblivious(&epoch.key, spec, 3, 4, 4, &meter)
                } else {
                    generate_plain(&epoch.key, spec, &meter)
                };
                let honest = epoch.answer(&issued);
                assert_eq!(honest.len(), issued.trapdoors.len(), "every trapdoor hits");
                // Every trapdoor hit, so row `i` answers trapdoor `i`.
                let of_cell = |cid: u32| -> Vec<usize> {
                    let at = |l: &TrapdoorLabel| matches!(l, Some((c, _)) if *c == cid);
                    (0..issued.labels.len())
                        .filter(|&i| at(&issued.labels[i]))
                        .collect()
                };
                let (a, b) = (spec.cells[0].0, spec.cells.last().unwrap().0);
                let (a1, a2) = (of_cell(a)[0], of_cell(a)[1]);
                let b1 = of_cell(b)[0];
                let fake = issued.labels.iter().position(Option::is_none).unwrap();

                type Tamper<'a> = Box<dyn Fn(&mut Vec<EncryptedRow>) + 'a>;
                let cases: Vec<(&str, Tamper)> = vec![
                    ("one row modified", Box::new(|r| r[a1].payload[0] ^= 1)),
                    (
                        "a filter modified",
                        Box::new(|r| r[b1].filters[1][3] ^= 0x80),
                    ),
                    ("one row dropped", Box::new(|r| drop(r.remove(a2)))),
                    (
                        "one row duplicated",
                        Box::new(|r| r.insert(a1, r[a1].clone())),
                    ),
                    ("two rows swapped", Box::new(|r| r.swap(a1, a2))),
                    (
                        "two rows exchanged between cells",
                        Box::new(|r| r.swap(a1, b1)),
                    ),
                    (
                        "a fake returned in a real slot",
                        Box::new(|r| {
                            r[a2] = r[fake].clone();
                            r.remove(fake);
                        }),
                    ),
                    (
                        "an authentic foreign-cell row appended after the fakes",
                        Box::new(|r| r.push(epoch.row_of(4, 1))),
                    ),
                    (
                        "an authentic row of a fetched cell, counter past its count",
                        Box::new(|r| {
                            let mut extra = epoch.row_of(4, 1);
                            extra.index_key = epoch
                                .key
                                .det
                                .encrypt(&codec::index_real_plain(a, CELL_COUNTS[a as usize] + 1));
                            r.push(extra);
                        }),
                    ),
                    (
                        "a row that matches no trapdoor",
                        Box::new(|r| {
                            let index_key = vec![0xEE; r[0].index_key.len()];
                            r.insert(
                                1,
                                EncryptedRow {
                                    index_key,
                                    ..row(0xEE)
                                },
                            );
                        }),
                    ),
                ];
                assert_eq!(epoch.verify(&issued, honest.clone()), Ok(()), "{shape}");
                for (what, tamper) in cases {
                    let mut returned = honest.clone();
                    tamper(&mut returned);
                    assert!(
                        matches!(
                            epoch.verify(&issued, returned),
                            Err(CoreError::IntegrityViolation { .. })
                        ),
                        "{shape}, oblivious {oblivious}: {what}"
                    );
                }
            }
        }
    }

    /// The store skips misses; a missed fake is not a violation (no chain
    /// covers fakes), a tag that is not the cell's is.
    #[test]
    fn verify_fetch_tolerates_missing_fakes_but_not_foreign_tags() {
        let epoch = SealedEpoch::new();
        let meter = concealer_enclave::SideChannelMeter::new();
        let spec = FetchSpec {
            cells: vec![(3, 2), (1, 0)],
            fake_range: (4, 9),
        };
        let issued = generate_plain(&epoch.key, &spec, &meter);
        let returned = epoch.answer(&issued);
        assert_eq!(returned.len(), 2 + 2, "fakes 6..9 were never shipped");
        assert_eq!(epoch.verify(&issued, returned.clone()), Ok(()));

        let mut swapped = SealedEpoch::new();
        swapped.tags.swap(1, 2);
        assert_eq!(
            swapped.verify(&issued, returned.clone()),
            Err(CoreError::IntegrityViolation { cell_id: 1 }),
            "an empty cell-id answers to its own empty-chain tag"
        );
        swapped.tags.truncate(3);
        assert_eq!(
            swapped.verify(&issued, returned),
            Err(CoreError::IntegrityViolation { cell_id: 3 }),
            "a cell-id without a tag cannot verify"
        );
    }

    /// Chain v3, spelled out over two rows — one with a 300-byte column
    /// (a two-byte length) and an empty one — and over none: provider and
    /// enclave share the encoding, so only a test against the layout itself
    /// notices it moving.
    #[test]
    fn chain_message_layout_is_pinned() {
        let key = key();
        let long = EncryptedRow {
            index_key: vec![1; 25],
            filters: vec![vec![2; 300], vec![]],
            payload: vec![3; 128],
        };
        let short = row(7);
        let mut message = b"concealer/hash-chain/v3".to_vec();
        message.extend_from_slice(&key.hash_chain_key);
        message.extend_from_slice(&[0; 9]);
        assert_eq!(message.len(), 64, "the prefix is one SHA-256 block");
        let prefix_digest = concealer_crypto::sha256::sha256(&message);
        message.push(4);
        for (len, column) in [
            (&[25][..], &long.index_key),
            (&[0xAC, 0x02], &long.filters[0]),
            (&[0], &long.filters[1]),
            (&[0x80, 0x01], &long.payload),
        ] {
            message.extend_from_slice(len);
            message.extend_from_slice(column);
        }
        message.push(4);
        for (len, column) in [
            (9, &short.index_key),
            (16, &short.filters[0]),
            (16, &short.filters[1]),
            (40, &short.payload),
        ] {
            message.push(len);
            message.extend_from_slice(column);
        }
        let want = concealer_crypto::sha256::sha256(&message);

        // Owned rows and views hash alike, and an empty cell-id seals the
        // prefix's own digest. The rows differ in shape, so each is viewed
        // in an arena of its own.
        let arenas = [&long, &short].map(|row| RowArena::from(vec![row.clone()]));
        let mut owned = HashChainBuilder::new(&key, 2);
        let mut viewed = HashChainBuilder::new(&key, 2);
        owned.absorb(0, &long);
        owned.absorb(0, &short);
        viewed.absorb_view(0, arenas[0].get(0).unwrap());
        viewed.absorb_view(0, arenas[1].get(0).unwrap());
        assert_eq!(owned.digests(), [want, prefix_digest]);
        assert_eq!(viewed.digests(), owned.digests());
        let rows = [&long, &short].map(EncryptedRow::columns);
        assert_eq!(cell_digest(&mut chain_prefix(&key), rows.into_iter()), want);
    }

    /// The digest a two-row chain seals, as bytes, whichever SHA-256 path
    /// computed it.
    #[test]
    fn two_row_chain_digest_golden_bytes() {
        let key = key();
        let mut chain = HashChainBuilder::new(&key, 1);
        chain.absorb(0, &row(1));
        chain.absorb(0, &row(2));
        let hex: String = chain.digests()[0]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "dff60c3b2a1ad2849615c28de692f79174c5c058882ced83ba858328d56061ac"
        );
    }

    /// `SHA-256(prefix ‖ rows)` with the message written out by hand: what
    /// the provider's and the enclave's routines must both compute.
    fn one_shot(key: &EpochKey, rows: &[Vec<Vec<u8>>]) -> Digest {
        let mut message = [CHAIN_DOMAIN, &key.hash_chain_key[..]].concat();
        message.resize(64, 0);
        let leb128 = |mut n: usize, out: &mut Vec<u8>| loop {
            let byte = (n % 128) as u8;
            n /= 128;
            if n == 0 {
                break out.push(byte);
            }
            out.push(byte + 128);
        };
        for columns in rows {
            leb128(columns.len(), &mut message);
            for column in columns {
                leb128(column.len(), &mut message);
                message.extend_from_slice(column);
            }
        }
        concealer_crypto::sha256::sha256(&message)
    }

    /// Columns of a row as drawn: per column a size class and a number —
    /// under 8 bytes (empty included), 120–159 bytes (either side of the
    /// two-byte length), or up to 3000 (rows twenty times a WiFi row).
    fn columns_of(shape: &[(u8, u16)], fill: u8) -> Vec<Vec<u8>> {
        let len = |(class, n): (u8, u16)| match class {
            0 => usize::from(n) % 8,
            1 => 120 + usize::from(n) % 40,
            _ => usize::from(n) % 3000,
        };
        let byte = |c: usize, i: usize| fill.wrapping_add((31 * c + 7 * i) as u8);
        let column = |(c, &s): (usize, &(u8, u16))| (0..len(s)).map(|i| byte(c, i)).collect();
        shape.iter().enumerate().map(column).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// For rows of 2–8 columns of every size class, cell `k` holding
        /// the first `k` of them: the builder, absorbing row by row with
        /// the cells interleaved, the enclave, laying each cell out whole
        /// through one reused buffer, and the hand-written message agree.
        #[test]
        fn builder_enclave_and_one_shot_messages_agree(
            shapes in proptest::collection::vec(
                proptest::collection::vec((0u8..3, any::<u16>()), 2..9), 0..5),
            fill in any::<u8>(),
        ) {
            let key = key();
            let rows: Vec<Vec<Vec<u8>>> = shapes
                .iter()
                .enumerate()
                .map(|(j, shape)| columns_of(shape, fill.wrapping_add(j as u8)))
                .collect();
            let views = |k: usize| rows[..k].iter().map(|row| row.iter().map(Vec::as_slice));
            let mut builder = HashChainBuilder::new(&key, rows.len() + 1);
            for (j, row) in rows.iter().enumerate() {
                for cell in j + 1..=rows.len() {
                    builder.absorb_columns(cell as u32, row.iter().map(Vec::as_slice));
                }
            }
            let built = builder.digests();
            let mut prefix = chain_prefix(&key);
            for k in (0..=rows.len()).rev().chain(0..=rows.len()) {
                let want = one_shot(&key, &rows[..k]);
                prop_assert_eq!(built[k], want);
                prop_assert_eq!(cell_digest(&mut prefix, views(k)), want);
            }
        }
    }

    /// The encoding is injective where a bare concatenation of length-
    /// prefixed columns is not: the same columns cut into rows differently,
    /// or one column cut in two, hash differently.
    #[test]
    fn moving_a_column_across_rows_or_splitting_one_changes_the_digest() {
        let key = key();
        let digest = |rows: &[EncryptedRow]| {
            let mut chain = HashChainBuilder::new(&key, 1);
            for row in rows {
                chain.absorb(0, row);
            }
            chain.digests()[0]
        };
        let (a, b) = (row(1), row(2));
        let honest = digest(&[a.clone(), b.clone()]);
        // `a`'s payload becomes the first column of `b`.
        let moved = [
            EncryptedRow {
                index_key: a.index_key.clone(),
                filters: vec![a.filters[0].clone()],
                payload: a.filters[1].clone(),
            },
            EncryptedRow {
                index_key: a.payload.clone(),
                filters: [vec![b.index_key.clone()], b.filters.clone()].concat(),
                payload: b.payload.clone(),
            },
        ];
        assert_ne!(digest(&moved), honest);
        // `a`'s payload cut into two columns.
        let (front, back) = a.payload.split_at(17);
        let split = EncryptedRow {
            filters: [a.filters.clone(), vec![front.to_vec()]].concat(),
            payload: back.to_vec(),
            ..a.clone()
        };
        assert_ne!(digest(&[split, b.clone()]), honest);
    }

    #[test]
    fn chains_are_key_dependent() {
        let digest = |key: &EpochKey| {
            let mut chain = HashChainBuilder::new(key, 1);
            chain.absorb(0, &row(1));
            chain.digests()[0]
        };
        let other = MasterKey::from_bytes([8u8; 32]).epoch_key(EpochId(5), 0);
        assert_ne!(digest(&key()), digest(&other));
    }
}
