//! Segment files: one file per epoch, written whole and fsynced once.
//!
//! Layout (`serde::bin` values back to back between a magic and a
//! fixed-width footer):
//!
//! ```text
//! "CSG2"                                  4-byte magic
//! header   { epoch_id, rewrite_count, row_count }
//! metadata { enc_cell_id, enc_c_tuple, enc_tags, advertised_rows }
//! rows     the epoch's RowArena: its buffer as one byte string, then
//!          every column's length and every row's column count
//! footer   row_count: u64 LE · FNV-1a64 over every preceding byte: u64 LE
//! ```
//!
//! The footer is the commit record *within* the file: a segment is complete
//! iff its last 16 bytes are a footer whose checksum covers the full
//! preceding byte range, that range parses with nothing left over, and the
//! row counts of header, footer and rows agree. Anything else — a file cut
//! short by a crash or an external truncation, a checksum mismatch, tables
//! that do not describe the row bytes — classifies the segment as *torn*:
//! recovery drops the epoch whole. A file that starts with the magic of a
//! format this build no longer reads is neither: it is reported as
//! [`DecodeOutcome::Unsupported`] and left exactly as it is.
//!
//! The checksum is a crash/corruption detector, not a security boundary:
//! disk contents are adversary-visible and adversary-writable in
//! Concealer's threat model, and deliberate tampering is caught by the
//! enclave's hash-chain verification at fetch time, exactly as for the
//! in-memory store. What the loader owes an adversary-written file is not
//! to panic on it, which is why the rows come back through `RowArena`'s
//! validating `Deserialize` and nothing else.

use super::manifest::refused_magic;
use crate::epoch_store::{EpochMetadata, StoredEpoch};
use crate::table::{EncryptedTable, RowArena};
use serde::bin::BinDeserializer;
use serde::{Deserialize, Serialize};

/// Magic prefix of every segment file.
pub(crate) const MAGIC: [u8; 4] = *b"CSG2";

/// Magics of the formats before this one. They are refused, not read and
/// not recovered from; each format bump adds its predecessor here.
const REFUSED_MAGICS: [&str; 1] = ["CSG1"];

/// Bytes of the footer: row count and checksum, both `u64` little-endian.
const FOOTER_LEN: usize = 16;

/// First value of a segment: identity and totals, written before any row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SegmentHeader {
    epoch_id: u64,
    rewrite_count: u64,
    row_count: u64,
}

/// FNV-1a 64-bit over `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serialize one epoch into the segment format, footer included.
pub(crate) fn encode(epoch_id: u64, epoch: &StoredEpoch) -> Vec<u8> {
    let row_count = epoch.table.len() as u64;
    let header = SegmentHeader {
        epoch_id,
        rewrite_count: epoch.rewrite_count,
        row_count,
    };
    let mut buf = MAGIC.to_vec();
    buf.extend_from_slice(&serde::bin::to_bytes(&header));
    buf.extend_from_slice(&serde::bin::to_bytes(&epoch.metadata));
    // The arena as it is, rows in row-id order: reloading assigns
    // identical row ids, so the adversary trace (`RowFetched { row_id,
    // .. }`) is bit-identical across a restart.
    buf.extend_from_slice(&serde::bin::to_bytes(epoch.table.rows()));
    seal(buf, row_count)
}

/// Append the footer to everything before it: `row_count`, then the
/// checksum of `body`.
fn seal(mut body: Vec<u8>, row_count: u64) -> Vec<u8> {
    let checksum = fnv1a(&body);
    body.extend_from_slice(&row_count.to_le_bytes());
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// The result of parsing a segment file.
// One value per decoded file, matched and moved out of at once: boxing
// the epoch would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum DecodeOutcome {
    /// A complete, checksummed segment.
    Complete {
        /// Epoch id recorded in the segment header.
        epoch_id: u64,
        /// The reconstructed epoch (index rebuilt over the loaded rows).
        epoch: StoredEpoch,
    },
    /// A torn segment: a crash, an external truncation or rot left it
    /// without a footer that vouches for the bytes before it. Nothing in
    /// it is servable.
    Torn,
    /// The file carries the magic of a format this build refuses.
    Unsupported {
        /// The magic found.
        found: &'static str,
    },
}

/// Parse a segment file's bytes. Never fails and never panics, whatever
/// the bytes: structurally damaged input classifies as
/// [`DecodeOutcome::Torn`].
pub(crate) fn decode(bytes: &[u8]) -> DecodeOutcome {
    if let Some(found) = refused_magic(bytes, &REFUSED_MAGICS) {
        return DecodeOutcome::Unsupported { found };
    }
    match parse(bytes) {
        Some((epoch_id, epoch)) => DecodeOutcome::Complete { epoch_id, epoch },
        None => DecodeOutcome::Torn,
    }
}

/// A complete segment's epoch id and epoch, or `None`.
fn parse(bytes: &[u8]) -> Option<(u64, StoredEpoch)> {
    let (body, footer) = bytes.split_at(bytes.len().checked_sub(FOOTER_LEN)?);
    let (row_count, checksum) = footer.split_at(8);
    let row_count = u64::from_le_bytes(row_count.try_into().ok()?);
    if fnv1a(body) != u64::from_le_bytes(checksum.try_into().ok()?) {
        return None;
    }
    let mut cursor = BinDeserializer::new(body.strip_prefix(&MAGIC)?);
    let header = SegmentHeader::deserialize(&mut cursor).ok()?;
    let metadata = EpochMetadata::deserialize(&mut cursor).ok()?;
    let rows = RowArena::deserialize(&mut cursor).ok()?;
    let loaded = rows.len() as u64;
    if cursor.remaining() != 0 || header.row_count != loaded || row_count != loaded {
        return None;
    }
    let epoch = StoredEpoch {
        table: EncryptedTable::bulk_load(rows).ok()?,
        metadata,
        rewrite_count: header.rewrite_count,
    };
    Some((header.epoch_id, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::{any_rows, row_of};
    use crate::table::EncryptedRow;
    use proptest::prelude::*;

    fn sample(rows: u64, rewrites: u64) -> StoredEpoch {
        let rows: Vec<EncryptedRow> = (0..rows)
            .map(|i| EncryptedRow {
                index_key: i.to_be_bytes().to_vec(),
                filters: vec![vec![i as u8; 4], vec![!i as u8; 4]],
                payload: vec![(i % 251) as u8; 24],
            })
            .collect();
        StoredEpoch {
            table: EncryptedTable::bulk_load(rows).unwrap(),
            metadata: EpochMetadata {
                enc_cell_id: vec![1, 2],
                enc_c_tuple: vec![3],
                enc_tags: vec![vec![4, 5], vec![]],
                advertised_rows: 9,
            },
            rewrite_count: rewrites,
        }
    }

    fn assert_complete(bytes: &[u8], want_epoch: u64, want: &StoredEpoch) {
        match decode(bytes) {
            DecodeOutcome::Complete { epoch_id, epoch } => {
                assert_eq!(epoch_id, want_epoch);
                assert_eq!(epoch.rewrite_count, want.rewrite_count);
                assert_eq!(epoch.metadata, want.metadata);
                assert_eq!(epoch.table.rows(), want.table.rows());
                for (id, row) in want.table.scan() {
                    assert_eq!(epoch.table.row(id).unwrap(), row);
                    assert_eq!(epoch.table.lookup(row.index_key()), Some((id, row)));
                }
            }
            other => panic!("expected a complete segment, got {other:?}"),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let epoch = sample(17, 3);
        let bytes = encode(42, &epoch);
        assert_complete(&bytes, 42, &epoch);
    }

    /// Rows of unlike shapes in one table: no columns' worth of bytes, no
    /// filters, empty filters, bytes with the high bit set.
    fn mixed_shapes() -> StoredEpoch {
        let rows = vec![
            EncryptedRow {
                index_key: vec![],
                filters: vec![],
                payload: vec![],
            },
            EncryptedRow {
                index_key: vec![0x80, 0xff, 1],
                filters: vec![vec![], vec![200; 3], vec![7]],
                payload: vec![0xfe; 130],
            },
            EncryptedRow {
                index_key: vec![9],
                filters: vec![vec![1, 2]],
                payload: vec![],
            },
        ];
        StoredEpoch {
            table: EncryptedTable::bulk_load(rows).unwrap(),
            metadata: EpochMetadata::default(),
            rewrite_count: 0,
        }
    }

    /// Segment format 2, pinned once when PR 24 made the rows section the
    /// arena: a format change must be a decision (a new magic, the old one
    /// added to `REFUSED_MAGICS`), never a side effect.
    #[test]
    fn encoding_is_pinned() {
        let bytes = encode(42, &sample(17, 3));
        assert_eq!((bytes.len(), fnv1a(&bytes)), (803, 0x5c68_f75f_0c2d_398b));
        let bytes = encode(7, &mixed_shapes());
        assert_eq!((bytes.len(), fnv1a(&bytes)), (185, 0x8b11_4fb1_6570_91bc));
    }

    #[test]
    fn mixed_row_shapes_round_trip() {
        let epoch = mixed_shapes();
        let bytes = encode(7, &epoch);
        assert_complete(&bytes, 7, &epoch);
        // A torn tail inside the odd-shaped rows is still a torn tail.
        for cut in [bytes.len() - 1, bytes.len() - 20, bytes.len() / 2] {
            assert!(matches!(decode(&bytes[..cut]), DecodeOutcome::Torn));
        }
    }

    #[test]
    fn trailing_bytes_after_the_rows_or_the_footer_are_torn() {
        let epoch = sample(2, 0);
        let bytes = encode(1, &epoch);
        let body = &bytes[..bytes.len() - FOOTER_LEN];
        assert_complete(&seal(body.to_vec(), 2), 1, &epoch);
        // One byte between the rows section and a footer that vouches
        // for it.
        let mut padded = body.to_vec();
        padded.push(0);
        assert!(matches!(decode(&seal(padded, 2)), DecodeOutcome::Torn));
        // One byte after the footer: the last 16 bytes are not a footer.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(decode(&long), DecodeOutcome::Torn));
    }

    #[test]
    fn empty_epoch_round_trips() {
        let epoch = sample(0, 0);
        let bytes = encode(7, &epoch);
        assert_complete(&bytes, 7, &epoch);
    }

    #[test]
    fn truncation_anywhere_is_torn_with_frame_aligned_prefix() {
        // The id is from format 1, whose recovery kept a frame-aligned
        // prefix; a cut segment is now dropped whole, so torn is all
        // there is to report.
        let bytes = encode(5, &sample(9, 0));
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..cut]), DecodeOutcome::Torn),
                "truncated segment ({cut}/{} bytes) did not decode as torn",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let epoch = sample(6, 1);
        let mut bytes = encode(3, &epoch);
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(decode(&bytes), DecodeOutcome::Torn),
                "flipping bit {bit} must not leave a complete segment"
            );
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert_complete(&bytes, 3, &epoch);
    }

    #[test]
    fn garbage_and_wrong_magic_are_torn_at_zero() {
        assert!(matches!(
            decode(b"NOPE-not-a-segment-of-any-format"),
            DecodeOutcome::Torn
        ));
        assert!(matches!(decode(b""), DecodeOutcome::Torn));
        // A known older format is not damage: it is named, so the store
        // can refuse it instead of recovering from it.
        for old in [&b"CSG1"[..], b"CSG1 and a format-1 segment after it"] {
            assert!(matches!(
                decode(old),
                DecodeOutcome::Unsupported { found: "CSG1" }
            ));
        }
    }

    /// The disk is adversary-writable and FNV is not a MAC: tables that do
    /// not describe the row bytes arrive with a footer that vouches for
    /// them. Each must be torn — not complete, not a panic.
    #[test]
    fn a_bad_arena_under_a_good_footer_is_torn() {
        use serde::bin::to_bytes;
        let segment = |rows_section: Vec<u8>, row_count: u64| {
            let header = SegmentHeader {
                epoch_id: 1,
                rewrite_count: 0,
                row_count,
            };
            let mut body = MAGIC.to_vec();
            body.extend_from_slice(&to_bytes(&header));
            body.extend_from_slice(&to_bytes(&EpochMetadata::default()));
            body.extend_from_slice(&rows_section);
            seal(body, row_count)
        };
        let arena = |column_lens: &[u32], row_cols: &[u32]| {
            let mut section = to_bytes(&b"abcd".to_vec());
            section.extend_from_slice(&to_bytes(&column_lens.to_vec()));
            section.extend_from_slice(&to_bytes(&row_cols.to_vec()));
            segment(section, row_cols.len() as u64)
        };
        // The builder builds what the decoder reads.
        assert!(matches!(
            decode(&arena(&[1, 0, 3, 0, 0], &[3, 2])),
            DecodeOutcome::Complete { epoch_id: 1, epoch } if epoch.table.len() == 2
        ));
        let huge_len = to_bytes(&(1u64 << 40));
        let bad: [(&str, Vec<u8>); 10] = [
            ("columns end before the bytes do", arena(&[1, 1, 1], &[3])),
            ("columns run past the bytes", arena(&[1, 1, 3], &[3])),
            (
                "column lengths wrap around to the right total",
                arena(&[u32::MAX, 5], &[2]),
            ),
            ("a row of one column", arena(&[1, 1, 2], &[1, 2])),
            ("a row of no columns", arena(&[2, 2], &[2, 0])),
            ("rows end before the columns do", arena(&[1, 1, 1, 1], &[2])),
            ("rows run past the columns", arena(&[2, 2], &[2, 2])),
            (
                "row widths wrap around to the right total",
                arena(&[1, 1, 1, 1], &[u32::MAX, 5]),
            ),
            (
                "row bytes longer than the file",
                segment([&huge_len[..], b"abcd"].concat(), 0),
            ),
            (
                "a column table longer than the file",
                segment([&to_bytes(&b"abcd".to_vec())[..], &huge_len].concat(), 0),
            ),
        ];
        for (what, bytes) in bad {
            assert!(matches!(decode(&bytes), DecodeOutcome::Torn), "{what}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `decode(encode(e)) ≡ e` — metadata, rows, row ids and index —
        /// for tables of every shape `table.rs` draws, and the file is
        /// the ciphertext plus one byte per column, one per row and a
        /// few of framing: a per-byte encoding cannot come back
        /// unnoticed.
        #[test]
        fn prop_decode_of_encode_is_the_epoch(rows in any_rows(), epoch_id in any::<u64>()) {
            let rows: Vec<EncryptedRow> = rows
                .into_iter()
                .enumerate()
                .map(|(i, columns)| {
                    let mut row = row_of(columns);
                    row.index_key.splice(0..0, [i as u8]);
                    row
                })
                .collect();
            let first = rows.first().cloned();
            let epoch = StoredEpoch {
                table: EncryptedTable::bulk_load(rows).unwrap(),
                metadata: first.map_or_else(EpochMetadata::default, |row| EpochMetadata {
                    enc_cell_id: row.payload,
                    enc_c_tuple: row.index_key,
                    advertised_rows: row.filters.len(),
                    enc_tags: row.filters,
                }),
                rewrite_count: epoch_id % 3,
            };
            let bytes = encode(epoch_id, &epoch);
            assert_complete(&bytes, epoch_id, &epoch);

            let arena = epoch.table.rows();
            let cols: usize = arena.iter().map(|row| row.filter_count() + 2).sum();
            let varint = |n: u64| serde::bin::to_bytes(&n).len();
            let header = varint(epoch_id) + varint(epoch.rewrite_count) + varint(arena.len() as u64);
            let tables = varint(arena.byte_size() as u64)
                + varint(cols as u64) + cols
                + varint(arena.len() as u64) + arena.len();
            prop_assert_eq!(
                bytes.len(),
                arena.byte_size() + tables + serde::bin::to_bytes(&epoch.metadata).len()
                    + MAGIC.len() + header + FOOTER_LEN
            );
        }

        /// Whatever the bytes — with and without a footer that vouches
        /// for them — the decoder classifies and returns.
        #[test]
        fn prop_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = decode(&bytes);
            let _ = decode(&seal([&MAGIC[..], &bytes].concat(), 0));
        }
    }
}
