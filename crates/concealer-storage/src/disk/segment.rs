//! Segment files: one append-only file per epoch.
//!
//! Layout (all multi-byte integers LEB128 via the workspace `serde::bin`
//! format; the frame envelope uses the same varint encoding):
//!
//! ```text
//! "CSG1"                                  4-byte magic
//! frame*                                  header, metadata, then one
//!                                         frame per encrypted row
//! footer frame                            row count + FNV-1a64 checksum
//!                                         over every preceding byte
//!
//! frame := tag:u8  len:varint  payload:[u8; len]
//! ```
//!
//! The footer is the commit record *within* the file: a segment is complete
//! iff it ends with a footer whose checksum covers the full preceding byte
//! range and whose row count matches the rows decoded. Anything else — a
//! missing footer, a frame cut short by a crash or an external truncation,
//! a checksum mismatch — classifies the segment as *torn*, and
//! [`DecodeOutcome::Torn`] reports the byte offset of the last intact frame
//! boundary so recovery can truncate the tail.
//!
//! The checksum is a crash/corruption detector, not a security boundary:
//! disk contents are adversary-visible and adversary-writable in
//! Concealer's threat model, and deliberate tampering is caught by the
//! enclave's hash-chain verification at fetch time, exactly as for the
//! in-memory store.

use crate::epoch_store::{EpochMetadata, StoredEpoch};
use crate::table::{EncryptedTable, RowArena};
use serde::bin::BinDeserializer;
use serde::{Deserialize, Serialize};

/// Magic prefix of every segment file.
pub(crate) const MAGIC: [u8; 4] = *b"CSG1";

const TAG_HEADER: u8 = 0x01;
const TAG_METADATA: u8 = 0x02;
const TAG_ROW: u8 = 0x03;
const TAG_FOOTER: u8 = 0x7F;

/// First frame of a segment: identity and totals, written before any row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SegmentHeader {
    epoch_id: u64,
    rewrite_count: u64,
    row_count: u64,
}

/// Last frame of a segment: the in-file commit record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SegmentFooter {
    row_count: u64,
    checksum: u64,
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

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint at `*pos`, advancing it. `None` on truncated or
/// over-long input.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut out = 0u64;
    for shift in 0..10 {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        if shift == 9 && byte > 0x01 {
            return None; // would overflow u64
        }
        out |= u64::from(byte & 0x7f) << (shift * 7);
        if byte & 0x80 == 0 {
            return Some(out);
        }
    }
    None
}

fn push_frame(buf: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    buf.push(tag);
    push_varint(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
}

/// Serialize one epoch into the segment wire format, footer included.
pub(crate) fn encode(epoch_id: u64, epoch: &StoredEpoch) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    let header = SegmentHeader {
        epoch_id,
        rewrite_count: epoch.rewrite_count,
        row_count: epoch.table.len() as u64,
    };
    push_frame(&mut buf, TAG_HEADER, &serde::bin::to_bytes(&header));
    push_frame(
        &mut buf,
        TAG_METADATA,
        &serde::bin::to_bytes(&epoch.metadata),
    );
    // Rows in row-id order: reloading assigns identical row ids, so the
    // adversary trace (`RowFetched { row_id, .. }`) is bit-identical across
    // a restart.
    for (_, row) in epoch.table.scan() {
        push_frame(&mut buf, TAG_ROW, &serde::bin::to_bytes(&row));
    }
    let footer = SegmentFooter {
        row_count: epoch.table.len() as u64,
        checksum: fnv1a(&buf),
    };
    push_frame(&mut buf, TAG_FOOTER, &serde::bin::to_bytes(&footer));
    buf
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
        /// The reconstructed epoch (index rebuilt from the row stream).
        epoch: StoredEpoch,
    },
    /// A torn segment: a crash (or external truncation) cut it short of a
    /// valid footer. Bytes up to `valid_len` form intact frames; everything
    /// after is the torn tail recovery truncates.
    Torn {
        /// Byte offset of the last intact frame boundary.
        valid_len: u64,
    },
}

/// Parse a segment file's bytes. Never fails: structurally damaged input
/// classifies as [`DecodeOutcome::Torn`] with the longest intact prefix.
pub(crate) fn decode(bytes: &[u8]) -> DecodeOutcome {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return DecodeOutcome::Torn { valid_len: 0 };
    }
    let mut pos = MAGIC.len();
    let mut header: Option<SegmentHeader> = None;
    let mut metadata: Option<EpochMetadata> = None;
    let mut rows = RowArena::new();
    loop {
        let frame_start = pos;
        let torn = DecodeOutcome::Torn {
            valid_len: frame_start as u64,
        };
        if pos >= bytes.len() {
            // Clean frame boundary but no footer seen: torn exactly here.
            return torn;
        }
        let tag = bytes[pos];
        pos += 1;
        let Some(len) = read_varint(bytes, &mut pos) else {
            return torn;
        };
        let Ok(len) = usize::try_from(len) else {
            return torn;
        };
        if bytes.len() - pos < len {
            return torn;
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        match tag {
            TAG_HEADER if header.is_none() && metadata.is_none() && rows.is_empty() => {
                match serde::bin::from_bytes::<SegmentHeader>(payload) {
                    Ok(h) => header = Some(h),
                    Err(_) => return torn,
                }
            }
            TAG_METADATA if header.is_some() && metadata.is_none() && rows.is_empty() => {
                match serde::bin::from_bytes::<EpochMetadata>(payload) {
                    Ok(m) => metadata = Some(m),
                    Err(_) => return torn,
                }
            }
            TAG_ROW if metadata.is_some() => {
                // Straight into the arena: no owned row in between.
                let mut frame = BinDeserializer::new(payload);
                if rows.push_deserialized(&mut frame).is_err() || frame.remaining() != 0 {
                    return torn;
                }
            }
            TAG_FOOTER => {
                let Ok(footer) = serde::bin::from_bytes::<SegmentFooter>(payload) else {
                    return torn;
                };
                let (Some(header), Some(metadata)) = (header, metadata) else {
                    return torn;
                };
                if footer.checksum != fnv1a(&bytes[..frame_start])
                    || footer.row_count != rows.len() as u64
                    || header.row_count != rows.len() as u64
                {
                    return torn;
                }
                let Ok(table) = EncryptedTable::bulk_load(rows) else {
                    return torn;
                };
                return DecodeOutcome::Complete {
                    epoch_id: header.epoch_id,
                    epoch: StoredEpoch {
                        table,
                        metadata,
                        rewrite_count: header.rewrite_count,
                    },
                };
            }
            _ => return torn, // unknown tag or out-of-order frame
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::EncryptedRow;

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
                assert_eq!(epoch.table.len(), want.table.len());
                for (id, row) in want.table.scan() {
                    assert_eq!(epoch.table.row(id).unwrap(), row);
                }
            }
            DecodeOutcome::Torn { valid_len } => {
                panic!("expected a complete segment, got torn at {valid_len}")
            }
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let epoch = sample(17, 3);
        let bytes = encode(42, &epoch);
        assert_complete(&bytes, 42, &epoch);
    }

    /// Rows of unlike shapes in one table: no columns' worth of bytes, no
    /// filters, empty filters, bytes whose varint takes two bytes.
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

    /// The segment format did not move with the row layout: these are the
    /// lengths and checksums the encoder produced for the same epochs when
    /// tables held owned rows.
    #[test]
    fn encoding_is_pinned() {
        let bytes = encode(42, &sample(17, 3));
        assert_eq!((bytes.len(), fnv1a(&bytes)), (902, 0xc6d3_6897_6a5d_54a7));
        let bytes = encode(7, &mixed_shapes());
        assert_eq!((bytes.len(), fnv1a(&bytes)), (324, 0x4d5f_6f48_c937_4c6a));
    }

    #[test]
    fn mixed_row_shapes_round_trip() {
        let epoch = mixed_shapes();
        let bytes = encode(7, &epoch);
        assert_complete(&bytes, 7, &epoch);
        // A torn tail inside the odd-shaped rows is still a torn tail.
        for cut in [bytes.len() - 1, bytes.len() - 20, bytes.len() / 2] {
            assert!(matches!(
                decode(&bytes[..cut]),
                DecodeOutcome::Torn { valid_len } if valid_len as usize <= cut
            ));
        }
    }

    #[test]
    fn trailing_bytes_in_a_row_frame_are_torn() {
        let epoch = sample(2, 0);
        let mut bytes = Vec::from(MAGIC);
        let header = SegmentHeader {
            epoch_id: 1,
            rewrite_count: 0,
            row_count: 1,
        };
        push_frame(&mut bytes, TAG_HEADER, &serde::bin::to_bytes(&header));
        push_frame(
            &mut bytes,
            TAG_METADATA,
            &serde::bin::to_bytes(&epoch.metadata),
        );
        let row_start = bytes.len();
        let mut row = serde::bin::to_bytes(&epoch.table.row(0).unwrap());
        row.push(0);
        push_frame(&mut bytes, TAG_ROW, &row);
        assert!(matches!(
            decode(&bytes),
            DecodeOutcome::Torn { valid_len } if valid_len as usize == row_start
        ));
    }

    #[test]
    fn empty_epoch_round_trips() {
        let epoch = sample(0, 0);
        let bytes = encode(7, &epoch);
        assert_complete(&bytes, 7, &epoch);
    }

    #[test]
    fn truncation_anywhere_is_torn_with_frame_aligned_prefix() {
        let epoch = sample(9, 0);
        let bytes = encode(5, &epoch);
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                DecodeOutcome::Complete { .. } => {
                    panic!(
                        "truncated segment ({cut}/{} bytes) decoded as complete",
                        bytes.len()
                    )
                }
                DecodeOutcome::Torn { valid_len } => {
                    assert!(valid_len as usize <= cut);
                    // The reported prefix must itself re-parse as torn at
                    // exactly its own length (idempotent truncation).
                    if let DecodeOutcome::Torn { valid_len: again } =
                        decode(&bytes[..valid_len as usize])
                    {
                        assert_eq!(again, valid_len);
                    } else {
                        panic!("valid prefix decoded as complete");
                    }
                }
            }
        }
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let epoch = sample(6, 1);
        let mut bytes = encode(3, &epoch);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(
            matches!(decode(&bytes), DecodeOutcome::Torn { .. }),
            "a flipped bit must not decode as a complete segment"
        );
    }

    #[test]
    fn garbage_and_wrong_magic_are_torn_at_zero() {
        assert!(matches!(
            decode(b"NOPE-not-a-segment"),
            DecodeOutcome::Torn { valid_len: 0 }
        ));
        assert!(matches!(decode(b""), DecodeOutcome::Torn { valid_len: 0 }));
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        // Truncated varint.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
    }
}
