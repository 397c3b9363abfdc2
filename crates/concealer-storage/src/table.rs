//! The encrypted relation: rows of opaque ciphertext columns plus the
//! exact-match index over the `Index` column.
//!
//! One [`EncryptedTable`] holds the tuples of a single epoch/round segment
//! (the paper sends data epoch by epoch). Rows follow the layout of Table 2c
//! of the paper: a set of encrypted *filter* columns (`E_k(l||t)`,
//! `E_k(o||t)`), an encrypted *payload* column (`E_k(o||l||t)` or, for
//! TPC-H, the concatenation of the non-indexed attributes), and the
//! *Index* column `E_k(cid||counter)` on which the DBMS builds its index.

use crate::btree::KeyIndex;
use crate::{Result, StorageError};
use serde::{Deserialize, Serialize};

/// Identifier of a row within one table segment: its position in the
/// shipment.
pub type RowId = u64;

/// One encrypted tuple as shipped by the data provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncryptedRow {
    /// The searchable `Index` column: `E_k(cid || counter)` for real tuples
    /// or `E_k(f || j)` for fake tuples. Unique within an epoch.
    pub index_key: Vec<u8>,
    /// Encrypted filter columns (e.g. `E_k(l||t)`, `E_k(o||t)`); the enclave
    /// string-matches trapdoor filters against these without decrypting.
    pub filters: Vec<Vec<u8>>,
    /// The encrypted full tuple payload (decrypted only when the query needs
    /// attribute values, e.g. sum/min/max).
    pub payload: Vec<u8>,
}

impl EncryptedRow {
    /// Total ciphertext bytes in this row (used for transfer accounting).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.index_key.len() + self.filters.iter().map(Vec::len).sum::<usize>() + self.payload.len()
    }
}

/// An encrypted, index-backed table segment.
#[derive(Debug, Clone, Default)]
pub struct EncryptedTable {
    rows: Vec<EncryptedRow>,
    index: KeyIndex,
}

impl EncryptedTable {
    /// Create an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-load a batch of rows (one epoch's shipment). The DBMS builds the
    /// index on the `Index` column as part of the load, exactly as the paper
    /// describes ("SP inserts the data into DBMS that creates/modifies the
    /// index"). A row's id is its position in `rows`. Fails with
    /// [`StorageError::DuplicateKey`] when two rows share an `Index` value.
    pub fn bulk_load(rows: Vec<EncryptedRow>) -> Result<Self> {
        let index = KeyIndex::build(&rows)?;
        Ok(EncryptedTable { rows, index })
    }

    /// Swap replacement rows in place of the rows currently stored under
    /// the given old `Index` values (a §6 bin rewrite), keeping every row
    /// id, and rebuild the index. All-or-nothing: an old key the table does
    /// not hold yields [`StorageError::CardinalityMismatch`], new keys that
    /// collide yield [`StorageError::DuplicateKey`], and either way the
    /// table is left exactly as it was.
    pub fn replace_rows(&mut self, mut replacements: Vec<(Vec<u8>, EncryptedRow)>) -> Result<()> {
        let positions: Vec<usize> = replacements
            .iter()
            .filter_map(|(old_key, _)| self.index.get(old_key, &self.rows))
            .collect();
        if positions.len() != replacements.len() {
            return Err(StorageError::CardinalityMismatch {
                expected: replacements.len(),
                got: positions.len(),
            });
        }
        // Each swap parks the displaced row in `replacements`, so undoing
        // them in reverse order restores the table even when two
        // replacements named the same old key.
        for (&pos, (_, row)) in positions.iter().zip(&mut replacements) {
            std::mem::swap(&mut self.rows[pos], row);
        }
        match KeyIndex::build(&self.rows) {
            Ok(index) => {
                self.index = index;
                Ok(())
            }
            Err(e) => {
                for (&pos, (_, row)) in positions.iter().zip(&mut replacements).rev() {
                    std::mem::swap(&mut self.rows[pos], row);
                }
                Err(e)
            }
        }
    }

    /// Number of rows stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Exact-match lookup by `Index` value (a trapdoor). Returns the row id
    /// and a reference to the row.
    #[must_use]
    pub fn lookup(&self, trapdoor: &[u8]) -> Option<(RowId, &EncryptedRow)> {
        let pos = self.index.get(trapdoor, &self.rows)?;
        Some((pos as RowId, &self.rows[pos]))
    }

    /// Fetch a row by id.
    pub fn row(&self, row_id: RowId) -> Result<&EncryptedRow> {
        self.rows
            .get(row_id as usize)
            .ok_or(StorageError::InvalidRowId {
                row_id,
                table_len: self.rows.len() as u64,
            })
    }

    /// Iterate over all rows (used by full-scan baselines).
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &EncryptedRow)> + '_ {
        self.rows.iter().enumerate().map(|(i, r)| (i as RowId, r))
    }

    /// Total ciphertext bytes in the segment.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.rows.iter().map(EncryptedRow::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(key: u64) -> Vec<u8> {
        key.to_be_bytes().to_vec()
    }

    fn row(key: u64, payload: u8) -> EncryptedRow {
        EncryptedRow {
            index_key: self::key(key),
            filters: vec![vec![payload; 8], vec![payload ^ 0xff; 8]],
            payload: vec![payload; 32],
        }
    }

    #[test]
    fn bulk_load_and_lookup() {
        let rows: Vec<EncryptedRow> = (0..1000u64).map(|i| row(i, (i % 251) as u8)).collect();
        let table = EncryptedTable::bulk_load(rows.clone()).unwrap();
        assert_eq!(table.len(), 1000);
        for (i, r) in rows.iter().enumerate() {
            let (rid, found) = table.lookup(&r.index_key).unwrap();
            assert_eq!(rid, i as u64);
            assert_eq!(found, r);
        }
        assert!(table.lookup(b"not a key").is_none());
    }

    #[test]
    fn duplicate_index_value_rejected() {
        let shipment = vec![row(1, 1), row(2, 0), row(1, 2)];
        assert_eq!(
            EncryptedTable::bulk_load(shipment).err(),
            Some(StorageError::DuplicateKey)
        );
    }

    #[test]
    fn replace_rows_keeps_row_ids_and_is_all_or_nothing() {
        let rows: Vec<EncryptedRow> = (0..20u64).map(|i| row(i, i as u8)).collect();
        let mut table = EncryptedTable::bulk_load(rows.clone()).unwrap();
        let unchanged = |table: &EncryptedTable| {
            rows.iter()
                .enumerate()
                .all(|(i, r)| table.lookup(&r.index_key) == Some((i as RowId, r)))
        };

        // Unknown old key: nothing moves, not even the known replacement.
        let err = table.replace_rows(vec![(key(3), row(3, 0xAA)), (key(99), row(99, 0xBB))]);
        assert_eq!(
            err,
            Err(StorageError::CardinalityMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(unchanged(&table));
        // A new key that collides with an untouched row, or with another
        // replacement: rejected, and the swaps are undone.
        let err = table.replace_rows(vec![(key(3), row(30, 0xAA)), (key(4), row(5, 0xBB))]);
        assert_eq!(err, Err(StorageError::DuplicateKey));
        let err = table.replace_rows(vec![(key(3), row(30, 0xAA)), (key(4), row(30, 0xBB))]);
        assert_eq!(err, Err(StorageError::DuplicateKey));
        assert!(unchanged(&table));

        // Same key with a new payload, a fresh key, and two rows trading keys.
        table
            .replace_rows(vec![
                (key(3), row(3, 0xAA)),
                (key(7), row(70, 0xBB)),
                (key(8), row(9, 0xCC)),
                (key(9), row(8, 0xDD)),
            ])
            .unwrap();
        assert_eq!(table.len(), 20);
        assert_eq!(table.lookup(&key(3)), Some((3, &row(3, 0xAA))));
        assert_eq!(table.lookup(&key(70)), Some((7, &row(70, 0xBB))));
        assert_eq!(table.lookup(&key(7)), None);
        assert_eq!(table.lookup(&key(9)), Some((8, &row(9, 0xCC))));
        assert_eq!(table.lookup(&key(8)), Some((9, &row(8, 0xDD))));
        assert_eq!(table.lookup(&key(12)), Some((12, &rows[12])));
    }

    #[test]
    fn row_by_id_bounds_checked() {
        let table = EncryptedTable::bulk_load((0..5u64).map(|i| row(i, 0)).collect()).unwrap();
        assert!(table.row(4).is_ok());
        assert!(matches!(
            table.row(5),
            Err(StorageError::InvalidRowId {
                row_id: 5,
                table_len: 5
            })
        ));
    }

    #[test]
    fn scan_visits_all_rows_in_insertion_order() {
        let rows: Vec<EncryptedRow> = (0..50u64).map(|i| row(i * 7 % 50, i as u8)).collect();
        let table = EncryptedTable::bulk_load(rows.clone()).unwrap();
        let scanned: Vec<EncryptedRow> = table.scan().map(|(_, r)| r.clone()).collect();
        assert_eq!(scanned, rows);
    }

    #[test]
    fn byte_size_accounts_all_columns() {
        let r = row(1, 3);
        assert_eq!(r.byte_size(), 8 + 8 + 8 + 32);
        let table = EncryptedTable::bulk_load(vec![row(1, 3), row(2, 4)]).unwrap();
        assert_eq!(table.byte_size(), 2 * (8 + 8 + 8 + 32));
    }
}
