//! The encrypted relation: rows of opaque ciphertext columns plus the
//! exact-match index over the `Index` column.
//!
//! One [`EncryptedTable`] holds the tuples of a single epoch/round segment
//! (the paper sends data epoch by epoch). Rows follow the layout of Table 2c
//! of the paper: a set of encrypted *filter* columns (`E_k(l||t)`,
//! `E_k(o||t)`), an encrypted *payload* column (`E_k(o||l||t)` or, for
//! TPC-H, the concatenation of the non-indexed attributes), and the
//! *Index* column `E_k(cid||counter)` on which the DBMS builds its index.
//!
//! Rows are held in a [`RowArena`]: one byte buffer per segment with every
//! ciphertext column of a row back to back, row after row in shipment
//! order, and a flat table of column end-offsets beside it. Readers walk
//! borrowed [`RowRef`] views; [`EncryptedRow`] is the owned form a caller
//! builds or keeps one row in. The two are interchangeable without loss:
//! `RowArena::from(rows).to_rows() == rows`, and
//! `RowArena::from(arena.to_rows()) == arena`. An arena is also what a
//! disk segment stores (its `Serialize` / `Deserialize` impls): the buffer
//! as it is, the tables as lengths, checked on the way back in.

use crate::key_index::KeyIndex;
use crate::{Result, StorageError};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

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
        self.columns().map(<[u8]>::len).sum()
    }

    /// The row's columns in layout order: `Index`, the filters, payload.
    pub fn columns(&self) -> impl Iterator<Item = &[u8]> + '_ {
        std::iter::once(self.index_key.as_slice())
            .chain(self.filters.iter().map(Vec::as_slice))
            .chain(std::iter::once(self.payload.as_slice()))
    }
}

/// Narrow a buffer or table length to the arena's `u32` offsets.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a row arena holds at most u32::MAX bytes and columns")
}

/// Rows of ciphertext columns in one contiguous buffer.
///
/// Row `i` is its position in push order. Every row has at least two
/// columns — `Index` first, payload last, any number of filter columns
/// between — and columns may be empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowArena {
    /// Every column of every row, back to back.
    bytes: Vec<u8>,
    /// Where the columns lie in `bytes`, row after row: `0`, then the end
    /// of every column. A column starts where the one before it ends (the
    /// first column of a row where the last of the row before it ends), so
    /// column `c` overall is `bytes[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// `row_ends[i]` is how many columns rows `0..=i` have together.
    row_ends: Vec<u32>,
}

impl Default for RowArena {
    fn default() -> Self {
        RowArena {
            bytes: Vec::new(),
            offsets: vec![0],
            row_ends: Vec::new(),
        }
    }
}

impl RowArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `rows` rows, `cols` columns and `bytes`
    /// bytes.
    fn with_capacity(rows: usize, cols: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(cols + 1);
        offsets.push(0);
        RowArena {
            bytes: Vec::with_capacity(bytes),
            offsets,
            row_ends: Vec::with_capacity(rows),
        }
    }

    /// Make room for `additional` more rows of the average shape of those
    /// already here (rounded up — exact when they share one shape, as an
    /// epoch's do), so a producer that knows its row count grows the
    /// buffer once instead of by doubling.
    pub fn reserve(&mut self, additional: usize) {
        let per_row = |total: usize| total.div_ceil(self.len().max(1));
        let (bytes, cols) = (per_row(self.bytes.len()), per_row(self.offsets.len() - 1));
        self.bytes.reserve(additional * bytes);
        self.offsets.reserve(additional * cols);
        self.row_ends.reserve(additional);
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.row_ends.len()
    }

    /// Whether the arena holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row_ends.is_empty()
    }

    /// Total ciphertext bytes held.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.bytes.len()
    }

    /// How many columns the committed rows have together.
    fn committed_cols(&self) -> usize {
        self.row_ends.last().map_or(0, |&end| end as usize)
    }

    /// A view of row `idx`, or `None` past the end.
    #[must_use]
    #[inline]
    pub fn get(&self, idx: usize) -> Option<RowRef<'_>> {
        let last = *self.row_ends.get(idx)?;
        let first = match idx {
            0 => 0,
            _ => self.row_ends[idx - 1],
        };
        Some(RowRef {
            arena: self,
            first,
            last,
        })
    }

    /// Views of all rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        // A row's bounds start on the last bound of the row before it.
        let mut first = 0;
        self.row_ends.iter().map(move |&last| {
            let row = RowRef {
                arena: self,
                first,
                last,
            };
            first = last;
            row
        })
    }

    /// Start appending a row. Columns are written through the returned
    /// writer in layout order; the row joins the arena on
    /// [`RowWriter::finish`] and leaves no trace if the writer is dropped
    /// before that.
    pub fn begin_row(&mut self) -> RowWriter<'_> {
        RowWriter { arena: self }
    }

    /// Append a copy of an owned row.
    pub fn push(&mut self, row: &EncryptedRow) {
        let mut writer = self.begin_row();
        for column in row.columns() {
            writer.column(column);
        }
        writer.finish();
    }

    /// Append a copy of a row viewed in (usually another) arena: one copy
    /// of its bytes and its column table, moved to this arena's offsets.
    pub fn push_ref(&mut self, row: RowRef<'_>) {
        let base = offset(self.bytes.len());
        self.bytes.extend_from_slice(row.row_bytes());
        // The row's last column ends where the buffer now does, so this
        // one check bounds every offset moved below.
        let end = offset(self.bytes.len());
        let bounds = row.bounds();
        self.offsets
            .extend(bounds[1..].iter().map(|e| e - bounds[0] + base));
        debug_assert_eq!(self.offsets.last(), Some(&end));
        self.row_ends.push(offset(self.offsets.len() - 1));
    }

    /// Append copies of `rows` (views into other arenas), in order: the
    /// arena [`Self::push_ref`] on each in turn makes, built in three
    /// passes so that the cache misses of different rows overlap instead
    /// of each row's copy waiting on its own. The first pass sizes the
    /// copy from the rows' bounds and reserves exactly that; the second
    /// loads one byte of every cache line the copy will read; the third
    /// copies, from lines already on their way in.
    pub fn extend_from_views(&mut self, rows: &[RowRef<'_>]) {
        let (bytes, cols) = rows.iter().fold((0, 0), |(bytes, cols), row| {
            (bytes + row.byte_size(), cols + row.cols())
        });
        self.bytes.reserve_exact(bytes);
        self.offsets.reserve_exact(cols);
        self.row_ends.reserve_exact(rows.len());
        // A byte every 64 from a row's start lands in each of its lines
        // but perhaps the last; its last byte lands in that one.
        let touched = rows.iter().fold(0u8, |acc, row| {
            let bytes = row.row_bytes();
            let last = bytes.last().copied().unwrap_or(0);
            bytes.iter().step_by(64).fold(acc ^ last, |acc, &b| acc ^ b)
        });
        std::hint::black_box(touched);
        for &row in rows {
            self.push_ref(row);
        }
    }

    /// A new arena holding this arena's rows in the order `order` names
    /// them: row `k` of the result is row `order[k]` of `self`.
    #[must_use]
    pub fn gather(&self, order: &[u32]) -> RowArena {
        let views: Vec<RowRef<'_>> = order
            .iter()
            .map(|&idx| {
                self.get(idx as usize)
                    .expect("order names rows of this arena")
            })
            .collect();
        let mut out = RowArena::new();
        out.extend_from_views(&views);
        out
    }

    /// Owned copies of all rows, in order.
    #[must_use]
    pub fn to_rows(&self) -> Vec<EncryptedRow> {
        self.iter().map(|row| row.to_row()).collect()
    }
}

impl From<Vec<EncryptedRow>> for RowArena {
    fn from(rows: Vec<EncryptedRow>) -> Self {
        let mut arena = RowArena::with_capacity(
            rows.len(),
            rows.iter().map(|r| r.filters.len() + 2).sum(),
            rows.iter().map(EncryptedRow::byte_size).sum(),
        );
        for row in &rows {
            arena.push(row);
        }
        arena
    }
}

/// Appends one row to a [`RowArena`], column by column.
#[derive(Debug)]
pub struct RowWriter<'a> {
    arena: &'a mut RowArena,
}

impl RowWriter<'_> {
    /// Append one column holding `bytes`.
    pub fn column(&mut self, bytes: &[u8]) {
        self.column_with(|buf| buf.extend_from_slice(bytes));
    }

    /// Append one column by handing `write` the arena's buffer to extend:
    /// what it appends is the column. This is how ciphertext is produced
    /// in place, e.g. by an `encrypt_into(plaintext, buf)`.
    pub fn column_with<T>(&mut self, write: impl FnOnce(&mut Vec<u8>) -> T) -> T {
        let start = self.arena.bytes.len();
        let out = write(&mut self.arena.bytes);
        assert!(
            self.arena.bytes.len() >= start,
            "a column writer only appends"
        );
        self.arena.offsets.push(offset(self.arena.bytes.len()));
        out
    }

    /// Commit the row.
    pub fn finish(self) {
        let arena = &mut *self.arena;
        let cols = arena.offsets.len() - 1;
        assert!(
            cols >= arena.committed_cols() + 2,
            "a row has at least an Index and a payload column"
        );
        arena.row_ends.push(offset(cols));
    }
}

impl Drop for RowWriter<'_> {
    /// Cut the arena back to its last committed row (nothing to cut after
    /// [`RowWriter::finish`]).
    fn drop(&mut self) {
        let cols = self.arena.committed_cols();
        self.arena.offsets.truncate(cols + 1);
        self.arena.bytes.truncate(self.arena.offsets[cols] as usize);
    }
}

/// A borrowed view of one row of a [`RowArena`].
///
/// Two views are equal when they have the same columns: the same bytes
/// *and* the same column boundaries, so `["ab", "c"]` differs from
/// `["a", "bc"]`.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    arena: &'a RowArena,
    /// The row's bounds are `arena.offsets[first..=last]`, looked up when
    /// a column is read: walking rows costs nothing per row until then.
    first: u32,
    last: u32,
}

impl<'a> RowRef<'a> {
    /// Where the row's columns lie in the arena's buffer: column `c` is
    /// `bytes[bounds[c]..bounds[c + 1]]`.
    #[inline]
    fn bounds(&self) -> &'a [u32] {
        &self.arena.offsets[self.first as usize..=self.last as usize]
    }

    #[inline]
    fn column(&self, idx: usize) -> &'a [u8] {
        assert!(idx < self.cols(), "row has no such column");
        let at = self.first as usize + idx;
        let bounds = &self.arena.offsets[at..at + 2];
        &self.arena.bytes[bounds[0] as usize..bounds[1] as usize]
    }

    /// The row's columns, back to back.
    #[inline]
    fn row_bytes(&self) -> &'a [u8] {
        let bounds = self.bounds();
        &self.arena.bytes[bounds[0] as usize..bounds[bounds.len() - 1] as usize]
    }

    /// Number of columns.
    #[inline]
    fn cols(&self) -> usize {
        (self.last - self.first) as usize
    }

    /// The searchable `Index` column (see [`EncryptedRow::index_key`]).
    #[must_use]
    #[inline]
    pub fn index_key(&self) -> &'a [u8] {
        self.column(0)
    }

    /// Number of filter columns.
    #[must_use]
    #[inline]
    pub fn filter_count(&self) -> usize {
        self.cols() - 2
    }

    /// Filter column `idx`. Panics when the row has no such filter.
    #[must_use]
    #[inline]
    pub fn filter(&self, idx: usize) -> &'a [u8] {
        assert!(idx < self.filter_count(), "row has no such filter column");
        self.column(idx + 1)
    }

    /// The filter columns, in order.
    pub fn filters(&self) -> impl ExactSizeIterator<Item = &'a [u8]> + 'a {
        let (bounds, bytes) = (self.bounds(), self.arena.bytes.as_slice());
        bounds[1..bounds.len() - 1]
            .windows(2)
            .map(move |w| &bytes[w[0] as usize..w[1] as usize])
    }

    /// The encrypted payload column (see [`EncryptedRow::payload`]).
    #[must_use]
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.column(self.cols() - 1)
    }

    /// The row's columns in layout order: `Index`, the filters, payload.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = &'a [u8]> + 'a {
        let (bounds, bytes) = (self.bounds(), self.arena.bytes.as_slice());
        bounds
            .windows(2)
            .map(move |w| &bytes[w[0] as usize..w[1] as usize])
    }

    /// Total ciphertext bytes in this row (used for transfer accounting).
    #[must_use]
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.row_bytes().len()
    }

    /// An owned copy of the row.
    #[must_use]
    pub fn to_row(&self) -> EncryptedRow {
        EncryptedRow {
            index_key: self.index_key().to_vec(),
            filters: self.filters().map(<[u8]>::to_vec).collect(),
            payload: self.payload().to_vec(),
        }
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.bounds(), other.bounds());
        a.len() == b.len()
            && self.row_bytes() == other.row_bytes()
            && a.iter().zip(b).all(|(x, y)| x - a[0] == y - b[0])
    }
}

impl Eq for RowRef<'_> {}

impl PartialEq<EncryptedRow> for RowRef<'_> {
    fn eq(&self, other: &EncryptedRow) -> bool {
        self.columns().eq(other.columns())
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowRef")
            .field("index_key", &self.index_key())
            .field("filters", &self.filters().collect::<Vec<_>>())
            .field("payload", &self.payload())
            .finish()
    }
}

/// The stored form of an arena: its buffer as one byte string, then the
/// length of every column and the column count of every row. Lengths, not
/// offsets, so a table costs a byte per column whatever the segment's size
/// and cannot name a range that runs backwards.
impl Serialize for RowArena {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> std::result::Result<(), S::Error> {
        self.bytes.serialize(serializer)?;
        serializer.begin_seq(self.offsets.len() - 1)?;
        self.offsets
            .windows(2)
            .try_for_each(|w| serializer.write_u64(u64::from(w[1] - w[0])))?;
        serializer.begin_seq(self.len())?;
        self.iter()
            .try_for_each(|row| serializer.write_u64(row.cols() as u64))
    }
}

/// The one way from stored bytes to an arena. The input is the untrusted
/// provider's disk: the tables are rebuilt from the lengths and must
/// account for the buffer and for each other exactly, so no view of the
/// result can index out of bounds.
impl<'de> Deserialize<'de> for RowArena {
    fn deserialize<D: Deserializer<'de>>(
        deserializer: &mut D,
    ) -> std::result::Result<Self, D::Error> {
        let bytes = Vec::<u8>::deserialize(deserializer)?;
        let column_lens = Vec::<u32>::deserialize(deserializer)?;
        let row_cols = Vec::<u32>::deserialize(deserializer)?;
        let mut arena = RowArena::with_capacity(row_cols.len(), column_lens.len(), 0);
        let invalid = |what| Err(deserializer.invalid_value(what));
        let mut end = 0u32;
        for &len in &column_lens {
            let Some(next) = end.checked_add(len) else {
                return invalid("column lengths overflow the arena");
            };
            end = next;
            arena.offsets.push(end);
        }
        if end as usize != bytes.len() {
            return invalid("column lengths do not cover the row bytes");
        }
        let mut cols = 0u32;
        for &n in &row_cols {
            let Some(next) = cols.checked_add(n).filter(|_| n >= 2) else {
                return invalid("a row has at least an Index and a payload column");
            };
            cols = next;
            arena.row_ends.push(cols);
        }
        if cols as usize != column_lens.len() {
            return invalid("rows do not cover the columns");
        }
        arena.bytes = bytes;
        Ok(arena)
    }
}

/// An encrypted, index-backed table segment.
#[derive(Debug, Clone, Default)]
pub struct EncryptedTable {
    rows: RowArena,
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
    pub fn bulk_load(rows: impl Into<RowArena>) -> Result<Self> {
        let rows = rows.into();
        let index = KeyIndex::build(&rows)?;
        Ok(EncryptedTable { rows, index })
    }

    /// Put replacement rows in place of the rows currently stored under
    /// the given old `Index` values (a §6 bin rewrite), keeping every row
    /// id, and rebuild the index. When two replacements name one old key
    /// the later wins. All-or-nothing: an old key the table does not hold
    /// yields [`StorageError::CardinalityMismatch`], new keys that collide
    /// yield [`StorageError::DuplicateKey`], and either way the table is
    /// left exactly as it was.
    pub fn replace_rows(&mut self, replacements: Vec<(Vec<u8>, EncryptedRow)>) -> Result<()> {
        let (old_keys, new_rows): (Vec<Vec<u8>>, Vec<EncryptedRow>) =
            replacements.into_iter().unzip();
        let new_rows = RowArena::from(new_rows);
        let mut views: Vec<RowRef<'_>> = self.rows.iter().collect();
        let mut found = 0;
        for (new, hit) in new_rows
            .iter()
            .zip(self.index.get_many(&old_keys, &self.rows))
        {
            if let Some((pos, _)) = hit {
                views[pos] = new;
                found += 1;
            }
        }
        if found != old_keys.len() {
            return Err(StorageError::CardinalityMismatch {
                expected: old_keys.len(),
                got: found,
            });
        }
        // A replacement may differ in length from the row it displaces, so
        // the rows are laid out afresh beside the index rebuild.
        let mut rows = RowArena::new();
        rows.extend_from_views(&views);
        self.index = KeyIndex::build(&rows)?;
        self.rows = rows;
        Ok(())
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

    /// The stored rows, in row-id order.
    #[must_use]
    pub fn rows(&self) -> &RowArena {
        &self.rows
    }

    /// Exact-match lookup by `Index` value (a trapdoor). Returns the row id
    /// and a view of the row.
    #[must_use]
    pub fn lookup(&self, trapdoor: &[u8]) -> Option<(RowId, RowRef<'_>)> {
        let (pos, row) = self.index.get(trapdoor, &self.rows)?;
        Some((pos as RowId, row))
    }

    /// [`Self::lookup`] for every trapdoor of a batch (one bin fetch), in
    /// their order. Equal to looking each up in turn; resolving them
    /// together lets the index overlap their memory accesses.
    pub fn lookup_many<K: AsRef<[u8]>>(
        &self,
        trapdoors: &[K],
    ) -> impl ExactSizeIterator<Item = Option<(RowId, RowRef<'_>)>> {
        self.index
            .get_many(trapdoors, &self.rows)
            .into_iter()
            .map(|hit| hit.map(|(pos, row)| (pos as RowId, row)))
    }

    /// Fetch a row by id.
    pub fn row(&self, row_id: RowId) -> Result<RowRef<'_>> {
        usize::try_from(row_id)
            .ok()
            .and_then(|idx| self.rows.get(idx))
            .ok_or(StorageError::InvalidRowId {
                row_id,
                table_len: self.rows.len() as u64,
            })
    }

    /// Iterate over all rows (used by full-scan baselines).
    pub fn scan(&self) -> impl Iterator<Item = (RowId, RowRef<'_>)> + '_ {
        self.rows.iter().enumerate().map(|(i, r)| (i as RowId, r))
    }

    /// Total ciphertext bytes in the segment.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.rows.byte_size()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

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

    /// `lookup` with the hit copied out, for comparing against owned rows.
    fn lookup(table: &EncryptedTable, key: &[u8]) -> Option<(RowId, EncryptedRow)> {
        table.lookup(key).map(|(id, row)| (id, row.to_row()))
    }

    #[test]
    fn bulk_load_and_lookup() {
        let rows: Vec<EncryptedRow> = (0..1000u64).map(|i| row(i, (i % 251) as u8)).collect();
        let table = EncryptedTable::bulk_load(rows.clone()).unwrap();
        assert_eq!(table.len(), 1000);
        for (i, r) in rows.iter().enumerate() {
            let (rid, found) = table.lookup(&r.index_key).unwrap();
            assert_eq!(rid, i as u64);
            assert_eq!(found, *r);
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
                .all(|(i, r)| lookup(table, &r.index_key) == Some((i as RowId, r.clone())))
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
        assert_eq!(lookup(&table, &key(3)), Some((3, row(3, 0xAA))));
        assert_eq!(lookup(&table, &key(70)), Some((7, row(70, 0xBB))));
        assert_eq!(lookup(&table, &key(7)), None);
        assert_eq!(lookup(&table, &key(9)), Some((8, row(9, 0xCC))));
        assert_eq!(lookup(&table, &key(8)), Some((9, row(8, 0xDD))));
        assert_eq!(lookup(&table, &key(12)), Some((12, rows[12].clone())));
    }

    #[test]
    fn row_by_id_bounds_checked() {
        let table =
            EncryptedTable::bulk_load((0..5u64).map(|i| row(i, 0)).collect::<Vec<_>>()).unwrap();
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
        let scanned: Vec<EncryptedRow> = table.scan().map(|(_, r)| r.to_row()).collect();
        assert_eq!(scanned, rows);
    }

    #[test]
    fn view_equality_sees_column_boundaries() {
        let split = |index_key: &[u8], filter: &[u8], payload: &[u8]| EncryptedRow {
            index_key: index_key.to_vec(),
            filters: vec![filter.to_vec()],
            payload: payload.to_vec(),
        };
        let arena = RowArena::from(vec![
            split(b"ab", b"c", b"d"),
            split(b"a", b"bc", b"d"),
            split(b"ab", b"", b"cd"),
            split(b"ab", b"c", b"d"),
        ]);
        let view = |i| arena.get(i).unwrap();
        assert_ne!(view(0), view(1));
        assert_ne!(view(0), view(2));
        assert_eq!(view(0), view(3), "equal rows at different offsets");
        assert_eq!(view(1), split(b"a", b"bc", b"d"));
        assert_ne!(view(1), split(b"ab", b"c", b"d"));
        // The same bytes with a filter column more or less.
        let unsplit = EncryptedRow {
            index_key: b"ab".to_vec(),
            filters: vec![],
            payload: b"cd".to_vec(),
        };
        assert_ne!(view(2), unsplit);
        assert_ne!(RowArena::from(vec![unsplit]), arena.gather(&[2]));
    }

    #[test]
    fn an_unfinished_row_leaves_no_trace() {
        let mut arena = RowArena::from(vec![row(1, 1)]);
        let before = arena.clone();
        let mut writer = arena.begin_row();
        writer.column(b"half a row");
        writer.column_with(|buf| buf.extend_from_slice(b"more"));
        drop(writer);
        assert_eq!(arena, before);
        assert_eq!(arena.byte_size(), before.byte_size());
    }

    #[test]
    #[should_panic(expected = "at least an Index and a payload column")]
    fn a_row_needs_two_columns() {
        let mut arena = RowArena::new();
        let mut writer = arena.begin_row();
        writer.column(b"only one");
        writer.finish();
    }

    /// A row's columns as drawn: `(Index, filters, payload)`.
    pub(crate) type Columns = (Vec<u8>, Vec<Vec<u8>>, Vec<u8>);

    /// Rows of every shape the arena must hold: 0–3 filters, empty columns.
    pub(crate) fn any_row() -> impl Strategy<Value = Columns> {
        let column = || proptest::collection::vec(any::<u8>(), 0..6);
        (
            column(),
            proptest::collection::vec(column(), 0..4),
            column(),
        )
    }

    pub(crate) fn row_of((index_key, filters, payload): Columns) -> EncryptedRow {
        EncryptedRow {
            index_key,
            filters,
            payload,
        }
    }

    /// Tables of mixed shapes, the empty table included.
    pub(crate) fn any_rows() -> impl Strategy<Value = Vec<Columns>> {
        proptest::collection::vec(any_row(), 0..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arena ≡ `Vec<EncryptedRow>`: views read back the rows column for
        /// column, and the two conversions are inverse to each other — on
        /// arenas laid out by `from`, and on arenas laid out by copying
        /// views (`gather`), whose offsets were moved.
        ///
        /// Appending views in three passes (`extend_from_views`) is
        /// `push_ref` on each in turn: onto an arena that already holds
        /// rows, in any order, with rows repeated, and for the empty list.
        #[test]
        fn prop_arena_is_the_rows(
            rows in any_rows(),
            head in any_rows(),
            picks in proptest::collection::vec(any::<usize>(), 0..40),
        ) {
            let rows: Vec<EncryptedRow> = rows.into_iter().map(row_of).collect();
            let arena = RowArena::from(rows.clone());
            prop_assert_eq!(arena.len(), rows.len());
            prop_assert_eq!(arena.is_empty(), rows.is_empty());
            prop_assert_eq!(arena.byte_size(), rows.iter().map(EncryptedRow::byte_size).sum::<usize>());
            prop_assert!(arena.get(rows.len()).is_none());
            for (view, row) in arena.iter().zip(&rows) {
                prop_assert_eq!(view.index_key(), row.index_key.as_slice());
                prop_assert_eq!(view.filter_count(), row.filters.len());
                prop_assert!(view.filters().eq(row.filters.iter().map(Vec::as_slice)));
                prop_assert_eq!(view.payload(), row.payload.as_slice());
                prop_assert_eq!(view.byte_size(), row.byte_size());
                prop_assert!(view.columns().eq(row.columns()));
                prop_assert!(view == *row);
            }
            prop_assert_eq!(&arena.to_rows(), &rows);
            prop_assert_eq!(&RowArena::from(arena.to_rows()), &arena);

            let reversed: Vec<u32> = (0..rows.len() as u32).rev().collect();
            let gathered = arena.gather(&reversed);
            prop_assert_eq!(&RowArena::from(gathered.to_rows()), &gathered);
            prop_assert_eq!(gathered.gather(&reversed), arena.clone());

            let head = RowArena::from(head.into_iter().map(row_of).collect::<Vec<_>>());
            let views: Vec<RowRef<'_>> = match rows.len() {
                0 => Vec::new(),
                n => picks.iter().map(|p| arena.get(p % n).unwrap()).collect(),
            };
            let mut one_by_one = head.clone();
            for &view in &views {
                one_by_one.push_ref(view);
            }
            for list in [&views[..], &[]] {
                let mut staged = head.clone();
                staged.extend_from_views(list);
                let want = if list.is_empty() { &head } else { &one_by_one };
                prop_assert_eq!(&staged, want);
            }
        }

        /// Gathering by a shuffled position vector is shuffling the rows:
        /// what lets the data provider permute an arena and ship the exact
        /// row order (and therefore row ids) a shuffled `Vec` had.
        #[test]
        fn prop_gather_by_shuffled_positions_is_shuffle(rows in any_rows(), seed in any::<u64>()) {
            let rows: Vec<EncryptedRow> = rows.into_iter().map(row_of).collect();
            let mut order: Vec<u32> = (0..rows.len() as u32).collect();
            order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let gathered = RowArena::from(rows.clone()).gather(&order);
            let mut shuffled = rows;
            shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            prop_assert_eq!(gathered.to_rows(), shuffled);
        }

        /// The stored form is the rows, not the layout: an arena filled by
        /// copying views (offsets moved) encodes to the bytes one filled
        /// from owned rows does — one stored byte per ciphertext byte,
        /// one per column and one per row — and decodes back to it.
        #[test]
        fn prop_views_encode_as_rows(rows in any_rows()) {
            let rows: Vec<EncryptedRow> = rows.into_iter().map(row_of).collect();
            let arena = RowArena::from(rows.clone());
            let bytes = serde::bin::to_bytes(&arena);
            let shuffled: Vec<u32> = (0..rows.len() as u32).rev().collect();
            let copied = arena.gather(&shuffled).gather(&shuffled);
            prop_assert_eq!(&serde::bin::to_bytes(&copied), &bytes);
            let cols: usize = rows.iter().map(|r| r.filters.len() + 2).sum();
            let prefixes: usize = [arena.byte_size(), cols, rows.len()]
                .iter()
                .map(|&n| serde::bin::to_bytes(&n).len())
                .sum();
            prop_assert_eq!(bytes.len(), arena.byte_size() + cols + rows.len() + prefixes);
            prop_assert_eq!(serde::bin::from_bytes::<RowArena>(&bytes), Ok(arena));
        }

        /// `replace_rows` against the same replacement done on a `Vec`,
        /// with replacement rows of other shapes and lengths.
        #[test]
        fn prop_replace_rows_matches_vec_model(
            shapes in proptest::collection::vec(any_row(), 1..16),
            replacements in proptest::collection::vec((any::<usize>(), any_row()), 0..6),
        ) {
            // Unique keys: the position, then whatever the strategy drew.
            let keyed = |i: usize, columns: Columns| {
                let mut row = row_of(columns);
                row.index_key.splice(0..0, (i as u32).to_be_bytes());
                row
            };
            let rows: Vec<EncryptedRow> =
                shapes.into_iter().enumerate().map(|(i, r)| keyed(i, r)).collect();
            let mut table = EncryptedTable::bulk_load(rows.clone()).unwrap();
            let mut model = rows.clone();
            let mut request = Vec::new();
            for (k, (at, row)) in replacements.into_iter().enumerate() {
                let at = at % rows.len();
                let row = keyed(rows.len() + k, row);
                model[at] = row.clone();
                request.push((rows[at].index_key.clone(), row));
            }
            table.replace_rows(request).unwrap();
            prop_assert_eq!(table.rows().to_rows(), model.clone());
            for (i, row) in model.iter().enumerate() {
                prop_assert_eq!(lookup(&table, &row.index_key), Some((i as RowId, row.clone())));
            }
        }

        /// A batch lookup is the single lookups in order — hits, misses,
        /// keys that share a zero-padded prefix (`[1]`, `[1, 0]`), one
        /// trapdoor twice in a batch, and the empty batch.
        #[test]
        fn prop_lookup_many_is_lookup_per_trapdoor(
            keys in proptest::collection::btree_set(proptest::collection::vec(0u8..3, 0..10), 0..60),
            picks in proptest::collection::vec(any::<usize>(), 0..40),
            misses in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..10), 0..10),
        ) {
            let keys: Vec<Vec<u8>> = keys.into_iter().collect();
            let rows: Vec<EncryptedRow> = keys
                .iter()
                .map(|k| EncryptedRow { index_key: k.clone(), filters: vec![], payload: k.clone() })
                .collect();
            let table = EncryptedTable::bulk_load(rows).unwrap();
            let mut trapdoors = misses;
            if !keys.is_empty() {
                trapdoors.extend(picks.iter().map(|p| keys[p % keys.len()].clone()));
            }
            // Every trapdoor at least twice.
            trapdoors.extend_from_within(..);
            for batch in [trapdoors.as_slice(), &[]] {
                let singles: Vec<_> = batch.iter().map(|t| table.lookup(t)).collect();
                prop_assert_eq!(table.lookup_many(batch).collect::<Vec<_>>(), singles);
            }
        }
    }

    #[test]
    fn byte_size_accounts_all_columns() {
        let r = row(1, 3);
        assert_eq!(r.byte_size(), 8 + 8 + 8 + 32);
        let table = EncryptedTable::bulk_load(vec![row(1, 3), row(2, 4)]).unwrap();
        assert_eq!(table.byte_size(), 2 * (8 + 8 + 8 + 32));
    }
}
