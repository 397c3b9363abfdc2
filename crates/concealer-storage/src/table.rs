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
//! order. An epoch's rows all have one shape — the paper's tuples are the
//! same columns, and volume hiding makes fake tuples as wide as real ones
//! — so an arena stores its column widths once and row `i` is the `i`-th
//! run of `stride` bytes: a lookup goes from a position straight to the
//! row's bytes. Readers walk borrowed [`RowRef`] views; [`EncryptedRow`]
//! is the owned form a caller builds or keeps one row in. The two are
//! interchangeable without loss: `RowArena::from(rows).to_rows() == rows`
//! for rows of one shape, and `RowArena::from(arena.to_rows()) == arena`.
//! An arena is also what a disk segment stores (its `Serialize` /
//! `Deserialize` impls): the buffer as it is, the widths as lengths,
//! checked on the way back in.
//!
//! Rows of several shapes are refused where they would enter a table:
//! [`EncryptedTable::bulk_load`] (so every ingest), a segment read from
//! disk, and a §6 replacement row. Appending one to an arena leaves an
//! arena with no shape, which every one of those refuses, which equals no
//! arena of one shape, and whose rows cannot be read.

use crate::key_index::{KeyIndex, Probe};
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
    pub(crate) fn byte_size(&self) -> usize {
        self.columns().map(<[u8]>::len).sum()
    }

    /// The row's columns in layout order: `Index`, the filters, payload.
    pub fn columns(&self) -> impl Iterator<Item = &[u8]> + Clone + '_ {
        std::iter::once(self.index_key.as_slice())
            .chain(self.filters.iter().map(Vec::as_slice))
            .chain(std::iter::once(self.payload.as_slice()))
    }
}

/// Narrow a row width to the arena's `u32` column bounds.
fn width(len: usize) -> u32 {
    u32::try_from(len).expect("a row is at most u32::MAX bytes wide")
}

/// Rows of ciphertext columns of one shape in one contiguous buffer.
///
/// Row `i` is its position in push order. Every row has the same columns —
/// `Index` first, payload last, any number of filter columns between — of
/// the same widths, and columns may be empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowArena {
    /// Every row's columns, back to back: row `i` is
    /// `bytes[i * stride..(i + 1) * stride]`.
    bytes: Vec<u8>,
    /// The shape every row has: where each column starts within a row, and
    /// last the row's width (`stride`), so column `c` of a row is
    /// `row[bounds[c]..bounds[c + 1]]`. Empty while the arena holds no row,
    /// and in an arena a row of another shape was appended to.
    bounds: Vec<u32>,
    /// Number of rows.
    len: usize,
}

impl RowArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `additional` more rows of the arena's shape, so a
    /// producer that knows its row count grows the buffer once instead of
    /// by doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.bytes.reserve(additional * self.stride());
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total ciphertext bytes held.
    #[must_use]
    pub(crate) fn byte_size(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes per row.
    fn stride(&self) -> usize {
        self.bounds.last().map_or(0, |&w| w as usize)
    }

    /// Whether rows of more than one shape were appended: such an arena
    /// has no shape and its rows cannot be read.
    pub(crate) fn is_shapeless(&self) -> bool {
        self.len > 0 && self.bounds.is_empty()
    }

    /// The rows as fixed-width slots, for the lookup path.
    pub(crate) fn slots(&self) -> Slots<'_> {
        assert!(
            !self.is_shapeless(),
            "rows of several shapes cannot be read"
        );
        Slots {
            bytes: &self.bytes,
            stride: self.stride(),
            key_width: self.bounds.get(1).map_or(0, |&w| w as usize),
        }
    }

    /// A view of row `idx`, or `None` past the end. Panics when the arena
    /// holds rows of several shapes.
    #[must_use]
    #[inline]
    pub fn get(&self, idx: usize) -> Option<RowRef<'_>> {
        (idx < self.len).then(|| self.view(self.slots().row(idx)))
    }

    /// The view of `row`, one row of this arena.
    #[inline]
    fn view<'a>(&'a self, row: &'a [u8]) -> RowRef<'a> {
        RowRef {
            row,
            bounds: &self.bounds,
        }
    }

    /// Views of all rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        let slots = self.slots();
        (0..self.len).map(move |idx| self.view(slots.row(idx)))
    }

    /// Start appending a row. Columns are written through the returned
    /// writer in layout order; the row joins the arena on
    /// [`RowWriter::finish`] and leaves no trace if the writer is dropped
    /// before that. The arena's first row sets its shape.
    pub fn begin_row(&mut self) -> RowWriter<'_> {
        if self.len == 0 {
            self.bounds.clear();
            self.bounds.push(0);
        }
        RowWriter {
            start: self.bytes.len(),
            cols: 0,
            fits: true,
            arena: self,
        }
    }

    /// Append a copy of an owned row.
    pub fn push(&mut self, row: &EncryptedRow) {
        let mut writer = self.begin_row();
        for column in row.columns() {
            writer.column(column);
        }
        writer.finish();
    }

    /// Append a copy of `row`, a row of `like`'s shape: one copy of its
    /// bytes. The first row copied takes `like`'s shape.
    #[inline]
    pub(crate) fn push_copy(&mut self, like: &RowArena, row: &[u8]) {
        debug_assert_eq!(row.len(), like.stride());
        if self.len == 0 {
            self.bounds.clone_from(&like.bounds);
        }
        self.bytes.extend_from_slice(row);
        self.len += 1;
    }

    /// A new arena holding this arena's rows in the order `order` names
    /// them: row `k` of the result is row `order[k]` of `self`.
    #[must_use]
    pub fn gather(&self, order: &[u32]) -> RowArena {
        let slots = self.slots();
        let mut out = RowArena::new();
        out.bytes.reserve_exact(order.len() * slots.stride);
        for &idx in order {
            assert!((idx as usize) < self.len, "order names rows of this arena");
            out.push_copy(self, slots.row(idx as usize));
        }
        out
    }

    /// Owned copies of all rows, in order.
    #[must_use]
    pub fn to_rows(&self) -> Vec<EncryptedRow> {
        self.iter().map(|row| row.to_row()).collect()
    }
}

/// An arena's rows as fixed-width slots: row `pos` is the `pos`-th run of
/// `stride` bytes, its `Index` column the first `key_width` of them.
#[derive(Clone, Copy)]
pub(crate) struct Slots<'a> {
    bytes: &'a [u8],
    stride: usize,
    key_width: usize,
}

impl<'a> Slots<'a> {
    /// The bytes of row `pos`.
    #[inline]
    pub(crate) fn row(self, pos: usize) -> &'a [u8] {
        let at = pos * self.stride;
        &self.bytes[at..at + self.stride]
    }

    /// The `Index` column of row `pos`.
    #[inline]
    pub(crate) fn key(self, pos: usize) -> &'a [u8] {
        let at = pos * self.stride;
        &self.bytes[at..at + self.key_width]
    }
}

/// Load one byte of every cache line `rows` lie on, in one pass of loads
/// that do not depend on one another, so that the reads of the rows that
/// follow find them on their way in instead of each waiting on its own
/// misses.
fn touch_lines<'a>(rows: impl Iterator<Item = &'a [u8]>) {
    // A byte every 64 from a row's start lands in each of its lines but
    // perhaps the last; its last byte lands in that one.
    let touched = rows.fold(0u8, |acc, row| {
        let last = row.last().copied().unwrap_or(0);
        row.iter().step_by(64).fold(acc ^ last, |acc, &b| acc ^ b)
    });
    std::hint::black_box(touched);
}

/// Rows of one shape make an arena of that shape; rows of several make an
/// arena with no shape (see the module docs), which no table takes.
impl From<Vec<EncryptedRow>> for RowArena {
    fn from(rows: Vec<EncryptedRow>) -> Self {
        let mut arena = RowArena::new();
        arena
            .bytes
            .reserve_exact(rows.iter().map(EncryptedRow::byte_size).sum());
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
    /// Where the row starts in the arena's buffer.
    start: usize,
    /// Columns written so far.
    cols: usize,
    /// Whether every column so far has the width the arena's shape gives
    /// it (on the arena's first row, the shape is being written).
    fits: bool,
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
        let arena = &mut *self.arena;
        let before = arena.bytes.len();
        let out = write(&mut arena.bytes);
        assert!(arena.bytes.len() >= before, "a column writer only appends");
        let end = width(arena.bytes.len() - self.start);
        self.cols += 1;
        if arena.len == 0 {
            arena.bounds.push(end);
        } else {
            self.fits &= arena.bounds.get(self.cols) == Some(&end);
        }
        out
    }

    /// Commit the row. A row of another shape than the arena's rows leaves
    /// the arena without a shape.
    pub fn finish(mut self) {
        assert!(
            self.cols >= 2,
            "a row has at least an Index and a payload column"
        );
        let arena = &mut *self.arena;
        if !self.fits || self.cols + 1 != arena.bounds.len() {
            arena.bounds.clear();
        }
        arena.len += 1;
        self.start = arena.bytes.len();
    }
}

impl Drop for RowWriter<'_> {
    /// Cut the arena back to its last committed row (nothing to cut after
    /// [`RowWriter::finish`]).
    fn drop(&mut self) {
        self.arena.bytes.truncate(self.start);
        if self.arena.len == 0 {
            self.arena.bounds.clear();
        }
    }
}

/// A borrowed view of one row of a [`RowArena`].
///
/// Two views are equal when they have the same columns: the same bytes
/// *and* the same column boundaries, so `["ab", "c"]` differs from
/// `["a", "bc"]`.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    /// The row's bytes.
    row: &'a [u8],
    /// The arena's shape: column `c` is `row[bounds[c]..bounds[c + 1]]`.
    bounds: &'a [u32],
}

impl<'a> RowRef<'a> {
    #[inline]
    fn column(&self, idx: usize) -> &'a [u8] {
        assert!(idx < self.cols(), "row has no such column");
        &self.row[self.bounds[idx] as usize..self.bounds[idx + 1] as usize]
    }

    /// Number of columns.
    #[inline]
    fn cols(&self) -> usize {
        self.bounds.len() - 1
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
        let cols = self.cols();
        self.columns().skip(1).take(cols - 2)
    }

    /// The encrypted payload column (see [`EncryptedRow::payload`]).
    #[must_use]
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.column(self.cols() - 1)
    }

    /// The row's columns in layout order: `Index`, the filters, payload.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = &'a [u8]> + Clone + 'a {
        let row = self.row;
        self.bounds
            .windows(2)
            .map(move |w| &row[w[0] as usize..w[1] as usize])
    }

    /// Total ciphertext bytes in this row.
    #[cfg(test)]
    pub(crate) fn byte_size(&self) -> usize {
        self.row.len()
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
        self.bounds == other.bounds && self.row == other.row
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
/// length of every column of every row and the column count of every row.
/// Lengths, not bounds, so a table costs a byte per column whatever the
/// segment's size and cannot name a range that runs backwards. Panics on
/// an arena of rows of several shapes, which no table holds.
impl Serialize for RowArena {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> std::result::Result<(), S::Error> {
        assert!(
            !self.is_shapeless(),
            "rows of several shapes are not stored"
        );
        self.bytes.serialize(serializer)?;
        let cols = self.bounds.len().saturating_sub(1);
        serializer.begin_seq(self.len * cols)?;
        for _ in 0..self.len {
            self.bounds
                .windows(2)
                .try_for_each(|w| serializer.write_u64(u64::from(w[1] - w[0])))?;
        }
        serializer.begin_seq(self.len)?;
        (0..self.len).try_for_each(|_| serializer.write_u64(cols as u64))
    }
}

/// The one way from stored bytes to an arena. The input is the untrusted
/// provider's disk: the lengths must describe rows of one shape that
/// account for the buffer exactly, so no view of the result can index out
/// of bounds and no row differs from the others in width.
impl<'de> Deserialize<'de> for RowArena {
    fn deserialize<D: Deserializer<'de>>(
        deserializer: &mut D,
    ) -> std::result::Result<Self, D::Error> {
        let bytes = Vec::<u8>::deserialize(deserializer)?;
        let column_lens = Vec::<u32>::deserialize(deserializer)?;
        let row_cols = Vec::<u32>::deserialize(deserializer)?;
        let invalid = |what| Err(deserializer.invalid_value(what));
        let Some(&cols) = row_cols.first() else {
            if !column_lens.is_empty() || !bytes.is_empty() {
                return invalid("rows do not cover the columns");
            }
            return Ok(RowArena::new());
        };
        let cols = cols as usize;
        if cols < 2 {
            return invalid("a row has at least an Index and a payload column");
        }
        if row_cols.iter().any(|&n| n as usize != cols)
            || row_cols.len().checked_mul(cols) != Some(column_lens.len())
        {
            return invalid("rows differ in shape or do not cover the columns");
        }
        let (shape, rest) = column_lens.split_at(cols);
        if rest.chunks_exact(cols).any(|row| row != shape) {
            return invalid("rows differ in shape");
        }
        let mut bounds = Vec::with_capacity(cols + 1);
        bounds.push(0u32);
        for &len in shape {
            let Some(end) = bounds[bounds.len() - 1].checked_add(len) else {
                return invalid("column lengths overflow a row");
            };
            bounds.push(end);
        }
        let stride = bounds[cols] as usize;
        if stride.checked_mul(row_cols.len()) != Some(bytes.len()) {
            return invalid("column lengths do not cover the row bytes");
        }
        Ok(RowArena {
            bytes,
            bounds,
            len: row_cols.len(),
        })
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
    /// [`StorageError::RowShape`] when the rows are of several shapes and
    /// with [`StorageError::DuplicateKey`] when two rows share an `Index`
    /// value.
    pub fn bulk_load(rows: impl Into<RowArena>) -> Result<Self> {
        let rows = rows.into();
        if rows.is_shapeless() {
            return Err(StorageError::RowShape);
        }
        let index = KeyIndex::build(&rows)?;
        Ok(EncryptedTable { rows, index })
    }

    /// The table with replacement rows in place of the rows stored under
    /// the given old `Index` values (a §6 bin rewrite), every row id kept
    /// and the index rebuilt. When two replacements name one old key the
    /// later wins. A replacement of another shape than the table's rows
    /// yields [`StorageError::RowShape`], an old key the table does not
    /// hold [`StorageError::CardinalityMismatch`], and new keys that
    /// collide [`StorageError::DuplicateKey`]; `self` is never changed.
    pub(crate) fn replace_rows(
        &self,
        replacements: &[(Vec<u8>, EncryptedRow)],
    ) -> Result<EncryptedTable> {
        let mut new_rows = RowArena::new();
        for (_, row) in replacements {
            new_rows.push(row);
        }
        if !new_rows.is_empty() && !self.rows.is_empty() && new_rows.bounds != self.rows.bounds {
            return Err(StorageError::RowShape);
        }
        // Rows of one shape: each replacement overwrites its row in place.
        let old_keys: Vec<&[u8]> = replacements.iter().map(|(key, _)| &key[..]).collect();
        let mut rows = self.rows.clone();
        let (stride, new_slots) = (self.rows.stride(), new_rows.slots());
        let mut found = 0;
        for (k, (_, hit)) in self.lookup_many(&old_keys).hits().enumerate() {
            if let Some((pos, _)) = hit {
                let at = pos as usize * stride;
                rows.bytes[at..at + stride].copy_from_slice(new_slots.row(k));
                found += 1;
            }
        }
        if found != old_keys.len() {
            return Err(StorageError::CardinalityMismatch {
                expected: old_keys.len(),
                got: found,
            });
        }
        let index = KeyIndex::build(&rows)?;
        Ok(EncryptedTable { rows, index })
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
        let slots = self.rows.slots();
        let pos = self.index.get(trapdoor, slots)?;
        Some((pos as RowId, self.rows.view(slots.row(pos))))
    }

    /// [`Self::lookup`] for every trapdoor of a batch (one bin fetch), in
    /// their order, as a [`StagedLookup`]: its first stages run here, the
    /// last as its [`StagedLookup::hits`] are read. Equal to looking each
    /// up in turn; resolving them together lets the index and the rows
    /// overlap their memory accesses.
    pub(crate) fn lookup_many<'t, 'k, K: AsRef<[u8]>>(
        &'t self,
        trapdoors: &'k [K],
    ) -> StagedLookup<'t, 'k, K> {
        let lookup = StagedLookup {
            table: self,
            slots: self.rows.slots(),
            trapdoors,
            probes: self.index.candidates(trapdoors),
        };
        touch_lines(lookup.candidates());
        lookup
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
}

/// A batch of trapdoors looked up together against one table, in three
/// stages:
///
/// 1. every trapdoor's candidate row, through the index's first two
///    stages ([`KeyIndex::candidates`]), into one buffer;
/// 2. one pass of independent loads over every cache line of every
///    candidate row ([`touch_lines`]);
/// 3. per trapdoor, in order, as [`Self::hits`] are read: the key
///    confirmed against its candidate's first `key_width` bytes, and
///    whatever the caller does with the hit — copy it
///    ([`Self::copy_hits`]), compare it ([`Self::hits_equal`]) — done on
///    lines already on their way in.
///
/// The first two run in [`EncryptedTable::lookup_many`]. Every lookup and
/// every key confirmation is made; only the row-after-row waits for cache
/// misses go.
pub(crate) struct StagedLookup<'t, 'k, K> {
    table: &'t EncryptedTable,
    slots: Slots<'t>,
    trapdoors: &'k [K],
    probes: Vec<Probe>,
}

impl<'t, 'k, K: AsRef<[u8]>> StagedLookup<'t, 'k, K> {
    /// The candidate rows of the batch's trapdoors: the rows the hits
    /// will be, unless a trapdoor's prefix matches a row its key does not.
    fn candidates(&self) -> impl Iterator<Item = &'t [u8]> + '_ {
        let slots = self.slots;
        self.probes
            .iter()
            .filter_map(|probe| probe.candidate())
            .map(move |pos| slots.row(pos as usize))
    }

    /// Stage 3: per trapdoor, in order, the trapdoor and the row it names
    /// (its id and its bytes), or `None` on a miss.
    pub(crate) fn hits(&self) -> impl Iterator<Item = (&'k [u8], Option<(RowId, &'t [u8])>)> + '_ {
        let (index, slots) = (&self.table.index, self.slots);
        self.trapdoors
            .iter()
            .zip(&self.probes)
            .map(move |(t, &probe)| {
                let t = t.as_ref();
                let hit = index.confirm(t, probe, slots);
                (t, hit.map(|pos| (pos as RowId, slots.row(pos))))
            })
    }

    /// Stage 3 of a fetch: every hit copied, in trapdoor order, into one
    /// arena sized once for every candidate row; `seen` is told of every
    /// lookup (the trapdoor, and the row id and width of a hit).
    pub(crate) fn copy_hits(
        &self,
        mut seen: impl FnMut(&[u8], Option<(RowId, usize)>),
    ) -> RowArena {
        let table_rows = &self.table.rows;
        let mut rows = RowArena::new();
        let candidates = self.probes.iter().filter(|p| p.candidate().is_some());
        rows.bytes
            .reserve_exact(candidates.count() * self.slots.stride);
        for (trapdoor, hit) in self.hits() {
            seen(trapdoor, hit.map(|(id, row)| (id, row.len())));
            if let Some((_, row)) = hit {
                rows.push_copy(table_rows, row);
            }
        }
        rows
    }

    /// Stage 3 of a warm replay: whether the hits, in trapdoor order, are
    /// `expected` — the same rows byte for byte, of the same shape, as
    /// many — with every hit compared in full and no row copied; `seen`
    /// is told of every lookup as [`Self::copy_hits`] tells it.
    pub(crate) fn hits_equal(
        &self,
        expected: &RowArena,
        mut seen: impl FnMut(&[u8], Option<(RowId, usize)>),
    ) -> bool {
        let mut same = expected.is_empty() || expected.bounds == self.table.rows.bounds;
        let want = Slots {
            bytes: &expected.bytes,
            stride: self.slots.stride,
            key_width: 0,
        };
        let mut matched = 0usize;
        for (trapdoor, hit) in self.hits() {
            seen(trapdoor, hit.map(|(id, row)| (id, row.len())));
            if let Some((_, row)) = hit {
                same = same && matched < expected.len && want.row(matched) == row;
                matched += 1;
            }
        }
        same && matched == expected.len
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
        let table = EncryptedTable::bulk_load(rows.clone()).unwrap();
        let unchanged = |table: &EncryptedTable| {
            rows.iter()
                .enumerate()
                .all(|(i, r)| lookup(table, &r.index_key) == Some((i as RowId, r.clone())))
        };

        // Unknown old key: nothing moves, not even the known replacement.
        let err = table
            .replace_rows(&[(key(3), row(3, 0xAA)), (key(99), row(99, 0xBB))])
            .map(drop);
        assert_eq!(
            err,
            Err(StorageError::CardinalityMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(unchanged(&table));
        // A new key that collides with an untouched row, or with another
        // replacement: rejected, and the table is as it was.
        let err = table
            .replace_rows(&[(key(3), row(30, 0xAA)), (key(4), row(5, 0xBB))])
            .map(drop);
        assert_eq!(err, Err(StorageError::DuplicateKey));
        let err = table
            .replace_rows(&[(key(3), row(30, 0xAA)), (key(4), row(30, 0xBB))])
            .map(drop);
        assert_eq!(err, Err(StorageError::DuplicateKey));
        assert!(unchanged(&table));
        // A replacement of another shape — a payload byte longer, or a
        // filter column fewer: refused, and nothing moves.
        let mut wide = row(3, 0xAA);
        wide.payload.push(0);
        let mut narrow = row(4, 0xBB);
        narrow.filters.pop();
        for odd in [wide, narrow] {
            let err = table
                .replace_rows(&[(key(5), row(5, 0xCC)), (key(3), odd)])
                .map(drop);
            assert_eq!(err, Err(StorageError::RowShape));
            assert!(unchanged(&table));
        }

        // Same key with a new payload, a fresh key, and two rows trading keys.
        let table = table
            .replace_rows(&[
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

    /// Rows of one shape per arena; equal bytes cut at other boundaries
    /// are other rows, across arenas of different shapes.
    #[test]
    fn view_equality_sees_column_boundaries() {
        let split = |index_key: &[u8], filter: &[u8], payload: &[u8]| EncryptedRow {
            index_key: index_key.to_vec(),
            filters: vec![filter.to_vec()],
            payload: payload.to_vec(),
        };
        let arena = RowArena::from(vec![split(b"ab", b"c", b"d"), split(b"ab", b"c", b"d")]);
        let shifted = RowArena::from(vec![split(b"a", b"bc", b"d")]);
        let moved = RowArena::from(vec![split(b"ab", b"", b"cd")]);
        fn view(arena: &RowArena, i: usize) -> RowRef<'_> {
            arena.get(i).unwrap()
        }
        assert_ne!(view(&arena, 0), view(&shifted, 0));
        assert_ne!(view(&arena, 0), view(&moved, 0));
        assert_eq!(
            view(&arena, 0),
            view(&arena, 1),
            "equal rows at different offsets"
        );
        assert_eq!(view(&shifted, 0), split(b"a", b"bc", b"d"));
        assert_ne!(view(&shifted, 0), split(b"ab", b"c", b"d"));
        assert_ne!(arena.gather(&[0]), shifted);
        // The same bytes with a filter column more or less.
        let unsplit = EncryptedRow {
            index_key: b"ab".to_vec(),
            filters: vec![],
            payload: b"cd".to_vec(),
        };
        assert_ne!(view(&moved, 0), unsplit);
        assert_ne!(RowArena::from(vec![unsplit]), moved);
    }

    /// Appending a row of another shape leaves an arena with no shape:
    /// it keeps its count and bytes, equals no arena of one shape, no
    /// table takes it, and its rows cannot be read.
    #[test]
    fn rows_of_several_shapes_make_no_table() {
        let mixed = RowArena::from(vec![row(1, 1), row(2, 2), row(3, 3)]);
        let mut other = mixed.to_rows();
        other[1].payload.pop();
        let several = [
            other.clone(),
            vec![
                other[0].clone(),
                EncryptedRow {
                    filters: vec![],
                    ..other[0].clone()
                },
            ],
            vec![
                other[0].clone(),
                EncryptedRow {
                    index_key: vec![2; 9],
                    ..other[0].clone()
                },
            ],
        ];
        for rows in several {
            let arena = RowArena::from(rows.clone());
            assert!(arena.is_shapeless());
            assert_eq!(arena.len(), rows.len());
            assert_eq!(
                arena.byte_size(),
                rows.iter().map(EncryptedRow::byte_size).sum::<usize>()
            );
            assert_ne!(arena, mixed);
            assert_eq!(
                EncryptedTable::bulk_load(arena.clone()).err(),
                Some(StorageError::RowShape)
            );
            let read = std::panic::catch_unwind(|| arena.get(0).map(|r| r.to_row()));
            assert!(read.is_err(), "a row of a shapeless arena was read");
        }
        // An unfinished row of another shape changes nothing.
        let mut arena = mixed.clone();
        let mut writer = arena.begin_row();
        writer.column(b"x");
        writer.column(b"y");
        drop(writer);
        assert_eq!(arena, mixed);
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

    /// Rows of `rows` rows, all of one shape drawn per table, of every
    /// shape the arena must hold: 0–3 filters, columns of 0–5 bytes,
    /// empty ones included.
    pub(crate) struct OneShape {
        rows: std::ops::Range<usize>,
    }

    impl Strategy for OneShape {
        type Value = Vec<Columns>;

        fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Vec<Columns> {
            let widths = proptest::collection::vec(0usize..6, 2..6).generate(rng);
            let column = |rng: &mut proptest::test_runner::TestRng, width: usize| {
                proptest::collection::vec(any::<u8>(), width..width + 1).generate(rng)
            };
            let rows = self.rows.generate(rng);
            (0..rows)
                .map(|_| {
                    let (index, filters) = (widths[0], &widths[1..widths.len() - 1]);
                    (
                        column(rng, index),
                        filters.iter().map(|&w| column(rng, w)).collect(),
                        column(rng, widths[widths.len() - 1]),
                    )
                })
                .collect()
        }
    }

    pub(crate) fn row_of((index_key, filters, payload): Columns) -> EncryptedRow {
        EncryptedRow {
            index_key,
            filters,
            payload,
        }
    }

    /// Tables of one shape each, the empty table included.
    pub(crate) fn any_rows() -> impl Strategy<Value = Vec<Columns>> {
        OneShape { rows: 0..24 }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arena ≡ `Vec<EncryptedRow>` of one shape: views read back the
        /// rows column for column, and the two conversions are inverse to
        /// each other — on arenas laid out by `from`, and on arenas laid
        /// out by copying rows (`gather`).
        ///
        /// Gathering any picks, in any order, with rows repeated, and
        /// none, is the arena of the picked rows.
        #[test]
        fn prop_arena_is_the_rows(
            rows in any_rows(),
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

            let picks: Vec<u32> = match rows.len() {
                0 => Vec::new(),
                n => picks.iter().map(|p| (p % n) as u32).collect(),
            };
            for picks in [&picks[..], &[]] {
                let picked: Vec<EncryptedRow> = picks.iter().map(|&p| rows[p as usize].clone()).collect();
                prop_assert_eq!(arena.gather(picks), RowArena::from(picked));
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
        /// copying rows encodes to the bytes one filled from owned rows
        /// does — one stored byte per ciphertext byte, one per column and
        /// one per row — and decodes back to it.
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
        /// with replacement rows of the table's shape (`replacements`
        /// draws one table of them), and a replacement of another shape
        /// refused with the table unchanged.
        #[test]
        fn prop_replace_rows_matches_vec_model(
            shapes in OneShape { rows: 7..23 },
            at in proptest::collection::vec(any::<usize>(), 0..6),
            cut in any::<usize>(),
        ) {
            let (shapes, replacements) = shapes.split_at(shapes.len() / 2);
            let (shapes, replacements) = (shapes.to_vec(), replacements.to_vec());
            let replacements: Vec<(usize, Columns)> = at.into_iter().zip(replacements).collect();
            // Unique keys: the position, then whatever the strategy drew.
            let keyed = |i: usize, columns: Columns| {
                let mut row = row_of(columns);
                row.index_key.splice(0..0, (i as u32).to_be_bytes());
                row
            };
            let rows: Vec<EncryptedRow> =
                shapes.into_iter().enumerate().map(|(i, r)| keyed(i, r)).collect();
            let table = EncryptedTable::bulk_load(rows.clone()).unwrap();
            let mut model = rows.clone();
            let mut request = Vec::new();
            for (k, (at, row)) in replacements.into_iter().enumerate() {
                let at = at % rows.len();
                let row = keyed(rows.len() + k, row);
                model[at] = row.clone();
                request.push((rows[at].index_key.clone(), row));
            }
            // The same request with one replacement a column's byte wider
            // or narrower: refused.
            if !request.is_empty() {
                let mut odd = request.clone();
                let k = cut % odd.len();
                let row = &mut odd[k].1;
                if row.payload.pop().is_none() {
                    row.payload.push(0);
                }
                prop_assert_eq!(table.replace_rows(&odd).err(), Some(StorageError::RowShape));
            }
            let table = table.replace_rows(&request).unwrap();
            prop_assert_eq!(table.rows().to_rows(), model.clone());
            for (i, row) in model.iter().enumerate() {
                prop_assert_eq!(lookup(&table, &row.index_key), Some((i as RowId, row.clone())));
            }
        }

        /// A batch lookup is the single lookups in order — hits, misses,
        /// trapdoors that share a key's zero-padded prefix (`[1]` against
        /// `[1, 0]`), keys that share an 8-byte prefix, one trapdoor twice
        /// in a batch, and the empty batch — on tables of one key width.
        #[test]
        fn prop_lookup_many_is_lookup_per_trapdoor(
            width in 0usize..10,
            keys in proptest::collection::btree_set(proptest::collection::vec(0u8..3, 0..10), 0..60),
            picks in proptest::collection::vec(any::<usize>(), 0..40),
            misses in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..10), 0..10),
        ) {
            let keys: std::collections::BTreeSet<Vec<u8>> = keys
                .into_iter()
                .map(|mut key| {
                    key.resize(width, 0);
                    key
                })
                .collect();
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
                let singles: Vec<_> = singles
                    .into_iter()
                    .map(|hit| hit.map(|(id, row)| (id, row.row)))
                    .collect();
                let staged = table.lookup_many(batch);
                let hits: Vec<_> = staged.hits().map(|(_, hit)| hit).collect();
                prop_assert_eq!(hits, singles);
            }
        }
    }

    #[test]
    fn byte_size_accounts_all_columns() {
        let r = row(1, 3);
        assert_eq!(r.byte_size(), 8 + 8 + 8 + 32);
        let table = EncryptedTable::bulk_load(vec![row(1, 3), row(2, 4)]).unwrap();
        assert_eq!(table.rows().byte_size(), 2 * (8 + 8 + 8 + 32));
    }
}
