//! In-enclave filtering and aggregation of fetched bins (Step 4 of the BPB
//! method, §4.2–§4.3).
//!
//! A fetched bin contains every tuple of several cell-ids plus fake
//! padding; only some of those tuples satisfy the actual query predicate.
//! The enclave therefore:
//!
//! 1. builds the *filter tokens* — deterministic ciphertexts of the
//!    predicate values concatenated with each time granule in the queried
//!    range (`E_k(l||t)`, `E_k(o||t)`), exactly mirroring what the data
//!    provider stored in the filter columns,
//! 2. string-matches the fetched rows' filter columns against the sorted
//!    token lists (no decryption). The plain variant looks each token up
//!    in the unit's filter index ([`DecodedBin`]), so it visits only the
//!    rows whose column equals a token; a predicate the tokens cannot
//!    decide reads only the authentic rows inside its time range, through
//!    the unit's time index. That index carries each row's location and
//!    first payload value (32 B per row), so an aggregate that reads
//!    nothing else — a count, attribute 0, the per-location counts — and
//!    checks no observation tallies the index's entries and never opens a
//!    row's decode,
//! 3. decrypts the payload column only for rows that the aggregate actually
//!    needs values from (counts never decrypt; sums/min/max/top-k decrypt
//!    matching rows only).
//!
//! The *oblivious* variant (Concealer+) touches every row and every token
//! unconditionally, accumulates matches branch-free, decrypts every row when
//! any decryption is needed, and reports its work to the
//! [`SideChannelMeter`] so indistinguishability is testable.
//!
//! A row claimed by a fake trapdoor never contributes: no hash chain covers
//! fakes, so what the provider stored under a fake's `Index` value is
//! unchecked. Both variants take the verified fetch's fake mask
//! ([`crate::verify::verify_fetch`]; empty when the fetch was not verified)
//! and fail with [`CoreError::IntegrityViolation`] when a masked row matches
//! the filter tokens or — when the payload decides — authenticates. The
//! plain variant stops at the first such row; the oblivious one folds a flag
//! branch-free and checks it after the loop, so its metered work is that of
//! an honest fetch.

use std::ops::Deref;
use std::sync::OnceLock;

use concealer_crypto::EpochKey;
use concealer_enclave::oblivious::{oadd_if, oeq, omove};
use concealer_enclave::{MeterSnapshot, SideChannelMeter};
use concealer_storage::{RowArena, RowRef};

use crate::codec;
use crate::config::SystemConfig;
use crate::query::{Accumulator, Aggregate, Predicate};
use crate::types::EpochWindow;
use crate::{CoreError, Result};

/// What a row claimed by a fake trapdoor that would count is reported as.
const FAKE_SLOT_VIOLATION: CoreError = CoreError::IntegrityViolation { cell_id: u32::MAX };

/// The filter tokens and residual (post-decryption) checks for one query on
/// one epoch.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    /// Tokens matched against the dimension filter column. Empty when the
    /// predicate does not pin the indexed attributes.
    pub dim_tokens: Tokens,
    /// Tokens matched against the observation filter column. Empty when the
    /// predicate does not pin an observation.
    pub obs_tokens: Tokens,
    /// Inclusive time range every matching tuple must fall in (residual
    /// check applied after decryption when no token filter constrains the
    /// row).
    pub time_range: (u64, u64),
    /// Observation value residual check (when the row must be decrypted
    /// anyway).
    pub observation: Option<u64>,
    /// Whether token matching alone decides membership (true when the
    /// predicate pins the indexed attributes or the observation).
    pub token_decides: bool,
}

/// A set of filter tokens, held as a sorted list without duplicates: the
/// order a fold's binary searches and index walks rely on, kept by
/// construction. Collect tokens into it; read it as a slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tokens(Vec<Vec<u8>>);

impl Tokens {
    /// Whether `column` is one of the tokens.
    #[must_use]
    pub fn contains(&self, column: &[u8]) -> bool {
        self.0
            .binary_search_by(|token| token.as_slice().cmp(column))
            .is_ok()
    }
}

impl FromIterator<Vec<u8>> for Tokens {
    fn from_iter<I: IntoIterator<Item = Vec<u8>>>(tokens: I) -> Self {
        let mut tokens: Vec<Vec<u8>> = tokens.into_iter().collect();
        tokens.sort_unstable();
        tokens.dedup();
        Tokens(tokens)
    }
}

impl Deref for Tokens {
    type Target = [Vec<u8>];

    fn deref(&self) -> &[Vec<u8>] {
        &self.0
    }
}

/// One row's decoded payload: `(dims, time, payload)` as stored by the
/// provider.
pub type DecodedRow = (Vec<u64>, u64, Vec<u64>);

/// `(key, row)` pairs sorted by key: the shape of a filter index.
type RowIndex = Vec<(u64, u32)>;

/// One authentic row in a unit's time index: its decoded time, its row,
/// and what a tally reads of its decode — the first dimension (the
/// location) and the first payload value (attribute 0), each 0 where the
/// row has none, as [`fold_record`] reads them. 32 B.
#[derive(Debug, Clone, Copy)]
struct TimeEntry {
    time: u64,
    location: u64,
    value: u64,
    row: u32,
}

/// Whether a residual fold of `aggregate` under `plan` reads nothing but
/// what a [`TimeEntry`] holds: no observation to check, and an aggregate
/// of the count, the location or attribute 0. The aggregates are listed
/// one by one, so a new one visits its rows until it is added here.
fn tallies(plan: &FilterPlan, aggregate: &Aggregate) -> bool {
    plan.observation.is_none()
        && matches!(
            aggregate,
            Aggregate::Count
                | Aggregate::TopKLocations { .. }
                | Aggregate::LocationsWithAtLeast { .. }
                | Aggregate::Sum { attr: 0 }
                | Aggregate::Min { attr: 0 }
                | Aggregate::Max { attr: 0 }
                | Aggregate::Average { attr: 0 }
        )
}

/// Per-row payload decode cache and row indexes for one fetched unit.
///
/// Payload decryption is the dominant per-row cost of the filter stage, and
/// a batch frequently runs several queries over the same fetched bin. The
/// cache memoizes each row's decode outcome — `Some((dims, time, payload))`
/// for a successfully authenticated row, `None` for a volume-hiding fake
/// (whose payload fails authentication by design) — so the second query
/// over a bin decrypts nothing.
///
/// Beside the decodes it keeps what a plain fold needs to find the rows
/// that can match, each built by the first fold that needs it:
/// - per filter column, `(first 8 bytes, row)` over every row, sorted. The
///   first 8 bytes of a deterministic ciphertext are its SIV tag, which is
///   uniform, so a token's equal-prefix run is nearly always its matches
///   alone (a full compare settles the rest).
/// - `(decoded time, row, location, first payload value)` over the
///   authentic rows, sorted by time ([`TimeEntry`]), so a residual fold
///   that checks no observation and whose aggregate reads only those
///   tallies its in-range entries without a visit. It is built by
///   decoding every row in row order, as the residual fold does, and is
///   unusable — every residual fold then visits every row — when a row
///   fails to decode or an authentic row was claimed by a fake trapdoor,
///   so those folds fail exactly where a full scan does.
///
/// Each filter index takes 16 B per row of the unit, the time index 32 B
/// per authentic row.
///
/// A `DecodedBin` describes one fetch: every call passes it the same rows
/// and the same fake mask (a [`crate::bin_cache`] entry holds all three).
///
/// The cache changes no observable behaviour: the side-channel meter's
/// `decryptions` counter is driven by the *processing schedule* (which rows
/// the variant would decrypt), not by whether the cache already holds the
/// plaintext or which rows an index let the fold skip, so metered counts
/// are identical warm and cold. Slots and indexes are [`OnceLock`]s, making
/// concurrent filling from parallel per-query aggregation tasks safe.
/// Decode *errors* (a corrupt but authentic payload) are deliberately not
/// cached: they propagate to the caller and re-surface on every retry. The
/// slots themselves are allocated by the first decode, so a bin that only
/// ever answers token-decided counts never pays for them.
#[derive(Debug, Default)]
pub struct DecodedBin {
    rows: usize,
    slots: OnceLock<Vec<OnceLock<Option<DecodedRow>>>>,
    /// Per filter column (dims, observation): `(prefix, row)`, sorted.
    filters: [OnceLock<RowIndex>; 2],
    /// The authentic rows by time; `None` when unusable.
    times: OnceLock<Option<Vec<TimeEntry>>>,
}

impl DecodedBin {
    /// An empty cache for a bin of `rows` rows.
    #[must_use]
    pub fn new(rows: usize) -> Self {
        DecodedBin {
            rows,
            ..DecodedBin::default()
        }
    }

    /// The memoized decode of row `idx`, computing it on first use.
    /// `Ok(None)` marks a fake row (payload authentication failed).
    #[inline]
    fn get_or_decode(
        &self,
        idx: usize,
        key: &EpochKey,
        row: RowRef<'_>,
    ) -> Result<Option<&DecodedRow>> {
        let slots = self
            .slots
            .get_or_init(|| (0..self.rows).map(|_| OnceLock::new()).collect());
        match slots[idx].get() {
            Some(cached) => Ok(cached.as_ref()),
            None => decode_into(&slots[idx], key, row),
        }
    }

    /// Filter column `column`'s index over `rows`. A row without that
    /// column is left out: it matches no token.
    fn filter_index(&self, column: usize, rows: &RowArena) -> &[(u64, u32)] {
        self.filters[column].get_or_init(|| {
            let mut index = RowIndex::with_capacity(rows.len());
            index.extend(
                rows.iter()
                    .zip(0u32..)
                    .filter_map(|(row, idx)| Some((prefix(filter_of(row, column)?), idx))),
            );
            index.sort_unstable();
            index
        })
    }

    /// The time index over `rows` (see the type docs), or `None` where only
    /// a full scan reproduces the schedule's outcome.
    fn time_index(
        &self,
        key: &EpochKey,
        rows: &RowArena,
        fake_claimed: &[bool],
    ) -> Option<&[TimeEntry]> {
        self.times
            .get_or_init(|| {
                let mut entries = Vec::with_capacity(rows.len());
                for (row, idx) in rows.iter().zip(0u32..) {
                    let Some((dims, time, payload)) =
                        self.get_or_decode(idx as usize, key, row).ok()?
                    else {
                        continue;
                    };
                    if claimed(fake_claimed, idx as usize) {
                        return None;
                    }
                    entries.push(TimeEntry {
                        time: *time,
                        location: dims.first().copied().unwrap_or(0),
                        value: payload.first().copied().unwrap_or(0),
                        row: idx,
                    });
                }
                // A fetch returns each cell-id's rows in counter order, which
                // is the order the provider received them in: a few ascending
                // runs, which the stable sort merges rather than re-sorts.
                entries.sort_by_key(|entry| entry.time);
                Some(entries)
            })
            .as_deref()
    }
}

/// Decrypt and decode `row`'s payload into its (empty) slot. Kept out of
/// [`DecodedBin::get_or_decode`] so the per-row path of a warm bin stays a
/// load and a branch.
#[cold]
fn decode_into<'s>(
    slot: &'s OnceLock<Option<DecodedRow>>,
    key: &EpochKey,
    row: RowRef<'_>,
) -> Result<Option<&'s DecodedRow>> {
    let computed = match key.det.decrypt(row.payload()) {
        Err(_) => None, // fake tuple: fails authentication by design
        Ok(plain) => Some(codec::decode_payload_plain(&plain)?),
    };
    Ok(slot.get_or_init(|| computed).as_ref())
}

/// A filter column's index key: its first 8 bytes, big-endian, zero-padded.
/// Byte order and key order agree, so sorted tokens have ascending keys.
fn prefix(column: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let len = column.len().min(8);
    head[..len].copy_from_slice(&column[..len]);
    u64::from_be_bytes(head)
}

/// Filter column `column` of `row`, if the row has one.
fn filter_of(row: RowRef<'_>, column: usize) -> Option<&[u8]> {
    (column < row.filter_count()).then(|| row.filter(column))
}

/// Whether the fake mask marks row `idx` (an empty mask marks none).
fn claimed(fake_claimed: &[bool], idx: usize) -> bool {
    fake_claimed.get(idx).copied().unwrap_or(false)
}

/// Build the filter plan for a predicate against one epoch window.
#[must_use]
pub fn build_filter_plan(
    key: &EpochKey,
    config: &SystemConfig,
    predicate: &Predicate,
    window: EpochWindow,
) -> FilterPlan {
    let (t_start, t_end) = predicate.time_span();
    let lo = t_start.max(window.start);
    let hi = t_end.min(window.end().saturating_sub(1));
    let g = config.time_granularity.max(1);

    let mut dim_tokens = Vec::new();
    let mut obs_tokens = Vec::new();

    if lo <= hi {
        let first_granule = lo / g;
        let last_granule = hi / g;
        if let Some(dims) = predicate.dims() {
            for granule in first_granule..=last_granule {
                dim_tokens.push(key.det.encrypt(&codec::filter_dims_plain(dims, granule)));
            }
        }
        if let Some(obs) = predicate.observation() {
            for granule in first_granule..=last_granule {
                obs_tokens.push(key.det.encrypt(&codec::filter_obs_plain(obs, granule)));
            }
        }
    }
    let dim_tokens: Tokens = dim_tokens.into_iter().collect();
    let obs_tokens: Tokens = obs_tokens.into_iter().collect();

    let token_decides = !dim_tokens.is_empty() || !obs_tokens.is_empty();
    FilterPlan {
        dim_tokens,
        obs_tokens,
        time_range: (t_start, t_end),
        observation: predicate.observation(),
        token_decides,
    }
}

/// Filter and aggregate the rows of one fetched bin (plain variant).
/// `fake_claimed[i]` says a fake trapdoor claimed row `i` (see the module
/// docs); an empty mask checks nothing.
///
/// The fold visits, in ascending row order, only the rows that can change
/// its outcome: those whose filter columns equal a token when the tokens
/// decide, otherwise the authentic rows inside the time range — or every
/// row, when the unit's time index is unusable ([`DecodedBin`]). A row it
/// skips would have done nothing in a full scan, or (an authentic row
/// outside the time range) only been decrypted, which it still counts.
/// When the time index holds all the fold reads (`tallies`), it tallies
/// the in-range entries instead, in time order, and visits no row.
///
/// The matches fold straight into `acc`, the query's partial; on an error
/// `acc` holds what was folded before it. Returns the rows decrypted.
///
/// The metered `decryptions` count follows the processing schedule — one
/// per row the plain variant decrypts — whether or not `decoded` already
/// holds the plaintext, so warm and cold executions meter identically.
#[allow(clippy::too_many_arguments)]
pub fn process_rows_plain(
    key: &EpochKey,
    plan: &FilterPlan,
    aggregate: &Aggregate,
    rows: &RowArena,
    decoded: &DecodedBin,
    fake_claimed: &[bool],
    meter: &SideChannelMeter,
    acc: &mut Accumulator,
) -> Result<usize> {
    let mut fold = PlainFold {
        key,
        plan,
        aggregate,
        rows,
        decoded,
        fake_claimed,
        acc,
        decrypted: 0,
        ops: MeterSnapshot::default(),
    };
    let out = if plan.token_decides {
        fold.visit(token_matches(plan, rows, decoded))
    } else if let Some(entries) = decoded.time_index(key, rows, fake_claimed) {
        let (lo, hi) = plan.time_range;
        let start = entries.partition_point(|entry| entry.time < lo);
        let end = entries.partition_point(|entry| entry.time <= hi).max(start);
        let in_range = &entries[start..end];
        // The schedule decrypts every authentic row; those outside the
        // range are only counted.
        let skipped = entries.len() - in_range.len();
        fold.decrypted += skipped;
        fold.ops.decryptions += skipped as u64;
        if tallies(plan, aggregate) {
            // The schedule decrypts every in-range row too, and each
            // entry holds all the aggregate reads of its row.
            fold.decrypted += in_range.len();
            fold.ops.decryptions += in_range.len() as u64;
            for entry in in_range {
                fold_value(fold.acc, aggregate, entry.location, entry.value);
            }
            Ok(())
        } else {
            let mut in_range: Vec<usize> =
                in_range.iter().map(|entry| entry.row as usize).collect();
            in_range.sort_unstable();
            fold.visit(in_range)
        }
    } else {
        fold.visit(0..rows.len())
    };
    // Counters are accumulated locally and flushed once per call so the
    // shared meter mutex is not taken per row (see
    // `SideChannelMeter::add_snapshot`). On an error they hold the work
    // done up to it: that work *was* performed, and the meter is the
    // side-channel model the security tests reason about.
    meter.add_snapshot(fold.ops);
    out.map(|()| fold.decrypted)
}

/// The rows whose filter columns satisfy `plan`'s token sets, ascending:
/// every token looked up in one column's index. A row must also match the
/// other column's tokens, when there are any.
fn token_matches(plan: &FilterPlan, rows: &RowArena, decoded: &DecodedBin) -> Vec<usize> {
    let (column, tokens) = if plan.dim_tokens.is_empty() {
        (1, &plan.obs_tokens)
    } else {
        (0, &plan.dim_tokens)
    };
    let obs_ok = |row: RowRef<'_>| {
        column == 1
            || plan.obs_tokens.is_empty()
            || filter_of(row, 1).is_some_and(|obs| plan.obs_tokens.contains(obs))
    };
    let index = decoded.filter_index(column, rows);
    let mut matches = Vec::new();
    // Tokens ascend, and so do their keys: each search starts where the
    // previous token's run began.
    let mut from = 0;
    for token in tokens.iter() {
        let key = prefix(token);
        from += index[from..].partition_point(|&(k, _)| k < key);
        for &(_, idx) in index[from..].iter().take_while(|&&(k, _)| k == key) {
            let idx = idx as usize;
            let row = rows.get(idx).expect("an indexed row is in the unit");
            if filter_of(row, column) == Some(token.as_slice()) && obs_ok(row) {
                matches.push(idx);
            }
        }
    }
    matches.sort_unstable();
    matches
}

/// One plain fold over one unit: the per-row body every visit order shares.
struct PlainFold<'a> {
    key: &'a EpochKey,
    plan: &'a FilterPlan,
    aggregate: &'a Aggregate,
    rows: &'a RowArena,
    decoded: &'a DecodedBin,
    fake_claimed: &'a [bool],
    acc: &'a mut Accumulator,
    decrypted: usize,
    ops: MeterSnapshot,
}

impl PlainFold<'_> {
    /// Fold the rows `visit` names, in its order, stopping at the first
    /// error.
    fn visit(&mut self, visit: impl IntoIterator<Item = usize>) -> Result<()> {
        visit.into_iter().try_for_each(|idx| self.row(idx))
    }

    /// Fold row `idx`. When the tokens decide, the caller has matched it.
    fn row(&mut self, idx: usize) -> Result<()> {
        let plan = self.plan;
        let is_fake = claimed(self.fake_claimed, idx);
        if plan.token_decides {
            if is_fake {
                return Err(FAKE_SLOT_VIOLATION);
            }
            if !self.aggregate.needs_decryption() {
                self.acc.count += 1;
                return Ok(());
            }
        }
        // Need the payload: either the aggregate requires values, or the
        // predicate could not be decided by tokens alone.
        let row = self.rows.get(idx).expect("a visited row is in the unit");
        let decoded = self.decoded;
        let slot = decoded
            .get_or_decode(idx, self.key, row)
            // The decryption preceding a failed decode did succeed.
            .inspect_err(|_| self.ops.decryptions += 1)?;
        let Some((dims, time, payload)) = slot else {
            return Ok(()); // fake tuple
        };
        self.decrypted += 1;
        self.ops.decryptions += 1;
        if is_fake {
            return Err(FAKE_SLOT_VIOLATION);
        }
        if !plan.token_decides {
            if *time < plan.time_range.0 || *time > plan.time_range.1 {
                return Ok(());
            }
            if let Some(obs) = plan.observation {
                if payload.first().copied() != Some(obs) {
                    return Ok(());
                }
            }
        }
        fold_record(self.acc, self.aggregate, dims, *time, payload);
        Ok(())
    }
}

/// Filter and aggregate obliviously (Concealer+): every row and every token
/// is touched; the number of decryptions equals the number of rows whenever
/// any decryption is needed at all. `fake_claimed` is
/// [`process_rows_plain`]'s.
pub fn process_rows_oblivious(
    key: &EpochKey,
    plan: &FilterPlan,
    aggregate: &Aggregate,
    rows: &RowArena,
    decoded: &DecodedBin,
    fake_claimed: &[bool],
    meter: &SideChannelMeter,
) -> Result<(Accumulator, usize)> {
    let mut acc = Accumulator::default();
    let mut decrypted = 0usize;
    let needs_payload = aggregate.needs_decryption() || !plan.token_decides;
    // Accumulated locally, flushed once per call — the computation *shape*
    // recorded is unchanged, but the shared mutex is not taken per row or
    // per token (see `SideChannelMeter::add_snapshot`).
    let mut ops = MeterSnapshot::default();
    // 1 once a row a fake trapdoor claimed would have contributed.
    let mut fake_contributed = 0u64;

    for (idx, row) in rows.iter().enumerate() {
        let fake = u64::from(claimed(fake_claimed, idx));
        ops.element_touches += 1;
        // Branch-free token matching: compare against every token.
        let mut dim_match = 0u64;
        for token in plan.dim_tokens.iter() {
            ops.comparisons += 1;
            dim_match = omove(bytes_eq_flag(token, row.filter(0)), 1, dim_match);
        }
        let mut obs_match = 0u64;
        for token in plan.obs_tokens.iter() {
            ops.comparisons += 1;
            obs_match = omove(bytes_eq_flag(token, row.filter(1)), 1, obs_match);
        }
        let dim_ok = if plan.dim_tokens.is_empty() {
            1
        } else {
            dim_match
        };
        let obs_ok = if plan.obs_tokens.is_empty() {
            1
        } else {
            obs_match
        };
        let mut matched = dim_ok & obs_ok;
        if plan.token_decides {
            fake_contributed |= fake & matched;
        }

        if needs_payload {
            // Every row is decrypted regardless of the match flag; the
            // count is per-schedule, so a decode-cache hit meters the same.
            decrypted += 1;
            ops.decryptions += 1;
            let slot = match decoded.get_or_decode(idx, key, row) {
                Ok(slot) => slot,
                Err(e) => {
                    meter.add_snapshot(ops);
                    return Err(e);
                }
            };
            let authentic = u64::from(slot.is_some());
            if !plan.token_decides {
                fake_contributed |= fake & authentic;
            }
            // A row that fails authentication (a fake) folds a fixed dummy
            // record that cannot match, so it costs what a real row costs.
            let (dims, time, payload) = slot.map_or((&[][..], 0, &[][..]), |(d, t, p)| {
                (d.as_slice(), *t, p.as_slice())
            });
            if !plan.token_decides {
                let in_range = u64::from(time >= plan.time_range.0 && time <= plan.time_range.1);
                let obs_ok = match plan.observation {
                    Some(obs) => oeq(payload.first().copied().unwrap_or(u64::MAX), obs),
                    None => 1,
                };
                matched = in_range & obs_ok;
            }
            matched &= authentic;
            ops.cmoves += 4;
            fold_record_oblivious(&mut acc, aggregate, dims, time, payload, matched);
        } else {
            ops.cmoves += 1;
            acc.count = oadd_if(matched, acc.count, 1);
        }
    }
    meter.add_snapshot(ops);
    if fake_contributed != 0 {
        return Err(FAKE_SLOT_VIOLATION);
    }
    Ok((acc, decrypted))
}

/// Constant-shape byte equality: accumulates a difference mask over the full
/// length and returns 1 when equal.
fn bytes_eq_flag(a: &[u8], b: &[u8]) -> u64 {
    if a.len() != b.len() {
        // Lengths are public (all ciphertexts in a column share a width), so
        // branching on them is not a leak.
        return 0;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    oeq(u64::from(diff), 0)
}

/// Fold one matching row into `acc`.
fn fold_record(
    acc: &mut Accumulator,
    aggregate: &Aggregate,
    dims: &[u64],
    time: u64,
    payload: &[u64],
) {
    let location = dims.first().copied().unwrap_or(0);
    let value = payload.get(aggregate_attr(aggregate)).copied().unwrap_or(0);
    fold_value(acc, aggregate, location, value);
    if matches!(aggregate, Aggregate::CollectRows) {
        acc.rows.push(crate::types::Record {
            dims: dims.to_vec(),
            time,
            payload: payload.to_vec(),
        });
    }
}

/// Fold one matching row's location and aggregated value into `acc`: all
/// of a row that every aggregate but `CollectRows` reads.
fn fold_value(acc: &mut Accumulator, aggregate: &Aggregate, location: u64, value: u64) {
    acc.count += 1;
    acc.sum = acc.sum.wrapping_add(value);
    acc.min = Some(acc.min.map_or(value, |m| m.min(value)));
    acc.max = Some(acc.max.map_or(value, |m| m.max(value)));
    if matches!(
        aggregate,
        Aggregate::TopKLocations { .. } | Aggregate::LocationsWithAtLeast { .. }
    ) {
        *acc.per_location.entry(location).or_insert(0) += 1;
    }
}

fn fold_record_oblivious(
    acc: &mut Accumulator,
    aggregate: &Aggregate,
    dims: &[u64],
    time: u64,
    payload: &[u64],
    matched: u64,
) {
    acc.count = oadd_if(matched, acc.count, 1);
    let attr = aggregate_attr(aggregate);
    let value = payload.get(attr).copied().unwrap_or(0);
    acc.sum = oadd_if(matched, acc.sum, value);
    let cur_min = acc.min.unwrap_or(u64::MAX);
    let cur_max = acc.max.unwrap_or(0);
    let new_min = omove(matched, cur_min.min(value), cur_min);
    let new_max = omove(matched, cur_max.max(value), cur_max);
    if acc.count > 0 {
        acc.min = Some(new_min);
        acc.max = Some(new_max);
    }
    if matches!(
        aggregate,
        Aggregate::TopKLocations { .. } | Aggregate::LocationsWithAtLeast { .. }
    ) && matched == 1
    {
        *acc.per_location
            .entry(dims.first().copied().unwrap_or(0))
            .or_insert(0) += 1;
    }
    if matches!(aggregate, Aggregate::CollectRows) && matched == 1 {
        acc.rows.push(crate::types::Record {
            dims: dims.to_vec(),
            time,
            payload: payload.to_vec(),
        });
    }
}

fn aggregate_attr(aggregate: &Aggregate) -> usize {
    match aggregate {
        Aggregate::Sum { attr }
        | Aggregate::Min { attr }
        | Aggregate::Max { attr }
        | Aggregate::Average { attr } => *attr,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use concealer_crypto::{EpochId, MasterKey};
    use concealer_storage::EncryptedRow;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn key() -> EpochKey {
        MasterKey::from_bytes([6u8; 32]).epoch_key(EpochId(0), 0)
    }

    fn config() -> SystemConfig {
        SystemConfig::small_test()
    }

    fn window() -> EpochWindow {
        EpochWindow {
            start: 0,
            duration: 3600,
        }
    }

    /// Encrypt a row exactly the way the provider does.
    fn real_row(key: &EpochKey, loc: u64, time: u64, obs: u64) -> EncryptedRow {
        valued_row(key, loc, time, obs, &[obs])
    }

    /// [`real_row`] with the payload values `payload`, which need not hold
    /// `obs`.
    fn valued_row(key: &EpochKey, loc: u64, time: u64, obs: u64, payload: &[u64]) -> EncryptedRow {
        let granule = time / config().time_granularity;
        EncryptedRow {
            index_key: key.det.encrypt(&codec::index_real_plain(0, 1)),
            filters: vec![
                key.det.encrypt(&codec::filter_dims_plain(&[loc], granule)),
                key.det.encrypt(&codec::filter_obs_plain(obs, granule)),
            ],
            payload: key
                .det
                .encrypt(&codec::payload_plain(&[loc], time, payload)),
        }
    }

    /// [`process_rows_plain`] into a fresh accumulator, returned beside the
    /// rows decrypted, as [`process_rows_oblivious`] returns them.
    fn plain_fold(
        key: &EpochKey,
        plan: &FilterPlan,
        aggregate: &Aggregate,
        rows: &RowArena,
        decoded: &DecodedBin,
        fake_claimed: &[bool],
        meter: &SideChannelMeter,
    ) -> Result<(Accumulator, usize)> {
        let mut acc = Accumulator::default();
        process_rows_plain(
            key,
            plan,
            aggregate,
            rows,
            decoded,
            fake_claimed,
            meter,
            &mut acc,
        )
        .map(|decrypted| (acc, decrypted))
    }

    /// A fake tuple as the provider ships one: zero filler as wide as a
    /// real row's columns.
    fn fake_row(key: &EpochKey) -> EncryptedRow {
        fake_like(key, &real_row(key, 0, 0, 0))
    }

    /// A fake tuple as wide, column for column, as `real`.
    fn fake_like(key: &EpochKey, real: &EncryptedRow) -> EncryptedRow {
        EncryptedRow {
            index_key: key.det.encrypt(&codec::index_fake_plain(1)),
            filters: real.filters.iter().map(|f| vec![0u8; f.len()]).collect(),
            payload: vec![0u8; real.payload.len()],
        }
    }

    #[test]
    fn count_matches_without_decryption() {
        let key = key();
        let meter = SideChannelMeter::new();
        let rows = RowArena::from(vec![
            real_row(&key, 3, 100, 9),
            real_row(&key, 3, 200, 9),
            real_row(&key, 4, 100, 9),
            fake_row(&key),
        ]);
        let predicate = Predicate::Range {
            dims: Some(vec![3]),
            observation: None,
            time_start: 0,
            time_end: 3599,
        };
        let plan = build_filter_plan(&key, &config(), &predicate, window());
        let (acc, decrypted) = plain_fold(
            &key,
            &plan,
            &Aggregate::Count,
            &rows,
            &DecodedBin::new(rows.len()),
            &[],
            &meter,
        )
        .unwrap();
        assert_eq!(acc.count, 2);
        assert_eq!(decrypted, 0, "count queries must not decrypt");
    }

    #[test]
    fn sum_decrypts_only_matching_rows() {
        let key = key();
        let meter = SideChannelMeter::new();
        let rows = RowArena::from(vec![
            real_row(&key, 3, 100, 10),
            real_row(&key, 3, 200, 20),
            real_row(&key, 5, 100, 99),
            fake_row(&key),
        ]);
        let predicate = Predicate::Range {
            dims: Some(vec![3]),
            observation: None,
            time_start: 0,
            time_end: 3599,
        };
        let plan = build_filter_plan(&key, &config(), &predicate, window());
        let (acc, decrypted) = plain_fold(
            &key,
            &plan,
            &Aggregate::Sum { attr: 0 },
            &rows,
            &DecodedBin::new(rows.len()),
            &[],
            &meter,
        )
        .unwrap();
        assert_eq!(acc.count, 2);
        assert_eq!(acc.sum, 30);
        assert_eq!(decrypted, 2);
    }

    #[test]
    fn observation_predicate_uses_obs_tokens() {
        let key = key();
        let meter = SideChannelMeter::new();
        let rows = RowArena::from(vec![
            real_row(&key, 1, 100, 42),
            real_row(&key, 2, 150, 42),
            real_row(&key, 3, 100, 7),
        ]);
        let predicate = Predicate::Range {
            dims: None,
            observation: Some(42),
            time_start: 0,
            time_end: 3599,
        };
        let plan = build_filter_plan(&key, &config(), &predicate, window());
        assert!(plan.dim_tokens.is_empty());
        assert!(!plan.obs_tokens.is_empty());
        let (acc, _) = plain_fold(
            &key,
            &plan,
            &Aggregate::Count,
            &rows,
            &DecodedBin::new(rows.len()),
            &[],
            &meter,
        )
        .unwrap();
        assert_eq!(acc.count, 2);
    }

    #[test]
    fn unconstrained_dims_filters_on_decrypted_time() {
        let key = key();
        let meter = SideChannelMeter::new();
        let rows = RowArena::from(vec![
            real_row(&key, 1, 100, 1),
            real_row(&key, 2, 2000, 1),
            real_row(&key, 3, 3599, 1),
        ]);
        let predicate = Predicate::Range {
            dims: None,
            observation: None,
            time_start: 0,
            time_end: 1000,
        };
        let plan = build_filter_plan(&key, &config(), &predicate, window());
        assert!(!plan.token_decides);
        let (acc, decrypted) = plain_fold(
            &key,
            &plan,
            &Aggregate::TopKLocations { k: 5 },
            &rows,
            &DecodedBin::new(rows.len()),
            &[],
            &meter,
        )
        .unwrap();
        assert_eq!(acc.count, 1);
        assert_eq!(decrypted, 3, "must decrypt everything to decide");
        assert_eq!(acc.per_location.get(&1), Some(&1));
    }

    #[test]
    fn oblivious_matches_plain_results() {
        let key = key();
        let meter = SideChannelMeter::new();
        let rows = RowArena::from(vec![
            real_row(&key, 3, 100, 10),
            real_row(&key, 3, 200, 20),
            real_row(&key, 4, 100, 30),
            fake_row(&key),
        ]);
        for aggregate in [
            Aggregate::Count,
            Aggregate::Sum { attr: 0 },
            Aggregate::Min { attr: 0 },
            Aggregate::Max { attr: 0 },
        ] {
            let predicate = Predicate::Range {
                dims: Some(vec![3]),
                observation: None,
                time_start: 0,
                time_end: 3599,
            };
            let plan = build_filter_plan(&key, &config(), &predicate, window());
            let (plain, _) = plain_fold(
                &key,
                &plan,
                &aggregate,
                &rows,
                &DecodedBin::new(rows.len()),
                &[],
                &meter,
            )
            .unwrap();
            let (obliv, _) = process_rows_oblivious(
                &key,
                &plan,
                &aggregate,
                &rows,
                &DecodedBin::new(rows.len()),
                &[],
                &meter,
            )
            .unwrap();
            assert_eq!(plain.count, obliv.count, "{aggregate:?}");
            assert_eq!(plain.sum, obliv.sum, "{aggregate:?}");
            assert_eq!(
                plain.clone().finish(&aggregate),
                obliv.clone().finish(&aggregate),
                "{aggregate:?}"
            );
        }
    }

    #[test]
    fn oblivious_decrypts_every_row_for_value_aggregates() {
        let key = key();
        let meter = SideChannelMeter::new();
        let rows = RowArena::from(vec![
            real_row(&key, 3, 100, 10),
            real_row(&key, 9, 100, 20),
            real_row(&key, 9, 200, 30),
        ]);
        let predicate = Predicate::Range {
            dims: Some(vec![3]),
            observation: None,
            time_start: 0,
            time_end: 3599,
        };
        let plan = build_filter_plan(&key, &config(), &predicate, window());
        let (_, decrypted) = process_rows_oblivious(
            &key,
            &plan,
            &Aggregate::Sum { attr: 0 },
            &rows,
            &DecodedBin::new(rows.len()),
            &[],
            &meter,
        )
        .unwrap();
        assert_eq!(decrypted, 3);
    }

    #[test]
    fn oblivious_work_independent_of_predicate_selectivity() {
        let key = key();
        let meter = SideChannelMeter::new();
        let rows: RowArena = (0..20)
            .map(|i| real_row(&key, i % 4, 100 + i * 10, i))
            .collect::<Vec<_>>()
            .into();
        let mk_plan = |loc: u64| {
            build_filter_plan(
                &key,
                &config(),
                &Predicate::Point {
                    dims: vec![loc],
                    time: 100,
                },
                window(),
            )
        };
        let (_, d1) = meter.measure(|| {
            process_rows_oblivious(
                &key,
                &mk_plan(0),
                &Aggregate::Count,
                &rows,
                &DecodedBin::new(rows.len()),
                &[],
                &meter,
            )
            .unwrap()
        });
        let (_, d2) = meter.measure(|| {
            process_rows_oblivious(
                &key,
                &mk_plan(3),
                &Aggregate::Count,
                &rows,
                &DecodedBin::new(rows.len()),
                &[],
                &meter,
            )
            .unwrap()
        });
        assert_eq!(d1.element_touches, d2.element_touches);
        assert_eq!(d1.comparisons, d2.comparisons);
        assert_eq!(d1.decryptions, d2.decryptions);
    }

    #[test]
    fn decode_cache_reuse_preserves_answers_and_meter_counts() {
        let key = key();
        let meter = SideChannelMeter::new();
        let rows = RowArena::from(vec![
            real_row(&key, 3, 100, 10),
            real_row(&key, 3, 200, 20),
            real_row(&key, 4, 100, 30),
            fake_row(&key),
        ]);
        let predicate = Predicate::Range {
            dims: Some(vec![3]),
            observation: None,
            time_start: 0,
            time_end: 3599,
        };
        let plan = build_filter_plan(&key, &config(), &predicate, window());
        let shared = DecodedBin::new(rows.len());
        for variant in ["plain", "oblivious"] {
            let run = |decoded: &DecodedBin| {
                meter.measure(|| {
                    if variant == "plain" {
                        plain_fold(
                            &key,
                            &plan,
                            &Aggregate::Sum { attr: 0 },
                            &rows,
                            decoded,
                            &[],
                            &meter,
                        )
                        .unwrap()
                    } else {
                        process_rows_oblivious(
                            &key,
                            &plan,
                            &Aggregate::Sum { attr: 0 },
                            &rows,
                            decoded,
                            &[],
                            &meter,
                        )
                        .unwrap()
                    }
                })
            };
            let ((cold_acc, cold_d), cold_ops) = run(&shared);
            // Second pass over the same DecodedBin: every slot is already
            // filled, yet results and metered counters must be identical.
            let ((warm_acc, warm_d), warm_ops) = run(&shared);
            assert_eq!(cold_acc.count, warm_acc.count, "{variant}");
            assert_eq!(cold_acc.sum, warm_acc.sum, "{variant}");
            assert_eq!(cold_d, warm_d, "{variant}");
            assert_eq!(cold_ops, warm_ops, "{variant} meter counters");
            // And both match a cache-free execution.
            let ((fresh_acc, fresh_d), fresh_ops) = run(&DecodedBin::new(rows.len()));
            assert_eq!(fresh_acc.sum, warm_acc.sum, "{variant}");
            assert_eq!(fresh_d, warm_d, "{variant}");
            assert_eq!(fresh_ops, warm_ops, "{variant} meter counters");
        }
    }

    /// A fake slot carrying a real row's columns: unmasked it counts, masked
    /// it is refused whenever it would contribute — by a token match, or by
    /// authenticating when the payload decides — and the oblivious variant
    /// meters the refused fetch exactly as it meters it unmasked.
    #[test]
    fn a_row_claimed_by_a_fake_trapdoor_never_contributes() {
        let key = key();
        let counted = real_row(&key, 3, 100, 10);
        let honest = RowArena::from(vec![
            counted.clone(),
            real_row(&key, 4, 200, 20),
            fake_row(&key),
        ]);
        let carrying = RowArena::from(vec![
            counted.clone(),
            real_row(&key, 4, 200, 20),
            EncryptedRow {
                index_key: fake_row(&key).index_key,
                ..counted
            },
        ]);
        let mask = [false, false, true];
        let range = |dims: Option<Vec<u64>>| Predicate::Range {
            dims,
            observation: None,
            time_start: 0,
            time_end: 3599,
        };
        let meter = SideChannelMeter::new();
        // Per case, the honest count; the copy adds one.
        for (predicate, aggregate, count) in [
            (range(Some(vec![3])), Aggregate::Count, 1),
            (range(Some(vec![3])), Aggregate::Sum { attr: 0 }, 1),
            (range(None), Aggregate::TopKLocations { k: 2 }, 2),
        ] {
            let plan = build_filter_plan(&key, &config(), &predicate, window());
            for oblivious in [false, true] {
                let run = |rows: &RowArena, mask: &[bool]| {
                    let decoded = DecodedBin::new(rows.len());
                    meter.measure(|| {
                        let process = if oblivious {
                            process_rows_oblivious
                        } else {
                            plain_fold
                        };
                        process(&key, &plan, &aggregate, rows, &decoded, mask, &meter)
                            .map(|(acc, _)| acc.count)
                    })
                };
                let what = format!("{aggregate:?}, oblivious {oblivious}");
                let (unmasked, unmasked_ops) = run(&carrying, &[]);
                let (refused, refused_ops) = run(&carrying, &mask);
                let (fine, _) = run(&honest, &mask);
                assert_eq!(unmasked, Ok(count + 1), "{what}: the copy counts unmasked");
                assert_eq!(refused, Err(FAKE_SLOT_VIOLATION), "{what}");
                assert_eq!(fine, Ok(count), "{what}: an honest fake is no violation");
                if oblivious {
                    assert_eq!(refused_ops, unmasked_ops, "{what}: meter");
                }
            }
        }
    }

    #[test]
    fn point_predicate_single_token() {
        let key = key();
        let plan = build_filter_plan(
            &key,
            &config(),
            &Predicate::Point {
                dims: vec![7],
                time: 120,
            },
            window(),
        );
        assert_eq!(plan.dim_tokens.len(), 1);
        assert!(plan.obs_tokens.is_empty());
        assert!(plan.token_decides);
    }

    /// A 30-minute range's tokens, byte for byte: one location, an
    /// observation, and two dims with an observation.
    #[test]
    fn filter_tokens_are_pinned() {
        let key = key();
        let range = |dims: Option<Vec<u64>>, observation: Option<u64>| Predicate::Range {
            dims,
            observation,
            time_start: 600,
            time_end: 600 + 30 * 60 - 1,
        };
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let pinned = |tokens: &Tokens| {
            let all: Vec<u8> = tokens.iter().flatten().copied().collect();
            (
                tokens.len(),
                tokens.first().map_or(String::new(), |t| hex(t)),
                hex(&concealer_crypto::sha256::sha256(&all)),
            )
        };
        let none = (
            0,
            String::new(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855".to_string(),
        );
        let location = (
            30,
            "031f62e32002138b8b81ccf81ef835d607fa1cde43665477cac58320f0a11bf375fffa".to_string(),
            "4ce52e855fe402a1a83080a714bfbba223fa5f33563113028acda91c232cb85f".to_string(),
        );
        let observation = (
            30,
            "018572943ac880540f1d5671a2818d597bcd682ad2d83579c6e4a9d25cc3c0a924".to_string(),
            "74063e3ccfb123fed6106945e666ca4ff944a7bffc3cccd5414dc567ee736237".to_string(),
        );
        let two_dims = (
            30,
            "0445508d53f47140615ea925ac64dd1d204f808742045dc1fbadcaca1423acbe1963f573787643431374cb"
                .to_string(),
            "4de0cad368a50c99888d8fa7b1deec3dae05cf838aff39eede96d648993c576d".to_string(),
        );
        for (predicate, dims, obs) in [
            (range(Some(vec![7]), None), &location, &none),
            (range(None, Some(1042)), &none, &observation),
            (range(Some(vec![7, 9]), Some(1042)), &two_dims, &observation),
        ] {
            let plan = build_filter_plan(&key, &config(), &predicate, window());
            assert_eq!(&pinned(&plan.dim_tokens), dims, "{predicate:?}");
            assert_eq!(&pinned(&plan.obs_tokens), obs, "{predicate:?}");
        }
    }

    #[test]
    fn tokens_are_sorted_and_unique_however_collected() {
        let tokens: Tokens = [b"c", b"a", b"c", b"b"]
            .map(|t| t.to_vec())
            .into_iter()
            .collect();
        assert_eq!(&*tokens, &[b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert!(tokens.contains(b"b"));
        assert!(!tokens.contains(b"d"));
    }

    #[test]
    fn range_outside_window_produces_no_tokens() {
        let key = key();
        let plan = build_filter_plan(
            &key,
            &config(),
            &Predicate::Range {
                dims: Some(vec![7]),
                observation: None,
                time_start: 10_000,
                time_end: 20_000,
            },
            window(),
        );
        assert!(plan.dim_tokens.is_empty());
    }

    /// The plain fold as it was before the unit indexes: every row in row
    /// order, each filter column looked up in the token sets. The oracle of
    /// `process_rows_plain`.
    fn full_scan(
        key: &EpochKey,
        plan: &FilterPlan,
        aggregate: &Aggregate,
        rows: &RowArena,
        decoded: &DecodedBin,
        fake_claimed: &[bool],
        meter: &SideChannelMeter,
    ) -> Result<(Accumulator, usize)> {
        let mut acc = Accumulator::default();
        let mut decrypted = 0usize;
        let mut ops = MeterSnapshot::default();
        let is_fake = |idx: usize| fake_claimed.get(idx).copied().unwrap_or(false);
        let matches = |tokens: &[Vec<u8>], column: &[u8]| {
            tokens.is_empty() || tokens.iter().any(|t| t.as_slice() == column)
        };
        for (idx, row) in rows.iter().enumerate() {
            let token_match = matches(&plan.dim_tokens, row.filter(0))
                && matches(&plan.obs_tokens, row.filter(1));
            if plan.token_decides {
                if !token_match {
                    continue;
                }
                if is_fake(idx) {
                    meter.add_snapshot(ops);
                    return Err(FAKE_SLOT_VIOLATION);
                }
                if !aggregate.needs_decryption() {
                    acc.count += 1;
                    continue;
                }
            }
            let slot = match decoded.get_or_decode(idx, key, row) {
                Ok(slot) => slot,
                Err(e) => {
                    ops.decryptions += 1;
                    meter.add_snapshot(ops);
                    return Err(e);
                }
            };
            let Some((dims, time, payload)) = slot else {
                continue;
            };
            decrypted += 1;
            ops.decryptions += 1;
            if is_fake(idx) {
                meter.add_snapshot(ops);
                return Err(FAKE_SLOT_VIOLATION);
            }
            if !plan.token_decides {
                if *time < plan.time_range.0 || *time > plan.time_range.1 {
                    continue;
                }
                if let Some(obs) = plan.observation {
                    if payload.first().copied() != Some(obs) {
                        continue;
                    }
                }
            }
            fold_record(&mut acc, aggregate, dims, *time, payload);
        }
        meter.add_snapshot(ops);
        Ok((acc, decrypted))
    }

    /// A random unit: real rows over four locations, three observations
    /// and a handful of granules, honest fakes, fakes whose filter columns
    /// share a real row's first 8 bytes, now and then an authentic row
    /// whose payload does not decode, and a fake mask that is empty, honest
    /// (the fakes) or random. A real row's payload is `payload(rng, obs)`.
    /// Returns the rows, the mask and a real row's `(location, time,
    /// observation)` to aim predicates at.
    fn random_unit(
        key: &EpochKey,
        rng: &mut StdRng,
        payload: impl Fn(&mut StdRng, u64) -> Vec<u64>,
    ) -> (RowArena, Vec<bool>, (u64, u64, u64)) {
        let n = rng.gen_range(1..24usize);
        let broken = rng.gen_bool(0.25).then(|| rng.gen_range(0..n));
        let mut rows = Vec::with_capacity(n);
        let mut fakes = Vec::with_capacity(n);
        let mut aim = (0, 0, 0);
        for idx in 0..n {
            let (loc, time, obs) = (
                rng.gen_range(0..4u64),
                rng.gen_range(0..6u64) * 60 + rng.gen_range(0..60u64),
                rng.gen_range(0..3u64),
            );
            let real = valued_row(key, loc, time, obs, &payload(rng, obs));
            // A payload that decrypts but does not decode, as wide as
            // the real one.
            let overhead = key.det.encrypt(b"").len();
            let not_a_payload = vec![b'x'; real.payload.len() - overhead];
            let row = match rng.gen_range(0..6u32) {
                _ if broken == Some(idx) => EncryptedRow {
                    payload: key.det.encrypt(&not_a_payload),
                    ..real
                },
                0 => fake_like(key, &real),
                1 => {
                    // Same first 8 bytes as a real row's columns, distinct
                    // columns.
                    let fake = fake_like(key, &real);
                    let mut filters = real.filters;
                    for column in &mut filters {
                        *column.last_mut().expect("a filter column") ^= 1;
                    }
                    EncryptedRow { filters, ..fake }
                }
                _ => real,
            };
            fakes.push(row.index_key == fake_row(key).index_key);
            rows.push(row);
        }
        for row in &rows {
            if let Ok(plain) = key.det.decrypt(&row.payload) {
                if let Ok((dims, time, payload)) = codec::decode_payload_plain(&plain) {
                    aim = (dims[0], time, payload.first().copied().unwrap_or(0));
                }
            }
        }
        let mask = match rng.gen_range(0..3u32) {
            0 => Vec::new(),
            1 => fakes,
            _ => (0..n).map(|_| rng.gen_bool(0.15)).collect(),
        };
        (RowArena::from(rows), mask, aim)
    }

    /// Every predicate shape, aimed at one real row `(location, time,
    /// observation)`, with a random time range.
    fn predicates(rng: &mut StdRng, (loc, time, obs): (u64, u64, u64)) -> Vec<Predicate> {
        let start = rng.gen_range(0..=time);
        let end = time + rng.gen_range(0..240u64);
        let range = |dims: Option<Vec<u64>>, observation: Option<u64>| Predicate::Range {
            dims,
            observation,
            time_start: start,
            time_end: end,
        };
        vec![
            Predicate::Point {
                dims: vec![loc],
                time,
            },
            range(Some(vec![loc]), None),
            range(None, Some(obs)),
            range(Some(vec![loc]), Some(obs)),
            range(None, None),
            Predicate::Range {
                dims: rng.gen_bool(0.5).then(|| vec![loc]),
                observation: rng.gen_bool(0.5).then_some(obs),
                time_start: 4_000,
                time_end: 4_000 + rng.gen_range(0..4_000u64),
            },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The plain fold visits only the rows that can match, yet every
        /// outcome is the full scan's: the accumulator (`CollectRows`
        /// order included), `rows_decrypted`, the error and the metered
        /// work, for every aggregate and predicate shape, on a fresh unit
        /// and on one whose indexes earlier queries built.
        #[test]
        fn plain_fold_equals_the_full_scan(seed in any::<u64>()) {
            let key = key();
            let mut rng = StdRng::seed_from_u64(seed);
            let (rows, mask, aim) = random_unit(&key, &mut rng, |_, obs| vec![obs]);
            let meter = SideChannelMeter::new();
            let (scanned, warm) = (DecodedBin::new(rows.len()), DecodedBin::new(rows.len()));
            let aggregates = [
                Aggregate::Count,
                Aggregate::Sum { attr: 0 },
                Aggregate::Min { attr: 0 },
                Aggregate::Max { attr: 0 },
                Aggregate::Average { attr: 0 },
                Aggregate::TopKLocations { k: 2 },
                Aggregate::LocationsWithAtLeast { threshold: 1 },
                Aggregate::CollectRows,
            ];
            for predicate in predicates(&mut rng, aim) {
                let plan = build_filter_plan(&key, &config(), &predicate, window());
                for aggregate in &aggregates {
                    let outcome = |out: Result<(Accumulator, usize)>| {
                        out.map(|(acc, decrypted)| (format!("{acc:?}"), decrypted))
                    };
                    let want = meter.measure(|| {
                        outcome(full_scan(&key, &plan, aggregate, &rows, &scanned, &mask, &meter))
                    });
                    let fresh = DecodedBin::new(rows.len());
                    for (decoded, when) in [(&fresh, "fresh"), (&warm, "warm")] {
                        let got = meter.measure(|| {
                            outcome(plain_fold(
                                &key, &plan, aggregate, &rows, decoded, &mask, &meter,
                            ))
                        });
                        prop_assert_eq!(&got, &want, "{:?} {:?} on a {} unit", predicate, aggregate, when);
                    }
                }
            }

            // Units whose rows carry no, one or two payload values (one
            // count per unit: an epoch's rows share one width), and plans
            // over a window the rows precede, so no predicate gets tokens: every
            // fold is residual. Without an observation the tally serves
            // every aggregate but `CollectRows` and attribute 1; with one,
            // every fold visits its rows. Each folds into a random
            // accumulator, as into a partial that earlier units filled: it
            // must end as the seed merged with the full scan.
            let values = match rng.gen_range(0..8u32) {
                0 => 0,
                1 => 1,
                _ => 2,
            };
            let (rows, mask, aim) = random_unit(&key, &mut rng, |rng, obs| {
                [obs, rng.gen_range(0..1_000u64)][..values].to_vec()
            });
            let later = EpochWindow { start: 1 << 20, duration: 3_600 };
            let (scanned, warm) = (DecodedBin::new(rows.len()), DecodedBin::new(rows.len()));
            let aggregates = [&aggregates[..], &[Aggregate::Sum { attr: 1 }]].concat();
            for predicate in predicates(&mut rng, aim) {
                let plan = build_filter_plan(&key, &config(), &predicate, later);
                prop_assert!(!plan.token_decides);
                for aggregate in &aggregates {
                    let seed = random_accumulator(&mut rng);
                    let want = meter.measure(|| {
                        full_scan(&key, &plan, aggregate, &rows, &scanned, &mask, &meter).map(
                            |(scan, decrypted)| {
                                let mut acc = seed.clone();
                                acc.merge(scan);
                                (format!("{acc:?}"), decrypted)
                            },
                        )
                    });
                    let fresh = DecodedBin::new(rows.len());
                    for (decoded, when) in [(&fresh, "fresh"), (&warm, "warm")] {
                        let got = meter.measure(|| {
                            let mut acc = seed.clone();
                            process_rows_plain(
                                &key, &plan, aggregate, &rows, decoded, &mask, &meter, &mut acc,
                            )
                            .map(|decrypted| (format!("{acc:?}"), decrypted))
                        });
                        prop_assert_eq!(&got, &want, "{:?} {:?} into {:?} on a {} unit", predicate, aggregate, seed, when);
                    }
                }
            }
        }
    }

    /// An accumulator as earlier units may have left it: a few matches,
    /// a sum near wrapping, per-location counts and collected rows.
    fn random_accumulator(rng: &mut StdRng) -> Accumulator {
        let count = rng.gen_range(0..4u64);
        let value = |rng: &mut StdRng| (count > 0).then(|| rng.gen_range(0..1_000u64));
        Accumulator {
            count,
            sum: u64::MAX - rng.gen_range(0..2_000u64),
            min: value(rng),
            max: value(rng),
            per_location: (0..count).map(|_| (rng.gen_range(0..6u64), 1)).collect(),
            rows: (0..count)
                .map(|_| crate::types::Record {
                    dims: vec![rng.gen_range(0..4u64)],
                    time: rng.gen_range(0..360u64),
                    payload: vec![rng.gen_range(0..3u64)],
                })
                .collect(),
        }
    }
}
