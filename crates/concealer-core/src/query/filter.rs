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
//! 2. string-matches every fetched row's filter columns against the token
//!    set (no decryption),
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

use std::collections::HashSet;
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
    pub dim_tokens: HashSet<Vec<u8>>,
    /// Tokens matched against the observation filter column. Empty when the
    /// predicate does not pin an observation.
    pub obs_tokens: HashSet<Vec<u8>>,
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

/// One row's decoded payload: `(dims, time, payload)` as stored by the
/// provider.
pub type DecodedRow = (Vec<u64>, u64, Vec<u64>);

/// Per-row payload decode cache for one fetched bin.
///
/// Payload decryption is the dominant per-row cost of the filter stage, and
/// a batch frequently runs several queries over the same fetched bin. The
/// cache memoizes each row's decode outcome — `Some((dims, time, payload))`
/// for a successfully authenticated row, `None` for a volume-hiding fake
/// (whose payload fails authentication by design) — so the second query
/// over a bin decrypts nothing.
///
/// The cache changes no observable behaviour: the side-channel meter's
/// `decryptions` counter is driven by the *processing schedule* (which rows
/// the variant would decrypt), not by whether the cache already holds the
/// plaintext, so metered counts are identical warm and cold. Slots are
/// [`OnceLock`]s, making concurrent filling from parallel per-query
/// aggregation tasks safe. Decode *errors* (a corrupt but authentic
/// payload) are deliberately not cached: they propagate to the caller and
/// re-surface on every retry. The slots themselves are allocated by the
/// first decode, so a bin that only ever answers token-decided counts
/// never pays for them.
#[derive(Debug, Default)]
pub struct DecodedBin {
    rows: usize,
    slots: OnceLock<Vec<OnceLock<Option<DecodedRow>>>>,
}

impl DecodedBin {
    /// An empty cache for a bin of `rows` rows.
    #[must_use]
    pub fn new(rows: usize) -> Self {
        DecodedBin {
            rows,
            slots: OnceLock::new(),
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

    let mut dim_tokens = HashSet::new();
    let mut obs_tokens = HashSet::new();

    if lo <= hi {
        let first_granule = lo / g;
        let last_granule = hi / g;
        if let Some(dims) = predicate.dims() {
            for granule in first_granule..=last_granule {
                dim_tokens.insert(key.det.encrypt(&codec::filter_dims_plain(dims, granule)));
            }
        }
        if let Some(obs) = predicate.observation() {
            for granule in first_granule..=last_granule {
                obs_tokens.insert(key.det.encrypt(&codec::filter_obs_plain(obs, granule)));
            }
        }
    }

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
/// The metered `decryptions` count follows the processing schedule — one
/// per row the plain variant decrypts — whether or not `decoded` already
/// holds the plaintext, so warm and cold executions meter identically.
pub fn process_rows_plain(
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
    // Counters are accumulated locally and flushed once per call so the
    // shared meter mutex is not taken per row (see
    // `SideChannelMeter::add_snapshot`).
    let mut ops = MeterSnapshot::default();
    let is_fake = |idx: usize| fake_claimed.get(idx).copied().unwrap_or(false);

    for (idx, row) in rows.iter().enumerate() {
        // Fake tuples never match any token and their payloads are not
        // decryptable; skip them cheaply by token mismatch / decrypt error.
        let token_match = row_matches_tokens(plan, row);
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
        // Need the payload: either the aggregate requires values, or the
        // predicate could not be decided by tokens alone.
        let slot = match decoded.get_or_decode(idx, key, row) {
            Ok(slot) => slot,
            Err(e) => {
                // The decryption preceding the failed decode did succeed;
                // flush the counters accumulated so far — the work *was*
                // performed, and the meter is the side-channel model the
                // security tests reason about.
                ops.decryptions += 1;
                meter.add_snapshot(ops);
                return Err(e);
            }
        };
        let Some((dims, time, payload)) = slot else {
            continue; // fake tuple
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
        let fake = u64::from(fake_claimed.get(idx).copied().unwrap_or(false));
        ops.element_touches += 1;
        // Branch-free token matching: compare against every token.
        let mut dim_match = 0u64;
        for token in &plan.dim_tokens {
            ops.comparisons += 1;
            dim_match = omove(bytes_eq_flag(token, row.filter(0)), 1, dim_match);
        }
        let mut obs_match = 0u64;
        for token in &plan.obs_tokens {
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

/// Whether a row's filter columns satisfy the token sets (plain variant —
/// early exits are fine here because this path assumes a side-channel-free
/// enclave).
fn row_matches_tokens(plan: &FilterPlan, row: RowRef<'_>) -> bool {
    let dim_ok = plan.dim_tokens.is_empty() || plan.dim_tokens.contains(row.filter(0));
    let obs_ok = plan.obs_tokens.is_empty() || plan.obs_tokens.contains(row.filter(1));
    dim_ok && obs_ok
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

fn fold_record(
    acc: &mut Accumulator,
    aggregate: &Aggregate,
    dims: &[u64],
    time: u64,
    payload: &[u64],
) {
    acc.count += 1;
    let attr = aggregate_attr(aggregate);
    let value = payload.get(attr).copied().unwrap_or(0);
    acc.sum = acc.sum.wrapping_add(value);
    acc.min = Some(acc.min.map_or(value, |m| m.min(value)));
    acc.max = Some(acc.max.map_or(value, |m| m.max(value)));
    if matches!(
        aggregate,
        Aggregate::TopKLocations { .. } | Aggregate::LocationsWithAtLeast { .. }
    ) {
        *acc.per_location
            .entry(dims.first().copied().unwrap_or(0))
            .or_insert(0) += 1;
    }
    if matches!(aggregate, Aggregate::CollectRows) {
        acc.rows.push(crate::types::Record {
            dims: dims.to_vec(),
            time,
            payload: payload.to_vec(),
        });
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
        let granule = time / config().time_granularity;
        EncryptedRow {
            index_key: key.det.encrypt(&codec::index_real_plain(0, 1)),
            filters: vec![
                key.det.encrypt(&codec::filter_dims_plain(&[loc], granule)),
                key.det.encrypt(&codec::filter_obs_plain(obs, granule)),
            ],
            payload: key.det.encrypt(&codec::payload_plain(&[loc], time, &[obs])),
        }
    }

    fn fake_row(key: &EpochKey) -> EncryptedRow {
        EncryptedRow {
            index_key: key.det.encrypt(&codec::index_fake_plain(1)),
            filters: vec![vec![0u8; 41], vec![0u8; 33]],
            payload: vec![0u8; 60],
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
        let (acc, decrypted) = process_rows_plain(
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
        let (acc, decrypted) = process_rows_plain(
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
        let (acc, _) = process_rows_plain(
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
        let (acc, decrypted) = process_rows_plain(
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
            let (plain, _) = process_rows_plain(
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
                        process_rows_plain(
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
                            process_rows_plain
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
}
