//! Query model: predicates, aggregates, answers.
//!
//! Concealer supports the limited OLAP-style query repertoire the paper's
//! Table 4 lists: aggregations (count, sum, min, max, average, top-k) with
//! predicates over the indexed attributes, the observation attribute, and a
//! time point or range. Queries fall into the paper's two application
//! classes: *aggregate* applications (occupancy, heat maps, top-k locations)
//! and *individualized* applications (a user's own past movements, keyed by
//! an observation/device id they own).

pub(crate) mod filter;
pub mod trapdoor;

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::types::Record;

/// The selection predicate of a query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Predicate {
    /// Exact indexed-attribute values at an exact time instant
    /// (the paper's point query).
    Point {
        /// Values of the indexed attributes (e.g. `[location]`).
        dims: Vec<u64>,
        /// The time instant (seconds).
        time: u64,
    },
    /// A time-range query, optionally restricted to specific indexed
    /// attribute values and/or a specific observation value.
    ///
    /// * `dims: Some(values)` — queries Q1/Q5 style ("at location l…").
    /// * `dims: None` — queries Q2/Q3 style (all locations).
    /// * `observation: Some(o)` — queries Q4/Q5 style (individualized).
    Range {
        /// Indexed attribute values, or `None` for all.
        dims: Option<Vec<u64>>,
        /// Observation (device id) restriction, or `None`.
        observation: Option<u64>,
        /// Range start (inclusive, seconds).
        time_start: u64,
        /// Range end (inclusive, seconds).
        time_end: u64,
    },
}

impl Predicate {
    /// The inclusive time span this predicate covers.
    #[must_use]
    pub fn time_span(&self) -> (u64, u64) {
        match self {
            Predicate::Point { time, .. } => (*time, *time),
            Predicate::Range {
                time_start,
                time_end,
                ..
            } => (*time_start, *time_end),
        }
    }

    /// The observation value this predicate pins, if any. Used to decide
    /// whether the query needs individualized authorization.
    #[must_use]
    pub fn observation(&self) -> Option<u64> {
        match self {
            Predicate::Point { .. } => None,
            Predicate::Range { observation, .. } => *observation,
        }
    }

    /// The indexed-attribute values this predicate pins, if any.
    #[must_use]
    pub fn dims(&self) -> Option<&[u64]> {
        match self {
            Predicate::Point { dims, .. } => Some(dims),
            Predicate::Range { dims, .. } => dims.as_deref(),
        }
    }
}

/// The aggregation requested by a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregate {
    /// Number of matching tuples. Served purely by filter-column string
    /// matching: no decryption needed (the paper's fastest class, see
    /// Exp 8).
    Count,
    /// Sum of `payload[attr]` over matching tuples.
    Sum {
        /// Payload attribute index.
        attr: usize,
    },
    /// Minimum of `payload[attr]` over matching tuples.
    Min {
        /// Payload attribute index.
        attr: usize,
    },
    /// Maximum of `payload[attr]` over matching tuples.
    Max {
        /// Payload attribute index.
        attr: usize,
    },
    /// Average of `payload[attr]` over matching tuples.
    Average {
        /// Payload attribute index.
        attr: usize,
    },
    /// The `k` indexed-attribute values (first dimension) with the most
    /// matching tuples (query Q2).
    TopKLocations {
        /// How many locations to return.
        k: usize,
    },
    /// All first-dimension values with at least `threshold` matching tuples
    /// (query Q3).
    LocationsWithAtLeast {
        /// The minimum count.
        threshold: u64,
    },
    /// Return the matching tuples themselves (selection; used by
    /// individualized applications).
    CollectRows,
}

impl Aggregate {
    /// Whether evaluating this aggregate requires decrypting the payload
    /// column of matching tuples (everything except pure counting does).
    #[must_use]
    pub fn needs_decryption(&self) -> bool {
        !matches!(self, Aggregate::Count)
    }
}

/// A complete query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// The aggregation to compute.
    pub aggregate: Aggregate,
    /// The selection predicate.
    pub predicate: Predicate,
}

impl Query {
    /// Build a count query: `Query::count().at_dims([l]).between(t0, t1)`.
    #[must_use]
    pub fn count() -> QueryBuilder {
        QueryBuilder::new(Aggregate::Count)
    }

    /// Build a sum query over `payload[attr]`.
    #[must_use]
    pub fn sum(attr: usize) -> QueryBuilder {
        QueryBuilder::new(Aggregate::Sum { attr })
    }

    /// Build a minimum query over `payload[attr]`.
    #[must_use]
    pub fn min(attr: usize) -> QueryBuilder {
        QueryBuilder::new(Aggregate::Min { attr })
    }

    /// Build a maximum query over `payload[attr]`.
    #[must_use]
    pub fn max(attr: usize) -> QueryBuilder {
        QueryBuilder::new(Aggregate::Max { attr })
    }

    /// Build an average query over `payload[attr]`.
    #[must_use]
    pub fn average(attr: usize) -> QueryBuilder {
        QueryBuilder::new(Aggregate::Average { attr })
    }

    /// Build a top-k-locations query (query Q2).
    #[must_use]
    pub fn top_k_locations(k: usize) -> QueryBuilder {
        QueryBuilder::new(Aggregate::TopKLocations { k })
    }

    /// Build a locations-with-at-least-`threshold` query (query Q3).
    #[must_use]
    pub fn locations_with_at_least(threshold: u64) -> QueryBuilder {
        QueryBuilder::new(Aggregate::LocationsWithAtLeast { threshold })
    }

    /// Build a row-collection (selection) query.
    #[must_use]
    pub fn collect_rows() -> QueryBuilder {
        QueryBuilder::new(Aggregate::CollectRows)
    }
}

/// Fluent builder for [`Query`] values, entered through the constructors on
/// [`Query`] (`Query::count()`, `Query::sum(attr)`, …) and finished by a
/// time selector:
///
/// ```
/// use concealer_core::{Predicate, Query};
///
/// let q = Query::count().at_dims([3]).between(0, 1_799);
/// assert_eq!(q.predicate.dims(), Some(&[3u64][..]));
///
/// let p = Query::count().at_dims([3]).at(600);
/// assert!(matches!(p.predicate, Predicate::Point { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    aggregate: Aggregate,
    dims: Option<Vec<u64>>,
    observation: Option<u64>,
}

impl QueryBuilder {
    fn new(aggregate: Aggregate) -> Self {
        QueryBuilder {
            aggregate,
            dims: None,
            observation: None,
        }
    }

    /// Pin the indexed-attribute values (e.g. `[location]`). Omitting this
    /// queries all locations (Q2/Q3 style).
    #[must_use]
    pub fn at_dims(mut self, dims: impl Into<Vec<u64>>) -> Self {
        self.dims = Some(dims.into());
        self
    }

    /// Pin the observation (device id) — the individualized Q4/Q5 style.
    #[must_use]
    pub fn observing(mut self, observation: u64) -> Self {
        self.observation = Some(observation);
        self
    }

    /// Finish as a time-range query over `[time_start, time_end]`
    /// (inclusive).
    #[must_use]
    pub fn between(self, time_start: u64, time_end: u64) -> Query {
        Query {
            aggregate: self.aggregate,
            predicate: Predicate::Range {
                dims: self.dims,
                observation: self.observation,
                time_start,
                time_end,
            },
        }
    }

    /// Finish as a single-instant query. Produces a [`Predicate::Point`]
    /// when dims are pinned and no observation is; otherwise it degrades
    /// to a one-instant range — point predicates carry no observation, and
    /// omitted dims mean "all locations" (which only ranges express), so
    /// both cases keep `.at(t)` consistent with `.between(t, t)` instead
    /// of building a point query that can never execute.
    #[must_use]
    pub fn at(self, time: u64) -> Query {
        match (&self.dims, self.observation) {
            (Some(_), None) => Query {
                aggregate: self.aggregate,
                predicate: Predicate::Point {
                    dims: self.dims.expect("just matched Some"),
                    time,
                },
            },
            _ => self.between(time, time),
        }
    }
}

/// The value part of a query answer.
///
/// Serializable (like [`Query`]) so answers can cross the untrusted wire
/// between the serving layer and clients; the encoding is the positional
/// `serde::bin` format pinned by `tests/serde_roundtrip.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnswerValue {
    /// A count.
    Count(u64),
    /// Sum / min / max result (`None` when no tuple matched).
    Number(Option<u64>),
    /// An average (`None` when no tuple matched).
    Ratio(Option<f64>),
    /// `(first-dimension value, count)` pairs, ordered by descending count.
    LocationCounts(Vec<(u64, u64)>),
    /// Matching cleartext records.
    Rows(Vec<Record>),
}

/// A query answer plus the execution metadata the evaluation section of the
/// paper reports (rows fetched, rows decrypted, verification).
///
/// The metadata travels with the value even over the wire: replies from a
/// remote Concealer server carry the same `verified` / volume fields an
/// in-process execution produces, so a client can check that integrity
/// verification actually ran without trusting the transport.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// The answer value.
    pub value: AnswerValue,
    /// Encrypted rows fetched from the service provider's DBMS.
    pub rows_fetched: usize,
    /// Rows the enclave decrypted.
    pub rows_decrypted: usize,
    /// Whether integrity verification ran (and passed — a failed
    /// verification aborts the query with an error instead).
    pub verified: bool,
    /// Number of epochs the query touched.
    pub epochs_touched: usize,
}

/// Per-location match counts: first-dimension value → matching tuples.
///
/// A flat table under [`LocationHasher`], incremented once per match by a
/// `TopKLocations` or `LocationsWithAtLeast` fold. It iterates in table
/// order, not location order: [`Accumulator::finish`] and the wire form
/// of a partial sort what they take from it.
pub type LocationCounts = HashMap<u64, u64, BuildHasherDefault<LocationHasher>>;

/// The [`LocationCounts`] hasher: the 128-bit product of the key and a
/// fixed odd constant, folded to 64 bits. It is unkeyed, unlike std's
/// SipHash: the locations it hashes come from authenticated rows, and a
/// host that could choose them to collide can already withhold rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocationHasher(u64);

impl Hasher for LocationHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }
}

/// Partial aggregation state, merged across bins and epochs.
#[derive(Clone, Default)]
pub struct Accumulator {
    /// Matching-tuple count.
    pub count: u64,
    /// Sum of the aggregated payload attribute.
    pub sum: u64,
    /// Minimum seen.
    pub min: Option<u64>,
    /// Maximum seen.
    pub max: Option<u64>,
    /// Per-first-dimension counts.
    pub per_location: LocationCounts,
    /// Collected records.
    pub rows: Vec<Record>,
}

/// Lists `per_location` ascending by location, so two accumulators with
/// equal contents print alike whatever order filled their tables.
impl fmt::Debug for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Ascending(Vec<(u64, u64)>);
        impl fmt::Debug for Ascending {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter().copied()).finish()
            }
        }
        let mut per_location: Vec<(u64, u64)> =
            self.per_location.iter().map(|(&l, &c)| (l, c)).collect();
        per_location.sort_unstable();
        f.debug_struct("Accumulator")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("per_location", &Ascending(per_location))
            .field("rows", &self.rows)
            .finish()
    }
}

/// Descending count, then ascending location: the total order every
/// per-location answer is listed in.
fn by_count_then_location(a: &(u64, u64), b: &(u64, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

impl Accumulator {
    /// Fold another accumulator into this one.
    pub fn merge(&mut self, mut other: Accumulator) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        // Counts add whichever table receives them, so the smaller one is
        // added into the larger (an empty side takes the other's table).
        if self.per_location.len() < other.per_location.len() {
            std::mem::swap(&mut self.per_location, &mut other.per_location);
        }
        for (loc, c) in other.per_location {
            *self.per_location.entry(loc).or_insert(0) += c;
        }
        self.rows.extend(other.rows);
    }

    /// Produce the final answer value for `aggregate`.
    #[must_use]
    pub fn finish(self, aggregate: &Aggregate) -> AnswerValue {
        match aggregate {
            Aggregate::Count => AnswerValue::Count(self.count),
            Aggregate::Sum { .. } => {
                AnswerValue::Number(if self.count > 0 { Some(self.sum) } else { None })
            }
            Aggregate::Min { .. } => AnswerValue::Number(self.min),
            Aggregate::Max { .. } => AnswerValue::Number(self.max),
            Aggregate::Average { .. } => AnswerValue::Ratio(if self.count > 0 {
                Some(self.sum as f64 / self.count as f64)
            } else {
                None
            }),
            Aggregate::TopKLocations { k } => {
                let mut pairs: Vec<(u64, u64)> = self.per_location.into_iter().collect();
                // Locations are distinct, so the order is total: the k
                // first after a selection are the k first after a sort.
                if (1..pairs.len()).contains(k) {
                    pairs.select_nth_unstable_by(*k - 1, by_count_then_location);
                }
                pairs.truncate(*k);
                pairs.sort_unstable_by(by_count_then_location);
                AnswerValue::LocationCounts(pairs)
            }
            Aggregate::LocationsWithAtLeast { threshold } => {
                let mut pairs: Vec<(u64, u64)> = self
                    .per_location
                    .into_iter()
                    .filter(|(_, c)| *c >= *threshold)
                    .collect();
                pairs.sort_unstable_by(by_count_then_location);
                AnswerValue::LocationCounts(pairs)
            }
            Aggregate::CollectRows => AnswerValue::Rows(self.rows),
        }
    }
}

pub use self::AnswerValue as Answer;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn predicate_time_span_and_accessors() {
        let p = Predicate::Point {
            dims: vec![1],
            time: 50,
        };
        assert_eq!(p.time_span(), (50, 50));
        assert_eq!(p.dims(), Some(&[1u64][..]));
        assert_eq!(p.observation(), None);

        let r = Predicate::Range {
            dims: None,
            observation: Some(9),
            time_start: 10,
            time_end: 20,
        };
        assert_eq!(r.time_span(), (10, 20));
        assert_eq!(r.dims(), None);
        assert_eq!(r.observation(), Some(9));
    }

    #[test]
    fn aggregate_decryption_requirements() {
        assert!(!Aggregate::Count.needs_decryption());
        assert!(Aggregate::Sum { attr: 0 }.needs_decryption());
        assert!(Aggregate::TopKLocations { k: 3 }.needs_decryption());
        assert!(Aggregate::CollectRows.needs_decryption());
    }

    #[test]
    fn accumulator_merge_and_finish_count() {
        let mut a = Accumulator {
            count: 3,
            ..Default::default()
        };
        a.merge(Accumulator {
            count: 4,
            ..Default::default()
        });
        assert_eq!(a.finish(&Aggregate::Count), AnswerValue::Count(7));
    }

    #[test]
    fn accumulator_min_max_avg() {
        let mut a = Accumulator::default();
        a.merge(Accumulator {
            count: 2,
            sum: 30,
            min: Some(10),
            max: Some(20),
            ..Default::default()
        });
        a.merge(Accumulator {
            count: 1,
            sum: 5,
            min: Some(5),
            max: Some(5),
            ..Default::default()
        });
        assert_eq!(
            a.clone().finish(&Aggregate::Min { attr: 0 }),
            AnswerValue::Number(Some(5))
        );
        assert_eq!(
            a.clone().finish(&Aggregate::Max { attr: 0 }),
            AnswerValue::Number(Some(20))
        );
        assert_eq!(
            a.clone().finish(&Aggregate::Sum { attr: 0 }),
            AnswerValue::Number(Some(35))
        );
        match a.finish(&Aggregate::Average { attr: 0 }) {
            AnswerValue::Ratio(Some(v)) => assert!((v - 35.0 / 3.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_accumulator_yields_none() {
        let a = Accumulator::default();
        assert_eq!(
            a.clone().finish(&Aggregate::Sum { attr: 0 }),
            AnswerValue::Number(None)
        );
        assert_eq!(
            a.clone().finish(&Aggregate::Min { attr: 0 }),
            AnswerValue::Number(None)
        );
        assert_eq!(
            a.finish(&Aggregate::Average { attr: 0 }),
            AnswerValue::Ratio(None)
        );
    }

    #[test]
    fn builder_produces_expected_queries() {
        let q = Query::count().at_dims([3]).between(0, 1799);
        assert_eq!(q.aggregate, Aggregate::Count);
        assert_eq!(
            q.predicate,
            Predicate::Range {
                dims: Some(vec![3]),
                observation: None,
                time_start: 0,
                time_end: 1799,
            }
        );

        let q = Query::sum(1).between(10, 20);
        assert_eq!(q.aggregate, Aggregate::Sum { attr: 1 });
        assert_eq!(q.predicate.dims(), None);

        let q = Query::collect_rows().observing(42).between(0, 99);
        assert_eq!(q.predicate.observation(), Some(42));

        let point = Query::count().at_dims(vec![5, 6]).at(300);
        assert_eq!(
            point.predicate,
            Predicate::Point {
                dims: vec![5, 6],
                time: 300
            }
        );

        // Pinning an observation degrades `.at` to a one-instant range.
        let pinned = Query::count().at_dims([5]).observing(9).at(300);
        assert_eq!(
            pinned.predicate,
            Predicate::Range {
                dims: Some(vec![5]),
                observation: Some(9),
                time_start: 300,
                time_end: 300,
            }
        );

        // Omitting dims also degrades `.at` to a one-instant range (an
        // all-locations instant, consistent with `.between`), never an
        // unexecutable empty-dims point.
        let all_locations = Query::count().at(300);
        assert_eq!(
            all_locations.predicate,
            Predicate::Range {
                dims: None,
                observation: None,
                time_start: 300,
                time_end: 300,
            }
        );
    }

    #[test]
    fn top_k_and_threshold() {
        let a = Accumulator {
            per_location: [(1u64, 10u64), (2, 30), (3, 20), (4, 5)]
                .into_iter()
                .collect(),
            ..Default::default()
        };
        assert_eq!(
            a.clone().finish(&Aggregate::TopKLocations { k: 2 }),
            AnswerValue::LocationCounts(vec![(2, 30), (3, 20)])
        );
        assert_eq!(
            a.finish(&Aggregate::LocationsWithAtLeast { threshold: 10 }),
            AnswerValue::LocationCounts(vec![(2, 30), (3, 20), (1, 10)])
        );
    }

    /// The per-location answers as an ordered map produced them before
    /// the flat table: counts listed ascending by location, then stably
    /// sorted by descending count, and truncated or filtered.
    fn ordered_finish(locations: &[u64], aggregate: &Aggregate) -> AnswerValue {
        let mut sorted = locations.to_vec();
        sorted.sort_unstable();
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for loc in sorted {
            match pairs.last_mut() {
                Some((l, c)) if *l == loc => *c += 1,
                _ => pairs.push((loc, 1)),
            }
        }
        match aggregate {
            Aggregate::TopKLocations { k } => {
                pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                pairs.truncate(*k);
            }
            Aggregate::LocationsWithAtLeast { threshold } => {
                pairs.retain(|(_, c)| *c >= *threshold);
                pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            }
            other => panic!("not a per-location aggregate: {other:?}"),
        }
        AnswerValue::LocationCounts(pairs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A multiset of locations (few distinct ones, so counts tie; some
        /// far above the rest) folded into accumulators split anywhere and
        /// merged in any order finishes as the ordered fold does.
        #[test]
        fn per_location_answers_do_not_depend_on_split_or_merge_order(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let distinct = rng.gen_range(1..30u64);
            let locations: Vec<u64> = (0..rng.gen_range(0..300usize))
                .map(|_| {
                    let loc = rng.gen_range(0..distinct);
                    if rng.gen_range(0..4u32) == 0 { loc << 40 } else { loc }
                })
                .collect();
            let mut parts: Vec<Accumulator> = vec![Accumulator::default(); rng.gen_range(1..8usize)];
            for &loc in &locations {
                let part = rng.gen_range(0..parts.len());
                parts[part].count += 1;
                *parts[part].per_location.entry(loc).or_insert(0) += 1;
            }
            while parts.len() > 1 {
                let from = parts.swap_remove(rng.gen_range(0..parts.len()));
                let into = rng.gen_range(0..parts.len());
                parts[into].merge(from);
            }
            let merged = parts.pop().expect("one accumulator is left");
            prop_assert_eq!(merged.count, locations.len() as u64);
            let present = merged.per_location.len();
            let aggregates = [0, 1, 5, present, present + 3]
                .map(|k| Aggregate::TopKLocations { k })
                .into_iter()
                .chain([0, 1, 2, 5, 40].map(|threshold| Aggregate::LocationsWithAtLeast { threshold }));
            for aggregate in aggregates {
                prop_assert_eq!(
                    merged.clone().finish(&aggregate),
                    ordered_finish(&locations, &aggregate),
                    "{:?}", aggregate
                );
            }
        }
    }
}
