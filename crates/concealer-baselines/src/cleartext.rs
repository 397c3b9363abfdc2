//! Plaintext baseline: no encryption, direct evaluation over the records.
//!
//! This is the "Cleartext processing" row of Table 5 — the latency floor
//! every secure system is compared against. Queries go through the
//! [`SecureIndex`] trait like every other backend.

use concealer_core::api::{IndexStats, SecureIndex};
use concealer_core::query::{Accumulator, AnswerValue, QueryAnswer};
use concealer_core::{Predicate, Query, Record};
use rand::RngCore;
use std::collections::BTreeMap;

/// Whether a record satisfies a predicate (shared by all baselines).
#[must_use]
pub fn record_matches(record: &Record, predicate: &Predicate) -> bool {
    let (t_start, t_end) = predicate.time_span();
    if record.time < t_start || record.time > t_end {
        return false;
    }
    if let Some(dims) = predicate.dims() {
        if record.dims != dims {
            return false;
        }
    }
    if let Some(obs) = predicate.observation() {
        if record.observation() != Some(obs) {
            return false;
        }
    }
    true
}

/// Aggregate a set of matching records exactly as the Concealer enclave
/// would, producing the same [`AnswerValue`] shape.
#[must_use]
pub fn aggregate_records<'a>(
    matching: impl Iterator<Item = &'a Record>,
    query: &Query,
) -> AnswerValue {
    let mut acc = Accumulator::default();
    let attr = match query.aggregate {
        concealer_core::Aggregate::Sum { attr }
        | concealer_core::Aggregate::Min { attr }
        | concealer_core::Aggregate::Max { attr }
        | concealer_core::Aggregate::Average { attr } => attr,
        _ => 0,
    };
    for r in matching {
        acc.count += 1;
        let v = r.payload.get(attr).copied().unwrap_or(0);
        acc.sum = acc.sum.wrapping_add(v);
        acc.min = Some(acc.min.map_or(v, |m| m.min(v)));
        acc.max = Some(acc.max.map_or(v, |m| m.max(v)));
        *acc.per_location
            .entry(r.dims.first().copied().unwrap_or(0))
            .or_insert(0) += 1;
        if matches!(query.aggregate, concealer_core::Aggregate::CollectRows) {
            acc.rows.push(r.clone());
        }
    }
    acc.finish(&query.aggregate)
}

/// The plaintext baseline system.
#[derive(Debug, Clone, Default)]
pub struct CleartextBaseline {
    epochs: BTreeMap<u64, Vec<Record>>,
}

impl CleartextBaseline {
    /// Create an empty baseline store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total rows stored.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.epochs.values().map(Vec::len).sum()
    }
}

impl SecureIndex for CleartextBaseline {
    /// Store one epoch of records as-is (no encryption; `rng` unused).
    fn ingest_epoch(
        &mut self,
        epoch_start: u64,
        records: &[Record],
        _rng: &mut dyn RngCore,
    ) -> concealer_core::Result<()> {
        self.epochs.insert(epoch_start, records.to_vec());
        Ok(())
    }

    /// Execute a query by scanning every stored record. `rows_fetched`
    /// reports the rows examined — the baseline "reads" its whole store,
    /// but decrypts nothing.
    fn execute(&self, query: &Query) -> concealer_core::Result<QueryAnswer> {
        let mut examined = 0usize;
        let matching: Vec<&Record> = self
            .epochs
            .values()
            .flatten()
            .inspect(|_| examined += 1)
            .filter(|r| record_matches(r, &query.predicate))
            .collect();
        Ok(QueryAnswer {
            value: aggregate_records(matching.into_iter(), query),
            rows_fetched: examined,
            rows_decrypted: 0,
            verified: false,
            epochs_touched: self.epochs.len(),
        })
    }

    fn answer_stats(&self) -> IndexStats {
        IndexStats {
            backend: "cleartext",
            epochs: self.epochs.len(),
            rows_stored: self.total_rows(),
            volume_hiding: false,
            verifiable: false,
            full_scan_per_query: true,
            bin_cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concealer_core::Aggregate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn records() -> Vec<Record> {
        vec![
            Record::spatial(1, 100, 10),
            Record::spatial(1, 200, 20),
            Record::spatial(2, 150, 30),
            Record::spatial(1, 5000, 40),
        ]
    }

    fn loaded() -> CleartextBaseline {
        let mut b = CleartextBaseline::new();
        b.ingest_epoch(0, &records(), &mut StdRng::seed_from_u64(1))
            .unwrap();
        b
    }

    #[test]
    fn count_query() {
        let b = loaded();
        let q = Query::count().at_dims([1]).between(0, 1000);
        let answer = b.execute(&q).unwrap();
        assert_eq!(answer.value, AnswerValue::Count(2));
        assert_eq!(answer.rows_fetched, 4);
        assert_eq!(answer.rows_decrypted, 0);
        assert!(!answer.verified);
        assert_eq!(b.total_rows(), 4);
    }

    #[test]
    fn sum_and_minmax() {
        let b = loaded();
        let sum = b
            .execute(&Query::sum(0).at_dims([1]).between(0, 10_000))
            .unwrap();
        assert_eq!(sum.value, AnswerValue::Number(Some(70)));
        let min = b
            .execute(&Query::min(0).at_dims([1]).between(0, 10_000))
            .unwrap();
        assert_eq!(min.value, AnswerValue::Number(Some(10)));
        let max = b
            .execute(&Query::max(0).at_dims([1]).between(0, 10_000))
            .unwrap();
        assert_eq!(max.value, AnswerValue::Number(Some(40)));
    }

    #[test]
    fn observation_predicate() {
        let b = loaded();
        let q = Query {
            aggregate: Aggregate::Count,
            predicate: Predicate::Range {
                dims: None,
                observation: Some(30),
                time_start: 0,
                time_end: 10_000,
            },
        };
        assert_eq!(b.execute(&q).unwrap().value, AnswerValue::Count(1));
    }

    #[test]
    fn record_matches_edges() {
        let r = Record::spatial(3, 500, 9);
        let p = Predicate::Range {
            dims: Some(vec![3]),
            observation: Some(9),
            time_start: 500,
            time_end: 500,
        };
        assert!(record_matches(&r, &p));
        let p2 = Predicate::Point {
            dims: vec![3],
            time: 501,
        };
        assert!(!record_matches(&r, &p2));
    }

    #[test]
    fn stats_describe_the_backend() {
        let stats = loaded().answer_stats();
        assert_eq!(stats.backend, "cleartext");
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.rows_stored, 4);
        assert!(stats.full_scan_per_query);
        assert!(!stats.volume_hiding);
    }
}
