//! Query workloads (Table 4 of the paper, plus the Exp 8 TPC-H
//! aggregations).
//!
//! The five WiFi query templates:
//!
//! * **Q1** — number of observations at location `l` during `[t1, tx]`.
//! * **Q2** — locations with the top-k observation counts during `[t1, tx]`.
//! * **Q3** — locations with at least `n` observations during `[t1, tx]`.
//! * **Q4** — locations where observation (device) `o` was seen during
//!   `[t1, tx]` (individualized).
//! * **Q5** — how often observation `o` was seen at location `l` during
//!   `[t1, tx]` (individualized).

use concealer_core::{Aggregate, Predicate, Query};
use rand::Rng;

/// Marker for query template Q1.
pub struct Q1;
/// Marker for query template Q2.
pub struct Q2;
/// Marker for query template Q3.
pub struct Q3;
/// Marker for query template Q4.
pub struct Q4;
/// Marker for query template Q5.
pub struct Q5;

/// Builds randomized instances of the paper's query templates.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    /// Number of distinct locations queries may reference.
    pub locations: u64,
    /// Device ids queries may reference.
    pub devices: Vec<u64>,
    /// Full time extent of the ingested data `[start, end)` in seconds.
    pub time_extent: (u64, u64),
}

impl QueryWorkload {
    /// Q1: count at a random location over a random window of
    /// `range_seconds`.
    pub fn q1<R: Rng>(&self, range_seconds: u64, rng: &mut R) -> Query {
        let (start, end) = self.random_window(range_seconds, rng);
        Query {
            aggregate: Aggregate::Count,
            predicate: Predicate::Range {
                dims: Some(vec![rng.gen_range(0..self.locations)]),
                observation: None,
                time_start: start,
                time_end: end,
            },
        }
    }

    /// A point-query variant of Q1 (Exp 2's point query): count at a random
    /// location at a single instant.
    pub fn q1_point<R: Rng>(&self, rng: &mut R) -> Query {
        let t = rng.gen_range(self.time_extent.0..self.time_extent.1);
        Query {
            aggregate: Aggregate::Count,
            predicate: Predicate::Point {
                dims: vec![rng.gen_range(0..self.locations)],
                time: t,
            },
        }
    }

    /// Q2: top-k locations over a random window.
    pub fn q2<R: Rng>(&self, range_seconds: u64, k: usize, rng: &mut R) -> Query {
        let (start, end) = self.random_window(range_seconds, rng);
        Query {
            aggregate: Aggregate::TopKLocations { k },
            predicate: Predicate::Range {
                dims: None,
                observation: None,
                time_start: start,
                time_end: end,
            },
        }
    }

    /// Q3: locations with at least `threshold` observations over a window.
    pub fn q3<R: Rng>(&self, range_seconds: u64, threshold: u64, rng: &mut R) -> Query {
        let (start, end) = self.random_window(range_seconds, rng);
        Query {
            aggregate: Aggregate::LocationsWithAtLeast { threshold },
            predicate: Predicate::Range {
                dims: None,
                observation: None,
                time_start: start,
                time_end: end,
            },
        }
    }

    /// Q4: which locations saw a given device over a window
    /// (individualized).
    pub fn q4<R: Rng>(&self, range_seconds: u64, rng: &mut R) -> Query {
        let (start, end) = self.random_window(range_seconds, rng);
        let device = self.random_device(rng);
        Query {
            aggregate: Aggregate::CollectRows,
            predicate: Predicate::Range {
                dims: None,
                observation: Some(device),
                time_start: start,
                time_end: end,
            },
        }
    }

    /// Q5: how many times a given device was seen at a given location over
    /// a window (individualized).
    pub fn q5<R: Rng>(&self, range_seconds: u64, rng: &mut R) -> Query {
        let (start, end) = self.random_window(range_seconds, rng);
        let device = self.random_device(rng);
        Query {
            aggregate: Aggregate::Count,
            predicate: Predicate::Range {
                dims: Some(vec![rng.gen_range(0..self.locations)]),
                observation: Some(device),
                time_start: start,
                time_end: end,
            },
        }
    }

    /// All five templates with the same range length, in order Q1..Q5
    /// (used by Exps 2, 3 and 10).
    pub fn all_range_queries<R: Rng>(
        &self,
        range_seconds: u64,
        rng: &mut R,
    ) -> Vec<(&'static str, Query)> {
        vec![
            ("Q1", self.q1(range_seconds, rng)),
            ("Q2", self.q2(range_seconds, 5, rng)),
            ("Q3", self.q3(range_seconds, 10, rng)),
            ("Q4", self.q4(range_seconds, rng)),
            ("Q5", self.q5(range_seconds, rng)),
        ]
    }

    fn random_window<R: Rng>(&self, range_seconds: u64, rng: &mut R) -> (u64, u64) {
        // Windows are aligned to the filter-column time granularity (60 s in
        // every WiFi deployment in this repo): Concealer's count queries are
        // answered purely by granule-level string matching, so the query
        // semantics the paper evaluates are granule-aligned ranges.
        const GRANULE: u64 = 60;
        let (lo, hi) = self.time_extent;
        let extent = hi.saturating_sub(lo).max(1);
        let len = range_seconds
            .min(extent.saturating_sub(1))
            .max(1)
            .div_ceil(GRANULE)
            * GRANULE;
        let slack = extent.saturating_sub(len).max(1);
        let start = lo + (rng.gen_range(0..slack) / GRANULE) * GRANULE;
        (start, start + len - 1)
    }

    fn random_device<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.devices.is_empty() {
            0
        } else {
            self.devices[rng.gen_range(0..self.devices.len())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> QueryWorkload {
        QueryWorkload {
            locations: 10,
            devices: vec![1001, 1002, 1003],
            time_extent: (0, 36_000),
        }
    }

    #[test]
    fn q1_shape() {
        let w = workload();
        let mut rng = StdRng::seed_from_u64(1);
        let q = w.q1(1200, &mut rng);
        assert_eq!(q.aggregate, Aggregate::Count);
        match q.predicate {
            Predicate::Range {
                dims: Some(d),
                observation: None,
                time_start,
                time_end,
            } => {
                assert_eq!(d.len(), 1);
                assert!(d[0] < 10);
                assert_eq!(time_end - time_start + 1, 1200);
                assert!(time_end < 36_000);
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn q1_point_within_extent() {
        let w = workload();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let q = w.q1_point(&mut rng);
            match q.predicate {
                Predicate::Point { time, .. } => assert!(time < 36_000),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn q2_q3_unconstrained_dims() {
        let w = workload();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            w.q2(600, 3, &mut rng).predicate,
            Predicate::Range { dims: None, .. }
        ));
        assert!(matches!(
            w.q3(600, 5, &mut rng).aggregate,
            Aggregate::LocationsWithAtLeast { threshold: 5 }
        ));
    }

    #[test]
    fn q4_q5_are_individualized() {
        let w = workload();
        let mut rng = StdRng::seed_from_u64(4);
        let q4 = w.q4(600, &mut rng);
        assert!(q4.predicate.observation().is_some());
        let q5 = w.q5(600, &mut rng);
        assert!(q5.predicate.observation().is_some());
        assert!(q5.predicate.dims().is_some());
    }

    #[test]
    fn all_range_queries_labels() {
        let w = workload();
        let mut rng = StdRng::seed_from_u64(5);
        let queries = w.all_range_queries(1200, &mut rng);
        let labels: Vec<&str> = queries.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["Q1", "Q2", "Q3", "Q4", "Q5"]);
    }
}
