//! Shared dataset / system setup for benchmarks and the `paper_tables`
//! binary.

use concealer_core::{
    ConcealerSystem, ExecOptions, FakeTupleStrategy, GridShape, Query, RangeMethod, Record,
    Session, SystemConfig, UserHandle,
};
use concealer_workloads::{
    QueryWorkload, TpchConfig, TpchGenerator, TpchIndex, WifiConfig, WifiGenerator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scale multiplier read from `CONCEALER_SCALE` (default 1).
#[must_use]
pub fn scale_multiplier() -> u64 {
    std::env::var("CONCEALER_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}

/// A scaled stand-in for the paper's WiFi datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WifiScale {
    /// Stand-in for the 26M-row / 44-day dataset.
    Small,
    /// Stand-in for the 136M-row / 202-day dataset.
    Large,
    /// Extra-small dataset for unit tests of the harness itself.
    Tiny,
}

impl WifiScale {
    /// Hours of synthetic data generated at scale multiplier 1.
    #[must_use]
    pub fn base_hours(self) -> u64 {
        match self {
            WifiScale::Tiny => 2,
            WifiScale::Small => 9,
            WifiScale::Large => 46,
        }
    }

    /// Grid shape, scaled down from the paper's 490 × 16,000 grid with
    /// 87,000 cell-ids in rough proportion to the dataset scale-down.
    #[must_use]
    pub fn grid(self, hours: u64) -> GridShape {
        match self {
            WifiScale::Tiny => GridShape {
                dim_buckets: vec![10],
                time_subintervals: (hours * 4).max(4),
                num_cell_ids: 30,
            },
            WifiScale::Small => GridShape {
                dim_buckets: vec![25],
                time_subintervals: (hours * 3).max(8),
                num_cell_ids: 200,
            },
            WifiScale::Large => GridShape {
                dim_buckets: vec![49],
                time_subintervals: (hours * 3).max(8),
                num_cell_ids: 450,
            },
        }
    }

    /// Access points in the synthetic deployment.
    #[must_use]
    pub fn access_points(self) -> u64 {
        match self {
            WifiScale::Tiny => 20,
            WifiScale::Small => 100,
            WifiScale::Large => 200,
        }
    }
}

/// A fully built WiFi benchmark system.
pub struct ScaledWifi {
    /// The Concealer deployment holding the data.
    pub system: ConcealerSystem,
    /// A registered user allowed to run every query class.
    pub user: UserHandle,
    /// The cleartext records (ground truth / baseline input).
    pub records: Vec<Record>,
    /// Query workload generator over the ingested extent.
    pub workload: QueryWorkload,
    /// Total span of the data in seconds (single epoch).
    pub span_seconds: u64,
    /// Bin statistics: `(num_bins, bin_size)`.
    pub bin_stats: (usize, u64),
}

impl ScaledWifi {
    /// Open a query session for the benchmark user with default options.
    #[must_use]
    pub fn session(&self) -> Session<'_> {
        self.system.session(&self.user)
    }
}

/// Build a Concealer system loaded with synthetic WiFi data at the given
/// scale. `oblivious` selects Concealer (+) — the paper's side-channel
/// hardened variant.
#[must_use]
pub fn build_wifi_system(scale: WifiScale, oblivious: bool, seed: u64) -> ScaledWifi {
    build_wifi_system_with(scale, oblivious, seed, None, None)
}

/// Like [`build_wifi_system`] but allowing overrides of the cell-id count
/// (Exp 7), the winSecRange interval length, and whether verification tags
/// are produced (Exp 4 compares with/without).
#[must_use]
pub fn build_wifi_system_with(
    scale: WifiScale,
    oblivious: bool,
    seed: u64,
    num_cell_ids_override: Option<u32>,
    winsec_rows_override: Option<u64>,
) -> ScaledWifi {
    build_wifi_system_full(
        scale,
        oblivious,
        seed,
        num_cell_ids_override,
        winsec_rows_override,
        true,
    )
}

/// The fully parameterized WiFi system builder.
#[must_use]
pub fn build_wifi_system_full(
    scale: WifiScale,
    oblivious: bool,
    seed: u64,
    num_cell_ids_override: Option<u32>,
    winsec_rows_override: Option<u64>,
    verify_integrity: bool,
) -> ScaledWifi {
    let hours = scale.base_hours() * scale_multiplier();
    let span_seconds = hours * 3600;
    let mut grid = scale.grid(hours);
    if let Some(u) = num_cell_ids_override {
        grid.num_cell_ids = u;
    }

    let config = SystemConfig {
        grid,
        epoch_duration: span_seconds,
        time_granularity: 60,
        fake_strategy: FakeTupleStrategy::SimulateBins,
        verify_integrity,
        oblivious,
        // The paper uses 8-hour intervals on the small dataset and ~1-day
        // intervals on the large one; 1/6 of the span approximates that.
        winsec_rows_per_interval: winsec_rows_override
            .unwrap_or_else(|| (scale.grid(hours).time_subintervals / 6).max(1)),
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let generator = WifiGenerator::new(WifiConfig {
        access_points: scale.access_points(),
        devices: 500,
        peak_rows_per_hour: 5_000,
        offpeak_rows_per_hour: 600,
        location_skew: 0.8,
    });
    let records = generator.generate_epoch(0, span_seconds, &mut rng);

    // Honors the `CONCEALER_TEST_BACKEND` harness hook, so the whole bench
    // harness is backend-agnostic like the integration suites.
    let mut system = concealer_examples::build_system(config, &mut rng);
    let devices: Vec<u64> = (1000..1500).collect();
    let user = system.register_user(1, devices.clone(), true);
    system
        .ingest_epoch(0, &records, &mut rng)
        .expect("ingest benchmark epoch");
    let plan = system.engine().plan_stats(0).expect("plan stats");
    let bin_stats = (plan.num_bins, plan.bin_size);

    let workload = QueryWorkload {
        locations: scale.access_points(),
        devices,
        time_extent: (0, span_seconds),
    };
    ScaledWifi {
        system,
        user,
        records,
        workload,
        span_seconds,
        bin_stats,
    }
}

/// One request of the serving-layer mixed workload: what a wire client
/// submits in one protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerRequest {
    /// A single query with the options to carry in the request.
    Query(Query, ExecOptions),
    /// A batch with the options to carry (BPB for cross-query dedup; a
    /// nonzero parallelism exercises the server's thread-pool path).
    Batch(Vec<Query>, ExecOptions),
}

impl ServerRequest {
    /// Number of queries this request answers.
    #[must_use]
    pub fn query_count(&self) -> usize {
        match self {
            ServerRequest::Query(..) => 1,
            ServerRequest::Batch(queries, _) => queries.len(),
        }
    }
}

/// The deterministic mixed point/range/batch request stream the serving
/// layer is soaked with — shared by `concealer-server`'s soak test and the
/// root loopback tests, and regenerable by an oracle process from the same
/// `(workload, seed)` pair. Every sixth request is a `batch_len`-query BPB
/// batch (executed with parallelism 2 on the server); the rest alternate
/// point lookups, Q1/Q2 aggregate ranges and a Q5 individualized range.
#[must_use]
pub fn server_request_mix(
    workload: &QueryWorkload,
    seed: u64,
    requests: usize,
    batch_len: usize,
) -> Vec<ServerRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let single = ExecOptions::default();
    let batch = ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(2);
    (0..requests)
        .map(|i| match i % 6 {
            0 => ServerRequest::Query(workload.q1_point(&mut rng), single),
            1 | 2 => ServerRequest::Query(workload.q1(30 * 60, &mut rng), single),
            3 => ServerRequest::Query(workload.q2(45 * 60, 5, &mut rng), single),
            4 => ServerRequest::Query(workload.q5(25 * 60, &mut rng), single),
            _ => {
                let queries: Vec<Query> = (0..batch_len.max(1))
                    .map(|j| match j % 3 {
                        0 => workload.q1_point(&mut rng),
                        1 => workload.q1(20 * 60, &mut rng),
                        _ => workload.q2(40 * 60, 4, &mut rng),
                    })
                    .collect();
                ServerRequest::Batch(queries, batch)
            }
        })
        .collect()
}

/// A fully built TPC-H benchmark system (Exp 8).
pub struct TpchBench {
    /// The Concealer deployment.
    pub system: ConcealerSystem,
    /// Registered user.
    pub user: UserHandle,
    /// Cleartext records.
    pub records: Vec<Record>,
    /// The epoch duration (synthetic time domain size).
    pub epoch_duration: u64,
    /// The index layout generated.
    pub index: TpchIndex,
}

impl TpchBench {
    /// Open a query session for the benchmark user with default options.
    #[must_use]
    pub fn session(&self) -> Session<'_> {
        self.system.session(&self.user)
    }
}

/// Build a Concealer system loaded with synthetic TPC-H LineItem data for
/// the 2-D or 4-D composite index.
#[must_use]
pub fn build_tpch_system(index: TpchIndex, rows: u64, oblivious: bool, seed: u64) -> TpchBench {
    let rows = rows * scale_multiplier();
    let generator = TpchGenerator::new(TpchConfig {
        rows,
        orders: (rows / 4).max(1),
        parts: 2_000.min(rows.max(10)),
        suppliers: 100,
        index,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let records = generator.generate_records(&mut rng);
    let epoch_duration = generator.epoch_duration();

    // Grid shapes mirror the paper's 112,000×7 (2-D) and 1500×100×10×7
    // (4-D) grids, scaled to the row count.
    let grid = match index {
        TpchIndex::TwoD => GridShape {
            dim_buckets: vec![(rows / 40).max(8), 7],
            time_subintervals: 1,
            num_cell_ids: ((rows / 100).max(8) as u32).min(100_000),
        },
        TpchIndex::FourD => GridShape {
            dim_buckets: vec![(rows / 300).max(4), 20, 10, 7],
            time_subintervals: 1,
            num_cell_ids: ((rows / 100).max(8) as u32).min(100_000),
        },
    };
    let config = SystemConfig {
        grid,
        epoch_duration,
        time_granularity: 1,
        fake_strategy: FakeTupleStrategy::SimulateBins,
        verify_integrity: false,
        oblivious,
        winsec_rows_per_interval: 1,
    };
    let mut system = concealer_examples::build_system(config, &mut rng);
    let user = system.register_user(1, vec![], true);
    system
        .ingest_epoch(0, &records, &mut rng)
        .expect("ingest TPC-H epoch");
    TpchBench {
        system,
        user,
        records,
        epoch_duration,
        index,
    }
}

/// Pick a TPC-H query target (an existing orderkey/linenumber combination)
/// from the generated records.
#[must_use]
pub fn tpch_query_dims(bench: &TpchBench, i: usize) -> Vec<u64> {
    let r = &bench.records[i % bench.records.len()];
    r.dims.clone()
}

/// Ground-truth count for a query, evaluated over the cleartext records.
#[must_use]
pub fn cleartext_count(records: &[Record], query: &Query) -> u64 {
    records
        .iter()
        .filter(|r| concealer_baselines::cleartext::record_matches(r, &query.predicate))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_wifi_system_builds_and_answers() {
        let bench = build_wifi_system(WifiScale::Tiny, false, 1);
        assert!(!bench.records.is_empty());
        assert!(bench.bin_stats.0 > 0);
        let mut rng = StdRng::seed_from_u64(2);
        let q = bench.workload.q1(600, &mut rng);
        let answer = bench.session().execute(&q).unwrap();
        let expected = cleartext_count(&bench.records, &q);
        assert_eq!(
            answer.value,
            concealer_core::query::AnswerValue::Count(expected)
        );
    }

    #[test]
    fn tiny_tpch_system_builds_and_answers() {
        let bench = build_tpch_system(TpchIndex::TwoD, 1_500, false, 3);
        let dims = tpch_query_dims(&bench, 7);
        let q = Query::count()
            .at_dims(dims)
            .between(0, bench.epoch_duration - 1);
        let answer = bench.session().execute(&q).unwrap();
        let expected = cleartext_count(&bench.records, &q);
        assert_eq!(
            answer.value,
            concealer_core::query::AnswerValue::Count(expected)
        );
        assert!(expected >= 1);
    }

    #[test]
    fn server_request_mix_is_deterministic_and_mixed() {
        let workload = QueryWorkload {
            locations: 10,
            devices: vec![1001, 1002],
            time_extent: (0, 7200),
        };
        let a = server_request_mix(&workload, 5, 12, 4);
        let b = server_request_mix(&workload, 5, 12, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        let batches = a
            .iter()
            .filter(|r| matches!(r, ServerRequest::Batch(..)))
            .count();
        assert_eq!(batches, 2, "every sixth request is a batch");
        let queries: usize = a.iter().map(ServerRequest::query_count).sum();
        assert_eq!(queries, 10 + 2 * 4);
        // A different seed produces a different stream.
        assert_ne!(server_request_mix(&workload, 6, 12, 4), a);
    }

    #[test]
    fn scale_multiplier_defaults_to_one() {
        // The env var is not set in the test environment.
        assert_eq!(scale_multiplier(), 1);
    }
}
