//! One fake budget: the enclave pads every range fetch from fakes it
//! counted itself, so each method's fixed fetch size holds whatever the
//! storage host says about the epoch — and what the sliding-window attack
//! of Example 5.2.2 sees under eBPB and under winSecRange.

use std::collections::BTreeSet;
use std::sync::Arc;

use concealer_bench::WifiScale;
use concealer_core::codec::decode_index_plain;
use concealer_core::query::AnswerValue;
use concealer_core::{
    ConcealerSystem, EpochWindow, ExecOptions, FakeTupleStrategy, Grid, MemoryBackend, Query,
    RangeMethod, Record, StorageBackend, SystemBuilder, SystemConfig, UserHandle,
};
use concealer_crypto::EpochId;
use concealer_examples::{build_system, demo_config, demo_wifi_config, DEMO_DEVICES};
use concealer_storage::{AccessEvent, NextEpochFn, Result as StoreResult, StoredEpoch};
use concealer_workloads::{WifiConfig, WifiGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one query showed the storage host: rows fetched, trapdoors issued
/// and how many of them missed, plus the answer.
#[derive(Debug, PartialEq)]
struct Seen {
    answer: AnswerValue,
    rows_fetched: usize,
    trapdoors: usize,
    missed: usize,
}

fn run(system: &ConcealerSystem, user: &UserHandle, query: &Query, method: RangeMethod) -> Seen {
    system.observer().reset();
    let answer = system
        .session(user)
        .execute_with(query, ExecOptions::with_method(method))
        .expect("query");
    assert!(answer.verified);
    let trace = system.observer().trace();
    let summary = system.observer().summary();
    assert_eq!(summary.rows_fetched, answer.rows_fetched);
    Seen {
        answer: answer.value,
        rows_fetched: answer.rows_fetched,
        trapdoors: summary.trapdoors,
        missed: trace
            .iter()
            .filter(|e| matches!(e, AccessEvent::TrapdoorIssued { hit: false, .. }))
            .count(),
    }
}

fn count_between(records: &[Record], t: (u64, u64)) -> AnswerValue {
    let n = records
        .iter()
        .filter(|r| (t.0..=t.1).contains(&r.time))
        .count();
    AnswerValue::Count(n as u64)
}

/// The WiFi Small stand-in (9 hours, 25 × 27 grid, 200 cell-ids, λ = 4:
/// seven intervals) on skewed peak/off-peak data, where the winSecRange
/// need is the largest of the three. Every single-interval winSecRange
/// query fetches exactly `interval_size` rows, every trapdoor it issues
/// finds its row, and the count is right.
#[test]
fn every_single_interval_winsec_query_fetches_the_interval_size() {
    let scale = WifiScale::Small;
    let hours = scale.base_hours();
    let grid = scale.grid(hours);
    let config = SystemConfig {
        winsec_rows_per_interval: (grid.time_subintervals / 6).max(1),
        grid,
        epoch_duration: hours * 3600,
        time_granularity: 60,
        fake_strategy: FakeTupleStrategy::SimulateBins,
        verify_integrity: true,
        oblivious: false,
    };
    let wifi = WifiConfig {
        access_points: scale.access_points(),
        devices: 500,
        peak_rows_per_hour: 5_000,
        offpeak_rows_per_hour: 600,
        location_skew: 0.8,
    };
    let mut rng = StdRng::seed_from_u64(0xC0CE_A1E5);
    let records = WifiGenerator::new(wifi).generate_epoch(0, config.epoch_duration, &mut rng);
    let mut system = build_system(config.clone(), &mut rng);
    let user = system.register_user(1, vec![], true);
    system.ingest_epoch(0, &records, &mut rng).unwrap();

    let plan = system.engine().plan_stats(0).unwrap().winsec;
    assert_eq!(plan.num_intervals, 7);
    let per_row = config.epoch_duration / config.grid.time_subintervals;
    let span = plan.rows_per_interval * per_row;
    let fetched: Vec<usize> = (0..plan.num_intervals as u64)
        .map(|i| {
            let t = (i * span, ((i + 1) * span).min(config.epoch_duration) - 1);
            let seen = run(
                &system,
                &user,
                &Query::count().between(t.0, t.1),
                RangeMethod::WinSecRange,
            );
            assert_eq!(seen.answer, count_between(&records, t), "interval {i}");
            assert_eq!(seen.missed, 0, "interval {i}");
            seen.rows_fetched
        })
        .collect();
    assert_eq!(
        fetched,
        vec![plan.interval_size as usize; plan.num_intervals]
    );
}

/// A storage host that states a lower row count than it stores: every
/// read, the metadata read at registration included, sees
/// `advertised_rows = rows` when `rows` is set.
#[derive(Debug, Default)]
struct StatedRowCount {
    inner: MemoryBackend,
    rows: Option<usize>,
}

impl StorageBackend for StatedRowCount {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn put_epoch(
        &self,
        epoch_id: u64,
        epoch: StoredEpoch,
        seal: Option<(u64, Vec<u8>)>,
    ) -> StoreResult<()> {
        self.inner.put_epoch(epoch_id, epoch, seal)
    }
    fn epoch(&self, epoch_id: u64) -> StoreResult<Arc<StoredEpoch>> {
        let epoch = self.inner.epoch(epoch_id)?;
        Ok(match self.rows {
            Some(rows) => {
                let mut stated = StoredEpoch::clone(&epoch);
                stated.metadata.advertised_rows = rows;
                Arc::new(stated)
            }
            None => epoch,
        })
    }
    fn update_epoch(&self, epoch_id: u64, next: &mut NextEpochFn<'_>) -> StoreResult<()> {
        self.inner.update_epoch(epoch_id, next)
    }
    fn epoch_ids(&self) -> Vec<u64> {
        self.inner.epoch_ids()
    }
    fn total_rows(&self) -> usize {
        self.inner.total_rows()
    }
}

/// The two-hour demo deployment on `backend`.
fn demo_on(backend: StatedRowCount, seed: u64) -> (ConcealerSystem, UserHandle, Vec<Record>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let records = WifiGenerator::new(demo_wifi_config()).generate_epoch(0, 2 * 3600, &mut rng);
    let mut system = SystemBuilder::new(demo_config(2))
        .with_backend(Arc::new(backend))
        .build(&mut rng)
        .unwrap();
    let user = system.register_user(7, DEMO_DEVICES.collect(), true);
    system.ingest_epoch(0, &records, &mut rng).unwrap();
    (system, user, records)
}

/// The host's row count is not an input to any fetch: a host that says
/// the epoch holds no fakes at all (`advertised_rows = n`) sees the same
/// rows fetched, the same trapdoors and the same answers as its honest
/// twin, for every method.
#[test]
fn a_lower_stated_row_count_changes_no_fetch() {
    const SEED: u64 = 0xC0CE_A1E5;
    let (honest, user, records) = demo_on(StatedRowCount::default(), SEED);
    let (lying, lying_user, _) = demo_on(
        StatedRowCount {
            inner: MemoryBackend::new(),
            rows: Some(records.len()),
        },
        SEED,
    );
    assert_eq!(
        lying.store().metadata(0).unwrap().advertised_rows,
        records.len()
    );
    assert!(honest.store().metadata(0).unwrap().advertised_rows > records.len());

    let mut queries: Vec<(Query, RangeMethod)> = (0..8u64)
        .map(|loc| {
            let start = loc * 900;
            (
                Query::count().at_dims([loc]).between(start, start + 1_799),
                RangeMethod::Ebpb,
            )
        })
        .collect();
    for method in [RangeMethod::Bpb, RangeMethod::WinSecRange] {
        queries.push((Query::count().at_dims([3]).between(0, 4_499), method));
        queries.push((Query::count().between(3_600, 7_199), method));
    }
    queries.push((Query::count().at_dims([5]).at(1_000), RangeMethod::Bpb));

    for (query, method) in &queries {
        let want = run(&honest, &user, query, *method);
        assert_eq!(want.missed, 0, "{method:?} {query:?}");
        assert_eq!(
            run(&lying, &lying_user, query, *method),
            want,
            "{method:?} {query:?}"
        );
    }
}

/// Example 5.2.2: two overlapping windows of one length over one column.
/// eBPB fetches exactly the cell-ids each window covers, so the two
/// fetches differ by the real rows of the cell-ids that left and those
/// that entered — what a sliding-window observer learns. winSecRange
/// fetches whole fixed intervals, so two windows inside the same interval
/// fetch the identical row-id set.
#[test]
fn sliding_windows_leak_under_ebpb_and_not_under_winsec() {
    let (system, user, _) = demo_on(StatedRowCount::default(), 522);
    let config = demo_config(2);
    let window = EpochWindow {
        start: 0,
        duration: config.epoch_duration,
    };
    let key = system.engine().enclave().epoch_key(EpochId(0), 0);
    let grid = Grid::new(config.grid.clone(), window, key.grid_prf.clone());
    let assignment = grid.cell_id_assignment();
    // The cell-id of every stored row, `None` for a fake.
    let cid_of: Vec<Option<u32>> = system
        .store()
        .full_scan(0)
        .unwrap()
        .iter()
        .map(|row| {
            let plain = key.det.decrypt(&row.index_key).unwrap();
            decode_index_plain(&plain).map(|(cid, _)| cid)
        })
        .collect();
    let per_row = config.epoch_duration / config.grid.time_subintervals;
    let rows_of = |from: u64, len: u64| (from..from + len).collect::<Vec<u64>>();
    let span = |from: u64, len: u64| (from * per_row, (from + len) * per_row - 1);
    let fetch = |query: &Query, method: RangeMethod| {
        run(&system, &user, query, method);
        let fetched: Vec<u64> = system
            .observer()
            .per_query_fetch_sets()
            .concat()
            .into_iter()
            .map(|(_, row)| row)
            .collect();
        fetched
    };
    let real_of = |rows: &[u64]| -> BTreeSet<u64> {
        rows.iter()
            .copied()
            .filter(|&r| cid_of[r as usize].is_some())
            .collect()
    };

    // Two-row windows at rows 0–1 and 1–2, both inside the first
    // four-row winSecRange interval.
    let (len, first, second) = (2, 0, 1);
    let mut leaked = 0;
    for loc in 0..12u64 {
        let cids = |from: u64| -> BTreeSet<u32> {
            let cells = grid.cells_for_dims(&[loc], &rows_of(from, len)).unwrap();
            cells.iter().map(|&c| assignment[c as usize]).collect()
        };
        let (a_cids, b_cids) = (cids(first), cids(second));
        let (w1, w2) = (span(first, len), span(second, len));
        let q1 = Query::count().at_dims([loc]).between(w1.0, w1.1);
        let q2 = Query::count().at_dims([loc]).between(w2.0, w2.1);

        let (a, b) = (
            real_of(&fetch(&q1, RangeMethod::Ebpb)),
            real_of(&fetch(&q2, RangeMethod::Ebpb)),
        );
        let rows_with = |cids: BTreeSet<u32>| -> BTreeSet<u64> {
            (0..cid_of.len() as u64)
                .filter(|&r| cid_of[r as usize].is_some_and(|c| cids.contains(&c)))
                .collect()
        };
        let left = rows_with(a_cids.difference(&b_cids).copied().collect());
        let entered = rows_with(b_cids.difference(&a_cids).copied().collect());
        assert_eq!(a.difference(&b).copied().collect::<BTreeSet<_>>(), left);
        assert_eq!(b.difference(&a).copied().collect::<BTreeSet<_>>(), entered);
        leaked += usize::from(!left.is_empty() || !entered.is_empty());

        let (a, b) = (
            fetch(&q1, RangeMethod::WinSecRange),
            fetch(&q2, RangeMethod::WinSecRange),
        );
        assert!(!a.is_empty());
        assert_eq!(a, b, "location {loc}");
    }
    assert!(leaked > 0, "no window slide moved an eBPB fetch");
}
