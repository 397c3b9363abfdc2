use super::*;
use crate::config::{FakeTupleStrategy, GridShape};
use crate::query::AnswerValue;
use crate::types::Record;
use std::sync::Arc;

use concealer_storage::{
    EncryptedTable, MemoryBackend, Result as StoreResult, RowArena, StorageBackend, StoredEpoch,
};

fn test_config(oblivious: bool) -> SystemConfig {
    SystemConfig {
        grid: GridShape {
            dim_buckets: vec![6],
            time_subintervals: 8,
            num_cell_ids: 16,
        },
        epoch_duration: 3600,
        time_granularity: 60,
        fake_strategy: FakeTupleStrategy::SimulateBins,
        verify_integrity: true,
        oblivious,
        winsec_rows_per_interval: 2,
    }
}

/// Deterministic workload: 8 locations, device ids 100-104, one record
/// every 9 seconds.
fn workload(epoch_start: u64, n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::spatial(i % 8, epoch_start + (i * 9) % 3600, 100 + i % 5))
        .collect()
}

/// Count records matching a predicate in cleartext (ground truth).
fn cleartext_count(
    records: &[Record],
    dims: Option<&[u64]>,
    obs: Option<u64>,
    t: (u64, u64),
) -> u64 {
    records
        .iter()
        .filter(|r| {
            dims.is_none_or(|d| r.dims == d)
                && obs.is_none_or(|o| r.observation() == Some(o))
                && r.time >= t.0
                && r.time <= t.1
        })
        .count() as u64
}

fn setup(oblivious: bool) -> (ConcealerSystem, UserHandle, Vec<Record>) {
    let mut rng = StdRng::seed_from_u64(99);
    let mut system = ConcealerSystem::new(test_config(oblivious), &mut rng);
    let user = system.register_user(1, vec![100, 101, 102, 103, 104], true);
    let records = workload(0, 400);
    system.ingest_epoch(0, &records, &mut rng).unwrap();
    (system, user, records)
}

#[test]
fn point_query_count_matches_cleartext() {
    let (system, user, records) = setup(false);
    // Pick an existing record's (location, time).
    let target = &records[37];
    let query = Query::count().at_dims(target.dims.clone()).at(target.time);
    let answer = system.session(&user).execute(&query).unwrap();
    // Point filter tokens cover the whole granule the target falls in.
    let g = 60;
    let granule_start = (target.time / g) * g;
    let expected = cleartext_count(
        &records,
        Some(&target.dims),
        None,
        (granule_start, granule_start + g - 1),
    );
    assert_eq!(answer.value, AnswerValue::Count(expected));
    assert!(answer.verified);
    assert!(answer.rows_fetched > 0);
}

#[test]
fn range_count_matches_cleartext_all_methods() {
    let (system, user, records) = setup(false);
    let session = system.session(&user);
    for method in [
        RangeMethod::Bpb,
        RangeMethod::Ebpb,
        RangeMethod::WinSecRange,
    ] {
        let query = Query::count().at_dims([3]).between(0, 1799);
        let answer = session
            .execute_with(&query, ExecOptions::with_method(method))
            .unwrap();
        let expected = cleartext_count(&records, Some(&[3]), None, (0, 1799));
        assert_eq!(answer.value, AnswerValue::Count(expected), "{method:?}");
    }
}

#[test]
fn oblivious_engine_matches_plain_engine() {
    let (plain_sys, plain_user, records) = setup(false);
    let (obliv_sys, obliv_user, _) = setup(true);
    let query = Query::count().at_dims([5]).between(600, 2399);
    let a = plain_sys.session(&plain_user).execute(&query).unwrap();
    let b = obliv_sys.session(&obliv_user).execute(&query).unwrap();
    assert_eq!(a.value, b.value);
    let expected = cleartext_count(&records, Some(&[5]), None, (600, 2399));
    assert_eq!(a.value, AnswerValue::Count(expected));
}

#[test]
fn oblivious_override_matches_deployment_default() {
    // Same master key, one plain deployment: forcing oblivious on via
    // ExecOptions must return the same answers as the plain path.
    let (system, user, records) = setup(false);
    let session = system.session(&user);
    let query = Query::count().at_dims([2]).between(0, 3599);
    let plain = session.execute(&query).unwrap();
    let forced = session
        .execute_with(
            &query,
            ExecOptions {
                oblivious: Some(true),
                ..ExecOptions::default()
            },
        )
        .unwrap();
    assert_eq!(plain.value, forced.value);
    let expected = cleartext_count(&records, Some(&[2]), None, (0, 3599));
    assert_eq!(plain.value, AnswerValue::Count(expected));
}

#[test]
fn verification_toggle_disables_verified_flag() {
    let (system, user, records) = setup(false);
    let session = system.session(&user);
    let target = &records[10];
    let query = Query::count().at_dims(target.dims.clone()).at(target.time);
    let on = session.execute(&query).unwrap();
    assert!(on.verified);
    let off = session
        .execute_with(
            &query,
            ExecOptions {
                verify: false,
                ..ExecOptions::default()
            },
        )
        .unwrap();
    assert!(!off.verified);
    assert_eq!(on.value, off.value);
}

#[test]
fn observation_query_requires_owned_device() {
    let (mut system, _user, _records) = setup(false);
    let stranger = system.register_user(2, vec![999], true);
    let query = Query::collect_rows().observing(100).between(0, 3599);
    let err = system.session(&stranger).execute(&query).unwrap_err();
    assert!(matches!(err, CoreError::Enclave(_)));
}

#[test]
fn observation_query_counts_device_sightings() {
    let (system, user, records) = setup(false);
    let query = Query::count().observing(102).between(0, 3599);
    let answer = system
        .session(&user)
        .execute_with(&query, ExecOptions::with_method(RangeMethod::Bpb))
        .unwrap();
    let expected = cleartext_count(&records, None, Some(102), (0, 3599));
    assert_eq!(answer.value, AnswerValue::Count(expected));
}

#[test]
fn top_k_locations_query() {
    let (system, user, records) = setup(false);
    let query = Query::top_k_locations(3).between(0, 3599);
    let answer = system
        .session(&user)
        .execute_with(&query, ExecOptions::with_method(RangeMethod::Bpb))
        .unwrap();
    // Ground truth top-3.
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &records {
        *counts.entry(r.dims[0]).or_insert(0) += 1;
    }
    let mut pairs: Vec<(u64, u64)> = counts.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(3);
    assert_eq!(answer.value, AnswerValue::LocationCounts(pairs));
}

#[test]
fn volume_hiding_point_queries_fetch_identical_row_counts() {
    let (system, user, records) = setup(false);
    let session = system.session(&user);
    let targets: Vec<(Vec<u64>, u64)> = vec![
        (records[3].dims.clone(), records[3].time),
        (records[200].dims.clone(), records[200].time),
        (vec![7], 3500), // likely sparse cell
    ];
    let mut sizes = Vec::new();
    for (dims, time) in targets {
        let query = Query::count().at_dims(dims).at(time);
        let answer = session.execute(&query).unwrap();
        sizes.push(answer.rows_fetched);
    }
    assert_eq!(sizes[0], sizes[1]);
    assert_eq!(sizes[1], sizes[2], "every point query fetches one full bin");
    // And the adversary's trace shows identical per-query fetch counts.
    let summaries = system.observer().per_query_summaries();
    let fetch_counts: Vec<usize> = summaries.iter().map(|s| s.rows_fetched).collect();
    assert!(
        fetch_counts.windows(2).all(|w| w[0] == w[1]),
        "{fetch_counts:?}"
    );
}

#[test]
fn query_outside_ingested_data_errors() {
    let (system, user, _) = setup(false);
    let query = Query::count().at_dims([1]).at(999_999);
    assert!(matches!(
        system.session(&user).execute(&query),
        Err(CoreError::NoDataForRange)
    ));
}

#[test]
fn tampering_is_detected_at_query_time() {
    let (system, user, records) = setup(false);
    // The adversary (service provider) flips a payload byte in every
    // stored row. Tampering a single arbitrary row would make the test
    // depend on whether that row happens to be real or a volume-hiding
    // fake (fakes carry no data, so their payloads are covered by no
    // hash chain); hitting all rows guarantees a covered victim.
    let epoch_rows = system.store().full_scan(0).unwrap();
    let rewrites: Vec<_> = epoch_rows
        .iter()
        .map(|row| {
            let mut tampered = row.clone();
            tampered.payload[5] ^= 0x01;
            (row.index_key.clone(), tampered)
        })
        .collect();
    system.store().rewrite_rows(0, rewrites).unwrap();

    // Sweep queries until one hits the tampered row's bin.
    let session = system.session(&user);
    let mut detected = false;
    for r in records.iter().step_by(7) {
        let query = Query::count().at_dims(r.dims.clone()).at(r.time);
        match session.execute(&query) {
            Err(CoreError::IntegrityViolation { .. }) => {
                detected = true;
                break;
            }
            Ok(_) | Err(_) => continue,
        }
    }
    assert!(detected, "tampering must surface as an integrity violation");
}

#[test]
fn tampering_after_a_bin_is_cached_is_detected() {
    let (system, user, records) = setup(false);
    let session = system.session(&user);
    let target = &records[3];
    let query = Query::count().at_dims(target.dims.clone()).at(target.time);

    // The cold execution verifies and caches the bin; the next is warm.
    system.observer().reset();
    let answer = session.execute(&query).unwrap();
    let bin_rows = system.observer().per_query_fetch_sets().remove(0);
    assert_eq!(session.execute(&query).unwrap().value, answer.value);
    assert_eq!(system.engine().bin_cache_stats().hits, 1);

    // The provider now flips a payload byte of one row of that bin, under
    // its unchanged index key, one row at a time until it hits a real
    // tuple. Every rewrite makes the warm replay diverge, so the bin is
    // fetched and verified cold again: a fake's payload is covered by no
    // hash chain and the answer stands; a real tuple's is, and the
    // execution must fail.
    let stored = system.store().full_scan(0).unwrap();
    let mut detected = false;
    for (_, row_id) in bin_rows {
        let mut tampered = stored[row_id as usize].clone();
        tampered.payload[5] ^= 0x01;
        system
            .store()
            .rewrite_rows(0, vec![(tampered.index_key.clone(), tampered)])
            .unwrap();
        let misses = system.engine().bin_cache_stats().misses;
        match session.execute(&query) {
            Err(CoreError::IntegrityViolation { .. }) => {
                detected = true;
                break;
            }
            other => assert_eq!(other.unwrap().value, answer.value),
        }
        assert_eq!(system.engine().bin_cache_stats().misses, misses + 1);
    }
    assert!(detected, "a tampered cached bin must not be served warm");
}

#[test]
fn multi_epoch_range_query_spans_epochs() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut system = ConcealerSystem::new(test_config(false), &mut rng);
    let user = system.register_user(1, vec![], true);
    let r0 = workload(0, 200);
    let r1 = workload(3600, 200);
    system.ingest_epoch(0, &r0, &mut rng).unwrap();
    system.ingest_epoch(3600, &r1, &mut rng).unwrap();

    let query = Query::count().at_dims([2]).between(1800, 5399);
    let answer = system
        .session(&user)
        .execute_with(&query, ExecOptions::with_method(RangeMethod::Bpb))
        .unwrap();
    let mut all = r0;
    all.extend(r1);
    let expected = cleartext_count(&all, Some(&[2]), None, (1800, 5399));
    assert_eq!(answer.value, AnswerValue::Count(expected));
    assert_eq!(answer.epochs_touched, 2);
}

#[test]
fn forward_private_query_reencrypts_and_stays_correct() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut system = ConcealerSystem::new(test_config(false), &mut rng);
    let user = system.register_user(1, vec![], true);
    let r0 = workload(0, 150);
    let r1 = workload(3600, 150);
    system.ingest_epoch(0, &r0, &mut rng).unwrap();
    system.ingest_epoch(3600, &r1, &mut rng).unwrap();

    let query = Query::count().at_dims([4]).between(0, 7199);
    let opts = ExecOptions {
        method: RangeMethod::Bpb,
        forward_private: true,
        ..ExecOptions::default()
    };
    let mut all = r0;
    all.extend(r1);
    let expected = cleartext_count(&all, Some(&[4]), None, (0, 7199));

    // Run the same query several times: answers stay correct even though
    // the underlying rows are re-encrypted after every execution.
    let session = system.session(&user).with_options(opts);
    for i in 0..3 {
        let answer = session.execute(&query).unwrap();
        assert_eq!(answer.value, AnswerValue::Count(expected), "iteration {i}");
    }
    // The store has seen rewrites.
    assert!(system.store().rewrite_count(0).unwrap() > 0);
    assert!(system.store().rewrite_count(3600).unwrap() > 0);
}

fn forward_private_opts() -> ExecOptions {
    ExecOptions {
        method: RangeMethod::Bpb,
        forward_private: true,
        ..ExecOptions::default()
    }
}

/// Two epochs of 150 records each on `backend`, so a range over both runs
/// the multi-round §6 protocol.
fn two_epochs(backend: Arc<dyn StorageBackend>) -> (ConcealerSystem, UserHandle, Vec<Record>) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut system = crate::SystemBuilder::new(test_config(false))
        .with_backend(backend)
        .build(&mut rng)
        .unwrap();
    let user = system.register_user(1, vec![], true);
    let mut records = Vec::new();
    for start in [0, 3600] {
        let epoch = workload(start, 150);
        system.ingest_epoch(start, &epoch, &mut rng).unwrap();
        records.extend(epoch);
    }
    (system, user, records)
}

#[test]
fn forward_private_query_fetches_each_bin_once() {
    let (system, user, _) = two_epochs(Arc::new(MemoryBackend::new()));

    // The §6 protocol re-encrypts what the query fetched: the provider
    // sees exactly the rows the answer accounts for, not a second fetch
    // of every bin before its rewrite.
    system.observer().reset();
    let answer = system
        .session(&user)
        .with_options(forward_private_opts())
        .execute(&Query::count().at_dims([4]).between(0, 7199))
        .unwrap();
    assert!(system.store().rewrite_count(0).unwrap() > 0);
    assert_eq!(
        system.observer().summary().rows_fetched,
        answer.rows_fetched
    );
}

/// A provider that answers honestly until an epoch's first rewrite and
/// from then on leaves one chosen row position out of every read of that
/// epoch (the seed of a fault-injecting backend).
#[derive(Debug, Default)]
struct DroppingBackend {
    inner: MemoryBackend,
    /// Per epoch: the row position to hide, and whether hiding has begun.
    victims: Mutex<BTreeMap<u64, (usize, bool)>>,
}

impl StorageBackend for DroppingBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn put_epoch(&self, epoch_id: u64, epoch: StoredEpoch) -> StoreResult<()> {
        self.inner.put_epoch(epoch_id, epoch)
    }
    fn with_epoch(&self, epoch_id: u64, f: &mut dyn FnMut(&StoredEpoch)) -> StoreResult<()> {
        let hidden = match self.victims.lock().get(&epoch_id) {
            Some(&(position, true)) => Some(position),
            _ => None,
        };
        self.inner.with_epoch(epoch_id, &mut |epoch| {
            let Some(position) = hidden else {
                return f(epoch);
            };
            let mut rows = RowArena::new();
            for (i, row) in epoch.table.rows().iter().enumerate() {
                if i != position {
                    rows.push_ref(row);
                }
            }
            let table = EncryptedTable::bulk_load(rows).unwrap();
            f(&StoredEpoch {
                table,
                ..epoch.clone()
            });
        })
    }
    fn update_epoch(
        &self,
        epoch_id: u64,
        f: &mut dyn FnMut(&mut StoredEpoch) -> StoreResult<()>,
    ) -> StoreResult<()> {
        if let Some((_, armed)) = self.victims.lock().get_mut(&epoch_id) {
            *armed = true;
        }
        self.inner.update_epoch(epoch_id, f)
    }
    fn epoch_ids(&self) -> Vec<u64> {
        self.inner.epoch_ids()
    }
    fn epoch_count(&self) -> usize {
        self.inner.epoch_count()
    }
    fn total_rows(&self) -> usize {
        self.inner.total_rows()
    }
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
}

#[test]
fn forward_private_rewrite_never_launders_a_dropped_row() {
    let backend = Arc::new(DroppingBackend::default());
    let (system, user, records) = two_epochs(backend.clone());

    // The victim: a real tuple of epoch 0's last bin — the bin the §6
    // protocol rewrites last, so every read of it that follows the
    // query's own (verified) fetch comes after the epoch's first rewrite.
    let key = system.engine().enclave().epoch_key(EpochId(0), 0);
    let victim = {
        let epochs = system.engine().epochs.read();
        let plan = &epochs[&0].bin_plan;
        assert!(plan.num_bins() > 1);
        let stored = system.store().full_scan(0).unwrap();
        stored
            .iter()
            .position(|row| {
                let index_plain = key.det.decrypt(&row.index_key).unwrap();
                codec::decode_index_plain(&index_plain)
                    .is_some_and(|(cid, _)| plan.bin_of_cell(cid) == Some(plan.num_bins() - 1))
            })
            .expect("the last bin holds a real tuple")
    };
    backend.victims.lock().insert(0, (victim, false));

    // Every bin of both epochs is fetched, verified and rewritten.
    let query = Query::count().between(0, 7199);
    let expected = cleartext_count(&records, None, None, (0, 7199));
    let session = system.session(&user);
    let answer = session
        .execute_with(&query, forward_private_opts())
        .unwrap();
    assert_eq!(answer.value, AnswerValue::Count(expected));
    assert!(system.store().rewrite_count(0).unwrap() > 0);

    // The provider is now withholding a row. A verifying query either
    // still sees every real tuple (the withheld position holds a fake) or
    // fails — it never reports a short count as verified.
    match session.execute_with(&query, ExecOptions::with_method(RangeMethod::Bpb)) {
        Ok(answer) => {
            assert!(answer.verified);
            assert_eq!(answer.value, AnswerValue::Count(expected));
        }
        Err(e) => assert!(matches!(e, CoreError::IntegrityViolation { .. }), "{e}"),
    }
}

#[test]
fn superbins_fetch_more_but_answer_identically() {
    let (system, user, records) = setup(false);
    let session = system.session(&user);
    let query = Query::count().at_dims([1]).between(0, 899);
    let plain = session
        .execute_with(&query, ExecOptions::with_method(RangeMethod::Bpb))
        .unwrap();
    let with_super = session
        .execute_with(
            &query,
            ExecOptions {
                method: RangeMethod::Bpb,
                use_superbins: true,
                num_super_bins: 2,
                ..ExecOptions::default()
            },
        )
        .unwrap();
    assert_eq!(plain.value, with_super.value);
    assert!(with_super.rows_fetched >= plain.rows_fetched);
    let expected = cleartext_count(&records, Some(&[1]), None, (0, 899));
    assert_eq!(plain.value, AnswerValue::Count(expected));
}

#[test]
fn sum_min_max_average_over_payload() {
    let (system, user, records) = setup(false);
    let matching: Vec<u64> = records
        .iter()
        .filter(|r| r.dims == [0])
        .map(|r| r.payload[0])
        .collect();
    let sum: u64 = matching.iter().sum();
    let min = matching.iter().copied().min();
    let max = matching.iter().copied().max();

    let session = system.session(&user);
    let run = |builder: crate::query::QueryBuilder| {
        session
            .execute_with(
                &builder.at_dims([0]).between(0, 3599),
                ExecOptions::with_method(RangeMethod::Ebpb),
            )
            .unwrap()
            .value
    };
    assert_eq!(run(Query::sum(0)), AnswerValue::Number(Some(sum)));
    assert_eq!(run(Query::min(0)), AnswerValue::Number(min));
    assert_eq!(run(Query::max(0)), AnswerValue::Number(max));
    match run(Query::average(0)) {
        AnswerValue::Ratio(Some(avg)) => {
            assert!((avg - sum as f64 / matching.len() as f64).abs() < 1e-9);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// The standard 4-query mix used by the parallel-equivalence tests.
fn parallel_test_queries(records: &[Record]) -> Vec<Query> {
    vec![
        Query::count().at_dims([1]).between(0, 899),
        Query::sum(0).at_dims([2]).between(0, 1799),
        Query::count()
            .at_dims(records[5].dims.clone())
            .at(records[5].time),
        Query::collect_rows().at_dims([3]).between(0, 3599),
    ]
}

#[test]
fn parallel_batch_matches_sequential_answers_and_trace() {
    let (system, user, records) = setup(false);
    let queries = parallel_test_queries(&records);
    // Answers, event-level trace and side-channel meter delta of one
    // batch at the given worker count.
    let run = |parallelism: usize| {
        let session = system
            .session(&user)
            .with_options(ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(parallelism));
        system.observer().reset();
        let (answers, meter) = system.meter().measure(|| {
            session
                .execute_batch(&queries)
                .into_iter()
                .map(|r| r.unwrap())
                .collect::<Vec<QueryAnswer>>()
        });
        (answers, system.observer().take_events(), meter)
    };

    let sequential = run(1);
    // A count that does not divide the union, one above it, and one above
    // any CI host's cores: the engine spawns what it is asked for.
    for threads in [2usize, 3, 8] {
        let parallel = run(threads);
        assert_eq!(parallel.0, sequential.0, "answers at parallelism={threads}");
        assert_eq!(
            parallel.1, sequential.1,
            "event-level trace at parallelism={threads}"
        );
        assert_eq!(parallel.2, sequential.2, "meter at parallelism={threads}");
    }
}

#[test]
fn par_execute_batch_matches_execute_batch() {
    let (system, user, records) = setup(false);
    let queries = parallel_test_queries(&records);
    let session = system
        .session(&user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb));
    let sequential: Vec<Result<QueryAnswer>> = session.execute_batch(&queries);
    let parallel: Vec<Result<QueryAnswer>> = session.par_execute_batch(&queries);
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.as_ref().unwrap(), p.as_ref().unwrap());
    }
}

#[test]
fn parallel_batch_surfaces_per_query_errors_like_sequential() {
    let (system, user, _) = setup(false);
    let queries = vec![
        Query::count().at_dims([1]).between(0, 899),
        Query::count().at_dims([1]).at(999_999), // outside any epoch
    ];
    let session = system
        .session(&user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(4));
    let results = session.execute_batch(&queries);
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(CoreError::NoDataForRange)));
}

#[test]
fn parallel_batch_reports_integrity_violations_deterministically() {
    // Tamper with every stored row, then run the same batch sequentially
    // and in parallel: both must fail the same queries with an
    // integrity violation (the per-query error is chosen by ascending
    // bin order, not thread timing).
    let (seq_sys, seq_user, records) = setup(false);
    let (par_sys, par_user, _) = setup(false);
    for system in [&seq_sys, &par_sys] {
        let epoch_rows = system.store().full_scan(0).unwrap();
        let rewrites: Vec<_> = epoch_rows
            .iter()
            .map(|row| {
                let mut tampered = row.clone();
                tampered.payload[5] ^= 0x01;
                (row.index_key.clone(), tampered)
            })
            .collect();
        system.store().rewrite_rows(0, rewrites).unwrap();
    }
    let queries = parallel_test_queries(&records);
    let sequential = seq_sys
        .session(&seq_user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb))
        .execute_batch(&queries);
    let parallel = par_sys
        .session(&par_user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(4))
        .execute_batch(&queries);
    // Both deployments share the same master key per `setup` seed, so
    // the outcomes must agree query by query.
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        match (s, p) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "query {i}"),
            (Err(a), Err(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "query {i}");
            }
            other => panic!("query {i} diverged: {other:?}"),
        }
    }
    assert!(
        sequential.iter().any(Result::is_err),
        "tampering must surface in at least one query"
    );
}

#[test]
fn plan_stats_exposes_winsec_intervals() {
    let (system, user, _) = setup(false);
    let stats = system.engine().plan_stats(0).unwrap();
    assert_eq!(stats.epoch_id, 0);
    assert!(stats.num_bins > 0);
    assert!(stats.bin_size > 0);
    // 8 time rows at λ=2 → 4 intervals, each padded to the common size.
    assert_eq!(stats.winsec.num_intervals, 4);
    assert_eq!(stats.winsec.rows_per_interval, 2);
    assert_eq!(stats.winsec.real_tuples_per_interval.len(), 4);
    assert!(
        stats
            .winsec
            .real_tuples_per_interval
            .iter()
            .all(|&r| r <= stats.winsec.interval_size),
        "no interval may exceed the common interval size"
    );
    // The winSecRange execution path agrees with the diagnostics: a
    // whole-epoch query fetches at most every interval's worth of rows.
    let answer = system
        .session(&user)
        .execute_with(
            &Query::count().at_dims([0]).between(0, 3599),
            ExecOptions::with_method(RangeMethod::WinSecRange),
        )
        .unwrap();
    assert!(answer.rows_fetched > 0);

    assert!(matches!(
        system.engine().plan_stats(999),
        Err(CoreError::NoDataForRange)
    ));
}

#[test]
fn every_range_method_feeds_all_phase_counters() {
    let (system, user, _) = setup(false);
    let session = system.session(&user);
    let query = Query::count().at_dims([3]).between(0, 1799);
    for method in [
        RangeMethod::Bpb,
        RangeMethod::Ebpb,
        RangeMethod::WinSecRange,
    ] {
        let before = system.phase_breakdown();
        let answer = session
            .execute_with(&query, ExecOptions::with_method(method))
            .unwrap();
        assert!(answer.verified);
        let after = system.phase_breakdown();
        assert!(after.fetch_ns > before.fetch_ns, "{method:?} fetch time");
        assert!(after.verify_ns > before.verify_ns, "{method:?} verify time");
        assert!(
            after.decrypt_ns > before.decrypt_ns,
            "{method:?} filter time"
        );
    }
}

#[test]
fn batch_execution_dedupes_and_matches_sequential() {
    let (system, user, records) = setup(false);
    let session = system
        .session(&user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb));

    // A mix with guaranteed overlap: two identical ranges plus points.
    let queries = vec![
        Query::count().at_dims([1]).between(0, 899),
        Query::count().at_dims([1]).between(0, 899),
        Query::count()
            .at_dims(records[5].dims.clone())
            .at(records[5].time),
        Query::sum(0).at_dims([2]).between(0, 1799),
    ];

    let sequential: Vec<QueryAnswer> = queries
        .iter()
        .map(|q| session.execute(q).unwrap())
        .collect();
    let sequential_rows: usize = {
        let summaries = system.observer().per_query_summaries();
        summaries.iter().map(|s| s.rows_fetched).sum()
    };

    system.observer().reset();
    let batch: Vec<QueryAnswer> = session
        .execute_batch(&queries)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let batch_rows = system.observer().summary().rows_fetched;

    assert_eq!(batch, sequential, "batch answers must equal sequential");
    assert!(
        batch_rows < sequential_rows,
        "dedup must fetch strictly fewer rows ({batch_rows} vs {sequential_rows})"
    );
}

#[test]
fn batch_surfaces_per_query_errors() {
    let (system, user, _) = setup(false);
    let session = system
        .session(&user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb));
    let queries = vec![
        Query::count().at_dims([1]).between(0, 899),
        Query::count().at_dims([1]).at(999_999), // outside any epoch
    ];
    let results = session.execute_batch(&queries);
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(CoreError::NoDataForRange)));
}
