use super::*;
use crate::bins::max_window_load;
use crate::config::{FakeTupleStrategy, GridShape};
use crate::query::{Aggregate, AnswerValue, Predicate};
use crate::types::Record;
use std::collections::btree_map;
use std::sync::Arc;

use concealer_crypto::EpochKey;
use concealer_enclave::{EnclaveError, MeterSnapshot};
use concealer_storage::{
    AccessEvent, AccessObserver, EncryptedRow, EncryptedTable, MemoryBackend, NextEpochFn,
    Result as StoreResult, StorageBackend, StoredEpoch,
};
use proptest::prelude::{any, proptest, ProptestConfig};
use rand::Rng;

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

/// Run `call`, which the enclave must refuse with `expected` before it
/// issues a trapdoor: no event reaches the observer and the side-channel
/// meter does not move.
fn assert_refused_unseen<T: std::fmt::Debug>(
    system: &ConcealerSystem,
    expected: &EnclaveError,
    what: &str,
    call: impl FnOnce() -> Result<T>,
) {
    system.observer().reset();
    let (result, meter) = system.meter().measure(call);
    match result {
        Err(CoreError::Enclave(e)) => assert_eq!(&e, expected, "{what}"),
        other => panic!("{what}: expected {expected:?}, got {other:?}"),
    }
    assert_eq!(meter, MeterSnapshot::default(), "{what}: the meter moved");
    assert!(system.observer().is_empty(), "{what}: the trace moved");
}

/// Requirement R2 at every entry point: a forged credential, an unknown
/// user and an individualized query on a device the user does not own are
/// refused with the enclave's error before any trapdoor is issued. In a
/// batch only the refused queries fail: the others' answers, the trace and
/// the meter are those of the batch without them.
#[test]
fn an_unauthorized_query_never_issues_a_trapdoor() {
    let (system, user, _) = setup(false);
    let forged = UserHandle {
        user_id: user.user_id,
        credential: Credential([0; 32]),
    };
    let unknown = UserHandle {
        user_id: UserId(77),
        credential: user.credential.clone(),
    };
    let aggregate = Query::count().at_dims([1]).between(0, 899);
    let foreign = Query::count().observing(999).between(0, 899);
    let cases = [
        (&forged, &aggregate, EnclaveError::AuthenticationFailed),
        (&unknown, &aggregate, EnclaveError::UnknownUser),
        (
            &user,
            &foreign,
            EnclaveError::Unauthorized {
                reason: "device does not belong to the requesting user",
            },
        ),
    ];
    let bpb = ExecOptions::with_method(RangeMethod::Bpb);
    let ebpb = ExecOptions::with_method(RangeMethod::Ebpb);

    for (caller, query, expected) in &cases {
        let session = system.session(caller);
        let what = |entry: &str| format!("user {:?}, {entry}", caller.user_id);
        assert_refused_unseen(&system, expected, &what("execute, BPB"), || {
            session.execute_with(query, bpb)
        });
        assert_refused_unseen(&system, expected, &what("execute, eBPB"), || {
            session.execute_with(query, ebpb)
        });
        assert_refused_unseen(&system, expected, &what("execute_partials"), || {
            session.execute_partials(query, bpb)
        });
        assert_refused_unseen(&system, expected, &what("forward-private range"), || {
            session.execute_with(query, forward_private_opts())
        });
    }

    // Each batch runs on a fresh copy of the deployment (`setup` is
    // seeded), so a bin the first run cached cannot shape the second.
    let others = [
        Query::count().at_dims([2]).between(0, 1799),
        Query::sum(0).at_dims([3]).between(900, 2699),
    ];
    let run = |caller: &UserHandle, queries: &[Query], opts: ExecOptions, partials: bool| {
        let (system, _, _) = setup(false);
        let session = system.session(caller).with_options(opts);
        system.observer().reset();
        let (outcomes, meter) = system.meter().measure(|| -> Vec<Result<String>> {
            if partials {
                let results = session.execute_batch_partials(queries);
                results
                    .into_iter()
                    .map(|r| r.map(|p| format!("{p:?}")))
                    .collect()
            } else {
                let results = session.execute_batch(queries);
                results
                    .into_iter()
                    .map(|r| r.map(|a| format!("{a:?}")))
                    .collect()
            }
        });
        (outcomes, system.observer().take_events(), meter)
    };
    for (opts, partials) in [(bpb, false), (ebpb, false), (bpb, true), (ebpb, true)] {
        for (caller, query, expected) in &cases {
            let what = format!("user {:?}, {opts:?}, partials {partials}", caller.user_id);
            let batch = [others[0].clone(), (*query).clone(), others[1].clone()];
            let (outcomes, trace, meter) = run(caller, &batch, opts, partials);
            // A forged or unknown caller is refused for every query; a
            // registered one only for the foreign device.
            let admitted: Vec<Query> = if matches!(expected, EnclaveError::Unauthorized { .. }) {
                others.to_vec()
            } else {
                Vec::new()
            };
            let (mut alone, alone_trace, alone_meter) = run(caller, &admitted, opts, partials);
            let refused = Err(CoreError::Enclave(expected.clone()));
            for (i, outcome) in outcomes.iter().enumerate() {
                let want = if i == 1 || admitted.is_empty() {
                    refused.clone()
                } else {
                    alone.remove(0)
                };
                assert_eq!(outcome, &want, "{what}: query {i}");
            }
            assert_eq!(trace, alone_trace, "{what}: trace");
            assert_eq!(meter, alone_meter, "{what}: meter");
        }
    }
}

/// A batch answers exactly as its queries run one by one: scopes recur
/// out of order, an owned device's queries pass beside a foreign one's
/// refusals, and an unknown user's batch fails every query.
#[test]
fn a_batch_authorizes_as_its_queries_would_alone() {
    let (system, user, _) = setup(false);
    let owned = |device| Query::count().observing(device).between(0, 1799);
    let foreign = Query::sum(0).observing(999).between(600, 2399);
    let batch = [
        Query::count().at_dims([1]).between(0, 899),
        foreign.clone(),
        owned(100),
        Query::top_k_locations(2).between(0, 3599),
        owned(103),
        foreign,
        owned(100),
        Query::sum(0).at_dims([3]).between(900, 2699),
    ];
    let session = system.session(&user);
    let together: Vec<_> = session.execute_batch(&batch);
    let alone: Vec<_> = batch.iter().map(|q| session.execute(q)).collect();
    assert_eq!(together, alone);
    let refused = together.iter().filter(|r| r.is_err()).count();
    assert_eq!(refused, 2, "only the foreign device's queries fail");

    let unknown = UserHandle {
        user_id: UserId(77),
        credential: user.credential.clone(),
    };
    let refused = Err(CoreError::Enclave(EnclaveError::UnknownUser));
    for outcome in system.session(&unknown).execute_batch(&batch) {
        assert_eq!(outcome, refused);
    }
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
    system.store().rewrite_bin(0, rewrites, Vec::new()).unwrap();

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
            .rewrite_bin(0, vec![(tampered.index_key.clone(), tampered)], Vec::new())
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
    two_epochs_on(test_config(false), backend)
}

fn two_epochs_on(
    config: SystemConfig,
    backend: Arc<dyn StorageBackend>,
) -> (ConcealerSystem, UserHandle, Vec<Record>) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut system = crate::SystemBuilder::new(config)
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

/// §6 re-encrypts the whole bins a query fetched, and only BPB fetches
/// whole bins: a forward-private range under eBPB or winSecRange is refused
/// before its first trapdoor — run, it would leave the rows it fetched
/// under the trapdoors the next query issues again. A forward-private point
/// still runs.
#[test]
fn forward_private_ranges_run_only_under_bpb() {
    let (system, user, _) = two_epochs(Arc::new(MemoryBackend::new()));
    let range = Query::count().at_dims([2]).between(1800, 5399);
    for method in [RangeMethod::Ebpb, RangeMethod::WinSecRange] {
        let opts = ExecOptions {
            method,
            ..forward_private_opts()
        };
        let session = system.session(&user).with_options(opts);
        system.observer().reset();
        let (refused, meter) = system.meter().measure(|| session.execute(&range));
        assert!(
            matches!(refused, Err(CoreError::InvalidConfig { .. })),
            "{method:?}: {refused:?}"
        );
        assert!(system.observer().trace().is_empty(), "{method:?}");
        assert_eq!(meter.trapdoors_generated, 0, "{method:?}");
        session
            .execute(&Query::count().at_dims([2]).at(1800))
            .unwrap();
    }
    for epoch in [0, 3600] {
        assert_eq!(system.store().rewrite_count(epoch).unwrap(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The §6 protocol covers every round between the first and the last
    /// one a range satisfies, and the planner fetches from the epochs the
    /// range overlaps: the two sets are one because every window lasts
    /// `epoch_duration`. Epoch starts are random, gaps and unaligned (even
    /// overlapping) windows included.
    #[test]
    fn every_registered_epoch_between_touched_ones_is_touched(
        starts in proptest::collection::btree_set(0u64..40_000, 1..10),
        duration in 1u64..6_000,
        range in (0u64..50_000, 0u64..20_000),
    ) {
        let windows: BTreeMap<u64, EpochWindow> = starts
            .iter()
            .map(|&start| (start, EpochWindow { start, duration }))
            .collect();
        let (t_start, t_end) = (range.0, range.0 + range.1);
        let touched: Vec<u64> = windows
            .values()
            .filter(|w| w.overlaps(t_start, t_end))
            .map(|w| w.start)
            .collect();
        if let (Some(&lo), Some(&hi), true) = (touched.first(), touched.last(), windows.len() > 1) {
            let span: Vec<u64> = windows.range(lo..=hi).map(|(&id, _)| id).collect();
            proptest::prop_assert_eq!(span, touched);
        }
    }
}

/// Per epoch of `trace`, in ascending order: its `RowFetched` events.
fn rows_fetched_per_epoch(trace: &[AccessEvent]) -> BTreeMap<u64, usize> {
    let mut out = BTreeMap::new();
    for event in trace {
        if let AccessEvent::RowFetched { epoch_id, .. } = event {
            *out.entry(*epoch_id).or_insert(0) += 1;
        }
    }
    out
}

/// A §6 range fetches everything before it rewrites anything, and commits
/// once per touched epoch: one `EpochRewritten` each, one store rewrite
/// each.
#[test]
fn a_forward_private_range_fetches_everything_then_commits_once_per_epoch() {
    let (system, user, records) = two_epochs(Arc::new(MemoryBackend::new()));
    let query = Query::count().at_dims([4]).between(0, 7199);
    system.observer().reset();
    let answer = system
        .session(&user)
        .execute_with(&query, forward_private_opts())
        .unwrap();
    assert_eq!(answer.value, oracle(&records, &query));
    let trace = system.observer().take_events();
    let rewritten: Vec<(usize, u64)> = trace
        .iter()
        .enumerate()
        .filter_map(|(i, event)| match event {
            AccessEvent::EpochRewritten { epoch_id, .. } => Some((i, *epoch_id)),
            _ => None,
        })
        .collect();
    let epochs: Vec<u64> = rewritten.iter().map(|&(_, epoch_id)| epoch_id).collect();
    assert_eq!(epochs, vec![0, 3600]);
    let last_fetch = trace
        .iter()
        .rposition(|e| matches!(e, AccessEvent::RowFetched { .. }))
        .unwrap();
    assert!(last_fetch < rewritten[0].0, "a row fetched after a rewrite");
    for epoch in [0, 3600] {
        assert_eq!(system.store().rewrite_count(epoch).unwrap(), 1);
    }
}

/// Cover bins: for a seed, which bins a §6 range draws may change, but
/// every touched epoch fetches the range's own BPB bins topped up to
/// `extra_bins_per_round` of its bins, and the answer counts those rows.
#[test]
fn a_forward_private_range_tops_each_epoch_up_to_its_cover_bins() {
    // One grid cell on each side of the epoch boundary: one bin each.
    let query = Query::count().at_dims([4]).between(3300, 3899);
    let run = |opts: ExecOptions| {
        let (system, user, _) = two_epochs(Arc::new(MemoryBackend::new()));
        system.observer().reset();
        let answer = system.session(&user).execute_with(&query, opts).unwrap();
        let per_epoch = rows_fetched_per_epoch(&system.observer().take_events());
        let plans = [0, 3600].map(|epoch| system.engine().plan_stats(epoch).unwrap());
        (answer, per_epoch, plans)
    };
    let (bpb, bpb_rows, plans) = run(ExecOptions::with_method(RangeMethod::Bpb));
    let (fp, fp_rows, _) = run(forward_private_opts());
    assert_eq!(fp.value, bpb.value);
    let mut expected = BTreeMap::new();
    for plan in &plans {
        let bin_size = plan.bin_size as usize;
        let needed = bpb_rows[&plan.epoch_id] / bin_size;
        let cover = crate::dynamic::extra_bins_per_round(plan.num_bins).min(plan.num_bins);
        assert!(cover > needed, "{plan:?}: {needed} bins leave no room");
        expected.insert(plan.epoch_id, needed.max(cover) * bin_size);
    }
    assert_eq!(fp_rows, expected);
    assert_eq!(fp.rows_fetched, expected.values().sum::<usize>());
}

/// Two §6 ranges in one batch fetch a bin they share once, rewrite it
/// once (one commit per epoch, no bin past round 1) and mark one
/// boundary, and their answer values are those of per-query execution.
#[test]
fn a_forward_private_batch_fetches_and_rewrites_a_shared_bin_once() {
    let queries = [
        Query::count().at_dims([4]).between(0, 7199),
        Query::sum(0).at_dims([4]).between(1800, 5399),
    ];
    let (system, user, records) = two_epochs(Arc::new(MemoryBackend::new()));
    system.observer().reset();
    let batched: Vec<QueryAnswer> = system
        .session(&user)
        .with_options(forward_private_opts())
        .execute_batch(&queries)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    let trace = system.observer().take_events();
    let mut fetched: Vec<(u64, u64)> = trace
        .iter()
        .filter_map(|event| match *event {
            AccessEvent::RowFetched {
                epoch_id, row_id, ..
            } => Some((epoch_id, row_id)),
            _ => None,
        })
        .collect();
    let total = fetched.len();
    fetched.sort_unstable();
    fetched.dedup();
    assert_eq!(fetched.len(), total, "a row fetched twice");
    let count = |pred: fn(&AccessEvent) -> bool| trace.iter().filter(|e| pred(e)).count();
    assert_eq!(count(|e| matches!(e, AccessEvent::QueryBoundary)), 1);
    assert_eq!(
        count(|e| matches!(e, AccessEvent::EpochRewritten { .. })),
        2
    );
    for epoch in [0, 3600] {
        assert_eq!(system.store().rewrite_count(epoch).unwrap(), 1);
        let epochs = unpoisoned(system.engine().epochs.read());
        let rounds = &epochs[&epoch].bin_rounds;
        assert!(
            rounds.iter().all(|&r| r <= 1) && rounds.contains(&1),
            "{rounds:?}"
        );
    }

    let (system, user, _) = two_epochs(Arc::new(MemoryBackend::new()));
    let session = system.session(&user).with_options(forward_private_opts());
    for ((query, batched), i) in queries.iter().zip(&batched).zip(0..) {
        let alone = session.execute(query).unwrap();
        assert_eq!(batched.value, alone.value, "query {i}");
        assert_eq!(batched.value, oracle(&records, query), "query {i}");
    }
}

/// All or nothing: a §6 range whose later epoch fails verification
/// returns the integrity violation and rewrites no epoch, not even the
/// earlier one it fetched honestly.
#[test]
fn a_forward_private_range_that_fails_verification_rewrites_nothing() {
    let backend = Arc::new(FaultyBackend::default());
    let (system, user, records) = two_epochs(backend.clone());
    // Every row of the later epoch is served with a flipped payload byte,
    // so a real tuple the query fetches is caught by its hash chain.
    backend.arm(Box::new(|_, epoch_id, epoch, _| {
        (epoch_id == 3600).then(|| {
            edited(epoch, |rows| {
                for row in rows {
                    row.payload[5] ^= 0x01;
                }
            })
        })
    }));
    let query = Query::count().at_dims([4]).between(0, 7199);
    let session = system.session(&user);
    let refused = session.execute_with(&query, forward_private_opts());
    assert!(
        matches!(refused, Err(CoreError::IntegrityViolation { .. })),
        "{refused:?}"
    );
    for epoch in [0, 3600] {
        assert_eq!(
            system.store().rewrite_count(epoch).unwrap(),
            0,
            "epoch {epoch}"
        );
    }
    // The honest epoch still answers, at the round it was ingested under.
    let honest = Query::count().at_dims([4]).between(0, 3599);
    let answer = session.execute_with(&honest, ExecOptions::with_method(RangeMethod::Bpb));
    assert_eq!(answer.unwrap().value, oracle(&records, &honest));
}

/// On a process holding one epoch, §6 has one round: a forward-private
/// range draws no cover bin, rewrites nothing, and is event for event,
/// meter count for meter count, the BPB range.
#[test]
fn a_one_epoch_forward_private_range_is_the_bpb_range() {
    let query = Query::count().at_dims([4]).between(600, 2999);
    let run = |opts: ExecOptions| {
        let (system, user, _) = setup(false);
        system.observer().reset();
        let (answer, meter) = system
            .meter()
            .measure(|| system.session(&user).execute_with(&query, opts).unwrap());
        assert_eq!(system.store().rewrite_count(0).unwrap(), 0);
        (answer, system.observer().take_events(), meter)
    };
    assert_eq!(
        run(forward_private_opts()),
        run(ExecOptions::with_method(RangeMethod::Bpb))
    );
}

/// The worker count is unobservable under §6 too: a two-epoch range and a
/// two-query batch at parallelism 1 and 4 give the same answers,
/// event-level trace, meter and rewrite counts, and a plain query after
/// them the same answer.
#[test]
fn forward_private_executions_do_not_depend_on_the_worker_count() {
    let range = Query::count().at_dims([4]).between(0, 7199);
    let batch = [
        Query::top_k_locations(3).between(600, 6599),
        Query::count().at_dims([2]).between(1800, 5399),
    ];
    let after = Query::sum(0).between(0, 7199);
    let run = |parallelism: usize| {
        let (system, user, records) = two_epochs(Arc::new(MemoryBackend::new()));
        let session = system
            .session(&user)
            .with_options(forward_private_opts().with_parallelism(parallelism));
        system.observer().reset();
        let (answers, meter) = system.meter().measure(|| {
            let mut answers = vec![session.execute(&range)];
            answers.extend(session.execute_batch(&batch));
            answers
        });
        let rewrites = [0, 3600].map(|epoch| system.store().rewrite_count(epoch).unwrap());
        let plain = session
            .execute_with(&after, ExecOptions::with_method(RangeMethod::Bpb))
            .unwrap();
        assert_eq!(plain.value, oracle(&records, &after));
        (
            answers,
            system.observer().take_events(),
            meter,
            rewrites,
            plain,
        )
    };
    let one = run(1);
    assert!(one.0.iter().all(Result::is_ok), "{:?}", one.0);
    assert!(one.3.iter().all(|&n| n == 2), "{:?}", one.3);
    let four = run(4);
    assert_eq!(four.0, one.0, "answers");
    assert_eq!(four.1, one.1, "event-level trace");
    assert_eq!(four.2, one.2, "meter");
    assert_eq!(four.3, one.3, "rewrite counts");
    assert_eq!(four.4, one.4, "the plain query after them");
}

/// What a faulty provider serves one read instead of the stored epoch:
/// `tamper(read, epoch_id, stored, as_ingested)` is consulted on every
/// read, where `read` counts the backend's reads since it was armed and
/// `as_ingested` is the epoch before its first §6 rewrite (`None` until
/// then). `None` serves the epoch as stored.
type Tamper = Box<
    dyn Fn(usize, u64, &StoredEpoch, Option<&StoredEpoch>) -> Option<StoredEpoch> + Send + Sync,
>;

/// A provider that lies at the storage seam: every snapshot it hands out —
/// a store fetch, a warm replay, a metadata read — is one read, and the armed
/// [`Tamper`] decides what each read sees. Watching an observer instead
/// records where in its trace each read began, so an honest run tells
/// which rows each read returned.
#[derive(Default)]
struct FaultyBackend {
    inner: MemoryBackend,
    state: Mutex<FaultState>,
}

#[derive(Default)]
struct FaultState {
    reads: usize,
    tamper: Option<Tamper>,
    watched: Option<AccessObserver>,
    /// Per read since armed: its epoch and the trace length when it began.
    read_starts: Vec<(u64, usize)>,
    as_ingested: BTreeMap<u64, Arc<StoredEpoch>>,
}

impl std::fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyBackend").finish_non_exhaustive()
    }
}

impl FaultyBackend {
    /// Serve every read from now on through `tamper`, counting reads from 0.
    fn arm(&self, tamper: Tamper) {
        let mut state = unpoisoned(self.state.lock());
        state.reads = 0;
        state.tamper = Some(tamper);
    }

    /// Note from now on where each read begins in `observer`'s trace.
    fn watch(&self, observer: AccessObserver) {
        let mut state = unpoisoned(self.state.lock());
        state.read_starts.clear();
        state.watched = Some(observer);
    }

    /// Per read since [`Self::watch`]: its epoch and the row ids it fetched,
    /// in fetch order (empty for a metadata read).
    fn rows_per_read(&self) -> Vec<(u64, Vec<u64>)> {
        let state = unpoisoned(self.state.lock());
        let trace = state.watched.as_ref().expect("watched").trace();
        let starts = &state.read_starts;
        let rows_of = |i: usize, &(epoch, at): &(u64, usize)| {
            let end = starts.get(i + 1).map_or(trace.len(), |&(_, next)| next);
            let rows = trace[at..end].iter().filter_map(|event| match *event {
                AccessEvent::RowFetched {
                    epoch_id, row_id, ..
                } if epoch_id == epoch => Some(row_id),
                _ => None,
            });
            (epoch, rows.collect())
        };
        starts
            .iter()
            .enumerate()
            .map(|(i, s)| rows_of(i, s))
            .collect()
    }
}

impl StorageBackend for FaultyBackend {
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
        let mut state = unpoisoned(self.state.lock());
        let read = state.reads;
        state.reads += 1;
        if let Some(at) = state.watched.as_ref().map(AccessObserver::len) {
            state.read_starts.push((epoch_id, at));
        }
        let epoch = self.inner.epoch(epoch_id)?;
        let as_ingested = state.as_ingested.get(&epoch_id).map(Arc::as_ref);
        let served = state
            .tamper
            .as_ref()
            .and_then(|tamper| tamper(read, epoch_id, &epoch, as_ingested));
        Ok(served.map_or(epoch, Arc::new))
    }
    fn update_epoch(&self, epoch_id: u64, next: &mut NextEpochFn<'_>) -> StoreResult<()> {
        if let btree_map::Entry::Vacant(slot) =
            unpoisoned(self.state.lock()).as_ingested.entry(epoch_id)
        {
            slot.insert(self.inner.epoch(epoch_id)?);
        }
        self.inner.update_epoch(epoch_id, next)
    }
    fn epoch_ids(&self) -> Vec<u64> {
        self.inner.epoch_ids()
    }
    fn total_rows(&self) -> usize {
        self.inner.total_rows()
    }
}

#[test]
fn forward_private_rewrite_never_launders_a_dropped_row() {
    let backend = Arc::new(FaultyBackend::default());
    let (system, user, records) = two_epochs(backend.clone());

    // The victim: a real tuple of epoch 0's last bin — the bin the §6
    // protocol rewrites last, so every read of it that follows the
    // query's own (verified) fetch comes after the epoch's first rewrite.
    let key = system.engine().enclave().epoch_key(EpochId(0), 0);
    let victim = {
        let epochs = unpoisoned(system.engine().epochs.read());
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
    // From epoch 0's first rewrite on, every read of it leaves the victim's
    // position out.
    backend.arm(Box::new(move |_, epoch_id, epoch, as_ingested| {
        (epoch_id == 0 && as_ingested.is_some()).then(|| without_row(epoch, victim))
    }));

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

/// `epoch` with its rows edited by `edit`, index rebuilt.
fn edited(epoch: &StoredEpoch, edit: impl FnOnce(&mut Vec<EncryptedRow>)) -> StoredEpoch {
    let mut rows = epoch.table.rows().to_rows();
    edit(&mut rows);
    StoredEpoch {
        table: EncryptedTable::bulk_load(rows).unwrap(),
        metadata: epoch.metadata.clone(),
        rewrite_count: epoch.rewrite_count,
    }
}

fn without_row(epoch: &StoredEpoch, position: usize) -> StoredEpoch {
    edited(epoch, |rows| drop(rows.remove(position)))
}

/// `target`'s `Index` value over `source`'s filter and payload columns.
fn columns_under(target: &EncryptedRow, source: &EncryptedRow) -> EncryptedRow {
    EncryptedRow {
        index_key: target.index_key.clone(),
        ..source.clone()
    }
}

/// A provider stores a counted row's filter and payload columns under the
/// `Index` value of a fake tuple in the same bin. The fake's trapdoor
/// claims the copy and no chain covers fakes, so unless the fold refuses
/// such a row the point counts its tuple twice, verified. Cold, and warm
/// after a query the copy does not match has cached the bin.
#[test]
fn a_fake_slot_never_carries_a_counted_row() {
    for oblivious in [false, true] {
        let (system, user, records) = setup(oblivious);
        let session = system.session(&user);
        let key = system.engine().enclave().epoch_key(EpochId(0), 0);
        let is_real = |row: &EncryptedRow| {
            let index_plain = key.det.decrypt(&row.index_key).unwrap();
            codec::decode_index_plain(&index_plain).is_some()
        };
        let bin_of = |r: &Record| {
            let epochs = unpoisoned(system.engine().epochs.read());
            let bin = system
                .engine()
                .locate_point_bin(&epochs[&0], &r.dims, r.time);
            bin.unwrap()
        };
        let point_of = |r: &Record| Query::count().at_dims(r.dims.clone()).at(r.time);
        let stored = system.store().full_scan(0).unwrap();

        // A point whose bin holds a fake, the row the point counts, and
        // the fake.
        let (target, counted, fake) = records
            .iter()
            .find_map(|r| {
                system.observer().reset();
                session.execute(&point_of(r)).unwrap();
                let bin = system.observer().per_query_fetch_sets().remove(0);
                let rows = bin.iter().map(|&(_, row_id)| &stored[row_id as usize]);
                let token = key
                    .det
                    .encrypt(&codec::filter_dims_plain(&r.dims, r.time / 60));
                let counted = rows
                    .clone()
                    .find(|row| is_real(row) && row.filters[0] == token)?;
                let fake = rows.clone().find(|row| !is_real(row))?;
                Some((r, counted.clone(), fake.clone()))
            })
            .expect("a point whose bin holds a fake");
        // Another point of that bin, whose tokens the copy does not match.
        let other = records
            .iter()
            .find(|r| {
                bin_of(r) == bin_of(target)
                    && (r.dims != target.dims || r.time / 60 != target.time / 60)
            })
            .expect("a second point in the bin");
        let honest_other = session.execute(&point_of(other)).unwrap().value;

        system
            .store()
            .rewrite_bin(
                0,
                vec![(fake.index_key.clone(), columns_under(&fake, &counted))],
                Vec::new(),
            )
            .unwrap();
        let refused = Err(CoreError::IntegrityViolation { cell_id: u32::MAX });
        assert_eq!(
            session.execute(&point_of(target)),
            refused,
            "cold, oblivious {oblivious}"
        );
        let hits = system.engine().bin_cache_stats().hits;
        assert_eq!(
            session.execute(&point_of(other)).unwrap().value,
            honest_other
        );
        assert_eq!(
            session.execute(&point_of(target)),
            refused,
            "warm, oblivious {oblivious}"
        );
        assert_eq!(system.engine().bin_cache_stats().hits, hits + 2);
    }
}

/// What the malicious-provider sweep does to one read: `fetched` are the
/// row ids the read returns honestly, in fetch order, and `real[i]` says
/// whether `fetched[i]` is a real tuple. The victim is a real row, a
/// different one for each `turn`.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The victim is left out.
    Drop,
    /// The victim's columns are served a second time, under the `Index`
    /// value of the row fetched after it.
    Duplicate,
    /// The victim and the row fetched after it exchange their columns.
    Swap,
    /// The victim's columns are served under another real row's `Index`.
    MoveToReal,
    /// Every fake of the read is served with a real row's columns.
    MoveToFakes,
    /// The victim is served with a row of the other epoch.
    Foreign,
    /// The victim is served with the row its slot held before the epoch's
    /// first §6 rewrite.
    Stale,
}

impl Fault {
    const ALL: [Fault; 7] = [
        Fault::Drop,
        Fault::Duplicate,
        Fault::Swap,
        Fault::MoveToReal,
        Fault::MoveToFakes,
        Fault::Foreign,
        Fault::Stale,
    ];

    /// The epoch the read sees instead of `epoch`, or `None` when the read
    /// gives this fault nothing to act on.
    fn apply(
        self,
        epoch: &StoredEpoch,
        fetched: &[usize],
        real: &[bool],
        turn: usize,
        foreign: &[EncryptedRow],
        as_ingested: Option<&StoredEpoch>,
    ) -> Option<StoredEpoch> {
        let reals: Vec<usize> = (0..fetched.len()).filter(|&i| real[i]).collect();
        let fakes: Vec<usize> = (0..fetched.len()).filter(|&i| !real[i]).collect();
        let k = turn % reals.len().max(1);
        let victim = fetched[*reals.get(k)?];
        let after = fetched[(reals[k] + 1) % fetched.len()];
        let copy = |from: usize, to: usize| {
            move |rows: &mut Vec<EncryptedRow>| rows[to] = columns_under(&rows[to], &rows[from])
        };
        Some(match self {
            Fault::Drop => without_row(epoch, victim),
            Fault::Duplicate if after != victim => edited(epoch, copy(victim, after)),
            Fault::Swap if after != victim => edited(epoch, |rows| {
                let swapped = columns_under(&rows[after], &rows[victim]);
                rows[victim] = columns_under(&rows[victim], &rows[after]);
                rows[after] = swapped;
            }),
            Fault::MoveToReal if reals.len() > 1 => {
                let to = fetched[reals[(k + 1) % reals.len()]];
                edited(epoch, copy(victim, to))
            }
            Fault::MoveToFakes if !fakes.is_empty() => edited(epoch, |rows| {
                for (j, &fake) in fakes.iter().enumerate() {
                    let from = fetched[reals[(k + j) % reals.len()]];
                    rows[fetched[fake]] = columns_under(&rows[fetched[fake]], &rows[from]);
                }
            }),
            Fault::Foreign => edited(epoch, |rows| {
                rows[victim] = columns_under(&rows[victim], &foreign[victim % foreign.len()]);
            }),
            Fault::Stale => {
                let old = as_ingested?.table.rows().get(victim)?.to_row();
                edited(epoch, |rows| {
                    rows[victim] = columns_under(&rows[victim], &old)
                })
            }
            _ => return None,
        })
    }
}

/// The cleartext count of a count query; a point counts its granule, which
/// is what its one filter token covers.
/// The cleartext answer to `query` (a `Count`, `Sum` or `TopKLocations`)
/// over `records`.
fn oracle(records: &[Record], query: &Query) -> AnswerValue {
    let (dims, span) = match &query.predicate {
        Predicate::Point { dims, time } => {
            (Some(dims.as_slice()), (time / 60 * 60, time / 60 * 60 + 59))
        }
        Predicate::Range {
            dims,
            time_start,
            time_end,
            ..
        } => (dims.as_deref(), (*time_start, *time_end)),
    };
    let matching = records
        .iter()
        .filter(|r| dims.is_none_or(|d| r.dims == d) && r.time >= span.0 && r.time <= span.1);
    match query.aggregate {
        Aggregate::Count => AnswerValue::Count(cleartext_count(records, dims, None, span)),
        Aggregate::Sum { attr } => {
            AnswerValue::Number(matching.map(|r| r.payload[attr]).reduce(|a, b| a + b))
        }
        Aggregate::TopKLocations { k } => {
            let mut per_location = BTreeMap::new();
            for r in matching {
                *per_location.entry(r.dims[0]).or_insert(0) += 1;
            }
            let mut pairs: Vec<(u64, u64)> = per_location.into_iter().collect();
            pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            pairs.truncate(k);
            AnswerValue::LocationCounts(pairs)
        }
        ref other => panic!("no oracle for {other:?}"),
    }
}

/// ROADMAP 5c's first slice: for each method, its executions run once
/// honestly on two epochs, then once more per read `n` of that run and per
/// [`Fault`], with the provider lying at read `n` alone. Every answer must
/// be the cleartext oracle's or an integrity violation — never a different
/// value marked verified.
#[test]
fn a_malicious_provider_never_gets_a_wrong_answer_verified() {
    let point = Query::count().at_dims([5]).at(1_000);
    let range = Query::count().at_dims([3]).between(0, 1799);
    let twice = |query: &Query, opts: ExecOptions| vec![(query.clone(), opts); 2];
    let bpb = ExecOptions::with_method(RangeMethod::Bpb);
    let cases = [
        ("BPB point", false, twice(&point, ExecOptions::default())),
        // The payload decides: the fold decrypts the token matches.
        (
            "BPB Sum point",
            false,
            twice(
                &Query::sum(0).at_dims([5]).at(1_000),
                ExecOptions::default(),
            ),
        ),
        // No token decides: the fold visits the time index's rows.
        (
            "BPB all-locations TopKLocations range",
            false,
            twice(&Query::top_k_locations(3).between(600, 2399), bpb),
        ),
        ("BPB range", false, twice(&range, bpb)),
        (
            "eBPB",
            false,
            twice(&range, ExecOptions::with_method(RangeMethod::Ebpb)),
        ),
        (
            "winSecRange",
            false,
            twice(&range, ExecOptions::with_method(RangeMethod::WinSecRange)),
        ),
        (
            "oblivious point",
            true,
            twice(&point, ExecOptions::default()),
        ),
        (
            "§6 range over two epochs",
            false,
            twice(
                &Query::count().at_dims([4]).between(0, 7199),
                forward_private_opts(),
            ),
        ),
    ];
    let deploy = |oblivious: bool| {
        let backend = Arc::new(FaultyBackend::default());
        let (system, user, records) = two_epochs_on(test_config(oblivious), backend.clone());
        (system, user, records, backend)
    };
    // Per fault: how often it acted on a read, and how often that was
    // refused.
    let mut tally = [(0usize, 0usize); Fault::ALL.len()];
    for (name, oblivious, runs) in cases {
        let (system, user, records, backend) = deploy(oblivious);
        backend.watch(system.observer().clone());
        let oracle: Vec<AnswerValue> = runs.iter().map(|(q, _)| oracle(&records, q)).collect();
        for ((query, opts), want) in runs.iter().zip(&oracle) {
            let answer = system.session(&user).execute_with(query, *opts).unwrap();
            assert_eq!((&answer.value, answer.verified), (want, true), "{name}");
        }
        let reads = backend.rows_per_read();
        let rewritten = !unpoisoned(backend.state.lock()).as_ingested.is_empty();

        for (n, (epoch_id, fetched)) in reads.into_iter().enumerate() {
            let fetched: Vec<usize> = fetched.into_iter().map(|id| id as usize).collect();
            for (fault, tally) in Fault::ALL.into_iter().zip(&mut tally) {
                if fetched.is_empty() || (matches!(fault, Fault::Stale) && !rewritten) {
                    continue;
                }
                let (system, user, _, backend) = deploy(oblivious);
                let other = if epoch_id == 0 { 3600 } else { 0 };
                let foreign = system.store().full_scan(other).unwrap();
                // Which rows are real is told by the `Index` key, under
                // whichever round the bin is at (two §6 runs reach round 2).
                let keys: Vec<Arc<EpochKey>> = (0..4)
                    .map(|round| {
                        system
                            .engine()
                            .enclave()
                            .epoch_key(EpochId(epoch_id), round)
                    })
                    .collect();
                let fetched = fetched.clone();
                let acted = Arc::new(std::sync::atomic::AtomicBool::new(false));
                let acted_here = Arc::clone(&acted);
                backend.arm(Box::new(move |read, _, epoch, as_ingested| {
                    if read != n {
                        return None;
                    }
                    let rows = epoch.table.rows();
                    let real: Vec<bool> = fetched
                        .iter()
                        .map(|&id| {
                            let index_key = rows.get(id).expect("fetched row").index_key();
                            keys.iter()
                                .find_map(|key| key.det.decrypt(index_key).ok())
                                .is_some_and(|plain| codec::decode_index_plain(&plain).is_some())
                        })
                        .collect();
                    let served = fault.apply(epoch, &fetched, &real, n, &foreign, as_ingested);
                    acted_here.store(served.is_some(), Ordering::Relaxed);
                    served
                }));
                let session = system.session(&user);
                for ((query, opts), want) in runs.iter().zip(&oracle) {
                    match session.execute_with(query, *opts) {
                        Ok(answer) => assert_eq!(
                            (&answer.value, answer.verified),
                            (want, true),
                            "{name}: {fault:?} at read {n}"
                        ),
                        Err(CoreError::IntegrityViolation { .. }) => tally.1 += 1,
                        Err(e) => panic!("{name}: {fault:?} at read {n}: {e}"),
                    }
                }
                tally.0 += usize::from(acted.load(Ordering::Relaxed));
            }
        }
    }
    // The sweep is not vacuous: every fault acted on some read and was
    // refused somewhere.
    for (fault, (acted, refused)) in Fault::ALL.into_iter().zip(tally) {
        assert!(
            acted > 0 && refused > 0,
            "{fault:?}: acted {acted}, refused {refused}"
        );
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

/// A super-bin plan belongs to its `f`: `f = 2` and then `f = 5` on one
/// engine fetch exactly what `f = 5` fetches on a fresh engine.
#[test]
fn superbin_plans_are_keyed_by_f() {
    let query = Query::count().at_dims([1]).between(0, 899);
    let fetch = |system: &ConcealerSystem, user: &UserHandle, f: usize| {
        system.observer().reset();
        let opts = ExecOptions {
            method: RangeMethod::Bpb,
            use_superbins: true,
            num_super_bins: f,
            ..ExecOptions::default()
        };
        let answer = system.session(user).execute_with(&query, opts).unwrap();
        (
            answer.rows_fetched,
            system.observer().per_query_fetch_sets(),
        )
    };
    let (fresh_two, two_user, _) = setup(false);
    let (fresh_five, five_user, _) = setup(false);
    let (reused, user, _) = setup(false);
    let five = fetch(&fresh_five, &five_user, 5);
    assert_ne!(fetch(&fresh_two, &two_user, 2), five, "f must matter here");
    fetch(&reused, &user, 2);
    assert_eq!(fetch(&reused, &user, 5), five);
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
        system.store().rewrite_bin(0, rewrites, Vec::new()).unwrap();
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

/// A failing unit fails its query but stops none of the query's other
/// planned fetches, as in any batch: with every stored row tampered, a BPB
/// range over several bins fails verification and the provider still sees
/// every row the honest run fetched.
#[test]
fn a_failing_unit_stops_no_other_fetch() {
    let query = Query::count().at_dims([3]).between(0, 3599);
    let run = |tamper: bool| {
        let (system, user, _) = setup(false);
        if tamper {
            let rewrites: Vec<_> = system
                .store()
                .full_scan(0)
                .unwrap()
                .into_iter()
                .map(|row| {
                    let mut tampered = row.clone();
                    tampered.payload[5] ^= 0x01;
                    (row.index_key, tampered)
                })
                .collect();
            system.store().rewrite_bin(0, rewrites, Vec::new()).unwrap();
        }
        system.observer().reset();
        let answer = system
            .session(&user)
            .execute_with(&query, ExecOptions::with_method(RangeMethod::Bpb));
        let bin_size = system.engine().plan_stats(0).unwrap().bin_size as usize;
        (answer, system.observer().summary(), bin_size)
    };
    let (honest, honest_trace, bin_size) = run(false);
    let (tampered, tampered_trace, _) = run(true);
    assert_eq!(honest.unwrap().rows_fetched, honest_trace.rows_fetched);
    assert!(honest_trace.rows_fetched > bin_size, "several bins");
    assert!(
        matches!(tampered, Err(CoreError::IntegrityViolation { .. })),
        "{tampered:?}"
    );
    assert_eq!(tampered_trace, honest_trace);
}

/// A backend whose first read after [`ParkingBackend::park`] waits until
/// the test releases it, or [`PARK_TIMEOUT`] passes, before it is served.
#[derive(Default)]
struct ParkingBackend {
    inner: MemoryBackend,
    /// Told when the read parks; released through the receiver.
    park: Mutex<Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>>,
}

/// How long a parked read waits for its release.
const PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

impl std::fmt::Debug for ParkingBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkingBackend").finish_non_exhaustive()
    }
}

impl ParkingBackend {
    /// Park the next read: the returned receiver hears when it parks, and
    /// a send on the returned sender releases it. The send fails once the
    /// read has stopped waiting.
    fn park(&self) -> (std::sync::mpsc::Receiver<()>, std::sync::mpsc::Sender<()>) {
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        *unpoisoned(self.park.lock()) = Some((parked_tx, release_rx));
        (parked_rx, release_tx)
    }
}

impl StorageBackend for ParkingBackend {
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
        let park = unpoisoned(self.park.lock()).take();
        if let Some((parked, release)) = park {
            parked.send(()).expect("the test waits for the park");
            // Released or timed out, the read is served; the test tells
            // which by whether its release still reached us.
            let _ = release.recv_timeout(PARK_TIMEOUT);
        }
        self.inner.epoch(epoch_id)
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

/// No batch holds the epoch registry exclusively: while a batch of ranges
/// (of every method) waits on its first store read, a point on another
/// thread is planned, fetched and answered.
#[test]
fn a_batch_in_flight_does_not_exclude_a_point() {
    let backend = Arc::new(ParkingBackend::default());
    let (system, user, _) = two_epochs(backend.clone());
    let ranges = [
        Query::count().at_dims([2]).between(1800, 5399),
        Query::sum(0).at_dims([3]).between(0, 3599),
    ];
    let point = Query::count().at_dims([2]).at(4000);
    for method in [
        RangeMethod::Bpb,
        RangeMethod::Ebpb,
        RangeMethod::WinSecRange,
    ] {
        let (parked, release) = backend.park();
        let session = system.session(&user);
        let batch = system
            .session(&user)
            .with_options(ExecOptions::with_method(method));
        std::thread::scope(|scope| {
            let in_flight = scope.spawn(|| batch.execute_batch(&ranges));
            parked.recv().expect("the batch reads the store");
            session.execute(&point).unwrap();
            let overlapped = release.send(()).is_ok();
            for answer in in_flight.join().unwrap() {
                answer.unwrap();
            }
            assert!(overlapped, "{method:?}: the point waited for the batch");
        });
    }
}

/// On a process holding one epoch a forward-private range draws no cover
/// bin and rewrites nothing, so a §6 batch holding one excludes no other
/// query: while such a two-query batch waits on its first store read, a
/// point on another thread is answered.
#[test]
fn a_one_epoch_forward_private_batch_does_not_exclude_a_point() {
    let backend = Arc::new(ParkingBackend::default());
    let mut rng = StdRng::seed_from_u64(6);
    let mut system = crate::SystemBuilder::new(test_config(false))
        .with_backend(backend.clone())
        .build(&mut rng)
        .unwrap();
    let user = system.register_user(1, vec![], true);
    system.ingest_epoch(0, &workload(0, 150), &mut rng).unwrap();
    let batch = [
        Query::count().at_dims([2]).between(0, 1799),
        Query::count().at_dims([3]).at(400),
    ];
    let point = Query::count().at_dims([2]).at(400);
    let (parked, release) = backend.park();
    let session = system.session(&user);
    let forward_private = system.session(&user).with_options(forward_private_opts());
    std::thread::scope(|scope| {
        let in_flight = scope.spawn(|| forward_private.execute_batch(&batch));
        parked.recv().expect("the batch reads the store");
        session.execute(&point).unwrap();
        let overlapped = release.send(()).is_ok();
        for answer in in_flight.join().unwrap() {
            answer.unwrap();
        }
        assert!(overlapped, "the point waited for the §6 batch");
    });
    assert_eq!(system.store().rewrite_count(0).unwrap(), 0);
}

/// A batch whose union is empty — no queries, or queries over none of this
/// process's epochs (every shard not holding a routed batch's epochs) —
/// fetches nothing at any worker count and returns the seeded partials.
#[test]
fn empty_union_fetches_nothing_at_every_parallelism() {
    use concealer_storage::AccessEvent;
    let (system, user, _) = setup(false);
    let elsewhere = vec![
        Query::count().at_dims([1]).at(999_999),
        Query::sum(0).at_dims([2]).between(7_200, 10_799),
    ];
    for parallelism in [1usize, 4] {
        let opts = ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(parallelism);
        for queries in [&[][..], &elsewhere[..]] {
            system.observer().reset();
            let (results, meter) = system
                .meter()
                .measure(|| system.engine().execute_batch_partials(&user, queries, opts));
            assert_eq!(results.len(), queries.len(), "parallelism={parallelism}");
            for result in results {
                assert!(result.unwrap().is_empty(), "parallelism={parallelism}");
            }
            let fetched = system.observer().take_events().into_iter().any(|e| {
                matches!(
                    e,
                    AccessEvent::TrapdoorIssued { .. } | AccessEvent::RowFetched { .. }
                )
            });
            assert!(!fetched, "parallelism={parallelism}");
            assert_eq!(meter.trapdoors_generated, 0, "parallelism={parallelism}");
        }
        let merged = system
            .session(&user)
            .with_options(opts)
            .execute_batch(&elsewhere);
        assert!(merged
            .iter()
            .all(|r| matches!(r, Err(CoreError::NoDataForRange))));
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One fake budget, over random grids and temporally skewed records:
    /// the enclave derives exactly the fakes the provider shipped, and no
    /// fake index a BPB bin, an eBPB window (every ℓ) or a winSecRange
    /// interval run requests reaches it. End to end, every single-interval
    /// winSecRange query fetches `interval_size` rows, and every eBPB query
    /// (every ℓ, every column) finds a row behind each trapdoor.
    #[test]
    fn the_fake_budget_covers_every_fetch(
        shape in (1u64..5, 2u64..10, 1u64..4, 1u64..5),
        load in (0u64..300, 1u64..5, any::<u64>()),
    ) {
        let (columns, time_rows, cells_per_cid, lambda) = shape;
        let (n, skew, seed) = load;
        let config = SystemConfig {
            grid: GridShape {
                dim_buckets: vec![columns],
                time_subintervals: time_rows,
                num_cell_ids: (columns * time_rows / cells_per_cid).max(1) as u32,
            },
            winsec_rows_per_interval: lambda,
            ..test_config(false)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        // Temporal skew: every record lands in the first 1/skew of the epoch.
        let records: Vec<Record> = (0..n)
            .map(|_| {
                let loc = rng.gen_range(0..columns);
                Record::spatial(loc, rng.gen_range(0..3600 / skew), 100)
            })
            .collect();
        let mut system = ConcealerSystem::new(config, &mut rng);
        let user = system.register_user(1, vec![], true);
        let shipped = system.ingest_epoch(0, &records, &mut rng).unwrap().fake_rows as u64;
        {
            let epochs = unpoisoned(system.engine().epochs.read());
            let rt = &epochs[&0];
            assert_eq!(rt.total_fakes, shipped);
            assert!(rt.bin_plan.bins.iter().all(|b| b.fake_range.1 <= shipped));
            for len in 1..=time_rows {
                assert!(max_window_load(&rt.cell_counts, time_rows, len) <= shipped);
            }
            let intervals = &rt.winsec.intervals;
            for first in 0..intervals.len() {
                for last in first..intervals.len() {
                    let fakes: u64 = intervals[first..=last]
                        .iter()
                        .map(|i| rt.winsec.interval_size - i.real)
                        .sum();
                    assert!(fakes <= shipped);
                }
            }
        }

        let session = system.session(&user);
        let run = |query: &Query, method: RangeMethod| {
            system.observer().reset();
            let answer = session
                .execute_with(query, ExecOptions::with_method(method))
                .unwrap();
            let (dims, t) = match &query.predicate {
                Predicate::Range { dims, time_start, time_end, .. } => {
                    (dims.as_deref(), (*time_start, *time_end))
                }
                Predicate::Point { .. } => unreachable!("ranges only"),
            };
            assert_eq!(
                answer.value,
                AnswerValue::Count(cleartext_count(&records, dims, None, t))
            );
            let missed = system.observer().trace().iter().any(|e| {
                matches!(e, AccessEvent::TrapdoorIssued { hit: false, .. })
            });
            assert!(!missed, "{method:?} {query:?} asked for a row that is not stored");
            answer.rows_fetched
        };
        // Granule-aligned times inside a time row, so filter tokens cover
        // exactly the queried span.
        let per_row = 3600 / time_rows;
        let start_of = |row: u64| (row * per_row).div_ceil(60) * 60;
        let end_of = |row: u64| {
            if row + 1 >= time_rows {
                3599
            } else {
                (row + 1) * per_row / 60 * 60 - 1
            }
        };
        let plan = system.engine().plan_stats(0).unwrap().winsec;
        for i in 0..plan.num_intervals as u64 {
            let last = ((i + 1) * plan.rows_per_interval).min(time_rows) - 1;
            let query = Query::count().between(start_of(i * plan.rows_per_interval), end_of(last));
            assert_eq!(
                run(&query, RangeMethod::WinSecRange) as u64,
                plan.interval_size
            );
        }
        for len in 1..=time_rows {
            for loc in 0..columns {
                let query = Query::count().at_dims([loc]).between(0, end_of(len - 1));
                run(&query, RangeMethod::Ebpb);
            }
        }
    }
}
