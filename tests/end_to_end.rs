//! Cross-crate end-to-end tests: data provider → storage → enclave → query
//! engine, over the synthetic workload generators, driven through the
//! `Session` API.

use concealer_baselines::cleartext::{aggregate_records, record_matches};
use concealer_core::query::AnswerValue;
use concealer_core::{merge_partials, Aggregate, ExecOptions, Query, RangeMethod, Record};
use concealer_examples::demo_system;
use concealer_workloads::{QueryWorkload, TpchConfig, TpchGenerator, TpchIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ground_truth_count(records: &[concealer_core::Record], q: &Query) -> u64 {
    records
        .iter()
        .filter(|r| record_matches(r, &q.predicate))
        .count() as u64
}

/// The rows of a `CollectRows` answer as a multiset (collection order is
/// fetch order, which the cleartext baseline does not share).
fn row_multiset(value: AnswerValue) -> Vec<Record> {
    let AnswerValue::Rows(mut rows) = value else {
        panic!("not a CollectRows answer: {value:?}");
    };
    rows.sort_by(|a, b| (a.time, &a.dims, &a.payload).cmp(&(b.time, &b.dims, &b.payload)));
    rows
}

#[test]
fn wifi_workload_q1_to_q5_match_ground_truth_for_all_methods() {
    let (system, user, records) = demo_system(2, 101);
    let workload = QueryWorkload {
        locations: 30,
        devices: (1000..1300).collect(),
        time_extent: (0, 2 * 3600),
    };
    let mut rng = StdRng::seed_from_u64(102);

    for method in [
        RangeMethod::Bpb,
        RangeMethod::Ebpb,
        RangeMethod::WinSecRange,
    ] {
        let session = system
            .session(&user)
            .with_options(ExecOptions::with_method(method));
        // Q4's random device may have no sighting in its random window, so
        // two `CollectRows` queries known to return rows ride along.
        let device = records[0].payload[0];
        let extra = [
            (
                "device rows",
                Query::collect_rows().observing(device).between(0, 7199),
            ),
            (
                "location rows",
                Query::collect_rows().at_dims([3]).between(600, 2399),
            ),
        ];
        for (_, query) in &extra {
            assert!(ground_truth_count(&records, query) > 1);
        }
        for (name, query) in workload
            .all_range_queries(25 * 60, &mut rng)
            .into_iter()
            .chain(extra)
        {
            let answer = session
                .execute(&query)
                .unwrap_or_else(|e| panic!("{name} failed under {method:?}: {e}"));
            match (&query.aggregate, &answer.value) {
                (Aggregate::Count, AnswerValue::Count(c)) => {
                    assert_eq!(
                        *c,
                        ground_truth_count(&records, &query),
                        "{name} {method:?}"
                    );
                }
                (Aggregate::TopKLocations { .. }, AnswerValue::LocationCounts(pairs)) => {
                    // Counts must match ground truth for every reported location.
                    for (loc, count) in pairs {
                        let expected = records
                            .iter()
                            .filter(|r| r.dims == [*loc] && record_matches(r, &query.predicate))
                            .count() as u64;
                        assert_eq!(*count, expected, "{name} {method:?} loc {loc}");
                    }
                }
                (
                    Aggregate::LocationsWithAtLeast { threshold },
                    AnswerValue::LocationCounts(pairs),
                ) => {
                    for (_, count) in pairs {
                        assert!(*count >= *threshold, "{name} {method:?}");
                    }
                }
                (Aggregate::CollectRows, AnswerValue::Rows(_)) => {
                    // The rows themselves — dims, timestamp, payload —
                    // equal the cleartext baseline's, plain and oblivious,
                    // finished in-process and merged from partials.
                    let matching = records
                        .iter()
                        .filter(|r| record_matches(r, &query.predicate));
                    let expected = row_multiset(aggregate_records(matching, &query));
                    assert_eq!(row_multiset(answer.value), expected, "{name} {method:?}");
                    let oblivious = ExecOptions {
                        oblivious: Some(true),
                        ..ExecOptions::with_method(method)
                    };
                    for opts in [ExecOptions::with_method(method), oblivious] {
                        let direct = session.execute_with(&query, opts).expect("direct");
                        let partials = session.execute_partials(&query, opts).expect("partials");
                        let merged = merge_partials(&query, partials).expect("merge");
                        assert_eq!(row_multiset(direct.value), expected, "{name} {opts:?}");
                        assert_eq!(row_multiset(merged.value), expected, "{name} {opts:?}");
                    }
                }
                (agg, val) => panic!("{name}: unexpected combination {agg:?} / {val:?}"),
            }
        }
    }
}

#[test]
fn point_queries_across_many_targets_match_ground_truth() {
    let (system, user, records) = demo_system(2, 103);
    let session = system.session(&user);
    for r in records.iter().step_by(97) {
        let query = Query::count().at_dims(r.dims.clone()).at(r.time);
        let answer = session.execute(&query).expect("point query");
        // The point filter covers the record's whole time granule.
        let granule = r.time / 60;
        let expected = records
            .iter()
            .filter(|x| x.dims == r.dims && x.time / 60 == granule)
            .count() as u64;
        assert_eq!(answer.value, AnswerValue::Count(expected));
        assert!(answer.verified);
    }
}

#[test]
fn tpch_two_d_and_four_d_indexes_answer_aggregations() {
    for index in [TpchIndex::TwoD, TpchIndex::FourD] {
        let generator = TpchGenerator::new(TpchConfig::tiny(index));
        let mut rng = StdRng::seed_from_u64(104);
        let records = generator.generate_records(&mut rng);
        let epoch_duration = generator.epoch_duration();

        let config = concealer_core::SystemConfig {
            grid: concealer_core::GridShape {
                dim_buckets: match index {
                    TpchIndex::TwoD => vec![50, 7],
                    TpchIndex::FourD => vec![25, 10, 5, 7],
                },
                time_subintervals: 1,
                num_cell_ids: 40,
            },
            epoch_duration,
            time_granularity: 1,
            fake_strategy: concealer_core::FakeTupleStrategy::SimulateBins,
            verify_integrity: true,
            oblivious: false,
            winsec_rows_per_interval: 1,
        };
        let mut system = concealer_examples::build_system(config, &mut rng);
        let user = system.register_user(1, vec![], true);
        system.ingest_epoch(0, &records, &mut rng).unwrap();

        let target = &records[55];
        let session = system.session(&user);
        for aggregate in [
            Aggregate::Count,
            Aggregate::Sum { attr: 1 },
            Aggregate::Max { attr: 0 },
        ] {
            let query = Query {
                aggregate,
                predicate: concealer_core::Predicate::Range {
                    dims: Some(target.dims.clone()),
                    observation: None,
                    time_start: 0,
                    time_end: epoch_duration - 1,
                },
            };
            let answer = session.execute(&query).expect("tpch query");
            let matching: Vec<&concealer_core::Record> = records
                .iter()
                .filter(|r| record_matches(r, &query.predicate))
                .collect();
            match (aggregate, answer.value) {
                (Aggregate::Count, AnswerValue::Count(c)) => {
                    assert_eq!(c, matching.len() as u64);
                }
                (Aggregate::Sum { attr }, AnswerValue::Number(sum)) => {
                    let expected: u64 = matching.iter().map(|r| r.payload[attr]).sum();
                    assert_eq!(sum, Some(expected));
                }
                (Aggregate::Max { attr }, AnswerValue::Number(max)) => {
                    assert_eq!(max, matching.iter().map(|r| r.payload[attr]).max());
                }
                (agg, val) => panic!("unexpected {agg:?} / {val:?}"),
            }
        }
    }
}

#[test]
fn multi_epoch_ingest_and_query_with_forward_privacy() {
    use concealer_workloads::{WifiConfig, WifiGenerator};

    let mut rng = StdRng::seed_from_u64(105);
    let mut system = concealer_examples::build_system(concealer_examples::demo_config(1), &mut rng);
    let user = system.register_user(1, vec![], true);
    let generator = WifiGenerator::new(WifiConfig::tiny());

    let mut all_records = Vec::new();
    for epoch in 0..3u64 {
        let start = epoch * 3600;
        let records = generator.generate_epoch(start, 3600, &mut rng);
        all_records.extend(records.clone());
        system.ingest_epoch(start, &records, &mut rng).unwrap();
    }

    let query = Query::count().at_dims([5]).between(0, 3 * 3600 - 1);
    let expected = ground_truth_count(&all_records, &query);
    let session = system.session(&user).with_options(ExecOptions {
        method: RangeMethod::Bpb,
        forward_private: true,
        ..ExecOptions::default()
    });
    // Repeated execution keeps returning the right answer even though the
    // underlying ciphertexts are re-encrypted after every run.
    for _ in 0..3 {
        let answer = session.execute(&query).unwrap();
        assert_eq!(answer.value, AnswerValue::Count(expected));
        assert_eq!(answer.epochs_touched, 3);
    }
    for epoch in 0..3u64 {
        assert!(system.store().rewrite_count(epoch * 3600).unwrap() > 0);
    }
}

#[test]
fn oblivious_and_plain_deployments_agree_on_answers() {
    use concealer_workloads::{WifiConfig, WifiGenerator};

    let mut rng = StdRng::seed_from_u64(106);
    let generator = WifiGenerator::new(WifiConfig::tiny());
    let records = generator.generate_epoch(0, 3600, &mut rng);

    let mut plain_cfg = concealer_examples::demo_config(1);
    plain_cfg.oblivious = false;
    let mut obliv_cfg = concealer_examples::demo_config(1);
    obliv_cfg.oblivious = true;

    let master = concealer_crypto::MasterKey::from_bytes([17u8; 32]);
    let mut plain = concealer_examples::build_system_with_master(plain_cfg, master.clone(), 1);
    let mut obliv = concealer_examples::build_system_with_master(obliv_cfg, master, 1);
    let pu = plain.register_user(1, vec![], true);
    let ou = obliv.register_user(1, vec![], true);
    plain
        .ingest_epoch(0, &records, &mut StdRng::seed_from_u64(7))
        .unwrap();
    obliv
        .ingest_epoch(0, &records, &mut StdRng::seed_from_u64(7))
        .unwrap();

    let workload = QueryWorkload {
        locations: 16,
        devices: vec![],
        time_extent: (0, 3600),
    };
    let plain_session = plain.session(&pu);
    let obliv_session = obliv.session(&ou);
    let mut qrng = StdRng::seed_from_u64(108);
    for _ in 0..5 {
        let q = workload.q1(900, &mut qrng);
        let a = plain_session.execute(&q).unwrap();
        let b = obliv_session.execute(&q).unwrap();
        assert_eq!(a.value, b.value);
    }
}
