//! Pins the partial-execution contract multi-node serving rests on.
//!
//! Every execution is `merge_partials` over per-epoch partials — direct
//! execution is the case where one process produced all of them — so the
//! property worth pinning is **partition invariance**: however the
//! deployment's epochs are split across processes by `shard_of_epoch`,
//! the merged answer is **bit-identical** (same `serde::bin` encoding),
//! and the unsplit one equals the cleartext evaluation of the query. That
//! holds for every aggregate shape, every range method, single queries and
//! batches (whose `(epoch, bin)` dedup metadata must survive the split).
//! The arrival-order and refusal cases (`NoDataForRange`,
//! forward-private) complete the contract.
//!
//! The router in `concealer-router` is exactly this merge applied to
//! partials that crossed the wire; `tests/router_loopback.rs` re-proves
//! the same identity over TCP.

use concealer_baselines::cleartext::{aggregate_records, record_matches};
use concealer_core::query::AnswerValue;
use concealer_core::{
    merge_partials, shard_of_epoch, ConcealerSystem, EpochPartial, ExecOptions, MasterKey,
    Predicate, Query, QueryAnswer, RangeMethod, Record, Session, SystemConfig, UserHandle,
};
use concealer_examples::{build_system_with_master, demo_config, demo_system};
use concealer_workloads::{WifiConfig, WifiGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HOURS: u64 = 2;
const SEED: u64 = 90_210;

/// Epoch length of the partitioned deployment. Whole-hour epoch ids all
/// hash to shard 0 of 2 under `shard_of_epoch`; 90-minute ones spread over
/// both 2 and 3 shards.
const EPOCH: u64 = 5_400;
const EPOCHS: u64 = 4;
const SPAN: u64 = EPOCHS * EPOCH - 1;
const DEVICES: std::ops::Range<u64> = 1_000..1_050;

fn wire_bytes(answer: &QueryAnswer) -> Vec<u8> {
    serde::bin::to_bytes(answer)
}

fn partitioned_config() -> SystemConfig {
    let mut config = demo_config(1);
    config.epoch_duration = EPOCH;
    config.grid.time_subintervals = EPOCH / 900;
    config
}

/// The records of the epoch starting at `epoch_start`; a function of the
/// epoch alone, so every partition ingests identical data.
fn epoch_records(epoch_start: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(SEED ^ epoch_start);
    let mut records =
        WifiGenerator::new(WifiConfig::tiny()).generate_epoch(epoch_start, EPOCH, &mut rng);
    // The generator clamps a final partial hour's overflow onto the epoch's
    // last second; drop that pile.
    records.retain(|r| r.time + 1 < epoch_start + EPOCH);
    records
}

/// The same deployment split across `k` systems by `shard_of_epoch`: one
/// master key and engine seed everywhere, each epoch sealed with an RNG
/// seeded by the epoch alone, so a system holds exactly the bytes a
/// `--shard i/k` process of the deployment would.
fn partitioned(k: usize) -> Vec<(ConcealerSystem, UserHandle)> {
    (0..k)
        .map(|shard| {
            let mut system = build_system_with_master(
                partitioned_config(),
                MasterKey::from_bytes([73u8; 32]),
                SEED,
            );
            let user = system.register_user(7, DEVICES.collect(), true);
            for epoch_start in (0..EPOCHS).map(|e| e * EPOCH) {
                if shard_of_epoch(epoch_start, k) == shard {
                    let mut rng = StdRng::seed_from_u64(!epoch_start);
                    system
                        .ingest_epoch(epoch_start, &epoch_records(epoch_start), &mut rng)
                        .expect("ingest");
                }
            }
            (system, user)
        })
        .collect()
}

/// Every aggregate shape, over spans that cross epoch (and therefore
/// shard) boundaries, plus a point inside the second epoch.
fn queries() -> Vec<Query> {
    vec![
        Query::count().at_dims([3]).between(0, SPAN),
        Query::sum(0).at_dims([5]).between(600, SPAN / 2),
        Query::min(0).at_dims([2]).between(0, SPAN),
        Query::max(0).at_dims([7]).between(1_200, SPAN),
        Query::average(0)
            .at_dims([1])
            .between(EPOCH - 900, 2 * EPOCH + 899),
        Query::top_k_locations(4).between(0, SPAN),
        Query::locations_with_at_least(5).between(EPOCH, 3 * EPOCH - 1),
        Query::count().at_dims([1]).at(EPOCH + 1_800),
        Query::collect_rows().observing(1_003).between(0, SPAN),
        // Overlapping windows, so batch dedup has shared bins to fold.
        Query::count().at_dims([3]).between(900, 2 * EPOCH - 1),
        Query::count().at_dims([3]).between(1_800, 3 * EPOCH - 1),
    ]
}

/// The cleartext evaluation of `query` over `records`. A point query
/// answers for the whole time granule its instant falls in.
fn cleartext(records: &[Record], query: &Query) -> AnswerValue {
    let predicate = match &query.predicate {
        Predicate::Point { dims, time } => Predicate::Range {
            dims: Some(dims.clone()),
            observation: None,
            time_start: time / 60 * 60,
            time_end: time / 60 * 60 + 59,
        },
        range => range.clone(),
    };
    let matching = records.iter().filter(|r| record_matches(r, &predicate));
    aggregate_records(matching, query)
}

/// Collected rows come back in bin order and without their timestamp (the
/// sealed payload does not carry it), the cleartext scan in record order
/// with it: compare them as multisets of `(dims, payload)`.
fn normalized(mut value: AnswerValue) -> AnswerValue {
    if let AnswerValue::Rows(rows) = &mut value {
        rows.iter_mut().for_each(|r| r.time = 0);
        rows.sort_by(|a, b| (&a.dims, &a.payload).cmp(&(&b.dims, &b.payload)));
    }
    value
}

/// Partition invariance of one entry point under one method: run the
/// queries on every system of the k-way split (`run` returns one partial
/// set per query), merge each query's partials across systems, and require
/// the encoding to be identical for k = 1, 2, 3 and the k = 1 value to
/// equal cleartext.
fn assert_partition_invariant(
    deployments: &[Vec<(ConcealerSystem, UserHandle)>],
    options: ExecOptions,
    run: impl Fn(&Session<'_>, &[Query]) -> Vec<concealer_core::Result<Vec<EpochPartial>>>,
) {
    let queries = queries();
    let method = options.method;
    let records: Vec<Record> = (0..EPOCHS).flat_map(|e| epoch_records(e * EPOCH)).collect();
    let mut unsplit: Vec<Vec<u8>> = Vec::new();
    for systems in deployments {
        let k = systems.len();
        let mut partials: Vec<Vec<EpochPartial>> = queries.iter().map(|_| Vec::new()).collect();
        for (system, user) in systems {
            let session = system.session(user).with_options(options);
            for (slot, result) in partials.iter_mut().zip(run(&session, &queries)) {
                slot.extend(result.expect("partials"));
            }
        }
        for (i, (query, partials)) in queries.iter().zip(partials).enumerate() {
            let merged = merge_partials(query, partials).expect("merge");
            assert!(merged.verified, "{query:?} under {method:?}, k={k}");
            if k == 1 {
                assert_eq!(
                    normalized(merged.value.clone()),
                    normalized(cleartext(&records, query)),
                    "{query:?} under {method:?} diverged from cleartext"
                );
                unsplit.push(wire_bytes(&merged));
            } else {
                assert_eq!(
                    wire_bytes(&merged),
                    unsplit[i],
                    "{query:?} under {method:?}: the {k}-way split changed the answer"
                );
            }
        }
    }
}

const METHODS: [RangeMethod; 3] = [
    RangeMethod::Bpb,
    RangeMethod::Ebpb,
    RangeMethod::WinSecRange,
];

/// Single queries: every aggregate shape × every range method merges to
/// the same bytes however the epochs are split, and to the cleartext
/// value.
#[test]
fn single_query_partials_are_partition_invariant() {
    let deployments: Vec<_> = (1..=3).map(partitioned).collect();
    for method in METHODS {
        let options = ExecOptions::with_method(method);
        assert_partition_invariant(&deployments, options, |session, queries| {
            queries
                .iter()
                .map(|q| session.execute_partials(q, options))
                .collect()
        });
    }
}

/// Partials arriving shuffled (shards answer in arbitrary order) still
/// merge to the identical answer — the merge sorts by epoch id.
#[test]
fn merge_is_invariant_under_partial_arrival_order() {
    let (system, user, _records) = demo_system(HOURS, SEED);
    // Two more epochs so there is actually an order to scramble.
    let mut rng = StdRng::seed_from_u64(7);
    for k in 1..=2u64 {
        let records = concealer_examples::demo_epoch_records(HOURS, SEED, k * HOURS * 3600);
        system
            .ingest_epoch(k * HOURS * 3600, &records, &mut rng)
            .expect("ingest extra epoch");
    }
    let session = system.session(&user);
    let query = Query::count().at_dims([4]).between(0, 3 * HOURS * 3600 - 1);
    let direct = session.execute(&query).expect("direct");
    assert_eq!(direct.epochs_touched, 3);

    let mut partials = session
        .execute_partials(&query, ExecOptions::default())
        .expect("partials");
    assert_eq!(partials.len(), 3);
    partials.reverse();
    let merged = merge_partials(&query, partials).expect("merge");
    assert_eq!(wire_bytes(&merged), wire_bytes(&direct));
}

/// Batches: each shard dedupes `(epoch, bin)` fetches within its own
/// slice, yet per-query fetch metadata (rows_fetched / rows_decrypted)
/// after the merge is the same however the epochs are split — on one
/// worker and on two.
#[test]
fn batch_partials_are_partition_invariant() {
    let deployments: Vec<_> = (1..=3).map(partitioned).collect();
    for method in METHODS {
        for parallelism in [1, 2] {
            let options = ExecOptions::with_method(method).with_parallelism(parallelism);
            assert_partition_invariant(&deployments, options, |session, queries| {
                session.execute_batch_partials(queries)
            });
        }
    }
}

/// The refusal cases stay aligned with direct execution: a range no
/// epoch covers is `NoDataForRange` both ways (merging zero partials is
/// the same refusal), and forward-private partials are refused outright.
#[test]
fn partial_refusals_match_direct_refusals() {
    let (system, user, _records) = demo_system(HOURS, SEED);
    let session = system.session(&user);

    let nowhere = Query::count().at_dims([3]).between(1 << 40, (1 << 40) + 10);
    let direct = session.execute(&nowhere).expect_err("no data");
    let partials = session
        .execute_partials(&nowhere, ExecOptions::default())
        .expect("empty partials is an Ok outcome per slice");
    assert!(partials.is_empty());
    let merged = merge_partials(&nowhere, partials).expect_err("merge of nothing");
    assert_eq!(merged.to_string(), direct.to_string());

    let fp = ExecOptions {
        forward_private: true,
        ..ExecOptions::default()
    };
    let query = Query::count().at_dims([3]).between(0, 3_599);
    let err = session.execute_partials(&query, fp).expect_err("refused");
    assert!(
        err.to_string().contains("forward-private"),
        "unexpected refusal: {err}"
    );
}
