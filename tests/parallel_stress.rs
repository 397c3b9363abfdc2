//! Concurrency stress test: one `ConcealerSystem` hammered from eight
//! threads with a mix of ingest, point queries, range queries (BPB and
//! eBPB) and batch executions (sequential and parallel), each through
//! both the direct and the partial (+ `merge_partials`) entry points.
//!
//! Asserts, per the PR-3 parallel-execution contract:
//!
//! * **no deadlock** — the test completes (every lock in the system is
//!   acquired in the engine→store order, so the mixed workload cannot
//!   cycle);
//! * **no answer divergence** — every query answer produced under
//!   concurrency equals the sequential oracle computed up front (query
//!   threads only touch the pre-ingested epochs, ingest threads only add
//!   epochs at disjoint far-future windows);
//! * **monotone `answer_stats`** — each thread's samples of epoch and
//!   stored-row counts never decrease, and the final counts equal the
//!   pre-ingested epochs plus every concurrently ingested one.

use concealer_core::{
    merge_partials, ExecOptions, FakeTupleStrategy, GridShape, Query, QueryAnswer, RangeMethod,
    Record, SecureIndex, SystemConfig, UserHandle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPOCH_SECONDS: u64 = 3600;
/// Ingest threads write epochs starting here — far beyond every query's
/// time span, so concurrent ingest never changes any query's answer.
const FUTURE_BASE: u64 = 1_000 * EPOCH_SECONDS;

fn stress_config() -> SystemConfig {
    SystemConfig {
        grid: GridShape {
            dim_buckets: vec![6],
            time_subintervals: 8,
            num_cell_ids: 16,
        },
        epoch_duration: EPOCH_SECONDS,
        time_granularity: 60,
        fake_strategy: FakeTupleStrategy::SimulateBins,
        verify_integrity: true,
        oblivious: false,
        winsec_rows_per_interval: 2,
    }
}

fn workload(epoch_start: u64, n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::spatial(i % 6, epoch_start + (i * 13) % EPOCH_SECONDS, 100 + i % 5))
        .collect()
}

/// The fixed query mix every query thread runs, all over epochs 0 and 1.
fn oracle_queries(records: &[Record]) -> Vec<(Query, ExecOptions)> {
    let bpb = ExecOptions::with_method(RangeMethod::Bpb);
    let ebpb = ExecOptions::with_method(RangeMethod::Ebpb);
    vec![
        (
            Query::count()
                .at_dims(records[17].dims.clone())
                .at(records[17].time),
            bpb,
        ),
        (Query::count().at_dims([2]).between(0, 1799), bpb),
        (Query::sum(0).at_dims([4]).between(900, 5399), bpb),
        (Query::count().at_dims([1]).between(0, 7199), ebpb),
        (Query::top_k_locations(3).between(0, 7199), bpb),
    ]
}

#[test]
fn eight_threads_mixed_ingest_and_queries_agree_with_sequential_oracle() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut system = concealer_examples::build_system(stress_config(), &mut rng);
    let user: UserHandle = system.register_user(1, vec![100, 101, 102, 103, 104], true);
    let records0 = workload(0, 300);
    let records1 = workload(EPOCH_SECONDS, 300);
    system.ingest_epoch(0, &records0, &mut rng).unwrap();
    system
        .ingest_epoch(EPOCH_SECONDS, &records1, &mut rng)
        .unwrap();

    let mut all = records0;
    all.extend(records1);
    let mix = oracle_queries(&all);

    // Sequential oracle, computed before any concurrency starts.
    let session = system.session(&user);
    let oracle: Vec<QueryAnswer> = mix
        .iter()
        .map(|(q, opts)| session.execute_with(q, *opts).expect("oracle"))
        .collect();
    let batch_queries: Vec<Query> = mix.iter().map(|(q, _)| q.clone()).collect();
    let batch_oracle: Vec<QueryAnswer> = system
        .session(&user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb))
        .execute_batch(&batch_queries)
        .into_iter()
        .map(|r| r.expect("batch oracle"))
        .collect();

    const INGEST_THREADS: u64 = 2;
    const QUERY_THREADS: u64 = 6;
    const EPOCHS_PER_INGESTER: u64 = 3;
    const ITERS_PER_QUERIER: usize = 4;

    let system = &system;
    let user = &user;
    let mix = &mix;
    let oracle = &oracle;
    let batch_queries = &batch_queries;
    let batch_oracle = &batch_oracle;

    std::thread::scope(|s| {
        for t in 0..INGEST_THREADS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7_000 + t);
                for k in 0..EPOCHS_PER_INGESTER {
                    let start = FUTURE_BASE + (t * EPOCHS_PER_INGESTER + k) * EPOCH_SECONDS;
                    let records = workload(start, 120);
                    system
                        .ingest_epoch(start, &records, &mut rng)
                        .expect("concurrent ingest");
                }
            });
        }
        for t in 0..QUERY_THREADS {
            s.spawn(move || {
                let mut last_epochs = 0usize;
                let mut last_rows = 0usize;
                for iter in 0..ITERS_PER_QUERIER {
                    // Point + range queries, each checked against the oracle.
                    let session = system.session(user);
                    // Alternate between the direct entry point and the
                    // partial one (+ merge): same pipeline, same answers.
                    for (i, (query, opts)) in mix.iter().enumerate() {
                        let answer = if (i + iter) % 2 == 0 {
                            session.execute_with(query, *opts)
                        } else {
                            session
                                .execute_partials(query, *opts)
                                .and_then(|partials| merge_partials(query, partials))
                        }
                        .expect("concurrent execute");
                        assert_eq!(
                            &answer, &oracle[i],
                            "thread {t} iter {iter} query {i} diverged"
                        );
                    }
                    // Batches: even threads sequential; odd threads
                    // rotate through the worker counts (one that does not
                    // divide the union, one above it, one above the
                    // host's cores) so every slicing runs under
                    // contention.
                    let parallelism = if t % 2 == 1 {
                        [2usize, 3, 8][(t as usize / 2 + iter) % 3]
                    } else {
                        1
                    };
                    let batch_session = system.session(user).with_options(
                        ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(parallelism),
                    );
                    // Odd iterations go through the partial batch entry
                    // point and merge per query.
                    let answers: Vec<QueryAnswer> = if iter % 2 == 0 {
                        batch_session.execute_batch(batch_queries)
                    } else {
                        batch_queries
                            .iter()
                            .zip(batch_session.execute_batch_partials(batch_queries))
                            .map(|(query, partials)| merge_partials(query, partials?))
                            .collect()
                    }
                    .into_iter()
                    .map(|r| r.expect("concurrent batch"))
                    .collect();
                    assert_eq!(
                        &answers, batch_oracle,
                        "thread {t} iter {iter} batch diverged"
                    );
                    // answer_stats must be monotone under concurrent ingest.
                    let stats = SecureIndex::answer_stats(system);
                    assert!(
                        stats.epochs >= last_epochs && stats.epochs >= 2,
                        "epoch count went backwards: {} < {last_epochs}",
                        stats.epochs
                    );
                    assert!(
                        stats.rows_stored >= last_rows,
                        "stored rows went backwards: {} < {last_rows}",
                        stats.rows_stored
                    );
                    last_epochs = stats.epochs;
                    last_rows = stats.rows_stored;
                }
            });
        }
    });

    // All ingested epochs landed exactly once.
    let expected_epochs = 2 + (INGEST_THREADS * EPOCHS_PER_INGESTER) as usize;
    assert_eq!(SecureIndex::answer_stats(system).epochs, expected_epochs);
    assert_eq!(system.store().epoch_ids().len(), expected_epochs);

    // The system still answers correctly after the storm.
    let session = system.session(user);
    for (i, (query, opts)) in mix.iter().enumerate() {
        assert_eq!(
            session.execute_with(query, *opts).unwrap(),
            oracle[i],
            "post-storm query {i}"
        );
    }

    // And, with the store quiet again so traces are comparable: every
    // worker count is unobservable next to `parallelism = 1`.
    let run = |parallelism: usize| {
        let session = system
            .session(user)
            .with_options(ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(parallelism));
        system.observer().reset();
        let (answers, meter) = system.meter().measure(|| {
            session
                .execute_batch(batch_queries)
                .into_iter()
                .map(|r| r.expect("post-storm batch"))
                .collect::<Vec<QueryAnswer>>()
        });
        (answers, system.observer().take_events(), meter)
    };
    let sequential = run(1);
    assert_eq!(&sequential.0, batch_oracle);
    for parallelism in [2usize, 3, 8] {
        assert_eq!(run(parallelism), sequential, "parallelism={parallelism}");
    }
}
