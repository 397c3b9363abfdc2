//! Tests of `Session::execute_batch`: cross-query bin deduplication must
//! change *nothing* about the answers and *nothing* about what the
//! adversary can learn — it may only remove duplicate fetches.
//!
//! * A property test asserts batch answers equal sequential answers
//!   (including the per-query fetch metadata) on random WiFi-workload
//!   query mixes.
//! * An observer-trace test asserts a 32-query mix performs strictly fewer
//!   store fetches batched than sequential, that the batched row set is
//!   exactly the union of the sequential per-query row sets, and that no
//!   row is fetched twice (per-bin fetch sizes unchanged — bins are always
//!   fetched whole).

use concealer_core::{
    merge_partials, ConcealerSystem, ExecOptions, Query, QueryAnswer, RangeMethod, UserHandle,
};
use concealer_examples::demo_system;
use concealer_workloads::QueryWorkload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// One shared deployment for the property test — building a system per
/// generated case would dominate the runtime.
fn shared_system() -> &'static (ConcealerSystem, UserHandle, QueryWorkload) {
    static SYSTEM: OnceLock<(ConcealerSystem, UserHandle, QueryWorkload)> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let (system, user, _records) = demo_system(2, 401);
        let workload = QueryWorkload {
            locations: 30,
            devices: (1000..1300).collect(),
            time_extent: (0, 2 * 3600),
        };
        (system, user, workload)
    })
}

/// A random mix of the paper's query templates (point + Q1/Q2/Q5 ranges).
fn random_mix(seed: u64, len: usize) -> Vec<Query> {
    let (_, _, workload) = shared_system();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| match i % 5 {
            0 => workload.q1_point(&mut rng),
            1 | 2 => workload.q1(25 * 60, &mut rng),
            3 => workload.q2(40 * 60, 4, &mut rng),
            _ => workload.q5(25 * 60, &mut rng),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Batched answers — values *and* execution metadata — equal running
    /// the same queries sequentially under the bin-granular BPB method,
    /// for the sequential batch path *and* the thread-pool path, through
    /// `execute_batch` *and* `execute_batch_partials` + `merge_partials`.
    #[test]
    fn batch_answers_equal_sequential(seed in 0u64..1_000, len in 1usize..12) {
        // Force the pool even on single-core hosts, where the engine would
        // otherwise (correctly) fall back to the sequential loop.
        std::env::set_var("CONCEALER_FORCE_THREADS", "1");
        let (system, user, _) = shared_system();
        let session = system
            .session(user)
            .with_options(ExecOptions::with_method(RangeMethod::Bpb));
        let queries = random_mix(seed, len);

        let sequential: Vec<QueryAnswer> = queries
            .iter()
            .map(|q| session.execute(q).expect("sequential execute"))
            .collect();
        system.observer().reset();
        let batched: Vec<QueryAnswer> = session
            .execute_batch(&queries)
            .into_iter()
            .map(|r| r.expect("batched execute"))
            .collect();
        let batch_trace = system.observer().take_events();
        prop_assert_eq!(&batched, &sequential);

        // The partial entry point is the same pipeline stopped before the
        // merge: at every worker count the merged partials equal the
        // sequential answers and the event-level trace equals the
        // sequential batch's.
        for parallelism in [1usize, 2, 4] {
            let partials = system
                .session(user)
                .with_options(
                    ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(parallelism),
                )
                .execute_batch_partials(&queries);
            let trace = system.observer().take_events();
            let merged: Vec<QueryAnswer> = queries
                .iter()
                .zip(partials)
                .map(|(q, p)| merge_partials(q, p.expect("partial batch entry")).expect("merge"))
                .collect();
            prop_assert_eq!(&merged, &sequential, "partials at parallelism={}", parallelism);
            prop_assert_eq!(&trace, &batch_trace, "partial trace at parallelism={}", parallelism);
        }

        // The thread-pool path at every interesting fetch-stage chunk size:
        // single-bin chunks, tiny chunks, auto (one chunk per worker), and
        // one chunk swallowing the whole union.
        for fetch_chunk in [1usize, 2, 0, usize::MAX] {
            let parallel: Vec<QueryAnswer> = system
                .session(user)
                .with_options(
                    ExecOptions::with_method(RangeMethod::Bpb)
                        .with_parallelism(4)
                        .with_fetch_chunk(fetch_chunk),
                )
                .execute_batch(&queries)
                .into_iter()
                .map(|r| r.expect("parallel batched execute"))
                .collect();
            prop_assert_eq!(&parallel, &sequential, "fetch_chunk={}", fetch_chunk);
        }
    }
}

#[test]
fn batch_of_32_fetches_strictly_less_with_identical_answers_and_trace_union() {
    // Force the pool even on single-core hosts, where the engine would
    // otherwise (correctly) fall back to the sequential loop.
    std::env::set_var("CONCEALER_FORCE_THREADS", "1");
    let (system, user, _records) = demo_system(2, 402);
    let workload = QueryWorkload {
        locations: 30,
        devices: (1000..1300).collect(),
        time_extent: (0, 2 * 3600),
    };
    let session = system
        .session(&user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb));

    // A 32-query mix; overlapping windows and repeated locations guarantee
    // shared bins between queries.
    let mut rng = StdRng::seed_from_u64(403);
    let queries: Vec<Query> = (0..32)
        .map(|i| match i % 4 {
            0 => workload.q1_point(&mut rng),
            1 | 2 => workload.q1(30 * 60, &mut rng),
            _ => workload.q2(45 * 60, 5, &mut rng),
        })
        .collect();
    assert_eq!(queries.len(), 32);

    // Sequential run: collect answers plus the adversary's per-query trace.
    system.observer().reset();
    let sequential: Vec<QueryAnswer> = queries
        .iter()
        .map(|q| session.execute(q).expect("sequential"))
        .collect();
    let sequential_sets = system.observer().per_query_fetch_sets();
    assert_eq!(sequential_sets.len(), 32);
    let sequential_total: usize = sequential_sets.iter().map(Vec::len).sum();
    let sequential_union: BTreeSet<(u64, u64)> =
        sequential_sets.iter().flatten().copied().collect();

    // Batched run.
    system.observer().reset();
    let batched: Vec<QueryAnswer> = session
        .execute_batch(&queries)
        .into_iter()
        .map(|r| r.expect("batched"))
        .collect();
    let batch_summary = system.observer().summary();

    // Identical answers, including per-query fetch metadata.
    assert_eq!(batched, sequential);

    // Strictly fewer store fetches.
    assert!(
        batch_summary.rows_fetched < sequential_total,
        "batch must dedupe shared bins: {} vs {}",
        batch_summary.rows_fetched,
        sequential_total
    );

    // The batched trace is exactly the union of the per-query traces:
    // batching leaks nothing new, it only removes duplicate fetches.
    let batch_rows: BTreeSet<(u64, u64)> = batch_summary.fetch_frequency.keys().copied().collect();
    assert_eq!(batch_rows, sequential_union, "row set must be the union");

    // Every bin is fetched whole exactly once: no row appears twice, so
    // per-bin fetch sizes are unchanged from sequential execution.
    assert!(
        batch_summary.fetch_frequency.values().all(|&f| f == 1),
        "no row may be fetched more than once in a batch"
    );
    assert_eq!(batch_summary.rows_fetched, sequential_union.len());

    // The thread-pool path satisfies the exact same contract at every
    // fetch-stage chunk size — single-bin chunks, tiny chunks, auto (one
    // chunk per worker) and one whole-union chunk: identical answers, row
    // set = union, no duplicate fetches — and, because chunk traces are
    // merged back in ascending bin order, the event-level trace equals the
    // sequential batch trace too.
    let batch_trace = system.observer().take_events();
    for fetch_chunk in [1usize, 2, 4, 0, usize::MAX] {
        let parallel: Vec<QueryAnswer> = system
            .session(&user)
            .with_options(
                ExecOptions::with_method(RangeMethod::Bpb)
                    .with_parallelism(4)
                    .with_fetch_chunk(fetch_chunk),
            )
            .execute_batch(&queries)
            .into_iter()
            .map(|r| r.expect("parallel batched"))
            .collect();
        let parallel_trace = system.observer().take_events();
        assert_eq!(parallel, sequential, "fetch_chunk={fetch_chunk}");
        let parallel_summary = concealer_storage::AccessObserver::summarize(&parallel_trace);
        let parallel_rows: BTreeSet<(u64, u64)> =
            parallel_summary.fetch_frequency.keys().copied().collect();
        assert_eq!(
            parallel_rows, sequential_union,
            "parallel row set = union (fetch_chunk={fetch_chunk})"
        );
        assert!(
            parallel_summary.fetch_frequency.values().all(|&f| f == 1),
            "no row may be fetched more than once by the parallel path \
             (fetch_chunk={fetch_chunk})"
        );
        assert_eq!(
            parallel_trace, batch_trace,
            "parallel trace must be event-for-event identical to the \
             sequential batch (fetch_chunk={fetch_chunk})"
        );
    }
}

#[test]
fn batch_values_match_sequential_even_under_other_default_methods() {
    // A session whose default method is eBPB executes batches as a
    // sequential loop (its access-pattern profile is never silently
    // replanned at bin granularity), so answers trivially match.
    let (system, user, _records) = demo_system(1, 404);
    let workload = QueryWorkload {
        locations: 30,
        devices: vec![],
        time_extent: (0, 3600),
    };
    let session = system.session(&user); // default method: eBPB
    let mut rng = StdRng::seed_from_u64(405);
    let queries: Vec<Query> = (0..6).map(|_| workload.q1(20 * 60, &mut rng)).collect();

    let sequential_values: Vec<_> = queries
        .iter()
        .map(|q| session.execute(q).unwrap().value)
        .collect();
    let batched_values: Vec<_> = session
        .execute_batch(&queries)
        .into_iter()
        .map(|r| r.unwrap().value)
        .collect();
    assert_eq!(batched_values, sequential_values);
}

#[test]
fn forward_private_batches_fall_back_to_sequential_semantics() {
    let (system, user) = {
        let mut rng = StdRng::seed_from_u64(406);
        let mut system =
            concealer_examples::build_system(concealer_examples::demo_config(1), &mut rng);
        let user = system.register_user(1, vec![], true);
        let generator =
            concealer_workloads::WifiGenerator::new(concealer_workloads::WifiConfig::tiny());
        let records = generator.generate_epoch(0, 3600, &mut rng);
        system.ingest_epoch(0, &records, &mut rng).unwrap();
        let records2 = generator.generate_epoch(3600, 3600, &mut rng);
        system.ingest_epoch(3600, &records2, &mut rng).unwrap();
        (system, user)
    };
    let session = system.session(&user).with_options(ExecOptions {
        method: RangeMethod::Bpb,
        forward_private: true,
        ..ExecOptions::default()
    });
    let queries = vec![
        Query::count().at_dims([2]).between(0, 7199),
        Query::count().at_dims([2]).between(0, 7199),
    ];
    let results = session.execute_batch(&queries);
    assert!(results.iter().all(Result::is_ok));
    // The §6 protocol ran: the store saw re-encryption rewrites.
    assert!(system.store().rewrite_count(0).unwrap() > 0);
}
