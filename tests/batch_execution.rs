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
use concealer_enclave::MeterSnapshot;
use concealer_examples::demo_system;
use concealer_storage::AccessEvent;
use concealer_workloads::QueryWorkload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// One deployment shared by the property test's cases — building a system
/// per generated case would dominate the runtime. It lives in a
/// thread-local of the test's thread, so it is dropped when the test ends:
/// a `static` never is, and on the disk backend its scratch store would
/// outlive the run.
fn shared_system() -> Rc<(ConcealerSystem, UserHandle)> {
    thread_local! {
        static SYSTEM: OnceCell<Rc<(ConcealerSystem, UserHandle)>> = const { OnceCell::new() };
    }
    SYSTEM.with(|system| {
        let system = system.get_or_init(|| {
            let (system, user, _records) = demo_system(2, 401);
            Rc::new((system, user))
        });
        Rc::clone(system)
    })
}

/// A random mix of the paper's query templates (point + Q1/Q2/Q5 ranges).
fn random_mix(seed: u64, len: usize) -> Vec<Query> {
    let workload = QueryWorkload {
        locations: 30,
        devices: (1000..1300).collect(),
        time_extent: (0, 2 * 3600),
    };
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

/// Worker counts every batch assertion sweeps: 1 (the calling thread
/// alone, whose batch is the trace and meter reference), two that rarely
/// divide the union, and one above any CI host's cores (and, for short
/// mixes, above the union length).
const PARALLELISM_SWEEP: [usize; 4] = [1, 2, 3, 8];

/// One BPB batch on `parallelism` workers through `execute_batch`: the
/// answers, the side-channel meter delta and the event-level trace.
fn run_batch(
    system: &ConcealerSystem,
    user: &UserHandle,
    queries: &[Query],
    parallelism: usize,
) -> (Vec<QueryAnswer>, MeterSnapshot, Vec<AccessEvent>) {
    let opts = ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(parallelism);
    observed(system, || {
        system
            .session(user)
            .with_options(opts)
            .execute_batch(queries)
            .into_iter()
            .map(|r| r.expect("batched execute"))
            .collect()
    })
}

/// What `run` returns, with the side-channel meter delta and the
/// event-level trace it caused.
fn observed<T>(
    system: &ConcealerSystem,
    run: impl FnOnce() -> T,
) -> (T, MeterSnapshot, Vec<AccessEvent>) {
    system.observer().reset();
    let (out, meter) = system.meter().measure(run);
    (out, meter, system.observer().take_events())
}

/// Every range method, for the sweeps over `ExecOptions`.
const METHODS: [RangeMethod; 3] = [
    RangeMethod::Bpb,
    RangeMethod::Ebpb,
    RangeMethod::WinSecRange,
];

/// A system that keeps no trace — what a server makes of the one it
/// serves — answers exactly the same and records nothing, on one worker
/// or several (the batch executor's task-local observers are paused with
/// it); switched back on, it traces exactly as it did before.
#[test]
fn a_paused_observer_changes_no_answer_and_keeps_no_event() {
    let (system, user, _records) = demo_system(2, 401);
    let queries = random_mix(9, 10);
    let (want, _, recorded) = run_batch(&system, &user, &queries, 1);
    assert!(!recorded.is_empty(), "a fresh system records");

    system.observer().set_recording(false);
    for parallelism in PARALLELISM_SWEEP {
        let (got, _, trace) = run_batch(&system, &user, &queries, parallelism);
        assert_eq!(got, want, "paused, parallelism={parallelism}");
        assert!(trace.is_empty(), "paused, parallelism={parallelism}");
    }

    system.observer().set_recording(true);
    for parallelism in PARALLELISM_SWEEP {
        let (got, _, trace) = run_batch(&system, &user, &queries, parallelism);
        assert_eq!(got, want, "resumed, parallelism={parallelism}");
        assert_eq!(trace, recorded, "resumed, parallelism={parallelism}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Batched answers — values *and* execution metadata — equal running
    /// the same queries one by one under the bin-granular BPB method, at
    /// every worker count of the one batch executor, through
    /// `execute_batch` *and* `execute_batch_partials` + `merge_partials`.
    #[test]
    fn batch_answers_equal_sequential(seed in 0u64..1_000, len in 1usize..12) {
        let shared = shared_system();
        let (system, user) = &*shared;
        let session = system
            .session(user)
            .with_options(ExecOptions::with_method(RangeMethod::Bpb));
        let queries = random_mix(seed, len);

        let sequential: Vec<QueryAnswer> = queries
            .iter()
            .map(|q| session.execute(q).expect("sequential execute"))
            .collect();
        let (batched, batch_meter, batch_trace) = run_batch(system, user, &queries, 1);
        prop_assert_eq!(&batched, &sequential);

        // Execute on w workers, then merge ≡ execute on one: through both
        // entry points (the partial one is the same pipeline stopped
        // before the merge), answers, the event-level trace and the
        // side-channel meter equal the sequential batch's.
        for parallelism in PARALLELISM_SWEEP {
            let (parallel, meter, trace) = run_batch(system, user, &queries, parallelism);
            prop_assert_eq!(&parallel, &sequential, "parallelism={}", parallelism);
            prop_assert_eq!(&trace, &batch_trace, "trace at parallelism={}", parallelism);
            prop_assert_eq!(meter, batch_meter, "meter at parallelism={}", parallelism);

            let session = system.session(user).with_options(
                ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(parallelism),
            );
            let (partials, meter) = system
                .meter()
                .measure(|| session.execute_batch_partials(&queries));
            let trace = system.observer().take_events();
            let merged: Vec<QueryAnswer> = queries
                .iter()
                .zip(partials)
                .map(|(q, p)| merge_partials(q, p.expect("partial batch entry")).expect("merge"))
                .collect();
            prop_assert_eq!(&merged, &sequential, "partials at parallelism={}", parallelism);
            prop_assert_eq!(&trace, &batch_trace, "partial trace at parallelism={}", parallelism);
            prop_assert_eq!(meter, batch_meter, "partial meter at parallelism={}", parallelism);
        }

        // A single `execute` is the batch of one, under every method,
        // for a point and a range, verifying or not, oblivious or not:
        // the same answer, the same trace event for event (its boundary
        // included) and the same side-channel meter.
        for query in random_mix(seed, 2) {
            for (method, verify, oblivious) in METHODS
                .into_iter()
                .flat_map(|m| [(m, false), (m, true)])
                .flat_map(|(m, v)| [(m, v, false), (m, v, true)])
            {
                let session = system.session(user).with_options(ExecOptions {
                    method,
                    verify,
                    oblivious: Some(oblivious),
                    ..ExecOptions::default()
                });
                let single = observed(system, || session.execute(&query).expect("single"));
                let (mut batch, meter, trace) = observed(system, || {
                    session.execute_batch(std::slice::from_ref(&query))
                });
                let batch = (batch.remove(0).expect("batch of one"), meter, trace);
                prop_assert_eq!(
                    &single,
                    &batch,
                    "{:?} verify={} oblivious={} {:?}",
                    method,
                    verify,
                    oblivious,
                    &query
                );
            }
        }
    }
}

/// eBPB and winSecRange batches run on the one stage executor too: a batch
/// answers as sequential execution does and fetches the union of its
/// queries' rows, fetching an identical cell-group unit once and leaving
/// one boundary — a repeated query adds no event. Answers, trace and meter
/// are the same on one worker and on four.
#[test]
fn cell_group_batches_dedupe_units_and_ignore_the_worker_count() {
    let (system, user, _records) = demo_system(2, 407);
    let distinct = random_mix(11, 10);
    let mut queries = distinct.clone();
    queries.extend_from_slice(&distinct[..5]);
    for method in [RangeMethod::Ebpb, RangeMethod::WinSecRange] {
        let session = system
            .session(&user)
            .with_options(ExecOptions::with_method(method));
        system.observer().reset();
        let sequential: Vec<QueryAnswer> = queries
            .iter()
            .map(|q| session.execute(q).expect("sequential"))
            .collect();
        let sequential_union: BTreeSet<(u64, u64)> = system
            .observer()
            .per_query_fetch_sets()
            .into_iter()
            .flatten()
            .collect();
        let batch = |queries: &[Query], parallelism: usize| {
            let session = system
                .session(&user)
                .with_options(ExecOptions::with_method(method).with_parallelism(parallelism));
            observed(&system, || {
                session
                    .execute_batch(queries)
                    .into_iter()
                    .map(|r| r.expect("batched execute"))
                    .collect::<Vec<_>>()
            })
        };
        let one = batch(&queries, 1);
        assert_eq!(one.0, sequential, "{method:?}");
        let boundaries = one
            .2
            .iter()
            .filter(|e| matches!(e, AccessEvent::QueryBoundary))
            .count();
        assert_eq!(boundaries, 1, "{method:?}");
        let rows: BTreeSet<(u64, u64)> = concealer_storage::AccessObserver::summarize(&one.2)
            .fetch_frequency
            .into_keys()
            .collect();
        assert_eq!(rows, sequential_union, "{method:?}");
        assert_eq!(
            batch(&distinct, 1).2,
            one.2,
            "{method:?}: repeats add no event"
        );
        assert_eq!(batch(&queries, 4), one, "{method:?} at parallelism 4");
    }
}

#[test]
fn batch_of_32_fetches_strictly_less_with_identical_answers_and_trace_union() {
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
    let (batched, batch_meter, batch_trace) = run_batch(&system, &user, &queries, 1);
    let batch_summary = concealer_storage::AccessObserver::summarize(&batch_trace);

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

    // The threaded path satisfies the exact same contract at every worker
    // count: identical answers, row set = union, no duplicate fetches —
    // and, because the per-thread traces are merged back in ascending bin
    // order, the event-level trace and the side-channel meter equal the
    // sequential batch's too.
    for parallelism in PARALLELISM_SWEEP {
        let (parallel, parallel_meter, parallel_trace) =
            run_batch(&system, &user, &queries, parallelism);
        assert_eq!(parallel, sequential, "parallelism={parallelism}");
        let parallel_summary = concealer_storage::AccessObserver::summarize(&parallel_trace);
        let parallel_rows: BTreeSet<(u64, u64)> =
            parallel_summary.fetch_frequency.keys().copied().collect();
        assert_eq!(
            parallel_rows, sequential_union,
            "parallel row set = union (parallelism={parallelism})"
        );
        assert!(
            parallel_summary.fetch_frequency.values().all(|&f| f == 1),
            "no row may be fetched more than once by the parallel path \
             (parallelism={parallelism})"
        );
        assert_eq!(
            parallel_trace, batch_trace,
            "parallel trace must be event-for-event identical to the \
             sequential batch (parallelism={parallelism})"
        );
        assert_eq!(
            parallel_meter, batch_meter,
            "parallel meter (parallelism={parallelism})"
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
fn forward_private_batches_run_the_section_6_protocol_as_one_batch() {
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
