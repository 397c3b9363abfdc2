//! Side-channel invariance tests for the enclave-side decrypted-bin cache.
//!
//! The cache must be **invisible to the adversary**: a warm hit replays the
//! cached trapdoors against the store, so the `TrapdoorIssued`/`RowFetched`
//! event sequence — and the side-channel meter counters — are bit-identical
//! to a cold fetch. If the cache ever short-circuited the observable access
//! pattern (or the instrumentation), the service provider could distinguish
//! "bin already queried" from "bin first touched", re-introducing exactly
//! the query-correlation leakage Concealer exists to remove.
//!
//! * A property test runs random WiFi query mixes twice on one system and
//!   asserts the adversary trace and the meter deltas of the warm repeat
//!   are event-for-event / counter-for-counter identical to the first run,
//!   with the cache demonstrably serving hits.
//! * A twin-deployment test runs the same workload on two systems sharing
//!   key material — one with the cache disabled — and asserts their traces
//!   and meters never diverge.
//! * An eviction test squeezes the cache to two entries so hot bins are
//!   evicted and re-fetched (hash chains verifying throughout) and asserts
//!   answers survive the churn.

use concealer_core::{
    merge_partials, ConcealerSystem, ExecOptions, MasterKey, Query, QueryAnswer, RangeMethod,
    Record, SecureIndex, UserHandle,
};
use concealer_examples::{build_system_with_master, demo_config, demo_wifi_config, demo_workload};
use concealer_workloads::WifiGenerator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::OnceCell;
use std::rc::Rc;

const HOURS: u64 = 2;

fn demo_records(seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    WifiGenerator::new(demo_wifi_config()).generate_epoch(0, HOURS * 3600, &mut rng)
}

/// A deployment with pinned key material so twin systems see identical
/// ciphertexts, trapdoors and traces.
fn pinned_system(records: &[Record]) -> (ConcealerSystem, UserHandle) {
    let mut system =
        build_system_with_master(demo_config(HOURS), MasterKey::from_bytes([41u8; 32]), 4242);
    let user = system.register_user(7, (1000..1300).collect(), true);
    let mut rng = StdRng::seed_from_u64(4243);
    system.ingest_epoch(0, records, &mut rng).expect("ingest");
    (system, user)
}

/// A random mix of the paper's query templates (point + Q1/Q2/Q5 ranges).
fn random_mix(seed: u64, len: usize) -> Vec<Query> {
    let workload = demo_workload(HOURS);
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

/// One shared deployment for the property test — building a system per
/// generated case would dominate the runtime. The cache persists across
/// cases, which is the point: trace invariance must hold at *any* cache
/// state, not just cold-then-warm. It lives in a thread-local of the
/// test's thread, so it is dropped when the test ends: a `static` never
/// is, and on the disk backend its scratch store would outlive the run.
fn shared_system() -> Rc<(ConcealerSystem, UserHandle)> {
    thread_local! {
        static SYSTEM: OnceCell<Rc<(ConcealerSystem, UserHandle)>> = const { OnceCell::new() };
    }
    SYSTEM
        .with(|system| Rc::clone(system.get_or_init(|| Rc::new(pinned_system(&demo_records(501))))))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Running the same batch twice must produce bit-identical adversary
    /// traces and side-channel meter deltas, no matter how many of the
    /// second run's fetches the cache serves warm — and it must serve some.
    #[test]
    fn warm_hits_replay_trace_and_meter_exactly(seed in 0u64..1_000, len in 4usize..10) {
        let shared = shared_system();
        let (system, user) = &*shared;
        let session = system
            .session(user)
            .with_options(ExecOptions::with_method(RangeMethod::Bpb));
        let queries = random_mix(seed, len);

        system.observer().reset();
        let (first, first_meter) = system.meter().measure(|| {
            session
                .execute_batch(&queries)
                .into_iter()
                .map(|r| r.expect("first run"))
                .collect::<Vec<QueryAnswer>>()
        });
        let first_trace = system.observer().take_events();

        let before = system.bin_cache_stats();
        let (second, second_meter) = system.meter().measure(|| {
            session
                .execute_batch(&queries)
                .into_iter()
                .map(|r| r.expect("second run"))
                .collect::<Vec<QueryAnswer>>()
        });
        let second_trace = system.observer().take_events();
        let after = system.bin_cache_stats();

        prop_assert_eq!(&second, &first, "answers must not depend on cache state");
        prop_assert_eq!(
            &second_trace, &first_trace,
            "warm trace must be event-for-event identical to the first run"
        );
        prop_assert_eq!(
            second_meter, first_meter,
            "warm meter delta must be counter-for-counter identical"
        );
        // The invariance above must not be vacuous: the repeat was served
        // (at least partly) from the cache.
        prop_assert!(
            after.hits > before.hits,
            "the repeated batch must score cache hits ({} -> {})",
            before.hits,
            after.hits
        );
    }
}

/// Two deployments sharing key material and data — one with the cache
/// disabled — must be indistinguishable to the adversary across repeated
/// workloads: identical event traces and identical meter totals, while the
/// cached system demonstrably serves hits the uncached one cannot.
#[test]
fn cache_on_and_cache_off_systems_are_indistinguishable() {
    let records = demo_records(502);
    let (cached, cached_user) = pinned_system(&records);
    let (uncached, uncached_user) = pinned_system(&records);
    uncached.set_bin_cache_capacity(0);

    let workload = demo_workload(HOURS);
    let mut rng = StdRng::seed_from_u64(503);
    let queries: Vec<Query> = (0..24)
        .map(|i| match i % 4 {
            0 => workload.q1_point(&mut rng),
            1 | 2 => workload.q1(30 * 60, &mut rng),
            _ => workload.q2(45 * 60, 5, &mut rng),
        })
        .collect();

    // Pass 1+ is warm on the cached system, always cold on the uncached
    // one. Passes 0 and 1 run the sequential executor; the later ones the
    // threaded one at a count that does not divide the union, an odd one,
    // and one above this host's cores — each must reproduce pass 0's
    // answers, trace and meter on both systems.
    let mut sequential = None;
    for (pass, parallelism) in [1usize, 1, 2, 3, 8].into_iter().enumerate() {
        let opts = ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(parallelism);
        let run = |system: &ConcealerSystem, user: &UserHandle| {
            system.observer().reset();
            let (answers, meter) = system.meter().measure(|| {
                system
                    .session(user)
                    .with_options(opts)
                    .execute_batch(&queries)
                    .into_iter()
                    .map(|r| r.expect("batch"))
                    .collect::<Vec<QueryAnswer>>()
            });
            (answers, meter, system.observer().take_events())
        };
        let (cached_answers, cached_meter, cached_trace) = run(&cached, &cached_user);
        let (uncached_answers, uncached_meter, uncached_trace) = run(&uncached, &uncached_user);

        assert_eq!(cached_answers, uncached_answers, "pass {pass}: answers");
        assert_eq!(
            cached_trace, uncached_trace,
            "pass {pass}: the cache must not change the adversary trace"
        );
        assert_eq!(
            cached_meter, uncached_meter,
            "pass {pass}: the cache must not change the side-channel meter"
        );
        let this_pass = (cached_answers, cached_meter, cached_trace);
        let first = sequential.get_or_insert_with(|| this_pass.clone());
        assert_eq!(
            &this_pass, first,
            "pass {pass}: parallelism={parallelism} must be unobservable"
        );
    }

    // Once more through the single-query partial entry point — warm on the
    // cached twin, cold on the other — so the replay identity is pinned on
    // the pipeline every execution shares, not only on its batch planner.
    let run_partials = |system: &ConcealerSystem, user: &UserHandle| {
        let session = system.session(user);
        let options = ExecOptions::with_method(RangeMethod::Bpb);
        system.observer().reset();
        let (answers, meter) = system.meter().measure(|| {
            queries
                .iter()
                .map(|q| {
                    let partials = session.execute_partials(q, options).expect("partials");
                    merge_partials(q, partials).expect("merge")
                })
                .collect::<Vec<QueryAnswer>>()
        });
        (answers, meter, system.observer().take_events())
    };
    let (cached_answers, cached_meter, cached_trace) = run_partials(&cached, &cached_user);
    let (uncached_answers, uncached_meter, uncached_trace) =
        run_partials(&uncached, &uncached_user);
    assert_eq!(cached_answers, uncached_answers, "partials: answers");
    assert_eq!(cached_trace, uncached_trace, "partials: adversary trace");
    assert_eq!(cached_meter, uncached_meter, "partials: side-channel meter");

    let cached_stats = cached.bin_cache_stats();
    let uncached_stats = uncached.bin_cache_stats();
    assert!(cached_stats.hits > 0, "warm passes must hit the cache");
    assert_eq!(uncached_stats.hits, 0);
    assert_eq!(uncached_stats.entries, 0, "capacity 0 caches nothing");

    // The cache's capacity and hit counters surface through the uniform
    // backend-stats interface.
    let reported = SecureIndex::answer_stats(&cached)
        .bin_cache
        .expect("concealer reports its bin cache");
    assert_eq!(reported.hits, cached_stats.hits);
    assert!(reported.capacity > 0);
}

/// With the cache squeezed to two entries, hot bins are evicted and
/// re-fetched continuously; answers (verified against hash chains on every
/// fetch) must survive the churn, and the final state must reflect it.
#[test]
fn answers_survive_lru_eviction_and_refetch() {
    let (system, user) = pinned_system(&demo_records(504));
    let workload = demo_workload(HOURS);
    let mut rng = StdRng::seed_from_u64(505);
    let queries: Vec<Query> = (0..12)
        .map(|i| match i % 3 {
            0 => workload.q1_point(&mut rng),
            _ => workload.q1(35 * 60, &mut rng),
        })
        .collect();
    let session = system
        .session(&user)
        .with_options(ExecOptions::with_method(RangeMethod::Bpb));

    // Oracle under the default capacity, then shrink and churn.
    let oracle: Vec<QueryAnswer> = session
        .execute_batch(&queries)
        .into_iter()
        .map(|r| r.expect("oracle"))
        .collect();
    assert!(
        oracle.iter().all(|a| a.verified),
        "verification must be active so every re-fetch re-checks hash chains"
    );

    system.set_bin_cache_capacity(2);
    assert_eq!(system.bin_cache_stats().entries, 2, "shrink evicts down");
    for round in 0..4 {
        let answers: Vec<QueryAnswer> = session
            .execute_batch(&queries)
            .into_iter()
            .map(|r| r.expect("churn run"))
            .collect();
        assert_eq!(
            answers, oracle,
            "round {round}: answers under eviction churn"
        );
    }
    let stats = system.bin_cache_stats();
    assert_eq!(stats.capacity, 2);
    assert!(stats.entries <= 2);
    assert!(
        stats.evictions > 0,
        "a two-entry cache under a multi-bin workload must evict"
    );
    assert!(
        stats.misses > stats.hits,
        "most fetches run cold once their entry is evicted (hits {}, misses {})",
        stats.hits,
        stats.misses
    );
}
