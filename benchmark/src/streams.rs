//! The four workloads and their request streams: pure functions of
//! `(workload, seed)`, so the program under test only ever sees generated
//! inputs and an oracle can regenerate them.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{ExecOptions, Predicate, Query, QueryWorkload, RangeMethod, ServerRequest};

/// Requests replayed against ground truth before the timed window.
pub const CHECK_REQUESTS: usize = 200;

/// Length of a generated stream; callers cycle through it.
pub const STREAM_LEN: usize = 1_000;

/// Queries per batch in [`Workload::WarmBatch`] (the repo's historical
/// headline shape) and number of distinct batches cycled.
pub const WARM_BATCH_LEN: usize = 64;
pub const WARM_BATCHES: usize = 16;

/// Hours of data in the demo deployment behind `wire_points`.
pub const DEMO_HOURS: u64 = 2;
/// Epoch length on `routed_ingest`. Whole-hour epochs all hash to shard 0
/// of 2 under `shard_of_epoch`; 90-minute epochs alternate.
pub const ROUTED_EPOCH: u64 = 5_400;
/// Epochs pre-ingested on [`Workload::RoutedIngest`] (two per shard).
pub const ROUTED_EPOCHS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmBatch,
    ColdVerify,
    WirePoints,
    RoutedIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmBatch,
        Workload::ColdVerify,
        Workload::WirePoints,
        Workload::RoutedIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmBatch => "warm_batch",
            Workload::ColdVerify => "cold_verify",
            Workload::WirePoints => "wire_points",
            Workload::RoutedIngest => "routed_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop callers (threads in-process, connections over the wire).
    /// The wire workloads run one per hardware thread of the sandbox: with
    /// a single caller every hop of a request wakes an idle virtual CPU,
    /// and the run measures the host's wake-up latency, not the program
    /// (README, "Measured spread").
    pub fn callers(self) -> usize {
        match self {
            Workload::WarmBatch | Workload::ColdVerify => 1,
            Workload::WirePoints | Workload::RoutedIngest => 2,
        }
    }
}

/// Seed of caller `caller`'s stream (and, with `caller = 0`, of nothing
/// else: data seeds are derived separately in `deploy.rs`).
fn stream_seed(seed: u64, caller: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x5EED_0000 + caller as u64)
}

/// The request stream of one caller. `queries` generates over the
/// deployment the workload builds (see `deploy.rs`); on
/// [`Workload::RoutedIngest`] its extent is one epoch and requests are
/// shifted into the pre-ingested epochs here.
pub fn request_stream(
    workload: Workload,
    seed: u64,
    caller: usize,
    queries: &QueryWorkload,
) -> Vec<ServerRequest> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, caller));
    let bpb = ExecOptions::with_method(RangeMethod::Bpb);
    let ebpb = ExecOptions::with_method(RangeMethod::Ebpb);
    match workload {
        // 16 point, 32 Q1 30 min, 16 Q2 45 min top-5 per batch.
        Workload::WarmBatch => (0..WARM_BATCHES)
            .map(|_| {
                let batch = (0..WARM_BATCH_LEN)
                    .map(|i| match i % 4 {
                        0 => queries.q1_point(&mut rng),
                        1 | 2 => queries.q1(30 * 60, &mut rng),
                        _ => queries.q2(45 * 60, 5, &mut rng),
                    })
                    .collect();
                ServerRequest::Batch(batch, bpb)
            })
            .collect(),
        // 40 % point, 30 % Q1 BPB, 20 % Q1 eBPB, 10 % Q5 BPB. The mix is
        // positional, so every seed has exactly these shares.
        Workload::ColdVerify => (0..STREAM_LEN)
            .map(|i| match i % 10 {
                0 | 3 | 5 | 8 => ServerRequest::Query(queries.q1_point(&mut rng), bpb),
                1 | 4 | 7 => ServerRequest::Query(queries.q1(30 * 60, &mut rng), bpb),
                2 | 6 => ServerRequest::Query(queries.q1(30 * 60, &mut rng), ebpb),
                _ => ServerRequest::Query(queries.q5(25 * 60, &mut rng), bpb),
            })
            .collect(),
        // 70 % point, 20 % Q1, 10 % 8-query BPB batch.
        Workload::WirePoints => (0..STREAM_LEN)
            .map(|i| match i % 10 {
                2 | 7 => ServerRequest::Query(queries.q1(30 * 60, &mut rng), ebpb),
                9 => {
                    let batch = (0..8)
                        .map(|j| match j % 2 {
                            0 => queries.q1_point(&mut rng),
                            _ => queries.q1(20 * 60, &mut rng),
                        })
                        .collect();
                    ServerRequest::Batch(batch, bpb)
                }
                _ => ServerRequest::Query(queries.q1_point(&mut rng), ebpb),
            })
            .collect(),
        // Alternating: a point inside one pre-ingested epoch, then a Q1
        // range straddling the boundary of two adjacent epochs — which
        // `shard_of_epoch` places on different shards (checked in
        // `deploy.rs`).
        Workload::RoutedIngest => (0..STREAM_LEN)
            .map(|i| {
                use rand::Rng;
                if i % 2 == 0 {
                    let epoch = rng.gen_range(0..ROUTED_EPOCHS) * ROUTED_EPOCH;
                    let q = queries.q1_point(&mut rng);
                    ServerRequest::Query(shift(q, epoch), ebpb)
                } else {
                    let boundary = rng.gen_range(1..ROUTED_EPOCHS) * ROUTED_EPOCH;
                    let location = rng.gen_range(0..queries.locations);
                    let q = Query::count()
                        .at_dims([location])
                        .between(boundary - 15 * 60, boundary + 15 * 60 - 1);
                    ServerRequest::Query(q, ebpb)
                }
            })
            .collect(),
    }
}

/// Move a point query generated over `[0, epoch)` into the epoch starting
/// at `offset`.
fn shift(mut query: Query, offset: u64) -> Query {
    if let Predicate::Point { time, .. } = &mut query.predicate {
        *time += offset;
    }
    query
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::demo_workload;

    #[test]
    fn streams_repeat_for_equal_seed_and_differ_across_seeds() {
        let queries = demo_workload(DEMO_HOURS);
        for workload in Workload::ALL {
            let a = request_stream(workload, 11, 0, &queries);
            assert_eq!(a, request_stream(workload, 11, 0, &queries), "{workload:?}");
            assert_ne!(a, request_stream(workload, 12, 0, &queries), "{workload:?}");
            assert_ne!(a, request_stream(workload, 11, 1, &queries), "{workload:?}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn mixes_have_the_documented_shares() {
        let queries = demo_workload(DEMO_HOURS);
        let warm = request_stream(Workload::WarmBatch, 3, 0, &queries);
        assert_eq!(warm.len(), WARM_BATCHES);
        assert!(warm.iter().all(|r| r.query_count() == WARM_BATCH_LEN));
        let wire = request_stream(Workload::WirePoints, 3, 0, &queries);
        let batches = wire
            .iter()
            .filter(|r| matches!(r, ServerRequest::Batch(..)))
            .count();
        assert_eq!(batches, STREAM_LEN / 10);
        let routed = request_stream(Workload::RoutedIngest, 3, 0, &queries);
        let spanning = routed
            .iter()
            .filter(|r| match r {
                ServerRequest::Query(q, _) => {
                    let (start, end) = q.predicate.time_span();
                    start / ROUTED_EPOCH != end / ROUTED_EPOCH
                }
                ServerRequest::Batch(..) => false,
            })
            .count();
        assert_eq!(spanning, STREAM_LEN / 2);
    }
}
