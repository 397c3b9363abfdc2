//! Batch execution: plan every query, fetch and verify the union of their
//! `(epoch, bin)` pairs once, and fold each bin into the partials of the
//! queries that planned it — sequentially or on a scoped thread pool.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use concealer_storage::{AccessEvent, AccessObserver};
use parking_lot::Mutex;

use super::plan::PartialBinPlan;
use super::{
    bump_phase, merge_partials, scope_for_query, EpochPartial, EpochRuntime, PlanMemo, QueryEngine,
    RangeMethod, UserHandle,
};
use crate::api::ExecOptions;
use crate::bin_cache::BinEntry;
use crate::query::{Query, QueryAnswer};
use crate::Result;

/// The partial of `epoch_id` in a plan-seeded (ascending) partial list.
fn part_of(parts: &mut [EpochPartial], epoch_id: u64) -> &mut EpochPartial {
    let idx = parts
        .binary_search_by_key(&epoch_id, |p| p.epoch_id)
        .expect("planned bins lie in touched epochs");
    &mut parts[idx]
}

/// Cap the requested worker count at the host's hardware thread count.
///
/// Workers that cannot run concurrently only add spawn and scheduling
/// overhead — on a single-core host a "parallel" batch is strictly slower
/// than the sequential loop while producing the identical answers and
/// trace, so the parallelism knob must never cost throughput there.
/// Setting `CONCEALER_FORCE_THREADS=1` keeps the requested count; the
/// trace-equality and stress tests use it so the pool machinery is
/// exercised even on single-core CI hosts.
fn effective_workers(requested: usize) -> usize {
    if std::env::var_os("CONCEALER_FORCE_THREADS").is_some_and(|v| v != "0") {
        return requested;
    }
    let hw = std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
    requested.min(hw)
}

impl QueryEngine {
    /// Execute a batch of queries with cross-query bin deduplication: each
    /// query's answer is [`merge_partials`] over its
    /// [`QueryEngine::execute_batch_partials`] partials.
    ///
    /// Under the bin-granular BPB method the engine plans every query,
    /// takes the union of the `(epoch, bin)` fetches, fetches and
    /// hash-chain-verifies each bin **once**, then filters and aggregates
    /// the fetched rows per query — fixed-size bins are the unit of
    /// deduplication.
    ///
    /// Leakage: the set of rows the adversary observes is exactly the
    /// *union* of the per-query row sets of sequential execution — each bin
    /// is still fetched whole, so per-bin fetch sizes are unchanged and
    /// batching reveals nothing a sequential execution of the same queries
    /// would not (it only *removes* duplicate fetches). Per-query answers,
    /// including the fetch metadata, equal sequential BPB execution.
    ///
    /// Batches with any other configuration fall back to executing the
    /// queries sequentially, preserving the configured profile exactly:
    ///
    /// * `opts.method` = `Ebpb` / `WinSecRange` — those methods fetch
    ///   cell-groups and whole intervals, not bins; silently re-planning
    ///   them at bin granularity would change the access pattern the
    ///   caller chose (winSecRange exists to resist sliding-window
    ///   attacks, Example 5.2.2).
    /// * `opts.forward_private` — the §6 protocol re-encrypts fetched bins
    ///   after every query, so deduplicating fetches across queries would
    ///   change its semantics.
    ///
    /// With `opts.parallelism > 1`, dedup-eligible batches run their
    /// fetch+verify stage and their per-query filter/aggregate stage on a
    /// scoped thread pool. Parallel execution is **observably identical**
    /// to sequential execution: answers (including fetch metadata) are
    /// bit-identical, and every worker records storage accesses into a
    /// task-local buffer that is merged into the shared observer in
    /// ascending `(epoch, bin)` order — the order the sequential loop
    /// fetches in — so even the event-level trace matches. The fallback
    /// configurations above ignore the knob entirely and stay sequential:
    /// interleaving their fetches across threads would observably reorder
    /// the access pattern the caller configured.
    pub fn execute_batch(
        &self,
        user: &UserHandle,
        queries: &[Query],
        opts: ExecOptions,
    ) -> Vec<Result<QueryAnswer>> {
        if opts.forward_private || opts.method != RangeMethod::Bpb {
            return queries
                .iter()
                .map(|q| self.execute(user, q, opts, scope_for_query(q)))
                .collect();
        }
        let partials = self.execute_batch_partials(user, queries, opts);
        let assemble_start = Instant::now();
        let out = queries
            .iter()
            .zip(partials)
            .map(|(query, partials)| merge_partials(query, partials?))
            .collect();
        bump_phase(&self.phases.aggregate_ns, assemble_start);
        out
    }

    /// Run a batch over only the epochs this process holds, returning each
    /// query's per-epoch partials — the batch pipeline itself, which
    /// [`QueryEngine::execute_batch`] finishes with a per-query merge and a
    /// router finishes after the partials crossed the wire.
    ///
    /// Every `(epoch, bin)` pair the batch needs from this process's slice
    /// is fetched and hash-chain-verified once, then filtered per query by
    /// one of two stage executors — the sequential bin-major loop, or the
    /// two-stage pool when `opts.parallelism > 1` — with identical
    /// partials and an identical event-level trace either way. eBPB /
    /// winSecRange batches fall back to sequential per-query partial
    /// execution, and forward-private batches are refused per query, both
    /// mirroring [`QueryEngine::execute_batch`]'s fallback rules.
    pub fn execute_batch_partials(
        &self,
        user: &UserHandle,
        queries: &[Query],
        opts: ExecOptions,
    ) -> Vec<Result<Vec<EpochPartial>>> {
        if opts.forward_private || opts.method != RangeMethod::Bpb {
            return queries
                .iter()
                .map(|q| self.execute_partials(user, q, opts, scope_for_query(q)))
                .collect();
        }

        let plan_start = Instant::now();
        let mut epochs = self.epochs.write();
        let plans: Vec<Result<PartialBinPlan>> = queries
            .iter()
            .map(|query| {
                self.enclave.open_session(
                    user.user_id,
                    &user.credential,
                    scope_for_query(query),
                )?;
                self.plan_query_bins(&mut epochs, query, &opts)
            })
            .collect();

        // The union of every query's fetch set, ascending: each pair
        // fetched once, in deterministic order.
        let union: Vec<(u64, usize)> = plans
            .iter()
            .flatten()
            .flat_map(|p| &p.bins)
            .copied()
            .collect::<BTreeSet<(u64, usize)>>()
            .into_iter()
            .collect();

        // Planning needed `&mut` (lazy super-bin plans); execution only
        // reads, so downgrade to a read guard: batches from different
        // sessions, point queries and ingest registration all proceed
        // concurrently with the fetch/aggregate stages. Across the guard
        // swap the registry can only grow — epochs are never removed
        // (re-shipping an epoch concurrently with querying it is outside
        // the deployment model, which appends epochs) — and
        // `fetch_bin_rows` re-derives each bin's round key at fetch time,
        // so the plans stay valid.
        drop(epochs);
        let epochs = self.epochs.read();
        bump_phase(&self.phases.aggregate_ns, plan_start);

        let workers = effective_workers(opts.parallelism).min(union.len());
        let results = if workers > 1 {
            self.execute_union_parallel(&epochs, queries, &opts, &union, workers, &plans)
        } else {
            self.execute_union_sequential(&epochs, queries, &opts, &union, &plans)
        };
        self.store.mark_query_boundary();
        results
    }

    /// The sequential stage executor (and the reference the parallel tests
    /// compare against): fetch each `(epoch, bin)` of `union` once, in
    /// ascending order, and fold it into the partials of every query that
    /// planned it. A failing bin — fetch error (integrity violation,
    /// storage fault, …) or processing error — fails every query that
    /// needed it with that error; a failed query's remaining bins are no
    /// longer processed, so the *first* error is the one reported.
    fn execute_union_sequential(
        &self,
        epochs: &BTreeMap<u64, EpochRuntime>,
        queries: &[Query],
        opts: &ExecOptions,
        union: &[(u64, usize)],
        plans: &[Result<PartialBinPlan>],
    ) -> Vec<Result<Vec<EpochPartial>>> {
        let mut results: Vec<Result<Vec<EpochPartial>>> = plans
            .iter()
            .map(|plan| {
                plan.as_ref()
                    .map(PartialBinPlan::seed)
                    .map_err(Clone::clone)
            })
            .collect();
        let mut memos: Vec<PlanMemo> = queries.iter().map(|_| PlanMemo::new()).collect();

        for pair @ &(epoch_id, bin_idx) in union {
            let rt = epochs.get(&epoch_id).expect("planned epoch is registered");
            let fetch = self.fetch_bin_rows(&self.store, rt, bin_idx, opts);
            for (i, plan) in plans.iter().enumerate() {
                let (Ok(plan), Ok(parts)) = (plan, &mut results[i]) else {
                    continue;
                };
                if !plan.bins.contains(pair) {
                    continue;
                }
                let part = part_of(parts, epoch_id);
                let folded = match &fetch {
                    Ok(entry) => self.fold_entry(rt, entry, &queries[i], opts, part, &mut memos[i]),
                    Err(e) => Err(e.clone()),
                };
                if let Err(e) = folded {
                    results[i] = Err(e);
                }
            }
        }
        results
    }

    /// The parallel stage executor: stage 1 fetches and
    /// hash-chain-verifies every `(epoch, bin)` of `union` once across the
    /// pool, in per-worker *chunks* (contiguous slices of the union, sized
    /// by `opts.fetch_chunk`, default one chunk per worker) so task-queue
    /// traffic is per-chunk rather than per-bin; stage 2 filters and
    /// aggregates each query's bins in ascending bin order (the sequential
    /// order) from the shared fetch results. Both stages run on a **single**
    /// scope: [`rayon::Scope::quiesce`] is the barrier between them, so the
    /// pool's threads are spawned (and joined) once per batch, not once per
    /// stage.
    ///
    /// Each chunk task records storage accesses into a task-local observer;
    /// the buffers are concatenated in `union` order and appended to the
    /// shared observer atomically, so the adversary-visible trace is
    /// event-for-event identical to the sequential loop.
    fn execute_union_parallel(
        &self,
        epochs: &BTreeMap<u64, EpochRuntime>,
        queries: &[Query],
        opts: &ExecOptions,
        union: &[(u64, usize)],
        workers: usize,
        plans: &[Result<PartialBinPlan>],
    ) -> Vec<Result<Vec<EpochPartial>>> {
        // A session or planning error is the query's result; stage 2 fills
        // the rest.
        let mut results: Vec<Result<Vec<EpochPartial>>> = plans
            .iter()
            .map(|plan| plan.as_ref().map(|_| Vec::new()).map_err(Clone::clone))
            .collect();

        // The calling thread participates in draining the pool's queue, so
        // spawn one fewer worker than the requested parallelism: `workers`
        // threads execute in total, matching the knob's documentation.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers - 1)
            .build()
            .expect("the threadpool shim never fails to build");

        // `fetch_chunk == 0` means auto: slice the union evenly, one chunk
        // per worker, so stage 1 enqueues exactly `workers` tasks.
        let chunk_size = if opts.fetch_chunk == 0 {
            union.len().div_ceil(workers)
        } else {
            opts.fetch_chunk
        }
        .max(1);

        // One result slot per union bin (chunk tasks fill disjoint slices)
        // and one event buffer per chunk, merged in chunk order below.
        let fetches: Vec<OnceLock<Result<Arc<BinEntry>>>> =
            union.iter().map(|_| OnceLock::new()).collect();
        let buffers: Vec<Mutex<Vec<AccessEvent>>> = union
            .chunks(chunk_size)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let fetches = &fetches;
        let buffers = &buffers;

        pool.scope(|s| {
            // Stage 1: fetch + verify each union bin exactly once, one task
            // per chunk. Each task reuses one observer for its whole chunk.
            for (chunk_idx, chunk) in union.chunks(chunk_size).enumerate() {
                s.spawn(move |_| {
                    let local = AccessObserver::new();
                    let store = self.store.observed_by(local.clone());
                    for (offset, &(epoch_id, bin_idx)) in chunk.iter().enumerate() {
                        let rt = epochs.get(&epoch_id).expect("planned epoch is registered");
                        let result = self.fetch_bin_rows(&store, rt, bin_idx, opts);
                        let slot = chunk_idx * chunk_size + offset;
                        assert!(
                            fetches[slot].set(result).is_ok(),
                            "each union slot is filled exactly once"
                        );
                    }
                    *buffers[chunk_idx].lock() = local.take_events();
                });
            }

            // Barrier: wait for stage 1 without tearing the pool down.
            s.quiesce();

            // Deterministic merge: chunk buffers in ascending (epoch, bin)
            // order — the exact order the sequential loop records in —
            // under a single observer lock acquisition.
            let merged: Vec<AccessEvent> = buffers
                .iter()
                .flat_map(|b| std::mem::take(&mut *b.lock()))
                .collect();
            self.store.observer().record_batch(merged);

            // Stage 2: per-query filter/aggregate over the shared fetch
            // results, on the same still-open scope.
            for ((result, plan), query) in results.iter_mut().zip(plans).zip(queries) {
                let Ok(plan) = plan else {
                    continue;
                };
                s.spawn(move |_| {
                    *result =
                        self.aggregate_planned_query(epochs, union, fetches, plan, query, opts);
                });
            }
        });
        results
    }

    /// Filter and aggregate one planned query from the batch's shared fetch
    /// results, visiting its bins in ascending order so accumulator merges
    /// (and therefore collected-row order) match the sequential loop. The
    /// first failing bin — fetch error or processing error — determines the
    /// query's error, as in the sequential loop.
    fn aggregate_planned_query(
        &self,
        epochs: &BTreeMap<u64, EpochRuntime>,
        union: &[(u64, usize)],
        fetches: &[OnceLock<Result<Arc<BinEntry>>>],
        plan: &PartialBinPlan,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<Vec<EpochPartial>> {
        let mut parts = plan.seed();
        let mut memo = PlanMemo::new();
        for pair in &plan.bins {
            let idx = union
                .binary_search(pair)
                .expect("every planned bin is in the union");
            let entry = match fetches[idx].get().expect("stage 1 filled every slot") {
                Ok(entry) => entry,
                Err(e) => return Err(e.clone()),
            };
            let rt = epochs.get(&pair.0).expect("planned epoch is registered");
            let part = part_of(&mut parts, pair.0);
            self.fold_entry(rt, entry, query, opts, part, &mut memo)?;
        }
        Ok(parts)
    }
}
