//! Batch execution: plan every query, fetch and verify the union of their
//! `(epoch, bin)` pairs once, and fold each bin into the partials of the
//! queries that planned it — sequentially or on scoped threads.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use concealer_storage::AccessObserver;

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

/// Run `job(0)` on the calling thread beside `job(1)`, …, `job(threads - 1)`
/// on scoped threads of their own, and return the results in index order.
/// A panicking job resurfaces here once every thread has finished.
fn on_threads<T: Send>(threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let job = &job;
        let spawned: Vec<_> = (1..threads).map(|i| scope.spawn(move || job(i))).collect();
        let mut out = vec![job(0)];
        out.extend(spawned.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        out
    })
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
    /// fetch+verify stage and their per-query filter/aggregate stage on
    /// that many threads (the caller's among them, never more than the
    /// union has bins). Parallel execution is **observably identical**
    /// to sequential execution: answers (including fetch metadata) are
    /// bit-identical, and every thread records storage accesses into a
    /// buffer of its own that is merged into the shared observer in
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
    /// two threaded stages when `opts.parallelism > 1` — with identical
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

        let workers = opts.parallelism.min(union.len());
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

    /// The parallel stage executor, on [`std::thread::scope`]: `workers`
    /// threads in total, the calling thread among them, and no queue.
    ///
    /// Stage 1 cuts `union` into at most `workers` contiguous slices; each
    /// thread fetches and hash-chain-verifies its slice, recording storage
    /// accesses into an observer of its own. Joined in slice order — which
    /// is ascending `(epoch, bin)` order, the order the sequential loop
    /// fetches in — the per-slice event buffers are appended to the shared
    /// observer in one call, so the adversary-visible trace is
    /// event-for-event identical to sequential execution.
    ///
    /// Stage 2 filters and aggregates per query over the shared fetch
    /// results: threads claim query indices from one atomic cursor until
    /// none are left. A session or planning error is the query's result
    /// and never reaches stage 2.
    fn execute_union_parallel(
        &self,
        epochs: &BTreeMap<u64, EpochRuntime>,
        queries: &[Query],
        opts: &ExecOptions,
        union: &[(u64, usize)],
        workers: usize,
        plans: &[Result<PartialBinPlan>],
    ) -> Vec<Result<Vec<EpochPartial>>> {
        let slices: Vec<&[(u64, usize)]> = union.chunks(union.len().div_ceil(workers)).collect();
        let fetch_slice = |w: usize| {
            let local = AccessObserver::new();
            // A served system keeps no trace: then neither do its tasks.
            local.set_recording(self.store.observer().is_recording());
            let store = self.store.observed_by(local.clone());
            let fetched: Vec<Result<Arc<BinEntry>>> = slices[w]
                .iter()
                .map(|&(epoch_id, bin_idx)| {
                    let rt = epochs.get(&epoch_id).expect("planned epoch is registered");
                    self.fetch_bin_rows(&store, rt, bin_idx, opts)
                })
                .collect();
            (fetched, local.take_events())
        };
        let mut fetches = Vec::with_capacity(union.len());
        let mut events = Vec::new();
        for (fetched, recorded) in on_threads(slices.len(), fetch_slice) {
            fetches.extend(fetched);
            events.extend(recorded);
        }
        self.store.observer().record_batch(events);

        let mut results: Vec<Result<Vec<EpochPartial>>> = plans
            .iter()
            .map(|plan| plan.as_ref().map(|_| Vec::new()).map_err(Clone::clone))
            .collect();
        let cursor = AtomicUsize::new(0);
        let claim_queries = |_| {
            std::iter::from_fn(|| {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                plans.get(i).map(|plan| (i, plan))
            })
            .filter_map(|(i, plan)| {
                let plan = plan.as_ref().ok()?;
                let query = &queries[i];
                let partials =
                    self.aggregate_planned_query(epochs, union, &fetches, plan, query, opts);
                Some((i, partials))
            })
            .collect::<Vec<_>>()
        };
        let aggregated = on_threads(workers.min(queries.len()), claim_queries);
        for (i, result) in aggregated.into_iter().flatten() {
            results[i] = result;
        }
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
        fetches: &[Result<Arc<BinEntry>>],
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
            let entry = fetches[idx].as_ref().map_err(Clone::clone)?;
            let rt = epochs.get(&pair.0).expect("planned epoch is registered");
            let part = part_of(&mut parts, pair.0);
            self.fold_entry(rt, entry, query, opts, part, &mut memo)?;
        }
        Ok(parts)
    }
}
