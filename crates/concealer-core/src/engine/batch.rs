//! Batch execution — every query runs here, a single one as the batch of
//! one: plan every query, fetch and verify the union of their
//! `(epoch, unit)` pairs once, and fold each unit into the partials of the
//! queries that planned it — one stage executor on `w` scoped threads, the
//! calling thread among them — and, after a multi-round §6 range,
//! re-encrypt what it fetched and commit once per epoch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use concealer_crypto::EpochId;
use concealer_storage::{AccessObserver, EpochStore};

use super::plan::{FetchUnit, QueryPlan};
use super::{
    bump_phase, merge_partials, EpochPartial, EpochRuntime, PlanMemo, QueryEngine, UserHandle,
};
use crate::api::ExecOptions;
use crate::bin_cache::BinEntry;
use crate::dynamic;
use crate::query::{Predicate, Query, QueryAnswer};
use crate::{unpoisoned, CoreError, Result};

/// Stage 1's results: one per unit of the union, in union order.
type Fetches = Vec<Result<Arc<BinEntry>>>;

/// The partial of `epoch_id` in a plan-seeded (ascending) partial list.
fn part_of(parts: &mut [EpochPartial], epoch_id: u64) -> &mut EpochPartial {
    let idx = parts
        .binary_search_by_key(&epoch_id, |p| p.epoch_id)
        .expect("planned units lie in touched epochs");
    &mut parts[idx]
}

/// Run `job(0)` on the calling thread beside `job(1)`, …, `job(threads - 1)`
/// on scoped threads of their own, and return the results in index order;
/// `threads ≤ 1` runs `job(0)` alone and spawns nothing. A panicking job
/// resurfaces here once every thread has finished.
fn on_threads<T: Send>(threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 {
        return vec![job(0)];
    }
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
    /// Execute a batch of queries with cross-query deduplication: each
    /// query's answer is [`merge_partials`] over its per-epoch partials.
    ///
    /// The engine plans every query into fixed fetch units — a BPB bin, a
    /// point's bin, or one eBPB / winSecRange cell-group of one round with
    /// its fakes — takes the union of the `(epoch, unit)` fetches, fetches
    /// and hash-chain-verifies each unit **once**, then filters and
    /// aggregates the fetched rows per query. A single
    /// [`QueryEngine::execute`] is the batch of one.
    ///
    /// Leakage: the set of rows the adversary observes is exactly the
    /// *union* of the per-query row sets of sequential execution — each
    /// unit is still fetched whole, so per-unit fetch sizes are unchanged
    /// and batching reveals nothing a sequential execution of the same
    /// queries would not (it only *removes* duplicate fetches). Per-query
    /// answers, including the fetch metadata, equal sequential execution.
    ///
    /// A multi-round forward-private (§6) range adds its cover bins to the
    /// union, and a third stage re-encrypts what was fetched for such
    /// ranges and commits once per epoch: a bin two of them share is
    /// fetched once and rewritten once.
    ///
    /// Every batch runs its fetch+verify stage and its per-query
    /// filter/aggregate stage on `opts.parallelism` threads (the caller's
    /// among them, at least one, never more than the union has units).
    /// The worker count is **unobservable**: answers (including fetch
    /// metadata) are bit-identical at every count, and every
    /// thread records storage accesses into a buffer of its own that is
    /// merged into the shared observer in ascending `(epoch, unit)` order,
    /// so even the event-level trace is the same at every count.
    pub fn execute_batch(
        &self,
        user: &UserHandle,
        queries: &[Query],
        opts: ExecOptions,
    ) -> Vec<Result<QueryAnswer>> {
        let partials = self.run_batch(user, queries, &opts, true);
        self.store.mark_query_boundary();
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
    /// Every `(epoch, unit)` pair the batch needs from this process's slice
    /// is fetched and hash-chain-verified once, then filtered per query, by
    /// the two stages of one executor on `opts.parallelism` workers — with
    /// identical partials and an identical event-level trace at every
    /// worker count. A batch that needs nothing here fetches nothing.
    /// Forward-private batches are refused per query, as
    /// [`QueryEngine::execute_partials`] refuses them.
    pub fn execute_batch_partials(
        &self,
        user: &UserHandle,
        queries: &[Query],
        opts: ExecOptions,
    ) -> Vec<Result<Vec<EpochPartial>>> {
        let results = self.run_batch(user, queries, &opts, false);
        self.store.mark_query_boundary();
        results
    }

    /// Authorize, plan and execute `queries` under one guard of the epoch
    /// registry, marking no boundary. Planning needs no write access: the
    /// lazily built plans live behind a lock of their own in each epoch
    /// runtime, never held across a fetch. So a batch without a
    /// forward-private range, and every single point, runs under the
    /// **read** guard, beside other queries and ingest registration. The
    /// partial entry points pass `section_6 = false` and refuse
    /// forward-private queries.
    ///
    /// A batch holding a forward-private range takes the write guard,
    /// which stage 3 needs to advance round counters and tags, when the
    /// process holds several epochs (on one, it rewrites nothing). A lone
    /// range also holds it. Nothing in it needs the guard; it is kept because the
    /// benchmark's `peak_rss_mb` grows with every request its harness
    /// records (ROADMAP item 0). Run beside other queries, lone ranges let
    /// `wire_points` answer ≈40 % more requests on 2 vCPUs, and that
    /// metric then rises ≈30 %, past its 25 % bound.
    pub(super) fn run_batch(
        &self,
        user: &UserHandle,
        queries: &[Query],
        opts: &ExecOptions,
        section_6: bool,
    ) -> Vec<Result<Vec<EpochPartial>>> {
        let plan_start = Instant::now();
        let ranges = queries
            .iter()
            .any(|query| matches!(query.predicate, Predicate::Range { .. }));
        // Registration only adds epochs: more than one under the read
        // guard is more than one under the write guard.
        let mut shared = (!ranges || queries.len() > 1).then(|| unpoisoned(self.epochs.read()));
        let write = (shared.as_ref())
            .is_none_or(|epochs| ranges && opts.forward_private && epochs.len() > 1);
        let mut exclusive = write.then(|| {
            shared = None;
            unpoisoned(self.epochs.write())
        });
        let epochs = exclusive
            .as_deref()
            .or(shared.as_deref())
            .expect("one guard");
        let plans: Vec<Result<QueryPlan>> = queries
            .iter()
            .map(|query| {
                self.authorize(user, query)?;
                if opts.forward_private && !section_6 {
                    return Err(CoreError::InvalidConfig {
                        reason: "forward-private (§6) executions re-encrypt spanning rounds \
                                 and cannot be partitioned into per-epoch partials"
                            .to_string(),
                    });
                }
                self.plan_query_bins(epochs, query, opts)
            })
            .collect();

        // The union of every query's fetch set, ascending: each unit
        // fetched once, in deterministic order.
        let mut union: Vec<&(u64, FetchUnit)> = plans
            .iter()
            .flatten()
            .flat_map(QueryPlan::fetched)
            .collect();
        union.sort_unstable();
        union.dedup();
        bump_phase(&self.phases.aggregate_ns, plan_start);

        // One worker per unit at most, and the calling thread at least: an
        // empty union (no queries, or none over this process's epochs) is
        // one worker with an empty slice, which fetches nothing.
        let workers = opts.parallelism.min(union.len()).max(1);
        let (fetches, mut results) =
            self.execute_union(epochs, queries, opts, &union, workers, &plans);
        if let Some(epochs) = exclusive.as_deref_mut() {
            self.rewrite_fetched(epochs, &plans, &union, &fetches, &mut results);
        }
        results
    }

    /// The stage executor, on [`std::thread::scope`]: `workers` threads in
    /// total, the calling thread among them (at `workers = 1` the only
    /// one — nothing is spawned), and no queue.
    ///
    /// Stage 1 cuts `union` into `workers` contiguous slices; each thread
    /// fetches and hash-chain-verifies its slice. The calling thread's
    /// slice comes first in `(epoch, unit)` order, so it records storage
    /// accesses straight into the shared observer; every other thread
    /// records into an observer of its own, appended after the join in
    /// slice order. The adversary-visible trace is therefore
    /// event-for-event the same at every worker count. A failing unit
    /// fails every query that planned it, and stops no other fetch.
    ///
    /// Stage 2 filters and aggregates per query over the shared fetch
    /// results: threads claim query indices from one atomic cursor until
    /// none are left. An authorization or planning error is the query's
    /// result and never reaches stage 2. Returns the fetch results, in
    /// `union` order, beside the per-query results.
    fn execute_union(
        &self,
        epochs: &BTreeMap<u64, EpochRuntime>,
        queries: &[Query],
        opts: &ExecOptions,
        union: &[&(u64, FetchUnit)],
        workers: usize,
        plans: &[Result<QueryPlan>],
    ) -> (Fetches, Vec<Result<Vec<EpochPartial>>>) {
        let n = union.len();
        let slice = |w: usize| &union[w * n / workers..(w + 1) * n / workers];
        let fetch_slice = |w: usize| {
            let fetch = |store: &EpochStore| -> Vec<Result<Arc<BinEntry>>> {
                slice(w)
                    .iter()
                    .map(|(epoch_id, unit)| {
                        let rt = epochs.get(epoch_id).expect("planned epoch is registered");
                        self.fetch_unit(store, rt, unit, opts)
                    })
                    .collect()
            };
            if w == 0 {
                return (fetch(&self.store), None);
            }
            let local = AccessObserver::new();
            // A served system keeps no trace: then neither do its tasks.
            local.set_recording(self.store.observer().is_recording());
            (fetch(&self.store.observed_by(local.clone())), Some(local))
        };
        let mut fetches = Vec::with_capacity(union.len());
        for (fetched, recorded) in on_threads(workers, fetch_slice) {
            fetches.extend(fetched);
            if let Some(local) = recorded {
                self.store.observer().append(&local);
            }
        }

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
        (fetches, results)
    }

    /// Filter and aggregate one planned query from the batch's shared fetch
    /// results, visiting its units in ascending order so accumulator merges
    /// (and therefore collected-row order) match per-query execution, and
    /// then its §6 cover bins, whose matches are discarded. The first
    /// failing unit — fetch error (integrity violation, storage fault, …)
    /// or processing error — determines the query's error.
    fn aggregate_planned_query(
        &self,
        epochs: &BTreeMap<u64, EpochRuntime>,
        union: &[&(u64, FetchUnit)],
        fetches: &[Result<Arc<BinEntry>>],
        plan: &QueryPlan,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<Vec<EpochPartial>> {
        let mut parts = plan.seed();
        let mut memo = PlanMemo::new();
        let fetched = |pair: &(u64, FetchUnit)| {
            let idx = union
                .binary_search(&pair)
                .expect("every planned unit is in the union");
            let rt = epochs.get(&pair.0).expect("planned epoch is registered");
            fetches[idx]
                .as_ref()
                .map(|entry| (rt, entry))
                .map_err(Clone::clone)
        };
        for pair in &plan.units {
            let (rt, entry) = fetched(pair)?;
            let part = part_of(&mut parts, pair.0);
            self.fold_entry(rt, entry, query, opts, part, &mut memo)?;
        }
        for pair in plan.covers.iter().flatten() {
            let (rt, entry) = fetched(pair)?;
            let mut cover = EpochPartial::empty(pair.0, false);
            self.fold_entry(rt, entry, query, opts, &mut cover, &mut memo)?;
            let part = part_of(&mut parts, pair.0);
            part.rows_fetched += cover.rows_fetched;
            part.rows_decrypted += cover.rows_decrypted;
        }
        Ok(parts)
    }

    /// Stage 3, after a multi-round §6 range (a plan with cover bins): per
    /// touched epoch, ascending, re-encrypt every bin fetched for such a
    /// query that still succeeds, in ascending bin order, and commit them
    /// in one [`EpochStore::rewrite_bin`]. A failed re-encryption or commit
    /// fails every such query that touched the epoch, so no later epoch
    /// rewrites a bin on its behalf.
    fn rewrite_fetched(
        &self,
        epochs: &mut BTreeMap<u64, EpochRuntime>,
        plans: &[Result<QueryPlan>],
        union: &[&(u64, FetchUnit)],
        fetches: &[Result<Arc<BinEntry>>],
        results: &mut [Result<Vec<EpochPartial>>],
    ) {
        let mut touched: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, plan) in plans.iter().enumerate() {
            let section_6 = plan.iter().filter(|p| p.covers.is_some());
            for &(epoch_id, _) in section_6.flat_map(|p| &p.epochs) {
                touched.entry(epoch_id).or_default().push(i);
            }
        }
        for (epoch_id, queries) in touched {
            let queries: Vec<usize> = queries
                .into_iter()
                .filter(|&i| results[i].is_ok())
                .collect();
            let mut bins: Vec<(usize, &BinEntry)> = queries
                .iter()
                .flat_map(|&i| plans[i].iter().flat_map(QueryPlan::fetched))
                .filter(|pair| pair.0 == epoch_id)
                .map(|pair| {
                    let FetchUnit::Bin(bin_idx) = pair.1 else {
                        unreachable!("§6 plans fetch whole bins")
                    };
                    let idx = union
                        .binary_search(&pair)
                        .expect("planned units are in the union");
                    let entry = fetches[idx]
                        .as_ref()
                        .expect("a query that succeeded fetched its units");
                    (bin_idx, &**entry)
                })
                .collect();
            bins.sort_unstable_by_key(|&(bin_idx, _)| bin_idx);
            bins.dedup_by_key(|&mut (bin_idx, _)| bin_idx);
            let rt = epochs
                .get_mut(&epoch_id)
                .expect("planned epoch is registered");
            if let Err(e) = self.reencrypt_and_commit(rt, &bins) {
                for i in queries {
                    results[i] = Err(e.clone());
                }
            }
        }
    }

    /// Re-encrypt `fetched` bins of `rt` under their next round key (§6)
    /// and write rows and tags back in one store commit, then advance the
    /// bins' rounds. What is re-encrypted is what the batch fetched and
    /// verified, never a second answer from the provider: the fresh tags
    /// would vouch for whatever that answer held.
    fn reencrypt_and_commit(
        &self,
        rt: &mut EpochRuntime,
        fetched: &[(usize, &BinEntry)],
    ) -> Result<()> {
        let (mut replacements, mut tags) = (Vec::new(), Vec::new());
        let num_cell_ids = self.config.grid.num_cell_ids as usize;
        let mut rng = unpoisoned(self.rng.lock());
        for &(bin_idx, entry) in fetched {
            let new_key = self
                .enclave
                .epoch_key(EpochId(rt.epoch_id), entry.round + 1);
            let cells = &rt.bin_plan.bins[bin_idx].cell_ids;
            let out = dynamic::reencrypt_bin(
                &entry.key,
                &new_key,
                &entry.rows,
                cells,
                num_cell_ids,
                &mut *rng,
            )?;
            replacements.extend(out.replacements);
            tags.extend(out.new_tags);
        }
        drop(rng);
        // A deployment without verification keeps no tags.
        if rt.tags.is_empty() {
            tags.clear();
        }
        let updates = tags
            .iter()
            .map(|(cid, tag)| (*cid as usize, tag.clone()))
            .collect();
        let rewrote = !replacements.is_empty();
        self.store.rewrite_bin(rt.epoch_id, replacements, updates)?;
        rt.rewrites += u64::from(rewrote);
        for (cid, tag) in tags {
            rt.tags[cid as usize] = tag;
        }
        for &(bin_idx, entry) in fetched {
            rt.bin_rounds[bin_idx] = entry.round + 1;
            // Later queries miss under the new round anyway: drop the
            // superseded entry now to free enclave memory.
            self.bin_cache
                .invalidate((rt.epoch_id, bin_idx, entry.round));
        }
        Ok(())
    }
}
