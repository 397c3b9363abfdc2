//! Query execution engine.
//!
//! The engine is the code that, in the real deployment, runs inside the SGX
//! enclave at the service provider: it caches the decrypted per-epoch
//! metadata (`cell_id[]`, `c_tuple[]`, per-cell counts, verifiable tags and
//! per-bin re-encryption rounds), turns queries into fixed-size fetches via
//! the BPB / eBPB / winSecRange methods, verifies, filters and aggregates
//! the fetched tuples, and — for multi-round queries — re-encrypts what it
//! fetched to preserve forward privacy.
//!
//! There is one execution pipeline: plan every query into fixed fetch
//! units (a bin; or one eBPB / winSecRange cell-group of one round with
//! its fakes) → fetch and verify each `(epoch, unit)` once → accumulate per
//! query and per epoch into [`EpochPartial`]s → [`merge_partials`]. A
//! query is a batch of one: [`QueryEngine::execute`] and
//! [`QueryEngine::execute_partials`] run the planner and stage executor of
//! [`QueryEngine::execute_batch`] and [`QueryEngine::execute_batch_partials`]
//! on one query. The partial forms stop before the merge (the shard half
//! of multi-node serving) — one process holding every epoch is the 1-of-1
//! case. The stage executor runs on `w` scoped threads (see
//! [`ExecOptions::parallelism`]). A §6 forward-private range is a batch
//! like any other: its plan adds cover bins, and a third stage re-encrypts
//! what it fetched and commits once per epoch. All four entry points are
//! normally reached through [`crate::Session`].
//!
//! Lock discipline: planning needs no write access to the `epochs`
//! registry. The per-epoch tables a range fills on first use (super-bin
//! plans per `f`, eBPB window sizes per ℓ) sit behind a lock of their own
//! in the epoch runtime, held only while planning reads or fills them and
//! never across a fetch. Batches and single points plan and run under the
//! **read** guard, beside other queries and ingest registration. The write
//! guard is taken by [`QueryEngine::register_epoch`], by a batch holding a
//! §6 range on a process holding more than one epoch, whose third stage
//! advances round counters and tags, and — for
//! a reason outside the engine, given at `run_batch` — by a lone range
//! query.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use concealer_crypto::EpochId;
use concealer_enclave::registry::{Credential, QueryScope, UserId};
use concealer_enclave::{Enclave, SideChannelMeter};
use concealer_storage::EpochStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, RwLock};

use crate::api::ExecOptions;
use crate::bin_cache::{BinCache, BinCacheStats, DEFAULT_BIN_CACHE_CAPACITY};
use crate::bins::{fake_budget, BinPlan, WinSecPlan};
use crate::codec;
use crate::config::SystemConfig;
use crate::query::filter::FilterPlan;
use crate::query::{Accumulator, Query, QueryAnswer};
use crate::superbin::SuperBinPlan;
use crate::types::EpochWindow;
use crate::{unpoisoned, CoreError, Result};

mod batch;
mod fetch;
mod plan;

/// Which range-query execution method to use (§4.2, §5.2, §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum RangeMethod {
    /// Convert the range into point-style bin fetches (trivial method).
    Bpb,
    /// Enhanced BPB: fetch only the cell-ids covering the range, padded to
    /// the worst-case window size (leaks under sliding windows —
    /// Example 5.2.2).
    #[default]
    Ebpb,
    /// Fixed-interval bins: fetch whole pre-defined time intervals, immune
    /// to sliding-window attacks.
    WinSecRange,
}

/// Enclave-resident state for one registered epoch.
#[derive(Debug)]
struct EpochRuntime {
    epoch_id: u64,
    window: EpochWindow,
    /// `cell_id[]`: flat cell index → cell-id.
    cell_assignment: Vec<u32>,
    /// Per-flat-cell tuple counts (eBPB metadata).
    cell_counts: Vec<u32>,
    /// `c_tuple[]`: cell-id → tuple count.
    c_tuple: Vec<u32>,
    /// `#max`: the largest entry of `c_tuple[]` (the provider's
    /// `max_cell_id_load`), what an oblivious fetch pads every cell-id to.
    max_cell_id_load: u32,
    /// cell-id → number of grid cells assigned to it (super-bin weights).
    cells_per_cell_id: Vec<u32>,
    /// The epoch's [`fake_budget`], derived from the metadata above: every
    /// fake index a fetch requests lies below it.
    total_fakes: u64,
    /// Cached verifiable tags (encrypted), one per cell-id; empty when the
    /// data provider skipped verification.
    tags: Vec<Vec<u8>>,
    /// The BPB bin plan.
    bin_plan: BinPlan,
    /// Per-bin re-encryption round counters (the §6 meta-index).
    bin_rounds: Vec<u64>,
    /// The store's rewrite count as of registration and this engine's own
    /// §6 commits since: a stored count past it is another process's.
    rewrites: u64,
    /// Plans whose key a request chooses, built on first use. Planning
    /// holds this lock only while it reads or fills a table, never across
    /// a fetch.
    lazy: Mutex<LazyPlans>,
    /// The winSecRange interval plan.
    winsec: WinSecPlan,
}

/// The per-epoch tables a range fills on first use: their keys are chosen
/// per request, so they cannot be built at registration.
#[derive(Debug, Default)]
struct LazyPlans {
    /// Super-bin plans, keyed by the clamped `f`.
    superbin_plans: HashMap<usize, SuperBinPlan>,
    /// eBPB worst-case window sizes, keyed by window length ℓ.
    ebpb_sizes: HashMap<u64, u64>,
}

/// Diagnostics for one epoch's query plans, exposed by
/// [`QueryEngine::plan_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStats {
    /// The epoch the statistics describe.
    pub epoch_id: u64,
    /// Number of BPB bins.
    pub num_bins: usize,
    /// Common bin size (tuples fetched per bin retrieval).
    pub bin_size: u64,
    /// winSecRange interval diagnostics.
    pub winsec: WinSecStats,
}

/// winSecRange plan diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WinSecStats {
    /// Number of fixed intervals the epoch is divided into.
    pub num_intervals: usize,
    /// Common (maximum) interval size in tuples — every interval retrieval
    /// transfers this many rows.
    pub interval_size: u64,
    /// Interval length in grid time rows (λ).
    pub rows_per_interval: u64,
    /// Real tuples per interval (before fake padding to `interval_size`).
    pub real_tuples_per_interval: Vec<u64>,
}

/// A user's handle on the system: their id and credential, as issued by the
/// data provider at registration time.
#[derive(Debug, Clone)]
pub struct UserHandle {
    /// The registered user id.
    pub user_id: UserId,
    /// The credential issued by the data provider.
    pub credential: Credential,
}

/// One epoch's contribution to a query answer, produced by
/// [`QueryEngine::execute_partials`] on the process that owns the epoch and
/// recombined — possibly on another machine — by [`merge_partials`].
///
/// A partial carries the *unfinished* aggregation state
/// ([`Accumulator`]) rather than a finished [`QueryAnswer`]: finishing is
/// not mergeable (an average collapses `sum`/`count` into one float; row
/// collections lose their epoch grouping), but accumulators merge
/// associatively, so recombining per-epoch partials in ascending epoch
/// order reproduces the exact accumulator-merge sequence — and therefore
/// the bit-identical answer — whichever processes produced them.
#[derive(Debug, Clone)]
pub struct EpochPartial {
    /// The epoch this partial covers (epoch ids are epoch start times).
    pub epoch_id: u64,
    /// The epoch's aggregation state: every matching tuple of this epoch
    /// folded in ascending bin order.
    pub acc: Accumulator,
    /// Encrypted rows fetched from this epoch's segments.
    pub rows_fetched: usize,
    /// Rows the enclave decrypted while filtering this epoch.
    pub rows_decrypted: usize,
    /// Whether hash-chain verification ran for this epoch's fetches.
    pub verified: bool,
}

impl EpochPartial {
    /// The partial of a touched epoch before any of its rows are folded
    /// in. An epoch whose fetched rows all miss the query still yields one:
    /// it counts toward `epochs_touched` and ANDs into `verified`.
    fn empty(epoch_id: u64, verified: bool) -> Self {
        EpochPartial {
            epoch_id,
            acc: Accumulator::default(),
            rows_fetched: 0,
            rows_decrypted: 0,
            verified,
        }
    }
}

/// Recombine per-epoch partials into the answer of `query` over their
/// epochs. This is the last step of **every** execution: one process
/// holding every epoch is the 1-of-1 case ([`QueryEngine::execute`] merges
/// its own partials), a sharded deployment merges partials that crossed
/// the wire.
///
/// Partials may arrive from different shard processes in any order; they
/// are sorted by epoch id so accumulator merges (and therefore collected
/// row order) follow ascending epochs. The caller must supply at most one
/// partial per epoch — epoch ownership is a partition, so a correctly
/// sharded deployment can never produce duplicates.
///
/// An empty partial set means no epoch overlapped the query, which is the
/// [`CoreError::NoDataForRange`] condition.
pub fn merge_partials(query: &Query, mut partials: Vec<EpochPartial>) -> Result<QueryAnswer> {
    if partials.is_empty() {
        return Err(CoreError::NoDataForRange);
    }
    partials.sort_by_key(|p| p.epoch_id);
    let epochs_touched = partials.len();
    let mut acc = Accumulator::default();
    let mut rows_fetched = 0usize;
    let mut rows_decrypted = 0usize;
    let mut verified = true;
    for partial in partials {
        acc.merge(partial.acc);
        rows_fetched += partial.rows_fetched;
        rows_decrypted += partial.rows_decrypted;
        verified &= partial.verified;
    }
    Ok(QueryAnswer {
        value: acc.finish(&query.aggregate),
        rows_fetched,
        rows_decrypted,
        verified,
        epochs_touched,
    })
}

/// Per-execution filter-plan memo, keyed by `(epoch_id, round)`: one query's
/// plan against a given round key is built once and reused for every bin
/// encrypted under that key. Local to one query execution — plans are
/// query-specific, so nothing is shared across queries.
type PlanMemo = HashMap<(u64, u64), FilterPlan>;

/// Wall-clock phase accumulators (nanoseconds), shared across worker
/// threads. The buckets overlap deliberately coarse-grained work — they
/// need not sum to total batch time — but their *ratios* show where an
/// execution spends its time (see [`PhaseBreakdown`]).
#[derive(Debug, Default)]
struct PhaseTimers {
    fetch_ns: AtomicU64,
    decrypt_ns: AtomicU64,
    verify_ns: AtomicU64,
    aggregate_ns: AtomicU64,
}

/// Snapshot of the engine's per-phase wall-clock accumulators, exposed by
/// [`QueryEngine::phase_breakdown`]. All values are cumulative nanoseconds
/// since construction (callers difference two snapshots). Parallel
/// executions accumulate each worker's time, so totals can exceed
/// wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// Trapdoor generation, store fetches, and warm-cache replay fetches.
    pub fetch_ns: u64,
    /// Filter/aggregate passes over fetched rows (incl. payload decryption
    /// and filter-plan construction).
    pub decrypt_ns: u64,
    /// Hash-chain verification of fetched bins.
    pub verify_ns: u64,
    /// Batch planning and answer assembly.
    pub aggregate_ns: u64,
}

/// Add the elapsed time since `start` to a phase accumulator.
fn bump_phase(counter: &AtomicU64, start: Instant) {
    // Saturating at u64::MAX nanoseconds (~584 years) is fine.
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

/// The enclave-side query engine.
pub struct QueryEngine {
    config: SystemConfig,
    enclave: Enclave,
    store: EpochStore,
    epochs: RwLock<BTreeMap<u64, EpochRuntime>>,
    rng: Mutex<StdRng>,
    bin_cache: BinCache,
    phases: PhaseTimers,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("epochs", &unpoisoned(self.epochs.read()).len())
            .field("oblivious", &self.enclave.is_oblivious())
            .finish_non_exhaustive()
    }
}

impl QueryEngine {
    /// Create an engine bound to an enclave and a store.
    #[must_use]
    pub fn new(config: SystemConfig, enclave: Enclave, store: EpochStore, rng_seed: u64) -> Self {
        QueryEngine {
            config,
            enclave,
            store,
            epochs: RwLock::new(BTreeMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(rng_seed)),
            bin_cache: BinCache::new(DEFAULT_BIN_CACHE_CAPACITY),
            phases: PhaseTimers::default(),
        }
    }

    /// The enclave this engine runs in.
    #[must_use]
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Snapshot of the per-phase wall-clock accumulators.
    #[must_use]
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            fetch_ns: self.phases.fetch_ns.load(Ordering::Relaxed),
            decrypt_ns: self.phases.decrypt_ns.load(Ordering::Relaxed),
            verify_ns: self.phases.verify_ns.load(Ordering::Relaxed),
            aggregate_ns: self.phases.aggregate_ns.load(Ordering::Relaxed),
        }
    }

    /// Statistics of the enclave-side decrypted-bin cache.
    #[must_use]
    pub fn bin_cache_stats(&self) -> BinCacheStats {
        self.bin_cache.stats()
    }

    /// Resize the enclave-side decrypted-bin cache (`0` disables it and
    /// flushes resident entries). Purely an enclave-memory/throughput
    /// trade-off: the adversary-visible access pattern and the side-channel
    /// meter are identical at every capacity (see [`crate::BinCacheStats`]).
    pub fn set_bin_cache_capacity(&self, capacity: usize) {
        self.bin_cache.set_capacity(capacity);
    }

    /// The system configuration this engine was provisioned with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The side-channel meter of the underlying enclave.
    #[must_use]
    pub fn meter(&self) -> &SideChannelMeter {
        self.enclave.meter()
    }

    /// Epoch ids currently registered with the engine.
    #[must_use]
    pub fn registered_epochs(&self) -> Vec<u64> {
        unpoisoned(self.epochs.read()).keys().copied().collect()
    }

    /// Query-plan diagnostics for an epoch: the BPB bin plan and the
    /// winSecRange interval layout.
    pub fn plan_stats(&self, epoch_id: u64) -> Result<PlanStats> {
        let epochs = unpoisoned(self.epochs.read());
        let rt = epochs.get(&epoch_id).ok_or(CoreError::NoDataForRange)?;
        let plan = &rt.winsec;
        Ok(PlanStats {
            epoch_id,
            num_bins: rt.bin_plan.num_bins(),
            bin_size: rt.bin_plan.bin_size,
            winsec: WinSecStats {
                num_intervals: plan.intervals.len(),
                interval_size: plan.interval_size,
                rows_per_interval: plan.rows_per_interval,
                real_tuples_per_interval: plan.intervals.iter().map(|i| i.real).collect(),
            },
        })
    }

    /// Register an ingested epoch: pull its metadata from the store,
    /// decrypt it inside the enclave, build the bin plan (Step 0 of the
    /// BPB method) and the winSecRange interval plan, and derive the
    /// epoch's fake budget from them. The row count the host stores with
    /// the metadata is never read.
    pub fn register_epoch(&self, epoch_id: u64) -> Result<()> {
        let stored = self.store.backend().epoch(epoch_id)?;
        let metadata = &stored.metadata;
        let key = self.enclave.epoch_key(EpochId(epoch_id), 0);

        let assignment_and_counts = codec::decode_u32_vector(
            &key.rand
                .decrypt(&metadata.enc_cell_id)
                .map_err(|_| CoreError::CorruptMetadata)?,
        )?;
        let c_tuple = codec::decode_u32_vector(
            &key.rand
                .decrypt(&metadata.enc_c_tuple)
                .map_err(|_| CoreError::CorruptMetadata)?,
        )?;
        if assignment_and_counts.len() % 2 != 0 {
            return Err(CoreError::CorruptMetadata);
        }
        let total_cells = assignment_and_counts.len() / 2;
        let cell_assignment = assignment_and_counts[..total_cells].to_vec();
        let cell_counts = assignment_and_counts[total_cells..].to_vec();

        let mut cells_per_cell_id = vec![0u32; self.config.grid.num_cell_ids as usize];
        for &cid in &cell_assignment {
            if let Some(slot) = cells_per_cell_id.get_mut(cid as usize) {
                *slot += 1;
            }
        }

        let time_rows = self.config.grid.time_subintervals;
        let lambda = self.config.winsec_rows_per_interval;
        let bin_plan = BinPlan::build(&c_tuple, None);
        let winsec = WinSecPlan::build(&cell_assignment, &c_tuple, time_rows, lambda);
        let total_fakes = fake_budget(&bin_plan, &winsec, &cell_counts, time_rows);
        let bin_rounds = vec![0u64; bin_plan.num_bins()];
        let max_cell_id_load = c_tuple.iter().copied().max().unwrap_or(0);

        let runtime = EpochRuntime {
            epoch_id,
            window: EpochWindow {
                start: epoch_id,
                duration: self.config.epoch_duration,
            },
            cell_assignment,
            cell_counts,
            c_tuple,
            max_cell_id_load,
            cells_per_cell_id,
            total_fakes,
            tags: metadata.enc_tags.clone(),
            bin_plan,
            bin_rounds,
            rewrites: stored.rewrite_count,
            lazy: Mutex::default(),
            winsec,
        };
        unpoisoned(self.epochs.write()).insert(epoch_id, runtime);
        Ok(())
    }

    /// Refuse `epoch_id` when the store holds §6 rewrites of it that this
    /// engine did not commit (of an unregistered epoch, any at all): its
    /// round counters are enclave state of the process that rewrote it,
    /// so trapdoors issued here would miss the rewritten rows. Read under
    /// the registry's guard, so no commit of this engine's falls between.
    pub(crate) fn check_rewrites(&self, epoch_id: u64) -> Result<()> {
        let epochs = unpoisoned(self.epochs.read());
        let committed = epochs.get(&epoch_id).map_or(0, |rt| rt.rewrites);
        if self.store.rewrite_count(epoch_id)? == committed {
            return Ok(());
        }
        Err(CoreError::InvalidConfig {
            reason: format!(
                "epoch {epoch_id} was rewritten by the forward-private (§6) protocol \
                 in another process, whose round counters this enclave lacks — \
                 re-ingest the epoch"
            ),
        })
    }

    /// Execute one query: [`merge_partials`] over this process's per-epoch
    /// partials — a process holding every epoch is the 1-of-1 case of
    /// sharded execution. The query runs as a batch of one: the planner
    /// and the stage executor of [`QueryEngine::execute_batch`], on
    /// `opts.parallelism` workers. Point predicates fetch their single bin,
    /// range predicates run the method selected by `opts.method`; a
    /// forward-private (§6) range runs only under [`RangeMethod::Bpb`] and
    /// re-encrypts what it fetched (see [`ExecOptions::forward_private`]).
    /// Forward-private *points* fetch one bin of one round and execute
    /// like any point.
    ///
    /// `user` is authorized for the query's scope (individualized when the
    /// predicate pins a device, aggregate otherwise) before any trapdoor is
    /// derived.
    pub fn execute(
        &self,
        user: &UserHandle,
        query: &Query,
        opts: ExecOptions,
    ) -> Result<QueryAnswer> {
        let mut results = self.run_batch(user, std::slice::from_ref(query), &opts, true);
        // Merge first: a query no epoch covers fails before it leaves a
        // boundary in the trace.
        let answer = merge_partials(query, results.pop().expect("one result per query")?)?;
        self.store.mark_query_boundary();
        Ok(answer)
    }

    /// Execute `query` over only the epochs this process holds, returning
    /// one [`EpochPartial`] per touched epoch instead of a finished answer
    /// — [`QueryEngine::execute_batch_partials`] of one query.
    ///
    /// This is the shard half of multi-node execution: each
    /// `concealer-server --shard i/t` process registers an epoch-hash slice
    /// of the deployment's epochs, runs this over the slice, and the
    /// router recombines the partials with [`merge_partials`]. An empty
    /// result is *not* an error — the query's epochs may live on other
    /// shards; only the merged whole can decide
    /// [`CoreError::NoDataForRange`].
    ///
    /// Forward-private (§6) executions are refused with
    /// [`CoreError::InvalidConfig`]: whether a range draws cover bins and
    /// re-encrypts depends on whether the deployment holds more than one
    /// epoch, which a shard holding a slice cannot tell, and the rewrite
    /// advances enclave-resident round counters.
    pub fn execute_partials(
        &self,
        user: &UserHandle,
        query: &Query,
        opts: ExecOptions,
    ) -> Result<Vec<EpochPartial>> {
        let mut results = self.run_batch(user, std::slice::from_ref(query), &opts, false);
        let partials = results.pop().expect("one result per query")?;
        self.store.mark_query_boundary();
        Ok(partials)
    }

    /// Requirement R2: the enclave checks `user` against the registry for
    /// `query`'s scope. Every entry point calls this once per query, before
    /// the query's first trapdoor.
    fn authorize(&self, user: &UserHandle, query: &Query) -> Result<()> {
        Ok(self
            .enclave
            .authorize(user.user_id, &user.credential, scope_for_query(query))?)
    }

    /// Whether this execution runs the oblivious (Concealer+) code paths.
    fn oblivious_enabled(&self, opts: &ExecOptions) -> bool {
        opts.oblivious
            .unwrap_or_else(|| self.enclave.is_oblivious())
    }

    /// Whether fetched bins of `rt` get hash-chain-verified under `opts`.
    fn verification_active(&self, opts: &ExecOptions, rt: &EpochRuntime) -> bool {
        opts.verify && self.config.verify_integrity && !rt.tags.is_empty()
    }
}

/// Individualized predicates (pinning an observation/device id) need
/// individualized authorization; everything else runs under the aggregate
/// scope.
fn scope_for_query(query: &Query) -> QueryScope {
    match query.predicate.observation() {
        Some(device_id) => QueryScope::Individualized { device_id },
        None => QueryScope::Aggregate,
    }
}

// The facade lives in `system.rs`; re-exported here so its public path
// (`concealer_core::engine::ConcealerSystem`) is unchanged.
pub use crate::system::{ConcealerSystem, Registration};

#[cfg(test)]
mod tests;
