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
//! There is one execution pipeline: plan → fetch and verify each
//! `(epoch, bin)` once → accumulate per query and per epoch into
//! [`EpochPartial`]s → [`merge_partials`]. [`QueryEngine::execute_partials`]
//! and [`QueryEngine::execute_batch_partials`] stop before the merge (the
//! shard half of multi-node serving); [`QueryEngine::execute`] and
//! [`QueryEngine::execute_batch`] are the same calls followed by the merge
//! — one process holding every epoch is the 1-of-1 case. Batches optionally
//! run on a scoped thread pool (see [`ExecOptions::parallelism`]). All four
//! are normally reached through [`crate::Session`].

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use concealer_crypto::EpochId;
use concealer_enclave::registry::{Credential, QueryScope, UserId};
use concealer_enclave::{Enclave, SideChannelMeter};
use concealer_storage::EpochStore;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::ExecOptions;
use crate::bin_cache::{BinCache, BinCacheStats, DEFAULT_BIN_CACHE_CAPACITY};
use crate::bins::{BinPlan, PackingAlgorithm};
use crate::codec;
use crate::config::SystemConfig;
use crate::query::filter::FilterPlan;
use crate::query::{Accumulator, Predicate, Query, QueryAnswer};
use crate::superbin::SuperBinPlan;
use crate::types::EpochWindow;
use crate::{CoreError, Result};

mod batch;
mod fetch;
mod methods;
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
    /// Number of fake tuples shipped with the epoch.
    total_fakes: u64,
    /// Cached verifiable tags (encrypted), one per cell-id; empty when the
    /// data provider skipped verification.
    tags: Vec<Vec<u8>>,
    /// The BPB bin plan.
    bin_plan: BinPlan,
    /// Per-bin re-encryption round counters (the §6 meta-index).
    bin_rounds: Vec<u64>,
    /// Super-bin plan, built lazily on first use.
    superbin_plan: Option<SuperBinPlan>,
    /// Cached eBPB worst-case window sizes, keyed by window length ℓ.
    ebpb_sizes: HashMap<u64, u64>,
    /// winSecRange interval plan, built lazily.
    winsec: Option<WinSecPlan>,
}

/// winSecRange fixed-interval plan for one epoch.
#[derive(Debug, Clone)]
struct WinSecPlan {
    /// Per interval: the cell-ids whose cells fall in the interval, with
    /// their tuple counts, plus the fake range padding the interval to the
    /// common size.
    intervals: Vec<WinSecInterval>,
    /// Common (maximum) interval size in tuples.
    interval_size: u64,
    /// Interval length in grid time rows (λ).
    rows_per_interval: u64,
}

#[derive(Debug, Clone)]
struct WinSecInterval {
    cells: Vec<(u32, u32)>,
    real: u64,
    fake_range: (u64, u64),
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
    /// winSecRange interval diagnostics (the plan is built on demand).
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
            .field("epochs", &self.epochs.read().len())
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
        self.epochs.read().keys().copied().collect()
    }

    /// Bin-plan statistics for an epoch: `(num_bins, bin_size)`.
    pub fn bin_stats(&self, epoch_id: u64) -> Result<(usize, u64)> {
        let epochs = self.epochs.read();
        let rt = epochs.get(&epoch_id).ok_or(CoreError::NoDataForRange)?;
        Ok((rt.bin_plan.num_bins(), rt.bin_plan.bin_size))
    }

    /// Full query-plan diagnostics for an epoch: the BPB bin plan plus the
    /// winSecRange interval layout (building the interval plan on demand if
    /// no winSecRange query has run yet).
    pub fn plan_stats(&self, epoch_id: u64) -> Result<PlanStats> {
        let mut epochs = self.epochs.write();
        let rt = epochs.get_mut(&epoch_id).ok_or(CoreError::NoDataForRange)?;
        if rt.winsec.is_none() {
            rt.winsec = Some(self.build_winsec_plan(rt));
        }
        let plan = rt.winsec.as_ref().expect("just built");
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
    /// decrypt it inside the enclave, and build the bin plan (Step 0 of the
    /// BPB method).
    pub fn register_epoch(&self, epoch_id: u64) -> Result<()> {
        let metadata = self.store.metadata(epoch_id)?;
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

        let real_total: u64 = c_tuple.iter().map(|&c| u64::from(c)).sum();
        let total_fakes = (metadata.advertised_rows as u64).saturating_sub(real_total);

        let bin_plan = BinPlan::build(&c_tuple, PackingAlgorithm::FirstFitDecreasing, None);
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
            tags: metadata.enc_tags,
            bin_plan,
            bin_rounds,
            superbin_plan: None,
            ebpb_sizes: HashMap::new(),
            winsec: None,
        };
        self.epochs.write().insert(epoch_id, runtime);
        Ok(())
    }

    /// Execute one query: [`merge_partials`] over this process's per-epoch
    /// partials — a process holding every epoch is the 1-of-1 case of
    /// sharded execution. Point predicates fetch their single bin, range
    /// predicates run the method selected by `opts.method`.
    ///
    /// The one exception is a forward-private (§6) *range*, whose
    /// re-encryption protocol spans rounds that do not satisfy the query
    /// and cannot be split by epoch; it runs its own loop. Forward-private
    /// *points* fetch one bin of one round and execute like any point.
    pub fn execute(
        &self,
        user: &UserHandle,
        query: &Query,
        opts: ExecOptions,
        registry_scope: QueryScope,
    ) -> Result<QueryAnswer> {
        let _session = self
            .enclave
            .open_session(user.user_id, &user.credential, registry_scope)?;
        if opts.forward_private && matches!(query.predicate, Predicate::Range { .. }) {
            return self.execute_forward_private_range(query, &opts);
        }
        // Merge first: a query no epoch covers fails before it leaves a
        // boundary in the trace.
        let answer = merge_partials(query, self.epoch_partials(query, &opts)?)?;
        self.store.mark_query_boundary();
        Ok(answer)
    }

    /// Execute `query` over only the epochs this process holds, returning
    /// one [`EpochPartial`] per touched epoch instead of a finished answer.
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
    /// [`CoreError::InvalidConfig`]: the protocol re-encrypts every bin it
    /// fetched — including extra bins from *non-satisfying* rounds in the
    /// span — under enclave-resident round counters, so its work is not
    /// partitionable by epoch ownership.
    pub fn execute_partials(
        &self,
        user: &UserHandle,
        query: &Query,
        opts: ExecOptions,
        registry_scope: QueryScope,
    ) -> Result<Vec<EpochPartial>> {
        let _session = self
            .enclave
            .open_session(user.user_id, &user.credential, registry_scope)?;
        if opts.forward_private {
            return Err(CoreError::InvalidConfig {
                reason: "forward-private (§6) executions re-encrypt spanning rounds and \
                         cannot be partitioned into per-epoch partials"
                    .to_string(),
            });
        }
        let partials = self.epoch_partials(query, &opts)?;
        self.store.mark_query_boundary();
        Ok(partials)
    }

    /// The single-query pipeline behind [`QueryEngine::execute`] and
    /// [`QueryEngine::execute_partials`]: one [`EpochPartial`] per epoch of
    /// this process the query touches, ascending, each the epoch's fetches
    /// verified and folded in ascending bin order.
    ///
    /// Lock discipline: point predicates run under the `epochs` **read**
    /// guard on every entry point — a point only reads its epoch's plan, so
    /// points, parallel batch stages and ingest registration all proceed
    /// concurrently. Range predicates take the write guard: their methods
    /// cache lazily built plans (super-bins, eBPB window sizes, winSecRange
    /// intervals) on the epoch runtime.
    fn epoch_partials(&self, query: &Query, opts: &ExecOptions) -> Result<Vec<EpochPartial>> {
        let mut memo = PlanMemo::new();
        match &query.predicate {
            Predicate::Point { dims, time } => {
                let epochs = self.epochs.read();
                let Some(rt) = epochs.values().find(|rt| rt.window.contains(*time)) else {
                    return Ok(Vec::new());
                };
                let bin_idx = self.locate_point_bin(rt, dims, *time)?;
                let mut part = EpochPartial::empty(rt.epoch_id, self.verification_active(opts, rt));
                self.fetch_and_fold_bin(rt, bin_idx, query, opts, &mut part, &mut memo)?;
                Ok(vec![part])
            }
            Predicate::Range { .. } => {
                let (t_start, t_end) = query.predicate.time_span();
                let mut epochs = self.epochs.write();
                let mut out = Vec::new();
                for rt in epochs
                    .values_mut()
                    .filter(|rt| rt.window.overlaps(t_start, t_end))
                {
                    let mut part =
                        EpochPartial::empty(rt.epoch_id, self.verification_active(opts, rt));
                    self.execute_epoch_slice(rt, query, opts, &mut part, &mut memo)?;
                    out.push(part);
                }
                Ok(out)
            }
        }
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
pub(crate) fn scope_for_query(query: &Query) -> QueryScope {
    match query.predicate.observation() {
        Some(device_id) => QueryScope::Individualized { device_id },
        None => QueryScope::Aggregate,
    }
}

// The facade lives in `system.rs`; re-exported here so its public path
// (`concealer_core::engine::ConcealerSystem`) is unchanged.
pub use crate::system::ConcealerSystem;

#[cfg(test)]
mod tests;
