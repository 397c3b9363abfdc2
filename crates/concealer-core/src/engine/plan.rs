//! Planning: which `(epoch, bin)` pairs a query fetches on this process —
//! point-cell location, range → bin sets, super-bin expansion — and the
//! per-query batch plan built from them.

use std::collections::{BTreeMap, BTreeSet};

use concealer_crypto::EpochId;

use super::{EpochPartial, EpochRuntime, QueryEngine};
use crate::api::ExecOptions;
use crate::grid::Grid;
use crate::query::{Predicate, Query};
use crate::superbin::SuperBinPlan;
use crate::{CoreError, Result};

/// One query's batch plan on this process: the epochs it touches here
/// (with their per-epoch verification flags, ascending) and the
/// `(epoch, bin)` pairs a BPB execution fetches for it. An empty plan is
/// not an error — other shards may own the query's epochs; only
/// [`merge_partials`] can decide [`CoreError::NoDataForRange`].
pub(super) struct PartialBinPlan {
    pub(super) epochs: Vec<(u64, bool)>,
    pub(super) bins: BTreeSet<(u64, usize)>,
}

impl PartialBinPlan {
    /// One empty partial per touched epoch, ascending, for the stage
    /// executors to fold the plan's bins into.
    pub(super) fn seed(&self) -> Vec<EpochPartial> {
        self.epochs
            .iter()
            .map(|&(epoch_id, verified)| EpochPartial::empty(epoch_id, verified))
            .collect()
    }
}

impl QueryEngine {
    /// Plan one query of a batch: the epochs this process holds that the
    /// query touches (with per-epoch verification flags) and the BPB bins
    /// to fetch from them, located by the same
    /// [`QueryEngine::locate_point_bin`] /
    /// [`QueryEngine::range_bins_for_epoch`] the single-query pipeline
    /// uses, so batched and single execution cannot drift apart.
    pub(super) fn plan_query_bins(
        &self,
        epochs: &mut BTreeMap<u64, EpochRuntime>,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<PartialBinPlan> {
        let mut plan = PartialBinPlan {
            epochs: Vec::new(),
            bins: BTreeSet::new(),
        };
        match &query.predicate {
            Predicate::Point { dims, time } => {
                if let Some(rt) = epochs.values().find(|rt| rt.window.contains(*time)) {
                    let bin_idx = self.locate_point_bin(rt, dims, *time)?;
                    plan.epochs
                        .push((rt.epoch_id, self.verification_active(opts, rt)));
                    plan.bins.insert((rt.epoch_id, bin_idx));
                }
            }
            Predicate::Range { .. } => {
                let (t_start, t_end) = query.predicate.time_span();
                for rt in epochs
                    .values_mut()
                    .filter(|rt| rt.window.overlaps(t_start, t_end))
                {
                    plan.epochs
                        .push((rt.epoch_id, self.verification_active(opts, rt)));
                    let bin_set = self.range_bins_for_epoch(rt, query, opts)?;
                    plan.bins
                        .extend(bin_set.into_iter().map(|b| (rt.epoch_id, b)));
                }
            }
        }
        Ok(plan)
    }

    /// The bin a point predicate's cell lands in (shared by the point
    /// execution path and the batch planner).
    pub(super) fn locate_point_bin(
        &self,
        rt: &EpochRuntime,
        dims: &[u64],
        time: u64,
    ) -> Result<usize> {
        let grid = self.grid_for(rt);
        let coord = grid.locate(dims, time)?;
        let cid = rt.cell_assignment[coord.flat as usize];
        rt.bin_plan
            .bin_of_cell(cid)
            .ok_or(CoreError::CorruptMetadata)
    }

    /// The sorted, deduplicated bin set a BPB range execution fetches from
    /// one epoch, including super-bin expansion (shared by the sequential
    /// BPB path and the batch planner).
    pub(super) fn range_bins_for_epoch(
        &self,
        rt: &mut EpochRuntime,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<Vec<usize>> {
        let mut bin_set = self.bins_for_range(rt, query)?;
        if opts.use_superbins {
            bin_set = self.expand_to_superbins(rt, &bin_set, opts.num_super_bins);
        }
        Ok(bin_set)
    }

    pub(super) fn grid_for(&self, rt: &EpochRuntime) -> Grid {
        let key = self.enclave.epoch_key(EpochId(rt.epoch_id), 0);
        Grid::new(self.config.grid.clone(), rt.window, key.grid_prf.clone())
    }

    /// The bins covering a range query's cells (BPB trivial method).
    fn bins_for_range(&self, rt: &EpochRuntime, query: &Query) -> Result<Vec<usize>> {
        let grid = self.grid_for(rt);
        let (t_start, t_end) = query.predicate.time_span();
        let rows = grid.time_rows_for_range(t_start, t_end);
        let cells = match query.predicate.dims() {
            Some(dims) => grid.cells_for_dims(dims, &rows)?,
            None => grid.cells_for_all_dims(&rows),
        };
        let mut bins: Vec<usize> = cells
            .iter()
            .filter_map(|&flat| {
                let cid = rt.cell_assignment[flat as usize];
                rt.bin_plan.bin_of_cell(cid)
            })
            .collect();
        bins.sort_unstable();
        bins.dedup();
        Ok(bins)
    }

    fn expand_to_superbins(
        &self,
        rt: &mut EpochRuntime,
        bins: &[usize],
        num_super_bins: usize,
    ) -> Vec<usize> {
        if rt.superbin_plan.is_none() {
            rt.superbin_plan = Some(SuperBinPlan::build(
                &rt.bin_plan,
                &rt.cells_per_cell_id,
                num_super_bins,
            ));
        }
        let plan = rt.superbin_plan.as_ref().expect("just built");
        let mut expanded: Vec<usize> = bins
            .iter()
            .flat_map(|&b| plan.fetch_set_for_bin(b).to_vec())
            .collect();
        expanded.sort_unstable();
        expanded.dedup();
        expanded
    }
}
