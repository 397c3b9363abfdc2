//! Planning: the fetch units a query needs on this process — a point's
//! bin, a BPB range's bins with super-bin expansion (and, for a
//! multi-round §6 range, its cover bins), an eBPB (§5.2) or winSecRange
//! (§5.3) range's cell-groups — and the per-query plan built from them.

use std::collections::BTreeMap;

use concealer_crypto::EpochId;
use rand::Rng;

use super::{EpochPartial, EpochRuntime, QueryEngine, RangeMethod};
use crate::api::ExecOptions;
use crate::bins::max_window_load;
use crate::dynamic::extra_bins_per_round;
use crate::grid::Grid;
use crate::query::{Predicate, Query};
use crate::superbin::SuperBinPlan;
use crate::{unpoisoned, CoreError, Result};

/// One fixed-size fetch from one epoch: what the stage executor fetches,
/// verifies and dedupes across the queries of a batch.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum FetchUnit {
    /// A whole BPB bin, fetched through the decrypted-bin cache.
    Bin(usize),
    /// eBPB / winSecRange: the cell-ids of one re-encryption round with
    /// the fake range `0..fakes`, fetched and verified uncached.
    Cells {
        round: u64,
        cells: Vec<u32>,
        fakes: u64,
    },
}

/// One query's plan on this process: the epochs it touches here (with
/// their per-epoch verification flags, ascending) and the `(epoch, unit)`
/// fetches its method needs from them, ascending and distinct — each
/// epoch's units come out of the planner sorted. An empty plan is not an
/// error —
/// other shards may own the query's epochs; only [`merge_partials`] can
/// decide [`CoreError::NoDataForRange`].
///
/// `covers` is `Some` for a multi-round §6 range alone: its cover bins, by
/// ascending epoch, whose rows are fetched and counted but whose matches
/// are discarded. Stage 3 re-encrypts every bin such a plan fetched.
pub(super) struct QueryPlan {
    pub(super) epochs: Vec<(u64, bool)>,
    pub(super) units: Vec<(u64, FetchUnit)>,
    pub(super) covers: Option<Vec<(u64, FetchUnit)>>,
}

impl QueryPlan {
    /// Every unit the plan fetches: its own, then its §6 cover bins.
    pub(super) fn fetched(&self) -> impl Iterator<Item = &(u64, FetchUnit)> {
        self.units.iter().chain(self.covers.iter().flatten())
    }

    /// One empty partial per touched epoch, ascending, for the stage
    /// executor to fold the plan's units into.
    pub(super) fn seed(&self) -> Vec<EpochPartial> {
        self.epochs
            .iter()
            .map(|&(epoch_id, verified)| EpochPartial::empty(epoch_id, verified))
            .collect()
    }
}

impl QueryEngine {
    /// Plan one query: the epochs this process holds that the query
    /// touches (with per-epoch verification flags) and the units to fetch
    /// from them. A point fetches its bin whatever `opts.method` says; a
    /// range fetches what its method asks for.
    ///
    /// A forward-private (§6) range re-encrypts the whole bins it fetches,
    /// and only BPB fetches whole bins: under any other method it is
    /// refused here, before its first trapdoor. When the process holds
    /// more than one epoch (the protocol's `multi_round`), the plan also
    /// draws each touched epoch's cover bins from the engine RNG, in
    /// ascending epoch order. On a one-epoch process it is the BPB range.
    pub(super) fn plan_query_bins(
        &self,
        epochs: &BTreeMap<u64, EpochRuntime>,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryPlan> {
        let section_6 = opts.forward_private && matches!(query.predicate, Predicate::Range { .. });
        if section_6 && opts.method != RangeMethod::Bpb {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "forward-private (§6) ranges re-encrypt the whole bins they fetch and \
                     run only under RangeMethod::Bpb, not {:?}",
                    opts.method
                ),
            });
        }
        let mut plan = QueryPlan {
            epochs: Vec::new(),
            units: Vec::new(),
            covers: (section_6 && epochs.len() > 1).then(Vec::new),
        };
        let (t_start, t_end) = query.predicate.time_span();
        let touched: Vec<&EpochRuntime> = match &query.predicate {
            Predicate::Point { time, .. } => epochs
                .values()
                .find(|rt| rt.window.contains(*time))
                .into_iter()
                .collect(),
            Predicate::Range { .. } => epochs
                .values()
                .filter(|rt| rt.window.overlaps(t_start, t_end))
                .collect(),
        };
        for rt in touched {
            let units = match (&query.predicate, opts.method) {
                (Predicate::Point { dims, time }, _) => {
                    vec![FetchUnit::Bin(self.locate_point_bin(rt, dims, *time)?)]
                }
                (Predicate::Range { .. }, RangeMethod::Bpb) => {
                    let mut bins = self.range_bins_for_epoch(rt, query, opts)?;
                    if let Some(covers) = &mut plan.covers {
                        // §6: random bins until the epoch fetches
                        // `extra_bins_per_round` of its bins (or all).
                        let (needed, num_bins) = (bins.len(), rt.bin_plan.num_bins());
                        let mut rng = unpoisoned(self.rng.lock());
                        while bins.len() < extra_bins_per_round(num_bins).min(num_bins) {
                            let candidate = rng.gen_range(0..num_bins);
                            if !bins.contains(&candidate) {
                                bins.push(candidate);
                            }
                        }
                        let drawn = bins.drain(needed..);
                        covers.extend(drawn.map(|b| (rt.epoch_id, FetchUnit::Bin(b))));
                    }
                    bins.into_iter().map(FetchUnit::Bin).collect()
                }
                (Predicate::Range { .. }, RangeMethod::Ebpb) => {
                    let (cids, fakes) = self.ebpb_cells(rt, query)?;
                    cell_groups(rt, &cids, fakes)
                }
                (Predicate::Range { .. }, RangeMethod::WinSecRange) => {
                    let (cids, fakes) = self.winsec_cells(rt, query);
                    cell_groups(rt, &cids, fakes)
                }
            };
            plan.epochs
                .push((rt.epoch_id, self.verification_active(opts, rt)));
            plan.units
                .extend(units.into_iter().map(|unit| (rt.epoch_id, unit)));
        }
        debug_assert!(plan.units.windows(2).all(|w| w[0] < w[1]));
        Ok(plan)
    }

    /// The bin a point predicate's cell lands in.
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

    /// The sorted, deduplicated bin set a BPB range fetches from one epoch
    /// (the trivial method), with super-bin expansion when `opts` asks for
    /// it.
    fn range_bins_for_epoch(
        &self,
        rt: &EpochRuntime,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<Vec<usize>> {
        let (_, cells) = self.covered_cells(rt, query)?;
        let mut bins: Vec<usize> = cells
            .iter()
            .filter_map(|&flat| rt.bin_plan.bin_of_cell(rt.cell_assignment[flat as usize]))
            .collect();
        bins.sort_unstable();
        bins.dedup();
        if opts.use_superbins {
            bins = expand_to_superbins(rt, &bins, opts.num_super_bins);
        }
        Ok(bins)
    }

    /// eBPB (§5.2): the cell-ids covering the range, and the fakes padding
    /// them to the worst-case ℓ-row window when the range pins a location.
    fn ebpb_cells(&self, rt: &EpochRuntime, query: &Query) -> Result<(Vec<u32>, u64)> {
        let (rows, cells) = self.covered_cells(rt, query)?;
        if rows.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let mut cids: Vec<u32> = cells
            .iter()
            .map(|&flat| rt.cell_assignment[flat as usize])
            .collect();
        cids.sort_unstable();
        cids.dedup();

        let real: u64 = cids
            .iter()
            .map(|&c| u64::from(rt.c_tuple[c as usize]))
            .sum();
        let target = if query.predicate.dims().is_some() {
            let ell = rows.len() as u64;
            let time_rows = self.config.grid.time_subintervals;
            let window = *unpoisoned(rt.lazy.lock())
                .ebpb_sizes
                .entry(ell)
                .or_insert_with(|| max_window_load(&rt.cell_counts, time_rows, ell));
            window.max(real)
        } else {
            real
        };
        Ok((cids, target - real))
    }

    /// winSecRange (§5.3): the cell-ids of every fixed interval the range
    /// overlaps, and the fakes padding each of them to the common size.
    fn winsec_cells(&self, rt: &EpochRuntime, query: &Query) -> (Vec<u32>, u64) {
        let plan = &rt.winsec;
        let (t_start, t_end) = query.predicate.time_span();
        let rows = self.grid_for(rt).time_rows_for_range(t_start, t_end);
        let (Some(&first), Some(&last)) = (rows.first(), rows.last()) else {
            return (Vec::new(), 0);
        };
        // Cell-ids may appear in several intervals (the PRF assignment does
        // not stratify them by time), so they are deduplicated to avoid
        // fetching — and counting — the same tuples twice.
        let mut cids: Vec<u32> = Vec::new();
        let mut fakes = 0u64;
        for interval_idx in first / plan.rows_per_interval..=last / plan.rows_per_interval {
            if let Some(interval) = plan.intervals.get(interval_idx as usize) {
                cids.extend(interval.cells.iter().map(|(c, _)| *c));
                fakes += plan.interval_size - interval.real;
            }
        }
        cids.sort_unstable();
        cids.dedup();
        (cids, fakes)
    }

    /// The time rows a range spans in `rt` and the grid cells (flat
    /// indices) it covers there.
    fn covered_cells(&self, rt: &EpochRuntime, query: &Query) -> Result<(Vec<u64>, Vec<u64>)> {
        let grid = self.grid_for(rt);
        let (t_start, t_end) = query.predicate.time_span();
        let rows = grid.time_rows_for_range(t_start, t_end);
        let cells = match query.predicate.dims() {
            Some(dims) => grid.cells_for_dims(dims, &rows)?,
            None => grid.cells_for_all_dims(&rows),
        };
        Ok((rows, cells))
    }

    fn grid_for(&self, rt: &EpochRuntime) -> Grid {
        let key = self.enclave.epoch_key(EpochId(rt.epoch_id), 0);
        Grid::new(self.config.grid.clone(), rt.window, key.grid_prf.clone())
    }
}

/// The cell-group units of one eBPB / winSecRange fetch: `cids` grouped by
/// their bin's re-encryption round, so trapdoors and filters use the right
/// key even after §6 rewrites, with the `fakes` padding on the first
/// group. No method asks for more than the epoch's fake budget.
fn cell_groups(rt: &EpochRuntime, cids: &[u32], fakes: u64) -> Vec<FetchUnit> {
    debug_assert!(fakes <= rt.total_fakes, "{fakes} fakes over the budget");
    let mut by_round: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for &cid in cids {
        let round = rt.bin_plan.bin_of_cell(cid).map_or(0, |b| rt.bin_rounds[b]);
        by_round.entry(round).or_default().push(cid);
    }
    let mut fakes = Some(fakes);
    by_round
        .into_iter()
        .map(|(round, cells)| FetchUnit::Cells {
            round,
            cells,
            fakes: fakes.take().unwrap_or(0),
        })
        .collect()
}

/// Every bin of the super-bins holding `bins`, under the epoch's super-bin
/// plan for `num_super_bins` (built once per clamped `f`).
fn expand_to_superbins(rt: &EpochRuntime, bins: &[usize], num_super_bins: usize) -> Vec<usize> {
    let f = num_super_bins.clamp(1, rt.bin_plan.num_bins().max(1));
    let mut lazy = unpoisoned(rt.lazy.lock());
    let plan = lazy
        .superbin_plans
        .entry(f)
        .or_insert_with(|| SuperBinPlan::build(&rt.bin_plan, &rt.cells_per_cell_id, f));
    let mut expanded: Vec<usize> = bins
        .iter()
        .flat_map(|&b| plan.fetch_set_for_bin(b).iter().copied())
        .collect();
    drop(lazy);
    expanded.sort_unstable();
    expanded.dedup();
    expanded
}
