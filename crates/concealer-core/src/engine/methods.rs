//! The range methods — BPB, eBPB (§5.2), winSecRange (§5.3) — as one
//! epoch's share of a query, plus the §6 forward-private range protocol
//! with its bin re-encryption.

use std::sync::Arc;

use concealer_crypto::EpochId;
use rand::Rng;

use super::{
    merge_partials, EpochPartial, EpochRuntime, PlanMemo, QueryEngine, RangeMethod, WinSecInterval,
    WinSecPlan,
};
use crate::api::ExecOptions;
use crate::bin_cache::BinEntry;
use crate::dynamic;
use crate::query::{Query, QueryAnswer};
use crate::{CoreError, Result};

impl QueryEngine {
    /// Run one epoch's share of a range query with the method in `opts`,
    /// folding its fetches into `part` and returning the BPB bins fetched,
    /// each with what the fetch returned (the §6 protocol re-encrypts
    /// exactly that afterwards; eBPB / winSecRange fetch cell-groups and
    /// intervals instead, so they return no bins).
    pub(super) fn execute_epoch_slice(
        &self,
        rt: &mut EpochRuntime,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<Vec<(usize, Arc<BinEntry>)>> {
        match opts.method {
            RangeMethod::Bpb => self
                .range_bins_for_epoch(rt, query, opts)?
                .into_iter()
                .map(|bin_idx| {
                    let entry = self.fetch_and_fold_bin(rt, bin_idx, query, opts, part, memo)?;
                    Ok((bin_idx, entry))
                })
                .collect(),
            RangeMethod::Ebpb => {
                self.execute_ebpb(rt, query, opts, part, memo)?;
                Ok(Vec::new())
            }
            RangeMethod::WinSecRange => {
                self.execute_winsec(rt, query, opts, part, memo)?;
                Ok(Vec::new())
            }
        }
    }

    /// eBPB (§5.2): fetch exactly the cell-ids covering the range, padded to
    /// the worst-case ℓ-row window size.
    fn execute_ebpb(
        &self,
        rt: &mut EpochRuntime,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<()> {
        let grid = self.grid_for(rt);
        let (t_start, t_end) = query.predicate.time_span();
        let rows_needed = grid.time_rows_for_range(t_start, t_end);
        if rows_needed.is_empty() {
            return Ok(());
        }
        let cells = match query.predicate.dims() {
            Some(dims) => grid.cells_for_dims(dims, &rows_needed)?,
            None => grid.cells_for_all_dims(&rows_needed),
        };
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
            self.ebpb_window_size(rt, rows_needed.len() as u64)
                .max(real)
        } else {
            real
        };
        let pad = (target - real).min(rt.total_fakes);
        self.fetch_cell_groups(rt, &cids, pad, query, opts, part, memo)
    }

    /// Worst-case tuples in any ℓ consecutive time rows of any dimension
    /// column (the eBPB bin size), cached per ℓ.
    fn ebpb_window_size(&self, rt: &mut EpochRuntime, window_len: u64) -> u64 {
        if let Some(&cached) = rt.ebpb_sizes.get(&window_len) {
            return cached;
        }
        let y = self.config.grid.time_subintervals as usize;
        let len = (window_len as usize).clamp(1, y);
        let mut best = 0u64;
        let columns = rt.cell_counts.len() / y.max(1);
        for col in 0..columns {
            let col_counts = &rt.cell_counts[col * y..(col + 1) * y];
            let mut window_sum: u64 = col_counts[..len].iter().map(|&c| u64::from(c)).sum();
            best = best.max(window_sum);
            for i in len..y {
                window_sum += u64::from(col_counts[i]);
                window_sum -= u64::from(col_counts[i - len]);
                best = best.max(window_sum);
            }
        }
        rt.ebpb_sizes.insert(window_len, best);
        best
    }

    /// winSecRange (§5.3): fetch whole fixed time intervals.
    fn execute_winsec(
        &self,
        rt: &mut EpochRuntime,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<()> {
        if rt.winsec.is_none() {
            rt.winsec = Some(self.build_winsec_plan(rt));
        }
        let plan = rt.winsec.as_ref().expect("just built");

        let grid = self.grid_for(rt);
        let (t_start, t_end) = query.predicate.time_span();
        let rows_needed = grid.time_rows_for_range(t_start, t_end);
        if rows_needed.is_empty() {
            return Ok(());
        }
        let first_interval = rows_needed[0] / plan.rows_per_interval;
        let last_interval = rows_needed[rows_needed.len() - 1] / plan.rows_per_interval;

        // Union of the cell-ids of every interval overlapping the range.
        // Cell-ids may appear in several intervals (the PRF assignment does
        // not stratify them by time), so they are deduplicated here to avoid
        // fetching — and counting — the same tuples twice.
        let mut cids: Vec<u32> = Vec::new();
        let mut fake_budget = 0u64;
        for interval_idx in first_interval..=last_interval {
            if let Some(interval) = plan.intervals.get(interval_idx as usize) {
                cids.extend(interval.cells.iter().map(|(c, _)| *c));
                fake_budget += interval.fake_range.1 - interval.fake_range.0;
            }
        }
        cids.sort_unstable();
        cids.dedup();
        let fakes = fake_budget.min(rt.total_fakes);
        self.fetch_cell_groups(rt, &cids, fakes, query, opts, part, memo)
    }

    pub(super) fn build_winsec_plan(&self, rt: &EpochRuntime) -> WinSecPlan {
        let y = self.config.grid.time_subintervals;
        let lambda = self.config.winsec_rows_per_interval.max(1).min(y);
        let num_intervals = y.div_ceil(lambda);

        // Every interval lists every cell-id that has at least one grid cell
        // in the interval's time rows. A cell-id may appear in several
        // intervals (the PRF cell-id assignment is not time-stratified);
        // retrieving an interval therefore retrieves every tuple of every
        // cell-id that *could* hold tuples from the interval, which is the
        // superset the volume-hiding argument needs. Queries spanning
        // multiple intervals deduplicate the union before fetching.
        let mut interval_cells: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_intervals as usize];
        let mut seen: Vec<Vec<bool>> = vec![vec![false; rt.c_tuple.len()]; num_intervals as usize];
        for (flat, &cid) in rt.cell_assignment.iter().enumerate() {
            let time_row = (flat as u64) % y;
            let interval = (time_row / lambda) as usize;
            if !seen[interval][cid as usize] {
                seen[interval][cid as usize] = true;
                interval_cells[interval].push((cid, rt.c_tuple[cid as usize]));
            }
        }

        let reals: Vec<u64> = interval_cells
            .iter()
            .map(|cells| cells.iter().map(|(_, c)| u64::from(*c)).sum())
            .collect();
        let interval_size = reals.iter().copied().max().unwrap_or(0);

        let mut intervals = Vec::with_capacity(num_intervals as usize);
        let mut next_fake = 0u64;
        for (cells, real) in interval_cells.into_iter().zip(reals) {
            let need = (interval_size - real).min(rt.total_fakes.saturating_sub(next_fake));
            intervals.push(WinSecInterval {
                cells,
                real,
                fake_range: (next_fake, next_fake + need),
            });
            next_fake += need;
        }
        WinSecPlan {
            intervals,
            interval_size,
            rows_per_interval: lambda,
        }
    }

    /// Execute a forward-private range query (§6). When the engine holds
    /// more than one round, the protocol spans the whole stretch of rounds
    /// between the first and last satisfying round: every round in the
    /// span — satisfying or not — has extra random bins fetched and
    /// everything fetched re-encrypted, which is why this loop cannot be
    /// split into independently executed per-epoch partials. It still
    /// accumulates per round and finishes with [`merge_partials`].
    pub(super) fn execute_forward_private_range(
        &self,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryAnswer> {
        let (t_start, t_end) = query.predicate.time_span();

        let mut epochs = self.epochs.write();
        let touched: Vec<u64> = epochs
            .values()
            .filter(|rt| rt.window.overlaps(t_start, t_end))
            .map(|rt| rt.epoch_id)
            .collect();
        let (Some(&lo), Some(&hi)) = (touched.first(), touched.last()) else {
            return Err(CoreError::NoDataForRange);
        };
        let multi_round = epochs.len() > 1;
        let span: Vec<u64> = if multi_round {
            epochs.range(lo..=hi).map(|(e, _)| *e).collect()
        } else {
            touched
        };

        let mut memo = PlanMemo::new();
        let mut parts = Vec::with_capacity(span.len());
        for epoch_id in span {
            let rt = epochs.get_mut(&epoch_id).expect("registered epoch");
            let mut part = EpochPartial::empty(epoch_id, self.verification_active(opts, rt));
            let mut bins_fetched = if rt.window.overlaps(t_start, t_end) {
                self.execute_epoch_slice(rt, query, opts, &mut part, &mut memo)?
            } else {
                Vec::new()
            };

            // §6: fetch extra random bins from every round in the span —
            // their rows are fetched and decrypted (and counted) but their
            // matches discarded — and re-encrypt everything fetched.
            if multi_round {
                let num_bins = rt.bin_plan.num_bins();
                let extra = dynamic::extra_bins_per_round(num_bins);
                let mut extras = EpochPartial::empty(epoch_id, part.verified);
                while bins_fetched.len() < extra.min(num_bins) {
                    let candidate = self.rng.lock().gen_range(0..num_bins);
                    if bins_fetched
                        .iter()
                        .all(|(fetched, _)| *fetched != candidate)
                    {
                        let entry = self.fetch_and_fold_bin(
                            rt,
                            candidate,
                            query,
                            opts,
                            &mut extras,
                            &mut memo,
                        )?;
                        bins_fetched.push((candidate, entry));
                    }
                }
                part.rows_fetched += extras.rows_fetched;
                part.rows_decrypted += extras.rows_decrypted;
                for (bin_idx, entry) in bins_fetched {
                    self.reencrypt_and_rewrite_bin(rt, bin_idx, &entry)?;
                }
            }
            parts.push(part);
        }
        self.store.mark_query_boundary();
        merge_partials(query, parts)
    }

    /// Re-encrypt a fetched bin under the next round key and write it back
    /// (§6), bumping the bin's round counter and refreshing its tags. What
    /// is re-encrypted is `fetched` — the rows the query itself fetched
    /// and verified, never a second answer from the provider: the fresh
    /// tags computed here would vouch for whatever that answer held.
    fn reencrypt_and_rewrite_bin(
        &self,
        rt: &mut EpochRuntime,
        bin_idx: usize,
        fetched: &BinEntry,
    ) -> Result<()> {
        let old_round = fetched.round;
        let new_key = self.enclave.epoch_key(EpochId(rt.epoch_id), old_round + 1);
        let bin = &rt.bin_plan.bins[bin_idx];

        let mut rng = self.rng.lock();
        let out = dynamic::reencrypt_bin(
            fetched.key.as_ref(),
            new_key.as_ref(),
            &fetched.rows,
            &bin.cell_ids,
            self.config.grid.num_cell_ids as usize,
            &mut *rng,
        )?;
        drop(rng);

        // Rows and refreshed tags land in one store commit: the durable
        // backend persists a single new segment generation per bin rewrite.
        let updates: Vec<(usize, Vec<u8>)> = if rt.tags.is_empty() {
            Vec::new()
        } else {
            out.new_tags
                .iter()
                .map(|(cid, tag)| (*cid as usize, tag.clone()))
                .collect()
        };
        self.store
            .rewrite_bin(rt.epoch_id, out.replacements, updates)?;
        if !rt.tags.is_empty() {
            for (cid, tag) in &out.new_tags {
                rt.tags[*cid as usize] = tag.clone();
            }
        }
        rt.bin_rounds[bin_idx] = old_round + 1;
        // The new round key changes the cache key, so queries after the
        // rewrite miss naturally; drop the superseded entry eagerly anyway
        // to free enclave memory.
        self.bin_cache.invalidate((rt.epoch_id, bin_idx, old_round));
        Ok(())
    }
}
