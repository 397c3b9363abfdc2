//! The range methods — BPB, eBPB (§5.2), winSecRange (§5.3) — as one
//! epoch's share of a query, plus the §6 forward-private range protocol
//! with its bin re-encryption.

use std::sync::Arc;

use concealer_crypto::EpochId;
use rand::Rng;

use super::{merge_partials, EpochPartial, EpochRuntime, PlanMemo, QueryEngine, RangeMethod};
use crate::api::ExecOptions;
use crate::bin_cache::BinEntry;
use crate::bins::max_window_load;
use crate::dynamic;
use crate::query::{Query, QueryAnswer};
use crate::{unpoisoned, CoreError, Result};

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
            let ell = rows_needed.len() as u64;
            let time_rows = self.config.grid.time_subintervals;
            let window = *rt
                .ebpb_sizes
                .entry(ell)
                .or_insert_with(|| max_window_load(&rt.cell_counts, time_rows, ell));
            window.max(real)
        } else {
            real
        };
        self.fetch_cell_groups(rt, &cids, target - real, query, opts, part, memo)
    }

    /// winSecRange (§5.3): fetch whole fixed time intervals.
    fn execute_winsec(
        &self,
        rt: &EpochRuntime,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<()> {
        let plan = &rt.winsec;
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
        let mut fakes = 0u64;
        for interval_idx in first_interval..=last_interval {
            if let Some(interval) = plan.intervals.get(interval_idx as usize) {
                cids.extend(interval.cells.iter().map(|(c, _)| *c));
                fakes += plan.interval_size - interval.real;
            }
        }
        cids.sort_unstable();
        cids.dedup();
        self.fetch_cell_groups(rt, &cids, fakes, query, opts, part, memo)
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

        let mut epochs = unpoisoned(self.epochs.write());
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
                    let candidate = unpoisoned(self.rng.lock()).gen_range(0..num_bins);
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

        let mut rng = unpoisoned(self.rng.lock());
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
