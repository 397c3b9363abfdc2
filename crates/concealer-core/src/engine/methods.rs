//! The §6 forward-private range protocol with its bin re-encryption — the
//! one execution that is not a union of independent per-epoch fetches.
//! Every other method (BPB, eBPB §5.2, winSecRange §5.3) is planned in
//! `plan.rs` and runs on the stage executor in `batch.rs`.

use concealer_crypto::EpochId;
use rand::Rng;

use super::{merge_partials, EpochPartial, EpochRuntime, PlanMemo, QueryEngine, RangeMethod};
use crate::api::ExecOptions;
use crate::bin_cache::BinEntry;
use crate::dynamic;
use crate::query::{Query, QueryAnswer};
use crate::{unpoisoned, CoreError, Result};

impl QueryEngine {
    /// Execute a forward-private range query (§6). When the engine holds
    /// more than one round, the protocol spans the whole stretch of rounds
    /// between the first and last satisfying round: every round in the
    /// span — satisfying or not — has extra random bins fetched and
    /// everything fetched re-encrypted, which is why this loop cannot be
    /// split into independently executed per-epoch partials. It still
    /// accumulates per round and finishes with [`merge_partials`].
    ///
    /// Only BPB fetches whole bins, the unit §6 re-encrypts: a range under
    /// any other method is refused before its first trapdoor.
    pub(super) fn execute_forward_private_range(
        &self,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryAnswer> {
        if opts.method != RangeMethod::Bpb {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "forward-private (§6) ranges re-encrypt the whole bins they fetch and \
                     run only under RangeMethod::Bpb, not {:?}",
                    opts.method
                ),
            });
        }
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
            let mut bins = if rt.window.overlaps(t_start, t_end) {
                self.range_bins_for_epoch(rt, query, opts)?
            } else {
                Vec::new()
            };
            // §6: extra random bins from every round in the span — their
            // rows are fetched and decrypted (and counted) but their
            // matches discarded.
            let satisfying = bins.len();
            if multi_round {
                let num_bins = rt.bin_plan.num_bins();
                let extra = dynamic::extra_bins_per_round(num_bins);
                while bins.len() < extra.min(num_bins) {
                    let candidate = unpoisoned(self.rng.lock()).gen_range(0..num_bins);
                    if !bins.contains(&candidate) {
                        bins.push(candidate);
                    }
                }
            }

            let mut part = EpochPartial::empty(epoch_id, self.verification_active(opts, rt));
            let mut extras = EpochPartial::empty(epoch_id, part.verified);
            let mut fetched = Vec::with_capacity(bins.len());
            for (i, &bin_idx) in bins.iter().enumerate() {
                let entry = self.fetch_bin_rows(&self.store, rt, bin_idx, opts)?;
                let into = if i < satisfying {
                    &mut part
                } else {
                    &mut extras
                };
                self.fold_entry(rt, &entry, query, opts, into, &mut memo)?;
                fetched.push(entry);
            }
            part.rows_fetched += extras.rows_fetched;
            part.rows_decrypted += extras.rows_decrypted;

            // §6: re-encrypt everything fetched.
            if multi_round {
                for (bin_idx, entry) in bins.into_iter().zip(fetched) {
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
