//! Fetching: one planned unit — a bin through the decrypted-bin cache, or
//! a cell-group — verification of what came back ([`verify_fetch`]), and
//! the accumulate step that folds fetched rows into a query's
//! [`EpochPartial`].

use std::sync::Arc;
use std::time::Instant;

use concealer_crypto::EpochId;
use concealer_enclave::SideChannelMeter;
use concealer_storage::EpochStore;

use super::plan::FetchUnit;
use super::{bump_phase, EpochPartial, EpochRuntime, PlanMemo, QueryEngine};
use crate::api::ExecOptions;
use crate::bin_cache::{BinEntry, BinKey};
use crate::query::filter::{
    build_filter_plan, process_rows_oblivious, process_rows_plain, DecodedBin, FilterPlan,
};
use crate::query::trapdoor::{generate_oblivious, generate_plain, FetchSpec};
use crate::query::Query;
use crate::verify::verify_fetch;
use crate::Result;

impl QueryEngine {
    /// Fetch one planned unit of `rt` through `store`: a bin through the
    /// decrypted-bin cache, a cell-group uncached — the group is the
    /// query's own, so no later query replays it. Either comes back
    /// verified when verification is active.
    pub(super) fn fetch_unit(
        &self,
        store: &EpochStore,
        rt: &EpochRuntime,
        unit: &FetchUnit,
        opts: &ExecOptions,
    ) -> Result<Arc<BinEntry>> {
        match unit {
            FetchUnit::Bin(bin_idx) => self.fetch_bin_rows(store, rt, *bin_idx, opts),
            FetchUnit::Cells {
                round,
                cells,
                fakes,
            } => {
                let spec = FetchSpec {
                    cells: cells
                        .iter()
                        .map(|&cid| (cid, rt.c_tuple[cid as usize]))
                        .collect(),
                    fake_range: (0, *fakes),
                };
                let want_verify = self.verification_active(opts, rt);
                let entry = self.fetch_cold(store, rt, *round, &spec, false, want_verify)?;
                Ok(Arc::new(entry))
            }
        }
    }

    /// Fetch one bin (and hash-chain-verify it when verification is
    /// active), returning the cached-or-fresh [`BinEntry`] holding the
    /// rows, their round key, and the lazily-filled decode results.
    ///
    /// Consults the decrypted-bin cache first. A warm hit replays the
    /// cached trapdoors against the store
    /// ([`EpochStore::fetch_batch_matches`]) — producing the exact
    /// `TrapdoorIssued`/`RowFetched` event sequence a cold fetch would —
    /// and replays the recorded generation counters into the shared
    /// side-channel meter, so the cache is invisible in both adversary
    /// channels (see [`crate::bin_cache`] module docs). What a hit skips is
    /// enclave-internal work only: trapdoor re-derivation, hash-chain
    /// re-verification, payload re-decryption and re-matching.
    ///
    /// Takes the store handle explicitly so the batch executor can
    /// substitute a handle bound to a task-local observer (same stored
    /// data, buffered trace).
    fn fetch_bin_rows(
        &self,
        store: &EpochStore,
        rt: &EpochRuntime,
        bin_idx: usize,
        opts: &ExecOptions,
    ) -> Result<Arc<BinEntry>> {
        let round = rt.bin_rounds[bin_idx];
        let oblivious = self.oblivious_enabled(opts);
        let want_verify = self.verification_active(opts, rt);
        let cache_key: BinKey = (rt.epoch_id, bin_idx, round);

        if let Some(entry) = self.bin_cache.lookup(cache_key) {
            // An entry is usable only if it was generated under the same
            // oblivious schedule (its replayed counters must match this
            // execution's) and satisfies this execution's verification
            // demand (an unverified entry cannot vouch for a verifying
            // fetch; a verified one serves either).
            if entry.oblivious == oblivious && (entry.verified || !want_verify) {
                let start = Instant::now();
                let matched =
                    store.fetch_batch_matches(rt.epoch_id, &entry.trapdoors, &entry.rows)?;
                bump_phase(&self.phases.fetch_ns, start);
                if matched {
                    self.enclave.meter().add_snapshot(entry.gen_meter);
                    self.bin_cache.record_hit();
                    return Ok(entry);
                }
            }
            // Stale profile, or the store's answer diverged from the cached
            // rows (out-of-band rewrite or tampering): drop the entry and
            // fall through to a cold fetch, whose verification surfaces any
            // integrity violation.
            self.bin_cache.invalidate(cache_key);
        }

        let spec = bin_fetch_spec(rt, bin_idx);
        let entry = Arc::new(self.fetch_cold(store, rt, round, &spec, oblivious, want_verify)?);
        self.bin_cache.record_miss();
        // The entry this evicts, if any, is freed here, outside the lock.
        drop(self.bin_cache.insert(cache_key, Arc::clone(&entry)));
        Ok(entry)
    }

    /// Generate `spec`'s trapdoors under `round`'s key — on the oblivious
    /// schedule when `oblivious` says so — fetch them, and verify what came
    /// back when `want_verify` says so. Generation runs against a private
    /// meter so a cached entry can replay its exact counters on warm hits;
    /// the shared meter receives the same totals here.
    fn fetch_cold(
        &self,
        store: &EpochStore,
        rt: &EpochRuntime,
        round: u64,
        spec: &FetchSpec,
        oblivious: bool,
        want_verify: bool,
    ) -> Result<BinEntry> {
        let fetch_start = Instant::now();
        let key = self.enclave.epoch_key(EpochId(rt.epoch_id), round);
        let gen = SideChannelMeter::new();
        let issued = if oblivious {
            generate_oblivious(
                key.as_ref(),
                spec,
                rt.bin_plan.max_cells_per_bin(),
                rt.max_cell_id_load,
                rt.bin_plan.max_fakes_per_bin(),
                &gen,
            )
        } else {
            generate_plain(key.as_ref(), spec, &gen)
        };
        let gen_meter = gen.snapshot();
        self.enclave.meter().add_snapshot(gen_meter);
        let rows = store.fetch_batch(rt.epoch_id, &issued.trapdoors)?;
        bump_phase(&self.phases.fetch_ns, fetch_start);

        let mut fake_claimed = Vec::new();
        if want_verify {
            let verify_start = Instant::now();
            fake_claimed = verify_fetch(key.as_ref(), &issued, &rows, &rt.tags)?;
            bump_phase(&self.phases.verify_ns, verify_start);
        }
        Ok(BinEntry {
            key,
            round,
            trapdoors: issued.trapdoors,
            gen_meter,
            decoded: DecodedBin::new(rows.len()),
            rows,
            fake_claimed,
            verified: want_verify,
            oblivious,
        })
    }

    /// Filter and aggregate one fetched unit's rows for one query, folding
    /// the matches and the fetch/decrypt counts into the epoch's partial —
    /// the accumulate step every method ends in. The plain fold
    /// accumulates straight into the partial; on an error the query fails
    /// and its partials are dropped. The filter plan is
    /// memoized per `(epoch, round)` in the caller-provided memo (plans
    /// depend only on the round key, the config and the query, so every
    /// fetch of a round shares one plan), and per-row payload decodes and
    /// the row indexes go through the entry's [`DecodedBin`], so each row
    /// is decrypted and indexed at most once per entry lifetime regardless
    /// of how many queries visit it.
    pub(super) fn fold_entry(
        &self,
        rt: &EpochRuntime,
        entry: &BinEntry,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<()> {
        let start = Instant::now();
        let key = entry.key.as_ref();
        let (rows, decoded, mask) = (&entry.rows, &entry.decoded, &entry.fake_claimed);
        part.rows_fetched += rows.len();
        let plan: &FilterPlan = memo
            .entry((rt.epoch_id, entry.round))
            .or_insert_with(|| build_filter_plan(key, &self.config, &query.predicate, rt.window));
        let (meter, aggregate, acc) = (self.enclave.meter(), &query.aggregate, &mut part.acc);
        let rows_decrypted = if self.oblivious_enabled(opts) {
            process_rows_oblivious(key, plan, aggregate, rows, decoded, mask, meter).map(
                |(unit, rows_decrypted)| {
                    acc.merge(unit);
                    rows_decrypted
                },
            )
        } else {
            process_rows_plain(key, plan, aggregate, rows, decoded, mask, meter, acc)
        };
        bump_phase(&self.phases.decrypt_ns, start);
        part.rows_decrypted += rows_decrypted?;
        Ok(())
    }
}

/// What fetching one whole bin asks the store for: every cell-id packed in
/// the bin with its tuple count, plus the bin's fake-tuple range.
fn bin_fetch_spec(rt: &EpochRuntime, bin_idx: usize) -> FetchSpec {
    let bin = &rt.bin_plan.bins[bin_idx];
    FetchSpec {
        cells: bin
            .cell_ids
            .iter()
            .map(|&cid| (cid, rt.c_tuple[cid as usize]))
            .collect(),
        fake_range: bin.fake_range,
    }
}
