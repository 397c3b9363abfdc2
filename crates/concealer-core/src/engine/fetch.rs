//! Fetching: one bin (through the decrypted-bin cache) or one cell-group,
//! verification of what came back ([`verify_fetch`]), and the accumulate
//! step that folds fetched rows into a query's [`EpochPartial`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use concealer_crypto::{EpochId, EpochKey};
use concealer_enclave::SideChannelMeter;
use concealer_storage::{EpochStore, RowArena};

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
    /// re-verification and payload re-decryption.
    ///
    /// Takes the store handle explicitly so the parallel batch path can
    /// substitute a handle bound to a task-local observer (same stored
    /// data, buffered trace); sequential paths pass `&self.store`.
    pub(super) fn fetch_bin_rows(
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

        let fetch_start = Instant::now();
        let key = self.enclave.epoch_key(EpochId(rt.epoch_id), round);
        let spec = bin_fetch_spec(rt, bin_idx);
        // Generate against a private meter so the exact counters this
        // fetch produces can be replayed verbatim on warm hits; the shared
        // meter receives the identical totals via the snapshot below.
        let gen = SideChannelMeter::new();
        let issued = if oblivious {
            generate_oblivious(
                key.as_ref(),
                &spec,
                rt.bin_plan.max_cells_per_bin(),
                rt.max_cell_id_load,
                rt.bin_plan.max_fakes_per_bin(),
                &gen,
            )
        } else {
            generate_plain(key.as_ref(), &spec, &gen)
        };
        let gen_meter = gen.snapshot();
        self.enclave.meter().add_snapshot(gen_meter);
        let rows = store.fetch_batch(rt.epoch_id, &issued.trapdoors)?;
        bump_phase(&self.phases.fetch_ns, fetch_start);

        if want_verify {
            let verify_start = Instant::now();
            verify_fetch(key.as_ref(), &issued, &rows, &rt.tags)?;
            bump_phase(&self.phases.verify_ns, verify_start);
        }
        self.bin_cache.record_miss();
        let entry = Arc::new(BinEntry {
            key,
            round,
            trapdoors: issued.trapdoors,
            gen_meter,
            decoded: DecodedBin::new(rows.len()),
            rows,
            verified: want_verify,
            oblivious,
        });
        // The entry this evicts, if any, is freed here, outside the lock.
        drop(self.bin_cache.insert(cache_key, Arc::clone(&entry)));
        Ok(entry)
    }

    /// Fetch one bin and fold its matching tuples into `part`, returning
    /// what was fetched (the §6 protocol re-encrypts exactly that).
    pub(super) fn fetch_and_fold_bin(
        &self,
        rt: &EpochRuntime,
        bin_idx: usize,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<Arc<BinEntry>> {
        let entry = self.fetch_bin_rows(&self.store, rt, bin_idx, opts)?;
        self.fold_entry(rt, &entry, query, opts, part, memo)?;
        Ok(entry)
    }

    /// Fold a fetched bin into one query's partial for the bin's epoch.
    pub(super) fn fold_entry(
        &self,
        rt: &EpochRuntime,
        entry: &BinEntry,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<()> {
        self.fold_rows(
            rt,
            entry.key.as_ref(),
            entry.round,
            &entry.rows,
            &entry.decoded,
            query,
            opts,
            part,
            memo,
        )
    }

    /// Filter and aggregate one fetch's rows for one query, folding the
    /// matches and the fetch/decrypt counts into the epoch's partial — the
    /// accumulate step every method and both stage executors end in. The
    /// filter plan is memoized per `(epoch, round)` in the caller-provided
    /// memo (plans depend only on the round key, the config and the query,
    /// so every fetch of a round shares one plan), and per-row payload
    /// decodes go through the shared [`DecodedBin`] so each row is decrypted
    /// at most once per entry lifetime regardless of how many queries visit
    /// it.
    #[allow(clippy::too_many_arguments)]
    fn fold_rows(
        &self,
        rt: &EpochRuntime,
        key: &EpochKey,
        round: u64,
        rows: &RowArena,
        decoded: &DecodedBin,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<()> {
        let start = Instant::now();
        part.rows_fetched += rows.len();
        let plan: &FilterPlan = memo
            .entry((rt.epoch_id, round))
            .or_insert_with(|| build_filter_plan(key, &self.config, &query.predicate, rt.window));
        let meter = self.enclave.meter();
        let out = if self.oblivious_enabled(opts) {
            process_rows_oblivious(key, plan, &query.aggregate, rows, decoded, meter)
        } else {
            process_rows_plain(key, plan, &query.aggregate, rows, decoded, meter)
        };
        bump_phase(&self.phases.decrypt_ns, start);
        let (acc, rows_decrypted) = out?;
        part.rows_decrypted += rows_decrypted;
        part.acc.merge(acc);
        Ok(())
    }

    /// The fetch tail eBPB and winSecRange share: group the cell-ids by
    /// their bin's re-encryption round (so trapdoors and filters use the
    /// right key even after §6 rewrites), and per round generate the
    /// trapdoors, fetch, verify the fetch and fold the rows into `part`.
    /// The `fakes` padding rides on the first group. Fetch and verify time
    /// feed the same phase counters as [`QueryEngine::fetch_bin_rows`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn fetch_cell_groups(
        &self,
        rt: &EpochRuntime,
        cids: &[u32],
        fakes: u64,
        query: &Query,
        opts: &ExecOptions,
        part: &mut EpochPartial,
        memo: &mut PlanMemo,
    ) -> Result<()> {
        let mut by_round: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new();
        for &cid in cids {
            let round = rt.bin_plan.bin_of_cell(cid).map_or(0, |b| rt.bin_rounds[b]);
            by_round
                .entry(round)
                .or_default()
                .push((cid, rt.c_tuple[cid as usize]));
        }

        let want_verify = self.verification_active(opts, rt);
        let mut fake_range = (0, fakes);
        for (round, cells) in by_round {
            let fetch_start = Instant::now();
            let key = self.enclave.epoch_key(EpochId(rt.epoch_id), round);
            let spec = FetchSpec { cells, fake_range };
            fake_range = (0, 0);
            let issued = generate_plain(key.as_ref(), &spec, self.enclave.meter());
            let rows = self.store.fetch_batch(rt.epoch_id, &issued.trapdoors)?;
            bump_phase(&self.phases.fetch_ns, fetch_start);
            if want_verify {
                let verify_start = Instant::now();
                verify_fetch(key.as_ref(), &issued, &rows, &rt.tags)?;
                bump_phase(&self.phases.verify_ns, verify_start);
            }
            let decoded = DecodedBin::new(rows.len());
            self.fold_rows(
                rt,
                key.as_ref(),
                round,
                &rows,
                &decoded,
                query,
                opts,
                part,
                memo,
            )?;
        }
        Ok(())
    }
}

/// What fetching one whole bin asks the store for: every cell-id packed in
/// the bin with its tuple count, plus the bin's fake-tuple range clamped to
/// the fakes the epoch actually shipped.
fn bin_fetch_spec(rt: &EpochRuntime, bin_idx: usize) -> FetchSpec {
    let bin = &rt.bin_plan.bins[bin_idx];
    let (lo, hi) = bin.fake_range;
    FetchSpec {
        cells: bin
            .cell_ids
            .iter()
            .map(|&cid| (cid, rt.c_tuple[cid as usize]))
            .collect(),
        fake_range: (lo.min(rt.total_fakes), hi.min(rt.total_fakes)),
    }
}
