//! Bin packing over cell-ids (§4.1 of the paper).
//!
//! The enclave groups cell-ids into **bins of identical size**: the inputs
//! to the packing algorithm are the cell-ids, each weighted by the number of
//! tuples that carry it (`c_tuple[]`), the bin capacity is at least the
//! largest weight, and First-Fit Decreasing (FFD) assigns every cell-id to
//! exactly one bin. Bins that end up lighter
//! than the capacity are padded with *disjoint* ranges of fake-tuple ids —
//! disjoint because reusing a fake tuple across two bins would let the
//! adversary subtract it out (Example 4.1 of the paper).
//!
//! Theorem 4.1 of the paper bounds the construction: with bin size `|b|`
//! at least the maximum weight, FFD needs at most `2n/|b|` bins and at
//! most `n + |b|/2` fake tuples for `n` real tuples. The property tests at
//! the bottom of this module check those bounds hold for every generated
//! instance.
//!
//! The same metadata sizes winSecRange's intervals ([`WinSecPlan`], §5.3)
//! and eBPB's windows ([`max_window_load`], §5.2); [`fake_budget`], the
//! largest need of the three methods, is how many fakes an epoch holds.
//! Theorem 4.1 bounds the BPB need only.

/// One bin of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bin {
    /// Cell-ids assigned to this bin.
    pub cell_ids: Vec<u32>,
    /// Total real tuples across those cell-ids.
    pub real_tuples: u64,
    /// Fake tuple ids `[start, end)` padding this bin up to the bin size.
    /// Ranges of different bins are disjoint.
    pub fake_range: (u64, u64),
}

impl Bin {
    /// Number of fake tuples this bin needs.
    #[must_use]
    pub fn fake_tuples(&self) -> u64 {
        self.fake_range.1 - self.fake_range.0
    }

    /// Total tuples (real + fake) fetched when this bin is retrieved.
    #[must_use]
    pub fn total_tuples(&self) -> u64 {
        self.real_tuples + self.fake_tuples()
    }
}

/// The complete bin plan for one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinPlan {
    /// The bins, in construction order.
    pub bins: Vec<Bin>,
    /// The common size every bin is padded to.
    pub bin_size: u64,
    /// Which bin each cell-id landed in, indexed by cell-id: every
    /// cell-id of `c_tuple` lands in exactly one bin.
    cell_to_bin: Vec<u32>,
}

impl BinPlan {
    /// Build a bin plan from the per-cell-id tuple counts by First-Fit
    /// Decreasing.
    ///
    /// * `c_tuple[i]` is the number of real tuples whose cell-id is `i`.
    /// * `min_bin_size` optionally raises the bin capacity above the
    ///   maximum weight (used by eBPB / winSecRange, which derive the size
    ///   from range-window sums instead).
    #[must_use]
    pub fn build(c_tuple: &[u32], min_bin_size: Option<u64>) -> Self {
        let max_weight = c_tuple.iter().copied().max().unwrap_or(0) as u64;
        let bin_size = min_bin_size.unwrap_or(0).max(max_weight).max(1);

        // Sort cell-ids by decreasing weight (the "Decreasing" in FFD).
        let mut order: Vec<u32> = (0..c_tuple.len() as u32).collect();
        order.sort_by_key(|&cid| std::cmp::Reverse(c_tuple[cid as usize]));

        let mut bins: Vec<Bin> = Vec::new();
        let mut loads: Vec<u64> = Vec::new();

        for cid in order {
            let w = c_tuple[cid as usize] as u64;
            match loads.iter().position(|&load| load + w <= bin_size) {
                Some(i) => {
                    bins[i].cell_ids.push(cid);
                    bins[i].real_tuples += w;
                    loads[i] += w;
                }
                None => {
                    bins.push(Bin {
                        cell_ids: vec![cid],
                        real_tuples: w,
                        fake_range: (0, 0),
                    });
                    loads.push(w);
                }
            }
        }

        // Assign disjoint fake-id ranges to pad every bin to bin_size.
        let mut next_fake = 0u64;
        for bin in &mut bins {
            let need = bin_size - bin.real_tuples;
            bin.fake_range = (next_fake, next_fake + need);
            next_fake += need;
        }

        let mut cell_to_bin = vec![0u32; c_tuple.len()];
        for (i, bin) in bins.iter().enumerate() {
            for &cid in &bin.cell_ids {
                cell_to_bin[cid as usize] = i as u32;
            }
        }

        BinPlan {
            bins,
            bin_size,
            cell_to_bin,
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Total real tuples covered by the plan.
    #[must_use]
    pub fn total_real_tuples(&self) -> u64 {
        self.bins.iter().map(|b| b.real_tuples).sum()
    }

    /// Total fake tuples required to pad every bin.
    #[must_use]
    pub fn total_fake_tuples(&self) -> u64 {
        self.bins.iter().map(Bin::fake_tuples).sum()
    }

    /// The bin (index) containing a cell-id, if the cell-id exists.
    #[must_use]
    pub(crate) fn bin_of_cell(&self, cell_id: u32) -> Option<usize> {
        self.cell_to_bin
            .get(cell_id as usize)
            .map(|&bin| bin as usize)
    }

    /// Maximum number of cell-ids in any bin (`#C_max` in §4.3, used to size
    /// the oblivious trapdoor generation).
    #[must_use]
    pub fn max_cells_per_bin(&self) -> usize {
        self.bins
            .iter()
            .map(|b| b.cell_ids.len())
            .max()
            .unwrap_or(0)
    }

    /// Maximum number of fake tuples any bin needs (`#f_max` in §4.3).
    #[must_use]
    pub fn max_fakes_per_bin(&self) -> u64 {
        self.bins.iter().map(Bin::fake_tuples).max().unwrap_or(0)
    }
}

/// One fixed time interval of a [`WinSecPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WinSecInterval {
    /// Every cell-id with at least one grid cell in the interval's time
    /// rows, with its tuple count.
    pub cells: Vec<(u32, u32)>,
    /// Real tuples across those cell-ids.
    pub real: u64,
}

/// The winSecRange fixed-interval plan of one epoch (§5.3): the epoch's
/// time rows cut into intervals of `rows_per_interval` rows, each fetched
/// whole and padded to the largest interval's size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WinSecPlan {
    /// The intervals, in time order.
    pub intervals: Vec<WinSecInterval>,
    /// Common (maximum) interval size in tuples.
    pub interval_size: u64,
    /// Interval length in grid time rows (λ).
    pub rows_per_interval: u64,
}

impl WinSecPlan {
    /// Build the plan from `cell_id[]` (`assignment`, time the fastest
    /// coordinate) and `c_tuple[]`, cutting `time_rows` rows every `lambda`
    /// (clamped to `[1, time_rows]`). A cell-id may appear in several
    /// intervals (the PRF assignment is not time-stratified): an interval
    /// retrieves every tuple of every cell-id that *could* hold its tuples.
    #[must_use]
    pub fn build(assignment: &[u32], c_tuple: &[u32], time_rows: u64, lambda: u64) -> Self {
        let lambda = lambda.max(1).min(time_rows);
        let num_intervals = time_rows.div_ceil(lambda) as usize;
        let mut interval_cells: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_intervals];
        let mut seen = vec![vec![false; c_tuple.len()]; num_intervals];
        for (flat, &cid) in assignment.iter().enumerate() {
            let interval = ((flat as u64 % time_rows) / lambda) as usize;
            if !seen[interval][cid as usize] {
                seen[interval][cid as usize] = true;
                interval_cells[interval].push((cid, c_tuple[cid as usize]));
            }
        }
        let intervals: Vec<WinSecInterval> = interval_cells
            .into_iter()
            .map(|cells| WinSecInterval {
                real: cells.iter().map(|&(_, c)| u64::from(c)).sum(),
                cells,
            })
            .collect();
        let interval_size = intervals.iter().map(|i| i.real).max().unwrap_or(0);
        WinSecPlan {
            intervals,
            interval_size,
            rows_per_interval: lambda,
        }
    }

    /// Fake tuples padding every interval to the common size: the most any
    /// interval set asks for.
    #[must_use]
    pub fn total_fake_tuples(&self) -> u64 {
        self.intervals
            .iter()
            .map(|i| self.interval_size - i.real)
            .sum()
    }
}

/// The most tuples any `window_len` consecutive time rows of one grid
/// column hold (`window_len` clamped to `[1, time_rows]`): the eBPB fetch
/// size of an ℓ-row range (§5.2). `cell_counts` are the per-flat-cell
/// tuple counts, `time_rows` per column.
#[must_use]
pub fn max_window_load(cell_counts: &[u32], time_rows: u64, window_len: u64) -> u64 {
    let y = time_rows as usize;
    let len = (window_len as usize).clamp(1, y);
    let mut best = 0u64;
    for column in cell_counts.chunks_exact(y) {
        let mut window_sum: u64 = column[..len].iter().map(|&c| u64::from(c)).sum();
        best = best.max(window_sum);
        for i in len..y {
            window_sum += u64::from(column[i]);
            window_sum -= u64::from(column[i - len]);
            best = best.max(window_sum);
        }
    }
    best
}

/// How many fake tuples an epoch holds: the largest of the BPB need (every
/// bin padded), the winSecRange need (every interval padded) and the eBPB
/// need (the ℓ = y window, the largest column total), so no fetch asks for
/// a fake index at or above it. The data provider ships exactly this many;
/// the enclave derives it from the sealed metadata, not from the host.
#[must_use]
pub fn fake_budget(bins: &BinPlan, winsec: &WinSecPlan, counts: &[u32], time_rows: u64) -> u64 {
    bins.total_fake_tuples()
        .max(winsec.total_fake_tuples())
        .max(max_window_load(counts, time_rows, time_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_4_1() {
        // c_tuple[5] = {79, 2, 73, 7, 7}: bin size 79, three bins, 69 fakes.
        let c_tuple = [79u32, 2, 73, 7, 7];
        let plan = BinPlan::build(&c_tuple, None);
        assert_eq!(plan.bin_size, 79);
        assert_eq!(plan.num_bins(), 3);
        assert_eq!(plan.total_fake_tuples(), 69);
        // Every bin padded to exactly the bin size.
        for bin in &plan.bins {
            assert_eq!(bin.total_tuples(), 79);
        }
    }

    #[test]
    fn every_cell_id_in_exactly_one_bin() {
        let c_tuple: Vec<u32> = (0..100).map(|i| (i * 7 % 23) as u32).collect();
        let plan = BinPlan::build(&c_tuple, None);
        let mut seen = vec![0u32; c_tuple.len()];
        for bin in &plan.bins {
            for &cid in &bin.cell_ids {
                seen[cid as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
        for cid in 0..c_tuple.len() as u32 {
            assert!(plan.bin_of_cell(cid).is_some());
        }
        assert_eq!(plan.bin_of_cell(100), None);
    }

    #[test]
    fn fake_ranges_are_disjoint_and_cover_padding() {
        let c_tuple = [10u32, 3, 9, 1, 0, 6];
        let plan = BinPlan::build(&c_tuple, None);
        let mut ranges: Vec<(u64, u64)> = plan.bins.iter().map(|b| b.fake_range).collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "ranges overlap: {pair:?}");
        }
        for bin in &plan.bins {
            assert_eq!(bin.total_tuples(), plan.bin_size);
        }
    }

    #[test]
    fn min_bin_size_raises_capacity() {
        let c_tuple = [5u32, 5, 5];
        let plan = BinPlan::build(&c_tuple, Some(100));
        assert_eq!(plan.bin_size, 100);
        assert_eq!(plan.num_bins(), 1, "all inputs fit one large bin");
    }

    #[test]
    fn empty_and_all_zero_inputs() {
        let plan = BinPlan::build(&[], None);
        assert_eq!(plan.num_bins(), 0);
        assert_eq!(plan.total_fake_tuples(), 0);

        let plan = BinPlan::build(&[0, 0, 0], None);
        assert_eq!(plan.total_real_tuples(), 0);
        // Zero-weight cell-ids still land in exactly one bin so point
        // queries on empty cells have something to fetch.
        assert!(plan.num_bins() >= 1);
        for cid in 0..3 {
            assert!(plan.bin_of_cell(cid).is_some());
        }
    }

    #[test]
    fn fake_budget_is_the_largest_need() {
        // Two columns of four time rows (time fastest), λ = 2: cell-id 0
        // spans both intervals of column 0, so each of its intervals
        // retrieves all five of its tuples.
        let assignment = [0, 0, 0, 1, 2, 2, 3, 3];
        let c_tuple = [5, 1, 2, 0];
        let counts = [2, 1, 2, 1, 1, 1, 0, 0];
        let winsec = WinSecPlan::build(&assignment, &c_tuple, 4, 2);
        let reals: Vec<u64> = winsec.intervals.iter().map(|i| i.real).collect();
        assert_eq!((reals, winsec.interval_size), (vec![7, 6], 7));
        assert_eq!(winsec.total_fake_tuples(), 1);
        assert_eq!(max_window_load(&counts, 4, 1), 2);
        assert_eq!(max_window_load(&counts, 4, 4), 6);
        let bins = BinPlan::build(&c_tuple, None);
        assert_eq!(bins.total_fake_tuples(), 2);
        assert_eq!(fake_budget(&bins, &winsec, &counts, 4), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Theorem 4.1: #bins <= ceil(2n/|b|) + 1 and #fakes <= n + |b|.
        /// (The paper states 2n/|b| and n + |b|/2 for n >> |b|; the +1 / +|b|
        /// slack covers the tiny-instance cases the asymptotic statement
        /// ignores.)
        #[test]
        fn prop_theorem_4_1_bounds(c_tuple in proptest::collection::vec(0u32..500, 1..200)) {
            let plan = BinPlan::build(&c_tuple, None);
            let n: u64 = c_tuple.iter().map(|&c| c as u64).sum();
            let b = plan.bin_size;
            prop_assert!(plan.num_bins() as u64 <= 2 * n / b + 1,
                "bins {} exceeds bound for n={n}, b={b}", plan.num_bins());
            prop_assert!(plan.total_fake_tuples() <= n + b,
                "fakes {} exceeds bound for n={n}, b={b}", plan.total_fake_tuples());
            // All bins identical size after padding.
            for bin in &plan.bins {
                prop_assert_eq!(bin.total_tuples(), plan.bin_size);
            }
            // Every cell-id appears exactly once.
            let mut count = vec![0u32; c_tuple.len()];
            for bin in &plan.bins {
                for &cid in &bin.cell_ids {
                    count[cid as usize] += 1;
                }
            }
            prop_assert!(count.iter().all(|&c| c == 1));
        }

        /// The dense cell-to-bin table agrees with the bins' own lists,
        /// and names no bin for a cell-id the plan was not built over.
        #[test]
        fn prop_bin_of_cell_is_the_bin_listing_it(
            c_tuple in proptest::collection::vec(0u32..300, 0..150),
            min_bin_size in 0u64..600,
        ) {
            let plan = BinPlan::build(&c_tuple, Some(min_bin_size));
            for (i, bin) in plan.bins.iter().enumerate() {
                for &cid in &bin.cell_ids {
                    prop_assert_eq!(plan.bin_of_cell(cid), Some(i));
                }
            }
            let listed: usize = plan.bins.iter().map(|b| b.cell_ids.len()).sum();
            prop_assert_eq!(listed, c_tuple.len());
            for cid in c_tuple.len() as u32..c_tuple.len() as u32 + 3 {
                prop_assert_eq!(plan.bin_of_cell(cid), None);
            }
            prop_assert_eq!(plan.bin_of_cell(u32::MAX), None);
        }

        /// All-but-one bins at least half full (the FFD property the
        /// paper's proof leans on), ignoring zero-weight-only bins.
        #[test]
        fn prop_half_full(c_tuple in proptest::collection::vec(1u32..300, 2..150)) {
            let plan = BinPlan::build(&c_tuple, None);
            let under_half = plan
                .bins
                .iter()
                .filter(|b| b.real_tuples * 2 < plan.bin_size)
                .count();
            prop_assert!(under_half <= 1, "more than one bin under half full");
        }
    }
}
