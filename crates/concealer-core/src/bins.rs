//! Bin packing over cell-ids (§4.1 of the paper).
//!
//! The enclave groups cell-ids into **bins of identical size**: the inputs
//! to the packing algorithm are the cell-ids, each weighted by the number of
//! tuples that carry it (`c_tuple[]`), the bin capacity is at least the
//! largest weight, and First-Fit Decreasing (FFD) or Best-Fit Decreasing
//! (BFD) assigns every cell-id to exactly one bin. Bins that end up lighter
//! than the capacity are padded with *disjoint* ranges of fake-tuple ids —
//! disjoint because reusing a fake tuple across two bins would let the
//! adversary subtract it out (Example 4.1 of the paper).
//!
//! Theorem 4.1 of the paper bounds the construction: with bin size `|b|`
//! at least the maximum weight, FFD/BFD needs at most `2n/|b|` bins and at
//! most `n + |b|/2` fake tuples for `n` real tuples. The property tests at
//! the bottom of this module check those bounds hold for every generated
//! instance.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which classical bin-packing heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PackingAlgorithm {
    /// First-Fit Decreasing.
    FirstFitDecreasing,
    /// Best-Fit Decreasing.
    BestFitDecreasing,
}

/// One bin of the plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinPlan {
    /// The bins, in construction order.
    pub bins: Vec<Bin>,
    /// The common size every bin is padded to.
    pub bin_size: u64,
    /// Which bin each cell-id landed in (`cell_id -> bin index`).
    cell_to_bin: HashMap<u32, usize>,
}

impl BinPlan {
    /// Build a bin plan from the per-cell-id tuple counts.
    ///
    /// * `c_tuple[i]` is the number of real tuples whose cell-id is `i`.
    /// * `algorithm` selects FFD or BFD.
    /// * `min_bin_size` optionally raises the bin capacity above the
    ///   maximum weight (used by eBPB / winSecRange, which derive the size
    ///   from range-window sums instead).
    #[must_use]
    pub fn build(c_tuple: &[u32], algorithm: PackingAlgorithm, min_bin_size: Option<u64>) -> Self {
        let max_weight = c_tuple.iter().copied().max().unwrap_or(0) as u64;
        let bin_size = min_bin_size.unwrap_or(0).max(max_weight).max(1);

        // Sort cell-ids by decreasing weight (the "Decreasing" in FFD/BFD).
        let mut order: Vec<u32> = (0..c_tuple.len() as u32).collect();
        order.sort_by_key(|&cid| std::cmp::Reverse(c_tuple[cid as usize]));

        let mut bins: Vec<Bin> = Vec::new();
        let mut loads: Vec<u64> = Vec::new();

        for cid in order {
            let w = c_tuple[cid as usize] as u64;
            let slot = match algorithm {
                PackingAlgorithm::FirstFitDecreasing => {
                    loads.iter().position(|&load| load + w <= bin_size)
                }
                PackingAlgorithm::BestFitDecreasing => loads
                    .iter()
                    .enumerate()
                    .filter(|(_, &load)| load + w <= bin_size)
                    .max_by_key(|(_, &load)| load)
                    .map(|(i, _)| i),
            };
            match slot {
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

        let cell_to_bin = bins
            .iter()
            .enumerate()
            .flat_map(|(i, b)| b.cell_ids.iter().map(move |&cid| (cid, i)))
            .collect();

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
    pub fn bin_of_cell(&self, cell_id: u32) -> Option<usize> {
        self.cell_to_bin.get(&cell_id).copied()
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_4_1() {
        // c_tuple[5] = {79, 2, 73, 7, 7}: bin size 79, three bins, 69 fakes.
        let c_tuple = [79u32, 2, 73, 7, 7];
        let plan = BinPlan::build(&c_tuple, PackingAlgorithm::FirstFitDecreasing, None);
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
        let plan = BinPlan::build(&c_tuple, PackingAlgorithm::FirstFitDecreasing, None);
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
        for algo in [
            PackingAlgorithm::FirstFitDecreasing,
            PackingAlgorithm::BestFitDecreasing,
        ] {
            let plan = BinPlan::build(&c_tuple, algo, None);
            let mut ranges: Vec<(u64, u64)> = plan.bins.iter().map(|b| b.fake_range).collect();
            ranges.sort_unstable();
            for pair in ranges.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "ranges overlap: {pair:?}");
            }
            for bin in &plan.bins {
                assert_eq!(bin.total_tuples(), plan.bin_size);
            }
        }
    }

    #[test]
    fn min_bin_size_raises_capacity() {
        let c_tuple = [5u32, 5, 5];
        let plan = BinPlan::build(&c_tuple, PackingAlgorithm::FirstFitDecreasing, Some(100));
        assert_eq!(plan.bin_size, 100);
        assert_eq!(plan.num_bins(), 1, "all inputs fit one large bin");
    }

    #[test]
    fn empty_and_all_zero_inputs() {
        let plan = BinPlan::build(&[], PackingAlgorithm::FirstFitDecreasing, None);
        assert_eq!(plan.num_bins(), 0);
        assert_eq!(plan.total_fake_tuples(), 0);

        let plan = BinPlan::build(&[0, 0, 0], PackingAlgorithm::FirstFitDecreasing, None);
        assert_eq!(plan.total_real_tuples(), 0);
        // Zero-weight cell-ids still land in exactly one bin so point
        // queries on empty cells have something to fetch.
        assert!(plan.num_bins() >= 1);
        for cid in 0..3 {
            assert!(plan.bin_of_cell(cid).is_some());
        }
    }

    #[test]
    fn bfd_fills_at_least_as_tightly_as_ffd() {
        let c_tuple: Vec<u32> = vec![40, 35, 30, 25, 20, 15, 10, 5, 5, 5];
        let ffd = BinPlan::build(&c_tuple, PackingAlgorithm::FirstFitDecreasing, None);
        let bfd = BinPlan::build(&c_tuple, PackingAlgorithm::BestFitDecreasing, None);
        assert_eq!(ffd.total_real_tuples(), bfd.total_real_tuples());
        // Both respect the capacity.
        assert!(ffd.bins.iter().all(|b| b.real_tuples <= ffd.bin_size));
        assert!(bfd.bins.iter().all(|b| b.real_tuples <= bfd.bin_size));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Theorem 4.1: #bins <= ceil(2n/|b|) + 1 and #fakes <= n + |b|.
        /// (The paper states 2n/|b| and n + |b|/2 for n >> |b|; the +1 / +|b|
        /// slack covers the tiny-instance cases the asymptotic statement
        /// ignores.)
        #[test]
        fn prop_theorem_4_1_bounds(c_tuple in proptest::collection::vec(0u32..500, 1..200)) {
            for algo in [PackingAlgorithm::FirstFitDecreasing, PackingAlgorithm::BestFitDecreasing] {
                let plan = BinPlan::build(&c_tuple, algo, None);
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
        }

        /// All-but-one bins at least half full (the FFD/BFD property the
        /// paper's proof leans on), ignoring zero-weight-only bins.
        #[test]
        fn prop_half_full(c_tuple in proptest::collection::vec(1u32..300, 2..150)) {
            let plan = BinPlan::build(&c_tuple, PackingAlgorithm::FirstFitDecreasing, None);
            let under_half = plan
                .bins
                .iter()
                .filter(|b| b.real_tuples * 2 < plan.bin_size)
                .count();
            prop_assert!(under_half <= 1, "more than one bin under half full");
        }
    }
}
