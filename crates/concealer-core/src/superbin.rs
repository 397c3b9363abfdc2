//! Super-bins: defending against query-workload attacks (§8 of the paper).
//!
//! Even with identically-sized bins, bins that cover *more distinct
//! queryable values* are retrieved more often under a uniform query
//! workload, which leaks how many distinct values each bin holds
//! (Example 8.1). The fix is to group bins into `f` **super-bins** whose
//! total number of distinct values is as balanced as possible, and to fetch
//! the whole super-bin whenever any of its bins is needed — the retrieval
//! frequencies of super-bins are then nearly uniform.
//!
//! The "number of distinct values" of a bin is, in grid terms, the number of
//! grid cells whose cell-id belongs to the bin: a query for any attribute
//! value hashing into one of those cells retrieves this bin.

use crate::bins::BinPlan;

/// A grouping of bins into super-bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperBinPlan {
    /// `super_bins[s]` lists the bin indices grouped into super-bin `s`.
    pub super_bins: Vec<Vec<usize>>,
    /// `bin_to_super[b]` is the super-bin that contains bin `b`.
    pub bin_to_super: Vec<usize>,
    /// The per-bin weights (distinct-value counts) the plan balanced.
    pub bin_weights: Vec<u64>,
}

impl SuperBinPlan {
    /// Build a super-bin plan.
    ///
    /// * `bin_plan` — the BPB bin plan.
    /// * `cells_per_cell_id[cid]` — how many grid cells were assigned
    ///   cell-id `cid` (the enclave computes this from the decrypted
    ///   `cell_id[]` vector).
    /// * `num_super_bins` — the paper's `f`; clamped to `[1, #bins]`.
    ///
    /// The construction follows §8: sort bins by decreasing weight, seed
    /// each super-bin with one of the `f` heaviest bins, then repeatedly
    /// give the next-heaviest bin to the super-bin with the smallest total
    /// weight among those with the fewest bins (keeping super-bin sizes
    /// within one of each other).
    #[must_use]
    pub fn build(bin_plan: &BinPlan, cells_per_cell_id: &[u32], num_super_bins: usize) -> Self {
        let num_bins = bin_plan.num_bins();
        let bin_weights: Vec<u64> = bin_plan
            .bins
            .iter()
            .map(|bin| {
                bin.cell_ids
                    .iter()
                    .map(|&cid| {
                        u64::from(cells_per_cell_id.get(cid as usize).copied().unwrap_or(0))
                    })
                    .sum()
            })
            .collect();

        if num_bins == 0 {
            return SuperBinPlan {
                super_bins: Vec::new(),
                bin_to_super: Vec::new(),
                bin_weights,
            };
        }
        let f = num_super_bins.clamp(1, num_bins);

        let mut order: Vec<usize> = (0..num_bins).collect();
        order.sort_by_key(|&b| std::cmp::Reverse(bin_weights[b]));

        let mut super_bins: Vec<Vec<usize>> = vec![Vec::new(); f];
        let mut totals: Vec<u64> = vec![0; f];
        let mut bin_to_super = vec![0usize; num_bins];

        for (rank, &bin) in order.iter().enumerate() {
            let target = if rank < f {
                // Seeding round: the f heaviest bins each start a super-bin.
                rank
            } else {
                // Among the super-bins with the minimum bin count, pick the
                // one with the smallest accumulated weight.
                let min_len = super_bins.iter().map(Vec::len).min().unwrap_or(0);
                (0..f)
                    .filter(|&s| super_bins[s].len() == min_len)
                    .min_by_key(|&s| totals[s])
                    .unwrap_or(0)
            };
            super_bins[target].push(bin);
            totals[target] += bin_weights[bin];
            bin_to_super[bin] = target;
        }

        SuperBinPlan {
            super_bins,
            bin_to_super,
            bin_weights,
        }
    }

    /// Number of super-bins.
    #[must_use]
    pub fn num_super_bins(&self) -> usize {
        self.super_bins.len()
    }

    /// The super-bin containing a bin.
    #[must_use]
    pub fn super_of_bin(&self, bin: usize) -> Option<usize> {
        self.bin_to_super.get(bin).copied()
    }

    /// All bins fetched when `bin` is requested (its whole super-bin).
    #[must_use]
    pub fn fetch_set_for_bin(&self, bin: usize) -> &[usize] {
        match self.super_of_bin(bin) {
            Some(s) => &self.super_bins[s],
            None => &[],
        }
    }

    /// Expected retrieval frequency of each super-bin under a uniform query
    /// workload (each distinct value queried once): the sum of its bins'
    /// weights.
    #[must_use]
    pub fn retrieval_frequencies(&self) -> Vec<u64> {
        self.super_bins
            .iter()
            .map(|bins| bins.iter().map(|&b| self.bin_weights[b]).sum())
            .collect()
    }

    /// The max/min ratio of super-bin retrieval frequencies; 1.0 is
    /// perfectly balanced. Returns `f64::INFINITY` when some super-bin would
    /// never be retrieved.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let freqs = self.retrieval_frequencies();
        let max = freqs.iter().copied().max().unwrap_or(0);
        let min = freqs.iter().copied().min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::BinPlan;
    use proptest::prelude::*;

    /// Build a bin plan whose bins end up with controllable weights by
    /// giving every cell-id the same tuple count (so FFD packs a fixed
    /// number of cell-ids per bin) and assigning cells-per-cell-id directly.
    fn plan_with_weights(num_cell_ids: usize) -> BinPlan {
        let c_tuple = vec![10u32; num_cell_ids];
        BinPlan::build(&c_tuple, Some(30))
    }

    #[test]
    fn paper_example_8_1_balancing() {
        // 12 bins with unique-value counts 1,2,9,1,2,10,1,1,1,8,2,7 and f=4
        // super-bins: the paper's grouping achieves frequencies 12,12,11,10.
        // Our greedy achieves the same multiset of totals (order may differ).
        let weights = [1u64, 2, 9, 1, 2, 10, 1, 1, 1, 8, 2, 7];
        // Build a synthetic plan with 12 bins of one cell-id each.
        let c_tuple = vec![5u32; 12];
        let plan = BinPlan::build(&c_tuple, Some(5));
        assert_eq!(plan.num_bins(), 12);
        // cells_per_cell_id keyed by cell-id: bin i holds exactly one
        // cell-id, so map that cell-id to the example's weight.
        let mut cells_per_cid = vec![0u32; 12];
        for (i, bin) in plan.bins.iter().enumerate() {
            cells_per_cid[bin.cell_ids[0] as usize] = weights[i] as u32;
        }
        let sb = SuperBinPlan::build(&plan, &cells_per_cid, 4);
        let mut freqs = sb.retrieval_frequencies();
        freqs.sort_unstable();
        assert_eq!(freqs.iter().sum::<u64>(), 45);
        assert!(sb.imbalance() <= 1.3, "frequencies {freqs:?} not balanced");
        // Every super-bin has exactly 3 bins.
        assert!(sb.super_bins.iter().all(|b| b.len() == 3));
    }

    #[test]
    fn every_bin_in_exactly_one_super_bin() {
        let plan = plan_with_weights(30);
        let cells: Vec<u32> = (0..30).map(|i| (i % 7 + 1) as u32).collect();
        let sb = SuperBinPlan::build(&plan, &cells, 4);
        let mut seen = vec![0usize; plan.num_bins()];
        for bins in &sb.super_bins {
            for &b in bins {
                seen[b] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        for b in 0..plan.num_bins() {
            assert!(sb.fetch_set_for_bin(b).contains(&b));
        }
    }

    #[test]
    fn f_clamped_to_bin_count() {
        let plan = plan_with_weights(6);
        let cells = vec![1u32; 6];
        let sb = SuperBinPlan::build(&plan, &cells, 100);
        assert!(sb.num_super_bins() <= plan.num_bins());
        let sb1 = SuperBinPlan::build(&plan, &cells, 0);
        assert_eq!(sb1.num_super_bins(), 1);
    }

    #[test]
    fn empty_plan() {
        let plan = BinPlan::build(&[], None);
        let sb = SuperBinPlan::build(&plan, &[], 4);
        assert_eq!(sb.num_super_bins(), 0);
        assert_eq!(sb.imbalance(), 1.0);
        assert!(sb.fetch_set_for_bin(3).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Super-binning always reduces (or preserves) the retrieval
        /// frequency imbalance compared to fetching bins individually.
        #[test]
        fn prop_balances_within_factor(
            weights in proptest::collection::vec(1u32..50, 8..40),
            f in 2usize..6,
        ) {
            let c_tuple = vec![5u32; weights.len()];
            let plan = BinPlan::build(&c_tuple, Some(5));
            prop_assume!(plan.num_bins() == weights.len());
            let mut cells = vec![0u32; weights.len()];
            for (i, bin) in plan.bins.iter().enumerate() {
                cells[bin.cell_ids[0] as usize] = weights[i];
            }
            let sb = SuperBinPlan::build(&plan, &cells, f);
            let per_bin_max = *weights.iter().max().unwrap() as f64;
            let per_bin_min = *weights.iter().min().unwrap() as f64;
            let raw_imbalance = per_bin_max / per_bin_min;
            prop_assert!(sb.imbalance() <= raw_imbalance + 1e-9,
                "super-bin imbalance {} worse than raw {}", sb.imbalance(), raw_imbalance);
            // And the greedy should keep super-bin sizes within one bin.
            let sizes: Vec<usize> = sb.super_bins.iter().map(Vec::len).collect();
            let max_s = *sizes.iter().max().unwrap();
            let min_s = *sizes.iter().min().unwrap();
            prop_assert!(max_s - min_s <= 1);
        }
    }
}
