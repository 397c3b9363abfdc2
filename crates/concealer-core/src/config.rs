//! System configuration.

use serde::{Deserialize, Serialize};

/// Shape of the grid Algorithm 1 builds over the indexed attributes and
/// time (the paper's `x × y` grid with `u` cell-ids).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridShape {
    /// Number of hash buckets for each indexed attribute. The WiFi
    /// deployment in the paper uses a single attribute (location) with 490
    /// buckets; the TPC-H 4-D index uses `[1500, 100, 10, 7]`.
    pub dim_buckets: Vec<u64>,
    /// Number of time subintervals per epoch (the paper's `y`; 16,000 for
    /// the WiFi grid).
    pub time_subintervals: u64,
    /// Number of cell-ids allocated over the grid (the paper's `u`, e.g.
    /// 87,000). Must be at least 1 and at most the number of grid cells.
    pub num_cell_ids: u32,
}

impl GridShape {
    /// Total number of grid cells (`x × y` in the paper's notation,
    /// generalized to the product of all dimension bucket counts times the
    /// time subintervals).
    #[must_use]
    pub fn total_cells(&self) -> u64 {
        self.dim_buckets.iter().product::<u64>() * self.time_subintervals
    }

    /// Number of indexed (non-time) attributes.
    #[must_use]
    pub fn num_dims(&self) -> usize {
        self.dim_buckets.len()
    }
}

/// How the data provider generates fake tuples (§3 of the paper). There
/// is one strategy, so this is not a choice: the type and
/// [`SystemConfig::fake_strategy`] exist only because `benchmark/` spells
/// the strategy it deploys, and go when it stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FakeTupleStrategy {
    /// "Simulate the bin-creation method": the data provider builds the
    /// plans the enclave will build and ships exactly
    /// [`crate::bins::fake_budget`] fakes — the largest of the BPB need
    /// (every bin padded to the common size; at most `n + |b|` for `n`
    /// real tuples, Theorem 4.1), the winSecRange need (every interval
    /// padded) and the eBPB need (the largest column total). Theorem 4.1
    /// bounds the first need only.
    SimulateBins,
}

/// Top-level configuration of a Concealer deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Grid shape used by Algorithm 1.
    pub grid: GridShape,
    /// Epoch duration in seconds (the paper batches data into epochs whose
    /// length is chosen from the service provider's latency needs).
    pub epoch_duration: u64,
    /// Granularity (seconds) at which timestamps appear in filter columns.
    /// Query filters are generated per granule, so coarser granularity means
    /// fewer string-matching tokens per range query.
    pub time_granularity: u64,
    /// Fake-tuple generation strategy (always
    /// [`FakeTupleStrategy::SimulateBins`]).
    pub fake_strategy: FakeTupleStrategy,
    /// Whether DP attaches hash-chain tags and the enclave verifies them.
    pub verify_integrity: bool,
    /// Whether the enclave uses the oblivious (Concealer+) code paths.
    pub oblivious: bool,
    /// winSecRange interval length, expressed in grid time rows (the paper
    /// fixes λ, e.g. 8 hours for the small dataset and ~1 day for the large
    /// one).
    pub winsec_rows_per_interval: u64,
}

impl SystemConfig {
    /// A small configuration suitable for unit tests and examples.
    #[must_use]
    pub fn small_test() -> Self {
        SystemConfig {
            grid: GridShape {
                dim_buckets: vec![8],
                time_subintervals: 8,
                num_cell_ids: 24,
            },
            epoch_duration: 3_600,
            time_granularity: 60,
            fake_strategy: FakeTupleStrategy::SimulateBins,
            verify_integrity: true,
            oblivious: false,
            winsec_rows_per_interval: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cells_product() {
        let g = GridShape {
            dim_buckets: vec![490],
            time_subintervals: 16_000,
            num_cell_ids: 87_000,
        };
        assert_eq!(g.total_cells(), 490 * 16_000);
        assert_eq!(g.num_dims(), 1);

        let g4 = GridShape {
            dim_buckets: vec![1500, 100, 10, 7],
            time_subintervals: 1,
            num_cell_ids: 87_000,
        };
        assert_eq!(g4.total_cells(), 1500 * 100 * 10 * 7);
        assert_eq!(g4.num_dims(), 4);
    }
}
