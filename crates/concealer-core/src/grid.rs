//! The per-epoch grid over indexed attributes and time (Algorithm 1,
//! Stage 1).
//!
//! Algorithm 1 maps each indexed attribute onto a fixed number of hash
//! buckets (the grid's columns) and partitions the epoch's time span into
//! `y` subintervals (the grid's rows). Every grid cell is then assigned one
//! of `u ≤ x·y` cell-ids. Both the data provider (at ingest time) and the
//! enclave (at query time) must perform exactly the same mapping, so the
//! grid is keyed by a PRF derived from the shared secret — the adversarial
//! service provider, which does not know the key, cannot evaluate the
//! mapping over the attribute domain.

use concealer_crypto::prf::RangePrf;

use crate::config::GridShape;
use crate::types::EpochWindow;
use crate::{CoreError, Result};

/// A located grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCoord {
    /// Bucket index along each indexed attribute.
    pub dim_coords: Vec<u64>,
    /// Time-row index within the epoch.
    pub time_row: u64,
    /// Flattened cell index in `[0, shape.total_cells())`.
    pub flat: u64,
}

/// The per-epoch grid.
#[derive(Debug, Clone)]
pub struct Grid {
    shape: GridShape,
    window: EpochWindow,
    prf: RangePrf,
}

impl Grid {
    /// Build the grid for one epoch.
    #[must_use]
    pub fn new(shape: GridShape, window: EpochWindow, prf: RangePrf) -> Self {
        Grid { shape, window, prf }
    }

    /// The grid shape.
    #[must_use]
    pub fn shape(&self) -> &GridShape {
        &self.shape
    }

    /// The epoch window this grid covers.
    #[must_use]
    pub fn window(&self) -> EpochWindow {
        self.window
    }

    /// Bucket index of `value` along indexed attribute `dim_idx`.
    #[must_use]
    pub fn dim_coord(&self, dim_idx: usize, value: u64) -> u64 {
        let buckets = self.shape.dim_buckets[dim_idx];
        let mut input = Vec::with_capacity(10);
        input.push(b'd');
        input.push(dim_idx as u8);
        input.extend_from_slice(&value.to_be_bytes());
        self.prf.eval_mod(&input, buckets)
    }

    /// Time-row index for an absolute timestamp within the epoch window.
    pub fn time_row(&self, time: u64) -> Result<u64> {
        if !self.window.contains(time) {
            return Err(CoreError::TimeOutOfEpoch {
                time,
                epoch_start: self.window.start,
                epoch_end: self.window.end(),
            });
        }
        let offset = time - self.window.start;
        let per_row = (self.window.duration / self.shape.time_subintervals).max(1);
        Ok((offset / per_row).min(self.shape.time_subintervals - 1))
    }

    /// Flatten explicit dimension coordinates plus a time row.
    #[must_use]
    pub fn flat_index(&self, dim_coords: &[u64], time_row: u64) -> u64 {
        debug_assert_eq!(dim_coords.len(), self.shape.num_dims());
        let mut flat = 0u64;
        for (i, c) in dim_coords.iter().enumerate() {
            flat = flat * self.shape.dim_buckets[i] + c;
        }
        flat * self.shape.time_subintervals + time_row
    }

    /// Locate the grid cell for a record's indexed attribute values and
    /// timestamp.
    pub fn locate(&self, dims: &[u64], time: u64) -> Result<CellCoord> {
        if dims.len() != self.shape.num_dims() {
            return Err(CoreError::SchemaMismatch {
                expected: self.shape.num_dims(),
                got: dims.len(),
            });
        }
        let dim_coords: Vec<u64> = dims
            .iter()
            .enumerate()
            .map(|(i, v)| self.dim_coord(i, *v))
            .collect();
        let time_row = self.time_row(time)?;
        let flat = self.flat_index(&dim_coords, time_row);
        Ok(CellCoord {
            dim_coords,
            time_row,
            flat,
        })
    }

    /// The cell-id assigned to each grid cell, indexed by flat cell index.
    ///
    /// The assignment is PRF-derived so DP never needs to transmit how the
    /// assignment was drawn — but the *vector itself* is still shipped
    /// encrypted (Algorithm 1 line 23) because the enclave treats it as
    /// data, mirroring the paper's flow.
    #[must_use]
    pub fn cell_id_assignment(&self) -> Vec<u32> {
        let total = self.shape.total_cells();
        let u = u64::from(self.shape.num_cell_ids);
        let mut out = Vec::with_capacity(total as usize);
        for flat in 0..total {
            let mut input = Vec::with_capacity(9);
            input.push(b'c');
            input.extend_from_slice(&flat.to_be_bytes());
            out.push(self.prf.eval_mod(&input, u) as u32);
        }
        out
    }

    /// Time rows overlapped by the absolute inclusive range
    /// `[t_start, t_end]`, clamped to this epoch's window. Empty when the
    /// range misses the window entirely.
    #[must_use]
    pub fn time_rows_for_range(&self, t_start: u64, t_end: u64) -> Vec<u64> {
        if !self.window.overlaps(t_start, t_end) {
            return Vec::new();
        }
        let lo = t_start.max(self.window.start);
        let hi = t_end.min(self.window.end() - 1);
        let per_row = (self.window.duration / self.shape.time_subintervals).max(1);
        let first = ((lo - self.window.start) / per_row).min(self.shape.time_subintervals - 1);
        let last = ((hi - self.window.start) / per_row).min(self.shape.time_subintervals - 1);
        (first..=last).collect()
    }

    /// Flat cell indices for one set of dimension *values* across the given
    /// time rows.
    pub fn cells_for_dims(&self, dims: &[u64], time_rows: &[u64]) -> Result<Vec<u64>> {
        if dims.len() != self.shape.num_dims() {
            return Err(CoreError::SchemaMismatch {
                expected: self.shape.num_dims(),
                got: dims.len(),
            });
        }
        let dim_coords: Vec<u64> = dims
            .iter()
            .enumerate()
            .map(|(i, v)| self.dim_coord(i, *v))
            .collect();
        Ok(time_rows
            .iter()
            .map(|r| self.flat_index(&dim_coords, *r))
            .collect())
    }

    /// Flat cell indices for *every* combination of dimension buckets across
    /// the given time rows (used by all-locations queries such as Q2/Q3),
    /// combinations in lexicographic order (the last dimension fastest).
    /// That order makes a combination's index its flat prefix, so the
    /// cells are `combination × time_subintervals + row`.
    #[must_use]
    pub(crate) fn cells_for_all_dims(&self, time_rows: &[u64]) -> Vec<u64> {
        let combinations: u64 = self.shape.dim_buckets.iter().product();
        let per_combination = self.shape.time_subintervals;
        let mut out = Vec::with_capacity(combinations as usize * time_rows.len());
        for combination in 0..combinations {
            let base = combination * per_combination;
            out.extend(time_rows.iter().map(|&r| base + r));
        }
        out
    }

    /// Number of grid cells.
    #[must_use]
    pub fn total_cells(&self) -> u64 {
        self.shape.total_cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concealer_crypto::{EpochId, MasterKey};

    fn grid() -> Grid {
        let shape = GridShape {
            dim_buckets: vec![4],
            time_subintervals: 6,
            num_cell_ids: 10,
        };
        let window = EpochWindow {
            start: 1000,
            duration: 600,
        };
        let prf = MasterKey::from_bytes([1u8; 32]).grid_prf(EpochId(1000));
        Grid::new(shape, window, prf)
    }

    #[test]
    fn locate_is_deterministic_and_in_range() {
        let g = grid();
        for loc in 0..50u64 {
            for t in [1000u64, 1100, 1599] {
                let a = g.locate(&[loc], t).unwrap();
                let b = g.locate(&[loc], t).unwrap();
                assert_eq!(a, b);
                assert!(a.flat < g.total_cells());
                assert!(a.dim_coords[0] < 4);
                assert!(a.time_row < 6);
            }
        }
    }

    #[test]
    fn locate_rejects_bad_schema_and_time() {
        let g = grid();
        assert!(matches!(
            g.locate(&[1, 2], 1000),
            Err(CoreError::SchemaMismatch {
                expected: 1,
                got: 2
            })
        ));
        assert!(matches!(
            g.locate(&[1], 999),
            Err(CoreError::TimeOutOfEpoch { .. })
        ));
        assert!(matches!(
            g.locate(&[1], 1600),
            Err(CoreError::TimeOutOfEpoch { .. })
        ));
    }

    #[test]
    fn time_rows_partition_the_epoch() {
        let g = grid();
        // 600s epoch, 6 rows => 100s per row.
        assert_eq!(g.time_row(1000).unwrap(), 0);
        assert_eq!(g.time_row(1099).unwrap(), 0);
        assert_eq!(g.time_row(1100).unwrap(), 1);
        assert_eq!(g.time_row(1599).unwrap(), 5);
    }

    #[test]
    fn cell_id_assignment_covers_and_bounds() {
        let g = grid();
        let assignment = g.cell_id_assignment();
        assert_eq!(assignment.len(), 24);
        assert!(assignment.iter().all(|&c| c < 10));
        // Deterministic.
        assert_eq!(assignment, g.cell_id_assignment());
    }

    #[test]
    fn time_rows_for_range_clamps() {
        let g = grid();
        assert_eq!(g.time_rows_for_range(0, 999), Vec::<u64>::new());
        assert_eq!(g.time_rows_for_range(1600, 2000), Vec::<u64>::new());
        assert_eq!(g.time_rows_for_range(1000, 1099), vec![0]);
        assert_eq!(g.time_rows_for_range(1050, 1250), vec![0, 1, 2]);
        assert_eq!(g.time_rows_for_range(0, 10_000), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn cells_for_dims_follow_time_rows() {
        let g = grid();
        let rows = vec![1, 2, 3];
        let cells = g.cells_for_dims(&[7], &rows).unwrap();
        assert_eq!(cells.len(), 3);
        // Consecutive time rows of the same dim bucket are consecutive flats.
        assert_eq!(cells[1], cells[0] + 1);
        assert_eq!(cells[2], cells[1] + 1);
        assert!(g.cells_for_dims(&[7, 8], &rows).is_err());
    }

    #[test]
    fn cells_for_all_dims_enumerates_product() {
        let g = grid();
        let cells = g.cells_for_all_dims(&[0, 1]);
        assert_eq!(cells.len(), 4 * 2);
        let unique: std::collections::BTreeSet<u64> = cells.iter().copied().collect();
        assert_eq!(unique.len(), 8, "all cells distinct");
    }

    /// The enumeration `cells_for_all_dims` had before it walked the flat
    /// combination index: one `Vec` per bucket combination, the last
    /// dimension fastest, each mapped through `flat_index`.
    fn nested_cells(g: &Grid, time_rows: &[u64]) -> Vec<u64> {
        let mut combos: Vec<Vec<u64>> = vec![Vec::new()];
        for &buckets in &g.shape().dim_buckets {
            let mut next = Vec::new();
            for combo in &combos {
                for b in 0..buckets {
                    let mut c = combo.clone();
                    c.push(b);
                    next.push(c);
                }
            }
            combos = next;
        }
        let mut out = Vec::new();
        for combo in &combos {
            for &r in time_rows {
                out.push(g.flat_index(combo, r));
            }
        }
        out
    }

    #[test]
    fn cells_for_all_dims_keeps_the_nested_order() {
        let window = EpochWindow {
            start: 1000,
            duration: 600,
        };
        let prf = || MasterKey::from_bytes([1u8; 32]).grid_prf(EpochId(1000));
        for dim_buckets in [
            vec![4],
            vec![1],
            vec![3, 5],
            vec![5, 1],
            vec![2, 1, 3],
            vec![4, 3, 2],
        ] {
            let shape = GridShape {
                dim_buckets,
                time_subintervals: 6,
                num_cell_ids: 10,
            };
            let g = Grid::new(shape, window, prf());
            for rows in [
                vec![],
                vec![0],
                vec![5],
                vec![2, 3, 4],
                vec![0, 1, 2, 3, 4, 5],
            ] {
                assert_eq!(
                    g.cells_for_all_dims(&rows),
                    nested_cells(&g, &rows),
                    "{:?} over rows {rows:?}",
                    g.shape().dim_buckets
                );
            }
        }
    }

    #[test]
    fn different_epochs_map_differently() {
        let shape = GridShape {
            dim_buckets: vec![64],
            time_subintervals: 6,
            num_cell_ids: 10,
        };
        let window = EpochWindow {
            start: 0,
            duration: 600,
        };
        let mk = MasterKey::from_bytes([1u8; 32]);
        let g1 = Grid::new(shape.clone(), window, mk.grid_prf(EpochId(0)));
        let g2 = Grid::new(shape, window, mk.grid_prf(EpochId(600)));
        let moved = (0..200u64)
            .filter(|&v| g1.dim_coord(0, v) != g2.dim_coord(0, v))
            .count();
        assert!(moved > 100, "epoch keys must reshuffle the grid mapping");
    }
}
