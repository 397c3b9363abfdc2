//! The data provider's encryption pipeline (Algorithm 1 of the paper).
//!
//! For every epoch, the data provider:
//!
//! 1. derives a fresh epoch key from the shared secret (`k ← sk || eid`),
//! 2. builds the grid over the indexed attributes and time, and assigns
//!    cell-ids to grid cells,
//! 3. encrypts every tuple: deterministic filter columns, a deterministic
//!    payload column and the `Index` column `E_k(cid || counter)`,
//! 4. generates fake tuples, exactly as many as [`fake_budget`] says the
//!    epoch's bin, interval and window plans need,
//! 5. optionally builds per-cell-id hash chains over the encrypted columns
//!    and encrypts the final digests as verifiable tags,
//! 6. pseudo-randomly permutes real and fake tuples together, and
//! 7. ships the permuted rows plus the encrypted `cell_id[]`, per-cell
//!    counts and `c_tuple[]` vectors and the tags to the service provider.
//!
//! Ciphertext is written straight into the shipment's [`RowArena`] — the
//! layout the service provider stores — so no per-row allocation is made
//! and the shipment is handed over without a conversion.

use concealer_crypto::{EpochId, MasterKey};
use concealer_storage::{EpochMetadata, RowArena};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use crate::bins::{fake_budget, BinPlan, WinSecPlan};
use crate::codec;
use crate::config::SystemConfig;
use crate::grid::Grid;
use crate::types::{EpochWindow, Record};
use crate::verify::HashChainBuilder;
use crate::Result;

/// Summary statistics about one encrypted epoch (cleartext knowledge the
/// data provider is free to keep; never shipped to the service provider).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochStats {
    /// Real tuples encrypted.
    pub real_rows: usize,
    /// Fake tuples generated.
    pub fake_rows: usize,
    /// Number of grid cells.
    pub grid_cells: u64,
    /// Number of distinct cell-ids that actually received tuples.
    pub cell_ids_used: usize,
    /// The maximum number of tuples sharing one cell-id (the minimum viable
    /// BPB bin size).
    pub max_cell_id_load: u32,
}

/// Everything the data provider ships to the service provider for one epoch.
#[derive(Debug, Clone)]
pub struct EpochShipment {
    /// The epoch id (epoch start timestamp).
    pub epoch_id: u64,
    /// Permuted encrypted rows (real and fake tuples interleaved).
    pub rows: RowArena,
    /// Encrypted metadata vectors and verifiable tags.
    pub metadata: EpochMetadata,
    /// Cleartext statistics retained by the data provider (not shipped).
    pub stats: EpochStats,
}

/// The trusted data provider.
#[derive(Debug, Clone)]
pub struct DataProvider {
    master: MasterKey,
    config: SystemConfig,
}

impl DataProvider {
    /// Create a data provider that shares `master` with the enclave.
    #[must_use]
    pub fn new(master: MasterKey, config: SystemConfig) -> Self {
        DataProvider { master, config }
    }

    /// The shared secret (the data provider legitimately owns it).
    #[must_use]
    pub fn master(&self) -> &MasterKey {
        &self.master
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Encrypt one epoch of records (Algorithm 1).
    ///
    /// `epoch_start` doubles as the epoch id. All record timestamps must lie
    /// in `[epoch_start, epoch_start + epoch_duration)`.
    pub fn encrypt_epoch<R: RngCore>(
        &self,
        epoch_start: u64,
        records: &[Record],
        rng: &mut R,
    ) -> Result<EpochShipment> {
        let window = EpochWindow {
            start: epoch_start,
            duration: self.config.epoch_duration,
        };
        let key = self.master.epoch_key(EpochId(epoch_start), 0);
        let grid = Grid::new(self.config.grid.clone(), window, key.grid_prf.clone());
        let cell_assignment = grid.cell_id_assignment();

        let num_cell_ids = self.config.grid.num_cell_ids as usize;
        let mut c_tuple = vec![0u32; num_cell_ids];
        let mut cell_counts = vec![0u32; grid.total_cells() as usize];

        // An epoch is a table of one row shape: a record with more or fewer
        // payload values than the others would ship a wider or narrower
        // row, which the host could tell from the fakes by its length.
        if let Some(first) = records.first() {
            let expected = first.payload.len();
            if let Some(odd) = records.iter().find(|r| r.payload.len() != expected) {
                return Err(crate::CoreError::SchemaMismatch {
                    expected,
                    got: odd.payload.len(),
                });
            }
        }

        // Encrypt real tuples (Lines 4-11 of Algorithm 1).
        let mut rows = RowArena::new();
        let mut chain = HashChainBuilder::new(&key, num_cell_ids);
        for record in records {
            let coord = grid.locate(&record.dims, record.time)?;
            let cid = cell_assignment[coord.flat as usize];
            cell_counts[coord.flat as usize] += 1;
            c_tuple[cid as usize] += 1;
            let counter = c_tuple[cid as usize];

            let granule = record.time / self.config.time_granularity;
            let observation = record.observation().unwrap_or(0);

            let mut row = rows.begin_row();
            for plain in [
                &codec::index_real_plain(cid, counter)[..],
                &codec::filter_dims_plain(&record.dims, granule),
                &codec::filter_obs_plain(observation, granule),
                &codec::payload_plain(&record.dims, record.time, &record.payload),
            ] {
                row.column_with(|buf| key.det.encrypt_into(plain, buf));
            }
            row.finish();
            if rows.len() == 1 {
                // The first row sizes the rest: grow the buffer once.
                rows.reserve(records.len() - 1);
            }
            if self.config.verify_integrity {
                let row = rows.get(rows.len() - 1).expect("just written");
                chain.absorb_view(cid, row);
            }
        }
        let real_rows = rows.len();

        // Decide how many fake tuples to ship (Lines 12-15): the number the
        // enclave derives from the same metadata.
        let time_rows = self.config.grid.time_subintervals;
        let lambda = self.config.winsec_rows_per_interval;
        let bins = BinPlan::build(&c_tuple, None);
        let winsec = WinSecPlan::build(&cell_assignment, &c_tuple, time_rows, lambda);
        let fake_rows = fake_budget(&bins, &winsec, &cell_counts, time_rows) as usize;

        // Representative column widths so fake rows are indistinguishable
        // from real rows by length.
        let widths: Vec<usize> = if let Some(r) = rows.get(0) {
            r.columns().skip(1).map(<[u8]>::len).collect()
        } else {
            // Empty epoch: derive representative widths from a dummy record.
            let dims = vec![0; self.config.grid.num_dims()];
            [
                codec::filter_dims_plain(&dims, 0),
                codec::filter_obs_plain(0, 0),
                codec::payload_plain(&dims, 0, &[0]),
            ]
            .iter()
            .map(|plain| key.det.encrypt(plain).len())
            .collect()
        };

        rows.reserve(fake_rows);
        for j in 0..fake_rows as u64 {
            let mut row = rows.begin_row();
            row.column_with(|buf| key.det.encrypt_into(&codec::index_fake_plain(j), buf));
            for &width in &widths {
                row.column(&random_ciphertext(&key, rng, width));
            }
            row.finish();
        }

        // Verifiable tags (Lines 16-21), one per cell-id.
        let enc_tags = if self.config.verify_integrity {
            chain.finalize(rng)
        } else {
            Vec::new()
        };

        // Permute real and fake tuples together (Line 24). The permutation
        // is drawn from the epoch's permutation key so it is reproducible by
        // the data provider but unpredictable to the service provider.
        let mut perm_seed = [0u8; 32];
        perm_seed.copy_from_slice(&key.permutation_key);
        let mut perm_rng = StdRng::from_seed(perm_seed);
        // Shuffling positions and gathering is shuffling the rows: the
        // shuffle draws its swaps from the RNG alone, never the elements.
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        order.shuffle(&mut perm_rng);
        let rows = rows.gather(&order);

        // Encrypt metadata vectors (Line 23): cell-id assignment and
        // per-cell counts travel in one blob, c_tuple[] in another.
        let mut assignment_and_counts = cell_assignment.clone();
        assignment_and_counts.extend_from_slice(&cell_counts);
        let enc_cell_id = key
            .rand
            .encrypt(rng, &codec::encode_u32_vector(&assignment_and_counts));
        let enc_c_tuple = key.rand.encrypt(rng, &codec::encode_u32_vector(&c_tuple));

        let stats = EpochStats {
            real_rows,
            fake_rows,
            grid_cells: grid.total_cells(),
            cell_ids_used: c_tuple.iter().filter(|&&c| c > 0).count(),
            max_cell_id_load: c_tuple.iter().copied().max().unwrap_or(0),
        };

        Ok(EpochShipment {
            epoch_id: epoch_start,
            rows,
            metadata: EpochMetadata {
                enc_cell_id,
                enc_c_tuple,
                enc_tags,
                advertised_rows: real_rows + fake_rows,
            },
            stats,
        })
    }
}

/// A fresh, unlinkable ciphertext of the requested length (fake-tuple column
/// filler). Random plaintext encrypted under the randomized cipher, then
/// truncated/padded to match real-column widths so fakes are
/// length-indistinguishable from real rows.
fn random_ciphertext<R: RngCore>(
    key: &concealer_crypto::EpochKey,
    rng: &mut R,
    len: usize,
) -> Vec<u8> {
    let mut plain = vec![0u8; len];
    rng.fill_bytes(&mut plain);
    let mut ct = key.rand.encrypt(rng, &plain);
    ct.resize(len, rng.gen());
    ct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FakeTupleStrategy, GridShape};

    fn provider() -> DataProvider {
        let config = SystemConfig {
            grid: GridShape {
                dim_buckets: vec![6],
                time_subintervals: 6,
                num_cell_ids: 12,
            },
            epoch_duration: 3600,
            time_granularity: 60,
            fake_strategy: FakeTupleStrategy::SimulateBins,
            verify_integrity: true,
            oblivious: false,
            winsec_rows_per_interval: 2,
        };
        DataProvider::new(MasterKey::from_bytes([3u8; 32]), config)
    }

    fn sample_records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::spatial(i % 10, i * 36 % 3600, 100 + i % 4))
            .collect()
    }

    /// Every row of an epoch, real or fake, has one width: records whose
    /// payloads differ in length are refused before anything is encrypted.
    #[test]
    fn an_epoch_of_rows_of_several_widths_is_refused() {
        let dp = provider();
        let mut rng = StdRng::seed_from_u64(1);
        let shipment = dp.encrypt_epoch(0, &sample_records(150), &mut rng).unwrap();
        let widths: std::collections::BTreeSet<usize> = shipment
            .rows
            .iter()
            .map(|row| row.columns().map(<[u8]>::len).sum())
            .collect();
        assert_eq!(widths.len(), 1, "{widths:?}");

        let mut records = sample_records(150);
        for record in records.iter_mut().step_by(3) {
            record.payload.push(7);
        }
        assert_eq!(
            dp.encrypt_epoch(0, &records, &mut rng).err(),
            Some(crate::CoreError::SchemaMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn encrypt_epoch_produces_real_plus_fake_rows() {
        let dp = provider();
        let mut rng = StdRng::seed_from_u64(1);
        let shipment = dp.encrypt_epoch(0, &sample_records(200), &mut rng).unwrap();
        assert_eq!(shipment.stats.real_rows, 200);
        assert!(shipment.stats.fake_rows > 0);
        assert_eq!(shipment.rows.len(), 200 + shipment.stats.fake_rows);
        assert_eq!(shipment.metadata.advertised_rows, shipment.rows.len());
        assert!(!shipment.metadata.enc_tags.is_empty());
    }

    #[test]
    fn simulate_bins_ships_no_more_fakes_than_equal() {
        // Theorem 4.1: at most one fake per real row plus one bin, `n + |b|`.
        let mut rng = StdRng::seed_from_u64(2);
        let sim = provider()
            .encrypt_epoch(0, &sample_records(300), &mut rng)
            .unwrap();
        assert!(sim.stats.fake_rows <= sim.stats.real_rows + sim.stats.max_cell_id_load as usize);
    }

    #[test]
    fn index_keys_are_unique() {
        let dp = provider();
        let mut rng = StdRng::seed_from_u64(3);
        let shipment = dp.encrypt_epoch(0, &sample_records(150), &mut rng).unwrap();
        let keys: std::collections::BTreeSet<Vec<u8>> = shipment
            .rows
            .iter()
            .map(|r| r.index_key().to_vec())
            .collect();
        assert_eq!(keys.len(), shipment.rows.len());
    }

    #[test]
    fn identical_values_get_distinct_ciphertexts() {
        // Two records at the same location with the same observation but
        // different times must not share filter / payload ciphertexts.
        let dp = provider();
        let mut rng = StdRng::seed_from_u64(4);
        let records = vec![Record::spatial(1, 100, 7), Record::spatial(1, 200, 7)];
        let shipment = dp.encrypt_epoch(0, &records, &mut rng).unwrap();
        assert!(shipment.stats.fake_rows > 0);
        assert_eq!(shipment.rows.len(), 2 + shipment.stats.fake_rows);
        let payloads: std::collections::BTreeSet<&[u8]> =
            shipment.rows.iter().map(|r| r.payload()).collect();
        assert_eq!(payloads.len(), shipment.rows.len());
    }

    #[test]
    fn same_epoch_same_key_reproducible_index() {
        // DP and the enclave must derive identical deterministic ciphertexts
        // for the same (cid, counter); spot-check via a fresh epoch key.
        let dp = provider();
        let key = dp.master().epoch_key(EpochId(0), 0);
        let a = key.det.encrypt(&codec::index_real_plain(3, 1));
        let b = dp
            .master()
            .epoch_key(EpochId(0), 0)
            .det
            .encrypt(&codec::index_real_plain(3, 1));
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_out_of_epoch_records() {
        let dp = provider();
        let mut rng = StdRng::seed_from_u64(5);
        let records = vec![Record::spatial(1, 10_000, 7)];
        assert!(matches!(
            dp.encrypt_epoch(0, &records, &mut rng),
            Err(crate::CoreError::TimeOutOfEpoch { .. })
        ));
    }

    #[test]
    fn empty_epoch_is_fine() {
        let dp = provider();
        let mut rng = StdRng::seed_from_u64(6);
        let shipment = dp.encrypt_epoch(0, &[], &mut rng).unwrap();
        assert_eq!(shipment.stats.real_rows, 0);
        assert_eq!(shipment.rows.len(), shipment.stats.fake_rows);
    }

    #[test]
    fn fake_columns_match_real_column_widths() {
        let dp = provider();
        let mut rng = StdRng::seed_from_u64(7);
        let shipment = dp.encrypt_epoch(0, &sample_records(50), &mut rng).unwrap();
        let widths: std::collections::BTreeSet<(usize, usize, usize)> = shipment
            .rows
            .iter()
            .map(|r| (r.filter(0).len(), r.filter(1).len(), r.payload().len()))
            .collect();
        assert_eq!(
            widths.len(),
            1,
            "all rows must have identical column widths"
        );
    }

    #[test]
    fn verification_disabled_ships_no_tags() {
        let mut dp = provider();
        dp.config.verify_integrity = false;
        let mut rng = StdRng::seed_from_u64(8);
        let shipment = dp.encrypt_epoch(0, &sample_records(20), &mut rng).unwrap();
        assert!(shipment.metadata.enc_tags.is_empty());
    }
}
