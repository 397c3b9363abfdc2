//! Synthetic WiFi connectivity workload (Dataset 1 of the paper).
//!
//! Reproduced structural properties:
//!
//! * tuples of the form ⟨location (access point), time, observation
//!   (device id)⟩,
//! * a configurable number of access points (the paper manages 2000+),
//! * strong diurnal skew — the paper reports ≈6,000 rows/hour off-peak and
//!   ≈50,000 rows/hour at peak across all locations,
//! * Zipf-like popularity across access points (lecture halls vs. closets)
//!   and across devices.

use concealer_core::Record;
use rand::distributions::Distribution;
use rand::Rng;

/// Configuration for the synthetic WiFi generator.
#[derive(Debug, Clone)]
pub struct WifiConfig {
    /// Number of access points (locations).
    pub access_points: u64,
    /// Number of distinct devices.
    pub devices: u64,
    /// Average rows generated per peak hour (across all locations).
    pub peak_rows_per_hour: u64,
    /// Average rows generated per off-peak hour.
    pub offpeak_rows_per_hour: u64,
    /// Zipf skew exponent for access-point popularity (0 = uniform).
    pub location_skew: f64,
}

impl Default for WifiConfig {
    fn default() -> Self {
        WifiConfig {
            access_points: 200,
            devices: 2_000,
            peak_rows_per_hour: 5_000,
            offpeak_rows_per_hour: 600,
            location_skew: 0.8,
        }
    }
}

impl WifiConfig {
    /// A small configuration for unit tests.
    #[must_use]
    pub fn tiny() -> Self {
        WifiConfig {
            access_points: 16,
            devices: 50,
            peak_rows_per_hour: 400,
            offpeak_rows_per_hour: 80,
            location_skew: 0.8,
        }
    }
}

/// Generator producing epochs of WiFi connectivity records.
#[derive(Debug, Clone)]
pub struct WifiGenerator {
    config: WifiConfig,
    /// Cumulative popularity distribution over access points.
    location_cdf: Vec<f64>,
}

impl WifiGenerator {
    /// Build a generator.
    #[must_use]
    pub fn new(config: WifiConfig) -> Self {
        // Zipf-like weights: weight(i) = 1 / (i+1)^s, normalized into a CDF.
        let s = config.location_skew;
        let weights: Vec<f64> = (0..config.access_points)
            .map(|i| 1.0 / ((i + 1) as f64).powf(s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let location_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        WifiGenerator {
            config,
            location_cdf,
        }
    }

    /// The configuration this generator was built with.
    #[must_use]
    pub fn config(&self) -> &WifiConfig {
        &self.config
    }

    /// Whether an hour-of-day is a peak hour (8:00–19:59, campus shape).
    #[must_use]
    pub fn is_peak_hour(hour_of_day: u64) -> bool {
        (8..20).contains(&hour_of_day)
    }

    /// Expected rows for the hour starting at `hour_start` (seconds).
    #[must_use]
    pub fn rows_for_hour(&self, hour_start: u64) -> u64 {
        let hour_of_day = (hour_start / 3600) % 24;
        if Self::is_peak_hour(hour_of_day) {
            self.config.peak_rows_per_hour
        } else {
            self.config.offpeak_rows_per_hour
        }
    }

    /// Generate the records of one hour starting at `hour_start` seconds.
    pub fn generate_hour<R: Rng>(&self, hour_start: u64, rng: &mut R) -> Vec<Record> {
        let n = self.rows_for_hour(hour_start);
        // ±10% jitter so hours are not all identical.
        let jitter = (n / 10).max(1);
        let n = n - jitter / 2 + rng.gen_range(0..jitter);
        (0..n)
            .map(|_| {
                let location = self.sample_location(rng);
                let time = hour_start + rng.gen_range(0..3600);
                let device = self.sample_device(rng);
                Record::spatial(location, time, device)
            })
            .collect()
    }

    /// Generate the records of one epoch of `epoch_duration` seconds
    /// starting at `epoch_start`.
    pub fn generate_epoch<R: Rng>(
        &self,
        epoch_start: u64,
        epoch_duration: u64,
        rng: &mut R,
    ) -> Vec<Record> {
        let mut out = Vec::new();
        let mut t = epoch_start;
        while t < epoch_start + epoch_duration {
            let hour_len = 3600.min(epoch_start + epoch_duration - t);
            let mut hour = self.generate_hour(t, rng);
            // Clamp times into the epoch when the final slice is < 1 hour.
            for r in &mut hour {
                if r.time >= epoch_start + epoch_duration {
                    r.time = epoch_start + epoch_duration - 1;
                }
            }
            out.append(&mut hour);
            t += hour_len;
        }
        out
    }

    fn sample_location<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rand::distributions::Open01.sample(rng);
        match self
            .location_cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite"))
        {
            Ok(i) | Err(i) => (i as u64).min(self.config.access_points - 1),
        }
    }

    fn sample_device<R: Rng>(&self, rng: &mut R) -> u64 {
        // Devices follow a milder skew: square the uniform sample.
        let u: f64 = rng.gen();
        let idx = (u * u * self.config.devices as f64) as u64;
        1_000 + idx.min(self.config.devices - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    #[test]
    fn generates_requested_volume_shape() {
        let generator = WifiGenerator::new(WifiConfig::tiny());
        let mut rng = StdRng::seed_from_u64(1);
        // Peak hour: 12:00. Off-peak: 03:00.
        let peak = generator.generate_hour(12 * 3600, &mut rng);
        let off = generator.generate_hour(3 * 3600, &mut rng);
        assert!(
            peak.len() > 3 * off.len(),
            "peak {} off {}",
            peak.len(),
            off.len()
        );
    }

    #[test]
    fn records_are_well_formed() {
        let config = WifiConfig::tiny();
        let generator = WifiGenerator::new(config.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let records = generator.generate_epoch(7200, 3600, &mut rng);
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(r.dims.len(), 1);
            assert!(r.dims[0] < config.access_points);
            assert!(r.time >= 7200 && r.time < 10800);
            assert!(r.payload[0] >= 1000);
            assert!(r.payload[0] < 1000 + config.devices);
        }
    }

    #[test]
    fn location_distribution_is_skewed() {
        let generator = WifiGenerator::new(WifiConfig::tiny());
        let mut rng = StdRng::seed_from_u64(3);
        let records = generator.generate_epoch(9 * 3600, 3600, &mut rng);
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for r in &records {
            *counts.entry(r.dims[0]).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let min = counts.values().copied().min().unwrap_or(0);
        assert!(
            max >= 3 * min.max(1),
            "expected skew, got max={max} min={min}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let generator = WifiGenerator::new(WifiConfig::tiny());
        let a = generator.generate_epoch(0, 3600, &mut StdRng::seed_from_u64(9));
        let b = generator.generate_epoch(0, 3600, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn peak_hours_match_campus_shape() {
        assert!(!WifiGenerator::is_peak_hour(3));
        assert!(WifiGenerator::is_peak_hour(8));
        assert!(WifiGenerator::is_peak_hour(19));
        assert!(!WifiGenerator::is_peak_hour(20));
    }
}
