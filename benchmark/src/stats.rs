//! Order statistics the benchmark reports: percentiles, medians of
//! slices and inter-quartile ranges.

/// The `pct`-th percentile (nearest rank) of ascending `sorted`; `0.0` when
/// empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Inter-quartile range of `values` (nearest-rank p75 − p25).
pub fn iqr(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 75.0) - percentile(&v, 25.0)
}

/// A per-slice measurement reduced to what the benchmark prints: the
/// median over slices and the spread beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStat {
    pub median: f64,
    pub iqr: f64,
}

impl SliceStat {
    pub fn of(per_slice: &[f64]) -> SliceStat {
        SliceStat {
            median: median(per_slice),
            iqr: iqr(per_slice),
        }
    }
}

/// Largest pairwise relative difference of `values`, relative to the
/// smaller magnitude of each pair's base: `(max − min) / min`.
pub fn max_pairwise_rel_diff(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if values.len() < 2 || lo <= 0.0 {
        return 0.0;
    }
    (hi - lo) / lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_slices_and_iqr() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        // Five slices: p25 is the 2nd, p75 the 4th value.
        assert_eq!(iqr(&[10.0, 50.0, 20.0, 40.0, 30.0]), 20.0);
        let s = SliceStat::of(&[10.0, 50.0, 20.0, 40.0, 30.0]);
        assert_eq!((s.median, s.iqr), (30.0, 20.0));
    }

    #[test]
    fn pairwise_difference_is_relative_to_the_smaller_value() {
        assert_eq!(max_pairwise_rel_diff(&[100.0, 110.0, 105.0]), 0.1);
        assert_eq!(max_pairwise_rel_diff(&[3.0]), 0.0);
        assert_eq!(max_pairwise_rel_diff(&[2.0, 2.0]), 0.0);
    }
}
