//! Benchmark harness for the Concealer reproduction.
//!
//! Every table and figure of the paper's evaluation (§9) has a
//! corresponding experiment function in [`experiments`]; the
//! `paper_tables` binary runs them and prints rows in the same shape the
//! paper reports. (The repository's performance benchmark is the separate
//! `benchmark/` package.)
//!
//! Scale: the paper runs on 26M ("small") and 136M ("large") rows. This
//! harness defaults to a ~1000× scale-down so a full run finishes in
//! minutes on a laptop; set the `CONCEALER_SCALE` environment variable to a
//! multiplier (e.g. `CONCEALER_SCALE=10`) to grow the datasets. The
//! reproduced quantities are ratios and trends, not absolute times — see
//! PAPER.md §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod setup;

pub use setup::{
    build_tpch_system, build_wifi_system, scale_multiplier, server_request_mix, ScaledWifi,
    ServerRequest, TpchBench, WifiScale,
};

/// Format a duration in the units the paper uses (seconds with two
/// decimals, or minutes when large).
#[must_use]
pub fn fmt_duration(d: std::time::Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 120.0 {
        format!("{:.1} min", secs / 60.0)
    } else if secs >= 0.1 {
        format!("{secs:.2} s")
    } else {
        format!("{:.2} ms", secs * 1000.0)
    }
}

/// Time a closure once and return its result and wall-clock duration.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Time a closure over `iters` runs and return the mean duration.
pub fn time_mean(iters: usize, mut f: impl FnMut()) -> std::time::Duration {
    let start = std::time::Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    start.elapsed() / iters.max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_millis(500)), "0.50 s");
        assert!(fmt_duration(Duration::from_secs(300)).contains("min"));
    }

    #[test]
    fn timing_helpers_run() {
        let (v, d) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let mean = time_mean(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(mean.as_nanos() < 1_000_000_000);
    }
}
