//! The metric catalogue (names, units, directions, bounds — mirrored by
//! `BENCHMARK.json` and `README.md`) and the arithmetic that turns a
//! window's samples into end-to-end values.

use std::collections::BTreeMap;

use crate::run::{ticks_to_ms, Window, SLICES};
use crate::stats::{median, percentile, SliceStat};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload, with the share of
/// the parent's median it may worsen by before it counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Timing bounds sit at the contract's ceiling: ten runs on ten seeds on
/// the 2-thread shared sandbox spread 5–15 % (README, "Measured spread"),
/// and a bound the spread exceeds would leave every change unresolved.
/// The p95 latency spread past even that ceiling on `routed_ingest` and is
/// `load.latency_p95_ms` below.
pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("throughput_qps", "1/s", Higher, 0.25),
    end_to_end("latency_p50_ms", "ms", Lower, 0.25),
    end_to_end("cpu_ms_per_query", "ms", Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, 0.25),
    end_to_end("rows_fetched_per_query", "rows", Lower, 0.06),
    end_to_end("setup_s", "s", Lower, 0.25),
];

/// A per-layer metric: reported by the traced run, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 86] = [
    // Demoted end-to-end metrics: defined on `routed_ingest` only, and an
    // end-to-end metric must be reported (and non-zero) on every workload.
    layer("ingest_epoch_p50_ms", "ms", Lower),
    layer("stored_bytes_per_user_byte", "ratio", Lower),
    layer("failed_share", "ratio", Lower),
    // crypto
    layer("crypto.aes_block_ns", "ns", Lower),
    layer("crypto.ctr_encrypt_mb_s", "MB/s", Higher),
    layer("crypto.ctr_decrypt_mb_s", "MB/s", Higher),
    layer("crypto.det_encrypt_batch_ns", "ns", Lower),
    layer("crypto.det_decrypt_batch_ns", "ns", Lower),
    layer("crypto.det_decrypt_single_ns", "ns", Lower),
    layer("crypto.cmac_mb_s", "MB/s", Higher),
    layer("crypto.sha256_mb_s", "MB/s", Higher),
    // enclave
    layer("enclave.trapdoor_plain_us", "us", Lower),
    layer("enclave.trapdoor_oblivious_us", "us", Lower),
    layer("enclave.bitonic_sort_us", "us", Lower),
    layer("enclave.attest_quote_us", "us", Lower),
    // storage
    layer("storage.mem.fetch_bin_us", "us", Lower),
    layer("storage.mem.replay_bin_us", "us", Lower),
    layer("storage.disk.fetch_bin_us", "us", Lower),
    layer("storage.disk.ingest_commit_ms", "ms", Lower),
    layer("storage.disk.reopen_ms", "ms", Lower),
    layer("storage.disk.bytes_per_row", "B", Lower),
    layer("storage.rows_per_fetch", "rows", Lower),
    // core
    layer("core.phase.fetch_share", "ratio", Lower),
    layer("core.phase.decrypt_share", "ratio", Lower),
    layer("core.phase.verify_share", "ratio", Lower),
    layer("core.phase.aggregate_share", "ratio", Lower),
    layer("core.phase.unaccounted_share", "ratio", Lower),
    layer("core.bin_cache.hit_ratio", "ratio", Higher),
    layer("core.bin_cache.evictions", "count", Lower),
    layer("core.exec.point_warm_us", "us", Lower),
    layer("core.exec.point_cold_us", "us", Lower),
    layer("core.exec.point_oblivious_us", "us", Lower),
    layer("core.exec.q1_bpb_us", "us", Lower),
    layer("core.exec.q1_ebpb_us", "us", Lower),
    layer("core.exec.q1_winsec_us", "us", Lower),
    layer("core.exec.q1_bpb_noverify_us", "us", Lower),
    layer("core.exec.q1_fwdpriv_us", "us", Lower),
    layer("core.verify_bin_us", "us", Lower),
    layer("core.batch.dedup_ratio", "ratio", Higher),
    layer("core.batch.par2_speedup", "ratio", Higher),
    layer("core.partial.overhead_ratio", "ratio", Lower),
    layer("core.provider.encrypt_rows_per_s", "1/s", Higher),
    layer("core.fake_row_share", "ratio", Lower),
    // codec
    layer("codec.encode_request_ns", "ns", Lower),
    layer("codec.decode_request_ns", "ns", Lower),
    layer("codec.encode_answer_ns", "ns", Lower),
    layer("codec.decode_answer_ns", "ns", Lower),
    layer("codec.frame_roundtrip_ns", "ns", Lower),
    layer("codec.answer_bytes", "B", Lower),
    layer("codec.ingest_frame_mb_s", "MB/s", Higher),
    // server + client: the default core, then each core by name
    layer("server.noop_rtt_us", "us", Lower),
    layer("server.point_us", "us", Lower),
    layer("server.pipelined_qps", "1/s", Higher),
    layer("server.connect_ms", "ms", Lower),
    layer("server.in_flight_peak", "count", Lower),
    layer("server.backlog_peak", "count", Lower),
    layer("server.threaded.noop_rtt_us", "us", Lower),
    layer("server.threaded.point_us", "us", Lower),
    layer("server.threaded.pipelined_qps", "1/s", Higher),
    layer("server.threaded.connect_ms", "ms", Lower),
    layer("server.threaded.in_flight_peak", "count", Lower),
    layer("server.threaded.backlog_peak", "count", Lower),
    layer("server.event.noop_rtt_us", "us", Lower),
    layer("server.event.point_us", "us", Lower),
    layer("server.event.pipelined_qps", "1/s", Higher),
    layer("server.event.connect_ms", "ms", Lower),
    layer("server.event.in_flight_peak", "count", Lower),
    layer("server.event.backlog_peak", "count", Lower),
    // router
    layer("router.hop_us", "us", Lower),
    layer("router.fanout2_us", "us", Lower),
    layer("router.forwarded", "count", Higher),
    layer("router.forwarded_min_shard", "count", Higher),
    layer("router.errors", "count", Lower),
    layer("router.reconnects", "count", Lower),
    // wire (derived from the trace)
    layer("wire.engine_share", "ratio", Lower),
    layer("wire.codec_share", "ratio", Lower),
    layer("wire.unaccounted_share", "ratio", Lower),
    // load (the harness itself)
    layer("load.requests", "count", Higher),
    layer("load.latency_p95_ms", "ms", Lower),
    layer("load.latency_p99_ms", "ms", Lower),
    layer("load.latency_max_ms", "ms", Lower),
    layer("load.slice_iqr_ratio", "ratio", Lower),
    layer("load.ingest_lateness_p95_ms", "ms", Lower),
    layer("load.trace_overhead_ratio", "ratio", Lower),
    layer("load.traced_requests", "count", Higher),
    layer("load.peak_rss_mb", "MB", Lower),
];

/// Measured values by metric name; the optional second number is the
/// inter-quartile range over slices (or repeats) printed beside it.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<String, (f64, Option<f64>)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), (value, None));
    }

    pub fn set_stat(&mut self, name: &str, stat: SliceStat) {
        self.0
            .insert(name.to_string(), (stat.median, Some(stat.iqr)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn iqr(&self, name: &str) -> Option<f64> {
        self.0.get(name).and_then(|(_, iqr)| *iqr)
    }

    pub fn merge(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}

/// What a timed window amounts to.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Per-slice throughput and p95 latency, in slice order (printed for
    /// the reader).
    pub slice_qps: Vec<f64>,
    pub slice_p95_ms: Vec<f64>,
    pub throughput_qps: SliceStat,
    pub latency_p50_ms: SliceStat,
    pub latency_p95_ms: SliceStat,
    pub cpu_ms_per_query: SliceStat,
    /// Requests (and paced ingests) sent, and those that errored, were
    /// refused, came back short or unverified.
    pub attempted: u64,
    pub failed: u64,
    pub latency_p99_ms: f64,
    pub latency_max_ms: f64,
    pub mean_latency_ms: f64,
    pub ingest_p50_ms: f64,
    pub ingest_lateness_p95_ms: f64,
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn window_stats(window: &Window) -> WindowStats {
    let slice_ns = window.slice.as_nanos() as u64;
    let slice_s = window.slice.as_secs_f64();
    let mut qps = Vec::new();
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut cpu = Vec::new();
    for i in 0..SLICES {
        let (lo, hi) = (slice_ns * i as u64, slice_ns * (i as u64 + 1));
        let in_slice = || {
            window
                .samples
                .iter()
                .filter(move |s| s.ok && s.done_ns >= lo && s.done_ns < hi)
        };
        let queries: u64 = in_slice().map(|s| u64::from(s.queries)).sum();
        let latencies = sorted(in_slice().map(|s| s.latency_ns as f64 / 1e6).collect());
        qps.push(queries as f64 / slice_s);
        p50.push(percentile(&latencies, 50.0));
        p95.push(percentile(&latencies, 95.0));
        let ticks = window.cpu_ticks.get(i + 1).copied().unwrap_or(0)
            - window.cpu_ticks.get(i).copied().unwrap_or(0);
        cpu.push(ticks_to_ms(ticks) / queries.max(1) as f64);
    }
    let pooled = sorted(
        window
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect(),
    );
    let ingest_ok = || window.ingests.iter().filter(|s| s.ok);
    let failed = window.samples.iter().filter(|s| !s.ok).count()
        + window.ingests.iter().filter(|s| !s.ok).count();
    WindowStats {
        throughput_qps: SliceStat::of(&qps),
        slice_qps: qps,
        latency_p95_ms: SliceStat::of(&p95),
        slice_p95_ms: p95,
        latency_p50_ms: SliceStat::of(&p50),
        cpu_ms_per_query: SliceStat::of(&cpu),
        attempted: (window.samples.len() + window.ingests.len()) as u64,
        failed: failed as u64,
        latency_p99_ms: percentile(&pooled, 99.0),
        latency_max_ms: pooled.last().copied().unwrap_or(0.0),
        mean_latency_ms: pooled.iter().sum::<f64>() / pooled.len().max(1) as f64,
        ingest_p50_ms: median(&ingest_ok().map(|s| s.latency_ms()).collect::<Vec<_>>()),
        ingest_lateness_p95_ms: percentile(
            &sorted(ingest_ok().map(|s| s.lateness_ms()).collect()),
            95.0,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{IngestSample, Sample};
    use std::time::Duration;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_and_readme_name_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let readme = include_str!("../README.md");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "README lacks {}",
                m.name
            );
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "README lacks {}",
                m.name
            );
        }
        for w in crate::streams::Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn window_metrics_are_medians_over_slices() {
        // Five 1 s slices; slice i holds (i + 1) requests of 2 queries and
        // latency (i + 1) ms, and burns (i + 1) CPU ticks.
        let mut samples = Vec::new();
        for i in 0..5u64 {
            for k in 0..=i {
                samples.push(Sample {
                    done_ns: i * 1_000_000_000 + k * 1_000,
                    latency_ns: (i + 1) * 1_000_000,
                    queries: 2,
                    ok: true,
                });
            }
        }
        samples.push(Sample {
            done_ns: 10,
            latency_ns: 1,
            queries: 2,
            ok: false,
        });
        let window = Window {
            slice: Duration::from_secs(1),
            samples,
            ingests: vec![
                IngestSample {
                    due_ns: 0,
                    sent_ns: 1_000_000,
                    done_ns: 5_000_000,
                    ok: true,
                },
                IngestSample {
                    due_ns: 0,
                    sent_ns: 3_000_000,
                    done_ns: 9_000_000,
                    ok: true,
                },
                IngestSample {
                    due_ns: 0,
                    sent_ns: 0,
                    done_ns: 0,
                    ok: false,
                },
            ],
            cpu_ticks: vec![0, 1, 3, 6, 10, 15],
            ..Window::default()
        };
        let stats = window_stats(&window);
        assert_eq!(stats.throughput_qps.median, 6.0);
        assert_eq!(stats.throughput_qps.iqr, 4.0);
        assert_eq!(stats.latency_p50_ms.median, 3.0);
        assert_eq!(stats.latency_p95_ms.median, 3.0);
        // Every slice: (i + 1) ticks of 10 ms over 2 (i + 1) queries.
        assert_eq!(stats.cpu_ms_per_query.median, 5.0);
        assert_eq!((stats.attempted, stats.failed), (19, 2));
        assert_eq!(stats.latency_max_ms, 5.0);
        assert_eq!(stats.ingest_p50_ms, 7.0);
        assert_eq!(stats.ingest_lateness_p95_ms, 3.0);
    }
}
