//! The repository benchmark: four workloads, end-to-end metrics measured
//! with tracing off, and a traced run plus per-layer probes.
//!
//! ```text
//! concealer-benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! concealer-benchmark --all          [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! concealer-benchmark --repeat N     [--seed S] [--seconds N] [--quick]
//! concealer-benchmark --layers       [--seed S] [--seconds N]
//! ```
//!
//! Run from the repository root; see `benchmark/README.md`.

#![forbid(unsafe_code)]

mod api;
mod deploy;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod streams;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use deploy::{fail, BenchError, BenchResult, Deployment};
use metrics::{window_stats, Values, WindowStats, END_TO_END, PER_LAYER};
use report::Environment;
use run::{run_window, Window, SLICES};
use streams::{Workload, CHECK_REQUESTS};
use trace::{names, Trace};

/// Length of the timed window unless `--seconds` says otherwise; the
/// driver passes `run_seconds` of `BENCHMARK.json`, which is this value.
const RUN_SECONDS: f64 = 20.0;
/// `--quick`: one short window, one set-up, never comparable.
const QUICK_SECONDS: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Shares of `--seconds` a traced run gives its untraced window, its
/// traced window and the layer probes.
const TRACE_SPLIT: (f64, f64, f64) = (0.2, 0.3, 0.5);
/// Requests whose spans are written to the trace file (all are counted).
const TRACE_FILE_REQUESTS: u64 = 500;
/// Library defaults read these; a run must not depend on them.
const REFUSED_ENV: [&str; 4] = [
    "CONCEALER_TEST_BACKEND",
    "CONCEALER_TEST_SERVER_MODE",
    "CONCEALER_SCALE",
    "CONCEALER_FORCE_THREADS",
];

const USAGE: &str = "concealer-benchmark (--workload NAME | --all | --repeat N | --layers) \
                     [--seed S] [--seconds N] [--trace 0|1] [--quick]\n\
                     workloads: warm_batch cold_verify wire_points routed_ingest";

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    One(Workload),
    All,
    Repeat(usize),
    Layers,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        })
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut parsed = Args {
        mode: Mode::All,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                mode = Some(Mode::One(workload));
            }
            "--all" => mode = Some(Mode::All),
            "--layers" => mode = Some(Mode::Layers),
            "--repeat" => {
                let n = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                mode = Some(Mode::Repeat(n));
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.mode = mode.ok_or("one of --workload, --all, --repeat, --layers is required")?;
    Ok(parsed)
}

/// `(name, unit)` of every end-to-end metric, in catalogue order.
fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of every per-layer metric, in catalogue order.
fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

fn setup_repeats(args: &Args) -> usize {
    if args.quick {
        1
    } else {
        SETUP_REPEATS
    }
}

/// Metrics every window yields, whichever kind of run it belongs to.
fn load_values(stats: &WindowStats, window: &Window, values: &mut Values) {
    values.set("load.requests", window.samples.len() as f64);
    values.set_stat("load.latency_p95_ms", stats.latency_p95_ms);
    values.set("load.latency_p99_ms", stats.latency_p99_ms);
    values.set("load.latency_max_ms", stats.latency_max_ms);
    values.set(
        "load.slice_iqr_ratio",
        stats.throughput_qps.iqr / stats.throughput_qps.median.max(f64::MIN_POSITIVE),
    );
    values.set("load.ingest_lateness_p95_ms", stats.ingest_lateness_p95_ms);
    values.set("ingest_epoch_p50_ms", stats.ingest_p50_ms);
    values.set(
        "failed_share",
        stats.failed as f64 / stats.attempted.max(1) as f64,
    );
}

fn print_header(args: &Args, workload: &str, env: &Environment) {
    println!(
        "run workload={workload} seed={} seconds={} trace={} quick={} nproc={} rustc={:?} \
         commit={} slices={SLICES} setup_repeats={} check_requests={CHECK_REQUESTS}",
        args.seed,
        args.seconds(),
        u8::from(args.trace),
        args.quick,
        env.nproc,
        env.rustc,
        env.commit,
        setup_repeats(args),
    );
}

/// The run record written beside the traces: everything needed to tell
/// two runs apart, and every value measured.
fn run_record(
    args: &Args,
    workload: Workload,
    env: &Environment,
    deployment_facts: (&str, &str),
    values: &Values,
    names: &[(&'static str, &'static str)],
) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"slices\": {SLICES}, \
         \"setup_repeats\": {}, \"check_requests\": {CHECK_REQUESTS}, \
         \"backend\": \"{}\", \"server_mode\": \"{}\",\n \"metrics\": {}}}\n",
        workload.name(),
        args.seed,
        args.seconds(),
        args.trace,
        args.quick,
        env.nproc,
        env.rustc,
        env.commit,
        setup_repeats(args),
        deployment_facts.0,
        deployment_facts.1,
        report::metrics_object(values, names),
    )
}

/// The end-to-end run: set up [`SETUP_REPEATS`] times, then one timed
/// window with tracing off.
fn run_end_to_end(args: &Args, workload: Workload, env: &Environment) -> BenchResult<String> {
    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..setup_repeats(args) {
        drop(deployment.take());
        let started = Instant::now();
        deployment = Some(Deployment::build(workload, args.seed)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut deployment = deployment.expect("at least one set-up");
    let window = run_window(&mut deployment, workload.callers(), args.seconds(), None)?;
    let stats = window_stats(&window);

    let mut values = Values::default();
    values.set_stat("setup_s", stats::SliceStat::of(&setups));
    values.set_stat("throughput_qps", stats.throughput_qps);
    values.set_stat("latency_p50_ms", stats.latency_p50_ms);
    values.set_stat("cpu_ms_per_query", stats.cpu_ms_per_query);
    values.set("peak_rss_mb", run::peak_rss_mb());
    values.set(
        "rows_fetched_per_query",
        deployment.checked.rows_fetched as f64 / deployment.checked.queries.max(1) as f64,
    );
    // Printed for the reader, not part of the end-to-end result object.
    let mut extra = Values::default();
    load_values(&stats, &window, &mut extra);
    extra.set(
        "stored_bytes_per_user_byte",
        deployment.stored_bytes_per_user_byte,
    );

    println!("note per-slice throughput_qps {:?}", stats.slice_qps);
    println!(
        "note per-slice load.latency_p95_ms {:?}",
        stats.slice_p95_ms
    );
    println!(
        "note backend={} server_mode={} checked_requests={} checked_queries={}",
        deployment.backend,
        deployment.server_mode,
        deployment.checked.requests,
        deployment.checked.queries
    );
    let e2e = end_to_end_names();
    let layer = per_layer_names();
    report::print_metrics(&values, &e2e);
    report::print_metrics(&extra, &layer);
    let mut all = values.clone();
    all.merge(extra);
    let all_names: Vec<_> = e2e.iter().chain(&layer).copied().collect();
    report::write_out(
        &format!("run-{}-trace0.json", workload.name()),
        &run_record(
            args,
            workload,
            env,
            (deployment.backend, &deployment.server_mode),
            &all,
            &all_names,
        ),
    );
    Ok(report::result_line(
        stats.failed == 0,
        stats.attempted,
        stats.failed,
        &report::metrics_object(&values, &e2e),
    ))
}

/// Per-request figures of the routed trace: `(root, shard.direct,
/// engine.execute)` durations by request id.
fn routed_figures(trace: &Trace) -> BTreeMap<u64, (u64, Option<u64>, Option<u64>)> {
    let mut by_request: BTreeMap<u64, (u64, Option<u64>, Option<u64>)> = BTreeMap::new();
    for span in trace.spans() {
        let entry = by_request.entry(span.request_id).or_default();
        match span.name {
            names::REQUEST => entry.0 = span.duration_ns(),
            names::SHARD_DIRECT => entry.1 = Some(span.duration_ns()),
            names::ENGINE_EXECUTE => entry.2 = Some(span.duration_ns()),
            _ => {}
        }
    }
    by_request
}

/// What the spans say about where request time went.
fn trace_values(trace: &Trace, workload: Workload, values: &mut Values) {
    let total = (trace.total_ns(names::REQUEST) as f64).max(1.0);
    let share = |name: &str| trace.total_ns(name) as f64 / total;
    let phases = [
        ("core.phase.fetch_share", names::CORE_FETCH),
        ("core.phase.decrypt_share", names::CORE_DECRYPT),
        ("core.phase.verify_share", names::CORE_VERIFY),
        ("core.phase.aggregate_share", names::CORE_AGGREGATE),
    ];
    let mut phase_sum = 0.0;
    for (metric, span) in phases {
        let phase = share(span);
        values.set(metric, phase);
        phase_sum += phase;
    }
    let engine = share(names::ENGINE_EXECUTE);
    let codec = share(names::ENCODE_REQUEST)
        + share(names::DECODE_REQUEST)
        + share(names::ENCODE_RESPONSE)
        + share(names::DECODE_RESPONSE);
    values.set("core.phase.unaccounted_share", engine - phase_sum);
    values.set("wire.engine_share", engine);
    values.set("wire.codec_share", codec);
    values.set("wire.unaccounted_share", 1.0 - engine - codec);
    if workload == Workload::RoutedIngest {
        let figures = routed_figures(trace);
        let us = |ns: i64| ns as f64 / 1e3;
        let hops: Vec<f64> = figures
            .values()
            .filter_map(|(root, direct, _)| direct.map(|d| us(*root as i64 - d as i64)))
            .collect();
        let fanouts: Vec<f64> = figures
            .values()
            .filter_map(|(root, direct, engine)| match (direct, engine) {
                (None, Some(e)) => Some(us(*root as i64 - *e as i64)),
                _ => None,
            })
            .collect();
        values.set("router.hop_us", stats::median(&hops));
        values.set("router.fanout2_us", stats::median(&fanouts));
    }
}

/// The traced run: one caller, an untraced window, a traced window, the
/// router's own counters, then the layer probes.
fn run_traced(args: &Args, workload: Workload, env: &Environment) -> BenchResult<String> {
    let (untraced_share, traced_share, probe_share) = TRACE_SPLIT;
    let seconds = args.seconds();
    let mut deployment = Deployment::build(workload, args.seed)?;
    let untraced = run_window(&mut deployment, 1, seconds * untraced_share, None)?;
    let mut trace = Trace::default();
    let traced = run_window(&mut deployment, 1, seconds * traced_share, Some(&mut trace))?;
    let untraced_stats = window_stats(&untraced);
    let traced_stats = window_stats(&traced);

    let mut values = Values::default();
    load_values(&untraced_stats, &untraced, &mut values);
    // Ingest figures pool both windows: the paced ingest runs in each.
    let ingests: Vec<_> = untraced
        .ingests
        .iter()
        .chain(&traced.ingests)
        .filter(|s| s.ok)
        .collect();
    values.set(
        "ingest_epoch_p50_ms",
        stats::median(&ingests.iter().map(|s| s.latency_ms()).collect::<Vec<_>>()),
    );
    values.set(
        "stored_bytes_per_user_byte",
        deployment.stored_bytes_per_user_byte,
    );
    values.set(
        "load.trace_overhead_ratio",
        traced_stats.mean_latency_ms / untraced_stats.mean_latency_ms.max(f64::MIN_POSITIVE) - 1.0,
    );
    values.set("load.traced_requests", traced.samples.len() as f64);
    let lookups =
        (untraced.cache_hits + untraced.cache_misses + traced.cache_hits + traced.cache_misses)
            .max(1);
    values.set(
        "core.bin_cache.hit_ratio",
        (untraced.cache_hits + traced.cache_hits) as f64 / lookups as f64,
    );
    values.set(
        "core.bin_cache.evictions",
        (untraced.cache_evictions + traced.cache_evictions) as f64,
    );
    trace_values(&trace, workload, &mut values);
    if let (Workload::RoutedIngest, Some(addr)) = (workload, deployment.addr) {
        let mut session = deploy::connect(addr, &deployment.user, "router-stats")?;
        let stats = session
            .router_stats()
            .or_else(|e| fail("router_stats", e))?;
        session
            .close()
            .or_else(|e| fail("closing router-stats", e))?;
        let forwarded = |s: &api::ShardLoad| s.requests_forwarded;
        values.set(
            "router.forwarded",
            stats.shards.iter().map(forwarded).sum::<u64>() as f64,
        );
        values.set(
            "router.forwarded_min_shard",
            stats.shards.iter().map(forwarded).min().unwrap_or(0) as f64,
        );
        values.set(
            "router.errors",
            stats.shards.iter().map(|s| s.errors).sum::<u64>() as f64,
        );
        values.set(
            "router.reconnects",
            stats.shards.iter().map(|s| s.reconnects).sum::<u64>() as f64,
        );
    }
    let facts = (deployment.backend, deployment.server_mode.clone());
    drop(deployment);

    values.merge(layers::run_probes(
        args.seed,
        Duration::from_secs_f64(seconds * probe_share),
    )?);
    values.set("load.peak_rss_mb", run::peak_rss_mb());

    println!("note backend={} server_mode={}", facts.0, facts.1);
    let layer = per_layer_names();
    report::print_metrics(&values, &layer);
    report::write_out(
        &format!("trace-{}.json", workload.name()),
        &trace.to_json(workload.name(), args.seed, TRACE_FILE_REQUESTS),
    );
    report::write_out(
        &format!("run-{}-trace1.json", workload.name()),
        &run_record(args, workload, env, (facts.0, &facts.1), &values, &layer),
    );
    let attempted = untraced_stats.attempted + traced_stats.attempted;
    let failed = untraced_stats.failed + traced_stats.failed;
    Ok(report::result_line(
        failed == 0,
        attempted,
        failed,
        &report::metrics_object(&values, &layer),
    ))
}

/// `--layers`: the probes alone.
fn run_layers(args: &Args) -> BenchResult<String> {
    let values = layers::run_probes(args.seed, Duration::from_secs_f64(args.seconds()))?;
    let layer = per_layer_names();
    report::print_metrics(&values, &layer);
    Ok(report::result_line(
        true,
        1,
        0,
        &report::metrics_object(&values, &layer),
    ))
}

/// Arguments for a child process running one workload of this invocation.
fn child_args(args: &Args, workload: Workload, trace: bool) -> Vec<String> {
    let mut out = vec![
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds().to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if args.quick {
        out.push("--quick".to_string());
    }
    out
}

/// Run one workload in a child process (its own `VmHWM` and CPU clock) and
/// return its standard output, echoed as it is.
fn run_child(args: &Args, workload: Workload, trace: bool) -> BenchResult<String> {
    let exe = std::env::current_exe().or_else(|e| fail("locating this executable", e))?;
    let output = std::process::Command::new(exe)
        .args(child_args(args, workload, trace))
        .stderr(std::process::Stdio::inherit())
        .output()
        .or_else(|e| fail("starting a child run", e))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    if !output.status.success() {
        return fail(
            workload.name(),
            format!("child run exited with {}", output.status),
        );
    }
    Ok(stdout)
}

/// `--all`: every workload, one child process each.
fn run_all(args: &Args) -> BenchResult<()> {
    for workload in Workload::ALL {
        run_child(args, workload, args.trace)?;
    }
    Ok(())
}

/// `--repeat N`: N full sets back to back; per end-to-end metric and
/// workload print each set's value, their inter-quartile range and the
/// largest pairwise relative difference, and fail when that difference
/// exceeds the metric's bound. The tool for a two-set agreement check and
/// for later paired runs.
fn run_repeat(args: &Args, sets: usize) -> BenchResult<bool> {
    let mut results: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        println!("note set {} of {sets}", set + 1);
        for workload in Workload::ALL {
            let stdout = run_child(args, workload, false)?;
            for (name, value) in report::parse_metric_lines(&stdout) {
                if let Some(metric) = END_TO_END.iter().find(|m| m.name == name) {
                    results
                        .entry((workload.name(), metric.name))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    let mut within = true;
    for workload in Workload::ALL {
        for metric in END_TO_END {
            let Some(values) = results.get(&(workload.name(), metric.name)) else {
                continue;
            };
            let diff = stats::max_pairwise_rel_diff(values);
            let ok = diff <= metric.bound;
            within &= ok;
            println!(
                "repeat {} {} better={} sets={values:?} iqr={} max_rel_diff={diff:.4} bound={} {}",
                workload.name(),
                metric.name,
                metric.better.name(),
                stats::iqr(values),
                metric.bound,
                if ok { "ok" } else { "EXCEEDED" },
            );
        }
    }
    if args.quick {
        println!("note quick runs are never comparable; differences above are informational");
    }
    Ok(within || args.quick)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("concealer-benchmark: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("concealer-benchmark: {var} is set; library defaults read it, unset it first");
        return ExitCode::from(2);
    }
    let outcome: BenchResult<bool> = match &args.mode {
        Mode::One(workload) => {
            let env = Environment::read();
            print_header(&args, workload.name(), &env);
            let line = if args.trace {
                run_traced(&args, *workload, &env)
            } else {
                run_end_to_end(&args, *workload, &env)
            };
            line.map(|line| {
                println!("{line}");
                true
            })
        }
        Mode::Layers => run_layers(&args).map(|line| {
            println!("{line}");
            true
        }),
        Mode::All => run_all(&args).map(|()| true),
        Mode::Repeat(sets) => run_repeat(&args, *sets),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(BenchError(e)) => {
            eprintln!("concealer-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse_args(&argv(
            "--workload cold_verify --seed 9 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.mode, Mode::One(Workload::ColdVerify));
        assert_eq!(
            (args.seed, args.seconds(), args.trace, args.quick),
            (9, 15.0, true, false)
        );
        assert_eq!(parse_args(&argv("--all")).unwrap().seconds(), RUN_SECONDS);
        assert_eq!(
            parse_args(&argv("--repeat 2 --quick")).unwrap().seconds(),
            QUICK_SECONDS
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2 --all")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    /// `rows_fetched_per_query` and `stored_bytes_per_user_byte` are pure
    /// functions of the seed: two set-ups in one process agree bit for bit.
    #[test]
    fn exact_metrics_repeat_bit_for_bit() {
        for workload in [Workload::WirePoints, Workload::RoutedIngest] {
            let a = Deployment::build(workload, 5).unwrap();
            let b = Deployment::build(workload, 5).unwrap();
            assert_eq!(a.checked, b.checked, "{workload:?}");
            assert!(a.checked.rows_fetched > 0);
            assert_eq!(
                a.stored_bytes_per_user_byte.to_bits(),
                b.stored_bytes_per_user_byte.to_bits()
            );
            if workload == Workload::RoutedIngest {
                assert!(a.stored_bytes_per_user_byte > 1.0);
            }
        }
    }

    /// A short traced window end to end: every request's parts plus
    /// `unaccounted` equal its root span.
    #[test]
    fn traced_requests_decompose_exactly() {
        let mut deployment = Deployment::build(Workload::RoutedIngest, 6).unwrap();
        let mut trace = Trace::default();
        let window = run_window(&mut deployment, 1, 0.5, Some(&mut trace)).unwrap();
        assert!(window.samples.iter().all(|s| s.ok));
        let breakdowns = trace.breakdowns();
        assert!(!breakdowns.is_empty());
        for b in &breakdowns {
            assert_eq!(b.parts_sum_ns(), b.root_ns as i64);
        }
        assert!(trace.total_ns(names::SHARD_DIRECT) > 0);
        assert!(window.ingests.iter().all(|s| s.ok) && !window.ingests.is_empty());
    }
}
