//! What a run prints: one `metric NAME VALUE UNIT` line per metric, the
//! run record written under `benchmark/out/`, and — as the last line of
//! standard output — the result object the driver reads.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::metrics::Values;

/// Where trace files, run records and scratch stores go: `benchmark/out/`
/// of the checkout the benchmark is run from (`out/` when run from the
/// package directory itself, as `cargo test` does).
pub fn out_dir() -> PathBuf {
    let package = Path::new("benchmark");
    if package.is_dir() {
        package.join("out")
    } else {
        PathBuf::from("out")
    }
}

/// Facts about the machine and build every run records.
pub struct Environment {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Environment {
    pub fn read() -> Environment {
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// A number as JSON: all its digits, and `0` for anything not finite.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for `names`, in order; a
/// metric that was not measured reads `0`.
pub fn metrics_object(values: &Values, names: &[(&'static str, &'static str)]) -> String {
    let body = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(values.get(name).unwrap_or(0.0))
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// The driver's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    )
}

/// One `metric` line per name, with the spread over slices where there is
/// one.
pub fn print_metrics(values: &Values, names: &[(&'static str, &'static str)]) {
    for (name, unit) in names {
        let Some(value) = values.get(name) else {
            continue;
        };
        let mut line = format!("metric {name} {} {unit}", json_number(value));
        if let Some(iqr) = values.iqr(name) {
            write!(line, " iqr {}", json_number(iqr)).expect("writing to a String cannot fail");
        }
        println!("{line}");
    }
}

/// Parse the `metric` lines of a child run back into `(name, value)`.
pub fn parse_metric_lines(output: &str) -> Vec<(String, f64)> {
    output
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("metric ")?.split_whitespace();
            let name = words.next()?.to_string();
            let value = words.next()?.parse().ok()?;
            Some((name, value))
        })
        .collect()
}

/// Write `contents` to `benchmark/out/<file>`; a failure is reported, not
/// fatal (the result line does not depend on it).
pub fn write_out(file: &str, contents: &str) {
    let dir = out_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), contents));
    match written {
        Ok(()) => println!("note wrote {}", dir.join(file).display()),
        Err(e) => println!("note could not write {}: {e}", dir.join(file).display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("latency_p50_ms", 1.2034);
        let metrics = metrics_object(&values, &[("latency_p50_ms", "ms"), ("setup_s", "s")]);
        let line = result_line(true, 0, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_lines_round_trip() {
        let parsed = parse_metric_lines(
            "run workload=x\nmetric throughput_qps 3712.5 1/s iqr 50.25\nnote hi\nmetric setup_s 0.8 s\n{}",
        );
        assert_eq!(
            parsed,
            vec![
                ("throughput_qps".to_string(), 3712.5),
                ("setup_s".to_string(), 0.8)
            ]
        );
    }
}
