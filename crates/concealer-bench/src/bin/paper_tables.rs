//! Regenerate the tables and figures of the Concealer paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! paper_tables             # run every experiment
//! paper_tables exp2 exp9   # run a subset
//! CONCEALER_SCALE=10 paper_tables exp3   # 10x larger datasets
//! ```
//!
//! Output is plain text with one block per experiment, in the same shape as
//! the paper's Tables 5-7 and Figures 3-8 (PAPER.md §9 has the paper's
//! side of the comparison).

use concealer_bench::experiments;
use concealer_bench::setup::WifiScale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_all = args.is_empty();
    let want = |name: &str| run_all || args.iter().any(|a| a == name);

    let mut blocks: Vec<(&str, Vec<String>)> = Vec::new();

    if want("exp1") {
        blocks.push(("exp1", experiments::exp1_throughput()));
    }
    if want("exp2") {
        blocks.push(("exp2 (point)", experiments::exp2_point()));
        blocks.push((
            "exp2 (range, small)",
            experiments::exp2_range(WifiScale::Small),
        ));
        blocks.push((
            "exp2 (range, large)",
            experiments::exp2_range(WifiScale::Large),
        ));
    }
    if want("exp3") {
        blocks.push(("exp3", experiments::exp3_range_length()));
    }
    if want("exp4") {
        blocks.push(("exp4", experiments::exp4_verification()));
    }
    if want("exp5") {
        blocks.push(("exp5", experiments::exp5_dynamic()));
    }
    if want("exp6") {
        blocks.push(("exp6", experiments::exp6_binsize()));
    }
    if want("exp7") {
        blocks.push(("exp7", experiments::exp7_cellids()));
    }
    if want("exp8") {
        blocks.push(("exp8", experiments::exp8_tpch(20_000)));
    }
    if want("exp9") {
        blocks.push(("exp9", experiments::exp9_opaque_point()));
    }
    if want("exp10") {
        blocks.push(("exp10", experiments::exp10_opaque_range()));
    }

    if blocks.is_empty() {
        eprintln!("unknown experiment selection {args:?}; valid: exp1 .. exp10");
        std::process::exit(1);
    }

    println!(
        "Concealer paper reproduction — CONCEALER_SCALE={}",
        concealer_bench::scale_multiplier()
    );
    println!("================================================================");
    for (_, lines) in blocks {
        for line in lines {
            println!("{line}");
        }
        println!();
    }
}
