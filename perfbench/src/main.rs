//! `perfbench --workload <site_loop|query_mix|durable_ingest> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON line with the metrics.
//! Exits non-zero, after printing, if any oracle failed.

use perfbench::run::{run, Args};
use perfbench::stats::pin_to_one_cpu;
use std::path::Path;

/// Scratch directory the benchmark owns, relative to where it is run.
const RUN_DIR: &str = ".bench_run";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every thread the benchmark starts shares one CPU, so that no thread of
    // the program slows another that runs beside it on a sibling core, and
    // the speed probe on the main thread runs where all the work runs.
    if pin_to_one_cpu().is_none() {
        eprintln!("perfbench: could not pin the process to one CPU");
        std::process::exit(2);
    }
    let run_dir = Path::new(RUN_DIR);
    let outcome = run(&args, run_dir);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.json());
    if outcome.failures.total() > 0 {
        std::process::exit(1);
    }
}
