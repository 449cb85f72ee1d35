//! Emits the Figure 8 measurements as a machine-readable `BENCH_*.json`
//! file instead of a rendered table, for plotting scripts and regression
//! dashboards (schema: [`deltapath_bench::perf::PERF_SCHEMA`]).
//!
//! ```text
//! perf_records [--out DIR] [--bench NAME]
//! ```
//!
//! Writes `BENCH_encoders.json` under `DIR` (default: the current
//! directory) covering the whole suite, or only `NAME` when given.

use std::path::PathBuf;
use std::process::ExitCode;

use deltapath_bench::harness::run_all_encoders;
use deltapath_bench::perf::PerfSuite;
use deltapath_bench::Args;
use deltapath_runtime::CostModel;
use deltapath_workloads::specjvm::suite;

fn main() -> ExitCode {
    let args = Args::from_env(&[("--out", true), ("--bench", true)]);
    let out_dir = args
        .flag("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| ".".into());
    let only = args.flag("--bench");

    let model = CostModel::default();
    let mut perf = PerfSuite::new("encoders");
    for bench in suite() {
        if only.as_deref().is_some_and(|n| n != bench.name) {
            continue;
        }
        let program = bench.program();
        perf.absorb(bench.name, &run_all_encoders(&program, &model));
        eprintln!("measured {}", bench.name);
    }
    if perf.records.is_empty() {
        eprintln!("error: no benchmark matched (run `deltapath list` for names)");
        return ExitCode::FAILURE;
    }
    match perf.write_to(&out_dir) {
        Ok(path) => {
            println!("wrote {} records to {}", perf.records.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write perf file: {e}");
            ExitCode::FAILURE
        }
    }
}
