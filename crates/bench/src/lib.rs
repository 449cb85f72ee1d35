//! # deltapath-bench
//!
//! The benchmark harness regenerating the DeltaPath paper's evaluation:
//!
//! * `table1` (binary) — static program characteristics per benchmark and
//!   encoding setting (paper Table 1);
//! * `table2` (binary) — dynamic characteristics: contexts, depths, unique
//!   encodings for PCC vs DeltaPath, stack depths, UCPs (paper Table 2);
//! * `figure8` (binary) — normalized execution speed of PCC, DeltaPath
//!   without and with call-path tracking (paper Figure 8);
//! * `ablation_anchors` (binary) — anchors and max ID vs encoding width
//!   (our ablation A1);
//! * `perf_records` (binary) — the Figure 8 measurements as machine-readable
//!   `BENCH_*.json` files (see [`perf`]);
//! * `decode_cost`, `encoder_hotpath`, `telemetry_overhead`,
//!   `mt_throughput` and `analysis_scale` (binaries) — wall-clock decode,
//!   encoder hot-path, telemetry, collector and planning costs.
//!
//! This library crate holds the shared harness code (running a benchmark
//! under every encoder, formatting tables, reading the binaries' options).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod hooks;
pub mod perf;
pub mod table;

/// The value of option `name` in a bench binary's `args`, or `None` when
/// the option is absent. An option given as the last argument, or followed
/// by another `--` option, is missing its value: the binary then exits
/// with status 1 and an `error: missing value for NAME` line instead of
/// running with its default.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    option_value(args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// [`flag`] without the exit: the value, `None` when the option is absent,
/// or the missing-value error.
fn option_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(format!("missing value for {name}")),
    }
}

#[cfg(test)]
mod tests {
    use super::option_value;

    #[test]
    fn options_need_their_values() {
        let args: Vec<String> = ["--smoke", "--out", "dir", "--repeat"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(option_value(&args, "--out"), Ok(Some("dir".to_owned())));
        assert_eq!(option_value(&args, "--seed"), Ok(None));
        let missing = Err("missing value for --repeat".to_owned());
        assert_eq!(option_value(&args, "--repeat"), missing);
        let followed = ["--out", "--smoke"].map(String::from);
        assert!(option_value(&followed, "--out").is_err());
    }
}
