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
//! * `decode_cost`, `encoder_hotpath`, `telemetry_overhead` and
//!   `analysis_scale` (binaries) — wall-clock decode, encoder hot-path,
//!   telemetry and planning costs.
//!
//! This library crate holds the shared harness code (running a benchmark
//! under every encoder, formatting tables, reading the binaries' options).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::str::FromStr;

pub mod harness;
pub mod hooks;
pub mod perf;
pub mod table;

/// The value of option `name` in a bench binary's `args`, or `None` when
/// the option is absent. An option given as the last argument, or followed
/// by another `--` option, is missing its value: the binary then exits
/// with status 1 and an `error: missing value for NAME` line instead of
/// running with its default. An option given twice exits the same way,
/// with an `error: repeated option NAME` line, instead of taking one of
/// its values.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    option_value(args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// The value of option `name` parsed as a `T`, or `None` when the option
/// is absent. A value that does not parse (for a count, `0` is one when
/// `T` is a `NonZero` integer) exits with status 1 and an
/// `error: bad value for NAME: "VALUE"` line, like a missing value,
/// instead of panicking.
pub fn parsed_flag<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    flag(args, name).map(|value| {
        parse_value(name, &value).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    })
}

/// [`parsed_flag`]'s parse without the exit.
fn parse_value<T: FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {name}: {value:?}"))
}

/// Folds `ratio` into the worst ratio an overhead gate has seen so far.
/// A ratio that is not finite (from a zero or NaN rate) is worse than any
/// and sticks as NaN, which [`f64::min`] alone would skip, so a gate
/// checks `worst.is_nan() || worst < budget`.
pub fn worse_ratio(worst: f64, ratio: f64) -> f64 {
    if worst.is_nan() || !ratio.is_finite() {
        f64::NAN
    } else {
        worst.min(ratio)
    }
}

/// [`flag`] without the exit: the value, `None` when the option is absent,
/// or the missing-value or repeated-option error.
fn option_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let mut at = args.iter().enumerate().filter(|&(_, a)| a == name);
    let Some((i, _)) = at.next() else {
        return Ok(None);
    };
    if at.next().is_some() {
        return Err(format!("repeated option {name}"));
    }
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(format!("missing value for {name}")),
    }
}

#[cfg(test)]
mod tests {
    use std::num::{NonZeroU32, NonZeroUsize};

    use super::{option_value, parse_value, worse_ratio};

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

    #[test]
    fn options_are_given_once() {
        let args = ["--repeat", "4", "--out", "dir", "--repeat", "8"].map(String::from);
        assert_eq!(
            option_value(&args, "--repeat"),
            Err("repeated option --repeat".to_owned())
        );
        assert_eq!(option_value(&args, "--out"), Ok(Some("dir".to_owned())));
    }

    #[test]
    fn numeric_options_need_numbers() {
        let repeat = |v| parse_value::<NonZeroUsize>("--repeat", v).map(NonZeroUsize::get);
        assert_eq!(repeat("12"), Ok(12));
        assert_eq!(
            repeat("x"),
            Err(r#"bad value for --repeat: "x""#.to_owned())
        );
        assert_eq!(
            repeat("0"),
            Err(r#"bad value for --repeat: "0""#.to_owned())
        );
        assert!(repeat("-1").is_err());
        assert!(repeat("").is_err());
        let period = |v| parse_value::<NonZeroU32>("--period", v);
        assert_eq!(
            period("0"),
            Err(r#"bad value for --period: "0""#.to_owned())
        );
        assert_eq!(period("64").map(NonZeroU32::get), Ok(64));
    }

    #[test]
    fn a_ratio_that_is_not_finite_fails_the_gate() {
        let fails = |ratios: &[f64]| {
            let worst = ratios.iter().fold(f64::INFINITY, |w, &r| worse_ratio(w, r));
            worst.is_nan() || worst < 0.95
        };
        assert!(!fails(&[1.2, 0.97]));
        assert!(fails(&[1.2, 0.5]));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(fails(&[bad]), "{bad} alone");
            assert!(fails(&[bad, 1.2]), "{bad} first");
            assert!(fails(&[1.2, bad, 1.1]), "{bad} in between");
        }
    }
}
