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

/// A bench binary's command line, checked against the binary's options
/// before it does any work.
pub struct Args(Vec<String>);

impl Args {
    /// The process's arguments, checked against `options`, the binary's
    /// options as (name, takes a value) pairs. An unknown option, an option
    /// given twice, a value-taking option without its value (last, or
    /// followed by another `--` option) and any other word exit with status
    /// 1 and an `error:` line, such as `error: unknown option "--smok"`,
    /// instead of running with the defaults.
    pub fn from_env(options: &[(&str, bool)]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        check_args(&args, options).unwrap_or_else(|e| exit_with(&e));
        Self(args)
    }

    /// Whether flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The value of option `name`, or `None` when the option is absent.
    pub fn flag(&self, name: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).cloned()
    }

    /// The value of option `name` parsed as a `T`, or `None` when the
    /// option is absent. A value that does not parse (for a count, `0` is
    /// one when `T` is a `NonZero` integer) exits with status 1 and an
    /// `error: bad value for NAME: "VALUE"` line instead of panicking.
    pub fn parsed_flag<T: FromStr>(&self, name: &str) -> Option<T> {
        let value = self.flag(name)?;
        Some(parse_value(name, &value).unwrap_or_else(|e| exit_with(&e)))
    }
}

/// Prints `error` as an `error:` line and exits with status 1.
fn exit_with(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(1)
}

/// [`Args::parsed_flag`]'s parse without the exit.
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

/// [`Args::from_env`]'s check without the exit.
fn check_args(args: &[String], options: &[(&str, bool)]) -> Result<(), String> {
    let mut seen = Vec::new();
    let mut words = args.iter();
    while let Some(word) = words.next() {
        let Some(&(name, takes_value)) = options.iter().find(|&&(name, _)| name == word) else {
            return Err(if word.starts_with("--") {
                format!("unknown option {word:?}")
            } else {
                format!("unexpected argument {word:?}")
            });
        };
        if seen.contains(&name) {
            return Err(format!("repeated option {name}"));
        }
        seen.push(name);
        if takes_value && words.next().is_none_or(|value| value.starts_with("--")) {
            return Err(format!("missing value for {name}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::num::{NonZeroU32, NonZeroUsize};

    use super::{check_args, parse_value, worse_ratio};

    const OPTIONS: &[(&str, bool)] = &[("--smoke", false), ("--out", true), ("--repeat", true)];

    fn check(args: &[&str]) -> Result<(), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        check_args(&args, OPTIONS)
    }

    #[test]
    fn options_need_their_values() {
        assert_eq!(check(&["--smoke", "--out", "dir", "--repeat", "2"]), Ok(()));
        let missing = Err("missing value for --repeat".to_owned());
        assert_eq!(check(&["--smoke", "--out", "dir", "--repeat"]), missing);
        let followed = Err("missing value for --out".to_owned());
        assert_eq!(check(&["--out", "--smoke"]), followed);
    }

    #[test]
    fn options_are_given_once() {
        let repeated = Err("repeated option --repeat".to_owned());
        assert_eq!(
            check(&["--repeat", "4", "--out", "dir", "--repeat", "8"]),
            repeated
        );
        let flag = Err("repeated option --smoke".to_owned());
        assert_eq!(check(&["--smoke", "--smoke"]), flag);
    }

    #[test]
    fn only_declared_options_are_accepted() {
        let unknown = Err(r#"unknown option "--smok""#.to_owned());
        assert_eq!(check(&["--smok", "--out", "dir"]), unknown);
        let stray = Err(r#"unexpected argument "dir""#.to_owned());
        assert_eq!(check(&["--smoke", "dir"]), stray);
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
