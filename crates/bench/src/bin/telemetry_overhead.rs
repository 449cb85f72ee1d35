//! Telemetry overhead on the batched-encoder hot path: sampled hook
//! latency recording vs no telemetry at all.
//!
//! ```text
//! telemetry_overhead [--out DIR] [--repeat N] [--period N] [--smoke]
//! ```
//!
//! The span profiler never touches encoder hooks directly — only a
//! [`HookSampler`] wrapper does, and only on 1-in-N call hooks (one
//! countdown decrement on the other N-1 calls; returns, entries and exits
//! pass straight through). This binary pins that cost: each workload's
//! harvested hook stream (shared machinery with `encoder_hotpath`, see
//! [`deltapath_bench::hooks`]) is replayed through a bare
//! [`BatchedDeltaEncoder`] — the `NullTelemetry` configuration, since an
//! unwrapped encoder records nothing — and through the same encoder
//! wrapped in a `HookSampler` at a period of 1024 (overridable with
//! `--period`).
//!
//! One `deltapath.perf.v1` record per (workload, configuration) lands in
//! `BENCH_telemetry_overhead.json`:
//!
//! * `calls` — hooks replayed per timed pass, `base_cost` — elapsed
//!   nanoseconds of the best un-sampled pass, `overhead` — extra
//!   nanoseconds of the best sampled pass (0 when sampling measured
//!   faster, i.e. inside timer noise);
//! * `normalized_speed` — sampled hook throughput relative to un-sampled
//!   on the same workload (un-sampled rows are 1.0);
//! * `unique_contexts` carries the sampler period so the record is
//!   self-describing, `max_depth` — deepest replayed entry nesting.
//!
//! `--smoke` is the CI overhead gate: tiny repeat counts, and the run
//! fails if sampling costs more than the 5% budget (worst-case ratio
//! below 0.95x, or not finite) on any workload.

use std::num::{NonZeroU32, NonZeroUsize};
use std::path::PathBuf;
use std::process::ExitCode;

use deltapath_bench::hooks::{harvest, max_entry_depth, measure};
use deltapath_bench::perf::{PerfRecord, PerfSuite};
use deltapath_bench::worse_ratio;
use deltapath_callgraph::ScopeFilter;
use deltapath_core::{EncodingPlan, PlanConfig};
use deltapath_ir::Program;
use deltapath_runtime::{BatchedDeltaEncoder, HookSampler};
use deltapath_telemetry::Recorder;
use deltapath_workloads::specjvm;
use deltapath_workloads::synthetic::{generate, SyntheticConfig};

/// Default 1-in-N call-hook sampling period.
const DEFAULT_PERIOD: u32 = 1024;

/// One benchmarked workload: a program plus the plan scope it runs under.
struct Workload {
    name: String,
    program: Program,
    scope: ScopeFilter,
}

fn workloads(smoke: bool) -> Vec<Workload> {
    let spec = if smoke {
        vec!["compress"]
    } else {
        vec!["compress", "crypto.aes", "mpegaudio", "xml.transform"]
    };
    let mut out: Vec<Workload> = spec
        .into_iter()
        .map(|name| Workload {
            name: name.to_owned(),
            program: specjvm::program(name).expect("bundled benchmark"),
            scope: ScopeFilter::ApplicationOnly,
        })
        .collect();
    // The dynamic-loading synthetic shape exercises the slow lanes (UCP
    // recovery, absent table slots) under sampling too.
    out.push(Workload {
        name: "synthetic.dynamic".into(),
        program: generate(&SyntheticConfig {
            name: "hotpath_dynamic".into(),
            seed: 9,
            main_loop_iters: 3,
            observe_events: 4,
            ..SyntheticConfig::default()
        }),
        scope: ScopeFilter::ApplicationOnly,
    });
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| deltapath_bench::flag(&args, name);
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir = flag("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| ".".into());
    let repeat = deltapath_bench::parsed_flag(&args, "--repeat")
        .map_or(if smoke { 2 } else { 12 }, NonZeroUsize::get);
    let period =
        deltapath_bench::parsed_flag(&args, "--period").map_or(DEFAULT_PERIOD, NonZeroU32::get);
    let passes = 2;
    /// Replayed stream length cap, matching `encoder_hotpath`.
    const STREAM_CAP: usize = 400_000;
    /// The overhead budget: sampled throughput must stay within 5% of the
    /// un-sampled encoder.
    const BUDGET_RATIO: f64 = 0.95;

    let recorder = Recorder::new();
    let mut perf = PerfSuite::new("telemetry_overhead");
    let mut worst = f64::INFINITY;
    for w in workloads(smoke) {
        let plan_config = PlanConfig::default().with_scope(w.scope);
        let plan = EncodingPlan::analyze(&w.program, &plan_config).expect("plan");
        let compiled = plan.compile();
        let entry = w.program.entry();

        let mut hooks = harvest(&w.program).expect("harvest run");
        let harvested = hooks.len();
        hooks.truncate(STREAM_CAP);
        let max_depth = max_entry_depth(&hooks);

        // Interleave the two configurations round by round and keep each
        // one's best pass: clock-frequency drift between back-to-back
        // blocks would otherwise masquerade as telemetry overhead.
        let rounds = if smoke { 2 } else { 4 };
        let (mut null_rate, mut null_ns) = (0.0f64, u64::MAX);
        let (mut sampled_rate, mut sampled_ns) = (0.0f64, u64::MAX);
        for _ in 0..rounds {
            let (rate, ns) = measure(entry, &hooks, repeat, passes, || {
                BatchedDeltaEncoder::new(&compiled)
            });
            if ns < null_ns {
                (null_rate, null_ns) = (rate, ns);
            }
            let (rate, ns) = measure(entry, &hooks, repeat, passes, || {
                HookSampler::new(BatchedDeltaEncoder::new(&compiled), &recorder, period)
            });
            if ns < sampled_ns {
                (sampled_rate, sampled_ns) = (rate, ns);
            }
        }
        let ratio = sampled_rate / null_rate;
        worst = worse_ratio(worst, ratio);
        eprintln!(
            "{:22} {harvested:>8} hooks ({} replayed): none {:>7.2} ns/hook, sampled(1/{period}) {:>7.2} ns/hook ({ratio:.3}x)",
            w.name,
            hooks.len(),
            1e9 / null_rate,
            1e9 / sampled_rate,
        );

        let replayed = (hooks.len() * repeat) as u64;
        for (config, speed, best_ns) in [
            ("batched+none", 1.0, null_ns),
            ("batched+sampled", ratio, sampled_ns),
        ] {
            perf.records.push(PerfRecord {
                benchmark: w.name.clone(),
                encoder: config.to_owned(),
                calls: replayed,
                base_cost: null_ns,
                overhead: best_ns.saturating_sub(null_ns),
                normalized_speed: speed,
                unique_contexts: u64::from(period),
                max_depth: max_depth as u64,
                calls_per_sec_per_core: replayed as f64 * 1e9 / best_ns as f64,
            });
        }
    }

    if worst.is_nan() || worst < BUDGET_RATIO {
        eprintln!(
            "error: sampled hook recording exceeded the 5% overhead budget \
             (worst {worst:.3}x < {BUDGET_RATIO:.2}x)"
        );
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
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
