//! Encoder hot-path throughput: the map-based reference [`DeltaEncoder`]
//! and the deployment path, the hook-at-a-time [`BatchedDeltaEncoder`],
//! hook for hook.
//!
//! Both encoders drive the same `DeltaState` machine; they differ only in
//! where it finds its instructions (the plan's hash maps, lowered per
//! hook, or the compiled tables). So the ratio of the two rows measures
//! instruction lookup alone, not two implementations of the machine.
//!
//! ```text
//! encoder_hotpath [--out DIR] [--repeat N] [--smoke]
//! ```
//!
//! Each workload is executed once under a recording encoder that harvests
//! the exact instrumentation hook stream (call / return / entry / exit /
//! observe, with call-site and method operands). The stream is then
//! replayed — LIFO token stacks standing in for the interpreter's native
//! stack — into both encoders, first once for *verification* (captures,
//! abstract op counts and UCP detections must be identical) and then in
//! timed best-of-N passes, as the `deltapath` and `batched-enc` rows. This
//! isolates pure hook dispatch cost: the interpreter, the collector and
//! event materialization are all off the clock. The
//! harvest/replay/measure machinery is shared with the
//! `telemetry_overhead` binary via [`deltapath_bench::hooks`].
//!
//! One `deltapath.perf.v1` record per (workload, encoder row) lands in
//! `BENCH_encoder_hotpath.json`:
//!
//! * `calls` — hooks replayed per timed pass, `base_cost` — elapsed
//!   nanoseconds of the best pass;
//! * `normalized_speed` — hook throughput relative to the map-based
//!   encoder on the same workload (map-based rows are 1.0);
//! * `calls_per_sec_per_core` — absolute hook throughput on one core;
//! * `unique_contexts` / `max_depth` — from the verification replay.
//!
//! `--smoke` is the CI gate: tiny repeat counts, and the run fails unless
//! the batched encoder is at least as fast as the map-based one (with a
//! small slack for timer noise) — and fails *hard* on any batched-vs-map
//! divergence, which is checked before any throughput number is believed.

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;

use deltapath_bench::hooks::{harvest, max_entry_depth, measure, replay};
use deltapath_bench::perf::{PerfRecord, PerfSuite};
use deltapath_bench::worse_ratio;
use deltapath_callgraph::ScopeFilter;
use deltapath_core::{EncodingPlan, PlanConfig};
use deltapath_ir::Program;
use deltapath_runtime::{BatchedDeltaEncoder, Capture, ContextEncoder, DeltaEncoder, OpCounts};
use deltapath_workloads::specjvm;
use deltapath_workloads::synthetic::{generate, SyntheticConfig};

/// What one verification replay saw; both encoders must agree on all of it.
#[derive(PartialEq)]
struct Verified {
    captures: Vec<Capture>,
    counts: OpCounts,
    ucp_detections: u64,
}

/// One benchmarked workload: a program plus the plan scope it runs under.
struct Workload {
    name: String,
    program: Program,
    scope: ScopeFilter,
    /// SPECjvm-like workloads carry the paper's headline claim and gate
    /// the full (non-smoke) run; synthetic shapes are informational.
    specjvm: bool,
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
            specjvm: true,
        })
        .collect();
    // A closed-world synthetic shape (every hook hits a present table
    // slot) and a dynamic-loading shape (UCP recoveries and absent slots
    // on the hot path) round out the coverage.
    out.push(Workload {
        name: "synthetic.closed".into(),
        program: generate(&SyntheticConfig {
            name: "hotpath_closed".into(),
            seed: 7,
            lib_families: 0,
            lib_methods_per_layer: 0,
            cross_scope_prob: 0.0,
            dynamic_subclass_prob: 0.0,
            main_loop_iters: 4,
            observe_events: 4,
            ..SyntheticConfig::default()
        }),
        scope: ScopeFilter::All,
        specjvm: false,
    });
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
        specjvm: false,
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
    let passes = if smoke { 2 } else { 3 };
    /// Replayed stream length cap: enough for steady-state measurement,
    /// small enough that harvesting and verification stay quick.
    const STREAM_CAP: usize = 400_000;

    let mut perf = PerfSuite::new("encoder_hotpath");
    let mut worst_specjvm = f64::INFINITY;
    let mut worst_overall = f64::INFINITY;
    for w in workloads(smoke) {
        let plan_config = PlanConfig::default().with_scope(w.scope);
        let plan = EncodingPlan::analyze(&w.program, &plan_config).expect("plan");
        let compiled = plan.compile();
        let entry = w.program.entry();

        // Harvest the hook stream once (the VM is deterministic).
        let mut hooks = harvest(&w.program).expect("harvest run");
        let harvested = hooks.len();
        hooks.truncate(STREAM_CAP);

        // Verify: both encoders must agree capture for capture before any
        // throughput number is believed.
        let verify = |captures: Vec<Capture>, counts: OpCounts, ucp: u64| Verified {
            captures,
            counts,
            ucp_detections: ucp,
        };
        let mut map_enc = DeltaEncoder::new(&plan);
        let mut map_caps = Vec::new();
        replay(entry, &hooks, &mut map_enc, &mut map_caps);
        let map_seen = verify(map_caps, map_enc.counts(), map_enc.ucp_detections());
        let mut bat_enc = BatchedDeltaEncoder::new(&compiled);
        let mut bat_caps = Vec::new();
        replay(entry, &hooks, &mut bat_enc, &mut bat_caps);
        let bat_seen = verify(bat_caps, bat_enc.counts(), bat_enc.ucp_detections());
        assert!(
            bat_seen == map_seen,
            "{}: batched and map-based encoders diverged",
            w.name
        );
        let unique: HashSet<&Capture> = map_seen.captures.iter().collect();
        let max_depth = max_entry_depth(&hooks);

        let (map_rate, map_ns) =
            measure(entry, &hooks, repeat, passes, || DeltaEncoder::new(&plan));
        let (enc_rate, enc_ns) = measure(entry, &hooks, repeat, passes, || {
            BatchedDeltaEncoder::new(&compiled)
        });
        let ratio = enc_rate / map_rate;
        if w.specjvm {
            worst_specjvm = worse_ratio(worst_specjvm, ratio);
        }
        worst_overall = worse_ratio(worst_overall, ratio);
        eprintln!(
            "{:22} {harvested:>8} hooks ({} replayed): map {:>6.1} ns/hook, batched-enc {:>6.1} ns/hook ({ratio:.2}x)",
            w.name,
            hooks.len(),
            1e9 / map_rate,
            1e9 / enc_rate,
        );

        let replayed = (hooks.len() * repeat) as u64;
        for (encoder, rate, best_ns) in [
            (map_enc.name(), map_rate, map_ns),
            ("batched-enc", enc_rate, enc_ns),
        ] {
            perf.records.push(PerfRecord {
                benchmark: w.name.clone(),
                encoder: encoder.to_owned(),
                calls: replayed,
                base_cost: best_ns,
                overhead: 0,
                normalized_speed: rate / map_rate,
                unique_contexts: unique.len() as u64,
                max_depth: max_depth as u64,
                calls_per_sec_per_core: rate,
            });
        }
    }

    if smoke && (worst_overall.is_nan() || worst_overall < 0.95) {
        eprintln!(
            "error: batched encoder slower than map-based ({worst_overall:.2}x < 0.95x) in smoke mode"
        );
        return ExitCode::FAILURE;
    }
    if !smoke && worst_specjvm.is_finite() && worst_specjvm < 1.5 {
        eprintln!(
            "warning: worst SPECjvm-like batched/map ratio was {worst_specjvm:.2}x (< 1.5x target)"
        );
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
