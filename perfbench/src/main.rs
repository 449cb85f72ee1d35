//! End-to-end DeltaPath pipeline benchmark with per-layer attribution.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! perfbench --self-test [--out DIR]
//! perfbench --workload NAME --make-pool COUNT    # print a screened seed pool
//! ```
//!
//! One process, one VM thread, audits on one worker. With `--trace 0` the
//! benchmark runs the whole pipeline (plan → compile → audit → run →
//! decode → report) over the workload's panel of programs repeatedly for
//! `--seconds` and reports medians of the end-to-end metrics; run and
//! pipeline times are also reported as multiples of the native run
//! interleaved with them, which cancels most of a shared host's speed
//! swings. `setup_s` is timed apart, between the passes, as the mean
//! `analyze` + `compile` time per program over the workload's whole pool
//! whatever the seed, so that runs with different seeds compare set-up on
//! the same programs. With `--trace 1` it runs the separate traced rounds of
//! `traced.rs` and reports per-layer metrics, writing a
//! `deltapath.trace.v2` Chrome trace and folded span stacks.
//! Either way every output is checked against the oracle off the clock,
//! the full result (units, sample counts, spreads, host block) is written
//! as `deltapath.bench.v1` JSON under `--out`, and the last line of
//! standard output is the summary object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed check makes
//! the process exit with status 1.

mod oracle;
mod pipeline;
mod pools;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use deltapath_core::EncodingPlan;
use deltapath_ir::Program;
use deltapath_runtime::CostModel;
use deltapath_telemetry::{Json, NullTelemetry};

use pipeline::{native_run, run_pass, Pass};
use stats::Metric;
use workload::{CollectorKind, Panel, TargetLayer, Workload, WIDTH, WORKLOADS};

/// Time spent on set-up rounds after each pass, as a share of the pass's.
const SETUP_SHARE: f64 = 0.15;

/// End-to-end metrics on the summary line (`BENCHMARK.json` `end_to_end`).
const END_TO_END: [&str; 3] = ["setup_s", "run_slowdown", "pipeline_x_native"];

/// Per-layer metrics on the summary line (`BENCHMARK.json` `per_layer`).
const PER_LAYER: [&str; 15] = [
    "plan.analyze_s",
    "compile.s",
    "audit.s",
    "vm.native_s",
    "vm.slowdown",
    "encoder.hooks_s",
    "encoder.ns_per_call",
    "encoder.map_hooks_s",
    "capture.s",
    "collect.s",
    "decode.s",
    "report.render_s",
    "trace.overhead",
    "trace.wrapper_s",
    "target.share",
];

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    self_test: bool,
    make_pool: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        self_test: false,
        make_pool: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<f64>().map_err(|_| format!("bad {flag} {v:?}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => args.seconds = number(&value)?.max(0.0),
            "--trace" => args.trace = number(&value)? != 0.0,
            "--out" => args.out = PathBuf::from(value),
            "--make-pool" => {
                args.make_pool = Some(value.parse().map_err(|_| format!("bad count {value:?}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Everything one benchmark run produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    extra: Vec<(String, Json)>,
}

impl Outcome {
    fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Counts checks and remembers the first failure.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    first: Option<String>,
}

impl Checks {
    fn add(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.first.is_none() {
            self.first = Some(what());
        }
    }

    /// The per-pass checks: a clean audit verdict, error-free decodes and
    /// output identical to the first pass.
    fn pass(&mut self, pass: &Pass, reference_digest: u64) {
        self.add(1, u64::from(!pass.audit_clean), || {
            format!("audit verdict not clean: {} diagnostics", pass.diagnostics)
        });
        self.add(pass.contexts, pass.decode_errors, || {
            format!("{} decode errors", pass.decode_errors)
        });
        self.add(1, u64::from(pass.digest != reference_digest), || {
            "output differs between passes of the same program".to_owned()
        });
    }

    fn oracle(&mut self, verdict: &oracle::Verdict) {
        let first = verdict.first.clone();
        self.add(verdict.checked, verdict.mismatches, || {
            format!("oracle mismatch: {}", first.unwrap_or_default())
        });
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Mean set-up seconds per program over the panel's set-up programs.
fn setup_round(workload: &Workload, panel: &Panel) -> Result<f64, String> {
    let mut total = 0.0;
    for program in &panel.setup_programs {
        total += pipeline::setup(workload, program, &NullTelemetry)?.seconds();
    }
    Ok(total / panel.setup_programs.len() as f64)
}

/// The timed end-to-end run. Each sample is one pass over every program
/// of the panel, its times summed. `setup_s` samples are instead
/// `setup_round`s, taken after each pass for a share of its time, so that
/// their median spans the whole run as the passes' medians do.
fn end_to_end(workload: &Workload, panel: &Panel, seconds: f64) -> Result<Outcome, String> {
    let min_passes = if seconds > 0.0 { 3 } else { 1 };
    let mut checks = Checks::default();
    let mut digests: Vec<u64> = Vec::new();
    let (mut setup, mut audit, mut pipeline) = (Vec::new(), Vec::new(), Vec::new());
    let (mut calls_per_s, mut slowdown, mut ctx_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut pipeline_x_native = Vec::new();
    let start = Instant::now();
    while slowdown.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let pass_start = Instant::now();
        let mut passes = Vec::with_capacity(panel.programs.len());
        let mut native_s = 0.0;
        for program in &panel.programs {
            let mut pass = run_pass(workload, program, &NullTelemetry, None)?;
            native_s += native_run(program)?.0;
            // Outputs are checked by digest here and by the oracle on a
            // re-run below; dropping them keeps one pass's memory live.
            pass.strip();
            passes.push(pass);
        }
        if digests.is_empty() {
            digests = passes.iter().map(|p| p.digest).collect();
        }
        for (pass, &digest) in passes.iter().zip(&digests) {
            checks.pass(pass, digest);
        }
        let sum = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>();
        let (run_s, pipeline_s) = (sum(&|p| p.run_s), sum(&Pass::pipeline_s));
        audit.push(sum(&|p| p.audit_s));
        pipeline.push(pipeline_s);
        calls_per_s.push(sum(&|p| p.stats.calls as f64) / run_s);
        slowdown.push(run_s / native_s);
        pipeline_x_native.push(pipeline_s / native_s);
        ctx_per_s.push(sum(&|p| p.contexts as f64) / sum(&|p| p.decode_s));

        // One untimed set-up first re-warms the allocator the pass's large
        // frees left cold, so every timed round starts alike.
        let budget = pass_start.elapsed().as_secs_f64() * SETUP_SHARE;
        pipeline::setup(workload, &panel.setup_programs[0], &NullTelemetry)?;
        let round = Instant::now();
        loop {
            setup.push(setup_round(workload, panel)?);
            if round.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
    }
    let peak = peak_rss_mib()?;
    // Off the clock: one more pass per program, identical to the timed
    // ones by digest, checked against the oracle.
    for (program, &digest) in panel.programs.iter().zip(&digests) {
        let pass = run_pass(workload, program, &NullTelemetry, None)?;
        checks.pass(&pass, digest);
        checks.oracle(&oracle::check(workload, program, &pass)?);
    }

    let mut metrics = vec![
        Metric::new("setup_s", "s", setup),
        Metric::new("audit_s", "s", audit),
        Metric::new("run_calls_per_s", "calls/s", calls_per_s),
        Metric::new("run_slowdown", "x", slowdown),
    ];
    if workload.collector != CollectorKind::Null {
        metrics.push(Metric::new("decode_ctx_per_s", "contexts/s", ctx_per_s));
    }
    metrics.extend([
        Metric::new("pipeline_s", "s", pipeline),
        Metric::new("pipeline_x_native", "x", pipeline_x_native),
        Metric::exact("peak_rss_mib", "MiB", peak),
        Metric::exact(
            "failed_share",
            "ratio",
            checks.failed as f64 / checks.attempted.max(1) as f64,
        ),
    ]);
    Ok(Outcome {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        first_failure: checks.first,
        extra: Vec::new(),
    })
}

/// The separate traced run: per-layer metrics, trace files, overhead.
fn traced_run(
    workload: &Workload,
    program: &Program,
    seconds: f64,
    out: &Path,
    tag: &str,
) -> Result<Outcome, String> {
    let plan =
        EncodingPlan::analyze(program, &workload.plan_config()).map_err(|e| e.to_string())?;
    let digest = run_pass(workload, program, &NullTelemetry, None)?.digest;
    let (r, snapshot) = traced::traced(workload, program, &plan, seconds)?;
    let mut checks = Checks::default();
    for pass in r.untraced.iter().chain(&r.traced) {
        checks.pass(pass, digest);
    }
    let last = r.traced.last().expect("at least one round");
    let verdict = oracle::check(workload, program, last)?;
    checks.oracle(&verdict);
    if snapshot.tree.total_at(&["bench.run", "vm.run"]).is_none() {
        checks.add(1, 1, || "traced run has no vm.run span".to_owned());
    }

    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
    let trace_path = out.join(format!("{tag}-trace.json"));
    let folded_path = out.join(format!("{tag}-spans.folded"));
    write(&trace_path, &snapshot.chrome_trace(workload.name))?;
    write(&folded_path, &snapshot.folded().render())?;

    let traced_pass = |f: &dyn Fn(&Pass) -> f64| r.traced.iter().map(f).collect::<Vec<f64>>();
    let count = |v: u64| v as f64;
    let calls = last.stats.calls;
    let untraced_pipeline: Vec<f64> = r.untraced.iter().map(Pass::pipeline_s).collect();
    let traced_pipeline = traced_pass(&Pass::pipeline_s);
    let overhead = stats::median(&traced_pipeline) / stats::median(&untraced_pipeline);
    let slowdown: Vec<f64> = r
        .untraced
        .iter()
        .zip(&r.native_s)
        .map(|(p, n)| p.run_s / n)
        .collect();
    let ns_per_call: Vec<f64> = r.hooks_s.iter().map(|h| h * 1e9 / calls as f64).collect();

    // The share of an untraced pass's wall time taken by the workload's
    // target layer, per round.
    let share: Vec<f64> = r
        .untraced
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let total = p.pipeline_s() + p.audit_s;
            let layer = match workload.target {
                TargetLayer::Collect => (r.capture_s[i] + r.collect_s[i] - r.wrapper_s[i]).max(0.0),
                TargetLayer::Decode => p.decode_s,
                TargetLayer::Hooks => r.hooks_s[i],
            };
            layer / total
        })
        .collect();

    let metrics = vec![
        Metric::new("plan.analyze_s", "s", traced_pass(&|p| p.analyze_s)),
        Metric::exact("plan.anchors", "count", count(last.anchors as u64)),
        Metric::exact("plan.sites", "count", count(last.sites as u64)),
        Metric::exact("plan.restarts", "count", count(last.restarts as u64)),
        Metric::new("compile.s", "s", traced_pass(&|p| p.compile_s)),
        Metric::exact(
            "compile.table_bytes",
            "bytes",
            count(last.table_bytes as u64),
        ),
        Metric::new("audit.s", "s", traced_pass(&|p| p.audit_s)),
        Metric::exact("audit.diagnostics", "count", count(last.diagnostics as u64)),
        Metric::new("vm.native_s", "s", r.native_s.clone()),
        Metric::exact("vm.calls", "count", count(calls)),
        Metric::exact(
            "vm.max_depth",
            "frames",
            count(last.stats.max_call_depth as u64),
        ),
        Metric::new("vm.slowdown", "x", slowdown),
        Metric::new("vm.diff_hooks_s", "s", r.diff_hooks_s.clone()),
        Metric::new("vm.diff_capture_s", "s", r.diff_capture_s.clone()),
        Metric::new("vm.diff_collect_s", "s", r.diff_collect_s.clone()),
        Metric::new("encoder.hooks_s", "s", r.hooks_s.clone()),
        Metric::new("encoder.ns_per_call", "ns", ns_per_call),
        Metric::exact("encoder.flushes", "count", count(last.flushes)),
        Metric::exact(
            "encoder.ucp_detections",
            "count",
            count(last.ucp_detections),
        ),
        Metric::exact("encoder.metered_cost", "units", count(r.batched_metered)),
        Metric::new("encoder.map_hooks_s", "s", r.map_hooks_s.clone()),
        Metric::exact("encoder.map_metered_cost", "units", count(r.map_metered)),
        Metric::new("capture.s", "s", r.capture_s.clone()),
        Metric::exact("capture.count", "count", count(r.captures)),
        Metric::exact(
            "capture.mean_frames",
            "frames",
            r.capture_frames as f64 / r.captures.max(1) as f64,
        ),
        Metric::exact("capture.bytes", "bytes", count(r.capture_bytes)),
        Metric::new("collect.s", "s", r.collect_s.clone()),
        Metric::exact("collect.records", "count", count(last.records)),
        Metric::exact("collect.distinct", "count", count(last.distinct)),
        Metric::new("decode.s", "s", traced_pass(&|p| p.decode_s)),
        Metric::exact("decode.contexts", "count", count(last.contexts)),
        Metric::exact("decode.piece_hits", "count", count(last.piece_hits)),
        Metric::exact("decode.piece_misses", "count", count(last.piece_misses)),
        Metric::exact(
            "decode.errors",
            "count",
            count(last.decode_errors + verdict.decode_errors),
        ),
        Metric::new("report.render_s", "s", traced_pass(&|p| p.report_s)),
        Metric::exact("report.bytes", "bytes", count(last.report.len() as u64)),
        Metric::exact("oracle.checked", "count", count(verdict.checked)),
        Metric::exact("oracle.mismatches", "count", count(verdict.mismatches)),
        Metric::exact("trace.overhead", "x", overhead),
        Metric::new("trace.wrapper_s", "s", r.wrapper_s.clone()),
        Metric::new("target.share", "ratio", share),
    ];

    // Satellite: metered overhead beside measured hook time, per encoder.
    let metered = Json::Obj(vec![
        (
            "cost_model".to_owned(),
            Json::Str(format!("{:?}", CostModel::default())),
        ),
        (
            "batched_metered_cost".to_owned(),
            Json::from_u64(r.batched_metered),
        ),
        (
            "batched_hooks_s".to_owned(),
            Json::Float(stats::median(&r.hooks_s)),
        ),
        ("map_metered_cost".to_owned(), Json::from_u64(r.map_metered)),
        (
            "map_hooks_s".to_owned(),
            Json::Float(stats::median(&r.map_hooks_s)),
        ),
        (
            "map_ucp_detections".to_owned(),
            Json::from_u64(r.map_ucp_detections),
        ),
    ]);
    let files = Json::Arr(vec![
        Json::Str(trace_path.display().to_string()),
        Json::Str(folded_path.display().to_string()),
    ]);
    Ok(Outcome {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        first_failure: checks.first,
        extra: vec![
            ("metered_vs_measured".to_owned(), metered),
            ("trace_files".to_owned(), files),
            (
                "target_layer".to_owned(),
                Json::Str(workload.target.name().to_owned()),
            ),
        ],
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn host() -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::Obj(vec![
        ("available_parallelism".to_owned(), Json::from_u64(cores)),
        (
            "build_profile".to_owned(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
        ("rustc".to_owned(), Json::Str(env("PERFBENCH_RUSTC"))),
        ("commit".to_owned(), Json::Str(env("PERFBENCH_COMMIT"))),
        ("os".to_owned(), Json::Str(std::env::consts::OS.to_owned())),
        ("vm_threads".to_owned(), Json::Int(1)),
        ("audit_workers".to_owned(), Json::Int(1)),
    ])
}

fn metric_json(m: &Metric) -> Json {
    let (q1, q3) = stats::quartiles(&m.samples).unwrap_or((m.value(), m.value()));
    Json::Obj(vec![
        ("name".to_owned(), Json::Str(m.name.clone())),
        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
        ("value".to_owned(), Json::Float(m.value())),
        ("samples".to_owned(), Json::from_u64(m.samples.len() as u64)),
        ("q1".to_owned(), Json::Float(q1)),
        ("q3".to_owned(), Json::Float(q3)),
        ("spread".to_owned(), Json::Float(m.spread())),
    ])
}

/// The full `deltapath.bench.v1` result document.
fn result_json(
    workload: &Workload,
    seed: Option<u64>,
    panel: &Panel,
    traced: bool,
    seconds: f64,
    outcome: &Outcome,
) -> Json {
    let workload_json = Json::Obj(vec![
        ("name".to_owned(), Json::Str(workload.name.to_owned())),
        ("program".to_owned(), Json::Str(workload.program.to_owned())),
        (
            "scope".to_owned(),
            Json::Str(workload.scope_name().to_owned()),
        ),
        ("width".to_owned(), Json::Int(i128::from(WIDTH))),
        (
            "collect".to_owned(),
            Json::Str(workload.collect_name().to_owned()),
        ),
        (
            "encoder".to_owned(),
            Json::Str("BatchedDeltaEncoder".to_owned()),
        ),
        (
            "collector".to_owned(),
            Json::Str(workload.collector.name().to_owned()),
        ),
        ("why".to_owned(), Json::Str(workload.why.to_owned())),
        ("seed".to_owned(), seed.map_or(Json::Null, Json::from_u64)),
        (
            "program_seeds".to_owned(),
            Json::Arr(panel.seeds.iter().map(|&s| Json::from_u64(s)).collect()),
        ),
        (
            "bundled_seed".to_owned(),
            Json::from_u64(workload.bundled_seed()),
        ),
    ]);
    let checks = Json::Obj(vec![
        ("attempted".to_owned(), Json::from_u64(outcome.attempted)),
        ("failed".to_owned(), Json::from_u64(outcome.failed)),
        (
            "first_failure".to_owned(),
            outcome.first_failure.clone().map_or(Json::Null, Json::Str),
        ),
    ]);
    let mut fields = vec![
        (
            "schema".to_owned(),
            Json::Str("deltapath.bench.v1".to_owned()),
        ),
        (
            "mode".to_owned(),
            Json::Str(if traced { "traced" } else { "end_to_end" }.to_owned()),
        ),
        ("seconds".to_owned(), Json::Float(seconds)),
        ("workload".to_owned(), workload_json),
        ("host".to_owned(), host()),
        ("checks".to_owned(), checks),
        (
            "metrics".to_owned(),
            Json::Arr(outcome.metrics.iter().map(metric_json).collect()),
        ),
    ];
    fields.extend(outcome.extra.iter().cloned());
    Json::Obj(fields)
}

/// The summary line: the named metrics' medians and units.
fn summary_json(outcome: &Outcome, names: &[&str]) -> Json {
    let metrics = names
        .iter()
        .filter_map(|&n| outcome.metric(n))
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".to_owned(), Json::Float(m.value())),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(outcome.failed == 0)),
        (
            "attempted".to_owned(),
            Json::from_u64(outcome.attempted.max(1)),
        ),
        ("failed".to_owned(), Json::from_u64(outcome.failed)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
}

fn print_table(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!(
            "  {:<24} {:>16.6} {:<11} n={:<3} spread={:.4}",
            m.name,
            m.value(),
            m.unit,
            m.samples.len(),
            m.spread()
        );
    }
    println!(
        "  checks: {} attempted, {} failed{}",
        outcome.attempted,
        outcome.failed,
        outcome
            .first_failure
            .as_ref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    );
}

/// Runs one workload in one mode and writes its result document.
fn run_one(
    workload: &Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<(Outcome, PathBuf), String> {
    let t = Instant::now();
    let panel = workload.select(seed)?;
    eprintln!(
        "{}: program seeds {:?} (selected in {:.1}s)",
        workload.name,
        panel.seeds,
        t.elapsed().as_secs_f64()
    );
    let seed_tag = seed.map_or("bundled".to_owned(), |s| s.to_string());
    let mode = if trace { "traced" } else { "e2e" };
    let tag = format!("{}-seed{seed_tag}-{mode}", workload.name);
    // The traced run attributes one program, the panel's first.
    let outcome = if trace {
        traced_run(workload, &panel.programs[0], seconds, out, &tag)?
    } else {
        end_to_end(workload, &panel, seconds)?
    };
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
    let path = out.join(format!("{tag}.json"));
    let doc = result_json(workload, seed, &panel, trace, seconds, &outcome);
    write(&path, &doc.to_json())?;
    Ok((outcome, path))
}

/// The end-to-end metrics every result must carry, per workload.
fn required_end_to_end(workload: &Workload) -> Vec<(&'static str, &'static str)> {
    let mut names = vec![
        ("setup_s", "s"),
        ("audit_s", "s"),
        ("run_calls_per_s", "calls/s"),
        ("pipeline_s", "s"),
        ("peak_rss_mib", "MiB"),
        ("failed_share", "ratio"),
    ];
    if workload.collector != CollectorKind::Null {
        names.push(("decode_ctx_per_s", "contexts/s"));
    }
    names
}

/// Quick mode: every workload once, end to end and traced, asserting the
/// metric set, a zero failed share and a lossless result file.
fn self_test(out: &Path) -> Result<(), String> {
    let per_layer_units: Vec<(&str, &str)> = vec![
        ("plan.analyze_s", "s"),
        ("plan.anchors", "count"),
        ("plan.sites", "count"),
        ("compile.s", "s"),
        ("compile.table_bytes", "bytes"),
        ("audit.s", "s"),
        ("audit.diagnostics", "count"),
        ("vm.native_s", "s"),
        ("vm.calls", "count"),
        ("vm.max_depth", "frames"),
        ("vm.slowdown", "x"),
        ("encoder.hooks_s", "s"),
        ("encoder.ns_per_call", "ns"),
        ("encoder.flushes", "count"),
        ("encoder.ucp_detections", "count"),
        ("encoder.metered_cost", "units"),
        ("encoder.map_hooks_s", "s"),
        ("capture.s", "s"),
        ("capture.count", "count"),
        ("capture.mean_frames", "frames"),
        ("capture.bytes", "bytes"),
        ("collect.s", "s"),
        ("collect.records", "count"),
        ("collect.distinct", "count"),
        ("decode.s", "s"),
        ("decode.contexts", "count"),
        ("decode.piece_hits", "count"),
        ("decode.piece_misses", "count"),
        ("decode.errors", "count"),
        ("report.render_s", "s"),
        ("report.bytes", "bytes"),
        ("oracle.checked", "count"),
        ("oracle.mismatches", "count"),
        ("trace.overhead", "x"),
    ];
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let (outcome, path) = run_one(workload, None, 0.0, trace, out)?;
            let expected = if trace {
                per_layer_units.clone()
            } else {
                required_end_to_end(workload)
            };
            for (name, unit) in expected {
                match outcome.metric(name) {
                    Some(m) if m.unit == unit => {}
                    Some(m) => {
                        return Err(format!("{}: {name} has unit {}", workload.name, m.unit))
                    }
                    None => return Err(format!("{}: {name} missing", workload.name)),
                }
            }
            if outcome.failed != 0 {
                return Err(format!(
                    "{}: failed_share {} ({:?})",
                    workload.name,
                    outcome.failed as f64 / outcome.attempted as f64,
                    outcome.first_failure
                ));
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            let parsed = Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
            let metrics = parsed
                .get("metrics")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{path:?}: no metrics"))?;
            let same = metrics.len() == outcome.metrics.len()
                && metrics.iter().zip(&outcome.metrics).all(|(j, m)| {
                    j.get("name").and_then(Json::as_str) == Some(m.name.as_str())
                        && j.get("unit").and_then(Json::as_str) == Some(m.unit)
                        && matches!(j.get("value"), Some(Json::Float(v)) if *v == m.value() || (v.is_nan() && m.value().is_nan()))
                        && j.get("samples").and_then(Json::as_u64) == Some(m.samples.len() as u64)
                });
            if !same {
                return Err(format!("{path:?} does not parse back to the same values"));
            }
            println!(
                "self-test {} {}: ok ({} metrics, {} checks)",
                workload.name,
                if trace { "traced" } else { "end-to-end" },
                outcome.metrics.len(),
                outcome.attempted
            );
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        match self_test(&args.out) {
            Ok(()) => println!("self-test: ok"),
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let Some(workload) = args.workload.as_deref().and_then(workload::by_name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("error: --workload must be one of {}", names.join(", "));
        std::process::exit(2);
    };
    if let Some(count) = args.make_pool {
        match workload.make_pool(count) {
            Ok(pool) => {
                let seeds: Vec<String> = pool.iter().map(u64::to_string).collect();
                println!("[{}]", seeds.join(", "));
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    match run_one(workload, args.seed, args.seconds, args.trace, &args.out) {
        Ok((outcome, path)) => {
            println!(
                "{} ({}), result in {}",
                workload.name,
                if args.trace { "traced" } else { "end to end" },
                path.display()
            );
            print_table(&outcome);
            let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", summary_json(&outcome, names).to_json());
            if outcome.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name);
            let failed = Outcome {
                metrics: Vec::new(),
                attempted: 1,
                failed: 1,
                first_failure: Some(e),
                extra: Vec::new(),
            };
            println!("{}", summary_json(&failed, &[]).to_json());
            std::process::exit(1);
        }
    }
}
