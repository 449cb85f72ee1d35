//! The `deltapath` command-line tool: explore the bundled workloads, their
//! call graphs and encoding plans, and run them under any of the encoders.
//!
//! ```text
//! deltapath list
//! deltapath inspect <benchmark> [--scope app|all] [--width BITS]
//! deltapath dot <benchmark> [--scope app|all]
//! deltapath run <benchmark> [--encoder native|pcc|deltapath|deltapath-nocpt|batched|batched-nocpt|stackwalk|cct]
//! deltapath decode <benchmark>     # run, capture, decode a few contexts
//! deltapath report <benchmark> [--encoder NAME] [--json]   # run report (summary or JSON)
//! deltapath report --from FILE [--json]                    # re-read a saved report
//! deltapath trace <benchmark> [--encoder NAME] [--chrome FILE]  # JSON lines / Chrome trace
//! deltapath flamegraph <benchmark> [--contexts|--spans] [--out FILE]
//! deltapath flamegraph --all --check               # validate against the stack-walk oracle
//! deltapath lint <benchmark>|--all [--json] [--deny-warnings] [--scope app|all] [--width BITS]
//!     [--workers N] [--plan-out FILE]
//! deltapath import <file> [--lint] [--dot] [--render] [--width BITS] [--budget N]
//!     [--workers N] [--plan-out FILE]                                  # deltapath.graph.v1
//! deltapath diff <old.plan> <new.plan> [--json]    # semantic plan diff (deltapath.diff.v1)
//! deltapath generate [--methods N] [--seed S] [--out FILE]             # scale graph to file
//! ```

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use deltapath::baselines::{CctEncoder, PccEncoder, PccWidth};
use deltapath::callgraph::skeleton_for_graph;
use deltapath::telemetry::Json;
use deltapath::workloads::scale::ScaleConfig;
use deltapath::workloads::specjvm::{program, suite};
use deltapath::{
    audit_plan_full, audit_plan_with, diff_plans, parse_graph, parse_plan, render_graph,
    render_plan, Analysis, AuditOptions, AuditReport, BatchedDeltaEncoder, CallGraph, Capture,
    CollectMode, Collector, ContextEncoder, ContextProfile, ContextStats, DeltaEncoder,
    EncodingPlan, EncodingWidth, EventLog, FoldedStacks, GraphConfig, GraphStats, ImportError,
    ImportedPlan, NullCollector, NullEncoder, NullTelemetry, OpCounts, PlanConfig, PlanParseError,
    Program, RunReport, RunStats, ScopeFilter, SpanProfiler, StackWalkEncoder, Telemetry, Vm,
    VmConfig,
};

/// Standard output, for every subcommand. A reader that stops early
/// (`deltapath run compress | head -1`) closes the pipe, and that ends the
/// output as normally as finishing it: the first write that finds the pipe
/// closed exits 0 on the spot, with nothing on stderr, where `println!`
/// would panic. Any other write error is passed on.
struct Out;

impl io::Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        end_on_closed_pipe(io::stdout().write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        end_on_closed_pipe(io::stdout().flush())
    }
}

/// Exits 0 if `result` found standard output's pipe closed; returns it
/// otherwise.
fn end_on_closed_pipe<T>(result: io::Result<T>) -> io::Result<T> {
    if matches!(&result, Err(e) if e.kind() == io::ErrorKind::BrokenPipe) {
        std::process::exit(0);
    }
    result
}

/// `print!` through [`Out`]. A write error other than a closed pipe ends
/// the process like any other failure: an `error:` line and exit 1.
macro_rules! out {
    ($($arg:tt)*) => {
        if let Err(e) = write!(Out, $($arg)*) {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    };
}

/// `println!` through [`Out`] (see [`out!`]).
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("flamegraph") => cmd_flamegraph(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("import") => cmd_import(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The top-level usage text, printed on a missing or unknown subcommand.
fn usage() -> String {
    format!(
        "usage: deltapath <list|inspect|dot|run|decode|report|trace|flamegraph|lint|import|diff|generate> [benchmark] [options]\n\
         \n\
         list                      list the bundled SPECjvm2008-like benchmarks\n\
         inspect <bench>           static characteristics and encoding plan summary\n\
         \x20   --scope app|all    selective vs full encoding (default: app)\n\
         \x20   --width BITS       encoding integer width (default: 64)\n\
         dot <bench>               print the encoded call graph in Graphviz format\n\
         \x20   --scope app|all    selective vs full encoding (default: app)\n\
         run <bench>               execute under an encoder and report costs\n\
         \x20   --encoder NAME     {all}\n\
         decode <bench>            run, capture, and decode example contexts\n\
         report <bench>            run with telemetry; print a human-readable summary\n\
         \x20                      (histograms as p50/p90/p99 upper bounds)\n\
         \x20   --json             the full machine-readable report instead\n\
         \x20   --encoder NAME     as for `run` (default: deltapath)\n\
         \x20   --from FILE        read a saved report (JSON or JSONL) instead of running\n\
         trace <bench>             like `report --json`, but printed as JSON lines\n\
         \x20   --encoder NAME     as for `run` (default: deltapath)\n\
         \x20   --chrome FILE      write a Chrome trace-event file (deltapath.trace.v2)\n\
         \x20                      of the span tree instead of printing JSONL\n\
         flamegraph <bench>        folded flamegraph stacks (inferno-compatible) on stdout\n\
         \x20   --contexts         decoded calling contexts weighted by entries (default)\n\
         \x20   --spans            self-time of the analysis/audit/run span tree\n\
         \x20   --encoder NAME     {decodable}\n\
         \x20   --scope app|all    selective vs full encoding (default: app)\n\
         \x20   --out FILE         write to FILE instead of stdout\n\
         \x20   --check [--all]    validate flamegraphs against the stack-walk oracle\n\
         lint <bench>|--all        statically audit the encoding plan (DP0xx diagnostics)\n\
         \x20   --json             machine-readable report (schema deltapath.lint.v1)\n\
         \x20   --deny-warnings    exit with failure on warnings, not just errors\n\
         \x20   --scope app|all    selective vs full encoding (default: app)\n\
         \x20   --width BITS       encoding integer width (default: 64)\n\
         \x20   --workers N        parallel per-anchor audit workers (default: 1)\n\
         \x20   --plan-out FILE    write the audited plan (deltapath.plan.v1)\n\
         import <file>             plan an external deltapath.graph.v1 call graph\n\
         \x20   --lint             audit the resulting plan (DP0xx diagnostics)\n\
         \x20   --dot              print the imported graph in Graphviz format\n\
         \x20   --render           re-render the canonical deltapath.graph.v1 form\n\
         \x20   --width BITS       encoding integer width (default: 64)\n\
         \x20   --budget N         territory budget: bound anchor-free path counts\n\
         \x20                      (extra anchors, near-linear planning; try 16-64)\n\
         \x20   --workers N        parallel per-anchor audit workers (with --lint)\n\
         \x20   --plan-out FILE    write the resulting plan (deltapath.plan.v1)\n\
         diff <old> <new>          semantically compare two deltapath.plan.v1 files\n\
         \x20                      (DP05x diagnostics; anchors, tables, territories,\n\
         \x20                      SIDs, instructions)\n\
         \x20   --json             machine-readable report (schema deltapath.diff.v1)\n\
         generate                  write a seeded scale graph (deltapath.graph.v1)\n\
         \x20   --methods N        graph size (default: 10000)\n\
         \x20   --seed S           generator seed (default: 42)\n\
         \x20   --out FILE         write to FILE instead of stdout",
        all = encoder_names(|_| true),
        decodable = encoder_names(EncoderKind::decodable),
    )
}

fn load(args: &[String]) -> Result<Program, String> {
    let name = args.first().ok_or("missing benchmark name")?;
    program(name).ok_or_else(|| {
        format!("unknown benchmark {name:?}; run `deltapath list` to see the available ones")
    })
}

/// The value of option `name` in `args`, or `None` when the option is
/// absent. An option given as the last argument, or followed by another
/// `--` option, is missing its value: that is an error, not the default.
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(format!("missing value for {name}")),
    }
}

fn scope_of(args: &[String]) -> Result<ScopeFilter, String> {
    match flag(args, "--scope")?.as_deref() {
        None | Some("app") => Ok(ScopeFilter::ApplicationOnly),
        Some("all") => Ok(ScopeFilter::All),
        Some(other) => Err(format!("unknown scope {other:?} (use app|all)")),
    }
}

fn width_of(args: &[String]) -> Result<EncodingWidth, String> {
    match flag(args, "--width")? {
        None => Ok(EncodingWidth::U64),
        Some(w) => match w.parse::<u8>() {
            Ok(bits @ 1..=127) => Ok(EncodingWidth::new(bits)),
            _ => Err(format!("bad --width value {w:?} (use 1..=127)")),
        },
    }
}

fn cmd_list() -> Result<(), String> {
    outln!("bundled benchmarks (seeded synthetic stand-ins for SPECjvm2008):");
    for bench in suite() {
        let p = bench.program();
        outln!(
            "  {:<22} {:>5} classes {:>6} methods {:>6} call sites",
            bench.name,
            p.classes().len(),
            p.methods().len(),
            p.sites().len()
        );
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    reject_unknown_options("inspect", args, INSPECT_OPTIONS)?;
    let p = load(args)?;
    let scope = scope_of(args)?;
    let config = PlanConfig::default()
        .with_scope(scope)
        .with_width(width_of(args)?);
    let graph = CallGraph::build(
        &p,
        &GraphConfig {
            analysis: Analysis::Cha,
            scope,
            include_dynamic: false,
        },
    );
    let stats = GraphStats::compute(&p, &graph);
    outln!("{}:", p.name());
    outln!(
        "  call graph: {} nodes, {} edges, {} call sites ({} virtual), {} roots",
        stats.nodes,
        stats.edges,
        stats.call_sites,
        stats.virtual_call_sites,
        graph.roots().len()
    );
    let plan = EncodingPlan::analyze(&p, &config).map_err(|e| e.to_string())?;
    let enc = plan.encoding();
    outln!(
        "  plan ({} encoding): {} instrumented methods, {} sites with ID arithmetic",
        config.width,
        plan.instrumented_method_count(),
        plan.instrumented_site_count()
    );
    outln!(
        "  anchors: {} total ({} from overflow, {} analysis restarts)",
        enc.anchors.len(),
        enc.overflow_anchor_count(),
        enc.restarts
    );
    outln!(
        "  encoding space: max ICC {} (max ID {})",
        enc.max_icc,
        enc.required_max_id()
    );
    outln!("  SID sets: {}", plan.sids().set_count());
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    reject_unknown_options("dot", args, DOT_OPTIONS)?;
    let p = load(args)?;
    let scope = scope_of(args)?;
    let graph = CallGraph::build(
        &p,
        &GraphConfig {
            analysis: Analysis::Cha,
            scope,
            include_dynamic: false,
        },
    );
    out!("{}", graph.to_dot(&p));
    Ok(())
}

/// What an `--encoder` name builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EncoderKind {
    /// No instrumentation: the native baseline.
    Native,
    /// Probabilistic calling context.
    Pcc,
    /// DeltaPath, the map-based reference encoder.
    Map,
    /// DeltaPath, the batched deployment encoder.
    Batched,
    /// Shadow-stack walking.
    StackWalk,
    /// The calling-context tree.
    Cct,
}

impl EncoderKind {
    /// Whether the encoder runs over an encoding plan.
    fn needs_plan(self) -> bool {
        matches!(self, Self::Pcc | Self::Map | Self::Batched)
    }

    /// Whether its captures decode to calling contexts (a context
    /// flamegraph source).
    fn decodable(self) -> bool {
        matches!(self, Self::Map | Self::Batched | Self::StackWalk)
    }
}

/// The `--encoder` table. A `-nocpt` name plans with call-path tracking
/// off.
const ENCODERS: [(&str, EncoderKind); 8] = [
    ("native", EncoderKind::Native),
    ("pcc", EncoderKind::Pcc),
    ("deltapath", EncoderKind::Map),
    ("deltapath-nocpt", EncoderKind::Map),
    ("batched", EncoderKind::Batched),
    ("batched-nocpt", EncoderKind::Batched),
    ("stackwalk", EncoderKind::StackWalk),
    ("cct", EncoderKind::Cct),
];

/// The names in [`ENCODERS`] whose kind `keep` accepts, `|`-separated.
fn encoder_names(keep: impl Fn(EncoderKind) -> bool) -> String {
    let names: Vec<&str> = ENCODERS
        .iter()
        .filter(|&&(_, kind)| keep(kind))
        .map(|&(name, _)| name)
        .collect();
    names.join("|")
}

/// An `--encoder` name resolved against [`ENCODERS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Encoder {
    name: &'static str,
    kind: EncoderKind,
}

impl Encoder {
    /// Resolves `name`; an unknown name is an error listing the table.
    fn parse(name: &str) -> Result<Self, String> {
        ENCODERS
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(name, kind)| Self { name, kind })
            .ok_or_else(|| format!("unknown encoder {name:?} (use {})", encoder_names(|_| true)))
    }

    /// The `--encoder` of `args` (default: `deltapath`), resolved.
    fn of_args(args: &[String]) -> Result<Self, String> {
        Self::parse(flag(args, "--encoder")?.as_deref().unwrap_or("deltapath"))
    }

    /// `base` with call-path tracking as the name asks for.
    fn plan_config(self, base: PlanConfig) -> PlanConfig {
        base.with_cpt(!self.name.ends_with("-nocpt"))
    }

    /// Runs `p` under this encoder, recording into `collector`. `plan` is
    /// the plan it runs over.
    ///
    /// # Panics
    ///
    /// Panics if the kind needs a plan and `plan` is `None`.
    fn run(
        self,
        p: &Program,
        plan: Option<&EncodingPlan>,
        vm_config: VmConfig,
        collector: &mut impl Collector,
    ) -> Result<(RunStats, OpCounts), String> {
        fn go<E: ContextEncoder>(
            p: &Program,
            vm_config: VmConfig,
            mut encoder: E,
            collector: &mut impl Collector,
        ) -> Result<(RunStats, OpCounts), String> {
            let run = Vm::new(p, vm_config)
                .run(&mut encoder, collector)
                .map_err(|e| e.to_string())?;
            Ok((run, encoder.counts()))
        }
        let plan = || plan.expect("plan-driven encoder run without a plan");
        match self.kind {
            EncoderKind::Native => go(p, vm_config, NullEncoder, collector),
            EncoderKind::Pcc => go(
                p,
                vm_config,
                PccEncoder::from_plan(plan(), PccWidth::Bits32),
                collector,
            ),
            EncoderKind::Map => go(p, vm_config, DeltaEncoder::new(plan()), collector),
            EncoderKind::Batched => {
                let compiled = plan().compile();
                go(p, vm_config, BatchedDeltaEncoder::new(&compiled), collector)
            }
            EncoderKind::StackWalk => go(p, vm_config, StackWalkEncoder::full(), collector),
            EncoderKind::Cct => go(p, vm_config, CctEncoder::new(), collector),
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    reject_unknown_options("run", args, RUN_OPTIONS)?;
    let p = load(args)?;
    let encoder = Encoder::of_args(args)?;
    let plan = if encoder.kind.needs_plan() {
        let config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
        Some(EncodingPlan::analyze(&p, &encoder.plan_config(config)).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let vm_config = VmConfig::default().with_collect(CollectMode::Entries);

    let started = std::time::Instant::now();
    // The native baseline collects nothing, so it times the bare program.
    let mut stats = ContextStats::new();
    let (run, counts) = if encoder.kind == EncoderKind::Native {
        encoder.run(&p, None, vm_config, &mut NullCollector)?
    } else {
        encoder.run(&p, plan.as_ref(), vm_config, &mut stats)?
    };
    let unique = stats.unique_contexts();
    let elapsed = started.elapsed();
    outln!(
        "{} under {}: {} calls, base cost {}, wall time {:.2?}",
        p.name(),
        encoder.name,
        run.calls,
        run.base_cost,
        elapsed
    );
    outln!(
        "  encoder ops: adds {}, subs {}, hashes {}, sid checks {}, pushes {}, pops {}, walked {}",
        counts.adds,
        counts.subs,
        counts.hashes,
        counts.sid_checks,
        counts.pushes,
        counts.pops,
        counts.walked_frames
    );
    if unique > 0 {
        outln!("  unique contexts captured: {unique}");
    }
    Ok(())
}

fn cmd_decode(args: &[String]) -> Result<(), String> {
    reject_unknown_options("decode", args, DECODE_OPTIONS)?;
    let p = load(args)?;
    let plan = EncodingPlan::analyze(
        &p,
        &PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly),
    )
    .map_err(|e| e.to_string())?;
    let mut vm = Vm::new(
        &p,
        VmConfig::default().with_collect(CollectMode::ObservesOnly),
    );
    let mut encoder = DeltaEncoder::new(&plan);
    let mut log = EventLog::default();
    vm.run(&mut encoder, &mut log).map_err(|e| e.to_string())?;

    let decoder = plan.decoder();
    let mut by_context: HashMap<Vec<String>, usize> = HashMap::new();
    let mut outside = 0usize;
    let mut errors = 0usize;
    for (_, at, capture) in &log.events {
        if plan.entry(*at).is_none() {
            // The event fired inside unencoded (library) code: under
            // selective encoding there is no context to decode there.
            outside += 1;
            continue;
        }
        let Capture::Delta(ctx) = capture else {
            continue;
        };
        match decoder.decode(ctx) {
            Ok(context) => {
                let pretty: Vec<String> = context.iter().map(|&m| p.method_name(m)).collect();
                *by_context.entry(pretty).or_default() += 1;
            }
            Err(_) => errors += 1,
        }
    }
    outln!(
        "{}: {} events ({} in unencoded library code, skipped), {} distinct contexts, {} decode failures",
        p.name(),
        log.events.len(),
        outside,
        by_context.len(),
        errors
    );
    let mut ranked: Vec<_> = by_context.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (context, count) in ranked.iter().take(10) {
        outln!("{count:>8}x  {}", context.join(" -> "));
    }
    Ok(())
}

/// Runs `bench` under `--encoder` with a hierarchical [`SpanProfiler`]
/// attached end to end — plan analysis, the static plan audit, and the VM
/// run all record their nested spans (and every metric) into it.
fn profiled_run(args: &[String]) -> Result<(Program, &'static str, Arc<SpanProfiler>), String> {
    let p = load(args)?;
    let encoder = Encoder::of_args(args)?;
    let profiler = Arc::new(SpanProfiler::new());
    let sink: &dyn Telemetry = profiler.as_ref();
    let vm_config = VmConfig::default()
        .with_collect(CollectMode::Entries)
        .with_telemetry(profiler.clone());
    let plan = if encoder.kind.needs_plan() {
        let config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
        let plan = EncodingPlan::analyze_with(&p, &encoder.plan_config(config), sink)
            .map_err(|e| e.to_string())?;
        audit_plan_with(&p, &plan, sink);
        Some(plan)
    } else {
        None
    };
    encoder.run(&p, plan.as_ref(), vm_config, &mut ContextStats::new())?;
    Ok((p, encoder.name, profiler))
}

/// Runs `bench` instrumented (see [`profiled_run`]) and freezes the result
/// into a [`RunReport`].
fn telemetry_report(args: &[String]) -> Result<RunReport, String> {
    let (p, encoder_name, profiler) = profiled_run(args)?;
    Ok(profiler
        .report(p.name())
        .with_meta("benchmark", p.name())
        .with_meta("encoder", encoder_name)
        .with_meta("scope", "app"))
}

/// Parses a saved report in either serialization: a single JSON document
/// (`report` output) or JSON lines (`trace` output).
fn parse_report(text: &str) -> Result<RunReport, String> {
    RunReport::from_json(text)
        .or_else(|_| RunReport::from_jsonl(text))
        .map_err(|e| format!("not a run report in JSON or JSONL form: {e}"))
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    reject_unknown_options("report", args, REPORT_OPTIONS)?;
    let json = args.iter().any(|a| a == "--json");
    let report = if let Some(path) = flag(args, "--from")? {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        parse_report(&text)?
    } else {
        telemetry_report(args)?
    };
    if json {
        outln!("{}", report.to_json());
    } else {
        print_report_summary(&report);
    }
    Ok(())
}

/// The human-readable face of a [`RunReport`]: every counter and gauge,
/// histograms condensed to p50/p90/p99 upper bounds (the inclusive limit
/// of the log2 bucket holding the quantile) instead of raw bucket dumps.
/// `--json` keeps the full bucket data under the stable schema.
fn print_report_summary(r: &RunReport) {
    let meta: Vec<String> = r.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    outln!("{} ({})", r.name, meta.join(", "));
    if !r.counters.is_empty() {
        outln!("counters:");
        for (name, value) in &r.counters {
            outln!("  {name:<44} {value}");
        }
    }
    if !r.gauges.is_empty() {
        outln!("gauges:");
        for (name, value) in &r.gauges {
            outln!("  {name:<44} {value}");
        }
    }
    if !r.histograms.is_empty() {
        outln!("histograms:");
        for (name, h) in &r.histograms {
            outln!(
                "  {name:<44} n={} p50<={} p90<={} p99<={} sum={}",
                h.count,
                h.quantile_limit(0.5),
                h.quantile_limit(0.9),
                h.quantile_limit(0.99),
                h.sum
            );
        }
    }
    outln!(
        "events: {} buffered, {} dropped (see `deltapath trace` for the full stream)",
        r.events.len(),
        r.dropped_events
    );
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    reject_unknown_options("trace", args, TRACE_OPTIONS)?;
    let chrome = flag(args, "--chrome")?;
    let (p, encoder_name, profiler) = profiled_run(args)?;
    if let Some(path) = chrome {
        let snapshot = profiler.snapshot();
        let trace = snapshot.chrome_trace(p.name());
        std::fs::write(&path, &trace).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        outln!(
            "wrote Chrome trace for {} under {encoder_name} to {path} \
             ({} lanes, {} span nodes; load in chrome://tracing or Perfetto)",
            p.name(),
            snapshot.lanes.len(),
            snapshot.tree.len()
        );
        return Ok(());
    }
    let report = profiler
        .report(p.name())
        .with_meta("benchmark", p.name())
        .with_meta("encoder", encoder_name)
        .with_meta("scope", "app");
    out!("{}", report.to_jsonl());
    Ok(())
}

/// Runs `p` under `encoder` (over `plan`), counting entries per distinct
/// captured context with a [`ContextProfile`].
fn profile_entries(
    p: &Program,
    encoder: Encoder,
    plan: Option<&EncodingPlan>,
) -> Result<ContextProfile, String> {
    let mut profile = ContextProfile::new();
    let vm_config = VmConfig::default().with_collect(CollectMode::Entries);
    encoder.run(p, plan, vm_config, &mut profile)?;
    Ok(profile)
}

/// The *context flamegraph*: folded call stacks weighted by entry counts,
/// decoded from the captures `encoder` produced under `scope`.
fn context_folded(
    p: &Program,
    encoder: Encoder,
    scope: ScopeFilter,
) -> Result<(FoldedStacks, u64), String> {
    if !encoder.kind.decodable() {
        return Err(format!(
            "encoder {:?} does not produce decodable contexts (use {})",
            encoder.name,
            encoder_names(EncoderKind::decodable)
        ));
    }
    let config = encoder.plan_config(PlanConfig::default().with_scope(scope));
    let plan = EncodingPlan::analyze(p, &config).map_err(|e| e.to_string())?;
    let profile = profile_entries(p, encoder, Some(&plan))?;
    Ok(profile.folded(p, &plan.decoder()))
}

/// Validates one benchmark's flamegraph pipeline end to end against the
/// [`StackWalkEncoder`] shadow-stack oracle, under full-scope encoding.
///
/// The oracle is the walk run's stacks *filtered to plan-encoded methods*
/// (the same ground truth the differential suite uses), keeping only
/// entries whose true stack never crosses unencoded code. For closed-world
/// benchmarks that is every entry, and the map-based and batched context
/// flamegraphs must match it *exactly* — same stacks, same entry counts,
/// nothing skipped. Benchmarks with dynamic class loading keep the exact
/// check on the fully-encoded subset (each oracle stack's count is a lower
/// bound on the decoded count, since a path through dynamic code may
/// legitimately decode to the same filtered stack), plus conservation:
/// both runs must account for every recorded entry. In all cases the
/// map-based and batched encoders must agree stack for stack, the folded
/// text must round-trip through [`FoldedStacks::parse`], and the span
/// flamegraph's Chrome trace must be well-formed `deltapath.trace.v2`
/// JSON.
fn check_flamegraph(p: &Program) -> Result<(), String> {
    use deltapath::ir::Origin;
    use deltapath::runtime::fold_path;

    let name = p.name().to_owned();
    let closed = p.classes().iter().all(|c| c.origin() != Origin::Dynamic);
    let plan = EncodingPlan::analyze(p, &PlanConfig::default().with_scope(ScopeFilter::All))
        .map_err(|e| e.to_string())?;

    // The oracle map: walked stacks filtered to planned methods.
    let walk_profile = profile_entries(p, Encoder::parse("stackwalk")?, None)?;
    let mut oracle = FoldedStacks::new();
    let mut outside = 0u64; // entries at methods the plan never encoded
    let mut through_dynamic = 0u64; // planned entries reached across unencoded frames
    for (capture, count) in walk_profile.counts() {
        let Capture::Walk(stack) = capture else {
            unreachable!("walk run captures Walk")
        };
        let at = *stack.last().expect("non-empty walked stack");
        if plan.entry(at).is_none() {
            outside += count;
        } else if stack.iter().any(|&m| plan.entry(m).is_none()) {
            through_dynamic += count;
        } else {
            oracle.add(&fold_path(p, stack), count);
        }
    }

    let (delta, delta_skipped) = context_folded(p, Encoder::parse("deltapath")?, ScopeFilter::All)?;
    let (batched, batched_skipped) =
        context_folded(p, Encoder::parse("batched")?, ScopeFilter::All)?;
    if delta != batched || delta_skipped != batched_skipped {
        return Err(format!(
            "{name}: map-based and batched context flamegraphs diverge"
        ));
    }
    if delta.total() + delta_skipped != walk_profile.total() {
        return Err(format!(
            "{name}: entry conservation failed ({} folded + {} skipped != {} recorded)",
            delta.total(),
            delta_skipped,
            walk_profile.total()
        ));
    }
    if closed {
        if delta != oracle || delta_skipped > 0 || outside > 0 || through_dynamic > 0 {
            let diff = delta
                .iter()
                .find(|&(stack, w)| oracle.get(stack) != Some(w));
            return Err(format!(
                "{name}: context flamegraph diverges from the stack-walk oracle \
                 ({delta_skipped} skipped; first difference: {diff:?})"
            ));
        }
    } else {
        for (stack, truth_count) in oracle.iter() {
            let decoded = delta.get(stack);
            if decoded.is_none() || decoded < Some(truth_count) {
                return Err(format!(
                    "{name}: oracle stack {stack:?} has {truth_count} entries but \
                     the context flamegraph decoded {decoded:?}"
                ));
            }
        }
    }
    let rendered = delta.render();
    let parsed = FoldedStacks::parse(&rendered)
        .map_err(|e| format!("{name}: folded output does not re-parse: {e}"))?;
    if parsed != delta {
        return Err(format!("{name}: folded render/parse round-trip lost data"));
    }

    // Span side: an instrumented run must produce a non-empty span tree
    // whose Chrome trace export is well-formed.
    let run_args = vec![name.clone()];
    let (_, _, profiler) = profiled_run(&run_args)?;
    let snapshot = profiler.snapshot();
    if snapshot.tree.total_at(&["vm.run"]).is_none() {
        return Err(format!("{name}: span tree is missing the vm.run root span"));
    }
    if snapshot.folded().is_empty() {
        return Err(format!("{name}: span flamegraph is empty"));
    }
    let chrome = snapshot.chrome_trace(&name);
    let parsed =
        Json::parse(&chrome).map_err(|e| format!("{name}: Chrome trace is not valid JSON: {e}"))?;
    let schema = parsed
        .get("otherData")
        .and_then(|d| d.get("schema"))
        .and_then(Json::as_str);
    if schema != Some(deltapath::telemetry::TRACE_SCHEMA) {
        return Err(format!("{name}: Chrome trace schema tag missing or wrong"));
    }
    outln!(
        "{name}: ok ({} context stacks vs {} oracle stacks{}, {} span nodes, {} lanes)",
        delta.len(),
        oracle.len(),
        if closed {
            String::new()
        } else {
            format!(", {through_dynamic}+{outside} entries touching dynamic code")
        },
        snapshot.tree.len(),
        snapshot.lanes.len()
    );
    Ok(())
}

/// `deltapath flamegraph`: folded-stack output (`--contexts` decodes
/// captured calling contexts, `--spans` reports span-tree self time), or
/// `--check` validation of the whole pipeline against the stack-walk
/// oracle (the CI gate, usually with `--all`).
fn cmd_flamegraph(args: &[String]) -> Result<(), String> {
    reject_unknown_options("flamegraph", args, FLAMEGRAPH_OPTIONS)?;
    let spans_mode = args.iter().any(|a| a == "--spans");
    let contexts_mode = args.iter().any(|a| a == "--contexts");
    if spans_mode && contexts_mode {
        return Err("--contexts and --spans are mutually exclusive".to_owned());
    }
    if args.iter().any(|a| a == "--check") {
        let programs: Vec<Program> = if args.iter().any(|a| a == "--all") {
            suite().iter().map(|b| b.program()).collect()
        } else {
            vec![load(args)?]
        };
        for p in &programs {
            check_flamegraph(p)?;
        }
        return Ok(());
    }
    let out = flag(args, "--out")?;
    let text = if spans_mode {
        let (_, _, profiler) = profiled_run(args)?;
        profiler.snapshot().folded().render()
    } else {
        let p = load(args)?;
        let (stacks, skipped) = context_folded(&p, Encoder::of_args(args)?, scope_of(args)?)?;
        if skipped > 0 {
            eprintln!("note: {skipped} entries had undecodable captures and were skipped");
        }
        stacks.render()
    };
    match out {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            outln!(
                "wrote {} folded stack lines to {path} (render with inferno/flamegraph.pl)",
                text.lines().count()
            );
        }
        None => out!("{text}"),
    }
    Ok(())
}

/// Reads and parses a `deltapath.plan.v1` file.
fn load_plan(path: &str) -> Result<ImportedPlan, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    match parse_plan(std::io::BufReader::new(file)) {
        Ok(p) => Ok(p),
        Err(PlanParseError::Io(e)) => Err(format!("cannot read {path:?}: {e}")),
        Err(PlanParseError::Invalid(diags)) => {
            for d in &diags {
                eprintln!("{path}: {d}");
            }
            Err(format!(
                "{path}: plan parse failed with {} diagnostic(s)",
                diags.len()
            ))
        }
    }
}

/// Writes a plan to `path` in canonical `deltapath.plan.v1` form.
fn write_plan(plan: &EncodingPlan, name: &str, path: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    render_plan(plan, name, &mut out).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// Audits `plan` with [`audit_plan_full`] on `--workers N` per-anchor
/// workers (default: 1).
fn audit_report(p: &Program, plan: &EncodingPlan, args: &[String]) -> Result<AuditReport, String> {
    let workers = match flag(args, "--workers")? {
        None => 1,
        Some(w) => w
            .parse::<usize>()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("bad --workers value {w:?} (use an integer >= 1)"))?,
    };
    let opts = AuditOptions::default().with_workers(workers);
    Ok(audit_plan_full(p, plan, &opts, &NullTelemetry))
}

/// The options `inspect` accepts (see [`usage`]).
const INSPECT_OPTIONS: &[&str] = &["--scope", "--width"];

/// The options `dot` accepts (see [`usage`]).
const DOT_OPTIONS: &[&str] = &["--scope"];

/// The options `run` accepts (see [`usage`]).
const RUN_OPTIONS: &[&str] = &["--encoder"];

/// The options `decode` accepts (see [`usage`]): none.
const DECODE_OPTIONS: &[&str] = &[];

/// The options `report` accepts (see [`usage`]).
const REPORT_OPTIONS: &[&str] = &["--json", "--encoder", "--from"];

/// The options `trace` accepts (see [`usage`]).
const TRACE_OPTIONS: &[&str] = &["--encoder", "--chrome"];

/// The options `flamegraph` accepts (see [`usage`]).
const FLAMEGRAPH_OPTIONS: &[&str] = &[
    "--contexts",
    "--spans",
    "--encoder",
    "--scope",
    "--out",
    "--check",
    "--all",
];

/// The options `lint` accepts (see [`usage`]).
const LINT_OPTIONS: &[&str] = &[
    "--all",
    "--json",
    "--deny-warnings",
    "--scope",
    "--width",
    "--workers",
    "--plan-out",
];

/// The options `import` accepts (see [`usage`]).
const IMPORT_OPTIONS: &[&str] = &[
    "--lint",
    "--dot",
    "--render",
    "--width",
    "--budget",
    "--workers",
    "--plan-out",
];

/// The options `diff` accepts (see [`usage`]).
const DIFF_OPTIONS: &[&str] = &["--json"];

/// The options `generate` accepts (see [`usage`]).
const GENERATE_OPTIONS: &[&str] = &["--methods", "--seed", "--out"];

/// Rejects any `--` argument outside `known`, so a mistyped gate flag
/// (`--deny-warnigns`) fails instead of silently weakening the command,
/// and any option given twice, which [`flag`] would read only once
/// (`--encoder pcc --encoder batched` would run `pcc`).
fn reject_unknown_options(command: &str, args: &[String], known: &[&str]) -> Result<(), String> {
    let options: Vec<&String> = args.iter().filter(|a| a.starts_with("--")).collect();
    for (i, a) in options.iter().enumerate() {
        if !known.contains(&a.as_str()) {
            return Err(format!("unknown option {a:?} for {command}"));
        }
        if options[..i].contains(a) {
            return Err(format!("repeated option {a} for {command}"));
        }
    }
    Ok(())
}

/// Statically audits one benchmark's (or every benchmark's) encoding plan
/// with [`deltapath::audit_plan`] and reports the `DP0xx` diagnostics.
/// Exits with failure on any error-severity finding, or on any finding at
/// all under `--deny-warnings`.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    reject_unknown_options("lint", args, LINT_OPTIONS)?;
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let scope = scope_of(args)?;
    let config = PlanConfig::default()
        .with_scope(scope)
        .with_width(width_of(args)?);

    let all = args.iter().any(|a| a == "--all");
    let programs: Vec<Program> = if all {
        suite().iter().map(|b| b.program()).collect()
    } else {
        vec![load(args)?]
    };
    let plan_out = flag(args, "--plan-out")?;
    if plan_out.is_some() && all {
        return Err("--plan-out needs a single benchmark, not --all".to_owned());
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for p in &programs {
        let plan = EncodingPlan::analyze(p, &config)
            .map_err(|e| format!("{}: plan analysis failed: {e}", p.name()))?;
        let report = audit_report(p, &plan, args)?;
        errors += report.errors();
        warnings += report.warnings();
        if json {
            outln!("{}", report.to_json(p.name()));
        } else {
            for d in &report.diagnostics {
                outln!("{}: {d}", p.name());
            }
            outln!(
                "{}: {} nodes, {} edges, {} anchors — {} errors, {} warnings",
                p.name(),
                report.nodes,
                report.edges,
                report.anchors,
                report.errors(),
                report.warnings()
            );
        }
        if let Some(path) = &plan_out {
            write_plan(&plan, p.name(), path)?;
        }
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        Err(format!(
            "lint failed: {errors} errors, {warnings} warnings across {} plans",
            programs.len()
        ))
    } else {
        Ok(())
    }
}

/// `deltapath diff <old.plan> <new.plan>`: semantically compare two plan
/// files layer by layer and report classified `DP05x` differences.
/// Differences are informational — the exit status only reflects whether
/// the files could be read and compared.
fn cmd_diff(args: &[String]) -> Result<(), String> {
    reject_unknown_options("diff", args, DIFF_OPTIONS)?;
    let json = args.iter().any(|a| a == "--json");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [old_path, new_path] = files[..] else {
        return Err("usage: deltapath diff <old.plan> <new.plan> [--json]".to_owned());
    };
    let old = load_plan(old_path)?;
    let new = load_plan(new_path)?;
    let diff = diff_plans(&old.plan, &new.plan);
    if json {
        outln!("{}", diff.to_json(&old.name, &new.name));
        return Ok(());
    }
    for d in &diff.diagnostics {
        outln!("{d}");
    }
    if diff.is_empty() {
        outln!("{old_path} and {new_path} are semantically identical");
    } else {
        let counts: Vec<String> = diff
            .counts()
            .iter()
            .map(|(code, n)| format!("{} x{n}", code.code()))
            .collect();
        outln!(
            "{old_path} ({} nodes) -> {new_path} ({} nodes): {} difference(s) [{}]",
            diff.old_nodes,
            diff.new_nodes,
            diff.counts().values().sum::<usize>(),
            counts.join(", ")
        );
    }
    Ok(())
}

/// `deltapath import <file>`: parse an external `deltapath.graph.v1` call
/// graph, plan it end to end against a skeleton program, and summarize (or
/// `--lint` / `--dot` / `--render` it).
fn cmd_import(args: &[String]) -> Result<(), String> {
    reject_unknown_options("import", args, IMPORT_OPTIONS)?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing graph file (deltapath.graph.v1 format)")?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let imported = match parse_graph(std::io::BufReader::new(file)) {
        Ok(g) => g,
        Err(ImportError::Io(e)) => return Err(format!("cannot read {path:?}: {e}")),
        Err(err) => {
            let diags = err.diagnostics();
            for d in diags {
                eprintln!("{path}: {d}");
            }
            return Err(format!(
                "{path}: import failed with {} diagnostic(s)",
                diags.len()
            ));
        }
    };
    for w in &imported.warnings {
        eprintln!("{path}: {w}");
    }
    let graph = imported.graph;
    let p = skeleton_for_graph(&imported.name, &graph);
    if args.iter().any(|a| a == "--render") {
        let mut out = Out;
        render_graph(&graph, &imported.name, &mut out)
            .map_err(|e| format!("cannot write to stdout: {e}"))?;
        return Ok(());
    }
    if args.iter().any(|a| a == "--dot") {
        let mut out = Out;
        graph
            .write_dot(&p, &mut out)
            .map_err(|e| format!("cannot write to stdout: {e}"))?;
        return Ok(());
    }
    let plan_out = flag(args, "--plan-out")?;
    let mut config = PlanConfig::default()
        .with_scope(ScopeFilter::All)
        .with_width(width_of(args)?)
        .with_batch_overflow();
    if let Some(b) = flag(args, "--budget")? {
        let budget = b
            .parse::<u64>()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or_else(|| format!("bad --budget value {b:?} (use an integer >= 1)"))?;
        config = config.with_territory_budget(budget);
    }
    let nodes = graph.node_count();
    let edges = graph.edge_count();
    let poly_sites = graph
        .instrumented_sites()
        .iter()
        .filter(|&&s| graph.site_edges(s).len() > 1)
        .count();
    let lint = args.iter().any(|a| a == "--lint");
    let plan = EncodingPlan::from_graph(&p, graph, &config).map_err(|e| e.to_string())?;
    outln!(
        "{} ({path}): {nodes} nodes, {edges} edges, {poly_sites} polymorphic sites",
        imported.name
    );
    let enc = plan.encoding();
    outln!(
        "  plan ({} encoding): {} instrumented methods, {} sites with ID arithmetic",
        config.width,
        plan.instrumented_method_count(),
        plan.instrumented_site_count()
    );
    outln!(
        "  anchors: {} total ({} from overflow, {} analysis restarts)",
        enc.anchors.len(),
        enc.overflow_anchor_count(),
        enc.restarts
    );
    outln!(
        "  encoding space: max ICC {} (max ID {})",
        enc.max_icc,
        enc.required_max_id()
    );
    if let Some(path) = plan_out {
        write_plan(&plan, &imported.name, &path)?;
        outln!("  wrote plan ({}) to {path}", deltapath::PLAN_SCHEMA);
    }
    if lint {
        let report = audit_report(&p, &plan, args)?;
        for d in &report.diagnostics {
            outln!("{}: {d}", imported.name);
        }
        outln!(
            "  audit: {} errors, {} warnings",
            report.errors(),
            report.warnings()
        );
        if report.errors() > 0 {
            return Err(format!(
                "lint failed: {} errors in the imported plan",
                report.errors()
            ));
        }
    }
    Ok(())
}

/// `deltapath generate`: write a seeded scale call graph in
/// `deltapath.graph.v1` form, ready for `deltapath import`.
fn cmd_generate(args: &[String]) -> Result<(), String> {
    reject_unknown_options("generate", args, GENERATE_OPTIONS)?;
    let methods = match flag(args, "--methods")? {
        None => 10_000,
        Some(m) => m
            .parse::<usize>()
            .ok()
            .filter(|&m| m >= 2)
            .ok_or_else(|| format!("bad --methods value {m:?} (use an integer >= 2)"))?,
    };
    let seed = match flag(args, "--seed")? {
        None => 42,
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("bad --seed value {s:?}"))?,
    };
    let cfg = ScaleConfig::default().with_methods(methods).with_seed(seed);
    let graph = cfg.build_graph();
    let name = format!("scale-{methods}-{seed}");
    match flag(args, "--out")? {
        Some(path) => {
            let file =
                std::fs::File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            render_graph(&graph, &name, &mut out)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            outln!(
                "wrote {} ({} nodes, {} edges) to {path}",
                name,
                graph.node_count(),
                graph.edge_count()
            );
        }
        None => {
            let mut out = Out;
            render_graph(&graph, &name, &mut out)
                .map_err(|e| format!("cannot write to stdout: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["compress", "--scope", "all", "--width", "32"]);
        assert_eq!(flag(&a, "--scope"), Ok(Some("all".to_owned())));
        assert_eq!(flag(&a, "--width"), Ok(Some("32".to_owned())));
        assert_eq!(flag(&a, "--missing"), Ok(None));
        let missing = Err("missing value for --scope".to_owned());
        // Flag at the end without a value.
        let b = args(&["x", "--scope"]);
        assert_eq!(flag(&b, "--scope"), missing);
        // Flag followed by another option instead of its value.
        let c = args(&["x", "--scope", "--width", "32"]);
        assert_eq!(flag(&c, "--scope"), missing);
        assert_eq!(flag(&c, "--width"), Ok(Some("32".to_owned())));
    }

    #[test]
    fn repeated_options_are_rejected() {
        let run = args(&["compress", "--encoder", "pcc", "--encoder", "batched"]);
        assert_eq!(
            reject_unknown_options("run", &run, RUN_OPTIONS),
            Err("repeated option --encoder for run".to_owned())
        );
        let inspect = args(&[
            "compress", "--width", "8", "--scope", "all", "--width", "64",
        ]);
        assert_eq!(
            reject_unknown_options("inspect", &inspect, INSPECT_OPTIONS),
            Err("repeated option --width for inspect".to_owned())
        );
        // A repeated flag that takes no value is rejected too.
        let lint = args(&["compress", "--json", "--json"]);
        assert_eq!(
            reject_unknown_options("lint", &lint, LINT_OPTIONS),
            Err("repeated option --json for lint".to_owned())
        );
        // Distinct options, each given once, pass.
        let once = args(&["compress", "--width", "8", "--scope", "all"]);
        assert_eq!(
            reject_unknown_options("inspect", &once, INSPECT_OPTIONS),
            Ok(())
        );
    }

    #[test]
    fn scope_parsing() {
        assert_eq!(
            scope_of(&args(&["x"])).unwrap(),
            ScopeFilter::ApplicationOnly
        );
        assert_eq!(
            scope_of(&args(&["x", "--scope", "app"])).unwrap(),
            ScopeFilter::ApplicationOnly
        );
        assert_eq!(
            scope_of(&args(&["x", "--scope", "all"])).unwrap(),
            ScopeFilter::All
        );
        assert!(scope_of(&args(&["x", "--scope", "bogus"])).is_err());
    }

    #[test]
    fn width_parsing() {
        assert_eq!(width_of(&args(&["x"])).unwrap(), EncodingWidth::U64);
        assert_eq!(
            width_of(&args(&["x", "--width", "32"])).unwrap(),
            EncodingWidth::U32
        );
        // Out-of-range or garbage widths are errors, not panics.
        assert!(width_of(&args(&["x", "--width", "0"])).is_err());
        assert!(width_of(&args(&["x", "--width", "200"])).is_err());
        assert!(width_of(&args(&["x", "--width", "wide"])).is_err());
    }

    #[test]
    fn encoder_table_resolves_every_name() {
        for (name, kind) in ENCODERS {
            let encoder = Encoder::parse(name).unwrap();
            assert_eq!((encoder.name, encoder.kind), (name, kind));
            let cpt = encoder.plan_config(PlanConfig::default()).cpt;
            assert_eq!(cpt, !name.ends_with("-nocpt"), "{name}");
        }
        for name in ["deltapath-nocpt", "batched-nocpt"] {
            let encoder = Encoder::parse(name).unwrap();
            assert!(!encoder.plan_config(PlanConfig::default()).cpt, "{name}");
        }
        // Only plan-driven encoders analyse a plan.
        for name in ["native", "stackwalk", "cct"] {
            assert!(!Encoder::parse(name).unwrap().kind.needs_plan(), "{name}");
        }
        assert_eq!(
            Encoder::of_args(&args(&["x"])).unwrap().name,
            "deltapath",
            "default encoder"
        );
        for bad in ["compiled", "compiled-nocpt", "not-an-encoder"] {
            let err = Encoder::parse(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            for (name, _) in ENCODERS {
                assert!(err.contains(name), "{err} does not list {name}");
            }
        }
    }

    #[test]
    fn load_rejects_unknown_benchmarks() {
        assert!(load(&args(&["not-a-benchmark"])).is_err());
        assert!(load(&[]).is_err());
    }

    /// The `--` options the usage text documents for `command`: its header
    /// line and the indented option lines below it. An option is a whole
    /// word, or one `|` alternative of a word, with `[`/`]` stripped; an
    /// option quoted in prose (`` `report --json`, ``) is not one.
    fn documented_options(command: &str) -> std::collections::BTreeSet<String> {
        let text = usage();
        let mut lines = text.lines().skip_while(|l| !l.starts_with(command));
        let header = lines.next().expect("command is in the usage text");
        std::iter::once(header)
            .chain(lines.take_while(|l| l.starts_with(' ')))
            .flat_map(str::split_whitespace)
            .flat_map(|w| w.trim_matches(|c| c == '[' || c == ']').split('|'))
            .filter(|w| {
                w.starts_with("--") && w.chars().all(|c| c.is_ascii_lowercase() || c == '-')
            })
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn lint_and_import_reject_a_mistyped_option() {
        let err = cmd_lint(&args(&["compress", "--deny-warnigns", "--bogus-flag"])).unwrap_err();
        assert_eq!(err, r#"unknown option "--deny-warnigns" for lint"#);
        let err = cmd_import(&args(&["g.graph", "--lint", "--budgte", "32"])).unwrap_err();
        assert_eq!(err, r#"unknown option "--budgte" for import"#);
    }

    #[test]
    fn lint_and_import_reject_the_baseline_option() {
        let err = cmd_lint(&args(&["compress", "--baseline", "old.plan"])).unwrap_err();
        assert_eq!(err, r#"unknown option "--baseline" for lint"#);
        let err = cmd_import(&args(&["g.graph", "--lint", "--baseline", "old.plan"])).unwrap_err();
        assert_eq!(err, r#"unknown option "--baseline" for import"#);
    }

    /// A subcommand's handler.
    type Handler = fn(&[String]) -> Result<(), String>;

    /// Every subcommand that takes arguments, with its option list and its
    /// handler.
    const COMMANDS: [(&str, &[&str], Handler); 11] = [
        ("inspect", INSPECT_OPTIONS, cmd_inspect),
        ("dot", DOT_OPTIONS, cmd_dot),
        ("run", RUN_OPTIONS, cmd_run),
        ("decode", DECODE_OPTIONS, cmd_decode),
        ("report", REPORT_OPTIONS, cmd_report),
        ("trace", TRACE_OPTIONS, cmd_trace),
        ("flamegraph", FLAMEGRAPH_OPTIONS, cmd_flamegraph),
        ("lint", LINT_OPTIONS, cmd_lint),
        ("import", IMPORT_OPTIONS, cmd_import),
        ("diff", DIFF_OPTIONS, cmd_diff),
        ("generate", GENERATE_OPTIONS, cmd_generate),
    ];

    #[test]
    fn lint_and_import_accept_every_documented_option() {
        for (command, known, _) in COMMANDS {
            let documented = documented_options(&format!("{command} "));
            let accepted = known.iter().map(|o| o.to_string()).collect();
            assert_eq!(documented, accepted, "{command} options");
            let all: Vec<String> = documented.into_iter().collect();
            assert_eq!(reject_unknown_options(command, &all, known), Ok(()));
        }
    }

    #[test]
    fn every_subcommand_rejects_an_unknown_option() {
        // The check runs before anything else, so no benchmark runs here.
        for (command, _, handler) in COMMANDS {
            let err = handler(&args(&["compress", "--encodr", "pcc"])).unwrap_err();
            assert_eq!(err, format!(r#"unknown option "--encodr" for {command}"#));
        }
        // So does the repeated-option check.
        for (command, known, handler) in COMMANDS {
            let Some(option) = known.first() else {
                continue;
            };
            let err = handler(&args(&["compress", option, "1", option, "2"])).unwrap_err();
            assert_eq!(err, format!("repeated option {option} for {command}"));
        }
    }
}
