//! The `deltapath` command-line tool: explore the bundled workloads, their
//! call graphs and encoding plans, and run them under any of the encoders.
//!
//! Run it without arguments for the usage text, which [`usage`] renders
//! from the [`COMMANDS`] table.

use std::collections::HashMap;
use std::fmt::Display;
use std::io::{self, Write as _};
use std::process::ExitCode;
use std::str::FromStr;
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

/// One option of a subcommand: its name, its value's placeholder in the
/// usage text (`None` for a flag) and its help, one usage line per `\n`.
type Opt = (&'static str, Option<&'static str>, &'static str);

/// One subcommand: its usage entry, its options and its handler.
struct Command {
    name: &'static str,
    /// The positional arguments, as the usage text shows them; it takes at
    /// most one per word.
    synopsis: &'static str,
    /// The usage text's summary, one line per `\n`.
    summary: &'static str,
    options: &'static [Opt],
    run: fn(&Args) -> Result<(), String>,
}

impl Command {
    /// The most positional arguments it takes.
    fn max_positionals(&self) -> usize {
        self.synopsis.split_whitespace().count()
    }
}

#[rustfmt::skip]
const SCOPE: Opt = ("--scope", Some("app|all"), "selective vs full encoding (default: app)");
#[rustfmt::skip]
const WIDTH: Opt = ("--width", Some("BITS"), "encoding integer width (default: 64)");
#[rustfmt::skip]
const ENCODER: Opt = ("--encoder", Some("NAME"), "as for `run` (default: deltapath)");
const OUT: Opt = ("--out", Some("FILE"), "write to FILE instead of stdout");

/// Every subcommand. `main` dispatches through it, [`Args::parse`] checks
/// command lines against it and [`usage`] renders it. `{encoders}` and
/// `{decodable}` in a help text stand for the [`ENCODERS`] names.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", synopsis: "", run: cmd_list,
        summary: "list the bundled SPECjvm2008-like benchmarks",
        options: &[] },
    Command { name: "inspect", synopsis: "<bench>", run: cmd_inspect,
        summary: "static characteristics and encoding plan summary",
        options: &[SCOPE, WIDTH] },
    Command { name: "dot", synopsis: "<bench>", run: cmd_dot,
        summary: "print the encoded call graph in Graphviz format",
        options: &[SCOPE] },
    Command { name: "run", synopsis: "<bench>", run: cmd_run,
        summary: "execute under an encoder and report costs",
        options: &[("--encoder", Some("NAME"), "{encoders}")] },
    Command { name: "decode", synopsis: "<bench>", run: cmd_decode,
        summary: "run, capture, and decode example contexts",
        options: &[] },
    Command { name: "report", synopsis: "<bench>", run: cmd_report,
        summary: "run with telemetry; print a human-readable summary\n\
                  (histograms as p50/p90/p99 upper bounds)",
        options: &[
            ("--json", None, "the full machine-readable report instead"),
            ENCODER,
            ("--from", Some("FILE"), "read a saved report (JSON or JSONL) instead of running"),
        ] },
    Command { name: "trace", synopsis: "<bench>", run: cmd_trace,
        summary: "like `report --json`, but printed as JSON lines",
        options: &[
            ENCODER,
            ("--chrome", Some("FILE"), "write a Chrome trace-event file (deltapath.trace.v2)\n\
                                        of the span tree instead of printing JSONL"),
        ] },
    Command { name: "flamegraph", synopsis: "<bench>", run: cmd_flamegraph,
        summary: "folded flamegraph stacks (inferno-compatible) on stdout",
        options: &[
            ("--contexts", None, "decoded calling contexts weighted by entries (default)"),
            ("--spans", None, "self-time of the analysis/audit/run span tree"),
            ("--encoder", Some("NAME"), "{decodable}"),
            SCOPE,
            OUT,
            ("--check", None, "validate flamegraphs against the stack-walk oracle"),
            ("--all", None, "with --check: every bundled benchmark"),
        ] },
    Command { name: "lint", synopsis: "<bench>", run: cmd_lint,
        summary: "statically audit the encoding plan (DP0xx diagnostics)",
        options: &[
            ("--all", None, "every bundled benchmark instead of one"),
            ("--json", None, "machine-readable report (schema deltapath.lint.v1)"),
            ("--deny-warnings", None, "exit with failure on warnings, not just errors"),
            SCOPE,
            WIDTH,
            ("--workers", Some("N"), "parallel per-anchor audit workers (default: 1)"),
            ("--plan-out", Some("FILE"), "write the audited plan (deltapath.plan.v1)"),
        ] },
    Command { name: "import", synopsis: "<file>", run: cmd_import,
        summary: "plan an external deltapath.graph.v1 call graph",
        options: &[
            ("--lint", None, "audit the resulting plan (DP0xx diagnostics)"),
            ("--dot", None, "print the imported graph in Graphviz format"),
            ("--render", None, "re-render the canonical deltapath.graph.v1 form"),
            WIDTH,
            ("--budget", Some("N"), "territory budget: bound anchor-free path counts\n\
                                     (extra anchors, near-linear planning; try 16-64)"),
            ("--workers", Some("N"), "parallel per-anchor audit workers (with --lint)"),
            ("--plan-out", Some("FILE"), "write the resulting plan (deltapath.plan.v1)"),
        ] },
    Command { name: "diff", synopsis: "<old> <new>", run: cmd_diff,
        summary: "semantically compare two deltapath.plan.v1 files\n\
                  (DP05x diagnostics; anchors, tables, territories,\n\
                  SIDs, instructions)",
        options: &[("--json", None, "machine-readable report (schema deltapath.diff.v1)")] },
    Command { name: "generate", synopsis: "", run: cmd_generate,
        summary: "write a seeded scale graph (deltapath.graph.v1)",
        options: &[
            ("--methods", Some("N"), "graph size (default: 10000)"),
            ("--seed", Some("S"), "generator seed (default: 42)"),
            OUT,
        ] },
];

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = words
        .first()
        .and_then(|word| COMMANDS.iter().find(|c| c.name == word.as_str()))
    else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    match Args::parse(command, &words[1..]).and_then(|args| (command.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The top-level usage text, printed on a missing or unknown subcommand.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut text = format!(
        "usage: deltapath <{}> [arguments] [options]\n\
         (options may also come before the arguments)\n",
        names.join("|")
    );
    for command in COMMANDS {
        let head = format!("{} {}", command.name, command.synopsis);
        text += &usage_entry(0, head.trim_end(), 26, command.summary);
        for &(name, value, help) in command.options {
            let head = value.map_or(name.to_owned(), |value| format!("{name} {value}"));
            text += &usage_entry(4, &head, 19, help);
        }
    }
    text.replace("{encoders}", &encoder_names(|_| true))
        .replace("{decodable}", &encoder_names(EncoderKind::decodable))
}

/// One line of the usage text and the lines its `help` continues on:
/// `head` after `indent` spaces, padded to `width` columns, then `help`.
fn usage_entry(indent: usize, head: &str, width: usize, help: &str) -> String {
    let help = help.replace('\n', &format!("\n{:1$}", "", indent + width));
    format!("\n{:indent$}{head:<width$}{help}", "")
}

/// A command line parsed against its [`Command`]: the positional arguments
/// in order, and each option given with its value.
struct Args {
    command: &'static Command,
    positionals: Vec<String>,
    options: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `words`, the arguments after the subcommand's name, in any
    /// order. A word starting with `--` is an option, and the word after a
    /// value-taking option is its value unless it is another `--` option.
    /// An unknown option, an option given twice (`--encoder pcc --encoder
    /// batched` would otherwise run one of them) and an option without its
    /// value are errors, and so is one positional too many; the option
    /// errors are reported first.
    fn parse(command: &'static Command, words: &[String]) -> Result<Self, String> {
        let mut args = Self {
            command,
            positionals: Vec::new(),
            options: Vec::new(),
        };
        let mut words = words.iter();
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                args.positionals.push(word.clone());
                continue;
            }
            let &(name, value, _) = command
                .options
                .iter()
                .find(|&&(name, ..)| name == word.as_str())
                .ok_or_else(|| format!("unknown option {word:?} for {}", command.name))?;
            if args.options.iter().any(|&(given, _)| given == name) {
                return Err(format!("repeated option {name} for {}", command.name));
            }
            let value = value
                .map(|_| {
                    let value = words.next().filter(|value| !value.starts_with("--"));
                    value.cloned().ok_or(format!("missing value for {name}"))
                })
                .transpose()?;
            args.options.push((name, value));
        }
        args.at_most(command.max_positionals(), command.name)?;
        Ok(args)
    }

    /// Whether option `name` was given.
    fn has(&self, name: &str) -> bool {
        self.options.iter().any(|&(given, _)| given == name)
    }

    /// The value of option `name`, if it was given.
    fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.options.iter().find(|&&(given, _)| given == name)?;
        value.as_deref()
    }

    /// The bundled benchmark the first positional names.
    fn benchmark(&self) -> Result<Program, String> {
        let name = self.positionals.first().ok_or("missing benchmark name")?;
        program(name).ok_or_else(|| {
            format!("unknown benchmark {name:?}; run `deltapath list` to see the available ones")
        })
    }

    /// Every bundled benchmark under `--all`, else the named one.
    fn benchmarks(&self) -> Result<Vec<Program>, String> {
        if !self.has("--all") {
            return Ok(vec![self.benchmark()?]);
        }
        self.at_most(0, &format!("{} --all", self.command.name))?;
        Ok(suite().iter().map(|b| b.program()).collect())
    }

    /// Fails on a positional past the first `most`, which `what`, the
    /// subcommand or an option that takes the positional's place, does
    /// not take.
    fn at_most(&self, most: usize, what: &str) -> Result<(), String> {
        match self.positionals.get(most) {
            Some(extra) => Err(format!("unexpected argument {extra:?} for {what}")),
            None => Ok(()),
        }
    }

    /// Fails on the first of `options` that was given: `mode`, a
    /// subcommand run in one of its modes, would ignore it.
    fn unused(&self, options: &[&str], mode: &str) -> Result<(), String> {
        match options.iter().find(|&&name| self.has(name)) {
            Some(name) => Err(format!("unused option {name} for {mode}")),
            None => Ok(()),
        }
    }
}

fn scope_of(args: &Args) -> Result<ScopeFilter, String> {
    match args.value("--scope") {
        None | Some("app") => Ok(ScopeFilter::ApplicationOnly),
        Some("all") => Ok(ScopeFilter::All),
        Some(other) => Err(format!("unknown scope {other:?} (use app|all)")),
    }
}

fn width_of(args: &Args) -> Result<EncodingWidth, String> {
    match args.value("--width") {
        None => Ok(EncodingWidth::U64),
        Some(w) => match w.parse::<u8>() {
            Ok(bits @ 1..=127) => Ok(EncodingWidth::new(bits)),
            _ => Err(format!("bad --width value {w:?} (use 1..=127)")),
        },
    }
}

/// The value of option `name` as an integer of at least `min`, or `None`
/// when the option is absent.
fn at_least<T: FromStr + PartialOrd + Display>(
    args: &Args,
    name: &str,
    min: T,
) -> Result<Option<T>, String> {
    let parse = |value: &str| match value.parse() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!(
            "bad {name} value {value:?} (use an integer >= {min})"
        )),
    };
    args.value(name).map(parse).transpose()
}

fn cmd_list(_: &Args) -> Result<(), String> {
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

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let p = args.benchmark()?;
    let scope = scope_of(args)?;
    let config = PlanConfig::default()
        .with_scope(scope)
        .with_width(width_of(args)?);
    let graph = CallGraph::build(&p, &GraphConfig::new(Analysis::Cha).with_scope(scope));
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
    print_plan_summary(&plan);
    outln!("  SID sets: {}", plan.sids().set_count());
    Ok(())
}

/// The plan lines `inspect` and `import` print: instrumentation, anchors
/// and encoding space.
fn print_plan_summary(plan: &EncodingPlan) {
    let enc = plan.encoding();
    outln!(
        "  plan ({} encoding): {} instrumented methods, {} sites with ID arithmetic",
        plan.config().width,
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
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    let p = args.benchmark()?;
    let config = GraphConfig::new(Analysis::Cha).with_scope(scope_of(args)?);
    out!("{}", CallGraph::build(&p, &config).to_dot(&p));
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
    fn of(args: &Args) -> Result<Self, String> {
        Self::parse(args.value("--encoder").unwrap_or("deltapath"))
    }

    /// `base` with call-path tracking as the name asks for.
    fn plan_config(self, base: PlanConfig) -> PlanConfig {
        base.with_cpt(!self.name.ends_with("-nocpt"))
    }

    /// The application-scope plan this encoder runs `p` over, analysed
    /// into `sink`, or `None` if the encoder needs no plan.
    fn app_plan(self, p: &Program, sink: &dyn Telemetry) -> Result<Option<EncodingPlan>, String> {
        if !self.kind.needs_plan() {
            return Ok(None);
        }
        let config =
            self.plan_config(PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly));
        EncodingPlan::analyze_with(p, &config, sink)
            .map(Some)
            .map_err(|e| e.to_string())
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

fn cmd_run(args: &Args) -> Result<(), String> {
    let p = args.benchmark()?;
    let encoder = Encoder::of(args)?;
    let plan = encoder.app_plan(&p, &NullTelemetry)?;
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

fn cmd_decode(args: &Args) -> Result<(), String> {
    let p = args.benchmark()?;
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

/// Runs `p` under `encoder` with a hierarchical [`SpanProfiler`] attached
/// end to end — plan analysis, the static plan audit, and the VM run all
/// record their nested spans (and every metric) into it.
fn profiled_run(p: &Program, encoder: Encoder) -> Result<Arc<SpanProfiler>, String> {
    let profiler = Arc::new(SpanProfiler::new());
    let plan = encoder.app_plan(p, profiler.as_ref())?;
    if let Some(plan) = &plan {
        audit_plan_with(p, plan, profiler.as_ref());
    }
    let vm_config = VmConfig::default()
        .with_collect(CollectMode::Entries)
        .with_telemetry(profiler.clone());
    encoder.run(p, plan.as_ref(), vm_config, &mut ContextStats::new())?;
    Ok(profiler)
}

/// The [`RunReport`] of a [`profiled_run`] of `p` under `encoder`, with the
/// run's settings as metadata.
fn run_report(p: &Program, encoder: Encoder, profiler: &SpanProfiler) -> RunReport {
    profiler
        .report(p.name())
        .with_meta("benchmark", p.name())
        .with_meta("encoder", encoder.name)
        .with_meta("scope", "app")
}

/// Parses a saved report in either serialization: a single JSON document
/// (`report` output) or JSON lines (`trace` output).
fn parse_report(text: &str) -> Result<RunReport, String> {
    RunReport::from_json(text)
        .or_else(|_| RunReport::from_jsonl(text))
        .map_err(|e| format!("not a run report in JSON or JSONL form: {e}"))
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let report = if let Some(path) = args.value("--from") {
        args.at_most(0, "report --from")?;
        args.unused(&["--encoder"], "report --from")?;
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        parse_report(&text)?
    } else {
        let p = args.benchmark()?;
        let encoder = Encoder::of(args)?;
        let profiler = profiled_run(&p, encoder)?;
        run_report(&p, encoder, &profiler)
    };
    if args.has("--json") {
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
    for (title, values) in [("counters", &r.counters), ("gauges", &r.gauges)] {
        if !values.is_empty() {
            outln!("{title}:");
            for (name, value) in values {
                outln!("  {name:<44} {value}");
            }
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

fn cmd_trace(args: &Args) -> Result<(), String> {
    let p = args.benchmark()?;
    let encoder = Encoder::of(args)?;
    let profiler = profiled_run(&p, encoder)?;
    let Some(path) = args.value("--chrome") else {
        out!("{}", run_report(&p, encoder, &profiler).to_jsonl());
        return Ok(());
    };
    let snapshot = profiler.snapshot();
    let trace = snapshot.chrome_trace(p.name());
    std::fs::write(path, &trace).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    outln!(
        "wrote Chrome trace for {} under {} to {path} \
         ({} lanes, {} span nodes; load in chrome://tracing or Perfetto)",
        p.name(),
        encoder.name,
        snapshot.lanes.len(),
        snapshot.tree.len()
    );
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
    let profiler = profiled_run(p, Encoder::parse("deltapath")?)?;
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
fn cmd_flamegraph(args: &Args) -> Result<(), String> {
    let spans_mode = args.has("--spans");
    if spans_mode && args.has("--contexts") {
        return Err("--contexts and --spans are mutually exclusive".to_owned());
    }
    if args.has("--check") {
        let ignored = ["--contexts", "--spans", "--encoder", "--scope", "--out"];
        args.unused(&ignored, "flamegraph --check")?;
        for p in &args.benchmarks()? {
            check_flamegraph(p)?;
        }
        return Ok(());
    }
    if args.has("--all") {
        return Err("--all needs --check".to_owned());
    }
    let p = args.benchmark()?;
    let text = if spans_mode {
        // The span tree profiles the application-scope plan only.
        args.unused(&["--scope"], "flamegraph --spans")?;
        let profiler = profiled_run(&p, Encoder::of(args)?)?;
        profiler.snapshot().folded().render()
    } else {
        let (stacks, skipped) = context_folded(&p, Encoder::of(args)?, scope_of(args)?)?;
        if skipped > 0 {
            eprintln!("note: {skipped} entries had undecodable captures and were skipped");
        }
        stacks.render()
    };
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
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
    // Dropping the writer would discard an error of its last flush.
    render_plan(plan, name, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// Audits `plan` with [`audit_plan_full`] on `--workers N` per-anchor
/// workers (default: 1).
fn audit_report(p: &Program, plan: &EncodingPlan, args: &Args) -> Result<AuditReport, String> {
    let workers = at_least(args, "--workers", 1)?.unwrap_or(1);
    let opts = AuditOptions::default().with_workers(workers);
    Ok(audit_plan_full(p, plan, &opts, &NullTelemetry))
}

/// Statically audits one benchmark's (or every benchmark's) encoding plan
/// with [`deltapath::audit_plan`] and reports the `DP0xx` diagnostics.
/// Exits with failure on any error-severity finding, or on any finding at
/// all under `--deny-warnings`.
fn cmd_lint(args: &Args) -> Result<(), String> {
    let config = PlanConfig::default()
        .with_scope(scope_of(args)?)
        .with_width(width_of(args)?);
    let programs = args.benchmarks()?;
    let plan_out = args.value("--plan-out");
    if plan_out.is_some() && args.has("--all") {
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
        if args.has("--json") {
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
        if let Some(path) = plan_out {
            write_plan(&plan, p.name(), path)?;
        }
    }
    if errors > 0 || (args.has("--deny-warnings") && warnings > 0) {
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
fn cmd_diff(args: &Args) -> Result<(), String> {
    let [old_path, new_path] = &args.positionals[..] else {
        return Err("missing plan file: diff compares <old> <new>".to_owned());
    };
    let old = load_plan(old_path)?;
    let new = load_plan(new_path)?;
    let diff = diff_plans(&old.plan, &new.plan);
    if args.has("--json") {
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
fn cmd_import(args: &Args) -> Result<(), String> {
    let path = args
        .positionals
        .first()
        .ok_or("missing graph file (deltapath.graph.v1 format)")?;
    let planning = ["--lint", "--width", "--budget", "--workers", "--plan-out"];
    if args.has("--render") {
        args.unused(&["--dot"], "import --render")?;
        args.unused(&planning, "import --render")?;
    } else if args.has("--dot") {
        args.unused(&planning, "import --dot")?;
    } else if !args.has("--lint") {
        args.unused(&["--workers"], "import without --lint")?;
    }
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
    if args.has("--render") || args.has("--dot") {
        let written = if args.has("--render") {
            render_graph(&graph, &imported.name, &mut Out)
        } else {
            graph.write_dot(&p, &mut Out)
        };
        return written.map_err(|e| format!("cannot write to stdout: {e}"));
    }
    let mut config = PlanConfig::default()
        .with_scope(ScopeFilter::All)
        .with_width(width_of(args)?)
        .with_batch_overflow();
    if let Some(budget) = at_least(args, "--budget", 1)? {
        config = config.with_territory_budget(budget);
    }
    let nodes = graph.node_count();
    let edges = graph.edge_count();
    let poly_sites = graph
        .instrumented_sites()
        .iter()
        .filter(|&&s| graph.site_edges(s).len() > 1)
        .count();
    let plan = EncodingPlan::from_graph(&p, graph, &config).map_err(|e| e.to_string())?;
    outln!(
        "{} ({path}): {nodes} nodes, {edges} edges, {poly_sites} polymorphic sites",
        imported.name
    );
    print_plan_summary(&plan);
    if let Some(path) = args.value("--plan-out") {
        write_plan(&plan, &imported.name, path)?;
        outln!("  wrote plan ({}) to {path}", deltapath::PLAN_SCHEMA);
    }
    if args.has("--lint") {
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
fn cmd_generate(args: &Args) -> Result<(), String> {
    let methods = at_least(args, "--methods", 2)?.unwrap_or(10_000);
    let seed = match args.value("--seed") {
        None => 42,
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("bad --seed value {s:?}"))?,
    };
    let cfg = ScaleConfig::default().with_methods(methods).with_seed(seed);
    let graph = cfg.build_graph();
    let name = format!("scale-{methods}-{seed}");
    match args.value("--out") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
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
        None => render_graph(&graph, &name, &mut Out)
            .map_err(|e| format!("cannot write to stdout: {e}"))?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line`, a subcommand's name and its arguments, parsed.
    fn parse(line: &str) -> Result<Args, String> {
        let mut words = line.split_whitespace().map(str::to_owned);
        let name = words.next().expect("a subcommand name");
        let command = COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("a subcommand");
        Args::parse(command, &words.collect::<Vec<_>>())
    }

    /// Checks that each command line fails with its error.
    fn rejects(cases: &[(&str, &str)]) {
        for (line, error) in cases {
            assert_eq!(parse(line).err().as_deref(), Some(*error), "{line}");
        }
    }

    /// Every subcommand with as many positionals as it takes, and each of
    /// its options as given on a command line, with `1` for a value.
    fn examples() -> impl Iterator<Item = (&'static Command, String, Vec<String>)> {
        COMMANDS.iter().map(|command| {
            let positionals = ["compress", "sunflow"][..command.max_positionals()].join(" ");
            let given =
                |&(name, value, _): &Opt| value.map_or(name.into(), |_| format!("{name} 1"));
            let options = command.options.iter().map(given).collect();
            (command, positionals, options)
        })
    }

    #[test]
    fn every_option_parses_before_and_after_the_positional() {
        for (command, positionals, options) in examples() {
            let name = command.name;
            for (&(opt, value, _), option) in command.options.iter().zip(&options) {
                for line in [
                    format!("{name} {positionals} {option}"),
                    format!("{name} {option} {positionals}"),
                ] {
                    let args = parse(&line).expect("a declared option");
                    assert_eq!(args.positionals.join(" "), positionals, "{line}");
                    assert!(args.has(opt), "{line}");
                    assert_eq!(args.value(opt), value.map(|_| "1"), "{line}");
                }
            }
            // Every option at once, around the positionals.
            let mut words = options.clone();
            words.insert(options.len() / 2, positionals.clone());
            let line = format!("{name} {}", words.join(" "));
            let args = parse(&line).expect("every declared option, once");
            assert_eq!(args.options.len(), options.len(), "{line}");
            assert_eq!(args.positionals.join(" "), positionals, "{line}");
        }
    }

    #[test]
    fn usage_names_each_option_once_under_its_command() {
        let text = usage();
        assert!(!text.contains('{'), "a placeholder is left in:\n{text}");
        for command in COMMANDS {
            let header = format!("{} {}", command.name, command.synopsis);
            let mut block = text.lines().skip_while(|l| !l.starts_with(&header));
            assert!(block.next().is_some(), "{header} is not in:\n{text}");
            let named: Vec<&str> = block
                .take_while(|l| l.starts_with(' '))
                .filter_map(|l| l.strip_prefix("    "))
                .filter(|l| l.starts_with("--"))
                .collect();
            assert_eq!(named.len(), command.options.len(), "{header}:\n{text}");
            for (line, (name, value, _)) in named.iter().zip(command.options) {
                let head = format!("{name} {}", value.unwrap_or_default());
                assert!(line.starts_with(&head), "{line}");
            }
        }
    }

    #[test]
    fn every_subcommand_rejects_an_unknown_option() {
        for (command, _, options) in examples() {
            let name = command.name;
            let unknown = format!(r#"unknown option "--encodr" for {name}"#);
            rejects(&[(&format!("{name} compress --encodr pcc"), &unknown)]);
            for (option, (opt, ..)) in options.iter().zip(command.options) {
                let twice = format!("{name} compress {option} {option}");
                rejects(&[(&twice, &format!("repeated option {opt} for {name}"))]);
            }
        }
    }

    #[test]
    fn every_subcommand_rejects_a_missing_value_and_a_surplus_positional() {
        for (command, positionals, _) in examples() {
            let name = command.name;
            for (opt, ..) in command.options.iter().filter(|o| o.1.is_some()) {
                let missing = format!("missing value for {opt}");
                rejects(&[
                    (&format!("{name} {opt}"), &missing),
                    (&format!("{name} {opt} --encodr"), &missing),
                ]);
            }
            let unexpected = format!(r#"unexpected argument "extra" for {name}"#);
            rejects(&[(&format!("{name} {positionals} extra"), &unexpected)]);
        }
        let sunflow = r#"unexpected argument "sunflow" for inspect"#;
        rejects(&[
            ("inspect x --scope --width 32", "missing value for --scope"),
            ("inspect compress sunflow", sunflow),
            // An option error is reported before a surplus positional.
            (
                "lint compress --json 1 --json 2",
                "repeated option --json for lint",
            ),
        ]);
        // `--all` and `--from` take the benchmark's place.
        let all = parse("lint --all compress").unwrap().benchmarks().err();
        let unexpected = r#"unexpected argument "compress" for lint --all"#;
        assert_eq!(all.as_deref(), Some(unexpected));
        let from = cmd_report(&parse("report --from saved.json compress").unwrap()).err();
        let unexpected = r#"unexpected argument "compress" for report --from"#;
        assert_eq!(from.as_deref(), Some(unexpected));
    }

    #[test]
    fn options_a_mode_ignores_are_rejected() {
        type Handler = fn(&Args) -> Result<(), String>;
        let cases: [(Handler, &str, &str); 7] = [
            (
                cmd_report,
                "report --from saved.json --encoder pcc",
                "unused option --encoder for report --from",
            ),
            (
                cmd_flamegraph,
                "flamegraph --check compress --out f --encoder pcc --scope all",
                "unused option --encoder for flamegraph --check",
            ),
            (
                cmd_flamegraph,
                "flamegraph --check --all --out f",
                "unused option --out for flamegraph --check",
            ),
            (
                cmd_flamegraph,
                "flamegraph --spans --scope all compress",
                "unused option --scope for flamegraph --spans",
            ),
            (
                cmd_import,
                "import g.graph --render --dot",
                "unused option --dot for import --render",
            ),
            (
                cmd_import,
                "import g.graph --dot --budget 32",
                "unused option --budget for import --dot",
            ),
            (
                cmd_import,
                "import g.graph --workers 2",
                "unused option --workers for import without --lint",
            ),
        ];
        // Each fails before it reads a file or runs anything.
        for (handler, line, error) in cases {
            let args = parse(line).expect("declared options");
            assert_eq!(handler(&args).err().as_deref(), Some(error), "{line}");
        }
    }

    #[test]
    fn repeated_options_are_rejected() {
        let run = "run compress --encoder pcc --encoder batched";
        let inspect = "inspect compress --width 8 --scope all --width 64";
        rejects(&[
            (run, "repeated option --encoder for run"),
            (inspect, "repeated option --width for inspect"),
            // A repeated flag that takes no value is rejected too.
            (
                "lint compress --json --json",
                "repeated option --json for lint",
            ),
        ]);
        // Distinct options, each given once, pass.
        assert!(parse("inspect compress --width 8 --scope all").is_ok());
    }

    #[test]
    fn lint_and_import_reject_a_mistyped_option() {
        let lint = "lint compress --deny-warnigns --bogus-flag";
        let import = "import g.graph --lint --budgte 32";
        rejects(&[
            (lint, r#"unknown option "--deny-warnigns" for lint"#),
            (import, r#"unknown option "--budgte" for import"#),
        ]);
    }

    #[test]
    fn lint_and_import_reject_the_baseline_option() {
        let lint = "lint compress --baseline old.plan";
        let import = "import g.graph --lint --baseline old.plan";
        rejects(&[
            (lint, r#"unknown option "--baseline" for lint"#),
            (import, r#"unknown option "--baseline" for import"#),
        ]);
    }

    #[test]
    fn scope_parsing() {
        let scope = |line| scope_of(&parse(line).unwrap());
        assert_eq!(scope("inspect x"), Ok(ScopeFilter::ApplicationOnly));
        let app = scope("inspect x --scope app");
        assert_eq!(app, Ok(ScopeFilter::ApplicationOnly));
        assert_eq!(scope("inspect x --scope all"), Ok(ScopeFilter::All));
        assert!(scope("inspect x --scope bogus").is_err());
    }

    #[test]
    fn width_parsing() {
        let width = |line| width_of(&parse(line).unwrap());
        assert_eq!(width("inspect x"), Ok(EncodingWidth::U64));
        assert_eq!(width("inspect x --width 32"), Ok(EncodingWidth::U32));
        // Out-of-range or garbage widths are errors, not panics.
        assert!(width("inspect x --width 0").is_err());
        assert!(width("inspect x --width 200").is_err());
        assert!(width("inspect x --width wide").is_err());
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
        let default = Encoder::of(&parse("run x").unwrap()).unwrap();
        assert_eq!(default.name, "deltapath", "default encoder");
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
        assert!(parse("run not-a-benchmark").unwrap().benchmark().is_err());
        assert!(parse("run").unwrap().benchmark().is_err());
    }
}
