//! One pass of the DeltaPath pipeline over a program, through public APIs
//! only: plan → compile → audit → instrumented run → decode → report.
//!
//! The same code serves the untimed warm-up, the timed end-to-end
//! iterations and the traced run: against `NullTelemetry` every span below
//! is a branch on `None` and `analyze_with`/`audit_plan_with` are exactly
//! `analyze`/`audit_plan`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use deltapath_analysis::audit_plan_with;
use deltapath_core::{CompiledPlan, EncodingPlan};
use deltapath_ir::{MethodId, Program};
use deltapath_runtime::{
    fold_path, BatchedDeltaEncoder, Capture, CollectMode, Collector, ContextEncoder,
    ContextProfile, EventLog, NullCollector, NullEncoder, OpCounts, RunStats, Vm, VmConfig,
};
use deltapath_telemetry::{FoldedStacks, ScopedSpan, Telemetry};

use crate::workload::{CollectorKind, Workload};

/// Span names the benchmark opens around each public call.
pub mod span {
    pub const ANALYZE: &str = "bench.analyze";
    pub const COMPILE: &str = "bench.compile";
    pub const AUDIT: &str = "bench.audit";
    pub const RUN: &str = "bench.run";
    pub const DECODE: &str = "bench.decode";
    pub const REPORT: &str = "bench.report";
}

/// What decoding one logged event produced.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EventOutcome {
    /// Captured in a method the plan does not encode (a dynamically
    /// loaded class); not decoded.
    Outside,
    Decoded(Vec<MethodId>),
    Failed,
}

/// The decoded output of one pass.
#[derive(Clone, Debug)]
pub enum Decoded {
    /// Event log: one outcome per event, in log order.
    Events(Vec<EventOutcome>),
    /// Profile: the context flamegraph and the entries it could not fold.
    Profile { stacks: FoldedStacks, skipped: u64 },
    /// Collection off: nothing to decode.
    Nothing,
}

/// Timings, counts and outputs of one pass.
#[derive(Debug)]
pub struct Pass {
    pub analyze_s: f64,
    pub compile_s: f64,
    pub audit_s: f64,
    pub run_s: f64,
    pub decode_s: f64,
    pub report_s: f64,
    pub anchors: usize,
    pub restarts: usize,
    pub sites: usize,
    pub table_bytes: usize,
    pub diagnostics: usize,
    pub audit_clean: bool,
    pub stats: RunStats,
    pub counts: OpCounts,
    pub ucp_detections: u64,
    pub flushes: u64,
    pub records: u64,
    pub distinct: u64,
    pub decoded: Decoded,
    /// Contexts handed to the decoder.
    pub contexts: u64,
    pub decode_errors: u64,
    pub piece_hits: u64,
    pub piece_misses: u64,
    pub report: String,
    /// Digest of the run statistics, the report and the decoded events,
    /// for the determinism check across passes.
    pub digest: u64,
}

impl Pass {
    /// Plan analysis plus compile: everything before the program starts.
    pub fn setup_s(&self) -> f64 {
        self.analyze_s + self.compile_s
    }

    /// From program in hand to finished report (the audit is a separate
    /// metric and is not on this path).
    pub fn pipeline_s(&self) -> f64 {
        self.setup_s() + self.run_s + self.decode_s + self.report_s
    }

    /// Drops the decoded outputs once they are checked, so only the pass
    /// being measured holds memory.
    pub fn strip(&mut self) {
        self.decoded = Decoded::Nothing;
        self.report = String::new();
    }
}

fn output_digest(stats: &RunStats, report: &str, decoded: &Decoded) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{stats:?}").hash(&mut h);
    report.hash(&mut h);
    if let Decoded::Events(events) = decoded {
        events.hash(&mut h);
    }
    h.finish()
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The set-up half of a pass: everything before the program starts.
pub struct Setup {
    pub plan: EncodingPlan,
    pub compiled: CompiledPlan,
    pub analyze_s: f64,
    pub compile_s: f64,
}

impl Setup {
    pub fn seconds(&self) -> f64 {
        self.analyze_s + self.compile_s
    }
}

/// `EncodingPlan::analyze` and `compile`, each timed inside its span.
/// Every set-up time the benchmark reports is taken here.
pub fn setup(
    workload: &Workload,
    program: &Program,
    sink: &dyn Telemetry,
) -> Result<Setup, String> {
    let t = Instant::now();
    let span = ScopedSpan::enter(sink, span::ANALYZE);
    let plan = EncodingPlan::analyze_with(program, &workload.plan_config(), sink)
        .map_err(|e| e.to_string())?;
    span.finish(&[]);
    let analyze_s = seconds_since(t);

    let t = Instant::now();
    let span = ScopedSpan::enter(sink, span::COMPILE);
    let compiled = plan.compile();
    span.finish(&[]);
    let compile_s = seconds_since(t);
    Ok(Setup {
        plan,
        compiled,
        analyze_s,
        compile_s,
    })
}

/// Runs the pipeline once. `sink` receives the benchmark's own spans and
/// the program's `plan.*`/`algo2.*`/`audit.*` spans; `vm_sink`, when set,
/// is handed to the VM for its `vm.run` span.
pub fn run_pass(
    workload: &Workload,
    program: &Program,
    sink: &dyn Telemetry,
    vm_sink: Option<Arc<dyn Telemetry>>,
) -> Result<Pass, String> {
    let Setup {
        plan,
        compiled,
        analyze_s,
        compile_s,
    } = setup(workload, program, sink)?;

    let t = Instant::now();
    let span = ScopedSpan::enter(sink, span::AUDIT);
    let audit = audit_plan_with(program, &plan, sink);
    span.finish(&[]);
    let audit_s = seconds_since(t);

    let mut vm_config = VmConfig::default().with_collect(workload.collect);
    if let Some(vm_sink) = vm_sink {
        vm_config = vm_config.with_telemetry(vm_sink);
    }
    let mut profile = ContextProfile::new();
    let mut log = EventLog::default();
    let t = Instant::now();
    let span = ScopedSpan::enter(sink, span::RUN);
    let mut vm = Vm::new(program, vm_config);
    let mut encoder = BatchedDeltaEncoder::new(&compiled);
    let stats = match workload.collector {
        CollectorKind::Profile => vm.run(&mut encoder, &mut profile),
        CollectorKind::EventLog => vm.run(&mut encoder, &mut log),
        CollectorKind::Null => vm.run(&mut encoder, &mut NullCollector),
    }
    .map_err(|e| format!("VmError: {e}"))?;
    span.finish(&[]);
    let run_s = seconds_since(t);
    let (records, distinct) = match workload.collector {
        CollectorKind::Profile => (profile.total(), profile.len() as u64),
        CollectorKind::EventLog => (log.events.len() as u64, log.events.len() as u64),
        CollectorKind::Null => (0, 0),
    };

    let decoder = plan.decoder();
    let t = Instant::now();
    let span = ScopedSpan::enter(sink, span::DECODE);
    let (decoded, contexts, decode_errors) = match workload.collector {
        CollectorKind::Profile => {
            let (stacks, skipped) = profile.folded(program, &decoder);
            let contexts = profile.len() as u64;
            (Decoded::Profile { stacks, skipped }, contexts, 0)
        }
        CollectorKind::EventLog => decode_events(&plan, &decoder, &log),
        CollectorKind::Null => (Decoded::Nothing, 0, 0),
    };
    span.finish(&[]);
    let decode_s = seconds_since(t);
    let (piece_hits, piece_misses) = decoder.cache_stats();

    let t = Instant::now();
    let span = ScopedSpan::enter(sink, span::REPORT);
    let report = match &decoded {
        Decoded::Profile { stacks, .. } => stacks.render(),
        Decoded::Events(events) => event_flamegraph(program, events).render(),
        Decoded::Nothing => String::new(),
    };
    span.finish(&[]);
    let report_s = seconds_since(t);

    let digest = output_digest(&stats, &report, &decoded);
    Ok(Pass {
        analyze_s,
        compile_s,
        audit_s,
        run_s,
        decode_s,
        report_s,
        anchors: plan.encoding().anchors.len(),
        restarts: plan.encoding().restarts,
        sites: plan.instrumented_site_count(),
        table_bytes: compiled.table_bytes(),
        diagnostics: audit.diagnostics.len(),
        audit_clean: audit.is_clean(),
        stats,
        counts: encoder.counts(),
        ucp_detections: encoder.ucp_detections(),
        flushes: encoder.flushes(),
        records,
        distinct,
        decoded,
        contexts,
        decode_errors,
        piece_hits,
        piece_misses,
        report,
        digest,
    })
}

/// Decodes every event captured in encoded code.
fn decode_events(
    plan: &EncodingPlan,
    decoder: &deltapath_core::Decoder<'_>,
    log: &EventLog,
) -> (Decoded, u64, u64) {
    let graph = plan.graph();
    let (mut contexts, mut errors) = (0u64, 0u64);
    let events = log
        .events
        .iter()
        .map(|(_, at, capture)| match capture {
            Capture::Delta(ctx) if graph.node_of(*at).is_some() => {
                contexts += 1;
                match decoder.decode(ctx) {
                    Ok(path) => EventOutcome::Decoded(path),
                    Err(_) => {
                        errors += 1;
                        EventOutcome::Failed
                    }
                }
            }
            _ => EventOutcome::Outside,
        })
        .collect();
    (Decoded::Events(events), contexts, errors)
}

/// Folds decoded events into flamegraph stacks weighted by event count.
fn event_flamegraph(program: &Program, events: &[EventOutcome]) -> FoldedStacks {
    let mut counts: HashMap<&[MethodId], u64> = HashMap::new();
    for event in events {
        if let EventOutcome::Decoded(path) = event {
            *counts.entry(path.as_slice()).or_insert(0) += 1;
        }
    }
    let mut stacks = FoldedStacks::new();
    for (path, count) in counts {
        stacks.add(&fold_path(program, path), count);
    }
    stacks
}

/// Wall time of the uninstrumented program: no encoder, no collection.
pub fn native_run(program: &Program) -> Result<(f64, RunStats), String> {
    timed_run(
        program,
        CollectMode::Nothing,
        &mut NullEncoder,
        &mut NullCollector,
    )
}

/// Wall time of one `Vm::run` (VM construction included).
pub fn timed_run<E: ContextEncoder, C: Collector>(
    program: &Program,
    collect: CollectMode,
    encoder: &mut E,
    collector: &mut C,
) -> Result<(f64, RunStats), String> {
    let t = Instant::now();
    let mut vm = Vm::new(program, VmConfig::default().with_collect(collect));
    let stats = vm
        .run(encoder, collector)
        .map_err(|e| format!("VmError: {e}"))?;
    Ok((seconds_since(t), stats))
}
