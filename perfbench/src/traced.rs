//! The traced run: per-layer attribution, separate from the end-to-end
//! runs.
//!
//! Each round runs the pipeline once untraced and once with a
//! `SpanProfiler` handed to `analyze_with`, `audit_plan_with` and the VM
//! (`VmConfig::with_telemetry`), plus the benchmark's own spans around
//! every public call. Time inside `Vm::run` is split two ways:
//!
//! * thin wrappers time the public `ContextEncoder::observe` and
//!   `Collector::record_*` calls of an instrumented run; `capture.s` and
//!   `collect.s` are their summed intervals, which include the clock's own
//!   cost, calibrated and reported as `trace.wrapper_s`;
//! * differential runs of the same program compare native, the encoder
//!   with collection off, with the workload's captures, and with its
//!   collector.

use std::hint::black_box;
use std::mem::size_of;
use std::sync::Arc;
use std::time::Instant;

use deltapath_core::{EncodedContext, EncodingPlan, Frame};
use deltapath_ir::{MethodId, Program, SiteId};
use deltapath_runtime::{
    BatchedDeltaEncoder, Capture, CollectMode, Collector, ContextEncoder, ContextProfile,
    CostModel, DeltaEncoder, EventLog, NullCollector, OpCounts,
};
use deltapath_telemetry::{NullTelemetry, SpanProfiler, SpanSnapshot, Telemetry};

use crate::pipeline::{native_run, run_pass, timed_run, Pass};
use crate::workload::{CollectorKind, Workload};

/// Times every `observe` of the wrapped encoder.
struct TimedEncoder<E> {
    inner: E,
    ns: u64,
    captures: u64,
    frames: u64,
    bytes: u64,
}

impl<E> TimedEncoder<E> {
    fn new(inner: E) -> Self {
        Self {
            inner,
            ns: 0,
            captures: 0,
            frames: 0,
            bytes: 0,
        }
    }
}

impl<E: ContextEncoder> ContextEncoder for TimedEncoder<E> {
    type CallToken = E::CallToken;
    type EntryToken = E::EntryToken;

    fn thread_start(&mut self, entry: MethodId) {
        self.inner.thread_start(entry);
    }

    #[inline]
    fn on_call(&mut self, site: SiteId) -> E::CallToken {
        self.inner.on_call(site)
    }

    #[inline]
    fn on_return(&mut self, site: SiteId, token: E::CallToken) {
        self.inner.on_return(site, token);
    }

    #[inline]
    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) -> E::EntryToken {
        self.inner.on_entry(method, via_site)
    }

    #[inline]
    fn on_exit(&mut self, method: MethodId, token: E::EntryToken) {
        self.inner.on_exit(method, token);
    }

    fn observe(&mut self, at: MethodId) -> Capture {
        let t = Instant::now();
        let capture = self.inner.observe(at);
        self.ns += nanos_since(t);
        self.captures += 1;
        if let Capture::Delta(ctx) = &capture {
            self.frames += ctx.frames.len() as u64;
            self.bytes +=
                (size_of::<EncodedContext>() + ctx.frames.len() * size_of::<Frame>()) as u64;
        }
        capture
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times every `record_*` of the wrapped collector.
struct TimedCollector<C> {
    inner: C,
    ns: u64,
    records: u64,
}

impl<C: Collector> Collector for TimedCollector<C> {
    fn record_entry(&mut self, method: MethodId, true_depth: usize, capture: Capture) {
        let t = Instant::now();
        self.inner.record_entry(method, true_depth, capture);
        self.ns += nanos_since(t);
        self.records += 1;
    }

    fn record_observe(&mut self, event: u32, method: MethodId, capture: Capture) {
        let t = Instant::now();
        self.inner.record_observe(event, method, capture);
        self.ns += nanos_since(t);
        self.records += 1;
    }
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The cost of one `Instant::now()` + `elapsed()` pair, in nanoseconds.
fn timer_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Wall time and wrapper readings of one wrapped instrumented run.
struct Wrapped {
    total_s: f64,
    capture_ns: u64,
    captures: u64,
    frames: u64,
    bytes: u64,
    collect_ns: u64,
    records: u64,
    counts: OpCounts,
}

fn wrapped_run<E: ContextEncoder, C: Collector>(
    program: &Program,
    collect: CollectMode,
    encoder: E,
    collector: C,
) -> Result<(Wrapped, E), String> {
    let mut encoder = TimedEncoder::new(encoder);
    let mut collector = TimedCollector {
        inner: collector,
        ns: 0,
        records: 0,
    };
    let (total_s, _) = timed_run(program, collect, &mut encoder, &mut collector)?;
    let wrapped = Wrapped {
        total_s,
        capture_ns: encoder.ns,
        captures: encoder.captures,
        frames: encoder.frames,
        bytes: encoder.bytes,
        collect_ns: collector.ns,
        records: collector.records,
        counts: encoder.inner.counts(),
    };
    Ok((wrapped, encoder.inner))
}

/// The batched encoder wrapped, feeding the workload's own collector.
fn wrapped_batched(
    workload: &Workload,
    program: &Program,
    plan: &EncodingPlan,
) -> Result<Wrapped, String> {
    let compiled = plan.compile();
    let encoder = BatchedDeltaEncoder::new(&compiled);
    let collect = workload.collect;
    let wrapped = match workload.collector {
        CollectorKind::Profile => wrapped_run(program, collect, encoder, ContextProfile::new()),
        CollectorKind::EventLog => wrapped_run(program, collect, encoder, EventLog::default()),
        CollectorKind::Null => wrapped_run(program, collect, encoder, NullCollector),
    }?;
    Ok(wrapped.0)
}

/// Seconds of a batched run with `NullCollector` in `collect` mode.
fn batched_null_run(
    program: &Program,
    plan: &EncodingPlan,
    collect: CollectMode,
) -> Result<f64, String> {
    let compiled = plan.compile();
    let mut encoder = BatchedDeltaEncoder::new(&compiled);
    Ok(timed_run(program, collect, &mut encoder, &mut NullCollector)?.0)
}

/// Per-round samples of the traced run.
#[derive(Default)]
pub struct Rounds {
    pub untraced: Vec<Pass>,
    pub traced: Vec<Pass>,
    pub native_s: Vec<f64>,
    pub hooks_s: Vec<f64>,
    pub capture_s: Vec<f64>,
    pub collect_s: Vec<f64>,
    pub map_hooks_s: Vec<f64>,
    pub wrapper_s: Vec<f64>,
    pub diff_hooks_s: Vec<f64>,
    pub diff_capture_s: Vec<f64>,
    pub diff_collect_s: Vec<f64>,
    pub captures: u64,
    pub capture_frames: u64,
    pub capture_bytes: u64,
    pub batched_metered: u64,
    pub map_metered: u64,
    pub map_ucp_detections: u64,
}

/// Runs traced rounds until `seconds` have passed (at least one round)
/// and returns every sample plus the profiler's snapshot.
pub fn traced(
    workload: &Workload,
    program: &Program,
    plan: &EncodingPlan,
    seconds: f64,
) -> Result<(Rounds, SpanSnapshot), String> {
    let profiler = Arc::new(SpanProfiler::new());
    let pair_ns = timer_pair_ns();
    let model = CostModel::default();
    let mut r = Rounds::default();
    let start = Instant::now();
    while r.untraced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Only the newest traced pass keeps its outputs, for the oracle.
        r.traced.iter_mut().for_each(Pass::strip);
        let mut untraced = run_pass(workload, program, &NullTelemetry, None)?;
        untraced.strip();
        let vm_sink: Arc<dyn Telemetry> = profiler.clone();
        let traced = run_pass(workload, program, profiler.as_ref(), Some(vm_sink))?;
        let (native_s, _) = native_run(program)?;

        let w = wrapped_batched(workload, program, plan)?;
        let (capture_s, collect_s) = (w.capture_ns as f64 / 1e9, w.collect_ns as f64 / 1e9);
        r.hooks_s
            .push((w.total_s - capture_s - collect_s - native_s).max(0.0));
        r.capture_s.push(capture_s);
        r.collect_s.push(collect_s);
        r.wrapper_s
            .push((w.captures + w.records) as f64 * pair_ns / 1e9);
        (r.captures, r.capture_frames, r.capture_bytes) = (w.captures, w.frames, w.bytes);
        r.batched_metered = w.counts.cost(&model);

        let (m, map) = wrapped_run(
            program,
            workload.collect,
            DeltaEncoder::new(plan),
            NullCollector,
        )?;
        r.map_hooks_s
            .push((m.total_s - m.capture_ns as f64 / 1e9 - native_s).max(0.0));
        r.map_metered = m.counts.cost(&model);
        r.map_ucp_detections = map.ucp_detections();

        let off = batched_null_run(program, plan, CollectMode::Nothing)?;
        let captures = batched_null_run(program, plan, workload.collect)?;
        r.diff_hooks_s.push(off - native_s);
        r.diff_capture_s.push(captures - off);
        r.diff_collect_s.push(untraced.run_s - captures);

        r.native_s.push(native_s);
        r.untraced.push(untraced);
        r.traced.push(traced);
    }
    Ok((r, profiler.snapshot()))
}
