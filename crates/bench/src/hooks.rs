//! Hook-stream harvest and replay: the shared harness behind the
//! `encoder_hotpath` and `telemetry_overhead` benchmark binaries.
//!
//! A workload is executed once under a recording encoder that harvests
//! the exact instrumentation hook stream (call / return / entry / exit /
//! observe, with call-site and method operands). Replaying that stream —
//! LIFO token stacks standing in for the interpreter's native stack —
//! isolates pure hook dispatch cost: the interpreter, the collector and
//! event materialization are all off the clock.

use std::hint::black_box;
use std::time::Instant;

use deltapath_ir::{MethodId, Program, SiteId};
use deltapath_runtime::{
    Capture, CollectMode, ContextEncoder, NullCollector, OpCounts, Vm, VmConfig, VmError,
};

/// One harvested instrumentation hook, replayed verbatim.
#[derive(Clone, Copy, Debug)]
pub enum Hook {
    /// `on_call` at a site.
    Call(SiteId),
    /// `on_return` matching the innermost open call.
    Return,
    /// `on_entry` of a method, possibly via a dispatching site.
    Entry(MethodId, Option<SiteId>),
    /// `on_exit` of a method.
    Exit(MethodId),
    /// An `observe` event at a method.
    Observe(MethodId),
}

/// Records the hook stream of one run; the VM drives it like any encoder.
#[derive(Default)]
pub struct HookTrace {
    /// The harvested stream, in execution order.
    pub hooks: Vec<Hook>,
}

impl ContextEncoder for HookTrace {
    type CallToken = ();
    type EntryToken = ();

    fn thread_start(&mut self, _entry: MethodId) {}

    fn on_call(&mut self, site: SiteId) {
        self.hooks.push(Hook::Call(site));
    }

    fn on_return(&mut self, _site: SiteId, _token: ()) {
        self.hooks.push(Hook::Return);
    }

    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) {
        self.hooks.push(Hook::Entry(method, via_site));
    }

    fn on_exit(&mut self, method: MethodId, _token: ()) {
        self.hooks.push(Hook::Exit(method));
    }

    fn observe(&mut self, at: MethodId) -> Capture {
        self.hooks.push(Hook::Observe(at));
        Capture::None
    }

    fn counts(&self) -> OpCounts {
        OpCounts::default()
    }

    fn name(&self) -> &'static str {
        "hook-trace"
    }
}

/// Harvests `program`'s hook stream by running it once (the VM is
/// deterministic, so one harvest serves every replay).
///
/// # Errors
///
/// [`VmError`] if the harvest run itself fails.
pub fn harvest(program: &Program) -> Result<Vec<Hook>, VmError> {
    let mut trace = HookTrace::default();
    let mut vm = Vm::new(
        program,
        VmConfig::default().with_collect(CollectMode::ObservesOnly),
    );
    vm.run(&mut trace, &mut NullCollector)?;
    Ok(trace.hooks)
}

/// Replays the stream into `encoder`, pushing every capture into `out`.
/// Call and entry tokens are kept on LIFO stacks, exactly as the
/// interpreter's native stack would carry them. Truncated streams are
/// fine: `thread_start` resets the encoder, and a prefix of a valid trace
/// never pops an un-pushed token.
pub fn replay<E: ContextEncoder>(
    entry: MethodId,
    hooks: &[Hook],
    encoder: &mut E,
    out: &mut Vec<Capture>,
) {
    encoder.thread_start(entry);
    let mut calls: Vec<(SiteId, E::CallToken)> = Vec::with_capacity(256);
    let mut entries: Vec<(MethodId, E::EntryToken)> = Vec::with_capacity(256);
    for &hook in hooks {
        match hook {
            Hook::Call(site) => calls.push((site, encoder.on_call(site))),
            Hook::Return => {
                let (site, token) = calls.pop().expect("balanced trace prefix");
                encoder.on_return(site, token);
            }
            Hook::Entry(method, via) => entries.push((method, encoder.on_entry(method, via))),
            Hook::Exit(method) => {
                let (entered, token) = entries.pop().expect("balanced trace prefix");
                debug_assert_eq!(entered, method);
                encoder.on_exit(method, token);
            }
            Hook::Observe(at) => out.push(encoder.observe(at)),
        }
    }
}

/// Hook throughput (hooks/sec) of `repeat` replays, best of `passes`
/// timed passes, plus the best pass's elapsed nanoseconds. Each pass gets
/// a fresh encoder and one untimed warm-up replay, so the clock measures
/// steady-state hook dispatch.
pub fn measure<E: ContextEncoder>(
    entry: MethodId,
    hooks: &[Hook],
    repeat: usize,
    passes: usize,
    mut make: impl FnMut() -> E,
) -> (f64, u64) {
    let mut best_ns = u64::MAX;
    let mut out = Vec::new();
    for _ in 0..passes {
        let mut encoder = make();
        out.clear();
        replay(entry, hooks, &mut encoder, &mut out);
        let start = Instant::now();
        for _ in 0..repeat {
            out.clear();
            replay(entry, hooks, &mut encoder, &mut out);
            black_box(&out);
        }
        best_ns = best_ns.min(start.elapsed().as_nanos() as u64);
    }
    let replayed = (hooks.len() * repeat) as u64;
    (replayed as f64 * 1e9 / best_ns as f64, best_ns)
}

/// Deepest `Entry` nesting in the stream (the replayed call depth).
pub fn max_entry_depth(hooks: &[Hook]) -> usize {
    let (mut depth, mut max) = (0usize, 0usize);
    for hook in hooks {
        match hook {
            Hook::Entry(..) => {
                depth += 1;
                max = max.max(depth);
            }
            Hook::Exit(_) => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    max
}
