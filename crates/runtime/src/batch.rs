//! The batched DeltaPath encoder.
//!
//! [`BatchedDeltaEncoder`] is operationally identical to
//! [`CompiledDeltaEncoder`](crate::CompiledDeltaEncoder) — same captures,
//! same op counts, same UCP detections, pinned by the `batched_encoder`
//! differential suite — but instead of resolving and applying each hook as
//! it arrives, it packs hooks into [`HookWord`]s in a buffer and pushes
//! whole *slices* through the branchless batch kernel
//! ([`CompiledPlan::apply_batch`]) when the buffer fills. The per-hook
//! cost on the buffering side is one packed store; the kernel side applies
//! the fused action words with mask arithmetic in a tight loop.
//!
//! Flush points keep the observable state exact where it matters:
//!
//! * `observe` flushes before snapshotting, so every capture reflects all
//!   preceding hooks;
//! * a return that closes the outermost open call flushes, so the state
//!   (and the op counts) are exact at every top-level statement boundary —
//!   in particular at the end of a VM run, where telemetry is reported;
//! * `thread_start` flushes the previous thread's tail before resetting.
//!
//! Replay harnesses that truncate hook streams mid-call should call
//! [`BatchedDeltaEncoder::flush`] before reading counts or state.

use std::sync::Arc;

use deltapath_core::{BatchState, CompiledPlan, EncodedContext, HookWord};
use deltapath_ir::{MethodId, SiteId};
use deltapath_telemetry::{names, Log2Histogram, Recorder, Telemetry};

use crate::encoder::{report_op_counts, Capture, ContextEncoder, OpCounts};

/// Default buffer capacity in hook words. Large enough that the kernel's
/// per-batch setup amortizes away, small enough that a batch stays in L1
/// (the `encoder_hotpath` sweep measures 64/256/1024).
pub const DEFAULT_BATCH_CAPACITY: usize = 256;

/// DeltaPath over buffered hook words and the batch kernel (see the
/// module docs).
#[derive(Debug)]
pub struct BatchedDeltaEncoder<'p> {
    compiled: &'p CompiledPlan,
    state: BatchState,
    buf: Vec<HookWord>,
    capacity: usize,
    /// Captures produced by observe words during a flush; drained by
    /// `observe` immediately, so the vec never holds more than one.
    captures: Vec<EncodedContext>,
    /// Open (un-returned) `on_call` hooks; a return closing the outermost
    /// call flushes the buffer.
    call_depth: usize,
    flushes: u64,
    hooks: u64,
    batch_len_hist: Option<Arc<Log2Histogram>>,
}

impl<'p> BatchedDeltaEncoder<'p> {
    /// Creates an encoder over `compiled` with the default buffer
    /// capacity.
    pub fn new(compiled: &'p CompiledPlan) -> Self {
        Self {
            compiled,
            state: BatchState::start(compiled.entry_method()),
            buf: Vec::with_capacity(DEFAULT_BATCH_CAPACITY),
            capacity: DEFAULT_BATCH_CAPACITY,
            captures: Vec::new(),
            call_depth: 0,
            flushes: 0,
            hooks: 0,
            batch_len_hist: None,
        }
    }

    /// Sets the buffer capacity in hook words (clamped to ≥ 1; 1 degrades
    /// to hook-at-a-time kernel calls — still exact, pinned by the
    /// chunking property test).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self.buf
            .reserve(self.capacity.saturating_sub(self.buf.capacity()));
        self
    }

    /// Pre-resolves the `encoder.batched.batch_len` histogram from
    /// `recorder` and stamps the capacity gauge, so every flush records
    /// its batch length (one histogram record per *flush*, not per hook —
    /// off the hot path by construction).
    pub fn with_batch_telemetry(mut self, recorder: &Recorder) -> Self {
        recorder
            .gauge(names::ENCODER_BATCHED_CAPACITY)
            .observe(self.capacity as u64);
        self.batch_len_hist = Some(recorder.histogram(names::ENCODER_BATCHED_BATCH_LEN));
        self
    }

    /// The configured buffer capacity in hook words.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes the buffered hook words through the batch kernel. A no-op on
    /// an empty buffer.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.flushes += 1;
        self.hooks += self.buf.len() as u64;
        if let Some(hist) = &self.batch_len_hist {
            hist.record(self.buf.len() as u64);
        }
        self.compiled
            .apply_batch(&mut self.state, &self.buf, &mut self.captures);
        self.buf.clear();
    }

    #[inline(always)]
    fn push(&mut self, word: HookWord) {
        self.buf.push(word);
        if self.buf.len() >= self.capacity {
            self.flush();
        }
    }

    /// The underlying tables.
    pub fn compiled(&self) -> &'p CompiledPlan {
        self.compiled
    }

    /// The current batch-engine state (exact after a
    /// [`flush`](Self::flush)).
    pub fn state(&self) -> &BatchState {
        &self.state
    }

    /// The deepest the encoding stack has grown (lifetime high-water mark,
    /// not reset by [`thread_start`](ContextEncoder::thread_start)).
    pub fn stack_high_water(&self) -> usize {
        self.state.counts().stack_hwm as usize
    }

    /// Number of hazardous unexpected call paths detected.
    pub fn ucp_detections(&self) -> u64 {
        self.state.counts().ucp_detections
    }

    /// Buffer flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

impl ContextEncoder for BatchedDeltaEncoder<'_> {
    type CallToken = ();
    type EntryToken = ();

    fn thread_start(&mut self, entry: MethodId) {
        self.flush();
        self.state.restart(entry);
        self.call_depth = 0;
    }

    #[inline]
    fn on_call(&mut self, site: SiteId) {
        self.call_depth += 1;
        self.push(HookWord::call(site));
    }

    #[inline]
    fn on_return(&mut self, _site: SiteId, _token: ()) {
        self.push(HookWord::ret());
        self.call_depth = self.call_depth.saturating_sub(1);
        if self.call_depth == 0 {
            self.flush();
        }
    }

    #[inline]
    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) {
        self.push(HookWord::entry(method, via_site));
    }

    #[inline]
    fn on_exit(&mut self, method: MethodId, _token: ()) {
        self.push(HookWord::exit(method));
    }

    fn observe(&mut self, at: MethodId) -> Capture {
        self.push(HookWord::observe(at));
        self.flush();
        let ctx = self
            .captures
            .pop()
            .expect("the observe word just flushed produces a capture");
        debug_assert!(self.captures.is_empty(), "at most one buffered observe");
        Capture::Delta(ctx)
    }

    fn counts(&self) -> OpCounts {
        let c = self.state.counts();
        OpCounts {
            adds: c.adds,
            subs: c.subs,
            pending_saves: c.pending_saves,
            sid_checks: c.sid_checks,
            pushes: c.pushes,
            pops: c.pops,
            ..OpCounts::default()
        }
    }

    fn name(&self) -> &'static str {
        if self.compiled.cpt() {
            "batched"
        } else {
            "batched-nocpt"
        }
    }

    fn report_telemetry(&self, sink: &dyn Telemetry) {
        let name = self.name();
        let c = self.state.counts();
        report_op_counts(sink, name, &self.counts());
        sink.gauge_max(&format!("encoder.{name}.stack_hwm"), c.stack_hwm);
        sink.counter_add(&format!("encoder.{name}.ucp_detections"), c.ucp_detections);
        sink.counter_add(
            &format!("encoder.{name}.push_pop_imbalance"),
            c.pushes.saturating_sub(c.pops),
        );
        sink.gauge_max(
            &format!("encoder.{name}.table_bytes"),
            self.compiled.table_bytes() as u64,
        );
        sink.counter_add(names::ENCODER_BATCHED_FLUSHES, self.flushes);
        sink.counter_add(names::ENCODER_BATCHED_HOOKS, self.hooks);
        sink.gauge_max(names::ENCODER_BATCHED_CAPACITY, self.capacity as u64);
        sink.counter_add(names::ENCODER_BATCHED_SNAPSHOTS_SHARED, c.snapshots_shared);
        sink.counter_add(names::ENCODER_BATCHED_SNAPSHOTS_BUILT, c.snapshots_built);
        sink.gauge_max(
            names::ENCODER_BACKEDGE_PAIRS,
            self.compiled.back_edge_pair_count() as u64,
        );
        sink.gauge_max(
            names::ENCODER_BACKEDGE_SITES,
            self.compiled.back_edge_site_count() as u64,
        );
        sink.counter_add(names::ENCODER_BACKEDGE_PROBES, c.backedge_probes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledDeltaEncoder;
    use deltapath_core::{EncodingPlan, PlanConfig};
    use deltapath_ir::{MethodKind, Program, ProgramBuilder};

    fn program() -> Program {
        let mut b = ProgramBuilder::new("batched-enc");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "leaf");
                f.call(c, "leaf");
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn mirrors_compiled_encoder_hook_for_hook() {
        let p = program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let mut scalar = CompiledDeltaEncoder::new(&compiled);
        let mut batched = BatchedDeltaEncoder::new(&compiled).with_capacity(3);
        let main = p.entry();
        let leaf = p
            .declared_method(
                p.class_by_name("C").unwrap(),
                p.symbols().lookup("leaf").unwrap(),
            )
            .unwrap();
        let site = p.sites().iter().find(|s| s.caller() == main).unwrap().id();
        scalar.thread_start(main);
        batched.thread_start(main);
        for _ in 0..5 {
            let ts = scalar.on_call(site);
            batched.on_call(site);
            let es = scalar.on_entry(leaf, Some(site));
            batched.on_entry(leaf, Some(site));
            assert_eq!(scalar.observe(leaf), batched.observe(leaf));
            scalar.on_exit(leaf, es);
            batched.on_exit(leaf, ());
            scalar.on_return(site, ts);
            batched.on_return(site, ());
        }
        batched.flush();
        assert_eq!(scalar.counts(), batched.counts());
        assert_eq!(scalar.state().id(), batched.state().id());
        assert_eq!(scalar.ucp_detections(), batched.ucp_detections());
        assert!(batched.flushes() > 0);
    }

    #[test]
    fn names_reflect_cpt_mode() {
        let p = program();
        let on = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let off = EncodingPlan::analyze(&p, &PlanConfig::default().with_cpt(false)).unwrap();
        let (con, coff) = (on.compile(), off.compile());
        assert_eq!(BatchedDeltaEncoder::new(&con).name(), "batched");
        assert_eq!(BatchedDeltaEncoder::new(&coff).name(), "batched-nocpt");
    }

    #[test]
    fn telemetry_reports_fixed_batch_names() {
        let p = program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let recorder = Recorder::new();
        let mut e = BatchedDeltaEncoder::new(&compiled)
            .with_capacity(4)
            .with_batch_telemetry(&recorder);
        e.thread_start(p.entry());
        let main = p.entry();
        let site = p.sites().iter().find(|s| s.caller() == main).unwrap().id();
        let leaf = p
            .declared_method(
                p.class_by_name("C").unwrap(),
                p.symbols().lookup("leaf").unwrap(),
            )
            .unwrap();
        for _ in 0..4 {
            e.on_call(site);
            e.on_entry(leaf, Some(site));
            e.observe(leaf);
            e.on_exit(leaf, ());
            e.on_return(site, ());
        }
        e.flush();
        e.report_telemetry(&recorder);
        let report = recorder.report("t");
        assert_eq!(report.counter(names::ENCODER_BATCHED_HOOKS), Some(20));
        // No entry pushes a frame, so every observe after the first
        // shares its stack.
        assert_eq!(
            report.counter(names::ENCODER_BATCHED_SNAPSHOTS_BUILT),
            Some(1)
        );
        assert_eq!(
            report.counter(names::ENCODER_BATCHED_SNAPSHOTS_SHARED),
            Some(3)
        );
        assert!(report.counter(names::ENCODER_BATCHED_FLUSHES).unwrap() > 0);
        assert!(recorder.histogram(names::ENCODER_BATCHED_BATCH_LEN).count() > 0);
        assert_eq!(
            recorder.gauge(names::ENCODER_BATCHED_CAPACITY).get(),
            4,
            "capacity stamped as gauge"
        );
        for (name, _) in &report.counters {
            assert!(
                deltapath_telemetry::names::is_registered(name),
                "unregistered metric {name}"
            );
        }
    }
}
