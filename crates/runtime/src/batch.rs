//! The batched DeltaPath encoder: the deployment hot path.
//!
//! [`BatchedDeltaEncoder`] drives the same [`DeltaState`] as the map-based
//! reference [`DeltaEncoder`](crate::DeltaEncoder), but finds every
//! instruction in a [`CompiledPlan`]'s dense tables instead of the plan's
//! hash maps: one array load per hook, no hashing. Each hook is applied
//! the moment it arrives and nothing is buffered, so
//! [`BatchedDeltaEncoder::state`] is exact after every hook. The two
//! encoders differ only in their instruction source, their names and the
//! telemetry they report; the `batched_encoder` suite replays every
//! harvested hook stream through both and compares them after every hook.

use deltapath_core::{CompiledPlan, DeltaState};
use deltapath_ir::{MethodId, SiteId};
use deltapath_telemetry::{names, Telemetry};

use crate::encoder::{report_state_counts, Capture, ContextEncoder, OpCounts};

/// DeltaPath over compiled dispatch tables, one hook at a time (see the
/// module docs).
#[derive(Debug)]
pub struct BatchedDeltaEncoder<'p> {
    compiled: &'p CompiledPlan,
    state: DeltaState,
}

impl<'p> BatchedDeltaEncoder<'p> {
    /// Creates an encoder over `compiled`.
    pub fn new(compiled: &'p CompiledPlan) -> Self {
        Self {
            compiled,
            state: DeltaState::start(compiled.entry_method()),
        }
    }

    /// The underlying tables.
    pub fn compiled(&self) -> &'p CompiledPlan {
        self.compiled
    }

    /// The current encoding state, exact after every hook.
    pub fn state(&self) -> &DeltaState {
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

    /// Always 0: the encoder buffers nothing, so it never flushes. Kept
    /// only until the pipeline benchmark's next change drops its
    /// `encoder.flushes` report, which calls this.
    pub fn flushes(&self) -> u64 {
        0
    }
}

impl ContextEncoder for BatchedDeltaEncoder<'_> {
    type CallToken = ();
    type EntryToken = ();

    fn thread_start(&mut self, entry: MethodId) {
        self.state.restart(entry);
    }

    #[inline]
    fn on_call(&mut self, site: SiteId) {
        self.state.on_call(self.compiled, site);
    }

    #[inline]
    fn on_return(&mut self, _site: SiteId, _token: ()) {
        self.state.on_return();
    }

    #[inline]
    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) {
        self.state.on_entry(self.compiled, method, via_site);
    }

    #[inline]
    fn on_exit(&mut self, _method: MethodId, _token: ()) {
        self.state.on_exit();
    }

    fn observe(&mut self, at: MethodId) -> Capture {
        Capture::Delta(self.state.snapshot(at))
    }

    fn counts(&self) -> OpCounts {
        OpCounts::from(self.state.counts())
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
        report_state_counts(sink, name, c);
        sink.gauge_max(
            &format!("encoder.{name}.table_bytes"),
            self.compiled.table_bytes() as u64,
        );
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
    use crate::encoders::DeltaEncoder;
    use deltapath_core::{EncodingPlan, PlanConfig};
    use deltapath_ir::{MethodKind, Program, ProgramBuilder};
    use deltapath_telemetry::Recorder;

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
    fn mirrors_map_based_encoder_hook_for_hook() {
        let p = program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let mut map = DeltaEncoder::new(&plan);
        let mut batched = BatchedDeltaEncoder::new(&compiled);
        let main = p.entry();
        let leaf = p
            .declared_method(
                p.class_by_name("C").unwrap(),
                p.symbols().lookup("leaf").unwrap(),
            )
            .unwrap();
        let site = p.sites().iter().find(|s| s.caller() == main).unwrap().id();
        map.thread_start(main);
        batched.thread_start(main);
        for _ in 0..5 {
            map.on_call(site);
            batched.on_call(site);
            map.on_entry(leaf, Some(site));
            batched.on_entry(leaf, Some(site));
            assert_eq!(map.observe(leaf), batched.observe(leaf));
            map.on_exit(leaf, ());
            batched.on_exit(leaf, ());
            map.on_return(site, ());
            batched.on_return(site, ());
        }
        assert_eq!(map.counts(), batched.counts());
        assert_eq!(map.state().id(), batched.state().id());
        assert_eq!(map.ucp_detections(), batched.ucp_detections());
        assert_eq!(batched.flushes(), 0);
    }

    #[test]
    fn uninstrumented_points_are_no_ops() {
        let p = program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let mut e = BatchedDeltaEncoder::new(&compiled);
        e.thread_start(p.entry());
        let bogus_site = SiteId::from_index(4_096);
        let bogus_method = MethodId::from_index(4_096);
        e.on_call(bogus_site);
        e.on_entry(bogus_method, Some(bogus_site));
        e.on_exit(bogus_method, ());
        e.on_return(bogus_site, ());
        assert_eq!(e.counts(), OpCounts::default());
        assert_eq!(e.ucp_detections(), 0);
        assert_eq!(e.state().id(), 0);
        assert_eq!(e.state().depth(), 1, "only the bootstrap frame");
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
        let mut e = BatchedDeltaEncoder::new(&compiled);
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
        e.report_telemetry(&recorder);
        let report = recorder.report("t");
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
        for (name, _) in &report.counters {
            assert!(
                deltapath_telemetry::names::is_registered(name),
                "unregistered metric {name}"
            );
        }
    }
}
