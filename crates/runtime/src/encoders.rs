//! Built-in encoders: native baseline, DeltaPath, and stack walking.
//!
//! (PCC, Breadcrumbs-lite and the calling-context tree live in
//! `deltapath-baselines`.)

use std::sync::Arc;

use deltapath_core::{DeltaState, EncodingPlan};
use deltapath_ir::{MethodId, SiteId};
use deltapath_telemetry::Telemetry;

use crate::encoder::{report_state_counts, Capture, ContextEncoder, OpCounts};

/// The native baseline: no instrumentation at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullEncoder;

impl ContextEncoder for NullEncoder {
    type CallToken = ();
    type EntryToken = ();

    fn thread_start(&mut self, _entry: MethodId) {}
    fn on_call(&mut self, _site: SiteId) {}
    fn on_return(&mut self, _site: SiteId, _token: ()) {}
    fn on_entry(&mut self, _method: MethodId, _via_site: Option<SiteId>) {}
    fn on_exit(&mut self, _method: MethodId, _token: ()) {}

    fn observe(&mut self, _at: MethodId) -> Capture {
        Capture::None
    }

    fn counts(&self) -> OpCounts {
        OpCounts::default()
    }

    fn name(&self) -> &'static str {
        "native"
    }
}

/// The DeltaPath reference encoder: drives the [`DeltaState`] machine
/// over an [`EncodingPlan`]'s hash maps, the paper-literal instruction
/// source (`BatchedDeltaEncoder` drives the same machine over compiled
/// tables). The state meters every abstract operation the injected code
/// would execute.
#[derive(Debug)]
pub struct DeltaEncoder<'p> {
    plan: &'p EncodingPlan,
    state: DeltaState,
}

impl<'p> DeltaEncoder<'p> {
    /// Creates an encoder for `plan`. The state is initialized lazily by
    /// [`thread_start`](ContextEncoder::thread_start).
    pub fn new(plan: &'p EncodingPlan) -> Self {
        Self {
            plan,
            state: DeltaState::start(plan.entry_method()),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &'p EncodingPlan {
        self.plan
    }

    /// The current encoding state (e.g. to snapshot outside observation
    /// points).
    pub fn state(&self) -> &DeltaState {
        &self.state
    }

    /// The deepest the encoding stack has grown (a high-water mark over the
    /// encoder's whole lifetime — like the op counts, it is not reset by
    /// [`thread_start`](ContextEncoder::thread_start)).
    pub fn stack_high_water(&self) -> usize {
        self.state.counts().stack_hwm as usize
    }

    /// Number of hazardous unexpected call paths detected (failed SID
    /// checks at method entries, each of which pushed a UCP frame).
    pub fn ucp_detections(&self) -> u64 {
        self.state.counts().ucp_detections
    }
}

impl ContextEncoder for DeltaEncoder<'_> {
    type CallToken = ();
    type EntryToken = ();

    fn thread_start(&mut self, entry: MethodId) {
        self.state.restart(entry);
    }

    fn on_call(&mut self, site: SiteId) {
        self.state.on_call(self.plan, site);
    }

    fn on_return(&mut self, _site: SiteId, _token: ()) {
        self.state.on_return();
    }

    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) {
        self.state.on_entry(self.plan, method, via_site);
    }

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
        if self.plan.config().cpt {
            "deltapath"
        } else {
            "deltapath-nocpt"
        }
    }

    fn report_telemetry(&self, sink: &dyn Telemetry) {
        report_state_counts(sink, self.name(), self.state.counts());
    }
}

/// Stack walking: maintains a shadow stack of the methods in a chosen scope
/// and reproduces it on demand — the expensive, precise baseline and the
/// ground truth for precision experiments.
///
/// Captures share one allocation per stack shape: `observe` materializes
/// the shadow stack into an `Arc<[MethodId]>` only when a push or pop has
/// invalidated the previous capture, so repeated observations at the same
/// depth are allocation-free (Entries-mode collection used to clone the
/// whole stack per capture — quadratic in depth).
#[derive(Clone, Debug)]
pub struct StackWalkEncoder {
    /// Membership test: a method is kept on the shadow stack iff this
    /// returns true (e.g. application-scope methods only).
    keep: fn(MethodId) -> bool,
    stack: Vec<MethodId>,
    /// The last materialized capture; `None` while the stack is dirty.
    cached: Option<Arc<[MethodId]>>,
    /// How many times `observe` materialized a fresh allocation.
    rebuilds: u64,
    counts: OpCounts,
}

impl StackWalkEncoder {
    /// Walks every method.
    pub fn full() -> Self {
        Self::filtered(|_| true)
    }

    /// Walks only methods accepted by `keep`.
    pub fn filtered(keep: fn(MethodId) -> bool) -> Self {
        Self {
            keep,
            stack: Vec::new(),
            cached: None,
            rebuilds: 0,
            counts: OpCounts::default(),
        }
    }

    /// The current shadow stack (outermost first).
    pub fn stack(&self) -> &[MethodId] {
        &self.stack
    }

    /// Number of times `observe` had to allocate a fresh stack copy (at
    /// most one per push/pop between observations; pinned by tests).
    pub fn stack_rebuilds(&self) -> u64 {
        self.rebuilds
    }
}

impl ContextEncoder for StackWalkEncoder {
    type CallToken = ();
    type EntryToken = bool;

    fn thread_start(&mut self, entry: MethodId) {
        self.stack.clear();
        self.cached = None;
        if (self.keep)(entry) {
            self.stack.push(entry);
        }
    }

    fn on_call(&mut self, _site: SiteId) {}
    fn on_return(&mut self, _site: SiteId, _token: ()) {}

    fn on_entry(&mut self, method: MethodId, _via_site: Option<SiteId>) -> bool {
        if (self.keep)(method) {
            self.stack.push(method);
            self.cached = None;
            true
        } else {
            false
        }
    }

    fn on_exit(&mut self, _method: MethodId, pushed: bool) {
        if pushed {
            self.stack.pop();
            self.cached = None;
        }
    }

    fn observe(&mut self, _at: MethodId) -> Capture {
        // Walking visits every live frame.
        self.counts.walked_frames += self.stack.len() as u64;
        let shared = match &self.cached {
            Some(shared) => Arc::clone(shared),
            None => {
                self.rebuilds += 1;
                let shared: Arc<[MethodId]> = Arc::from(self.stack.as_slice());
                self.cached = Some(Arc::clone(&shared));
                shared
            }
        };
        Capture::Walk(shared)
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn name(&self) -> &'static str {
        "stackwalk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_encoder_costs_nothing() {
        let mut e = NullEncoder;
        e.thread_start(MethodId::from_index(0));
        e.on_call(SiteId::from_index(0));
        assert_eq!(e.observe(MethodId::from_index(0)), Capture::None);
        assert_eq!(e.counts(), OpCounts::default());
        assert_eq!(e.name(), "native");
    }

    #[test]
    fn stack_walk_tracks_entries_and_exits() {
        let mut e = StackWalkEncoder::full();
        let (a, b) = (MethodId::from_index(0), MethodId::from_index(1));
        e.thread_start(a);
        let t = e.on_entry(b, None);
        assert_eq!(e.observe(b), Capture::Walk(vec![a, b].into()));
        e.on_exit(b, t);
        assert_eq!(e.observe(a), Capture::Walk(vec![a].into()));
        assert_eq!(e.counts().walked_frames, 3);
    }

    #[test]
    fn filtered_walk_skips_methods() {
        let mut e = StackWalkEncoder::filtered(|m| m.index() != 1);
        let (a, b, c) = (
            MethodId::from_index(0),
            MethodId::from_index(1),
            MethodId::from_index(2),
        );
        e.thread_start(a);
        let tb = e.on_entry(b, None);
        let tc = e.on_entry(c, None);
        assert_eq!(e.observe(c), Capture::Walk(vec![a, c].into()));
        e.on_exit(c, tc);
        e.on_exit(b, tb);
        assert_eq!(e.stack(), &[a]);
    }

    #[test]
    fn repeated_observations_share_one_allocation() {
        let mut e = StackWalkEncoder::full();
        let (a, b) = (MethodId::from_index(0), MethodId::from_index(1));
        e.thread_start(a);
        let t = e.on_entry(b, None);
        let Capture::Walk(first) = e.observe(b) else {
            panic!("walk capture expected");
        };
        // A quiet stack re-uses the materialized allocation verbatim.
        for _ in 0..10 {
            let Capture::Walk(again) = e.observe(b) else {
                panic!("walk capture expected");
            };
            assert!(Arc::ptr_eq(&first, &again));
        }
        assert_eq!(e.stack_rebuilds(), 1);
        // A pop invalidates it: exactly one new allocation, not one per
        // observation.
        e.on_exit(b, t);
        let Capture::Walk(shallow) = e.observe(a) else {
            panic!("walk capture expected");
        };
        assert!(!Arc::ptr_eq(&first, &shallow));
        e.observe(a);
        e.observe(a);
        assert_eq!(e.stack_rebuilds(), 2);
        // The earlier capture still holds the deep stack it saw.
        assert_eq!(&*first, &[a, b]);
    }
}
