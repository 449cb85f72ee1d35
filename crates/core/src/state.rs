//! The per-thread reference encoding state machine.
//!
//! A real deployment injects a handful of instructions at every call site
//! and method entry/exit; this module is the exact state machine those
//! instructions implement, factored out so the interpreter (and the
//! verification harness) can drive it through explicit hooks. Each hook
//! takes the plan, probes it for the site or entry instruction, applies
//! the instruction and tallies the operations it performed:
//!
//! * [`DeltaState::on_call`] — caller side, before the call: `ID += av`,
//!   save and replace the pending expectation (call-path tracking);
//! * [`DeltaState::on_entry`] — callee side: SID check (hazardous-UCP
//!   detection), recursion-back-edge push, anchor push;
//! * [`DeltaState::on_exit`] — callee side: pop whatever the entry pushed;
//! * [`DeltaState::on_return`] — caller side, after the call returns:
//!   `ID -= av`, restore the pending expectation.
//!
//! The pending expectation is saved *around* each call: `on_call` pushes a
//! caller-saved record that `on_return` pops, which models keeping it in
//! the caller's native frame. This is what keeps the expectation exact even
//! when excluded or dynamically loaded code interleaves with encoded code.
//! [`BatchState`](crate::BatchState) keeps the same records, entry flags
//! and [`StateCounts`] over a [`CompiledPlan`](crate::CompiledPlan)'s
//! tables; the two machines differ only in how they find an instruction.

use deltapath_ir::{MethodId, SiteId};

use crate::context::{EncodedContext, Frame, FrameTag};
use crate::plan::EncodingPlan;
use crate::sid::Sid;

/// Operation tallies of a DeltaPath state machine: the counter block that
/// both [`DeltaState`] and [`BatchState`](crate::BatchState) keep,
/// cumulative across restarts. `deltapath-runtime` maps the op subset into
/// its `OpCounts` and reports the rest as `encoder.*` telemetry.
///
/// The batched-only counters (`backedge_probes`, `snapshots_shared`,
/// `snapshots_built`) stay zero on [`DeltaState`], which probes no
/// back-edge table and shares no snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateCounts {
    /// `ID += av` operations.
    pub adds: u64,
    /// `ID -= av` operations.
    pub subs: u64,
    /// Pending-expectation saves around calls.
    pub pending_saves: u64,
    /// SID comparisons at entries.
    pub sid_checks: u64,
    /// Encoding-stack pushes.
    pub pushes: u64,
    /// Encoding-stack pops.
    pub pops: u64,
    /// Hazardous unexpected call paths detected.
    pub ucp_detections: u64,
    /// Back-edge lookup-table probes taken (batched only).
    pub backedge_probes: u64,
    /// Deepest the encoding stack has grown (lifetime high-water mark,
    /// not reset by a restart).
    pub stack_hwm: u64,
    /// Snapshots that reused the cached
    /// [`FrameStack`](crate::FrameStack) of an unchanged stack (a
    /// reference-count increment; batched only).
    pub snapshots_shared: u64,
    /// Snapshots that built a fresh [`FrameStack`](crate::FrameStack)
    /// after a push, a pop or a restart (batched only).
    pub snapshots_built: u64,
}

/// The expectation saved before a call for call-path tracking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pending {
    site: SiteId,
    expected: Sid,
    id_at_call: u64,
}

/// One open call's caller-saved record: what the matching return must
/// subtract and restore.
#[derive(Clone, Copy, Debug)]
struct CallRec {
    /// The amount added (zero for non-encoded sites).
    added: u64,
    /// Whether the site's ID arithmetic was emitted.
    encoded: bool,
    /// Whether the call saved the pending expectation.
    restore_pending: bool,
    /// The expectation the call replaced.
    saved_pending: Option<Pending>,
}

impl CallRec {
    /// The record of a call through an uninstrumented site: subtracts
    /// nothing, restores nothing.
    const INERT: CallRec = CallRec {
        added: 0,
        encoded: false,
        restore_pending: false,
        saved_pending: None,
    };
}

/// Per-thread DeltaPath encoding state: the current ID, the encoding stack,
/// the pending call-path-tracking expectation, the caller-saved records of
/// open calls, and the operation tallies.
///
/// # Example
///
/// Driving the state machine by hand along `main --site--> helper`:
///
/// ```
/// use deltapath_ir::{MethodKind, ProgramBuilder};
/// use deltapath_core::{DeltaState, EncodingPlan, PlanConfig};
///
/// let mut b = ProgramBuilder::new("s");
/// let c = b.add_class("Main", None);
/// b.method(c, "helper", MethodKind::Static).finish();
/// let mut site = None;
/// let main = b
///     .method(c, "main", MethodKind::Static)
///     .body(|f| {
///         site = Some(f.call(c, "helper"));
///     })
///     .finish();
/// b.entry(main);
/// let program = b.finish()?;
/// let plan = EncodingPlan::analyze(&program, &PlanConfig::default())?;
/// let helper = program.class_by_name("Main")
///     .and_then(|cls| program.declared_method(cls, program.symbols().lookup("helper").unwrap()))
///     .unwrap();
///
/// let mut state = DeltaState::start(main);
/// state.on_call(&plan, site.unwrap());
/// state.on_entry(&plan, helper, site);
/// let ctx = state.snapshot(helper);
/// assert_eq!(plan.decoder().decode(&ctx)?, vec![main, helper]);
/// state.on_exit();
/// state.on_return();
/// assert_eq!(state.id(), 0);
/// assert_eq!((state.counts().adds, state.counts().subs), (1, 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct DeltaState {
    id: u64,
    stack: Vec<Frame>,
    pending: Option<Pending>,
    /// Caller-saved records of open calls, innermost last.
    calls: Vec<CallRec>,
    /// Whether each open entry pushed a frame, innermost last.
    pushed: Vec<bool>,
    /// Operation tallies, cumulative across [`DeltaState::restart`].
    counts: StateCounts,
}

impl DeltaState {
    /// Creates the state for a thread entering the program at `entry`: the
    /// stack holds the bootstrap anchor frame and the ID is zero.
    pub fn start(entry: MethodId) -> Self {
        Self {
            id: 0,
            stack: vec![Frame {
                tag: FrameTag::Anchor,
                node: entry,
                site: None,
                saved_id: 0,
            }],
            pending: None,
            calls: Vec::new(),
            pushed: Vec::new(),
            counts: StateCounts::default(),
        }
    }

    /// Resets the encoding state for a new thread at `entry`, keeping the
    /// cumulative counts.
    pub fn restart(&mut self, entry: MethodId) {
        *self = Self {
            counts: self.counts,
            ..Self::start(entry)
        };
    }

    /// The current encoding ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The current stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The operation tallies so far.
    pub fn counts(&self) -> &StateCounts {
        &self.counts
    }

    /// Caller-side hook, before the call at `site` is dispatched.
    ///
    /// Adds the site's addition value (if the site is encoded) and installs
    /// the pending expectation (if call-path tracking tracks the site). A
    /// site the plan does not instrument changes nothing. Either way the
    /// call's record stays open until the matching
    /// [`DeltaState::on_return`].
    pub fn on_call(&mut self, plan: &EncodingPlan, site: SiteId) {
        let Some(instr) = plan.site(site) else {
            self.calls.push(CallRec::INERT);
            return;
        };
        let added = if instr.encoded { instr.av } else { 0 };
        // Algorithm 2 guarantees the sum stays below the width capacity on
        // every *expected* path (no runtime overflow checks needed — paper
        // Section 3.2). On corrupted paths (call-path tracking disabled in
        // the presence of dynamic loading) the value is garbage either way;
        // wrap rather than abort the host, exactly like the injected
        // arithmetic would.
        debug_assert!(
            self.id.checked_add(added).is_some(),
            "encoding ID overflow outside a corrupted-path scenario"
        );
        self.id = self.id.wrapping_add(added);
        self.counts.adds += u64::from(instr.encoded);
        let save_pending = plan.config().cpt && instr.tracked;
        let saved_pending = if save_pending {
            self.counts.pending_saves += 1;
            self.pending.replace(Pending {
                site,
                expected: instr.expected_sid,
                id_at_call: self.id,
            })
        } else {
            None
        };
        self.calls.push(CallRec {
            added,
            encoded: instr.encoded,
            restore_pending: save_pending,
            saved_pending,
        });
    }

    /// Caller-side hook, after the innermost open call returned. Its record
    /// carries the resolved instruction, so no plan lookup happens here.
    ///
    /// # Panics
    ///
    /// Panics if no call is open.
    pub fn on_return(&mut self) {
        let rec = self.calls.pop().expect("on_return without an open call");
        debug_assert!(
            self.id >= rec.added,
            "encoding ID underflow outside a corrupted-path scenario"
        );
        self.id = self.id.wrapping_sub(rec.added);
        self.counts.subs += u64::from(rec.encoded);
        if rec.restore_pending {
            self.pending = rec.saved_pending;
        }
    }

    /// Callee-side hook at the entry of `method`, dispatched through
    /// `via_site` (`None` when control arrived from uninstrumented code).
    ///
    /// Only a site the plan instruments counts as the dispatching site: a
    /// site in an uninstrumented caller has no injected code, so the entry
    /// sees only the thread-local expectation, exactly as the paper
    /// describes. The entry stays open until the matching
    /// [`DeltaState::on_exit`].
    pub fn on_entry(&mut self, plan: &EncodingPlan, method: MethodId, via_site: Option<SiteId>) {
        let Some(entry) = plan.entry(method) else {
            self.pushed.push(false); // Uninstrumented method: no hooks.
            return;
        };
        let via = via_site.filter(|&s| plan.site(s).is_some());
        let do_check = plan.config().cpt && entry.check_sid;
        self.counts.sid_checks += u64::from(do_check);
        let frame = if do_check && self.pending.map(|p| p.expected) != Some(entry.sid) {
            // Hazardous unexpected call path (Section 4.1): record the
            // boundary and restart the encoding at this method.
            self.counts.ucp_detections += 1;
            let (site, saved_id) = match self.pending {
                Some(p) => (Some(p.site), p.id_at_call),
                None => (None, self.id),
            };
            Some(Frame {
                tag: FrameTag::Ucp,
                node: method,
                site,
                saved_id,
            })
        } else if via.is_some_and(|s| plan.is_back_edge_call(s, method)) {
            Some(Frame {
                tag: FrameTag::Recursion,
                node: method,
                site: via,
                saved_id: self.id,
            })
        } else if entry.is_anchor {
            Some(Frame {
                tag: FrameTag::Anchor,
                node: method,
                site: via,
                saved_id: self.id,
            })
        } else {
            None
        };
        self.pushed.push(frame.is_some());
        if let Some(frame) = frame {
            self.stack.push(frame);
            self.id = 0;
            self.counts.pushes += 1;
            self.counts.stack_hwm = self.counts.stack_hwm.max(self.stack.len() as u64);
        }
    }

    /// Callee-side hook at the exit of the innermost open entry: pops the
    /// frame that entry pushed, if any, restoring the saved ID.
    ///
    /// # Panics
    ///
    /// Panics if no entry is open (entry/exit hooks not balanced — a
    /// harness bug, not a recoverable condition).
    pub fn on_exit(&mut self) {
        if self.pushed.pop().expect("on_exit without an open entry") {
            let frame = self
                .stack
                .pop()
                .expect("encoding stack underflow: unbalanced entry/exit hooks");
            self.id = frame.saved_id;
            self.counts.pops += 1;
        }
    }

    /// Captures the current calling context as an encoded value. The
    /// reference path: every capture builds a fresh
    /// [`FrameStack`](crate::FrameStack), where
    /// [`BatchState::snapshot`](crate::BatchState::snapshot) shares one
    /// between pushes and pops.
    pub fn snapshot(&self, at: MethodId) -> EncodedContext {
        EncodedContext {
            frames: self.stack.as_slice().into(),
            id: self.id,
            at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use crate::BatchState;
    use deltapath_callgraph::ScopeFilter;
    use deltapath_ir::{MethodKind, Program, ProgramBuilder};

    /// main calls leaf from two sites; leaf contexts must differ by ID.
    fn two_site_program() -> (Program, Vec<SiteId>) {
        let mut b = ProgramBuilder::new("two");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        let mut sites = Vec::new();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                sites.push(f.call(c, "leaf"));
                sites.push(f.call(c, "leaf"));
            })
            .finish();
        b.entry(main);
        (b.finish().unwrap(), sites)
    }

    fn method(p: &Program, class: &str, name: &str) -> MethodId {
        p.declared_method(
            p.class_by_name(class).unwrap(),
            p.symbols().lookup(name).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn two_sites_give_distinct_ids() {
        let (p, sites) = two_site_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let leaf = method(&p, "C", "leaf");
        let main = p.entry();

        let mut ids = Vec::new();
        for &site in &sites {
            let mut st = DeltaState::start(main);
            st.on_call(&plan, site);
            st.on_entry(&plan, leaf, Some(site));
            ids.push(st.snapshot(leaf).id);
            st.on_exit();
            st.on_return();
            assert_eq!(st.id(), 0);
            assert_eq!(st.depth(), 1);
        }
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn call_return_is_an_exact_inverse() {
        let (p, sites) = two_site_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let mut st = DeltaState::start(p.entry());
        let before = st.clone();
        st.on_call(&plan, sites[1]);
        st.on_return();
        assert_eq!(st.id(), before.id());
        assert_eq!(st.depth(), before.depth());
    }

    #[test]
    fn bootstrap_frame_is_anchor_of_entry() {
        let (p, _) = two_site_program();
        let st = DeltaState::start(p.entry());
        let ctx = st.snapshot(p.entry());
        assert_eq!(ctx.frames.len(), 1);
        assert_eq!(ctx.frames[0].tag, FrameTag::Anchor);
        assert_eq!(ctx.frames[0].node, p.entry());
        assert_eq!(ctx.id, 0);
    }

    #[test]
    fn uninstrumented_site_is_a_no_op() {
        let (p, _) = two_site_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let mut st = DeltaState::start(p.entry());
        // A site id that does not exist in the plan.
        let bogus = SiteId::from_index(999);
        st.on_call(&plan, bogus);
        assert_eq!(st.id(), 0);
        st.on_return();
        assert_eq!(st.id(), 0);
        assert_eq!(st.counts(), &StateCounts::default());
    }

    #[test]
    fn entry_through_an_uninstrumented_site_records_no_site() {
        // main -> Lib.call_back -> App.target. Under application scope the
        // library caller carries no instrumentation, and `target`, which
        // out-of-scope code calls, is an anchor. Without call-path
        // tracking its entry pushes an anchor frame, not a UCP frame.
        let mut b = ProgramBuilder::new("via");
        let app = b.add_class("App", None);
        let lib = b.add_library_class("Lib", None);
        b.method(app, "target", MethodKind::Static).finish();
        let mut callback = None;
        b.method(lib, "call_back", MethodKind::Static)
            .body(|f| {
                callback = Some(f.call(app, "target"));
            })
            .finish();
        let mut to_lib = None;
        let main = b
            .method(app, "main", MethodKind::Static)
            .body(|f| {
                to_lib = Some(f.call(lib, "call_back"));
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let (to_lib, callback) = (to_lib.unwrap(), callback.unwrap());
        let (call_back, target) = (method(&p, "Lib", "call_back"), method(&p, "App", "target"));
        let config = PlanConfig::default()
            .with_scope(ScopeFilter::ApplicationOnly)
            .with_cpt(false);
        let plan = EncodingPlan::analyze(&p, &config).unwrap();
        assert!(plan.site(callback).is_none(), "the library site is bare");
        assert!(plan.entry(target).unwrap().is_anchor, "target is an anchor");

        let mut st = DeltaState::start(main);
        st.on_call(&plan, to_lib);
        st.on_entry(&plan, call_back, Some(to_lib));
        st.on_call(&plan, callback);
        st.on_entry(&plan, target, Some(callback));
        let ctx = st.snapshot(target);
        let top = ctx.frames[ctx.frames.len() - 1];
        assert_eq!((top.tag, top.node), (FrameTag::Anchor, target));
        assert_eq!(top.site, None, "the bare site is not the dispatching site");

        let compiled = plan.compile();
        let mut batch = BatchState::start(main);
        compiled.batch_call(&mut batch, to_lib);
        compiled.batch_entry(&mut batch, call_back, Some(to_lib));
        compiled.batch_call(&mut batch, callback);
        compiled.batch_entry(&mut batch, target, Some(callback));
        assert_eq!(batch.snapshot(target), ctx);
    }
}
