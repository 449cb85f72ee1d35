//! The per-thread runtime encoding state machine.
//!
//! A real deployment injects a handful of instructions at every call site
//! and method entry/exit; this module is the exact state machine those
//! instructions implement, factored out so the interpreter (and the
//! verification harness) can drive it through explicit hooks:
//!
//! * [`DeltaState::on_call`] — caller side, before the call: `ID += av`,
//!   save and replace the pending expectation (call-path tracking);
//! * [`DeltaState::on_entry`] — callee side: SID check (hazardous-UCP
//!   detection), recursion-back-edge push, anchor push;
//! * [`DeltaState::on_exit`] — callee side: pop whatever the entry pushed;
//! * [`DeltaState::on_return`] — caller side, after the call returns:
//!   `ID -= av`, restore the pending expectation.
//!
//! The pending expectation is saved *around* each call (the token returned
//! by `on_call` is restored by `on_return`), which models keeping it in the
//! caller's native frame. This is what keeps the expectation exact even when
//! excluded or dynamically loaded code interleaves with encoded code.

use deltapath_ir::{MethodId, SiteId};

use crate::context::{EncodedContext, Frame, FrameTag};
use crate::plan::{EncodingPlan, EntryInstr, SiteInstr};
use crate::sid::Sid;

/// A [`SiteInstr`] resolved against the plan configuration: everything the
/// caller-side hooks need, with the config conditionals (`cpt && tracked`)
/// already folded in so the hot path branches on plain booleans. This is
/// the unpacked form of a [`CompiledPlan`](crate::CompiledPlan) site word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedSite {
    /// The site's addition value.
    pub av: u64,
    /// Whether the ID arithmetic is emitted.
    pub encoded: bool,
    /// The SID every statically known target shares.
    pub expected_sid: Sid,
    /// Whether the site saves the pending expectation — `tracked` fused
    /// with the plan-wide call-path-tracking switch.
    pub save_pending: bool,
}

impl ResolvedSite {
    /// Resolves a site instruction under a call-path-tracking mode.
    pub fn of(instr: &SiteInstr, cpt: bool) -> Self {
        Self {
            av: instr.av,
            encoded: instr.encoded,
            expected_sid: instr.expected_sid,
            save_pending: cpt && instr.tracked,
        }
    }
}

/// An [`EntryInstr`] resolved against the plan configuration and the
/// dispatching call site: the config conditionals (`cpt && check_sid`) and
/// the back-edge classification of the `(site, method)` pair are folded in
/// before the state machine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedEntry {
    /// The method's SID.
    pub sid: Sid,
    /// Whether the entry pushes an anchor frame.
    pub is_anchor: bool,
    /// Whether the entry performs the SID check — `check_sid` fused with
    /// the plan-wide call-path-tracking switch.
    pub do_check: bool,
    /// Whether the dispatching call took a recursion back edge.
    pub back_edge: bool,
}

impl ResolvedEntry {
    /// Resolves an entry instruction under a call-path-tracking mode and a
    /// back-edge classification of the incoming call.
    pub fn of(instr: &EntryInstr, cpt: bool, back_edge: bool) -> Self {
        Self {
            sid: instr.sid,
            is_anchor: instr.is_anchor,
            do_check: cpt && instr.check_sid,
            back_edge,
        }
    }
}

/// The caller-saved half of a call: returned by [`DeltaState::on_call`],
/// must be passed to [`DeltaState::on_return`] when the call returns.
///
/// The token carries everything the return hook needs (the amount to
/// subtract and whether/what to restore), so `on_return` never consults
/// the plan — each call resolves its site instruction exactly once.
#[derive(Clone, Copy, Debug)]
pub struct CallToken {
    added: u64,
    encoded: bool,
    restore_pending: bool,
    saved_pending: Option<Pending>,
}

impl CallToken {
    /// The token of a call through an uninstrumented site: subtracts
    /// nothing, restores nothing.
    pub fn inert() -> Self {
        Self {
            added: 0,
            encoded: false,
            restore_pending: false,
            saved_pending: None,
        }
    }

    /// Whether the site's ID arithmetic was emitted (the matching return
    /// performs a subtraction).
    pub fn encoded(&self) -> bool {
        self.encoded
    }

    /// The amount `on_call` added (zero for non-encoded sites).
    pub fn added(&self) -> u64 {
        self.added
    }
}

/// The expectation saved before a call for call-path tracking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pending {
    site: SiteId,
    expected: Sid,
    id_at_call: u64,
}

/// What a method entry did to the encoding stack; pass it back to
/// [`DeltaState::on_exit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryOutcome {
    /// Nothing pushed.
    Plain,
    /// Pushed an anchor frame.
    PushedAnchor,
    /// Pushed a recursion frame (the call took a back edge).
    PushedRecursion,
    /// Pushed a hazardous-unexpected-call-path frame.
    PushedUcp,
}

impl EntryOutcome {
    /// Whether the entry pushed a frame that the exit must pop.
    pub fn pushed(self) -> bool {
        self != EntryOutcome::Plain
    }
}

/// Per-thread DeltaPath encoding state: the current ID, the encoding stack,
/// and the pending call-path-tracking expectation.
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
/// let token = state.on_call(&plan, site.unwrap());
/// let outcome = state.on_entry(&plan, helper, Some(site.unwrap()));
/// let ctx = state.snapshot(helper);
/// assert_eq!(plan.decoder().decode(&ctx)?, vec![main, helper]);
/// state.on_exit(outcome);
/// state.on_return(token);
/// assert_eq!(state.id(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct DeltaState {
    id: u64,
    stack: Vec<Frame>,
    pending: Option<Pending>,
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
        }
    }

    /// The current encoding ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The current stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Caller-side hook, before the call at `site` is dispatched; resolves
    /// the site against `plan` and delegates to
    /// [`DeltaState::on_call_resolved`]. This is the map-probing reference
    /// path; table-driven encoders resolve through a
    /// [`CompiledPlan`](crate::CompiledPlan) instead.
    pub fn on_call(&mut self, plan: &EncodingPlan, site: SiteId) -> CallToken {
        match plan.site(site) {
            Some(instr) => self.on_call_resolved(site, ResolvedSite::of(instr, plan.config().cpt)),
            None => CallToken::inert(),
        }
    }

    /// Caller-side hook with the site instruction already resolved.
    ///
    /// Adds the site's addition value (if the site is encoded) and installs
    /// the pending expectation (if the resolved instruction saves it). The
    /// returned token must be handed to [`DeltaState::on_return`]
    /// afterwards.
    pub fn on_call_resolved(&mut self, site: SiteId, r: ResolvedSite) -> CallToken {
        let added = if r.encoded { r.av } else { 0 };
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
        let saved_pending = if r.save_pending {
            let saved = self.pending.take();
            self.pending = Some(Pending {
                site,
                expected: r.expected_sid,
                id_at_call: self.id,
            });
            saved
        } else {
            None
        };
        CallToken {
            added,
            encoded: r.encoded,
            restore_pending: r.save_pending,
            saved_pending,
        }
    }

    /// Caller-side hook, after the call returned. The token carries the
    /// resolved instruction, so no plan lookup happens here.
    pub fn on_return(&mut self, token: CallToken) {
        debug_assert!(
            self.id >= token.added,
            "encoding ID underflow outside a corrupted-path scenario"
        );
        self.id = self.id.wrapping_sub(token.added);
        if token.restore_pending {
            self.pending = token.saved_pending;
        }
    }

    /// Callee-side hook at the entry of `method`.
    ///
    /// `via_site` is the call site that dispatched here when the caller was
    /// instrumented, `None` when control arrived from uninstrumented code
    /// (the real instrumentation has no caller argument; the check below
    /// reads the thread-local expectation exactly as the paper describes).
    ///
    /// Returns what was pushed; pass it to [`DeltaState::on_exit`].
    pub fn on_entry(
        &mut self,
        plan: &EncodingPlan,
        method: MethodId,
        via_site: Option<SiteId>,
    ) -> EntryOutcome {
        let Some(entry) = plan.entry(method) else {
            return EntryOutcome::Plain; // Uninstrumented method: no hooks.
        };
        let back_edge = via_site.is_some_and(|site| plan.is_back_edge_call(site, method));
        self.on_entry_resolved(
            method,
            via_site,
            ResolvedEntry::of(entry, plan.config().cpt, back_edge),
        )
    }

    /// Callee-side hook with the entry instruction already resolved
    /// (including the back-edge classification of `via_site`).
    ///
    /// Returns what was pushed; pass it to [`DeltaState::on_exit`].
    pub fn on_entry_resolved(
        &mut self,
        method: MethodId,
        via_site: Option<SiteId>,
        r: ResolvedEntry,
    ) -> EntryOutcome {
        if r.do_check {
            let expected = self.pending.map(|p| p.expected);
            if expected != Some(r.sid) {
                // Hazardous unexpected call path (Section 4.1): record the
                // boundary and restart the encoding at this method.
                let (site, saved_id) = match self.pending {
                    Some(p) => (Some(p.site), p.id_at_call),
                    None => (None, self.id),
                };
                self.stack.push(Frame {
                    tag: FrameTag::Ucp,
                    node: method,
                    site,
                    saved_id,
                });
                self.id = 0;
                return EntryOutcome::PushedUcp;
            }
        }

        if r.back_edge {
            debug_assert!(
                via_site.is_some(),
                "a back-edge entry always has a dispatching site"
            );
            self.stack.push(Frame {
                tag: FrameTag::Recursion,
                node: method,
                site: via_site,
                saved_id: self.id,
            });
            self.id = 0;
            return EntryOutcome::PushedRecursion;
        }

        if r.is_anchor {
            self.stack.push(Frame {
                tag: FrameTag::Anchor,
                node: method,
                site: via_site,
                saved_id: self.id,
            });
            self.id = 0;
            return EntryOutcome::PushedAnchor;
        }
        EntryOutcome::Plain
    }

    /// Callee-side hook at the exit of the method whose entry returned
    /// `outcome`: pops the frame pushed at entry, restoring the saved ID.
    ///
    /// # Panics
    ///
    /// Panics if the stack underflows (entry/exit hooks not balanced — a
    /// harness bug, not a recoverable condition).
    pub fn on_exit(&mut self, outcome: EntryOutcome) {
        if outcome.pushed() {
            let frame = self
                .stack
                .pop()
                .expect("encoding stack underflow: unbalanced entry/exit hooks");
            self.id = frame.saved_id;
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
            let token = st.on_call(&plan, site);
            let outcome = st.on_entry(&plan, leaf, Some(site));
            ids.push(st.snapshot(leaf).id);
            st.on_exit(outcome);
            st.on_return(token);
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
        let token = st.on_call(&plan, sites[1]);
        st.on_return(token);
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
        let token = st.on_call(&plan, bogus);
        assert_eq!(st.id(), 0);
        st.on_return(token);
        assert_eq!(st.id(), 0);
    }
}
