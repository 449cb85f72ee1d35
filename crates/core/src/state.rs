//! The per-thread DeltaPath encoding state machine.
//!
//! A real deployment injects a handful of instructions at every call site
//! and method entry/exit; this module is the exact state machine those
//! instructions implement, factored out so the interpreter (and the
//! verification harness) can drive it through explicit hooks. Each hook
//! takes an instruction source, loads the site or entry word from it,
//! applies the word and tallies the operations it performed:
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
//!
//! One machine runs over two instruction sources. A
//! [`CompiledPlan`](crate::CompiledPlan) hands out words from its dense
//! tables: the deployment path, one array load per hook and no hashing.
//! An [`EncodingPlan`](crate::EncodingPlan) probes its hash maps and
//! lowers what it finds through the functions that build those tables:
//! the paper-literal reference. Either way the hooks apply a word with
//! mask arithmetic: the CPT, check and track decisions are bit-selects,
//! not branches, and only the rare events (a frame push at an entry, a pop
//! at an exit) leave the straight-line path.
//!
//! A capture shares its stack instead of copying it. The machine keeps one
//! snapshot slot per stack depth and interns the stacks its thread has
//! captured, so equal captures of one thread share one [`FrameStack`]
//! allocation and only a stack the thread has not captured before is
//! built (see [`DeltaState::snapshot`]).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use deltapath_ir::{MethodId, SiteId};

use crate::context::{
    finish_digest, fold_frame, EncodedContext, FastHasher, Frame, FrameStack, FrameTag, FOLD_SEED,
};
use crate::plan_compiled::{
    InstructionSource, ENTRY_ANCHOR, ENTRY_DO_CHECK, ENTRY_PRESENT, SID_MASK, SITE_ENCODED,
    SITE_MAY_BACK_EDGE, SITE_PRESENT, SITE_SAVE_PENDING,
};

/// Operation tallies of the DeltaPath state machine, cumulative across
/// restarts. `deltapath-runtime` maps the op subset into its `OpCounts`
/// and reports the rest as `encoder.*` telemetry.
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
    /// Back-edge probes taken. Depends on the instruction source: a
    /// [`CompiledPlan`](crate::CompiledPlan) probes only at sites with a
    /// recursion back edge, an [`EncodingPlan`](crate::EncodingPlan) at
    /// every instrumented dispatching site.
    pub backedge_probes: u64,
    /// Deepest the encoding stack has grown (lifetime high-water mark,
    /// not reset by a restart).
    pub stack_hwm: u64,
    /// Snapshots that reused a [`FrameStack`] this thread had already
    /// captured since its last restart: the one kept for the current
    /// depth, or the interned stack with equal frames (a reference-count
    /// increment either way).
    pub snapshots_shared: u64,
    /// Snapshots that built a new [`FrameStack`]: a stack this thread had
    /// not captured before since its last restart, or one the full intern
    /// table no longer admits or whose digest an interned stack with other
    /// frames already holds.
    pub snapshots_built: u64,
}

/// Capacity of a thread's stack intern table, like the decoder's caches.
/// Once full the table admits no new stacks (a run's first distinct
/// stacks are its hot ones); a stack it does not admit is built each time
/// a capture finds no snapshot slot for it.
const INTERN_CAPACITY: usize = 1 << 16;

/// One open call's caller-saved record: what the matching return must
/// subtract and restore. Pushed unconditionally per call hook; masked
/// stores keep the call/return pair branch-free.
#[derive(Clone, Copy, Debug)]
struct CallRec {
    /// The amount added (zero for non-encoded sites).
    add: u64,
    /// bit 0 = encoded, bit 1 = restore pending, bit 2 = saved pending
    /// validity.
    flags: u64,
    /// Saved pending site (high 32) and expected SID (low 32).
    saved_pair: u64,
    /// Saved pending ID-at-call.
    saved_id: u64,
}

/// `(a & mask) | (b & !mask)` — the branchless select the hooks use for
/// every conditional state update (`mask` is all-ones or all-zeros).
#[inline(always)]
fn select(mask: u64, a: u64, b: u64) -> u64 {
    (a & mask) | (b & !mask)
}

/// 1 when `flag` is set in `word`, 0 otherwise: a mask-arithmetic operand.
#[inline(always)]
fn bit(word: u64, flag: u64) -> u64 {
    u64::from(word & flag != 0)
}

/// Per-thread DeltaPath encoding state: the current ID, the encoding stack,
/// the pending call-path-tracking expectation, the caller-saved records of
/// open calls, the outcomes of open entries, the stacks the thread has
/// captured, and the operation tallies.
///
/// Every hook that needs an instruction takes its source: `&EncodingPlan`
/// or `&CompiledPlan`. Both drive the same machine.
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
///
/// // The compiled tables drive the same machine to the same context.
/// let compiled = plan.compile();
/// let mut deployed = DeltaState::start(main);
/// deployed.on_call(&compiled, site.unwrap());
/// deployed.on_entry(&compiled, helper, site);
/// assert_eq!(deployed.snapshot(helper), ctx);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct DeltaState {
    /// The current encoding ID.
    id: u64,
    /// The encoding stack, bootstrap frame included.
    frames: Vec<Frame>,
    /// `folds[k]` is the digest fold of `frames[..=k]`, kept for a prefix
    /// of the stack: a snapshot extends it, a pop truncates it.
    folds: Vec<u64>,
    /// `slots[k]`, when set, is the snapshot of `frames[..=k]`. Slots
    /// above the top remember the frames popped last: a push of the frame
    /// that slot ends with keeps it and the slots above it, a push of any
    /// other frame drops them.
    slots: Vec<Option<FrameStack>>,
    /// The stacks this thread captured since its last restart, by digest:
    /// at most one per digest and [`INTERN_CAPACITY`] in all.
    interned: HashMap<u64, FrameStack, BuildHasherDefault<FastHasher>>,
    /// Pending-expectation validity: 0 or 1.
    pend_valid: u64,
    /// Pending site index (meaningful only when `pend_valid == 1`).
    pend_site: u64,
    /// Pending expected SID.
    pend_expected: u64,
    /// Pending ID-at-call.
    pend_id: u64,
    /// Caller-saved records of open calls, innermost last.
    calls: Vec<CallRec>,
    /// Entry outcomes of open entries (1 = pushed a frame), innermost last.
    outcomes: Vec<u8>,
    /// Operation tallies, cumulative across [`DeltaState::restart`].
    counts: StateCounts,
}

impl DeltaState {
    /// Creates the state for a thread entering the program at `entry`: the
    /// stack holds the bootstrap anchor frame and the ID is zero.
    pub fn start(entry: MethodId) -> Self {
        Self {
            id: 0,
            frames: vec![Self::bootstrap(entry)],
            folds: Vec::new(),
            slots: Vec::new(),
            interned: HashMap::default(),
            pend_valid: 0,
            pend_site: 0,
            pend_expected: 0,
            pend_id: 0,
            calls: Vec::new(),
            outcomes: Vec::new(),
            counts: StateCounts::default(),
        }
    }

    /// Resets the encoding state for a new thread at `entry`, keeping the
    /// cumulative counts (and the stacks' allocations). The new thread
    /// shares no snapshot with the old one: the intern table starts empty.
    pub fn restart(&mut self, entry: MethodId) {
        self.id = 0;
        self.frames.clear();
        self.frames.push(Self::bootstrap(entry));
        self.folds.clear();
        self.slots.clear();
        self.interned.clear();
        self.pend_valid = 0;
        self.pend_site = 0;
        self.pend_expected = 0;
        self.pend_id = 0;
        self.calls.clear();
        self.outcomes.clear();
    }

    /// The bootstrap anchor frame of a thread entering at `entry`.
    fn bootstrap(entry: MethodId) -> Frame {
        Frame {
            tag: FrameTag::Anchor,
            node: entry,
            site: None,
            saved_id: 0,
        }
    }

    /// The current encoding ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The current encoding-stack depth (bootstrap frame included).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The operation tallies so far.
    pub fn counts(&self) -> &StateCounts {
        &self.counts
    }

    /// Caller-side hook, before the call at `site` is dispatched: masked
    /// `ID += av`, masked pending install, unconditional caller-record
    /// push. No branches.
    ///
    /// A site `src` does not instrument changes nothing. Either way the
    /// call's record stays open until the matching
    /// [`DeltaState::on_return`].
    #[inline(always)]
    pub fn on_call<S: InstructionSource>(&mut self, src: &S, site: SiteId) {
        let site = site.index();
        let w = src.site_word(site);
        let encoded = bit(w.word, SITE_ENCODED);
        let save = bit(w.word, SITE_SAVE_PENDING);
        let add = w.av & encoded.wrapping_neg();
        // Algorithm 2 guarantees the sum stays below the width capacity on
        // every *expected* path (no runtime overflow checks needed — paper
        // Section 3.2). On corrupted paths (call-path tracking disabled in
        // the presence of dynamic loading) the value is garbage either way;
        // wrap rather than abort the host, exactly like the injected
        // arithmetic would.
        debug_assert!(
            self.id.checked_add(add).is_some(),
            "encoding ID overflow outside a corrupted-path scenario"
        );
        self.id = self.id.wrapping_add(add);
        self.counts.adds += encoded;
        self.counts.pending_saves += save;
        self.calls.push(CallRec {
            add,
            flags: encoded | save << 1 | self.pend_valid << 2,
            saved_pair: self.pend_site << 32 | self.pend_expected,
            saved_id: self.pend_id,
        });
        let m = save.wrapping_neg();
        self.pend_valid = select(m, 1, self.pend_valid);
        self.pend_site = select(m, site as u64, self.pend_site);
        self.pend_expected = select(m, w.word & SID_MASK, self.pend_expected);
        self.pend_id = select(m, self.id, self.pend_id);
    }

    /// Caller-side hook, after the innermost open call returned: masked
    /// `ID -= av`, masked pending restore. Its record carries everything
    /// the return needs, so no instruction lookup happens here.
    ///
    /// # Panics
    ///
    /// Panics if no call is open.
    #[inline(always)]
    pub fn on_return(&mut self) {
        let rec = self.calls.pop().expect("on_return without an open call");
        debug_assert!(
            self.id >= rec.add,
            "encoding ID underflow outside a corrupted-path scenario"
        );
        self.id = self.id.wrapping_sub(rec.add);
        self.counts.subs += rec.flags & 1;
        let m = ((rec.flags >> 1) & 1).wrapping_neg();
        self.pend_valid = select(m, (rec.flags >> 2) & 1, self.pend_valid);
        self.pend_site = select(m, rec.saved_pair >> 32, self.pend_site);
        self.pend_expected = select(m, rec.saved_pair & SID_MASK, self.pend_expected);
        self.pend_id = select(m, rec.saved_id, self.pend_id);
    }

    /// Callee-side hook at the entry of `method`, dispatched through
    /// `via_site` (`None` when control arrived from uninstrumented code).
    /// The UCP, back-edge and anchor decisions are mask bits; only an
    /// entry that pushes a frame (rare) leaves the straight-line path.
    ///
    /// Only a site `src` instruments counts as the dispatching site: a
    /// site in an uninstrumented caller has no injected code, so the entry
    /// sees only the thread-local expectation, exactly as the paper
    /// describes. The entry stays open until the matching
    /// [`DeltaState::on_exit`].
    #[inline(always)]
    pub fn on_entry<S: InstructionSource>(
        &mut self,
        src: &S,
        method: MethodId,
        via_site: Option<SiteId>,
    ) {
        let method = method.index();
        let via_plus_1 = via_site.map_or(0, |s| s.index() + 1);
        let e = src.entry_word(method);
        let present = bit(e.word, ENTRY_PRESENT);
        let do_check = bit(e.word, ENTRY_DO_CHECK);
        let anchor = bit(e.word, ENTRY_ANCHOR);
        self.counts.sid_checks += do_check;
        // `via_plus_1 == 0` wraps to an index no source holds and loads
        // the absent word, so the no-via entry needs no separate path.
        let via = via_plus_1.wrapping_sub(1);
        let vw = src.site_word(via);
        let via_present = bit(vw.word, SITE_PRESENT);
        let mismatch = (self.pend_valid ^ 1) | u64::from(self.pend_expected != e.word & SID_MASK);
        let ucp = do_check & mismatch;
        // The MAY_BACK_EDGE bit gates the probe: on the compiled tables it
        // is almost never set, so the branch predicts.
        let back = if vw.word & SITE_MAY_BACK_EDGE != 0 {
            self.counts.backedge_probes += 1;
            src.back_edge(via, method as u32) & present
        } else {
            0
        };
        let pushed = ucp | back | anchor;
        self.outcomes.push(pushed as u8);
        if pushed != 0 {
            self.push(method, via_plus_1, via_present, ucp, back);
        }
    }

    /// The rare push path of an entry hook: the UCP > recursion > anchor
    /// priority and the frame contents (normal branches are fine here —
    /// pushes are off the straight-line path by construction).
    fn push(&mut self, method: usize, via_plus_1: usize, via_present: u64, ucp: u64, back: u64) {
        let node = MethodId::from_index(method);
        let via = (via_present != 0).then(|| SiteId::from_index(via_plus_1 - 1));
        let frame = if ucp != 0 {
            // Hazardous unexpected call path (Section 4.1): record the
            // boundary and restart the encoding at this method.
            self.counts.ucp_detections += 1;
            let (site, saved_id) = if self.pend_valid != 0 {
                (
                    Some(SiteId::from_index(self.pend_site as usize)),
                    self.pend_id,
                )
            } else {
                (None, self.id)
            };
            Frame {
                tag: FrameTag::Ucp,
                node,
                site,
                saved_id,
            }
        } else if back != 0 {
            Frame {
                tag: FrameTag::Recursion,
                node,
                site: via,
                saved_id: self.id,
            }
        } else {
            Frame {
                tag: FrameTag::Anchor,
                node,
                site: via,
                saved_id: self.id,
            }
        };
        let depth = self.frames.len();
        if !matches!(self.slots.get(depth), Some(Some(stack)) if stack.last() == Some(&frame)) {
            self.slots.truncate(depth);
        }
        self.frames.push(frame);
        self.id = 0;
        self.counts.pushes += 1;
        self.counts.stack_hwm = self.counts.stack_hwm.max(self.frames.len() as u64);
    }

    /// Callee-side hook at the exit of the innermost open entry: pops the
    /// frame that entry pushed, if any, restoring the saved ID (a rare,
    /// predictable branch).
    ///
    /// # Panics
    ///
    /// Panics if no entry is open (entry/exit hooks not balanced — a
    /// harness bug, not a recoverable condition).
    #[inline(always)]
    pub fn on_exit(&mut self) {
        if self.outcomes.pop().expect("on_exit without an open entry") != 0 {
            let frame = self
                .frames
                .pop()
                .expect("encoding stack underflow: unbalanced entry/exit hooks");
            self.folds.truncate(self.frames.len());
            self.id = frame.saved_id;
            self.counts.pops += 1;
        }
    }

    /// Captures the current calling context as an encoded value.
    ///
    /// Equal captures of one thread share one [`FrameStack`]. The
    /// snapshot slot of the current depth answers most captures with a
    /// reference-count increment: pops keep it, and so does a push of the
    /// frame it ends with. Otherwise one probe of the intern table, by the
    /// digest of the current frames, finds the stack if the thread
    /// captured it before; only a stack it has not captured is built.
    pub fn snapshot(&mut self, at: MethodId) -> EncodedContext {
        let top = self.frames.len() - 1;
        let frames = match self.slots.get(top) {
            Some(Some(stack)) => {
                self.counts.snapshots_shared += 1;
                stack.clone()
            }
            _ => {
                let stack = self.intern();
                if self.slots.len() <= top {
                    self.slots.resize(top + 1, None);
                }
                self.slots[top] = Some(stack.clone());
                stack
            }
        };
        EncodedContext {
            frames,
            id: self.id,
            at,
        }
    }

    /// The interned stack of the current frames, built (and admitted while
    /// the table has room) if the thread has not captured it before. A
    /// digest held by an interned stack with other frames builds a stack
    /// the table does not keep.
    fn intern(&mut self) -> FrameStack {
        for frame in &self.frames[self.folds.len()..] {
            let below = self.folds.last().copied().unwrap_or(FOLD_SEED);
            self.folds.push(fold_frame(below, frame));
        }
        let digest = finish_digest(self.folds[self.frames.len() - 1], self.frames.len());
        match self.interned.get(&digest) {
            Some(stack) if **stack == *self.frames => {
                self.counts.snapshots_shared += 1;
                stack.clone()
            }
            Some(_) => {
                self.counts.snapshots_built += 1;
                FrameStack::with_digest(&self.frames, digest)
            }
            None => {
                self.counts.snapshots_built += 1;
                let stack = FrameStack::with_digest(&self.frames, digest);
                if self.interned.len() < INTERN_CAPACITY {
                    self.interned.insert(digest, stack.clone());
                }
                stack
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{EncodingPlan, PlanConfig};
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

    /// main calls `mid` from `fan` sites and `mid` calls the recursion
    /// header `rec` from `fan` sites: `fan * fan` contexts enter `rec`,
    /// each pushing its own anchor frame.
    fn fan_program(fan: usize) -> (Program, Vec<SiteId>, Vec<SiteId>) {
        let mut b = ProgramBuilder::new("fan");
        let c = b.add_class("C", None);
        b.method(c, "rec", MethodKind::Static)
            .body(|f| {
                f.if_mod(
                    3,
                    0,
                    |_| {},
                    |f| {
                        f.call_arg(c, "rec", deltapath_ir::ArgExpr::ParamPlus(1));
                    },
                );
            })
            .finish();
        let mut to_rec = Vec::new();
        b.method(c, "mid", MethodKind::Static)
            .body(|f| to_rec.extend((0..fan).map(|_| f.call(c, "rec"))))
            .finish();
        let mut to_mid = Vec::new();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| to_mid.extend((0..fan).map(|_| f.call(c, "mid"))))
            .finish();
        b.entry(main);
        (b.finish().unwrap(), to_mid, to_rec)
    }

    /// Captures `rec` once per context of `fan_program`, in site order.
    fn capture_every_rec_context(
        st: &mut DeltaState,
        plan: &EncodingPlan,
        p: &Program,
        to_mid: &[SiteId],
        to_rec: &[SiteId],
    ) -> Vec<FrameStack> {
        let (mid, rec) = (method(p, "C", "mid"), method(p, "C", "rec"));
        let mut stacks = Vec::new();
        for &outer in to_mid {
            st.on_call(plan, outer);
            st.on_entry(plan, mid, Some(outer));
            for &inner in to_rec {
                st.on_call(plan, inner);
                st.on_entry(plan, rec, Some(inner));
                stacks.push(st.snapshot(rec).frames);
                st.on_exit();
                st.on_return();
            }
            st.on_exit();
            st.on_return();
        }
        stacks
    }

    #[test]
    fn intern_table_stops_admitting_at_its_capacity() {
        let (p, to_mid, to_rec) = fan_program(300);
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let mut st = DeltaState::start(p.entry());
        let first = capture_every_rec_context(&mut st, &plan, &p, &to_mid, &to_rec);
        let distinct: std::collections::HashSet<&[Frame]> = first.iter().map(|s| &s[..]).collect();
        assert_eq!(
            distinct.len(),
            300 * 300,
            "every context pushes its own frame"
        );
        assert!(first.iter().all(|s| s.len() == 2));
        let counts = *st.counts();
        assert_eq!(
            (counts.snapshots_built, counts.snapshots_shared),
            (90_000, 0)
        );
        assert_eq!(st.interned.len(), INTERN_CAPACITY, "full, and no larger");

        // The stacks admitted first stay interned; the rest are built again.
        let again = capture_every_rec_context(&mut st, &plan, &p, &to_mid, &to_rec);
        let kept = first
            .iter()
            .zip(&again)
            .map(|(a, b)| FrameStack::ptr_eq(a, b))
            .collect::<Vec<_>>();
        assert!(kept[..INTERN_CAPACITY].iter().all(|&k| k));
        assert!(kept[INTERN_CAPACITY..].iter().all(|&k| !k));
        assert_eq!(first, again, "with equal frames either way");
        let built = st.counts().snapshots_built - counts.snapshots_built;
        assert_eq!(built, (90_000 - INTERN_CAPACITY) as u64);
        assert_eq!(st.interned.len(), INTERN_CAPACITY);

        st.restart(p.entry());
        assert!(st.interned.is_empty(), "a restart empties the table");
    }

    #[test]
    fn depth_slots_survive_pops_and_pushes_of_their_frame() {
        let (p, to_mid, to_rec) = fan_program(2);
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let (mid, rec) = (method(&p, "C", "mid"), method(&p, "C", "rec"));
        let mut st = DeltaState::start(p.entry());
        st.on_call(&plan, to_mid[0]);
        st.on_entry(&plan, mid, Some(to_mid[0]));
        let below = st.snapshot(mid).frames;
        let enter_rec = |st: &mut DeltaState, site: SiteId| {
            st.on_call(&plan, site);
            st.on_entry(&plan, rec, Some(site));
        };
        let leave_rec = |st: &mut DeltaState| {
            st.on_exit();
            st.on_return();
        };

        enter_rec(&mut st, to_rec[0]);
        let top = st.snapshot(rec).frames;
        leave_rec(&mut st);
        assert_eq!(st.folds.len(), 1, "a pop drops the popped frame's fold");
        assert!(FrameStack::ptr_eq(&st.snapshot(mid).frames, &below));
        assert_eq!(st.slots.len(), 2, "the popped frame's slot stays");

        enter_rec(&mut st, to_rec[0]);
        let kept = st.slots[1]
            .clone()
            .expect("a push of its frame keeps the slot");
        assert!(FrameStack::ptr_eq(&kept, &top));
        assert!(FrameStack::ptr_eq(&st.snapshot(rec).frames, &top));
        leave_rec(&mut st);

        enter_rec(&mut st, to_rec[1]);
        assert_eq!(st.slots.len(), 1, "a push of another frame drops the slot");
        let other = st.snapshot(rec).frames;
        assert_eq!(other.last().unwrap().site, Some(to_rec[1]));
        assert_eq!(other[..1], below[..]);
        let counts = st.counts();
        assert_eq!((counts.snapshots_built, counts.snapshots_shared), (3, 2));
    }

    #[test]
    fn a_digest_collision_builds_a_stack_the_table_does_not_keep() {
        // Two saved IDs whose stacks at `rec` in `fan_program(1)` share a
        // digest, found by cycle finding over the digest of that two-frame
        // stack. A plan never produces IDs this large, so the test sets the
        // ID by hand before the entry that pushes the frame.
        const COLLIDING: [u64; 2] = [0x4300_5566_a554_949c, 0xe7fe_74f0_13b8_ba02];
        let (p, to_mid, to_rec) = fan_program(1);
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let (mid, rec) = (method(&p, "C", "mid"), method(&p, "C", "rec"));
        let mut st = DeltaState::start(p.entry());
        st.on_call(&plan, to_mid[0]);
        st.on_entry(&plan, mid, Some(to_mid[0]));
        let capture = |st: &mut DeltaState, saved_id: u64| {
            st.on_call(&plan, to_rec[0]);
            st.id = saved_id;
            st.on_entry(&plan, rec, Some(to_rec[0]));
            let stack = st.snapshot(rec).frames;
            st.on_exit();
            st.on_return();
            stack
        };
        let first = capture(&mut st, COLLIDING[0]);
        let other = capture(&mut st, COLLIDING[1]);
        assert_eq!(
            first.digest(),
            other.digest(),
            "the pinned IDs no longer collide: recompute them for the current digest"
        );
        assert_eq!(first.last().unwrap().saved_id, COLLIDING[0]);
        assert_eq!(other.last().unwrap().saved_id, COLLIDING[1], "own frames");
        assert_ne!(first, other);

        let kept = capture(&mut st, COLLIDING[0]);
        assert!(
            FrameStack::ptr_eq(&first, &kept),
            "the digest keeps its first stack"
        );
        let again = capture(&mut st, COLLIDING[1]);
        assert!(
            !FrameStack::ptr_eq(&other, &again),
            "the table keeps one stack per digest"
        );
        assert_eq!(other, again);
        let slot = capture(&mut st, COLLIDING[1]);
        assert!(FrameStack::ptr_eq(&again, &slot), "the depth slot keeps it");
        let counts = st.counts();
        assert_eq!((counts.snapshots_built, counts.snapshots_shared), (3, 2));
        assert_eq!(st.interned.len(), 1);
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
        let mut st = DeltaState::start(p.entry());
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

        fn capture<S: InstructionSource>(
            src: &S,
            main: MethodId,
            hops: [(SiteId, MethodId); 2],
        ) -> EncodedContext {
            let mut st = DeltaState::start(main);
            for (site, callee) in hops {
                st.on_call(src, site);
                st.on_entry(src, callee, Some(site));
            }
            st.snapshot(hops[1].1)
        }
        let hops = [(to_lib, call_back), (callback, target)];
        let ctx = capture(&plan, main, hops);
        let top = ctx.frames[ctx.frames.len() - 1];
        assert_eq!((top.tag, top.node), (FrameTag::Anchor, target));
        assert_eq!(top.site, None, "the bare site is not the dispatching site");
        assert_eq!(capture(&plan.compile(), main, hops), ctx);
    }
}
