//! Dense dispatch tables lowered from an [`EncodingPlan`], and the
//! branchless per-hook state machine that runs over them.
//!
//! The plan proper stores its per-site and per-entry instructions in hash
//! maps — the right shape for analysis, auditing and decoding, but not for
//! the runtime hot path, which pays a SipHash probe (and often several) per
//! dynamic call. A real deployment would not hash anything at runtime: the
//! injected bytecode *is* the instruction, specialized per site at
//! class-load time. [`CompiledPlan`] is the analog of that injection step:
//! a struct-of-arrays image indexed directly by [`SiteId::index`] /
//! [`MethodId::index`], so every encoder hook performs exactly one
//! bounds-checked array load and zero hashing.
//!
//! Each call site lowers to a site word: the 64-bit addition value plus a
//! packed action word holding the expected SID and the
//! present/encoded/tracked flags, with the plan-wide call-path-tracking
//! switch pre-ANDed in (`SAVE_PENDING = cpt && tracked`), so the hot path
//! tests single bits instead of re-deriving config conjunctions. Each
//! instrumented method lowers to an entry word the same way
//! (`DO_CHECK = cpt && check_sid`). Absent entries are the all-zero word —
//! the `PRESENT` bit doubles as the "instrumented at all" test — which
//! lets lookups be unconditional loads with a zero default instead of an
//! `Option` dance. Recursion back edges lower into a two-level lookup
//! table (per-site offsets over a flat callee array), the only stored form
//! of the plan's back-edge pair set.
//!
//! The four per-hook methods ([`CompiledPlan::batch_call`],
//! [`CompiledPlan::batch_return`], [`CompiledPlan::batch_entry`],
//! [`CompiledPlan::batch_exit`]) apply those words to a [`BatchState`]
//! with mask arithmetic: the CPT/check/track decisions are bit-selects,
//! not branches, and only the genuinely rare events (a frame push at an
//! entry, a pop at an exit) leave the straight-line path.
//!
//! The compiled image is a pure projection of the plan it was lowered
//! from: it can always be re-derived, carries a copy of nothing mutable,
//! and must be rebuilt whenever the plan changes (re-analysis after
//! dynamic class loading). [`CompiledPlan::instruction_fingerprint`]
//! renders the tables back into the exact byte format of
//! [`EncodingPlan::instruction_fingerprint`], so equality of the two
//! strings — checked by the `DP040` audit — proves the lowering lost
//! nothing.

use deltapath_ir::{MethodId, SiteId};

use crate::context::{EncodedContext, Frame, FrameStack, FrameTag};
use crate::plan::{render_instructions, EncodingPlan, EntryInstr, SiteInstr};
use crate::sid::Sid;
use crate::state::StateCounts;

/// Bit layout shared by both word kinds: the low 32 bits hold a raw SID.
const SID_MASK: u64 = 0xFFFF_FFFF;

/// The slot holds an instruction at all (the site/method is instrumented).
const SITE_PRESENT: u64 = 1 << 32;
/// The site's ID arithmetic is emitted.
const SITE_ENCODED: u64 = 1 << 33;
/// The raw `tracked` flag from the plan (config-independent).
const SITE_TRACKED: u64 = 1 << 34;
/// `cpt && tracked`, pre-fused: the hook saves the pending expectation.
const SITE_SAVE_PENDING: u64 = 1 << 35;
/// At least one `(this site, callee)` pair is a recursion back edge, so a
/// dispatch through this site must consult the back-edge table.
const SITE_MAY_BACK_EDGE: u64 = 1 << 36;

/// The slot holds an entry instruction (the method is instrumented).
const ENTRY_PRESENT: u64 = 1 << 32;
/// The method is an anchor: its entry pushes and resets the ID.
const ENTRY_ANCHOR: u64 = 1 << 33;
/// The raw `check_sid` flag from the plan (config-independent).
const ENTRY_CHECK: u64 = 1 << 34;
/// `cpt && check_sid`, pre-fused: the hook performs the SID comparison.
const ENTRY_DO_CHECK: u64 = 1 << 35;

/// One call site's fused action word: the addition value alongside a
/// packed word of flags and the expected SID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SiteWord {
    av: u64,
    word: u64,
}

impl SiteWord {
    /// The word of an uninstrumented site: no flags, no arithmetic.
    const ABSENT: SiteWord = SiteWord { av: 0, word: 0 };

    /// Whether the site carries any instrumentation.
    fn present(self) -> bool {
        self.word & SITE_PRESENT != 0
    }

    /// Whether the ID arithmetic is emitted.
    fn encoded(self) -> bool {
        self.word & SITE_ENCODED != 0
    }

    /// The raw `tracked` flag (before fusing with the CPT switch).
    fn tracked(self) -> bool {
        self.word & SITE_TRACKED != 0
    }

    /// The SID every statically known target shares.
    fn expected_sid(self) -> Sid {
        Sid::from_raw((self.word & SID_MASK) as u32)
    }
}

/// One method entry's fused action word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EntryWord {
    word: u64,
}

impl EntryWord {
    /// The word of an uninstrumented method.
    const ABSENT: EntryWord = EntryWord { word: 0 };

    /// Whether the method entry carries any instrumentation.
    fn present(self) -> bool {
        self.word & ENTRY_PRESENT != 0
    }

    /// Whether the entry pushes an anchor frame.
    fn is_anchor(self) -> bool {
        self.word & ENTRY_ANCHOR != 0
    }

    /// The raw `check_sid` flag (before fusing with the CPT switch).
    fn check_sid(self) -> bool {
        self.word & ENTRY_CHECK != 0
    }

    /// The method's SID.
    fn sid(self) -> Sid {
        Sid::from_raw((self.word & SID_MASK) as u32)
    }
}

/// The dense dispatch-table image of an [`EncodingPlan`]: what the injected
/// instrumentation would be, laid out for one-load lookups.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    cpt: bool,
    entry_method: MethodId,
    /// Site action words, indexed by [`SiteId::index`].
    sites: Vec<SiteWord>,
    /// The caller method of each present site (cold — only decod-/audit-side
    /// re-expansion reads it). `u32::MAX` marks an absent slot.
    site_callers: Vec<u32>,
    /// Entry action words, indexed by [`MethodId::index`].
    entries: Vec<EntryWord>,
    /// First level of the back-edge lookup table: per-site offsets into
    /// [`Self::back_edge_callees`], indexed by [`SiteId::index`] and sized
    /// to the highest back-edge site only (sites past the end have no back
    /// edges). `off[s]..off[s+1]` is site `s`'s callee slice.
    back_edge_off: Vec<u32>,
    /// Second level: the back-edge callee methods, grouped by site and
    /// sorted within each group.
    back_edge_callees: Vec<u32>,
}

impl CompiledPlan {
    /// Lowers `plan` into tables. Use [`EncodingPlan::compile`].
    pub(crate) fn lower(plan: &EncodingPlan) -> Self {
        let cpt = plan.config().cpt;
        let site_slots = plan
            .site_instrs()
            .map(|(s, _)| s.index() + 1)
            .max()
            .unwrap_or(0);
        let mut sites = vec![SiteWord::ABSENT; site_slots];
        let mut site_callers = vec![u32::MAX; site_slots];
        for (site, instr) in plan.site_instrs() {
            let mut word = SITE_PRESENT | u64::from(instr.expected_sid.as_u32());
            if instr.encoded {
                word |= SITE_ENCODED;
            }
            if instr.tracked {
                word |= SITE_TRACKED;
                if cpt {
                    word |= SITE_SAVE_PENDING;
                }
            }
            sites[site.index()] = SiteWord { av: instr.av, word };
            site_callers[site.index()] = instr.caller.as_u32();
        }

        let entry_slots = plan
            .entry_instrs()
            .map(|(m, _)| m.index() + 1)
            .max()
            .unwrap_or(0);
        let mut entries = vec![EntryWord::ABSENT; entry_slots];
        for (method, instr) in plan.entry_instrs() {
            let mut word = ENTRY_PRESENT | u64::from(instr.sid.as_u32());
            if instr.is_anchor {
                word |= ENTRY_ANCHOR;
            }
            if instr.check_sid {
                word |= ENTRY_CHECK;
                if cpt {
                    word |= ENTRY_DO_CHECK;
                }
            }
            entries[method.index()] = EntryWord { word };
        }

        let mut back_edge_calls: Vec<(u32, u32)> = plan
            .back_edge_call_pairs()
            .map(|(s, m)| (s.as_u32(), m.as_u32()))
            .collect();
        back_edge_calls.sort_unstable();
        for &(site, _) in &back_edge_calls {
            // A back-edge site always lies in an instrumented caller, so its
            // slot exists; the guard keeps a corrupted plan from panicking
            // here instead of failing the DP040 audit.
            if let Some(w) = sites.get_mut(site as usize) {
                w.word |= SITE_MAY_BACK_EDGE;
            }
        }
        let (back_edge_off, back_edge_callees) = Self::build_back_edge_table(&back_edge_calls);

        Self {
            cpt,
            entry_method: plan.entry_method(),
            sites,
            site_callers,
            entries,
            back_edge_off,
            back_edge_callees,
        }
    }

    /// Builds the two-level back-edge lookup table from the sorted pair
    /// list: a per-site offset array (sized to the highest back-edge site)
    /// over a flat callee array. Replacing the binary search with two array
    /// loads plus a scan of a tiny, usually one-element slice makes the
    /// cold lookup O(1) and branch-predictable.
    fn build_back_edge_table(sorted_pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
        let slots = sorted_pairs.last().map_or(0, |&(s, _)| s as usize + 1);
        let mut off = vec![0u32; slots + 1];
        for &(site, _) in sorted_pairs {
            off[site as usize + 1] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let callees = sorted_pairs.iter().map(|&(_, m)| m).collect();
        (off, callees)
    }

    /// Whether the plan was compiled with call-path tracking on.
    pub fn cpt(&self) -> bool {
        self.cpt
    }

    /// The program's entry method.
    pub fn entry_method(&self) -> MethodId {
        self.entry_method
    }

    /// The action word of `site` — the absent word when the site is
    /// uninstrumented or out of range. One bounds-checked load, no hashing.
    #[inline]
    fn site(&self, site: SiteId) -> SiteWord {
        self.sites
            .get(site.index())
            .copied()
            .unwrap_or(SiteWord::ABSENT)
    }

    /// The action word of the entry of `method` — the absent word when the
    /// method is uninstrumented or out of range.
    #[inline]
    fn entry(&self, method: MethodId) -> EntryWord {
        self.entries
            .get(method.index())
            .copied()
            .unwrap_or(EntryWord::ABSENT)
    }

    /// The back-edge lookup as mask arithmetic: 1 when `(site, callee)` is
    /// a recursion back edge, 0 otherwise. Two array loads bound the
    /// site's callee slice in the two-level table; the slice is scanned
    /// with a branchless OR-fold (it holds the recursive targets of *one*
    /// site — almost always a single element).
    #[inline(always)]
    fn back_edge_probe(&self, site: usize, callee: u32) -> u64 {
        // Sites past the offset array have no back edges; a site with the
        // MAY_BACK_EDGE bit set is always in range, so the hot (guarded)
        // path takes this branch predictably.
        if site + 1 >= self.back_edge_off.len() {
            return 0;
        }
        let lo = self.back_edge_off[site] as usize;
        let hi = self.back_edge_off[site + 1] as usize;
        let mut hit = 0u64;
        for &c in &self.back_edge_callees[lo..hi] {
            hit |= u64::from(c == callee);
        }
        hit
    }

    /// Re-expands the action word of `site` into the plan's instruction
    /// form, or `None` for an absent slot. Exact inverse of the lowering —
    /// pinned by the round-trip tests and the `DP040` audit.
    pub fn site_instr(&self, site: SiteId) -> Option<SiteInstr> {
        let w = self.site(site);
        if !w.present() {
            return None;
        }
        let caller = self.site_callers[site.index()];
        debug_assert_ne!(caller, u32::MAX, "present site without a caller");
        Some(SiteInstr {
            av: w.av,
            encoded: w.encoded(),
            expected_sid: w.expected_sid(),
            caller: MethodId::from_index(caller as usize),
            tracked: w.tracked(),
        })
    }

    /// Re-expands the action word of `method` into the plan's instruction
    /// form, or `None` for an absent slot.
    pub fn entry_instr(&self, method: MethodId) -> Option<EntryInstr> {
        let w = self.entry(method);
        if !w.present() {
            return None;
        }
        Some(EntryInstr {
            sid: w.sid(),
            is_anchor: w.is_anchor(),
            check_sid: w.check_sid(),
        })
    }

    /// All sites with a present action word.
    pub fn present_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, w)| w.present())
            .map(|(i, _)| SiteId::from_index(i))
    }

    /// All methods with a present entry word.
    pub fn present_entries(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, w)| w.present())
            .map(|(i, _)| MethodId::from_index(i))
    }

    /// All `(site, callee)` recursion back-edge pairs, sorted, read back
    /// from the two-level lookup table the entry hook probes. The table is
    /// the only stored form of the pair set, so the `DP040` audit checks
    /// exactly what the hooks consult.
    pub fn back_edge_call_pairs(&self) -> impl Iterator<Item = (SiteId, MethodId)> + '_ {
        (0..self.back_edge_off.len().saturating_sub(1)).flat_map(move |site| {
            let lo = self.back_edge_off[site] as usize;
            let hi = self.back_edge_off[site + 1] as usize;
            self.back_edge_callees[lo..hi]
                .iter()
                .map(move |&m| (SiteId::from_index(site), MethodId::from_index(m as usize)))
        })
    }

    /// Number of recursion back-edge pairs in the lookup table.
    pub fn back_edge_pair_count(&self) -> usize {
        self.back_edge_callees.len()
    }

    /// Number of sites with at least one back-edge callee (non-empty
    /// buckets in the lookup table's first level).
    pub fn back_edge_site_count(&self) -> usize {
        (0..self.back_edge_off.len().saturating_sub(1))
            .filter(|&s| self.back_edge_off[s] != self.back_edge_off[s + 1])
            .count()
    }

    /// Number of present site words.
    pub fn site_count(&self) -> usize {
        self.sites.iter().filter(|w| w.present()).count()
    }

    /// Number of present entry words.
    pub fn entry_count(&self) -> usize {
        self.entries.iter().filter(|w| w.present()).count()
    }

    /// Total table footprint in bytes (hot words only, excluding the cold
    /// caller array) — the price of the dense layout.
    pub fn table_bytes(&self) -> usize {
        self.sites.len() * std::mem::size_of::<SiteWord>()
            + self.entries.len() * std::mem::size_of::<EntryWord>()
            + self.back_edge_off.len() * std::mem::size_of::<u32>()
            + self.back_edge_callees.len() * std::mem::size_of::<u32>()
    }

    /// Renders the tables back into the exact byte format of
    /// [`EncodingPlan::instruction_fingerprint`]. Byte equality of the two
    /// strings proves the lowering preserved every instruction.
    pub fn instruction_fingerprint(&self) -> String {
        render_instructions(
            self.present_sites().map(|s| {
                let instr = self.site_instr(s).expect("present site re-expands");
                (s, instr)
            }),
            self.present_entries().map(|m| {
                let instr = self.entry_instr(m).expect("present entry re-expands");
                (m, instr)
            }),
            self.back_edge_call_pairs(),
        )
    }
}

/// One open call's caller-saved record: what the matching return must
/// subtract and restore. Pushed unconditionally per call hook — masked
/// stores replace the `Option` fields of the reference state machine's
/// call record, keeping the call/return pair branch-free.
#[derive(Clone, Copy, Debug, Default)]
struct BatchCallRec {
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

/// Per-thread encoding state of the batched state machine: the mirror of
/// [`DeltaState`](crate::DeltaState), with the pending expectation held as
/// mask-selectable raw words and the caller-saved records as fixed-size
/// masked words.
///
/// Equality with the reference state machine — ID, depth, captures and
/// [`StateCounts`] after every hook — is pinned by the `batched_encoder`
/// differential suite.
#[derive(Clone, Debug)]
pub struct BatchState {
    /// The current encoding ID.
    id: u64,
    /// The encoding stack, bootstrap frame included.
    frames: Vec<Frame>,
    /// The last snapshot of `frames`, shared by every capture until the
    /// next push, pop or restart invalidates it.
    shared: Option<FrameStack>,
    /// Pending-expectation validity: 0 or 1.
    pend_valid: u64,
    /// Pending site index (meaningful only when `pend_valid == 1`).
    pend_site: u64,
    /// Pending expected SID.
    pend_expected: u64,
    /// Pending ID-at-call.
    pend_id: u64,
    /// Caller-saved records of open calls, innermost last.
    calls: Vec<BatchCallRec>,
    /// Entry outcomes of open entries (1 = pushed a frame), innermost last.
    outcomes: Vec<u8>,
    /// Operation tallies, cumulative across [`BatchState::restart`].
    counts: StateCounts,
}

impl BatchState {
    /// The state of a thread entering the program at `entry`: the stack
    /// holds the bootstrap anchor frame and the ID is zero.
    pub fn start(entry: MethodId) -> Self {
        Self {
            id: 0,
            frames: vec![Frame {
                tag: FrameTag::Anchor,
                node: entry,
                site: None,
                saved_id: 0,
            }],
            shared: None,
            pend_valid: 0,
            pend_site: 0,
            pend_expected: 0,
            pend_id: 0,
            calls: Vec::with_capacity(256),
            outcomes: Vec::with_capacity(256),
            counts: StateCounts::default(),
        }
    }

    /// Resets the encoding state for a new thread/replay at `entry`,
    /// keeping the cumulative counts — the batched analog of
    /// [`DeltaState::restart`](crate::DeltaState::restart).
    pub fn restart(&mut self, entry: MethodId) {
        self.id = 0;
        self.frames.clear();
        self.frames.push(Frame {
            tag: FrameTag::Anchor,
            node: entry,
            site: None,
            saved_id: 0,
        });
        self.shared = None;
        self.pend_valid = 0;
        self.pend_site = 0;
        self.pend_expected = 0;
        self.pend_id = 0;
        self.calls.clear();
        self.outcomes.clear();
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

    /// Captures the current calling context as an encoded value. Captures
    /// under an unchanged stack share one [`FrameStack`]: only the first
    /// after a push, pop or restart copies the frames.
    pub fn snapshot(&mut self, at: MethodId) -> EncodedContext {
        let frames = match &self.shared {
            Some(stack) => {
                self.counts.snapshots_shared += 1;
                stack.clone()
            }
            None => {
                self.counts.snapshots_built += 1;
                self.shared.insert(self.frames.as_slice().into()).clone()
            }
        };
        EncodedContext {
            frames,
            id: self.id,
            at,
        }
    }
}

/// `(a & mask) | (b & !mask)` — the branchless select the hooks use for
/// every conditional state update (`mask` is all-ones or all-zeros).
#[inline(always)]
fn select(mask: u64, a: u64, b: u64) -> u64 {
    (a & mask) | (b & !mask)
}

impl CompiledPlan {
    /// Applies an `on_call` hook at `site` to `state`: masked `ID += av`,
    /// masked pending install, unconditional caller-record push. No
    /// branches.
    #[inline(always)]
    pub fn batch_call(&self, state: &mut BatchState, site: SiteId) {
        let site = site.index();
        let w = self.sites.get(site).copied().unwrap_or(SiteWord::ABSENT);
        let encoded = (w.word >> 33) & 1; // SITE_ENCODED
        let save = (w.word >> 35) & 1; // SITE_SAVE_PENDING
        let add = w.av & encoded.wrapping_neg();
        debug_assert!(
            state.id.checked_add(add).is_some(),
            "encoding ID overflow outside a corrupted-path scenario"
        );
        state.id = state.id.wrapping_add(add);
        state.counts.adds += encoded;
        state.counts.pending_saves += save;
        state.calls.push(BatchCallRec {
            add,
            flags: encoded | save << 1 | state.pend_valid << 2,
            saved_pair: state.pend_site << 32 | state.pend_expected,
            saved_id: state.pend_id,
        });
        let m = save.wrapping_neg();
        state.pend_valid = select(m, 1, state.pend_valid);
        state.pend_site = select(m, site as u64, state.pend_site);
        state.pend_expected = select(m, w.word & SID_MASK, state.pend_expected);
        state.pend_id = select(m, state.id, state.pend_id);
    }

    /// Applies the `on_return` hook matching the innermost open call:
    /// masked `ID -= av`, masked pending restore. No branches beyond the
    /// record pop.
    ///
    /// # Panics
    ///
    /// Panics if no call is open on `state`.
    #[inline(always)]
    pub fn batch_return(&self, state: &mut BatchState) {
        let rec = state.calls.pop().expect("balanced hook stream prefix");
        debug_assert!(
            state.id >= rec.add,
            "encoding ID underflow outside a corrupted-path scenario"
        );
        state.id = state.id.wrapping_sub(rec.add);
        state.counts.subs += rec.flags & 1;
        let m = ((rec.flags >> 1) & 1).wrapping_neg();
        state.pend_valid = select(m, (rec.flags >> 2) & 1, state.pend_valid);
        state.pend_site = select(m, rec.saved_pair >> 32, state.pend_site);
        state.pend_expected = select(m, rec.saved_pair & 0xFFFF_FFFF, state.pend_expected);
        state.pend_id = select(m, rec.saved_id, state.pend_id);
    }

    /// Applies an `on_entry` hook of `method` to `state`, dispatched via
    /// `via` (`None` when control arrived from uninstrumented code): the
    /// UCP / back-edge / anchor decision computed as mask bits; only an
    /// entry that actually pushes a frame (rare) leaves the straight-line
    /// path.
    #[inline(always)]
    pub fn batch_entry(&self, state: &mut BatchState, method: MethodId, via: Option<SiteId>) {
        let method = method.index();
        let via_plus_1 = via.map_or(0, |s| s.index() + 1);
        let e = self
            .entries
            .get(method)
            .copied()
            .unwrap_or(EntryWord::ABSENT);
        let present = (e.word >> 32) & 1; // ENTRY_PRESENT
        let do_check = (e.word >> 35) & 1; // ENTRY_DO_CHECK
        let anchor = (e.word >> 33) & 1; // ENTRY_ANCHOR
        state.counts.sid_checks += do_check;
        // `via_plus_1 == 0` wraps to an out-of-range index and loads the
        // absent word, so the no-via entry needs no separate path.
        let vw = self
            .sites
            .get(via_plus_1.wrapping_sub(1))
            .copied()
            .unwrap_or(SiteWord::ABSENT);
        let via_present = (vw.word >> 32) & 1; // SITE_PRESENT
        let mismatch = (state.pend_valid ^ 1) | u64::from(state.pend_expected != e.word & SID_MASK);
        let ucp = do_check & mismatch & 1;
        // The MAY_BACK_EDGE bit gates the table probe: almost never set,
        // so the branch predicts; the probe itself is two loads plus a
        // branchless fold over a tiny slice.
        let back = if vw.word & SITE_MAY_BACK_EDGE != 0 {
            state.counts.backedge_probes += 1;
            self.back_edge_probe(via_plus_1.wrapping_sub(1), method as u32) & present
        } else {
            0
        };
        let pushed = ucp | back | anchor;
        state.outcomes.push(pushed as u8);
        if pushed != 0 {
            self.batch_entry_push(state, method, via_plus_1, via_present, ucp, back);
        }
    }

    /// The rare push path of an entry hook: reproduces the reference state
    /// machine's UCP > recursion > anchor priority and frame contents
    /// exactly (normal branches are fine here — pushes are off the
    /// straight-line path by construction).
    fn batch_entry_push(
        &self,
        state: &mut BatchState,
        method: usize,
        via_plus_1: usize,
        via_present: u64,
        ucp: u64,
        back: u64,
    ) {
        let node = MethodId::from_index(method);
        let via = (via_present != 0).then(|| SiteId::from_index(via_plus_1 - 1));
        let frame = if ucp != 0 {
            state.counts.ucp_detections += 1;
            let (site, saved_id) = if state.pend_valid != 0 {
                (
                    Some(SiteId::from_index(state.pend_site as usize)),
                    state.pend_id,
                )
            } else {
                (None, state.id)
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
                saved_id: state.id,
            }
        } else {
            Frame {
                tag: FrameTag::Anchor,
                node,
                site: via,
                saved_id: state.id,
            }
        };
        state.frames.push(frame);
        state.shared = None;
        state.id = 0;
        state.counts.pushes += 1;
        state.counts.stack_hwm = state.counts.stack_hwm.max(state.frames.len() as u64);
    }

    /// Applies the `on_exit` hook matching the innermost open entry: pop
    /// the entry's outcome; restore the saved ID when the entry pushed
    /// (rare, predictable branch).
    ///
    /// # Panics
    ///
    /// Panics if no entry is open on `state`.
    #[inline(always)]
    pub fn batch_exit(&self, state: &mut BatchState) {
        let outcome = state.outcomes.pop().expect("balanced hook stream prefix");
        if outcome != 0 {
            let frame = state
                .frames
                .pop()
                .expect("encoding stack underflow: unbalanced entry/exit hooks");
            state.shared = None;
            state.id = frame.saved_id;
            state.counts.pops += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use crate::width::EncodingWidth;
    use deltapath_ir::{MethodKind, Program, ProgramBuilder};

    fn recursive_program() -> Program {
        let mut b = ProgramBuilder::new("compiled");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        b.method(c, "rec", MethodKind::Static)
            .body(|f| {
                f.if_mod(
                    3,
                    0,
                    |_| {},
                    |f| {
                        f.call_arg(
                            deltapath_ir::ClassId::from_index(0),
                            "rec",
                            deltapath_ir::ArgExpr::ParamPlus(1),
                        );
                    },
                );
            })
            .finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "leaf");
                f.call(c, "leaf");
                f.call(deltapath_ir::ClassId::from_index(0), "rec");
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn round_trips_every_instruction() {
        let p = recursive_program();
        for cpt in [true, false] {
            let cfg = PlanConfig::default().with_cpt(cpt);
            let plan = EncodingPlan::analyze(&p, &cfg).unwrap();
            let compiled = plan.compile();
            assert_eq!(compiled.cpt(), cpt);
            assert_eq!(compiled.entry_method(), plan.entry_method());
            for (site, instr) in plan.site_instrs() {
                assert_eq!(compiled.site_instr(site), Some(*instr), "site {site:?}");
            }
            for (method, instr) in plan.entry_instrs() {
                assert_eq!(
                    compiled.entry_instr(method),
                    Some(*instr),
                    "entry {method:?}"
                );
            }
            assert_eq!(compiled.site_count(), plan.site_instrs().count());
            assert_eq!(compiled.entry_count(), plan.entry_instrs().count());
            let mut want: Vec<_> = plan.back_edge_call_pairs().collect();
            want.sort_unstable();
            let got: Vec<_> = compiled.back_edge_call_pairs().collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn fused_flags_depend_on_cpt() {
        let p = recursive_program();
        let plan_on = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let plan_off = EncodingPlan::analyze(&p, &PlanConfig::default().with_cpt(false)).unwrap();
        let on = plan_on.compile();
        let off = plan_off.compile();
        for site in on.present_sites() {
            let w = on.site(site);
            assert_eq!(w.word & SITE_SAVE_PENDING != 0, w.tracked());
            assert_eq!(off.site(site).word & SITE_SAVE_PENDING, 0);
        }
        for method in on.present_entries() {
            let w = on.entry(method);
            assert_eq!(w.word & ENTRY_DO_CHECK != 0, w.check_sid());
            assert_eq!(off.entry(method).word & ENTRY_DO_CHECK, 0);
        }
    }

    #[test]
    fn absent_slots_are_zero_words() {
        let p = recursive_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let bogus_site = SiteId::from_index(9_999);
        let bogus_method = MethodId::from_index(9_999);
        assert_eq!(compiled.site(bogus_site), SiteWord::ABSENT);
        assert_eq!(compiled.entry(bogus_method), EntryWord::ABSENT);
        assert_eq!(compiled.site_instr(bogus_site), None);
        assert_eq!(compiled.entry_instr(bogus_method), None);
        assert!(!compiled.site(bogus_site).present());
    }

    #[test]
    fn back_edges_survive_lowering() {
        let p = recursive_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let may_back_edge = |site: SiteId| compiled.site(site).word & SITE_MAY_BACK_EDGE != 0;
        let mut saw_back_edge = false;
        for (site, callee) in plan.back_edge_call_pairs() {
            saw_back_edge = true;
            assert_eq!(compiled.back_edge_probe(site.index(), callee.as_u32()), 1);
            assert!(may_back_edge(site));
        }
        assert!(saw_back_edge, "fixture must contain recursion");
        assert_eq!(
            compiled.back_edge_pair_count(),
            plan.back_edge_call_pairs().count()
        );
        for site in compiled.present_sites() {
            for callee in compiled.present_entries() {
                let probe = compiled.back_edge_probe(site.index(), callee.as_u32());
                let want = plan.back_edge_call_pairs().any(|p| p == (site, callee));
                assert_eq!(probe == 1, want, "({site:?}, {callee:?})");
                assert!(may_back_edge(site) || probe == 0);
            }
        }
    }

    #[test]
    fn fingerprint_matches_plan_sections() {
        let p = recursive_program();
        for width in [EncodingWidth::U64, EncodingWidth::new(8)] {
            let cfg = PlanConfig::default().with_width(width);
            let plan = EncodingPlan::analyze(&p, &cfg).unwrap();
            let compiled = plan.compile();
            assert_eq!(
                compiled.instruction_fingerprint(),
                plan.instruction_fingerprint()
            );
            assert!(plan
                .fingerprint()
                .ends_with(&plan.instruction_fingerprint()));
        }
    }
}
