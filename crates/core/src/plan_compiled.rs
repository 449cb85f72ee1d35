//! Dense dispatch tables lowered from an [`EncodingPlan`], and the
//! instruction words the DeltaPath state machine runs on.
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
//! [`InstructionSource`] is where [`DeltaState`](crate::DeltaState) finds
//! those words. [`CompiledPlan`] hands them out of its tables (the
//! deployment path); [`EncodingPlan`] probes its hash maps and lowers what
//! it finds through the same [`SiteWord::lower`] and [`EntryWord::lower`]
//! (the paper-literal reference). Neither the trait nor the word types are
//! re-exported, so no other crate can add a source.
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

use crate::plan::{render_instructions, EncodingPlan, EntryInstr, SiteInstr};
use crate::sid::Sid;

/// Bit layout shared by both word kinds: the low 32 bits hold a raw SID.
pub(crate) const SID_MASK: u64 = 0xFFFF_FFFF;

/// The slot holds an instruction at all (the site/method is instrumented).
pub(crate) const SITE_PRESENT: u64 = 1 << 32;
/// The site's ID arithmetic is emitted.
pub(crate) const SITE_ENCODED: u64 = 1 << 33;
/// The raw `tracked` flag from the plan (config-independent).
const SITE_TRACKED: u64 = 1 << 34;
/// `cpt && tracked`, pre-fused: the hook saves the pending expectation.
pub(crate) const SITE_SAVE_PENDING: u64 = 1 << 35;
/// At least one `(this site, callee)` pair may be a recursion back edge,
/// so a dispatch through this site must probe the source's back edges.
pub(crate) const SITE_MAY_BACK_EDGE: u64 = 1 << 36;

/// The slot holds an entry instruction (the method is instrumented).
pub(crate) const ENTRY_PRESENT: u64 = 1 << 32;
/// The method is an anchor: its entry pushes and resets the ID.
pub(crate) const ENTRY_ANCHOR: u64 = 1 << 33;
/// The raw `check_sid` flag from the plan (config-independent).
const ENTRY_CHECK: u64 = 1 << 34;
/// `cpt && check_sid`, pre-fused: the hook performs the SID comparison.
pub(crate) const ENTRY_DO_CHECK: u64 = 1 << 35;

/// One call site's fused action word: the addition value alongside a
/// packed word of flags and the expected SID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteWord {
    pub(crate) av: u64,
    pub(crate) word: u64,
}

impl SiteWord {
    /// The word of an uninstrumented site: no flags, no arithmetic.
    const ABSENT: SiteWord = SiteWord { av: 0, word: 0 };

    /// Lowers one site instruction under the plan-wide call-path-tracking
    /// switch `cpt`. The may-back-edge bit is the source's to add.
    fn lower(instr: &SiteInstr, cpt: bool) -> Self {
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
        SiteWord { av: instr.av, word }
    }

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
pub struct EntryWord {
    pub(crate) word: u64,
}

impl EntryWord {
    /// The word of an uninstrumented method.
    const ABSENT: EntryWord = EntryWord { word: 0 };

    /// Lowers one entry instruction under the plan-wide call-path-tracking
    /// switch `cpt`.
    fn lower(instr: &EntryInstr, cpt: bool) -> Self {
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
        EntryWord { word }
    }

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

/// Where the DeltaPath state machine finds its instructions: a site word,
/// an entry word and a back-edge probe, each looked up by raw index. An
/// index the source holds no instruction for yields the absent word.
pub trait InstructionSource {
    /// The action word of the site with index `site`.
    fn site_word(&self, site: usize) -> SiteWord;

    /// The action word of the entry of the method with index `method`.
    fn entry_word(&self, method: usize) -> EntryWord;

    /// 1 when dispatching site `site` to method `callee` takes a recursion
    /// back edge, 0 otherwise. Asked only for a site whose word carries
    /// the may-back-edge bit.
    fn back_edge(&self, site: usize, callee: u32) -> u64;
}

/// The deployment source: one bounds-checked load per word, no hashing.
impl InstructionSource for CompiledPlan {
    #[inline(always)]
    fn site_word(&self, site: usize) -> SiteWord {
        self.sites.get(site).copied().unwrap_or(SiteWord::ABSENT)
    }

    #[inline(always)]
    fn entry_word(&self, method: usize) -> EntryWord {
        self.entries
            .get(method)
            .copied()
            .unwrap_or(EntryWord::ABSENT)
    }

    /// The back-edge lookup as mask arithmetic. Two array loads bound the
    /// site's callee slice in the two-level table; the slice is scanned
    /// with a branchless OR-fold (it holds the recursive targets of *one*
    /// site — almost always a single element).
    #[inline(always)]
    fn back_edge(&self, site: usize, callee: u32) -> u64 {
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
}

/// The reference source: the plan's hash maps, probed per hook and lowered
/// on the spot. Every instrumented site carries the may-back-edge bit, so
/// every dispatch through one probes the back-edge pair set.
impl InstructionSource for EncodingPlan {
    fn site_word(&self, site: usize) -> SiteWord {
        // The entry hook asks for `usize::MAX` when no site dispatched.
        if site > u32::MAX as usize {
            return SiteWord::ABSENT;
        }
        self.site(SiteId::from_index(site))
            .map_or(SiteWord::ABSENT, |instr| {
                let mut w = SiteWord::lower(instr, self.config().cpt);
                w.word |= SITE_MAY_BACK_EDGE;
                w
            })
    }

    fn entry_word(&self, method: usize) -> EntryWord {
        self.entry(MethodId::from_index(method))
            .map_or(EntryWord::ABSENT, |instr| {
                EntryWord::lower(instr, self.config().cpt)
            })
    }

    fn back_edge(&self, site: usize, callee: u32) -> u64 {
        u64::from(self.is_back_edge_call(
            SiteId::from_index(site),
            MethodId::from_index(callee as usize),
        ))
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
            sites[site.index()] = SiteWord::lower(instr, cpt);
            site_callers[site.index()] = instr.caller.as_u32();
        }

        let entry_slots = plan
            .entry_instrs()
            .map(|(m, _)| m.index() + 1)
            .max()
            .unwrap_or(0);
        let mut entries = vec![EntryWord::ABSENT; entry_slots];
        for (method, instr) in plan.entry_instrs() {
            entries[method.index()] = EntryWord::lower(instr, cpt);
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

    /// Re-expands the action word of `site` into the plan's instruction
    /// form, or `None` for an absent slot. Exact inverse of the lowering —
    /// pinned by the round-trip tests and the `DP040` audit.
    pub fn site_instr(&self, site: SiteId) -> Option<SiteInstr> {
        let w = self.site_word(site.index());
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
        let w = self.entry_word(method.index());
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
                // Both sources hand out one word; only the map source
                // marks every instrumented site as a possible back edge.
                let mut word = compiled.site_word(site.index());
                word.word |= SITE_MAY_BACK_EDGE;
                assert_eq!(plan.site_word(site.index()), word, "site {site:?}");
            }
            for (method, instr) in plan.entry_instrs() {
                assert_eq!(
                    compiled.entry_instr(method),
                    Some(*instr),
                    "entry {method:?}"
                );
                let i = method.index();
                assert_eq!(plan.entry_word(i), compiled.entry_word(i));
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
            let w = on.site_word(site.index());
            assert_eq!(w.word & SITE_SAVE_PENDING != 0, w.tracked());
            assert_eq!(off.site_word(site.index()).word & SITE_SAVE_PENDING, 0);
        }
        for method in on.present_entries() {
            let w = on.entry_word(method.index());
            assert_eq!(w.word & ENTRY_DO_CHECK != 0, w.check_sid());
            assert_eq!(off.entry_word(method.index()).word & ENTRY_DO_CHECK, 0);
        }
    }

    #[test]
    fn absent_slots_are_zero_words() {
        let p = recursive_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let bogus_site = SiteId::from_index(9_999);
        let bogus_method = MethodId::from_index(9_999);
        assert_eq!(compiled.entry_word(bogus_method.index()), EntryWord::ABSENT);
        assert_eq!(compiled.site_instr(bogus_site), None);
        assert_eq!(compiled.entry_instr(bogus_method), None);
        assert!(!compiled.site_word(bogus_site.index()).present());
        // The entry hook loads the site word at `usize::MAX` when no site
        // dispatched; both sources answer with the absent word.
        for index in [bogus_site.index(), usize::MAX] {
            assert_eq!(compiled.site_word(index), SiteWord::ABSENT);
            assert_eq!(plan.site_word(index), SiteWord::ABSENT);
        }
        assert_eq!(plan.entry_word(bogus_method.index()), EntryWord::ABSENT);
    }

    #[test]
    fn back_edges_survive_lowering() {
        let p = recursive_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let may_back_edge =
            |site: SiteId| compiled.site_word(site.index()).word & SITE_MAY_BACK_EDGE != 0;
        let mut saw_back_edge = false;
        for (site, callee) in plan.back_edge_call_pairs() {
            saw_back_edge = true;
            assert_eq!(compiled.back_edge(site.index(), callee.as_u32()), 1);
            assert!(may_back_edge(site));
        }
        assert!(saw_back_edge, "fixture must contain recursion");
        assert_eq!(
            compiled.back_edge_pair_count(),
            plan.back_edge_call_pairs().count()
        );
        for site in compiled.present_sites() {
            for callee in compiled.present_entries() {
                let probe = compiled.back_edge(site.index(), callee.as_u32());
                let want = plan.back_edge_call_pairs().any(|p| p == (site, callee));
                assert_eq!(probe == 1, want, "({site:?}, {callee:?})");
                assert!(may_back_edge(site) || probe == 0);
                assert_eq!(plan.back_edge(site.index(), callee.as_u32()), probe);
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
