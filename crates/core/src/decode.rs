//! Precise decoding of encoded calling contexts.
//!
//! Decoding recovers the context bottom-up, piece by piece (paper Sections 2
//! and 3.2): the current ID decodes the piece since the top stack frame;
//! each frame then tells where the piece below ends and with which saved ID
//! to continue.
//!
//! * Pieces rooted at an **anchor** decode exactly: at every node, the
//!   unique incoming edge whose sub-range `[av, av + ICC[pred][anchor])`
//!   contains the remaining ID is taken (restricted to edges in the
//!   anchor's territory). The algorithm's invariant makes the choice
//!   unambiguous.
//! * Pieces rooted at a **hazardous-UCP entry** start at an arbitrary
//!   method, for which no per-anchor tables exist. These are decoded by a
//!   memoized backward path search for the unique path whose addition
//!   values sum to the ID; an ambiguous sum is reported as
//!   [`DecodeError::Ambiguous`] rather than guessed (UCP pieces are rare
//!   and short — Table 2 measures 0–1.8 per context — so the search is
//!   cheap in practice). When the UCP entry happens to be an anchor (e.g. a
//!   scope-filter root), the exact decoder is used instead.
//!
//! The decoder never fabricates a context: every structural inconsistency
//! in its input surfaces as a [`DecodeError`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use deltapath_callgraph::{reachable_from, NodeIx};
use deltapath_ir::MethodId;
use deltapath_telemetry::{names, Telemetry};

use crate::context::{EncodedContext, Frame, FrameStack, FrameTag};
use crate::error::DecodeError;
use crate::plan::EncodingPlan;

/// Options controlling the decoder.
#[derive(Clone, Copy, Debug)]
pub struct DecodeOptions {
    /// Maximum number of memo entries for search decoding of UCP pieces;
    /// exceeding it yields [`DecodeError::DepthExceeded`].
    pub search_state_limit: usize,
    /// Maximum number of decoded pieces memoized across calls, keyed by
    /// `(piece root, piece end, id)`, and separately the maximum number of
    /// stacks whose decoded path below the top frame is memoized. Repeated
    /// hot contexts — the common case when draining a collector's
    /// distinct set or an event log — then decode one piece instead of
    /// re-running the per-piece walk. `0` disables both caches. Once full a cache stops
    /// admitting new entries rather than evicting (popularity is heavily
    /// skewed, so the first `piece_cache_capacity` distinct entries are
    /// the ones worth keeping).
    pub piece_cache_capacity: usize,
}

impl Default for DecodeOptions {
    /// A generous search budget (1 Mi states) and a 64 Ki-piece cache.
    fn default() -> Self {
        Self {
            search_state_limit: 1 << 20,
            piece_cache_capacity: 1 << 16,
        }
    }
}

/// A decoded piece keyed by `(piece root, piece end, piece id)` — the
/// complete input of one piece decode, shared out of the cache by `Rc`.
type PieceCache = HashMap<(NodeIx, NodeIx, u128), Rc<Vec<NodeIx>>>;

/// The decoded path below the top frame, keyed by the whole stack — a
/// pure function of the stack and the plan, shared out by `Rc`.
type StackCache = HashMap<FrameStack, Rc<[MethodId]>>;

/// Hit and miss tallies of one cache.
#[derive(Debug, Default)]
struct CacheStats {
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl CacheStats {
    fn count(&self, hit: bool) {
        let cell = if hit { &self.hits } else { &self.misses };
        cell.set(cell.get() + 1);
    }

    fn get(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

/// A decoder over one [`EncodingPlan`].
///
/// Obtain via [`EncodingPlan::decoder`]. The decoder caches per-root
/// reachability sets for UCP-piece searches, decoded pieces, and the
/// decoded path below the top frame of each stack it has seen, so reuse
/// one decoder when decoding many contexts.
#[derive(Debug)]
pub struct Decoder<'a> {
    plan: &'a EncodingPlan,
    options: DecodeOptions,
    reach_cache: RefCell<HashMap<NodeIx, Rc<Vec<bool>>>>,
    piece_cache: RefCell<PieceCache>,
    piece_stats: CacheStats,
    stack_cache: RefCell<StackCache>,
    stack_stats: CacheStats,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder with the given options.
    pub fn new(plan: &'a EncodingPlan, options: DecodeOptions) -> Self {
        Self {
            plan,
            options,
            reach_cache: RefCell::new(HashMap::new()),
            piece_cache: RefCell::new(HashMap::new()),
            piece_stats: CacheStats::default(),
            stack_cache: RefCell::new(HashMap::new()),
            stack_stats: CacheStats::default(),
        }
    }

    /// `(hits, misses)` of the piece cache since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.piece_stats.get()
    }

    /// `(hits, misses)` of the stack cache (the memoized path below the
    /// top frame) since construction.
    pub fn stack_cache_stats(&self) -> (u64, u64) {
        self.stack_stats.get()
    }

    /// Emits the piece-cache and stack-cache counters
    /// ([`names::DECODER_PIECE_CACHE_HITS`] /
    /// [`names::DECODER_PIECE_CACHE_MISSES`] /
    /// [`names::DECODER_STACK_CACHE_HITS`] /
    /// [`names::DECODER_STACK_CACHE_MISSES`]) into `sink`.
    pub fn report_telemetry(&self, sink: &dyn Telemetry) {
        if !sink.enabled() {
            return;
        }
        let (hits, misses) = self.piece_stats.get();
        sink.counter_add(names::DECODER_PIECE_CACHE_HITS, hits);
        sink.counter_add(names::DECODER_PIECE_CACHE_MISSES, misses);
        let (hits, misses) = self.stack_stats.get();
        sink.counter_add(names::DECODER_STACK_CACHE_HITS, hits);
        sink.counter_add(names::DECODER_STACK_CACHE_MISSES, misses);
    }

    /// Decodes `ctx` into the full method sequence, outermost first.
    ///
    /// The result contains exactly the *encoded* methods: dynamically loaded
    /// or scope-excluded detours appear as adjacent methods with the detour
    /// elided, exactly as the paper's Figure 7 recovers `A B G` from the
    /// concrete path `A B D F G`.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`]; corrupted or hand-built inconsistent contexts
    /// are rejected, never mis-decoded.
    pub fn decode(&self, ctx: &EncodedContext) -> Result<Vec<MethodId>, DecodeError> {
        let top = ctx.frames.last().ok_or(DecodeError::EmptyStack)?;
        let end = self.node_of(ctx.at)?;
        let start = self.node_of(top.node)?;
        let piece = self.decode_piece(start, end, u128::from(ctx.id))?;
        let below = self.below_top(&ctx.frames)?;
        let skip = overlap(&ctx.frames, ctx.frames.len() - 1);
        let graph = self.plan.graph();
        let mut path = Vec::with_capacity(below.len() + piece.len() - skip);
        path.extend_from_slice(&below);
        path.extend(piece[skip..].iter().map(|&n| graph.method_of(n)));
        Ok(path)
    }

    /// The decoded path below the top frame of `frames`, memoized per
    /// stack: it depends only on the stack and the immutable plan, never
    /// on the context's ID or capture method. Errors are not memoized.
    fn below_top(&self, frames: &FrameStack) -> Result<Rc<[MethodId]>, DecodeError> {
        let capacity = self.options.piece_cache_capacity;
        if capacity > 0 {
            if let Some(below) = self.stack_cache.borrow().get(frames) {
                self.stack_stats.count(true);
                return Ok(below.clone());
            }
        }
        self.stack_stats.count(false);
        let below: Rc<[MethodId]> = self.decode_below_top(frames)?.into();
        let mut cache = self.stack_cache.borrow_mut();
        if cache.len() < capacity {
            cache.insert(frames.clone(), below.clone());
        }
        Ok(below)
    }

    /// Decodes the pieces below the top frame, outermost first: each
    /// frame tells where the piece below it ends and with which ID.
    fn decode_below_top(&self, frames: &[Frame]) -> Result<Vec<MethodId>, DecodeError> {
        let mut pieces = Vec::new();
        let mut i = frames.len() - 1;
        let mut below = self.piece_below(frames, i)?;
        while let Some((end, id)) = below {
            i -= 1;
            let start = self.node_of(frames[i].node)?;
            let piece = self.decode_piece(start, end, id)?;
            below = self.piece_below(frames, i)?;
            pieces.push((piece, overlap(frames, i)));
        }
        let graph = self.plan.graph();
        let len = pieces.iter().map(|(piece, skip)| piece.len() - skip).sum();
        let mut path = Vec::with_capacity(len);
        for (piece, skip) in pieces.iter().rev() {
            path.extend(piece[*skip..].iter().map(|&n| graph.method_of(n)));
        }
        Ok(path)
    }

    /// The `(end node, id)` of the piece below `frames[i]`, or `None` when
    /// `frames[i]` is the bootstrap frame.
    fn piece_below(
        &self,
        frames: &[Frame],
        i: usize,
    ) -> Result<Option<(NodeIx, u128)>, DecodeError> {
        let frame = &frames[i];
        match frame.tag {
            FrameTag::Anchor if i == 0 => Ok(None),
            // The anchor node is also the end of the piece below.
            FrameTag::Anchor => Ok(Some((
                self.node_of(frame.node)?,
                u128::from(frame.saved_id),
            ))),
            FrameTag::Recursion | FrameTag::Ucp => {
                if i == 0 {
                    return Err(DecodeError::BadBottomFrame);
                }
                let site = frame
                    .site
                    .ok_or(DecodeError::UnattributedUcp { node: frame.node })?;
                let instr = self.plan.site(site).ok_or(DecodeError::UnknownSite(site))?;
                let end = self.node_of(instr.caller)?;
                let id = u128::from(frame.saved_id)
                    .checked_sub(u128::from(instr.av))
                    .ok_or(DecodeError::CorruptFrame { site })?;
                Ok(Some((end, id)))
            }
        }
    }

    fn node_of(&self, method: MethodId) -> Result<NodeIx, DecodeError> {
        self.plan
            .graph()
            .node_of(method)
            .ok_or(DecodeError::UnknownMethod(method))
    }

    /// Decodes one piece: the path `start..=end` whose addition values sum
    /// to `id`. Successful decodes are memoized (a piece's path depends
    /// only on the immutable plan and the key) so hot contexts replay in
    /// O(frames) amortized.
    fn decode_piece(
        &self,
        start: NodeIx,
        end: NodeIx,
        id: u128,
    ) -> Result<Rc<Vec<NodeIx>>, DecodeError> {
        let key = (start, end, id);
        if self.options.piece_cache_capacity > 0 {
            if let Some(piece) = self.piece_cache.borrow().get(&key) {
                self.piece_stats.count(true);
                return Ok(piece.clone());
            }
        }
        self.piece_stats.count(false);
        let piece = Rc::new(if self.plan.encoding().is_anchor[start.index()] {
            self.decode_anchor_piece(start, end, id)?
        } else {
            self.decode_search_piece(start, end, id)?
        });
        if self.options.piece_cache_capacity > 0 {
            let mut cache = self.piece_cache.borrow_mut();
            if cache.len() < self.options.piece_cache_capacity {
                cache.insert(key, piece.clone());
            }
        }
        Ok(piece)
    }

    /// Exact greedy decoding within an anchor's territory.
    fn decode_anchor_piece(
        &self,
        anchor: NodeIx,
        end: NodeIx,
        id: u128,
    ) -> Result<Vec<NodeIx>, DecodeError> {
        let graph = self.plan.graph();
        let enc = self.plan.encoding();
        let mut path = vec![end];
        let mut cur = end;
        let mut v = id;
        while cur != anchor {
            let mut chosen: Option<(NodeIx, u128)> = None;
            for &e in graph.in_edges(cur) {
                if enc.excluded.contains(&e) {
                    continue;
                }
                if !enc.eanchors[e.index()].contains(&anchor) {
                    continue;
                }
                let edge = graph.edge(e);
                let av = enc.edge_av(graph, e);
                let Some(icc) = enc.icc_of(edge.caller, anchor) else {
                    continue;
                };
                if av <= v && v < av.saturating_add(icc) {
                    if chosen.is_some() {
                        // The sub-range invariant guarantees disjointness;
                        // two matches mean the plan is corrupt.
                        return Err(DecodeError::Ambiguous {
                            root: graph.method_of(anchor),
                            at: graph.method_of(end),
                        });
                    }
                    chosen = Some((edge.caller, av));
                }
            }
            let Some((pred, av)) = chosen else {
                return Err(DecodeError::NoMatchingEdge {
                    at: graph.method_of(cur),
                    id: v,
                });
            };
            v -= av;
            cur = pred;
            path.push(cur);
        }
        if v != 0 {
            return Err(DecodeError::NonZeroAtRoot {
                root: graph.method_of(anchor),
                id: v,
            });
        }
        path.reverse();
        Ok(path)
    }

    /// Search decoding for pieces rooted at a non-anchor (hazardous-UCP
    /// entry): counts, with memoization, the paths from `start` to `end`
    /// whose addition values sum to `id`, and reconstructs the unique one.
    fn decode_search_piece(
        &self,
        start: NodeIx,
        end: NodeIx,
        id: u128,
    ) -> Result<Vec<NodeIx>, DecodeError> {
        let graph = self.plan.graph();
        let enc = self.plan.encoding();
        let reach = {
            let mut cache = self.reach_cache.borrow_mut();
            cache
                .entry(start)
                .or_insert_with(|| std::rc::Rc::new(reachable_from(graph, &[start], &enc.excluded)))
                .clone()
        };
        let limit = self.options.search_state_limit;
        let mut memo: HashMap<(NodeIx, u128), u8> = HashMap::new();

        // Iterative post-order evaluation of count(node, v) = number of
        // start-to-node paths summing to v, saturated at 2.
        #[allow(clippy::too_many_arguments)]
        fn count(
            graph: &deltapath_callgraph::CallGraph,
            enc: &crate::algo2::Encoding,
            reach: &[bool],
            start: NodeIx,
            node: NodeIx,
            v: u128,
            memo: &mut HashMap<(NodeIx, u128), u8>,
            limit: usize,
        ) -> Result<u8, DecodeError> {
            if node == start {
                return Ok(u8::from(v == 0));
            }
            if let Some(&c) = memo.get(&(node, v)) {
                return Ok(c);
            }
            if memo.len() >= limit {
                return Err(DecodeError::DepthExceeded { limit });
            }
            let mut total: u8 = 0;
            for &e in graph.in_edges(node) {
                if enc.excluded.contains(&e) {
                    continue;
                }
                let edge = graph.edge(e);
                if !reach[edge.caller.index()] {
                    continue;
                }
                let av = enc.edge_av(graph, e);
                if av > v {
                    continue;
                }
                total = total
                    .saturating_add(count(
                        graph,
                        enc,
                        reach,
                        start,
                        edge.caller,
                        v - av,
                        memo,
                        limit,
                    )?)
                    .min(2);
                if total >= 2 {
                    break;
                }
            }
            memo.insert((node, v), total);
            Ok(total)
        }

        let total = count(graph, enc, &reach, start, end, id, &mut memo, limit)?;
        match total {
            0 => Err(DecodeError::NoMatchingEdge {
                at: graph.method_of(end),
                id,
            }),
            1 => {
                // Reconstruct by following the unique contributing edge.
                let mut path = vec![end];
                let mut cur = end;
                let mut v = id;
                while cur != start {
                    let mut next: Option<(NodeIx, u128)> = None;
                    for &e in graph.in_edges(cur) {
                        if enc.excluded.contains(&e) {
                            continue;
                        }
                        let edge = graph.edge(e);
                        if !reach[edge.caller.index()] {
                            continue;
                        }
                        let av = enc.edge_av(graph, e);
                        if av > v {
                            continue;
                        }
                        let c = count(
                            graph,
                            enc,
                            &reach,
                            start,
                            edge.caller,
                            v - av,
                            &mut memo,
                            limit,
                        )?;
                        if c >= 1 {
                            next = Some((edge.caller, av));
                            break;
                        }
                    }
                    let (pred, av) =
                        next.expect("count==1 guarantees a contributing edge at every step");
                    v -= av;
                    cur = pred;
                    path.push(cur);
                }
                path.reverse();
                Ok(path)
            }
            _ => Err(DecodeError::Ambiguous {
                root: graph.method_of(start),
                at: graph.method_of(end),
            }),
        }
    }
}

/// How many leading nodes of the piece above `frames[i]` the piece below
/// already ends with: an anchor frame above the bottom starts its piece at
/// the node where the piece below ends.
fn overlap(frames: &[Frame], i: usize) -> usize {
    usize::from(i > 0 && frames[i].tag == FrameTag::Anchor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Frame;
    use crate::plan::PlanConfig;
    use crate::state::DeltaState;
    use deltapath_ir::{MethodKind, Program, ProgramBuilder, SiteId};

    /// A three-level program: main -> {mid1, mid2} -> leaf (4 contexts at
    /// leaf).
    fn diamondish() -> (Program, Vec<SiteId>) {
        let mut b = ProgramBuilder::new("d");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        let mut sites = Vec::new();
        b.method(c, "mid1", MethodKind::Static)
            .body(|f| {
                sites.push(f.call(c, "leaf"));
                sites.push(f.call(c, "leaf"));
            })
            .finish();
        b.method(c, "mid2", MethodKind::Static)
            .body(|f| {
                sites.push(f.call(c, "leaf"));
            })
            .finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                sites.push(f.call(c, "mid1"));
                sites.push(f.call(c, "mid2"));
            })
            .finish();
        b.entry(main);
        (b.finish().unwrap(), sites)
    }

    fn method(p: &Program, name: &str) -> MethodId {
        p.declared_method(
            p.class_by_name("C").unwrap(),
            p.symbols().lookup(name).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn decodes_every_leaf_context_distinctly() {
        let (p, sites) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let decoder = plan.decoder();
        let (leaf, mid1, mid2, main) = (
            method(&p, "leaf"),
            method(&p, "mid1"),
            method(&p, "mid2"),
            p.entry(),
        );
        // (outer site, inner site, expected context)
        let cases = vec![
            (sites[3], sites[0], vec![main, mid1, leaf]),
            (sites[3], sites[1], vec![main, mid1, leaf]),
            (sites[4], sites[2], vec![main, mid2, leaf]),
        ];
        let mut ids = Vec::new();
        for (outer, inner, expected) in cases {
            let mid = if outer == sites[3] { mid1 } else { mid2 };
            let mut st = DeltaState::start(main);
            st.on_call(&plan, outer);
            st.on_entry(&plan, mid, Some(outer));
            st.on_call(&plan, inner);
            st.on_entry(&plan, leaf, Some(inner));
            let ctx = st.snapshot(leaf);
            ids.push(ctx.id);
            assert_eq!(decoder.decode(&ctx).unwrap(), expected);
            st.on_exit();
            st.on_return();
            st.on_exit();
            st.on_return();
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "all three contexts must encode distinctly");
    }

    #[test]
    fn corrupt_id_is_rejected_not_misdecoded() {
        let (p, _) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let decoder = plan.decoder();
        let leaf = method(&p, "leaf");
        let ctx = EncodedContext {
            frames: vec![Frame {
                tag: FrameTag::Anchor,
                node: p.entry(),
                site: None,
                saved_id: 0,
            }]
            .into(),
            id: 10_000, // way outside every sub-range
            at: leaf,
        };
        assert!(matches!(
            decoder.decode(&ctx),
            Err(DecodeError::NoMatchingEdge { .. })
        ));
    }

    /// main -> rec -> {leaf, leaf}: `rec` is a recursion header, hence an
    /// anchor, so the two leaf contexts share the stack `[main, rec]`.
    fn anchored_program() -> (Program, SiteId, Vec<SiteId>) {
        let mut b = ProgramBuilder::new("a");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        let mut leaf_sites = Vec::new();
        b.method(c, "rec", MethodKind::Static)
            .body(|f| {
                leaf_sites.push(f.call(c, "leaf"));
                leaf_sites.push(f.call(c, "leaf"));
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
        let mut rec_site = None;
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                rec_site = Some(f.call(c, "rec"));
            })
            .finish();
        b.entry(main);
        (b.finish().unwrap(), rec_site.unwrap(), leaf_sites)
    }

    #[test]
    fn stack_cache_serves_the_path_below_the_top_frame() {
        let (p, rec_site, leaf_sites) = anchored_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let (main, rec, leaf) = (p.entry(), method(&p, "rec"), method(&p, "leaf"));
        let contexts: Vec<EncodedContext> = leaf_sites
            .iter()
            .map(|&site| {
                let mut st = DeltaState::start(main);
                st.on_call(&plan, rec_site);
                st.on_entry(&plan, rec, Some(rec_site));
                st.on_call(&plan, site);
                st.on_entry(&plan, leaf, Some(site));
                st.snapshot(leaf)
            })
            .collect();
        assert_eq!(
            contexts[0].depth(),
            2,
            "entering rec pushes an anchor frame"
        );
        assert_eq!(contexts[0].frames, contexts[1].frames);
        assert_ne!(contexts[0].id, contexts[1].id);

        let cached = plan.decoder();
        let uncached = Decoder::new(
            &plan,
            DecodeOptions {
                piece_cache_capacity: 0,
                ..DecodeOptions::default()
            },
        );
        for ctx in &contexts {
            assert_eq!(cached.decode(ctx).unwrap(), vec![main, rec, leaf]);
            assert_eq!(uncached.decode(ctx).unwrap(), vec![main, rec, leaf]);
        }
        assert_eq!(cached.stack_cache_stats(), (1, 1));
        // Capacity 0 disables both caches.
        assert_eq!(uncached.stack_cache_stats(), (0, 2));
        assert_eq!(uncached.cache_stats().0, 0);

        // Errors are never memoized: a corrupt lower frame fails on every
        // decode, and never hits.
        let mut frames = contexts[0].frames.to_vec();
        frames[1].saved_id = 10_000;
        let corrupt = EncodedContext {
            frames: frames.into(),
            ..contexts[0].clone()
        };
        for _ in 0..2 {
            assert!(cached.decode(&corrupt).is_err());
        }
        assert_eq!(cached.stack_cache_stats(), (1, 3));
    }

    #[test]
    fn empty_stack_is_rejected() {
        let (p, _) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let ctx = EncodedContext {
            frames: Vec::new().into(),
            id: 0,
            at: p.entry(),
        };
        assert_eq!(
            plan.decoder().decode(&ctx).unwrap_err(),
            DecodeError::EmptyStack
        );
    }

    #[test]
    fn unknown_method_is_rejected() {
        let (p, _) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let ctx = EncodedContext {
            frames: vec![Frame {
                tag: FrameTag::Anchor,
                node: p.entry(),
                site: None,
                saved_id: 0,
            }]
            .into(),
            id: 0,
            at: MethodId::from_index(999),
        };
        assert!(matches!(
            plan.decoder().decode(&ctx),
            Err(DecodeError::UnknownMethod(_))
        ));
    }

    #[test]
    fn bottom_frame_must_be_anchor() {
        let (p, sites) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let ctx = EncodedContext {
            frames: vec![Frame {
                tag: FrameTag::Ucp,
                node: p.entry(),
                site: Some(sites[0]),
                saved_id: 0,
            }]
            .into(),
            id: 0,
            at: p.entry(),
        };
        assert_eq!(
            plan.decoder().decode(&ctx).unwrap_err(),
            DecodeError::BadBottomFrame
        );
    }
}

#[cfg(test)]
mod search_tests {
    use super::*;
    use crate::context::Frame;
    use crate::plan::{EncodingPlan, PlanConfig};
    use deltapath_ir::{MethodKind, Program, ProgramBuilder};

    /// A graph where a piece rooted at non-anchor `x` is genuinely
    /// ambiguous: `x` reaches `g` through two recursion-header anchors `a`
    /// and `b`, whose territories each assign addition value 0 to their
    /// edge into `g` — so two distinct paths sum to the same ID. (This is
    /// exactly why the plan anchors statically known UCP entry points; a
    /// hand-built frame at `x` exercises the honest-failure path.)
    fn ambiguous_program() -> Program {
        let mut bld = ProgramBuilder::new("amb");
        let c = bld.add_class("C", None);
        bld.method(c, "g", MethodKind::Static).finish();
        bld.method(c, "a", MethodKind::Static)
            .body(|f| {
                f.if_mod(
                    2,
                    1,
                    |f| {
                        f.call_arg(
                            deltapath_ir::ClassId::from_index(0),
                            "a",
                            deltapath_ir::ArgExpr::ParamPlus(1),
                        );
                    },
                    |_| {},
                );
                f.call(c, "g");
            })
            .finish();
        bld.method(c, "b", MethodKind::Static)
            .body(|f| {
                f.if_mod(
                    2,
                    1,
                    |f| {
                        f.call_arg(
                            deltapath_ir::ClassId::from_index(0),
                            "b",
                            deltapath_ir::ArgExpr::ParamPlus(1),
                        );
                    },
                    |_| {},
                );
                f.call(c, "g");
            })
            .finish();
        bld.method(c, "x", MethodKind::Static)
            .body(|f| {
                f.call(c, "a");
                f.call(c, "b");
            })
            .finish();
        let main = bld
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "x");
            })
            .finish();
        bld.entry(main);
        bld.finish().unwrap()
    }

    fn method(p: &Program, name: &str) -> MethodId {
        p.declared_method(
            p.class_by_name("C").unwrap(),
            p.symbols().lookup(name).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn ambiguous_search_piece_is_reported_not_guessed() {
        let p = ambiguous_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        // a and b are recursion headers, hence anchors; x and g are not.
        assert!(plan.entry(method(&p, "a")).unwrap().is_anchor);
        assert!(plan.entry(method(&p, "b")).unwrap().is_anchor);
        assert!(!plan.entry(method(&p, "x")).unwrap().is_anchor);

        // Hand-built context: a UCP piece rooted at x, captured at g with
        // id 0 — reachable both via a and via b with identical sums.
        let main_x_site = p
            .sites()
            .iter()
            .find(|s| s.caller() == p.entry())
            .unwrap()
            .id();
        let ctx = EncodedContext {
            frames: vec![
                Frame {
                    tag: FrameTag::Anchor,
                    node: p.entry(),
                    site: None,
                    saved_id: 0,
                },
                Frame {
                    tag: FrameTag::Ucp,
                    node: method(&p, "x"),
                    site: Some(main_x_site),
                    saved_id: 0,
                },
            ]
            .into(),
            id: 0,
            at: method(&p, "g"),
        };
        let err = plan.decoder().decode(&ctx).unwrap_err();
        assert!(
            matches!(err, DecodeError::Ambiguous { .. }),
            "expected honest ambiguity report, got {err:?}"
        );
    }

    #[test]
    fn unambiguous_search_piece_decodes() {
        let p = ambiguous_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        // A piece rooted at x captured at a (one path only: x -> a).
        let main_x_site = p
            .sites()
            .iter()
            .find(|s| s.caller() == p.entry())
            .unwrap()
            .id();
        let av_xa = plan
            .site(
                p.sites()
                    .iter()
                    .find(|s| {
                        s.caller() == method(&p, "x") && p.symbols().resolve(s.method()) == "a"
                    })
                    .unwrap()
                    .id(),
            )
            .unwrap()
            .av;
        let ctx = EncodedContext {
            frames: vec![
                Frame {
                    tag: FrameTag::Anchor,
                    node: p.entry(),
                    site: None,
                    saved_id: 0,
                },
                Frame {
                    tag: FrameTag::Ucp,
                    node: method(&p, "x"),
                    site: Some(main_x_site),
                    saved_id: 0,
                },
            ]
            .into(),
            id: av_xa,
            at: method(&p, "a"),
        };
        let decoded = plan.decoder().decode(&ctx).unwrap();
        assert_eq!(decoded, vec![p.entry(), method(&p, "x"), method(&p, "a")]);
    }
}
