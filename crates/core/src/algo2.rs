//! Algorithm 2: encoding with anchor nodes (paper Section 3.2).
//!
//! The number of calling contexts grows exponentially with call-graph size,
//! so addition values computed by Algorithm 1 can overflow any fixed-width
//! integer. Algorithm 2 divides long calling contexts into *pieces* by
//! choosing *anchor* nodes: at runtime, invoking an anchor pushes the
//! current ID and resets it to zero, so each piece is encoded relative to
//! the anchor it starts at, and the previously global encoding-space
//! pressure is distributed along the anchors.
//!
//! Statically, the analysis finds each anchor's *territory* (what a DFS from
//! the anchor reaches when it retreats at other anchors; computed here in
//! one topological sweep for all anchors at once) and extends the candidate
//! addition values and inflated context counts to two dimensions:
//! `CAV[n][r]` / `ICC[n][r]` for anchor `r`. Whenever a value would overflow
//! the configured [`EncodingWidth`], the offending caller is promoted to an
//! anchor and the analysis restarts — the paper's `goto again` loop.
//! Recursion headers and extra call-graph roots are forced anchors from the
//! start (see DESIGN.md: recursion is handled by anchoring the headers of
//! back edges).

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use deltapath_callgraph::{topological_order_masked, CallGraph, Edge, EdgeIx, NodeIx};
use deltapath_ir::SiteId;
use deltapath_telemetry::{names, NullTelemetry, ScopedSpan, Telemetry};

use crate::error::EncodeError;
use crate::rows::Rows;
use crate::width::EncodingWidth;

/// Configuration for [`Encoding::analyze`].
#[derive(Clone, Debug)]
pub struct Algo2Config {
    /// The integer width the encoding must fit.
    pub width: EncodingWidth,
    /// Nodes that must be anchors regardless of overflow (recursion headers;
    /// the graph roots are always included automatically).
    pub forced_anchors: Vec<NodeIx>,
    /// Overflow-handling strategy. `false` (default) restarts after the
    /// *first* overflow, adding one anchor — the paper's `goto again` loop,
    /// whose anchor counts we report. `true` finishes the pass, collects
    /// *every* overflowing caller, and adds them together before
    /// restarting: the resulting anchor set can be slightly larger, but the
    /// number of restart rounds drops from O(anchors) to a handful — used
    /// for wide sweeps at narrow widths where hundreds of anchors appear.
    pub batch_overflow: bool,
    /// Optional scalability cap on territory overlap. When set, a linear
    /// pre-pass counts the anchor-free paths reaching each node in
    /// topological order and promotes a node to an anchor whenever the
    /// count would exceed the budget. This bounds every node's territory
    /// membership (and hence the whole analysis) to `O(budget · |E|)` at
    /// the cost of extra anchors — the same time/space trade the overflow
    /// loop makes, applied up front. `None` (the default) preserves the
    /// paper's anchor placement exactly; million-node planning wants a
    /// small budget (8–64).
    pub territory_budget: Option<u64>,
}

impl Algo2Config {
    /// A configuration with the given width and no forced anchors.
    pub fn new(width: EncodingWidth) -> Self {
        Self {
            width,
            forced_anchors: Vec::new(),
            batch_overflow: false,
            territory_budget: None,
        }
    }

    /// Adds forced anchors (e.g. recursion headers).
    pub fn with_forced_anchors(mut self, anchors: Vec<NodeIx>) -> Self {
        self.forced_anchors = anchors;
        self
    }

    /// Enables batched overflow handling (see [`Algo2Config::batch_overflow`]).
    pub fn with_batch_overflow(mut self) -> Self {
        self.batch_overflow = true;
        self
    }

    /// Caps territory overlap (see [`Algo2Config::territory_budget`]).
    pub fn with_territory_budget(mut self, budget: u64) -> Self {
        self.territory_budget = Some(budget.max(1));
        self
    }
}

/// The result of Algorithm 2: per-site addition values, per-anchor inflated
/// context counts, and the territory tables needed for decoding.
#[derive(Clone, Debug)]
pub struct Encoding {
    /// The width the encoding satisfies.
    pub width: EncodingWidth,
    /// All anchors, sorted (roots, forced anchors, overflow-chosen anchors).
    pub anchors: Vec<NodeIx>,
    /// Anchor membership per node.
    pub is_anchor: Vec<bool>,
    /// Anchors chosen by the overflow-restart loop (excludes roots/forced).
    pub overflow_anchors: Vec<NodeIx>,
    /// Anchors pre-placed by the territory-budget pass (see
    /// [`Algo2Config::territory_budget`]); empty without a budget.
    pub budget_anchors: Vec<NodeIx>,
    /// The single addition value of each call site.
    pub site_av: HashMap<SiteId, u128>,
    /// `ICC[n][r]`: inflated calling-context count of node `n` relative to
    /// anchor `r`; pieces starting at `r` and ending at `n` are encoded in
    /// `[0, ICC[n][r])`. Row `n` holds its anchors ascending, each with
    /// its count (read one with [`Encoding::icc_of`]); an anchor's row is
    /// `[(self, 1)]`.
    pub icc: Rows<NodeIx, u128>,
    /// Anchors whose territory contains each node, one row per node.
    pub nanchors: Rows<NodeIx>,
    /// Anchors whose territory contains each edge, one row per edge.
    pub eanchors: Rows<NodeIx>,
    /// Excluded (back) edges, invisible to the encoding.
    pub excluded: HashSet<EdgeIx>,
    /// The largest ICC value: the per-piece encoding space actually needed.
    pub max_icc: u128,
    /// Number of analysis restarts performed.
    pub restarts: usize,
}

impl Encoding {
    /// Runs Algorithm 2 over `graph`, ignoring `excluded` (back) edges.
    ///
    /// # Errors
    ///
    /// * [`EncodeError::NoRoots`] — the graph has no roots;
    /// * [`EncodeError::StillCyclic`] — cycles remain after exclusion;
    /// * [`EncodeError::WidthTooSmall`] — a single node's fan-in overflows
    ///   the width even with every caller anchored.
    pub fn analyze(
        graph: &CallGraph,
        excluded: &HashSet<EdgeIx>,
        config: &Algo2Config,
    ) -> Result<Self, EncodeError> {
        Self::analyze_with(graph, excluded, config, &NullTelemetry)
    }

    /// As [`Encoding::analyze`], emitting timed spans into `sink`:
    ///
    /// * `algo2.territories` — one span per restart-loop iteration, with the
    ///   iteration number and current anchor count;
    /// * `algo2.interval_walk` — the symbolic CAV/ICC propagation over the
    ///   topological order, one span per iteration;
    /// * `algo2.restart` — a point event each time overflow promotes a new
    ///   anchor (single mode carries the promoted node, batch mode the
    ///   number of anchors added);
    /// * `algo2.analyze` — the whole analysis, with node/edge/anchor/
    ///   restart counts and the final `max_icc` (saturated to `u64`).
    ///
    /// Spans are opened and closed pairwise (`span_open`/`span_close`), so
    /// hierarchical sinks see the sub-phases nested under `algo2.analyze`.
    ///
    /// Against a disabled sink this is exactly [`Encoding::analyze`]: no
    /// clocks are read and no counts are computed.
    ///
    /// # Errors
    ///
    /// As for [`Encoding::analyze`].
    pub fn analyze_with(
        graph: &CallGraph,
        excluded: &HashSet<EdgeIx>,
        config: &Algo2Config,
        sink: &dyn Telemetry,
    ) -> Result<Self, EncodeError> {
        let total = ScopedSpan::enter(sink, names::ALGO2_ANALYZE);
        if graph.node_count() == 0 || graph.roots().is_empty() {
            return Err(EncodeError::NoRoots);
        }
        // One dense mask conversion up front; every pass of the analysis
        // then checks exclusion with an array load instead of a hash probe.
        let mask = deltapath_callgraph::excluded_mask(graph, excluded);
        let order = topological_order_masked(graph, &mask).map_err(|_| EncodeError::StillCyclic)?;
        let n = graph.node_count();
        let cap = config.width.capacity();

        let mut is_anchor = vec![false; n];
        for &r in graph.roots() {
            is_anchor[r.index()] = true;
        }
        for &a in &config.forced_anchors {
            is_anchor[a.index()] = true;
        }
        // Territory-budget pre-pass: one linear sweep promoting a node to an
        // anchor wherever the anchor-free path count would exceed the
        // budget. Every later pass is then bounded by `budget` work per
        // node/edge instead of the full territory overlap.
        let mut budget_anchors: Vec<NodeIx> = Vec::new();
        if let Some(budget) = config.territory_budget {
            let budget = budget.max(1);
            let mut paths: Vec<u64> = vec![0; n];
            for &node in &order {
                let i = node.index();
                let mut c: u64 = 0;
                for &e in graph.in_edges(node) {
                    if mask[e.index()] {
                        continue;
                    }
                    c = c.saturating_add(paths[graph.edge(e).caller.index()]);
                }
                if !is_anchor[i] && c > budget {
                    is_anchor[i] = true;
                    budget_anchors.push(node);
                }
                paths[i] = if is_anchor[i] { 1 } else { c };
            }
        }
        let base_anchor_count = is_anchor.iter().filter(|&&b| b).count();
        let mut overflow_anchors: Vec<NodeIx> = Vec::new();
        let mut restarts = 0usize;

        // The paper's `again:` loop. Each iteration either finishes or adds
        // at least one anchor, so it runs at most `n - base_anchor_count + 1`
        // times. The territory and CAV/ICC tables keep their allocations
        // from one iteration to the next.
        let mut territories = Territories::new(n, graph.edge_count());
        let (mut cav, mut icc_v): (Vec<u128>, Vec<u128>) = (Vec::new(), Vec::new());
        'again: loop {
            let territories_span = ScopedSpan::enter(sink, names::ALGO2_TERRITORIES);
            territories.identify(graph, &order, &mask, &is_anchor);
            if sink.enabled() {
                let anchor_count = is_anchor.iter().filter(|&&b| b).count() as u64;
                territories_span
                    .finish(&[("iteration", restarts as u64), ("anchors", anchor_count)]);
            }

            // Positional CAV/ICC tables, one flat slot per (node, anchor)
            // territory pair: node `i`'s values relative to the anchors of
            // its row sit at `territories.row_slots[i]`, in row order. The
            // hot loop indexes them through the stored callee positions and
            // never searches or hashes.
            for table in [&mut cav, &mut icc_v] {
                table.clear();
                table.resize(territories.anchors.len(), 0);
            }
            let mut site_av: HashMap<SiteId, u128> = HashMap::new();
            let mut batch_pending: Vec<NodeIx> = Vec::new();

            // The symbolic CAV/ICC interval walk over the topological
            // order. On overflow restart the guard drop-closes the span,
            // so every iteration shows up in the profile.
            let walk_span = ScopedSpan::enter(sink, names::ALGO2_INTERVAL_WALK);
            for &node in &order {
                for &e in graph.in_edges(node) {
                    if mask[e.index()] {
                        continue;
                    }
                    let site = graph.edge(e).site;
                    if site_av.contains_key(&site) {
                        continue;
                    }
                    match calculate_increment(
                        graph,
                        &mask,
                        &territories,
                        &mut cav,
                        &icc_v,
                        site,
                        cap,
                    ) {
                        Ok(av) => {
                            site_av.insert(site, av);
                        }
                        Err(overflowing_caller) if config.batch_overflow => {
                            // Keep scanning; restart once with every
                            // overflowing caller anchored.
                            batch_pending.push(overflowing_caller);
                            site_av.insert(site, 0); // placeholder; recomputed
                        }
                        Err(overflowing_caller) => {
                            // Promote the caller to an anchor and restart.
                            if is_anchor[overflowing_caller.index()] {
                                return Err(EncodeError::WidthTooSmall {
                                    width: config.width,
                                });
                            }
                            is_anchor[overflowing_caller.index()] = true;
                            overflow_anchors.push(overflowing_caller);
                            restarts += 1;
                            sink.event(
                                names::ALGO2_RESTART,
                                &[
                                    ("restart", restarts as u64),
                                    ("anchor", overflowing_caller.index() as u64),
                                ],
                            );
                            continue 'again;
                        }
                    }
                }
                let i = node.index();
                if is_anchor[i] {
                    icc_v[territories.passed[i].start] = 1;
                } else {
                    let row = territories.row_slots[i].clone();
                    icc_v[row.clone()].copy_from_slice(&cav[row]);
                }
            }
            walk_span.finish(&[
                ("iteration", restarts as u64),
                ("sites", site_av.len() as u64),
            ]);
            if !batch_pending.is_empty() {
                let mut added = 0u64;
                for caller in batch_pending {
                    if !is_anchor[caller.index()] {
                        is_anchor[caller.index()] = true;
                        overflow_anchors.push(caller);
                        added += 1;
                    }
                }
                if added == 0 {
                    return Err(EncodeError::WidthTooSmall {
                        width: config.width,
                    });
                }
                restarts += 1;
                sink.event(
                    names::ALGO2_RESTART,
                    &[("restart", restarts as u64), ("added", added)],
                );
                continue 'again;
            }

            let (icc, nanchors, max_icc) = territories.node_rows(&icc_v, &is_anchor);
            let eanchors = territories.edge_rows(graph, &mask, &is_anchor);
            let mut anchors: Vec<NodeIx> = (0..n)
                .filter(|&i| is_anchor[i])
                .map(NodeIx::from_index)
                .collect();
            anchors.sort_unstable();
            debug_assert_eq!(anchors.len(), base_anchor_count + overflow_anchors.len());
            total.finish(&[
                ("nodes", n as u64),
                ("edges", graph.edge_count() as u64),
                ("anchors", anchors.len() as u64),
                ("overflow_anchors", overflow_anchors.len() as u64),
                ("restarts", restarts as u64),
                ("max_icc", u64::try_from(max_icc).unwrap_or(u64::MAX)),
            ]);
            return Ok(Self {
                width: config.width,
                anchors,
                is_anchor,
                overflow_anchors,
                budget_anchors,
                site_av,
                icc,
                nanchors,
                eanchors,
                excluded: excluded.clone(),
                max_icc,
                restarts,
            });
        }
    }

    /// The addition value of the site producing edge `e`.
    pub fn edge_av(&self, graph: &CallGraph, e: EdgeIx) -> u128 {
        self.site_av[&graph.edge(e).site]
    }

    /// ICC of `node` relative to `anchor`, if `node` is in its territory.
    pub fn icc_of(&self, node: NodeIx, anchor: NodeIx) -> Option<u128> {
        self.icc.get(node.index(), &anchor).copied()
    }

    /// The largest encoding ID value that can occur (`max_icc - 1`); the
    /// paper's Table 1 "max. ID" column when computed at
    /// [`EncodingWidth::UNBOUNDED`].
    pub fn required_max_id(&self) -> u128 {
        self.max_icc.saturating_sub(1)
    }

    /// Number of anchors beyond the roots and forced anchors — the paper's
    /// "6 and 7 anchor nodes for sunflow and xml.validation".
    pub fn overflow_anchor_count(&self) -> usize {
        self.overflow_anchors.len()
    }

    /// Encodes a piece given as a path of edges: the sum of site addition
    /// values, skipping excluded edges (they reset pieces at runtime and
    /// never contribute).
    pub fn encode_piece(&self, graph: &CallGraph, path: &[EdgeIx]) -> u128 {
        path.iter()
            .filter(|e| !self.excluded.contains(e))
            .map(|&e| self.edge_av(graph, e))
            .sum()
    }
}

/// One restart-loop iteration's territories, in the positional form the
/// interval walk indexes.
///
/// Every node's anchor row sits in one flat column, `anchors`, in the
/// order the sweep finishes the rows: node `i`'s row, ascending, is
/// `anchors[row_slots[i]]`. The walk's CAV/ICC tables run parallel to that
/// column, one slot per (node, anchor) territory pair. An edge's anchors
/// are fixed by its caller. An anchor caller passes on only itself, since
/// every other anchor's territory stops there; a non-anchor caller passes
/// on its whole row. So the caller side of an edge's (edge, anchor) pairs
/// is a slot range of the caller, `passed[caller]`, and only the callee
/// side is stored: each anchor's position in the callee's row.
struct Territories {
    /// Every node's territory anchors, row after row in sweep order.
    anchors: Vec<NodeIx>,
    /// Node `i`'s row: its slots in `anchors` and in the walk's tables.
    row_slots: Vec<Range<usize>>,
    /// The slots node `i` passes on along its out-edges: its own slot when
    /// it is an anchor, its whole row otherwise.
    passed: Vec<Range<usize>>,
    /// Edge `e`'s anchors, as positions in its callee's row: one per slot
    /// its caller passes on, from `callee_pos[edge_start[e]]`.
    edge_start: Vec<usize>,
    callee_pos: Vec<u32>,
}

impl Territories {
    /// Empty tables for a graph of `n` nodes and `m` edges.
    fn new(n: usize, m: usize) -> Self {
        Self {
            anchors: Vec::new(),
            row_slots: vec![0..0; n],
            passed: vec![0..0; n],
            edge_start: vec![0; m],
            callee_pos: Vec::new(),
        }
    }

    /// Node `i`'s territory row.
    fn row(&self, i: usize) -> &[NodeIx] {
        &self.anchors[self.row_slots[i].clone()]
    }

    /// The paper's `IdentifyTerritories`, as one sweep over the topological
    /// `order` instead of one DFS per anchor: a node's row is the union of
    /// what its callers pass on (an anchor caller itself, a non-anchor
    /// caller its row), plus the node itself when it is an anchor — exactly
    /// the anchors whose DFS, retreating at other anchors, would reach it.
    /// Each row is appended to the flat column as it is finished, and its
    /// in-edges' anchors are resolved to positions in it then, so the
    /// interval walk indexes instead of searching. The tables are refilled
    /// in place: the restart loop reuses their allocations.
    fn identify(
        &mut self,
        graph: &CallGraph,
        order: &[NodeIx],
        excluded: &[bool],
        is_anchor: &[bool],
    ) {
        let n = graph.node_count();
        self.anchors.clear();
        self.callee_pos.clear();
        // `seen[r] == v` once anchor `r` is in the row being built for `v`;
        // `pos[r]` is then its position there.
        let mut seen = vec![u32::MAX; n];
        let mut pos = vec![0u32; n];
        let mut row: Vec<NodeIx> = Vec::new();
        for &v in order {
            let i = v.index();
            row.clear();
            let mut add = |r: NodeIx| {
                if seen[r.index()] != i as u32 {
                    seen[r.index()] = i as u32;
                    row.push(r);
                }
            };
            if is_anchor[i] {
                add(v);
            }
            for &e in graph.in_edges(v) {
                if excluded[e.index()] {
                    continue;
                }
                let caller = graph.edge(e).caller;
                if is_anchor[caller.index()] {
                    add(caller);
                } else {
                    self.row(caller.index()).iter().for_each(|&r| add(r));
                }
            }
            row.sort_unstable();
            for (p, &r) in row.iter().enumerate() {
                pos[r.index()] = p as u32;
            }

            let slots = self.anchors.len()..self.anchors.len() + row.len();
            self.anchors.extend_from_slice(&row);
            self.passed[i] = if is_anchor[i] {
                let own = slots.start + pos[i] as usize;
                own..own + 1
            } else {
                slots.clone()
            };
            self.row_slots[i] = slots;
            for &e in graph.in_edges(v) {
                if excluded[e.index()] {
                    continue;
                }
                self.edge_start[e.index()] = self.callee_pos.len();
                let caller = graph.edge(e).caller;
                if is_anchor[caller.index()] {
                    self.callee_pos.push(pos[caller.index()]);
                } else {
                    let row = &self.anchors[self.row_slots[caller.index()].clone()];
                    self.callee_pos.extend(row.iter().map(|r| pos[r.index()]));
                }
            }
        }
    }

    /// The pairs on edge `e`: its caller's slots, zipped in order with the
    /// matching positions in its callee's row.
    fn pairs(&self, e: EdgeIx, edge: &Edge) -> (Range<usize>, &[u32]) {
        let slots = self.passed[edge.caller.index()].clone();
        let start = self.edge_start[e.index()];
        let positions = &self.callee_pos[start..start + slots.len()];
        (slots, positions)
    }

    /// The finished per-node tables in node order, copied from the walk's
    /// column and `icc` slots in one pass: each node's ICC row and
    /// territory row, and the largest ICC. An anchor's ICC row is
    /// `[(self, 1)]` only — values relative to other anchors are undefined
    /// there — so its slots contribute exactly that 1.
    fn node_rows(
        &self,
        icc: &[u128],
        is_anchor: &[bool],
    ) -> (Rows<NodeIx, u128>, Rows<NodeIx>, u128) {
        let n = self.row_slots.len();
        // Every anchor's row holds the anchor itself, so no ICC row is
        // longer than its territory row.
        let mut icc_rows = Rows::with_capacity(n, self.anchors.len());
        let mut nanchors = Rows::with_capacity(n, self.anchors.len());
        let mut max_icc = 0u128;
        for i in 0..n {
            let row = self.row(i);
            nanchors.push(row);
            if is_anchor[i] {
                icc_rows.push_row(&[NodeIx::from_index(i)], &[1]);
                max_icc = max_icc.max(1);
            } else {
                let values = &icc[self.row_slots[i].clone()];
                icc_rows.push_row(row, values);
                max_icc = values.iter().copied().fold(max_icc, u128::max);
            }
        }
        (icc_rows, nanchors, max_icc)
    }

    /// The finished per-edge table: what each edge's caller passes on, its
    /// own anchor or its territory row; excluded edges have none.
    fn edge_rows(&self, graph: &CallGraph, excluded: &[bool], is_anchor: &[bool]) -> Rows<NodeIx> {
        let mut rows = Rows::with_capacity(graph.edge_count(), self.callee_pos.len());
        for (e, edge) in graph.edges().iter().enumerate() {
            if excluded[e] {
                rows.push(&[]);
            } else if is_anchor[edge.caller.index()] {
                rows.push(&[edge.caller]);
            } else {
                rows.push(self.row(edge.caller.index()));
            }
        }
        rows
    }
}

/// The paper's `CalculateIncrement` with overflow detection: returns the
/// site's addition value, or `Err(caller)` naming the node to promote to an
/// anchor when a candidate value would exceed the width capacity.
///
/// `cav`/`icc` are the flat tables of the interval walk. Each (edge,
/// anchor) pair is a caller slot and a stored position in the callee's row
/// ([`Territories::pairs`]), so every read and write is an index. A
/// caller's ICC row is always assigned before its out-edges are processed,
/// so reads never see an uninitialized slot.
fn calculate_increment(
    graph: &CallGraph,
    excluded: &[bool],
    territories: &Territories,
    cav: &mut [u128],
    icc: &[u128],
    site: SiteId,
    cap: u128,
) -> Result<u128, NodeIx> {
    // Line 30-35: a = max over dispatch targets and their reaching anchors.
    let mut av = 0u128;
    for &e in graph.site_edges(site) {
        if excluded[e.index()] {
            continue;
        }
        let edge = graph.edge(e);
        let callee_cav = &cav[territories.row_slots[edge.callee.index()].clone()];
        let (_, positions) = territories.pairs(e, &edge);
        for &p in positions {
            av = av.max(callee_cav[p as usize]);
        }
    }
    // Line 36-40: raise every target's candidate, checking for overflow.
    // Two phases (check, then commit) so an overflowing site leaves the
    // candidate values untouched — the batched restart mode keeps scanning
    // after an overflow and must not observe partial updates.
    for &e in graph.site_edges(site) {
        if excluded[e.index()] {
            continue;
        }
        let edge = graph.edge(e);
        let (slots, _) = territories.pairs(e, &edge);
        if icc[slots].iter().any(|&base| base.saturating_add(av) > cap) {
            return Err(edge.caller);
        }
    }
    for &e in graph.site_edges(site) {
        if excluded[e.index()] {
            continue;
        }
        let edge = graph.edge(e);
        let (slots, positions) = territories.pairs(e, &edge);
        let callee_cav = &mut cav[territories.row_slots[edge.callee.index()].clone()];
        for (&base, &p) in icc[slots].iter().zip(positions) {
            callee_cav[p as usize] = base + av;
        }
    }
    Ok(av)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_ir::{MethodId, SiteId};

    /// The paper's Figure 5 graph: the Figure 4 shape with C and D forced as
    /// anchors. Returns (graph, nodes A..G, sites in creation order:
    /// AB, AC, BD, CD, DE, d2(D'E+DF), c1(CF+CG), EG, FG).
    fn figure5() -> (CallGraph, Vec<NodeIx>, Vec<SiteId>) {
        let mut g = CallGraph::empty();
        let nodes: Vec<NodeIx> = (0..7)
            .map(|i| g.add_node(MethodId::from_index(i)))
            .collect();
        let (a, b, c, d, e, f_, gg) = (
            nodes[0], nodes[1], nodes[2], nodes[3], nodes[4], nodes[5], nodes[6],
        );
        g.set_entry(a);
        let sites: Vec<SiteId> = (0..9).map(SiteId::from_index).collect();
        g.add_edge(a, b, sites[0]); // AB
        g.add_edge(a, c, sites[1]); // AC
        g.add_edge(b, d, sites[2]); // BD
        g.add_edge(c, d, sites[3]); // CD
        g.add_edge(d, e, sites[4]); // DE
        g.add_edge(d, e, sites[5]); // D'E (virtual site d2)
        g.add_edge(d, f_, sites[5]); // DF (virtual site d2)
        g.add_edge(c, f_, sites[6]); // CF (virtual site c1)
        g.add_edge(c, gg, sites[6]); // CG (virtual site c1)
        g.add_edge(e, gg, sites[7]); // EG
        g.add_edge(f_, gg, sites[8]); // FG
        (g, nodes, sites)
    }

    fn analyze_figure5() -> (CallGraph, Vec<NodeIx>, Vec<SiteId>, Encoding) {
        let (g, nodes, sites) = figure5();
        let config =
            Algo2Config::new(EncodingWidth::U64).with_forced_anchors(vec![nodes[2], nodes[3]]); // C and D
        let enc = Encoding::analyze(&g, &HashSet::new(), &config).unwrap();
        (g, nodes, sites, enc)
    }

    #[test]
    fn figure5_territories() {
        let (_, nodes, _, enc) = analyze_figure5();
        let (a, c, d) = (nodes[0], nodes[2], nodes[3]);
        // A's territory: A, B, and the boundary anchors C and D.
        assert_eq!(enc.nanchors[nodes[1].index()], vec![a]); // B
        assert!(enc.nanchors[c.index()].contains(&a));
        assert!(enc.nanchors[d.index()].contains(&a));
        // E is only in D's territory.
        assert_eq!(enc.nanchors[nodes[4].index()], vec![d]);
        // F and G are in both C's and D's territories.
        let mut f_anchors = enc.nanchors[nodes[5].index()].to_vec();
        f_anchors.sort_unstable();
        assert_eq!(f_anchors, vec![c, d]);
        let mut g_anchors = enc.nanchors[nodes[6].index()].to_vec();
        g_anchors.sort_unstable();
        assert_eq!(g_anchors, vec![c, d]);
    }

    #[test]
    fn figure5_iccs_match_paper() {
        let (_, nodes, _, enc) = analyze_figure5();
        let (c, d, e, f_, gg) = (nodes[2], nodes[3], nodes[4], nodes[5], nodes[6]);
        // Paper annotation: ICC[E][D] = 2.
        assert_eq!(enc.icc_of(e, d), Some(2));
        // Anchors encode relative to themselves with ICC 1.
        assert_eq!(enc.icc_of(c, c), Some(1));
        assert_eq!(enc.icc_of(d, d), Some(1));
        // Derived values following the worked example.
        assert_eq!(enc.icc_of(f_, c), Some(1));
        assert_eq!(enc.icc_of(f_, d), Some(2));
        assert_eq!(enc.icc_of(gg, c), Some(3));
        assert_eq!(enc.icc_of(gg, d), Some(4));
    }

    #[test]
    fn figure5_fg_addition_value_is_two() {
        let (_, _, sites, enc) = analyze_figure5();
        // Paper: max{CAV[G][D], CAV[G][C]} = 2 is used for FG.
        assert_eq!(enc.site_av[&sites[8]], 2);
        // The virtual site in C (CF, CG) gets 0.
        assert_eq!(enc.site_av[&sites[6]], 0);
        // EG gets 0 (first incoming edge of G relative to D).
        assert_eq!(enc.site_av[&sites[7]], 0);
    }

    #[test]
    fn figure5_cfg_piece_encodes_to_two() {
        let (g, _, _, enc) = analyze_figure5();
        // CF is edge index 7, FG is edge index 10 in creation order.
        let id = enc.encode_piece(&g, &[EdgeIx::from_index(7), EdgeIx::from_index(10)]);
        assert_eq!(id, 2);
    }

    #[test]
    fn tiny_width_forces_overflow_anchors() {
        // A deep chain of diamonds doubles the context count at every level;
        // at width 4 (capacity 16) anchors must appear.
        let mut g = CallGraph::empty();
        let mut prev = g.add_node(MethodId::from_index(0));
        g.set_entry(prev);
        let mut next_method = 1;
        let mut next_site = 0;
        for _ in 0..10 {
            let left = g.add_node(MethodId::from_index(next_method));
            let right = g.add_node(MethodId::from_index(next_method + 1));
            let join = g.add_node(MethodId::from_index(next_method + 2));
            next_method += 3;
            for (t, _name) in [(left, "l"), (right, "r")] {
                g.add_edge(prev, t, SiteId::from_index(next_site));
                next_site += 1;
                g.add_edge(t, join, SiteId::from_index(next_site));
                next_site += 1;
            }
            prev = join;
        }
        let unbounded = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::UNBOUNDED),
        )
        .unwrap();
        assert_eq!(unbounded.overflow_anchor_count(), 0);
        assert_eq!(unbounded.max_icc, 1 << 10); // 2^10 contexts at the sink.

        let narrow = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::new(4)),
        )
        .unwrap();
        assert!(narrow.overflow_anchor_count() > 0);
        assert!(narrow.max_icc <= EncodingWidth::new(4).capacity());
        assert_eq!(narrow.restarts, narrow.overflow_anchor_count());
    }

    #[test]
    fn batched_overflow_converges_and_stays_valid() {
        // Same diamond chain as `tiny_width_forces_overflow_anchors`, but
        // with batched placement: fewer restarts, a valid encoding, and an
        // anchor set at most a small factor larger.
        let mut g = CallGraph::empty();
        let mut prev = g.add_node(MethodId::from_index(0));
        g.set_entry(prev);
        let mut next_method = 1;
        let mut next_site = 0;
        for _ in 0..10 {
            let left = g.add_node(MethodId::from_index(next_method));
            let right = g.add_node(MethodId::from_index(next_method + 1));
            let join = g.add_node(MethodId::from_index(next_method + 2));
            next_method += 3;
            for t in [left, right] {
                g.add_edge(prev, t, SiteId::from_index(next_site));
                next_site += 1;
                g.add_edge(t, join, SiteId::from_index(next_site));
                next_site += 1;
            }
            prev = join;
        }
        let one_by_one = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::new(4)),
        )
        .unwrap();
        let batched = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::new(4)).with_batch_overflow(),
        )
        .unwrap();
        assert!(batched.max_icc <= EncodingWidth::new(4).capacity());
        assert!(batched.restarts <= one_by_one.restarts);
        assert!(batched.overflow_anchor_count() >= one_by_one.overflow_anchor_count());
        assert!(batched.overflow_anchor_count() <= 3 * one_by_one.overflow_anchor_count() + 3);
    }

    #[test]
    fn width_one_on_wide_fanin_errors() {
        // Eight parallel call sites from one caller into one callee need an
        // encoding space of 8 at the callee relative to the caller's anchor;
        // capacity 2 cannot hold that no matter where anchors are placed,
        // because anchoring the caller is already the best case.
        let mut g = CallGraph::empty();
        let root = g.add_node(MethodId::from_index(0));
        g.set_entry(root);
        let sink = g.add_node(MethodId::from_index(1));
        for i in 0..8usize {
            g.add_edge(root, sink, SiteId::from_index(i));
        }
        let result = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::new(1)),
        );
        assert!(matches!(result, Err(EncodeError::WidthTooSmall { .. })));
    }

    #[test]
    fn per_anchor_fanin_from_distinct_anchors_fits_tiny_width() {
        // The complementary case: wide fan-in through distinct intermediate
        // nodes is fine at capacity 2 because each intermediate becomes its
        // own anchor and pieces stay one edge long.
        let mut g = CallGraph::empty();
        let root = g.add_node(MethodId::from_index(0));
        g.set_entry(root);
        let sink = g.add_node(MethodId::from_index(1));
        for i in 0..8usize {
            let mid = g.add_node(MethodId::from_index(2 + i));
            g.add_edge(root, mid, SiteId::from_index(2 * i));
            g.add_edge(mid, sink, SiteId::from_index(2 * i + 1));
        }
        let enc = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::new(1)),
        )
        .unwrap();
        assert!(enc.max_icc <= 2);
    }

    #[test]
    fn unbounded_single_anchor_matches_algorithm1() {
        // With only the root as anchor and no overflow, Algorithm 2 must
        // reproduce Algorithm 1's ICCs and addition values.
        let (g, nodes, sites) = figure5();
        let enc = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::UNBOUNDED),
        )
        .unwrap();
        let a1 = crate::algo1::Algo1Encoding::analyze(&g, &HashSet::new()).unwrap();
        let a = nodes[0];
        for node in g.nodes() {
            assert_eq!(
                enc.icc_of(node, a).unwrap_or(1),
                a1.icc[node.index()].max(1),
                "ICC mismatch at {node}"
            );
        }
        for site in &sites {
            assert_eq!(enc.site_av.get(site), a1.site_av.get(site));
        }
        assert_eq!(enc.required_max_id(), a1.max_icc - 1);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = CallGraph::empty();
        assert_eq!(
            Encoding::analyze(&g, &HashSet::new(), &Algo2Config::new(EncodingWidth::U64))
                .unwrap_err(),
            EncodeError::NoRoots
        );
    }
}
