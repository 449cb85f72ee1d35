//! The static plan auditor.
//!
//! [`audit_plan`] re-derives, from first principles, everything an
//! [`EncodingPlan`] claims about itself and diffs the two views:
//!
//! * **Algorithm 2 territories** are recomputed by an independent
//!   implementation of the paper's `IdentifyTerritories` (a bounded DFS per
//!   anchor that retreats at other anchors) and compared against the stored
//!   `nanchors`/`eanchors` tables (`DP002`/`DP003`).
//! * **Algorithm 1/2 soundness** is checked symbolically: per `(node,
//!   anchor)` pair, every non-excluded in-edge contributes the arrival
//!   interval `[av, av + space(caller))`; the intervals must be pairwise
//!   disjoint (that *is* injectivity, without enumerating a single path)
//!   and their supremum must equal the stored ICC (`DP001`) and fit the
//!   encoding width (`DP010`).
//! * **Call-path tracking** recomputes the co-dispatch components with an
//!   independent union-find and checks the SID partition against them:
//!   distinct components must not share a SID (`DP020`, a silent UCP), one
//!   component must not straddle SIDs (`DP021`, a false alarm).
//! * **Call-graph hygiene**: unreachable nodes (`DP030`), dead edges
//!   (`DP032`), and back-edge classification — surviving cycles,
//!   non-anchor back-edge targets, needless exclusions (`DP031`).
//!
//! The auditor shares no code with the analysis it audits: `deltapath-core`
//! computes the tables, this module recomputes them differently. A bug both
//! implementations share can slip through; a bug in either one cannot.
//!
//! # Structure: global, per-anchor, and per-node work
//!
//! The audit is organised so the expensive part — the territory walk plus
//! interval check — is a *per-anchor* unit of work with no cross-anchor
//! data flow. With [`AuditOptions::with_workers`], [`audit_plan_full`] runs
//! those units on scoped threads, each over a contiguous chunk of the
//! sorted anchor list; diagnostics are merged back in ascending anchor
//! order, so the output is byte-identical at any worker count.

use std::collections::{BTreeSet, HashMap, HashSet};

use deltapath_callgraph::{
    reachable_from, topological_order, CallGraph, EdgeIx, NodeIx, StronglyConnectedComponents,
};
use deltapath_core::{CompiledPlan, Encoding, EncodingPlan, Sid};
use deltapath_ir::Program;
use deltapath_telemetry::{names, NullTelemetry, ScopedSpan, Telemetry};

use crate::diag::{AuditReport, Diagnostic, LintCode};

/// Tuning knobs for [`audit_plan_full`].
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// Worker threads for the per-anchor passes. `1` (the default) stays on
    /// the calling thread; larger values use scoped threads. Output is
    /// byte-identical at any count.
    pub workers: usize,
}

impl Default for AuditOptions {
    fn default() -> Self {
        Self { workers: 1 }
    }
}

impl AuditOptions {
    /// Sets the per-anchor worker thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Audits `plan` against `program`, returning every finding.
///
/// A plan freshly produced by [`EncodingPlan::analyze`] audits clean (no
/// errors, no warnings) on every bundled workload; any mutation of its
/// tables is designed to surface as at least one diagnostic with a stable
/// `DP0xx` code.
pub fn audit_plan(program: &Program, plan: &EncodingPlan) -> AuditReport {
    audit_plan_with(program, plan, &NullTelemetry)
}

/// As [`audit_plan`], emitting one timed span per audit pass into `sink`
/// (`audit.hygiene`, `audit.back_edges`, `audit.anchors`,
/// `audit.anchor_walk`, `audit.anchor_merge`, `audit.tables`,
/// `audit.instructions`, `audit.sids`, `audit.compiled`), all nested under
/// an `audit.plan` span carrying the diagnostic count. Against a disabled
/// sink this is exactly [`audit_plan`].
pub fn audit_plan_with(
    program: &Program,
    plan: &EncodingPlan,
    sink: &dyn Telemetry,
) -> AuditReport {
    audit_plan_full(program, plan, &AuditOptions::default(), sink)
}

/// As [`audit_plan_with`], with explicit options (parallel per-anchor
/// passes).
pub fn audit_plan_full(
    program: &Program,
    plan: &EncodingPlan,
    opts: &AuditOptions,
    sink: &dyn Telemetry,
) -> AuditReport {
    let total = ScopedSpan::enter(sink, names::AUDIT_PLAN);
    let graph = plan.graph();
    let enc = plan.encoding();
    let n = graph.node_count();
    let m = graph.edge_count();

    let mut report = AuditReport {
        diagnostics: Vec::new(),
        nodes: n,
        edges: m,
        anchors: enc.anchors.len(),
    };

    if let Some(diag) = shape_guard(plan) {
        report.diagnostics.push(diag);
        total.finish(&[("diagnostics", 1)]);
        return report.finish();
    }

    // ---- Call-graph hygiene: reachability (DP030/DP032) ----
    let hygiene_span = ScopedSpan::enter(sink, names::AUDIT_HYGIENE);
    let live = compute_live(graph);
    let hygiene = hygiene_pass(program, plan, &live);
    hygiene_span.finish(&[("diagnostics", hygiene.len() as u64)]);

    // ---- Back-edge classification (DP031) ----
    let back_edge_span = ScopedSpan::enter(sink, names::AUDIT_BACK_EDGES);
    let topo = topological_order(graph, &enc.excluded);
    let topo_ok = topo.is_ok();
    let topo_pos = topo_positions(n, topo.as_deref().ok());
    let back_edges = back_edge_pass(program, plan, topo_ok);
    back_edge_span.finish(&[("excluded", enc.excluded.len() as u64)]);

    // ---- Anchor structure (DP003) ----
    let anchor_span = ScopedSpan::enter(sink, names::AUDIT_ANCHORS);
    let structure = anchor_structure_pass(program, plan);
    anchor_span.finish(&[("anchors", enc.anchors.len() as u64)]);

    // ---- Per-anchor territory walks and interval checks ----
    let mut anchors: Vec<NodeIx> = enc.anchors.clone();
    anchors.sort_unstable();
    anchors.dedup();
    let owners = OwnerIndex::build(plan);
    let (anchor_diags, covered) = run_anchor_passes(
        program, plan, &anchors, &owners, topo_ok, &topo_pos, opts, sink,
    );

    // ---- Per-node / per-edge table checks, coverage, width ----
    let tables_span = ScopedSpan::enter(sink, names::AUDIT_TABLES);
    let mut table_diags = Vec::new();
    let mut icc_max = 0u128;
    for node in graph.nodes() {
        table_diags.extend(node_pass(program, plan, node));
        let values = enc.icc.values(node.index());
        icc_max = values.iter().fold(icc_max, |max, &v| max.max(v));
    }
    for e in 0..m {
        table_diags.extend(edge_pass(plan, EdgeIx::from_index(e)));
    }
    let coverage = coverage_pass(program, plan, &live, &covered);
    let width = if topo_ok {
        width_pass(plan, icc_max)
    } else {
        Vec::new()
    };
    tables_span.finish(&[]);

    // ---- Instruction drift (DP001/DP003) ----
    let instr_span = ScopedSpan::enter(sink, names::AUDIT_INSTRUCTIONS);
    let instructions = instructions_pass(program, plan);
    instr_span.finish(&[]);

    // ---- Call-path tracking (DP020/DP021) ----
    let sid_span = ScopedSpan::enter(sink, names::AUDIT_SIDS);
    let sids = sids_pass(program, plan);
    sid_span.finish(&[]);

    // ---- Compiled dispatch-table lowering (DP040) ----
    // Itemized per-unit checks only; the rendered-fingerprint catch-all in
    // [`audit_compiled`] is provably redundant with them (see
    // `compiled_findings`), so skipping it keeps the output identical.
    let compiled_span = ScopedSpan::enter(sink, names::AUDIT_COMPILED);
    let compiled = compiled_findings(plan, &plan.compile());
    compiled_span.finish(&[]);

    for diags in [
        hygiene,
        back_edges,
        structure,
        anchor_diags,
        table_diags,
        coverage,
        width,
        instructions,
        sids,
        compiled,
    ] {
        report.diagnostics.extend(diags);
    }

    total.finish(&[("diagnostics", report.diagnostics.len() as u64)]);
    report.finish()
}

// ---------------------------------------------------------------------------
// Pass implementations.
// ---------------------------------------------------------------------------

/// Every dependent check indexes the encoding tables by node/edge index, so
/// a length mismatch is reported once and aborts the audit instead of
/// panicking half-way through it.
fn shape_guard(plan: &EncodingPlan) -> Option<Diagnostic> {
    let graph = plan.graph();
    let enc = plan.encoding();
    let n = graph.node_count();
    let m = graph.edge_count();
    (enc.is_anchor.len() != n
        || enc.icc.len() != n
        || enc.nanchors.len() != n
        || enc.eanchors.len() != m)
        .then(|| {
            Diagnostic::error(
                LintCode::CavIccInconsistent,
                format!(
                    "table shapes disagree with the graph: {n} nodes / {m} edges vs \
                     is_anchor[{}] icc[{}] nanchors[{}] eanchors[{}]",
                    enc.is_anchor.len(),
                    enc.icc.len(),
                    enc.nanchors.len(),
                    enc.eanchors.len()
                ),
            )
        })
}

/// Reachability from the roots and UCP entry candidates.
fn compute_live(graph: &CallGraph) -> Vec<bool> {
    let mut starts: Vec<NodeIx> = graph.roots().to_vec();
    starts.extend_from_slice(graph.ucp_entry_candidates());
    reachable_from(graph, &starts, &HashSet::new())
}

/// Dense topological positions (`u32::MAX` when no order exists).
fn topo_positions(n: usize, order: Option<&[NodeIx]>) -> Vec<u32> {
    let mut pos = vec![u32::MAX; n];
    if let Some(order) = order {
        for (i, &node) in order.iter().enumerate() {
            pos[node.index()] = i as u32;
        }
    }
    pos
}

/// Unreachable nodes (DP030) and dead edges (DP032).
fn hygiene_pass(program: &Program, plan: &EncodingPlan, live: &[bool]) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let name_of = |node: NodeIx| program.method_name(graph.method_of(node));
    let mut diags = Vec::new();
    for node in graph.nodes() {
        if !live[node.index()] {
            diags.push(Diagnostic::warning(
                LintCode::UnreachableNode,
                format!(
                    "{} ({node}) is unreachable from every root and UCP entry candidate",
                    name_of(node)
                ),
            ));
        }
    }
    for (i, edge) in graph.edges().iter().enumerate() {
        if !live[edge.caller.index()] || !live[edge.callee.index()] {
            diags.push(Diagnostic::warning(
                LintCode::DeadEdge,
                format!(
                    "edge e{i} {} -> {} (site {}) touches an unreachable node",
                    name_of(edge.caller),
                    name_of(edge.callee),
                    edge.site.index()
                ),
            ));
        }
    }
    diags
}

/// Back-edge classification (DP031): surviving cycles, non-anchor targets,
/// needless exclusions, and drift between the excluded edge set and the
/// per-call back-edge table the runtime consults.
fn back_edge_pass(program: &Program, plan: &EncodingPlan, topo_ok: bool) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let enc = plan.encoding();
    let m = graph.edge_count();
    let name_of = |node: NodeIx| program.method_name(graph.method_of(node));
    let mut diags = Vec::new();

    if !topo_ok {
        diags.push(Diagnostic::error(
            LintCode::UnclassifiedBackEdge,
            "a cycle survives back-edge exclusion: the encoded graph is not acyclic".to_owned(),
        ));
    }
    let scc = StronglyConnectedComponents::compute(graph);
    let mut excluded_sorted: Vec<EdgeIx> = enc.excluded.iter().copied().collect();
    excluded_sorted.sort_unstable();
    for &e in &excluded_sorted {
        if e.index() >= m {
            diags.push(Diagnostic::error(
                LintCode::UnclassifiedBackEdge,
                format!("excluded edge e{} does not exist in the graph", e.index()),
            ));
            continue;
        }
        let edge = graph.edge(e);
        if !enc.is_anchor[edge.callee.index()] {
            diags.push(Diagnostic::error(
                LintCode::UnclassifiedBackEdge,
                format!(
                    "back edge e{} targets {} ({}), which is not an anchor: its pieces \
                     cannot restart",
                    e.index(),
                    name_of(edge.callee),
                    edge.callee
                ),
            ));
        }
        let self_loop = edge.caller == edge.callee;
        let same_scc =
            scc.component_of[edge.caller.index()] == scc.component_of[edge.callee.index()];
        if !self_loop && !same_scc {
            diags.push(Diagnostic::warning(
                LintCode::UnclassifiedBackEdge,
                format!(
                    "excluded edge e{} {} -> {} closes no cycle: it is needlessly \
                     invisible to the encoding",
                    e.index(),
                    name_of(edge.caller),
                    name_of(edge.callee)
                ),
            ));
        }
    }
    // The per-call back-edge classification the runtime consults must match
    // the excluded edge set exactly.
    let excluded_pairs: HashSet<(deltapath_ir::SiteId, deltapath_ir::MethodId)> = excluded_sorted
        .iter()
        .filter(|e| e.index() < m)
        .map(|&e| {
            let edge = graph.edge(e);
            (edge.site, graph.method_of(edge.callee))
        })
        .collect();
    let stored_pairs: HashSet<_> = plan.back_edge_call_pairs().collect();
    for &(site, method) in stored_pairs.difference(&excluded_pairs) {
        diags.push(Diagnostic::error(
            LintCode::UnclassifiedBackEdge,
            format!(
                "call (site {}, {}) is marked as a back-edge call but no excluded edge \
                 matches it",
                site.index(),
                program.method_name(method)
            ),
        ));
    }
    for &(site, method) in excluded_pairs.difference(&stored_pairs) {
        diags.push(Diagnostic::error(
            LintCode::UnclassifiedBackEdge,
            format!(
                "excluded edge at (site {}, {}) is missing from the back-edge call table",
                site.index(),
                program.method_name(method)
            ),
        ));
    }
    diags
}

/// Anchor list vs flags vs roots (DP003).
fn anchor_structure_pass(program: &Program, plan: &EncodingPlan) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let enc = plan.encoding();
    let name_of = |node: NodeIx| program.method_name(graph.method_of(node));
    let mut diags = Vec::new();
    let anchor_list: BTreeSet<NodeIx> = enc.anchors.iter().copied().collect();
    let anchor_flags: BTreeSet<NodeIx> =
        graph.nodes().filter(|a| enc.is_anchor[a.index()]).collect();
    for &a in anchor_list.difference(&anchor_flags) {
        diags.push(Diagnostic::error(
            LintCode::AnchorCoverageGap,
            format!(
                "{} ({a}) is in the anchor list but not flagged as an anchor",
                name_of(a)
            ),
        ));
    }
    for &a in anchor_flags.difference(&anchor_list) {
        diags.push(Diagnostic::error(
            LintCode::AnchorCoverageGap,
            format!(
                "{} ({a}) is flagged as an anchor but missing from the anchor list",
                name_of(a)
            ),
        ));
    }
    for &root in graph.roots() {
        if !enc.is_anchor[root.index()] {
            diags.push(Diagnostic::error(
                LintCode::AnchorCoverageGap,
                format!(
                    "root {} ({root}) is not an anchor: its contexts have no piece to \
                     start from",
                    name_of(root)
                ),
            ));
        }
    }
    diags
}

/// The inverted stored-territory index: per anchor, the (deduplicated)
/// nodes and edges whose stored rows claim membership. One O(mass) sweep
/// over the rows builds it.
struct OwnerIndex {
    nodes_of: HashMap<usize, Vec<NodeIx>>,
    edges_of: HashMap<usize, Vec<EdgeIx>>,
}

impl OwnerIndex {
    fn build(plan: &EncodingPlan) -> Self {
        let enc = plan.encoding();
        let mut nodes_of: HashMap<usize, Vec<NodeIx>> = HashMap::new();
        for (i, row) in enc.nanchors.iter().enumerate() {
            for &r in row {
                nodes_of
                    .entry(r.index())
                    .or_default()
                    .push(NodeIx::from_index(i));
            }
        }
        let mut edges_of: HashMap<usize, Vec<EdgeIx>> = HashMap::new();
        for (i, row) in enc.eanchors.iter().enumerate() {
            for &r in row {
                edges_of
                    .entry(r.index())
                    .or_default()
                    .push(EdgeIx::from_index(i));
            }
        }
        for list in nodes_of.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        for list in edges_of.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        Self { nodes_of, edges_of }
    }

    fn nodes_of(&self, r: NodeIx) -> &[NodeIx] {
        self.nodes_of.get(&r.index()).map_or(&[], Vec::as_slice)
    }

    fn edges_of(&self, r: NodeIx) -> &[EdgeIx] {
        self.edges_of.get(&r.index()).map_or(&[], Vec::as_slice)
    }
}

/// Reusable per-worker scratch for the per-anchor walks: epoch-stamped
/// visit marks (no O(n) clearing between anchors), the DFS stack, the
/// walked lists, per-node encoding-space values, and the accumulated
/// covered-by-some-walk marks.
struct AnchorScratch {
    node_epoch: Vec<u32>,
    edge_epoch: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeIx>,
    walked_nodes: Vec<NodeIx>,
    walked_edges: Vec<EdgeIx>,
    space: Vec<u128>,
    covered: Vec<bool>,
}

impl AnchorScratch {
    fn new(n: usize, m: usize) -> Self {
        Self {
            node_epoch: vec![0; n],
            edge_epoch: vec![0; m],
            epoch: 0,
            stack: Vec::new(),
            walked_nodes: Vec::new(),
            walked_edges: Vec::new(),
            space: vec![0; n],
            covered: vec![false; n],
        }
    }
}

/// The fused per-anchor pass: one territory walk (the independent
/// `IdentifyTerritories`), stored-vs-walked membership comparison
/// (DP002/DP003), and the symbolic interval/ICC check over the walked
/// region (DP001/DP010, only when a topological order exists).
fn anchor_pass(
    program: &Program,
    plan: &EncodingPlan,
    r: NodeIx,
    owners: &OwnerIndex,
    topo_ok: bool,
    topo_pos: &[u32],
    scratch: &mut AnchorScratch,
) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let enc = plan.encoding();
    let cap = enc.width.capacity();
    let name_of = |node: NodeIx| program.method_name(graph.method_of(node));
    let mut diags = Vec::new();

    // Walk the territory: DFS from the anchor, skipping excluded edges,
    // retreating at other anchors (discovered nodes are members; their
    // out-edges are not followed).
    scratch.epoch += 1;
    let epoch = scratch.epoch;
    scratch.walked_nodes.clear();
    scratch.walked_edges.clear();
    scratch.stack.clear();
    scratch.node_epoch[r.index()] = epoch;
    scratch.walked_nodes.push(r);
    scratch.covered[r.index()] = true;
    scratch.stack.push(r);
    while let Some(node) = scratch.stack.pop() {
        if node != r && enc.is_anchor[node.index()] {
            continue; // Retreat: the anchor's out-edges start a new piece.
        }
        for &e in graph.out_edges(node) {
            if enc.excluded.contains(&e) {
                continue;
            }
            scratch.edge_epoch[e.index()] = epoch;
            scratch.walked_edges.push(e);
            let t = graph.edge(e).callee;
            if scratch.node_epoch[t.index()] != epoch {
                scratch.node_epoch[t.index()] = epoch;
                scratch.walked_nodes.push(t);
                scratch.covered[t.index()] = true;
                scratch.stack.push(t);
            }
        }
    }

    // Stored-vs-walked, both directions.
    for &node in &scratch.walked_nodes {
        if !enc.nanchors[node.index()].contains(&r) {
            diags.push(Diagnostic::error(
                LintCode::AnchorCoverageGap,
                format!(
                    "{} ({node}) is reached by the territory walk of anchor {} ({r}) but \
                     missing from its stored territory",
                    name_of(node),
                    name_of(r)
                ),
            ));
        }
    }
    for &node in owners.nodes_of(r) {
        if scratch.node_epoch[node.index()] != epoch {
            diags.push(Diagnostic::error(
                LintCode::TerritoryOverlap,
                format!(
                    "{} ({node}) is recorded in the territory of anchor {} ({r}) but the \
                     territory walk does not reach it",
                    name_of(node),
                    name_of(r)
                ),
            ));
        }
    }
    for &e in &scratch.walked_edges {
        if !enc.eanchors[e.index()].contains(&r) {
            let edge = graph.edge(e);
            diags.push(Diagnostic::error(
                LintCode::AnchorCoverageGap,
                format!(
                    "edge e{} {} -> {} is traversed by the territory walk of anchor {} \
                     ({r}) but missing from its stored territory",
                    e.index(),
                    name_of(edge.caller),
                    name_of(edge.callee),
                    name_of(r)
                ),
            ));
        }
    }
    for &e in owners.edges_of(r) {
        if scratch.edge_epoch[e.index()] != epoch {
            let edge = graph.edge(e);
            diags.push(Diagnostic::error(
                LintCode::TerritoryOverlap,
                format!(
                    "edge e{} {} -> {} is recorded in the territory of anchor {} ({r}) \
                     but the territory walk does not traverse it",
                    e.index(),
                    name_of(edge.caller),
                    name_of(edge.callee),
                    name_of(r)
                ),
            ));
        }
    }

    if !topo_ok {
        return diags;
    }

    // Symbolic interval/ICC check over the walked region, in topological
    // order: the encoding space of node `c` relative to this anchor is `1`
    // at the anchor, otherwise the supremum of the arrival intervals
    // `[av(e), av(e) + space(caller(e)))` over the walked in-edges of `c`.
    // Disjoint intervals are injectivity, proven over all paths at once;
    // the supremum is exactly what Algorithm 2 stores as `ICC[c][r]`.
    scratch
        .walked_nodes
        .sort_unstable_by_key(|node| topo_pos[node.index()]);
    let mut intervals: Vec<(u128, u128, usize)> = Vec::new();
    for &node in &scratch.walked_nodes {
        if node == r {
            scratch.space[node.index()] = 1;
            continue;
        }
        intervals.clear();
        for &e in graph.in_edges(node) {
            if scratch.edge_epoch[e.index()] != epoch {
                continue;
            }
            let edge = graph.edge(e);
            let Some(&av) = enc.site_av.get(&edge.site) else {
                diags.push(Diagnostic::error(
                    LintCode::CavIccInconsistent,
                    format!(
                        "encoded edge e{} {} -> {} has no addition value for its \
                         site {}",
                        e.index(),
                        name_of(edge.caller),
                        name_of(node),
                        edge.site.index()
                    ),
                ));
                continue;
            };
            let caller_space = scratch.space[edge.caller.index()];
            intervals.push((av, av.saturating_add(caller_space), edge.site.index()));
        }
        intervals.sort_unstable();
        for pair in intervals.windows(2) {
            let (s1, e1, site1) = pair[0];
            let (s2, _, site2) = pair[1];
            if s2 < e1 {
                diags.push(Diagnostic::error(
                    LintCode::CavIccInconsistent,
                    format!(
                        "arrival intervals at {} ({node}) relative to anchor {} ({r}) \
                         overlap: site {site1} covers [{s1}, {e1}) and site {site2} \
                         starts at {s2} — distinct contexts share an ID",
                        name_of(node),
                        name_of(r)
                    ),
                ));
            }
        }
        let bound = intervals.iter().map(|&(_, end, _)| end).max().unwrap_or(0);
        scratch.space[node.index()] = bound;
        if bound > cap {
            diags.push(Diagnostic::error(
                LintCode::WidthOverflowRisk,
                format!(
                    "encoding space {bound} at {} ({node}) relative to anchor {} ({r}) \
                     exceeds the {}-bit capacity {cap}: runtime IDs would wrap",
                    name_of(node),
                    name_of(r),
                    enc.width.bits()
                ),
            ));
        }
        if !enc.is_anchor[node.index()] {
            match enc.icc.get(node.index(), &r) {
                None => diags.push(Diagnostic::error(
                    LintCode::CavIccInconsistent,
                    format!(
                        "{} ({node}) has no stored ICC relative to anchor {} ({r}) \
                         despite being in its territory",
                        name_of(node),
                        name_of(r)
                    ),
                )),
                Some(&stored) if stored != bound => {
                    diags.push(Diagnostic::error(
                        LintCode::CavIccInconsistent,
                        format!(
                            "stored ICC[{}][{}] = {stored} but the addition values \
                             imply {bound}",
                            name_of(node),
                            name_of(r)
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    diags
}

/// Runs the per-anchor passes over `anchors` (ascending), serially or on
/// `opts.workers` scoped threads, each over one contiguous chunk of
/// `anchors`, merging diagnostics in anchor order and OR-merging the
/// covered marks. The result is identical at any worker count.
#[allow(clippy::too_many_arguments)]
fn run_anchor_passes(
    program: &Program,
    plan: &EncodingPlan,
    anchors: &[NodeIx],
    owners: &OwnerIndex,
    topo_ok: bool,
    topo_pos: &[u32],
    opts: &AuditOptions,
    sink: &dyn Telemetry,
) -> (Vec<Diagnostic>, Vec<bool>) {
    let graph = plan.graph();
    let n = graph.node_count();
    let m = graph.edge_count();
    let workers = opts.workers.max(1).min(anchors.len().max(1));

    if workers <= 1 {
        let span = ScopedSpan::enter(sink, names::AUDIT_ANCHOR_WALK);
        let mut scratch = AnchorScratch::new(n, m);
        let out: Vec<Diagnostic> = anchors
            .iter()
            .flat_map(|&r| anchor_pass(program, plan, r, owners, topo_ok, topo_pos, &mut scratch))
            .collect();
        span.finish(&[("anchors", anchors.len() as u64)]);
        return (out, scratch.covered);
    }

    let chunk_len = anchors.len().div_ceil(workers);
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut covered = vec![false; n];
    std::thread::scope(|scope| {
        let handles: Vec<_> = anchors
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    let span = ScopedSpan::enter(sink, names::AUDIT_ANCHOR_WALK);
                    let mut scratch = AnchorScratch::new(n, m);
                    let part: Vec<Diagnostic> = chunk
                        .iter()
                        .flat_map(|&r| {
                            anchor_pass(program, plan, r, owners, topo_ok, topo_pos, &mut scratch)
                        })
                        .collect();
                    span.finish(&[("anchors", chunk.len() as u64)]);
                    (part, scratch.covered)
                })
            })
            .collect();
        let merge = ScopedSpan::enter(sink, names::AUDIT_ANCHOR_MERGE);
        for handle in handles {
            let (part, part_covered) = handle.join().expect("anchor audit worker panicked");
            out.extend(part);
            for (dst, src) in covered.iter_mut().zip(&part_covered) {
                *dst |= src;
            }
        }
        merge.finish(&[("workers", workers as u64)]);
    });
    (out, covered)
}

/// Node-local table checks: stored-territory duplicates (DP002) and the
/// node's ICC row discipline (DP001) — the row lists its anchors ascending,
/// each once (the anchor walk looks them up by binary search); an anchor
/// stores exactly `ICC[self] = 1`; a non-anchor's ICC keys must all be
/// justified by its stored territory row.
fn node_pass(program: &Program, plan: &EncodingPlan, node: NodeIx) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let enc = plan.encoding();
    let name_of = |node: NodeIx| program.method_name(graph.method_of(node));
    let mut diags = Vec::new();
    let stored = &enc.nanchors[node.index()];
    let stored_set: BTreeSet<NodeIx> = stored.iter().copied().collect();
    if stored_set.len() != stored.len() {
        diags.push(Diagnostic::error(
            LintCode::TerritoryOverlap,
            format!(
                "{} ({node}) appears more than once in an anchor's territory list",
                name_of(node)
            ),
        ));
    }
    let keys = enc.icc.row(node.index());
    if keys.windows(2).any(|pair| pair[0] >= pair[1]) {
        diags.push(Diagnostic::error(
            LintCode::CavIccInconsistent,
            format!(
                "the ICC row of {} ({node}) does not list its anchors ascending and \
                 once each: {:?}",
                name_of(node),
                icc_pairs(enc, node)
            ),
        ));
    }
    if enc.is_anchor[node.index()] {
        if keys != [node] || enc.icc.values(node.index()) != [1] {
            diags.push(Diagnostic::error(
                LintCode::CavIccInconsistent,
                format!(
                    "anchor {} ({node}) must store exactly ICC[self] = 1, found {:?}",
                    name_of(node),
                    icc_pairs(enc, node)
                ),
            ));
        }
    } else {
        for &r in keys {
            if !stored_set.contains(&r) {
                diags.push(Diagnostic::error(
                    LintCode::CavIccInconsistent,
                    format!(
                        "{} ({node}) stores an ICC relative to {} ({r}), whose \
                         territory does not contain it",
                        name_of(node),
                        name_of(r)
                    ),
                ));
            }
        }
    }
    diags
}

/// Edge-local table checks: stored-territory duplicates (DP002).
fn edge_pass(plan: &EncodingPlan, e: EdgeIx) -> Vec<Diagnostic> {
    let enc = plan.encoding();
    let stored = &enc.eanchors[e.index()];
    let stored_set: BTreeSet<NodeIx> = stored.iter().copied().collect();
    if stored_set.len() != stored.len() {
        vec![Diagnostic::error(
            LintCode::TerritoryOverlap,
            format!(
                "edge e{} appears more than once in an anchor's territory list",
                e.index()
            ),
        )]
    } else {
        Vec::new()
    }
}

/// Coverage completeness (DP003): every live node must be reached by some
/// anchor's territory walk. `covered` is the OR of all walks' marks.
fn coverage_pass(
    program: &Program,
    plan: &EncodingPlan,
    live: &[bool],
    covered: &[bool],
) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let name_of = |node: NodeIx| program.method_name(graph.method_of(node));
    let mut diags = Vec::new();
    for node in graph.nodes() {
        if live[node.index()] && !covered[node.index()] {
            diags.push(Diagnostic::error(
                LintCode::AnchorCoverageGap,
                format!(
                    "reachable node {} ({node}) is covered by no anchor territory",
                    name_of(node)
                ),
            ));
        }
    }
    diags
}

/// Width bookkeeping (DP010): recorded vs actual `max_icc`, configured vs
/// stored width, and per-site addition values against the capacity.
/// `stored_max` is the maximum over every ICC table.
fn width_pass(plan: &EncodingPlan, stored_max: u128) -> Vec<Diagnostic> {
    let enc = plan.encoding();
    let cap = enc.width.capacity();
    let mut diags = Vec::new();
    if enc.max_icc > cap {
        diags.push(Diagnostic::error(
            LintCode::WidthOverflowRisk,
            format!(
                "max_icc {} exceeds the {}-bit capacity {cap}",
                enc.max_icc,
                enc.width.bits()
            ),
        ));
    }
    if stored_max != enc.max_icc {
        diags.push(Diagnostic::warning(
            LintCode::WidthOverflowRisk,
            format!(
                "max_icc bookkeeping is stale: recorded {}, tables hold {stored_max}",
                enc.max_icc
            ),
        ));
    }
    if enc.width != plan.config().width {
        diags.push(Diagnostic::warning(
            LintCode::WidthOverflowRisk,
            format!(
                "encoding width {:?} differs from the configured width {:?}",
                enc.width,
                plan.config().width
            ),
        ));
    }
    for (&site, &av) in &enc.site_av {
        if av > cap {
            diags.push(Diagnostic::error(
                LintCode::WidthOverflowRisk,
                format!(
                    "addition value {av} of site {} exceeds the capacity {cap}",
                    site.index()
                ),
            ));
        }
    }
    diags
}

/// `node`'s ICC row as `(anchor, value)` pairs, in stored order.
fn icc_pairs(enc: &Encoding, node: NodeIx) -> Vec<(usize, u128)> {
    let pairs = enc.icc.pairs(node.index());
    pairs.map(|(r, &v)| (r.index(), v)).collect()
}

/// The site-local slice of the instruction-drift audit: instruction
/// presence vs the encoded graph, field drift against the encoding table,
/// and addition values with no instruction to emit them.
fn instructions_site_unit(
    program: &Program,
    plan: &EncodingPlan,
    site: deltapath_ir::SiteId,
) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let enc = plan.encoding();
    let mut diags = Vec::new();

    if let Some(program_site) = program.sites().get(site.index()) {
        let in_graph = graph.node_of(program_site.caller()).is_some();
        match plan.site(site) {
            None if in_graph => diags.push(Diagnostic::error(
                LintCode::CavIccInconsistent,
                format!(
                    "site {} in instrumented method {} has no site instruction",
                    site.index(),
                    program.method_name(program_site.caller())
                ),
            )),
            Some(_) if !in_graph => diags.push(Diagnostic::error(
                LintCode::CavIccInconsistent,
                format!(
                    "site {} carries an instruction but its caller {} is not in the \
                     encoded graph",
                    site.index(),
                    program.method_name(program_site.caller())
                ),
            )),
            _ => {}
        }
    }

    if let Some(instr) = plan.site(site) {
        let stored_av = enc.site_av.get(&site).copied();
        if instr.encoded != stored_av.is_some() {
            diags.push(Diagnostic::error(
                LintCode::CavIccInconsistent,
                format!(
                    "site {}: encoded flag is {} but the encoding {} an addition value \
                     for it",
                    site.index(),
                    instr.encoded,
                    if stored_av.is_some() { "has" } else { "lacks" }
                ),
            ));
        }
        let expected_av = stored_av.unwrap_or(0);
        if u128::from(instr.av) != expected_av {
            diags.push(Diagnostic::error(
                LintCode::CavIccInconsistent,
                format!(
                    "site {}: instruction addition value {} drifted from the encoding \
                     table's {expected_av}",
                    site.index(),
                    instr.av
                ),
            ));
        }
        if program.site(site).caller() != instr.caller {
            diags.push(Diagnostic::error(
                LintCode::CavIccInconsistent,
                format!(
                    "site {}: instruction caller {} disagrees with the program's {}",
                    site.index(),
                    program.method_name(instr.caller),
                    program.method_name(program.site(site).caller())
                ),
            ));
        }
    } else if enc.site_av.contains_key(&site) {
        // An addition value no instruction delivers: the arithmetic would
        // silently never execute.
        diags.push(Diagnostic::error(
            LintCode::CavIccInconsistent,
            format!(
                "site {} has an addition value but no site instruction emits it",
                site.index()
            ),
        ));
    }
    diags
}

/// The method-local slice of the instruction-drift audit: entry-instruction
/// presence for encoded methods, anchor-flag agreement, and phantom entries
/// for methods outside the graph.
fn instructions_entry_unit(
    program: &Program,
    plan: &EncodingPlan,
    method: deltapath_ir::MethodId,
) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let enc = plan.encoding();
    let mut diags = Vec::new();
    match graph.node_of(method) {
        Some(node) => match plan.entry(method) {
            None => diags.push(Diagnostic::error(
                LintCode::CavIccInconsistent,
                format!(
                    "encoded method {} ({node}) has no entry instruction",
                    program.method_name(method)
                ),
            )),
            Some(instr) if instr.is_anchor != enc.is_anchor[node.index()] => {
                diags.push(Diagnostic::error(
                    LintCode::AnchorCoverageGap,
                    format!(
                        "entry instruction of {} ({node}) says is_anchor = {} but the \
                         encoding says {}",
                        program.method_name(method),
                        instr.is_anchor,
                        enc.is_anchor[node.index()]
                    ),
                ));
            }
            Some(_) => {}
        },
        None => {
            if plan.entry(method).is_some() {
                diags.push(Diagnostic::error(
                    LintCode::CavIccInconsistent,
                    format!(
                        "entry instruction exists for {}, which is not in the encoded \
                         graph",
                        program.method_name(method)
                    ),
                ));
            }
        }
    }
    diags
}

/// Per-site / per-entry instruction drift against the encoding tables
/// (DP001) and the anchor set (DP003): every site and entry unit, run over
/// the union of the program's, the plan's, and the encoding's key domains.
fn instructions_pass(program: &Program, plan: &EncodingPlan) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let enc = plan.encoding();

    let site_domain = program
        .sites()
        .len()
        .max(
            plan.site_instrs()
                .map(|(s, _)| s.index() + 1)
                .max()
                .unwrap_or(0),
        )
        .max(enc.site_av.keys().map(|s| s.index() + 1).max().unwrap_or(0));
    let mut diags = Vec::new();
    for s in 0..site_domain {
        diags.extend(instructions_site_unit(
            program,
            plan,
            deltapath_ir::SiteId::from_index(s),
        ));
    }

    let mut in_domain = vec![false; 0];
    let mark = |i: usize, v: &mut Vec<bool>| {
        if i >= v.len() {
            v.resize(i + 1, false);
        }
        v[i] = true;
    };
    for node in graph.nodes() {
        mark(graph.method_of(node).index(), &mut in_domain);
    }
    for (method, _) in plan.entry_instrs() {
        mark(method.index(), &mut in_domain);
    }
    for (m, _) in in_domain.iter().enumerate().filter(|(_, &d)| d) {
        diags.extend(instructions_entry_unit(
            program,
            plan,
            deltapath_ir::MethodId::from_index(m),
        ));
    }
    diags
}

/// Call-path-tracking soundness: recompute the co-dispatch components with
/// an independent union-find and compare the SID partition against them.
fn sids_pass(program: &Program, plan: &EncodingPlan) -> Vec<Diagnostic> {
    let graph = plan.graph();
    let sids = plan.sids();
    let n = graph.node_count();
    let mut diags = Vec::new();

    // Independent union-find (union by size, full path compression —
    // deliberately a different formulation from `SidTable::compute`).
    let mut parent: Vec<usize> = (0..n).collect();
    let mut size = vec![1usize; n];
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        while parent[x] != root {
            let next = parent[x];
            parent[x] = root;
            x = next;
        }
        root
    }
    for site in graph.instrumented_sites() {
        let mut targets = graph
            .site_edges(site)
            .iter()
            .map(|&e| graph.edge(e).callee.index());
        let Some(first) = targets.next() else {
            continue;
        };
        let mut a = find(&mut parent, first);
        for t in targets {
            let b = find(&mut parent, t);
            if a != b {
                let (big, small) = if size[a] >= size[b] { (a, b) } else { (b, a) };
                parent[small] = big;
                size[big] += size[small];
                a = big;
            }
        }
    }

    let name_of = |i: usize| program.method_name(graph.method_of(NodeIx::from_index(i)));

    // One representative per component; one component per SID.
    let mut rep_of_component: HashMap<usize, usize> = HashMap::new();
    let mut component_of_sid: HashMap<Sid, usize> = HashMap::new();
    for i in 0..n {
        let sid = sids.sid_of_node_index(i);
        if sid == Sid::UNKNOWN {
            diags.push(Diagnostic::error(
                LintCode::SidMismatch,
                format!(
                    "{} carries the reserved UNKNOWN SID: its entry check would reject \
                     every benign path",
                    name_of(i)
                ),
            ));
            continue;
        }
        let root = find(&mut parent, i);
        let rep = *rep_of_component.entry(root).or_insert(i);
        // Intra-component disagreement: a benign co-dispatched path would
        // false-alarm (DP021).
        let rep_sid = sids.sid_of_node_index(rep);
        if sid != rep_sid {
            diags.push(Diagnostic::error(
                LintCode::SidMismatch,
                format!(
                    "co-dispatched methods {} ({rep_sid}) and {} ({sid}) carry different \
                     SIDs: benign paths between them would be flagged hazardous",
                    name_of(rep),
                    name_of(i)
                ),
            ));
        }
        // Cross-component sharing: a hazardous unexpected call path between
        // the two components would pass the entry check (DP020).
        match component_of_sid.get(&sid) {
            None => {
                component_of_sid.insert(sid, root);
            }
            Some(&owner) if owner != root => {
                let owner_rep = rep_of_component[&owner];
                diags.push(Diagnostic::error(
                    LintCode::SidCollision,
                    format!(
                        "{} and {} must be distinguished at check sites but share {sid}: \
                         a hazardous unexpected call path between them would go undetected",
                        name_of(owner_rep),
                        name_of(i)
                    ),
                ));
            }
            Some(_) => {}
        }
    }

    // Table-internal and instruction drift (DP021).
    for node in graph.nodes() {
        let method = graph.method_of(node);
        let table_sid = sids.sid_of_node_index(node.index());
        if sids.sid_of_method(method) != Some(table_sid) {
            diags.push(Diagnostic::error(
                LintCode::SidMismatch,
                format!(
                    "SID table disagrees with itself about {}: node lookup {table_sid}, \
                     method lookup {:?}",
                    program.method_name(method),
                    sids.sid_of_method(method)
                ),
            ));
        }
        if let Some(instr) = plan.entry(method) {
            if instr.sid != table_sid {
                diags.push(Diagnostic::error(
                    LintCode::SidMismatch,
                    format!(
                        "entry instruction of {} carries {} but the SID table says \
                         {table_sid}",
                        program.method_name(method),
                        instr.sid
                    ),
                ));
            }
        }
    }
    for (site, instr) in plan.site_instrs() {
        let edges = graph.site_edges(site);
        if edges.is_empty() {
            if instr.expected_sid != Sid::UNKNOWN {
                diags.push(Diagnostic::error(
                    LintCode::SidMismatch,
                    format!(
                        "site {} has no encoded target yet expects {} instead of the \
                         reserved UNKNOWN SID",
                        site.index(),
                        instr.expected_sid
                    ),
                ));
            }
            continue;
        }
        for &e in edges {
            let callee = graph.edge(e).callee;
            let target_sid = sids.sid_of_node_index(callee.index());
            if instr.expected_sid != target_sid {
                diags.push(Diagnostic::error(
                    LintCode::SidMismatch,
                    format!(
                        "site {} expects {} but dispatch target {} carries {target_sid}: \
                         the benign path would be flagged hazardous",
                        site.index(),
                        instr.expected_sid,
                        program.method_name(graph.method_of(callee))
                    ),
                ));
            }
        }
    }
    diags
}

fn divergence(message: String) -> Diagnostic {
    Diagnostic::error(LintCode::CompiledPlanDivergence, message)
}

/// The non-unit slice of the compiled cross-check: config scalars and the
/// back-edge pair set (which the lowering derives from the whole
/// `back_edge_calls` list, not from any single site/entry row).
fn compiled_global_unit(plan: &EncodingPlan, compiled: &CompiledPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if compiled.cpt() != plan.config().cpt {
        diags.push(divergence(format!(
            "compiled image was lowered with cpt={} but the plan has cpt={}",
            compiled.cpt(),
            plan.config().cpt
        )));
    }
    if compiled.entry_method() != plan.entry_method() {
        diags.push(divergence(format!(
            "compiled image claims entry method {} but the plan enters at {}",
            compiled.entry_method(),
            plan.entry_method()
        )));
    }
    // The image stores the pair set only as the two-level lookup table
    // the entry hook probes, so this checks exactly what the hooks consult.
    let want: BTreeSet<_> = plan.back_edge_call_pairs().collect();
    let table: BTreeSet<_> = compiled.back_edge_call_pairs().collect();
    for &(site, method) in want.difference(&table) {
        diags.push(divergence(format!(
            "back-edge call ({site}, {method}) is missing from the lookup table: the \
             batched encoder would miss the recursion push"
        )));
    }
    for &(site, method) in table.difference(&want) {
        diags.push(divergence(format!(
            "back-edge call ({site}, {method}) appears in the lookup table only: the \
             batched encoder would push a spurious recursion frame"
        )));
    }
    diags
}

/// One site of the compiled cross-check, both directions: the re-expanded
/// word must equal the plan's instruction, and no word may be present
/// without one.
fn compiled_site_unit(
    plan: &EncodingPlan,
    compiled: &CompiledPlan,
    site: deltapath_ir::SiteId,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    match (plan.site(site), compiled.site_instr(site)) {
        (Some(_), None) => diags.push(divergence(format!(
            "site {site} is in the plan but absent from the tables"
        ))),
        (Some(instr), Some(got)) if got != *instr => diags.push(divergence(format!(
            "site {site} re-expands to {got:?} but the plan holds {instr:?}"
        ))),
        (None, Some(_)) => diags.push(divergence(format!(
            "site {site} is present in the tables but not in the plan (phantom entry)"
        ))),
        _ => {}
    }
    diags
}

/// One method entry of the compiled cross-check (same shape as
/// [`compiled_site_unit`]).
fn compiled_entry_unit(
    plan: &EncodingPlan,
    compiled: &CompiledPlan,
    method: deltapath_ir::MethodId,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    match (plan.entry(method), compiled.entry_instr(method)) {
        (Some(_), None) => diags.push(divergence(format!(
            "entry of method {method} is in the plan but absent from the tables"
        ))),
        (Some(instr), Some(got)) if got != *instr => diags.push(divergence(format!(
            "entry of method {method} re-expands to {got:?} but the plan holds {instr:?}"
        ))),
        (None, Some(_)) => diags.push(divergence(format!(
            "entry of method {method} is present in the tables but not in the plan \
             (phantom entry)"
        ))),
        _ => {}
    }
    diags
}

/// Every unit of the compiled cross-check over the union of the plan's and
/// the image's key domains.
///
/// This deliberately omits [`audit_compiled`]'s rendered-fingerprint
/// catch-all, and loses nothing by it: `render_instructions` emits exactly
/// the per-site fields (av/encoded/tracked/expected_sid/caller), the
/// per-entry fields (sid/is_anchor/check_sid), and the back-edge pairs —
/// each fully covered by the itemized equality and presence checks above.
/// With every unit empty the two renders are byte-equal by construction,
/// so the catch-all can never fire when the itemized checks pass.
fn compiled_findings(plan: &EncodingPlan, compiled: &CompiledPlan) -> Vec<Diagnostic> {
    let mut diags = compiled_global_unit(plan, compiled);

    let mut site_domain: Vec<bool> = Vec::new();
    let mut entry_domain: Vec<bool> = Vec::new();
    let mark = |i: usize, v: &mut Vec<bool>| {
        if i >= v.len() {
            v.resize(i + 1, false);
        }
        v[i] = true;
    };
    for (site, _) in plan.site_instrs() {
        mark(site.index(), &mut site_domain);
    }
    for site in compiled.present_sites() {
        mark(site.index(), &mut site_domain);
    }
    for (method, _) in plan.entry_instrs() {
        mark(method.index(), &mut entry_domain);
    }
    for method in compiled.present_entries() {
        mark(method.index(), &mut entry_domain);
    }

    for (s, _) in site_domain.iter().enumerate().filter(|(_, &d)| d) {
        diags.extend(compiled_site_unit(
            plan,
            compiled,
            deltapath_ir::SiteId::from_index(s),
        ));
    }
    for (m, _) in entry_domain.iter().enumerate().filter(|(_, &d)| d) {
        diags.extend(compiled_entry_unit(
            plan,
            compiled,
            deltapath_ir::MethodId::from_index(m),
        ));
    }
    diags
}

/// Cross-checks a [`CompiledPlan`] against the map-based plan it claims to
/// be a lowering of, returning one `DP040` error per divergence (empty when
/// the image is faithful).
///
/// [`audit_plan`] runs this against a fresh lowering to validate the
/// compiler; call it directly against a *held* image to detect staleness —
/// a compiled plan kept across a re-analysis (dynamic class loading)
/// diverges from the new plan and must be rebuilt.
pub fn audit_compiled(plan: &EncodingPlan, compiled: &CompiledPlan) -> Vec<Diagnostic> {
    let mut diags = compiled_findings(plan, compiled);
    // Belt-and-braces for external callers holding a stale image: the
    // canonical instruction dumps must match byte for byte. Provably
    // redundant with the itemized checks (see `compiled_findings`), kept
    // here as a cheap independent witness on the non-hot path.
    if diags.is_empty() && compiled.instruction_fingerprint() != plan.instruction_fingerprint() {
        diags.push(divergence(
            "instruction fingerprints differ between the plan and its compiled image".to_owned(),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_core::PlanConfig;
    use deltapath_ir::{MethodKind, ProgramBuilder, Receiver};

    fn diamond_program() -> Program {
        let mut b = ProgramBuilder::new("audit");
        let a = b.add_class("A", None);
        let c1 = b.add_class("C1", Some(a));
        let c2 = b.add_class("C2", Some(a));
        b.method(a, "f", MethodKind::Virtual)
            .body(|f| {
                f.call(a, "leaf");
            })
            .finish();
        b.method(c1, "f", MethodKind::Virtual)
            .body(|f| {
                f.call(a, "leaf");
                f.call(a, "leaf");
            })
            .finish();
        b.method(c2, "f", MethodKind::Virtual).finish();
        b.method(a, "leaf", MethodKind::Static).finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.vcall(a, "f", Receiver::Cycle(vec![a, c1, c2]));
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn clean_plan_audits_clean() {
        let p = diamond_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let report = audit_plan(&p, &plan);
        assert!(
            report.is_clean(),
            "expected a clean audit, got:\n{}",
            report
                .diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.nodes, plan.graph().node_count());
        assert_eq!(report.anchors, plan.encoding().anchors.len());
    }

    #[test]
    fn zeroed_addition_value_breaks_injectivity() {
        let p = diamond_program();
        let mut plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        // Zero every addition value: all arrival intervals collapse onto
        // [0, ..) and must overlap somewhere (C1.f has two leaf calls).
        let sites: Vec<_> = plan.encoding().site_av.keys().copied().collect();
        for site in &sites {
            plan.encoding_mut().site_av.insert(*site, 0);
            if let Some(instr) = plan.site_instr_mut(*site) {
                instr.av = 0;
            }
        }
        let report = audit_plan(&p, &plan);
        assert!(report.has_errors());
        assert!(report.codes().contains("DP001"));
    }

    #[test]
    fn shape_corruption_is_reported_not_a_panic() {
        let p = diamond_program();
        let mut plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let rows = plan.encoding().icc.len();
        plan.encoding_mut().icc.truncate(rows - 1);
        let report = audit_plan(&p, &plan);
        assert!(report.has_errors());
        assert_eq!(
            report.codes().into_iter().collect::<Vec<_>>(),
            vec!["DP001"]
        );
    }

    #[test]
    fn worker_counts_do_not_change_the_report() {
        let p = diamond_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let serial = audit_plan_full(&p, &plan, &AuditOptions::default(), &NullTelemetry);
        for workers in [2, 3, 8] {
            let par = audit_plan_full(
                &p,
                &plan,
                &AuditOptions::default().with_workers(workers),
                &NullTelemetry,
            );
            assert_eq!(
                par.to_json("w"),
                serial.to_json("w"),
                "audit output drifted at {workers} workers"
            );
        }
    }
}
