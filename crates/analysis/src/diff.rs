//! Semantic plan diffing.
//!
//! [`diff_plans`] compares two [`EncodingPlan`]s *structurally*, keyed by
//! method (and `(caller, callee, site)` edge triples) rather than node
//! index, so plans whose graphs merely enumerate the same program in a
//! different order do not drown the real differences in renumbering noise.
//! The comparison walks every layer of a plan:
//!
//! * configuration knobs and the entry method (`DP050`),
//! * graph shape — method presence, adjacency, root/UCP/entry
//!   designations (`DP051`, via
//!   [`GraphChangeSet`](deltapath_callgraph::GraphChangeSet)),
//! * the anchor and overflow-anchor sets (`DP052`),
//! * encoding tables — addition values, ICC rows, back-edge exclusions,
//!   `max_icc`/restart counters (`DP053`),
//! * territory membership of nodes and edges (`DP054`),
//! * the SID partition, reported as set splits and merges (`DP055`),
//! * the lowered instruction stream — site/entry instructions and
//!   back-edge call pairs (`DP056`).
//!
//! Every finding is a warning: a diff states *that* two plans disagree,
//! not that either is wrong — run the auditor for soundness. Itemization
//! is capped per code (the full counts are always exact in
//! [`PlanDiff::counts`] and the JSON report); and if the plans'
//! fingerprints disagree while nothing was itemized (for example a pure
//! node renumbering), a single catch-all `DP050` is emitted so an empty
//! diff always means *semantically indistinguishable*.
//!
//! Reports serialize under the `deltapath.diff.v1` schema; the
//! `deltapath diff` CLI subcommand is the user-facing front end.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io;

use deltapath_callgraph::{CallGraph, GraphChangeSet, NodeIx};
use deltapath_core::EncodingPlan;
use deltapath_telemetry::{Json, DIFF_REPORT_SCHEMA};

use crate::diag::{Diagnostic, LintCode};

/// Cap on itemized diagnostics per `DP05x` code. The totals in
/// [`PlanDiff::counts`] stay exact; only the per-item messages are
/// truncated, with one trailing summary diagnostic per truncated code.
const ITEMIZE_CAP: usize = 16;

/// Anchor identity that survives renumbering: a valid anchor node maps to
/// its method index, a dangling owner reference keeps its raw node index
/// under a separate tag so it can never collide with a method.
type AnchorKey = (u8, usize);

fn anchor_key(graph: &CallGraph, r: NodeIx) -> AnchorKey {
    if r.index() < graph.node_count() {
        (0, graph.method_of(r).index())
    } else {
        (1, r.index())
    }
}

/// Collects diagnostics with per-code caps and exact totals.
struct DiffSink {
    diagnostics: Vec<Diagnostic>,
    counts: BTreeMap<LintCode, usize>,
}

impl DiffSink {
    fn new() -> Self {
        Self {
            diagnostics: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn push(&mut self, code: LintCode, message: String) {
        let n = self.counts.entry(code).or_insert(0);
        *n += 1;
        if *n <= ITEMIZE_CAP {
            self.diagnostics.push(Diagnostic::warning(code, message));
        }
    }

    fn finish(mut self) -> (Vec<Diagnostic>, BTreeMap<LintCode, usize>) {
        for (&code, &n) in &self.counts {
            if n > ITEMIZE_CAP {
                self.diagnostics.push(Diagnostic::warning(
                    code,
                    format!(
                        "{} further {} difference(s) not itemized (exact count in the report)",
                        n - ITEMIZE_CAP,
                        code.code(),
                    ),
                ));
            }
        }
        self.diagnostics.sort_by(|a, b| {
            (a.severity, a.code, &a.message).cmp(&(b.severity, b.code, &b.message))
        });
        (self.diagnostics, self.counts)
    }
}

/// The structural difference between two plans. Produced by
/// [`diff_plans`]; serializes under the `deltapath.diff.v1` schema.
#[derive(Clone, Debug)]
pub struct PlanDiff {
    /// Itemized differences (all warnings), sorted by code then message.
    pub diagnostics: Vec<Diagnostic>,
    /// Nodes in the old plan's graph.
    pub old_nodes: usize,
    /// Edges in the old plan's graph.
    pub old_edges: usize,
    /// Anchors in the old plan's encoding.
    pub old_anchors: usize,
    /// Nodes in the new plan's graph.
    pub new_nodes: usize,
    /// Edges in the new plan's graph.
    pub new_edges: usize,
    /// Anchors in the new plan's encoding.
    pub new_anchors: usize,
    /// Methods present only in the new graph.
    pub added_methods: usize,
    /// Methods present only in the old graph.
    pub removed_methods: usize,
    /// Call edges (method-triple keyed) present only in the new graph.
    pub added_edges: usize,
    /// Call edges present only in the old graph.
    pub removed_edges: usize,
    counts: BTreeMap<LintCode, usize>,
}

impl PlanDiff {
    /// True when no difference of any kind was found: the plans are
    /// semantically indistinguishable (equal fingerprints up to node
    /// renumbering, plus equal root/UCP/entry designations).
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Exact number of differences per code, uncapped (the itemized
    /// [`diagnostics`](PlanDiff::diagnostics) are truncated at
    /// [`ITEMIZE_CAP`] per code).
    pub fn counts(&self) -> &BTreeMap<LintCode, usize> {
        &self.counts
    }

    /// The distinct `DP05x` codes present, for test pinning.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.counts.keys().map(|c| c.code()).collect()
    }

    /// The diff as a [`Json`] value under the `deltapath.diff.v1` schema.
    pub fn to_json_value(&self, old_name: &str, new_name: &str) -> Json {
        let side = |name: &str, nodes: usize, edges: usize, anchors: usize| {
            Json::Obj(vec![
                ("name".to_owned(), Json::Str(name.to_owned())),
                ("nodes".to_owned(), Json::from_u64(nodes as u64)),
                ("edges".to_owned(), Json::from_u64(edges as u64)),
                ("anchors".to_owned(), Json::from_u64(anchors as u64)),
            ])
        };
        let counts = self
            .counts
            .iter()
            .map(|(code, &n)| (code.code().to_owned(), Json::from_u64(n as u64)))
            .collect();
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("code".to_owned(), Json::Str(d.code.code().to_owned())),
                    ("name".to_owned(), Json::Str(d.code.name().to_owned())),
                    ("severity".to_owned(), Json::Str(d.severity.to_string())),
                    ("message".to_owned(), Json::Str(d.message.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "schema".to_owned(),
                Json::Str(DIFF_REPORT_SCHEMA.to_owned()),
            ),
            (
                "old".to_owned(),
                side(old_name, self.old_nodes, self.old_edges, self.old_anchors),
            ),
            (
                "new".to_owned(),
                side(new_name, self.new_nodes, self.new_edges, self.new_anchors),
            ),
            ("identical".to_owned(), Json::Bool(self.is_empty())),
            (
                "summary".to_owned(),
                Json::Obj(vec![
                    (
                        "added_methods".to_owned(),
                        Json::from_u64(self.added_methods as u64),
                    ),
                    (
                        "removed_methods".to_owned(),
                        Json::from_u64(self.removed_methods as u64),
                    ),
                    (
                        "added_edges".to_owned(),
                        Json::from_u64(self.added_edges as u64),
                    ),
                    (
                        "removed_edges".to_owned(),
                        Json::from_u64(self.removed_edges as u64),
                    ),
                ]),
            ),
            ("counts".to_owned(), Json::Obj(counts)),
            ("diagnostics".to_owned(), Json::Arr(diagnostics)),
        ])
    }

    /// The diff serialized as one compact JSON document.
    pub fn to_json(&self, old_name: &str, new_name: &str) -> String {
        self.to_json_value(old_name, new_name).to_json()
    }
}

/// Compares `old` and `new` structurally and reports every divergence as
/// classified `DP05x` diagnostics. See the module docs for what each code
/// covers. The comparison is symmetric in coverage (either side's
/// extras are reported) but messages are phrased old → new.
pub fn diff_plans(old: &EncodingPlan, new: &EncodingPlan) -> PlanDiff {
    let og = old.graph();
    let ng = new.graph();
    let oe = old.encoding();
    let ne = new.encoding();
    let mut sink = DiffSink::new();

    // ---- DP050: configuration ----
    let oc = old.config();
    let nc = new.config();
    let mut cfg = |field: &str, a: String, b: String| {
        if a != b {
            sink.push(
                LintCode::PlanConfigDivergence,
                format!("plan configuration diverges: {field} {a} -> {b}"),
            );
        }
    };
    cfg(
        "width",
        format!("{:?}", oc.width),
        format!("{:?}", nc.width),
    );
    cfg("cpt", oc.cpt.to_string(), nc.cpt.to_string());
    cfg(
        "cpt_minimal",
        oc.cpt_minimal.to_string(),
        nc.cpt_minimal.to_string(),
    );
    cfg(
        "anchor_ucp_entries",
        oc.anchor_ucp_entries.to_string(),
        nc.anchor_ucp_entries.to_string(),
    );
    cfg(
        "batch_overflow",
        oc.batch_overflow.to_string(),
        nc.batch_overflow.to_string(),
    );
    cfg(
        "territory_budget",
        format!("{:?}", oc.territory_budget),
        format!("{:?}", nc.territory_budget),
    );
    cfg(
        "entry method",
        old.entry_method().index().to_string(),
        new.entry_method().index().to_string(),
    );

    // ---- DP051: graph shape ----
    let cs = GraphChangeSet::between(og, ng);
    for &method in &cs.changed_methods {
        sink.push(
            LintCode::GraphShapeDelta,
            format!(
                "graph shape delta: method {} differs in presence, adjacency, or designation",
                method.index()
            ),
        );
    }
    if cs.roots_changed {
        sink.push(
            LintCode::GraphShapeDelta,
            "graph shape delta: the root sets differ".to_owned(),
        );
    }
    if cs.ucp_changed {
        sink.push(
            LintCode::GraphShapeDelta,
            "graph shape delta: the hazardous-UCP candidate sets differ".to_owned(),
        );
    }
    if cs.entry_changed {
        sink.push(
            LintCode::GraphShapeDelta,
            "graph shape delta: the graph entry designation differs".to_owned(),
        );
    }

    // ---- DP052: anchor sets ----
    let anchor_methods = |g: &CallGraph, anchors: &[NodeIx]| {
        anchors
            .iter()
            .map(|&r| anchor_key(g, r))
            .collect::<BTreeSet<AnchorKey>>()
    };
    let key_name = |k: &AnchorKey| match k.0 {
        0 => format!("method {}", k.1),
        _ => format!("dangling node {}", k.1),
    };
    let old_anchor_set = anchor_methods(og, &oe.anchors);
    let new_anchor_set = anchor_methods(ng, &ne.anchors);
    for k in new_anchor_set.difference(&old_anchor_set) {
        sink.push(
            LintCode::AnchorSetDelta,
            format!("anchor set delta: {} gained anchor status", key_name(k)),
        );
    }
    for k in old_anchor_set.difference(&new_anchor_set) {
        sink.push(
            LintCode::AnchorSetDelta,
            format!("anchor set delta: {} lost anchor status", key_name(k)),
        );
    }
    let old_overflow = anchor_methods(og, &oe.overflow_anchors);
    let new_overflow = anchor_methods(ng, &ne.overflow_anchors);
    for k in new_overflow.symmetric_difference(&old_overflow) {
        sink.push(
            LintCode::AnchorSetDelta,
            format!(
                "anchor set delta: overflow-anchor status of {} differs",
                key_name(k)
            ),
        );
    }

    // ---- DP053: encoding tables ----
    if oe.max_icc != ne.max_icc {
        sink.push(
            LintCode::EncodingTableDelta,
            format!(
                "encoding table delta: max_icc {} -> {}",
                oe.max_icc, ne.max_icc
            ),
        );
    }
    if oe.restarts != ne.restarts {
        sink.push(
            LintCode::EncodingTableDelta,
            format!(
                "encoding table delta: restart count {} -> {}",
                oe.restarts, ne.restarts
            ),
        );
    }
    let mut av_sites: BTreeSet<usize> = oe.site_av.keys().map(|s| s.index()).collect();
    av_sites.extend(ne.site_av.keys().map(|s| s.index()));
    for site in av_sites {
        let site_id = deltapath_ir::SiteId::from_index(site);
        match (oe.site_av.get(&site_id), ne.site_av.get(&site_id)) {
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => sink.push(
                LintCode::EncodingTableDelta,
                format!("encoding table delta: addition value of site {site} changed {a} -> {b}"),
            ),
            (None, Some(b)) => sink.push(
                LintCode::EncodingTableDelta,
                format!("encoding table delta: site {site} gained addition value {b}"),
            ),
            (Some(a), None) => sink.push(
                LintCode::EncodingTableDelta,
                format!("encoding table delta: site {site} lost addition value {a}"),
            ),
            (None, None) => unreachable!(),
        }
    }
    let excluded_keys = |g: &CallGraph, enc: &deltapath_core::Encoding| {
        enc.excluded
            .iter()
            .map(|&e| {
                if e.index() < g.edge_count() {
                    let edge = &g.edges()[e.index()];
                    format!(
                        "call {}->{} site {}",
                        g.method_of(edge.caller).index(),
                        g.method_of(edge.callee).index(),
                        edge.site.index()
                    )
                } else {
                    format!("dangling edge {}", e.index())
                }
            })
            .collect::<BTreeSet<String>>()
    };
    let old_excluded = excluded_keys(og, oe);
    let new_excluded = excluded_keys(ng, ne);
    for key in new_excluded.difference(&old_excluded) {
        sink.push(
            LintCode::EncodingTableDelta,
            format!("encoding table delta: back-edge exclusion of {key} added"),
        );
    }
    for key in old_excluded.difference(&new_excluded) {
        sink.push(
            LintCode::EncodingTableDelta,
            format!("encoding table delta: back-edge exclusion of {key} removed"),
        );
    }

    // Common methods, for the row-by-row table comparisons.
    let common: Vec<(NodeIx, NodeIx)> = og
        .nodes()
        .filter_map(|o| ng.node_of(og.method_of(o)).map(|n| (o, n)))
        .collect();

    let icc_row = |g: &CallGraph, enc: &deltapath_core::Encoding, node: NodeIx| {
        enc.icc
            .pairs(node.index())
            .map(|(&r, &v)| (anchor_key(g, r), v))
            .collect::<BTreeMap<AnchorKey, u128>>()
    };
    let owner_row = |g: &CallGraph, row: &[NodeIx]| {
        row.iter()
            .map(|&r| anchor_key(g, r))
            .collect::<BTreeSet<AnchorKey>>()
    };
    for &(o, n) in &common {
        let method = og.method_of(o).index();
        if icc_row(og, oe, o) != icc_row(ng, ne, n) {
            sink.push(
                LintCode::EncodingTableDelta,
                format!("encoding table delta: ICC row of method {method} differs"),
            );
        }
        // ---- DP054: node territory membership ----
        if owner_row(og, &oe.nanchors[o.index()]) != owner_row(ng, &ne.nanchors[n.index()]) {
            sink.push(
                LintCode::TerritoryDelta,
                format!("territory delta: territory membership of method {method} changed"),
            );
        }
    }

    // ---- DP054: edge territory membership, keyed by call triple ----
    // Each side maps a triple to its edge (a repeated triple keeps its last
    // edge); a row is turned into a set only to compare it.
    let edges_by_triple = |g: &CallGraph| -> HashMap<(usize, usize, usize), usize> {
        g.edges()
            .iter()
            .enumerate()
            .map(|(i, edge)| {
                let triple = (
                    g.method_of(edge.caller).index(),
                    g.method_of(edge.callee).index(),
                    edge.site.index(),
                );
                (triple, i)
            })
            .collect()
    };
    let old_edges = edges_by_triple(og);
    let new_edges = edges_by_triple(ng);
    let mut common_triples: Vec<(&(usize, usize, usize), usize, usize)> = old_edges
        .iter()
        .filter_map(|(triple, &o)| new_edges.get(triple).map(|&n| (triple, o, n)))
        .collect();
    common_triples.sort_unstable();
    for (triple, o, n) in common_triples {
        if owner_row(og, &oe.eanchors[o]) != owner_row(ng, &ne.eanchors[n]) {
            sink.push(
                LintCode::TerritoryDelta,
                format!(
                    "territory delta: territory membership of call {}->{} site {} changed",
                    triple.0, triple.1, triple.2
                ),
            );
        }
    }

    // ---- DP055: SID repartition over common methods ----
    let mut old_groups: BTreeMap<deltapath_core::Sid, BTreeSet<usize>> = BTreeMap::new();
    let mut new_groups: BTreeMap<deltapath_core::Sid, BTreeSet<usize>> = BTreeMap::new();
    let mut new_sid_of: BTreeMap<usize, deltapath_core::Sid> = BTreeMap::new();
    let mut old_sid_of: BTreeMap<usize, deltapath_core::Sid> = BTreeMap::new();
    for &(o, n) in &common {
        let method = og.method_of(o).index();
        let os = old.sids().sid_of_node_index(o.index());
        let ns = new.sids().sid_of_node_index(n.index());
        old_groups.entry(os).or_default().insert(method);
        new_groups.entry(ns).or_default().insert(method);
        old_sid_of.insert(method, os);
        new_sid_of.insert(method, ns);
    }
    for (sid, members) in &old_groups {
        let spread: BTreeSet<_> = members.iter().map(|m| new_sid_of[m]).collect();
        if spread.len() > 1 {
            sink.push(
                LintCode::SidRepartition,
                format!(
                    "SID repartition: {sid:?} set of {} method(s) split into {} sets",
                    members.len(),
                    spread.len()
                ),
            );
        }
    }
    for (sid, members) in &new_groups {
        let spread: BTreeSet<_> = members.iter().map(|m| old_sid_of[m]).collect();
        if spread.len() > 1 {
            sink.push(
                LintCode::SidRepartition,
                format!(
                    "SID repartition: {} set(s) merged into {sid:?} ({} method(s))",
                    spread.len(),
                    members.len()
                ),
            );
        }
    }

    // ---- DP056: instruction streams ----
    let mut sites: BTreeSet<usize> = old.site_instrs().map(|(s, _)| s.index()).collect();
    sites.extend(new.site_instrs().map(|(s, _)| s.index()));
    for site in sites {
        let site_id = deltapath_ir::SiteId::from_index(site);
        match (old.site(site_id), new.site(site_id)) {
            (Some(a), Some(b)) if a == b => {}
            (Some(_), Some(_)) => sink.push(
                LintCode::InstructionDelta,
                format!("instruction delta: site {site} instruction changed"),
            ),
            (None, Some(_)) => sink.push(
                LintCode::InstructionDelta,
                format!("instruction delta: site {site} instruction added"),
            ),
            (Some(_), None) => sink.push(
                LintCode::InstructionDelta,
                format!("instruction delta: site {site} instruction removed"),
            ),
            (None, None) => unreachable!(),
        }
    }
    let mut entry_methods: BTreeSet<usize> = old.entry_instrs().map(|(m, _)| m.index()).collect();
    entry_methods.extend(new.entry_instrs().map(|(m, _)| m.index()));
    for method in entry_methods {
        let method_id = deltapath_ir::MethodId::from_index(method);
        match (old.entry(method_id), new.entry(method_id)) {
            (Some(a), Some(b)) if a == b => {}
            (Some(_), Some(_)) => sink.push(
                LintCode::InstructionDelta,
                format!("instruction delta: entry instruction of method {method} changed"),
            ),
            (None, Some(_)) => sink.push(
                LintCode::InstructionDelta,
                format!("instruction delta: entry instruction of method {method} added"),
            ),
            (Some(_), None) => sink.push(
                LintCode::InstructionDelta,
                format!("instruction delta: entry instruction of method {method} removed"),
            ),
            (None, None) => unreachable!(),
        }
    }
    let old_backs: HashSet<(usize, usize)> = old
        .back_edge_call_pairs()
        .map(|(s, m)| (s.index(), m.index()))
        .collect();
    let new_backs: HashSet<(usize, usize)> = new
        .back_edge_call_pairs()
        .map(|(s, m)| (s.index(), m.index()))
        .collect();
    let mut back_diffs: Vec<(&(usize, usize), &str)> = old_backs
        .difference(&new_backs)
        .map(|p| (p, "removed"))
        .chain(new_backs.difference(&old_backs).map(|p| (p, "added")))
        .collect();
    back_diffs.sort_unstable();
    for ((site, method), what) in back_diffs {
        sink.push(
            LintCode::InstructionDelta,
            format!("instruction delta: back-edge call (site {site}, method {method}) {what}"),
        );
    }

    // ---- Catch-all: fingerprints disagree but nothing was itemized ----
    if sink.counts.is_empty() && !same_fingerprint(old, new) {
        sink.push(
            LintCode::PlanConfigDivergence,
            "plans differ (fingerprints diverge) but no structural difference was itemized \
             (likely a pure node renumbering)"
                .to_owned(),
        );
    }

    let (diagnostics, counts) = sink.finish();
    PlanDiff {
        diagnostics,
        old_nodes: og.node_count(),
        old_edges: og.edge_count(),
        old_anchors: oe.anchors.len(),
        new_nodes: ng.node_count(),
        new_edges: ng.edge_count(),
        new_anchors: ne.anchors.len(),
        added_methods: cs.added_methods,
        removed_methods: cs.removed_methods,
        added_edges: cs.added_edges,
        removed_edges: cs.removed_edges,
        counts,
    }
}

/// Whether `old` and `new` have equal fingerprints. `new`'s is streamed
/// against `old`'s text and stops at the first difference, so only one
/// fingerprint is ever held.
fn same_fingerprint(old: &EncodingPlan, new: &EncodingPlan) -> bool {
    /// The part of the expected text not yet matched.
    struct Rest<'a>(&'a [u8]);
    impl io::Write for Rest<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 = self.0.strip_prefix(buf).ok_or(io::ErrorKind::InvalidData)?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let old = old.fingerprint();
    let mut rest = Rest(old.as_bytes());
    new.write_fingerprint(&mut rest).is_ok() && rest.0.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_core::{EncodingPlan, PlanConfig};
    use deltapath_ir::{MethodKind, Program, ProgramBuilder, Receiver};

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new("diff-sample");
        let a = b.add_class("A", None);
        let sub = b.add_class("B", Some(a));
        b.method(a, "f", MethodKind::Virtual).finish();
        b.method(sub, "f", MethodKind::Virtual).finish();
        b.method(a, "leaf", MethodKind::Static).finish();
        b.method(a, "mid", MethodKind::Static)
            .body(|f| {
                f.call(a, "leaf");
                f.vcall(a, "f", Receiver::Fixed(sub));
            })
            .finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.call(a, "mid");
                f.call(a, "leaf");
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn identical_plans_diff_empty() {
        let program = sample_program();
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap();
        let diff = diff_plans(&plan, &plan);
        assert!(diff.is_empty(), "{:?}", diff.diagnostics);
        assert_eq!(plan.fingerprint(), plan.fingerprint());
        let json = diff.to_json("a", "b");
        assert!(json.contains("\"identical\":true"), "{json}");
        assert!(json.contains(DIFF_REPORT_SCHEMA), "{json}");
    }

    #[test]
    fn streamed_fingerprint_comparison_matches_string_equality() {
        let program = sample_program();
        let plans: Vec<EncodingPlan> = [
            PlanConfig::default(),
            PlanConfig::default().with_territory_budget(2),
            PlanConfig::default().with_cpt(false),
        ]
        .iter()
        .map(|config| EncodingPlan::analyze(&program, config).unwrap())
        .collect();
        for a in &plans {
            for b in &plans {
                let equal = a.fingerprint() == b.fingerprint();
                assert_eq!(same_fingerprint(a, b), equal);
            }
        }
        // One more anchor: the texts part in the middle, either way round.
        let mut longer = plans[0].clone();
        longer.encoding_mut().anchors.push(NodeIx::from_index(0));
        assert!(!same_fingerprint(&plans[0], &longer));
        assert!(!same_fingerprint(&longer, &plans[0]));
    }

    #[test]
    fn config_change_is_classified() {
        let program = sample_program();
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap();
        let budgeted =
            EncodingPlan::analyze(&program, &PlanConfig::default().with_territory_budget(2))
                .unwrap();
        let diff = diff_plans(&plan, &budgeted);
        assert!(!diff.is_empty());
        assert!(diff.codes().contains("DP050"), "{:?}", diff.codes());
    }

    #[test]
    fn anchor_promotion_is_classified() {
        let program = sample_program();
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap();
        // A territory budget of one path promotes an anchor.
        let split =
            EncodingPlan::analyze(&program, &PlanConfig::default().with_territory_budget(1))
                .unwrap();
        assert!(split.encoding().anchors.len() > plan.encoding().anchors.len());
        let diff = diff_plans(&plan, &split);
        // The promoted anchor shows up as an anchor-set delta.
        assert!(diff.codes().contains("DP052"), "{:?}", diff.codes());
    }

    #[test]
    fn itemization_is_capped_but_counts_are_exact() {
        let mut sink = DiffSink::new();
        for i in 0..ITEMIZE_CAP + 5 {
            sink.push(LintCode::TerritoryDelta, format!("delta {i}"));
        }
        let (diags, counts) = sink.finish();
        assert_eq!(counts[&LintCode::TerritoryDelta], ITEMIZE_CAP + 5);
        // Capped items plus one summary line.
        assert_eq!(diags.len(), ITEMIZE_CAP + 1);
        assert!(diags.iter().any(|d| d.message.contains("5 further")));
    }
}
