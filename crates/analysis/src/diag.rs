//! Structured lint diagnostics with stable codes.
//!
//! Every finding of the static plan auditor is a [`Diagnostic`]: a stable
//! `DP0xx` code (never renumbered once shipped — downstream tooling and the
//! fault-injection suite pin them), a severity, and a human-readable
//! message naming the offending nodes, sites or anchors. A whole audit is
//! an [`AuditReport`], which serializes to JSON under the
//! [`LINT_REPORT_SCHEMA`](deltapath_telemetry::LINT_REPORT_SCHEMA) schema
//! (`deltapath.lint.v1`) using the same hand-rolled serializer as the
//! telemetry run reports.

use std::collections::BTreeSet;
use std::fmt;

use deltapath_telemetry::{Json, LINT_REPORT_SCHEMA};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The plan is definitely unsound (injectivity, decodability or UCP
    /// detection is broken): the runtime would mis-encode or mis-decode.
    Error,
    /// The plan works but carries dead weight or a suspicious
    /// classification worth a look.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// The stable diagnostic codes of the plan auditor.
///
/// Codes are grouped by subsystem: `DP00x` encoding-table soundness
/// (Algorithms 1 and 2), `DP01x` width/overflow, `DP02x` call-path
/// tracking (SIDs), `DP03x` call-graph hygiene, `DP04x` compiled
/// dispatch-table lowering, `DP05x` semantic plan differences (emitted by
/// [`diff_plans`](crate::diff_plans), always warnings — two plans differing
/// is a fact, not a defect).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `DP001` — the CAV/ICC tables are inconsistent with the addition
    /// values: per-anchor arrival intervals overlap (injectivity broken),
    /// a stored ICC differs from the value the addition values imply, an
    /// encoded edge has no addition value, or per-site/per-entry
    /// instructions drifted from the encoding tables.
    CavIccInconsistent,
    /// `DP002` — a territory table claims more than the anchor's bounded
    /// DFS actually reaches: duplicate anchor entries, or a node/edge
    /// recorded in a territory the walk does not visit (stale coverage).
    TerritoryOverlap,
    /// `DP003` — anchor coverage is incomplete or the anchor tables
    /// disagree: a node/edge the territory walk reaches is missing from
    /// the stored tables, a reachable node has no covering anchor, a root
    /// is not an anchor, or entry instructions disagree with the anchor
    /// set.
    AnchorCoverageGap,
    /// `DP010` — an ICC or addition value exceeds the encoding width's
    /// capacity, or the plan's width bookkeeping is inconsistent: the
    /// runtime ID would wrap and encodings would collide.
    WidthOverflowRisk,
    /// `DP020` — two methods in *different* co-dispatch components share a
    /// SID: a hazardous unexpected call path between them would pass the
    /// entry check undetected.
    SidCollision,
    /// `DP021` — SID bookkeeping is inconsistent: co-dispatched methods
    /// carry different SIDs (benign paths would false-alarm), a site's
    /// expected SID differs from its targets', or instruction tables
    /// disagree with the SID table.
    SidMismatch,
    /// `DP030` — a call-graph node is unreachable from every root and UCP
    /// entry candidate: dead weight that inflates tables and
    /// instrumentation.
    UnreachableNode,
    /// `DP031` — back-edge classification is wrong: a cycle survives edge
    /// exclusion (error), an excluded edge's target is not an anchor
    /// (error), or an excluded edge closes no cycle at all (warning:
    /// needlessly pruned).
    UnclassifiedBackEdge,
    /// `DP032` — an edge touches an unreachable node: it can never be
    /// taken, yet still occupies territory and SID tables.
    DeadEdge,
    /// `DP040` — a compiled plan's dense dispatch tables disagree with the
    /// map-based plan they were lowered from: a site/entry instruction is
    /// missing, phantom, or re-expands differently, a back-edge pair was
    /// lost or invented, or the CPT/entry-method header drifted. The
    /// batched encoder would diverge from the map-based reference —
    /// typically a stale image kept across a plan rebuild (dynamic class
    /// loading).
    CompiledPlanDivergence,
    /// `DP050` — two plans were produced under different configurations
    /// (width, CPT mode, anchor policy, territory budget or entry method),
    /// so every downstream difference may simply follow from the knobs.
    /// Also the diff catch-all: fingerprints differ but no itemized
    /// difference was found.
    PlanConfigDivergence,
    /// `DP051` — the encoded call graphs differ structurally: methods or
    /// edges present in only one plan, or roots/UCP/entry designations
    /// moved.
    GraphShapeDelta,
    /// `DP052` — the anchor sets differ: a method is an anchor (or an
    /// overflow anchor) in one plan but not the other.
    AnchorSetDelta,
    /// `DP053` — the encoding tables differ: a site's addition value,
    /// an excluded back-edge, or the width bookkeeping (`max_icc`,
    /// restart count) changed between the plans.
    EncodingTableDelta,
    /// `DP054` — territory membership moved: a node or edge belongs to a
    /// different set of anchor territories in the two plans.
    TerritoryDelta,
    /// `DP055` — the SID partition was repartitioned: co-dispatch sets
    /// were split or merged between the plans.
    SidRepartition,
    /// `DP056` — the instrumentation instructions differ: a site or entry
    /// instruction changed, appeared or vanished, or a back-edge call pair
    /// moved.
    InstructionDelta,
}

impl LintCode {
    /// The stable `DP0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::CavIccInconsistent => "DP001",
            LintCode::TerritoryOverlap => "DP002",
            LintCode::AnchorCoverageGap => "DP003",
            LintCode::WidthOverflowRisk => "DP010",
            LintCode::SidCollision => "DP020",
            LintCode::SidMismatch => "DP021",
            LintCode::UnreachableNode => "DP030",
            LintCode::UnclassifiedBackEdge => "DP031",
            LintCode::DeadEdge => "DP032",
            LintCode::CompiledPlanDivergence => "DP040",
            LintCode::PlanConfigDivergence => "DP050",
            LintCode::GraphShapeDelta => "DP051",
            LintCode::AnchorSetDelta => "DP052",
            LintCode::EncodingTableDelta => "DP053",
            LintCode::TerritoryDelta => "DP054",
            LintCode::SidRepartition => "DP055",
            LintCode::InstructionDelta => "DP056",
        }
    }

    /// The CamelCase name used in JSON output and documentation.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::CavIccInconsistent => "CavIccInconsistent",
            LintCode::TerritoryOverlap => "TerritoryOverlap",
            LintCode::AnchorCoverageGap => "AnchorCoverageGap",
            LintCode::WidthOverflowRisk => "WidthOverflowRisk",
            LintCode::SidCollision => "SidCollision",
            LintCode::SidMismatch => "SidMismatch",
            LintCode::UnreachableNode => "UnreachableNode",
            LintCode::UnclassifiedBackEdge => "UnclassifiedBackEdge",
            LintCode::DeadEdge => "DeadEdge",
            LintCode::CompiledPlanDivergence => "CompiledPlanDivergence",
            LintCode::PlanConfigDivergence => "PlanConfigDivergence",
            LintCode::GraphShapeDelta => "GraphShapeDelta",
            LintCode::AnchorSetDelta => "AnchorSetDelta",
            LintCode::EncodingTableDelta => "EncodingTableDelta",
            LintCode::TerritoryDelta => "TerritoryDelta",
            LintCode::SidRepartition => "SidRepartition",
            LintCode::InstructionDelta => "InstructionDelta",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One finding: a coded, severity-tagged, human-readable defect report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: LintCode,
    /// Error or warning.
    pub severity: Severity,
    /// What is wrong, naming the offending nodes/sites/anchors.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: LintCode, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Error,
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: LintCode, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Warning,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// The complete result of one [`audit_plan`](crate::audit_plan) run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// All findings, errors before warnings, each group sorted by code
    /// then message (deterministic output).
    pub diagnostics: Vec<Diagnostic>,
    /// Nodes in the audited graph.
    pub nodes: usize,
    /// Edges in the audited graph.
    pub edges: usize,
    /// Anchors in the audited encoding.
    pub anchors: usize,
}

impl AuditReport {
    /// Sorts the diagnostics into the canonical order (errors first, then
    /// by code, then by message).
    pub(crate) fn finish(mut self) -> Self {
        self.diagnostics.sort_by(|a, b| {
            (a.severity, a.code, &a.message).cmp(&(b.severity, b.code, &b.message))
        });
        self
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// Whether the audit found nothing at all (no errors *and* no
    /// warnings).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any error-severity finding exists (the plan is unsound).
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// The distinct `DP0xx` codes present, for test pinning.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.code.code()).collect()
    }

    /// The report as a [`Json`] value under the `deltapath.lint.v1`
    /// schema.
    pub fn to_json_value(&self, plan_name: &str) -> Json {
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
                Json::Str(LINT_REPORT_SCHEMA.to_owned()),
            ),
            ("plan".to_owned(), Json::Str(plan_name.to_owned())),
            ("nodes".to_owned(), Json::from_u64(self.nodes as u64)),
            ("edges".to_owned(), Json::from_u64(self.edges as u64)),
            ("anchors".to_owned(), Json::from_u64(self.anchors as u64)),
            ("errors".to_owned(), Json::from_u64(self.errors() as u64)),
            (
                "warnings".to_owned(),
                Json::from_u64(self.warnings() as u64),
            ),
            ("diagnostics".to_owned(), Json::Arr(diagnostics)),
        ])
    }

    /// The report serialized as one compact JSON document.
    pub fn to_json(&self, plan_name: &str) -> String {
        self.to_json_value(plan_name).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(LintCode::CavIccInconsistent.code(), "DP001");
        assert_eq!(LintCode::TerritoryOverlap.code(), "DP002");
        assert_eq!(LintCode::AnchorCoverageGap.code(), "DP003");
        assert_eq!(LintCode::WidthOverflowRisk.code(), "DP010");
        assert_eq!(LintCode::SidCollision.code(), "DP020");
        assert_eq!(LintCode::SidMismatch.code(), "DP021");
        assert_eq!(LintCode::UnreachableNode.code(), "DP030");
        assert_eq!(LintCode::UnclassifiedBackEdge.code(), "DP031");
        assert_eq!(LintCode::DeadEdge.code(), "DP032");
        assert_eq!(LintCode::CompiledPlanDivergence.code(), "DP040");
        assert_eq!(LintCode::PlanConfigDivergence.code(), "DP050");
        assert_eq!(LintCode::GraphShapeDelta.code(), "DP051");
        assert_eq!(LintCode::AnchorSetDelta.code(), "DP052");
        assert_eq!(LintCode::EncodingTableDelta.code(), "DP053");
        assert_eq!(LintCode::TerritoryDelta.code(), "DP054");
        assert_eq!(LintCode::SidRepartition.code(), "DP055");
        assert_eq!(LintCode::InstructionDelta.code(), "DP056");
    }

    #[test]
    fn report_sorts_and_counts() {
        let report = AuditReport {
            diagnostics: vec![
                Diagnostic::warning(LintCode::UnreachableNode, "w"),
                Diagnostic::error(LintCode::SidCollision, "b"),
                Diagnostic::error(LintCode::CavIccInconsistent, "a"),
            ],
            nodes: 3,
            edges: 2,
            anchors: 1,
        }
        .finish();
        assert_eq!(report.errors(), 2);
        assert_eq!(report.warnings(), 1);
        assert!(!report.is_clean());
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].code, LintCode::CavIccInconsistent);
        assert_eq!(report.diagnostics[2].severity, Severity::Warning);
        assert_eq!(
            report.codes().into_iter().collect::<Vec<_>>(),
            vec!["DP001", "DP020", "DP030"]
        );
    }

    #[test]
    fn json_round_trips_through_telemetry_parser() {
        let report = AuditReport {
            diagnostics: vec![Diagnostic::error(
                LintCode::WidthOverflowRisk,
                "icc exceeds capacity",
            )],
            nodes: 1,
            edges: 0,
            anchors: 1,
        }
        .finish();
        let text = report.to_json("unit");
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("deltapath.lint.v1")
        );
        assert_eq!(parsed.get("errors").and_then(Json::as_u64), Some(1));
        let diags = parsed.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("DP010"));
        assert_eq!(
            diags[0].get("severity").and_then(Json::as_str),
            Some("error")
        );
    }

    #[test]
    fn display_formats() {
        let d = Diagnostic::error(LintCode::SidCollision, "m1 vs m2");
        assert_eq!(d.to_string(), "error[DP020 SidCollision]: m1 vs m2");
    }
}
