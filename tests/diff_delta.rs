//! Plan export, plan diff and parallel-audit properties, at integration
//! scope:
//!
//! * plan render → parse round-trips are pinned by `EncodingPlan::fingerprint`
//!   across sampled scale shapes;
//! * `diff_plans` is empty exactly on semantically identical plans and
//!   classifies real mutations;
//! * `audit_plan_full` reports the same findings at any worker count, on
//!   corrupt plans whose reports are not empty.

use deltapath::callgraph::skeleton_for_graph;
use deltapath::workloads::scale::ScaleConfig;
use deltapath::{
    audit_plan_full, diff_plans, parse_plan, render_plan_string, AuditOptions, CallGraph,
    EncodingPlan, NullTelemetry, PlanConfig, Program, ScopeFilter,
};

fn plan_config() -> PlanConfig {
    PlanConfig::default()
        .with_scope(ScopeFilter::All)
        .with_batch_overflow()
}

fn shape(i: usize) -> (Program, CallGraph) {
    let g = ScaleConfig::sampled(i).build_graph();
    let p = skeleton_for_graph(&format!("shape-{i}"), &g);
    (p, g)
}

#[test]
fn render_parse_round_trip_is_pinned_by_fingerprint() {
    for i in [0usize, 5, 13] {
        let (p, g) = shape(i);
        let plan = EncodingPlan::from_graph(&p, g, &plan_config()).unwrap();
        let text = render_plan_string(&plan, &format!("shape-{i}"));
        let parsed = parse_plan(text.as_bytes()).unwrap();
        assert_eq!(parsed.name, format!("shape-{i}"));
        assert_eq!(
            parsed.plan.fingerprint(),
            plan.fingerprint(),
            "shape {i}: round-trip lost plan content"
        );
        let diff = diff_plans(&plan, &parsed.plan);
        assert!(diff.is_empty(), "shape {i}: {:?}", diff.diagnostics);
    }
}

/// App-scope plans keep the *program's* site numbering, so their graphs
/// carry site ids far beyond the subgraph's edge count (compress: max
/// site 1404 on 175 edges). The renderer records `site_cap=` precisely so
/// the parser accepts them — a dense-ids-only bound rejects every scoped
/// plan of a bundled workload.
#[test]
fn render_parse_round_trips_sparse_site_ids() {
    let config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
    for bench in deltapath::workloads::specjvm::suite() {
        let plan = EncodingPlan::analyze(&bench.program(), &config).unwrap();
        let text = render_plan_string(&plan, bench.name);
        let parsed = parse_plan(text.as_bytes())
            .unwrap_or_else(|e| panic!("{}: scoped plan failed to re-parse: {e}", bench.name));
        assert_eq!(
            parsed.plan.fingerprint(),
            plan.fingerprint(),
            "{}: round-trip lost plan content",
            bench.name
        );
        assert!(diff_plans(&plan, &parsed.plan).is_empty());
    }
}

#[test]
fn diff_is_empty_exactly_on_identical_plans() {
    let (p, g) = shape(3);
    let plan = EncodingPlan::from_graph(&p, g.clone(), &plan_config()).unwrap();
    let same = diff_plans(&plan, &plan);
    assert_eq!(
        same.is_empty(),
        plan.fingerprint() == plan.fingerprint(),
        "diff(p, p) must be empty iff the fingerprints agree"
    );
    assert!(same.is_empty());

    let budgeted =
        EncodingPlan::from_graph(&p, g, &plan_config().with_territory_budget(24)).unwrap();
    let diff = diff_plans(&plan, &budgeted);
    assert_ne!(plan.fingerprint(), budgeted.fingerprint());
    assert!(!diff.is_empty());
    assert!(
        diff.codes().contains("DP050"),
        "a budget promotion is a config divergence: {:?}",
        diff.codes()
    );
    assert!(
        diff.codes().contains("DP052"),
        "a budget pre-places anchors: {:?}",
        diff.codes()
    );
}

/// Every other worker-count check audits a clean plan and so compares two
/// empty reports. Clearing stored territory rows makes the per-anchor
/// walks, which the workers split into chunks, report findings, so the
/// merged report is compared with the serial one where it is not empty.
#[test]
fn parallel_audits_match_the_serial_report_on_corrupt_plans() {
    for i in [2usize, 7, 13] {
        let (p, g) = shape(i);
        let mut plan = EncodingPlan::from_graph(&p, g, &plan_config()).unwrap();
        assert!(
            plan.encoding().anchors.len() >= 8,
            "shape {i}: too few anchors to give 8 workers a chunk each"
        );
        let owned: Vec<usize> = (0..plan.graph().node_count())
            .filter(|&v| !plan.encoding().nanchors[v].is_empty())
            .collect();
        let cleared = [owned[0], owned[owned.len() / 2], owned[owned.len() - 1]];
        for &v in &cleared {
            plan.encoding_mut().nanchors.replace(v, &[]);
        }

        let serial = audit_plan_full(&p, &plan, &AuditOptions::default(), &NullTelemetry);
        for v in cleared {
            let node = format!("(n{v})");
            assert!(
                serial.diagnostics.iter().any(|d| d.message.contains(&node)),
                "shape {i}: cleared row of node {v} went unreported: {:?}",
                serial.diagnostics
            );
        }
        let serial = serial.to_json("x");
        for workers in [2usize, 4, 8] {
            let par = audit_plan_full(
                &p,
                &plan,
                &AuditOptions::default().with_workers(workers),
                &NullTelemetry,
            );
            assert_eq!(
                par.to_json("x"),
                serial,
                "shape {i}: the {workers}-worker report differs from the serial one"
            );
        }
    }
}
