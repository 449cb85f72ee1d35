//! Fault injection against the static auditor: corrupt one table of a
//! sound plan and pin the exact `DP0xx` diagnostic the auditor raises.
//!
//! Each mutation models a distinct analysis bug class from the paper's
//! algorithms — a wrong addition value (Algorithm 1), a shrunken inflated
//! context count (Algorithm 1), a coarsened SID partition (call-path
//! tracking), a lost anchor (Algorithm 2) — and must be caught with the
//! stable code documented in DESIGN.md, never by accident of a different
//! check.

use deltapath::core::verify::{verify_plan, VerifyFailure};
use deltapath::{
    audit_compiled, audit_plan, EncodingPlan, LintCode, MethodKind, PlanConfig, Program,
    ProgramBuilder, Receiver, Sid, SiteId,
};

/// `main` calls `leaf` twice and `helper` twice; `helper` calls `leaf`.
/// Addition values: the two direct `leaf` sites get 0 and 1, the two
/// `helper` sites 0 and 1, and the `helper -> leaf` site 2 — so `leaf`'s
/// arrival intervals are `[0,1) [1,2) [2,4)` and ICC[leaf] = 4.
fn interval_program() -> Program {
    let mut b = ProgramBuilder::new("faults");
    let c = b.add_class("C", None);
    b.method(c, "leaf", MethodKind::Static).finish();
    b.method(c, "helper", MethodKind::Static)
        .body(|f| {
            f.call(c, "leaf");
        })
        .finish();
    let main = b
        .method(c, "main", MethodKind::Static)
        .body(|f| {
            f.call(c, "leaf");
            f.call(c, "leaf");
            f.call(c, "helper");
            f.call(c, "helper");
        })
        .finish();
    b.entry(main);
    b.finish().unwrap()
}

/// A program with virtual dispatch (two co-dispatch components) and
/// recursion (a forced anchor beyond the root).
fn dispatch_program() -> Program {
    let mut b = ProgramBuilder::new("dispatch");
    let a = b.add_class("A", None);
    let c1 = b.add_class("C1", Some(a));
    b.method(a, "f", MethodKind::Virtual).finish();
    b.method(c1, "f", MethodKind::Virtual).finish();
    b.method(a, "solo", MethodKind::Static).finish();
    // `work` is called only from inside the recursion, so it lives in the
    // recursion header's territory and in no other anchor's.
    b.method(a, "work", MethodKind::Static).finish();
    b.method(a, "rec", MethodKind::Static)
        .body(|f| {
            f.call(a, "work");
            f.if_mod(
                3,
                0,
                |_| {},
                |f| {
                    f.call_arg(
                        deltapath::ClassId::from_index(0),
                        "rec",
                        deltapath::ArgExpr::ParamPlus(1),
                    );
                },
            );
        })
        .finish();
    let main = b
        .method(a, "main", MethodKind::Static)
        .body(|f| {
            f.vcall(a, "f", Receiver::Cycle(vec![a, c1]));
            f.call(a, "solo");
            f.call(deltapath::ClassId::from_index(0), "rec");
        })
        .finish();
    b.entry(main);
    b.finish().unwrap()
}

fn analyze(p: &Program) -> EncodingPlan {
    EncodingPlan::analyze(p, &PlanConfig::default()).expect("sound plan")
}

/// Overwrites one site's addition value in both the encoding table and the
/// site instruction, keeping the two views consistent so only the *encoding
/// math* is wrong — the corruption the symbolic interval check exists for.
fn set_av(plan: &mut EncodingPlan, site: SiteId, av: u128) {
    plan.encoding_mut().site_av.insert(site, av);
    plan.site_instr_mut(site)
        .expect("site instruction exists")
        .av = u64::try_from(av).unwrap();
}

/// Corrupts one site's *runtime* addition value only — the constant the
/// instrumented program would execute — while leaving the decoder's
/// encoding tables sound. This models instrumentation drift: the decoder
/// attributes the corrupted path's sum to a different, sound path, so two
/// distinct executions end up sharing one encoded context.
fn set_runtime_av(plan: &mut EncodingPlan, site: SiteId, av: u64) {
    plan.site_instr_mut(site)
        .expect("site instruction exists")
        .av = av;
}

/// Rewrites every occurrence of SID `from` to `to` across the SID table,
/// the entry instructions, and the site expectations — a consistent
/// coarsening of the partition, exactly what a buggy union-find would
/// produce. Only the cross-component check (DP020) can see it.
fn alias_sid_everywhere(plan: &mut EncodingPlan, from: Sid, to: Sid) {
    plan.sids_mut().alias_sid(from, to);
    let methods: Vec<_> = plan.entry_instrs().map(|(m, _)| m).collect();
    for m in methods {
        let instr = plan.entry_instr_mut(m).unwrap();
        if instr.sid == from {
            instr.sid = to;
        }
    }
    let sites: Vec<_> = plan.site_instrs().map(|(s, _)| s).collect();
    for s in sites {
        let instr = plan.site_instr_mut(s).unwrap();
        if instr.expected_sid == from {
            instr.expected_sid = to;
        }
    }
}

#[test]
fn swapped_addition_values_raise_dp001() {
    let p = interval_program();
    let mut plan = analyze(&p);
    // Swap the av=1 and av=2 sites into `leaf`. The av-2 interval spans
    // [2,4) (helper has two upstream paths); moving a width-1 site there
    // and the width-2 site to 1 makes [1,3) and [2,3) collide.
    let leaf = p
        .methods()
        .iter()
        .find(|m| p.method_name(m.id()).ends_with("leaf"))
        .unwrap()
        .id();
    let node = plan.graph().node_of(leaf).unwrap();
    let mut avs: Vec<(SiteId, u128)> = plan
        .graph()
        .in_edges(node)
        .iter()
        .map(|&e| {
            let site = plan.graph().edge(e).site;
            (site, plan.encoding().site_av[&site])
        })
        .collect();
    avs.sort_by_key(|&(_, av)| av);
    assert_eq!(avs.len(), 3);
    let (site1, av1) = avs[1]; // av = 1, caller space 1
    let (site2, av2) = avs[2]; // av = 2, caller space 2
    set_av(&mut plan, site1, av2);
    set_av(&mut plan, site2, av1);

    let report = audit_plan(&p, &plan);
    assert!(report.has_errors());
    assert!(
        report.codes().contains("DP001"),
        "swapped CAVs must surface as DP001, got {:?}",
        report.codes()
    );
}

#[test]
fn shrunken_icc_raises_dp001() {
    let p = interval_program();
    let mut plan = analyze(&p);
    let root = plan.graph().roots()[0];
    // Find a non-anchor with ICC > 1 and shrink it by one.
    let victim = plan
        .graph()
        .nodes()
        .find(|&n| {
            !plan.encoding().is_anchor[n.index()]
                && plan.encoding().icc_of(n, root).unwrap_or(0) > 1
        })
        .expect("a non-anchor with a nontrivial ICC");
    let icc = &plan.encoding().icc;
    let anchors = icc.row(victim.index()).to_vec();
    let mut values = icc.values(victim.index()).to_vec();
    values[anchors.binary_search(&root).unwrap()] -= 1;
    plan.encoding_mut()
        .icc
        .replace_row(victim.index(), &anchors, &values);

    let report = audit_plan(&p, &plan);
    assert!(report.has_errors());
    assert!(
        report.codes().contains("DP001"),
        "a shrunken ICC must surface as DP001, got {:?}",
        report.codes()
    );
}

/// `leaf` is called from the root `main` and from the recursion header
/// `rec`, an anchor too, so its ICC row holds two anchors.
fn shared_leaf_program() -> Program {
    let mut b = ProgramBuilder::new("shared-leaf");
    let c = b.add_class("C", None);
    b.method(c, "leaf", MethodKind::Static).finish();
    b.method(c, "rec", MethodKind::Static)
        .body(|f| {
            f.call(c, "leaf");
            f.if_mod(
                3,
                0,
                |_| {},
                |f| {
                    f.call_arg(c, "rec", deltapath::ArgExpr::ParamPlus(1));
                },
            );
        })
        .finish();
    let main = b
        .method(c, "main", MethodKind::Static)
        .body(|f| {
            f.call(c, "leaf");
            f.call(c, "rec");
        })
        .finish();
    b.entry(main);
    b.finish().unwrap()
}

#[test]
fn unsorted_icc_row_raises_dp001() {
    let p = shared_leaf_program();
    let mut plan = analyze(&p);
    let leaf = plan
        .graph()
        .node_of(method_named(&p, "C.leaf"))
        .unwrap()
        .index();
    let icc = &plan.encoding().icc;
    let mut anchors = icc.row(leaf).to_vec();
    let mut values = icc.values(leaf).to_vec();
    assert_eq!(anchors.len(), 2, "precondition: two anchors reach leaf");
    // The same pairs, anchors descending: the row can no longer be
    // searched, which the auditor must say rather than miss a pair.
    anchors.reverse();
    values.reverse();
    plan.encoding_mut().icc.replace_row(leaf, &anchors, &values);

    let report = audit_plan(&p, &plan);
    assert_eq!(
        report.codes().into_iter().collect::<Vec<_>>(),
        vec!["DP001"]
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("does not list its anchors ascending")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn aliased_sids_raise_dp020_and_nothing_else() {
    let p = dispatch_program();
    let mut plan = analyze(&p);
    // Merge the SIDs of two different co-dispatch components: the virtual
    // family {A.f, C1.f} and the standalone `solo`.
    let f_sid = plan
        .entry(method_named(&p, "A.f"))
        .expect("A.f instrumented")
        .sid;
    let solo_sid = plan
        .entry(method_named(&p, "A.solo"))
        .expect("solo instrumented")
        .sid;
    assert_ne!(f_sid, solo_sid, "precondition: distinct components");
    alias_sid_everywhere(&mut plan, solo_sid, f_sid);

    let report = audit_plan(&p, &plan);
    assert!(report.has_errors());
    assert_eq!(
        report.codes().into_iter().collect::<Vec<_>>(),
        vec!["DP020"],
        "a consistent SID coarsening must surface as DP020 and only DP020"
    );
}

#[test]
fn dropped_anchor_raises_dp003() {
    let p = dispatch_program();
    let mut plan = analyze(&p);
    // Drop the recursion header from the anchor set everywhere: flag,
    // anchor list, and entry instruction. That strands `work` — stored as
    // part of the dropped anchor's territory, but now reached by the
    // root's territory walk, which is a coverage gap (DP003).
    let rec = method_named(&p, "A.rec");
    let node = plan.graph().node_of(rec).unwrap();
    assert!(plan.encoding().is_anchor[node.index()], "rec is an anchor");
    plan.encoding_mut().is_anchor[node.index()] = false;
    plan.encoding_mut().anchors.retain(|&a| a != node);
    plan.entry_instr_mut(rec).unwrap().is_anchor = false;

    let report = audit_plan(&p, &plan);
    assert!(report.has_errors());
    assert!(
        report.codes().contains("DP003"),
        "a dropped anchor must surface as DP003, got {:?}",
        report.codes()
    );
}

#[test]
fn unknown_sid_on_a_method_raises_dp021() {
    let p = dispatch_program();
    let mut plan = analyze(&p);
    let solo_sid = plan.entry(method_named(&p, "A.solo")).unwrap().sid;
    alias_sid_everywhere(&mut plan, solo_sid, Sid::UNKNOWN);
    let report = audit_plan(&p, &plan);
    assert!(report.has_errors());
    assert!(
        report.codes().contains("DP021"),
        "the reserved UNKNOWN SID on a method must surface as DP021, got {:?}",
        report.codes()
    );
}

#[test]
fn dynamic_verifier_reports_both_colliding_contexts() {
    // Runtime instrumentation drift seen dynamically: retarget the av-1
    // direct `main -> leaf` site's runtime constant to 3, the sum of the
    // sound `main -> helper -> leaf` path. The decoder's tables stay
    // sound, so the helper path round-trips first; when the drifted direct
    // path later replays to the same encoded context, the verifier must
    // produce a Collision naming *both* method sequences.
    let p = interval_program();
    let mut plan = analyze(&p);
    let leaf = method_named(&p, "C.leaf");
    let node = plan.graph().node_of(leaf).unwrap();
    let drifted = plan
        .graph()
        .in_edges(node)
        .iter()
        .map(|&e| plan.graph().edge(e).site)
        .find(|s| plan.encoding().site_av[s] == 1)
        .expect("the av-1 direct site into leaf");
    set_runtime_av(&mut plan, drifted, 3);

    let failure = verify_plan(&plan, 1, 100_000).expect_err("drifted AV must collide");
    match failure {
        VerifyFailure::Collision { first, second, .. } => {
            assert_ne!(first, second, "the two colliding contexts must be distinct");
            let mut lens = [first.len(), second.len()];
            lens.sort_unstable();
            assert_eq!(
                lens,
                [2, 3],
                "the direct path and the helper path are the colliding pair"
            );
        }
        other => panic!("expected a collision, got {other}"),
    }
}

#[test]
fn every_mutation_is_also_caught_statically_before_dynamically() {
    // Sanity link between the suites: the zeroed-AV corruption that the
    // dynamic verifier catches above is caught statically too.
    let p = interval_program();
    let mut plan = analyze(&p);
    let sites: Vec<SiteId> = plan.encoding().site_av.keys().copied().collect();
    for site in sites {
        set_av(&mut plan, site, 0);
    }
    let report = audit_plan(&p, &plan);
    assert!(report.codes().contains("DP001"));

    // So is the runtime instrumentation drift: the instruction/table
    // disagreement is exactly what the instruction-drift check pins.
    let mut plan = analyze(&p);
    let site = plan.encoding().site_av.keys().copied().next().unwrap();
    let sound = plan.encoding().site_av[&site];
    set_runtime_av(&mut plan, site, u64::try_from(sound).unwrap() + 1);
    let report = audit_plan(&p, &plan);
    assert!(
        report.codes().contains("DP001"),
        "runtime av drift must surface as DP001, got {:?}",
        report.codes()
    );
}

#[test]
fn fresh_compiled_image_audits_clean() {
    for p in [interval_program(), dispatch_program()] {
        let plan = analyze(&p);
        let compiled = plan.compile();
        let diags = audit_compiled(&plan, &compiled);
        assert!(
            diags.is_empty(),
            "a freshly lowered image must agree with its plan: {diags:?}"
        );
    }
}

#[test]
fn stale_site_instruction_raises_dp040() {
    // Compile first, then drift one site's runtime addition value in the
    // plan: the image now encodes a constant the plan no longer carries —
    // the stale-table hazard of dynamic loading, which re-analyzes the
    // plan and must re-lower the tables.
    let p = interval_program();
    let mut plan = analyze(&p);
    let compiled = plan.compile();
    let site = plan.site_instrs().map(|(s, _)| s).next().unwrap();
    set_runtime_av(&mut plan, site, 77);

    let diags = audit_compiled(&plan, &compiled);
    assert!(!diags.is_empty(), "a stale image must be caught");
    assert!(
        diags
            .iter()
            .all(|d| d.code == LintCode::CompiledPlanDivergence),
        "table/plan disagreement must surface as DP040 only, got {diags:?}"
    );
    assert_eq!(LintCode::CompiledPlanDivergence.code(), "DP040");
}

#[test]
fn stale_entry_instruction_raises_dp040() {
    // Same hazard on the entry side: flip an anchor flag after lowering.
    let p = dispatch_program();
    let mut plan = analyze(&p);
    let compiled = plan.compile();
    let rec = method_named(&p, "A.rec");
    assert!(plan.entry(rec).unwrap().is_anchor, "rec is an anchor");
    plan.entry_instr_mut(rec).unwrap().is_anchor = false;

    let diags = audit_compiled(&plan, &compiled);
    assert!(
        diags
            .iter()
            .any(|d| d.code == LintCode::CompiledPlanDivergence && d.message.contains("entry")),
        "a stale entry word must surface as DP040, got {diags:?}"
    );
    // Re-lowering from the mutated plan restores agreement.
    assert!(audit_compiled(&plan, &plan.compile()).is_empty());
}

#[test]
fn stale_back_edge_lookup_table_raises_dp040() {
    // The recursion hazard of dynamic loading: compile first, then drop a
    // back-edge pair from the plan (re-analysis after a class unload can
    // legitimately shrink the set). The stale image still carries the pair
    // in the two-level lookup table the batched encoder probes, and the
    // audit must flag the table.
    let p = dispatch_program();
    let mut plan = analyze(&p);
    let compiled = plan.compile();
    let pair = plan
        .back_edge_call_pairs()
        .next()
        .expect("dispatch_program recurses");
    assert!(plan.back_edge_calls_mut().remove(&pair));

    let diags = audit_compiled(&plan, &compiled);
    assert!(
        diags
            .iter()
            .all(|d| d.code == LintCode::CompiledPlanDivergence),
        "back-edge divergence must surface as DP040 only, got {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("lookup table")),
        "the lookup table must be flagged, got {diags:?}"
    );
    // Re-lowering from the mutated plan restores agreement.
    assert!(audit_compiled(&plan, &plan.compile()).is_empty());
}

fn method_named(p: &Program, qualified: &str) -> deltapath::MethodId {
    p.methods()
        .iter()
        .find(|m| p.method_name(m.id()) == qualified)
        .unwrap_or_else(|| panic!("no method named {qualified}"))
        .id()
}
