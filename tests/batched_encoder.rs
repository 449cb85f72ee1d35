//! Batched-encoder differential suite: the deployment path,
//! [`BatchedDeltaEncoder`] over a compiled plan's dense tables, replayed
//! against two scalar references — the reference state machine
//! ([`DeltaState`]) driven by the instructions the compiled image
//! re-expands, and the map-based [`DeltaEncoder`] driven by the plan
//! itself.
//!
//! The first runs hook by hook over every harvested stream across
//! workloads × scopes × CPT modes × encoding widths, so the branchless
//! state machine must agree with the scalar one after every single hook
//! (ID, depth, UCP detections, and every capture byte for byte); the
//! fused `save_pending` / `do_check` bits are exercised under dynamic
//! loading. The second pins captures, abstract operation counts and UCP
//! detections under the deterministic VM and after every hook. The full
//! VM-driven matrix against the map-based encoder, with the DP040
//! round-trip audit of every lowered image, lives in the `compiled_plan`
//! suite.

mod common;

use std::collections::HashSet;

use common::CaptureLog;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    ArgExpr, BatchedDeltaEncoder, Capture, ClassId, CollectMode, ContextEncoder, DeltaEncoder,
    DeltaState, EncodingPlan, EncodingWidth, FrameStack, MethodKind, PlanConfig, Program,
    ProgramBuilder, ScopeFilter, Vm, VmConfig,
};
use deltapath_bench::hooks::{harvest, Hook};
use deltapath_core::{CallToken, EntryOutcome, ResolvedEntry, ResolvedSite};

/// Workload shapes: two open worlds with dynamic subclass loading and
/// cross-scope calls (UCP recoveries on the hot path) and one closed world
/// (every hook hits a present table slot).
fn programs() -> Vec<Program> {
    let open = |seed: u64| {
        generate(&SyntheticConfig {
            name: format!("batched{seed}"),
            seed,
            main_loop_iters: 2,
            observe_events: 3,
            ..SyntheticConfig::default()
        })
    };
    let closed = generate(&SyntheticConfig {
        name: "batched_closed".into(),
        seed: 7,
        lib_families: 0,
        lib_methods_per_layer: 0,
        cross_scope_prob: 0.0,
        dynamic_subclass_prob: 0.0,
        main_loop_iters: 2,
        observe_events: 3,
        ..SyntheticConfig::default()
    });
    vec![open(11), open(42), closed]
}

/// The plan-configuration matrix: both scopes, all three CPT modes, and
/// three widths including one narrow enough to force anchor insertion.
fn configs() -> Vec<(String, PlanConfig)> {
    let mut out = Vec::new();
    for (scope_name, scope) in [
        ("app", ScopeFilter::ApplicationOnly),
        ("all", ScopeFilter::All),
    ] {
        for (cpt_name, make_cpt) in [
            ("cpt", (|c: PlanConfig| c) as fn(PlanConfig) -> PlanConfig),
            ("nocpt", |c| c.with_cpt(false)),
            ("minimal", |c| c.with_cpt_minimal()),
        ] {
            for width in [
                EncodingWidth::U64,
                EncodingWidth::U32,
                EncodingWidth::new(12),
            ] {
                let config = make_cpt(PlanConfig::default().with_scope(scope)).with_width(width);
                out.push((format!("{scope_name}/{cpt_name}/w{}", width.bits()), config));
            }
        }
    }
    out
}

/// Runs `program` once under `encoder`, collecting every capture.
fn run_log(program: &Program, encoder: &mut impl ContextEncoder) -> CaptureLog {
    let mut log = CaptureLog::default();
    let mut vm = Vm::new(
        program,
        VmConfig::default().with_collect(CollectMode::Entries),
    );
    vm.run(encoder, &mut log).expect("run");
    log
}

#[test]
fn batched_encoder_matches_compiled_everywhere() {
    // The scalar reference state machine reads the compiled image only —
    // `site_instr` / `entry_instr` re-expand each word and the back-edge
    // pairs come from the lookup table the entry hook probes — so any
    // divergence is the branchless machine's, not the lowering's.
    let mut pairs = 0usize;
    for program in programs() {
        let hooks = harvest(&program).expect("harvest");
        for (label, config) in configs() {
            // Narrow widths may be unencodable for a given shape; that is
            // the analyzer's documented answer, not this suite's subject.
            let Ok(plan) = EncodingPlan::analyze(&program, &config) else {
                continue;
            };
            let fingerprint_before = plan.fingerprint();
            let compiled = plan.compile();
            let cpt = compiled.cpt();
            let back_edges: HashSet<_> = compiled.back_edge_call_pairs().collect();
            let tag = format!("{}/{label}", program.name());

            let mut scalar = DeltaState::start(program.entry());
            let mut scalar_ucps = 0u64;
            let mut enc = BatchedDeltaEncoder::new(&compiled);
            enc.thread_start(program.entry());
            let mut open_calls = Vec::new();
            let mut open_entries = Vec::new();
            let mut observes = 0usize;
            for (i, &hook) in hooks.iter().enumerate() {
                match hook {
                    Hook::Call(site) => {
                        let token = match compiled.site_instr(site) {
                            Some(instr) => {
                                scalar.on_call_resolved(site, ResolvedSite::of(&instr, cpt))
                            }
                            None => CallToken::inert(),
                        };
                        open_calls.push((site, token));
                        enc.on_call(site);
                    }
                    Hook::Return => {
                        let (site, token) = open_calls.pop().expect("balanced stream");
                        scalar.on_return(token);
                        enc.on_return(site, ());
                    }
                    Hook::Entry(method, via) => {
                        let outcome = match compiled.entry_instr(method) {
                            Some(instr) => {
                                // Only an instrumented dispatching site
                                // counts as "via".
                                let via = via.filter(|&s| compiled.site_instr(s).is_some());
                                let back_edge =
                                    via.is_some_and(|site| back_edges.contains(&(site, method)));
                                let r = ResolvedEntry::of(&instr, cpt, back_edge);
                                scalar.on_entry_resolved(method, via, r)
                            }
                            None => EntryOutcome::Plain,
                        };
                        scalar_ucps += u64::from(outcome == EntryOutcome::PushedUcp);
                        open_entries.push(outcome);
                        enc.on_entry(method, via);
                    }
                    Hook::Exit(method) => {
                        scalar.on_exit(open_entries.pop().expect("balanced stream"));
                        enc.on_exit(method, ());
                    }
                    Hook::Observe(at) => {
                        observes += 1;
                        assert_eq!(
                            enc.observe(at),
                            Capture::Delta(scalar.snapshot(at)),
                            "{tag}: capture at hook {i}"
                        );
                    }
                }
                assert_eq!(enc.state().id(), scalar.id(), "{tag}: ID after hook {i}");
                assert_eq!(
                    enc.state().depth(),
                    scalar.depth(),
                    "{tag}: depth after hook {i}"
                );
                assert_eq!(
                    enc.ucp_detections(),
                    scalar_ucps,
                    "{tag}: UCP detections after hook {i}"
                );
            }
            assert!(observes > 0, "{tag}: workload must observe");

            // Replay is read-only on the plan and its image.
            assert_eq!(plan.fingerprint(), fingerprint_before, "{tag}");
            assert_eq!(
                plan.instruction_fingerprint(),
                compiled.instruction_fingerprint(),
                "{tag}: lowered image renders different instructions"
            );
            pairs += 1;
        }
    }
    assert!(pairs >= 30, "the matrix collapsed: only {pairs} pairs ran");
}

#[test]
fn map_based_encoder_agrees_with_batched() {
    // The map-based reference against the batched encoder on the default
    // configuration of every workload, under the deterministic VM: the
    // direct pin between the two encoders this suite's per-hook tests
    // compare.
    for program in programs() {
        let config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
        let plan = EncodingPlan::analyze(&program, &config).expect("plan");
        let compiled = plan.compile();
        let mut map_enc = DeltaEncoder::new(&plan);
        let map_log = run_log(&program, &mut map_enc);
        let mut bat_enc = BatchedDeltaEncoder::new(&compiled);
        let bat_log = run_log(&program, &mut bat_enc);
        assert_eq!(map_log.records, bat_log.records, "{}", program.name());
        assert_eq!(map_enc.counts(), bat_enc.counts(), "{}", program.name());
        assert_eq!(
            map_enc.ucp_detections(),
            bat_enc.ucp_detections(),
            "{}",
            program.name()
        );
    }
}

#[test]
fn state_is_exact_after_every_hook() {
    // The batched encoder buffers nothing, so every cut point of a stream
    // is exact: after each hook its state must equal the reference state
    // machine driven by the same hook.
    for program in programs() {
        for scope in [ScopeFilter::ApplicationOnly, ScopeFilter::All] {
            let config = PlanConfig::default().with_scope(scope);
            let plan = EncodingPlan::analyze(&program, &config).expect("plan");
            let compiled = plan.compile();
            let hooks = harvest(&program).expect("harvest");
            let tag = format!("{}/{scope:?}", program.name());

            let mut map = DeltaEncoder::new(&plan);
            let mut enc = BatchedDeltaEncoder::new(&compiled);
            map.thread_start(program.entry());
            enc.thread_start(program.entry());
            let mut open_calls = Vec::new();
            let mut open_entries = Vec::new();
            for (i, &hook) in hooks.iter().enumerate() {
                match hook {
                    Hook::Call(site) => {
                        open_calls.push((site, map.on_call(site)));
                        enc.on_call(site);
                    }
                    Hook::Return => {
                        let (site, token) = open_calls.pop().expect("balanced stream");
                        map.on_return(site, token);
                        enc.on_return(site, ());
                    }
                    Hook::Entry(method, via) => {
                        open_entries.push(map.on_entry(method, via));
                        enc.on_entry(method, via);
                    }
                    Hook::Exit(method) => {
                        let token = open_entries.pop().expect("balanced stream");
                        map.on_exit(method, token);
                        enc.on_exit(method, ());
                    }
                    Hook::Observe(at) => {
                        assert_eq!(enc.observe(at), map.observe(at), "{tag}: capture {i}");
                    }
                }
                assert_eq!(
                    enc.state().id(),
                    map.state().id(),
                    "{tag}: ID after hook {i}"
                );
                assert_eq!(
                    enc.state().depth(),
                    map.state().depth(),
                    "{tag}: depth after hook {i}"
                );
                assert_eq!(enc.counts(), map.counts(), "{tag}: counts after hook {i}");
                assert_eq!(
                    enc.ucp_detections(),
                    map.ucp_detections(),
                    "{tag}: UCP detections after hook {i}"
                );
            }
        }
    }
}

#[test]
fn unchanged_stacks_share_one_snapshot() {
    // main -> rec -> rec...: the recursion header `rec` is an anchor, so
    // entering it from main pushes a frame and leaving it pops one.
    let mut b = ProgramBuilder::new("shared_snapshots");
    let c = b.add_class("C", None);
    b.method(c, "rec", MethodKind::Static)
        .body(|f| {
            f.if_mod(
                3,
                0,
                |_| {},
                |f| {
                    f.call_arg(ClassId::from_index(0), "rec", ArgExpr::ParamPlus(1));
                },
            );
        })
        .finish();
    let main = b
        .method(c, "main", MethodKind::Static)
        .body(|f| {
            f.call(c, "rec");
        })
        .finish();
    b.entry(main);
    let program = b.finish().expect("program");
    let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan");
    let rec = program
        .declared_method(
            program.class_by_name("C").unwrap(),
            program.symbols().lookup("rec").unwrap(),
        )
        .unwrap();
    assert!(plan.entry(rec).unwrap().is_anchor, "rec is an anchor");
    let site = program
        .sites()
        .iter()
        .find(|s| s.caller() == main)
        .unwrap()
        .id();
    let compiled = plan.compile();
    let mut enc = BatchedDeltaEncoder::new(&compiled);
    let stack = |enc: &mut BatchedDeltaEncoder, at| match enc.observe(at) {
        Capture::Delta(ctx) => ctx.frames,
        other => panic!("delta capture expected, got {other:?}"),
    };
    enc.thread_start(main);
    let first = stack(&mut enc, main);
    let second = stack(&mut enc, main);
    assert!(
        FrameStack::ptr_eq(&first, &second),
        "no push or pop between two observes: one allocation"
    );

    enc.on_call(site);
    enc.on_entry(rec, Some(site));
    let inner = stack(&mut enc, rec);
    assert_eq!(inner.len(), first.len() + 1, "entering rec pushed a frame");
    enc.on_exit(rec, ());
    enc.on_return(site, ());
    let after = stack(&mut enc, main);
    assert!(
        !FrameStack::ptr_eq(&first, &after),
        "a push and pop between two observes: a fresh allocation"
    );
    assert_eq!(first, after, "with equal contents");

    let counts = enc.state().counts();
    assert_eq!((counts.snapshots_built, counts.snapshots_shared), (3, 1));
}
