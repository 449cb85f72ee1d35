//! Batched-encoder differential suite: the deployment path,
//! [`BatchedDeltaEncoder`] over a compiled plan's dense tables, against
//! the map-based reference [`DeltaEncoder`].
//!
//! The first test replays every harvested stream across workloads ×
//! scopes × CPT modes × encoding widths hook by hook: the branchless state
//! machine must agree with the reference after every single hook — ID,
//! depth, operation tallies (UCP detections and the stack high-water mark
//! included) and every capture byte for byte. The fused `save_pending` /
//! `do_check` bits and the via-site filter are exercised under dynamic
//! loading. The same matrix then restarts both encoders in the middle of
//! a thread, and the deterministic VM checks that the two encoders'
//! telemetry reports agree metric for metric. The VM-driven matrix, with
//! the DP040 round-trip audit of every lowered image, lives in the
//! `compiled_plan` suite.

mod common;

use std::collections::BTreeMap;

use common::{configs, programs, run_log};
use deltapath::{
    ArgExpr, BatchedDeltaEncoder, Capture, ClassId, ContextEncoder, DeltaEncoder, EncodingPlan,
    FrameStack, MethodKind, PlanConfig, ProgramBuilder, Recorder, ScopeFilter, StateCounts,
};
use deltapath_bench::hooks::{harvest, replay, Hook};
use deltapath_telemetry::names;

#[test]
fn state_is_exact_after_every_hook() {
    let mut pairs = 0usize;
    for program in programs() {
        let hooks = harvest(&program).expect("harvest");
        for (label, config) in configs() {
            // Narrow widths may be unencodable for a given shape; that is
            // the analyzer's documented answer, not this suite's subject.
            let Ok(plan) = EncodingPlan::analyze(&program, &config) else {
                continue;
            };
            let compiled = plan.compile();
            let tag = format!("{}/{label}", program.name());

            let mut map = DeltaEncoder::new(&plan);
            let mut enc = BatchedDeltaEncoder::new(&compiled);
            map.thread_start(program.entry());
            enc.thread_start(program.entry());
            let mut open_calls = Vec::new();
            let mut observes = 0usize;
            for (i, &hook) in hooks.iter().enumerate() {
                match hook {
                    Hook::Call(site) => {
                        open_calls.push(site);
                        map.on_call(site);
                        enc.on_call(site);
                    }
                    Hook::Return => {
                        let site = open_calls.pop().expect("balanced stream");
                        map.on_return(site, ());
                        enc.on_return(site, ());
                    }
                    Hook::Entry(method, via) => {
                        map.on_entry(method, via);
                        enc.on_entry(method, via);
                    }
                    Hook::Exit(method) => {
                        map.on_exit(method, ());
                        enc.on_exit(method, ());
                    }
                    Hook::Observe(at) => {
                        observes += 1;
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
                assert_eq!(
                    reference_view(enc.state().counts()),
                    *map.state().counts(),
                    "{tag}: tallies after hook {i}"
                );
            }
            assert!(observes > 0, "{tag}: workload must observe");
            pairs += 1;
        }
    }
    assert!(pairs >= 30, "the matrix collapsed: only {pairs} pairs ran");
}

#[test]
fn batched_encoder_matches_compiled_everywhere() {
    // Everywhere includes a restart in the middle of a thread. Each stream
    // is cut at its midpoint, with calls still open, and both encoders are
    // restarted there with `thread_start`. Replayed in full after the
    // restart, the stream must capture exactly what it captures on a fresh
    // batched encoder, on the batched encoder and on the reference alike,
    // and the tallies must keep counting across the restart.
    let mut pairs = 0usize;
    for program in programs() {
        let hooks = harvest(&program).expect("harvest");
        let entry = program.entry();
        let prefix = &hooks[..hooks.len() / 2];
        let open_at_cut = prefix
            .iter()
            .map(|hook| match hook {
                Hook::Call(_) => 1,
                Hook::Return => -1,
                _ => 0,
            })
            .sum::<i64>();
        assert!(
            open_at_cut > 0,
            "{}: the cut must interrupt calls",
            program.name()
        );
        for (label, config) in configs() {
            let Ok(plan) = EncodingPlan::analyze(&program, &config) else {
                continue;
            };
            let compiled = plan.compile();
            let tag = format!("{}/{label}", program.name());

            let mut fresh = BatchedDeltaEncoder::new(&compiled);
            let mut expected = Vec::new();
            replay(entry, &hooks, &mut fresh, &mut expected);
            assert!(!expected.is_empty(), "{tag}: workload must observe");

            let mut enc = BatchedDeltaEncoder::new(&compiled);
            let mut map = DeltaEncoder::new(&plan);
            replay(entry, prefix, &mut enc, &mut Vec::new());
            replay(entry, prefix, &mut map, &mut Vec::new());
            let at_cut = *enc.state().counts();
            let (mut captured, mut map_captured) = (Vec::new(), Vec::new());
            replay(entry, &hooks, &mut enc, &mut captured);
            replay(entry, &hooks, &mut map, &mut map_captured);
            assert_eq!(
                captured, expected,
                "{tag}: batched captures after the restart"
            );
            assert_eq!(
                map_captured, expected,
                "{tag}: reference captures after the restart"
            );
            assert_eq!(
                *enc.state().counts(),
                consecutive(&at_cut, fresh.state().counts()),
                "{tag}: batched tallies across the restart"
            );
            assert_eq!(
                *map.state().counts(),
                reference_view(enc.state().counts()),
                "{tag}: reference tallies across the restart"
            );
            pairs += 1;
        }
    }
    assert!(pairs >= 30, "the matrix collapsed: only {pairs} pairs ran");
}

#[test]
fn map_based_encoder_agrees_with_batched() {
    // Both encoders report their tallies through one function, so under
    // the deterministic VM every metric of the map-based report reappears
    // in the batched report with its value, `deltapath` renamed to
    // `batched`; the batched encoder adds only its table, snapshot and
    // back-edge metrics.
    let batched_only = [
        "encoder.batched.table_bytes",
        names::ENCODER_BATCHED_SNAPSHOTS_SHARED,
        names::ENCODER_BATCHED_SNAPSHOTS_BUILT,
        names::ENCODER_BACKEDGE_PAIRS,
        names::ENCODER_BACKEDGE_SITES,
        names::ENCODER_BACKEDGE_PROBES,
    ];
    for program in programs() {
        let config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
        let plan = EncodingPlan::analyze(&program, &config).expect("plan");
        let compiled = plan.compile();
        let mut map_enc = DeltaEncoder::new(&plan);
        let map_log = run_log(&program, &mut map_enc);
        let mut bat_enc = BatchedDeltaEncoder::new(&compiled);
        let bat_log = run_log(&program, &mut bat_enc);
        let tag = program.name();
        assert_eq!(map_log.records, bat_log.records, "{tag}: captures");

        let renamed: BTreeMap<_, _> = metrics(&map_enc)
            .into_iter()
            .map(|(name, value)| (name.replacen(".deltapath.", ".batched.", 1), value))
            .collect();
        let (shared, extra): (BTreeMap<_, _>, BTreeMap<_, _>) = metrics(&bat_enc)
            .into_iter()
            .partition(|(name, _)| renamed.contains_key(name));
        assert_eq!(shared, renamed, "{tag}: shared metrics");
        let mut expected_extra = batched_only.map(String::from);
        expected_extra.sort();
        assert_eq!(
            extra.into_keys().collect::<Vec<_>>(),
            expected_extra,
            "{tag}: batched-only metrics"
        );
        assert!(
            renamed["ops.batched.adds"] > 0 && renamed["ops.batched.pushes"] > 0,
            "{tag}: workload must encode"
        );
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

/// `counts` with the batched-only tallies zeroed: what the reference
/// state machine, which probes no back-edge table and shares no
/// snapshots, keeps for the same hooks.
fn reference_view(counts: &StateCounts) -> StateCounts {
    StateCounts {
        backedge_probes: 0,
        snapshots_shared: 0,
        snapshots_built: 0,
        ..*counts
    }
}

/// The tallies of two consecutive threads on one state machine: every
/// counter adds up, and the stack high-water mark is the larger one.
fn consecutive(first: &StateCounts, second: &StateCounts) -> StateCounts {
    StateCounts {
        adds: first.adds + second.adds,
        subs: first.subs + second.subs,
        pending_saves: first.pending_saves + second.pending_saves,
        sid_checks: first.sid_checks + second.sid_checks,
        pushes: first.pushes + second.pushes,
        pops: first.pops + second.pops,
        ucp_detections: first.ucp_detections + second.ucp_detections,
        backedge_probes: first.backedge_probes + second.backedge_probes,
        stack_hwm: first.stack_hwm.max(second.stack_hwm),
        snapshots_shared: first.snapshots_shared + second.snapshots_shared,
        snapshots_built: first.snapshots_built + second.snapshots_built,
    }
}

/// Every counter and gauge `encoder` reports, by name.
fn metrics(encoder: &impl ContextEncoder) -> BTreeMap<String, u64> {
    let recorder = Recorder::new();
    encoder.report_telemetry(&recorder);
    let mut all: BTreeMap<_, _> = recorder.counter_values().into_iter().collect();
    all.extend(recorder.gauge_values());
    all
}
