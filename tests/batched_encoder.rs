//! Batched-encoder suite: the one DeltaPath state machine over its two
//! instruction sources. [`BatchedDeltaEncoder`] runs it on a compiled
//! plan's dense tables (the deployment path), the map-based
//! [`DeltaEncoder`] on the plan's hash maps (the reference the lowering is
//! checked against).
//!
//! The first test replays every harvested stream across workloads ×
//! scopes × CPT modes × encoding widths hook by hook: the two sources must
//! agree after every single hook — ID, depth, operation tallies (UCP
//! detections, snapshots and the stack high-water mark included) and
//! every capture byte for byte — and every captured frame must match the
//! shadow stack of open entries: its method, its site, and for anchor and
//! recursion frames the instrumented site the entry was dispatched
//! through. The fused `save_pending` / `do_check` bits and the via-site
//! filter are exercised under dynamic loading. The same matrix then
//! restarts both encoders in the middle of a thread, and the
//! deterministic VM checks that the two encoders' telemetry reports agree
//! metric for metric. Replaying each stream twice on one encoder checks
//! the interned stacks: a thread's equal captures share one allocation,
//! `snapshots_built` counts its distinct stacks, and a restarted thread
//! shares none with the one before. The VM-driven matrix, with the DP040
//! round-trip audit of every lowered image, lives in the `compiled_plan`
//! suite.

mod common;

use std::collections::{BTreeMap, HashMap, HashSet};

use common::{configs, programs, run_log};
use deltapath::{
    ArgExpr, BatchedDeltaEncoder, Capture, ClassId, ContextEncoder, DeltaEncoder, EncodedContext,
    EncodingPlan, Frame, FrameStack, FrameTag, MethodId, MethodKind, PlanConfig, ProgramBuilder,
    Recorder, ScopeFilter, SiteId, StateCounts,
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
            let mut open_entries = Vec::new();
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
                        let depth = map.state().depth();
                        map.on_entry(method, via);
                        enc.on_entry(method, via);
                        let pushed = map.state().depth() > depth;
                        open_entries.push(OpenEntry {
                            method,
                            via,
                            frame: pushed.then_some(depth),
                        });
                    }
                    Hook::Exit(method) => {
                        open_entries.pop().expect("balanced stream");
                        map.on_exit(method, ());
                        enc.on_exit(method, ());
                    }
                    Hook::Observe(at) => {
                        observes += 1;
                        let capture = map.observe(at);
                        assert_eq!(enc.observe(at), capture, "{tag}: capture {i}");
                        let Capture::Delta(ctx) = &capture else {
                            panic!("{tag}: capture {i} is not a DeltaPath capture");
                        };
                        if let Err(e) = check_frames(&plan, &open_entries, ctx) {
                            panic!("{tag}: capture {i}: {e}");
                        }
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
                    reference_view(map.state().counts()),
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
                reference_view(map.state().counts()),
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
        FrameStack::ptr_eq(&first, &after),
        "a push and pop between two observes: still the same allocation"
    );

    let counts = enc.state().counts();
    assert_eq!((counts.snapshots_built, counts.snapshots_shared), (2, 2));
}

#[test]
fn equal_stacks_share_one_allocation_per_thread() {
    // The state machine interns the stacks its thread captures. Within one
    // thread, two captures' stacks share one allocation exactly when their
    // frames are equal, and `snapshots_built` counts the distinct stacks
    // (the matrix stays far below the intern table's capacity). Each
    // stream is replayed twice on one encoder: `thread_start` begins a
    // thread that shares no stack with the one before.
    let mut pairs = 0usize;
    for program in programs() {
        let hooks = harvest(&program).expect("harvest");
        for (label, config) in configs() {
            let Ok(plan) = EncodingPlan::analyze(&program, &config) else {
                continue;
            };
            let compiled = plan.compile();
            let tag = format!("{}/{label}", program.name());

            let mut enc = BatchedDeltaEncoder::new(&compiled);
            let mut threads = Vec::new();
            let mut before = StateCounts::default();
            for thread in 0..2 {
                let mut captured = Vec::new();
                replay(program.entry(), &hooks, &mut enc, &mut captured);
                let stacks: Vec<FrameStack> = captured
                    .into_iter()
                    .map(|capture| match capture {
                        Capture::Delta(ctx) => ctx.frames,
                        other => panic!("{tag}: delta capture expected, got {other:?}"),
                    })
                    .collect();
                let mut first: HashMap<&[Frame], &FrameStack> = HashMap::new();
                for (i, stack) in stacks.iter().enumerate() {
                    let same = first.entry(stack).or_insert(stack);
                    assert!(
                        FrameStack::ptr_eq(same, stack),
                        "{tag}: thread {thread}, capture {i}: equal frames in a second allocation"
                    );
                }
                let allocations: HashSet<*const Frame> =
                    first.values().map(|stack| stack.as_ptr()).collect();
                assert_eq!(
                    allocations.len(),
                    first.len(),
                    "{tag}: thread {thread}: unequal frames in one allocation"
                );
                let counts = *enc.state().counts();
                let built = counts.snapshots_built - before.snapshots_built;
                let shared = counts.snapshots_shared - before.snapshots_shared;
                assert_eq!(
                    (built, shared),
                    (first.len() as u64, (stacks.len() - first.len()) as u64),
                    "{tag}: thread {thread}: snapshots built and shared"
                );
                before = counts;
                threads.push(stacks);
            }
            let previous: HashSet<*const Frame> =
                threads[0].iter().map(|stack| stack.as_ptr()).collect();
            assert!(
                threads[1]
                    .iter()
                    .all(|stack| !previous.contains(&stack.as_ptr())),
                "{tag}: the restarted thread shares a stack with the thread before"
            );
            pairs += 1;
        }
    }
    assert!(pairs >= 30, "the matrix collapsed: only {pairs} pairs ran");
}

/// One open entry of the shadow stack: the method it entered, the site it
/// was dispatched through, and the index of the frame it pushed, if any.
struct OpenEntry {
    method: MethodId,
    via: Option<SiteId>,
    frame: Option<usize>,
}

/// Checks every frame of `ctx` above the bootstrap frame against the
/// shadow stack `open`: the frame names the method of the open entry that
/// pushed it, its site is `None` or a site `plan` instruments, and an
/// anchor or recursion frame records the site that entry was dispatched
/// through, if `plan` instruments it.
fn check_frames(
    plan: &EncodingPlan,
    open: &[OpenEntry],
    ctx: &EncodedContext,
) -> Result<(), String> {
    let instrumented = |site: SiteId| plan.site(site).is_some();
    let mut pushers = open.iter().filter(|e| e.frame.is_some());
    for (k, frame) in ctx.frames.iter().enumerate().skip(1) {
        let entry = pushers
            .next()
            .filter(|e| e.frame == Some(k))
            .ok_or_else(|| format!("frame {k} was pushed by no open entry"))?;
        if frame.node != entry.method {
            return Err(format!(
                "frame {k} names {:?}, but its entry entered {:?}",
                frame.node, entry.method
            ));
        }
        if frame.site.is_some_and(|s| !instrumented(s)) {
            return Err(format!("frame {k} site is bare"));
        }
        let via = entry.via.filter(|&s| instrumented(s));
        if matches!(frame.tag, FrameTag::Anchor | FrameTag::Recursion) && frame.site != via {
            return Err(format!(
                "frame {k} site is {:?}, but its entry came via {via:?}",
                frame.site
            ));
        }
    }
    Ok(())
}

/// `counts` with the back-edge probes zeroed: the one tally that depends
/// on the instruction source. The plan's hash maps probe at every
/// instrumented dispatching site, the compiled tables only at sites with
/// a recursion back edge.
fn reference_view(counts: &StateCounts) -> StateCounts {
    StateCounts {
        backedge_probes: 0,
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
