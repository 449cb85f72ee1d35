//! Batched-encoder differential suite: the buffering
//! [`BatchedDeltaEncoder`] and the underlying branchless batch kernel
//! ([`CompiledPlan::apply_batch`]) replayed against the scalar
//! [`CompiledDeltaEncoder`] across workloads × scopes × CPT modes ×
//! encoding widths. The interpreter is deterministic, so every
//! configuration observes the identical event sequence and must agree on
//! *everything*:
//!
//! * every capture, byte for byte, in execution order (entries and
//!   observes);
//! * the abstract operation counts — buffering must not add, skip, or
//!   reorder a single encoding operation;
//! * hazardous-UCP detections, which exercise the fused
//!   `save_pending` / `do_check` bits under dynamic loading;
//! * the plan fingerprint: lowering and batch replay are read-only.
//!
//! On top of the VM-driven matrix, a seeded property test pins the batch
//! kernel's core algebraic guarantee: *any* chunking of a lowered hook
//! stream — size-1 chunks, the whole stream in one call, or arbitrary
//! random splits — produces the identical final state, and the
//! interleaved fan-out variant keeps every lane identical to a
//! single-lane replay.

mod common;

use common::CaptureLog;
use deltapath::workloads::rng::SplitMix64;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    ArgExpr, BatchCounts, BatchState, BatchedDeltaEncoder, Capture, ClassId, CollectMode,
    CompiledDeltaEncoder, ContextEncoder, DeltaEncoder, EncodedContext, EncodingPlan,
    EncodingWidth, FrameStack, MethodKind, PlanConfig, Program, ProgramBuilder, ScopeFilter, Vm,
    VmConfig,
};
use deltapath_bench::hooks::{harvest, HookBuffer};

/// Workload shapes, mirroring the compiled-plan suite: two open worlds
/// with dynamic subclass loading and cross-scope calls (UCP recoveries on
/// the hot path) and one closed world (every hook hits a present slot).
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
    let mut pairs = 0usize;
    for program in programs() {
        for (label, config) in configs() {
            // Narrow widths may be unencodable for a given shape; that is
            // the analyzer's documented answer, not this suite's subject.
            let Ok(plan) = EncodingPlan::analyze(&program, &config) else {
                continue;
            };
            let fingerprint_before = plan.fingerprint();
            let compiled = plan.compile();
            let tag = format!("{}/{label}", program.name());

            let mut tab_enc = CompiledDeltaEncoder::new(&compiled);
            let tab_log = run_log(&program, &mut tab_enc);
            assert!(
                !tab_log.records.is_empty(),
                "{tag}: workload must collect events"
            );

            // A tiny capacity forces many mid-run flushes, so chunk
            // boundaries land inside open call/entry spans.
            let mut bat_enc = BatchedDeltaEncoder::new(&compiled).with_capacity(3);
            let bat_log = run_log(&program, &mut bat_enc);
            assert_eq!(tab_log.records, bat_log.records, "{tag}: captures diverged");
            assert_eq!(
                tab_enc.counts(),
                bat_enc.counts(),
                "{tag}: operation counts diverged"
            );
            assert_eq!(
                tab_enc.ucp_detections(),
                bat_enc.ucp_detections(),
                "{tag}: UCP detections diverged"
            );
            assert!(bat_enc.flushes() > 0, "{tag}: capacity 3 must flush");

            // Batch replay is read-only on the plan and its image.
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
    // One three-way pin (map vs scalar-compiled vs batched) on the default
    // configuration of every workload, closing the transitivity argument
    // without re-running the full matrix a third time.
    for program in programs() {
        let config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
        let plan = EncodingPlan::analyze(&program, &config).expect("plan");
        let compiled = plan.compile();
        let mut map_enc = DeltaEncoder::new(&plan);
        let map_log = run_log(&program, &mut map_enc);
        let mut bat_enc = BatchedDeltaEncoder::new(&compiled).with_capacity(2);
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

/// Applies the whole lowered stream in one kernel call and returns the
/// reference observation: captures, final ID, final depth, and counts.
fn whole_stream_reference(
    compiled: &deltapath::CompiledPlan,
    buffer: &HookBuffer,
) -> (Vec<EncodedContext>, u64, usize, deltapath::BatchCounts) {
    let mut state = BatchState::start(buffer.entry);
    let mut out = Vec::new();
    compiled.apply_batch(&mut state, &buffer.words, &mut out);
    (out, state.id(), state.depth(), *state.counts())
}

#[test]
fn arbitrary_chunkings_are_exact() {
    // The kernel's core algebraic property: chunk boundaries are
    // invisible. Seeded random splits (plus the size-1 and whole-stream
    // extremes) of every workload's lowered stream must reproduce the
    // reference final state bit for bit.
    let mut rng = SplitMix64::seed_from_u64(0x9e3779b97f4a7c15);
    for program in programs() {
        for scope in [ScopeFilter::ApplicationOnly, ScopeFilter::All] {
            let config = PlanConfig::default().with_scope(scope);
            let plan = EncodingPlan::analyze(&program, &config).expect("plan");
            let compiled = plan.compile();
            let hooks = harvest(&program).expect("harvest");
            let buffer = HookBuffer::lower(program.entry(), &hooks);
            let (ref_out, ref_id, ref_depth, ref_counts) =
                whole_stream_reference(&compiled, &buffer);
            let tag = format!("{}/{scope:?}", program.name());

            let check = |splits: &[usize], what: &str| {
                let mut state = BatchState::start(buffer.entry);
                let mut out = Vec::new();
                let mut pos = 0usize;
                for &next in splits {
                    compiled.apply_batch(&mut state, &buffer.words[pos..next], &mut out);
                    pos = next;
                }
                compiled.apply_batch(&mut state, &buffer.words[pos..], &mut out);
                assert_eq!(out, ref_out, "{tag}/{what}: captures diverged");
                assert_eq!(state.id(), ref_id, "{tag}/{what}: final ID diverged");
                assert_eq!(state.depth(), ref_depth, "{tag}/{what}: depth diverged");
                assert_eq!(*state.counts(), ref_counts, "{tag}/{what}: counts diverged");
            };

            // The two extremes, then seeded arbitrary splits.
            check(&(1..buffer.words.len()).collect::<Vec<_>>(), "size-1");
            check(&[], "whole-stream");
            for round in 0..8 {
                let mut splits = Vec::new();
                let mut pos = 0usize;
                while pos < buffer.words.len() {
                    pos += 1 + (rng.next_u64() as usize) % 97;
                    if pos < buffer.words.len() {
                        splits.push(pos);
                    }
                }
                check(&splits, &format!("random{round}"));
            }
        }
    }
}

#[test]
fn fanout_lanes_replicate_single_lane() {
    for program in programs() {
        let config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
        let plan = EncodingPlan::analyze(&program, &config).expect("plan");
        let compiled = plan.compile();
        let hooks = harvest(&program).expect("harvest");
        let buffer = HookBuffer::lower(program.entry(), &hooks);
        let (ref_out, ref_id, ref_depth, ref_counts) = whole_stream_reference(&compiled, &buffer);

        let mut states: Vec<BatchState> = (0..3).map(|_| BatchState::start(buffer.entry)).collect();
        let mut out = Vec::new();
        compiled.apply_batch_fanout(&mut states, &buffer.words, &mut out);
        // Observes snapshot lane 0 only — lanes are replicas by design,
        // so only lane 0 tallies snapshots.
        assert_eq!(out, ref_out, "{}: lane-0 captures", program.name());
        let unobserved = BatchCounts {
            snapshots_shared: 0,
            snapshots_built: 0,
            ..ref_counts
        };
        for (lane, state) in states.iter().enumerate() {
            let tag = format!("{}/lane{lane}", program.name());
            let expected = if lane == 0 { ref_counts } else { unobserved };
            assert_eq!(state.id(), ref_id, "{tag}: final ID diverged");
            assert_eq!(state.depth(), ref_depth, "{tag}: depth diverged");
            assert_eq!(*state.counts(), expected, "{tag}: counts diverged");
        }
    }
}

#[test]
fn truncated_streams_flush_on_demand() {
    // A mid-run snapshot: replay a prefix ending inside open calls, then
    // flush explicitly. The buffered encoder must match the scalar encoder
    // driven over the same prefix.
    let program = programs().remove(0);
    let config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
    let plan = EncodingPlan::analyze(&program, &config).expect("plan");
    let compiled = plan.compile();
    let mut hooks = harvest(&program).expect("harvest");
    for cut in [7usize, 100, 1777] {
        hooks.truncate(cut.min(hooks.len()));
        let buffer = HookBuffer::lower(program.entry(), &hooks);
        let mut scalar = BatchState::start(buffer.entry);
        let mut scalar_out = Vec::new();
        compiled.apply_batch(&mut scalar, &buffer.words, &mut scalar_out);

        let mut enc = BatchedDeltaEncoder::new(&compiled).with_capacity(5);
        let mut out = Vec::new();
        deltapath_bench::hooks::replay(program.entry(), &hooks, &mut enc, &mut out);
        enc.flush();
        assert_eq!(enc.state().id(), scalar.id(), "cut {cut}: final ID");
        assert_eq!(enc.state().depth(), scalar.depth(), "cut {cut}: depth");
        assert_eq!(*enc.state().counts(), *scalar.counts(), "cut {cut}: counts");
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
