//! Seeded property tests: random program shapes must uphold the paper's
//! core guarantees — unique encodings, exact round-trip decoding, and
//! anchor-bounded encoding spaces — across the whole configuration space of
//! the generator. Each property checks a fixed number of cases drawn from
//! its own fixed seed (see [`common::check_cases`]).

mod common;

use common::{check_cases, compare_against_ground_truth, gen_f64};
use deltapath::core::verify::verify_plan;
use deltapath::workloads::rng::SplitMix64;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Analysis, Capture, CollectMode, Collector, ContextStats, DecodeOptions, Decoder, DeltaEncoder,
    EncodedContext, EncodingPlan, EncodingWidth, EventLog, Frame, FrameTag, MethodId, PlanConfig,
    ScopeFilter, Vm, VmConfig,
};

/// A generator config over closed-world programs (no library or dynamic
/// code): DeltaPath must be exact on these, bit for bit.
fn closed_world_config(rng: &mut SplitMix64) -> SyntheticConfig {
    let seed = rng.next_u64();
    SyntheticConfig {
        name: format!("prop{seed}"),
        seed,
        app_families: rng.gen_range(2usize..5),
        lib_families: 0,
        lib_methods_per_layer: 0,
        cross_scope_prob: 0.0,
        dynamic_subclass_prob: 0.0,
        layers: rng.gen_range(2usize..6),
        methods_per_layer: rng.gen_range(2usize..7),
        calls_per_method: (1, rng.gen_range(1usize..4)),
        virtual_fraction: gen_f64(rng, 0.0..0.8),
        recursion_prob: gen_f64(rng, 0.0..0.2),
        call_guard_prob: gen_f64(rng, 0.0..0.6),
        main_loop_iters: 2,
        ..SyntheticConfig::default()
    }
}

/// Exhaustive static verification: every enumerated context encodes
/// uniquely and decodes back exactly, for both CHA and exact dispatch
/// analyses.
#[test]
fn encodings_are_injective_and_decodable() {
    check_cases(0x01, 48, closed_world_config, |config| {
        let program = generate(config);
        for analysis in [Analysis::Cha, Analysis::Exact] {
            let plan =
                EncodingPlan::analyze(&program, &PlanConfig::default().with_analysis(analysis))
                    .expect("plan analysis");
            let report = verify_plan(&plan, 1, 20_000)
                .unwrap_or_else(|e| panic!("seed {}: {e}", config.seed));
            assert_eq!(report.contexts, report.unique);
        }
    });
}

/// Dynamic round-trip: every context captured during execution decodes
/// to the walked ground truth.
#[test]
fn execution_round_trips() {
    check_cases(0x02, 48, closed_world_config, |config| {
        let program = generate(config);
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan analysis");
        let cmp = compare_against_ground_truth(&program, &plan);
        assert!(cmp.hard_failures.is_empty(), "{:?}", cmp.hard_failures);
        assert_eq!(cmp.tolerated, 0);
    });
}

/// Narrow widths must either fail loudly or produce encodings whose
/// per-piece space fits — never silently overflow — and stay exact.
#[test]
fn narrow_widths_stay_exact() {
    let draw = |rng: &mut SplitMix64| (closed_world_config(rng), rng.gen_range(4u32..12) as u8);
    check_cases(0x03, 48, draw, |(config, bits)| {
        let program = generate(config);
        let width = EncodingWidth::new(*bits);
        match EncodingPlan::analyze(&program, &PlanConfig::default().with_width(width)) {
            Ok(plan) => {
                assert!(plan.encoding().max_icc <= width.capacity());
                let cmp = compare_against_ground_truth(&program, &plan);
                assert!(cmp.hard_failures.is_empty(), "{:?}", cmp.hard_failures);
            }
            Err(e) => {
                // WidthTooSmall is a legitimate outcome for tiny widths.
                assert!(
                    matches!(e, deltapath::EncodeError::WidthTooSmall { .. }),
                    "{e}"
                );
            }
        }
    });
}

/// Open-world programs (libraries, callbacks, dynamic classes) under
/// selective encoding: never a hard failure, and the documented
/// benign-UCP imprecision stays rare.
#[test]
fn open_world_selective_encoding_is_safe() {
    let draw = |rng: &mut SplitMix64| {
        let seed = rng.next_u64();
        SyntheticConfig {
            name: format!("open{seed}"),
            seed,
            cross_scope_prob: 0.4,
            callback_prob: gen_f64(rng, 0.0..0.3),
            dynamic_subclass_prob: gen_f64(rng, 0.0..0.6),
            dynamic_receiver_prob: 0.25,
            main_loop_iters: 2,
            layers: 5,
            ..SyntheticConfig::default()
        }
    };
    check_cases(0x04, 24, draw, |config| {
        let program = generate(config);
        let plan = EncodingPlan::analyze(
            &program,
            &PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly),
        )
        .expect("plan analysis");
        let cmp = compare_against_ground_truth(&program, &plan);
        assert!(cmp.hard_failures.is_empty(), "{:?}", cmp.hard_failures);
        assert!(
            cmp.exact_fraction() > 0.8,
            "only {:.2} exact ({} tolerated)",
            cmp.exact_fraction(),
            cmp.tolerated
        );
    });
}

/// One synthetic collection event: `(event id, true depth, capture
/// depth)`, expanded into a [`Capture::Delta`] by [`delta_capture`].
fn event(rng: &mut SplitMix64) -> (u64, usize, usize) {
    (
        rng.gen_range(0u64..40),
        rng.gen_range(0usize..10),
        rng.gen_range(1usize..6),
    )
}

fn delta_capture(id: u64, depth: usize) -> Capture {
    let frame = Frame {
        tag: FrameTag::Anchor,
        node: MethodId::from_index(0),
        site: None,
        saved_id: 0,
    };
    Capture::Delta(EncodedContext {
        frames: vec![frame; depth].into(),
        id,
        at: MethodId::from_index(1),
    })
}

/// An event stream for [`sharded_merge_is_order_independent`].
#[derive(Debug)]
struct MergeCase {
    events: Vec<(u64, usize, usize)>,
    /// A Fisher–Yates permutation of `events`.
    shuffled: Vec<(u64, usize, usize)>,
    threads: usize,
}

fn merge_case(rng: &mut SplitMix64) -> MergeCase {
    let len = rng.gen_range(1usize..200);
    let events: Vec<_> = (0..len).map(|_| event(rng)).collect();
    let mut shuffled = events.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    MergeCase {
        events,
        shuffled,
        threads: rng.gen_range(1usize..5),
    }
}

/// Per-thread collection is order-independent and lossless: any
/// permutation of any event stream, dealt over one `ContextStats` per
/// thread and merged in reverse, yields exactly the statistics of an
/// in-order sequential run — and agrees with the
/// [`RelativeCollector`](deltapath::runtime::RelativeCollector) on the
/// number of contexts collected.
#[test]
fn sharded_merge_is_order_independent() {
    use deltapath::runtime::RelativeCollector;

    check_cases(0x05, 48, merge_case, |case| {
        // Sequential reference, in generation order.
        let mut sequential = ContextStats::new();
        let mut relative = RelativeCollector::default();
        for &(id, true_depth, depth) in &case.events {
            let capture = delta_capture(id, depth);
            sequential.record_entry(MethodId::from_index(2), true_depth, capture.clone());
            relative.record_entry(MethodId::from_index(2), true_depth, capture);
        }

        // Concurrent shape: the *shuffled* stream, dealt round-robin over
        // the threads' stats and merged in reverse — so the delivery
        // order, the thread-to-event assignment and the merge order all
        // differ from the reference run.
        let mut per_thread = vec![ContextStats::new(); case.threads];
        for (i, &(id, true_depth, depth)) in case.shuffled.iter().enumerate() {
            per_thread[i % case.threads].record_entry(
                MethodId::from_index(2),
                true_depth,
                delta_capture(id, depth),
            );
        }
        let mut merged = ContextStats::new();
        for stats in per_thread.into_iter().rev() {
            merged.merge(stats);
        }

        assert_eq!(merged, sequential);
        // Cross-collector agreement: every entry was a Delta capture, so
        // the relative log collected exactly as many contexts.
        assert_eq!(relative.log.len() as u64, merged.total_contexts);
        assert_eq!(relative.skipped, 0);
    });
}

/// The memoized piece and stack caches are transparent: decoding every
/// captured context through a caching decoder — twice, so the second
/// pass runs hot — yields exactly the contexts an uncached decoder
/// produces, and capacity 0 disables both caches.
#[test]
fn decode_cache_hits_equal_uncached_decode() {
    check_cases(0x06, 24, closed_world_config, |config| {
        let program = generate(config);
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan analysis");
        let mut vm = Vm::new(
            &program,
            VmConfig::default().with_collect(CollectMode::ObservesOnly),
        );
        let mut log = EventLog::default();
        vm.run(&mut DeltaEncoder::new(&plan), &mut log)
            .expect("run");

        let cached = plan.decoder();
        let uncached = Decoder::new(
            &plan,
            DecodeOptions {
                piece_cache_capacity: 0,
                ..DecodeOptions::default()
            },
        );
        for _pass in 0..2 {
            for (_, _, capture) in &log.events {
                let Capture::Delta(ctx) = capture else {
                    unreachable!()
                };
                assert_eq!(
                    cached.decode(ctx).expect("cached decode"),
                    uncached.decode(ctx).expect("uncached decode")
                );
            }
        }
        let (hits, misses) = cached.cache_stats();
        let (u_hits, _) = uncached.cache_stats();
        assert_eq!(u_hits, 0);
        // If the first pass touched any piece, the second pass must have
        // served it from the cache.
        if misses > 0 {
            assert!(hits > 0);
        }
        // Capacity 0 disables the stack cache too: every decode walks
        // every piece below the top frame.
        let events = log.events.len() as u64;
        assert_eq!(uncached.stack_cache_stats(), (0, 2 * events));
        // The second pass finds every stack the first pass decoded.
        let (stack_hits, stack_misses) = cached.stack_cache_stats();
        assert_eq!(stack_hits + stack_misses, 2 * events);
        assert!(stack_hits >= events);
    });
}

/// Analysis precision ordering on random programs: every Exact dispatch
/// edge is a CHA edge.
#[test]
fn analysis_precision_is_ordered() {
    use deltapath::{CallGraph, GraphConfig};
    use std::collections::HashSet;

    check_cases(0x07, 32, SplitMix64::next_u64, |&seed| {
        let program = generate(&SyntheticConfig {
            name: format!("ord{seed}"),
            seed,
            ..SyntheticConfig::default()
        });
        let edges = |analysis: Analysis| -> HashSet<(MethodId, MethodId, deltapath::SiteId)> {
            let g = CallGraph::build(&program, &GraphConfig::new(analysis));
            g.edges()
                .iter()
                .map(|e| (g.method_of(e.caller), g.method_of(e.callee), e.site))
                .collect()
        };
        let exact = edges(Analysis::Exact);
        let cha = edges(Analysis::Cha);
        assert!(exact.is_subset(&cha), "Exact ⊆ CHA violated");
    });
}

/// Lowering a plan to dense dispatch tables round-trips every site and
/// entry instruction bit for bit, in both CPT modes, and the image
/// re-renders the plan's instruction fingerprint exactly.
#[test]
fn compiled_plan_round_trips() {
    let draw = |rng: &mut SplitMix64| (rng.next_u64(), rng.gen_bool(0.5));
    check_cases(0x08, 32, draw, |&(seed, cpt)| {
        let program = generate(&SyntheticConfig {
            name: format!("lower{seed}"),
            seed,
            main_loop_iters: 1,
            ..SyntheticConfig::default()
        });
        let plan = EncodingPlan::analyze(
            &program,
            &PlanConfig::default()
                .with_scope(ScopeFilter::ApplicationOnly)
                .with_cpt(cpt),
        )
        .unwrap();
        let compiled = plan.compile();
        for (site, instr) in plan.site_instrs() {
            assert_eq!(compiled.site_instr(site).as_ref(), Some(instr));
        }
        for (method, instr) in plan.entry_instrs() {
            assert_eq!(compiled.entry_instr(method).as_ref(), Some(instr));
        }
        assert_eq!(compiled.site_count(), plan.site_instrs().count());
        assert_eq!(compiled.entry_count(), plan.entry_instrs().count());
        assert_eq!(
            plan.instruction_fingerprint(),
            compiled.instruction_fingerprint()
        );
    });
}

/// Minimal call-path tracking never changes the encoding itself (same
/// addition values, same anchors) — it only drops tracking operations.
#[test]
fn minimal_cpt_preserves_the_encoding() {
    check_cases(0x09, 32, SplitMix64::next_u64, |&seed| {
        let program = generate(&SyntheticConfig {
            name: format!("mincpt{seed}"),
            seed,
            main_loop_iters: 1,
            ..SyntheticConfig::default()
        });
        let full = EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap();
        let minimal =
            EncodingPlan::analyze(&program, &PlanConfig::default().with_cpt_minimal()).unwrap();
        assert_eq!(&full.encoding().site_av, &minimal.encoding().site_av);
        assert_eq!(&full.encoding().anchors, &minimal.encoding().anchors);
        // And tracking only ever shrinks.
        for site in program.sites() {
            if let (Some(f), Some(m)) = (full.site(site.id()), minimal.site(site.id())) {
                assert!(f.tracked || !m.tracked);
            }
        }
    });
}
