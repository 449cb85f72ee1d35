//! Property-based tests: random program shapes must uphold the paper's
//! core guarantees — unique encodings, exact round-trip decoding, and
//! anchor-bounded encoding spaces — across the whole configuration space of
//! the generator.
//!
//! Gated behind the non-default `proptest` feature: the offline build
//! environment cannot fetch the `proptest` crate (see Cargo.toml).

#![cfg(feature = "proptest")]

mod common;

use common::compare_against_ground_truth;
use deltapath::core::verify::verify_plan;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Analysis, Capture, CollectMode, Collector, ContextStats, DecodeOptions, Decoder, DeltaEncoder,
    EncodedContext, EncodingPlan, EncodingWidth, EventLog, Frame, FrameTag, MethodId, PlanConfig,
    ScopeFilter, ShardedCollector, Vm, VmConfig,
};
use proptest::prelude::*;

/// A generator-config strategy over closed-world programs (no library or
/// dynamic code): DeltaPath must be exact on these, bit for bit.
fn closed_world_configs() -> impl Strategy<Value = SyntheticConfig> {
    (
        any::<u64>(),
        2usize..5,   // app families
        2usize..6,   // layers
        2usize..7,   // methods per layer
        1usize..4,   // max calls per method
        0.0f64..0.8, // virtual fraction
        0.0f64..0.2, // recursion probability
        0.0f64..0.6, // call guard probability
    )
        .prop_map(
            |(seed, families, layers, mpl, calls, vfrac, rec, guard)| SyntheticConfig {
                name: format!("prop{seed}"),
                seed,
                app_families: families,
                lib_families: 0,
                lib_methods_per_layer: 0,
                cross_scope_prob: 0.0,
                dynamic_subclass_prob: 0.0,
                layers,
                methods_per_layer: mpl,
                calls_per_method: (1, calls),
                virtual_fraction: vfrac,
                recursion_prob: rec,
                call_guard_prob: guard,
                main_loop_iters: 2,
                ..SyntheticConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Exhaustive static verification: every enumerated context encodes
    /// uniquely and decodes back exactly, for both CHA and exact dispatch
    /// analyses.
    #[test]
    fn encodings_are_injective_and_decodable(config in closed_world_configs()) {
        let program = generate(&config);
        for analysis in [Analysis::Cha, Analysis::Exact] {
            let plan = EncodingPlan::analyze(
                &program,
                &PlanConfig::default().with_analysis(analysis),
            ).expect("plan analysis");
            let report = verify_plan(&plan, 1, 20_000)
                .unwrap_or_else(|e| panic!("seed {}: {e}", config.seed));
            prop_assert_eq!(report.contexts, report.unique);
        }
    }

    /// Dynamic round-trip: every context captured during execution decodes
    /// to the walked ground truth.
    #[test]
    fn execution_round_trips(config in closed_world_configs()) {
        let program = generate(&config);
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default())
            .expect("plan analysis");
        let cmp = compare_against_ground_truth(&program, &plan);
        prop_assert!(cmp.hard_failures.is_empty(), "{:?}", cmp.hard_failures);
        prop_assert_eq!(cmp.tolerated, 0);
    }

    /// Narrow widths must either fail loudly or produce encodings whose
    /// per-piece space fits — never silently overflow — and stay exact.
    #[test]
    fn narrow_widths_stay_exact(config in closed_world_configs(), bits in 4u8..12) {
        let program = generate(&config);
        let width = EncodingWidth::new(bits);
        match EncodingPlan::analyze(&program, &PlanConfig::default().with_width(width)) {
            Ok(plan) => {
                prop_assert!(plan.encoding().max_icc <= width.capacity());
                let cmp = compare_against_ground_truth(&program, &plan);
                prop_assert!(cmp.hard_failures.is_empty(), "{:?}", cmp.hard_failures);
            }
            Err(e) => {
                // WidthTooSmall is a legitimate outcome for tiny widths.
                prop_assert!(matches!(e, deltapath::EncodeError::WidthTooSmall { .. }), "{e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Open-world programs (libraries, callbacks, dynamic classes) under
    /// selective encoding: never a hard failure, and the documented
    /// benign-UCP imprecision stays rare.
    #[test]
    fn open_world_selective_encoding_is_safe(
        seed in any::<u64>(),
        callback in 0.0f64..0.3,
        dynprob in 0.0f64..0.6,
    ) {
        let program = generate(&SyntheticConfig {
            name: format!("open{seed}"),
            seed,
            cross_scope_prob: 0.4,
            callback_prob: callback,
            dynamic_subclass_prob: dynprob,
            dynamic_receiver_prob: 0.25,
            main_loop_iters: 2,
            layers: 5,
            ..SyntheticConfig::default()
        });
        let plan = EncodingPlan::analyze(
            &program,
            &PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly),
        ).expect("plan analysis");
        let cmp = compare_against_ground_truth(&program, &plan);
        prop_assert!(cmp.hard_failures.is_empty(), "{:?}", cmp.hard_failures);
        prop_assert!(
            cmp.exact_fraction() > 0.8,
            "only {:.2} exact ({} tolerated)",
            cmp.exact_fraction(),
            cmp.tolerated
        );
    }
}

/// One synthetic collection event: `(event id, true depth, capture
/// depth)`, expanded into a [`Capture::Delta`] by [`delta_capture`].
fn event_strategy() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..40, 0usize..10, 1usize..6)
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Sharded collection is order-independent and lossless: any
    /// permutation of any event stream, delivered through any number of
    /// handles of any shard/batch configuration, merges to exactly the
    /// statistics of an in-order sequential run — and agrees with the
    /// [`RelativeCollector`] on the number of contexts collected.
    #[test]
    fn sharded_merge_is_order_independent(
        (events, shuffled) in proptest::collection::vec(event_strategy(), 1..200)
            .prop_flat_map(|v| (Just(v.clone()), Just(v).prop_shuffle())),
        shards in 0usize..32,
        batch in 1usize..64,
        handles in 1usize..4,
    ) {
        use deltapath::runtime::RelativeCollector;

        // Sequential reference, in generation order.
        let mut sequential = ContextStats::new();
        let mut relative = RelativeCollector::default();
        for &(id, true_depth, depth) in &events {
            let capture = delta_capture(id, depth);
            sequential.record_entry(MethodId::from_index(2), true_depth, capture.clone());
            relative.record_entry(MethodId::from_index(2), true_depth, capture);
        }

        // Concurrent shape: the *shuffled* stream, dealt round-robin over
        // several handles — so both the delivery order and the
        // handle-to-event assignment differ from the reference run.
        let sharded = ShardedCollector::with_config(shards, batch);
        let mut hs: Vec<_> = (0..handles).map(|_| sharded.handle()).collect();
        for (i, &(id, true_depth, depth)) in shuffled.iter().enumerate() {
            hs[i % handles].record_entry(
                MethodId::from_index(2),
                true_depth,
                delta_capture(id, depth),
            );
        }
        drop(hs); // flush every handle's tail

        let merged = sharded.stats();
        prop_assert_eq!(merged.total_contexts, sequential.total_contexts);
        prop_assert_eq!(merged.unique_contexts(), sequential.unique_contexts());
        prop_assert_eq!(merged.max_depth, sequential.max_depth);
        prop_assert_eq!(merged.max_stack_depth, sequential.max_stack_depth);
        prop_assert_eq!(merged.max_ucp, sequential.max_ucp);
        prop_assert_eq!(merged.max_id, sequential.max_id);
        prop_assert!((merged.avg_depth() - sequential.avg_depth()).abs() < 1e-12);
        prop_assert!((merged.avg_stack_depth() - sequential.avg_stack_depth()).abs() < 1e-12);
        prop_assert!((merged.avg_ucp() - sequential.avg_ucp()).abs() < 1e-12);
        // Cross-collector agreement: every entry was a Delta capture, so
        // the relative log collected exactly as many contexts.
        prop_assert_eq!(relative.log.len() as u64, merged.total_contexts);
        prop_assert_eq!(relative.skipped, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The memoized piece and stack caches are transparent: decoding every
    /// captured context through a caching decoder — twice, so the second
    /// pass runs hot — yields exactly the contexts an uncached decoder
    /// produces, and capacity 0 disables both caches.
    #[test]
    fn decode_cache_hits_equal_uncached_decode(config in closed_world_configs()) {
        let program = generate(&config);
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default())
            .expect("plan analysis");
        let mut vm = Vm::new(
            &program,
            VmConfig::default().with_collect(CollectMode::ObservesOnly),
        );
        let mut log = EventLog::default();
        vm.run(&mut DeltaEncoder::new(&plan), &mut log).expect("run");

        let cached = plan.decoder();
        let uncached = Decoder::new(&plan, DecodeOptions {
            piece_cache_capacity: 0,
            ..DecodeOptions::default()
        });
        for _pass in 0..2 {
            for (_, _, capture) in &log.events {
                let Capture::Delta(ctx) = capture else { unreachable!() };
                prop_assert_eq!(
                    cached.decode(ctx).expect("cached decode"),
                    uncached.decode(ctx).expect("uncached decode")
                );
            }
        }
        let (hits, misses) = cached.cache_stats();
        let (u_hits, _) = uncached.cache_stats();
        prop_assert_eq!(u_hits, 0);
        // If the first pass touched any piece, the second pass must have
        // served it from the cache.
        if misses > 0 {
            prop_assert!(hits > 0);
        }
        // Capacity 0 disables the stack cache too: every decode walks
        // every piece below the top frame.
        let events = log.events.len() as u64;
        prop_assert_eq!(uncached.stack_cache_stats(), (0, 2 * events));
        // The second pass finds every stack the first pass decoded.
        let (stack_hits, stack_misses) = cached.stack_cache_stats();
        prop_assert_eq!(stack_hits + stack_misses, 2 * events);
        prop_assert!(stack_hits >= events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Analysis precision ordering on random programs: every Exact dispatch
    /// edge is an RTA edge, and every RTA edge is a CHA edge.
    #[test]
    fn analysis_precision_is_ordered(seed in any::<u64>()) {
        use deltapath::{CallGraph, GraphConfig};
        use std::collections::HashSet;

        let program = generate(&SyntheticConfig {
            name: format!("ord{seed}"),
            seed,
            ..SyntheticConfig::default()
        });
        let edges = |analysis: Analysis| -> HashSet<(deltapath::MethodId, deltapath::MethodId, deltapath::SiteId)> {
            let g = CallGraph::build(&program, &GraphConfig::new(analysis));
            g.edges()
                .iter()
                .map(|e| (g.method_of(e.caller), g.method_of(e.callee), e.site))
                .collect()
        };
        let exact = edges(Analysis::Exact);
        let rta = edges(Analysis::Rta);
        let cha = edges(Analysis::Cha);
        prop_assert!(exact.is_subset(&rta), "Exact ⊆ RTA violated");
        prop_assert!(rta.is_subset(&cha), "RTA ⊆ CHA violated");
    }

    /// Lowering a plan to dense dispatch tables round-trips every site and
    /// entry instruction bit for bit, in both CPT modes, and the image
    /// re-renders the plan's instruction fingerprint exactly.
    #[test]
    fn compiled_plan_round_trips(seed in any::<u64>(), cpt in any::<bool>()) {
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
            prop_assert_eq!(compiled.site_instr(site).as_ref(), Some(instr));
        }
        for (method, instr) in plan.entry_instrs() {
            prop_assert_eq!(compiled.entry_instr(method).as_ref(), Some(instr));
        }
        prop_assert_eq!(compiled.site_count(), plan.site_instrs().count());
        prop_assert_eq!(compiled.entry_count(), plan.entry_instrs().count());
        prop_assert_eq!(
            plan.instruction_fingerprint(),
            compiled.instruction_fingerprint()
        );
    }

    /// Minimal call-path tracking never changes the encoding itself (same
    /// addition values, same anchors) — it only drops tracking operations.
    #[test]
    fn minimal_cpt_preserves_the_encoding(seed in any::<u64>()) {
        let program = generate(&SyntheticConfig {
            name: format!("mincpt{seed}"),
            seed,
            main_loop_iters: 1,
            ..SyntheticConfig::default()
        });
        let full = EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap();
        let minimal = EncodingPlan::analyze(
            &program,
            &PlanConfig::default().with_cpt_minimal(),
        )
        .unwrap();
        prop_assert_eq!(&full.encoding().site_av, &minimal.encoding().site_av);
        prop_assert_eq!(&full.encoding().anchors, &minimal.encoding().anchors);
        // And tracking only ever shrinks.
        for site in program.sites() {
            if let (Some(f), Some(m)) = (full.site(site.id()), minimal.site(site.id())) {
                prop_assert!(f.tracked || !m.tracked);
            }
        }
    }
}
