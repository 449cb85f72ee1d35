//! Failure injection: corrupting an encoded context (bit flips in the ID,
//! shuffled or truncated stacks, stale plans) must surface as a
//! [`DecodeError`] or as a *different valid context* — but a corrupted
//! context must never decode to the original context's methods plus
//! garbage, and no corruption may cause a panic.

use deltapath::workloads::rng::SplitMix64;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Capture, CollectMode, DeltaEncoder, EncodedContext, EncodingPlan, EventLog, Frame, FrameTag,
    MethodId, PlanConfig, SiteId, Vm, VmConfig,
};

fn collected_contexts() -> (deltapath::Program, EncodingPlan, Vec<EncodedContext>) {
    let program = generate(&SyntheticConfig {
        name: "inject".to_owned(),
        seed: 2024,
        layers: 6,
        main_loop_iters: 3,
        recursion_prob: 0.1,
        ..SyntheticConfig::default()
    });
    let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap();
    let mut vm = Vm::new(
        &program,
        VmConfig::default().with_collect(CollectMode::ObservesOnly),
    );
    let mut encoder = DeltaEncoder::new(&plan);
    let mut log = EventLog::default();
    vm.run(&mut encoder, &mut log).unwrap();
    let contexts = log
        .events
        .into_iter()
        .filter_map(|(_, _, c)| match c {
            Capture::Delta(ctx) => Some(ctx),
            _ => None,
        })
        .collect();
    (program, plan, contexts)
}

#[test]
fn id_bit_flips_never_panic_and_never_misdecode_silently() {
    let (_p, plan, contexts) = collected_contexts();
    let decoder = plan.decoder();
    let mut rng = SplitMix64::seed_from_u64(7);
    let mut flips = 0;
    let mut rejected = 0;
    let mut aliased = 0;
    for ctx in contexts.iter().take(200) {
        let original = decoder.decode(ctx).expect("pristine context decodes");
        for _ in 0..4 {
            let mut corrupt = ctx.clone();
            corrupt.id ^= 1 << rng.gen_range(0u32..16);
            if corrupt.id == ctx.id {
                continue;
            }
            flips += 1;
            match decoder.decode(&corrupt) {
                // A flipped ID may coincide with another *valid* context —
                // that is indistinguishable by design (the ID space is
                // dense). The decode only reports the method sequence, so a
                // different ID can even alias the original's *methods* when
                // two call sites connect the same pair of methods; that must
                // stay a rare coincidence, not the common case.
                Ok(decoded) if decoded == original => aliased += 1,
                Ok(_) => {}
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(flips > 100);
    assert!(rejected > 0, "some corruptions must be caught outright");
    assert!(
        aliased * 20 < flips,
        "method-sequence aliasing must be rare ({aliased}/{flips})"
    );
}

#[test]
fn stack_corruption_is_rejected_or_changes_the_result() {
    let (_p, plan, contexts) = collected_contexts();
    let decoder = plan.decoder();
    let deep: Vec<&EncodedContext> = contexts.iter().filter(|c| c.depth() >= 2).collect();
    assert!(!deep.is_empty(), "need multi-frame contexts to corrupt");
    // Each corrupted stack is decoded on the decoder that has already
    // memoized the pristine one, so a stale memo entry would show.
    for ctx in deep.iter().take(50) {
        let original = decoder.decode(ctx).expect("pristine context decodes");
        // Truncate the stack.
        let mut frames = ctx.frames.to_vec();
        frames.pop();
        let truncated = EncodedContext {
            frames: frames.into(),
            ..(*ctx).clone()
        };
        if let Ok(decoded) = decoder.decode(&truncated) {
            assert_ne!(decoded, original);
        }
        // Swap in a bogus saved id.
        let mut frames = ctx.frames.to_vec();
        frames.last_mut().unwrap().saved_id = u64::MAX / 3;
        let bogus = EncodedContext {
            frames: frames.into(),
            ..(*ctx).clone()
        };
        if let Ok(decoded) = decoder.decode(&bogus) {
            assert_ne!(decoded, original);
        }
    }
}

#[test]
fn foreign_frames_are_rejected() {
    let (_p, plan, contexts) = collected_contexts();
    let decoder = plan.decoder();
    let ctx = &contexts[0];
    decoder.decode(ctx).expect("pristine context decodes");
    let pushed = |frame: Frame| {
        let mut frames = ctx.frames.to_vec();
        frames.push(frame);
        EncodedContext {
            frames: frames.into(),
            ..ctx.clone()
        }
    };
    // A frame naming a method that does not exist.
    let foreign = pushed(Frame {
        tag: FrameTag::Anchor,
        node: MethodId::from_index(999_999),
        site: None,
        saved_id: 0,
    });
    assert!(decoder.decode(&foreign).is_err());
    // A UCP frame naming a site that does not exist.
    let bad_site = pushed(Frame {
        tag: FrameTag::Ucp,
        node: ctx.at,
        site: Some(SiteId::from_index(999_999)),
        saved_id: 0,
    });
    assert!(decoder.decode(&bad_site).is_err());
}

#[test]
fn plan_from_different_program_rejects_foreign_contexts() {
    let (_p1, _plan1, contexts) = collected_contexts();
    // A plan over a tiny unrelated program.
    let other = generate(&SyntheticConfig {
        name: "other".to_owned(),
        seed: 1,
        app_families: 1,
        lib_families: 0,
        lib_methods_per_layer: 0,
        layers: 2,
        methods_per_layer: 2,
        cross_scope_prob: 0.0,
        dynamic_subclass_prob: 0.0,
        ..SyntheticConfig::default()
    });
    let other_plan = EncodingPlan::analyze(&other, &PlanConfig::default()).unwrap();
    let decoder = other_plan.decoder();
    let mut errors = 0;
    for ctx in contexts.iter().take(100) {
        if decoder.decode(ctx).is_err() {
            errors += 1;
        }
    }
    assert!(
        errors > 90,
        "foreign contexts must overwhelmingly be rejected ({errors}/100)"
    );
}
