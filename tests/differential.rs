//! Cross-encoder differential suite: the same deterministic synthetic
//! workloads replayed through DeltaPath, the PCC / CCT / Breadcrumbs
//! baselines, and a naive shadow-stack oracle (`StackWalkEncoder::full`,
//! which captures the literal call stack at every event). The interpreter
//! is deterministic, so all runs observe the identical event sequence and
//! every encoder's answer can be checked against the oracle event by
//! event:
//!
//! * every DeltaPath encoding — from the map-based reference encoder and
//!   from the batched deployment encoder alike — must *decode* to exactly
//!   the oracle's context, on unpruned plans and on plans pruned to the
//!   observation targets (paper Section 8);
//! * the CCT's `path_of` must reproduce the oracle's stack exactly (it is
//!   precise by construction — just expensive);
//! * PCC must be *consistent* (equal contexts always hash to equal
//!   values) even though distinct contexts may collide — the lossiness
//!   DeltaPath exists to remove;
//! * Breadcrumbs' search-based decoder must never reconstruct a *wrong*
//!   unique path: the true path always reproduces the hash, so the only
//!   acceptable outcomes are the truth, ambiguity, or an exhausted
//!   budget.

mod common;

use std::collections::{HashMap, HashSet};

use common::run_log;
use deltapath::baselines::BreadcrumbsOutcome;
use deltapath::core::prune_to_targets;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Analysis, BatchedDeltaEncoder, BreadcrumbsDecoder, BreadcrumbsEncoder, CallGraph, Capture,
    CctEncoder, CollectMode, ContextEncoder, DeltaEncoder, EncodingPlan, EventLog, GraphConfig,
    MethodId, PccEncoder, PccWidth, PlanConfig, Program, StackWalkEncoder, Vm, VmConfig,
};

/// The differential seeds: three distinct synthetic program shapes.
const SEEDS: [u64; 3] = [11, 42, 1337];

/// A closed-world workload (no library or dynamic code): every encoder
/// sees the whole program, so the oracle's stack needs no plan filtering
/// and DeltaPath must be exact, bit for bit.
fn closed_world(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        name: format!("diff{seed}"),
        seed,
        lib_families: 0,
        lib_methods_per_layer: 0,
        cross_scope_prob: 0.0,
        dynamic_subclass_prob: 0.0,
        main_loop_iters: 2,
        observe_events: 3,
        ..SyntheticConfig::default()
    }
}

/// Runs `program` once under `encoder`, logging the observe events only.
fn observe_log(program: &Program, encoder: &mut impl ContextEncoder) -> EventLog {
    let mut log = EventLog::default();
    let mut vm = Vm::new(
        program,
        VmConfig::default().with_collect(CollectMode::ObservesOnly),
    );
    vm.run(encoder, &mut log).expect("run");
    log
}

/// The oracle's stack at each event, in event order.
fn oracle_stacks(program: &Program) -> Vec<(MethodId, Vec<MethodId>)> {
    run_log(program, &mut StackWalkEncoder::full())
        .records
        .into_iter()
        .map(|(at, capture)| {
            let Capture::Walk(stack) = capture else {
                unreachable!("the oracle captures Walk")
            };
            (at, stack.to_vec())
        })
        .collect()
}

#[test]
fn deltapath_decodes_to_the_oracle_context_unpruned() {
    for seed in SEEDS {
        let program = generate(&closed_world(seed));
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan");
        let compiled = plan.compile();
        let oracle = oracle_stacks(&program);
        assert!(!oracle.is_empty(), "seed {seed}: workload must emit events");

        let decoder = plan.decoder();
        for (encoder, delta) in [
            ("map", run_log(&program, &mut DeltaEncoder::new(&plan))),
            (
                "batched",
                run_log(&program, &mut BatchedDeltaEncoder::new(&compiled)),
            ),
        ] {
            let tag = format!("seed {seed}/{encoder}");
            assert_eq!(oracle.len(), delta.records.len(), "{tag}");
            for ((at_o, truth), (at_d, capture)) in oracle.iter().zip(&delta.records) {
                assert_eq!(at_o, at_d, "{tag}: event order diverged");
                let Capture::Delta(ctx) = capture else {
                    unreachable!("DeltaPath captures Delta")
                };
                let decoded = decoder
                    .decode(ctx)
                    .unwrap_or_else(|e| panic!("{tag}: decode failed at {at_d:?}: {e}"));
                assert_eq!(&decoded, truth, "{tag}: decode diverged at {at_d:?}");
            }
        }
    }
}

#[test]
fn deltapath_decodes_to_the_oracle_context_pruned() {
    for seed in SEEDS {
        let program = generate(&closed_world(seed));

        // Prune to the methods where observation points actually fire.
        let walk_obs = observe_log(&program, &mut StackWalkEncoder::full());
        let targets: Vec<MethodId> = walk_obs
            .events
            .iter()
            .map(|&(_, method, _)| method)
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        assert!(!targets.is_empty(), "seed {seed}: no observation targets");

        let graph = CallGraph::build(&program, &GraphConfig::new(Analysis::Cha));
        let pruned = prune_to_targets(&graph, &targets);
        let plan = EncodingPlan::from_graph(&program, pruned, &PlanConfig::default())
            .expect("pruned plan");

        let compiled = plan.compile();

        let decoder = plan.decoder();
        for (encoder, delta_obs) in [
            ("map", observe_log(&program, &mut DeltaEncoder::new(&plan))),
            (
                "batched",
                observe_log(&program, &mut BatchedDeltaEncoder::new(&compiled)),
            ),
        ] {
            let tag = format!("seed {seed}/{encoder}");
            assert_eq!(walk_obs.events.len(), delta_obs.events.len(), "{tag}");
            for ((ev_o, at_o, cap_o), (ev_d, at_d, cap_d)) in
                walk_obs.events.iter().zip(&delta_obs.events)
            {
                assert_eq!((ev_o, at_o), (ev_d, at_d), "{tag}: events diverged");
                let Capture::Walk(stack) = cap_o else {
                    unreachable!("the oracle captures Walk")
                };
                let Capture::Delta(ctx) = cap_d else {
                    unreachable!("DeltaPath captures Delta")
                };
                // Every ancestor of a target reaches it, so pruning keeps
                // the whole stack; the filter below is the general contract.
                let truth: Vec<MethodId> = stack
                    .iter()
                    .copied()
                    .filter(|&m| plan.entry(m).is_some())
                    .collect();
                let decoded = decoder
                    .decode(ctx)
                    .unwrap_or_else(|e| panic!("{tag}: pruned decode failed: {e}"));
                assert_eq!(decoded, truth, "{tag}: pruned decode diverged");
            }
        }
    }
}

#[test]
fn cct_paths_match_the_oracle() {
    for seed in SEEDS {
        let program = generate(&closed_world(seed));
        let oracle = oracle_stacks(&program);
        let mut cct = CctEncoder::new();
        let log = run_log(&program, &mut cct);
        assert_eq!(oracle.len(), log.records.len(), "seed {seed}");
        for ((at_o, truth), (at_c, capture)) in oracle.iter().zip(&log.records) {
            assert_eq!(at_o, at_c, "seed {seed}: event order diverged");
            let Capture::CctNode(node) = capture else {
                unreachable!("the CCT captures node indices")
            };
            assert_eq!(&cct.path_of(*node), truth, "seed {seed}: CCT diverged");
        }
    }
}

#[test]
fn pcc_is_consistent_per_site_path() {
    for seed in SEEDS {
        let program = generate(&closed_world(seed));
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan");
        // PCC hashes the call-*site* path (two sites in one caller invoking
        // the same callee hash differently despite an identical method
        // stack), so consistency is keyed on the site path. The CCT is the
        // site-path oracle: its children are keyed by `(site, method)`, so
        // a node index uniquely identifies one site path.
        let mut cct = CctEncoder::new();
        let cct_log = run_log(&program, &mut cct);
        let mut pcc_enc = PccEncoder::from_plan(&plan, PccWidth::Bits32);
        let pcc = run_log(&program, &mut pcc_enc);
        assert_eq!(cct_log.records.len(), pcc.records.len(), "seed {seed}");

        // Equal site paths must always hash to equal PCC values…
        let mut value_of: HashMap<usize, u64> = HashMap::new();
        let mut paths_of: HashMap<u64, HashSet<usize>> = HashMap::new();
        for ((_, node_cap), (_, pcc_cap)) in cct_log.records.iter().zip(&pcc.records) {
            let Capture::CctNode(node) = node_cap else {
                unreachable!("the CCT captures node indices")
            };
            let Capture::Pcc(v) = pcc_cap else {
                unreachable!("PCC captures values")
            };
            let prior = value_of.insert(*node, *v);
            assert!(
                prior.is_none_or(|p| p == *v),
                "seed {seed}: one site path, two PCC values"
            );
            paths_of.entry(*v).or_default().insert(*node);
        }
        // …while distinct paths may collide — that is PCC's documented
        // lossiness, and exactly where DeltaPath (asserted exact above)
        // differs. The sanity bound below only rules out the degenerate
        // constant hash.
        let collisions: usize = paths_of
            .values()
            .map(|set| set.len().saturating_sub(1))
            .sum();
        assert!(
            collisions < value_of.len(),
            "seed {seed}: PCC degenerated to a constant"
        );
    }
}

#[test]
fn breadcrumbs_never_decodes_a_wrong_unique_path() {
    // One seed: the search-based decoder is orders of magnitude more
    // expensive than every other decode in this suite.
    let program = generate(&closed_world(SEEDS[0]));
    let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan");
    let oracle = oracle_stacks(&program);
    let mut enc = BreadcrumbsEncoder::from_plan(&plan, PccWidth::Bits32, 4);
    let log = run_log(&program, &mut enc);
    let decoder = BreadcrumbsDecoder::new(&plan, PccWidth::Bits32);

    let mut checked = 0usize;
    for ((at, truth), (_, capture)) in oracle.iter().zip(&log.records).step_by(37).take(12) {
        let Capture::Pcc(v) = capture else {
            unreachable!("Breadcrumbs captures hash values")
        };
        let (outcome, _states) =
            decoder.decode_with_crumbs(*at, *v, enc.cold_sites(), enc.crumbs());
        match outcome {
            BreadcrumbsOutcome::Unique(path) => {
                assert_eq!(
                    &path, truth,
                    "a unique Breadcrumbs decode must be the truth"
                )
            }
            BreadcrumbsOutcome::Ambiguous | BreadcrumbsOutcome::BudgetExhausted => {}
            BreadcrumbsOutcome::NotFound => {
                panic!("the true path always reproduces its own hash (at {at:?})")
            }
        }
        checked += 1;
    }
    assert!(checked > 0, "the sample must cover some events");
}
