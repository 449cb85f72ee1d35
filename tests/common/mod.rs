//! Shared helpers for the integration tests: running a program under
//! DeltaPath and under stack walking (ground truth), comparing the decoded
//! contexts event by event, the encoder differential suites' workload ×
//! configuration matrix, and drawing seeded property-test cases.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use deltapath::workloads::rng::SplitMix64;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Capture, CollectMode, Collector, ContextEncoder, DeltaEncoder, EncodingPlan, EncodingWidth,
    MethodId, PlanConfig, Program, ScopeFilter, StackWalkEncoder, Vm, VmConfig,
};

/// Checks `property` on `cases` inputs drawn by `draw`. Case seeds come
/// from a SplitMix64 stream seeded with the property's fixed `seed`, and
/// each case draws its input from its own case seed, so every run checks
/// the same inputs. A failing case panics with its case seed and the drawn
/// input, after the failing assertion's own message.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn check_cases<T: Debug>(
    seed: u64,
    cases: usize,
    draw: impl Fn(&mut SplitMix64) -> T,
    property: impl Fn(&T),
) {
    let mut seeds = SplitMix64::seed_from_u64(seed);
    for case in 0..cases {
        let case_seed = seeds.next_u64();
        let input = draw(&mut SplitMix64::seed_from_u64(case_seed));
        if catch_unwind(AssertUnwindSafe(|| property(&input))).is_err() {
            panic!("case {case} (case seed {case_seed:#x}) failed on input {input:?}");
        }
    }
}

/// Thread counts to stress: `DELTAPATH_STRESS_THREADS=a,b,c` or the
/// default ladder `2, 4, 8`.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn stress_threads() -> Vec<usize> {
    match std::env::var("DELTAPATH_STRESS_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("DELTAPATH_STRESS_THREADS must be a comma-separated list of counts")
            })
            .collect(),
        Err(_) => vec![2, 4, 8],
    }
}

/// A uniform `f64` in `range` (53 random mantissa bits).
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn gen_f64(rng: &mut SplitMix64, range: Range<f64>) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    range.start + unit * (range.end - range.start)
}

/// The encoder differential suites' workload shapes: two open worlds with
/// dynamic subclass loading and cross-scope calls (UCP recoveries on the
/// hot path) and one closed world (every hook hits a present table slot).
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn programs() -> Vec<Program> {
    let open = |seed: u64| {
        generate(&SyntheticConfig {
            name: format!("matrix{seed}"),
            seed,
            main_loop_iters: 2,
            observe_events: 3,
            ..SyntheticConfig::default()
        })
    };
    let closed = generate(&SyntheticConfig {
        name: "matrix_closed".into(),
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
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn configs() -> Vec<(String, PlanConfig)> {
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

/// Runs `program` once under `encoder`, recording every entry and observe
/// capture in execution order.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn run_log(program: &Program, encoder: &mut impl ContextEncoder) -> CaptureLog {
    let mut log = CaptureLog::default();
    let mut vm = Vm::new(
        program,
        VmConfig::default().with_collect(CollectMode::Entries),
    );
    vm.run(encoder, &mut log).expect("run");
    log
}

/// Records every capture (entries and observes) in execution order.
#[derive(Default)]
pub struct CaptureLog {
    pub records: Vec<(MethodId, Capture)>,
}

impl Collector for CaptureLog {
    fn record_entry(&mut self, method: MethodId, _true_depth: usize, capture: Capture) {
        self.records.push((method, capture));
    }

    fn record_observe(&mut self, _event: u32, method: MethodId, capture: Capture) {
        self.records.push((method, capture));
    }
}

/// The outcome of comparing DeltaPath decodes against walked ground truth.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Events decoded to exactly the walked (plan-filtered) context.
    pub exact: usize,
    /// Events involving code outside the plan (dynamic classes, excluded
    /// scope) where the decode differed or was reported ambiguous — the
    /// paper's benign-UCP imprecision; tolerated but counted.
    pub tolerated: usize,
    /// Events with no out-of-plan code on the stack that failed — real
    /// bugs.
    pub hard_failures: Vec<String>,
}

impl Comparison {
    /// Fraction of events decoded exactly.
    #[allow(dead_code)] // not every integration test consults the ratio
    pub fn exact_fraction(&self) -> f64 {
        let total = self.exact + self.tolerated;
        if total == 0 {
            1.0
        } else {
            self.exact as f64 / total as f64
        }
    }
}

/// Runs `program` once under DeltaPath and once under full stack walking
/// (the interpreter is deterministic, so the two runs see identical events)
/// and checks, for every collected event, that the DeltaPath decode equals
/// the walked stack filtered to plan-instrumented methods.
///
/// Mismatches are tolerated only when the true stack contains a method
/// outside the plan (a dynamically loaded or scope-excluded frame): the SID
/// check can classify such paths as benign when sets were merged
/// transitively — a documented imprecision of the paper's technique, not of
/// this implementation.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn compare_against_ground_truth(program: &Program, plan: &EncodingPlan) -> Comparison {
    let delta_log = run_log(program, &mut DeltaEncoder::new(plan));
    let walk_log = run_log(program, &mut StackWalkEncoder::full());

    assert_eq!(
        delta_log.records.len(),
        walk_log.records.len(),
        "the two runs must observe identical event sequences"
    );

    let decoder = plan.decoder();
    let mut cmp = Comparison::default();
    for ((at_d, cap_d), (at_w, cap_w)) in delta_log.records.iter().zip(&walk_log.records) {
        assert_eq!(at_d, at_w, "event order diverged");
        if plan.entry(*at_d).is_none() {
            // An observation point inside excluded (library/dynamic) code:
            // selective encoding does not instrument it, so there is no
            // context to decode there — the real system would not have
            // injected the probe either.
            continue;
        }
        let Capture::Delta(ctx) = cap_d else {
            unreachable!("delta run captures Delta")
        };
        let Capture::Walk(full_stack) = cap_w else {
            unreachable!("walk run captures Walk")
        };
        let truth: Vec<MethodId> = full_stack
            .iter()
            .copied()
            .filter(|&m| plan.entry(m).is_some())
            .collect();
        let out_of_plan = full_stack.iter().any(|&m| plan.entry(m).is_none());
        match decoder.decode(ctx) {
            Ok(decoded) if decoded == truth => cmp.exact += 1,
            Ok(decoded) => {
                if out_of_plan {
                    cmp.tolerated += 1;
                } else {
                    cmp.hard_failures.push(format!(
                        "at {}: decoded {:?}, truth {:?} (ctx {ctx})",
                        program.method_name(*at_d),
                        decoded,
                        truth
                    ));
                }
            }
            Err(e) => {
                if out_of_plan {
                    cmp.tolerated += 1;
                } else {
                    cmp.hard_failures.push(format!(
                        "at {}: decode error {e} (ctx {ctx}, truth {:?})",
                        program.method_name(*at_d),
                        truth
                    ));
                }
            }
        }
    }
    cmp
}
