//! Compiled dispatch-table differential suite: the deployment encoder
//! running over a [`CompiledPlan`](deltapath::CompiledPlan)'s tables,
//! [`BatchedDeltaEncoder`], replayed against the map-based
//! [`DeltaEncoder`] across workloads × scopes × CPT modes × encoding
//! widths. The interpreter is deterministic, so both encoders observe the
//! identical event sequence and must agree on *everything*:
//!
//! * every capture, byte for byte, in execution order (entries and
//!   observes);
//! * the abstract operation counts — the compiled path must not add,
//!   skip, or reorder a single encoding operation;
//! * hazardous-UCP detections, which exercise the fused
//!   `save_pending` / `do_check` bits under dynamic loading;
//! * the plan fingerprint: lowering is read-only, and the lowered image
//!   re-renders the exact instruction section of the plan fingerprint.
//!
//! The static auditor's DP040 check (`audit_compiled`) runs on every
//! lowered image as the instruction-for-instruction round-trip oracle,
//! and every instruction of the plan must survive lowering and re-expand
//! to itself under both CPT modes.

mod common;

use common::{configs, programs, run_log};
use deltapath::{
    audit_compiled, BatchedDeltaEncoder, ContextEncoder, DeltaEncoder, EncodingPlan, PlanConfig,
    ScopeFilter,
};

#[test]
fn compiled_encoder_matches_map_based_everywhere() {
    let mut narrow_exercised = 0usize;
    let mut pairs = 0usize;
    for program in programs() {
        for (label, config) in configs() {
            // Narrow widths may be unencodable for a given shape; that is
            // the analyzer's documented answer, not this suite's subject.
            let Ok(plan) = EncodingPlan::analyze(&program, &config) else {
                continue;
            };
            if config.width.bits() < 32 {
                narrow_exercised += 1;
            }
            let fingerprint_before = plan.fingerprint();
            let compiled = plan.compile();
            let tag = format!("{}/{label}", program.name());

            // Lowering is read-only and instruction-exact.
            assert_eq!(plan.fingerprint(), fingerprint_before, "{tag}");
            assert_eq!(
                plan.instruction_fingerprint(),
                compiled.instruction_fingerprint(),
                "{tag}: lowered image renders different instructions"
            );
            let diags = audit_compiled(&plan, &compiled);
            assert!(diags.is_empty(), "{tag}: DP040 on a fresh image: {diags:?}");

            // Capture-for-capture equality under the deterministic VM.
            let mut map_enc = DeltaEncoder::new(&plan);
            let map_log = run_log(&program, &mut map_enc);
            let mut tab_enc = BatchedDeltaEncoder::new(&compiled);
            let tab_log = run_log(&program, &mut tab_enc);

            assert!(
                !map_log.records.is_empty(),
                "{tag}: workload must collect events"
            );
            assert_eq!(map_log.records, tab_log.records, "{tag}: captures diverged");
            assert_eq!(
                map_enc.counts(),
                tab_enc.counts(),
                "{tag}: operation counts diverged"
            );
            assert_eq!(
                map_enc.ucp_detections(),
                tab_enc.ucp_detections(),
                "{tag}: UCP detections diverged"
            );

            // Running the encoders is read-only on the plan too.
            assert_eq!(plan.fingerprint(), fingerprint_before, "{tag}");
            pairs += 1;
        }
    }
    assert!(pairs >= 30, "the matrix collapsed: only {pairs} pairs ran");
    assert!(
        narrow_exercised > 0,
        "at least one narrow-width (anchor-inserting) plan must be exercised"
    );
}

#[test]
fn compiled_tables_round_trip_every_instruction() {
    for program in programs() {
        for cpt in [true, false] {
            let config = PlanConfig::default()
                .with_scope(ScopeFilter::ApplicationOnly)
                .with_cpt(cpt);
            let plan = EncodingPlan::analyze(&program, &config).expect("plan");
            let compiled = plan.compile();
            assert_eq!(compiled.cpt(), cpt);
            for (site, instr) in plan.site_instrs() {
                assert_eq!(
                    compiled.site_instr(site).as_ref(),
                    Some(instr),
                    "site {site} does not round-trip"
                );
            }
            for (method, instr) in plan.entry_instrs() {
                assert_eq!(
                    compiled.entry_instr(method).as_ref(),
                    Some(instr),
                    "entry {method} does not round-trip"
                );
            }
            assert_eq!(compiled.site_count(), plan.site_instrs().count());
            assert_eq!(compiled.entry_count(), plan.entry_instrs().count());
        }
    }
}
