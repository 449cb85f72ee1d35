//! Correctness checks, run off the clock after the timed passes.
//!
//! The oracle is the `StackWalkEncoder` shadow stack of the same
//! deterministic run, filtered to the methods the plan encodes (the
//! decoder elides unencoded detours, so the filtered stack is exactly what
//! a correct decode returns). Event logs are compared event by event,
//! profiles as folded stacks with their skipped-entry count, and the
//! collection-off workload compares the batched encoder's metered
//! operations and UCP detections with the map-based `DeltaEncoder`
//! reference.

use std::collections::HashMap;

use deltapath_core::EncodingPlan;
use deltapath_ir::{MethodId, Program};
use deltapath_runtime::{
    fold_path, Capture, CollectMode, ContextEncoder, ContextProfile, DeltaEncoder, EventLog,
    NullCollector, StackWalkEncoder,
};
use deltapath_telemetry::FoldedStacks;

use crate::pipeline::{timed_run, Decoded, EventOutcome, Pass};
use crate::workload::Workload;

/// The outcome of the oracle comparison.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Comparisons made.
    pub checked: u64,
    /// Comparisons that disagreed.
    pub mismatches: u64,
    /// Profile entries that failed to decode inside encoded code.
    pub decode_errors: u64,
    /// The first disagreement, for the error message.
    pub first: Option<String>,
}

impl Verdict {
    fn compare(&mut self, equal: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !equal {
            self.mismatches += 1;
            if self.first.is_none() {
                self.first = Some(what());
            }
        }
    }
}

/// Checks `pass` against the oracle.
pub fn check(workload: &Workload, program: &Program, pass: &Pass) -> Result<Verdict, String> {
    let plan =
        EncodingPlan::analyze(program, &workload.plan_config()).map_err(|e| e.to_string())?;
    let encoded = |m: MethodId| plan.graph().node_of(m).is_some();
    let filtered = |stack: &[MethodId]| -> Vec<MethodId> {
        stack.iter().copied().filter(|&m| encoded(m)).collect()
    };
    let mut verdict = Verdict::default();
    match &pass.decoded {
        Decoded::Events(events) => {
            let mut log = EventLog::default();
            timed_run(
                program,
                workload.collect,
                &mut StackWalkEncoder::full(),
                &mut log,
            )?;
            verdict.compare(log.events.len() == events.len(), || {
                format!(
                    "{} events decoded, oracle logged {}",
                    events.len(),
                    log.events.len()
                )
            });
            for (i, ((_, at, capture), outcome)) in log.events.iter().zip(events).enumerate() {
                let Capture::Walk(stack) = capture else {
                    unreachable!("the stack walker captures walks")
                };
                let expected = if encoded(*at) {
                    EventOutcome::Decoded(filtered(stack))
                } else {
                    EventOutcome::Outside
                };
                verdict.compare(*outcome == expected, || {
                    format!("event {i}: decoded {outcome:?}, oracle {expected:?}")
                });
            }
        }
        Decoded::Profile { stacks, skipped } => {
            let mut walk = ContextProfile::new();
            timed_run(
                program,
                CollectMode::Entries,
                &mut StackWalkEncoder::full(),
                &mut walk,
            )?;
            let mut oracle = FoldedStacks::new();
            let mut outside = 0u64;
            for (capture, count) in walk.counts() {
                let Capture::Walk(stack) = capture else {
                    unreachable!("the stack walker captures walks")
                };
                match stack.last() {
                    Some(&at) if encoded(at) => {
                        oracle.add(&fold_path(program, &filtered(stack)), count)
                    }
                    _ => outside += count,
                }
            }
            verdict.decode_errors = skipped.saturating_sub(outside);
            verdict.compare(*skipped == outside, || {
                format!("{skipped} entries skipped, oracle has {outside} outside the plan")
            });
            let decoded_weights: HashMap<&str, u64> = stacks.iter().collect();
            for (stack, weight) in oracle.iter() {
                let decoded = decoded_weights.get(stack).copied();
                verdict.compare(decoded == Some(weight), || {
                    format!("stack {stack}: decoded {decoded:?}, oracle {weight}")
                });
            }
            verdict.compare(stacks.len() == oracle.len(), || {
                format!(
                    "{} decoded stacks, oracle has {}",
                    stacks.len(),
                    oracle.len()
                )
            });
        }
        Decoded::Nothing => {
            let mut reference = DeltaEncoder::new(&plan);
            let (_, stats) = timed_run(
                program,
                workload.collect,
                &mut reference,
                &mut NullCollector,
            )?;
            let counts = reference.counts();
            verdict.compare(counts == pass.counts, || {
                format!("batched {:?}, map-based {counts:?}", pass.counts)
            });
            let ucp = reference.ucp_detections();
            verdict.compare(ucp == pass.ucp_detections, || {
                format!("batched {} UCPs, map-based {ucp}", pass.ucp_detections)
            });
            verdict.compare(stats == pass.stats, || {
                format!("run statistics differ: {stats:?} vs {:?}", pass.stats)
            });
        }
    }
    Ok(verdict)
}
