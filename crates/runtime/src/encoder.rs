//! The encoder hook interface the interpreter drives.
//!
//! The original system rewrites bytecode so that every call site and method
//! entry/exit executes a few extra instructions. Our interpreter instead
//! invokes the hooks of a [`ContextEncoder`] at exactly those program
//! points; each encoder implements one technique (DeltaPath, PCC, stack
//! walking, …) and meters the abstract operations it would have executed
//! inline, so relative overheads can be compared on equal footing.

use std::sync::Arc;

use deltapath_core::{EncodedContext, StateCounts};
use deltapath_ir::{MethodId, SiteId};
use deltapath_telemetry::Telemetry;

/// A captured calling-context value, as produced by some encoder at an
/// observation point.
///
/// `Capture` is hashable so collectors can count unique contexts uniformly
/// across techniques (the paper's Table 2 "unique contexts" columns).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Capture {
    /// DeltaPath: the precise encoded context (stack + ID).
    Delta(EncodedContext),
    /// Probabilistic calling context: one hash value.
    Pcc(u64),
    /// A walked stack: the method sequence itself (ground truth). Shared
    /// rather than owned so an unchanged shadow stack can be captured many
    /// times without re-cloning it (collectors clone captures freely).
    Walk(Arc<[MethodId]>),
    /// A pointer into a calling-context tree, identified by node index.
    CctNode(usize),
    /// Hybrid PCC+DeltaPath (paper Section 8): the PCC hash of the trunk
    /// prefix plus the DeltaPath encoding of the context below the trunk
    /// boundary.
    Hybrid {
        /// PCC value of the trunk prefix at the boundary crossing.
        trunk_v: u64,
        /// DeltaPath encoding of the part below the trunk.
        ctx: EncodedContext,
    },
    /// The encoder does not capture contexts (native baseline).
    None,
}

/// Abstract operation counts for one encoder over one run.
///
/// The weights in [`CostModel`] convert these into a single overhead figure
/// comparable across techniques.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `ID += av` operations (DeltaPath call sites).
    pub adds: u64,
    /// `ID -= av` operations (DeltaPath returns).
    pub subs: u64,
    /// Hash-mix operations (PCC's `V' = 3V + cs`).
    pub hashes: u64,
    /// Expected-SID saves around calls (call-path tracking).
    pub pending_saves: u64,
    /// SID comparisons at method entries (call-path tracking).
    pub sid_checks: u64,
    /// Encoding-stack pushes (anchors, recursion, hazardous UCPs).
    pub pushes: u64,
    /// Encoding-stack pops at method exits.
    pub pops: u64,
    /// Stack frames visited by stack walking at observation points.
    pub walked_frames: u64,
    /// Calling-context-tree node traversals.
    pub cct_moves: u64,
}

impl OpCounts {
    /// Weighted total cost under `model`, saturating at `u64::MAX`.
    ///
    /// Long sweeps accumulate counts near the integer ceiling (and tests
    /// deliberately construct them); a wrapped total would silently report
    /// a tiny overhead for the most expensive run.
    pub fn cost(&self, model: &CostModel) -> u64 {
        [
            self.adds.saturating_mul(model.add),
            self.subs.saturating_mul(model.sub),
            self.hashes.saturating_mul(model.hash),
            self.pending_saves.saturating_mul(model.pending_save),
            self.sid_checks.saturating_mul(model.sid_check),
            self.pushes.saturating_mul(model.push),
            self.pops.saturating_mul(model.pop),
            self.walked_frames.saturating_mul(model.walk_frame),
            self.cct_moves.saturating_mul(model.cct_move),
        ]
        .into_iter()
        .fold(0u64, u64::saturating_add)
    }
}

/// Emits `counts` into `sink` as `ops.<technique>.<op>` counters — the
/// default body of [`ContextEncoder::report_telemetry`]. All nine op
/// counters are always emitted (zeros included) so a report's counter set
/// is the same for every run of a technique.
pub fn report_op_counts(sink: &dyn Telemetry, technique: &str, counts: &OpCounts) {
    for (op, value) in [
        ("adds", counts.adds),
        ("subs", counts.subs),
        ("hashes", counts.hashes),
        ("pending_saves", counts.pending_saves),
        ("sid_checks", counts.sid_checks),
        ("pushes", counts.pushes),
        ("pops", counts.pops),
        ("walked_frames", counts.walked_frames),
        ("cct_moves", counts.cct_moves),
    ] {
        sink.counter_add(&format!("ops.{technique}.{op}"), value);
    }
}

impl From<&StateCounts> for OpCounts {
    /// The DeltaPath operations a state machine tallied.
    fn from(c: &StateCounts) -> Self {
        Self {
            adds: c.adds,
            subs: c.subs,
            pending_saves: c.pending_saves,
            sid_checks: c.sid_checks,
            pushes: c.pushes,
            pops: c.pops,
            ..Self::default()
        }
    }
}

/// Emits a DeltaPath state machine's tallies into `sink`: the op counters
/// of [`report_op_counts`], plus the `encoder.<technique>.stack_hwm`
/// gauge and the `ucp_detections` and `push_pop_imbalance` counters. Both
/// DeltaPath encoders report through it.
pub(crate) fn report_state_counts(sink: &dyn Telemetry, technique: &str, c: &StateCounts) {
    report_op_counts(sink, technique, &OpCounts::from(c));
    sink.gauge_max(&format!("encoder.{technique}.stack_hwm"), c.stack_hwm);
    sink.counter_add(
        &format!("encoder.{technique}.ucp_detections"),
        c.ucp_detections,
    );
    // A nonzero imbalance means the run ended mid-call-tree (error or
    // abort): pushes without their matching pops.
    sink.counter_add(
        &format!("encoder.{technique}.push_pop_imbalance"),
        c.pushes.saturating_sub(c.pops),
    );
}

/// Per-operation weights, in abstract work units (the same units the IR's
/// `Work` statements burn).
///
/// The defaults reflect instruction counts of the obvious x86 lowering
/// (thread-local load + arithmetic + store, etc.). They are fixed
/// constants, not calibrated against wall-clock measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// `ID += av`: load TL, add, store.
    pub add: u64,
    /// `ID -= av`.
    pub sub: u64,
    /// PCC hash mix `3V + cs`.
    pub hash: u64,
    /// Saving/restoring the expected SID and ID around a call.
    pub pending_save: u64,
    /// SID comparison at entry.
    pub sid_check: u64,
    /// Push (anchor/recursion/UCP) including tag packing.
    pub push: u64,
    /// Pop at exit.
    pub pop: u64,
    /// Visiting one frame during a stack walk.
    pub walk_frame: u64,
    /// Moving to a child/parent in a calling-context tree (hash lookup).
    pub cct_move: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            add: 2,
            sub: 2,
            hash: 4,
            pending_save: 4,
            sid_check: 2,
            push: 8,
            pop: 4,
            walk_frame: 12,
            cct_move: 10,
        }
    }
}

/// The instrumentation hook interface.
///
/// The interpreter invokes the hooks at every call site and method
/// entry/exit — unconditionally, for every technique; the encoder itself
/// decides (from its plan) whether a given site/method is instrumented, just
/// as real injected code simply would not exist at uninstrumented points.
///
/// The token types thread caller-saved state through the VM's native stack,
/// the way real instrumentation keeps saved values in the caller's frame.
pub trait ContextEncoder {
    /// Caller-saved state returned by [`on_call`](Self::on_call) and consumed
    /// by [`on_return`](Self::on_return).
    type CallToken;
    /// Entry state returned by [`on_entry`](Self::on_entry) and consumed by
    /// [`on_exit`](Self::on_exit).
    type EntryToken;

    /// A thread begins executing at `entry` (bootstrap; no entry hook runs
    /// for the entry method itself).
    fn thread_start(&mut self, entry: MethodId);

    /// Before dispatching the call at `site`.
    fn on_call(&mut self, site: SiteId) -> Self::CallToken;

    /// After the call at `site` returned.
    fn on_return(&mut self, site: SiteId, token: Self::CallToken);

    /// At the entry of `method`; `via_site` is the dispatching site.
    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) -> Self::EntryToken;

    /// At the exit of `method`.
    fn on_exit(&mut self, method: MethodId, token: Self::EntryToken);

    /// Captures the current calling-context value at `at`.
    fn observe(&mut self, at: MethodId) -> Capture;

    /// The abstract operations executed so far.
    fn counts(&self) -> OpCounts;

    /// A short technique name for reports (e.g. `"deltapath"`, `"pcc"`).
    fn name(&self) -> &'static str;

    /// Reports this encoder's metrics into `sink`. The VM calls this once
    /// at the end of a run when telemetry is enabled; it is never invoked
    /// on the hot path. The default emits the abstract op counts as
    /// `ops.<technique>.<op>` counters; encoders with richer internal
    /// state (e.g. [`DeltaEncoder`](crate::DeltaEncoder)) extend it.
    fn report_telemetry(&self, sink: &dyn Telemetry) {
        report_op_counts(sink, self.name(), &self.counts());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_weights_apply() {
        let counts = OpCounts {
            adds: 10,
            subs: 10,
            hashes: 5,
            ..OpCounts::default()
        };
        let model = CostModel {
            add: 2,
            sub: 1,
            hash: 3,
            ..CostModel::default()
        };
        assert_eq!(counts.cost(&model), 10 * 2 + 10 + 5 * 3);
    }

    #[test]
    fn cost_saturates_instead_of_wrapping() {
        // Counts adjacent to u64::MAX must pin the total at the ceiling;
        // the old plain `*`/`+` arithmetic wrapped to a near-zero figure
        // in release builds (and panicked in debug).
        let counts = OpCounts {
            adds: u64::MAX - 1,
            subs: u64::MAX,
            walked_frames: u64::MAX / 2,
            ..OpCounts::default()
        };
        assert_eq!(counts.cost(&CostModel::default()), u64::MAX);
        // A single saturated term dominates even with everything else zero.
        let single = OpCounts {
            cct_moves: u64::MAX,
            ..OpCounts::default()
        };
        assert_eq!(single.cost(&CostModel::default()), u64::MAX);
        // Sane counts still produce the exact weighted sum.
        let sane = OpCounts {
            adds: 3,
            pops: 2,
            ..OpCounts::default()
        };
        let model = CostModel::default();
        assert_eq!(sane.cost(&model), 3 * model.add + 2 * model.pop);
    }

    #[test]
    fn op_counts_report_as_counters() {
        use deltapath_telemetry::Recorder;
        let sink = Recorder::new();
        let counts = OpCounts {
            adds: 7,
            pushes: 2,
            ..OpCounts::default()
        };
        report_op_counts(&sink, "demo", &counts);
        let report = sink.report("t");
        assert_eq!(report.counter("ops.demo.adds"), Some(7));
        assert_eq!(report.counter("ops.demo.pushes"), Some(2));
        // Zero-valued ops are present too: stable counter set per run.
        assert_eq!(report.counter("ops.demo.cct_moves"), Some(0));
        assert_eq!(report.counters.len(), 9);
    }

    #[test]
    fn captures_are_hashable_and_distinct() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Capture::Pcc(1));
        set.insert(Capture::Pcc(1));
        set.insert(Capture::Pcc(2));
        set.insert(Capture::None);
        assert_eq!(set.len(), 3);
    }
}
