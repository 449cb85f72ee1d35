//! Collection of captured contexts and dynamic statistics.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use deltapath_core::{FastHasher, RelativeLog};
use deltapath_ir::MethodId;
use deltapath_telemetry::{names, Telemetry};

use crate::encoder::Capture;

/// Receives captured contexts during a run.
pub trait Collector {
    /// Called at the entry of every collected method (see
    /// [`CollectMode`](crate::CollectMode)); `true_depth` is the number of
    /// in-scope frames on the interpreter's real call stack.
    fn record_entry(&mut self, method: MethodId, true_depth: usize, capture: Capture);

    /// Called at every `Observe` statement.
    fn record_observe(&mut self, event: u32, method: MethodId, capture: Capture);

    /// Reports this collector's metrics into `sink`. The VM calls this
    /// once at the end of a run when telemetry is enabled; the default
    /// reports nothing.
    fn report_telemetry(&self, sink: &dyn Telemetry) {
        let _ = sink;
    }
}

/// A collector that drops everything (for pure overhead measurements).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullCollector;

impl Collector for NullCollector {
    fn record_entry(&mut self, _method: MethodId, _true_depth: usize, _capture: Capture) {}
    fn record_observe(&mut self, _event: u32, _method: MethodId, _capture: Capture) {}
}

/// A collector that stores observed events verbatim (for the logging /
/// decoding examples and tests).
///
/// By default the log grows without bound. [`EventLog::bounded`] caps it:
/// once `capacity` events are stored, further observations are counted in
/// [`dropped`](EventLog::dropped) instead of stored (the *earliest* events
/// are the ones kept — a decode log wants the run's head, unlike the
/// flight-recorder tail kept by `deltapath_telemetry::EventTrace`).
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// `(event label, method, capture)` triples in observation order.
    pub events: Vec<(u32, MethodId, Capture)>,
    capacity: Option<usize>,
    dropped: u64,
}

impl EventLog {
    /// An event log that stores at most `capacity` events.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Number of observations discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Collector for EventLog {
    fn record_entry(&mut self, _method: MethodId, _true_depth: usize, _capture: Capture) {}

    fn record_observe(&mut self, event: u32, method: MethodId, capture: Capture) {
        if let Some(cap) = self.capacity {
            if self.events.len() >= cap {
                self.dropped += 1;
                return;
            }
        }
        self.events.push((event, method, capture));
    }

    fn report_telemetry(&self, sink: &dyn Telemetry) {
        sink.counter_add(
            names::COLLECTOR_EVENT_LOG_RECORDED,
            self.events.len() as u64,
        );
        sink.counter_add(names::COLLECTOR_EVENT_LOG_DROPPED, self.dropped);
        // The collector-neutral name external tooling keys on; the
        // `event_log.*` name above is kept for continuity.
        sink.counter_add(names::COLLECTOR_EVENTS_DROPPED, self.dropped);
    }
}

/// A collector that stores DeltaPath captures delta-compressed in a
/// [`RelativeLog`] (the paper's Section 8 relative encoding): successive
/// contexts share most of their stack, so the log stores only the new
/// frames of each.
#[derive(Clone, Debug, Default)]
pub struct RelativeCollector {
    /// The compressed log of entry captures.
    pub log: RelativeLog,
    /// Captures that were not DeltaPath contexts (and were dropped).
    pub skipped: u64,
}

impl Collector for RelativeCollector {
    fn record_entry(&mut self, _method: MethodId, _true_depth: usize, capture: Capture) {
        match capture {
            Capture::Delta(ctx) => self.log.push(&ctx),
            _ => self.skipped += 1,
        }
    }

    fn record_observe(&mut self, _event: u32, _method: MethodId, capture: Capture) {
        if let Capture::Delta(ctx) = capture {
            self.log.push(&ctx);
        }
    }

    fn report_telemetry(&self, sink: &dyn Telemetry) {
        sink.counter_add(names::COLLECTOR_RELATIVE_CONTEXTS, self.log.len() as u64);
        sink.counter_add(
            names::COLLECTOR_RELATIVE_FRAMES_STORED,
            self.log.frames_stored() as u64,
        );
        sink.counter_add(
            names::COLLECTOR_RELATIVE_FRAMES_RAW,
            self.log.frames_raw() as u64,
        );
        sink.counter_add(names::COLLECTOR_RELATIVE_SKIPPED, self.skipped);
    }
}

/// Streaming statistics over entry captures: the paper's Table 2 columns.
#[derive(Clone, Debug, Default)]
pub struct ContextStats {
    /// Total number of collected calling contexts.
    pub total_contexts: u64,
    /// Maximum true context depth (number of in-scope active methods).
    pub max_depth: usize,
    /// Sum of true depths (for the average).
    depth_sum: u64,
    /// Distinct captured values, hashed with the keyless [`FastHasher`]
    /// (the run's own captures, see its docs).
    unique: HashSet<Capture, BuildHasherDefault<FastHasher>>,
    /// Maximum DeltaPath stack depth observed.
    pub max_stack_depth: usize,
    /// Sum of DeltaPath stack depths.
    stack_depth_sum: u64,
    /// Maximum hazardous-UCP count in one context.
    pub max_ucp: usize,
    /// Sum of per-context UCP counts.
    ucp_sum: u64,
    /// Maximum dynamic encoding ID observed.
    pub max_id: u64,
}

impl ContextStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct captured values.
    pub fn unique_contexts(&self) -> usize {
        self.unique.len()
    }

    /// Average true context depth.
    pub fn avg_depth(&self) -> f64 {
        if self.total_contexts == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.total_contexts as f64
        }
    }

    /// Average DeltaPath stack depth.
    pub fn avg_stack_depth(&self) -> f64 {
        if self.total_contexts == 0 {
            0.0
        } else {
            self.stack_depth_sum as f64 / self.total_contexts as f64
        }
    }

    /// Average hazardous-UCP count per context.
    pub fn avg_ucp(&self) -> f64 {
        if self.total_contexts == 0 {
            0.0
        } else {
            self.ucp_sum as f64 / self.total_contexts as f64
        }
    }

    /// Folds `other` into `self`, as if every capture recorded into
    /// `other` had been recorded here instead. Counters and sums add,
    /// maxima take the max, and the distinct-capture sets union — so the
    /// merge is lossless and order-independent, which is what lets
    /// [`ShardedCollector`](crate::ShardedCollector) keep per-shard stats
    /// and still report the exact sequential `ContextStats`.
    pub fn merge(&mut self, other: ContextStats) {
        self.total_contexts += other.total_contexts;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.depth_sum += other.depth_sum;
        self.max_stack_depth = self.max_stack_depth.max(other.max_stack_depth);
        self.stack_depth_sum += other.stack_depth_sum;
        self.max_ucp = self.max_ucp.max(other.max_ucp);
        self.ucp_sum += other.ucp_sum;
        self.max_id = self.max_id.max(other.max_id);
        if self.unique.is_empty() {
            self.unique = other.unique;
        } else {
            self.unique.extend(other.unique);
        }
    }

    fn absorb(&mut self, true_depth: usize, capture: Capture) {
        self.absorb_counts(true_depth, delta_parts(&capture));
        self.unique.insert(capture);
    }

    /// The counter-only half of [`absorb`](Self::absorb): everything
    /// except the distinct-capture set. `delta` carries the
    /// capture-derived values from [`delta_parts`] — splitting them out
    /// lets [`ShardHandle`](crate::ShardHandle) accumulate counters
    /// thread-locally and reuse the derived values of a memoized capture.
    pub(crate) fn absorb_counts(&mut self, true_depth: usize, delta: Option<(usize, usize, u64)>) {
        self.total_contexts += 1;
        self.max_depth = self.max_depth.max(true_depth);
        self.depth_sum += true_depth as u64;
        if let Some((stack_depth, ucp, id)) = delta {
            self.max_stack_depth = self.max_stack_depth.max(stack_depth);
            self.stack_depth_sum += stack_depth as u64;
            self.max_ucp = self.max_ucp.max(ucp);
            self.ucp_sum += ucp as u64;
            self.max_id = self.max_id.max(id);
        }
    }

    /// Adds `capture` to the distinct set without touching counters.
    pub(crate) fn insert_unique(&mut self, capture: Capture) {
        self.unique.insert(capture);
    }
}

/// `(stack depth, UCP count, id)` of a DeltaPath capture, `None` for every
/// other capture kind — the exact values [`ContextStats::absorb_counts`]
/// folds in.
pub(crate) fn delta_parts(capture: &Capture) -> Option<(usize, usize, u64)> {
    match capture {
        Capture::Delta(ctx) => Some((ctx.depth(), ctx.ucp_count(), ctx.id)),
        _ => None,
    }
}

impl Collector for ContextStats {
    fn record_entry(&mut self, _method: MethodId, true_depth: usize, capture: Capture) {
        self.absorb(true_depth, capture);
    }

    fn record_observe(&mut self, _event: u32, _method: MethodId, capture: Capture) {
        // Observation points contribute to uniqueness too, with unknown
        // depth attribution left to entry records.
        self.unique.insert(capture);
    }

    fn report_telemetry(&self, sink: &dyn Telemetry) {
        sink.counter_add(names::COLLECTOR_STATS_CONTEXTS, self.total_contexts);
        sink.counter_add(names::COLLECTOR_STATS_UNIQUE, self.unique_contexts() as u64);
        sink.gauge_max(names::COLLECTOR_STATS_MAX_DEPTH, self.max_depth as u64);
        sink.gauge_max(
            names::COLLECTOR_STATS_MAX_STACK_DEPTH,
            self.max_stack_depth as u64,
        );
        sink.gauge_max(names::COLLECTOR_STATS_MAX_UCP, self.max_ucp as u64);
        sink.gauge_max(names::COLLECTOR_STATS_MAX_ID, self.max_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_core::{EncodedContext, Frame, FrameTag};

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

    #[test]
    fn stats_accumulate() {
        let mut s = ContextStats::new();
        s.record_entry(MethodId::from_index(1), 3, delta_capture(5, 1));
        s.record_entry(MethodId::from_index(1), 5, delta_capture(9, 2));
        s.record_entry(MethodId::from_index(1), 4, delta_capture(5, 1)); // duplicate capture
        assert_eq!(s.total_contexts, 3);
        assert_eq!(s.unique_contexts(), 2);
        assert_eq!(s.max_depth, 5);
        assert!((s.avg_depth() - 4.0).abs() < 1e-9);
        assert_eq!(s.max_stack_depth, 2);
        assert_eq!(s.max_id, 9);
    }

    #[test]
    fn relative_collector_compresses_and_roundtrips() {
        let mut c = RelativeCollector::default();
        for id in 0..50 {
            c.record_entry(MethodId::from_index(1), 2, delta_capture(id, 3));
        }
        c.record_entry(MethodId::from_index(1), 2, Capture::Pcc(1));
        assert_eq!(c.log.len(), 50);
        assert_eq!(c.skipped, 1);
        // All 50 share the same 3-frame stack: stored once.
        assert_eq!(c.log.frames_stored(), 3);
        assert_eq!(c.log.frames_raw(), 150);
        let expanded: Vec<_> = c.log.expand().collect();
        assert_eq!(expanded.len(), 50);
        assert_eq!(expanded[49].id, 49);
    }

    #[test]
    fn event_log_records_observes_only() {
        let mut log = EventLog::default();
        log.record_entry(MethodId::from_index(0), 1, Capture::Pcc(1));
        log.record_observe(7, MethodId::from_index(0), Capture::Pcc(2));
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].0, 7);
    }
}
