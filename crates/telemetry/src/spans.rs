//! Hierarchical span profiling: per-thread span stacks, a name-keyed span
//! tree with cross-thread merge, and two exporters — Chrome trace-event
//! JSON (loadable in `chrome://tracing`/Perfetto) and folded-stack
//! flamegraph text (the `inferno`/`flamegraph.pl` input format).
//!
//! The flat [`Telemetry::span`] calls from PR 1 can say *that* a phase took
//! N µs; the types here say *where inside it*. Instrumented code opens and
//! closes spans through [`Telemetry::span_open`]/[`Telemetry::span_close`]
//! (always via the [`ScopedSpan`] guard); the [`SpanProfiler`] sink keeps
//! one [`Lane`] per thread, each maintaining a span stack, a bounded buffer
//! of completed [`SpanEvent`]s (for the Chrome timeline), and a [`SpanTree`]
//! (for aggregation). Trees from all lanes merge keyed by span *name*, so
//! the merged view is independent of thread interleaving — the property the
//! `DELTAPATH_STRESS_THREADS` determinism test pins.
//!
//! The deterministic core ([`Lane`], [`SpanTree`], [`FoldedStacks`]) is
//! driven by explicit timestamps and never reads a clock, which is what
//! makes the Chrome-trace golden test byte-stable; only [`SpanProfiler`]
//! owns an [`Instant`] epoch.
//!
//! [`ScopedSpan`]: crate::sink::ScopedSpan

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::Json;
use crate::sink::{Recorder, Telemetry};

/// Schema identifier embedded in Chrome trace exports.
pub const TRACE_SCHEMA: &str = "deltapath.trace.v2";

/// Default cap on buffered completed events per lane. Aggregation into the
/// span tree is unbounded (fixed size per distinct path); only the
/// timeline buffer is capped so memory stays fixed on long runs.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 14;

// ---------------------------------------------------------------------------
// Span tree
// ---------------------------------------------------------------------------

/// One aggregated node of a [`SpanTree`]: all completed spans with this
/// name under the same parent path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (`""` for the root).
    pub name: String,
    /// Completed spans aggregated into this node.
    pub count: u64,
    /// Total wall time across those spans, nanoseconds (includes child
    /// time; see [`SpanTree::folded`] for self-time).
    pub total_ns: u64,
    children: BTreeMap<String, usize>,
}

impl SpanNode {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            count: 0,
            total_ns: 0,
            children: BTreeMap::new(),
        }
    }
}

/// An arena-allocated tree aggregating spans by *path of names*.
///
/// Node 0 is the unnamed root. Children are name-keyed, so merging two
/// trees (or recording the same path twice) is commutative and
/// deterministic no matter the order threads finished in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
}

impl Default for SpanTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTree {
    /// An empty tree holding only the root.
    pub fn new() -> Self {
        Self {
            nodes: vec![SpanNode::new("")],
        }
    }

    /// The root node index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// The node at `index`.
    pub fn node(&self, index: usize) -> &SpanNode {
        &self.nodes[index]
    }

    /// Number of nodes, root included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds nothing but the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Sorted `(name, index)` children of the node at `index`.
    pub fn children(&self, index: usize) -> impl Iterator<Item = (&str, usize)> {
        self.nodes[index]
            .children
            .iter()
            .map(|(name, &ix)| (name.as_str(), ix))
    }

    /// The child of `parent` named `name`, created empty on first use.
    pub fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&ix) = self.nodes[parent].children.get(name) {
            return ix;
        }
        let ix = self.nodes.len();
        self.nodes.push(SpanNode::new(name));
        self.nodes[parent].children.insert(name.to_owned(), ix);
        ix
    }

    /// Adds `count` completed spans totalling `total_ns` at `path`
    /// (outermost name first), creating intermediate nodes as needed.
    pub fn record_path(&mut self, path: &[&str], count: u64, total_ns: u64) {
        let mut node = self.root();
        for name in path {
            node = self.child_of(node, name);
        }
        if node != self.root() {
            self.nodes[node].count = self.nodes[node].count.saturating_add(count);
            self.nodes[node].total_ns = self.nodes[node].total_ns.saturating_add(total_ns);
        }
    }

    /// Merges `other` into `self`, keyed by span name at every level.
    /// Commutative up to node allocation order, which no accessor exposes:
    /// `merge(a, b)` and `merge(b, a)` produce trees that compare equal
    /// through [`SpanTree::folded`] and path lookups.
    pub fn merge(&mut self, other: &SpanTree) {
        self.merge_node(self.root(), other, other.root());
    }

    fn merge_node(&mut self, into: usize, other: &SpanTree, from: usize) {
        self.nodes[into].count = self.nodes[into]
            .count
            .saturating_add(other.nodes[from].count);
        self.nodes[into].total_ns = self.nodes[into]
            .total_ns
            .saturating_add(other.nodes[from].total_ns);
        let child_names: Vec<(String, usize)> = other.nodes[from]
            .children
            .iter()
            .map(|(n, &ix)| (n.clone(), ix))
            .collect();
        for (name, from_child) in child_names {
            let into_child = self.child_of(into, &name);
            self.merge_node(into_child, other, from_child);
        }
    }

    /// Total time recorded at `path`, or `None` if the path was never
    /// recorded.
    pub fn total_at(&self, path: &[&str]) -> Option<(u64, u64)> {
        let mut node = self.root();
        for name in path {
            node = *self.nodes[node].children.get(*name)?;
        }
        Some((self.nodes[node].count, self.nodes[node].total_ns))
    }

    /// Folds the tree into flamegraph stacks weighted by *self time*
    /// (total minus child time, floored at zero), in nanoseconds. Zero
    /// weight frames are kept when they completed at least once so purely
    /// structural parents still appear in the flamegraph.
    pub fn folded(&self) -> FoldedStacks {
        let mut out = FoldedStacks::new();
        let mut path: Vec<String> = Vec::new();
        self.fold_node(self.root(), &mut path, &mut out);
        out
    }

    fn fold_node(&self, index: usize, path: &mut Vec<String>, out: &mut FoldedStacks) {
        let node = &self.nodes[index];
        if index != self.root() {
            path.push(node.name.clone());
            let child_total: u64 = node
                .children
                .values()
                .map(|&c| self.nodes[c].total_ns)
                .fold(0, u64::saturating_add);
            let self_ns = node.total_ns.saturating_sub(child_total);
            if node.count > 0 || self_ns > 0 {
                let frames: Vec<&str> = path.iter().map(String::as_str).collect();
                out.add_frames(&frames, self_ns);
            }
        }
        for &child in self.nodes[index].children.values() {
            self.fold_node(child, path, out);
        }
        if index != self.root() {
            path.pop();
        }
    }
}

// ---------------------------------------------------------------------------
// Lanes (per-thread recording)
// ---------------------------------------------------------------------------

/// One completed span on a lane's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Start, nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
}

#[derive(Clone, Debug)]
struct OpenSpan {
    node: usize,
    name: String,
    start_ns: u64,
}

/// A single thread's span recorder: a span stack, an aggregation tree and
/// a bounded completed-event buffer.
///
/// Driven entirely by explicit timestamps so tests (and the golden
/// Chrome-trace fixture) are deterministic; [`SpanProfiler`] supplies real
/// clock readings.
#[derive(Clone, Debug)]
pub struct Lane {
    tree: SpanTree,
    stack: Vec<OpenSpan>,
    events: Vec<SpanEvent>,
    capacity: usize,
    dropped: u64,
    unbalanced: u64,
}

impl Default for Lane {
    fn default() -> Self {
        Self::new()
    }
}

impl Lane {
    /// A lane with the default event-buffer capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A lane buffering at most `capacity` completed events (aggregation
    /// into the tree is never dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            tree: SpanTree::new(),
            stack: Vec::new(),
            events: Vec::new(),
            capacity,
            dropped: 0,
            unbalanced: 0,
        }
    }

    /// Opens a span named `name` at `ts_ns` under the currently innermost
    /// open span.
    pub fn open(&mut self, name: &str, ts_ns: u64) {
        let parent = self.stack.last().map_or(self.tree.root(), |s| s.node);
        let node = self.tree.child_of(parent, name);
        self.stack.push(OpenSpan {
            node,
            name: name.to_owned(),
            start_ns: ts_ns,
        });
    }

    /// Closes the innermost open span named `name` at `ts_ns`. Spans left
    /// open above it are closed at the same instant (they missed their
    /// close — typically an instrumentation bug — and are counted in
    /// [`Lane::unbalanced`]); a close with no matching open is ignored and
    /// counted too.
    pub fn close(&mut self, name: &str, ts_ns: u64) {
        let Some(pos) = self.stack.iter().rposition(|s| s.name == name) else {
            self.unbalanced += 1;
            return;
        };
        self.unbalanced += u64::try_from(self.stack.len() - pos - 1).unwrap_or(u64::MAX);
        while self.stack.len() > pos {
            let open = self.stack.pop().expect("stack length checked");
            let depth = self.stack.len();
            self.complete(open, ts_ns, depth);
        }
    }

    /// Records an already-measured flat span (a [`Telemetry::span`] call)
    /// as a completed leaf under the currently innermost open span.
    /// `end_ts_ns` is when the span *finished*.
    pub fn leaf(&mut self, name: &str, duration_ns: u64, end_ts_ns: u64) {
        let parent = self.stack.last().map_or(self.tree.root(), |s| s.node);
        let node = self.tree.child_of(parent, name);
        let open = OpenSpan {
            node,
            name: name.to_owned(),
            start_ns: end_ts_ns.saturating_sub(duration_ns),
        };
        let depth = self.stack.len();
        self.complete(open, end_ts_ns, depth);
    }

    fn complete(&mut self, open: OpenSpan, end_ts_ns: u64, depth: usize) {
        let duration_ns = end_ts_ns.saturating_sub(open.start_ns);
        let node = &mut self.tree.nodes[open.node];
        node.count = node.count.saturating_add(1);
        node.total_ns = node.total_ns.saturating_add(duration_ns);
        if self.events.len() < self.capacity {
            self.events.push(SpanEvent {
                name: open.name,
                start_ns: open.start_ns,
                duration_ns,
                depth,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The aggregation tree (completed spans only).
    pub fn tree(&self) -> &SpanTree {
        &self.tree
    }

    /// Completed events in completion order, oldest first.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Current open-span nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Opens without a matching close (or vice versa) seen so far.
    pub fn unbalanced(&self) -> u64 {
        self.unbalanced
    }
}

// ---------------------------------------------------------------------------
// Folded stacks
// ---------------------------------------------------------------------------

/// Flamegraph folded-stack format: one `frame;frame;frame weight` line per
/// distinct stack, the input format of `inferno` / `flamegraph.pl`.
///
/// Weights for identical stacks accumulate; rendering is sorted by stack,
/// so output is deterministic and [`FoldedStacks::parse`] round-trips
/// [`FoldedStacks::render`] exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FoldedStacks {
    stacks: BTreeMap<String, u64>,
}

/// A malformed folded-stack line, reported by [`FoldedStacks::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldedParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for FoldedParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "folded stacks line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FoldedParseError {}

impl FoldedStacks {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight` to the stack `path` (frames already joined with
    /// `';'`). Zero weights still create the line. Only a new stack
    /// allocates its `String`.
    pub fn add(&mut self, path: &str, weight: u64) {
        match self.stacks.get_mut(path) {
            Some(slot) => *slot = slot.saturating_add(weight),
            None => {
                self.stacks.insert(path.to_owned(), weight);
            }
        }
    }

    /// Adds `weight` to the stack given as frames, outermost first.
    pub fn add_frames(&mut self, frames: &[&str], weight: u64) {
        self.add(&frames.join(";"), weight);
    }

    /// Accumulates every stack of `other` into `self`.
    pub fn merge(&mut self, other: &FoldedStacks) {
        for (path, &weight) in &other.stacks {
            self.add(path, weight);
        }
    }

    /// The weight of the stack `path`, if it was recorded.
    pub fn get(&self, path: &str) -> Option<u64> {
        self.stacks.get(path).copied()
    }

    /// Sorted `(stack, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.stacks.iter().map(|(p, &w)| (p.as_str(), w))
    }

    /// Number of distinct stacks.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// Whether no stack was recorded.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.stacks
            .values()
            .fold(0, |acc, &w| acc.saturating_add(w))
    }

    /// Renders the folded-stack text: one `stack weight` line per entry,
    /// sorted by stack, trailing newline included (empty string when
    /// empty).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (path, weight) in &self.stacks {
            out.push_str(path);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses folded-stack text (the [`FoldedStacks::render`] format;
    /// blank lines ignored, duplicate stacks accumulate).
    pub fn parse(text: &str) -> Result<Self, FoldedParseError> {
        let mut out = Self::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let Some((path, weight)) = line.rsplit_once(' ') else {
                return Err(FoldedParseError {
                    line: i + 1,
                    message: "missing ' <weight>' suffix".to_owned(),
                });
            };
            if path.is_empty() {
                return Err(FoldedParseError {
                    line: i + 1,
                    message: "empty stack".to_owned(),
                });
            }
            let weight: u64 = weight.parse().map_err(|e| FoldedParseError {
                line: i + 1,
                message: format!("bad weight {weight:?}: {e}"),
            })?;
            out.add(path, weight);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Profiler sink
// ---------------------------------------------------------------------------

/// A frozen view of one lane: its label, completed events and drop count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Stable label (`"main"` for the profiler's creating thread,
    /// `"thread-N"` in registration order otherwise).
    pub label: String,
    /// Completed events, completion order.
    pub events: Vec<SpanEvent>,
    /// Events discarded because the lane buffer was full.
    pub dropped: u64,
    /// Unbalanced open/close pairs observed.
    pub unbalanced: u64,
}

/// A frozen, exportable view of a [`SpanProfiler`]: the cross-thread
/// merged tree plus each lane's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span tree merged across all lanes, keyed by name at every level.
    pub tree: SpanTree,
    /// Per-thread timelines, sorted by label.
    pub lanes: Vec<LaneSnapshot>,
}

impl SpanSnapshot {
    /// Folded flamegraph stacks of the merged tree (self-time weights,
    /// nanoseconds).
    pub fn folded(&self) -> FoldedStacks {
        self.tree.folded()
    }

    /// Renders the snapshot as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto "JSON Array Format"): one `ph:"M"`
    /// thread-name metadata record per lane followed by its `ph:"X"`
    /// complete events, timestamps in fractional microseconds. The schema
    /// tag [`TRACE_SCHEMA`] rides in `otherData`.
    pub fn chrome_trace(&self, process: &str) -> String {
        fn micros(ns: u64) -> Json {
            // Chrome traces use double-precision microseconds; ns / 1000
            // as f64 keeps sub-microsecond spans visible.
            Json::Float(ns as f64 / 1000.0)
        }
        let mut events = Vec::new();
        for (lane_ix, lane) in self.lanes.iter().enumerate() {
            let tid = u64::try_from(lane_ix).unwrap_or(u64::MAX);
            events.push(Json::Obj(vec![
                ("ph".to_owned(), Json::Str("M".to_owned())),
                ("pid".to_owned(), Json::Int(1)),
                ("tid".to_owned(), Json::from_u64(tid)),
                ("name".to_owned(), Json::Str("thread_name".to_owned())),
                (
                    "args".to_owned(),
                    Json::Obj(vec![("name".to_owned(), Json::Str(lane.label.clone()))]),
                ),
            ]));
            for event in &lane.events {
                events.push(Json::Obj(vec![
                    ("ph".to_owned(), Json::Str("X".to_owned())),
                    ("pid".to_owned(), Json::Int(1)),
                    ("tid".to_owned(), Json::from_u64(tid)),
                    ("name".to_owned(), Json::Str(event.name.clone())),
                    ("ts".to_owned(), micros(event.start_ns)),
                    ("dur".to_owned(), micros(event.duration_ns)),
                ]));
            }
        }
        Json::Obj(vec![
            (
                "otherData".to_owned(),
                Json::Obj(vec![
                    ("schema".to_owned(), Json::Str(TRACE_SCHEMA.to_owned())),
                    ("process".to_owned(), Json::Str(process.to_owned())),
                ]),
            ),
            ("traceEvents".to_owned(), Json::Arr(events)),
        ])
        .to_json()
    }
}

#[derive(Debug, Default)]
struct LaneTable {
    by_thread: HashMap<ThreadId, usize>,
    lanes: Vec<Lane>,
    labels: Vec<String>,
}

/// A hierarchical [`Telemetry`] sink: metrics and flat spans accumulate in
/// an inner [`Recorder`] exactly as before, while open/close span pairs
/// additionally build one [`Lane`] per calling thread.
///
/// The lane table sits behind one mutex; this sink is meant for profiling
/// runs (planner phases, audits, collector merges), not for per-hook hot
/// paths — those stay on counter sampling (see `profile.hook_ns`).
#[derive(Debug)]
pub struct SpanProfiler {
    epoch: Instant,
    creator: ThreadId,
    inner: Recorder,
    lanes: Mutex<LaneTable>,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProfiler {
    /// A profiler with default lane and trace capacities, its epoch set to
    /// now. The creating thread's lane is labelled `"main"`.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            creator: std::thread::current().id(),
            inner: Recorder::new(),
            lanes: Mutex::new(LaneTable::default()),
        }
    }

    /// The inner metrics recorder (counters, gauges, histograms, flat
    /// trace) — everything a plain [`Recorder`] would have captured.
    pub fn recorder(&self) -> &Recorder {
        &self.inner
    }

    /// Nanoseconds since the profiler was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn with_lane<R>(&self, f: impl FnOnce(&mut Lane) -> R) -> R {
        let mut table = self.lanes.lock().expect("lane table");
        let tid = std::thread::current().id();
        let ix = match table.by_thread.get(&tid) {
            Some(&ix) => ix,
            None => {
                let ix = table.lanes.len();
                let label = if tid == self.creator {
                    "main".to_owned()
                } else {
                    format!("thread-{ix}")
                };
                table.by_thread.insert(tid, ix);
                table.lanes.push(Lane::new());
                table.labels.push(label);
                ix
            }
        };
        f(&mut table.lanes[ix])
    }

    /// Freezes metrics into a [`RunReport`] with the profiler's own
    /// `span.*` health gauges stamped in (lane count, dropped events,
    /// unbalanced open/close pairs). Idempotent: gauges are high-water
    /// marks, so repeated reports don't double-count.
    ///
    /// [`RunReport`]: crate::report::RunReport
    pub fn report(&self, name: &str) -> crate::report::RunReport {
        let snapshot = self.snapshot();
        self.inner.gauge_max(
            crate::names::SPAN_LANES,
            u64::try_from(snapshot.lanes.len()).unwrap_or(u64::MAX),
        );
        let (dropped, unbalanced) = snapshot.lanes.iter().fold((0u64, 0u64), |(d, u), lane| {
            (
                d.saturating_add(lane.dropped),
                u.saturating_add(lane.unbalanced),
            )
        });
        self.inner.gauge_max(crate::names::SPAN_DROPPED, dropped);
        self.inner
            .gauge_max(crate::names::SPAN_UNBALANCED, unbalanced);
        self.inner.report(name)
    }

    /// Freezes the profiler into an exportable [`SpanSnapshot`]: lanes
    /// sorted by label, trees merged by name. Open spans are not counted —
    /// snapshot after the work being profiled has finished.
    pub fn snapshot(&self) -> SpanSnapshot {
        let table = self.lanes.lock().expect("lane table");
        let mut lanes: Vec<(String, &Lane)> = table
            .labels
            .iter()
            .cloned()
            .zip(table.lanes.iter())
            .collect();
        lanes.sort_by(|a, b| a.0.cmp(&b.0));
        let mut tree = SpanTree::new();
        let mut out = Vec::with_capacity(lanes.len());
        for (label, lane) in lanes {
            tree.merge(lane.tree());
            out.push(LaneSnapshot {
                label,
                events: lane.events().to_vec(),
                dropped: lane.dropped(),
                unbalanced: lane.unbalanced(),
            });
        }
        SpanSnapshot { tree, lanes: out }
    }
}

impl Telemetry for SpanProfiler {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.inner.counter_add(name, delta);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.inner.gauge_max(name, value);
    }

    fn observe(&self, name: &str, value: u64) {
        self.inner.observe(name, value);
    }

    fn event(&self, name: &str, attrs: &[(&str, u64)]) {
        self.inner.event(name, attrs);
    }

    fn span(&self, name: &str, duration_ns: u64, attrs: &[(&str, u64)]) {
        self.inner.span(name, duration_ns, attrs);
        let now = self.now_ns();
        self.with_lane(|lane| lane.leaf(name, duration_ns, now));
    }

    fn span_open(&self, name: &str) {
        let now = self.now_ns();
        self.with_lane(|lane| lane.open(name, now));
    }

    fn span_close(&self, name: &str, duration_ns: u64, attrs: &[(&str, u64)]) {
        self.inner.span(name, duration_ns, attrs);
        let now = self.now_ns();
        self.with_lane(|lane| lane.close(name, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::ScopedSpan;

    #[test]
    fn lane_builds_nested_tree_from_timestamps() {
        let mut lane = Lane::new();
        lane.open("plan.analyze", 0);
        lane.open("plan.back_edges", 10);
        lane.close("plan.back_edges", 30);
        lane.open("algo2.analyze", 30);
        lane.close("algo2.analyze", 90);
        lane.close("plan.analyze", 100);

        assert_eq!(lane.depth(), 0);
        assert_eq!(lane.unbalanced(), 0);
        let tree = lane.tree();
        assert_eq!(tree.total_at(&["plan.analyze"]), Some((1, 100)));
        assert_eq!(
            tree.total_at(&["plan.analyze", "plan.back_edges"]),
            Some((1, 20))
        );
        assert_eq!(
            tree.total_at(&["plan.analyze", "algo2.analyze"]),
            Some((1, 60))
        );
        assert_eq!(tree.total_at(&["algo2.analyze"]), None);

        // Self time: 100 total − 20 − 60 = 20 at the parent.
        let folded = tree.folded();
        let lines: Vec<(&str, u64)> = folded.iter().collect();
        assert_eq!(
            lines,
            vec![
                ("plan.analyze", 20),
                ("plan.analyze;algo2.analyze", 60),
                ("plan.analyze;plan.back_edges", 20),
            ]
        );
    }

    #[test]
    fn lane_survives_unbalanced_closes() {
        let mut lane = Lane::new();
        lane.close("never.opened", 5);
        assert_eq!(lane.unbalanced(), 1);
        lane.open("a", 0);
        lane.open("b", 1);
        // Closing "a" force-closes the dangling "b" at the same instant.
        lane.close("a", 10);
        assert_eq!(lane.unbalanced(), 2);
        assert_eq!(lane.depth(), 0);
        assert_eq!(lane.tree().total_at(&["a", "b"]), Some((1, 9)));
        assert_eq!(lane.tree().total_at(&["a"]), Some((1, 10)));
    }

    #[test]
    fn lane_caps_events_but_not_tree() {
        let mut lane = Lane::with_capacity(2);
        for i in 0..5 {
            lane.open("x", i * 10);
            lane.close("x", i * 10 + 1);
        }
        assert_eq!(lane.events().len(), 2);
        assert_eq!(lane.dropped(), 3);
        assert_eq!(lane.tree().total_at(&["x"]), Some((5, 5)));
    }

    #[test]
    fn tree_merge_is_order_independent() {
        let mut a = SpanTree::new();
        a.record_path(&["run", "flush"], 2, 100);
        a.record_path(&["run"], 1, 500);
        let mut b = SpanTree::new();
        b.record_path(&["run", "replay"], 1, 300);
        b.record_path(&["audit"], 4, 40);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.folded(), ba.folded());
        assert_eq!(ab.total_at(&["run"]), Some((1, 500)));
        assert_eq!(ab.total_at(&["run", "flush"]), Some((2, 100)));
        assert_eq!(ab.total_at(&["run", "replay"]), Some((1, 300)));
        assert_eq!(ab.total_at(&["audit"]), Some((4, 40)));
    }

    #[test]
    fn folded_stacks_round_trip_render_parse() {
        let mut f = FoldedStacks::new();
        f.add_frames(&["main", "vm.run"], 120);
        f.add("main;vm.run", 30);
        f.add("main", 7);
        let text = f.render();
        assert_eq!(text, "main 7\nmain;vm.run 150\n");
        let parsed = FoldedStacks::parse(&text).expect("round trip");
        assert_eq!(parsed, f);
        assert_eq!(parsed.total(), 157);
        assert_eq!(parsed.get("main;vm.run"), Some(150));
        assert_eq!(parsed.get("main;vm"), None);

        assert!(FoldedStacks::parse("no-weight\n").is_err());
        assert!(FoldedStacks::parse(" 12\n").is_err());
        assert!(FoldedStacks::parse("a;b twelve\n").is_err());
        assert!(FoldedStacks::parse("\n\n").expect("blank ok").is_empty());
    }

    #[test]
    fn folded_stacks_add_sums_weights_like_a_fresh_entry_per_add() {
        let adds = [
            ("main;a", 3),
            ("main", 0),
            ("main;a", 4),
            ("main;a;b", u64::MAX - 1),
            ("main;a;b", 5),
            ("main", 0),
            ("main;ab", 2),
            ("main;a", 0),
        ];
        let mut f = FoldedStacks::new();
        let mut reference: BTreeMap<String, u64> = BTreeMap::new();
        for (path, weight) in adds {
            f.add(path, weight);
            let slot = reference.entry(path.to_owned()).or_insert(0);
            *slot = slot.saturating_add(weight);
        }
        let weights: Vec<(&str, u64)> = f.iter().collect();
        let expected: Vec<(&str, u64)> = reference.iter().map(|(p, &w)| (p.as_str(), w)).collect();
        assert_eq!(weights, expected);
        assert_eq!(f.get("main"), Some(0), "zero weights still create the line");
        assert_eq!(f.get("main;a;b"), Some(u64::MAX), "weights saturate");
        let rendered: String = reference
            .iter()
            .map(|(p, w)| format!("{p} {w}\n"))
            .collect();
        assert_eq!(f.render(), rendered);
    }

    #[test]
    fn profiler_nests_scoped_spans_and_flat_spans() {
        let p = SpanProfiler::new();
        {
            let outer = ScopedSpan::enter(&p, "outer");
            p.span("leaf", 50, &[]);
            {
                let inner = ScopedSpan::enter(&p, "inner");
                inner.finish(&[("k", 1)]);
            }
            outer.finish(&[]);
        }
        let snap = p.snapshot();
        assert_eq!(snap.lanes.len(), 1);
        assert_eq!(snap.lanes[0].label, "main");
        assert_eq!(snap.lanes[0].unbalanced, 0);
        assert!(snap.tree.total_at(&["outer"]).is_some());
        assert!(snap.tree.total_at(&["outer", "leaf"]).is_some());
        assert!(snap.tree.total_at(&["outer", "inner"]).is_some());
        assert!(snap.tree.total_at(&["inner"]).is_none());
        // The flat trace still captured everything for RunReport export.
        assert_eq!(p.recorder().events().len(), 3);
    }

    #[test]
    fn profiler_merges_worker_lanes_by_name() {
        let p = SpanProfiler::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let span = ScopedSpan::enter(&p, "walk");
                    span.finish(&[]);
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap.lanes.len(), 4);
        let (count, _) = snap.tree.total_at(&["walk"]).expect("merged");
        assert_eq!(count, 4);
    }
}
