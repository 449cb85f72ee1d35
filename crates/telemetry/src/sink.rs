//! The [`Telemetry`] sink trait, the zero-cost [`NullTelemetry`] sink and
//! the in-memory [`Recorder`].
//!
//! Instrumented code talks to `&dyn Telemetry` and never knows whether
//! anything is listening. The two shipped implementations sit at the
//! extremes: [`NullTelemetry`] is compiled-out silence (its `enabled()`
//! returns `false`, so callers skip even formatting metric names), and
//! [`Recorder`] accumulates everything into atomic metrics plus a bounded
//! event trace, ready to be exported as a [`RunReport`].
//!
//! [`RunReport`]: crate::report::RunReport

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{Counter, Log2Histogram, MaxGauge};
use crate::trace::{EventTrace, TraceEvent, DEFAULT_TRACE_CAPACITY};

/// A sink for metrics and trace events.
///
/// All methods take `&self`; implementations must be safe to call from
/// multiple threads. Metric names are dot-separated lowercase paths
/// (`"ops.delta.adds"`, `"vm.run_ns"`); the names emitted by this
/// workspace are a stable interface documented in DESIGN.md.
pub trait Telemetry: Send + Sync {
    /// Whether this sink records anything. Hot paths may (and the VM does)
    /// use this to skip measurement work entirely — an implementation
    /// returning `false` promises every other method is a no-op.
    fn enabled(&self) -> bool;

    /// Adds `delta` to the counter `name`.
    fn counter_add(&self, name: &str, delta: u64);

    /// Raises the high-water-mark gauge `name` to `value` if larger.
    fn gauge_max(&self, name: &str, value: u64);

    /// Records `value` into the log2 histogram `name`.
    fn observe(&self, name: &str, value: u64);

    /// Records a point event with structured attributes.
    fn event(&self, name: &str, attrs: &[(&str, u64)]);

    /// Records a completed span: a named piece of work that took
    /// `duration_ns`. Implementations also feed the duration into the
    /// histogram `name` so spans get latency distributions for free.
    fn span(&self, name: &str, duration_ns: u64, attrs: &[(&str, u64)]);

    /// Opens a nested span on the calling thread. Flat sinks (the default)
    /// ignore opens and only see the matching [`Telemetry::span_close`];
    /// hierarchical sinks such as `SpanProfiler` use the open/close pair to
    /// maintain per-thread span stacks. Every `span_open` must be balanced
    /// by a `span_close` with the same name on the same thread ([`ScopedSpan`]
    /// guarantees this even across early returns).
    fn span_open(&self, _name: &str) {}

    /// Closes the innermost open span named `name` on the calling thread.
    /// The default forwards to [`Telemetry::span`], so flat sinks record
    /// nested spans exactly like flat ones.
    fn span_close(&self, name: &str, duration_ns: u64, attrs: &[(&str, u64)]) {
        self.span(name, duration_ns, attrs);
    }
}

/// The no-op sink: records nothing, costs nothing.
///
/// `NullTelemetry::enabled()` is `false`, which instrumented code uses to
/// bypass clocks and name formatting, keeping the uninstrumented hot path
/// identical to a build without telemetry at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {
    fn enabled(&self) -> bool {
        false
    }

    fn counter_add(&self, _name: &str, _delta: u64) {}

    fn gauge_max(&self, _name: &str, _value: u64) {}

    fn observe(&self, _name: &str, _value: u64) {}

    fn event(&self, _name: &str, _attrs: &[(&str, u64)]) {}

    fn span(&self, _name: &str, _duration_ns: u64, _attrs: &[(&str, u64)]) {}
}

/// An in-memory sink that accumulates metrics and buffers trace events.
///
/// Metric storage is a name-keyed registry of [`Arc`]'d atomics: the
/// registry lock is taken only on first touch of a name (and by
/// [`Recorder::counter`]-style accessors, which hand the `Arc` back so
/// steady-state increments are lock-free).
#[derive(Debug, Default)]
pub struct Recorder {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<MaxGauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Log2Histogram>>>,
    trace: EventTrace,
}

impl Recorder {
    /// A recorder with the default trace capacity
    /// ([`DEFAULT_TRACE_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A recorder whose event trace keeps at most `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            trace: EventTrace::with_capacity(capacity),
        }
    }

    /// The counter registered under `name`, created at zero on first use.
    /// Hold the returned `Arc` to increment without touching the registry
    /// again.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The max gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<MaxGauge> {
        let mut map = self.gauges.lock().expect("gauge registry");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Log2Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The event trace backing this recorder.
    pub fn trace(&self) -> &EventTrace {
        &self.trace
    }

    /// Sorted `(name, value)` pairs of every counter.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// Sorted `(name, value)` pairs of every gauge.
    pub fn gauge_values(&self) -> Vec<(String, u64)> {
        self.gauges
            .lock()
            .expect("gauge registry")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// Sorted `(name, (count, sum, buckets))` snapshots of every
    /// histogram.
    #[allow(clippy::type_complexity)]
    pub fn histogram_snapshots(&self) -> Vec<(String, (u64, u64, Vec<(u8, u64)>))> {
        self.histograms
            .lock()
            .expect("histogram registry")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }

    /// A copy of the buffered trace events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }
}

impl Telemetry for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.gauge(name).observe(value);
    }

    fn observe(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    fn event(&self, name: &str, attrs: &[(&str, u64)]) {
        self.trace.push(name, None, attrs);
    }

    fn span(&self, name: &str, duration_ns: u64, attrs: &[(&str, u64)]) {
        self.trace.push(name, Some(duration_ns), attrs);
        self.histogram(name).record(duration_ns);
    }
}

/// RAII guard for *nested* span emission.
///
/// `enter` calls [`Telemetry::span_open`] and starts the clock (only when
/// the sink is enabled); `finish` — or `Drop`, on early return — calls
/// [`Telemetry::span_close`], so the open/close pairing hierarchical sinks
/// rely on can never be unbalanced by a `?`. Against [`NullTelemetry`]
/// both ends reduce to a branch on a `None`.
pub struct ScopedSpan<'a> {
    sink: &'a dyn Telemetry,
    name: &'a str,
    started: Option<Instant>,
}

impl<'a> ScopedSpan<'a> {
    /// Opens the span `name` on `sink` and starts timing (a no-op for
    /// disabled sinks).
    pub fn enter(sink: &'a dyn Telemetry, name: &'a str) -> Self {
        let started = sink.enabled().then(|| {
            sink.span_open(name);
            Instant::now()
        });
        Self {
            sink,
            name,
            started,
        }
    }

    /// Closes the span with structured attributes. Prefer this over
    /// dropping: `Drop` closes the span too, but without attributes.
    pub fn finish(mut self, attrs: &[(&str, u64)]) {
        self.close(attrs);
    }

    fn close(&mut self, attrs: &[(&str, u64)]) {
        if let Some(started) = self.started.take() {
            let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.sink.span_close(self.name, elapsed, attrs);
        }
    }
}

impl Drop for ScopedSpan<'_> {
    fn drop(&mut self) {
        self.close(&[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = NullTelemetry;
        assert!(!sink.enabled());
        sink.counter_add("x", 1);
        sink.gauge_max("x", 1);
        sink.observe("x", 1);
        sink.event("x", &[("a", 1)]);
        sink.span("x", 1, &[]);
    }

    #[test]
    fn recorder_accumulates_by_name() {
        let r = Recorder::new();
        r.counter_add("ops.adds", 3);
        r.counter_add("ops.adds", 4);
        r.counter_add("ops.subs", 1);
        r.gauge_max("stack.hwm", 5);
        r.gauge_max("stack.hwm", 2);
        r.observe("depth", 4);
        r.observe("depth", 1024);
        assert_eq!(
            r.counter_values(),
            vec![("ops.adds".to_owned(), 7), ("ops.subs".to_owned(), 1)]
        );
        assert_eq!(r.gauge_values(), vec![("stack.hwm".to_owned(), 5)]);
        let hists = r.histogram_snapshots();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].1 .0, 2);
        assert_eq!(hists[0].1 .1, 1028);
    }

    #[test]
    fn spans_land_in_trace_and_histogram() {
        let r = Recorder::new();
        r.span("plan.analyze", 1_500, &[("nodes", 10)]);
        r.event("vm.start", &[]);
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "plan.analyze");
        assert_eq!(events[0].duration_ns, Some(1_500));
        assert_eq!(events[1].duration_ns, None);
        assert_eq!(r.histogram("plan.analyze").count(), 1);
    }

    #[test]
    fn arc_handles_stay_live_across_registry_reads() {
        let r = Recorder::new();
        let c = r.counter("hot");
        c.add(10);
        c.add(5);
        assert_eq!(r.counter_values(), vec![("hot".to_owned(), 15)]);
    }

    #[test]
    fn scoped_span_closes_on_finish_and_on_drop() {
        let r = Recorder::new();
        let span = ScopedSpan::enter(&r, "outer");
        span.finish(&[("k", 1)]);
        {
            let _span = ScopedSpan::enter(&r, "dropped");
            // early return path: the guard closes the span with no attrs.
        }
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].attrs, vec![("k".to_owned(), 1)]);
        assert_eq!(events[1].name, "dropped");
        assert!(events[1].attrs.is_empty());
        assert_eq!(r.histogram("dropped").count(), 1);

        // Inert against the null sink: no clock, no records.
        let span = ScopedSpan::enter(&NullTelemetry, "x");
        drop(span);
    }
}
