//! # deltapath-telemetry
//!
//! The observability substrate for the DeltaPath reproduction: structured
//! tracing, low-overhead metrics and machine-readable run reports, built
//! entirely on `std` (the offline build environment cannot fetch crates,
//! and the hot paths being measured cannot afford a heavyweight stack).
//!
//! Four layers:
//!
//! * **Metrics** ([`Counter`], [`MaxGauge`], [`Log2Histogram`]) — atomic,
//!   lock-free, saturating primitives cheap enough for always-on use.
//! * **Trace** ([`EventTrace`]) — a bounded ring buffer of spans and point
//!   events with monotonic sequence numbers and a dropped-events counter,
//!   so memory stays fixed no matter how long a run goes.
//! * **Sink** ([`Telemetry`]) — the trait instrumented code talks to.
//!   [`NullTelemetry`] keeps the uninstrumented path at zero cost (its
//!   `enabled()` gate lets callers skip clocks and name formatting);
//!   [`Recorder`] accumulates everything in memory.
//! * **Export** ([`RunReport`]) — a frozen snapshot with a stable schema
//!   ([`RUN_REPORT_SCHEMA`]) that serializes to JSON or JSON lines via a
//!   hand-rolled [`Json`] value that round-trips `u64` exactly.
//!
//! # Example
//!
//! ```
//! use deltapath_telemetry::{Recorder, RunReport, ScopedSpan, Telemetry};
//!
//! let sink = Recorder::new();
//! let span = ScopedSpan::enter(&sink, "vm.run");
//! sink.counter_add("ops.delta.adds", 3);
//! sink.gauge_max("encoder.delta.stack_hwm", 12);
//! span.finish(&[("calls", 3)]);
//!
//! let report = sink.report("example").with_meta("encoder", "delta");
//! let parsed = RunReport::from_json(&report.to_json())?;
//! assert_eq!(parsed.counter("ops.delta.adds"), Some(3));
//! assert_eq!(parsed, report);
//! # Ok::<(), deltapath_telemetry::ReportError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
pub mod names;
mod report;
mod sink;
pub mod spans;
mod trace;

pub use json::{Json, JsonError};
pub use metrics::{log2_bucket, log2_bucket_limit, Counter, Log2Histogram, MaxGauge, LOG2_BUCKETS};
pub use report::{
    HistogramSnapshot, ReportError, RunReport, DIFF_REPORT_SCHEMA, LINT_REPORT_SCHEMA,
    RUN_REPORT_SCHEMA,
};
pub use sink::{NullTelemetry, Recorder, ScopedSpan, Telemetry};
pub use spans::{
    FoldedParseError, FoldedStacks, Lane, LaneSnapshot, SpanEvent, SpanNode, SpanProfiler,
    SpanSnapshot, SpanTree, DEFAULT_LANE_CAPACITY, TRACE_SCHEMA,
};
pub use trace::{EventTrace, TraceEvent, DEFAULT_TRACE_CAPACITY};
