//! # DeltaPath — precise and scalable calling context encoding
//!
//! A Rust reproduction of *"DeltaPath: Precise and Scalable Calling Context
//! Encoding"* (Zeng, Rhee, Zhang, Arora, Jiang, Liu — CGO 2014).
//!
//! A *calling context* — the stack of active invocations leading to a
//! program point — is invaluable for logging, profiling, debugging and
//! anomaly detection, but walking the stack at every event is far too slow.
//! DeltaPath instead maintains a small integer ID with one addition per call
//! and one subtraction per return, such that the ID (together with a shallow
//! stack) *uniquely* identifies the context and can be *decoded* back to the
//! exact method sequence. Unlike its predecessors it supports:
//!
//! * **virtual dispatch** — a single addition value per call site no matter
//!   how many targets it has (Algorithm 1);
//! * **large programs** — automatic *anchor* placement divides contexts into
//!   integer-sized pieces when the context count overflows the encoding
//!   integer (Algorithm 2);
//! * **dynamic class loading and selective scopes** — call-path tracking
//!   detects *unexpected call paths* from code the static analysis never
//!   saw, keeping encodings correct and decodable.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`ir`] | the object-oriented program representation and builder |
//! | [`callgraph`] | CHA/RTA/exact call-graph construction, SCCs, reachability |
//! | [`core`] | the encoding algorithms, plans, runtime state machine, decoder |
//! | [`analysis`] | the static plan auditor: symbolic soundness checks, `DP0xx` lints |
//! | [`runtime`] | the instrumented interpreter, encoder hooks, cost metering |
//! | [`telemetry`] | std-only counters, histograms, event traces, JSON run reports |
//! | [`baselines`] | PCC, Breadcrumbs-lite, calling-context tree |
//! | [`workloads`] | synthetic program generator, SPECjvm-like suite, paper figures |
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use deltapath::{
//!     Capture, CollectMode, DeltaEncoder, EncodingPlan, EventLog, MethodKind, PlanConfig,
//!     ProgramBuilder, Vm, VmConfig,
//! };
//!
//! // 1. Build (or generate, or load) a program.
//! let mut b = ProgramBuilder::new("quickstart");
//! let cls = b.add_class("Main", None);
//! b.method(cls, "work", MethodKind::Static)
//!     .body(|f| {
//!         f.observe(0); // an event whose calling context we want
//!     })
//!     .finish();
//! let main = b
//!     .method(cls, "main", MethodKind::Static)
//!     .body(|f| {
//!         f.call(cls, "work");
//!     })
//!     .finish();
//! b.entry(main);
//! let program = b.finish()?;
//!
//! // 2. Statically analyse it: addition values, anchors, SIDs.
//! let plan = EncodingPlan::analyze(&program, &PlanConfig::default())?;
//!
//! // 3. Run it with DeltaPath instrumentation.
//! let mut vm = Vm::new(&program, VmConfig::default().with_collect(CollectMode::ObservesOnly));
//! let mut encoder = DeltaEncoder::new(&plan);
//! let mut log = EventLog::default();
//! vm.run(&mut encoder, &mut log)?;
//!
//! // 4. Decode the logged encodings back to exact contexts.
//! let Capture::Delta(ctx) = &log.events[0].2 else { unreachable!() };
//! let context = plan.decoder().decode(ctx)?;
//! assert_eq!(context, vec![main, program.class_by_name("Main")
//!     .and_then(|c| program.declared_method(c, program.symbols().lookup("work").unwrap()))
//!     .unwrap()]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use deltapath_analysis as analysis;
pub use deltapath_baselines as baselines;
pub use deltapath_callgraph as callgraph;
pub use deltapath_core as core;
pub use deltapath_ir as ir;
pub use deltapath_runtime as runtime;
pub use deltapath_telemetry as telemetry;
pub use deltapath_workloads as workloads;

pub use deltapath_analysis::{
    audit_compiled, audit_plan, audit_plan_full, audit_plan_with, diff_plans, AuditOptions,
    AuditReport, Diagnostic, LintCode, PlanDiff, Severity,
};
pub use deltapath_baselines::{
    BreadcrumbsDecoder, BreadcrumbsEncoder, CctEncoder, PccEncoder, PccWidth,
};
pub use deltapath_callgraph::{
    parse_graph, render_graph, render_graph_string, Analysis, CallGraph, GraphChangeSet,
    GraphConfig, GraphDiag, GraphDiagCode, GraphStats, ImportError, ImportedGraph, ScopeFilter,
    GRAPH_SCHEMA,
};
pub use deltapath_core::{
    parse_plan, render_plan, render_plan_string, CompiledPlan, DecodeError, DecodeOptions, Decoder,
    DeltaState, EncodeError, EncodedContext, EncodingPlan, EncodingWidth, FastHasher, Frame,
    FrameStack, FrameTag, ImportedPlan, PlanConfig, PlanParseError, Sid, StateCounts, PLAN_SCHEMA,
};
pub use deltapath_ir::{
    skeleton_program, ArgExpr, ClassId, MethodId, MethodKind, Program, ProgramBuilder, Receiver,
    SiteId, SkeletonSite,
};
pub use deltapath_runtime::{
    BatchedDeltaEncoder, Capture, CollectMode, Collector, ContextEncoder, ContextProfile,
    ContextStats, CostModel, DeltaEncoder, EventLog, HookSampler, NullCollector, NullEncoder,
    OpCounts, RunStats, ShardHandle, ShardedCollector, StackWalkEncoder, Vm, VmConfig,
};
pub use deltapath_telemetry::{
    FoldedStacks, HistogramSnapshot, NullTelemetry, Recorder, RunReport, ScopedSpan, SpanProfiler,
    SpanSnapshot, Telemetry,
};
