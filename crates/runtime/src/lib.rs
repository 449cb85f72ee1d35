//! # deltapath-runtime
//!
//! The execution substrate for the DeltaPath reproduction: an interpreter
//! for [`deltapath_ir`] programs with instrumentation hooks at every call
//! site and method entry/exit — the places where the original system's Java
//! agent injects code at class-load time.
//!
//! The interpreter ([`Vm`]) is generic over a [`ContextEncoder`], so every
//! calling-context technique runs over identical executions:
//!
//! * [`NullEncoder`] — the native baseline;
//! * [`DeltaEncoder`] — DeltaPath, driving the one state machine from
//!   `deltapath-core` ([`DeltaState`](deltapath_core::DeltaState)) over
//!   an [`EncodingPlan`](deltapath_core::EncodingPlan)'s hash maps;
//! * [`BatchedDeltaEncoder`] — the same machine over a
//!   [`CompiledPlan`](deltapath_core::CompiledPlan)'s dense dispatch
//!   tables: one array load per hook, no hashing (the deployment hot
//!   path; the map-based encoder is the reference its lowering is
//!   checked against);
//! * [`StackWalkEncoder`] — stack walking (precise but expensive; also the
//!   ground truth for precision experiments);
//! * PCC, Breadcrumbs-lite and the calling-context tree live in
//!   `deltapath-baselines`.
//!
//! Encoders meter their abstract operations ([`OpCounts`]) and a
//! [`CostModel`] turns the counts into overhead comparable across
//! techniques — this is how the paper's Figure 8 throughput comparison is
//! regenerated without a JVM. Any encoder can be wrapped in a
//! [`HookSampler`] to record the latency of 1-in-N call hooks.
//!
//! # Example
//!
//! ```
//! use deltapath_ir::{MethodKind, ProgramBuilder};
//! use deltapath_core::{EncodingPlan, PlanConfig};
//! use deltapath_runtime::{DeltaEncoder, EventLog, Vm, VmConfig};
//!
//! let mut b = ProgramBuilder::new("hello");
//! let c = b.add_class("Main", None);
//! b.method(c, "helper", MethodKind::Static)
//!     .body(|f| {
//!         f.observe(42);
//!     })
//!     .finish();
//! let main = b
//!     .method(c, "main", MethodKind::Static)
//!     .body(|f| {
//!         f.call(c, "helper");
//!     })
//!     .finish();
//! b.entry(main);
//! let program = b.finish()?;
//!
//! let plan = EncodingPlan::analyze(&program, &PlanConfig::default())?;
//! let mut vm = Vm::new(&program, VmConfig::default());
//! let mut encoder = DeltaEncoder::new(&plan);
//! let mut log = EventLog::default();
//! vm.run(&mut encoder, &mut log)?;
//!
//! // The logged encoding decodes to the exact calling context.
//! let deltapath_runtime::Capture::Delta(ctx) = &log.events[0].2 else {
//!     unreachable!()
//! };
//! let context = plan.decoder().decode(ctx)?;
//! assert_eq!(context.len(), 2); // main -> helper
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod collect;
mod encoder;
mod encoders;
mod profile;
mod sampler;
mod vm;

pub use batch::BatchedDeltaEncoder;
pub use collect::{Collector, ContextStats, EventLog, NullCollector, RelativeCollector};
pub use encoder::{report_op_counts, Capture, ContextEncoder, CostModel, OpCounts};
pub use encoders::{DeltaEncoder, NullEncoder, StackWalkEncoder};
pub use profile::{fold_path, ContextProfile};
pub use sampler::HookSampler;
pub use vm::{CollectMode, RunStats, Vm, VmConfig, VmError};
