//! # deltapath-core
//!
//! The DeltaPath calling-context encoding algorithms (CGO 2014).
//!
//! A *calling context* is the sequence of active invocations leading to a
//! program point. DeltaPath represents it as a small integer ID maintained
//! with one addition per call and one subtraction per return, plus a shallow
//! stack — and, unlike probabilistic approaches, every encoding decodes back
//! to the exact context.
//!
//! The crate provides, bottom-up:
//!
//! * [`PcceEncoding`] — the PCCE baseline (per-edge addition values;
//!   Section 2 of the paper, Figure 1);
//! * [`Algo1Encoding`] — Algorithm 1: a *single* addition value per call
//!   site under virtual dispatch, via candidate addition values and inflated
//!   calling-context counts (Section 3.1, Figures 2–4);
//! * [`Encoding`] — Algorithm 2: anchor nodes dividing long contexts into
//!   integer-sized pieces, per-anchor territories, and the
//!   overflow-triggered restart loop (Section 3.2, Figure 5);
//! * [`SidTable`] — call-path-tracking set identifiers that detect
//!   *hazardous unexpected call paths* from dynamically loaded or excluded
//!   code (Section 4.1, Figure 6);
//! * [`EncodingPlan`] — the complete instrumentation image: what to do at
//!   every call site and method entry/exit (consumed by
//!   `deltapath-runtime`);
//! * [`CompiledPlan`] — the plan lowered into dense dispatch tables for
//!   the deployment hot path (one array load per hook, zero hashing);
//! * [`DeltaState`] — the per-thread state machine (ID, stack, pending
//!   expectation, [`StateCounts`]) that the instrumentation hooks drive,
//!   with branchless mask arithmetic over either instruction source: a
//!   [`CompiledPlan`]'s tables or an [`EncodingPlan`]'s hash maps;
//! * [`Decoder`] — precise decoding of encoded contexts, piece by piece;
//! * [`verify`] — exhaustive context enumeration and uniqueness checking
//!   used by the test suite;
//! * [`prune_to_targets`] and [`RelativeLog`] — the pruned- and
//!   relative-encoding extensions (Section 8).
//!
//! # Quickstart
//!
//! ```
//! use deltapath_ir::{MethodKind, ProgramBuilder};
//! use deltapath_core::{EncodingPlan, PlanConfig};
//!
//! // A tiny program: main calls helper twice from two different sites.
//! let mut b = ProgramBuilder::new("quick");
//! let c = b.add_class("Main", None);
//! b.method(c, "helper", MethodKind::Static).finish();
//! let main = b
//!     .method(c, "main", MethodKind::Static)
//!     .body(|f| {
//!         f.call(c, "helper");
//!         f.call(c, "helper");
//!     })
//!     .finish();
//! b.entry(main);
//! let program = b.finish()?;
//!
//! let plan = EncodingPlan::analyze(&program, &PlanConfig::default())?;
//! // The two call sites receive distinct addition values, so the two
//! // contexts `main->helper` are distinguishable.
//! assert_eq!(plan.instrumented_site_count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo1;
mod algo2;
mod context;
mod decode;
mod error;
mod pcce;
mod plan;
mod plan_compiled;
mod plan_io;
mod pruned;
mod relative;
mod rows;
mod sid;
mod state;
pub mod verify;
mod width;

pub use algo1::Algo1Encoding;
pub use algo2::{Algo2Config, Encoding};
pub use context::{EncodedContext, FastHasher, Frame, FrameStack, FrameTag};
pub use decode::{DecodeOptions, Decoder};
pub use error::{DecodeError, EncodeError};
pub use pcce::PcceEncoding;
pub use plan::{EncodingPlan, EntryInstr, PlanConfig, SiteInstr};
pub use plan_compiled::CompiledPlan;
pub use plan_io::{
    parse_plan, render_plan, render_plan_string, ImportedPlan, PlanParseError, PLAN_SCHEMA,
};
pub use pruned::prune_to_targets;
pub use relative::{RelativeEntry, RelativeLog};
pub use rows::Rows;
pub use sid::{Sid, SidTable};
pub use state::{DeltaState, StateCounts};
pub use width::EncodingWidth;
