//! # deltapath-analysis
//!
//! The static plan auditor: a whole-plan soundness pass over a
//! `(Program, CallGraph, EncodingPlan)` triple that emits structured
//! diagnostics with stable `DP0xx` codes, instead of relying solely on the
//! dynamic path-enumeration verifier (`deltapath_core::verify`), whose
//! coverage is bounded by the context budget.
//!
//! The auditor proves the paper's invariants *symbolically*:
//!
//! * **Algorithm 1** — per `(node, anchor)` pair, the arrival intervals
//!   implied by the addition values partition `[0, ICC)` without overlap,
//!   which is injectivity over every path at once (`DP001`);
//! * **Algorithm 2** — anchor territories (recomputed by an independent
//!   walk) cover every reachable node, and every encoding space fits the
//!   configured width (`DP002`, `DP003`, `DP010`);
//! * **Call-path tracking** — the SID partition matches the co-dispatch
//!   components, so hazardous unexpected call paths cannot slip through a
//!   check site (`DP020`, `DP021`);
//! * **Call-graph hygiene** — unreachable nodes, dead edges and
//!   mis-classified back edges (`DP030`, `DP031`, `DP032`);
//! * **Compiled dispatch tables** — a
//!   [`CompiledPlan`](deltapath_core::CompiledPlan) image agrees
//!   instruction-for-instruction with the plan it was lowered from
//!   (`DP040`; [`audit_compiled`] also catches images held stale across a
//!   re-analysis).
//!
//! Reports serialize to JSON under the `deltapath.lint.v1` schema via the
//! telemetry crate's serializer; the `deltapath lint` CLI subcommand is the
//! user-facing front end.
//!
//! # Example
//!
//! ```
//! use deltapath_analysis::audit_plan;
//! use deltapath_core::{EncodingPlan, PlanConfig};
//! use deltapath_ir::{MethodKind, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new("demo");
//! let c = b.add_class("C", None);
//! b.method(c, "leaf", MethodKind::Static).finish();
//! let main = b
//!     .method(c, "main", MethodKind::Static)
//!     .body(|f| {
//!         f.call(c, "leaf");
//!     })
//!     .finish();
//! b.entry(main);
//! let program = b.finish()?;
//!
//! let plan = EncodingPlan::analyze(&program, &PlanConfig::default())?;
//! let report = audit_plan(&program, &plan);
//! assert!(report.is_clean());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod diag;
mod diff;

pub use audit::{audit_compiled, audit_plan, audit_plan_full, audit_plan_with, AuditOptions};
pub use diag::{AuditReport, Diagnostic, LintCode, Severity};
pub use diff::{diff_plans, PlanDiff};
