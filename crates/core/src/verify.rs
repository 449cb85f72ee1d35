//! Exhaustive verification of an encoding plan.
//!
//! The heart of the test suite: enumerate calling contexts of the encoded
//! graph (paths from the roots, with a bounded budget of recursion
//! back-edge traversals), replay each through the real runtime state
//! machine ([`DeltaState`], the one both runtime encoders drive, here over
//! the plan's hash maps), and check the two properties the paper claims:
//!
//! 1. **Round-trip**: decoding the encoded context yields exactly the
//!    original method sequence;
//! 2. **Injectivity**: distinct contexts produce distinct encoded values.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use deltapath_callgraph::{EdgeIx, NodeIx};
use deltapath_ir::MethodId;

use crate::context::EncodedContext;
use crate::error::DecodeError;
use crate::plan::EncodingPlan;
use crate::state::DeltaState;

/// Summary of a successful verification run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Number of contexts enumerated and checked.
    pub contexts: usize,
    /// Number of distinct encoded values (equals `contexts` on success).
    pub unique: usize,
    /// Whether enumeration was truncated by `max_contexts`.
    pub truncated: bool,
}

/// A verification failure, carrying enough context to reproduce it.
#[derive(Clone, Debug)]
pub enum VerifyFailure {
    /// Decoding failed outright.
    Decode {
        /// The failing context.
        context: EncodedContext,
        /// The decoder's error.
        error: DecodeError,
    },
    /// Decoding succeeded but produced the wrong method sequence.
    Mismatch {
        /// The failing context.
        context: EncodedContext,
        /// What the execution actually traversed.
        expected: Vec<MethodId>,
        /// What the decoder returned.
        decoded: Vec<MethodId>,
    },
    /// Two distinct contexts encoded identically.
    Collision {
        /// The shared encoded value.
        context: EncodedContext,
        /// The method sequence of the first context that produced the
        /// value.
        first: Vec<MethodId>,
        /// The method sequence of the second, distinct context that
        /// collided with it.
        second: Vec<MethodId>,
    },
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyFailure::Decode { context, error } => {
                write!(f, "decode of {context} failed: {error}")
            }
            VerifyFailure::Mismatch {
                context,
                expected,
                decoded,
            } => write!(
                f,
                "decode of {context} returned {decoded:?}, expected {expected:?}"
            ),
            VerifyFailure::Collision {
                context,
                first,
                second,
            } => {
                write!(
                    f,
                    "distinct contexts {first:?} and {second:?} both encoded to {context}"
                )
            }
        }
    }
}

impl Error for VerifyFailure {}

/// Enumerates call paths from every root of the plan's graph.
///
/// A path is a sequence of edges; the empty path at each root is included
/// (the root's own context). Each path may traverse at most
/// `back_edge_budget` recursion back edges in total, so recursive cycles are
/// exercised without diverging. Enumeration stops after `max_contexts`
/// paths.
pub fn enumerate_paths(
    plan: &EncodingPlan,
    back_edge_budget: usize,
    max_contexts: usize,
) -> (Vec<(NodeIx, Vec<EdgeIx>)>, bool) {
    let graph = plan.graph();
    let excluded = &plan.encoding().excluded;
    let mut out: Vec<(NodeIx, Vec<EdgeIx>)> = Vec::new();
    let mut truncated = false;

    for &root in graph.roots() {
        // Depth-first enumeration with an explicit stack of (node, path,
        // remaining back-edge budget).
        let mut stack: Vec<(NodeIx, Vec<EdgeIx>, usize)> =
            vec![(root, Vec::new(), back_edge_budget)];
        while let Some((node, path, budget)) = stack.pop() {
            if out.len() >= max_contexts {
                truncated = true;
                break;
            }
            out.push((root, path.clone()));
            for &e in graph.out_edges(node) {
                let is_back = excluded.contains(&e);
                if is_back && budget == 0 {
                    continue;
                }
                let mut next = path.clone();
                next.push(e);
                stack.push((
                    graph.edge(e).callee,
                    next,
                    if is_back { budget - 1 } else { budget },
                ));
            }
        }
        if truncated {
            break;
        }
    }
    (out, truncated)
}

/// Replays `path` (starting at `root`) through the runtime state machine,
/// returning the encoded context and the true method sequence.
pub fn simulate_path(
    plan: &EncodingPlan,
    root: NodeIx,
    path: &[EdgeIx],
) -> (EncodedContext, Vec<MethodId>) {
    let graph = plan.graph();
    let root_method = graph.method_of(root);
    let mut state = DeltaState::start(root_method);
    let mut methods = vec![root_method];
    let mut at = root_method;
    for &e in path {
        let edge = graph.edge(e);
        let callee = graph.method_of(edge.callee);
        state.on_call(plan, edge.site);
        state.on_entry(plan, callee, Some(edge.site));
        methods.push(callee);
        at = callee;
    }
    (state.snapshot(at), methods)
}

/// Runs the full verification: round-trip and injectivity over all
/// enumerated contexts.
///
/// # Errors
///
/// The first [`VerifyFailure`] encountered.
pub fn verify_plan(
    plan: &EncodingPlan,
    back_edge_budget: usize,
    max_contexts: usize,
) -> Result<VerifyReport, VerifyFailure> {
    let (paths, truncated) = enumerate_paths(plan, back_edge_budget, max_contexts);
    let decoder = plan.decoder();
    // Map each encoded value to the method sequence that produced it, so a
    // collision report can name *both* colliding contexts.
    let mut seen: HashMap<EncodedContext, Vec<MethodId>> = HashMap::new();
    for (root, path) in &paths {
        let (context, expected) = simulate_path(plan, *root, path);
        // Injectivity first: when two distinct executions produce the same
        // encoded context, reporting the colliding pair is the root cause —
        // the decode failure that would also occur is only its symptom.
        match seen.entry(context.clone()) {
            std::collections::hash_map::Entry::Occupied(prev) => {
                if prev.get() != &expected {
                    return Err(VerifyFailure::Collision {
                        context,
                        first: prev.get().clone(),
                        second: expected,
                    });
                }
                continue; // Same method sequence again (e.g. via another site order).
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(expected.clone());
            }
        }
        match decoder.decode(&context) {
            Ok(decoded) => {
                if decoded != expected {
                    return Err(VerifyFailure::Mismatch {
                        context,
                        expected,
                        decoded,
                    });
                }
            }
            Err(error) => return Err(VerifyFailure::Decode { context, error }),
        }
    }
    Ok(VerifyReport {
        contexts: paths.len(),
        unique: seen.len(),
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{EncodingPlan, PlanConfig};
    use crate::width::EncodingWidth;
    use deltapath_ir::{MethodKind, Program, ProgramBuilder, Receiver};

    fn verify(p: &Program, config: &PlanConfig) -> VerifyReport {
        let plan = EncodingPlan::analyze(p, config).unwrap();
        verify_plan(&plan, 2, 100_000).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn verifies_virtual_dispatch_program() {
        let mut b = ProgramBuilder::new("v");
        let a = b.add_class("A", None);
        let c1 = b.add_class("C1", Some(a));
        let c2 = b.add_class("C2", Some(a));
        b.method(a, "f", MethodKind::Virtual)
            .body(|f| {
                f.call(a, "leaf");
            })
            .finish();
        b.method(c1, "f", MethodKind::Virtual)
            .body(|f| {
                f.call(a, "leaf");
                f.call(a, "leaf");
            })
            .finish();
        b.method(c2, "f", MethodKind::Virtual).finish();
        b.method(a, "leaf", MethodKind::Static).finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.vcall(a, "f", Receiver::Cycle(vec![a, c1, c2]));
                f.vcall(a, "f", Receiver::Cycle(vec![c1, c2]));
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let report = verify(&p, &PlanConfig::default());
        assert!(report.contexts > 5);
        assert_eq!(report.contexts, report.unique);
        assert!(!report.truncated);
    }

    #[test]
    fn verifies_recursive_program() {
        let mut b = ProgramBuilder::new("rec");
        let c = b.add_class("C", None);
        // Mutual recursion: ping -> pong -> ping, plus a leaf below.
        b.method(c, "leaf", MethodKind::Static).finish();
        b.method(c, "ping", MethodKind::Static)
            .body(|f| {
                f.call(c, "pong");
                f.call(c, "leaf");
            })
            .finish();
        b.method(c, "pong", MethodKind::Static)
            .body(|f| {
                f.call(c, "ping");
            })
            .finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "ping");
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let report = verify(&p, &PlanConfig::default());
        assert!(report.contexts >= 10);
    }

    #[test]
    fn verifies_with_tiny_width_and_anchors() {
        // Wide level-to-level layers force overflow anchors at small widths;
        // round-trip and injectivity must survive the piece subdivision.
        let p = wide_program();
        let cfg = PlanConfig::default().with_width(EncodingWidth::new(3));
        let plan = EncodingPlan::analyze(&p, &cfg).unwrap();
        assert!(plan.encoding().overflow_anchor_count() > 0);
        let report = verify_plan(&plan, 0, 100_000).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.contexts, report.unique);
        assert!(report.contexts > 50);
    }

    /// 6 levels of 2 nodes each, fully connected level-to-level, ending in a
    /// sink: 2^6 contexts at the sink.
    fn wide_program() -> Program {
        let mut b = ProgramBuilder::new("wide");
        let c = b.add_class("C", None);
        b.method(c, "sink", MethodKind::Static).finish();
        // Declare bottom-up so bodies can reference the next level.
        for level in (0..6).rev() {
            for side in 0..2 {
                let name = format!("n_{level}_{side}");
                b.method(c, &name, MethodKind::Static)
                    .body(|f| {
                        if level == 5 {
                            f.call(c, "sink");
                        } else {
                            f.call(c, &format!("n_{}_0", level + 1));
                            f.call(c, &format!("n_{}_1", level + 1));
                        }
                    })
                    .finish();
            }
        }
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "n_0_0");
                f.call(c, "n_0_1");
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn enumeration_respects_max_contexts() {
        let p = wide_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let (paths, truncated) = enumerate_paths(&plan, 0, 10);
        assert_eq!(paths.len(), 10);
        assert!(truncated);
    }
}
