//! Change sets between two call graphs.
//!
//! The semantic plan diff (`deltapath-analysis::diff_plans`) reports *which
//! methods moved* between two plans' call graphs as its graph-shape
//! findings (`DP051`). This module computes that set structurally, keyed by
//! [`MethodId`] rather than node index — node indices are an artifact of
//! construction order and two graphs that differ only by insertion order
//! describe the same program.
//!
//! A method is *changed* when it appears in only one of the graphs, when its
//! outgoing adjacency (the multiset of `(callee method, site)` labels)
//! differs, or when it gains or loses a root/UCP/entry designation. Edge
//! differences mark **both** endpoints changed: an edge feeds the callee's
//! arrival intervals and the caller's instruction stream, so both sides'
//! encodings may differ.

use std::collections::BTreeSet;

use deltapath_ir::{MethodId, SiteId};

use crate::graph::CallGraph;

/// The structural difference between two call graphs, keyed by method.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphChangeSet {
    /// Every method whose presence, adjacency or designation differs.
    pub changed_methods: BTreeSet<MethodId>,
    /// Methods present only in the new graph.
    pub added_methods: usize,
    /// Methods present only in the old graph.
    pub removed_methods: usize,
    /// Edges (as `(caller, callee, site)` method triples) only in the new graph.
    pub added_edges: usize,
    /// Edges only in the old graph.
    pub removed_edges: usize,
    /// The root sets differ.
    pub roots_changed: bool,
    /// The graph entry node's method differs.
    pub entry_changed: bool,
    /// The hazardous-UCP candidate sets differ.
    pub ucp_changed: bool,
}

impl GraphChangeSet {
    /// True when the two graphs are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.changed_methods.is_empty()
            && !self.roots_changed
            && !self.entry_changed
            && !self.ucp_changed
    }

    /// Computes the change set from `old` to `new`.
    pub fn between(old: &CallGraph, new: &CallGraph) -> Self {
        let mut cs = GraphChangeSet::default();

        // Presence: methods in exactly one graph are changed.
        for node in old.nodes() {
            let method = old.method_of(node);
            if new.node_of(method).is_none() {
                cs.changed_methods.insert(method);
                cs.removed_methods += 1;
            }
        }
        for node in new.nodes() {
            let method = new.method_of(node);
            if old.node_of(method).is_none() {
                cs.changed_methods.insert(method);
                cs.added_methods += 1;
            }
        }

        // Adjacency: compare each common method's outgoing labels.
        let out_labels = |g: &CallGraph, node| {
            let mut labels: Vec<(MethodId, SiteId)> = g
                .out_edges(node)
                .iter()
                .map(|&e| {
                    let edge = g.edge(e);
                    (g.method_of(edge.callee), edge.site)
                })
                .collect();
            labels.sort_unstable();
            labels
        };
        for old_node in old.nodes() {
            let method = old.method_of(old_node);
            let Some(new_node) = new.node_of(method) else {
                // Every outgoing edge of a removed method is a removed edge,
                // and its callees' in-adjacency changed with it.
                for &e in old.out_edges(old_node) {
                    cs.removed_edges += 1;
                    cs.changed_methods.insert(old.method_of(old.edge(e).callee));
                }
                continue;
            };
            let old_labels = out_labels(old, old_node);
            let new_labels = out_labels(new, new_node);
            if old_labels == new_labels {
                continue;
            }
            cs.changed_methods.insert(method);
            // Both endpoints of every differing label are changed; count the
            // label multiset difference for the summary tallies.
            let mut i = 0;
            let mut j = 0;
            while i < old_labels.len() || j < new_labels.len() {
                match (old_labels.get(i), new_labels.get(j)) {
                    (Some(a), Some(b)) if a == b => {
                        i += 1;
                        j += 1;
                    }
                    (Some(a), Some(b)) if a < b => {
                        cs.removed_edges += 1;
                        cs.changed_methods.insert(a.0);
                        i += 1;
                    }
                    (Some(_), Some(b)) => {
                        cs.added_edges += 1;
                        cs.changed_methods.insert(b.0);
                        j += 1;
                    }
                    (Some(a), None) => {
                        cs.removed_edges += 1;
                        cs.changed_methods.insert(a.0);
                        i += 1;
                    }
                    (None, Some(b)) => {
                        cs.added_edges += 1;
                        cs.changed_methods.insert(b.0);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        for new_node in new.nodes() {
            let method = new.method_of(new_node);
            if old.node_of(method).is_none() {
                for &e in new.out_edges(new_node) {
                    cs.added_edges += 1;
                    cs.changed_methods.insert(new.method_of(new.edge(e).callee));
                }
            }
        }

        // Designations: roots, UCP candidates and the graph entry.
        let methods_of = |g: &CallGraph, nodes: &[crate::graph::NodeIx]| {
            nodes
                .iter()
                .map(|&n| g.method_of(n))
                .collect::<BTreeSet<MethodId>>()
        };
        let old_roots = methods_of(old, old.roots());
        let new_roots = methods_of(new, new.roots());
        if old_roots != new_roots {
            cs.roots_changed = true;
            cs.changed_methods
                .extend(old_roots.symmetric_difference(&new_roots));
        }
        let old_ucp = methods_of(old, old.ucp_entry_candidates());
        let new_ucp = methods_of(new, new.ucp_entry_candidates());
        if old_ucp != new_ucp {
            cs.ucp_changed = true;
            cs.changed_methods
                .extend(old_ucp.symmetric_difference(&new_ucp));
        }
        let old_entry = old.entry().map(|e| old.method_of(e));
        let new_entry = new.entry().map(|e| new.method_of(e));
        if old_entry != new_entry {
            cs.entry_changed = true;
            cs.changed_methods.extend(old_entry);
            cs.changed_methods.extend(new_entry);
        }

        cs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_ir::SiteId;

    fn m(i: usize) -> MethodId {
        MethodId::from_index(i)
    }
    fn s(i: usize) -> SiteId {
        SiteId::from_index(i)
    }

    fn base() -> CallGraph {
        let mut g = CallGraph::empty();
        let a = g.add_node(m(0));
        let b = g.add_node(m(1));
        let c = g.add_node(m(2));
        g.set_entry(a);
        g.add_root(a);
        g.add_edge(a, b, s(0));
        g.add_edge(b, c, s(1));
        g
    }

    #[test]
    fn identical_graphs_have_empty_change_set() {
        let cs = GraphChangeSet::between(&base(), &base());
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut g = CallGraph::empty();
        let c = g.add_node(m(2));
        let b = g.add_node(m(1));
        let a = g.add_node(m(0));
        g.set_entry(a);
        g.add_root(a);
        g.add_edge(b, c, s(1));
        g.add_edge(a, b, s(0));
        let cs = GraphChangeSet::between(&base(), &g);
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn an_added_edge_marks_both_endpoints() {
        let mut g = base();
        let a = g.node_of(m(0)).unwrap();
        let c = g.node_of(m(2)).unwrap();
        g.add_edge(a, c, s(2));
        let cs = GraphChangeSet::between(&base(), &g);
        assert_eq!(cs.added_edges, 1);
        assert_eq!(cs.removed_edges, 0);
        assert_eq!(
            cs.changed_methods.iter().copied().collect::<Vec<_>>(),
            vec![m(0), m(2)]
        );
    }

    #[test]
    fn a_removed_method_marks_its_neighbours() {
        let mut g = CallGraph::empty();
        let a = g.add_node(m(0));
        g.add_node(m(1));
        g.set_entry(a);
        g.add_root(a);
        // Dropped method 2 and with it the edge b->c; b's adjacency changed
        // and a->b survives.
        let b = g.node_of(m(1)).unwrap();
        g.add_edge(a, b, s(0));
        let cs = GraphChangeSet::between(&base(), &g);
        assert_eq!(cs.removed_methods, 1);
        assert_eq!(cs.removed_edges, 1);
        assert!(cs.changed_methods.contains(&m(1)));
        assert!(cs.changed_methods.contains(&m(2)));
        assert!(!cs.changed_methods.contains(&m(0)));
    }

    #[test]
    fn designation_changes_are_tracked() {
        let mut g = base();
        let b = g.node_of(m(1)).unwrap();
        g.add_root(b);
        let cs = GraphChangeSet::between(&base(), &g);
        assert!(cs.roots_changed);
        assert!(cs.changed_methods.contains(&m(1)));
        assert!(!cs.is_empty());
    }
}
