//! Seeded property tests for the scale pipeline (hand-rolled: the grid of
//! seeds below plays the role a property-testing framework's shrinker
//! would, without the dependency):
//!
//! * **Round-trip** — `parse(render(g))` reproduces `g` exactly, pinned by
//!   [`CallGraph::fingerprint`] *and* by the planning result: a plan built
//!   from the re-imported graph has the identical fingerprint.
//! * **Determinism** — the generator is a pure function of its
//!   [`ScaleConfig`].
//! * **CSR vs reference** — SCC back-edge classification, topological
//!   order and reachability computed over the CSR adjacency agree with
//!   naive reference algorithms run directly on the generator's edge
//!   stream.

use std::collections::HashSet;

use deltapath::callgraph::{
    back_edges, excluded_mask, reachable_from_masked, skeleton_for_graph, topological_order_masked,
    ScopeFilter,
};
use deltapath::workloads::scale::ScaleConfig;
use deltapath::{parse_graph, render_graph_string, EncodingPlan, PlanConfig};

/// The sampled shapes each property is checked over.
const SAMPLES: [usize; 5] = [0, 3, 7, 12, 19];

fn plan_config() -> PlanConfig {
    PlanConfig::default()
        .with_scope(ScopeFilter::All)
        .with_batch_overflow()
}

#[test]
fn render_parse_round_trip_is_exact() {
    for i in SAMPLES {
        let g = ScaleConfig::sampled(i).build_graph();
        let rendered = render_graph_string(&g, "prop");
        let imported = parse_graph(rendered.as_bytes())
            .unwrap_or_else(|e| panic!("sample {i}: re-parse failed: {e}"));
        assert!(imported.warnings.is_empty(), "sample {i}");
        assert_eq!(
            g.fingerprint(),
            imported.graph.fingerprint(),
            "sample {i}: parse(render(g)) must equal g"
        );
        // Rendering is canonical: a second round trip is byte-identical.
        assert_eq!(
            rendered,
            render_graph_string(&imported.graph, "prop"),
            "sample {i}: rendering must be canonical"
        );
    }
}

#[test]
fn round_trip_preserves_the_plan() {
    // Equality of the graph is necessary; equality of the *plan* is the
    // property downstream tools actually rely on.
    for i in [0, 7, 19] {
        let g = ScaleConfig::sampled(i).build_graph();
        let rendered = render_graph_string(&g, "prop");
        let imported = parse_graph(rendered.as_bytes()).expect("re-parse");

        let sk_a = skeleton_for_graph("prop", &g);
        let sk_b = skeleton_for_graph("prop", &imported.graph);
        let plan_a = EncodingPlan::from_graph(&sk_a, g, &plan_config()).expect("plan original");
        let plan_b =
            EncodingPlan::from_graph(&sk_b, imported.graph, &plan_config()).expect("plan imported");
        assert_eq!(
            plan_a.fingerprint(),
            plan_b.fingerprint(),
            "sample {i}: planning the round-tripped graph must be identical"
        );
    }
}

#[test]
fn generator_is_a_pure_function_of_its_config() {
    for i in SAMPLES {
        let cfg = ScaleConfig::sampled(i);
        let a = render_graph_string(&cfg.build_graph(), "det");
        let b = render_graph_string(&cfg.build_graph(), "det");
        assert_eq!(a, b, "sample {i}: build_graph must be deterministic");
        // A different seed must actually change the graph (the stream is
        // not ignoring its RNG).
        let flipped = cfg.seed ^ 1;
        let other = render_graph_string(&cfg.with_seed(flipped).build_graph(), "det");
        assert_ne!(a, other, "sample {i}: the seed must matter");
    }
}

/// The generator's edge stream as a plain edge list — the reference the
/// CSR-backed graph algorithms are checked against.
fn reference_edges(cfg: &ScaleConfig) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    cfg.for_each_edge(
        |caller, callee, _site, _kind| edges.push((caller, callee)),
        |_| {},
    );
    edges
}

#[test]
fn csr_reachability_matches_a_naive_bfs() {
    for i in SAMPLES {
        let cfg = ScaleConfig::sampled(i);
        let g = cfg.build_graph();
        let entry = g.entry().expect("scale graphs have an entry");

        // Naive reference: BFS over the raw edge list.
        let edges = reference_edges(&cfg);
        let mut adj = vec![Vec::new(); g.node_count()];
        for &(u, v) in &edges {
            adj[u].push(v);
        }
        let mut seen = vec![false; g.node_count()];
        let mut queue = std::collections::VecDeque::from([entry.index()]);
        seen[entry.index()] = true;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }

        let mask = vec![false; g.edge_count()];
        let reachable = reachable_from_masked(&g, &[entry], &mask);
        assert_eq!(
            reachable, seen,
            "sample {i}: CSR reachability diverged from the reference BFS"
        );
    }
}

#[test]
fn back_edge_removal_leaves_an_acyclic_graph() {
    for i in SAMPLES {
        let g = ScaleConfig::sampled(i).build_graph();
        let info = back_edges(&g);
        let excluded: HashSet<_> = info.back_edges.iter().copied().collect();
        let mask = excluded_mask(&g, &excluded);

        // Reference Kahn's algorithm over the remaining edges must drain
        // every node — i.e. the masked graph is acyclic.
        let mut indegree = vec![0usize; g.node_count()];
        for (e, edge) in g.edges().iter().enumerate() {
            if !mask[e] {
                indegree[edge.callee.index()] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..g.node_count()).filter(|&n| indegree[n] == 0).collect();
        let mut drained = 0usize;
        while let Some(u) = queue.pop() {
            drained += 1;
            for &e in g.out_edges(deltapath::callgraph::NodeIx::from_index(u)) {
                if mask[e.index()] {
                    continue;
                }
                let v = g.edge(e).callee.index();
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push(v);
                }
            }
        }
        assert_eq!(
            drained,
            g.node_count(),
            "sample {i}: a cycle survived back-edge removal"
        );
    }
}

#[test]
fn topological_order_respects_every_forward_edge() {
    for i in SAMPLES {
        let g = ScaleConfig::sampled(i).build_graph();
        let info = back_edges(&g);
        let excluded: HashSet<_> = info.back_edges.iter().copied().collect();
        let mask = excluded_mask(&g, &excluded);
        let order = topological_order_masked(&g, &mask)
            .unwrap_or_else(|e| panic!("sample {i}: topo failed: {e:?}"));
        assert_eq!(
            order.len(),
            g.node_count(),
            "sample {i}: order must be total"
        );

        let mut pos = vec![usize::MAX; g.node_count()];
        for (p, n) in order.iter().enumerate() {
            pos[n.index()] = p;
        }
        for (e, edge) in g.edges().iter().enumerate() {
            if mask[e] {
                continue;
            }
            assert!(
                pos[edge.caller.index()] < pos[edge.callee.index()],
                "sample {i}: edge {e} violates the topological order"
            );
        }
    }
}
