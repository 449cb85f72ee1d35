//! Seeded property tests of the encoding algorithms over randomly generated
//! call graphs (graph-level, independent of the IR and interpreter). Each
//! property checks a fixed number of cases drawn from its own fixed seed
//! (see [`common::check_cases`]).

#[path = "common/algo2_reference.rs"]
mod algo2_reference;
mod common;

use std::collections::{HashMap, HashSet};

use common::check_cases;
use deltapath::callgraph::{back_edges, CallGraph, EdgeIx, NodeIx};
use deltapath::core::{
    Algo1Encoding, Algo2Config, EncodeError, Encoding, EncodingWidth, PcceEncoding,
};
use deltapath::workloads::rng::SplitMix64;
use deltapath::{MethodId, SiteId};

/// A random layered DAG description: `layers[i]` nodes at depth `i`, plus a
/// list of (from-layer-index offsets) edges. Virtual sites group edges.
#[derive(Clone, Debug)]
struct GraphSpec {
    layers: Vec<usize>,
    /// (from_layer, from_ix, to_ix, multi_target): one site per entry; when
    /// `multi_target`, the site also gets an edge to the next node of the
    /// target layer (virtual dispatch).
    calls: Vec<(usize, usize, usize, bool)>,
}

fn graph_spec(rng: &mut SplitMix64) -> GraphSpec {
    let depth = rng.gen_range(2usize..6);
    let layers: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..5)).collect();
    let calls = (0..rng.gen_range(1usize..24))
        .map(|_| {
            (
                rng.gen_range(0..layers.len() - 1),
                rng.gen_range(0usize..16),
                rng.gen_range(0usize..16),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    GraphSpec { layers, calls }
}

/// Materializes a spec into a call graph (edges go layer k -> k+1, so the
/// graph is acyclic by construction).
fn build(spec: &GraphSpec) -> CallGraph {
    let mut g = CallGraph::empty();
    let mut ids: Vec<Vec<NodeIx>> = Vec::new();
    let mut next_method = 0usize;
    for &width in &spec.layers {
        let mut layer = Vec::new();
        for _ in 0..width {
            layer.push(g.add_node(MethodId::from_index(next_method)));
            next_method += 1;
        }
        ids.push(layer);
    }
    // A synthetic root connecting to every layer-0 node keeps everything
    // reachable from a single entry.
    let root = g.add_node(MethodId::from_index(next_method));
    g.set_entry(root);
    let mut next_site = 0usize;
    for &n in &ids[0] {
        g.add_edge(root, n, SiteId::from_index(next_site));
        next_site += 1;
    }
    for &(layer, from, to, multi) in &spec.calls {
        let from = ids[layer][from % ids[layer].len()];
        let targets = &ids[layer + 1];
        let to1 = targets[to % targets.len()];
        let site = SiteId::from_index(next_site);
        next_site += 1;
        g.add_edge(from, to1, site);
        if multi && targets.len() > 1 {
            let to2 = targets[(to + 1) % targets.len()];
            g.add_edge(from, to2, site);
        }
    }
    // Keep everything reachable: orphan nodes get a root edge. (Algorithm 2
    // ignores edges whose caller no anchor can reach — they can never
    // execute — while Algorithm 1 naively processes them; the equivalence
    // holds on the executable subgraph, which full reachability makes the
    // whole graph.)
    for layer in &ids {
        for &n in layer {
            if g.in_edges(n).is_empty() {
                g.add_edge(root, n, SiteId::from_index(next_site));
                next_site += 1;
            }
        }
    }
    g
}

/// Enumerate all root-to-anywhere paths (the graph is small by construction).
fn all_paths(g: &CallGraph) -> Vec<Vec<EdgeIx>> {
    let mut out = Vec::new();
    let mut stack: Vec<(NodeIx, Vec<EdgeIx>)> = g.roots().iter().map(|&r| (r, vec![])).collect();
    while let Some((node, path)) = stack.pop() {
        out.push(path.clone());
        for &e in g.out_edges(node) {
            let mut p = path.clone();
            p.push(e);
            stack.push((g.edge(e).callee, p));
        }
    }
    out
}

/// Algorithm 1's single-AV-per-site encoding is injective per end node,
/// and every encoding lies in [0, ICC[end]).
#[test]
fn algorithm1_is_injective() {
    check_cases(0x11, 256, graph_spec, |spec| {
        let g = build(spec);
        let enc = Algo1Encoding::analyze(&g, &HashSet::new()).unwrap();
        let mut seen: HashMap<(NodeIx, u128), usize> = HashMap::new();
        for path in all_paths(&g) {
            let end = path
                .last()
                .map(|&e| g.edge(e).callee)
                .unwrap_or_else(|| g.entry().unwrap());
            let id = enc.encode_path(&g, &path);
            assert!(id < enc.icc[end.index()].max(1));
            let count = seen.entry((end, id)).or_insert(0);
            *count += 1;
            assert_eq!(*count, 1, "duplicate encoding at {:?} id {}", end, id);
        }
    });
}

/// Without multi-target sites, Algorithm 1's ICC equals PCCE's NC
/// (the paper's observation in Section 3.1).
#[test]
fn icc_equals_nc_without_dispatch() {
    let draw = |rng: &mut SplitMix64| {
        let mut spec = graph_spec(rng);
        for call in &mut spec.calls {
            call.3 = false; // make every site single-target
        }
        spec
    };
    check_cases(0x12, 256, draw, |spec| {
        let g = build(spec);
        let a1 = Algo1Encoding::analyze(&g, &HashSet::new()).unwrap();
        let pcce = PcceEncoding::analyze(&g, &HashSet::new()).unwrap();
        assert_eq!(&a1.icc, &pcce.nc);
    });
}

/// Algorithm 2 at unbounded width with a single root reproduces
/// Algorithm 1 exactly (anchors degenerate to {root}).
#[test]
fn algorithm2_degenerates_to_algorithm1() {
    check_cases(0x13, 256, graph_spec, |spec| {
        let g = build(spec);
        let a1 = Algo1Encoding::analyze(&g, &HashSet::new()).unwrap();
        let a2 = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::UNBOUNDED),
        )
        .unwrap();
        assert_eq!(a2.overflow_anchor_count(), 0);
        let root = g.entry().unwrap();
        for node in g.nodes() {
            let expected = if node == root {
                1
            } else {
                a1.icc[node.index()]
            };
            if expected > 0 {
                assert_eq!(a2.icc_of(node, root), Some(expected));
            }
        }
        for (site, av) in &a1.site_av {
            assert_eq!(a2.site_av.get(site), Some(av));
        }
    });
}

/// Algorithm 2 at any width: per-(node, anchor) encoding sub-ranges are
/// pairwise disjoint — the invariant behind exact decoding (Figure 2).
#[test]
fn algorithm2_subranges_are_disjoint() {
    let draw = |rng: &mut SplitMix64| (graph_spec(rng), rng.gen_range(4u32..64) as u8);
    check_cases(0x14, 256, draw, |(spec, bits)| {
        let g = build(spec);
        let result = Encoding::analyze(
            &g,
            &HashSet::new(),
            &Algo2Config::new(EncodingWidth::new(*bits)),
        );
        let Ok(enc) = result else {
            return; // WidthTooSmall is legitimate at tiny widths
        };
        assert!(enc.max_icc <= EncodingWidth::new(*bits).capacity());
        for node in g.nodes() {
            // Group incoming edges by reaching anchor; per anchor the
            // ranges [av, av + ICC[pred][r]) must not overlap.
            let mut per_anchor: HashMap<NodeIx, Vec<(u128, u128)>> = HashMap::new();
            for &e in g.in_edges(node) {
                let edge = g.edge(e);
                let av = enc.edge_av(&g, e);
                for &r in &enc.eanchors[e.index()] {
                    let Some(icc) = enc.icc_of(edge.caller, r) else {
                        continue;
                    };
                    per_anchor.entry(r).or_default().push((av, av + icc));
                }
            }
            for (r, mut ranges) in per_anchor {
                ranges.sort_unstable();
                for w in ranges.windows(2) {
                    assert!(
                        w[0].1 <= w[1].0,
                        "overlap at node {:?} anchor {:?}: {:?}",
                        node,
                        r,
                        w
                    );
                }
            }
        }
    });
}

/// Recursion never breaks the analysis: adding a random back edge (a
/// cycle) still yields a valid encoding once back edges are excluded.
#[test]
fn back_edges_are_handled() {
    let draw = |rng: &mut SplitMix64| (graph_spec(rng), rng.gen_range(0usize..64));
    check_cases(0x15, 256, draw, |(spec, up)| {
        let mut g = build(spec);
        // Add an upward edge from the last layer to the first to form a
        // cycle.
        let nodes: Vec<NodeIx> = g.nodes().collect();
        let from = nodes[nodes.len() - 2]; // some deep node
        let to = nodes[up % nodes.len()];
        g.add_edge(from, to, SiteId::from_index(90_000));
        let info = back_edges(&g);
        let excluded: HashSet<EdgeIx> = info.back_edges.iter().copied().collect();
        let enc = Encoding::analyze(
            &g,
            &excluded,
            &Algo2Config::new(EncodingWidth::U64).with_forced_anchors(info.headers.clone()),
        );
        assert!(enc.is_ok(), "{enc:?}");
    });
}

/// One configuration of [`algorithm2_matches_the_reference`]: a graph, an
/// optional back edge (excluded, its header forced to an anchor), and the
/// Algorithm 2 knobs.
#[derive(Clone, Debug)]
struct Algo2Case {
    spec: GraphSpec,
    /// Target of a back edge from a deep node, as in `back_edges_are_handled`.
    back_edge_to: Option<usize>,
    bits: u8,
    batch_overflow: bool,
    territory_budget: Option<u64>,
}

fn algo2_case(rng: &mut SplitMix64) -> Algo2Case {
    const WIDTHS: [u8; 8] = [2, 3, 4, 5, 6, 7, 8, 64];
    Algo2Case {
        spec: graph_spec(rng),
        back_edge_to: rng.gen_bool(0.5).then(|| rng.gen_range(0usize..64)),
        bits: WIDTHS[rng.gen_range(0..WIDTHS.len())],
        batch_overflow: rng.gen_bool(0.5),
        territory_budget: rng.gen_bool(0.5).then(|| rng.gen_range(1u64..16)),
    }
}

/// Runs `analyze` on `case`'s graph and configuration.
fn analyze_case(
    case: &Algo2Case,
    analyze: fn(&CallGraph, &HashSet<EdgeIx>, &Algo2Config) -> Result<Encoding, EncodeError>,
) -> Result<Encoding, EncodeError> {
    let mut g = build(&case.spec);
    let mut forced = Vec::new();
    let mut excluded = HashSet::new();
    if let Some(up) = case.back_edge_to {
        let nodes: Vec<NodeIx> = g.nodes().collect();
        g.add_edge(
            nodes[nodes.len() - 2],
            nodes[up % nodes.len()],
            SiteId::from_index(90_000),
        );
        let info = back_edges(&g);
        excluded = info.back_edges.iter().copied().collect();
        forced = info.headers;
    }
    let mut config = Algo2Config::new(EncodingWidth::new(case.bits)).with_forced_anchors(forced);
    if case.batch_overflow {
        config = config.with_batch_overflow();
    }
    if let Some(budget) = case.territory_budget {
        config = config.with_territory_budget(budget);
    }
    analyze(&g, &excluded, &config)
}

/// The library's Algorithm 2 (territory rows with stored callee
/// positions, indexed by the interval walk) produces exactly the
/// reference's `Encoding` (`common/algo2_reference.rs`: per-anchor DFS
/// pushing onto every edge, binary-searched walk) — same anchors from every
/// source, restarts, addition values, ICCs, territory rows and encoding
/// space — or fails the same way, at widths 2–8 and 64, with single and
/// batched overflow handling, with and without a territory budget.
#[test]
fn algorithm2_matches_the_reference() {
    check_cases(0x16, 512, algo2_case, |case| {
        let got = analyze_case(case, Encoding::analyze);
        let want = analyze_case(case, algo2_reference::analyze);
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => {
                assert_eq!(got.err(), want.err(), "one side failed");
                return;
            }
        };
        assert_eq!(got.anchors, want.anchors, "anchors");
        assert_eq!(got.is_anchor, want.is_anchor, "is_anchor");
        assert_eq!(
            got.overflow_anchors, want.overflow_anchors,
            "overflow anchors"
        );
        assert_eq!(got.budget_anchors, want.budget_anchors, "budget anchors");
        assert_eq!(got.restarts, want.restarts, "restarts");
        assert_eq!(got.site_av, want.site_av, "site addition values");
        assert_eq!(got.icc, want.icc, "icc");
        assert_eq!(got.nanchors, want.nanchors, "nanchors");
        assert_eq!(got.eanchors, want.eanchors, "eanchors");
        assert_eq!(got.max_icc, want.max_icc, "max_icc");
        assert_eq!(got.excluded, want.excluded, "excluded");
    });
}
