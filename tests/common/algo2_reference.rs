//! A reference Algorithm 2 for the property tests: the straightforward form
//! of the paper's `IdentifyTerritories` and `CalculateIncrement`, kept
//! apart from the library's positional one. Every anchor's DFS pushes the
//! anchor onto each node *and each edge* it reaches, and the interval walk
//! looks every (edge, anchor) pair up by binary search in the caller's and
//! the callee's anchor rows. Slow, but each step reads as the paper's
//! pseudocode; the library must produce exactly the same [`Encoding`].

use std::collections::{HashMap, HashSet};

use deltapath::callgraph::{excluded_mask, topological_order_masked, CallGraph, EdgeIx, NodeIx};
use deltapath::core::{Algo2Config, EncodeError, Encoding, Rows};
use deltapath::SiteId;

/// Algorithm 2 over `graph`, ignoring `excluded` (back) edges: the same
/// configuration knobs, anchor placement, restart loop and result fields as
/// [`Encoding::analyze`].
pub fn analyze(
    graph: &CallGraph,
    excluded: &HashSet<EdgeIx>,
    config: &Algo2Config,
) -> Result<Encoding, EncodeError> {
    if graph.node_count() == 0 || graph.roots().is_empty() {
        return Err(EncodeError::NoRoots);
    }
    let mask = excluded_mask(graph, excluded);
    let order = topological_order_masked(graph, &mask).map_err(|_| EncodeError::StillCyclic)?;
    let n = graph.node_count();
    let cap = config.width.capacity();

    let mut is_anchor = vec![false; n];
    for &r in graph.roots() {
        is_anchor[r.index()] = true;
    }
    for &a in &config.forced_anchors {
        is_anchor[a.index()] = true;
    }
    // Territory budget: promote a node wherever the anchor-free path count
    // reaching it would exceed the budget.
    let mut budget_anchors: Vec<NodeIx> = Vec::new();
    if let Some(budget) = config.territory_budget {
        let budget = budget.max(1);
        let mut paths: Vec<u64> = vec![0; n];
        for &node in &order {
            let i = node.index();
            let mut c: u64 = 0;
            for &e in graph.in_edges(node) {
                if mask[e.index()] {
                    continue;
                }
                c = c.saturating_add(paths[graph.edge(e).caller.index()]);
            }
            if !is_anchor[i] && c > budget {
                is_anchor[i] = true;
                budget_anchors.push(node);
            }
            paths[i] = if is_anchor[i] { 1 } else { c };
        }
    }
    let mut overflow_anchors: Vec<NodeIx> = Vec::new();
    let mut restarts = 0usize;

    'again: loop {
        let (nanchors, eanchors) = identify_territories(graph, &mask, &is_anchor);
        let mut cav: Vec<Vec<u128>> = nanchors.iter().map(|a| vec![0; a.len()]).collect();
        let mut icc_v: Vec<Vec<u128>> = nanchors.iter().map(|a| vec![0; a.len()]).collect();
        let mut site_av: HashMap<SiteId, u128> = HashMap::new();
        let mut batch_pending: Vec<NodeIx> = Vec::new();
        for &node in &order {
            for &e in graph.in_edges(node) {
                if mask[e.index()] {
                    continue;
                }
                let site = graph.edge(e).site;
                if site_av.contains_key(&site) {
                    continue;
                }
                match calculate_increment(
                    graph, &mask, &nanchors, &eanchors, &mut cav, &icc_v, site, cap,
                ) {
                    Ok(av) => {
                        site_av.insert(site, av);
                    }
                    Err(caller) if config.batch_overflow => {
                        batch_pending.push(caller);
                        site_av.insert(site, 0);
                    }
                    Err(caller) => {
                        if is_anchor[caller.index()] {
                            return Err(EncodeError::WidthTooSmall {
                                width: config.width,
                            });
                        }
                        is_anchor[caller.index()] = true;
                        overflow_anchors.push(caller);
                        restarts += 1;
                        continue 'again;
                    }
                }
            }
            let i = node.index();
            if is_anchor[i] {
                icc_v[i][anchor_pos(&nanchors[i], node)] = 1;
            } else {
                icc_v[i] = cav[i].clone();
            }
        }
        if !batch_pending.is_empty() {
            let mut added = 0usize;
            for caller in batch_pending {
                if !is_anchor[caller.index()] {
                    is_anchor[caller.index()] = true;
                    overflow_anchors.push(caller);
                    added += 1;
                }
            }
            if added == 0 {
                return Err(EncodeError::WidthTooSmall {
                    width: config.width,
                });
            }
            restarts += 1;
            continue 'again;
        }

        // Each node's ICC row, anchors ascending as its territory row lists
        // them; an anchor's is `[(self, 1)]`.
        let mut max_icc = 0u128;
        let mut icc: Rows<NodeIx, u128> = Rows::new();
        for i in 0..n {
            if is_anchor[i] {
                if !nanchors[i].is_empty() {
                    max_icc = max_icc.max(1);
                }
                icc.push_row(&[NodeIx::from_index(i)], &[1]);
            } else {
                max_icc = icc_v[i].iter().copied().fold(max_icc, u128::max);
                icc.push_row(&nanchors[i], &icc_v[i]);
            }
        }
        let anchors: Vec<NodeIx> = (0..n)
            .filter(|&i| is_anchor[i])
            .map(NodeIx::from_index)
            .collect();
        return Ok(Encoding {
            width: config.width,
            anchors,
            is_anchor,
            overflow_anchors,
            budget_anchors,
            site_av,
            icc,
            nanchors: rows_of(&nanchors),
            eanchors: rows_of(&eanchors),
            excluded: excluded.clone(),
            max_icc,
            restarts,
        });
    }
}

/// One DFS per anchor, retreating at other anchors; every node and every
/// edge it reaches gets the anchor pushed onto its list.
fn identify_territories(
    graph: &CallGraph,
    excluded: &[bool],
    is_anchor: &[bool],
) -> (Vec<Vec<NodeIx>>, Vec<Vec<NodeIx>>) {
    let n = graph.node_count();
    let mut nanchors: Vec<Vec<NodeIx>> = vec![Vec::new(); n];
    let mut eanchors: Vec<Vec<NodeIx>> = vec![Vec::new(); graph.edge_count()];
    for i in (0..n).filter(|&i| is_anchor[i]) {
        let r = NodeIx::from_index(i);
        let mut visited = vec![false; n];
        visited[i] = true;
        nanchors[i].push(r);
        let mut stack = vec![r];
        while let Some(node) = stack.pop() {
            if node != r && is_anchor[node.index()] {
                continue;
            }
            for &e in graph.out_edges(node) {
                if excluded[e.index()] {
                    continue;
                }
                eanchors[e.index()].push(r);
                let t = graph.edge(e).callee;
                if !visited[t.index()] {
                    visited[t.index()] = true;
                    nanchors[t.index()].push(r);
                    stack.push(t);
                }
            }
        }
    }
    (nanchors, eanchors)
}

/// The per-node or per-edge lists as one row table.
fn rows_of(lists: &[Vec<NodeIx>]) -> Rows<NodeIx> {
    let mut rows = Rows::new();
    for list in lists {
        rows.push(list);
    }
    rows
}

/// Position of anchor `r` in an ascending anchor list.
fn anchor_pos(list: &[NodeIx], r: NodeIx) -> usize {
    list.binary_search(&r)
        .expect("territory anchor present in the anchor list")
}

/// `CalculateIncrement`: the site's addition value, or the caller to anchor
/// when a candidate would exceed `cap` (checked before any update).
#[allow(clippy::too_many_arguments)]
fn calculate_increment(
    graph: &CallGraph,
    excluded: &[bool],
    nanchors: &[Vec<NodeIx>],
    eanchors: &[Vec<NodeIx>],
    cav: &mut [Vec<u128>],
    icc: &[Vec<u128>],
    site: SiteId,
    cap: u128,
) -> Result<u128, NodeIx> {
    let edges: Vec<EdgeIx> = graph
        .site_edges(site)
        .iter()
        .copied()
        .filter(|e| !excluded[e.index()])
        .collect();
    let mut av = 0u128;
    for &e in &edges {
        let callee = graph.edge(e).callee.index();
        for &r in &eanchors[e.index()] {
            av = av.max(cav[callee][anchor_pos(&nanchors[callee], r)]);
        }
    }
    for &e in &edges {
        let caller = graph.edge(e).caller;
        for &r in &eanchors[e.index()] {
            let base = icc[caller.index()][anchor_pos(&nanchors[caller.index()], r)];
            if base.saturating_add(av) > cap {
                return Err(caller);
            }
        }
    }
    for &e in &edges {
        let edge = graph.edge(e);
        let (caller, callee) = (edge.caller.index(), edge.callee.index());
        for &r in &eanchors[e.index()] {
            let base = icc[caller][anchor_pos(&nanchors[caller], r)];
            cav[callee][anchor_pos(&nanchors[callee], r)] = base + av;
        }
    }
    Ok(av)
}
