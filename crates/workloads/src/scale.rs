//! Million-node scale workloads.
//!
//! [`SyntheticConfig`](crate::synthetic::SyntheticConfig) generates rich,
//! runnable object-oriented programs, but its class/family machinery tops
//! out around thousands of methods. `ScaleConfig` targets the opposite
//! corner — Android-OS-sized call *graphs* (10^5–10^6 methods) with the
//! structural properties that stress the planning passes:
//!
//! * **power-law out-degree** — most methods make one or two calls, a heavy
//!   tail makes dozens;
//! * **deep polymorphic fan-out** — a fraction of methods host one virtual
//!   site dispatching to several targets (one shared site id, the paper's
//!   Algorithm 1 case);
//! * **controlled SCC/back-edge density** — recursion back edges aimed at
//!   spine ancestors, so every back edge closes a real cycle and its header
//!   becomes a forced anchor;
//! * **dynamic-loading fraction** — a share of methods marked as
//!   hazardous-UCP entry candidates, as if out-of-scope code could call
//!   them.
//!
//! The same seeded edge stream materializes two ways. [`ScaleConfig::build_graph`]
//! streams edges straight into a [`CallGraph`] (no intermediate edge vector
//! — a million-node graph costs the graph itself, nothing more) for
//! planning, benchmarking and import/export. [`ScaleConfig::build_program`]
//! lowers the same edges into a runnable [`Program`] for small configs
//! (≤ [`MAX_PROGRAM_METHODS`] methods), so the shadow-stack oracle can
//! replay sampled graphs in the differential suite. The program lowers each
//! edge to its own guarded static call (polymorphic sites become separate
//! static sites there — dispatch sharing is exercised through the graph
//! materialization), with recursion guarded exactly like
//! [`synthetic`](crate::synthetic): back-edge calls fire only on a parameter
//! residue, and parameters strictly grow down call chains, so replay
//! terminates by construction.

use deltapath_callgraph::{CallGraph, NodeIx};
use deltapath_ir::{ArgExpr, MethodId, MethodKind, Program, ProgramBuilder, SiteId};

use crate::rng::SplitMix64;

/// Largest `methods` count [`ScaleConfig::build_program`] accepts: the
/// program path exists for oracle replay, which is only feasible well below
/// graph scale.
pub const MAX_PROGRAM_METHODS: usize = 20_000;

/// How one generated edge came to exist. Exposed to
/// [`ScaleConfig::for_each_edge`] consumers that want to treat e.g. back
/// edges specially (the program lowering guards them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// The tree edge giving every node a path from the entry.
    Spine,
    /// A power-law extra forward call.
    Forward,
    /// One target of a polymorphic site (several [`EdgeKind::Poly`] edges
    /// share a site id).
    Poly,
    /// A call to a spine ancestor — closes a cycle.
    Back,
}

/// A seeded recipe for a scale call graph.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// RNG seed; everything else equal, the same seed produces the same
    /// graph (pinned by `CallGraph::fingerprint` in the test suite).
    pub seed: u64,
    /// Number of methods (graph nodes), entry included. Must be ≥ 2.
    pub methods: usize,
    /// Target call depth: nodes are organized in windows of
    /// `methods / layers`, and edges connect nearby windows.
    pub layers: usize,
    /// Mean extra forward out-edges per node. Samples are power-law
    /// distributed with tail exponent [`ScaleConfig::power_alpha`].
    pub extra_edge_factor: f64,
    /// Power-law tail exponent (> 1; larger means thinner tail).
    pub power_alpha: f64,
    /// Probability a node hosts one polymorphic site.
    pub poly_site_prob: f64,
    /// Maximum dispatch targets of a polymorphic site (≥ 2).
    pub max_fanout: usize,
    /// Probability a node emits a back edge to a spine ancestor.
    pub back_edge_prob: f64,
    /// Fraction of nodes marked as hazardous-UCP entry candidates.
    pub dynamic_fraction: f64,
    /// Iterations of the generated `main` loop (program materialization
    /// only; each iteration probes the graph with a different parameter).
    pub main_loop_iters: u32,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            methods: 10_000,
            layers: 64,
            extra_edge_factor: 1.0,
            power_alpha: 2.0,
            poly_site_prob: 0.15,
            max_fanout: 4,
            back_edge_prob: 0.02,
            dynamic_fraction: 0.01,
            main_loop_iters: 8,
        }
    }
}

impl ScaleConfig {
    /// The default recipe with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the method count.
    pub fn with_methods(mut self, methods: usize) -> Self {
        self.methods = methods;
        self
    }

    /// The million-method benchmark recipe.
    pub fn million() -> Self {
        Self {
            methods: 1_000_000,
            layers: 256,
            extra_edge_factor: 1.5,
            max_fanout: 8,
            ..Self::default()
        }
    }

    /// The `i`-th sampled small configuration of the differential suite:
    /// deterministic, oracle-sized (hundreds to a few thousand methods),
    /// sweeping depth, fan-out, recursion and dynamic-entry density.
    pub fn sampled(i: usize) -> Self {
        let i = i as u64;
        Self {
            seed: 0x5ca1e + i * 0x9e37,
            methods: 300 + (i as usize % 7) * 350,
            layers: 8 + (i as usize % 5) * 6,
            extra_edge_factor: 0.5 + 0.25 * (i % 4) as f64,
            power_alpha: 1.8 + 0.3 * (i % 3) as f64,
            poly_site_prob: 0.05 * (i % 4) as f64,
            max_fanout: 2 + i as usize % 3,
            back_edge_prob: 0.03 * (i % 3) as f64,
            dynamic_fraction: 0.02 * (i % 2) as f64,
            // Each probe iteration starts at a different parameter and
            // therefore lights a different guarded subgraph; many cheap
            // probes give the differential suite its event coverage.
            main_loop_iters: 48 + 8 * (i % 3) as u32,
        }
    }

    /// A rough upper bound on the edge count, for pre-allocation.
    pub fn estimated_edges(&self) -> usize {
        let n = self.methods as f64;
        (n * (1.0
            + self.extra_edge_factor * 1.5
            + self.poly_site_prob * self.max_fanout as f64
            + self.back_edge_prob)) as usize
            + 16
    }

    /// Drives the seeded edge stream: `on_edge(caller, callee, site, kind)`
    /// for every edge and `on_ucp(node)` for every UCP candidate, in one
    /// deterministic order. Returns the number of distinct sites. Both
    /// materializations are thin shells over this.
    pub fn for_each_edge(
        &self,
        mut on_edge: impl FnMut(usize, usize, usize, EdgeKind),
        mut on_ucp: impl FnMut(usize),
    ) -> usize {
        let n = self.methods;
        assert!(n >= 2, "a scale graph needs >= 2 methods");
        assert!(self.power_alpha > 1.0, "power_alpha must exceed 1");
        let window = (n / self.layers.max(1)).max(1);
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        // Spine parent of each node; back edges walk this chain so every
        // back edge closes a genuine cycle.
        let mut parents = Parents::new(n);
        let mut site = 0usize;
        let mut poly_targets: Vec<usize> = Vec::with_capacity(self.max_fanout);
        for i in 0..n {
            // 1. Spine: one parent from the preceding window.
            if i > 0 {
                let span = window.min(i);
                let parent = i - 1 - rng.gen_range(0..span);
                parents.set(i, parent);
                on_edge(parent, i, site, EdgeKind::Spine);
                site += 1;
            }
            // 2. Power-law extra forward calls into the next windows.
            let extras = self.power_law(&mut rng);
            for _ in 0..extras {
                let callee = (i + rng.gen_range(1..=2 * window)).min(n - 1);
                if callee > i {
                    on_edge(i, callee, site, EdgeKind::Forward);
                    site += 1;
                }
            }
            // 3. One polymorphic site: distinct forward targets, one site.
            if rng.gen_bool(self.poly_site_prob) {
                let fanout = rng.gen_range(2..=self.max_fanout.max(2));
                poly_targets.clear();
                for _ in 0..fanout {
                    let callee = (i + rng.gen_range(1..=2 * window)).min(n - 1);
                    if callee > i && !poly_targets.contains(&callee) {
                        poly_targets.push(callee);
                    }
                }
                if !poly_targets.is_empty() {
                    for &callee in &poly_targets {
                        on_edge(i, callee, site, EdgeKind::Poly);
                    }
                    site += 1;
                }
            }
            // 4. A back edge to a spine ancestor (closes a cycle).
            if i > 0 && rng.gen_bool(self.back_edge_prob) {
                let steps = rng.gen_range(1..=4usize);
                let target = parents.ancestor(i, steps);
                on_edge(i, target, site, EdgeKind::Back);
                site += 1;
            }
            // 5. Hazardous-UCP entry candidate.
            if rng.gen_bool(self.dynamic_fraction) {
                on_ucp(i);
            }
        }
        site
    }

    /// One power-law out-degree sample with mean ≈
    /// [`ScaleConfig::extra_edge_factor`], capped at 64 so a single node
    /// cannot degenerate the stream.
    fn power_law(&self, rng: &mut SplitMix64) -> usize {
        if self.extra_edge_factor <= 0.0 {
            return 0;
        }
        // u^(-1/alpha) is Pareto with mean alpha/(alpha-1); shift to mean 1
        // and scale. (alpha = 2 gives E[u^(-1/2) - 1] = 1.)
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64);
        let pareto = u.powf(-1.0 / self.power_alpha) - 1.0;
        let scaled = self.extra_edge_factor * pareto / (1.0 / (self.power_alpha - 1.0));
        (scaled.floor() as usize).min(64)
    }

    /// Streams the seeded edge list into a [`CallGraph`]: methods are dense
    /// node indices, node 0 is the entry. Usable at any size.
    pub fn build_graph(&self) -> CallGraph {
        let mut g = CallGraph::empty();
        g.reserve(self.methods, self.estimated_edges());
        for i in 0..self.methods {
            g.add_node(MethodId::from_index(i));
        }
        g.set_entry(NodeIx::from_index(0));
        let mut ucps: Vec<usize> = Vec::new();
        self.for_each_edge(
            |caller, callee, site, _kind| {
                // The stream never repeats a (caller, callee, site) triple:
                // every group gets a fresh site and poly targets are
                // deduplicated, so the unchecked bulk path is safe.
                g.add_edge_unchecked(
                    NodeIx::from_index(caller),
                    NodeIx::from_index(callee),
                    SiteId::from_index(site),
                );
            },
            |node| ucps.push(node),
        );
        for node in ucps {
            g.add_ucp_entry_candidate(NodeIx::from_index(node));
        }
        g
    }

    /// Lowers the seeded edge list into a runnable [`Program`] for oracle
    /// replay. Every edge becomes its own guarded static call:
    ///
    /// * forward edges fire on a parameter residue (`param % m == r`) of a
    ///   modulus scaled just above the caller's out-degree, keeping replay
    ///   subcritical instead of exponential in depth;
    /// * back edges fire on an exact small parameter value (a residue of a
    ///   prime wider than any replayed parameter): the parameter grows down
    ///   every chain (`ParamPlus(1)`), so at most a handful of frames per
    ///   chain can take a back edge — recursion happens, yet replay depth
    ///   is structurally bounded;
    /// * `main` (method 0) probes the graph [`ScaleConfig::main_loop_iters`]
    ///   times with the loop index as the parameter.
    ///
    /// Guard/observe decoration draws from a separate RNG stream, so graph
    /// structure is identical to [`ScaleConfig::build_graph`].
    ///
    /// # Panics
    ///
    /// Panics if `self.methods` exceeds [`MAX_PROGRAM_METHODS`].
    pub fn build_program(&self) -> Program {
        assert!(
            self.methods <= MAX_PROGRAM_METHODS,
            "program materialization is capped at {MAX_PROGRAM_METHODS} methods \
             (oracle replay does not scale further); build_graph() has no cap"
        );
        let mut calls: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); self.methods];
        self.for_each_edge(
            |caller, callee, _site, kind| {
                calls[caller].push((callee, kind));
            },
            |_| {},
        );
        // Decoration stream, independent of the structural stream.
        let mut drng = SplitMix64::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut b = ProgramBuilder::new("scale");
        let cls = b.add_class("S", None);

        fn emit_calls(
            f: &mut deltapath_ir::BodyBuilder<'_>,
            drng: &mut SplitMix64,
            cls: deltapath_ir::ClassId,
            node_calls: &[(usize, EdgeKind)],
        ) {
            // Degree-scaled forward guards: each call fires on one residue
            // of a modulus just above the node's out-degree, so the
            // *expected* number of taken calls per visit stays below one
            // and replay is a subcritical branching process — finite and
            // fast no matter how dense the sampled graph is. (A fixed
            // small modulus goes supercritical once mean out-degree
            // exceeds ~3 and the replay tree explodes.)
            // Guard firing is deterministic per (node, param), so sibling
            // paths through a diamond re-execute identical subtrees: replay
            // size grows with the *path count* through fired edges, not
            // the node count. Two defences keep that strictly subcritical:
            //
            // * forward calls fire on one residue of **twice** the node's
            //   out-degree — expected taken calls per visit is ½, so even
            //   with diamond correlations the fired subgraph stays a
            //   sparse, shallow tree;
            // * back edges fire on an exact small parameter value (the
            //   modulus is a prime wider than any parameter a replay can
            //   reach, making `param % 9973 == r`, `r < 8`, an equality
            //   test): a chain's parameter strictly increases, so at most
            //   eight frames of any chain can take a back edge — recursion
            //   is exercised (the re-descent puts the cycle on the stack)
            //   yet structurally bounded.
            let m = (2 * node_calls.len() as u32).max(3);
            for &(callee, kind) in node_calls {
                let name = format!("m{callee}");
                let (modulus, equals) = if kind == EdgeKind::Back {
                    (9973, drng.gen_range(0..8u32))
                } else {
                    (m, drng.gen_range(0..m))
                };
                f.if_mod(
                    modulus,
                    equals,
                    |f| {
                        f.call_arg(cls, &name, ArgExpr::ParamPlus(1));
                    },
                    |_| {},
                );
            }
        }

        let mut entry = None;
        for (i, node_calls) in calls.iter_mut().enumerate() {
            let node_calls = std::mem::take(node_calls);
            let observe = if i % 4 == 0 || node_calls.is_empty() {
                Some(drng.gen_range(0..8u32))
            } else {
                None
            };
            let iters = self.main_loop_iters.max(1);
            let m = b
                .method(cls, &format!("m{i}"), MethodKind::Static)
                .body(|f| {
                    if i == 0 {
                        f.loop_bind(iters, |f| {
                            emit_calls(f, &mut drng, cls, &node_calls);
                            f.observe(0);
                        });
                    } else {
                        emit_calls(f, &mut drng, cls, &node_calls);
                        if let Some(ev) = observe {
                            f.observe(ev);
                        }
                    }
                })
                .finish();
            if i == 0 {
                entry = Some(m);
            }
        }
        b.entry(entry.expect("method 0 exists"));
        b.finish().expect("scale program validates")
    }
}

/// The flat spine-parent array (`u32` per node), with bounded-step ancestor
/// walks for aiming back edges.
struct Parents(Vec<u32>);

impl Parents {
    fn new(n: usize) -> Self {
        Self(vec![0u32; n])
    }

    fn set(&mut self, node: usize, parent: usize) {
        self.0[node] = parent as u32;
    }

    /// The `steps`-th spine ancestor of `node` (clamping at the root).
    fn ancestor(&self, node: usize, steps: usize) -> usize {
        let mut cur = node;
        for _ in 0..steps {
            if cur == 0 {
                break;
            }
            cur = self.0[cur] as usize;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_is_deterministic_per_seed() {
        let cfg = ScaleConfig::default().with_methods(2_000);
        let a = cfg.build_graph();
        let b = cfg.build_graph();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = cfg.clone().with_seed(43).build_graph();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn graph_has_expected_shape() {
        let cfg = ScaleConfig::default().with_methods(5_000);
        let g = cfg.build_graph();
        assert_eq!(g.node_count(), 5_000);
        assert_eq!(g.entry(), Some(NodeIx::from_index(0)));
        // Spine edges alone guarantee n - 1 edges.
        assert!(g.edge_count() >= 4_999);
        assert!(g.edge_count() <= cfg.estimated_edges());
        // Everything is reachable from the entry.
        let reach = deltapath_callgraph::reachable_from(
            &g,
            &[NodeIx::from_index(0)],
            &std::collections::HashSet::new(),
        );
        assert!(reach.iter().all(|&r| r));
        // Back edges exist and close real cycles (headers found).
        let info = deltapath_callgraph::back_edges(&g);
        assert!(!info.back_edges.is_empty());
        assert!(!info.headers.is_empty());
        // Polymorphic sites exist: some site has > 1 edge.
        assert!(g
            .instrumented_sites()
            .iter()
            .any(|&s| g.site_edges(s).len() > 1));
        // UCP candidates were marked.
        assert!(!g.ucp_entry_candidates().is_empty());
    }

    #[test]
    fn program_matches_graph_structure() {
        let cfg = ScaleConfig::sampled(3);
        let g = cfg.build_graph();
        let p = cfg.build_program();
        assert_eq!(p.methods().len(), g.node_count());
        // One call statement per generated edge.
        assert_eq!(p.sites().len(), g.edge_count());
    }

    #[test]
    fn program_replay_terminates_quickly() {
        // A smoke run of the sampled configs' smallest program through the
        // plain interpreter would need the runtime crate; here we only pin
        // that construction succeeds and stays bounded.
        let p = ScaleConfig::sampled(0).build_program();
        assert!(p.methods().len() >= 300);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn oversized_program_materialization_panics() {
        ScaleConfig::default()
            .with_methods(MAX_PROGRAM_METHODS + 1)
            .build_program();
    }
}
