//! Call-graph construction from an IR program.

use std::collections::{HashMap, HashSet, VecDeque};

use deltapath_ir::{CallKind, Hierarchy, MethodId, Origin, Program, SiteId};

use crate::graph::CallGraph;

/// How virtual dispatch targets are approximated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Analysis {
    /// Class-hierarchy analysis: every subtype of the declared receiver type
    /// is a possible receiver. Over-approximates like WALA's 0-CFA does on
    /// real bytecode; the paper's experimental setting.
    Cha,
    /// Use the IR's receiver expressions: the precise dispatch sets.
    Exact,
}

/// Which methods are included in the encoded graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScopeFilter {
    /// Encode everything statically visible (the paper's *encoding-all*).
    All,
    /// Encode application classes only (the paper's *encoding-application*,
    /// Section 4.2): library methods and their edges are excluded, and
    /// application methods invokable only from library code become extra
    /// encoding roots.
    ApplicationOnly,
}

/// Configuration for [`CallGraph::build`].
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Dispatch approximation.
    pub analysis: Analysis,
    /// Scope filtering (selective encoding).
    pub scope: ScopeFilter,
    /// Whether dynamically loaded classes are visible. `false` models the
    /// static-analysis view (the normal setting); `true` produces the
    /// omniscient graph used as ground truth in tests.
    pub include_dynamic: bool,
}

impl GraphConfig {
    /// A config with the given analysis, [`ScopeFilter::All`], and dynamic
    /// classes hidden.
    pub fn new(analysis: Analysis) -> Self {
        Self {
            analysis,
            scope: ScopeFilter::All,
            include_dynamic: false,
        }
    }

    /// Sets the scope filter.
    pub fn with_scope(mut self, scope: ScopeFilter) -> Self {
        self.scope = scope;
        self
    }

    /// Makes dynamically loaded classes visible (omniscient ground truth).
    pub fn with_dynamic(mut self) -> Self {
        self.include_dynamic = true;
        self
    }
}

impl CallGraph {
    /// Builds the call graph of `program` under `config`.
    ///
    /// Construction proceeds in two passes, mirroring how the paper first
    /// computes the full reachable graph and then (for selective encoding)
    /// drops the uninteresting region:
    ///
    /// 1. compute methods reachable from the entry through *all* visible
    ///    methods;
    /// 2. keep only in-scope methods as nodes, with the edges between them;
    ///    in-scope methods whose only callers are out of scope become extra
    ///    [`roots`](CallGraph::roots) (they can be entered "from outside",
    ///    which at runtime manifests as the paper's unexpected call paths).
    pub fn build(program: &Program, config: &GraphConfig) -> CallGraph {
        let hierarchy = Hierarchy::new(program);
        let targets_of = |site: SiteId| dispatch_targets(program, &hierarchy, config, site);

        // Pass 1: full reachability over visible methods.
        let sites_by_caller = sites_by_caller(program);
        let mut reachable: HashSet<MethodId> = HashSet::new();
        let mut queue = VecDeque::new();
        let entry = program.entry();
        if visible(program, config, entry) {
            reachable.insert(entry);
            queue.push_back(entry);
        }
        let mut full_edges: Vec<(MethodId, MethodId, SiteId)> = Vec::new();
        while let Some(m) = queue.pop_front() {
            for &site in sites_by_caller.get(&m).map(Vec::as_slice).unwrap_or(&[]) {
                for target in targets_of(site) {
                    full_edges.push((m, target, site));
                    if reachable.insert(target) {
                        queue.push_back(target);
                    }
                }
            }
        }

        // Pass 2: scope filtering.
        let in_scope = |m: MethodId| match config.scope {
            ScopeFilter::All => true,
            ScopeFilter::ApplicationOnly => program.is_application(m),
        };

        let mut graph = CallGraph::empty();
        let mut ordered: Vec<MethodId> =
            reachable.iter().copied().filter(|&m| in_scope(m)).collect();
        ordered.sort_unstable();
        // Entry node first, for stable readable node numbering.
        if in_scope(entry) && reachable.contains(&entry) {
            graph.add_node(entry);
        }
        for m in ordered {
            graph.add_node(m);
        }
        let mut outside_called: HashSet<MethodId> = HashSet::new();
        for &(caller, callee, site) in &full_edges {
            match (in_scope(caller), in_scope(callee)) {
                (true, true) => {
                    let c = graph.add_node(caller);
                    let t = graph.add_node(callee);
                    graph.add_edge(c, t, site);
                }
                (false, true) => {
                    outside_called.insert(callee);
                }
                _ => {}
            }
        }
        if let Some(e) = graph.node_of(entry) {
            graph.set_entry(e);
        }
        let mut outside_called: Vec<MethodId> = outside_called.into_iter().collect();
        outside_called.sort_unstable();
        for m in outside_called {
            let node = graph.node_of(m).expect("in-scope node");
            // Every method invokable from excluded code is a potential
            // hazardous-UCP entry point; ones with no in-scope caller at all
            // additionally become encoding roots.
            graph.add_ucp_entry_candidate(node);
            if graph.in_edges(node).is_empty() {
                graph.add_root(node);
            }
        }
        graph
    }
}

/// Maps every method to the call sites it contains, in body order.
fn sites_by_caller(program: &Program) -> HashMap<MethodId, Vec<SiteId>> {
    let mut map: HashMap<MethodId, Vec<SiteId>> = HashMap::new();
    for site in program.sites() {
        map.entry(site.caller()).or_default().push(site.id());
    }
    map
}

fn visible(program: &Program, config: &GraphConfig, method: MethodId) -> bool {
    config.include_dynamic || program.is_static_origin(method)
}

/// The dispatch-target methods of `site` under the configured analysis.
pub(crate) fn dispatch_targets(
    program: &Program,
    hierarchy: &Hierarchy,
    config: &GraphConfig,
    site: SiteId,
) -> Vec<MethodId> {
    let s = program.site(site);
    let mut out = match s.kind() {
        CallKind::Static => program
            .resolve(s.declared(), s.method())
            .into_iter()
            .collect(),
        CallKind::Virtual => match config.analysis {
            Analysis::Cha => {
                hierarchy.cha_targets(program, s.declared(), s.method(), config.include_dynamic)
            }
            Analysis::Exact => {
                let mut targets = Vec::new();
                for &class in s
                    .receiver()
                    .expect("validated virtual site has receiver")
                    .possible_classes()
                {
                    if !config.include_dynamic && program.class(class).origin() == Origin::Dynamic {
                        continue;
                    }
                    if let Some(m) = program.resolve(class, s.method()) {
                        targets.push(m);
                    }
                }
                targets.sort_unstable();
                targets.dedup();
                targets
            }
        },
    };
    out.retain(|&m| visible(program, config, m));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_ir::{MethodKind, ProgramBuilder, Receiver};

    /// Application Main calls Lib.mid which calls App.leaf; plus a virtual
    /// call with CHA-visible and dynamic receivers.
    fn layered_program() -> Program {
        let mut b = ProgramBuilder::new("layers");
        let app = b.add_class("App", None);
        let lib = b.add_library_class("Lib", None);
        let plug = b.add_dynamic_class("Plug", Some(app));

        b.method(app, "leaf", MethodKind::Static).finish();
        b.method(app, "v", MethodKind::Virtual).finish();
        b.method(plug, "v", MethodKind::Virtual).finish();
        b.method(lib, "mid", MethodKind::Static)
            .body(|f| {
                f.call(app, "leaf");
            })
            .finish();
        let main = b
            .method(app, "main", MethodKind::Static)
            .body(|f| {
                f.call(lib, "mid");
                f.vcall(app, "v", Receiver::Cycle(vec![app, plug]));
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn encoding_all_includes_library_edges() {
        let p = layered_program();
        let g = CallGraph::build(&p, &GraphConfig::new(Analysis::Exact));
        // main, Lib.mid, App.leaf, App.v (Plug.v hidden: dynamic)
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.roots().len(), 1);
    }

    #[test]
    fn application_only_drops_library_and_promotes_roots() {
        let p = layered_program();
        let g = CallGraph::build(
            &p,
            &GraphConfig::new(Analysis::Exact).with_scope(ScopeFilter::ApplicationOnly),
        );
        // Nodes: main, App.leaf, App.v. Edge: main->App.v only.
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        // App.leaf is called only by Lib.mid, so it must be a root.
        let leaf = p.class_by_name("App").unwrap();
        let leaf_m = p
            .declared_method(leaf, p.symbols().lookup("leaf").unwrap())
            .unwrap();
        let leaf_node = g.node_of(leaf_m).unwrap();
        assert!(g.roots().contains(&leaf_node));
        assert_eq!(g.roots()[0], g.entry().unwrap());
    }

    #[test]
    fn omniscient_graph_sees_dynamic_classes() {
        let p = layered_program();
        let g = CallGraph::build(&p, &GraphConfig::new(Analysis::Exact).with_dynamic());
        // Adds Plug.v as node and the dispatch edge to it.
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn exact_dispatch_ignores_receivers_named_at_other_sites() {
        // Three subclasses override f; two are ever mentioned as receivers,
        // each at its own site.
        let mut b = ProgramBuilder::new("receivers");
        let a = b.add_class("A", None);
        let c1 = b.add_class("C1", Some(a));
        let c2 = b.add_class("C2", Some(a));
        let c3 = b.add_class("C3", Some(a));
        b.method(a, "f", MethodKind::Virtual).finish();
        b.method(c1, "f", MethodKind::Virtual).finish();
        b.method(c2, "f", MethodKind::Virtual).finish();
        b.method(c3, "f", MethodKind::Virtual).finish();
        b.method(a, "helper", MethodKind::Static)
            .body(|f| {
                // C2 is a receiver here only, not at the site in main.
                f.vcall(a, "f", Receiver::Fixed(c2));
            })
            .finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.call(a, "helper");
                f.vcall(a, "f", Receiver::Fixed(c1));
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();

        let count = |analysis: Analysis| {
            let g = CallGraph::build(&p, &GraphConfig::new(analysis));
            let site = p
                .sites()
                .iter()
                .filter(|s| s.caller() == main && s.kind() == deltapath_ir::CallKind::Virtual)
                .map(|s| s.id())
                .next()
                .unwrap();
            g.site_edges(site).len()
        };
        assert_eq!(count(Analysis::Exact), 1); // C1.f only
        assert_eq!(count(Analysis::Cha), 4); // all overrides + A.f
    }

    #[test]
    fn cha_is_superset_of_exact() {
        let mut b = ProgramBuilder::new("cha");
        let a = b.add_class("A", None);
        let c1 = b.add_class("C1", Some(a));
        let c2 = b.add_class("C2", Some(a));
        let c3 = b.add_class("C3", Some(a));
        b.method(a, "f", MethodKind::Virtual).finish();
        b.method(c1, "f", MethodKind::Virtual).finish();
        b.method(c2, "f", MethodKind::Virtual).finish();
        b.method(c3, "f", MethodKind::Virtual).finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.vcall(a, "f", Receiver::Fixed(c1));
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let exact = CallGraph::build(&p, &GraphConfig::new(Analysis::Exact));
        let cha = CallGraph::build(&p, &GraphConfig::new(Analysis::Cha));
        assert_eq!(exact.edge_count(), 1);
        assert_eq!(cha.edge_count(), 4); // A.f, C1.f, C2.f, C3.f
    }

    #[test]
    fn ucp_candidates_cover_all_outside_called_methods() {
        // App.leaf is called only from Lib.mid; App.v is called from main
        // directly. Under app-only scope, exactly App.leaf is a UCP entry
        // candidate (and a root, having no in-scope callers).
        let p = layered_program();
        let g = CallGraph::build(
            &p,
            &GraphConfig::new(Analysis::Exact).with_scope(ScopeFilter::ApplicationOnly),
        );
        assert_eq!(g.ucp_entry_candidates().len(), 1);
        let cand = g.ucp_entry_candidates()[0];
        let leaf_cls = p.class_by_name("App").unwrap();
        let leaf = p
            .declared_method(leaf_cls, p.symbols().lookup("leaf").unwrap())
            .unwrap();
        assert_eq!(g.method_of(cand), leaf);
        // Full scope has no out-of-scope callers at all.
        let full = CallGraph::build(&p, &GraphConfig::new(Analysis::Exact));
        assert!(full.ucp_entry_candidates().is_empty());
    }

    #[test]
    fn in_graph_methods_also_called_from_outside_are_candidates_not_roots() {
        // App.helper is called both from main (in scope) and from Lib.mid
        // (out of scope): it must be a UCP candidate but NOT a root.
        let mut b = ProgramBuilder::new("mixed");
        let app = b.add_class("App", None);
        let lib = b.add_library_class("Lib", None);
        b.method(app, "helper", MethodKind::Static).finish();
        b.method(lib, "mid", MethodKind::Static)
            .body(|f| {
                f.call(app, "helper");
            })
            .finish();
        let main = b
            .method(app, "main", MethodKind::Static)
            .body(|f| {
                f.call(app, "helper");
                f.call(lib, "mid");
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let g = CallGraph::build(
            &p,
            &GraphConfig::new(Analysis::Cha).with_scope(ScopeFilter::ApplicationOnly),
        );
        let helper = p
            .declared_method(
                p.class_by_name("App").unwrap(),
                p.symbols().lookup("helper").unwrap(),
            )
            .unwrap();
        let node = g.node_of(helper).unwrap();
        assert!(g.ucp_entry_candidates().contains(&node));
        assert!(!g.roots().contains(&node));
    }

    #[test]
    fn unreachable_methods_are_excluded() {
        let mut b = ProgramBuilder::new("dead");
        let a = b.add_class("A", None);
        b.method(a, "dead", MethodKind::Static).finish();
        let main = b.method(a, "main", MethodKind::Static).finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let g = CallGraph::build(&p, &GraphConfig::new(Analysis::Cha));
        assert_eq!(g.node_count(), 1);
    }
}
