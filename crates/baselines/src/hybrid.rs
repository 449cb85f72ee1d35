//! Hybrid PCC + DeltaPath encoding (paper Section 8, "Hybrid Encoding").
//!
//! PCC has the most compact representation (one integer) but no decoding;
//! DeltaPath decodes but needs a stack in deep programs. The paper sketches
//! a combination: profile the program, let the methods of the hottest
//! calling contexts form the *trunk* of the call graph, run PCC inside the
//! trunk, and run DeltaPath below it with the trunk-exit methods acting as
//! anchors. A profiling-learned dictionary maps PCC values of trunk
//! prefixes back to contexts, so decoding capability is preserved: hot
//! contexts are represented by a single hash plus a short DeltaPath piece.
//!
//! This module implements that sketch:
//!
//! * [`HybridPlan::analyze`] — builds the DeltaPath plan over the non-trunk
//!   subgraph (trunk-exit targets are anchored via the UCP-candidate
//!   mechanism) and records which call sites are trunk-internal;
//! * [`HybridPlan::learn_dictionary`] — a profiling run recording the PCC
//!   value and the true trunk context at every trunk-boundary crossing;
//! * [`HybridEncoder`] — the runtime: `V' = 3V + cs` inside the trunk,
//!   DeltaPath below it, boundary frames connecting the two;
//! * [`HybridDecoder`] — dictionary lookup for the trunk prefix, exact
//!   DeltaPath decoding for the rest.
//!
//! Scope notes (the paper gives only a sketch): the trunk must contain the
//! program entry (hot contexts start at `main`). When control re-enters
//! trunk methods from below a boundary, their sites do not update the PCC
//! value (hashing is trunk-region-only), so the recorded prefix stays
//! intact; the context inside such re-entered trunk code is attributed to
//! the boundary — a limitation of the sketch, noted here.

use std::collections::{HashMap, HashSet};

use deltapath_callgraph::{Analysis, CallGraph, GraphConfig, ScopeFilter};
use deltapath_core::{DecodeError, DeltaState, EncodeError, EncodingPlan, PlanConfig};
use deltapath_ir::{MethodId, Program, SiteId};
use deltapath_runtime::{Capture, Collector, ContextEncoder, OpCounts, Vm, VmConfig};

use crate::pcc::PccEncoder;

/// The static analysis result for hybrid encoding.
#[derive(Clone, Debug)]
pub struct HybridPlan {
    delta_plan: EncodingPlan,
    trunk: HashSet<MethodId>,
    /// Sites whose caller and every statically known target are in the
    /// trunk: these update the PCC hash.
    trunk_sites: HashSet<SiteId>,
}

impl HybridPlan {
    /// Analyses `program` with the given trunk (typically the methods of
    /// the hottest profiled contexts).
    ///
    /// # Errors
    ///
    /// Fails like [`EncodingPlan::from_graph`]; additionally the entry
    /// method must be in the trunk ([`EncodeError::NoRoots`] otherwise).
    pub fn analyze(
        program: &Program,
        trunk: HashSet<MethodId>,
        config: &PlanConfig,
    ) -> Result<Self, EncodeError> {
        if !trunk.contains(&program.entry()) {
            return Err(EncodeError::NoRoots);
        }
        let full = CallGraph::build(
            program,
            &GraphConfig {
                analysis: config.analysis,
                scope: ScopeFilter::All,
                include_dynamic: false,
            },
        );
        // The DeltaPath subgraph: non-trunk nodes and the edges among them.
        // Non-trunk targets of trunk edges become UCP-entry candidates, so
        // the plan anchors them and their pieces decode exactly.
        let mut sub = CallGraph::empty();
        for node in full.nodes() {
            let m = full.method_of(node);
            if !trunk.contains(&m) {
                sub.add_node(m);
            }
        }
        for edge in full.edges() {
            let caller = full.method_of(edge.caller);
            let callee = full.method_of(edge.callee);
            match (trunk.contains(&caller), trunk.contains(&callee)) {
                (false, false) => {
                    let c = sub.add_node(caller);
                    let t = sub.add_node(callee);
                    sub.add_edge(c, t, edge.site);
                }
                (true, false) => {
                    let t = sub.add_node(callee);
                    sub.add_ucp_entry_candidate(t);
                }
                _ => {}
            }
        }
        // Boundary targets with no in-subgraph callers are roots.
        let candidates: Vec<_> = sub.ucp_entry_candidates().to_vec();
        for node in candidates {
            if sub.in_edges(node).is_empty() {
                sub.add_root(node);
            }
        }
        let delta_plan = EncodingPlan::from_graph(program, sub, config)?;

        let mut trunk_sites = HashSet::new();
        for site in full.instrumented_sites() {
            let edges = full.site_edges(site);
            let caller_in = trunk.contains(&full.method_of(full.edge(edges[0]).caller));
            let all_targets_in = edges
                .iter()
                .all(|&e| trunk.contains(&full.method_of(full.edge(e).callee)));
            if caller_in && all_targets_in {
                trunk_sites.insert(site);
            }
        }
        Ok(Self {
            delta_plan,
            trunk,
            trunk_sites,
        })
    }

    /// A trunk chosen from profile data: the `hot_count` most frequently
    /// entered methods, closed over their callers in the call graph (every
    /// method from which a hot method is reachable). Hot calling contexts
    /// start at `main`, so the paper's trunk — "the functions in those
    /// calling contexts" — is exactly this upper region of the graph.
    pub fn trunk_from_profile(
        program: &Program,
        profile: &HashMap<MethodId, u64>,
        hot_count: usize,
    ) -> HashSet<MethodId> {
        let mut ranked: Vec<(&MethodId, &u64)> = profile.iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let hot: Vec<MethodId> = ranked.iter().take(hot_count).map(|(&m, _)| m).collect();

        let graph = CallGraph::build(program, &GraphConfig::new(Analysis::Cha));
        let hot_nodes: Vec<_> = hot.iter().filter_map(|&m| graph.node_of(m)).collect();
        let reaches = deltapath_callgraph::reaches_to(&graph, &hot_nodes, &HashSet::new());
        let mut trunk: HashSet<MethodId> = graph
            .nodes()
            .filter(|n| reaches[n.index()])
            .map(|n| graph.method_of(n))
            .collect();
        trunk.extend(hot);
        trunk.insert(program.entry());
        trunk
    }

    /// The DeltaPath plan over the non-trunk region.
    pub fn delta_plan(&self) -> &EncodingPlan {
        &self.delta_plan
    }

    /// Whether `method` belongs to the trunk.
    pub fn in_trunk(&self, method: MethodId) -> bool {
        self.trunk.contains(&method)
    }

    /// Whether `site` is trunk-internal (PCC-instrumented).
    pub fn is_trunk_site(&self, site: SiteId) -> bool {
        self.trunk_sites.contains(&site)
    }

    /// Learns the PCC-value → trunk-context dictionary by executing
    /// `program` once with a profiling encoder that walks the trunk stack
    /// at every boundary crossing — the paper's "perform profiling to
    /// establish the mapping".
    pub fn learn_dictionary(&self, program: &Program, vm_config: VmConfig) -> HybridDictionary {
        struct Learner<'a> {
            plan: &'a HybridPlan,
            v: u64,
            trunk_stack: Vec<MethodId>,
            dict: HashMap<u64, Vec<MethodId>>,
            conflicts: usize,
        }
        impl ContextEncoder for Learner<'_> {
            type CallToken = Option<u64>;
            type EntryToken = bool;

            fn thread_start(&mut self, entry: MethodId) {
                self.v = 0;
                self.trunk_stack = vec![entry];
            }

            fn on_call(&mut self, site: SiteId) -> Option<u64> {
                if self.plan.is_trunk_site(site) {
                    let saved = self.v;
                    self.v = self
                        .v
                        .wrapping_mul(3)
                        .wrapping_add(PccEncoder::site_constant(site));
                    Some(saved)
                } else {
                    None
                }
            }

            fn on_return(&mut self, _site: SiteId, token: Option<u64>) {
                if let Some(saved) = token {
                    self.v = saved;
                }
            }

            fn on_entry(&mut self, method: MethodId, _via: Option<SiteId>) -> bool {
                if self.plan.in_trunk(method) {
                    self.trunk_stack.push(method);
                    true
                } else {
                    // A boundary crossing: record the trunk prefix.
                    match self.dict.entry(self.v) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(self.trunk_stack.clone());
                        }
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if e.get() != &self.trunk_stack {
                                self.conflicts += 1;
                            }
                        }
                    }
                    false
                }
            }

            fn on_exit(&mut self, _method: MethodId, pushed: bool) {
                if pushed {
                    self.trunk_stack.pop();
                }
            }

            fn observe(&mut self, _at: MethodId) -> Capture {
                // Observation points inside the trunk also need their
                // prefix learned (captures taken there decode via the
                // dictionary alone).
                self.dict
                    .entry(self.v)
                    .or_insert_with(|| self.trunk_stack.clone());
                Capture::None
            }

            fn counts(&self) -> OpCounts {
                OpCounts::default()
            }

            fn name(&self) -> &'static str {
                "hybrid-learner"
            }
        }

        struct Drop_;
        impl Collector for Drop_ {
            fn record_entry(&mut self, _: MethodId, _: usize, _: Capture) {}
            fn record_observe(&mut self, _: u32, _: MethodId, _: Capture) {}
        }

        let mut learner = Learner {
            plan: self,
            v: 0,
            trunk_stack: Vec::new(),
            dict: HashMap::new(),
            conflicts: 0,
        };
        let mut vm = Vm::new(program, vm_config);
        vm.run(&mut learner, &mut Drop_).expect("profiling run");
        HybridDictionary {
            prefixes: learner.dict,
            hash_conflicts: learner.conflicts,
        }
    }
}

/// The learned mapping from PCC trunk values to trunk contexts.
#[derive(Clone, Debug, Default)]
pub struct HybridDictionary {
    prefixes: HashMap<u64, Vec<MethodId>>,
    /// Number of distinct trunk contexts that collided on one hash during
    /// learning (the residual probabilistic weakness PCC brings along).
    pub hash_conflicts: usize,
}

impl HybridDictionary {
    /// Number of learned trunk prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Looks up the trunk context for a PCC value.
    pub fn prefix(&self, v: u64) -> Option<&[MethodId]> {
        self.prefixes.get(&v).map(Vec::as_slice)
    }
}

/// The hybrid runtime encoder: PCC in the trunk, DeltaPath below it.
#[derive(Debug)]
pub struct HybridEncoder<'p> {
    plan: &'p HybridPlan,
    v: u64,
    /// The PCC value at the trunk exit while a DeltaPath region is open.
    /// A region opens only from the trunk, so at most one is open.
    boundary_v: Option<u64>,
    /// The DeltaPath state of the open region, restarted at every trunk
    /// exit; its tallies accumulate over every region.
    region: DeltaState,
    /// PCC hash mixes in the trunk.
    hashes: u64,
    /// Boundary frames pushed at trunk exits.
    boundary_pushes: u64,
    /// Boundary frames popped when a region closes.
    boundary_pops: u64,
}

/// Caller-saved state for [`HybridEncoder`] calls.
#[derive(Debug)]
pub enum HybridCallToken {
    /// Trunk-internal call: the saved PCC value.
    TrunkHash(u64),
    /// A call inside a DeltaPath region (the region's state keeps its
    /// record).
    Delta,
    /// Uninstrumented call.
    Nothing,
}

/// Entry bookkeeping for [`HybridEncoder`].
#[derive(Debug)]
pub enum HybridEntryToken {
    /// Trunk method entered from the trunk (or re-entered from below).
    Trunk,
    /// A trunk-exit boundary: a fresh DeltaPath region was opened.
    Boundary,
    /// An entry inside the current DeltaPath region (the region's state
    /// keeps whether it pushed a frame).
    Delta,
}

impl<'p> HybridEncoder<'p> {
    /// Creates the encoder for a hybrid plan.
    pub fn new(plan: &'p HybridPlan) -> Self {
        Self {
            plan,
            v: 0,
            boundary_v: None,
            region: DeltaState::start(plan.delta_plan.entry_method()),
            hashes: 0,
            boundary_pushes: 0,
            boundary_pops: 0,
        }
    }
}

impl ContextEncoder for HybridEncoder<'_> {
    type CallToken = HybridCallToken;
    type EntryToken = HybridEntryToken;

    fn thread_start(&mut self, _entry: MethodId) {
        self.v = 0;
        self.boundary_v = None;
    }

    fn on_call(&mut self, site: SiteId) -> HybridCallToken {
        if self.boundary_v.is_some() {
            self.region.on_call(&self.plan.delta_plan, site);
            return HybridCallToken::Delta;
        }
        if self.plan.is_trunk_site(site) {
            self.hashes += 1;
            let saved = self.v;
            self.v = self
                .v
                .wrapping_mul(3)
                .wrapping_add(PccEncoder::site_constant(site));
            return HybridCallToken::TrunkHash(saved);
        }
        HybridCallToken::Nothing
    }

    fn on_return(&mut self, _site: SiteId, token: HybridCallToken) {
        match token {
            HybridCallToken::TrunkHash(saved) => self.v = saved,
            HybridCallToken::Delta => self.region.on_return(),
            HybridCallToken::Nothing => {}
        }
    }

    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) -> HybridEntryToken {
        if self.plan.in_trunk(method) {
            return HybridEntryToken::Trunk;
        }
        if self.boundary_v.is_none() {
            // Trunk-exit boundary: open a DeltaPath region rooted here.
            self.boundary_pushes += 1;
            self.boundary_v = Some(self.v);
            self.region.restart(method);
            return HybridEntryToken::Boundary;
        }
        self.region
            .on_entry(&self.plan.delta_plan, method, via_site);
        HybridEntryToken::Delta
    }

    fn on_exit(&mut self, _method: MethodId, token: HybridEntryToken) {
        match token {
            HybridEntryToken::Trunk => {}
            HybridEntryToken::Boundary => {
                self.boundary_pops += 1;
                self.boundary_v = None;
            }
            HybridEntryToken::Delta => self.region.on_exit(),
        }
    }

    fn observe(&mut self, at: MethodId) -> Capture {
        match self.boundary_v {
            Some(v) => Capture::Hybrid {
                trunk_v: v,
                ctx: self.region.snapshot(at),
            },
            None => Capture::Hybrid {
                trunk_v: self.v,
                ctx: DeltaState::start(at).snapshot(at),
            },
        }
    }

    fn counts(&self) -> OpCounts {
        let region = OpCounts::from(self.region.counts());
        OpCounts {
            hashes: self.hashes,
            pushes: self.boundary_pushes + region.pushes,
            pops: self.boundary_pops + region.pops,
            ..region
        }
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

/// Decoder for hybrid captures: dictionary for the trunk prefix, exact
/// DeltaPath decoding below.
#[derive(Debug)]
pub struct HybridDecoder<'p> {
    plan: &'p HybridPlan,
    dictionary: &'p HybridDictionary,
}

impl<'p> HybridDecoder<'p> {
    /// Creates a decoder over the plan and a learned dictionary.
    pub fn new(plan: &'p HybridPlan, dictionary: &'p HybridDictionary) -> Self {
        Self { plan, dictionary }
    }

    /// Decodes a hybrid capture to the full context.
    ///
    /// # Errors
    ///
    /// [`DecodeError::NoMatchingEdge`]-style errors from the DeltaPath
    /// decoder, or [`DecodeError::UnknownMethod`] when the trunk value was
    /// never learned (the dictionary is probabilistic coverage, the paper's
    /// residual weakness).
    pub fn decode(&self, capture: &Capture) -> Result<Vec<MethodId>, DecodeError> {
        let Capture::Hybrid { trunk_v, ctx } = capture else {
            return Err(DecodeError::EmptyStack);
        };
        let mut out: Vec<MethodId> = match self.dictionary.prefix(*trunk_v) {
            Some(prefix) => prefix.to_vec(),
            None => {
                return Err(DecodeError::UnknownMethod(ctx.at));
            }
        };
        if self.plan.in_trunk(ctx.at) {
            // Captured inside the trunk itself: the prefix is the context.
            return Ok(out);
        }
        let suffix = self.plan.delta_plan.decoder().decode(ctx)?;
        out.extend(suffix);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_ir::{MethodKind, Program, ProgramBuilder};
    use deltapath_runtime::{CollectMode, EventLog};

    /// Trunk: main, hot, dispatch. Below: cold1 -> cold2 (observe).
    fn program() -> Program {
        let mut b = ProgramBuilder::new("hybrid");
        let c = b.add_class("C", None);
        b.method(c, "cold2", MethodKind::Static)
            .body(|f| {
                f.observe(1);
            })
            .finish();
        b.method(c, "cold1", MethodKind::Static)
            .body(|f| {
                f.call(c, "cold2");
            })
            .finish();
        b.method(c, "hot", MethodKind::Static)
            .work(1)
            .body(|f| {
                f.call(c, "cold1");
                f.observe(2); // a trunk-internal observation
            })
            .finish();
        b.method(c, "dispatch", MethodKind::Static)
            .body(|f| {
                f.call(c, "hot");
                f.call(c, "hot");
            })
            .finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "dispatch");
                f.call(c, "hot");
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    fn method(p: &Program, name: &str) -> MethodId {
        p.declared_method(
            p.class_by_name("C").unwrap(),
            p.symbols().lookup(name).unwrap(),
        )
        .unwrap()
    }

    fn hybrid_plan(p: &Program) -> HybridPlan {
        let trunk: HashSet<MethodId> = ["main", "dispatch", "hot"]
            .iter()
            .map(|n| method(p, n))
            .collect();
        HybridPlan::analyze(p, trunk, &PlanConfig::default()).unwrap()
    }

    #[test]
    fn plan_partitions_sites() {
        let p = program();
        let plan = hybrid_plan(&p);
        // main->dispatch, dispatch->hot x2, main->hot are trunk sites;
        // hot->cold1 is a boundary site (not trunk-internal); cold1->cold2
        // is a delta site.
        let trunk_sites = p
            .sites()
            .iter()
            .filter(|s| plan.is_trunk_site(s.id()))
            .count();
        assert_eq!(trunk_sites, 4);
        assert!(plan.delta_plan().entry(method(&p, "cold1")).is_some());
        assert!(plan.delta_plan().entry(method(&p, "hot")).is_none());
        // cold1 is a boundary target and must be an anchor.
        assert!(
            plan.delta_plan()
                .entry(method(&p, "cold1"))
                .unwrap()
                .is_anchor
        );
    }

    #[test]
    fn hybrid_contexts_decode_with_dictionary() {
        let p = program();
        let plan = hybrid_plan(&p);
        let vm_config = VmConfig::default().with_collect(CollectMode::ObservesOnly);
        let dict = plan.learn_dictionary(&p, vm_config.clone());
        assert!(!dict.is_empty());
        assert_eq!(dict.hash_conflicts, 0);

        let mut vm = Vm::new(&p, vm_config);
        let mut enc = HybridEncoder::new(&plan);
        let mut log = EventLog::default();
        vm.run(&mut enc, &mut log).unwrap();
        // 3 hot invocations -> 3 cold2 events + 3 trunk observes.
        assert_eq!(log.events.len(), 6);

        let decoder = HybridDecoder::new(&plan, &dict);
        let names =
            |ms: &[MethodId]| -> Vec<String> { ms.iter().map(|&m| p.method_name(m)).collect() };
        let mut cold_contexts = Vec::new();
        let mut trunk_contexts = Vec::new();
        for (event, _, capture) in &log.events {
            let decoded = decoder.decode(capture).unwrap();
            if *event == 1 {
                cold_contexts.push(names(&decoded));
            } else {
                trunk_contexts.push(names(&decoded));
            }
        }
        // Cold events: full contexts through trunk + delta suffix.
        assert!(cold_contexts.contains(&vec![
            "C.main".into(),
            "C.dispatch".into(),
            "C.hot".into(),
            "C.cold1".into(),
            "C.cold2".into()
        ]));
        assert!(cold_contexts.contains(&vec![
            "C.main".into(),
            "C.hot".into(),
            "C.cold1".into(),
            "C.cold2".into()
        ]));
        // Trunk events decode from the dictionary alone.
        assert!(trunk_contexts.contains(&vec![
            "C.main".into(),
            "C.dispatch".into(),
            "C.hot".into()
        ]));
        assert!(trunk_contexts.contains(&vec!["C.main".into(), "C.hot".into()]));
    }

    #[test]
    fn distinct_trunk_paths_get_distinct_captures() {
        let p = program();
        let plan = hybrid_plan(&p);
        let vm_config = VmConfig::default().with_collect(CollectMode::ObservesOnly);
        let mut vm = Vm::new(&p, vm_config);
        let mut enc = HybridEncoder::new(&plan);
        let mut log = EventLog::default();
        vm.run(&mut enc, &mut log).unwrap();
        let unique: std::collections::HashSet<_> =
            log.events.iter().map(|(_, _, c)| c.clone()).collect();
        // dispatch invokes hot from two *different sites*, and encodings are
        // site-sensitive (as in the paper, where edges are
        // caller/callee/location triples): 3 distinct trunk site-paths, each
        // captured once inside the trunk and once at the cold leaf.
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn minimal_cpt_meters_only_the_tracking_regions_perform() {
        // Only the static call cold1 -> cold2 reaches cold2, so under
        // minimal call-path tracking that site saves no expectation and
        // cold2's entry checks no SID.
        let p = program();
        let trunk: HashSet<MethodId> = ["main", "dispatch", "hot"]
            .iter()
            .map(|n| method(&p, n))
            .collect();
        let config = PlanConfig::default().with_cpt_minimal();
        let plan = HybridPlan::analyze(&p, trunk, &config).unwrap();
        let cold2 = method(&p, "cold2");
        assert!(!plan.delta_plan().entry(cold2).unwrap().check_sid);

        let mut vm = Vm::new(&p, VmConfig::default());
        let mut enc = HybridEncoder::new(&plan);
        vm.run(&mut enc, &mut EventLog::default()).unwrap();
        let counts = enc.counts();
        // Three hot invocations each open a region that calls cold2 once.
        assert_eq!((counts.adds, counts.subs), (3, 3));
        assert_eq!((counts.pending_saves, counts.sid_checks), (0, 0));
        assert_eq!((counts.pushes, counts.pops), (3, 3), "boundary frames");
    }

    #[test]
    fn trunk_must_contain_entry() {
        let p = program();
        let result = HybridPlan::analyze(&p, HashSet::new(), &PlanConfig::default());
        assert!(matches!(result, Err(EncodeError::NoRoots)));
    }

    #[test]
    fn trunk_from_profile_ranks_by_heat() {
        let p = program();
        let mut profile = HashMap::new();
        profile.insert(method(&p, "hot"), 100u64);
        profile.insert(method(&p, "dispatch"), 50);
        profile.insert(method(&p, "cold1"), 1);
        let trunk = HybridPlan::trunk_from_profile(&p, &profile, 2);
        assert!(trunk.contains(&method(&p, "hot")));
        assert!(trunk.contains(&method(&p, "dispatch")));
        assert!(trunk.contains(&p.entry())); // always included
        assert!(!trunk.contains(&method(&p, "cold1")));
    }
}
