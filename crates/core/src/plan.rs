//! The encoding plan: the complete instrumentation image of a program.
//!
//! [`EncodingPlan::analyze`] is the crate's main entry point. It builds the
//! call graph under the configured analysis and scope, classifies recursion
//! back edges, runs Algorithm 2 with recursion headers and extra roots as
//! forced anchors, computes SIDs for call-path tracking, and packages
//! everything into per-call-site and per-method-entry instructions — the
//! Rust analog of what the original system's Java agent injects with
//! Javassist at class-load time.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::OnceLock;

use deltapath_callgraph::{back_edges, Analysis, CallGraph, GraphConfig, NodeIx, ScopeFilter};
use deltapath_ir::{MethodId, Program, SiteId};
use deltapath_telemetry::{names, NullTelemetry, ScopedSpan, Telemetry};

use crate::algo2::{Algo2Config, Encoding};
use crate::decode::{DecodeOptions, Decoder};
use crate::error::EncodeError;
use crate::plan_compiled::CompiledPlan;
use crate::sid::{Sid, SidTable};
use crate::width::EncodingWidth;

/// Configuration for [`EncodingPlan::analyze`].
#[derive(Clone, Debug)]
pub struct PlanConfig {
    /// Dispatch approximation for call-graph construction.
    pub analysis: Analysis,
    /// Selective-encoding scope (the paper's *encoding-all* vs
    /// *encoding-application*).
    pub scope: ScopeFilter,
    /// The runtime encoding integer width (must be executable, ≤ 64 bits).
    pub width: EncodingWidth,
    /// Whether call-path tracking (SID checks) is enabled. Disabling it
    /// removes the UCP-detection overhead but makes the encoding unsound in
    /// the presence of dynamic class loading or scope exclusion — the
    /// paper's "DeltaPath wo/CPT" configuration.
    pub cpt: bool,
    /// Minimal call-path tracking (paper Section 8, "Optimizations"):
    /// "since the invocation target of a call to a private, static or final
    /// function is fixed, it is impossible that such a call invokes a method
    /// in a dynamically loaded class, so those calls do not need to be
    /// tracked". When enabled (and `cpt` is on), a site saves the expected
    /// SID only if some dispatch target still performs the entry check, and
    /// a method checks at entry only if it is a possible unexpected-entry
    /// point (scope-exit candidate) or is reachable through virtual
    /// dispatch. Sound under the paper's stated assumption that the
    /// functions interacting with dynamically loaded code are pre-known
    /// (here: dynamic classes enter only through virtual dispatch or
    /// scope-exit candidates, never by naming an unchecked method
    /// directly).
    pub cpt_minimal: bool,
    /// Promote every method that statically visible out-of-scope code can
    /// call to an anchor. Hazardous-UCP pieces rooted at such methods then
    /// decode exactly (via per-anchor tables) instead of by search — an
    /// implementation refinement over the paper, which leaves UCP-piece
    /// decoding unspecified. Costs one stack push per entry of those
    /// methods. Only affects selective encoding; entries from dynamically
    /// loaded classes remain statically unknowable and use search decoding.
    pub anchor_ucp_entries: bool,
    /// Batched overflow handling for Algorithm 2 (see
    /// [`Algo2Config::batch_overflow`]). `false` (the default) restarts the
    /// analysis after every single overflow — the paper's `goto again`
    /// loop, whose restart counts we report. `true` collects every
    /// overflowing caller per pass and anchors them together, dropping the
    /// restart count from O(anchors) to a handful — the mode million-node
    /// planning uses.
    pub batch_overflow: bool,
    /// Optional territory-overlap cap for Algorithm 2 (see
    /// [`Algo2Config::territory_budget`]). `None` (the default) keeps the
    /// paper's anchor placement; a small budget (8–64) pre-places anchors
    /// so million-node planning stays linear in the graph.
    pub territory_budget: Option<u64>,
    /// Methods to promote to anchors beyond what the analysis forces
    /// (recursion headers, roots, UCP entry candidates). Methods not in the
    /// encoded graph are ignored. Splitting a long territory at a chosen
    /// method is how plan-transformation tooling (and the differential-audit
    /// test suite) models a localized anchor-placement change.
    pub extra_anchor_methods: Vec<MethodId>,
}

impl Default for PlanConfig {
    /// CHA analysis, full scope, 64-bit width, call-path tracking on.
    fn default() -> Self {
        Self {
            analysis: Analysis::Cha,
            scope: ScopeFilter::All,
            width: EncodingWidth::U64,
            cpt: true,
            cpt_minimal: false,
            anchor_ucp_entries: true,
            batch_overflow: false,
            territory_budget: None,
            extra_anchor_methods: Vec::new(),
        }
    }
}

impl PlanConfig {
    /// Sets the scope filter.
    pub fn with_scope(mut self, scope: ScopeFilter) -> Self {
        self.scope = scope;
        self
    }

    /// Sets the dispatch analysis.
    pub fn with_analysis(mut self, analysis: Analysis) -> Self {
        self.analysis = analysis;
        self
    }

    /// Sets the encoding width.
    pub fn with_width(mut self, width: EncodingWidth) -> Self {
        self.width = width;
        self
    }

    /// Enables or disables call-path tracking.
    pub fn with_cpt(mut self, cpt: bool) -> Self {
        self.cpt = cpt;
        self
    }

    /// Enables minimal call-path tracking (see
    /// [`cpt_minimal`](PlanConfig::cpt_minimal)).
    pub fn with_cpt_minimal(mut self) -> Self {
        self.cpt_minimal = true;
        self
    }

    /// Enables batched overflow handling (see
    /// [`batch_overflow`](PlanConfig::batch_overflow)).
    pub fn with_batch_overflow(mut self) -> Self {
        self.batch_overflow = true;
        self
    }

    /// Caps territory overlap (see
    /// [`territory_budget`](PlanConfig::territory_budget)).
    pub fn with_territory_budget(mut self, budget: u64) -> Self {
        self.territory_budget = Some(budget.max(1));
        self
    }

    /// Adds a method to promote to an anchor (see
    /// [`extra_anchor_methods`](PlanConfig::extra_anchor_methods)).
    pub fn with_extra_anchor_method(mut self, method: MethodId) -> Self {
        self.extra_anchor_methods.push(method);
        self
    }
}

/// What the instrumentation does at one call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteInstr {
    /// The site's single addition value (`ID += av` before the call,
    /// `ID -= av` after it returns). Zero for sites whose every target is
    /// outside the encoded graph.
    pub av: u64,
    /// Whether the ID arithmetic is actually emitted (the site has at least
    /// one target in the encoded graph). Non-encoded sites still save the
    /// expected SID when call-path tracking is on.
    pub encoded: bool,
    /// The SID every statically known target of this site shares, or
    /// [`Sid::UNKNOWN`] when no target is in the encoded graph.
    pub expected_sid: Sid,
    /// The method containing this site (needed during decoding to attribute
    /// pieces that end at a call site).
    pub caller: MethodId,
    /// Whether the site saves the expected SID when call-path tracking is
    /// on. Always true under full tracking; under minimal tracking, false
    /// for fixed-target sites whose every callee skips the entry check.
    pub tracked: bool,
}

/// What the instrumentation does at one method entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryInstr {
    /// The method's SID, compared against the caller-saved expectation.
    pub sid: Sid,
    /// Whether the method is an anchor: its entry pushes the current ID and
    /// resets it.
    pub is_anchor: bool,
    /// Whether the entry performs the SID check when call-path tracking is
    /// on. Always true under full tracking; under minimal tracking, false
    /// for methods reachable only through fixed-target calls.
    pub check_sid: bool,
}

/// Stable per-row 64-bit content digests over every encoding table the
/// static auditor reads, computed once per plan and cached (see
/// [`EncodingPlan::table_digests`]). Differential analysis compares the old
/// and new plans' digests row by row: equal digests mean the row's audited
/// content is unchanged, so baseline findings about it can be reused; a
/// differing digest marks the row dirty for re-audit. The digests are a
/// content hash, not a semantic judgement — two *different* rows hash
/// differently (up to 64-bit collision odds), and the delta auditor only
/// ever uses equality to *skip* work whose inputs are bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableDigests {
    /// Per graph node: anchor flag, `nanchors` owner row (ordered), and the
    /// node's ICC row (order-insensitive).
    pub nodes: Vec<u64>,
    /// Per graph edge: exclusion status and `eanchors` owner row (ordered).
    pub edges: Vec<u64>,
    /// Per call site (dense by site index over instruction and
    /// addition-value domains): the site instruction fields and the site's
    /// addition value. Absent rows digest to 0.
    pub sites: Vec<u64>,
    /// Per method (dense by method index): the entry instruction fields.
    /// Absent rows digest to 0.
    pub entries: Vec<u64>,
}

/// Lazily computed, eagerly invalidated [`TableDigests`] cache. Cloning a
/// plan clones the computed digests (they describe content, which cloning
/// preserves); taking any `&mut` table accessor clears them.
#[derive(Debug, Default)]
struct DigestCache(OnceLock<TableDigests>);

impl Clone for DigestCache {
    fn clone(&self) -> Self {
        let cache = OnceLock::new();
        if let Some(d) = self.0.get() {
            let _ = cache.set(d.clone());
        }
        Self(cache)
    }
}

/// The complete instrumentation image of a program: the encoded call graph,
/// Algorithm 2's tables, SIDs, and the per-site/per-entry instructions.
#[derive(Clone, Debug)]
pub struct EncodingPlan {
    config: PlanConfig,
    graph: CallGraph,
    encoding: Encoding,
    sids: SidTable,
    sites: HashMap<SiteId, SiteInstr>,
    entries: HashMap<MethodId, EntryInstr>,
    /// `(site, callee method)` pairs that are recursion back edges.
    back_edge_calls: HashSet<(SiteId, MethodId)>,
    entry_method: MethodId,
    digests: DigestCache,
}

impl EncodingPlan {
    /// Statically analyses `program` and produces its instrumentation plan.
    ///
    /// # Errors
    ///
    /// * [`EncodeError::NotExecutable`] — `config.width` exceeds 64 bits;
    /// * [`EncodeError::NoRoots`] — nothing is reachable under the scope;
    /// * [`EncodeError::WidthTooSmall`] — see [`Encoding::analyze`].
    pub fn analyze(program: &Program, config: &PlanConfig) -> Result<Self, EncodeError> {
        Self::analyze_with(program, config, &NullTelemetry)
    }

    /// As [`EncodingPlan::analyze`], emitting timed spans into `sink`:
    /// `plan.graph_build` for call-graph construction, then everything
    /// [`EncodingPlan::from_graph_with`] emits. Against a disabled sink
    /// this is exactly [`EncodingPlan::analyze`].
    ///
    /// # Errors
    ///
    /// As for [`EncodingPlan::analyze`].
    pub fn analyze_with(
        program: &Program,
        config: &PlanConfig,
        sink: &dyn Telemetry,
    ) -> Result<Self, EncodeError> {
        if !config.width.is_executable() {
            return Err(EncodeError::NotExecutable {
                width: config.width,
            });
        }
        let graph_config = GraphConfig {
            analysis: config.analysis,
            scope: config.scope,
            include_dynamic: false,
        };
        let graph_span = ScopedSpan::enter(sink, names::PLAN_GRAPH_BUILD);
        let graph = CallGraph::build(program, &graph_config);
        graph_span.finish(&[
            ("nodes", graph.node_count() as u64),
            ("edges", graph.edge_count() as u64),
        ]);
        Self::from_graph_with(program, graph, config, sink)
    }

    /// Reassembles a plan from already-validated parts — the inverse of
    /// taking a plan apart section by section, used by the canonical plan
    /// parser (`parse_plan`). The caller is responsible for shape
    /// consistency; `audit_plan` is the tool that verifies semantic
    /// consistency afterwards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: PlanConfig,
        graph: CallGraph,
        encoding: Encoding,
        sids: SidTable,
        sites: HashMap<SiteId, SiteInstr>,
        entries: HashMap<MethodId, EntryInstr>,
        back_edge_calls: HashSet<(SiteId, MethodId)>,
        entry_method: MethodId,
    ) -> Self {
        Self {
            config,
            graph,
            encoding,
            sids,
            sites,
            entries,
            back_edge_calls,
            entry_method,
            digests: DigestCache::default(),
        }
    }

    /// Builds a plan over an already-constructed (possibly transformed, e.g.
    /// [pruned](crate::prune_to_targets)) call graph.
    ///
    /// # Errors
    ///
    /// As for [`EncodingPlan::analyze`].
    pub fn from_graph(
        program: &Program,
        graph: CallGraph,
        config: &PlanConfig,
    ) -> Result<Self, EncodeError> {
        Self::from_graph_with(program, graph, config, &NullTelemetry)
    }

    /// As [`EncodingPlan::from_graph`], emitting timed spans into `sink`,
    /// all nested under a `plan.analyze` span covering the whole plan
    /// construction: `plan.back_edges` for back-edge classification,
    /// the `algo2.*` spans of [`Encoding::analyze_with`], `plan.sids` for
    /// SID computation and `plan.instructions` for per-site instruction
    /// packaging. Against a disabled sink this is exactly
    /// [`EncodingPlan::from_graph`].
    ///
    /// # Errors
    ///
    /// As for [`EncodingPlan::analyze`].
    pub fn from_graph_with(
        program: &Program,
        graph: CallGraph,
        config: &PlanConfig,
        sink: &dyn Telemetry,
    ) -> Result<Self, EncodeError> {
        let total = ScopedSpan::enter(sink, names::PLAN_ANALYZE);
        if !config.width.is_executable() {
            return Err(EncodeError::NotExecutable {
                width: config.width,
            });
        }
        let back_edge_span = ScopedSpan::enter(sink, names::PLAN_BACK_EDGES);
        let info = back_edges(&graph);
        let excluded: HashSet<_> = info.back_edges.iter().copied().collect();
        let mut forced = info.headers.clone();
        if config.anchor_ucp_entries {
            forced.extend_from_slice(graph.ucp_entry_candidates());
        }
        for &method in &config.extra_anchor_methods {
            if let Some(node) = graph.node_of(method) {
                forced.push(node);
            }
        }
        back_edge_span.finish(&[
            ("back_edges", info.back_edges.len() as u64),
            ("forced_anchors", forced.len() as u64),
        ]);
        let mut algo2_config = Algo2Config::new(config.width).with_forced_anchors(forced);
        if config.batch_overflow {
            algo2_config = algo2_config.with_batch_overflow();
        }
        if let Some(budget) = config.territory_budget {
            algo2_config = algo2_config.with_territory_budget(budget);
        }
        let encoding = Encoding::analyze_with(&graph, &excluded, &algo2_config, sink)?;
        let sid_span = ScopedSpan::enter(sink, names::PLAN_SIDS);
        let sids = SidTable::compute(&graph);
        sid_span.finish(&[("nodes", graph.node_count() as u64)]);

        let instr_span = ScopedSpan::enter(sink, names::PLAN_INSTRUCTIONS);
        let mut back_edge_calls = HashSet::new();
        for &e in &info.back_edges {
            let edge = graph.edge(e);
            back_edge_calls.insert((edge.site, graph.method_of(edge.callee)));
        }

        // Minimal call-path tracking (Section 8): a method keeps its entry
        // check iff dynamically loaded or excluded code could plausibly
        // enter it — it is a scope-exit candidate, or some in-edge comes
        // from a virtual (mutable-target) site. A site keeps the pending
        // save iff some target still checks (or it leaves the encoded
        // region, expected SID unknown).
        let check_entry: Vec<bool> = graph
            .nodes()
            .map(|node| {
                if !config.cpt_minimal {
                    return true;
                }
                if graph.ucp_entry_candidates().contains(&node) {
                    return true;
                }
                graph.in_edges(node).iter().any(|&e| {
                    program.site(graph.edge(e).site).kind() == deltapath_ir::CallKind::Virtual
                })
            })
            .collect();

        let mut sites: HashMap<SiteId, SiteInstr> = HashMap::new();
        for site in program.sites() {
            let Some(_) = graph.node_of(site.caller()) else {
                continue; // Caller not instrumented: site emits nothing.
            };
            let edges = graph.site_edges(site.id());
            let encoded = encoding.site_av.contains_key(&site.id());
            let av = encoding
                .site_av
                .get(&site.id())
                .copied()
                .map(|v| u64::try_from(v).expect("executable width fits u64"))
                .unwrap_or(0);
            let expected_sid = edges
                .first()
                .map(|&e| sids.sid_of_node_index(graph.edge(e).callee.index()))
                .unwrap_or(Sid::UNKNOWN);
            // Sites with no in-graph targets leave the encoded region: the
            // pending save (UNKNOWN) is what lets the next encoded entry
            // detect the boundary, so they stay tracked even in minimal
            // mode.
            let tracked = !config.cpt_minimal
                || edges.is_empty()
                || edges
                    .iter()
                    .any(|&e| check_entry[graph.edge(e).callee.index()]);
            sites.insert(
                site.id(),
                SiteInstr {
                    av,
                    encoded,
                    expected_sid,
                    caller: site.caller(),
                    tracked,
                },
            );
        }

        let entries: HashMap<MethodId, EntryInstr> = graph
            .nodes()
            .map(|node| {
                (
                    graph.method_of(node),
                    EntryInstr {
                        sid: sids.sid_of_node_index(node.index()),
                        is_anchor: encoding.is_anchor[node.index()],
                        check_sid: check_entry[node.index()],
                    },
                )
            })
            .collect();

        instr_span.finish(&[
            ("sites", sites.len() as u64),
            ("entries", entries.len() as u64),
        ]);

        let plan = Self {
            config: config.clone(),
            entry_method: program.entry(),
            graph,
            encoding,
            sids,
            sites,
            entries,
            back_edge_calls,
            digests: DigestCache::default(),
        };
        // Seal the table digests while the tables are hot: differential
        // audits then compare them for free instead of paying a full-table
        // sweep at delta time.
        let digest_span = ScopedSpan::enter(sink, names::PLAN_DIGESTS);
        let digests = plan.table_digests();
        digest_span.finish(&[
            ("nodes", digests.nodes.len() as u64),
            ("edges", digests.edges.len() as u64),
        ]);
        total.finish(&[
            ("methods", plan.entries.len() as u64),
            ("sites", plan.sites.len() as u64),
            ("anchors", plan.encoding.anchors.len() as u64),
            ("back_edges", info.back_edges.len() as u64),
        ]);
        Ok(plan)
    }

    /// The plan's configuration.
    pub fn config(&self) -> &PlanConfig {
        &self.config
    }

    /// The encoded call graph.
    pub fn graph(&self) -> &CallGraph {
        &self.graph
    }

    /// Algorithm 2's result (addition values, ICC tables, anchors).
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// The SID table.
    pub fn sids(&self) -> &SidTable {
        &self.sids
    }

    /// The program's entry method.
    pub fn entry_method(&self) -> MethodId {
        self.entry_method
    }

    /// The instrumentation at `site`, or `None` if the site's caller is not
    /// in the encoded graph (no instrumentation emitted).
    pub fn site(&self, site: SiteId) -> Option<&SiteInstr> {
        self.sites.get(&site)
    }

    /// The instrumentation at the entry of `method`, or `None` if the
    /// method is not in the encoded graph.
    pub fn entry(&self, method: MethodId) -> Option<&EntryInstr> {
        self.entries.get(&method)
    }

    /// Whether dispatching `site` to `callee` takes a recursion back edge.
    pub fn is_back_edge_call(&self, site: SiteId, callee: MethodId) -> bool {
        self.back_edge_calls.contains(&(site, callee))
    }

    /// All per-site instructions, keyed by site (unordered).
    pub fn site_instrs(&self) -> impl Iterator<Item = (SiteId, &SiteInstr)> + '_ {
        self.sites.iter().map(|(&s, i)| (s, i))
    }

    /// All per-entry instructions, keyed by method (unordered).
    pub fn entry_instrs(&self) -> impl Iterator<Item = (MethodId, &EntryInstr)> + '_ {
        self.entries.iter().map(|(&m, i)| (m, i))
    }

    /// All `(site, callee)` pairs classified as recursion back-edge calls
    /// (unordered).
    pub fn back_edge_call_pairs(&self) -> impl Iterator<Item = (SiteId, MethodId)> + '_ {
        self.back_edge_calls.iter().copied()
    }

    /// Mutable access to the Algorithm 2 tables.
    ///
    /// This deliberately breaks the plan's internal consistency guarantees:
    /// it exists so fault-injection tests (and plan-transformation tooling
    /// that re-validates afterwards) can corrupt individual tables and
    /// assert the static auditor catches each corruption. Production code
    /// never mutates an analyzed plan.
    pub fn encoding_mut(&mut self) -> &mut Encoding {
        self.digests.0.take();
        &mut self.encoding
    }

    /// Mutable access to the SID table (see
    /// [`encoding_mut`](EncodingPlan::encoding_mut) for the intended use).
    pub fn sids_mut(&mut self) -> &mut SidTable {
        self.digests.0.take();
        &mut self.sids
    }

    /// Mutable access to one site instruction (see
    /// [`encoding_mut`](EncodingPlan::encoding_mut) for the intended use).
    pub fn site_instr_mut(&mut self, site: SiteId) -> Option<&mut SiteInstr> {
        self.digests.0.take();
        self.sites.get_mut(&site)
    }

    /// Mutable access to one entry instruction (see
    /// [`encoding_mut`](EncodingPlan::encoding_mut) for the intended use).
    pub fn entry_instr_mut(&mut self, method: MethodId) -> Option<&mut EntryInstr> {
        self.digests.0.take();
        self.entries.get_mut(&method)
    }

    /// Mutable access to the recursion back-edge pair set (see
    /// [`encoding_mut`](EncodingPlan::encoding_mut) for the intended use —
    /// fault injection against the compiled image's back-edge lookup
    /// table).
    pub fn back_edge_calls_mut(&mut self) -> &mut HashSet<(SiteId, MethodId)> {
        self.digests.0.take();
        &mut self.back_edge_calls
    }

    /// The plan's [`TableDigests`], computed on first use and cached.
    /// Freshly analysed plans ([`EncodingPlan::from_graph_with`]) seal the
    /// digests at construction time, so this is free at audit time; parsed
    /// or mutated plans pay one full-table sweep here. Every `&mut` table
    /// accessor invalidates the cache, so a stale digest can never describe
    /// a mutated table.
    pub fn table_digests(&self) -> &TableDigests {
        self.digests.0.get_or_init(|| self.compute_table_digests())
    }

    fn compute_table_digests(&self) -> TableDigests {
        // The same keyed 64-bit mix anchor_fingerprints uses, seeded per
        // table so a node row and an edge row never collide trivially.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(K).rotate_left(5)
        }
        #[inline]
        fn mix128(h: u64, v: u128) -> u64 {
            mix(mix(h, v as u64), (v >> 64) as u64)
        }
        let enc = &self.encoding;
        let g = &self.graph;

        // Nodes: anchor flag, owner row (ordered — row order is part of the
        // stored table), ICC row (order-insensitive sum — HashMap iteration
        // order is not content).
        let n = g
            .node_count()
            .max(enc.is_anchor.len())
            .max(enc.nanchors.len())
            .max(enc.icc.len());
        let mut nodes = vec![0u64; n];
        for (i, slot) in nodes.iter_mut().enumerate() {
            let mut h = match enc.is_anchor.get(i) {
                Some(&a) => mix(0xA1, u64::from(a)),
                None => 0xA2,
            };
            h = match enc.nanchors.get(i) {
                Some(row) => row.iter().fold(mix(h, 1), |h, r| mix(h, r.index() as u64)),
                None => mix(h, 2),
            };
            let icc_sum = match enc.icc.get(i) {
                Some(row) => row.iter().fold(1u64, |acc, (r, &v)| {
                    acc.wrapping_add(mix128(mix(0xB1, r.index() as u64), v))
                }),
                None => 0,
            };
            *slot = h ^ icc_sum;
        }

        // Edges: exclusion status and owner row (ordered).
        let m = g.edge_count().max(enc.eanchors.len()).max(
            enc.excluded
                .iter()
                .map(|e| e.index() + 1)
                .max()
                .unwrap_or(0),
        );
        let mut excluded = vec![false; m];
        for e in &enc.excluded {
            excluded[e.index()] = true;
        }
        let mut edges = vec![0u64; m];
        for (i, slot) in edges.iter_mut().enumerate() {
            let mut h = mix(0xC1, u64::from(excluded[i]));
            h = match enc.eanchors.get(i) {
                Some(row) => row.iter().fold(mix(h, 1), |h, r| mix(h, r.index() as u64)),
                None => mix(h, 2),
            };
            *slot = h;
        }

        // Sites: instruction fields plus the addition value, combined
        // order-insensitively (the two come from different maps). Dense over
        // the union of both key domains; absent sites digest to 0.
        let max_site = self
            .sites
            .keys()
            .map(|s| s.index() + 1)
            .chain(enc.site_av.keys().map(|s| s.index() + 1))
            .max()
            .unwrap_or(0);
        let mut sites = vec![0u64; max_site];
        for (s, i) in &self.sites {
            let h = mix(
                mix(
                    mix(
                        mix(mix(0xD1, i.av), u64::from(i.encoded)),
                        u64::from(i.tracked),
                    ),
                    u64::from(i.expected_sid.as_u32()),
                ),
                i.caller.index() as u64,
            );
            sites[s.index()] = sites[s.index()].wrapping_add(h);
        }
        for (s, &av) in &enc.site_av {
            sites[s.index()] = sites[s.index()].wrapping_add(mix128(0xD2, av));
        }

        // Entries: the entry instruction fields, dense by method index.
        let max_method = self
            .entries
            .keys()
            .map(|m| m.index() + 1)
            .max()
            .unwrap_or(0);
        let mut entries = vec![0u64; max_method];
        for (m, i) in &self.entries {
            let h = mix(
                mix(mix(0xE1, u64::from(i.sid.as_u32())), u64::from(i.is_anchor)),
                u64::from(i.check_sid),
            );
            entries[m.index()] = entries[m.index()].wrapping_add(h);
        }

        TableDigests {
            nodes,
            edges,
            sites,
            entries,
        }
    }

    /// All call sites carrying any instrumentation (ID arithmetic and/or
    /// call-path-tracking expectation saves) — i.e. every site inside an
    /// instrumented method.
    pub fn cpt_site_ids(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.sites.keys().copied()
    }

    /// Number of call sites whose ID arithmetic is emitted (the paper's
    /// Table 1 *CS* column).
    pub fn instrumented_site_count(&self) -> usize {
        self.sites.values().filter(|s| s.encoded).count()
    }

    /// Number of instrumented methods.
    pub fn instrumented_method_count(&self) -> usize {
        self.entries.len()
    }

    /// A decoder over this plan with default options.
    pub fn decoder(&self) -> Decoder<'_> {
        Decoder::new(self, DecodeOptions::default())
    }

    /// Lowers the plan into dense dispatch tables for the batched
    /// encoder hot path (see [`CompiledPlan`]). The tables are a pure
    /// projection of this plan; after any plan change (e.g. re-analysis on
    /// dynamic class loading) the compiled image must be rebuilt.
    pub fn compile(&self) -> CompiledPlan {
        CompiledPlan::lower(self)
    }

    /// A canonical, deterministic dump of everything this plan instructs
    /// the runtime and decoder to do: the graph shape, Algorithm 2's
    /// tables, SIDs, and the per-site/per-entry instructions, with every
    /// unordered container sorted. Two plans with equal fingerprints are
    /// operationally identical.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let g = &self.graph;
        out.push_str(&self.config_line());
        out.push('\n');
        for node in g.nodes() {
            writeln!(
                out,
                "node {} method={}",
                node.index(),
                g.method_of(node).index()
            )
            .unwrap();
        }
        for (i, edge) in g.edges().iter().enumerate() {
            writeln!(
                out,
                "edge {} {}->{} site={}",
                i,
                edge.caller.index(),
                edge.callee.index(),
                edge.site.index(),
            )
            .unwrap();
        }
        let enc = &self.encoding;
        let anchors: Vec<usize> = enc.anchors.iter().map(|a| a.index()).collect();
        let overflow: Vec<usize> = enc.overflow_anchors.iter().map(|a| a.index()).collect();
        writeln!(out, "anchors={anchors:?} overflow={overflow:?}").unwrap();
        writeln!(out, "max_icc={} restarts={}", enc.max_icc, enc.restarts).unwrap();
        let mut site_av: Vec<(usize, u128)> =
            enc.site_av.iter().map(|(s, &v)| (s.index(), v)).collect();
        site_av.sort_unstable();
        for (site, av) in site_av {
            writeln!(out, "av site={site} {av}").unwrap();
        }
        for (n, icc) in enc.icc.iter().enumerate() {
            let mut rows: Vec<(usize, u128)> = icc.iter().map(|(r, &v)| (r.index(), v)).collect();
            rows.sort_unstable();
            writeln!(out, "icc node={n} {rows:?}").unwrap();
        }
        for (n, owners) in enc.nanchors.iter().enumerate() {
            let owners: Vec<usize> = owners.iter().map(|r| r.index()).collect();
            writeln!(out, "nanchors node={n} {owners:?}").unwrap();
        }
        for (e, owners) in enc.eanchors.iter().enumerate() {
            let owners: Vec<usize> = owners.iter().map(|r| r.index()).collect();
            writeln!(out, "eanchors edge={e} {owners:?}").unwrap();
        }
        let mut excluded: Vec<usize> = enc.excluded.iter().map(|e| e.index()).collect();
        excluded.sort_unstable();
        writeln!(out, "excluded={excluded:?}").unwrap();
        for node in g.nodes() {
            writeln!(
                out,
                "sid node={} {:?}",
                node.index(),
                self.sids.sid_of_node_index(node.index()),
            )
            .unwrap();
        }
        out.push_str(&self.instruction_fingerprint());
        out
    }

    /// The configuration line of [`EncodingPlan::fingerprint`] alone: the
    /// semantically relevant knobs plus the entry method. Two plans whose
    /// config lines differ were produced under different rules, so no
    /// incremental certification between them is meaningful.
    pub fn config_line(&self) -> String {
        format!(
            "width={:?} cpt={} cpt_minimal={} anchor_ucp={} batch={} budget={:?} entry={}",
            self.config.width,
            self.config.cpt,
            self.config.cpt_minimal,
            self.config.anchor_ucp_entries,
            self.config.batch_overflow,
            self.config.territory_budget,
            self.entry_method.index(),
        )
    }

    /// A 64-bit digest per anchor over everything the per-anchor audit
    /// passes read about that anchor's stored region: the encoding width,
    /// the anchor's identity, each covered node's index / anchor flag /
    /// ICC row entry, and each covered edge's endpoints / site / addition
    /// value / exclusion status. Every `r` referenced by any `nanchors`,
    /// `eanchors`, or ICC row gets a digest, so a stray owner entry is
    /// visible as a key the baseline lacks. Equal digests with an equal
    /// surrounding graph region mean the per-anchor audit re-derives the
    /// same result — the certification record `audit_delta` stores per
    /// baseline anchor.
    pub fn anchor_fingerprints(&self) -> BTreeMap<NodeIx, u64> {
        // FNV-1a-style 64-bit stream hash, one u64 word per step. The
        // rotate spreads entropy faster than byte-at-a-time FNV, which
        // matters at million-node scale.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        fn step(h: &mut u64, v: u64) {
            *h = (h.rotate_left(5) ^ v).wrapping_mul(K);
        }
        fn step128(h: &mut u64, v: u128) {
            step(h, v as u64);
            step(h, (v >> 64) as u64);
        }
        let enc = &self.encoding;
        let g = &self.graph;
        let width_bits = u64::from(enc.width.bits());
        let seeded = |r: NodeIx| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            step(&mut h, width_bits);
            step(&mut h, r.index() as u64);
            h
        };
        let mut fps: BTreeMap<NodeIx, u64> = enc.anchors.iter().map(|&r| (r, seeded(r))).collect();
        for (n, owners) in enc.nanchors.iter().enumerate() {
            for &r in owners {
                let h = fps.entry(r).or_insert_with(|| seeded(r));
                step(h, 1);
                step(h, n as u64);
                step(h, u64::from(*enc.is_anchor.get(n).unwrap_or(&false)));
                match enc.icc.get(n).and_then(|row| row.get(&r)) {
                    Some(&v) => {
                        step(h, 2);
                        step128(h, v);
                    }
                    None => step(h, 3),
                }
            }
        }
        for (n, row) in enc.icc.iter().enumerate() {
            let mut keys: Vec<NodeIx> = row.keys().copied().collect();
            keys.sort_unstable();
            for r in keys {
                let h = fps.entry(r).or_insert_with(|| seeded(r));
                step(h, 4);
                step(h, n as u64);
                step128(h, row[&r]);
            }
        }
        for (e, owners) in enc.eanchors.iter().enumerate() {
            let edge = g.edges().get(e);
            for &r in owners {
                let h = fps.entry(r).or_insert_with(|| seeded(r));
                step(h, 5);
                step(h, e as u64);
                if let Some(edge) = edge {
                    step(h, edge.caller.index() as u64);
                    step(h, edge.callee.index() as u64);
                    step(h, edge.site.index() as u64);
                    match enc.site_av.get(&edge.site) {
                        Some(&av) => {
                            step(h, 6);
                            step128(h, av);
                        }
                        None => step(h, 7),
                    }
                    step(
                        h,
                        u64::from(
                            enc.excluded
                                .contains(&deltapath_callgraph::EdgeIx::from_index(e)),
                        ),
                    );
                }
            }
        }
        fps
    }

    /// The instruction sections of [`EncodingPlan::fingerprint`] alone: the
    /// per-site and per-entry instructions and the back-edge call pairs,
    /// canonically sorted. [`CompiledPlan::instruction_fingerprint`] renders
    /// the same sections from its tables, so byte equality of the two
    /// strings proves the lowering lost nothing.
    pub fn instruction_fingerprint(&self) -> String {
        render_instructions(
            self.sites.iter().map(|(&s, &i)| (s, i)),
            self.entries.iter().map(|(&m, &i)| (m, i)),
            self.back_edge_calls.iter().copied(),
        )
    }
}

/// Renders the canonical instruction dump shared by
/// [`EncodingPlan::instruction_fingerprint`] and
/// [`CompiledPlan::instruction_fingerprint`]. Inputs may arrive unordered;
/// the output is sorted by index.
pub(crate) fn render_instructions(
    sites: impl Iterator<Item = (SiteId, SiteInstr)>,
    entries: impl Iterator<Item = (MethodId, EntryInstr)>,
    backs: impl Iterator<Item = (SiteId, MethodId)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut sites: Vec<(usize, SiteInstr)> = sites.map(|(s, i)| (s.index(), i)).collect();
    sites.sort_unstable_by_key(|&(s, _)| s);
    for (site, instr) in sites {
        writeln!(
            out,
            "site {site} av={} encoded={} sid={:?} caller={} tracked={}",
            instr.av,
            instr.encoded,
            instr.expected_sid,
            instr.caller.index(),
            instr.tracked,
        )
        .unwrap();
    }
    let mut entries: Vec<(usize, EntryInstr)> = entries.map(|(m, i)| (m.index(), i)).collect();
    entries.sort_unstable_by_key(|&(m, _)| m);
    for (method, instr) in entries {
        writeln!(
            out,
            "entry {method} sid={:?} anchor={} check={}",
            instr.sid, instr.is_anchor, instr.check_sid,
        )
        .unwrap();
    }
    let mut backs: Vec<(usize, usize)> = backs.map(|(s, m)| (s.index(), m.index())).collect();
    backs.sort_unstable();
    writeln!(out, "back_edge_calls={backs:?}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_ir::{MethodKind, ProgramBuilder, Receiver};

    fn build_program() -> Program {
        let mut b = ProgramBuilder::new("plan");
        let a = b.add_class("A", None);
        let c1 = b.add_class("C1", Some(a));
        b.method(a, "f", MethodKind::Virtual).finish();
        b.method(c1, "f", MethodKind::Virtual).finish();
        // Recursive helper: rec -> rec (self back edge).
        b.method(a, "rec", MethodKind::Static)
            .body(|f| {
                f.if_mod(
                    4,
                    0,
                    |_| {},
                    |f| {
                        f.call_arg(
                            deltapath_ir::ClassId::from_index(0),
                            "rec",
                            deltapath_ir::ArgExpr::ParamPlus(1),
                        );
                    },
                );
            })
            .finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.vcall(a, "f", Receiver::Cycle(vec![a, c1]));
                f.call(deltapath_ir::ClassId::from_index(0), "rec");
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn plan_contains_all_parts() {
        let p = build_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        assert_eq!(plan.instrumented_method_count(), 4); // main, A.f, C1.f, rec
                                                         // The rec self-call site is back-edge-only: no ID arithmetic, so
                                                         // only the vcall and main->rec sites are counted.
        assert_eq!(plan.instrumented_site_count(), 2);
        // rec is a recursion header, so it is an anchor.
        let rec = p
            .declared_method(
                p.class_by_name("A").unwrap(),
                p.symbols().lookup("rec").unwrap(),
            )
            .unwrap();
        assert!(plan.entry(rec).unwrap().is_anchor);
        // The self-call is a back-edge call.
        let rec_site = p.sites().iter().find(|s| s.caller() == rec).unwrap().id();
        assert!(plan.is_back_edge_call(rec_site, rec));
    }

    #[test]
    fn virtual_targets_share_expected_sid() {
        let p = build_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let a = p.class_by_name("A").unwrap();
        let f_sym = p.symbols().lookup("f").unwrap();
        let af = p.declared_method(a, f_sym).unwrap();
        let c1f = p
            .declared_method(p.class_by_name("C1").unwrap(), f_sym)
            .unwrap();
        assert_eq!(plan.entry(af).unwrap().sid, plan.entry(c1f).unwrap().sid);
        let vsite = p
            .sites()
            .iter()
            .find(|s| s.kind() == deltapath_ir::CallKind::Virtual)
            .unwrap();
        assert_eq!(
            plan.site(vsite.id()).unwrap().expected_sid,
            plan.entry(af).unwrap().sid
        );
    }

    #[test]
    fn unexecutable_width_is_rejected() {
        let p = build_program();
        let cfg = PlanConfig::default().with_width(EncodingWidth::UNBOUNDED);
        assert!(matches!(
            EncodingPlan::analyze(&p, &cfg),
            Err(EncodeError::NotExecutable { .. })
        ));
    }

    #[test]
    fn library_only_callers_have_no_site_instr() {
        let mut b = ProgramBuilder::new("scoped");
        let app = b.add_class("App", None);
        let lib = b.add_library_class("Lib", None);
        b.method(app, "leaf", MethodKind::Static).finish();
        b.method(lib, "mid", MethodKind::Static)
            .body(|f| {
                f.call(app, "leaf");
            })
            .finish();
        let main = b
            .method(app, "main", MethodKind::Static)
            .body(|f| {
                f.call(lib, "mid");
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let cfg = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
        let plan = EncodingPlan::analyze(&p, &cfg).unwrap();
        // main's call to Lib.mid: caller instrumented, no encoded target.
        let main_site = p.sites().iter().find(|s| s.caller() == main).unwrap();
        let instr = plan.site(main_site.id()).unwrap();
        assert!(!instr.encoded);
        assert_eq!(instr.av, 0);
        assert_eq!(instr.expected_sid, Sid::UNKNOWN);
        // Lib.mid's call site emits nothing at all.
        let lib_mid_site = p.sites().iter().find(|s| s.caller() != main).unwrap();
        assert!(plan.site(lib_mid_site.id()).is_none());
        // App.leaf is a root (only called from excluded code) → anchor.
        let leaf = p
            .declared_method(
                p.class_by_name("App").unwrap(),
                p.symbols().lookup("leaf").unwrap(),
            )
            .unwrap();
        assert!(plan.entry(leaf).unwrap().is_anchor);
    }
}
