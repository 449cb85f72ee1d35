//! The encoding plan: the complete instrumentation image of a program.
//!
//! [`EncodingPlan::analyze`] is the crate's main entry point. It builds the
//! call graph under the configured analysis and scope, classifies recursion
//! back edges, runs Algorithm 2 with recursion headers and extra roots as
//! forced anchors, computes SIDs for call-path tracking, and packages
//! everything into per-call-site and per-method-entry instructions — the
//! Rust analog of what the original system's Java agent injects with
//! Javassist at class-load time.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, Write};

use deltapath_callgraph::{back_edges, Analysis, CallGraph, GraphConfig, ScopeFilter};
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
        };
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
        &mut self.encoding
    }

    /// Mutable access to the SID table (see
    /// [`encoding_mut`](EncodingPlan::encoding_mut) for the intended use).
    pub fn sids_mut(&mut self) -> &mut SidTable {
        &mut self.sids
    }

    /// Mutable access to one site instruction (see
    /// [`encoding_mut`](EncodingPlan::encoding_mut) for the intended use).
    pub fn site_instr_mut(&mut self, site: SiteId) -> Option<&mut SiteInstr> {
        self.sites.get_mut(&site)
    }

    /// Mutable access to one entry instruction (see
    /// [`encoding_mut`](EncodingPlan::encoding_mut) for the intended use).
    pub fn entry_instr_mut(&mut self, method: MethodId) -> Option<&mut EntryInstr> {
        self.entries.get_mut(&method)
    }

    /// Mutable access to the recursion back-edge pair set (see
    /// [`encoding_mut`](EncodingPlan::encoding_mut) for the intended use —
    /// fault injection against the compiled image's back-edge lookup
    /// table).
    pub fn back_edge_calls_mut(&mut self) -> &mut HashSet<(SiteId, MethodId)> {
        &mut self.back_edge_calls
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
        text(|out| self.write_fingerprint(out))
    }

    /// Writes [`EncodingPlan::fingerprint`] to `out` line by line, never
    /// holding the whole text: the one writer behind the fingerprint and
    /// the body of a `deltapath.plan.v1` file (`render_plan`).
    ///
    /// # Errors
    ///
    /// Only I/O errors from `out`.
    pub fn write_fingerprint<W: Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        let g = &self.graph;
        writeln!(
            out,
            "width={:?} cpt={} cpt_minimal={} anchor_ucp={} batch={} budget={:?} entry={}",
            self.config.width,
            self.config.cpt,
            self.config.cpt_minimal,
            self.config.anchor_ucp_entries,
            self.config.batch_overflow,
            self.config.territory_budget,
            self.entry_method.index(),
        )?;
        for node in g.nodes() {
            writeln!(
                out,
                "node {} method={}",
                node.index(),
                g.method_of(node).index()
            )?;
        }
        for (i, edge) in g.edges().iter().enumerate() {
            writeln!(
                out,
                "edge {} {}->{} site={}",
                i,
                edge.caller.index(),
                edge.callee.index(),
                edge.site.index(),
            )?;
        }
        let enc = &self.encoding;
        let anchors: Vec<usize> = enc.anchors.iter().map(|a| a.index()).collect();
        let overflow: Vec<usize> = enc.overflow_anchors.iter().map(|a| a.index()).collect();
        writeln!(out, "anchors={anchors:?} overflow={overflow:?}")?;
        writeln!(out, "max_icc={} restarts={}", enc.max_icc, enc.restarts)?;
        let mut site_av: Vec<(usize, u128)> =
            enc.site_av.iter().map(|(s, &v)| (s.index(), v)).collect();
        site_av.sort_unstable();
        for (site, av) in site_av {
            writeln!(out, "av site={site} {av}")?;
        }
        // ICC rows are stored in anchor order, the order the text lists.
        for n in 0..enc.icc.len() {
            write!(out, "icc node={n} ")?;
            write_list(out, enc.icc.pairs(n).map(|(r, &v)| (r.index(), v)))?;
            writeln!(out)?;
        }
        for (n, owners) in enc.nanchors.iter().enumerate() {
            write!(out, "nanchors node={n} ")?;
            write_list(out, owners.iter().map(|r| r.index()))?;
            writeln!(out)?;
        }
        for (e, owners) in enc.eanchors.iter().enumerate() {
            write!(out, "eanchors edge={e} ")?;
            write_list(out, owners.iter().map(|r| r.index()))?;
            writeln!(out)?;
        }
        let mut excluded: Vec<usize> = enc.excluded.iter().map(|e| e.index()).collect();
        excluded.sort_unstable();
        writeln!(out, "excluded={excluded:?}")?;
        for node in g.nodes() {
            writeln!(
                out,
                "sid node={} {:?}",
                node.index(),
                self.sids.sid_of_node_index(node.index()),
            )?;
        }
        write_instructions(
            out,
            self.sites.iter().map(|(&s, &i)| (s, i)),
            self.entries.iter().map(|(&m, &i)| (m, i)),
            self.back_edge_calls.iter().copied(),
        )
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

/// The text `write` produces.
pub(crate) fn text(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("plan text is UTF-8")
}

/// Writes `items` as `{:?}` renders a `Vec` of them: `[a, b, c]`.
fn write_list<W: Write + ?Sized, T: fmt::Debug>(
    out: &mut W,
    items: impl Iterator<Item = T>,
) -> io::Result<()> {
    out.write_all(b"[")?;
    for (k, item) in items.enumerate() {
        if k > 0 {
            out.write_all(b", ")?;
        }
        write!(out, "{item:?}")?;
    }
    out.write_all(b"]")
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
    text(|out| write_instructions(out, sites, entries, backs))
}

/// Writes the instruction dump of [`render_instructions`] to `out`.
fn write_instructions<W: Write + ?Sized>(
    out: &mut W,
    sites: impl Iterator<Item = (SiteId, SiteInstr)>,
    entries: impl Iterator<Item = (MethodId, EntryInstr)>,
    backs: impl Iterator<Item = (SiteId, MethodId)>,
) -> io::Result<()> {
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
        )?;
    }
    let mut entries: Vec<(usize, EntryInstr)> = entries.map(|(m, i)| (m.index(), i)).collect();
    entries.sort_unstable_by_key(|&(m, _)| m);
    for (method, instr) in entries {
        writeln!(
            out,
            "entry {method} sid={:?} anchor={} check={}",
            instr.sid, instr.is_anchor, instr.check_sid,
        )?;
    }
    let mut backs: Vec<(usize, usize)> = backs.map(|(s, m)| (s.index(), m.index())).collect();
    backs.sort_unstable();
    writeln!(out, "back_edge_calls={backs:?}")
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
