//! Canonical plan import/export: the `deltapath.plan.v1` format.
//!
//! [`EncodingPlan::fingerprint`] already defines a canonical, deterministic
//! text dump of everything a plan instructs the runtime and decoder to do.
//! This module turns that dump into a real on-disk format — a header, the
//! graph's roots/UCP wrapper lines the fingerprint deliberately omits, and
//! the fingerprint body verbatim — and provides the inverse parser, so
//! plans travel between processes the way `deltapath.graph.v1` carries call
//! graphs. `deltapath lint --plan-out` and `deltapath import --plan-out`
//! write this format; `deltapath diff <old> <new>` reads it.
//!
//! ```text
//! deltapath.plan.v1             # header, required first line
//! plan NAME                     # optional, at most once
//! gentry=N | gentry=-           # graph entry node
//! roots=[..]                    # encoding roots, stored order
//! ucp=[..]                      # hazardous-UCP entry candidates
//! site_cap=N                    # exclusive bound on edge site ids
//! <EncodingPlan::fingerprint body, verbatim>
//! ```
//!
//! `site_cap` exists because a scoped plan's graph keeps the *program's*
//! site numbering: an app-scope subgraph with 175 edges legitimately
//! carries site ids in the thousands, so the graph importer's relative
//! density bound (`4 × edges + 16`) cannot apply. The renderer records
//! the true bound; the parser honors it up to an absolute sanity limit
//! (the CSR site index is sized by the largest id, so an unbounded
//! declaration would let a crafted file demand arbitrary memory).
//!
//! The round trip is pinned by the fingerprint: for any plan `p`,
//! `parse_plan(render_plan(p)).fingerprint() == p.fingerprint()` and a
//! re-render is byte-identical. Two lossy corners are deliberate: the
//! `budget_anchors` provenance list (not consulted by the runtime, decoder
//! or auditor) comes back empty, and the anchor-membership flags are
//! rebuilt from the anchor list (a fresh-plan invariant), so a corruption
//! that *only* desynchronizes the two is not representable on disk.
//!
//! Like the graph importer, the parser never panics on malformed input: it
//! collects every problem as a `line N: message` diagnostic and fails with
//! all of them at once. The tables are read straight into their flat rows.
//! An `icc` row may list its pairs in any order, since it is stored sorted
//! by anchor, but a row that names an anchor twice fails with `line N: icc
//! node=X names anchor R more than once`: keeping either value would be a
//! guess. Territory rows (`nanchors`, `eanchors`) are kept as written;
//! their duplicates are the auditor's to report.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

use deltapath_callgraph::{CallGraph, EdgeIx, NodeIx};
use deltapath_ir::{MethodId, SiteId};

use crate::algo2::Encoding;
use crate::plan::{EncodingPlan, EntryInstr, PlanConfig, SiteInstr};
use crate::rows::Rows;
use crate::sid::{Sid, SidTable};
use crate::width::EncodingWidth;

/// Schema identifier and required header line of the plan format.
pub const PLAN_SCHEMA: &str = "deltapath.plan.v1";

/// A successfully parsed plan file.
#[derive(Clone, Debug)]
pub struct ImportedPlan {
    /// The `plan NAME` line, or `"imported"` if the file carries none.
    pub name: String,
    /// The reassembled plan.
    pub plan: EncodingPlan,
}

/// Why a plan file failed to parse.
#[derive(Debug)]
pub enum PlanParseError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file is malformed; every collected `line N: message` diagnostic.
    Invalid(Vec<String>),
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanParseError::Io(e) => write!(f, "plan import i/o error: {e}"),
            PlanParseError::Invalid(diags) => {
                writeln!(f, "invalid plan file ({} problems):", diags.len())?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for PlanParseError {}

impl From<io::Error> for PlanParseError {
    fn from(e: io::Error) -> Self {
        PlanParseError::Io(e)
    }
}

/// Writes `plan` in the canonical `deltapath.plan.v1` format.
///
/// # Errors
///
/// Only I/O errors from `out`.
pub fn render_plan<W: Write>(plan: &EncodingPlan, name: &str, out: &mut W) -> io::Result<()> {
    writeln!(out, "{PLAN_SCHEMA}")?;
    writeln!(out, "plan {name}")?;
    let g = plan.graph();
    match g.entry() {
        Some(e) => writeln!(out, "gentry={}", e.index())?,
        None => writeln!(out, "gentry=-")?,
    }
    let roots: Vec<usize> = g.roots().iter().map(|r| r.index()).collect();
    writeln!(out, "roots={roots:?}")?;
    let ucp: Vec<usize> = g.ucp_entry_candidates().iter().map(|u| u.index()).collect();
    writeln!(out, "ucp={ucp:?}")?;
    let site_cap = g
        .edges()
        .iter()
        .map(|e| e.site.index() + 1)
        .max()
        .unwrap_or(0);
    writeln!(out, "site_cap={site_cap}")?;
    plan.write_fingerprint(out)
}

/// As [`render_plan`], into a `String`.
pub fn render_plan_string(plan: &EncodingPlan, name: &str) -> String {
    crate::plan::text(|out| render_plan(plan, name, out))
}

/// Reads a `deltapath.plan.v1` file back into an [`EncodingPlan`].
///
/// The parser validates shape (dense node/edge/table declarations, index
/// bounds, one table row per node/edge) but deliberately not semantics —
/// that is `audit_plan`'s job, and keeping the two separate means a plan
/// carrying a table corruption can be loaded, diffed and re-audited rather
/// than rejected at the door.
///
/// # Errors
///
/// [`PlanParseError::Io`] on reader failure, [`PlanParseError::Invalid`]
/// with every collected diagnostic on malformed input.
pub fn parse_plan<R: BufRead>(input: R) -> Result<ImportedPlan, PlanParseError> {
    let mut p = Parser::default();
    let mut saw_header = false;
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        if !saw_header {
            if text != PLAN_SCHEMA {
                p.err(
                    lineno,
                    format!("expected header `{PLAN_SCHEMA}`, found `{text}`"),
                );
                return Err(PlanParseError::Invalid(p.diags));
            }
            saw_header = true;
            continue;
        }
        p.line(lineno, text);
    }
    if !saw_header {
        p.err(0, format!("empty input: expected `{PLAN_SCHEMA}` header"));
    }
    p.build()
}

/// Parsed per-site instruction fields before id wrapping.
struct SiteLine {
    site: usize,
    av: u64,
    encoded: bool,
    sid: Sid,
    caller: usize,
    tracked: bool,
}

/// Parsed per-entry instruction fields before id wrapping.
struct EntryLine {
    method: usize,
    sid: Sid,
    anchor: bool,
    check: bool,
}

/// The `config` line's fields in declaration order: width bits, cpt,
/// cpt-minimal, anchor-UCP entries, batch overflow, territory budget,
/// entry method.
type ConfigLine = (u8, bool, bool, bool, bool, Option<u64>, usize);

#[derive(Default)]
struct Parser {
    diags: Vec<String>,
    name: Option<String>,
    gentry: Option<usize>,
    roots: Option<Vec<usize>>,
    ucp: Option<Vec<usize>>,
    site_cap: Option<usize>,
    config: Option<ConfigLine>,
    nodes: Vec<usize>,
    edges: Vec<(usize, usize, usize)>,
    anchors: Option<(Vec<usize>, Vec<usize>)>,
    totals: Option<(u128, usize)>,
    site_av: Vec<(usize, u128)>,
    icc: Rows<NodeIx, u128>,
    nanchors: Rows<NodeIx>,
    eanchors: Rows<NodeIx>,
    /// One ICC row as read, before it is sorted into `icc`.
    pairs: Vec<(NodeIx, u128)>,
    /// One row's anchors (and, for ICC rows, their values) on its way
    /// into a table.
    keys: Vec<NodeIx>,
    values: Vec<u128>,
    excluded: Option<Vec<usize>>,
    sids: Vec<Sid>,
    sites: Vec<SiteLine>,
    entries: Vec<EntryLine>,
    backs: Option<Vec<(usize, usize)>>,
}

impl Parser {
    fn err(&mut self, lineno: usize, message: String) {
        // Cap the collected diagnostics so a structurally hopeless file
        // (e.g. not a plan at all) reports a digest, not a gigabyte.
        if self.diags.len() < 64 {
            self.diags.push(format!("line {lineno}: {message}"));
        }
    }

    fn line(&mut self, lineno: usize, text: &str) {
        let ok = if let Some(rest) = text.strip_prefix("plan ") {
            self.name = Some(rest.to_owned());
            true
        } else if let Some(rest) = text.strip_prefix("gentry=") {
            self.gentry = if rest == "-" { None } else { rest.parse().ok() };
            rest == "-" || self.gentry.is_some()
        } else if let Some(rest) = text.strip_prefix("roots=") {
            set_once(&mut self.roots, parse_list(rest))
        } else if let Some(rest) = text.strip_prefix("ucp=") {
            set_once(&mut self.ucp, parse_list(rest))
        } else if let Some(rest) = text.strip_prefix("site_cap=") {
            set_once(&mut self.site_cap, rest.parse().ok())
        } else if let Some(rest) = text.strip_prefix("width=") {
            self.config_line(rest)
        } else if let Some(rest) = text.strip_prefix("node ") {
            self.node_line(rest)
        } else if let Some(rest) = text.strip_prefix("edge ") {
            self.edge_line(rest)
        } else if let Some(rest) = text.strip_prefix("anchors=") {
            self.anchors_line(rest)
        } else if let Some(rest) = text.strip_prefix("max_icc=") {
            self.totals_line(rest)
        } else if let Some(rest) = text.strip_prefix("av site=") {
            self.av_line(rest)
        } else if let Some(rest) = text.strip_prefix("icc node=") {
            self.icc_line(lineno, rest)
        } else if let Some(rest) = text.strip_prefix("nanchors node=") {
            owners_line(rest, &mut self.nanchors, &mut self.keys)
        } else if let Some(rest) = text.strip_prefix("eanchors edge=") {
            owners_line(rest, &mut self.eanchors, &mut self.keys)
        } else if let Some(rest) = text.strip_prefix("excluded=") {
            set_once(&mut self.excluded, parse_list(rest))
        } else if let Some(rest) = text.strip_prefix("sid node=") {
            self.sid_line(rest)
        } else if let Some(rest) = text.strip_prefix("site ") {
            self.site_line(rest)
        } else if let Some(rest) = text.strip_prefix("entry ") {
            self.entry_line(rest)
        } else if let Some(rest) = text.strip_prefix("back_edge_calls=") {
            set_once(&mut self.backs, parse_pair_list(rest))
        } else {
            false
        };
        if !ok {
            self.err(lineno, format!("malformed or repeated directive: `{text}`"));
        }
    }

    /// `EncodingWidth(64 bits) cpt=true cpt_minimal=false anchor_ucp=true
    /// batch=false budget=None entry=3` (the `width=` prefix is stripped).
    fn config_line(&mut self, rest: &str) -> bool {
        if self.config.is_some() {
            return false;
        }
        let Some((width, rest)) = rest.split_once(" cpt=") else {
            return false;
        };
        let Some(bits) = width
            .strip_prefix("EncodingWidth(")
            .and_then(|w| w.strip_suffix(" bits)"))
            .and_then(|b| b.parse::<u8>().ok())
            .filter(|&b| (1..=127).contains(&b))
        else {
            return false;
        };
        let Some((cpt, rest)) = rest.split_once(" cpt_minimal=") else {
            return false;
        };
        let Some((cpt_minimal, rest)) = rest.split_once(" anchor_ucp=") else {
            return false;
        };
        let Some((anchor_ucp, rest)) = rest.split_once(" batch=") else {
            return false;
        };
        let Some((batch, rest)) = rest.split_once(" budget=") else {
            return false;
        };
        let Some((budget, entry)) = rest.split_once(" entry=") else {
            return false;
        };
        let budget = if budget == "None" {
            None
        } else {
            match budget
                .strip_prefix("Some(")
                .and_then(|b| b.strip_suffix(')'))
                .and_then(|b| b.parse::<u64>().ok())
            {
                Some(b) => Some(b),
                None => return false,
            }
        };
        let (Some(cpt), Some(cpt_minimal), Some(anchor_ucp), Some(batch), Ok(entry)) = (
            parse_bool(cpt),
            parse_bool(cpt_minimal),
            parse_bool(anchor_ucp),
            parse_bool(batch),
            entry.parse::<usize>(),
        ) else {
            return false;
        };
        self.config = Some((bits, cpt, cpt_minimal, anchor_ucp, batch, budget, entry));
        true
    }

    /// `I method=M`: node declarations must be dense and in order.
    fn node_line(&mut self, rest: &str) -> bool {
        let Some((ix, method)) = rest.split_once(" method=") else {
            return false;
        };
        let (Ok(ix), Ok(method)) = (ix.parse::<usize>(), method.parse::<usize>()) else {
            return false;
        };
        if ix != self.nodes.len() {
            return false;
        }
        self.nodes.push(method);
        true
    }

    /// `I C->E site=S`: edge declarations must be dense and in order.
    fn edge_line(&mut self, rest: &str) -> bool {
        let Some((ix, rest)) = rest.split_once(' ') else {
            return false;
        };
        let Some((endpoints, site)) = rest.split_once(" site=") else {
            return false;
        };
        let Some((caller, callee)) = endpoints.split_once("->") else {
            return false;
        };
        let (Ok(ix), Ok(caller), Ok(callee), Ok(site)) = (
            ix.parse::<usize>(),
            caller.parse::<usize>(),
            callee.parse::<usize>(),
            site.parse::<usize>(),
        ) else {
            return false;
        };
        if ix != self.edges.len() {
            return false;
        }
        self.edges.push((caller, callee, site));
        true
    }

    /// `[..] overflow=[..]`.
    fn anchors_line(&mut self, rest: &str) -> bool {
        if self.anchors.is_some() {
            return false;
        }
        let Some((anchors, overflow)) = rest.split_once(" overflow=") else {
            return false;
        };
        match (parse_list(anchors), parse_list(overflow)) {
            (Some(a), Some(o)) => {
                self.anchors = Some((a, o));
                true
            }
            _ => false,
        }
    }

    /// `V restarts=V`.
    fn totals_line(&mut self, rest: &str) -> bool {
        if self.totals.is_some() {
            return false;
        }
        let Some((max_icc, restarts)) = rest.split_once(" restarts=") else {
            return false;
        };
        let (Ok(max_icc), Ok(restarts)) = (max_icc.parse::<u128>(), restarts.parse::<usize>())
        else {
            return false;
        };
        self.totals = Some((max_icc, restarts));
        true
    }

    /// `S V` (the `av site=` prefix is stripped).
    fn av_line(&mut self, rest: &str) -> bool {
        let Some((site, av)) = rest.split_once(' ') else {
            return false;
        };
        let (Ok(site), Ok(av)) = (site.parse::<usize>(), av.parse::<u128>()) else {
            return false;
        };
        self.site_av.push((site, av));
        true
    }

    /// `N [(r, v), ..]` — node `N`'s ICC row, dense and in order. The row
    /// is stored sorted by anchor, so it may list its pairs in any order,
    /// but an anchor it repeats is reported: its ICC would be ambiguous.
    fn icc_line(&mut self, lineno: usize, rest: &str) -> bool {
        let Some((ix, row)) = rest.split_once(' ') else {
            return false;
        };
        let Ok(ix) = ix.parse::<usize>() else {
            return false;
        };
        let pairs = &mut self.pairs;
        if parse_icc_pairs(row, pairs).is_none() || ix != self.icc.len() {
            return false;
        }
        pairs.sort_unstable_by_key(|&(r, _)| r);
        let repeated = pairs.windows(2).find(|pair| pair[0].0 == pair[1].0);
        let repeated = repeated.map(|pair| pair[0].0.index());
        pairs.dedup_by_key(|&mut (r, _)| r);
        self.keys.clear();
        self.values.clear();
        for &(r, v) in pairs.iter() {
            self.keys.push(r);
            self.values.push(v);
        }
        self.icc.push_row(&self.keys, &self.values);
        if let Some(anchor) = repeated {
            let message = format!("icc node={ix} names anchor {anchor} more than once");
            self.err(lineno, message);
        }
        true
    }

    /// `N sid#K` (the `sid node=` prefix is stripped), dense and in order.
    fn sid_line(&mut self, rest: &str) -> bool {
        let Some((ix, sid)) = rest.split_once(' ') else {
            return false;
        };
        let (Ok(ix), Some(sid)) = (ix.parse::<usize>(), parse_sid(sid)) else {
            return false;
        };
        if ix != self.sids.len() {
            return false;
        }
        self.sids.push(sid);
        true
    }

    /// `S av=V encoded=B sid=sid#K caller=M tracked=B`.
    fn site_line(&mut self, rest: &str) -> bool {
        let Some((site, rest)) = rest.split_once(" av=") else {
            return false;
        };
        let Some((av, rest)) = rest.split_once(" encoded=") else {
            return false;
        };
        let Some((encoded, rest)) = rest.split_once(" sid=") else {
            return false;
        };
        let Some((sid, rest)) = rest.split_once(" caller=") else {
            return false;
        };
        let Some((caller, tracked)) = rest.split_once(" tracked=") else {
            return false;
        };
        let (Ok(site), Ok(av), Some(encoded), Some(sid), Ok(caller), Some(tracked)) = (
            site.parse::<usize>(),
            av.parse::<u64>(),
            parse_bool(encoded),
            parse_sid(sid),
            caller.parse::<usize>(),
            parse_bool(tracked),
        ) else {
            return false;
        };
        self.sites.push(SiteLine {
            site,
            av,
            encoded,
            sid,
            caller,
            tracked,
        });
        true
    }

    /// `M sid=sid#K anchor=B check=B`.
    fn entry_line(&mut self, rest: &str) -> bool {
        let Some((method, rest)) = rest.split_once(" sid=") else {
            return false;
        };
        let Some((sid, rest)) = rest.split_once(" anchor=") else {
            return false;
        };
        let Some((anchor, check)) = rest.split_once(" check=") else {
            return false;
        };
        let (Ok(method), Some(sid), Some(anchor), Some(check)) = (
            method.parse::<usize>(),
            parse_sid(sid),
            parse_bool(anchor),
            parse_bool(check),
        ) else {
            return false;
        };
        self.entries.push(EntryLine {
            method,
            sid,
            anchor,
            check,
        });
        true
    }

    fn build(mut self) -> Result<ImportedPlan, PlanParseError> {
        let n = self.nodes.len();
        let m = self.edges.len();
        // Site ids size the graph's CSR site index, so they must be
        // bounded. Scoped plans keep the program's (sparse) site
        // numbering, so the declared `site_cap` governs — capped by an
        // absolute sanity limit so a crafted file cannot demand
        // arbitrary memory — with the graph importer's relative density
        // bound as the floor (and the fallback for undeclared files).
        const SITE_CAP_LIMIT: usize = 1 << 24;
        let mut site_cap = 4 * m + 16;
        match self.site_cap {
            Some(declared) if declared > SITE_CAP_LIMIT => {
                self.diags.push(format!(
                    "declared site_cap {declared} exceeds the sanity limit {SITE_CAP_LIMIT}"
                ));
            }
            Some(declared) => site_cap = site_cap.max(declared),
            None => {}
        }
        if self.config.is_none() {
            self.diags
                .push("missing `width=... entry=...` config line".into());
        }
        if self.anchors.is_none() {
            self.diags
                .push("missing `anchors=[..] overflow=[..]` line".into());
        }
        if self.totals.is_none() {
            self.diags
                .push("missing `max_icc=.. restarts=..` line".into());
        }
        if self.excluded.is_none() {
            self.diags.push("missing `excluded=[..]` line".into());
        }
        if self.backs.is_none() {
            self.diags
                .push("missing `back_edge_calls=[..]` line".into());
        }
        if n == 0 {
            self.diags.push("the plan declares no nodes".into());
        }
        for (what, got) in [
            ("icc", self.icc.len()),
            ("nanchors", self.nanchors.len()),
            ("sid", self.sids.len()),
        ] {
            if got != n {
                self.diags
                    .push(format!("{got} `{what}` rows for {n} nodes"));
            }
        }
        if self.eanchors.len() != m {
            self.diags.push(format!(
                "{} `eanchors` rows for {m} edges",
                self.eanchors.len()
            ));
        }
        let node_ok = |ix: usize| ix < n;
        let check_node = |what: &str, ix: usize, diags: &mut Vec<String>| {
            if !node_ok(ix) {
                diags.push(format!("{what} references node {ix}, graph has {n}"));
                return false;
            }
            true
        };
        let mut diags = std::mem::take(&mut self.diags);
        for &(caller, callee, site) in &self.edges {
            check_node("edge", caller, &mut diags);
            check_node("edge", callee, &mut diags);
            if site >= site_cap {
                diags.push(format!(
                    "edge site id {site} is out of bounds (cap {site_cap})"
                ));
            }
        }
        for &ix in self
            .gentry
            .iter()
            .chain(self.roots.iter().flatten())
            .chain(self.ucp.iter().flatten())
        {
            check_node("gentry/roots/ucp", ix, &mut diags);
        }
        if let Some((anchors, overflow)) = &self.anchors {
            for &a in anchors.iter().chain(overflow) {
                check_node("anchor list", a, &mut diags);
            }
        }
        for &r in self.icc.iter().flatten() {
            check_node("icc", r.index(), &mut diags);
        }
        for &r in self.nanchors.iter().flatten() {
            check_node("nanchors", r.index(), &mut diags);
        }
        for &r in self.eanchors.iter().flatten() {
            check_node("eanchors", r.index(), &mut diags);
        }
        for &e in self.excluded.iter().flatten() {
            if e >= m {
                diags.push(format!("excluded edge {e} is out of bounds ({m} edges)"));
            }
        }
        if !diags.is_empty() {
            diags.truncate(64);
            return Err(PlanParseError::Invalid(diags));
        }

        let mut graph = CallGraph::empty();
        graph.reserve(n, m);
        for (i, &method) in self.nodes.iter().enumerate() {
            let ix = graph.add_node(MethodId::from_index(method));
            if ix.index() != i {
                diags.push(format!(
                    "node {i} repeats method {method}: nodes would collapse"
                ));
            }
        }
        if !diags.is_empty() {
            return Err(PlanParseError::Invalid(diags));
        }
        for &(caller, callee, site) in &self.edges {
            graph.add_edge_unchecked(
                NodeIx::from_index(caller),
                NodeIx::from_index(callee),
                SiteId::from_index(site),
            );
        }
        if let Some(e) = self.gentry {
            graph.set_entry(NodeIx::from_index(e));
        }
        for &r in self.roots.iter().flatten() {
            graph.add_root(NodeIx::from_index(r));
        }
        for &u in self.ucp.iter().flatten() {
            graph.add_ucp_entry_candidate(NodeIx::from_index(u));
        }

        let (bits, cpt, cpt_minimal, anchor_ucp, batch, budget, entry) =
            self.config.expect("validated above");
        let width = EncodingWidth::new(bits);
        let mut config = PlanConfig::default().with_width(width).with_cpt(cpt);
        if cpt_minimal {
            config = config.with_cpt_minimal();
        }
        config.anchor_ucp_entries = anchor_ucp;
        if batch {
            config = config.with_batch_overflow();
        }
        if let Some(b) = budget {
            config = config.with_territory_budget(b);
        }

        let (anchors, overflow) = self.anchors.expect("validated above");
        let mut is_anchor = vec![false; n];
        for &a in &anchors {
            is_anchor[a] = true;
        }
        let (max_icc, restarts) = self.totals.expect("validated above");
        let encoding = Encoding {
            width,
            anchors: anchors.iter().map(|&a| NodeIx::from_index(a)).collect(),
            is_anchor,
            overflow_anchors: overflow.iter().map(|&a| NodeIx::from_index(a)).collect(),
            // Budget provenance is not serialized (see the module doc).
            budget_anchors: Vec::new(),
            site_av: self
                .site_av
                .iter()
                .map(|&(s, v)| (SiteId::from_index(s), v))
                .collect(),
            icc: std::mem::take(&mut self.icc),
            nanchors: std::mem::take(&mut self.nanchors),
            eanchors: std::mem::take(&mut self.eanchors),
            excluded: self
                .excluded
                .iter()
                .flatten()
                .map(|&e| EdgeIx::from_index(e))
                .collect(),
            max_icc,
            restarts,
        };

        let sids = SidTable::from_parts(std::mem::take(&mut self.sids), &graph);
        let sites: HashMap<SiteId, SiteInstr> = self
            .sites
            .iter()
            .map(|s| {
                (
                    SiteId::from_index(s.site),
                    SiteInstr {
                        av: s.av,
                        encoded: s.encoded,
                        expected_sid: s.sid,
                        caller: MethodId::from_index(s.caller),
                        tracked: s.tracked,
                    },
                )
            })
            .collect();
        let entries: HashMap<MethodId, EntryInstr> = self
            .entries
            .iter()
            .map(|e| {
                (
                    MethodId::from_index(e.method),
                    EntryInstr {
                        sid: e.sid,
                        is_anchor: e.anchor,
                        check_sid: e.check,
                    },
                )
            })
            .collect();
        let back_edge_calls: HashSet<(SiteId, MethodId)> = self
            .backs
            .iter()
            .flatten()
            .map(|&(s, mth)| (SiteId::from_index(s), MethodId::from_index(mth)))
            .collect();

        let plan = EncodingPlan::from_parts(
            config,
            graph,
            encoding,
            sids,
            sites,
            entries,
            back_edge_calls,
            MethodId::from_index(entry),
        );
        Ok(ImportedPlan {
            name: self.name.unwrap_or_else(|| "imported".to_owned()),
            plan,
        })
    }
}

/// `N [..]` — row `N` of a territory table (`nanchors`, `eanchors`), dense
/// and in order, stored as written; `buffer` holds it on its way in.
fn owners_line(rest: &str, table: &mut Rows<NodeIx>, buffer: &mut Vec<NodeIx>) -> bool {
    let Some((ix, row)) = rest.split_once(' ') else {
        return false;
    };
    let Ok(ix) = ix.parse::<usize>() else {
        return false;
    };
    if parse_nodes(row, buffer).is_none() || ix != table.len() {
        return false;
    }
    table.push(buffer);
    true
}

fn set_once<T>(slot: &mut Option<T>, value: Option<T>) -> bool {
    match (slot.is_none(), value) {
        (true, Some(v)) => {
            *slot = Some(v);
            true
        }
        _ => false,
    }
}

fn parse_bool(s: &str) -> Option<bool> {
    match s {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// `[a, b, c]` (Rust `{:?}` of a `Vec<usize>`).
fn parse_list(s: &str) -> Option<Vec<usize>> {
    let body = s.strip_prefix('[')?.strip_suffix(']')?;
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(", ").map(|t| t.parse().ok()).collect()
}

/// `[(a, b), (c, d)]` (Rust `{:?}` of a `Vec<(usize, usize)>`).
fn parse_pair_list(s: &str) -> Option<Vec<(usize, usize)>> {
    let body = s.strip_prefix('[')?.strip_suffix(']')?;
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split("), (")
        .map(|t| {
            let t = t.strip_prefix('(').unwrap_or(t);
            let t = t.strip_suffix(')').unwrap_or(t);
            let (a, b) = t.split_once(", ")?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect()
}

/// A node index of a table row. An index past `u32` names no node of any
/// graph, so the row it is in is malformed.
fn parse_node(s: &str) -> Option<NodeIx> {
    s.parse::<u32>()
        .ok()
        .map(|r| NodeIx::from_index(r as usize))
}

/// `[a, b, c]` of node indices, into `into` (cleared first).
fn parse_nodes(s: &str, into: &mut Vec<NodeIx>) -> Option<()> {
    into.clear();
    let body = s.strip_prefix('[')?.strip_suffix(']')?;
    if !body.is_empty() {
        for t in body.split(", ") {
            into.push(parse_node(t)?);
        }
    }
    Some(())
}

/// `[(r, v), ..]` with `v` up to `u128` (Rust `{:?}` of ICC rows), into
/// `into` (cleared first).
fn parse_icc_pairs(s: &str, into: &mut Vec<(NodeIx, u128)>) -> Option<()> {
    into.clear();
    let body = s.strip_prefix('[')?.strip_suffix(']')?;
    if !body.is_empty() {
        for t in body.split("), (") {
            let t = t.strip_prefix('(').unwrap_or(t);
            let t = t.strip_suffix(')').unwrap_or(t);
            let (r, v) = t.split_once(", ")?;
            into.push((parse_node(r)?, v.parse().ok()?));
        }
    }
    Some(())
}

/// `sid#K` or `sid#?`.
fn parse_sid(s: &str) -> Option<Sid> {
    let raw = s.strip_prefix("sid#")?;
    if raw == "?" {
        return Some(Sid::UNKNOWN);
    }
    raw.parse::<u32>().ok().map(Sid::from_raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use deltapath_ir::{MethodKind, ProgramBuilder};

    fn sample_plan() -> EncodingPlan {
        let mut b = ProgramBuilder::new("plan-io");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        b.method(c, "mid", MethodKind::Static)
            .body(|f| {
                f.call(c, "leaf");
                f.call(c, "leaf");
            })
            .finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "mid");
                f.call(c, "leaf");
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap()
    }

    #[test]
    fn round_trip_is_pinned_by_fingerprint() {
        let plan = sample_plan();
        let text = render_plan_string(&plan, "sample");
        let imported = parse_plan(text.as_bytes()).expect("parses");
        assert_eq!(imported.name, "sample");
        assert_eq!(imported.plan.fingerprint(), plan.fingerprint());
        // A re-render is byte-identical, wrapper lines included.
        assert_eq!(render_plan_string(&imported.plan, "sample"), text);
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = parse_plan("node 0 method=0\n".as_bytes()).unwrap_err();
        let PlanParseError::Invalid(diags) = err else {
            panic!("expected Invalid");
        };
        assert!(diags[0].contains("expected header"));
    }

    #[test]
    fn out_of_bounds_indices_are_collected_not_panicked() {
        let plan = sample_plan();
        let text = render_plan_string(&plan, "sample");
        // Corrupt one nanchors row to reference a node far out of range.
        let bad = text.replace("nanchors node=0 [", "nanchors node=0 [999, ");
        let err = parse_plan(bad.as_bytes()).unwrap_err();
        let PlanParseError::Invalid(diags) = err else {
            panic!("expected Invalid");
        };
        assert!(
            diags.iter().any(|d| d.contains("references node 999")),
            "{diags:?}"
        );
    }

    /// A plan with an ICC row of two anchors: `leaf` is called from the
    /// root `main` and from the recursion header `rec`, an anchor too.
    fn two_anchor_plan() -> EncodingPlan {
        let mut b = ProgramBuilder::new("two-anchors");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        b.method(c, "rec", MethodKind::Static)
            .body(|f| {
                f.call(c, "leaf");
                f.if_mod(
                    3,
                    0,
                    |_| {},
                    |f| {
                        f.call_arg(c, "rec", deltapath_ir::ArgExpr::ParamPlus(1));
                    },
                );
            })
            .finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "leaf");
                f.call(c, "rec");
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap()
    }

    #[test]
    fn icc_rows_parse_in_any_order_but_not_with_a_repeated_anchor() {
        let plan = two_anchor_plan();
        let text = render_plan_string(&plan, "two");
        let icc = &plan.encoding().icc;
        let node = (0..icc.len())
            .find(|&n| icc.row(n).len() == 2)
            .expect("an ICC row of two anchors");
        let pairs: Vec<(usize, u128)> = icc.pairs(node).map(|(r, &v)| (r.index(), v)).collect();
        let line = format!("icc node={node} {pairs:?}");
        let lineno = 1 + text.lines().position(|l| l == line).expect("the row");

        let reversed: Vec<_> = pairs.iter().rev().collect();
        let text_reversed = text.replace(&line, &format!("icc node={node} {reversed:?}"));
        let parsed = parse_plan(text_reversed.as_bytes()).expect("any order parses");
        assert_eq!(parsed.plan.fingerprint(), plan.fingerprint());

        // The anchor repeated with another value first: keeping either
        // value would be a guess.
        let (r, _) = pairs[0];
        let mut repeated = vec![(r, 9)];
        repeated.extend(&pairs);
        let text_repeated = text.replace(&line, &format!("icc node={node} {repeated:?}"));
        let PlanParseError::Invalid(diags) = parse_plan(text_repeated.as_bytes()).unwrap_err()
        else {
            panic!("expected Invalid");
        };
        assert_eq!(
            diags,
            vec![format!(
                "line {lineno}: icc node={node} names anchor {r} more than once"
            )]
        );
    }
}
