//! Per-context entry counting and the *context flamegraph*: decode the
//! collected encodings back into call stacks and weight each stack by how
//! often it was entered — the paper's context-sensitive-profiling payoff,
//! rendered in the standard folded-stack format.
//!
//! [`ContextStats`](crate::ContextStats) deliberately keeps only the
//! *distinct* capture set (its sharded path memo-suppresses repeats, so
//! per-capture counts cannot be recovered from it). [`ContextProfile`] is
//! the collector that does count: a capture-keyed frequency map, decoded
//! only once per distinct context when folding.
//!
//! Recording is cheap because a DeltaPath capture is a small value. The
//! map hashes it with the keyless [`FastHasher`]: the stack contributes
//! only its digest, so a capture costs a few multiplies, not a SipHash.
//! The encoder interns the stacks one thread captures, so a repeated
//! context finds its entry by a pointer compare of the stacks, not a
//! frame-by-frame compare across two allocations. A repeated capture is
//! counted in place; only a new one is inserted.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use deltapath_core::{Decoder, FastHasher};
use deltapath_ir::{MethodId, Program};
use deltapath_telemetry::FoldedStacks;

use crate::encoder::Capture;
use crate::Collector;

/// A collector counting method entries per distinct captured context.
///
/// Works with any encoder: DeltaPath captures are decoded when folding,
/// shadow-stack walks fold directly (which is what lets the flamegraph
/// validate against the [`StackWalkEncoder`](crate::StackWalkEncoder)
/// oracle), and undecodable captures (PCC hashes, CCT node indices) are
/// counted but reported as skipped.
#[derive(Clone, Debug, Default)]
pub struct ContextProfile {
    counts: HashMap<Capture, u64, BuildHasherDefault<FastHasher>>,
}

impl ContextProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct captured contexts.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total entries recorded across all contexts.
    pub fn total(&self) -> u64 {
        self.counts.values().fold(0, |a, &c| a.saturating_add(c))
    }

    /// The capture-keyed counts (unordered).
    pub fn counts(&self) -> impl Iterator<Item = (&Capture, u64)> {
        self.counts.iter().map(|(c, &n)| (c, n))
    }

    /// Absorbs another profile (commutative, lossless). Only a capture
    /// `self` has not seen is cloned.
    pub fn merge(&mut self, other: &ContextProfile) {
        for (capture, &count) in &other.counts {
            match self.counts.get_mut(capture) {
                Some(slot) => *slot = slot.saturating_add(count),
                None => {
                    self.counts.insert(capture.clone(), count);
                }
            }
        }
    }

    /// Folds the profile into flamegraph stacks weighted by entry count,
    /// decoding DeltaPath captures through `decoder` (the memoized piece
    /// cache makes repeated anchors cheap) and folding shadow-stack walks
    /// directly. Many distinct captures can decode to one call path, so
    /// counts are summed per path first and each path is folded once.
    /// Returns the stacks plus the number of *entries* that could not be
    /// rendered as a call path: capture kinds with no decodable context
    /// (PCC, CCT, hybrid, none) and DeltaPath captures taken inside code
    /// the plan never encoded (entries in dynamically loaded classes),
    /// whose decode necessarily fails.
    pub fn folded(&self, program: &Program, decoder: &Decoder) -> (FoldedStacks, u64) {
        let mut paths: HashMap<Cow<'_, [MethodId]>, u64> = HashMap::new();
        let mut skipped = 0u64;
        for (capture, &count) in &self.counts {
            let path = match capture {
                Capture::Delta(ctx) => match decoder.decode(ctx) {
                    Ok(context) => Cow::Owned(context),
                    Err(_) => {
                        skipped = skipped.saturating_add(count);
                        continue;
                    }
                },
                Capture::Walk(stack) => Cow::Borrowed(&stack[..]),
                Capture::Pcc(_) | Capture::CctNode(_) | Capture::Hybrid { .. } | Capture::None => {
                    skipped = skipped.saturating_add(count);
                    continue;
                }
            };
            let slot = paths.entry(path).or_insert(0);
            *slot = slot.saturating_add(count);
        }
        let mut stacks = FoldedStacks::new();
        for (path, count) in paths {
            stacks.add(&fold_path(program, &path), count);
        }
        (stacks, skipped)
    }
}

impl Collector for ContextProfile {
    fn record_entry(&mut self, _method: MethodId, _true_depth: usize, capture: Capture) {
        match self.counts.get_mut(&capture) {
            Some(slot) => *slot = slot.saturating_add(1),
            None => {
                self.counts.insert(capture, 1);
            }
        }
    }

    fn record_observe(&mut self, _event: u32, _method: MethodId, _capture: Capture) {}
}

/// Joins a decoded context (outermost first) into one folded-stack line
/// of `Class.method` frames, sanitizing names so they cannot break the
/// `stack weight` format (frames may contain neither `;` nor whitespace,
/// so each becomes `_`). Public so oracles and tools composing their own
/// [`FoldedStacks`] produce byte-identical frames.
pub fn fold_path(program: &Program, context: &[MethodId]) -> String {
    let mut out = String::new();
    for (i, &m) in context.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let method = program.method(m);
        push_sanitized(&mut out, program.class(method.class()).name());
        out.push('.');
        push_sanitized(&mut out, program.symbols().resolve(method.name()));
    }
    out
}

/// Whether `ch` would break a folded-stack frame.
fn breaks_frame(ch: char) -> bool {
    ch == ';' || ch.is_whitespace()
}

/// Appends `name` to `out` with every frame-breaking character replaced
/// by `_`; names without one (nearly all) are copied whole.
fn push_sanitized(out: &mut String, name: &str) {
    if name.contains(breaks_frame) {
        out.extend(
            name.chars()
                .map(|ch| if breaks_frame(ch) { '_' } else { ch }),
        );
    } else {
        out.push_str(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaEncoder, StackWalkEncoder, Vm, VmConfig};
    use deltapath_core::{EncodingPlan, PlanConfig};
    use deltapath_ir::{MethodKind, ProgramBuilder};

    #[test]
    fn fold_path_matches_the_per_char_mapping_of_method_names() {
        let mut b = ProgramBuilder::new("names");
        let weird = b.add_class("We;ird Cls", None);
        let plain = b.add_class("Plain", None);
        let mut context = Vec::new();
        for name in [
            "a;b",
            "with space",
            "tab\there",
            "nb\u{a0}sp",
            "em\u{2003}space",
            "ideo\u{3000}graphic",
            "line\nbreak",
            "caf\u{e9}",
            ";; \t",
            "plain",
        ] {
            context.push(b.method(weird, name, MethodKind::Static).finish());
            context.push(b.method(plain, name, MethodKind::Static).finish());
        }
        b.entry(context[0]);
        let program = b.finish().expect("any method name is accepted");
        let reference = context
            .iter()
            .map(|&m| {
                program
                    .method_name(m)
                    .chars()
                    .map(|ch| {
                        if ch == ';' || ch.is_whitespace() {
                            '_'
                        } else {
                            ch
                        }
                    })
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join(";");
        assert_eq!(fold_path(&program, &context), reference);
        assert_eq!(fold_path(&program, &context[..1]), "We_ird_Cls.a_b");
        assert_eq!(fold_path(&program, &[]), "");
    }

    #[test]
    fn folded_equals_a_per_capture_fold() {
        // Application code reaches `App.b` through two library methods.
        // Under application-only encoding each route leaves its own
        // unexpected-call-path frame, so distinct captures decode to the
        // same application path.
        let mut b = ProgramBuilder::new("profile_fold");
        let app = b.add_class("App", None);
        let lib = b.add_library_class("Lib", None);
        b.method(app, "b", MethodKind::Static).finish();
        for name in ["l1", "l2"] {
            b.method(lib, name, MethodKind::Static)
                .body(|f| {
                    f.call(app, "b");
                })
                .finish();
        }
        let main = b
            .method(app, "main", MethodKind::Static)
            .body(|f| {
                f.loop_(3, |f| {
                    f.call(lib, "l1");
                    f.call(lib, "l2");
                    f.call(app, "b");
                });
            })
            .finish();
        b.entry(main);
        let program = b.finish().expect("program");
        let config =
            PlanConfig::default().with_scope(deltapath_callgraph::ScopeFilter::ApplicationOnly);
        let plan = EncodingPlan::analyze(&program, &config).expect("plan");
        let decoder = plan.decoder();

        let mut profile = ContextProfile::new();
        let vm_config = VmConfig::default().with_collect(crate::CollectMode::Entries);
        Vm::new(&program, vm_config.clone())
            .run(&mut DeltaEncoder::new(&plan), &mut profile)
            .expect("delta run");
        let mut walks = ContextProfile::new();
        Vm::new(&program, vm_config)
            .run(&mut StackWalkEncoder::full(), &mut walks)
            .expect("walk run");
        profile.merge(&walks);
        profile.record_entry(main, 1, Capture::Pcc(7));

        let mut reference = FoldedStacks::new();
        let mut reference_skipped = 0;
        let mut delta_paths = std::collections::HashSet::new();
        let mut delta_captures = 0;
        for (capture, count) in profile.counts() {
            let path = match capture {
                Capture::Delta(ctx) => {
                    let path = decoder.decode(ctx).expect("closed program decodes");
                    delta_captures += 1;
                    delta_paths.insert(path.clone());
                    path
                }
                Capture::Walk(stack) => stack.to_vec(),
                _ => {
                    reference_skipped += count;
                    continue;
                }
            };
            reference.add(&fold_path(&program, &path), count);
        }
        assert!(
            delta_paths.len() < delta_captures,
            "distinct captures must share a decoded path"
        );
        assert_eq!(
            profile.folded(&program, &decoder),
            (reference, reference_skipped)
        );
        assert_eq!(reference_skipped, 1);
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = ContextProfile::new();
        a.record_entry(MethodId::from_index(0), 1, Capture::Pcc(7));
        a.record_entry(MethodId::from_index(0), 1, Capture::Pcc(7));
        let mut b = ContextProfile::new();
        b.record_entry(MethodId::from_index(0), 1, Capture::Pcc(7));
        b.record_entry(MethodId::from_index(1), 1, Capture::CctNode(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total(), 4);
        let pcc = a
            .counts()
            .find(|(c, _)| matches!(c, Capture::Pcc(7)))
            .expect("pcc entry");
        assert_eq!(pcc.1, 3);
    }
}
