//! Relative encoding of context logs (paper Section 8, "Pruned and
//! Relative Encoding").
//!
//! > "we can exploit the relative positions of the target functions for
//! > encoding. For example, after the encoding result of ABD is stored, to
//! > encode ABDF, we simply represent the result as a reference to the
//! > previous encoding result and an encoding of the relative position of F,
//! > which shortens the encoding results."
//!
//! Successive captured contexts share most of their stack: a
//! [`RelativeLog`] stores each context as the number of frames shared with
//! the previous entry plus only the new frames — loss-free, with the
//! compression ratio exposed for the evaluation.

use deltapath_ir::MethodId;

use crate::context::{EncodedContext, Frame, FrameStack};

/// One delta-compressed log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelativeEntry {
    /// Number of stack frames shared with the previous entry.
    pub shared_frames: usize,
    /// Frames beyond the shared prefix.
    pub new_frames: Vec<Frame>,
    /// The current encoding ID.
    pub id: u64,
    /// The capture point.
    pub at: MethodId,
}

/// An append-only, delta-compressed log of encoded contexts.
///
/// # Example
///
/// ```
/// use deltapath_core::{EncodedContext, Frame, FrameTag, RelativeLog};
/// use deltapath_ir::MethodId;
///
/// let frame = |i: usize| Frame {
///     tag: FrameTag::Anchor,
///     node: MethodId::from_index(i),
///     site: None,
///     saved_id: 0,
/// };
/// let ctx = |frames: Vec<Frame>, id: u64| EncodedContext {
///     frames: frames.into(),
///     id,
///     at: MethodId::from_index(9),
/// };
///
/// let mut log = RelativeLog::new();
/// log.push(&ctx(vec![frame(0), frame(1)], 3));
/// log.push(&ctx(vec![frame(0), frame(1)], 4)); // same stack: 0 new frames
/// log.push(&ctx(vec![frame(0), frame(2)], 0)); // shares only frame(0)
/// assert_eq!(log.len(), 3);
/// assert_eq!(log.frames_stored(), 3); // 2 + 0 + 1 instead of 2 + 2 + 2
/// let expanded: Vec<EncodedContext> = log.expand().collect();
/// assert_eq!(expanded[1].frames.len(), 2);
/// assert_eq!(expanded[2].frames[1].node, MethodId::from_index(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RelativeLog {
    entries: Vec<RelativeEntry>,
    /// The stack of the most recent entry (the delta base).
    base: FrameStack,
    /// Total frames across all pushed contexts, before compression.
    raw_frames: usize,
}

impl RelativeLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a context, storing only its difference from the previous one.
    pub fn push(&mut self, ctx: &EncodedContext) {
        let shared = self
            .base
            .iter()
            .zip(ctx.frames.iter())
            .take_while(|(a, b)| a == b)
            .count();
        self.entries.push(RelativeEntry {
            shared_frames: shared,
            new_frames: ctx.frames[shared..].to_vec(),
            id: ctx.id,
            at: ctx.at,
        });
        self.raw_frames += ctx.frames.len();
        self.base = ctx.frames.clone();
    }

    /// Number of logged contexts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw entries (for storage-size accounting).
    pub fn entries(&self) -> &[RelativeEntry] {
        &self.entries
    }

    /// Total frames actually stored (after compression).
    pub fn frames_stored(&self) -> usize {
        self.entries.iter().map(|e| e.new_frames.len()).sum()
    }

    /// Total frames the uncompressed log would hold.
    pub fn frames_raw(&self) -> usize {
        self.raw_frames
    }

    /// `frames_raw / frames_stored` (1.0 when empty): how much the relative
    /// representation shortens the log.
    pub fn compression_ratio(&self) -> f64 {
        if self.frames_stored() == 0 {
            return if self.raw_frames == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.raw_frames as f64 / self.frames_stored() as f64
    }

    /// Reconstructs the full contexts, in log order (loss-free inverse of
    /// [`push`](Self::push)).
    pub fn expand(&self) -> impl Iterator<Item = EncodedContext> + '_ {
        let mut stack: Vec<Frame> = Vec::new();
        self.entries.iter().map(move |entry| {
            stack.truncate(entry.shared_frames);
            stack.extend_from_slice(&entry.new_frames);
            EncodedContext {
                frames: stack.as_slice().into(),
                id: entry.id,
                at: entry.at,
            }
        })
    }
}

impl Extend<EncodedContext> for RelativeLog {
    fn extend<T: IntoIterator<Item = EncodedContext>>(&mut self, iter: T) {
        for ctx in iter {
            self.push(&ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FrameTag;

    fn frame(i: usize, saved: u64) -> Frame {
        Frame {
            tag: FrameTag::Anchor,
            node: MethodId::from_index(i),
            site: None,
            saved_id: saved,
        }
    }

    fn ctx(frames: Vec<Frame>, id: u64) -> EncodedContext {
        EncodedContext {
            frames: frames.into(),
            id,
            at: MethodId::from_index(99),
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let contexts = vec![
            ctx(vec![frame(0, 0)], 1),
            ctx(vec![frame(0, 0), frame(1, 5)], 2),
            ctx(vec![frame(0, 0), frame(1, 5), frame(2, 7)], 0),
            ctx(vec![frame(0, 0), frame(3, 1)], 9),
            ctx(vec![frame(4, 2)], 3),
        ];
        let mut log = RelativeLog::new();
        log.extend(contexts.iter().cloned());
        let expanded: Vec<_> = log.expand().collect();
        assert_eq!(expanded, contexts);
    }

    #[test]
    fn identical_stacks_store_zero_frames() {
        let shared = vec![frame(0, 0), frame(1, 1), frame(2, 2)];
        let mut log = RelativeLog::new();
        for id in 0..100 {
            log.push(&ctx(shared.clone(), id));
        }
        assert_eq!(log.frames_stored(), 3); // first entry only
        assert_eq!(log.frames_raw(), 300);
        assert!(log.compression_ratio() > 99.0);
    }

    #[test]
    fn differing_saved_ids_break_sharing() {
        let mut log = RelativeLog::new();
        log.push(&ctx(vec![frame(0, 0), frame(1, 5)], 1));
        log.push(&ctx(vec![frame(0, 0), frame(1, 6)], 1)); // same node, new id
        assert_eq!(log.entries()[1].shared_frames, 1);
        assert_eq!(log.entries()[1].new_frames.len(), 1);
    }

    #[test]
    fn empty_log_behaves() {
        let log = RelativeLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.compression_ratio(), 1.0);
        assert_eq!(log.expand().count(), 0);
    }
}
