//! Encoded calling-context values: the ID plus the runtime stack.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use deltapath_ir::{MethodId, SiteId};

/// Why a stack element was pushed.
///
/// The paper packs this tag into two bits borrowed from the method
/// identifier (footnote 2); we keep it as an enum for clarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameTag {
    /// The invocation of an anchor node (Algorithm 2) — including the
    /// bootstrap frame for the entry method and recursion headers entered
    /// through forward edges.
    Anchor,
    /// A call along a recursion back edge: the context continues at the
    /// recursion header with a fresh ID piece.
    Recursion,
    /// A hazardous unexpected call path detected by call-path tracking: the
    /// method was entered from dynamically loaded or scope-excluded code.
    Ucp,
}

/// One element of the runtime encoding stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Why the frame was pushed.
    pub tag: FrameTag,
    /// The method whose entry pushed the frame (the start of the encoding
    /// piece above this frame).
    pub node: MethodId,
    /// The call site through which the piece below this frame ended:
    /// for [`FrameTag::Recursion`] the back-edge site, for [`FrameTag::Ucp`]
    /// the last instrumented call site before control left the encoded
    /// region. `None` for the bootstrap frame.
    pub site: Option<SiteId>,
    /// The encoding ID at push time, restored at the method's exit.
    pub saved_id: u64,
}

/// An immutable, shared encoding stack: the frames bottom first, plus a
/// content digest computed once at construction.
///
/// Successive captures usually see the same stack (paper Section 8), so a
/// capture holds a reference to the stack instead of a copy: cloning a
/// `FrameStack` is a reference-count increment, hashing it writes only
/// the digest, and equality settles on the digest, then on pointer
/// identity, and only then on the frames themselves.
/// [`DeltaState`](crate::DeltaState) interns the stacks one thread
/// captures, so equal captures of one thread share one allocation and
/// compare by pointer.
///
/// The digest is keyless and deterministic: the stacks it sees are the
/// program's own captures, not attacker-chosen keys, and a collision
/// costs only a frame comparison. The same reasoning sets the hasher
/// policy. Tables over a run's own captures (the per-thread intern table,
/// the runtime's collectors) hash with the keyless [`FastHasher`]; the
/// decoder's tables keep `std`'s hasher, because their keys can arrive
/// from outside the run.
#[derive(Clone)]
pub struct FrameStack {
    frames: Arc<[Frame]>,
    digest: u64,
}

impl FrameStack {
    /// The keyless 64-bit content digest (equal frames, equal digest).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Whether `this` and `other` share one allocation.
    pub fn ptr_eq(this: &Self, other: &Self) -> bool {
        Arc::ptr_eq(&this.frames, &other.frames)
    }

    /// A stack of `frames` whose digest the caller already folded.
    pub(crate) fn with_digest(frames: &[Frame], digest: u64) -> Self {
        debug_assert_eq!(digest, self::digest(frames), "stale digest fold");
        Self {
            frames: frames.into(),
            digest,
        }
    }
}

/// Folds `word` into `h` with a 64×64→128-bit multiply whose halves are
/// xored back together, so every input bit reaches every output bit.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    let m = u128::from(h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (m as u64) ^ ((m >> 64) as u64)
}

/// The digest fold of the empty stack.
pub(crate) const FOLD_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Folds every field of `frame` into the digest fold `h` of the frames
/// below it.
#[inline]
pub(crate) fn fold_frame(h: u64, frame: &Frame) -> u64 {
    let tag = match frame.tag {
        FrameTag::Anchor => 0,
        FrameTag::Recursion => 1,
        FrameTag::Ucp => 2,
    };
    let site = frame.site.map_or(0, |s| s.index() as u64 + 1);
    let h = mix(h, tag | (frame.node.index() as u64) << 2);
    mix(mix(h, site), frame.saved_id)
}

/// The digest of a stack of `depth` frames whose fold is `fold`.
#[inline]
pub(crate) fn finish_digest(fold: u64, depth: usize) -> u64 {
    mix(fold, depth as u64)
}

/// The content digest of `frames`: every field of every frame, then the
/// depth.
fn digest(frames: &[Frame]) -> u64 {
    finish_digest(frames.iter().fold(FOLD_SEED, fold_frame), frames.len())
}

/// The empty stack.
impl Default for FrameStack {
    fn default() -> Self {
        Vec::new().into()
    }
}

impl From<&[Frame]> for FrameStack {
    fn from(frames: &[Frame]) -> Self {
        Self::with_digest(frames, digest(frames))
    }
}

impl From<Vec<Frame>> for FrameStack {
    fn from(frames: Vec<Frame>) -> Self {
        frames.as_slice().into()
    }
}

impl Deref for FrameStack {
    type Target = [Frame];

    fn deref(&self) -> &[Frame] {
        &self.frames
    }
}

impl PartialEq for FrameStack {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && (Self::ptr_eq(self, other) || self.frames == other.frames)
    }
}

impl Eq for FrameStack {}

impl Hash for FrameStack {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.digest);
    }
}

impl fmt::Debug for FrameStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.frames.iter()).finish()
    }
}

/// A keyless multiply-rotate hasher (the Fowler/rustc "Fx" recipe) for
/// tables over a run's own captures: the per-thread stack intern table,
/// and in `deltapath-runtime` the collectors' capture tables.
///
/// A [`FrameStack`] hashes as its digest and a capture as a few more
/// words, so a probe costs a handful of multiplies where `std`'s SipHash
/// costs a keyed round per word. Unlike SipHash it is not DoS-resistant,
/// which is fine for these tables: their keys are the program's own
/// captures, not attacker-chosen values, and a collision costs only an
/// equality compare. Tables whose keys can arrive from outside the run,
/// such as the decoder's caches, keep `std`'s hasher. Being keyless also
/// makes it deterministic: every process agrees on every hash, so a
/// table's layout, and any cost measured over it, does not change from
/// one run to the next.
///
/// ```
/// use std::collections::HashMap;
/// use std::hash::BuildHasherDefault;
/// use deltapath_core::FastHasher;
///
/// let mut counts: HashMap<u64, u32, BuildHasherDefault<FastHasher>> = HashMap::default();
/// *counts.entry(7).or_insert(0) += 1;
/// assert_eq!(counts[&7], 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A complete encoded calling context: the stack, the current ID, and the
/// method at which it was captured.
///
/// Two contexts are equal exactly when their encodings are equal; DeltaPath
/// guarantees (and the test suite verifies) that distinct calling contexts
/// produce distinct `EncodedContext` values, so this type is directly usable
/// as a hash-map key for context-sensitive profiling. The stack is a shared
/// [`FrameStack`], so cloning and hashing a context cost O(1), and so does
/// comparing two contexts unless their stacks are separate allocations
/// with equal digests.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EncodedContext {
    /// The encoding stack, bottom first. The bottom frame is the bootstrap
    /// frame for the thread's entry method.
    pub frames: FrameStack,
    /// The current encoding ID (the piece since the top frame).
    pub id: u64,
    /// The method at which the context was captured.
    pub at: MethodId,
}

impl EncodedContext {
    /// The stack depth (number of frames), the paper's Table 2
    /// "max./avg. depth" statistic for DeltaPath.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of hazardous-UCP frames in the stack (Table 2 "UCP" columns).
    pub fn ucp_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.tag == FrameTag::Ucp)
            .count()
    }

    /// Number of recursion frames in the stack.
    pub fn recursion_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.tag == FrameTag::Recursion)
            .count()
    }
}

impl fmt::Display for EncodedContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, frame) in self.frames.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let tag = match frame.tag {
                FrameTag::Anchor => "A",
                FrameTag::Recursion => "R",
                FrameTag::Ucp => "U",
            };
            write!(f, "{}:{}={}", tag, frame.node, frame.saved_id)?;
        }
        write!(f, "] id={} @{}", self.id, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> EncodedContext {
        EncodedContext {
            frames: FrameStack::from(vec![
                Frame {
                    tag: FrameTag::Anchor,
                    node: MethodId::from_index(0),
                    site: None,
                    saved_id: 0,
                },
                Frame {
                    tag: FrameTag::Ucp,
                    node: MethodId::from_index(3),
                    site: Some(SiteId::from_index(5)),
                    saved_id: 7,
                },
                Frame {
                    tag: FrameTag::Recursion,
                    node: MethodId::from_index(4),
                    site: Some(SiteId::from_index(6)),
                    saved_id: 2,
                },
            ]),
            id: 9,
            at: MethodId::from_index(8),
        }
    }

    #[test]
    fn counters() {
        let c = ctx();
        assert_eq!(c.depth(), 3);
        assert_eq!(c.ucp_count(), 1);
        assert_eq!(c.recursion_count(), 1);
    }

    #[test]
    fn display_is_compact_and_nonempty() {
        let s = ctx().to_string();
        assert!(s.contains("A:m0=0"));
        assert!(s.contains("U:m3=7"));
        assert!(s.contains("R:m4=2"));
        assert!(s.contains("id=9"));
        assert!(s.contains("@m8"));
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(ctx(), ctx());
        let mut other = ctx();
        other.id = 10;
        assert_ne!(ctx(), other);
    }

    #[test]
    fn equal_frames_in_separate_allocations_are_equal_stacks() {
        use std::hash::BuildHasher;
        let (a, b) = (ctx().frames, ctx().frames);
        assert!(
            !FrameStack::ptr_eq(&a, &b),
            "two constructions, two allocations"
        );
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let state = std::collections::hash_map::RandomState::new();
        assert_eq!(state.hash_one(&a), state.hash_one(&b));
        let shared = a.clone();
        assert!(FrameStack::ptr_eq(&a, &shared));
        assert_eq!(a, shared);
    }

    #[test]
    fn stacks_differing_only_in_a_lower_frame_are_unequal() {
        let base = ctx().frames;
        let mut frames = base.to_vec();
        frames[0].saved_id = 1;
        let lower = FrameStack::from(frames);
        assert_eq!(base.last(), lower.last(), "top frames agree");
        assert_ne!(base, lower);
        assert_ne!(base.digest(), lower.digest());
        let mut frames = base.to_vec();
        frames[1].site = None;
        assert_ne!(base, FrameStack::from(frames));
    }

    #[test]
    fn digest_is_deterministic_and_keyless() {
        let frames = ctx().frames.to_vec();
        let from_vec = FrameStack::from(frames.clone());
        let from_slice = FrameStack::from(frames.as_slice());
        assert_eq!(from_vec.digest(), from_slice.digest());
        // Pinned: the digest must not depend on per-process hasher keys.
        assert_eq!(from_vec.digest(), 0x9833_27ad_8e73_56fd);
        assert_ne!(FrameStack::from(Vec::new()).digest(), from_vec.digest());
    }

    #[test]
    fn fast_hasher_is_deterministic_and_keyless() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<FastHasher>::default();
        // Pinned: every process must agree, or a capture table's layout
        // and probe costs would depend on the process.
        assert_eq!(build.hash_one(7u64), 0x3a69_4c02_11ee_4a13);
        let mut h = build.build_hasher();
        h.write_u8(1);
        h.write_u32(2);
        assert_eq!(h.finish(), 0x6a4b_e67f_f98f_abc8);
        let stack = ctx().frames;
        assert_eq!(build.hash_one(&stack), build.hash_one(stack.digest()));
    }

    #[test]
    fn debug_prints_the_frame_list() {
        let frames = ctx().frames.to_vec();
        assert_eq!(
            format!("{:?}", FrameStack::from(frames.clone())),
            format!("{frames:?}")
        );
    }
}
