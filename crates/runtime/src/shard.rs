//! Lock-striped concurrent context collection.
//!
//! The paper's runtime keeps one `DeltaState` per thread over a shared
//! immutable plan (Section 5); the contexts those threads capture still
//! have to land in one statistics table. A single mutex around a
//! [`ContextStats`] serializes every capture; [`ShardedCollector`] removes
//! that wall with three independent levers:
//!
//! * **Striping** — the distinct-capture set is split into `2^k` shards,
//!   each its own [`ContextStats`] behind its own lock. A capture is
//!   routed by a deterministic projection hash of the [`Capture`] value,
//!   so *equal captures always land in the same shard*: the per-shard
//!   sets are disjoint and their union is exactly the sequential set.
//! * **Batching** — each thread records into a private [`ShardHandle`]
//!   and locks shards only at batch boundaries. Counters (totals, sums,
//!   maxima) accumulate thread-locally between flushes; they are
//!   commutative, so merging them per batch is lossless.
//! * **Memoization** — a handle remembers which captures it has already
//!   forwarded. Set union makes re-delivery redundant, so a repeated hot
//!   context costs one local probe: no lock, no re-derived statistics,
//!   no cross-thread traffic. (Equal captures have equal derived
//!   statistics, so reusing the memoized values is exact, and a capture
//!   evicted by the memo capacity bound is merely re-forwarded — the
//!   shard set deduplicates.)
//!
//! Merging (see [`ContextStats::merge`]) is commutative and associative,
//! so flush interleaving across threads cannot change the final report.
//! [`ShardedCollector::report_telemetry`] emits the merged stats under the
//! same `collector.stats.*` names a plain [`ContextStats`] uses — the
//! `RunReport` schema is unchanged — plus the `collector.shard.*` family
//! describing the sharding itself.
//!
//! A batch size of 1 selects **unbuffered mode**: the handle takes the
//! shard lock and applies every event immediately, with no local state.
//! With one shard ([`ShardedCollector::single_shard`]) that is precisely
//! the naive global-mutex collector — the baseline the `mt_throughput`
//! bench measures against.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use deltapath_core::FastHasher;
use deltapath_ir::MethodId;
use deltapath_telemetry::{names, ScopedSpan, Telemetry};

use crate::collect::{delta_parts, Collector, ContextStats};
use crate::encoder::Capture;

/// Default shard count (16 — comfortably more stripes than a small VM
/// thread pool, still a trivial memory footprint).
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-handle batch size (events between flushes).
pub const DEFAULT_BATCH: usize = 256;

/// Per-handle memo capacity. Once full the memo stops admitting new
/// captures (popularity is heavily skewed, so the first distinct captures
/// are the ones worth keeping); unmemoized captures are simply forwarded
/// on every occurrence and deduplicated by the shard set.
const MEMO_CAPACITY: usize = 1 << 16;

/// Writes a cheap projection of `capture` into `h`. Equal captures
/// produce equal projections (a pure function of the value), which is all
/// that routing and the memo's bucket choice need — full [`PartialEq`]
/// settles collisions. An encoded stack contributes its content digest,
/// computed once when the stack was built, so every frame counts towards
/// the projection at O(1) cost per capture.
fn hash_projection(capture: &Capture, h: &mut impl Hasher) {
    match capture {
        Capture::Delta(ctx) => {
            h.write_u8(0);
            h.write_u64(ctx.id);
            h.write_usize(ctx.at.index());
            h.write_u64(ctx.frames.digest());
        }
        Capture::Pcc(v) => {
            h.write_u8(1);
            h.write_u64(*v);
        }
        Capture::Walk(stack) => {
            h.write_u8(2);
            h.write_usize(stack.len());
            if let Some(first) = stack.first() {
                h.write_usize(first.index());
            }
            if let Some(last) = stack.last() {
                h.write_usize(last.index());
            }
        }
        Capture::CctNode(n) => {
            h.write_u8(3);
            h.write_usize(*n);
        }
        Capture::Hybrid { trunk_v, ctx } => {
            h.write_u8(4);
            h.write_u64(*trunk_v);
            h.write_u64(ctx.id);
            h.write_usize(ctx.at.index());
            h.write_u64(ctx.frames.digest());
        }
        Capture::None => h.write_u8(5),
    }
}

/// The deterministic routing hash ([`FastHasher`] is keyless, so every
/// handle of every collector agrees on it).
fn route_hash(capture: &Capture) -> u64 {
    let mut h = FastHasher::default();
    hash_projection(capture, &mut h);
    h.finish()
}

/// Memo key: full-equality [`Capture`] hashed by its cheap projection.
#[derive(Debug)]
struct MemoKey(Capture);

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for MemoKey {}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        hash_projection(&self.0, h);
    }
}

#[derive(Debug)]
struct Inner {
    /// `shards.len()` is a power of two; `mask == shards.len() - 1`.
    shards: Vec<Mutex<ContextStats>>,
    mask: u64,
    batch: usize,
    /// Round-robin assignment of handles' home shards (where their
    /// counter batches land).
    next_home: AtomicUsize,
    flushes: AtomicU64,
    events: AtomicU64,
    memo_hits: AtomicU64,
}

impl Inner {
    fn shard_of(&self, capture: &Capture) -> usize {
        (route_hash(capture) & self.mask) as usize
    }
}

/// A lock-striped, batch-flushed concurrent [`ContextStats`] (see the
/// [module docs](self)).
///
/// The collector itself is shared; each VM thread records through its own
/// [`handle`](ShardedCollector::handle). After the threads are done (all
/// handles dropped or [`flush`](ShardHandle::flush)ed),
/// [`stats`](ShardedCollector::stats) yields the merged statistics.
#[derive(Clone, Debug)]
pub struct ShardedCollector {
    inner: Arc<Inner>,
}

impl Default for ShardedCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCollector {
    /// A collector with [`DEFAULT_SHARDS`] shards and [`DEFAULT_BATCH`]
    /// batching.
    pub fn new() -> Self {
        Self::with_config(DEFAULT_SHARDS, DEFAULT_BATCH)
    }

    /// A collector with explicit shard count (rounded up to a power of
    /// two, minimum 1) and per-handle batch size (minimum 1; `1` selects
    /// unbuffered mode — see the [module docs](self)).
    pub fn with_config(shards: usize, batch: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Self {
            inner: Arc::new(Inner {
                shards: (0..shards)
                    .map(|_| Mutex::new(ContextStats::new()))
                    .collect(),
                mask: shards as u64 - 1,
                batch: batch.max(1),
                next_home: AtomicUsize::new(0),
                flushes: AtomicU64::new(0),
                events: AtomicU64::new(0),
                memo_hits: AtomicU64::new(0),
            }),
        }
    }

    /// The degenerate configuration — one shard, unbuffered — i.e. a
    /// global mutex taken on every event. This is the contended baseline
    /// the throughput bench compares against.
    pub fn single_shard() -> Self {
        Self::with_config(1, 1)
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The per-handle batch size.
    pub fn batch_size(&self) -> usize {
        self.inner.batch
    }

    /// Flushes performed so far across all handles (in unbuffered mode,
    /// every event is its own flush).
    pub fn flushes(&self) -> u64 {
        self.inner.flushes.load(Ordering::Relaxed)
    }

    /// Events recorded through this collector's handles and already
    /// delivered by a flush.
    pub fn events(&self) -> u64 {
        self.inner.events.load(Ordering::Relaxed)
    }

    /// Events whose capture was served from a handle's memo (no shard
    /// delivery needed).
    pub fn memo_hits(&self) -> u64 {
        self.inner.memo_hits.load(Ordering::Relaxed)
    }

    /// A new per-thread recording handle.
    pub fn handle(&self) -> ShardHandle {
        let home = self.inner.next_home.fetch_add(1, Ordering::Relaxed) % self.inner.shards.len();
        ShardHandle {
            inner: self.inner.clone(),
            home,
            buf: Vec::new(),
            local: ContextStats::new(),
            memo: HashMap::default(),
            pending: 0,
            pending_hits: 0,
        }
    }

    /// Merges all shards into one [`ContextStats`] snapshot.
    ///
    /// Events still sitting in live handles are not included — flush or
    /// drop the handles first.
    pub fn stats(&self) -> ContextStats {
        self.stats_with(&deltapath_telemetry::NullTelemetry)
    }

    /// As [`ShardedCollector::stats`], emitting a timed
    /// `collector.shard.merge` span (with the shard count) into `sink`
    /// for the cross-shard merge.
    pub fn stats_with(&self, sink: &dyn Telemetry) -> ContextStats {
        let span = ScopedSpan::enter(sink, names::COLLECTOR_SHARD_MERGE);
        let mut merged = ContextStats::new();
        for shard in &self.inner.shards {
            merged.merge(shard.lock().expect("shard poisoned").clone());
        }
        span.finish(&[("shards", self.shard_count() as u64)]);
        merged
    }

    /// Emits the `collector.shard.*` family plus the merged statistics
    /// (same `collector.stats.*` names a plain [`ContextStats`] reports,
    /// so the `RunReport` schema is unchanged).
    ///
    /// Handles deliberately do *not* implement
    /// [`Collector::report_telemetry`]: the VM invokes that once per run,
    /// and with several threads sharing this collector the merged numbers
    /// would multiply. Report once, from the owner, through this method.
    pub fn report_telemetry(&self, sink: &dyn Telemetry) {
        if !sink.enabled() {
            return;
        }
        sink.gauge_max(names::COLLECTOR_SHARD_SHARDS, self.shard_count() as u64);
        sink.gauge_max(names::COLLECTOR_SHARD_BATCH, self.batch_size() as u64);
        sink.counter_add(names::COLLECTOR_SHARD_FLUSHES, self.flushes());
        sink.counter_add(names::COLLECTOR_SHARD_EVENTS, self.events());
        sink.counter_add(names::COLLECTOR_SHARD_MEMO_HITS, self.memo_hits());
        self.stats_with(sink).report_telemetry(sink);
    }
}

/// A per-thread handle recording into a [`ShardedCollector`].
///
/// Counters accumulate locally and distinct new captures append to a
/// private buffer; when the batch size is reached both are flushed —
/// buffered captures grouped by destination shard, counters merged into
/// the handle's home shard. Dropping the handle flushes the remainder.
#[derive(Debug)]
pub struct ShardHandle {
    inner: Arc<Inner>,
    home: usize,
    /// Distinct captures awaiting delivery to their shards.
    buf: Vec<Capture>,
    /// Locally accumulated counters (the distinct set stays empty).
    local: ContextStats,
    /// Captures already forwarded, with their memoized derived values.
    memo: HashMap<MemoKey, Option<(usize, usize, u64)>, BuildHasherDefault<FastHasher>>,
    /// Events recorded since the last flush.
    pending: u64,
    pending_hits: u64,
}

impl ShardHandle {
    /// Delivers everything recorded since the last flush: buffered
    /// captures into their shards, local counters into the home shard.
    pub fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        if !self.buf.is_empty() {
            if self.inner.shards.len() == 1 {
                let mut stats = self.inner.shards[0].lock().expect("shard poisoned");
                for capture in self.buf.drain(..) {
                    stats.insert_unique(capture);
                }
            } else {
                // Group by shard so each lock is taken at most once.
                let mut routed: Vec<(usize, Capture)> = self
                    .buf
                    .drain(..)
                    .map(|c| ((route_hash(&c) & self.inner.mask) as usize, c))
                    .collect();
                routed.sort_by_key(|&(shard, _)| shard);
                let mut iter = routed.into_iter().peekable();
                while let Some((shard, capture)) = iter.next() {
                    let mut stats = self.inner.shards[shard].lock().expect("shard poisoned");
                    stats.insert_unique(capture);
                    while let Some((_, c)) = iter.next_if(|&(s, _)| s == shard) {
                        stats.insert_unique(c);
                    }
                }
            }
        }
        let counters = std::mem::take(&mut self.local);
        self.inner.shards[self.home]
            .lock()
            .expect("shard poisoned")
            .merge(counters);
        self.inner.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.events.fetch_add(self.pending, Ordering::Relaxed);
        self.inner
            .memo_hits
            .fetch_add(self.pending_hits, Ordering::Relaxed);
        self.pending = 0;
        self.pending_hits = 0;
    }

    /// Memo lookup/registration: returns the capture's derived values and
    /// schedules its delivery if this handle has not forwarded it before.
    fn note(&mut self, capture: Capture) -> Option<(usize, usize, u64)> {
        let key = MemoKey(capture);
        if let Some(&derived) = self.memo.get(&key) {
            self.pending_hits += 1;
            return derived; // `key` (the repeated capture) drops here
        }
        let derived = delta_parts(&key.0);
        self.buf.push(key.0.clone());
        if self.memo.len() < MEMO_CAPACITY {
            self.memo.insert(key, derived);
        }
        derived
    }

    fn bump(&mut self) {
        self.pending += 1;
        if self.pending >= self.inner.batch as u64 {
            self.flush();
        }
    }
}

impl Collector for ShardHandle {
    fn record_entry(&mut self, method: MethodId, true_depth: usize, capture: Capture) {
        if self.inner.batch == 1 {
            let shard = self.inner.shard_of(&capture);
            self.inner.shards[shard]
                .lock()
                .expect("shard poisoned")
                .record_entry(method, true_depth, capture);
            self.inner.flushes.fetch_add(1, Ordering::Relaxed);
            self.inner.events.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let derived = self.note(capture);
        self.local.absorb_counts(true_depth, derived);
        self.bump();
    }

    fn record_observe(&mut self, event: u32, method: MethodId, capture: Capture) {
        if self.inner.batch == 1 {
            let shard = self.inner.shard_of(&capture);
            self.inner.shards[shard]
                .lock()
                .expect("shard poisoned")
                .record_observe(event, method, capture);
            self.inner.flushes.fetch_add(1, Ordering::Relaxed);
            self.inner.events.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Observation points only contribute to the distinct set (exactly
        // like `ContextStats::record_observe`).
        self.note(capture);
        self.bump();
    }

    // report_telemetry: default no-op, on purpose — see
    // `ShardedCollector::report_telemetry`.
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_core::{EncodedContext, Frame, FrameTag};

    fn delta_capture(id: u64, depth: usize) -> Capture {
        let frame = Frame {
            tag: FrameTag::Anchor,
            node: MethodId::from_index(0),
            site: None,
            saved_id: 0,
        };
        Capture::Delta(EncodedContext {
            frames: vec![frame; depth].into(),
            id,
            at: MethodId::from_index(1),
        })
    }

    fn assert_stats_eq(merged: &ContextStats, sequential: &ContextStats) {
        assert_eq!(merged.total_contexts, sequential.total_contexts);
        assert_eq!(merged.unique_contexts(), sequential.unique_contexts());
        assert_eq!(merged.max_depth, sequential.max_depth);
        assert_eq!(merged.max_stack_depth, sequential.max_stack_depth);
        assert_eq!(merged.max_ucp, sequential.max_ucp);
        assert_eq!(merged.max_id, sequential.max_id);
        assert!((merged.avg_depth() - sequential.avg_depth()).abs() < 1e-12);
        assert!((merged.avg_stack_depth() - sequential.avg_stack_depth()).abs() < 1e-12);
        assert!((merged.avg_ucp() - sequential.avg_ucp()).abs() < 1e-12);
    }

    fn drive(collector: &ShardedCollector) -> ContextStats {
        let mut sequential = ContextStats::new();
        let mut handle = collector.handle();
        for i in 0..200u64 {
            let capture = delta_capture(i % 10, (i % 5) as usize + 1);
            handle.record_entry(MethodId::from_index(2), (i % 7) as usize, capture.clone());
            sequential.record_entry(MethodId::from_index(2), (i % 7) as usize, capture);
        }
        handle.record_observe(3, MethodId::from_index(2), delta_capture(99, 2));
        sequential.record_observe(3, MethodId::from_index(2), delta_capture(99, 2));
        drop(handle); // flushes the tail
        sequential
    }

    #[test]
    fn merged_shards_match_sequential_stats() {
        let sharded = ShardedCollector::with_config(8, 4);
        let sequential = drive(&sharded);
        assert_stats_eq(&sharded.stats(), &sequential);
        assert_eq!(sharded.events(), 201);
        assert!(sharded.flushes() >= 50);
        // 200 entries over 10 distinct captures + 1 distinct observe:
        // everything after the first occurrence is a memo hit.
        assert_eq!(sharded.memo_hits(), 190);
    }

    #[test]
    fn unbuffered_mode_matches_sequential_stats() {
        let sharded = ShardedCollector::single_shard();
        let sequential = drive(&sharded);
        assert_stats_eq(&sharded.stats(), &sequential);
        assert_eq!(sharded.events(), 201);
        assert_eq!(sharded.flushes(), 201);
        assert_eq!(sharded.memo_hits(), 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedCollector::with_config(0, 0).shard_count(), 1);
        assert_eq!(ShardedCollector::with_config(5, 1).shard_count(), 8);
        assert_eq!(ShardedCollector::single_shard().shard_count(), 1);
        assert_eq!(ShardedCollector::single_shard().batch_size(), 1);
    }

    #[test]
    fn equal_captures_share_a_shard_and_projection() {
        let sharded = ShardedCollector::with_config(16, 8);
        let a = delta_capture(7, 3);
        let b = delta_capture(7, 3);
        assert_eq!(sharded.inner.shard_of(&a), sharded.inner.shard_of(&b));
        assert_eq!(route_hash(&a), route_hash(&b));
    }

    #[test]
    fn route_hash_covers_every_frame() {
        let Capture::Delta(base) = delta_capture(7, 4) else {
            unreachable!()
        };
        // Equal captures from separate allocations route alike.
        let copy = Capture::Delta(EncodedContext {
            frames: base.frames.to_vec().into(),
            ..base.clone()
        });
        assert_eq!(route_hash(&Capture::Delta(base.clone())), route_hash(&copy));
        // A capture differing only in a lower frame's saved ID (same ID,
        // method, depth and top frame) routes differently.
        let mut frames = base.frames.to_vec();
        frames[1].saved_id = 5;
        let lower = Capture::Delta(EncodedContext {
            frames: frames.into(),
            ..base.clone()
        });
        assert_ne!(route_hash(&Capture::Delta(base)), route_hash(&lower));
    }
}
