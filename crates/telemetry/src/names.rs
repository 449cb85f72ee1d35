//! Stable metric-name constants.
//!
//! Metric names are a stable interface (see DESIGN.md, "Observability"):
//! external tooling keys on them, so producers across the workspace share
//! these constants instead of re-typing strings. Every fixed name emitted
//! by the workspace lives here; only the per-technique families
//! (`ops.<technique>.<op>`, `encoder.<technique>.<metric>`) remain format
//! strings at their emission point, because the technique segment is
//! computed at runtime. [`is_registered`] accepts both.

// ---- vm.* — interpreter run epilogue ----

/// Dynamic calls executed by a VM run (counter).
pub const VM_CALLS: &str = "vm.calls";

/// Abstract base cost units accrued by a VM run (counter).
pub const VM_BASE_COST: &str = "vm.base_cost";

/// Dynamic class-loading events during a VM run (counter).
pub const VM_DYNAMIC_LOADS: &str = "vm.dynamic_loads";

/// `observe` bytecodes executed (counter).
pub const VM_OBSERVES: &str = "vm.observes";

/// Method entries delivered to the collector (counter).
pub const VM_ENTRIES_COLLECTED: &str = "vm.entries_collected";

/// Deepest call stack reached (gauge).
pub const VM_MAX_CALL_DEPTH: &str = "vm.max_call_depth";

/// Per-run peak call depth distribution (histogram).
pub const VM_CALL_DEPTH_PEAK: &str = "vm.call_depth_peak";

/// Whole interpreter run (span; parent of encoder/collector reporting).
pub const VM_RUN: &str = "vm.run";

// ---- plan.* / algo2.* — static analysis phases (spans) ----

/// Whole `EncodingPlan::analyze` (span; parent of the planner phases).
pub const PLAN_ANALYZE: &str = "plan.analyze";

/// Call-graph construction phase (span).
pub const PLAN_GRAPH_BUILD: &str = "plan.graph_build";

/// Back-edge classification phase (span).
pub const PLAN_BACK_EDGES: &str = "plan.back_edges";

/// SID assignment for call-path tracking (span).
pub const PLAN_SIDS: &str = "plan.sids";

/// Per-site instruction packaging phase (span).
pub const PLAN_INSTRUCTIONS: &str = "plan.instructions";

/// Whole Algorithm 2 run, overflow restarts included (span).
pub const ALGO2_ANALYZE: &str = "algo2.analyze";

/// Anchor territory identification, one per iteration (span).
pub const ALGO2_TERRITORIES: &str = "algo2.territories";

/// Symbolic CAV/ICC interval propagation over the topological order, one
/// per iteration (span).
pub const ALGO2_INTERVAL_WALK: &str = "algo2.interval_walk";

/// Encoding-width overflow forced an anchor promotion and restart (event).
pub const ALGO2_RESTART: &str = "algo2.restart";

// ---- audit.* — static plan auditor passes (spans) ----

/// Whole `audit_plan` (span; parent of the passes below).
pub const AUDIT_PLAN: &str = "audit.plan";

/// Addition-value hygiene pass, DP030/DP032 (span).
pub const AUDIT_HYGIENE: &str = "audit.hygiene";

/// Back-edge classification pass, DP031 (span).
pub const AUDIT_BACK_EDGES: &str = "audit.back_edges";

/// Anchor structure pass, DP003 (span).
pub const AUDIT_ANCHORS: &str = "audit.anchors";

/// Instruction drift pass, DP001/DP003 (span).
pub const AUDIT_INSTRUCTIONS: &str = "audit.instructions";

/// Call-path tracking pass, DP020/DP021 (span).
pub const AUDIT_SIDS: &str = "audit.sids";

/// Compiled dispatch-table lowering cross-check, DP040 (span).
pub const AUDIT_COMPILED: &str = "audit.compiled";

/// Per-node stored-table consistency pass, DP001/DP002/DP003 (span).
pub const AUDIT_TABLES: &str = "audit.tables";

/// One parallel per-anchor audit worker chunk (span; emitted from worker
/// threads, merged cross-thread by name).
pub const AUDIT_ANCHOR_WALK: &str = "audit.anchor_walk";

/// Merge of per-worker audit diagnostics in anchor order (span).
pub const AUDIT_ANCHOR_MERGE: &str = "audit.anchor_merge";

// ---- collector.* — event collection ----

/// Number of lock-striped shards a `ShardedCollector` was built with
/// (gauge).
pub const COLLECTOR_SHARD_SHARDS: &str = "collector.shard.shards";

/// Batched flushes performed by sharded-collector handles (counter).
pub const COLLECTOR_SHARD_FLUSHES: &str = "collector.shard.flushes";

/// Events delivered into shards by batched flushes (counter).
pub const COLLECTOR_SHARD_EVENTS: &str = "collector.shard.events";

/// Configured per-handle batch size (gauge).
pub const COLLECTOR_SHARD_BATCH: &str = "collector.shard.batch";

/// Events whose capture was served from a handle's local memo — no shard
/// delivery needed (counter).
pub const COLLECTOR_SHARD_MEMO_HITS: &str = "collector.shard.memo_hits";

/// Cross-shard merge of per-shard statistics (span).
pub const COLLECTOR_SHARD_MERGE: &str = "collector.shard.merge";

/// Observations a bounded collector discarded because its log was full
/// (counter; see `EventLog::bounded` in `deltapath-runtime`).
pub const COLLECTOR_EVENTS_DROPPED: &str = "collector.events_dropped";

/// Observations an `EventLog` retained (counter).
pub const COLLECTOR_EVENT_LOG_RECORDED: &str = "collector.event_log.recorded";

/// Observations an `EventLog` dropped at its bound (counter).
pub const COLLECTOR_EVENT_LOG_DROPPED: &str = "collector.event_log.dropped";

/// Distinct contexts a `RelativeCollector` logged (counter).
pub const COLLECTOR_RELATIVE_CONTEXTS: &str = "collector.relative.contexts";

/// Frames stored after relative-compression (counter).
pub const COLLECTOR_RELATIVE_FRAMES_STORED: &str = "collector.relative.frames_stored";

/// Frames the raw captures contained before compression (counter).
pub const COLLECTOR_RELATIVE_FRAMES_RAW: &str = "collector.relative.frames_raw";

/// Captures a `RelativeCollector` skipped as non-walk (counter).
pub const COLLECTOR_RELATIVE_SKIPPED: &str = "collector.relative.skipped";

/// Entries absorbed by a `ContextStats` (counter).
pub const COLLECTOR_STATS_CONTEXTS: &str = "collector.stats.contexts";

/// Distinct captures held by a `ContextStats` (counter).
pub const COLLECTOR_STATS_UNIQUE: &str = "collector.stats.unique";

/// Deepest true context depth observed (gauge).
pub const COLLECTOR_STATS_MAX_DEPTH: &str = "collector.stats.max_depth";

/// Deepest encoder shallow-stack depth observed (gauge).
pub const COLLECTOR_STATS_MAX_STACK_DEPTH: &str = "collector.stats.max_stack_depth";

/// Largest UCP marker count observed (gauge).
pub const COLLECTOR_STATS_MAX_UCP: &str = "collector.stats.max_ucp";

/// Largest encoded context ID observed (gauge).
pub const COLLECTOR_STATS_MAX_ID: &str = "collector.stats.max_id";

// ---- decoder.* — context decoding ----

/// Anchor-piece decode-cache hits (counter; see `Decoder` in
/// `deltapath-core`).
pub const DECODER_PIECE_CACHE_HITS: &str = "decoder.piece_cache.hits";

/// Anchor-piece decode-cache misses (counter).
pub const DECODER_PIECE_CACHE_MISSES: &str = "decoder.piece_cache.misses";

/// Decodes that reused the memoized path below the top frame of an
/// already decoded stack (counter).
pub const DECODER_STACK_CACHE_HITS: &str = "decoder.stack_cache.hits";

/// Decodes that walked the pieces below the top frame (counter).
pub const DECODER_STACK_CACHE_MISSES: &str = "decoder.stack_cache.misses";

// ---- span.* — span profiler self-reporting ----

/// Per-thread lanes a `SpanProfiler` registered (gauge).
pub const SPAN_LANES: &str = "span.lanes";

/// Completed span events dropped at the lane buffer cap (gauge).
pub const SPAN_DROPPED: &str = "span.dropped";

/// Unbalanced span open/close pairs observed (gauge; nonzero means an
/// instrumentation bug).
pub const SPAN_UNBALANCED: &str = "span.unbalanced";

// ---- profile.* — sampled hot-path latency ----

/// Sampled call-hook latency of a `HookSampler`-wrapped encoder,
/// nanoseconds (histogram; 1-in-N call hooks, so the hot loop stays one
/// array index).
pub const PROFILE_HOOK_NS: &str = "profile.hook_ns";

/// Hook latency samples taken (counter).
pub const PROFILE_HOOK_SAMPLES: &str = "profile.hook_samples";

/// Configured sampling period N of the hook sampler (gauge).
pub const PROFILE_HOOK_PERIOD: &str = "profile.hook_period";

// ---- encoder.batched.* / encoder.backedge.* — batch engine ----
//
// The per-technique metrics (`encoder.batched.stack_hwm`, …) follow the
// `encoder.<technique>.<metric>` format family like every other encoder;
// the names below are the batch engine's *fixed* machinery metrics,
// independent of the CPT mode the encoder runs under.

/// Captures that reused a stack snapshot their thread had already
/// captured: the one kept for the current depth or an interned one
/// (counter).
pub const ENCODER_BATCHED_SNAPSHOTS_SHARED: &str = "encoder.batched.snapshots_shared";

/// Captures that built a new stack snapshot: one their thread had not
/// captured before since it started (counter).
pub const ENCODER_BATCHED_SNAPSHOTS_BUILT: &str = "encoder.batched.snapshots_built";

/// Recursion back-edge pairs in the compiled two-level lookup table
/// (gauge).
pub const ENCODER_BACKEDGE_PAIRS: &str = "encoder.backedge.pairs";

/// Sites with a non-empty bucket in the back-edge lookup table (gauge).
pub const ENCODER_BACKEDGE_SITES: &str = "encoder.backedge.sites";

/// Back-edge lookup-table probes taken on the hot path (counter).
pub const ENCODER_BACKEDGE_PROBES: &str = "encoder.backedge.probes";

/// Every fixed metric name the workspace emits. Format-string families
/// (`ops.*`, `encoder.*`) are validated by prefix instead — see
/// [`is_registered`].
pub const ALL: &[&str] = &[
    VM_CALLS,
    VM_BASE_COST,
    VM_DYNAMIC_LOADS,
    VM_OBSERVES,
    VM_ENTRIES_COLLECTED,
    VM_MAX_CALL_DEPTH,
    VM_CALL_DEPTH_PEAK,
    VM_RUN,
    PLAN_ANALYZE,
    PLAN_GRAPH_BUILD,
    PLAN_BACK_EDGES,
    PLAN_SIDS,
    PLAN_INSTRUCTIONS,
    ALGO2_ANALYZE,
    ALGO2_TERRITORIES,
    ALGO2_INTERVAL_WALK,
    ALGO2_RESTART,
    AUDIT_PLAN,
    AUDIT_HYGIENE,
    AUDIT_BACK_EDGES,
    AUDIT_ANCHORS,
    AUDIT_INSTRUCTIONS,
    AUDIT_SIDS,
    AUDIT_COMPILED,
    AUDIT_TABLES,
    AUDIT_ANCHOR_WALK,
    AUDIT_ANCHOR_MERGE,
    COLLECTOR_SHARD_SHARDS,
    COLLECTOR_SHARD_FLUSHES,
    COLLECTOR_SHARD_EVENTS,
    COLLECTOR_SHARD_BATCH,
    COLLECTOR_SHARD_MEMO_HITS,
    COLLECTOR_SHARD_MERGE,
    COLLECTOR_EVENTS_DROPPED,
    COLLECTOR_EVENT_LOG_RECORDED,
    COLLECTOR_EVENT_LOG_DROPPED,
    COLLECTOR_RELATIVE_CONTEXTS,
    COLLECTOR_RELATIVE_FRAMES_STORED,
    COLLECTOR_RELATIVE_FRAMES_RAW,
    COLLECTOR_RELATIVE_SKIPPED,
    COLLECTOR_STATS_CONTEXTS,
    COLLECTOR_STATS_UNIQUE,
    COLLECTOR_STATS_MAX_DEPTH,
    COLLECTOR_STATS_MAX_STACK_DEPTH,
    COLLECTOR_STATS_MAX_UCP,
    COLLECTOR_STATS_MAX_ID,
    DECODER_PIECE_CACHE_HITS,
    DECODER_PIECE_CACHE_MISSES,
    DECODER_STACK_CACHE_HITS,
    DECODER_STACK_CACHE_MISSES,
    SPAN_LANES,
    SPAN_DROPPED,
    SPAN_UNBALANCED,
    PROFILE_HOOK_NS,
    PROFILE_HOOK_SAMPLES,
    PROFILE_HOOK_PERIOD,
    ENCODER_BATCHED_SNAPSHOTS_SHARED,
    ENCODER_BATCHED_SNAPSHOTS_BUILT,
    ENCODER_BACKEDGE_PAIRS,
    ENCODER_BACKEDGE_SITES,
    ENCODER_BACKEDGE_PROBES,
];

/// Whether `name` is a registered workspace metric name: either one of
/// the [`ALL`] constants, or a member of the per-technique format
/// families `ops.<technique>.<op>` / `encoder.<technique>.<metric>`.
pub fn is_registered(name: &str) -> bool {
    ALL.contains(&name)
        || name
            .strip_prefix("ops.")
            .or_else(|| name.strip_prefix("encoder."))
            .is_some_and(|rest| rest.contains('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &name in ALL {
            assert!(seen.insert(name), "duplicate registered name {name}");
            assert!(
                name.contains('.')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "malformed name {name}"
            );
        }
    }

    #[test]
    fn format_families_are_recognized() {
        assert!(is_registered("ops.delta.adds"));
        assert!(is_registered("encoder.batched-nocpt.stack_hwm"));
        assert!(is_registered(VM_RUN));
        assert!(!is_registered("ops.dangling"));
        assert!(!is_registered("vm.unheard_of"));
        assert!(!is_registered("encoder.flat"));
    }

    #[test]
    fn batch_engine_names_are_fixed_constants() {
        // The batch engine's machinery metrics must be registered as fixed
        // constants (not left to the `encoder.*` format family alone), so
        // external tooling can key on them.
        for name in [
            ENCODER_BATCHED_SNAPSHOTS_SHARED,
            ENCODER_BATCHED_SNAPSHOTS_BUILT,
            ENCODER_BACKEDGE_PAIRS,
            ENCODER_BACKEDGE_SITES,
            ENCODER_BACKEDGE_PROBES,
        ] {
            assert!(ALL.contains(&name), "{name} missing from the registry");
            assert!(is_registered(name));
        }
    }
}
