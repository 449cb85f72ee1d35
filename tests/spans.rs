//! Integration tests for the hierarchical span profiler: a golden test
//! pinning the Chrome trace-event JSON byte for byte, a randomized (but
//! deterministic) check that folded-stack export round-trips span nesting,
//! cross-thread merge determinism under `DELTAPATH_STRESS_THREADS`, and a
//! registry check that every metric name a fully instrumented run records
//! is a `telemetry::names` constant.

use std::sync::Arc;

use deltapath::telemetry::{names, Json, Lane, LaneSnapshot, SpanEvent, SpanTree, TRACE_SCHEMA};
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    audit_plan_with, BatchedDeltaEncoder, Capture, CollectMode, CompiledDeltaEncoder, EncodingPlan,
    EventLog, FoldedStacks, HookSampler, PlanConfig, ScopedSpan, ShardedCollector, SpanProfiler,
    SpanSnapshot, Telemetry, Vm, VmConfig,
};

/// Thread counts to stress: `DELTAPATH_STRESS_THREADS=a,b,c` or the
/// default ladder (same contract as the sharded-collector suite).
fn stress_threads() -> Vec<usize> {
    match std::env::var("DELTAPATH_STRESS_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("DELTAPATH_STRESS_THREADS must be a comma-separated list of counts")
            })
            .collect(),
        Err(_) => vec![2, 4, 8],
    }
}

// ---------------------------------------------------------------------------
// Golden Chrome trace
// ---------------------------------------------------------------------------

/// The Chrome export is consumed by external tools (`chrome://tracing`,
/// Perfetto), so its shape is a compatibility surface: pin the exact bytes
/// for a snapshot with two lanes and known timestamps. Any change to field
/// order, metadata records, or the µs conversion must show up here.
#[test]
fn chrome_trace_golden() {
    let mut tree = SpanTree::new();
    tree.record_path(&["plan.analyze"], 1, 2500);
    tree.record_path(&["plan.analyze", "plan.sids"], 1, 500);
    tree.record_path(&["walk"], 1, 1000);
    let snapshot = SpanSnapshot {
        tree,
        lanes: vec![
            LaneSnapshot {
                label: "main".to_owned(),
                events: vec![
                    SpanEvent {
                        name: "plan.sids".to_owned(),
                        start_ns: 1500,
                        duration_ns: 500,
                        depth: 1,
                    },
                    SpanEvent {
                        name: "plan.analyze".to_owned(),
                        start_ns: 1000,
                        duration_ns: 2500,
                        depth: 0,
                    },
                ],
                dropped: 0,
                unbalanced: 0,
            },
            LaneSnapshot {
                label: "thread-0".to_owned(),
                events: vec![SpanEvent {
                    name: "walk".to_owned(),
                    start_ns: 250,
                    duration_ns: 1000,
                    depth: 0,
                }],
                dropped: 0,
                unbalanced: 0,
            },
        ],
    };

    let expected = concat!(
        "{\"otherData\":{\"schema\":\"deltapath.trace.v2\",\"process\":\"golden\"},",
        "\"traceEvents\":[",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"main\"}},",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"plan.sids\",\"ts\":1.5,\"dur\":0.5},",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"plan.analyze\",\"ts\":1.0,\"dur\":2.5},",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"thread-0\"}},",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"walk\",\"ts\":0.25,\"dur\":1.0}",
        "]}",
    );
    assert_eq!(snapshot.chrome_trace("golden"), expected);

    // The golden string is itself valid JSON carrying the schema tag.
    let parsed = Json::parse(expected).expect("golden trace parses");
    let Json::Obj(fields) = &parsed else {
        panic!("trace must be an object")
    };
    let other = fields
        .iter()
        .find(|(k, _)| k == "otherData")
        .map(|(_, v)| v)
        .expect("otherData present");
    let Json::Obj(other) = other else {
        panic!("otherData must be an object")
    };
    assert_eq!(
        other.iter().find(|(k, _)| k == "schema").map(|(_, v)| v),
        Some(&Json::Str(TRACE_SCHEMA.to_owned()))
    );
}

// ---------------------------------------------------------------------------
// Folded export round-trips nesting (deterministic randomized sequences)
// ---------------------------------------------------------------------------

/// A tiny deterministic generator (SplitMix64) — the workspace carries no
/// proptest dependency, so the property is checked over seeded random
/// balanced span sequences instead.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Drives a lane through a random balanced open/close sequence and checks
/// the folded-stack invariants: render/parse round-trips exactly, the
/// folded self-time weights sum to the top-level wall time (nesting is
/// partitioned, never double counted), and every folded path is a real
/// root-to-node path of the span tree.
#[test]
fn folded_round_trips_span_nesting() {
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    for seed in 0..64u64 {
        let mut rng = Rng(seed);
        let mut lane = Lane::new();
        let mut open: Vec<&str> = Vec::new();
        let mut now = 0u64;
        for _ in 0..200 {
            now += 1 + rng.next() % 97;
            let push = open.is_empty() || (open.len() < 6 && rng.next().is_multiple_of(2));
            if push {
                let name = NAMES[(rng.next() % NAMES.len() as u64) as usize];
                open.push(name);
                lane.open(name, now);
            } else {
                let name = open.pop().expect("non-empty checked");
                lane.close(name, now);
            }
        }
        while let Some(name) = open.pop() {
            now += 1 + rng.next() % 97;
            lane.close(name, now);
        }
        assert_eq!(lane.depth(), 0, "seed {seed}: all spans closed");
        assert_eq!(lane.unbalanced(), 0, "seed {seed}: sequence was balanced");

        let folded = lane.tree().folded();
        let text = folded.render();
        let parsed = FoldedStacks::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(parsed, folded, "seed {seed}: render/parse round-trip");

        // Self-times partition wall time: the folded total equals the sum
        // of top-level span totals.
        let top_level: u64 = lane
            .tree()
            .children(lane.tree().root())
            .map(|(name, _)| lane.tree().total_at(&[name]).expect("child exists").1)
            .sum();
        assert_eq!(folded.total(), top_level, "seed {seed}: time partitioned");

        // Every folded line is a real path in the tree, with self-time
        // bounded by that node's total.
        for (stack, weight) in folded.iter() {
            let path: Vec<&str> = stack.split(';').collect();
            let (count, total_ns) = lane
                .tree()
                .total_at(&path)
                .unwrap_or_else(|| panic!("seed {seed}: folded path {stack:?} not in tree"));
            assert!(count > 0, "seed {seed}: {stack:?} completed at least once");
            assert!(
                weight <= total_ns,
                "seed {seed}: self-time {weight} exceeds total {total_ns} at {stack:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-thread merge determinism
// ---------------------------------------------------------------------------

/// N worker threads hammer one profiler with identical nested span
/// sequences plus a per-thread share of leaf spans. However the scheduler
/// interleaves them, the merged tree must come out exactly the same:
/// counts are sums keyed by span *name path*, never dependent on lane
/// order or completion order.
#[test]
fn merged_tree_is_deterministic_across_threads() {
    for &threads in &stress_threads() {
        let profiler = SpanProfiler::new();
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let profiler = &profiler;
                scope.spawn(move || {
                    let outer = ScopedSpan::enter(profiler, "worker.run");
                    for _ in 0..=worker {
                        let inner = ScopedSpan::enter(profiler, "worker.step");
                        profiler.span("worker.leaf", 10, &[]);
                        inner.finish(&[]);
                    }
                    outer.finish(&[("iters", worker as u64 + 1)]);
                });
            }
        });
        let snap = profiler.snapshot();
        assert_eq!(snap.lanes.len(), threads, "{threads} threads: lane count");
        for lane in &snap.lanes {
            assert_eq!(lane.unbalanced, 0, "{threads} threads: balanced lanes");
        }

        // Each worker i runs i+1 steps, so the merged counts are exact.
        let steps = (1..=threads as u64).sum::<u64>();
        let (count, _) = snap.tree.total_at(&["worker.run"]).expect("outer merged");
        assert_eq!(count, threads as u64, "{threads} threads: outer count");
        let (count, _) = snap
            .tree
            .total_at(&["worker.run", "worker.step"])
            .expect("inner merged");
        assert_eq!(count, steps, "{threads} threads: inner count");
        let (count, leaf_ns) = snap
            .tree
            .total_at(&["worker.run", "worker.step", "worker.leaf"])
            .expect("leaf merged");
        assert_eq!(count, steps, "{threads} threads: leaf count");
        assert_eq!(leaf_ns, steps * 10, "{threads} threads: leaf time summed");

        // The folded view exposes exactly the three nested paths, wherever
        // the scheduler put the work.
        let folded = snap.folded();
        let paths: Vec<&str> = folded.iter().map(|(s, _)| s).collect();
        assert_eq!(
            paths,
            vec![
                "worker.run",
                "worker.run;worker.step",
                "worker.run;worker.step;worker.leaf",
            ],
            "{threads} threads: folded paths"
        );
    }
}

// ---------------------------------------------------------------------------
// Metric-name registry
// ---------------------------------------------------------------------------

/// Every name a fully instrumented run records — planner phases, audit
/// passes, the VM, the sharded collector merge, and the sampled compiled
/// hook path — must be a registered `telemetry::names` constant (or a
/// member of the documented `ops.`/`encoder.` families). Catches metric
/// names added as ad-hoc string literals.
#[test]
fn instrumented_run_records_only_registered_names() {
    let program = generate(&SyntheticConfig::default());
    let profiler = Arc::new(SpanProfiler::new());
    let sink: &dyn Telemetry = profiler.as_ref();

    let plan =
        EncodingPlan::analyze_with(&program, &PlanConfig::default(), sink).expect("plan analyzes");
    audit_plan_with(&program, &plan, sink);

    let compiled = plan.compile();
    let mut encoder = CompiledDeltaEncoder::new(&compiled)
        .with_hook_sampler(HookSampler::new(profiler.recorder(), 4));
    let collector = ShardedCollector::new();
    let mut handle = collector.handle();
    let mut vm = Vm::new(
        &program,
        VmConfig::default()
            .with_collect(CollectMode::Entries)
            .with_telemetry(profiler.clone()),
    );
    vm.run(&mut encoder, &mut handle).expect("run succeeds");
    drop(handle);
    collector.stats_with(sink);

    // A second run under the batched encoder, so its `encoder.batched.*` /
    // `encoder.backedge.*` end-of-run metrics flow through the same
    // registry check, and a decode of its events for `decoder.*`.
    let mut batched = BatchedDeltaEncoder::new(&compiled)
        .with_capacity(8)
        .with_batch_telemetry(profiler.recorder());
    let mut vm = Vm::new(
        &program,
        VmConfig::default()
            .with_collect(CollectMode::ObservesOnly)
            .with_telemetry(profiler.clone()),
    );
    let mut log = EventLog::default();
    vm.run(&mut batched, &mut log).expect("batched run");
    let decoder = plan.decoder();
    for (_, _, capture) in &log.events {
        if let Capture::Delta(ctx) = capture {
            decoder.decode(ctx).expect("logged event decodes");
        }
    }
    decoder.report_telemetry(sink);

    let report = profiler.report(program.name());
    let mut checked = 0usize;
    for (kind, name) in report
        .counters
        .iter()
        .map(|(n, _)| ("counter", n.as_str()))
        .chain(report.gauges.iter().map(|(n, _)| ("gauge", n.as_str())))
        .chain(
            report
                .histograms
                .iter()
                .map(|(n, _)| ("histogram", n.as_str())),
        )
        .chain(report.events.iter().map(|e| ("event", e.name.as_str())))
    {
        checked += 1;
        assert!(
            names::is_registered(name),
            "{kind} {name:?} is not in telemetry::names — add a constant for it"
        );
    }
    // The run must actually have exercised the instrumented layers.
    assert!(checked > 20, "only {checked} names recorded — run too thin");
    for expected in [
        names::PLAN_ANALYZE,
        names::AUDIT_PLAN,
        names::VM_CALLS,
        names::COLLECTOR_SHARD_MERGE,
        names::PROFILE_HOOK_SAMPLES,
        names::SPAN_LANES,
        names::ENCODER_BATCHED_FLUSHES,
        names::ENCODER_BATCHED_HOOKS,
        names::ENCODER_BATCHED_BATCH_LEN,
        names::ENCODER_BATCHED_CAPACITY,
        names::ENCODER_BATCHED_SNAPSHOTS_SHARED,
        names::ENCODER_BATCHED_SNAPSHOTS_BUILT,
        names::ENCODER_BACKEDGE_PAIRS,
        names::DECODER_PIECE_CACHE_HITS,
        names::DECODER_STACK_CACHE_HITS,
        names::DECODER_STACK_CACHE_MISSES,
    ] {
        let present = report.counters.iter().any(|(n, _)| n == expected)
            || report.gauges.iter().any(|(n, _)| n == expected)
            || report.histograms.iter().any(|(n, _)| n == expected)
            || report.events.iter().any(|e| e.name == expected);
        assert!(present, "expected {expected:?} in the instrumented report");
    }
}
