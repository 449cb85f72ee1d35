//! Multi-threaded collector throughput: lock-striped batched collection
//! (`ShardedCollector`) vs the same collector degenerated to a global
//! mutex taken on every event (`ShardedCollector::single_shard`).
//!
//! ```text
//! mt_throughput [--out DIR] [--repeat N] [--threads LIST]
//! ```
//!
//! A closed-world synthetic run is captured once; `N` copies of its
//! entry/observe event stream are then replayed, split evenly across the
//! VM threads, into each collector configuration. One
//! `deltapath.perf.v1` record is written per (thread count,
//! configuration) into `BENCH_mt_collector.json`:
//!
//! * `calls` — events delivered, `base_cost` — elapsed nanoseconds;
//! * `normalized_speed` — throughput relative to the single-shard
//!   baseline *at the same thread count* (baseline rows are 1.0);
//! * `unique_contexts` / `max_depth` — from the merged statistics, which
//!   are asserted identical across configurations before writing.

use std::num::{NonZeroUsize, ParseIntError};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use deltapath_bench::perf::{PerfRecord, PerfSuite};
use deltapath_core::{EncodingPlan, PlanConfig};
use deltapath_ir::MethodId;
use deltapath_runtime::{
    Capture, CollectMode, Collector, ContextStats, DeltaEncoder, ShardedCollector, Vm, VmConfig,
};
use deltapath_workloads::synthetic::{generate, SyntheticConfig};

/// One harvested collection event, replayed verbatim.
#[derive(Clone)]
enum Event {
    Entry(MethodId, usize, Capture),
    Observe(u32, MethodId, Capture),
}

/// Captures the event stream of one run for later replay.
#[derive(Default)]
struct Harvest {
    events: Vec<Event>,
}

impl Collector for Harvest {
    fn record_entry(&mut self, method: MethodId, true_depth: usize, capture: Capture) {
        self.events.push(Event::Entry(method, true_depth, capture));
    }

    fn record_observe(&mut self, event: u32, method: MethodId, capture: Capture) {
        self.events.push(Event::Observe(event, method, capture));
    }
}

fn replay(events: Vec<Event>, collector: &mut impl Collector) {
    for event in events {
        match event {
            Event::Entry(method, depth, capture) => collector.record_entry(method, depth, capture),
            Event::Observe(label, method, capture) => {
                collector.record_observe(label, method, capture)
            }
        }
    }
}

/// Replays `repeat` timed copies of the stream split evenly over
/// `threads` threads; returns (events/sec, merged stats, events
/// delivered). Each thread first replays one *untimed* warm-up copy —
/// priming its handle and the collector's distinct set — so the clock
/// measures steady-state collection throughput; the per-thread streams
/// are also cloned before the clock starts, keeping event
/// materialization out of the measurement.
fn measure(
    events: &[Event],
    repeat: usize,
    threads: usize,
    collector: &ShardedCollector,
) -> (f64, ContextStats, u64) {
    let per_thread = repeat.div_ceil(threads);
    let streams: Vec<(Vec<Event>, Vec<Event>)> = (0..threads)
        .map(|_| {
            let warmup = events.to_vec();
            let mut timed = Vec::with_capacity(events.len() * per_thread);
            for _ in 0..per_thread {
                timed.extend(events.iter().cloned());
            }
            (warmup, timed)
        })
        .collect();
    let delivered = streams.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
    let barrier = std::sync::Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|(warmup, timed)| {
                let mut handle = collector.handle();
                let barrier = &barrier;
                scope.spawn(move || {
                    replay(warmup, &mut handle);
                    barrier.wait(); // warm-up done everywhere
                    barrier.wait(); // clock started
                    replay(timed, &mut handle);
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        for h in handles {
            h.join().expect("replay thread");
        }
        let elapsed = start.elapsed();
        let rate = delivered as f64 / elapsed.as_secs_f64();
        (rate, collector.stats(), delivered)
    })
}

/// The `--threads a,b,c` list: positive thread counts.
struct ThreadCounts(Vec<usize>);

impl FromStr for ThreadCounts {
    type Err = ParseIntError;

    fn from_str(list: &str) -> Result<Self, ParseIntError> {
        list.split(',')
            .map(|t| t.parse().map(NonZeroUsize::get))
            .collect::<Result<_, _>>()
            .map(Self)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| deltapath_bench::flag(&args, name);
    let out_dir = flag("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| ".".into());
    let repeat = deltapath_bench::parsed_flag(&args, "--repeat").map_or(32, NonZeroUsize::get);
    let threads: Vec<usize> = deltapath_bench::parsed_flag::<ThreadCounts>(&args, "--threads")
        .map_or_else(|| vec![1, 2, 4, 8], |counts| counts.0);

    // Harvest one synthetic closed-world run. Deep call chains (the
    // heavy-traffic server shape this collector targets) are the
    // representative load: every event carries a full context.
    let config = SyntheticConfig {
        name: "mt_collector".into(),
        seed: 20,
        lib_families: 0,
        lib_methods_per_layer: 0,
        cross_scope_prob: 0.0,
        dynamic_subclass_prob: 0.0,
        main_loop_iters: 6,
        observe_events: 4,
        ..SyntheticConfig::default()
    };
    /// Replayed stream length cap: enough for steady-state measurement,
    /// small enough to pre-materialize the per-thread copies in memory.
    const STREAM_CAP: usize = 40_000;
    let program = generate(&config);
    let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan");
    let mut vm = Vm::new(
        &program,
        VmConfig::default().with_collect(CollectMode::Entries),
    );
    let mut harvest = Harvest::default();
    vm.run(&mut DeltaEncoder::new(&plan), &mut harvest)
        .expect("harvest run");
    let mut events = harvest.events;
    let harvested = events.len();
    events.truncate(STREAM_CAP);
    eprintln!(
        "harvested {harvested} events (replaying {}); {repeat} copies split across threads",
        events.len()
    );

    // Best-of-N passes per configuration: each pass gets a fresh
    // collector, and the best rate is kept (the standard way to shed
    // scheduler noise from short timed regions).
    const PASSES: usize = 3;
    let best_of = |threads: usize, make: &dyn Fn() -> ShardedCollector| {
        let mut best: Option<(f64, ContextStats, u64)> = None;
        for _ in 0..PASSES {
            let collector = make();
            let pass = measure(&events, repeat, threads, &collector);
            if best.as_ref().is_none_or(|(rate, _, _)| pass.0 > *rate) {
                best = Some(pass);
            }
        }
        best.expect("at least one pass")
    };

    let mut perf = PerfSuite::new("mt_collector");
    let mut worst_ratio_at_4 = f64::INFINITY;
    for &t in &threads {
        let (base_rate, base_stats, delivered) = best_of(t, &ShardedCollector::single_shard);
        let (shard_rate, shard_stats, _) = best_of(t, &ShardedCollector::new);

        // The merged statistics must be identical — sharding is lossless.
        assert_eq!(base_stats.total_contexts, shard_stats.total_contexts);
        assert_eq!(base_stats.unique_contexts(), shard_stats.unique_contexts());
        assert_eq!(base_stats.max_depth, shard_stats.max_depth);
        assert_eq!(base_stats.max_id, shard_stats.max_id);

        let ratio = shard_rate / base_rate;
        if t == 4 {
            worst_ratio_at_4 = worst_ratio_at_4.min(ratio);
        }
        eprintln!(
            "threads={t}: single-shard {base_rate:>12.0} ev/s, sharded {shard_rate:>12.0} ev/s ({ratio:.2}x)"
        );
        for (encoder, rate, speed, stats) in [
            ("collector-single-shard", base_rate, 1.0, &base_stats),
            ("collector-sharded", shard_rate, ratio, &shard_stats),
        ] {
            perf.records.push(PerfRecord {
                benchmark: format!("mt/threads={t}"),
                encoder: encoder.to_owned(),
                calls: delivered,
                base_cost: (delivered as f64 / rate * 1e9) as u64,
                overhead: 0,
                normalized_speed: speed,
                unique_contexts: stats.unique_contexts() as u64,
                max_depth: stats.max_depth as u64,
                calls_per_sec_per_core: rate / t as f64,
            });
        }
    }

    match perf.write_to(&out_dir) {
        Ok(path) => {
            println!("wrote {} records to {}", perf.records.len(), path.display());
            if worst_ratio_at_4.is_finite() && worst_ratio_at_4 < 2.0 {
                eprintln!(
                    "warning: sharded/single-shard ratio at 4 threads was {worst_ratio_at_4:.2}x (< 2x)"
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write perf file: {e}");
            ExitCode::FAILURE
        }
    }
}
