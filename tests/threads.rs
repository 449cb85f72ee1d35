//! Multi-threaded encoding: the paper's runtime keeps the encoding state in
//! thread-local storage — one `DeltaState` per thread over one shared,
//! immutable plan. Here several threads execute the same program and each
//! decodes its own contexts independently; threads serving distinct
//! requests each record into their own `ContextStats`, which merge after
//! join to exactly the statistics of the same runs recorded one at a time.
//!
//! The thread counts exercised default to `2, 4, 8`; CI pins specific
//! counts through the `DELTAPATH_STRESS_THREADS` environment variable
//! (a comma-separated list).

mod common;

use std::thread;

use common::stress_threads;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Capture, CollectMode, ContextStats, DeltaEncoder, EncodingPlan, EventLog, MethodId, PlanConfig,
    Program, Vm, VmConfig,
};

fn closed_world(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        name: format!("mt{seed}"),
        seed,
        lib_families: 0,
        lib_methods_per_layer: 0,
        cross_scope_prob: 0.0,
        dynamic_subclass_prob: 0.0,
        main_loop_iters: 4,
        observe_events: 3,
        ..SyntheticConfig::default()
    }
}

/// Runs `program` once under the map-based encoder over `plan` and
/// decodes every observed capture, in event order.
fn decoded_contexts(program: &Program, plan: &EncodingPlan) -> Vec<Vec<MethodId>> {
    let mut vm = Vm::new(
        program,
        VmConfig::default().with_collect(CollectMode::ObservesOnly),
    );
    let mut log = EventLog::default();
    vm.run(&mut DeltaEncoder::new(plan), &mut log).expect("run");
    let decoder = plan.decoder();
    log.events
        .iter()
        .map(|(_, _, capture)| {
            let Capture::Delta(ctx) = capture else {
                unreachable!("the DeltaPath encoder captures Delta contexts")
            };
            decoder.decode(ctx).expect("decode")
        })
        .collect()
}

/// Threads running the same program over one shared plan each decode, on
/// their own, exactly the contexts a single-threaded run decodes.
#[test]
fn threads_share_a_plan_and_decode_independently() {
    let program = generate(&closed_world(77));
    let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap();
    let expected = decoded_contexts(&program, &plan);
    assert!(!expected.is_empty(), "the program observes events");
    for context in &expected {
        assert_eq!(context.first(), Some(&program.entry()));
    }

    let per_thread: Vec<Vec<Vec<MethodId>>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| decoded_contexts(&program, &plan)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("thread completed"))
            .collect()
    });
    for (i, decoded) in per_thread.iter().enumerate() {
        assert_eq!(decoded, &expected, "thread {i}");
    }
}

/// Request `i` of a server-like workload: the closed-world program with
/// `i + 1` main-loop iterations, so later requests reach contexts earlier
/// ones do not. (The synthetic `main` binds its parameter to the loop
/// index, so an entry parameter alone would not change the run.)
fn request(seed: u64, i: usize) -> (Program, EncodingPlan) {
    let program = generate(&SyntheticConfig {
        main_loop_iters: i as u32 + 1,
        ..closed_world(seed)
    });
    let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan");
    (program, plan)
}

/// Runs `program` once, recording every entry capture into `stats`.
fn record((program, plan): &(Program, EncodingPlan), stats: &mut ContextStats) {
    let mut vm = Vm::new(
        program,
        VmConfig::default().with_collect(CollectMode::Entries),
    );
    vm.run(&mut DeltaEncoder::new(plan), stats).expect("run");
}

/// Folds `stats` into empty statistics in the given order.
fn merged(stats: impl IntoIterator<Item = ContextStats>) -> ContextStats {
    let mut out = ContextStats::new();
    for s in stats {
        out.merge(s);
    }
    out
}

/// `threads` VM threads, each serving its own request, record into their
/// own `ContextStats`. Merged after join, in thread order and in reverse,
/// they equal the same runs recorded one at a time into one
/// `ContextStats`.
#[test]
fn concurrent_vm_threads_merge_to_the_sequential_stats() {
    for threads in stress_threads() {
        let requests: Vec<_> = (0..threads).map(|i| request(7, i)).collect();
        let mut sequential = ContextStats::new();
        for r in &requests {
            record(r, &mut sequential);
        }

        let per_thread: Vec<ContextStats> = thread::scope(|scope| {
            let workers: Vec<_> = requests
                .iter()
                .map(|r| {
                    scope.spawn(move || {
                        let mut stats = ContextStats::new();
                        record(r, &mut stats);
                        stats
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("VM thread"))
                .collect()
        });

        assert_eq!(
            merged(per_thread.iter().cloned()),
            sequential,
            "{threads} threads, merged in thread order"
        );
        assert_eq!(
            merged(per_thread.into_iter().rev()),
            sequential,
            "{threads} threads, merged in reverse"
        );
    }
}

/// `merge` has two paths: into empty statistics it moves `other`'s
/// distinct set, into statistics that already hold a run it extends them.
/// Both must equal recording the two runs into one `ContextStats`.
#[test]
fn unbuffered_single_shard_matches_sequential_stats() {
    let (a, b) = (request(19, 2), request(19, 3));
    let mut both = ContextStats::new();
    record(&a, &mut both);
    record(&b, &mut both);
    let (mut first, mut second) = (ContextStats::new(), ContextStats::new());
    record(&a, &mut first);
    record(&b, &mut second);
    assert!(
        both.unique_contexts() > first.unique_contexts(),
        "the second run adds distinct contexts, so a lost set shows"
    );

    let mut moved = ContextStats::new();
    moved.merge(first.clone());
    assert_eq!(moved, first, "merge into empty stats moves the set");
    moved.merge(second.clone());
    assert_eq!(moved, both, "merge after a move extends the set");

    first.merge(second);
    assert_eq!(first, both, "merge into a recorded run extends the set");
}

#[test]
fn plan_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EncodingPlan>();
    assert_send_sync::<deltapath::Program>();
    assert_send_sync::<deltapath::EncodedContext>();
}
