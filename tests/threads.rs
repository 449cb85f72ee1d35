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

use std::sync::Arc;
use std::thread;

use common::stress_threads;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Capture, CollectMode, ContextStats, DeltaEncoder, EncodingPlan, EventLog, PlanConfig, Program,
    Vm, VmConfig,
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

#[test]
fn threads_share_a_plan_and_decode_independently() {
    let program = Arc::new(generate(&closed_world(77)));
    let plan = Arc::new(EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap());

    let handles: Vec<_> = (0u32..4)
        .map(|thread_param| {
            let program: Arc<Program> = Arc::clone(&program);
            let plan = Arc::clone(&plan);
            thread::spawn(move || {
                let mut vm = Vm::new(
                    &program,
                    VmConfig::default()
                        .with_collect(CollectMode::ObservesOnly)
                        .with_entry_param(thread_param),
                );
                let mut encoder = DeltaEncoder::new(&plan);
                let mut log = EventLog::default();
                vm.run(&mut encoder, &mut log).expect("run");
                // Decode everything inside the thread.
                let decoder = plan.decoder();
                let mut decoded = 0usize;
                for (_, _, capture) in &log.events {
                    let Capture::Delta(ctx) = capture else {
                        unreachable!()
                    };
                    let context = decoder.decode(ctx).expect("thread-local decode");
                    assert!(!context.is_empty());
                    assert_eq!(*context.first().unwrap(), program.entry());
                    decoded += 1;
                }
                decoded
            })
        })
        .collect();

    let mut total = 0;
    for h in handles {
        total += h.join().expect("thread completed");
    }
    assert!(total > 0, "the threads observed and decoded events");
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
