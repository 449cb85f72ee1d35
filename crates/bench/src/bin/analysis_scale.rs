//! Planning throughput on million-node call graphs.
//!
//! ```text
//! analysis_scale [--methods N] [--seed S] [--budget B] [--out DIR]
//! ```
//!
//! Generates a seeded [`ScaleConfig`] call graph (default: the 10^6-method
//! `million()` recipe), then times the full static pipeline — streamed graph
//! construction + CSR adjacency, SCC/back-edge classification, encoding-plan
//! analysis (Algorithms 1 and 2 with batched overflow handling),
//! dispatch-table compilation, and the plan audit (serial and 4-worker
//! parallel) — and writes `BENCH_analysis_scale.json` (schema
//! `deltapath.perf.v1`) under `DIR` (default: the current directory).
//!
//! Field semantics in this suite: one record per pipeline phase, where
//! `encoder` is the phase name, `calls` is the node count, `base_cost` is
//! the phase wall time in nanoseconds, `overhead` is the edge count, and
//! `normalized_speed` is the phase throughput in nodes per second.
//! `unique_contexts` carries the anchor count on the `plan`,
//! `audit_full_*` and `total` phases (zero elsewhere); `max_depth` carries
//! the back-edge count on the `scc` phase and the diagnostic count on the
//! `audit_full_*` phases (zero elsewhere). Both audit phases audit the plan
//! as analysed, and the run fails if the 4-worker report differs from the
//! serial one. `total` sums the four phases before the audit.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use deltapath_analysis::{audit_plan_full, AuditOptions};
use deltapath_bench::perf::{PerfRecord, PerfSuite};
use deltapath_bench::Args;
use deltapath_callgraph::{skeleton_for_graph, ScopeFilter};
use deltapath_core::{EncodingPlan, PlanConfig};
use deltapath_telemetry::NullTelemetry;
use deltapath_workloads::scale::ScaleConfig;

fn main() -> ExitCode {
    let args = Args::from_env(&[
        ("--methods", true),
        ("--seed", true),
        ("--budget", true),
        ("--out", true),
    ]);
    let out_dir = args
        .flag("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| ".".into());
    let methods = match args.flag("--methods") {
        None => 1_000_000,
        Some(m) => match m.parse::<usize>() {
            Ok(n) if n >= 2 => n,
            _ => {
                eprintln!("error: bad --methods value {m:?} (use an integer >= 2)");
                return ExitCode::FAILURE;
            }
        },
    };
    let seed = match args.flag("--seed") {
        None => 42,
        Some(s) => match s.parse::<u64>() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("error: bad --seed value {s:?}");
                return ExitCode::FAILURE;
            }
        },
    };
    let budget = match args.flag("--budget") {
        None => 32,
        Some(b) => match b.parse::<u64>() {
            Ok(v) if v >= 1 => v,
            _ => {
                eprintln!("error: bad --budget value {b:?} (use an integer >= 1)");
                return ExitCode::FAILURE;
            }
        },
    };

    let cfg = if methods == 1_000_000 {
        ScaleConfig::million().with_seed(seed)
    } else {
        ScaleConfig::default().with_methods(methods).with_seed(seed)
    };
    let bench_name = format!("scale-{methods}");
    let nodes = methods as u64;
    let mut perf = PerfSuite::new("analysis_scale");
    let mut record = |phase: &str, nanos: u128, edges: u64, extra: (u64, u64)| {
        let secs = nanos as f64 / 1e9;
        let rate = if secs > 0.0 { nodes as f64 / secs } else { 0.0 };
        perf.records.push(PerfRecord {
            benchmark: bench_name.clone(),
            encoder: phase.to_owned(),
            calls: nodes,
            base_cost: nanos as u64,
            overhead: edges,
            normalized_speed: rate,
            unique_contexts: extra.0,
            max_depth: extra.1,
            calls_per_sec_per_core: 0.0,
        });
        eprintln!("{phase:<12} {:>8.3}s  {rate:>12.0} nodes/s", secs);
    };

    // Phase 1: streamed construction + CSR adjacency index.
    let t = Instant::now();
    let graph = cfg.build_graph();
    let entry = graph.entry().expect("scale graphs have an entry");
    let _ = graph.out_edges(entry); // force the lazy CSR build into this phase
    let build_ns = t.elapsed().as_nanos();
    let edges = graph.edge_count() as u64;
    record("graph_build", build_ns, edges, (0, 0));

    // Phase 2: SCC / back-edge classification.
    let t = Instant::now();
    let info = deltapath_callgraph::back_edges(&graph);
    let scc_ns = t.elapsed().as_nanos();
    record("scc", scc_ns, edges, (0, info.back_edges.len() as u64));

    // Phase 3: full encoding-plan analysis (Algorithms 1 and 2).
    let skeleton = skeleton_for_graph(&bench_name, &graph);
    let config = PlanConfig::default()
        .with_scope(ScopeFilter::All)
        .with_batch_overflow()
        .with_territory_budget(budget);
    let t = Instant::now();
    let plan = match EncodingPlan::from_graph(&skeleton, graph, &config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: planning the scale graph failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan_ns = t.elapsed().as_nanos();
    let anchors = plan.encoding().anchors.len() as u64;
    record("plan", plan_ns, edges, (anchors, 0));

    // Phase 4: dispatch-table compilation.
    let t = Instant::now();
    let compiled = plan.compile();
    let compile_ns = t.elapsed().as_nanos();
    record("compile", compile_ns, edges, (0, 0));
    let _ = compiled;

    // Phase 5/6: full audit of the plan as analysed, serial and 4 workers.
    let t = Instant::now();
    let serial = audit_plan_full(&skeleton, &plan, &AuditOptions::default(), &NullTelemetry);
    let audit_serial_ns = t.elapsed().as_nanos();
    record(
        "audit_full_serial",
        audit_serial_ns,
        edges,
        (anchors, serial.diagnostics.len() as u64),
    );

    let t = Instant::now();
    let par = audit_plan_full(
        &skeleton,
        &plan,
        &AuditOptions::default().with_workers(4),
        &NullTelemetry,
    );
    let audit_par_ns = t.elapsed().as_nanos();
    record(
        "audit_full_par4",
        audit_par_ns,
        edges,
        (anchors, par.diagnostics.len() as u64),
    );

    if par.to_json(&bench_name) != serial.to_json(&bench_name) {
        eprintln!("error: the 4-worker audit's diagnostics diverge from the serial audit's");
        return ExitCode::FAILURE;
    }
    let par_speedup = if audit_par_ns > 0 {
        audit_serial_ns as f64 / audit_par_ns as f64
    } else {
        f64::INFINITY
    };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("4-worker full-audit speedup {par_speedup:.1}x on {cores} core(s)");
    if cores < 2 {
        eprintln!(
            "note: this host exposes a single core, so the 4-worker audit measures \
             scheduling overhead only — worker counts >1 cannot beat serial here"
        );
    }

    record(
        "total",
        build_ns + scc_ns + plan_ns + compile_ns,
        edges,
        (anchors, 0),
    );

    match perf.write_to(&out_dir) {
        Ok(path) => {
            println!("wrote {} records to {}", perf.records.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write perf file: {e}");
            ExitCode::FAILURE
        }
    }
}
