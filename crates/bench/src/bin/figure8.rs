//! Regenerates the paper's Figure 8: execution speed under PCC, DeltaPath
//! without call-path tracking, and DeltaPath with call-path tracking,
//! normalized against the native run.
//!
//! Every benchmark executes identically under all four configurations; the
//! instrumentation overhead is the metered abstract cost of the operations
//! each technique injects (the fixed weights of
//! [`deltapath_runtime::CostModel`]). The paper reports throughput
//! (operations per minute) normalized to native; our normalized speed
//! `base / (base + overhead)` is the same quantity under the abstract cost
//! model.

use deltapath_bench::harness::{geomean, run_all_encoders};
use deltapath_bench::table::Table;
use deltapath_runtime::CostModel;
use deltapath_workloads::specjvm::suite;

fn main() {
    println!("Figure 8: normalized execution speed (native = 1.00)\n");
    let mut table = Table::new(&["program", "PCC", "DP wo/CPT", "DP w/CPT", "calls", "bar"]);
    let model = CostModel::default();
    let mut pcc_speeds = Vec::new();
    let mut nocpt_speeds = Vec::new();
    let mut cpt_speeds = Vec::new();
    for bench in suite() {
        let program = bench.program();
        let runs = run_all_encoders(&program, &model);
        let speed = |name: &str| -> f64 {
            runs.iter()
                .find(|r| r.encoder == name)
                .expect("encoder present")
                .normalized_speed()
        };
        let (pcc, nocpt, cpt) = (
            speed("pcc"),
            speed("deltapath-nocpt"),
            speed("deltapath-cpt"),
        );
        pcc_speeds.push(pcc);
        nocpt_speeds.push(nocpt);
        cpt_speeds.push(cpt);
        let bar_len = (cpt * 40.0).round() as usize;
        table.row(vec![
            bench.name.to_owned(),
            format!("{pcc:.3}"),
            format!("{nocpt:.3}"),
            format!("{cpt:.3}"),
            runs[0].run.calls.to_string(),
            "#".repeat(bar_len),
        ]);
    }
    println!("{}", table.render());
    let g = |v: &[f64]| geomean(v);
    println!(
        "geomean speed:   PCC {:.3}   DP wo/CPT {:.3}   DP w/CPT {:.3}",
        g(&pcc_speeds),
        g(&nocpt_speeds),
        g(&cpt_speeds)
    );
    println!(
        "geomean slowdown: PCC {:.1}%   DP wo/CPT {:.1}%   CPT adds {:.1}%",
        (1.0 / g(&pcc_speeds) - 1.0) * 100.0,
        (1.0 / g(&nocpt_speeds) - 1.0) * 100.0,
        (g(&nocpt_speeds) / g(&cpt_speeds) - 1.0) * 100.0
    );
    println!(
        "\npaper reference: DeltaPath wo/CPT 32.5% slowdown, CPT +6.8%, PCC within 0.5%\n\
         of DeltaPath wo/CPT; overhead concentrates in benchmarks with small hot\n\
         functions (compress, mpegaudio, scimark.monte_carlo, sunflow)."
    );
}
