//! # deltapath-bench
//!
//! The benchmark harness regenerating the DeltaPath paper's evaluation:
//!
//! * `table1` (binary) — static program characteristics per benchmark and
//!   encoding setting (paper Table 1);
//! * `table2` (binary) — dynamic characteristics: contexts, depths, unique
//!   encodings for PCC vs DeltaPath, stack depths, UCPs (paper Table 2);
//! * `figure8` (binary) — normalized execution speed of PCC, DeltaPath
//!   without and with call-path tracking (paper Figure 8);
//! * `ablation_anchors` (binary) — anchors and max ID vs encoding width
//!   (our ablation A1);
//! * `perf_records` (binary) — the Figure 8 measurements as machine-readable
//!   `BENCH_*.json` files (see [`perf`]);
//! * `decode_cost`, `encoder_hotpath`, `telemetry_overhead`,
//!   `mt_throughput` and `analysis_scale` (binaries) — wall-clock decode,
//!   encoder hot-path, telemetry, collector and planning costs.
//!
//! This library crate holds the shared harness code (running a benchmark
//! under every encoder, formatting tables).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod hooks;
pub mod perf;
pub mod table;
