//! The benchmark workloads and their seeded program selection.
//!
//! Every workload is a bundled SPECjvm-like recipe from
//! `deltapath_workloads::specjvm` run under one encoding configuration.
//! Without `--seed` the recipe's bundled `SyntheticConfig::seed` is used.
//! With `--seed N` the benchmark draws a panel of distinct generator seeds,
//! by a SplitMix64 stream started at `N`, from the workload's pool
//! (`pools.rs`). `--make-pool` builds a pool offline: seeds whose programs
//! lie within the recipe's band around the bundled program in dynamic calls
//! and captures, and (profile and event log) whose captures all decode
//! within a small search budget (for the event log also a bounded share of
//! hazardous-UCP frames). The band holds fixed the property each workload
//! was chosen for, and summing a panel of programs into each sample
//! averages out what the band leaves free, so a new seed re-checks a claim
//! on programs nobody tuned for without changing what the workload
//! measures. Screening takes hundreds of candidates per accepted program,
//! hence the pools. At run time drawn programs are re-checked only on
//! native statistics, which no encoder, planner or decoder change can move.

use std::collections::HashSet;

use deltapath_callgraph::ScopeFilter;
use deltapath_core::{DecodeOptions, Decoder, EncodingPlan, EncodingWidth, PlanConfig};
use deltapath_ir::{MethodId, Program};
use deltapath_runtime::{
    BatchedDeltaEncoder, Capture, CollectMode, Collector, NullCollector, NullEncoder, RunStats, Vm,
    VmConfig,
};
use deltapath_workloads::rng::SplitMix64;
use deltapath_workloads::specjvm::{suite, SpecBenchmark};
use deltapath_workloads::synthetic::generate;

use crate::pools;

/// Programs drawn per seeded run; their sum is one sample.
const PANEL: usize = 3;

/// Encoding width of every workload, in bits.
pub const WIDTH: u8 = 64;

/// Which collector the instrumented run feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectorKind {
    /// `ContextProfile`: per-context entry counts, folded into a context
    /// flamegraph.
    Profile,
    /// `EventLog`: every observed event, each decoded.
    EventLog,
    /// `NullCollector`: captures are made and discarded.
    Null,
}

impl CollectorKind {
    pub fn name(self) -> &'static str {
        match self {
            CollectorKind::Profile => "ContextProfile",
            CollectorKind::EventLog => "EventLog",
            CollectorKind::Null => "NullCollector",
        }
    }
}

/// The layer a workload was chosen to stress; the traced run reports its
/// share of wall time as `target.share`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetLayer {
    /// Capture plus collector time inside `Vm::run`.
    Collect,
    /// `Decoder::decode` over the event log.
    Decode,
    /// Encoder hooks inside `Vm::run`.
    Hooks,
}

impl TargetLayer {
    pub fn name(self) -> &'static str {
        match self {
            TargetLayer::Collect => "capture+collect",
            TargetLayer::Decode => "decode",
            TargetLayer::Hooks => "encoder.hooks",
        }
    }
}

/// Relative half-widths of a selection band; `None` leaves a statistic
/// free.
#[derive(Clone, Copy, Debug)]
struct Band {
    calls: f64,
    /// Observes (`ObservesOnly`/`Nothing`) or entry captures (`Entries`).
    captures: f64,
    /// Largest multiple of the bundled program's hazardous-UCP frames per
    /// capture. UCP pieces decode by path search, and a few programs carry
    /// ten times the bundled share, which multiplies decode time tenfold.
    ucp_frames: Option<f64>,
    /// Search states every capture must decode within. Some programs hold
    /// UCP pieces whose search exceeds even the decoder's default budget,
    /// or whose path is ambiguous, so their captures fail to decode.
    search_budget: Option<usize>,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The `specjvm` recipe.
    pub program: &'static str,
    pub scope: ScopeFilter,
    pub collect: CollectMode,
    pub collector: CollectorKind,
    pub target: TargetLayer,
    pub why: &'static str,
    /// Generator seeds whose programs are in band (`pools.rs`).
    pool: &'static [u64],
    band: Band,
}

/// The programs one run measures.
pub struct Panel {
    pub programs: Vec<Program>,
    /// Generator seed of each program.
    pub seeds: Vec<u64>,
    /// The programs `setup_s` is timed on: the whole pool whatever the
    /// seed (the bundled program alone without one), so that runs with
    /// different seeds time set-up on the same programs.
    pub setup_programs: Vec<Program>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "profile-monte_carlo",
        program: "scimark.monte_carlo",
        scope: ScopeFilter::ApplicationOnly,
        collect: CollectMode::Entries,
        collector: CollectorKind::Profile,
        target: TargetLayer::Collect,
        why: "context-sensitive profiling: entry captures feed a hash-aggregating \
              collector folded into a context flamegraph; the decoder sees each \
              distinct context once",
        pool: &pools::PROFILE_MONTE_CARLO,
        band: Band {
            calls: 0.20,
            captures: 0.20,
            ucp_frames: None,
            search_budget: Some(4096),
        },
    },
    Workload {
        name: "eventlog-mpegaudio",
        program: "mpegaudio",
        scope: ScopeFilter::All,
        collect: CollectMode::ObservesOnly,
        collector: CollectorKind::EventLog,
        target: TargetLayer::Decode,
        why: "event logging: every logged event is decoded; decode outweighs the \
              run and works on repeated pieces (cache hits)",
        pool: &pools::EVENTLOG_MPEGAUDIO,
        band: Band {
            calls: 0.12,
            captures: 0.12,
            ucp_frames: Some(1.5),
            search_budget: Some(4096),
        },
    },
    Workload {
        name: "hooks-compress",
        program: "compress",
        scope: ScopeFilter::ApplicationOnly,
        collect: CollectMode::Nothing,
        collector: CollectorKind::Null,
        target: TargetLayer::Hooks,
        why: "Figure 8's setting on its worst benchmark: collection off, so with no \
              collector and no decode an encoder hot-path change shows end to end",
        pool: &pools::HOOKS_COMPRESS,
        band: Band {
            calls: 0.10,
            captures: 0.10,
            ucp_frames: None,
            search_budget: None,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn plan_config(&self) -> PlanConfig {
        PlanConfig::default()
            .with_scope(self.scope)
            .with_width(EncodingWidth::new(WIDTH))
    }

    pub fn scope_name(&self) -> &'static str {
        match self.scope {
            ScopeFilter::All => "encoding-all",
            ScopeFilter::ApplicationOnly => "encoding-application",
        }
    }

    pub fn collect_name(&self) -> &'static str {
        match self.collect {
            CollectMode::Nothing => "Nothing",
            CollectMode::ObservesOnly => "ObservesOnly",
            CollectMode::Entries => "Entries",
        }
    }

    fn recipe(&self) -> SpecBenchmark {
        suite()
            .into_iter()
            .find(|b| b.name == self.program)
            .expect("workload names a bundled recipe")
    }

    /// The bundled seed of the recipe.
    pub fn bundled_seed(&self) -> u64 {
        self.recipe().config.seed
    }

    /// The programs a run measures: the bundled one alone without a seed,
    /// else `PANEL` distinct entries of the workload's pool of screened
    /// generator seeds, drawn by a SplitMix64 stream started at the seed.
    /// Each drawn program is checked again on its native statistics, so a
    /// generator change that moves a pool entry out of the band fails
    /// loudly.
    pub fn select(&self, seed: Option<u64>) -> Result<Panel, String> {
        let recipe = self.recipe();
        let Some(seed) = seed else {
            return Ok(Panel {
                programs: vec![recipe.program()],
                seeds: vec![recipe.config.seed],
                setup_programs: vec![recipe.program()],
            });
        };
        let screen = Screen::new(self, &recipe.program())?;
        let mut stream = SplitMix64::seed_from_u64(seed);
        let mut indices: Vec<usize> = Vec::new();
        while indices.len() < PANEL.min(self.pool.len()) {
            let i = stream.gen_range(0..self.pool.len());
            if !indices.contains(&i) {
                indices.push(i);
            }
        }
        let mut panel = Panel {
            programs: Vec::new(),
            seeds: Vec::new(),
            setup_programs: self.pool.iter().map(|&s| self.generate(s)).collect(),
        };
        for i in indices {
            let program = panel.setup_programs[i].clone();
            if !screen.in_band(self, &program) {
                return Err(format!(
                    "pool seed {} of {} is out of band; rebuild the pool with \
                     `perfbench --workload {} --make-pool COUNT`",
                    self.pool[i], self.name, self.name
                ));
            }
            panel.programs.push(program);
            panel.seeds.push(self.pool[i]);
        }
        Ok(panel)
    }

    /// Screens generator seeds from a fixed stream until `count` are in
    /// band and pass the decode screens: the pool `select` draws from
    /// (`perfbench --workload NAME --make-pool COUNT`).
    pub fn make_pool(&self, count: usize) -> Result<Vec<u64>, String> {
        let bundled = self.recipe().program();
        let screen = Screen::new(self, &bundled)?;
        let reference_ucp = match self.band.ucp_frames {
            Some(_) => ucp_frames_per_capture(&bundled, self)?,
            None => 0.0,
        };
        let mut stream = SplitMix64::seed_from_u64(POOL_STREAM_SEED);
        let mut pool = Vec::new();
        let mut tried = 0u64;
        while pool.len() < count {
            let seed = stream.next_u64();
            tried += 1;
            let program = self.generate(seed);
            if screen.in_band(self, &program) && self.decodes_well(&program, reference_ucp) {
                pool.push(seed);
                eprintln!(
                    "{}: {seed} ({}/{count}, {tried} tried)",
                    self.name,
                    pool.len()
                );
            }
        }
        Ok(pool)
    }

    /// The band's decode screens: a bounded share of hazardous-UCP frames
    /// against the bundled program's `reference_ucp`, and every capture
    /// decoding within the search budget.
    fn decodes_well(&self, program: &Program, reference_ucp: f64) -> bool {
        let band = self.band;
        let ucp_ok = band.ucp_frames.is_none_or(|multiple| {
            ucp_frames_per_capture(program, self).is_ok_and(|ucp| ucp <= reference_ucp * multiple)
        });
        ucp_ok
            && band
                .search_budget
                .is_none_or(|budget| decodes_within(program, self, budget))
    }

    fn generate(&self, seed: u64) -> Program {
        let mut config = self.recipe().config;
        config.seed = seed;
        generate(&config)
    }
}

/// The stream `make_pool` screens.
const POOL_STREAM_SEED: u64 = 0x05ee_d0fd_e17a;

/// A workload's band on native statistics, resolved against its bundled
/// program.
struct Screen {
    reference: RunStats,
}

impl Screen {
    fn new(workload: &Workload, bundled: &Program) -> Result<Self, String> {
        let reference = native_stats(bundled, workload.collect, u64::MAX)
            .map_err(|e| format!("bundled {} fails natively: {e}", workload.program))?;
        Ok(Self { reference })
    }

    /// Whether an uninstrumented run of `program` lies within the band in
    /// dynamic calls and captures.
    fn in_band(&self, workload: &Workload, program: &Program) -> bool {
        let (band, reference) = (workload.band, &self.reference);
        let cap = (reference.calls as f64 * (1.0 + band.calls)) as u64;
        let Ok(stats) = native_stats(program, workload.collect, cap) else {
            return false;
        };
        let captures = |s: &RunStats| match workload.collect {
            CollectMode::Entries => s.entries_collected,
            CollectMode::ObservesOnly | CollectMode::Nothing => s.observes,
        };
        within(stats.calls, reference.calls, band.calls)
            && within(captures(&stats), captures(reference), band.captures)
    }
}

fn within(value: u64, reference: u64, share: f64) -> bool {
    let (v, r) = (value as f64, reference as f64);
    v >= r * (1.0 - share) && v <= r * (1.0 + share)
}

/// Statistics of an uninstrumented run, stopped once it exceeds `max_calls`.
fn native_stats(
    program: &Program,
    collect: CollectMode,
    max_calls: u64,
) -> Result<RunStats, String> {
    let config = VmConfig::default()
        .with_collect(collect)
        .with_max_calls(max_calls);
    Vm::new(program, config)
        .run(&mut NullEncoder, &mut NullCollector)
        .map_err(|e| e.to_string())
}

/// Counts captures and the hazardous-UCP frames they carry.
#[derive(Default)]
struct UcpFrames {
    captures: u64,
    frames: u64,
}

impl UcpFrames {
    fn add(&mut self, capture: &Capture) {
        if let Capture::Delta(ctx) = capture {
            self.captures += 1;
            self.frames += ctx.ucp_count() as u64;
        }
    }
}

impl Collector for UcpFrames {
    fn record_entry(&mut self, _method: MethodId, _true_depth: usize, capture: Capture) {
        self.add(&capture);
    }

    fn record_observe(&mut self, _event: u32, _method: MethodId, capture: Capture) {
        self.add(&capture);
    }
}

/// The distinct captures of a run, with the method each was taken in.
#[derive(Default)]
struct DistinctCaptures(HashSet<(MethodId, Capture)>);

impl Collector for DistinctCaptures {
    fn record_entry(&mut self, method: MethodId, _true_depth: usize, capture: Capture) {
        self.0.insert((method, capture));
    }

    fn record_observe(&mut self, _event: u32, method: MethodId, capture: Capture) {
        self.0.insert((method, capture));
    }
}

/// Whether every capture an instrumented run takes in encoded code
/// decodes within `budget` search states.
fn decodes_within(program: &Program, workload: &Workload, budget: usize) -> bool {
    let Ok(plan) = EncodingPlan::analyze(program, &workload.plan_config()) else {
        return false;
    };
    let compiled = plan.compile();
    let mut captures = DistinctCaptures::default();
    let run = Vm::new(program, VmConfig::default().with_collect(workload.collect))
        .run(&mut BatchedDeltaEncoder::new(&compiled), &mut captures);
    let options = DecodeOptions {
        search_state_limit: budget,
        ..DecodeOptions::default()
    };
    let decoder = Decoder::new(&plan, options);
    run.is_ok()
        && captures.0.iter().all(|(at, capture)| match capture {
            Capture::Delta(ctx) if plan.graph().node_of(*at).is_some() => {
                decoder.decode(ctx).is_ok()
            }
            _ => true,
        })
}

/// Mean hazardous-UCP frames per capture of an instrumented run.
fn ucp_frames_per_capture(program: &Program, workload: &Workload) -> Result<f64, String> {
    let plan =
        EncodingPlan::analyze(program, &workload.plan_config()).map_err(|e| e.to_string())?;
    let compiled = plan.compile();
    let mut counter = UcpFrames::default();
    Vm::new(program, VmConfig::default().with_collect(workload.collect))
        .run(&mut BatchedDeltaEncoder::new(&compiled), &mut counter)
        .map_err(|e| e.to_string())?;
    Ok(counter.frames as f64 / counter.captures.max(1) as f64)
}
