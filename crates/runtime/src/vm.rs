//! The IR interpreter with instrumentation hooks.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use deltapath_ir::{CallKind, MethodId, Origin, Program, Receiver, SiteId, Stmt};
use deltapath_telemetry::{names, NullTelemetry, ScopedSpan, Telemetry};

use crate::collect::Collector;
use crate::encoder::ContextEncoder;

/// When the interpreter captures contexts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectMode {
    /// Capture nothing (pure overhead runs).
    Nothing,
    /// Capture only at `Observe` statements.
    ObservesOnly,
    /// Capture at the entry of every application-scope method and at
    /// `Observe` statements — the paper's Table 2 methodology ("we collect
    /// the encoded calling contexts at the entry of the instrumented
    /// application functions").
    Entries,
}

/// Interpreter configuration.
#[derive(Clone)]
pub struct VmConfig {
    /// Maximum dynamic call depth (guards runaway recursion).
    pub max_depth: usize,
    /// Maximum number of dynamic calls (guards runaway loops).
    pub max_calls: u64,
    /// Collection mode.
    pub collect: CollectMode,
    /// Base work units charged per dynamic call (models call overhead, so
    /// call-heavy programs have realistic instrumentation-to-work ratios).
    pub call_cost: u64,
    /// The integer parameter passed to the entry method.
    pub entry_param: u32,
    /// The telemetry sink runs report into. The default
    /// [`NullTelemetry`] records nothing and keeps the run free of any
    /// measurement work: the sink is consulted only in the [`Vm::run`]
    /// epilogue, never per call.
    pub telemetry: Arc<dyn Telemetry>,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            max_depth: 1024,
            max_calls: u64::MAX,
            collect: CollectMode::ObservesOnly,
            call_cost: 5,
            entry_param: 0,
            telemetry: Arc::new(NullTelemetry),
        }
    }
}

impl fmt::Debug for VmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmConfig")
            .field("max_depth", &self.max_depth)
            .field("max_calls", &self.max_calls)
            .field("collect", &self.collect)
            .field("call_cost", &self.call_cost)
            .field("entry_param", &self.entry_param)
            .field("telemetry_enabled", &self.telemetry.enabled())
            .finish()
    }
}

impl VmConfig {
    /// Sets the collection mode.
    pub fn with_collect(mut self, collect: CollectMode) -> Self {
        self.collect = collect;
        self
    }

    /// Sets the entry parameter.
    pub fn with_entry_param(mut self, param: u32) -> Self {
        self.entry_param = param;
        self
    }

    /// Sets the call budget.
    pub fn with_max_calls(mut self, max_calls: u64) -> Self {
        self.max_calls = max_calls;
        self
    }

    /// Sets the telemetry sink (e.g. a
    /// [`Recorder`](deltapath_telemetry::Recorder)).
    pub fn with_telemetry(mut self, telemetry: Arc<dyn Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Dynamic statistics of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total dynamic calls executed (including the entry invocation).
    pub calls: u64,
    /// Abstract work units burned by the program itself (method work,
    /// `Work` statements, per-call base cost) — the "native" execution cost
    /// that instrumentation overhead is compared against.
    pub base_cost: u64,
    /// Number of dynamic classes loaded during the run.
    pub dynamic_loads: u64,
    /// Deepest dynamic call depth reached.
    pub max_call_depth: usize,
    /// Number of `Observe` statements executed.
    pub observes: u64,
    /// Number of entry captures recorded (in [`CollectMode::Entries`]).
    pub entries_collected: u64,
}

/// A runtime failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// The dynamic call depth limit was exceeded.
    DepthExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// The dynamic call budget was exceeded.
    CallBudgetExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// A call site failed to resolve at runtime (cannot happen for
    /// validated programs; indicates IR corruption).
    UnresolvedDispatch {
        /// The failing site.
        site: SiteId,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DepthExceeded { limit } => write!(f, "call depth exceeded {limit}"),
            VmError::CallBudgetExceeded { limit } => {
                write!(f, "dynamic call budget exceeded {limit}")
            }
            VmError::UnresolvedDispatch { site } => {
                write!(f, "site {site} failed to resolve at runtime")
            }
        }
    }
}

impl Error for VmError {}

/// The interpreter.
///
/// One `Vm` holds the per-run mutable state (receiver-cycle counters, class
/// loading state, statistics); [`Vm::run`] executes the program from its
/// entry, driving an encoder's hooks at every call, entry, exit and return,
/// exactly where load-time bytecode rewriting would have injected code.
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    config: VmConfig,
    cycle_counters: Vec<u32>,
    loaded: Vec<bool>,
    /// Pre-resolved dispatch target per site for monomorphic sites (static
    /// calls and fixed-receiver virtual calls) — their target cannot vary
    /// at runtime, so the superclass-chain resolution runs once here
    /// instead of per dynamic call. `None` falls back to full dispatch.
    dispatch: Vec<Option<MethodId>>,
    stats: RunStats,
    app_depth: usize,
}

impl<'p> Vm<'p> {
    /// Creates an interpreter for `program`.
    pub fn new(program: &'p Program, config: VmConfig) -> Self {
        let dispatch = program
            .sites()
            .iter()
            .map(|site| {
                let class = match site.kind() {
                    CallKind::Static => Some(site.declared()),
                    CallKind::Virtual => match site.receiver().expect("validated virtual site") {
                        Receiver::Fixed(c) => Some(*c),
                        Receiver::Cycle(_) | Receiver::ByParam(_) => None,
                    },
                };
                class.and_then(|c| program.resolve(c, site.method()))
            })
            .collect();
        Self {
            program,
            config,
            cycle_counters: vec![0; program.sites().len()],
            loaded: vec![false; program.classes().len()],
            dispatch,
            stats: RunStats::default(),
            app_depth: 0,
        }
    }

    /// Runs the program to completion.
    ///
    /// When the configured telemetry sink is enabled, the run's epilogue
    /// emits a timed `vm.run` span, the run statistics as `vm.*` counters
    /// and gauges, and the encoder's and collector's own reports (see
    /// [`ContextEncoder::report_telemetry`]). No telemetry work happens
    /// per call, so runs against the default [`NullTelemetry`] execute the
    /// exact same instruction stream as before telemetry existed.
    ///
    /// # Errors
    ///
    /// [`VmError`] when a safety limit is hit (the encoder state is then
    /// unspecified; create a fresh `Vm` and encoder to retry). Failed runs
    /// emit no statistics — only the `vm.run` span closes, so hierarchical
    /// sinks keep their per-thread span stacks balanced.
    pub fn run<E: ContextEncoder>(
        &mut self,
        encoder: &mut E,
        collector: &mut impl Collector,
    ) -> Result<RunStats, VmError> {
        self.stats = RunStats::default();
        self.app_depth = 0;
        self.cycle_counters.iter_mut().for_each(|c| *c = 0);
        self.loaded.iter_mut().for_each(|l| *l = false);

        let sink = Arc::clone(&self.config.telemetry);
        let span = ScopedSpan::enter(sink.as_ref(), names::VM_RUN);
        let entry = self.program.entry();
        encoder.thread_start(entry);
        self.invoke(entry, self.config.entry_param, None, 0, encoder, collector)?;
        if sink.enabled() {
            self.report_run(sink.as_ref(), encoder, collector, span);
        }
        Ok(self.stats)
    }

    /// The run epilogue: statistics, encoder and collector reports, and
    /// the `vm.run` span. Only called for enabled sinks. The span is still
    /// open while the encoder and collector report, so hierarchical sinks
    /// nest any span they emit under `vm.run`.
    fn report_run<E: ContextEncoder>(
        &self,
        sink: &dyn Telemetry,
        encoder: &E,
        collector: &impl Collector,
        span: ScopedSpan<'_>,
    ) {
        let stats = &self.stats;
        sink.counter_add(names::VM_CALLS, stats.calls);
        sink.counter_add(names::VM_BASE_COST, stats.base_cost);
        sink.counter_add(names::VM_DYNAMIC_LOADS, stats.dynamic_loads);
        sink.counter_add(names::VM_OBSERVES, stats.observes);
        sink.counter_add(names::VM_ENTRIES_COLLECTED, stats.entries_collected);
        sink.gauge_max(names::VM_MAX_CALL_DEPTH, stats.max_call_depth as u64);
        sink.observe(names::VM_CALL_DEPTH_PEAK, stats.max_call_depth as u64);
        encoder.report_telemetry(sink);
        collector.report_telemetry(sink);
        span.finish(&[("calls", stats.calls), ("base_cost", stats.base_cost)]);
    }

    /// Statistics of the last (or in-progress) run.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    fn invoke<E: ContextEncoder>(
        &mut self,
        method: MethodId,
        param: u32,
        via: Option<SiteId>,
        depth: usize,
        encoder: &mut E,
        collector: &mut impl Collector,
    ) -> Result<(), VmError> {
        if depth >= self.config.max_depth {
            return Err(VmError::DepthExceeded {
                limit: self.config.max_depth,
            });
        }
        if self.stats.calls >= self.config.max_calls {
            return Err(VmError::CallBudgetExceeded {
                limit: self.config.max_calls,
            });
        }
        let program = self.program;
        let m = program.method(method);
        self.stats.calls += 1;
        self.stats.max_call_depth = self.stats.max_call_depth.max(depth + 1);
        self.stats.base_cost += self.config.call_cost + u64::from(m.work());

        // Class loading bookkeeping (dynamic classes load on first use).
        if !self.loaded[m.class().index()] {
            self.loaded[m.class().index()] = true;
            if program.class(m.class()).origin() == Origin::Dynamic {
                self.stats.dynamic_loads += 1;
            }
        }

        // Entry hook — not for the bootstrap invocation of the entry method.
        let entry_token = via.map(|site| encoder.on_entry(method, Some(site)));

        let is_app = program.is_application(method);
        if is_app {
            self.app_depth += 1;
        }
        if self.config.collect == CollectMode::Entries && is_app {
            let capture = encoder.observe(method);
            collector.record_entry(method, self.app_depth, capture);
            self.stats.entries_collected += 1;
        }

        let result = self.exec_block(m.body(), method, param, depth, encoder, collector);

        if is_app {
            self.app_depth -= 1;
        }
        if let Some(token) = entry_token {
            encoder.on_exit(method, token);
        }
        result
    }

    fn exec_block<E: ContextEncoder>(
        &mut self,
        stmts: &'p [Stmt],
        method: MethodId,
        param: u32,
        depth: usize,
        encoder: &mut E,
        collector: &mut impl Collector,
    ) -> Result<(), VmError> {
        for stmt in stmts {
            match stmt {
                Stmt::Call(site) => {
                    self.exec_call(*site, param, depth, encoder, collector)?;
                }
                Stmt::Work(units) => {
                    self.stats.base_cost += u64::from(*units);
                }
                Stmt::Loop {
                    count,
                    bind_param,
                    body,
                } => {
                    for i in 0..*count {
                        let p = if *bind_param { i } else { param };
                        self.exec_block(body, method, p, depth, encoder, collector)?;
                    }
                }
                Stmt::If {
                    modulus,
                    equals,
                    then_branch,
                    else_branch,
                } => {
                    let branch = if param % *modulus == *equals {
                        then_branch
                    } else {
                        else_branch
                    };
                    self.exec_block(branch, method, param, depth, encoder, collector)?;
                }
                Stmt::LoadClass(class) => {
                    if !self.loaded[class.index()] {
                        self.loaded[class.index()] = true;
                        self.stats.dynamic_loads += 1;
                    }
                }
                Stmt::Observe(event) => {
                    let capture = encoder.observe(method);
                    collector.record_observe(*event, method, capture);
                    self.stats.observes += 1;
                }
            }
        }
        Ok(())
    }

    fn exec_call<E: ContextEncoder>(
        &mut self,
        site_id: SiteId,
        param: u32,
        depth: usize,
        encoder: &mut E,
        collector: &mut impl Collector,
    ) -> Result<(), VmError> {
        let program = self.program;
        let site = program.site(site_id);
        // Monomorphic sites were resolved at Vm construction; only
        // polymorphic receivers (or sites whose static resolution failed,
        // which must still surface the runtime error) take the slow path.
        let target = match self.dispatch[site_id.index()] {
            Some(target) => target,
            None => {
                let class = match site.kind() {
                    CallKind::Static => site.declared(),
                    CallKind::Virtual => {
                        let receiver = site.receiver().expect("validated virtual site");
                        match receiver {
                            Receiver::Fixed(c) => *c,
                            Receiver::Cycle(cs) => {
                                let counter = &mut self.cycle_counters[site_id.index()];
                                let c = cs[*counter as usize % cs.len()];
                                *counter = counter.wrapping_add(1);
                                c
                            }
                            Receiver::ByParam(cs) => cs[param as usize % cs.len()],
                        }
                    }
                };
                program
                    .resolve(class, site.method())
                    .ok_or(VmError::UnresolvedDispatch { site: site_id })?
            }
        };
        let arg = site.arg().eval(param);

        let token = encoder.on_call(site_id);
        self.invoke(target, arg, Some(site_id), depth + 1, encoder, collector)?;
        encoder.on_return(site_id, token);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{ContextStats, EventLog, NullCollector};
    use crate::encoder::Capture;
    use crate::encoders::{NullEncoder, StackWalkEncoder};
    use deltapath_ir::{MethodKind, ProgramBuilder};

    fn looping_program() -> Program {
        let mut b = ProgramBuilder::new("loop");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).work(2).finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.loop_(10, |f| {
                    f.call(c, "leaf");
                });
                f.observe(1);
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn counts_calls_and_cost() {
        let p = looping_program();
        let mut vm = Vm::new(&p, VmConfig::default());
        let stats = vm.run(&mut NullEncoder, &mut NullCollector).unwrap();
        assert_eq!(stats.calls, 11); // main + 10 leaf calls
        assert_eq!(stats.observes, 1);
        // base cost: 11 calls * 5 + 10 * work(2)
        assert_eq!(stats.base_cost, 11 * 5 + 20);
        assert_eq!(stats.max_call_depth, 2);
    }

    #[test]
    fn observe_reaches_collector() {
        let p = looping_program();
        let mut vm = Vm::new(&p, VmConfig::default());
        let mut log = EventLog::default();
        let mut walker = StackWalkEncoder::full();
        vm.run(&mut walker, &mut log).unwrap();
        assert_eq!(log.events.len(), 1);
        let (event, method, capture) = &log.events[0];
        assert_eq!(*event, 1);
        assert_eq!(*method, p.entry());
        assert_eq!(*capture, Capture::Walk(vec![p.entry()].into()));
    }

    #[test]
    fn entries_mode_collects_app_methods() {
        let p = looping_program();
        let mut vm = Vm::new(&p, VmConfig::default().with_collect(CollectMode::Entries));
        let mut stats = ContextStats::new();
        let mut walker = StackWalkEncoder::full();
        let run = vm.run(&mut walker, &mut stats).unwrap();
        assert_eq!(run.entries_collected, 11);
        assert_eq!(stats.total_contexts, 11);
        // Two distinct walked contexts: [main] and [main, leaf].
        assert_eq!(stats.unique_contexts(), 2);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn call_budget_is_enforced() {
        let p = looping_program();
        let mut vm = Vm::new(&p, VmConfig::default().with_max_calls(5));
        let err = vm.run(&mut NullEncoder, &mut NullCollector).unwrap_err();
        assert_eq!(err, VmError::CallBudgetExceeded { limit: 5 });
    }

    #[test]
    fn depth_limit_stops_unbounded_recursion() {
        let mut b = ProgramBuilder::new("inf");
        let c = b.add_class("C", None);
        b.method(c, "spin", MethodKind::Static)
            .body(|f| {
                f.call(c, "spin");
            })
            .finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "spin");
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        let err = vm.run(&mut NullEncoder, &mut NullCollector).unwrap_err();
        assert_eq!(err, VmError::DepthExceeded { limit: 1024 });
    }

    #[test]
    fn cycle_receivers_rotate_deterministically() {
        let mut b = ProgramBuilder::new("cyc");
        let a = b.add_class("A", None);
        let c1 = b.add_class("C1", Some(a));
        b.method(a, "f", MethodKind::Virtual).work(1).finish();
        b.method(c1, "f", MethodKind::Virtual).work(10).finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.loop_(4, |f| {
                    f.vcall(a, "f", deltapath_ir::Receiver::Cycle(vec![a, c1]));
                });
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        let stats = vm.run(&mut NullEncoder, &mut NullCollector).unwrap();
        // 2x A.f (work 1) + 2x C1.f (work 10) + 5 calls * 5.
        assert_eq!(stats.base_cost, 2 + 20 + 5 * 5);
    }

    #[test]
    fn by_param_receiver_uses_argument() {
        let mut b = ProgramBuilder::new("byp");
        let a = b.add_class("A", None);
        let c1 = b.add_class("C1", Some(a));
        b.method(a, "f", MethodKind::Virtual).work(1).finish();
        b.method(c1, "f", MethodKind::Virtual).work(10).finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.loop_bind(4, |f| {
                    f.vcall_arg(
                        a,
                        "f",
                        deltapath_ir::Receiver::ByParam(vec![a, c1]),
                        deltapath_ir::ArgExpr::Param,
                    );
                });
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        let stats = vm.run(&mut NullEncoder, &mut NullCollector).unwrap();
        // params 0..3 → A, C1, A, C1.
        assert_eq!(stats.base_cost, 2 + 20 + 5 * 5);
    }

    #[test]
    fn dynamic_loads_are_counted_once() {
        let mut b = ProgramBuilder::new("dyn");
        let a = b.add_class("A", None);
        let x = b.add_dynamic_class("X", Some(a));
        b.method(a, "f", MethodKind::Virtual).finish();
        b.method(x, "f", MethodKind::Virtual).finish();
        let main = b
            .method(a, "main", MethodKind::Static)
            .body(|f| {
                f.loop_(3, |f| {
                    f.vcall(a, "f", deltapath_ir::Receiver::Cycle(vec![a, x]));
                });
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        let stats = vm.run(&mut NullEncoder, &mut NullCollector).unwrap();
        assert_eq!(stats.dynamic_loads, 1);
    }
}
