//! 1-in-N latency sampling of an encoder's call hook.

use std::sync::Arc;
use std::time::Instant;

use deltapath_ir::{MethodId, SiteId};
use deltapath_telemetry::{names, Counter, Log2Histogram, Recorder, Telemetry};

use crate::encoder::{Capture, ContextEncoder, OpCounts};

/// Wraps any encoder and times 1-in-N of its call hooks.
///
/// The hot path must stay one array load per hook, so per-hook clock reads
/// are out of the question. The sampler keeps a countdown on the call
/// hook; only every `period`-th call reads the clock (twice, around the
/// wrapped encoder's `on_call`, in a `#[cold]` arm) and records the
/// elapsed time into the pre-resolved `profile.hook_ns` histogram —
/// pre-resolved, because a name lookup or `dyn` dispatch per sample would
/// dominate what is being measured. Every other call pays one decrement
/// and one branch. The return, entry and exit hooks, `observe` and the
/// encoder's metrics are forwarded untouched, so wrapping changes no
/// capture, count or encoder metric, and an encoder that is not wrapped
/// pays nothing at all.
///
/// Only call hooks are timed, so `profile.hook_ns` is call-hook latency: a
/// countdown on all four hooks costs the batched encoder's few-nanosecond
/// hooks more than the overhead budget allows.
///
/// The measured budget lives in `results/BENCH_telemetry_overhead.json`:
/// sampled recording must stay within 5% of the bare encoder's hook
/// throughput (enforced by `telemetry_overhead --smoke` in CI).
#[derive(Debug)]
pub struct HookSampler<E> {
    inner: E,
    period: u32,
    countdown: u32,
    hist: Arc<Log2Histogram>,
    samples: Arc<Counter>,
}

impl<E> HookSampler<E> {
    /// Wraps `inner`, recording every `period`-th call hook (clamped to
    /// ≥ 1) into `recorder`'s `profile.hook_ns` histogram and
    /// `profile.hook_samples` counter; the configured period is stamped
    /// into the `profile.hook_period` gauge.
    pub fn new(inner: E, recorder: &Recorder, period: u32) -> Self {
        let period = period.max(1);
        recorder
            .gauge(names::PROFILE_HOOK_PERIOD)
            .observe(u64::from(period));
        Self {
            inner,
            period,
            countdown: period,
            hist: recorder.histogram(names::PROFILE_HOOK_NS),
            samples: recorder.counter(names::PROFILE_HOOK_SAMPLES),
        }
    }

    /// The configured sampling period N.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples.get()
    }
}

impl<E: ContextEncoder> HookSampler<E> {
    /// The due call hook, timed.
    #[cold]
    #[inline(never)]
    fn timed_call(&mut self, site: SiteId) -> E::CallToken {
        self.countdown = self.period;
        let started = Instant::now();
        let token = self.inner.on_call(site);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(ns);
        self.samples.add(1);
        token
    }
}

impl<E: ContextEncoder> ContextEncoder for HookSampler<E> {
    type CallToken = E::CallToken;
    type EntryToken = E::EntryToken;

    fn thread_start(&mut self, entry: MethodId) {
        self.inner.thread_start(entry);
    }

    #[inline]
    fn on_call(&mut self, site: SiteId) -> E::CallToken {
        self.countdown -= 1;
        if self.countdown == 0 {
            return self.timed_call(site);
        }
        self.inner.on_call(site)
    }

    #[inline]
    fn on_return(&mut self, site: SiteId, token: E::CallToken) {
        self.inner.on_return(site, token);
    }

    #[inline]
    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) -> E::EntryToken {
        self.inner.on_entry(method, via_site)
    }

    #[inline]
    fn on_exit(&mut self, method: MethodId, token: E::EntryToken) {
        self.inner.on_exit(method, token);
    }

    fn observe(&mut self, at: MethodId) -> Capture {
        self.inner.observe(at)
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn report_telemetry(&self, sink: &dyn Telemetry) {
        self.inner.report_telemetry(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchedDeltaEncoder;
    use deltapath_core::{EncodingPlan, PlanConfig};
    use deltapath_ir::{MethodKind, ProgramBuilder};

    #[test]
    fn hook_sampler_records_one_in_n() {
        let mut b = ProgramBuilder::new("sampled");
        let c = b.add_class("C", None);
        let leaf = b.method(c, "leaf", MethodKind::Static).finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "leaf");
            })
            .finish();
        b.entry(main);
        let p = b.finish().unwrap();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let site = p.sites().iter().find(|s| s.caller() == main).unwrap().id();

        let recorder = Recorder::new();
        let mut sampled = HookSampler::new(BatchedDeltaEncoder::new(&compiled), &recorder, 4);
        let mut bare = BatchedDeltaEncoder::new(&compiled);
        sampled.thread_start(main);
        bare.thread_start(main);
        for _ in 0..40 {
            sampled.on_call(site);
            bare.on_call(site);
            sampled.on_entry(leaf, Some(site));
            bare.on_entry(leaf, Some(site));
            assert_eq!(sampled.observe(leaf), bare.observe(leaf));
            sampled.on_exit(leaf, ());
            bare.on_exit(leaf, ());
            sampled.on_return(site, ());
            bare.on_return(site, ());
        }
        // 40 call hooks at period 4 → exactly 10 samples; the other hooks
        // are never sampled.
        assert_eq!(sampled.period(), 4);
        assert_eq!(sampled.samples(), 10);
        assert_eq!(recorder.histogram(names::PROFILE_HOOK_NS).count(), 10);
        assert_eq!(
            recorder.gauge(names::PROFILE_HOOK_PERIOD).get(),
            4,
            "period stamped as gauge"
        );
        // Sampling must not perturb the encoding or its metrics.
        assert_eq!(sampled.counts(), bare.counts());
        assert_eq!(sampled.name(), bare.name());
        let metrics = |e: &dyn Fn(&Recorder)| {
            let r = Recorder::new();
            e(&r);
            let report = r.report("t");
            (report.counters, report.gauges)
        };
        assert_eq!(
            metrics(&|r| sampled.report_telemetry(r)),
            metrics(&|r| bare.report_telemetry(r))
        );
    }
}
