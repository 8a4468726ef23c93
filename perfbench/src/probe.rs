//! Outside-in layer probes.
//!
//! Each probe wraps one layer's public interface, forwards every call to
//! the wrapped object unchanged, and times it from the outside. Forwarding
//! every trait method (not only the required ones) matters: a model that
//! overrides a provided method with a faster batched path must still take
//! that path, or the traced run would compute different bits than the
//! untraced one.

use abacus_core::{DecisionStats, Query, RoundDecision, Scheduler};
use predictor::LatencyModel;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Forward-pass counters of one wrapped predictor. Atomics, because the
/// routed cluster calls its per-GPU predictors from several threads; the
/// counters publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct ForwardStats {
    ns: AtomicU64,
    calls: AtomicU64,
    rows: AtomicU64,
}

impl ForwardStats {
    /// Nanoseconds spent inside forwards so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    /// Forward calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Feature rows scored so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(Relaxed)
    }
}

/// A [`LatencyModel`] that times every forward of the model it wraps.
pub struct TimedModel {
    inner: Arc<dyn LatencyModel>,
    stats: Arc<ForwardStats>,
}

impl TimedModel {
    /// Wrap `inner`, accumulating into `stats`.
    pub fn wrap(inner: Arc<dyn LatencyModel>, stats: Arc<ForwardStats>) -> Arc<dyn LatencyModel> {
        Arc::new(Self { inner, stats })
    }

    fn timed<R>(&self, rows: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.stats.ns.fetch_add(elapsed_ns(t), Relaxed);
        self.stats.calls.fetch_add(1, Relaxed);
        self.stats.rows.fetch_add(rows as u64, Relaxed);
        r
    }
}

impl LatencyModel for TimedModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.timed(1, || self.inner.predict_one(x))
    }

    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        self.timed(n, || self.inner.predict_into(xs, n, out))
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.timed(xs.len(), || self.inner.predict_batch(xs))
    }

    fn predict_derated_into(&self, xs: &[f64], n: usize, derates: &[f64], out: &mut Vec<f64>) {
        self.timed(n, || self.inner.predict_derated_into(xs, n, derates, out))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Decision-layer readings of one [`TimedScheduler`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DecideStats {
    /// Nanoseconds inside `decide`/`decide_into`, predictor included.
    pub ns: u64,
    /// Of `ns`, nanoseconds the wrapped predictor spent in forwards.
    pub forward_ns: u64,
    /// Decisions taken.
    pub calls: u64,
    /// Sum of queue depths seen at each decision.
    pub depth_sum: u64,
    /// Deepest queue seen at a decision.
    pub depth_max: u64,
    /// Queries the scheduler dropped.
    pub dropped: u64,
}

impl DecideStats {
    /// Decision time minus the predictor forwards inside it, ns.
    pub fn self_ns(&self) -> u64 {
        self.ns.saturating_sub(self.forward_ns)
    }

    /// Element-wise merge (sums; maximum for the depth peak).
    pub fn merge(&mut self, o: &DecideStats) {
        self.ns += o.ns;
        self.forward_ns += o.forward_ns;
        self.calls += o.calls;
        self.depth_sum += o.depth_sum;
        self.depth_max = self.depth_max.max(o.depth_max);
        self.dropped += o.dropped;
    }
}

/// A [`Scheduler`] that times every decision of the scheduler it wraps.
/// `forwards` are the counters of the predictor the wrapped scheduler
/// calls, so predictor time can be taken out of decision time.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    forwards: Arc<ForwardStats>,
    stats: DecideStats,
}

impl TimedScheduler {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Scheduler>, forwards: Arc<ForwardStats>) -> Self {
        Self {
            inner,
            forwards,
            stats: DecideStats::default(),
        }
    }

    /// Readings so far.
    pub fn stats(&self) -> DecideStats {
        self.stats
    }

    fn timed(&mut self, depth: usize, f: impl FnOnce(&mut dyn Scheduler) -> usize) {
        let fwd0 = self.forwards.ns();
        let t = Instant::now();
        let dropped = f(self.inner.as_mut());
        self.stats.ns += elapsed_ns(t);
        self.stats.forward_ns += self.forwards.ns() - fwd0;
        self.stats.calls += 1;
        self.stats.depth_sum += depth as u64;
        self.stats.depth_max = self.stats.depth_max.max(depth as u64);
        self.stats.dropped += dropped as u64;
    }
}

impl Scheduler for TimedScheduler {
    fn decide(&mut self, now_ms: f64, queue: &[Query]) -> RoundDecision {
        let mut out = RoundDecision::idle();
        self.timed(queue.len(), |s| {
            out = s.decide(now_ms, queue);
            out.dropped.len()
        });
        out
    }

    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
        self.timed(queue.len(), |s| {
            s.decide_into(now_ms, queue, out);
            out.dropped.len()
        });
    }

    fn on_admit(&mut self, q: &Query) {
        self.inner.on_admit(q);
    }

    fn on_retire(&mut self, q: &Query) {
        self.inner.on_retire(q);
    }

    fn on_group_complete(&mut self, duration_ms: f64) {
        self.inner.on_group_complete(duration_ms);
    }

    fn decision_stats(&self) -> DecisionStats {
        self.inner.decision_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Nanoseconds since `t`, saturated into a `u64` (585 years).
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds from nanoseconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}
