//! The scheduling interface shared by Abacus and the sequential baselines.
//!
//! A serving node calls [`Scheduler::decide_into`] whenever the GPU becomes
//! free; the scheduler may drop queries (the query-drop mechanism §7.1
//! enables for every policy) and proposes at most one operator group to
//! execute. The node reports the executed group's duration back through
//! [`Scheduler::on_group_complete`], which is how Abacus knows how much
//! search latency the pipelined scheduling of §6.3 was able to hide.

use crate::group::PlannedGroup;
use crate::query::Query;

/// The outcome of one scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDecision {
    /// Ids of queries dropped this round (the serving loop removes them and
    /// records them as QoS violations).
    pub dropped: Vec<u64>,
    /// The group to execute next, if any query remains.
    pub group: Option<PlannedGroup>,
    /// Host-side scheduling latency charged before the group starts, ms.
    pub overhead_ms: f64,
}

impl RoundDecision {
    /// An idle decision (empty queue).
    pub fn idle() -> Self {
        Self {
            dropped: Vec::new(),
            group: None,
            overhead_ms: 0.0,
        }
    }
}

/// Decision-layer health counters, surfaced through telemetry. Peaks are
/// high-water marks over the scheduler's lifetime; round counts are
/// cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Deepest the incremental order index has ever been.
    pub order_peak_len: usize,
    /// Peak per-round scratch footprint (rank slots resolved in one round).
    pub scratch_peak: usize,
    /// Rounds served off the incrementally-maintained order.
    pub incremental_rounds: u64,
    /// Rounds that fell back to a full order rebuild (admit/retire hooks
    /// not driven, or an index desync was detected).
    pub full_rebuilds: u64,
}

/// A per-GPU scheduling policy.
pub trait Scheduler: Send {
    /// Decide what to run next, writing the decision into `out` and
    /// reusing its buffers. `queue` holds every incomplete, undropped
    /// query; the scheduler must reference queries by id and must not
    /// assume any ordering. The serving loop keeps one `RoundDecision`
    /// alive across rounds and the scheduler recycles the planned group's
    /// entry vector through it, so a steady-state round allocates nothing.
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision);

    /// [`Scheduler::decide_into`] into a fresh [`RoundDecision`].
    fn decide(&mut self, now_ms: f64, queue: &[Query]) -> RoundDecision {
        let mut out = RoundDecision::idle();
        self.decide_into(now_ms, queue, &mut out);
        out
    }

    /// Observe a query entering the node queue (order-maintenance hook;
    /// optional — a scheduler that never sees it just re-derives order per
    /// round).
    fn on_admit(&mut self, _q: &Query) {}

    /// Observe a query leaving the node queue for any reason (completion,
    /// drop, timeout, eviction), called just before removal.
    fn on_retire(&mut self, _q: &Query) {}

    /// Observe the duration of the group that just finished executing.
    fn on_group_complete(&mut self, _duration_ms: f64) {}

    /// Whether the policy has fallen back to a degraded dispatch mode
    /// (Abacus's FCFS fallback; never for the sequential baselines).
    fn is_degraded(&self) -> bool {
        false
    }

    /// Decision-layer health snapshot (telemetry; default all-zero).
    fn decision_stats(&self) -> DecisionStats {
        DecisionStats::default()
    }

    /// Display name (figure labels).
    fn name(&self) -> &'static str;
}
