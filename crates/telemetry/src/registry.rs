//! Fixed-shape counter and histogram registry.
//!
//! The registry is deliberately allocation-free and hash-free: counters and
//! histograms are enum-indexed arrays, so recording is a bounds-checked
//! array bump and iteration order is the enum declaration order — the same
//! on every run and every thread count. Its cost is only paid when a
//! [`crate::Telemetry`] is threaded into the serving loop at all; the
//! disabled path (`None`) never touches it.

/// Monotone counters of the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Queries admitted into the node queue.
    QueriesArrived,
    /// Queries retired as completed.
    QueriesCompleted,
    /// Queries retired by the scheduler's drop mechanism.
    QueriesDropped,
    /// Queries evicted by the defensive timeout / livelock guard.
    QueriesTimedOut,
    /// Scheduler decisions taken (including plan-less rounds).
    SchedRounds,
    /// Operator groups dispatched to the executor.
    GroupsExecuted,
    /// Batched candidate-scoring calls spent by the multi-way search.
    PredictionRounds,
    /// Kernel-level events processed by the GPU engine (cumulative).
    EngineEvents,
    /// Kernel latency-spike fault activations (cumulative).
    FaultSpikes,
    /// Deepest simultaneous kernel set seen by the engine core (peak).
    EngineMaxActive,
    /// Deepest pending-arrival backlog seen by the engine core (peak).
    EnginePendingPeak,
    /// Deepest queue a scheduler round has scanned (peak).
    DecisionScratchPeak,
    /// Queries the cluster router placed on the best-headroom node.
    RouterRouted,
    /// Queries spilled to the weighted overflow pool (no node had
    /// headroom, but the predicted miss was within the spill slack).
    RouterSpilled,
    /// Queries shed at ingress (no node could finish inside the deadline).
    RouterShed,
    /// Arrivals the router scored (past the overload fast-path). Each
    /// scores every active GPU but forwards only the rows it has not
    /// scored before, so model forwards number at most this.
    RouterForwards,
    /// GPU activations by the predictive autoscaler (cumulative).
    AutoscaleUpEvents,
    /// GPU deactivations by the predictive autoscaler (cumulative).
    AutoscaleDownEvents,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 18] = [
        Counter::QueriesArrived,
        Counter::QueriesCompleted,
        Counter::QueriesDropped,
        Counter::QueriesTimedOut,
        Counter::SchedRounds,
        Counter::GroupsExecuted,
        Counter::PredictionRounds,
        Counter::EngineEvents,
        Counter::FaultSpikes,
        Counter::EngineMaxActive,
        Counter::EnginePendingPeak,
        Counter::DecisionScratchPeak,
        Counter::RouterRouted,
        Counter::RouterSpilled,
        Counter::RouterShed,
        Counter::RouterForwards,
        Counter::AutoscaleUpEvents,
        Counter::AutoscaleDownEvents,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::QueriesArrived => "queries_arrived",
            Counter::QueriesCompleted => "queries_completed",
            Counter::QueriesDropped => "queries_dropped",
            Counter::QueriesTimedOut => "queries_timed_out",
            Counter::SchedRounds => "sched_rounds",
            Counter::GroupsExecuted => "groups_executed",
            Counter::PredictionRounds => "prediction_rounds",
            Counter::EngineEvents => "engine_events",
            Counter::FaultSpikes => "fault_spikes",
            Counter::EngineMaxActive => "engine_max_active",
            Counter::EnginePendingPeak => "engine_pending_peak",
            Counter::DecisionScratchPeak => "decision_scratch_peak",
            Counter::RouterRouted => "router_routed",
            Counter::RouterSpilled => "router_spilled",
            Counter::RouterShed => "router_shed",
            Counter::RouterForwards => "router_forwards",
            Counter::AutoscaleUpEvents => "autoscale_up_events",
            Counter::AutoscaleDownEvents => "autoscale_down_events",
        }
    }
}

/// Histograms of the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Candidate-scoring calls per scheduling decision (search iterations).
    SearchRounds,
    /// Queries per executed operator group (overlap width).
    GroupWays,
    /// Predictor batch size per scoring call.
    PredictorBatch,
    /// Queueing delay of completed queries, ms.
    QueueDelayMs,
    /// Wall time per executed operator group, ms.
    GroupDurationMs,
    /// Headroom-score spread (best − worst candidate, ms) per routed
    /// arrival — how much signal the router had to discriminate nodes.
    RouterScoreSpreadMs,
}

impl Hist {
    /// Every histogram, in display order.
    pub const ALL: [Hist; 6] = [
        Hist::SearchRounds,
        Hist::GroupWays,
        Hist::PredictorBatch,
        Hist::QueueDelayMs,
        Hist::GroupDurationMs,
        Hist::RouterScoreSpreadMs,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SearchRounds => "search_rounds",
            Hist::GroupWays => "group_ways",
            Hist::PredictorBatch => "predictor_batch",
            Hist::QueueDelayMs => "queue_delay_ms",
            Hist::GroupDurationMs => "group_duration_ms",
            Hist::RouterScoreSpreadMs => "router_score_spread_ms",
        }
    }

    /// Upper bucket edges (inclusive); values past the last edge land in
    /// the overflow bucket.
    fn edges(self) -> &'static [f64; 15] {
        const COUNTS: [f64; 15] = [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0,
        ];
        const MILLIS: [f64; 15] = [
            0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
            5000.0,
        ];
        match self {
            Hist::SearchRounds | Hist::GroupWays | Hist::PredictorBatch => &COUNTS,
            Hist::QueueDelayMs | Hist::GroupDurationMs | Hist::RouterScoreSpreadMs => &MILLIS,
        }
    }
}

/// A fixed-bucket histogram (15 bounded buckets + overflow).
#[derive(Debug, Clone)]
pub struct Histogram {
    edges: &'static [f64; 15],
    buckets: [u64; 16],
    count: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    fn new(edges: &'static [f64; 15]) -> Self {
        Self {
            edges,
            buckets: [0; 16],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Record one observation.
    ///
    /// Bucket edges are **inclusive upper bounds**: an observation exactly
    /// equal to an edge lands in the *lower* bucket (`v > edge` advances,
    /// `v == edge` does not). This is the convention `edges()` documents
    /// ("upper bucket edges (inclusive)") and tests pin — a `GroupWays`
    /// observation of exactly 2.0 counts in the `≤2` bucket, not `≤3`.
    fn record(&mut self, v: f64) {
        let mut b = 0usize;
        while b < self.edges.len() && v > self.edges[b] {
            b += 1;
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observed value.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Per-bucket observation counts: 15 bounded buckets followed by the
    /// overflow bucket.
    pub fn buckets(&self) -> &[u64; 16] {
        &self.buckets
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`p` in `[0, 100]`); the overflow bucket reports the observed max.
    pub fn quantile_bound(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if b < self.edges.len() {
                    self.edges[b]
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

/// Enum-indexed counters and histograms for one run.
#[derive(Debug, Clone)]
pub struct Registry {
    counters: [u64; Counter::ALL.len()],
    hists: [Histogram; Hist::ALL.len()],
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            counters: [0; Counter::ALL.len()],
            hists: Hist::ALL.map(|h| Histogram::new(h.edges())),
        }
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, c: Counter) {
        self.counters[c as usize] += 1;
    }

    /// Increment a counter by `n`.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Overwrite a counter with an externally-accumulated total (engine
    /// events, fault spikes — the executor owns the cumulative count).
    pub fn set(&mut self, c: Counter, v: u64) {
        self.counters[c as usize] = v;
    }

    /// Current counter value.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, h: Hist, v: f64) {
        self.hists[h as usize].record(v);
    }

    /// A histogram's current state.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// `(name, value)` rows for every counter, in declaration order.
    pub fn counter_rows(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL.map(|c| (c.name(), self.get(c))).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.inc(Counter::QueriesArrived);
        r.add(Counter::QueriesArrived, 4);
        r.set(Counter::EngineEvents, 123);
        assert_eq!(r.get(Counter::QueriesArrived), 5);
        assert_eq!(r.get(Counter::EngineEvents), 123);
        assert_eq!(r.get(Counter::QueriesDropped), 0);
        assert_eq!(r.counter_rows()[0], ("queries_arrived", 5));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut r = Registry::new();
        for v in [1.0, 1.0, 2.0, 3.0, 40.0] {
            r.observe(Hist::SearchRounds, v);
        }
        let h = r.hist(Hist::SearchRounds);
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 9.4).abs() < 1e-12);
        assert_eq!(h.max(), 40.0);
        assert_eq!(h.quantile_bound(50.0), 2.0);
        assert_eq!(h.quantile_bound(99.0), 48.0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let mut r = Registry::new();
        r.observe(Hist::QueueDelayMs, 9_999.0);
        assert_eq!(r.hist(Hist::QueueDelayMs).quantile_bound(99.0), 9_999.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let r = Registry::new();
        let h = r.hist(Hist::GroupWays);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_bound(50.0), 0.0);
        // Zero-observation display values: no NaN anywhere.
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.buckets().iter().all(|&b| b == 0));
    }

    #[test]
    fn exact_boundary_value_lands_in_lower_bucket() {
        // The pinned convention: edges are inclusive upper bounds, so an
        // observation exactly on an edge stays in the lower bucket.
        let mut r = Registry::new();
        r.observe(Hist::GroupWays, 2.0); // edge between buckets ≤2 and ≤3
        let h = r.hist(Hist::GroupWays);
        assert_eq!(h.buckets()[1], 1, "v == edge must land in the ≤2 bucket");
        assert_eq!(h.buckets()[2], 0);
        assert_eq!(h.quantile_bound(100.0), 2.0);
        // Infinitesimally above the edge crosses into the next bucket.
        let mut r2 = Registry::new();
        r2.observe(Hist::GroupWays, 2.0 + 1e-9);
        assert_eq!(r2.hist(Hist::GroupWays).buckets()[2], 1);
    }

    #[test]
    fn overflow_bucket_accounting() {
        let mut r = Registry::new();
        // Last edge of the MILLIS scale is 5000; exactly 5000 is bounded,
        // anything above it overflows.
        r.observe(Hist::QueueDelayMs, 5000.0);
        r.observe(Hist::QueueDelayMs, 5000.1);
        r.observe(Hist::QueueDelayMs, 80_000.0);
        let h = r.hist(Hist::QueueDelayMs);
        assert_eq!(h.buckets()[14], 1, "v == last edge stays bounded");
        assert_eq!(h.buckets()[15], 2, "two observations overflow");
        assert_eq!(h.count(), 3);
        // Overflow contributes to sum/mean/max like any observation…
        assert_eq!(h.max(), 80_000.0);
        assert!((h.sum() - 90_000.1).abs() < 1e-6);
        // …and the overflow bucket's quantile bound is the observed max,
        // not the (unbounded) edge.
        assert_eq!(h.quantile_bound(99.0), 80_000.0);
    }
}
