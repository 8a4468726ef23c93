//! Per-query records and per-service QoS accounting.
//!
//! A serving simulation emits one [`QueryRecord`] per query; [`ServiceStats`]
//! aggregates them the way the paper reports results:
//!
//! * **Fig. 14 style** (normalised 99%-ile latency): percentile over
//!   *completed* queries only — the paper notes dropped queries "are not
//!   counted in the latency experiment".
//! * **Fig. 15 style** (QoS violation ratio): dropped queries *are* counted
//!   as violations "to reveal the real user experience".
//! * **Fig. 17 style** (peak throughput): queries completed within their QoS
//!   target per second of simulated time (goodput).

use crate::stats::percentile;

/// How a query's lifetime ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Finished processing; latency is meaningful.
    Completed,
    /// Dropped by the scheduler's drop mechanism before completing.
    Dropped,
    /// Evicted by the node's defensive per-query timeout (fault-tolerance
    /// backstop): the query out-waited its wall-clock cap without the
    /// scheduler retiring it. Counts as a violation, like a drop.
    TimedOut,
}

/// The outcome of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Service index within the co-location set.
    pub service: usize,
    /// Arrival timestamp (ms).
    pub arrival_ms: f64,
    /// End-to-end latency (ms); for dropped queries, the time until the drop.
    pub latency_ms: f64,
    /// The query's QoS target (ms).
    pub qos_ms: f64,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// Number of user requests the query carries (its batch size); Fig. 22
    /// counts throughput in requests per second.
    pub requests: u32,
    /// Time spent queueing before the first operator ran, ms (§3.3's
    /// queueing-delay component; equals `latency_ms` for never-started
    /// drops).
    pub queue_ms: f64,
}

impl QueryRecord {
    /// True when the query completed within its QoS target.
    pub fn met_qos(&self) -> bool {
        self.outcome == QueryOutcome::Completed && self.latency_ms <= self.qos_ms
    }
}

/// Aggregated statistics for one service (or a whole co-location set).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    completed_latencies: Vec<f64>,
    /// Queueing delays of completed queries, parallel to
    /// `completed_latencies` (the running `queue_sum_ms` stays — the mean
    /// must remain the exact incremental sum the golden results pin).
    queue_delays: Vec<f64>,
    queue_sum_ms: f64,
    completed_within_qos: usize,
    requests_within_qos: u64,
    dropped: usize,
    timed_out: usize,
    violated: usize,
    total: usize,
}

impl ServiceStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one record into the statistics.
    pub fn record(&mut self, r: &QueryRecord) {
        self.total += 1;
        match r.outcome {
            QueryOutcome::Completed => {
                self.queue_sum_ms += r.queue_ms;
                self.queue_delays.push(r.queue_ms);
                self.completed_latencies.push(r.latency_ms);
                if r.latency_ms <= r.qos_ms {
                    self.completed_within_qos += 1;
                    self.requests_within_qos += u64::from(r.requests);
                } else {
                    self.violated += 1;
                }
            }
            QueryOutcome::Dropped => {
                self.dropped += 1;
            }
            QueryOutcome::TimedOut => {
                self.timed_out += 1;
            }
        }
    }

    /// Fold a batch of records.
    pub fn record_all<'a>(&mut self, rs: impl IntoIterator<Item = &'a QueryRecord>) {
        for r in rs {
            self.record(r);
        }
    }

    /// Merge another accumulator into this one (pooling across services or
    /// across GPU instances).
    pub fn extend_from(&mut self, other: &ServiceStats) {
        self.completed_latencies
            .extend_from_slice(&other.completed_latencies);
        self.queue_delays.extend_from_slice(&other.queue_delays);
        self.queue_sum_ms += other.queue_sum_ms;
        self.completed_within_qos += other.completed_within_qos;
        self.requests_within_qos += other.requests_within_qos;
        self.dropped += other.dropped;
        self.timed_out += other.timed_out;
        self.violated += other.violated;
        self.total += other.total;
    }

    /// Total queries observed (completed + dropped + timed out).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Queries dropped by the scheduler.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Queries evicted by the node's defensive per-query timeout.
    pub fn timed_out(&self) -> usize {
        self.timed_out
    }

    /// 99%-ile latency over completed queries (Fig. 14 convention).
    pub fn p99_latency(&self) -> f64 {
        percentile(&self.completed_latencies, 99.0)
    }

    /// Arbitrary percentile over completed queries.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        percentile(&self.completed_latencies, p)
    }

    /// Mean latency over completed queries.
    pub fn mean_latency(&self) -> f64 {
        crate::stats::mean(&self.completed_latencies)
    }

    /// Mean queueing delay of completed queries (§3.3 breakdown), ms.
    pub fn mean_queue_ms(&self) -> f64 {
        if self.completed_latencies.is_empty() {
            return 0.0;
        }
        self.queue_sum_ms / self.completed_latencies.len() as f64
    }

    /// Arbitrary percentile of the queueing delay over completed queries.
    pub fn queue_percentile(&self, p: f64) -> f64 {
        percentile(&self.queue_delays, p)
    }

    /// Median queueing delay of completed queries, ms.
    pub fn queue_p50_ms(&self) -> f64 {
        self.queue_percentile(50.0)
    }

    /// 99%-ile queueing delay of completed queries, ms.
    pub fn queue_p99_ms(&self) -> f64 {
        self.queue_percentile(99.0)
    }

    /// QoS violation ratio in `[0, 1]`: (late completions + drops +
    /// timeouts) / total (Fig. 15 convention — drops count as violations,
    /// and a timed-out query is an involuntary drop).
    pub fn violation_ratio(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.violated + self.dropped + self.timed_out) as f64 / self.total as f64
    }

    /// Queries completed within QoS.
    pub fn goodput_queries(&self) -> usize {
        self.completed_within_qos
    }

    /// Goodput in queries/second over a horizon: completions within QoS.
    pub fn goodput_qps(&self, horizon_ms: f64) -> f64 {
        assert!(horizon_ms > 0.0);
        self.completed_within_qos as f64 / (horizon_ms / 1000.0)
    }

    /// Queries completed (whether or not within QoS).
    pub fn completed(&self) -> usize {
        self.completed_latencies.len()
    }

    /// Peak serving throughput in queries/second (Fig. 17 convention:
    /// "successfully processed queries per second" — completions; QoS
    /// violations are reported separately).
    pub fn completed_qps(&self, horizon_ms: f64) -> f64 {
        assert!(horizon_ms > 0.0);
        self.completed() as f64 / (horizon_ms / 1000.0)
    }

    /// Goodput in user requests/second (Fig. 22 convention: a query of batch
    /// size `b` carries `b` requests).
    pub fn goodput_rps(&self, horizon_ms: f64) -> f64 {
        assert!(horizon_ms > 0.0);
        self.requests_within_qos as f64 / (horizon_ms / 1000.0)
    }

    /// Completed-query latencies (for CDFs).
    pub fn latencies(&self) -> &[f64] {
        &self.completed_latencies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(latency: f64, qos: f64, outcome: QueryOutcome) -> QueryRecord {
        QueryRecord {
            service: 0,
            arrival_ms: 0.0,
            latency_ms: latency,
            qos_ms: qos,
            outcome,
            requests: 8,
            queue_ms: latency * 0.25,
        }
    }

    #[test]
    fn violation_counts_drops() {
        let mut s = ServiceStats::new();
        s.record(&rec(10.0, 50.0, QueryOutcome::Completed)); // ok
        s.record(&rec(60.0, 50.0, QueryOutcome::Completed)); // late
        s.record(&rec(20.0, 50.0, QueryOutcome::Dropped)); // dropped
        assert_eq!(s.total(), 3);
        assert!((s.violation_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.goodput_queries(), 1);
    }

    #[test]
    fn timeout_counts_as_violation_but_not_drop() {
        let mut s = ServiceStats::new();
        s.record(&rec(10.0, 50.0, QueryOutcome::Completed));
        s.record(&rec(70.0, 50.0, QueryOutcome::TimedOut));
        assert_eq!(s.total(), 2);
        assert_eq!(s.timed_out(), 1);
        assert_eq!(s.dropped(), 0);
        assert!((s.violation_ratio() - 0.5).abs() < 1e-12);
        // Timeouts do not pollute the completed-latency percentile pool.
        assert!(s.p99_latency() < 50.0);
        // And merge correctly.
        let mut pooled = ServiceStats::new();
        pooled.extend_from(&s);
        pooled.extend_from(&s);
        assert_eq!(pooled.timed_out(), 2);
        assert!(!rec(1.0, 50.0, QueryOutcome::TimedOut).met_qos());
    }

    #[test]
    fn p99_uses_completed_only() {
        let mut s = ServiceStats::new();
        for i in 0..100 {
            s.record(&rec(i as f64, 1000.0, QueryOutcome::Completed));
        }
        // A dropped query with huge "latency" must not affect the percentile.
        s.record(&rec(10_000.0, 1000.0, QueryOutcome::Dropped));
        assert!(s.p99_latency() < 100.0);
    }

    #[test]
    fn goodput_rates() {
        let mut s = ServiceStats::new();
        for _ in 0..50 {
            s.record(&rec(10.0, 50.0, QueryOutcome::Completed));
        }
        // 50 queries in 10 s -> 5 qps; each carries 8 requests -> 40 rps.
        assert!((s.goodput_qps(10_000.0) - 5.0).abs() < 1e-12);
        assert!((s.goodput_rps(10_000.0) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn met_qos_semantics() {
        assert!(rec(50.0, 50.0, QueryOutcome::Completed).met_qos());
        assert!(!rec(50.1, 50.0, QueryOutcome::Completed).met_qos());
        assert!(!rec(1.0, 50.0, QueryOutcome::Dropped).met_qos());
    }

    #[test]
    fn queue_breakdown_tracked() {
        let mut s = ServiceStats::new();
        s.record(&rec(40.0, 50.0, QueryOutcome::Completed));
        s.record(&rec(20.0, 50.0, QueryOutcome::Completed));
        // queue_ms = latency * 0.25 in the fixture.
        assert!((s.mean_queue_ms() - 7.5).abs() < 1e-12);
        // Drops do not pollute the completed-query breakdown.
        s.record(&rec(99.0, 50.0, QueryOutcome::Dropped));
        assert!((s.mean_queue_ms() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn queue_percentiles_over_completed_only() {
        let mut s = ServiceStats::new();
        for i in 1..=100 {
            s.record(&rec(4.0 * i as f64, 1000.0, QueryOutcome::Completed));
        }
        s.record(&rec(8000.0, 1000.0, QueryOutcome::Dropped)); // huge queue_ms, ignored
        assert!(
            (s.queue_p50_ms() - 50.0).abs() < 1.0,
            "{}",
            s.queue_p50_ms()
        );
        assert!(s.queue_p99_ms() <= 100.0, "{}", s.queue_p99_ms());
        assert!(s.queue_p99_ms() > s.queue_p50_ms());
        // Pooling carries the delay pool across.
        let mut pooled = ServiceStats::new();
        pooled.extend_from(&s);
        assert_eq!(pooled.queue_p50_ms(), s.queue_p50_ms());
        assert_eq!(ServiceStats::new().queue_p99_ms(), 0.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ServiceStats::new();
        assert_eq!(s.violation_ratio(), 0.0);
        assert_eq!(s.p99_latency(), 0.0);
        assert_eq!(s.total(), 0);
    }
}
