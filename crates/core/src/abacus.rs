//! The Abacus headroom-based query controller (§4, §6).
//!
//! Each round:
//!
//! 1. scan the queue once: drop every query already past its deadline, and
//!    take each service's least-headroom query (§6.1), in ascending
//!    headroom order (Eq. 2);
//! 2. drop any head query whose remaining operators alone are predicted not
//!    to fit in its headroom (§6.2's drop mechanism — continuing would
//!    violate this *and* later queries);
//! 3. run the multi-way search ([`crate::search`]) to form the largest
//!    operator group that the latency predictor certifies against the head
//!    query's headroom;
//! 4. account for scheduling latency: with pipelined scheduling (§6.3,
//!    Fig. 13) the search overlaps the previous group's execution and costs
//!    nothing on the critical path unless the GPU was idle; the
//!    non-pipelined ablation charges it every round.

use crate::group::{PlannedEntry, PlannedGroup};
use crate::query::Query;
use crate::scheduler::{DecisionStats, RoundDecision, Scheduler};
use crate::search::{plan_group_core, PlanOutcome, SearchBuffers};
use dnn_models::{ModelLibrary, MODEL_COUNT};
use predictor::{encode_features_with_ops, GroupEntry, LatencyModel, FEATURE_DIM};
use std::sync::Arc;
use std::time::Instant;

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct AbacusConfig {
    /// Search ways `m` of the multi-way search (Fig. 23; default 4).
    pub ways: usize,
    /// Latency of one batched prediction round, ms. `None` (the default)
    /// measures it at controller startup by timing real prediction rounds
    /// against the supplied model ([`calibrate_predict_round_ms`]) — the
    /// paper's Fig. 23 measures 0.066–0.088 ms on one core, and §6.3
    /// reports ≈ 0.26 ms for a full scheduling decision of ≈ 3 rounds, but
    /// the true figure depends on the predictor and host, so a hard-coded
    /// constant mis-charges the pipelined-scheduling account (Eq. 3).
    pub predict_round_ms: Option<f64>,
    /// Fixed controller bookkeeping per round (sorting, headroom math), ms.
    pub base_overhead_ms: f64,
    /// Whether scheduling is pipelined with execution (§6.3). Disable for
    /// the ablation bench.
    pub pipelined: bool,
    /// Fixed safety margin subtracted from the head query's headroom, ms.
    pub margin_ms: f64,
    /// Relative safety margin: the budget is additionally divided by
    /// `1 + margin_frac`, absorbing the predictor's *proportional* error
    /// tail (the §5.2 noise is multiplicative, so a fixed margin alone
    /// under-protects long groups).
    pub margin_frac: f64,
    /// Opt-in (default off) safety-margin autotuner: adds the rolling
    /// under-prediction bias ([`AbacusScheduler::rolling_error`], floored
    /// at zero — over-prediction is already conservative) on top of
    /// `margin_frac`, so a drifting predictor automatically gets a wider
    /// §6.2 margin instead of certifying groups it can no longer predict.
    /// Off by default — with it off the controller is bit-identical to the
    /// pre-fault-layer behaviour.
    pub adaptive_margin: bool,
    /// Opt-in graceful degradation: when the rolling under-prediction bias
    /// exceeds this threshold — or [`FALLBACK_BARREN_ROUNDS`] consecutive
    /// rounds drop queries without planning anything (total predictor
    /// failure leaves no completions to measure error on) — the controller
    /// permanently falls back to FCFS dispatch: one query at a time, no
    /// predictions trusted, the baseline drop mechanism retained. `None`
    /// (the default) never degrades.
    pub fcfs_fallback_error: Option<f64>,
}

/// Consecutive planless-with-drops rounds before [`AbacusConfig::fcfs_fallback_error`]
/// trips even without error samples (a frozen-high predictor drops every
/// query as infeasible, so the error EWMA alone would never observe it).
pub const FALLBACK_BARREN_ROUNDS: u32 = 8;

/// EWMA smoothing factor of the rolling under-prediction bias.
const ERR_EWMA_ALPHA: f64 = 0.2;

/// Denominator floor for the relative-error samples, ms. Serving plans
/// many sub-millisecond remainder groups whose *relative* error is huge
/// while their absolute error is irrelevant; without the floor those
/// samples dominate the EWMA and a healthy predictor reads as broken.
const ERR_MIN_DURATION_MS: f64 = 1.0;

/// Error samples required before [`AbacusConfig::fcfs_fallback_error`] may
/// trip: one unlucky first group must not latch permanent degradation.
pub const ERR_WARMUP_SAMPLES: u32 = 5;

impl Default for AbacusConfig {
    fn default() -> Self {
        Self {
            ways: 4,
            predict_round_ms: None,
            base_overhead_ms: 0.02,
            pipelined: true,
            margin_ms: 0.3,
            margin_frac: 0.05,
            adaptive_margin: false,
            fcfs_fallback_error: None,
        }
    }
}

/// Measure the wall-clock latency of one batched prediction round of
/// `model` at batch size `ways`, in milliseconds.
///
/// Runs a short warmup (filling caches and, for the MLP engine, its
/// thread-local workspace), then times 101 real `predict_into` rounds on
/// synthetic Fig. 8-shaped feature rows and takes the median — robust to
/// scheduler preemption spikes in either direction. The result is clamped
/// to `[1e-4, 1.0]` ms so a pathological measurement can never zero out or
/// dominate the Eq. 3 scheduling account.
pub fn calibrate_predict_round_ms(model: &dyn LatencyModel, ways: usize) -> f64 {
    let ways = ways.max(1);
    // Deterministic synthetic rows in [0, 1): forward-pass cost does not
    // depend on the feature values, only on the shape.
    let mut xs = vec![0.0; ways * FEATURE_DIM];
    for (i, v) in xs.iter_mut().enumerate() {
        *v = (i % 7) as f64 / 7.0;
    }
    let mut out = Vec::with_capacity(ways);
    for _ in 0..16 {
        model.predict_into(&xs, ways, &mut out);
        std::hint::black_box(&out);
    }
    let mut samples: Vec<f64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            model.predict_into(&xs, ways, &mut out);
            std::hint::black_box(&out);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2].clamp(1e-4, 1.0)
}

/// The Abacus scheduler.
pub struct AbacusScheduler {
    model: Arc<dyn LatencyModel>,
    /// Calibrated upper-bound model for conformal certification
    /// ([`AbacusScheduler::with_certifier`]); `None` keeps mean + margin
    /// planning.
    certifier: Option<Arc<dyn LatencyModel>>,
    lib: Arc<ModelLibrary>,
    cfg: AbacusConfig,
    /// Resolved per-round prediction latency: `cfg.predict_round_ms` or the
    /// startup calibration.
    predict_round_ms: f64,
    /// Duration of the previously executed group: the window pipelined
    /// scheduling can hide search latency in.
    hide_window_ms: f64,
    /// Cumulative prediction rounds (for the overhead report).
    total_prediction_rounds: u64,
    /// Cumulative scheduling rounds.
    total_rounds: u64,
    /// Predicted duration of the in-flight group, paired with the observed
    /// duration in [`Scheduler::on_group_complete`] to track error.
    last_predicted_ms: Option<f64>,
    /// Rolling EWMA of the signed under-prediction bias
    /// (observed − predicted) / observed; `None` until the first completed
    /// group.
    err_ewma: Option<f64>,
    /// Error samples absorbed by the EWMA (fallback warmup gate).
    err_samples: u32,
    /// Consecutive rounds that dropped queries without planning a group.
    barren_rounds: u32,
    /// Latched FCFS fallback (see [`AbacusConfig::fcfs_fallback_error`]).
    degraded: bool,
    /// Arena-backed per-round scratch; see [`DecisionScratch`].
    scratch: DecisionScratch,
    /// Cumulative decision-layer health counters.
    stats: DecisionStats,
}

/// Round-scoped scratch owned by the scheduler. Every buffer is reused
/// across rounds, so once capacities reach steady state a `decide_into`
/// round performs zero heap allocations (pinned by the counting-allocator
/// test in `tests/decision_alloc.rs`).
struct DecisionScratch {
    /// Queue positions of the round's expired queries.
    expired: Vec<usize>,
    /// Queue positions of each model's least-headroom live query, in
    /// round order (the §6.1 per-model head filter).
    candidates: Vec<usize>,
    /// Multi-way search working set (entry prefix, feature rows feeding
    /// `predict_into`, prediction output, probe points).
    search: SearchBuffers,
    /// Planned-entry buffer parked here whenever a round plans no group;
    /// otherwise it travels to the caller inside the decision and comes
    /// back through `out.group` next round.
    spare_entries: Vec<PlannedEntry>,
    /// Conformal-mode re-encode buffers: the planned group's entries as
    /// [`GroupEntry`]s, their operator counts, and one Fig. 8 feature row
    /// for the mean-model forward. Untouched outside conformal mode.
    cert_entries: Vec<GroupEntry>,
    cert_ops: Vec<usize>,
    cert_features: Vec<f64>,
}

impl DecisionScratch {
    fn new(ways: usize) -> Self {
        Self {
            expired: Vec::new(),
            candidates: Vec::new(),
            search: SearchBuffers::new(ways),
            spare_entries: Vec::new(),
            cert_entries: Vec::new(),
            cert_ops: Vec::new(),
            cert_features: vec![0.0; FEATURE_DIM],
        }
    }
}

impl AbacusScheduler {
    /// Create a controller using `model` as the overlap-aware latency
    /// predictor.
    pub fn new(model: Arc<dyn LatencyModel>, lib: Arc<ModelLibrary>, cfg: AbacusConfig) -> Self {
        Self::with_certifier(model, None, lib, cfg)
    }

    /// Create a controller with an optional conformal certifier: when
    /// `certifier` is supplied, Eq. 2 feasibility is certified against its
    /// calibrated upper bound over the **raw** headroom — `margin_ms` and
    /// `margin_frac` are not applied, because the conformal interval already
    /// absorbs the predictor's error tail at its coverage level — while
    /// `model` keeps producing the mean `predicted_ms` the telemetry ledger
    /// and the error EWMA are defined on. With `certifier == None`,
    /// behaviour is bit-identical to [`AbacusScheduler::new`].
    pub fn with_certifier(
        model: Arc<dyn LatencyModel>,
        certifier: Option<Arc<dyn LatencyModel>>,
        lib: Arc<ModelLibrary>,
        cfg: AbacusConfig,
    ) -> Self {
        assert!(cfg.ways >= 1);
        let predict_round_ms = cfg
            .predict_round_ms
            .unwrap_or_else(|| calibrate_predict_round_ms(model.as_ref(), cfg.ways));
        let scratch = DecisionScratch::new(cfg.ways);
        Self {
            model,
            certifier,
            lib,
            cfg,
            predict_round_ms,
            hide_window_ms: 0.0,
            total_prediction_rounds: 0,
            total_rounds: 0,
            last_predicted_ms: None,
            err_ewma: None,
            err_samples: 0,
            barren_rounds: 0,
            degraded: false,
            scratch,
            stats: DecisionStats::default(),
        }
    }

    /// The per-round prediction latency the Eq. 3 account charges:
    /// configured, or measured at startup.
    pub fn predict_round_ms(&self) -> f64 {
        self.predict_round_ms
    }

    /// Average prediction rounds per scheduling decision so far.
    pub fn mean_prediction_rounds(&self) -> f64 {
        if self.total_rounds == 0 {
            return 0.0;
        }
        self.total_prediction_rounds as f64 / self.total_rounds as f64
    }

    /// The active configuration.
    pub fn config(&self) -> &AbacusConfig {
        &self.cfg
    }

    /// Rolling under-prediction bias, EWMA of signed
    /// (observed − predicted) / observed; 0 until the first group
    /// completes. Positive means groups run longer than predicted — the
    /// direction that breaks QoS planning; negative (over-prediction) is
    /// merely conservative. The healthy predictor's over- and
    /// under-predictions largely cancel here, so this separates predictor
    /// faults far better than an absolute-error EWMA.
    pub fn rolling_error(&self) -> f64 {
        self.err_ewma.unwrap_or(0.0)
    }

    /// The relative margin currently in force: the configured
    /// `margin_frac`, widened by the rolling under-prediction bias when
    /// the autotuner is on. The bias is floored at zero (over-prediction
    /// needs no extra margin) and the sum capped at 1.0 — a 2× safety
    /// divisor — so a pathological error estimate cannot zero out the
    /// budget entirely.
    pub fn effective_margin_frac(&self) -> f64 {
        if self.cfg.adaptive_margin {
            (self.cfg.margin_frac + self.rolling_error().max(0.0)).min(1.0)
        } else {
            self.cfg.margin_frac
        }
    }

    /// Mean-model prediction for an already-planned group: resolve the
    /// planned entries against the queue, encode one Fig. 8 feature row
    /// and run a single mean forward. Conformal mode plans against the
    /// certifier's upper bound, but `predicted_ms` — what the telemetry
    /// ledger joins on and the error EWMA is defined against — stays the
    /// mean model's estimate.
    fn mean_of_plan(&mut self, entries: &[PlannedEntry], queue: &[Query]) -> f64 {
        let scratch = &mut self.scratch;
        scratch.cert_entries.clear();
        scratch.cert_ops.clear();
        for e in entries {
            let q = queue
                .iter()
                .find(|q| q.id == e.query_id)
                .expect("planned query present in queue");
            scratch.cert_entries.push(GroupEntry {
                model: q.model,
                op_start: e.op_start,
                op_end: e.op_end,
                input: q.input,
            });
            scratch.cert_ops.push(q.n_ops);
        }
        encode_features_with_ops(
            &scratch.cert_entries,
            &scratch.cert_ops,
            &mut scratch.cert_features[..FEATURE_DIM],
        );
        self.model
            .predict_one(&scratch.cert_features[..FEATURE_DIM])
    }

    /// FCFS degradation dispatch: earliest arrival runs alone, no
    /// predictions consulted, the baseline drop mechanism retained.
    /// `entries_buf` is the recycled entry buffer `decide_into` took from
    /// the caller's decision.
    fn decide_degraded_into(
        &mut self,
        now_ms: f64,
        queue: &[Query],
        out: &mut RoundDecision,
        mut entries_buf: Vec<PlannedEntry>,
    ) {
        let mut head: Option<&Query> = None;
        for q in queue {
            if q.headroom_ms(now_ms) < 0.0 {
                out.dropped.push(q.id);
            } else if head.is_none_or(|h| {
                q.arrival_ms < h.arrival_ms || (q.arrival_ms == h.arrival_ms && q.id < h.id)
            }) {
                head = Some(q);
            }
        }
        self.total_rounds += 1;
        // No prediction backs this dispatch; don't feed it to the error EWMA.
        self.last_predicted_ms = None;
        out.overhead_ms = self.cfg.base_overhead_ms;
        match head {
            Some(q) => {
                entries_buf.push(PlannedEntry {
                    query_id: q.id,
                    op_start: q.next_op,
                    op_end: q.n_ops,
                });
                out.group = Some(PlannedGroup {
                    entries: entries_buf,
                    predicted_ms: 0.0,
                    prediction_rounds: 0,
                    upper_ms: None,
                });
            }
            None => self.scratch.spare_entries = entries_buf,
        }
    }
}

impl Scheduler for AbacusScheduler {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
        out.dropped.clear();
        out.overhead_ms = 0.0;
        // Recycle the planned-entry buffer: from the caller's previous
        // decision if it kept one, else from the spare parked here.
        let mut entries_buf = match out.group.take() {
            Some(g) => g.entries,
            None => std::mem::take(&mut self.scratch.spare_entries),
        };
        entries_buf.clear();
        if self.degraded {
            return self.decide_degraded_into(now_ms, queue, out, entries_buf);
        }
        let margin_ms = self.cfg.margin_ms;
        let margin_frac = self.effective_margin_frac();
        let ways = self.cfg.ways;
        // Conformal certification: plan against the certifier's calibrated
        // upper bound over the *raw* headroom — the interval already holds
        // the error tail, so no margin is stacked on top.
        let certifying = self.certifier.is_some();
        let planning_model: &dyn LatencyModel =
            self.certifier.as_deref().unwrap_or(self.model.as_ref());

        // One scan over the queue, in whatever order the node keeps it.
        // Eq. 2 headroom shifts every query by the same `now`, so ascending
        // headroom is the now-independent `(deadline, id)` order (DESIGN.md
        // §12). Expired queries can never meet QoS: drop them outright.
        // Since each service is a single process handling one query at a
        // time (§6.1), the rest compete for their model's slot, and only
        // the least-headroom head of each model becomes a candidate; later
        // queries of the same service wait behind it.
        let DecisionScratch {
            expired,
            candidates,
            search,
            ..
        } = &mut self.scratch;
        self.stats.scratch_peak = self.stats.scratch_peak.max(queue.len());
        let by_deadline = |&a: &usize, &b: &usize| {
            let (qa, qb) = (&queue[a], &queue[b]);
            qa.deadline_ms()
                .total_cmp(&qb.deadline_ms())
                .then(qa.id.cmp(&qb.id))
        };
        expired.clear();
        let mut heads: [Option<usize>; MODEL_COUNT] = [None; MODEL_COUNT];
        for (pos, q) in queue.iter().enumerate() {
            if q.headroom_ms(now_ms) < 0.0 {
                expired.push(pos);
                continue;
            }
            let head = &mut heads[q.model.index()];
            if head.is_none_or(|h| by_deadline(&pos, &h).is_lt()) {
                *head = Some(pos);
            }
        }
        expired.sort_unstable_by(by_deadline);
        out.dropped.extend(expired.iter().map(|&pos| queue[pos].id));
        candidates.clear();
        candidates.extend(heads.iter().flatten());
        candidates.sort_unstable_by(by_deadline);

        let mut prediction_rounds = 0usize;
        let mut planned_pred: Option<f64> = None;
        let mut start = 0usize;
        while start < candidates.len() {
            let cands = &candidates[start..];
            let head = &queue[cands[0]];
            let budget = if certifying {
                head.headroom_ms(now_ms)
            } else {
                (head.headroom_ms(now_ms) - margin_ms) / (1.0 + margin_frac)
            };
            match plan_group_core(
                |i| &queue[cands[i]],
                cands.len(),
                budget,
                planning_model,
                &self.lib,
                ways,
                search,
                &mut entries_buf,
            ) {
                PlanOutcome::Planned {
                    predicted_ms,
                    prediction_rounds: r,
                } => {
                    prediction_rounds += r;
                    planned_pred = Some(predicted_ms);
                    break;
                }
                PlanOutcome::Infeasible {
                    prediction_rounds: r,
                } => {
                    // §6.2: keeping the head query would violate its QoS and
                    // delay everyone behind it — drop it and retry.
                    prediction_rounds += r;
                    out.dropped.push(head.id);
                    start += 1;
                }
            }
        }

        // Track the in-flight prediction for error accounting, and count
        // barren rounds (drops but no plan) — the fallback trigger a
        // totally-failed predictor leaves when no group ever completes.
        self.last_predicted_ms = planned_pred;
        if planned_pred.is_some() {
            self.barren_rounds = 0;
        } else if !out.dropped.is_empty() {
            self.barren_rounds += 1;
            if self.cfg.fcfs_fallback_error.is_some()
                && self.barren_rounds >= FALLBACK_BARREN_ROUNDS
            {
                self.degraded = true;
            }
        }

        self.total_rounds += 1;
        self.total_prediction_rounds += prediction_rounds as u64;
        let search_ms =
            self.cfg.base_overhead_ms + prediction_rounds as f64 * self.predict_round_ms;
        out.overhead_ms = if self.cfg.pipelined {
            // The search for this round ran while the previous group was
            // still executing (Fig. 13); only the part that did not fit in
            // that window lands on the critical path.
            let charged = (search_ms - self.hide_window_ms).max(0.0);
            self.hide_window_ms = 0.0;
            charged
        } else {
            search_ms
        };
        match planned_pred {
            Some(predicted_ms) => {
                let (predicted_ms, upper_ms) = if certifying {
                    // The search certified against the upper bound; report
                    // the mean model's estimate as `predicted_ms` so the
                    // ledger join and the error EWMA keep their semantics.
                    let mean = self.mean_of_plan(&entries_buf, queue);
                    self.last_predicted_ms = Some(mean);
                    (mean, Some(predicted_ms))
                } else {
                    (predicted_ms, None)
                };
                out.group = Some(PlannedGroup {
                    entries: entries_buf,
                    predicted_ms,
                    prediction_rounds,
                    upper_ms,
                });
            }
            None => self.scratch.spare_entries = entries_buf,
        }
    }

    /// True once the controller has fallen back to FCFS dispatch.
    fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn decision_stats(&self) -> DecisionStats {
        self.stats
    }

    fn on_group_complete(&mut self, duration_ms: f64) {
        self.hide_window_ms = duration_ms;
        if let Some(pred) = self.last_predicted_ms.take() {
            if pred.is_finite() && duration_ms > 0.0 {
                // Signed under-prediction bias, not absolute error: the
                // healthy model's over- and under-predictions largely
                // cancel, while a failing predictor errs consistently low —
                // the one direction that breaks QoS planning. Absolute
                // error cannot separate the two (the healthy serving-time
                // EWMA already sits near 0.45 on out-of-distribution group
                // shapes).
                let err = (duration_ms - pred) / duration_ms.max(ERR_MIN_DURATION_MS);
                self.err_ewma = Some(match self.err_ewma {
                    Some(e) => (1.0 - ERR_EWMA_ALPHA) * e + ERR_EWMA_ALPHA * err,
                    None => err,
                });
                self.err_samples += 1;
            }
        }
        if let Some(threshold) = self.cfg.fcfs_fallback_error {
            if self.err_samples >= ERR_WARMUP_SAMPLES && self.rolling_error() > threshold {
                self.degraded = true;
            }
        }
    }

    fn name(&self) -> &'static str {
        "Abacus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{ModelId, QueryInput};
    use predictor::features::SLOT_WIDTH;
    use predictor::MAX_COLOCATED;

    /// Synthetic monotone duration model (same as the search tests).
    struct SpanModel;
    impl LatencyModel for SpanModel {
        fn predict_one(&self, x: &[f64]) -> f64 {
            let mut total: f64 = 0.0;
            for slot in 0..MAX_COLOCATED {
                let base = predictor::MODEL_SLOT_BASE + slot * SLOT_WIDTH;
                total += (x[base + 1] - x[base]) * 10.0;
            }
            total
        }
        fn name(&self) -> &'static str {
            "span"
        }
    }

    fn scheduler(pipelined: bool) -> AbacusScheduler {
        AbacusScheduler::new(
            Arc::new(SpanModel),
            Arc::new(ModelLibrary::new()),
            AbacusConfig {
                pipelined,
                ..AbacusConfig::default()
            },
        )
    }

    fn query(id: u64, model: ModelId, arrival: f64, qos: f64) -> Query {
        let lib = ModelLibrary::new();
        let input = QueryInput::new(8, if model.is_nlp() { 16 } else { 1 });
        let n = lib.graph(model, input).len();
        Query::new(id, model, input, arrival, qos, n)
    }

    #[test]
    fn guarantees_least_headroom_query_first() {
        let mut s = scheduler(true);
        let queue = vec![
            query(1, ModelId::ResNet50, 0.0, 100.0),
            query(2, ModelId::Bert, 0.0, 30.0), // least headroom
        ];
        let d = s.decide(5.0, &queue);
        let g = d.group.unwrap();
        // Head entry is the Bert query, fully scheduled.
        assert_eq!(g.entries[0].query_id, 2);
        assert_eq!(g.entries[0].op_end, queue[1].n_ops);
        assert!(d.dropped.is_empty());
    }

    #[test]
    fn infeasible_head_dropped_then_rest_scheduled() {
        let mut s = scheduler(true);
        let queue = vec![
            query(1, ModelId::ResNet50, 0.0, 100.0),
            // 5 ms of headroom left but needs 10 ms: must be dropped.
            query(2, ModelId::Vgg19, 0.0, 25.0),
        ];
        let d = s.decide(20.0, &queue);
        assert_eq!(d.dropped, vec![2]);
        let g = d.group.unwrap();
        assert_eq!(g.entries[0].query_id, 1);
    }

    #[test]
    fn expired_queries_dropped_without_search() {
        let mut s = scheduler(true);
        let queue = vec![query(1, ModelId::ResNet50, 0.0, 10.0)];
        let d = s.decide(50.0, &queue);
        assert_eq!(d.dropped, vec![1]);
        assert!(d.group.is_none());
    }

    #[test]
    fn pipelining_hides_search_cost() {
        let mut s = scheduler(true);
        let queue = vec![query(1, ModelId::ResNet50, 0.0, 100.0)];
        // Cold start (idle GPU): full cost charged.
        let cold = s.decide(0.0, &queue);
        assert!(cold.overhead_ms > 0.0);
        // After a 20 ms group, the next search hides completely.
        s.on_group_complete(20.0);
        let warm = s.decide(25.0, &queue);
        assert_eq!(warm.overhead_ms, 0.0);
    }

    #[test]
    fn non_pipelined_always_charges() {
        let mut s = scheduler(false);
        let queue = vec![query(1, ModelId::ResNet50, 0.0, 100.0)];
        s.on_group_complete(20.0);
        let d = s.decide(25.0, &queue);
        assert!(d.overhead_ms > 0.0);
    }

    #[test]
    fn empty_queue_idles() {
        let mut s = scheduler(true);
        let d = s.decide(0.0, &[]);
        assert!(d.group.is_none());
        assert!(d.dropped.is_empty());
    }

    #[test]
    fn calibration_is_bounded_and_finite() {
        let ms = calibrate_predict_round_ms(&SpanModel, 4);
        assert!(ms.is_finite());
        assert!((1e-4..=1.0).contains(&ms), "calibrated {ms} ms");
    }

    #[test]
    fn default_config_calibrates_at_startup() {
        let s = scheduler(true);
        assert!(s.config().predict_round_ms.is_none());
        assert!((1e-4..=1.0).contains(&s.predict_round_ms()));
    }

    #[test]
    fn explicit_round_latency_is_respected() {
        let s = AbacusScheduler::new(
            Arc::new(SpanModel),
            Arc::new(ModelLibrary::new()),
            AbacusConfig {
                predict_round_ms: Some(0.25),
                ..AbacusConfig::default()
            },
        );
        assert_eq!(s.predict_round_ms(), 0.25);
    }

    /// A predictor frozen at a constant — misprediction injection's worst
    /// case (total failure).
    struct FrozenModel(f64);
    impl LatencyModel for FrozenModel {
        fn predict_one(&self, _: &[f64]) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "frozen"
        }
    }

    fn defended(
        fallback: Option<f64>,
        adaptive: bool,
        model: Arc<dyn LatencyModel>,
    ) -> AbacusScheduler {
        AbacusScheduler::new(
            model,
            Arc::new(ModelLibrary::new()),
            AbacusConfig {
                predict_round_ms: Some(0.08),
                adaptive_margin: adaptive,
                fcfs_fallback_error: fallback,
                ..AbacusConfig::default()
            },
        )
    }

    #[test]
    fn rolling_error_tracks_misprediction() {
        let mut s = defended(None, false, Arc::new(SpanModel));
        let queue = vec![query(1, ModelId::ResNet50, 0.0, 100.0)];
        let d = s.decide(0.0, &queue);
        let predicted = d.group.unwrap().predicted_ms;
        // Group ran 3x longer than predicted.
        s.on_group_complete(predicted * 3.0);
        let err = s.rolling_error();
        assert!((err - 2.0 / 3.0).abs() < 1e-9, "err {err}");
    }

    #[test]
    fn adaptive_margin_widens_with_error() {
        let mut s = defended(None, true, Arc::new(SpanModel));
        assert_eq!(s.effective_margin_frac(), s.config().margin_frac);
        let queue = vec![query(1, ModelId::ResNet50, 0.0, 100.0)];
        let d = s.decide(0.0, &queue);
        s.on_group_complete(d.group.unwrap().predicted_ms * 2.0);
        assert!(s.effective_margin_frac() > s.config().margin_frac);
        // Off by default: same history, fixed margin.
        let mut fixed = defended(None, false, Arc::new(SpanModel));
        let d = fixed.decide(0.0, &queue);
        fixed.on_group_complete(d.group.unwrap().predicted_ms * 2.0);
        assert_eq!(fixed.effective_margin_frac(), fixed.config().margin_frac);
    }

    #[test]
    fn error_threshold_trips_fcfs_fallback() {
        let mut s = defended(Some(0.5), false, Arc::new(SpanModel));
        let queue = vec![
            query(1, ModelId::ResNet50, 0.0, 100.0),
            query(2, ModelId::Bert, 5.0, 100.0),
        ];
        // Sustained 90% error: the warmup gate holds the trigger for the
        // first ERR_WARMUP_SAMPLES groups, then the threshold latches.
        for sample in 0..ERR_WARMUP_SAMPLES {
            assert!(
                !s.is_degraded(),
                "degraded during warmup at sample {sample}"
            );
            let d = s.decide(0.0, &queue);
            s.on_group_complete(d.group.unwrap().predicted_ms * 10.0);
        }
        assert!(s.is_degraded());
        // Degraded dispatch is FCFS: earliest arrival, alone, whole query.
        let d = s.decide(10.0, &queue);
        let g = d.group.unwrap();
        assert_eq!(g.entries.len(), 1);
        assert_eq!(g.entries[0].query_id, 1);
        assert_eq!(g.entries[0].op_end, queue[0].n_ops);
        assert_eq!(g.prediction_rounds, 0);
        // The baseline drop mechanism is retained while degraded.
        let d = s.decide(500.0, &queue);
        assert_eq!(d.dropped, vec![1, 2]);
        assert!(d.group.is_none());
    }

    #[test]
    fn barren_rounds_trip_fallback_under_total_predictor_failure() {
        // A predictor frozen far above every budget drops every query as
        // infeasible — no group ever completes, so the error EWMA alone
        // would never trip. The barren-round counter must.
        let mut s = defended(Some(0.5), false, Arc::new(FrozenModel(1e7)));
        for round in 0..FALLBACK_BARREN_ROUNDS {
            assert!(!s.is_degraded(), "degraded too early at round {round}");
            let queue = vec![query(u64::from(round) + 1, ModelId::ResNet50, 0.0, 100.0)];
            let d = s.decide(0.0, &queue);
            assert!(d.group.is_none());
            assert_eq!(d.dropped.len(), 1);
        }
        assert!(s.is_degraded());
        // Once degraded the frozen predictor is ignored: queries run.
        let queue = vec![query(99, ModelId::ResNet50, 0.0, 100.0)];
        assert!(s.decide(0.0, &queue).group.is_some());
    }

    #[test]
    fn fallback_disabled_never_degrades() {
        let mut s = defended(None, false, Arc::new(FrozenModel(1e7)));
        for round in 0..(FALLBACK_BARREN_ROUNDS * 2) {
            let queue = vec![query(u64::from(round) + 1, ModelId::ResNet50, 0.0, 100.0)];
            let _ = s.decide(0.0, &queue);
        }
        assert!(!s.is_degraded());
    }

    fn conformal(certifier: Option<Arc<dyn LatencyModel>>) -> AbacusScheduler {
        AbacusScheduler::with_certifier(
            Arc::new(SpanModel),
            certifier,
            Arc::new(ModelLibrary::new()),
            AbacusConfig {
                predict_round_ms: Some(0.08),
                ..AbacusConfig::default()
            },
        )
    }

    #[test]
    fn conformal_mode_plans_against_certifier_and_reports_mean() {
        // Certifier = mean × 1.5 (a constant-width interval): planning uses
        // the inflated bound, but `predicted_ms` stays the mean estimate.
        let certifier: Arc<dyn LatencyModel> =
            Arc::new(predictor::DeratedModel::new(Arc::new(SpanModel), 1.5));
        let mut s = conformal(Some(certifier));
        let queue = vec![query(1, ModelId::ResNet50, 0.0, 100.0)];
        let d = s.decide(5.0, &queue);
        let g = d.group.unwrap();
        let upper = g.upper_ms.expect("certified bound recorded");
        assert!(
            (upper - g.predicted_ms * 1.5).abs() < 1e-9,
            "upper {upper} vs mean {}",
            g.predicted_ms
        );
    }

    #[test]
    fn conformal_budget_is_raw_headroom() {
        // ResNet50 costs 10 ms solo under SpanModel. With 10.2 ms headroom
        // the fixed-margin budget (10.2 − 0.3)/1.05 ≈ 9.43 drops the query;
        // an exact certifier over the raw headroom certifies it (10 ≤ 10.2).
        let queue = vec![query(1, ModelId::ResNet50, 0.0, 10.2)];
        let mut margined = conformal(None);
        let d = margined.decide(0.0, &queue);
        assert_eq!(d.dropped, vec![1]);
        assert!(d.group.is_none());
        let mut certified = conformal(Some(Arc::new(SpanModel)));
        let d = certified.decide(0.0, &queue);
        assert!(d.dropped.is_empty());
        let g = d.group.unwrap();
        assert!(g.upper_ms.unwrap() <= 10.2);
    }

    #[test]
    fn prediction_round_statistics_accumulate() {
        let mut s = scheduler(true);
        let queue = vec![
            query(1, ModelId::ResNet50, 0.0, 100.0),
            query(2, ModelId::Bert, 0.0, 60.0),
        ];
        let _ = s.decide(0.0, &queue);
        assert!(s.mean_prediction_rounds() >= 1.0);
    }
}
