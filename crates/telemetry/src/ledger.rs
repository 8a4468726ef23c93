//! The scheduler decision ledger.
//!
//! One [`RoundEntry`] per scheduling round that made progress (planned a
//! group and/or dropped queries). The row records what the scheduler *knew*
//! at decision time — queue depth, candidate-scoring effort, the chosen
//! group with its predicted latency and the critical query's headroom — and
//! is back-filled with what actually happened once the group's execution
//! completes. The predicted-vs-actual join is the paper's §5.2
//! prediction-error study as a first-class serving artifact.

use abacus_metrics::{mean, std_dev};
use dnn_models::ModelId;

/// One query's operator segment inside a chosen group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// Query id.
    pub query: u64,
    /// The query's model.
    pub model: ModelId,
    /// First operator of the segment.
    pub op_start: usize,
    /// One past the last operator.
    pub op_end: usize,
}

/// One scheduling round's decision and its measured outcome.
///
/// Fields that are unknowable for the row (`predicted_ms` of a plan-less
/// drop round, `actual_ms` before execution completes) hold `NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundEntry {
    /// Scheduling-round id (monotone over the run).
    pub round: u64,
    /// When the scheduler decided, ms (before its own overhead is charged).
    pub at_ms: f64,
    /// Queue depth the scheduler saw.
    pub queue_len: usize,
    /// Queries dropped by this decision.
    pub dropped: usize,
    /// Scheduling overhead charged before dispatch (Eq. 3), ms.
    pub overhead_ms: f64,
    /// Batched candidate-scoring calls the multi-way search spent.
    pub prediction_rounds: usize,
    /// The chosen group's segments (empty when nothing was planned).
    pub entries: Vec<LedgerEntry>,
    /// The predictor's latency estimate for the chosen group, ms.
    pub predicted_ms: f64,
    /// Calibrated upper bound the round was certified against, ms — the
    /// conformal interval width is `upper_ms − predicted_ms`. `NaN` for
    /// mean + safety-margin rounds (certification off).
    pub upper_ms: f64,
    /// Headroom of the group's most urgent query at dispatch time, ms.
    pub critical_headroom_ms: f64,
    /// When the group actually started executing, ms.
    pub exec_start_ms: f64,
    /// Measured wall time of the round (kernels + sync + save/restore), ms.
    pub actual_ms: f64,
    /// Measured kernel time of the longest stream, ms — the quantity the
    /// predictor estimates, i.e. `actual_ms` minus host-side overheads.
    pub actual_exec_ms: f64,
}

impl RoundEntry {
    /// Signed relative prediction error `(actual − predicted) / actual`
    /// over the kernel time, or `None` when the row carries no usable
    /// prediction (no group, degraded dispatch, or not yet executed).
    pub fn rel_error(&self) -> Option<f64> {
        let ok = self.predicted_ms.is_finite()
            && self.predicted_ms > 0.0
            && self.actual_exec_ms.is_finite()
            && self.actual_exec_ms > 0.0;
        ok.then(|| (self.actual_exec_ms - self.predicted_ms) / self.actual_exec_ms)
    }
}

/// §5.2-style summary of the ledger's predicted-vs-actual join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionErrorReport {
    /// Rounds with a usable prediction.
    pub rounds: usize,
    /// Mean signed relative error.
    pub mean: f64,
    /// Standard deviation of the signed relative error (the paper's
    /// std/mean 4.53% determinism figure is the comparable quantity).
    pub std: f64,
    /// Mean absolute relative error.
    pub mean_abs: f64,
}

impl PredictionErrorReport {
    /// Summarise a set of signed relative errors (`None` when empty).
    pub fn of(errors: &[f64]) -> Option<Self> {
        if errors.is_empty() {
            return None;
        }
        let abs: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        Some(Self {
            rounds: errors.len(),
            mean: mean(errors),
            std: std_dev(errors),
            mean_abs: mean(&abs),
        })
    }
}

/// Append-only ledger of scheduling decisions, in round order.
#[derive(Debug, Clone, Default)]
pub struct DecisionLedger {
    rows: Vec<RoundEntry>,
}

impl DecisionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// All rows, in round order.
    pub fn rows(&self) -> &[RoundEntry] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a decision row (rounds must be recorded in increasing order).
    pub fn push(&mut self, row: RoundEntry) {
        debug_assert!(self.rows.last().is_none_or(|r| r.round < row.round));
        self.rows.push(row);
    }

    /// Back-fill the most recent row with the measured execution outcome.
    pub fn complete_last(
        &mut self,
        round: u64,
        exec_start_ms: f64,
        actual_ms: f64,
        actual_exec_ms: f64,
    ) {
        let row = self.rows.last_mut().expect("no decision row to complete");
        debug_assert_eq!(row.round, round, "completion joined to the wrong round");
        row.exec_start_ms = exec_start_ms;
        row.actual_ms = actual_ms;
        row.actual_exec_ms = actual_exec_ms;
    }

    /// Look up a row by round id.
    pub fn by_round(&self, round: u64) -> Option<&RoundEntry> {
        self.rows
            .binary_search_by(|r| r.round.cmp(&round))
            .ok()
            .map(|i| &self.rows[i])
    }

    /// §5.2-style prediction-error summary (`None` when no row carries a
    /// usable prediction).
    pub fn error_report(&self) -> Option<PredictionErrorReport> {
        self.error_report_where(|_| true)
    }

    /// [`DecisionLedger::error_report`] restricted to rows matching `keep`
    /// — e.g. multi-way rounds only, which are the rounds whose groups lie
    /// inside the instance-based sampling distribution the predictor was
    /// trained on (§5.4 samples always include every co-located model).
    pub fn error_report_where(
        &self,
        keep: impl Fn(&RoundEntry) -> bool,
    ) -> Option<PredictionErrorReport> {
        let errs: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| keep(r))
            .filter_map(RoundEntry::rel_error)
            .collect();
        PredictionErrorReport::of(&errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(round: u64, predicted: f64) -> RoundEntry {
        RoundEntry {
            round,
            at_ms: round as f64,
            queue_len: 3,
            dropped: 0,
            overhead_ms: 0.1,
            prediction_rounds: 2,
            entries: vec![],
            predicted_ms: predicted,
            upper_ms: f64::NAN,
            critical_headroom_ms: 5.0,
            exec_start_ms: f64::NAN,
            actual_ms: f64::NAN,
            actual_exec_ms: f64::NAN,
        }
    }

    #[test]
    fn error_report_joins_predicted_and_actual() {
        let mut l = DecisionLedger::new();
        l.push(row(1, 10.0));
        l.complete_last(1, 0.0, 10.6, 10.5); // +4.76% error
        l.push(row(2, 10.0));
        l.complete_last(2, 11.0, 9.6, 9.5); // -5.26% error
        l.push(row(3, f64::NAN)); // drop-only round: no prediction
        let r = l.error_report().unwrap();
        assert_eq!(r.rounds, 2);
        assert!(r.mean.abs() < 0.01, "near-centred: {}", r.mean);
        assert!(r.std > 0.04 && r.std < 0.06, "std {}", r.std);
        assert!(r.mean_abs > 0.04 && r.mean_abs < 0.06);
    }

    #[test]
    fn unexecuted_and_degenerate_rows_carry_no_error() {
        assert_eq!(row(1, 10.0).rel_error(), None); // actual still NaN
        let mut degraded = row(2, 0.0); // degraded dispatch: predicted 0
        degraded.actual_ms = 5.0;
        degraded.actual_exec_ms = 5.0;
        assert_eq!(degraded.rel_error(), None);
        assert_eq!(DecisionLedger::new().error_report(), None);
    }

    #[test]
    fn filtered_report_selects_rows() {
        let mut l = DecisionLedger::new();
        let mut wide = row(1, 10.0);
        wide.entries = vec![
            LedgerEntry { query: 0, model: ModelId::ResNet50, op_start: 0, op_end: 4 },
            LedgerEntry { query: 1, model: ModelId::Bert, op_start: 0, op_end: 9 },
        ];
        l.push(wide);
        l.complete_last(1, 0.0, 10.6, 10.5);
        l.push(row(2, 10.0)); // solo row (entries empty in the fixture)
        l.complete_last(2, 11.0, 20.2, 20.0);
        let multi = l.error_report_where(|r| r.entries.len() >= 2).unwrap();
        assert_eq!(multi.rounds, 1);
        assert!(multi.mean_abs < 0.06);
        assert_eq!(l.error_report().unwrap().rounds, 2);
    }

    #[test]
    fn by_round_finds_rows() {
        let mut l = DecisionLedger::new();
        l.push(row(2, 1.0));
        l.push(row(5, 1.0));
        assert_eq!(l.by_round(5).unwrap().round, 5);
        assert!(l.by_round(3).is_none());
    }
}
