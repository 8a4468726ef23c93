//! Multi-way search for the optimal operator group (§6.2–6.3, Fig. 12).
//!
//! Given the active queries sorted by QoS headroom (ascending), the search:
//!
//! 1. puts **all** remaining operators of the head query (least headroom)
//!    into the candidate group — this round guarantees *its* QoS;
//! 2. **level 1 — across queries**: finds how many of the next queries fit
//!    *fully* alongside it, probing candidates in batches of `ways`
//!    predictions (the paper's "search between queries in three ways");
//! 3. **level 2 — within the first query that did not fit fully**: an
//!    m-ary search over its operator count finds the longest prefix that
//!    still fits (the paper's "search between op 1–5 in three ways inside
//!    q1").
//!
//! Every batch of ≤ `ways` predictions is one *prediction round*; Fig. 23
//! measures the per-round latency, and §6.3 observes most decisions finish
//! within three rounds. If even the head query alone cannot fit in its
//! headroom the search reports [`SearchResult::Infeasible`] and the
//! controller drops it (§6.2's drop mechanism).

use crate::group::{PlannedEntry, PlannedGroup};
use crate::query::Query;
use dnn_models::ModelLibrary;
use predictor::features::SLOT_WIDTH;
use predictor::{
    encode_features_with_ops, feature_slot_of, GroupEntry, LatencyModel, FEATURE_DIM,
    MAX_COLOCATED, MODEL_SLOT_BASE,
};

/// Result of one group search.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchResult {
    /// A feasible group was found.
    Planned(PlannedGroup),
    /// The head query alone exceeds the budget; it should be dropped.
    Infeasible {
        /// Prediction rounds spent discovering this.
        prediction_rounds: usize,
    },
}

/// Outcome of one [`plan_group_core`] call. On `Planned` the caller's
/// entry buffer holds the group's planned entries; on `Infeasible` it is
/// left empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanOutcome {
    /// A feasible group was written into the caller's entry buffer.
    Planned {
        /// Predicted duration of the planned group, ms.
        predicted_ms: f64,
        /// Prediction rounds spent by this search.
        prediction_rounds: usize,
    },
    /// The head query alone exceeds the budget; it should be dropped.
    Infeasible {
        /// Prediction rounds spent discovering this.
        prediction_rounds: usize,
    },
}

/// Reusable buffers for one search: candidate entries, one
/// `ways × FEATURE_DIM` feature matrix fed straight to
/// [`LatencyModel::predict_into`], the prediction output, and the level-2
/// probe points. A scheduler owns one and reuses it across every round
/// ([`plan_group_core`]); the one-shot [`plan_group`] wrapper allocates a
/// fresh set per call. Either way the per-probe path allocates nothing.
pub struct SearchBuffers {
    entries: Vec<GroupEntry>,
    /// Per-entry operator counts, parallel to `entries` — each is the
    /// query's own `n_ops`, so candidate encoding never looks a graph up.
    ops: Vec<usize>,
    features: Vec<f64>,
    preds: Vec<f64>,
    probes: Vec<usize>,
}

impl SearchBuffers {
    /// Buffers sized for an `m = ways` search.
    pub fn new(ways: usize) -> Self {
        let rows = ways.max(MAX_COLOCATED);
        Self {
            entries: Vec::with_capacity(MAX_COLOCATED),
            ops: Vec::with_capacity(MAX_COLOCATED),
            features: vec![0.0; rows * FEATURE_DIM],
            preds: Vec::with_capacity(rows),
            probes: Vec::with_capacity(ways),
        }
    }
}

/// The `GroupEntry` scheduling all remaining operators of `q`.
fn full_entry(q: &Query) -> GroupEntry {
    GroupEntry {
        model: q.model,
        op_start: q.next_op,
        op_end: q.n_ops,
        input: q.input,
    }
}

/// Run the multi-way search (one-shot wrapper over [`plan_group_core`]).
///
/// `queries` must be sorted by headroom ascending, contain 1 to any number
/// of incomplete queries with pairwise-distinct models, and `budget_ms` is
/// the schedulable headroom of `queries[0]`.
pub fn plan_group(
    queries: &[&Query],
    budget_ms: f64,
    model: &dyn LatencyModel,
    lib: &ModelLibrary,
    ways: usize,
) -> SearchResult {
    let mut bufs = SearchBuffers::new(ways);
    let mut entries = Vec::new();
    match plan_group_core(
        |i| queries[i],
        queries.len(),
        budget_ms,
        model,
        lib,
        ways,
        &mut bufs,
        &mut entries,
    ) {
        PlanOutcome::Planned {
            predicted_ms,
            prediction_rounds,
        } => SearchResult::Planned(PlannedGroup {
            entries,
            predicted_ms,
            prediction_rounds,
            upper_ms: None,
        }),
        PlanOutcome::Infeasible { prediction_rounds } => {
            SearchResult::Infeasible { prediction_rounds }
        }
    }
}

/// The multi-way search against caller-owned buffers: probe sequence,
/// round counts and plans are bit-identical to [`plan_group`], but the
/// candidate list is accessed through `get(0..n)` (so a scheduler can feed
/// its order-index ranks without materialising a `Vec<&Query>`) and the
/// planned entries are written into `entries_out` (cleared first). Nothing
/// is allocated once `bufs`/`entries_out` have reached steady-state
/// capacity.
#[allow(clippy::too_many_arguments)]
pub fn plan_group_core<'q, F: Fn(usize) -> &'q Query>(
    get: F,
    n: usize,
    budget_ms: f64,
    model: &dyn LatencyModel,
    lib: &ModelLibrary,
    ways: usize,
    bufs: &mut SearchBuffers,
    entries_out: &mut Vec<PlannedEntry>,
) -> PlanOutcome {
    assert!(n >= 1, "need at least one query");
    assert!(ways >= 1, "need at least one search way");
    debug_assert!((0..n).all(|i| !get(i).is_complete()));
    // Each query's `n_ops` is its instantiated graph's operator count
    // (`Query::new` contract) — what feature normalisation divides by.
    debug_assert!((0..n).all(|i| {
        let q = get(i);
        q.n_ops == lib.graph(q.model, q.input).len()
    }));
    debug_assert!(bufs.features.len() >= ways.max(MAX_COLOCATED) * FEATURE_DIM);
    entries_out.clear();
    bufs.entries.clear();
    bufs.ops.clear();
    let mut rounds = 0;

    // Level 1: head alone, then head + 1 full, + 2 full, ... probed in
    // batches of `ways` (at most MAX_COLOCATED candidates exist). Each
    // candidate j extends candidate j-1 by one full entry; the shared
    // prefix lives in `bufs.entries` and each candidate is encoded into
    // its own row of the feature matrix.
    let max_full = (n - 1).min(MAX_COLOCATED - 1);
    let mut level1 = [0.0f64; MAX_COLOCATED];
    {
        let mut next = 0usize; // next candidate index to encode
        let mut done = 0usize; // candidates already predicted
        while done <= max_full {
            let mut rows = 0;
            while next <= max_full && rows < ways {
                let q = get(next);
                bufs.entries.push(full_entry(q));
                bufs.ops.push(q.n_ops);
                encode_features_with_ops(
                    &bufs.entries,
                    &bufs.ops,
                    &mut bufs.features[rows * FEATURE_DIM..(rows + 1) * FEATURE_DIM],
                );
                next += 1;
                rows += 1;
            }
            rounds += 1;
            model.predict_into(&bufs.features[..rows * FEATURE_DIM], rows, &mut bufs.preds);
            level1[done..done + rows].copy_from_slice(&bufs.preds);
            done += rows;
        }
    }
    // The explicit NaN arms treat a non-finite prediction (a faulted or
    // broken model) or a NaN budget as infeasible instead of silently
    // planning the head with `predicted_ms = NaN` (`NaN > x` is false).
    if level1[0].is_nan() || budget_ms.is_nan() || level1[0] > budget_ms {
        return PlanOutcome::Infeasible {
            prediction_rounds: rounds,
        };
    }
    // Largest prefix of full inclusions that fits.
    let mut best_full = 0;
    let mut best_pred = level1[0];
    for (j, &p) in level1.iter().enumerate().take(max_full + 1).skip(1) {
        if p <= budget_ms {
            best_full = j;
            best_pred = p;
        } else {
            break;
        }
    }

    // Level 2: m-ary search inside the first query that did not fit fully.
    // Group membership is now fixed (head + best_full full entries + one
    // partial entry); only the partial entry's op_end differs between
    // probes. Encode the shared prefix once into row 0, then per probe
    // copy the template and patch the single normalised op_end feature.
    let mut partial_ops = 0;
    if best_full < max_full {
        let next_q = get(best_full + 1);
        let rem = next_q.remaining_ops();

        bufs.entries.truncate(best_full + 1);
        bufs.ops.truncate(best_full + 1);
        let mut partial = full_entry(next_q);
        partial.op_end = partial.op_start; // placeholder; patched per probe
        bufs.entries.push(partial);
        bufs.ops.push(next_q.n_ops);
        let template_base = {
            let (template, rest) = bufs.features.split_at_mut(FEATURE_DIM);
            encode_features_with_ops(&bufs.entries, &bufs.ops, template);
            // Rows 1.. start as copies of the template.
            for row in rest.chunks_exact_mut(FEATURE_DIM) {
                row.copy_from_slice(template);
            }
            MODEL_SLOT_BASE + feature_slot_of(&bufs.entries, next_q.model) * SLOT_WIDTH
        };
        let n_ops_norm = next_q.n_ops as f64;

        // c = 0 is feasible (it is `best_full`); c = rem is known infeasible.
        let mut lo = 0usize;
        let mut hi = rem;
        let mut lo_pred = best_pred;
        while hi - lo > 1 {
            // `ways` probe points evenly spaced in (lo, hi).
            let span = hi - lo;
            bufs.probes.clear();
            bufs.probes.extend(
                (1..=ways)
                    .map(|i| lo + (span * i) / (ways + 1))
                    .filter(|&c| c > lo && c < hi),
            );
            bufs.probes.dedup();
            if bufs.probes.is_empty() {
                bufs.probes.push(lo + span / 2);
            }
            // Patch only the partial slot's op_end feature per probe.
            for (row, &c) in bufs.probes.iter().enumerate() {
                bufs.features[row * FEATURE_DIM + template_base + 1] =
                    (next_q.next_op + c) as f64 / n_ops_norm;
            }
            let rows = bufs.probes.len();
            rounds += 1;
            model.predict_into(&bufs.features[..rows * FEATURE_DIM], rows, &mut bufs.preds);
            // Narrow to the widest feasible probe.
            let mut new_lo = lo;
            let mut new_lo_pred = lo_pred;
            let mut new_hi = hi;
            for (&c, &p) in bufs.probes.iter().zip(&bufs.preds) {
                if p <= budget_ms {
                    if c > new_lo {
                        new_lo = c;
                        new_lo_pred = p;
                    }
                } else if c < new_hi {
                    new_hi = c;
                }
            }
            if new_lo == lo && new_hi == hi {
                // No progress possible (flat predictions); stop.
                break;
            }
            lo = new_lo;
            lo_pred = new_lo_pred;
            hi = new_hi.max(lo + 1);
        }
        partial_ops = lo;
        best_pred = lo_pred;
    }

    entries_out.extend((0..=best_full).map(|i| {
        let q = get(i);
        PlannedEntry {
            query_id: q.id,
            op_start: q.next_op,
            op_end: q.n_ops,
        }
    }));
    if partial_ops > 0 {
        let q = get(best_full + 1);
        entries_out.push(PlannedEntry {
            query_id: q.id,
            op_start: q.next_op,
            op_end: q.next_op + partial_ops,
        });
    }
    PlanOutcome::Planned {
        predicted_ms: best_pred,
        prediction_rounds: rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{ModelId, ModelLibrary, QueryInput};
    use predictor::features::SLOT_WIDTH;

    /// A synthetic monotone duration model: per-slot cost proportional to
    /// the normalised operator span, as if all operators were equal.
    struct SpanModel {
        ms_per_unit_span: f64,
    }

    impl LatencyModel for SpanModel {
        fn predict_one(&self, x: &[f64]) -> f64 {
            let mut total: f64 = 0.0;
            for slot in 0..MAX_COLOCATED {
                let base = predictor::MODEL_SLOT_BASE + slot * SLOT_WIDTH;
                total += (x[base + 1] - x[base]) * self.ms_per_unit_span;
            }
            total
        }
        fn name(&self) -> &'static str {
            "span"
        }
    }

    fn lib() -> ModelLibrary {
        ModelLibrary::new()
    }

    fn query(id: u64, model: ModelId, next_op: usize) -> Query {
        let lib = lib();
        let input = QueryInput::new(8, if model.is_nlp() { 16 } else { 1 });
        let n = lib.graph(model, input).len();
        let mut q = Query::new(id, model, input, 0.0, 100.0, n);
        q.advance_to(next_op);
        q
    }

    #[test]
    fn head_always_fully_included() {
        let lib = lib();
        let q0 = query(0, ModelId::ResNet50, 30);
        let model = SpanModel {
            ms_per_unit_span: 10.0,
        };
        // Remaining span of q0: (125-30)/125 * 10 = 7.6 ms < 8.
        match plan_group(&[&q0], 8.0, &model, &lib, 4) {
            SearchResult::Planned(p) => {
                assert_eq!(p.entries.len(), 1);
                assert_eq!(p.entries[0].op_start, 30);
                assert_eq!(p.entries[0].op_end, 125);
                assert!(p.predicted_ms <= 8.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_head_is_reported() {
        let lib = lib();
        let q0 = query(0, ModelId::ResNet50, 0);
        let model = SpanModel {
            ms_per_unit_span: 10.0,
        };
        // Full span = 10 ms > 5 ms budget.
        assert!(matches!(
            plan_group(&[&q0], 5.0, &model, &lib, 4),
            SearchResult::Infeasible { .. }
        ));
    }

    #[test]
    fn level1_adds_whole_queries_in_headroom_order() {
        let lib = lib();
        let q0 = query(0, ModelId::ResNet50, 0);
        let q1 = query(1, ModelId::Bert, 0);
        let q2 = query(2, ModelId::Vgg16, 0);
        let model = SpanModel {
            ms_per_unit_span: 10.0,
        };
        // Budget 25 ms: q0 (10) + q1 (10) fit; q2 (10) does not fit fully,
        // so its prefix is added partially.
        match plan_group(&[&q0, &q1, &q2], 25.0, &model, &lib, 4) {
            SearchResult::Planned(p) => {
                assert!(p.entries.len() >= 2);
                assert_eq!(p.entries[0].query_id, 0);
                assert_eq!(p.entries[1].query_id, 1);
                assert_eq!(p.entries[1].op_end, q1.n_ops);
                if let Some(e2) = p.entries.get(2) {
                    // Partial prefix of VGG16 (36 ops): ~half fits.
                    assert_eq!(e2.query_id, 2);
                    assert!(e2.op_end < q2.n_ops);
                    let frac = e2.len() as f64 / q2.n_ops as f64;
                    assert!((0.3..0.6).contains(&frac), "frac {frac}");
                }
                assert!(p.predicted_ms <= 25.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_prefix_maximised_by_mary_search() {
        let lib = lib();
        let q0 = query(0, ModelId::ResNet50, 100); // small remaining span
        let q1 = query(1, ModelId::ResNet152, 0); // 363 ops to slice
        let model = SpanModel {
            ms_per_unit_span: 10.0,
        };
        // q0 remaining: 25/125*10 = 2 ms. Budget 7 ms -> 5 ms for q1:
        // 5 ms = 0.5 span = ~181 ops.
        match plan_group(&[&q0, &q1], 7.0, &model, &lib, 4) {
            SearchResult::Planned(p) => {
                assert_eq!(p.entries.len(), 2);
                let ops = p.entries[1].len();
                assert!((170..=182).contains(&ops), "ops {ops}");
                assert!(p.predicted_ms <= 7.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nan_prediction_is_infeasible_not_planned() {
        // Regression: `level1[0] > budget` is false for NaN, which used to
        // plan the head query with `predicted_ms = NaN`. A NaN-emitting
        // model must instead report infeasibility (the §6.2 drop path).
        struct NanModel;
        impl LatencyModel for NanModel {
            fn predict_one(&self, _: &[f64]) -> f64 {
                f64::NAN
            }
            fn name(&self) -> &'static str {
                "nan"
            }
        }
        let lib = lib();
        let q0 = query(0, ModelId::ResNet50, 0);
        assert!(matches!(
            plan_group(&[&q0], 100.0, &NanModel, &lib, 4),
            SearchResult::Infeasible { .. }
        ));
        // Mixed case: NaN only past the head keeps the head-only plan and
        // a finite prediction.
        struct NanBeyondHead;
        impl LatencyModel for NanBeyondHead {
            fn predict_one(&self, x: &[f64]) -> f64 {
                let mut slots = 0;
                for slot in 0..MAX_COLOCATED {
                    let base = predictor::MODEL_SLOT_BASE + slot * SLOT_WIDTH;
                    if x[base + 1] - x[base] > 0.0 {
                        slots += 1;
                    }
                }
                if slots > 1 {
                    f64::NAN
                } else {
                    5.0
                }
            }
            fn name(&self) -> &'static str {
                "nan-beyond-head"
            }
        }
        let q1 = query(1, ModelId::Bert, 0);
        match plan_group(&[&q0, &q1], 100.0, &NanBeyondHead, &lib, 4) {
            SearchResult::Planned(p) => {
                assert_eq!(p.entries.len(), 1);
                assert!(p.predicted_ms.is_finite());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nan_budget_is_infeasible() {
        // A NaN budget (poisoned headroom) must drop, not plan.
        let lib = lib();
        let q0 = query(0, ModelId::ResNet50, 0);
        let model = SpanModel {
            ms_per_unit_span: 10.0,
        };
        assert!(matches!(
            plan_group(&[&q0], f64::NAN, &model, &lib, 4),
            SearchResult::Infeasible { .. }
        ));
    }

    #[test]
    fn more_ways_never_reduces_quality() {
        let lib = lib();
        let q0 = query(0, ModelId::ResNet50, 100);
        let q1 = query(1, ModelId::ResNet152, 0);
        let model = SpanModel {
            ms_per_unit_span: 10.0,
        };
        let ops_of = |ways| match plan_group(&[&q0, &q1], 7.0, &model, &lib, ways) {
            SearchResult::Planned(p) => p.entries[1].len(),
            _ => panic!(),
        };
        let one = ops_of(1);
        let four = ops_of(4);
        let sixteen = ops_of(16);
        assert!(four >= one.saturating_sub(2), "1-way {one} 4-way {four}");
        assert!(sixteen + 2 >= four, "4-way {four} 16-way {sixteen}");
    }

    #[test]
    fn more_ways_fewer_rounds() {
        let lib = lib();
        let q0 = query(0, ModelId::ResNet50, 100);
        let q1 = query(1, ModelId::ResNet152, 0);
        let model = SpanModel {
            ms_per_unit_span: 10.0,
        };
        let rounds_of = |ways| match plan_group(&[&q0, &q1], 7.0, &model, &lib, ways) {
            SearchResult::Planned(p) => p.prediction_rounds,
            _ => panic!(),
        };
        assert!(rounds_of(8) <= rounds_of(2));
    }

    #[test]
    fn at_most_four_queries_in_group() {
        let lib = lib();
        let qs = [
            query(0, ModelId::ResNet50, 0),
            query(1, ModelId::ResNet101, 0),
            query(2, ModelId::ResNet152, 0),
            query(3, ModelId::Bert, 0),
            query(4, ModelId::Vgg16, 0),
        ];
        let refs: Vec<&Query> = qs.iter().collect();
        let model = SpanModel {
            ms_per_unit_span: 0.001,
        }; // everything fits
        match plan_group(&refs, 100.0, &model, &lib, 4) {
            SearchResult::Planned(p) => assert_eq!(p.entries.len(), MAX_COLOCATED),
            other => panic!("{other:?}"),
        }
    }
}
