//! The pre-overhaul decision path, frozen as the decision layer's single
//! reference.
//!
//! A line-faithful port of `AbacusScheduler::decide` AND `plan_group` as
//! they stood before the decision-layer overhaul (DESIGN.md §12): a fresh
//! `dropped` vector, `Vec<&Query>` collect plus headroom `sort_by` and two
//! `retain` passes per round, `sorted.remove(0)` on each infeasible head,
//! search buffers allocated per `plan_group` call, and per-entry
//! `lib.graph(...)` lookups inside candidate encoding (`encode_features`).
//!
//! The decision bench times it against the live scheduler (and cross-checks
//! a decision checksum every run); `abacus-core`'s `golden_decisions`
//! suite pins the live scheduler and the live `plan_group` to it.

use abacus_core::{AbacusConfig, PlannedEntry, PlannedGroup, Query, RoundDecision, SearchResult};
use dnn_models::ModelLibrary;
use predictor::features::SLOT_WIDTH;
use predictor::{
    encode_features, feature_slot_of, GroupEntry, LatencyModel, FEATURE_DIM, MAX_COLOCATED,
    MODEL_SLOT_BASE,
};
use std::sync::Arc;

/// Per-round prediction latency pinned for reference replays, ms, so the
/// Eq. 3 overhead account is bit-identical and independent of the host.
pub const PREDICT_ROUND_MS: f64 = 0.09;

/// The default controller config with the round latency pinned.
pub fn pinned_config() -> AbacusConfig {
    AbacusConfig {
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..AbacusConfig::default()
    }
}

/// Constant-time synthetic monotone duration model: per-slot cost
/// proportional to the normalised operator span, as if all operators were
/// equal. Cheap enough that decision-layer mechanics — ordering, candidate
/// filtering, buffer lifecycle, search bookkeeping — dominate any timing.
#[derive(Debug, Clone, Copy)]
pub struct SpanModel {
    /// Predicted ms for one full model's worth of operators.
    pub ms_per_unit_span: f64,
}

impl Default for SpanModel {
    fn default() -> Self {
        Self {
            ms_per_unit_span: 10.0,
        }
    }
}

impl LatencyModel for SpanModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        let mut total: f64 = 0.0;
        for slot in 0..MAX_COLOCATED {
            let base = MODEL_SLOT_BASE + slot * SLOT_WIDTH;
            total += (x[base + 1] - x[base]) * self.ms_per_unit_span;
        }
        total
    }
    // Statically-dispatched batch path (one dyn call per round instead of
    // one per row). Both controllers share this model, so the override
    // shifts no cost between them.
    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        if n == 0 {
            assert!(xs.is_empty(), "rows supplied but n == 0");
            return;
        }
        assert_eq!(xs.len() % n, 0, "ragged feature matrix");
        let dim = xs.len() / n;
        out.extend(xs.chunks_exact(dim).map(|row| self.predict_one(row)));
    }
    fn name(&self) -> &'static str {
        "span"
    }
}

/// Pre-overhaul per-call search buffers.
struct SearchBuffers {
    entries: Vec<GroupEntry>,
    features: Vec<f64>,
    preds: Vec<f64>,
    probes: Vec<usize>,
}

impl SearchBuffers {
    fn new(ways: usize) -> Self {
        let rows = ways.max(MAX_COLOCATED);
        Self {
            entries: Vec::with_capacity(MAX_COLOCATED),
            features: vec![0.0; rows * FEATURE_DIM],
            preds: Vec::with_capacity(rows),
            probes: Vec::with_capacity(ways),
        }
    }
}

fn full_entry(q: &Query) -> GroupEntry {
    GroupEntry {
        model: q.model,
        op_start: q.next_op,
        op_end: q.n_ops,
        input: q.input,
    }
}

/// The pre-overhaul multi-way group search (§6.2–6.3).
pub fn plan_group(
    queries: &[&Query],
    budget_ms: f64,
    model: &dyn LatencyModel,
    lib: &ModelLibrary,
    ways: usize,
) -> SearchResult {
    assert!(!queries.is_empty(), "need at least one query");
    assert!(ways >= 1, "need at least one search way");
    debug_assert!(queries.iter().all(|q| !q.is_complete()));
    let mut rounds = 0;
    let mut bufs = SearchBuffers::new(ways);

    let max_full = (queries.len() - 1).min(MAX_COLOCATED - 1);
    let mut level1 = [0.0f64; MAX_COLOCATED];
    {
        let mut next = 0usize; // next candidate index to encode
        let mut done = 0usize; // candidates already predicted
        while done <= max_full {
            let mut rows = 0;
            while next <= max_full && rows < ways {
                bufs.entries.push(full_entry(queries[next]));
                encode_features(
                    &bufs.entries,
                    lib,
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
    if level1[0].is_nan() || budget_ms.is_nan() || level1[0] > budget_ms {
        return SearchResult::Infeasible {
            prediction_rounds: rounds,
        };
    }
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

    let mut partial_ops = 0;
    if best_full < max_full {
        let next_q = queries[best_full + 1];
        let rem = next_q.remaining_ops();

        bufs.entries.truncate(best_full + 1);
        let mut partial = full_entry(next_q);
        partial.op_end = partial.op_start; // placeholder; patched per probe
        bufs.entries.push(partial);
        let template_base = {
            let (template, rest) = bufs.features.split_at_mut(FEATURE_DIM);
            encode_features(&bufs.entries, lib, template);
            for row in rest.chunks_exact_mut(FEATURE_DIM) {
                row.copy_from_slice(template);
            }
            MODEL_SLOT_BASE + feature_slot_of(&bufs.entries, next_q.model) * SLOT_WIDTH
        };
        let n_ops_norm = lib.graph(next_q.model, next_q.input).len() as f64;

        let mut lo = 0usize;
        let mut hi = rem;
        let mut lo_pred = best_pred;
        while hi - lo > 1 {
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
            for (row, &c) in bufs.probes.iter().enumerate() {
                bufs.features[row * FEATURE_DIM + template_base + 1] =
                    (next_q.next_op + c) as f64 / n_ops_norm;
            }
            let rows = bufs.probes.len();
            rounds += 1;
            model.predict_into(&bufs.features[..rows * FEATURE_DIM], rows, &mut bufs.preds);
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
                break;
            }
            lo = new_lo;
            lo_pred = new_lo_pred;
            hi = new_hi.max(lo + 1);
        }
        partial_ops = lo;
        best_pred = lo_pred;
    }

    let mut entries: Vec<PlannedEntry> = queries[..=best_full]
        .iter()
        .map(|q| PlannedEntry {
            query_id: q.id,
            op_start: q.next_op,
            op_end: q.n_ops,
        })
        .collect();
    if partial_ops > 0 {
        let q = queries[best_full + 1];
        entries.push(PlannedEntry {
            query_id: q.id,
            op_start: q.next_op,
            op_end: q.next_op + partial_ops,
        });
    }
    SearchResult::Planned(PlannedGroup {
        entries,
        predicted_ms: best_pred,
        prediction_rounds: rounds,
        upper_ms: None,
    })
}

/// The pre-overhaul Abacus controller: per-round headroom sort, expiry and
/// §6.1 per-model retain passes, the §6.2 drop loop, and the Eq. 3
/// pipelined overhead account. No admit/retire hooks — every round sees
/// only the queue slice.
pub struct ReferenceController {
    model: Arc<dyn LatencyModel>,
    lib: Arc<ModelLibrary>,
    cfg: AbacusConfig,
    predict_round_ms: f64,
    hide_window_ms: f64,
}

impl ReferenceController {
    /// A controller over `model`; `cfg.predict_round_ms` must be pinned.
    pub fn new(model: Arc<dyn LatencyModel>, lib: Arc<ModelLibrary>, cfg: AbacusConfig) -> Self {
        let predict_round_ms = cfg
            .predict_round_ms
            .expect("reference replays pin the prediction-round latency");
        Self {
            model,
            lib,
            cfg,
            predict_round_ms,
            hide_window_ms: 0.0,
        }
    }

    /// One scheduling round over `queue` at `now_ms`.
    pub fn decide(&mut self, now_ms: f64, queue: &[Query]) -> RoundDecision {
        let mut dropped = Vec::new();
        // Sort by headroom ascending (Eq. 2); ties by id for determinism.
        let mut sorted: Vec<&Query> = queue.iter().collect();
        sorted.sort_by(|a, b| {
            a.headroom_ms(now_ms)
                .total_cmp(&b.headroom_ms(now_ms))
                .then(a.id.cmp(&b.id))
        });
        // Expired queries can never meet QoS: drop outright.
        sorted.retain(|q| {
            if q.headroom_ms(now_ms) < 0.0 {
                dropped.push(q.id);
                false
            } else {
                true
            }
        });
        // Only the least-headroom query of each model is eligible (§6.1).
        let mut seen_models = 0u32;
        sorted.retain(|q| {
            let bit = 1u32 << q.model.index();
            if seen_models & bit != 0 {
                false
            } else {
                seen_models |= bit;
                true
            }
        });

        let mut prediction_rounds = 0usize;
        let mut planned = None;
        let margin_frac = self.cfg.margin_frac;
        while !sorted.is_empty() {
            let budget = (sorted[0].headroom_ms(now_ms) - self.cfg.margin_ms) / (1.0 + margin_frac);
            match plan_group(
                &sorted,
                budget,
                self.model.as_ref(),
                &self.lib,
                self.cfg.ways,
            ) {
                SearchResult::Planned(mut p) => {
                    prediction_rounds += p.prediction_rounds;
                    p.prediction_rounds = prediction_rounds;
                    planned = Some(p);
                    break;
                }
                SearchResult::Infeasible {
                    prediction_rounds: r,
                } => {
                    prediction_rounds += r;
                    dropped.push(sorted[0].id);
                    sorted.remove(0);
                }
            }
        }

        let search_ms =
            self.cfg.base_overhead_ms + prediction_rounds as f64 * self.predict_round_ms;
        let overhead_ms = if self.cfg.pipelined {
            let charged = (search_ms - self.hide_window_ms).max(0.0);
            self.hide_window_ms = 0.0;
            charged
        } else {
            search_ms
        };

        RoundDecision {
            dropped,
            group: planned,
            overhead_ms,
        }
    }

    /// The planned group finished after `duration_ms`: its execution is
    /// the window the next round's search hides in (Eq. 3).
    pub fn on_group_complete(&mut self, duration_ms: f64) {
        self.hide_window_ms = duration_ms;
    }
}
