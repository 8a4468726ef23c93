//! Golden decision-stream tests (DESIGN.md §12).
//!
//! The per-round decision hot path — one queue scan for the `(deadline, id)`
//! order and the per-model heads, arena-backed scratch, recycled entry
//! buffers, buffered multi-way search — must be *bit-identical* to the
//! pre-overhaul controller and
//! search it replaced. The reference is the shared frozen copy in
//! `bench::reference::decision` (the same one the `bench` binary's
//! decision bench measures against). Three layers pin that:
//!
//! 1. The live [`plan_group`] matches the reference `plan_group` over
//!    fixed query sets, budgets, search widths and predictor scales.
//! 2. A fixed-seed churned replay asserts equal [`RoundDecision`] streams
//!    round by round between the live scheduler and
//!    [`ReferenceController`] (fresh `Vec<&Query>` collect + per-round
//!    headroom sort + retain passes + `sorted.remove(0)` drop loop).
//! 3. Property tests over grid-quantised random queues assert that the
//!    live scheduler and the reference decide identically — including
//!    empty queues, headroom ties, expired queries, all-infeasible rounds
//!    under a frozen or NaN predictor, and any permutation of the queue
//!    (the `Scheduler` contract: no assumed ordering).
//!
//! Arrival/QoS values are grid-quantised (multiples of 2.5 ms): subtracting
//! `now` from grid values is exact in f64, so the former headroom sort and
//! the deadline order cannot diverge by rounding — the §12 order-key
//! invariance contract these tests pin.

use abacus_core::{plan_group, AbacusConfig, AbacusScheduler, Query, RoundDecision, Scheduler};
use bench::reference::decision::{
    self as reference, pinned_config as config, ReferenceController, SpanModel, PREDICT_ROUND_MS,
};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use predictor::LatencyModel;
use proptest::prelude::*;
use std::sync::Arc;

/// A predictor frozen at a constant (possibly NaN / absurdly high):
/// misprediction injection's worst case — every round is infeasible.
struct FrozenModel(f64);

impl LatencyModel for FrozenModel {
    fn predict_one(&self, _: &[f64]) -> f64 {
        self.0
    }
    fn name(&self) -> &'static str {
        "frozen"
    }
}

fn lib() -> Arc<ModelLibrary> {
    Arc::new(ModelLibrary::new())
}

fn query(lib: &ModelLibrary, id: u64, model: ModelId, arrival: f64, qos: f64) -> Query {
    let input = QueryInput::new(8, if model.is_nlp() { 16 } else { 1 });
    let n = lib.graph(model, input).len();
    Query::new(id, model, input, arrival, qos, n)
}

/// Grid-quantised query from small integer knobs: arrivals and QoS are
/// multiples of 2.5 ms, so headroom subtraction is exact (see module doc).
fn grid_query(
    lib: &ModelLibrary,
    id: u64,
    model_idx: usize,
    arrival_step: usize,
    qos_step: usize,
    progress: f64,
) -> Query {
    let model = ModelId::ALL[model_idx % ModelId::ALL.len()];
    let mut q = query(
        lib,
        id,
        model,
        arrival_step as f64 * 2.5,
        qos_step as f64 * 2.5,
    );
    let next_op = ((q.n_ops - 1) as f64 * progress) as usize;
    q.advance_to(next_op);
    q
}

/// The buffered search hot path reports byte-identical plans and round
/// counts to the reference search, across head-only, infeasible,
/// partial-prefix and four-way fixtures, every budget regime and search
/// width, and two predictor scales.
#[test]
fn search_matches_reference_plan_group() {
    let lib = lib();
    let q = |id, model, next_op| {
        let mut q = query(&lib, id, model, 0.0, 100.0);
        q.advance_to(next_op);
        q
    };
    let fixtures: Vec<Vec<Query>> = vec![
        vec![q(0, ModelId::ResNet50, 30)],
        vec![q(0, ModelId::ResNet50, 0)],
        vec![q(0, ModelId::ResNet50, 100), q(1, ModelId::ResNet152, 0)],
        vec![
            q(0, ModelId::ResNet50, 0),
            q(1, ModelId::Bert, 0),
            q(2, ModelId::Vgg16, 0),
        ],
        vec![
            q(0, ModelId::ResNet50, 0),
            q(1, ModelId::ResNet101, 0),
            q(2, ModelId::ResNet152, 0),
            q(3, ModelId::Bert, 0),
            q(4, ModelId::Vgg16, 0),
        ],
    ];
    for qs in &fixtures {
        let refs: Vec<&Query> = qs.iter().collect();
        for budget in [2.0, 5.0, 7.0, 25.0, 100.0] {
            for ways in [1usize, 2, 3, 4, 8, 16] {
                for unit in [0.5, 10.0] {
                    let model = SpanModel {
                        ms_per_unit_span: unit,
                    };
                    let got = plan_group(&refs, budget, &model, &lib, ways);
                    let want = reference::plan_group(&refs, budget, &model, &lib, ways);
                    assert_eq!(
                        got,
                        want,
                        "divergence: {} queries, budget {budget}, ways {ways}, unit {unit}",
                        refs.len()
                    );
                }
            }
        }
    }
}

/// Replay a fixed-seed churned workload through the live scheduler and the
/// frozen pre-overhaul controller, asserting bit-identical decision
/// streams. The queue evolves by `swap_remove`, so the live scan sees it
/// in a shuffled order.
#[test]
fn golden_stream_matches_embedded_pre_overhaul_controller() {
    let lib = lib();
    let mut opt = AbacusScheduler::new(Arc::new(SpanModel::default()), lib.clone(), config());
    let mut reference =
        ReferenceController::new(Arc::new(SpanModel::default()), lib.clone(), config());

    const QOS_MS: [f64; 4] = [40.0, 60.0, 90.0, 140.0];
    let mut state = 2021u64;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut queue: Vec<Query> = Vec::new();
    let mut next_id = 0u64;
    let mut now = 0.0f64;
    let mut decision = RoundDecision::idle();
    let mut planned_rounds = 0u64;

    for round in 0..3_000 {
        // Refill to a 16-deep queue; same-round admits share `arrival = now`
        // so headroom ties are broken by id in both orderings.
        while queue.len() < 16 {
            let m = ModelId::ALL[(rand() as usize) % ModelId::ALL.len()];
            let qos = QOS_MS[(rand() as usize) % QOS_MS.len()];
            let q = query(&lib, next_id, m, now, qos);
            next_id += 1;
            queue.push(q);
        }

        let want = reference.decide(now, &queue);
        opt.decide_into(now, &queue, &mut decision);
        assert_eq!(decision, want, "decision diverged at round {round}");

        for &id in &decision.dropped {
            let pos = queue.iter().position(|q| q.id == id).unwrap();
            queue.swap_remove(pos);
        }
        now += decision.overhead_ms;
        if let Some(g) = decision.group.as_ref() {
            planned_rounds += 1;
            let duration = g.predicted_ms.max(0.05);
            for e in &g.entries {
                let pos = queue.iter().position(|q| q.id == e.query_id).unwrap();
                queue[pos].mark_started(now);
                queue[pos].advance_to(e.op_end);
                if queue[pos].is_complete() {
                    queue.swap_remove(pos);
                }
            }
            now += duration;
            opt.on_group_complete(duration);
            reference.on_group_complete(duration);
        } else {
            now += 0.1;
        }
    }

    assert!(
        planned_rounds > 1_000,
        "workload planned {planned_rounds} groups"
    );
    // Every round scanned the refilled 16-deep queue.
    assert_eq!(opt.decision_stats().scratch_peak, 16);
}

/// Decide one round on the live scheduler and the frozen pre-overhaul
/// controller and demand identical decisions. Proves order-key invariance:
/// the live scan's `(deadline, id)` order is the same permutation as the
/// reference's per-round headroom sort.
fn assert_live_matches_reference(
    lib: &Arc<ModelLibrary>,
    model: impl Fn() -> Arc<dyn LatencyModel>,
    queue: &[Query],
    now: f64,
) -> RoundDecision {
    let got = AbacusScheduler::new(model(), lib.clone(), config()).decide(now, queue);
    let want = ReferenceController::new(model(), lib.clone(), config()).decide(now, queue);
    assert_eq!(got, want, "live scheduler diverged from pre-overhaul");
    got
}

/// `queue` reordered by a Fisher–Yates shuffle driven by `seed`.
fn permuted(queue: &[Query], seed: u64) -> Vec<Query> {
    let mut out = queue.to_vec();
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.swap(i, (state >> 33) as usize % (i + 1));
    }
    out
}

fn span_model() -> Arc<dyn LatencyModel> {
    Arc::new(SpanModel::default())
}

#[test]
fn empty_queue_decides_idle_on_every_path() {
    let lib = lib();
    let d = assert_live_matches_reference(&lib, span_model, &[], 0.0);
    assert!(d.group.is_none());
    assert!(d.dropped.is_empty());
}

#[test]
fn headroom_ties_break_by_id_on_every_path() {
    let lib = lib();
    // Identical (arrival, qos) across distinct models: pure id tie-break.
    let queue: Vec<Query> = (0..6)
        .map(|i| query(&lib, 10 + i, ModelId::ALL[i as usize], 0.0, 50.0))
        .collect();
    let d = assert_live_matches_reference(&lib, span_model, &queue, 5.0);
    let g = d.group.expect("ties still plan");
    assert_eq!(g.entries[0].query_id, 10);
}

#[test]
fn all_infeasible_rounds_drop_identically() {
    let lib = lib();
    let queue: Vec<Query> = (0..5)
        .map(|i| query(&lib, i, ModelId::ALL[i as usize], 0.0, 50.0))
        .collect();
    // Frozen far above every budget: every head is infeasible in turn.
    let d = assert_live_matches_reference(&lib, || Arc::new(FrozenModel(1e9)), &queue, 0.0);
    assert!(d.group.is_none());
    assert_eq!(d.dropped.len(), queue.len());
    // NaN predictions must take the same drop path, not plan NaN groups.
    let d = assert_live_matches_reference(&lib, || Arc::new(FrozenModel(f64::NAN)), &queue, 0.0);
    assert!(d.group.is_none());
    assert_eq!(d.dropped.len(), queue.len());
}

#[test]
fn expired_queries_drop_identically() {
    let lib = lib();
    let queue = vec![
        query(&lib, 1, ModelId::ResNet50, 0.0, 10.0), // expired at now = 50
        query(&lib, 2, ModelId::Bert, 45.0, 60.0),
    ];
    let d = assert_live_matches_reference(&lib, span_model, &queue, 50.0);
    assert_eq!(d.dropped, vec![1]);
    assert!(d.group.is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random grid-quantised queues (duplicate models, partial progress,
    /// expired members, dense ties), presented in a seeded random order:
    /// the live scheduler and the frozen pre-overhaul controller agree
    /// bit-for-bit, whatever order the queue arrives in.
    #[test]
    fn random_queues_decide_identically(
        specs in proptest::collection::vec(
            (0usize..8, 0usize..12, 1usize..40, 0.0f64..0.95),
            0..24,
        ),
        now_step in 0usize..16,
        perm_seed in 0u64..u64::MAX,
    ) {
        let lib = lib();
        let queue: Vec<Query> = specs
            .iter()
            .enumerate()
            .map(|(i, &(m, arr, qos, progress))| {
                grid_query(&lib, i as u64, m, arr, qos, progress)
            })
            .collect();
        let now = now_step as f64 * 2.5;
        let shuffled = permuted(&queue, perm_seed);

        let want = ReferenceController::new(span_model(), lib.clone(), config()).decide(now, &queue);
        let got = AbacusScheduler::new(span_model(), lib.clone(), config()).decide(now, &queue);
        let got_shuffled =
            AbacusScheduler::new(span_model(), lib.clone(), config()).decide(now, &shuffled);
        prop_assert_eq!(&got, &want, "live vs pre-overhaul");
        prop_assert_eq!(&got_shuffled, &want, "permuted queue vs pre-overhaul");
    }

    /// Non-pipelined configs and every search width: the overhead account
    /// and probe sequences stay identical to the reference.
    #[test]
    fn config_variants_decide_identically(
        specs in proptest::collection::vec(
            (0usize..8, 0usize..6, 4usize..40, 0.0f64..0.9),
            1..12,
        ),
        ways in 1usize..6,
        pipelined_bit in 0usize..2,
    ) {
        let pipelined = pipelined_bit == 1;
        let lib = lib();
        let queue: Vec<Query> = specs
            .iter()
            .enumerate()
            .map(|(i, &(m, arr, qos, progress))| {
                grid_query(&lib, i as u64, m, arr, qos, progress)
            })
            .collect();
        let cfg = AbacusConfig {
            ways,
            pipelined,
            predict_round_ms: Some(PREDICT_ROUND_MS),
            ..AbacusConfig::default()
        };

        let got = AbacusScheduler::new(span_model(), lib.clone(), cfg.clone()).decide(2.5, &queue);
        let want = ReferenceController::new(span_model(), lib.clone(), cfg).decide(2.5, &queue);
        prop_assert_eq!(&got, &want);
    }
}
