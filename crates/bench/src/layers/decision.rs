//! The scheduler decision hot path. Replays fixed-seed churned queues
//! (admits, drops, partial progress, completions) against both the live
//! `AbacusScheduler` — one queue scan per round for the `(deadline, id)`
//! order and the per-model heads, plus arena-backed round scratch — and
//! the frozen pre-overhaul controller
//! `bench::reference::decision::ReferenceController` (per-round
//! `Vec<&Query>` collect + headroom sort + fresh search buffers per plan;
//! the same copy the `golden_decisions` suite pins against), and reports
//! decision rounds/sec for each. Every run checks that the two decision
//! checksums (dropped ids, planned entries, predicted duration, overhead)
//! agree. Each controller is timed once.
//!
//! The predictor is a constant-time synthetic span model (per-slot cost
//! proportional to the normalised operator span), so what the bench
//! measures is the decision layer itself — ordering, candidate filtering,
//! buffer lifecycle, search bookkeeping — not MLP inference time.

use crate::reference::decision::{pinned_config, ReferenceController, SpanModel};
use crate::{mix, Bench, Gated, Report};
use abacus_core::{AbacusScheduler, Query, RoundDecision, Scheduler};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use std::sync::Arc;
use std::time::Instant;

pub(crate) struct Decision;

const ROUNDS: u64 = 400_000;
const QUEUE_DEPTH: usize = 16;
const SEED: u64 = 2021;

/// The decision-layer surface the driver replays against either controller.
trait Controller {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision);
    fn on_group_complete(&mut self, _duration_ms: f64) {}
}

/// The optimized path, driven exactly as the serving node drives it: the
/// decision written in place so the entry buffer cycles through it.
struct Optimized(AbacusScheduler);

impl Controller for Optimized {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
        Scheduler::decide_into(&mut self.0, now_ms, queue, out);
    }
    fn on_group_complete(&mut self, duration_ms: f64) {
        Scheduler::on_group_complete(&mut self.0, duration_ms);
    }
}

/// The baseline path, driven exactly as the old node drove it: a fresh
/// decision returned by value each round.
struct Baseline(ReferenceController);

impl Controller for Baseline {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
        *out = self.0.decide(now_ms, queue);
    }
    fn on_group_complete(&mut self, duration_ms: f64) {
        self.0.on_group_complete(duration_ms);
    }
}

/// Fold one decision into a running checksum (order- and bit-sensitive:
/// dropped ids, planned entries, predicted duration, rounds, overhead).
fn fold_decision(mut h: u64, d: &RoundDecision) -> u64 {
    h = mix(h, d.dropped.len() as u64);
    for &id in &d.dropped {
        h = mix(h, id);
    }
    h = mix(h, d.overhead_ms.to_bits());
    match &d.group {
        Some(g) => {
            h = mix(h, 1);
            h = mix(h, g.predicted_ms.to_bits());
            h = mix(h, g.prediction_rounds as u64);
            for e in &g.entries {
                h = mix(h, e.query_id);
                h = mix(h, e.op_start as u64);
                h = mix(h, e.op_end as u64);
            }
        }
        None => h = mix(h, 0),
    }
    h
}

struct Measured {
    elapsed_s: f64,
    checksum: u64,
}

/// Replay `rounds` decision rounds over a churned queue held at
/// `QUEUE_DEPTH`: refill with deterministic admits, apply the decision
/// (drops, partial progress, completions at the predicted duration), and
/// fold every decision into the checksum. Byte-identical queue evolution
/// for any two controllers that emit byte-identical decisions. Only the
/// `decide_into` calls are timed — the replay harness (admits, position
/// lookups, progress bookkeeping) is identical for both controllers and
/// would otherwise dilute the measured difference.
fn run<C: Controller>(ctrl: &mut C, lib: &ModelLibrary, rounds: u64) -> Measured {
    let mut decide_s = 0.0f64;
    let mut state = SEED | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    const QOS_MS: [f64; 4] = [40.0, 60.0, 90.0, 140.0];
    let mut queue: Vec<Query> = Vec::new();
    let mut now = 0.0f64;
    let mut next_id = 0u64;
    let mut decision = RoundDecision::idle();
    let mut checksum = 0u64;
    for _ in 0..rounds {
        while queue.len() < QUEUE_DEPTH {
            let m = ModelId::ALL[(next() as usize) % ModelId::ALL.len()];
            let input = QueryInput::new(8, if m.is_nlp() { 16 } else { 1 });
            let n_ops = lib.graph(m, input).len();
            let qos = QOS_MS[(next() as usize) % QOS_MS.len()];
            let q = Query::new(next_id, m, input, now, qos, n_ops);
            next_id += 1;
            queue.push(q);
        }
        let t0 = Instant::now();
        ctrl.decide_into(now, &queue, &mut decision);
        decide_s += t0.elapsed().as_secs_f64();
        checksum = fold_decision(checksum, &decision);
        for &id in &decision.dropped {
            let pos = queue
                .iter()
                .position(|q| q.id == id)
                .expect("dropped unknown query");
            queue.swap_remove(pos);
        }
        match decision.group.as_ref() {
            Some(g) => {
                now += decision.overhead_ms;
                let duration_ms = g.predicted_ms.max(0.05);
                for e in &g.entries {
                    let pos = queue
                        .iter()
                        .position(|q| q.id == e.query_id)
                        .expect("planned unknown query");
                    queue[pos].mark_started(now);
                    queue[pos].advance_to(e.op_end);
                    if queue[pos].is_complete() {
                        queue.swap_remove(pos);
                    }
                }
                now += duration_ms;
                ctrl.on_group_complete(duration_ms);
            }
            None => now += decision.overhead_ms + 0.1,
        }
    }
    Measured {
        elapsed_s: decide_s,
        checksum,
    }
}

impl Bench for Decision {
    fn name(&self) -> &'static str {
        "decision"
    }

    fn gated(&self) -> &'static [Gated] {
        const GATED: &[Gated] = &[Gated::higher("rounds_per_sec")];
        GATED
    }

    fn run(&self) -> Report {
        let lib = Arc::new(ModelLibrary::new());
        eprintln!("decision workload: {ROUNDS} rounds over a {QUEUE_DEPTH}-deep churned queue...");
        let live = |rounds| {
            let model = Arc::new(SpanModel::default());
            let mut c = Optimized(AbacusScheduler::new(model, lib.clone(), pinned_config()));
            run(&mut c, &lib, rounds)
        };
        let reference = |rounds| {
            let model = Arc::new(SpanModel::default());
            let mut c = Baseline(ReferenceController::new(
                model,
                lib.clone(),
                pinned_config(),
            ));
            run(&mut c, &lib, rounds)
        };
        std::hint::black_box(live(2_000));
        std::hint::black_box(reference(2_000));
        let opt = live(ROUNDS);
        let base = reference(ROUNDS);
        let identical = opt.checksum == base.checksum;
        let rounds_per_sec = ROUNDS as f64 / opt.elapsed_s;
        let baseline_rounds_per_sec = ROUNDS as f64 / base.elapsed_s;

        let mut r = Report::default();
        r.int("rounds", ROUNDS);
        r.int("queue_depth", QUEUE_DEPTH as u64);
        r.num("baseline_rounds_per_sec", baseline_rounds_per_sec, 0);
        r.num("rounds_per_sec", rounds_per_sec, 0);
        r.num("speedup", rounds_per_sec / baseline_rounds_per_sec, 2);
        r.flag("identical", identical);
        r.check(
            identical,
            "the live and reference controllers emit the same decisions",
        );
        r
    }
}
