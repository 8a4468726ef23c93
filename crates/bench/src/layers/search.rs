//! The search-path prediction round: scalar vs batched MLP inference per
//! search-way count — the §7.8 / Fig. 23 predictor cost — plus one full
//! 4-way scheduling decision.
//!
//! Each sample times `INNER` consecutive calls so that sub-microsecond
//! rounds are not swamped by clock granularity, and every value is the
//! median of `REPS` samples.

use crate::harness::wall_ms;
use crate::{Bench, Fixture, Gated, Report};
use predictor::LatencyModel;
use std::hint::black_box;

pub(crate) struct Search;

const WAYS: [usize; 5] = [1, 2, 4, 8, 16];
const REPS: usize = 301;
const INNER: usize = 50;
/// Calls per sample of the full 4-way decision.
const DECISION_INNER: usize = 20;

/// Median per-call wall time of `f`, milliseconds.
fn median_ms(inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            wall_ms(|| {
                for _ in 0..inner {
                    f();
                }
            }) / inner as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

impl Bench for Search {
    fn name(&self) -> &'static str {
        "search"
    }

    fn gated(&self) -> &'static [Gated] {
        const GATED: &[Gated] = &[
            Gated::lower("batched_ns_per_prediction_w1"),
            Gated::lower("batched_ns_per_prediction_w2"),
            Gated::lower("batched_ns_per_prediction_w4"),
            Gated::lower("batched_ns_per_prediction_w8"),
            Gated::lower("batched_ns_per_prediction_w16"),
        ];
        GATED
    }

    fn run(&self) -> Report {
        eprintln!("training bench fixture MLP (3x32)...");
        let fx = Fixture::new();
        let mut r = Report::default();
        r.raw("mlp_hidden", "[32, 32, 32]");

        // Warm the thread-local workspace so the first timed round is not
        // an allocation outlier.
        let warm = fx.sample_group(50).features(&fx.lib);
        for _ in 0..32 {
            black_box(fx.mlp.predict_one(&warm));
        }
        for w in WAYS {
            let batch: Vec<Vec<f64>> = (0..w)
                .map(|i| fx.sample_group(20 + 9 * i).features(&fx.lib))
                .collect();
            let flat: Vec<f64> = batch.iter().flatten().copied().collect();
            let mut out = Vec::with_capacity(w);
            let batched_ms = median_ms(INNER, || {
                fx.mlp.predict_into(&flat, w, &mut out);
                black_box(&out);
            });
            let scalar_ms = median_ms(INNER, || {
                for row in &batch {
                    black_box(fx.mlp.predict_one_scalar(black_box(row)));
                }
            });
            r.num(&format!("scalar_round_ms_w{w}"), scalar_ms, 6);
            r.num(&format!("batched_round_ms_w{w}"), batched_ms, 6);
            r.num(
                &format!("scalar_ns_per_prediction_w{w}"),
                scalar_ms * 1e6 / w as f64,
                1,
            );
            r.num(
                &format!("batched_ns_per_prediction_w{w}"),
                batched_ms * 1e6 / w as f64,
                1,
            );
            r.num(&format!("speedup_w{w}"), scalar_ms / batched_ms, 2);
        }

        // A full 4-way scheduling decision (the §6.3 "three rounds, ~0.26 ms").
        let queries: Vec<abacus_core::Query> = [
            dnn_models::ModelId::ResNet152,
            dnn_models::ModelId::Bert,
            dnn_models::ModelId::InceptionV3,
        ]
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let input = m.max_input();
            abacus_core::Query::new(i as u64, m, input, 0.0, 100.0, fx.lib.graph(m, input).len())
        })
        .collect();
        let refs: Vec<&abacus_core::Query> = queries.iter().collect();
        let model = fx.model();
        let decision_ms = median_ms(DECISION_INNER, || {
            black_box(abacus_core::plan_group(
                &refs,
                60.0,
                model.as_ref(),
                &fx.lib,
                4,
            ));
        });
        r.num("full_decision_4way_ms", decision_ms, 6);
        r
    }
}
