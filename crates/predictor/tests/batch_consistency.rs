//! Property tests: the batched prediction paths (`predict_into`,
//! `predict_batch`) of all three predictors, one- and three-head quantile
//! models and the conformal certifier agree with the per-sample
//! `predict_one` to within 1e-9 for arbitrary batch sizes 1..=32 — the
//! batched kernel must be safe to substitute in the multi-way search —
//! and every shipped model keeps the `LatencyModel` purity contract
//! bitwise: a row's prediction does not depend on the batch around it.

use predictor::{
    ConformalModel, Dataset, LatencyModel, LinearRegression, LinearSvr, Mlp, MlpConfig,
    QuantileMlp, SvrConfig, CERT_TAUS,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use workload::SeededRng;

const DIM: usize = 23;

fn synthetic(n: usize, seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let mut d = Dataset::new();
    for _ in 0..n {
        let x: Vec<f64> = (0..DIM).map(|_| rng.f64()).collect();
        let y = 5.0 + x.iter().sum::<f64>() + 3.0 * (x[0] - 0.5).max(0.0);
        d.push(x, y);
    }
    d
}

/// Every shipped model kind: the mean MLP, a one-head (single pinball) and
/// a three-head quantile model, the linear baselines, and the calibrated
/// certifier.
fn models() -> &'static Vec<Box<dyn LatencyModel>> {
    static MODELS: OnceLock<Vec<Box<dyn LatencyModel>>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let d = synthetic(200, 7);
        let cfg = MlpConfig {
            epochs: 5,
            ..MlpConfig::default()
        };
        let heads = QuantileMlp::train(&d, &cfg, &CERT_TAUS);
        vec![
            Box::new(Mlp::train(&d, &cfg)),
            Box::new(QuantileMlp::train(&d, &cfg, &[0.9])),
            Box::new(heads.clone()),
            Box::new(LinearRegression::fit(&d, 1e-6)),
            Box::new(LinearSvr::fit(
                &d,
                &SvrConfig {
                    epochs: 10,
                    ..SvrConfig::default()
                },
            )),
            Box::new(ConformalModel::calibrate(heads, &synthetic(80, 10), 0.05)),
        ]
    })
}

/// Batches are sparse-ish like real Fig. 8 rows: some features zeroed.
fn arb_batch() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec((0.0f64..1.0, 0usize..4), DIM..(DIM + 1)).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(v, zero)| if zero == 0 { 0.0 } else { v })
                .collect()
        }),
        1..33,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_paths_agree_with_predict_one(batch in arb_batch()) {
        let flat: Vec<f64> = batch.iter().flatten().copied().collect();
        for model in models() {
            let one: Vec<f64> = batch.iter().map(|row| model.predict_one(row)).collect();
            let via_batch = model.predict_batch(&batch);
            let mut via_into = Vec::new();
            model.predict_into(&flat, batch.len(), &mut via_into);
            prop_assert_eq!(one.len(), via_batch.len());
            prop_assert_eq!(one.len(), via_into.len());
            for (i, &o) in one.iter().enumerate() {
                prop_assert!(
                    (o - via_batch[i]).abs() <= 1e-9,
                    "{} predict_batch row {i}: {o} vs {}", model.name(), via_batch[i]
                );
                prop_assert!(
                    (o - via_into[i]).abs() <= 1e-9,
                    "{} predict_into row {i}: {o} vs {}", model.name(), via_into[i]
                );
            }
        }
    }

    /// The purity contract, bitwise: row `at` predicted alone equals the
    /// same row predicted inside the batch, plain and derated (the cluster
    /// router's score memo reuses predictions on exactly this premise).
    #[test]
    fn row_prediction_is_independent_of_its_batch(
        batch in arb_batch(),
        pick in 0usize..32,
        derate in 0.25f64..4.0,
    ) {
        let at = pick % batch.len();
        let flat: Vec<f64> = batch.iter().flatten().copied().collect();
        let derates = vec![derate; batch.len()];
        let (mut alone, mut inside) = (Vec::new(), Vec::new());
        for model in models() {
            model.predict_into(&batch[at], 1, &mut alone);
            model.predict_into(&flat, batch.len(), &mut inside);
            prop_assert_eq!(
                alone[0].to_bits(),
                inside[at].to_bits(),
                "{} row {} of {}", model.name(), at, batch.len()
            );
            model.predict_derated_into(&batch[at], 1, &[derate], &mut alone);
            model.predict_derated_into(&flat, batch.len(), &derates, &mut inside);
            prop_assert_eq!(
                alone[0].to_bits(),
                inside[at].to_bits(),
                "{} derated row {} of {}", model.name(), at, batch.len()
            );
        }
    }

    /// The MLP's batched engine matches the pre-batching scalar reference
    /// bit for bit (same IEEE operation sequence per output).
    #[test]
    fn mlp_batched_is_bit_identical_to_scalar_reference(batch in arb_batch()) {
        static MLP: OnceLock<Mlp> = OnceLock::new();
        let mlp = MLP.get_or_init(|| {
            Mlp::train(&synthetic(200, 8), &MlpConfig { epochs: 5, ..MlpConfig::default() })
        });
        let preds = mlp.predict_batch(&batch);
        for (row, &p) in batch.iter().zip(&preds) {
            prop_assert_eq!(p, mlp.predict_one_scalar(row));
        }
    }
}
