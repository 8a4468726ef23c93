//! Golden pin for the minibatch matrix-form trainer: [`Mlp::train`] and
//! [`QuantileMlp::train`] must reproduce the frozen pre-refactor scalar
//! trainer, `bench::reference::train` (linked as a dev-dependency, as
//! `gpu-sim`'s golden engine suite links the reference engine).
//!
//! Two regimes, per DESIGN.md's training-determinism rules:
//!
//! - Minibatches of at most one gradient chunk (`batch_size <= 16`)
//!   reproduce the reference's floating-point accumulation order exactly,
//!   so the trained weights must match **bit for bit**.
//! - Wider minibatches differ only in the cross-chunk summation tree, so
//!   weights must agree to 1e-9 after a short training run.
//!
//! A third pin: training with `serial: true` (all gradient chunks on the
//! calling thread) and `serial: false` (worker-pool fan-out) must produce
//! bit-identical models — thread-count independence is a hard contract.
//! Where the pool has a single worker (1- and 2-CPU hosts) `serial: false`
//! trains serially too, so there these two tests compare two serial runs;
//! `mlp::tests::pooled_training_run_matches_serial_bitwise` trains a whole
//! run through the pool on every host.
//!
//! A model is its parameters, target scaling and inference plan; the Adam
//! moments stay in the trainer, so `assert_eq!` compares whole models.

use bench::reference::train as reference;
use predictor::{Dataset, LatencyModel, Mlp, MlpConfig, QuantileMlp};
use workload::SeededRng;

const TAUS: [f64; 3] = [0.9, 0.95, 0.99];

fn synthetic(n: usize, seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let mut d = Dataset::new();
    for _ in 0..n {
        let x: Vec<f64> = (0..6).map(|_| rng.f64()).collect();
        let y = 8.0 + 25.0 * x[0] + 12.0 * (x[1] - 0.4).max(0.0) + 4.0 * x[2] * x[3];
        d.push(x, y);
    }
    d
}

#[test]
fn single_chunk_minibatches_match_reference_bit_for_bit() {
    let d = synthetic(300, 11);
    let cfg = MlpConfig {
        epochs: 8,
        batch_size: 16,
        ..MlpConfig::default()
    };
    assert_eq!(Mlp::train(&d, &cfg), reference::mlp(&d, &cfg));
    // A single pinball-loss model is a one-head quantile model.
    assert_eq!(
        QuantileMlp::train(&d, &cfg, &[0.9]),
        reference::quantile(&d, &cfg, &[0.9])
    );
}

#[test]
fn multi_chunk_minibatches_match_reference_within_tolerance() {
    let d = synthetic(400, 12);
    let cfg = MlpConfig {
        epochs: 6,
        batch_size: 64,
        ..MlpConfig::default()
    };
    let new = Mlp::train(&d, &cfg);
    let old = reference::mlp(&d, &cfg);
    assert_eq!(new.dims(), old.dims());
    let (pn, po) = (new.raw_params(), old.raw_params());
    for (j, (a, b)) in pn.iter().zip(&po).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9,
            "param {j} drifted: {a} vs {b} (|Δ| = {:e})",
            (a - b).abs()
        );
    }
    // And the drift is invisible at prediction level.
    let probe = vec![0.3, 0.7, 0.1, 0.9, 0.5, 0.2];
    assert!((new.predict_one(&probe) - old.predict_one(&probe)).abs() <= 1e-6);
}

#[test]
fn quantile_single_chunk_minibatches_match_reference_bit_for_bit() {
    // The multi-head pinball trainer shares the batched kernels with the
    // scalar-loss path; inside one gradient chunk the accumulation order
    // matches the scalar reference exactly, across head counts and shapes.
    let d = synthetic(300, 21);
    for taus in [&TAUS[..1], &TAUS[..2], &TAUS[..]] {
        for batch_size in [8usize, 16] {
            let cfg = MlpConfig {
                epochs: 8,
                batch_size,
                ..MlpConfig::default()
            };
            let new = QuantileMlp::train(&d, &cfg, taus);
            let old = reference::quantile(&d, &cfg, taus);
            assert_eq!(new, old, "taus {taus:?} batch {batch_size}");
        }
    }
}

#[test]
fn quantile_multi_chunk_minibatches_match_reference_within_tolerance() {
    let d = synthetic(400, 22);
    let cfg = MlpConfig {
        epochs: 6,
        batch_size: 64,
        ..MlpConfig::default()
    };
    let new = QuantileMlp::train(&d, &cfg, &TAUS);
    let old = reference::quantile(&d, &cfg, &TAUS);
    assert_eq!(new.dims(), old.dims());
    let (pn, po) = (new.raw_params(), old.raw_params());
    for (j, (a, b)) in pn.iter().zip(&po).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9,
            "param {j} drifted: {a} vs {b} (|Δ| = {:e})",
            (a - b).abs()
        );
    }
}

#[test]
fn quantile_serial_and_pooled_training_are_bit_identical() {
    let d = synthetic(400, 23);
    let pooled = QuantileMlp::train(
        &d,
        &MlpConfig {
            epochs: 6,
            ..MlpConfig::default()
        },
        &TAUS,
    );
    let serial = QuantileMlp::train(
        &d,
        &MlpConfig {
            epochs: 6,
            serial: true,
            ..MlpConfig::default()
        },
        &TAUS,
    );
    assert_eq!(pooled, serial);
}

#[test]
fn serial_and_pooled_training_are_bit_identical() {
    let d = synthetic(400, 13);
    let pooled = Mlp::train(
        &d,
        &MlpConfig {
            epochs: 6,
            ..MlpConfig::default()
        },
    );
    let serial = Mlp::train(
        &d,
        &MlpConfig {
            epochs: 6,
            serial: true,
            ..MlpConfig::default()
        },
    );
    assert_eq!(pooled, serial);
}
