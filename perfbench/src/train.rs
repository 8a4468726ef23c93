//! Predictor training for a workload's fixtures.
//!
//! Every predictor is trained in set-up at one fixed [`TrainerConfig`]; the
//! benchmark never reads a cached model, so a fresh checkout on any host
//! simulates the same outcomes.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{Dataset, LatencyModel, Mlp, MlpConfig};
use serving::{collect_profiles, train_unified, TrainerConfig};
use std::sync::Arc;
use std::time::Instant;

use crate::probe::elapsed_ns;

/// The trainer scale every workload uses. Independent of the workload
/// seed: the predictor is part of the system under test, not an input.
pub fn trainer_config() -> TrainerConfig {
    TrainerConfig {
        samples_per_set: 300,
        runs_per_group: 3,
        mlp: MlpConfig {
            epochs: 40,
            ..MlpConfig::default()
        },
        seed: 0xAB,
    }
}

/// A predictor trained with profiling and fitting timed apart.
pub struct TracedTraining {
    /// The trained model.
    pub model: Arc<dyn LatencyModel>,
    /// Profiled samples it was fitted on.
    pub samples: usize,
    /// Sampling and profiling time, ns (threaded inside; wall time here).
    pub profile_ns: u64,
    /// Fitting time, ns.
    pub fit_ns: u64,
}

/// Set-up path: the one-call trainer.
pub fn train(
    sets: &[Vec<ModelId>],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
) -> Arc<dyn LatencyModel> {
    Arc::new(train_unified(sets, lib, gpu, noise, &trainer_config()).0)
}

/// Traced path: the same model as [`train`], built from the trainer's
/// two public halves so each can be timed. `train_unified` pools the sets'
/// profiles exactly as concatenating `collect_profiles` per set does; the
/// traced run's digest check confirms the model is the same.
pub fn train_traced(
    sets: &[Vec<ModelId>],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
) -> TracedTraining {
    let cfg = trainer_config();
    let t = Instant::now();
    let profiles: Vec<_> = sets
        .iter()
        .enumerate()
        .flat_map(|(i, set)| collect_profiles(set, lib, gpu, noise, &cfg, i as u64))
        .collect();
    let data = Dataset::from_profiles(&profiles, lib);
    let profile_ns = elapsed_ns(t);
    let t = Instant::now();
    let mlp = Mlp::train(&data, &cfg.mlp);
    let fit_ns = elapsed_ns(t);
    TracedTraining {
        model: Arc::new(mlp),
        samples: data.len(),
        profile_ns,
        fit_ns,
    }
}
