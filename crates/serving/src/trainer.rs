//! Offline predictor training for a deployment (§5.4–5.5).
//!
//! Given the co-location sets a node will serve, this module runs the
//! paper's offline pipeline: instance-based sampling of operator groups,
//! profiling on the GPU simulator, and MLP training. One *unified* model is
//! trained across all sets — §5.5 shows per-pair models buy almost nothing
//! (5.5% vs 5.7% error), and §4 highlights the single-model design.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{
    profile_groups, sample_groups, ConformalModel, Dataset, Mlp, MlpConfig, ProfiledGroup,
    QuantileMlp, CERT_TAUS,
};
use workload::{fork_seed, SeededRng};

/// Sub-stream indices for per-set seed derivation. Each co-location set's
/// sampling and profiling RNG streams are
/// `fork_seed(fork_seed(cfg.seed, label), STREAM)` — nested forks, so the
/// two streams are disjoint from each other *and* from every other label's
/// streams. The previous scheme derived the profiling seed as
/// `fork_seed(cfg.seed, label ^ 0xFFFF)`, which is exactly the *sampling*
/// seed of label `label ^ 0xFFFF`: any deployment with ≥ 0xFFFF sets (or a
/// caller passing such labels directly) would profile one set with another
/// set's sampling stream. Fixing the derivation shifts all trained
/// predictors and cached artefacts — see DESIGN.md §7.
const SAMPLE_STREAM: u64 = 0;
const PROFILE_STREAM: u64 = 1;

/// Seed for one of a set's RNG streams (see [`SAMPLE_STREAM`]).
fn set_stream_seed(seed: u64, label: u64, stream: u64) -> u64 {
    fork_seed(fork_seed(seed, label), stream)
}

/// Configuration of the offline phase.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Operator groups sampled per co-location set (paper: 2 000 per pair).
    pub samples_per_set: usize,
    /// Measurement repetitions per group (paper: 100).
    pub runs_per_group: usize,
    /// MLP hyper-parameters.
    pub mlp: MlpConfig,
    /// Seed for sampling and profiling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            samples_per_set: 2_000,
            runs_per_group: 10,
            mlp: MlpConfig::default(),
            seed: 0xAB,
        }
    }
}

impl TrainerConfig {
    /// Small configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            samples_per_set: 200,
            runs_per_group: 3,
            mlp: MlpConfig::fast(),
            seed: 0xAB,
        }
    }
}

/// Sample and profile one co-location set.
pub fn collect_profiles(
    set: &[ModelId],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &TrainerConfig,
    label: u64,
) -> Vec<ProfiledGroup> {
    let specs = sample_groups(
        set,
        cfg.samples_per_set,
        lib,
        set_stream_seed(cfg.seed, label, SAMPLE_STREAM),
    );
    profile_groups(
        &specs,
        lib,
        gpu,
        noise,
        set_stream_seed(cfg.seed, label, PROFILE_STREAM),
        cfg.runs_per_group,
    )
}

/// Sample, profile and encode one co-location set as a dataset.
pub fn collect_dataset(
    set: &[ModelId],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &TrainerConfig,
    label: u64,
) -> Dataset {
    Dataset::from_profiles(&collect_profiles(set, lib, gpu, noise, cfg, label), lib)
}

/// Train the unified duration model over all given co-location sets.
///
/// Returns the trained MLP together with the pooled dataset (so callers can
/// hold out a test split or run cross-validation).
///
/// Set `i` is sampled and profiled by [`collect_profiles`] under label `i`,
/// and the pooled dataset is the sets' profiles in set order. Each set's
/// profiling campaign, by far the dominant cost, fans out over the worker
/// pool, which claims groups one at a time and so balances uneven
/// per-group costs; the result is the same at any worker count.
pub fn train_unified(
    sets: &[Vec<ModelId>],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &TrainerConfig,
) -> (Mlp, Dataset) {
    assert!(!sets.is_empty());
    let profiles: Vec<ProfiledGroup> = sets
        .iter()
        .enumerate()
        .flat_map(|(i, set)| collect_profiles(set, lib, gpu, noise, cfg, i as u64))
        .collect();
    let data = Dataset::from_profiles(&profiles, lib);
    let mlp = Mlp::train(&data, &cfg.mlp);
    (mlp, data)
}

/// Fork label of the conformal calibration split's RNG stream. Nested off
/// `cfg.seed` like the per-set streams, far outside any plausible set
/// label, so the held-out slice is deterministic for a given seed and
/// disjoint from every sampling/profiling stream.
const CALIB_FORK: u64 = 0x00CA_11B0;

/// Fraction of the pooled dataset the quantile heads train on; the
/// remainder is the held-out conformal calibration slice (split
/// conformal's exchangeability requirement — the heads must never see the
/// calibration rows).
const CALIB_TRAIN_FRAC: f64 = 0.75;

/// The certified-training output: the mean predictor (bit-identical to
/// [`train_unified`]'s — same data, same trainer, so mean-model caches
/// stay valid), the calibrated upper-bound certifier, and the pooled
/// dataset.
pub struct CertifiedPredictor {
    /// Unified mean model, exactly as [`train_unified`] trains it.
    pub mean: Mlp,
    /// Quantile heads + split-conformal table, certifying at `alpha`.
    pub certifier: ConformalModel,
    /// The pooled profiling dataset both models came from.
    pub data: Dataset,
}

/// Train the full certification stack over the given co-location sets:
/// the unified mean model on the complete pooled dataset (unchanged from
/// [`train_unified`]), p90/p95/p99 quantile heads ([`CERT_TAUS`]) on a
/// deterministic 75% slice, and a per-width split-conformal calibration
/// on the held-out 25% ([`ConformalModel::calibrate`]), certifying Eq. 2
/// at miscoverage `alpha`.
pub fn train_certified(
    sets: &[Vec<ModelId>],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &TrainerConfig,
    alpha: f64,
) -> CertifiedPredictor {
    let (mean, data) = train_unified(sets, lib, gpu, noise, cfg);
    let mut rng = SeededRng::new(fork_seed(cfg.seed, CALIB_FORK));
    let (head_train, calib) = data.split(CALIB_TRAIN_FRAC, &mut rng);
    let heads = QuantileMlp::train(&head_train, &cfg.mlp, &CERT_TAUS);
    let certifier = ConformalModel::calibrate(heads, &calib, alpha);
    CertifiedPredictor {
        mean,
        certifier,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictor::{eval, LatencyModel};
    use workload::SeededRng;

    #[test]
    fn unified_training_reaches_useful_accuracy() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let noise = NoiseModel::calibrated();
        let sets = vec![
            vec![ModelId::ResNet50, ModelId::Bert],
            vec![ModelId::ResNet50, ModelId::Vgg16],
        ];
        let cfg = TrainerConfig {
            samples_per_set: 400,
            runs_per_group: 3,
            mlp: MlpConfig {
                epochs: 80,
                ..MlpConfig::default()
            },
            seed: 5,
        };
        let (mlp, data) = train_unified(&sets, &lib, &gpu, &noise, &cfg);
        let mut rng = SeededRng::new(1);
        let (_, test) = data.split(0.8, &mut rng);
        let err = eval::mape(&mlp, &test);
        // Paper-grade is ~5%; at this tiny sample budget 12% is plenty to
        // prove the pipeline works.
        assert!(err < 0.12, "mape {err}");
        let _ = mlp.name();
    }

    #[test]
    fn parallel_collection_matches_serial_concat() {
        // `train_unified`'s pooled dataset, whose per-set profiling
        // campaigns fan out over the worker pool, must be exactly the
        // dataset a per-set `collect_dataset` loop produces — same samples,
        // same order, same bits.
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let noise = NoiseModel::calibrated();
        let sets = vec![
            vec![ModelId::ResNet50, ModelId::Bert],
            vec![ModelId::InceptionV3, ModelId::Vgg16],
            vec![ModelId::ResNet101],
        ];
        let cfg = TrainerConfig {
            samples_per_set: 30,
            runs_per_group: 2,
            mlp: MlpConfig::fast(),
            seed: 17,
        };
        let (_, pooled) = train_unified(&sets, &lib, &gpu, &noise, &cfg);
        let mut serial = Dataset::new();
        for (i, set) in sets.iter().enumerate() {
            serial.extend(collect_dataset(set, &lib, &gpu, &noise, &cfg, i as u64));
        }
        assert_eq!(pooled.x, serial.x);
        assert_eq!(pooled.y, serial.y);
    }

    #[test]
    fn sampling_and_profiling_streams_are_disjoint() {
        // Regression guard for the old `label ^ 0xFFFF` derivation, under
        // which one label's profiling seed collided with another label's
        // sampling seed.
        let labels = [0u64, 1, 2, 0xFFFF, 0xFFFE, 0x1_0000];
        let mut seen = std::collections::HashSet::new();
        for &label in &labels {
            for stream in [SAMPLE_STREAM, PROFILE_STREAM] {
                assert!(
                    seen.insert(set_stream_seed(0xAB, label, stream)),
                    "seed collision at label {label} stream {stream}"
                );
            }
        }
    }

    #[test]
    fn certified_training_shares_the_mean_model_and_is_deterministic() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let noise = NoiseModel::calibrated();
        let sets = vec![vec![ModelId::ResNet50, ModelId::Bert]];
        let cfg = TrainerConfig {
            samples_per_set: 120,
            runs_per_group: 2,
            mlp: MlpConfig::fast(),
            seed: 9,
        };
        let (plain, _) = train_unified(&sets, &lib, &gpu, &noise, &cfg);
        let a = train_certified(&sets, &lib, &gpu, &noise, &cfg, 0.05);
        // The mean model is bit-identical to the uncertified trainer's —
        // mean-model caches survive turning certification on.
        assert_eq!(a.mean, plain);
        assert!((a.certifier.alpha() - 0.05).abs() < 1e-12);
        // Heads never see the calibration slice: proper-train + calib
        // partition the pooled data.
        assert_eq!(a.data.len(), cfg.samples_per_set);
        // Rerun is bit-identical (deterministic calibration split).
        let b = train_certified(&sets, &lib, &gpu, &noise, &cfg, 0.05);
        assert_eq!(a.certifier, b.certifier);
    }

    #[test]
    fn collect_dataset_has_expected_size() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let d = collect_dataset(
            &[ModelId::InceptionV3, ModelId::Vgg19],
            &lib,
            &gpu,
            &NoiseModel::calibrated(),
            &TrainerConfig::fast(),
            0,
        );
        assert_eq!(d.len(), TrainerConfig::fast().samples_per_set);
        assert_eq!(d.dim(), predictor::FEATURE_DIM);
        assert!(d.y.iter().all(|&y| y > 0.0));
    }
}
