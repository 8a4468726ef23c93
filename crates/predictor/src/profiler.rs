//! Offline profiling of operator groups (§5.2, §5.4).
//!
//! For each sampled [`GroupSpec`] the profiler runs the group on the GPU
//! simulator `runs` times with different noise seeds and records the mean
//! and standard deviation of the group latency — exactly the 42 000 × 100
//! measurement campaign of §5.2, scaled by configuration. Groups are
//! profiled in parallel on the rayon worker pool (the measurement legs are
//! independent, and each group's seed depends on its index alone).
//!
//! A campaign derives each kernel's contention profile and solo time once:
//! before the fan-out it builds the [`KernelRows`] of the whole lowering of
//! every `(model, input)` the groups use, and every run replays borrowed
//! slices of the library's kernels and of those rows through
//! [`run_group_profiled`] — the same bits as [`gpu_sim::run_group`] on
//! freshly lowered kernels. A single-stream group, most of a campaign's
//! one-model sets, runs in the engine's lone-stream entry.

use crate::features::GroupSpec;
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{run_group_profiled, GpuSpec, KernelRows, NoiseModel, StreamRows};
use rayon::prelude::*;
use std::collections::HashMap;
use workload::fork_seed;

/// One profiled sample: the group plus its measured latency statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledGroup {
    /// The operator group.
    pub spec: GroupSpec,
    /// Mean group latency over all runs, ms.
    pub mean_ms: f64,
    /// Standard deviation of the group latency across runs, ms.
    pub std_ms: f64,
}

/// The [`KernelRows`] of every whole-graph lowering, per `(model, input)`,
/// on the campaign's GPU.
type ProfileRows = HashMap<(ModelId, QueryInput), KernelRows>;

/// Profile one group: `runs` measurements with seeds forked from `seed`.
fn profile_group(
    spec: &GroupSpec,
    lib: &ModelLibrary,
    rows: &ProfileRows,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    seed: u64,
    runs: usize,
) -> ProfiledGroup {
    assert!(runs > 0);
    let streams: Vec<StreamRows<'_>> = spec
        .entries
        .iter()
        .map(|e| {
            let kernels = lib.kernels(e.model, e.input);
            rows[&(e.model, e.input)].segment(kernels, e.op_start, e.op_end)
        })
        .collect();
    let samples: Vec<f64> = (0..runs)
        .map(|r| run_group_profiled(gpu, noise, fork_seed(seed, r as u64), &streams).total_ms)
        .collect();
    let n = runs as f64;
    let mean = samples.iter().sum::<f64>() / n;
    // Centered two-pass variance: the naive sum-of-squares form loses all
    // significant digits when the spread is tiny relative to the mean
    // (noise-free runs must report exactly zero).
    let var = samples.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
    ProfiledGroup {
        spec: spec.clone(),
        mean_ms: mean,
        std_ms: var.sqrt(),
    }
}

/// Profile many groups in parallel: group `i` is measured with seeds forked
/// from `fork_seed(seed, i)`, so the result is the same at any worker count
/// and when called from inside another fan-out (which runs it inline).
pub fn profile_groups(
    specs: &[GroupSpec],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    seed: u64,
    runs: usize,
) -> Vec<ProfiledGroup> {
    let mut rows = ProfileRows::new();
    for e in specs.iter().flat_map(|s| &s.entries) {
        rows.entry((e.model, e.input))
            .or_insert_with(|| KernelRows::new(lib.kernels(e.model, e.input), gpu));
    }
    specs
        .par_iter()
        .enumerate()
        .map(|(i, s)| profile_group(s, lib, &rows, gpu, noise, fork_seed(seed, i as u64), runs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::sample_groups;
    use dnn_models::ModelId;

    #[test]
    fn profile_statistics_reasonable() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let specs = sample_groups(&[ModelId::ResNet50, ModelId::Bert], 10, &lib, 3);
        let profiled = profile_groups(&specs, &lib, &gpu, &NoiseModel::calibrated(), 11, 20);
        assert_eq!(profiled.len(), 10);
        for p in &profiled {
            assert!(p.mean_ms > 0.0);
            assert!(p.std_ms >= 0.0);
            // §5.2: std is a few percent of the mean.
            assert!(p.std_ms / p.mean_ms < 0.12, "cv {}", p.std_ms / p.mean_ms);
        }
    }

    #[test]
    fn noise_free_profiling_has_zero_std() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let specs = sample_groups(&[ModelId::Vgg16], 3, &lib, 5);
        for p in profile_groups(&specs, &lib, &gpu, &NoiseModel::disabled(), 1, 5) {
            assert!(p.std_ms < 1e-9);
        }
    }

    /// The profile-once campaign reports exactly the mean and std bits of
    /// the per-run path it replaced: every run lowers the group afresh and
    /// runs it through `run_group`, which profiles every kernel again.
    #[test]
    fn profile_once_matches_per_run_profiling_bitwise() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let sets: [&[ModelId]; 4] = [
            &[ModelId::Bert],
            &[ModelId::ResNet50, ModelId::Vgg16],
            &[ModelId::ResNet152, ModelId::InceptionV3, ModelId::Bert],
            &[
                ModelId::ResNet101,
                ModelId::Vgg19,
                ModelId::Bert,
                ModelId::InceptionV3,
            ],
        ];
        for noise in [NoiseModel::calibrated(), NoiseModel::disabled()] {
            for (width, set) in sets.iter().enumerate() {
                let specs = sample_groups(set, 6, &lib, 40 + width as u64);
                let seed = 17 + width as u64;
                let got = profile_groups(&specs, &lib, &gpu, &noise, seed, 4);
                for (i, (spec, p)) in specs.iter().zip(&got).enumerate() {
                    assert_eq!(spec.entries.len(), width + 1);
                    let group_seed = fork_seed(seed, i as u64);
                    let streams = spec.streams(&lib);
                    let run =
                        |r| gpu_sim::run_group(&gpu, &noise, fork_seed(group_seed, r), &streams);
                    let samples: Vec<f64> = (0..4).map(|r| run(r).total_ms).collect();
                    let mean = samples.iter().sum::<f64>() / 4.0;
                    let var = samples.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / 4.0;
                    assert_eq!(&p.spec, spec);
                    let at = format!("{} streams, group {i}", width + 1);
                    assert_eq!(p.mean_ms.to_bits(), mean.to_bits(), "mean, {at}");
                    assert_eq!(p.std_ms.to_bits(), var.sqrt().to_bits(), "std, {at}");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let specs = sample_groups(&[ModelId::ResNet101, ModelId::Vgg19], 4, &lib, 2);
        let a = profile_groups(&specs, &lib, &gpu, &NoiseModel::calibrated(), 8, 10);
        let b = profile_groups(&specs, &lib, &gpu, &NoiseModel::calibrated(), 8, 10);
        assert_eq!(a, b);
    }
}
