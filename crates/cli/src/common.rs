//! Shared plumbing for the experiment subcommands: scale presets, cached
//! predictor training, and output helpers.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{persist, ConformalModel, LatencyModel, Mlp, MlpConfig};
use serving::{train_certified, train_unified, TrainerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke runs (CI-friendly).
    Fast,
    /// Default: minutes, paper-shaped results.
    Medium,
    /// Paper-scale sampling (tens of minutes on one core).
    Full,
}

impl Scale {
    /// Operator-group samples per co-location set for predictor training.
    pub fn samples_per_set(self) -> usize {
        match self {
            Scale::Fast => 300,
            Scale::Medium => 1_500,
            Scale::Full => 2_000,
        }
    }

    /// Profiling repetitions per group (paper: 100).
    pub fn runs_per_group(self) -> usize {
        match self {
            Scale::Fast => 3,
            Scale::Medium => 5,
            Scale::Full => 100,
        }
    }

    /// Serving horizon per (pair, policy) leg, ms.
    pub fn horizon_ms(self) -> f64 {
        match self {
            Scale::Fast => 5_000.0,
            Scale::Medium => 20_000.0,
            Scale::Full => 60_000.0,
        }
    }

    /// Cluster trace length, minutes (paper: 120).
    pub fn trace_minutes(self) -> usize {
        match self {
            Scale::Fast => 6,
            Scale::Medium => 24,
            Scale::Full => 120,
        }
    }

    /// MLP training epochs.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Fast => 40,
            Scale::Medium => 150,
            Scale::Full => 200,
        }
    }
}

/// Parsed global options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Scale preset.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSVs and cached models.
    pub out_dir: PathBuf,
    /// Force predictor retraining even if a cached model exists.
    pub retrain: bool,
    /// Fan independent experiment cells out over threads. Cell results —
    /// and therefore the CSVs — are byte-identical to the serial order;
    /// `--serial` exists for demonstrating exactly that.
    pub parallel: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: Scale::Medium,
            seed: 2021,
            out_dir: PathBuf::from("results"),
            retrain: false,
            parallel: true,
        }
    }
}

impl Options {
    /// Path of a result CSV.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}.csv"))
    }

    /// Offered load for the QoS experiments: 50 QPS aggregate per GPU
    /// (the paper's "load of 50 queries-per-second", which it notes "does
    /// not saturate the GPU").
    pub fn qos_load_total(&self) -> f64 {
        50.0
    }

    /// Offered load for the peak-throughput experiments: 100 QPS aggregate.
    pub fn peak_load_total(&self) -> f64 {
        100.0
    }

    /// Trainer configuration for this scale.
    pub fn trainer_config(&self) -> TrainerConfig {
        TrainerConfig {
            samples_per_set: self.scale.samples_per_set(),
            runs_per_group: self.scale.runs_per_group(),
            mlp: MlpConfig {
                epochs: self.scale.epochs(),
                ..MlpConfig::default()
            },
            seed: self.seed ^ 0xAB,
        }
    }
}

/// Parse `[scale] [--seed N] [--out DIR] [--retrain] [--serial]`
/// style arguments.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => opts.scale = Scale::Fast,
            "--medium" => opts.scale = Scale::Medium,
            "--full" => opts.scale = Scale::Full,
            "--retrain" => opts.retrain = true,
            "--serial" => opts.parallel = false,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                opts.out_dir = PathBuf::from(v);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// Cache path of a trained artefact for `tag` with extension `ext`. The
/// key includes the GPU tag, the scale, the master seed (which seeds
/// training, see [`Options::trainer_config`]) and the simulator's noise
/// protocol ([`gpu_sim::NOISE_PROTOCOL`]), so A100, MIG and V100
/// predictors coexist under `results/models/`, a run under another
/// `--seed` never loads a predictor trained under this one, and a
/// predictor profiled under an older noise protocol is never loaded.
fn cache_path(tag: &str, opts: &Options, ext: &str) -> PathBuf {
    let stem = format!(
        "{tag}_{:?}_seed{}_{}",
        opts.scale,
        opts.seed,
        gpu_sim::NOISE_PROTOCOL
    )
    .to_lowercase();
    opts.out_dir.join("models").join(format!("{stem}.{ext}"))
}

/// Cache path of the unified duration model for `tag`; the `.round_ms`
/// calibration sidecar lives next to it (see
/// [`predictor::persist::round_ms_path`]).
pub fn model_path(tag: &str, opts: &Options) -> PathBuf {
    cache_path(tag, opts, "mlp")
}

/// Train (or load from cache) the unified duration model for `sets` on
/// `gpu`. A missing, truncated or corrupt cache file degrades to a
/// retrain, never to a failed run.
pub fn ensure_predictor(
    tag: &str,
    sets: &[Vec<ModelId>],
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    opts: &Options,
) -> Arc<Mlp> {
    let path = model_path(tag, opts);
    let train = || {
        eprintln!(
            "[predictor] training unified model '{tag}' over {} sets ({} samples x {} runs each)...",
            sets.len(),
            opts.scale.samples_per_set(),
            opts.scale.runs_per_group()
        );
        let t0 = std::time::Instant::now();
        let (mlp, data) = train_unified(
            sets,
            lib,
            gpu,
            &NoiseModel::calibrated(),
            &opts.trainer_config(),
        );
        let mut rng = workload::SeededRng::new(1);
        let (_, test) = data.split(0.9, &mut rng);
        let err = predictor::eval::mape(&mlp, &test);
        eprintln!(
            "[predictor] trained in {:.1?}; held-out MAPE {:.1}% ({} samples)",
            t0.elapsed(),
            err * 100.0,
            data.len()
        );
        mlp
    };
    let (mlp, cached) = if opts.retrain {
        (train(), false)
    } else {
        persist::load_or_else(&path, train)
    };
    if cached {
        eprintln!("[predictor] loaded cached model {}", path.display());
    } else if let Err(e) = persist::save(&mlp, &path) {
        eprintln!("[predictor] warning: could not cache model: {e}");
    }
    Arc::new(mlp)
}

/// Upcast helper.
pub fn as_model(mlp: &Arc<Mlp>) -> Arc<dyn LatencyModel> {
    mlp.clone()
}

/// Cache path of the conformal certifier artifact for `tag`, next to the
/// mean model under `results/models/`.
pub fn conformal_path(tag: &str, opts: &Options) -> PathBuf {
    cache_path(tag, opts, "conformal")
}

/// Train (or load from cache) the *certified* predictor stack for `sets`:
/// the unified mean model plus the split-conformal upper-bound model.
/// The two artifacts cache separately but train in one pass (the mean
/// model of [`train_certified`] is bit-identical to [`train_unified`]'s,
/// so the plain `.mlp` cache stays valid for every other experiment).
/// Corrupt or missing caches degrade to a retrain, never to a failed run.
pub fn ensure_certified(
    tag: &str,
    sets: &[Vec<ModelId>],
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    opts: &Options,
    alpha: f64,
) -> (Arc<Mlp>, Arc<ConformalModel>) {
    let mpath = model_path(tag, opts);
    let cpath = conformal_path(tag, opts);
    if !opts.retrain {
        if let (Ok(mean), Ok(cert)) = (persist::load(&mpath), persist::load_conformal(&cpath)) {
            eprintln!(
                "[predictor] loaded cached certified stack {} + {}",
                mpath.display(),
                cpath.display()
            );
            return (Arc::new(mean), Arc::new(cert.with_alpha(alpha)));
        }
    }
    eprintln!(
        "[predictor] training certified stack '{tag}' over {} sets ({} samples x {} runs each)...",
        sets.len(),
        opts.scale.samples_per_set(),
        opts.scale.runs_per_group()
    );
    let t0 = std::time::Instant::now();
    let trained = train_certified(
        sets,
        lib,
        gpu,
        &NoiseModel::calibrated(),
        &opts.trainer_config(),
        alpha,
    );
    eprintln!(
        "[predictor] certified stack trained in {:.1?}",
        t0.elapsed()
    );
    if let Err(e) = persist::save(&trained.mean, &mpath) {
        eprintln!("[predictor] warning: could not cache mean model: {e}");
    }
    if let Err(e) = persist::save_conformal(&trained.certifier, &cpath) {
        eprintln!("[predictor] warning: could not cache certifier: {e}");
    }
    (Arc::new(trained.mean), Arc::new(trained.certifier))
}

/// Map `f` over experiment cells, fanned out over the worker pool when
/// `parallel` — output order always matches input order, and because every
/// cell derives its own seed, the results are identical either way (see
/// DESIGN.md §7). The fan-out itself runs a plain serial loop where it
/// cannot engage a second core.
pub fn map_cells<T: Sync, R: Send>(
    parallel: bool,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if parallel {
        use rayon::prelude::*;
        items.par_iter().map(f).collect()
    } else {
        items.iter().map(f).collect()
    }
}

/// An [`abacus_core::AbacusConfig`] whose prediction-round latency is
/// calibrated *once* against `model` and pinned. The default config
/// re-measures it from the wall clock inside every scheduler instance,
/// which would make each Abacus cell's timing — and hence the CSVs —
/// irreproducible across runs and between the serial and parallel sweep
/// paths. The calibrated value is cached on disk next to the predictor
/// (keyed like it, honouring `--retrain`), so *reruns* of an
/// experiment — serial or parallel — charge the identical Eq. 3 overhead
/// and reproduce the CSVs byte for byte.
pub fn pinned_abacus_config(
    model: &Arc<Mlp>,
    tag: &str,
    opts: &Options,
) -> abacus_core::AbacusConfig {
    pinned_abacus_config_at(model, tag, opts, abacus_core::AbacusConfig::default().ways)
}

/// [`pinned_abacus_config`] searching `ways` groups per round, with the
/// round latency calibrated at that width. The default width shares the
/// predictor's sidecar; any other width caches its own, under the tag
/// `<tag>_ways<N>`, so a width never reuses another width's cost.
pub fn pinned_abacus_config_at(
    model: &Arc<Mlp>,
    tag: &str,
    opts: &Options,
    ways: usize,
) -> abacus_core::AbacusConfig {
    let cfg = abacus_core::AbacusConfig {
        ways,
        ..abacus_core::AbacusConfig::default()
    };
    let path = if ways == abacus_core::AbacusConfig::default().ways {
        model_path(tag, opts)
    } else {
        model_path(&format!("{tag}_ways{ways}"), opts)
    };
    let cached = if opts.retrain {
        None
    } else {
        persist::load_round_ms(&path)
    };
    let round_ms = cached.unwrap_or_else(|| {
        let round_ms = abacus_core::calibrate_predict_round_ms(model.as_ref(), ways);
        if let Err(e) = persist::save_round_ms(&path, round_ms) {
            eprintln!("[predictor] warning: could not cache round latency: {e}");
        }
        round_ms
    });
    abacus_core::AbacusConfig {
        predict_round_ms: Some(round_ms),
        ..cfg
    }
}

/// Pretty-print a pair label the way the paper's figures do.
pub fn pair_label(models: &[ModelId]) -> String {
    let names: Vec<&str> = models.iter().map(|m| m.name()).collect();
    format!("({})", names.join(","))
}

/// Ensure the output directory exists.
pub fn ensure_out_dir(path: &Path) {
    std::fs::create_dir_all(path).expect("cannot create output directory");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_paths_are_keyed_by_seed() {
        let a = Options::default();
        let b = Options {
            seed: 7,
            ..Options::default()
        };
        assert_ne!(
            model_path("unified_a100", &a),
            model_path("unified_a100", &b)
        );
        assert_ne!(
            conformal_path("unified_a100", &a),
            conformal_path("unified_a100", &b)
        );
        assert_eq!(
            model_path("unified_a100", &a),
            model_path("unified_a100", &a.clone())
        );
        assert_eq!(
            model_path("unified_a100", &a),
            Path::new("results/models/unified_a100_medium_seed2021_noise2.mlp")
        );
    }
}
