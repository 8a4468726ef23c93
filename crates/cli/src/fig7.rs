//! Fig. 7 / §5.2 — latency determinism of operator groups.
//!
//! Samples operator groups over all 21 pairs, measures each many times, and
//! reports the CDFs of the mean end-to-end latency and of the run-to-run
//! standard deviation, plus the §5.2 headline statistics (average std,
//! 90%-ile std, std/mean ratio).

use crate::common::Options;
use abacus_metrics::{percentile, Cdf, CsvWriter};
use dnn_models::ModelLibrary;
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::sampling::all_pairs;
use serving::{collect_profiles, TrainerConfig};
use std::sync::Arc;

/// Run the determinism study and emit `results/fig7.csv`.
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let cfg = TrainerConfig {
        samples_per_set: opts.scale.samples_per_set(),
        runs_per_group: opts.scale.runs_per_group().max(10),
        seed: opts.seed,
        ..TrainerConfig::default()
    };

    let mut means = Vec::new();
    let mut stds = Vec::new();
    for (i, pair) in all_pairs().iter().enumerate() {
        for p in collect_profiles(pair, &lib, &gpu, &noise, &cfg, i as u64) {
            means.push(p.mean_ms);
            stds.push(p.std_ms);
        }
    }
    let n = means.len();
    let mean_e2e = abacus_metrics::mean(&means);
    let p90_e2e = percentile(&means, 90.0);
    let mean_std = abacus_metrics::mean(&stds);
    let p90_std = percentile(&stds, 90.0);
    let ratios: Vec<f64> = means
        .iter()
        .zip(&stds)
        .map(|(m, s)| s / m.max(1e-9))
        .collect();

    println!(
        "Fig. 7 / §5.2 — determinism of {n} operator groups x {} runs",
        cfg.runs_per_group
    );
    println!("  mean group latency : {mean_e2e:.1} ms   (paper: 15.9 ms)");
    println!("  90%-ile latency    : {p90_e2e:.1} ms   (paper: 25.8 ms)");
    println!("  average std        : {mean_std:.2} ms   (paper: 0.65 ms)");
    println!("  90%-ile std        : {p90_std:.2} ms   (paper: 1.58 ms)");
    println!(
        "  mean std/mean      : {:.2}%   (paper: 4.53%)",
        100.0 * abacus_metrics::mean(&ratios)
    );

    let mut csv =
        CsvWriter::create(opts.csv_path("fig7"), &["series", "quantile", "value_ms"]).expect("csv");
    for (name, data) in [("e2e", &means), ("std", &stds)] {
        let cdf = Cdf::new(data);
        for (v, q) in cdf.curve(60) {
            csv.write_row(vec![name.into(), format!("{q}"), format!("{v}")])
                .expect("row");
        }
    }
    csv.flush().expect("flush");
    println!("wrote {}", opts.csv_path("fig7").display());
}
