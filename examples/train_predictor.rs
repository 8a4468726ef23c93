//! The offline pipeline of §5 as a standalone tool: sample operator groups
//! (Fig. 9), profile them (§5.2), train the three predictor families, and
//! persist the winning MLP to disk.
//!
//! ```sh
//! cargo run --release --example train_predictor -- /tmp/abacus_model.mlp
//! ```

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{
    eval, persist, sample_groups, Dataset, LinearRegression, LinearSvr, Mlp, MlpConfig, SvrConfig,
};
use serving::collect_profiles;
use std::sync::Arc;
use workload::SeededRng;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/abacus_model.mlp".to_string());
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let pair = [ModelId::ResNet152, ModelId::Vgg19];

    // Instance-based sampling (Fig. 9): only groups the scheduler can emit.
    let preview = sample_groups(&pair, 3, &lib, 1);
    println!(
        "instance-based samples over ({}, {}):",
        pair[0].name(),
        pair[1].name()
    );
    for g in &preview {
        for e in &g.entries {
            println!(
                "  {:<8} ops {:>3}..{:<3} bs {:>2} seq {:>2}",
                e.model.name(),
                e.op_start,
                e.op_end,
                e.input.batch,
                e.input.seq
            );
        }
        println!("  --");
    }

    // Profile (§5.2): run each group repeatedly on the simulated GPU.
    println!("profiling 1500 operator groups x 8 runs...");
    let t0 = std::time::Instant::now();
    let profiles = collect_profiles(
        &pair,
        &lib,
        &gpu,
        &noise,
        &serving::TrainerConfig {
            samples_per_set: 1_500,
            runs_per_group: 8,
            ..serving::TrainerConfig::default()
        },
        0,
    );
    let mean: f64 = profiles.iter().map(|p| p.mean_ms).sum::<f64>() / profiles.len() as f64;
    let cv: f64 =
        profiles.iter().map(|p| p.std_ms / p.mean_ms).sum::<f64>() / profiles.len() as f64;
    println!(
        "  done in {:.1?}; mean group latency {mean:.1} ms, std/mean {:.1}% (paper §5.2: 4.53%)",
        t0.elapsed(),
        100.0 * cv
    );

    // Train and compare the three families (§5.5 / Fig. 10).
    let data = Dataset::from_profiles(&profiles, &lib);
    let mut rng = SeededRng::new(7);
    let (train, test) = data.split(0.8, &mut rng);
    let mlp = Mlp::train(&train, &MlpConfig::default());
    let lr = LinearRegression::fit(&train, 1e-3);
    let svr = LinearSvr::fit(&train, &SvrConfig::default());
    println!("prediction error (MAPE, Eq. 1) on the held-out 20%:");
    println!(
        "  linear regression : {:5.1}%",
        100.0 * eval::mape(&lr, &test)
    );
    println!(
        "  linear SVR        : {:5.1}%",
        100.0 * eval::mape(&svr, &test)
    );
    println!(
        "  MLP (3 x 32)      : {:5.1}%",
        100.0 * eval::mape(&mlp, &test)
    );

    // Persist the deployable artifact (§7.8: ~14 kB).
    persist::save(&mlp, &out_path).expect("cannot write model");
    println!(
        "saved {} ({:.1} kB, {} parameters)",
        out_path,
        mlp.size_bytes() as f64 / 1024.0,
        mlp.param_count()
    );
    let reloaded = persist::load(&out_path).expect("cannot reload model");
    use predictor::LatencyModel;
    let x = preview[0].features(&lib);
    assert_eq!(mlp.predict_one(&x), reloaded.predict_one(&x));
    println!("round-trip verified: reloaded model predicts identically");
}
