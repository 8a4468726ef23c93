//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! * **pipelining** — Abacus with and without pipelined scheduling (§6.3);
//! * **search ways** — end-to-end QoS as the multi-way width varies;
//! * **predictor** — Abacus driven by the MLP vs the linear-regression
//!   baseline vs a deliberately pessimistic sequential-sum estimate,
//!   showing why *precise* overlap-aware prediction is load-bearing.

use crate::common::{as_model, ensure_predictor, Options};
use abacus_core::AbacusConfig;
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{LatencyModel, LinearRegression};
use serving::{collect_dataset, run_colocation, ColocationConfig, PolicyKind, TrainerConfig};
use std::sync::Arc;

/// Pessimistic predictor: assumes no overlap at all (the Fig. 6a
/// sync-based world view) by scaling the MLP's prediction.
struct Pessimist {
    inner: Arc<dyn LatencyModel>,
    factor: f64,
}

impl LatencyModel for Pessimist {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.inner.predict_one(x) * self.factor
    }
    fn name(&self) -> &'static str {
        "sequential-pessimist"
    }
}

/// Run all ablations on the (Res152, Bert) pair and emit
/// `results/ablation.csv`.
///
/// Every leg runs the default Abacus config with one field or the
/// predictor changed, so a leg differs from the default only in what it
/// ablates. A search-width leg also charges its own width's round cost
/// ([`abacus_core::round_cost_ms`]).
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let pair = [ModelId::ResNet152, ModelId::Bert];
    let sets = vec![pair.to_vec()];
    let tag = "ablation_res152_bert";
    let mlp = ensure_predictor(tag, &sets, &lib, &gpu, opts);

    let mut csv = CsvWriter::create(
        opts.csv_path("ablation"),
        &[
            "variant",
            "p99_over_qos",
            "violation_ratio",
            "throughput_qps",
        ],
    )
    .expect("csv");
    let mut table = Table::new(vec!["variant", "p99/QoS", "violations", "tput q/s"]);

    let base_cfg = ColocationConfig {
        qps_per_service: opts.qos_load_total() / 2.0,
        horizon_ms: opts.scale.horizon_ms(),
        seed: opts.seed,
        ..ColocationConfig::default()
    };

    let mut leg = |name: &str, predictor: Arc<dyn LatencyModel>, abacus: AbacusConfig| {
        let cfg = ColocationConfig {
            abacus,
            ..base_cfg.clone()
        };
        let r = run_colocation(
            &pair,
            PolicyKind::Abacus,
            Some(predictor),
            &lib,
            &gpu,
            &noise,
            &cfg,
        );
        let row = [r.normalized_p99(), r.violation_ratio(), r.completed_qps()];
        csv.write_record(name, &row).expect("row");
        table.row_f64(name.to_string(), &row, 3);
    };

    // (a) pipelined vs non-pipelined scheduling.
    leg(
        "mlp+pipelined (default)",
        as_model(&mlp),
        AbacusConfig::default(),
    );
    leg(
        "mlp, no pipelining",
        as_model(&mlp),
        AbacusConfig {
            pipelined: false,
            ..AbacusConfig::default()
        },
    );

    // (b) search-ways sweep, each width charging its own round cost.
    for ways in [1usize, 2, 8, 16] {
        leg(
            &format!("mlp, {ways}-way search"),
            as_model(&mlp),
            AbacusConfig {
                ways,
                ..AbacusConfig::default()
            },
        );
    }

    // (c) predictor quality: linear regression and the no-overlap
    // pessimist in place of the MLP.
    let data = collect_dataset(
        &pair,
        &lib,
        &gpu,
        &noise,
        &TrainerConfig {
            samples_per_set: opts.scale.samples_per_set(),
            runs_per_group: opts.scale.runs_per_group(),
            seed: opts.seed ^ 0xA8,
            ..TrainerConfig::default()
        },
        99,
    );
    let lr: Arc<dyn LatencyModel> = Arc::new(LinearRegression::fit(&data, 1e-3));
    leg("linear-regression predictor", lr, AbacusConfig::default());
    let pessimist: Arc<dyn LatencyModel> = Arc::new(Pessimist {
        inner: as_model(&mlp),
        factor: 1.8,
    });
    leg(
        "no-overlap pessimist (Fig. 6a view)",
        pessimist,
        AbacusConfig::default(),
    );

    csv.flush().expect("flush");
    println!(
        "Ablations on (Res152, Bert) at {} QPS aggregate",
        opts.qos_load_total()
    );
    println!("{}", table.render());

    // (d) predictor precision under pressure: on the saturating VGG pair
    // at peak load, an imprecise (over-predicting) linear model packs
    // groups badly while the MLP's tight budgets hold QoS — the regime
    // where the paper's precision requirement is load-bearing.
    let vgg = [ModelId::Vgg16, ModelId::Vgg19];
    let vgg_sets = vec![vgg.to_vec()];
    let vgg_tag = "ablation_vgg16_vgg19";
    let vgg_mlp = ensure_predictor(vgg_tag, &vgg_sets, &lib, &gpu, opts);
    let vgg_data = collect_dataset(
        &vgg,
        &lib,
        &gpu,
        &noise,
        &TrainerConfig {
            samples_per_set: opts.scale.samples_per_set(),
            runs_per_group: opts.scale.runs_per_group(),
            seed: opts.seed ^ 0xA9,
            ..TrainerConfig::default()
        },
        98,
    );
    let vgg_lr: Arc<dyn LatencyModel> = Arc::new(LinearRegression::fit(&vgg_data, 1e-3));
    let peak_cfg = ColocationConfig {
        qps_per_service: opts.peak_load_total() * 0.45,
        horizon_ms: opts.scale.horizon_ms(),
        seed: opts.seed,
        ..ColocationConfig::default()
    };
    let mut table2 = Table::new(vec!["variant", "p99/QoS", "violations", "tput q/s"]);
    for (name, model) in [
        ("mlp predictor", as_model(&vgg_mlp)),
        ("linear-regression predictor", vgg_lr),
    ] {
        let r = run_colocation(
            &vgg,
            PolicyKind::Abacus,
            Some(model),
            &lib,
            &gpu,
            &noise,
            &peak_cfg,
        );
        let row = [r.normalized_p99(), r.violation_ratio(), r.completed_qps()];
        csv.write_record(&format!("vgg-peak: {name}"), &row)
            .expect("row");
        table2.row_f64(name.to_string(), &row, 3);
    }
    csv.flush().expect("flush");
    println!(
        "Predictor precision under pressure — (VGG16, VGG19) at {} QPS aggregate:",
        (2.0 * peak_cfg.qps_per_service).round()
    );
    println!("{}", table2.render());

    // (e) tail-aware prediction (extension): a q90 pinball-loss duration
    // model certifies budgets against the latency *tail* instead of the
    // mean — fewer violations for a little throughput.
    let q90: Arc<dyn LatencyModel> = Arc::new(predictor::QuantileMlp::train(
        &data,
        &predictor::MlpConfig {
            epochs: opts.scale.epochs(),
            ..predictor::MlpConfig::default()
        },
        &[0.9],
    ));
    let mut table3 = Table::new(vec!["variant", "p99/QoS", "violations", "tput q/s"]);
    for (name, model) in [
        ("mean MLP", as_model(&mlp)),
        ("q90 MLP (pinball loss)", q90),
    ] {
        let r = run_colocation(
            &pair,
            PolicyKind::Abacus,
            Some(model),
            &lib,
            &gpu,
            &noise,
            &base_cfg,
        );
        let row = [r.normalized_p99(), r.violation_ratio(), r.completed_qps()];
        csv.write_record(&format!("tail-aware: {name}"), &row)
            .expect("row");
        table3.row_f64(name.to_string(), &row, 3);
    }
    println!("Tail-aware prediction (extension) — (Res152, Bert):");
    println!("{}", table3.render());

    // (f) composition with compiler fusion (§2): Abacus on element-wise
    // fused graphs. The predictor is retrained on the fused library.
    let fused_lib = Arc::new(fused_library());
    let fused_sets = vec![pair.to_vec()];
    let (fused_mlp, _) = serving::train_unified(
        &fused_sets,
        &fused_lib,
        &gpu,
        &noise,
        &serving::TrainerConfig {
            samples_per_set: opts.scale.samples_per_set(),
            runs_per_group: opts.scale.runs_per_group(),
            seed: opts.seed ^ 0xF5,
            ..serving::TrainerConfig::default()
        },
    );
    let fused_model: Arc<dyn LatencyModel> = Arc::new(fused_mlp);
    let mut table4 = Table::new(vec!["variant", "p99/QoS", "violations", "tput q/s"]);
    for (name, library, model) in [
        ("unfused graphs", lib.clone(), as_model(&mlp)),
        (
            "fused graphs (Rammer/TensorRT-style)",
            fused_lib.clone(),
            fused_model,
        ),
    ] {
        let r = run_colocation(
            &pair,
            PolicyKind::Abacus,
            Some(model),
            &library,
            &gpu,
            &noise,
            &base_cfg,
        );
        let row = [r.normalized_p99(), r.violation_ratio(), r.completed_qps()];
        csv.write_record(&format!("fusion: {name}"), &row)
            .expect("row");
        table4.row_f64(name.to_string(), &row, 3);
    }
    println!("Composition with operator fusion (§2 extension) — (Res152, Bert):");
    println!("{}", table4.render());
    csv.flush().expect("flush");
    println!("wrote {}", opts.csv_path("ablation").display());
}

/// A model library whose graphs went through the element-wise fusion pass.
fn fused_library() -> ModelLibrary {
    // Rebuild every (model, input) graph and fuse it. ModelLibrary has no
    // mutation API, so construct through the same instantiation path.
    ModelLibrary::new_with(|graph| dnn_models::fuse_elementwise(&graph))
}
