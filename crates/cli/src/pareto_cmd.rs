//! `pareto` — violation rate vs throughput under uncertainty-aware
//! certification (extension of the Fig. 14/15 study).
//!
//! Two certification regimes compete on the same co-located pair and the
//! same offered load:
//!
//! - **fixed margin**: the paper's Eq. 2 check against the *mean*
//!   prediction padded by a hand-tuned safety margin, swept over several
//!   `margin_ms` settings;
//! - **conformal**: the Eq. 2 check against the calibrated split-conformal
//!   upper bound, swept over miscoverage levels α ∈ {0.10, 0.05, 0.01}.
//!
//! Each arm runs fault-free and under the PR 4 half-intensity fault plan,
//! so the sweep also shows how the two regimes degrade when the predictor
//! is actively sabotaged. The prediction-round latency is pinned to a
//! constant so the sweep — serial or parallel — reproduces byte for byte;
//! `scripts/bench_check.sh` gates on exactly that.
//!
//! A second table decomposes the certified interval width by group width
//! (solo vs 2-way), quantifying the PR 5 finding that solo rounds are the
//! predictor's out-of-distribution tail and therefore earn the widest
//! certified intervals.

use crate::common::{as_model, ensure_certified, map_cells, pair_label, Options};
use abacus_core::AbacusConfig;
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use faults::FaultPlan;
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{sample_groups, width_of_row, LatencyModel, Mlp};
use serving::{run_colocation_observed, ColocationConfig, NodeOptions, PolicyKind};
use std::sync::Arc;
use workload::fork_seed;

/// Pinned Eq. 3 prediction-round charge, ms (see `faults_cmd`).
const PREDICT_ROUND_MS: f64 = 0.08;

/// Fixed-margin baseline sweep: `margin_ms` settings around the default
/// 0.3 ms, from reckless to paranoid.
const MARGINS_MS: [f64; 5] = [0.0, 0.15, 0.3, 0.6, 1.2];

/// Conformal sweep: miscoverage levels (certified bound is the
/// `1 - alpha` quantile plus the per-stratum calibration correction).
const ALPHAS: [f64; 3] = [0.10, 0.05, 0.01];

/// Fault doses: clean serving and the half-intensity PR 4 plan.
const INTENSITIES: [f64; 2] = [0.0, 0.5];

#[derive(Clone)]
enum Arm {
    Margin(f64),
    Conformal(f64),
}

impl Arm {
    fn label(&self) -> String {
        match self {
            Arm::Margin(m) => format!("margin:{m}ms"),
            Arm::Conformal(a) => format!("conformal:a={a}"),
        }
    }
}

struct Cell {
    violation_ratio: f64,
    goodput_rps: f64,
    completed: usize,
    dropped: usize,
    invariant_violations: usize,
}

pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let models = [ModelId::ResNet50, ModelId::ResNet152];
    // Train over the pair *and* each singleton: the serving loop emits
    // solo rounds whenever the queue holds one query, so the calibration
    // strata need width-1 scores too (PR 5's width-split finding).
    let sets = vec![models.to_vec(), vec![models[0]], vec![models[1]]];
    let (mean, certifier) = ensure_certified("pareto_a100", &sets, &lib, &gpu, opts, ALPHAS[0]);

    let arms: Vec<Arm> = MARGINS_MS
        .iter()
        .map(|&m| Arm::Margin(m))
        .chain(ALPHAS.iter().map(|&a| Arm::Conformal(a)))
        .collect();
    let cfg_seed = fork_seed(opts.seed, 0x9A2E);
    let plan_seed = fork_seed(opts.seed, 0xFA17);

    let cells: Vec<(usize, usize)> = (0..INTENSITIES.len())
        .flat_map(|i| (0..arms.len()).map(move |a| (i, a)))
        .collect();
    let results: Vec<Cell> = map_cells(opts.parallel, &cells, |&(i, a)| {
        let arm = &arms[a];
        let mut abacus = AbacusConfig {
            predict_round_ms: Some(PREDICT_ROUND_MS),
            ..AbacusConfig::default()
        };
        let cert: Option<Arc<dyn LatencyModel>> = match arm {
            Arm::Margin(m) => {
                abacus.margin_ms = *m;
                None
            }
            Arm::Conformal(alpha) => Some(Arc::new(certifier.with_alpha(*alpha))),
        };
        let cfg = ColocationConfig {
            qps_per_service: opts.qos_load_total() / models.len() as f64,
            horizon_ms: opts.scale.horizon_ms(),
            seed: cfg_seed,
            small_inputs: false,
            abacus,
        };
        let plan = FaultPlan::at_intensity(plan_seed, INTENSITIES[i]);
        let out = run_colocation_observed(
            &models,
            PolicyKind::Abacus,
            Some(as_model(&mean)),
            cert,
            &lib,
            &gpu,
            &noise,
            &cfg,
            &plan,
            NodeOptions::default(),
            None,
        );
        for violation in &out.invariant_violations {
            eprintln!(
                "[pareto] INVARIANT VIOLATION (intensity {}, {}): {violation}",
                INTENSITIES[i],
                arm.label()
            );
        }
        Cell {
            violation_ratio: out.result.violation_ratio(),
            goodput_rps: out.result.all.goodput_rps(cfg.horizon_ms),
            completed: out.result.all.completed(),
            dropped: out.result.all.dropped(),
            invariant_violations: out.invariant_violations.len(),
        }
    });

    let headers = [
        "arm",
        "intensity",
        "violation_ratio",
        "goodput_rps",
        "completed",
        "dropped",
    ];
    let mut csv = CsvWriter::create(opts.csv_path("pareto"), &headers).expect("csv");
    let mut table = Table::new(vec![
        "arm",
        "intensity",
        "viol_ratio",
        "goodput_rps",
        "completed",
        "dropped",
    ]);
    let mut total_invariant_violations = 0usize;
    for (k, &(i, a)) in cells.iter().enumerate() {
        let c = &results[k];
        total_invariant_violations += c.invariant_violations;
        let vals = [
            INTENSITIES[i],
            c.violation_ratio,
            c.goodput_rps,
            c.completed as f64,
            c.dropped as f64,
        ];
        csv.write_record(&arms[a].label(), &vals).expect("row");
        table.row_f64(arms[a].label(), &vals, 3);
    }
    csv.flush().expect("flush");

    println!(
        "Pareto sweep — QoS violation ratio vs goodput, fixed margin vs conformal ({} pair, {} QPS aggregate)",
        pair_label(&models),
        opts.qos_load_total()
    );
    println!("{}", table.render());

    // Interval-width anatomy: certified width (upper bound minus mean
    // prediction) per group width, over a deterministic group sample —
    // solo rounds from each singleton set, 2-way rounds from the pair.
    // Two stacks: the deployed one (trained on pair + singletons) and a
    // pairs-only stack, reproducing the PR 5 width-split finding — solo
    // rounds are the pairs-trained predictor's out-of-distribution tail,
    // so the pairs-only certifier prices them at much wider intervals.
    let (pair_mean, pair_cert) = ensure_certified(
        "pareto_pair_a100",
        &[models.to_vec()],
        &lib,
        &gpu,
        opts,
        ALPHAS[0],
    );
    let mut specs = sample_groups(&models, 400, &lib, fork_seed(opts.seed, 0xD1));
    for (i, &m) in models.iter().enumerate() {
        specs.extend(sample_groups(
            &[m],
            200,
            &lib,
            fork_seed(opts.seed, 0xD2 + i as u64),
        ));
    }
    let stacks: [(&str, &Mlp, &predictor::ConformalModel); 2] = [
        ("pair+solo", &mean, &certifier),
        ("pair-only", &pair_mean, &pair_cert),
    ];
    let wheaders = [
        "stack/width",
        "mean_interval_ms",
        "relative_width",
        "samples",
    ];
    let mut wcsv = CsvWriter::create(opts.csv_path("pareto_width"), &wheaders).expect("csv");
    let mut wtable = Table::new(wheaders.to_vec());
    println!(
        "Certified interval width by group width (alpha = {}):",
        ALPHAS[0]
    );
    for (name, m, cert) in stacks {
        let mut sum = std::collections::BTreeMap::<usize, (f64, f64, usize)>::new();
        for s in &specs {
            let x = s.features(&lib);
            let w = width_of_row(&x);
            let mean_ms = m.predict_one(&x);
            let width_ms = cert.predict_one(&x) - mean_ms;
            let e = sum.entry(w).or_insert((0.0, 0.0, 0));
            e.0 += width_ms;
            e.1 += width_ms / mean_ms;
            e.2 += 1;
        }
        for (w, (total, rel, n)) in &sum {
            let vals = [total / *n as f64, rel / *n as f64, *n as f64];
            let label = format!("{name}/w{w}");
            wcsv.write_record(&label, &vals).expect("row");
            wtable.row_f64(label, &vals, 3);
        }
    }
    wcsv.flush().expect("flush");
    println!("{}", wtable.render());

    if total_invariant_violations > 0 {
        eprintln!(
            "[pareto] {total_invariant_violations} serving-invariant violations — see log above"
        );
        std::process::exit(1);
    }
    println!("serving invariants held in every cell");
}
