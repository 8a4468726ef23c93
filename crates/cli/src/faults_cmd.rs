//! `faults` — QoS degradation under deterministic fault injection.
//!
//! Sweeps [`FaultPlan::at_intensity`] over a co-located pair for three
//! serving variants: FCFS, plain Abacus, and Abacus with its defensive
//! runtime enabled (adaptive safety margin, FCFS degradation on rolling
//! predictor error, per-query timeout). Every cell runs with the
//! serving-loop invariant checker wired in; a cell that violates any
//! invariant fails the command. The prediction-round latency is pinned to
//! a constant (never wall-clock calibrated), so the sweep — serial or
//! parallel — reproduces byte for byte; `scripts/bench_check.sh` gates on
//! exactly that.

use crate::common::{as_model, ensure_predictor, map_cells, pair_label, Options};
use abacus_core::AbacusConfig;
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use faults::FaultPlan;
use gpu_sim::{GpuSpec, NoiseModel};
use serving::{run_colocation_observed, ColocationConfig, NodeOptions, PolicyKind};
use std::sync::Arc;
use workload::fork_seed;

/// Pinned Eq. 3 prediction-round charge, ms. A constant (not the usual
/// cached wall-clock calibration) so the fault sweep is bit-reproducible
/// across machines and across the serial/parallel paths.
const PREDICT_ROUND_MS: f64 = 0.08;

/// EWMA relative-error threshold past which defended Abacus falls back to
/// FCFS dispatch.
const FALLBACK_ERROR: f64 = 0.5;

/// Defended per-query timeout, × the query's QoS budget.
const TIMEOUT_FACTOR: f64 = 3.0;

const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    policy: PolicyKind,
    defended: bool,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        name: "FCFS",
        policy: PolicyKind::Fcfs,
        defended: false,
    },
    Variant {
        name: "Abacus",
        policy: PolicyKind::Abacus,
        defended: false,
    },
    Variant {
        name: "Abacus+def",
        policy: PolicyKind::Abacus,
        defended: true,
    },
];

struct Cell {
    violation_ratio: f64,
    timed_out: usize,
    degraded: bool,
    invariant_violations: usize,
}

pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let models = [ModelId::ResNet50, ModelId::ResNet152];
    let mlp = ensure_predictor("faults_a100", &[models.to_vec()], &lib, &gpu, opts);

    let abacus_plain = AbacusConfig {
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..AbacusConfig::default()
    };
    let abacus_defended = AbacusConfig {
        adaptive_margin: true,
        fcfs_fallback_error: Some(FALLBACK_ERROR),
        ..abacus_plain.clone()
    };
    // One workload seed and one plan seed for the whole grid: cells differ
    // only in fault intensity and serving variant, so the table reads as a
    // controlled dose-response curve.
    let cfg_seed = fork_seed(opts.seed, 0xFA00);
    let plan_seed = fork_seed(opts.seed, 0xFA17);

    let cells: Vec<(usize, usize)> = (0..INTENSITIES.len())
        .flat_map(|i| (0..VARIANTS.len()).map(move |v| (i, v)))
        .collect();
    let results: Vec<Cell> = map_cells(opts.parallel, &cells, |&(i, v)| {
        let variant = VARIANTS[v];
        let cfg = ColocationConfig {
            qps_per_service: opts.qos_load_total() / models.len() as f64,
            horizon_ms: opts.scale.horizon_ms(),
            seed: cfg_seed,
            small_inputs: false,
            abacus: if variant.defended {
                abacus_defended.clone()
            } else {
                abacus_plain.clone()
            },
        };
        let plan = FaultPlan::at_intensity(plan_seed, INTENSITIES[i]);
        let node_opts = NodeOptions {
            timeout_factor: variant.defended.then_some(TIMEOUT_FACTOR),
        };
        let pred = (variant.policy == PolicyKind::Abacus).then(|| as_model(&mlp));
        let out = run_colocation_observed(
            &models,
            variant.policy,
            pred,
            None,
            &lib,
            &gpu,
            &noise,
            &cfg,
            &plan,
            node_opts,
            None,
        );
        for violation in &out.invariant_violations {
            eprintln!(
                "[faults] INVARIANT VIOLATION (intensity {}, {}): {violation}",
                INTENSITIES[i], variant.name
            );
        }
        Cell {
            violation_ratio: out.result.violation_ratio(),
            timed_out: out.result.all.timed_out(),
            degraded: out.degraded,
            invariant_violations: out.invariant_violations.len(),
        }
    });

    let headers = ["intensity", "FCFS", "Abacus", "Abacus+def"];
    let mut csv = CsvWriter::create(opts.csv_path("faults"), &headers).expect("csv");
    let mut table = Table::new(headers.to_vec());
    let mut total_invariant_violations = 0usize;
    for (i, &intensity) in INTENSITIES.iter().enumerate() {
        let row: Vec<&Cell> = (0..VARIANTS.len())
            .map(|v| &results[i * VARIANTS.len() + v])
            .collect();
        let ratios: Vec<f64> = row.iter().map(|c| c.violation_ratio).collect();
        total_invariant_violations += row.iter().map(|c| c.invariant_violations).sum::<usize>();
        csv.write_record(&format!("{intensity}"), &ratios)
            .expect("row");
        table.row_f64(format!("{intensity}"), &ratios, 3);
    }
    csv.flush().expect("flush");

    println!(
        "Fault sweep — QoS violation ratio vs fault intensity ({} pair, {} QPS aggregate)",
        pair_label(&models),
        opts.qos_load_total()
    );
    println!("{}", table.render());
    let degraded_at: Vec<String> = INTENSITIES
        .iter()
        .enumerate()
        .filter(|&(i, _)| results[i * VARIANTS.len() + 2].degraded)
        .map(|(_, x)| format!("{x}"))
        .collect();
    if degraded_at.is_empty() {
        println!("Abacus+def never fell back to FCFS dispatch");
    } else {
        println!(
            "Abacus+def fell back to FCFS dispatch at intensities: {}",
            degraded_at.join(", ")
        );
    }
    let timeouts: usize = results.iter().map(|c| c.timed_out).sum();
    println!("defensive per-query timeouts across the sweep: {timeouts}");
    if total_invariant_violations > 0 {
        eprintln!(
            "[faults] {total_invariant_violations} serving-invariant violations — see log above"
        );
        std::process::exit(1);
    }
    println!("serving invariants held in every cell");
}
