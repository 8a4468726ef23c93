//! Workspace determinism guard: a scaled-down fig14-style sweep run
//! through the serial path and through the rayon fan-out must render to
//! byte-identical CSV. This is the property the whole parallelisation
//! layer rests on — per-cell seeds derived with `fork_seed`, the Abacus
//! prediction-round latency pinned (never wall-clock calibrated), and
//! results regrouped in the deterministic flat-cell order.

use bench::SoloSpanModel;
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use rayon::prelude::*;
use serving::{run_colocation, ColocationConfig, ColocationResult, PolicyKind};
use std::sync::Arc;
use workload::fork_seed;

fn run_cells(parallel: bool) -> String {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let model: Arc<dyn LatencyModel> = Arc::new(SoloSpanModel::new(&lib, &gpu));
    let pairs: [&[ModelId]; 2] = [
        &[ModelId::ResNet50, ModelId::ResNet152],
        &[ModelId::Vgg19, ModelId::Bert],
    ];
    // Flat (row, policy) cells in CSV order — the same layout the figure
    // sweeps use before fanning out.
    let cells: Vec<(usize, PolicyKind)> = (0..pairs.len())
        .flat_map(|row| PolicyKind::ALL.into_iter().map(move |p| (row, p)))
        .collect();
    let run_one = |&(row, policy): &(usize, PolicyKind)| -> ColocationResult {
        // Pinned prediction-round latency: the default config calibrates
        // it from wall-clock timing, which would differ per run/thread.
        let abacus = abacus_core::AbacusConfig {
            predict_round_ms: Some(0.09),
            ..Default::default()
        };
        let cfg = ColocationConfig {
            qps_per_service: 25.0,
            horizon_ms: 800.0,
            seed: fork_seed(2021, row as u64),
            abacus,
            ..ColocationConfig::default()
        };
        let pred = (policy == PolicyKind::Abacus).then(|| model.clone());
        run_colocation(pairs[row], policy, pred, &lib, &gpu, &noise, &cfg)
    };
    let results: Vec<ColocationResult> = if parallel {
        cells.par_iter().map(run_one).collect()
    } else {
        cells.iter().map(run_one).collect()
    };
    // Render exactly as the CSV writers do: one row per pair, one column
    // per policy, full float precision.
    let mut csv = String::from("pair,FCFS,SJF,EDF,Abacus\n");
    let mut it = cells.iter().zip(&results);
    for (row, pair) in pairs.iter().enumerate() {
        csv.push_str(&format!("{:?}+{:?}", pair[0], pair[1]));
        for _ in PolicyKind::ALL {
            let (&(r, _), res) = it.next().expect("grid covered");
            assert_eq!(r, row);
            csv.push_str(&format!(
                ",{}|{}|{}",
                res.normalized_p99(),
                res.violation_ratio(),
                res.all.total()
            ));
        }
        csv.push('\n');
    }
    csv
}

#[test]
fn parallel_sweep_csv_is_byte_identical_to_serial() {
    let serial = run_cells(false);
    let parallel = run_cells(true);
    assert_eq!(
        serial.as_bytes(),
        parallel.as_bytes(),
        "serial:\n{serial}\nparallel:\n{parallel}"
    );
    // Sanity: the sweep actually produced distinct, populated rows.
    assert_eq!(serial.lines().count(), 3);
    assert!(serial.lines().skip(1).all(|l| l.matches('|').count() == 8));
}
