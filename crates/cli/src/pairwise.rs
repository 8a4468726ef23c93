//! Figs. 14, 15, 16, 17 — pair-wise co-location studies.
//!
//! One experiment grid: 21 pairs × {FCFS, SJF, EDF, Abacus}, identical
//! workloads per row. Fig. 14 reports p99 normalised to the QoS target,
//! Fig. 15 the QoS violation ratio (drops counted), Fig. 17 the peak
//! throughput at saturating load, and Fig. 16 the Abacus p99 with minimum
//! inputs under tightened QoS.

use crate::common::{as_model, ensure_predictor, map_cells, pair_label, Options};
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::sampling::all_pairs;
use serving::{run_colocation, ColocationConfig, PolicyKind};
use std::sync::Arc;
use workload::fork_seed;

fn pair_sets() -> Vec<Vec<ModelId>> {
    all_pairs().iter().map(|p| p.to_vec()).collect()
}

/// Shared runner: returns per-pair per-policy results.
///
/// Every (pair, policy) cell is independent: the workload seed is derived
/// per *row* (so all policies of a pair face identical arrivals), so the
/// cells can be fanned out over threads and still reproduce the serial
/// results byte for byte.
fn run_grid(
    opts: &Options,
    total_qps: f64,
    small_inputs: bool,
    policies: &[PolicyKind],
) -> Vec<(String, Vec<(PolicyKind, serving::ColocationResult)>)> {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let mlp = ensure_predictor("unified_a100", &pair_sets(), &lib, &gpu, opts);
    let pairs = all_pairs();
    let cells: Vec<(usize, PolicyKind)> = (0..pairs.len())
        .flat_map(|row| policies.iter().map(move |&p| (row, p)))
        .collect();
    let results = map_cells(opts.parallel, &cells, |&(row, policy)| {
        let pair = &pairs[row];
        let cfg = ColocationConfig {
            qps_per_service: total_qps / pair.len() as f64,
            horizon_ms: opts.scale.horizon_ms(),
            seed: fork_seed(opts.seed, row as u64),
            small_inputs,
            ..ColocationConfig::default()
        };
        let pred = (policy == PolicyKind::Abacus).then(|| as_model(&mlp));
        run_colocation(pair, policy, pred, &lib, &gpu, &noise, &cfg)
    });
    let mut out: Vec<(String, Vec<(PolicyKind, serving::ColocationResult)>)> = pairs
        .iter()
        .map(|p| (pair_label(p), Vec::with_capacity(policies.len())))
        .collect();
    for ((row, policy), result) in cells.into_iter().zip(results) {
        out[row].1.push((policy, result));
    }
    out
}

/// Figs. 14 + 15: QoS study at the unsaturating load.
pub fn run_qos(opts: &Options) {
    let grid = run_grid(opts, opts.qos_load_total(), false, &PolicyKind::ALL);
    let mut csv14 = CsvWriter::create(
        opts.csv_path("fig14"),
        &["pair", "FCFS", "SJF", "EDF", "Abacus"],
    )
    .expect("csv");
    let mut csv15 = CsvWriter::create(
        opts.csv_path("fig15"),
        &["pair", "FCFS", "SJF", "EDF", "Abacus"],
    )
    .expect("csv");
    let mut t14 = Table::new(vec!["pair", "FCFS", "SJF", "EDF", "Abacus"]);
    let mut t15 = t14.clone();
    let mut p99_sums = [0.0f64; 4];
    let mut viol_sums = [0.0f64; 4];
    for (label, row) in &grid {
        let p99: Vec<f64> = row.iter().map(|(_, r)| r.normalized_p99()).collect();
        let viol: Vec<f64> = row.iter().map(|(_, r)| r.violation_ratio()).collect();
        for i in 0..4 {
            p99_sums[i] += p99[i];
            viol_sums[i] += viol[i];
        }
        csv14.write_record(label, &p99).expect("row");
        csv15.write_record(label, &viol).expect("row");
        t14.row_f64(label.clone(), &p99, 2);
        t15.row_f64(label.clone(), &viol, 3);
    }
    csv14.flush().expect("flush");
    csv15.flush().expect("flush");
    let n = grid.len() as f64;
    println!(
        "Fig. 14 — normalised 99%-ile latency (load {} QPS aggregate)",
        opts.qos_load_total()
    );
    println!("{}", t14.render());
    println!(
        "Abacus p99 reduction vs FCFS/SJF/EDF: {:.1}% / {:.1}% / {:.1}%  (paper: 23.1 / 34.1 / 23.8)",
        100.0 * (1.0 - p99_sums[3] / p99_sums[0]),
        100.0 * (1.0 - p99_sums[3] / p99_sums[1]),
        100.0 * (1.0 - p99_sums[3] / p99_sums[2]),
    );
    println!("\nFig. 15 — QoS violation ratio (drops counted)");
    println!("{}", t15.render());
    println!(
        "mean violations FCFS/SJF/EDF/Abacus: {:.1}% / {:.1}% / {:.1}% / {:.1}%",
        100.0 * viol_sums[0] / n,
        100.0 * viol_sums[1] / n,
        100.0 * viol_sums[2] / n,
        100.0 * viol_sums[3] / n,
    );
    println!(
        "Abacus violation reduction vs FCFS/SJF/EDF: {:.1}% / {:.1}% / {:.1}%  (paper: 38.8 / 71.0 / 44.0)",
        100.0 * (1.0 - viol_sums[3] / viol_sums[0].max(1e-12)),
        100.0 * (1.0 - viol_sums[3] / viol_sums[1].max(1e-12)),
        100.0 * (1.0 - viol_sums[3] / viol_sums[2].max(1e-12)),
    );
    println!(
        "wrote {} and {}",
        opts.csv_path("fig14").display(),
        opts.csv_path("fig15").display()
    );
}

/// Fig. 16: small DNNs (minimum inputs, tightened QoS), Abacus only.
pub fn run_small(opts: &Options) {
    let grid = run_grid(opts, opts.qos_load_total(), true, &[PolicyKind::Abacus]);
    let mut csv = CsvWriter::create(opts.csv_path("fig16"), &["pair", "Abacus"]).expect("csv");
    let mut t = Table::new(vec!["pair", "Abacus p99 / QoS"]);
    let mut worst: f64 = 0.0;
    for (label, row) in &grid {
        let v = row[0].1.normalized_p99();
        worst = worst.max(v);
        csv.write_record(label, &[v]).expect("row");
        t.row_f64(label.clone(), &[v], 2);
    }
    csv.flush().expect("flush");
    println!("Fig. 16 — 99%-ile latency with minimum inputs, QoS = 2x min-input solo");
    println!("{}", t.render());
    println!(
        "worst pair: {worst:.2}x QoS (paper: all pairs at or below ~1.0, closer to target than Fig. 14)"
    );
    println!("wrote {}", opts.csv_path("fig16").display());
}

/// Fig. 17: peak throughput at saturating load.
pub fn run_peak(opts: &Options) {
    let grid = run_grid(opts, opts.peak_load_total(), false, &PolicyKind::ALL);
    let mut csv = CsvWriter::create(
        opts.csv_path("fig17"),
        &["pair", "FCFS", "SJF", "EDF", "Abacus"],
    )
    .expect("csv");
    let mut t = Table::new(vec!["pair", "FCFS", "SJF", "EDF", "Abacus"]);
    let mut sums = [0.0f64; 4];
    for (label, row) in &grid {
        let tput: Vec<f64> = row.iter().map(|(_, r)| r.completed_qps()).collect();
        for i in 0..4 {
            sums[i] += tput[i];
        }
        csv.write_record(label, &tput).expect("row");
        t.row_f64(label.clone(), &tput, 1);
    }
    csv.flush().expect("flush");
    println!(
        "Fig. 17 — peak throughput, completed queries/s (offered {} QPS aggregate)",
        opts.peak_load_total()
    );
    println!("{}", t.render());
    println!(
        "Abacus throughput gain vs FCFS/SJF/EDF: {:.1}% / {:.1}% / {:.1}%  (paper: 25.7 / 38.1 / 25.7)",
        100.0 * (sums[3] / sums[0] - 1.0),
        100.0 * (sums[3] / sums[1] - 1.0),
        100.0 * (sums[3] / sums[2] - 1.0),
    );
    println!("wrote {}", opts.csv_path("fig17").display());
}
