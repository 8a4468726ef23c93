//! Figs. 18 + 19 — triplet- and quadruplet-wise deployments (§7.4).

use crate::common::{
    as_model, ensure_predictor, map_cells, pair_label, pinned_abacus_config, Options,
};
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::sampling::paper_multiway_sets;
use serving::{run_colocation, ColocationConfig, PolicyKind};
use std::sync::Arc;
use workload::fork_seed;

/// Run both figures: p99 at the QoS load (Fig. 18) and peak throughput at
/// the saturating load (Fig. 19).
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let sets: Vec<Vec<ModelId>> = paper_multiway_sets();
    let mlp = ensure_predictor("unified_multiway_a100", &sets, &lib, &gpu, opts);
    let abacus = pinned_abacus_config(&mlp, "unified_multiway_a100", opts);

    let mut csv18 = CsvWriter::create(
        opts.csv_path("fig18"),
        &["set", "FCFS", "SJF", "EDF", "Abacus"],
    )
    .expect("csv");
    let mut csv19 = CsvWriter::create(
        opts.csv_path("fig19"),
        &["set", "FCFS", "SJF", "EDF", "Abacus"],
    )
    .expect("csv");
    let mut t18 = Table::new(vec!["set", "FCFS", "SJF", "EDF", "Abacus"]);
    let mut t19 = t18.clone();
    // Aggregates split by deployment size for the paper's per-size claims:
    // per-policy p99s, violation rates, throughputs, and the set count.
    type SizeAgg = ([f64; 4], [f64; 4], [f64; 4], usize);
    let mut agg: std::collections::HashMap<usize, SizeAgg> = std::collections::HashMap::new();

    // One cell per (set, load, policy): all independent, with the workload
    // seed derived per set so every load/policy of a set faces the same
    // arrival process — safe to fan out without changing the results.
    let loads = [opts.qos_load_total(), opts.peak_load_total()];
    let cells: Vec<(usize, usize, PolicyKind)> = (0..sets.len())
        .flat_map(|row| {
            (0..loads.len())
                .flat_map(move |li| PolicyKind::ALL.into_iter().map(move |p| (row, li, p)))
        })
        .collect();
    let results = map_cells(opts.parallel, &cells, |&(row, li, policy)| {
        let set = &sets[row];
        let cfg = ColocationConfig {
            qps_per_service: loads[li] / set.len() as f64,
            horizon_ms: opts.scale.horizon_ms(),
            seed: fork_seed(opts.seed, row as u64),
            abacus: abacus.clone(),
            ..ColocationConfig::default()
        };
        let pred = (policy == PolicyKind::Abacus).then(|| as_model(&mlp));
        run_colocation(set, policy, pred, &lib, &gpu, &noise, &cfg)
    });
    let mut by_cell = cells.iter().zip(results);

    for set in &sets {
        let label = pair_label(set);
        let mut p99 = Vec::new();
        let mut viol = Vec::new();
        let mut tput = Vec::new();
        for (_total_qps, out_p99, out_tput) in [(loads[0], true, false), (loads[1], false, true)] {
            for _p in PolicyKind::ALL {
                let (_, r) = by_cell.next().expect("cell results cover the grid");
                if out_p99 {
                    p99.push(r.normalized_p99());
                    viol.push(r.violation_ratio());
                }
                if out_tput {
                    tput.push(r.completed_qps());
                }
            }
        }
        csv18.write_record(&label, &p99).expect("row");
        csv19.write_record(&label, &tput).expect("row");
        t18.row_f64(label.clone(), &p99, 2);
        t19.row_f64(label.clone(), &tput, 1);
        let e = agg
            .entry(set.len())
            .or_insert(([0.0; 4], [0.0; 4], [0.0; 4], 0));
        for i in 0..4 {
            e.0[i] += p99[i];
            e.1[i] += viol[i];
            e.2[i] += tput[i];
        }
        e.3 += 1;
    }
    csv18.flush().expect("flush");
    csv19.flush().expect("flush");
    println!("Fig. 18 — normalised p99, triplet/quadruplet deployments");
    println!("{}", t18.render());
    println!("Fig. 19 — peak throughput (completed queries/s)");
    println!("{}", t19.render());
    for (k, kind, paper) in [
        (
            3usize,
            "triplet",
            "p99 -21.3/-35.3/-20.8%, tput +51.0/+72.3/+57.0%",
        ),
        (
            4,
            "quadruplet",
            "p99 -16.1/-34.3/-21.1%, tput +38.4/+53.9/+63.4%",
        ),
    ] {
        if let Some((p99s, _viols, tputs, _n)) = agg.get(&k) {
            println!(
                "{kind}: Abacus p99 {:+.1}/{:+.1}/{:+.1}% and throughput {:+.1}/{:+.1}/{:+.1}% vs FCFS/SJF/EDF (paper: {paper})",
                100.0 * (p99s[3] / p99s[0] - 1.0),
                100.0 * (p99s[3] / p99s[1] - 1.0),
                100.0 * (p99s[3] / p99s[2] - 1.0),
                100.0 * (tputs[3] / tputs[0] - 1.0),
                100.0 * (tputs[3] / tputs[1] - 1.0),
                100.0 * (tputs[3] / tputs[2] - 1.0),
            );
        }
    }
    println!(
        "wrote {} and {}",
        opts.csv_path("fig18").display(),
        opts.csv_path("fig19").display()
    );
}
