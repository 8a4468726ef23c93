//! Figs. 20 + 21 / Table 3 — MIG isolation vs Abacus co-location (§7.5).
//!
//! Four services (Res101, Res152, VGG19, Bert) are deployed three ways on
//! one A100: fully isolated (4 × `MIG 1g.5gb`, one model per instance),
//! pair-wise isolated (2 × `MIG 2g.10gb`, three possible pairings), and
//! not isolated (1 × `MIG 4g.20gb`, quadruplet deployment). QoS targets
//! remain calibrated to the full A100, which is the paper's point: full
//! isolation starves the big models of compute and blows through QoS, while
//! Abacus's flexible co-location on bigger slices does not.

use crate::common::{as_model, ensure_predictor, map_cells, pinned_abacus_config, Options};
use abacus_metrics::{CsvWriter, ServiceStats, Table};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, MigProfile, NoiseModel};
use serving::{run_with_services, ColocationConfig, PolicyKind, ServiceSpec};
use std::sync::Arc;

/// One deployment case: groups of models, each group on its own instance.
struct MigCase {
    label: String,
    profile: MigProfile,
    groups: Vec<Vec<ModelId>>,
}

fn cases() -> Vec<MigCase> {
    use ModelId::*;
    vec![
        MigCase {
            label: "Res101+Res152+VGG19+Bert".into(),
            profile: MigProfile::OneG5Gb,
            groups: vec![vec![ResNet101], vec![ResNet152], vec![Vgg19], vec![Bert]],
        },
        MigCase {
            label: "(Res101,Bert)+(Res152,VGG19)".into(),
            profile: MigProfile::TwoG10Gb,
            groups: vec![vec![ResNet101, Bert], vec![ResNet152, Vgg19]],
        },
        MigCase {
            label: "(Res101,Res152)+(VGG19,Bert)".into(),
            profile: MigProfile::TwoG10Gb,
            groups: vec![vec![ResNet101, ResNet152], vec![Vgg19, Bert]],
        },
        MigCase {
            label: "(Res101,VGG19)+(Res152,Bert)".into(),
            profile: MigProfile::TwoG10Gb,
            groups: vec![vec![ResNet101, Vgg19], vec![ResNet152, Bert]],
        },
        MigCase {
            label: "(Res101,Res152,VGG19,Bert)".into(),
            profile: MigProfile::FourG20Gb,
            groups: vec![vec![ResNet101, ResNet152, Vgg19, Bert]],
        },
    ]
}

/// Run Figs. 20 + 21 and emit their CSVs.
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let a100 = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    // One predictor per MIG slice geometry (the duration model is
    // hardware-specific). Singleton sets on the 1g slice let Abacus's drop
    // logic run even without co-location.
    let all_cases = cases();
    let mut csv20 = CsvWriter::create(
        opts.csv_path("fig20"),
        &["case", "FCFS", "SJF", "EDF", "Abacus"],
    )
    .expect("csv");
    let mut csv21 = CsvWriter::create(
        opts.csv_path("fig21"),
        &["case", "FCFS", "SJF", "EDF", "Abacus"],
    )
    .expect("csv");
    let mut t20 = Table::new(vec!["case", "FCFS", "SJF", "EDF", "Abacus"]);
    let mut t21 = t20.clone();
    let mut tviol = t20.clone();

    // QoS targets always from the full A100.
    let qos_of = |m: ModelId| lib.qos_target_ms(m, &a100);
    let mean_qos: f64 = all_cases[0]
        .groups
        .iter()
        .flatten()
        .map(|&m| qos_of(m))
        .sum::<f64>()
        / 4.0;

    // Train every slice geometry's predictor up front (the disk cache is
    // not safe to populate from concurrent cells), then fan the
    // independent (case, policy, load, group) runs out over threads.
    let prepared: Vec<_> = all_cases
        .iter()
        .map(|case| {
            let slice = a100.mig_slice(case.profile);
            let tag = format!("mig_{}", case.profile.name().replace([' ', '.'], "_"));
            let mlp = ensure_predictor(&tag, &case.groups.clone(), &lib, &slice, opts);
            let abacus = pinned_abacus_config(&mlp, &tag, opts);
            (slice, mlp, abacus)
        })
        .collect();
    let loads = [0.6 * opts.qos_load_total(), 0.6 * opts.peak_load_total()];
    let cells: Vec<(usize, usize, usize, usize)> = all_cases
        .iter()
        .enumerate()
        .flat_map(|(ci, case)| {
            (0..PolicyKind::ALL.len()).flat_map(move |pi| {
                (0..loads.len())
                    .flat_map(move |li| (0..case.groups.len()).map(move |gi| (ci, pi, li, gi)))
            })
        })
        .collect();
    let results = map_cells(opts.parallel, &cells, |&(ci, pi, li, gi)| {
        let case = &all_cases[ci];
        let (slice, mlp, abacus) = &prepared[ci];
        let policy = PolicyKind::ALL[pi];
        let services: Vec<ServiceSpec> = case.groups[gi]
            .iter()
            .map(|&m| ServiceSpec {
                model: m,
                qos_ms: qos_of(m),
            })
            .collect();
        let cfg = ColocationConfig {
            qps_per_service: loads[li] / 4.0,
            horizon_ms: opts.scale.horizon_ms(),
            seed: opts.seed ^ (gi as u64) << 8,
            abacus: abacus.clone(),
            ..ColocationConfig::default()
        };
        let pred = (policy == PolicyKind::Abacus).then(|| as_model(mlp));
        run_with_services(&services, policy, pred, &lib, slice, &noise, &cfg)
    });
    let mut by_cell = cells.iter().zip(results);

    for case in &all_cases {
        let mut row20 = Vec::new();
        let mut row21 = Vec::new();
        for _policy in PolicyKind::ALL {
            // Fig. 20 at the QoS load; Fig. 21 at the saturating load.
            // Our simulated MIG slices retain less relative capacity than
            // the paper's testbed (see EXPERIMENTS.md), so the MIG study
            // runs at 60% of the single-GPU loads to stay in the same
            // utilisation regime the paper reports.
            for out in [&mut row20, &mut row21] {
                let mut pooled = ServiceStats::new();
                let mut completed = 0.0;
                for _gi in 0..case.groups.len() {
                    let (_, r) = by_cell.next().expect("cell results cover the grid");
                    completed += r.completed_qps();
                    for s in &r.per_service {
                        pooled.extend_from(s);
                    }
                }
                out.push((pooled, completed));
            }
        }
        let p99s: Vec<f64> = row20
            .iter()
            .map(|(s, _)| s.p99_latency() / mean_qos)
            .collect();
        let viols: Vec<f64> = row20.iter().map(|(s, _)| s.violation_ratio()).collect();
        let tputs: Vec<f64> = row21.iter().map(|(_, c)| *c).collect();
        tviol.row_f64(case.label.clone(), &viols, 3);
        csv20.write_record(&case.label, &p99s).expect("row");
        csv21.write_record(&case.label, &tputs).expect("row");
        t20.row_f64(case.label.clone(), &p99s, 2);
        t21.row_f64(case.label.clone(), &tputs, 1);
    }
    csv20.flush().expect("flush");
    csv21.flush().expect("flush");
    println!(
        "Table 3 — MIG profiles: {}",
        [
            MigProfile::OneG5Gb,
            MigProfile::TwoG10Gb,
            MigProfile::FourG20Gb
        ]
        .map(|p| format!(
            "{} = {:.0}% SMs / {:.0}% mem",
            p.name(),
            100.0 * p.sm_fraction(),
            100.0 * p.bw_fraction()
        ))
        .join("; ")
    );
    println!("Fig. 20 — normalised p99 with MIG deployments (QoS from the full A100)");
    println!("{}", t20.render());
    println!("QoS violation ratios at the Fig. 20 load (drops counted):");
    println!("{}", tviol.render());
    println!("Fig. 21 — peak throughput with MIG deployments (completed queries/s)");
    println!("{}", t21.render());
    println!(
        "paper shape: full isolation >> QoS target; quad on 4g.20gb ≈ pair-wise on 2x 2g.10gb"
    );
    println!(
        "wrote {} and {}",
        opts.csv_path("fig20").display(),
        opts.csv_path("fig21").display()
    );
}
