//! §7.8 deployment planning — measure every pair's overlap affinity under
//! peak load and plan the service groups Abacus would actually deploy
//! together ("co-location like (VGG16, VGG19) can be avoided by analyzing
//! the profiling data").

use crate::common::Options;
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{peak_affinity, plan_service_groups, PairAffinity, NO_OVERLAP_GAIN};

/// Run the affinity survey and emit `results/affinity.csv`.
pub fn run(opts: &Options) {
    let lib = ModelLibrary::new();
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let samples = (opts.scale.samples_per_set() / 10).max(50);
    let runs = opts.scale.runs_per_group().min(5);

    let mut csv =
        CsvWriter::create(opts.csv_path("affinity"), &["pair", "overlap_gain"]).expect("csv");
    let mut table = Table::new(vec!["pair", "peak overlap gain", "deployable"]);
    let mut affinities: Vec<PairAffinity> = Vec::new();
    for (i, pair) in predictor::all_pairs().into_iter().enumerate() {
        let a = peak_affinity(
            pair,
            &lib,
            &gpu,
            &noise,
            samples,
            runs,
            opts.seed ^ i as u64,
        );
        let label = crate::common::pair_label(&pair);
        csv.write_record(&label, &[a.gain]).expect("row");
        table.row(vec![
            label,
            format!("{:.3}", a.gain),
            if a.gain >= NO_OVERLAP_GAIN {
                "yes"
            } else {
                "no (sequential-equivalent)"
            }
            .into(),
        ]);
        affinities.push(a);
    }
    csv.flush().expect("flush");
    println!(
        "Peak-load overlap affinity per pair (threshold {NO_OVERLAP_GAIN}; §7.8's deployment analysis)"
    );
    println!("{}", table.render());

    for k in [2usize, 4] {
        let groups = plan_service_groups(&ModelId::PAPER_MODELS, &affinities, k);
        let rendered: Vec<String> = groups
            .iter()
            .map(|g| crate::common::pair_label(g))
            .collect();
        println!("service groups of size ≤ {k}: {}", rendered.join("  "));
    }
    println!(
        "paper: '(VGG16, VGG19) can be avoided by analyzing the profiling data' — check the groups above"
    );
    println!("wrote {}", opts.csv_path("affinity").display());
}
