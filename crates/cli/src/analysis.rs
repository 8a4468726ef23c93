//! Latency anatomy (extension) — decomposes end-to-end latency into
//! queueing delay and service time per policy (§3.3's first instability
//! factor), and dumps a kernel-span trace of one operator group so the
//! deterministic overlap can be inspected directly.

use crate::common::{as_model, ensure_predictor, Options};
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{Engine, GpuSpec, NoiseModel};
use serving::{run_colocation, ColocationConfig, PolicyKind};
use std::sync::Arc;

/// Run the latency-anatomy study and emit `results/analysis.csv` +
/// `results/trace.csv`.
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let pair = [ModelId::ResNet152, ModelId::Bert];
    let mlp = ensure_predictor("ablation_res152_bert", &[pair.to_vec()], &lib, &gpu, opts);

    let cfg = ColocationConfig {
        qps_per_service: opts.qos_load_total() / 2.0,
        horizon_ms: opts.scale.horizon_ms(),
        seed: opts.seed,
        ..ColocationConfig::default()
    };
    let mut csv = CsvWriter::create(
        opts.csv_path("analysis"),
        &[
            "policy",
            "mean_queue_ms",
            "queue_p50_ms",
            "queue_p99_ms",
            "mean_service_ms",
            "mean_latency_ms",
            "p99_ms",
        ],
    )
    .expect("csv");
    let mut table = Table::new(vec![
        "policy", "queue", "q50", "q99", "service", "mean e2e", "p99",
    ]);
    println!(
        "Latency anatomy — ({},{}) at {} QPS aggregate (completed queries; queue \
         percentiles exact)",
        pair[0].name(),
        pair[1].name(),
        opts.qos_load_total(),
    );
    for policy in PolicyKind::ALL {
        let pred = (policy == PolicyKind::Abacus).then(|| as_model(&mlp));
        let r = run_colocation(&pair, policy, pred, &lib, &gpu, &noise, &cfg);
        let queue = r.all.mean_queue_ms();
        let mean = r.all.mean_latency();
        let service = mean - queue;
        let row = [
            queue,
            r.all.queue_p50_ms(),
            r.all.queue_p99_ms(),
            service,
            mean,
            r.all.p99_latency(),
        ];
        csv.write_record(policy.name(), &row).expect("row");
        table.row_f64(policy.name().to_string(), &row, 1);
    }
    csv.flush().expect("flush");
    println!("{}", table.render());
    println!(
        "Abacus trades a little service time (overlap contention) for much\n\
         less queueing — the sequential policies serialise the queue."
    );

    // Kernel-span trace of one overlapped group.
    let mut engine = Engine::new(gpu.clone(), noise, opts.seed);
    engine.enable_trace();
    let streams = [
        (ModelId::ResNet152, 0usize, 120usize),
        (ModelId::Bert, 0, 173),
    ];
    for (m, s, e) in streams {
        let ks = lib.graph(m, m.max_input()).kernels_range(s, e);
        engine.add_stream(&ks, 0.0);
    }
    engine.run_until_idle();
    telemetry::export::kernel_spans_csv(opts.csv_path("trace"), engine.trace()).expect("trace csv");
    println!(
        "kernel-span trace of one (Res152[0..120] ∥ Bert[0..173]) group: {} spans -> {}",
        engine.trace().len(),
        opts.csv_path("trace").display()
    );
}
