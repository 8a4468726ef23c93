//! `abacus-repro trace` (extension) — record full telemetry of one Abacus
//! co-location run and lower it to artifacts:
//!
//! * `results/trace.json` — Chrome trace-event JSON (open in
//!   <https://ui.perfetto.dev> or `chrome://tracing`): per-service dispatch
//!   slices with queue spans, per-stream kernel slices with occupancy, and
//!   offered/achieved-load counter tracks;
//! * `results/ledger.csv` — the scheduler decision ledger, one row per
//!   round with predicted vs measured latency and critical-query headroom;
//! * `results/pred_error.csv` — the §5.2-style online prediction-error
//!   study over a seed sweep (the paper reports the MLP's ~0.6% mean error
//!   and a 4.53% std/mean determinism figure for the overlap itself).

use crate::common::{as_model, ensure_predictor, map_cells, Options};
use abacus_metrics::Table;
use cluster::{add_counter_tracks, build_timeline_bucketed};
use dnn_models::{ModelId, ModelLibrary};
use faults::FaultPlan;
use gpu_sim::{GpuSpec, NoiseModel};
use serving::{
    build_workload, run_colocation_observed, services_for, ColocationConfig, NodeOptions,
    PolicyKind,
};
use std::sync::Arc;
use telemetry::export::{kernel_spans_csv, ledger_csv};
use telemetry::{ChromeTrace, Hist, PredictionErrorReport, Telemetry};
use workload::fork_seed;

/// Counter-track bucket width for the load overlay, ms.
const BUCKET_MS: f64 = 500.0;

/// Seeds in the prediction-error sweep.
const SWEEP_SEEDS: usize = 8;

/// Pinned Eq. 3 prediction-round charge, ms. A constant (not the usual
/// cached wall-clock calibration) so the exported trace and the
/// prediction-error CSVs are bit-reproducible across machines, across the
/// serial/parallel paths, and across fresh `--out` directories — `ci.sh`
/// byte-compares two independent runs.
const PREDICT_ROUND_MS: f64 = 0.08;

/// Run the telemetry study and emit `trace.json`, `ledger.csv`,
/// `kernel_spans.csv` and `pred_error.csv`.
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let pair = [ModelId::ResNet152, ModelId::Bert];
    let mlp = ensure_predictor("ablation_res152_bert", &[pair.to_vec()], &lib, &gpu, opts);
    let abacus = abacus_core::AbacusConfig {
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..Default::default()
    };

    // --- One fully-traced run (kernel spans on) at a bounded horizon: the
    // per-kernel stream dominates the artifact size, so the trace view uses
    // a short window regardless of scale.
    let cfg = ColocationConfig {
        qps_per_service: opts.qos_load_total() / 2.0,
        horizon_ms: opts.scale.horizon_ms().min(2_500.0),
        seed: opts.seed,
        abacus: abacus.clone(),
        ..ColocationConfig::default()
    };
    let mut tel = Telemetry::with_kernel_trace();
    let out = run_colocation_observed(
        &pair,
        PolicyKind::Abacus,
        Some(as_model(&mlp)),
        None,
        &lib,
        &gpu,
        &noise,
        &cfg,
        &FaultPlan::none(),
        NodeOptions::default(),
        Some(&mut tel),
    );
    let (result, records) = (out.result, out.records);

    let mut trace = ChromeTrace::new();
    let names: Vec<&str> = pair.iter().map(|m| m.name()).collect();
    trace.add_telemetry(&tel, &names);
    // Offered vs achieved load as counter tracks over the same window.
    let services = services_for(&pair, &lib, &gpu, cfg.small_inputs);
    let workload = build_workload(&services, &lib, &cfg);
    let requests: Vec<u32> = workload.inputs.iter().map(|i| i.batch).collect();
    let buckets = (cfg.horizon_ms / BUCKET_MS).ceil() as usize;
    let points =
        build_timeline_bucketed(&workload.arrivals, &requests, &records, buckets, BUCKET_MS);
    add_counter_tracks(&mut trace, &points, BUCKET_MS);
    // Registry counters and histogram digests join the same counter
    // process as end-of-run samples, so Perfetto shows the run's final
    // engine/scheduler totals next to the load overlay.
    trace.add_registry(&tel.registry, cfg.horizon_ms);
    let json_path = opts.out_dir.join("trace.json");
    trace.write_to(&json_path).expect("trace.json");
    ledger_csv(opts.csv_path("ledger"), &tel.ledger).expect("ledger.csv");

    println!(
        "Telemetry — Abacus on ({},{}) for {:.1} s at {} QPS aggregate",
        pair[0].name(),
        pair[1].name(),
        cfg.horizon_ms / 1000.0,
        opts.qos_load_total()
    );
    let mut counters = Table::new(vec!["counter", "value"]);
    for (name, v) in tel.registry.counter_rows() {
        counters.row(vec![name.to_string(), v.to_string()]);
    }
    println!("{}", counters.render());
    let mut hists = Table::new(vec!["histogram", "count", "mean", "p50<=", "p99<=", "max"]);
    for h in Hist::ALL {
        let hist = tel.registry.hist(h);
        hists.row_f64(
            h.name().to_string(),
            &[
                hist.count() as f64,
                hist.mean(),
                hist.quantile_bound(50.0),
                hist.quantile_bound(99.0),
                hist.max(),
            ],
            2,
        );
    }
    println!("{}", hists.render());
    println!(
        "{} trace events ({} query-lifecycle, {} kernel spans, {} ledger rounds) -> {}",
        trace.len(),
        tel.events().len(),
        tel.kernel_spans().len(),
        tel.ledger.len(),
        json_path.display()
    );
    println!(
        "queue delay p99 (exact, completed queries): {:.2} ms; violation ratio {:.3}",
        result.all.queue_p99_ms(),
        result.violation_ratio()
    );
    if let Some(r) = tel.ledger.error_report_where(|row| row.entries.len() >= 2) {
        println!(
            "single-run prediction error, multi-way rounds ({}): mean {:+.2}%, |mean| {:.2}%, std {:.2}%",
            r.rounds,
            r.mean * 100.0,
            r.mean_abs * 100.0,
            r.std * 100.0
        );
    }
    if let Some(r) = tel.ledger.error_report_where(|row| row.entries.len() == 1) {
        println!(
            "                            solo rounds ({}): mean {:+.2}%, |mean| {:.2}%, std {:.2}%",
            r.rounds,
            r.mean * 100.0,
            r.mean_abs * 100.0,
            r.std * 100.0
        );
    }
    kernel_spans_csv(opts.csv_path("kernel_spans"), &crosscheck_spans(&tel)).expect("kernel_spans");

    // --- §5.2 prediction-error sweep: same deployment, independent seeds,
    // counters only (no kernel trace) so each cell stays cheap.
    let seeds: Vec<u64> = (0..SWEEP_SEEDS as u64)
        .map(|i| fork_seed(opts.seed, i))
        .collect();
    let cells = map_cells(opts.parallel, &seeds, |&seed| {
        let cfg = ColocationConfig {
            qps_per_service: opts.qos_load_total() / 2.0,
            horizon_ms: 5_000.0,
            seed,
            abacus: abacus.clone(),
            ..ColocationConfig::default()
        };
        let mut tel = Telemetry::new();
        run_colocation_observed(
            &pair,
            PolicyKind::Abacus,
            Some(as_model(&mlp)),
            None,
            &lib,
            &gpu,
            &noise,
            &cfg,
            &FaultPlan::none(),
            NodeOptions::default(),
            Some(&mut tel),
        );
        // Split errors by group width: the instance-based training samples
        // (§5.4) always include every co-located model, so solo rounds sit
        // outside the predictor's training distribution.
        let mut multi = Vec::new();
        let mut solo = Vec::new();
        for r in tel.ledger.rows() {
            if let Some(e) = r.rel_error() {
                if r.entries.len() >= 2 {
                    multi.push(e);
                } else {
                    solo.push(e);
                }
            }
        }
        (seed, multi, solo)
    });

    let mut csv = abacus_metrics::CsvWriter::create(
        opts.csv_path("pred_error"),
        &[
            "seed",
            "multi_rounds",
            "multi_mean_err",
            "multi_std_err",
            "multi_mean_abs_err",
            "solo_rounds",
            "solo_mean_abs_err",
        ],
    )
    .expect("csv");
    let mut table = Table::new(vec![
        "seed",
        "multi",
        "mean %",
        "std %",
        "|mean| %",
        "solo",
        "solo |mean| %",
    ]);
    let mut pooled_multi = Vec::new();
    let mut pooled_solo = Vec::new();
    for (seed, multi, solo) in &cells {
        let Some(r) = PredictionErrorReport::of(multi) else {
            continue;
        };
        let solo_abs = PredictionErrorReport::of(solo).map_or(f64::NAN, |s| s.mean_abs);
        csv.write_record(
            &seed.to_string(),
            &[
                r.rounds as f64,
                r.mean,
                r.std,
                r.mean_abs,
                solo.len() as f64,
                solo_abs,
            ],
        )
        .expect("row");
        table.row_f64(
            seed.to_string(),
            &[
                r.rounds as f64,
                r.mean * 100.0,
                r.std * 100.0,
                r.mean_abs * 100.0,
                solo.len() as f64,
                solo_abs * 100.0,
            ],
            2,
        );
        pooled_multi.extend_from_slice(multi);
        pooled_solo.extend_from_slice(solo);
    }
    let all = PredictionErrorReport::of(&pooled_multi).expect("sweep produced no multi-way rounds");
    let solo_all = PredictionErrorReport::of(&pooled_solo).map_or(f64::NAN, |s| s.mean_abs);
    csv.write_record(
        "pooled",
        &[
            all.rounds as f64,
            all.mean,
            all.std,
            all.mean_abs,
            pooled_solo.len() as f64,
            solo_all,
        ],
    )
    .expect("row");
    csv.flush().expect("flush");
    table.row_f64(
        "pooled".to_string(),
        &[
            all.rounds as f64,
            all.mean * 100.0,
            all.std * 100.0,
            all.mean_abs * 100.0,
            pooled_solo.len() as f64,
            solo_all * 100.0,
        ],
        2,
    );
    println!("Online prediction error, {SWEEP_SEEDS}-seed sweep (ledger join):");
    println!("{}", table.render());
    println!(
        "paper §5.2 reference: the MLP's prediction error averages ~0.6% with a\n\
         4.53% std/mean for the deterministic overlap itself; the pooled multi-way\n\
         columns are the comparable online quantities. Solo rounds lie outside the\n\
         instance-based sampling distribution (§5.4 always samples every co-located\n\
         model), so their error is extrapolation, reported separately."
    );
}

/// The traced run's wall-clock kernel spans as engine-style spans for the
/// CSV lowering (stream/kernel ids survive; times are wall-clock ms).
fn crosscheck_spans(tel: &Telemetry) -> Vec<gpu_sim::KernelSpan> {
    tel.kernel_spans()
        .iter()
        .map(|k| gpu_sim::KernelSpan {
            stream: gpu_sim::StreamId(k.stream),
            kernel: k.kernel,
            start_ms: k.start_ms,
            end_ms: k.end_ms,
            occupancy: k.occupancy,
        })
        .collect()
}
