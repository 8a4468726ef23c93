//! Workspace-spanning tests of the telemetry subsystem:
//!
//! * **observer effect** — running with telemetry attached yields results
//!   exactly equal to the plain runner (the instrumented loop records, it
//!   never perturbs);
//! * **event-stream shape** — exactly one arrival and one retirement per
//!   query, with registry counters agreeing with the aggregate stats;
//! * **ledger discipline** — executed rounds never overlap in wall time
//!   (§6.1 exclusivity) and, under Abacus, the predicted-vs-actual join
//!   yields a finite §5.2-style error report;
//! * **kernel spans** — each round's spans sit inside that round's
//!   execution window;
//! * **export sanity** — the Chrome trace JSON is well-formed.

use abacus_core::AbacusConfig;
use abacus_metrics::QueryRecord;
use dnn_models::{ModelId, ModelLibrary};
use faults::FaultPlan;
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{
    run_colocation, run_colocation_observed, train_unified, ColocationConfig, ColocationResult,
    NodeOptions, PolicyKind, TrainerConfig,
};
use std::sync::Arc;
use telemetry::{ChromeTrace, Counter, Hist, QueryEventKind, Telemetry};

fn setup() -> (Arc<ModelLibrary>, GpuSpec, NoiseModel) {
    (
        Arc::new(ModelLibrary::new()),
        GpuSpec::a100(),
        NoiseModel::calibrated(),
    )
}

fn trained_pair(
    pair: &[ModelId],
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
) -> Arc<dyn LatencyModel> {
    let (mlp, _) = train_unified(
        &[pair.to_vec()],
        lib,
        gpu,
        noise,
        &TrainerConfig {
            samples_per_set: 500,
            runs_per_group: 3,
            mlp: predictor::MlpConfig {
                epochs: 80,
                ..predictor::MlpConfig::default()
            },
            seed: 4,
        },
    );
    Arc::new(mlp)
}

fn cfg(seed: u64) -> ColocationConfig {
    ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 3_000.0,
        seed,
        abacus: AbacusConfig {
            predict_round_ms: Some(0.08),
            ..AbacusConfig::default()
        },
        ..ColocationConfig::default()
    }
}

/// A fault-free run of `pair` under `policy` with `tel` attached.
#[allow(clippy::too_many_arguments)]
fn traced(
    pair: &[ModelId],
    policy: PolicyKind,
    predictor: Option<Arc<dyn LatencyModel>>,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &ColocationConfig,
    tel: &mut Telemetry,
) -> (ColocationResult, Vec<QueryRecord>) {
    let out = run_colocation_observed(
        pair,
        policy,
        predictor,
        None,
        lib,
        gpu,
        noise,
        cfg,
        &FaultPlan::none(),
        NodeOptions::default(),
        Some(tel),
    );
    (out.result, out.records)
}

/// Attaching telemetry must not perturb the simulation: every aggregate of
/// the traced run equals the plain runner's bit for bit.
#[test]
fn telemetry_does_not_perturb_results() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::InceptionV3];
    let c = cfg(21);
    let plain = run_colocation(&pair, PolicyKind::Edf, None, &lib, &gpu, &noise, &c);
    let mut tel = Telemetry::with_kernel_trace();
    let (traced, records) = traced(
        &pair,
        PolicyKind::Edf,
        None,
        &lib,
        &gpu,
        &noise,
        &c,
        &mut tel,
    );
    assert_eq!(plain.all.total(), traced.all.total());
    assert_eq!(plain.all.completed(), traced.all.completed());
    // Exact f64 equality — any drift means the telemetry branch leaked
    // into simulation state.
    assert_eq!(plain.all.mean_latency(), traced.all.mean_latency());
    assert_eq!(plain.all.p99_latency(), traced.all.p99_latency());
    assert_eq!(plain.all.mean_queue_ms(), traced.all.mean_queue_ms());
    assert_eq!(plain.violation_ratio(), traced.violation_ratio());
    assert_eq!(
        records.len() as u64,
        tel.registry.get(Counter::QueriesArrived)
    );
}

/// Every query arrives exactly once and retires exactly once, and the
/// registry counters agree with the aggregate outcome counts.
#[test]
fn event_stream_is_one_lifecycle_per_query() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::InceptionV3];
    let mut tel = Telemetry::new();
    let (result, records) = traced(
        &pair,
        PolicyKind::Fcfs,
        None,
        &lib,
        &gpu,
        &noise,
        &cfg(22),
        &mut tel,
    );
    let n = records.len();
    assert!(n > 50, "run too small to be meaningful: {n} queries");
    let mut arrived = vec![0u32; n];
    let mut retired = vec![0u32; n];
    for e in tel.events() {
        match e.kind {
            QueryEventKind::Arrived { .. } => arrived[e.query as usize] += 1,
            QueryEventKind::Retired { .. } => retired[e.query as usize] += 1,
            QueryEventKind::Dispatched { .. } => {}
        }
    }
    assert!(
        arrived.iter().all(|&c| c == 1),
        "duplicate/missing arrivals"
    );
    assert!(retired.iter().all(|&c| c == 1), "duplicate/missing retires");
    let reg = &tel.registry;
    assert_eq!(reg.get(Counter::QueriesArrived), n as u64);
    assert_eq!(
        reg.get(Counter::QueriesCompleted),
        result.all.completed() as u64
    );
    assert_eq!(
        reg.get(Counter::QueriesCompleted)
            + reg.get(Counter::QueriesDropped)
            + reg.get(Counter::QueriesTimedOut),
        n as u64
    );
    assert_eq!(
        reg.hist(Hist::QueueDelayMs).count(),
        reg.get(Counter::QueriesCompleted)
    );
}

/// Under Abacus: executed rounds never overlap (one group at a time on the
/// GPU — §6.1 exclusivity), the ledger join produces a finite error report,
/// kernel spans live inside their round's execution window, and the trace
/// exports to well-formed JSON.
#[test]
fn abacus_ledger_kernel_spans_and_export() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::InceptionV3];
    let mlp = trained_pair(&pair, &lib, &gpu, &noise);
    let mut tel = Telemetry::with_kernel_trace();
    let (_, records) = traced(
        &pair,
        PolicyKind::Abacus,
        Some(mlp),
        &lib,
        &gpu,
        &noise,
        &cfg(23),
        &mut tel,
    );
    assert!(!records.is_empty());

    // Executed rounds are disjoint in wall time, in round order.
    let executed: Vec<_> = tel
        .ledger
        .rows()
        .iter()
        .filter(|r| r.exec_start_ms.is_finite())
        .collect();
    assert!(
        executed.len() > 10,
        "too few executed rounds: {}",
        executed.len()
    );
    for w in executed.windows(2) {
        let end = w[0].exec_start_ms + w[0].actual_ms;
        assert!(
            w[1].exec_start_ms >= end - 1e-6,
            "rounds {} and {} overlap: {} < {}",
            w[0].round,
            w[1].round,
            w[1].exec_start_ms,
            end
        );
    }

    // The §5.2 join: planned rounds carry positive predictions and the
    // pooled error is finite and sane for a trained MLP.
    let report = tel.ledger.error_report().expect("no usable predictions");
    assert!(report.rounds > 10);
    assert!(report.mean.is_finite() && report.std.is_finite());
    assert!(
        report.mean_abs < 0.5,
        "trained predictor off by {:.0}% on average",
        report.mean_abs * 100.0
    );
    // Every batched scoring call is one predictor-batch observation.
    assert_eq!(
        tel.registry.hist(Hist::PredictorBatch).count(),
        tel.registry.get(Counter::PredictionRounds)
    );

    // Kernel spans sit inside their round's execution window.
    assert!(!tel.kernel_spans().is_empty());
    for k in tel.kernel_spans() {
        let row = tel.ledger.by_round(k.round).expect("span without round");
        assert!(
            k.start_ms >= row.exec_start_ms - 1e-6
                && k.end_ms <= row.exec_start_ms + row.actual_ms + 1e-6,
            "kernel span [{}, {}] outside round {} window [{}, {}]",
            k.start_ms,
            k.end_ms,
            k.round,
            row.exec_start_ms,
            row.exec_start_ms + row.actual_ms
        );
        assert!(k.occupancy > 0.0 && k.occupancy <= 1.0);
    }

    // Export sanity: object form, one JSON object per event, braces balance.
    let mut trace = ChromeTrace::new();
    trace.add_telemetry(&tel, &["Res50", "IncepV3"]);
    let json = trace.to_json();
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
    assert!(json.ends_with("]}\n"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(trace.len() > tel.events().len(), "lifecycle events missing");
}
