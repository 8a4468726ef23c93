//! End-to-end tests of the streaming run-health layer: the monitors ride a
//! real serving run (same pair, load, and seeds as the CLI `health` study)
//! and must (a) not perturb the simulation at all, (b) reproduce the
//! solo-round out-of-distribution finding online, (c) flag injected fault
//! plans with bounded detection latency on the simulation clock, and
//! (d) produce bit-identical alert streams across runs.

use abacus_core::AbacusConfig;
use dnn_models::{ModelId, ModelLibrary};
use faults::{ArrivalBurst, FaultPlan, PredictorFault};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{
    run_colocation_observed, train_unified, ColocationConfig, NodeOptions, PolicyKind,
    TrainerConfig,
};
use std::sync::{Arc, OnceLock};
use telemetry::{HealthAlert, HealthAlertKind, HealthConfig, SloConfig, Telemetry, WIDTH_CLASSES};
use workload::fork_seed;

/// Same pair as the CLI `health` study.
const PAIR: [ModelId; 2] = [ModelId::ResNet50, ModelId::ResNet152];

/// Burst-fault onset on the simulation clock, ms (mirrors
/// `FaultPlan::at_intensity`).
const BURST_ONSET_MS: f64 = 2_000.0;

/// Horizon of the healthy-baseline cell, ms (see
/// `healthy_run_flags_solo_ood_and_keeps_slo_quiet`).
const HEALTHY_HORIZON_MS: f64 = 18_000.0;

fn library() -> &'static Arc<ModelLibrary> {
    static LIB: OnceLock<Arc<ModelLibrary>> = OnceLock::new();
    LIB.get_or_init(|| Arc::new(ModelLibrary::new()))
}

/// One MLP for the whole file, trained deterministically on the test pair.
fn mlp() -> Arc<dyn LatencyModel> {
    static MLP: OnceLock<Arc<dyn LatencyModel>> = OnceLock::new();
    MLP.get_or_init(|| {
        let (m, _) = train_unified(
            &[PAIR.to_vec()],
            library(),
            &GpuSpec::a100(),
            &NoiseModel::calibrated(),
            &TrainerConfig {
                samples_per_set: 300,
                runs_per_group: 3,
                ..TrainerConfig::fast()
            },
        );
        Arc::new(m)
    })
    .clone()
}

/// The CLI study's cell configuration: 30 QPS aggregate (a healthy
/// operating point inside the SLO budget), 6 s horizon covering the burst
/// window plus recovery, pinned prediction-round charge.
fn cfg() -> ColocationConfig {
    ColocationConfig {
        qps_per_service: 15.0,
        horizon_ms: 6_000.0,
        seed: fork_seed(2021, 0x8E00),
        small_inputs: false,
        abacus: AbacusConfig {
            predict_round_ms: Some(0.08),
            ..AbacusConfig::default()
        },
    }
}

/// The study's monitor tuning (see `health_cmd`): 30-sample windows so the
/// warm-up violation cluster of a healthy run cannot alarm.
fn health_config() -> HealthConfig {
    HealthConfig {
        slo: SloConfig {
            min_samples: 30,
            exhaust_min_samples: 80,
            ..SloConfig::default()
        },
        ..HealthConfig::default()
    }
}

fn plan_seed() -> u64 {
    fork_seed(2021, 0x8E17)
}

/// Run one observed Abacus cell of the study's configuration and return
/// its telemetry.
fn observe(plan: &FaultPlan) -> Telemetry {
    observe_cell(plan, &cfg())
}

/// Run one observed Abacus cell of `cell` and return its telemetry.
fn observe_cell(plan: &FaultPlan, cell: &ColocationConfig) -> Telemetry {
    let mut tel = Telemetry::default();
    tel.enable_health(health_config());
    let out = run_colocation_observed(
        &PAIR,
        PolicyKind::Abacus,
        Some(mlp()),
        None,
        library(),
        &GpuSpec::a100(),
        &NoiseModel::calibrated(),
        cell,
        plan,
        NodeOptions::default(),
        Some(&mut tel),
    );
    assert_eq!(
        out.invariant_violations,
        Vec::<String>::new(),
        "serving invariants violated under observation"
    );
    tel
}

fn bias_plan(intensity: f64) -> FaultPlan {
    FaultPlan {
        seed: plan_seed(),
        kernel: None,
        predictor: Some(PredictorFault::Bias {
            factor: 1.0 - 0.5 * intensity,
        }),
        burst: None,
    }
}

fn burst_plan(intensity: f64) -> FaultPlan {
    FaultPlan {
        seed: plan_seed(),
        kernel: None,
        predictor: None,
        burst: Some(ArrivalBurst {
            start_ms: BURST_ONSET_MS,
            end_ms: 4_000.0,
            extra_qps: 60.0 * intensity,
        }),
    }
}

/// Enabling the health monitors must not perturb the simulation: the
/// observed run's per-query records are identical — bit for bit — to the
/// unobserved run's.
#[test]
fn monitors_do_not_perturb_the_simulation() {
    let plan = FaultPlan::none();
    let unobserved = run_colocation_observed(
        &PAIR,
        PolicyKind::Abacus,
        Some(mlp()),
        None,
        library(),
        &GpuSpec::a100(),
        &NoiseModel::calibrated(),
        &cfg(),
        &plan,
        NodeOptions::default(),
        None,
    );
    let mut tel = Telemetry::default();
    tel.enable_health(health_config());
    let observed = run_colocation_observed(
        &PAIR,
        PolicyKind::Abacus,
        Some(mlp()),
        None,
        library(),
        &GpuSpec::a100(),
        &NoiseModel::calibrated(),
        &cfg(),
        &plan,
        NodeOptions::default(),
        Some(&mut tel),
    );
    assert_eq!(unobserved.records, observed.records);
    assert_eq!(unobserved.degraded, observed.degraded);
}

/// A healthy run reproduces PR 5's solo-round out-of-distribution finding
/// *online* — the solo width class shows an error level far above the
/// multi-way classes and (alone) alarms — while every SLO monitor stays
/// quiet: no burn-rate alert, no budget exhaustion.
///
/// The cell runs for [`HEALTHY_HORIZON_MS`] rather than the study's 6 s,
/// which yields only about a dozen 2-way rounds: the 2-way class must
/// observe at least twice the drift detector's warm-up, so its quiet is
/// measured while the detector is armed, not only during warm-up.
#[test]
fn healthy_run_flags_solo_ood_and_keeps_slo_quiet() {
    let cell = ColocationConfig {
        horizon_ms: HEALTHY_HORIZON_MS,
        ..cfg()
    };
    let tel = observe_cell(&FaultPlan::none(), &cell);
    let h = tel.health().expect("health enabled");

    // Online OOD: solo EWMA |err| is several times the 2-way level.
    let solo = h.drift().class(0);
    let multi = h.drift().class(1);
    let warm_up = health_config().drift.min_samples as u64;
    assert!(
        solo.samples > 20,
        "expected solo rounds, got {}",
        solo.samples
    );
    assert!(
        multi.samples >= 2 * warm_up,
        "expected at least {} 2-way rounds, got {}",
        2 * warm_up,
        multi.samples
    );
    assert!(
        solo.ewma_abs > 3.0 * multi.ewma_abs,
        "solo |err| {} not an OOD outlier vs 2-way {}",
        solo.ewma_abs,
        multi.ewma_abs
    );
    assert!(solo.alarmed_at_ms.is_some(), "solo OOD regime must alarm");

    // No multi-way drift, no SLO alerts of any kind.
    for class in 1..WIDTH_CLASSES {
        assert_eq!(h.drift().class(class).alarmed_at_ms, None, "class {class}");
    }
    assert!(
        h.alerts()
            .iter()
            .all(|a| matches!(a.kind, HealthAlertKind::Drift { class: 0, .. })),
        "healthy baseline raised SLO alerts: {:?}",
        h.alerts()
    );
}

/// A whole-run predictor bias (onset t = 0) alarms the multi-way drift
/// detectors with bounded detection latency: well before the horizon, on
/// the simulation clock.
#[test]
fn predictor_bias_drifts_multiway_with_bounded_latency() {
    let tel = observe(&bias_plan(1.0));
    let h = tel.health().expect("health enabled");
    let alarm_ms = (1..WIDTH_CLASSES)
        .filter_map(|c| h.drift().class(c).alarmed_at_ms)
        .min_by(f64::total_cmp)
        .expect("50% under-prediction must alarm a multi-way drift class");
    assert!(
        alarm_ms > 0.0 && alarm_ms < 4_000.0,
        "detection latency out of bounds: {alarm_ms} ms"
    );
    // The drift alert is in the stream and tripped the flight recorder.
    assert!(h
        .alerts()
        .iter()
        .any(|a| matches!(a.kind, HealthAlertKind::Drift { class, .. } if class >= 1)));
    assert!(h.flight().dump().is_some(), "drift must trip the recorder");
}

/// A mid-run arrival burst (onset 2 000 ms) raises its first SLO alert
/// *after* the onset and within bounded latency — never before (the
/// pre-onset stream is the healthy baseline, which is quiet).
#[test]
fn arrival_burst_burns_budget_after_onset_only() {
    let tel = observe(&burst_plan(1.0));
    let h = tel.health().expect("health enabled");
    let slo_alerts: Vec<&HealthAlert> = h
        .alerts()
        .iter()
        .filter(|a| {
            matches!(
                a.kind,
                HealthAlertKind::BurnRate { .. } | HealthAlertKind::BudgetExhausted { .. }
            )
        })
        .collect();
    assert!(!slo_alerts.is_empty(), "burst must raise an SLO alert");
    let first = slo_alerts[0].at_ms;
    assert!(
        first >= BURST_ONSET_MS,
        "SLO alert fired {first} ms, before the {BURST_ONSET_MS} ms onset"
    );
    assert!(
        first <= 4_500.0,
        "detection latency out of bounds: {} ms after onset",
        first - BURST_ONSET_MS
    );
}

/// Alert streams are deterministic: two identical observed runs produce
/// equal alert streams (`PartialEq` — same kinds, same sequence, same
/// simulation-clock timestamps to the bit).
#[test]
fn alert_streams_reproduce_bit_for_bit() {
    let a = observe(&bias_plan(1.0));
    let b = observe(&bias_plan(1.0));
    let (ha, hb) = (a.health().unwrap(), b.health().unwrap());
    assert!(!ha.alerts().is_empty(), "bias cell must alert");
    assert_eq!(ha.alerts(), hb.alerts());
    for (x, y) in ha.alerts().iter().zip(hb.alerts()) {
        assert_eq!(x.at_ms.to_bits(), y.at_ms.to_bits());
    }
    assert_eq!(ha.flight().dump(), hb.flight().dump());
    assert_eq!(
        ha.queue_sketch().quantile(99.0).to_bits(),
        hb.queue_sketch().quantile(99.0).to_bits()
    );
}
