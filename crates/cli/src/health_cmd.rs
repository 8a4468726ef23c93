//! `health` — the streaming run-health study: how quickly do the online
//! drift detectors and SLO burn-rate monitors flag a fault after its
//! onset?
//!
//! Runs plain Abacus over the fault-plan family of the `faults` sweep,
//! but with the run-health monitors enabled ([`Telemetry::with_health`])
//! and the plan split into its components so each detector sees its
//! matched stimulus:
//!
//! * `bias`  — predictor under-prediction only, present from `t = 0`
//!   (drift-detector stimulus; detection latency is measured from 0);
//! * `burst` — the mid-run arrival surge only, onset at 2 000 ms
//!   (burn-rate stimulus; latency measured from the window start);
//! * `full`  — the composite [`FaultPlan::at_intensity`] scenario;
//! * `none`  — the healthy baseline, which also reproduces the solo-round
//!   out-of-distribution finding *online*: solo rounds alarm the solo-width
//!   drift class while every multi-way class stays quiet.
//!
//! Outputs: `health.csv` (one row per cell), `health.json` (cells plus
//! their full alert streams), and `flight.json` (the first tripped cell's
//! flight-recorder dump, or the canonical empty dump). All alert
//! timestamps are the simulation clock, so every byte — serial or
//! parallel — reproduces; `scripts/bench_check.sh` gates on that.

use crate::common::{as_model, ensure_predictor, map_cells, pair_label, Options};
use abacus_core::AbacusConfig;
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use faults::{ArrivalBurst, FaultPlan, PredictorFault};
use gpu_sim::{GpuSpec, NoiseModel};
use serving::{run_colocation_observed, ColocationConfig, NodeOptions, PolicyKind};
use std::sync::Arc;
use telemetry::{FlightDump, HealthAlertKind, HealthConfig, SloConfig, Telemetry, WIDTH_CLASSES};
use workload::fork_seed;

/// Pinned Eq. 3 prediction-round charge, ms — same constant as the fault
/// sweep, so the study is bit-reproducible across machines and across the
/// serial/parallel paths.
const PREDICT_ROUND_MS: f64 = 0.08;

/// Arrival-burst onset, ms. Mirrors [`FaultPlan::at_intensity`]'s window;
/// the burn-rate detection latencies below are measured from this instant.
const BURST_ONSET_MS: f64 = 2_000.0;

/// Arrival-burst end, ms (mirrors [`FaultPlan::at_intensity`]).
const BURST_END_MS: f64 = 4_000.0;

/// Offered load for the study, QPS aggregate. Deliberately below the QoS
/// experiments' 50 QPS: detection latency is only meaningful from an
/// operating point whose healthy baseline sits *inside* the SLO budget —
/// at 50 QPS the fast-scale baseline already burns its 10% budget on its
/// own, and every cell would alarm before the fault onset.
const LOAD_QPS: f64 = 30.0;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    None,
    Bias,
    Burst,
    Full,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::None => "none",
            Kind::Bias => "bias",
            Kind::Burst => "burst",
            Kind::Full => "full",
        }
    }
}

/// One (fault component, intensity) study cell. Intensity 0 collapses to
/// the single healthy baseline: every component at intensity 0 is
/// [`FaultPlan::none`], so re-running it per kind would triple-count one
/// cell.
struct CellSpec {
    kind: Kind,
    intensity: f64,
}

const CELLS: [CellSpec; 7] = [
    CellSpec {
        kind: Kind::None,
        intensity: 0.0,
    },
    CellSpec {
        kind: Kind::Bias,
        intensity: 0.5,
    },
    CellSpec {
        kind: Kind::Bias,
        intensity: 1.0,
    },
    CellSpec {
        kind: Kind::Burst,
        intensity: 0.5,
    },
    CellSpec {
        kind: Kind::Burst,
        intensity: 1.0,
    },
    CellSpec {
        kind: Kind::Full,
        intensity: 0.5,
    },
    CellSpec {
        kind: Kind::Full,
        intensity: 1.0,
    },
];

/// The fault plan of one cell. The `bias`/`burst` arms take exactly the
/// matching component of [`FaultPlan::at_intensity`] (kept in sync with
/// that constructor) so the `full` rows read as their composition.
fn plan_for(spec: &CellSpec, seed: u64) -> FaultPlan {
    let i = spec.intensity;
    match spec.kind {
        Kind::None => FaultPlan::none(),
        Kind::Full => FaultPlan::at_intensity(seed, i),
        Kind::Bias => FaultPlan {
            seed,
            kernel: None,
            predictor: Some(PredictorFault::Bias {
                factor: 1.0 - 0.5 * i,
            }),
            burst: None,
        },
        Kind::Burst => FaultPlan {
            seed,
            kernel: None,
            predictor: None,
            burst: Some(ArrivalBurst {
                start_ms: BURST_ONSET_MS,
                end_ms: BURST_END_MS,
                extra_qps: 60.0 * i,
            }),
        },
    }
}

struct Cell {
    rounds: usize,
    violation_ratio: f64,
    queue_p50_ms: f64,
    queue_p99_ms: f64,
    queue_p999_ms: f64,
    solo_samples: u64,
    solo_ewma_abs: f64,
    multi_ewma_abs: f64,
    /// First solo-class drift alarm (the online OOD finding), sim clock.
    solo_drift_ms: Option<f64>,
    /// First multi-way-class drift alarm (the injected-fault signal).
    multi_drift_ms: Option<f64>,
    first_burn_ms: Option<f64>,
    budget_exhausted_ms: Option<f64>,
    alerts: usize,
    alerts_json: String,
    flight_json: Option<String>,
    invariant_violations: usize,
}

fn opt_csv(v: Option<f64>) -> f64 {
    v.unwrap_or(-1.0)
}

fn opt_json(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x}"),
        None => "null".to_string(),
    }
}

fn opt_table(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.0}"),
        None => "-".to_string(),
    }
}

pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let models = [ModelId::ResNet50, ModelId::ResNet152];
    // Same pair and tag as the fault sweep: the cached predictor is shared.
    let mlp = ensure_predictor("faults_a100", &[models.to_vec()], &lib, &gpu, opts);

    let abacus = AbacusConfig {
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..AbacusConfig::default()
    };
    // One workload seed and one plan seed across the grid (dose-response
    // reading, as in the fault sweep). The horizon always covers the burst
    // window plus recovery, even at --fast.
    let cfg_seed = fork_seed(opts.seed, 0x8E00);
    let plan_seed = fork_seed(opts.seed, 0x8E17);
    let horizon_ms = opts.scale.horizon_ms().max(6_000.0);

    let results: Vec<Cell> = map_cells(opts.parallel, &CELLS, |spec| {
        let plan = plan_for(spec, plan_seed);
        let cfg = ColocationConfig {
            qps_per_service: LOAD_QPS / models.len() as f64,
            horizon_ms,
            seed: cfg_seed,
            small_inputs: false,
            abacus: abacus.clone(),
        };
        // SLO windows tuned to the study's per-service rate (~15 QPS): the
        // library defaults admit 20-sample windows, which alarm on the
        // marginal warm-up violation cluster every cell shares. Requiring
        // 30 samples per window (~2 s of queries) keeps the healthy
        // baseline quiet without delaying the burst signal materially.
        let mut tel = Telemetry::default();
        tel.enable_health(HealthConfig {
            slo: SloConfig {
                min_samples: 30,
                exhaust_min_samples: 80,
                ..SloConfig::default()
            },
            ..HealthConfig::default()
        });
        let out = run_colocation_observed(
            &models,
            PolicyKind::Abacus,
            Some(as_model(&mlp)),
            None,
            &lib,
            &gpu,
            &noise,
            &cfg,
            &plan,
            NodeOptions::default(),
            Some(&mut tel),
        );
        for violation in &out.invariant_violations {
            eprintln!(
                "[health] INVARIANT VIOLATION ({}@{}): {violation}",
                spec.kind.label(),
                spec.intensity
            );
        }
        let h = tel.health().expect("health monitors are enabled");
        let multi_drift_ms = (1..WIDTH_CLASSES)
            .filter_map(|c| h.drift().class(c).alarmed_at_ms)
            .min_by(f64::total_cmp);
        let first_burn_ms = h
            .alerts()
            .iter()
            .find(|a| matches!(a.kind, HealthAlertKind::BurnRate { .. }))
            .map(|a| a.at_ms);
        let budget_exhausted_ms = h
            .alerts()
            .iter()
            .find(|a| matches!(a.kind, HealthAlertKind::BudgetExhausted { .. }))
            .map(|a| a.at_ms);
        let alerts_json = format!(
            "[{}]",
            h.alerts()
                .iter()
                .map(|a| a.to_json())
                .collect::<Vec<_>>()
                .join(",")
        );
        Cell {
            rounds: tel.ledger.rows().len(),
            violation_ratio: out.result.violation_ratio(),
            queue_p50_ms: h.queue_sketch().quantile(50.0),
            queue_p99_ms: h.queue_sketch().quantile(99.0),
            queue_p999_ms: h.queue_sketch().quantile(99.9),
            solo_samples: h.drift().class(0).samples,
            solo_ewma_abs: h.drift().class(0).ewma_abs,
            multi_ewma_abs: h.drift().class(1).ewma_abs,
            solo_drift_ms: h.drift().class(0).alarmed_at_ms,
            multi_drift_ms,
            first_burn_ms,
            budget_exhausted_ms,
            alerts: h.alerts().len(),
            alerts_json,
            flight_json: h.flight().dump().map(|d| d.to_json()),
            invariant_violations: out.invariant_violations.len(),
        }
    });

    let headers = [
        "cell",
        "intensity",
        "rounds",
        "violation_ratio",
        "queue_p50_ms",
        "queue_p99_ms",
        "queue_p999_ms",
        "solo_ewma_abs",
        "multi_ewma_abs",
        "solo_drift_ms",
        "multi_drift_ms",
        "first_burn_ms",
        "budget_exhausted_ms",
        "alerts",
    ];
    let mut csv = CsvWriter::create(opts.csv_path("health"), &headers).expect("csv");
    for (spec, c) in CELLS.iter().zip(&results) {
        csv.write_record(
            spec.kind.label(),
            &[
                spec.intensity,
                c.rounds as f64,
                c.violation_ratio,
                c.queue_p50_ms,
                c.queue_p99_ms,
                c.queue_p999_ms,
                c.solo_ewma_abs,
                c.multi_ewma_abs,
                opt_csv(c.solo_drift_ms),
                opt_csv(c.multi_drift_ms),
                opt_csv(c.first_burn_ms),
                opt_csv(c.budget_exhausted_ms),
                c.alerts as f64,
            ],
        )
        .expect("row");
    }
    csv.flush().expect("flush");

    let mut json = String::from("{\"cells\":[\n");
    for (i, (spec, c)) in CELLS.iter().zip(&results).enumerate() {
        json.push_str(&format!(
            "{{\"cell\":\"{}\",\"intensity\":{},\"rounds\":{},\"violation_ratio\":{},\"queue_p50_ms\":{},\"queue_p99_ms\":{},\"queue_p999_ms\":{},\"solo_ewma_abs\":{},\"multi_ewma_abs\":{},\"solo_drift_ms\":{},\"multi_drift_ms\":{},\"first_burn_ms\":{},\"budget_exhausted_ms\":{},\"alerts\":{}}}",
            spec.kind.label(),
            spec.intensity,
            c.rounds,
            c.violation_ratio,
            c.queue_p50_ms,
            c.queue_p99_ms,
            c.queue_p999_ms,
            c.solo_ewma_abs,
            c.multi_ewma_abs,
            opt_json(c.solo_drift_ms),
            opt_json(c.multi_drift_ms),
            opt_json(c.first_burn_ms),
            opt_json(c.budget_exhausted_ms),
            c.alerts_json,
        ));
        if i + 1 < results.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("]}\n");
    std::fs::write(opts.out_dir.join("health.json"), json).expect("health.json");

    let flight = results
        .iter()
        .find_map(|c| c.flight_json.clone())
        .unwrap_or_else(FlightDump::empty_json);
    std::fs::write(opts.out_dir.join("flight.json"), flight).expect("flight.json");

    println!(
        "Run-health study — detection latency of the drift and SLO burn monitors ({} pair, {LOAD_QPS} QPS aggregate, horizon {horizon_ms} ms)",
        pair_label(&models)
    );
    let mut table = Table::new(vec![
        "cell",
        "intensity",
        "viol",
        "q99 ms",
        "drift@ms",
        "lat ms",
        "burn@ms",
        "lat ms",
        "alerts",
    ]);
    let mut total_invariant_violations = 0usize;
    for (spec, c) in CELLS.iter().zip(&results) {
        total_invariant_violations += c.invariant_violations;
        // Drift latency from onset 0 (bias is live from the first round);
        // burn latency from the burst-window start.
        let drift_lat = match spec.kind {
            Kind::Bias | Kind::Full => c.multi_drift_ms,
            _ => None,
        };
        let burn_lat = match spec.kind {
            Kind::Burst | Kind::Full => c.first_burn_ms.map(|t| t - BURST_ONSET_MS),
            _ => None,
        };
        table.row(vec![
            spec.kind.label().to_string(),
            format!("{}", spec.intensity),
            format!("{:.3}", c.violation_ratio),
            format!("{:.2}", c.queue_p99_ms),
            opt_table(c.multi_drift_ms),
            opt_table(drift_lat),
            opt_table(c.first_burn_ms),
            opt_table(burn_lat),
            format!("{}", c.alerts),
        ]);
    }
    println!("{}", table.render());

    let base = &results[0];
    println!(
        "baseline OOD check: {} solo rounds at EWMA |err| {:.0}% vs 2-way {:.1}% — drift:solo {}",
        base.solo_samples,
        base.solo_ewma_abs * 100.0,
        base.multi_ewma_abs * 100.0,
        match base.solo_drift_ms {
            Some(t) => format!(
                "alarmed at {t:.0} ms (solo-round out-of-distribution regime, detected online)"
            ),
            None => "stayed quiet (no solo rounds reached warm-up)".to_string(),
        }
    );
    match results.iter().position(|c| c.flight_json.is_some()) {
        Some(i) => println!(
            "flight.json: dump from cell {}@{}",
            CELLS[i].kind.label(),
            CELLS[i].intensity
        ),
        None => println!("flight.json: no cell tripped the recorder"),
    }
    if total_invariant_violations > 0 {
        eprintln!(
            "[health] {total_invariant_violations} serving-invariant violations — see log above"
        );
        std::process::exit(1);
    }
    println!("serving invariants held in every cell");
}
