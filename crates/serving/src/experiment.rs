//! Experiment drivers for the §7.2–7.5 single-GPU studies.
//!
//! [`run_colocation`] deploys a co-location set on one GPU under a chosen
//! policy and offered load, and aggregates the per-query records into the
//! statistics the paper's figures report; [`run_colocation_observed`] runs
//! the same deployment under a [`FaultPlan`], with the invariant checker
//! and optional telemetry. Both run one body. The workload (arrival times
//! and query inputs) is derived solely from the experiment seed, so the
//! four policies of a figure row are compared on *identical* query streams.

use crate::invariants::InvariantChecker;
use crate::node::{simulate_node_instrumented, NodeOptions, NodeWorkload, ServiceSpec};
use abacus_core::{
    AbacusConfig, AbacusScheduler, BaselinePolicy, BaselineScheduler, Scheduler, SegmentalExecutor,
};
use abacus_metrics::{QueryRecord, ServiceStats};
use dnn_models::{ModelId, ModelLibrary};
use faults::{burst_arrivals, burst_input_rng, FaultPlan};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use std::sync::Arc;
use telemetry::Telemetry;
use workload::{fork_seed, merge_arrivals, PoissonProcess, SeededRng};

/// The four policies compared throughout §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// First come, first served (Nexus/Clockwork default).
    Fcfs,
    /// Shortest job first.
    Sjf,
    /// Earliest deadline first.
    Edf,
    /// The paper's system.
    Abacus,
}

impl PolicyKind {
    /// All policies in the paper's figure order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fcfs,
        PolicyKind::Sjf,
        PolicyKind::Edf,
        PolicyKind::Abacus,
    ];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::Sjf => "SJF",
            PolicyKind::Edf => "EDF",
            PolicyKind::Abacus => "Abacus",
        }
    }
}

/// One co-location experiment's knobs.
#[derive(Debug, Clone)]
pub struct ColocationConfig {
    /// Offered load per service, queries per second (50 for the QoS
    /// studies, 100 for peak throughput).
    pub qps_per_service: f64,
    /// Measurement horizon, ms.
    pub horizon_ms: f64,
    /// Experiment seed (drives arrivals, inputs, and execution noise).
    pub seed: u64,
    /// Fig. 16 mode: pin every query to the model's minimum input and
    /// tighten QoS to 2× the minimum-input solo latency.
    pub small_inputs: bool,
    /// Abacus controller configuration.
    pub abacus: AbacusConfig,
}

impl Default for ColocationConfig {
    fn default() -> Self {
        Self {
            qps_per_service: 50.0,
            horizon_ms: 30_000.0,
            seed: 2021,
            small_inputs: false,
            abacus: AbacusConfig::default(),
        }
    }
}

/// Aggregated outcome of one (co-location set, policy) run.
#[derive(Debug, Clone)]
pub struct ColocationResult {
    /// Stats per service, in deployment order.
    pub per_service: Vec<ServiceStats>,
    /// Pooled stats over every query of the run.
    pub all: ServiceStats,
    /// The horizon used (for throughput normalisation).
    pub horizon_ms: f64,
    /// Per-service QoS targets, ms.
    pub qos_ms: Vec<f64>,
}

impl ColocationResult {
    /// Pooled p99 normalised to the *mean* QoS target (the paper's Fig. 14
    /// normalises each pair's latency to its QoS target).
    pub fn normalized_p99(&self) -> f64 {
        let mean_qos = self.qos_ms.iter().sum::<f64>() / self.qos_ms.len() as f64;
        self.all.p99_latency() / mean_qos
    }

    /// Pooled QoS violation ratio (drops count, Fig. 15).
    pub fn violation_ratio(&self) -> f64 {
        self.all.violation_ratio()
    }

    /// Goodput in queries/s (completions within QoS).
    pub fn goodput_qps(&self) -> f64 {
        self.all.goodput_qps(self.horizon_ms)
    }

    /// Peak throughput in completed queries/s (Fig. 17 convention).
    pub fn completed_qps(&self) -> f64 {
        self.all.completed_qps(self.horizon_ms)
    }
}

/// Build the deterministic workload for a deployment.
pub fn build_workload(
    services: &[ServiceSpec],
    lib: &ModelLibrary,
    cfg: &ColocationConfig,
) -> NodeWorkload {
    let mut rng = SeededRng::new(fork_seed(cfg.seed, 0x77));
    let streams: Vec<_> = (0..services.len())
        .map(|s| PoissonProcess::new(s, cfg.qps_per_service).generate(cfg.horizon_ms, &mut rng))
        .collect();
    let arrivals = merge_arrivals(streams);
    let inputs = arrivals
        .iter()
        .map(|a| {
            let model = services[a.service].model;
            if cfg.small_inputs {
                model.min_input()
            } else {
                lib.random_input(model, &mut rng)
            }
        })
        .collect();
    NodeWorkload::new(arrivals, inputs)
}

/// Resolve the deployment's services with their QoS targets on `gpu`.
pub fn services_for(
    models: &[ModelId],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    small_inputs: bool,
) -> Vec<ServiceSpec> {
    models
        .iter()
        .map(|&m| ServiceSpec {
            model: m,
            qos_ms: if small_inputs {
                lib.qos_target_small_ms(m, gpu)
            } else {
                lib.qos_target_ms(m, gpu)
            },
        })
        .collect()
}

/// Run one co-location experiment.
///
/// `predictor` is required for [`PolicyKind::Abacus`] and ignored
/// otherwise.
pub fn run_colocation(
    models: &[ModelId],
    policy: PolicyKind,
    predictor: Option<Arc<dyn LatencyModel>>,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &ColocationConfig,
) -> ColocationResult {
    let services = services_for(models, lib, gpu, cfg.small_inputs);
    run_with_services(&services, policy, predictor, lib, gpu, noise, cfg)
}

/// Run one co-location experiment with explicitly-specified services.
///
/// The MIG study (Figs. 20–21) needs this: QoS targets stay calibrated to
/// the *full* A100 while the services execute on a slower MIG slice.
pub fn run_with_services(
    services: &[ServiceSpec],
    policy: PolicyKind,
    predictor: Option<Arc<dyn LatencyModel>>,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &ColocationConfig,
) -> ColocationResult {
    let (records, _) = run_deployment(
        services,
        policy,
        predictor,
        None,
        lib,
        gpu,
        noise,
        cfg,
        &FaultPlan::none(),
        NodeOptions::default(),
        None,
        None,
    );
    aggregate(&records, services, cfg)
}

/// Build the scheduler a policy runs under. `predictor` is required for
/// [`PolicyKind::Abacus`].
pub fn make_scheduler(
    policy: PolicyKind,
    predictor: Option<Arc<dyn LatencyModel>>,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    cfg: &ColocationConfig,
) -> Box<dyn Scheduler> {
    scheduler_for(policy, predictor, None, lib, gpu, cfg)
}

/// The one scheduler construction every driver uses: a baseline, or the
/// Abacus controller with an optional conformal certifier.
fn scheduler_for(
    policy: PolicyKind,
    predictor: Option<Arc<dyn LatencyModel>>,
    certifier: Option<Arc<dyn LatencyModel>>,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    cfg: &ColocationConfig,
) -> Box<dyn Scheduler> {
    let baseline = |kind| -> Box<dyn Scheduler> {
        Box::new(BaselineScheduler::new(kind, lib.clone(), gpu.clone()))
    };
    match policy {
        PolicyKind::Fcfs => baseline(BaselinePolicy::Fcfs),
        PolicyKind::Sjf => baseline(BaselinePolicy::Sjf),
        PolicyKind::Edf => baseline(BaselinePolicy::Edf),
        PolicyKind::Abacus => Box::new(AbacusScheduler::with_certifier(
            predictor.expect("Abacus needs a latency predictor"),
            certifier,
            lib.clone(),
            cfg.abacus.clone(),
        )),
    }
}

/// The body every co-location driver runs: the workload under `plan`, an
/// executor seeded from the experiment seed, the policy's scheduler and the
/// serving loop. Returns the records and whether the scheduler degraded.
///
/// Fault plans wrap only the *mean* predictor: the certifier bounds the
/// healthy model, and a faulted mean is the failure mode the controller's
/// defenses watch. `FaultPlan::none()` injects nothing.
#[allow(clippy::too_many_arguments)]
fn run_deployment(
    services: &[ServiceSpec],
    policy: PolicyKind,
    predictor: Option<Arc<dyn LatencyModel>>,
    certifier: Option<Arc<dyn LatencyModel>>,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &ColocationConfig,
    plan: &FaultPlan,
    opts: NodeOptions,
    checker: Option<&mut InvariantChecker>,
    mut telemetry: Option<&mut Telemetry>,
) -> (Vec<QueryRecord>, bool) {
    let workload = build_faulty_workload(services, lib, cfg, plan);
    let mut executor = SegmentalExecutor::new(
        gpu.clone(),
        noise.clone(),
        lib.clone(),
        fork_seed(cfg.seed, 0xE0),
    );
    executor.set_kernel_faults(plan.kernel_fault_spec());
    if let Some(t) = telemetry.as_deref_mut() {
        if t.kernel_trace_enabled() {
            executor.enable_kernel_trace();
        }
        if policy == PolicyKind::Abacus {
            t.set_predictor_ways(cfg.abacus.ways);
        }
    }
    let predictor = predictor.map(|p| plan.wrap_predictor(p));
    let mut scheduler = scheduler_for(policy, predictor, certifier, lib, gpu, cfg);
    let records = simulate_node_instrumented(
        scheduler.as_mut(),
        &mut executor,
        lib,
        services,
        &workload,
        opts,
        checker,
        telemetry,
    );
    (records, scheduler.is_degraded())
}

fn aggregate(
    records: &[QueryRecord],
    services: &[ServiceSpec],
    cfg: &ColocationConfig,
) -> ColocationResult {
    let mut per_service: Vec<ServiceStats> = services.iter().map(|_| ServiceStats::new()).collect();
    let mut all = ServiceStats::new();
    for r in records {
        per_service[r.service].record(r);
        all.record(r);
    }
    ColocationResult {
        per_service,
        all,
        horizon_ms: cfg.horizon_ms,
        qos_ms: services.iter().map(|s| s.qos_ms).collect(),
    }
}

/// The deterministic workload for a deployment with a [`FaultPlan`]'s
/// arrival burst merged in.
///
/// The base workload's RNG draws are untouched — the burst arrivals and
/// their inputs come from streams forked off the *plan* seed, then the two
/// time-sorted streams are merged stably by `(at_ms, service)` with the
/// base stream winning ties. A plan without a burst returns exactly
/// [`build_workload`]'s output.
pub fn build_faulty_workload(
    services: &[ServiceSpec],
    lib: &ModelLibrary,
    cfg: &ColocationConfig,
    plan: &FaultPlan,
) -> NodeWorkload {
    let base = build_workload(services, lib, cfg);
    let Some(burst) = plan.burst else {
        return base;
    };
    let extra = burst_arrivals(&burst, services.len(), plan.seed);
    if extra.is_empty() {
        return base;
    }
    let mut rng = burst_input_rng(plan.seed);
    let extra_inputs: Vec<_> = extra
        .iter()
        .map(|a| {
            let model = services[a.service].model;
            if cfg.small_inputs {
                model.min_input()
            } else {
                lib.random_input(model, &mut rng)
            }
        })
        .collect();
    let mut pairs: Vec<_> = base
        .arrivals
        .into_iter()
        .zip(base.inputs)
        .chain(extra.into_iter().zip(extra_inputs))
        .collect();
    pairs.sort_by(|a, b| {
        a.0.at_ms
            .total_cmp(&b.0.at_ms)
            .then(a.0.service.cmp(&b.0.service))
    });
    let (arrivals, inputs) = pairs.into_iter().unzip();
    NodeWorkload::new(arrivals, inputs)
}

/// Outcome of one fault-injected co-location run.
#[derive(Debug, Clone)]
pub struct FaultRunOutcome {
    /// Aggregated statistics (same shape as the no-fault driver's).
    pub result: ColocationResult,
    /// Raw per-query records, for golden-trace comparisons.
    pub records: Vec<QueryRecord>,
    /// Serving-loop invariant violations detected during the run
    /// (empty = every invariant held).
    pub invariant_violations: Vec<String>,
    /// Whether the Abacus controller degraded to FCFS dispatch
    /// (always `false` for baseline policies).
    pub degraded: bool,
}

/// [`run_colocation`] under a [`FaultPlan`], with the serving-loop
/// invariant checker, defensive [`NodeOptions`], an optional conformal
/// certifier ([`AbacusScheduler::with_certifier`]) and opt-in telemetry —
/// the entry point the fault, certification and run-health studies use
/// (drift detectors and SLO burn monitors ride inside the `Telemetry`).
///
/// With `FaultPlan::none()`, default options, no certifier (or
/// `cfg.abacus.conformal` off) and no telemetry the records are
/// bit-identical to [`run_colocation`]'s: both run one body, and the
/// checker and telemetry only observe (pinned by the golden checksums).
#[allow(clippy::too_many_arguments)]
pub fn run_colocation_observed(
    models: &[ModelId],
    policy: PolicyKind,
    predictor: Option<Arc<dyn LatencyModel>>,
    certifier: Option<Arc<dyn LatencyModel>>,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &ColocationConfig,
    plan: &FaultPlan,
    opts: NodeOptions,
    telemetry: Option<&mut Telemetry>,
) -> FaultRunOutcome {
    let services = services_for(models, lib, gpu, cfg.small_inputs);
    let mut checker = InvariantChecker::new();
    let (records, degraded) = run_deployment(
        &services,
        policy,
        predictor,
        certifier,
        lib,
        gpu,
        noise,
        cfg,
        plan,
        opts,
        Some(&mut checker),
        telemetry,
    );
    FaultRunOutcome {
        result: aggregate(&records, &services, cfg),
        records,
        invariant_violations: checker.violations().to_vec(),
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_unified, TrainerConfig};

    fn setup() -> (Arc<ModelLibrary>, GpuSpec, NoiseModel) {
        (
            Arc::new(ModelLibrary::new()),
            GpuSpec::a100(),
            NoiseModel::calibrated(),
        )
    }

    fn small_cfg() -> ColocationConfig {
        ColocationConfig {
            qps_per_service: 40.0,
            horizon_ms: 6_000.0,
            seed: 3,
            ..ColocationConfig::default()
        }
    }

    #[test]
    fn abacus_beats_fcfs_on_overlap_friendly_pair() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::ResNet152];
        let (mlp, _) = train_unified(
            &[models.to_vec()],
            &lib,
            &gpu,
            &noise,
            &TrainerConfig {
                samples_per_set: 600,
                runs_per_group: 3,
                ..TrainerConfig::fast()
            },
        );
        let mlp: Arc<dyn LatencyModel> = Arc::new(mlp);
        let cfg = small_cfg();
        let fcfs = run_colocation(&models, PolicyKind::Fcfs, None, &lib, &gpu, &noise, &cfg);
        let abacus = run_colocation(
            &models,
            PolicyKind::Abacus,
            Some(mlp),
            &lib,
            &gpu,
            &noise,
            &cfg,
        );
        // Same total queries (identical workload).
        assert_eq!(fcfs.all.total(), abacus.all.total());
        assert!(
            abacus.goodput_qps() >= fcfs.goodput_qps() * 0.98,
            "abacus {} vs fcfs {}",
            abacus.goodput_qps(),
            fcfs.goodput_qps()
        );
        assert!(
            abacus.violation_ratio() <= fcfs.violation_ratio() + 0.02,
            "abacus {} vs fcfs {}",
            abacus.violation_ratio(),
            fcfs.violation_ratio()
        );
    }

    #[test]
    fn policies_see_identical_workloads() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::Bert];
        let cfg = small_cfg();
        let a = run_colocation(&models, PolicyKind::Fcfs, None, &lib, &gpu, &noise, &cfg);
        let b = run_colocation(&models, PolicyKind::Edf, None, &lib, &gpu, &noise, &cfg);
        assert_eq!(a.all.total(), b.all.total());
    }

    #[test]
    fn small_input_mode_tightens_qos() {
        let (lib, gpu, _) = setup();
        let normal = services_for(&[ModelId::ResNet101], &lib, &gpu, false);
        let small = services_for(&[ModelId::ResNet101], &lib, &gpu, true);
        assert!(small[0].qos_ms < normal[0].qos_ms);
    }

    #[test]
    fn faulty_runner_with_none_plan_matches_plain_runner() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::Bert];
        let cfg = small_cfg();
        let plain = run_colocation(&models, PolicyKind::Edf, None, &lib, &gpu, &noise, &cfg);
        let faulty = run_colocation_observed(
            &models,
            PolicyKind::Edf,
            None,
            None,
            &lib,
            &gpu,
            &noise,
            &cfg,
            &faults::FaultPlan::none(),
            crate::node::NodeOptions::default(),
            None,
        );
        assert!(faulty.invariant_violations.is_empty());
        assert!(!faulty.degraded);
        assert_eq!(faulty.result.all.total(), plain.all.total());
        assert_eq!(faulty.result.all.p99_latency(), plain.all.p99_latency());
        assert_eq!(faulty.result.violation_ratio(), plain.violation_ratio());
    }

    #[test]
    fn faulty_run_holds_invariants_and_grows_workload() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::ResNet101];
        let cfg = small_cfg();
        let plan = faults::FaultPlan::at_intensity(11, 0.6);
        let services = services_for(&models, &lib, &gpu, cfg.small_inputs);
        let base = build_workload(&services, &lib, &cfg);
        let bursty = build_faulty_workload(&services, &lib, &cfg, &plan);
        assert!(bursty.len() > base.len(), "burst must add arrivals");
        // Base draws are a subsequence: injection never reshuffles them.
        let mut base_iter = base.arrivals.iter().zip(&base.inputs).peekable();
        for pair in bursty.arrivals.iter().zip(&bursty.inputs) {
            if base_iter.peek() == Some(&pair) {
                base_iter.next();
            }
        }
        assert!(base_iter.peek().is_none(), "base workload perturbed");

        let out = run_colocation_observed(
            &models,
            PolicyKind::Fcfs,
            None,
            None,
            &lib,
            &gpu,
            &noise,
            &cfg,
            &plan,
            crate::node::NodeOptions {
                timeout_factor: Some(4.0),
            },
            None,
        );
        assert_eq!(
            out.invariant_violations,
            Vec::<String>::new(),
            "faults must not break serving invariants"
        );
        assert_eq!(out.result.all.total(), bursty.len());
    }

    #[test]
    fn certified_runner_without_certifier_matches_faulty_runner() {
        // A supplied certifier with the conformal flag off must reproduce
        // the uncertified run bit for bit.
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::Bert];
        let mut cfg = small_cfg();
        // Pin the per-round prediction latency: startup calibration is
        // wall-clock-measured, so unpinned Abacus runs are not repeatable.
        cfg.abacus.predict_round_ms = Some(0.08);
        let (mlp, _) = crate::trainer::train_unified(
            &[models.to_vec()],
            &lib,
            &gpu,
            &noise,
            &TrainerConfig::fast(),
        );
        let mlp: Arc<dyn LatencyModel> = Arc::new(mlp);
        let run = |certifier: Option<Arc<dyn LatencyModel>>| {
            run_colocation_observed(
                &models,
                PolicyKind::Abacus,
                Some(mlp.clone()),
                certifier,
                &lib,
                &gpu,
                &noise,
                &cfg,
                &faults::FaultPlan::none(),
                crate::node::NodeOptions::default(),
                None,
            )
        };
        let plain = run(None);
        // Flag off: an attached certifier must be inert.
        assert!(!cfg.abacus.conformal);
        assert_eq!(run(Some(mlp.clone())).records, plain.records);
    }

    #[test]
    fn conformal_certification_changes_planning_when_enabled() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::ResNet152];
        let mut cfg = small_cfg();
        cfg.abacus.conformal = true;
        let certified = crate::trainer::train_certified(
            &[models.to_vec()],
            &lib,
            &gpu,
            &noise,
            &TrainerConfig::fast(),
            0.05,
        );
        let mean: Arc<dyn LatencyModel> = Arc::new(certified.mean);
        let upper: Arc<dyn LatencyModel> = Arc::new(certified.certifier);
        let out = run_colocation_observed(
            &models,
            PolicyKind::Abacus,
            Some(mean),
            Some(upper),
            &lib,
            &gpu,
            &noise,
            &cfg,
            &faults::FaultPlan::none(),
            crate::node::NodeOptions::default(),
            None,
        );
        assert!(out.invariant_violations.is_empty());
        assert!(!out.degraded);
        assert!(out.result.all.total() > 0);
        // Certified planning still serves the workload usefully.
        assert!(out.result.violation_ratio() < 0.5);
    }

    #[test]
    fn results_are_reproducible() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::InceptionV3, ModelId::Vgg16];
        let cfg = small_cfg();
        let a = run_colocation(&models, PolicyKind::Edf, None, &lib, &gpu, &noise, &cfg);
        let b = run_colocation(&models, PolicyKind::Edf, None, &lib, &gpu, &noise, &cfg);
        assert_eq!(a.all.p99_latency(), b.all.p99_latency());
        assert_eq!(a.all.total(), b.all.total());
    }
}
