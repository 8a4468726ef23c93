//! The Fig. 14/15 and Fig. 17 pair grids: all 21 model pairs × {FCFS, SJF,
//! EDF, Abacus} on one simulated A100, one cell per (pair, policy).
//!
//! `pairs-qos` runs each cell through `serving::run_colocation` at the
//! unsaturating load; `pairs-peak-observed` runs it through
//! `serving::run_colocation_observed` at the saturating load, under a fault
//! plan, with the invariant checker and the run-health telemetry on.

use abacus_core::{
    AbacusConfig, AbacusScheduler, BaselinePolicy, BaselineScheduler, Scheduler, SegmentalExecutor,
};
use abacus_metrics::{QueryRecord, ServiceStats};
use dnn_models::{ModelId, ModelLibrary};
use faults::FaultPlan;
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{all_pairs, LatencyModel};
use serving::{
    build_faulty_workload, build_workload, make_scheduler, run_colocation, run_colocation_observed,
    services_for, simulate_node_checked, simulate_node_instrumented, ColocationConfig,
    ColocationResult, InvariantChecker, NodeOptions, NodeWorkload, PolicyKind, ServiceSpec,
};
use std::sync::Arc;
use std::time::Instant;
use telemetry::Telemetry;
use workload::fork_seed;

use crate::digest::Digest;
use crate::probe::{elapsed_ns, secs, DecideStats, ForwardStats, TimedModel, TimedScheduler};
use crate::train;
use crate::{median, par_map, Layers, PassOutcome, PREDICT_ROUND_MS};

/// Simulated horizon of every cell, ms.
const HORIZON_MS: f64 = 40_000.0;
/// Aggregate offered load per GPU, QPS: Fig. 14's unsaturating load.
const QOS_LOAD: f64 = 50.0;
/// Aggregate offered load per GPU, QPS: Fig. 17's saturating load.
const PEAK_LOAD: f64 = 100.0;
/// Fault intensity of the observed grid (kernel spikes, predictor bias
/// and an arrival burst; see `FaultPlan::at_intensity`).
const FAULT_INTENSITY: f64 = 0.5;

/// Which grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Fig. 14/15 QoS grid through `run_colocation`.
    Qos,
    /// Fig. 17 peak grid through `run_colocation_observed`.
    PeakObserved,
}

/// One pair's row: its models and the configuration its four cells share.
struct Row {
    models: Vec<ModelId>,
    cfg: ColocationConfig,
    plan: FaultPlan,
    arrivals: usize,
}

/// Everything set-up builds for a grid.
pub struct Fixture {
    grid: Grid,
    lib: Arc<ModelLibrary>,
    gpu: GpuSpec,
    noise: NoiseModel,
    model: Arc<dyn LatencyModel>,
    rows: Vec<Row>,
}

fn pair_sets() -> Vec<Vec<ModelId>> {
    all_pairs().iter().map(|p| p.to_vec()).collect()
}

/// Build the fixture: model library, the unified predictor over all 21
/// pairs, and every row's arrivals.
pub fn setup(grid: Grid, seed: u64) -> Fixture {
    let lib = Arc::new(ModelLibrary::new());
    let (gpu, noise) = (GpuSpec::a100(), NoiseModel::calibrated());
    let model = train::train(&pair_sets(), &lib, &gpu, &noise);
    Fixture::new(grid, seed, lib, gpu, noise, model)
}

impl Fixture {
    fn new(
        grid: Grid,
        seed: u64,
        lib: Arc<ModelLibrary>,
        gpu: GpuSpec,
        noise: NoiseModel,
        model: Arc<dyn LatencyModel>,
    ) -> Self {
        let total_qps = match grid {
            Grid::Qos => QOS_LOAD,
            Grid::PeakObserved => PEAK_LOAD,
        };
        let abacus = AbacusConfig {
            predict_round_ms: Some(PREDICT_ROUND_MS),
            ..AbacusConfig::default()
        };
        let rows = pair_sets()
            .into_iter()
            .enumerate()
            .map(|(row, models)| {
                let cfg = ColocationConfig {
                    qps_per_service: total_qps / models.len() as f64,
                    horizon_ms: HORIZON_MS,
                    seed: fork_seed(seed, row as u64),
                    small_inputs: false,
                    abacus: abacus.clone(),
                };
                let plan = match grid {
                    Grid::Qos => FaultPlan::none(),
                    Grid::PeakObserved => FaultPlan::at_intensity(
                        fork_seed(seed ^ 0xFA17, row as u64),
                        FAULT_INTENSITY,
                    ),
                };
                let services = services_for(&models, &lib, &gpu, false);
                let arrivals = workload_of(grid, &services, &lib, &cfg, &plan).len();
                Row {
                    models,
                    cfg,
                    plan,
                    arrivals,
                }
            })
            .collect();
        Self {
            grid,
            lib,
            gpu,
            noise,
            model,
            rows,
        }
    }

    fn cells(&self) -> Vec<(usize, PolicyKind)> {
        (0..self.rows.len())
            .flat_map(|row| PolicyKind::ALL.into_iter().map(move |p| (row, p)))
            .collect()
    }
}

fn workload_of(
    grid: Grid,
    services: &[ServiceSpec],
    lib: &ModelLibrary,
    cfg: &ColocationConfig,
    plan: &FaultPlan,
) -> NodeWorkload {
    match grid {
        Grid::Qos => build_workload(services, lib, cfg),
        Grid::PeakObserved => build_faulty_workload(services, lib, cfg, plan),
    }
}

/// The outcome of one cell, untraced or traced: what the checks and the
/// end-to-end metrics need.
struct Cell {
    policy: PolicyKind,
    queries: u64,
    failed: u64,
    digest: u64,
    result: ColocationResult,
}

/// Telemetry and checker readings of an observed cell.
#[derive(Default)]
struct Observed {
    events: u64,
    ledger_rows: u64,
    alerts: u64,
    violations: u64,
}

impl Observed {
    fn of(tel: &Telemetry, violations: usize) -> Self {
        Self {
            events: tel.events().len() as u64,
            ledger_rows: tel.ledger.len() as u64,
            alerts: tel.health().map_or(0, |h| h.alerts().len() as u64),
            violations: violations as u64,
        }
    }
}

/// Check a cell and digest it. A cell whose arrivals are not each
/// accounted for exactly once, or whose invariant checker fired, fails
/// every query it was offered.
fn cell(
    row: &Row,
    policy: PolicyKind,
    result: ColocationResult,
    records: Option<&[QueryRecord]>,
    observed: Option<&Observed>,
) -> Cell {
    let mut d = Digest::default();
    match records {
        // `run_colocation` returns only aggregated statistics.
        None => {
            for s in result.per_service.iter().chain([&result.all]) {
                d.stats(s);
            }
        }
        Some(records) => d.records(records),
    }
    let mut broken = result.all.total() != row.arrivals;
    if let Some(o) = observed {
        for w in [o.events, o.ledger_rows, o.alerts, o.violations] {
            d.word(w);
        }
        broken |= o.violations > 0;
    }
    let queries = row.arrivals as u64;
    Cell {
        policy,
        queries,
        failed: if broken { queries } else { 0 },
        digest: d.value(),
        result,
    }
}

/// Aggregate records the way the serving entry points do.
fn aggregate(
    records: &[QueryRecord],
    services: &[ServiceSpec],
    horizon_ms: f64,
) -> ColocationResult {
    let mut per_service = vec![ServiceStats::new(); services.len()];
    let mut all = ServiceStats::new();
    for r in records {
        per_service[r.service].record(r);
        all.record(r);
    }
    ColocationResult {
        per_service,
        all,
        horizon_ms,
        qos_ms: services.iter().map(|s| s.qos_ms).collect(),
    }
}

/// One untraced pass over the grid through the public entry points.
pub fn run(fx: &Fixture, threads: usize) -> PassOutcome {
    let cells = fx.cells();
    let out = par_map(threads, cells.len(), |i| {
        let (r, policy) = cells[i];
        let row = &fx.rows[r];
        let pred = (policy == PolicyKind::Abacus).then(|| fx.model.clone());
        match fx.grid {
            Grid::Qos => {
                let res = run_colocation(
                    &row.models,
                    policy,
                    pred,
                    &fx.lib,
                    &fx.gpu,
                    &fx.noise,
                    &row.cfg,
                );
                cell(row, policy, res, None, None)
            }
            Grid::PeakObserved => {
                let mut tel = Telemetry::with_health();
                let out = run_colocation_observed(
                    &row.models,
                    policy,
                    pred,
                    None,
                    &fx.lib,
                    &fx.gpu,
                    &fx.noise,
                    &row.cfg,
                    &row.plan,
                    NodeOptions::default(),
                    Some(&mut tel),
                );
                let obs = Observed::of(&tel, out.invariant_violations.len());
                cell(row, policy, out.result, Some(&out.records), Some(&obs))
            }
        }
    });
    summarize(&out)
}

fn summarize<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> PassOutcome {
    let mut d = Digest::default();
    let (mut queries, mut failed) = (0, 0);
    let (mut viol, mut p99, mut goodput, mut n) = (0.0, 0.0, 0.0, 0.0);
    for c in cells {
        d.word(c.digest);
        queries += c.queries;
        failed += c.failed;
        if c.policy == PolicyKind::Abacus {
            viol += c.result.violation_ratio();
            p99 += c.result.normalized_p99();
            goodput += c.result.goodput_qps();
            n += 1.0;
        }
    }
    PassOutcome {
        attempted: queries,
        queries,
        failed,
        checked: failed == 0,
        digest: d.value(),
        violation_ratio: viol / n,
        p99_over_qos: p99 / n,
        goodput_qps: goodput / n,
    }
}

/// Per-cell readings of the traced pass.
#[derive(Default)]
struct CellTrace {
    gen_ns: u64,
    node_ns: u64,
    decide: DecideStats,
    forward_ns: u64,
    forward_calls: u64,
    forward_rows: u64,
    engine_events: u64,
    groups: u64,
    busy_ms: f64,
    span_ms: f64,
    fault_spikes: u64,
    observed: Observed,
}

/// The scheduler `run_colocation_observed` builds for `policy`.
fn observed_scheduler(
    policy: PolicyKind,
    model: Arc<dyn LatencyModel>,
    plan: &FaultPlan,
    fx: &Fixture,
    cfg: &ColocationConfig,
) -> Box<dyn Scheduler> {
    let baseline = |kind| -> Box<dyn Scheduler> {
        Box::new(BaselineScheduler::new(kind, fx.lib.clone(), fx.gpu.clone()))
    };
    match policy {
        PolicyKind::Fcfs => baseline(BaselinePolicy::Fcfs),
        PolicyKind::Sjf => baseline(BaselinePolicy::Sjf),
        PolicyKind::Edf => baseline(BaselinePolicy::Edf),
        PolicyKind::Abacus => Box::new(AbacusScheduler::with_certifier(
            plan.wrap_predictor(model),
            None,
            fx.lib.clone(),
            cfg.abacus.clone(),
        )),
    }
}

/// One cell rebuilt from the entry points' public parts, with every layer
/// wrapped in a probe.
fn traced_cell(fx: &Fixture, r: usize, policy: PolicyKind) -> (Cell, CellTrace) {
    let row = &fx.rows[r];
    let cfg = &row.cfg;
    let mut tr = CellTrace::default();
    let services = services_for(&row.models, &fx.lib, &fx.gpu, cfg.small_inputs);
    let t = Instant::now();
    let wl = workload_of(fx.grid, &services, &fx.lib, cfg, &row.plan);
    tr.gen_ns = elapsed_ns(t);

    let fwd = Arc::new(ForwardStats::default());
    let model = TimedModel::wrap(fx.model.clone(), fwd.clone());
    let inner = match fx.grid {
        Grid::Qos => {
            let pred = (policy == PolicyKind::Abacus).then(|| model.clone());
            make_scheduler(policy, pred, &fx.lib, &fx.gpu, cfg)
        }
        Grid::PeakObserved => observed_scheduler(policy, model, &row.plan, fx, cfg),
    };
    let mut sched = TimedScheduler::new(inner, fwd.clone());
    let mut exec = SegmentalExecutor::new(
        fx.gpu.clone(),
        fx.noise.clone(),
        fx.lib.clone(),
        fork_seed(cfg.seed, 0xE0),
    );
    let (records, observed) = match fx.grid {
        Grid::Qos => {
            let t = Instant::now();
            let records = simulate_node_checked(
                &mut sched,
                &mut exec,
                &fx.lib,
                &services,
                &wl,
                NodeOptions::default(),
                None,
            );
            tr.node_ns = elapsed_ns(t);
            (records, None)
        }
        Grid::PeakObserved => {
            exec.set_kernel_faults(row.plan.kernel_fault_spec());
            let mut tel = Telemetry::with_health();
            if policy == PolicyKind::Abacus {
                tel.set_predictor_ways(cfg.abacus.ways);
            }
            let mut checker = InvariantChecker::new();
            let t = Instant::now();
            let records = simulate_node_instrumented(
                &mut sched,
                &mut exec,
                &fx.lib,
                &services,
                &wl,
                NodeOptions::default(),
                Some(&mut checker),
                Some(&mut tel),
            );
            tr.node_ns = elapsed_ns(t);
            (
                records,
                Some(Observed::of(&tel, checker.violations().len())),
            )
        }
    };
    tr.decide = sched.stats();
    tr.forward_ns = fwd.ns();
    tr.forward_calls = fwd.calls();
    tr.forward_rows = fwd.rows();
    tr.engine_events = exec.engine_events();
    tr.groups = exec.rounds();
    tr.busy_ms = exec.busy_ms();
    tr.span_ms = records
        .iter()
        .map(|q| q.arrival_ms + q.latency_ms)
        .fold(0.0, f64::max);
    tr.fault_spikes = exec.fault_spikes();
    let result = aggregate(&records, &services, cfg.horizon_ms);
    let recs = (fx.grid == Grid::PeakObserved).then_some(records.as_slice());
    let c = cell(row, policy, result, recs, observed.as_ref());
    tr.observed = observed.unwrap_or_default();
    (c, tr)
}

/// The traced run: set-up with profiling and fitting timed apart, then
/// `reps` passes with every layer probed. Returns each pass's outcome
/// (whose digests must equal the untraced passes') and the per-layer
/// readings of the last pass, with the median pass wall time.
pub fn run_traced(
    grid: Grid,
    seed: u64,
    threads: usize,
    reps: usize,
) -> (Vec<PassOutcome>, Layers) {
    let lib = Arc::new(ModelLibrary::new());
    let (gpu, noise) = (GpuSpec::a100(), NoiseModel::calibrated());
    let trained = train::train_traced(&pair_sets(), &lib, &gpu, &noise);
    let fx = Fixture::new(grid, seed, lib, gpu, noise, trained.model.clone());
    let cells = fx.cells();
    let mut passes = Vec::with_capacity(reps);
    let mut walls = Vec::with_capacity(reps);
    let mut out = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        out = par_map(threads, cells.len(), |i| {
            traced_cell(&fx, cells[i].0, cells[i].1)
        });
        walls.push(secs(elapsed_ns(t)));
        passes.push(summarize(out.iter().map(|(c, _)| c)));
    }

    let mut l = Layers::default();
    l.set("setup.profile_s", secs(trained.profile_ns));
    l.set("setup.fit_s", secs(trained.fit_ns));
    l.set("setup.samples", trained.samples as f64);
    l.set("trace.wall_s", median(&mut walls));
    let mut decide = DecideStats::default();
    let (mut gen, mut node, mut fwd_ns, mut fwd_calls, mut fwd_rows) = (0, 0, 0, 0, 0);
    let (mut events, mut groups, mut busy, mut span, mut spikes) = (0, 0, 0.0, 0.0, 0);
    let mut obs = Observed::default();
    let mut arrivals = 0;
    for (c, tr) in &out {
        gen += tr.gen_ns;
        node += tr.node_ns;
        decide.merge(&tr.decide);
        let key = format!("core.decide_self_s.{}", c.policy.name().to_lowercase());
        l.add(&key, secs(tr.decide.self_ns()));
        fwd_ns += tr.forward_ns;
        fwd_calls += tr.forward_calls;
        fwd_rows += tr.forward_rows;
        events += tr.engine_events;
        groups += tr.groups;
        busy += tr.busy_ms;
        span += tr.span_ms;
        spikes += tr.fault_spikes;
        obs.events += tr.observed.events;
        obs.ledger_rows += tr.observed.ledger_rows;
        obs.alerts += tr.observed.alerts;
        obs.violations += tr.observed.violations;
        arrivals += c.queries;
    }
    l.set("workload.gen_s", secs(gen));
    l.set("workload.arrivals", arrivals as f64);
    l.set("serving.node_s", secs(node));
    l.set("serving.node_self_s", secs(node.saturating_sub(decide.ns)));
    l.set("core.decide_self_s", secs(decide.self_ns()));
    l.set("core.decide_calls", decide.calls as f64);
    l.set(
        "core.queue_depth_mean",
        decide.depth_sum as f64 / decide.calls.max(1) as f64,
    );
    l.set("core.queue_depth_max", decide.depth_max as f64);
    l.set("core.dropped", decide.dropped as f64);
    l.set("predictor.forward_s", secs(fwd_ns));
    l.set("predictor.forward_calls", fwd_calls as f64);
    l.set(
        "predictor.rows_per_call",
        fwd_rows as f64 / fwd_calls.max(1) as f64,
    );
    l.set("gpu_sim.events", events as f64);
    l.set("gpu_sim.groups", groups as f64);
    l.set(
        "gpu_sim.events_per_group",
        events as f64 / groups.max(1) as f64,
    );
    l.set("gpu_sim.busy_frac", busy / span.max(f64::MIN_POSITIVE));
    l.set("faults.spikes", spikes as f64);
    if grid == Grid::PeakObserved {
        l.set("faults.invariant_violations", obs.violations as f64);
        l.set("telemetry.events", obs.events as f64);
        l.set("telemetry.ledger_rows", obs.ledger_rows as f64);
        l.set("telemetry.alerts", obs.alerts as f64);
    }
    // Shares of the summed per-cell thread time: simulate-node calls plus
    // workload generation.
    let total = (node + gen).max(1) as f64;
    l.share("serving", node.saturating_sub(decide.ns) as f64 / total);
    l.share("core", decide.self_ns() as f64 / total);
    l.share("predictor", fwd_ns as f64 / total);
    l.share("workload", gen as f64 / total);
    (passes, l)
}
