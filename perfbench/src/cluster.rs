//! The Fig. 22 routed run: a MAF-like diurnal trace over the paper's
//! 16×V100 fleet behind the headroom router, through
//! `cluster::run_routed_cluster_on`.

use abacus_core::AbacusConfig;
use abacus_metrics::ServiceStats;
use cluster::{
    cluster_workload, derate_of, run_routed_cluster_on, ClusterConfig, RoutedClusterConfig,
    RoutedRunResult,
};
use dnn_models::{ModelLibrary, QueryInput};
use gpu_sim::NoiseModel;
use predictor::{DeratedModel, LatencyModel};
use std::sync::Arc;
use std::time::Instant;
use workload::{synthesize_maf_like, Arrival};

use crate::digest::Digest;
use crate::probe::{elapsed_ns, secs, ForwardStats, TimedModel};
use crate::train;
use crate::{median, Layers, PassOutcome, PREDICT_ROUND_MS};

/// Trace length, minutes. The first quarter is the diurnal ramp.
const TRACE_MINUTES: usize = 3;
/// Aggregate plateau load, QPS (the fig22 run's).
const PLATEAU_QPS: f64 = 780.0;
/// Seed of the trace's rate curve: the fig22 run's at its default seed.
/// The curve is part of the workload's definition, so it stays fixed; the
/// benchmark seed draws the arrivals, inputs, execution noise and spill
/// draws along it. A per-seed curve would add or drop whole bursts, and
/// the outcomes of a near-saturated fleet would swing with them.
const TRACE_SEED: u64 = 2021 ^ 0x3A;

/// Everything set-up builds for the routed run.
pub struct Fixture {
    lib: Arc<ModelLibrary>,
    noise: NoiseModel,
    model: Arc<dyn LatencyModel>,
    cfg: RoutedClusterConfig,
    arrivals: Vec<Arrival>,
    inputs: Vec<QueryInput>,
}

fn routed_config(seed: u64) -> RoutedClusterConfig {
    let trace = synthesize_maf_like(TRACE_MINUTES, PLATEAU_QPS, TRACE_SEED);
    let mut cfg = RoutedClusterConfig::paper(trace, seed);
    cfg.abacus = AbacusConfig {
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..AbacusConfig::default()
    };
    cfg
}

/// The arrivals `cluster::cluster_workload` derives for the routed fleet.
fn arrivals_for(cfg: &RoutedClusterConfig, lib: &ModelLibrary) -> (Vec<Arrival>, Vec<QueryInput>) {
    let mut plain = ClusterConfig::paper(cfg.trace.clone(), cfg.seed);
    plain.models = cfg.models.clone();
    cluster_workload(&plain, lib)
}

/// Build the fixture: model library, the unified predictor over the four
/// deployed models on the reference V100, the trace and its arrivals.
pub fn setup(seed: u64) -> Fixture {
    let lib = Arc::new(ModelLibrary::new());
    let cfg = routed_config(seed);
    let noise = NoiseModel::calibrated();
    let model = train::train(
        std::slice::from_ref(&cfg.models),
        &lib,
        &cfg.reference,
        &noise,
    );
    let (arrivals, inputs) = arrivals_for(&cfg, &lib);
    Fixture {
        lib,
        noise,
        model,
        cfg,
        arrivals,
        inputs,
    }
}

fn outcome(fx: &Fixture, out: &RoutedRunResult) -> PassOutcome {
    let offered = fx.arrivals.len() as u64;
    let r = out.router;
    let mut d = Digest::default();
    d.records(&out.records);
    for w in [r.routed, r.spilled, r.shed, r.forwards] {
        d.word(w);
    }
    for u in &out.gpu_usage {
        d.word(u.groups);
        d.f64(u.busy_ms);
        d.f64(u.sequential_ms);
    }
    // Every arrival is routed, spilled or shed exactly once, and has
    // exactly one record; otherwise the whole run fails.
    let accounted = out.records.len() as u64 == offered && r.routed + r.spilled + r.shed == offered;
    let mut pooled = ServiceStats::new();
    pooled.record_all(&out.records);
    let horizon_ms = fx.cfg.trace.horizon_ms();
    PassOutcome {
        attempted: offered,
        // Sheds never reach a node scheduler: they cost no simulation and
        // count as failures, not throughput.
        queries: offered - r.shed,
        failed: if accounted { r.shed } else { offered },
        checked: accounted,
        digest: d.value(),
        violation_ratio: pooled.violation_ratio(),
        p99_over_qos: pooled.p99_latency() / fx.cfg.qos_ms,
        goodput_qps: pooled.goodput_qps(horizon_ms),
    }
}

/// One untraced routed run.
pub fn run(fx: &Fixture) -> PassOutcome {
    let out = run_routed_cluster_on(
        &fx.cfg,
        &fx.lib,
        &fx.noise,
        fx.model.clone(),
        None,
        None,
        &fx.arrivals,
        &fx.inputs,
    );
    outcome(fx, &out)
}

/// The traced run: set-up with profiling and fitting timed apart, then
/// `reps` routed runs with the router's predictor and the per-GPU
/// schedulers' predictors probed separately. Returns each run's outcome and
/// the per-layer readings of the last, with the median wall time.
pub fn run_traced(seed: u64, reps: usize) -> (Vec<PassOutcome>, Layers) {
    let lib = Arc::new(ModelLibrary::new());
    let cfg = routed_config(seed);
    let noise = NoiseModel::calibrated();
    let trained = train::train_traced(
        std::slice::from_ref(&cfg.models),
        &lib,
        &cfg.reference,
        &noise,
    );
    let t = Instant::now();
    let (arrivals, inputs) = arrivals_for(&cfg, &lib);
    let gen_ns = elapsed_ns(t);
    let fx = Fixture {
        lib,
        noise,
        model: trained.model.clone(),
        cfg,
        arrivals,
        inputs,
    };

    // With no pool models the run derates the router model per pool; build
    // the same derated models here so their forwards can be told apart.
    let mut passes = Vec::with_capacity(reps);
    let mut walls = Vec::with_capacity(reps);
    let mut probed = None;
    for _ in 0..reps {
        let route = Arc::new(ForwardStats::default());
        let node = Arc::new(ForwardStats::default());
        let router_model = TimedModel::wrap(fx.model.clone(), route.clone());
        let pool_models: Vec<Arc<dyn LatencyModel>> = fx
            .cfg
            .pools
            .iter()
            .map(|p| {
                let d = derate_of(&p.gpu, &fx.cfg.reference);
                TimedModel::wrap(
                    Arc::new(DeratedModel::new(fx.model.clone(), d)),
                    node.clone(),
                )
            })
            .collect();
        let t = Instant::now();
        let out = run_routed_cluster_on(
            &fx.cfg,
            &fx.lib,
            &fx.noise,
            router_model,
            Some(&pool_models),
            None,
            &fx.arrivals,
            &fx.inputs,
        );
        let wall_ns = elapsed_ns(t);
        walls.push(secs(wall_ns));
        passes.push(outcome(&fx, &out));
        probed = Some((out, route, node, wall_ns));
    }
    let (out, route, node, wall_ns) = probed.expect("at least one traced pass");

    let mut l = Layers::default();
    l.set("setup.profile_s", secs(trained.profile_ns));
    l.set("setup.fit_s", secs(trained.fit_ns));
    l.set("setup.samples", trained.samples as f64);
    l.set("workload.gen_s", secs(gen_ns));
    l.set("workload.arrivals", fx.arrivals.len() as f64);
    l.set("trace.wall_s", median(&mut walls));
    let r = out.router;
    l.set("cluster.route_forward_s", secs(route.ns()));
    l.set("cluster.route_forwards", route.calls() as f64);
    l.set(
        "cluster.route_rows_per_forward",
        route.rows() as f64 / route.calls().max(1) as f64,
    );
    l.set("cluster.routed", r.routed as f64);
    l.set("cluster.spilled", r.spilled as f64);
    l.set("cluster.shed", r.shed as f64);
    let groups: u64 = out.gpu_usage.iter().map(|u| u.groups).sum();
    let busy: f64 = out.gpu_usage.iter().map(|u| u.busy_ms).sum();
    l.set("cluster.gpu_groups", groups as f64);
    l.set("cluster.other_s", secs(wall_ns.saturating_sub(route.ns())));
    l.set("predictor.forward_s", secs(node.ns()));
    l.set("predictor.forward_calls", node.calls() as f64);
    l.set(
        "predictor.rows_per_call",
        node.rows() as f64 / node.calls().max(1) as f64,
    );
    l.set("gpu_sim.groups", groups as f64);
    let fleet_ms = out.gpu_usage.len() as f64 * fx.cfg.trace.horizon_ms();
    l.set("gpu_sim.busy_frac", busy / fleet_ms);
    // Shares of the routed run's wall time: the serial routing forward,
    // and everything else (encoding, per-GPU epochs, barriers).
    let wall = wall_ns.max(1) as f64;
    l.share("cluster.route_forward", route.ns() as f64 / wall);
    l.share(
        "cluster.other",
        wall_ns.saturating_sub(route.ns()) as f64 / wall,
    );
    (passes, l)
}
