//! Multi-GPU cluster simulation (§7.6, Fig. 22).
//!
//! A cluster of `nodes × gpus_per_node` GPUs serves the quadruplet
//! deployment (Res101, Res152, VGG19, Bert) under a time-varying offered
//! load. Two systems are compared:
//!
//! * **Abacus + Kubernetes** — a K8s-style least-outstanding-queries router
//!   sends each query to a GPU; every GPU runs the full Abacus controller
//!   and overlaps operators across services.
//! * **Clockwork** — a central earliest-deadline-first queue; a free GPU
//!   pulls the most urgent query and runs it *exclusively* (Clockwork's
//!   per-GPU predictability discipline), with deadline-based admission
//!   (a query whose solo latency can no longer fit its deadline is dropped
//!   rather than scheduled — Clockwork refuses work it cannot finish in
//!   time).
//!
//! Both systems see the same arrival stream and the same per-GPU hardware.

use abacus_core::{
    AbacusConfig, AbacusScheduler, Query, Scheduler, SegmentalExecutor,
};
use abacus_metrics::{QueryOutcome, QueryRecord};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use faults::NodeDegradation;
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use std::sync::Arc;
use workload::{fork_seed, Arrival, RateTrace, SeededRng};

/// Clockwork admits a query only if its *worst-case* latency estimate fits
/// the deadline. Real Clockwork profiles worst-case execution; we scale the
/// mean solo estimate by this margin to cover run-to-run noise and the
/// per-group sync overhead.
pub const CLOCKWORK_ADMISSION_MARGIN: f64 = 1.15;

/// Which cluster system to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterSystem {
    /// Kubernetes routing + Abacus on every GPU.
    AbacusK8s,
    /// Clockwork: central EDF + exclusive per-GPU execution.
    Clockwork,
}

impl ClusterSystem {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            ClusterSystem::AbacusK8s => "Abacus",
            ClusterSystem::Clockwork => "Clockwork",
        }
    }
}

/// Cluster experiment configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of server nodes (paper: 4).
    pub nodes: usize,
    /// GPUs per node (paper: 4 × V100).
    pub gpus_per_node: usize,
    /// Deployed services (paper: Res101, Res152, VGG19, Bert on every GPU).
    pub models: Vec<ModelId>,
    /// Uniform QoS target (paper: 100 ms).
    pub qos_ms: f64,
    /// Aggregate offered load over time (split evenly across services).
    pub trace: RateTrace,
    /// Seed for arrivals, inputs and execution noise.
    pub seed: u64,
    /// Abacus controller settings (AbacusK8s only). Pin
    /// `predict_round_ms` for reproducible runs: the default calibrates
    /// from the wall clock inside every per-GPU scheduler.
    pub abacus: AbacusConfig,
    /// Simulate the (independent) nodes on separate threads. Node results
    /// are concatenated in node order, so the records — and every summary
    /// derived from them — are identical to a serial run.
    pub parallel: bool,
    /// Fault injection: nodes running at reduced capacity (every GPU on a
    /// listed node computes and moves data `slowdown`× slower, while QoS
    /// targets stay calibrated to healthy hardware). Empty = all healthy.
    pub degraded: Vec<NodeDegradation>,
}

impl ClusterConfig {
    /// The paper's §7.6 deployment at a given trace.
    pub fn paper(trace: RateTrace, seed: u64) -> Self {
        Self {
            nodes: 4,
            gpus_per_node: 4,
            models: vec![
                ModelId::ResNet101,
                ModelId::ResNet152,
                ModelId::Vgg19,
                ModelId::Bert,
            ],
            qos_ms: 100.0,
            trace,
            seed,
            abacus: AbacusConfig::default(),
            parallel: true,
            degraded: Vec::new(),
        }
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Capacity slowdown of `node` (1.0 = healthy).
    pub fn node_slowdown(&self, node: usize) -> f64 {
        self.degraded
            .iter()
            .find(|d| d.node == node)
            .map_or(1.0, |d| d.slowdown)
    }
}

/// The GPU spec a node's GPUs actually run at: compute and bandwidth both
/// divided by the node's degradation slowdown.
fn node_gpu_spec(gpu: &GpuSpec, slowdown: f64) -> GpuSpec {
    assert!(
        slowdown.is_finite() && slowdown >= 1.0,
        "slowdown must be finite and >= 1, got {slowdown}"
    );
    if slowdown == 1.0 {
        return gpu.clone();
    }
    let mut g = gpu.clone();
    g.peak_flops /= slowdown;
    g.peak_bw /= slowdown;
    g
}

/// One query with its routing metadata.
#[derive(Debug, Clone)]
struct ClusterQuery {
    query: Query,
}

/// Aggregate utilisation of one GPU over a run — the autoscaler's input
/// signals (§7.9).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuUsage {
    /// Total wall time spent executing groups, ms.
    pub busy_ms: f64,
    /// Operator groups executed.
    pub groups: u64,
    /// Sum of the groups' sequential-execution times, ms (overlap-gain
    /// numerator).
    pub sequential_ms: f64,
}

impl GpuUsage {
    /// Fraction of the horizon the GPU was executing, in `[0, 1]`.
    pub fn busy_fraction(&self, horizon_ms: f64) -> f64 {
        (self.busy_ms / horizon_ms).clamp(0.0, 1.0)
    }

    /// Mean overlap gain: sequential time ÷ actual time (1.0 = no benefit).
    pub fn overlap_gain(&self) -> f64 {
        if self.busy_ms <= 0.0 {
            1.0
        } else {
            self.sequential_ms / self.busy_ms
        }
    }
}

/// The full outcome of a cluster run: per-query records plus per-GPU usage.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// One record per query.
    pub records: Vec<QueryRecord>,
    /// Usage per GPU, index order.
    pub gpu_usage: Vec<GpuUsage>,
}

/// Per-GPU serving state.
struct GpuSim {
    scheduler: Option<Box<dyn Scheduler>>,
    executor: SegmentalExecutor,
    queue: Vec<Query>,
    free_at: f64,
    usage: GpuUsage,
}

impl GpuSim {
    /// Outstanding queries (the K8s least-connections routing signal).
    fn outstanding(&self) -> usize {
        self.queue.len()
    }

    /// Run scheduling rounds until the GPU's next decision would start
    /// after `until`. Appends completion/drop records.
    fn advance(&mut self, until: f64, lib: &ModelLibrary, records: &mut Vec<QueryRecord>) {
        let scheduler = self.scheduler.as_mut().expect("abacus gpu");
        loop {
            if self.queue.is_empty() {
                break;
            }
            let earliest = self
                .queue
                .iter()
                .map(|q| q.arrival_ms)
                .fold(f64::INFINITY, f64::min);
            let t = self.free_at.max(earliest);
            if t > until {
                break;
            }
            let decision = scheduler.decide(t, &self.queue);
            for id in &decision.dropped {
                let pos = self.queue.iter().position(|q| q.id == *id).unwrap();
                let q = self.queue.swap_remove(pos);
                records.push(record_of(&q, t - q.arrival_ms, QueryOutcome::Dropped));
            }
            let Some(group) = decision.group else {
                continue;
            };
            let start = t + decision.overhead_ms;
            for e in &group.entries {
                let pos = self.queue.iter().position(|q| q.id == e.query_id).unwrap();
                self.queue[pos].mark_started(start);
            }
            let spec = group.to_spec(
                |id| self.queue.iter().find(|q| q.id == id).unwrap(),
                lib,
            );
            let out = self.executor.execute(&spec);
            self.free_at = start + out.duration_ms;
            self.usage.busy_ms += out.duration_ms;
            self.usage.groups += 1;
            self.usage.sequential_ms += spec.sequential_ms(lib, self.executor.gpu());
            scheduler.on_group_complete(out.duration_ms);
            for e in &group.entries {
                let pos = self.queue.iter().position(|q| q.id == e.query_id).unwrap();
                self.queue[pos].advance_to(e.op_end);
                if self.queue[pos].is_complete() {
                    let q = self.queue.swap_remove(pos);
                    records.push(record_of(
                        &q,
                        self.free_at - q.arrival_ms,
                        QueryOutcome::Completed,
                    ));
                }
            }
        }
    }
}

pub(crate) fn record_of(q: &Query, latency_ms: f64, outcome: QueryOutcome) -> QueryRecord {
    QueryRecord {
        service: q.model.index(),
        arrival_ms: q.arrival_ms,
        latency_ms,
        qos_ms: q.qos_ms,
        outcome,
        requests: q.input.batch,
        queue_ms: q.queue_ms().unwrap_or(latency_ms),
    }
}

/// Build the merged arrival stream: the aggregate trace split evenly across
/// the deployed services, each query with a random Table-1 input.
pub fn cluster_workload(
    cfg: &ClusterConfig,
    lib: &ModelLibrary,
) -> (Vec<Arrival>, Vec<QueryInput>) {
    shared_workload(&cfg.models, &cfg.trace, cfg.seed, lib)
}

/// The workload derivation shared by the round-robin and routed cluster
/// paths: identical `(models, trace, seed)` produce the byte-identical
/// arrival stream, so the two ingress designs are compared on equal
/// footing.
pub(crate) fn shared_workload(
    models: &[ModelId],
    trace: &RateTrace,
    seed: u64,
    lib: &ModelLibrary,
) -> (Vec<Arrival>, Vec<QueryInput>) {
    let mut rng = SeededRng::new(fork_seed(seed, 0x10AD));
    let per_service = trace.scaled(1.0 / models.len() as f64);
    let streams: Vec<Vec<Arrival>> = (0..models.len())
        .map(|s| per_service.generate(s, &mut rng))
        .collect();
    let arrivals = workload::merge_arrivals(streams);
    let inputs: Vec<QueryInput> = arrivals
        .iter()
        .map(|a| lib.random_input(models[a.service], &mut rng))
        .collect();
    (arrivals, inputs)
}

/// Run the cluster and return all query records (arrival-stamped, so
/// timelines can be rebuilt at any granularity).
pub fn run_cluster(
    system: ClusterSystem,
    cfg: &ClusterConfig,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    predictor: Option<Arc<dyn LatencyModel>>,
) -> Vec<QueryRecord> {
    run_cluster_detailed(system, cfg, lib, gpu, noise, predictor).records
}

/// Like [`run_cluster`], additionally returning per-GPU usage — the
/// signals the §7.9 autoscaler consumes.
pub fn run_cluster_detailed(
    system: ClusterSystem,
    cfg: &ClusterConfig,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    predictor: Option<Arc<dyn LatencyModel>>,
) -> ClusterRunResult {
    let (arrivals, inputs) = cluster_workload(cfg, lib);
    run_cluster_on(system, cfg, lib, gpu, noise, predictor, &arrivals, &inputs)
}

/// Like [`run_cluster_detailed`], over a caller-supplied arrival stream
/// (one input per arrival) instead of the one derived from `cfg.trace` —
/// so a replay can generate its workload once, outside any timed region.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_on(
    system: ClusterSystem,
    cfg: &ClusterConfig,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    predictor: Option<Arc<dyn LatencyModel>>,
    arrivals: &[Arrival],
    inputs: &[QueryInput],
) -> ClusterRunResult {
    assert_eq!(arrivals.len(), inputs.len(), "one input per arrival");
    match system {
        ClusterSystem::AbacusK8s => run_abacus_k8s(
            cfg,
            lib,
            gpu,
            noise,
            predictor.expect("Abacus needs a predictor"),
            arrivals,
            inputs,
        ),
        ClusterSystem::Clockwork => run_clockwork(cfg, lib, gpu, noise, arrivals, inputs),
    }
}

fn make_query(
    id: u64,
    cfg: &ClusterConfig,
    lib: &ModelLibrary,
    a: &Arrival,
    input: QueryInput,
) -> ClusterQuery {
    let model = cfg.models[a.service];
    let n_ops = lib.graph(model, input).len();
    ClusterQuery {
        query: Query::new(id, model, input, a.at_ms, cfg.qos_ms, n_ops),
    }
}

fn run_abacus_k8s(
    cfg: &ClusterConfig,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    predictor: Arc<dyn LatencyModel>,
    arrivals: &[Arrival],
    inputs: &[QueryInput],
) -> ClusterRunResult {
    // The cluster-level ingress distributes arrivals round-robin across
    // nodes; inside a node, K8s least-connections routing picks the GPU.
    // Nodes never share queries, so each node is an independent simulation
    // — the unit [`ClusterConfig::parallel`] fans out over threads. With
    // one node this is exactly the old single-tier least-connections
    // cluster.
    let nodes = cfg.nodes.max(1);
    let mut node_arrivals: Vec<Vec<(u64, &Arrival, QueryInput)>> = vec![Vec::new(); nodes];
    for (i, (a, &input)) in arrivals.iter().zip(inputs).enumerate() {
        node_arrivals[i % nodes].push((i as u64, a, input));
    }
    let run_node = |node: usize| -> (Vec<QueryRecord>, Vec<GpuUsage>) {
        let node_gpu = node_gpu_spec(gpu, cfg.node_slowdown(node));
        let mut gpus: Vec<GpuSim> = (0..cfg.gpus_per_node)
            .map(|local| {
                // Global GPU index: seeds are identical to the pre-sharding
                // single-tier layout (and independent of node count).
                let g = node * cfg.gpus_per_node + local;
                GpuSim {
                    scheduler: Some(Box::new(AbacusScheduler::new(
                        predictor.clone(),
                        lib.clone(),
                        cfg.abacus.clone(),
                    ))),
                    executor: SegmentalExecutor::new(
                        node_gpu.clone(),
                        noise.clone(),
                        lib.clone(),
                        fork_seed(cfg.seed, 0xE000 + g as u64),
                    ),
                    queue: Vec::new(),
                    free_at: 0.0,
                    usage: GpuUsage::default(),
                }
            })
            .collect();
        let mut records = Vec::with_capacity(node_arrivals[node].len());
        for &(id, a, input) in &node_arrivals[node] {
            for g in gpus.iter_mut() {
                g.advance(a.at_ms, lib, &mut records);
            }
            // K8s least-connections routing within the node.
            let target = gpus
                .iter()
                .enumerate()
                .min_by_key(|(i, g)| (g.outstanding(), *i))
                .map(|(i, _)| i)
                .unwrap();
            let cq = make_query(id, cfg, lib, a, input);
            gpus[target].queue.push(cq.query);
        }
        for g in gpus.iter_mut() {
            g.advance(f64::INFINITY, lib, &mut records);
        }
        (records, gpus.iter().map(|g| g.usage).collect())
    };
    let per_node: Vec<(Vec<QueryRecord>, Vec<GpuUsage>)> = if cfg.parallel && nodes > 1 {
        use rayon::prelude::*;
        (0..nodes).into_par_iter().map(run_node).collect()
    } else {
        (0..nodes).map(run_node).collect()
    };
    let mut records = Vec::with_capacity(arrivals.len());
    let mut gpu_usage = Vec::with_capacity(cfg.total_gpus());
    for (rs, us) in per_node {
        records.extend(rs);
        gpu_usage.extend(us);
    }
    ClusterRunResult { records, gpu_usage }
}

fn run_clockwork(
    cfg: &ClusterConfig,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    arrivals: &[Arrival],
    inputs: &[QueryInput],
) -> ClusterRunResult {
    let mut executors: Vec<SegmentalExecutor> = (0..cfg.total_gpus())
        .map(|g| {
            SegmentalExecutor::new(
                node_gpu_spec(gpu, cfg.node_slowdown(g / cfg.gpus_per_node.max(1))),
                noise.clone(),
                lib.clone(),
                fork_seed(cfg.seed, 0xC000 + g as u64),
            )
        })
        .collect();
    let mut free_at = vec![0.0f64; cfg.total_gpus()];
    let mut usage = vec![GpuUsage::default(); cfg.total_gpus()];
    let mut central: Vec<ClusterQuery> = Vec::new();
    let mut records = Vec::with_capacity(arrivals.len());

    let drain = |central: &mut Vec<ClusterQuery>,
                     free_at: &mut Vec<f64>,
                     usage: &mut Vec<GpuUsage>,
                     executors: &mut Vec<SegmentalExecutor>,
                     records: &mut Vec<QueryRecord>,
                     until: f64| {
        loop {
            if central.is_empty() {
                break;
            }
            // The next GPU to act is the one that frees earliest.
            let g = (0..free_at.len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .unwrap();
            let earliest = central
                .iter()
                .map(|q| q.query.arrival_ms)
                .fold(f64::INFINITY, f64::min);
            let t = free_at[g].max(earliest);
            if t > until {
                break;
            }
            // EDF pull with deadline admission: drop queries whose solo
            // latency can no longer fit before the deadline.
            central.sort_by(|a, b| {
                a.query
                    .deadline_ms()
                    .total_cmp(&b.query.deadline_ms())
                    .then(a.query.id.cmp(&b.query.id))
            });
            let mut pulled = None;
            while let Some(cq) = central.first() {
                if cq.query.arrival_ms > t {
                    break;
                }
                let solo = lib
                    .graph(cq.query.model, cq.query.input)
                    .solo_ms(executors[g].gpu());
                if t + solo * CLOCKWORK_ADMISSION_MARGIN > cq.query.deadline_ms() {
                    let cq = central.remove(0);
                    records.push(record_of(
                        &cq.query,
                        t - cq.query.arrival_ms,
                        QueryOutcome::Dropped,
                    ));
                } else {
                    pulled = Some(central.remove(0));
                    break;
                }
            }
            let Some(cq) = pulled else {
                // Nothing admissible has arrived yet for this GPU.
                if central.is_empty() {
                    break;
                }
                // All remaining queries arrive later than `t`; jump ahead.
                if earliest > until {
                    break;
                }
                free_at[g] = free_at[g].max(earliest);
                continue;
            };
            let spec = predictor::GroupSpec::new(
                vec![predictor::GroupEntry {
                    model: cq.query.model,
                    op_start: 0,
                    op_end: cq.query.n_ops,
                    input: cq.query.input,
                }],
                lib,
            );
            let out = executors[g].execute(&spec);
            free_at[g] = t + out.duration_ms;
            usage[g].busy_ms += out.duration_ms;
            usage[g].groups += 1;
            usage[g].sequential_ms += spec.sequential_ms(lib, executors[g].gpu());
            let mut q = cq.query;
            q.mark_started(t);
            records.push(record_of(
                &q,
                free_at[g] - q.arrival_ms,
                QueryOutcome::Completed,
            ));
        }
    };

    for (i, (a, &input)) in arrivals.iter().zip(inputs).enumerate() {
        drain(
            &mut central,
            &mut free_at,
            &mut usage,
            &mut executors,
            &mut records,
            a.at_ms,
        );
        central.push(make_query(i as u64, cfg, lib, a, input));
    }
    drain(
        &mut central,
        &mut free_at,
        &mut usage,
        &mut executors,
        &mut records,
        f64::INFINITY,
    );
    ClusterRunResult {
        records,
        gpu_usage: usage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictor::features::SLOT_WIDTH;
    use predictor::MAX_COLOCATED;

    /// Cheap monotone predictor for tests.
    struct SpanModel {
        lib: Arc<ModelLibrary>,
        gpu: GpuSpec,
    }
    impl LatencyModel for SpanModel {
        fn predict_one(&self, x: &[f64]) -> f64 {
            let mut total = 0.0;
            let mut slot = 0;
            for (idx, m) in ModelId::ALL.into_iter().enumerate() {
                if x[idx] > 0.5 {
                    let base = predictor::MODEL_SLOT_BASE + slot * SLOT_WIDTH;
                    let span = x[base + 1] - x[base];
                    total += span * self.lib.solo_ms(m, m.max_input(), &self.gpu);
                    slot += 1;
                }
            }
            debug_assert!(slot <= MAX_COLOCATED);
            total
        }
        fn name(&self) -> &'static str {
            "span"
        }
    }

    fn tiny_cfg(peak_qps: f64) -> ClusterConfig {
        let trace = RateTrace::new(vec![peak_qps; 2]); // 2 minutes flat
        ClusterConfig {
            nodes: 1,
            gpus_per_node: 2,
            ..ClusterConfig::paper(trace, 5)
        }
    }

    #[test]
    fn both_systems_account_every_query() {
        let lib = Arc::new(ModelLibrary::new());
        let gpu = GpuSpec::v100();
        let noise = NoiseModel::calibrated();
        let cfg = tiny_cfg(40.0);
        let (arrivals, _) = cluster_workload(&cfg, &lib);
        let predictor: Arc<dyn LatencyModel> = Arc::new(SpanModel {
            lib: lib.clone(),
            gpu: gpu.clone(),
        });
        let a = run_cluster(
            ClusterSystem::AbacusK8s,
            &cfg,
            &lib,
            &gpu,
            &noise,
            Some(predictor),
        );
        let c = run_cluster(ClusterSystem::Clockwork, &cfg, &lib, &gpu, &noise, None);
        assert_eq!(a.len(), arrivals.len());
        assert_eq!(c.len(), arrivals.len());
    }

    #[test]
    fn clockwork_p99_stays_under_qos() {
        let lib = Arc::new(ModelLibrary::new());
        let gpu = GpuSpec::v100();
        let noise = NoiseModel::calibrated();
        let cfg = tiny_cfg(60.0);
        let recs = run_cluster(ClusterSystem::Clockwork, &cfg, &lib, &gpu, &noise, None);
        let lats: Vec<f64> = recs
            .iter()
            .filter(|r| r.outcome == QueryOutcome::Completed)
            .map(|r| r.latency_ms)
            .collect();
        let p99 = abacus_metrics::percentile(&lats, 99.0);
        // Admission control: Clockwork never completes a query past its
        // deadline (it drops instead), so p99 <= QoS.
        assert!(p99 <= cfg.qos_ms + 1e-6, "p99 {p99}");
    }

    #[test]
    fn abacus_cluster_throughput_at_least_clockwork() {
        let lib = Arc::new(ModelLibrary::new());
        let gpu = GpuSpec::v100();
        let noise = NoiseModel::calibrated();
        let cfg = tiny_cfg(80.0); // keep both systems busy
        let predictor: Arc<dyn LatencyModel> = Arc::new(SpanModel {
            lib: lib.clone(),
            gpu: gpu.clone(),
        });
        let a = run_cluster(
            ClusterSystem::AbacusK8s,
            &cfg,
            &lib,
            &gpu,
            &noise,
            Some(predictor),
        );
        let c = run_cluster(ClusterSystem::Clockwork, &cfg, &lib, &gpu, &noise, None);
        let completed_requests = |rs: &[QueryRecord]| -> u64 {
            rs.iter()
                .filter(|r| r.outcome == QueryOutcome::Completed)
                .map(|r| u64::from(r.requests))
                .sum()
        };
        let ar = completed_requests(&a);
        let cr = completed_requests(&c);
        assert!(
            ar as f64 >= cr as f64 * 0.95,
            "abacus {ar} vs clockwork {cr}"
        );
    }

    #[test]
    fn parallel_nodes_match_serial_bitwise() {
        let lib = Arc::new(ModelLibrary::new());
        let gpu = GpuSpec::v100();
        let noise = NoiseModel::calibrated();
        let trace = RateTrace::new(vec![50.0; 2]);
        let mut cfg = ClusterConfig {
            nodes: 2,
            gpus_per_node: 1,
            ..ClusterConfig::paper(trace, 5)
        };
        // Pin the prediction-round latency: the default calibrates it from
        // the wall clock, which would differ between the two runs.
        cfg.abacus.predict_round_ms = Some(0.08);
        let predictor: Arc<dyn LatencyModel> = Arc::new(SpanModel {
            lib: lib.clone(),
            gpu: gpu.clone(),
        });
        cfg.parallel = false;
        let serial = run_cluster_detailed(
            ClusterSystem::AbacusK8s,
            &cfg,
            &lib,
            &gpu,
            &noise,
            Some(predictor.clone()),
        );
        cfg.parallel = true;
        let parallel = run_cluster_detailed(
            ClusterSystem::AbacusK8s,
            &cfg,
            &lib,
            &gpu,
            &noise,
            Some(predictor),
        );
        assert!(!serial.records.is_empty());
        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.gpu_usage, parallel.gpu_usage);
    }

    #[test]
    fn degraded_node_loses_goodput_and_stays_deterministic() {
        let lib = Arc::new(ModelLibrary::new());
        let gpu = GpuSpec::v100();
        let noise = NoiseModel::calibrated();
        let trace = RateTrace::new(vec![50.0; 2]);
        let mut cfg = ClusterConfig {
            nodes: 2,
            gpus_per_node: 1,
            ..ClusterConfig::paper(trace, 5)
        };
        cfg.abacus.predict_round_ms = Some(0.08);
        let predictor: Arc<dyn LatencyModel> = Arc::new(SpanModel {
            lib: lib.clone(),
            gpu: gpu.clone(),
        });
        let healthy = run_cluster(
            ClusterSystem::AbacusK8s,
            &cfg,
            &lib,
            &gpu,
            &noise,
            Some(predictor.clone()),
        );
        cfg.degraded = vec![NodeDegradation {
            node: 1,
            slowdown: 3.0,
        }];
        cfg.parallel = false;
        let serial = run_cluster(
            ClusterSystem::AbacusK8s,
            &cfg,
            &lib,
            &gpu,
            &noise,
            Some(predictor.clone()),
        );
        cfg.parallel = true;
        let parallel = run_cluster(
            ClusterSystem::AbacusK8s,
            &cfg,
            &lib,
            &gpu,
            &noise,
            Some(predictor),
        );
        // Degradation is deterministic and serial ≡ parallel.
        assert_eq!(serial, parallel);
        // Same arrivals, worse outcomes: a 3× slower node must not
        // improve QoS.
        assert_eq!(healthy.len(), serial.len());
        let good = |rs: &[QueryRecord]| {
            rs.iter()
                .filter(|r| r.outcome == QueryOutcome::Completed && r.met_qos())
                .count()
        };
        assert!(
            good(&serial) < good(&healthy),
            "degraded {} vs healthy {}",
            good(&serial),
            good(&healthy)
        );
    }

    #[test]
    fn workload_split_across_services() {
        let lib = Arc::new(ModelLibrary::new());
        let cfg = tiny_cfg(100.0);
        let (arrivals, inputs) = cluster_workload(&cfg, &lib);
        assert_eq!(arrivals.len(), inputs.len());
        let mut counts = [0usize; 4];
        for a in &arrivals {
            counts[a.service] += 1;
        }
        let total: usize = counts.iter().sum();
        for &c in &counts {
            let frac = c as f64 / total as f64;
            assert!((frac - 0.25).abs() < 0.06, "{counts:?}");
        }
    }
}
