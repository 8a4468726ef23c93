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
//! Every Abacus GPU — here and behind the [`crate::route`] router — runs the
//! single-node serving loop, [`serving::GpuLoop`], unchanged (§7.6).

use abacus_core::{AbacusConfig, AbacusScheduler, Query, SegmentalExecutor};
use abacus_metrics::{QueryOutcome, QueryRecord};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use faults::NodeDegradation;
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{GpuLoop, GpuUsage, NodeOptions};
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

/// The full outcome of a cluster run: per-query records plus per-GPU usage.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// One record per query.
    pub records: Vec<QueryRecord>,
    /// Usage per GPU, index order.
    pub gpu_usage: Vec<GpuUsage>,
}

/// One Abacus GPU of a cluster: the shared serving loop with its own
/// controller and executor, run without options or observers. Records
/// carry [`ModelId::index`] as their `service`.
pub(crate) struct ClusterGpu {
    pub(crate) gpu: GpuLoop,
    scheduler: AbacusScheduler,
    executor: SegmentalExecutor,
    /// Sum of the executed groups' sequential-execution times, ms.
    sequential_ms: f64,
}

impl ClusterGpu {
    pub(crate) fn new(
        predictor: Arc<dyn LatencyModel>,
        lib: &Arc<ModelLibrary>,
        abacus: &AbacusConfig,
        gpu: GpuSpec,
        noise: &NoiseModel,
        seed: u64,
    ) -> Self {
        Self {
            gpu: GpuLoop::new(ModelId::ALL),
            scheduler: AbacusScheduler::new(predictor, lib.clone(), abacus.clone()),
            executor: SegmentalExecutor::new(gpu, noise.clone(), lib.clone(), seed),
            sequential_ms: 0.0,
        }
    }

    /// Run every round that starts at or before `until`.
    pub(crate) fn run_until(&mut self, until: f64, records: &mut Vec<QueryRecord>) {
        let (gpu, sched, ex) = (&mut self.gpu, &mut self.scheduler, &mut self.executor);
        let opts = NodeOptions::default();
        while let Some(spec) = gpu.step_until(until, sched, ex, opts, None, None, records) {
            self.sequential_ms += spec.sequential_ms(ex.library(), ex.gpu());
        }
    }

    /// Utilisation so far, overlap-gain numerator included.
    pub(crate) fn usage(&self) -> GpuUsage {
        GpuUsage {
            sequential_ms: self.sequential_ms,
            ..self.gpu.usage()
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

/// Run the cluster over an arrival stream (one input per arrival) — the one
/// derived from `cfg` by [`cluster_workload`], or a replay generated once
/// outside any timed region. Records are arrival-stamped, so timelines can
/// be rebuilt at any granularity.
///
/// # Panics
/// Panics if `cfg` has no nodes or no GPUs per node, if the arrivals and
/// inputs differ in length, or if [`ClusterSystem::AbacusK8s`] is run
/// without a predictor.
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
    assert!(
        cfg.nodes > 0 && cfg.gpus_per_node > 0,
        "a cluster needs at least one node and one GPU per node (got {} x {})",
        cfg.nodes,
        cfg.gpus_per_node
    );
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
) -> Query {
    let model = cfg.models[a.service];
    let n_ops = lib.graph(model, input).len();
    Query::new(id, model, input, a.at_ms, cfg.qos_ms, n_ops)
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
    let nodes = cfg.nodes;
    let mut node_arrivals: Vec<Vec<(u64, &Arrival, QueryInput)>> = vec![Vec::new(); nodes];
    for (i, (a, &input)) in arrivals.iter().zip(inputs).enumerate() {
        node_arrivals[i % nodes].push((i as u64, a, input));
    }
    let run_node = |node: usize| -> (Vec<QueryRecord>, Vec<GpuUsage>) {
        let node_gpu = node_gpu_spec(gpu, cfg.node_slowdown(node));
        let mut gpus: Vec<ClusterGpu> = (0..cfg.gpus_per_node)
            .map(|local| {
                // Global GPU index: seeds are identical to the pre-sharding
                // single-tier layout (and independent of node count).
                let g = node * cfg.gpus_per_node + local;
                let seed = fork_seed(cfg.seed, 0xE000 + g as u64);
                ClusterGpu::new(
                    predictor.clone(),
                    lib,
                    &cfg.abacus,
                    node_gpu.clone(),
                    noise,
                    seed,
                )
            })
            .collect();
        // The node's GPUs retire into one stream, interleaved in simulation
        // order.
        let mut records = Vec::with_capacity(node_arrivals[node].len());
        for &(id, a, input) in &node_arrivals[node] {
            for g in gpus.iter_mut() {
                g.run_until(a.at_ms, &mut records);
            }
            // K8s least-connections routing within the node.
            let target = gpus
                .iter_mut()
                .enumerate()
                .min_by_key(|(i, g)| (g.gpu.queue().len(), *i))
                .map(|(_, g)| g)
                .expect("a node has at least one GPU");
            target.gpu.admit(make_query(id, cfg, lib, a, input));
        }
        for g in gpus.iter_mut() {
            g.run_until(f64::INFINITY, &mut records);
        }
        (records, gpus.iter().map(ClusterGpu::usage).collect())
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
                node_gpu_spec(gpu, cfg.node_slowdown(g / cfg.gpus_per_node)),
                noise.clone(),
                lib.clone(),
                fork_seed(cfg.seed, 0xC000 + g as u64),
            )
        })
        .collect();
    let mut free_at = vec![0.0f64; cfg.total_gpus()];
    let mut usage = vec![GpuUsage::default(); cfg.total_gpus()];
    let mut central: Vec<Query> = Vec::new();
    let mut records = Vec::with_capacity(arrivals.len());

    // Run every GPU's pulls up to `until`, then queue `arrival` centrally.
    let mut drain = |until: f64, arrival: Option<Query>| {
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
                .map(|q| q.arrival_ms)
                .fold(f64::INFINITY, f64::min);
            let t = free_at[g].max(earliest);
            if t > until {
                break;
            }
            // EDF pull with deadline admission: drop queries whose solo
            // latency can no longer fit before the deadline.
            central.sort_by(|a, b| {
                a.deadline_ms()
                    .total_cmp(&b.deadline_ms())
                    .then(a.id.cmp(&b.id))
            });
            let mut pulled = None;
            while let Some(cq) = central.first() {
                if cq.arrival_ms > t {
                    break;
                }
                let solo = lib.graph(cq.model, cq.input).solo_ms(executors[g].gpu());
                if t + solo * CLOCKWORK_ADMISSION_MARGIN > cq.deadline_ms() {
                    let cq = central.remove(0);
                    records.push(record_of(&cq, t - cq.arrival_ms, QueryOutcome::Dropped));
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
                    model: cq.model,
                    op_start: 0,
                    op_end: cq.n_ops,
                    input: cq.input,
                }],
                lib,
            );
            let out = executors[g].execute(&spec);
            free_at[g] = t + out.duration_ms;
            usage[g].busy_ms += out.duration_ms;
            usage[g].groups += 1;
            usage[g].sequential_ms += spec.sequential_ms(lib, executors[g].gpu());
            let mut q = cq;
            q.mark_started(t);
            records.push(record_of(
                &q,
                free_at[g] - q.arrival_ms,
                QueryOutcome::Completed,
            ));
        }
        central.extend(arrival);
    };
    for (i, (a, &input)) in arrivals.iter().zip(inputs).enumerate() {
        drain(a.at_ms, Some(make_query(i as u64, cfg, lib, a, input)));
    }
    drain(f64::INFINITY, None);
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

    /// A run on V100s over the workload `cfg` derives, every Abacus GPU on
    /// the span predictor.
    fn run(system: ClusterSystem, cfg: &ClusterConfig) -> ClusterRunResult {
        let lib = Arc::new(ModelLibrary::new());
        let gpu = GpuSpec::v100();
        let span: Arc<dyn LatencyModel> = Arc::new(SpanModel {
            lib: lib.clone(),
            gpu: gpu.clone(),
        });
        let predictor = (system == ClusterSystem::AbacusK8s).then_some(span);
        let (arrivals, inputs) = cluster_workload(cfg, &lib);
        let noise = NoiseModel::calibrated();
        run_cluster_on(
            system, cfg, &lib, &gpu, &noise, predictor, &arrivals, &inputs,
        )
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
        let cfg = tiny_cfg(40.0);
        let (arrivals, _) = cluster_workload(&cfg, &lib);
        let a = run(ClusterSystem::AbacusK8s, &cfg).records;
        let c = run(ClusterSystem::Clockwork, &cfg).records;
        assert_eq!(a.len(), arrivals.len());
        assert_eq!(c.len(), arrivals.len());
    }

    #[test]
    fn clockwork_p99_stays_under_qos() {
        let cfg = tiny_cfg(60.0);
        let recs = run(ClusterSystem::Clockwork, &cfg).records;
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
        let cfg = tiny_cfg(80.0); // keep both systems busy
        let a = run(ClusterSystem::AbacusK8s, &cfg).records;
        let c = run(ClusterSystem::Clockwork, &cfg).records;
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
        let trace = RateTrace::new(vec![50.0; 2]);
        let mut cfg = ClusterConfig {
            nodes: 2,
            gpus_per_node: 1,
            ..ClusterConfig::paper(trace, 5)
        };
        // Pin the prediction-round latency: the default calibrates it from
        // the wall clock, which would differ between the two runs.
        cfg.abacus.predict_round_ms = Some(0.08);
        cfg.parallel = false;
        let serial = run(ClusterSystem::AbacusK8s, &cfg);
        cfg.parallel = true;
        let parallel = run(ClusterSystem::AbacusK8s, &cfg);
        assert!(!serial.records.is_empty());
        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.gpu_usage, parallel.gpu_usage);
    }

    #[test]
    fn degraded_node_loses_goodput_and_stays_deterministic() {
        let trace = RateTrace::new(vec![50.0; 2]);
        let mut cfg = ClusterConfig {
            nodes: 2,
            gpus_per_node: 1,
            ..ClusterConfig::paper(trace, 5)
        };
        cfg.abacus.predict_round_ms = Some(0.08);
        let healthy = run(ClusterSystem::AbacusK8s, &cfg).records;
        cfg.degraded = vec![NodeDegradation {
            node: 1,
            slowdown: 3.0,
        }];
        cfg.parallel = false;
        let serial = run(ClusterSystem::AbacusK8s, &cfg).records;
        cfg.parallel = true;
        let parallel = run(ClusterSystem::AbacusK8s, &cfg).records;
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
    #[should_panic(expected = "at least one node and one GPU per node")]
    fn zero_gpus_per_node_is_rejected() {
        let cfg = ClusterConfig {
            gpus_per_node: 0,
            ..tiny_cfg(10.0)
        };
        run(ClusterSystem::Clockwork, &cfg);
    }

    #[test]
    #[should_panic(expected = "at least one node and one GPU per node")]
    fn zero_nodes_is_rejected() {
        let cfg = ClusterConfig {
            nodes: 0,
            ..tiny_cfg(10.0)
        };
        run(ClusterSystem::AbacusK8s, &cfg);
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
