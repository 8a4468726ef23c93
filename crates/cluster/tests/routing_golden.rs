//! Contract tests for the headroom router (DESIGN.md §13).
//!
//! * A golden fixed-seed routing stream checked against an embedded
//!   reference router that implements the scoring specification naively
//!   (full per-row encodes, one scalar forward per candidate). The
//!   production router's overload fast-path and score memo must be
//!   *observationally invisible*: same outcomes, same RNG consumption,
//!   same mirror evolution.
//! * A proptest pinning the least-connections degeneracy: on a
//!   homogeneous pool with a constant predictor, the headroom score
//!   reduces to queue depth and the router must pick exactly the
//!   least-loaded (lowest-index on ties) GPU.
//! * Serial-vs-parallel byte identity of the routed cluster CSV, with and
//!   without the predictive autoscaler.
//! * Each distinct candidate row is forwarded once per run — at most one
//!   batched call per scored arrival, never a scalar call, never the
//!   same row twice.
//! * Telemetry on/off byte identity: counters observe, they never steer.

use abacus_core::Query;
use cluster::{
    run_routed_cluster, write_records_csv, HeadroomRouter, NodeHead, PredictiveAutoscaler,
    RouteOutcome, RoutedClusterConfig,
};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::NoiseModel;
use predictor::{encode_features_with_ops, GroupEntry, LatencyModel, FEATURE_DIM};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use workload::{fork_seed, RateTrace, SeededRng};

/// Deterministic feature-sensitive model: distinct rows get distinct
/// latencies, so scoring order actually depends on the encoding.
#[derive(Debug)]
struct SpreadModel;

impl LatencyModel for SpreadModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        5.0 + 7.0 * x.iter().sum::<f64>()
    }
    fn name(&self) -> &'static str {
        "spread"
    }
}

/// Constant-latency model for the least-connections degeneracy.
#[derive(Debug)]
struct ConstModel(f64);

impl LatencyModel for ConstModel {
    fn predict_one(&self, _x: &[f64]) -> f64 {
        self.0
    }
    fn name(&self) -> &'static str {
        "const"
    }
}

/// A [`SpreadModel`] that counts scalar calls and records every batched
/// call's rows: each row's feature bits followed by its derate's bits
/// (1.0 for a plain `predict_into`).
#[derive(Debug)]
struct CountingModel {
    inner: SpreadModel,
    scalar_calls: AtomicUsize,
    batches: Mutex<Vec<Vec<Vec<u64>>>>,
}

impl CountingModel {
    fn new() -> Self {
        Self {
            inner: SpreadModel,
            scalar_calls: AtomicUsize::new(0),
            batches: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, xs: &[f64], n: usize, derates: Option<&[f64]>) {
        let rows = xs
            .chunks_exact(FEATURE_DIM)
            .enumerate()
            .map(|(i, row)| {
                let d = derates.map_or(1.0, |d| d[i]);
                row.iter().chain([&d]).map(|v| v.to_bits()).collect()
            })
            .collect::<Vec<Vec<u64>>>();
        assert_eq!(rows.len(), n, "row count disagrees with the buffer");
        self.batches.lock().unwrap().push(rows);
    }

    /// Rows forwarded through the batched entry points so far.
    fn batched_rows(&self) -> usize {
        self.batches.lock().unwrap().iter().map(Vec::len).sum()
    }
}

impl LatencyModel for CountingModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.scalar_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.predict_one(x)
    }
    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        self.record(xs, n, None);
        self.inner.predict_into(xs, n, out);
    }
    fn predict_derated_into(&self, xs: &[f64], n: usize, derates: &[f64], out: &mut Vec<f64>) {
        self.record(xs, n, Some(derates));
        self.inner.predict_derated_into(xs, n, derates, out);
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

/// The routing *specification*, implemented with no shortcuts: every
/// arrival encodes one full row per active GPU, predicts each row with a
/// scalar forward, scores, tie-breaks by (outstanding, index), spills via
/// the same weighted draw, and commits winners to its own mirrors.
struct ReferenceRouter {
    model: Arc<dyn LatencyModel>,
    derates: Vec<f64>,
    spill_slack_ms: f64,
    rng: SeededRng,
    outstanding: Vec<u32>,
    est_free_ms: Vec<f64>,
    head: Vec<Option<NodeHead>>,
}

impl ReferenceRouter {
    fn new(
        model: Arc<dyn LatencyModel>,
        derates: Vec<f64>,
        spill_slack_ms: f64,
        seed: u64,
    ) -> Self {
        let n = derates.len();
        Self {
            model,
            derates,
            spill_slack_ms,
            rng: SeededRng::new(seed),
            outstanding: vec![0; n],
            est_free_ms: vec![0.0; n],
            head: vec![None; n],
        }
    }

    fn route(&mut self, t_ms: f64, q: &Query) -> RouteOutcome {
        let n = self.derates.len();
        let mut preds = Vec::with_capacity(n);
        let mut row = vec![0.0; FEATURE_DIM];
        for g in 0..n {
            let q_entry = GroupEntry {
                model: q.model,
                op_start: q.next_op,
                op_end: q.n_ops,
                input: q.input,
            };
            match self.head[g] {
                Some(h) if h.model != q.model && h.next_op < h.n_ops => {
                    let entries = [
                        q_entry,
                        GroupEntry {
                            model: h.model,
                            op_start: h.next_op,
                            op_end: h.n_ops,
                            input: h.input,
                        },
                    ];
                    encode_features_with_ops(&entries, &[q.n_ops, h.n_ops], &mut row);
                }
                _ => encode_features_with_ops(&[q_entry], &[q.n_ops], &mut row),
            }
            // The naive path the tentpole forbids in production: one
            // scalar forward per candidate.
            preds.push(self.model.predict_one(&row) * self.derates[g]);
        }
        let headroom = q.headroom_ms(t_ms);
        let mut scores = Vec::with_capacity(n);
        let mut best = 0usize;
        for (g, &pred) in preds.iter().enumerate() {
            let wait = (self.est_free_ms[g] - t_ms).max(0.0);
            let score = q.routing_headroom_ms(t_ms, wait, pred);
            scores.push(score);
            let better = score > scores[best]
                || (score == scores[best]
                    && (self.outstanding[g], g) < (self.outstanding[best], best));
            if better {
                best = g;
            }
        }
        let (pick, outcome) = if scores[best] >= 0.0 {
            (best, RouteOutcome::Route(best))
        } else if scores[best] >= -self.spill_slack_ms {
            let weight = |g: usize| 1.0 / (1e-3 + (headroom - scores[g]).max(0.0));
            let total: f64 = (0..n).map(weight).sum();
            let mut u = self.rng.f64() * total;
            let mut pick = n - 1;
            for (g, _) in scores.iter().enumerate() {
                u -= weight(g);
                if u <= 0.0 {
                    pick = g;
                    break;
                }
            }
            (pick, RouteOutcome::Spill(pick))
        } else {
            return RouteOutcome::Shed;
        };
        self.outstanding[pick] += 1;
        self.est_free_ms[pick] = self.est_free_ms[pick].max(t_ms) + preds[pick];
        self.head[pick] = Some(NodeHead {
            model: q.model,
            input: q.input,
            next_op: q.next_op,
            n_ops: q.n_ops,
        });
        outcome
    }
}

fn test_query(lib: &ModelLibrary, id: u64, model: ModelId, input: QueryInput, at: f64) -> Query {
    Query::new(id, model, input, at, 100.0, lib.graph(model, input).len())
}

/// Golden stream: 3000 fixed-seed arrivals through the production router
/// and the reference, step for step. Covers route, spill, and shed (both
/// the scored and fast-path variety — arrival spacing tightens enough to
/// saturate the mirrors) on a heterogeneous derate vector, and memo hits:
/// the production router must forward fewer rows than the reference
/// scores.
#[test]
fn production_router_matches_reference_stream() {
    let lib = ModelLibrary::new();
    let derates = vec![1.0, 1.0, 1.4, 1.4, 1.9, 1.9, 4.0, 4.0];
    let prod_model = Arc::new(CountingModel::new());
    let ref_model = Arc::new(CountingModel::new());
    let seed = fork_seed(2021, 0x601D);
    let mut prod = HeadroomRouter::new(prod_model.clone(), derates.clone(), 20.0, seed);
    let mut reference = ReferenceRouter::new(ref_model.clone(), derates, 20.0, seed);
    let models = [
        ModelId::ResNet101,
        ModelId::ResNet152,
        ModelId::Vgg19,
        ModelId::Bert,
    ];
    let mut rng = SeededRng::new(fork_seed(2021, 0xA221));
    let mut outcomes = (0u64, 0u64, 0u64);
    for i in 0..3000u64 {
        // Spacing sweeps from saturating (0.05 ms) to relaxed (2 ms) so
        // the stream exercises every outcome.
        let spacing = 0.05 + 1.95 * (i as f64 / 3000.0);
        let t = i as f64 * spacing;
        let m = models[(i % 4) as usize];
        let input = lib.random_input(m, &mut rng);
        let q = test_query(&lib, i, m, input, t);
        let got = prod.route(t, &q, None);
        let want = reference.route(t, &q);
        assert_eq!(got, want, "arrival {i} diverged");
        match got {
            RouteOutcome::Route(_) => outcomes.0 += 1,
            RouteOutcome::Spill(_) => outcomes.1 += 1,
            RouteOutcome::Shed => outcomes.2 += 1,
        }
    }
    // Mirrors must have evolved identically.
    for g in 0..8 {
        assert_eq!(prod.outstanding(g), reference.outstanding[g], "gpu {g}");
    }
    let stats = prod.stats();
    assert_eq!(
        (stats.routed, stats.spilled, stats.shed),
        outcomes,
        "stats disagree with the outcome stream"
    );
    assert!(
        outcomes.0 > 0 && outcomes.1 > 0 && outcomes.2 > 0,
        "stream must cover all outcomes: {outcomes:?}"
    );
    assert_eq!(stats.routed + stats.spilled + stats.shed, 3000);
    assert_eq!(prod_model.scalar_calls.load(Ordering::SeqCst), 0);
    let forwarded = prod_model.batched_rows();
    let scored = ref_model.scalar_calls.load(Ordering::SeqCst);
    assert!(
        forwarded < scored,
        "memo saved nothing: {forwarded} rows forwarded, {scored} scored"
    );
}

/// The overload fast-path: when queue wait alone exhausts the deadline on
/// every GPU, the router sheds without issuing the batched forward — and
/// the verdict is the one full scoring would have reached (the golden
/// stream above pins the general equivalence).
#[test]
fn deep_overload_sheds_without_a_forward() {
    let lib = ModelLibrary::new();
    let model: Arc<dyn LatencyModel> = Arc::new(SpreadModel);
    let mut router = HeadroomRouter::new(model, vec![1.0; 4], 20.0, 3);
    for g in 0..4 {
        // Every GPU is 200 ms from free: qos (100) + slack (20) is gone
        // on wait alone, whatever the predictor would have said.
        router.sync(g, 10, 200.0, None);
    }
    let q = test_query(&lib, 0, ModelId::ResNet50, QueryInput::new(4, 1), 0.0);
    assert_eq!(router.route(0.0, &q, None), RouteOutcome::Shed);
    let stats = router.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.forwards, 0, "deep overload must not pay for scoring");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Least-connections degeneracy: homogeneous derates + constant
    /// predictor collapse the headroom score to queue depth, so from any
    /// consistent mirror state the router must pick the GPU with the
    /// fewest outstanding queries (lowest index on ties).
    #[test]
    fn homogeneous_uniform_load_degenerates_to_least_connections(
        depths in proptest::collection::vec(0u32..12, 2..9),
        pred in 1.0f64..8.0,
        arrivals in 1usize..24,
    ) {
        let lib = ModelLibrary::new();
        let n = depths.len();
        let model: Arc<dyn LatencyModel> = Arc::new(ConstModel(pred));
        // QoS generous enough that every arrival stays routable.
        let qos = 1e6;
        let mut router = HeadroomRouter::new(model, vec![1.0; n], 20.0, 7);
        let mut depths = depths;
        for (g, &d) in depths.iter().enumerate() {
            // Consistent mirror: d queued queries at `pred` ms each.
            router.sync(g, d, f64::from(d) * pred, None);
        }
        let input = QueryInput::new(4, 1);
        for i in 0..arrivals {
            let mut q = test_query(&lib, i as u64, ModelId::ResNet50, input, 0.0);
            q.qos_ms = qos;
            let want = (0..n).min_by_key(|&g| (depths[g], g)).unwrap();
            match router.route(0.0, &q, None) {
                RouteOutcome::Route(g) => {
                    prop_assert_eq!(g, want, "arrival {} not least-connections", i);
                    depths[g] += 1;
                }
                other => prop_assert!(false, "uniform load must route, got {:?}", other),
            }
        }
    }
}

fn small_cfg(parallel: bool, autoscale: bool) -> RoutedClusterConfig {
    let mut cfg = RoutedClusterConfig::paper(RateTrace::with_bucket_ms(vec![420.0], 4_000.0), 2021);
    cfg.parallel = parallel;
    // The Abacus round cost stays unpinned: its default is a function of
    // the search width alone, never of the host's clock.
    if autoscale {
        // 60 qps per reference GPU at the default 70% target needs 10 of
        // the 16 GPUs: the scaler visibly parks capacity.
        cfg.autoscale = Some(PredictiveAutoscaler::new(60.0, 2));
    }
    cfg
}

fn run_csv(parallel: bool, autoscale: bool, tag: &str) -> Vec<u8> {
    let lib = Arc::new(ModelLibrary::new());
    let noise = NoiseModel::calibrated();
    let model: Arc<dyn LatencyModel> = Arc::new(SpreadModel);
    let out = run_routed_cluster(
        &small_cfg(parallel, autoscale),
        &lib,
        &noise,
        model,
        None,
        None,
    );
    let path =
        std::env::temp_dir().join(format!("routing_golden_{tag}_{}.csv", std::process::id()));
    write_records_csv(&path, &out.records).expect("write csv");
    let bytes = std::fs::read(&path).expect("read csv");
    std::fs::remove_file(&path).ok();
    bytes
}

/// The epoch-batched restructuring's determinism contract: the serial and
/// parallel cluster runs must produce byte-identical CSVs, with and
/// without the autoscaler in the loop.
#[test]
fn serial_and_parallel_cluster_csvs_are_byte_identical() {
    let serial = run_csv(false, false, "s");
    let parallel = run_csv(true, false, "p");
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "parallel cluster CSV diverged");
    let serial_auto = run_csv(false, true, "sa");
    let parallel_auto = run_csv(true, true, "pa");
    assert_eq!(
        serial_auto, parallel_auto,
        "autoscaled cluster CSV diverged"
    );
    assert_ne!(serial, serial_auto, "autoscaler had no observable effect");
}

/// Each distinct candidate row is forwarded once per run: the router
/// model sees no scalar call, at most one batched call per scored arrival
/// with 1–16 rows, and no (row, derate) pair twice — every repeat is a
/// memo hit.
#[test]
fn scoring_forwards_each_distinct_row_once() {
    let lib = Arc::new(ModelLibrary::new());
    let noise = NoiseModel::calibrated();
    let counting = Arc::new(CountingModel::new());
    let router_model: Arc<dyn LatencyModel> = counting.clone();
    // Separate scheduler models so only ingress scoring hits the counter.
    let cfg = small_cfg(true, false);
    let pool_models: Vec<Arc<dyn LatencyModel>> = cfg
        .pools
        .iter()
        .map(|_| Arc::new(SpreadModel) as Arc<dyn LatencyModel>)
        .collect();
    let out = run_routed_cluster(&cfg, &lib, &noise, router_model, Some(&pool_models), None);
    let stats = out.router;
    assert!(stats.forwards > 0, "nothing was scored");
    assert_eq!(
        counting.scalar_calls.load(Ordering::SeqCst),
        0,
        "scalar forward"
    );
    let batches = counting.batches.lock().unwrap();
    assert!(
        batches.len() as u64 <= stats.forwards,
        "{} batched calls for {} scored arrivals",
        batches.len(),
        stats.forwards
    );
    assert!(
        batches.iter().all(|b| (1..=16).contains(&b.len())),
        "every batched call must carry 1–16 rows"
    );
    let mut seen = HashSet::new();
    for row in batches.iter().flatten() {
        assert!(seen.insert(row), "a row was forwarded twice");
    }
}

/// Telemetry observes, it never steers: running with counters enabled
/// must leave every record byte-identical to the disabled run.
#[test]
fn telemetry_enabled_run_is_byte_identical_to_disabled() {
    let lib = Arc::new(ModelLibrary::new());
    let noise = NoiseModel::calibrated();
    let model: Arc<dyn LatencyModel> = Arc::new(SpreadModel);
    let cfg = small_cfg(true, true);
    let plain = run_routed_cluster(&cfg, &lib, &noise, model.clone(), None, None);
    let mut tel = telemetry::Telemetry::new();
    let with_tel = run_routed_cluster(&cfg, &lib, &noise, model, None, Some(&mut tel));
    assert_eq!(
        plain.records, with_tel.records,
        "telemetry perturbed the run"
    );
    use telemetry::Counter;
    let scored = tel.registry.get(Counter::RouterRouted) + tel.registry.get(Counter::RouterSpilled);
    assert!(scored > 0, "telemetry counted nothing");
    assert_eq!(
        tel.registry.get(Counter::RouterRouted),
        with_tel.router.routed,
        "telemetry and stats disagree"
    );
}
