//! The cluster simulator: one epoch-batched driver over heterogeneous GPU
//! pools, with three ingress systems ([`ClusterSystem`]).
//!
//! * **Headroom** — the performance-first ingress: the predicted-latency
//!   design llm-d's Endpoint Picker ships for LLM pods, specialised to the
//!   paper's deterministic-overlap predictor. Scoring, shed/spill and
//!   derates are described below.
//! * **AbacusK8s** — the paper's Kubernetes baseline: round-robin over the
//!   active GPUs, every arrival enqueued no matter how doomed. It reads no
//!   load signal, so it never asks *when* a GPU could finish the query.
//! * **Clockwork** — a central EDF queue that free GPUs pull from
//!   ([`crate::clockwork`]).
//!
//! Every GPU of every system runs the single-node serving loop,
//! [`serving::GpuLoop`], unchanged (§7.6): Abacus on the first two, an
//! exclusive EDF scheduler under Clockwork.
//!
//! * **Scoring.** Per arriving query, every active GPU is scored by
//!   predicted QoS headroom: the query's Eq. 2 budget minus the GPU's
//!   estimated queue wait minus the predicted service latency on that
//!   GPU's hardware ([`abacus_core::Query::routing_headroom_ms`]). A
//!   candidate's derated prediction is a pure function of its feature row
//!   and derate (the [`LatencyModel`] purity contract), and rows repeat
//!   across arrivals, so the router memoises them for the whole run: each
//!   distinct row is forwarded once, and a scored arrival's memo misses
//!   go through **one** batched
//!   [`predict_derated_into`](LatencyModel::predict_derated_into) call —
//!   never N scalar forwards.
//! * **Shed / spill.** When no GPU has headroom, a query whose best
//!   predicted completion misses its deadline by at most
//!   [`RoutedClusterConfig::spill_slack_ms`] spills to a weighted pool
//!   favouring lower predicted completion (the predictor is conservative;
//!   near-misses often still make QoS). Anything worse is shed at ingress
//!   — the cluster refuses work it cannot finish instead of melting its
//!   per-GPU schedulers with doomed queries.
//! * **Heterogeneous pools.** Each [`NodePool`] carries its own
//!   [`GpuSpec`]; the router scores with a single reference predictor and
//!   per-GPU derate factors ([`derate_of`]), while each pool's in-node
//!   Abacus schedulers get their own (possibly derated) predictor. A
//!   degraded node is a pool of [`slowed`] GPUs.
//! * **Determinism.** Global routing couples the GPUs, so the simulation
//!   is *epoch-batched*: arrivals inside one epoch are routed serially
//!   against the router's mirrors, then every GPU simulates the epoch
//!   independently (claimed one GPU at a time by the persistent
//!   [`rayon::pool`] when [`RoutedClusterConfig::parallel`]), and the
//!   mirrors re-sync from actual GPU state at the epoch boundary. Each
//!   GPU's epoch reads and writes only that GPU, so serial and parallel
//!   runs are byte-identical. Round-robin reads no mirror, so unless the
//!   autoscaler needs epoch boundaries it routes the whole trace in one
//!   epoch.
//!
//! All per-arrival router state lives in a persistent [`RouterScratch`];
//! a steady-state routing decision allocates only when the score memo
//! grows.

use crate::autoscale::{AutoscaleStats, PredictiveAutoscaler};
use abacus_core::{AbacusConfig, AbacusScheduler, Query, Scheduler, SegmentalExecutor};
use abacus_metrics::{QueryOutcome, QueryRecord};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{encode_features_with_ops, DeratedModel, GroupEntry, LatencyModel, FEATURE_DIM};
use serving::{GpuLoop, GpuUsage, NodeOptions};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};
use telemetry::{Counter, Hist, Telemetry};
use workload::{fork_seed, Arrival, RateTrace, SeededRng};

/// A homogeneous slice of the fleet: `gpus` identical GPUs of one spec.
#[derive(Debug, Clone)]
pub struct NodePool {
    /// Display label ("a100", "mig-2g" ...).
    pub name: &'static str,
    /// GPUs in this pool.
    pub gpus: usize,
    /// The hardware every GPU in the pool runs.
    pub gpu: GpuSpec,
}

/// Latency multiplier of `gpu` relative to `reference`: how much longer
/// the same operator group takes on `gpu` than on the hardware the
/// router's predictor was trained on. Roofline-pessimistic — the slower of
/// the compute and bandwidth ratios dominates.
pub fn derate_of(gpu: &GpuSpec, reference: &GpuSpec) -> f64 {
    let d = (reference.peak_flops / gpu.peak_flops).max(reference.peak_bw / gpu.peak_bw);
    assert!(d.is_finite() && d > 0.0, "degenerate derate {d}");
    d
}

/// `gpu` running `slowdown`× slower: compute and bandwidth both divided by
/// it (a lost MIG slice or thermal throttling), while QoS targets stay
/// calibrated to healthy hardware. `derate_of(&slowed(g, s), g)` is `s`.
///
/// # Panics
/// Panics unless `slowdown` is finite and at least 1.
pub fn slowed(gpu: &GpuSpec, slowdown: f64) -> GpuSpec {
    assert!(
        slowdown.is_finite() && slowdown >= 1.0,
        "slowdown must be finite and >= 1, got {slowdown}"
    );
    let mut g = gpu.clone();
    g.peak_flops /= slowdown;
    g.peak_bw /= slowdown;
    g
}

/// Which cluster system a run simulates (§7.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterSystem {
    /// Headroom-scored ingress, Abacus on every GPU.
    Headroom,
    /// Kubernetes round-robin ingress, Abacus on every GPU.
    AbacusK8s,
    /// Clockwork: central EDF queue, exclusive per-GPU execution.
    Clockwork,
}

/// Alias of [`RoutedClusterConfig`], the one cluster configuration.
pub type ClusterConfig = RoutedClusterConfig;

/// Configuration of a cluster run.
#[derive(Debug, Clone)]
pub struct RoutedClusterConfig {
    /// The ingress and per-GPU scheduling the run simulates.
    pub system: ClusterSystem,
    /// Heterogeneous fleet, flattened to GPUs in pool order.
    pub pools: Vec<NodePool>,
    /// The hardware the router's predictor is calibrated to; per-pool
    /// derates are computed against it.
    pub reference: GpuSpec,
    /// Deployed services.
    pub models: Vec<ModelId>,
    /// Uniform QoS target, ms.
    pub qos_ms: f64,
    /// Aggregate offered load (split evenly across services by
    /// [`cluster_workload`]).
    pub trace: RateTrace,
    /// Seed for arrivals, inputs, execution noise and the spill draw.
    pub seed: u64,
    /// Per-GPU Abacus controller settings (unused by Clockwork). Pin
    /// `predict_round_ms` for reproducible runs: the default calibrates
    /// from the wall clock inside every per-GPU scheduler.
    pub abacus: AbacusConfig,
    /// Fan per-GPU epoch simulation out over the persistent worker pool.
    /// Byte-identical to the serial run by the epoch-batching construction.
    pub parallel: bool,
    /// Routing epoch, ms: arrivals within one epoch are routed against
    /// start-of-epoch GPU state plus the router's own incremental
    /// estimates. Smaller = fresher mirrors, more sync barriers.
    /// Round-robin without the autoscaler routes in one epoch; Clockwork
    /// has none.
    pub epoch_ms: f64,
    /// Spill band, ms (headroom ingress only): a query whose *best*
    /// predicted completion misses its deadline by at most this much is
    /// still admitted (weighted toward lower predicted completion); beyond
    /// it the query is shed.
    pub spill_slack_ms: f64,
    /// Predictive autoscaler; `None` keeps the whole fleet active.
    /// Clockwork rejects it.
    pub autoscale: Option<PredictiveAutoscaler>,
}

impl RoutedClusterConfig {
    /// The paper's §7.6 fleet (16 V100s) behind the headroom router.
    pub fn paper(trace: RateTrace, seed: u64) -> Self {
        Self {
            system: ClusterSystem::Headroom,
            pools: vec![NodePool {
                name: "v100",
                gpus: 16,
                gpu: GpuSpec::v100(),
            }],
            reference: GpuSpec::v100(),
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
            epoch_ms: 50.0,
            spill_slack_ms: 20.0,
            autoscale: None,
        }
    }

    /// Total GPU count across pools.
    pub fn total_gpus(&self) -> usize {
        self.pools.iter().map(|p| p.gpus).sum()
    }

    /// Per-GPU derates vs [`Self::reference`], flattened in pool order.
    pub fn gpu_derates(&self) -> Vec<f64> {
        self.pools
            .iter()
            .flat_map(|p| {
                let d = derate_of(&p.gpu, &self.reference);
                std::iter::repeat_n(d, p.gpus)
            })
            .collect()
    }
}

/// Router decision for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Placed on the GPU with the best (non-negative) predicted headroom.
    Route(usize),
    /// No GPU had headroom; admitted to this GPU via the weighted
    /// overflow pool.
    Spill(usize),
    /// Predicted to miss its deadline everywhere by more than the spill
    /// slack; refused at ingress.
    Shed,
}

/// Router decision counts over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Arrivals placed on a GPU: by headroom score, round-robin, or a
    /// Clockwork pull.
    pub routed: u64,
    /// Arrivals admitted through the weighted overflow pool.
    pub spilled: u64,
    /// Arrivals refused at ingress or by Clockwork's admission.
    pub shed: u64,
    /// Scored arrivals: those that got past the overload fast-path and had
    /// every active GPU scored. Only their memo misses reach the model, in
    /// at most one batched forward each.
    pub forwards: u64,
}

/// The representative in-flight query mirrored per GPU: the most urgent
/// incomplete queue entry at the last sync (or the last routed arrival).
/// Candidate features pair the arriving query against it, so the predicted
/// service latency reflects the co-location the query actually lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHead {
    /// Model of the representative query.
    pub model: ModelId,
    /// Its input.
    pub input: QueryInput,
    /// First operator still to run.
    pub next_op: usize,
    /// Operators in its graph.
    pub n_ops: usize,
}

impl NodeHead {
    /// The head's mirror of an arriving (unstarted) query.
    fn of(q: &Query) -> Self {
        Self {
            model: q.model,
            input: q.input,
            next_op: q.next_op,
            n_ops: q.n_ops,
        }
    }
}

/// Everything a candidate's derated prediction depends on: the group the
/// feature row encodes and the candidate's derate as bits. A pair row is
/// keyed in slot (model-index) order, so the arrival-A-beside-head-B row
/// and the arrival-B-beside-head-A row — the same feature row — share a
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowKey {
    /// The entry in slot 0: the arrival of a solo row, else the pair's
    /// lower model index.
    lo: NodeHead,
    /// The entry in slot 1 of a pair row; `None` for a solo row.
    hi: Option<NodeHead>,
    derate: u64,
}

impl Hash for RowKey {
    /// Two words per entry plus the derate: a third of the writes a
    /// derived impl makes, on a lookup that runs once per candidate.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for h in std::iter::once(&self.lo).chain(&self.hi) {
            state.write_u64(
                h.model.index() as u64
                    | u64::from(h.input.batch) << 8
                    | u64::from(h.input.seq) << 32,
            );
            state.write_u64(h.next_op as u64 | (h.n_ops as u64) << 32);
        }
        state.write_u64(self.derate);
    }
}

/// The FxHash multiply-rotate step, for [`RowKey`]'s integer words. The
/// std default, SipHash, costs about as much per lookup as a cheap
/// predictor's forward of the row; the memo needs none of its DoS
/// resistance, since the simulation makes its own keys.
#[derive(Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl RowKey {
    /// The feature row this key stands for.
    fn encode(&self, out: &mut [f64]) {
        let entry = |h: &NodeHead| GroupEntry {
            model: h.model,
            op_start: h.next_op,
            op_end: h.n_ops,
            input: h.input,
        };
        match self.hi {
            None => encode_features_with_ops(&[entry(&self.lo)], &[self.lo.n_ops], out),
            Some(hi) => encode_features_with_ops(
                &[entry(&self.lo), entry(&hi)],
                &[self.lo.n_ops, hi.n_ops],
                out,
            ),
        }
    }
}

/// All router state, persistent across arrivals — scores, candidate
/// features, the score memo and the per-GPU outstanding/free-at mirrors,
/// in the style of the scheduler's `DecisionScratch`. Buffers are sized
/// once for the fleet and reused; a steady-state [`HeadroomRouter::route`]
/// allocates only when the memo grows.
#[derive(Debug)]
pub struct RouterScratch {
    /// Derated prediction of every row scored so far in the run. Only
    /// looked up and inserted into, never iterated: it decides which rows
    /// get forwarded, never the order of anything. No size limit: keys
    /// range over (model, input, op) triples, which are finitely many.
    memo: HashMap<RowKey, f64, BuildHasherDefault<RowHasher>>,
    /// This arrival's distinct memo misses, in first-seen candidate order.
    miss_keys: Vec<RowKey>,
    /// `(candidate, miss)` index pairs: the candidates waiting on a miss.
    pending: Vec<(usize, usize)>,
    /// Feature rows of the misses, `miss_keys.len() × FEATURE_DIM`.
    features: Vec<f64>,
    /// Derated predictions, parallel to `cand`.
    preds: Vec<f64>,
    /// Headroom scores, parallel to `cand`.
    scores: Vec<f64>,
    /// Derates of the misses (the batched forward's input).
    miss_derates: Vec<f64>,
    /// Derated predictions of the misses, parallel to `miss_keys`.
    miss_preds: Vec<f64>,
    /// GPU index of each scored candidate.
    cand: Vec<usize>,
    /// Mirror: queries outstanding per GPU.
    outstanding: Vec<u32>,
    /// Mirror: estimated time each GPU frees, ms.
    est_free_ms: Vec<f64>,
    /// Mirror: representative in-flight query per GPU.
    head: Vec<Option<NodeHead>>,
    /// Whether each GPU accepts new routes (autoscaler-controlled).
    active: Vec<bool>,
    /// Per-GPU latency derate vs the router predictor's hardware.
    derate: Vec<f64>,
}

impl RouterScratch {
    fn new(derates: Vec<f64>) -> Self {
        let n = derates.len();
        assert!(n > 0, "a cluster needs at least one GPU");
        Self {
            memo: HashMap::default(),
            miss_keys: Vec::with_capacity(n),
            pending: Vec::with_capacity(n),
            features: Vec::with_capacity(n * FEATURE_DIM),
            preds: Vec::with_capacity(n),
            scores: Vec::with_capacity(n),
            miss_derates: Vec::with_capacity(n),
            miss_preds: Vec::with_capacity(n),
            cand: Vec::with_capacity(n),
            outstanding: vec![0; n],
            est_free_ms: vec![0.0; n],
            head: vec![None; n],
            active: vec![true; n],
            derate: derates,
        }
    }

    /// Encode the feature row and gather the derate of every memo miss.
    /// Misses are rare once the memo warms up, so each row goes through
    /// the full encoder.
    fn encode_misses(&mut self) {
        self.features
            .resize(self.miss_keys.len() * FEATURE_DIM, 0.0);
        self.miss_derates.clear();
        for (key, row) in self
            .miss_keys
            .iter()
            .zip(self.features.chunks_exact_mut(FEATURE_DIM))
        {
            key.encode(row);
            self.miss_derates.push(f64::from_bits(key.derate));
        }
    }
}

/// The headroom-scored ingress router.
pub struct HeadroomRouter {
    model: Arc<dyn LatencyModel>,
    spill_slack_ms: f64,
    scratch: RouterScratch,
    rng: SeededRng,
    stats: RouterStats,
    /// Where the round-robin ingress looks first for its next GPU.
    rr_next: usize,
}

impl HeadroomRouter {
    /// Create a router over `derates.len()` GPUs. `model` must be
    /// calibrated to the hardware the derates are relative to; `seed`
    /// drives only the weighted spill draw.
    pub fn new(
        model: Arc<dyn LatencyModel>,
        derates: Vec<f64>,
        spill_slack_ms: f64,
        seed: u64,
    ) -> Self {
        assert!(spill_slack_ms >= 0.0, "spill slack must be non-negative");
        Self {
            model,
            spill_slack_ms,
            scratch: RouterScratch::new(derates),
            rng: SeededRng::new(seed),
            stats: RouterStats::default(),
            rr_next: 0,
        }
    }

    /// Decision counts so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Mirror of queries outstanding on `gpu`.
    pub fn outstanding(&self, gpu: usize) -> u32 {
        self.scratch.outstanding[gpu]
    }

    /// Enable/disable `gpu` as a routing candidate (autoscaler hook; a
    /// disabled GPU drains but receives nothing new).
    pub fn set_active(&mut self, gpu: usize, on: bool) {
        self.scratch.active[gpu] = on;
    }

    /// Whether `gpu` currently accepts routes.
    pub fn is_active(&self, gpu: usize) -> bool {
        self.scratch.active[gpu]
    }

    /// GPUs currently accepting routes.
    pub fn active_gpus(&self) -> usize {
        self.scratch.active.iter().filter(|a| **a).count()
    }

    /// Re-anchor `gpu`'s mirror from its actual simulation state (epoch
    /// boundary): queue depth, when it frees, and its most urgent
    /// incomplete query.
    pub fn sync(&mut self, gpu: usize, outstanding: u32, free_at_ms: f64, head: Option<NodeHead>) {
        self.scratch.outstanding[gpu] = outstanding;
        self.scratch.est_free_ms[gpu] = free_at_ms;
        self.scratch.head[gpu] = head;
    }

    /// Route one arrival at time `t_ms`. Scores every active GPU, updates
    /// the winning GPU's mirror, and returns where the query went.
    /// Candidates whose row was scored before take the memoised
    /// prediction; the rest are encoded and scored in one batched forward.
    /// Steady-state allocation-free once the memo stops growing.
    ///
    /// Predicted latencies are assumed non-negative, which licenses an
    /// overload fast-path: when queue wait alone pushes every active GPU
    /// past the spill slack (`qos − elapsed − wait < −slack`), the verdict
    /// is shed for *any* non-negative prediction, so the router sheds
    /// without looking at a candidate or running the forward.
    pub fn route(&mut self, t_ms: f64, q: &Query, mut tel: Option<&mut Telemetry>) -> RouteOutcome {
        let s = &mut self.scratch;
        let mut min_wait = f64::INFINITY;
        for g in 0..s.active.len() {
            if s.active[g] {
                min_wait = min_wait.min((s.est_free_ms[g] - t_ms).max(0.0));
            }
        }
        if q.routing_headroom_ms(t_ms, min_wait, 0.0) < -self.spill_slack_ms {
            // Covers "no active GPU" too: min_wait stays +inf.
            return self.tally(RouteOutcome::Shed, tel);
        }
        s.cand.clear();
        s.preds.clear();
        s.miss_keys.clear();
        s.pending.clear();
        let arrival = NodeHead::of(q);
        for g in 0..s.active.len() {
            if !s.active[g] {
                continue;
            }
            // Pair the arrival against the GPU's representative in-flight
            // query when they can actually overlap; otherwise score the
            // solo group. Same-model pairs never co-locate (one query per
            // service), so they score solo too.
            let (lo, hi) = match s.head[g] {
                Some(h) if h.model != q.model && h.next_op < h.n_ops => {
                    if h.model.index() < q.model.index() {
                        (h, Some(arrival))
                    } else {
                        (arrival, Some(h))
                    }
                }
                _ => (arrival, None),
            };
            let key = RowKey {
                lo,
                hi,
                derate: s.derate[g].to_bits(),
            };
            match s.memo.get(&key) {
                Some(&p) => s.preds.push(p),
                None => {
                    let miss = match s.miss_keys.iter().position(|m| *m == key) {
                        Some(j) => j,
                        None => {
                            s.miss_keys.push(key);
                            s.miss_keys.len() - 1
                        }
                    };
                    s.pending.push((s.cand.len(), miss));
                    // Placeholder, filled in after the forward.
                    s.preds.push(f64::NAN);
                }
            }
            s.cand.push(g);
        }
        let n = s.cand.len();
        if n == 0 {
            return self.tally(RouteOutcome::Shed, tel);
        }
        if !s.miss_keys.is_empty() {
            s.encode_misses();
            self.model.predict_derated_into(
                &s.features,
                s.miss_keys.len(),
                &s.miss_derates,
                &mut s.miss_preds,
            );
            for (key, &p) in s.miss_keys.iter().zip(&s.miss_preds) {
                s.memo.insert(*key, p);
            }
            for &(k, miss) in &s.pending {
                s.preds[k] = s.miss_preds[miss];
            }
        }
        self.stats.forwards += 1;
        s.scores.clear();
        let headroom = q.headroom_ms(t_ms);
        let mut best = 0usize;
        let mut worst_score = f64::INFINITY;
        for k in 0..n {
            let g = s.cand[k];
            let wait = (s.est_free_ms[g] - t_ms).max(0.0);
            let score = q.routing_headroom_ms(t_ms, wait, s.preds[k]);
            s.scores.push(score);
            if score < worst_score {
                worst_score = score;
            }
            // Max score; ties prefer fewer outstanding, then lower index —
            // the least-connections order the proptest pins for
            // homogeneous pools.
            let better = score > s.scores[best]
                || (score == s.scores[best]
                    && (s.outstanding[g], g) < (s.outstanding[s.cand[best]], s.cand[best]));
            if better {
                best = k;
            }
        }
        if let Some(t) = tel.as_deref_mut() {
            t.registry.inc(Counter::RouterForwards);
            t.registry
                .observe(Hist::RouterScoreSpreadMs, s.scores[best] - worst_score);
        }
        let (k, outcome) = if s.scores[best] >= 0.0 {
            (best, RouteOutcome::Route(s.cand[best]))
        } else if s.scores[best] >= -self.spill_slack_ms {
            // Weighted overflow pool: draw a GPU with probability inversely
            // proportional to its predicted completion (wait + service =
            // headroom − score), favouring the least-bad candidates.
            let weight = |k: usize| 1.0 / (1e-3 + (headroom - s.scores[k]).max(0.0));
            let total: f64 = (0..n).map(weight).sum();
            let mut u = self.rng.f64() * total;
            let mut pick = n - 1;
            for k in 0..n {
                u -= weight(k);
                if u <= 0.0 {
                    pick = k;
                    break;
                }
            }
            (pick, RouteOutcome::Spill(s.cand[pick]))
        } else {
            return self.tally(RouteOutcome::Shed, tel);
        };
        // Commit the placement to the mirrors: one more outstanding query,
        // the free horizon extends by its predicted service time, and the
        // arrival becomes the GPU's representative.
        let g = s.cand[k];
        s.outstanding[g] += 1;
        s.est_free_ms[g] = s.est_free_ms[g].max(t_ms) + s.preds[k];
        s.head[g] = Some(NodeHead::of(q));
        self.tally(outcome, tel)
    }

    /// Route one arrival round-robin — the Kubernetes ingress: the first
    /// active GPU at or cyclically after the one past the last pick. Reads
    /// and moves no mirror; sheds only when no GPU is active.
    pub fn round_robin(&mut self, tel: Option<&mut Telemetry>) -> RouteOutcome {
        let n = self.scratch.active.len();
        let next = (0..n)
            .map(|k| (self.rr_next + k) % n)
            .find(|&g| self.scratch.active[g]);
        let Some(g) = next else {
            return self.tally(RouteOutcome::Shed, tel);
        };
        self.rr_next = (g + 1) % n;
        self.tally(RouteOutcome::Route(g), tel)
    }

    /// Count `outcome` in the run's stats and the telemetry registry.
    fn tally(&mut self, outcome: RouteOutcome, tel: Option<&mut Telemetry>) -> RouteOutcome {
        let (count, counter) = match outcome {
            RouteOutcome::Route(_) => (&mut self.stats.routed, Counter::RouterRouted),
            RouteOutcome::Spill(_) => (&mut self.stats.spilled, Counter::RouterSpilled),
            RouteOutcome::Shed => (&mut self.stats.shed, Counter::RouterShed),
        };
        *count += 1;
        if let Some(t) = tel {
            t.registry.inc(counter);
        }
        outcome
    }
}

/// The full outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct RoutedRunResult {
    /// One record per query. The epoch driver lists per-GPU
    /// completions/drops in GPU order, then ingress sheds (each stream in
    /// event order); Clockwork lists them in simulation order.
    pub records: Vec<QueryRecord>,
    /// Usage per GPU, pool-flattened index order.
    pub gpu_usage: Vec<GpuUsage>,
    /// Ingress decision counts; `routed + spilled + shed` is the arrival
    /// count (Clockwork's admission drops count as shed).
    pub router: RouterStats,
    /// Autoscaler activity (fleet-sized mean when disabled).
    pub autoscale: AutoscaleStats,
}

/// One GPU of a cluster: the shared serving loop with its own scheduler
/// and executor, run without options or observers. Records carry
/// [`ModelId::index`] as their `service`.
pub(crate) struct ClusterGpu {
    pub(crate) gpu: GpuLoop,
    scheduler: Box<dyn Scheduler>,
    pub(crate) executor: SegmentalExecutor,
    /// Sum of the executed groups' sequential-execution times, ms.
    sequential_ms: f64,
}

impl ClusterGpu {
    pub(crate) fn new(
        scheduler: Box<dyn Scheduler>,
        lib: &Arc<ModelLibrary>,
        gpu: GpuSpec,
        noise: &NoiseModel,
        seed: u64,
    ) -> Self {
        Self {
            gpu: GpuLoop::new(ModelId::ALL),
            scheduler,
            executor: SegmentalExecutor::new(gpu, noise.clone(), lib.clone(), seed),
            sequential_ms: 0.0,
        }
    }

    /// Run every round that starts at or before `until`.
    pub(crate) fn run_until(&mut self, until: f64, records: &mut Vec<QueryRecord>) {
        let (gpu, sched, ex) = (&mut self.gpu, &mut *self.scheduler, &mut self.executor);
        let opts = NodeOptions::default();
        while let Some(spec) = gpu.step_until(until, sched, ex, opts, None, None, records) {
            let table = ex.profile_table();
            self.sequential_ms += spec
                .entries
                .iter()
                .map(|e| table.solo_ms(e.model, e.input, e.op_start, e.op_end))
                .sum::<f64>();
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

/// The record of a query retired outside any GPU (shed at ingress or
/// refused by Clockwork's admission).
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

/// The query of arrival `id`.
pub(crate) fn make_query(
    cfg: &RoutedClusterConfig,
    lib: &ModelLibrary,
    id: usize,
    a: &Arrival,
    input: QueryInput,
) -> Query {
    let model = cfg.models[a.service];
    let n_ops = lib.graph(model, input).len();
    Query::new(id as u64, model, input, a.at_ms, cfg.qos_ms, n_ops)
}

/// Build the merged arrival stream: the aggregate trace split evenly across
/// the deployed services, each query with a random Table-1 input. It
/// depends on `(models, trace, seed)` alone, so every system replays the
/// byte-identical stream.
pub fn cluster_workload(
    cfg: &RoutedClusterConfig,
    lib: &ModelLibrary,
) -> (Vec<Arrival>, Vec<QueryInput>) {
    let mut rng = SeededRng::new(fork_seed(cfg.seed, 0x10AD));
    let per_service = cfg.trace.scaled(1.0 / cfg.models.len() as f64);
    let streams: Vec<Vec<Arrival>> = (0..cfg.models.len())
        .map(|s| per_service.generate(s, &mut rng))
        .collect();
    let arrivals = workload::merge_arrivals(streams);
    let inputs: Vec<QueryInput> = arrivals
        .iter()
        .map(|a| lib.random_input(cfg.models[a.service], &mut rng))
        .collect();
    (arrivals, inputs)
}

/// Run the cluster over the workload [`cluster_workload`] derives from
/// `cfg`. `router_model` scores candidates on
/// [`RoutedClusterConfig::reference`] hardware; `pool_models` (parallel to
/// `cfg.pools`) drive the in-node Abacus schedulers — pass `None` to
/// derive them from `router_model` via per-pool [`DeratedModel`]s.
/// Clockwork reads neither.
pub fn run_routed_cluster(
    cfg: &RoutedClusterConfig,
    lib: &Arc<ModelLibrary>,
    noise: &NoiseModel,
    router_model: Arc<dyn LatencyModel>,
    pool_models: Option<&[Arc<dyn LatencyModel>]>,
    telemetry: Option<&mut Telemetry>,
) -> RoutedRunResult {
    let (arrivals, inputs) = cluster_workload(cfg, lib);
    run_routed_cluster_on(
        cfg,
        lib,
        noise,
        router_model,
        pool_models,
        telemetry,
        &arrivals,
        &inputs,
    )
}

/// [`run_routed_cluster`] over a caller-supplied workload (the same
/// `(arrivals, inputs)` that [`cluster_workload`] derives) — benchmarks
/// generate the trace once and time only the run. Records are
/// arrival-stamped, so timelines can be rebuilt at any granularity.
///
/// # Panics
/// Panics on an empty fleet, on Clockwork with the autoscaler on, if the
/// arrivals and inputs differ in length, or if `pool_models` does not hold
/// one model per pool.
#[allow(clippy::too_many_arguments)]
pub fn run_routed_cluster_on(
    cfg: &RoutedClusterConfig,
    lib: &Arc<ModelLibrary>,
    noise: &NoiseModel,
    router_model: Arc<dyn LatencyModel>,
    pool_models: Option<&[Arc<dyn LatencyModel>]>,
    mut telemetry: Option<&mut Telemetry>,
    arrivals: &[Arrival],
    inputs: &[QueryInput],
) -> RoutedRunResult {
    assert!(cfg.total_gpus() > 0, "a cluster needs at least one GPU");
    assert!(
        cfg.system != ClusterSystem::Clockwork || cfg.autoscale.is_none(),
        "Clockwork runs without the autoscaler"
    );
    assert_eq!(arrivals.len(), inputs.len(), "one input per arrival");
    let out = match cfg.system {
        ClusterSystem::Clockwork => crate::clockwork::run(cfg, lib, noise, arrivals, inputs),
        _ => run_epochs(
            cfg,
            lib,
            noise,
            router_model,
            pool_models,
            telemetry.as_deref_mut(),
            arrivals,
            inputs,
        ),
    };
    let (records, r) = (&out.records, out.router);
    assert_eq!(
        records.len(),
        arrivals.len(),
        "every arrival must be accounted exactly once"
    );
    assert_eq!(
        r.routed + r.spilled + r.shed,
        arrivals.len() as u64,
        "every arrival gets one ingress decision"
    );
    if let Some(h) = telemetry.and_then(Telemetry::health_mut) {
        // Per-GPU sims retire queries on their own clocks; the burn-rate
        // windows need one global stream, so replay the outcomes in
        // retire-time order. The sort key is fully determined by the
        // records (ties broken by service, arrival, then the records' own
        // deterministic serial≡parallel order), so the resulting alert
        // stream is byte-reproducible.
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (&records[a], &records[b]);
            (ra.arrival_ms + ra.latency_ms)
                .total_cmp(&(rb.arrival_ms + rb.latency_ms))
                .then(ra.service.cmp(&rb.service))
                .then(ra.arrival_ms.total_cmp(&rb.arrival_ms))
                .then(a.cmp(&b))
        });
        for &i in &order {
            let r = &records[i];
            h.note_service(r.service, r.qos_ms);
            h.observe_query(r.arrival_ms + r.latency_ms, r.service, !r.met_qos());
        }
    }
    out
}

/// One epoch-driven GPU: the shared serving loop, its own record stream,
/// and the queries the ingress assigned it this epoch.
struct RoutedGpu {
    sim: ClusterGpu,
    records: Vec<QueryRecord>,
    /// Queries routed here this epoch, arrival order.
    assigned: Vec<Query>,
}

/// The epoch driver behind the headroom and round-robin ingresses.
#[allow(clippy::too_many_arguments)]
fn run_epochs(
    cfg: &RoutedClusterConfig,
    lib: &Arc<ModelLibrary>,
    noise: &NoiseModel,
    router_model: Arc<dyn LatencyModel>,
    pool_models: Option<&[Arc<dyn LatencyModel>]>,
    mut telemetry: Option<&mut Telemetry>,
    arrivals: &[Arrival],
    inputs: &[QueryInput],
) -> RoutedRunResult {
    if let Some(ms) = pool_models {
        assert_eq!(ms.len(), cfg.pools.len(), "one scheduler model per pool");
    }
    let derates = cfg.gpu_derates();
    let n_gpus = derates.len();
    let derived: Vec<Arc<dyn LatencyModel>>;
    let pool_models: &[Arc<dyn LatencyModel>] = match pool_models {
        Some(ms) => ms,
        None => {
            derived = cfg
                .pools
                .iter()
                .map(|p| {
                    let d = derate_of(&p.gpu, &cfg.reference);
                    Arc::new(DeratedModel::new(router_model.clone(), d)) as Arc<dyn LatencyModel>
                })
                .collect();
            &derived
        }
    };
    // One lock per GPU, so the parallel epoch can hand each GPU to whichever
    // pool thread claims its index; the locks are never contended.
    let mut sims: Vec<Mutex<RoutedGpu>> = Vec::with_capacity(n_gpus);
    for (p, pool) in cfg.pools.iter().enumerate() {
        for _ in 0..pool.gpus {
            let seed = fork_seed(cfg.seed, 0xE000 + sims.len() as u64);
            let abacus =
                AbacusScheduler::new(pool_models[p].clone(), lib.clone(), cfg.abacus.clone());
            sims.push(Mutex::new(RoutedGpu {
                sim: ClusterGpu::new(Box::new(abacus), lib, pool.gpu.clone(), noise, seed),
                records: Vec::new(),
                assigned: Vec::new(),
            }));
        }
    }
    let mut router = HeadroomRouter::new(
        router_model,
        derates.clone(),
        cfg.spill_slack_ms,
        fork_seed(cfg.seed, 0x5B111),
    );
    // Autoscaler priority: fastest (lowest-derate) GPUs first, index as
    // the deterministic tie-break.
    let mut priority: Vec<usize> = (0..n_gpus).collect();
    priority.sort_by(|&a, &b| derates[a].total_cmp(&derates[b]).then(a.cmp(&b)));
    let mut scale = AutoscaleStats::default();
    let mut shed_records: Vec<QueryRecord> = Vec::new();
    let horizon = cfg.trace.horizon_ms();
    assert!(cfg.epoch_ms > 0.0, "epoch must be positive");
    // Round-robin reads no mirror, so only the autoscaler's epoch
    // boundaries could change where its queries go.
    let epochs = if cfg.system == ClusterSystem::AbacusK8s && cfg.autoscale.is_none() {
        0
    } else {
        ((horizon / cfg.epoch_ms).ceil() as usize).max(1)
    };
    let mut next = 0usize;
    // Epoch `epochs` is the drain: it routes whatever arrivals are left,
    // then runs the queues dry.
    for e in 0..=epochs {
        let t_start = e as f64 * cfg.epoch_ms;
        let t_end = if e == epochs {
            f64::INFINITY
        } else {
            (e + 1) as f64 * cfg.epoch_ms
        };
        if let Some(sc) = &cfg.autoscale {
            let needed = sc.needed_capacity(&cfg.trace, t_start);
            let mut cum = 0.0;
            let mut on = 0usize;
            for &g in &priority {
                let activate = on < sc.min_gpus || cum < needed;
                if activate {
                    cum += 1.0 / derates[g];
                    on += 1;
                }
                if router.is_active(g) != activate {
                    if activate {
                        scale.up_events += 1;
                        if let Some(t) = telemetry.as_deref_mut() {
                            t.registry.inc(Counter::AutoscaleUpEvents);
                        }
                    } else {
                        scale.down_events += 1;
                        if let Some(t) = telemetry.as_deref_mut() {
                            t.registry.inc(Counter::AutoscaleDownEvents);
                        }
                    }
                    router.set_active(g, activate);
                }
            }
        }
        scale.mean_active_gpus += router.active_gpus() as f64 / (epochs + 1) as f64;
        // Serial routing pass over this epoch's arrivals.
        while next < arrivals.len() && arrivals[next].at_ms < t_end {
            let a = &arrivals[next];
            let q = make_query(cfg, lib, next, a, inputs[next]);
            let tel = telemetry.as_deref_mut();
            let outcome = match cfg.system {
                ClusterSystem::AbacusK8s => router.round_robin(tel),
                _ => router.route(a.at_ms, &q, tel),
            };
            match outcome {
                RouteOutcome::Route(g) | RouteOutcome::Spill(g) => {
                    sims[g].get_mut().unwrap().assigned.push(q);
                }
                RouteOutcome::Shed => shed_records.push(record_of(&q, 0.0, QueryOutcome::Dropped)),
            }
            next += 1;
        }
        // Independent per-GPU simulation of the epoch — the parallel
        // fan-out. A GPU's epoch touches only that GPU, so which thread
        // runs it cannot change its state.
        let step = |s: &mut RoutedGpu| {
            for q in s.assigned.drain(..) {
                s.sim.run_until(q.arrival_ms, &mut s.records);
                s.sim.gpu.admit(q);
            }
            s.sim.run_until(t_end, &mut s.records);
        };
        if cfg.parallel {
            rayon::pool::run(n_gpus, &|g| step(&mut sims[g].lock().unwrap()));
        } else {
            for s in &mut sims {
                step(s.get_mut().unwrap());
            }
        }
        // Epoch barrier: re-anchor the router's mirrors on actual state.
        for (g, s) in sims.iter_mut().enumerate() {
            let s = s.get_mut().unwrap();
            // The most urgent incomplete query is the GPU's representative.
            let queue = s.sim.gpu.queue();
            let head = queue
                .iter()
                .min_by(|a, b| {
                    a.deadline_ms()
                        .total_cmp(&b.deadline_ms())
                        .then(a.id.cmp(&b.id))
                })
                .map(NodeHead::of);
            router.sync(g, queue.len() as u32, s.sim.gpu.now(), head);
        }
    }
    let mut records = Vec::with_capacity(arrivals.len());
    let mut gpu_usage = Vec::with_capacity(n_gpus);
    for s in sims {
        let mut s = s.into_inner().unwrap();
        assert!(
            s.sim.gpu.queue().is_empty(),
            "drain epoch left queries behind"
        );
        records.append(&mut s.records);
        gpu_usage.push(s.sim.usage());
    }
    records.append(&mut shed_records);
    RoutedRunResult {
        records,
        gpu_usage,
        router: router.stats(),
        autoscale: scale,
    }
}

/// Write per-query records as CSV — the byte-identity surface the
/// serial-vs-parallel contract is checked on.
pub fn write_records_csv(path: &std::path::Path, records: &[QueryRecord]) -> std::io::Result<()> {
    let mut csv = abacus_metrics::CsvWriter::create(
        path,
        &[
            "service",
            "arrival_ms",
            "latency_ms",
            "qos_ms",
            "outcome",
            "requests",
            "queue_ms",
        ],
    )?;
    for r in records {
        csv.write_row([
            r.service.to_string(),
            format!("{:.6}", r.arrival_ms),
            format!("{:.6}", r.latency_ms),
            format!("{:.3}", r.qos_ms),
            format!("{:?}", r.outcome),
            r.requests.to_string(),
            format!("{:.6}", r.queue_ms),
        ])?;
    }
    csv.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_metrics::percentile;
    use predictor::features::SLOT_WIDTH;
    use predictor::MAX_COLOCATED;

    #[test]
    fn derates_are_roofline_pessimistic() {
        let v100 = GpuSpec::v100();
        let a100 = GpuSpec::a100();
        assert!((derate_of(&v100, &v100) - 1.0).abs() < 1e-12);
        // A100 is faster than V100 → derate < 1; the reverse > 1.
        assert!(derate_of(&a100, &v100) < 1.0);
        assert!(derate_of(&v100, &a100) > 1.0);
        // A MIG slice of an A100 is slower than the V100 reference.
        let mig = GpuSpec::a100().mig_slice(gpu_sim::MigProfile::TwoG10Gb);
        assert!(derate_of(&mig, &v100) > 1.0);
    }

    #[test]
    fn heterogeneous_config_flattens_derates_in_pool_order() {
        let trace = RateTrace::new(vec![10.0]);
        let mut cfg = RoutedClusterConfig::paper(trace, 1);
        cfg.pools = vec![
            NodePool {
                name: "a100",
                gpus: 2,
                gpu: GpuSpec::a100(),
            },
            NodePool {
                name: "v100",
                gpus: 1,
                gpu: GpuSpec::v100(),
            },
        ];
        let d = cfg.gpu_derates();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0], d[1]);
        assert!(d[0] < 1.0);
        assert!((d[2] - 1.0).abs() < 1e-12);
    }

    /// Constant-latency model: every group predicts `c` ms.
    struct ConstModel(f64);
    impl LatencyModel for ConstModel {
        fn predict_one(&self, _x: &[f64]) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    fn test_query(id: u64, t: f64) -> Query {
        Query::new(id, ModelId::ResNet50, QueryInput::new(4, 1), t, 100.0, 10)
    }

    #[test]
    fn router_sheds_when_nothing_can_finish() {
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(500.0)), vec![1.0; 4], 20.0, 7);
        let q = test_query(0, 0.0);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Shed);
        assert_eq!(r.stats().shed, 1);
        assert_eq!(r.stats().forwards, 1);
    }

    #[test]
    fn router_spills_inside_the_slack_band() {
        // Predicted completion misses the 100 ms deadline by 10 ms —
        // inside the 20 ms spill band.
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(110.0)), vec![1.0; 4], 20.0, 7);
        let q = test_query(0, 0.0);
        match r.route(0.0, &q, None) {
            RouteOutcome::Spill(g) => assert!(g < 4),
            other => panic!("expected spill, got {other:?}"),
        }
        assert_eq!(r.stats().spilled, 1);
    }

    #[test]
    fn router_prefers_the_idle_gpu() {
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(10.0)), vec![1.0; 3], 20.0, 7);
        // GPU 0 and 2 busy until t=40; GPU 1 idle.
        r.sync(0, 3, 40.0, None);
        r.sync(2, 1, 40.0, None);
        let q = test_query(0, 0.0);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Route(1));
        // Mirror updated: GPU 1 now has one outstanding, frees at 10 ms.
        assert_eq!(r.outstanding(1), 1);
    }

    #[test]
    fn inactive_gpus_are_never_candidates() {
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(10.0)), vec![1.0; 2], 20.0, 7);
        r.set_active(0, false);
        let q = test_query(0, 0.0);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Route(1));
        r.set_active(1, false);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Shed);
        assert_eq!(r.active_gpus(), 0);
    }

    #[test]
    fn derates_steer_routing_toward_faster_hardware() {
        // Same mirrors, but GPU 1 is 3× slower hardware: the idle-equal
        // cluster must route to the fast GPU 0.
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(30.0)), vec![1.0, 3.0], 20.0, 7);
        let q = test_query(0, 0.0);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Route(0));
    }

    /// Cheap monotone predictor for tests: the solo-latency share of each
    /// entry's operator span.
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

    fn v100s(gpus: usize) -> NodePool {
        NodePool {
            name: "v100",
            gpus,
            gpu: GpuSpec::v100(),
        }
    }

    /// A run of `system` over the workload `cfg` derives, every Abacus GPU
    /// and the router on the span predictor.
    fn run(system: ClusterSystem, cfg: &RoutedClusterConfig) -> RoutedRunResult {
        let lib = Arc::new(ModelLibrary::new());
        let span = Arc::new(SpanModel {
            lib: lib.clone(),
            gpu: GpuSpec::v100(),
        });
        let cfg = RoutedClusterConfig {
            system,
            ..cfg.clone()
        };
        run_routed_cluster(&cfg, &lib, &NoiseModel::calibrated(), span, None, None)
    }

    /// Two V100s under a flat two-minute load.
    fn tiny_cfg(peak_qps: f64) -> RoutedClusterConfig {
        let trace = RateTrace::new(vec![peak_qps; 2]);
        RoutedClusterConfig {
            pools: vec![v100s(2)],
            ..RoutedClusterConfig::paper(trace, 5)
        }
    }

    fn completed_requests(rs: &[QueryRecord]) -> u64 {
        rs.iter()
            .filter(|r| r.outcome == QueryOutcome::Completed)
            .map(|r| u64::from(r.requests))
            .sum()
    }

    #[test]
    fn all_systems_account_every_query() {
        let lib = ModelLibrary::new();
        let cfg = tiny_cfg(40.0);
        let (arrivals, _) = cluster_workload(&cfg, &lib);
        for system in [
            ClusterSystem::Headroom,
            ClusterSystem::AbacusK8s,
            ClusterSystem::Clockwork,
        ] {
            let out = run(system, &cfg);
            let r = out.router;
            assert_eq!(out.records.len(), arrivals.len(), "{system:?}");
            assert_eq!(r.routed + r.spilled + r.shed, arrivals.len() as u64);
            assert_eq!(out.gpu_usage.len(), 2);
        }
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
        // Admission control: Clockwork never completes a query past its
        // deadline (it drops instead), so p99 <= QoS.
        let p99 = percentile(&lats, 99.0);
        assert!(p99 <= cfg.qos_ms + 1e-6, "p99 {p99}");
    }

    #[test]
    fn abacus_cluster_throughput_at_least_clockwork() {
        let cfg = tiny_cfg(80.0); // keep both systems busy
        let a = completed_requests(&run(ClusterSystem::AbacusK8s, &cfg).records);
        let c = completed_requests(&run(ClusterSystem::Clockwork, &cfg).records);
        assert!(a as f64 >= c as f64 * 0.95, "abacus {a} vs clockwork {c}");
    }

    #[test]
    fn round_robin_parallel_matches_serial_bitwise() {
        let mut cfg = RoutedClusterConfig {
            pools: vec![v100s(4)],
            ..RoutedClusterConfig::paper(
                RateTrace::with_bucket_ms(vec![40.0, 160.0, 40.0], 2_000.0),
                5,
            )
        };
        // Pin the prediction-round latency: the default calibrates it from
        // the wall clock, which would differ between the two runs.
        cfg.abacus.predict_round_ms = Some(0.08);
        for autoscale in [None, Some(PredictiveAutoscaler::new(30.0, 1))] {
            cfg.autoscale = autoscale.map(|a| PredictiveAutoscaler {
                lead_ms: 500.0,
                ..a
            });
            cfg.parallel = false;
            let serial = run(ClusterSystem::AbacusK8s, &cfg);
            cfg.parallel = true;
            let parallel = run(ClusterSystem::AbacusK8s, &cfg);
            assert!(!serial.records.is_empty());
            assert_eq!(serial.records, parallel.records);
            assert_eq!(serial.gpu_usage, parallel.gpu_usage);
            assert_eq!(serial.router, parallel.router);
            assert_eq!(serial.autoscale, parallel.autoscale);
            let scaled = serial.autoscale.up_events + serial.autoscale.down_events > 0;
            assert_eq!(scaled, autoscale.is_some(), "the autoscaler must act");
        }
    }

    #[test]
    fn slowed_pool_loses_goodput_and_stays_deterministic() {
        let mut cfg = RoutedClusterConfig {
            pools: vec![v100s(2)],
            ..RoutedClusterConfig::paper(RateTrace::new(vec![50.0; 2]), 5)
        };
        cfg.abacus.predict_round_ms = Some(0.08);
        let healthy = run(ClusterSystem::AbacusK8s, &cfg).records;
        cfg.pools = vec![
            v100s(1),
            NodePool {
                name: "v100-slowed",
                gpus: 1,
                gpu: slowed(&GpuSpec::v100(), 3.0),
            },
        ];
        cfg.parallel = false;
        let serial = run(ClusterSystem::AbacusK8s, &cfg).records;
        cfg.parallel = true;
        let parallel = run(ClusterSystem::AbacusK8s, &cfg).records;
        // Slowing is deterministic and serial ≡ parallel.
        assert_eq!(serial, parallel);
        // Same arrivals, worse outcomes: a 3× slower GPU must not improve
        // QoS.
        assert_eq!(healthy.len(), serial.len());
        let good = |rs: &[QueryRecord]| {
            rs.iter()
                .filter(|r| r.outcome == QueryOutcome::Completed && r.met_qos())
                .count()
        };
        assert!(
            good(&serial) < good(&healthy),
            "slowed {} vs healthy {}",
            good(&serial),
            good(&healthy)
        );
    }

    #[test]
    #[should_panic(expected = "a cluster needs at least one GPU")]
    fn empty_pool_is_rejected() {
        let cfg = RoutedClusterConfig {
            pools: vec![v100s(0)],
            ..tiny_cfg(10.0)
        };
        run(ClusterSystem::Clockwork, &cfg);
    }

    #[test]
    #[should_panic(expected = "a cluster needs at least one GPU")]
    fn no_pools_is_rejected() {
        let cfg = RoutedClusterConfig {
            pools: Vec::new(),
            ..tiny_cfg(10.0)
        };
        run(ClusterSystem::AbacusK8s, &cfg);
    }

    #[test]
    #[should_panic(expected = "Clockwork runs without the autoscaler")]
    fn clockwork_with_autoscaler_is_rejected() {
        let cfg = RoutedClusterConfig {
            autoscale: Some(PredictiveAutoscaler::new(30.0, 1)),
            ..tiny_cfg(10.0)
        };
        run(ClusterSystem::Clockwork, &cfg);
    }

    #[test]
    #[should_panic(expected = "slowdown must be finite and >= 1")]
    fn speedup_is_not_a_slowdown() {
        slowed(&GpuSpec::v100(), 0.5);
    }

    #[test]
    fn workload_split_across_services() {
        let lib = ModelLibrary::new();
        let (arrivals, inputs) = cluster_workload(&tiny_cfg(100.0), &lib);
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
