//! The cluster ingress hot path. Replays a fixed-seed ~100k-query diurnal
//! burst against a heterogeneous 16-GPU fleet twice, through
//! `cluster::run_routed_cluster_on` with two ingress systems: the
//! headroom-scored router (memoised candidate scores, each distinct row
//! forwarded once, ingress shed/spill) and the Kubernetes round-robin
//! ingress (`ClusterSystem::AbacusK8s`: every arrival enqueued no matter
//! how doomed). Both run the same epoch driver, the same pools and the
//! same per-GPU serving loop (`serving::GpuLoop`), so `speedup` measures
//! ingress only. Reports end-to-end queries/sec for each path, the goodput
//! each ingress design achieves, and the routed path's wall time per
//! admitted (routed or spilled) query — the cost on equal work, since the
//! router sheds most of this burst at ingress.
//!
//! Every run checks itself: each path executes twice (warmup + timed) and
//! the two record-stream checksums must match bit for bit; both checksums
//! are printed so two trees can be compared for bit-identical records. Both
//! paths must see every arrival, and the routed path's goodput must beat
//! the round-robin path's (deterministic: goodput is a function of the
//! simulated records, not of the host). The routed/round-robin speedup is
//! host-dependent (both paths fan their GPUs out over the worker pool, for
//! different numbers of epochs), so only each path's queries/sec is gated.
//! Each path is timed once.

use crate::reference::decision::pinned_config;
use crate::{mix, Bench, Gated, Report, SoloSpanModel};
use abacus_metrics::{QueryOutcome, QueryRecord, ServiceStats};
use cluster::{ClusterSystem, NodePool, RoutedClusterConfig};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use std::sync::Arc;
use std::time::Instant;
use workload::RateTrace;

pub(crate) struct Cluster;

/// Offered load at the diurnal peak, queries/sec — far past the fleet's
/// capacity, which is exactly the regime that separates ingress designs:
/// round-robin funnels every doomed query through a scheduler queue, the
/// router scores it (mostly from its memo) and sheds it.
const PEAK_QPS: f64 = 78000.0;
const SEED: u64 = 2021;

/// Bit-sensitive checksum over a record stream: any nondeterminism in
/// routing, scheduling, or execution shifts it.
fn fold_records(records: &[QueryRecord]) -> u64 {
    let mut h = 0u64;
    for r in records {
        h = mix(h, r.service as u64);
        h = mix(h, r.arrival_ms.to_bits());
        h = mix(h, r.latency_ms.to_bits());
        h = mix(
            h,
            match r.outcome {
                QueryOutcome::Completed => 1,
                QueryOutcome::Dropped => 2,
                QueryOutcome::TimedOut => 3,
            },
        );
        h = mix(h, u64::from(r.requests));
        h = mix(h, r.queue_ms.to_bits());
    }
    h
}

/// The heterogeneous fleet both paths run: 16 GPUs — 4 at reference
/// speed, 8 mid-tier (V100-class vs the A100 reference), 4 slow
/// (MIG-slice-class).
const SLOWDOWNS: [f64; 3] = [1.0, 1.77, 4.0];
const POOL_SIZES: [usize; 3] = [4, 8, 4];
const POOL_NAMES: [&str; 3] = ["a100", "mid", "slow"];

struct Measured {
    queries: usize,
    elapsed_s: f64,
    checksum: u64,
    stats: ServiceStats,
}

/// Times one path's run and summarises the records it returns, passing
/// through whatever else the path reports.
fn measure<T>(run: impl FnOnce() -> (Vec<QueryRecord>, T)) -> (Measured, T) {
    let t0 = Instant::now();
    let (records, extra) = run();
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut stats = ServiceStats::new();
    stats.record_all(&records);
    let checksum = fold_records(&records);
    (
        Measured {
            queries: records.len(),
            elapsed_s,
            checksum,
            stats,
        },
        extra,
    )
}

impl Bench for Cluster {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn gated(&self) -> &'static [Gated] {
        const GATED: &[Gated] = &[
            Gated::higher("queries_per_sec"),
            Gated::higher("baseline_queries_per_sec"),
        ];
        GATED
    }

    fn run(&self) -> Report {
        // Diurnal-peak burst replay: ~100x the fleet's sustainable rate,
        // roughly 100k queries over a 1.6 s ramp-plus-peak. Short horizon on
        // purpose: the ingress designs differ in per-arrival cost, and a
        // long horizon would only add identical GPU-simulation time to both
        // paths.
        let trace = RateTrace::with_bucket_ms(vec![PEAK_QPS * 0.6, PEAK_QPS], 800.0);
        let lib = Arc::new(ModelLibrary::new());
        let reference = GpuSpec::a100();
        let noise = NoiseModel::calibrated();
        let models = vec![
            ModelId::ResNet101,
            ModelId::ResNet152,
            ModelId::Vgg19,
            ModelId::Bert,
        ];

        // The slowdown-derived specs give derates of exactly 1.0/1.77/4.0
        // against the reference.
        let pools: Vec<NodePool> = POOL_NAMES
            .iter()
            .zip(POOL_SIZES)
            .zip(SLOWDOWNS)
            .map(|((name, gpus), s)| NodePool {
                name,
                gpus,
                gpu: cluster::slowed(&reference, s),
            })
            .collect();
        let routed_cfg = RoutedClusterConfig {
            system: ClusterSystem::Headroom,
            pools,
            reference: reference.clone(),
            models,
            qos_ms: 100.0,
            trace,
            seed: SEED,
            abacus: pinned_config(),
            parallel: true,
            epoch_ms: 50.0,
            spill_slack_ms: 20.0,
            autoscale: None,
        };
        let rr_cfg = RoutedClusterConfig {
            system: ClusterSystem::AbacusK8s,
            ..routed_cfg.clone()
        };
        let span: Arc<dyn LatencyModel> = Arc::new(SoloSpanModel::new(&lib, &reference));

        // The workload is derived once, outside every timed region: the
        // bench measures ingress + simulation, not trace synthesis. Both
        // paths replay the exact same arrival stream.
        let (arrivals, inputs) = cluster::cluster_workload(&routed_cfg, &lib);
        eprintln!(
            "cluster workload: {} queries over a 16-GPU heterogeneous fleet...",
            arrivals.len()
        );
        let run = |cfg: &RoutedClusterConfig, pool_models: Option<&[Arc<dyn LatencyModel>]>| {
            measure(|| {
                let out = cluster::run_routed_cluster_on(
                    cfg,
                    &lib,
                    &noise,
                    span.clone(),
                    pool_models,
                    None,
                    &arrivals,
                    &inputs,
                );
                (out.records, out.router)
            })
        };
        // The routed pools' controllers run span models derated to their
        // hardware; the round-robin GPUs' all run the reference span model.
        let span_pools = vec![span.clone(); POOL_SIZES.len()];
        let run_routed = || run(&routed_cfg, None);
        let run_round_robin = || run(&rr_cfg, Some(&span_pools));
        let (routed_warm, _) = run_routed();
        let (routed, router_stats) = run_routed();
        let (base_warm, _) = run_round_robin();
        let (base, _) = run_round_robin();
        eprintln!(
            "  checksums: routed {:016x}, round-robin {:016x}",
            routed.checksum, base.checksum
        );

        let queries_per_sec = routed.queries as f64 / routed.elapsed_s;
        let baseline_queries_per_sec = base.queries as f64 / base.elapsed_s;
        let horizon_ms = routed_cfg.trace.horizon_ms();
        let admitted = router_stats.routed + router_stats.spilled;
        let routed_goodput = routed.stats.goodput_qps(horizon_ms);
        let base_goodput = base.stats.goodput_qps(horizon_ms);

        let mut r = Report::default();
        let deterministic =
            routed_warm.checksum == routed.checksum && base_warm.checksum == base.checksum;
        r.check(
            deterministic,
            "each path's warmup and timed records are bit-identical",
        );
        r.check(
            routed.queries == arrivals.len() && base.queries == arrivals.len(),
            "both paths account for every arrival exactly once",
        );
        // The ingress design's claim: shedding doomed queries at the router
        // serves more queries within QoS than enqueueing them all.
        r.check(
            routed_goodput > base_goodput,
            "routed goodput beats round-robin goodput",
        );
        r.int("queries", routed.queries as u64);
        r.int("gpus", 16);
        r.num("baseline_queries_per_sec", baseline_queries_per_sec, 0);
        r.num("queries_per_sec", queries_per_sec, 0);
        r.num("speedup", queries_per_sec / baseline_queries_per_sec, 2);
        r.num(
            "routed_ns_per_admitted",
            routed.elapsed_s * 1e9 / admitted.max(1) as f64,
            0,
        );
        r.num("routed_goodput_qps", routed_goodput, 1);
        r.num("baseline_goodput_qps", base_goodput, 1);
        r.int("shed", router_stats.shed);
        r.int("spilled", router_stats.spilled);
        r.int("forwards", router_stats.forwards);
        r.flag("identical", deterministic);
        r
    }
}
