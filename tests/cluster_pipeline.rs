//! Integration of the cluster layer (§7.6): trace synthesis → routing →
//! per-GPU serving → timelines, for every system.

use abacus_metrics::{QueryOutcome, QueryRecord};
use bench::reference::decision::{pinned_config, SpanModel};
use cluster::{
    build_timeline, cluster_workload, run_routed_cluster, slowed, summarize, AutoscalePolicy,
    ClusterSystem, GpuUsage, NodePool, NodeSignals, PredictiveAutoscaler, RoutedClusterConfig,
    RoutedRunResult, ScaleDecision,
};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, MigProfile, NoiseModel};
use predictor::LatencyModel;
use serving::{train_unified, TrainerConfig};
use std::sync::Arc;
use workload::{synthesize_maf_like, RateTrace};

/// `gpus` V100s in one pool.
fn v100s(gpus: usize) -> NodePool {
    NodePool {
        name: "v100",
        gpus,
        gpu: GpuSpec::v100(),
    }
}

/// A run of `system` over the workload `cfg` derives, every Abacus
/// controller on `model` (Clockwork reads no model).
fn run_system(
    system: ClusterSystem,
    cfg: &RoutedClusterConfig,
    lib: &Arc<ModelLibrary>,
    model: Arc<dyn LatencyModel>,
) -> RoutedRunResult {
    let cfg = RoutedClusterConfig {
        system,
        ..cfg.clone()
    };
    run_routed_cluster(&cfg, lib, &NoiseModel::calibrated(), model, None, None)
}

fn trained_quad(lib: &Arc<ModelLibrary>, gpu: &GpuSpec) -> Arc<dyn LatencyModel> {
    let (mlp, _) = train_unified(
        &[vec![
            ModelId::ResNet101,
            ModelId::ResNet152,
            ModelId::Vgg19,
            ModelId::Bert,
        ]],
        lib,
        gpu,
        &NoiseModel::calibrated(),
        &TrainerConfig {
            samples_per_set: 500,
            runs_per_group: 3,
            mlp: predictor::MlpConfig {
                epochs: 80,
                ..predictor::MlpConfig::default()
            },
            seed: 31,
        },
    );
    Arc::new(mlp)
}

/// Both systems under a bursty trace: identical arrivals, full accounting,
/// Clockwork never completes past-deadline work, and the timeline follows
/// the offered load.
#[test]
fn cluster_replay_full_accounting() {
    let lib = Arc::new(ModelLibrary::new());
    let minutes = 3;
    let trace = synthesize_maf_like(minutes, 120.0, 5);
    let cfg = RoutedClusterConfig {
        pools: vec![v100s(3)],
        ..RoutedClusterConfig::paper(trace, 17)
    };
    let (arrivals, inputs) = cluster_workload(&cfg, &lib);
    let reqs: Vec<u32> = inputs.iter().map(|i| i.batch).collect();
    let mlp = trained_quad(&lib, &GpuSpec::v100());

    let abacus = run_system(ClusterSystem::AbacusK8s, &cfg, &lib, mlp.clone()).records;
    let clockwork = run_system(ClusterSystem::Clockwork, &cfg, &lib, mlp).records;
    assert_eq!(abacus.len(), arrivals.len());
    assert_eq!(clockwork.len(), arrivals.len());

    // Clockwork's admission control: completed queries are within QoS (a
    // sliver of tolerance for noise beyond the admission margin).
    for r in &clockwork {
        if r.outcome == QueryOutcome::Completed {
            assert!(r.latency_ms <= cfg.qos_ms * 1.02, "{}", r.latency_ms);
        }
    }

    // The achieved timeline tracks offered load when not saturated.
    let tl = build_timeline(&arrivals, &reqs, &abacus, minutes);
    assert_eq!(tl.len(), minutes);
    for p in &tl[..minutes - 1] {
        // Within 35% of offered (completions can spill across minutes).
        assert!(
            p.achieved_rps > 0.6 * p.offered_rps,
            "minute {}: {} vs {}",
            p.minute,
            p.achieved_rps,
            p.offered_rps
        );
    }

    let s = summarize(&abacus, 0, minutes);
    assert!(s.mean_rps > 0.0);
    assert!(s.p99_ms > 0.0);
}

/// More GPUs means more completions under overload (the routing layer
/// actually spreads load).
#[test]
fn scaling_out_adds_capacity() {
    let lib = Arc::new(ModelLibrary::new());
    let trace = RateTrace::new(vec![260.0; 2]);
    let completed = |gpus: usize| {
        let cfg = RoutedClusterConfig {
            pools: vec![v100s(gpus)],
            ..RoutedClusterConfig::paper(trace.clone(), 7)
        };
        let span = Arc::new(SpanModel::default());
        run_system(ClusterSystem::Clockwork, &cfg, &lib, span)
            .records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::Completed)
            .count()
    };
    let two = completed(2);
    let four = completed(4);
    assert!(four > two, "4 gpus {four} vs 2 gpus {two}");
}

/// The §7.9 autoscaler consumes the signals a cluster run produces.
#[test]
fn autoscaler_reacts_to_cluster_state() {
    let policy = AutoscalePolicy::default();
    // A saturated VGG-heavy node: overlap gain near 1 → scale out.
    let saturated = NodeSignals {
        busy_fraction: 0.99,
        violation_ratio: 0.15,
        overlap_gain: 1.05,
    };
    assert_eq!(policy.decide(&saturated), ScaleDecision::ScaleOut);
    // A ResNet-style node with overlap headroom → scale up density.
    let roomy = NodeSignals {
        busy_fraction: 0.92,
        violation_ratio: 0.08,
        overlap_gain: 1.6,
    };
    assert_eq!(policy.decide(&roomy), ScaleDecision::ScaleUp);
    assert_eq!(
        policy.decide_fleet(&[saturated, roomy]),
        ScaleDecision::ScaleOut
    );
}

/// FNV-1a over the bit pattern of every field of every record, in order,
/// then of every GPU's usage: a change to any record, to the record order
/// or to any GPU's accounting changes it.
fn run_checksum(records: &[QueryRecord], usage: &[GpuUsage]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.service as u64);
        eat(r.arrival_ms.to_bits());
        eat(r.latency_ms.to_bits());
        eat(r.qos_ms.to_bits());
        eat(match r.outcome {
            QueryOutcome::Completed => 0,
            QueryOutcome::Dropped => 1,
            QueryOutcome::TimedOut => 2,
        });
        eat(u64::from(r.requests));
        eat(r.queue_ms.to_bits());
    }
    for u in usage {
        eat(u.busy_ms.to_bits());
        eat(u.groups);
        eat(u.sequential_ms.to_bits());
    }
    h
}

/// The 4-GPU V100 fleet of the round-robin and Clockwork pins: GPUs 2-3
/// run 2.5× slowed, 240 qps for 8 s, round latency pinned.
fn degraded_fleet(system: ClusterSystem) -> RoutedClusterConfig {
    RoutedClusterConfig {
        system,
        pools: vec![
            v100s(2),
            NodePool {
                name: "v100-slowed",
                gpus: 2,
                gpu: slowed(&GpuSpec::v100(), 2.5),
            },
        ],
        abacus: pinned_config(),
        ..RoutedClusterConfig::paper(RateTrace::with_bucket_ms(vec![240.0], 8_000.0), 23)
    }
}

/// Checksum pin of the round-robin Abacus + K8s path on the degraded
/// fleet, every GPU's controller on the un-derated synthetic span
/// predictor. Records in GPU order. Update only for an intentional change
/// to cluster serving semantics.
#[test]
fn abacus_k8s_records_checksum_is_pinned() {
    let lib = Arc::new(ModelLibrary::new());
    let cfg = degraded_fleet(ClusterSystem::AbacusK8s);
    let span: Arc<dyn LatencyModel> = Arc::new(SpanModel::default());
    let out = run_routed_cluster(
        &cfg,
        &lib,
        &NoiseModel::calibrated(),
        span.clone(),
        Some(&[span.clone(), span]),
        None,
    );
    assert_eq!(out.router.routed as usize, out.records.len());
    assert_eq!(
        run_checksum(&out.records, &out.gpu_usage),
        179_454_527_636_416_606,
        "round-robin cluster records drifted from the pinned checksum"
    );
}

/// Checksum pin of Clockwork on the degraded fleet: records in simulation
/// order, admission drops among them. Update only for an intentional
/// change to cluster serving semantics.
#[test]
fn clockwork_records_checksum_is_pinned() {
    let lib = Arc::new(ModelLibrary::new());
    let cfg = degraded_fleet(ClusterSystem::Clockwork);
    let out = run_routed_cluster(
        &cfg,
        &lib,
        &NoiseModel::calibrated(),
        Arc::new(SpanModel::default()),
        None,
        None,
    );
    assert_eq!(
        run_checksum(&out.records, &out.gpu_usage),
        5_738_182_151_696_144_931,
        "Clockwork records drifted from the pinned checksum"
    );
}

/// Checksum pin of the headroom-routed path on a heterogeneous fleet (A100,
/// V100 and MIG pools) with the predictive autoscaler on: records in
/// per-GPU-then-shed order, per-GPU usage, and the router's and
/// autoscaler's counts. Update only for an intentional change to cluster
/// serving semantics.
#[test]
fn routed_heterogeneous_autoscaled_checksum_is_pinned() {
    let lib = Arc::new(ModelLibrary::new());
    let v100 = GpuSpec::v100();
    let a100 = GpuSpec::a100();
    let mut cfg = RoutedClusterConfig::paper(
        RateTrace::with_bucket_ms(vec![90.0, 600.0, 90.0], 2_000.0),
        29,
    );
    cfg.pools = vec![
        NodePool {
            name: "a100",
            gpus: 2,
            gpu: a100.clone(),
        },
        NodePool {
            name: "v100",
            gpus: 2,
            gpu: v100.clone(),
        },
        NodePool {
            name: "mig-2g",
            gpus: 2,
            gpu: a100.mig_slice(MigProfile::TwoG10Gb),
        },
    ];
    cfg.reference = v100;
    cfg.abacus = pinned_config();
    // Look one second ahead so the fleet visibly scales up into the burst
    // and back down after it.
    cfg.autoscale = Some(PredictiveAutoscaler {
        lead_ms: 1_000.0,
        ..PredictiveAutoscaler::new(60.0, 2)
    });
    let out = run_routed_cluster(
        &cfg,
        &lib,
        &NoiseModel::calibrated(),
        Arc::new(SpanModel::default()),
        None,
        None,
    );
    let (r, a) = (out.router, out.autoscale);
    assert_eq!((r.routed, r.spilled, r.shed), (1416, 45, 6));
    assert_eq!((a.up_events, a.down_events), (4, 8));
    assert_eq!(
        run_checksum(&out.records, &out.gpu_usage),
        13_210_795_039_573_215_298,
        "routed cluster records drifted from the pinned checksum"
    );
}
