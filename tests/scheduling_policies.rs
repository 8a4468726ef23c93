//! Integration tests of the scheduling layer: QoS semantics across
//! policies, the drop mechanism, headroom discipline, and the MIG study's
//! building blocks.

use abacus_core::{AbacusConfig, AbacusScheduler, ProfileTable, Query, Scheduler};
use dnn_models::{fuse_elementwise, ModelId, ModelLibrary, QueryInput, BATCH_CHOICES};
use faults::{FaultPlan, PredictorFault};
use gpu_sim::{GpuSpec, MigProfile, NoiseModel};
use predictor::LatencyModel;
use serving::{
    run_colocation, run_colocation_observed, run_with_services, train_unified,
    ColocationConfig, NodeOptions, PolicyKind, ServiceSpec, TrainerConfig,
};
use std::sync::Arc;

fn setup() -> (Arc<ModelLibrary>, GpuSpec, NoiseModel) {
    (
        Arc::new(ModelLibrary::new()),
        GpuSpec::a100(),
        NoiseModel::calibrated(),
    )
}

fn trained_pair(
    pair: &[ModelId],
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
) -> Arc<dyn LatencyModel> {
    let (mlp, _) = train_unified(
        &[pair.to_vec()],
        lib,
        gpu,
        noise,
        &TrainerConfig {
            samples_per_set: 500,
            runs_per_group: 3,
            mlp: predictor::MlpConfig {
                epochs: 80,
                ..predictor::MlpConfig::default()
            },
            seed: 4,
        },
    );
    Arc::new(mlp)
}

/// Under light load every policy meets QoS — the policies only diverge
/// once the queue carries real pressure.
#[test]
fn light_load_meets_qos_for_all_policies() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::InceptionV3];
    let mlp = trained_pair(&pair, &lib, &gpu, &noise);
    let cfg = ColocationConfig {
        qps_per_service: 4.0,
        horizon_ms: 8_000.0,
        seed: 11,
        ..ColocationConfig::default()
    };
    for p in PolicyKind::ALL {
        let pred = (p == PolicyKind::Abacus).then(|| mlp.clone());
        let r = run_colocation(&pair, p, pred, &lib, &gpu, &noise, &cfg);
        assert!(
            r.violation_ratio() < 0.02,
            "{}: viol {}",
            p.name(),
            r.violation_ratio()
        );
    }
}

/// Abacus's completed queries respect their *own* per-service QoS targets
/// almost always — the predictor-certified groups are the mechanism.
#[test]
fn abacus_completed_queries_meet_per_service_qos() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet152, ModelId::InceptionV3];
    let mlp = trained_pair(&pair, &lib, &gpu, &noise);
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 10_000.0,
        seed: 12,
        ..ColocationConfig::default()
    };
    let r = run_colocation(
        &pair,
        PolicyKind::Abacus,
        Some(mlp),
        &lib,
        &gpu,
        &noise,
        &cfg,
    );
    for (i, s) in r.per_service.iter().enumerate() {
        if s.completed() == 0 {
            continue;
        }
        let p95 = s.latency_percentile(95.0);
        assert!(
            p95 <= r.qos_ms[i] * 1.15,
            "service {i}: p95 {p95} vs qos {}",
            r.qos_ms[i]
        );
    }
}

/// The controller refuses to start queries it cannot finish (the §6.2
/// drop mechanism) instead of poisoning the queue.
#[test]
fn drop_mechanism_sheds_infeasible_queries() {
    let (lib, gpu, _) = setup();
    let mlp = trained_pair(&[ModelId::Vgg19], &lib, &gpu, &NoiseModel::calibrated());
    let mut sched = AbacusScheduler::new(mlp, lib.clone(), AbacusConfig::default());
    let input = QueryInput::new(32, 1);
    let n = lib.graph(ModelId::Vgg19, input).len();
    // 3 ms of headroom for a ~27 ms query: must be dropped, not scheduled.
    let q = Query::new(1, ModelId::Vgg19, input, 0.0, 30.0, n);
    let d = sched.decide(27.0, &[q]);
    assert_eq!(d.dropped, vec![1]);
    assert!(d.group.is_none());
}

/// MIG full isolation breaks QoS for the heavy models while Abacus on the
/// un-partitioned slice keeps violations strictly lower (Fig. 20's story).
#[test]
fn mig_isolation_story() {
    let (lib, gpu, noise) = setup();
    let small = gpu.mig_slice(MigProfile::OneG5Gb);
    let qos = lib.qos_target_ms(ModelId::ResNet152, &gpu);
    let services = vec![ServiceSpec {
        model: ModelId::ResNet152,
        qos_ms: qos,
    }];
    let cfg = ColocationConfig {
        qps_per_service: 8.0,
        horizon_ms: 8_000.0,
        seed: 13,
        ..ColocationConfig::default()
    };
    let isolated = run_with_services(
        &services,
        PolicyKind::Fcfs,
        None,
        &lib,
        &small,
        &noise,
        &cfg,
    );
    // The 1/7 slice cannot run ResNet-152's large inputs inside a QoS
    // target calibrated for the full GPU.
    assert!(
        isolated.violation_ratio() > 0.2,
        "isolated viol {}",
        isolated.violation_ratio()
    );
    let full = run_colocation(
        &[ModelId::ResNet152],
        PolicyKind::Fcfs,
        None,
        &lib,
        &gpu,
        &noise,
        &cfg,
    );
    assert!(full.violation_ratio() < isolated.violation_ratio());
}

/// Metamorphic: raising the fault intensity never makes serving *better*.
/// [`FaultPlan::at_intensity`] makes every injection strictly harsher with
/// intensity, so the QoS-violation ratio must be non-decreasing along the
/// dose axis (small slack for arrival-pattern resampling at the burst).
#[test]
fn qos_violations_monotone_in_fault_intensity() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::ResNet152];
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 5_000.0,
        seed: 11,
        ..ColocationConfig::default()
    };
    let mut last = -1.0;
    for intensity in [0.0, 0.5, 1.0] {
        let plan = FaultPlan::at_intensity(41, intensity);
        let out = run_colocation_observed(
            &pair,
            PolicyKind::Fcfs,
            None,
            None,
            &lib,
            &gpu,
            &noise,
            &cfg,
            &plan,
            NodeOptions::default(),
            None,
        );
        assert!(out.invariant_violations.is_empty());
        let v = out.result.violation_ratio();
        assert!(
            v >= last - 0.02,
            "intensity {intensity}: violation ratio {v} dropped below {last}"
        );
        last = v;
    }
    // The dose must actually bite: full intensity is strictly worse than
    // fault-free, not merely non-decreasing within the slack.
    assert!(last > 0.1, "full-intensity run suspiciously healthy: {last}");
}

/// Metamorphic: under *total* predictor failure (frozen output), Abacus
/// with the defensive runtime degrades to FCFS dispatch instead of
/// trusting garbage — so it never ends up meaningfully worse than having
/// run plain FCFS from the start.
#[test]
fn degraded_abacus_never_worse_than_fcfs_under_total_predictor_failure() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::InceptionV3];
    let mlp = trained_pair(&pair, &lib, &gpu, &noise);
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 6_000.0,
        seed: 15,
        abacus: AbacusConfig {
            predict_round_ms: Some(0.08),
            adaptive_margin: true,
            fcfs_fallback_error: Some(0.5),
            ..AbacusConfig::default()
        },
        ..ColocationConfig::default()
    };
    // The predictor answers a constant regardless of input — certifying
    // every group as trivially cheap (the dangerous direction).
    let plan = FaultPlan {
        seed: 5,
        predictor: Some(PredictorFault::Freeze { value_ms: 0.01 }),
        ..FaultPlan::none()
    };
    let defended = run_colocation_observed(
        &pair,
        PolicyKind::Abacus,
        Some(mlp),
        None,
        &lib,
        &gpu,
        &noise,
        &cfg,
        &plan,
        NodeOptions {
            timeout_factor: Some(3.0),
        },
        None,
    );
    assert!(defended.invariant_violations.is_empty());
    assert!(
        defended.degraded,
        "total predictor failure must trip the FCFS fallback"
    );
    let fcfs = run_colocation_observed(
        &pair,
        PolicyKind::Fcfs,
        None,
        None,
        &lib,
        &gpu,
        &noise,
        &cfg,
        &plan,
        NodeOptions::default(),
        None,
    );
    let (dv, fv) = (
        defended.result.violation_ratio(),
        fcfs.result.violation_ratio(),
    );
    assert!(
        dv <= fv + 0.05,
        "degraded Abacus ({dv}) worse than plain FCFS ({fv})"
    );
}

/// SJF pays prediction latency on the critical path; with a deep queue its
/// scheduling overhead is visible against FCFS on identical work.
#[test]
fn sjf_overhead_visible_under_pressure() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::Bert];
    let cfg = ColocationConfig {
        qps_per_service: 60.0,
        horizon_ms: 6_000.0,
        seed: 14,
        ..ColocationConfig::default()
    };
    let fcfs = run_colocation(&pair, PolicyKind::Fcfs, None, &lib, &gpu, &noise, &cfg);
    let sjf = run_colocation(&pair, PolicyKind::Sjf, None, &lib, &gpu, &noise, &cfg);
    // Same offered work.
    assert_eq!(fcfs.all.total(), sjf.all.total());
    // SJF's mean latency for completed small jobs is lower (that is its
    // point), but it cannot complete more than the queue allows.
    assert!(sjf.all.mean_latency() <= fcfs.all.mean_latency() * 1.05);
}

/// The per-GPU solo-latency table every serving path reads is bit-identical
/// to the reference `ModelGraph::solo_ms_range` on every graph, input and
/// simulated GPU, for each range shape the paths ask for: the whole graph
/// (the memoised total), every prefix `[0, k)`, and every suffix `[k, n)`
/// (a baseline's remaining work once `next_op > 0`).
#[test]
fn solo_latency_table_is_bit_identical_to_solo_ms_range() {
    let lib = Arc::new(ModelLibrary::new());
    let fused = Arc::new(ModelLibrary::new_with(|g| fuse_elementwise(&g)));
    let a100 = GpuSpec::a100();
    let mut cases = vec![
        (lib.clone(), a100.clone()),
        (lib.clone(), GpuSpec::v100()),
        (lib.clone(), cluster::slowed(&GpuSpec::v100(), 2.5)),
        (fused, a100.clone()),
    ];
    for p in [MigProfile::OneG5Gb, MigProfile::TwoG10Gb, MigProfile::FourG20Gb] {
        cases.push((lib.clone(), a100.mig_slice(p)));
    }
    for (lib, gpu) in cases {
        let mut table = ProfileTable::new(lib.clone(), gpu.clone());
        for m in ModelId::ALL {
            for &batch in &BATCH_CHOICES {
                for &seq in m.seq_choices() {
                    let input = QueryInput::new(batch, seq);
                    let graph = lib.graph(m, input);
                    let n = graph.len();
                    for k in 0..=n {
                        for (start, end) in [(0, k), (k, n)] {
                            assert_eq!(
                                table.solo_ms(m, input, start, end).to_bits(),
                                graph.solo_ms_range(&gpu, start, end).to_bits(),
                                "{} {input:?} [{start}, {end}) on {}",
                                m.name(),
                                gpu.name
                            );
                        }
                    }
                }
            }
        }
    }
}
