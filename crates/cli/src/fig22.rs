//! Fig. 22 — cluster-level serving: Abacus + Kubernetes vs Clockwork
//! replaying a MAF-like trace on 16 V100 GPUs (§7.6).

use crate::common::{as_model, ensure_predictor, pinned_abacus_config, Options};
use abacus_metrics::{CsvWriter, ServiceStats};
use cluster::{
    build_timeline, cluster_workload, run_routed_cluster_on, summarize, AutoscalePolicy,
    ClusterSystem, NodePool, NodeSignals, PredictiveAutoscaler, RoutedClusterConfig,
    RoutedRunResult,
};
use dnn_models::ModelLibrary;
use gpu_sim::{GpuSpec, MigProfile, NoiseModel};
use std::sync::Arc;
use workload::synthesize_maf_like;

/// Aggregate offered load at the plateau, queries/s across the cluster.
/// Chosen so the 16 simulated V100s run at high utilisation, mirroring the
/// paper's near-saturation replay.
fn plateau_qps(opts: &Options) -> f64 {
    match opts.scale {
        crate::common::Scale::Fast => 780.0,
        _ => 780.0,
    }
}

/// Run the cluster comparison and emit `results/fig22.csv`.
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let v100 = GpuSpec::v100();
    let noise = NoiseModel::calibrated();
    let minutes = opts.scale.trace_minutes();
    let trace = synthesize_maf_like(minutes, plateau_qps(opts), opts.seed ^ 0x3A);
    let mut routed_cfg = RoutedClusterConfig::paper(trace, opts.seed);
    routed_cfg.parallel = opts.parallel;

    let mlp = ensure_predictor(
        "unified_quad_v100",
        &[routed_cfg.models.clone()],
        &lib,
        &v100,
        opts,
    );
    // Pin the per-round prediction latency so every per-GPU scheduler —
    // and every rerun — charges the identical Eq. 3 overhead.
    routed_cfg.abacus = pinned_abacus_config(&mlp, "unified_quad_v100", opts);

    let (arrivals, inputs) = cluster_workload(&routed_cfg, &lib);
    let arrival_reqs: Vec<u32> = inputs.iter().map(|i| i.batch).collect();
    eprintln!(
        "[fig22] replaying {minutes} min MAF-like trace, {} queries on {} GPUs...",
        arrivals.len(),
        routed_cfg.total_gpus()
    );
    // Every system replays the same workload on the same 16 V100s.
    let run_cfg = |name: &str, cfg: &RoutedClusterConfig| -> RoutedRunResult {
        let t0 = std::time::Instant::now();
        let out = run_routed_cluster_on(
            cfg,
            &lib,
            &noise,
            as_model(&mlp),
            None,
            None,
            &arrivals,
            &inputs,
        );
        eprintln!("[fig22] {name} done in {:.1?}", t0.elapsed());
        out
    };
    let system = |system| RoutedClusterConfig {
        system,
        ..routed_cfg.clone()
    };
    let detailed = run_cfg("Abacus", &system(ClusterSystem::AbacusK8s));
    let abacus = &detailed.records;
    let clockwork = &run_cfg("Clockwork", &system(ClusterSystem::Clockwork)).records;

    let tl_a = build_timeline(&arrivals, &arrival_reqs, abacus, minutes);
    let tl_c = build_timeline(&arrivals, &arrival_reqs, clockwork, minutes);

    let mut csv = CsvWriter::create(
        opts.csv_path("fig22"),
        &[
            "minute",
            "offered_rps",
            "abacus_rps",
            "clockwork_rps",
            "abacus_p99_ms",
            "clockwork_p99_ms",
            "abacus_avg_ms",
            "clockwork_avg_ms",
        ],
    )
    .expect("csv");
    for (a, c) in tl_a.iter().zip(&tl_c) {
        csv.write_record(
            &a.minute.to_string(),
            &[
                a.offered_rps,
                a.achieved_rps,
                c.achieved_rps,
                a.p99_ms,
                c.p99_ms,
                a.avg_ms,
                c.avg_ms,
            ],
        )
        .expect("row");
    }
    csv.flush().expect("flush");

    let warmup = (minutes / 6).max(1);
    let sa = summarize(abacus, warmup, minutes);
    let sc = summarize(clockwork, warmup, minutes);
    println!("Fig. 22 — cluster serving over a {minutes}-minute MAF-like trace, QoS 100 ms");
    println!(
        "  {:<10} {:>12} {:>10} {:>10} {:>8}",
        "system", "tput (r/s)", "p99 (ms)", "avg (ms)", "drops"
    );
    for (name, s) in [("Abacus", sa), ("Clockwork", sc)] {
        println!(
            "  {:<10} {:>12.0} {:>10.1} {:>10.1} {:>7.1}%",
            name,
            s.mean_rps,
            s.p99_ms,
            s.avg_ms,
            100.0 * s.drop_ratio
        );
    }
    println!(
        "  Abacus throughput vs Clockwork: {:+.1}%  (paper: +17.8%, from fewer drops)",
        100.0 * (sa.mean_rps / sc.mean_rps - 1.0)
    );
    println!(
        "  paper shape: both p99 <= QoS; Clockwork p99 close to QoS; Abacus avg slightly higher"
    );
    // §7.9 extension: measured per-GPU signals drive the autoscaler.
    let horizon_ms = minutes as f64 * 60_000.0;
    let fleet: Vec<NodeSignals> = detailed
        .gpu_usage
        .iter()
        .map(|u| NodeSignals {
            busy_fraction: u.busy_fraction(horizon_ms),
            violation_ratio: sa.drop_ratio,
            overlap_gain: u.overlap_gain(),
        })
        .collect();
    let busy = fleet.iter().map(|s| s.busy_fraction).sum::<f64>() / fleet.len() as f64;
    let gain = fleet.iter().map(|s| s.overlap_gain).sum::<f64>() / fleet.len() as f64;
    println!(
        "  fleet signals: mean busy {:.0}%, mean overlap gain {:.2}x -> autoscaler says {:?} (§7.9)",
        100.0 * busy,
        gain,
        AutoscalePolicy::default().decide_fleet(&fleet)
    );

    // Headroom-routed ingress over the same workload: the predicted-latency
    // router replaces round-robin, on three fleets — the paper's
    // homogeneous 16×V100, a heterogeneous A100/V100/MIG mix of the same
    // width, and the V100 fleet under the predictive autoscaler reading the
    // diurnal trace one minute ahead of the clock.
    let mut hetero_cfg = routed_cfg.clone();
    hetero_cfg.pools = vec![
        NodePool {
            name: "a100",
            gpus: 4,
            gpu: GpuSpec::a100(),
        },
        NodePool {
            name: "v100",
            gpus: 8,
            gpu: GpuSpec::v100(),
        },
        NodePool {
            name: "mig-4g",
            gpus: 4,
            gpu: GpuSpec::a100().mig_slice(MigProfile::FourG20Gb),
        },
    ];
    let mut auto_cfg = routed_cfg.clone();
    // ~49 qps/GPU saturates the 16-GPU fleet at the 780 qps plateau; sizing
    // for 70% utilisation keeps the plateau fully active while the ramp's
    // trough parks the surplus GPUs.
    auto_cfg.autoscale = Some(PredictiveAutoscaler::new(55.0, 4));
    println!("  — headroom-routed ingress (same trace, same QoS) —");
    println!(
        "  {:<14} {:>12} {:>10} {:>10} {:>8} {:>9} {:>7} {:>6}",
        "fleet", "tput (r/s)", "p99 (ms)", "avg (ms)", "drops", "goodput", "shed", "spill"
    );
    let mut routed_tls = Vec::new();
    for (name, rcfg) in [
        ("v100x16", &routed_cfg),
        ("hetero", &hetero_cfg),
        ("autoscaled", &auto_cfg),
    ] {
        let out = run_cfg(&format!("routed fleet '{name}'"), rcfg);
        let s = summarize(&out.records, warmup, minutes);
        let mut stats = ServiceStats::new();
        stats.record_all(&out.records);
        println!(
            "  {:<14} {:>12.0} {:>10.1} {:>10.1} {:>7.1}% {:>7.0}/s {:>7} {:>6}",
            name,
            s.mean_rps,
            s.p99_ms,
            s.avg_ms,
            100.0 * s.drop_ratio,
            stats.goodput_qps(horizon_ms),
            out.router.shed,
            out.router.spilled,
        );
        if out.autoscale.up_events + out.autoscale.down_events > 0 {
            println!(
                "  {:<14} mean active {:.1}/{} GPUs, {} up / {} down events (lead 60 s)",
                "",
                out.autoscale.mean_active_gpus,
                rcfg.total_gpus(),
                out.autoscale.up_events,
                out.autoscale.down_events,
            );
        }
        routed_tls.push(build_timeline(
            &arrivals,
            &arrival_reqs,
            &out.records,
            minutes,
        ));
    }
    let mut csv = CsvWriter::create(
        opts.csv_path("fig22_routed"),
        &[
            "minute",
            "offered_rps",
            "routed_rps",
            "hetero_rps",
            "autoscaled_rps",
            "routed_p99_ms",
            "hetero_p99_ms",
            "autoscaled_p99_ms",
        ],
    )
    .expect("csv");
    for (m, r) in routed_tls[0].iter().enumerate() {
        let (h, a) = (&routed_tls[1][m], &routed_tls[2][m]);
        csv.write_record(
            &m.to_string(),
            &[
                r.offered_rps,
                r.achieved_rps,
                h.achieved_rps,
                a.achieved_rps,
                r.p99_ms,
                h.p99_ms,
                a.p99_ms,
            ],
        )
        .expect("row");
    }
    csv.flush().expect("flush");
    println!("wrote {}", opts.csv_path("fig22").display());
    println!("wrote {}", opts.csv_path("fig22_routed").display());
}
