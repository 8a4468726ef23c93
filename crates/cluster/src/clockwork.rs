//! Clockwork (§7.6's baseline): a central earliest-deadline-first queue;
//! a free GPU pulls the most urgent query and runs it *exclusively*
//! (Clockwork's per-GPU predictability discipline), with deadline-based
//! admission (a query whose solo latency can no longer fit its deadline is
//! dropped rather than scheduled — Clockwork refuses work it cannot finish
//! in time).
//!
//! Binding is late: a query is placed when a GPU frees, not when it
//! arrives, so this is a pull loop rather than an ingress on the epoch
//! driver. Each GPU is a [`ClusterGpu`] running an EDF
//! [`BaselineScheduler`] on the one query it pulled.

use crate::route::{
    make_query, record_of, ClusterGpu, RoutedClusterConfig, RoutedRunResult, RouterStats,
};
use crate::AutoscaleStats;
use abacus_core::{BaselinePolicy, BaselineScheduler, Query};
use abacus_metrics::QueryOutcome;
use dnn_models::{ModelLibrary, QueryInput};
use gpu_sim::NoiseModel;
use std::sync::Arc;
use workload::{fork_seed, Arrival};

/// Clockwork admits a query only if its *worst-case* latency estimate fits
/// the deadline. Real Clockwork profiles worst-case execution; we scale the
/// mean solo estimate by this margin to cover run-to-run noise and the
/// per-group sync overhead.
pub const CLOCKWORK_ADMISSION_MARGIN: f64 = 1.15;

/// Run Clockwork over the arrivals. Records are in simulation order.
pub(crate) fn run(
    cfg: &RoutedClusterConfig,
    lib: &Arc<ModelLibrary>,
    noise: &NoiseModel,
    arrivals: &[Arrival],
    inputs: &[QueryInput],
) -> RoutedRunResult {
    let pool_gpus = cfg
        .pools
        .iter()
        .flat_map(|p| std::iter::repeat_n(&p.gpu, p.gpus));
    let mut gpus: Vec<ClusterGpu> = pool_gpus
        .enumerate()
        .map(|(g, spec)| {
            let edf = BaselineScheduler::new(BaselinePolicy::Edf, lib.clone(), spec.clone());
            let seed = fork_seed(cfg.seed, 0xC000 + g as u64);
            ClusterGpu::new(Box::new(edf), lib, spec.clone(), noise, seed)
        })
        .collect();
    // When each GPU next looks for work: its clock, or later once it found
    // nothing admissible that had arrived.
    let mut free_at = vec![0.0f64; gpus.len()];
    let mut central: Vec<Query> = Vec::new();
    let mut records = Vec::with_capacity(arrivals.len());
    let mut stats = RouterStats::default();

    // Run every GPU's pulls up to `until`, then queue `arrival` centrally.
    let mut drain = |until: f64, arrival: Option<Query>| {
        while !central.is_empty() {
            // The next GPU to act is the one that frees earliest.
            let g = (0..free_at.len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .expect("a cluster has at least one GPU");
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
                let solo = gpus[g]
                    .executor
                    .profile_table()
                    .solo_ms(cq.model, cq.input, 0, cq.n_ops);
                let cq = central.remove(0);
                if t + solo * CLOCKWORK_ADMISSION_MARGIN > cq.deadline_ms() {
                    stats.shed += 1;
                    records.push(record_of(&cq, t - cq.arrival_ms, QueryOutcome::Dropped));
                } else {
                    pulled = Some(cq);
                    break;
                }
            }
            let Some(cq) = pulled else {
                // Nothing admissible has arrived yet for this GPU: jump
                // ahead to the earliest arrival.
                if central.is_empty() || earliest > until {
                    break;
                }
                free_at[g] = free_at[g].max(earliest);
                continue;
            };
            // An idle GPU's clock moves up to the arrival, so the query
            // starts at `t` and runs alone to completion.
            stats.routed += 1;
            let gpu = &mut gpus[g];
            gpu.gpu.admit(cq);
            debug_assert_eq!(gpu.gpu.now(), t, "a pulled query starts at the pull");
            gpu.run_until(f64::INFINITY, &mut records);
            free_at[g] = gpu.gpu.now();
        }
        central.extend(arrival);
    };
    for (i, (a, &input)) in arrivals.iter().zip(inputs).enumerate() {
        drain(a.at_ms, Some(make_query(cfg, lib, i, a, input)));
    }
    drain(f64::INFINITY, None);
    RoutedRunResult {
        records,
        gpu_usage: gpus.iter().map(ClusterGpu::usage).collect(),
        router: stats,
        autoscale: AutoscaleStats {
            mean_active_gpus: free_at.len() as f64,
            ..AutoscaleStats::default()
        },
    }
}
