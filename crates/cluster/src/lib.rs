//! Cluster-level serving (§7.6, Fig. 22) and the §7.9 autoscaling
//! extension.
//!
//! Abacus deliberately does *not* replace cluster-level management (§3.1):
//! it slots under any router. [`sim`] pits "Kubernetes routing + Abacus on
//! every GPU" against a Clockwork model (central EDF admission, exclusive
//! per-GPU execution) on a 16-GPU V100 cluster replaying a synthetic
//! MAF-like trace; [`timeline`] produces the per-minute
//! throughput/p99/average series of Fig. 22; [`autoscale`] implements the
//! scale-in/out/up decision rule sketched as future work.
//!
//! [`route`] is the performance-first ingress that replaces round-robin +
//! least-connections: a headroom-scored router that scores every candidate
//! GPU with one batched predictor forward, sheds or spills when nothing
//! has headroom, supports heterogeneous (A100/V100/MIG) pools through
//! per-GPU derates, and is driven by [`autoscale::PredictiveAutoscaler`]
//! over diurnal traces.

pub mod autoscale;
pub mod route;
pub mod sim;
pub mod timeline;

pub use autoscale::{
    AutoscalePolicy, AutoscaleStats, NodeSignals, PredictiveAutoscaler, ScaleDecision,
};
pub use route::{
    derate_of, run_routed_cluster, run_routed_cluster_on, write_records_csv, HeadroomRouter,
    NodeHead, NodePool,
    RouteOutcome, RoutedClusterConfig, RoutedRunResult, RouterStats,
};
pub use serving::GpuUsage;
pub use sim::{cluster_workload, run_cluster_on, ClusterConfig, ClusterRunResult, ClusterSystem};
pub use timeline::{
    add_counter_tracks, build_timeline, build_timeline_bucketed, summarize, TimelinePoint,
    TimelineSummary,
};
