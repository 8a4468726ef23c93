//! Cluster-level serving (§7.6, Fig. 22) and the §7.9 autoscaling
//! extension.
//!
//! Abacus deliberately does *not* replace cluster-level management (§3.1):
//! it slots under any router. [`route`] is the one cluster simulator: a
//! [`RoutedClusterConfig`] names the system ([`ClusterSystem`]) and the
//! fleet, and [`run_routed_cluster`] replays a synthetic MAF-like trace
//! through it. The systems are the performance-first headroom-scored
//! router (one batched predictor forward per arrival, shed/spill when
//! nothing has headroom, heterogeneous A100/V100/MIG pools through per-GPU
//! derates, driven by [`autoscale::PredictiveAutoscaler`] over diurnal
//! traces), the paper's "Kubernetes routing + Abacus on every GPU", and a
//! Clockwork model (central EDF admission, exclusive per-GPU execution).
//! [`timeline`] produces the per-minute throughput/p99/average series of
//! Fig. 22; [`autoscale`] implements the scale-in/out/up decision rule
//! sketched as future work.

pub mod autoscale;
pub mod clockwork;
pub mod route;
pub mod timeline;

pub use autoscale::{
    AutoscalePolicy, AutoscaleStats, NodeSignals, PredictiveAutoscaler, ScaleDecision,
};
pub use clockwork::CLOCKWORK_ADMISSION_MARGIN;
pub use route::{
    cluster_workload, derate_of, run_routed_cluster, run_routed_cluster_on, slowed,
    write_records_csv, ClusterConfig, ClusterSystem, HeadroomRouter, NodeHead, NodePool,
    RouteOutcome, RoutedClusterConfig, RoutedRunResult, RouterStats,
};
pub use serving::GpuUsage;
pub use timeline::{
    add_counter_tracks, build_timeline, build_timeline_bucketed, summarize, TimelinePoint,
    TimelineSummary,
};
