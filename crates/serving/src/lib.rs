//! Single-GPU serving simulation and experiment drivers.
//!
//! This crate ties the substrate together into the paper's evaluation
//! harness: [`node`] is the discrete-event per-GPU serving loop (arrivals →
//! queue → scheduler → segmental executor) that the cluster simulators
//! also run, [`mps`] reproduces the Fig. 3
//! free-overlap motivation, [`trainer`] runs the offline
//! sample-profile-train pipeline, and [`experiment`] drives the §7.2–7.5
//! co-location studies with paired workloads across policies.

pub mod experiment;
pub mod invariants;
pub mod mps;
pub mod node;
pub mod trainer;

pub use experiment::{
    build_faulty_workload, build_workload, make_scheduler, run_colocation, run_colocation_observed,
    run_with_services, services_for, ColocationConfig, ColocationResult, FaultRunOutcome,
    PolicyKind,
};
pub use invariants::InvariantChecker;
pub use mps::{mps_victim_latencies, victim_solo_ms, MpsConfig};
pub use node::{
    simulate_node_checked, simulate_node_instrumented, GpuLoop, GpuUsage, NodeOptions,
    NodeWorkload, ServiceSpec,
};
pub use trainer::{
    collect_dataset, collect_profiles, train_certified, train_unified, CertifiedPredictor,
    TrainerConfig,
};
