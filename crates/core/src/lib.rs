//! The Abacus runtime system (§4–§6 of the paper).
//!
//! This crate is the paper's primary contribution: a framework-level
//! runtime that co-locates multiple DNN services on one GPU by issuing
//! *deterministic operator groups* sized each round so that an
//! overlap-aware latency predictor certifies the QoS of the query with the
//! least headroom.
//!
//! * [`query`] — in-flight query state and the Eq. 2/3 headroom arithmetic;
//! * [`search`] — the multi-way search over operator-group candidates
//!   (§6.2–6.3, Fig. 12);
//! * [`abacus`] — the headroom-based query controller with pipelined
//!   scheduling and the drop mechanism;
//! * [`executor`] — the flexible segmental model executor (§6.1, Fig. 11)
//!   that runs groups exclusively on the (simulated) GPU and manages
//!   intermediate results for partially-processed queries;
//! * [`baselines`] — the FCFS / SJF / EDF sequential policies the paper
//!   compares against (the per-GPU behaviour of Nexus and Clockwork);
//! * [`profile`] — the per-GPU solo-latency table every serving path reads
//!   solo latencies and kernel profiles from;
//! * [`scheduler`] — the trait tying any of the above to a serving node.

pub mod abacus;
pub mod baselines;
pub mod executor;
pub mod group;
pub mod order;
pub mod profile;
pub mod query;
pub mod scheduler;
pub mod search;

pub use abacus::{
    calibrate_predict_round_ms, AbacusConfig, AbacusScheduler, FALLBACK_BARREN_ROUNDS,
};
pub use baselines::{BaselinePolicy, BaselineScheduler, SJF_PREDICT_MS};
pub use executor::{ExecOutcome, SegmentalExecutor, GROUP_SYNC_MS, SAVE_RESTORE_MS};
pub use group::{PlannedEntry, PlannedGroup};
pub use order::{order_key, OrderIndex};
pub use profile::ProfileTable;
pub use query::Query;
pub use scheduler::{DecisionStats, RoundDecision, Scheduler};
pub use search::{plan_group, plan_group_core, PlanOutcome, SearchBuffers, SearchResult};
