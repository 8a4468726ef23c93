//! One [`Bench`] per layer. Each times the live code at one fixed size and
//! keeps the estimator its numbers have always used, so they stay
//! comparable with the committed baselines.

use crate::Bench;

mod cluster;
mod decision;
mod engine;
mod search;
mod serving;
mod train;

/// Every layer bench, in the order a bare `bench` run executes them.
pub const BENCHES: [&dyn Bench; 6] = [
    &search::Search,
    &serving::Serving,
    &train::Train,
    &engine::Engine,
    &decision::Decision,
    &cluster::Cluster,
];

/// Available hardware threads, recorded next to results that depend on
/// them.
fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}
