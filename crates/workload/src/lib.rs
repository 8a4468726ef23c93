//! Workload primitives for the Abacus reproduction.
//!
//! This crate provides the *statistical* side of the evaluation:
//! deterministic seeded RNG plumbing, the distribution samplers the paper
//! relies on (Poisson arrivals via exponential inter-arrival times),
//! open-loop arrival processes, and
//! the synthetic Microsoft-Azure-Functions-like rate trace used by the
//! cluster experiment (Fig. 22).
//!
//! Everything is seeded explicitly: given the same seed, every experiment in
//! the repository is bit-reproducible.

pub mod arrivals;
pub mod dist;
pub mod rng;
pub mod trace;

pub use arrivals::{merge_arrivals, Arrival, PoissonProcess};
pub use dist::Exponential;
pub use rng::{fork_seed, SeededRng};
pub use trace::{synthesize_maf_like, RateTrace};
