//! A progress-based discrete-event GPU co-execution simulator.
//!
//! The paper's mechanism lives or dies on three properties of real GPUs
//! (§3, §5.2, §7.3):
//!
//! 1. **Under-occupancy**: most DNN operators launch too few thread blocks
//!    to fill all SMs, so two under-occupying kernels can overlap almost for
//!    free (ResNet/Inception convolutions on an A100).
//! 2. **Saturation**: large kernels (VGG convolutions at batch 32) fill the
//!    machine; overlapping them degenerates to time-sharing.
//! 3. **Determinism**: given a fixed set of overlapped kernels, co-run
//!    latency is stable across runs (std/mean ≈ 4.5% in the paper's 40 000
//!    runs).
//!
//! This crate reproduces exactly those properties with an analytic
//! roofline + proportional-sharing contention model (see [`contention`])
//! driven by an event-driven engine ([`engine`]) that advances kernels by
//! *work fraction*, re-deriving every running kernel's rate whenever the
//! co-run set changes. There is no time-stepping: between events progress
//! is integrated in closed form, which keeps full serving experiments
//! (tens of millions of kernel events) fast on a single core.
//!
//! [`GpuSpec`] provides calibrated A100/V100 presets and MIG slices
//! (Table 2, Table 3); [`NoiseModel`] provides the calibrated ~4%
//! lognormal run-to-run jitter, as counter-based draws keyed by run seed,
//! stream and kernel.

pub mod contention;
pub mod engine;
pub mod faults;
pub mod gpu;
pub mod kernel;
pub mod noise;
mod pqueue;
pub mod simd;

pub use contention::{co_run_slowdowns, RunningKernel};
pub use engine::{
    Engine, EngineCoreStats, GroupResult, KernelRows, KernelSpan, StreamCompletion, StreamId,
    StreamRows, ACTIVATION_SLACK_MS, RETIRE_EPSILON_MS,
};
pub use faults::KernelFaultSpec;
pub use gpu::{GpuSpec, MigProfile};
pub use kernel::KernelDesc;
pub use noise::{NoiseModel, NOISE_PROTOCOL};

/// Run a deterministic operator group to completion on an idle GPU.
///
/// `streams` holds one kernel sequence per participating query (each query's
/// operators execute in topological order on its own stream; streams
/// overlap). Returns per-stream finish times and the group duration.
///
/// Accepts any slice of kernel sequences (owned `Vec`s or borrowed slices
/// from the lowering cache), and reuses one engine per thread via
/// [`Engine::reset_with`] so the steady state allocates nothing per group.
pub fn run_group<S: AsRef<[KernelDesc]>>(
    gpu: &GpuSpec,
    noise: &NoiseModel,
    seed: u64,
    streams: &[S],
) -> GroupResult {
    with_idle_engine(gpu, noise, seed, |engine| {
        for s in streams {
            engine.add_stream(s.as_ref(), 0.0);
        }
        engine.run_until_idle();
    })
}

/// [`run_group`] for callers that replay the same kernel sequences many
/// times: each stream comes as [`StreamRows`], its kernels with their
/// precomputed contention profiles and solo times, and the group runs
/// through [`Engine::run_group_rows`], so the run is bit-identical to
/// [`run_group`] on the same kernels without re-deriving either per kernel
/// (and a single stream runs without a duration buffer). The offline
/// profiler measures every group this way.
pub fn run_group_profiled(
    gpu: &GpuSpec,
    noise: &NoiseModel,
    seed: u64,
    streams: &[StreamRows<'_>],
) -> GroupResult {
    with_idle_engine(gpu, noise, seed, |engine| engine.run_group_rows(streams))
}

/// Run a group with `run` to completion on this thread's engine, reset to
/// an idle `gpu` under `seed`.
fn with_idle_engine(
    gpu: &GpuSpec,
    noise: &NoiseModel,
    seed: u64,
    run: impl FnOnce(&mut Engine),
) -> GroupResult {
    use std::cell::RefCell;
    thread_local! {
        static ENGINE: RefCell<Option<Engine>> = const { RefCell::new(None) };
    }
    ENGINE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let engine = match slot.as_mut() {
            Some(e) => {
                e.reset_with(gpu, noise, seed);
                e
            }
            None => slot.insert(Engine::new(gpu.clone(), noise.clone(), seed)),
        };
        run(engine);
        engine.group_result()
    })
}
