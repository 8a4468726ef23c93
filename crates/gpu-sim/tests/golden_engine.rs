//! Golden test: the optimized engine (one running array, binary-heap
//! arrivals, incremental `U_c`/`U_m` aggregates, slot recycling, engine
//! reuse via `reset`) must be bit-identical to the pre-overhaul engine.
//!
//! The reference is the shared frozen copy
//! `bench::reference::engine::ReferenceEngine` (binary-insert pending
//! queue, slowdowns recomputed for the whole running set every event,
//! retired streams keep their slots forever) — the same engine the
//! `bench` binary's engine bench measures against. Running seeded
//! open-loop workloads — including clusters of equal-start arrivals, whose
//! activation order decides the order fault spikes are drawn in, and
//! kernel fault specs — through both engines and comparing every
//! completion with `f64::to_bits` pins the live engine to the old
//! semantics exactly, not approximately.
//!
//! The group-mode suites drive the executor's shape instead: reset, add 1–4
//! precomputed-profile streams at `t = 0`, run to idle, repeat. Width-1
//! groups run whole in the engine's lone-stream closed form; wider groups
//! reach it for their single-stream tail, after a partial decrement. A
//! last suite runs width-1 groups at serving length through every branch
//! of the closed form: profiled and unprofiled adds, trace on and off,
//! fault spec on and off.

use bench::reference::engine::{
    kernel_shapes, open_loop_workload, serving_groups, OpenLoop, ReferenceEngine,
};
use dnn_models::ModelLibrary;
use gpu_sim::{Engine, GpuSpec, KernelDesc, KernelFaultSpec, NoiseModel, RunningKernel};
use std::cell::RefCell;

/// Fixed-seed workloads: ties every 5th stream, 1..=6 kernels of the
/// classic compute/memory mix so the contention interference term is live.
const GOLDEN: OpenLoop = OpenLoop {
    tie_every: 5,
    gap_div: 800.0,
    min_len: 1,
    len_span: 6,
    shapes: 4,
};

fn workload(seed: u64, n: usize) -> Vec<(f64, Vec<KernelDesc>)> {
    open_loop_workload(seed, n, GOLDEN)
}

/// Drive an engine through the workload open-loop: streams are only added
/// once simulated time reaches their start (as a serving loop would), so
/// slot recycling actually reuses retired slots.
fn drive(
    work: &[(f64, Vec<KernelDesc>)],
    mut add: impl FnMut(&[KernelDesc], f64),
    mut step: impl FnMut() -> Option<(f64, f64)>,
    now: impl Fn() -> f64,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut next = 0;
    loop {
        while next < work.len() && work[next].0 <= now() + 1e-9 {
            add(&work[next].1, work[next].0);
            next += 1;
        }
        match step() {
            Some((s, e)) => out.push((s.to_bits(), e.to_bits())),
            None if next >= work.len() => break,
            None => {
                // Idle gap before the next arrival: admit it directly.
                add(&work[next].1, work[next].0);
                next += 1;
            }
        }
    }
    out
}

/// Every completion of `work` through the frozen reference engine.
fn run_reference(
    work: &[(f64, Vec<KernelDesc>)],
    noise: &NoiseModel,
    seed: u64,
    spec: Option<KernelFaultSpec>,
) -> Vec<(u64, u64)> {
    let mut engine = ReferenceEngine::new(GpuSpec::a100(), noise.clone(), seed);
    if let Some(spec) = spec {
        engine.set_kernel_faults(spec, seed);
    }
    let e = RefCell::new(engine);
    drive(
        work,
        |k, at| {
            e.borrow_mut().add_stream(k.to_vec(), at);
        },
        || e.borrow_mut().step().map(|(_, start, end)| (start, end)),
        || e.borrow().now(),
    )
}

/// Every completion of `work` through a prepared live engine, which hands
/// retired slots to later arrivals.
fn run_optimized(engine: Engine, work: &[(f64, Vec<KernelDesc>)]) -> Vec<(u64, u64)> {
    let e = RefCell::new(engine);
    drive(
        work,
        |k, at| {
            e.borrow_mut().add_stream(k, at);
        },
        || e.borrow_mut().step().map(|c| (c.start_ms, c.end_ms)),
        || e.borrow().now(),
    )
}

#[test]
fn optimized_engine_matches_pre_refactor_reference_bitwise() {
    let seed = 0xABACu64;
    let work = workload(seed, 400);
    let noise = NoiseModel::calibrated();

    let reference = run_reference(&work, &noise, seed, None);
    let mut engine = Engine::new(GpuSpec::a100(), noise, seed);
    // Exercise `reset` reuse on top of recycling: dirty the engine with an
    // unrelated run first, then reset to the golden seed.
    engine.add_stream(&work[0].1, 0.0);
    engine.run_until_idle();
    engine.reset(seed);
    let optimized = run_optimized(engine, &work);

    assert_eq!(reference.len(), work.len());
    assert_eq!(
        reference, optimized,
        "optimized engine diverged from the pre-refactor reference"
    );
}

#[test]
fn reference_and_optimized_agree_across_seeds() {
    // Smaller sweeps across several seeds: guards against a lucky match on
    // one seed's draw sequence.
    for seed in [1u64, 9, 77, 2021] {
        let work = workload(seed, 80);
        let noise = NoiseModel::calibrated();
        let reference = run_reference(&work, &noise, seed, None);
        let optimized = run_optimized(Engine::new(GpuSpec::a100(), noise, seed), &work);
        assert_eq!(reference, optimized, "divergence at seed {seed}");
    }
}

/// One group's completions as `(stream, start bits, end bits)` in the
/// order `step` yields them, plus the group's kernel event count.
type GroupRun = (Vec<(usize, u64, u64)>, u64);

/// Every group through the frozen reference, reset to seed `seed + g`
/// before group `g`.
fn run_groups_reference(
    groups: &[Vec<Vec<KernelDesc>>],
    noise: &NoiseModel,
    seed: u64,
    spec: Option<KernelFaultSpec>,
) -> Vec<GroupRun> {
    let mut e = ReferenceEngine::new(GpuSpec::a100(), noise.clone(), seed);
    if let Some(spec) = spec {
        e.set_kernel_faults(spec, seed);
    }
    groups
        .iter()
        .enumerate()
        .map(|(g, group)| {
            e.reset(seed.wrapping_add(g as u64));
            for kernels in group {
                e.add_stream(kernels.clone(), 0.0);
            }
            let mut out = Vec::new();
            while let Some((id, start, end)) = e.step() {
                out.push((id, start.to_bits(), end.to_bits()));
            }
            (out, e.events())
        })
        .collect()
}

/// How [`run_groups_optimized`] adds streams and whether it traces.
#[derive(Debug, Clone, Copy)]
struct GroupMode {
    /// Add streams with precomputed profiles, as the executor does.
    profiled: bool,
    /// Record kernel spans, and check they tile every stream exactly.
    traced: bool,
}

/// The segmental executor's way of driving the engine.
const EXECUTOR: GroupMode = GroupMode {
    profiled: true,
    traced: false,
};

/// [`run_groups_reference`] through one reused live engine, the way the
/// segmental executor drives it (with `mode` choosing how streams are
/// added and whether spans are recorded).
fn run_groups_optimized(
    groups: &[Vec<Vec<KernelDesc>>],
    noise: &NoiseModel,
    seed: u64,
    spec: Option<KernelFaultSpec>,
    mode: GroupMode,
) -> Vec<GroupRun> {
    let gpu = GpuSpec::a100();
    let mut e = Engine::new(gpu.clone(), noise.clone(), seed);
    e.set_kernel_faults(spec);
    if mode.traced {
        e.enable_trace();
    }
    let mut profiles = Vec::new();
    groups
        .iter()
        .enumerate()
        .map(|(g, group)| {
            e.reset(seed.wrapping_add(g as u64));
            for kernels in group {
                if mode.profiled {
                    profiles.clear();
                    profiles.extend(kernels.iter().map(|k| RunningKernel::profile(k, &gpu)));
                    e.add_stream_profiled(kernels, &profiles, 0.0);
                } else {
                    e.add_stream(kernels, 0.0);
                }
            }
            let mut out = Vec::new();
            while let Some(c) = e.step() {
                out.push((c.id.0, c.start_ms.to_bits(), c.end_ms.to_bits()));
            }
            if mode.traced {
                assert_spans_tile_streams(&e, g);
            }
            (out, e.events())
        })
        .collect()
}

/// One span per kernel event, and per stream: kernel indices ascending,
/// each span starting at the bits its predecessor ended on, the first at
/// the stream's start and the last at its end.
fn assert_spans_tile_streams(e: &Engine, g: usize) {
    assert_eq!(e.trace().len() as u64, e.events(), "group {g}: spans vs events");
    for c in e.completions() {
        let mut at = c.start_ms.to_bits();
        let mut last_kernel = None;
        for span in e.trace().iter().filter(|s| s.stream == c.id) {
            assert_eq!(span.start_ms.to_bits(), at, "group {g} stream {:?}", c.id);
            assert!(last_kernel < Some(span.kernel), "group {g}: kernel order");
            assert!(span.end_ms > span.start_ms && span.occupancy > 0.0);
            at = span.end_ms.to_bits();
            last_kernel = Some(span.kernel);
        }
        assert_eq!(at, c.end_ms.to_bits(), "group {g} stream {:?} end", c.id);
    }
}

#[test]
fn group_mode_matches_reference_bitwise() {
    let lib = ModelLibrary::new();
    let spike = KernelFaultSpec {
        seed: 5,
        window_start_ms: 2.0,
        window_end_ms: 40.0,
        prob: 0.3,
        factor: 2.5,
    };
    for (seed, noise, spec) in [
        (2021u64, NoiseModel::calibrated(), None),
        (7, NoiseModel::disabled(), None),
        (0xABAC, NoiseModel::calibrated(), Some(spike)),
        (
            99,
            NoiseModel::disabled(),
            Some(KernelFaultSpec::always(3, 1.0, 1.5)),
        ),
    ] {
        let groups = serving_groups(&lib, seed, 60, 4);
        assert!(groups.iter().any(|g| g.len() == 1) && groups.iter().any(|g| g.len() > 1));
        let reference = run_groups_reference(&groups, &noise, seed, spec);
        let optimized = run_groups_optimized(&groups, &noise, seed, spec, EXECUTOR);
        for (g, (r, o)) in reference.iter().zip(&optimized).enumerate() {
            // `step` yields one completion per event, so streams that tie
            // another's end are only counted by the event total.
            assert!(!r.0.is_empty(), "group {g} yielded no completion");
            assert_eq!(
                r,
                o,
                "group {g} (width {}) diverged at seed {seed}",
                groups[g].len()
            );
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Like [`workload`], but wilder: empty streams, launch-only kernels,
    /// true zero-cost kernels (which draw noise but finish instantly) and
    /// a denser cluster of equal-start ties.
    fn random_workload(seed: u64, n: usize, exotic: bool) -> Vec<(f64, Vec<KernelDesc>)> {
        let shape = OpenLoop {
            tie_every: 4,
            gap_div: 900.0,
            min_len: 0,
            len_span: 6,
            shapes: if exotic { 6 } else { 4 },
        };
        open_loop_workload(seed, n, shape)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random open-loop workloads — varied stream counts, zero-cost
        /// kernels, tied starts/completions, with and without noise and
        /// fault specs — through both engines, compared bit for bit.
        #[test]
        fn random_workloads_are_bit_identical(
            seed in 0u64..(1 << 32),
            n in 1usize..90,
            flags in (0u64..2, 0u64..2).prop_map(|(a, b)| (a == 1, b == 1)),
            fault in proptest::option::of((
                (0u64..1_000, 0.0f64..=1.0),
                (0.25f64..4.0, 0.0f64..30.0, 0.0f64..40.0),
            )),
        ) {
            let (exotic, noisy) = flags;
            let work = random_workload(seed, n, exotic);
            let noise = if noisy {
                NoiseModel::calibrated()
            } else {
                NoiseModel::disabled()
            };
            let spec = fault.map(|((fseed, prob), (factor, w0, wlen))| KernelFaultSpec {
                seed: fseed,
                window_start_ms: w0,
                window_end_ms: w0 + wlen,
                prob,
                factor,
            });
            let reference = run_reference(&work, &noise, seed, spec);
            let mut engine = Engine::new(GpuSpec::a100(), noise, seed);
            engine.set_kernel_faults(spec);
            let optimized = run_optimized(engine, &work);
            prop_assert_eq!(
                reference,
                optimized,
                "divergence: seed {} n {} exotic {} noisy {} spec {:?}",
                seed,
                n,
                exotic,
                noisy,
                spec
            );
        }
        /// Group mode with the exotic kernel pool: 1–4 streams of 0–11
        /// kernels per group (empty streams, launch-only and zero-cost
        /// kernels included), noise on/off and fault specs, compared
        /// completion by completion against the reference.
        #[test]
        fn random_groups_are_bit_identical(
            seed in 0u64..(1 << 32),
            groups in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(0usize..6, 0..12),
                    1..5,
                ),
                1..12,
            ),
            noisy in (0u64..2).prop_map(|b| b == 1),
            fault in proptest::option::of((
                (0u64..1_000, 0.0f64..=1.0),
                (0.25f64..4.0, 0.0f64..3.0, 0.0f64..6.0),
            )),
        ) {
            let shapes = kernel_shapes(&GpuSpec::a100());
            let groups: Vec<Vec<Vec<KernelDesc>>> = groups
                .iter()
                .map(|g| g.iter().map(|s| s.iter().map(|&k| shapes[k]).collect()).collect())
                .collect();
            let noise = if noisy {
                NoiseModel::calibrated()
            } else {
                NoiseModel::disabled()
            };
            let spec = fault.map(|((fseed, prob), (factor, w0, wlen))| KernelFaultSpec {
                seed: fseed,
                window_start_ms: w0,
                window_end_ms: w0 + wlen,
                prob,
                factor,
            });
            let reference = run_groups_reference(&groups, &noise, seed, spec);
            let optimized = run_groups_optimized(&groups, &noise, seed, spec, EXECUTOR);
            prop_assert_eq!(
                reference,
                optimized,
                "divergence: seed {} noisy {} spec {:?}",
                seed,
                noisy,
                spec
            );
        }

        /// Single-stream groups at serving length: 150–400 kernels each
        /// from the exotic pool, so every SIMD block tail of the duration
        /// fill and zero-cost kernels are hit, run whole in the engine's
        /// lone-stream closed form. Profiled and unprofiled adds, trace on
        /// (spans must tile each stream bit for bit) and off, fault spec
        /// on and off, compared completion by completion and event count
        /// by event count against the reference.
        #[test]
        fn lone_stream_groups_are_bit_identical(
            seed in 0u64..(1 << 32),
            groups in proptest::collection::vec(
                proptest::collection::vec(0usize..6, 150..400),
                1..4,
            ),
            flags in (0u64..2, 0u64..2, 0u64..2)
                .prop_map(|(a, b, c)| (a == 1, b == 1, c == 1)),
            fault in proptest::option::of((
                (0u64..1_000, 0.0f64..=1.0),
                (0.25f64..4.0, 0.0f64..40.0, 0.0f64..60.0),
            )),
        ) {
            let (noisy, profiled, traced) = flags;
            let shapes = kernel_shapes(&GpuSpec::a100());
            let groups: Vec<Vec<Vec<KernelDesc>>> = groups
                .iter()
                .map(|s| vec![s.iter().map(|&k| shapes[k]).collect()])
                .collect();
            let noise = if noisy {
                NoiseModel::calibrated()
            } else {
                NoiseModel::disabled()
            };
            let spec = fault.map(|((fseed, prob), (factor, w0, wlen))| KernelFaultSpec {
                seed: fseed,
                window_start_ms: w0,
                window_end_ms: w0 + wlen,
                prob,
                factor,
            });
            let mode = GroupMode { profiled, traced };
            let reference = run_groups_reference(&groups, &noise, seed, spec);
            let optimized = run_groups_optimized(&groups, &noise, seed, spec, mode);
            prop_assert_eq!(
                reference,
                optimized,
                "divergence: seed {} noisy {} mode {:?} spec {:?}",
                seed,
                noisy,
                mode,
                spec
            );
        }
    }
}
