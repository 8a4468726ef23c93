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
//!
//! The lone-entry suites pin `Engine::run_lone`, the executor's path for a
//! single-query group, which never builds the stream, to
//! `add_stream_profiled` + `run_until_idle` on model-library segments:
//! every length around the noise and lone-block widths, whole graphs and
//! random `(model, input, op range)` segments, noise on and off, no fault
//! spec, a silent one and a spiking one, trace on and off.

use bench::reference::engine::{
    kernel_shapes, open_loop_workload, serving_groups, OpenLoop, ReferenceEngine,
};
use dnn_models::{ModelId, ModelLibrary, QueryInput, BATCH_CHOICES};
use gpu_sim::{
    Engine, EngineCoreStats, GpuSpec, KernelDesc, KernelFaultSpec, KernelRows, NoiseModel,
    RunningKernel, StreamRows,
};
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
    assert_eq!(
        e.trace().len() as u64,
        e.events(),
        "group {g}: spans vs events"
    );
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

/// Everything a caller can read back from a group run to idle: the
/// completion records, the clock, the event and fault-spike counts, the
/// core stats (`max_active` among them) and the spans, as bits.
#[derive(Debug, PartialEq)]
struct RunOutcome {
    completions: Vec<(usize, u64, u64)>,
    now: u64,
    events: u64,
    fault_spikes: u64,
    stats: EngineCoreStats,
    spans: Vec<(usize, usize, u64, u64, u64)>,
}

fn run_outcome(e: &Engine) -> RunOutcome {
    RunOutcome {
        completions: e
            .completions()
            .iter()
            .map(|c| (c.id.0, c.start_ms.to_bits(), c.end_ms.to_bits()))
            .collect(),
        now: e.now().to_bits(),
        events: e.events(),
        fault_spikes: e.fault_spikes(),
        stats: e.core_stats(),
        spans: e
            .trace()
            .iter()
            .map(|s| {
                (
                    s.stream.0,
                    s.kernel,
                    s.start_ms.to_bits(),
                    s.end_ms.to_bits(),
                    s.occupancy.to_bits(),
                )
            })
            .collect(),
    }
}

/// Reused engines: one runs groups through the executor's entries (a
/// single stream through `run_lone`, wider groups through
/// `run_group_rows`), one through `add_stream_profiled` +
/// `run_until_idle`. When the two do not trace, a third runs the entries
/// with tracing on, which takes the lone fold's per-kernel path instead of
/// its in-window fold.
struct EntryPair {
    entry: Engine,
    added: Engine,
    per_kernel: Option<Engine>,
}

impl EntryPair {
    fn new(noise: &NoiseModel, traced: bool) -> Self {
        let engine = |traced| {
            let mut e = Engine::new(GpuSpec::a100(), noise.clone(), 0);
            if traced {
                e.enable_trace();
            }
            e
        };
        Self {
            entry: engine(traced),
            added: engine(traced),
            per_kernel: (!traced).then(|| engine(true)),
        }
    }

    /// Run the group `streams` both ways under `seed` and the fault case,
    /// and demand the same outcome bit for bit; untraced, the traced
    /// per-kernel run must match too, spans aside. Then add one more
    /// stream (a prefix of the first) to both engines without a reset: it
    /// must get the same retired slot and run to the same outcome, so the
    /// entries leave the engine in the add path's state.
    fn assert_same(&mut self, streams: &[StreamRows<'_>], seed: u64, case: FaultCase) {
        let (spec, base_ms) = case;
        let run_entry = |e: &mut Engine| match streams {
            [rows] => Some(e.run_lone(*rows)),
            _ => {
                e.run_group_rows(streams);
                None
            }
        };
        for e in [&mut self.entry, &mut self.added]
            .into_iter()
            .chain(self.per_kernel.as_mut())
        {
            e.reset(seed);
            e.set_kernel_faults(spec);
            e.set_fault_time_base(base_ms);
        }
        let lone = run_entry(&mut self.entry);
        for rows in streams {
            self.added
                .add_stream_profiled(rows.kernels, rows.profiles, 0.0);
        }
        self.added.run_until_idle();
        let (entry, added) = (run_outcome(&self.entry), run_outcome(&self.added));
        let lens: Vec<usize> = streams.iter().map(|r| r.kernels.len()).collect();
        let at = format!("kernels {lens:?}, seed {seed}, spec {spec:?}, base {base_ms}");
        assert_eq!(entry, added, "{at}");
        if let Some(e) = &mut self.per_kernel {
            run_entry(e);
            let per_kernel = RunOutcome {
                spans: Vec::new(),
                ..run_outcome(e)
            };
            assert_eq!(entry, per_kernel, "{at}: in-window fold vs per-kernel path");
        }
        if let Some(c) = lone {
            let record = [(c.id.0, c.start_ms.to_bits(), c.end_ms.to_bits())];
            assert_eq!(entry.completions, record, "{at}");
            assert_eq!(
                entry.stats.max_active,
                usize::from(entry.events > 0),
                "{at}"
            );
        }
        let probe = streams.first().map_or(0, |r| r.kernels.len().min(3));
        let ids = [&mut self.entry, &mut self.added].map(|e| match streams.first() {
            Some(r) => e.add_stream_profiled(&r.kernels[..probe], &r.profiles[..probe], 0.0),
            None => e.add_stream(&[], 0.0),
        });
        assert_eq!(ids[0], ids[1], "{at}: stream added after the run");
        self.entry.run_until_idle();
        self.added.run_until_idle();
        let (entry, added) = (run_outcome(&self.entry), run_outcome(&self.added));
        assert_eq!(entry, added, "{at}: stream added after the run");
    }
}

/// A fault spec (or none) and the fault time base it runs at.
type FaultCase = (Option<KernelFaultSpec>, f64);

/// A fault spec that spikes about a third of the kernels started between
/// 0.5 and 30 ms.
const SPIKING: KernelFaultSpec = KernelFaultSpec {
    seed: 5,
    window_start_ms: 0.5,
    window_end_ms: 30.0,
    prob: 0.3,
    factor: 2.5,
};

/// An installed fault spec that never fires.
const SILENT: KernelFaultSpec = KernelFaultSpec {
    seed: 3,
    window_start_ms: 0.0,
    window_end_ms: f64::INFINITY,
    prob: 0.0,
    factor: 5.0,
};

/// A window from 3 to 7.5 ms: on whole model graphs (kernels of 0.02 to
/// 0.1 ms) it opens and closes inside a 64-kernel block.
const NARROW: KernelFaultSpec = KernelFaultSpec {
    seed: 11,
    window_start_ms: 3.0,
    window_end_ms: 7.5,
    prob: 0.5,
    factor: 3.0,
};

/// A spec whose factor is `factor`, spiking every other kernel or so over
/// the whole run.
const fn whole_run(factor: f64) -> KernelFaultSpec {
    KernelFaultSpec {
        seed: 17,
        window_start_ms: 0.0,
        window_end_ms: f64::INFINITY,
        prob: 0.5,
        factor,
    }
}

/// No fault spec, a silent one and a spiking one, then the in-window
/// fold's edges: a window that opens and closes inside a block, at time
/// base 0 and shifted by a nonzero base; a factor of 1 (draws, but no
/// spike is counted), below 1 and exactly 0 (spiked kernels take no time);
/// `prob` = 1 inside a window that closes mid-run; and a NaN and a
/// negative factor, which the fold refuses (the per-kernel path skips the
/// kernels they spike).
const FAULT_CASES: [FaultCase; 11] = [
    (None, 0.0),
    (Some(SILENT), 0.0),
    (Some(SPIKING), 0.0),
    (Some(NARROW), 0.0),
    (Some(NARROW), 2.25),
    (Some(whole_run(1.0)), 0.0),
    (Some(whole_run(0.5)), 1.0),
    (Some(whole_run(0.0)), 0.0),
    (
        Some(KernelFaultSpec {
            seed: 23,
            window_start_ms: 0.0,
            window_end_ms: 5.0,
            prob: 1.0,
            factor: 1.5,
        }),
        0.0,
    ),
    (Some(whole_run(f64::NAN)), 0.0),
    (
        Some(KernelFaultSpec {
            window_start_ms: 2.0,
            window_end_ms: 12.0,
            ..whole_run(-1.0)
        }),
        0.0,
    ),
];

/// Segment lengths around every block width of the noise fill (one to
/// four vectors of 2, 8 or 16 kernels, by SIMD tier) and of the lone
/// entry's 64-kernel stack buffer, ±1.
const LONE_LENS: [usize; 27] = [
    0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 127, 128, 129, 191, 192,
    193, 255, 257,
];

#[test]
fn lone_entry_matches_add_and_run_bitwise() {
    let lib = ModelLibrary::new();
    let gpu = GpuSpec::a100();
    for noise in [NoiseModel::calibrated(), NoiseModel::disabled()] {
        for traced in [false, true] {
            let mut pair = EntryPair::new(&noise, traced);
            for (m, model) in ModelId::ALL.into_iter().enumerate() {
                let input = if m % 2 == 0 {
                    model.max_input()
                } else {
                    model.min_input()
                };
                let kernels = lib.kernels(model, input);
                let rows = KernelRows::new(kernels, &gpu);
                let n = kernels.len();
                let segments = LONE_LENS
                    .into_iter()
                    .filter(|&len| len <= n)
                    .map(|len| {
                        let start = (len * 7 + m) % (n - len + 1);
                        (start, start + len)
                    })
                    .chain([(0, n)]);
                for (i, (start, end)) in segments.enumerate() {
                    let seed = 2021 + (m * 64 + i) as u64;
                    for case in FAULT_CASES {
                        pair.assert_same(&[rows.segment(kernels, start, end)], seed, case);
                    }
                }
            }
            // Model lowerings hold no zero-cost kernel, so the synthetic
            // pool supplies them: leading, inner and trailing runs of
            // them, and streams of nothing else (no kernel ever runs).
            let shapes = kernel_shapes(&gpu);
            for len in LONE_LENS {
                let mixed: Vec<KernelDesc> = (0..len)
                    .map(|k| shapes[[5, 5, 0, 4, 5, 1, 2, 3, 5][k % 9]])
                    .collect();
                let idle = vec![shapes[5]; len % 10];
                for (j, kernels) in [mixed, idle].iter().enumerate() {
                    let rows = KernelRows::new(kernels, &gpu);
                    for case in FAULT_CASES {
                        let seed = 7 + (len * 2 + j) as u64;
                        pair.assert_same(&[rows.segment(kernels, 0, kernels.len())], seed, case);
                    }
                }
            }
        }
    }
}

/// `run_group_rows`, the executor's path for a group of 2–4 queries,
/// copies its streams' profile and solo rows into pooled buffers; it must
/// equal `add_stream_profiled` +
/// `run_until_idle` bit for bit on serving-shaped groups, noise on and
/// off, with every fault case, trace on and off.
#[test]
fn group_rows_match_add_and_run_bitwise() {
    let lib = ModelLibrary::new();
    let gpu = GpuSpec::a100();
    for (noise, seed) in [
        (NoiseModel::calibrated(), 2021u64),
        (NoiseModel::disabled(), 7),
    ] {
        let groups = serving_groups(&lib, seed, 60, 4);
        let rows: Vec<Vec<KernelRows>> = groups
            .iter()
            .map(|g| g.iter().map(|ks| KernelRows::new(ks, &gpu)).collect())
            .collect();
        assert!(groups.iter().any(|g| g.len() == 1) && groups.iter().any(|g| g.len() == 4));
        for traced in [false, true] {
            let mut pair = EntryPair::new(&noise, traced);
            for (g, (group, rows)) in groups.iter().zip(&rows).enumerate() {
                let streams: Vec<StreamRows<'_>> = group
                    .iter()
                    .zip(rows)
                    .map(|(ks, r)| r.segment(ks, 0, ks.len()))
                    .collect();
                for case in FAULT_CASES {
                    pair.assert_same(&streams, seed.wrapping_add(g as u64), case);
                }
            }
        }
    }
}

/// Windows whose edge is exactly a kernel's start instant, on kernels
/// inside a 64-kernel block and on either side of a block boundary, at
/// time base 0 and at a nonzero base. A window opening at kernel `k`'s
/// start spikes from `k` on (the start is inside); one closing there
/// spikes up to `k - 1`. The edges are read off traced runs: kernels
/// before `k` run the same under the edge window as under the run they
/// were read from, so `k` starts on the edge to the bit.
#[test]
fn spike_windows_on_kernel_start_instants_match_add_and_run() {
    let lib = ModelLibrary::new();
    let gpu = GpuSpec::a100();
    let mut probe = Engine::new(gpu.clone(), NoiseModel::calibrated(), 0);
    probe.enable_trace();
    let mut pair = EntryPair::new(&NoiseModel::calibrated(), false);
    for (model, seed) in [(ModelId::ResNet152, 31u64), (ModelId::Bert, 32)] {
        let input = model.max_input();
        let kernels = lib.kernels(model, input);
        let rows = KernelRows::new(kernels, &gpu);
        let stream = rows.segment(kernels, 0, kernels.len());
        let mut starts = |spec: Option<KernelFaultSpec>, base_ms: f64| {
            probe.reset(seed);
            probe.set_kernel_faults(spec);
            probe.set_fault_time_base(base_ms);
            probe.run_lone(stream);
            // Model lowerings hold no zero-cost kernel: span `k` is kernel `k`.
            assert_eq!(probe.trace().len(), kernels.len());
            probe
                .trace()
                .iter()
                .map(|s| s.start_ms)
                .collect::<Vec<f64>>()
        };
        let whole = whole_run(2.0);
        for base_ms in [0.0, 1.75] {
            let quiet = starts(None, base_ms);
            let spiked = starts(Some(whole), base_ms);
            for k in [1, 40, 63, 64, 65, 127, 128, 150] {
                let opens = KernelFaultSpec {
                    window_start_ms: base_ms + quiet[k],
                    ..whole
                };
                let closes = KernelFaultSpec {
                    window_end_ms: base_ms + spiked[k],
                    ..whole
                };
                for (spec, edge) in [
                    (opens, opens.window_start_ms),
                    (closes, closes.window_end_ms),
                ] {
                    pair.assert_same(&[stream], seed, (Some(spec), base_ms));
                    // Kernel `k` starts on the edge, as the engine sees it.
                    assert_eq!(base_ms + starts(Some(spec), base_ms)[k], edge);
                }
            }
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

        /// Random `(model, input, op range)` segments through the lone
        /// entry and through `add_stream_profiled` + `run_until_idle`,
        /// noise on and off, under any of the fault cases, trace on and
        /// off, compared bit for bit.
        #[test]
        fn random_lone_segments_match_add_and_run(
            seed in 0u64..(1 << 32),
            picks in (0usize..8, 0usize..4, 0usize..4),
            range in (0.0f64..1.0, 0.0f64..1.0),
            flags in (0u64..2, 0u64..2).prop_map(|(a, b)| (a == 1, b == 1)),
            case in 0usize..FAULT_CASES.len(),
        ) {
            let (noisy, traced) = flags;
            let lib = ModelLibrary::new();
            let gpu = GpuSpec::a100();
            let model = ModelId::ALL[picks.0];
            let seqs = model.seq_choices();
            let input = QueryInput::new(BATCH_CHOICES[picks.1], seqs[picks.2 % seqs.len()]);
            let kernels = lib.kernels(model, input);
            let rows = KernelRows::new(kernels, &gpu);
            let start = (range.0 * kernels.len() as f64) as usize;
            let end = start + (range.1 * (kernels.len() - start + 1) as f64) as usize;
            let noise = if noisy {
                NoiseModel::calibrated()
            } else {
                NoiseModel::disabled()
            };
            let case = FAULT_CASES[case];
            let rows = [rows.segment(kernels, start, end)];
            EntryPair::new(&noise, traced).assert_same(&rows, seed, case);
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
