//! The discrete-event engine core: kernel-level events/sec on three
//! workloads — an open-loop arrival backlog (160k pre-enqueued streams,
//! the pending heap at its deepest), a tight group-mode reset loop of
//! wide groups (the one leg with more than 4 kernels in flight), and
//! serving-shaped groups (1–4 model-library streams with precomputed
//! rows, run through `Engine::run_group_rows` as the executor runs them: a
//! single-stream group through `Engine::run_lone`, a wider one mostly in
//! the lone-stream closed form), the last both unfaulted and under a
//! whole-run kernel spike regime (the lone fold's in-window path) — for
//! both the live
//! `gpu_sim::Engine` and the frozen
//! `bench::reference::engine::ReferenceEngine`, the same copy the
//! `golden_engine` suite pins the live engine to. Both engines follow the
//! same noise protocol, so every leg checks that their completion checksums
//! (folded in stream-id order per group) and event counts agree. Each leg
//! is timed once.

use crate::reference::engine::{
    kernel_shapes, open_loop_workload, serving_groups, OpenLoop, ReferenceEngine,
};
use crate::{mix, Bench, Gated, Report};
use dnn_models::ModelLibrary;
use gpu_sim::{GpuSpec, KernelDesc, KernelFaultSpec, KernelRows, NoiseModel};
use std::hint::black_box;
use std::time::Instant;

pub(crate) struct Engine;

const OPEN_STREAMS: usize = 160_000;
const GROUP_WIDTH: usize = 48;
const GROUP_REPS: usize = 160;
const SERVING_GROUPS: usize = 1_000;
const SERVING_REPS: usize = 32;
const SEED: u64 = 2021;

/// The serving-shape leg's spike regime: the intensity of the
/// `pairs-peak-observed` fault plans (15% of kernels at 2.5×), for the
/// whole run.
const SPIKES: KernelFaultSpec = KernelFaultSpec {
    seed: 0x5EED,
    window_start_ms: 0.0,
    window_end_ms: f64::INFINITY,
    prob: 0.15,
    factor: 2.5,
};

/// Fold a completion into a running checksum (order- and bit-sensitive).
fn fold(acc: u64, id: usize, start: f64, end: f64) -> u64 {
    mix(mix(mix(acc, id as u64), start.to_bits()), end.to_bits())
}

struct Measured {
    events: u64,
    elapsed_s: f64,
    checksum: u64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_s
    }
}

/// Workload A — open-loop: every stream pre-enqueued, then drained. The
/// pending structure holds the whole backlog, so this is where the live
/// engine's heap vs. the reference's binary-insert memmove difference shows.
fn open_loop_live(work: &[(f64, Vec<KernelDesc>)]) -> Measured {
    let t0 = Instant::now();
    let mut e = gpu_sim::Engine::new(GpuSpec::a100(), NoiseModel::calibrated(), SEED);
    for (at, kernels) in work {
        e.add_stream(kernels, *at);
    }
    let mut checksum = 0u64;
    while let Some(c) = e.step() {
        checksum = fold(checksum, c.id.0, c.start_ms, c.end_ms);
    }
    Measured {
        events: e.events(),
        elapsed_s: t0.elapsed().as_secs_f64(),
        checksum,
    }
}

fn open_loop_reference(work: &[(f64, Vec<KernelDesc>)]) -> Measured {
    let t0 = Instant::now();
    let mut e = ReferenceEngine::new(GpuSpec::a100(), NoiseModel::calibrated(), SEED);
    for (at, kernels) in work {
        e.add_stream(kernels.clone(), *at);
    }
    let mut checksum = 0u64;
    while let Some((id, start, end)) = e.step() {
        checksum = fold(checksum, id, start, end);
    }
    Measured {
        events: e.events(),
        elapsed_s: t0.elapsed().as_secs_f64(),
        checksum,
    }
}

/// Workload B — group mode: reset, launch `width` streams at `t = 0`, run
/// to idle, repeat. The executor's pattern at synthetic widths: the one leg
/// with more than 4 kernels in flight, so the decrement / min-scan /
/// slowdown refresh passes run over a dense running set.
fn group_mode_groups(seed: u64, width: usize) -> Vec<Vec<Vec<KernelDesc>>> {
    let all_shapes = kernel_shapes(&GpuSpec::a100());
    let shapes = &all_shapes[..4];
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..8)
        .map(|_| {
            (0..width)
                .map(|_| {
                    let len = 4 + (next() % 12) as usize;
                    (0..len)
                        .map(|_| shapes[(next() as usize) % shapes.len()])
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Groups through the live engine, under `spikes` when given. With `rows`
/// (memoised outside the timed region, as the executor memoises them per
/// model and input) each group runs through
/// [`gpu_sim::Engine::run_group_rows`], the executor's entry; without,
/// each stream is added plain and run to idle. Completions are folded in
/// stream-id order.
fn groups_live(
    groups: &[Vec<Vec<KernelDesc>>],
    rows: Option<&[Vec<KernelRows>]>,
    reps: usize,
    spikes: Option<KernelFaultSpec>,
) -> Measured {
    let t0 = Instant::now();
    let mut e = gpu_sim::Engine::new(GpuSpec::a100(), NoiseModel::calibrated(), SEED);
    e.set_kernel_faults(spikes);
    let mut checksum = 0u64;
    let mut events = 0u64;
    let mut streams = Vec::new();
    let mut done = Vec::new();
    for rep in 0..reps {
        for (gi, group) in groups.iter().enumerate() {
            e.reset(SEED ^ (rep * groups.len() + gi) as u64);
            match rows {
                Some(rows) => {
                    streams.clear();
                    streams.extend(
                        group
                            .iter()
                            .zip(&rows[gi])
                            .map(|(ks, r)| r.segment(ks, 0, ks.len())),
                    );
                    e.run_group_rows(&streams);
                }
                None => {
                    for kernels in group {
                        e.add_stream(kernels, 0.0);
                    }
                    e.run_until_idle();
                }
            }
            e.completions_into(&mut done);
            for c in &done {
                checksum = fold(checksum, c.id.0, c.start_ms, c.end_ms);
            }
            events += e.events();
        }
    }
    Measured {
        events,
        elapsed_s: t0.elapsed().as_secs_f64(),
        checksum,
    }
}

fn groups_reference(
    groups: &[Vec<Vec<KernelDesc>>],
    reps: usize,
    spikes: Option<KernelFaultSpec>,
) -> Measured {
    let t0 = Instant::now();
    let mut e = ReferenceEngine::new(GpuSpec::a100(), NoiseModel::calibrated(), SEED);
    if let Some(spec) = spikes {
        e.set_kernel_faults(spec, SEED);
    }
    let mut checksum = 0u64;
    let mut events = 0u64;
    let mut done = Vec::new();
    for rep in 0..reps {
        for (gi, group) in groups.iter().enumerate() {
            e.reset(SEED ^ (rep * groups.len() + gi) as u64);
            for kernels in group {
                e.add_stream(kernels.clone(), 0.0);
            }
            done.clear();
            while let Some(c) = e.step() {
                done.push(c);
            }
            done.sort_unstable_by_key(|&(id, _, _)| id);
            for &(id, start, end) in &done {
                checksum = fold(checksum, id, start, end);
            }
            events += e.events();
        }
    }
    Measured {
        events,
        elapsed_s: t0.elapsed().as_secs_f64(),
        checksum,
    }
}

impl Bench for Engine {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn gated(&self) -> &'static [Gated] {
        const GATED: &[Gated] = &[
            Gated::higher("events_per_sec"),
            Gated::higher("serving_shape_events_per_sec"),
            Gated::higher("serving_shape_faulted_events_per_sec"),
        ];
        GATED
    }

    fn run(&self) -> Report {
        eprintln!("open-loop workload: {OPEN_STREAMS} streams...");
        let work = open_loop_workload(7, OPEN_STREAMS, OpenLoop::BENCH);
        // Warm up page cache / branch predictors on a small slice first.
        black_box(open_loop_live(&work[..500]));
        black_box(open_loop_reference(&work[..500]));
        let open = (open_loop_live(&work), open_loop_reference(&work));

        eprintln!("group-mode workload: 8 groups x {GROUP_WIDTH} streams x {GROUP_REPS} reps...");
        let groups = group_mode_groups(11, GROUP_WIDTH);
        black_box(groups_live(&groups, None, 1, None));
        black_box(groups_reference(&groups, 1, None));
        let group = (
            groups_live(&groups, None, GROUP_REPS, None),
            groups_reference(&groups, GROUP_REPS, None),
        );

        eprintln!("serving-shape workload: {SERVING_GROUPS} groups of 1-4 model streams x {SERVING_REPS} reps...");
        let a100 = GpuSpec::a100();
        let serving = serving_groups(&ModelLibrary::new(), 13, SERVING_GROUPS, 4);
        let rows: Vec<Vec<KernelRows>> = serving
            .iter()
            .map(|g| g.iter().map(|ks| KernelRows::new(ks, &a100)).collect())
            .collect();
        black_box(groups_live(&serving[..50], Some(&rows[..50]), 1, None));
        black_box(groups_reference(&serving[..50], 1, None));
        let shape = (
            groups_live(&serving, Some(&rows), SERVING_REPS, None),
            groups_reference(&serving, SERVING_REPS, None),
        );
        eprintln!("  serving-shape events: {}", shape.0.events);
        let faulted = (
            groups_live(&serving, Some(&rows), SERVING_REPS, Some(SPIKES)),
            groups_reference(&serving, SERVING_REPS, Some(SPIKES)),
        );
        eprintln!("  serving-shape events under spikes: {}", faulted.0.events);

        let mut r = Report::default();
        let mut identical = true;
        for (leg, (live, reference)) in [
            ("open-loop", &open),
            ("group-mode", &group),
            ("serving-shape", &shape),
            ("faulted serving-shape", &faulted),
        ] {
            let ok = live.checksum == reference.checksum && live.events == reference.events;
            r.check(
                ok,
                &format!("{leg} completions and event counts match the reference engine"),
            );
            identical &= ok;
        }
        r.check(
            faulted.0.checksum != shape.0.checksum,
            "spikes change the faulted serving-shape completions",
        );
        let events = open.0.events + group.0.events;
        let events_per_sec = events as f64 / (open.0.elapsed_s + group.0.elapsed_s);
        let baseline_events_per_sec = events as f64 / (open.1.elapsed_s + group.1.elapsed_s);
        r.int("host_cores", super::host_cores());
        r.int("events", events);
        r.num("open_loop_events_per_sec", open.0.events_per_sec(), 0);
        r.num(
            "open_loop_baseline_events_per_sec",
            open.1.events_per_sec(),
            0,
        );
        r.num("group_mode_events_per_sec", group.0.events_per_sec(), 0);
        r.num(
            "group_mode_baseline_events_per_sec",
            group.1.events_per_sec(),
            0,
        );
        r.num("serving_shape_events_per_sec", shape.0.events_per_sec(), 0);
        r.num(
            "serving_shape_baseline_events_per_sec",
            shape.1.events_per_sec(),
            0,
        );
        r.num(
            "serving_shape_faulted_events_per_sec",
            faulted.0.events_per_sec(),
            0,
        );
        r.num(
            "serving_shape_faulted_baseline_events_per_sec",
            faulted.1.events_per_sec(),
            0,
        );
        r.num("baseline_events_per_sec", baseline_events_per_sec, 0);
        r.num("events_per_sec", events_per_sec, 0);
        r.num("speedup", events_per_sec / baseline_events_per_sec, 2);
        r.flag("identical", identical);
        r
    }
}
