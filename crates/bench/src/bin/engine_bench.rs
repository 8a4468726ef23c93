//! Perf snapshot of the discrete-event engine core. Measures kernel-level
//! events/sec on three workloads — an open-loop arrival backlog (the
//! calendar queue's worst case), a tight group-mode reset loop of wide
//! groups (the SoA/SIMD hot loop), and serving-shaped groups (1–4
//! model-library streams with precomputed profiles, the executor's shape,
//! which runs mostly in the lone-stream closed form) — for both the current
//! `gpu_sim::Engine` and the frozen pre-overhaul engine, and emits
//! `BENCH_engine.json` with the measured speedup. The two engines must
//! agree bit for bit: every run cross-checks a completion checksum before
//! any number is reported.
//!
//! Usage:
//!
//! ```text
//! engine_bench [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — smaller workloads (CI smoke; also honoured via the
//!   `ABACUS_BENCH_QUICK` env var).
//! * `--out PATH` — where to write the JSON (default `BENCH_engine.json`;
//!   suppressed in `--check` mode unless given explicitly).
//! * `--check BASELINE` — compare the combined and the serving-shape
//!   events/sec against a committed baseline; exit non-zero past 2x
//!   regression.
//!
//! The baseline engine is the shared frozen reference
//! `bench::reference::engine::ReferenceEngine` — the same copy the
//! `golden_engine` suite pins the live engine to. Both engines consume the
//! same RNG protocol, so completions are comparable bit for bit.

use bench::reference::engine::{
    kernel_shapes, open_loop_workload, serving_groups, OpenLoop, ReferenceEngine,
};
use dnn_models::ModelLibrary;
use gpu_sim::{Engine, GpuSpec, KernelDesc, NoiseModel, RunningKernel};
use std::io::Write as _;
use std::num::NonZeroUsize;
use std::time::Instant;

/// A metric fails the `--check` gate past this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// Fold a completion into a running checksum (order- and bit-sensitive).
fn fold(acc: u64, id: usize, start: f64, end: f64) -> u64 {
    let mut h = acc ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15);
    h = h.rotate_left(17) ^ start.to_bits();
    h.rotate_left(17) ^ end.to_bits()
}

struct Measured {
    events: u64,
    elapsed_s: f64,
    checksum: u64,
}

/// Workload A — open-loop: every stream pre-enqueued, then drained. The
/// pending structure holds the whole backlog, so this is where the
/// calendar queue vs. binary-insert memmove difference shows.
fn run_open_loop_optimized(work: &[(f64, Vec<KernelDesc>)], seed: u64) -> Measured {
    let t0 = Instant::now();
    let mut e = Engine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    for (at, kernels) in work {
        e.add_stream_slice(kernels, *at);
    }
    let mut checksum = 0u64;
    while let Some(c) = e.step() {
        checksum = fold(checksum, c.id.0, c.start_ms, c.end_ms);
    }
    Measured { events: e.events(), elapsed_s: t0.elapsed().as_secs_f64(), checksum }
}

fn run_open_loop_baseline(work: &[(f64, Vec<KernelDesc>)], seed: u64) -> Measured {
    let t0 = Instant::now();
    let mut e = ReferenceEngine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    for (at, kernels) in work {
        e.add_stream(kernels.clone(), *at);
    }
    let mut checksum = 0u64;
    while let Some((id, start, end)) = e.step() {
        checksum = fold(checksum, id, start, end);
    }
    Measured { events: e.events(), elapsed_s: t0.elapsed().as_secs_f64(), checksum }
}

/// Workload B — group mode: reset, launch `width` streams at `t = 0`, run
/// to idle, repeat. The executor's pattern; exercises the SoA decrement /
/// min-scan / slowdown refresh hot loop with a dense running set.
fn group_mode_groups(seed: u64, width: usize) -> Vec<Vec<Vec<KernelDesc>>> {
    let all_shapes = kernel_shapes(&GpuSpec::a100());
    let shapes = &all_shapes[..4];
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
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

fn run_groups_optimized(groups: &[Vec<Vec<KernelDesc>>], reps: usize, seed: u64) -> Measured {
    let t0 = Instant::now();
    let mut e = Engine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    let mut checksum = 0u64;
    let mut events = 0u64;
    for rep in 0..reps {
        for (gi, group) in groups.iter().enumerate() {
            e.reset(seed ^ (rep * groups.len() + gi) as u64);
            for kernels in group {
                e.add_stream_slice(kernels, 0.0);
            }
            while let Some(c) = e.step() {
                checksum = fold(checksum, c.id.0, c.start_ms, c.end_ms);
            }
            events += e.events();
        }
    }
    Measured { events, elapsed_s: t0.elapsed().as_secs_f64(), checksum }
}

fn run_groups_baseline(groups: &[Vec<Vec<KernelDesc>>], reps: usize, seed: u64) -> Measured {
    let t0 = Instant::now();
    let mut e = ReferenceEngine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    let mut checksum = 0u64;
    let mut events = 0u64;
    for rep in 0..reps {
        for (gi, group) in groups.iter().enumerate() {
            e.reset(seed ^ (rep * groups.len() + gi) as u64);
            for kernels in group {
                e.add_stream(kernels.clone(), 0.0);
            }
            while let Some((id, start, end)) = e.step() {
                checksum = fold(checksum, id, start, end);
            }
            events += e.events();
        }
    }
    Measured { events, elapsed_s: t0.elapsed().as_secs_f64(), checksum }
}

/// Workload C — serving shape: [`serving_groups`] through the group-mode
/// loop, each stream added with its precomputed contention profiles as the
/// segmental executor adds them (the profiles are memoised outside the
/// timed region, as the executor memoises them per model and input).
fn run_serving_optimized(
    groups: &[Vec<Vec<KernelDesc>>],
    profiles: &[Vec<Vec<RunningKernel>>],
    reps: usize,
    seed: u64,
) -> Measured {
    let t0 = Instant::now();
    let mut e = Engine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    let mut checksum = 0u64;
    let mut events = 0u64;
    for rep in 0..reps {
        for (gi, (group, profs)) in groups.iter().zip(profiles).enumerate() {
            e.reset(seed ^ (rep * groups.len() + gi) as u64);
            for (kernels, p) in group.iter().zip(profs) {
                e.add_stream_slice_profiled(kernels, p, 0.0);
            }
            while let Some(c) = e.step() {
                checksum = fold(checksum, c.id.0, c.start_ms, c.end_ms);
            }
            events += e.events();
        }
    }
    Measured { events, elapsed_s: t0.elapsed().as_secs_f64(), checksum }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = std::env::var("ABACUS_BENCH_QUICK").is_ok();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(it.next().expect("--out needs a path").clone()),
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let host_cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let (open_streams, group_width, group_reps, serving_reps) = if quick {
        (8_000usize, 24usize, 40usize, 4usize)
    } else {
        (160_000usize, 48usize, 160usize, 32usize)
    };
    let seed = 2021u64;

    eprintln!("open-loop workload: {open_streams} streams...");
    let work = open_loop_workload(7, open_streams, OpenLoop::BENCH);
    // Warm up page cache / branch predictors on a small slice first.
    std::hint::black_box(run_open_loop_optimized(&work[..work.len().min(500)], seed));
    std::hint::black_box(run_open_loop_baseline(&work[..work.len().min(500)], seed));
    let opt_a = run_open_loop_optimized(&work, seed);
    let base_a = run_open_loop_baseline(&work, seed);
    assert_eq!(
        opt_a.checksum, base_a.checksum,
        "open-loop completions diverged between baseline and optimized engines"
    );
    assert_eq!(opt_a.events, base_a.events, "open-loop event counts diverged");
    eprintln!(
        "  open loop: optimized {:.0} ev/s, baseline {:.0} ev/s ({:.2}x), {} events, identical",
        opt_a.events as f64 / opt_a.elapsed_s,
        base_a.events as f64 / base_a.elapsed_s,
        base_a.elapsed_s / opt_a.elapsed_s,
        opt_a.events,
    );

    eprintln!("group-mode workload: 8 groups x {group_width} streams x {group_reps} reps...");
    let groups = group_mode_groups(11, group_width);
    std::hint::black_box(run_groups_optimized(&groups, 1, seed));
    std::hint::black_box(run_groups_baseline(&groups, 1, seed));
    let opt_b = run_groups_optimized(&groups, group_reps, seed);
    let base_b = run_groups_baseline(&groups, group_reps, seed);
    assert_eq!(
        opt_b.checksum, base_b.checksum,
        "group-mode completions diverged between baseline and optimized engines"
    );
    assert_eq!(opt_b.events, base_b.events, "group-mode event counts diverged");
    eprintln!(
        "  group mode: optimized {:.0} ev/s, baseline {:.0} ev/s ({:.2}x), {} events, identical",
        opt_b.events as f64 / opt_b.elapsed_s,
        base_b.events as f64 / base_b.elapsed_s,
        base_b.elapsed_s / opt_b.elapsed_s,
        opt_b.events,
    );

    const SERVING_GROUPS: usize = 1_000;
    eprintln!("serving-shape workload: {SERVING_GROUPS} groups of 1-4 model streams x {serving_reps} reps...");
    let lib = ModelLibrary::new();
    let a100 = GpuSpec::a100();
    let serving = serving_groups(&lib, 13, SERVING_GROUPS, 4);
    let serving_profiles: Vec<Vec<Vec<RunningKernel>>> = serving
        .iter()
        .map(|g| {
            g.iter()
                .map(|ks| ks.iter().map(|k| RunningKernel::profile(k, &a100)).collect())
                .collect()
        })
        .collect();
    std::hint::black_box(run_serving_optimized(&serving[..50], &serving_profiles[..50], 1, seed));
    std::hint::black_box(run_groups_baseline(&serving[..50], 1, seed));
    let opt_c = run_serving_optimized(&serving, &serving_profiles, serving_reps, seed);
    let base_c = run_groups_baseline(&serving, serving_reps, seed);
    assert_eq!(
        opt_c.checksum, base_c.checksum,
        "serving-shape completions diverged between baseline and optimized engines"
    );
    assert_eq!(opt_c.events, base_c.events, "serving-shape event counts diverged");
    let serving_eps = opt_c.events as f64 / opt_c.elapsed_s;
    eprintln!(
        "  serving shape: optimized {serving_eps:.0} ev/s, baseline {:.0} ev/s ({:.2}x), {} events, identical",
        base_c.events as f64 / base_c.elapsed_s,
        base_c.elapsed_s / opt_c.elapsed_s,
        opt_c.events,
    );

    let events = opt_a.events + opt_b.events;
    let events_per_sec = events as f64 / (opt_a.elapsed_s + opt_b.elapsed_s);
    let baseline_events_per_sec = events as f64 / (base_a.elapsed_s + base_b.elapsed_s);
    let speedup = baseline_events_per_sec.recip() * events_per_sec;
    eprintln!(
        "  combined: optimized {events_per_sec:.0} ev/s vs baseline {baseline_events_per_sec:.0} ev/s = {speedup:.2}x"
    );

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"engine\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str(&format!("  \"events\": {events},\n"));
    s.push_str(&format!("  \"open_loop_events_per_sec\": {:.0},\n", opt_a.events as f64 / opt_a.elapsed_s));
    s.push_str(&format!("  \"open_loop_baseline_events_per_sec\": {:.0},\n", base_a.events as f64 / base_a.elapsed_s));
    s.push_str(&format!("  \"group_mode_events_per_sec\": {:.0},\n", opt_b.events as f64 / opt_b.elapsed_s));
    s.push_str(&format!("  \"group_mode_baseline_events_per_sec\": {:.0},\n", base_b.events as f64 / base_b.elapsed_s));
    s.push_str(&format!("  \"serving_shape_events_per_sec\": {serving_eps:.0},\n"));
    s.push_str(&format!("  \"serving_shape_baseline_events_per_sec\": {:.0},\n", base_c.events as f64 / base_c.elapsed_s));
    s.push_str(&format!("  \"baseline_events_per_sec\": {baseline_events_per_sec:.0},\n"));
    s.push_str(&format!("  \"events_per_sec\": {events_per_sec:.0},\n"));
    s.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    s.push_str("  \"identical\": true\n");
    s.push_str("}\n");

    let checking = check_path.is_some();
    if let Some(path) = out_path.or_else(|| (!checking).then(|| "BENCH_engine.json".to_string())) {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(s.as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = check_path {
        let baseline_json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        // events/sec: lower is worse. The rate is per-event, so quick-mode
        // runs compare against full-mode baselines directly.
        let mut failed = false;
        for (key, measured) in [
            ("events_per_sec", events_per_sec),
            ("serving_shape_events_per_sec", serving_eps),
        ] {
            let base = bench::gate_baseline(&baseline_json, key, &path);
            let ratio = base / measured;
            if ratio > REGRESSION_FACTOR {
                eprintln!(
                    "REGRESSION: {key} {measured:.0} vs baseline {base:.0} ({ratio:.2}x slower > {REGRESSION_FACTOR}x)"
                );
                failed = true;
            } else {
                eprintln!("ok: {key} {measured:.0} vs baseline {base:.0} ({ratio:.2}x)");
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("engine bench check passed");
    }
}
