//! Perf snapshot of the serving substrate: executor groups/sec, the wall
//! time of one full fig14 cell (one (pair, policy) co-location run), and
//! the serial-vs-parallel wall time of a small sweep of cells. Emits
//! `BENCH_serving.json` next to `BENCH_search.json` so the experiment
//! pipeline has a perf trajectory to regress against.
//!
//! Usage:
//!
//! ```text
//! serving_bench [--quick] [--out PATH] [--check BASELINE] [--baseline-gps N]
//! ```
//!
//! * `--quick` — shorter horizons / fewer groups (CI-friendly; also
//!   honoured via the `ABACUS_BENCH_QUICK` env var).
//! * `--out PATH` — where to write the JSON (default `BENCH_serving.json`;
//!   suppressed in `--check` mode unless given explicitly).
//! * `--check BASELINE` — compare measured groups/sec and fig14 cell wall
//!   time against a committed baseline; exit non-zero past 2x regression.
//! * `--baseline-gps N` — record `N` as the pre-change groups/sec baseline
//!   in the emitted JSON (provenance for the current numbers).
//!
//! The sweep section measures the same cells twice — once in a serial loop
//! and once through the parallel leg, which fans out with the vendored
//! rayon stub only when `rayon::worth_fanning_out` says the host can run
//! cells concurrently (a single-core host falls back to the serial
//! iterator instead of paying scoped-thread overhead for nothing) — and
//! asserts the results are identical. On a single-core host (the CI
//! container) the speedup is ~1.0 by construction; `host_cores` is
//! recorded so readers can interpret the ratio. The sweep *speedup* is therefore informational; the
//! `--check` gate only uses the host-independent groups/sec and cell time.

use bench::Fixture;
use dnn_models::ModelId;
use gpu_sim::NoiseModel;
use predictor::LatencyModel;
use rayon::prelude::*;
use serving::{run_colocation, ColocationConfig, ColocationResult, PolicyKind};
use std::io::Write as _;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;
use workload::fork_seed;

/// A metric fails the `--check` gate past this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// Attaching a [`telemetry::Telemetry`] with the run-health monitors
/// enabled (counters + sketches + drift/SLO detectors + flight recorder,
/// no kernel trace) may cost at most this much of the cell's wall time in
/// `--check` mode.
const TELEMETRY_OVERHEAD_LIMIT_PCT: f64 = 2.0;

struct CellOutcome {
    p99: f64,
    violations: f64,
    total: usize,
}

impl CellOutcome {
    fn of(r: &ColocationResult) -> Self {
        Self {
            p99: r.normalized_p99(),
            violations: r.violation_ratio(),
            total: r.all.total(),
        }
    }
}

fn run_cell(
    fx: &Fixture,
    noise: &NoiseModel,
    pair: &[ModelId],
    policy: PolicyKind,
    horizon_ms: f64,
    seed: u64,
) -> ColocationResult {
    // Pin the prediction-round latency: the default config calibrates it
    // from wall-clock timing at scheduler startup, which would make the
    // Abacus cells irreproducible (and the serial-vs-parallel identity
    // check meaningless).
    let abacus = abacus_core::AbacusConfig {
        predict_round_ms: Some(0.09),
        ..Default::default()
    };
    let cfg = ColocationConfig {
        qps_per_service: 50.0 / pair.len() as f64,
        horizon_ms,
        seed,
        abacus,
        ..ColocationConfig::default()
    };
    let pred: Option<Arc<dyn LatencyModel>> =
        (policy == PolicyKind::Abacus).then(|| fx.model());
    run_colocation(pair, policy, pred, &fx.lib, &fx.gpu, noise, &cfg)
}

/// The Abacus cell of [`run_cell`] through `run_colocation_observed`
/// (invariant checker on), with or without a telemetry + run-health
/// monitors attached (no kernel trace). The two are the sides of the
/// overhead gate, so the gate prices the telemetry alone.
fn run_cell_observed(
    fx: &Fixture,
    noise: &NoiseModel,
    pair: &[ModelId],
    horizon_ms: f64,
    seed: u64,
    observed: bool,
) -> ColocationResult {
    let abacus = abacus_core::AbacusConfig {
        predict_round_ms: Some(0.09),
        ..Default::default()
    };
    let cfg = ColocationConfig {
        qps_per_service: 50.0 / pair.len() as f64,
        horizon_ms,
        seed,
        abacus,
        ..ColocationConfig::default()
    };
    let mut tel = telemetry::Telemetry::with_health();
    let out = serving::run_colocation_observed(
        pair,
        PolicyKind::Abacus,
        Some(fx.model()),
        None,
        &fx.lib,
        &fx.gpu,
        noise,
        &cfg,
        &faults::FaultPlan::none(),
        serving::NodeOptions::default(),
        observed.then_some(&mut tel),
    );
    std::hint::black_box(tel.registry.get(telemetry::Counter::QueriesArrived));
    out.result
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = std::env::var("ABACUS_BENCH_QUICK").is_ok();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut baseline_gps: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(it.next().expect("--out needs a path").clone()),
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            "--baseline-gps" => {
                baseline_gps = Some(
                    it.next()
                        .expect("--baseline-gps needs a value")
                        .parse()
                        .expect("--baseline-gps needs a number"),
                )
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let host_cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let (exec_groups, cell_horizon_ms, sweep_horizon_ms) = if quick {
        (300usize, 2_500.0, 1_500.0)
    } else {
        (1_000usize, 5_000.0, 3_000.0)
    };

    eprintln!("training bench fixture MLP (3x32)...");
    let fx = Fixture::new();
    let noise = NoiseModel::calibrated();

    // --- Executor groups/sec: the serving inner loop (lower + run_group +
    // bookkeeping), over a rotation of pair groups with varying segments.
    let specs: Vec<_> = (0..8).map(|i| fx.sample_group(40 + 16 * i)).collect();
    let mut executor = abacus_core::SegmentalExecutor::new(
        fx.gpu.clone(),
        NoiseModel::calibrated(),
        fx.lib.clone(),
        7,
    );
    for spec in &specs {
        std::hint::black_box(executor.execute(spec)); // warm up
    }
    let t0 = Instant::now();
    for g in 0..exec_groups {
        std::hint::black_box(executor.execute(&specs[g % specs.len()]));
    }
    let exec_elapsed = t0.elapsed().as_secs_f64();
    let groups_per_sec = exec_groups as f64 / exec_elapsed;
    eprintln!("  executor: {groups_per_sec:.0} groups/sec ({exec_groups} groups in {exec_elapsed:.2}s)");

    // --- One full fig14 cell: (Res152, Bert) under FCFS and under Abacus.
    let pair = [ModelId::ResNet152, ModelId::Bert];
    let t0 = Instant::now();
    std::hint::black_box(run_cell(&fx, &noise, &pair, PolicyKind::Fcfs, cell_horizon_ms, 2021));
    let cell_fcfs_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    std::hint::black_box(run_cell(&fx, &noise, &pair, PolicyKind::Abacus, cell_horizon_ms, 2021));
    let cell_abacus_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("  fig14 cell ({:.0} ms horizon): FCFS {cell_fcfs_ms:.0} ms, Abacus {cell_abacus_ms:.0} ms", cell_horizon_ms);

    // --- Telemetry overhead: the same checked Abacus cell without and with
    // a monitors-enabled Telemetry attached (counters + run-health
    // sketches/detectors). Each
    // timed sample is a batch of 3 seeds so the
    // sample rises above timer granularity; the off/on samples interleave
    // and the estimate compares the *minimum* over reps — external noise
    // (a co-tenant on the core, a page fault) only ever adds time, so the
    // minima converge on the true costs where medians still wobble on a
    // time-shared host. A first estimate over the limit is re-measured and
    // the lower estimate kept: a burst of steal time inflates one phase,
    // a real regression inflates both.
    let measure_overhead = |reps: usize, batch: u64| -> (f64, f64) {
        let mut off_min = f64::INFINITY;
        let mut on_min = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            for seed in 0..batch {
                std::hint::black_box(run_cell_observed(&fx, &noise, &pair, cell_horizon_ms, 2021 + seed, false));
            }
            off_min = off_min.min(t0.elapsed().as_secs_f64() * 1e3 / batch as f64);
            let t0 = Instant::now();
            for seed in 0..batch {
                std::hint::black_box(run_cell_observed(&fx, &noise, &pair, cell_horizon_ms, 2021 + seed, true));
            }
            on_min = on_min.min(t0.elapsed().as_secs_f64() * 1e3 / batch as f64);
        }
        (off_min, on_min)
    };
    let (mut telemetry_off_cell_ms, mut telemetry_cell_ms) = measure_overhead(15, 3);
    if (telemetry_cell_ms - telemetry_off_cell_ms) / telemetry_off_cell_ms * 100.0
        > TELEMETRY_OVERHEAD_LIMIT_PCT
    {
        let (off2, on2) = measure_overhead(15, 3);
        if on2 - off2 < telemetry_cell_ms - telemetry_off_cell_ms {
            telemetry_off_cell_ms = off2;
            telemetry_cell_ms = on2;
        }
    }
    let telemetry_overhead_pct =
        (telemetry_cell_ms - telemetry_off_cell_ms) / telemetry_off_cell_ms * 100.0;
    eprintln!(
        "  telemetry: off {telemetry_off_cell_ms:.2} ms, on {telemetry_cell_ms:.2} ms \
         ({telemetry_overhead_pct:+.2}% overhead, min over interleaved batches)"
    );

    // --- Sweep: 2 pairs x 4 policies, serial loop vs parallel fan-out.
    let pairs: [&[ModelId]; 2] = [
        &[ModelId::ResNet50, ModelId::ResNet152],
        &[ModelId::InceptionV3, ModelId::Vgg16],
    ];
    let cells: Vec<(usize, PolicyKind)> = pairs
        .iter()
        .enumerate()
        .flat_map(|(i, _)| PolicyKind::ALL.into_iter().map(move |p| (i, p)))
        .collect();
    let run_one = |&(row, policy): &(usize, PolicyKind)| -> CellOutcome {
        CellOutcome::of(&run_cell(
            &fx,
            &noise,
            pairs[row],
            policy,
            sweep_horizon_ms,
            fork_seed(2021, row as u64),
        ))
    };
    // Interleaved reps with alternating leg order, keeping the minimum of
    // each leg: external noise only ever adds time, so the minima estimate
    // the true costs, and alternating which leg runs first cancels the
    // position bias that used to charge whichever leg ran second with the
    // rep's warmup/co-tenant cost (the source of the phantom 0.93x
    // "parallel slowdown" this bench once reported).
    let run_serial = || cells.iter().map(run_one).collect::<Vec<_>>();
    // Fan out only when the host can actually run cells concurrently: on
    // a single core the scoped-thread machinery is pure overhead.
    let run_parallel = || {
        if rayon::worth_fanning_out(cells.len()) {
            cells.par_iter().map(run_one).collect::<Vec<_>>()
        } else {
            run_serial()
        }
    };
    let mut sweep_serial_ms = f64::INFINITY;
    let mut sweep_parallel_ms = f64::INFINITY;
    let mut serial: Vec<CellOutcome> = Vec::new();
    let mut parallel: Vec<CellOutcome> = Vec::new();
    for rep in 0..4 {
        if rep % 2 == 0 {
            let t0 = Instant::now();
            serial = run_serial();
            sweep_serial_ms = sweep_serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            parallel = run_parallel();
            sweep_parallel_ms = sweep_parallel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        } else {
            let t0 = Instant::now();
            parallel = run_parallel();
            sweep_parallel_ms = sweep_parallel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            serial = run_serial();
            sweep_serial_ms = sweep_serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let identical = serial.len() == parallel.len()
        && serial.iter().zip(&parallel).all(|(a, b)| {
            a.p99 == b.p99 && a.violations == b.violations && a.total == b.total
        });
    assert!(identical, "parallel sweep diverged from serial order");
    let speedup = sweep_serial_ms / sweep_parallel_ms;
    eprintln!(
        "  sweep ({} cells): serial {sweep_serial_ms:.0} ms, parallel {sweep_parallel_ms:.0} ms \
         ({speedup:.2}x on {host_cores} core(s)), results identical",
        cells.len()
    );

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"serving\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    match baseline_gps {
        Some(b) => s.push_str(&format!("  \"baseline_groups_per_sec\": {b:.1},\n")),
        None => s.push_str("  \"baseline_groups_per_sec\": null,\n"),
    }
    s.push_str(&format!("  \"groups_per_sec\": {groups_per_sec:.1},\n"));
    s.push_str(&format!("  \"fig14_cell_horizon_ms\": {cell_horizon_ms:.0},\n"));
    s.push_str(&format!("  \"fig14_cell_fcfs_ms\": {cell_fcfs_ms:.1},\n"));
    s.push_str(&format!("  \"fig14_cell_abacus_ms\": {cell_abacus_ms:.1},\n"));
    s.push_str(&format!("  \"telemetry_off_cell_ms\": {telemetry_off_cell_ms:.2},\n"));
    s.push_str(&format!("  \"telemetry_cell_ms\": {telemetry_cell_ms:.2},\n"));
    s.push_str(&format!("  \"telemetry_overhead_pct\": {telemetry_overhead_pct:.2},\n"));
    s.push_str(&format!("  \"sweep_cells\": {},\n", cells.len()));
    s.push_str(&format!("  \"sweep_serial_ms\": {sweep_serial_ms:.1},\n"));
    s.push_str(&format!("  \"sweep_parallel_ms\": {sweep_parallel_ms:.1},\n"));
    s.push_str(&format!("  \"sweep_speedup\": {speedup:.2},\n"));
    s.push_str(&format!("  \"sweep_identical\": {identical}\n"));
    s.push_str("}\n");

    let checking = check_path.is_some();
    if let Some(path) = out_path.or_else(|| (!checking).then(|| "BENCH_serving.json".to_string())) {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(s.as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline_value = |key: &str| bench::gate_baseline(&baseline, key, &path);
        let mut failed = false;
        // groups/sec: lower is worse.
        let base = baseline_value("groups_per_sec");
        let ratio = base / groups_per_sec;
        if ratio > REGRESSION_FACTOR {
            eprintln!(
                "REGRESSION: {groups_per_sec:.0} groups/sec vs baseline {base:.0} ({ratio:.2}x slower > {REGRESSION_FACTOR}x)"
            );
            failed = true;
        } else {
            eprintln!("ok: {groups_per_sec:.0} groups/sec vs baseline {base:.0} ({ratio:.2}x)");
        }
        // fig14 FCFS cell wall time: higher is worse. Baselines written in
        // full mode use a 2x-longer horizon than quick mode; scale by the
        // recorded horizon so the gate compares per-simulated-ms cost.
        let base_ms = baseline_value("fig14_cell_fcfs_ms");
        let base_h = baseline_value("fig14_cell_horizon_ms");
        let ratio = (cell_fcfs_ms / cell_horizon_ms) / (base_ms / base_h);
        if ratio > REGRESSION_FACTOR {
            eprintln!(
                "REGRESSION: fig14 cell {cell_fcfs_ms:.0} ms vs baseline {base_ms:.0} ms ({ratio:.2}x slower per simulated ms)"
            );
            failed = true;
        } else {
            eprintln!("ok: fig14 cell {cell_fcfs_ms:.0} ms vs baseline {base_ms:.0} ms ({ratio:.2}x per simulated ms)");
        }
        // Telemetry overhead gate: counters must stay effectively free. The
        // 0.5 ms absolute floor keeps timer granularity and virtualised-host
        // steal bursts on sub-10 ms cells from tripping the percentage.
        if telemetry_overhead_pct > TELEMETRY_OVERHEAD_LIMIT_PCT
            && telemetry_cell_ms - telemetry_off_cell_ms > 0.5
        {
            eprintln!(
                "REGRESSION: telemetry costs {telemetry_overhead_pct:.2}% of the Abacus cell \
                 (> {TELEMETRY_OVERHEAD_LIMIT_PCT}% limit)"
            );
            failed = true;
        } else {
            eprintln!("ok: telemetry overhead {telemetry_overhead_pct:+.2}% (limit {TELEMETRY_OVERHEAD_LIMIT_PCT}%)");
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("bench check passed");
    }
}
