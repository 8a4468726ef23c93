//! The serving substrate: executor groups/sec, the wall time of one fig14
//! cell (one (pair, policy) co-location run), the cost of run-health
//! telemetry on an Abacus cell, and the serial-vs-parallel wall time of a
//! small sweep of cells.
//!
//! The telemetry check passes when a `Telemetry` with the run-health
//! monitors on (counters, sketches, drift and SLO detectors, flight
//! recorder; no kernel trace) costs at most 2% of the cell *or* at most
//! 0.5 ms per cell. The absolute floor keeps timer granularity and steal
//! bursts from tripping the percentage on short cells, but it dominates:
//! on the committed 3.56 ms cell it allows about 14%, and on any cell
//! shorter than 25 ms the floor, not the 2% budget, is the binding limit.
//!
//! The sweep measures the same cells twice — in a serial loop and through
//! `par_iter` on the worker pool, which runs a serial loop itself when the
//! host cannot run cells concurrently — and checks the results are
//! identical. On a single-core host the speedup is ~1.0 by construction, so
//! it is informational; `host_cores` is recorded to read it by.

use crate::harness::wall_ms;
use crate::{Bench, Fixture, Gated, Report};
use dnn_models::ModelId;
use gpu_sim::NoiseModel;
use rayon::prelude::*;
use serving::{run_colocation, ColocationConfig, ColocationResult, PolicyKind};
use std::hint::black_box;
use workload::fork_seed;

pub(crate) struct Serving;

const EXEC_GROUPS: usize = 1_000;
const CELL_HORIZON_MS: f64 = 5_000.0;
const SWEEP_HORIZON_MS: f64 = 3_000.0;
/// The telemetry check's relative budget, % of the cell's wall time.
const TELEMETRY_OVERHEAD_LIMIT_PCT: f64 = 2.0;
/// The telemetry check's absolute floor, ms per cell.
const TELEMETRY_OVERHEAD_FLOOR_MS: f64 = 0.5;

#[derive(PartialEq)]
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

fn cell_config(pair: &[ModelId], horizon_ms: f64, seed: u64) -> ColocationConfig {
    // Pin the prediction-round latency: the default config calibrates it
    // from wall-clock timing at scheduler startup, which would make the
    // Abacus cells irreproducible (and the serial-vs-parallel identity
    // check meaningless).
    ColocationConfig {
        qps_per_service: 50.0 / pair.len() as f64,
        horizon_ms,
        seed,
        abacus: crate::reference::decision::pinned_config(),
        ..ColocationConfig::default()
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
    let pred = (policy == PolicyKind::Abacus).then(|| fx.model());
    let cfg = cell_config(pair, horizon_ms, seed);
    run_colocation(pair, policy, pred, &fx.lib, &fx.gpu, noise, &cfg)
}

/// The Abacus cell of [`run_cell`] through `run_colocation_observed`
/// (invariant checker on), with or without a telemetry + run-health
/// monitors attached (no kernel trace). The two are the sides of the
/// overhead check, so it prices the telemetry alone.
fn run_cell_observed(fx: &Fixture, noise: &NoiseModel, seed: u64, observed: bool) {
    let pair = [ModelId::ResNet152, ModelId::Bert];
    let mut tel = telemetry::Telemetry::with_health();
    let out = serving::run_colocation_observed(
        &pair,
        PolicyKind::Abacus,
        Some(fx.model()),
        None,
        &fx.lib,
        &fx.gpu,
        noise,
        &cell_config(&pair, CELL_HORIZON_MS, seed),
        &faults::FaultPlan::none(),
        serving::NodeOptions::default(),
        observed.then_some(&mut tel),
    );
    black_box(out.result);
    black_box(tel.registry.get(telemetry::Counter::QueriesArrived));
}

impl Bench for Serving {
    fn name(&self) -> &'static str {
        "serving"
    }

    fn gated(&self) -> &'static [Gated] {
        const GATED: &[Gated] = &[
            Gated::higher("groups_per_sec"),
            Gated::lower("fig14_cell_fcfs_ms"),
        ];
        GATED
    }

    fn run(&self) -> Report {
        eprintln!("training bench fixture MLP (3x32)...");
        let fx = Fixture::new();
        let noise = NoiseModel::calibrated();
        let mut r = Report::default();
        r.int("host_cores", super::host_cores());

        // Executor groups/sec: the serving inner loop (lower + run_group +
        // bookkeeping), over a rotation of pair groups with varying segments.
        let specs: Vec<_> = (0..8).map(|i| fx.sample_group(40 + 16 * i)).collect();
        let mut executor = abacus_core::SegmentalExecutor::new(
            fx.gpu.clone(),
            NoiseModel::calibrated(),
            fx.lib.clone(),
            7,
        );
        for spec in &specs {
            black_box(executor.execute(spec)); // warm up
        }
        let exec_ms = wall_ms(|| {
            for g in 0..EXEC_GROUPS {
                black_box(executor.execute(&specs[g % specs.len()]));
            }
        });
        r.num("groups_per_sec", EXEC_GROUPS as f64 / (exec_ms / 1e3), 1);

        // One full fig14 cell: (Res152, Bert) under FCFS and under Abacus.
        let pair = [ModelId::ResNet152, ModelId::Bert];
        let cell_ms = |policy| {
            wall_ms(|| {
                black_box(run_cell(&fx, &noise, &pair, policy, CELL_HORIZON_MS, 2021));
            })
        };
        r.num("fig14_cell_horizon_ms", CELL_HORIZON_MS, 0);
        r.num("fig14_cell_fcfs_ms", cell_ms(PolicyKind::Fcfs), 1);
        r.num("fig14_cell_abacus_ms", cell_ms(PolicyKind::Abacus), 1);

        // Telemetry overhead: the same checked Abacus cell without and with
        // the telemetry attached. Each timed sample is a batch of 3 seeds so
        // it rises above timer granularity; the off/on samples interleave
        // and the estimate compares the *minimum* over reps — external
        // noise only ever adds time, so the minima converge on the true
        // costs where medians still wobble on a time-shared host. A first
        // estimate over the budget is re-measured and the lower estimate
        // kept: a burst of steal time inflates one phase, a real regression
        // inflates both.
        let measure_overhead = || -> (f64, f64) {
            let batch = |observed| {
                wall_ms(|| {
                    for seed in 0..3 {
                        run_cell_observed(&fx, &noise, 2021 + seed, observed);
                    }
                }) / 3.0
            };
            let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..15 {
                off = off.min(batch(false));
                on = on.min(batch(true));
            }
            (off, on)
        };
        let overhead_pct = |(off, on): (f64, f64)| (on - off) / off * 100.0;
        let mut telemetry = measure_overhead();
        if overhead_pct(telemetry) > TELEMETRY_OVERHEAD_LIMIT_PCT {
            let again = measure_overhead();
            if again.1 - again.0 < telemetry.1 - telemetry.0 {
                telemetry = again;
            }
        }
        let (off_ms, on_ms) = telemetry;
        r.num("telemetry_off_cell_ms", off_ms, 2);
        r.num("telemetry_cell_ms", on_ms, 2);
        r.num("telemetry_overhead_pct", overhead_pct(telemetry), 2);
        r.check(
            overhead_pct(telemetry) <= TELEMETRY_OVERHEAD_LIMIT_PCT
                || on_ms - off_ms <= TELEMETRY_OVERHEAD_FLOOR_MS,
            "run-health telemetry costs at most 2% or 0.5 ms of an Abacus cell",
        );

        // Sweep: 2 pairs x 4 policies, serial loop vs parallel fan-out.
        let pairs: [&[ModelId]; 2] = [
            &[ModelId::ResNet50, ModelId::ResNet152],
            &[ModelId::InceptionV3, ModelId::Vgg16],
        ];
        let cells: Vec<(usize, PolicyKind)> = (0..pairs.len())
            .flat_map(|row| PolicyKind::ALL.into_iter().map(move |p| (row, p)))
            .collect();
        let run_one = |&(row, policy): &(usize, PolicyKind)| {
            let seed = fork_seed(2021, row as u64);
            CellOutcome::of(&run_cell(
                &fx,
                &noise,
                pairs[row],
                policy,
                SWEEP_HORIZON_MS,
                seed,
            ))
        };
        let run_serial = || cells.iter().map(run_one).collect::<Vec<_>>();
        let run_parallel = || cells.par_iter().map(run_one).collect::<Vec<_>>();
        // Interleaved reps with alternating leg order, keeping the minimum
        // of each leg: the minima estimate the true costs, and alternating
        // which leg runs first cancels the position bias that charged
        // whichever leg ran second with the rep's warmup or co-tenant cost.
        let (mut serial_ms, mut parallel_ms) = (f64::INFINITY, f64::INFINITY);
        let (mut serial, mut parallel) = (Vec::new(), Vec::new());
        for rep in 0..4 {
            let mut time_serial = || serial_ms = serial_ms.min(wall_ms(|| serial = run_serial()));
            let mut time_parallel =
                || parallel_ms = parallel_ms.min(wall_ms(|| parallel = run_parallel()));
            if rep % 2 == 0 {
                time_serial();
                time_parallel();
            } else {
                time_parallel();
                time_serial();
            }
        }
        let identical = serial == parallel;
        r.int("sweep_cells", cells.len() as u64);
        r.num("sweep_serial_ms", serial_ms, 1);
        r.num("sweep_parallel_ms", parallel_ms, 1);
        r.num("sweep_speedup", serial_ms / parallel_ms, 2);
        r.flag("sweep_identical", identical);
        r.check(
            identical,
            "the parallel sweep matches the serial one cell for cell",
        );
        r
    }
}
