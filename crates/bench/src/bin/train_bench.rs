//! Perf snapshot of cold-start offline training: the preserved scalar
//! per-sample trainer (`Mlp::train_reference`) vs the vectorised minibatch
//! trainer (`Mlp::train`) in its serial and worker-pool dispatch modes,
//! plus the parallel dataset-collection front end. Emits
//! `BENCH_train.json` so future PRs have a perf trajectory to regress
//! against.
//!
//! Usage:
//!
//! ```text
//! train_bench [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — fewer timing reps (CI-friendly; also honoured via the
//!   `ABACUS_BENCH_QUICK` env var).
//! * `--out PATH` — where to write the JSON (default `BENCH_train.json` in
//!   the current directory; suppressed in `--check` mode unless given
//!   explicitly).
//! * `--check BASELINE` — compare the measured minibatch training
//!   throughput against a previously committed baseline and exit non-zero
//!   if it regressed by more than 2×, or if the serial/pooled weight
//!   identity contract broke.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{Dataset, Mlp, MlpConfig};
use serving::{collect_dataset, TrainerConfig};
use std::io::Write as _;
use std::time::Instant;

/// The `--check` gate fails when samples/sec falls below the baseline by
/// more than this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// Minimum wall time of `f` over `reps` runs, milliseconds. Training legs
/// are multi-ms single-shot measurements on a possibly noisy shared host:
/// the minimum is the standard robust estimator of the uncontended cost
/// (external interference only ever adds time).
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

struct Results {
    dataset_len: usize,
    epochs: usize,
    collect_ms: f64,
    reference_ms: f64,
    serial_ms: f64,
    pooled_ms: f64,
    /// Samples·epochs per second through the default (pooled) trainer.
    samples_per_sec: f64,
    speedup_vs_scalar: f64,
    serial_parallel_identical: bool,
}

fn emit_json(r: &Results, quick: bool) -> String {
    format!(
        "{{\n  \"bench\": \"train\",\n  \"quick\": {},\n  \"dataset_len\": {},\n  \
         \"epochs\": {},\n  \"collect_ms\": {:.3},\n  \"reference_train_ms\": {:.3},\n  \
         \"serial_train_ms\": {:.3},\n  \"pooled_train_ms\": {:.3},\n  \
         \"samples_per_sec\": {:.1},\n  \"speedup_vs_scalar\": {:.2},\n  \
         \"serial_parallel_identical\": {}\n}}\n",
        quick,
        r.dataset_len,
        r.epochs,
        r.collect_ms,
        r.reference_ms,
        r.serial_ms,
        r.pooled_ms,
        r.samples_per_sec,
        r.speedup_vs_scalar,
        r.serial_parallel_identical
    )
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
    let reps = if quick { 4 } else { 7 };

    let lib = ModelLibrary::new();
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let tcfg = TrainerConfig {
        samples_per_set: 600,
        runs_per_group: 2,
        mlp: MlpConfig::default(),
        seed: 1,
    };
    // Long enough that each training leg is a multi-tens-of-ms measurement
    // (timer and scheduler noise stay well under a percent of the leg).
    let epochs = 60;

    eprintln!("collecting {}-sample dataset...", tcfg.samples_per_set);
    let mut data = Dataset::new();
    let collect_ms = time_ms(reps, || {
        data = collect_dataset(
            &[ModelId::ResNet152, ModelId::Bert],
            &lib,
            &gpu,
            &noise,
            &tcfg,
            0,
        );
    });

    let cfg = |serial: bool| MlpConfig {
        epochs,
        serial,
        ..MlpConfig::default()
    };
    eprintln!("training ({} samples x {epochs} epochs, min of {reps})...", data.len());
    // Interleave the three trainers' reps (scalar, serial, pooled, scalar,
    // …) so slow phases of a shared host hit all legs alike instead of
    // skewing whichever leg they landed on — the speedup ratio then stays
    // stable even when absolute times wobble.
    let mut reference_ms = f64::INFINITY;
    let mut serial_ms = f64::INFINITY;
    let mut pooled_ms = f64::INFINITY;
    let mut reference = None;
    let mut serial = None;
    let mut pooled = None;
    for _ in 0..reps {
        reference_ms = reference_ms.min(time_ms(1, || {
            reference = Some(Mlp::train_reference(&data, &cfg(false)));
        }));
        serial_ms = serial_ms.min(time_ms(1, || {
            serial = Some(Mlp::train(&data, &cfg(true)));
        }));
        pooled_ms = pooled_ms.min(time_ms(1, || {
            pooled = Some(Mlp::train(&data, &cfg(false)));
        }));
    }
    let serial_parallel_identical = serial.as_ref().unwrap().raw_params()
        == pooled.as_ref().unwrap().raw_params();

    let r = Results {
        dataset_len: data.len(),
        epochs,
        collect_ms,
        reference_ms,
        serial_ms,
        pooled_ms,
        samples_per_sec: data.len() as f64 * epochs as f64 / (pooled_ms / 1e3),
        speedup_vs_scalar: reference_ms / pooled_ms,
        serial_parallel_identical,
    };
    eprintln!(
        "  collect {:.0} ms | scalar {:.0} ms, serial minibatch {:.0} ms, pooled {:.0} ms \
         ({:.2}x vs scalar, {:.0} samples/s, identical={})",
        r.collect_ms,
        r.reference_ms,
        r.serial_ms,
        r.pooled_ms,
        r.speedup_vs_scalar,
        r.samples_per_sec,
        r.serial_parallel_identical
    );

    let json = emit_json(&r, quick);
    let checking = check_path.is_some();
    if let Some(path) = out_path.or_else(|| (!checking).then(|| "BENCH_train.json".to_string())) {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(json.as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base_sps = bench::gate_baseline(&baseline, "samples_per_sec", &path);
        let mut failed = false;
        if !r.serial_parallel_identical {
            eprintln!("FAILED: serial and pooled training produced different weights");
            failed = true;
        }
        let ratio = base_sps / r.samples_per_sec;
        if ratio > REGRESSION_FACTOR {
            eprintln!(
                "REGRESSION: {:.1} samples/s vs baseline {base_sps:.1} ({ratio:.2}x slower > {REGRESSION_FACTOR}x)",
                r.samples_per_sec
            );
            failed = true;
        } else {
            eprintln!(
                "ok: {:.1} samples/s vs baseline {base_sps:.1} ({ratio:.2}x)",
                r.samples_per_sec
            );
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("bench check passed");
    }
}
