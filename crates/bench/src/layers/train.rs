//! Cold-start offline training: the frozen scalar per-sample trainer
//! ([`crate::reference::train`]) vs the vectorised minibatch trainer
//! (`Mlp::train`) in its serial and worker-pool dispatch modes, plus the
//! parallel dataset-collection front end. Where the pool has a single
//! worker (1- and 2-CPU hosts) `serial: false` also trains serially, so
//! there `pooled_train_ms` times a second serial run.
//!
//! Every leg is the minimum over `REPS` runs: training legs are multi-ms
//! single shots on a possibly noisy shared host, and external interference
//! only ever adds time.

use crate::harness::wall_ms;
use crate::reference;
use crate::{Bench, Gated, Report};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{Dataset, Mlp, MlpConfig};
use serving::{collect_dataset, TrainerConfig};

pub(crate) struct Train;

const REPS: usize = 7;
/// Long enough that each training leg is a multi-tens-of-ms measurement
/// (timer and scheduler noise stay well under a percent of the leg).
const EPOCHS: usize = 60;

impl Bench for Train {
    fn name(&self) -> &'static str {
        "train"
    }

    fn gated(&self) -> &'static [Gated] {
        const GATED: &[Gated] = &[Gated::higher("samples_per_sec")];
        GATED
    }

    fn run(&self) -> Report {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let noise = NoiseModel::calibrated();
        let tcfg = TrainerConfig {
            samples_per_set: 600,
            runs_per_group: 2,
            mlp: MlpConfig::default(),
            seed: 1,
        };

        eprintln!("collecting {}-sample dataset...", tcfg.samples_per_set);
        let mut data = Dataset::new();
        let collect_ms = (0..REPS)
            .map(|_| {
                wall_ms(|| {
                    data = collect_dataset(
                        &[ModelId::ResNet152, ModelId::Bert],
                        &lib,
                        &gpu,
                        &noise,
                        &tcfg,
                        0,
                    );
                })
            })
            .fold(f64::INFINITY, f64::min);

        let cfg = |serial: bool| MlpConfig {
            epochs: EPOCHS,
            serial,
            ..MlpConfig::default()
        };
        eprintln!(
            "training ({} samples x {EPOCHS} epochs, min of {REPS})...",
            data.len()
        );
        // Interleave the three trainers' reps (scalar, serial, pooled,
        // scalar, …) so slow phases of a shared host hit all legs alike
        // instead of skewing whichever leg they landed on — the speedup
        // ratio then stays stable even when absolute times wobble.
        let (mut reference_ms, mut serial_ms, mut pooled_ms) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let (mut serial, mut pooled) = (None, None);
        for _ in 0..REPS {
            reference_ms = reference_ms.min(wall_ms(|| {
                std::hint::black_box(reference::train::mlp(&data, &cfg(false)));
            }));
            serial_ms = serial_ms.min(wall_ms(|| serial = Some(Mlp::train(&data, &cfg(true)))));
            pooled_ms = pooled_ms.min(wall_ms(|| pooled = Some(Mlp::train(&data, &cfg(false)))));
        }
        let identical =
            serial.expect("trained").raw_params() == pooled.expect("trained").raw_params();

        let mut r = Report::default();
        r.int("dataset_len", data.len() as u64);
        r.int("epochs", EPOCHS as u64);
        r.num("collect_ms", collect_ms, 3);
        r.num("reference_train_ms", reference_ms, 3);
        r.num("serial_train_ms", serial_ms, 3);
        r.num("pooled_train_ms", pooled_ms, 3);
        r.num(
            "samples_per_sec",
            (data.len() * EPOCHS) as f64 / (pooled_ms / 1e3),
            1,
        );
        r.num("speedup_vs_scalar", reference_ms / pooled_ms, 2);
        r.flag("serial_parallel_identical", identical);
        r.check(
            identical,
            "serial and pooled training produce identical weights",
        );
        r
    }
}
