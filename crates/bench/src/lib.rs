//! The perf benches: one `bench` binary over six layer benches, the
//! Criterion figure benches, and the fixtures they share.
//!
//! * [`harness`] — the [`Bench`] trait, the report writer, the single
//!   regression gate and the `bench [NAME...] [--check]` command line;
//! * [`BENCHES`] — the six layer benches (search, serving, train, engine,
//!   decision, cluster), in the order a bare `bench` run executes them;
//! * `benches/figures.rs` — one Criterion benchmark per paper table/figure,
//!   each timing a scaled-down end-to-end regeneration of that experiment
//!   (the full-scale versions are the `abacus-repro` subcommands).
//!
//! [`reference`] holds the one frozen pre-overhaul copy of each hot layer
//! (engine, decision path, MLP trainer) that both the perf benches and the
//! golden bit-identity suites run against; [`baseline_number`] reads a committed
//! `BENCH_*.json` for the `--check` gate.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::GpuSpec;
use predictor::features::SLOT_WIDTH;
use predictor::{
    GroupEntry, GroupSpec, LatencyModel, Mlp, MlpConfig, MAX_COLOCATED, MODEL_SLOT_BASE,
};
use serving::{train_unified, TrainerConfig};
use std::sync::Arc;

pub mod harness;
mod layers;

pub use harness::{Bench, Better, Gated, Report};
pub use layers::BENCHES;

/// Frozen pre-overhaul references, one per hot layer. Not shipped: only
/// the `bench` binary and the golden test suites (through a
/// dev-dependency) link this crate.
pub mod reference {
    pub mod decision;
    pub mod engine;
    pub mod train;
}

/// One step of the benches' order- and bit-sensitive checksums.
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v.wrapping_mul(0x9E3779B97F4A7C15)).rotate_left(17)
}

/// Constant-time synthetic predictor calibrated to one GPU: each
/// co-located slot costs its normalised operator span times its model's
/// solo latency at the largest input. Cheap enough that the mechanics
/// around the predictor dominate any timing, and monotone enough that
/// headroom scores and search budgets are meaningful.
pub struct SoloSpanModel {
    solo_ms: [f64; ModelId::ALL.len()],
}

impl SoloSpanModel {
    /// The model for `gpu`, with every model's solo latency looked up once.
    pub fn new(lib: &ModelLibrary, gpu: &GpuSpec) -> Self {
        Self {
            solo_ms: ModelId::ALL.map(|m| lib.solo_ms(m, m.max_input(), gpu)),
        }
    }
}

impl LatencyModel for SoloSpanModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        let mut total: f64 = 0.0;
        let mut slot = 0;
        for (idx, solo_ms) in self.solo_ms.iter().enumerate() {
            if x[idx] > 0.5 {
                let base = MODEL_SLOT_BASE + slot * SLOT_WIDTH;
                total += (x[base + 1] - x[base]) * solo_ms;
                slot += 1;
            }
        }
        debug_assert!(slot <= MAX_COLOCATED);
        total
    }
    // Statically-dispatched batch path: one dyn call per batch instead of
    // one per row.
    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        if n == 0 {
            assert!(xs.is_empty(), "rows supplied but n == 0");
            return;
        }
        assert_eq!(xs.len() % n, 0, "ragged feature matrix");
        let dim = xs.len() / n;
        out.extend(xs.chunks_exact(dim).map(|row| self.predict_one(row)));
    }
    fn name(&self) -> &'static str {
        "span"
    }
}

/// The numeric value of `"key"` in a baseline JSON written by the `bench`
/// binary. A missing key, or a value that is not a number (such as
/// `null` or `NaN`), is an error: a `--check` gate must fail rather than pass
/// silently when it has nothing to compare against. The key is matched
/// whole, quotes included, so `queries_per_sec` never reads
/// `baseline_queries_per_sec`.
pub fn baseline_number(json: &str, key: &str) -> Result<f64, String> {
    let quoted = format!("\"{key}\"");
    let mut rest = json;
    while let Some(at) = rest.find(&quoted) {
        rest = &rest[at + quoted.len()..];
        let Some(value) = rest.trim_start().strip_prefix(':') else {
            continue; // the key's text appeared as a string value
        };
        let value = value.trim_start();
        let end = value
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '+')))
            .unwrap_or(value.len());
        return value[..end]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("baseline {quoted} is not a number: {:?}", &value[..end]));
    }
    Err(format!("baseline has no {quoted} key"))
}

/// Shared, lazily-built fixture: model library, GPU and a small trained MLP.
pub struct Fixture {
    /// The instantiated model zoo.
    pub lib: Arc<ModelLibrary>,
    /// The A100 spec.
    pub gpu: GpuSpec,
    /// A quickly-trained unified MLP (bench-quality, not paper-quality).
    pub mlp: Arc<Mlp>,
}

impl Fixture {
    /// Build the fixture (a few seconds: samples, profiles and trains a
    /// small MLP over one pair).
    pub fn new() -> Self {
        let lib = Arc::new(ModelLibrary::new());
        let gpu = GpuSpec::a100();
        let (mlp, _) = train_unified(
            &[vec![ModelId::ResNet152, ModelId::Bert]],
            &lib,
            &gpu,
            &gpu_sim::NoiseModel::calibrated(),
            &TrainerConfig {
                samples_per_set: 300,
                runs_per_group: 2,
                mlp: MlpConfig {
                    epochs: 30,
                    ..MlpConfig::default()
                },
                seed: 1,
            },
        );
        Self {
            lib,
            gpu,
            mlp: Arc::new(mlp),
        }
    }

    /// The MLP as a trait object.
    pub fn model(&self) -> Arc<dyn LatencyModel> {
        self.mlp.clone()
    }

    /// A two-entry operator group (Res152 full + Bert prefix).
    pub fn sample_group(&self, bert_ops: usize) -> GroupSpec {
        GroupSpec::new(
            vec![
                GroupEntry {
                    model: ModelId::ResNet152,
                    op_start: 0,
                    op_end: 363,
                    input: ModelId::ResNet152.max_input(),
                },
                GroupEntry {
                    model: ModelId::Bert,
                    op_start: 0,
                    op_end: bert_ops,
                    input: ModelId::Bert.max_input(),
                },
            ],
            &self.lib,
        )
    }
}

impl Default for Fixture {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::baseline_number;

    const JSON: &str = r#"{
  "bench": "serving",
  "baseline_queries_per_sec": 332049,
  "queries_per_sec": 1256413,
  "baseline_groups_per_sec": null,
  "speedup": 3.78,
  "tiny": 1.5e-3
}"#;

    #[test]
    fn reads_numbers() {
        assert_eq!(baseline_number(JSON, "speedup"), Ok(3.78));
        assert_eq!(baseline_number(JSON, "tiny"), Ok(1.5e-3));
    }

    #[test]
    fn missing_key_is_an_error() {
        assert!(baseline_number(JSON, "events_per_sec").is_err());
    }

    #[test]
    fn null_value_is_an_error() {
        let err = baseline_number(JSON, "baseline_groups_per_sec").unwrap_err();
        assert!(err.contains("null"), "{err}");
        // A string value is not a number either.
        assert!(baseline_number(JSON, "bench").is_err());
    }

    #[test]
    fn key_contained_in_another_key_is_matched_whole() {
        assert_eq!(baseline_number(JSON, "queries_per_sec"), Ok(1256413.0));
        assert_eq!(
            baseline_number(JSON, "baseline_queries_per_sec"),
            Ok(332049.0)
        );
        // A key that is only a suffix of a present key is still missing.
        assert!(baseline_number(JSON, "groups_per_sec").is_err());
    }

    #[test]
    fn key_text_as_a_string_value_is_skipped() {
        let json = r#"{"bench": "speedup", "speedup": 2.5}"#;
        assert_eq!(baseline_number(json, "speedup"), Ok(2.5));
    }
}
