//! Shared fixtures for the Criterion benchmark harness.
//!
//! Two bench targets live under `benches/`:
//!
//! * `figures` — one benchmark per paper table/figure, each timing a
//!   scaled-down end-to-end regeneration of that experiment (the full-scale
//!   versions are the `abacus-repro` subcommands);
//! * `microbench` — the hot paths: engine events, contention math, batched
//!   MLP inference per search-way count (the real Fig. 23 measurement),
//!   multi-way search rounds, and MLP training epochs.
//!
//! [`reference`] holds the one frozen pre-overhaul copy of each hot layer
//! (engine, decision path) that both the perf benches and the golden
//! bit-identity suites run against; [`baseline_number`] reads a committed
//! `BENCH_*.json` for the benches' `--check` gates.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::GpuSpec;
use predictor::{GroupEntry, GroupSpec, LatencyModel, Mlp, MlpConfig};
use serving::{train_unified, TrainerConfig};
use std::sync::Arc;

/// Frozen pre-overhaul references, one per hot layer. Not shipped: only
/// the bench binaries and the golden test suites (through a
/// dev-dependency) link this crate.
pub mod reference {
    pub mod decision;
    pub mod engine;
}

/// The numeric value of `"key"` in a baseline JSON written by one of the
/// bench binaries. A missing key, or a value that is not a number (such as
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

/// [`baseline_number`] for a `--check` gate reading baseline file `path`:
/// an unreadable value fails the gate (message + exit 1) on the spot.
pub fn gate_baseline(json: &str, key: &str, path: &str) -> f64 {
    baseline_number(json, key).unwrap_or_else(|e| {
        eprintln!("FAILED: {path}: {e}");
        std::process::exit(1)
    })
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
