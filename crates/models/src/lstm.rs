//! A stacked LSTM language service — the "traditional NLP model" of the
//! paper's footnote 2.
//!
//! The footnote observes that LSTM-style models need no explicit `seqlen`
//! feature because the *number of operators* already encodes the sequence
//! length (one recurrence step per token). This builder realises exactly
//! that: a 2-layer LSTM with hidden width 1024 unrolls into `seq` recurrent
//! steps per layer, each step one fused gate GEMM plus one element-wise
//! gate/state update, so the operator count grows linearly with `seq`.
//!
//! The LSTM is an *extension* model: it is not part of the paper's Table 1
//! serving set (`zoo::PAPER_MODELS`), but the whole stack — feature
//! encoding, predictor, controller — supports it through the same unified
//! layout.

use crate::graph::{GraphBuilder, ModelGraph};
use crate::op::Operator;

/// Hidden state width.
const HIDDEN: f64 = 1024.0;
/// Embedding width (equals hidden for simplicity, as in common LM stacks).
const EMBED: f64 = 1024.0;
/// Stacked layers.
const LAYERS: usize = 2;

/// Build the stacked LSTM for batch size `bs` and sequence length `seq`.
pub fn build(bs: u32, seq: u32) -> ModelGraph {
    let b = f64::from(bs);
    let s = seq as usize;
    let mut g = GraphBuilder::new("lstm");

    g.chain(Operator::embedding("embed", b * f64::from(seq) * EMBED));

    for layer in 0..LAYERS {
        let in_dim = if layer == 0 { EMBED } else { HIDDEN };
        // The recurrence serialises steps: each step consumes the previous
        // step's hidden state, so the chain models the true dependency.
        for t in 0..s {
            let tag = |op: &str| format!("layer{layer}/t{t}/{op}");
            // Fused gate GEMM: [x_t, h_{t-1}] x W -> 4 gates.
            g.chain(Operator::linear(
                tag("gates"),
                b,
                in_dim + HIDDEN,
                4.0 * HIDDEN,
            ));
            // Element-wise gate activations + cell/hidden update.
            g.chain(Operator::activation(tag("cell"), b * 4.0 * HIDDEN));
        }
    }

    // Output projection over the final hidden state.
    g.chain(Operator::linear("head/proj", b, HIDDEN, HIDDEN));
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuSpec;

    #[test]
    fn operator_count_encodes_sequence_length() {
        // Footnote 2: seq length is "related to the number of operators".
        for seq in [8u32, 16, 32, 64] {
            let g = build(8, seq);
            // embed + layers*(seq * 2) + head.
            assert_eq!(g.len(), 1 + LAYERS * (seq as usize) * 2 + 1);
            assert!(g.validate_topological().is_ok());
        }
    }

    #[test]
    fn flops_linear_in_seq_and_batch() {
        let base = build(4, 8).total_flops();
        let double_seq = build(4, 16).total_flops();
        let double_batch = build(8, 8).total_flops();
        // Embedding/head are small; recurrence dominates.
        assert!(
            (double_seq / base - 2.0).abs() < 0.1,
            "{}",
            double_seq / base
        );
        assert!((double_batch / base - 2.0).abs() < 0.1);
    }

    #[test]
    fn recurrence_steps_under_occupy_the_gpu() {
        // Per-step GEMMs have tiny M (= batch), so they cannot saturate an
        // A100 — the overlap-friendly regime.
        let gpu = GpuSpec::a100();
        let g = build(32, 32);
        let gate = g
            .ops
            .iter()
            .find(|o| o.name.contains("gates"))
            .unwrap()
            .kernel();
        assert!(gate.occupancy(&gpu) < 0.5, "occ {}", gate.occupancy(&gpu));
    }

    #[test]
    fn solo_latency_in_serving_band() {
        let ms = build(32, 64).solo_ms(&GpuSpec::a100());
        assert!((3.0..60.0).contains(&ms), "lstm solo {ms} ms");
    }
}
