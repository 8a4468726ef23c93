//! VGG-16 / VGG-19 (Simonyan & Zisserman, 2014), 224×224 inputs.
//!
//! VGG is the paper's "saturating" workload: its convolutions carry large
//! spatial extents and channel counts, so at batch 32 nearly every kernel
//! fills the A100 — which is why §7.3 finds almost no overlap headroom for
//! (VGG16, VGG19). Operator granularity matches a cuDNN-fused deployment:
//! each conv carries its bias+ReLU (cuDNN's fused activation path), leaving
//! conv, pool and the three fully-connected layers — the paper's
//! observation that VGG has far fewer operators than ResNet/Inception.

use crate::graph::{GraphBuilder, ModelGraph};
use crate::op::Operator;

/// Configuration letter → conv channel plan. `0` marks a 2×2 max-pool.
fn plan(depth: u32) -> &'static [u32] {
    match depth {
        16 => &[
            64, 64, 0, 128, 128, 0, 256, 256, 256, 0, 512, 512, 512, 0, 512, 512, 512, 0,
        ],
        19 => &[
            64, 64, 0, 128, 128, 0, 256, 256, 256, 256, 0, 512, 512, 512, 512, 0, 512, 512, 512,
            512, 0,
        ],
        _ => panic!("unsupported VGG depth {depth}"),
    }
}

/// Build VGG-`depth` for batch size `bs`.
pub fn build(depth: u32, bs: u32) -> ModelGraph {
    let b = f64::from(bs);
    let mut g = GraphBuilder::new(format!("vgg{depth}"));
    let mut hw = 224.0;
    let mut cin = 3.0;
    let mut conv_idx = 0;
    let mut pool_idx = 0;
    for &c in plan(depth) {
        if c == 0 {
            hw /= 2.0;
            g.chain(Operator::pool(
                format!("pool{pool_idx}"),
                b * cin * hw * hw,
                2.0,
            ));
            pool_idx += 1;
        } else {
            let cout = f64::from(c);
            // cuDNN-style fused conv+bias+ReLU: one kernel.
            g.chain(Operator::conv2d(
                format!("conv{conv_idx}"),
                b,
                cin,
                cout,
                hw,
                3.0,
            ));
            cin = cout;
            conv_idx += 1;
        }
    }
    // Classifier (ReLU fused into the GEMMs): 7x7x512 = 25088 features.
    g.chain(Operator::linear("fc6", b, 25_088.0, 4096.0));
    g.chain(Operator::linear("fc7", b, 4096.0, 4096.0));
    g.chain(Operator::linear("fc8", b, 4096.0, 1000.0));
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use gpu_sim::GpuSpec;

    #[test]
    fn operator_counts() {
        let v16 = build(16, 8);
        // 13 fused convs + 5 pools + 3 fc = 21.
        assert_eq!(v16.len(), 21);
        assert_eq!(v16.count_kind(OpKind::Conv2d), 13);
        let v19 = build(19, 8);
        assert_eq!(v19.count_kind(OpKind::Conv2d), 16);
        assert_eq!(v19.len(), 24);
        assert!(v19.validate_topological().is_ok());
    }

    #[test]
    fn vgg_has_far_fewer_ops_than_resnet() {
        let v = build(16, 8).len();
        let r = crate::resnet::build(101, 8).len();
        assert!(v * 4 < r, "vgg {v} resnet {r}");
    }

    #[test]
    fn flops_match_published_numbers() {
        // VGG-16 ≈ 15.5 GMACs -> ~31 GFLOPs per image.
        let f = build(16, 1).total_flops() / 1e9;
        assert!((27.0..36.0).contains(&f), "vgg16 {f} GFLOP");
        let f19 = build(19, 1).total_flops() / 1e9;
        assert!(f19 > f, "vgg19 {f19} vs vgg16 {f}");
    }

    #[test]
    fn vgg_convs_saturate_at_batch32() {
        let gpu = GpuSpec::a100();
        let g = build(16, 32);
        let sat = g
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Conv2d)
            .filter(|o| o.kernel().occupancy(&gpu) > 0.7)
            .count();
        let total = g.count_kind(OpKind::Conv2d);
        assert!(sat == total, "only {sat}/{total} convs near-saturate");
    }

    #[test]
    fn vgg_slower_than_resnet50() {
        let gpu = GpuSpec::a100();
        assert!(build(16, 32).solo_ms(&gpu) > crate::resnet::build(50, 32).solo_ms(&gpu));
    }
}
