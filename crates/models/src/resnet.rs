//! ResNet-50 / 101 / 152 (He et al., CVPR 2016), bottleneck variant,
//! 224×224 inputs.
//!
//! Operator granularity matches what a PyTorch trace shows after cuDNN-style
//! fusion: one `conv` per convolution, one `norm` per (batch-norm + ReLU)
//! pair, one `add` per residual connection. At this granularity ResNet-101
//! has 244 operators — the paper quotes 241, so the counting convention
//! agrees to within the stem details.

use crate::graph::{GraphBuilder, ModelGraph};
use crate::op::Operator;

/// Stage repeat counts per variant.
fn blocks_for(depth: u32) -> [usize; 4] {
    match depth {
        50 => [3, 4, 6, 3],
        101 => [3, 4, 23, 3],
        152 => [3, 8, 36, 3],
        _ => panic!("unsupported ResNet depth {depth}"),
    }
}

/// Build ResNet-`depth` for batch size `bs` (224×224 inputs).
pub fn build(depth: u32, bs: u32) -> ModelGraph {
    let stages = blocks_for(depth);
    let b = f64::from(bs);
    let mut g = GraphBuilder::new(format!("resnet{depth}"));

    // Stem: 7x7/2 conv to 112, bn+relu, 3x3/2 max-pool to 56.
    g.chain(Operator::conv2d("stem/conv", b, 3.0, 64.0, 112.0, 7.0));
    g.chain(Operator::norm("stem/bn", b * 64.0 * 112.0 * 112.0));
    g.chain(Operator::pool("stem/pool", b * 64.0 * 56.0 * 56.0, 3.0));

    // Bottleneck stages: (width, spatial) per stage.
    let widths = [256.0, 512.0, 1024.0, 2048.0];
    let spatial = [56.0, 28.0, 14.0, 7.0];
    let mut cin = 64.0;
    for (s, &reps) in stages.iter().enumerate() {
        let cout = widths[s];
        let mid = cout / 4.0;
        let hw = spatial[s];
        for r in 0..reps {
            let tag = |op: &str| format!("layer{}.{r}/{op}", s + 1);
            let block_in = g.last();
            // Shortcut: 1x1 projection on the first block of each stage.
            let shortcut = if r == 0 {
                let c = g.push(
                    Operator::conv2d(tag("down/conv"), b, cin, cout, hw, 1.0),
                    &[block_in],
                );
                g.push(Operator::norm(tag("down/bn"), b * cout * hw * hw), &[c])
            } else {
                block_in
            };
            let c1 = g.push(
                Operator::conv2d(tag("conv1"), b, cin, mid, hw, 1.0),
                &[block_in],
            );
            let n1 = g.push(Operator::norm(tag("bn1"), b * mid * hw * hw), &[c1]);
            let c2 = g.push(Operator::conv2d(tag("conv2"), b, mid, mid, hw, 3.0), &[n1]);
            let n2 = g.push(Operator::norm(tag("bn2"), b * mid * hw * hw), &[c2]);
            let c3 = g.push(Operator::conv2d(tag("conv3"), b, mid, cout, hw, 1.0), &[n2]);
            let n3 = g.push(Operator::norm(tag("bn3"), b * cout * hw * hw), &[c3]);
            g.push(
                Operator::add(tag("add"), b * cout * hw * hw),
                &[shortcut, n3],
            );
            cin = cout;
        }
    }

    // Head: global average pool + fully connected.
    g.chain(Operator::pool("head/avgpool", b * 2048.0, 7.0));
    g.chain(Operator::linear("head/fc", b, 2048.0, 1000.0));
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use gpu_sim::GpuSpec;

    #[test]
    fn operator_counts() {
        // Per bottleneck: 6 conv/norm + add = 7; +2 per stage for downsample;
        // +3 stem +2 head.
        let r50 = build(50, 8);
        assert_eq!(r50.len(), 16 * 7 + 4 * 2 + 3 + 2);
        let r101 = build(101, 8);
        assert_eq!(r101.len(), 33 * 7 + 4 * 2 + 3 + 2); // 244 ≈ paper's 241
        let r152 = build(152, 8);
        assert_eq!(r152.len(), 50 * 7 + 4 * 2 + 3 + 2);
        assert!(r101.validate_topological().is_ok());
        assert!(r152.validate_topological().is_ok());
    }

    #[test]
    fn conv_counts() {
        let r50 = build(50, 4);
        // 16 blocks * 3 convs + 4 downsample + stem = 53.
        assert_eq!(r50.count_kind(OpKind::Conv2d), 53);
        let r152 = build(152, 4);
        assert_eq!(r152.count_kind(OpKind::Conv2d), 50 * 3 + 4 + 1);
    }

    #[test]
    fn flops_match_published_numbers() {
        // ResNet-50 ≈ 4.1 GFLOPs, ResNet-152 ≈ 11.5 GFLOPs per image
        // (2*MACs). Our stem/downsample conventions land within 15%.
        let r50 = build(50, 1).total_flops() / 1e9;
        assert!((7.0..9.5).contains(&r50), "r50 {r50} GFLOP (2x MACs = 8.2)");
        let r152 = build(152, 1).total_flops() / 1e9;
        assert!(
            (19.0..26.0).contains(&r152),
            "r152 {r152} GFLOP (2x MACs = 23)"
        );
    }

    #[test]
    fn batch_scales_flops_linearly() {
        let f4 = build(50, 4).total_flops();
        let f32 = build(50, 32).total_flops();
        assert!((f32 / f4 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn resnet152_bs32_solo_near_paper() {
        // §3.2: ResNet-152 batch 32 runs solo in ≈ 24 ms on the A100.
        let g = build(152, 32);
        let ms = g.solo_ms(&GpuSpec::a100());
        assert!((18.0..34.0).contains(&ms), "solo {ms} ms");
    }

    #[test]
    fn deeper_is_slower() {
        let gpu = GpuSpec::a100();
        let t50 = build(50, 16).solo_ms(&gpu);
        let t101 = build(101, 16).solo_ms(&gpu);
        let t152 = build(152, 16).solo_ms(&gpu);
        assert!(t50 < t101 && t101 < t152);
    }
}
