//! Inception-V3 (Szegedy et al., CVPR 2016), 299×299 inputs.
//!
//! Follows the torchvision structure: stem, 3× InceptionA (35×35),
//! InceptionB reduction, 4× InceptionC (17×17, factorised 1×7/7×1 convs),
//! InceptionD reduction, 2× InceptionE (8×8), head. 94 convolutions total.
//! Like ResNet, Inception's many small kernels under-occupy the A100, which
//! is why (Res152, IncepV3) is the pair where sequential scheduling hurts
//! most in Fig. 15.

use crate::graph::{GraphBuilder, ModelGraph};
use crate::op::Operator;

/// Convenience: conv + fused bn/relu, returning the norm's index.
#[allow(clippy::too_many_arguments)]
fn conv_bn(
    g: &mut GraphBuilder,
    name: &str,
    input: usize,
    b: f64,
    cin: f64,
    cout: f64,
    h: f64,
    w: f64,
    kh: f64,
    kw: f64,
) -> usize {
    let c = g.push(
        Operator::conv2d_rect(format!("{name}/conv"), b, cin, cout, h, w, kh, kw),
        &[input],
    );
    g.push(Operator::norm(format!("{name}/bn"), b * cout * h * w), &[c])
}

#[allow(clippy::too_many_arguments)]
fn square(
    g: &mut GraphBuilder,
    name: &str,
    input: usize,
    b: f64,
    cin: f64,
    cout: f64,
    hw: f64,
    k: f64,
) -> usize {
    conv_bn(g, name, input, b, cin, cout, hw, hw, k, k)
}

/// InceptionA at 35×35: outputs 64 + 64 + 96 + pool_features channels.
fn inception_a(
    g: &mut GraphBuilder,
    tag: &str,
    input: usize,
    b: f64,
    cin: f64,
    pf: f64,
) -> (usize, f64) {
    let hw = 35.0;
    let b1 = square(g, &format!("{tag}/b1x1"), input, b, cin, 64.0, hw, 1.0);
    let b5 = square(g, &format!("{tag}/b5x5_1"), input, b, cin, 48.0, hw, 1.0);
    let b5 = square(g, &format!("{tag}/b5x5_2"), b5, b, 48.0, 64.0, hw, 5.0);
    let d = square(g, &format!("{tag}/b3x3dbl_1"), input, b, cin, 64.0, hw, 1.0);
    let d = square(g, &format!("{tag}/b3x3dbl_2"), d, b, 64.0, 96.0, hw, 3.0);
    let d = square(g, &format!("{tag}/b3x3dbl_3"), d, b, 96.0, 96.0, hw, 3.0);
    let p = g.push(
        Operator::pool(format!("{tag}/pool"), b * cin * hw * hw, 3.0),
        &[input],
    );
    let p = square(g, &format!("{tag}/bpool"), p, b, cin, pf, hw, 1.0);
    let cout = 64.0 + 64.0 + 96.0 + pf;
    let cat = g.push(
        Operator::concat(format!("{tag}/concat"), b * cout * hw * hw),
        &[b1, b5, d, p],
    );
    (cat, cout)
}

/// InceptionB: 35×35 → 17×17 reduction, outputs cin + 384 + 96 channels.
fn inception_b(g: &mut GraphBuilder, tag: &str, input: usize, b: f64, cin: f64) -> (usize, f64) {
    let b3 = square(g, &format!("{tag}/b3x3"), input, b, cin, 384.0, 17.0, 3.0);
    let d = square(g, &format!("{tag}/dbl_1"), input, b, cin, 64.0, 35.0, 1.0);
    let d = square(g, &format!("{tag}/dbl_2"), d, b, 64.0, 96.0, 35.0, 3.0);
    let d = square(g, &format!("{tag}/dbl_3"), d, b, 96.0, 96.0, 17.0, 3.0);
    let p = g.push(
        Operator::pool(format!("{tag}/pool"), b * cin * 17.0 * 17.0, 3.0),
        &[input],
    );
    let cout = cin + 384.0 + 96.0;
    let cat = g.push(
        Operator::concat(format!("{tag}/concat"), b * cout * 17.0 * 17.0),
        &[b3, d, p],
    );
    (cat, cout)
}

/// InceptionC at 17×17 with factorised 7×7 convolutions; outputs 768.
fn inception_c(
    g: &mut GraphBuilder,
    tag: &str,
    input: usize,
    b: f64,
    cin: f64,
    c7: f64,
) -> (usize, f64) {
    let hw = 17.0;
    let b1 = square(g, &format!("{tag}/b1x1"), input, b, cin, 192.0, hw, 1.0);
    let s = square(g, &format!("{tag}/b7_1"), input, b, cin, c7, hw, 1.0);
    let s = conv_bn(g, &format!("{tag}/b7_2"), s, b, c7, c7, hw, hw, 1.0, 7.0);
    let s = conv_bn(g, &format!("{tag}/b7_3"), s, b, c7, 192.0, hw, hw, 7.0, 1.0);
    let d = square(g, &format!("{tag}/b7dbl_1"), input, b, cin, c7, hw, 1.0);
    let d = conv_bn(g, &format!("{tag}/b7dbl_2"), d, b, c7, c7, hw, hw, 7.0, 1.0);
    let d = conv_bn(g, &format!("{tag}/b7dbl_3"), d, b, c7, c7, hw, hw, 1.0, 7.0);
    let d = conv_bn(g, &format!("{tag}/b7dbl_4"), d, b, c7, c7, hw, hw, 7.0, 1.0);
    let d = conv_bn(
        g,
        &format!("{tag}/b7dbl_5"),
        d,
        b,
        c7,
        192.0,
        hw,
        hw,
        1.0,
        7.0,
    );
    let p = g.push(
        Operator::pool(format!("{tag}/pool"), b * cin * hw * hw, 3.0),
        &[input],
    );
    let p = square(g, &format!("{tag}/bpool"), p, b, cin, 192.0, hw, 1.0);
    let cout = 768.0;
    let cat = g.push(
        Operator::concat(format!("{tag}/concat"), b * cout * hw * hw),
        &[b1, s, d, p],
    );
    (cat, cout)
}

/// InceptionD: 17×17 → 8×8 reduction; outputs cin + 320 + 192.
fn inception_d(g: &mut GraphBuilder, tag: &str, input: usize, b: f64, cin: f64) -> (usize, f64) {
    let s = square(g, &format!("{tag}/b3_1"), input, b, cin, 192.0, 17.0, 1.0);
    let s = square(g, &format!("{tag}/b3_2"), s, b, 192.0, 320.0, 8.0, 3.0);
    let d = square(g, &format!("{tag}/b7_1"), input, b, cin, 192.0, 17.0, 1.0);
    let d = conv_bn(
        g,
        &format!("{tag}/b7_2"),
        d,
        b,
        192.0,
        192.0,
        17.0,
        17.0,
        1.0,
        7.0,
    );
    let d = conv_bn(
        g,
        &format!("{tag}/b7_3"),
        d,
        b,
        192.0,
        192.0,
        17.0,
        17.0,
        7.0,
        1.0,
    );
    let d = square(g, &format!("{tag}/b7_4"), d, b, 192.0, 192.0, 8.0, 3.0);
    let p = g.push(
        Operator::pool(format!("{tag}/pool"), b * cin * 8.0 * 8.0, 3.0),
        &[input],
    );
    let cout = cin + 320.0 + 192.0;
    let cat = g.push(
        Operator::concat(format!("{tag}/concat"), b * cout * 8.0 * 8.0),
        &[s, d, p],
    );
    (cat, cout)
}

/// InceptionE at 8×8: outputs 2048.
fn inception_e(g: &mut GraphBuilder, tag: &str, input: usize, b: f64, cin: f64) -> (usize, f64) {
    let hw = 8.0;
    let b1 = square(g, &format!("{tag}/b1x1"), input, b, cin, 320.0, hw, 1.0);
    let s = square(g, &format!("{tag}/b3_1"), input, b, cin, 384.0, hw, 1.0);
    let sa = conv_bn(
        g,
        &format!("{tag}/b3_2a"),
        s,
        b,
        384.0,
        384.0,
        hw,
        hw,
        1.0,
        3.0,
    );
    let sb = conv_bn(
        g,
        &format!("{tag}/b3_2b"),
        s,
        b,
        384.0,
        384.0,
        hw,
        hw,
        3.0,
        1.0,
    );
    let scat = g.push(
        Operator::concat(format!("{tag}/b3_cat"), b * 768.0 * hw * hw),
        &[sa, sb],
    );
    let d = square(g, &format!("{tag}/dbl_1"), input, b, cin, 448.0, hw, 1.0);
    let d = square(g, &format!("{tag}/dbl_2"), d, b, 448.0, 384.0, hw, 3.0);
    let da = conv_bn(
        g,
        &format!("{tag}/dbl_3a"),
        d,
        b,
        384.0,
        384.0,
        hw,
        hw,
        1.0,
        3.0,
    );
    let db = conv_bn(
        g,
        &format!("{tag}/dbl_3b"),
        d,
        b,
        384.0,
        384.0,
        hw,
        hw,
        3.0,
        1.0,
    );
    let dcat = g.push(
        Operator::concat(format!("{tag}/dbl_cat"), b * 768.0 * hw * hw),
        &[da, db],
    );
    let p = g.push(
        Operator::pool(format!("{tag}/pool"), b * cin * hw * hw, 3.0),
        &[input],
    );
    let p = square(g, &format!("{tag}/bpool"), p, b, cin, 192.0, hw, 1.0);
    let cout = 320.0 + 768.0 + 768.0 + 192.0;
    let cat = g.push(
        Operator::concat(format!("{tag}/concat"), b * cout * hw * hw),
        &[b1, scat, dcat, p],
    );
    (cat, cout)
}

/// Build Inception-V3 for batch size `bs` (299×299 inputs).
pub fn build(bs: u32) -> ModelGraph {
    let b = f64::from(bs);
    let mut g = GraphBuilder::new("inception_v3");

    // Stem.
    g.chain(Operator::conv2d("stem/conv1", b, 3.0, 32.0, 149.0, 3.0));
    g.chain(Operator::norm("stem/bn1", b * 32.0 * 149.0 * 149.0));
    g.chain(Operator::conv2d("stem/conv2", b, 32.0, 32.0, 147.0, 3.0));
    g.chain(Operator::norm("stem/bn2", b * 32.0 * 147.0 * 147.0));
    g.chain(Operator::conv2d("stem/conv3", b, 32.0, 64.0, 147.0, 3.0));
    g.chain(Operator::norm("stem/bn3", b * 64.0 * 147.0 * 147.0));
    g.chain(Operator::pool("stem/pool1", b * 64.0 * 73.0 * 73.0, 3.0));
    g.chain(Operator::conv2d("stem/conv4", b, 64.0, 80.0, 73.0, 1.0));
    g.chain(Operator::norm("stem/bn4", b * 80.0 * 73.0 * 73.0));
    g.chain(Operator::conv2d("stem/conv5", b, 80.0, 192.0, 71.0, 3.0));
    g.chain(Operator::norm("stem/bn5", b * 192.0 * 71.0 * 71.0));
    g.chain(Operator::pool("stem/pool2", b * 192.0 * 35.0 * 35.0, 3.0));

    let mut node = g.last();
    let mut cin = 192.0;
    for (i, pf) in [32.0, 64.0, 64.0].into_iter().enumerate() {
        let (n, c) = inception_a(
            &mut g,
            &format!("mixed5{}", (b'b' + i as u8) as char),
            node,
            b,
            cin,
            pf,
        );
        node = n;
        cin = c;
    }
    let (n, c) = inception_b(&mut g, "mixed6a", node, b, cin);
    node = n;
    cin = c;
    for (i, c7) in [128.0, 160.0, 160.0, 192.0].into_iter().enumerate() {
        let (n, c) = inception_c(
            &mut g,
            &format!("mixed6{}", (b'b' + i as u8) as char),
            node,
            b,
            cin,
            c7,
        );
        node = n;
        cin = c;
    }
    let (n, c) = inception_d(&mut g, "mixed7a", node, b, cin);
    node = n;
    cin = c;
    for i in 0..2 {
        let (n, c) = inception_e(
            &mut g,
            &format!("mixed7{}", (b'b' + i as u8) as char),
            node,
            b,
            cin,
        );
        node = n;
        cin = c;
    }

    let p = g.push(Operator::pool("head/avgpool", b * 2048.0, 8.0), &[node]);
    g.push(Operator::linear("head/fc", b, 2048.0, 1000.0), &[p]);
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use gpu_sim::GpuSpec;

    #[test]
    fn conv_count_is_94() {
        // Inception-V3 famously has 94 convolutions.
        let g = build(8);
        assert_eq!(g.count_kind(OpKind::Conv2d), 94);
        assert!(g.validate_topological().is_ok());
    }

    #[test]
    fn flops_match_published_numbers() {
        // ≈ 5.7 GMACs -> ~11.4 GFLOPs per image; our traffic-folded stem
        // conventions land in the same band.
        let f = build(1).total_flops() / 1e9;
        assert!((9.0..15.0).contains(&f), "inception {f} GFLOP");
    }

    #[test]
    fn many_small_operators() {
        let g = build(32);
        assert!(g.len() > 200, "ops {}", g.len());
        // Most convs under-occupy the A100 even at batch 32 — the property
        // Fig. 15's (Res152, IncepV3) discussion relies on.
        let gpu = GpuSpec::a100();
        let under = g
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Conv2d)
            .filter(|o| o.kernel().occupancy(&gpu) < 0.9)
            .count();
        assert!(under * 2 > 94, "only {under}/94 convs under-occupy");
    }

    #[test]
    fn concat_structure() {
        let g = build(4);
        // 11 inception modules with a final concat each + 4 branch concats
        // inside the two E modules.
        assert_eq!(g.count_kind(OpKind::Concat), 11 + 4);
    }
}
