//! DNN operators and their analytic cost model.
//!
//! An [`Operator`] is one node of a model's data-flow graph, already
//! *instantiated* for a concrete input (batch size, sequence length): it
//! carries absolute FLOP / byte / thread-block counts and lowers 1:1 to a
//! [`KernelDesc`]. Shape math follows the standard formulas (conv FLOPs =
//! 2·K²·Cin·Cout·Hout·Wout·B, GEMM FLOPs = 2·M·N·K, element-wise traffic =
//! 2·elements·4 B), and parallelism follows a tiled-kernel model: matrix-like
//! kernels launch one block per `ELEMS_PER_BLOCK_GEMM` output elements,
//! element-wise kernels one per `ELEMS_PER_BLOCK_EW`.

use gpu_sim::KernelDesc;

/// Bytes per element (FP32 inference, as the paper's PyTorch setup).
pub const BYTES_PER_ELEM: f64 = 4.0;

/// Output elements computed per thread block by tiled GEMM-like kernels
/// (conv, linear, batched matmul).
pub const ELEMS_PER_BLOCK_GEMM: f64 = 8192.0;

/// Elements processed per thread block by element-wise kernels
/// (activations, normalisation, residual adds).
pub const ELEMS_PER_BLOCK_EW: f64 = 4096.0;

/// Coarse operator category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// 2-D convolution (optionally with fused bias).
    Conv2d,
    /// Fully-connected layer.
    Linear,
    /// Batched matrix multiply (attention score / context).
    MatMul,
    /// Element-wise activation (ReLU, GELU, …).
    Activation,
    /// Normalisation (batch-norm, layer-norm).
    Norm,
    /// Residual / element-wise addition.
    Add,
    /// Channel concatenation (Inception branches).
    Concat,
    /// Spatial pooling (max or average).
    Pool,
    /// Softmax over attention scores or logits.
    Softmax,
    /// Embedding lookup.
    Embedding,
}

impl OpKind {
    /// Short lower-case label used in operator names and stats.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Conv2d => "conv",
            OpKind::Linear => "linear",
            OpKind::MatMul => "matmul",
            OpKind::Activation => "act",
            OpKind::Norm => "norm",
            OpKind::Add => "add",
            OpKind::Concat => "concat",
            OpKind::Pool => "pool",
            OpKind::Softmax => "softmax",
            OpKind::Embedding => "embed",
        }
    }
}

/// One operator of an instantiated model graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Human-readable name, e.g. `"layer3.4/conv2"`.
    pub name: String,
    /// Category.
    pub kind: OpKind,
    /// Floating-point work, FLOPs.
    pub flops: f64,
    /// Global-memory traffic, bytes.
    pub bytes: f64,
    /// Resident parameter (weight) bytes — counted once per model for the
    /// deployment-memory accounting, independent of batch size.
    pub weight_bytes: f64,
    /// Thread blocks launched.
    pub blocks: f64,
}

impl Operator {
    /// Lower to the GPU simulator's kernel descriptor.
    pub fn kernel(&self) -> KernelDesc {
        KernelDesc::new(self.flops, self.bytes, self.blocks)
    }

    /// A 2-D convolution operator.
    ///
    /// * `b` batch, `cin`/`cout` channels, `hw_out` output spatial size
    ///   (height = width assumed), `k` kernel size.
    ///
    /// Includes input activations, weights, and output activations in its
    /// traffic (a fused conv+bias+ReLU kernel in cuDNN terms).
    pub fn conv2d(
        name: impl Into<String>,
        b: f64,
        cin: f64,
        cout: f64,
        hw_out: f64,
        k: f64,
    ) -> Self {
        Self::conv2d_rect(name, b, cin, cout, hw_out, hw_out, k, k)
    }

    /// A 2-D convolution with a rectangular kernel (Inception's factorised
    /// 1×7 / 7×1 convolutions).
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_rect(
        name: impl Into<String>,
        b: f64,
        cin: f64,
        cout: f64,
        h_out: f64,
        w_out: f64,
        kh: f64,
        kw: f64,
    ) -> Self {
        let out_elems = b * cout * h_out * w_out;
        let in_elems = b * cin * h_out * w_out; // stride folded into out size; adequate for traffic
        let weight_elems = kh * kw * cin * cout;
        Self {
            name: name.into(),
            kind: OpKind::Conv2d,
            flops: 2.0 * kh * kw * cin * out_elems,
            bytes: (in_elems + weight_elems + out_elems) * BYTES_PER_ELEM,
            weight_bytes: weight_elems * BYTES_PER_ELEM,
            blocks: (out_elems / ELEMS_PER_BLOCK_GEMM).ceil().max(1.0),
        }
    }

    /// A fully-connected layer: `rows × cin · cin × cout`.
    ///
    /// `rows` is the GEMM M dimension (batch, or batch × sequence).
    pub fn linear(name: impl Into<String>, rows: f64, cin: f64, cout: f64) -> Self {
        let out_elems = rows * cout;
        Self {
            name: name.into(),
            kind: OpKind::Linear,
            flops: 2.0 * rows * cin * cout,
            bytes: (rows * cin + cin * cout + out_elems) * BYTES_PER_ELEM,
            weight_bytes: cin * cout * BYTES_PER_ELEM,
            blocks: (out_elems / ELEMS_PER_BLOCK_GEMM).ceil().max(1.0),
        }
    }

    /// A batched matrix multiply: `batches` independent `m × k · k × n`
    /// products (attention).
    pub fn matmul(name: impl Into<String>, batches: f64, m: f64, k: f64, n: f64) -> Self {
        let out_elems = batches * m * n;
        Self {
            name: name.into(),
            kind: OpKind::MatMul,
            flops: 2.0 * batches * m * k * n,
            bytes: (batches * (m * k + k * n) + out_elems) * BYTES_PER_ELEM,
            weight_bytes: 0.0, // both operands are activations
            blocks: (out_elems / ELEMS_PER_BLOCK_GEMM).ceil().max(1.0),
        }
    }

    /// An element-wise operator over `elems` elements reading `reads`
    /// input tensors of that size and writing one.
    fn elementwise(
        name: impl Into<String>,
        kind: OpKind,
        elems: f64,
        reads: f64,
        flops_per_elem: f64,
    ) -> Self {
        Self {
            name: name.into(),
            kind,
            flops: elems * flops_per_elem,
            bytes: elems * (reads + 1.0) * BYTES_PER_ELEM,
            weight_bytes: 0.0,
            blocks: (elems / ELEMS_PER_BLOCK_EW).ceil().max(1.0),
        }
    }

    /// Activation (ReLU/GELU) over `elems` elements.
    pub fn activation(name: impl Into<String>, elems: f64) -> Self {
        Self::elementwise(name, OpKind::Activation, elems, 1.0, 4.0)
    }

    /// Normalisation (batch-norm / layer-norm) over `elems` elements.
    pub fn norm(name: impl Into<String>, elems: f64) -> Self {
        Self::elementwise(name, OpKind::Norm, elems, 1.0, 8.0)
    }

    /// Residual addition of two `elems`-sized tensors.
    pub fn add(name: impl Into<String>, elems: f64) -> Self {
        Self::elementwise(name, OpKind::Add, elems, 2.0, 1.0)
    }

    /// Concatenation producing `elems` output elements.
    pub fn concat(name: impl Into<String>, elems: f64) -> Self {
        Self::elementwise(name, OpKind::Concat, elems, 1.0, 0.0)
    }

    /// Pooling with window `k×k` producing `out_elems` outputs.
    pub fn pool(name: impl Into<String>, out_elems: f64, k: f64) -> Self {
        Self {
            name: name.into(),
            kind: OpKind::Pool,
            flops: out_elems * k * k,
            bytes: out_elems * (k * k + 1.0) * BYTES_PER_ELEM,
            weight_bytes: 0.0,
            blocks: (out_elems / ELEMS_PER_BLOCK_EW).ceil().max(1.0),
        }
    }

    /// Softmax over `elems` elements.
    pub fn softmax(name: impl Into<String>, elems: f64) -> Self {
        Self::elementwise(name, OpKind::Softmax, elems, 1.0, 12.0)
    }

    /// Embedding lookup producing `out_elems` elements.
    pub fn embedding(name: impl Into<String>, out_elems: f64) -> Self {
        Self::elementwise(name, OpKind::Embedding, out_elems, 1.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_flops_standard_formula() {
        // 3x3 conv, cin=64, cout=64, 56x56 output, batch 1:
        // 2*9*64*64*56*56 = 231M FLOPs.
        let op = Operator::conv2d("c", 1.0, 64.0, 64.0, 56.0, 3.0);
        assert!((op.flops - 2.0 * 9.0 * 64.0 * 64.0 * 3136.0).abs() < 1.0);
        assert_eq!(op.kind, OpKind::Conv2d);
    }

    #[test]
    fn conv_scales_linearly_in_batch() {
        let a = Operator::conv2d("c", 1.0, 64.0, 64.0, 56.0, 3.0);
        let b = Operator::conv2d("c", 32.0, 64.0, 64.0, 56.0, 3.0);
        assert!((b.flops / a.flops - 32.0).abs() < 1e-9);
        assert!(b.blocks > a.blocks);
    }

    #[test]
    fn linear_is_gemm() {
        let op = Operator::linear("fc", 32.0, 2048.0, 1000.0);
        assert!((op.flops - 2.0 * 32.0 * 2048.0 * 1000.0).abs() < 1.0);
    }

    #[test]
    fn matmul_attention_shape() {
        // 32 batches * 12 heads, s=64, d=64: scores are s x s.
        let op = Operator::matmul("scores", 384.0, 64.0, 64.0, 64.0);
        assert!((op.flops - 2.0 * 384.0 * 64.0_f64.powi(3)).abs() < 1.0);
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let gpu = gpu_sim::GpuSpec::a100();
        let op = Operator::add("add", 1e7);
        let k = op.kernel();
        assert!(k.t_memory_ms(&gpu) > k.t_compute_ms(&gpu));
    }

    #[test]
    fn big_conv_saturates_small_conv_does_not() {
        let gpu = gpu_sim::GpuSpec::a100();
        // VGG-style: 224x224x64, batch 32.
        let big = Operator::conv2d("vgg1", 32.0, 64.0, 64.0, 224.0, 3.0).kernel();
        assert!((big.occupancy(&gpu) - 1.0).abs() < 1e-9);
        // Deep ResNet-style: 7x7x512, batch 4.
        let small = Operator::conv2d("res5", 4.0, 512.0, 512.0, 7.0, 3.0).kernel();
        assert!(small.occupancy(&gpu) < 0.2, "occ {}", small.occupancy(&gpu));
    }

    #[test]
    fn weight_accounting() {
        // ResNet conv: 3x3x64x64 weights = 36864 params.
        let c = Operator::conv2d("c", 8.0, 64.0, 64.0, 56.0, 3.0);
        assert!((c.weight_bytes - 9.0 * 64.0 * 64.0 * 4.0).abs() < 1e-9);
        // Weights do not scale with batch.
        let c32 = Operator::conv2d("c", 32.0, 64.0, 64.0, 56.0, 3.0);
        assert_eq!(c.weight_bytes, c32.weight_bytes);
        // Activation-only ops own no weights.
        assert_eq!(Operator::add("a", 100.0).weight_bytes, 0.0);
        assert_eq!(Operator::matmul("m", 4.0, 8.0, 8.0, 8.0).weight_bytes, 0.0);
    }

    #[test]
    fn kernels_have_positive_blocks() {
        for op in [
            Operator::activation("a", 1.0),
            Operator::pool("p", 10.0, 2.0),
            Operator::embedding("e", 5.0),
            Operator::softmax("s", 3.0),
            Operator::concat("c", 7.0),
            Operator::norm("n", 9.0),
        ] {
            assert!(op.blocks >= 1.0);
            assert!(op.bytes > 0.0);
        }
    }
}
