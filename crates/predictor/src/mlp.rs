//! The MLP duration model (§5.5) and its quantile heads.
//!
//! The paper limits the network to 3 hidden layers of dimension 32, trains
//! on 80% of the profiled samples and reports ≈ 5.5% mean absolute
//! percentage error — an order of magnitude better than linear regression
//! or SVM, because group duration is strongly non-linear in the operator
//! ranges (different layers of a model have very different costs, and
//! contention kicks in only when shares saturate).
//!
//! Implemented from scratch: dense layers + ReLU on standardised targets,
//! Adam optimiser, mini-batch SGD. Everything is `f64` and deterministic
//! given the config seed. Both models here are one network core (`Net`)
//! with one trainer: [`Mlp`] is that network with one MSE output, the
//! paper's mean predictor; [`QuantileMlp`] is the same network with one
//! pinball-loss output head per quantile level, the certification
//! extension's tail predictor (DESIGN.md §14). The frozen per-sample
//! trainer both are pinned against lives in the non-shipped `bench` crate
//! (`bench::reference::train`).

use crate::dataset::Dataset;
use crate::features::FEATURE_DIM;
use crate::LatencyModel;
use gpu_sim::multiversion;
use gpu_sim::simd::SimdTier;
use workload::SeededRng;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer widths (paper: `[32, 32, 32]`).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed for init and shuffling.
    pub seed: u64,
    /// Compute minibatch gradient chunks on the calling thread instead of
    /// the worker pool. Purely a perf knob (benchmarking, contention-free
    /// hosts): the chunked reduction order is fixed, so serial and pooled
    /// training produce bit-identical weights. Training is serial anyway
    /// wherever the pool has a single worker (1- and 2-CPU hosts).
    pub serial: bool,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32, 32, 32],
            epochs: 150,
            batch_size: 64,
            lr: 1e-3,
            seed: 0x5EED,
            serial: false,
        }
    }
}

impl MlpConfig {
    /// A faster configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            epochs: 40,
            ..Self::default()
        }
    }
}

/// One dense layer.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim`.
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        // He initialisation for ReLU nets.
        let scale = (2.0 / in_dim as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.normal() * scale)
            .collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }
}

/// The network core [`Mlp`] and [`QuantileMlp`] share: the trained dense
/// layers, the target standardisation, and the inference plan derived
/// from them.
#[derive(Debug, Clone, PartialEq)]
struct Net {
    layers: Vec<Dense>,
    /// Target standardisation.
    y_mean: f64,
    y_std: f64,
    /// Inference-time weight layout, derived from `layers` at assembly.
    plan: InferencePlan,
}

/// Inference-optimised weight layout for the batched forward pass.
///
/// Each layer's weights are stored transposed (`in_dim × out_dim`,
/// contiguous over outputs) so the batched kernel's inner loop is a
/// sequential axpy over one cache line-friendly row — the GEMM-style
/// layout the multi-way search's prediction rounds run against. Built once
/// when the model is assembled (training touches only `Dense::w`).
#[derive(Debug, Clone, PartialEq)]
struct InferencePlan {
    /// Per layer: transposed weights, `wt[i * out_dim + o] = w[o * in_dim + i]`.
    wt: Vec<Vec<f64>>,
    /// Widest activation (in elements) across all layers, for sizing the
    /// batch workspace.
    max_width: usize,
    /// The host's SIMD tier, detected once at assembly.
    simd: SimdTier,
}

impl InferencePlan {
    fn build(layers: &[Dense]) -> Self {
        let max_width = layers
            .iter()
            .flat_map(|l| [l.in_dim, l.out_dim])
            .max()
            .unwrap_or(1);
        Self {
            wt: transposed(layers),
            max_width,
            simd: SimdTier::detect(),
        }
    }
}

/// Each layer's weights transposed to `in_dim × out_dim`, the layout the
/// batched forward kernel reads.
fn transposed(layers: &[Dense]) -> Vec<Vec<f64>> {
    let mut wt: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
    refresh_transposed(layers, &mut wt);
    wt
}

/// Refresh the transposed (`in_dim × out_dim`) weight copies the batched
/// forward kernel reads. Called once per optimiser step — a dense 3×32 net
/// has ~3 k weights, so the transpose is noise next to the forward itself.
fn refresh_transposed(layers: &[Dense], wt: &mut [Vec<f64>]) {
    for (l, t) in layers.iter().zip(wt.iter_mut()) {
        for o in 0..l.out_dim {
            for i in 0..l.in_dim {
                t[i * l.out_dim + o] = l.w[o * l.in_dim + i];
            }
        }
    }
}

/// Hidden-layer width of the paper's nets (§5.5: three layers of 32).
/// With the Fig. 8 input width [`FEATURE_DIM`] and the mean model's one
/// output, these are the row widths the training and inference kernels
/// run at, so each kernel has a body whose accumulator row is a
/// fixed-size array the compiler keeps in registers at these widths, and
/// one runtime-width body for every other width. Both bodies run the same
/// per-element operation chain, so the dispatch never changes a bit.
const HIDDEN_WIDTH: usize = 32;

/// One dense layer of the batched forward pass: `b[..n*dout] = bias ⊕
/// a[..n*din] · wt`, rows packed at their layer's stride.
///
/// Per batch row the output row accumulates across the whole input loop
/// before the next row starts (in registers at output widths
/// [`HIDDEN_WIDTH`] and 1); the transposed weight matrix is small enough
/// (≤ a few kB per layer) to stay cache-hot across rows. Per output the
/// terms accumulate in ascending input order — exactly as
/// [`Dense::forward`] — so batched and scalar predictions agree bit for
/// bit (the axpy inner loop is element-wise: vectorising *across* outputs
/// reorders nothing *within* an output's accumulation chain). Fig. 8
/// vectors are mostly zero (multi-hot bitmap, empty slots) and so are
/// post-ReLU activations, so zero inputs skip their whole weight row; the
/// non-zero inputs are gathered first ([`nonzero_offsets`]) so the skip
/// costs no branch per input.
#[inline(always)]
fn layer_kernel(a: &[f64], b: &mut [f64], wt: &[f64], bias: &[f64], n: usize, din: usize) {
    match bias.len() {
        HIDDEN_WIDTH => return layer_rows::<HIDDEN_WIDTH>(a, b, wt, bias, n, din),
        1 => return layer_rows::<1>(a, b, wt, bias, n, din),
        _ => {}
    }
    let dout = bias.len();
    let rows = a[..n * din]
        .chunks_exact(din)
        .zip(b[..n * dout].chunks_exact_mut(dout));
    let mut offsets = [0u8; NONZERO_BLOCK];
    for (arow, y) in rows {
        y.copy_from_slice(bias);
        for (blk, xs) in arow.chunks(NONZERO_BLOCK).enumerate() {
            let nonzero = nonzero_offsets(xs, &mut offsets);
            for &k in &offsets[..nonzero] {
                let (i, xi) = (blk * NONZERO_BLOCK + usize::from(k), xs[usize::from(k)]);
                for (yo, &w) in y.iter_mut().zip(&wt[i * dout..(i + 1) * dout]) {
                    *yo += xi * w;
                }
            }
        }
    }
}

/// [`layer_kernel`] at output width `W`, the output row held in a
/// `[f64; W]` accumulator.
#[inline(always)]
fn layer_rows<const W: usize>(
    a: &[f64],
    b: &mut [f64],
    wt: &[f64],
    bias: &[f64],
    n: usize,
    din: usize,
) {
    let bias: [f64; W] = bias.try_into().expect("bias width");
    let rows = a[..n * din]
        .chunks_exact(din)
        .zip(b[..n * W].chunks_exact_mut(W));
    let mut offsets = [0u8; NONZERO_BLOCK];
    for (arow, y) in rows {
        let mut acc = bias;
        for (blk, xs) in arow.chunks(NONZERO_BLOCK).enumerate() {
            let nonzero = nonzero_offsets(xs, &mut offsets);
            for &k in &offsets[..nonzero] {
                let (i, xi) = (blk * NONZERO_BLOCK + usize::from(k), xs[usize::from(k)]);
                for (yo, &w) in acc.iter_mut().zip(&wt[i * W..(i + 1) * W]) {
                    *yo += xi * w;
                }
            }
        }
        y.copy_from_slice(&acc);
    }
}

/// Inputs per block of [`nonzero_offsets`].
const NONZERO_BLOCK: usize = 64;

/// Write the offsets of the non-zero entries of `xs` (at most
/// [`NONZERO_BLOCK`] long) to the front of `offsets`, ascending, and
/// return their count.
///
/// Branch-free: every offset is written and the count advances by the
/// comparison. Post-ReLU activations are zero in a pattern no branch
/// predictor learns, and a mispredicted skip costs more than the weight
/// row it skips, so the kernels gather the non-zero inputs first and then
/// run one axpy per gathered input.
#[inline(always)]
fn nonzero_offsets(xs: &[f64], offsets: &mut [u8; NONZERO_BLOCK]) -> usize {
    let mut n = 0;
    for (k, &v) in xs.iter().enumerate() {
        offsets[n % NONZERO_BLOCK] = k as u8;
        n += usize::from(v != 0.0);
    }
    n
}

multiversion!(
    /// [`layer_kernel`] at a SIMD tier: one `target_feature` boundary per
    /// *layer*, not per axpy, so the inner loops inline fully.
    fn layer_simd(a: &[f64], b: &mut [f64], wt: &[f64], bias: &[f64], n: usize, din: usize) = layer_kernel;
);

/// Reusable per-thread workspace for the batched forward pass: two
/// ping-pong activation buffers plus a packing buffer for the
/// `predict_batch` convenience path. Thread-local (instead of a lock)
/// keeps `&Mlp` freely shareable across scheduler threads with zero
/// contention on the hot path.
#[derive(Default)]
struct Workspace {
    a: Vec<f64>,
    b: Vec<f64>,
    packed: Vec<f64>,
    single: Vec<f64>,
}

thread_local! {
    static WORKSPACE: std::cell::RefCell<Workspace> = std::cell::RefCell::new(Workspace::default());
}

/// Adam hyper-parameters.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// Samples per gradient chunk in minibatch training. Fixed — never derived
/// from the worker count — so the per-chunk partial sums and the
/// chunk-index reduction order are the same at 1 thread and N threads,
/// which makes the trained weights independent of host parallelism. 16
/// rows keeps one chunk's activations L1-resident while giving the default
/// 64-row minibatch four-way parallelism.
const GRAD_CHUNK: usize = 16;

/// Training-loss selector for the minibatch trainer. [`Loss::Mse`] drives
/// the mean model's single output; [`Loss::MultiPinball`] trains one output
/// head per quantile, every head against the same standardised target,
/// which is how the p90/p95/p99 certification heads share one trunk (and a
/// one-head net is a single pinball-loss model).
#[derive(Clone, Copy)]
enum Loss<'a> {
    /// d(MSE)/d(out) on a single output.
    Mse,
    /// Per-head pinball sub-gradients: head `h` trains at `taus[h]`.
    MultiPinball(&'a [f64]),
}

/// Per-chunk scratch and gradient partial sums for minibatch training.
/// One lives behind a `Mutex` per chunk slot so pool workers can fill
/// disjoint chunks concurrently; the locks are uncontended by construction
/// (task `c` touches only slot `c`).
struct ChunkGrads {
    /// Row-packed post-ReLU activations entering each *hidden-to-next*
    /// layer: `acts[l]` is `rows × dims[l + 1]`, the input of layer
    /// `l + 1`. Layer 0's input is the caller's row slice itself.
    acts: Vec<Vec<f64>>,
    /// Pre-activations (before ReLU) per layer: `pre[l]` is
    /// `rows × dims[l+1]`.
    pre: Vec<Vec<f64>>,
    /// Back-propagated deltas, same shapes as `pre`.
    delta: Vec<Vec<f64>>,
    /// This chunk's gradient partial sums, laid out like `Dense::w`/`b`.
    gw: Vec<Vec<f64>>,
    gb: Vec<Vec<f64>>,
}

impl ChunkGrads {
    fn new(layers: &[Dense]) -> Self {
        let n = layers.len();
        let (gw, gb) = zeroed_like(layers);
        Self {
            acts: vec![Vec::new(); n],
            pre: vec![Vec::new(); n],
            delta: vec![Vec::new(); n],
            gw,
            gb,
        }
    }
}

/// One zeroed buffer per layer shaped like its weights, and one like its
/// biases.
fn zeroed_like(layers: &[Dense]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    (
        layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
        layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
    )
}

/// Accumulate one chunk's weight/bias gradients: for every output `o` and
/// row `r`, `gb[o] += d` and `gw[o,·] += d · acts[r,·]`.
///
/// Outputs are the outer loop so one gradient row (and its bias cell)
/// stays in registers across the whole chunk at the widths the nets use;
/// rows ascend in the inner loop, so each weight's terms still add in
/// ascending sample order — the order the scalar reference trainer uses.
/// Zero deltas are added like any other: under ReLU whether a delta is
/// zero is a coin flip per (output, row), so a skip would cost a
/// mispredicted branch, and adding `±0 · a` to an accumulator that is
/// never `-0.0` leaves its bits unchanged (DESIGN.md, training rule 3).
#[inline(always)]
fn grad_kernel(
    delta: &[f64],
    acts: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
    rows: usize,
    din: usize,
) {
    match din {
        HIDDEN_WIDTH => return grad_rows::<HIDDEN_WIDTH>(delta, acts, gw, gb, rows),
        FEATURE_DIM => return grad_rows::<FEATURE_DIM>(delta, acts, gw, gb, rows),
        _ => {}
    }
    let dout = gb.len();
    for (o, b) in gb.iter_mut().enumerate() {
        let grow = &mut gw[o * din..(o + 1) * din];
        let mut bsum = *b;
        for r in 0..rows {
            let d = delta[r * dout + o];
            bsum += d;
            let arow = &acts[r * din..(r + 1) * din];
            for (g, &a) in grow.iter_mut().zip(arow) {
                *g += d * a;
            }
        }
        *b = bsum;
    }
}

/// [`grad_kernel`] at input width `W`, each gradient row held in a
/// `[f64; W]` accumulator across the chunk.
#[inline(always)]
fn grad_rows<const W: usize>(
    delta: &[f64],
    acts: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
    rows: usize,
) {
    let dout = gb.len();
    for (o, (b, grow)) in gb.iter_mut().zip(gw.chunks_exact_mut(W)).enumerate() {
        let mut acc: [f64; W] = (&*grow).try_into().expect("gradient row width");
        let mut bsum = *b;
        for (r, arow) in acts[..rows * W].chunks_exact(W).enumerate() {
            let d = delta[r * dout + o];
            bsum += d;
            for (g, &a) in acc.iter_mut().zip(arow) {
                *g += d * a;
            }
        }
        grow.copy_from_slice(&acc);
        *b = bsum;
    }
}

multiversion!(
    fn grad_simd(delta: &[f64], acts: &[f64], gw: &mut [f64], gb: &mut [f64], rows: usize, din: usize) = grad_kernel;
);

/// Back-propagate a chunk's deltas through one layer:
/// `prev[r,·] = Σ_o delta[r,o] · w[o,·]`, then ReLU-masked at the previous
/// pre-activation. Outputs are the outer loop per row — the accumulation
/// order of the scalar reference — and each weight row is a contiguous
/// axpy into a row held in registers at [`HIDDEN_WIDTH`]. Zero deltas are
/// added like any other, for the reason given at [`grad_kernel`].
#[inline(always)]
fn delta_kernel(
    delta: &[f64],
    w: &[f64],
    pre_prev: &[f64],
    prev: &mut [f64],
    rows: usize,
    din: usize,
    dout: usize,
) {
    if din == HIDDEN_WIDTH {
        return delta_rows::<HIDDEN_WIDTH>(delta, w, pre_prev, prev, rows, dout);
    }
    prev[..rows * din].fill(0.0);
    for r in 0..rows {
        let drow = &delta[r * dout..(r + 1) * dout];
        let prow = &mut prev[r * din..(r + 1) * din];
        for (o, &d) in drow.iter().enumerate() {
            let wrow = &w[o * din..(o + 1) * din];
            for (p, &wv) in prow.iter_mut().zip(wrow) {
                *p += d * wv;
            }
        }
        let zrow = &pre_prev[r * din..(r + 1) * din];
        for (p, &z) in prow.iter_mut().zip(zrow) {
            if z <= 0.0 {
                *p = 0.0;
            }
        }
    }
}

/// [`delta_kernel`] at input width `W`, each row's sum held in a
/// `[f64; W]` accumulator.
#[inline(always)]
fn delta_rows<const W: usize>(
    delta: &[f64],
    w: &[f64],
    pre_prev: &[f64],
    prev: &mut [f64],
    rows: usize,
    dout: usize,
) {
    let rows = delta[..rows * dout]
        .chunks_exact(dout)
        .zip(pre_prev[..rows * W].chunks_exact(W))
        .zip(prev[..rows * W].chunks_exact_mut(W));
    for ((drow, zrow), prow) in rows {
        let mut acc = [0.0f64; W];
        for (&d, wrow) in drow.iter().zip(w.chunks_exact(W)) {
            for (p, &wv) in acc.iter_mut().zip(wrow) {
                *p += d * wv;
            }
        }
        for ((p, &v), &z) in prow.iter_mut().zip(&acc).zip(zrow) {
            *p = if z <= 0.0 { 0.0 } else { v };
        }
    }
}

multiversion!(
    fn delta_simd(
        delta: &[f64],
        w: &[f64],
        pre_prev: &[f64],
        prev: &mut [f64],
        rows: usize,
        din: usize,
        dout: usize,
    ) = delta_kernel;
);

/// One Adam step over a parameter slice: per element,
/// `m ← β₁m + (1-β₁)g`, `v ← β₂v + (1-β₂)g²`,
/// `w ← w - lr·(m/bc₁)/(√(v/bc₂) + ε)`, with `g` pre-scaled by the
/// batch-mean factor. Exactly the reference trainer's update, element for
/// element — every lane runs the identical operation chain and IEEE
/// division/square root are correctly rounded at any vector width, so the
/// vectorised tiers produce bit-identical parameters. Worth dispatching:
/// the div+sqrt dependency chains make this update a fixed per-step cost
/// comparable to a layer's forward pass.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn adam_kernel(
    w: &mut [f64],
    m: &mut [f64],
    v: &mut [f64],
    g: &[f64],
    scale: f64,
    lr: f64,
    bc1: f64,
    bc2: f64,
) {
    for (((w, m), v), &g) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
        let g = g * scale;
        *m = BETA1 * *m + (1.0 - BETA1) * g;
        *v = BETA2 * *v + (1.0 - BETA2) * g * g;
        *w -= lr * (*m / bc1) / ((*v / bc2).sqrt() + EPS);
    }
}

multiversion!(
    fn adam_simd(
        w: &mut [f64],
        m: &mut [f64],
        v: &mut [f64],
        g: &[f64],
        scale: f64,
        lr: f64,
        bc1: f64,
        bc2: f64,
    ) = adam_kernel;
);

/// Forward one chunk of rows through the network and back-propagate its
/// gradient partial sums into `st.gw`/`st.gb` (cleared first).
///
/// The forward pass is the inference engine's batched kernel, so the
/// pre-activations equal the scalar reference's per-sample forward bit for
/// bit; the backward kernels accumulate every weight's terms in the same
/// (sample-major, ascending-index) order as the reference. The only
/// float-order difference from the reference is therefore how chunk
/// partials join across a minibatch — see [`Mlp::train`].
#[allow(clippy::too_many_arguments)]
fn chunk_forward_backward(
    layers: &[Dense],
    wt: &[Vec<f64>],
    simd: SimdTier,
    xs: &[f64],
    targets: &[f64],
    rows: usize,
    loss: Loss<'_>,
    st: &mut ChunkGrads,
) {
    let n_layers = layers.len();
    let ChunkGrads {
        acts,
        pre,
        delta,
        gw,
        gb,
    } = st;
    for g in gw.iter_mut() {
        g.fill(0.0);
    }
    for g in gb.iter_mut() {
        g.fill(0.0);
    }
    // Forward. Layer 0 reads the caller's rows in place; buffers are only
    // re-zeroed when the chunk width changes (the kernels overwrite every
    // cell they read).
    for l in 0..n_layers {
        let (din, dout) = (layers[l].in_dim, layers[l].out_dim);
        let need = rows * dout;
        if pre[l].len() != need {
            pre[l].resize(need, 0.0);
        }
        let inp: &[f64] = if l == 0 { xs } else { &acts[l - 1] };
        layer_simd(simd, inp, &mut pre[l], &wt[l], &layers[l].b, rows, din);
        if l + 1 < n_layers {
            let dst = &mut acts[l];
            if dst.len() != need {
                dst.resize(need, 0.0);
            }
            for (d, &s) in dst.iter_mut().zip(&pre[l]) {
                *d = s.max(0.0);
            }
        }
    }
    // Output deltas: `pre[last]` holds `rows × out_dim` pre-activations.
    let out_dim = layers[n_layers - 1].out_dim;
    let dlast = &mut delta[n_layers - 1];
    if dlast.len() != rows * out_dim {
        dlast.resize(rows * out_dim, 0.0);
    }
    let outs = &pre[n_layers - 1][..rows * out_dim];
    match loss {
        // d(MSE)/d(out).
        Loss::Mse => {
            for (d, (&out, &t)) in dlast.iter_mut().zip(outs.iter().zip(targets)) {
                *d = 2.0 * (out - t);
            }
        }
        // One pinball sub-gradient per head, all against the row's target,
        // scaled to keep the effective learning rate comparable to MSE.
        Loss::MultiPinball(taus) => {
            for (r, &t) in targets.iter().enumerate() {
                for (h, &tau) in taus.iter().enumerate() {
                    let out = outs[r * out_dim + h];
                    dlast[r * out_dim + h] = if out < t {
                        -2.0 * tau
                    } else {
                        2.0 * (1.0 - tau)
                    };
                }
            }
        }
    }
    for l in (0..n_layers).rev() {
        let layer = &layers[l];
        let inp: &[f64] = if l == 0 { xs } else { &acts[l - 1] };
        grad_simd(
            simd,
            &delta[l],
            inp,
            &mut gw[l],
            &mut gb[l],
            rows,
            layer.in_dim,
        );
        if l > 0 {
            let (lo, hi) = delta.split_at_mut(l);
            let prev = &mut lo[l - 1];
            let need = rows * layer.in_dim;
            if prev.len() != need {
                prev.resize(need, 0.0);
            }
            delta_simd(
                simd,
                &hi[0],
                &layer.w,
                &pre[l - 1],
                prev,
                rows,
                layer.in_dim,
                layer.out_dim,
            );
        }
    }
}

/// Compute one minibatch's summed (not yet batch-mean-scaled) gradients
/// into `gw`/`gb`: split the rows into fixed [`GRAD_CHUNK`]-sized chunks,
/// fill each chunk's partial sums (on the worker pool unless `serial`),
/// then reduce the partials in ascending chunk order. The chunk split and
/// the reduction order depend only on `rows`, so the result is bit-
/// identical at any worker count.
#[allow(clippy::too_many_arguments)]
fn minibatch_grads(
    layers: &[Dense],
    wt: &[Vec<f64>],
    simd: SimdTier,
    xb: &[f64],
    tb: &[f64],
    in_dim: usize,
    loss: Loss<'_>,
    serial: bool,
    chunk_states: &[std::sync::Mutex<ChunkGrads>],
    gw: &mut [Vec<f64>],
    gb: &mut [Vec<f64>],
) {
    let rows = tb.len();
    let n_chunks = rows.div_ceil(GRAD_CHUNK);
    debug_assert!(n_chunks <= chunk_states.len());
    for g in gw.iter_mut() {
        g.fill(0.0);
    }
    for g in gb.iter_mut() {
        g.fill(0.0);
    }
    let reduce = |st: &ChunkGrads, gw: &mut [Vec<f64>], gb: &mut [Vec<f64>]| {
        for l in 0..layers.len() {
            for (g, p) in gw[l].iter_mut().zip(&st.gw[l]) {
                *g += p;
            }
            for (g, p) in gb[l].iter_mut().zip(&st.gb[l]) {
                *g += p;
            }
        }
    };
    let chunk_rows = |c: usize| {
        let lo = c * GRAD_CHUNK;
        (lo, (lo + GRAD_CHUNK).min(rows))
    };
    if serial || n_chunks == 1 {
        // Single-threaded: run every chunk through one state and fold its
        // partials into the accumulators right away. Same chunk partials,
        // same chunk-order summation tree as the pooled path below — so
        // bit-identical results — but one hot ~L1-sized scratch instead of
        // `n_chunks` cold ones per minibatch.
        let st = &mut *chunk_states[0].lock().unwrap();
        for c in 0..n_chunks {
            let (lo, hi) = chunk_rows(c);
            chunk_forward_backward(
                layers,
                wt,
                simd,
                &xb[lo * in_dim..hi * in_dim],
                &tb[lo..hi],
                hi - lo,
                loss,
                st,
            );
            reduce(st, gw, gb);
        }
    } else {
        let task = |c: usize| {
            let (lo, hi) = chunk_rows(c);
            let st = &mut *chunk_states[c].lock().unwrap();
            chunk_forward_backward(
                layers,
                wt,
                simd,
                &xb[lo * in_dim..hi * in_dim],
                &tb[lo..hi],
                hi - lo,
                loss,
                st,
            );
        };
        rayon::pool::run(n_chunks, &task);
        for state in chunk_states.iter().take(n_chunks) {
            reduce(&state.lock().unwrap(), gw, gb);
        }
    }
}

/// The one training loop: initialise an `[in, hidden..., out_dim]` network
/// and run `cfg.epochs` of chunked minibatch Adam under `loss`. [`Mlp::train`]
/// calls this with one MSE output and [`QuantileMlp::train`] with one
/// pinball head per quantile.
///
/// Whether a training run under `cfg` computes its gradient chunks on the
/// calling thread. The chunked reduction makes the weights bit-identical
/// under either dispatch, so this is a pure perf choice: serial when
/// `cfg.serial` asks for it, and whenever the pool has a single worker
/// (`max_concurrency() <= 2`, which holds on 1-CPU and 2-CPU hosts alike).
/// On one CPU the worker and the caller would time-share it; on two, a
/// fan-out per 64-row minibatch costs more than it overlaps: a pair
/// workload's set-up measured 0.40 s pooled against 0.33 s serial on a
/// 2-vCPU host.
fn serial_dispatch(cfg: &MlpConfig) -> bool {
    cfg.serial || rayon::pool::max_concurrency() <= 2
}

/// Minibatch matrix form of the frozen per-sample reference trainer
/// (`bench::reference::train`): each minibatch is packed into a row
/// matrix, forwarded through the inference engine's batched SIMD-dispatched
/// kernels, and back-propagated with batched gradient kernels. Gradients
/// are computed per fixed [`GRAD_CHUNK`]-row chunk (fanned out over the
/// worker pool unless `cfg.serial`) and reduced in chunk-index order, so
/// the trained weights are bit-identical at any thread count. RNG
/// consumption (init + per-epoch shuffle) and the Adam update match the
/// reference exactly; within a chunk every weight's gradient terms
/// accumulate in the reference's sample-major order, so the only numeric
/// difference from the reference is the cross-chunk summation tree
/// (≤ ~1e-9 per step for minibatches wider than one chunk; bit-identical
/// otherwise). The Adam moments live here, not in the model. `serial` is
/// the resolved dispatch ([`serial_dispatch`]), passed in so a test can
/// train through the pool on any host.
fn train_layers(
    data: &Dataset,
    cfg: &MlpConfig,
    out_dim: usize,
    loss: Loss<'_>,
    serial: bool,
) -> Net {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut rng = SeededRng::new(cfg.seed);
    let dims: Vec<usize> = std::iter::once(data.dim())
        .chain(cfg.hidden.iter().copied())
        .chain(std::iter::once(out_dim))
        .collect();
    let mut layers: Vec<Dense> = dims
        .windows(2)
        .map(|w| Dense::new(w[0], w[1], &mut rng))
        .collect();
    let y_mean = data.y_mean();
    let y_std = data.y_std();
    let in_dim = data.dim();

    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    let simd = SimdTier::detect();
    let mut wt = transposed(&layers);
    let batch = cfg.batch_size.max(1);
    let chunk_states: Vec<std::sync::Mutex<ChunkGrads>> = (0..batch.div_ceil(GRAD_CHUNK))
        .map(|_| std::sync::Mutex::new(ChunkGrads::new(&layers)))
        .collect();
    let (mut gw, mut gb) = zeroed_like(&layers);
    // Adam's first (`m`) and second (`v`) moments, shaped like the
    // parameters they track.
    let (mut mw, mut mb) = zeroed_like(&layers);
    let (mut vw, mut vb) = zeroed_like(&layers);
    let mut xb: Vec<f64> = Vec::with_capacity(batch * in_dim);
    let mut tb: Vec<f64> = Vec::with_capacity(batch);
    let mut t_step = 0usize;

    for _epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(cfg.batch_size) {
            xb.clear();
            tb.clear();
            for &i in chunk {
                xb.extend_from_slice(&data.x[i]);
                tb.push((data.y[i] - y_mean) / y_std);
            }
            minibatch_grads(
                &layers,
                &wt,
                simd,
                &xb,
                &tb,
                in_dim,
                loss,
                serial,
                &chunk_states,
                &mut gw,
                &mut gb,
            );
            // Adam update with batch-mean gradients — the reference
            // trainer's update element for element, run through the
            // SIMD-dispatched kernel (see `adam_kernel` for why that
            // is bit-identical).
            t_step += 1;
            let scale = 1.0 / chunk.len() as f64;
            let bc1 = 1.0 - BETA1.powi(t_step as i32);
            let bc2 = 1.0 - BETA2.powi(t_step as i32);
            for (l, layer) in layers.iter_mut().enumerate() {
                adam_simd(
                    simd,
                    &mut layer.w,
                    &mut mw[l],
                    &mut vw[l],
                    &gw[l],
                    scale,
                    cfg.lr,
                    bc1,
                    bc2,
                );
                adam_simd(
                    simd,
                    &mut layer.b,
                    &mut mb[l],
                    &mut vb[l],
                    &gb[l],
                    scale,
                    cfg.lr,
                    bc1,
                    bc2,
                );
            }
            refresh_transposed(&layers, &mut wt);
        }
    }
    Net::assemble(layers, y_mean, y_std)
}

impl Net {
    /// Finalise a network from trained layers: derives the inference plan
    /// (transposed weight layout, SIMD tier) the batched forward pass uses.
    fn assemble(layers: Vec<Dense>, y_mean: f64, y_std: f64) -> Net {
        let plan = InferencePlan::build(&layers);
        Net {
            layers,
            y_mean,
            y_std,
            plan,
        }
    }

    /// Rebuild a network from its widths and its flattened parameters (the
    /// [`Net::raw_params`] layout).
    fn from_raw(dims: &[usize], params: &[f64], y_mean: f64, y_std: f64) -> Result<Net, String> {
        if dims.len() < 2 {
            return Err("need at least input and output dims".into());
        }
        if dims.contains(&0) {
            return Err("layer widths must be positive".into());
        }
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut off = 0;
        for w in dims.windows(2) {
            let (nw, nb) = (w[0] * w[1], w[1]);
            let Some(p) = params.get(off..off + nw + nb) else {
                return Err("parameter blob too short".into());
            };
            layers.push(Dense {
                in_dim: w[0],
                out_dim: w[1],
                w: p[..nw].to_vec(),
                b: p[nw..].to_vec(),
            });
            off += nw + nb;
        }
        if off != params.len() {
            return Err("parameter blob too long".into());
        }
        Ok(Net::assemble(layers, y_mean, y_std))
    }

    fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim
    }

    /// Layer widths `[in, hidden..., out]`.
    fn dims(&self) -> Vec<usize> {
        let mut dims: Vec<usize> = self.layers.iter().map(|l| l.in_dim).collect();
        dims.push(self.out_dim());
        dims
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Every layer's weights then biases, in layer order.
    fn raw_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// The batched ping-pong forward pass, leaving the output layer's rows
    /// packed at stride `out_dim` at the front of `ws.a`. Runs entirely in
    /// the workspace buffers — no allocation once they are warm. Returns
    /// `false` when `n == 0` (nothing was forwarded).
    ///
    /// Numerically identical to the per-sample path: for every output the
    /// terms accumulate in ascending input order, exactly as
    /// [`Dense::forward`] does, so batched and scalar predictions agree
    /// bit for bit.
    fn forward_rows(&self, xs: &[f64], n: usize, ws: &mut Workspace) -> bool {
        let in_dim = self.layers[0].in_dim;
        assert_eq!(
            xs.len(),
            n * in_dim,
            "feature dimension mismatch — retrain the model (stale cache?)"
        );
        if n == 0 {
            return false;
        }
        // Both ping-pong buffers stay sized to the widest layer: rows are
        // packed at the current layer's stride inside them, and the bias
        // initialisation below overwrites every cell that will be read, so
        // no per-layer clear/zero-fill is needed.
        let width = self.plan.max_width;
        if ws.a.len() < n * width {
            ws.a.resize(n * width, 0.0);
            ws.b.resize(n * width, 0.0);
        }
        ws.a[..xs.len()].copy_from_slice(xs);
        let n_layers = self.layers.len();
        for (l, (layer, wt)) in self.layers.iter().zip(&self.plan.wt).enumerate() {
            layer_simd(
                self.plan.simd,
                &ws.a,
                &mut ws.b,
                wt,
                &layer.b,
                n,
                layer.in_dim,
            );
            if l + 1 < n_layers {
                for v in ws.b[..n * layer.out_dim].iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut ws.a, &mut ws.b);
        }
        true
    }

    /// Forward `n` rows and append, per row, the outputs in ms, clamped
    /// non-negative and rearranged monotone across heads (running max):
    /// every head when `all_heads`, else only the last — the row maximum,
    /// which for a one-output net is that output.
    fn predict_rows(
        &self,
        xs: &[f64],
        n: usize,
        all_heads: bool,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        if !self.forward_rows(xs, n, ws) {
            return;
        }
        let h = self.out_dim();
        out.reserve(if all_heads { n * h } else { n });
        for row in ws.a[..n * h].chunks_exact(h) {
            let mut hi = f64::NEG_INFINITY;
            for &z in row {
                hi = hi.max((z * self.y_std + self.y_mean).max(0.0));
                if all_heads {
                    out.push(hi);
                }
            }
            if !all_heads {
                out.push(hi);
            }
        }
    }

    /// [`Net::predict_rows`] into `out` (cleared first) on this thread's
    /// workspace.
    fn predict_into(&self, xs: &[f64], n: usize, all_heads: bool, out: &mut Vec<f64>) {
        out.clear();
        WORKSPACE.with(|cell| self.predict_rows(xs, n, all_heads, &mut cell.borrow_mut(), out));
    }

    /// The last head's prediction for one row, allocation-free.
    fn predict_one(&self, x: &[f64]) -> f64 {
        WORKSPACE.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            let mut single = std::mem::take(&mut ws.single);
            single.clear();
            self.predict_rows(x, 1, false, ws, &mut single);
            let y = single[0];
            ws.single = single;
            y
        })
    }

    /// The last head's prediction for each row vector.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        WORKSPACE.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            let mut packed = std::mem::take(&mut ws.packed);
            packed.clear();
            for x in xs {
                packed.extend_from_slice(x);
            }
            let mut out = Vec::with_capacity(xs.len());
            self.predict_rows(&packed, xs.len(), false, ws, &mut out);
            ws.packed = packed;
            out
        })
    }
}

/// The trained MLP duration model: the network with one MSE output.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    net: Net,
}

impl Mlp {
    /// Train on `data` with the given config (see `train_layers` for the
    /// determinism contract).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn train(data: &Dataset, cfg: &MlpConfig) -> Mlp {
        Mlp {
            net: train_layers(data, cfg, 1, Loss::Mse, serial_dispatch(cfg)),
        }
    }

    /// The pre-batching scalar forward pass: one sample, fresh `Vec`s per
    /// layer. Kept as the reference implementation — benches compare the
    /// batched engine against it, and the property tests use it as an
    /// allocation-independent oracle. Accumulates in the same order as the
    /// batched kernel, so both agree bit for bit.
    pub fn predict_one_scalar(&self, x: &[f64]) -> f64 {
        let layers = &self.net.layers;
        assert_eq!(
            x.len(),
            layers[0].in_dim,
            "feature dimension mismatch — retrain the model (stale cache?)"
        );
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for (l, layer) in layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if l + 1 < layers.len() {
                for v in next.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        (cur[0] * self.net.y_std + self.net.y_mean).max(0.0)
    }

    /// Layer widths `[in, hidden..., 1]` (for persistence and stats).
    pub fn dims(&self) -> Vec<usize> {
        self.net.dims()
    }

    /// Number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    /// In-memory model size in bytes (f64 parameters), the §7.8 footprint.
    pub fn size_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f64>()
    }

    pub(crate) fn target_scaling(&self) -> (f64, f64) {
        (self.net.y_mean, self.net.y_std)
    }

    /// Rebuild a model from its widths, its [`Mlp::raw_params`] and its
    /// target scaling. A mean model has exactly one output, so any other
    /// last width is an error.
    pub fn from_raw(
        dims: &[usize],
        params: &[f64],
        y_mean: f64,
        y_std: f64,
    ) -> Result<Mlp, String> {
        if dims.last() != Some(&1) {
            return Err(format!("a mean model has one output, got dims {dims:?}"));
        }
        Net::from_raw(dims, params, y_mean, y_std).map(|net| Mlp { net })
    }

    /// Flatten every layer's weights then biases, in layer order — the
    /// layout [`Mlp::from_raw`] accepts and the persistence format stores.
    /// Public so external tests can compare trained models parameter-wise.
    pub fn raw_params(&self) -> Vec<f64> {
        self.net.raw_params()
    }
}

/// A multi-head quantile model: the same network with one output head per
/// quantile, trained jointly under per-head pinball losses
/// ([`Loss::MultiPinball`]). The certification pipeline trains the
/// p90/p95/p99 heads this way and conformally calibrates them (see
/// `conformal`); a three-head 3×32 net costs the same trunk forward as the
/// mean predictor plus two extra output dot products. As a
/// [`LatencyModel`] it predicts its top head, so a one-head model is a
/// single pinball-loss duration model.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileMlp {
    net: Net,
    /// Quantile levels per head, strictly ascending in `(0, 1)`.
    taus: Vec<f64>,
}

/// Validate a quantile-head configuration: non-empty, each level in
/// `(0, 1)`, strictly ascending.
fn check_taus(taus: &[f64]) -> Result<(), String> {
    if taus.is_empty() {
        return Err("need at least one quantile head".into());
    }
    if taus.windows(2).any(|p| p[0] >= p[1]) {
        return Err("quantile levels must be strictly ascending".into());
    }
    match taus.iter().find(|&&t| !(t > 0.0 && t < 1.0)) {
        Some(t) => Err(format!("quantile level {t} outside (0, 1)")),
        None => Ok(()),
    }
}

impl QuantileMlp {
    /// Train one head per level in `taus` on `data` — the same loop as
    /// [`Mlp::train`] with a `taus.len()`-wide output layer and per-head
    /// pinball gradients, so the weights are bit-identical at any worker
    /// count for the same reason.
    ///
    /// # Panics
    /// Panics on an empty dataset or an invalid `taus` (see [`check_taus`]).
    pub fn train(data: &Dataset, cfg: &MlpConfig, taus: &[f64]) -> QuantileMlp {
        if let Err(e) = check_taus(taus) {
            panic!("{e}");
        }
        QuantileMlp {
            net: train_layers(
                data,
                cfg,
                taus.len(),
                Loss::MultiPinball(taus),
                serial_dispatch(cfg),
            ),
            taus: taus.to_vec(),
        }
    }

    /// The quantile levels, one per head, ascending.
    pub fn taus(&self) -> &[f64] {
        &self.taus
    }

    /// Number of output heads.
    pub fn n_heads(&self) -> usize {
        self.taus.len()
    }

    /// Batched multi-head prediction: `n` feature rows packed in `xs`,
    /// `n × n_heads` quantile predictions (ms, row-major, head-minor)
    /// appended to `out` (cleared first). Runs the same allocation-free
    /// batched kernels as the [`LatencyModel`] entry points.
    ///
    /// Heads are trained independently, so raw quantile curves can cross;
    /// the returned quantiles are rearranged monotone per row (running max
    /// in tau order), which the conformal calibration and the monotonicity
    /// guarantee `q_p90 ≤ q_p95 ≤ q_p99` both rely on. Predictions are
    /// clamped non-negative like the mean model's.
    pub fn predict_quantiles_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        self.net.predict_into(xs, n, true, out);
    }

    /// All heads for one feature row (see [`predict_quantiles_into`]).
    ///
    /// [`predict_quantiles_into`]: QuantileMlp::predict_quantiles_into
    pub fn predict_quantiles_one(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.taus.len());
        self.predict_quantiles_into(x, 1, &mut out);
        out
    }

    /// Layer widths `[in, hidden..., n_heads]` (for persistence).
    pub fn dims(&self) -> Vec<usize> {
        self.net.dims()
    }

    /// Number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    pub(crate) fn target_scaling(&self) -> (f64, f64) {
        (self.net.y_mean, self.net.y_std)
    }

    /// Flatten every layer's weights then biases, in layer order — the
    /// layout [`QuantileMlp::from_raw`] accepts and persistence stores.
    pub fn raw_params(&self) -> Vec<f64> {
        self.net.raw_params()
    }

    /// Rebuild heads from their widths, [`QuantileMlp::raw_params`], target
    /// scaling and levels. Invalid levels, or a last width other than the
    /// level count, are an error.
    pub fn from_raw(
        dims: &[usize],
        params: &[f64],
        y_mean: f64,
        y_std: f64,
        taus: Vec<f64>,
    ) -> Result<QuantileMlp, String> {
        check_taus(&taus)?;
        if dims.last() != Some(&taus.len()) {
            return Err("output width does not match quantile head count".into());
        }
        Net::from_raw(dims, params, y_mean, y_std).map(|net| QuantileMlp { net, taus })
    }
}

/// Both models predict through the shared network's top head.
macro_rules! latency_model_via_net {
    ($model:ty, $name:literal) => {
        impl LatencyModel for $model {
            fn predict_one(&self, x: &[f64]) -> f64 {
                self.net.predict_one(x)
            }

            fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
                self.net.predict_into(xs, n, false, out);
            }

            fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
                self.net.predict_batch(xs)
            }

            fn name(&self) -> &'static str {
                $name
            }
        }
    };
}

latency_model_via_net!(Mlp, "MLP");
latency_model_via_net!(QuantileMlp, "QuantileMLP");

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `n` values in `[-1, 1)`, every `zero_every`-th exactly zero so the
    /// forward kernel's zero-skip runs too.
    fn values(rng: &mut SeededRng, n: usize, zero_every: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % zero_every == 0 {
                    0.0
                } else {
                    rng.range_f64(-1.0, 1.0)
                }
            })
            .collect()
    }

    /// [`values`] with every other zero negative: kernel inputs may hold
    /// `-0.0` (`f64::max` may keep the sign of a `-0.0` pre-activation),
    /// accumulators never do.
    fn signed(rng: &mut SeededRng, n: usize, zero_every: usize) -> Vec<f64> {
        let mut xs = values(rng, n, zero_every);
        for x in xs.iter_mut().filter(|x| **x == 0.0).step_by(2) {
            *x = -0.0;
        }
        xs
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Width-agnostic references for the three matrix kernels: plain loops
    /// in the scalar reference trainer's per-element order, with no zero
    /// skip and no width dispatch.
    fn naive_layer(a: &[f64], wt: &[f64], bias: &[f64], rows: usize, din: usize) -> Vec<f64> {
        let dout = bias.len();
        let mut out = vec![0.0; rows * dout];
        for r in 0..rows {
            for o in 0..dout {
                let mut acc = bias[o];
                for i in 0..din {
                    acc += a[r * din + i] * wt[i * dout + o];
                }
                out[r * dout + o] = acc;
            }
        }
        out
    }

    fn naive_grad(
        delta: &[f64],
        acts: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
        rows: usize,
        din: usize,
    ) {
        let dout = gb.len();
        for r in 0..rows {
            for o in 0..dout {
                let d = delta[r * dout + o];
                gb[o] += d;
                for i in 0..din {
                    gw[o * din + i] += d * acts[r * din + i];
                }
            }
        }
    }

    fn naive_delta(
        delta: &[f64],
        w: &[f64],
        pre_prev: &[f64],
        rows: usize,
        din: usize,
    ) -> Vec<f64> {
        let dout = delta.len() / rows;
        let mut prev = vec![0.0; rows * din];
        for r in 0..rows {
            for o in 0..dout {
                for i in 0..din {
                    prev[r * din + i] += delta[r * dout + o] * w[o * din + i];
                }
            }
            for i in 0..din {
                if pre_prev[r * din + i] <= 0.0 {
                    prev[r * din + i] = 0.0;
                }
            }
        }
        prev
    }

    /// Every training kernel (`layer`, `grad`, `delta`, `adam`) at every
    /// host-supported SIMD tier is bit-identical to the width-agnostic
    /// references above (the matrix kernels) and to the scalar tier, with
    /// the vectorised dimension swept across every remainder-lane split and
    /// across the register-resident widths and their neighbours (the
    /// feature width 23/24/25, the hidden width 31/32/33), on sparse inputs
    /// holding both signs of zero.
    #[test]
    fn all_tiers_match_scalar_bitwise() {
        // A layer reads `wide` inputs, so its zero gather crosses a block.
        let (rows, narrow, wide) = (4, 3, NONZERO_BLOCK + 3);
        for len in [
            0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33,
        ] {
            let mut rng = SeededRng::new(len as u64);
            // layer: axpy across `len` outputs.
            let a = signed(&mut rng, rows * wide, 4);
            let wt = signed(&mut rng, wide * len, 7);
            let bias = values(&mut rng, len, 5);
            // grad / delta: axpy across `len` inputs.
            let delta = signed(&mut rng, rows * narrow, 3);
            let acts = signed(&mut rng, rows * len, 6);
            let gw0 = values(&mut rng, narrow * len, 9);
            let gb0 = values(&mut rng, narrow, 2);
            let w = signed(&mut rng, narrow * len, 8);
            let pre_prev = signed(&mut rng, rows * len, 5);
            // adam: element-wise over `len` parameters.
            let p0 = values(&mut rng, len, 11);
            let m0 = values(&mut rng, len, 4);
            let v0: Vec<f64> = values(&mut rng, len, 4).iter().map(|v| v.abs()).collect();
            let g = signed(&mut rng, len, 3);

            let run = |tier: SimdTier| {
                let mut out = vec![0.0; rows * len];
                if len > 0 {
                    // A layer has at least one output.
                    layer_simd(tier, &a, &mut out, &wt, &bias, rows, wide);
                }
                let (mut gw, mut gb) = (gw0.clone(), gb0.clone());
                grad_simd(tier, &delta, &acts, &mut gw, &mut gb, rows, len);
                let mut prev = vec![1.0; rows * len];
                delta_simd(tier, &delta, &w, &pre_prev, &mut prev, rows, len, narrow);
                let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
                adam_simd(tier, &mut p, &mut m, &mut v, &g, 0.25, 1e-3, 0.1, 0.001);
                [out, gw, gb, prev, p, m, v].map(|xs| bits(&xs))
            };
            let (mut gw, mut gb) = (gw0.clone(), gb0.clone());
            naive_grad(&delta, &acts, &mut gw, &mut gb, rows, len);
            let naive = [
                naive_layer(&a, &wt, &bias, rows, wide),
                gw,
                gb,
                naive_delta(&delta, &w, &pre_prev, rows, len),
            ]
            .map(|xs| bits(&xs));
            let want = run(SimdTier::Scalar);
            for tier in SimdTier::supported() {
                let got = run(tier);
                for (k, name) in [
                    "layer", "grad w", "grad b", "delta", "adam w", "adam m", "adam v",
                ]
                .iter()
                .enumerate()
                {
                    assert_eq!(
                        got[k], want[k],
                        "{name} diverged at len {len} tier {tier:?}"
                    );
                    if let Some(reference) = naive.get(k) {
                        let at = format!("{name} vs reference at len {len} tier {tier:?}");
                        assert_eq!(&got[k], reference, "{at}");
                    }
                }
            }
        }
    }

    /// Per-sample scalar gradient reference mirroring the inner loop of the
    /// frozen reference trainer (`bench::reference::train`): fold every
    /// sample's forward/backward into the accumulators in sample order.
    #[allow(clippy::needless_range_loop)]
    fn scalar_grads(
        layers: &[Dense],
        xs: &[f64],
        targets: &[f64],
        in_dim: usize,
        loss: Loss<'_>,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let n_layers = layers.len();
        let mut acts: Vec<Vec<f64>> = vec![Vec::new(); n_layers + 1];
        let mut pre: Vec<Vec<f64>> = vec![Vec::new(); n_layers];
        let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); n_layers];
        let (mut gw, mut gb) = zeroed_like(layers);
        for (r, &target) in targets.iter().enumerate() {
            acts[0].clear();
            acts[0].extend_from_slice(&xs[r * in_dim..(r + 1) * in_dim]);
            for (l, layer) in layers.iter().enumerate() {
                let (head, tail) = acts.split_at_mut(l + 1);
                layer.forward(&head[l], &mut pre[l]);
                tail[0].clear();
                if l + 1 < n_layers {
                    tail[0].extend(pre[l].iter().map(|&v| v.max(0.0)));
                } else {
                    tail[0].extend_from_slice(&pre[l]);
                }
            }
            deltas[n_layers - 1].clear();
            match loss {
                Loss::Mse => deltas[n_layers - 1].push(2.0 * (acts[n_layers][0] - target)),
                Loss::MultiPinball(taus) => {
                    for (h, &tau) in taus.iter().enumerate() {
                        deltas[n_layers - 1].push(if acts[n_layers][h] < target {
                            -2.0 * tau
                        } else {
                            2.0 * (1.0 - tau)
                        });
                    }
                }
            }
            for l in (0..n_layers).rev() {
                let layer = &layers[l];
                for o in 0..layer.out_dim {
                    let d = deltas[l][o];
                    gb[l][o] += d;
                    let grow = &mut gw[l][o * layer.in_dim..(o + 1) * layer.in_dim];
                    for (gv, &a) in grow.iter_mut().zip(&acts[l]) {
                        *gv += d * a;
                    }
                }
                if l > 0 {
                    let (lo, hi) = deltas.split_at_mut(l);
                    let dl = &hi[0];
                    let prev = &mut lo[l - 1];
                    prev.clear();
                    prev.resize(layer.in_dim, 0.0);
                    for o in 0..layer.out_dim {
                        let d = dl[o];
                        let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                        for (p, &w) in prev.iter_mut().zip(row) {
                            *p += d * w;
                        }
                    }
                    for (p, &z) in prev.iter_mut().zip(&pre[l - 1]) {
                        if z <= 0.0 {
                            *p = 0.0;
                        }
                    }
                }
            }
        }
        (gw, gb)
    }

    fn run_minibatch(
        layers: &[Dense],
        xs: &[f64],
        targets: &[f64],
        in_dim: usize,
        loss: Loss<'_>,
        tier: SimdTier,
        serial: bool,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let wt = transposed(layers);
        let states: Vec<std::sync::Mutex<ChunkGrads>> = (0..targets.len().div_ceil(GRAD_CHUNK))
            .map(|_| std::sync::Mutex::new(ChunkGrads::new(layers)))
            .collect();
        let (mut gw, mut gb) = zeroed_like(layers);
        minibatch_grads(
            layers, &wt, tier, xs, targets, in_dim, loss, serial, &states, &mut gw, &mut gb,
        );
        (gw, gb)
    }

    /// The batched chunked gradient pipeline on an `[in_dim, hidden...,
    /// heads]` net (one MSE head, or `n_heads` pinball heads) against the
    /// scalar per-sample reference on every host tier: bit for bit when
    /// the rows fit one [`GRAD_CHUNK`], to 1e-9 otherwise (the cross-chunk
    /// summation tree), and serial dispatch bit for bit equal to pooled.
    /// Inputs are ~25% zeros of both signs.
    fn check_minibatch(
        seed: u64,
        in_dim: usize,
        hidden: &[usize],
        rows: usize,
        n_heads: Option<usize>,
    ) {
        let heads = n_heads.unwrap_or(0);
        let taus: Vec<f64> = (1..=heads)
            .map(|h| 0.5 + 0.45 * h as f64 / heads as f64)
            .collect();
        let (loss, out_dim) = match n_heads {
            Some(_) => (Loss::MultiPinball(&taus), taus.len()),
            None => (Loss::Mse, 1),
        };
        let mut rng = SeededRng::new(seed);
        let dims: Vec<usize> = std::iter::once(in_dim)
            .chain(hidden.iter().copied())
            .chain(std::iter::once(out_dim))
            .collect();
        let layers: Vec<Dense> = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        let xs: Vec<f64> = (0..rows * in_dim)
            .map(|_| match rng.f64() {
                u if u < 0.125 => 0.0,
                u if u < 0.25 => -0.0,
                _ => 2.0 * rng.f64() - 1.0,
            })
            .collect();
        let targets: Vec<f64> = (0..rows).map(|_| 2.0 * rng.f64() - 1.0).collect();

        let (sgw, sgb) = scalar_grads(&layers, &xs, &targets, in_dim, loss);
        let shape = format!("dims {dims:?}, {rows} rows");
        for tier in SimdTier::supported() {
            let (gw, gb) = run_minibatch(&layers, &xs, &targets, in_dim, loss, tier, true);
            let pooled = run_minibatch(&layers, &xs, &targets, in_dim, loss, tier, false);
            assert_eq!(
                (&gw, &gb),
                (&pooled.0, &pooled.1),
                "serial vs pooled, {shape}, {tier:?}"
            );
            for (got, want) in [(&gw, &sgw), (&gb, &sgb)] {
                for (l, (g, s)) in got.iter().zip(want).enumerate() {
                    if rows <= GRAD_CHUNK {
                        assert_eq!(bits(g), bits(s), "layer {l}, {shape}, {tier:?}");
                    } else {
                        for (j, (a, b)) in g.iter().zip(s).enumerate() {
                            let at = format!("layer {l} [{j}], {shape}, {tier:?}");
                            assert!((a - b).abs() <= 1e-9, "{at}: {a} vs {b}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// [`check_minibatch`] across random layer shapes — narrow widths
        /// and the register-resident widths with their neighbours (input
        /// 23/24/25, hidden 31/32/33) — batch sizes and both losses (MSE,
        /// and pinball on 1–4 heads).
        #[test]
        fn minibatch_grads_match_scalar_reference(
            seed in 0u64..1024,
            in_dim in prop_oneof![1usize..6, 23usize..26],
            hidden in proptest::collection::vec(prop_oneof![1usize..9, 31usize..34], 0..3),
            rows in 1usize..41,
            pinball in 0usize..2,
            n_heads in 1usize..5,
        ) {
            check_minibatch(seed, in_dim, &hidden, rows, (pinball == 1).then_some(n_heads));
        }
    }

    /// [`check_minibatch`] at the paper's `[24, 32, 32, 32, heads]` net and
    /// at every neighbouring width, always in the bit-exact single-chunk
    /// regime.
    #[test]
    fn minibatch_grads_at_net_widths_match_scalar_bitwise() {
        for (k, in_dim) in [FEATURE_DIM - 1, FEATURE_DIM, FEATURE_DIM + 1]
            .into_iter()
            .enumerate()
        {
            for hidden in [31, 32, 33] {
                let seed = (k * 3 + hidden) as u64;
                check_minibatch(seed, in_dim, &[hidden; 3], GRAD_CHUNK, None);
                check_minibatch(seed, in_dim, &[hidden; 3], GRAD_CHUNK - 3, Some(3));
            }
        }
    }

    /// y = 3*x0 + relu-ish non-linearity of x1.
    fn synthetic(n: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x0 = rng.f64();
            let x1 = rng.f64();
            let y = 10.0 + 30.0 * x0 + 20.0 * (x1 - 0.5).max(0.0);
            d.push(vec![x0, x1], y);
        }
        d
    }

    #[test]
    fn learns_nonlinear_function() {
        let train = synthetic(2000, 1);
        let test = synthetic(300, 2);
        let mlp = Mlp::train(
            &train,
            &MlpConfig {
                hidden: vec![32, 32, 32],
                epochs: 60,
                batch_size: 64,
                lr: 2e-3,
                seed: 3,
                serial: false,
            },
        );
        let mape = crate::eval::mape(&mlp, &test);
        assert!(mape < 0.05, "mape {mape}");
    }

    /// A whole training run through the worker pool, on any host (the
    /// public entry points train serially wherever the pool has a single
    /// worker), against a serial run: the same model bit for bit, for the
    /// mean and the multi-head pinball loss. 200 rows in minibatches of 64
    /// keep up to four gradient chunks per fan-out.
    #[test]
    fn pooled_training_run_matches_serial_bitwise() {
        let d = synthetic(200, 6);
        let cfg = MlpConfig {
            epochs: 4,
            ..MlpConfig::default()
        };
        assert!(cfg.batch_size > GRAD_CHUNK);
        let taus = [0.9, 0.99];
        for (out_dim, loss) in [(1, Loss::Mse), (taus.len(), Loss::MultiPinball(&taus))] {
            let pooled = train_layers(&d, &cfg, out_dim, loss, false);
            let serial = train_layers(&d, &cfg, out_dim, loss, true);
            assert_eq!(pooled, serial, "{out_dim} heads");
        }
    }

    #[test]
    fn deterministic_training() {
        let d = synthetic(200, 4);
        let cfg = MlpConfig {
            epochs: 5,
            ..MlpConfig::default()
        };
        let a = Mlp::train(&d, &cfg);
        let b = Mlp::train(&d, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn paper_sized_model_is_small() {
        // §7.8: the predictor occupies ~14 kB. A 23-input 3x32 MLP:
        // 23*32+32 + 32*32+32 + 32*32+32 + 32+1 = ~2.9k params * 4 B (f32
        // in the paper) ≈ 12 kB; we store f64.
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![0.1 * i as f64; 23], i as f64);
        }
        let mlp = Mlp::train(
            &d,
            &MlpConfig {
                epochs: 1,
                ..MlpConfig::default()
            },
        );
        assert_eq!(
            mlp.param_count(),
            23 * 32 + 32 + 32 * 32 + 32 + 32 * 32 + 32 + 32 + 1
        );
        assert!(mlp.size_bytes() < 30_000);
    }

    #[test]
    fn quantile_training_biases_upward() {
        // With symmetric noise around the mean, a one-head q90 model should
        // predict above the mean most of the time.
        let d = noisy(3000, 9);
        let cfg = MlpConfig {
            epochs: 40,
            ..MlpConfig::default()
        };
        let mean_model = Mlp::train(&d, &cfg);
        let q90 = QuantileMlp::train(&d, &cfg, &[0.9]);
        let mut above = 0;
        for i in 0..20 {
            let x = [i as f64 / 20.0];
            if q90.predict_one(&x) > mean_model.predict_one(&x) {
                above += 1;
            }
        }
        assert!(above >= 16, "q90 above mean at {above}/20 points");
        // And it covers ~90% of the observed targets.
        let covered =
            d.x.iter()
                .zip(&d.y)
                .filter(|(x, &y)| q90.predict_one(x) >= y)
                .count();
        let frac = covered as f64 / d.len() as f64;
        assert!((0.80..0.97).contains(&frac), "coverage {frac}");
    }

    /// Noisy linear data for the quantile-head tests.
    fn noisy(n: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x = rng.f64();
            let y = 20.0 + 10.0 * x + 2.0 * rng.normal();
            d.push(vec![x], y.max(0.1));
        }
        d
    }

    #[test]
    fn quantile_heads_are_monotone_and_cover() {
        let d = noisy(3000, 9);
        let q = QuantileMlp::train(
            &d,
            &MlpConfig {
                epochs: 40,
                ..MlpConfig::default()
            },
            &[0.9, 0.95, 0.99],
        );
        assert_eq!(q.n_heads(), 3);
        // Monotone per row by construction, and batched == scalar path.
        let mut packed = Vec::new();
        for i in 0..20 {
            packed.push(i as f64 / 20.0);
        }
        let mut out = Vec::new();
        q.predict_quantiles_into(&packed, 20, &mut out);
        for (r, row) in out.chunks_exact(3).enumerate() {
            assert!(row[0] <= row[1] && row[1] <= row[2], "row {r}: {row:?}");
            assert_eq!(row, &q.predict_quantiles_one(&[r as f64 / 20.0])[..]);
        }
        // Each head covers at least its level minus slack on the train set
        // (pinball loss pulls coverage toward tau).
        for (h, (&tau, floor)) in q.taus().iter().zip([0.80, 0.85, 0.90]).enumerate() {
            let covered =
                d.x.iter()
                    .zip(&d.y)
                    .filter(|(x, &y)| q.predict_quantiles_one(x)[h] >= y)
                    .count();
            let frac = covered as f64 / d.len() as f64;
            assert!(frac >= floor, "head {h} (tau {tau}) coverage {frac}");
        }
    }

    #[test]
    fn quantile_training_is_deterministic() {
        let d = noisy(200, 4);
        let cfg = MlpConfig {
            epochs: 5,
            ..MlpConfig::default()
        };
        let a = QuantileMlp::train(&d, &cfg, &[0.9, 0.95, 0.99]);
        let b = QuantileMlp::train(&d, &cfg, &[0.9, 0.95, 0.99]);
        assert_eq!(a, b);
    }

    #[test]
    fn quantile_raw_roundtrip() {
        let d = noisy(100, 6);
        let q = QuantileMlp::train(
            &d,
            &MlpConfig {
                epochs: 3,
                ..MlpConfig::default()
            },
            &[0.9, 0.95],
        );
        let (y_mean, y_std) = q.target_scaling();
        let rebuilt =
            QuantileMlp::from_raw(&q.dims(), &q.raw_params(), y_mean, y_std, q.taus().to_vec())
                .unwrap();
        assert_eq!(rebuilt, q);
        for i in 0..10 {
            let x = [i as f64 / 10.0];
            assert_eq!(
                q.predict_quantiles_one(&x),
                rebuilt.predict_quantiles_one(&x)
            );
        }
        assert_eq!(q.dims(), rebuilt.dims());
        // A head-count mismatch is an error, not a panic.
        assert!(QuantileMlp::from_raw(&q.dims(), &q.raw_params(), 0.0, 1.0, vec![0.9]).is_err());
    }

    #[test]
    fn predictions_are_clamped_non_negative() {
        let d = synthetic(100, 5);
        let mlp = Mlp::train(
            &d,
            &MlpConfig {
                epochs: 2,
                ..MlpConfig::default()
            },
        );
        assert!(mlp.predict_one(&[-100.0, -100.0]) >= 0.0);
    }

    #[test]
    fn raw_roundtrip() {
        let d = synthetic(100, 6);
        let mlp = Mlp::train(
            &d,
            &MlpConfig {
                epochs: 3,
                ..MlpConfig::default()
            },
        );
        let (y_mean, y_std) = mlp.target_scaling();
        let rebuilt = Mlp::from_raw(&mlp.dims(), &mlp.raw_params(), y_mean, y_std).unwrap();
        // The optimiser state stays in the trainer, so a rebuilt model is
        // the whole model.
        assert_eq!(rebuilt, mlp);
        for i in 0..10 {
            let x = [i as f64 / 10.0, 1.0 - i as f64 / 10.0];
            assert_eq!(mlp.predict_one(&x), rebuilt.predict_one(&x));
        }
    }
}
