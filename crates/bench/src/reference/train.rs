//! The pre-refactor per-sample MLP trainer, frozen as the training layer's
//! single reference.
//!
//! A line-faithful port of the scalar trainer that `predictor::Mlp::train`
//! and `predictor::QuantileMlp::train` replaced: one sample at a time,
//! per-sample forward and backward, gradients folded in sample order, then
//! one Adam step per minibatch. It is written against the predictor's
//! public API (`Dataset`, `SeededRng`, `from_raw`) and consumes the RNG
//! exactly as the live trainer does — He initialisation layer by layer,
//! then one shuffle per epoch — so the two are comparable bit for bit:
//!
//! * minibatches of at most one gradient chunk (16 rows) accumulate every
//!   weight's terms in the same order, so the trained models are
//!   identical;
//! * wider minibatches differ only in the cross-chunk summation tree
//!   (≤ ~1e-9 per parameter after a short run).
//!
//! The train bench times it against the live trainer; `predictor`'s
//! `golden_trainer` suite pins the live trainer to it.

use predictor::{Dataset, Mlp, MlpConfig, QuantileMlp};
use workload::SeededRng;

/// Adam hyper-parameters (the live trainer's).
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// The loss the reference trains under.
#[derive(Clone, Copy)]
enum Loss<'a> {
    /// Squared error on one output.
    Mse,
    /// One output head per level, each under the pinball loss at its `tau`
    /// against the same target.
    Pinball(&'a [f64]),
}

/// One dense layer with its Adam state.
struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim`.
    w: Vec<f64>,
    b: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
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
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
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

/// A trained network in the predictor's persistence layout: widths
/// `[in, hidden..., out]`, every layer's weights then biases in layer
/// order (what `from_raw` accepts), and the target scaling.
struct Trained {
    dims: Vec<usize>,
    params: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

/// The reference mean model: one MSE output.
///
/// # Panics
/// Panics on an empty dataset.
pub fn mlp(data: &Dataset, cfg: &MlpConfig) -> Mlp {
    let t = train(data, cfg, Loss::Mse);
    Mlp::from_raw(&t.dims, &t.params, t.y_mean, t.y_std).expect("reference net is well formed")
}

/// The reference quantile heads: one pinball-loss output per level in
/// `taus`.
///
/// # Panics
/// Panics on an empty dataset or on levels `QuantileMlp` rejects.
pub fn quantile(data: &Dataset, cfg: &MlpConfig, taus: &[f64]) -> QuantileMlp {
    let t = train(data, cfg, Loss::Pinball(taus));
    QuantileMlp::from_raw(&t.dims, &t.params, t.y_mean, t.y_std, taus.to_vec())
        .expect("reference net is well formed")
}

/// Train an `[in, hidden..., out]` network on `data`, one sample at a
/// time, where `out` is 1 under [`Loss::Mse`] and one head per level under
/// [`Loss::Pinball`].
// Preserved verbatim (golden reference) — exempt from loop-style lints.
#[allow(clippy::needless_range_loop)]
fn train(data: &Dataset, cfg: &MlpConfig, loss: Loss<'_>) -> Trained {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let out_dim = match loss {
        Loss::Mse => 1,
        Loss::Pinball(taus) => taus.len(),
    };
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

    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Per-layer scratch: activations (post-ReLU inputs) and deltas.
    let n_layers = layers.len();
    let mut acts: Vec<Vec<f64>> = vec![Vec::new(); n_layers + 1];
    let mut pre: Vec<Vec<f64>> = vec![Vec::new(); n_layers];
    let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); n_layers];
    // Gradient accumulators per layer.
    let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
    let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
    let mut t_step = 0usize;

    for _epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(cfg.batch_size) {
            for g in gw.iter_mut() {
                g.iter_mut().for_each(|v| *v = 0.0);
            }
            for g in gb.iter_mut() {
                g.iter_mut().for_each(|v| *v = 0.0);
            }
            for &i in chunk {
                let target = (data.y[i] - y_mean) / y_std;
                // Forward.
                acts[0].clear();
                acts[0].extend_from_slice(&data.x[i]);
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
                    // d(MSE)/d(out).
                    Loss::Mse => deltas[n_layers - 1].push(2.0 * (acts[n_layers][0] - target)),
                    // Per-head pinball sub-gradients against the shared
                    // target, scaled to keep the effective learning rate
                    // comparable to MSE.
                    Loss::Pinball(taus) => {
                        for (h, &tau) in taus.iter().enumerate() {
                            let out = acts[n_layers][h];
                            deltas[n_layers - 1].push(if out < target {
                                -2.0 * tau
                            } else {
                                2.0 * (1.0 - tau)
                            });
                        }
                    }
                }
                // Backward.
                for l in (0..n_layers).rev() {
                    // Accumulate gradients for layer l.
                    let layer = &layers[l];
                    for o in 0..layer.out_dim {
                        let d = deltas[l][o];
                        gb[l][o] += d;
                        let grow = &mut gw[l][o * layer.in_dim..(o + 1) * layer.in_dim];
                        for (gv, &a) in grow.iter_mut().zip(&acts[l]) {
                            *gv += d * a;
                        }
                    }
                    // Propagate to layer l-1.
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
                        // ReLU derivative at the previous pre-activation.
                        for (p, &z) in prev.iter_mut().zip(&pre[l - 1]) {
                            if z <= 0.0 {
                                *p = 0.0;
                            }
                        }
                    }
                }
            }
            // Adam update with batch-mean gradients.
            t_step += 1;
            let scale = 1.0 / chunk.len() as f64;
            let bc1 = 1.0 - BETA1.powi(t_step as i32);
            let bc2 = 1.0 - BETA2.powi(t_step as i32);
            for (l, layer) in layers.iter_mut().enumerate() {
                for (j, g) in gw[l].iter().enumerate() {
                    let g = g * scale;
                    layer.mw[j] = BETA1 * layer.mw[j] + (1.0 - BETA1) * g;
                    layer.vw[j] = BETA2 * layer.vw[j] + (1.0 - BETA2) * g * g;
                    layer.w[j] -= cfg.lr * (layer.mw[j] / bc1) / ((layer.vw[j] / bc2).sqrt() + EPS);
                }
                for (j, g) in gb[l].iter().enumerate() {
                    let g = g * scale;
                    layer.mb[j] = BETA1 * layer.mb[j] + (1.0 - BETA1) * g;
                    layer.vb[j] = BETA2 * layer.vb[j] + (1.0 - BETA2) * g * g;
                    layer.b[j] -= cfg.lr * (layer.mb[j] / bc1) / ((layer.vb[j] / bc2).sqrt() + EPS);
                }
            }
        }
    }
    let params = layers
        .iter()
        .flat_map(|l| l.w.iter().chain(&l.b).copied())
        .collect();
    Trained {
        dims,
        params,
        y_mean,
        y_std,
    }
}
