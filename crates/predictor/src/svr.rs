//! Linear ε-insensitive support vector regression — the paper's "SVM"
//! baseline predictor (§5.5, LIBSVM in the original).
//!
//! Trained in the primal with stochastic sub-gradient descent on
//!
//! ```text
//! L(w, b) = λ/2 ‖w‖² + (1/n) Σ max(0, |w·xᵢ + b − yᵢ| − ε)
//! ```
//!
//! over standardised targets. Like LR it is fundamentally linear in the
//! Fig. 8 features, which is why both trail the MLP by 4–6× in Fig. 10.

use crate::dataset::Dataset;
use crate::LatencyModel;
use workload::SeededRng;

/// SVR hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SvrConfig {
    /// ε of the insensitive tube, in standardised-target units.
    pub epsilon: f64,
    /// Ridge coefficient λ.
    pub lambda: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate (decayed 1/√t).
    pub lr: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SvrConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            lambda: 1e-4,
            epochs: 60,
            lr: 0.05,
            seed: 0xC0DE,
        }
    }
}

/// A fitted linear ε-SVR.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvr {
    w: Vec<f64>,
    b: f64,
    y_mean: f64,
    y_std: f64,
}

impl LinearSvr {
    /// Fit on `data`.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, cfg: &SvrConfig) -> LinearSvr {
        assert!(!data.is_empty(), "cannot fit an empty dataset");
        let d = data.dim();
        let y_mean = data.y_mean();
        let y_std = data.y_std();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut rng = SeededRng::new(cfg.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut t = 0usize;
        for _ in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                t += 1;
                let lr = cfg.lr / (1.0 + (t as f64).sqrt() * 1e-2);
                let x = &data.x[i];
                let y = (data.y[i] - y_mean) / y_std;
                let pred: f64 = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                let err = pred - y;
                // Sub-gradient of the ε-insensitive loss.
                let g = if err > cfg.epsilon {
                    1.0
                } else if err < -cfg.epsilon {
                    -1.0
                } else {
                    0.0
                };
                for (wi, xi) in w.iter_mut().zip(x) {
                    *wi -= lr * (g * xi + cfg.lambda * *wi);
                }
                b -= lr * g;
            }
        }
        LinearSvr {
            w,
            b,
            y_mean,
            y_std,
        }
    }
}

impl LatencyModel for LinearSvr {
    fn predict_one(&self, x: &[f64]) -> f64 {
        let z: f64 = self.w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + self.b;
        (z * self.y_std + self.y_mean).max(0.0)
    }

    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        if n == 0 {
            assert!(xs.is_empty(), "rows supplied but n == 0");
            return;
        }
        assert_eq!(xs.len(), n * self.w.len(), "feature dimension mismatch");
        // One batch × dim mat-vec: z = X·w + b, destandardised per row.
        for row in xs.chunks_exact(self.w.len()) {
            let z: f64 = self.w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>() + self.b;
            out.push((z * self.y_std + self.y_mean).max(0.0));
        }
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_data_within_tube() {
        let mut rng = SeededRng::new(1);
        let mut d = Dataset::new();
        for _ in 0..800 {
            let x = vec![rng.f64(), rng.f64()];
            d.push(x.clone(), 20.0 + 8.0 * x[0] - 4.0 * x[1]);
        }
        let svr = LinearSvr::fit(&d, &SvrConfig::default());
        let mape = crate::eval::mape(&svr, &d);
        assert!(mape < 0.08, "mape {mape}");
    }

    #[test]
    fn deterministic() {
        let mut rng = SeededRng::new(2);
        let mut d = Dataset::new();
        for _ in 0..100 {
            let x = vec![rng.f64()];
            d.push(x.clone(), x[0] * 3.0);
        }
        let a = LinearSvr::fit(&d, &SvrConfig::default());
        let b = LinearSvr::fit(&d, &SvrConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn robust_to_outliers_vs_unregularised_target() {
        // The ε-insensitive loss should not chase a single wild outlier.
        let mut d = Dataset::new();
        for i in 0..100 {
            let x = i as f64 / 100.0;
            d.push(vec![x], 10.0 * x);
        }
        d.push(vec![0.5], 500.0); // outlier
        let svr = LinearSvr::fit(&d, &SvrConfig::default());
        let at_half = svr.predict_one(&[0.5]);
        assert!((at_half - 5.0).abs() < 2.0, "pred {at_half}");
    }

    #[test]
    fn predictions_non_negative() {
        let mut d = Dataset::new();
        d.push(vec![0.0], 1.0);
        d.push(vec![1.0], 2.0);
        let svr = LinearSvr::fit(&d, &SvrConfig::default());
        assert!(svr.predict_one(&[-50.0]) >= 0.0);
    }
}
