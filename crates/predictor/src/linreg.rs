//! Ridge linear regression — the paper's "LR" baseline predictor (§5.5).
//!
//! Solved in closed form via the normal equations `(XᵀX + λI) w = Xᵀy`
//! with a bias column, using an in-house Gaussian elimination with partial
//! pivoting (the feature dimension is 23, so a dense solve is trivial).

use crate::dataset::Dataset;
use crate::LatencyModel;

/// A fitted ridge regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    /// Weights, one per feature.
    w: Vec<f64>,
    /// Intercept.
    b: f64,
}

impl LinearRegression {
    /// Fit with ridge penalty `lambda` (not applied to the bias).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, lambda: f64) -> LinearRegression {
        assert!(!data.is_empty(), "cannot fit an empty dataset");
        let d = data.dim();
        let n = d + 1; // bias column appended
                       // Build A = XᵀX + λI and rhs = Xᵀy over the augmented features.
        let mut a = vec![0.0; n * n];
        let mut rhs = vec![0.0; n];
        for (x, &y) in data.x.iter().zip(&data.y) {
            for i in 0..n {
                let xi = if i < d { x[i] } else { 1.0 };
                rhs[i] += xi * y;
                for j in i..n {
                    let xj = if j < d { x[j] } else { 1.0 };
                    a[i * n + j] += xi * xj;
                }
            }
        }
        // Mirror the upper triangle and add the ridge term.
        for i in 0..n {
            for j in 0..i {
                a[i * n + j] = a[j * n + i];
            }
            if i < d {
                a[i * n + i] += lambda;
            }
        }
        let sol = solve(&mut a, &mut rhs, n);
        LinearRegression {
            w: sol[..d].to_vec(),
            b: sol[d],
        }
    }

    /// Fitted weights.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.b
    }
}

/// Solve `A x = b` in place by Gaussian elimination with partial pivoting.
fn solve(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for r in (col + 1)..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if piv != col {
            for j in 0..n {
                a.swap(col * n + j, piv * n + j);
            }
            b.swap(col, piv);
        }
        let diag = a[col * n + col];
        assert!(
            diag.abs() > 1e-12,
            "singular system (add ridge regularisation)"
        );
        for r in (col + 1)..n {
            let f = a[r * n + col] / diag;
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                a[r * n + j] -= f * a[col * n + j];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc -= a[i * n + j] * x[j];
        }
        x[i] = acc / a[i * n + i];
    }
    x
}

impl LatencyModel for LinearRegression {
    fn predict_one(&self, x: &[f64]) -> f64 {
        let mut acc = self.b;
        for (wi, xi) in self.w.iter().zip(x) {
            acc += wi * xi;
        }
        acc.max(0.0)
    }

    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        if n == 0 {
            assert!(xs.is_empty(), "rows supplied but n == 0");
            return;
        }
        assert_eq!(xs.len(), n * self.w.len(), "feature dimension mismatch");
        // One batch × dim mat-vec against the weight vector: y = X·w + b.
        for row in xs.chunks_exact(self.w.len()) {
            let mut acc = self.b;
            for (wi, xi) in self.w.iter().zip(row) {
                acc += wi * xi;
            }
            out.push(acc.max(0.0));
        }
    }

    fn name(&self) -> &'static str {
        "Linear Regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::SeededRng;

    #[test]
    fn recovers_exact_linear_function() {
        let mut rng = SeededRng::new(1);
        let mut d = Dataset::new();
        for _ in 0..500 {
            let x = vec![rng.f64(), rng.f64(), rng.f64()];
            let y = 5.0 + 2.0 * x[0] - 3.0 * x[1] + 0.5 * x[2];
            d.push(x, y);
        }
        let lr = LinearRegression::fit(&d, 1e-9);
        assert!((lr.intercept() - 5.0).abs() < 1e-6);
        assert!((lr.weights()[0] - 2.0).abs() < 1e-6);
        assert!((lr.weights()[1] + 3.0).abs() < 1e-6);
        assert!((lr.weights()[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let mut rng = SeededRng::new(2);
        let mut d = Dataset::new();
        for _ in 0..100 {
            let x = vec![rng.f64()];
            d.push(x.clone(), 10.0 * x[0]);
        }
        let loose = LinearRegression::fit(&d, 1e-9);
        let tight = LinearRegression::fit(&d, 100.0);
        assert!(tight.weights()[0].abs() < loose.weights()[0].abs());
    }

    #[test]
    fn underdetermined_with_ridge_is_stable() {
        // 2 samples, 5 features: singular without the ridge term.
        let mut d = Dataset::new();
        d.push(vec![1.0, 0.0, 0.0, 0.0, 0.0], 1.0);
        d.push(vec![0.0, 1.0, 0.0, 0.0, 0.0], 2.0);
        let lr = LinearRegression::fit(&d, 1e-3);
        assert!(lr.predict_one(&[1.0, 0.0, 0.0, 0.0, 0.0]).is_finite());
    }

    #[test]
    fn cannot_fit_nonlinearity() {
        // The reason MLP wins in Fig. 10: y = x0^2 has high linear error.
        let mut rng = SeededRng::new(3);
        let mut d = Dataset::new();
        for _ in 0..1000 {
            let x = rng.range_f64(0.0, 2.0);
            d.push(vec![x], 10.0 * x * x);
        }
        let lr = LinearRegression::fit(&d, 1e-6);
        let mape = crate::eval::mape(&lr, &d);
        assert!(mape > 0.15, "mape {mape}");
    }
}
