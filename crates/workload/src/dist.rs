//! Distribution samplers used across the evaluation.
//!
//! The paper's load generator draws query arrivals from a Poisson process
//! (exponential inter-arrival times), and the GPU simulator applies lognormal
//! multiplicative noise to reproduce the latency determinism statistics of
//! §5.2. These samplers are implemented here rather than pulling in
//! `rand_distr` (see DESIGN.md §5).

use crate::rng::SeededRng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for Poisson-process inter-arrival times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create a sampler with the given rate (events per unit time).
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "rate must be positive");
        Self { lambda }
    }

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draw one sample via inverse transform.
    #[inline]
    pub fn sample(&self, rng: &mut SeededRng) -> f64 {
        // 1 - U in (0, 1] avoids ln(0).
        -(1.0 - rng.f64()).ln() / self.lambda
    }
}

/// Lognormal distribution: `exp(N(mu, sigma^2))`.
///
/// The GPU simulator uses `LogNormal::noise(sigma)` — a unit-median
/// multiplicative jitter — to model run-to-run latency variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be non-negative");
        Self { mu, sigma }
    }

    /// Unit-median multiplicative noise with the given log-scale `sigma`.
    pub fn noise(sigma: f64) -> Self {
        Self::new(0.0, sigma)
    }

    /// Draw one sample.
    #[inline]
    pub fn sample(&self, rng: &mut SeededRng) -> f64 {
        (self.mu + self.sigma * rng.normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SeededRng::new(1);
        let d = Exponential::new(4.0);
        let samples: Vec<f64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let mean = mean_of(&samples);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn lognormal_noise_has_unit_median() {
        let mut rng = SeededRng::new(3);
        let d = LogNormal::noise(0.04);
        let mut samples: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.01, "median {median}");
        // 4% log-sigma means nearly all mass within ±20%.
        assert!(samples.iter().all(|&x| x > 0.8 && x < 1.25));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = Exponential::new(0.0);
    }
}
