//! Distribution samplers used across the evaluation.
//!
//! The paper's load generator draws query arrivals from a Poisson process
//! (exponential inter-arrival times). The sampler is implemented here
//! rather than pulling in `rand_distr` (see DESIGN.md §5). The GPU
//! simulator's lognormal latency noise is counter-based and lives in
//! `gpu_sim::noise`.

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
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = Exponential::new(0.0);
    }
}
