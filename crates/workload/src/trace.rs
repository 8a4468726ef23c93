//! Time-varying rate traces.
//!
//! Fig. 22 of the paper replays two hours of the Microsoft Azure Functions
//! (MAF) production trace against a 16-GPU cluster. The production trace is
//! not redistributable, so [`synthesize_maf_like`] builds a trace with the
//! same qualitative features reported for MAF workloads (diurnal ramp,
//! sustained plateau, short bursts, heavy minute-to-minute jitter); see
//! DESIGN.md §1 for the substitution rationale. [`RateTrace`] turns any
//! per-minute rate series into a concrete arrival stream via a piecewise
//! homogeneous Poisson process.

use crate::arrivals::Arrival;
use crate::dist::Exponential;
use crate::rng::SeededRng;

/// A bucketed offered-load trace (queries per second, one entry per
/// bucket). [`RateTrace::new`] builds the paper's per-minute form;
/// [`RateTrace::with_bucket_ms`] supports sub-minute buckets for burst
/// replays (e.g. the cluster ingress bench's ~1s 100x-volume spike).
#[derive(Debug, Clone, PartialEq)]
pub struct RateTrace {
    qps_per_bucket: Vec<f64>,
    bucket_ms: f64,
}

impl RateTrace {
    /// Build a trace from explicit per-minute QPS values.
    ///
    /// # Panics
    /// Panics if any rate is negative or non-finite.
    pub fn new(qps_per_minute: Vec<f64>) -> Self {
        Self::with_bucket_ms(qps_per_minute, 60_000.0)
    }

    /// Build a trace with an explicit bucket duration in milliseconds.
    ///
    /// # Panics
    /// Panics if any rate is negative/non-finite or the bucket is not a
    /// positive finite duration.
    pub fn with_bucket_ms(qps_per_bucket: Vec<f64>, bucket_ms: f64) -> Self {
        assert!(
            qps_per_bucket.iter().all(|&q| q >= 0.0 && q.is_finite()),
            "rates must be non-negative"
        );
        assert!(
            bucket_ms.is_finite() && bucket_ms > 0.0,
            "bucket must be a positive duration"
        );
        Self {
            qps_per_bucket,
            bucket_ms,
        }
    }

    /// Bucket duration in milliseconds (60 000 for [`RateTrace::new`]).
    pub fn bucket_ms(&self) -> f64 {
        self.bucket_ms
    }

    /// Number of rate buckets.
    pub fn buckets(&self) -> usize {
        self.qps_per_bucket.len()
    }

    /// Offered load at absolute time `t_ms`, clamped to the final bucket
    /// past the horizon (zero for an empty trace).
    pub fn qps_at_ms(&self, t_ms: f64) -> f64 {
        if self.qps_per_bucket.is_empty() {
            return 0.0;
        }
        let b = ((t_ms.max(0.0) / self.bucket_ms) as usize).min(self.qps_per_bucket.len() - 1);
        self.qps_per_bucket[b]
    }

    /// Number of buckets covered (minutes for [`RateTrace::new`] traces).
    pub fn minutes(&self) -> usize {
        self.qps_per_bucket.len()
    }

    /// Total duration in milliseconds.
    pub fn horizon_ms(&self) -> f64 {
        self.buckets() as f64 * self.bucket_ms
    }

    /// Per-bucket rates as a slice.
    pub fn rates(&self) -> &[f64] {
        &self.qps_per_bucket
    }

    /// Scale every rate by `factor` (e.g. to split a cluster trace across
    /// nodes or calibrate to simulated capacity).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0 && factor.is_finite());
        Self {
            qps_per_bucket: self.qps_per_bucket.iter().map(|q| q * factor).collect(),
            bucket_ms: self.bucket_ms,
        }
    }

    /// Realise the trace as arrivals for service `service`: a piecewise
    /// homogeneous Poisson process, rate held constant within each minute.
    pub fn generate(&self, service: usize, rng: &mut SeededRng) -> Vec<Arrival> {
        let mut out = Vec::new();
        for (m, &qps) in self.qps_per_bucket.iter().enumerate() {
            if qps <= 0.0 {
                continue;
            }
            let start = m as f64 * self.bucket_ms;
            let end = start + self.bucket_ms;
            let inter = Exponential::new(qps / 1000.0);
            let mut t = start;
            loop {
                t += inter.sample(rng);
                if t >= end {
                    break;
                }
                out.push(Arrival { service, at_ms: t });
            }
        }
        out
    }
}

/// Synthesize a MAF-like per-minute trace.
///
/// Shape: a baseline load that ramps up over the first quarter of the trace
/// (diurnal rise), holds a plateau with slow sinusoidal drift, and overlays
/// (a) per-minute lognormal-ish jitter and (b) occasional multi-minute
/// bursts, mirroring the burstiness of serverless invocation traces.
///
/// * `minutes` — trace length (the paper replays 120 minutes)
/// * `peak_qps` — plateau offered load
/// * `seed` — RNG seed
pub fn synthesize_maf_like(minutes: usize, peak_qps: f64, seed: u64) -> RateTrace {
    assert!(peak_qps > 0.0);
    let mut rng = SeededRng::new(seed);
    let ramp = (minutes / 4).max(1);
    let mut rates = Vec::with_capacity(minutes);
    let mut burst_left = 0usize;
    let mut burst_gain = 1.0;
    for m in 0..minutes {
        // Diurnal ramp to the plateau, then gentle drift.
        let base = if m < ramp {
            0.55 + 0.45 * (m as f64 / ramp as f64)
        } else {
            1.0 + 0.06 * ((m as f64 / 17.0).sin())
        };
        // Bursts: ~5% chance per minute to start a 2–5 minute burst of
        // 15–35% extra load.
        if burst_left == 0 && rng.bool(0.05) {
            burst_left = 2 + rng.index(4);
            burst_gain = 1.15 + 0.20 * rng.f64();
        }
        let burst = if burst_left > 0 {
            burst_left -= 1;
            burst_gain
        } else {
            1.0
        };
        // Minute-to-minute jitter of roughly ±6%.
        let jitter = 1.0 + 0.06 * rng.normal();
        rates.push((peak_qps * base * burst * jitter).max(0.0));
    }
    RateTrace::new(rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maf_trace_shape() {
        let t = synthesize_maf_like(120, 100.0, 7);
        assert_eq!(t.minutes(), 120);
        // Ramp: early load clearly below plateau.
        let early: f64 = t.rates()[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = t.rates()[60..120].iter().sum::<f64>() / 60.0;
        assert!(early < 0.85 * late, "early {early} late {late}");
        // Plateau sits near peak_qps.
        assert!((late - 100.0).abs() < 15.0, "late {late}");
    }

    #[test]
    fn trace_generation_matches_rates() {
        let t = RateTrace::new(vec![10.0, 100.0]);
        let mut rng = SeededRng::new(8);
        // Average over repeats to dampen Poisson noise.
        let mut counts = [0usize; 2];
        for rep in 0..20 {
            let mut r = SeededRng::new(8 + rep);
            for a in t.generate(0, &mut r) {
                let minute = (a.at_ms / 60_000.0) as usize;
                counts[minute] += 1;
            }
        }
        let per_min0 = counts[0] as f64 / 20.0;
        let per_min1 = counts[1] as f64 / 20.0;
        assert!((per_min0 - 600.0).abs() < 80.0, "min0 {per_min0}");
        assert!((per_min1 - 6000.0).abs() < 300.0, "min1 {per_min1}");
        let _ = rng.f64();
    }

    #[test]
    fn zero_rate_minute_generates_nothing() {
        let t = RateTrace::new(vec![0.0, 0.0]);
        let mut rng = SeededRng::new(9);
        assert!(t.generate(0, &mut rng).is_empty());
    }

    #[test]
    fn scaled_trace() {
        let t = RateTrace::new(vec![10.0, 20.0]).scaled(0.5);
        assert_eq!(t.rates(), &[5.0, 10.0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = synthesize_maf_like(60, 50.0, 1);
        let b = synthesize_maf_like(60, 50.0, 1);
        assert_eq!(a, b);
    }
}
