//! Deterministic streaming quantile sketch.
//!
//! A fixed-shape, mergeable counting sketch over non-negative `f64`
//! observations (latencies, queue delays — all the quantities this repo
//! reports percentiles of). The design goals, in order:
//!
//! 1. **Determinism.** Bucketing is a pure function of the value's IEEE-754
//!    bit pattern — no RNG, no data-dependent compaction, no allocation
//!    after construction. The same multiset of observations produces the
//!    same sketch bytes regardless of arrival order or host.
//! 2. **Bitwise-associative merge.** The sketch deliberately carries *no*
//!    floating-point accumulator (no running sum/mean): its state is bucket
//!    counts (`u64`), a total count, and min/max. Merging is integer
//!    addition plus min/max folds, so `(a ⊎ b) ⊎ c == a ⊎ (b ⊎ c)` holds
//!    bit for bit — pinned by proptests. (Means come from the exact
//!    running sums the recorders already keep.)
//! 3. **Bounded relative error.** Buckets are log-linear: one octave
//!    (power of two) is split into `2^SUB_BITS = 32` equal-width
//!    sub-buckets taken straight from the top mantissa bits. Adjacent
//!    bucket edges are at most a factor `1 + 1/32` apart, so a reported
//!    quantile overshoots the true order statistic by at most
//!    [`QuantileSketch::RELATIVE_ERROR`] ≈ 3.125% (and never undershoots).
//!
//! The shape is fixed at `40 octaves × 32 sub-buckets` covering
//! `[2⁻²⁰, 2²⁰)` ms (≈ 1 ns to ≈ 17.5 min) plus an underflow and an
//! overflow bucket — 1282 `u64`s, ~10 KiB per sketch.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Smallest bucketed exponent: values below `2^MIN_EXP` underflow.
const MIN_EXP: i32 = -20;
/// One past the largest bucketed exponent: values at or above `2^MAX_EXP`
/// overflow.
const MAX_EXP: i32 = 20;
/// Log-linear buckets between the underflow and overflow buckets.
const LOG_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) << SUB_BITS;
/// Total buckets: underflow + log-linear + overflow.
const BUCKETS: usize = LOG_BUCKETS + 2;

/// A deterministic, mergeable, fixed-shape quantile sketch. See module
/// docs for the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Worst-case relative overshoot of a reported quantile against the
    /// true order statistic (one sub-bucket's relative width).
    pub const RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;

    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index of `v`: underflow (0) for zero / negative / non-finite
    /// / sub-`2^MIN_EXP` values, overflow (`BUCKETS-1`) past `2^MAX_EXP`,
    /// log-linear in between — exponent and top mantissa bits, nothing
    /// else.
    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0;
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
        if exp < MIN_EXP {
            return 0;
        }
        if exp >= MAX_EXP {
            return BUCKETS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        1 + (((exp - MIN_EXP) as usize) << SUB_BITS) + sub
    }

    /// Upper edge of log-linear bucket `idx` (`1..=LOG_BUCKETS`), exact in
    /// f64: `2^e · (1 + (sub+1)/32)`, built from bits so the `sub+1 == 32`
    /// carry lands exactly on the next octave boundary.
    fn bucket_upper(idx: usize) -> f64 {
        let i = idx - 1;
        let exp = MIN_EXP + (i >> SUB_BITS) as i32;
        let sub = (i & (SUBS - 1)) as u64;
        f64::from_bits((((exp + 1023) as u64) << 52) + ((sub + 1) << (52 - SUB_BITS)))
    }

    /// Record one observation. Observations are expected to be finite and
    /// non-negative; anything else lands in the underflow bucket.
    pub fn record(&mut self, v: f64) {
        debug_assert!(
            v.is_finite() && v >= 0.0,
            "sketch observations must be finite and non-negative: {v}"
        );
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.counts[Self::bucket_of(v)] += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`), 0 when empty.
    ///
    /// Returns the upper edge of the bucket holding the rank-`⌈p/100·n⌉`
    /// order statistic, clamped into `[min, max]`: the result is `≥` the
    /// true order statistic and at most `RELATIVE_ERROR` above it.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen >= target {
                if b == 0 {
                    return self.min;
                }
                if b == BUCKETS - 1 {
                    return self.max;
                }
                return Self::bucket_upper(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another sketch into this one. Pure integer addition plus
    /// min/max folds — bitwise associative and commutative (pinned by
    /// proptests), so parallel shards can be combined in any grouping.
    pub fn merge(&mut self, other: &Self) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_is_zero() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.quantile(50.0), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_observation_is_exact() {
        // min/max clamping makes any single-value sketch exact.
        for v in [1.0, 0.37, 123.456, 1e-9, 1e7] {
            let mut s = QuantileSketch::new();
            s.record(v);
            assert_eq!(s.quantile(50.0), v, "value {v}");
            assert_eq!(s.quantile(100.0), v, "value {v}");
        }
    }

    #[test]
    fn zero_lands_in_underflow_and_reports_min() {
        let mut s = QuantileSketch::new();
        s.record(0.0);
        s.record(5.0);
        assert_eq!(s.quantile(40.0), 0.0);
        assert!(s.quantile(99.0) >= 5.0);
    }

    #[test]
    fn overflow_reports_observed_max() {
        let mut s = QuantileSketch::new();
        s.record(3.0e6); // past 2^20 ms
        s.record(1.0);
        assert_eq!(s.quantile(99.0), 3.0e6);
    }

    #[test]
    fn quantile_overshoot_is_bounded() {
        let mut s = QuantileSketch::new();
        let vals: Vec<f64> = (1..=1000).map(|i| (i as f64) * 0.173).collect();
        for &v in &vals {
            s.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank - 1];
            let est = s.quantile(p);
            assert!(est >= exact, "p{p}: {est} < {exact}");
            assert!(
                est <= exact * (1.0 + QuantileSketch::RELATIVE_ERROR),
                "p{p}: {est} overshoots {exact}"
            );
        }
    }

    #[test]
    fn order_invariance() {
        let vals: Vec<f64> = (0..500)
            .map(|i| ((i * 37) % 499) as f64 * 0.11 + 0.01)
            .collect();
        let mut fwd = QuantileSketch::new();
        let mut rev = QuantileSketch::new();
        for &v in &vals {
            fwd.record(v);
        }
        for &v in vals.iter().rev() {
            rev.record(v);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn merge_matches_sequential_feed() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut whole = QuantileSketch::new();
        for i in 0..100 {
            let v = (i as f64).mul_add(0.77, 0.3);
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn bucket_upper_carries_into_next_octave() {
        // The last sub-bucket's upper edge is exactly the next power of two.
        let idx = QuantileSketch::bucket_of(1.99); // top sub-bucket of [1, 2)
        assert_eq!(QuantileSketch::bucket_upper(idx), 2.0);
        // An exact power of two starts its own octave.
        let idx2 = QuantileSketch::bucket_of(2.0);
        assert_eq!(idx2, idx + 1);
        assert_eq!(QuantileSketch::bucket_upper(idx2), 2.0 + 2.0 / 32.0);
    }
}
