//! Overlap-aware latency prediction (§5 of the paper).
//!
//! Pipeline: [`sampling`] draws operator groups the scheduler can actually
//! produce (Fig. 9); [`profiler`] measures them on the GPU simulator
//! (§5.2's 42 000 × 100 campaign); [`features`] encodes them as Fig. 8
//! vectors; and three predictors train on the result — the paper's winning
//! 3×32 [`mlp::Mlp`] plus the [`linreg`] and [`svr`] baselines it is
//! compared against in Fig. 10. [`eval`] computes Eq. 1's MAPE and the
//! cross-validation bar; [`persist`] freezes the trained model to disk
//! (§7.8's ≈ 14 kB artifact).
//!
//! All predictors implement [`LatencyModel`], the interface the scheduler's
//! multi-way search consumes (batched prediction maps directly onto the
//! paper's "feed the duration model with batched input features").
//! [`affinity`] adds §7.8's deployment planning: overlap-hostile pairs are
//! detected from the profiling data and never deployed together.

pub mod affinity;
pub mod conformal;
pub mod dataset;
pub mod eval;
pub mod features;
pub mod linreg;
pub mod mlp;
pub mod persist;
pub mod profiler;
pub mod sampling;
pub mod svr;

pub use affinity::{
    overlap_affinity, peak_affinity, plan_service_groups, PairAffinity, NO_OVERLAP_GAIN,
};
pub use conformal::{width_of_row, ConformalModel, StratifiedConformal, CERT_TAUS};
pub use dataset::Dataset;
pub use features::{
    encode_features, encode_features_with_ops, feature_slot_of, GroupEntry, GroupSpec, FEATURE_DIM,
    MAX_COLOCATED, MODEL_SLOT_BASE, SLOT_WIDTH,
};
pub use linreg::LinearRegression;
pub use mlp::{Mlp, MlpConfig, QuantileMlp};
pub use profiler::{profile_groups, ProfiledGroup};
pub use sampling::{all_pairs, paper_multiway_sets, sample_group, sample_groups};
pub use svr::{LinearSvr, SvrConfig};

/// A trained duration model for operator groups.
pub trait LatencyModel: Send + Sync {
    /// Predict the group latency (ms) for one Fig. 8 feature vector.
    fn predict_one(&self, x: &[f64]) -> f64;

    /// Predict `n` candidates packed row-major in one contiguous buffer
    /// (`xs.len() == n * dim`), writing the `n` predictions into `out`
    /// (cleared first). This is the multi-way search hot path: the caller
    /// reuses both buffers across prediction rounds, so an implementation
    /// that overrides this can run the whole round allocation-free.
    ///
    /// The default shims each row through [`predict_one`].
    ///
    /// # Purity contract
    /// A row's prediction must be a pure function of that row: the other
    /// rows of the batch, its position in the batch and the history of
    /// earlier calls must not change a single bit of it. Callers rely on
    /// this to reuse a row's prediction instead of forwarding it again (the
    /// cluster router's score memo); `tests/batch_consistency.rs` pins it
    /// bitwise for every shipped model.
    ///
    /// # Panics
    /// Panics when `xs.len()` is not a multiple of `n`.
    ///
    /// [`predict_one`]: LatencyModel::predict_one
    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        if n == 0 {
            assert!(xs.is_empty(), "rows supplied but n == 0");
            return;
        }
        assert_eq!(
            xs.len() % n,
            0,
            "xs.len() {} not a multiple of n {n}",
            xs.len()
        );
        let dim = xs.len() / n;
        out.extend(xs.chunks_exact(dim).map(|row| self.predict_one(row)));
    }

    /// Predict a batch of candidates at once — convenience wrapper over
    /// [`predict_into`] for callers that hold row vectors.
    ///
    /// [`predict_into`]: LatencyModel::predict_into
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }

    /// Batched node-scoring entry point for cluster routing: predict `n`
    /// candidate rows in **one** [`predict_into`] forward, then scale
    /// prediction `i` by `derates[i]` — the candidate node's latency
    /// multiplier relative to the hardware this model was trained on.
    /// Scoring N heterogeneous nodes therefore costs at most one batched
    /// forward, never N scalar ones.
    ///
    /// The [`predict_into`] purity contract extends to the derated value:
    /// row `i`'s output must depend on row `i` and `derates[i]` alone.
    ///
    /// # Panics
    /// Panics when `derates.len() != n` (and, via [`predict_into`], when
    /// `xs.len()` is not a multiple of `n`).
    ///
    /// [`predict_into`]: LatencyModel::predict_into
    fn predict_derated_into(&self, xs: &[f64], n: usize, derates: &[f64], out: &mut Vec<f64>) {
        assert_eq!(derates.len(), n, "one derate per candidate row");
        self.predict_into(xs, n, out);
        for (p, &d) in out.iter_mut().zip(derates) {
            *p *= d;
        }
    }

    /// Display name for figures.
    fn name(&self) -> &'static str;
}

/// A latency model scaled by a constant factor — a reference-hardware
/// predictor viewed through a heterogeneous node's derate (e.g. the V100
/// unified MLP serving as an A100 or MIG-slice predictor). Batched calls
/// forward to the inner model unchanged, so the scaling is allocation-free
/// and preserves the inner model's one-forward batching.
pub struct DeratedModel {
    inner: std::sync::Arc<dyn LatencyModel>,
    factor: f64,
}

impl DeratedModel {
    /// Wrap `inner`, multiplying every prediction by `factor`.
    ///
    /// # Panics
    /// Panics unless `factor` is finite and positive.
    pub fn new(inner: std::sync::Arc<dyn LatencyModel>, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "derate factor must be finite and positive, got {factor}"
        );
        Self { inner, factor }
    }

    /// The scaling factor applied to the inner model's predictions.
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl LatencyModel for DeratedModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.inner.predict_one(x) * self.factor
    }

    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        self.inner.predict_into(xs, n, out);
        for p in out.iter_mut() {
            *p *= self.factor;
        }
    }

    fn name(&self) -> &'static str {
        "derated"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl LatencyModel for Doubler {
        fn predict_one(&self, x: &[f64]) -> f64 {
            2.0 * x[0]
        }
        fn name(&self) -> &'static str {
            "doubler"
        }
    }

    #[test]
    fn default_batch_maps_one_by_one() {
        let xs = vec![vec![1.0], vec![3.0]];
        assert_eq!(Doubler.predict_batch(&xs), vec![2.0, 6.0]);
    }

    #[test]
    fn derated_batch_scales_each_row() {
        let mut out = Vec::new();
        Doubler.predict_derated_into(&[1.0, 3.0, 5.0], 3, &[1.0, 2.0, 0.5], &mut out);
        assert_eq!(out, vec![2.0, 12.0, 5.0]);
        let derated = DeratedModel::new(std::sync::Arc::new(Doubler), 3.0);
        assert_eq!(derated.predict_one(&[2.0]), 12.0);
        derated.predict_into(&[1.0, 3.0], 2, &mut out);
        assert_eq!(out, vec![6.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "one derate per candidate row")]
    fn derated_batch_validates_lengths() {
        let mut out = Vec::new();
        Doubler.predict_derated_into(&[1.0, 3.0], 2, &[1.0], &mut out);
    }
}
