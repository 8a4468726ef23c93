//! Training datasets: (feature vector, measured latency) pairs.

use crate::profiler::ProfiledGroup;
use dnn_models::ModelLibrary;
use workload::SeededRng;

/// A supervised dataset of operator-group latencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Feature vectors (all the same dimension).
    pub x: Vec<Vec<f64>>,
    /// Target latencies, ms.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode profiled groups into a dataset (target = mean latency).
    pub fn from_profiles(profiles: &[ProfiledGroup], lib: &ModelLibrary) -> Self {
        let mut d = Self::new();
        for p in profiles {
            d.push(p.spec.features(lib), p.mean_ms);
        }
        d
    }

    /// Append one sample.
    pub fn push(&mut self, x: Vec<f64>, y: f64) {
        if let Some(first) = self.x.first() {
            assert_eq!(first.len(), x.len(), "inconsistent feature dimension");
        }
        self.x.push(x);
        self.y.push(y);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimension (0 if empty).
    pub fn dim(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// Merge another dataset into this one.
    pub fn extend(&mut self, other: Dataset) {
        for (x, y) in other.x.into_iter().zip(other.y) {
            self.push(x, y);
        }
    }

    /// Shuffle and split into (train, test) with `train_frac` of the samples
    /// in the training set (the paper uses 80/20, §5.5).
    pub fn split(&self, train_frac: f64, rng: &mut SeededRng) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac));
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let n_train = (self.len() as f64 * train_frac).round() as usize;
        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for (pos, &i) in idx.iter().enumerate() {
            let target = if pos < n_train { &mut train } else { &mut test };
            target.push(self.x[i].clone(), self.y[i]);
        }
        (train, test)
    }

    /// K-fold partitions for cross-validation: returns `k` (train, test)
    /// pairs covering every sample exactly once as test data.
    pub fn kfold(&self, k: usize, rng: &mut SeededRng) -> Vec<(Dataset, Dataset)> {
        assert!(k >= 2 && k <= self.len(), "need 2 <= k <= n");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let mut folds = Vec::with_capacity(k);
        for f in 0..k {
            let mut train = Dataset::new();
            let mut test = Dataset::new();
            for (pos, &i) in idx.iter().enumerate() {
                let target = if pos % k == f { &mut test } else { &mut train };
                target.push(self.x[i].clone(), self.y[i]);
            }
            folds.push((train, test));
        }
        folds
    }

    /// Mean of the targets.
    pub fn y_mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.y.iter().sum::<f64>() / self.len() as f64
    }

    /// Standard deviation of the targets.
    pub fn y_std(&self) -> f64 {
        if self.len() < 2 {
            return 1.0;
        }
        let m = self.y_mean();
        (self.y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.len() as f64)
            .sqrt()
            .max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n {
            d.push(vec![i as f64, 1.0], i as f64 * 2.0);
        }
        d
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy(100);
        let mut rng = SeededRng::new(1);
        let (tr, te) = d.split(0.8, &mut rng);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
        let mut ys: Vec<f64> = tr.y.iter().chain(te.y.iter()).copied().collect();
        ys.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(ys, d.y);
    }

    #[test]
    fn kfold_covers_everything_once() {
        let d = toy(50);
        let mut rng = SeededRng::new(2);
        let folds = d.kfold(5, &mut rng);
        assert_eq!(folds.len(), 5);
        let mut test_total = 0;
        for (tr, te) in &folds {
            assert_eq!(tr.len() + te.len(), 50);
            test_total += te.len();
        }
        assert_eq!(test_total, 50);
    }

    #[test]
    fn stats() {
        let d = toy(5); // y = 0,2,4,6,8
        assert!((d.y_mean() - 4.0).abs() < 1e-12);
        assert!((d.y_std() - 8.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature dimension")]
    fn dimension_mismatch_panics() {
        let mut d = toy(2);
        d.push(vec![1.0], 0.0);
    }
}
