//! Instance-based sampling of operator groups (Fig. 9, §5.4).
//!
//! Naively sampling all `(op_start, op_end, bs, seqlen)^k` combinations
//! explodes; the paper instead samples only groups that *can occur* under
//! Abacus's two scheduling invariants:
//!
//! 1. at least one query completes in every group (the query whose QoS the
//!    round guarantees runs to its last operator), and
//! 2. a newly-arrived query enters a group at its first operator.
//!
//! [`sample_group`] draws one such group for a given co-location set:
//! it picks a non-empty subset of "completing" models (`op_end = n`), an
//! independent subset of "new" models (`op_start = 0`), randomises the
//! remaining endpoints, and randomises each query's input per Table 1.

use crate::features::{GroupEntry, GroupSpec};
use dnn_models::{ModelId, ModelLibrary};
use workload::SeededRng;

/// Draw one instance-based operator-group sample over `models`.
///
/// `models` must contain 1–4 distinct models.
pub fn sample_group(models: &[ModelId], lib: &ModelLibrary, rng: &mut SeededRng) -> GroupSpec {
    assert!(!models.is_empty() && models.len() <= crate::features::MAX_COLOCATED);
    // Step 1: at least one model completes in this group.
    let mut completes = vec![false; models.len()];
    completes[rng.index(models.len())] = true;
    for c in completes.iter_mut() {
        if rng.bool(0.5) {
            *c = true;
        }
    }
    // Step 2: an independent subset is newly arrived (starts at op 0).
    let news: Vec<bool> = models.iter().map(|_| rng.bool(0.5)).collect();

    let entries = models
        .iter()
        .zip(completes.iter().zip(news.iter()))
        .map(|(&model, (&completed, &new))| {
            let input = lib.random_input(model, rng);
            let n = lib.graph(model, input).len();
            // Step 3: randomise whatever steps 1–2 left free.
            let op_start = if new { 0 } else { rng.index(n) };
            let op_end = if completed {
                n
            } else {
                // At least one operator: end in (start, n].
                op_start + 1 + rng.index(n - op_start)
            };
            GroupEntry {
                model,
                op_start,
                op_end,
                input,
            }
        })
        .collect();
    GroupSpec::new(entries, lib)
}

/// Draw `count` samples for one co-location set.
pub fn sample_groups(
    models: &[ModelId],
    count: usize,
    lib: &ModelLibrary,
    seed: u64,
) -> Vec<GroupSpec> {
    let mut rng = SeededRng::new(seed);
    (0..count)
        .map(|_| sample_group(models, lib, &mut rng))
        .collect()
}

/// All `C(7,2) = 21` pair-wise co-location sets over the paper's Table 1
/// models, in the figure order. (The LSTM extension model is excluded —
/// the paper's evaluation serves only the seven Table 1 models.)
pub fn all_pairs() -> Vec<[ModelId; 2]> {
    let models = ModelId::PAPER_MODELS;
    let mut out = Vec::with_capacity(21);
    for i in 0..models.len() {
        for j in (i + 1)..models.len() {
            out.push([models[i], models[j]]);
        }
    }
    out
}

/// The five triplet/quadruplet deployments of §7.4 (Figs. 18–19).
pub fn paper_multiway_sets() -> Vec<Vec<ModelId>> {
    use ModelId::*;
    vec![
        vec![ResNet101, ResNet152, Vgg19, Bert],
        vec![ResNet101, ResNet152, Vgg19],
        vec![ResNet101, ResNet152, Bert],
        vec![ResNet101, Vgg19, Bert],
        vec![ResNet152, Vgg19, Bert],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_enumeration() {
        let pairs = all_pairs();
        assert_eq!(pairs.len(), 21);
        // First and last match the paper's figure ordering.
        assert_eq!(pairs[0], [ModelId::ResNet50, ModelId::ResNet101]);
        assert_eq!(pairs[20], [ModelId::Vgg19, ModelId::Bert]);
    }

    #[test]
    fn samples_respect_invariants() {
        let lib = ModelLibrary::new();
        let models = [ModelId::ResNet50, ModelId::Bert];
        let groups = sample_groups(&models, 500, &lib, 42);
        for g in &groups {
            assert_eq!(g.entries.len(), 2);
            // Invariant 1: at least one query completes.
            let any_complete = g
                .entries
                .iter()
                .any(|e| e.op_end == lib.graph(e.model, e.input).len());
            assert!(any_complete, "{g:?}");
            // Every entry schedules at least one operator.
            assert!(g.entries.iter().all(|e| !e.is_empty()));
        }
        // Coverage: both "new" and "resumed" starts occur.
        assert!(groups.iter().any(|g| g.entries[0].op_start == 0));
        assert!(groups.iter().any(|g| g.entries[0].op_start > 0));
    }

    #[test]
    fn inputs_cover_table1() {
        let lib = ModelLibrary::new();
        let groups = sample_groups(&[ModelId::Bert], 400, &lib, 7);
        let mut batches = std::collections::HashSet::new();
        let mut seqs = std::collections::HashSet::new();
        for g in &groups {
            batches.insert(g.entries[0].input.batch);
            seqs.insert(g.entries[0].input.seq);
        }
        assert_eq!(batches.len(), 4);
        assert_eq!(seqs.len(), 4);
    }

    #[test]
    fn sampling_is_deterministic() {
        let lib = ModelLibrary::new();
        let models = [ModelId::Vgg16, ModelId::InceptionV3];
        let a = sample_groups(&models, 50, &lib, 9);
        let b = sample_groups(&models, 50, &lib, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn quadruplet_sampling_works() {
        let lib = ModelLibrary::new();
        let sets = paper_multiway_sets();
        assert_eq!(sets.len(), 5);
        assert_eq!(sets[0].len(), 4);
        let g = sample_groups(&sets[0], 20, &lib, 1);
        assert!(g.iter().all(|g| g.entries.len() == 4));
    }
}
