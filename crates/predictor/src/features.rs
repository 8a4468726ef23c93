//! Fig. 8 feature encoding for operator groups.
//!
//! A sample describes one *operator group*: up to [`MAX_COLOCATED`] queries,
//! each contributing a contiguous operator range `[op_start, op_end)` of its
//! model. The feature vector is
//!
//! ```text
//! [ model multi-hot | slot0: ops, ope, bs, seqlen | slot1 | slot2 | slot3 ]
//! ```
//!
//! with slots filled in model-index order (the paper's "Model 4, Model 7"
//! layout), operator indices normalised by the model's operator count, batch
//! by 32 and sequence length by 64. Empty slots are zero. One fixed layout
//! serves pairs, triplets and quadruplets, which is what lets Abacus train a
//! *single* unified duration model (§4).

use dnn_models::{ModelId, ModelLibrary, QueryInput, MODEL_COUNT};

/// Maximum number of co-located services in one operator group
/// (the paper evaluates up to quadruplet-wise deployment).
pub const MAX_COLOCATED: usize = 4;

/// Features per slot: start op, end op, batch size, sequence length.
pub const SLOT_WIDTH: usize = 4;

/// Offset of the first slot: the multi-hot model bitmap comes first.
pub const MODEL_SLOT_BASE: usize = MODEL_COUNT;

/// Total feature dimension.
pub const FEATURE_DIM: usize = MODEL_SLOT_BASE + MAX_COLOCATED * SLOT_WIDTH;

/// One query's contribution to an operator group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupEntry {
    /// Which model the query belongs to.
    pub model: ModelId,
    /// First operator (inclusive) scheduled in this group.
    pub op_start: usize,
    /// Last operator (exclusive).
    pub op_end: usize,
    /// The query's input.
    pub input: QueryInput,
}

impl GroupEntry {
    /// Number of operators this entry schedules.
    pub fn len(&self) -> usize {
        self.op_end - self.op_start
    }

    /// True when the entry schedules no operators.
    pub fn is_empty(&self) -> bool {
        self.op_end == self.op_start
    }
}

/// A full operator group: the unit both the profiler measures and the
/// predictor scores.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Entries, at most [`MAX_COLOCATED`], with pairwise-distinct models
    /// (each service processes one query at a time).
    pub entries: Vec<GroupEntry>,
}

/// Write the Fig. 8 feature vector for `entries` into `out` without
/// allocating. `out` must hold exactly [`FEATURE_DIM`] values; every slot
/// is overwritten (unused slots are zeroed), so the buffer can be reused
/// across candidates — this is the multi-way search's per-probe encoder.
pub fn encode_features(entries: &[GroupEntry], lib: &ModelLibrary, out: &mut [f64]) {
    let mut ops = [0usize; MAX_COLOCATED];
    assert!(
        !entries.is_empty() && entries.len() <= MAX_COLOCATED,
        "a group holds 1..={MAX_COLOCATED} entries"
    );
    for (n, e) in ops.iter_mut().zip(entries) {
        *n = lib.graph(e.model, e.input).len();
    }
    encode_features_with_ops(entries, &ops[..entries.len()], out);
}

/// [`encode_features`] with the per-entry operator counts supplied by the
/// caller instead of looked up per entry: `n_ops[i]` must equal
/// `lib.graph(entries[i].model, entries[i].input).len()`. The scheduler's
/// search already holds each query's operator count, so this variant keeps
/// per-candidate encoding free of hash-map lookups; the produced vector is
/// bit-identical to [`encode_features`] for matching counts.
pub fn encode_features_with_ops(entries: &[GroupEntry], n_ops: &[usize], out: &mut [f64]) {
    assert_eq!(out.len(), FEATURE_DIM, "feature buffer has the wrong size");
    assert!(
        !entries.is_empty() && entries.len() <= MAX_COLOCATED,
        "a group holds 1..={MAX_COLOCATED} entries"
    );
    assert_eq!(entries.len(), n_ops.len(), "one operator count per entry");
    out.fill(0.0);
    // Slots in model-index order, as the paper's layout prescribes. The
    // entry count is at most MAX_COLOCATED (4): an insertion sort over a
    // stack-resident index array beats allocating and sorting a Vec.
    let mut order = [0usize; MAX_COLOCATED];
    for (i, slot) in order.iter_mut().enumerate().take(entries.len()) {
        *slot = i;
    }
    let order = &mut order[..entries.len()];
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && entries[order[j - 1]].model.index() > entries[order[j]].model.index() {
            order.swap(j - 1, j);
            j -= 1;
        }
    }
    for (slot, &idx) in order.iter().enumerate() {
        let e = &entries[idx];
        out[e.model.index()] = 1.0;
        let n_ops = n_ops[idx] as f64;
        let base = MODEL_SLOT_BASE + slot * SLOT_WIDTH;
        out[base] = e.op_start as f64 / n_ops;
        out[base + 1] = e.op_end as f64 / n_ops;
        out[base + 2] = f64::from(e.input.batch) / 32.0;
        out[base + 3] = f64::from(e.input.seq) / 64.0;
    }
}

/// Debug-build validation of group entries: operator ranges within the
/// model graph and pairwise-distinct models (checked with a bitmask — one
/// O(n) pass, no allocation). Compiled out of release builds, where the
/// search constructs thousands of candidates per second.
fn debug_assert_valid_entries(entries: &[GroupEntry], lib: &ModelLibrary) {
    if cfg!(debug_assertions) {
        let mut seen = 0u32;
        for (i, e) in entries.iter().enumerate() {
            let n_ops = lib.graph(e.model, e.input).len();
            debug_assert!(
                e.op_start <= e.op_end && e.op_end <= n_ops,
                "entry {i}: invalid range {}..{} of {n_ops}",
                e.op_start,
                e.op_end
            );
            let bit = 1u32 << e.model.index();
            debug_assert!(seen & bit == 0, "duplicate model {:?}", e.model);
            seen |= bit;
        }
    }
}

/// The slot index (0-based, in the Fig. 8 layout) that `model` occupies
/// among `entries`: its rank by model index. Lets the search patch a
/// single entry's features in place between probes.
///
/// # Panics
/// Panics when `model` is not among `entries`.
pub fn feature_slot_of(entries: &[GroupEntry], model: ModelId) -> usize {
    assert!(
        entries.iter().any(|e| e.model == model),
        "model {model:?} not in group"
    );
    entries
        .iter()
        .filter(|e| e.model.index() < model.index())
        .count()
}

impl GroupSpec {
    /// Create a group. Structural validation (entry count, model
    /// uniqueness, operator ranges) is a `debug_assert!`-only check: the
    /// scheduler's search constructs specs in its hot path and must not
    /// pay an O(n²) scan per candidate in release builds.
    pub fn new(entries: Vec<GroupEntry>, lib: &ModelLibrary) -> GroupSpec {
        assert!(
            !entries.is_empty() && entries.len() <= MAX_COLOCATED,
            "a group holds 1..={MAX_COLOCATED} entries"
        );
        debug_assert_valid_entries(&entries, lib);
        GroupSpec { entries }
    }

    /// Encode as the Fig. 8 feature vector.
    pub fn features(&self, lib: &ModelLibrary) -> Vec<f64> {
        let mut x = vec![0.0; FEATURE_DIM];
        encode_features(&self.entries, lib, &mut x);
        x
    }

    /// Lower every entry to its kernel sequence, in the same order as
    /// `entries`.
    pub fn streams(&self, lib: &ModelLibrary) -> Vec<Vec<gpu_sim::KernelDesc>> {
        self.entries
            .iter()
            .map(|e| {
                lib.graph(e.model, e.input)
                    .kernels_range(e.op_start, e.op_end)
            })
            .collect()
    }

    /// Sum of all entries' solo latencies on `gpu` — the sequential-execution
    /// lower bound used for sanity checks and the sync-based ablation.
    pub fn sequential_ms(&self, lib: &ModelLibrary, gpu: &gpu_sim::GpuSpec) -> f64 {
        self.entries
            .iter()
            .map(|e| {
                lib.graph(e.model, e.input)
                    .solo_ms_range(gpu, e.op_start, e.op_end)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> ModelLibrary {
        ModelLibrary::new()
    }

    fn entry(model: ModelId, s: usize, e: usize, b: u32, q: u32) -> GroupEntry {
        GroupEntry {
            model,
            op_start: s,
            op_end: e,
            input: QueryInput::new(b, q),
        }
    }

    #[test]
    fn feature_layout() {
        let lib = lib();
        let g = GroupSpec::new(
            vec![
                entry(ModelId::Bert, 0, 50, 16, 32),
                entry(ModelId::ResNet50, 10, 125, 8, 1),
            ],
            &lib,
        );
        let x = g.features(&lib);
        assert_eq!(x.len(), FEATURE_DIM);
        // Multi-hot: Res50 (index 0) and Bert (index 6).
        assert_eq!(x[0], 1.0);
        assert_eq!(x[6], 1.0);
        assert_eq!(x[1..6].iter().sum::<f64>() + x[7], 0.0);
        // Slot 0 = Res50 (lower model index).
        let b = MODEL_SLOT_BASE;
        let n50 = lib.graph(ModelId::ResNet50, QueryInput::new(8, 1)).len() as f64;
        assert!((x[b] - 10.0 / n50).abs() < 1e-12);
        assert!((x[b + 1] - 125.0 / n50).abs() < 1e-12);
        assert!((x[b + 2] - 0.25).abs() < 1e-12);
        // Slot 1 = Bert.
        assert!((x[b + SLOT_WIDTH + 2] - 0.5).abs() < 1e-12); // bs 16/32
        assert!((x[b + SLOT_WIDTH + 3] - 0.5).abs() < 1e-12); // seq 32/64

        // Slots 2 and 3 are empty.
        assert!(x[b + 2 * SLOT_WIDTH..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn slot_order_is_input_order_independent() {
        let lib = lib();
        let a = GroupSpec::new(
            vec![
                entry(ModelId::Vgg16, 0, 10, 4, 1),
                entry(ModelId::ResNet101, 0, 20, 4, 1),
            ],
            &lib,
        );
        let b = GroupSpec::new(
            vec![
                entry(ModelId::ResNet101, 0, 20, 4, 1),
                entry(ModelId::Vgg16, 0, 10, 4, 1),
            ],
            &lib,
        );
        assert_eq!(a.features(&lib), b.features(&lib));
    }

    #[test]
    fn streams_match_ranges() {
        let lib = lib();
        let g = GroupSpec::new(vec![entry(ModelId::ResNet50, 5, 30, 4, 1)], &lib);
        let s = g.streams(&lib);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].len(), 25);
    }

    #[test]
    fn sequential_ms_adds_up() {
        let lib = lib();
        let gpu = gpu_sim::GpuSpec::a100();
        let g = GroupSpec::new(
            vec![
                entry(ModelId::ResNet50, 0, 60, 8, 1),
                entry(ModelId::Vgg19, 0, 24, 8, 1),
            ],
            &lib,
        );
        let expect = lib
            .graph(ModelId::ResNet50, QueryInput::new(8, 1))
            .solo_ms_range(&gpu, 0, 60)
            + lib
                .graph(ModelId::Vgg19, QueryInput::new(8, 1))
                .solo_ms(&gpu);
        assert!((g.sequential_ms(&lib, &gpu) - expect).abs() < 1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate model")]
    fn duplicate_models_rejected() {
        let lib = lib();
        let _ = GroupSpec::new(
            vec![
                entry(ModelId::Bert, 0, 5, 4, 8),
                entry(ModelId::Bert, 0, 5, 4, 8),
            ],
            &lib,
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid range")]
    fn bad_range_rejected() {
        let lib = lib();
        let _ = GroupSpec::new(vec![entry(ModelId::Vgg16, 0, 999, 4, 1)], &lib);
    }
}
