//! The per-GPU solo-latency table.
//!
//! Every serving path that needs a query's solo latency — the sequential
//! baselines' policy keys (§2, §7.1), the executor's kernel profiles, the
//! cluster's overlap-gain numerator and Clockwork's admission test — reads
//! it from one [`ProfileTable`] on its fixed GPU, the way Nexus and
//! Clockwork keep a per-model latency profile instead of recomputing it.
//! A row is filled lazily the first time a `(model, input)` is seen and
//! replayed for every later range.

use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{GpuSpec, KernelDesc, RunningKernel};
use std::collections::HashMap;
use std::sync::Arc;

/// One `(model, input)` graph's kernel profiles and memoised total.
#[derive(Debug, Clone)]
struct ProfileRow {
    /// [`RunningKernel::profile`] of every kernel, parallel to the
    /// library's cached lowering.
    profiles: Vec<RunningKernel>,
    /// Solo latency of the whole graph, ms.
    total_ms: f64,
}

/// Lazily filled [`RunningKernel::profile`] rows and solo latencies per
/// `(model, input)` on one GPU.
///
/// A profile is a pure function of kernel and GPU, so a row computed once is
/// bit-identical to a fresh evaluation every later time it is read.
#[derive(Debug, Clone)]
pub struct ProfileTable {
    lib: Arc<ModelLibrary>,
    gpu: GpuSpec,
    rows: HashMap<(ModelId, QueryInput), ProfileRow>,
}

impl ProfileTable {
    /// An empty table for `lib`'s graphs on `gpu`.
    pub fn new(lib: Arc<ModelLibrary>, gpu: GpuSpec) -> Self {
        Self {
            lib,
            gpu,
            rows: HashMap::new(),
        }
    }

    /// The model library whose graphs the table profiles.
    pub fn library(&self) -> &Arc<ModelLibrary> {
        &self.lib
    }

    /// Cached kernels and profiles of the operator segment `[start, end)`.
    pub fn segment(
        &mut self,
        model: ModelId,
        input: QueryInput,
        start: usize,
        end: usize,
    ) -> (&[KernelDesc], &[RunningKernel]) {
        let row = row(&mut self.rows, &self.lib, &self.gpu, model, input);
        (
            self.lib.kernels_range(model, input, start, end),
            &row.profiles[start..end],
        )
    }

    /// Solo latency of the operator segment `[start, end)`, ms —
    /// bit-identical to [`ModelGraph::solo_ms_range`](dnn_models::ModelGraph::solo_ms_range).
    ///
    /// The whole graph reads the memoised total; any other range is summed
    /// left to right, as the reference does. A prefix-sum difference would
    /// round differently and is deliberately not used.
    pub fn solo_ms(&mut self, model: ModelId, input: QueryInput, start: usize, end: usize) -> f64 {
        let row = row(&mut self.rows, &self.lib, &self.gpu, model, input);
        let ms = if start == 0 && end == row.profiles.len() {
            row.total_ms
        } else {
            let kernels = self.lib.kernels_range(model, input, start, end);
            segment_solo_ms(kernels, &row.profiles[start..end])
        };
        debug_assert_eq!(
            ms.to_bits(),
            self.lib
                .graph(model, input)
                .solo_ms_range(&self.gpu, start, end)
                .to_bits(),
            "memoised solo latency diverges from fresh evaluation"
        );
        ms
    }
}

/// The row of `(model, input)`, profiled on first use.
fn row<'a>(
    rows: &'a mut HashMap<(ModelId, QueryInput), ProfileRow>,
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    model: ModelId,
    input: QueryInput,
) -> &'a ProfileRow {
    rows.entry((model, input)).or_insert_with(|| {
        let kernels = lib.kernels(model, input);
        let profiles: Vec<RunningKernel> = kernels
            .iter()
            .map(|k| RunningKernel::profile(k, gpu))
            .collect();
        let total_ms = segment_solo_ms(kernels, &profiles);
        ProfileRow { profiles, total_ms }
    })
}

/// Summed solo latency of parallel kernel and profile slices, ms.
/// `launch_ms + exec_ms` is [`KernelDesc::solo_ms`] term for term, and the
/// left-to-right sum is the reference's, so the result keeps its bits.
fn segment_solo_ms(kernels: &[KernelDesc], profiles: &[RunningKernel]) -> f64 {
    kernels
        .iter()
        .zip(profiles)
        .map(|(k, p)| k.launch_ms + p.exec_ms)
        .sum()
}
