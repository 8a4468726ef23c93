//! The per-GPU solo-latency table.
//!
//! Every serving path that needs a query's solo latency — the sequential
//! baselines' policy keys (§2, §7.1), the executor's kernel profiles, the
//! cluster's overlap-gain numerator and Clockwork's admission test — reads
//! it from one [`ProfileTable`] on its fixed GPU, the way Nexus and
//! Clockwork keep a per-model latency profile instead of recomputing it.
//! A row is filled lazily the first time a `(model, input)` is seen and
//! replayed for every later range. It holds each kernel's contention
//! profile and its `launch + exec` solo time ([`KernelRows`]): solo
//! latencies sum the solo row, and the executor lends both rows to the
//! engine ([`ProfileTable::segments`]), whose lone-stream entry runs a
//! single-query group straight from the solo row.

use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{GpuSpec, KernelRows, StreamRows};
use predictor::GroupEntry;
use std::collections::HashMap;
use std::sync::Arc;

/// One `(model, input)` graph's kernel rows and memoised total.
#[derive(Debug, Clone)]
struct ProfileRow {
    /// [`RunningKernel::profile`](gpu_sim::RunningKernel::profile) and the
    /// `launch + exec` solo time of every kernel, parallel to the library's
    /// cached lowering.
    rows: KernelRows,
    /// Solo latency of the whole graph, ms.
    total_ms: f64,
}

/// Lazily filled kernel rows ([`KernelRows`]) and solo latencies per
/// `(model, input)` on one GPU.
///
/// A row is a pure function of kernel and GPU, so a row computed once is
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

    /// Cached kernels, profiles and solo times of the operator segment
    /// `[start, end)`, borrowed for the engine.
    pub fn segment(
        &mut self,
        model: ModelId,
        input: QueryInput,
        start: usize,
        end: usize,
    ) -> StreamRows<'_> {
        let row = row(&mut self.rows, &self.lib, &self.gpu, model, input);
        row.rows.segment(self.lib.kernels(model, input), start, end)
    }

    /// [`ProfileTable::segment`] of every entry of a group, in entry order.
    pub fn segments(&mut self, entries: &[GroupEntry]) -> Vec<StreamRows<'_>> {
        for e in entries {
            row(&mut self.rows, &self.lib, &self.gpu, e.model, e.input);
        }
        entries
            .iter()
            .map(|e| {
                let kernels = self.lib.kernels(e.model, e.input);
                self.rows[&(e.model, e.input)]
                    .rows
                    .segment(kernels, e.op_start, e.op_end)
            })
            .collect()
    }

    /// Solo latency of the operator segment `[start, end)`, ms —
    /// bit-identical to [`ModelGraph::solo_ms_range`](dnn_models::ModelGraph::solo_ms_range).
    ///
    /// The whole graph reads the memoised total; any other range sums the
    /// solo row left to right, as the reference does. A prefix-sum
    /// difference would round differently and is deliberately not used.
    pub fn solo_ms(&mut self, model: ModelId, input: QueryInput, start: usize, end: usize) -> f64 {
        let row = row(&mut self.rows, &self.lib, &self.gpu, model, input);
        let ms = if start == 0 && end == row.rows.solo.len() {
            row.total_ms
        } else {
            segment_solo_ms(&row.rows.solo[start..end])
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
        let rows = KernelRows::new(lib.kernels(model, input), gpu);
        let total_ms = segment_solo_ms(&rows.solo);
        ProfileRow { rows, total_ms }
    })
}

/// Summed solo latency of a solo row, ms. Each term is `launch_ms +
/// exec_ms`, [`KernelDesc::solo_ms`](gpu_sim::KernelDesc::solo_ms) term for
/// term, and the left-to-right sum is the reference's, so the result keeps
/// its bits.
fn segment_solo_ms(solo: &[f64]) -> f64 {
    solo.iter().sum()
}
