//! The flexible segmental model executor (§6.1, Fig. 11).
//!
//! Executes one operator schedule group at a time, exclusively — the
//! property that makes the overlap deterministic. Each participating query
//! runs its operator range on its own stream (its own process in the real
//! system); the executor synchronises once per group before replying, saves
//! intermediate activations for partially-processed queries and restores
//! them when a query resumes in a later round.
//!
//! In this reproduction the GPU is `gpu-sim`; the executor adds the
//! host-side costs the paper discusses: one synchronisation per group (no
//! more than sequential execution pays per query, §6.3) and a small
//! save/restore charge per partial query (§7.8's ≈ 20 MB of intermediate
//! state).

use crate::profile::ProfileTable;
use dnn_models::ModelLibrary;
use gpu_sim::{Engine, GpuSpec, KernelFaultSpec, NoiseModel, StreamCompletion};
use predictor::GroupSpec;
use std::sync::Arc;
use workload::fork_seed;

/// One GPU synchronisation + reply, charged per executed group, ms.
pub const GROUP_SYNC_MS: f64 = 0.05;

/// Save (or restore) of one query's intermediate activations, ms.
pub const SAVE_RESTORE_MS: f64 = 0.02;

/// Outcome of executing one operator group.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Total wall time of the round, ms (kernels + sync + save/restore).
    /// Every query in the group — completed or partial — is occupied for
    /// this long: results return only after the group-level sync.
    pub duration_ms: f64,
    /// Per-entry kernel-stream completion offsets (before sync), ms.
    pub stream_ms: Vec<f64>,
    /// Bytes of intermediate activations held for partially-processed
    /// queries after this round (the §7.8 memory-overhead figure).
    pub saved_bytes: f64,
}

/// The segmental executor: owns the GPU and the run-to-run noise stream.
///
/// Holds one persistent [`Engine`] that is [`Engine::reset`] (not rebuilt)
/// per group, and lowers every entry through the library's memoised kernel
/// lowering and the executor's own [`ProfileTable`]. A single-query group
/// runs through [`Engine::run_lone`], which builds no stream at all; a
/// wider group through [`Engine::run_group_rows`], which copies the
/// table's rows into the engine's pooled buffers.
/// The serving inner loop still allocates twice per group: the
/// [`ExecOutcome::stream_ms`] vector returned here, and the entry `Vec` that
/// [`PlannedGroup::to_spec`](crate::PlannedGroup::to_spec) builds for the
/// [`GroupSpec`] it executes; a wider group adds the `Vec` of borrowed rows
/// from [`ProfileTable::segments`].
#[derive(Debug, Clone)]
pub struct SegmentalExecutor {
    engine: Engine,
    seed: u64,
    rounds: u64,
    /// Cumulative GPU busy time across executed groups, ms. Fault-spike
    /// windows are expressed on this clock (the engine's own clock resets
    /// to zero every group).
    busy_ms: f64,
    /// Cumulative kernel-level engine events across executed groups (the
    /// engine's own counter resets every group).
    events: u64,
    /// Cumulative fault-spike activations across executed groups.
    fault_spikes: u64,
    /// Element-wise peaks of the engine's per-group core stats
    /// ([`gpu_sim::EngineCoreStats`]) across executed groups — the
    /// engine's own peaks reset with it every group.
    core_stats: gpu_sim::EngineCoreStats,
    /// Reused completion buffer for [`Engine::completions_into`].
    completions: Vec<StreamCompletion>,
    /// Memoised kernel rows ([`gpu_sim::KernelRows`]) and solo latencies on
    /// the executor's GPU, which is fixed at construction: a row is
    /// computed once and lent to the engine for every later group, so the
    /// engine neither evaluates nor copies a profile per kernel.
    table: ProfileTable,
}

impl SegmentalExecutor {
    /// Create an executor on `gpu` with the given noise model and seed.
    pub fn new(gpu: GpuSpec, noise: NoiseModel, lib: Arc<ModelLibrary>, seed: u64) -> Self {
        Self {
            table: ProfileTable::new(lib, gpu.clone()),
            engine: Engine::new(gpu, noise, 0),
            seed,
            rounds: 0,
            busy_ms: 0.0,
            events: 0,
            fault_spikes: 0,
            core_stats: gpu_sim::EngineCoreStats::default(),
            completions: Vec::new(),
        }
    }

    /// Install (or clear) a kernel latency-spike fault spec. The spike
    /// window is interpreted on the executor's cumulative busy-time clock,
    /// not per-group engine time.
    pub fn set_kernel_faults(&mut self, spec: Option<KernelFaultSpec>) {
        self.engine.set_kernel_faults(spec);
    }

    /// Cumulative GPU busy time across all executed groups, ms.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Cumulative kernel-level engine events across all executed groups.
    pub fn engine_events(&self) -> u64 {
        self.events
    }

    /// Cumulative fault-spike activations across all executed groups.
    pub fn fault_spikes(&self) -> u64 {
        self.fault_spikes
    }

    /// Element-wise peaks of the engine core's health stats (deepest
    /// running set, deepest arrival backlog) across all executed groups.
    pub fn engine_core_stats(&self) -> gpu_sim::EngineCoreStats {
        self.core_stats
    }

    /// Record each group's per-kernel execution spans (engine-local time;
    /// read them back with [`SegmentalExecutor::kernel_trace`] after each
    /// `execute`). Enable before the first group.
    pub fn enable_kernel_trace(&mut self) {
        self.engine.enable_trace();
    }

    /// The most recent group's kernel spans, in completion order (empty
    /// unless kernel tracing was enabled). Spans are on the engine's
    /// group-local clock, starting at zero each group.
    pub fn kernel_trace(&self) -> &[gpu_sim::KernelSpan] {
        self.engine.trace()
    }

    /// The GPU this executor drives.
    pub fn gpu(&self) -> &GpuSpec {
        self.engine.gpu()
    }

    /// The model library used to lower operator ranges.
    pub fn library(&self) -> &Arc<ModelLibrary> {
        self.table.library()
    }

    /// The solo-latency table on this executor's GPU.
    pub fn profile_table(&mut self) -> &mut ProfileTable {
        &mut self.table
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Execute one operator group exclusively and return its timing.
    pub fn execute(&mut self, spec: &GroupSpec) -> ExecOutcome {
        let run_seed = fork_seed(self.seed, self.rounds);
        self.rounds += 1;
        self.engine.reset(run_seed);
        self.engine.set_fault_time_base(self.busy_ms);
        match spec.entries.as_slice() {
            [e] => {
                let stream = self.table.segment(e.model, e.input, e.op_start, e.op_end);
                self.engine.run_lone(stream);
            }
            entries => self.engine.run_group_rows(&self.table.segments(entries)),
        }
        self.engine.completions_into(&mut self.completions);
        let mut min_start = f64::INFINITY;
        let mut max_end = 0.0f64;
        for c in &self.completions {
            min_start = min_start.min(c.start_ms);
            max_end = max_end.max(c.end_ms);
        }
        let total_ms = if self.completions.is_empty() {
            0.0
        } else {
            max_end - min_start
        };
        self.busy_ms += total_ms;
        self.events += self.engine.events();
        self.fault_spikes += self.engine.fault_spikes();
        self.core_stats.merge_peaks(&self.engine.core_stats());
        // Save/restore bookkeeping for partial queries.
        let mut overhead = GROUP_SYNC_MS;
        let mut saved_bytes = 0.0;
        for e in &spec.entries {
            let graph = self.library().graph(e.model, e.input);
            if e.op_start > 0 {
                overhead += SAVE_RESTORE_MS; // restore at round start
            }
            if e.op_end < graph.len() {
                overhead += SAVE_RESTORE_MS; // save at round end

                // The activation crossing the segment boundary: estimate
                // as the boundary operator's output traffic share.
                saved_bytes += graph.ops[e.op_end - 1].bytes / 3.0;
            }
        }
        ExecOutcome {
            duration_ms: total_ms + overhead,
            stream_ms: self
                .completions
                .iter()
                .map(|c| c.end_ms - c.start_ms)
                .collect(),
            saved_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{ModelId, QueryInput};
    use predictor::GroupEntry;

    fn setup() -> (SegmentalExecutor, Arc<ModelLibrary>) {
        let lib = Arc::new(ModelLibrary::new());
        (
            SegmentalExecutor::new(GpuSpec::a100(), NoiseModel::disabled(), lib.clone(), 1),
            lib,
        )
    }

    fn entry(model: ModelId, s: usize, e: usize) -> GroupEntry {
        GroupEntry {
            model,
            op_start: s,
            op_end: e,
            input: QueryInput::new(8, if model.is_nlp() { 16 } else { 1 }),
        }
    }

    #[test]
    fn full_query_has_no_save_restore() {
        let (mut ex, lib) = setup();
        let spec = GroupSpec::new(vec![entry(ModelId::ResNet50, 0, 125)], &lib);
        let out = ex.execute(&spec);
        assert_eq!(out.saved_bytes, 0.0);
        let solo = lib
            .graph(ModelId::ResNet50, QueryInput::new(8, 1))
            .solo_ms(ex.gpu());
        assert!((out.duration_ms - solo - GROUP_SYNC_MS).abs() < 1e-9);
    }

    #[test]
    fn partial_query_pays_save_and_saves_bytes() {
        let (mut ex, lib) = setup();
        let spec = GroupSpec::new(vec![entry(ModelId::ResNet50, 0, 60)], &lib);
        let out = ex.execute(&spec);
        assert!(out.saved_bytes > 0.0);
        let solo = lib
            .graph(ModelId::ResNet50, QueryInput::new(8, 1))
            .solo_ms_range(ex.gpu(), 0, 60);
        assert!((out.duration_ms - solo - GROUP_SYNC_MS - SAVE_RESTORE_MS).abs() < 1e-9);
    }

    #[test]
    fn resumed_query_pays_restore() {
        let (mut ex, lib) = setup();
        let spec = GroupSpec::new(vec![entry(ModelId::ResNet50, 60, 125)], &lib);
        let out = ex.execute(&spec);
        assert_eq!(out.saved_bytes, 0.0); // completes, nothing kept
        let solo = lib
            .graph(ModelId::ResNet50, QueryInput::new(8, 1))
            .solo_ms_range(ex.gpu(), 60, 125);
        assert!((out.duration_ms - solo - GROUP_SYNC_MS - SAVE_RESTORE_MS).abs() < 1e-9);
    }

    #[test]
    fn overlapped_group_duration_below_sequential() {
        let (mut ex, lib) = setup();
        let spec = GroupSpec::new(
            vec![
                entry(ModelId::ResNet50, 0, 125),
                entry(ModelId::Bert, 0, 173),
            ],
            &lib,
        );
        let seq = spec.sequential_ms(&lib, ex.gpu());
        let out = ex.execute(&spec);
        assert!(out.duration_ms < seq, "{} vs {seq}", out.duration_ms);
        assert_eq!(out.stream_ms.len(), 2);
    }

    #[test]
    fn noisy_executor_is_deterministic_per_round_sequence() {
        let lib = Arc::new(ModelLibrary::new());
        let mk =
            || SegmentalExecutor::new(GpuSpec::a100(), NoiseModel::calibrated(), lib.clone(), 9);
        let spec = GroupSpec::new(vec![entry(ModelId::Vgg16, 0, 21)], &lib);
        let mut a = mk();
        let mut b = mk();
        for _ in 0..3 {
            assert_eq!(a.execute(&spec), b.execute(&spec));
        }
        // Different rounds draw different noise.
        let mut c = mk();
        let r1 = c.execute(&spec);
        let r2 = c.execute(&spec);
        assert_ne!(r1.duration_ms, r2.duration_ms);
    }

    #[test]
    fn fault_window_spans_groups_on_cumulative_clock() {
        // Two identical groups; the spike window covers only the span of
        // the *second* group on the cumulative busy-time clock, so the
        // first group must run clean even though engine time restarts at
        // zero each round.
        let lib = Arc::new(ModelLibrary::new());
        let spec = GroupSpec::new(vec![entry(ModelId::ResNet50, 0, 125)], &lib);
        let mut clean =
            SegmentalExecutor::new(GpuSpec::a100(), NoiseModel::disabled(), lib.clone(), 1);
        let base = clean.execute(&spec);
        let first_busy = clean.busy_ms();

        let mut faulty =
            SegmentalExecutor::new(GpuSpec::a100(), NoiseModel::disabled(), lib.clone(), 1);
        faulty.set_kernel_faults(Some(KernelFaultSpec {
            seed: 7,
            window_start_ms: first_busy,
            window_end_ms: f64::INFINITY,
            prob: 1.0,
            factor: 2.0,
        }));
        let g1 = faulty.execute(&spec);
        let g2 = faulty.execute(&spec);
        assert_eq!(g1, base, "window starts after group 1 — group 1 clean");
        assert!(
            (g2.duration_ms - GROUP_SYNC_MS - 2.0 * (base.duration_ms - GROUP_SYNC_MS)).abs()
                < 1e-9,
            "group 2 fully inside window scales by the spike factor: {} vs {}",
            g2.duration_ms,
            base.duration_ms
        );
    }

    #[test]
    fn silent_fault_spec_is_bit_identical() {
        let lib = Arc::new(ModelLibrary::new());
        let spec = GroupSpec::new(
            vec![
                entry(ModelId::ResNet50, 0, 125),
                entry(ModelId::Bert, 0, 173),
            ],
            &lib,
        );
        let mut plain =
            SegmentalExecutor::new(GpuSpec::a100(), NoiseModel::calibrated(), lib.clone(), 5);
        let mut silent =
            SegmentalExecutor::new(GpuSpec::a100(), NoiseModel::calibrated(), lib.clone(), 5);
        silent.set_kernel_faults(Some(KernelFaultSpec::always(3, 0.0, 10.0)));
        for _ in 0..3 {
            assert_eq!(plain.execute(&spec), silent.execute(&spec));
        }
    }

    #[test]
    fn intermediate_footprint_is_modest() {
        // §7.8: ~20 MB of intermediate results. One partial CV query at a
        // layer boundary should hold single-digit-MB to tens-of-MB state.
        let (mut ex, lib) = setup();
        let spec = GroupSpec::new(
            vec![GroupEntry {
                model: ModelId::ResNet152,
                op_start: 0,
                op_end: 180,
                input: QueryInput::new(32, 1),
            }],
            &lib,
        );
        let out = ex.execute(&spec);
        let mb = out.saved_bytes / 1e6;
        assert!((0.5..80.0).contains(&mb), "saved {mb} MB");
    }
}
