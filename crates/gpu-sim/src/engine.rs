//! The event-driven co-execution engine.
//!
//! Each *stream* is a sequence of kernels executed in order (one stream per
//! in-flight query, mirroring CUDA streams under MPS). Streams overlap; the
//! engine advances every running kernel by its remaining *solo time*,
//! divided by the current contention slowdown from
//! [`crate::contention::co_run_slowdowns`]. Rates only
//! change when the running set changes (a kernel finishes or a stream
//! starts), so progress between events is integrated in closed form — the
//! engine is exact for the contention model, with no time-stepping error.
//!
//! Two usage patterns:
//!
//! * **Exclusive operator group** ([`crate::run_group`]): all streams start
//!   at `t = 0`, run to idle — how the segmental model executor and the
//!   offline profiler use the GPU.
//! * **Free overlap (MPS)**: streams are added with arbitrary start times
//!   and [`Engine::step`] yields completions one at a time so a caller can
//!   chain queries dynamically — how the Fig. 3 motivation experiment runs.
//!
//! # Event-core layout
//!
//! The in-flight set is one array of [`Running`] entries: the stream slot,
//! the remaining solo time, the start stamp, the kernel's contention
//! profile and its current slowdown. A stream has one kernel in flight and
//! serving co-locates at most four queries, so in serving the set holds at
//! most four kernels. The three per-event passes — slowdown refresh,
//! completion-horizon scan and time decrement — are plain scalar loops
//! over it, and every refresh recomputes each slowdown through
//! [`crate::contention::slowdown_one`].
//! Pending arrivals wait in a binary heap ([`crate::pqueue`]), and a
//! retired stream's slot and kernel buffers go straight back to the next
//! arrival. All of it is bit-identical to the reference engine pinned by
//! `tests/golden_engine.rs` — decrement order, tie-breaking and the fault
//! draw order are part of the contract (see DESIGN.md §11).
//!
//! # Kernel durations
//!
//! A stream's kernel noise factors are a pure function of the run seed,
//! the stream's add ordinal and the kernel's index ([`crate::noise`]), so
//! a kernel's whole noisy solo duration, `(launch + exec) · session ·
//! factor` multiplied in that order, is known when its stream is added.
//! [`Engine::add_stream`] computes the stream's contention profiles and
//! its `launch + exec` row there, and scales the row into one pooled
//! duration buffer in the same SIMD pass as the noise batch; starting a
//! kernel later only reads its profile and duration (times a fault spike,
//! when a fault spec is installed: spikes depend on the start time). The
//! kernels themselves are copied only while tracing, where a span reports
//! their occupancy.
//!
//! Callers that replay the same kernel sequences keep both derived rows,
//! the profiles and the `launch + exec` solo row ([`KernelRows`]), and lend
//! them as [`StreamRows`]. [`Engine::run_group_rows`], the segmental
//! executor's entry, runs a single stream without building it (below); a
//! wider group copies each stream's profiles and solo row into pooled
//! buffers, so no stream evaluates a profile or sums `launch + exec`.
//!
//! # Lone-stream closed form
//!
//! Most serving events have exactly one kernel in flight (single-query
//! groups, and the single-stream tail of every wider group). An
//! uncontended kernel's slowdown is exactly `1.0` (see
//! `Engine::run_lone_stream`), so a stream running alone ends after the
//! sum of its kernels' durations, one event per kernel that takes time.
//! One fold, `LoneRun::run`, computes that sum for both lone paths.
//! Without faults or tracing it is a flat left-to-right sum; with tracing,
//! each kernel draws its spike at the running clock exactly as the
//! general loop's `start_next` does (zero-cost kernels included) and
//! records its span, so a kernel's duration has a single definition and
//! the sum has the general loop's bits.
//!
//! With faults and no tracing, the fold guesses that a block of 64
//! kernels starts inside the fault window: it makes the block's spike
//! draws in order, without testing the window, and sums `duration ·
//! multiplier` left to right. Then it checks the first kernel's start
//! against the window's start and the last kernel's against its end. The
//! clock never moves back, so the kernels in between started inside the
//! window too, and the block has the per-kernel path's bits. When a check
//! fails, the draw stream is rewound and the block runs kernel by kernel.
//! A spec whose factor is NaN, infinite or negative always runs kernel by
//! kernel: a kernel whose spiked duration is not above zero is skipped,
//! and the flat sum would move the clock by it.
//!
//! * **In the event loop**: when one kernel runs and no arrival is
//!   pending, [`Engine::step`] skips the per-event passes; the in-flight
//!   kernel ends after its remaining time and the rest of the stream's
//!   duration buffer goes through the fold.
//! * **From `t = 0`** ([`Engine::run_lone`], the executor's path for a
//!   single-query group): no stream is built. The solo row is scaled by
//!   the stream's noise 64 kernels at a time into a stack buffer, and each
//!   block goes straight into the fold, so the stream costs neither a
//!   profile copy nor a duration buffer.

use crate::contention::{slowdown_one, RunningKernel};
use crate::faults::{KernelFaultSpec, KernelFaultState};
use crate::gpu::GpuSpec;
use crate::kernel::KernelDesc;
use crate::noise::{stream_key, NoiseModel};
use crate::pqueue::PendingQueue;
use crate::simd::SimdTier;

/// Upper bound on retired kernel buffers kept for reuse (see
/// [`Engine::reset`] and slot recycling). Small: each buffer is just
/// capacity, and the steady state of a reset-per-group or open-loop
/// workload cycles through a handful.
const SPARE_POOL_CAP: usize = 64;

/// Kernels per block of the lone-stream entry ([`Engine::run_lone`]): the
/// solo row is scaled into a stack buffer this long and folded into the
/// clock block by block. One four-vector noise block on an AVX-512 host
/// (see [`crate::noise`]), two on AVX2, and even, as every block must
/// start on a factor pair.
const LONE_BLOCK: usize = 64;

/// Slack when testing whether a pending stream's start time has been
/// reached: a start within this of the current instant activates *now*,
/// absorbing float round-off from the closed-form time accumulation. An
/// empty stream caught by the slack is stamped complete at the (at most
/// a picosecond earlier) event time.
pub const ACTIVATION_SLACK_MS: f64 = 1e-12;

/// A running kernel whose remaining solo time has drained to at most this
/// is retired at the current event rather than surviving to a degenerate
/// follow-up event: ties in the completion scan (and near-ties from
/// round-off in the decrement) resolve to a single event. One nanosecond
/// of solo time — far below the launch overhead of any real kernel.
pub const RETIRE_EPSILON_MS: f64 = 1e-9;

/// Identifier of a stream within one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

/// Completion record for one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCompletion {
    /// Which stream finished.
    pub id: StreamId,
    /// When the stream was allowed to start (ms).
    pub start_ms: f64,
    /// When its last kernel finished (ms).
    pub end_ms: f64,
}

/// Result of running an operator group to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Wall-clock duration of the whole group, ms (max end − min start).
    pub total_ms: f64,
    /// Per-stream completions in stream-id order.
    pub completions: Vec<StreamCompletion>,
}

impl GroupResult {
    /// End-to-end duration of stream `i` (end − its own start).
    pub fn stream_ms(&self, i: usize) -> f64 {
        let c = &self.completions[i];
        c.end_ms - c.start_ms
    }
}

/// One stream of an operator group that starts at `t = 0`, as borrowed
/// rows: the kernels, each kernel's contention profile on the engine's GPU
/// ([`RunningKernel::profile`]) and its `launch + exec` solo time, all
/// parallel. Both derived rows are pure functions of `(kernel, gpu)`, so a
/// caller that replays the same kernel sequences computes them once
/// ([`KernelRows`]) and the engine reads them instead of deriving them
/// again per stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamRows<'a> {
    /// The kernels, in stream order.
    pub kernels: &'a [KernelDesc],
    /// [`RunningKernel::profile`] of each kernel on the engine's GPU.
    pub profiles: &'a [RunningKernel],
    /// `launch_ms + exec_ms` of each kernel: its noise-free solo time.
    pub solo: &'a [f64],
}

impl StreamRows<'_> {
    /// Debug check that the rows are parallel and are the fresh
    /// derivation on `gpu`, bit for bit.
    fn debug_check(&self, gpu: &GpuSpec) {
        debug_assert!(
            self.kernels.len() == self.profiles.len() && self.kernels.len() == self.solo.len(),
            "stream rows are not parallel"
        );
        debug_assert!(
            self.kernels
                .iter()
                .zip(self.profiles)
                .zip(self.solo)
                .all(|((k, p), &solo)| {
                    let fresh = RunningKernel::profile(k, gpu);
                    *p == fresh && solo.to_bits() == (k.launch_ms + fresh.exec_ms).to_bits()
                }),
            "precomputed row diverges from fresh evaluation"
        );
    }
}

/// The owned rows behind [`StreamRows`] for one whole kernel sequence on
/// one GPU: what the segmental executor's solo-latency table and the
/// offline profiler keep per `(model, input)`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRows {
    /// [`RunningKernel::profile`] of every kernel.
    pub profiles: Vec<RunningKernel>,
    /// `launch_ms + exec_ms` of every kernel, the term
    /// [`KernelDesc::solo_ms`] sums.
    pub solo: Vec<f64>,
}

impl KernelRows {
    /// Profile every kernel of `kernels` on `gpu`.
    pub fn new(kernels: &[KernelDesc], gpu: &GpuSpec) -> Self {
        let profiles: Vec<RunningKernel> = kernels
            .iter()
            .map(|k| RunningKernel::profile(k, gpu))
            .collect();
        let solo = kernels
            .iter()
            .zip(&profiles)
            .map(|(k, p)| k.launch_ms + p.exec_ms)
            .collect();
        Self { profiles, solo }
    }

    /// The rows of kernels `[start, end)` of `kernels`, the whole sequence
    /// these rows were built from.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn segment<'a>(
        &'a self,
        kernels: &'a [KernelDesc],
        start: usize,
        end: usize,
    ) -> StreamRows<'a> {
        debug_assert_eq!(kernels.len(), self.solo.len(), "rows of another sequence");
        StreamRows {
            kernels: &kernels[start..end],
            profiles: &self.profiles[start..end],
            solo: &self.solo[start..end],
        }
    }
}

/// Health counters of the event core since the last reset — cheap to read,
/// free to maintain, surfaced through the telemetry registry so bench
/// regressions are diagnosable from the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCoreStats {
    /// Peak number of kernels simultaneously in flight.
    pub max_active: usize,
    /// Peak pending-arrival backlog.
    pub pending_peak: usize,
}

impl EngineCoreStats {
    /// Fold `other` into `self`, keeping the element-wise maximum — how a
    /// caller that resets the engine per run (the segmental executor)
    /// accumulates lifetime peaks across the per-run resets.
    pub fn merge_peaks(&mut self, other: &EngineCoreStats) {
        self.max_active = self.max_active.max(other.max_active);
        self.pending_peak = self.pending_peak.max(other.pending_peak);
    }
}

#[derive(Debug, Clone)]
struct Stream {
    /// The kernels, kept only while tracing (a span reports the kernel's
    /// occupancy); empty otherwise.
    kernels: Vec<KernelDesc>,
    /// Contention profile of each kernel on the engine's GPU: computed
    /// when the stream is added, or copied from the caller
    /// ([`Engine::add_stream_profiled`], [`Engine::run_group_rows`]).
    profiles: Vec<RunningKernel>,
    /// Noisy solo duration of each kernel, `(launch + exec) · session ·
    /// factor` (see the module docs), computed when the stream is added.
    durations: Vec<f64>,
    /// Index of the stream's next kernel to start.
    next: usize,
    start_ms: f64,
    end_ms: Option<f64>,
}

impl Stream {
    /// The span of kernel `k` of this stream, in slot `idx`, between
    /// `start_ms` and `end_ms`. Needs the kernel copy kept while tracing.
    fn span(&self, idx: usize, k: usize, start_ms: f64, end_ms: f64, gpu: &GpuSpec) -> KernelSpan {
        kernel_span(idx, k, &self.kernels[k], start_ms, end_ms, gpu)
    }
}

/// The span of `kernel`, kernel `k` of the stream in slot `idx`, between
/// `start_ms` and `end_ms`.
fn kernel_span(
    idx: usize,
    k: usize,
    kernel: &KernelDesc,
    start_ms: f64,
    end_ms: f64,
    gpu: &GpuSpec,
) -> KernelSpan {
    KernelSpan {
        stream: StreamId(idx),
        kernel: k,
        start_ms,
        end_ms,
        occupancy: kernel.occupancy(gpu),
    }
}

/// One kernel in flight.
#[derive(Debug, Clone, Copy)]
struct Running {
    /// Slot of the stream the kernel belongs to.
    stream: usize,
    /// Remaining noisy solo time, ms.
    remaining: f64,
    /// When the kernel started executing (read for trace spans).
    started_ms: f64,
    /// The kernel's contention profile.
    profile: RunningKernel,
    /// Current slowdown, set by `refresh_slowdowns` before any pass reads
    /// it.
    slowdown: f64,
}

/// One kernel's execution interval, recorded when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpan {
    /// Which stream the kernel belongs to.
    pub stream: StreamId,
    /// Index of the kernel within its stream.
    pub kernel: usize,
    /// Execution start, ms.
    pub start_ms: f64,
    /// Execution end, ms.
    pub end_ms: f64,
    /// The kernel's SM occupancy share in `(0, 1]`.
    pub occupancy: f64,
}

/// The co-execution engine. See module docs.
#[derive(Debug, Clone)]
pub struct Engine {
    gpu: GpuSpec,
    noise: NoiseModel,
    session_factor: f64,
    time_ms: f64,
    streams: Vec<Stream>,
    /// Streams added since the last reset: the next stream's add ordinal,
    /// which keys its kernel noise factors.
    added: u64,
    /// Streams not yet started, soonest start first (binary heap).
    pending: PendingQueue,
    /// Kernels in flight: pushed on kernel start, `swap_remove`d on
    /// retire.
    running: Vec<Running>,
    /// Incremental Σ compute_share over the running set. Shares are
    /// quantised (see [`crate::contention`]), so this equals re-summing
    /// bit for bit.
    u_c: f64,
    /// Incremental Σ memory_share over the running set.
    u_m: f64,
    /// Retired stream slots, handed to later arrivals so long open-loop
    /// runs keep `streams` bounded by the streams live at once.
    free_slots: Vec<usize>,
    /// Retired kernel buffers kept to serve a traced
    /// [`Engine::add_stream`] without allocating.
    spare_kernels: Vec<Vec<KernelDesc>>,
    /// Retired profile buffers, pooled like `spare_kernels`.
    spare_profiles: Vec<Vec<RunningKernel>>,
    /// Retired duration buffers, pooled like `spare_kernels`.
    spare_durations: Vec<Vec<f64>>,
    events: u64,
    /// Fault spike activations (kernels whose duration was actually
    /// perturbed) since the last reset.
    fault_spikes: u64,
    /// Peak size of `running` since the last reset.
    max_active: usize,
    /// Per-kernel execution spans; populated only when tracing is on.
    trace: Option<Vec<KernelSpan>>,
    /// Seed of the current run: keys the kernel noise factors, and lets a
    /// fault spec installed mid-lifetime fork its draw stream consistently.
    run_seed: u64,
    /// Deterministic kernel latency-spike injection; `None` (the default)
    /// leaves the hot path untouched.
    faults: Option<KernelFaultState>,
    /// SIMD tier for the kernel-noise fill, detected once at construction.
    simd: SimdTier,
}

impl Engine {
    /// Create an idle engine at `t = 0`. Every noise factor is a function
    /// of `seed`, so the same seed reproduces the same run exactly.
    pub fn new(gpu: GpuSpec, noise: NoiseModel, seed: u64) -> Self {
        let session_factor = noise.session_factor(seed);
        Self {
            gpu,
            noise,
            session_factor,
            time_ms: 0.0,
            streams: Vec::new(),
            added: 0,
            pending: PendingQueue::default(),
            running: Vec::new(),
            u_c: 0.0,
            u_m: 0.0,
            free_slots: Vec::new(),
            spare_kernels: Vec::new(),
            spare_profiles: Vec::new(),
            spare_durations: Vec::new(),
            events: 0,
            fault_spikes: 0,
            max_active: 0,
            trace: None,
            run_seed: seed,
            faults: None,
            simd: SimdTier::detect(),
        }
    }

    /// Return the engine to the idle `t = 0` state under a new seed,
    /// keeping its allocations (stream slots, kernel buffers, scratch
    /// vectors). The session noise factor and the stream ordinals are
    /// re-derived exactly as in [`Engine::new`], so a reset engine is
    /// bit-identical to a freshly constructed one — this is what lets the
    /// segmental executor run one group after another without rebuilding
    /// the engine.
    pub fn reset(&mut self, seed: u64) {
        self.session_factor = self.noise.session_factor(seed);
        self.run_seed = seed;
        self.added = 0;
        if let Some(f) = &mut self.faults {
            f.reseed(seed);
        }
        self.time_ms = 0.0;
        self.events = 0;
        self.fault_spikes = 0;
        self.max_active = 0;
        for idx in 0..self.streams.len() {
            self.reclaim_buffers(idx);
        }
        self.streams.clear();
        self.pending.clear();
        self.running.clear();
        self.free_slots.clear();
        self.u_c = 0.0;
        self.u_m = 0.0;
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
    }

    /// [`Engine::reset`] that also retargets the engine to a (possibly)
    /// different GPU and noise model, cloning only on change.
    pub fn reset_with(&mut self, gpu: &GpuSpec, noise: &NoiseModel, seed: u64) {
        if &self.gpu != gpu {
            self.gpu = gpu.clone();
        }
        if &self.noise != noise {
            self.noise = noise.clone();
        }
        self.reset(seed);
    }

    /// Record every kernel's execution interval. Must be called while no
    /// stream is queued or running: a stream keeps the kernel copy its
    /// spans read only when it is added with tracing on.
    ///
    /// # Panics
    /// Panics if a stream is queued or running.
    pub fn enable_trace(&mut self) {
        assert!(
            self.running.is_empty() && self.pending.is_empty(),
            "enable_trace while streams are queued"
        );
        self.trace = Some(Vec::new());
    }

    /// The recorded kernel spans (empty when tracing was never enabled).
    pub fn trace(&self) -> &[KernelSpan] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Install (or clear) a deterministic kernel latency-spike regime
    /// ([`crate::faults`]). The spike draw stream is forked from
    /// `(spec.seed, run seed)` and re-forked on every [`Engine::reset`], so
    /// injection composes with engine reuse and stays bit-reproducible.
    /// With `None` (the default) the kernel-start hot path never touches
    /// the fault machinery.
    pub fn set_kernel_faults(&mut self, spec: Option<KernelFaultSpec>) {
        self.faults = spec.map(|s| KernelFaultState::new(s, self.run_seed));
    }

    /// Re-base the fault window clock: cumulative busy time at this run's
    /// `t = 0`. The segmental executor calls this per group so the spec's
    /// window refers to serving-wide execution time, not group-local time.
    pub fn set_fault_time_base(&mut self, base_ms: f64) {
        if let Some(f) = &mut self.faults {
            f.set_base_ms(base_ms);
        }
    }

    /// Current simulated time, ms.
    pub fn now(&self) -> f64 {
        self.time_ms
    }

    /// Number of kernel-level events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of fault spikes that actually perturbed a kernel since the
    /// last reset.
    pub fn fault_spikes(&self) -> u64 {
        self.fault_spikes
    }

    /// Event-core health counters since the last reset.
    pub fn core_stats(&self) -> EngineCoreStats {
        EngineCoreStats {
            max_active: self.max_active,
            pending_peak: self.pending.peak_len(),
        }
    }

    /// The GPU this engine simulates.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Queue a stream whose `profiles` and noise-free `durations` (`launch +
    /// exec` per kernel), both parallel to `kernels`, are already in
    /// buffers of the engine's:
    /// scale the durations by the stream's noise, keep the kernels when
    /// tracing, and queue it.
    fn queue_stream(
        &mut self,
        kernels: &[KernelDesc],
        profiles: Vec<RunningKernel>,
        mut durations: Vec<f64>,
        start_ms: f64,
    ) -> StreamId {
        debug_assert!(durations.len() == kernels.len() && profiles.len() == kernels.len());
        let start_ms = start_ms.max(self.time_ms);
        let key = stream_key(self.run_seed, self.added);
        self.noise
            .scale_kernel_durations(self.simd, key, self.session_factor, 0, &mut durations);
        self.added += 1;
        let kernels = if self.trace.is_some() {
            pooled_copy(&mut self.spare_kernels, kernels)
        } else {
            Vec::new()
        };
        let stream = Stream {
            kernels,
            profiles,
            durations,
            next: 0,
            start_ms,
            end_ms: None,
        };
        let id = match self.free_slots.pop() {
            Some(slot) => {
                self.streams[slot] = stream;
                slot
            }
            None => {
                self.streams.push(stream);
                self.streams.len() - 1
            }
        };
        self.pending.push(start_ms, id);
        StreamId(id)
    }

    /// `launch + exec` of each kernel, into a retired duration buffer when
    /// one is available.
    fn solo_durations(&mut self, kernels: &[KernelDesc], profiles: &[RunningKernel]) -> Vec<f64> {
        let mut durations = self.spare_durations.pop().unwrap_or_default();
        durations.clear();
        durations.extend(
            kernels
                .iter()
                .zip(profiles)
                .map(|(k, p)| k.launch_ms + p.exec_ms),
        );
        durations
    }

    /// Add a stream of kernels that may start at `start_ms` (clamped to
    /// now). Empty streams complete instantly at their start time. Every
    /// kernel's contention profile and noisy duration are computed here,
    /// into retired buffers when available instead of allocating.
    ///
    /// A retired stream's slot goes to the next stream added, and its
    /// [`StreamId`] with it: a caller that adds streams while the engine
    /// runs must consume each completion as [`Engine::step`] yields it, as
    /// [`Engine::completions`] and [`Engine::group_result`] only cover
    /// streams whose slot has not been reused yet. Streams added before
    /// the run starts never share a slot.
    pub fn add_stream(&mut self, kernels: &[KernelDesc], start_ms: f64) -> StreamId {
        let mut profiles = self.spare_profiles.pop().unwrap_or_default();
        profiles.clear();
        profiles.extend(kernels.iter().map(|k| RunningKernel::profile(k, &self.gpu)));
        let durations = self.solo_durations(kernels, &profiles);
        self.queue_stream(kernels, profiles, durations, start_ms)
    }

    /// [`Engine::add_stream`] with the kernels' contention profiles
    /// precomputed by the caller (one [`RunningKernel::profile`] per
    /// kernel, on this engine's GPU), which skips the per-kernel profile
    /// evaluation — its `powf` — for callers that replay the same kernel
    /// sequences (the segmental executor). Since the profile is a pure
    /// function of `(kernel, gpu)` the run is bit-identical to
    /// [`Engine::add_stream`] (debug builds assert this for every kernel).
    ///
    /// # Panics
    /// Panics if `profiles.len() != kernels.len()`.
    pub fn add_stream_profiled(
        &mut self,
        kernels: &[KernelDesc],
        profiles: &[RunningKernel],
        start_ms: f64,
    ) -> StreamId {
        assert_eq!(kernels.len(), profiles.len(), "one profile per kernel");
        debug_assert!(
            kernels
                .iter()
                .zip(profiles)
                .all(|(k, p)| *p == RunningKernel::profile(k, &self.gpu)),
            "precomputed profile diverges from fresh evaluation"
        );
        let durations = self.solo_durations(kernels, profiles);
        let profiles = pooled_copy(&mut self.spare_profiles, profiles);
        self.queue_stream(kernels, profiles, durations, start_ms)
    }

    /// Run one stream alone from `t = 0` on an engine fresh from
    /// [`Engine::new`] or [`Engine::reset`], without building the stream:
    /// bit-identical to [`Engine::add_stream_profiled`] at `t = 0` followed
    /// by [`Engine::run_until_idle`] — the same end time, event count, fault
    /// spikes, core stats, trace spans and completion record, with slot 0
    /// retired for the next stream added — and the path of
    /// [`Engine::run_group_rows`] for a single stream.
    ///
    /// The solo row is scaled by the stream's noise 64 kernels
    /// at a time into a stack buffer, and each block is folded straight
    /// into the lone-stream closed form (see the module docs), so neither a
    /// profile copy nor a duration buffer is made. The kernels are read
    /// only while tracing, for each span's occupancy.
    ///
    /// # Panics
    /// Panics if a stream was added since the last reset, or if the rows
    /// are not parallel.
    pub fn run_lone(&mut self, stream: StreamRows<'_>) -> StreamCompletion {
        assert!(
            self.streams.is_empty(),
            "run_lone needs an engine fresh from reset"
        );
        assert_eq!(
            stream.kernels.len(),
            stream.solo.len(),
            "one solo time per kernel"
        );
        stream.debug_check(&self.gpu);
        if cfg!(debug_assertions) {
            stream.profiles.iter().for_each(debug_assert_uncontended);
        }
        let key = stream_key(self.run_seed, self.added);
        self.added += 1;
        // Queued and activated at once, as the first `step` after an add
        // would: the arrival backlog peaks at this one stream.
        self.pending.push(0.0, 0);
        self.pending.pop();
        let mut lone = LoneRun { t: 0.0, ran: 0 };
        let mut spans = self.trace.as_mut().map(|out| LoneSpans {
            out,
            stream: 0,
            kernels: stream.kernels,
            gpu: &self.gpu,
        });
        let mut buf = [0.0; LONE_BLOCK];
        for (b, block) in stream.solo.chunks(LONE_BLOCK).enumerate() {
            let first = b * LONE_BLOCK;
            let durations = &mut buf[..block.len()];
            durations.copy_from_slice(block);
            self.noise.scale_kernel_durations(
                self.simd,
                key,
                self.session_factor,
                first as u64,
                durations,
            );
            lone.run(
                durations,
                first,
                self.faults.as_mut(),
                &mut self.fault_spikes,
                spans.as_mut(),
            );
        }
        self.time_ms = lone.t;
        self.events += lone.ran;
        // The running set held this stream's kernel iff one took time.
        self.max_active = usize::from(lone.ran > 0);
        self.streams.push(Stream {
            kernels: Vec::new(),
            profiles: Vec::new(),
            durations: Vec::new(),
            next: stream.kernels.len(),
            start_ms: 0.0,
            end_ms: Some(lone.t),
        });
        self.free_slots.push(0);
        StreamCompletion {
            id: StreamId(0),
            start_ms: 0.0,
            end_ms: lone.t,
        }
    }

    /// Run an operator group, every stream starting at `t = 0`, to idle on
    /// an engine fresh from [`Engine::new`] or [`Engine::reset`]: stream
    /// `i` gets slot `i`, and the run is bit-identical to adding each
    /// stream with [`Engine::add_stream_profiled`] in order and calling
    /// [`Engine::run_until_idle`]. A single stream runs through
    /// [`Engine::run_lone`]. A wider group copies each stream's profiles
    /// and solo row into pooled buffers, as [`Engine::add_stream_profiled`]
    /// does its profiles; the kernels are copied only while tracing. The
    /// segmental executor's entry for every group.
    ///
    /// # Panics
    /// Panics if a stream was added since the last reset, or if any
    /// stream's rows are not parallel.
    pub fn run_group_rows(&mut self, streams: &[StreamRows<'_>]) {
        if let [lone] = streams {
            self.run_lone(*lone);
            return;
        }
        assert!(
            self.streams.is_empty(),
            "run_group_rows needs an engine fresh from reset"
        );
        for s in streams {
            assert!(
                s.kernels.len() == s.profiles.len() && s.kernels.len() == s.solo.len(),
                "stream rows are not parallel"
            );
            s.debug_check(&self.gpu);
            let profiles = pooled_copy(&mut self.spare_profiles, s.profiles);
            let durations = pooled_copy(&mut self.spare_durations, s.solo);
            self.queue_stream(s.kernels, profiles, durations, 0.0);
        }
        self.run_until_idle();
    }

    /// True when no stream is running or waiting to start.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty() && self.pending.is_empty()
    }

    /// Start pending streams whose start time has been reached.
    fn activate_due_streams(&mut self) {
        while let Some((start_ms, idx)) = self.pending.peek() {
            if start_ms > self.time_ms + ACTIVATION_SLACK_MS {
                break;
            }
            self.pending.pop();
            self.start_next_kernel(idx);
        }
    }

    /// Begin stream `idx`'s next kernel, or retire the stream.
    fn start_next_kernel(&mut self, idx: usize) {
        let Some((profile, dur)) = self.draw_next_kernel(idx) else {
            self.retire_stream(idx);
            return;
        };
        self.running.push(Running {
            stream: idx,
            remaining: dur,
            started_ms: self.time_ms,
            profile,
            slowdown: 1.0,
        });
        self.u_c += profile.compute_share;
        self.u_m += profile.memory_share;
        self.max_active = self.max_active.max(self.running.len());
    }

    /// Start stream `idx`'s next kernel that takes time now (see
    /// [`start_next`]): its profile and duration, or `None` once the
    /// stream has no kernels left.
    fn draw_next_kernel(&mut self, idx: usize) -> Option<(RunningKernel, f64)> {
        let s = &mut self.streams[idx];
        let faults = self.faults.as_mut();
        let (k, dur) = start_next(
            &s.durations,
            &mut s.next,
            faults,
            &mut self.fault_spikes,
            self.time_ms,
        )?;
        Some((s.profiles[k], dur))
    }

    /// Stamp stream `idx` complete at the current instant, reclaim its
    /// buffers and hand its slot to the next arrival. The completion record
    /// (start/end) stays readable until the slot is actually reused, which
    /// is after the caller has observed it from `step`.
    fn retire_stream(&mut self, idx: usize) {
        self.streams[idx].end_ms = Some(self.time_ms);
        self.reclaim_buffers(idx);
        self.free_slots.push(idx);
    }

    /// Move stream `idx`'s kernel, profile and duration buffers to the
    /// spare pools.
    fn reclaim_buffers(&mut self, idx: usize) {
        let s = &mut self.streams[idx];
        pool_buffer(&mut self.spare_kernels, std::mem::take(&mut s.kernels));
        pool_buffer(&mut self.spare_profiles, std::mem::take(&mut s.profiles));
        pool_buffer(&mut self.spare_durations, std::mem::take(&mut s.durations));
    }

    /// Count one retired kernel of stream `idx` (the one before its
    /// cursor), recording its span when tracing is on.
    fn record_retired_kernel(&mut self, idx: usize, started_ms: f64) {
        self.events += 1;
        if let Some(trace) = &mut self.trace {
            let s = &self.streams[idx];
            trace.push(s.span(idx, s.next - 1, started_ms, self.time_ms, &self.gpu));
        }
    }

    /// Run the only stream in flight to completion in closed form; called
    /// when exactly one kernel is running and no arrival is pending.
    ///
    /// A lone kernel's slowdown is exactly `1.0`: its shares lie in
    /// `[0, 1]`, so `max(1, U)` is `1` and the contended roofline is its
    /// own `exec`; `U_m` is exactly its own quantised `memory_share`, so
    /// the interference term is `1`. The general loop would therefore
    /// advance time by exactly each remaining duration, and nothing can
    /// join the stream before it ends. The in-flight kernel ends after its
    /// remaining time, and the rest of the duration buffer runs through
    /// [`LoneRun::run`], the fold [`Engine::run_lone`] uses too: the same
    /// bits, fault draw order, event count and trace spans as that loop.
    fn run_lone_stream(&mut self) -> StreamCompletion {
        debug_assert!(self.running.len() == 1 && self.pending.is_empty());
        let r = self.running[0];
        debug_assert_eq!(self.u_c.to_bits(), r.profile.compute_share.to_bits());
        debug_assert_eq!(self.u_m.to_bits(), r.profile.memory_share.to_bits());
        debug_assert_uncontended(&r.profile);
        let (idx, started_ms) = (r.stream, r.started_ms);
        self.time_ms += r.remaining;
        self.remove_running(0);
        self.record_retired_kernel(idx, started_ms);
        let s = &mut self.streams[idx];
        if cfg!(debug_assertions) {
            s.profiles[s.next..]
                .iter()
                .for_each(debug_assert_uncontended);
        }
        let mut lone = LoneRun {
            t: self.time_ms,
            ran: 0,
        };
        let mut spans = self.trace.as_mut().map(|out| LoneSpans {
            out,
            stream: idx,
            kernels: &s.kernels,
            gpu: &self.gpu,
        });
        lone.run(
            &s.durations[s.next..],
            s.next,
            self.faults.as_mut(),
            &mut self.fault_spikes,
            spans.as_mut(),
        );
        s.next = s.durations.len();
        self.time_ms = lone.t;
        self.events += lone.ran;
        self.retire_stream(idx);
        let s = &self.streams[idx];
        StreamCompletion {
            id: StreamId(idx),
            start_ms: s.start_ms,
            end_ms: self.time_ms,
        }
    }

    /// Drop position `pos` from the running set (the `swap_remove` order
    /// is part of the determinism contract — it fixes which entry the
    /// retire sweep rescans).
    fn remove_running(&mut self, pos: usize) {
        let r = self.running.swap_remove(pos);
        self.u_c -= r.profile.compute_share;
        self.u_m -= r.profile.memory_share;
        if self.running.is_empty() {
            // Exact share arithmetic already lands on zero; snapping guards
            // the sign of zero and keeps the invariant self-evident.
            self.u_c = 0.0;
            self.u_m = 0.0;
        }
    }

    /// Recompute every running kernel's slowdown under the current
    /// aggregates `U_c`/`U_m`.
    fn refresh_slowdowns(&mut self) {
        let (u_m, over_c, over_m) = (self.u_m, self.u_c.max(1.0), self.u_m.max(1.0));
        for r in &mut self.running {
            let p = &r.profile;
            r.slowdown = slowdown_one(
                u_m,
                over_c,
                over_m,
                p.t_compute_ms,
                p.t_memory_ms,
                p.memory_share,
                p.exec_ms,
            );
        }
    }

    /// Advance until the next stream completes; returns its record, or
    /// `None` when the engine is idle.
    pub fn step(&mut self) -> Option<StreamCompletion> {
        loop {
            self.activate_due_streams();
            if self.running.is_empty() {
                // Jump to the next pending start, if any.
                let (start_ms, _) = self.pending.peek()?;
                self.time_ms = start_ms;
                continue;
            }
            if self.running.len() == 1 && self.pending.is_empty() {
                return Some(self.run_lone_stream());
            }
            self.refresh_slowdowns();
            // Time until the first kernel in flight completes.
            let mut dt = f64::INFINITY;
            for r in &self.running {
                let t = r.remaining * r.slowdown;
                if t < dt {
                    dt = t;
                }
            }
            // A pending start may preempt the completion horizon.
            if let Some((start_ms, _)) = self.pending.peek() {
                let until_start = start_ms - self.time_ms;
                if until_start < dt {
                    // Advance everyone to the start instant, then loop to
                    // activate and re-derive rates.
                    self.advance(until_start);
                    continue;
                }
            }
            self.advance(dt);
            // Retire all kernels that just finished (ties possible).
            let mut completed_stream = None;
            let mut pos = 0;
            while pos < self.running.len() {
                let r = self.running[pos];
                let idx = r.stream;
                if r.remaining <= RETIRE_EPSILON_MS {
                    self.remove_running(pos);
                    self.record_retired_kernel(idx, r.started_ms);
                    self.start_next_kernel(idx);
                    if self.streams[idx].end_ms.is_some() && completed_stream.is_none() {
                        completed_stream = Some(idx);
                    }
                    // swap_remove reordered; restart scan from same pos.
                } else {
                    pos += 1;
                }
            }
            if let Some(idx) = completed_stream {
                let s = &self.streams[idx];
                return Some(StreamCompletion {
                    id: StreamId(idx),
                    start_ms: s.start_ms,
                    end_ms: s.end_ms.unwrap(),
                });
            }
        }
    }

    /// Move simulated time forward by `dt` ms, draining each running
    /// kernel's remaining solo time at its current rate.
    fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        if dt == 0.0 {
            return;
        }
        self.time_ms += dt;
        for r in &mut self.running {
            r.remaining -= dt / r.slowdown;
            if r.remaining < 0.0 {
                r.remaining = 0.0;
            }
        }
    }

    /// Run every stream to completion.
    pub fn run_until_idle(&mut self) {
        while self.step().is_some() {}
    }

    /// Completions of all finished streams, in stream-id order, appended to
    /// `out` (which is cleared first). Non-allocating in the steady state —
    /// the executor calls this once per group with a reused buffer.
    pub fn completions_into(&self, out: &mut Vec<StreamCompletion>) {
        out.clear();
        out.extend(self.streams.iter().enumerate().filter_map(|(i, s)| {
            s.end_ms.map(|end| StreamCompletion {
                id: StreamId(i),
                start_ms: s.start_ms,
                end_ms: end,
            })
        }));
    }

    /// Completions of all finished streams, in stream-id order.
    pub fn completions(&self) -> Vec<StreamCompletion> {
        let mut out = Vec::new();
        self.completions_into(&mut out);
        out
    }

    /// Summarise a finished run as a [`GroupResult`].
    ///
    /// # Panics
    /// Panics if any stream has not completed yet.
    pub fn group_result(&self) -> GroupResult {
        let completions = self.completions();
        assert_eq!(
            completions.len(),
            self.streams.len(),
            "group_result requires all streams to have completed"
        );
        let min_start = completions
            .iter()
            .map(|c| c.start_ms)
            .fold(f64::INFINITY, f64::min);
        let max_end = completions.iter().map(|c| c.end_ms).fold(0.0, f64::max);
        GroupResult {
            total_ms: if completions.is_empty() {
                0.0
            } else {
                max_end - min_start
            },
            completions,
        }
    }
}

/// `items` copied into a buffer from `pool`, or a new one when it is empty.
fn pooled_copy<T: Copy>(pool: &mut Vec<Vec<T>>, items: &[T]) -> Vec<T> {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(items);
    buf
}

/// Keep `buf`'s allocation in `pool`, up to [`SPARE_POOL_CAP`] buffers.
fn pool_buffer<T>(pool: &mut Vec<Vec<T>>, buf: Vec<T>) {
    if buf.capacity() > 0 && pool.len() < SPARE_POOL_CAP {
        pool.push(buf);
    }
}

/// Start the next kernel that takes time of a stream whose kernel
/// durations are `durations` and whose cursor is `next`, at `now_ms`: its
/// index and duration, or `None` once no kernels are left. Advances the
/// cursor past it and past any degenerate zero-cost kernels before it,
/// each of which still draws its spike ([`spiked`]). The general event
/// loop's kernel start.
#[inline]
fn start_next(
    durations: &[f64],
    next: &mut usize,
    mut faults: Option<&mut KernelFaultState>,
    spikes: &mut u64,
    now_ms: f64,
) -> Option<(usize, f64)> {
    loop {
        let k = *next;
        let dur = spiked(*durations.get(k)?, faults.as_deref_mut(), spikes, now_ms);
        *next = k + 1;
        if dur > 0.0 {
            return Some((k, dur));
        }
    }
}

/// The duration of a kernel of noisy duration `dur` that starts at
/// `now_ms`: with a fault regime, one spike draw per kernel start,
/// zero-cost kernels included (counted in `spikes` when it perturbs the
/// kernel). The one definition of the fault draw protocol, shared by the
/// general event loop and the lone-stream closed form.
#[inline]
fn spiked(dur: f64, faults: Option<&mut KernelFaultState>, spikes: &mut u64, now_ms: f64) -> f64 {
    match faults {
        // Separate draw stream: installed-but-never-spiking specs leave
        // `dur` — and the whole run — bit-identical.
        Some(f) => {
            let sf = f.spike_factor(now_ms);
            if sf != 1.0 {
                *spikes += 1;
            }
            dur * sf
        }
        None => dur,
    }
}

/// A lone stream run in closed form: its clock, and how many of its
/// kernels have taken time (one event each).
struct LoneRun {
    t: f64,
    ran: u64,
}

/// Where a traced lone stream's kernel spans go.
struct LoneSpans<'a> {
    out: &'a mut Vec<KernelSpan>,
    /// The stream's slot.
    stream: usize,
    /// The stream's kernels, indexed by kernel index.
    kernels: &'a [KernelDesc],
    gpu: &'a GpuSpec,
}

impl LoneRun {
    /// Run back to back the kernels `first ..` of a lone stream, whose
    /// noisy durations are `durations`, from the clock. The one fold of
    /// both lone-stream paths ([`Engine::run_lone`] block by block,
    /// `Engine::run_lone_stream` over the rest of a duration buffer).
    ///
    /// Without faults or spans it is a flat left-to-right sum: a zero-cost
    /// kernel's duration is `+0.0`, and adding it leaves the
    /// (non-negative) clock's bits unchanged, so the sum needs no branch to
    /// skip it; it only does not count as an event. With faults and no
    /// spans, each block of [`LONE_BLOCK`] kernels is first folded on the
    /// guess that all of them start inside the fault window
    /// ([`LoneRun::fold_in_window`]). Otherwise, or where the guess fails,
    /// each kernel draws its spike ([`spiked`]) at the clock, and one that
    /// takes time advances it and records its span, as [`start_next`] does
    /// in the general loop.
    #[inline]
    fn run(
        &mut self,
        durations: &[f64],
        first: usize,
        faults: Option<&mut KernelFaultState>,
        spikes: &mut u64,
        spans: Option<&mut LoneSpans<'_>>,
    ) {
        if faults.is_none() && spans.is_none() {
            for &d in durations {
                self.t += d;
                self.ran += u64::from(d > 0.0);
            }
            return;
        }
        match (faults, spans) {
            (Some(f), None) if f.folds_in_window() => {
                for (b, block) in durations.chunks(LONE_BLOCK).enumerate() {
                    if !self.fold_in_window(block, f, spikes) {
                        self.run_each(block, first + b * LONE_BLOCK, Some(f), spikes, None);
                    }
                }
            }
            (faults, spans) => self.run_each(durations, first, faults, spikes, spans),
        }
    }

    /// Fold `durations` as if every kernel started inside the fault window:
    /// one in-window draw per kernel from the same stream in the same
    /// order, and the clock advanced by `duration · multiplier` left to
    /// right. Then check that the first kernel starts at or after the
    /// window's start and the last one before its end. The clock never
    /// moves back and adding the time base rounds monotonically, so every
    /// kernel between them started inside the window too, and the fold
    /// drew and summed what the per-kernel path would have. When a check
    /// fails, the draw stream is rewound, the run is left as it was, and
    /// `false` is returned.
    ///
    /// Exact only when [`KernelFaultState::folds_in_window`] holds: a
    /// kernel the per-kernel path skips then adds `+0.0` (or `-0.0`),
    /// which leaves the non-negative clock's bits unchanged.
    #[inline]
    fn fold_in_window(
        &mut self,
        durations: &[f64],
        f: &mut KernelFaultState,
        spikes: &mut u64,
    ) -> bool {
        let Some((&last, init)) = durations.split_last() else {
            return true;
        };
        if !f.in_window(self.t) {
            return false;
        }
        let saved = f.clone();
        let (mut t, mut ran, mut spiked) = (self.t, self.ran, 0);
        let mut step = |t: &mut f64, d: f64| {
            let sf = f.spike_factor_in_window();
            spiked += u64::from(sf != 1.0);
            let dur = d * sf;
            *t += dur;
            ran += u64::from(dur > 0.0);
        };
        for &d in init {
            step(&mut t, d);
        }
        let t_last = t;
        step(&mut t, last);
        if !f.in_window(t_last) {
            *f = saved;
            return false;
        }
        self.t = t;
        self.ran = ran;
        *spikes += spiked;
        true
    }

    /// The per-kernel path: each kernel draws its spike at the clock, and
    /// one that takes time advances the clock and records its span.
    fn run_each(
        &mut self,
        durations: &[f64],
        first: usize,
        mut faults: Option<&mut KernelFaultState>,
        spikes: &mut u64,
        mut spans: Option<&mut LoneSpans<'_>>,
    ) {
        for (i, &d) in durations.iter().enumerate() {
            let dur = spiked(d, faults.as_deref_mut(), spikes, self.t);
            if dur > 0.0 {
                let start_ms = self.t;
                self.t += dur;
                self.ran += 1;
                if let Some(s) = spans.as_deref_mut() {
                    let k = first + i;
                    let span = kernel_span(s.stream, k, &s.kernels[k], start_ms, self.t, s.gpu);
                    s.out.push(span);
                }
            }
        }
    }
}

/// Debug check of the lone-stream closed form's precondition: `p` running
/// alone — the aggregates `U_c`/`U_m` are its own shares — has a slowdown
/// of exactly `1.0`.
#[inline]
fn debug_assert_uncontended(p: &RunningKernel) {
    debug_assert_eq!(
        slowdown_one(
            p.memory_share,
            p.compute_share.max(1.0),
            p.memory_share.max(1.0),
            p.t_compute_ms,
            p.t_memory_ms,
            p.memory_share,
            p.exec_ms,
        )
        .to_bits(),
        1.0f64.to_bits(),
        "lone kernel is contended: {p:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::sequence_solo_ms;

    fn gpu() -> GpuSpec {
        GpuSpec::a100()
    }

    fn small_kernel() -> KernelDesc {
        // ~20% of block slots (~45% achieved compute), compute-bound.
        KernelDesc::new(2e9, 1e7, 0.2 * gpu().block_slots())
    }

    fn big_kernel() -> KernelDesc {
        // Saturating, compute-bound.
        KernelDesc::new(2e10, 1e7, 4.0 * gpu().block_slots())
    }

    /// A launch-only kernel with an exact, contention-free duration.
    fn launch_only(launch_ms: f64) -> KernelDesc {
        KernelDesc {
            flops: 0.0,
            bytes: 0.0,
            blocks: 1.0,
            launch_ms,
        }
    }

    #[test]
    fn solo_stream_matches_analytic_sum() {
        let ks = vec![small_kernel(); 10];
        let expected = sequence_solo_ms(&ks, &gpu());
        let r = crate::run_group(&gpu(), &NoiseModel::disabled(), 0, &[ks]);
        assert!(
            (r.total_ms - expected).abs() < 1e-6,
            "{} vs {expected}",
            r.total_ms
        );
    }

    #[test]
    fn under_occupied_overlap_is_nearly_free() {
        let ks = vec![small_kernel(); 10];
        let solo = sequence_solo_ms(&ks, &gpu());
        let r = crate::run_group(
            &gpu(),
            &NoiseModel::disabled(),
            0,
            &[ks.clone(), ks.clone()],
        );
        // Two 30%-occupancy streams together: total stays close to solo.
        assert!(r.total_ms < 1.10 * solo, "{} vs {solo}", r.total_ms);
        assert!(r.total_ms >= solo - 1e-9);
    }

    #[test]
    fn saturating_overlap_time_shares() {
        let ks = vec![big_kernel(); 6];
        let solo = sequence_solo_ms(&ks, &gpu());
        let r = crate::run_group(
            &gpu(),
            &NoiseModel::disabled(),
            0,
            &[ks.clone(), ks.clone()],
        );
        // Two saturating streams: ~2x solo.
        assert!(
            (r.total_ms / solo - 2.0).abs() < 0.1,
            "{} vs {solo}",
            r.total_ms
        );
    }

    #[test]
    fn determinism_same_seed() {
        let streams = vec![vec![small_kernel(); 8], vec![big_kernel(); 3]];
        let a = crate::run_group(&gpu(), &NoiseModel::calibrated(), 7, &streams);
        let b = crate::run_group(&gpu(), &NoiseModel::calibrated(), 7, &streams);
        assert_eq!(a, b);
    }

    #[test]
    fn noise_across_seeds_is_small_and_centred() {
        let streams = vec![vec![small_kernel(); 8], vec![big_kernel(); 3]];
        let base = crate::run_group(&gpu(), &NoiseModel::disabled(), 0, &streams).total_ms;
        let samples: Vec<f64> = (0..200)
            .map(|s| crate::run_group(&gpu(), &NoiseModel::calibrated(), s, &streams).total_ms)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        let cv = std / mean;
        assert!((mean / base - 1.0).abs() < 0.02, "mean {mean} base {base}");
        assert!(cv > 0.02 && cv < 0.06, "cv {cv}");
    }

    #[test]
    fn delayed_stream_starts_on_time() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[small_kernel(); 2], 5.0);
        let c = e.step().unwrap();
        assert!((c.start_ms - 5.0).abs() < 1e-12);
        assert!(c.end_ms > 5.0);
    }

    #[test]
    fn step_yields_completions_in_time_order() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[small_kernel(); 2], 0.0);
        e.add_stream(&[small_kernel(); 20], 0.0);
        e.add_stream(&[small_kernel(); 6], 1.0);
        let mut ends = Vec::new();
        while let Some(c) = e.step() {
            ends.push(c.end_ms);
        }
        assert_eq!(ends.len(), 3);
        for w in ends.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        assert!(e.is_idle());
    }

    #[test]
    fn empty_stream_completes_at_start() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[], 3.0);
        e.add_stream(&[small_kernel()], 0.0);
        e.run_until_idle();
        let r = e.group_result();
        let empty = r.completions.iter().find(|c| c.id == StreamId(0)).unwrap();
        assert_eq!(empty.start_ms, 3.0);
        assert_eq!(empty.end_ms, 3.0);
    }

    #[test]
    fn mid_run_arrival_slows_running_stream() {
        // Stream A alone vs stream A with B arriving halfway.
        let a = vec![big_kernel(); 4];
        let solo =
            crate::run_group(&gpu(), &NoiseModel::disabled(), 0, std::slice::from_ref(&a)).total_ms;
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&a, 0.0);
        e.add_stream(&[big_kernel(); 4], solo / 2.0);
        e.run_until_idle();
        let r = e.group_result();
        let a_end = r.completions[0].end_ms;
        assert!(a_end > solo * 1.2, "a_end {a_end} solo {solo}");
    }

    #[test]
    fn group_latency_bounded_by_sequential() {
        // Overlap can never be slower than running the streams back-to-back
        // (plus the small interference margin).
        let s1 = vec![small_kernel(); 12];
        let s2 = vec![big_kernel(); 4];
        let seq = sequence_solo_ms(&s1, &gpu()) + sequence_solo_ms(&s2, &gpu());
        let r = crate::run_group(&gpu(), &NoiseModel::disabled(), 0, &[s1, s2]);
        assert!(r.total_ms <= seq * 1.15, "{} vs seq {seq}", r.total_ms);
    }

    #[test]
    fn trace_records_every_kernel_interval() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.enable_trace();
        e.add_stream(&[small_kernel(); 5], 0.0);
        e.add_stream(&[big_kernel(); 3], 0.1);
        e.run_until_idle();
        let trace = e.trace();
        assert_eq!(trace.len(), 8);
        // Per stream: intervals are contiguous and ordered.
        for sid in 0..2 {
            let spans: Vec<_> = trace.iter().filter(|s| s.stream == StreamId(sid)).collect();
            for w in spans.windows(2) {
                assert!(w[0].end_ms <= w[1].start_ms + 1e-9);
                assert_eq!(w[0].kernel + 1, w[1].kernel);
            }
            for s in &spans {
                assert!(s.end_ms > s.start_ms);
            }
        }
        // Cross-stream overlap actually happened (the whole point).
        let a_last = trace
            .iter()
            .filter(|s| s.stream == StreamId(0))
            .map(|s| s.end_ms)
            .fold(0.0, f64::max);
        let b_first = trace
            .iter()
            .filter(|s| s.stream == StreamId(1))
            .map(|s| s.start_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(b_first < a_last, "streams never overlapped");
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[small_kernel()], 0.0);
        e.run_until_idle();
        assert!(e.trace().is_empty());
    }

    #[test]
    fn stream_ms_accounts_own_start() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[small_kernel(); 2], 10.0);
        e.run_until_idle();
        let r = e.group_result();
        let dur = r.stream_ms(0);
        let solo = sequence_solo_ms(&[small_kernel(); 2], &gpu());
        assert!((dur - solo).abs() < 1e-9);
    }

    #[test]
    fn reset_is_bit_identical_to_fresh_engine() {
        let run = |e: &mut Engine, seed: u64| {
            e.add_stream(&[small_kernel(); 5], 0.0);
            e.add_stream(&[big_kernel(); 3], 0.5);
            e.add_stream(&[small_kernel(); 2], 0.5); // equal-start tie
            e.run_until_idle();
            let _ = seed;
            e.group_result()
        };
        let mut reused = Engine::new(gpu(), NoiseModel::calibrated(), 11);
        let first = run(&mut reused, 11);
        for seed in [11u64, 42, 7] {
            reused.reset(seed);
            let again = run(&mut reused, seed);
            let mut fresh = Engine::new(gpu(), NoiseModel::calibrated(), seed);
            let expect = run(&mut fresh, seed);
            assert_eq!(again, expect, "reset diverged from fresh at seed {seed}");
        }
        reused.reset(11);
        assert_eq!(run(&mut reused, 11), first);
    }

    #[test]
    fn reset_with_retargets_gpu_and_noise() {
        let streams = [vec![small_kernel(); 4], vec![big_kernel(); 2]];
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        let noisy = NoiseModel::calibrated();
        e.reset_with(&gpu(), &noisy, 9);
        for s in &streams {
            e.add_stream(s, 0.0);
        }
        e.run_until_idle();
        let r = e.group_result();
        let mut fresh = Engine::new(gpu(), noisy, 9);
        for s in &streams {
            fresh.add_stream(s, 0.0);
        }
        fresh.run_until_idle();
        assert_eq!(r, fresh.group_result());
    }

    #[test]
    fn open_loop_run_reuses_retired_slots() {
        // Open-loop run: 60 arrivals, each added once the clock reaches it,
        // at most a few live at once. Retired slots go to later arrivals,
        // so `streams` stays bounded while every arrival still completes
        // once, in time order, no earlier than it arrived. (The golden
        // open-loop suite pins these completions bit for bit against the
        // reference engine, which never reuses a slot.)
        let arrivals: Vec<f64> = (0..60).map(|i| i as f64 * 0.4).collect();
        let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 3);
        let mut done = Vec::new();
        let mut next = 0;
        loop {
            while next < arrivals.len() && arrivals[next] <= e.now() + 1e-9 {
                e.add_stream(&[small_kernel(), big_kernel()], arrivals[next]);
                next += 1;
            }
            if next < arrivals.len() && e.is_idle() {
                e.add_stream(&[small_kernel(), big_kernel()], arrivals[next]);
                next += 1;
            }
            match e.step() {
                Some(c) => done.push((c.start_ms, c.end_ms)),
                None if next >= arrivals.len() => break,
                None => {}
            }
        }
        assert_eq!(done.len(), arrivals.len());
        for w in done.windows(2) {
            assert!(w[0].1 <= w[1].1, "completions out of time order");
        }
        let mut starts: Vec<f64> = done.iter().map(|&(start, _)| start).collect();
        starts.sort_by(f64::total_cmp);
        assert!(starts.iter().zip(&arrivals).all(|(s, a)| s >= a));
        assert!(done.iter().all(|&(start, end)| end > start));
        assert!(
            e.streams.len() < arrivals.len() / 2,
            "kept {} slots for {} arrivals",
            e.streams.len(),
            arrivals.len()
        );
    }

    #[test]
    fn completions_into_matches_completions() {
        let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 5);
        e.add_stream(&[small_kernel(); 3], 0.0);
        e.add_stream(&[big_kernel(); 2], 1.0);
        e.run_until_idle();
        let mut buf = vec![StreamCompletion {
            id: StreamId(99),
            start_ms: -1.0,
            end_ms: -1.0,
        }];
        e.completions_into(&mut buf);
        assert_eq!(buf, e.completions());
    }

    #[test]
    fn zero_prob_fault_spec_is_bit_identical_to_none() {
        // An installed spec that never fires must not perturb anything:
        // the spike stream is separate from the noise factors.
        let streams = vec![vec![small_kernel(); 8], vec![big_kernel(); 3]];
        let run = |spec: Option<KernelFaultSpec>| {
            let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 17);
            e.set_kernel_faults(spec);
            for s in &streams {
                e.add_stream(s, 0.0);
            }
            e.run_until_idle();
            e.group_result()
        };
        let clean = run(None);
        let armed_but_silent = run(Some(KernelFaultSpec::always(99, 0.0, 5.0)));
        assert_eq!(clean, armed_but_silent);
    }

    #[test]
    fn certain_spike_scales_solo_stream() {
        // prob = 1 with noise disabled: every kernel is exactly `factor`
        // slower, so a solo stream's duration scales exactly.
        let ks = vec![small_kernel(); 6];
        let base = crate::run_group(
            &gpu(),
            &NoiseModel::disabled(),
            0,
            std::slice::from_ref(&ks),
        )
        .total_ms;
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.set_kernel_faults(Some(KernelFaultSpec::always(3, 1.0, 2.5)));
        e.add_stream(&ks, 0.0);
        e.run_until_idle();
        let spiked = e.group_result().total_ms;
        assert!(
            (spiked - base * 2.5).abs() < 1e-9,
            "{spiked} vs {}",
            base * 2.5
        );
    }

    #[test]
    fn fault_injection_is_deterministic_across_reset() {
        let streams = vec![vec![small_kernel(); 10], vec![big_kernel(); 4]];
        let spec = KernelFaultSpec::always(7, 0.3, 3.0);
        let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 5);
        e.set_kernel_faults(Some(spec));
        let run = |e: &mut Engine| {
            for s in &streams {
                e.add_stream(s, 0.0);
            }
            e.run_until_idle();
            e.group_result()
        };
        let first = run(&mut e);
        e.reset(5);
        assert_eq!(run(&mut e), first);
        // A fresh engine with the spec installed before running matches too.
        let mut fresh = Engine::new(gpu(), NoiseModel::calibrated(), 5);
        fresh.set_kernel_faults(Some(spec));
        assert_eq!(run(&mut fresh), first);
        // And the spikes actually bite.
        let mut clean = Engine::new(gpu(), NoiseModel::calibrated(), 5);
        let base = run(&mut clean);
        assert!(first.total_ms > base.total_ms);
    }

    #[test]
    fn fault_window_outside_run_changes_nothing() {
        let streams = vec![vec![small_kernel(); 8]];
        let spec = KernelFaultSpec {
            seed: 1,
            window_start_ms: 1e9,
            window_end_ms: f64::INFINITY,
            prob: 1.0,
            factor: 10.0,
        };
        let run = |spec: Option<KernelFaultSpec>| {
            let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 2);
            e.set_kernel_faults(spec);
            for s in &streams {
                e.add_stream(s, 0.0);
            }
            e.run_until_idle();
            e.group_result()
        };
        assert_eq!(run(Some(spec)), run(None));
    }

    /// A compute-only kernel small enough that a few co-running copies see
    /// a slowdown of exactly 1, so each kernel's duration is its own noisy
    /// solo time whatever runs beside it.
    fn light_kernel() -> KernelDesc {
        KernelDesc::new(1e8, 0.0, 64.0)
    }

    #[test]
    fn equal_start_streams_draw_by_add_ordinal() {
        // Equal starts activate newest first, but each stream's factor is
        // keyed by its add ordinal, so the activation order does not move
        // any duration.
        let noise = NoiseModel::calibrated();
        let k = light_kernel();
        let session = noise.session_factor(13);
        let mut e = Engine::new(gpu(), noise.clone(), 13);
        for _ in 0..3 {
            e.add_stream(&[k], 2.0);
        }
        e.run_until_idle();
        let r = e.group_result();
        for i in 0..3 {
            let kf = noise.kernel_factor(stream_key(13, i as u64), 0);
            let expect = k.solo_ms(&gpu()) * session * kf;
            let got = r.stream_ms(i);
            assert!(
                (got - expect).abs() < 1e-12,
                "stream {i}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn stream_factors_ignore_co_runners_and_slot() {
        // The same stream, added second to a seed-21 run, three ways: alone
        // in slot 1, co-running with the first stream in slot 1, and alone
        // in the first stream's recycled slot 0. Its duration buffer holds
        // `(launch + exec) · session · kernel_factor(key, k)` bits each
        // time, and so do its kernels' spans.
        let noise = NoiseModel::calibrated();
        let x = [
            light_kernel(),
            launch_only(0.0),
            light_kernel(),
            launch_only(0.004),
        ]
        .repeat(5);
        let y = [light_kernel(); 4];
        let session = noise.session_factor(21);
        let want: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(k, kernel)| {
                let exec = RunningKernel::profile(kernel, &gpu()).exec_ms;
                (kernel.launch_ms + exec)
                    * session
                    * noise.kernel_factor(stream_key(21, 1), k as u64)
            })
            .collect();
        // Zero-cost kernels leave no span.
        let taking_time: Vec<f64> = want.iter().copied().filter(|&d| d > 0.0).collect();
        assert!(taking_time.len() < want.len());
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let durations = |e: &mut Engine, id: StreamId| {
            assert_eq!(bits(&e.streams[id.0].durations), bits(&want));
            e.run_until_idle();
            let spans: Vec<f64> = e
                .trace()
                .iter()
                .filter(|s| s.stream == id)
                .map(|s| s.end_ms - s.start_ms)
                .collect();
            spans[spans.len() - taking_time.len()..].to_vec()
        };
        let engine = || {
            let mut e = Engine::new(gpu(), noise.clone(), 21);
            e.enable_trace();
            e
        };
        let mut alone = engine();
        alone.add_stream(&[], 0.0);
        let id = alone.add_stream(&x, 0.0);
        assert_eq!(id, StreamId(1));
        let alone = durations(&mut alone, id);
        let mut co_run = engine();
        co_run.add_stream(&y, 0.0);
        let id = co_run.add_stream(&x, 0.0);
        assert_eq!(id, StreamId(1));
        let co_run = durations(&mut co_run, id);
        let mut recycled = engine();
        recycled.add_stream(&y, 0.0);
        recycled.run_until_idle();
        let id = recycled.add_stream(&x, recycled.now());
        assert_eq!(id, StreamId(0));
        let recycled = durations(&mut recycled, id);
        for (how, got) in [("alone", alone), ("co-run", co_run), ("recycled", recycled)] {
            for (k, (got, expect)) in got.iter().zip(&taking_time).enumerate() {
                assert!(
                    (got / expect - 1.0).abs() < 1e-12,
                    "{how} kernel {k}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn activation_slack_boundary() {
        let d = 1e-3;
        // A start within ACTIVATION_SLACK_MS of the event at `d` is
        // activated there: the empty stream completes at the event time,
        // a hair *before* its own nominal start.
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[launch_only(d)], 0.0);
        e.add_stream(&[], d + ACTIVATION_SLACK_MS);
        e.run_until_idle();
        let r = e.group_result();
        assert_eq!(r.completions[1].start_ms, d + ACTIVATION_SLACK_MS);
        assert_eq!(r.completions[1].end_ms, d);
        // A start just past the slack is not picked up at `d`; the idle
        // engine jumps to the exact start instead.
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[launch_only(d)], 0.0);
        e.add_stream(&[], d + 3.0 * ACTIVATION_SLACK_MS);
        e.run_until_idle();
        let r = e.group_result();
        assert_eq!(r.completions[1].end_ms, d + 3.0 * ACTIVATION_SLACK_MS);
    }

    #[test]
    fn retire_epsilon_boundary() {
        let d = 1e-3;
        // A kernel left with less than RETIRE_EPSILON_MS of solo time
        // after an event retires *at* that event (near-tie collapse)...
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[launch_only(d)], 0.0);
        e.add_stream(&[launch_only(d + 0.5 * RETIRE_EPSILON_MS)], 0.0);
        e.run_until_idle();
        let r = e.group_result();
        assert_eq!(r.completions[0].end_ms, d);
        assert_eq!(
            r.completions[1].end_ms, d,
            "near-tie must collapse to one event"
        );
        // ...while one with more than the epsilon left survives to its own
        // completion event.
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(&[launch_only(d)], 0.0);
        e.add_stream(&[launch_only(d + 2.0 * RETIRE_EPSILON_MS)], 0.0);
        e.run_until_idle();
        let r = e.group_result();
        assert_eq!(r.completions[0].end_ms, d);
        let want = d + 2.0 * RETIRE_EPSILON_MS;
        assert!(
            (r.completions[1].end_ms - want).abs() < 1e-15,
            "{} vs {want}",
            r.completions[1].end_ms
        );
    }

    #[test]
    fn core_stats_track_depth_and_backlog() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        assert_eq!(e.core_stats(), EngineCoreStats::default());
        for i in 0..3 {
            e.add_stream(&[small_kernel(); 2], i as f64 * 1e-3);
        }
        e.run_until_idle();
        let stats = e.core_stats();
        assert_eq!(stats.max_active, 3);
        assert_eq!(stats.pending_peak, 3);
        e.reset(0);
        assert_eq!(e.core_stats(), EngineCoreStats::default());
    }
}
