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
//! The per-event hot loop runs over struct-of-arrays state: the in-flight
//! set is `active[pos]` (stream slots) with parallel `f64` arrays for
//! remaining solo time, kernel start stamps, the contention-profile fields
//! and the current slowdowns. The three per-event passes — slowdown
//! evaluation, completion-horizon scan and time decrement — stream through
//! those arrays with runtime-dispatched SIMD ([`crate::simd`]); slowdowns
//! are refreshed *incrementally*: a full vector recompute only when the
//! aggregate utilisations `U_c`/`U_m` changed bits, otherwise only entries
//! whose own kernel changed. Pending arrivals wait in a calendar queue
//! with a sorted-`Vec` fallback ([`crate::pqueue`]). All of it is
//! bit-identical to the scalar reference engine pinned by
//! `tests/golden_engine.rs` — decrement order, tie-breaking and RNG draw
//! order are part of the contract (see DESIGN.md §11).
//!
//! # Lone-stream closed form
//!
//! Most serving events have exactly one kernel in flight (single-query
//! groups, and the single-stream tail of every wider group). When one
//! kernel runs and no arrival is pending, [`Engine::step`] skips the SoA
//! passes and runs that stream to completion in a scalar loop: the
//! in-flight kernel ends after its remaining time, and each later kernel
//! adds its noisy duration. An uncontended kernel's slowdown is exactly
//! `1.0` (see `Engine::run_lone_stream`), so this sum is the same bits the
//! general loop produces. Both paths draw kernels through one helper, so
//! the draw protocol has a single definition.

use crate::contention::{slowdown_one, RunningKernel};
use crate::faults::{KernelFaultSpec, KernelFaultState};
use crate::gpu::GpuSpec;
use crate::kernel::KernelDesc;
use crate::noise::NoiseModel;
use crate::pqueue::PendingQueue;
use crate::simd::SimdTier;
use workload::SeededRng;

/// Upper bound on retired kernel buffers kept for reuse (see
/// [`Engine::reset`] and slot recycling). Small: each buffer is just
/// capacity, and the steady state of a reset-per-group or recycling
/// workload cycles through a handful.
const SPARE_POOL_CAP: usize = 64;

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

/// Health counters of the event core since the last reset — cheap to read,
/// free to maintain, surfaced through the telemetry registry so bench
/// regressions are diagnosable from the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCoreStats {
    /// Peak number of kernels simultaneously in flight.
    pub max_active: usize,
    /// Peak pending-arrival backlog.
    pub pending_peak: usize,
    /// Calendar-queue bucket count (0 while on the sorted-`Vec` path).
    pub calendar_buckets: usize,
    /// Peak single-bucket occupancy (0 while on the sorted-`Vec` path).
    pub calendar_peak_bucket: usize,
}

impl EngineCoreStats {
    /// Fold `other` into `self`, keeping the element-wise maximum — how a
    /// caller that resets the engine per run (the segmental executor)
    /// accumulates lifetime peaks across the per-run resets.
    pub fn merge_peaks(&mut self, other: &EngineCoreStats) {
        self.max_active = self.max_active.max(other.max_active);
        self.pending_peak = self.pending_peak.max(other.pending_peak);
        self.calendar_buckets = self.calendar_buckets.max(other.calendar_buckets);
        self.calendar_peak_bucket = self.calendar_peak_bucket.max(other.calendar_peak_bucket);
    }
}

#[derive(Debug, Clone)]
struct Stream {
    kernels: Vec<KernelDesc>,
    /// Precomputed contention profiles parallel to `kernels`, or empty when
    /// the caller did not supply any ([`Engine::add_stream`]). Profiles are
    /// a pure function of `(kernel, gpu)`, so a stored profile is
    /// bit-identical to recomputing it at kernel start — callers that replay
    /// the same kernel sequences (the segmental executor) precompute once
    /// and skip the per-start `powf`.
    profiles: Vec<RunningKernel>,
    next: usize,
    start_ms: f64,
    end_ms: Option<f64>,
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
    rng: SeededRng,
    session_factor: f64,
    time_ms: f64,
    streams: Vec<Stream>,
    /// Streams not yet started (calendar queue / sorted-`Vec` hybrid).
    pending: PendingQueue,
    /// Stream slots with a kernel in flight. The arrays below are SoA
    /// state parallel to it, maintained in lockstep (push on kernel
    /// start, `swap_remove` on retire).
    active: Vec<usize>,
    /// Remaining noisy solo-time of each running kernel, ms.
    remaining: Vec<f64>,
    /// When each running kernel started executing (trace only).
    started: Vec<f64>,
    /// Contention profile, split per field: compute-limited time.
    k_t_compute: Vec<f64>,
    /// Memory-limited time.
    k_t_memory: Vec<f64>,
    /// Compute share (enters `U_c`).
    k_c_share: Vec<f64>,
    /// Memory share (enters `U_m` and the interference term).
    k_m_share: Vec<f64>,
    /// Solo execution time (max of the rooflines).
    k_exec: Vec<f64>,
    /// Current slowdown of each running kernel.
    slowdowns: Vec<f64>,
    /// Entries of `slowdowns` not yet computed for the current set.
    stale: Vec<bool>,
    /// Whether any `stale` flag is set (cheap gate on the scan).
    any_stale: bool,
    /// Whether `slowdowns`/`last_u_*` hold values at all (false right
    /// after construction/reset).
    slow_valid: bool,
    /// Aggregates the non-stale `slowdowns` entries were computed under.
    last_u_c: f64,
    last_u_m: f64,
    /// Incremental Σ compute_share over the running set. Shares are
    /// quantised (see [`crate::contention`]), so this equals re-summing
    /// bit for bit.
    u_c: f64,
    /// Incremental Σ memory_share over the running set.
    u_m: f64,
    /// Retired stream slots available for reuse (slot recycling only).
    free_slots: Vec<usize>,
    /// Retired kernel buffers kept to serve [`Engine::add_stream_slice`]
    /// without allocating.
    spare_kernels: Vec<Vec<KernelDesc>>,
    /// Retired profile buffers, pooled like `spare_kernels` for
    /// [`Engine::add_stream_slice_profiled`].
    spare_profiles: Vec<Vec<RunningKernel>>,
    /// When set, retired streams' slots are reused by later arrivals so
    /// long open-loop runs stop growing `streams` unboundedly.
    recycle: bool,
    events: u64,
    /// Fault spike activations (kernels whose duration was actually
    /// perturbed) since the last reset.
    fault_spikes: u64,
    /// Peak size of `active` since the last reset.
    max_active: usize,
    /// Per-kernel execution spans; populated only when tracing is on.
    trace: Option<Vec<KernelSpan>>,
    /// Seed of the current run (recorded so a fault spec installed
    /// mid-lifetime can fork its draw stream consistently).
    run_seed: u64,
    /// Deterministic kernel latency-spike injection; `None` (the default)
    /// leaves the hot path untouched.
    faults: Option<KernelFaultState>,
    /// SIMD tier for the hot-loop kernels, detected once at construction.
    simd: SimdTier,
}

impl Engine {
    /// Create an idle engine at `t = 0`. The session noise factor is drawn
    /// immediately, so the same seed reproduces the same run exactly.
    pub fn new(gpu: GpuSpec, noise: NoiseModel, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let session_factor = noise.session_factor(&mut rng);
        Self {
            gpu,
            noise,
            rng,
            session_factor,
            time_ms: 0.0,
            streams: Vec::new(),
            pending: PendingQueue::default(),
            active: Vec::new(),
            remaining: Vec::new(),
            started: Vec::new(),
            k_t_compute: Vec::new(),
            k_t_memory: Vec::new(),
            k_c_share: Vec::new(),
            k_m_share: Vec::new(),
            k_exec: Vec::new(),
            slowdowns: Vec::new(),
            stale: Vec::new(),
            any_stale: false,
            slow_valid: false,
            last_u_c: 0.0,
            last_u_m: 0.0,
            u_c: 0.0,
            u_m: 0.0,
            free_slots: Vec::new(),
            spare_kernels: Vec::new(),
            spare_profiles: Vec::new(),
            recycle: false,
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
    /// vectors). The RNG and session noise factor are re-derived exactly as
    /// in [`Engine::new`], so a reset engine is bit-identical to a freshly
    /// constructed one — this is what lets the segmental executor run one
    /// group after another without rebuilding the engine.
    pub fn reset(&mut self, seed: u64) {
        self.rng = SeededRng::new(seed);
        self.session_factor = self.noise.session_factor(&mut self.rng);
        self.run_seed = seed;
        if let Some(f) = &mut self.faults {
            f.reseed(seed);
        }
        self.time_ms = 0.0;
        self.events = 0;
        self.fault_spikes = 0;
        self.max_active = 0;
        for s in &mut self.streams {
            let buf = std::mem::take(&mut s.kernels);
            if buf.capacity() > 0 && self.spare_kernels.len() < SPARE_POOL_CAP {
                self.spare_kernels.push(buf);
            }
            let buf = std::mem::take(&mut s.profiles);
            if buf.capacity() > 0 && self.spare_profiles.len() < SPARE_POOL_CAP {
                self.spare_profiles.push(buf);
            }
        }
        self.streams.clear();
        self.pending.clear();
        self.active.clear();
        self.remaining.clear();
        self.started.clear();
        self.k_t_compute.clear();
        self.k_t_memory.clear();
        self.k_c_share.clear();
        self.k_m_share.clear();
        self.k_exec.clear();
        self.slowdowns.clear();
        self.stale.clear();
        self.any_stale = false;
        self.slow_valid = false;
        self.last_u_c = 0.0;
        self.last_u_m = 0.0;
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

    /// Reuse retired streams' slots for later arrivals. Intended for long
    /// open-loop runs ([`crate::engine`] module docs pattern 2): memory
    /// stays bounded by the number of *concurrently live* streams instead
    /// of the total arrival count. [`StreamId`]s are recycled along with
    /// the slots, so callers must consume each completion as
    /// [`Engine::step`] yields it; [`Engine::completions`] and
    /// [`Engine::group_result`] only cover streams whose slot has not been
    /// reused yet.
    pub fn enable_slot_recycling(&mut self) {
        self.recycle = true;
    }

    /// Record every kernel's execution interval. Must be called before any
    /// stream starts executing.
    pub fn enable_trace(&mut self) {
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
        let (calendar_buckets, calendar_peak_bucket) = self.pending.calendar_stats();
        EngineCoreStats {
            max_active: self.max_active,
            pending_peak: self.pending.peak_len(),
            calendar_buckets,
            calendar_peak_bucket,
        }
    }

    /// The GPU this engine simulates.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Add a stream of kernels that may start at `start_ms` (clamped to
    /// now). Empty streams complete instantly at their start time.
    pub fn add_stream(&mut self, kernels: Vec<KernelDesc>, start_ms: f64) -> StreamId {
        self.add_stream_inner(kernels, Vec::new(), start_ms)
    }

    fn add_stream_inner(
        &mut self,
        kernels: Vec<KernelDesc>,
        profiles: Vec<RunningKernel>,
        start_ms: f64,
    ) -> StreamId {
        debug_assert!(profiles.is_empty() || profiles.len() == kernels.len());
        let start_ms = start_ms.max(self.time_ms);
        let stream = Stream {
            kernels,
            profiles,
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

    /// [`Engine::add_stream`] from a borrowed kernel slice: copies into a
    /// retired kernel buffer when one is available instead of allocating.
    /// This is the executor hot path — groups lower to cached kernel
    /// slices which no longer need to be cloned per run.
    pub fn add_stream_slice(&mut self, kernels: &[KernelDesc], start_ms: f64) -> StreamId {
        let mut buf = self.spare_kernels.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(kernels);
        self.add_stream_inner(buf, Vec::new(), start_ms)
    }

    /// [`Engine::add_stream_slice`] with the kernels' contention profiles
    /// precomputed by the caller (one [`RunningKernel::profile`] per
    /// kernel, on this engine's GPU). The per-kernel-start profile
    /// evaluation — the one `powf` left in the event hot path — is then
    /// skipped; since the profile is a pure function of `(kernel, gpu)` the
    /// run is bit-identical to [`Engine::add_stream_slice`] (debug builds
    /// assert this at every kernel start).
    ///
    /// # Panics
    /// Panics if `profiles.len() != kernels.len()`.
    pub fn add_stream_slice_profiled(
        &mut self,
        kernels: &[KernelDesc],
        profiles: &[RunningKernel],
        start_ms: f64,
    ) -> StreamId {
        assert_eq!(kernels.len(), profiles.len(), "one profile per kernel");
        let mut buf = self.spare_kernels.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(kernels);
        let mut pbuf = self.spare_profiles.pop().unwrap_or_default();
        pbuf.clear();
        pbuf.extend_from_slice(profiles);
        self.add_stream_inner(buf, pbuf, start_ms)
    }

    /// True when no stream is running or waiting to start.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.pending.is_empty()
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
        self.active.push(idx);
        self.remaining.push(dur);
        self.started.push(self.time_ms);
        self.k_t_compute.push(profile.t_compute_ms);
        self.k_t_memory.push(profile.t_memory_ms);
        self.k_c_share.push(profile.compute_share);
        self.k_m_share.push(profile.memory_share);
        self.k_exec.push(profile.exec_ms);
        // Placeholder slowdown; `refresh_slowdowns` fills it before
        // any dt-scan or decrement reads it.
        self.slowdowns.push(1.0);
        self.stale.push(true);
        self.any_stale = true;
        self.u_c += profile.compute_share;
        self.u_m += profile.memory_share;
        if self.active.len() > self.max_active {
            self.max_active = self.active.len();
        }
    }

    /// Draw stream `idx`'s next kernel that takes time: its profile and
    /// noisy solo duration, or `None` once the stream has no kernels left.
    /// Advances the stream's cursor past the returned kernel and past any
    /// degenerate zero-cost kernels before it. The one definition of the
    /// per-kernel draw protocol, shared by the general event loop and the
    /// lone-stream closed form.
    fn draw_next_kernel(&mut self, idx: usize) -> Option<(RunningKernel, f64)> {
        loop {
            let s = &mut self.streams[idx];
            let next = s.next;
            let &kernel = s.kernels.get(next)?;
            s.next = next + 1;
            // One profile evaluation serves both the noisy solo duration
            // (launch + exec roofline) and the contention shares; the
            // kernel noise factor is drawn unconditionally so the RNG
            // stream is independent of degenerate zero-cost kernels.
            let profile = match s.profiles.get(next) {
                Some(&p) => {
                    debug_assert_eq!(
                        p,
                        RunningKernel::profile(&kernel, &self.gpu),
                        "precomputed profile diverges from fresh evaluation"
                    );
                    p
                }
                None => RunningKernel::profile(&kernel, &self.gpu),
            };
            let kf = self.noise.kernel_factor(&mut self.rng);
            let mut dur = (kernel.launch_ms + profile.exec_ms) * self.session_factor * kf;
            if let Some(f) = &mut self.faults {
                // Separate draw stream: installed-but-never-spiking specs
                // leave `dur` — and the whole run — bit-identical.
                let sf = f.spike_factor(self.time_ms);
                if sf != 1.0 {
                    self.fault_spikes += 1;
                }
                dur *= sf;
            }
            // A degenerate zero-cost kernel completes instantly.
            if dur > 0.0 {
                return Some((profile, dur));
            }
        }
    }

    /// Stamp stream `idx` complete at the current instant.
    fn retire_stream(&mut self, idx: usize) {
        self.streams[idx].end_ms = Some(self.time_ms);
        if self.recycle {
            // Reclaim the kernel buffer and hand the slot to the next
            // arrival. The completion record (start/end) stays readable
            // until the slot is actually reused, which is after the caller
            // has observed it from `step`.
            let buf = std::mem::take(&mut self.streams[idx].kernels);
            if buf.capacity() > 0 && self.spare_kernels.len() < SPARE_POOL_CAP {
                self.spare_kernels.push(buf);
            }
            let buf = std::mem::take(&mut self.streams[idx].profiles);
            if buf.capacity() > 0 && self.spare_profiles.len() < SPARE_POOL_CAP {
                self.spare_profiles.push(buf);
            }
            self.free_slots.push(idx);
        }
    }

    /// Count one retired kernel of stream `idx` (the one before its
    /// cursor), recording its span when tracing is on.
    fn record_retired_kernel(&mut self, idx: usize, started_ms: f64) {
        self.events += 1;
        if let Some(trace) = &mut self.trace {
            let s = &self.streams[idx];
            trace.push(KernelSpan {
                stream: StreamId(idx),
                kernel: s.next - 1,
                start_ms: started_ms,
                end_ms: self.time_ms,
                occupancy: s.kernels[s.next - 1].occupancy(&self.gpu),
            });
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
    /// join the stream before it ends. Summing the durations here is
    /// bit-identical to that loop, with the same draw order, event count
    /// and trace spans.
    fn run_lone_stream(&mut self) -> StreamCompletion {
        debug_assert!(self.active.len() == 1 && self.pending.is_empty());
        debug_assert_eq!(self.u_c.to_bits(), self.k_c_share[0].to_bits());
        debug_assert_eq!(self.u_m.to_bits(), self.k_m_share[0].to_bits());
        debug_assert_uncontended(&RunningKernel {
            t_compute_ms: self.k_t_compute[0],
            t_memory_ms: self.k_t_memory[0],
            compute_share: self.k_c_share[0],
            memory_share: self.k_m_share[0],
            exec_ms: self.k_exec[0],
        });
        let idx = self.active[0];
        let mut started_ms = self.started[0];
        self.time_ms += self.remaining[0];
        self.remove_active(0);
        loop {
            self.record_retired_kernel(idx, started_ms);
            let Some((profile, dur)) = self.draw_next_kernel(idx) else {
                break;
            };
            debug_assert_uncontended(&profile);
            started_ms = self.time_ms;
            self.time_ms += dur;
        }
        self.retire_stream(idx);
        let s = &self.streams[idx];
        StreamCompletion {
            id: StreamId(idx),
            start_ms: s.start_ms,
            end_ms: self.time_ms,
        }
    }

    /// Drop position `pos` from the running set, keeping every SoA array
    /// in lockstep (identical `swap_remove` order is part of the
    /// determinism contract — it fixes which entry the retire sweep
    /// rescans).
    fn remove_active(&mut self, pos: usize) {
        self.u_c -= self.k_c_share[pos];
        self.u_m -= self.k_m_share[pos];
        self.active.swap_remove(pos);
        self.remaining.swap_remove(pos);
        self.started.swap_remove(pos);
        self.k_t_compute.swap_remove(pos);
        self.k_t_memory.swap_remove(pos);
        self.k_c_share.swap_remove(pos);
        self.k_m_share.swap_remove(pos);
        self.k_exec.swap_remove(pos);
        // The tail entry's slowdown/staleness travel with it, so moved
        // entries keep valid values without recompute.
        self.slowdowns.swap_remove(pos);
        self.stale.swap_remove(pos);
        if self.active.is_empty() {
            // Exact share arithmetic already lands on zero; snapping guards
            // the sign of zero and keeps the invariant self-evident.
            self.u_c = 0.0;
            self.u_m = 0.0;
        }
    }

    /// Bring `slowdowns` up to date with the running set.
    ///
    /// Slowdowns depend on a kernel's own profile and the aggregates
    /// `(U_c, U_m)` only. Share arithmetic is exact (quantised grid), so
    /// comparing the aggregates *by bits* is a sound change detector:
    /// bits unchanged ⇒ every non-stale entry's inputs are unchanged ⇒
    /// its cached slowdown is the exact value a full recompute would
    /// produce. Only entries pushed since the last refresh (`stale`) are
    /// evaluated then; a bit-level change triggers one vectorised
    /// recompute of the whole set.
    fn refresh_slowdowns(&mut self) {
        let u_changed = !self.slow_valid
            || self.u_c.to_bits() != self.last_u_c.to_bits()
            || self.u_m.to_bits() != self.last_u_m.to_bits();
        if u_changed {
            self.simd.slowdowns(
                self.u_c,
                self.u_m,
                &self.k_t_compute,
                &self.k_t_memory,
                &self.k_m_share,
                &self.k_exec,
                &mut self.slowdowns,
            );
            self.stale.iter_mut().for_each(|s| *s = false);
            self.any_stale = false;
            self.last_u_c = self.u_c;
            self.last_u_m = self.u_m;
            self.slow_valid = true;
        } else if self.any_stale {
            let over_c = self.u_c.max(1.0);
            let over_m = self.u_m.max(1.0);
            for pos in 0..self.slowdowns.len() {
                if self.stale[pos] {
                    self.slowdowns[pos] = slowdown_one(
                        self.u_m,
                        over_c,
                        over_m,
                        self.k_t_compute[pos],
                        self.k_t_memory[pos],
                        self.k_m_share[pos],
                        self.k_exec[pos],
                    );
                    self.stale[pos] = false;
                }
            }
            self.any_stale = false;
        }
    }

    /// Advance until the next stream completes; returns its record, or
    /// `None` when the engine is idle.
    pub fn step(&mut self) -> Option<StreamCompletion> {
        loop {
            self.activate_due_streams();
            if self.active.is_empty() {
                // Jump to the next pending start, if any.
                let (start_ms, _) = self.pending.peek()?;
                self.time_ms = start_ms;
                continue;
            }
            if self.active.len() == 1 && self.pending.is_empty() {
                return Some(self.run_lone_stream());
            }
            self.refresh_slowdowns();
            // Time until the first kernel in flight completes.
            let dt = self.simd.min_completion(&self.remaining, &self.slowdowns);
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
            while pos < self.active.len() {
                let idx = self.active[pos];
                if self.remaining[pos] <= RETIRE_EPSILON_MS {
                    let started_ms = self.started[pos];
                    self.remove_active(pos);
                    self.record_retired_kernel(idx, started_ms);
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
        self.simd.decrement(&mut self.remaining, &self.slowdowns, dt);
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
        assert!((r.total_ms - expected).abs() < 1e-6, "{} vs {expected}", r.total_ms);
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
        assert!((r.total_ms / solo - 2.0).abs() < 0.1, "{} vs {solo}", r.total_ms);
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
        let std = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / samples.len() as f64)
            .sqrt();
        let cv = std / mean;
        assert!((mean / base - 1.0).abs() < 0.02, "mean {mean} base {base}");
        assert!(cv > 0.02 && cv < 0.06, "cv {cv}");
    }

    #[test]
    fn delayed_stream_starts_on_time() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(vec![small_kernel(); 2], 5.0);
        let c = e.step().unwrap();
        assert!((c.start_ms - 5.0).abs() < 1e-12);
        assert!(c.end_ms > 5.0);
    }

    #[test]
    fn step_yields_completions_in_time_order() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(vec![small_kernel(); 2], 0.0);
        e.add_stream(vec![small_kernel(); 20], 0.0);
        e.add_stream(vec![small_kernel(); 6], 1.0);
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
        e.add_stream(vec![], 3.0);
        e.add_stream(vec![small_kernel()], 0.0);
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
        e.add_stream(a.clone(), 0.0);
        e.add_stream(vec![big_kernel(); 4], solo / 2.0);
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
        e.add_stream(vec![small_kernel(); 5], 0.0);
        e.add_stream(vec![big_kernel(); 3], 0.1);
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
        let a_last = trace.iter().filter(|s| s.stream == StreamId(0)).map(|s| s.end_ms).fold(0.0, f64::max);
        let b_first = trace.iter().filter(|s| s.stream == StreamId(1)).map(|s| s.start_ms).fold(f64::INFINITY, f64::min);
        assert!(b_first < a_last, "streams never overlapped");
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(vec![small_kernel()], 0.0);
        e.run_until_idle();
        assert!(e.trace().is_empty());
    }

    #[test]
    fn stream_ms_accounts_own_start() {
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(vec![small_kernel(); 2], 10.0);
        e.run_until_idle();
        let r = e.group_result();
        let dur = r.stream_ms(0);
        let solo = sequence_solo_ms(&[small_kernel(); 2], &gpu());
        assert!((dur - solo).abs() < 1e-9);
    }

    #[test]
    fn reset_is_bit_identical_to_fresh_engine() {
        let run = |e: &mut Engine, seed: u64| {
            e.add_stream(vec![small_kernel(); 5], 0.0);
            e.add_stream(vec![big_kernel(); 3], 0.5);
            e.add_stream(vec![small_kernel(); 2], 0.5); // equal-start tie
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
            e.add_stream(s.clone(), 0.0);
        }
        e.run_until_idle();
        let r = e.group_result();
        let mut fresh = Engine::new(gpu(), noisy, 9);
        for s in &streams {
            fresh.add_stream(s.clone(), 0.0);
        }
        fresh.run_until_idle();
        assert_eq!(r, fresh.group_result());
    }

    #[test]
    fn slot_recycling_matches_growing_engine() {
        // Open-loop run: 60 arrivals, at most a few live at once. The
        // recycling engine must yield the same (start, end) sequence from
        // step() as the growing one, while keeping `streams` bounded.
        let arrivals: Vec<f64> = (0..60).map(|i| i as f64 * 0.4).collect();
        let run = |recycle: bool| -> (Vec<(f64, f64)>, usize) {
            let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 3);
            if recycle {
                e.enable_slot_recycling();
            }
            let mut out = Vec::new();
            let mut next = 0;
            loop {
                while next < arrivals.len() && arrivals[next] <= e.now() + 1e-9 {
                    e.add_stream_slice(&[small_kernel(), big_kernel()], arrivals[next]);
                    next += 1;
                }
                if next < arrivals.len() && e.is_idle() {
                    e.add_stream_slice(&[small_kernel(), big_kernel()], arrivals[next]);
                    next += 1;
                }
                match e.step() {
                    Some(c) => out.push((c.start_ms, c.end_ms)),
                    None if next >= arrivals.len() => break,
                    None => {}
                }
            }
            (out, e.streams.len())
        };
        let (grown, grown_slots) = run(false);
        let (recycled, recycled_slots) = run(true);
        assert_eq!(grown.len(), arrivals.len());
        assert_eq!(grown, recycled);
        assert_eq!(grown_slots, arrivals.len());
        assert!(
            recycled_slots < arrivals.len() / 2,
            "recycling kept {recycled_slots} slots for {} arrivals",
            arrivals.len()
        );
    }

    #[test]
    fn completions_into_matches_completions() {
        let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 5);
        e.add_stream(vec![small_kernel(); 3], 0.0);
        e.add_stream(vec![big_kernel(); 2], 1.0);
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
        // the spike stream is separate from the noise stream.
        let streams = vec![vec![small_kernel(); 8], vec![big_kernel(); 3]];
        let run = |spec: Option<KernelFaultSpec>| {
            let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 17);
            e.set_kernel_faults(spec);
            for s in &streams {
                e.add_stream(s.clone(), 0.0);
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
        let base =
            crate::run_group(&gpu(), &NoiseModel::disabled(), 0, std::slice::from_ref(&ks)).total_ms;
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.set_kernel_faults(Some(KernelFaultSpec::always(3, 1.0, 2.5)));
        e.add_stream(ks, 0.0);
        e.run_until_idle();
        let spiked = e.group_result().total_ms;
        assert!((spiked - base * 2.5).abs() < 1e-9, "{spiked} vs {}", base * 2.5);
    }

    #[test]
    fn fault_injection_is_deterministic_across_reset() {
        let streams = vec![vec![small_kernel(); 10], vec![big_kernel(); 4]];
        let spec = KernelFaultSpec::always(7, 0.3, 3.0);
        let mut e = Engine::new(gpu(), NoiseModel::calibrated(), 5);
        e.set_kernel_faults(Some(spec));
        let run = |e: &mut Engine| {
            for s in &streams {
                e.add_stream(s.clone(), 0.0);
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
                e.add_stream(s.clone(), 0.0);
            }
            e.run_until_idle();
            e.group_result()
        };
        assert_eq!(run(Some(spec)), run(None));
    }

    #[test]
    fn binary_insert_keeps_equal_start_activation_order() {
        // Three streams with the same start time: the engine activates the
        // most recently added first (the legacy push + stable-sort order),
        // which fixes the order kernel noise factors are drawn in. Use a
        // compute-only kernel small enough that slowdowns are exactly 1, so
        // each stream's duration is exactly solo * session * its own draw.
        let noise = NoiseModel::calibrated();
        let k = KernelDesc::new(1e8, 0.0, 64.0);
        let mut rng = SeededRng::new(13);
        let session = noise.session_factor(&mut rng);
        let first_draw = noise.kernel_factor(&mut rng);
        let mut e = Engine::new(gpu(), noise, 13);
        e.add_stream(vec![k], 2.0);
        e.add_stream(vec![k], 2.0);
        e.add_stream(vec![k], 2.0); // newest arrival: must draw first
        e.run_until_idle();
        let r = e.group_result();
        let expect = k.solo_ms(&gpu()) * session * first_draw;
        let got = r.stream_ms(2);
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn activation_slack_boundary() {
        let d = 1e-3;
        // A start within ACTIVATION_SLACK_MS of the event at `d` is
        // activated there: the empty stream completes at the event time,
        // a hair *before* its own nominal start.
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(vec![launch_only(d)], 0.0);
        e.add_stream(vec![], d + ACTIVATION_SLACK_MS);
        e.run_until_idle();
        let r = e.group_result();
        assert_eq!(r.completions[1].start_ms, d + ACTIVATION_SLACK_MS);
        assert_eq!(r.completions[1].end_ms, d);
        // A start just past the slack is not picked up at `d`; the idle
        // engine jumps to the exact start instead.
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(vec![launch_only(d)], 0.0);
        e.add_stream(vec![], d + 3.0 * ACTIVATION_SLACK_MS);
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
        e.add_stream(vec![launch_only(d)], 0.0);
        e.add_stream(vec![launch_only(d + 0.5 * RETIRE_EPSILON_MS)], 0.0);
        e.run_until_idle();
        let r = e.group_result();
        assert_eq!(r.completions[0].end_ms, d);
        assert_eq!(r.completions[1].end_ms, d, "near-tie must collapse to one event");
        // ...while one with more than the epsilon left survives to its own
        // completion event.
        let mut e = Engine::new(gpu(), NoiseModel::disabled(), 0);
        e.add_stream(vec![launch_only(d)], 0.0);
        e.add_stream(vec![launch_only(d + 2.0 * RETIRE_EPSILON_MS)], 0.0);
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
            e.add_stream(vec![small_kernel(); 2], i as f64 * 1e-3);
        }
        e.run_until_idle();
        let stats = e.core_stats();
        assert_eq!(stats.max_active, 3);
        assert_eq!(stats.pending_peak, 3);
        assert_eq!(stats.calendar_buckets, 0, "small backlog stays on the sorted path");
        e.reset(0);
        assert_eq!(e.core_stats(), EngineCoreStats::default());
    }
}
