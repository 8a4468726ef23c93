//! The pre-overhaul discrete-event engine, frozen as the engine layer's
//! single reference.
//!
//! A line-faithful port of the engine as it stood before the event-core
//! overhaul (DESIGN.md §11): grown `streams` that are never recycled, a
//! binary-insert `pending: Vec<usize>` (O(n) memmove per arrival),
//! contention slowdowns recomputed for the whole running set on every
//! event, and a scalar decrement / min-scan. It is expressed against the
//! crate's public API (`RunningKernel::profile`, `co_run_slowdowns_summed`,
//! `NoiseModel` factors) and follows the same noise protocol as
//! `gpu_sim::Engine`, so completions are comparable bit for bit:
//!
//! * the session factor is `NoiseModel::session_factor(run seed)`;
//! * kernel `k` of the stream added `n`-th takes the scalar
//!   `NoiseModel::kernel_factor(stream_key(run seed, n), k)` at its launch
//!   (zero-cost kernels too, and then complete instantly); stream ids are
//!   never reused here, so a stream's id is its add ordinal;
//! * with a [`KernelFaultSpec`] installed, one unconditional `f64`
//!   draw per launch from a stream forked from `(spec seed, run seed)`,
//!   the spike window tested on engine-local time;
//! * equal-start arrivals activate newest first.
//!
//! The engine bench times it against the live engine (and cross-checks a
//! completion checksum every run); `gpu-sim`'s `golden_engine` suite pins
//! the live engine to it on fixed seeds and randomized fault workloads,
//! open-loop and in the executor's reset-per-group shape.

use dnn_models::{ModelId, ModelLibrary, QueryInput, BATCH_CHOICES};
use gpu_sim::contention::{co_run_slowdowns_summed, RunningKernel};
use gpu_sim::noise::stream_key;
use gpu_sim::{GpuSpec, KernelDesc, KernelFaultSpec, NoiseModel};
use workload::{fork_seed, SeededRng};

struct Stream {
    kernels: Vec<KernelDesc>,
    next: usize,
    start_ms: f64,
    end_ms: Option<f64>,
    remaining_ms: f64,
}

/// The pre-overhaul event core.
pub struct ReferenceEngine {
    gpu: GpuSpec,
    noise: NoiseModel,
    run_seed: u64,
    session_factor: f64,
    time_ms: f64,
    streams: Vec<Stream>,
    /// Sorted by start time descending, soonest at the back — the
    /// pre-overhaul binary-insert arrival structure.
    pending: Vec<usize>,
    active: Vec<usize>,
    profiles: Vec<RunningKernel>,
    slowdowns: Vec<f64>,
    u_c: f64,
    u_m: f64,
    events: u64,
    /// Spike spec plus its forked draw stream (see the module docs).
    faults: Option<(KernelFaultSpec, SeededRng)>,
}

impl ReferenceEngine {
    /// A fresh engine for the run seeded `seed`.
    pub fn new(gpu: GpuSpec, noise: NoiseModel, seed: u64) -> Self {
        let session_factor = noise.session_factor(seed);
        Self {
            gpu,
            noise,
            run_seed: seed,
            session_factor,
            time_ms: 0.0,
            streams: Vec::new(),
            pending: Vec::new(),
            active: Vec::new(),
            profiles: Vec::new(),
            slowdowns: Vec::new(),
            u_c: 0.0,
            u_m: 0.0,
            events: 0,
            faults: None,
        }
    }

    /// Forget every stream and restart the noise protocol from `seed`; an
    /// installed spike spec is re-forked from `(spec seed, seed)`.
    pub fn reset(&mut self, seed: u64) {
        self.run_seed = seed;
        self.session_factor = self.noise.session_factor(seed);
        self.time_ms = 0.0;
        self.events = 0;
        self.streams.clear();
        self.pending.clear();
        self.active.clear();
        self.profiles.clear();
        self.slowdowns.clear();
        self.u_c = 0.0;
        self.u_m = 0.0;
        if let Some((spec, _)) = self.faults {
            self.set_kernel_faults(spec, seed);
        }
    }

    /// Install a kernel latency-spike regime for a run seeded `run_seed`.
    pub fn set_kernel_faults(&mut self, spec: KernelFaultSpec, run_seed: u64) {
        self.faults = Some((spec, SeededRng::new(fork_seed(spec.seed, run_seed))));
    }

    /// Current simulated time, ms.
    pub fn now(&self) -> f64 {
        self.time_ms
    }

    /// Kernel completions processed since construction / reset.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Enqueue a stream starting at `start_ms` (clamped to now); its id.
    pub fn add_stream(&mut self, kernels: Vec<KernelDesc>, start_ms: f64) -> usize {
        let start_ms = start_ms.max(self.time_ms);
        self.streams.push(Stream {
            kernels,
            next: 0,
            start_ms,
            end_ms: None,
            remaining_ms: 0.0,
        });
        let id = self.streams.len() - 1;
        // After every equal start: the newest arrival activates first.
        let at = self
            .pending
            .partition_point(|&i| self.streams[i].start_ms >= start_ms);
        self.pending.insert(at, id);
        id
    }

    fn activate_due_streams(&mut self) {
        while let Some(&idx) = self.pending.last() {
            if self.streams[idx].start_ms > self.time_ms + 1e-12 {
                break;
            }
            self.pending.pop();
            self.start_next_kernel(idx);
        }
    }

    fn start_next_kernel(&mut self, idx: usize) {
        loop {
            let next = self.streams[idx].next;
            if next >= self.streams[idx].kernels.len() {
                self.streams[idx].end_ms = Some(self.time_ms);
                return;
            }
            let kernel = self.streams[idx].kernels[next];
            self.streams[idx].next = next + 1;
            let profile = RunningKernel::profile(&kernel, &self.gpu);
            let key = stream_key(self.run_seed, idx as u64);
            let kf = self.noise.kernel_factor(key, next as u64);
            let mut dur = (kernel.launch_ms + profile.exec_ms) * self.session_factor * kf;
            if let Some((spec, rng)) = &mut self.faults {
                let u = rng.f64();
                let spiked = u < spec.prob
                    && self.time_ms >= spec.window_start_ms
                    && self.time_ms < spec.window_end_ms;
                dur *= if spiked { spec.factor } else { 1.0 };
            }
            if dur <= 0.0 {
                continue;
            }
            self.streams[idx].remaining_ms = dur;
            self.active.push(idx);
            self.u_c += profile.compute_share;
            self.u_m += profile.memory_share;
            self.profiles.push(profile);
            return;
        }
    }

    fn remove_active(&mut self, pos: usize) {
        let profile = self.profiles[pos];
        self.u_c -= profile.compute_share;
        self.u_m -= profile.memory_share;
        self.active.swap_remove(pos);
        self.profiles.swap_remove(pos);
        if self.profiles.is_empty() {
            self.u_c = 0.0;
            self.u_m = 0.0;
        }
    }

    /// Advance until the next stream completes; `(id, start, end)`.
    pub fn step(&mut self) -> Option<(usize, f64, f64)> {
        loop {
            self.activate_due_streams();
            if self.active.is_empty() {
                let &idx = self.pending.last()?;
                self.time_ms = self.streams[idx].start_ms;
                continue;
            }
            co_run_slowdowns_summed(self.u_c, self.u_m, &self.profiles, &mut self.slowdowns);
            let mut dt = f64::INFINITY;
            for (pos, &idx) in self.active.iter().enumerate() {
                let t = self.streams[idx].remaining_ms * self.slowdowns[pos];
                if t < dt {
                    dt = t;
                }
            }
            if let Some(&idx) = self.pending.last() {
                let until_start = self.streams[idx].start_ms - self.time_ms;
                if until_start < dt {
                    self.advance(until_start);
                    continue;
                }
            }
            self.advance(dt);
            let mut completed_stream = None;
            let mut pos = 0;
            while pos < self.active.len() {
                let idx = self.active[pos];
                if self.streams[idx].remaining_ms <= 1e-9 {
                    self.remove_active(pos);
                    self.events += 1;
                    self.start_next_kernel(idx);
                    if self.streams[idx].end_ms.is_some() && completed_stream.is_none() {
                        completed_stream = Some(idx);
                    }
                } else {
                    pos += 1;
                }
            }
            if let Some(idx) = completed_stream {
                let s = &self.streams[idx];
                return Some((idx, s.start_ms, s.end_ms.unwrap()));
            }
        }
    }

    fn advance(&mut self, dt: f64) {
        if dt == 0.0 {
            return;
        }
        self.time_ms += dt;
        for (pos, &idx) in self.active.iter().enumerate() {
            let s = self.slowdowns[pos];
            self.streams[idx].remaining_ms -= dt / s;
            if self.streams[idx].remaining_ms < 0.0 {
                self.streams[idx].remaining_ms = 0.0;
            }
        }
    }
}

/// Shape of a seeded open-loop workload (see [`open_loop_workload`]).
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Every `tie_every`-th stream starts exactly when the previous one
    /// does — an equal-start tie whose activation order must match.
    pub tie_every: usize,
    /// Other streams start `(draw % 1000) / gap_div` ms after the last.
    pub gap_div: f64,
    /// Streams carry `min_len + draw % len_span` kernels (0 = an empty
    /// stream, which completes at activation).
    pub min_len: usize,
    /// See `min_len`.
    pub len_span: usize,
    /// Kernels are drawn from the first `shapes` of [`kernel_shapes`].
    pub shapes: usize,
}

impl OpenLoop {
    /// The engine bench's backlog: 1..=4 classic kernels, ties every 5th.
    pub const BENCH: Self = Self {
        tie_every: 5,
        gap_div: 140.0,
        min_len: 1,
        len_span: 4,
        shapes: 4,
    };
}

/// The kernel shape pool: under-occupied compute, saturating compute,
/// memory-bound, and a just-saturating mix (so the contention model's
/// interference term is live), then a launch-only kernel (contends for
/// nothing, still takes wall time) and a true zero-cost kernel (draws its
/// noise factor, then completes without entering the running set).
pub fn kernel_shapes(gpu: &GpuSpec) -> [KernelDesc; 6] {
    [
        KernelDesc::new(2e9, 1e7, 0.2 * gpu.block_slots()),
        KernelDesc::new(2e10, 1e7, 4.0 * gpu.block_slots()),
        KernelDesc::new(1e8, 4e8, 0.5 * gpu.block_slots()),
        KernelDesc::new(5e8, 5e7, 1.1 * gpu.block_slots()),
        KernelDesc {
            flops: 0.0,
            bytes: 0.0,
            blocks: 1.0,
            launch_ms: 0.012,
        },
        KernelDesc {
            flops: 0.0,
            bytes: 0.0,
            blocks: 1.0,
            launch_ms: 0.0,
        },
    ]
}

/// A deterministic open-loop workload on the A100: `(start time, kernel
/// sequence)` per stream, start times non-decreasing.
pub fn open_loop_workload(seed: u64, n: usize, shape: OpenLoop) -> Vec<(f64, Vec<KernelDesc>)> {
    let shapes = kernel_shapes(&GpuSpec::a100());
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            if i % shape.tie_every != 0 {
                t += (next() % 1000) as f64 / shape.gap_div;
            }
            let len = shape.min_len + (next() % shape.len_span as u64) as usize;
            let kernels = (0..len)
                .map(|_| shapes[(next() as usize) % shape.shapes])
                .collect();
            (t, kernels)
        })
        .collect()
}

/// Serving-shaped exclusive groups, the shape the segmental executor hands
/// the engine: `n` groups, all streams starting at `t = 0`. Three groups in
/// four hold one stream, as FCFS/SJF/EDF run one query per group; the rest
/// hold 2..=`max_width`, as Abacus co-locates. Each stream is a random
/// model-library graph (random model and Table-1 input) — the whole graph
/// half of the time, otherwise a random operator segment, as Abacus
/// splits queries.
///
/// # Panics
/// Panics if `max_width < 2`.
pub fn serving_groups(
    lib: &ModelLibrary,
    seed: u64,
    n: usize,
    max_width: usize,
) -> Vec<Vec<Vec<KernelDesc>>> {
    assert!(
        max_width >= 2,
        "max_width {max_width} leaves no co-located groups"
    );
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|_| {
            let width = if next() % 4 != 0 {
                1
            } else {
                2 + next() % (max_width - 1)
            };
            (0..width)
                .map(|_| {
                    let model = ModelId::ALL[next() % ModelId::ALL.len()];
                    let seqs = model.seq_choices();
                    let input = QueryInput::new(
                        BATCH_CHOICES[next() % BATCH_CHOICES.len()],
                        seqs[next() % seqs.len()],
                    );
                    let kernels = lib.kernels(model, input);
                    let (start, end) = if next() % 2 == 0 {
                        (0, kernels.len())
                    } else {
                        let start = next() % kernels.len();
                        (start, start + 1 + next() % (kernels.len() - start))
                    };
                    kernels[start..end].to_vec()
                })
                .collect()
        })
        .collect()
}
