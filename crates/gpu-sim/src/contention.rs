//! The co-run contention model.
//!
//! When a set *S* of kernels runs simultaneously, each kernel's progress
//! rate drops according to how oversubscribed the two shared resources are:
//!
//! ```text
//! U_c = Σ compute_share_j      U_m = Σ memory_share_j       (over S)
//!
//! slow_i = max(t_c,i · max(1, U_c),  t_m,i · max(1, U_m)) / max(t_c,i, t_m,i)
//!          · (1 + γ · Σ_{j≠i} memory_share_j)
//! ```
//!
//! * If neither resource is oversubscribed (`U_c, U_m ≤ 1`) the kernels fit
//!   spatially and only the mild interference term `γ` (cache/DRAM-row
//!   contention) applies — this is the regime that makes operator overlap
//!   profitable for ResNet/Inception-style kernels.
//! * If a resource is oversubscribed, it is shared proportionally; a kernel
//!   is slowed only insofar as the oversubscribed resource is the one that
//!   binds *it* (a memory-bound kernel does not care that compute is scarce
//!   until its compute-limited time exceeds its memory-limited time).
//! * Saturating kernels (`compute_share ≈ 1`, e.g. VGG batch-32
//!   convolutions) give `U_c ≈ |S|` and degenerate to time-sharing, which is
//!   why the paper observes no overlap benefit for (VGG16, VGG19).

use crate::gpu::GpuSpec;
use crate::kernel::KernelDesc;

/// Interference coefficient γ: residual slowdown from co-runners' memory
/// traffic even when bandwidth is not saturated (L2 / DRAM row-buffer
/// contention). Calibrated so lightly-overlapped pairs see a few percent of
/// mutual slowdown, consistent with the paper's co-run latency spreads.
pub const INTERFERENCE_GAMMA: f64 = 0.08;

/// A kernel's precomputed resource profile while running on a given GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningKernel {
    /// Compute-limited execution time, ms (excluding launch).
    pub t_compute_ms: f64,
    /// Memory-limited execution time, ms (excluding launch).
    pub t_memory_ms: f64,
    /// Fraction of GPU compute consumed when running solo.
    pub compute_share: f64,
    /// Fraction of GPU memory bandwidth consumed when running solo.
    pub memory_share: f64,
    /// Solo execution time (max of the rooflines), ms, excluding launch.
    pub exec_ms: f64,
}

/// Resource shares are quantised to integer multiples of 2⁻³² before they
/// enter the contention sums. Shares are O(1) and running sets are small, so
/// every quantised share and every partial sum/difference of them needs far
/// fewer than the 53 mantissa bits of an `f64` — all aggregate arithmetic on
/// shares is *exact*. That is what lets the engine maintain `U_c`/`U_m`
/// incrementally (add on kernel start, subtract on retire) while staying
/// bit-identical to re-summing the running set from scratch at every event:
/// with exact arithmetic the two are the same number, with no drift over
/// arbitrarily long open-loop runs.
const SHARE_QUANTUM_INV: f64 = 4_294_967_296.0; // 2^32

fn quantize_share(x: f64) -> f64 {
    (x * SHARE_QUANTUM_INV).round() / SHARE_QUANTUM_INV
}

impl RunningKernel {
    /// Derive the profile of `kernel` on `gpu`.
    ///
    /// Evaluates `occupancy^alpha` (the one `powf` in the roofline) exactly
    /// once and derives every field from it — this runs on every kernel
    /// start, so the redundant per-accessor recomputation the
    /// [`KernelDesc`] methods would do dominates the engine's event cost.
    /// Each expression matches the corresponding accessor term for term, so
    /// the results are bit-identical to calling them.
    pub fn profile(kernel: &KernelDesc, gpu: &GpuSpec) -> Self {
        let eff = kernel.efficiency(gpu);
        let t_compute_ms = if kernel.flops == 0.0 {
            0.0
        } else {
            kernel.flops / (eff * gpu.peak_flops) * 1e3
        };
        let t_memory_ms = if kernel.bytes == 0.0 {
            0.0
        } else {
            kernel.bytes / gpu.peak_bw * 1e3
        };
        let exec_ms = t_compute_ms.max(t_memory_ms);
        let (compute_share, memory_share) = if exec_ms == 0.0 {
            (0.0, 0.0)
        } else {
            (
                quantize_share(eff * t_compute_ms / exec_ms),
                quantize_share(t_memory_ms / exec_ms),
            )
        };
        // Efficiency and each roofline's share of `exec_ms` are at most 1,
        // so both shares lie in [0, 1]: a kernel running alone never
        // oversubscribes either resource, and its slowdown is exactly 1 —
        // the precondition of the engine's lone-stream closed form.
        debug_assert!(
            (0.0..=1.0).contains(&compute_share) && (0.0..=1.0).contains(&memory_share),
            "shares out of [0, 1]: compute {compute_share}, memory {memory_share}"
        );
        Self {
            t_compute_ms,
            t_memory_ms,
            compute_share,
            memory_share,
            exec_ms,
        }
    }
}

/// Slowdown factors (≥ 1) for every kernel in the running set.
///
/// `out[i]` is how many times slower kernel `i` executes compared to its
/// solo execution time, given all kernels in `set` run simultaneously.
pub fn co_run_slowdowns(set: &[RunningKernel], out: &mut Vec<f64>) {
    let u_c: f64 = set.iter().map(|k| k.compute_share).sum();
    let u_m: f64 = set.iter().map(|k| k.memory_share).sum();
    co_run_slowdowns_summed(u_c, u_m, set, out);
}

/// [`co_run_slowdowns`] with the aggregate utilisations supplied by the
/// caller — the engine's hot path, which maintains `U_c`/`U_m`
/// incrementally across events instead of re-summing the running set.
/// Because shares are quantised (see [`RunningKernel::profile`]), an
/// incrementally-maintained aggregate equals the re-summed one bit for bit.
pub fn co_run_slowdowns_summed(u_c: f64, u_m: f64, set: &[RunningKernel], out: &mut Vec<f64>) {
    out.clear();
    if set.is_empty() {
        return;
    }
    let over_c = u_c.max(1.0);
    let over_m = u_m.max(1.0);
    for k in set {
        out.push(slowdown_one(
            u_m,
            over_c,
            over_m,
            k.t_compute_ms,
            k.t_memory_ms,
            k.memory_share,
            k.exec_ms,
        ));
    }
}

/// Slowdown of one kernel given precomputed `over_c = U_c.max(1)` and
/// `over_m = U_m.max(1)`. The scalar core shared by
/// [`co_run_slowdowns_summed`] and the engine's per-event slowdown refresh
/// — one definition, so both paths are bit-identical by construction.
#[inline]
pub(crate) fn slowdown_one(
    u_m: f64,
    over_c: f64,
    over_m: f64,
    t_compute_ms: f64,
    t_memory_ms: f64,
    memory_share: f64,
    exec_ms: f64,
) -> f64 {
    if exec_ms <= 0.0 {
        // Pure-launch kernel: nothing to contend for.
        return 1.0;
    }
    let contended = (t_compute_ms * over_c).max(t_memory_ms * over_m);
    let interference = 1.0 + INTERFERENCE_GAMMA * (u_m - memory_share).max(0.0);
    (contended / exec_ms) * interference
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(flops: f64, bytes: f64, blocks: f64) -> RunningKernel {
        RunningKernel::profile(&KernelDesc::new(flops, bytes, blocks), &GpuSpec::a100())
    }

    fn slowdowns(set: &[RunningKernel]) -> Vec<f64> {
        let mut out = Vec::new();
        co_run_slowdowns(set, &mut out);
        out
    }

    #[test]
    fn solo_kernel_has_unit_slowdown() {
        let s = slowdowns(&[prof(1e10, 1e7, 1e4)]);
        assert_eq!(s.len(), 1);
        assert!((s[0] - 1.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn two_saturating_kernels_time_share() {
        let g = GpuSpec::a100();
        let k = prof(1e11, 1e7, 2.0 * g.block_slots());
        let s = slowdowns(&[k, k]);
        // U_c = 2 -> each runs ~2x slower (plus tiny interference).
        assert!(s.iter().all(|&x| (1.9..2.2).contains(&x)), "{s:?}");
    }

    #[test]
    fn under_occupying_kernels_overlap_almost_free() {
        let g = GpuSpec::a100();
        // Each fills ~20% of the block slots (~45% achieved compute) and
        // is compute bound.
        let k = prof(1e9, 1e6, 0.2 * g.block_slots());
        let s = slowdowns(&[k, k]);
        assert!(s.iter().all(|&x| x < 1.05), "{s:?}");
    }

    #[test]
    fn memory_bound_pair_shares_bandwidth() {
        let k = prof(1e6, 1e9, 1e4);
        let s = slowdowns(&[k, k]);
        // Each solo uses full bandwidth: U_m = 2 -> ~2x plus interference.
        assert!(s.iter().all(|&x| (1.9..2.3).contains(&x)), "{s:?}");
    }

    #[test]
    fn asymmetric_sensitivity() {
        let g = GpuSpec::a100();
        // Compute-bound, saturating.
        let big = prof(5e10, 1e6, 2.0 * g.block_slots());
        // Memory-bound, small compute footprint.
        let mem = prof(1e6, 5e8, 1e4);
        let s = slowdowns(&[big, mem]);
        // Compute is oversubscribed (U_c > 1) but the memory-bound kernel
        // only cares once its compute roofline dominates — it should be hurt
        // far less than proportionally.
        assert!(s[0] > 1.0, "{s:?}");
        assert!(s[1] < s[0], "{s:?}");
    }

    #[test]
    fn adding_corunner_never_speeds_up() {
        let a = prof(2e9, 3e7, 2e3);
        let b = prof(8e9, 1e8, 4e3);
        let c = prof(1e8, 6e8, 1e3);
        let s2 = slowdowns(&[a, b]);
        let s3 = slowdowns(&[a, b, c]);
        assert!(s3[0] >= s2[0] - 1e-12);
        assert!(s3[1] >= s2[1] - 1e-12);
    }

    #[test]
    fn empty_set() {
        assert!(slowdowns(&[]).is_empty());
    }

    #[test]
    fn shares_are_quantized_exactly() {
        let k = prof(3.7e9, 2.9e7, 1234.0);
        for share in [k.compute_share, k.memory_share] {
            let scaled = share * super::SHARE_QUANTUM_INV;
            assert_eq!(scaled, scaled.round(), "share {share} not on the grid");
        }
    }

    #[test]
    fn incremental_aggregates_match_resummed_bitwise() {
        // Simulate the engine's add-on-start / subtract-on-retire pattern
        // over a long pseudo-random sequence and check the incremental
        // aggregates and the resulting slowdowns stay bit-identical to
        // re-summing the live set at every step.
        let pool: Vec<RunningKernel> = (1..40)
            .map(|i| prof(1e8 * i as f64, 3e6 * i as f64, 700.0 * i as f64))
            .collect();
        let mut live: Vec<RunningKernel> = Vec::new();
        let mut u_c = 0.0f64;
        let mut u_m = 0.0f64;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for step in 0..5_000 {
            if live.is_empty() || next() % 3 != 0 {
                let k = pool[next() % pool.len()];
                live.push(k);
                u_c += k.compute_share;
                u_m += k.memory_share;
            } else {
                let k = live.swap_remove(next() % live.len());
                u_c -= k.compute_share;
                u_m -= k.memory_share;
            }
            let rc: f64 = live.iter().map(|k| k.compute_share).sum();
            let rm: f64 = live.iter().map(|k| k.memory_share).sum();
            assert_eq!(u_c.to_bits(), rc.to_bits(), "U_c drifted at step {step}");
            assert_eq!(u_m.to_bits(), rm.to_bits(), "U_m drifted at step {step}");
            co_run_slowdowns_summed(u_c, u_m, &live, &mut fast);
            co_run_slowdowns(&live, &mut slow);
            assert_eq!(fast, slow, "slowdowns diverged at step {step}");
        }
    }

    #[test]
    fn slowdowns_always_at_least_one() {
        let ks: Vec<RunningKernel> = (1..6)
            .map(|i| prof(1e8 * i as f64, 1e7 * i as f64, 500.0 * i as f64))
            .collect();
        for n in 1..=ks.len() {
            let s = slowdowns(&ks[..n]);
            assert!(s.iter().all(|&x| x >= 1.0 - 1e-12), "{s:?}");
        }
    }

    /// Every kernel of every model-library graph, on every GPU the repo
    /// simulates, has shares in [0, 1] and runs alone at a slowdown of
    /// exactly 1.0 — what makes the engine's lone-stream closed form
    /// bit-identical to its general event loop.
    #[test]
    fn lone_kernel_shares_are_bounded_and_slowdown_is_exactly_one() {
        use crate::gpu::MigProfile;
        use dnn_models::{ModelId, ModelLibrary, QueryInput, BATCH_CHOICES};
        let a100 = GpuSpec::a100();
        let mut gpus = vec![a100.clone(), GpuSpec::v100()];
        for p in [
            MigProfile::OneG5Gb,
            MigProfile::TwoG10Gb,
            MigProfile::FourG20Gb,
        ] {
            gpus.push(a100.mig_slice(p));
        }
        let lib = ModelLibrary::new();
        let mut checked = 0usize;
        for m in ModelId::ALL {
            for &batch in &BATCH_CHOICES {
                for &seq in m.seq_choices() {
                    // `dnn_models` links its own build of this crate, so
                    // carry the kernels across field by field.
                    for k in lib.kernels(m, QueryInput::new(batch, seq)) {
                        let k = KernelDesc {
                            flops: k.flops,
                            bytes: k.bytes,
                            blocks: k.blocks,
                            launch_ms: k.launch_ms,
                        };
                        for gpu in &gpus {
                            let p = RunningKernel::profile(&k, gpu);
                            assert!(
                                (0.0..=1.0).contains(&p.compute_share)
                                    && (0.0..=1.0).contains(&p.memory_share),
                                "{m:?} on {}: {p:?}",
                                gpu.name
                            );
                            let alone = slowdown_one(
                                p.memory_share,
                                1.0,
                                1.0,
                                p.t_compute_ms,
                                p.t_memory_ms,
                                p.memory_share,
                                p.exec_ms,
                            );
                            assert_eq!(
                                alone.to_bits(),
                                1.0f64.to_bits(),
                                "{m:?} on {}: {p:?}",
                                gpu.name
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 10_000, "only {checked} kernel profiles checked");
    }
}
