//! Runtime-dispatched SIMD kernels for the engine's per-event hot loop.
//!
//! The three operations the event core performs over every in-flight
//! kernel — drain remaining solo time, scan for the completion horizon,
//! and evaluate co-run slowdowns — are expressed here over the engine's
//! struct-of-arrays state (see [`crate::engine`]) and dispatched across
//! scalar / AVX2 / AVX-512 tiers. [`SimdTier::detect`] is the workspace's
//! one tier detector, and [`multiversion!`](crate::multiversion) its one
//! way to compile a plain Rust kernel per tier: the predictor's MLP
//! training and inference kernels (`predictor::mlp`) and the kernel-noise
//! batch fill ([`crate::noise`]) dispatch through it.
//!
//! Every tier is bit-identical to the scalar reference, which is part of
//! the engine's determinism contract:
//!
//! * all three operations are element-wise over independent lanes — the
//!   tier changes vector width, never the order floats combine in;
//! * the only cross-lane reduction is `min` over completion times, and
//!   IEEE min/max are associative and commutative for non-NaN inputs
//!   (completion times are products of positive finite numbers);
//! * ties in `max`/`min` only arise between equal bit patterns here
//!   (remaining times are non-negative, so `-0.0` vs `+0.0` cannot
//!   appear: `x - x` rounds to `+0.0`), so which operand an instruction
//!   returns on a tie is unobservable.

use crate::contention::slowdown_one;

/// Runtime SIMD tier, detected once per [`crate::Engine`] construction
/// (and once per MLP training run / model assembly in `predictor`). Every
/// tier above [`SimdTier::Scalar`] guarantees AVX2 support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// AVX-512F (and AVX2) available: 8-wide `f64` lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 available: 4-wide `f64` lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Portable scalar code — the reference every tier matches bit for bit.
    Scalar,
}

impl SimdTier {
    /// The widest tier this host supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
                return SimdTier::Avx512;
            }
            if avx2 {
                return SimdTier::Avx2;
            }
        }
        SimdTier::Scalar
    }

    /// `f64` lanes of one vector register on this tier.
    pub(crate) fn f64_lanes(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => 8,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => 4,
            SimdTier::Scalar => 1,
        }
    }

    /// Every tier this host can run, scalar first — for tests that pin
    /// each tier to the scalar reference.
    pub fn supported() -> Vec<Self> {
        let mut tiers = vec![SimdTier::Scalar];
        #[cfg(target_arch = "x86_64")]
        match SimdTier::detect() {
            SimdTier::Avx512 => tiers.extend([SimdTier::Avx2, SimdTier::Avx512]),
            SimdTier::Avx2 => tiers.push(SimdTier::Avx2),
            SimdTier::Scalar => {}
        }
        tiers
    }

    /// Drain `dt` ms of wall time from every running kernel:
    /// `remaining[i] = (remaining[i] - dt / slowdowns[i]).max(0.0)`.
    #[inline]
    pub(crate) fn decrement(self, remaining: &mut [f64], slowdowns: &[f64], dt: f64) {
        debug_assert_eq!(remaining.len(), slowdowns.len());
        match self {
            // SAFETY: variants are selected only after runtime feature
            // detection in `detect`.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe { decrement_avx512(remaining, slowdowns, dt) },
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { decrement_avx2(remaining, slowdowns, dt) },
            SimdTier::Scalar => decrement_scalar(remaining, slowdowns, dt),
        }
    }

    /// Wall time until the first running kernel completes:
    /// `min(remaining[i] * slowdowns[i])`, `+inf` when the set is empty.
    #[inline]
    pub(crate) fn min_completion(self, remaining: &[f64], slowdowns: &[f64]) -> f64 {
        debug_assert_eq!(remaining.len(), slowdowns.len());
        match self {
            // SAFETY: variants are selected only after runtime feature
            // detection in `detect`.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe { min_completion_avx512(remaining, slowdowns) },
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { min_completion_avx2(remaining, slowdowns) },
            SimdTier::Scalar => min_completion_scalar(remaining, slowdowns),
        }
    }

    /// Co-run slowdowns over the SoA profile arrays — the vector form of
    /// [`crate::contention::co_run_slowdowns_summed`], writing into `out`
    /// (all slices the same length).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn slowdowns(
        self,
        u_c: f64,
        u_m: f64,
        t_compute: &[f64],
        t_memory: &[f64],
        m_share: &[f64],
        exec: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(t_compute.len(), out.len());
        debug_assert_eq!(t_memory.len(), out.len());
        debug_assert_eq!(m_share.len(), out.len());
        debug_assert_eq!(exec.len(), out.len());
        let over_c = u_c.max(1.0);
        let over_m = u_m.max(1.0);
        match self {
            // SAFETY: variants are selected only after runtime feature
            // detection in `detect`.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe {
                slowdowns_avx512(u_m, over_c, over_m, t_compute, t_memory, m_share, exec, out)
            },
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe {
                slowdowns_avx2(u_m, over_c, over_m, t_compute, t_memory, m_share, exec, out)
            },
            SimdTier::Scalar => {
                slowdowns_scalar(u_m, over_c, over_m, t_compute, t_memory, m_share, exec, out)
            }
        }
    }
}

/// Compile an `#[inline(always)]` kernel once per [`SimdTier`] and
/// dispatch on the tier at run time.
///
/// `multiversion!(pub fn name(a: A, b: B) = kernel;)` defines
/// `pub fn name(tier: SimdTier, a: A, b: B)`, which runs `kernel(a, b)`
/// inside an `#[target_feature(enable = "avx512f")]` copy, an
/// `#[target_feature(enable = "avx2")]` copy, or as plain code. The kernel
/// must be `#[inline(always)]` so each copy compiles its body with that
/// tier's vector instructions. Element-wise kernels whose per-output
/// accumulation order does not depend on vector width (Rust never
/// contracts `mul` + `add` into an FMA) stay bit-identical across tiers.
#[macro_export]
macro_rules! multiversion {
    ($(#[$attr:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $kernel:path;) => {
        $(#[$attr])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        $vis fn $name(tier: $crate::simd::SimdTier, $($arg: $ty),*) $(-> $ret)? {
            /// # Safety
            /// The host must support AVX2.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                $kernel($($arg),*)
            }
            /// # Safety
            /// The host must support AVX-512F.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                $kernel($($arg),*)
            }
            match tier {
                // SAFETY: a tier other than `Scalar` comes only from
                // `SimdTier::detect`/`supported`, which check the CPU
                // features its copy enables.
                #[cfg(target_arch = "x86_64")]
                $crate::simd::SimdTier::Avx512 => unsafe { avx512($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                $crate::simd::SimdTier::Avx2 => unsafe { avx2($($arg),*) },
                $crate::simd::SimdTier::Scalar => $kernel($($arg),*),
            }
        }
    };
}

fn decrement_scalar(remaining: &mut [f64], slowdowns: &[f64], dt: f64) {
    for (r, &s) in remaining.iter_mut().zip(slowdowns) {
        *r -= dt / s;
        if *r < 0.0 {
            *r = 0.0;
        }
    }
}

fn min_completion_scalar(remaining: &[f64], slowdowns: &[f64]) -> f64 {
    let mut dt = f64::INFINITY;
    for (&r, &s) in remaining.iter().zip(slowdowns) {
        let t = r * s;
        if t < dt {
            dt = t;
        }
    }
    dt
}

#[allow(clippy::too_many_arguments)]
fn slowdowns_scalar(
    u_m: f64,
    over_c: f64,
    over_m: f64,
    t_compute: &[f64],
    t_memory: &[f64],
    m_share: &[f64],
    exec: &[f64],
    out: &mut [f64],
) {
    for i in 0..out.len() {
        out[i] = slowdown_one(u_m, over_c, over_m, t_compute[i], t_memory[i], m_share[i], exec[i]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn decrement_avx2(remaining: &mut [f64], slowdowns: &[f64], dt: f64) {
    use std::arch::x86_64::*;
    let n = remaining.len();
    let vdt = _mm256_set1_pd(dt);
    let zero = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let r = _mm256_loadu_pd(remaining.as_ptr().add(i));
        let s = _mm256_loadu_pd(slowdowns.as_ptr().add(i));
        let v = _mm256_sub_pd(r, _mm256_div_pd(vdt, s));
        _mm256_storeu_pd(remaining.as_mut_ptr().add(i), _mm256_max_pd(v, zero));
        i += 4;
    }
    decrement_scalar(&mut remaining[i..], &slowdowns[i..], dt);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn decrement_avx512(remaining: &mut [f64], slowdowns: &[f64], dt: f64) {
    use std::arch::x86_64::*;
    let n = remaining.len();
    let vdt = _mm512_set1_pd(dt);
    let zero = _mm512_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm512_loadu_pd(remaining.as_ptr().add(i));
        let s = _mm512_loadu_pd(slowdowns.as_ptr().add(i));
        let v = _mm512_sub_pd(r, _mm512_div_pd(vdt, s));
        _mm512_storeu_pd(remaining.as_mut_ptr().add(i), _mm512_max_pd(v, zero));
        i += 8;
    }
    decrement_scalar(&mut remaining[i..], &slowdowns[i..], dt);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn min_completion_avx2(remaining: &[f64], slowdowns: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = remaining.len();
    let mut acc = _mm256_set1_pd(f64::INFINITY);
    let mut i = 0;
    while i + 4 <= n {
        let r = _mm256_loadu_pd(remaining.as_ptr().add(i));
        let s = _mm256_loadu_pd(slowdowns.as_ptr().add(i));
        acc = _mm256_min_pd(acc, _mm256_mul_pd(r, s));
        i += 4;
    }
    let mut lanes = [f64::INFINITY; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut dt = lanes.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let tail = min_completion_scalar(&remaining[i..], &slowdowns[i..]);
    if tail < dt {
        dt = tail;
    }
    dt
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn min_completion_avx512(remaining: &[f64], slowdowns: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = remaining.len();
    let mut acc = _mm512_set1_pd(f64::INFINITY);
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm512_loadu_pd(remaining.as_ptr().add(i));
        let s = _mm512_loadu_pd(slowdowns.as_ptr().add(i));
        acc = _mm512_min_pd(acc, _mm512_mul_pd(r, s));
        i += 8;
    }
    let mut dt = _mm512_reduce_min_pd(acc);
    let tail = min_completion_scalar(&remaining[i..], &slowdowns[i..]);
    if tail < dt {
        dt = tail;
    }
    dt
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn slowdowns_avx2(
    u_m: f64,
    over_c: f64,
    over_m: f64,
    t_compute: &[f64],
    t_memory: &[f64],
    m_share: &[f64],
    exec: &[f64],
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    use crate::contention::INTERFERENCE_GAMMA;
    let n = out.len();
    let one = _mm256_set1_pd(1.0);
    let zero = _mm256_setzero_pd();
    let v_oc = _mm256_set1_pd(over_c);
    let v_om = _mm256_set1_pd(over_m);
    let v_um = _mm256_set1_pd(u_m);
    let v_gamma = _mm256_set1_pd(INTERFERENCE_GAMMA);
    let mut i = 0;
    while i + 4 <= n {
        let tc = _mm256_loadu_pd(t_compute.as_ptr().add(i));
        let tm = _mm256_loadu_pd(t_memory.as_ptr().add(i));
        let ms = _mm256_loadu_pd(m_share.as_ptr().add(i));
        let ex = _mm256_loadu_pd(exec.as_ptr().add(i));
        let contended = _mm256_max_pd(_mm256_mul_pd(tc, v_oc), _mm256_mul_pd(tm, v_om));
        let interference =
            _mm256_add_pd(one, _mm256_mul_pd(v_gamma, _mm256_max_pd(_mm256_sub_pd(v_um, ms), zero)));
        // Lanes with exec <= 0 may divide by zero; the blend below
        // discards them in favour of the pure-launch slowdown of 1.
        let val = _mm256_mul_pd(_mm256_div_pd(contended, ex), interference);
        let launch_only = _mm256_cmp_pd::<_CMP_LE_OQ>(ex, zero);
        _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_blendv_pd(val, one, launch_only));
        i += 4;
    }
    slowdowns_scalar(
        u_m,
        over_c,
        over_m,
        &t_compute[i..],
        &t_memory[i..],
        &m_share[i..],
        &exec[i..],
        &mut out[i..],
    );
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn slowdowns_avx512(
    u_m: f64,
    over_c: f64,
    over_m: f64,
    t_compute: &[f64],
    t_memory: &[f64],
    m_share: &[f64],
    exec: &[f64],
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    use crate::contention::INTERFERENCE_GAMMA;
    let n = out.len();
    let one = _mm512_set1_pd(1.0);
    let zero = _mm512_setzero_pd();
    let v_oc = _mm512_set1_pd(over_c);
    let v_om = _mm512_set1_pd(over_m);
    let v_um = _mm512_set1_pd(u_m);
    let v_gamma = _mm512_set1_pd(INTERFERENCE_GAMMA);
    let mut i = 0;
    while i + 8 <= n {
        let tc = _mm512_loadu_pd(t_compute.as_ptr().add(i));
        let tm = _mm512_loadu_pd(t_memory.as_ptr().add(i));
        let ms = _mm512_loadu_pd(m_share.as_ptr().add(i));
        let ex = _mm512_loadu_pd(exec.as_ptr().add(i));
        let contended = _mm512_max_pd(_mm512_mul_pd(tc, v_oc), _mm512_mul_pd(tm, v_om));
        let interference =
            _mm512_add_pd(one, _mm512_mul_pd(v_gamma, _mm512_max_pd(_mm512_sub_pd(v_um, ms), zero)));
        // Lanes with exec <= 0 may divide by zero; the mask blend below
        // discards them in favour of the pure-launch slowdown of 1.
        let val = _mm512_mul_pd(_mm512_div_pd(contended, ex), interference);
        let launch_only = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(ex, zero);
        _mm512_storeu_pd(out.as_mut_ptr().add(i), _mm512_mask_blend_pd(launch_only, val, one));
        i += 8;
    }
    slowdowns_scalar(
        u_m,
        over_c,
        over_m,
        &t_compute[i..],
        &t_memory[i..],
        &m_share[i..],
        &exec[i..],
        &mut out[i..],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::{co_run_slowdowns_summed, RunningKernel};
    use crate::gpu::GpuSpec;
    use crate::kernel::KernelDesc;

    /// Deterministic pseudo-random kernel pool mixing compute-bound,
    /// memory-bound and pure-launch profiles.
    fn pool(n: usize) -> Vec<RunningKernel> {
        let gpu = GpuSpec::a100();
        (0..n)
            .map(|i| {
                let k = match i % 4 {
                    0 => KernelDesc::new(1e8 * (i + 1) as f64, 1e6, 500.0 * (i % 7 + 1) as f64),
                    1 => KernelDesc::new(1e6, 2e8 * (i % 5 + 1) as f64, 900.0),
                    2 => KernelDesc::new(3e9, 4e7, 2.5e4),
                    // Pure-launch kernel: exec_ms == 0 lane.
                    _ => KernelDesc {
                        flops: 0.0,
                        bytes: 0.0,
                        blocks: 1.0,
                        launch_ms: 0.01,
                    },
                };
                RunningKernel::profile(&k, &gpu)
            })
            .collect()
    }

    #[test]
    fn all_tiers_match_scalar_bitwise() {
        // Every vector width, including remainder-lane splits.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100] {
            let set = pool(n);
            let u_c: f64 = set.iter().map(|k| k.compute_share).sum();
            let u_m: f64 = set.iter().map(|k| k.memory_share).sum();
            let tc: Vec<f64> = set.iter().map(|k| k.t_compute_ms).collect();
            let tm: Vec<f64> = set.iter().map(|k| k.t_memory_ms).collect();
            let ms: Vec<f64> = set.iter().map(|k| k.memory_share).collect();
            let ex: Vec<f64> = set.iter().map(|k| k.exec_ms).collect();
            let mut want = Vec::new();
            co_run_slowdowns_summed(u_c, u_m, &set, &mut want);
            let remaining0: Vec<f64> =
                (0..n).map(|i| 0.05 + 0.013 * (i as f64) * ((i % 3) as f64 + 0.25)).collect();
            let dt = 0.037;
            let mut want_rem = remaining0.clone();
            decrement_scalar(&mut want_rem, &want, dt);
            let want_min = min_completion_scalar(&want_rem, &want);
            for tier in SimdTier::supported() {
                let mut got = vec![0.0; n];
                tier.slowdowns(u_c, u_m, &tc, &tm, &ms, &ex, &mut got);
                let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                let wb: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                assert_eq!(gb, wb, "slowdowns diverged at n={n} tier {tier:?}");
                let mut rem = remaining0.clone();
                tier.decrement(&mut rem, &got, dt);
                let rb: Vec<u64> = rem.iter().map(|x| x.to_bits()).collect();
                let wrb: Vec<u64> = want_rem.iter().map(|x| x.to_bits()).collect();
                assert_eq!(rb, wrb, "decrement diverged at n={n} tier {tier:?}");
                let got_min = tier.min_completion(&rem, &got);
                assert_eq!(
                    got_min.to_bits(),
                    want_min.to_bits(),
                    "min_completion diverged at n={n} tier {tier:?}"
                );
            }
        }
    }

    #[test]
    fn decrement_clamps_at_zero_not_negative_zero() {
        for tier in SimdTier::supported() {
            let mut rem = vec![0.5; 9];
            let slow = vec![1.0; 9];
            tier.decrement(&mut rem, &slow, 2.0);
            for r in &rem {
                assert_eq!(r.to_bits(), 0.0f64.to_bits(), "tier {tier:?}");
            }
        }
    }

    #[test]
    fn min_completion_of_empty_set_is_infinite() {
        for tier in SimdTier::supported() {
            assert_eq!(tier.min_completion(&[], &[]), f64::INFINITY);
        }
    }
}
