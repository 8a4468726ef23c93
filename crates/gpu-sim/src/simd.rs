//! Runtime SIMD tier detection and per-tier kernel compilation.
//!
//! [`SimdTier::detect`] is the workspace's one tier detector, and
//! [`multiversion!`](crate::multiversion) its one way to compile a plain
//! Rust kernel per tier: the kernel-noise batch fill ([`crate::noise`]) and
//! the predictor's MLP training and inference kernels (`predictor::mlp`)
//! dispatch through it. A kernel compiled this way keeps its per-element
//! float order at every tier, so every tier is bit-identical to the scalar
//! one; each caller pins that with its own tests over
//! [`SimdTier::supported`].
//!
//! The engine's per-event passes are not dispatched here: its running set
//! is at most a handful of kernels wide (see [`crate::engine`]), so they
//! are plain scalar loops.

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
