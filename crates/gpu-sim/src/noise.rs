//! Run-to-run latency jitter.
//!
//! §5.2 of the paper measures 42 000 operator groups 100 times each and
//! finds the standard deviation of a group's latency is ≈ 4.5% of its mean
//! (0.65 ms on a 15.9 ms average). Real sources are clock/thermal state
//! (correlated across all kernels of a run) and per-kernel scheduling
//! jitter. [`NoiseModel`] reproduces both: one lognormal *session* factor
//! applied to every kernel of a run, plus a smaller independent per-kernel
//! factor. The predictor crate never sees these internals — the noise is
//! exactly the irreducible error floor its MLP trains against.
//!
//! # Counter-based draws
//!
//! Every factor is a pure function of a key and an index, not a draw from
//! a sequential RNG:
//!
//! * the session factor of a run is `exp(σ_s · z(run seed, 0))`;
//! * kernel `k` of the stream added `n`-th to an engine run has the factor
//!   `exp(σ_k · z(stream_key(run seed, n), k))`.
//!
//! `z(key, k)` is a standard normal from Box–Muller over two SplitMix64
//! hashes: the hashes `2⌊k/2⌋` and `2⌊k/2⌋ + 1` of `key` give the radius
//! and the angle, and even `k` takes the cosine, odd `k` the sine, so one
//! hash pair serves two kernels. A stream's factors therefore do not
//! depend on which other streams ran, in what order they interleaved, or
//! which engine slot the stream landed in, and a stream's noisy kernel
//! durations can be computed as one batch
//! ([`NoiseModel::scale_kernel_durations`]): whole, when the stream is
//! added, or block by block from any even kernel index, as the engine's
//! lone-stream entry scales a solo row into a stack buffer.
//!
//! `ln`, `sincos` and `exp` are written here with IEEE `+ − × ÷ √` and bit
//! manipulation only, with no libm call: the batch is compiled once per
//! [`SimdTier`] through [`multiversion!`](crate::multiversion), and
//! element-wise code over those operations is bit-identical on every tier
//! (Rust never contracts `mul` + `add` into an FMA). The scalar
//! [`NoiseModel::kernel_factor`] runs the same operations for the one
//! factor it returns, so the batch equals `solo · session · kernel_factor`
//! bit for bit.
//!
//! The batch runs in blocks of one factor pair per `f64` lane and vector.
//! Each factor is a long chain of dependent polynomial steps, so one
//! vector at a time is latency-bound; a block of several vectors computes
//! each stage (uniforms, radius and angle, the two exponentials) over all
//! of them before the next stage, which keeps their independent chains in
//! flight. Blocks of four vectors run while they fit, and the rest is one
//! block of one to four vectors, so a short segment pays for at most one
//! vector of padding.

use crate::simd::SimdTier;
use workload::fork_seed;

/// Tag of the draw protocol above. Anything derived from simulated
/// latencies under one protocol (a trained duration model, say) is stale
/// under another; caches fold this tag into their keys.
pub const NOISE_PROTOCOL: &str = "noise2";

/// Multiplicative latency noise: duration × session_factor × kernel_factor.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Log-sigma of the per-run (session) factor, shared by every kernel in
    /// the run.
    pub session_sigma: f64,
    /// Log-sigma of the independent per-kernel factor.
    pub kernel_sigma: f64,
}

impl NoiseModel {
    /// Calibrated default: ≈ 4% group-level std/mean, matching §5.2.
    pub fn calibrated() -> Self {
        Self {
            session_sigma: 0.038,
            kernel_sigma: 0.015,
        }
    }

    /// No noise at all — useful for analytically checking the engine and
    /// for "expected latency" queries.
    pub fn disabled() -> Self {
        Self {
            session_sigma: 0.0,
            kernel_sigma: 0.0,
        }
    }

    /// True when both components are zero.
    pub fn is_disabled(&self) -> bool {
        self.session_sigma == 0.0 && self.kernel_sigma == 0.0
    }

    /// The session factor of the run seeded `run_seed`.
    pub fn session_factor(&self, run_seed: u64) -> f64 {
        lognormal_at(self.session_sigma, run_seed, 0)
    }

    /// The factor of kernel `k` of the stream keyed `key` (see
    /// [`stream_key`]): the scalar definition
    /// [`NoiseModel::scale_kernel_durations`] applies bit for bit.
    pub fn kernel_factor(&self, key: u64, k: u64) -> f64 {
        lognormal_at(self.kernel_sigma, key, k)
    }

    /// Turn the solo durations of kernels `first .. first + out.len()` of
    /// the stream keyed `key` into noisy durations, in place and as one
    /// batch on `tier`: element `i` becomes `out[i] · session ·
    /// kernel_factor(key, first + i)`, multiplied in that order, bit for
    /// bit on every tier. `out[i]` is the kernel's `launch + exec` time and
    /// `session` the run's [`NoiseModel::session_factor`]. `first` must be
    /// even, so a factor pair never straddles two calls: a stream can be
    /// scaled whole or block by block with the same bits.
    ///
    /// # Panics
    /// Panics if `first` is odd.
    pub fn scale_kernel_durations(
        &self,
        tier: SimdTier,
        key: u64,
        session: f64,
        first: u64,
        out: &mut [f64],
    ) {
        assert!(
            first.is_multiple_of(2),
            "kernel blocks start on a factor pair"
        );
        if self.kernel_sigma == 0.0 {
            // The factor is exactly 1, and `x · 1 = x`.
            out.iter_mut().for_each(|d| *d *= session);
        } else {
            scale_lognormal(
                tier,
                tier.f64_lanes(),
                self.kernel_sigma,
                key,
                session,
                first / 2,
                out,
            );
        }
    }
}

/// Key of the kernel factors of the `ordinal`-th stream (counting from 0)
/// added to the run seeded `run_seed`.
#[inline]
pub fn stream_key(run_seed: u64, ordinal: u64) -> u64 {
    fork_seed(run_seed, ordinal)
}

/// `exp(sigma · z(key, k))`: element `k` of the batch kernel, with the
/// same operations.
fn lognormal_at(sigma: f64, key: u64, k: u64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let (even, odd) = normal_pair(key, k >> 1);
    exp(sigma * if k & 1 == 0 { even } else { odd })
}

crate::multiversion! {
    fn scale_lognormal(lanes: usize, sigma: f64, key: u64, session: f64, pair: u64, out: &mut [f64]) = scale_lognormal_kernel;
}

/// Scales `out`, whose first kernel is the even one of factor pair `pair`,
/// with one factor pair per `f64` lane of the tier (`lanes` is
/// [`SimdTier::f64_lanes`]).
#[inline(always)]
fn scale_lognormal_kernel(
    lanes: usize,
    sigma: f64,
    key: u64,
    session: f64,
    pair: u64,
    out: &mut [f64],
) {
    match lanes {
        8 => scale_blocks::<8, 16, 24, 32>(sigma, key, session, pair, out),
        4 => scale_blocks::<4, 8, 12, 16>(sigma, key, session, pair, out),
        _ => scale_blocks::<1, 2, 3, 4>(sigma, key, session, pair, out),
    }
}

/// Scales `out` in wide blocks of four vectors (`P4` factor pairs, `P1`
/// per vector) while they fit, then the rest in one block of as few
/// vectors (`P1`, `P2 = 2 · P1` or `P3 = 3 · P1` pairs, or `P4`) as cover
/// it. One vector's chain of dependent polynomial steps is latency-bound;
/// a block several vectors wide keeps them all in flight at every stage.
/// A fixed-size block compiles to straight vector code, so the last block
/// computes up to one vector of factors it does not use: a short stream
/// pays for at most one vector of padding.
#[inline(always)]
fn scale_blocks<const P1: usize, const P2: usize, const P3: usize, const P4: usize>(
    sigma: f64,
    key: u64,
    session: f64,
    pair: u64,
    out: &mut [f64],
) {
    let mut p = pair;
    let mut wide = out.chunks_exact_mut(2 * P4);
    for block in &mut wide {
        scale_block::<P4>(sigma, key, session, p, block);
        p += P4 as u64;
    }
    let tail = wide.into_remainder();
    match tail.len().div_ceil(2 * P1) {
        0 => {}
        1 => scale_block::<P1>(sigma, key, session, p, tail),
        2 => scale_block::<P2>(sigma, key, session, p, tail),
        3 => scale_block::<P3>(sigma, key, session, p, tail),
        _ => scale_block::<P4>(sigma, key, session, p, tail),
    }
}

/// Scales the durations of kernels `2p ..` (at most `2 · PAIRS` of them).
#[inline(always)]
fn scale_block<const PAIRS: usize>(sigma: f64, key: u64, session: f64, p: u64, block: &mut [f64]) {
    let factors = lognormal_block::<PAIRS>(sigma, key, p);
    for (d, &f) in block.iter_mut().zip(factors.as_flattened()) {
        *d = *d * session * f;
    }
}

/// The factors of kernels `2p .. 2(p + PAIRS)`, as pairs: the operations
/// of [`lognormal_at`] per kernel, run stage by stage over the whole block
/// (uniforms, radius, angle, then both exponentials). Each stage is a
/// short loop over independent elements, so a block several vectors wide
/// keeps all of them in flight instead of finishing one vector's long
/// chain before starting the next.
#[inline(always)]
fn lognormal_block<const PAIRS: usize>(sigma: f64, key: u64, p: u64) -> [[f64; 2]; PAIRS] {
    let mut u1 = [0.0; PAIRS];
    let mut u2 = [0.0; PAIRS];
    for (j, (u1, u2)) in u1.iter_mut().zip(&mut u2).enumerate() {
        (*u1, *u2) = uniforms(key, p + j as u64);
    }
    let mut r = [0.0; PAIRS];
    let mut sin = [0.0; PAIRS];
    let mut cos = [0.0; PAIRS];
    for j in 0..PAIRS {
        r[j] = radius(u1[j]);
        (sin[j], cos[j]) = sincos_turns(u2[j]);
    }
    let mut block = [[0.0; 2]; PAIRS];
    for (j, pair) in block.iter_mut().enumerate() {
        *pair = [exp(sigma * (r[j] * cos[j])), exp(sigma * (r[j] * sin[j]))];
    }
    block
}

/// `z(key, 2p)` and `z(key, 2p + 1)`: Box–Muller over hashes `2p` and
/// `2p + 1` of `key`, cosine branch first.
#[inline(always)]
fn normal_pair(key: u64, p: u64) -> (f64, f64) {
    let (u1, u2) = uniforms(key, p);
    let r = radius(u1);
    let (s, c) = sincos_turns(u2);
    (r * c, r * s)
}

/// The Box–Muller radius `√(−2 ln u1)`.
#[inline(always)]
fn radius(u1: f64) -> f64 {
    (-2.0 * ln(u1)).sqrt()
}

/// The uniforms of pair `p` of `key`: `u1` in `(0, 1]` (a valid `ln`
/// argument) and `u2` in `[0, 1)`, both multiples of `2^-52`.
#[inline(always)]
fn uniforms(key: u64, p: u64) -> (f64, f64) {
    let i = p.wrapping_mul(2);
    let a = splitmix_at(key, i);
    let b = splitmix_at(key, i.wrapping_add(1));
    // `1.m` with a random 52-bit mantissa is uniform on [1, 2); both
    // subtractions are exact.
    let u1 = 2.0 - f64::from_bits(ONE_BITS | (a >> 12));
    let u2 = f64::from_bits(ONE_BITS | (b >> 12)) - 1.0;
    (u1, u2)
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
const MANTISSA_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
/// `1.5 · 2^52`: adding it rounds a float of magnitude below `2^51` to an
/// integer held, in two's complement, in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
const ROUND_MAGIC_BITS: u64 = 0x4338_0000_0000_0000;
/// `ln 2` split so `n · LN2_HI` is exact for `|n| < 2^20`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);

/// Output `i` of a SplitMix64 generator started at state `key`.
#[inline(always)]
fn splitmix_at(key: u64, i: u64) -> u64 {
    let mut z = key.wrapping_add(i.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `c[0] + x·(c[1] + x·(c[2] + …))`, innermost product first.
#[inline(always)]
fn horner<const N: usize>(x: f64, c: [f64; N]) -> f64 {
    let mut p = c[N - 1];
    for &ci in c[..N - 1].iter().rev() {
        p = ci + x * p;
    }
    p
}

/// `2/3, 2/5, …, 2/21`: `2 atanh(s) = 2s + s·z·Σ ATANH_SERIES[i]·z^i`, `z = s²`.
const ATANH_SERIES: [f64; 10] = [
    2.0 / 3.0,
    2.0 / 5.0,
    2.0 / 7.0,
    2.0 / 9.0,
    2.0 / 11.0,
    2.0 / 13.0,
    2.0 / 15.0,
    2.0 / 17.0,
    2.0 / 19.0,
    2.0 / 21.0,
];
/// `−1/3!, 1/5!, …, −1/15!`: `sin x = x + x³·Σ SIN_SERIES[i]·x^{2i}`.
const SIN_SERIES: [f64; 7] = [
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
];
/// `−1/2!, 1/4!, …, 1/16!`: `cos x = 1 + x²·Σ COS_SERIES[i]·x^{2i}`.
const COS_SERIES: [f64; 8] = [
    -0.5,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
];
/// `1/0!, 1/1!, …, 1/13!`: `e^r = Σ EXP_SERIES[i]·r^i`.
const EXP_SERIES: [f64; 14] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// Natural log of a positive normal `x`: `x = 2^e · m` with `m` in
/// `[√½, √2)`, then `ln m = 2 atanh(s)`, `s = (m − 1)/(m + 1)`, in the
/// split form `f − (f²/2 − s(f²/2 + R(s²)))` with `f = m − 1` and `R` the
/// atanh series through `s^20` (truncation below 1e-17 for `|s| ≤ 0.172`).
#[inline(always)]
fn ln(x: f64) -> f64 {
    const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
    // Shift the bits so the exponent field ticks over at √2 instead of 2.
    let ix = x.to_bits().wrapping_add(ONE_BITS - SQRT_HALF_BITS);
    let e = f64::from_bits(ROUND_MAGIC_BITS | (ix >> 52)) - (ROUND_MAGIC + 1023.0);
    let m = f64::from_bits((ix & MANTISSA_MASK).wrapping_add(SQRT_HALF_BITS));
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let r = z * horner(z, ATANH_SERIES);
    let hfsq = 0.5 * f * f;
    e * LN2_HI - ((hfsq - (s * (hfsq + r) + e * LN2_LO)) - f)
}

/// `(sin 2πu, cos 2πu)` for `u` in `[0, 1)`: the quadrant `q = round(4u)`
/// and the remainder `4u − q` in `[−½, ½]` are exact, the remainder angle
/// lies in `[−π/4, π/4]`, and its sine and cosine are Taylor polynomials
/// through `x^15` and `x^16` (truncation below 1e-16).
#[inline(always)]
fn sincos_turns(u: f64) -> (f64, f64) {
    let t = 4.0 * u;
    let shifted = t + ROUND_MAGIC;
    let q = shifted.to_bits();
    let x = (t - (shifted - ROUND_MAGIC)) * std::f64::consts::FRAC_PI_2;
    let x2 = x * x;
    let sin_x = x + x * x2 * horner(x2, SIN_SERIES);
    let cos_x = 1.0 + x2 * horner(x2, COS_SERIES);
    // Quadrant q: sin(qπ/2 + x), cos(qπ/2 + x) are (sin, cos) rotated.
    let odd = q & 1 == 1;
    let (s, c) = if odd { (cos_x, sin_x) } else { (sin_x, cos_x) };
    let s_sign = (q & 2) << 62;
    let c_sign = (q.wrapping_add(1) & 2) << 62;
    (
        f64::from_bits(s.to_bits() ^ s_sign),
        f64::from_bits(c.to_bits() ^ c_sign),
    )
}

/// `e^x` for `|x| < 700`: `x = n ln 2 + r` with `|r| ≤ ½ ln 2`, the Taylor
/// polynomial of `e^r` through `r^13` (truncation below 1e-17), scaled by
/// `2^n` built from bits.
#[inline(always)]
fn exp(x: f64) -> f64 {
    let shifted = x * std::f64::consts::LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let p = horner(r, EXP_SERIES);
    // The low bits of `shifted` hold n; shifting them into the exponent
    // field drops the magic constant's bits.
    p * f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_noise_is_unit() {
        let n = NoiseModel::disabled();
        assert!(n.is_disabled());
        assert_eq!(n.session_factor(0), 1.0);
        assert_eq!(n.kernel_factor(stream_key(0, 0), 0), 1.0);
        let solo = [0.0, 0.25, 1.0, 3.5, 1e-9];
        let mut out = solo;
        n.scale_kernel_durations(SimdTier::detect(), 3, 1.0, 0, &mut out);
        assert_eq!(out.map(f64::to_bits), solo.map(f64::to_bits));
    }

    #[test]
    fn calibrated_noise_magnitude() {
        let n = NoiseModel::calibrated();
        let samples: Vec<f64> = (0..10_000).map(|seed| n.session_factor(seed)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        // Session std/mean close to session_sigma for small sigma.
        assert!((std / mean - 0.038).abs() < 0.005, "cv {}", std / mean);
        assert!((mean - 1.0).abs() < 0.01);
    }

    #[test]
    fn factors_are_positive() {
        let n = NoiseModel::calibrated();
        let mut out = vec![1.0; 1000];
        n.scale_kernel_durations(SimdTier::detect(), stream_key(2, 0), 1.0, 0, &mut out);
        for seed in 0..1000 {
            assert!(n.session_factor(seed) > 0.0);
        }
        assert!(out.iter().all(|&f| f > 0.0));
    }

    /// Batch lengths around every block width a tier uses (one to four
    /// vectors of 2, 8 or 16 kernels on scalar, AVX2 and AVX-512) ±1,
    /// several four-vector blocks plus each tail, and serving lengths.
    const BATCH_LENS: [usize; 33] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49, 63, 64, 65,
        81, 97, 113, 129, 167, 193, 255, 400,
    ];

    #[test]
    fn batch_fill_matches_scalar_on_every_tier() {
        // Solo durations mixing zero-cost, launch-only-sized and long
        // kernels, under a unit and a non-unit session factor.
        let solo = |k: u64| [0.0, 0.004, 0.0125, 1.75, 31.0][(k * 7 % 5) as usize];
        for sigma in [0.0, 0.015, 0.038, 0.5] {
            let n = NoiseModel {
                session_sigma: 0.0,
                kernel_sigma: sigma,
            };
            for session in [1.0, 1.0413] {
                for key in [0u64, 1, 2021, u64::MAX] {
                    for len in BATCH_LENS {
                        let want: Vec<u64> = (0..len as u64)
                            .map(|k| (solo(k) * session * n.kernel_factor(key, k)).to_bits())
                            .collect();
                        for tier in SimdTier::supported() {
                            let mut out: Vec<f64> = (0..len as u64).map(solo).collect();
                            n.scale_kernel_durations(tier, key, session, 0, &mut out);
                            let got: Vec<u64> = out.iter().map(|f| f.to_bits()).collect();
                            assert_eq!(
                                got, want,
                                "sigma {sigma} session {session} key {key} len {len} tier {tier:?}"
                            );
                            // Scaled block by block from even offsets, as
                            // the engine's lone-stream path fills it, the
                            // stream keeps the same bits.
                            for block in [2usize, 10, 64] {
                                let mut out: Vec<f64> = (0..len as u64).map(solo).collect();
                                for (b, chunk) in out.chunks_mut(block).enumerate() {
                                    let first = (b * block) as u64;
                                    n.scale_kernel_durations(tier, key, session, first, chunk);
                                }
                                let got: Vec<u64> = out.iter().map(|f| f.to_bits()).collect();
                                assert_eq!(got, want, "blocks of {block}, len {len} tier {tier:?}");
                            }
                            // The kernel itself, not only the disabled
                            // shortcut, scales by exactly 1 at sigma = 0.
                            if sigma == 0.0 {
                                let mut out = vec![1.0; len];
                                scale_lognormal(tier, tier.f64_lanes(), 0.0, key, 1.0, 0, &mut out);
                                assert!(
                                    out.iter().all(|&f| f.to_bits() == 1.0f64.to_bits()),
                                    "key {key} len {len} tier {tier:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The in-house standard normal behind kernel `k`'s factor.
    fn z_at(key: u64, k: u64) -> f64 {
        let (even, odd) = normal_pair(key, k >> 1);
        if k & 1 == 0 {
            even
        } else {
            odd
        }
    }

    #[test]
    fn normal_has_standard_moments_and_tails() {
        let (streams, per_stream) = (1_000u64, 1_000u64);
        let (mut sum, mut sum2, mut tail) = (0.0, 0.0, 0u64);
        for stream in 0..streams {
            let key = stream_key(2021, stream);
            for k in 0..per_stream {
                let z = z_at(key, k);
                sum += z;
                sum2 += z * z;
                tail += u64::from(z.abs() > 3.0);
            }
        }
        let n = (streams * per_stream) as f64;
        let mean = sum / n;
        let var = sum2 / n - mean * mean;
        let p_tail = tail as f64 / n;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "variance {var}");
        // P(|z| > 3) = 0.26998% for a standard normal.
        assert!((p_tail / 0.0026998 - 1.0).abs() < 0.10, "P(|z|>3) {p_tail}");
    }

    #[test]
    fn factor_matches_libm_formula_on_the_same_uniforms() {
        let tau = std::f64::consts::TAU;
        let mut worst = 0.0f64;
        for sigma in [0.015, 0.038, 0.5] {
            for stream in 0..200u64 {
                let key = stream_key(7, stream);
                for p in 0..500u64 {
                    let (u1, u2) = uniforms(key, p);
                    let r = (-2.0 * u1.ln()).sqrt();
                    let want = [
                        (sigma * r * (tau * u2).cos()).exp(),
                        (sigma * r * (tau * u2).sin()).exp(),
                    ];
                    let got = lognormal_block::<1>(sigma, key, p)[0];
                    for (g, w) in got.into_iter().zip(want) {
                        worst = worst.max((g / w - 1.0).abs());
                    }
                }
            }
        }
        assert!(worst < 1e-12, "worst relative error {worst:e}");
    }

    #[test]
    fn elementary_functions_track_libm() {
        // ln over (0, 1] including both ends of the mantissa range.
        for i in 1..=20_000u64 {
            let x = i as f64 / 20_000.0;
            for x in [x, x * 1e-10, f64::from_bits(x.to_bits() - 1)] {
                let (got, want) = (ln(x), x.ln());
                assert!(
                    (got - want).abs() <= 4e-16 * want.abs(),
                    "ln({x}) {got} {want}"
                );
            }
        }
        assert_eq!(ln(1.0), 0.0);
        for i in 0..20_000u64 {
            let u = i as f64 / 20_000.0;
            let (s, c) = sincos_turns(u);
            let a = std::f64::consts::TAU * u;
            assert!(
                (s - a.sin()).abs() < 1e-15 && (c - a.cos()).abs() < 1e-15,
                "sincos({u})"
            );
        }
        for i in -20_000..=20_000i64 {
            let x = i as f64 * 1e-3;
            let (got, want) = (exp(x), x.exp());
            assert!((got / want - 1.0).abs() < 1e-15, "exp({x}) {got} {want}");
        }
        assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn factors_are_keyed_by_stream_and_index() {
        let n = NoiseModel::calibrated();
        let a = n.kernel_factor(stream_key(5, 0), 3);
        assert_eq!(a.to_bits(), n.kernel_factor(stream_key(5, 0), 3).to_bits());
        assert_ne!(a, n.kernel_factor(stream_key(5, 1), 3));
        assert_ne!(a, n.kernel_factor(stream_key(6, 0), 3));
        assert_ne!(a, n.kernel_factor(stream_key(5, 0), 2));
    }
}
