//! Q-format fixed-point arithmetic.
//!
//! The paper's accelerator computes in 16-bit and 32-bit fixed point (its
//! "fp16"/"fp32" configurations, Table 2). This module provides the two
//! formats as saturating newtypes:
//!
//! * [`Q16`] — Q2.13: 1 sign bit, 2 integer bits, 13 fraction bits
//!   (range ±4, resolution ≈ 1.2e-4) — sized for a network whose
//!   activations and logits live in [-4, 4], as the paper's CTR models do.
//! * [`Q32`] — Q8.23: 1 sign bit, 8 integer bits, 23 fraction bits
//!   (range ±256, resolution ≈ 1.2e-7).
//!
//! Both round to nearest on conversion from `f32`, and a single add or
//! multiply saturates on overflow (the behaviour of a DSP datapath with
//! saturation logic). They differ in the multiply–accumulate chain of an
//! inner product ([`FixedNum::Acc`]):
//!
//! * Q2.13 accumulates **wide and saturates once per output**, as a DSP
//!   slice does: the raw 32-bit products are summed exactly (an `i64` holds
//!   any realistic `k`), the sum is shifted down 13 bits (floor, as
//!   [`Q16::saturating_mul`] truncates) and clamped to `i16`. Partial sums
//!   may leave ±4 and come back; the result is the exact inner product
//!   wherever that is representable, and does not depend on the order of
//!   the terms — which is what lets a `vpmaddwd` kernel compute it.
//! * Q8.23 is unchanged: every product is truncated and every add
//!   saturates, in the kernels' fixed 4-lane order. Its 64-bit products
//!   have no wider hardware accumulator to model on this host, and with 8
//!   integer bits a partial sum essentially never reaches the rails.

use std::fmt;
use std::iter::Sum;
use std::mem::MaybeUninit;
use std::num::NonZeroUsize;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

#[cfg(target_arch = "x86_64")]
use crate::gemm::cpu;
use crate::gemm::PackedB;

macro_rules! define_fixed {
    (
        $(#[$doc:meta])*
        $name:ident, $repr:ty, $wide:ty, $frac:expr
    ) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        #[repr(transparent)]
        pub struct $name($repr);

        impl $name {
            /// Number of fraction bits.
            pub const FRAC_BITS: u32 = $frac;
            /// Smallest positive increment.
            pub const EPSILON: $name = $name(1);
            /// Largest representable value.
            pub const MAX: $name = $name(<$repr>::MAX);
            /// Smallest (most negative) representable value.
            pub const MIN: $name = $name(<$repr>::MIN);
            /// Zero.
            pub const ZERO: $name = $name(0);
            /// One.
            pub const ONE: $name = $name(1 << $frac);

            /// Creates a value from its raw two's-complement representation.
            #[must_use]
            pub const fn from_raw(raw: $repr) -> Self {
                $name(raw)
            }

            /// The raw two's-complement representation.
            #[must_use]
            pub const fn to_raw(self) -> $repr {
                self.0
            }

            /// Converts from `f32`, rounding to nearest (half away from
            /// zero) and saturating; NaN is zero.
            ///
            /// All in `f32` and integers, without a branch: scaling by
            /// `2^FRAC_BITS` is exact (a power of two; it overflows only to
            /// ±inf), the clamp to the raw range keeps NaN (which the cast
            /// then makes 0), the cast truncates toward zero, and below
            /// `2^23` in magnitude the fraction left over is exact, while
            /// above it the scaled value is already an integer — so
            /// comparing that fraction with ±0.5 rounds exactly, and the
            /// ±1 it adds cannot leave the range.
            #[must_use]
            pub fn from_f32(v: f32) -> Self {
                let scaled = v * (1u32 << $frac) as f32;
                let scaled = scaled.clamp(<$repr>::MIN as f32, <$repr>::MAX as f32);
                let whole = scaled as $repr;
                let rest = scaled - whole as f32;
                $name(whole + <$repr>::from(rest >= 0.5) - <$repr>::from(rest <= -0.5))
            }

            /// Converts to `f32`: exact while the raw value fits the
            /// 24-bit mantissa (always for `Q16`; for `Q32` below 2 in
            /// magnitude), else rounded to nearest.
            #[must_use]
            pub fn to_f32(self) -> f32 {
                self.0 as f32 / (1u32 << $frac) as f32
            }

            /// Saturating addition.
            #[must_use]
            pub fn saturating_add(self, rhs: Self) -> Self {
                $name(self.0.saturating_add(rhs.0))
            }

            /// Saturating multiplication (full-width intermediate, then
            /// truncation of the extra fraction bits).
            #[must_use]
            pub fn saturating_mul(self, rhs: Self) -> Self {
                let wide = (self.0 as $wide) * (rhs.0 as $wide);
                let shifted = wide >> $frac;
                if shifted > <$repr>::MAX as $wide {
                    $name(<$repr>::MAX)
                } else if shifted < <$repr>::MIN as $wide {
                    $name(<$repr>::MIN)
                } else {
                    $name(shifted as $repr)
                }
            }

            /// Clamps negative values to zero (ReLU).
            #[must_use]
            pub fn relu(self) -> Self {
                if self.0 < 0 {
                    $name(0)
                } else {
                    self
                }
            }

            /// Absolute quantization error of representing `v`.
            #[must_use]
            pub fn quantization_error(v: f32) -> f32 {
                (Self::from_f32(v).to_f32() - v).abs()
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                self.saturating_add(rhs)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                *self = *self + rhs;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0.saturating_sub(rhs.0))
            }
        }

        impl Mul for $name {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                self.saturating_mul(rhs)
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(self.0.saturating_neg())
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, Add::add)
            }
        }

        impl From<$name> for f32 {
            fn from(v: $name) -> f32 {
                v.to_f32()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.to_f32())
            }
        }
    };
}

define_fixed!(
    /// 16-bit Q2.13 fixed point — the accelerator's "fp16" configuration.
    Q16, i16, i32, 13
);
define_fixed!(
    /// 32-bit Q8.23 fixed point — the accelerator's "fp32" configuration.
    Q32, i32, i64, 23
);

/// A numeric type the quantized datapath can compute in.
///
/// Implemented by [`Q16`], [`Q32`], and `f32` (the reference path), letting
/// the same layer code run at every precision the paper evaluates. Generic
/// code can add (the bias) but not multiply: products exist only inside
/// [`mac`](FixedNum::mac), each precision's one inner-product definition.
pub trait FixedNum: Copy + Add<Output = Self> + Sum + PartialOrd + fmt::Debug + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Converts from `f32` (rounding/saturating as the format requires).
    fn from_f32(v: f32) -> Self;
    /// Converts to `f32`.
    fn to_f32(self) -> f32;
    /// ReLU.
    fn relu(self) -> Self;

    /// Converts `src` into `dst`, each element as
    /// [`from_f32`](FixedNum::from_f32) converts it: the batch path's one
    /// quantize pass. [`Q16`] overrides it with a vector kernel; the result
    /// is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    fn quantize_into(src: &[f32], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "quantize_into: slices differ in length");
        for (slot, &v) in dst.iter_mut().zip(src) {
            *slot = Self::from_f32(v);
        }
    }

    /// The running sum of an inner product. `mac` and `narrow` over it are
    /// the one place a precision's multiply–accumulate is defined; every
    /// kernel in the crate (`dot_scalar`, the tiles, their k-tails) is
    /// written over them.
    ///
    /// `f32` and [`Q32`] accumulate in `Self`: each step rounds or
    /// saturates, so which partial sums exist is part of the number and the
    /// kernels share one 4-lane order. [`Q16`] accumulates raw products
    /// exactly in an `i64` and narrows once, so any order gives its result.
    #[doc(hidden)]
    type Acc: Copy + Default + Add<Output = Self::Acc>;

    /// `acc + x · w`.
    #[doc(hidden)]
    fn mac(acc: Self::Acc, x: Self, w: Self) -> Self::Acc;

    /// The finished sum as an output value.
    #[doc(hidden)]
    fn narrow(acc: Self::Acc) -> Self;

    /// How many k-quads of these packed weights a kernel may sum in `i32`
    /// before widening to [`Acc`](FixedNum::Acc), found once per
    /// [`PackedB`]; `None` where no kernel may accumulate narrower than
    /// `Acc`.
    #[doc(hidden)]
    fn i32_quads(_packed: &[Self]) -> Option<NonZeroUsize> {
        None
    }

    /// Elements of the byte planes [`PackedB`] stores after the panels of a
    /// `k × n` B for a plane tile; 0 where the precision or the shape has
    /// none. A function of the shape only, never of the host.
    #[doc(hidden)]
    fn plane_len(_k: usize, _n: usize) -> usize {
        0
    }

    /// Writes the byte planes (`plane_len(k, n)` elements, zeroed) from
    /// the already-quantized `panels` of a `k`-deep B.
    #[doc(hidden)]
    fn pack_planes(_panels: &[Self], _k: usize, _planes: &mut [Self]) {}

    /// The register-tiled kernel behind [`gemm_packed`](crate::gemm_packed):
    /// writes `C[i][j]` for every batch row `i` and every column `j` of the
    /// full 4-column panels of `b` (`a` is `m × k`, `c` is `m × n`, both
    /// row-major); `scratch` is working memory of at least
    /// `b.scratch_len(m)` elements. Precisions with a vector datapath
    /// override it; the result is bit-identical either way.
    #[doc(hidden)]
    fn gemm_panels(
        a: &[Self],
        b: &PackedB<Self>,
        c: &mut [Self],
        _scratch: &mut [MaybeUninit<Self>],
    ) {
        crate::gemm::gemm_panels_portable(a, b.k(), b.panels(), b.n(), c);
    }

    /// The rest of [`gemm_packed`](crate::gemm_packed) after
    /// [`gemm_panels`](FixedNum::gemm_panels): writes `C[i][j]` for every
    /// batch row `i` and every column `j` past the last full panel of `b`,
    /// [`dot_scalar`](crate::dot_scalar) per output. Q2.13 overrides it
    /// with a vector row dot; the result is bit-identical either way.
    #[doc(hidden)]
    fn gemm_tail(a: &[Self], b: &PackedB<Self>, c: &mut [Self]) {
        crate::gemm::gemm_tail_portable(a, b, c);
    }
}

impl FixedNum for Q16 {
    const ZERO: Self = Q16::ZERO;
    fn from_f32(v: f32) -> Self {
        Q16::from_f32(v)
    }
    fn to_f32(self) -> f32 {
        Q16::to_f32(self)
    }
    fn relu(self) -> Self {
        Q16::relu(self)
    }
    /// The AVX-512 kernel `quantize_q16_avx512` over whole 16-element
    /// vectors where the CPU has AVX-512F/BW, then [`Q16::from_f32`] for
    /// the rest.
    fn quantize_into(src: &[f32], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "quantize_into: slices differ in length");
        #[cfg(target_arch = "x86_64")]
        let done = if cpu::has(cpu::AVX512_VNNI) {
            // SAFETY: the feature check guarantees AVX-512F/BW, and the
            // slices have the same length (asserted above).
            unsafe { quantize_q16_avx512(src, dst) }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        for (slot, &v) in dst[done..].iter_mut().zip(&src[done..]) {
            *slot = Q16::from_f32(v);
        }
    }
    type Acc = i64;
    fn mac(acc: i64, x: Self, w: Self) -> i64 {
        acc + i64::from(x.0) * i64::from(w.0)
    }
    fn narrow(acc: i64) -> Self {
        Q16((acc >> Q16::FRAC_BITS).clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16)
    }
    fn i32_quads(packed: &[Self]) -> Option<NonZeroUsize> {
        crate::gemm::q16_i32_quads(packed)
    }
    fn plane_len(k: usize, n: usize) -> usize {
        crate::gemm::q16_plane_len(k, n)
    }
    fn pack_planes(panels: &[Self], k: usize, planes: &mut [Self]) {
        crate::gemm::pack_q16_planes(panels, k, planes);
    }
    fn gemm_panels(
        a: &[Self],
        b: &PackedB<Self>,
        c: &mut [Self],
        scratch: &mut [MaybeUninit<Self>],
    ) {
        crate::gemm::gemm_panels_q16(a, b, c, scratch);
    }
    fn gemm_tail(a: &[Self], b: &PackedB<Self>, c: &mut [Self]) {
        crate::gemm::gemm_tail_q16(a, b, c);
    }
}

/// [`Q16::from_f32`] over the longest 16-element-aligned prefix of `src`,
/// 16 lanes per step, each lane the scalar conversion's steps: the product
/// by 2¹³ (exact), an ordered-compare mask that zeroes NaN (which the
/// scalar cast makes 0), `max`/`min` to the raw range, the truncating
/// `cvttps` (in range after the clamp, so it is `as i16`), the fraction
/// left over as one exact subtraction, its compares with ±0.5 as a masked
/// ±1, and `vpmovdw` to `i16` (the value already fits). Returns how many
/// elements it wrote.
///
/// # Panics
///
/// Panics if `dst` is shorter than `src`.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F/BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn quantize_q16_avx512(src: &[f32], dst: &mut [Q16]) -> usize {
    use std::arch::x86_64::{
        __m256i, _mm256_storeu_si256, _mm512_cmp_ps_mask, _mm512_cvtepi32_epi16,
        _mm512_cvtepi32_ps, _mm512_cvttps_epi32, _mm512_loadu_ps, _mm512_mask_add_epi32,
        _mm512_mask_sub_epi32, _mm512_maskz_mov_ps, _mm512_max_ps, _mm512_min_ps, _mm512_mul_ps,
        _mm512_set1_epi32, _mm512_set1_ps, _mm512_sub_ps, _CMP_GE_OQ, _CMP_LE_OQ, _CMP_ORD_Q,
    };
    const LANES: usize = 16;
    assert!(dst.len() >= src.len(), "quantize_q16_avx512: dst shorter than src");
    let scale = _mm512_set1_ps((1u32 << Q16::FRAC_BITS) as f32);
    let (min, max) = (_mm512_set1_ps(f32::from(i16::MIN)), _mm512_set1_ps(f32::from(i16::MAX)));
    let (half, minus_half, one) = (_mm512_set1_ps(0.5), _mm512_set1_ps(-0.5), _mm512_set1_epi32(1));
    let body = src.len() - src.len() % LANES;
    for at in (0..body).step_by(LANES) {
        // SAFETY: `at + 16 <= body <= src.len()`: the 16-float unaligned
        // load is inside `src`.
        let v = unsafe { _mm512_loadu_ps(src.as_ptr().add(at)) };
        let scaled = _mm512_mul_ps(v, scale);
        let scaled = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(scaled, scaled), scaled);
        let scaled = _mm512_min_ps(_mm512_max_ps(scaled, min), max);
        let whole = _mm512_cvttps_epi32(scaled);
        let rest = _mm512_sub_ps(scaled, _mm512_cvtepi32_ps(whole));
        let whole =
            _mm512_mask_add_epi32(whole, _mm512_cmp_ps_mask::<_CMP_GE_OQ>(rest, half), whole, one);
        let down = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(rest, minus_half);
        let raw = _mm512_cvtepi32_epi16(_mm512_mask_sub_epi32(whole, down, whole, one));
        // SAFETY: `Q16` is `repr(transparent)` over `i16`, and `at + 16 <=
        // src.len() <= dst.len()` (asserted above): the 16 × i16 unaligned
        // store is inside `dst`.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(at).cast::<__m256i>(), raw) };
    }
    body
}

impl FixedNum for Q32 {
    const ZERO: Self = Q32::ZERO;
    fn from_f32(v: f32) -> Self {
        Q32::from_f32(v)
    }
    fn to_f32(self) -> f32 {
        Q32::to_f32(self)
    }
    fn relu(self) -> Self {
        Q32::relu(self)
    }
    type Acc = Self;
    fn mac(acc: Self, x: Self, w: Self) -> Self {
        acc + x * w
    }
    fn narrow(acc: Self) -> Self {
        acc
    }
}

impl FixedNum for f32 {
    const ZERO: Self = 0.0;
    fn from_f32(v: f32) -> Self {
        v
    }
    fn to_f32(self) -> f32 {
        self
    }
    fn relu(self) -> Self {
        self.max(0.0)
    }
    type Acc = Self;
    fn mac(acc: Self, x: Self, w: Self) -> Self {
        acc + x * w
    }
    fn narrow(acc: Self) -> Self {
        acc
    }
    fn gemm_panels(a: &[Self], b: &PackedB<Self>, c: &mut [Self], _: &mut [MaybeUninit<Self>]) {
        crate::gemm::gemm_panels_f32(a, b, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q16_round_trips_within_half_ulp() {
        for v in [-1.0f32, -0.5, 0.0, 0.25, 0.123, 0.9961, 1.0, 3.5] {
            let err = Q16::quantization_error(v);
            assert!(err <= 0.5 / 8192.0 + 1e-9, "Q16 error {err} for {v}");
        }
    }

    #[test]
    fn q32_round_trips_within_half_ulp() {
        for v in [-1.0f32, 0.0, 0.123_456, 100.5, -250.0] {
            let err = Q32::quantization_error(v);
            assert!(err <= 0.5 / 8_388_608.0 + 1e-5, "Q32 error {err} for {v}");
        }
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(Q16::ONE.to_f32(), 1.0);
        assert_eq!(Q32::ONE.to_f32(), 1.0);
        assert_eq!(Q16::ZERO.to_f32(), 0.0);
        assert!((Q16::EPSILON.to_f32() - 1.0 / 8_192.0).abs() < 1e-9);
        assert!((Q32::EPSILON.to_f32() - 1.0 / 8_388_608.0).abs() < 1e-12);
    }

    #[test]
    fn multiply_matches_f32_for_small_values() {
        let a = Q32::from_f32(0.5);
        let b = Q32::from_f32(-0.25);
        assert!((a * b).to_f32() + 0.125 < 1e-4);
        let a = Q16::from_f32(1.5);
        let b = Q16::from_f32(2.0);
        assert!(((a * b).to_f32() - 3.0).abs() < 0.01);
    }

    #[test]
    fn addition_saturates_instead_of_wrapping() {
        let big = Q16::from_f32(3.9);
        let sum = big + big;
        assert_eq!(sum, Q16::MAX);
        let neg = Q16::from_f32(-3.9);
        assert_eq!(neg + neg, Q16::MIN);
    }

    #[test]
    fn multiplication_saturates() {
        let big = Q16::from_f32(3.0);
        assert_eq!(big * big, Q16::MAX);
        let big = Q32::from_f32(200.0);
        assert_eq!(big * big, Q32::MAX);
        assert_eq!(big * (-big), Q32::MIN);
    }

    #[test]
    fn from_f32_saturates_and_handles_nan() {
        assert_eq!(Q16::from_f32(1e9), Q16::MAX);
        assert_eq!(Q16::from_f32(-1e9), Q16::MIN);
        assert_eq!(Q16::from_f32(f32::NAN), Q16::ZERO);
        assert_eq!(Q32::from_f32(f32::INFINITY), Q32::MAX);
    }

    /// The conversion `from_f32` had before it moved to `f32` arithmetic —
    /// through `f64` and libm's `round` — as the raw value of a format with
    /// `frac` fraction bits and raw range `min..=max`: the oracle the tests
    /// below hold it to.
    fn from_f32_via_f64(v: f32, frac: u32, min: i64, max: i64) -> i64 {
        if v.is_nan() {
            return 0;
        }
        let scaled = (f64::from(v) * f64::from(1u32 << frac)).round();
        if scaled >= max as f64 {
            max
        } else if scaled <= min as f64 {
            min
        } else {
            scaled as i64
        }
    }

    /// Whether both formats convert the `f32` with bit pattern `bits` as
    /// the oracle does.
    fn from_f32_agrees(bits: u32) -> bool {
        let v = f32::from_bits(bits);
        i64::from(Q16::from_f32(v).to_raw()) == from_f32_via_f64(v, 13, -32768, 32767)
            && i64::from(Q32::from_f32(v).to_raw())
                == from_f32_via_f64(v, 23, i32::MIN.into(), i32::MAX.into())
    }

    #[test]
    fn from_f32_matches_the_f64_oracle_at_the_edges() {
        let mut values = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFF80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF),
            f32::MAX,
            f32::MIN,
            0.5,
            -0.5,
            0.499_999_97,
            -0.499_999_97,
        ];
        for frac in [13, 23] {
            let scale = (1u32 << frac) as f32;
            for raw in [0.5f32, 1.5, 2.5, 4095.5, 32766.5, 32767.5, 32768.5, 8_388_607.5] {
                for offset in [-1i32, 0, 1] {
                    let at = f32::from_bits((raw / scale).to_bits().wrapping_add_signed(offset));
                    values.extend([at, -at]);
                }
            }
            // The saturation edges: the largest in-range value, the rail, past it.
            for rail in [32767.0f32, 32768.0, 2_147_483_520.0, 2_147_483_648.0, 4_294_967_296.0] {
                values.extend([rail / scale, -rail / scale]);
            }
        }
        for v in values {
            assert!(from_f32_agrees(v.to_bits()), "from_f32({v:e}) left the oracle");
        }
        assert_eq!(Q16::from_f32(0.5 / 8192.0).to_raw(), 1, "half rounds away from zero");
        assert_eq!(Q16::from_f32(-0.5 / 8192.0).to_raw(), -1, "half rounds away from zero");
        assert_eq!(Q16::from_f32(32767.5 / 8192.0), Q16::MAX);
        assert_eq!(Q32::from_f32(f32::NEG_INFINITY), Q32::MIN);
    }

    #[test]
    fn from_f32_matches_the_f64_oracle_on_a_bit_pattern_sample() {
        let bad: Vec<u32> =
            (0..=u32::MAX).step_by(65_537).filter(|&b| !from_f32_agrees(b)).collect();
        assert!(bad.is_empty(), "{} sampled patterns disagree, first {:#010x}", bad.len(), bad[0]);
    }

    /// Bit patterns per chunk of the exhaustive sweep's `quantize_into` pass.
    const CHUNK: usize = 4096;

    /// Whether [`Q16::quantize_into`] converts the `CHUNK` bit patterns from
    /// `base` as [`Q16::from_f32`] does. They are laid out with 16 more
    /// patterns either side (wrapping), and the buffer is converted from
    /// each of its first 16 offsets: so every pattern of the chunk passes
    /// through each of the 16 lanes of a vector kernel's body once, and the
    /// views end in ragged tails of every length from 0 to 15.
    fn quantize_into_agrees(base: u32, src: &mut Vec<f32>, want: &mut Vec<Q16>) -> bool {
        let first = base.wrapping_sub(16);
        src.clear();
        src.extend((0..CHUNK as u32 + 32).map(|i| f32::from_bits(first.wrapping_add(i))));
        want.clear();
        want.extend(src.iter().map(|&v| Q16::from_f32(v)));
        let mut got = vec![Q16::ONE; src.len()];
        (0..16).all(|offset| {
            Q16::quantize_into(&src[offset..], &mut got[offset..]);
            got[offset..] == want[offset..]
        })
    }

    /// Every one of the 2³² `f32` bit patterns, split over the available
    /// threads, through `from_f32` of both formats against the oracle and
    /// through [`Q16::quantize_into`] at every lane position against
    /// `Q16::from_f32`: ≈80 s in release on two cores, far longer in debug,
    /// so debug skips it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^32 conversions: run with --release")]
    fn from_f32_matches_the_f64_oracle_on_every_bit_pattern() {
        let threads = std::thread::available_parallelism().map_or(1, usize::from).min(8) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let bad: Vec<(&str, u64, u32)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let range = t * span..((t + 1) * span).min(1 << 32);
                        let mut bad =
                            range.clone().map(|b| b as u32).filter(|&b| !from_f32_agrees(b));
                        let oracle =
                            bad.next().map(|first| ("from_f32", 1 + bad.count() as u64, first));
                        let (mut src, mut want) = (Vec::new(), Vec::new());
                        let mut bad = range
                            .step_by(CHUNK)
                            .map(|b| b as u32)
                            .filter(|&b| !quantize_into_agrees(b, &mut src, &mut want));
                        let vector = bad
                            .next()
                            .map(|first| ("quantize_into chunks", 1 + bad.count() as u64, first));
                        [oracle, vector]
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep thread panicked"))
                .flatten()
                .collect()
        });
        assert!(bad.is_empty(), "patterns that disagree (what, count, first): {bad:x?}");
    }

    /// Specials, values at the rounding and saturation edges, random bit
    /// patterns and random values in and just past ±4.
    fn quantize_inputs() -> Vec<f32> {
        let mut rng = microrec_rng::Rng::seed_from_u64(0x0513_0016);
        let mut values = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
        ];
        for raw in [0.5f32, 1.5, 4095.5, 32766.5, 32767.0, 32767.5, 32768.0, 32768.5] {
            for offset in [-1i32, 0, 1] {
                let at = f32::from_bits((raw / 8192.0).to_bits().wrapping_add_signed(offset));
                values.extend([at, -at]);
            }
        }
        while values.len() < 4099 {
            values.push(f32::from_bits(rng.next_u64() as u32));
            values.push(rng.gen_range_f32(-4.5, 4.5));
        }
        values
    }

    /// The AVX-512 kernel called directly, where the CPU has it, against
    /// the scalar conversion on the same inputs, at every length up to 48
    /// and at the ledger's round (352) and item (1 408) widths; it must
    /// write the aligned prefix and nothing past it. Prints whether it ran,
    /// so a runner without AVX-512 cannot pass it unexercised silently.
    /// `Q16::quantize_into`, whichever path it dispatches to, must convert
    /// every element.
    #[test]
    fn quantize_kernel_matches_the_scalar_conversion() {
        let values = quantize_inputs();
        for len in [0usize, 1, 15, 16, 17, 33, 352, values.len()] {
            let mut got = vec![Q16::ONE; len];
            Q16::quantize_into(&values[..len], &mut got);
            for (i, (&v, &g)) in values.iter().zip(&got).enumerate() {
                assert_eq!(g, Q16::from_f32(v), "quantize_into: {v:e} at {i} of {len}");
            }
        }
        #[cfg(target_arch = "x86_64")]
        if cpu::has(cpu::AVX512_VNNI) {
            for offset in [0usize, 1, 7] {
                for len in (0..=48).chain([352, 1408, 4000]) {
                    let src = &values[offset..offset + len];
                    let mut got = vec![Q16::ONE; len];
                    // SAFETY: the feature check above guarantees AVX-512F/BW.
                    let done = unsafe { quantize_q16_avx512(src, &mut got) };
                    assert_eq!(done, len - len % 16, "length {len}");
                    for (i, (&v, &g)) in src.iter().zip(&got).enumerate() {
                        let want = if i < done { Q16::from_f32(v) } else { Q16::ONE };
                        assert_eq!(g, want, "{v:e} at {i} of {len} (offset {offset})");
                    }
                }
            }
            eprintln!("Q2.13 quantize_into AVX-512 kernel: checked");
            return;
        }
        eprintln!("Q2.13 quantize_into AVX-512 kernel: SKIPPED: no AVX-512F/BW/VNNI on this CPU");
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Q16::from_f32(-3.0).relu(), Q16::ZERO);
        assert_eq!(Q16::from_f32(3.0).relu(), Q16::from_f32(3.0));
        assert_eq!(FixedNum::relu(-2.5f32), 0.0);
    }

    #[test]
    fn sum_accumulates() {
        let total: Q32 = (0..10).map(|_| Q32::from_f32(0.1)).sum();
        assert!((total.to_f32() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn display_and_conversion_traits() {
        assert_eq!(Q16::from_f32(1.5).to_string(), "1.5");
        let f: f32 = Q32::from_f32(2.25).into();
        assert_eq!(f, 2.25);
    }

    #[test]
    fn neg_behaves() {
        assert_eq!((-Q16::ONE).to_f32(), -1.0);
        assert_eq!(-Q16::MIN, Q16::MAX, "negating MIN saturates to MAX");
    }

    #[test]
    fn q16_is_coarser_than_q32() {
        let v = 0.123_456_7f32;
        assert!(Q16::quantization_error(v) > Q32::quantization_error(v));
    }
}
