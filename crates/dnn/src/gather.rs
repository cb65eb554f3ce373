//! Dequantize-and-gather kernels for the embedding fast path.
//!
//! Embedding rows can be stored compressed — IEEE half precision (`f16`,
//! 2 bytes/element) or 8-bit integers with one scale per row (`i8`,
//! ~1 byte/element) — cutting the bytes a gather moves 2–4×. These kernels
//! fuse the dequantization with the copy into the destination activation
//! buffer, so compressed storage never costs a second pass.
//!
//! Like the GEMM kernels ([`crate::dot`]), every routine has a portable
//! scalar reference and a runtime-dispatched vector path (F16C for half
//! decode, AVX2 for `i8` dequant) that is **bit-identical** to it: `f16`
//! decode is an exact conversion, and `i8` dequant is one exact
//! `int → f32` conversion followed by a single-rounded multiply, in both
//! implementations. The tests pin this down across every length class and
//! (for `f16`) all 65 536 bit patterns.
//!
//! Encoding (`f32 → f16`, `f32 → i8`) happens once at arena build time and
//! is scalar only.

/// Largest representable `i8` magnitude used by the symmetric row codec.
const I8_QMAX: f32 = 127.0;

/// `2⁻²⁴` as an exact `f32` (scale of `f16` subnormals).
const F16_SUBNORMAL_SCALE: f32 = f32::from_bits(0x3380_0000);

/// Decodes one IEEE 754 binary16 value to `f32` (exact; every `f16` value
/// is representable in `f32`). Matches hardware F16C conversion bit for
/// bit, including subnormals, infinities, and NaN payloads.
#[must_use]
pub fn f16_decode(bits: u16) -> f32 {
    let sign = u32::from(bits >> 15) << 31;
    let exp = u32::from(bits >> 10) & 0x1F;
    let frac = u32::from(bits & 0x3FF);
    let out_bits = match exp {
        0 => {
            // Zero or subnormal: value = frac · 2⁻²⁴, exact in f32.
            let mag = frac as f32 * F16_SUBNORMAL_SCALE;
            sign | mag.to_bits()
        }
        // Infinity, or NaN with the quiet bit forced (hardware F16C
        // quiets signaling NaNs on conversion; payload preserved).
        31 if frac == 0 => sign | 0x7F80_0000,
        31 => sign | 0x7FC0_0000 | (frac << 13),
        _ => sign | ((exp + 112) << 23) | (frac << 13),
    };
    f32::from_bits(out_bits)
}

/// Encodes an `f32` to IEEE 754 binary16 with round-to-nearest-even
/// (overflow saturates to infinity, underflow to signed zero).
#[must_use]
pub fn f16_encode(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Infinity or NaN (payload truncated, quiet bit forced).
        let payload = if frac == 0 { 0 } else { 0x200 | (frac >> 13) as u16 };
        return sign | 0x7C00 | payload;
    }
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7C00;
    }
    if e >= -14 {
        // Normal range: drop 13 fraction bits with ties-to-even.
        let mut frac16 = (frac >> 13) as u16;
        let mut exp16 = (e + 15) as u16;
        let rem = frac & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && frac16 & 1 == 1) {
            frac16 += 1;
            if frac16 == 0x400 {
                frac16 = 0;
                exp16 += 1;
                if exp16 >= 31 {
                    return sign | 0x7C00;
                }
            }
        }
        return sign | (exp16 << 10) | frac16;
    }
    if e < -25 {
        // Below half the smallest subnormal: rounds to signed zero.
        return sign;
    }
    // Subnormal range: shift the (now explicit) leading 1 into place.
    let full = frac | 0x0080_0000;
    let shift = (13 - 14 - e) as u32;
    let mut frac16 = (full >> shift) as u16;
    let rem = full & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    if rem > half || (rem == half && frac16 & 1 == 1) {
        // A carry out of the subnormal fraction lands exactly on the
        // smallest normal encoding, so plain addition stays correct.
        frac16 += 1;
    }
    sign | frac16
}

/// Encodes `src` into half precision, element-wise (arena build path).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn f16_encode_slice(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16_encode(s);
    }
}

/// Decodes a half-precision row into `f32`, fused with the copy into the
/// destination buffer. Dispatches to the F16C vector unit when available;
/// the result is bit-identical to [`f16_decode_slice_scalar`] either way.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn f16_decode_slice(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::cpu::has(crate::gemm::cpu::F16C) {
        // SAFETY: the feature check above guarantees F16C (and AVX).
        unsafe { f16_decode_slice_f16c(src, dst) };
        return;
    }
    f16_decode_slice_scalar(src, dst);
}

/// Portable reference decode behind [`f16_decode_slice`].
#[inline]
pub fn f16_decode_slice_scalar(src: &[u16], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16_decode(s);
    }
}

/// F16C half→single decode, 8 elements per step.
///
/// Pure per-element conversion — no accumulation, no rounding choice — so
/// it is bit-identical to the scalar decode by construction (the scalar
/// path implements the same IEEE conversion the hardware performs; the
/// exhaustive test checks all 65 536 patterns).
///
/// # Safety
///
/// Caller must ensure the CPU supports F16C and AVX and that
/// `src.len() == dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,f16c")]
unsafe fn f16_decode_slice_f16c(src: &[u16], dst: &mut [f32]) {
    use std::arch::x86_64::{_mm256_cvtph_ps, _mm256_storeu_ps, _mm_loadu_si128};
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let mut j = 0usize;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= n` bounds the 128-bit (8 × u16) unaligned load.
        let h = unsafe { _mm_loadu_si128(src.as_ptr().add(j).cast()) };
        let f = _mm256_cvtph_ps(h);
        // SAFETY: as above; `dst.len() == src.len()` per the fn contract.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr().add(j), f) };
        j += 8;
    }
    while j < n {
        // SAFETY: the loop condition keeps `j` in bounds for both slices.
        unsafe { *dst.get_unchecked_mut(j) = f16_decode(*src.get_unchecked(j)) };
        j += 1;
    }
}

/// Quantizes one row to `i8` with a symmetric per-row scale; returns the
/// scale (`real = q · scale`). A zero row gets scale 1 so dequantization
/// never divides by zero. Arena build path.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn i8_quant_slice(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len());
    let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max_abs > 0.0 { max_abs / I8_QMAX } else { 1.0 };
    let inv = 1.0 / scale;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (s * inv).round().clamp(-I8_QMAX, I8_QMAX) as i8;
    }
    scale
}

/// Dequantizes an `i8` row (`real = q · scale`), fused with the copy into
/// the destination buffer. Dispatches to AVX2 when available; bit-identical
/// to [`i8_dequant_slice_scalar`] either way (exact `int → f32` conversion
/// followed by one single-rounded multiply in both paths).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn i8_dequant_slice(src: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::cpu::has(crate::gemm::cpu::AVX2) {
        // SAFETY: the feature check above guarantees AVX2.
        unsafe { i8_dequant_slice_avx2(src, scale, dst) };
        return;
    }
    i8_dequant_slice_scalar(src, scale, dst);
}

/// Portable reference dequant behind [`i8_dequant_slice`].
#[inline]
pub fn i8_dequant_slice_scalar(src: &[i8], scale: f32, dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f32::from(s) * scale;
    }
}

/// AVX2 `i8` dequant, 8 elements per step: sign-extend to `i32`, convert
/// to `f32` (exact for the `i8` range), multiply by the broadcast scale
/// (the one rounding, identical to the scalar path's).
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and `src.len() == dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i8_dequant_slice_avx2(src: &[i8], scale: f32, dst: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
        _mm_loadl_epi64,
    };
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let s = _mm256_set1_ps(scale);
    let mut j = 0usize;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= n` bounds the 64-bit (8 × i8) unaligned load.
        let q8 = unsafe { _mm_loadl_epi64(src.as_ptr().add(j).cast()) };
        let q32 = _mm256_cvtepi8_epi32(q8);
        let f = _mm256_mul_ps(_mm256_cvtepi32_ps(q32), s);
        // SAFETY: as above; `dst.len() == src.len()` per the fn contract.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr().add(j), f) };
        j += 8;
    }
    while j < n {
        // SAFETY: the loop condition keeps `j` in bounds for both slices.
        unsafe { *dst.get_unchecked_mut(j) = f32::from(*src.get_unchecked(j)) * scale };
        j += 1;
    }
}

/// Decodes a little-endian `f32` row from a borrowed byte buffer (the
/// cold tier's on-disk layout) into the destination activation slice.
/// Byte-for-byte the same values the arena stores, so the cold path stays
/// bit-identical to the resident one.
///
/// # Panics
///
/// Panics if `src.len() != 4 * dst.len()`.
#[inline]
pub fn f32_decode_le_slice(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len() * 4);
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *d = f32::from_le_bytes([s[0], s[1], s[2], s[3]]);
    }
}

/// Decodes a little-endian `f16` row from a borrowed byte buffer into
/// `f32`, fused with the copy. Each element routes through the same
/// [`f16_decode`] the in-memory arena path uses, so cold reads are
/// bit-identical to resident ones.
///
/// # Panics
///
/// Panics if `src.len() != 2 * dst.len()`.
#[inline]
pub fn f16_decode_le_slice(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len() * 2);
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(2)) {
        *d = f16_decode(u16::from_le_bytes([s[0], s[1]]));
    }
}

/// Dequantizes an `i8` row from a borrowed byte buffer (`real = q · scale`),
/// fused with the copy. Same exact `int → f32` conversion and single-rounded
/// multiply as [`i8_dequant_slice`], so cold reads are bit-identical to
/// resident ones.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn i8_dequant_le_slice(src: &[u8], scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f32::from(s as i8) * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Length classes exercising the 8-wide kernel body and scalar tails.
    const LENGTHS: [usize; 10] = [0, 1, 3, 7, 8, 9, 15, 16, 31, 350];

    fn det_values(n: usize, seed: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * seed).sin() * 0.9).collect()
    }

    #[test]
    fn f16_round_trip_is_lossless_for_representable_values() {
        // Values already representable in f16 must survive exactly.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 0.25, -0.75, 2048.0, 6.1035156e-5] {
            assert_eq!(f16_decode(f16_encode(v)).to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn f16_encode_rounds_to_nearest_even() {
        let ulp = f32::from_bits(0x3A80_0000); // 2⁻¹⁰, the f16 ulp at 1.0
        assert_eq!(f16_encode(1.0 + ulp), 0x3C01);
        // 1 + 2⁻¹¹ is exactly halfway between 1.0 and 1 + 2⁻¹⁰; the tie
        // goes to the even fraction (1.0). One tick above rounds up.
        assert_eq!(f16_encode(1.0 + ulp / 2.0), 0x3C00);
        assert_eq!(f16_encode(1.0 + ulp / 2.0 + f32::EPSILON), 0x3C01);
        // Halfway between two odd/even neighbours: 1 + 3·2⁻¹¹ ties up to
        // the even 0x3C02.
        assert_eq!(f16_encode(1.0 + 3.0 * ulp / 2.0), 0x3C02);
        // Overflow saturates to infinity, underflow to signed zero.
        assert_eq!(f16_encode(1.0e6), 0x7C00);
        assert_eq!(f16_encode(-1.0e6), 0xFC00);
        assert_eq!(f16_encode(1.0e-10), 0x0000);
        assert_eq!(f16_encode(-1.0e-10), 0x8000);
    }

    #[test]
    fn f16_decode_error_is_within_half_ulp() {
        for v in det_values(1000, 0.417) {
            let d = f16_decode(f16_encode(v));
            // Relative error of round-to-nearest f16: ≤ 2⁻¹¹.
            assert!((d - v).abs() <= v.abs() * 4.9e-4 + 6.0e-8, "{v} -> {d}");
        }
    }

    #[test]
    fn f16_decode_matches_reference_for_all_bit_patterns() {
        // Exhaustive: decode every possible f16 and compare the dispatched
        // kernel against the scalar reference bit for bit (NaNs included).
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let mut dispatched = vec![0.0f32; all.len()];
        let mut reference = vec![0.0f32; all.len()];
        f16_decode_slice(&all, &mut dispatched);
        f16_decode_slice_scalar(&all, &mut reference);
        for (bits, (d, r)) in dispatched.iter().zip(&reference).enumerate() {
            assert_eq!(d.to_bits(), r.to_bits(), "pattern {bits:#06x}");
        }
    }

    #[test]
    fn f16_slice_decode_matches_scalar_at_every_length() {
        for &n in &LENGTHS {
            let values = det_values(n, 0.713);
            let mut half = vec![0u16; n];
            f16_encode_slice(&values, &mut half);
            let mut fast = vec![0.0f32; n];
            let mut slow = vec![0.0f32; n];
            f16_decode_slice(&half, &mut fast);
            f16_decode_slice_scalar(&half, &mut slow);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn i8_round_trip_error_is_bounded_by_half_step() {
        for &n in &LENGTHS[1..] {
            let values = det_values(n, 0.911);
            let mut q = vec![0i8; n];
            let scale = i8_quant_slice(&values, &mut q);
            let mut back = vec![0.0f32; n];
            i8_dequant_slice(&q, scale, &mut back);
            for (v, b) in values.iter().zip(&back) {
                assert!((v - b).abs() <= scale / 2.0 + 1e-7, "{v} -> {b} (scale {scale})");
            }
        }
    }

    #[test]
    fn i8_dequant_matches_scalar_at_every_length() {
        for &n in &LENGTHS {
            let values = det_values(n, 1.313);
            let mut q = vec![0i8; n];
            let scale = i8_quant_slice(&values, &mut q);
            let mut fast = vec![0.0f32; n];
            let mut slow = vec![0.0f32; n];
            i8_dequant_slice(&q, scale, &mut fast);
            i8_dequant_slice_scalar(&q, scale, &mut slow);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn byte_slice_decodes_match_in_memory_decodes_bitwise() {
        for &n in &LENGTHS {
            let values = det_values(n, 0.527);
            // f32: encode to LE bytes, decode back — must be the identity.
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut back = vec![0.0f32; n];
            f32_decode_le_slice(&bytes, &mut back);
            for (i, (a, b)) in values.iter().zip(&back).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "f32 n={n} i={i}");
            }
            // f16: byte-buffer decode must match the u16-slice decode.
            let mut half = vec![0u16; n];
            f16_encode_slice(&values, &mut half);
            let half_bytes: Vec<u8> = half.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut from_bytes = vec![0.0f32; n];
            let mut from_u16 = vec![0.0f32; n];
            f16_decode_le_slice(&half_bytes, &mut from_bytes);
            f16_decode_slice(&half, &mut from_u16);
            for (i, (a, b)) in from_bytes.iter().zip(&from_u16).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "f16 n={n} i={i}");
            }
            // i8: byte-buffer dequant must match the i8-slice dequant.
            let mut q = vec![0i8; n];
            let scale = i8_quant_slice(&values, &mut q);
            let q_bytes: Vec<u8> = q.iter().map(|&v| v as u8).collect();
            let mut from_q_bytes = vec![0.0f32; n];
            let mut from_q = vec![0.0f32; n];
            i8_dequant_le_slice(&q_bytes, scale, &mut from_q_bytes);
            i8_dequant_slice(&q, scale, &mut from_q);
            for (i, (a, b)) in from_q_bytes.iter().zip(&from_q).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "i8 n={n} i={i}");
            }
        }
    }

    #[test]
    fn i8_zero_row_quantizes_safely() {
        let zeros = [0.0f32; 8];
        let mut q = [0i8; 8];
        let scale = i8_quant_slice(&zeros, &mut q);
        assert_eq!(scale, 1.0);
        assert!(q.iter().all(|&v| v == 0));
        let mut back = [1.0f32; 8];
        i8_dequant_slice(&q, scale, &mut back);
        assert!(back.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn i8_quant_saturates_extremes() {
        let values = [10.0f32, -10.0, 5.0, -5.0];
        let mut q = [0i8; 4];
        let scale = i8_quant_slice(&values, &mut q);
        assert_eq!(q[0], 127);
        assert_eq!(q[1], -127);
        assert!((f32::from(q[0]) * scale - 10.0).abs() < 1e-5);
    }
}
