//! Host fingerprint and rooflines, measured by the ledger itself so that
//! a number is never read without the machine it came from: core count,
//! detected SIMD features, peak multiply-accumulates per second of one
//! core (register-resident FMA loop) and bytes copied per second by one
//! core (a copy far larger than any cache).

use std::hint::black_box;
use std::time::Instant;

/// What this machine is and what one of its cores can do.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub cores: usize,
    /// Human-readable feature list, e.g. `"sse4.2 avx2 fma"`.
    pub simd: String,
    /// The same features as a bit mask (see [`SIMD_BITS`]), because a
    /// metric value is a number.
    pub simd_mask: u32,
}

/// Bit of each reported SIMD feature in [`Host::simd_mask`].
pub const SIMD_BITS: [(&str, u32); 4] = [("sse4.2", 1), ("avx2", 2), ("fma", 4), ("avx512f", 8)];

#[cfg(target_arch = "x86_64")]
fn detect(feature: &str) -> bool {
    match feature {
        "sse4.2" => std::arch::is_x86_feature_detected!("sse4.2"),
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        "fma" => std::arch::is_x86_feature_detected!("fma"),
        "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect(_feature: &str) -> bool {
    false
}

impl Host {
    /// Reads the free part of the fingerprint (no timing).
    pub fn detect() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let present: Vec<(&str, u32)> =
            SIMD_BITS.iter().copied().filter(|(name, _)| detect(name)).collect();
        let simd = if present.is_empty() {
            "scalar".to_string()
        } else {
            present.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(" ")
        };
        Host { cores, simd, simd_mask: present.iter().map(|(_, bit)| bit).sum() }
    }
}

/// Independent accumulators in the FMA loop: enough to cover the FMA
/// latency × issue width of current x86 cores (4–5 cycles × 2 ports).
const ACCUMULATORS: usize = 10;

/// `iters` rounds of [`ACCUMULATORS`] independent 8-lane fused
/// multiply-adds that never leave the registers.
///
/// # Safety
///
/// The caller must have checked that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_loop_avx2(iters: u64, seed: f32) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let a = _mm256_set1_ps(seed);
    let b = _mm256_set1_ps(0.999_999);
    let mut acc = [_mm256_set1_ps(0.0); ACCUMULATORS];
    for _ in 0..iters {
        for slot in &mut acc {
            *slot = _mm256_fmadd_ps(a, b, *slot);
        }
    }
    let mut sum = acc[0];
    for slot in &acc[1..] {
        sum = _mm256_add_ps(sum, *slot);
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is 8 f32 = 32 bytes, exactly one unaligned 256-bit store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

/// Scalar stand-in where AVX2+FMA is missing: the same dependency
/// structure, one lane wide, multiply and add unfused.
fn mac_loop_scalar(iters: u64, seed: f32) -> f32 {
    let b = 0.999_999f32;
    let mut acc = [0.0f32; ACCUMULATORS];
    for _ in 0..iters {
        for slot in &mut acc {
            *slot += seed * b;
        }
    }
    acc.iter().sum()
}

/// One timed pass of the MAC loop; returns multiply-accumulates per second.
fn mac_rate_once(iters: u64) -> f64 {
    let seed = black_box(1.000_1f32);
    #[cfg(target_arch = "x86_64")]
    if detect("avx2") && detect("fma") {
        let start = Instant::now();
        // SAFETY: AVX2 and FMA were detected on this CPU on the line above.
        let out = unsafe { fma_loop_avx2(iters, seed) };
        let secs = start.elapsed().as_secs_f64();
        black_box(out);
        return (iters * ACCUMULATORS as u64 * 8) as f64 / secs;
    }
    let start = Instant::now();
    let out = mac_loop_scalar(iters, seed);
    let secs = start.elapsed().as_secs_f64();
    black_box(out);
    (iters * ACCUMULATORS as u64) as f64 / secs
}

/// Peak multiply-accumulates per second of one core, in GMAC/s: the best
/// of a few passes, since a roofline is what the core can do when
/// nothing interferes.
pub fn peak_gmacs_per_s() -> f64 {
    let iters = 4_000_000;
    (0..5).map(|_| mac_rate_once(iters)).fold(0.0, f64::max) / 1e9
}

/// Bytes one core copies per second, in GB/s, on a buffer far larger than
/// the last-level cache (best of a few passes). Bytes *copied*: each
/// byte is read once and written once.
pub fn stream_gbps() -> f64 {
    let len = 64 << 20;
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    let mut best = 0.0f64;
    for _ in 0..4 {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        let secs = start.elapsed().as_secs_f64();
        black_box(&mut dst);
        best = best.max(len as f64 / secs);
    }
    best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_consistent() {
        let host = Host::detect();
        assert!(host.cores >= 1);
        assert!(!host.simd.is_empty());
        let named: u32 =
            SIMD_BITS.iter().filter(|(n, _)| host.simd.contains(n)).map(|(_, b)| b).sum();
        assert_eq!(named, host.simd_mask);
    }

    #[test]
    fn mac_loops_do_the_work_they_count() {
        // 10 accumulators × 1000 iterations of (1 × 0.999999).
        let scalar = mac_loop_scalar(1000, 1.0);
        assert!((scalar - 10_000.0).abs() < 20.0, "{scalar}");
        #[cfg(target_arch = "x86_64")]
        if detect("avx2") && detect("fma") {
            // SAFETY: AVX2 and FMA were detected on this CPU on the line above.
            let wide = unsafe { fma_loop_avx2(1000, 1.0) };
            assert!((wide - 80_000.0).abs() < 160.0, "{wide}");
        }
        assert!(mac_rate_once(10_000) > 0.0);
    }
}
