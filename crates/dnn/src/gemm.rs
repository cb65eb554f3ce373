//! GEMM / GEMV kernels.
//!
//! Two families live here. The **oracle** is [`dot_scalar`] (and its
//! weight-quantizing twin [`dot_quantizing`], behind [`gemv`] and
//! `Mlp::forward`): one inner product over two contiguous slices with 4
//! accumulator lanes, lane `l` summing the products at `k ≡ l (mod 4)` in
//! ascending `k`, the lanes combined pairwise `(l0+l1)+(l2+l3)` and the
//! `k mod 4` tail appended last. That summation order *is* the definition
//! of every result in this crate — under Q-format saturation, and under
//! `f32` rounding, any other order is a different number.
//!
//! The **batched kernel** ([`PackedB`] + [`gemm_packed`]) computes the same
//! numbers with a register-tiled micro-kernel over a panel-interleaved
//! weight buffer. `PackedB` stores B in panels of [`NR`] = 4 output
//! columns; inside a panel each k-quad is 16 consecutive elements
//!
//! ```text
//! [col j: k0 k1 k2 k3][col j+1: k0 k1 k2 k3][col j+2: k0..k3][col j+3: k0..k3]
//! ```
//!
//! followed by the panel's `k mod 4` tail (per column), and after the last
//! full panel the `n mod 4` tail columns, each contiguous — one buffer of
//! exactly `k·n` elements, no second layout. A vector register loaded from
//! a k-quad therefore holds *4 k-lanes × 4 columns*: element `4c + l` is
//! lane `l` of column `c`. Multiplying it element-wise by the activation
//! quad `[x0 x1 x2 x3]` broadcast four times and adding it element-wise
//! into an accumulator performs, in every element, exactly the oracle's
//! `lanes[l] = lanes[l] + x[l] * w[l]` for one output — no element ever
//! sees another's product, so saturation (or rounding) happens at the same
//! step with the same operands as in [`dot_scalar`]. The tile keeps
//! [`MR`] = 4 batch rows of accumulators in registers, so each weight
//! vector is loaded once per 4 rows; panels are the outer loop, so B is
//! streamed exactly once per call while the panel (`8k` bytes at Q2.13)
//! stays in L1 across the batch. Lanes are combined and the k-tail
//! appended by the same scalar code at every precision ([`finish_row`]).
//!
//! Per precision ([`FixedNum::gemm_panels`] picks at run time):
//!
//! * **Q2.13 on AVX2** — 16 MACs per op-group of 8 vector instructions:
//!   `mullo_epi16` + `mulhi_epi16` (the exact 32-bit products, split),
//!   2 × `unpack{lo,hi}_epi16` (rejoined), 2 × `srai_epi32(13)`,
//!   `packs_epi32` (saturate to `i16` — together `Q16::saturating_mul`),
//!   `adds_epi16` (`Q16::saturating_add`). unpack and pack work within
//!   128-bit halves and undo each other's element order. That op-group is
//!   the ceiling: 2 MACs per vector instruction against the 16 per
//!   instruction of the `f32` FMA peak the ledger measures as
//!   `host.peak_gmacs_per_s` — `dnn.roofline_frac` divides by the latter,
//!   so a perfectly scheduled Q2.13 kernel still reads well under 1.
//! * **`f32` on AVX2** — the same tile, two 8-float vectors per k-quad
//!   (2 columns each), `mul_ps` then `add_ps`; never FMA, which rounds
//!   once where the oracle rounds twice.
//! * **Q8.23, and every precision off AVX2** — the same tile in portable
//!   scalar code ([`gemm_panels_portable`]), also the in-crate reference
//!   the vector tiles are pinned against.

use crate::error::DnnError;
use crate::fixed::{FixedNum, Q16};
use crate::tensor::Matrix;

/// Output columns per packed panel.
const NR: usize = 4;
/// Accumulator lanes per output — the k-quad width of the oracle.
const LANES: usize = 4;
/// Elements in one panel k-quad, and accumulators per batch row of a tile.
const QUAD: usize = NR * LANES;
/// Batch rows per register tile.
const MR: usize = 4;

/// Inner product of two equal-length slices with 4 unrolled accumulator
/// lanes, combined pairwise (`(l0+l1)+(l2+l3)`), remainder appended last.
///
/// This is the oracle: [`dot_quantizing`] has the identical lane structure
/// and [`gemm_packed`] reproduces it per output, which is what makes
/// batched and single-item inference bit-identical — same element
/// products, same summation order.
#[inline]
pub fn dot_scalar<T: FixedNum>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [T::ZERO; LANES];
    let quads = a.len() / LANES;
    for i in 0..quads {
        let j = i * LANES;
        lanes[0] = lanes[0] + a[j] * b[j];
        lanes[1] = lanes[1] + a[j + 1] * b[j + 1];
        lanes[2] = lanes[2] + a[j + 2] * b[j + 2];
        lanes[3] = lanes[3] + a[j + 3] * b[j + 3];
    }
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for j in quads * LANES..a.len() {
        sum = sum + a[j] * b[j];
    }
    sum
}

/// [`dot_scalar`] with `f32` weights quantized element-wise on the fly.
///
/// `T::from_f32(w) * x` yields the same `T` value whether the weight was
/// converted here or pre-converted during packing, and the lane structure
/// matches [`dot_scalar`] exactly — so GEMV over master weights and the
/// packed kernel over pre-quantized weights agree bit for bit.
#[inline]
pub fn dot_quantizing<T: FixedNum>(w: &[f32], x: &[T]) -> T {
    debug_assert_eq!(w.len(), x.len());
    let mut lanes = [T::ZERO; LANES];
    let quads = w.len() / LANES;
    for i in 0..quads {
        let j = i * LANES;
        lanes[0] = lanes[0] + T::from_f32(w[j]) * x[j];
        lanes[1] = lanes[1] + T::from_f32(w[j + 1]) * x[j + 1];
        lanes[2] = lanes[2] + T::from_f32(w[j + 2]) * x[j + 2];
        lanes[3] = lanes[3] + T::from_f32(w[j + 3]) * x[j + 3];
    }
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for j in quads * LANES..w.len() {
        sum = sum + T::from_f32(w[j]) * x[j];
    }
    sum
}

/// Caches the AVX2 CPUID probe so the hot path pays one atomic load.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0); // 0 unknown, 1 no, 2 yes
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx2");
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// `y = W · x` for a row-major `W` (`out × in`), generic over precision.
///
/// # Errors
///
/// Returns [`DnnError::ShapeMismatch`] if `x` or `y` disagree with `W`'s
/// shape.
pub fn gemv<T: FixedNum>(weights: &Matrix, x: &[T], y: &mut [T]) -> Result<(), DnnError> {
    if x.len() != weights.cols() {
        return Err(DnnError::ShapeMismatch {
            context: "gemv input",
            expected: weights.cols(),
            actual: x.len(),
        });
    }
    if y.len() != weights.rows() {
        return Err(DnnError::ShapeMismatch {
            context: "gemv output",
            expected: weights.rows(),
            actual: y.len(),
        });
    }
    for (r, slot) in y.iter_mut().enumerate() {
        *slot = dot_quantizing(weights.row(r), x);
    }
    Ok(())
}

/// `C = A · B` with a naive loop over whole rows (reference kernel).
///
/// # Errors
///
/// Returns [`DnnError::ShapeMismatch`] if inner dimensions disagree.
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Result<Matrix, DnnError> {
    if a.cols() != b.rows() {
        return Err(DnnError::ShapeMismatch {
            context: "gemm inner dimension",
            expected: a.cols(),
            actual: b.rows(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = vec![0.0f32; m * n];
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    for i in 0..m {
        let arow = &a_s[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            let brow = &b_s[kk * n..(kk + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
    Matrix::from_vec(m, n, c)
}

/// The B operand of [`gemm_packed`], pre-quantized to `T` and interleaved
/// into 4-column panels (layout in the module doc) so one vector load
/// feeds 4 lanes of 4 outputs with no per-MAC conversion.
///
/// Packing costs one pass over B; amortize it by packing once per layer
/// and reusing across batches (what `PackedMlp` does).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB<T> {
    k: usize,
    n: usize,
    /// `n / 4` panels of `4·k` elements, then `n % 4` contiguous columns.
    data: Vec<T>,
}

impl<T: FixedNum> PackedB<T> {
    /// Packs a row-major `B` (`k × n`).
    #[must_use]
    pub fn pack(b: &Matrix) -> Self {
        let (k, n) = (b.rows(), b.cols());
        let b_s = b.as_slice();
        Self::pack_with(k, n, |kk, j| b_s[kk * n + j])
    }

    /// Packs from `Bᵀ` (`n × k`, row-major) — the shape of a dense layer's
    /// `out × in` weight matrix.
    #[must_use]
    pub fn from_transposed(bt: &Matrix) -> Self {
        let (n, k) = (bt.rows(), bt.cols());
        let bt_s = bt.as_slice();
        Self::pack_with(k, n, |kk, j| bt_s[j * k + kk])
    }

    /// Quantizes `B[kk][j] = at(kk, j)` into the panel layout, in storage
    /// order.
    fn pack_with(k: usize, n: usize, at: impl Fn(usize, usize) -> f32) -> Self {
        let body = k - k % LANES;
        let full = n - n % NR;
        let mut data = Vec::with_capacity(k * n);
        for j0 in (0..full).step_by(NR) {
            for q in (0..body).step_by(LANES) {
                for j in j0..j0 + NR {
                    data.extend((q..q + LANES).map(|kk| T::from_f32(at(kk, j))));
                }
            }
            for j in j0..j0 + NR {
                data.extend((body..k).map(|kk| T::from_f32(at(kk, j))));
            }
        }
        for j in full..n {
            data.extend((0..k).map(|kk| T::from_f32(at(kk, j))));
        }
        PackedB { k, n, data }
    }

    /// Inner dimension `k` (rows of B).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension `n` (columns of B).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed element `B[kk][j]`.
    ///
    /// # Panics
    ///
    /// Panics if `kk >= k` or `j >= n`.
    #[must_use]
    pub fn get(&self, kk: usize, j: usize) -> T {
        assert!(kk < self.k && j < self.n, "PackedB index ({kk}, {j}) out of range");
        let (k, body) = (self.k, self.k - self.k % LANES);
        let (panel, col) = (j / NR, j % NR);
        let at = if panel == self.n / NR {
            j * k + kk
        } else if kk < body {
            panel * NR * k + kk / LANES * QUAD + col * LANES + kk % LANES
        } else {
            panel * NR * k + body * NR + col * (k - body) + (kk - body)
        };
        self.data[at]
    }
}

/// `C = A · B` over a pre-packed B, writing into caller-provided scratch
/// (`c`, length `m·n`) — no allocation on the hot path.
///
/// `a` is row-major `m × k`. Every `C[i][j]` equals [`dot_scalar`] over
/// row `i` of A and column `j` of B bit for bit, so results match [`gemv`]
/// over the master weights.
///
/// # Errors
///
/// Returns [`DnnError::ShapeMismatch`] if `a` or `c` disagree with the
/// packed shape.
pub fn gemm_packed<T: FixedNum>(
    a: &[T],
    m: usize,
    b: &PackedB<T>,
    c: &mut [T],
) -> Result<(), DnnError> {
    let (k, n) = (b.k, b.n);
    if a.len() != m * k {
        return Err(DnnError::ShapeMismatch {
            context: "gemm_packed input",
            expected: m * k,
            actual: a.len(),
        });
    }
    if c.len() != m * n {
        return Err(DnnError::ShapeMismatch {
            context: "gemm_packed output",
            expected: m * n,
            actual: c.len(),
        });
    }
    if k == 0 || n == 0 {
        c.fill(T::ZERO);
        return Ok(());
    }
    let full = n - n % NR;
    let (panels, tail_cols) = (&b.data[..full * k], &b.data[full * k..]);
    T::gemm_panels(a, k, panels, n, c);
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (slot, col) in crow[full..].iter_mut().zip(tail_cols.chunks_exact(k)) {
            *slot = dot_scalar(arow, col);
        }
    }
    Ok(())
}

/// Combines one batch row's 4 × 4 accumulator lanes (`lanes[4c + l]` is
/// lane `l` of panel column `c`) pairwise, appends the k-tail products in
/// order, and writes the 4 outputs — the second half of [`dot_scalar`],
/// shared by every tile so the vector paths cannot drift from it.
#[inline]
fn finish_row<T: FixedNum>(lanes: &[T; QUAD], a_tail: &[T], w_tail: &[T], out: &mut [T]) {
    let kt = a_tail.len();
    for (col, slot) in out[..NR].iter_mut().enumerate() {
        let l = &lanes[col * LANES..(col + 1) * LANES];
        let mut sum = (l[0] + l[1]) + (l[2] + l[3]);
        for (&x, &w) in a_tail.iter().zip(&w_tail[col * kt..(col + 1) * kt]) {
            sum = sum + x * w;
        }
        *slot = sum;
    }
}

/// The portable tile behind [`FixedNum::gemm_panels`]: for each panel and
/// batch row, the 4 columns' 4 lanes each, read from the same interleaved
/// k-quads the vector tiles load whole (one column at a time keeps the
/// live accumulators at 4, which scalar and SSE2 code generation want).
/// Runs Q8.23 everywhere and every precision on hosts without AVX2.
pub(crate) fn gemm_panels_portable<T: FixedNum>(
    a: &[T],
    k: usize,
    panels: &[T],
    n: usize,
    c: &mut [T],
) {
    let body = k - k % LANES;
    for (p, panel) in panels.chunks_exact(NR * k).enumerate() {
        let (w_body, w_tail) = (&panel[..body * NR], &panel[body * NR..]);
        for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            let (a_body, a_tail) = (&arow[..body], &arow[body..]);
            let mut lanes = [T::ZERO; QUAD];
            for (col, l) in lanes.chunks_exact_mut(LANES).enumerate() {
                for (x, w) in a_body.chunks_exact(LANES).zip(w_body.chunks_exact(QUAD)) {
                    let w = &w[col * LANES..(col + 1) * LANES];
                    l[0] = l[0] + x[0] * w[0];
                    l[1] = l[1] + x[1] * w[1];
                    l[2] = l[2] + x[2] * w[2];
                    l[3] = l[3] + x[3] * w[3];
                }
            }
            finish_row(&lanes, a_tail, w_tail, &mut crow[p * NR..]);
        }
    }
}

/// Q2.13 [`FixedNum::gemm_panels`]: the AVX2 tile where the CPU has it.
pub(crate) fn gemm_panels_q16(a: &[Q16], k: usize, panels: &[Q16], n: usize, c: &mut [Q16]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the feature check above guarantees AVX2.
        unsafe { gemm_panels_q16_avx2(a, k, panels, n, c) };
        return;
    }
    gemm_panels_portable(a, k, panels, n, c);
}

/// `f32` [`FixedNum::gemm_panels`]: the AVX2 tile where the CPU has it.
pub(crate) fn gemm_panels_f32(a: &[f32], k: usize, panels: &[f32], n: usize, c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the feature check above guarantees AVX2.
        unsafe { gemm_panels_f32_avx2(a, k, panels, n, c) };
        return;
    }
    gemm_panels_portable(a, k, panels, n, c);
}

/// Walks panels (outer) and [`MR`]-row groups (inner), handing each
/// `R × 4` tile to `$tile::<R>`; the last `m % MR` rows get a narrower
/// instantiation of the same tile.
#[cfg(target_arch = "x86_64")]
macro_rules! for_each_tile {
    ($tile:ident, $a:ident, $k:ident, $panels:ident, $n:ident, $c:ident) => {{
        let m = $a.len() / $k;
        for (p, panel) in $panels.chunks_exact(NR * $k).enumerate() {
            let mut i = 0;
            while i < m {
                let rows = (m - i).min(MR);
                let a_rows = &$a[i * $k..(i + rows) * $k];
                let c_rows = &mut $c[i * $n + p * NR..];
                // SAFETY: the caller's own contract — AVX2 is available.
                unsafe {
                    match rows {
                        4 => $tile::<4>(a_rows, $k, panel, $n, c_rows),
                        3 => $tile::<3>(a_rows, $k, panel, $n, c_rows),
                        2 => $tile::<2>(a_rows, $k, panel, $n, c_rows),
                        _ => $tile::<1>(a_rows, $k, panel, $n, c_rows),
                    }
                }
                i += rows;
            }
        }
    }};
}

/// AVX2 Q2.13 panels: see the module doc for the op-group.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panels_q16_avx2(a: &[Q16], k: usize, panels: &[Q16], n: usize, c: &mut [Q16]) {
    for_each_tile!(tile_q16_avx2, a, k, panels, n, c);
}

/// One `R × 4` Q2.13 tile: `a` is `R` rows of A, `panel` one packed panel,
/// `c` starts at the tile's first output and has row stride `n`.
///
/// Each 256-bit accumulator is one batch row's 4 lanes × 4 columns of
/// `i16`. Per k-quad the weight vector is loaded once and reused for all
/// `R` rows; each row broadcasts its activation quad (64 bits) four times
/// and runs the op-group that is `saturating_mul` then `saturating_add` in
/// every element.
///
/// # Panics
///
/// Panics unless `a.len() == R * k` and `panel.len() == 4 * k` (the bounds
/// of every raw read below), or if `c` is shorter than `(R - 1) * n + 4`.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tile_q16_avx2<const R: usize>(
    a: &[Q16],
    k: usize,
    panel: &[Q16],
    n: usize,
    c: &mut [Q16],
) {
    use std::arch::x86_64::{
        __m256i, _mm256_adds_epi16, _mm256_loadu_si256, _mm256_mulhi_epi16, _mm256_mullo_epi16,
        _mm256_packs_epi32, _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_srai_epi32,
        _mm256_storeu_si256, _mm256_unpackhi_epi16, _mm256_unpacklo_epi16,
    };
    assert!(a.len() == R * k && panel.len() == NR * k, "tile operands disagree with k");
    let quads = k / LANES;
    let mut acc = [_mm256_setzero_si256(); R];
    for q in 0..quads {
        // SAFETY: `Q16` is `repr(transparent)` over `i16`; quad `q` of the
        // panel is the 16 elements at `q * 16`, and `quads * 16 <= 4 * k`,
        // the panel's length asserted above.
        let w = unsafe { _mm256_loadu_si256(panel.as_ptr().add(q * QUAD).cast::<__m256i>()) };
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // SAFETY: `a` is `R * k` long (asserted above) and `r < R`,
            // `4 * (q + 1) <= k`: the 4 × i16 unaligned read at
            // `r * k + 4 * q` is in bounds.
            let quad = unsafe { a.as_ptr().add(r * k + q * LANES).cast::<i64>().read_unaligned() };
            let x = _mm256_set1_epi64x(quad);
            let lo = _mm256_mullo_epi16(x, w);
            let hi = _mm256_mulhi_epi16(x, w);
            let p0 = _mm256_srai_epi32::<13>(_mm256_unpacklo_epi16(lo, hi));
            let p1 = _mm256_srai_epi32::<13>(_mm256_unpackhi_epi16(lo, hi));
            *acc_r = _mm256_adds_epi16(*acc_r, _mm256_packs_epi32(p0, p1));
        }
    }
    let w_tail = &panel[quads * QUAD..];
    for (r, acc_r) in acc.iter().enumerate() {
        let mut lanes = [Q16::ZERO; QUAD];
        // SAFETY: `lanes` is 16 × i16 (`Q16` is `repr(transparent)`), the
        // width of one unaligned 256-bit store.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), *acc_r) };
        finish_row(&lanes, &a[r * k + quads * LANES..(r + 1) * k], w_tail, &mut c[r * n..]);
    }
}

/// AVX2 `f32` panels: `mul_ps` then `add_ps` per element, never FMA.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panels_f32_avx2(a: &[f32], k: usize, panels: &[f32], n: usize, c: &mut [f32]) {
    for_each_tile!(tile_f32_avx2, a, k, panels, n, c);
}

/// One `R × 4` `f32` tile, arguments as in [`tile_q16_avx2`]. A k-quad is
/// two 8-float vectors (columns 0–1, columns 2–3); the activation quad is
/// broadcast to both 128-bit halves.
///
/// # Panics
///
/// Panics unless `a.len() == R * k` and `panel.len() == 4 * k` (the bounds
/// of every raw read below), or if `c` is shorter than `(R - 1) * n + 4`.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tile_f32_avx2<const R: usize>(
    a: &[f32],
    k: usize,
    panel: &[f32],
    n: usize,
    c: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set_m128, _mm256_setzero_ps,
        _mm256_storeu_ps, _mm_loadu_ps,
    };
    assert!(a.len() == R * k && panel.len() == NR * k, "tile operands disagree with k");
    let quads = k / LANES;
    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    for q in 0..quads {
        // SAFETY: quad `q` of the panel is the 16 floats at `q * 16`
        // (two 8-float loads), and `quads * 16 <= 4 * k`, the panel's
        // length asserted above.
        let (w0, w1) = unsafe {
            let w = panel.as_ptr().add(q * QUAD);
            (_mm256_loadu_ps(w), _mm256_loadu_ps(w.add(QUAD / 2)))
        };
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // SAFETY: `a` is `R * k` long (asserted above) and `r < R`,
            // `4 * (q + 1) <= k`: the 4-float unaligned load at
            // `r * k + 4 * q` is in bounds.
            let quad = unsafe { _mm_loadu_ps(a.as_ptr().add(r * k + q * LANES)) };
            let x = _mm256_set_m128(quad, quad);
            acc_r[0] = _mm256_add_ps(acc_r[0], _mm256_mul_ps(x, w0));
            acc_r[1] = _mm256_add_ps(acc_r[1], _mm256_mul_ps(x, w1));
        }
    }
    let w_tail = &panel[quads * QUAD..];
    for (r, acc_r) in acc.iter().enumerate() {
        let mut lanes = [0.0f32; QUAD];
        // SAFETY: `lanes` is 16 floats: two unaligned 8-float stores.
        unsafe {
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc_r[0]);
            _mm256_storeu_ps(lanes.as_mut_ptr().add(QUAD / 2), acc_r[1]);
        }
        finish_row(&lanes, &a[r * k + quads * LANES..(r + 1) * k], w_tail, &mut c[r * n..]);
    }
}

/// Multiply–accumulate operation count of a GEMM (2·m·k·n, the convention
/// behind the paper's GOP/s numbers).
#[must_use]
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Q32;
    use microrec_rng::Rng;

    fn det_matrix(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            // Small deterministic values in [-0.5, 0.5).
            let v = ((r * 31 + c * 17) as f32 * seed).sin();
            v * 0.5
        })
    }

    #[test]
    fn gemv_matches_manual_dot() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let x = [1.0f32, 0.5, -1.0];
        let mut y = [0.0f32; 2];
        gemv(&w, &x, &mut y).unwrap();
        assert_eq!(y, [1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn gemv_shape_errors() {
        let w = Matrix::zeros(2, 3);
        let mut y = [0.0f32; 2];
        assert!(gemv(&w, &[0.0; 4], &mut y).is_err());
        let mut y3 = [0.0f32; 3];
        assert!(gemv(&w, &[0.0; 3], &mut y3).is_err());
    }

    #[test]
    fn packed_matches_gemv_bit_for_bit() {
        // The packed kernel and GEMV must agree *exactly*, not within a
        // tolerance: predict_batch's bit-identical guarantee rests on it.
        let w = det_matrix(33, 50, 0.19); // odd shapes exercise remainders
        let packed_f: PackedB<f32> = PackedB::from_transposed(&w);
        let packed_q16: PackedB<Q16> = PackedB::from_transposed(&w);
        let packed_q32: PackedB<Q32> = PackedB::from_transposed(&w);
        for batch in [1usize, 3, 8] {
            let x_f: Vec<f32> = (0..batch * 50).map(|i| ((i as f32) * 0.23).cos() * 0.4).collect();

            let mut c = vec![0.0f32; batch * 33];
            gemm_packed(&x_f, batch, &packed_f, &mut c).unwrap();
            for item in 0..batch {
                let mut y = vec![0.0f32; 33];
                gemv(&w, &x_f[item * 50..(item + 1) * 50], &mut y).unwrap();
                for (a, b) in c[item * 33..(item + 1) * 33].iter().zip(&y) {
                    assert_eq!(a.to_bits(), b.to_bits(), "f32 batch {batch}");
                }
            }

            let x_q: Vec<Q16> = x_f.iter().map(|&v| Q16::from_f32(v)).collect();
            let mut c = vec![Q16::ZERO; batch * 33];
            gemm_packed(&x_q, batch, &packed_q16, &mut c).unwrap();
            for item in 0..batch {
                let mut y = vec![Q16::ZERO; 33];
                gemv(&w, &x_q[item * 50..(item + 1) * 50], &mut y).unwrap();
                assert_eq!(&c[item * 33..(item + 1) * 33], &y[..], "Q16 batch {batch}");
            }

            let x_q: Vec<Q32> = x_f.iter().map(|&v| Q32::from_f32(v)).collect();
            let mut c = vec![Q32::ZERO; batch * 33];
            gemm_packed(&x_q, batch, &packed_q32, &mut c).unwrap();
            for item in 0..batch {
                let mut y = vec![Q32::ZERO; 33];
                gemv(&w, &x_q[item * 50..(item + 1) * 50], &mut y).unwrap();
                assert_eq!(&c[item * 33..(item + 1) * 33], &y[..], "Q32 batch {batch}");
            }
        }
    }

    /// Runs the adversarial shape sweep at precision `T`: random operands of
    /// the given `amplitude` (the rows of A listed by `special_rows` get
    /// those values planted at random positions), every output of the
    /// dispatched [`gemm_packed`] compared to [`dot_scalar`] over the
    /// unpacked column, and the portable tile run directly over the same
    /// panels and compared to the dispatched result — which on an AVX2 host
    /// pins the vector tile against the portable one. `each` sees every
    /// (A row, B column, output) for precision-specific accounting.
    fn sweep<T: FixedNum>(
        amplitude: f32,
        special_rows: &[&[f32]],
        same: fn(T, T) -> bool,
        mut each: impl FnMut(&[T], &[T], T),
    ) {
        let mut rng = Rng::seed_from_u64(0x5A7_0001);
        for m in [1usize, 2, 3, 4, 5, 7, 32, 33] {
            for k in [0usize, 1, 3, 4, 7, 8, 50, 512] {
                for n in [1usize, 3, 4, 5, 8, 9, 33] {
                    let shape = format!("{m}x{k}x{n}");
                    let b = Matrix::from_fn(k, n, |_, _| rng.gen_range_f32(-amplitude, amplitude));
                    let mut a: Vec<T> = (0..m * k)
                        .map(|_| T::from_f32(rng.gen_range_f32(-amplitude, amplitude)))
                        .collect();
                    for (arow, specials) in a.chunks_exact_mut(k.max(1)).zip(special_rows) {
                        for &v in *specials {
                            arow[rng.gen_range_usize(0, arow.len())] = T::from_f32(v);
                        }
                    }
                    let packed: PackedB<T> = PackedB::pack(&b);
                    let mut c = vec![T::from_f32(1.0); m * n];
                    gemm_packed(&a, m, &packed, &mut c).unwrap();
                    for j in 0..n {
                        let col: Vec<T> = (0..k).map(|kk| T::from_f32(b.get(kk, j))).collect();
                        for i in 0..m {
                            let arow = &a[i * k..(i + 1) * k];
                            let (got, want) = (c[i * n + j], dot_scalar(arow, &col));
                            assert!(same(got, want), "{shape} [{i}][{j}]: {got:?} vs {want:?}");
                            each(arow, &col, got);
                        }
                    }
                    if k == 0 {
                        continue;
                    }
                    let full = n - n % NR;
                    let mut portable = vec![T::ZERO; m * n];
                    gemm_panels_portable(&a, k, &packed.data[..full * k], n, &mut portable);
                    for (row, (got, want)) in
                        portable.chunks_exact(n).zip(c.chunks_exact(n)).enumerate()
                    {
                        for j in 0..full {
                            assert!(same(got[j], want[j]), "{shape} portable tile [{row}][{j}]");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn saturating_sweep_q16_matches_oracle_and_portable_tile() {
        // Amplitude 3.9 in a ±4 format: single products clamp, and lane
        // sums run into the rails and come back — a kernel that reorders k,
        // or widens an accumulator, gets a different number.
        let (mut outputs, mut clamped) = (0usize, 0usize);
        sweep::<Q16>(
            3.9,
            &[],
            |a, b| a == b,
            |arow, col, got| {
                let unclamped: i64 = arow
                    .iter()
                    .zip(col)
                    .map(|(x, w)| i64::from((i32::from(x.to_raw()) * i32::from(w.to_raw())) >> 13))
                    .sum();
                outputs += 1;
                clamped += usize::from(unclamped != i64::from(got.to_raw()));
            },
        );
        assert!(clamped * 2 > outputs, "only {clamped} of {outputs} outputs saw saturation");
    }

    #[test]
    fn saturating_sweep_q32_matches_oracle_and_portable_tile() {
        let (mut outputs, mut railed) = (0usize, 0usize);
        sweep::<Q32>(
            250.0,
            &[],
            |a, b| a == b,
            |_, _, got| {
                outputs += 1;
                railed += usize::from(got == Q32::MAX || got == Q32::MIN);
            },
        );
        assert!(railed > 0 && railed < outputs, "{railed} of {outputs} outputs on a rail");
    }

    #[test]
    fn sweep_f32_matches_oracle_and_portable_tile_with_specials() {
        // NaN payloads are not part of the contract (Rust leaves them
        // unspecified); everything else is compared by bit pattern.
        let special_rows: [&[f32]; 5] = [
            &[f32::NAN],
            &[f32::INFINITY],
            &[f32::NEG_INFINITY, f32::NEG_INFINITY],
            &[f32::INFINITY, f32::NEG_INFINITY],
            &[1e-40, -3e-42, f32::MIN_POSITIVE],
        ];
        let (mut nan, mut inf, mut subnormal) = (0usize, 0usize, 0usize);
        sweep::<f32>(
            3.9,
            &special_rows,
            |a, b| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            |_, _, got| {
                nan += usize::from(got.is_nan());
                inf += usize::from(got.is_infinite());
                subnormal += usize::from(got.is_subnormal());
            },
        );
        assert!(nan > 0 && inf > 0 && subnormal > 0, "nan {nan} inf {inf} subnormal {subnormal}");
    }

    #[test]
    fn quantizing_dot_matches_scalar_reference() {
        for n in [0usize, 1, 3, 4, 5, 8, 11, 64, 127] {
            let a: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.417).sin() * 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.713).cos() * 2.0).collect();
            assert_eq!(dot_quantizing::<f32>(&a, &b).to_bits(), dot_scalar(&a, &b).to_bits());
            let bq: Vec<Q16> = b.iter().map(|&v| Q16::from_f32(v)).collect();
            let aq: Vec<Q16> = a.iter().map(|&v| Q16::from_f32(v)).collect();
            assert_eq!(dot_quantizing(&a, &bq), dot_scalar(&aq, &bq), "n={n}");
        }
    }

    #[test]
    fn pack_and_from_transposed_agree() {
        let b = det_matrix(20, 13, 0.41);
        let packed: PackedB<f32> = PackedB::pack(&b);
        let packed_t: PackedB<f32> = PackedB::from_transposed(&b.transposed());
        assert_eq!(packed, packed_t);
        assert_eq!(packed.k(), 20);
        assert_eq!(packed.n(), 13);
        // Body quads, the k-tail, full panels and the n-tail column alike.
        for (kk, j) in [(3, 5), (0, 0), (19, 11), (17, 2), (7, 12), (19, 12)] {
            assert_eq!(packed.get(kk, j), b.get(kk, j), "element ({kk}, {j})");
        }
    }

    #[test]
    fn packed_shape_errors() {
        let b: PackedB<f32> = PackedB::pack(&Matrix::zeros(4, 3));
        let mut c = vec![0.0f32; 6];
        assert!(gemm_packed(&[0.0f32; 7], 2, &b, &mut c).is_err());
        let mut short = vec![0.0f32; 5];
        assert!(gemm_packed(&[0.0f32; 8], 2, &b, &mut short).is_err());
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(gemm_naive(&a, &b).is_err());
    }

    #[test]
    fn fixed_point_gemv_tracks_f32() {
        let w = det_matrix(16, 32, 0.11);
        let x_f: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.3).cos() * 0.5).collect();

        let mut y_f = vec![0.0f32; 16];
        gemv(&w, &x_f, &mut y_f).unwrap();

        let x_q: Vec<Q32> = x_f.iter().map(|&v| Q32::from_f32(v)).collect();
        let mut y_q = vec![Q32::ZERO; 16];
        gemv(&w, &x_q, &mut y_q).unwrap();
        for (f, q) in y_f.iter().zip(&y_q) {
            assert!((f - q.to_f32()).abs() < 1e-2, "Q32 {f} vs {}", q.to_f32());
        }

        let x_q: Vec<Q16> = x_f.iter().map(|&v| Q16::from_f32(v)).collect();
        let mut y_q = vec![Q16::ZERO; 16];
        gemv(&w, &x_q, &mut y_q).unwrap();
        for (f, q) in y_f.iter().zip(&y_q) {
            assert!((f - q.to_f32()).abs() < 0.3, "Q16 {f} vs {}", q.to_f32());
        }
    }

    #[test]
    fn flops_convention() {
        // The small production model's first layer: 352 x 1024.
        assert_eq!(gemm_flops(1, 352, 1024), 720_896);
    }
}
