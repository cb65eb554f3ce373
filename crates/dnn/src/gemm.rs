//! GEMM / GEMV kernels.
//!
//! Two families live here. The **oracle** is [`dot_scalar`] (and its
//! weight-quantizing twin [`dot_quantizing`], behind [`gemv`] and
//! `Mlp::forward`): one inner product over two contiguous slices, written
//! over the precision's own multiply–accumulate ([`FixedNum::Acc`]) with 4
//! accumulator lanes — lane `l` summing the products at `k ≡ l (mod 4)` in
//! ascending `k`, the lanes combined pairwise `(l0+l1)+(l2+l3)` and the
//! `k mod 4` tail appended last. For `f32` and Q8.23, whose every step
//! rounds or saturates, that summation order *is* the definition of the
//! result — any other order is a different number. Q2.13 sums raw products
//! exactly in an `i64` and saturates once per output
//! (`clamp_i16((Σ xₖ·wₖ) >> 13)`, a DSP slice's wide accumulator), so the
//! same code yields the order-independent exact result and a kernel is free
//! to regroup its terms.
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
//! lane `l` of column `c`. For the lane-ordered precisions, multiplying it
//! element-wise by the activation quad `[x0 x1 x2 x3]` broadcast four times
//! and adding it element-wise into an accumulator performs, in every
//! element, exactly the oracle's `lanes[l] = lanes[l] + x[l] * w[l]` for
//! one output — no element ever sees another's product, so each rounding
//! (or saturation) happens at the same step with the same operands as in
//! [`dot_scalar`]. The tile keeps [`MR`] = 4 batch rows of accumulators in
//! registers, so each weight vector is loaded once per 4 rows; panels are
//! the outer loop, so B is streamed exactly once per call while the panel
//! (`8k` bytes at Q2.13) stays in L1 across the batch. Lanes are combined
//! ([`combine_lanes`]) and the k-tail appended ([`finish_row`]) by the same
//! scalar code at every precision.
//!
//! Per precision ([`FixedNum::gemm_panels`] picks at run time):
//!
//! * **Q2.13 on AVX2** — the k-quad layout already puts k-pairs side by
//!   side, so `madd_epi16` (`vpmaddwd`) turns one weight vector and one
//!   broadcast activation quad into 8 exact `i32` pair sums
//!   `x₀w₀ + x₁w₁`, `x₂w₂ + x₃w₃` per column, and `add_epi32` accumulates
//!   them: 16 MACs per 2 vector instructions. An `i32` lane holds
//!   [`PackedB`]'s `i32_quads` k-quads of such sums without overflow (a
//!   bound from the packed weights' largest magnitude, found at pack time;
//!   45–63 for this repo's Xavier layers), after which it is widened into
//!   two `i64` accumulators per row — the `Acc` the oracle sums in. Nothing
//!   rounds or saturates before [`FixedNum::narrow`], so the regrouping is
//!   exact.
//! * **Q2.13 on AVX-512 VNNI** (preferred where AVX-512F, -BW and -VNNI are
//!   all present) — the same pair sums in the same `i32` lanes, two panels
//!   per 512-bit weight vector (`vinserti64x4` of their k-quads), and
//!   `dpwssd_epi32` (`vpdpwssd`) multiplies, pair-sums and accumulates in
//!   one instruction: 32 MACs each. Its 5-cycle latency sits on the
//!   accumulator chain, so the tile ([`tile_q16_avx512`]) is 6 panels × 4
//!   rows, 12 independent chains. Of the shapes tried, 2 panels × 8 rows
//!   served batches of 32 about as fast but `serve-open`'s single items
//!   4–9 % slower, and the AVX2 tile's shape on 256-bit AVX-VNNI (4 chains)
//!   lost to `vpmaddwd` + `vpaddd`. Blocks of `i32_quads` k-quads end in a
//!   stack array of `i64`; panels left over after the 6-panel groups take a
//!   4- or 2-panel instantiation and, if odd, the AVX2 tile. The ledger's
//!   `dnn.roofline_frac` divides by the `f32` 256-bit FMA peak
//!   (`host.peak_gmacs_per_s`, 8 MACs per instruction), so under this tile
//!   it reads above 1.
//! * **`f32` on AVX2** — the lane-ordered tile, two 8-float vectors per
//!   k-quad (2 columns each), `mul_ps` then `add_ps`; never FMA, which
//!   rounds once where the oracle rounds twice.
//! * **Q8.23, and every precision off AVX2** — the lane-ordered tile in
//!   portable scalar code ([`gemm_panels_portable`]), also the in-crate
//!   reference the vector tiles are pinned against; Q2.13 panels holding a
//!   weight of −32768 take it too (see [`q16_i32_quads`]).

use std::num::NonZeroUsize;

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

/// The oracle's lane structure over `len` operand pairs: 4 accumulator
/// lanes (`pair(j)` goes to lane `j mod 4`), combined pairwise
/// (`(l0+l1)+(l2+l3)`), the `len mod 4` remainder appended last, then
/// narrowed — each step the precision's own [`FixedNum::mac`].
#[inline]
fn dot_lanes<T: FixedNum>(len: usize, pair: impl Fn(usize) -> (T, T)) -> T {
    let mac = |acc: T::Acc, j: usize| {
        let (x, w) = pair(j);
        T::mac(acc, x, w)
    };
    let mut lanes = [T::Acc::default(); LANES];
    let quads = len / LANES;
    for i in 0..quads {
        let j = i * LANES;
        lanes[0] = mac(lanes[0], j);
        lanes[1] = mac(lanes[1], j + 1);
        lanes[2] = mac(lanes[2], j + 2);
        lanes[3] = mac(lanes[3], j + 3);
    }
    let sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    T::narrow((quads * LANES..len).fold(sum, mac))
}

/// Inner product of two equal-length slices — the oracle (`dot_lanes`).
///
/// [`dot_quantizing`] is the same function over on-the-fly weights and
/// [`gemm_packed`] reproduces it per output, which is what makes batched
/// and single-item inference bit-identical: at `f32` and Q8.23 the same
/// element products in the same summation order, at Q2.13 the same exact
/// sum.
#[inline]
pub fn dot_scalar<T: FixedNum>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    dot_lanes(a.len(), |j| (a[j], b[j]))
}

/// [`dot_scalar`] with `f32` weights quantized element-wise on the fly.
///
/// `T::from_f32(w)` yields the same `T` value whether the weight was
/// converted here or pre-converted during packing — so GEMV over master
/// weights and the packed kernel over pre-quantized weights agree bit for
/// bit.
#[inline]
pub fn dot_quantizing<T: FixedNum>(w: &[f32], x: &[T]) -> T {
    debug_assert_eq!(w.len(), x.len());
    dot_lanes(w.len(), |j| (T::from_f32(w[j]), x[j]))
}

/// The CPU features every vector kernel in the crate dispatches on, as bits
/// of one word probed once per process: AVX2 (the AVX2 Q2.13 and `f32`
/// tiles) and AVX-512F/BW/VNNI (the wide Q2.13 tile).
#[cfg(target_arch = "x86_64")]
pub(crate) mod cpu {
    use std::arch::is_x86_feature_detected as detected;
    use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
    pub(crate) const AVX2: u8 = 1;
    pub(crate) const AVX512_VNNI: u8 = 2;
    /// The probed features, with bit 7 set; 0 until the first probe.
    static WORD: AtomicU8 = AtomicU8::new(0);

    /// Whether the CPU has every feature in `features`: one relaxed load
    /// after the first call, whose CPUID probe is out of line and cold.
    #[inline]
    pub(crate) fn has(features: u8) -> bool {
        let word = WORD.load(Relaxed);
        let word = if word == 0 { probe() } else { word };
        word & features == features
    }
    #[cold]
    fn probe() -> u8 {
        let avx512_vnni = detected!("avx512f") && detected!("avx512bw") && detected!("avx512vnni");
        let word =
            0x80 | (u8::from(detected!("avx2")) * AVX2) | (u8::from(avx512_vnni) * AVX512_VNNI);
        WORD.store(word, Relaxed);
        word
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
    /// [`FixedNum::i32_quads`] of `data`; `None` sends [`gemm_packed`] to
    /// the portable tile.
    i32_quads: Option<NonZeroUsize>,
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
        let i32_quads = T::i32_quads(&data);
        PackedB { k, n, data, i32_quads }
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

    /// The full 4-column panels: all of the buffer but the tail columns.
    pub(crate) fn panels(&self) -> &[T] {
        &self.data[..(self.n - self.n % NR) * self.k]
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
    let tail_cols = &b.data[full * k..];
    T::gemm_panels(a, b, c);
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (slot, col) in crow[full..].iter_mut().zip(tail_cols.chunks_exact(k)) {
            *slot = dot_scalar(arow, col);
        }
    }
    Ok(())
}

/// Combines one batch row's 4 × 4 accumulator lanes (`lanes[4c + l]` is
/// lane `l` of panel column `c`) pairwise into the 4 columns' sums — the
/// middle of [`dot_lanes`], shared by the lane-ordered tiles.
#[inline]
fn combine_lanes<T: FixedNum>(lanes: &[T::Acc; QUAD]) -> [T::Acc; NR] {
    std::array::from_fn(|col| {
        let l = &lanes[col * LANES..(col + 1) * LANES];
        (l[0] + l[1]) + (l[2] + l[3])
    })
}

/// Appends the k-tail products in order to one batch row's 4 column sums,
/// narrows them and writes the 4 outputs — the end of [`dot_lanes`], shared
/// by every tile so the vector paths cannot drift from it.
#[inline]
fn finish_row<T: FixedNum>(sums: [T::Acc; NR], a_tail: &[T], w_tail: &[T], out: &mut [T]) {
    let kt = a_tail.len();
    for (col, (slot, mut sum)) in out[..NR].iter_mut().zip(sums).enumerate() {
        for (&x, &w) in a_tail.iter().zip(&w_tail[col * kt..(col + 1) * kt]) {
            sum = T::mac(sum, x, w);
        }
        *slot = T::narrow(sum);
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
            let mut lanes = [T::Acc::default(); QUAD];
            for (col, l) in lanes.chunks_exact_mut(LANES).enumerate() {
                for (x, w) in a_body.chunks_exact(LANES).zip(w_body.chunks_exact(QUAD)) {
                    let w = &w[col * LANES..(col + 1) * LANES];
                    l[0] = T::mac(l[0], x[0], w[0]);
                    l[1] = T::mac(l[1], x[1], w[1]);
                    l[2] = T::mac(l[2], x[2], w[2]);
                    l[3] = T::mac(l[3], x[3], w[3]);
                }
            }
            finish_row(combine_lanes::<T>(&lanes), a_tail, w_tail, &mut crow[p * NR..]);
        }
    }
}

/// [`FixedNum::i32_quads`] at Q2.13, for [`tile_q16_avx2`]: `vpmaddwd`
/// leaves `x₀w₀ + x₁w₁` in each `i32` lane, at most `2 · 32768 · max|w|` in
/// magnitude whatever the activations, so `⌊(2³¹ − 1) / (2 · 32768 ·
/// max|w|)⌋` k-quads of them sum without overflow (any number, if every
/// weight is zero). A weight of −32768 gives `None`: next to an activation
/// of −32768 the instruction itself wraps, and such panels take the
/// portable tile.
pub(crate) fn q16_i32_quads(packed: &[Q16]) -> Option<NonZeroUsize> {
    let max = packed.iter().map(|w| u32::from(w.to_raw().unsigned_abs())).max().unwrap_or(0);
    let quads = (i32::MAX as u32).checked_div(2 * 32768 * max);
    NonZeroUsize::new(quads.map_or(usize::MAX, |quads| quads as usize))
}

/// Q2.13 [`FixedNum::gemm_panels`]: the AVX-512 VNNI tile where the CPU has
/// it, else the AVX2 tile, else (or for a −32768 weight) the portable one.
pub(crate) fn gemm_panels_q16(a: &[Q16], b: &PackedB<Q16>, c: &mut [Q16]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(i32_quads) = b.i32_quads {
        if cpu::has(cpu::AVX2 | cpu::AVX512_VNNI) {
            // SAFETY: the feature check above guarantees AVX2 and
            // AVX-512F/BW/VNNI.
            unsafe { gemm_panels_q16_avx512(a, b.k, b.panels(), b.n, c, i32_quads) };
            return;
        }
        if cpu::has(cpu::AVX2) {
            // SAFETY: the feature check above guarantees AVX2.
            unsafe { gemm_panels_q16_avx2(a, b.k, b.panels(), b.n, c, i32_quads) };
            return;
        }
    }
    gemm_panels_portable(a, b.k, b.panels(), b.n, c);
}

/// `f32` [`FixedNum::gemm_panels`]: the AVX2 tile where the CPU has it.
pub(crate) fn gemm_panels_f32(a: &[f32], b: &PackedB<f32>, c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if cpu::has(cpu::AVX2) {
        // SAFETY: the feature check above guarantees AVX2.
        unsafe { gemm_panels_f32_avx2(a, b.k, b.panels(), b.n, c) };
        return;
    }
    gemm_panels_portable(a, b.k, b.panels(), b.n, c);
}

/// Walks groups of `$width` panels (outer) and [`MR`]-row groups (inner),
/// handing each `R × 4·$width` tile to `$tile::<$G.., R>` (with any `$extra`
/// arguments appended); the last `m % MR` rows get a narrower instantiation
/// of the same tile.
#[cfg(target_arch = "x86_64")]
macro_rules! for_each_tile {
    (
        $tile:ident $(::<$($g:ident),+>)?, $width:expr,
        $a:ident, $k:ident, $panels:ident, $n:ident, $c:ident $(, $extra:ident)*
    ) => {{
        let (m, width) = ($a.len() / $k, $width);
        for (p, group) in $panels.chunks_exact(width * NR * $k).enumerate() {
            let mut i = 0;
            while i < m {
                let rows = (m - i).min(MR);
                let a_rows = &$a[i * $k..(i + rows) * $k];
                let c_rows = &mut $c[i * $n + p * width * NR..];
                // SAFETY: the caller's own contract — the CPU has every
                // feature the tile is compiled for.
                unsafe {
                    match rows {
                        4 => $tile::<$($($g,)+)? 4>(a_rows, $k, group, $n, c_rows $(, $extra)*),
                        3 => $tile::<$($($g,)+)? 3>(a_rows, $k, group, $n, c_rows $(, $extra)*),
                        2 => $tile::<$($($g,)+)? 2>(a_rows, $k, group, $n, c_rows $(, $extra)*),
                        _ => $tile::<$($($g,)+)? 1>(a_rows, $k, group, $n, c_rows $(, $extra)*),
                    }
                }
                i += rows;
            }
        }
    }};
}

/// `vpdpwssd` accumulators per batch row of the AVX-512 VNNI tile, each
/// holding two panels: the tile is 6 panels (24 columns) wide.
#[cfg(target_arch = "x86_64")]
const ZMM_PER_ROW: usize = 3;

/// AVX-512 VNNI Q2.13 panels: groups of 6 panels in [`tile_q16_avx512`],
/// the last 2 or 4 in a narrower instantiation of it, an odd last panel in
/// [`tile_q16_avx2`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and AVX-512F/BW/VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
unsafe fn gemm_panels_q16_avx512(
    a: &[Q16],
    k: usize,
    panels: &[Q16],
    n: usize,
    c: &mut [Q16],
    i32_quads: NonZeroUsize,
) {
    let pair = 2 * NR * k;
    // Where the 2- or 4-panel rest and an odd last panel start in the panel
    // buffer; offset / k is their first output column (a panel is `4k`).
    let rest = panels.len() - panels.len() % (ZMM_PER_ROW * pair);
    let odd = panels.len() - panels.len() % pair;
    // SAFETY: the caller's own contract, for all four calls.
    unsafe {
        groups_q16_avx512::<ZMM_PER_ROW>(a, k, &panels[..rest], n, c, i32_quads);
        let (pairs, c_pairs) = (&panels[rest..odd], &mut c[rest / k..]);
        match pairs.len() / pair {
            2 => groups_q16_avx512::<2>(a, k, pairs, n, c_pairs, i32_quads),
            1 => groups_q16_avx512::<1>(a, k, pairs, n, c_pairs, i32_quads),
            _ => {}
        }
        gemm_panels_q16_avx2(a, k, &panels[odd..], n, &mut c[odd / k..], i32_quads);
    }
}

/// Hands every `2·Z`-panel group of `panels` to [`tile_q16_avx512`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F/BW/VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn groups_q16_avx512<const Z: usize>(
    a: &[Q16],
    k: usize,
    panels: &[Q16],
    n: usize,
    c: &mut [Q16],
    i32_quads: NonZeroUsize,
) {
    for_each_tile!(tile_q16_avx512::<Z>, 2 * Z, a, k, panels, n, c, i32_quads);
}

/// One `R × 8Z` Q2.13 tile: `panels` is `2Z` consecutive packed panels,
/// the other arguments as in [`tile_q16_avx2`].
///
/// Per k-quad, panels `2z` and `2z + 1` fill the two 256-bit halves of
/// weight vector `z` (`vinserti64x4`), so its `i32` element `8h + 2c + p`
/// is column `c` of panel `2z + h`, k-pair `p` — the AVX2 tile's elements,
/// two panels at once. Each row broadcasts its activation quad to all
/// eight 64-bit lanes, and `dpwssd_epi32` (`vpdpwssd`) adds the exact pair
/// sums `x₀w₀ + x₁w₁`, `x₂w₂ + x₃w₃` into the row's `Z` accumulators in one
/// instruction: `R · Z` independent `i32` chains (12 at 4 × 3), which is
/// what it takes to cover the instruction's latency. The `i32_quads` bound
/// ([`q16_i32_quads`]) is the AVX2 tile's, for the same sums in the same
/// lanes; after each block the accumulators are sign-extended and added
/// into a stack array of `i64` pair sums, from which [`finish_row`] ends
/// each panel's row.
///
/// # Panics
///
/// Panics unless `a.len() == R * k` and `panels.len() == 8 * Z * k` (the
/// bounds of every raw read below), or if `c` is shorter than `(R - 1) * n
/// + 8 * Z`.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F/BW/VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[inline]
unsafe fn tile_q16_avx512<const Z: usize, const R: usize>(
    a: &[Q16],
    k: usize,
    panels: &[Q16],
    n: usize,
    c: &mut [Q16],
    i32_quads: NonZeroUsize,
) {
    use std::arch::x86_64::{
        __m256i, __m512i, _mm256_loadu_si256, _mm512_add_epi64, _mm512_castsi256_si512,
        _mm512_castsi512_si256, _mm512_cvtepi32_epi64, _mm512_dpwssd_epi32,
        _mm512_extracti64x4_epi64, _mm512_inserti64x4, _mm512_loadu_si512, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_storeu_si512,
    };
    let stride = NR * k;
    assert!(a.len() == R * k && panels.len() == 2 * Z * stride, "tile operands disagree with k");
    let quads = k / LANES;
    // Row `r`'s pair sums: `wide[r][z]` widens accumulator `z`, element by
    // element (two 8 × i64 halves).
    let mut wide = [[[0i64; QUAD]; Z]; R];
    let mut block = 0;
    while block < quads {
        let end = quads.min(block.saturating_add(i32_quads.get()));
        let mut acc = [[_mm512_setzero_si512(); Z]; R];
        for q in block..end {
            let mut w = [_mm512_setzero_si512(); Z];
            for (z, w_z) in w.iter_mut().enumerate() {
                // SAFETY: `Q16` is `repr(transparent)` over `i16`; quad `q`
                // of panel `2z + h` is the 16 elements at `(2z + h) * 4k +
                // 16q`, and `16 * quads <= 4k`, so both reads end inside the
                // `2Z` panels asserted above.
                *w_z = unsafe {
                    let low = panels.as_ptr().add(2 * z * stride + q * QUAD).cast::<__m256i>();
                    let high = panels.as_ptr().add((2 * z + 1) * stride + q * QUAD);
                    let low = _mm512_castsi256_si512(_mm256_loadu_si256(low));
                    _mm512_inserti64x4::<1>(low, _mm256_loadu_si256(high.cast::<__m256i>()))
                };
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let at = r * k + q * LANES;
                // SAFETY: `a` is `R * k` long (asserted above) and `r < R`,
                // `4 * (q + 1) <= k`: the 4 × i16 unaligned read at
                // `r * k + 4 * q` is in bounds.
                let quad = unsafe { a.as_ptr().add(at).cast::<i64>().read_unaligned() };
                let x = _mm512_set1_epi64(quad);
                for (acc_rz, &w_z) in acc_r.iter_mut().zip(&w) {
                    *acc_rz = _mm512_dpwssd_epi32(*acc_rz, x, w_z);
                }
            }
        }
        for (wide_r, acc_r) in wide.iter_mut().zip(&acc) {
            for (wide_rz, &acc_rz) in wide_r.iter_mut().zip(acc_r) {
                let halves = [
                    _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc_rz)),
                    _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(acc_rz)),
                ];
                for (sums, half) in wide_rz.chunks_exact_mut(QUAD / 2).zip(halves) {
                    let at = sums.as_mut_ptr().cast::<__m512i>();
                    // SAFETY: `sums` is 8 × i64, the width of one unaligned
                    // 512-bit load and store.
                    unsafe {
                        _mm512_storeu_si512(at, _mm512_add_epi64(_mm512_loadu_si512(at), half))
                    };
                }
            }
        }
        block = end;
    }
    for (r, wide_r) in wide.iter().enumerate() {
        let a_tail = &a[r * k + quads * LANES..(r + 1) * k];
        let pairs = wide_r.iter().flat_map(|sums| sums.chunks_exact(2 * NR));
        for (p, (pairs, panel)) in pairs.zip(panels.chunks_exact(stride)).enumerate() {
            let sums = std::array::from_fn(|col| pairs[2 * col] + pairs[2 * col + 1]);
            finish_row(sums, a_tail, &panel[quads * QUAD..], &mut c[r * n + p * NR..]);
        }
    }
}

/// AVX2 Q2.13 panels: `madd_epi16` + `add_epi32`, widened every
/// `i32_quads` k-quads (module doc).
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panels_q16_avx2(
    a: &[Q16],
    k: usize,
    panels: &[Q16],
    n: usize,
    c: &mut [Q16],
    i32_quads: NonZeroUsize,
) {
    for_each_tile!(tile_q16_avx2, 1, a, k, panels, n, c, i32_quads);
}

/// One `R × 4` Q2.13 tile: `a` is `R` rows of A, `panel` one packed panel,
/// `c` starts at the tile's first output and has row stride `n`.
///
/// Per k-quad the weight vector is loaded once and reused for all `R`
/// rows; each row broadcasts its activation quad (64 bits) four times, and
/// `madd_epi16` leaves in `i32` element `2c + p` the exact sum of column
/// `c`'s k-pair `p` — accumulated per row in one `i32` vector for at most
/// `i32_quads` k-quads ([`q16_i32_quads`]: the panel's weights cannot
/// overflow it before that), then sign-extended into the row's two `i64`
/// vectors (columns 0–1, columns 2–3). All of it is exact integer
/// arithmetic, so the 8 pair sums add up to [`FixedNum::mac`]'s `i64` sum
/// over the panel's k-quads in any order.
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
    i32_quads: NonZeroUsize,
) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_castsi256_si128, _mm256_cvtepi32_epi64,
        _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi64x,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };
    assert!(a.len() == R * k && panel.len() == NR * k, "tile operands disagree with k");
    let quads = k / LANES;
    let mut wide = [[_mm256_setzero_si256(); 2]; R];
    let mut block = 0;
    while block < quads {
        let end = quads.min(block.saturating_add(i32_quads.get()));
        let mut acc = [_mm256_setzero_si256(); R];
        for q in block..end {
            // SAFETY: `Q16` is `repr(transparent)` over `i16`; quad `q` of
            // the panel is the 16 elements at `q * 16`, and `quads * 16 <=
            // 4 * k`, the panel's length asserted above.
            let w = unsafe { _mm256_loadu_si256(panel.as_ptr().add(q * QUAD).cast::<__m256i>()) };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let at = r * k + q * LANES;
                // SAFETY: `a` is `R * k` long (asserted above) and `r < R`,
                // `4 * (q + 1) <= k`: the 4 × i16 unaligned read at
                // `r * k + 4 * q` is in bounds.
                let quad = unsafe { a.as_ptr().add(at).cast::<i64>().read_unaligned() };
                let pairs = _mm256_madd_epi16(_mm256_set1_epi64x(quad), w);
                *acc_r = _mm256_add_epi32(*acc_r, pairs);
            }
        }
        for (wide_r, acc_r) in wide.iter_mut().zip(acc) {
            let (low, high) = (_mm256_castsi256_si128(acc_r), _mm256_extracti128_si256::<1>(acc_r));
            wide_r[0] = _mm256_add_epi64(wide_r[0], _mm256_cvtepi32_epi64(low));
            wide_r[1] = _mm256_add_epi64(wide_r[1], _mm256_cvtepi32_epi64(high));
        }
        block = end;
    }
    let w_tail = &panel[quads * QUAD..];
    for (r, wide_r) in wide.iter().enumerate() {
        let mut pairs = [0i64; 2 * NR];
        // SAFETY: `pairs` is 8 × i64, the width of two unaligned 256-bit
        // stores, the second one 4 elements in.
        unsafe {
            _mm256_storeu_si256(pairs.as_mut_ptr().cast::<__m256i>(), wide_r[0]);
            _mm256_storeu_si256(pairs.as_mut_ptr().add(NR).cast::<__m256i>(), wide_r[1]);
        }
        let sums = std::array::from_fn(|col| pairs[2 * col] + pairs[2 * col + 1]);
        finish_row(sums, &a[r * k + quads * LANES..(r + 1) * k], w_tail, &mut c[r * n..]);
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
    for_each_tile!(tile_f32_avx2, 1, a, k, panels, n, c);
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
        let sums = combine_lanes::<f32>(&lanes);
        finish_row(sums, &a[r * k + quads * LANES..(r + 1) * k], w_tail, &mut c[r * n..]);
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
    use crate::layer::{Activation, DenseLayer};
    use crate::mlp::Mlp;
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

    /// Runs the adversarial shape sweep at a lane-ordered precision `T` (Q2.13
    /// has its own, [`check_q16`], against a reference written out in the
    /// test): random operands of
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
                    gemm_panels_portable(&a, k, packed.panels(), n, &mut portable);
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

    /// The Q2.13 contract written out, independent of every kernel and of
    /// `FixedNum::mac`: the exact sum of the raw products, shifted down 13
    /// bits (floor) and clamped to `i16` once. Also returns whether some
    /// proper prefix of the sum was outside the representable range.
    fn wide_reference(arow: &[Q16], col: &[Q16]) -> (Q16, bool) {
        let in_range = |sum: i64| (-32768..=32767).contains(&(sum >> 13));
        let (mut sum, mut left) = (0i64, false);
        for (x, w) in arow.iter().zip(col) {
            left |= !in_range(sum);
            sum += i64::from(x.to_raw()) * i64::from(w.to_raw());
        }
        (Q16::from_raw((sum >> 13).clamp(-32768, 32767) as i16), left)
    }

    /// What the contract this one replaced gave: every product truncated and
    /// clamped, every add saturating, in the 4-lane order.
    fn per_mac_saturating(arow: &[Q16], col: &[Q16]) -> Q16 {
        let body = arow.len() - arow.len() % LANES;
        let mut lanes = [Q16::ZERO; LANES];
        for j in 0..body {
            lanes[j % LANES] += arow[j] * col[j];
        }
        let sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        (body..arow.len()).fold(sum, |sum, j| sum + arow[j] * col[j])
    }

    /// A Q2.13 panel tile called directly: `(a, k, panels, n, c, i32_quads)`.
    type Q16Tile = fn(&[Q16], usize, &[Q16], usize, &mut [Q16], NonZeroUsize);

    /// Every Q2.13 tile by name, `None` where this CPU cannot run it. The
    /// first call prints which ones run here and which are skipped, so a
    /// host without a vector unit cannot pass their checks silently.
    fn q16_tiles() -> [(&'static str, Option<Q16Tile>); 3] {
        let portable: Q16Tile = |a, k, panels, n, c, _| gemm_panels_portable(a, k, panels, n, c);
        #[cfg(target_arch = "x86_64")]
        let vector = {
            let avx2: Q16Tile = |a, k, p, n, c, q| {
                // SAFETY: listed below only where the CPU has AVX2.
                unsafe { gemm_panels_q16_avx2(a, k, p, n, c, q) }
            };
            let avx512: Q16Tile = |a, k, p, n, c, q| {
                // SAFETY: listed below only where the CPU has AVX2 and
                // AVX-512F/BW/VNNI.
                unsafe { gemm_panels_q16_avx512(a, k, p, n, c, q) }
            };
            [
                cpu::has(cpu::AVX2).then_some(avx2),
                cpu::has(cpu::AVX2 | cpu::AVX512_VNNI).then_some(avx512),
            ]
        };
        #[cfg(not(target_arch = "x86_64"))]
        let vector: [Option<Q16Tile>; 2] = [None, None];
        let tiles =
            [("portable", Some(portable)), ("AVX2", vector[0]), ("AVX-512 VNNI", vector[1])];
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            for (name, tile) in &tiles {
                let verdict = if tile.is_some() { "checked" } else { "SKIPPED: not on this CPU" };
                eprintln!("Q2.13 {name} tile: {verdict}");
            }
        });
        tiles
    }

    /// One Q2.13 case: `a` is `m × k`, `weight(kk, j)` the raw `B[kk][j]`.
    /// The dispatched [`gemm_packed`], every tile this CPU runs
    /// ([`q16_tiles`]) over the same panels — only the portable one if a
    /// weight is −32768 — and a one-layer `Mlp::forward::<Q16>` over the
    /// unpacked weights must each equal [`wide_reference`] in every output.
    /// Returns the packed `i32_quads`; `each` sees every (A row, B column,
    /// output).
    fn check_q16(
        m: usize,
        n: usize,
        a: &[Q16],
        weight: impl Fn(usize, usize) -> i16,
        mut each: impl FnMut(&[Q16], &[Q16], Q16),
    ) -> usize {
        let k = a.len() / m;
        let shape = format!("{m}x{k}x{n}");
        let b = Matrix::from_fn(k, n, |kk, j| f32::from(weight(kk, j)) / 8192.0);
        let packed: PackedB<Q16> = PackedB::pack(&b);
        assert_eq!(packed.data.len(), k * n, "{shape}: one buffer of k·n elements");
        let mut c = vec![Q16::ONE; m * n];
        gemm_packed(a, m, &packed, &mut c).unwrap();
        let tiles: Vec<(&str, Vec<Q16>)> = q16_tiles()
            .into_iter()
            .filter_map(|(name, tile)| {
                let tile = tile.filter(|_| packed.i32_quads.is_some() || name == "portable")?;
                let mut out = vec![Q16::ONE; m * n];
                tile(
                    a,
                    k,
                    packed.panels(),
                    n,
                    &mut out,
                    packed.i32_quads.unwrap_or(NonZeroUsize::MAX),
                );
                Some((name, out))
            })
            .collect();
        let layer = DenseLayer::new(b.transposed(), vec![0.0; n], Activation::Identity).unwrap();
        let mlp = Mlp::new(vec![layer]).unwrap();
        for (i, arow) in a.chunks_exact(k).enumerate() {
            let forward = mlp.forward::<Q16>(arow).unwrap();
            for j in 0..n {
                let col: Vec<Q16> = (0..k).map(|kk| Q16::from_raw(weight(kk, j))).collect();
                let (want, _) = wide_reference(arow, &col);
                assert_eq!(c[i * n + j], want, "{shape} [{i}][{j}]: dispatched tile");
                assert_eq!(forward[j], want, "{shape} [{i}][{j}]: Mlp::forward");
                for (name, out) in tiles.iter().filter(|_| j < n - n % NR) {
                    assert_eq!(out[i * n + j], want, "{shape} [{i}][{j}]: {name} tile");
                }
                each(arow, &col, want);
            }
        }
        packed.i32_quads.map_or(0, NonZeroUsize::get)
    }

    #[test]
    fn rail_sweep_q16_matches_the_wide_reference() {
        // Amplitude 3.9 in a ±4 format: a product alone can reach ±15, so
        // final outputs rail and partial sums leave the range and come back
        // — where per-MAC saturation clipped every step and this contract
        // clips once. The last row of the taller cases is all −32768.
        let mut rng = Rng::seed_from_u64(0x5A7_0001);
        let (mut outputs, mut railed, mut returned, mut moved) = (0usize, 0usize, 0usize, 0usize);
        for m in [1usize, 2, 3, 4, 5, 32, 33] {
            for k in [1usize, 2, 3, 4, 5, 7, 8, 13, 50, 512] {
                for n in [1usize, 3, 4, 5, 6, 7, 8, 24, 33, 44] {
                    let mut a: Vec<Q16> =
                        (0..m * k).map(|_| Q16::from_f32(rng.gen_range_f32(-3.9, 3.9))).collect();
                    if m >= 4 {
                        a[(m - 1) * k..].fill(Q16::MIN);
                    }
                    let b: Vec<i16> = (0..k * n)
                        .map(|_| Q16::from_f32(rng.gen_range_f32(-3.9, 3.9)).to_raw())
                        .collect();
                    check_q16(
                        m,
                        n,
                        &a,
                        |kk, j| b[kk * n + j],
                        |arow, col, got| {
                            outputs += 1;
                            railed += usize::from(got == Q16::MAX || got == Q16::MIN);
                            returned += usize::from(
                                wide_reference(arow, col).1 && got != Q16::MAX && got != Q16::MIN,
                            );
                            moved += usize::from(got != per_mac_saturating(arow, col));
                        },
                    );
                }
            }
        }
        assert!(railed * 8 > outputs && railed < outputs, "{railed} of {outputs} outputs railed");
        assert!(returned * 8 > outputs, "{returned} of {outputs} sums left ±4 and came back");
        assert!(moved * 4 > outputs, "only {moved} of {outputs} differ from per-MAC saturation");
    }

    #[test]
    fn i32_block_bound_is_exact_at_the_spill() {
        // For each weight magnitude `max`, inner dimensions whose k-quad
        // count straddles the `i32` block (one short, exact, one over, two
        // blocks and one), every k-tail, n-tails 1–3, and widths that reach
        // the 6-panel AVX-512 tile, its 2- and 4-panel instantiations and
        // its odd-panel AVX2 remainder (n = 24, 28, 31, 40, 52), at every
        // row count up to 9. In every panel column 0 is all `-max` and
        // column 1 all `+max`, row 0 all −32768: the `i32` lanes of those
        // outputs reach ±`block · 2 · 32768 · max`, the bound itself, so
        // one k-quad too many per block wraps.
        let mut rng = Rng::seed_from_u64(0x5A7_0002);
        let shapes = [
            (0usize, 5usize, 8usize),
            (1, 1, 5),
            (2, 4, 6),
            (3, 33, 7),
            (0, 9, 24),
            (1, 2, 28),
            (2, 3, 31),
            (3, 6, 40),
            (0, 7, 52),
            (1, 8, 24),
        ];
        for (max, block) in [(1i16, 32767usize), (512, 63), (724, 45), (32767, 1)] {
            for quads in [block - 1, block, block + 1, 2 * block + 1] {
                for (tail, m, n) in shapes {
                    let k = quads * LANES + tail;
                    if k == 0 || m * k * n > 8_000_000 {
                        continue; // keep the 32767-quad blocks to their small cases
                    }
                    let raw = |rng: &mut Rng, bound: i16| {
                        rng.gen_range_u64(0, 2 * bound as u64 + 1) as i64 - i64::from(bound)
                    };
                    let mut a: Vec<Q16> =
                        (0..m * k).map(|_| Q16::from_raw(raw(&mut rng, 32767) as i16)).collect();
                    a[..k].fill(Q16::MIN);
                    let b: Vec<i16> = (0..k * n).map(|_| raw(&mut rng, max) as i16).collect();
                    let weight = |kk: usize, j: usize| match j % NR {
                        0 => -max,
                        1 => max,
                        _ => b[kk * n + j],
                    };
                    let i32_quads = check_q16(m, n, &a, weight, |_, _, _| ());
                    assert_eq!(i32_quads, block, "max |w| {max}");
                }
            }
        }
    }

    #[test]
    fn q16_weight_extremes_take_the_right_tile() {
        let a = vec![Q16::MIN; 5 * 23];
        // All-zero weights bound nothing: one block however long.
        assert_eq!(
            check_q16(5, 6, &a, |_, _| 0, |_, _, got| assert_eq!(got, Q16::ZERO)),
            usize::MAX
        );
        // −32768 next to −32768 is the one operand pair `vpmaddwd` wraps
        // on: no block length is safe, the panels take the portable tile.
        let mut railed = 0;
        let weight = |kk: usize, j: usize| if (kk + j).is_multiple_of(3) { i16::MIN } else { 4096 };
        assert_eq!(
            check_q16(5, 6, &a, weight, |_, _, got| railed += usize::from(got == Q16::MAX)),
            0
        );
        assert!(railed > 0, "(−4)·(−4) sums must rail high");
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
