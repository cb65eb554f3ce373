//! Pre-packed MLP for batched, allocation-free inference.
//!
//! [`PackedMlp`] quantizes every layer's weights **once** (at precision `T`)
//! into [`PackedB`]'s panel layout, then serves batches through
//! [`gemm_packed`] into a caller-provided [`ScratchArena`] — the
//! steady-state serving loop never allocates and never re-converts a
//! weight. Because the packed kernel reproduces the single-item GEMV's
//! inner product per output (at `f32` and Q8.23 the identical lane
//! structure and summation order, at Q2.13 the same exact wide sum, and
//! `T::from_f32(w)` gives the same element whether applied at pack time or
//! per MAC), `forward_batch_into` is **bit-identical** to running
//! [`Mlp::forward`] item by item.

use crate::error::DnnError;
use crate::fixed::FixedNum;
use crate::gemm::{gemm_packed, PackedB};
use crate::layer::Activation;
use crate::mlp::Mlp;
use crate::scratch::ScratchArena;

/// One packed dense layer: pre-quantized, panel-packed weights plus
/// bias and activation.
///
/// [`PackedLayer::forward_batch`] is the *single* implementation of
/// per-layer forwarding on the packed path: [`PackedMlp`]'s whole-network
/// pass drives it, and so does a caller timing one layer at a time.
#[derive(Debug, Clone)]
pub struct PackedLayer<T> {
    weights: PackedB<T>,
    /// A boxed slice, not a `Vec`: it keeps the struct at the 72 bytes it
    /// had before [`PackedB`] gained its inline block length, and the
    /// ledger's `serve-open/setup_s` follows the size of the heap block
    /// that holds a network's `PackedLayer`s (EXPERIMENTS.md, PR 24).
    bias: Box<[T]>,
    activation: Activation,
}

impl<T: FixedNum> PackedLayer<T> {
    /// Input width of this layer.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.weights.k()
    }

    /// Output width of this layer.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.weights.n()
    }

    /// Forwards `batch` row-major input vectors through this layer into
    /// `out` (resized to `batch * output_dim`): packed GEMM, bias add,
    /// activation. Allocation-free once `out` has capacity.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if `input.len()` is not
    /// `batch * input_dim`.
    pub fn forward_batch(
        &self,
        input: &[T],
        batch: usize,
        out: &mut Vec<T>,
    ) -> Result<(), DnnError> {
        out.resize(batch * self.weights.n(), T::ZERO);
        gemm_packed(input, batch, &self.weights, out)?;
        match self.activation {
            Activation::Relu => self.epilogue(out, T::relu),
            Activation::Identity => self.epilogue(out, |pre| pre),
            Activation::Sigmoid => {
                self.epilogue(out, |pre| T::from_f32(Activation::Sigmoid.apply(pre.to_f32())));
            }
        }
        Ok(())
    }

    /// Bias add and activation over every row of `out`, one monomorphized
    /// loop per activation kind (no per-element dispatch).
    #[inline]
    fn epilogue(&self, out: &mut [T], activate: impl Fn(T) -> T) {
        for row in out.chunks_exact_mut(self.bias.len()) {
            for (slot, &b) in row.iter_mut().zip(&self.bias) {
                *slot = activate(*slot + b);
            }
        }
    }
}

/// An [`Mlp`] snapshot with per-layer pre-quantized, panel-packed
/// weights: the batched inference fast path.
///
/// # Examples
///
/// ```
/// use microrec_dnn::{Mlp, PackedMlp, ScratchArena};
///
/// let mlp = Mlp::top_mlp(32, &[64, 16], 9)?;
/// let packed: PackedMlp<f32> = PackedMlp::pack(&mlp);
/// let mut arena = ScratchArena::new();
/// packed.warm(8, &mut arena); // one-off: serve batches up to 8 allocation-free
///
/// let batch: Vec<f32> = (0..8 * 32).map(|i| (i as f32 * 0.1).sin()).collect();
/// let ctrs = packed.forward_batch_into(&batch, 8, &mut arena)?;
/// assert_eq!(ctrs.len(), 8);
/// # Ok::<(), microrec_dnn::DnnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedMlp<T> {
    layers: Vec<PackedLayer<T>>,
    input_dim: usize,
    output_dim: usize,
    max_width: usize,
}

impl<T: FixedNum> PackedMlp<T> {
    /// Packs `mlp` at precision `T`: one pass over each weight matrix and
    /// bias vector, amortized over every subsequent batch.
    #[must_use]
    pub fn pack(mlp: &Mlp) -> Self {
        let layers: Vec<PackedLayer<T>> = mlp
            .layers()
            .iter()
            .map(|layer| PackedLayer {
                // A dense layer's weight matrix is row-major [out x in]: Bᵀ.
                weights: PackedB::from_transposed(layer.weights()),
                bias: layer.bias().iter().map(|&b| T::from_f32(b)).collect(),
                activation: layer.activation(),
            })
            .collect();
        PackedMlp {
            layers,
            input_dim: mlp.input_dim(),
            output_dim: mlp.output_dim(),
            max_width: mlp.max_width(),
        }
    }

    /// Input feature width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output width (1 for a CTR head).
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Widest activation vector in the network (including the input).
    #[must_use]
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// Warms `arena` so batches up to `batch` run allocation-free.
    pub fn warm(&self, batch: usize, arena: &mut ScratchArena<T>) {
        arena.warm(batch.max(1) * self.max_width);
    }

    /// Batched forward pass: `inputs` is `batch` row-major feature vectors
    /// back to back; the returned slice is `batch * output_dim` results in
    /// input order, borrowed from `arena`.
    ///
    /// Results are bit-identical to [`Mlp::forward`] on each row at the
    /// same precision `T`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if `inputs.len()` is not
    /// `batch * input_dim`.
    pub fn forward_batch_into<'a>(
        &self,
        inputs: &[T],
        batch: usize,
        arena: &'a mut ScratchArena<T>,
    ) -> Result<&'a [T], DnnError> {
        if inputs.len() != batch * self.input_dim {
            return Err(DnnError::ShapeMismatch {
                context: "PackedMlp batch input",
                expected: batch * self.input_dim,
                actual: inputs.len(),
            });
        }
        arena.load(inputs);
        for layer in &self.layers {
            let (front, back) = arena.buffers();
            layer.forward_batch(front, batch, back)?;
            arena.swap();
        }
        Ok(arena.front())
    }

    /// Number of packed layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The packed layers, input-first.
    #[must_use]
    pub fn layers(&self) -> &[PackedLayer<T>] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{Q16, Q32};

    fn mlp() -> Mlp {
        Mlp::top_mlp(24, &[40, 17], 11).unwrap()
    }

    fn features(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.17).sin() * 0.6).collect()
    }

    #[test]
    fn batched_is_bit_identical_to_sequential_f32() {
        let m = mlp();
        let packed: PackedMlp<f32> = PackedMlp::pack(&m);
        let mut arena = ScratchArena::new();
        for batch in [1usize, 7, 64] {
            let inputs = features(batch * 24);
            let out = packed.forward_batch_into(&inputs, batch, &mut arena).unwrap().to_vec();
            assert_eq!(out.len(), batch);
            for (i, chunk) in inputs.chunks_exact(24).enumerate() {
                let single = m.forward::<f32>(chunk).unwrap();
                assert_eq!(out[i].to_bits(), single[0].to_bits(), "batch {batch} item {i}");
            }
        }
    }

    #[test]
    fn batched_is_bit_identical_to_sequential_fixed() {
        let m = mlp();
        let packed16: PackedMlp<Q16> = PackedMlp::pack(&m);
        let packed32: PackedMlp<Q32> = PackedMlp::pack(&m);
        let mut a16 = ScratchArena::new();
        let mut a32 = ScratchArena::new();
        for batch in [1usize, 7, 64] {
            let raw = features(batch * 24);
            let q16: Vec<Q16> = raw.iter().map(|&v| Q16::from_f32(v)).collect();
            let q32: Vec<Q32> = raw.iter().map(|&v| Q32::from_f32(v)).collect();
            let out16 = packed16.forward_batch_into(&q16, batch, &mut a16).unwrap().to_vec();
            let out32 = packed32.forward_batch_into(&q32, batch, &mut a32).unwrap().to_vec();
            for i in 0..batch {
                let s16 = m.forward::<Q16>(&q16[i * 24..(i + 1) * 24]).unwrap();
                let s32 = m.forward::<Q32>(&q32[i * 24..(i + 1) * 24]).unwrap();
                assert_eq!(out16[i], s16[0], "Q16 batch {batch} item {i}");
                assert_eq!(out32[i], s32[0], "Q32 batch {batch} item {i}");
            }
        }
    }

    #[test]
    fn warm_then_serve_within_capacity() {
        let m = mlp();
        let packed: PackedMlp<f32> = PackedMlp::pack(&m);
        assert_eq!(packed.input_dim(), 24);
        assert_eq!(packed.output_dim(), 1);
        assert_eq!(packed.max_width(), 40);
        let mut arena = ScratchArena::new();
        packed.warm(16, &mut arena);
        assert!(arena.capacity() >= 16 * 40);
        let inputs = features(16 * 24);
        let out = packed.forward_batch_into(&inputs, 16, &mut arena).unwrap();
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn chained_layers_are_bit_identical_to_whole_network() {
        // Ping-ponging each layer's forward_batch over plain Vecs, one layer
        // at a time, must match both the arena-based whole-network pass and
        // the unpacked reference, bit for bit.
        fn check<T: FixedNum>(m: &Mlp, raw: &[f32], batch: usize) {
            let packed: PackedMlp<T> = PackedMlp::pack(m);
            assert_eq!(packed.num_layers(), m.layers().len());
            let input: Vec<T> = raw.iter().map(|&v| T::from_f32(v)).collect();

            let mut current = input.clone();
            let mut next: Vec<T> = Vec::new();
            for layer in packed.layers() {
                assert_eq!(layer.input_dim() * batch, current.len());
                layer.forward_batch(&current, batch, &mut next).unwrap();
                assert_eq!(next.len(), layer.output_dim() * batch);
                std::mem::swap(&mut current, &mut next);
            }

            let mut arena = ScratchArena::new();
            let whole = packed.forward_batch_into(&input, batch, &mut arena).unwrap();
            assert_eq!(current, whole, "layer chain vs forward_batch_into");
            for (item, out) in input.chunks_exact(m.input_dim()).zip(&current) {
                let reference = m.forward::<T>(item).unwrap();
                assert_eq!(*out, reference[0], "layer chain vs Mlp::forward");
            }
        }

        let m = mlp();
        for batch in [1usize, 5] {
            let raw = features(batch * 24);
            check::<f32>(&m, &raw, batch);
            check::<Q16>(&m, &raw, batch);
            check::<Q32>(&m, &raw, batch);
        }
    }

    #[test]
    fn shape_errors() {
        let packed: PackedMlp<f32> = PackedMlp::pack(&mlp());
        let mut arena = ScratchArena::new();
        assert!(packed.forward_batch_into(&[0.0; 23], 1, &mut arena).is_err());
        assert!(packed.forward_batch_into(&[0.0; 25], 1, &mut arena).is_err());
        assert!(packed.layers()[0].forward_batch(&[0.0; 23], 1, &mut Vec::new()).is_err());
    }
}
