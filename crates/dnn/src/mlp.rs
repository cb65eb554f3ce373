//! The top MLP of the recommendation model (Figure 1).
//!
//! The paper's production models feed the concatenated embedding vector
//! into fully connected layers of (1024, 512, 256) hidden units and a
//! single sigmoid CTR neuron. [`Mlp::top_mlp`] builds exactly that shape
//! from a deterministic seed; the forward pass is generic over precision so
//! the same network runs at `f32` (CPU reference) and Q-format (FPGA
//! datapath).

use crate::error::DnnError;
use crate::fixed::FixedNum;
use crate::layer::{Activation, DenseLayer};
use crate::packed::PackedMlp;
use crate::scratch::ScratchArena;
use crate::tensor::Matrix;

/// A multi-layer perceptron.
///
/// # Examples
///
/// ```
/// use microrec_dnn::Mlp;
///
/// // The small production model's head: 352 -> 1024 -> 512 -> 256 -> 1.
/// let mlp = Mlp::top_mlp(352, &[1024, 512, 256], 42)?;
/// let features = vec![0.1f32; 352];
/// let ctr = mlp.predict_ctr(&features)?;
/// assert!(ctr > 0.0 && ctr < 1.0);
/// # Ok::<(), microrec_dnn::DnnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Builds an MLP from explicit layers.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::EmptyNetwork`] for zero layers and
    /// [`DnnError::ShapeMismatch`] if consecutive layers disagree.
    pub fn new(layers: Vec<DenseLayer>) -> Result<Self, DnnError> {
        if layers.is_empty() {
            return Err(DnnError::EmptyNetwork);
        }
        for pair in layers.windows(2) {
            if pair[0].output_dim() != pair[1].input_dim() {
                return Err(DnnError::ShapeMismatch {
                    context: "Mlp layer chaining",
                    expected: pair[0].output_dim(),
                    actual: pair[1].input_dim(),
                });
            }
        }
        Ok(Mlp { layers })
    }

    /// Builds the paper's top MLP: ReLU hidden layers of the given widths
    /// plus a single sigmoid output neuron, Xavier-initialized from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::EmptyNetwork`] if `hidden` is empty.
    pub fn top_mlp(input_dim: u32, hidden: &[u32], seed: u64) -> Result<Self, DnnError> {
        if hidden.is_empty() {
            return Err(DnnError::EmptyNetwork);
        }
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = input_dim as usize;
        for (i, &h) in hidden.iter().enumerate() {
            layers.push(DenseLayer::xavier(prev, h as usize, Activation::Relu, seed + i as u64));
            prev = h as usize;
        }
        layers.push(DenseLayer::xavier(prev, 1, Activation::Sigmoid, seed + hidden.len() as u64));
        Mlp::new(layers)
    }

    /// Builds a DLRM-style bottom MLP: ReLU layers of the given widths
    /// over the dense input features (no output head — its last layer's
    /// activations are concatenated with the embeddings).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::EmptyNetwork`] if `hidden` is empty.
    pub fn bottom_mlp(input_dim: u32, hidden: &[u32], seed: u64) -> Result<Self, DnnError> {
        if hidden.is_empty() {
            return Err(DnnError::EmptyNetwork);
        }
        let mut layers = Vec::with_capacity(hidden.len());
        let mut prev = input_dim as usize;
        for (i, &h) in hidden.iter().enumerate() {
            layers.push(DenseLayer::xavier(
                prev,
                h as usize,
                Activation::Relu,
                seed ^ 0xB0770 ^ (i as u64) << 32,
            ));
            prev = h as usize;
        }
        Mlp::new(layers)
    }

    /// The layers, input-first.
    #[must_use]
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Input feature width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output width (1 for a CTR head).
    #[must_use]
    pub fn output_dim(&self) -> usize {
        // Mlp::new rejects empty layer stacks, so last() cannot fail.
        self.layers.last().expect("non-empty").output_dim()
    }

    /// Multiply–accumulate operations per forward item (the paper's GOP
    /// convention).
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.layer_flops().sum()
    }

    /// Per-layer MAC operations, input-first.
    pub fn layer_flops(&self) -> impl Iterator<Item = u64> + '_ {
        self.layers.iter().map(DenseLayer::flops)
    }

    /// Widest activation vector in the network, input included — the
    /// per-item scratch requirement of a forward pass.
    #[must_use]
    pub fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(DenseLayer::output_dim)
            .chain(std::iter::once(self.input_dim()))
            .max()
            // The once() element makes the iterator non-empty.
            .expect("non-empty")
    }

    /// Full forward pass at precision `T`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if `input` has the wrong width.
    pub fn forward<T: FixedNum>(&self, input: &[T]) -> Result<Vec<T>, DnnError> {
        let mut current = input.to_vec();
        for layer in &self.layers {
            current = layer.forward_vec(&current)?;
        }
        Ok(current)
    }

    /// Predicts the click-through rate for one `f32` feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if `input` has the wrong width.
    pub fn predict_ctr(&self, input: &[f32]) -> Result<f32, DnnError> {
        Ok(self.forward(input)?[0])
    }

    /// Predicts CTR at precision `T` (the accelerator path), returning the
    /// de-quantized probability.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if `input` has the wrong width.
    pub fn predict_ctr_quantized<T: FixedNum>(&self, input: &[f32]) -> Result<f32, DnnError> {
        let q: Vec<T> = input.iter().map(|&v| T::from_f32(v)).collect();
        Ok(self.forward(&q)?[0].to_f32())
    }

    /// Batched forward pass on the packed GEMM kernel: `inputs` is
    /// `batch × input_dim`; each row's result is bit-identical to
    /// [`Mlp::predict_ctr`] on that row.
    ///
    /// This packs the weights per call — a serving loop should hold a
    /// [`PackedMlp`] and a [`ScratchArena`] instead and pay the packing
    /// cost once.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if `inputs` has the wrong width.
    pub fn forward_batch(&self, inputs: &Matrix) -> Result<Matrix, DnnError> {
        if inputs.cols() != self.input_dim() {
            return Err(DnnError::ShapeMismatch {
                context: "Mlp::forward_batch",
                expected: self.input_dim(),
                actual: inputs.cols(),
            });
        }
        let packed: PackedMlp<f32> = PackedMlp::pack(self);
        let mut arena = ScratchArena::new();
        packed.warm(inputs.rows(), &mut arena);
        let out = packed.forward_batch_into(inputs.as_slice(), inputs.rows(), &mut arena)?;
        Matrix::from_vec(inputs.rows(), self.output_dim(), out.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{Q16, Q32};

    fn small_head() -> Mlp {
        Mlp::top_mlp(32, &[64, 16], 9).unwrap()
    }

    #[test]
    fn top_mlp_shape() {
        let mlp = small_head();
        assert_eq!(mlp.layers().len(), 3);
        assert_eq!(mlp.input_dim(), 32);
        assert_eq!(mlp.output_dim(), 1);
        assert_eq!(mlp.flops(), 2 * (32 * 64 + 64 * 16 + 16));
        let per_layer: Vec<u64> = mlp.layer_flops().collect();
        assert_eq!(per_layer, vec![2 * 32 * 64, 2 * 64 * 16, 2 * 16]);
    }

    #[test]
    fn production_flops_match_paper() {
        let small = Mlp::top_mlp(352, &[1024, 512, 256], 1).unwrap();
        assert_eq!(small.flops(), 2 * (352 * 1024 + 1024 * 512 + 512 * 256 + 256));
    }

    #[test]
    fn ctr_is_probability_and_deterministic() {
        let mlp = small_head();
        let x: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.2).sin()).collect();
        let a = mlp.predict_ctr(&x).unwrap();
        let b = mlp.predict_ctr(&x).unwrap();
        assert_eq!(a, b);
        assert!(a > 0.0 && a < 1.0);
    }

    #[test]
    fn quantized_paths_track_reference() {
        let mlp = small_head();
        let x: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.2).sin() * 0.5).collect();
        let f = mlp.predict_ctr(&x).unwrap();
        let q32 = mlp.predict_ctr_quantized::<Q32>(&x).unwrap();
        let q16 = mlp.predict_ctr_quantized::<Q16>(&x).unwrap();
        assert!((f - q32).abs() < 1e-2, "Q32 {q32} vs f32 {f}");
        assert!((f - q16).abs() < 0.15, "Q16 {q16} vs f32 {f}");
        // Q32 must be at least as accurate as Q16.
        assert!((f - q32).abs() <= (f - q16).abs() + 1e-6);
    }

    #[test]
    fn batch_forward_matches_single() {
        let mlp = small_head();
        let rows = 5;
        let inputs = Matrix::from_fn(rows, 32, |r, c| ((r * 32 + c) as f32 * 0.1).sin() * 0.5);
        let batch = mlp.forward_batch(&inputs).unwrap();
        for r in 0..rows {
            let single = mlp.predict_ctr(inputs.row(r)).unwrap();
            assert_eq!(
                batch.get(r, 0).to_bits(),
                single.to_bits(),
                "row {r}: batch {} vs single {single}",
                batch.get(r, 0)
            );
        }
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(Mlp::new(vec![]), Err(DnnError::EmptyNetwork)));
        assert!(matches!(Mlp::top_mlp(8, &[], 0), Err(DnnError::EmptyNetwork)));
        let l1 = DenseLayer::xavier(4, 8, Activation::Relu, 0);
        let l2 = DenseLayer::xavier(9, 2, Activation::Relu, 1);
        assert!(Mlp::new(vec![l1, l2]).is_err());
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mlp = small_head();
        assert!(mlp.predict_ctr(&[0.0; 31]).is_err());
        let m = Matrix::zeros(2, 31);
        assert!(mlp.forward_batch(&m).is_err());
    }
}
