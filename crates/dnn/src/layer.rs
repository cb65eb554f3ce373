//! Dense (fully connected) layers.

use microrec_rng::Rng;

use crate::error::DnnError;
use crate::fixed::FixedNum;
use crate::gemm::gemv;
use crate::tensor::Matrix;

/// Activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (used on the final CTR neuron).
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[must_use]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Identity => v,
        }
    }
}

/// One fully connected layer: `y = act(W x + b)`.
///
/// The weights are stored in `f32`; quantized forward passes convert on the
/// fly (matching the accelerator, which keeps a quantized copy of the same
/// master weights in on-chip memory).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f32>,
    activation: Activation,
}

impl DenseLayer {
    /// Creates a layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if `bias.len() !=
    /// weights.rows()`.
    pub fn new(weights: Matrix, bias: Vec<f32>, activation: Activation) -> Result<Self, DnnError> {
        if bias.len() != weights.rows() {
            return Err(DnnError::ShapeMismatch {
                context: "DenseLayer bias",
                expected: weights.rows(),
                actual: bias.len(),
            });
        }
        Ok(DenseLayer { weights, bias, activation })
    }

    /// Creates a layer with Xavier-uniform weights from a deterministic
    /// seed.
    #[must_use]
    pub fn xavier(input: usize, output: usize, activation: Activation, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let bound = (6.0 / (input + output) as f32).sqrt();
        let weights = Matrix::from_fn(output, input, |_, _| rng.gen_range_f32(-bound, bound));
        let bias = (0..output).map(|_| rng.gen_range_f32(-0.01, 0.01)).collect();
        DenseLayer { weights, bias, activation }
    }

    /// Input width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output width.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The weight matrix (`output × input`).
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The activation.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Multiply–accumulate operations per forward item.
    #[must_use]
    pub fn flops(&self) -> u64 {
        2 * self.weights.rows() as u64 * self.weights.cols() as u64
    }

    /// Forward pass at precision `T`.
    ///
    /// The matrix–vector product runs at `T`'s multiply–accumulate
    /// ([`FixedNum::Acc`]: wide and saturated once per output at Q2.13) and
    /// the bias is added in `T`; activations are evaluated in `f32` and
    /// re-quantized, matching an FPGA datapath with a piecewise activation
    /// unit.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for wrong buffer sizes.
    pub fn forward<T: FixedNum>(&self, input: &[T], output: &mut [T]) -> Result<(), DnnError> {
        gemv(&self.weights, input, output)?;
        for (slot, &b) in output.iter_mut().zip(&self.bias) {
            let pre = *slot + T::from_f32(b);
            *slot = match self.activation {
                Activation::Relu => pre.relu(),
                Activation::Identity => pre,
                Activation::Sigmoid => T::from_f32(Activation::Sigmoid.apply(pre.to_f32())),
            };
        }
        Ok(())
    }

    /// Convenience allocating forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for a wrong input size.
    pub fn forward_vec<T: FixedNum>(&self, input: &[T]) -> Result<Vec<T>, DnnError> {
        let mut out = vec![T::ZERO; self.output_dim()];
        self.forward(input, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Q32;

    #[test]
    fn activation_math() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Identity.apply(-2.0), -2.0);
        let s = Activation::Sigmoid.apply(0.0);
        assert!((s - 0.5).abs() < 1e-6);
        assert!(Activation::Sigmoid.apply(10.0) > 0.999);
    }

    #[test]
    fn forward_computes_wx_plus_b() {
        let w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let layer = DenseLayer::new(w, vec![0.5, -20.0], Activation::Relu).unwrap();
        let out = layer.forward_vec(&[1.0f32, 1.0]).unwrap();
        assert_eq!(out, vec![3.5, 0.0]);
    }

    #[test]
    fn bias_shape_checked() {
        let w = Matrix::zeros(2, 2);
        assert!(DenseLayer::new(w, vec![0.0; 3], Activation::Identity).is_err());
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = DenseLayer::xavier(64, 32, Activation::Relu, 7);
        let b = DenseLayer::xavier(64, 32, Activation::Relu, 7);
        let c = DenseLayer::xavier(64, 32, Activation::Relu, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bound = (6.0 / 96.0f32).sqrt();
        assert!(a.weights().max_abs() <= bound);
        assert_eq!(a.input_dim(), 64);
        assert_eq!(a.output_dim(), 32);
        assert_eq!(a.flops(), 2 * 64 * 32);
    }

    #[test]
    fn quantized_forward_tracks_f32() {
        let layer = DenseLayer::xavier(32, 16, Activation::Relu, 42);
        let x_f: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.7).sin() * 0.8).collect();
        let y_f = layer.forward_vec(&x_f).unwrap();
        let x_q: Vec<Q32> = x_f.iter().map(|&v| Q32::from_f32(v)).collect();
        let y_q = layer.forward_vec(&x_q).unwrap();
        for (f, q) in y_f.iter().zip(&y_q) {
            assert!((f - q.to_f32()).abs() < 1e-2);
        }
    }

    #[test]
    fn sigmoid_layer_outputs_probability() {
        let layer = DenseLayer::xavier(8, 1, Activation::Sigmoid, 3);
        let out = layer.forward_vec(&[0.5f32; 8]).unwrap();
        assert!(out[0] > 0.0 && out[0] < 1.0);
    }
}
