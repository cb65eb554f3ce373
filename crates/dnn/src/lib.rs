//! # microrec-dnn
//!
//! Numeric substrate for the MicroRec reproduction (Jiang et al., MLSys
//! 2021): a row-major matrix type, the oracle and register-tiled GEMM
//! kernels, dense layers with ReLU/sigmoid activations, the paper's top-MLP
//! head, and the 16/32-bit Q-format fixed-point arithmetic the FPGA
//! datapath computes in.
//!
//! ## Example
//!
//! ```
//! use microrec_dnn::{Mlp, Q16};
//!
//! let mlp = Mlp::top_mlp(64, &[128, 32], 7)?;
//! let features = vec![0.05f32; 64];
//! let reference = mlp.predict_ctr(&features)?;
//! let fixed16 = mlp.predict_ctr_quantized::<Q16>(&features)?;
//! assert!((reference - fixed16).abs() < 0.1);
//! # Ok::<(), microrec_dnn::DnnError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::disallowed_types)]

mod error;
mod fixed;
mod gemm;
mod layer;
mod mlp;
mod packed;
mod scratch;
mod tensor;

pub use error::DnnError;
pub use fixed::{FixedNum, Q16, Q32};
pub use gemm::{dot_quantizing, dot_scalar, gemm_flops, gemm_naive, gemm_packed, gemv, PackedB};
pub use layer::{Activation, DenseLayer};
pub use mlp::Mlp;
pub use packed::{PackedLayer, PackedMlp};
pub use scratch::ScratchArena;
pub use tensor::Matrix;
