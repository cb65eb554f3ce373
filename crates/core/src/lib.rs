//! # microrec-core
//!
//! The MicroRec recommendation inference engine (Jiang et al., MLSys
//! 2021), assembled from its substrates: Cartesian-merged embedding tables
//! ([`microrec_embedding`]) placed across a hybrid HBM/DDR/on-chip memory
//! ([`microrec_memsim`]) by the Algorithm-1 search
//! ([`microrec_placement`]), feeding a deeply pipelined fixed-point
//! accelerator ([`microrec_accel`], [`microrec_dnn`]), and compared against
//! the calibrated TensorFlow-Serving CPU baseline ([`microrec_cpu`]).
//!
//! ## Example
//!
//! ```
//! use microrec_core::MicroRec;
//! use microrec_embedding::{ModelSpec, Precision};
//!
//! // Build the engine for the small Alibaba production model.
//! let mut engine = MicroRec::builder(ModelSpec::small_production())
//!     .precision(Precision::Fixed16)
//!     .build()?;
//!
//! // Placement reproduces Table 3: one DRAM round after merging.
//! assert_eq!(engine.placement_cost().dram_rounds, 1);
//!
//! // Functional inference at micro-second scale latency.
//! let query: Vec<u64> = engine.model().tables.iter().map(|t| t.rows / 3).collect();
//! let ctr = engine.predict(&query)?;
//! assert!(ctr > 0.0 && ctr < 1.0);
//! assert!(engine.latency().as_us() < 30.0);
//! # Ok::<(), microrec_core::MicroRecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod error;
mod report;
mod runtime;
mod serve;
mod simulator;
mod sync;

pub use engine::{MicroRec, MicroRecBuilder};
pub use error::MicroRecError;
pub use report::{
    end_to_end_report, AwsPrices, CostReport, CpuPoint, EmbeddingReport, EndToEndReport, FpgaPoint,
};
pub use runtime::{
    replay_trace, AdmissionPolicy, BatchClose, LatencyHistogram, LatencyPercentiles,
    PendingPrediction, ReplayOutcome, RuntimeConfig, RuntimeError, RuntimeLookupStats,
    RuntimeSnapshot, ServingRuntime,
};
pub use serve::{simulate_cpu_serving, simulate_microrec_serving, ServingReport};
