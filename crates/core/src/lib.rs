//! # microrec-core
//!
//! The MicroRec recommendation inference engine (Jiang et al., MLSys
//! 2021), assembled from its substrates, as two objects:
//!
//! * [`MicroRec`], the served CPU engine: embedding rows from a row store
//!   ([`microrec_embedding`]) through the accelerator's fixed-point DNN
//!   datapath ([`microrec_dnn`]), behind a micro-batching
//!   [`ServingRuntime`]. It runs no placement search.
//! * [`Simulator`], the paper's U280: Cartesian-merged tables placed across
//!   a hybrid HBM/DDR/on-chip memory ([`microrec_memsim`]) by the
//!   Algorithm-1 search ([`microrec_placement`]), feeding a deeply
//!   pipelined accelerator ([`microrec_accel`]), compared against the
//!   calibrated TensorFlow-Serving CPU baseline ([`microrec_cpu`]).
//!
//! ## Example
//!
//! ```
//! use microrec_core::{MicroRec, Simulator};
//! use microrec_embedding::{ModelSpec, Precision};
//! use microrec_placement::HeuristicOptions;
//!
//! let model = ModelSpec::small_production();
//!
//! // Serve the small Alibaba production model on the CPU.
//! let mut engine = MicroRec::builder(model.clone()).precision(Precision::Fixed16).build()?;
//! let query: Vec<u64> = model.tables.iter().map(|t| t.rows / 3).collect();
//! let ctr = engine.predict(&query)?;
//! assert!(ctr > 0.0 && ctr < 1.0);
//!
//! // Simulate it on the U280: placement reproduces Table 3, one DRAM
//! // round after merging, at micro-second scale latency.
//! let options = HeuristicOptions::default();
//! let sim = Simulator::build(&model, Precision::Fixed16, &options)?;
//! assert_eq!(sim.placement_cost().dram_rounds, 1);
//! assert!(sim.latency().as_us() < 30.0);
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
pub use simulator::Simulator;
