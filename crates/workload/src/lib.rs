//! # microrec-workload
//!
//! Synthetic serving workloads for the MicroRec reproduction (Jiang et
//! al., MLSys 2021): Zipf-skewed sparse-feature query streams, Poisson
//! arrival processes, and serving-discipline simulators (CPU-style
//! batching vs. MicroRec's item-by-item pipeline) with SLA accounting.
//!
//! ## Example
//!
//! ```
//! use microrec_embedding::ModelSpec;
//! use microrec_workload::{QueryGenConfig, QueryGenerator};
//!
//! let model = ModelSpec::small_production();
//! let mut queries = QueryGenerator::new(&model, QueryGenConfig::default())?;
//! let batch = queries.next_batch(32);
//! assert_eq!(batch.len(), 32);
//! # Ok::<(), microrec_workload::WorkloadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::disallowed_types)]

mod arrival;
mod error;
mod query_gen;
mod trace;

pub use arrival::{
    simulate_batched_serving, simulate_pipelined_serving, LatencyStats, PoissonArrivals,
};
pub use error::WorkloadError;
pub use query_gen::{QueryGenConfig, QueryGenerator};
pub use trace::RequestTrace;
