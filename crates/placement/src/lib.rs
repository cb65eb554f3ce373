//! # microrec-placement
//!
//! Table combination and allocation for MicroRec (Jiang et al., MLSys
//! 2021): the heuristic-rule-based search of Algorithm 1 (§3.4.2), the
//! brute-force comparator it is measured against (§3.4.1), the bank
//! allocator implementing rule 4, and the cost model that turns a placement
//! into embedding-lookup latency, DRAM access rounds, and storage overhead.
//!
//! ## Example
//!
//! ```
//! use microrec_embedding::{ModelSpec, Precision};
//! use microrec_memsim::MemoryConfig;
//! use microrec_placement::{heuristic_search, HeuristicOptions};
//!
//! let model = ModelSpec::small_production();
//! let outcome = heuristic_search(
//!     &model,
//!     &MemoryConfig::u280(),
//!     Precision::F32,
//!     &HeuristicOptions::default(),
//! )?;
//! // Table 3 of the paper: one DRAM access round after merging.
//! assert_eq!(outcome.cost.dram_rounds, 1);
//! # Ok::<(), microrec_placement::PlacementError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::disallowed_types)]

mod alloc;
mod brute;
mod error;
mod heuristic;
mod plan;

pub use alloc::{allocate, allocate_with, physical_specs, AllocStrategy};
pub use brute::{brute_force_search, optimality_gap, MAX_BRUTE_TABLES};
pub use error::PlacementError;
pub use heuristic::{heuristic_search, HeuristicOptions, SearchOutcome};
pub use plan::{PlacedTable, Plan, PlanCost};
