//! # microrec-embedding
//!
//! The embedding substrate of the MicroRec reproduction (Jiang et al.,
//! MLSys 2021): embedding tables, model specifications matching the paper's
//! evaluated models, Cartesian-product table merging (§3.3), and the
//! logical→physical catalog that makes merging transparent to the model.
//!
//! ## Example
//!
//! ```
//! use microrec_embedding::{Catalog, MergePlan, ModelSpec, Precision};
//!
//! // The smaller Alibaba production model: 47 tables, 352-dim features.
//! let model = ModelSpec::small_production();
//! assert_eq!(model.num_tables(), 47);
//!
//! // Merge the two smallest tables; one memory read now serves both.
//! let plan = MergePlan::pairs(&[(45, 46)]);
//! let catalog = Catalog::build(&model, &plan, 42)?;
//! assert_eq!(catalog.physical_tables().len(), 46);
//!
//! // The feature vector is identical to the unmerged model's.
//! let indices: Vec<u64> = model.tables.iter().map(|t| t.rows / 2).collect();
//! let features = catalog.gather_vec(&indices)?;
//! assert_eq!(features.len(), 352);
//! # Ok::<(), microrec_embedding::EmbeddingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::disallowed_types)]

mod arena;
mod cache;
pub mod cartesian;
mod catalog;
mod error;
mod gen;
mod par;
mod precision;
mod spec;
mod table;
mod tiered;

pub use arena::{EmbeddingArena, RowFormat};
pub use cache::HotRowCache;
pub use catalog::{Catalog, MergePlan, PhysicalLookup, PhysicalTable};
pub use error::EmbeddingError;
pub use gen::{synthetic_model, SyntheticModelConfig};
pub use precision::Precision;
pub use spec::{ModelSpec, TableSpec};
pub use table::{synthetic_dense_features, synthetic_dense_features_into, EmbeddingTable};
pub use tiered::{ColdStore, ResidencyPlan, Tier, TierCounters, TieredBacking, TieredStore};
