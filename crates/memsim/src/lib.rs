//! # microrec-memsim
//!
//! Deterministic timing simulator for the hybrid memory system MicroRec
//! (Jiang et al., MLSys 2021) runs on: 32 HBM2 pseudo-channels, 2 DDR4
//! channels, and on-chip BRAM/URAM banks of a Xilinx Alveo U280, plus the
//! 8-channel DDR4 system of the CPU baseline server.
//!
//! The simulator is a *substitute* for the physical memory of the paper's
//! testbed: it reproduces the quantities the paper's results depend on —
//! per-access latency as a function of payload size, per-channel
//! serialization ("DRAM access rounds"), inter-channel parallelism, and
//! capacity limits — with timing constants calibrated to the paper's own
//! published micro-measurements (see [`MemTiming`]).
//!
//! ## Example
//!
//! ```
//! use microrec_memsim::{BankId, HybridMemory, MemoryConfig, MemoryKind, ReadRequest};
//!
//! let mut mem = HybridMemory::new(MemoryConfig::u280());
//!
//! // Place one embedding table on each of three HBM pseudo-channels.
//! for i in 0..3 {
//!     mem.alloc(BankId::new(MemoryKind::Hbm, i), format!("table-{i}"), 4096)?;
//! }
//!
//! // One lookup per table: all three proceed in parallel -> one DRAM round.
//! let reqs: Vec<_> =
//!     (0..3).map(|i| ReadRequest::new(BankId::new(MemoryKind::Hbm, i), 64)).collect();
//! let timing = mem.parallel_read(&reqs)?;
//! assert_eq!(timing.max_reads_per_bank, 1);
//! # Ok::<(), microrec_memsim::MemsimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::disallowed_types)]

mod bank;
mod config;
mod error;
mod hybrid;
mod rowstate;
mod stats;
mod time;
mod timing;

pub use bank::{Bank, BankId, MemoryKind, Region};
pub use config::{BankSpec, MemoryConfig, GIB, MIB};
pub use error::MemsimError;
pub use hybrid::{BatchTiming, HybridMemory, ReadRequest};
pub use rowstate::{AddressedRead, RowPolicy, RowState};
pub use stats::{AccessStats, BankStats};
pub use time::SimTime;
pub use timing::MemTiming;
