//! The hybrid memory system: HBM + DDR + on-chip banks behaving as one
//! device with many independent channels.
//!
//! This is the substrate MicroRec's embedding-lookup unit runs on. The key
//! operation is [`HybridMemory::parallel_read`]: given one read per logical
//! table, all banks work concurrently and reads targeting the same bank
//! serialize, so the batch finishes after
//! `max over banks (sum of that bank's access times)` — precisely the
//! "DRAM access rounds" behaviour of §3.3.

use std::collections::BTreeMap;

use crate::bank::{Bank, BankId};
use crate::config::MemoryConfig;
use crate::error::MemsimError;
use crate::rowstate::{AddressedRead, RowPolicy, RowState};
use crate::stats::AccessStats;
use crate::time::SimTime;

/// One read request against the hybrid memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadRequest {
    /// Target bank.
    pub bank: BankId,
    /// Payload size in bytes (one embedding vector, possibly a Cartesian
    /// product row).
    pub bytes: u32,
}

impl ReadRequest {
    /// Creates a read request.
    #[must_use]
    pub const fn new(bank: BankId, bytes: u32) -> Self {
        ReadRequest { bank, bytes }
    }
}

/// Outcome of a parallel read batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchTiming {
    /// Wall-clock time for the whole batch (bottleneck bank).
    pub elapsed: SimTime,
    /// Sum of busy time across banks (for utilisation analysis).
    pub total_busy: SimTime,
    /// Largest number of reads any single bank had to serialize — the number
    /// of "access rounds" in the paper's terminology.
    pub max_reads_per_bank: usize,
}

/// The hybrid memory device.
///
/// # Examples
///
/// ```
/// use microrec_memsim::{BankId, HybridMemory, MemoryConfig, MemoryKind, ReadRequest};
///
/// let mut mem = HybridMemory::new(MemoryConfig::u280());
/// let b0 = BankId::new(MemoryKind::Hbm, 0);
/// let b1 = BankId::new(MemoryKind::Hbm, 1);
/// mem.alloc(b0, "table-a", 1024)?;
/// mem.alloc(b1, "table-b", 1024)?;
/// // Two reads on different channels overlap perfectly:
/// let t = mem.parallel_read(&[ReadRequest::new(b0, 64), ReadRequest::new(b1, 64)])?;
/// assert_eq!(t.max_reads_per_bank, 1);
/// # Ok::<(), microrec_memsim::MemsimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HybridMemory {
    config: MemoryConfig,
    banks: BTreeMap<BankId, Bank>,
    stats: AccessStats,
    row_states: BTreeMap<BankId, RowState>,
    policy: RowPolicy,
}

impl HybridMemory {
    /// Instantiates the memory described by `config` with all banks empty
    /// and the closed-page row policy.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        let banks: BTreeMap<BankId, Bank> =
            config.build_banks().into_iter().map(|b| (b.id(), b)).collect();
        let row_states = banks.keys().map(|&id| (id, RowState::new())).collect();
        HybridMemory {
            config,
            banks,
            stats: AccessStats::new(),
            row_states,
            policy: RowPolicy::ClosedPage,
        }
    }

    /// Sets the DRAM page policy used by addressed reads.
    pub fn set_row_policy(&mut self, policy: RowPolicy) {
        self.policy = policy;
        for state in self.row_states.values_mut() {
            *state = RowState::new();
        }
    }

    /// The configuration this memory was built from.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Accesses one bank.
    ///
    /// # Errors
    ///
    /// Returns [`MemsimError::UnknownBank`] if `id` is not part of the
    /// configuration.
    pub fn bank(&self, id: BankId) -> Result<&Bank, MemsimError> {
        self.banks.get(&id).ok_or(MemsimError::UnknownBank(id))
    }

    /// Iterates over all banks in id order.
    pub fn banks(&self) -> impl Iterator<Item = &Bank> {
        self.banks.values()
    }

    /// Allocates `bytes` in bank `id` under `label`.
    ///
    /// # Errors
    ///
    /// Returns [`MemsimError::UnknownBank`] for an unknown bank and
    /// [`MemsimError::CapacityExceeded`] if the bank is too full.
    pub fn alloc(
        &mut self,
        id: BankId,
        label: impl Into<String>,
        bytes: u64,
    ) -> Result<(), MemsimError> {
        self.banks.get_mut(&id).ok_or(MemsimError::UnknownBank(id))?.alloc(label, bytes)
    }

    /// Releases the region `label` from bank `id`.
    ///
    /// # Errors
    ///
    /// Returns [`MemsimError::UnknownBank`] or [`MemsimError::UnknownRegion`].
    pub fn release(&mut self, id: BankId, label: &str) -> Result<(), MemsimError> {
        self.banks.get_mut(&id).ok_or(MemsimError::UnknownBank(id))?.release(label)?;
        Ok(())
    }

    /// Services a batch of reads with full inter-bank parallelism and
    /// per-bank serialization, recording statistics.
    ///
    /// # Errors
    ///
    /// Returns [`MemsimError::UnknownBank`] if any request targets a bank
    /// outside the configuration; no statistics are recorded in that case.
    pub fn parallel_read(&mut self, requests: &[ReadRequest]) -> Result<BatchTiming, MemsimError> {
        let timing = self.estimate_parallel_read(requests)?;
        for req in requests {
            let t = self.banks[&req.bank].read_time(req.bytes);
            self.stats.record(req.bank, req.bytes, t);
        }
        Ok(timing)
    }

    /// Computes the timing of a batch without recording statistics.
    ///
    /// # Errors
    ///
    /// Returns [`MemsimError::UnknownBank`] if any request targets a bank
    /// outside the configuration.
    pub fn estimate_parallel_read(
        &self,
        requests: &[ReadRequest],
    ) -> Result<BatchTiming, MemsimError> {
        let mut per_bank: BTreeMap<BankId, (SimTime, usize)> = BTreeMap::new();
        for req in requests {
            let bank = self.banks.get(&req.bank).ok_or(MemsimError::UnknownBank(req.bank))?;
            let t = bank.read_time(req.bytes);
            let entry = per_bank.entry(req.bank).or_insert((SimTime::ZERO, 0));
            entry.0 += t;
            entry.1 += 1;
        }
        let elapsed = per_bank.values().map(|(t, _)| *t).max().unwrap_or(SimTime::ZERO);
        let total_busy = per_bank.values().map(|(t, _)| *t).sum();
        let max_reads_per_bank = per_bank.values().map(|(_, n)| *n).max().unwrap_or(0);
        Ok(BatchTiming { elapsed, total_busy, max_reads_per_bank })
    }

    /// Services a batch of *addressed* reads, modelling the DRAM row
    /// buffers under the active [`RowPolicy`]: reads to the same bank
    /// serialize in the given order, and consecutive same-row reads hit the
    /// open row under [`RowPolicy::OpenPage`].
    ///
    /// # Errors
    ///
    /// Returns [`MemsimError::UnknownBank`] if any read targets a bank
    /// outside the configuration; no state is changed in that case.
    pub fn parallel_read_addressed(
        &mut self,
        reads: &[AddressedRead],
    ) -> Result<BatchTiming, MemsimError> {
        for read in reads {
            if !self.banks.contains_key(&read.bank) || !self.row_states.contains_key(&read.bank) {
                return Err(MemsimError::UnknownBank(read.bank));
            }
        }
        let mut per_bank: BTreeMap<BankId, (SimTime, usize)> = BTreeMap::new();
        for read in reads {
            let timing = self.banks[&read.bank].timing();
            let Some(state) = self.row_states.get_mut(&read.bank) else {
                // Unreachable: both maps were validated before any mutation.
                return Err(MemsimError::UnknownBank(read.bank));
            };
            let (t, hit) = state.service(read, timing, self.policy);
            self.stats.record_with_hit(read.bank, read.bytes, t, hit);
            let entry = per_bank.entry(read.bank).or_insert((SimTime::ZERO, 0));
            entry.0 += t;
            entry.1 += 1;
        }
        let elapsed = per_bank.values().map(|(t, _)| *t).max().unwrap_or(SimTime::ZERO);
        let total_busy = per_bank.values().map(|(t, _)| *t).sum();
        let max_reads_per_bank = per_bank.values().map(|(_, n)| *n).max().unwrap_or(0);
        Ok(BatchTiming { elapsed, total_busy, max_reads_per_bank })
    }

    /// Byte offset of region `label` in bank `id` (for building addressed
    /// reads against planned allocations).
    ///
    /// # Errors
    ///
    /// Returns [`MemsimError::UnknownBank`] or [`MemsimError::UnknownRegion`].
    pub fn region_offset(&self, id: BankId, label: &str) -> Result<u64, MemsimError> {
        let bank = self.bank(id)?;
        bank.region(label)
            .map(|r| r.offset)
            .ok_or_else(|| MemsimError::UnknownRegion { bank: id, label: label.to_string() })
    }

    /// Accumulated access statistics.
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Resets accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::MemoryKind;

    fn hbm(i: u16) -> BankId {
        BankId::new(MemoryKind::Hbm, i)
    }

    fn mem() -> HybridMemory {
        HybridMemory::new(MemoryConfig::u280())
    }

    #[test]
    fn reads_on_distinct_banks_overlap() {
        let mut m = mem();
        let reqs: Vec<_> = (0..32).map(|i| ReadRequest::new(hbm(i), 64)).collect();
        let batch = m.parallel_read(&reqs).unwrap();
        let single = m.bank(hbm(0)).unwrap().read_time(64);
        assert_eq!(batch.elapsed, single, "32 parallel reads cost one access");
        assert_eq!(batch.max_reads_per_bank, 1);
        assert_eq!(batch.total_busy, single * 32);
    }

    #[test]
    fn co_located_reads_serialize_into_rounds() {
        let mut m = mem();
        // 2 reads on bank 0, 1 read on bank 1 -> two rounds.
        let reqs = [
            ReadRequest::new(hbm(0), 64),
            ReadRequest::new(hbm(0), 64),
            ReadRequest::new(hbm(1), 64),
        ];
        let batch = m.parallel_read(&reqs).unwrap();
        let single = m.bank(hbm(0)).unwrap().read_time(64);
        assert_eq!(batch.elapsed, single * 2);
        assert_eq!(batch.max_reads_per_bank, 2);
    }

    #[test]
    fn bottleneck_is_slowest_bank_not_sum() {
        let mut m = mem();
        let big = ReadRequest::new(hbm(0), 512);
        let small = ReadRequest::new(hbm(1), 16);
        let batch = m.parallel_read(&[big, small]).unwrap();
        assert_eq!(batch.elapsed, m.bank(hbm(0)).unwrap().read_time(512));
    }

    #[test]
    fn unknown_bank_is_rejected_without_recording() {
        let mut m = mem();
        let bogus = ReadRequest::new(BankId::new(MemoryKind::Hbm, 99), 64);
        let ok = ReadRequest::new(hbm(0), 64);
        assert!(matches!(m.parallel_read(&[ok, bogus]), Err(MemsimError::UnknownBank(_))));
        assert_eq!(m.stats().total().reads, 0, "failed batch must not record stats");
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let mut m = mem();
        let reqs = [ReadRequest::new(hbm(0), 64)];
        m.parallel_read(&reqs).unwrap();
        m.parallel_read(&reqs).unwrap();
        assert_eq!(m.stats().total().reads, 2);
        assert_eq!(m.stats().total().bytes, 128);
        m.reset_stats();
        assert_eq!(m.stats().total().reads, 0);
    }

    #[test]
    fn alloc_release_through_device() {
        let mut m = mem();
        m.alloc(hbm(3), "t", 1000).unwrap();
        assert_eq!(m.bank(hbm(3)).unwrap().used(), 1000);
        m.release(hbm(3), "t").unwrap();
        assert_eq!(m.bank(hbm(3)).unwrap().used(), 0);
        assert!(m.release(hbm(3), "t").is_err());
    }

    #[test]
    fn empty_batch_is_free() {
        let m = mem();
        let t = m.estimate_parallel_read(&[]).unwrap();
        assert_eq!(t.elapsed, SimTime::ZERO);
        assert_eq!(t.max_reads_per_bank, 0);
    }

    #[test]
    fn addressed_reads_hit_open_rows_only_under_open_page() {
        use crate::rowstate::{AddressedRead, RowPolicy};
        let mut m = mem();
        let reads = [AddressedRead::new(hbm(0), 128, 64), AddressedRead::new(hbm(0), 160, 64)];
        // Closed page: both pay full activations.
        let t_closed = m.parallel_read_addressed(&reads).unwrap();
        m.set_row_policy(RowPolicy::OpenPage);
        let t_open = m.parallel_read_addressed(&reads).unwrap();
        assert!(t_open.elapsed < t_closed.elapsed);
        let stats = m.stats().bank(hbm(0)).unwrap();
        assert_eq!(stats.row_hits, 1, "second same-row read hits");
        assert_eq!(stats.reads, 4);
    }

    #[test]
    fn row_state_resets_on_policy_change() {
        use crate::rowstate::{AddressedRead, RowPolicy};
        let mut m = mem();
        m.set_row_policy(RowPolicy::OpenPage);
        m.parallel_read_addressed(&[AddressedRead::new(hbm(0), 0, 64)]).unwrap();
        m.set_row_policy(RowPolicy::OpenPage); // re-setting clears state
        m.parallel_read_addressed(&[AddressedRead::new(hbm(0), 0, 64)]).unwrap();
        assert_eq!(m.stats().bank(hbm(0)).unwrap().row_hits, 0);
    }

    #[test]
    fn region_offset_lookup() {
        let mut m = mem();
        m.alloc(hbm(2), "a", 100).unwrap();
        m.alloc(hbm(2), "b", 100).unwrap();
        assert_eq!(m.region_offset(hbm(2), "a").unwrap(), 0);
        assert_eq!(m.region_offset(hbm(2), "b").unwrap(), 100);
        assert!(m.region_offset(hbm(2), "zzz").is_err());
        assert!(m.region_offset(BankId::new(MemoryKind::Hbm, 99), "a").is_err());
    }

    #[test]
    fn addressed_read_rejects_unknown_bank_atomically() {
        use crate::rowstate::AddressedRead;
        let mut m = mem();
        let reads = [
            AddressedRead::new(hbm(0), 0, 64),
            AddressedRead::new(BankId::new(MemoryKind::Hbm, 99), 0, 64),
        ];
        assert!(m.parallel_read_addressed(&reads).is_err());
        assert_eq!(m.stats().total().reads, 0);
    }

    #[test]
    fn onchip_reads_are_faster_than_dram() {
        let m = mem();
        let ocm = m.bank(BankId::new(MemoryKind::Bram, 0)).unwrap().read_time(32);
        let dram = m.bank(hbm(0)).unwrap().read_time(32);
        assert!(ocm.as_ns() * 2.0 < dram.as_ns());
    }
}
