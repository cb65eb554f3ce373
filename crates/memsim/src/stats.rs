//! Access statistics collected by the hybrid memory.

use std::collections::BTreeMap;

use crate::bank::{BankId, MemoryKind};
use crate::time::SimTime;

/// Counters for one bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Number of read accesses serviced.
    pub reads: u64,
    /// Total payload bytes read.
    pub bytes: u64,
    /// Total time the bank spent busy servicing reads.
    pub busy: SimTime,
    /// Reads that hit an open DRAM row (only under
    /// [`RowPolicy::OpenPage`](crate::RowPolicy::OpenPage)).
    pub row_hits: u64,
}

impl BankStats {
    /// Records one read of `bytes` taking `t`.
    pub fn record(&mut self, bytes: u32, t: SimTime) {
        self.record_with_hit(bytes, t, false);
    }

    /// Records one read, noting whether it hit an open row.
    pub fn record_with_hit(&mut self, bytes: u32, t: SimTime, row_hit: bool) {
        self.reads += 1;
        self.bytes += u64::from(bytes);
        self.busy += t;
        if row_hit {
            self.row_hits += 1;
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &BankStats) {
        self.reads += other.reads;
        self.bytes += other.bytes;
        self.busy += other.busy;
        self.row_hits += other.row_hits;
    }
}

/// Statistics across the whole hybrid memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessStats {
    per_bank: BTreeMap<BankId, BankStats>,
}

impl AccessStats {
    /// Creates an empty statistics collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one read against `bank`.
    pub fn record(&mut self, bank: BankId, bytes: u32, t: SimTime) {
        self.per_bank.entry(bank).or_default().record(bytes, t);
    }

    /// Records one read against `bank`, noting an open-row hit.
    pub fn record_with_hit(&mut self, bank: BankId, bytes: u32, t: SimTime, row_hit: bool) {
        self.per_bank.entry(bank).or_default().record_with_hit(bytes, t, row_hit);
    }

    /// Counters for one bank, if it was ever accessed.
    #[must_use]
    pub fn bank(&self, bank: BankId) -> Option<&BankStats> {
        self.per_bank.get(&bank)
    }

    /// Iterates over `(bank, stats)` pairs in bank order.
    pub fn iter(&self) -> impl Iterator<Item = (&BankId, &BankStats)> {
        self.per_bank.iter()
    }

    /// Aggregated counters for one memory technology.
    #[must_use]
    pub fn by_kind(&self, kind: MemoryKind) -> BankStats {
        let mut agg = BankStats::default();
        for (id, s) in &self.per_bank {
            if id.kind == kind {
                agg.merge(s);
            }
        }
        agg
    }

    /// Aggregated counters over every bank.
    #[must_use]
    pub fn total(&self) -> BankStats {
        let mut agg = BankStats::default();
        for s in self.per_bank.values() {
            agg.merge(s);
        }
        agg
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        self.per_bank.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let mut s = AccessStats::new();
        let h0 = BankId::new(MemoryKind::Hbm, 0);
        let h1 = BankId::new(MemoryKind::Hbm, 1);
        let d0 = BankId::new(MemoryKind::Ddr, 0);
        s.record(h0, 64, SimTime::from_ns(400.0));
        s.record(h0, 64, SimTime::from_ns(400.0));
        s.record(h1, 32, SimTime::from_ns(350.0));
        s.record(d0, 128, SimTime::from_ns(500.0));

        assert_eq!(s.bank(h0).unwrap().reads, 2);
        let hbm = s.by_kind(MemoryKind::Hbm);
        assert_eq!(hbm.reads, 3);
        assert_eq!(hbm.bytes, 160);
        assert_eq!(s.total().reads, 4);
        assert_eq!(s.total().busy, SimTime::from_ns(1650.0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = AccessStats::new();
        s.record(BankId::new(MemoryKind::Bram, 0), 4, SimTime::from_ns(10.0));
        s.reset();
        assert_eq!(s.total(), BankStats::default());
        assert!(s.iter().next().is_none());
    }

    #[test]
    fn by_kind_on_untouched_kind_is_zero() {
        let s = AccessStats::new();
        assert_eq!(s.by_kind(MemoryKind::Uram), BankStats::default());
    }
}
