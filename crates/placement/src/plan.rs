//! Placement plans: which physical table sits in which memory bank.

use std::collections::BTreeMap;

use microrec_embedding::{cartesian, MergePlan, ModelSpec, Precision, TableSpec};
use microrec_memsim::{BankId, HybridMemory, MemoryConfig, SimTime};

use crate::error::PlacementError;

/// One physical table (single or Cartesian product) placed in memory.
///
/// A table may be *replicated* across several banks; replicas share the
/// contents, and the `lookups_per_table` reads of one inference are spread
/// round-robin over them. Replication only pays off for models that look up
/// each table several times (DLRM-RMC2's 4 lookups per table, §5.4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedTable {
    /// Spec of the stored table (the product spec for merged tables).
    pub spec: TableSpec,
    /// Logical table indices served by this physical table, in
    /// concatenation order (length 1 for unmerged tables).
    pub members: Vec<usize>,
    /// Banks holding a full copy (≥ 1 entry).
    pub banks: Vec<BankId>,
}

impl PlacedTable {
    /// Whether this is a Cartesian product.
    #[must_use]
    pub fn is_merged(&self) -> bool {
        self.members.len() > 1
    }

    /// Bytes of one stored row at `precision`.
    #[must_use]
    pub fn row_bytes(&self, precision: Precision) -> u32 {
        self.spec.row_bytes(precision)
    }
}

/// Cost summary of a plan — the objective of Algorithm 1.
///
/// Plans are compared by embedding-lookup latency first and total storage
/// second ("for ties in latency, the solution with the least storage
/// overhead is chosen", §3.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCost {
    /// Time for the embedding-lookup stage of one inference (bottleneck
    /// bank; banks work in parallel).
    pub lookup_latency: SimTime,
    /// Total bytes stored across all banks (replicas included).
    pub storage_bytes: u64,
    /// Largest number of serialized reads on any off-chip DRAM bank — the
    /// paper's "DRAM access rounds".
    pub dram_rounds: usize,
    /// Physical tables resident in DRAM (HBM or DDR), counting each table
    /// once regardless of replicas.
    pub tables_in_dram: usize,
    /// Physical tables cached on chip.
    pub tables_on_chip: usize,
}

impl PlanCost {
    /// `true` if `self` beats `other` under the paper's objective.
    #[must_use]
    pub fn better_than(&self, other: &PlanCost) -> bool {
        (self.lookup_latency, self.storage_bytes) < (other.lookup_latency, other.storage_bytes)
    }
}

/// A complete solution: merge plan plus bank assignment for every physical
/// table.
///
/// The physical table order matches
/// [`Catalog::from_tables`](microrec_embedding::Catalog): merged groups
/// first (in merge-plan order), then unmerged singles in logical order, so
/// index `i` here corresponds to physical table `i` in the catalog built
/// from [`Plan::merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Name of the model this plan was built for.
    pub model_name: String,
    /// The Cartesian merge decisions.
    pub merge: MergePlan,
    /// Every physical table with its bank assignment, in catalog order.
    pub placed: Vec<PlacedTable>,
    /// Storage precision the plan was sized for.
    pub precision: Precision,
}

impl Plan {
    /// Number of physical tables (the paper's "Table Num" column of
    /// Table 3 counts these plus nothing else).
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.placed.len()
    }

    /// Evaluates the plan's cost for a model issuing `lookups_per_table`
    /// reads per logical table.
    ///
    /// Each physical table is read `lookups_per_table` times per inference
    /// (a merged table's single read serves all its members simultaneously);
    /// reads are spread round-robin over replicas; banks service their reads
    /// serially and in parallel with each other.
    #[must_use]
    pub fn cost(&self, config: &MemoryConfig, lookups_per_table: u32) -> PlanCost {
        let mut bank_time: BTreeMap<BankId, SimTime> = BTreeMap::new();
        let mut bank_reads: BTreeMap<BankId, usize> = BTreeMap::new();
        let mut storage = 0u64;
        let mut tables_in_dram = 0usize;
        let mut tables_on_chip = 0usize;

        for table in &self.placed {
            storage += table.spec.bytes(self.precision) * table.banks.len() as u64;
            let primary_kind = table.banks[0].kind;
            if primary_kind.is_dram() {
                tables_in_dram += 1;
            } else {
                tables_on_chip += 1;
            }
            let replicas = table.banks.len() as u32;
            let row_bytes = table.row_bytes(self.precision);
            for (r, &bank) in table.banks.iter().enumerate() {
                // Round-robin: replica r serves lookups r, r+replicas, ...
                let reads = (u64::from(lookups_per_table) + replicas as u64 - 1 - r as u64)
                    / u64::from(replicas);
                if reads == 0 {
                    continue;
                }
                let timing = config
                    .bank_spec(bank)
                    .map(|s| s.timing.access_time(row_bytes))
                    .unwrap_or(SimTime::ZERO);
                *bank_time.entry(bank).or_insert(SimTime::ZERO) += timing * reads;
                *bank_reads.entry(bank).or_insert(0) += reads as usize;
            }
        }

        let lookup_latency = bank_time.values().copied().max().unwrap_or(SimTime::ZERO);
        let dram_rounds = bank_reads
            .iter()
            .filter(|(id, _)| id.kind.is_dram())
            .map(|(_, &n)| n)
            .max()
            .unwrap_or(0);
        PlanCost {
            lookup_latency,
            storage_bytes: storage,
            dram_rounds,
            tables_in_dram,
            tables_on_chip,
        }
    }

    /// Checks the plan against a model and memory configuration: every
    /// logical table appears exactly once, every referenced bank exists, no
    /// bank's capacity is exceeded, and replica sets are non-empty and
    /// duplicate-free.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InvalidPlan`] describing the first
    /// violation found.
    pub fn validate(&self, model: &ModelSpec, config: &MemoryConfig) -> Result<(), PlacementError> {
        let mut seen = vec![false; model.num_tables()];
        for table in &self.placed {
            if table.banks.is_empty() {
                return Err(PlacementError::InvalidPlan(format!(
                    "table `{}` has no banks",
                    table.spec.name
                )));
            }
            let mut banks = table.banks.clone();
            banks.sort_unstable();
            banks.dedup();
            if banks.len() != table.banks.len() {
                return Err(PlacementError::InvalidPlan(format!(
                    "table `{}` lists a bank twice",
                    table.spec.name
                )));
            }
            for &member in &table.members {
                if member >= seen.len() {
                    return Err(PlacementError::InvalidPlan(format!(
                        "logical table index {member} out of range"
                    )));
                }
                if seen[member] {
                    return Err(PlacementError::InvalidPlan(format!(
                        "logical table {member} placed twice"
                    )));
                }
                seen[member] = true;
            }
            // Product spec consistency for merged tables.
            if table.is_merged() {
                let members: Vec<&TableSpec> =
                    table.members.iter().map(|&i| &model.tables[i]).collect();
                let expect = cartesian::product_spec(&members)?;
                if expect.rows != table.spec.rows || expect.dim != table.spec.dim {
                    return Err(PlacementError::InvalidPlan(format!(
                        "table `{}` has inconsistent product spec",
                        table.spec.name
                    )));
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(PlacementError::InvalidPlan(format!("logical table {missing} not placed")));
        }

        // Capacity check via a scratch ledger.
        let mut used: BTreeMap<BankId, u64> = BTreeMap::new();
        for table in &self.placed {
            for &bank in &table.banks {
                let spec = config.bank_spec(bank).ok_or_else(|| {
                    PlacementError::InvalidPlan(format!("bank {bank} not in configuration"))
                })?;
                let u = used.entry(bank).or_insert(0);
                *u += table.spec.bytes(self.precision);
                if *u > spec.capacity {
                    return Err(PlacementError::InvalidPlan(format!(
                        "bank {bank} over capacity ({} > {})",
                        u, spec.capacity
                    )));
                }
            }
        }
        Ok(())
    }

    /// Applies the plan to a [`HybridMemory`], allocating one region per
    /// (table, replica).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (unknown bank, over capacity).
    pub fn apply(&self, memory: &mut HybridMemory) -> Result<(), PlacementError> {
        for table in &self.placed {
            let bytes = table.spec.bytes(self.precision);
            for (r, &bank) in table.banks.iter().enumerate() {
                let label = if table.banks.len() > 1 {
                    format!("{}#r{r}", table.spec.name)
                } else {
                    table.spec.name.clone()
                };
                memory.alloc(bank, label, bytes)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_memsim::MemoryKind;

    fn model() -> ModelSpec {
        ModelSpec::new(
            "toy",
            vec![
                TableSpec::new("a", 100, 4),
                TableSpec::new("b", 200, 8),
                TableSpec::new("c", 50, 4),
            ],
            vec![16],
            1,
        )
    }

    fn hbm(i: u16) -> BankId {
        BankId::new(MemoryKind::Hbm, i)
    }

    fn unmerged_plan() -> Plan {
        let m = model();
        Plan {
            model_name: m.name.clone(),
            merge: MergePlan::none(),
            placed: m
                .tables
                .iter()
                .enumerate()
                .map(|(i, spec)| PlacedTable {
                    spec: spec.clone(),
                    members: vec![i],
                    banks: vec![hbm(i as u16)],
                })
                .collect(),
            precision: Precision::F32,
        }
    }

    #[test]
    fn valid_plan_passes() {
        unmerged_plan().validate(&model(), &MemoryConfig::u280()).unwrap();
    }

    #[test]
    fn cost_one_table_per_bank_is_one_round() {
        let cost = unmerged_plan().cost(&MemoryConfig::u280(), 1);
        assert_eq!(cost.dram_rounds, 1);
        assert_eq!(cost.tables_in_dram, 3);
        assert_eq!(cost.tables_on_chip, 0);
        // Bottleneck is the dim-8 table (32-byte row).
        let hbm_t = MemoryConfig::u280().bank_spec(hbm(1)).unwrap().timing.clone();
        assert_eq!(cost.lookup_latency, hbm_t.access_time(32));
    }

    #[test]
    fn co_located_tables_double_rounds() {
        let mut plan = unmerged_plan();
        plan.placed[2].banks = vec![hbm(0)];
        let cost = plan.cost(&MemoryConfig::u280(), 1);
        assert_eq!(cost.dram_rounds, 2);
        let hbm_t = MemoryConfig::u280().bank_spec(hbm(0)).unwrap().timing.clone();
        assert_eq!(cost.lookup_latency, hbm_t.access_time(16) * 2);
    }

    #[test]
    fn replication_splits_multi_lookups() {
        let mut plan = unmerged_plan();
        plan.placed[1].banks = vec![hbm(1), hbm(10)];
        // 4 lookups per table: unreplicated tables serialize 4 reads,
        // the replicated one only 2 per bank.
        let cost = plan.cost(&MemoryConfig::u280(), 4);
        assert_eq!(cost.dram_rounds, 4);
        let t = MemoryConfig::u280().bank_spec(hbm(0)).unwrap().timing.clone();
        // Bottleneck: table b replicated -> 2 reads of 32 B vs table a 4 reads of 16 B.
        let a4 = t.access_time(16) * 4;
        let b2 = t.access_time(32) * 2;
        assert_eq!(cost.lookup_latency, a4.max(b2));
        // Storage counts both replicas.
        let m = model();
        let base: u64 = m.tables.iter().map(|t| t.bytes(Precision::F32)).sum();
        assert_eq!(cost.storage_bytes, base + m.tables[1].bytes(Precision::F32));
    }

    #[test]
    fn validate_rejects_duplicate_and_missing_tables() {
        let mut plan = unmerged_plan();
        plan.placed[2].members = vec![0];
        let err = plan.validate(&model(), &MemoryConfig::u280()).unwrap_err();
        assert!(matches!(err, PlacementError::InvalidPlan(_)));

        let mut plan = unmerged_plan();
        plan.placed.pop();
        assert!(plan.validate(&model(), &MemoryConfig::u280()).is_err());
    }

    #[test]
    fn validate_rejects_overfull_bank() {
        let mut plan = unmerged_plan();
        // A BRAM bank holds 4 KiB; table b needs 200*32 = 6.4 kB.
        plan.placed[1].banks = vec![BankId::new(MemoryKind::Bram, 0)];
        assert!(plan.validate(&model(), &MemoryConfig::u280()).is_err());
    }

    #[test]
    fn validate_rejects_duplicate_replica_banks() {
        let mut plan = unmerged_plan();
        plan.placed[0].banks = vec![hbm(0), hbm(0)];
        assert!(plan.validate(&model(), &MemoryConfig::u280()).is_err());
    }

    #[test]
    fn apply_allocates_regions() {
        let mut mem = HybridMemory::new(MemoryConfig::u280());
        unmerged_plan().apply(&mut mem).unwrap();
        assert_eq!(mem.bank(hbm(0)).unwrap().used(), 100 * 16);
        assert_eq!(mem.bank(hbm(1)).unwrap().used(), 200 * 32);
    }

    #[test]
    fn merged_plan_validates_product_spec() {
        let m = model();
        let merge = MergePlan::pairs(&[(0, 2)]);
        let product = cartesian::product_spec(&[&m.tables[0], &m.tables[2]]).unwrap();
        let good = Plan {
            model_name: m.name.clone(),
            merge: merge.clone(),
            placed: vec![
                PlacedTable { spec: product.clone(), members: vec![0, 2], banks: vec![hbm(0)] },
                PlacedTable { spec: m.tables[1].clone(), members: vec![1], banks: vec![hbm(1)] },
            ],
            precision: Precision::F32,
        };
        good.validate(&m, &MemoryConfig::u280()).unwrap();

        let mut bad = good;
        bad.placed[0].spec.rows = 999;
        assert!(bad.validate(&m, &MemoryConfig::u280()).is_err());
    }

    #[test]
    fn plan_cost_ordering() {
        let a = PlanCost {
            lookup_latency: SimTime::from_ns(100.0),
            storage_bytes: 10,
            dram_rounds: 1,
            tables_in_dram: 1,
            tables_on_chip: 0,
        };
        let mut b = a;
        b.storage_bytes = 5;
        assert!(b.better_than(&a), "equal latency -> less storage wins");
        let mut c = a;
        c.lookup_latency = SimTime::from_ns(99.0);
        c.storage_bytes = 1000;
        assert!(c.better_than(&a), "latency dominates storage");
    }
}

microrec_json::impl_json_struct!(PlacedTable, required { spec, members, banks });
microrec_json::impl_json_struct!(Plan, required { model_name, merge, placed, precision });
