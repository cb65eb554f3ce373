//! Bank allocation: heuristic rule 4 plus balanced DRAM assignment.
//!
//! Given the physical tables produced by a merge plan, the allocator
//!
//! 1. caches the smallest tables on chip (rule 4), subject to bank capacity
//!    and to the co-location constraint that a bank's serialized lookups
//!    must not exceed the time of one off-chip access (otherwise caching is
//!    "meaningless", §3.4.2);
//! 2. spreads the remaining tables over the DRAM channels, balancing the
//!    *number of tables per channel* — the paper's "DRAM access rounds"
//!    model of §3.3, where a channel holding two tables takes two rounds;
//! 3. optionally *replicates* tables across idle channels when the model
//!    looks tables up several times per inference (DLRM-RMC2's 4 lookups),
//!    which is how 32 lookups over 8 tables can still finish in one HBM
//!    round (Table 5).
//!
//! Two DRAM strategies are provided. [`AllocStrategy::RoundRobin`] balances
//! table counts (largest tables first, highest-capacity channels first) and
//! reproduces the paper's reported round structure and latency ratios.
//! [`AllocStrategy::Lpt`] balances per-channel *time* instead
//! (longest-processing-time-first), a natural alternative evaluated in the
//! ablation benches — it produces flatter channel times but can mask the
//! benefit of merging when a giant-table channel dominates.

use std::collections::BTreeMap;

use microrec_embedding::{cartesian, MergePlan, ModelSpec, Precision, TableSpec};
use microrec_memsim::{BankId, MemoryConfig, SimTime};

use crate::error::PlacementError;
use crate::plan::{PlacedTable, Plan};

/// Builds the physical table specs for `model` under `merge`, in catalog
/// order (merged groups first, then unmerged singles in logical order).
///
/// # Errors
///
/// Returns an error if the merge plan does not fit the model or a product
/// overflows.
pub fn physical_specs(
    model: &ModelSpec,
    merge: &MergePlan,
) -> Result<Vec<(TableSpec, Vec<usize>)>, PlacementError> {
    merge.validate(model.num_tables())?;
    let mut in_group = vec![false; model.num_tables()];
    let mut out = Vec::new();
    for group in &merge.groups {
        let members: Vec<&TableSpec> = group.iter().map(|&i| &model.tables[i]).collect();
        let spec = cartesian::product_spec(&members)?;
        for &i in group {
            in_group[i] = true;
        }
        out.push((spec, group.clone()));
    }
    for (i, spec) in model.tables.iter().enumerate() {
        if !in_group[i] {
            out.push((spec.clone(), vec![i]));
        }
    }
    Ok(out)
}

/// How remaining tables are spread over the DRAM channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocStrategy {
    /// Balance the table *count* per channel (largest tables first,
    /// largest-capacity channels first). This is the paper's rounds model
    /// and the default.
    #[default]
    RoundRobin,
    /// Balance the per-channel *time* (longest-processing-time-first
    /// makespan greedy). Ablation alternative.
    Lpt,
}

/// Mutable state of one bank during allocation.
#[derive(Debug, Clone)]
struct BankState {
    id: BankId,
    capacity: u64,
    free: u64,
    serial: SimTime,
    count: u32,
    reads: u32,
}

/// Allocates the physical tables of (`model`, `merge`) onto `config` using
/// the default [`AllocStrategy::RoundRobin`].
///
/// # Errors
///
/// Returns [`PlacementError::Infeasible`] if some table fits no bank.
pub fn allocate(
    model: &ModelSpec,
    merge: &MergePlan,
    config: &MemoryConfig,
    precision: Precision,
) -> Result<Plan, PlacementError> {
    allocate_with(model, merge, config, precision, AllocStrategy::RoundRobin)
}

/// Allocates with an explicit DRAM strategy.
///
/// # Errors
///
/// Returns [`PlacementError::Infeasible`] if some table fits no bank.
pub fn allocate_with(
    model: &ModelSpec,
    merge: &MergePlan,
    config: &MemoryConfig,
    precision: Precision,
    strategy: AllocStrategy,
) -> Result<Plan, PlacementError> {
    let specs = physical_specs(model, merge)?;
    let lookups = model.lookups_per_table;

    let new_state = |b: &microrec_memsim::BankSpec| BankState {
        id: b.id,
        capacity: b.capacity,
        free: b.capacity,
        serial: SimTime::ZERO,
        count: 0,
        reads: 0,
    };
    let mut onchip: Vec<BankState> =
        config.banks.iter().filter(|b| b.id.kind.is_on_chip()).map(new_state).collect();
    let mut dram: Vec<BankState> =
        config.banks.iter().filter(|b| b.id.kind.is_dram()).map(new_state).collect();
    if dram.is_empty() {
        return Err(PlacementError::Infeasible("configuration has no DRAM banks".into()));
    }

    // Rule-4 latency cap: co-located on-chip lookups must not exceed one
    // off-chip access of the largest row this model reads from DRAM.
    let max_row_bytes = specs.iter().map(|(s, _)| s.row_bytes(precision)).max().unwrap_or(4);
    let offchip_access = config
        .banks
        .iter()
        .filter(|b| b.id.kind.is_dram())
        .map(|b| b.timing.access_time(max_row_bytes))
        .min()
        .unwrap_or(SimTime::ZERO);

    // Phase 1 — on-chip caching, smallest tables first.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| (specs[i].0.bytes(precision), i));
    let mut assignment: Vec<Option<Vec<BankId>>> = vec![None; specs.len()];
    for &i in &order {
        let (spec, _) = &specs[i];
        let bytes = spec.bytes(precision);
        let read = lookup_time_on(config, spec, precision, lookups);
        // Best-fit: the fullest on-chip bank that still satisfies both
        // rule-4 constraints.
        let candidate = onchip
            .iter_mut()
            .filter(|b| b.free >= bytes)
            .filter(|b| {
                let t = config.bank_spec(b.id).expect("bank from config").timing.clone();
                b.serial + t.access_time(spec.row_bytes(precision)) * u64::from(lookups)
                    <= offchip_access
            })
            .min_by_key(|b| b.free);
        if let Some(bank) = candidate {
            bank.free -= bytes;
            bank.serial += read;
            bank.reads += lookups;
            assignment[i] = Some(vec![bank.id]);
        }
    }

    // Phase 2 — spread everything still unplaced over the DRAM channels,
    // largest access first.
    let mut remaining: Vec<usize> = (0..specs.len()).filter(|&i| assignment[i].is_none()).collect();
    remaining.sort_by(|&a, &b| {
        let ta = dram_access_estimate(config, &specs[a].0, precision) * u64::from(lookups);
        let tb = dram_access_estimate(config, &specs[b].0, precision) * u64::from(lookups);
        tb.cmp(&ta).then_with(|| specs[b].0.bytes(precision).cmp(&specs[a].0.bytes(precision)))
    });
    for &i in &remaining {
        let (spec, _) = &specs[i];
        let bytes = spec.bytes(precision);
        let row_bytes = spec.row_bytes(precision);
        let fits = dram.iter_mut().filter(|b| b.free >= bytes);
        let best = match strategy {
            // Fewest tables so far; ties go to the largest channel (the DDR
            // channels absorb the giant tables first), then lowest id.
            AllocStrategy::RoundRobin => {
                fits.min_by_key(|b| (b.count, u64::MAX - b.capacity, b.id))
            }
            // Smallest resulting serial time.
            AllocStrategy::Lpt => fits.min_by_key(|b| {
                let t = &config.bank_spec(b.id).expect("bank from config").timing;
                (b.serial + t.access_time(row_bytes) * u64::from(lookups), b.id)
            }),
        }
        .ok_or_else(|| {
            PlacementError::Infeasible(format!(
                "table `{}` ({} bytes) fits no DRAM bank",
                spec.name, bytes
            ))
        })?;
        let t = &config.bank_spec(best.id).expect("bank from config").timing;
        best.free -= bytes;
        best.serial += t.access_time(row_bytes) * u64::from(lookups);
        best.count += 1;
        best.reads += lookups;
        assignment[i] = Some(vec![best.id]);
    }

    let mut plan = Plan {
        model_name: model.name.clone(),
        merge: merge.clone(),
        placed: specs
            .iter()
            .zip(assignment)
            .map(|((spec, members), banks)| PlacedTable {
                spec: spec.clone(),
                members: members.clone(),
                banks: banks.expect("every table assigned"),
            })
            .collect(),
        precision,
    };

    // Phase 3 — replication for multi-lookup models.
    if lookups > 1 {
        replicate_hot_tables(&mut plan, model, config);
    }
    Ok(plan)
}

/// Lookup time for `lookups` reads of `spec` from its cheapest on-chip bank
/// (used only for the rule-4 accounting above).
fn lookup_time_on(
    config: &MemoryConfig,
    spec: &TableSpec,
    precision: Precision,
    lookups: u32,
) -> SimTime {
    config
        .banks
        .iter()
        .filter(|b| b.id.kind.is_on_chip())
        .map(|b| b.timing.access_time(spec.row_bytes(precision)))
        .min()
        .unwrap_or(SimTime::ZERO)
        * u64::from(lookups)
}

/// One DRAM access of `spec` on the fastest DRAM technology available.
fn dram_access_estimate(config: &MemoryConfig, spec: &TableSpec, precision: Precision) -> SimTime {
    config
        .banks
        .iter()
        .filter(|b| b.id.kind.is_dram())
        .map(|b| b.timing.access_time(spec.row_bytes(precision)))
        .min()
        .unwrap_or(SimTime::ZERO)
}

/// Replicates DRAM-resident tables across idle channels so the
/// `lookups_per_table` reads of each table spread out, lowering the
/// per-bank read count ("rounds") globally.
///
/// Works level by level: while every DRAM table needs `M > 1` serialized
/// reads per replica, grow each table's replica set to `ceil(L / (M-1))`
/// copies — replicating *all* tables together, since lowering one table's
/// reads cannot improve the bottleneck while siblings still take `M`. The
/// pass keeps whichever of (original, replicated) plan costs less.
fn replicate_hot_tables(plan: &mut Plan, model: &ModelSpec, config: &MemoryConfig) {
    let lookups = u64::from(model.lookups_per_table);
    let original = plan.clone();
    let before = original.cost(config, model.lookups_per_table);

    // Free bytes per DRAM bank, and tables assigned per bank, under the
    // current plan.
    let mut free: BTreeMap<BankId, u64> =
        config.banks.iter().filter(|b| b.id.kind.is_dram()).map(|b| (b.id, b.capacity)).collect();
    let mut load: BTreeMap<BankId, u32> = free.keys().map(|&id| (id, 0)).collect();
    for t in &plan.placed {
        for &b in &t.banks {
            if let Some(f) = free.get_mut(&b) {
                *f = f.saturating_sub(t.spec.bytes(plan.precision));
                *load.get_mut(&b).expect("dram bank") += 1;
            }
        }
    }

    let dram_tables: Vec<usize> =
        (0..plan.placed.len()).filter(|&i| plan.placed[i].banks[0].kind.is_dram()).collect();

    loop {
        let reads_of = |t: &PlacedTable| lookups.div_ceil(t.banks.len() as u64);
        let m = dram_tables.iter().map(|&i| reads_of(&plan.placed[i])).max().unwrap_or(1);
        if m <= 1 {
            break;
        }
        let target_replicas = lookups.div_ceil(m - 1);
        let mut progressed = false;
        for &i in &dram_tables {
            let bytes = plan.placed[i].spec.bytes(plan.precision);
            while (plan.placed[i].banks.len() as u64) < target_replicas {
                let existing = plan.placed[i].banks.clone();
                let Some((&bank, _)) = load
                    .iter()
                    .filter(|(id, _)| !existing.contains(id))
                    .filter(|(id, _)| free.get(id).copied().unwrap_or(0) >= bytes)
                    .min_by_key(|(id, &n)| (n, **id))
                else {
                    break;
                };
                plan.placed[i].banks.push(bank);
                *free.get_mut(&bank).expect("dram bank") -= bytes;
                *load.get_mut(&bank).expect("dram bank") += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let after = plan.cost(config, model.lookups_per_table);
    if !after.better_than(&before) && after != before {
        *plan = original;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_memsim::MemoryKind;

    #[test]
    fn physical_specs_order_matches_catalog() {
        let model = ModelSpec::new(
            "toy",
            vec![
                TableSpec::new("a", 10, 4),
                TableSpec::new("b", 20, 4),
                TableSpec::new("c", 30, 4),
                TableSpec::new("d", 40, 4),
            ],
            vec![8],
            1,
        );
        let merge = MergePlan::pairs(&[(1, 3)]);
        let specs = physical_specs(&model, &merge).unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].1, vec![1, 3]);
        assert_eq!(specs[0].0.rows, 800);
        assert_eq!(specs[1].1, vec![0]);
        assert_eq!(specs[2].1, vec![2]);
    }

    #[test]
    fn allocate_unmerged_toy_model() {
        let model = ModelSpec::new(
            "toy",
            (0..5).map(|i| TableSpec::new(format!("t{i}"), 1000, 8)).collect(),
            vec![8],
            1,
        );
        let plan =
            allocate(&model, &MergePlan::none(), &MemoryConfig::u280(), Precision::F32).unwrap();
        plan.validate(&model, &MemoryConfig::u280()).unwrap();
        let cost = plan.cost(&MemoryConfig::u280(), 1);
        assert_eq!(cost.dram_rounds, 1, "5 tables over 34 channels need one round");
    }

    #[test]
    fn tiny_tables_get_cached_on_chip() {
        let model = ModelSpec::new(
            "toy",
            vec![
                TableSpec::new("tiny", 100, 4),    // 1.6 kB, fits a 4 kB BRAM bank
                TableSpec::new("big", 100_000, 8), // 3.2 MB, DRAM only
            ],
            vec![8],
            1,
        );
        let plan =
            allocate(&model, &MergePlan::none(), &MemoryConfig::u280(), Precision::F32).unwrap();
        let cost = plan.cost(&MemoryConfig::u280(), 1);
        assert_eq!(cost.tables_on_chip, 1);
        assert_eq!(cost.tables_in_dram, 1);
        let tiny = plan.placed.iter().find(|t| t.spec.name == "tiny").unwrap();
        assert!(tiny.banks[0].kind.is_on_chip());
    }

    #[test]
    fn oversized_table_is_infeasible() {
        let model = ModelSpec::new(
            "toy",
            // 200 GB table exceeds even a 16 GB DDR channel.
            vec![TableSpec::new("huge", 800_000_000, 64)],
            vec![8],
            1,
        );
        assert!(matches!(
            allocate(&model, &MergePlan::none(), &MemoryConfig::u280(), Precision::F32),
            Err(PlacementError::Infeasible(_))
        ));
    }

    #[test]
    fn lpt_balances_rounds() {
        // 68 identical tables over 34 DRAM channels -> exactly 2 per channel.
        let model = ModelSpec::new(
            "toy",
            (0..68).map(|i| TableSpec::new(format!("t{i}"), 100_000, 8)).collect(),
            vec![8],
            1,
        );
        let plan =
            allocate(&model, &MergePlan::none(), &MemoryConfig::u280(), Precision::F32).unwrap();
        let cost = plan.cost(&MemoryConfig::u280(), 1);
        assert_eq!(cost.dram_rounds, 2);
    }

    #[test]
    fn giant_tables_go_to_ddr() {
        // 1 GB table cannot fit a 256 MB HBM pseudo-channel.
        let model = ModelSpec::new(
            "toy",
            vec![TableSpec::new("giant", 4_000_000, 64), TableSpec::new("small", 1_000, 8)],
            vec![8],
            1,
        );
        let plan =
            allocate(&model, &MergePlan::none(), &MemoryConfig::u280(), Precision::F32).unwrap();
        let giant = plan.placed.iter().find(|t| t.spec.name == "giant").unwrap();
        assert_eq!(giant.banks[0].kind, MemoryKind::Ddr);
    }

    #[test]
    fn multi_lookup_model_replicates_across_idle_channels() {
        // DLRM-RMC2 shape: 8 tables x 4 lookups with 32 HBM channels free.
        let model = ModelSpec::dlrm_rmc2(8, 16);
        let plan =
            allocate(&model, &MergePlan::none(), &MemoryConfig::u280(), Precision::F32).unwrap();
        plan.validate(&model, &MemoryConfig::u280()).unwrap();
        let cost = plan.cost(&MemoryConfig::u280(), 4);
        assert_eq!(
            cost.dram_rounds, 1,
            "32 lookups over 34 channels should replicate down to one round"
        );
    }

    #[test]
    fn twelve_table_dlrm_needs_two_rounds() {
        // 12 tables x 4 = 48 lookups > 34 channels -> 2 rounds (Table 5's
        // "speedup lower bound" case).
        let model = ModelSpec::dlrm_rmc2(12, 16);
        let plan =
            allocate(&model, &MergePlan::none(), &MemoryConfig::u280(), Precision::F32).unwrap();
        let cost = plan.cost(&MemoryConfig::u280(), 4);
        assert_eq!(cost.dram_rounds, 2);
    }
}
