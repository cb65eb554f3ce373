//! Brute-force search over Cartesian combinations (§3.4.1).
//!
//! The paper describes — and dismisses as infeasible at scale — an
//! exhaustive search: choose any subset of tables as Cartesian candidates,
//! try every way of pairing them, allocate, and keep the best. This module
//! implements exactly that (restricted to pairings, matching heuristic rule
//! 2, with the same allocator as the heuristic) so the heuristic's
//! near-optimality claim can be *measured* on instances small enough to
//! enumerate.
//!
//! The number of solutions is `Σ_k C(N, 2k) · (2k-1)!!`, which passes a
//! million around N = 12; [`brute_force_search`] therefore refuses larger
//! instances instead of silently running forever.

use microrec_embedding::{MergePlan, ModelSpec, Precision};
use microrec_memsim::MemoryConfig;

use crate::alloc::{allocate_with, AllocStrategy};
use crate::error::PlacementError;
use crate::heuristic::SearchOutcome;
use crate::plan::PlanCost;

/// Largest model (table count) accepted by [`brute_force_search`].
pub const MAX_BRUTE_TABLES: usize = 12;

/// Exhaustively searches pair-merge plans for `model` on `config`.
///
/// # Errors
///
/// Returns [`PlacementError::Infeasible`] if `model` has more than
/// [`MAX_BRUTE_TABLES`] tables or the unmerged model cannot be placed.
pub fn brute_force_search(
    model: &ModelSpec,
    config: &MemoryConfig,
    precision: Precision,
    strategy: AllocStrategy,
) -> Result<SearchOutcome, PlacementError> {
    let n = model.num_tables();
    if n > MAX_BRUTE_TABLES {
        return Err(PlacementError::Infeasible(format!(
            "brute force is limited to {MAX_BRUTE_TABLES} tables, model has {n} \
             (the paper's point exactly — use the heuristic)"
        )));
    }

    let base = allocate_with(model, &MergePlan::none(), config, precision, strategy)?;
    let base_cost = base.cost(config, model.lookups_per_table);
    let mut best = SearchOutcome { plan: base, cost: base_cost, evaluated: 1 };
    let mut evaluated = 1usize;

    // Enumerate every subset by bitmask, keeping the even-sized ones, and
    // every perfect matching of each subset.
    for mask in 1u32..(1u32 << n) {
        if mask.count_ones() % 2 != 0 {
            continue;
        }
        let members: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        for_each_matching(&members, &mut |pairs| {
            let merge = MergePlan::pairs(pairs);
            if let Ok(plan) = allocate_with(model, &merge, config, precision, strategy) {
                evaluated += 1;
                let cost = plan.cost(config, model.lookups_per_table);
                if cost.better_than(&best.cost) {
                    best = SearchOutcome { plan, cost, evaluated };
                }
            }
        });
    }
    best.evaluated = evaluated;
    Ok(best)
}

/// Calls `f` with every perfect matching of `items` (which must have even
/// length).
fn for_each_matching(items: &[usize], f: &mut impl FnMut(&[(usize, usize)])) {
    let mut pairs = Vec::with_capacity(items.len() / 2);
    let mut pool: Vec<usize> = items.to_vec();
    recurse(&mut pool, &mut pairs, f);
}

fn recurse(
    pool: &mut [usize],
    pairs: &mut Vec<(usize, usize)>,
    f: &mut impl FnMut(&[(usize, usize)]),
) {
    if pool.is_empty() {
        f(pairs);
        return;
    }
    // Fix the first element; pair it with each other element in turn.
    let first = pool[0];
    for k in 1..pool.len() {
        let partner = pool[k];
        let mut rest: Vec<usize> =
            pool.iter().copied().filter(|&x| x != first && x != partner).collect();
        pairs.push((first, partner));
        recurse(&mut rest, pairs, f);
        pairs.pop();
    }
}

/// Ratio of heuristic cost to brute-force-optimal cost (≥ 1.0) for latency.
///
/// A value of 1.0 means the heuristic found an equally good solution.
#[must_use]
pub fn optimality_gap(heuristic: &PlanCost, optimal: &PlanCost) -> f64 {
    if optimal.lookup_latency.is_zero() {
        return 1.0;
    }
    heuristic.lookup_latency.as_ns() / optimal.lookup_latency.as_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{heuristic_search, HeuristicOptions};
    use microrec_embedding::TableSpec;

    fn toy_model(rows: &[u64]) -> ModelSpec {
        ModelSpec::new(
            "toy",
            rows.iter().enumerate().map(|(i, &r)| TableSpec::new(format!("t{i}"), r, 4)).collect(),
            vec![16],
            1,
        )
    }

    /// A cramped config: 3 DRAM channels, no on-chip, so merging matters.
    fn cramped() -> MemoryConfig {
        let mut c = MemoryConfig::fpga_without_hbm(3);
        c.banks.retain(|b| b.id.kind.is_dram());
        c
    }

    #[test]
    fn matching_enumeration_counts() {
        let mut count = 0;
        for_each_matching(&[0, 1, 2, 3], &mut |_| count += 1);
        assert_eq!(count, 3, "4 elements have 3 perfect matchings");
        let mut count = 0;
        for_each_matching(&[0, 1, 2, 3, 4, 5], &mut |_| count += 1);
        assert_eq!(count, 15, "6 elements have 15 perfect matchings");
    }

    #[test]
    fn matchings_are_valid_pairings() {
        for_each_matching(&[3, 5, 7, 9], &mut |pairs| {
            let mut flat: Vec<usize> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
            flat.sort_unstable();
            assert_eq!(flat, vec![3, 5, 7, 9]);
        });
    }

    #[test]
    fn brute_force_finds_merging_when_it_helps() {
        // 5 equal tables on 3 channels: unmerged needs 2 rounds; merging one
        // pair (or two) reaches 1 round.
        let model = toy_model(&[100, 100, 100, 100, 100]);
        let out = brute_force_search(&model, &cramped(), Precision::F32, AllocStrategy::RoundRobin)
            .unwrap();
        assert_eq!(out.cost.dram_rounds, 1);
        assert!(out.plan.merge.tables_eliminated() >= 2);
        assert!(out.evaluated > 10);
    }

    #[test]
    fn heuristic_matches_brute_force_on_small_instances() {
        // The paper's near-optimality claim, verified on several instances.
        for rows in [
            &[100u64, 150, 200, 250, 300, 350][..],
            &[10, 20, 5000, 6000, 30][..],
            &[400, 400, 400, 400][..],
            &[100, 100, 100, 100, 100, 100, 100][..],
        ] {
            let model = toy_model(rows);
            let brute =
                brute_force_search(&model, &cramped(), Precision::F32, AllocStrategy::RoundRobin)
                    .unwrap();
            let heur =
                heuristic_search(&model, &cramped(), Precision::F32, &HeuristicOptions::default())
                    .unwrap();
            let gap = optimality_gap(&heur.cost, &brute.cost);
            assert!(
                gap <= 1.25,
                "heuristic {:.1} ns vs optimal {:.1} ns on {rows:?}",
                heur.cost.lookup_latency.as_ns(),
                brute.cost.lookup_latency.as_ns()
            );
            assert!(
                heur.evaluated < brute.evaluated || brute.evaluated <= 2,
                "heuristic must explore far fewer solutions"
            );
        }
    }

    #[test]
    fn brute_force_refuses_large_models() {
        let model = ModelSpec::small_production();
        assert!(matches!(
            brute_force_search(
                &model,
                &MemoryConfig::u280(),
                Precision::F32,
                AllocStrategy::RoundRobin
            ),
            Err(PlacementError::Infeasible(_))
        ));
    }

    #[test]
    fn optimality_gap_math() {
        use microrec_memsim::SimTime;
        let opt = PlanCost {
            lookup_latency: SimTime::from_ns(100.0),
            storage_bytes: 1,
            dram_rounds: 1,
            tables_in_dram: 1,
            tables_on_chip: 0,
        };
        let mut h = opt;
        h.lookup_latency = SimTime::from_ns(110.0);
        assert!((optimality_gap(&h, &opt) - 1.1).abs() < 1e-9);
        assert!((optimality_gap(&opt, &opt) - 1.0).abs() < 1e-9);
    }
}
