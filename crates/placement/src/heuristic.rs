//! Algorithm 1: heuristic-rule-based search for table combination and
//! allocation (§3.4.2).
//!
//! The search iterates over the number `n` of tables selected as Cartesian
//! candidates; for each `n` it applies the paper's rules:
//!
//! * **Rule 1** — only the `n` smallest tables are candidates (products of
//!   large tables would carry heavy storage overhead).
//! * **Rule 2** — products combine *pairs* of tables only.
//! * **Rule 3** — within the candidates, the smallest is paired with the
//!   largest, the second-smallest with the second-largest, and so on.
//! * **Rule 4** — after merging, the smallest tables are cached on chip
//!   (implemented by the allocator in [`crate::alloc`]).
//!
//! One adaptation (footnote 3 of the paper explicitly invites adapting the
//! rules per model): tables small enough to be cached on chip are excluded
//! from candidacy — merging a table that would otherwise be served from
//! free on-chip memory only adds storage.
//!
//! Each iteration costs `O(N)` for pairing plus `O(N log N)` for
//! allocation; with the outer loop the search stays `O(N²)`-ish, versus the
//! factorial brute force of §3.4.1 (see [`crate::brute`]).

use microrec_embedding::{MergePlan, ModelSpec, Precision};
use microrec_memsim::MemoryConfig;

use crate::alloc::{allocate_with, AllocStrategy};
use crate::error::PlacementError;
use crate::plan::{Plan, PlanCost};

/// Options controlling the heuristic search.
#[derive(Debug, Clone)]
pub struct HeuristicOptions {
    /// Upper bound on the number of Cartesian candidates to try
    /// (`None` = up to every merge-eligible table).
    pub max_candidates: Option<usize>,
    /// When `false`, skip merging entirely (the "HBM only" ablation of
    /// Table 4).
    pub allow_merge: bool,
    /// DRAM allocation strategy (rule 4's bank assignment).
    pub strategy: AllocStrategy,
    /// Tables per Cartesian product group. The paper's rule 2 fixes this
    /// at 2; setting 3+ ablates that rule (products of k tables cost
    /// `Π rows × Σ dims` — the ablation bench shows why pairs win).
    pub group_size: usize,
}

impl Default for HeuristicOptions {
    fn default() -> Self {
        HeuristicOptions {
            max_candidates: None,
            allow_merge: true,
            strategy: AllocStrategy::RoundRobin,
            group_size: 2,
        }
    }
}

/// Result of a placement search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best plan found.
    pub plan: Plan,
    /// Its cost.
    pub cost: PlanCost,
    /// Number of candidate solutions evaluated.
    pub evaluated: usize,
}

/// Runs Algorithm 1 for `model` on `config`.
///
/// # Errors
///
/// Returns [`PlacementError::Infeasible`] if not even the unmerged model
/// can be placed.
///
/// # Examples
///
/// ```
/// use microrec_embedding::{ModelSpec, Precision};
/// use microrec_memsim::MemoryConfig;
/// use microrec_placement::{heuristic_search, HeuristicOptions};
///
/// let model = ModelSpec::small_production();
/// let outcome = heuristic_search(
///     &model,
///     &MemoryConfig::u280(),
///     Precision::F32,
///     &HeuristicOptions::default(),
/// )?;
/// // Table 3: 47 logical tables merge down to 42 physical ones.
/// assert_eq!(outcome.plan.num_tables(), 42);
/// # Ok::<(), microrec_placement::PlacementError>(())
/// ```
pub fn heuristic_search(
    model: &ModelSpec,
    config: &MemoryConfig,
    precision: Precision,
    options: &HeuristicOptions,
) -> Result<SearchOutcome, PlacementError> {
    let evaluate = |merge: &MergePlan| -> Result<(Plan, PlanCost), PlacementError> {
        let plan = allocate_with(model, merge, config, precision, options.strategy)?;
        let cost = plan.cost(config, model.lookups_per_table);
        Ok((plan, cost))
    };

    // Baseline: no merging. Must be feasible or the whole search fails.
    let (base_plan, base_cost) = evaluate(&MergePlan::none())?;
    let mut best = SearchOutcome { plan: base_plan.clone(), cost: base_cost, evaluated: 1 };

    if !options.allow_merge {
        return Ok(best);
    }

    // Merge-eligible tables: not cached on chip by the unmerged baseline
    // (our rule-0 adaptation), sorted ascending by size.
    let onchip: Vec<usize> = base_plan
        .placed
        .iter()
        .filter(|t| t.banks[0].kind.is_on_chip())
        .flat_map(|t| t.members.iter().copied())
        .collect();
    let mut eligible: Vec<usize> =
        (0..model.num_tables()).filter(|i| !onchip.contains(i)).collect();
    eligible.sort_by_key(|&i| (model.tables[i].bytes(precision), i));

    let g = options.group_size.max(2);
    let cap = options.max_candidates.unwrap_or(eligible.len()).min(eligible.len());
    let mut evaluated = 1usize;
    let mut n = g;
    while n <= cap {
        // Rule 1: the n smallest eligible tables.
        let candidates = &eligible[..n];
        // Rules 2 & 3: combine smallest with largest. For pairs this is
        // (k, n-1-k); for larger groups, stride through the sorted
        // candidates so every group mixes small and large tables.
        let groups: Vec<Vec<usize>> = if g == 2 {
            (0..n / 2).map(|k| vec![candidates[k], candidates[n - 1 - k]]).collect()
        } else {
            let k = n / g;
            (0..k).map(|j| (0..g).map(|m| candidates[j + m * k]).collect()).collect()
        };
        let merge = MergePlan { groups };
        match evaluate(&merge) {
            Ok((plan, cost)) => {
                evaluated += 1;
                if cost.better_than(&best.cost) {
                    best = SearchOutcome { plan, cost, evaluated };
                }
            }
            Err(PlacementError::Infeasible(_)) | Err(PlacementError::Embedding(_)) => {
                // Products too large for any bank (or row-count overflow):
                // larger n only gets worse — stop expanding.
                break;
            }
            Err(e) => return Err(e),
        }
        n += g;
    }
    best.evaluated = evaluated;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_embedding::TableSpec;

    fn u280() -> MemoryConfig {
        MemoryConfig::u280()
    }

    #[test]
    fn search_beats_or_matches_no_merge_baseline() {
        let model = ModelSpec::small_production();
        let merged =
            heuristic_search(&model, &u280(), Precision::F32, &HeuristicOptions::default())
                .unwrap();
        let unmerged = heuristic_search(
            &model,
            &u280(),
            Precision::F32,
            &HeuristicOptions { allow_merge: false, ..Default::default() },
        )
        .unwrap();
        assert!(merged.cost.lookup_latency <= unmerged.cost.lookup_latency);
        assert!(merged.evaluated > unmerged.evaluated);
    }

    #[test]
    fn small_production_reproduces_table3_structure() {
        let model = ModelSpec::small_production();
        let out = heuristic_search(&model, &u280(), Precision::F32, &HeuristicOptions::default())
            .unwrap();
        out.plan.validate(&model, &u280()).unwrap();
        // Paper Table 3, smaller model: 47 -> 42 tables, 39 -> 34 in DRAM,
        // 2 -> 1 DRAM rounds, ~3.2 % storage overhead.
        assert_eq!(out.plan.num_tables(), 42, "5 pairs merged");
        assert_eq!(out.cost.tables_in_dram, 34);
        assert_eq!(out.cost.tables_on_chip, 8);
        assert_eq!(out.cost.dram_rounds, 1);
        let overhead = out.cost.storage_bytes as f64 / model.total_bytes(Precision::F32) as f64;
        assert!(
            (1.0..1.06).contains(&overhead),
            "storage factor {overhead:.4} should be marginal (paper: 1.032)"
        );
    }

    #[test]
    fn large_production_reproduces_table3_structure() {
        let model = ModelSpec::large_production();
        let out = heuristic_search(&model, &u280(), Precision::F32, &HeuristicOptions::default())
            .unwrap();
        out.plan.validate(&model, &u280()).unwrap();
        // Paper Table 3, larger model: 98 -> 84 tables, 82 -> 68 in DRAM,
        // 3 -> 2 DRAM rounds, ~1.9 % storage overhead.
        assert_eq!(out.plan.num_tables(), 84, "14 pairs merged");
        assert_eq!(out.cost.tables_in_dram, 68);
        assert_eq!(out.cost.tables_on_chip, 16);
        assert_eq!(out.cost.dram_rounds, 2);
        let overhead = out.cost.storage_bytes as f64 / model.total_bytes(Precision::F32) as f64;
        assert!(
            (1.0..1.05).contains(&overhead),
            "storage factor {overhead:.4} should be marginal (paper: 1.019)"
        );
    }

    #[test]
    fn no_merge_baselines_match_table3() {
        for (model, dram, rounds, onchip) in
            [(ModelSpec::small_production(), 39, 2, 8), (ModelSpec::large_production(), 82, 3, 16)]
        {
            let out = heuristic_search(
                &model,
                &u280(),
                Precision::F32,
                &HeuristicOptions { allow_merge: false, ..Default::default() },
            )
            .unwrap();
            assert_eq!(out.cost.tables_in_dram, dram, "{}", model.name);
            assert_eq!(out.cost.dram_rounds, rounds, "{}", model.name);
            assert_eq!(out.cost.tables_on_chip, onchip, "{}", model.name);
        }
    }

    #[test]
    fn max_candidates_caps_merging() {
        let model = ModelSpec::small_production();
        let out = heuristic_search(
            &model,
            &u280(),
            Precision::F32,
            &HeuristicOptions { max_candidates: Some(4), ..Default::default() },
        )
        .unwrap();
        // At most 2 pairs can merge.
        assert!(out.plan.num_tables() >= 45);
    }

    #[test]
    fn generalizes_to_fpga_without_hbm() {
        // §3.4.2: "the algorithm can be generalized to any FPGAs, no matter
        // whether they are equipped with HBM".
        let model = ModelSpec::new(
            "ddr-toy",
            (0..6).map(|i| TableSpec::new(format!("t{i}"), 1000 + 100 * i, 8)).collect(),
            vec![16],
            1,
        );
        let config = MemoryConfig::fpga_without_hbm(2);
        let out = heuristic_search(&model, &config, Precision::F32, &HeuristicOptions::default())
            .unwrap();
        out.plan.validate(&model, &config).unwrap();
        // 6 tables on 2 channels: merging pairs cuts rounds from 3 to 2.
        assert!(out.cost.dram_rounds <= 2);
    }
}
