//! Parallel placement search.
//!
//! Algorithm 1's outer loop — one candidate count `n` per iteration — is
//! embarrassingly parallel: each iteration allocates an independent plan.
//! This module fans the iterations out over worker threads with
//! `microrec_par`, which matters when the search runs on big synthetic
//! model families.

use microrec_embedding::{MergePlan, ModelSpec, Precision};
use microrec_memsim::MemoryConfig;

use crate::alloc::allocate_with;
use crate::error::PlacementError;
use crate::heuristic::{HeuristicOptions, SearchOutcome};

/// Parallel variant of [`heuristic_search`](crate::heuristic_search):
/// identical results (the argmin over iterations is order-independent,
/// with the same latency-then-storage-then-smallest-`n` tie-break),
/// computed across `threads` workers.
///
/// # Examples
///
/// ```
/// use microrec_embedding::{ModelSpec, Precision};
/// use microrec_memsim::MemoryConfig;
/// use microrec_placement::{heuristic_search_parallel, HeuristicOptions};
///
/// let outcome = heuristic_search_parallel(
///     &ModelSpec::small_production(),
///     &MemoryConfig::u280(),
///     Precision::F32,
///     &HeuristicOptions::default(),
///     4,
/// )?;
/// assert_eq!(outcome.plan.num_tables(), 42);
/// # Ok::<(), microrec_placement::PlacementError>(())
/// ```
///
/// # Errors
///
/// Returns [`PlacementError::Infeasible`] if not even the unmerged model
/// can be placed.
pub fn heuristic_search_parallel(
    model: &ModelSpec,
    config: &MemoryConfig,
    precision: Precision,
    options: &HeuristicOptions,
    threads: usize,
) -> Result<SearchOutcome, PlacementError> {
    let base_plan = allocate_with(model, &MergePlan::none(), config, precision, options.strategy)?;
    let base_cost = base_plan.cost(config, model.lookups_per_table);
    if !options.allow_merge {
        return Ok(SearchOutcome { plan: base_plan, cost: base_cost, evaluated: 1 });
    }

    // Merge-eligible tables, exactly as the sequential search computes them.
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
    let ns: Vec<usize> = (1..).map(|k| k * g).take_while(|&n| n <= cap).collect();
    let threads = threads.max(1).min(ns.len().max(1));

    // Each worker evaluates a strided subset of candidate counts and
    // returns its local best as (latency, storage, n, plan, evaluated).
    type WorkerBest = (Option<(SearchOutcome, usize)>, usize);
    let chunks: Vec<Vec<usize>> =
        (0..threads).map(|w| ns.iter().copied().skip(w).step_by(threads).collect()).collect();

    let worker = |my_ns: &[usize]| -> Result<WorkerBest, PlacementError> {
        let mut best: Option<(SearchOutcome, usize)> = None;
        let mut evaluated = 0usize;
        for &n in my_ns {
            let candidates = &eligible[..n];
            let groups: Vec<Vec<usize>> = if g == 2 {
                (0..n / 2).map(|k| vec![candidates[k], candidates[n - 1 - k]]).collect()
            } else {
                let k = n / g;
                (0..k).map(|j| (0..g).map(|m| candidates[j + m * k]).collect()).collect()
            };
            let merge = MergePlan { groups };
            match allocate_with(model, &merge, config, precision, options.strategy) {
                Ok(plan) => {
                    evaluated += 1;
                    let cost = plan.cost(config, model.lookups_per_table);
                    let better = match &best {
                        None => true,
                        Some((b, bn)) => {
                            cost.better_than(&b.cost) || (!b.cost.better_than(&cost) && n < *bn)
                        }
                    };
                    if better {
                        best = Some((SearchOutcome { plan, cost, evaluated: 0 }, n));
                    }
                }
                Err(PlacementError::Infeasible(_)) | Err(PlacementError::Embedding(_)) => {
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok((best, evaluated))
    };

    let results: Vec<Result<WorkerBest, PlacementError>> =
        microrec_par::par_map(&chunks, threads, |_, chunk| worker(chunk));

    let mut best = SearchOutcome { plan: base_plan, cost: base_cost, evaluated: 1 };
    let mut best_n = usize::MAX;
    for result in results {
        let (local, evaluated) = result?;
        best.evaluated += evaluated;
        if let Some((outcome, n)) = local {
            if outcome.cost.better_than(&best.cost)
                || (!best.cost.better_than(&outcome.cost) && n < best_n)
            {
                best_n = n;
                best = SearchOutcome {
                    plan: outcome.plan,
                    cost: outcome.cost,
                    evaluated: best.evaluated,
                };
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::heuristic_search;

    #[test]
    fn parallel_matches_sequential_on_production_models() {
        let config = MemoryConfig::u280();
        for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
            let seq =
                heuristic_search(&model, &config, Precision::F32, &HeuristicOptions::default())
                    .unwrap();
            for threads in [1usize, 2, 4, 7] {
                let par = heuristic_search_parallel(
                    &model,
                    &config,
                    Precision::F32,
                    &HeuristicOptions::default(),
                    threads,
                )
                .unwrap();
                assert_eq!(par.plan, seq.plan, "{} threads={threads}", model.name);
                assert_eq!(par.cost, seq.cost);
            }
        }
    }

    #[test]
    fn parallel_respects_no_merge() {
        let model = ModelSpec::small_production();
        let out = heuristic_search_parallel(
            &model,
            &MemoryConfig::u280(),
            Precision::F32,
            &HeuristicOptions { allow_merge: false, ..Default::default() },
            4,
        )
        .unwrap();
        assert_eq!(out.plan.num_tables(), 47);
        assert_eq!(out.evaluated, 1);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let model = ModelSpec::dlrm_rmc2(4, 8);
        let out = heuristic_search_parallel(
            &model,
            &MemoryConfig::u280(),
            Precision::F32,
            &HeuristicOptions::default(),
            64,
        )
        .unwrap();
        out.plan.validate(&model, &MemoryConfig::u280()).unwrap();
    }
}
