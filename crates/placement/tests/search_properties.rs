//! Randomized and integration tests for placement search on generated
//! production-like models (seeded RNG, reproducible).

use microrec_rng::Rng;

use microrec_embedding::{synthetic_model, ModelSpec, Precision, SyntheticModelConfig, TableSpec};
use microrec_memsim::MemoryConfig;
use microrec_placement::{
    brute_force_search, heuristic_search, optimality_gap, AllocStrategy, HeuristicOptions,
};

/// Merging never costs lookup latency: the merged plan of `model` on
/// `config` is valid and no slower, in time and DRAM rounds, than the
/// unmerged one. Returns the number of tables merging eliminated.
fn merged_plan_never_regresses(model: &ModelSpec, config: &MemoryConfig) -> usize {
    let base = heuristic_search(
        model,
        config,
        Precision::F32,
        &HeuristicOptions { allow_merge: false, ..Default::default() },
    )
    .unwrap();
    assert_eq!(base.plan.merge.tables_eliminated(), 0);
    let best = heuristic_search(model, config, Precision::F32, &Default::default()).unwrap();
    best.plan.validate(model, config).unwrap();
    assert!(best.cost.lookup_latency <= base.cost.lookup_latency);
    assert!(best.cost.dram_rounds <= base.cost.dram_rounds);
    best.plan.merge.tables_eliminated()
}

/// The heuristic produces valid, never-regressing plans on random
/// production-like models of 8-60 tables on the U280, and on a model that
/// three DDR channels force to merge.
#[test]
fn heuristic_on_synthetic_models() {
    let mut rng = Rng::seed_from_u64(0x4E02);
    for _ in 0..24 {
        let tables = rng.gen_range_usize(8, 60);
        let seed = rng.next_u64();
        let model = synthetic_model(&SyntheticModelConfig {
            tables,
            target_bytes: 800_000_000,
            seed,
            ..Default::default()
        })
        .unwrap();
        merged_plan_never_regresses(&model, &MemoryConfig::u280());
    }
    let cramped = ModelSpec::new(
        "cramped",
        (0..6).map(|i| TableSpec::new(format!("t{i}"), 100 + i as u64, 4)).collect(),
        vec![64, 32],
        1,
    );
    let mut few_channels = MemoryConfig::fpga_without_hbm(3);
    few_channels.banks.retain(|b| b.id.kind.is_dram());
    assert!(merged_plan_never_regresses(&cramped, &few_channels) > 0, "expected merging");
}

/// The heuristic stays near brute-force optimal across a deterministic
/// sweep of small instances (stronger than the unit test's spot checks).
#[test]
fn heuristic_optimality_sweep() {
    let mut config = MemoryConfig::fpga_without_hbm(3);
    config.banks.retain(|b| b.id.kind.is_dram());
    let mut worst_gap: f64 = 1.0;
    for seed in 0..12u64 {
        let model = synthetic_model(&SyntheticModelConfig {
            name: format!("sweep{seed}"),
            tables: 7,
            target_bytes: 40_000_000,
            hidden: vec![32],
            lookups_per_table: 1,
            seed,
        })
        .unwrap();
        let brute =
            brute_force_search(&model, &config, Precision::F32, AllocStrategy::RoundRobin).unwrap();
        let heur = heuristic_search(&model, &config, Precision::F32, &Default::default()).unwrap();
        let gap = optimality_gap(&heur.cost, &brute.cost);
        worst_gap = worst_gap.max(gap);
        assert!(heur.evaluated * 20 < brute.evaluated.max(100));
    }
    assert!(worst_gap <= 1.35, "heuristic should stay near-optimal, worst gap {worst_gap:.3}");
}

/// LPT never yields a worse makespan than round-robin on identical
/// instances (it optimizes exactly that metric).
#[test]
fn lpt_dominates_round_robin_on_makespan() {
    for seed in 0..8u64 {
        let model = synthetic_model(&SyntheticModelConfig {
            tables: 40,
            target_bytes: 500_000_000,
            seed,
            ..Default::default()
        })
        .unwrap();
        let config = MemoryConfig::u280();
        let rr = heuristic_search(
            &model,
            &config,
            Precision::F32,
            &HeuristicOptions {
                strategy: AllocStrategy::RoundRobin,
                allow_merge: false,
                ..Default::default()
            },
        )
        .unwrap();
        let lpt = heuristic_search(
            &model,
            &config,
            Precision::F32,
            &HeuristicOptions {
                strategy: AllocStrategy::Lpt,
                allow_merge: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            lpt.cost.lookup_latency <= rr.cost.lookup_latency,
            "seed {seed}: lpt {} vs rr {}",
            lpt.cost.lookup_latency,
            rr.cost.lookup_latency
        );
    }
}

/// Multi-way groups place and validate.
#[test]
fn three_way_groups_allocate() {
    let model = synthetic_model(&SyntheticModelConfig {
        tables: 12,
        target_bytes: 20_000_000,
        ..Default::default()
    })
    .unwrap();
    let config = MemoryConfig::u280();
    let out = heuristic_search(
        &model,
        &config,
        Precision::F32,
        &HeuristicOptions { group_size: 3, ..Default::default() },
    )
    .unwrap();
    out.plan.validate(&model, &config).unwrap();
}
