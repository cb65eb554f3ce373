//! Integration tests asserting the paper's headline results hold in the
//! reproduction — every claim of the abstract and §5, checked end to end
//! across all crates.

use microrec_core::{end_to_end_report, EmbeddingReport, Simulator};
use microrec_cpu::{facebook_rmc2_baseline_lookup, CpuTimingModel};
use microrec_embedding::{ModelSpec, Precision};
use microrec_memsim::MemoryConfig;
use microrec_placement::{heuristic_search, HeuristicOptions};

/// `model` on the simulated U280 at `precision`, with merging allowed or
/// not.
fn simulator(model: &ModelSpec, precision: Precision, allow_merge: bool) -> Simulator {
    let options = HeuristicOptions { allow_merge, ..Default::default() };
    Simulator::build(model, precision, &options).unwrap()
}

/// Abstract: "13.8 ~ 14.7x speedup on embedding lookup alone" (vs the
/// batch-2048 CPU baseline).
#[test]
fn headline_embedding_speedup() {
    let cpu = CpuTimingModel::aws_16vcpu();
    for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
        let merged = simulator(&model, Precision::Fixed16, true);
        let unmerged = simulator(&model, Precision::Fixed16, false);
        let report = EmbeddingReport::build(&merged, &unmerged, &cpu, &[2048]);
        let (_, _, speedup) = report.speedups()[0];
        assert!(
            (10.0..20.0).contains(&speedup),
            "{}: embedding speedup {speedup:.1}x, paper band 13.8-14.7x",
            model.name
        );
    }
}

/// Abstract: "2.5 ~ 5.4x speedup for the entire recommendation inference".
#[test]
fn headline_end_to_end_speedup() {
    for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
        for precision in [Precision::Fixed16, Precision::Fixed32] {
            let report = end_to_end_report(&model, precision, &[2048]).unwrap();
            let speedup = report.speedups()[0];
            assert!(
                (2.0..6.5).contains(&speedup),
                "{} {precision}: end-to-end speedup {speedup:.2}x, paper band 2.5-5.4x",
                model.name
            );
        }
    }
}

/// Abstract / §5.3: "end-to-end latency for a single inference only
/// consumes 16.3 ~ 31.0 microseconds, 3 to 4 orders of magnitude lower
/// than common latency requirements".
#[test]
fn headline_microsecond_latency() {
    let mut latencies = Vec::new();
    for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
        for precision in [Precision::Fixed16, Precision::Fixed32] {
            latencies.push(simulator(&model, precision, true).latency().as_us());
        }
    }
    for lat in &latencies {
        assert!(
            (12.0..36.0).contains(lat),
            "latency {lat:.1} us outside the paper's 16.3-31.0 us band (±tolerance)"
        );
        // 3-4 orders of magnitude below a 10 ms SLA.
        assert!(*lat < 10_000.0 / 300.0);
    }
    // fp16 configurations are the fastest, large fp32 the slowest.
    assert!(latencies[0] < latencies[3]);
}

/// Contribution 1: "high-bandwidth memory to scale up the concurrency of
/// embedding lookups ... 8.2 ~ 11.1x speedup over the CPU baseline" (HBM
/// only, no Cartesian, batch 2048).
#[test]
fn hbm_alone_gives_order_of_magnitude() {
    let cpu = CpuTimingModel::aws_16vcpu();
    for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
        let merged = simulator(&model, Precision::Fixed16, true);
        let unmerged = simulator(&model, Precision::Fixed16, false);
        let report = EmbeddingReport::build(&merged, &unmerged, &cpu, &[2048]);
        let (_, hbm_only, _) = report.speedups()[0];
        assert!(
            (6.0..14.0).contains(&hbm_only),
            "{}: HBM-only speedup {hbm_only:.1}x, paper band 8.2-11.1x",
            model.name
        );
    }
}

/// Contribution 2: "Cartesian Products ... further improves the lookup
/// performance by 1.39~1.69x with marginal storage overhead (1.9~3.2%)".
#[test]
fn cartesian_contribution_bands() {
    let config = MemoryConfig::u280();
    for (model, paper_gain, paper_overhead) in
        [(ModelSpec::small_production(), 1.69, 3.2), (ModelSpec::large_production(), 1.39, 1.9)]
    {
        let base = heuristic_search(
            &model,
            &config,
            Precision::F32,
            &HeuristicOptions { allow_merge: false, ..Default::default() },
        )
        .unwrap();
        let merged =
            heuristic_search(&model, &config, Precision::F32, &HeuristicOptions::default())
                .unwrap();
        let gain = base.cost.lookup_latency.as_ns() / merged.cost.lookup_latency.as_ns();
        assert!(
            (gain - paper_gain).abs() < 0.25,
            "{}: cartesian gain {gain:.2}x vs paper {paper_gain}x",
            model.name
        );
        let overhead =
            (merged.cost.storage_bytes as f64 / model.total_bytes(Precision::F32) as f64 - 1.0)
                * 100.0;
        assert!(
            (overhead - paper_overhead).abs() < 1.5,
            "{}: overhead {overhead:.1}% vs paper {paper_overhead}%",
            model.name
        );
    }
}

/// Table 3's full structure, asserted through the public API end to end.
#[test]
fn table3_structure() {
    let cases = [
        (ModelSpec::small_production(), false, 47, 39, 2),
        (ModelSpec::small_production(), true, 42, 34, 1),
        (ModelSpec::large_production(), false, 98, 82, 3),
        (ModelSpec::large_production(), true, 84, 68, 2),
    ];
    for (model, merge, tables, dram, rounds) in cases {
        let out = heuristic_search(
            &model,
            &MemoryConfig::u280(),
            Precision::F32,
            &HeuristicOptions { allow_merge: merge, ..Default::default() },
        )
        .unwrap();
        assert_eq!(out.plan.num_tables(), tables, "{} merge={merge}", model.name);
        assert_eq!(out.cost.tables_in_dram, dram, "{} merge={merge}", model.name);
        assert_eq!(out.cost.dram_rounds, rounds, "{} merge={merge}", model.name);
    }
}

/// Table 5: the DLRM-RMC2 sweep lands within a few percent of every
/// published cell.
#[test]
fn table5_sweep_matches_paper() {
    let paper = [
        (8usize, 4u32, 334.5, 72.4),
        (8, 8, 353.7, 68.4),
        (8, 16, 411.6, 58.8),
        (8, 32, 486.3, 49.7),
        (8, 64, 648.4, 37.3),
        (12, 4, 648.5, 37.3),
        (12, 8, 707.4, 34.2),
        (12, 16, 817.4, 29.6),
        (12, 32, 972.7, 24.8),
        (12, 64, 1296.9, 18.7),
    ];
    let baseline = facebook_rmc2_baseline_lookup();
    for (tables, dim, paper_ns, paper_speedup) in paper {
        let model = ModelSpec::dlrm_rmc2(tables, dim);
        let out = heuristic_search(
            &model,
            &MemoryConfig::u280(),
            Precision::F32,
            &HeuristicOptions { allow_merge: false, ..Default::default() },
        )
        .unwrap();
        let ns = out.cost.lookup_latency.as_ns();
        let err = (ns - paper_ns).abs() / paper_ns;
        assert!(err < 0.08, "{tables}t dim{dim}: {ns:.1} ns vs paper {paper_ns} ({err:.3})");
        let speedup = baseline.as_ns() / ns;
        assert!(
            (speedup - paper_speedup).abs() / paper_speedup < 0.08,
            "{tables}t dim{dim}: speedup {speedup:.1} vs paper {paper_speedup}"
        );
    }
    // Paper band: "18.7~72.4x embedding lookup speedup".
}

/// §5.4: "the embedding lookups only cost less than 1 microsecond ... the
/// bottleneck shifts back to computation".
#[test]
fn bottleneck_shifts_to_compute() {
    let sim = simulator(&ModelSpec::small_production(), Precision::Fixed16, true);
    assert!(sim.placement_cost().lookup_latency.as_us() < 1.0);
    assert!(sim.pipeline().bottleneck().contains("compute"));
}

/// Figure 7: multi-round robustness — the small model tolerates more
/// rounds than the large one, and fp16 knees exist while extra rounds
/// degrade throughput proportionally afterwards.
#[test]
fn figure7_knees() {
    let knee = |model: ModelSpec| {
        let sim = simulator(&model, Precision::Fixed16, true);
        let pipe = sim.pipeline();
        let base = pipe.throughput_items_per_sec();
        (1..=16)
            .find(|&r| pipe.with_lookup_rounds(r).throughput_items_per_sec() < base * 0.999)
            .unwrap_or(17)
    };
    let small = knee(ModelSpec::small_production());
    let large = knee(ModelSpec::large_production());
    assert!(small > large, "small knee {small} must exceed large knee {large}");
    assert!((5..=9).contains(&small), "paper: small tolerates 6 rounds, got {small}");
    assert!((3..=7).contains(&large), "paper: large tolerates 4 rounds, got {large}");
}

/// Appendix: the FPGA serves a fixed query volume cheaper than the CPU.
#[test]
fn cost_conclusion() {
    use microrec_core::{AwsPrices, CostReport};
    let report =
        end_to_end_report(&ModelSpec::small_production(), Precision::Fixed32, &[2048]).unwrap();
    let cost = CostReport::build(
        report.cpu[0].items_per_sec,
        report.fpga.items_per_sec,
        AwsPrices::default(),
    );
    assert!(cost.advantage() > 1.0);
}
