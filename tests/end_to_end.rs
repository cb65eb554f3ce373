//! Cross-crate functional integration: the MicroRec engine and simulator,
//! the CPU reference, the workload generator, and the serving simulators
//! working together.

use microrec_core::{MicroRec, Simulator};
use microrec_cpu::CpuReferenceEngine;
use microrec_embedding::{ModelSpec, Precision};
use microrec_memsim::{MemoryKind, SimTime};
use microrec_placement::HeuristicOptions;
use microrec_workload::{
    simulate_batched_serving, simulate_pipelined_serving, LatencyStats, PoissonArrivals,
    QueryGenConfig, QueryGenerator,
};

const SEED: u64 = 2024;

/// Generated queries flow through both engines and agree within
/// quantization error — on the *production-scale* small model.
#[test]
fn production_model_functional_equivalence() {
    let model = ModelSpec::small_production();
    let cpu = CpuReferenceEngine::build(&model, SEED).unwrap();
    let mut fpga =
        MicroRec::builder(model.clone()).precision(Precision::Fixed32).seed(SEED).build().unwrap();
    let mut queries = QueryGenerator::new(&model, QueryGenConfig::default()).unwrap();
    for _ in 0..25 {
        let q = queries.next_query();
        let reference = cpu.predict(&q).unwrap();
        let quantized = fpga.predict(&q).unwrap();
        assert!(
            (reference - quantized).abs() < 1e-2,
            "fp32-fixed {quantized} vs reference {reference}"
        );
    }
}

/// Rank order is preserved under quantization: sorting candidates by
/// fixed-point CTR gives (nearly) the same top item as the reference.
#[test]
fn ranking_survives_quantization() {
    let model = ModelSpec::dlrm_rmc2(8, 16);
    let cpu = CpuReferenceEngine::build(&model, SEED).unwrap();
    let mut fpga =
        MicroRec::builder(model.clone()).precision(Precision::Fixed16).seed(SEED).build().unwrap();
    let mut queries = QueryGenerator::new(&model, QueryGenConfig::default()).unwrap();
    let candidates = queries.next_batch(16);

    let mut ref_scores: Vec<(usize, f32)> =
        candidates.iter().enumerate().map(|(i, q)| (i, cpu.predict(q).unwrap())).collect();
    let mut fpga_scores: Vec<(usize, f32)> =
        candidates.iter().enumerate().map(|(i, q)| (i, fpga.predict(q).unwrap())).collect();
    ref_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
    fpga_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
    // The reference's top pick appears in the fixed-16 top 3.
    let ref_top = ref_scores[0].0;
    let fpga_top3: Vec<usize> = fpga_scores.iter().take(3).map(|s| s.0).collect();
    assert!(
        fpga_top3.contains(&ref_top),
        "reference top {ref_top} not in fixed-16 top-3 {fpga_top3:?}"
    );
}

/// The simulator's memory statistics reflect the placement: production
/// model queries, observed, hit HBM, DDR, and on-chip banks in the expected
/// proportions.
#[test]
fn memory_statistics_reflect_placement() {
    let model = ModelSpec::small_production();
    let mut sim =
        Simulator::build(&model, Precision::Fixed16, &HeuristicOptions::default()).unwrap();
    let mut queries = QueryGenerator::new(&model, QueryGenConfig::default()).unwrap();
    let batch = queries.next_batch(10);
    sim.observe(&batch).unwrap();
    let stats = sim.memory().stats();
    // 42 physical tables x 10 queries.
    assert_eq!(stats.total().reads, 420);
    let onchip = stats.by_kind(MemoryKind::Bram);
    assert_eq!(onchip.reads, 80, "8 on-chip tables x 10 queries");
    let hbm = stats.by_kind(MemoryKind::Hbm);
    let ddr = stats.by_kind(MemoryKind::Ddr);
    assert_eq!(hbm.reads + ddr.reads, 340, "34 DRAM tables x 10 queries");
    assert!(ddr.reads >= 10, "the giant tables live on DDR");
}

/// Serving comparison: under identical Poisson load, the pipelined engine
/// meets a 30 ms SLA that the batching CPU engine misses at high batch.
#[test]
fn serving_sla_comparison() {
    let model = ModelSpec::small_production();
    let sim = Simulator::build(&model, Precision::Fixed16, &HeuristicOptions::default()).unwrap();
    let cpu = microrec_cpu::CpuTimingModel::aws_16vcpu();

    let mut arrivals = PoissonArrivals::new(60_000.0, 11).unwrap();
    let stream = arrivals.take(20_000);
    let sla = SimTime::from_ms(30.0);

    let cpu_latencies = simulate_batched_serving(
        &stream,
        2048,
        SimTime::from_ms(15.0),
        cpu.total_time(&model, 2048),
    );
    let fpga_latencies =
        simulate_pipelined_serving(&stream, sim.pipeline().initiation_interval(), sim.latency());
    let cpu_hit = LatencyStats::sla_hit_rate(&cpu_latencies, sla);
    let fpga_hit = LatencyStats::sla_hit_rate(&fpga_latencies, sla);
    assert!(fpga_hit > 0.999, "pipelined SLA hit {fpga_hit}");
    assert!(fpga_hit > cpu_hit, "fpga {fpga_hit} must beat cpu {cpu_hit}");
    let fpga_stats = LatencyStats::from_samples(&fpga_latencies).unwrap();
    assert!(fpga_stats.p99.as_us() < 1_000.0, "p99 {}", fpga_stats.p99);
}

/// The ablation path works end to end: a simulator with merging disabled
/// has strictly worse lookup latency, but its catalog gathers the features
/// the merged one does.
#[test]
fn ablation_engines_agree_functionally() {
    let model = ModelSpec::small_production();
    let merged =
        Simulator::build(&model, Precision::Fixed16, &HeuristicOptions::default()).unwrap();
    let no_merge = HeuristicOptions { allow_merge: false, ..Default::default() };
    let unmerged = Simulator::build(&model, Precision::Fixed16, &no_merge).unwrap();
    assert!(merged.placement_cost().lookup_latency < unmerged.placement_cost().lookup_latency);
    assert!(merged.catalog().physical_tables().len() < unmerged.catalog().physical_tables().len());
    let mut queries = QueryGenerator::new(&model, QueryGenConfig::default()).unwrap();
    for q in queries.next_batch(10) {
        let (want, got) = (merged.catalog().gather_vec(&q), unmerged.catalog().gather_vec(&q));
        assert_eq!(got.unwrap(), want.unwrap());
    }
}

/// Multi-lookup (DLRM) models work across the whole stack, including
/// replica round-robin in the memory path.
#[test]
fn dlrm_multi_lookup_end_to_end() {
    let model = ModelSpec::dlrm_rmc2(8, 8);
    let mut engine =
        MicroRec::builder(model.clone()).precision(Precision::Fixed32).seed(SEED).build().unwrap();
    let mut sim =
        Simulator::build(&model, Precision::Fixed32, &HeuristicOptions::default()).unwrap();
    assert_eq!(sim.placement_cost().dram_rounds, 1, "replication flattens 32 lookups");
    let mut queries = QueryGenerator::new(&model, QueryGenConfig::default()).unwrap();
    let batch = queries.next_batch(5);
    let scores = engine.predict_batch(&batch).unwrap();
    assert_eq!(scores.len(), 5);
    for s in scores {
        assert!(s > 0.0 && s < 1.0);
    }
    sim.observe(&batch).unwrap();
    // 8 tables x 4 lookups x 5 queries.
    assert_eq!(sim.memory().stats().total().reads, 160);
}

/// The umbrella crate re-exports compose.
#[test]
fn facade_reexports() {
    let model = microrec_repro::embedding::ModelSpec::dlrm_rmc2(4, 4);
    let cpu = microrec_repro::cpu::CpuReferenceEngine::build(&model, 1).unwrap();
    let q = vec![0u64; 16];
    let _ = cpu.predict(&q).unwrap();
    let t = microrec_repro::memsim::SimTime::from_us(1.0);
    assert_eq!(t.as_ns(), 1000.0);
}
