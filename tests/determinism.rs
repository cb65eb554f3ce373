//! Determinism guarantees: everything seeded is bit-reproducible across
//! runs, across equivalent code paths, and independent of accumulated
//! simulator state.

use microrec_core::{MicroRec, Simulator};
use microrec_embedding::{Catalog, MergePlan, ModelSpec, Precision};
use microrec_memsim::MemoryConfig;
use microrec_placement::{heuristic_search, HeuristicOptions};
use microrec_workload::{QueryGenConfig, QueryGenerator, RequestTrace};

const SEED: u64 = 0xD37E_2026;

#[test]
fn placement_is_deterministic() {
    let model = ModelSpec::large_production();
    let config = MemoryConfig::u280();
    let a =
        heuristic_search(&model, &config, Precision::F32, &HeuristicOptions::default()).unwrap();
    let b =
        heuristic_search(&model, &config, Precision::F32, &HeuristicOptions::default()).unwrap();
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.cost, b.cost);
}

#[test]
fn engine_predictions_are_run_independent() {
    let model = ModelSpec::dlrm_rmc2(6, 8);
    let queries = QueryGenerator::new(&model, QueryGenConfig { zipf_exponent: 1.0, seed: SEED })
        .unwrap()
        .next_batch(20);

    let run = || {
        let mut engine = MicroRec::builder(model.clone())
            .precision(Precision::Fixed16)
            .seed(SEED)
            .build()
            .unwrap();
        engine.predict_batch(&queries).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn predictions_do_not_depend_on_history() {
    // The simulated memory accumulates statistics and row-buffer state
    // from the reads it observes, but functional answers must be pure.
    let model = ModelSpec::dlrm_rmc2(4, 8);
    let mut engine = MicroRec::builder(model.clone()).seed(SEED).build().unwrap();
    let options = HeuristicOptions::default();
    let mut sim = Simulator::build(&model, Precision::Fixed16, &options).unwrap();
    let q1 = vec![7u64; 16];
    let q2 = vec![123u64; 16];
    let fresh = engine.predict(&q1).unwrap();
    for _ in 0..50 {
        engine.predict(&q2).unwrap();
        sim.observe(std::slice::from_ref(&q2)).unwrap();
    }
    assert_eq!(engine.predict(&q1).unwrap(), fresh);
}

#[test]
fn catalog_contents_depend_only_on_seed_and_structure() {
    let model = ModelSpec::small_production();
    let plain = Catalog::build(&model, &MergePlan::none(), SEED).unwrap();
    let merged = Catalog::build(&model, &MergePlan::pairs(&[(29, 38)]), SEED).unwrap();
    let indices: Vec<u64> = model.tables.iter().map(|t| t.rows - 1).collect();
    assert_eq!(plain.gather_vec(&indices).unwrap(), merged.gather_vec(&indices).unwrap());
    // A different seed changes contents.
    let other = Catalog::build(&model, &MergePlan::none(), SEED + 1).unwrap();
    assert_ne!(plain.gather_vec(&indices).unwrap(), other.gather_vec(&indices).unwrap());
}

#[test]
fn traces_replay_identically_through_the_engine() {
    let model = ModelSpec::dlrm_rmc2(4, 4);
    let trace = RequestTrace::generate(&model, 10_000.0, 50, QueryGenConfig::default()).unwrap();
    let mut engine = MicroRec::builder(model.clone()).seed(SEED).build().unwrap();
    let first: Vec<f32> = trace.queries().iter().map(|q| engine.predict(q).unwrap()).collect();
    engine.reset_stats();
    let second: Vec<f32> = trace.queries().iter().map(|q| engine.predict(q).unwrap()).collect();
    assert_eq!(first, second);
}

#[test]
fn timing_model_is_pure() {
    use microrec_cpu::CpuTimingModel;
    let cpu = CpuTimingModel::aws_16vcpu();
    let model = ModelSpec::small_production();
    for batch in [1u64, 64, 2048] {
        assert_eq!(cpu.total_time(&model, batch), cpu.total_time(&model, batch));
    }
}
