//! End-to-end tests of the DLRM-style bottom-MLP model family (Figure 1's
//! dense branch — Facebook's variant, which the paper's own production
//! models omit but its benchmark comparisons reference).

use microrec_core::{MicroRec, Simulator};
use microrec_cpu::CpuReferenceEngine;
use microrec_embedding::{synthetic_dense_features, ModelSpec, Precision};
use microrec_placement::HeuristicOptions;
use microrec_workload::{QueryGenConfig, QueryGenerator};

#[test]
fn spec_shape_accounting() {
    let model = ModelSpec::dlrm_with_bottom(8, 16);
    model.validate().unwrap();
    assert!(model.has_bottom_mlp());
    assert_eq!(model.dense_output_dim(), 64);
    // 8 tables x dim 16 x 4 lookups + bottom output 64.
    assert_eq!(model.feature_len(), 8 * 16 * 4 + 64);
    // Bottom MLP flops are counted.
    let plain = ModelSpec::dlrm_rmc2(8, 16);
    assert!(model.flops_per_item() > plain.flops_per_item());
}

#[test]
fn validation_rejects_bottom_without_dense() {
    let mut model = ModelSpec::dlrm_with_bottom(4, 8);
    model.dense_dim = 0;
    assert!(model.validate().is_err());
}

#[test]
fn dense_features_are_deterministic_and_query_sensitive() {
    let q1 = vec![1u64, 2, 3];
    let q2 = vec![1u64, 2, 4];
    assert_eq!(synthetic_dense_features(&q1, 13), synthetic_dense_features(&q1, 13));
    assert_ne!(synthetic_dense_features(&q1, 13), synthetic_dense_features(&q2, 13));
    assert_eq!(synthetic_dense_features(&q1, 13).len(), 13);
    for v in synthetic_dense_features(&q1, 13) {
        assert!((-1.0..1.0).contains(&v));
    }
}

#[test]
fn engines_agree_with_bottom_mlp() {
    let model = ModelSpec::dlrm_with_bottom(6, 8);
    let cpu = CpuReferenceEngine::build(&model, 77).unwrap();
    let mut fpga =
        MicroRec::builder(model.clone()).precision(Precision::Fixed32).seed(77).build().unwrap();
    let mut gen = QueryGenerator::new(&model, QueryGenConfig::default()).unwrap();
    for q in gen.next_batch(15) {
        let reference = cpu.predict(&q).unwrap();
        let quantized = fpga.predict(&q).unwrap();
        assert!(
            (reference - quantized).abs() < 2e-2,
            "bottom-MLP engines disagree: {quantized} vs {reference}"
        );
    }
}

#[test]
fn bottom_stage_appears_in_pipeline_without_hurting_throughput() {
    let model = ModelSpec::dlrm_with_bottom(8, 16);
    let options = HeuristicOptions::default();
    let sim = Simulator::build(&model, Precision::Fixed16, &options).unwrap();
    let names: Vec<&str> = sim.pipeline().stages().iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"bottom.compute"), "{names:?}");
    // The (512,256,64) bottom stack over 13 features is tiny next to the
    // top MLP: it must not become the initiation interval.
    assert!(sim.pipeline().bottleneck() != "bottom.compute");

    let plain =
        Simulator::build(&ModelSpec::dlrm_rmc2(8, 16), Precision::Fixed16, &options).unwrap();
    assert!(sim.latency() > plain.latency(), "bottom stage adds latency");
}

#[test]
fn dense_path_changes_predictions() {
    // Two queries with identical sparse rows except one index must differ
    // through the dense path as well (dense features derive from the whole
    // query).
    let model = ModelSpec::dlrm_with_bottom(4, 8);
    let cpu = CpuReferenceEngine::build(&model, 5).unwrap();
    let q1 = vec![10u64; 16];
    let mut q2 = q1.clone();
    q2[15] = 11;
    assert_ne!(cpu.predict(&q1).unwrap(), cpu.predict(&q2).unwrap());
}

#[test]
fn predict_batch_is_bit_identical_to_predict_with_a_dense_branch() {
    // The batch path packs the bottom MLP and runs it once per batch; the
    // reference `predict` runs `Mlp::forward` per item. Also a dense branch
    // without a bottom MLP, whose raw features go straight to the top MLP.
    let with_bottom = ModelSpec::dlrm_with_bottom(6, 8);
    let mut raw_dense = with_bottom.clone();
    raw_dense.bottom_hidden.clear();
    for model in [with_bottom, raw_dense] {
        let mut gen = QueryGenerator::new(&model, QueryGenConfig::default()).unwrap();
        let queries = gen.next_batch(33);
        for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
            let mut engine =
                MicroRec::builder(model.clone()).precision(precision).seed(77).build().unwrap();
            let want: Vec<u32> =
                queries.iter().map(|q| engine.predict(q).unwrap().to_bits()).collect();
            for batch in [1usize, 17, 33] {
                let got = engine.predict_batch(&queries[..batch]).unwrap();
                let got: Vec<u32> = got.iter().map(|c| c.to_bits()).collect();
                assert_eq!(got, want[..batch], "{} {precision:?} batch {batch}", model.name);
            }
        }
    }
}
