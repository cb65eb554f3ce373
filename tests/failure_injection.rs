//! Failure-injection tests: every layer must fail loudly and cleanly —
//! typed errors with informative messages, no panics, no corrupted state —
//! when fed impossible configurations.

use std::error::Error as _;

use microrec_core::{MicroRec, Simulator};
use microrec_embedding::{MergePlan, ModelSpec, Precision, TableSpec};
use microrec_memsim::{BankId, HybridMemory, MemoryConfig, MemoryKind, ReadRequest};
use microrec_placement::{allocate, heuristic_search, HeuristicOptions, PlacementError};

fn model_with(tables: Vec<TableSpec>) -> ModelSpec {
    ModelSpec::new("inject", tables, vec![16], 1)
}

#[test]
fn table_larger_than_every_bank() {
    // 64 GB table > 16 GB DDR channel.
    let model = model_with(vec![TableSpec::new("leviathan", 250_000_000, 64)]);
    let err = heuristic_search(
        &model,
        &MemoryConfig::u280(),
        Precision::F32,
        &HeuristicOptions::default(),
    )
    .unwrap_err();
    match err {
        PlacementError::Infeasible(msg) => {
            assert!(msg.contains("leviathan"), "message should name the table: {msg}")
        }
        other => panic!("expected Infeasible, got {other}"),
    }
}

#[test]
fn capacity_exhaustion_is_detected_not_overpacked() {
    // 300 tables x 200 MB = 60 GB > the U280's 40 GB of DRAM.
    let tables: Vec<TableSpec> =
        (0..300).map(|i| TableSpec::new(format!("t{i}"), 1_600_000, 32)).collect();
    let model = model_with(tables);
    assert!(matches!(
        allocate(&model, &MergePlan::none(), &MemoryConfig::u280(), Precision::F32),
        Err(PlacementError::Infeasible(_))
    ));
}

#[test]
fn memory_without_dram_is_rejected() {
    let mut config = MemoryConfig::u280();
    config.banks.retain(|b| b.id.kind.is_on_chip());
    let model = model_with(vec![TableSpec::new("t", 100, 4)]);
    let err = allocate(&model, &MergePlan::none(), &config, Precision::F32).unwrap_err();
    assert!(err.to_string().contains("no DRAM banks"));
}

#[test]
fn merge_plan_overflow_is_an_error_not_a_wrap() {
    // Product of two huge tables overflows u64 rows.
    let model = model_with(vec![
        TableSpec::new("a", u64::MAX / 2, 4),
        TableSpec::new("b", u64::MAX / 2, 4),
    ]);
    let err = allocate(&model, &MergePlan::pairs(&[(0, 1)]), &MemoryConfig::u280(), Precision::F32)
        .unwrap_err();
    assert!(err.to_string().contains("overflow"), "{err}");
    assert!(err.source().is_some(), "wrapped embedding error");
}

#[test]
fn engine_build_failure_reports_cause_chain() {
    let model = model_with(vec![TableSpec::new("leviathan", 250_000_000, 64)]);
    let options = HeuristicOptions::default();
    let err = Simulator::build(&model, Precision::Fixed16, &options).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("placement"), "{text}");
    let mut depth = 0;
    let mut source: Option<&dyn std::error::Error> = err.source();
    while let Some(s) = source {
        depth += 1;
        source = s.source();
    }
    assert!(depth >= 1, "error chain should have a cause");
}

#[test]
fn memory_state_survives_rejected_batches() {
    let mut mem = HybridMemory::new(MemoryConfig::u280());
    let good = BankId::new(MemoryKind::Hbm, 0);
    let bogus = BankId::new(MemoryKind::Hbm, 200);
    mem.parallel_read(&[ReadRequest::new(good, 64)]).unwrap();
    let before = mem.stats().total();
    for _ in 0..5 {
        assert!(mem
            .parallel_read(&[ReadRequest::new(good, 64), ReadRequest::new(bogus, 64)])
            .is_err());
    }
    assert_eq!(mem.stats().total(), before, "failed batches must not record");
    // The device still works afterwards.
    mem.parallel_read(&[ReadRequest::new(good, 64)]).unwrap();
    assert_eq!(mem.stats().total().reads, before.reads + 1);
}

#[test]
fn engine_survives_malformed_queries_interleaved_with_good_ones() {
    let model = ModelSpec::dlrm_rmc2(4, 4);
    let mut engine = MicroRec::builder(model).seed(1).build().unwrap();
    let good = vec![5u64; 16];
    let expected = engine.predict(&good).unwrap();
    for bad in [vec![0u64; 3], vec![u64::MAX; 16], Vec::new()] {
        assert!(engine.predict(&bad).is_err());
        assert_eq!(
            engine.predict(&good).unwrap(),
            expected,
            "a rejected query must not perturb the engine"
        );
    }
}

#[test]
fn zero_size_models_are_rejected_everywhere() {
    let empty = ModelSpec::new("empty", vec![], vec![16], 1);
    assert!(empty.validate().is_err() || empty.num_tables() == 0);
    // The builder validates the model.
    let zero_rows = model_with(vec![TableSpec::new("z", 0, 4)]);
    assert!(MicroRec::builder(zero_rows).build().is_err());
    let zero_dim = model_with(vec![TableSpec::new("z", 4, 0)]);
    assert!(MicroRec::builder(zero_dim).build().is_err());
}

#[test]
fn nan_resilience_in_quantization() {
    use microrec_dnn::{Q16, Q32};
    assert_eq!(Q16::from_f32(f32::NAN).to_f32(), 0.0);
    assert_eq!(Q32::from_f32(f32::NAN).to_f32(), 0.0);
    assert_eq!(Q16::from_f32(f32::INFINITY), Q16::MAX);
    assert_eq!(Q16::from_f32(f32::NEG_INFINITY), Q16::MIN);
}

#[test]
fn error_messages_are_lowercase_and_specific() {
    // The API-guideline style check, applied to real failures.
    let model = model_with(vec![TableSpec::new("t", 100, 4), TableSpec::new("t", 50, 4)]);
    let err = model.validate().unwrap_err().to_string();
    assert!(err.starts_with(char::is_lowercase), "{err}");
    assert!(err.contains("duplicate"), "{err}");
}
