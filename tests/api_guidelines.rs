//! API-guideline compliance checks that are assertable in code:
//! `Send`/`Sync` on public types (C-SEND-SYNC), `Error + Send + Sync +
//! 'static` on every error type (C-GOOD-ERR), and `Debug` everywhere
//! (C-DEBUG).

use std::error::Error;
use std::fmt::Debug;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: Error + Send + Sync + 'static>() {}
fn assert_debug<T: Debug>() {}

#[test]
fn public_types_are_send_sync() {
    assert_send_sync::<microrec_memsim::HybridMemory>();
    assert_send_sync::<microrec_memsim::MemoryConfig>();
    assert_send_sync::<microrec_embedding::EmbeddingTable>();
    assert_send_sync::<microrec_embedding::Catalog>();
    assert_send_sync::<microrec_embedding::ModelSpec>();
    assert_send_sync::<microrec_placement::Plan>();
    assert_send_sync::<microrec_dnn::Mlp>();
    assert_send_sync::<microrec_accel::Pipeline>();
    assert_send_sync::<microrec_accel::FlowSim>();
    assert_send_sync::<microrec_cpu::CpuReferenceEngine>();
    assert_send_sync::<microrec_cpu::CpuTimingModel>();
    assert_send_sync::<microrec_workload::RequestTrace>();
    assert_send_sync::<microrec_core::MicroRec>();
}

#[test]
fn error_types_are_well_behaved() {
    assert_error::<microrec_memsim::MemsimError>();
    assert_error::<microrec_embedding::EmbeddingError>();
    assert_error::<microrec_placement::PlacementError>();
    assert_error::<microrec_dnn::DnnError>();
    assert_error::<microrec_accel::AccelError>();
    assert_error::<microrec_cpu::CpuError>();
    assert_error::<microrec_workload::WorkloadError>();
    assert_error::<microrec_core::MicroRecError>();
}

#[test]
fn key_types_implement_debug() {
    assert_debug::<microrec_memsim::SimTime>();
    assert_debug::<microrec_memsim::BankId>();
    assert_debug::<microrec_placement::PlanCost>();
    assert_debug::<microrec_accel::AccelConfig>();
    assert_debug::<microrec_core::MicroRecBuilder>();
    assert_debug::<microrec_workload::LatencyStats>();
}

#[test]
fn error_displays_are_lowercase_without_trailing_punctuation() {
    let samples: Vec<Box<dyn Error>> = vec![
        Box::new(microrec_embedding::EmbeddingError::DegenerateProduct),
        Box::new(microrec_dnn::DnnError::EmptyNetwork),
        Box::new(microrec_workload::WorkloadError::NoSamples),
        Box::new(microrec_memsim::MemsimError::UnknownBank(microrec_memsim::BankId::new(
            microrec_memsim::MemoryKind::Hbm,
            0,
        ))),
    ];
    for e in samples {
        let msg = e.to_string();
        assert!(msg.starts_with(char::is_lowercase), "error messages start lowercase: {msg}");
        assert!(!msg.ends_with('.'), "no trailing period: {msg}");
    }
}
