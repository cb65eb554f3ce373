//! End-to-end tests for the micro-batching serving runtime: admission,
//! clean drain, bit-identity with sequential prediction, and per-item
//! failure isolation. The tests that need to decide what a batch holds
//! (reject-policy overflow, size closes under saturation) hold the worker
//! and live beside the runtime, in `src/runtime/mod.rs`.

use microrec_core::{AdmissionPolicy, MicroRec, RuntimeConfig, RuntimeError, ServingRuntime};
use microrec_embedding::ModelSpec;
use microrec_workload::{QueryGenConfig, RequestTrace};

fn model() -> ModelSpec {
    ModelSpec::dlrm_rmc2(4, 4)
}

fn queries(model: &ModelSpec, n: usize) -> Vec<Vec<u64>> {
    RequestTrace::generate(model, 10_000.0, n, QueryGenConfig::default())
        .expect("trace")
        .queries()
        .to_vec()
}

fn start(model: &ModelSpec, config: RuntimeConfig) -> ServingRuntime {
    ServingRuntime::start(MicroRec::builder(model.clone()).seed(7), config).expect("runtime")
}

#[test]
fn drain_on_shutdown_loses_nothing() {
    let model = model();
    let queries = queries(&model, 300);
    let mut runtime =
        start(&model, RuntimeConfig { workers: 2, max_batch: 16, ..Default::default() });
    let pending: Vec<_> =
        queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    let snapshot = runtime.shutdown();
    assert_eq!(snapshot.admitted, 300);
    assert_eq!(snapshot.completed, 300);
    assert_eq!(snapshot.failed, 0);
    assert_eq!(snapshot.rejected, 0);
    for p in pending {
        p.wait().expect("every admitted request must complete");
    }
    assert!(snapshot.mean_latency_us > 0.0);
    assert!(snapshot.latency.p50_us <= snapshot.latency.p999_us);
    assert!(snapshot.latency.p99_us.is_finite() && snapshot.latency.p99_us > 0.0);
}

#[test]
fn batched_results_are_bit_identical_to_sequential() {
    let model = model();
    let queries = queries(&model, 64);
    let mut sequential = MicroRec::builder(model.clone()).seed(7).build().expect("engine");
    let expected: Vec<f32> =
        queries.iter().map(|q| sequential.predict(q).expect("predict")).collect();

    let mut runtime =
        start(&model, RuntimeConfig { workers: 2, max_batch: 8, ..Default::default() });
    let pending: Vec<_> =
        queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    for (p, e) in pending.into_iter().zip(&expected) {
        let got = p.wait().expect("predict");
        assert_eq!(got.to_bits(), e.to_bits(), "batched result diverged from sequential");
    }
    runtime.shutdown();
}

#[test]
fn block_policy_admits_everything_despite_tiny_queue() {
    let model = model();
    let queries = queries(&model, 100);
    let mut runtime = start(
        &model,
        RuntimeConfig {
            workers: 1,
            max_batch: 4,
            queue_depth: 4,
            admission: AdmissionPolicy::Block,
        },
    );
    let pending: Vec<_> = queries
        .iter()
        .map(|q| runtime.submit(q.clone()).expect("blocking admission never rejects"))
        .collect();
    let snapshot = runtime.shutdown();
    assert_eq!(snapshot.admitted, 100);
    assert_eq!(snapshot.completed, 100);
    assert_eq!(snapshot.rejected, 0);
    for p in pending {
        p.wait().expect("predict");
    }
}

#[test]
fn sequential_requests_are_each_served_alone_and_at_once() {
    let model = model();
    let queries = queries(&model, 40);
    let mut runtime = start(&model, RuntimeConfig { workers: 2, ..Default::default() });
    // One request outstanding at a time: whichever worker is free takes
    // it alone, there is never a second one to batch it with.
    for q in &queries {
        runtime.submit(q.clone()).expect("submit").wait().expect("predict");
    }
    let snapshot = runtime.shutdown();
    assert_eq!((snapshot.completed, snapshot.batches, snapshot.ready_closes), (40, 40, 40));
    assert_eq!((snapshot.size_closes, snapshot.drain_closes, snapshot.deadline_closes), (0, 0, 0));
    assert_eq!(snapshot.mean_batch_size, 1.0);
}

#[test]
fn wrong_arity_is_rejected_at_submit() {
    let model = model();
    let runtime = start(&model, RuntimeConfig::default());
    let err = runtime.submit(vec![1, 2, 3]).expect_err("arity mismatch must fail fast");
    match err {
        RuntimeError::BadQuery { expected, actual } => {
            assert_eq!(actual, 3);
            assert!(expected > 0 && expected != 3);
        }
        other => panic!("expected BadQuery, got {other}"),
    }
}

#[test]
fn bad_row_fails_alone_and_batch_mates_survive() {
    use microrec_embedding::{Precision, RowFormat};
    let model = model();
    let queries = queries(&model, 8);
    let mut sequential = MicroRec::builder(model.clone()).seed(7).build().expect("engine");
    let expected: Vec<f32> =
        queries.iter().map(|q| sequential.predict(q).expect("predict")).collect();

    // On every store the runtime serves from: the catalog, the f32 arena,
    // and the tiered store with half its bytes resident (two tables cold).
    let half = model.tables.iter().map(|t| t.bytes(Precision::F32)).sum::<u64>() / 2;
    let builder = MicroRec::builder(model.clone()).seed(7);
    for (store, builder) in [
        ("catalog", builder.clone()),
        ("f32 arena", builder.clone().embedding_arena(RowFormat::F32)),
        ("tiered", builder.tiered_storage(half, RowFormat::F32)),
    ] {
        let config = RuntimeConfig { workers: 1, max_batch: 16, ..Default::default() };
        let mut runtime = ServingRuntime::start(builder, config).expect("runtime");
        // Interleave one poisoned query (out-of-range row) with valid ones:
        // whichever of them share its batch, only it may fail.
        let arity = queries[0].len();
        let mut pending = Vec::new();
        for q in &queries[..4] {
            pending.push((true, runtime.submit(q.clone()).expect("submit")));
        }
        pending.push((false, runtime.submit(vec![u64::MAX; arity]).expect("submit")));
        for q in &queries[4..] {
            pending.push((true, runtime.submit(q.clone()).expect("submit")));
        }
        let snapshot = runtime.shutdown();
        assert_eq!(snapshot.failed, 1, "{store}: exactly the poisoned request fails");
        assert_eq!(snapshot.completed, 8, "{store}");
        if store == "tiered" {
            let tiers = runtime.lookup_stats().expect("the runtime serves through the tiers");
            assert!(tiers.cold_reads > 0, "{store}: no row came from the cold tier");
        }

        let mut good = expected.iter();
        for (valid, p) in pending {
            let result = p.wait();
            if valid {
                let got = result.expect("valid batch-mates must survive");
                assert_eq!(got.to_bits(), good.next().unwrap().to_bits(), "{store}");
            } else {
                match result.expect_err("poisoned request must fail") {
                    RuntimeError::Failed(_) => {}
                    other => panic!("{store}: expected Failed, got {other}"),
                }
            }
        }
    }
}

#[test]
fn submit_after_shutdown_reports_shutting_down() {
    let model = model();
    let queries = queries(&model, 1);
    let mut runtime = start(&model, RuntimeConfig::default());
    runtime.shutdown();
    match runtime.submit(queries[0].clone()) {
        Err(RuntimeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn arena_runtime_is_bit_identical_to_sequential() {
    use microrec_embedding::RowFormat;
    let model = model();
    let queries = queries(&model, 200);
    let mut sequential = MicroRec::builder(model.clone()).seed(7).build().expect("engine");
    let expected: Vec<f32> =
        queries.iter().map(|q| sequential.predict(q).expect("predict")).collect();

    // An f32 arena shared by two workers: bit-identical to the procedural
    // tables by construction.
    let builder = MicroRec::builder(model.clone()).seed(7).embedding_arena(RowFormat::F32);
    let mut runtime = ServingRuntime::start(
        builder,
        RuntimeConfig { workers: 2, max_batch: 8, ..Default::default() },
    )
    .expect("runtime");
    let pending: Vec<_> =
        queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    for (p, e) in pending.into_iter().zip(&expected) {
        let got = p.wait().expect("predict");
        assert_eq!(got.to_bits(), e.to_bits(), "arena runtime diverged from sequential");
    }
    let snapshot = runtime.shutdown();
    assert_eq!(snapshot.completed, queries.len() as u64);
    // Only a tiered runtime has per-tier counters to report.
    assert!(runtime.lookup_stats().is_none());
}
