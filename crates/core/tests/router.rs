//! Multi-path router integration tests: bit-identity across the full
//! path matrix, the SLO guard end to end, and the routed serving runtime.

use microrec_core::{ExecutionMode, MicroRec, PathSet, RuntimeConfig, ServingRuntime};
use microrec_embedding::{ModelSpec, Precision, RowFormat};
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

/// Every path a batch can be routed to must produce bit-identical CTRs
/// to the plain sequential engine, across the precision × cache matrix.
/// Routing must only ever change latency, never the answer.
#[test]
fn every_routable_path_is_bit_identical_to_sequential() {
    let model = model();
    let batch = queries(&model, 24);
    for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
        for cache_rows in [0usize, 2_048] {
            // The cache fronts a row store; an f32 arena reads the same
            // bits as the catalog.
            let plain = MicroRec::builder(model.clone()).precision(precision).seed(7);
            let mut sequential = plain.clone().build().expect("sequential engine");
            let builder = if cache_rows > 0 {
                plain.embedding_arena(RowFormat::F32).hot_row_cache(cache_rows)
            } else {
                plain
            };
            let expected: Vec<f32> =
                batch.iter().map(|q| sequential.predict(q).expect("predict")).collect();

            let mut set = PathSet::build(&builder, 8).expect("path set");
            assert!(set.num_paths() >= 3, "expected the full path matrix");
            for path in 0..set.num_paths() {
                let name = set.descriptor(path).expect("descriptor").name;
                let got = set.predict_batch_on(path, &batch).expect("routed batch");
                assert_eq!(
                    got, expected,
                    "path `{name}` diverged at precision {precision:?}, cache {cache_rows}"
                );
                // Single-item entry point (the runtime's fallback path).
                let one = set.predict_on(path, &batch[0]).expect("routed single");
                assert_eq!(one.to_bits(), expected[0].to_bits(), "path `{name}` single");
            }
            set.shutdown();
        }
    }
}

/// A routed `PathSet` under a generous SLO never engages the guard; the
/// same set under an impossible budget falls back every batch, and the
/// fallback still answers bit-identically.
#[test]
fn slo_guard_regression_on_a_real_path_set() {
    let model = model();
    let batch = queries(&model, 16);
    let builder = MicroRec::builder(model.clone()).seed(7);
    let mut sequential = builder.clone().build().expect("sequential engine");
    let expected: Vec<f32> =
        batch.iter().map(|q| sequential.predict(q).expect("predict")).collect();

    let mut set = PathSet::build(&builder, 8).expect("path set");
    let relaxed = set.route(&batch, Some(10_000_000.0), false);
    assert!(!relaxed.slo_fallback, "a 10 s budget must not trip the guard");

    // Zero remaining budget: the guard must engage and take the
    // measured lowest-latency path.
    let tight = set.route(&batch, Some(0.0), false);
    assert!(tight.slo_fallback, "an exhausted budget must trip the guard");
    let got = set.predict_batch_on(tight.path, &batch).expect("fallback batch");
    assert_eq!(got, expected, "SLO fallback path diverged");
    assert_eq!(set.snapshot().slo_fallbacks, 1);
    set.shutdown();
}

/// The routed serving runtime completes every admitted request with
/// sequential-identical answers and exposes its dispatch accounting.
#[test]
fn routed_runtime_is_lossless_and_reports_dispatches() {
    let model = model();
    let queries = queries(&model, 200);
    let mut sequential = MicroRec::builder(model.clone()).seed(7).build().expect("engine");
    let expected: Vec<f32> =
        queries.iter().map(|q| sequential.predict(q).expect("predict")).collect();

    let mut runtime = ServingRuntime::start(
        MicroRec::builder(model.clone()).seed(7),
        RuntimeConfig {
            workers: 2,
            max_batch: 8,
            execution: ExecutionMode::Routed,
            ..Default::default()
        },
    )
    .expect("runtime");
    let pending: Vec<_> =
        queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    for (p, e) in pending.into_iter().zip(&expected) {
        let got = p.wait().expect("prediction");
        assert_eq!(got.to_bits(), e.to_bits(), "routed result diverged from sequential");
    }
    let router = runtime.router_snapshot().expect("routed mode must expose a snapshot");
    let snapshot = runtime.shutdown();
    assert_eq!(snapshot.completed, 200);
    assert_eq!(snapshot.failed, 0);
    assert!(router.paths.len() >= 3, "full path matrix expected");
    let dispatched: u64 = router.paths.iter().map(|p| p.dispatches).sum();
    let routed_items: u64 = router.paths.iter().map(|p| p.items).sum();
    assert!(dispatched > 0, "no batches were routed");
    assert_eq!(routed_items, 200, "every admitted item must be routed exactly once");
}

/// With an impossible per-request objective every batch overruns its
/// budget, so the runtime's SLO guard must engage — and still answer.
#[test]
fn routed_runtime_with_impossible_slo_counts_fallbacks() {
    let model = model();
    let queries = queries(&model, 120);
    let mut runtime = ServingRuntime::start(
        MicroRec::builder(model.clone()).seed(7),
        RuntimeConfig {
            workers: 1,
            max_batch: 8,
            execution: ExecutionMode::Routed,
            slo_us: 1,
            ..Default::default()
        },
    )
    .expect("runtime");
    let pending: Vec<_> =
        queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    for p in pending {
        p.wait().expect("prediction under SLO pressure");
    }
    let router = runtime.router_snapshot().expect("snapshot");
    let snapshot = runtime.shutdown();
    assert_eq!(snapshot.completed, 120);
    assert!(
        router.slo_fallbacks > 0,
        "a 1 us objective must trip the SLO guard; snapshot: {router:?}"
    );
}
