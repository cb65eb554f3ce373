//! End-to-end tests for the tiered embedding parameter store: a model
//! bigger than the resident budget serving through [`ServingRuntime`]
//! bit-identically to the all-resident arena with bounded resident
//! memory, per-tier counters in the serving report, and cold-tier fault
//! injection (I/O failures fail only the affected items while the
//! runtime keeps draining).

use microrec_core::{MicroRec, MicroRecBuilder, RuntimeConfig, RuntimeError, ServingRuntime};
use microrec_embedding::{ModelSpec, RowFormat, TableSpec};
use microrec_workload::{QueryGenConfig, RequestTrace};

/// A scaled synthetic model whose embedding bytes comfortably exceed the
/// budgets the tests use: 8 tables × 20 000 rows × dim 16 (≈ 10 MB at
/// f32), 4 lookup rounds.
fn model() -> ModelSpec {
    ModelSpec::new(
        "tiered-e2e",
        (0..8).map(|i| TableSpec::new(format!("t{i}"), 20_000, 16)).collect(),
        vec![64, 32],
        4,
    )
}

/// Encoded embedding bytes of [`model`] in `format`.
fn model_bytes(model: &ModelSpec, format: RowFormat) -> u64 {
    let extra = if format == RowFormat::I8 { 4 } else { 0 };
    model
        .tables
        .iter()
        .map(|t| t.rows * (t.dim as usize * format.bytes_per_elem() + extra) as u64)
        .sum()
}

fn queries(model: &ModelSpec, n: usize) -> Vec<Vec<u64>> {
    RequestTrace::generate(model, 10_000.0, n, QueryGenConfig::default())
        .expect("trace")
        .queries()
        .to_vec()
}

fn tiered_builder(model: &ModelSpec, budget: u64, format: RowFormat) -> MicroRecBuilder {
    MicroRec::builder(model.clone()).seed(7).tiered_storage(budget, format)
}

#[test]
fn bigger_than_budget_model_serves_bit_identical_with_bounded_memory() {
    let model = model();
    let queries = queries(&model, 48);
    for format in [RowFormat::F32, RowFormat::F16, RowFormat::I8] {
        // Reference: the all-resident arena at the same format.
        let mut reference = MicroRec::builder(model.clone())
            .seed(7)
            .embedding_arena(format)
            .build()
            .expect("all-resident engine");
        let expected: Vec<f32> =
            queries.iter().map(|q| reference.predict(q).expect("predict")).collect();

        // Tiered: a quarter of the model resident. Prepare the shared
        // backing first so the budget assertions below inspect the exact
        // store the runtime's workers serve from.
        let budget = model_bytes(&model, format) / 4;
        let mut builder = tiered_builder(&model, budget, format);
        builder.prepare_shared_arena().expect("shared tiered backing");
        let probe = builder.clone().build().expect("tiered engine");
        let backing = probe.tiered_store().expect("tiered store").backing();
        assert!(
            backing.resident_bytes() <= budget,
            "{format}: resident {} bytes must fit the {budget}-byte budget",
            backing.resident_bytes(),
        );
        assert!(
            backing.resident_arena_bytes() <= budget,
            "{format}: allocated arena {} bytes must fit the {budget}-byte budget",
            backing.resident_arena_bytes(),
        );
        assert!(
            backing.num_resident_tables() < model.num_tables(),
            "{format}: the model must not fit the budget entirely"
        );
        assert!(backing.cold_bytes() > 0);
        drop(probe);

        let mut runtime = ServingRuntime::start(
            builder,
            RuntimeConfig { workers: 2, max_batch: 8, ..Default::default() },
        )
        .expect("runtime");
        let pending: Vec<_> =
            queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
        for (i, (p, e)) in pending.into_iter().zip(&expected).enumerate() {
            let got = p.wait().expect("predict");
            assert_eq!(got.to_bits(), e.to_bits(), "{format} query {i} diverged");
        }
        let snapshot = runtime.shutdown();
        assert_eq!(snapshot.completed, queries.len() as u64);
        assert_eq!(snapshot.failed, 0);

        // Per-tier counters surface in the runtime stats.
        let stats = runtime.lookup_stats().expect("tiered runtime exposes lookup stats");
        assert!(stats.tiered);
        assert_eq!(stats.format, format.as_str());
        assert!(stats.resident_hits > 0, "{format}: resident tier must serve rows");
        assert!(stats.cold_reads > 0, "{format}: cold tier must serve rows");
        assert!(stats.bytes_from_cold > 0);
        assert!(stats.cold_tier_healthy(), "{format}: no I/O faults in this test");
        assert!(stats.bytes_from_memory > 0);
    }
}

#[test]
fn cold_tier_io_failure_fails_only_affected_items_and_keeps_draining() {
    let model = model();
    let format = RowFormat::F32;
    let budget = model_bytes(&model, format) / 4;
    // One worker with a large hot-row cache: the warm set stays cached, so
    // after the cold store breaks, warm queries must still succeed while
    // novel (uncached) queries fail individually.
    let mut builder = tiered_builder(&model, budget, format).hot_row_cache(8192);
    builder.prepare_shared_arena().expect("shared tiered backing");
    let probe = builder.clone().build().expect("tiered engine");
    let cold_path = probe
        .tiered_store()
        .expect("tiered store")
        .backing()
        .cold_store_path()
        .expect("cold tier exists")
        .to_path_buf();
    drop(probe);

    let mut runtime = ServingRuntime::start(
        builder,
        RuntimeConfig { workers: 1, max_batch: 4, ..Default::default() },
    )
    .expect("runtime");

    let all = queries(&model, 32);
    let (warm, novel) = all.split_at(16);

    // Warm pass: populates the worker engine's hot-row cache.
    let pending: Vec<_> = warm.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    for p in pending {
        p.wait().expect("warm pass must succeed");
    }

    // Break the cold tier mid-serve: truncate the store file. The open
    // descriptor sees the new length, so every later cold read hits EOF.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&cold_path)
        .expect("open cold store")
        .set_len(0)
        .expect("truncate cold store");

    // Interleave warm (cache-served) and novel (cold-reading) queries in
    // the same batches: the novel ones must fail alone.
    let mut outcomes = Vec::new();
    for (w, n) in warm.iter().zip(novel) {
        outcomes.push((true, runtime.submit(w.clone()).expect("submit")));
        outcomes.push((false, runtime.submit(n.clone()).expect("submit")));
    }
    let mut failed = 0u64;
    for (is_warm, p) in outcomes {
        match p.wait() {
            Ok(_) => assert!(is_warm, "a novel query cannot succeed with a truncated store"),
            Err(RuntimeError::Failed(msg)) => {
                assert!(!is_warm, "a cache-served query must survive the broken cold tier");
                assert!(msg.contains("cold-tier"), "error names the tier: {msg}");
                failed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(failed, novel.len() as u64);

    // The runtime drained everything it admitted and reports the tier as
    // unhealthy — it never wedged on the broken store.
    let snapshot = runtime.shutdown();
    assert_eq!(snapshot.admitted, (warm.len() * 2 + novel.len()) as u64);
    assert_eq!(snapshot.completed + snapshot.failed, snapshot.admitted);
    assert_eq!(snapshot.failed, novel.len() as u64);
    let stats = runtime.lookup_stats().expect("lookup stats");
    assert!(stats.tiered);
    assert!(!stats.cold_tier_healthy(), "cold errors must be visible");
    assert!(stats.cold_errors > 0);
}
