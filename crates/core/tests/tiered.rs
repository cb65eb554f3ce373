//! End-to-end tests for the tiered embedding parameter store: a model
//! bigger than the resident budget serving through [`ServingRuntime`]
//! bit-identically to the all-resident arena with bounded resident
//! memory, per-tier counters in the serving report, and cold-tier fault
//! injection (I/O failures fail only the items that read the broken rows
//! while their batch-mates are served and the runtime keeps draining, and
//! serving resumes when the file is back).

use microrec_core::{MicroRec, MicroRecBuilder, RuntimeConfig, RuntimeError, ServingRuntime};
use microrec_embedding::{ModelSpec, RowFormat, TableSpec, Tier};
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
        assert_eq!(stats.format, format.as_str());
        assert!(stats.resident_hits > 0, "{format}: resident tier must serve rows");
        assert!(stats.cold_reads > 0, "{format}: cold tier must serve rows");
        assert!(stats.bytes_from_cold > 0);
        assert!(stats.cold_tier_healthy(), "{format}: no I/O faults in this test");
    }
}

#[test]
fn cold_tier_io_failure_fails_only_affected_items_and_keeps_draining() {
    let model = model();
    let format = RowFormat::F32;
    let row_bytes = 16 * format.bytes_per_elem() as u64;
    let budget = model_bytes(&model, format) / 4;
    let mut builder = tiered_builder(&model, budget, format);
    builder.prepare_shared_arena().expect("shared tiered backing");
    let mut reference = builder.clone().build().expect("tiered engine");
    let backing = reference.tiered_store().expect("tiered store").backing().clone();
    let cold_path = backing.cold_store_path().expect("cold tier exists").to_path_buf();
    let cold_bytes = std::fs::read(&cold_path).expect("read cold store");
    // The store file holds the cold tables' rows in table order, so its
    // last section is the highest-numbered cold table.
    let last = (0..model.num_tables())
        .rev()
        .find(|&t| backing.tier(t) == Tier::Cold)
        .expect("a cold table");
    drop(backing);

    let all = queries(&model, 32);
    let expected: Vec<f32> = all.iter().map(|q| reference.predict(q).expect("predict")).collect();
    drop(reference);
    let (before, after) = all.split_at(16);

    // Cut the file at row `cut` of the last cold table: a query survives
    // iff every row it reads from that table (one per round) lies below it.
    let max_row = |q: &[u64]| {
        q.chunks_exact(model.num_tables()).map(|round| round[last]).max().expect("a round")
    };
    let mut rows: Vec<u64> = before.iter().map(|q| max_row(q)).collect();
    rows.sort_unstable();
    let cut = rows[rows.len() / 2];
    let (intact, broken): (Vec<usize>, Vec<usize>) =
        (0..before.len()).partition(|&i| max_row(&before[i]) < cut);
    assert!(!intact.is_empty() && !broken.is_empty(), "the cut must split the queries");

    let mut runtime = ServingRuntime::start(
        builder,
        RuntimeConfig { workers: 1, max_batch: 4, ..Default::default() },
    )
    .expect("runtime");

    // Break the cold tier mid-serve: truncate the store file to a whole
    // number of rows. The open descriptor sees the new length, so every
    // later read past it hits EOF.
    let kept = cold_bytes.len() as u64 - (model.tables[last].rows - cut) * row_bytes;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&cold_path)
        .expect("open cold store")
        .set_len(kept)
        .expect("truncate cold store");

    // Interleave the two groups so they share batches: the queries that
    // read past the cut must fail alone.
    let order: Vec<usize> = intact
        .iter()
        .zip(&broken)
        .flat_map(|(&a, &b)| [a, b])
        .chain(intact.iter().skip(broken.len()).copied())
        .chain(broken.iter().skip(intact.len()).copied())
        .collect();
    let pending: Vec<_> =
        order.iter().map(|&i| (i, runtime.submit(before[i].clone()).expect("submit"))).collect();
    for (i, p) in pending {
        match (p.wait(), intact.contains(&i)) {
            (Ok(got), true) => assert_eq!(got.to_bits(), expected[i].to_bits(), "query {i}"),
            (Err(RuntimeError::Failed(msg)), false) => {
                assert!(msg.contains("cold-tier"), "error names the tier: {msg}");
            }
            (other, intact) => panic!("query {i} (reads only kept rows: {intact}): {other:?}"),
        }
    }
    let stats = runtime.lookup_stats().expect("lookup stats");
    assert!(!stats.cold_tier_healthy(), "cold errors must be visible");

    // Put the bytes back: the same runtime, never wedged, serves the next
    // queries with the same bits as before the fault.
    std::fs::write(&cold_path, &cold_bytes).expect("restore cold store");
    let pending: Vec<_> =
        after.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    for (i, (p, e)) in pending.into_iter().zip(&expected[16..]).enumerate() {
        assert_eq!(p.wait().expect("restored tier serves").to_bits(), e.to_bits(), "query {i}");
    }

    let snapshot = runtime.shutdown();
    assert_eq!(snapshot.admitted, all.len() as u64);
    assert_eq!(snapshot.failed, broken.len() as u64);
    assert_eq!(snapshot.completed, (intact.len() + after.len()) as u64);
    assert!(runtime.lookup_stats().expect("lookup stats").cold_errors > 0);
}
