//! End-to-end tests for the staged dataflow pipeline: bit-identity with
//! the monolithic predict path across every precision × arena-format ×
//! cache combination (including hand-built multi-lane topologies), clean
//! shutdown drain through the serving runtime, per-lane cache-counter
//! accounting, and stage-failure containment.

use microrec_core::{
    ExecutionMode, MicroRec, MicroRecBuilder, PipelineConfig, PipelineExecutor, PipelinePlan,
    RuntimeConfig, ServingRuntime,
};
use microrec_embedding::{ModelSpec, Precision, RowFormat, TableSpec};

fn small_model() -> ModelSpec {
    ModelSpec::new(
        "small",
        (0..6).map(|i| TableSpec::new(format!("t{i}"), 2000, 8)).collect(),
        vec![64, 32],
        4,
    )
}

fn small_builder(precision: Precision) -> MicroRecBuilder {
    MicroRec::builder(small_model()).precision(precision).seed(29)
}

fn small_queries(n: usize) -> Vec<Vec<u64>> {
    (0..n).map(|i| (0..24).map(|j| ((i * 7919 + j * 104_729) % 2000) as u64).collect()).collect()
}

/// A storage/caching variant applied to a builder.
type Variant = (&'static str, fn(MicroRecBuilder) -> MicroRecBuilder);

/// Every storage/caching variant of the engine.
fn variants() -> Vec<Variant> {
    vec![
        ("legacy tables", |b| b),
        ("f32 arena", |b| b.embedding_arena(RowFormat::F32)),
        ("f16 arena", |b| b.embedding_arena(RowFormat::F16)),
        ("i8 arena", |b| b.embedding_arena(RowFormat::I8)),
        ("f32 arena + cache", |b| b.embedding_arena(RowFormat::F32).hot_row_cache(128)),
        ("f16 arena + cache", |b| b.embedding_arena(RowFormat::F16).hot_row_cache(128)),
        ("i8 arena + cache", |b| b.embedding_arena(RowFormat::I8).hot_row_cache(128)),
    ]
}

#[test]
fn pipelined_is_bit_identical_to_monolithic_everywhere() {
    let queries = small_queries(40);
    for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
        for (label, configure) in variants() {
            let mut mono = configure(small_builder(precision)).build().unwrap();
            let pipe_engine = configure(small_builder(precision)).build().unwrap();
            let mut exec = PipelineExecutor::new(pipe_engine, PipelineConfig::default()).unwrap();
            for (i, q) in queries.iter().enumerate() {
                let want = mono.predict(q).unwrap();
                let got = exec.predict(q).unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{precision:?} / {label}: query {i} diverged"
                );
            }
        }
    }
}

#[test]
fn pipelined_batch_matches_monolithic_batch() {
    let queries = small_queries(64);
    for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
        let mut mono = small_builder(precision).build().unwrap();
        let pipe_engine = small_builder(precision).build().unwrap();
        let mut exec = PipelineExecutor::new(pipe_engine, PipelineConfig::default()).unwrap();
        let want = mono.predict_batch(&queries).unwrap();
        let got = exec.predict_batch(&queries).unwrap();
        assert_eq!(want.len(), got.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{precision:?}: batch item {i} diverged");
        }
    }
}

#[test]
fn pipelined_runtime_drains_cleanly_and_reports_stages() {
    let queries = small_queries(300);
    let mut mono = small_builder(Precision::Fixed16).build().unwrap();
    let expected: Vec<f32> = queries.iter().map(|q| mono.predict(q).unwrap()).collect();

    let config = RuntimeConfig {
        workers: 1,
        max_batch: 16,
        execution: ExecutionMode::Pipelined,
        ..RuntimeConfig::default()
    };
    let mut runtime = ServingRuntime::start(small_builder(Precision::Fixed16), config).unwrap();
    let pending: Vec<_> =
        queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    let snapshot = runtime.shutdown();

    assert_eq!(snapshot.admitted, 300);
    assert_eq!(snapshot.completed, 300);
    assert_eq!(snapshot.failed, 0);
    for (p, e) in pending.into_iter().zip(&expected) {
        let got = p.wait().expect("every admitted request completes");
        assert_eq!(got.to_bits(), e.to_bits(), "pipelined runtime diverged from monolithic");
    }

    // The snapshot surfaces the per-stage dataflow counters: 3 MLP layers
    // (2 hidden + output head) → 5 stages, each having seen all 300 jobs.
    let stages = snapshot.stages.expect("pipelined runtime publishes stage counters");
    assert_eq!(stages.len(), 5);
    assert_eq!(stages[0].name, "lookup");
    assert_eq!(stages.last().unwrap().name, "sink");
    for stage in &stages {
        assert_eq!(stage.items, 300, "stage {} lost jobs", stage.name);
        assert!(stage.mean_occupancy() >= 1.0, "occupancy counts the popped job itself");
    }
}

#[test]
fn pipelined_runtime_publishes_cache_counters_at_drain() {
    let config = RuntimeConfig {
        workers: 1,
        max_batch: 8,
        execution: ExecutionMode::Pipelined,
        ..RuntimeConfig::default()
    };
    let builder =
        small_builder(Precision::Fixed16).embedding_arena(RowFormat::F16).hot_row_cache(256);
    let mut runtime = ServingRuntime::start(builder, config).unwrap();
    // Repeat the same few queries so the hot-row cache must hit.
    let queries = small_queries(8);
    let pending: Vec<_> = (0..10)
        .flat_map(|_| queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")))
        .collect();
    for p in pending {
        p.wait().expect("predict");
    }
    runtime.shutdown();
    let stats = runtime.lookup_stats().expect("cache-enabled runtime exposes lookup stats");
    assert_eq!(stats.format, "f16");
    assert!(stats.hits > 0, "repeated queries must hit the cache");
    assert!(stats.bytes_from_memory > 0);
}

#[test]
fn malformed_queries_fail_alone_in_pipelined_runtime() {
    let config = RuntimeConfig {
        workers: 1,
        max_batch: 8,
        execution: ExecutionMode::Pipelined,
        ..RuntimeConfig::default()
    };
    let mut runtime = ServingRuntime::start(small_builder(Precision::Fixed16), config).unwrap();
    let queries = small_queries(16);
    let mut pending = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let mut q = q.clone();
        if i % 4 == 0 {
            // Out-of-range row index: correct arity (admitted), fails in
            // the lookup stage.
            q[0] = u64::MAX;
        }
        pending.push((i, runtime.submit(q).expect("arity is fine, so admission succeeds")));
    }
    let snapshot = runtime.shutdown();
    for (i, p) in pending {
        let result = p.wait();
        if i % 4 == 0 {
            assert!(result.is_err(), "query {i} carries an out-of-range row");
        } else {
            assert!(result.is_ok(), "query {i} is well-formed");
        }
    }
    assert_eq!(snapshot.failed, 4);
    assert_eq!(snapshot.completed, 12);
}

#[test]
fn poisoned_stage_fails_items_without_wedging() {
    let engine = small_builder(Precision::Fixed16).build().unwrap();
    let mut exec = PipelineExecutor::new(engine, PipelineConfig::default()).unwrap();
    let q = small_queries(1).remove(0);
    assert!(exec.predict(&q).is_ok());
    assert!(exec.is_healthy());

    // Poison the middle fc stage: the next job panics its thread. The
    // guard closes the stage's rings, the close cascades, and the predict
    // returns an error instead of hanging.
    exec.poison_stage(2);
    assert!(exec.predict(&q).is_err(), "job through a dead stage must fail");
    assert!(!exec.is_healthy(), "executor reports the poisoning");

    // Every later call fails fast, still without wedging.
    assert!(exec.predict(&q).is_err());
    assert!(exec.predict_batch(&[q.clone(), q]).is_err());
    assert!(exec.shutdown().is_some(), "lookup stage survived and returns its engine");
}

/// A lane topology for the 3-layer small model: `lanes` lookup lanes and
/// `lanes` lanes on the first fc stage, so the mesh fans out and back in
/// on both sides of a join.
fn replicated_plan(lanes: usize) -> PipelinePlan {
    let mut plan = PipelinePlan::per_layer(3, PipelineConfig::default().fifo_depth);
    plan.lookup_lanes = lanes;
    plan.fc[0].lanes = lanes;
    plan
}

#[test]
fn replicated_lanes_are_bit_identical_and_ordered_everywhere() {
    let queries = small_queries(30);
    for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
        for (label, configure) in [
            ("no cache", (|b| b) as fn(MicroRecBuilder) -> MicroRecBuilder),
            ("f16 arena + cache", |b| b.embedding_arena(RowFormat::F16).hot_row_cache(128)),
        ] {
            let mut mono = configure(small_builder(precision)).build().unwrap();
            let want: Vec<f32> = queries.iter().map(|q| mono.predict(q).unwrap()).collect();
            for lanes in [1usize, 2, 3] {
                let engines: Vec<MicroRec> = (0..lanes)
                    .map(|_| configure(small_builder(precision)).build().unwrap())
                    .collect();
                let mut exec =
                    PipelineExecutor::with_plan(engines, &replicated_plan(lanes)).unwrap();
                // predict_batch checks order restoration too: result i
                // must belong to query i even though lanes race.
                let got = exec.predict_batch(&queries).unwrap();
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{precision:?} / {label} / {lanes} lanes: query {i} diverged"
                    );
                }
                let stages = exec.stage_stats();
                assert_eq!(stages[0].lanes, lanes as u64, "lookup runs as {lanes} lane(s)");
                assert_eq!(stages[1].lanes, lanes as u64);
                for stage in &stages {
                    assert_eq!(
                        stage.items,
                        queries.len() as u64,
                        "stage {} lost jobs across its lanes",
                        stage.name
                    );
                }
                let engines = exec.shutdown_all();
                assert_eq!(engines.len(), lanes, "every lane engine comes back");
            }
        }
    }
}

#[test]
fn lane_cache_counters_account_for_every_lookup_once() {
    // The same workload through a single-lane pipelined runtime and a
    // hand-built two-lane executor. Each lookup lane owns a private cache,
    // so hit/miss splits differ, but the totals must account for every
    // row lookup exactly once in both topologies.
    let queries = small_queries(20);
    let rows_per_query = 6 * 4; // tables x lookups_per_table
    let repeats = 5;
    let expected_lookups = (queries.len() * repeats * rows_per_query) as u64;
    let builder =
        || small_builder(Precision::Fixed16).embedding_arena(RowFormat::F16).hot_row_cache(256);

    let config = RuntimeConfig {
        workers: 1,
        max_batch: 8,
        execution: ExecutionMode::Pipelined,
        ..Default::default()
    };
    let mut runtime = ServingRuntime::start(builder(), config).unwrap();
    let pending: Vec<_> = (0..repeats)
        .flat_map(|_| queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")))
        .collect();
    for p in pending {
        p.wait().expect("predict");
    }
    runtime.shutdown();
    let stats = runtime.lookup_stats().expect("cache-enabled runtime exposes lookup stats");
    assert!(stats.hits > 0, "repeated queries must hit the cache");
    assert_eq!(stats.hits + stats.misses, expected_lookups, "every lookup counted exactly once");
    let per_table: u64 = stats.per_table_hits.iter().chain(&stats.per_table_misses).sum();
    assert_eq!(per_table, expected_lookups, "per-table totals agree");

    let engines: Vec<MicroRec> = (0..2).map(|_| builder().build().unwrap()).collect();
    let mut exec = PipelineExecutor::with_plan(engines, &replicated_plan(2)).unwrap();
    for _ in 0..repeats {
        exec.predict_batch(&queries).unwrap();
    }
    let lane_total: u64 = exec
        .shutdown_all()
        .iter()
        .map(|engine| {
            let cache = engine.hot_row_cache().expect("every lane has its cache");
            cache.hits() + cache.misses()
        })
        .sum();
    assert_eq!(lane_total, expected_lookups, "lane count must not change the lookup total");
}

#[test]
fn replicated_poisoned_lane_fails_items_without_wedging() {
    let engines: Vec<MicroRec> =
        (0..2).map(|_| small_builder(Precision::Fixed16).build().unwrap()).collect();
    let mut exec = PipelineExecutor::with_plan(engines, &replicated_plan(2)).unwrap();
    let q = small_queries(1).remove(0);
    assert!(exec.predict(&q).is_ok());
    assert!(exec.is_healthy());

    // Poison the replicated fc stage: one of its lanes panics on the next
    // job. The lane guard closes that lane's rings, the close cascades
    // through the join, and predicts fail instead of hanging.
    exec.poison_stage(1);
    assert!(exec.predict(&q).is_err(), "job through a dead lane must fail");
    assert!(!exec.is_healthy(), "executor reports the poisoning");
    assert!(exec.predict(&q).is_err());
    assert!(exec.predict_batch(&[q.clone(), q]).is_err());
    // The lookup lanes survive the downstream fault and hand their
    // engines back.
    assert!(!exec.shutdown_all().is_empty(), "surviving lanes return their engines");
}

#[test]
fn shutdown_returns_engine_and_depth_one_fifo_works() {
    let engine = small_builder(Precision::Fixed32).build().unwrap();
    let mut mono = small_builder(Precision::Fixed32).build().unwrap();
    let mut exec = PipelineExecutor::new(engine, PipelineConfig { fifo_depth: 1 }).unwrap();
    let queries = small_queries(20);
    for q in &queries {
        let want = mono.predict(q).unwrap();
        let got = exec.predict(q).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
    }
    let engine = exec.shutdown().expect("engine comes back after a clean drain");
    // 6 tables × 4 rounds × 20 queries of physical reads ran through it.
    assert_eq!(engine.memory().stats().total().reads, 6 * 4 * 20);
}
