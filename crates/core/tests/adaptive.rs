//! End-to-end tests for traffic-adaptive online re-sharding: the live
//! runtime observes a skewed workload, the background driver publishes a
//! re-shard while serving, every worker adopts it at a batch boundary, and
//! results stay bit-identical to a static run.

use std::time::{Duration, Instant};

use microrec_core::{MicroRec, MicroRecBuilder, ReshardingPolicy, RuntimeConfig, ServingRuntime};
use microrec_embedding::{ModelSpec, RowFormat, TableSpec};
use microrec_memsim::MemoryConfig;
use microrec_placement::HeuristicOptions;

/// Two hot and two cold tables on a two-channel DDR platform: the uniform
/// placement co-locates the hot pair, so skewed traffic has something to
/// fix.
fn skewed_model() -> ModelSpec {
    ModelSpec::new(
        "skewed",
        vec![
            TableSpec::new("hot-big", 200_000, 16),
            TableSpec::new("hot-small", 100_000, 8),
            TableSpec::new("cold-big", 200_000, 16),
            TableSpec::new("cold-small", 100_000, 8),
        ],
        vec![32, 16],
        1,
    )
}

fn builder() -> MicroRecBuilder {
    MicroRec::builder(skewed_model())
        .memory(MemoryConfig::fpga_without_hbm(2))
        .search_options(HeuristicOptions { allow_merge: false, ..Default::default() })
        .embedding_arena(RowFormat::F32)
        .hot_row_cache(64)
        .seed(13)
}

/// Queries that make tables 0 and 1 hot in the *miss* counters (every
/// query touches every table once, so the signal is per-table cache-miss
/// rate): their rows spread beyond the cache, while tables 2 and 3 repeat
/// one row and hit after the first probe.
fn skewed_queries(n: usize) -> Vec<Vec<u64>> {
    (0..n as u64).map(|i| vec![(i * 7919) % 200_000, (i * 104_729) % 100_000, 7, 7]).collect()
}

fn adaptive_config() -> RuntimeConfig {
    RuntimeConfig { workers: 2, max_batch: 8, adaptive: true, ..Default::default() }
}

#[test]
fn live_migration_fires_and_results_stay_bit_identical() {
    let queries = skewed_queries(256);
    let mut sequential = builder().build().expect("engine");
    let expected: Vec<f32> =
        queries.iter().map(|q| sequential.predict(q).expect("predict")).collect();

    let mut runtime = ServingRuntime::start(builder(), adaptive_config()).expect("runtime");
    // Eager gates so the scenario's skew (not wall-clock luck) decides.
    runtime.set_resharding_policy(ReshardingPolicy {
        divergence_threshold: 0.01,
        min_traffic: 64,
        cooldown_ms: 0,
    });

    // Phase 1: skewed load. Results must match the static engine bit for
    // bit even while the driver migrates underneath.
    let pending: Vec<_> =
        queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    for (p, e) in pending.into_iter().zip(&expected) {
        assert_eq!(p.wait().expect("predict").to_bits(), e.to_bits(), "diverged during phase 1");
    }

    // The background driver polls every few ms; give it a bounded window
    // to observe the full phase-1 counters before forcing the issue.
    let deadline = Instant::now() + Duration::from_secs(2);
    while runtime.migration_records().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    if runtime.migration_records().is_empty() {
        assert!(runtime.migrate_now().expect("forced migration"), "skew must move tables");
    }

    let records = runtime.migration_records();
    assert!(!records.is_empty(), "the skewed phase must publish at least one migration");
    let first = &records[0];
    assert!(first.generation >= 1);
    assert!(first.tables_moved > 0);
    assert!(first.divergence > 0.0);
    assert!(first.new_weighted_us < first.old_weighted_us);
    assert!(first.trigger_hits + first.trigger_misses > 0);

    // Phase 2: the same queries on the migrated layout — still the same
    // bits, and every request drains.
    let pending: Vec<_> =
        queries.iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    for (p, e) in pending.into_iter().zip(&expected) {
        assert_eq!(p.wait().expect("predict").to_bits(), e.to_bits(), "diverged after migration");
    }
    let snapshot = runtime.shutdown();
    assert_eq!(snapshot.completed, 2 * queries.len() as u64);
    assert_eq!(snapshot.failed, 0);
}

/// Phase-2 companion of [`skewed_queries`]: a skew rotated onto table 0
/// and `partner` — chosen as whichever table the post-migration layout
/// co-locates with t0, since the cold-table tie-break moves with counter
/// noise — forces a second online re-shard.
fn rotated_queries(n: usize, offset: u64, partner: usize) -> Vec<Vec<u64>> {
    let rows = [200_000u64, 100_000, 200_000, 100_000];
    (0..n as u64)
        .map(|i| {
            let i = i + offset;
            let mut q = vec![7u64; 4];
            q[0] = (i * 7919) % rows[0];
            q[partner] = (i * 104_729) % rows[partner];
            q
        })
        .collect()
}

#[test]
fn rotated_hot_set_triggers_a_second_migration() {
    let n = 256;
    let mut runtime = ServingRuntime::start(builder(), adaptive_config()).expect("runtime");
    runtime.set_resharding_policy(ReshardingPolicy {
        divergence_threshold: 0.01,
        min_traffic: 64,
        cooldown_ms: 0,
    });

    let wait_for = |runtime: &ServingRuntime, count: usize| {
        let deadline = Instant::now() + Duration::from_secs(2);
        while runtime.migration_records().len() < count && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        runtime.migration_records().len()
    };

    let pending: Vec<_> =
        skewed_queries(n).into_iter().map(|q| runtime.submit(q).expect("submit")).collect();
    for p in pending {
        p.wait().expect("phase-1 predict");
    }
    assert!(wait_for(&runtime, 1) >= 1, "phase-1 skew must migrate");

    let channels = runtime.resharding_channels().expect("adaptive runtime exposes channels");
    let partner = (1..4).find(|&t| channels[t] == channels[0]).expect("co-located partner");
    let pending: Vec<_> = rotated_queries(n, 1_000_000, partner)
        .into_iter()
        .map(|q| runtime.submit(q).expect("submit"))
        .collect();
    for p in pending {
        p.wait().expect("phase-2 predict");
    }
    let total = wait_for(&runtime, 2);
    assert!(total >= 2, "rotated skew must migrate again, got {total} migration(s)");
    let records = runtime.migration_records();
    assert!(records[1].generation > records[0].generation);
    for m in &records {
        assert!(m.tables_moved > 0, "gen {}: a migration must move tables", m.generation);
        assert!(
            m.new_weighted_us < m.old_weighted_us,
            "gen {}: a migration must lower the traffic-weighted lookup cost ({} -> {} us)",
            m.generation,
            m.old_weighted_us,
            m.new_weighted_us,
        );
    }
    runtime.shutdown();
}

#[test]
fn adaptive_gates_reject_unsupported_configurations() {
    // No shared embedding store: nothing to re-shard.
    let err = ServingRuntime::start(MicroRec::builder(skewed_model()).seed(13), adaptive_config())
        .expect_err("adaptive without a shared store must fail");
    assert!(err.to_string().contains("shared embedding store"), "{err}");

    // No hot-row cache: no per-table counters to distill.
    let err = ServingRuntime::start(
        MicroRec::builder(skewed_model())
            .memory(MemoryConfig::fpga_without_hbm(2))
            .embedding_arena(RowFormat::F32)
            .seed(13),
        adaptive_config(),
    )
    .expect_err("adaptive without a cache must fail");
    assert!(err.to_string().contains("per-table counters"), "{err}");
}

#[test]
fn migrate_now_requires_an_adaptive_runtime() {
    let mut runtime =
        ServingRuntime::start(builder(), RuntimeConfig { adaptive: false, ..adaptive_config() })
            .expect("runtime");
    let err = runtime.migrate_now().expect_err("non-adaptive runtime has no resharder");
    assert!(err.to_string().contains("not enabled"), "{err}");
    assert!(runtime.migration_records().is_empty());
    runtime.shutdown();
}
