//! Placement search: Algorithm 1 on the production models, brute force on
//! a downscaled instance.

use std::time::Duration;

use microrec_bench::harness::{black_box, criterion_group, criterion_main, Criterion};
use microrec_embedding::{ModelSpec, Precision, TableSpec};
use microrec_memsim::MemoryConfig;
use microrec_placement::{brute_force_search, heuristic_search, AllocStrategy, HeuristicOptions};

fn bench_heuristic(c: &mut Criterion) {
    let config = MemoryConfig::u280();
    let mut group = c.benchmark_group("heuristic_search");
    group.measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    group.sample_size(20);
    for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
        group.bench_function(model.name.clone(), |b| {
            b.iter(|| {
                heuristic_search(
                    black_box(&model),
                    &config,
                    Precision::F32,
                    &HeuristicOptions::default(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_brute_force(c: &mut Criterion) {
    let model = ModelSpec::new(
        "toy8",
        (0..8).map(|i| TableSpec::new(format!("t{i}"), 100 + 50 * i as u64, 4)).collect(),
        vec![32],
        1,
    );
    let mut config = MemoryConfig::fpga_without_hbm(3);
    config.banks.retain(|b| b.id.kind.is_dram());
    let mut group = c.benchmark_group("brute_force");
    group.measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    group.bench_function("8_tables_3_channels", |b| {
        b.iter(|| {
            brute_force_search(
                black_box(&model),
                &config,
                Precision::F32,
                AllocStrategy::RoundRobin,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_heuristic, bench_brute_force);
criterion_main!(benches);
