//! Simulator-infrastructure benchmarks: event-driven pipeline flow and
//! operator-graph execution.

use std::time::Duration;

use microrec_accel::{AccelConfig, FlowSim, Pipeline};
use microrec_bench::harness::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use microrec_cpu::{CpuReferenceEngine, OpGraph};
use microrec_embedding::{ModelSpec, Precision};
use microrec_memsim::SimTime;

fn bench_flow_sim(c: &mut Criterion) {
    let model = ModelSpec::small_production();
    let cfg = AccelConfig::for_model(&model, Precision::Fixed16);
    let pipe = Pipeline::build(&model, &cfg, SimTime::from_ns(485.0)).unwrap();
    let sim = FlowSim::new(&pipe, 2);
    let mut group = c.benchmark_group("flow_sim");
    group.measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    for n in [100usize, 1000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("saturated_{n}"), |b| {
            b.iter(|| sim.run_saturated(black_box(n)))
        });
    }
    group.finish();
}

fn bench_opgraph(c: &mut Criterion) {
    let mut model = ModelSpec::dlrm_rmc2(8, 16);
    model.lookups_per_table = 1;
    let engine = CpuReferenceEngine::build(&model, 3).unwrap();
    let graph = OpGraph::full_inference(&model);
    let query: Vec<u64> = (0..8).map(|i| i * 3_001).collect();
    let mut group = c.benchmark_group("opgraph");
    group.measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Elements(graph.invocation_count() as u64));
    group.bench_function("execute_full_graph", |b| {
        b.iter(|| graph.execute(engine.catalog(), engine.mlp(), black_box(&query)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_flow_sim, bench_opgraph);
criterion_main!(benches);
