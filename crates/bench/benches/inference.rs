//! Host-executed end-to-end inference: the functional CPU reference engine
//! and the MicroRec functional path (embedding rows + quantized MLP).

use std::time::Duration;

use microrec_bench::harness::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use microrec_core::MicroRec;
use microrec_cpu::CpuReferenceEngine;
use microrec_embedding::{ModelSpec, Precision};
use microrec_workload::{QueryGenConfig, QueryGenerator};

fn bench_inference(c: &mut Criterion) {
    let model = ModelSpec::dlrm_rmc2(8, 16);
    let cpu = CpuReferenceEngine::build(&model, 3).unwrap();
    let mut fpga =
        MicroRec::builder(model.clone()).precision(Precision::Fixed16).seed(3).build().unwrap();
    let mut gen = QueryGenerator::new(&model, QueryGenConfig::default()).unwrap();
    let query = gen.next_query();
    let batch = gen.next_batch(64);

    let mut group = c.benchmark_group("inference");
    group.measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Elements(1));
    group.bench_function("cpu_reference_single", |b| {
        b.iter(|| cpu.predict(black_box(&query)).unwrap())
    });
    group.bench_function("microrec_functional_single", |b| {
        b.iter(|| fpga.predict(black_box(&query)).unwrap())
    });
    group.throughput(Throughput::Elements(64));
    group.bench_function("cpu_reference_batch64", |b| {
        b.iter(|| cpu.predict_batch(black_box(&batch)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
