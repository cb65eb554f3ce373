//! `gemm_packed` at the three precisions on the perf ledger's layer shapes
//! (`dlrm_rmc2(8,16)`'s three hidden layers and its 256→1 head, which is all
//! tail columns), at the ledger's batch of 32, at the 1–4 rows an idle
//! serving worker is handed — the MR = 4 register tile's row tail — and at 8
//! and 16 rows, either side of where Q2.13 switches from the AVX-512 VNNI
//! tile to the AMX tile (`MIN_ROWS` in `crates/dnn/src/gemm.rs`, set from
//! this bench).
//!
//! Also `Q16::quantize_into` (the AVX-512 kernel where the CPU has it)
//! against the scalar `Q16::from_f32` loop it replaces in `predict_batch`,
//! at one `lookup-batch` round (352 elements) and one item (1 408): the
//! harness's `elem/s` gives ns per element.

use std::time::Duration;

use microrec_bench::harness::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use microrec_dnn::{gemm_flops, gemm_packed, FixedNum, Matrix, PackedB, Q16, Q32};

/// (inner k, outputs n) per layer.
const LAYERS: [(usize, usize); 4] = [(512, 1024), (1024, 512), (512, 256), (256, 1)];
/// Batch rows m.
const ROWS: [usize; 7] = [1, 2, 3, 4, 8, 16, 32];

fn bench_precision<T: FixedNum>(c: &mut Criterion, precision: &str) {
    let mut group = c.benchmark_group(format!("gemm_packed_{precision}"));
    group.measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    for (k, n) in LAYERS {
        let b = Matrix::from_fn(k, n, |r, col| ((r * 13 + col * 7) as f32 * 0.01).cos() * 0.1);
        let packed: PackedB<T> = PackedB::pack(&b);
        for m in ROWS {
            let a: Vec<T> =
                (0..m * k).map(|i| T::from_f32((i as f32 * 0.01).sin() * 0.5)).collect();
            let mut out = vec![T::ZERO; m * n];
            group.throughput(Throughput::Elements(gemm_flops(m, k, n)));
            group.bench_function(format!("{m}x{k}x{n}"), |bench| {
                bench.iter(|| gemm_packed(black_box(&a), m, black_box(&packed), &mut out).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    bench_precision::<f32>(c, "f32");
    bench_precision::<Q16>(c, "q16");
    bench_precision::<Q32>(c, "q32");
}

fn bench_quantize(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantize_q16");
    group.measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    for len in [352usize, 1408] {
        let src: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin() * 1.5).collect();
        let mut dst = vec![Q16::ZERO; len];
        group.throughput(Throughput::Elements(len as u64));
        group.bench_function(format!("quantize_into/{len}"), |bench| {
            bench.iter(|| Q16::quantize_into(black_box(&src), black_box(&mut dst)))
        });
        group.bench_function(format!("from_f32_loop/{len}"), |bench| {
            bench.iter(|| {
                for (slot, &v) in black_box(&mut dst).iter_mut().zip(black_box(&src)) {
                    *slot = Q16::from_f32(v);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_quantize);
criterion_main!(benches);
