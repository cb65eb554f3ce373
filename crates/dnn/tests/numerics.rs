//! Randomized numeric tests for the DNN substrate, driven by a seeded RNG
//! so every case is reproducible (rerun with the printed seed on failure).

use microrec_rng::Rng;

use microrec_dnn::{
    Activation, DenseLayer, Matrix, Mlp, PackedMlp, QuantizedMlp, ScratchArena, Q16, Q32,
};

/// Q-format multiply error is bounded by format resolution for in-range
/// operands.
#[test]
fn fixed_mul_error_bounds() {
    let mut rng = Rng::seed_from_u64(0xF1D0);
    for _ in 0..2000 {
        let a = rng.gen_range_f32(-1.9, 1.9);
        let b = rng.gen_range_f32(-1.9, 1.9);
        let exact = f64::from(a) * f64::from(b);
        let q16 = (Q16::from_f32(a) * Q16::from_f32(b)).to_f32();
        assert!((f64::from(q16) - exact).abs() < 8.0 / 8192.0, "Q16 {a} * {b}");
        let q32 = (Q32::from_f32(a) * Q32::from_f32(b)).to_f32();
        assert!((f64::from(q32) - exact).abs() < 8.0 / 8_388_608.0, "Q32 {a} * {b}");
    }
}

/// Fixed-point addition is exact (no rounding) while in range.
#[test]
fn fixed_add_is_exact() {
    let mut rng = Rng::seed_from_u64(0xADD);
    for _ in 0..2000 {
        let araw = rng.gen_range_u64(0, 16_000) as i16 - 8000;
        let braw = rng.gen_range_u64(0, 16_000) as i16 - 8000;
        let a = Q16::from_raw(araw);
        let b = Q16::from_raw(braw);
        assert_eq!((a + b).to_raw(), araw.saturating_add(braw));
    }
}

/// Dense-layer forward is linear: f(x+y) = f(x) + f(y) for the identity
/// activation with zero bias.
#[test]
fn dense_layer_linearity() {
    let mut rng = Rng::seed_from_u64(0x11EA);
    let w = Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) as f32 * 0.1).cos() * 0.3);
    let layer = DenseLayer::new(w, vec![0.0; 4], Activation::Identity).unwrap();
    for _ in 0..200 {
        let x: Vec<f32> = (0..8).map(|_| rng.gen_range_f32(-0.5, 0.5)).collect();
        let y: Vec<f32> = (0..8).map(|_| rng.gen_range_f32(-0.5, 0.5)).collect();
        let fx = layer.forward_vec(&x).unwrap();
        let fy = layer.forward_vec(&y).unwrap();
        let xy: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let fxy = layer.forward_vec(&xy).unwrap();
        for i in 0..4 {
            assert!((fxy[i] - fx[i] - fy[i]).abs() < 1e-4);
        }
    }
}

/// Quantized inference error decreases (weakly) with bit width on random
/// networks.
#[test]
fn quantization_error_ordering() {
    for seed in 0..20u64 {
        let mlp = Mlp::top_mlp(16, &[32, 8], seed * 37 % 1000).unwrap();
        let cal: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..16).map(|j| (((i * 16 + j) as f32) * 0.29).sin() * 0.7).collect())
            .collect();
        let q6 = QuantizedMlp::quantize(&mlp, 6, &cal).unwrap();
        let q16 = QuantizedMlp::quantize(&mlp, 16, &cal).unwrap();
        let sample = &cal[0];
        let reference = mlp.predict_ctr(sample).unwrap();
        let e6 = (q6.predict_ctr(sample).unwrap() - reference).abs();
        let e16 = (q16.predict_ctr(sample).unwrap() - reference).abs();
        assert!(e16 <= e6 + 1e-4, "seed {seed}: e16 {e16} vs e6 {e6}");
    }
}

/// CTR predictions are always probabilities, at every precision.
#[test]
fn ctr_is_probability() {
    let mut rng = Rng::seed_from_u64(0xC12);
    for seed in 0..64u64 {
        let mlp = Mlp::top_mlp(8, &[16], seed * 29 % 512).unwrap();
        let scale = rng.gen_range_f32(0.0, 2.0);
        let x: Vec<f32> = (0..8).map(|i| ((i as f32) * 0.9).sin() * scale).collect();
        for ctr in [
            mlp.predict_ctr(&x).unwrap(),
            mlp.predict_ctr_quantized::<Q16>(&x).unwrap(),
            mlp.predict_ctr_quantized::<Q32>(&x).unwrap(),
        ] {
            assert!((0.0..=1.0).contains(&ctr), "ctr {ctr}");
        }
    }
}

/// The packed batched path agrees bit-for-bit with the sequential forward
/// pass on random networks, batch sizes, and precisions.
#[test]
fn packed_batch_bitwise_equals_sequential() {
    let mut rng = Rng::seed_from_u64(0xBA7C);
    for case in 0..12 {
        let input = rng.gen_range_usize(4, 48);
        let hidden = [rng.gen_range_usize(4, 64) as u32, rng.gen_range_usize(2, 32) as u32];
        let mlp = Mlp::top_mlp(input as u32, &hidden, rng.gen_range_u64(0, 1 << 20)).unwrap();
        let batch = rng.gen_range_usize(1, 20);
        let raw: Vec<f32> = (0..batch * input).map(|_| rng.gen_range_f32(-0.8, 0.8)).collect();

        let packed: PackedMlp<f32> = PackedMlp::pack(&mlp);
        let mut arena = ScratchArena::new();
        let out = packed.forward_batch_into(&raw, batch, &mut arena).unwrap().to_vec();
        for (i, item) in raw.chunks_exact(input).enumerate() {
            let single = mlp.forward::<f32>(item).unwrap();
            assert_eq!(out[i].to_bits(), single[0].to_bits(), "case {case} item {i}");
        }

        let q: Vec<Q16> = raw.iter().map(|&v| Q16::from_f32(v)).collect();
        let packed: PackedMlp<Q16> = PackedMlp::pack(&mlp);
        let mut arena = ScratchArena::new();
        let out = packed.forward_batch_into(&q, batch, &mut arena).unwrap().to_vec();
        for (i, item) in q.chunks_exact(input).enumerate() {
            let single = mlp.forward::<Q16>(item).unwrap();
            assert_eq!(out[i], single[0], "Q16 case {case} item {i}");
        }
    }
}
