//! Randomized numeric tests for the DNN substrate, driven by a seeded RNG
//! so every case is reproducible (rerun with the printed seed on failure).

use microrec_rng::Rng;

use microrec_dnn::{
    gemm_packed, gemv, Activation, DenseLayer, FixedNum, Matrix, Mlp, PackedB, PackedMlp,
    ScratchArena, Q16, Q32,
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

/// The Q2.13 network contract written out layer by layer, independent of
/// the crate's kernels: per output the exact `i64` sum of raw products,
/// shifted down 13 bits (floor) and clamped to `i16` once; then the
/// saturating bias add and the activation.
fn wide_accumulator_forward(mlp: &Mlp, input: &[Q16]) -> Vec<Q16> {
    let mut current = input.to_vec();
    for layer in mlp.layers() {
        current = (0..layer.output_dim())
            .map(|r| {
                let mut sum = 0i64;
                for (x, &w) in current.iter().zip(layer.weights().row(r)) {
                    sum += i64::from(x.to_raw()) * i64::from(Q16::from_f32(w).to_raw());
                }
                let dot = (sum >> 13).clamp(-32768, 32767) as i16;
                let pre = dot.saturating_add(Q16::from_f32(layer.bias()[r]).to_raw());
                match layer.activation() {
                    Activation::Relu => Q16::from_raw(pre.max(0)),
                    Activation::Identity => Q16::from_raw(pre),
                    Activation::Sigmoid => {
                        Q16::from_f32(Activation::Sigmoid.apply(Q16::from_raw(pre).to_f32()))
                    }
                }
            })
            .collect();
    }
    current
}

/// Every Q2.13 execution path — `Mlp::forward` and the packed batch —
/// equals the written-out wide-accumulator reference:
/// on networks whose weights and inputs sit at the ±4 rails (odd widths:
/// k-tails, n-tails, one `i32` block per k-quad) and on a Xavier network
/// deep enough in `k` that the AVX2 tile widens several times per output.
#[test]
fn q16_paths_equal_the_wide_accumulator_reference() {
    let mut rng = Rng::seed_from_u64(0x0DD5);
    let mut railed_layer = |input: usize, output: usize, activation| {
        let w = Matrix::from_fn(output, input, |_, _| rng.gen_range_f32(-3.9, 3.9));
        let bias = (0..output).map(|_| rng.gen_range_f32(-3.9, 3.9)).collect();
        DenseLayer::new(w, bias, activation).unwrap()
    };
    let networks = [
        Mlp::new(vec![
            railed_layer(37, 22, Activation::Relu),
            railed_layer(22, 7, Activation::Identity),
            railed_layer(7, 3, Activation::Sigmoid),
        ])
        .unwrap(),
        Mlp::top_mlp(701, &[66, 9], 5).unwrap(),
    ];
    let mut rng = Rng::seed_from_u64(0x0DD6);
    for (net, mlp) in networks.iter().enumerate() {
        let (input, output) = (mlp.input_dim(), mlp.layers().last().unwrap().output_dim());
        let packed: PackedMlp<Q16> = PackedMlp::pack(mlp);
        let mut arena = ScratchArena::new();
        for batch in [1usize, 2, 3, 4, 5, 32, 33] {
            let x: Vec<Q16> =
                (0..batch * input).map(|_| Q16::from_f32(rng.gen_range_f32(-3.9, 3.9))).collect();
            let batched = packed.forward_batch_into(&x, batch, &mut arena).unwrap().to_vec();
            for (i, item) in x.chunks_exact(input).enumerate() {
                let want = wide_accumulator_forward(mlp, item);
                assert_eq!(mlp.forward::<Q16>(item).unwrap(), want, "network {net}: Mlp::forward");
                let got = &batched[i * output..(i + 1) * output];
                assert_eq!(got, &want[..], "network {net} batch {batch} item {i}: packed");
            }
        }
    }
}

/// FNV-1a over the bit pattern of every output of a seeded adversarial sweep
/// at precision `T`: [`gemm_packed`] and [`gemv`] over the kernel's shape
/// grid (row tails, k-tails, n-tails, amplitudes at the format's rails) and
/// a three-layer network through [`Mlp::forward`] and [`PackedMlp`].
fn sweep_digest<T: FixedNum>(amplitude: f32, bits: fn(T) -> u32) -> u64 {
    let mut rng = Rng::seed_from_u64(0x5A7_0001);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut absorb = |values: &[T]| {
        for &v in values {
            for byte in bits(v).to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    };
    for m in [1usize, 2, 3, 4, 5, 7, 32, 33] {
        for k in [0usize, 1, 3, 4, 7, 8, 50, 512] {
            for n in [1usize, 3, 4, 5, 8, 9, 33] {
                let b = Matrix::from_fn(k, n, |_, _| rng.gen_range_f32(-amplitude, amplitude));
                let a: Vec<T> = (0..m * k)
                    .map(|_| T::from_f32(rng.gen_range_f32(-amplitude, amplitude)))
                    .collect();
                let mut c = vec![T::ZERO; m * n];
                gemm_packed(&a, m, &PackedB::pack(&b), &mut c).unwrap();
                absorb(&c);
                let mut y = vec![T::ZERO; n];
                gemv(&b.transposed(), &a[..k], &mut y).unwrap();
                absorb(&y);
            }
        }
    }
    let mlp = Mlp::top_mlp(24, &[40, 17], 11).unwrap();
    let packed: PackedMlp<T> = PackedMlp::pack(&mlp);
    let mut arena = ScratchArena::new();
    for batch in [1usize, 7, 33] {
        let x: Vec<T> = (0..batch * 24)
            .map(|_| T::from_f32(rng.gen_range_f32(-amplitude, amplitude)))
            .collect();
        absorb(packed.forward_batch_into(&x, batch, &mut arena).unwrap());
        absorb(&mlp.forward::<T>(&x[..24]).unwrap());
    }
    digest
}

/// `f32` and Q8.23 keep the 4-lane rounding/saturating order as their
/// definition. The digests were recorded at the commit before Q2.13 moved to
/// a wide accumulator (151bce5): those two precisions may not move by a bit.
#[test]
fn f32_and_q32_outputs_are_pinned() {
    assert_eq!(sweep_digest::<f32>(3.9, f32::to_bits), 0x6C15_5F37_8281_6D2A, "f32 outputs moved");
    assert_eq!(
        sweep_digest::<Q32>(250.0, |v| v.to_raw() as u32),
        0xEFDA_AABE_92B9_E45E,
        "Q8.23 outputs moved"
    );
}
