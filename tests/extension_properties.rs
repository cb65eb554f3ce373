//! Randomized tests over quantized storage. Cases come from a seeded RNG so
//! every run is reproducible.

use microrec_rng::Rng;

use microrec_embedding::{Precision, TableSpec};

/// Quantized-storage row bytes halve exactly, for any table shape.
#[test]
fn storage_precision_halves() {
    let mut rng = Rng::seed_from_u64(0x57A6);
    for _ in 0..200 {
        let rows = rng.gen_range_u64(1, 100_000);
        let dim = rng.gen_range_u64(1, 128) as u32;
        let t = TableSpec::new("t", rows, dim);
        assert_eq!(t.bytes(Precision::F32), 2 * t.bytes(Precision::Fixed16));
        assert_eq!(t.bytes(Precision::F32), t.bytes(Precision::Fixed32));
    }
}
