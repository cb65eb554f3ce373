//! Embedding table storage.
//!
//! Two backings are provided behind one type:
//!
//! * **Materialized** — a flat `Vec<f32>`, used for real (small) tables and
//!   for physically built Cartesian products in tests.
//! * **Procedural** — contents derived on the fly from a seed with a
//!   [SplitMix64](https://prng.di.unimi.it/splitmix64.c)-style hash. The
//!   15.1 GB production model cannot be held in host memory, and its exact
//!   values never matter to the paper's experiments — only its *shape* does.
//!   Procedural tables are bit-reproducible, so functional identities (e.g.
//!   Cartesian row = concatenation of member rows) remain exactly testable.

use crate::error::EmbeddingError;
use crate::precision::Precision;
use crate::spec::TableSpec;

/// Backing storage of an [`EmbeddingTable`].
#[derive(Debug, Clone, PartialEq)]
enum TableData {
    Materialized(Vec<f32>),
    Procedural { seed: u64 },
}

/// One embedding table: a spec plus its contents.
///
/// # Examples
///
/// ```
/// use microrec_embedding::{EmbeddingTable, TableSpec};
///
/// let spec = TableSpec::new("region", 100, 4);
/// let table = EmbeddingTable::procedural(spec, 42);
/// let mut row = vec![0.0f32; 4];
/// table.read_row(17, &mut row)?;
/// // Contents are deterministic in (seed, row, column):
/// let mut again = vec![0.0f32; 4];
/// table.read_row(17, &mut again)?;
/// assert_eq!(row, again);
/// # Ok::<(), microrec_embedding::EmbeddingError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    spec: TableSpec,
    data: TableData,
}

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic element value in `[-1, 1)` for procedural tables.
#[inline]
fn procedural_value(seed: u64, row: u64, col: u32) -> f32 {
    let h = splitmix64(seed ^ row.wrapping_mul(0xA24B_AED4_963E_E407) ^ u64::from(col) << 17);
    // Map the top 24 bits to [-1, 1) with full f32 mantissa coverage.
    let unit = (h >> 40) as f32 / (1u64 << 24) as f32;
    unit * 2.0 - 1.0
}

/// Deterministic synthetic dense features for a query: both engines (CPU
/// reference and MicroRec) derive the same dense vector from the sparse
/// indices, so functional equivalence holds for models with dense inputs.
/// Values lie in `[-1, 1)`.
#[must_use]
pub fn synthetic_dense_features(query: &[u64], dim: u32) -> Vec<f32> {
    let seed = dense_seed(query);
    (0..dim).map(|col| procedural_value(seed, 0, col)).collect()
}

/// [`synthetic_dense_features`] into a caller-owned slice: its first
/// `out.len()` features.
pub fn synthetic_dense_features_into(query: &[u64], out: &mut [f32]) {
    let seed = dense_seed(query);
    for (col, slot) in (0u32..).zip(out) {
        *slot = procedural_value(seed, 0, col);
    }
}

/// The procedural seed of a query's dense features.
fn dense_seed(query: &[u64]) -> u64 {
    query.iter().fold(0xDE5E_F00Du64, |acc, &idx| splitmix64(acc ^ idx.wrapping_mul(0x9E37_79B9)))
}

impl EmbeddingTable {
    /// Creates a table whose contents are computed on demand from `seed`.
    #[must_use]
    pub fn procedural(spec: TableSpec, seed: u64) -> Self {
        EmbeddingTable { spec, data: TableData::Procedural { seed } }
    }

    /// Creates a table from explicit row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::BufferSizeMismatch`] if `values.len()` is
    /// not `rows * dim`.
    pub fn materialized(spec: TableSpec, values: Vec<f32>) -> Result<Self, EmbeddingError> {
        let expected = (spec.rows * u64::from(spec.dim)) as usize;
        if values.len() != expected {
            return Err(EmbeddingError::BufferSizeMismatch { expected, actual: values.len() });
        }
        Ok(EmbeddingTable { spec, data: TableData::Materialized(values) })
    }

    /// Materializes a procedural table into explicit storage (identical
    /// contents). Useful for tests and for building physical Cartesian
    /// products.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::TooLargeToMaterialize`] if the table
    /// exceeds `limit_bytes`.
    pub fn to_materialized(&self, limit_bytes: u64) -> Result<EmbeddingTable, EmbeddingError> {
        let bytes = self.spec.bytes(Precision::F32);
        if bytes > limit_bytes {
            return Err(EmbeddingError::TooLargeToMaterialize {
                table: self.spec.name.clone(),
                bytes,
                limit: limit_bytes,
            });
        }
        let mut values = vec![0.0f32; self.spec.rows as usize * self.spec.dim as usize];
        self.fill_rows(0, &mut values)?;
        EmbeddingTable::materialized(self.spec.clone(), values)
    }

    /// This table's specification.
    #[must_use]
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// Table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.spec.rows
    }

    /// Vector length.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.spec.dim
    }

    /// Whether the contents live in host memory.
    #[must_use]
    pub fn is_materialized(&self) -> bool {
        matches!(self.data, TableData::Materialized(_))
    }

    /// One element of the table.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::IndexOutOfRange`] if `row` or `col` is out
    /// of bounds.
    pub fn value(&self, row: u64, col: u32) -> Result<f32, EmbeddingError> {
        if row >= self.spec.rows || col >= self.spec.dim {
            return Err(self.out_of_range(row));
        }
        Ok(match &self.data {
            TableData::Materialized(v) => v[row as usize * self.spec.dim as usize + col as usize],
            TableData::Procedural { seed } => procedural_value(*seed, row, col),
        })
    }

    /// Copies row `row` into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::IndexOutOfRange`] for a bad row and
    /// [`EmbeddingError::BufferSizeMismatch`] if `out.len() != dim`.
    pub fn read_row(&self, row: u64, out: &mut [f32]) -> Result<(), EmbeddingError> {
        if row >= self.spec.rows {
            return Err(self.out_of_range(row));
        }
        let dim = self.spec.dim as usize;
        if out.len() != dim {
            return Err(EmbeddingError::BufferSizeMismatch { expected: dim, actual: out.len() });
        }
        self.fill_rows_unchecked(row, out);
        Ok(())
    }

    /// Copies the consecutive rows `start_row..start_row + out.len() / dim`
    /// straight into `out`, row-major — the bulk form of
    /// [`read_row`](Self::read_row), value for value, for callers that
    /// materialize whole tables (one bounds check per call, no per-row
    /// staging copy).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::BufferSizeMismatch`] if `out` is not a
    /// whole number of rows, and [`EmbeddingError::IndexOutOfRange`]
    /// naming the first row past the end if the range leaves the table
    /// (nothing is written in either case).
    pub fn fill_rows(&self, start_row: u64, out: &mut [f32]) -> Result<(), EmbeddingError> {
        let dim = (self.spec.dim as usize).max(1);
        if !out.len().is_multiple_of(dim) {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: out.len().next_multiple_of(dim),
                actual: out.len(),
            });
        }
        let end = start_row.saturating_add((out.len() / dim) as u64);
        if end > self.spec.rows {
            return Err(self.out_of_range(start_row.max(self.spec.rows)));
        }
        self.fill_rows_unchecked(start_row, out);
        Ok(())
    }

    /// `out` is a whole number of rows inside the table (checked by the
    /// callers).
    fn fill_rows_unchecked(&self, start_row: u64, out: &mut [f32]) {
        if out.is_empty() {
            return;
        }
        let dim = self.spec.dim as usize;
        match &self.data {
            TableData::Materialized(v) => {
                let start = start_row as usize * dim;
                out.copy_from_slice(&v[start..start + out.len()]);
            }
            TableData::Procedural { seed } => {
                // Columns in fixed groups of eight: a loop of known length
                // lets the compiler run eight hashes side by side in vector
                // registers, about a third faster than a row-length loop.
                const GROUP: usize = 8;
                for (row, values) in (start_row..).zip(out.chunks_exact_mut(dim)) {
                    let mut groups = values.chunks_exact_mut(GROUP);
                    let mut col = 0u32;
                    for group in &mut groups {
                        let group: &mut [f32; GROUP] =
                            group.try_into().expect("chunks_exact yields GROUP elements");
                        for (lane, slot) in (col..).zip(group) {
                            *slot = procedural_value(*seed, row, lane);
                        }
                        col += GROUP as u32;
                    }
                    for (lane, slot) in (col..).zip(groups.into_remainder()) {
                        *slot = procedural_value(*seed, row, lane);
                    }
                }
            }
        }
    }

    fn out_of_range(&self, row: u64) -> EmbeddingError {
        EmbeddingError::IndexOutOfRange {
            table: self.spec.name.clone(),
            index: row,
            rows: self.spec.rows,
        }
    }

    /// Row `row` as a freshly allocated vector.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::IndexOutOfRange`] for a bad row.
    pub fn row(&self, row: u64) -> Result<Vec<f32>, EmbeddingError> {
        let mut out = vec![0.0f32; self.spec.dim as usize];
        self.read_row(row, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rows: u64, dim: u32) -> TableSpec {
        TableSpec::new("t", rows, dim)
    }

    #[test]
    fn procedural_is_deterministic_and_seed_sensitive() {
        let a = EmbeddingTable::procedural(spec(100, 8), 1);
        let b = EmbeddingTable::procedural(spec(100, 8), 1);
        let c = EmbeddingTable::procedural(spec(100, 8), 2);
        assert_eq!(a.row(42).unwrap(), b.row(42).unwrap());
        assert_ne!(a.row(42).unwrap(), c.row(42).unwrap());
    }

    #[test]
    fn procedural_values_in_unit_range() {
        let t = EmbeddingTable::procedural(spec(1000, 4), 7);
        for row in 0..1000 {
            for v in t.row(row).unwrap() {
                assert!((-1.0..1.0).contains(&v), "value {v} out of [-1,1)");
            }
        }
    }

    #[test]
    fn procedural_values_are_spread_out() {
        // A crude uniformity check: mean near 0, both signs present.
        let t = EmbeddingTable::procedural(spec(2000, 2), 99);
        let mut sum = 0.0f64;
        let mut pos = 0;
        for row in 0..2000 {
            for v in t.row(row).unwrap() {
                sum += f64::from(v);
                if v > 0.0 {
                    pos += 1;
                }
            }
        }
        let mean = sum / 4000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((1600..2400).contains(&pos), "positive count {pos}");
    }

    #[test]
    fn materialized_round_trip() {
        let values: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let t = EmbeddingTable::materialized(spec(3, 4), values).unwrap();
        assert_eq!(t.row(1).unwrap(), vec![4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.value(2, 3).unwrap(), 11.0);
        assert!(t.is_materialized());
    }

    #[test]
    fn materialized_rejects_wrong_length() {
        assert!(matches!(
            EmbeddingTable::materialized(spec(3, 4), vec![0.0; 11]),
            Err(EmbeddingError::BufferSizeMismatch { expected: 12, actual: 11 })
        ));
    }

    #[test]
    fn to_materialized_preserves_contents() {
        let p = EmbeddingTable::procedural(spec(50, 6), 5);
        let m = p.to_materialized(u64::MAX).unwrap();
        for row in 0..50 {
            assert_eq!(p.row(row).unwrap(), m.row(row).unwrap());
        }
    }

    #[test]
    fn to_materialized_respects_limit() {
        let p = EmbeddingTable::procedural(spec(1_000_000, 64), 5);
        assert!(matches!(
            p.to_materialized(1024),
            Err(EmbeddingError::TooLargeToMaterialize { .. })
        ));
    }

    #[test]
    fn out_of_range_reads_fail() {
        let t = EmbeddingTable::procedural(spec(10, 4), 0);
        assert!(t.row(10).is_err());
        assert!(t.value(0, 4).is_err());
        assert!(t.value(10, 0).is_err());
        let mut small = [0.0f32; 3];
        assert!(matches!(
            t.read_row(0, &mut small),
            Err(EmbeddingError::BufferSizeMismatch { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn fill_rows_equals_read_row_per_row() {
        // Row widths below, at, between and at twice the fill's column
        // group of eight.
        for dim in [6u32, 8, 13, 16] {
            let p = EmbeddingTable::procedural(spec(50, dim), 5);
            let m = p.to_materialized(u64::MAX).unwrap();
            let dim = dim as usize;
            for table in [&p, &m] {
                for (start, rows) in [(0u64, 50usize), (7, 13), (49, 1), (50, 0), (3, 0)] {
                    let mut bulk = vec![f32::NAN; rows * dim];
                    table.fill_rows(start, &mut bulk).unwrap();
                    let mut row = vec![0.0f32; dim];
                    for (r, got) in (start..).zip(bulk.chunks_exact(dim)) {
                        table.read_row(r, &mut row).unwrap();
                        assert_eq!(got, row, "row {r}");
                        // Element by element, as `value` computes each one.
                        for (c, v) in (0..).zip(got) {
                            assert_eq!(v.to_bits(), table.value(r, c).unwrap().to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fill_rows_past_the_end_fails_like_read_row_and_writes_nothing() {
        let p = EmbeddingTable::procedural(spec(10, 4), 0);
        let m = p.to_materialized(u64::MAX).unwrap();
        let mut one = [0.0f32; 4];
        for table in [&p, &m] {
            // Rows 8, 9 exist, row 10 is the first that does not.
            let mut out = [7.0f32; 12];
            let want = table.read_row(10, &mut one).unwrap_err();
            assert_eq!(table.fill_rows(8, &mut out).unwrap_err(), want);
            assert_eq!(out, [7.0; 12]);
            // A range that starts past the end names its own first row.
            let want = table.read_row(12, &mut one).unwrap_err();
            assert_eq!(table.fill_rows(12, &mut out[..4]).unwrap_err(), want);
            assert!(table.fill_rows(u64::MAX, &mut out).is_err());
            assert!(matches!(
                table.fill_rows(0, &mut out[..7]),
                Err(EmbeddingError::BufferSizeMismatch { expected: 8, actual: 7 })
            ));
        }
    }

    #[test]
    fn giant_procedural_table_needs_no_memory() {
        // The large production model's 26M x 64 table: reading a row must
        // work without materializing 6.7 GB.
        let t = EmbeddingTable::procedural(spec(26_000_000, 64), 123);
        let row = t.row(25_999_999).unwrap();
        assert_eq!(row.len(), 64);
    }
}
