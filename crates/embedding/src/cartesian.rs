//! Cartesian products of embedding tables (§3.3, Figure 5).
//!
//! The product of tables A (n₁ rows, d₁ elements) and B (n₂ rows, d₂
//! elements) is a table with n₁·n₂ rows of d₁+d₂ elements where row
//! `i·n₂ + j` is the concatenation `A[i] ‖ B[j]`. One memory access then
//! retrieves both embedding vectors, halving the number of random DRAM
//! accesses at a storage cost of `n₁·n₂·(d₁+d₂)` versus `n₁·d₁ + n₂·d₂`.
//!
//! This module provides the index arithmetic (for any number of member
//! tables — the paper's heuristic only ever merges pairs, but the math is
//! general), spec-level product construction, storage-overhead accounting,
//! and physical materialization used to validate the identity bit-for-bit.

use crate::error::EmbeddingError;
use crate::precision::Precision;
use crate::spec::TableSpec;
use crate::table::EmbeddingTable;

/// Row index into the product table for one index per member table
/// (row-major: the first member varies slowest).
///
/// # Errors
///
/// Returns [`EmbeddingError::ArityMismatch`] if `indices.len() !=
/// sizes.len()` and [`EmbeddingError::IndexOutOfRange`] if any index
/// exceeds its member's row count.
///
/// # Examples
///
/// ```
/// use microrec_embedding::cartesian::merged_row_index;
///
/// // Figure 5: two 2-row tables; (A=1, B=0) lands on product row 2.
/// assert_eq!(merged_row_index(&[2, 2], &[1, 0])?, 2);
/// # Ok::<(), microrec_embedding::EmbeddingError>(())
/// ```
pub fn merged_row_index(sizes: &[u64], indices: &[u64]) -> Result<u64, EmbeddingError> {
    if sizes.len() != indices.len() {
        return Err(EmbeddingError::ArityMismatch { expected: sizes.len(), actual: indices.len() });
    }
    let mut merged: u64 = 0;
    for (k, (&n, &i)) in sizes.iter().zip(indices).enumerate() {
        if i >= n {
            return Err(EmbeddingError::IndexOutOfRange {
                table: format!("product member {k}"),
                index: i,
                rows: n,
            });
        }
        merged = merged.checked_mul(n).and_then(|m| m.checked_add(i)).ok_or_else(|| {
            EmbeddingError::InvalidMergePlan("product row count overflows u64".into())
        })?;
    }
    Ok(merged)
}

/// Inverse of [`merged_row_index`]: recovers the per-member indices.
///
/// # Errors
///
/// Returns [`EmbeddingError::IndexOutOfRange`] if `merged` is outside the
/// product.
pub fn unmerged_row_indices(sizes: &[u64], merged: u64) -> Result<Vec<u64>, EmbeddingError> {
    let total = product_rows(sizes)?;
    if merged >= total {
        return Err(EmbeddingError::IndexOutOfRange {
            table: "cartesian product".into(),
            index: merged,
            rows: total,
        });
    }
    let mut rem = merged;
    let mut out = vec![0u64; sizes.len()];
    for (slot, &n) in out.iter_mut().zip(sizes).rev() {
        *slot = rem % n;
        rem /= n;
    }
    Ok(out)
}

/// Number of rows in the product of tables with the given row counts.
///
/// # Errors
///
/// Returns [`EmbeddingError::DegenerateProduct`] for fewer than one size and
/// an overflow error if the product exceeds `u64`.
pub fn product_rows(sizes: &[u64]) -> Result<u64, EmbeddingError> {
    if sizes.is_empty() {
        return Err(EmbeddingError::DegenerateProduct);
    }
    sizes.iter().try_fold(1u64, |acc, &n| {
        acc.checked_mul(n)
            .ok_or(EmbeddingError::InvalidMergePlan("product row count overflows u64".into()))
    })
}

/// Spec of the Cartesian product of `members` (≥ 2 tables).
///
/// # Errors
///
/// Returns [`EmbeddingError::DegenerateProduct`] for fewer than two members.
pub fn product_spec(members: &[&TableSpec]) -> Result<TableSpec, EmbeddingError> {
    if members.len() < 2 {
        return Err(EmbeddingError::DegenerateProduct);
    }
    let sizes: Vec<u64> = members.iter().map(|t| t.rows).collect();
    let rows = product_rows(&sizes)?;
    let dim = members.iter().map(|t| t.dim).sum();
    let name = members.iter().map(|t| t.name.as_str()).collect::<Vec<_>>().join("x");
    Ok(TableSpec { name, rows, dim })
}

/// Extra bytes the product costs over keeping the members separate
/// (`0` can occur only in degenerate single-row cases).
///
/// # Errors
///
/// Propagates errors from [`product_spec`].
pub fn storage_overhead(
    members: &[&TableSpec],
    precision: Precision,
) -> Result<i64, EmbeddingError> {
    let product = product_spec(members)?.bytes(precision) as i64;
    let separate: i64 = members.iter().map(|t| t.bytes(precision) as i64).sum();
    Ok(product - separate)
}

/// Physically builds the product table from member contents.
///
/// Row `merged_row_index(sizes, [i₁..i_k])` of the result is the
/// concatenation of member rows `i₁..i_k` — the invariant the paper's data
/// structure rests on, validated bit-for-bit by the tests.
///
/// # Errors
///
/// Returns [`EmbeddingError::DegenerateProduct`] for fewer than two members
/// and [`EmbeddingError::TooLargeToMaterialize`] if the product exceeds
/// `limit_bytes`.
pub fn materialize_product(
    members: &[&EmbeddingTable],
    limit_bytes: u64,
) -> Result<EmbeddingTable, EmbeddingError> {
    let specs: Vec<&TableSpec> = members.iter().map(|t| t.spec()).collect();
    let spec = product_spec(&specs)?;
    let bytes = spec.bytes(Precision::F32);
    if bytes > limit_bytes {
        return Err(EmbeddingError::TooLargeToMaterialize {
            table: spec.name,
            bytes,
            limit: limit_bytes,
        });
    }
    let sizes: Vec<u64> = specs.iter().map(|t| t.rows).collect();
    let dim = spec.dim as usize;
    let mut values = vec![0.0f32; spec.rows as usize * dim];
    for merged in 0..spec.rows {
        let indices = unmerged_row_indices(&sizes, merged)?;
        let mut offset = merged as usize * dim;
        for (member, &idx) in members.iter().zip(&indices) {
            let d = member.dim() as usize;
            member.read_row(idx, &mut values[offset..offset + d])?;
            offset += d;
        }
    }
    EmbeddingTable::materialized(spec, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, rows: u64, dim: u32, seed: u64) -> EmbeddingTable {
        EmbeddingTable::procedural(TableSpec::new(name, rows, dim), seed)
    }

    #[test]
    fn figure5_example() {
        // Two 2-entry tables -> 4-entry product, row (i, j) = i*2 + j.
        assert_eq!(merged_row_index(&[2, 2], &[0, 0]).unwrap(), 0);
        assert_eq!(merged_row_index(&[2, 2], &[0, 1]).unwrap(), 1);
        assert_eq!(merged_row_index(&[2, 2], &[1, 0]).unwrap(), 2);
        assert_eq!(merged_row_index(&[2, 2], &[1, 1]).unwrap(), 3);
    }

    #[test]
    fn merged_and_unmerged_are_inverse() {
        let sizes = [3u64, 5, 7];
        for merged in 0..105 {
            let idx = unmerged_row_indices(&sizes, merged).unwrap();
            assert_eq!(merged_row_index(&sizes, &idx).unwrap(), merged);
        }
    }

    #[test]
    fn bad_indices_rejected() {
        assert!(merged_row_index(&[2, 2], &[2, 0]).is_err());
        assert!(merged_row_index(&[2, 2], &[0]).is_err());
        assert!(unmerged_row_indices(&[2, 2], 4).is_err());
        assert!(product_rows(&[]).is_err());
    }

    #[test]
    fn product_spec_shapes() {
        let a = TableSpec::new("a", 4, 3);
        let b = TableSpec::new("b", 5, 2);
        let p = product_spec(&[&a, &b]).unwrap();
        assert_eq!(p.rows, 20);
        assert_eq!(p.dim, 5);
        assert_eq!(p.name, "axb");
        assert!(product_spec(&[&a]).is_err());
    }

    #[test]
    fn materialized_product_rows_are_member_concatenations() {
        let a = table("a", 7, 3, 11);
        let b = table("b", 5, 4, 22);
        let p = materialize_product(&[&a, &b], u64::MAX).unwrap();
        assert_eq!(p.rows(), 35);
        assert_eq!(p.dim(), 7);
        for i in 0..7u64 {
            for j in 0..5u64 {
                let merged = merged_row_index(&[7, 5], &[i, j]).unwrap();
                let row = p.row(merged).unwrap();
                let mut expect = a.row(i).unwrap();
                expect.extend(b.row(j).unwrap());
                assert_eq!(row, expect, "product row ({i},{j}) mismatch");
            }
        }
    }

    #[test]
    fn three_way_product_also_concatenates() {
        let a = table("a", 2, 2, 1);
        let b = table("b", 3, 1, 2);
        let c = table("c", 2, 3, 3);
        let p = materialize_product(&[&a, &b, &c], u64::MAX).unwrap();
        assert_eq!(p.rows(), 12);
        assert_eq!(p.dim(), 6);
        let merged = merged_row_index(&[2, 3, 2], &[1, 2, 0]).unwrap();
        let mut expect = a.row(1).unwrap();
        expect.extend(b.row(2).unwrap());
        expect.extend(c.row(0).unwrap());
        assert_eq!(p.row(merged).unwrap(), expect);
    }

    #[test]
    fn overhead_matches_figure5_intuition() {
        // 100-row dim-4 tables: product = 10_000 x 8 vs 2 x 400 elements.
        let a = TableSpec::new("a", 100, 4);
        let b = TableSpec::new("b", 100, 4);
        let oh = storage_overhead(&[&a, &b], Precision::F32).unwrap();
        assert_eq!(oh, (10_000 * 8 - 800) * 4);
        // "tens of kilobytes ... almost negligible": ~317 KB at fp32.
        assert!(oh < 512 * 1024);
    }

    #[test]
    fn materialize_respects_limit() {
        let a = table("a", 10_000, 4, 1);
        let b = table("b", 10_000, 4, 2);
        assert!(matches!(
            materialize_product(&[&a, &b], 1024),
            Err(EmbeddingError::TooLargeToMaterialize { .. })
        ));
    }

    #[test]
    fn overflow_is_detected_not_wrapped() {
        let sizes = [u64::MAX, 3];
        assert!(product_rows(&sizes).is_err());
        assert!(merged_row_index(&sizes, &[u64::MAX - 1, 2]).is_err());
    }
}
