//! The table catalog: logical tables, merge plans, and physical lookups.
//!
//! A *logical* table is one sparse feature's embedding table as the model
//! defines it. A *physical* table is what actually sits in a memory bank —
//! either a single logical table or a Cartesian product of several. The
//! catalog maps a query (one row index per logical table) to the minimal
//! set of physical reads and gathers the concatenated feature vector, in
//! logical order, regardless of how tables were merged. Merging is thus
//! transparent to the model: merged and unmerged catalogs produce identical
//! feature vectors.

use crate::cartesian::{merged_row, product_spec};
use crate::error::EmbeddingError;
use crate::precision::Precision;
use crate::spec::{ModelSpec, TableSpec};
use crate::table::EmbeddingTable;

/// Which logical tables to merge into Cartesian products.
///
/// Each group lists ≥ 2 logical table indices; groups must be disjoint.
/// Logical tables in no group remain their own physical table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergePlan {
    /// Groups of logical table indices to merge, in product-member order.
    pub groups: Vec<Vec<usize>>,
}

impl MergePlan {
    /// The empty plan: no merging.
    #[must_use]
    pub fn none() -> Self {
        MergePlan::default()
    }

    /// A plan merging the given pairs.
    #[must_use]
    pub fn pairs(pairs: &[(usize, usize)]) -> Self {
        MergePlan { groups: pairs.iter().map(|&(a, b)| vec![a, b]).collect() }
    }

    /// Number of tables eliminated by the plan (Σ (group size − 1)).
    #[must_use]
    pub fn tables_eliminated(&self) -> usize {
        self.groups.iter().map(|g| g.len().saturating_sub(1)).sum()
    }

    /// Validates the plan against a model with `num_tables` logical tables.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidMergePlan`] if any group has fewer
    /// than two members, indices repeat (within or across groups), or an
    /// index is out of range.
    pub fn validate(&self, num_tables: usize) -> Result<(), EmbeddingError> {
        let mut seen = vec![false; num_tables];
        for group in &self.groups {
            if group.len() < 2 {
                return Err(EmbeddingError::InvalidMergePlan(
                    "merge group has fewer than two members".into(),
                ));
            }
            for &idx in group {
                if idx >= num_tables {
                    return Err(EmbeddingError::InvalidMergePlan(format!(
                        "table index {idx} out of range ({num_tables} tables)"
                    )));
                }
                if seen[idx] {
                    return Err(EmbeddingError::InvalidMergePlan(format!(
                        "table index {idx} used twice"
                    )));
                }
                seen[idx] = true;
            }
        }
        Ok(())
    }
}

/// One physical table: a single logical table or a Cartesian product.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalTable {
    /// Spec of what is stored (product spec for merged tables).
    pub spec: TableSpec,
    /// Logical table indices whose vectors live in each row, in
    /// concatenation order.
    pub members: Vec<usize>,
}

impl PhysicalTable {
    /// Whether this is a Cartesian product of several logical tables.
    #[must_use]
    pub fn is_merged(&self) -> bool {
        self.members.len() > 1
    }

    /// Bytes of one stored row at `precision`.
    #[must_use]
    pub fn row_bytes(&self, precision: Precision) -> u32 {
        self.spec.row_bytes(precision)
    }
}

/// One physical read produced by query resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalLookup {
    /// Index into [`Catalog::physical_tables`].
    pub table: usize,
    /// Row within the physical table.
    pub row: u64,
}

/// The catalog of a model's tables under a merge plan.
///
/// # Examples
///
/// ```
/// use microrec_embedding::{Catalog, MergePlan, ModelSpec};
///
/// let spec = ModelSpec::dlrm_rmc2(8, 16);
/// let catalog = Catalog::build(&spec, &MergePlan::none(), 42)?;
/// assert_eq!(catalog.physical_tables().len(), 8);
/// // One read per logical table:
/// let indices = vec![0u64; 8];
/// assert_eq!(catalog.resolve(&indices)?.len(), 8);
/// # Ok::<(), microrec_embedding::EmbeddingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Catalog {
    logical: Vec<EmbeddingTable>,
    physical: Vec<PhysicalTable>,
    /// logical index -> (physical index, element offset within physical row,
    /// position among the physical table's members).
    logical_map: Vec<(usize, u32, usize)>,
    feature_len: u32,
}

impl Catalog {
    /// Builds the catalog for `model` under `plan`, generating procedural
    /// logical tables from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidMergePlan`] if the plan does not fit
    /// the model.
    pub fn build(model: &ModelSpec, plan: &MergePlan, seed: u64) -> Result<Self, EmbeddingError> {
        let tables: Vec<EmbeddingTable> = model
            .tables
            .iter()
            .enumerate()
            .map(|(i, spec)| EmbeddingTable::procedural(spec.clone(), seed.wrapping_add(i as u64)))
            .collect();
        Self::from_tables(tables, plan)
    }

    /// Builds the catalog from explicit logical tables under `plan`.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidMergePlan`] if the plan does not fit
    /// the tables.
    pub fn from_tables(
        logical: Vec<EmbeddingTable>,
        plan: &MergePlan,
    ) -> Result<Self, EmbeddingError> {
        plan.validate(logical.len())?;
        let mut in_group = vec![false; logical.len()];
        for group in &plan.groups {
            for &idx in group {
                in_group[idx] = true;
            }
        }

        let mut physical = Vec::new();
        let mut logical_map = vec![(usize::MAX, 0u32, 0usize); logical.len()];

        // Merged groups first, then remaining singles in logical order.
        for group in &plan.groups {
            let specs: Vec<&TableSpec> = group.iter().map(|&i| logical[i].spec()).collect();
            let spec = product_spec(&specs)?;
            let phys_idx = physical.len();
            let mut offset = 0u32;
            for (pos, &lidx) in group.iter().enumerate() {
                logical_map[lidx] = (phys_idx, offset, pos);
                offset += logical[lidx].dim();
            }
            physical.push(PhysicalTable { spec, members: group.clone() });
        }
        for (lidx, table) in logical.iter().enumerate() {
            if !in_group[lidx] {
                logical_map[lidx] = (physical.len(), 0, 0);
                physical.push(PhysicalTable { spec: table.spec().clone(), members: vec![lidx] });
            }
        }

        let feature_len = logical.iter().map(EmbeddingTable::dim).sum();
        Ok(Catalog { logical, physical, logical_map, feature_len })
    }

    /// The logical tables, in model order.
    #[must_use]
    pub fn logical_tables(&self) -> &[EmbeddingTable] {
        &self.logical
    }

    /// The physical tables (products first, then unmerged singles).
    #[must_use]
    pub fn physical_tables(&self) -> &[PhysicalTable] {
        &self.physical
    }

    /// Where logical table `idx` lives: `(physical index, element offset)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn locate(&self, idx: usize) -> (usize, u32) {
        let (p, off, _) = self.logical_map[idx];
        (p, off)
    }

    /// Concatenated feature length (Σ logical dims) for one lookup round.
    #[must_use]
    pub fn feature_len(&self) -> u32 {
        self.feature_len
    }

    /// Resolves one query (a row index per logical table) into the minimal
    /// physical reads: exactly one read per physical table.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::ArityMismatch`] for the wrong number of
    /// indices and [`EmbeddingError::IndexOutOfRange`] for a bad index.
    pub fn resolve(&self, indices: &[u64]) -> Result<Vec<PhysicalLookup>, EmbeddingError> {
        let mut lookups = Vec::with_capacity(self.physical.len());
        self.resolve_with(indices, |lookup| lookups.push(lookup))?;
        Ok(lookups)
    }

    /// [`Catalog::resolve`] handing each lookup to `visit` in physical
    /// table order instead of collecting them, so a caller resolving many
    /// queries allocates nothing. On an error `visit` may have seen some
    /// of the query's lookups.
    ///
    /// # Errors
    ///
    /// Same as [`Catalog::resolve`].
    pub fn resolve_with(
        &self,
        indices: &[u64],
        mut visit: impl FnMut(PhysicalLookup),
    ) -> Result<(), EmbeddingError> {
        if indices.len() != self.logical.len() {
            return Err(EmbeddingError::ArityMismatch {
                expected: self.logical.len(),
                actual: indices.len(),
            });
        }
        for (pidx, phys) in self.physical.iter().enumerate() {
            let members = phys.members.iter().map(|&i| (self.logical[i].rows(), indices[i]));
            visit(PhysicalLookup { table: pidx, row: merged_row(members)? });
        }
        Ok(())
    }

    /// Functionally gathers the concatenated feature vector for a query, in
    /// logical table order (merging is invisible to the caller).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::ArityMismatch`],
    /// [`EmbeddingError::IndexOutOfRange`], or
    /// [`EmbeddingError::BufferSizeMismatch`] if `out.len()` is not
    /// [`Catalog::feature_len`].
    pub fn gather(&self, indices: &[u64], out: &mut [f32]) -> Result<(), EmbeddingError> {
        if out.len() != self.feature_len as usize {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: self.feature_len as usize,
                actual: out.len(),
            });
        }
        if indices.len() != self.logical.len() {
            return Err(EmbeddingError::ArityMismatch {
                expected: self.logical.len(),
                actual: indices.len(),
            });
        }
        // Validate every index (so merged/unmerged error behaviour agrees),
        // then write each logical vector to its slot in logical order.
        let mut offset = 0usize;
        for (lidx, table) in self.logical.iter().enumerate() {
            let dim = table.dim() as usize;
            table.read_row(indices[lidx], &mut out[offset..offset + dim])?;
            offset += dim;
        }
        Ok(())
    }

    /// Convenience wrapper around [`Catalog::gather`] that allocates.
    ///
    /// # Errors
    ///
    /// Same as [`Catalog::gather`].
    pub fn gather_vec(&self, indices: &[u64]) -> Result<Vec<f32>, EmbeddingError> {
        let mut out = vec![0.0f32; self.feature_len as usize];
        self.gather(indices, &mut out)?;
        Ok(out)
    }

    /// Total physical storage at `precision`.
    #[must_use]
    pub fn total_bytes(&self, precision: Precision) -> u64 {
        self.physical.iter().map(|p| p.spec.bytes(precision)).sum()
    }

    /// Storage of the unmerged logical tables at `precision` (the baseline
    /// for overhead accounting).
    #[must_use]
    pub fn logical_bytes(&self, precision: Precision) -> u64 {
        self.logical.iter().map(|t| t.spec().bytes(precision)).sum()
    }

    /// Storage overhead factor of the merge plan (1.0 = no overhead);
    /// Table 3 reports 1.032 and 1.019 for the production models.
    #[must_use]
    pub fn storage_factor(&self, precision: Precision) -> f64 {
        self.total_bytes(precision) as f64 / self.logical_bytes(precision) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_tables() -> Vec<EmbeddingTable> {
        vec![
            EmbeddingTable::procedural(TableSpec::new("a", 4, 2), 1),
            EmbeddingTable::procedural(TableSpec::new("b", 3, 3), 2),
            EmbeddingTable::procedural(TableSpec::new("c", 5, 1), 3),
            EmbeddingTable::procedural(TableSpec::new("d", 2, 4), 4),
        ]
    }

    #[test]
    fn unmerged_catalog_is_identity() {
        let cat = Catalog::from_tables(tiny_tables(), &MergePlan::none()).unwrap();
        assert_eq!(cat.physical_tables().len(), 4);
        assert_eq!(cat.feature_len(), 10);
        let lookups = cat.resolve(&[1, 2, 3, 0]).unwrap();
        assert_eq!(lookups.len(), 4);
        assert_eq!(lookups[2], PhysicalLookup { table: 2, row: 3 });
    }

    #[test]
    fn merged_catalog_reduces_reads() {
        let plan = MergePlan::pairs(&[(0, 2)]);
        let cat = Catalog::from_tables(tiny_tables(), &plan).unwrap();
        assert_eq!(cat.physical_tables().len(), 3);
        let lookups = cat.resolve(&[1, 2, 3, 0]).unwrap();
        assert_eq!(lookups.len(), 3);
        // Merged read: row = 1 * 5 + 3 = 8 in the 20-row product.
        assert_eq!(lookups[0], PhysicalLookup { table: 0, row: 8 });
        let p = &cat.physical_tables()[0];
        assert!(p.is_merged());
        assert_eq!(p.spec.rows, 20);
        assert_eq!(p.spec.dim, 3);
    }

    #[test]
    fn gather_is_merge_invariant() {
        let indices = [3u64, 1, 4, 1];
        let unmerged = Catalog::from_tables(tiny_tables(), &MergePlan::none()).unwrap();
        let merged =
            Catalog::from_tables(tiny_tables(), &MergePlan::pairs(&[(0, 2), (1, 3)])).unwrap();
        assert_eq!(
            unmerged.gather_vec(&indices).unwrap(),
            merged.gather_vec(&indices).unwrap(),
            "merging must not change the feature vector"
        );
    }

    #[test]
    fn storage_factor_accounts_products() {
        let plan = MergePlan::pairs(&[(0, 2)]);
        let cat = Catalog::from_tables(tiny_tables(), &plan).unwrap();
        // a: 4x2=8, c: 5x1=5 -> product 20x3=60 elements; b 9, d 8.
        let factor = cat.storage_factor(Precision::F32);
        let expect = (60.0 + 9.0 + 8.0) / (8.0 + 9.0 + 5.0 + 8.0);
        assert!((factor - expect).abs() < 1e-12);
    }

    #[test]
    fn plan_validation_catches_misuse() {
        assert!(MergePlan::pairs(&[(0, 0)]).validate(4).is_err());
        assert!(MergePlan::pairs(&[(0, 1), (1, 2)]).validate(4).is_err());
        assert!(MergePlan::pairs(&[(0, 9)]).validate(4).is_err());
        assert!(MergePlan { groups: vec![vec![2]] }.validate(4).is_err());
        assert!(MergePlan::pairs(&[(0, 1), (2, 3)]).validate(4).is_ok());
        assert_eq!(MergePlan { groups: vec![vec![0, 1, 2]] }.tables_eliminated(), 2);
    }

    #[test]
    fn resolve_rejects_bad_queries() {
        let cat = Catalog::from_tables(tiny_tables(), &MergePlan::none()).unwrap();
        assert!(matches!(
            cat.resolve(&[0, 0, 0]),
            Err(EmbeddingError::ArityMismatch { expected: 4, actual: 3 })
        ));
        assert!(cat.resolve(&[0, 0, 0, 5]).is_err(), "index 5 exceeds table d (2 rows)");
    }

    #[test]
    fn gather_checks_buffer_size() {
        let cat = Catalog::from_tables(tiny_tables(), &MergePlan::none()).unwrap();
        let mut small = vec![0.0f32; 9];
        assert!(matches!(
            cat.gather(&[0, 0, 0, 0], &mut small),
            Err(EmbeddingError::BufferSizeMismatch { expected: 10, actual: 9 })
        ));
    }

    #[test]
    fn build_from_model_spec() {
        let model = ModelSpec::dlrm_rmc2(8, 4);
        let cat = Catalog::build(&model, &MergePlan::none(), 7).unwrap();
        assert_eq!(cat.logical_tables().len(), 8);
        assert_eq!(cat.feature_len(), 32);
        // Different seeds give different contents.
        let cat2 = Catalog::build(&model, &MergePlan::none(), 8).unwrap();
        let a = cat.gather_vec(&[0; 8]).unwrap();
        let b = cat2.gather_vec(&[0; 8]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn physical_row_matches_materialized_product() {
        // The catalog's resolve() row index must agree with a physically
        // materialized product table.
        let tables = tiny_tables();
        let plan = MergePlan::pairs(&[(1, 3)]);
        let cat = Catalog::from_tables(tables.clone(), &plan).unwrap();
        let product =
            crate::cartesian::materialize_product(&[&tables[1], &tables[3]], u64::MAX).unwrap();
        let indices = [0u64, 2, 0, 1];
        let lookups = cat.resolve(&indices).unwrap();
        let merged_row = lookups[0].row;
        let from_product = product.row(merged_row).unwrap();
        let mut expect = tables[1].row(2).unwrap();
        expect.extend(tables[3].row(1).unwrap());
        assert_eq!(from_product, expect);
    }
}

microrec_json::impl_json_struct!(MergePlan, required { groups });
