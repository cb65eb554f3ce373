//! Model and table specifications.
//!
//! The paper evaluates two production models from Alibaba (Table 1) and the
//! DLRM-RMC2 class from Facebook's recommendation benchmark (Table 5). The
//! production tables themselves are proprietary, so the presets here are
//! *synthetic reconstructions*: they match every published shape parameter —
//! table count, concatenated feature length, hidden-layer sizes, total model
//! size, and the size skew §2.2 describes (a few enormous id tables plus a
//! long tail of tiny ones) — which are the only quantities the paper's
//! results depend on.

use crate::error::EmbeddingError;
use crate::precision::Precision;

/// Specification of one embedding table.
///
/// # Examples
///
/// ```
/// use microrec_embedding::{Precision, TableSpec};
///
/// let t = TableSpec::new("user_id", 4_000_000, 32);
/// assert_eq!(t.row_bytes(Precision::F32), 128);
/// assert_eq!(t.bytes(Precision::F32), 4_000_000 * 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableSpec {
    /// Table name, unique within a model.
    pub name: String,
    /// Number of embedding vectors (entries).
    pub rows: u64,
    /// Embedding vector length (elements).
    pub dim: u32,
}

impl TableSpec {
    /// Creates a table spec.
    #[must_use]
    pub fn new(name: impl Into<String>, rows: u64, dim: u32) -> Self {
        TableSpec { name: name.into(), rows, dim }
    }

    /// Bytes of one embedding vector at `precision`.
    #[must_use]
    pub fn row_bytes(&self, precision: Precision) -> u32 {
        self.dim * precision.bytes()
    }

    /// Total storage of the table at `precision`.
    #[must_use]
    pub fn bytes(&self, precision: Precision) -> u64 {
        self.rows * u64::from(self.row_bytes(precision))
    }
}

/// Specification of a full deep recommendation model (Figure 1 of the
/// paper, without bottom fully-connected layers — the production models the
/// paper targets feed raw embeddings straight into the top MLP).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name.
    pub name: String,
    /// Every embedding table, in feature order.
    pub tables: Vec<TableSpec>,
    /// Dense input features concatenated as-is (0 for the production
    /// models, which encode everything through tables).
    pub dense_dim: u32,
    /// Bottom MLP widths processing the dense features before
    /// concatenation (empty = dense features pass through raw, the
    /// Wide&Deep / Alibaba style; non-empty = the Facebook/DLRM style of
    /// Gupta et al. 2020b).
    pub bottom_hidden: Vec<u32>,
    /// Hidden layer widths of the top MLP, e.g. `[1024, 512, 256]`.
    pub hidden: Vec<u32>,
    /// Vectors retrieved from each table per inference (1 for the
    /// production models, 4 for DLRM-RMC2).
    pub lookups_per_table: u32,
}

impl ModelSpec {
    /// Creates a model spec.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        tables: Vec<TableSpec>,
        hidden: Vec<u32>,
        lookups_per_table: u32,
    ) -> Self {
        ModelSpec {
            name: name.into(),
            tables,
            dense_dim: 0,
            bottom_hidden: Vec::new(),
            hidden,
            lookups_per_table,
        }
    }

    /// Whether the model processes dense features through a bottom MLP.
    #[must_use]
    pub fn has_bottom_mlp(&self) -> bool {
        !self.bottom_hidden.is_empty()
    }

    /// Width of the dense-feature contribution to the concatenated vector
    /// (the raw dense width, or the bottom MLP's output width).
    #[must_use]
    pub fn dense_output_dim(&self) -> u32 {
        *self.bottom_hidden.last().unwrap_or(&self.dense_dim)
    }

    /// Number of embedding tables.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Length of the concatenated feature vector fed to the top MLP.
    #[must_use]
    pub fn feature_len(&self) -> u32 {
        self.dense_output_dim()
            + self.tables.iter().map(|t| t.dim).sum::<u32>() * self.lookups_per_table
    }

    /// Embedding lookups per inference.
    #[must_use]
    pub fn lookups_per_item(&self) -> u32 {
        self.tables.len() as u32 * self.lookups_per_table
    }

    /// Total embedding storage at `precision`.
    #[must_use]
    pub fn total_bytes(&self, precision: Precision) -> u64 {
        self.tables.iter().map(|t| t.bytes(precision)).sum()
    }

    /// Multiply-accumulate *operations* of the top MLP per inference item,
    /// counting one multiply and one add each (the paper's GOP/s figures
    /// resolve to exactly this convention).
    #[must_use]
    pub fn flops_per_item(&self) -> u64 {
        let mut flops = 0u64;
        // Bottom MLP over the dense features, if any.
        let mut prev = u64::from(self.dense_dim);
        for &h in &self.bottom_hidden {
            flops += 2 * prev * u64::from(h);
            prev = u64::from(h);
        }
        let mut prev = u64::from(self.feature_len());
        for &h in &self.hidden {
            flops += 2 * prev * u64::from(h);
            prev = u64::from(h);
        }
        // Final CTR output neuron.
        flops += 2 * prev;
        flops
    }

    /// Checks internal consistency of the spec.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidMergePlan`] describing the problem if
    /// a table name repeats, any table is empty, or the MLP has no layers.
    pub fn validate(&self) -> Result<(), EmbeddingError> {
        let mut names: Vec<&str> = self.tables.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.tables.len() {
            return Err(EmbeddingError::InvalidMergePlan("duplicate table name".into()));
        }
        if self.tables.iter().any(|t| t.rows == 0 || t.dim == 0) {
            return Err(EmbeddingError::InvalidMergePlan("empty table".into()));
        }
        if self.hidden.is_empty() {
            return Err(EmbeddingError::InvalidMergePlan("model has no hidden layers".into()));
        }
        if self.lookups_per_table == 0 {
            return Err(EmbeddingError::InvalidMergePlan("lookups_per_table is zero".into()));
        }
        if self.has_bottom_mlp() && self.dense_dim == 0 {
            return Err(EmbeddingError::InvalidMergePlan(
                "a bottom MLP requires dense input features".into(),
            ));
        }
        Ok(())
    }

    /// The smaller Alibaba production model of Table 1: 47 tables, 352-dim
    /// concatenated feature, hidden layers (1024, 512, 256), ≈ 1.3 GB.
    ///
    /// Size tiers (synthetic, see module docs):
    /// * 3 id-scale tables of dim 32 (0.77 GB / 0.38 GB / 0.13 GB) that
    ///   dominate storage,
    /// * 4 × dim 16 and 8 × dim 8 mid-size tables,
    /// * 32 × dim 4 tail tables, of which the 8 smallest (60–250 rows) fit
    ///   the on-chip banks and the next 10 (380–660 rows) are the Cartesian
    ///   candidates the heuristic merges.
    #[must_use]
    pub fn small_production() -> Self {
        let mut tables = Vec::new();
        // Tier 1: dim 32 — account/item/category ids.
        for (i, rows) in [6_000_000u64, 3_000_000, 1_000_000].into_iter().enumerate() {
            tables.push(TableSpec::new(format!("big{i:02}_d32"), rows, 32));
        }
        // Tier 2: dim 16.
        for (i, rows) in [200_000u64, 100_000, 50_000, 20_000].into_iter().enumerate() {
            tables.push(TableSpec::new(format!("mid{i:02}_d16"), rows, 16));
        }
        // Tier 3: dim 8.
        for (i, rows) in [100_000u64, 50_000, 30_000, 20_000, 10_000, 5_000, 2_000, 1_000]
            .into_iter()
            .enumerate()
        {
            tables.push(TableSpec::new(format!("sml{i:02}_d8"), rows, 8));
        }
        // Tier 4: dim 4 tail — 14 moderate, 10 Cartesian candidates, 8 tiny.
        let moderate = [
            20_000u64, 16_000, 12_000, 10_000, 8_000, 6_000, 5_000, 4_000, 3_000, 2_500, 2_000,
            1_600, 1_200, 1_000,
        ];
        for (i, rows) in moderate.into_iter().enumerate() {
            tables.push(TableSpec::new(format!("tail{i:02}_d4"), rows, 4));
        }
        let candidates = [660u64, 630, 600, 570, 540, 500, 470, 440, 410, 380];
        for (i, rows) in candidates.into_iter().enumerate() {
            tables.push(TableSpec::new(format!("cand{i:02}_d4"), rows, 4));
        }
        let tiny = [250u64, 220, 190, 160, 130, 100, 80, 60];
        for (i, rows) in tiny.into_iter().enumerate() {
            tables.push(TableSpec::new(format!("tiny{i:02}_d4"), rows, 4));
        }
        ModelSpec::new("alibaba-small", tables, vec![1024, 512, 256], 1)
    }

    /// The larger Alibaba production model of Table 1: 98 tables, 876-dim
    /// concatenated feature, hidden layers (1024, 512, 256), ≈ 15.1 GB.
    ///
    /// Size tiers: 2 × dim 64 giants (7.7 GB / 5.9 GB, DDR-only), 4 × dim 32,
    /// 11 × dim 16, 30 × dim 8, and a 51-table dim-4 tail containing the 16
    /// on-chip residents (50–250 rows) and 28 Cartesian candidates
    /// (500–1 100 rows).
    #[must_use]
    pub fn large_production() -> Self {
        let mut tables = Vec::new();
        // Two DDR-only giants (user/item id scale); everything else fits a
        // 256 MB HBM pseudo-channel.
        for (i, rows) in [30_000_000u64, 23_000_000].into_iter().enumerate() {
            tables.push(TableSpec::new(format!("big{i:02}_d64"), rows, 64));
        }
        for (i, rows) in [1_900_000u64, 1_700_000, 1_500_000, 1_200_000].into_iter().enumerate() {
            tables.push(TableSpec::new(format!("big{i:02}_d32"), rows, 32));
        }
        for (i, rows) in [
            2_000_000u64,
            1_500_000,
            1_000_000,
            800_000,
            600_000,
            500_000,
            400_000,
            300_000,
            200_000,
            100_000,
            50_000,
        ]
        .into_iter()
        .enumerate()
        {
            tables.push(TableSpec::new(format!("mid{i:02}_d16"), rows, 16));
        }
        // 30 × dim 8: 200k down to 1k.
        let d8_rows = [
            200_000u64, 160_000, 130_000, 100_000, 80_000, 65_000, 50_000, 40_000, 32_000, 25_000,
            20_000, 16_000, 13_000, 10_000, 8_000, 6_500, 5_000, 4_000, 3_200, 2_500, 2_000, 1_800,
            1_600, 1_500, 1_400, 1_300, 1_200, 1_100, 1_050, 1_000,
        ];
        for (i, rows) in d8_rows.into_iter().enumerate() {
            tables.push(TableSpec::new(format!("sml{i:02}_d8"), rows, 8));
        }
        // 51 × dim 4: 7 moderate + 28 Cartesian candidates + 16 tiny.
        let moderate = [50_000u64, 30_000, 20_000, 10_000, 5_000, 3_000, 2_000];
        for (i, rows) in moderate.into_iter().enumerate() {
            tables.push(TableSpec::new(format!("tail{i:02}_d4"), rows, 4));
        }
        for i in 0..28u64 {
            // 1100 down to 500 rows in even steps.
            let rows = 1_100 - i * 22;
            tables.push(TableSpec::new(format!("cand{i:02}_d4"), rows, 4));
        }
        for i in 0..16u64 {
            // 250 down to 50 rows.
            let rows = 250 - i * 13;
            tables.push(TableSpec::new(format!("tiny{i:02}_d4"), rows, 4));
        }
        ModelSpec::new("alibaba-large", tables, vec![1024, 512, 256], 1)
    }

    /// A model of Facebook's DLRM-RMC2 class (Gupta et al. 2020b): `tables`
    /// small tables (8–12 in the benchmark) of vector length `dim`, each
    /// looked up 4 times per inference (§5.4.2).
    ///
    /// Table contents are unspecified by the benchmark; following the
    /// paper's own assumption, each table fits comfortably inside one HBM
    /// bank (we use 500 k rows, at most 128 MB at dim 64).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is zero or `dim` is zero.
    #[must_use]
    pub fn dlrm_rmc2(tables: usize, dim: u32) -> Self {
        assert!(tables > 0 && dim > 0, "dlrm_rmc2 requires tables > 0 and dim > 0");
        let specs = (0..tables)
            .map(|i| TableSpec::new(format!("rmc2_{i:02}_d{dim}"), 500_000, dim))
            .collect();
        ModelSpec::new(format!("dlrm-rmc2-{tables}t-d{dim}"), specs, vec![1024, 512, 256], 4)
    }

    /// A Facebook-style DLRM with a bottom MLP (Gupta et al. 2020b; the
    /// paper's Figure 1 mentions this variant even though its own
    /// production models omit bottom FCs): 13 Criteo-style dense features
    /// through a (512, 256, 64) bottom stack, concatenated with the
    /// embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is zero or `dim` is zero.
    #[must_use]
    pub fn dlrm_with_bottom(tables: usize, dim: u32) -> Self {
        let mut model = Self::dlrm_rmc2(tables, dim);
        model.name = format!("dlrm-bottom-{tables}t-d{dim}");
        model.dense_dim = 13;
        model.bottom_hidden = vec![512, 256, 64];
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn small_production_matches_table1() {
        let m = ModelSpec::small_production();
        m.validate().unwrap();
        assert_eq!(m.num_tables(), 47);
        assert_eq!(m.feature_len(), 352);
        assert_eq!(m.hidden, vec![1024, 512, 256]);
        let gb = m.total_bytes(Precision::F32) as f64 / GB;
        assert!((1.25..=1.4).contains(&gb), "small model is {gb:.2} GB, paper says 1.3 GB");
    }

    #[test]
    fn large_production_matches_table1() {
        let m = ModelSpec::large_production();
        m.validate().unwrap();
        assert_eq!(m.num_tables(), 98);
        assert_eq!(m.feature_len(), 876);
        let gb = m.total_bytes(Precision::F32) as f64 / GB;
        assert!((14.5..=15.7).contains(&gb), "large model is {gb:.2} GB, paper says 15.1 GB");
    }

    #[test]
    fn flops_match_paper_gops_figures() {
        // Paper Table 2: large model at B=2048 runs 56.98 ms and 111.89
        // GOP/s => 3.11 MOP/item. Small model: 28.18 ms, 147.65 GOP/s at
        // 72.7 k items/s => 2.03 MOP/item.
        let small = ModelSpec::small_production().flops_per_item() as f64;
        assert!((small / 2.03e6 - 1.0).abs() < 0.01, "small = {small:.3e}");
        let large = ModelSpec::large_production().flops_per_item() as f64;
        assert!((large / 3.105e6 - 1.0).abs() < 0.01, "large = {large:.3e}");
    }

    #[test]
    fn size_skew_matches_section_2_2() {
        // "some tables only consist of ~100 4-dimensional vectors, large
        // tables contain up to hundreds of millions of entries": the largest
        // table must dominate total storage.
        for m in [ModelSpec::small_production(), ModelSpec::large_production()] {
            let total = m.total_bytes(Precision::F32);
            let biggest = m.tables.iter().map(|t| t.bytes(Precision::F32)).max().unwrap();
            assert!(
                biggest as f64 > 0.3 * total as f64,
                "{}: biggest table should dominate",
                m.name
            );
            let smallest = m.tables.iter().map(|t| t.bytes(Precision::F32)).min().unwrap();
            assert!(smallest < 8 * 1024, "{}: tail tables should be tiny", m.name);
        }
    }

    #[test]
    fn dlrm_rmc2_has_4_lookups_per_table() {
        let m = ModelSpec::dlrm_rmc2(8, 16);
        m.validate().unwrap();
        assert_eq!(m.lookups_per_item(), 32);
        assert_eq!(m.feature_len(), 8 * 16 * 4);
        let m12 = ModelSpec::dlrm_rmc2(12, 64);
        assert_eq!(m12.lookups_per_item(), 48);
        // Every table fits one 256 MB HBM bank, the paper's assumption.
        for t in &m12.tables {
            assert!(t.bytes(Precision::F32) <= 256 * 1024 * 1024);
        }
    }

    #[test]
    fn fixed16_halves_storage() {
        let m = ModelSpec::small_production();
        assert_eq!(m.total_bytes(Precision::Fixed16) * 2, m.total_bytes(Precision::F32));
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut m = ModelSpec::small_production();
        m.tables[1].name = m.tables[0].name.clone();
        assert!(m.validate().is_err());

        let mut m = ModelSpec::small_production();
        m.tables[0].rows = 0;
        assert!(m.validate().is_err());

        let mut m = ModelSpec::small_production();
        m.hidden.clear();
        assert!(m.validate().is_err());

        let mut m = ModelSpec::small_production();
        m.lookups_per_table = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn table_spec_byte_math() {
        let t = TableSpec::new("t", 1000, 16);
        assert_eq!(t.row_bytes(Precision::F32), 64);
        assert_eq!(t.row_bytes(Precision::Fixed16), 32);
        assert_eq!(t.bytes(Precision::F32), 64_000);
    }
}

microrec_json::impl_json_struct!(TableSpec, required { name, rows, dim });
microrec_json::impl_json_struct!(
    ModelSpec,
    required { name, tables, dense_dim, hidden, lookups_per_table },
    default { bottom_hidden }
);
