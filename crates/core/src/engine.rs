//! The served MicroRec engine: the model's embedding rows in a CPU row
//! store and the MLP at the datapath precision, the accelerator's
//! fixed-point DNN datapath sharing weights with the `f32` reference.
//!
//! The engine runs no placement search, places no simulated memory and
//! builds no accelerator pipeline: those model the paper's U280 and live in
//! the [`Simulator`]. Its row store is a CPU decision: an
//! [`EmbeddingArena`] with one 64-byte-aligned block per logical table, a
//! [`TieredStore`] over such an arena and a cold file, or, with no store
//! configured, the unmerged logical tables themselves.
//!
//! [`MicroRec::predict`] is the reference path: one item's features
//! gathered into an `f32` vector, each value rounded to the datapath's grid
//! and back, then the unpacked MLP. [`MicroRec::predict_batch`] is the
//! served path, built at [`MicroRecBuilder::build`] for the engine's fixed
//! precision: each item's rows are gathered a lookup round at a time and
//! quantized once, straight into a batch-major staging matrix at the
//! datapath type, and the packed MLP runs once per batch. The two are
//! bit-identical.

use std::sync::{Arc, OnceLock};

use microrec_dnn::{FixedNum, Mlp, PackedMlp, ScratchArena, Q16, Q32};
use microrec_embedding::{
    synthetic_dense_features, synthetic_dense_features_into, Catalog, EmbeddingArena, MergePlan,
    ModelSpec, Precision, RowFormat, TierCounters, TieredBacking, TieredStore,
};
use microrec_memsim::SimTime;
use microrec_placement::HeuristicOptions;

use crate::error::MicroRecError;
use crate::simulator::Simulator;

/// Builder for a [`MicroRec`] engine.
///
/// # Examples
///
/// ```
/// use microrec_core::MicroRec;
/// use microrec_embedding::{ModelSpec, Precision};
///
/// let mut engine = MicroRec::builder(ModelSpec::dlrm_rmc2(8, 4))
///     .precision(Precision::Fixed16)
///     .seed(7)
///     .build()?;
/// let query = vec![42u64; 8 * 4];
/// let ctr = engine.predict(&query)?;
/// assert!(ctr > 0.0 && ctr < 1.0);
/// # Ok::<(), microrec_core::MicroRecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MicroRecBuilder {
    model: ModelSpec,
    precision: Precision,
    seed: u64,
    /// Whether to serve from an [`EmbeddingArena`] (ignored when tiered).
    arena: bool,
    shared_arena: Option<Arc<EmbeddingArena>>,
    tiered_budget: Option<u64>,
    shared_tiered: Option<Arc<TieredBacking>>,
}

impl MicroRecBuilder {
    /// Starts a builder for `model` with fixed-16 datapath precision and
    /// 32-bit embedding storage (the paper keeps "the same element data
    /// width of 32-bits" in memory for both precisions, Table 4).
    #[must_use]
    pub fn new(model: ModelSpec) -> Self {
        MicroRecBuilder {
            model,
            precision: Precision::Fixed16,
            seed: 0x00AC_CE55,
            arena: false,
            shared_arena: None,
            tiered_budget: None,
            shared_tiered: None,
        }
    }

    /// Sets the datapath precision.
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the RNG seed for table contents and weights.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Materializes the logical tables into a contiguous, 64-byte-aligned
    /// [`EmbeddingArena`] (one `f32` block per logical table), replacing
    /// procedural per-element hashing on the functional gather path. Reads
    /// are bit-identical to the catalog's: `format` has the one value
    /// [`RowFormat::F32`], the paper's 32-bit element.
    #[must_use]
    pub fn embedding_arena(mut self, format: RowFormat) -> Self {
        let RowFormat::F32 = format;
        self.arena = true;
        self
    }

    /// Inert: no engine serves through a hot-row cache any more, every row
    /// comes from the arena or the tiered store whatever `rows` says. Kept,
    /// and storing nothing, only because the frozen perf ledger calls
    /// `hot_row_cache(65_536)`.
    #[must_use]
    pub fn hot_row_cache(self, _rows: usize) -> Self {
        self
    }

    /// Uses an existing read-only arena instead of materializing a new one
    /// per engine. Replicas built from clones of this builder then share
    /// one arena allocation.
    #[must_use]
    pub fn shared_arena(mut self, arena: Arc<EmbeddingArena>) -> Self {
        self.arena = true;
        self.shared_arena = Some(arena);
        self
    }

    /// Serves embeddings through the three-tier parameter store instead of
    /// a single all-resident arena: whole tables are admitted to a
    /// budget-capped resident [`EmbeddingArena`] (smallest first — the
    /// greedy optimum for once-per-round table traffic) and the rest are
    /// written to a file-backed cold tier read via positioned `pread` on
    /// the serving thread. Output is bit-identical to
    /// [`MicroRecBuilder::embedding_arena`] at any budget; `format` has the
    /// one value [`RowFormat::F32`].
    #[must_use]
    pub fn tiered_storage(mut self, budget_bytes: u64, format: RowFormat) -> Self {
        let RowFormat::F32 = format;
        self.tiered_budget = Some(budget_bytes);
        self
    }

    /// Inert: there is no cold-tier prefetcher any more, every cold row is
    /// one `pread` on the serving thread whatever `workers` says. Kept, and
    /// storing nothing, only because the frozen perf ledger calls
    /// `prefetch_workers(0)`.
    #[must_use]
    pub fn prefetch_workers(self, _workers: usize) -> Self {
        self
    }

    /// Builds this configuration's row store once and installs it as the
    /// shared arena (or tiered backing), so every subsequent
    /// [`MicroRecBuilder::build`] (on this builder or its clones) reuses the
    /// same allocation. Builds no engine: only the store. No-op when no
    /// store is configured or a shared one is already set.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the model is inconsistent or the store
    /// cannot be built.
    pub fn prepare_shared_arena(&mut self) -> Result<(), MicroRecError> {
        let fresh = match self.tiered_budget {
            Some(_) => self.shared_tiered.is_none(),
            None => self.arena && self.shared_arena.is_none(),
        };
        if !fresh {
            return Ok(());
        }
        self.model.validate()?;
        let catalog = Catalog::build(&self.model, &MergePlan::none(), self.seed)?;
        let tables = catalog.logical_tables();
        if let Some(budget) = self.tiered_budget {
            self.shared_tiered = Some(TieredBacking::build(tables, budget)?);
        } else {
            self.shared_arena = Some(Arc::new(EmbeddingArena::build(tables)?));
        }
        Ok(())
    }

    /// Assembles the engine: the model's logical tables, its row store and
    /// its MLPs.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the model is inconsistent, a shared
    /// store does not match it, or its row store cannot be built.
    pub fn build(self) -> Result<MicroRec, MicroRecError> {
        self.model.validate()?;
        let catalog = Catalog::build(&self.model, &MergePlan::none(), self.seed)?;

        // Embedding fast path: a tiered parameter store or a shared or
        // freshly materialized all-resident arena.
        let mut arena: Option<Arc<EmbeddingArena>> = None;
        let mut tiered: Option<TieredStore> = None;
        if let Some(shared) = &self.shared_tiered {
            if !shared.matches(catalog.logical_tables()) {
                return Err(MicroRecError::Runtime(
                    "shared tiered backing does not match the model's tables".into(),
                ));
            }
            tiered = Some(TieredStore::new(Arc::clone(shared)));
        } else if let Some(budget) = self.tiered_budget {
            let backing = TieredBacking::build(catalog.logical_tables(), budget)?;
            tiered = Some(TieredStore::new(backing));
        } else {
            arena = match (&self.shared_arena, self.arena) {
                (Some(shared), _) => {
                    if !shared.matches(catalog.logical_tables()) {
                        return Err(MicroRecError::Runtime(
                            "shared embedding arena does not match the model's tables".into(),
                        ));
                    }
                    Some(Arc::clone(shared))
                }
                (None, true) => Some(Arc::new(EmbeddingArena::build(catalog.logical_tables())?)),
                (None, false) => None,
            };
        }
        // Per-table offsets into one round's concatenated feature slice,
        // sized once here so the tiered gather never allocates.
        let feature_offsets: Vec<usize> = catalog
            .logical_tables()
            .iter()
            .scan(0usize, |acc, t| {
                let offset = *acc;
                *acc += t.dim() as usize;
                Some(offset)
            })
            .collect();

        let mlp = Mlp::top_mlp(self.model.feature_len(), &self.model.hidden, self.seed ^ 0x5EED)?;
        let bottom = if self.model.has_bottom_mlp() {
            Some(Mlp::bottom_mlp(
                self.model.dense_dim,
                &self.model.bottom_hidden,
                self.seed ^ 0x5EED,
            )?)
        } else {
            None
        };

        let rows = RowStore { catalog, arena, tiered, feature_offsets };
        let round_buffer = rows.round_len().max(self.model.dense_dim as usize);
        let batch_path = BatchPath::build(self.precision, &mlp, bottom.as_ref(), round_buffer);
        Ok(MicroRec {
            model: self.model,
            precision: self.precision,
            rows,
            mlp,
            bottom,
            batch_path,
            simulator: OnceLock::new(),
        })
    }
}

/// Where the engine's rows come from: the tiered store, the arena, or the
/// logical tables' own reads when no store is built.
#[derive(Debug, Clone)]
struct RowStore {
    /// The unmerged logical tables: what the arena and the tiered store
    /// are built from, and the gather when neither is configured.
    catalog: Catalog,
    arena: Option<Arc<EmbeddingArena>>,
    tiered: Option<TieredStore>,
    feature_offsets: Vec<usize>,
}

impl RowStore {
    /// Elements of one lookup round's concatenated rows.
    fn round_len(&self) -> usize {
        self.catalog.feature_len() as usize
    }

    /// Gathers one lookup round's concatenated feature slice. The store
    /// changes where the bytes come from — a resident or cold arena-layout
    /// row vs. a procedural/materialized table read — never what they are,
    /// so all three are bit-identical.
    fn gather_round(&mut self, indices: &[u64], out: &mut [f32]) -> Result<(), MicroRecError> {
        if let Some(tiered) = self.tiered.as_mut() {
            return Ok(tiered.gather_round(indices, &self.feature_offsets, out)?);
        }
        let Some(arena) = self.arena.as_deref() else {
            return Ok(self.catalog.gather(indices, out)?);
        };
        Ok(arena.gather_into(indices, out)?)
    }
}

/// A datapath type the engine serves at, and how one gathered lookup round
/// enters the staging matrix at it: bit-identical to the reference path,
/// which rounds each value to the datapath's grid and back to `f32`
/// ([`MicroRec::gather_features_into`]), then converts it again for the
/// MLP.
trait Datapath: FixedNum {
    /// Writes `round` into `row` (of the same length) as the reference
    /// path's two conversions leave it.
    fn stage(round: &[f32], row: &mut [Self]);
}

impl Datapath for f32 {
    /// Both conversions are the identity: a copy.
    fn stage(round: &[f32], row: &mut [f32]) {
        row.copy_from_slice(round);
    }
}

impl Datapath for Q16 {
    /// A Q2.13 value is exact in `f32`, so the second rounding returns the
    /// first: one vectorized pass.
    fn stage(round: &[f32], row: &mut [Q16]) {
        Q16::quantize_into(round, row);
    }
}

impl Datapath for Q32 {
    /// `i32 as f32` rounds a raw value past 2²⁴ (|x| ≥ 2), where the second
    /// rounding can move it: both, per element. No workload serves Q8.23.
    fn stage(round: &[f32], row: &mut [Q32]) {
        for (slot, &v) in row.iter_mut().zip(round) {
            *slot = Q32::from_f32(Q32::from_f32(v).to_f32());
        }
    }
}

/// The batched fast path at the datapath type `T`, built by
/// [`MicroRecBuilder::build`]: the packed MLPs (weights quantized once), a
/// reused scratch arena, the batch-major staging matrix the gather writes
/// each item's features into at `T`, and a buffer for one lookup round's
/// `f32` rows. Once a batch has run, a batch no larger asks the heap only
/// for its output `Vec`.
#[derive(Debug, Clone)]
struct FastPath<T> {
    top: PackedMlp<T>,
    /// The dense branch's bottom MLP, when the model has one.
    bottom: Option<PackedMlp<T>>,
    arena: ScratchArena<T>,
    /// `batch × feature_len`: row `i` is item `i`'s dense columns, then its
    /// lookup rounds in order.
    staging: Vec<T>,
    /// `batch × dense_dim`: the raw dense features at `T`, the bottom MLP's
    /// input.
    dense: Vec<T>,
    /// One lookup round's rows as stored, or one item's raw dense
    /// features: `max(round_len, dense_dim)` elements, L1 sized.
    round: Vec<f32>,
}

impl<T: Datapath> FastPath<T> {
    fn build(mlp: &Mlp, bottom: Option<&Mlp>, round_buffer: usize) -> Self {
        FastPath {
            top: PackedMlp::pack(mlp),
            bottom: bottom.map(PackedMlp::pack),
            arena: ScratchArena::new(),
            staging: Vec::new(),
            dense: Vec::new(),
            round: vec![0.0; round_buffer],
        }
    }

    /// Writes every item of `queries` (arity already checked) into its
    /// staging row — the dense columns, then each lookup round gathered
    /// into the round buffer and quantized straight into its columns — and
    /// runs the packed MLP once for the batch; returns the de-quantized
    /// CTRs in query order.
    fn run(
        &mut self,
        rows: &mut RowStore,
        model: &ModelSpec,
        queries: &[Vec<u64>],
    ) -> Result<Vec<f32>, MicroRecError> {
        let (batch, width) = (queries.len(), self.top.input_dim());
        let (tables, rounds) = (model.num_tables(), model.lookups_per_table as usize);
        let round_len = rows.round_len();
        // The dense branch's output width: the first columns of a row.
        let dense_len = width - rounds * round_len;
        self.staging.resize(batch * width, T::ZERO);
        if model.dense_dim > 0 {
            self.stage_dense(queries, model.dense_dim as usize, dense_len)?;
        }
        let round = &mut self.round[..round_len];
        for (query, row) in queries.iter().zip(self.staging.chunks_exact_mut(width)) {
            for r in 0..rounds {
                rows.gather_round(&query[r * tables..(r + 1) * tables], round)?;
                T::stage(round, &mut row[dense_len + r * round_len..][..round_len]);
            }
        }
        self.top.warm(batch, &mut self.arena);
        let out = self.top.forward_batch_into(&self.staging, batch, &mut self.arena)?;
        let stride = self.top.output_dim().max(1);
        Ok(out.chunks_exact(stride).map(|c| c[0].to_f32()).collect())
    }

    /// Writes every staging row's first `dense_len` columns: the `dim` raw
    /// dense features at `T`, or the bottom MLP's outputs for the whole
    /// batch at once, each through `to_f32` and back as the reference path
    /// passes them on.
    fn stage_dense(
        &mut self,
        queries: &[Vec<u64>],
        dim: usize,
        dense_len: usize,
    ) -> Result<(), MicroRecError> {
        let (batch, width) = (queries.len(), self.top.input_dim());
        self.dense.resize(batch * dim, T::ZERO);
        let raw = &mut self.round[..dim];
        for (query, row) in queries.iter().zip(self.dense.chunks_exact_mut(dim)) {
            synthetic_dense_features_into(query, raw);
            T::quantize_into(raw, row);
        }
        let rows = self.staging.chunks_exact_mut(width);
        let Some(bottom) = &self.bottom else {
            for (row, dense) in rows.zip(self.dense.chunks_exact(dim)) {
                row[..dim].copy_from_slice(dense);
            }
            return Ok(());
        };
        bottom.warm(batch, &mut self.arena);
        let out = bottom.forward_batch_into(&self.dense, batch, &mut self.arena)?;
        for (row, out) in rows.zip(out.chunks_exact(dense_len)) {
            for (slot, &v) in row.iter_mut().zip(out) {
                *slot = T::from_f32(v.to_f32());
            }
        }
        Ok(())
    }
}

/// The engine's fast path at its datapath precision, fixed at build.
#[derive(Debug, Clone)]
enum BatchPath {
    F32(FastPath<f32>),
    Q16(FastPath<Q16>),
    Q32(FastPath<Q32>),
}

impl BatchPath {
    fn build(precision: Precision, mlp: &Mlp, bottom: Option<&Mlp>, round_buffer: usize) -> Self {
        match precision {
            Precision::F32 => BatchPath::F32(FastPath::build(mlp, bottom, round_buffer)),
            Precision::Fixed16 => BatchPath::Q16(FastPath::build(mlp, bottom, round_buffer)),
            Precision::Fixed32 => BatchPath::Q32(FastPath::build(mlp, bottom, round_buffer)),
        }
    }
}

/// The served MicroRec engine: a row store and the MLPs.
#[derive(Debug, Clone)]
pub struct MicroRec {
    model: ModelSpec,
    precision: Precision,
    rows: RowStore,
    /// The reference MLPs `predict` runs.
    mlp: Mlp,
    bottom: Option<Mlp>,
    batch_path: BatchPath,
    /// Ledger shim, ROADMAP 1A(b) deletes: the simulator behind
    /// [`MicroRec::measure_lookup`], [`MicroRec::latency`],
    /// [`MicroRec::throughput_items_per_sec`] and [`MicroRec::catalog`],
    /// built on first use.
    simulator: OnceLock<Box<Simulator>>,
}

impl MicroRec {
    /// Starts building an engine for `model`.
    #[must_use]
    pub fn builder(model: ModelSpec) -> MicroRecBuilder {
        MicroRecBuilder::new(model)
    }

    /// The served model.
    #[must_use]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Datapath precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The arena backing embedding reads, when one is configured.
    #[must_use]
    pub fn arena(&self) -> Option<&Arc<EmbeddingArena>> {
        self.rows.arena.as_ref()
    }

    /// The tiered parameter store serving embedding reads, when this
    /// engine was built with [`MicroRecBuilder::tiered_storage`].
    #[must_use]
    pub fn tiered_store(&self) -> Option<&TieredStore> {
        self.rows.tiered.as_ref()
    }

    /// Whether embeddings are served through the tiered parameter store.
    #[must_use]
    pub fn is_tiered(&self) -> bool {
        self.rows.tiered.is_some()
    }

    /// Per-tier serving counters (zeros when the engine is not tiered).
    #[must_use]
    pub fn tier_counters(&self) -> TierCounters {
        self.rows.tiered.as_ref().map(TieredStore::counters).unwrap_or_default()
    }

    /// Functionally predicts the CTR for one query: its rows from the
    /// engine's row store, then the MLP at the datapath precision.
    ///
    /// The query layout matches the CPU reference engine: round-major,
    /// `lookups_per_table × num_tables` indices.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn predict(&mut self, query: &[u64]) -> Result<f32, MicroRecError> {
        let features = self.gather_features(query)?;
        let ctr = match self.precision {
            Precision::Fixed16 => self.mlp.predict_ctr_quantized::<Q16>(&features)?,
            Precision::Fixed32 => self.mlp.predict_ctr_quantized::<Q32>(&features)?,
            Precision::F32 => self.mlp.predict_ctr(&features)?,
        };
        Ok(ctr)
    }

    /// Predicts CTRs for a batch of queries through the fast path built at
    /// [`MicroRecBuilder::build`]: each item's rows gathered from the row
    /// store a lookup round at a time and quantized straight into its row
    /// of a batch-major staging matrix at the datapath type, then one packed
    /// GEMM per MLP layer for all items (the dense branch's bottom MLP
    /// likewise, once per batch).
    ///
    /// Results are **bit-identical** to calling [`MicroRec::predict`] per
    /// query. The staging matrix and scratch buffers grow to the largest
    /// batch seen and are reused across calls.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn predict_batch(&mut self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        for query in queries {
            self.check_query(query)?;
        }
        let (rows, model) = (&mut self.rows, &self.model);
        match &mut self.batch_path {
            BatchPath::F32(path) => path.run(rows, model, queries),
            BatchPath::Q16(path) => path.run(rows, model, queries),
            BatchPath::Q32(path) => path.run(rows, model, queries),
        }
    }

    /// Checks a query's arity against the model.
    fn check_query(&self, query: &[u64]) -> Result<(), MicroRecError> {
        let expected = self.model.num_tables() * self.model.lookups_per_table as usize;
        if query.len() != expected {
            return Err(MicroRecError::Embedding(
                microrec_embedding::EmbeddingError::ArityMismatch { expected, actual: query.len() },
            ));
        }
        Ok(())
    }

    /// The dense branch of the feature vector (empty when the model has no
    /// dense features): raw features, or the bottom MLP's activations run
    /// at the datapath precision.
    fn dense_features(&self, query: &[u64]) -> Result<Vec<f32>, MicroRecError> {
        if self.model.dense_dim == 0 {
            return Ok(Vec::new());
        }
        let dense = synthetic_dense_features(query, self.model.dense_dim);
        let processed = match &self.bottom {
            Some(bottom) => match self.precision {
                Precision::Fixed16 => bottom
                    .forward(&dense.iter().map(|&v| Q16::from_f32(v)).collect::<Vec<_>>())?
                    .into_iter()
                    .map(Q16::to_f32)
                    .collect(),
                Precision::Fixed32 => bottom
                    .forward(&dense.iter().map(|&v| Q32::from_f32(v)).collect::<Vec<_>>())?
                    .into_iter()
                    .map(Q32::to_f32)
                    .collect(),
                Precision::F32 => bottom.forward(&dense)?,
            },
            None => dense,
        };
        Ok(processed)
    }

    /// Quantizes gathered embedding values to the datapath precision
    /// (lossless per element relative to their stored width).
    fn quantize_features(&self, values: &mut [f32]) {
        match self.precision {
            Precision::Fixed16 => {
                for v in values {
                    *v = Q16::from_f32(*v).to_f32();
                }
            }
            Precision::Fixed32 => {
                for v in values {
                    *v = Q32::from_f32(*v).to_f32();
                }
            }
            Precision::F32 => {}
        }
    }

    /// Gathers the (de-quantized) concatenated feature vector for a query
    /// from the engine's row store.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn gather_features(&mut self, query: &[u64]) -> Result<Vec<f32>, MicroRecError> {
        let mut features = Vec::with_capacity(self.model.feature_len() as usize);
        self.gather_features_into(query, &mut features)?;
        Ok(features)
    }

    /// [`MicroRec::gather_features`] into a caller-owned buffer (cleared
    /// first), so a streaming caller reuses one allocation across queries.
    /// Identical semantics and bit-identical output.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn gather_features_into(
        &mut self,
        query: &[u64],
        features: &mut Vec<f32>,
    ) -> Result<(), MicroRecError> {
        self.check_query(query)?;
        let tables = self.model.num_tables();
        let rounds = self.model.lookups_per_table as usize;
        let round_len = self.rows.round_len();
        features.clear();
        // Dense path: the bottom MLP runs on the accelerator's datapath
        // precision (its own small PE group, §Figure 1's dense branch).
        features.extend(self.dense_features(query)?);
        for round in 0..rounds {
            let indices = &query[round * tables..(round + 1) * tables];
            // Embedding values quantize losslessly per element relative
            // to their stored precision.
            let base = features.len();
            features.resize(base + round_len, 0.0);
            self.rows.gather_round(indices, &mut features[base..])?;
            self.quantize_features(&mut features[base..]);
        }
        Ok(())
    }

    /// Resets the tiered store's per-tier counters (a no-op when the
    /// engine is not tiered).
    pub fn reset_stats(&mut self) {
        if let Some(tiered) = &mut self.rows.tiered {
            tiered.reset_stats();
        }
    }

    /// Ledger shim, ROADMAP 1A(b) deletes, as it does the four below that
    /// read it: the U280 simulator of this engine's model and precision
    /// under default search options, built on first use.
    ///
    /// # Errors
    ///
    /// Returns the [`Simulator::build`] error of a model that does not fit
    /// the U280 (every ledger model fits).
    fn ledger_simulator(&self) -> Result<&Simulator, MicroRecError> {
        if let Some(sim) = self.simulator.get() {
            return Ok(sim);
        }
        let sim = Simulator::build(&self.model, self.precision, &HeuristicOptions::default())?;
        Ok(self.simulator.get_or_init(|| Box::new(sim)))
    }

    /// Ledger shim, ROADMAP 1A(b) deletes: [`Simulator::measure_lookup`].
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for a malformed query, or when the model
    /// does not fit the U280.
    pub fn measure_lookup(&mut self, query: &[u64]) -> Result<SimTime, MicroRecError> {
        self.ledger_simulator()?;
        self.simulator.get_mut().expect("built above").measure_lookup(query)
    }

    /// Ledger shim, ROADMAP 1A(b) deletes: [`Simulator::latency`].
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the U280.
    #[must_use]
    pub fn latency(&self) -> SimTime {
        self.ledger_simulator().expect("the model fits the U280").latency()
    }

    /// Ledger shim, ROADMAP 1A(b) deletes: [`Simulator::throughput_items_per_sec`].
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the U280.
    #[must_use]
    pub fn throughput_items_per_sec(&self) -> f64 {
        self.ledger_simulator().expect("the model fits the U280").throughput_items_per_sec()
    }

    /// Ledger shim, ROADMAP 1A(b) deletes: the simulator's Cartesian-merged
    /// [`Simulator::catalog`], not the engine's own unmerged tables.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the U280.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        self.ledger_simulator().expect("the model fits the U280").catalog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_cpu::CpuReferenceEngine;
    use microrec_embedding::TableSpec;

    fn toy_engine(precision: Precision) -> MicroRec {
        MicroRec::builder(ModelSpec::dlrm_rmc2(6, 8)).precision(precision).seed(11).build().unwrap()
    }

    #[test]
    fn predictions_match_cpu_reference_within_quantization() {
        let model = ModelSpec::dlrm_rmc2(6, 8);
        let cpu = CpuReferenceEngine::build(&model, 11).unwrap();
        let mut fpga16 = toy_engine(Precision::Fixed16);
        let mut fpga32 = toy_engine(Precision::Fixed32);
        // Half a Q2.13 output step: a Q2.13 CTR is a multiple of 1/8192, so when the
        // reference happens to sit next to one, Q16 lands closer than Q8.23 by chance.
        const Q16_HALF_STEP: f32 = 0.5 / 8192.0;
        let (mut err16, mut err32) = (0.0f32, 0.0f32);
        for k in 0..20u64 {
            let q: Vec<u64> = (0..24).map(|j| (k * 7919 + j * 104_729) % 500_000).collect();
            let reference = cpu.predict(&q).unwrap();
            let q16 = fpga16.predict(&q).unwrap();
            let q32 = fpga32.predict(&q).unwrap();
            assert!((reference - q32).abs() < 5e-3, "Q32 {q32} vs ref {reference}");
            assert!((reference - q16).abs() < 0.2, "Q16 {q16} vs ref {reference}");
            assert!(
                (reference - q32).abs() <= (reference - q16).abs() + Q16_HALF_STEP,
                "query {k}: Q32 {q32} must be at least as close to {reference} as Q16 {q16}"
            );
            err16 += (reference - q16).abs();
            err32 += (reference - q32).abs();
        }
        assert!(err32 <= err16, "Q32 (total {err32}) must be at least as close as Q16 ({err16})");
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
            let mut sequential = toy_engine(precision);
            let mut batched = toy_engine(precision);
            for batch in [1usize, 7, 64] {
                let queries: Vec<Vec<u64>> = (0..batch)
                    .map(|i| (0..24).map(|j| ((i * 7919 + j * 104_729) % 500_000) as u64).collect())
                    .collect();
                let singles: Vec<f32> =
                    queries.iter().map(|q| sequential.predict(q).unwrap()).collect();
                let fast = batched.predict_batch(&queries).unwrap();
                assert_eq!(fast.len(), batch);
                for (i, (f, s)) in fast.iter().zip(&singles).enumerate() {
                    assert_eq!(
                        f.to_bits(),
                        s.to_bits(),
                        "{precision:?} batch {batch} item {i}: {f} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_on_ragged_rounds() {
        // Rounds of 3 + 5 + 7 + 9 + 11 = 35 elements: two 16-lane vectors
        // of the quantize kernel and a ragged tail of 3 per round. Every
        // store, every precision, batches either side of 16 and 32.
        let dims = [3, 5, 7, 9, 11];
        let model = ModelSpec::new(
            "ragged",
            dims.iter().map(|&dim| TableSpec::new(format!("d{dim}"), 700, dim)).collect(),
            vec![24, 8],
            3,
        );
        let queries: Vec<Vec<u64>> = (0..33u64)
            .map(|i| (0..15u64).map(|j| (i * 7919 + j * 104_729) % 700).collect())
            .collect();
        let bytes = 700 * 35 * 4;
        for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
            let builder = MicroRec::builder(model.clone()).precision(precision).seed(5);
            let mut reference = builder.clone().build().unwrap();
            let want: Vec<u32> =
                queries.iter().map(|q| reference.predict(q).unwrap().to_bits()).collect();
            for (store, builder) in [
                ("catalog", builder.clone()),
                ("arena", builder.clone().embedding_arena(RowFormat::F32)),
                ("tiered", builder.clone().tiered_storage(bytes / 2, RowFormat::F32)),
            ] {
                let mut engine = builder.build().unwrap();
                for batch in [1usize, 15, 16, 17, 33] {
                    let got = engine.predict_batch(&queries[..batch]).unwrap();
                    let got: Vec<u32> = got.iter().map(|c| c.to_bits()).collect();
                    assert_eq!(got, want[..batch], "{precision:?} {store} batch {batch}");
                }
                if store == "tiered" {
                    assert!(engine.tier_counters().cold_reads > 0, "{precision:?}: no cold read");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut e = toy_engine(Precision::Fixed16);
        assert!(e.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn malformed_query_rejected() {
        let mut e = toy_engine(Precision::Fixed16);
        assert!(e.predict(&[0u64; 23]).is_err());
        let mut q = vec![0u64; 24];
        q[3] = u64::MAX;
        assert!(e.predict(&q).is_err());
        assert!(e.predict_batch(&[vec![0u64; 24], vec![0u64; 23]]).is_err());
        assert!(e.gather_features(&[0u64; 25]).is_err());
    }

    fn small_model() -> ModelSpec {
        ModelSpec::new(
            "small",
            (0..6).map(|i| microrec_embedding::TableSpec::new(format!("t{i}"), 2000, 8)).collect(),
            vec![64, 32],
            4,
        )
    }

    fn small_builder(precision: Precision) -> MicroRecBuilder {
        MicroRec::builder(small_model()).precision(precision).seed(29)
    }

    fn small_queries(n: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| (0..24).map(|j| ((i * 7919 + j * 104_729) % 2000) as u64).collect())
            .collect()
    }

    #[test]
    fn fast_path_is_bit_identical_across_storage() {
        // Legacy procedural reads and an f32 arena must predict identical
        // bits, for every datapath precision, in both predict and
        // predict_batch.
        for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
            let mut legacy = small_builder(precision).build().unwrap();
            let mut arena =
                small_builder(precision).embedding_arena(RowFormat::F32).build().unwrap();
            let queries = small_queries(40);
            let want: Vec<f32> = queries.iter().map(|q| legacy.predict(q).unwrap()).collect();
            for (i, q) in queries.iter().enumerate() {
                let got = arena.predict(q).unwrap();
                assert_eq!(got.to_bits(), want[i].to_bits(), "{precision:?} query {i}");
            }
            let got = arena.predict_batch(&queries).unwrap();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{precision:?} batch {i}");
            }
        }
    }

    /// Row bytes of the 6×2000×8 small model.
    const SMALL_MODEL_BYTES: u64 = 6 * 2000 * 8 * 4;

    #[test]
    fn tiered_engine_is_bit_identical_to_all_resident() {
        // A tiered engine at a 1/3 budget (cold tier guaranteed) must
        // predict the same bits as the all-resident arena, through both
        // predict and predict_batch.
        let budget = SMALL_MODEL_BYTES / 3;
        let mut full =
            small_builder(Precision::Fixed16).embedding_arena(RowFormat::F32).build().unwrap();
        let queries = small_queries(30);
        let want: Vec<f32> = queries.iter().map(|q| full.predict(q).unwrap()).collect();
        let mut engine = small_builder(Precision::Fixed16)
            .tiered_storage(budget, RowFormat::F32)
            .build()
            .unwrap();
        let backing = engine.tiered_store().unwrap().backing();
        assert!(backing.num_resident_tables() < 6, "cold tier must exist");
        assert!(backing.resident_bytes() <= budget, "residency respects the budget");
        for (i, q) in queries.iter().enumerate() {
            let got = engine.predict(q).unwrap();
            assert_eq!(got.to_bits(), want[i].to_bits(), "q{i}");
        }
        let got = engine.predict_batch(&queries).unwrap();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "batch {i}");
        }
        let counters = engine.tier_counters();
        assert!(counters.resident_hits > 0 && counters.cold_reads > 0);
        assert_eq!(counters.resident_hits + counters.cold_reads, 2 * 30 * 6 * 4);
        assert_eq!(counters.cold_errors, 0);
        engine.reset_stats();
        assert_eq!(engine.tier_counters(), microrec_embedding::TierCounters::default());
    }

    #[test]
    fn ledger_only_setters_are_inert() {
        // `prefetch_workers` and `hot_row_cache` are kept for the frozen
        // perf ledger only: whatever they are given, the engine serves the
        // same bits and counts the same reads, none of them prefetched.
        let budget = SMALL_MODEL_BYTES / 3;
        let tiered = || small_builder(Precision::Fixed16).tiered_storage(budget, RowFormat::F32);
        let mut plain = tiered().build().unwrap();
        let mut shimmed = tiered().hot_row_cache(64).prefetch_workers(2).build().unwrap();
        let queries = small_queries(30);
        for q in &queries {
            assert_eq!(plain.predict(q).unwrap().to_bits(), shimmed.predict(q).unwrap().to_bits());
        }
        let a = plain.predict_batch(&queries).unwrap();
        let b = shimmed.predict_batch(&queries).unwrap();
        assert!(a.iter().map(|c| c.to_bits()).eq(b.iter().map(|c| c.to_bits())));
        assert_eq!(plain.tier_counters(), shimmed.tier_counters());
        assert!(plain.tier_counters().cold_reads > 0, "the cold tier must have been exercised");
        assert_eq!(shimmed.tier_counters().prefetch_hits, 0);
        // No row store to front is no error either: there is nothing to
        // front any more.
        small_builder(Precision::Fixed16).hot_row_cache(128).build().unwrap();
    }

    #[test]
    fn shared_tiered_backing_is_one_allocation_across_builds() {
        let budget = SMALL_MODEL_BYTES / 3;
        let mut builder = small_builder(Precision::Fixed16).tiered_storage(budget, RowFormat::F32);
        builder.prepare_shared_arena().unwrap();
        let a = builder.clone().build().unwrap();
        let b = builder.clone().build().unwrap();
        assert!(
            Arc::ptr_eq(a.tiered_store().unwrap().backing(), b.tiered_store().unwrap().backing()),
            "replicas must share one tiered backing"
        );
        let mut own = small_builder(Precision::Fixed16)
            .tiered_storage(budget, RowFormat::F32)
            .build()
            .unwrap();
        let (mut a, mut b) = (a, b);
        for q in small_queries(5) {
            let want = own.predict(&q).unwrap();
            assert_eq!(a.predict(&q).unwrap().to_bits(), want.to_bits());
            assert_eq!(b.predict(&q).unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn shared_arena_is_one_allocation_across_builds() {
        let mut builder = small_builder(Precision::Fixed16).embedding_arena(RowFormat::F32);
        builder.prepare_shared_arena().unwrap();
        let a = builder.clone().build().unwrap();
        let b = builder.clone().build().unwrap();
        assert!(
            Arc::ptr_eq(a.arena().unwrap(), b.arena().unwrap()),
            "replicas must share one arena allocation"
        );
        // And predictions agree with an engine that built its own arena.
        let mut own =
            small_builder(Precision::Fixed16).embedding_arena(RowFormat::F32).build().unwrap();
        let (mut a, mut b) = (a, b);
        for q in small_queries(5) {
            let want = own.predict(&q).unwrap();
            assert_eq!(a.predict(&q).unwrap().to_bits(), want.to_bits());
            assert_eq!(b.predict(&q).unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn mismatched_shared_arena_is_rejected() {
        let mut builder = small_builder(Precision::Fixed16).embedding_arena(RowFormat::F32);
        builder.prepare_shared_arena().unwrap();
        let arena = builder.build().unwrap().arena().unwrap().clone();
        let err =
            MicroRec::builder(ModelSpec::dlrm_rmc2(6, 8)).shared_arena(arena).build().unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn the_served_build_places_nothing() {
        // 4 tables of 2^31 rows x dim 8: 256 GiB of procedural rows, far
        // more than the U280's 8 GiB of HBM and 32 GiB of DDR. The served
        // engine reads them procedurally and never asks where they would
        // sit on the FPGA; the simulator must place them and cannot.
        let model = ModelSpec::new(
            "oversized",
            (0..4).map(|i| TableSpec::new(format!("huge{i}"), 1 << 31, 8)).collect(),
            vec![64, 32],
            2,
        );
        let cpu = CpuReferenceEngine::build(&model, 11).unwrap();
        let queries: Vec<Vec<u64>> = (0..20u64)
            .map(|k| (0..8).map(|j| (k * 7919 + j * 1_000_000_007) % (1 << 31)).collect())
            .collect();
        for precision in [Precision::Fixed16, Precision::Fixed32] {
            let mut engine =
                MicroRec::builder(model.clone()).precision(precision).seed(11).build().unwrap();
            let batch = engine.predict_batch(&queries).unwrap();
            let tolerance = if precision == Precision::Fixed32 { 5e-3 } else { 0.2 };
            for (q, ctr) in queries.iter().zip(&batch) {
                assert_eq!(ctr.to_bits(), engine.predict(q).unwrap().to_bits(), "{precision:?}");
                let reference = cpu.predict(q).unwrap();
                assert!((reference - ctr).abs() < tolerance, "{precision:?}: {ctr} vs {reference}");
            }
            let err =
                Simulator::build(&model, precision, &HeuristicOptions::default()).unwrap_err();
            assert!(matches!(err, MicroRecError::Placement(_)), "{err}");
            // The ledger shim reports the same error instead of panicking.
            let err = engine.measure_lookup(&queries[0]).unwrap_err();
            assert!(matches!(err, MicroRecError::Placement(_)), "{err}");
        }
    }
}
