//! The MicroRec inference engine — the paper's primary contribution,
//! assembled: Cartesian-merged tables placed across the hybrid memory by
//! Algorithm 1, an item-by-item pipelined accelerator, and a fixed-point
//! DNN datapath sharing weights with the `f32` reference.

use std::sync::Arc;

use microrec_accel::{estimate_usage, AccelConfig, Pipeline, ResourceUsage, U280_CAPACITY};
use microrec_dnn::{FixedNum, Mlp, PackedMlp, ScratchArena, Q16, Q32};
use microrec_embedding::{
    synthetic_dense_features, Catalog, EmbeddingArena, ModelSpec, Precision, RowFormat,
    TierCounters, TieredBacking, TieredStore,
};
use microrec_memsim::{AddressedRead, HybridMemory, MemoryConfig, RowPolicy, SimTime};
use microrec_placement::{heuristic_search, HeuristicOptions, Plan, PlanCost};

use crate::error::MicroRecError;

/// Channel assignment induced by a placement plan: each logical table
/// inherits the dense channel index of the memory bank its physical table
/// was placed on (first-seen bank order).
fn channel_assignment(catalog: &Catalog, plan: &Plan) -> Vec<usize> {
    let mut banks = Vec::new();
    (0..catalog.logical_tables().len())
        .map(|lidx| {
            let (pidx, _) = catalog.locate(lidx);
            let bank = plan.placed[pidx].banks[0];
            banks.iter().position(|&b| b == bank).unwrap_or_else(|| {
                banks.push(bank);
                banks.len() - 1
            })
        })
        .collect()
}

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
    memory: MemoryConfig,
    precision: Precision,
    storage_precision: Precision,
    seed: u64,
    options: HeuristicOptions,
    accel: Option<AccelConfig>,
    /// Whether to serve from an [`EmbeddingArena`] (ignored when tiered).
    arena: bool,
    shared_arena: Option<Arc<EmbeddingArena>>,
    tiered_budget: Option<u64>,
    shared_tiered: Option<Arc<TieredBacking>>,
}

impl MicroRecBuilder {
    /// Starts a builder for `model` with U280 memory, fixed-16 datapath
    /// precision, 32-bit embedding storage (the paper keeps "the same
    /// element data width of 32-bits" in memory for both precisions,
    /// Table 4), and default search options.
    #[must_use]
    pub fn new(model: ModelSpec) -> Self {
        MicroRecBuilder {
            model,
            memory: MemoryConfig::u280(),
            precision: Precision::Fixed16,
            storage_precision: Precision::F32,
            seed: 0x00AC_CE55,
            options: HeuristicOptions::default(),
            accel: None,
            arena: false,
            shared_arena: None,
            tiered_budget: None,
            shared_tiered: None,
        }
    }

    /// Sets the memory platform.
    #[must_use]
    pub fn memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Sets the datapath precision.
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the embedding storage precision (default 32-bit, matching the
    /// paper's memory layout for both datapath precisions).
    #[must_use]
    pub fn storage_precision(mut self, precision: Precision) -> Self {
        self.storage_precision = precision;
        self
    }

    /// Sets the RNG seed for table contents and weights.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets placement-search options (e.g. disabling Cartesian merging for
    /// the HBM-only ablation).
    #[must_use]
    pub fn search_options(mut self, options: HeuristicOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the accelerator configuration (PE counts / clock).
    #[must_use]
    pub fn accel_config(mut self, accel: AccelConfig) -> Self {
        self.accel = Some(accel);
        self
    }

    /// Materializes the logical tables into a contiguous, 64-byte-aligned
    /// [`EmbeddingArena`] (one `f32` buffer per memory channel), replacing
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

    /// Uses an existing tiered backing (resident arena + cold store)
    /// instead of materializing a new one per engine, the tiered twin of
    /// [`MicroRecBuilder::shared_arena`]: replica engines share one
    /// resident allocation and one cold file.
    #[must_use]
    pub fn shared_tiered_backing(mut self, backing: Arc<TieredBacking>) -> Self {
        self.tiered_budget = Some(backing.budget_bytes());
        self.shared_tiered = Some(backing);
        self
    }

    /// Builds this configuration's arena once and installs it as the
    /// shared arena, so every subsequent [`MicroRecBuilder::build`] (on
    /// this builder or its clones) reuses the same allocation. No-op when
    /// no arena is configured or a shared arena is already set.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the placement search or arena
    /// materialization fails.
    pub fn prepare_shared_arena(&mut self) -> Result<(), MicroRecError> {
        if self.tiered_budget.is_some() {
            // Tiered twin: build once, share the backing (resident arena +
            // cold store) across every engine built from this builder.
            if self.shared_tiered.is_none() {
                let engine = self.clone().build()?;
                self.shared_tiered = engine.tiered_store().map(|t| Arc::clone(t.backing()));
            }
            return Ok(());
        }
        if !self.arena || self.shared_arena.is_some() {
            return Ok(());
        }
        let engine = self.clone().build()?;
        self.shared_arena = engine.arena().cloned();
        Ok(())
    }

    /// The model this builder targets.
    #[must_use]
    pub fn model_spec(&self) -> &ModelSpec {
        &self.model
    }

    /// Runs the placement search and assembles the engine.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the model is inconsistent, cannot be
    /// placed, or the accelerator configuration does not fit it.
    pub fn build(self) -> Result<MicroRec, MicroRecError> {
        self.model.validate()?;
        let outcome =
            heuristic_search(&self.model, &self.memory, self.storage_precision, &self.options)?;
        let plan = outcome.plan;
        let cost = outcome.cost;

        let mut memory = HybridMemory::new(self.memory);
        plan.apply(&mut memory)?;
        // Byte offset of every (table, replica) region, for addressed reads.
        let mut region_offsets = Vec::with_capacity(plan.placed.len());
        for table in &plan.placed {
            let mut offsets = Vec::with_capacity(table.banks.len());
            for (r, &bank) in table.banks.iter().enumerate() {
                let label = if table.banks.len() > 1 {
                    format!("{}#r{r}", table.spec.name)
                } else {
                    table.spec.name.clone()
                };
                offsets.push(memory.region_offset(bank, &label)?);
            }
            region_offsets.push(offsets);
        }

        let catalog = Catalog::build(&self.model, &plan.merge, self.seed)?;

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
            let channel_of = channel_assignment(&catalog, &plan);
            let backing = TieredBacking::build(catalog.logical_tables(), &channel_of, budget)?;
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
                (None, true) => {
                    let channel_of = channel_assignment(&catalog, &plan);
                    Some(Arc::new(EmbeddingArena::build(catalog.logical_tables(), &channel_of)?))
                }
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
        let accel = self.accel.unwrap_or_else(|| {
            if self.model.hidden.len() == 3 {
                AccelConfig::for_model(&self.model, self.precision)
            } else {
                AccelConfig::generic(&self.model, self.precision)
            }
        });
        let pipeline = Pipeline::build(&self.model, &accel, cost.lookup_latency)?;

        Ok(MicroRec {
            model: self.model,
            precision: self.precision,
            plan,
            cost,
            memory,
            region_offsets,
            catalog,
            arena,
            tiered,
            feature_offsets,
            mlp,
            bottom,
            accel,
            pipeline,
            batch_path: BatchPath::Unbuilt,
        })
    }
}

/// Lazily built batched fast path at one datapath precision: packed
/// weights (quantized once), a reusable scratch arena, and a staging
/// buffer for quantized inputs. After the first batch, steady-state
/// serving of same-or-smaller batches stops allocating in the DNN stage.
#[derive(Debug, Clone)]
struct FastPath<T> {
    packed: PackedMlp<T>,
    arena: ScratchArena<T>,
    staging: Vec<T>,
}

impl<T: FixedNum> FastPath<T> {
    fn build(mlp: &Mlp) -> Self {
        FastPath { packed: PackedMlp::pack(mlp), arena: ScratchArena::new(), staging: Vec::new() }
    }

    /// Quantizes the gathered feature vectors and runs the packed batched
    /// forward pass; returns de-quantized CTRs in query order.
    fn run(&mut self, features: &[Vec<f32>]) -> Result<Vec<f32>, microrec_dnn::DnnError> {
        let batch = features.len();
        self.staging.clear();
        for item in features {
            self.staging.extend(item.iter().map(|&v| T::from_f32(v)));
        }
        self.packed.warm(batch, &mut self.arena);
        let out = self.packed.forward_batch_into(&self.staging, batch, &mut self.arena)?;
        let stride = self.packed.output_dim().max(1);
        Ok(out.chunks_exact(stride).map(|c| c[0].to_f32()).collect())
    }
}

/// The engine's cached fast path, keyed by the (fixed) datapath precision.
#[derive(Debug, Clone)]
enum BatchPath {
    Unbuilt,
    F32(FastPath<f32>),
    Q16(FastPath<Q16>),
    Q32(FastPath<Q32>),
}

/// The assembled MicroRec engine.
#[derive(Debug, Clone)]
pub struct MicroRec {
    model: ModelSpec,
    precision: Precision,
    plan: Plan,
    cost: PlanCost,
    memory: HybridMemory,
    region_offsets: Vec<Vec<u64>>,
    catalog: Catalog,
    arena: Option<Arc<EmbeddingArena>>,
    tiered: Option<TieredStore>,
    feature_offsets: Vec<usize>,
    mlp: Mlp,
    bottom: Option<Mlp>,
    accel: AccelConfig,
    pipeline: Pipeline,
    batch_path: BatchPath,
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

    /// The chosen placement plan.
    #[must_use]
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The plan's cost summary (lookup latency, rounds, storage).
    #[must_use]
    pub fn placement_cost(&self) -> &PlanCost {
        &self.cost
    }

    /// The table catalog (logical→physical mapping).
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The pipeline timing model.
    #[must_use]
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The accelerator configuration.
    #[must_use]
    pub fn accel_config(&self) -> &AccelConfig {
        &self.accel
    }

    /// Datapath precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The hybrid memory with the plan applied (capacity ledger + access
    /// statistics).
    #[must_use]
    pub fn memory(&self) -> &HybridMemory {
        &self.memory
    }

    /// The arena backing embedding reads, when one is configured.
    #[must_use]
    pub fn arena(&self) -> Option<&Arc<EmbeddingArena>> {
        self.arena.as_ref()
    }

    /// The tiered parameter store serving embedding reads, when this
    /// engine was built with [`MicroRecBuilder::tiered_storage`].
    #[must_use]
    pub fn tiered_store(&self) -> Option<&TieredStore> {
        self.tiered.as_ref()
    }

    /// Whether embeddings are served through the tiered parameter store.
    #[must_use]
    pub fn is_tiered(&self) -> bool {
        self.tiered.is_some()
    }

    /// Per-tier serving counters (zeros when the engine is not tiered).
    #[must_use]
    pub fn tier_counters(&self) -> TierCounters {
        self.tiered.as_ref().map(TieredStore::counters).unwrap_or_default()
    }

    /// End-to-end single-item inference latency.
    #[must_use]
    pub fn latency(&self) -> SimTime {
        self.pipeline.latency()
    }

    /// Steady-state throughput in items per second.
    #[must_use]
    pub fn throughput_items_per_sec(&self) -> f64 {
        self.pipeline.throughput_items_per_sec()
    }

    /// Operations per second (the paper's GOP/s metric).
    #[must_use]
    pub fn throughput_ops_per_sec(&self) -> f64 {
        self.model.flops_per_item() as f64 * self.throughput_items_per_sec()
    }

    /// Time to process `n` items through the pipeline.
    #[must_use]
    pub fn batch_latency(&self, n: u64) -> SimTime {
        self.pipeline.batch_latency(n)
    }

    /// Estimated FPGA resource usage (Table 6 model).
    #[must_use]
    pub fn resource_usage(&self) -> ResourceUsage {
        estimate_usage(&self.model, &self.accel)
    }

    /// Whether the design fits the U280.
    #[must_use]
    pub fn fits_device(&self) -> bool {
        self.resource_usage().fits(&U280_CAPACITY)
    }

    /// Functionally predicts the CTR for one query, driving the simulated
    /// memory (statistics accumulate in [`MicroRec::memory`]) and the
    /// fixed-point datapath.
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

    /// Predicts CTRs for a batch of queries through the amortized fast
    /// path: one embedding-gather sweep per lookup round for the whole
    /// batch, and one packed GEMM per MLP layer for all items.
    ///
    /// Results are **bit-identical** to calling [`MicroRec::predict`] per
    /// query, and the simulated memory sees exactly the same reads (one
    /// per table per round per query). The packed weights and scratch
    /// buffers are built on first use and reused across calls.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn predict_batch(&mut self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let features = self.gather_features_batch(queries)?;
        let mut path = std::mem::replace(&mut self.batch_path, BatchPath::Unbuilt);
        let precision_matches = matches!(
            (&path, self.precision),
            (BatchPath::F32(_), Precision::F32)
                | (BatchPath::Q16(_), Precision::Fixed16)
                | (BatchPath::Q32(_), Precision::Fixed32)
        );
        if !precision_matches {
            path = match self.precision {
                Precision::F32 => BatchPath::F32(FastPath::build(&self.mlp)),
                Precision::Fixed16 => BatchPath::Q16(FastPath::build(&self.mlp)),
                Precision::Fixed32 => BatchPath::Q32(FastPath::build(&self.mlp)),
            };
        }
        let result = match &mut path {
            BatchPath::F32(fp) => fp.run(&features),
            BatchPath::Q16(fp) => fp.run(&features),
            BatchPath::Q32(fp) => fp.run(&features),
            BatchPath::Unbuilt => unreachable!("fast path built above"),
        };
        self.batch_path = path;
        Ok(result?)
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

    /// Maps one resolved lookup to a physical read (replicas round-robin
    /// across lookup rounds).
    fn addressed_read(&self, table: usize, row: u64, round: usize) -> AddressedRead {
        let placed = &self.plan.placed[table];
        let replica = round % placed.banks.len();
        let row_bytes = placed.row_bytes(self.plan.precision);
        let offset = self.region_offsets[table][replica] + row * u64::from(row_bytes);
        AddressedRead::new(placed.banks[replica], offset, row_bytes)
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

    /// Functionally gathers one lookup round's concatenated feature slice
    /// for a query: from the tiered store, the arena, or the catalog's
    /// per-table reads when no store is built. The store changes where the
    /// bytes come from — a resident or cold arena-layout row vs. a
    /// procedural/materialized table read — never what they are, so all
    /// three are bit-identical.
    fn gather_round_into(&mut self, indices: &[u64], out: &mut [f32]) -> Result<(), MicroRecError> {
        if let Some(tiered) = self.tiered.as_mut() {
            return Ok(tiered.gather_round(indices, &self.feature_offsets, out)?);
        }
        let Some(arena) = self.arena.as_deref() else {
            return Ok(self.catalog.gather(indices, out)?);
        };
        Ok(arena.gather_into(indices, out)?)
    }

    /// Gathers feature vectors for a whole batch, issuing each lookup
    /// round as one combined sweep of physical reads (the per-query read
    /// count is unchanged; only the dispatch is amortized).
    fn gather_features_batch(
        &mut self,
        queries: &[Vec<u64>],
    ) -> Result<Vec<Vec<f32>>, MicroRecError> {
        let tables = self.model.num_tables();
        let rounds = self.model.lookups_per_table as usize;
        let round_len = self.catalog.feature_len() as usize;
        let mut features = Vec::with_capacity(queries.len());
        for query in queries {
            self.check_query(query)?;
            let mut item = Vec::with_capacity(self.model.feature_len() as usize);
            item.extend(self.dense_features(query)?);
            features.push(item);
        }
        let mut requests = Vec::with_capacity(queries.len() * tables);
        for round in 0..rounds {
            requests.clear();
            for query in queries {
                let indices = &query[round * tables..(round + 1) * tables];
                for lookup in &self.catalog.resolve(indices)? {
                    requests.push(self.addressed_read(lookup.table, lookup.row, round));
                }
            }
            self.memory.parallel_read_addressed(&requests)?;
            for (item, query) in features.iter_mut().zip(queries) {
                let indices = &query[round * tables..(round + 1) * tables];
                let base = item.len();
                item.resize(base + round_len, 0.0);
                self.gather_round_into(indices, &mut item[base..])?;
                self.quantize_features(&mut item[base..]);
            }
        }
        Ok(features)
    }

    /// Gathers the (de-quantized) concatenated feature vector for a query,
    /// issuing the physical reads against the simulated memory.
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
        let round_len = self.catalog.feature_len() as usize;
        features.clear();
        // Dense path: the bottom MLP runs on the accelerator's datapath
        // precision (its own small PE group, §Figure 1's dense branch).
        features.extend(self.dense_features(query)?);
        let mut requests: Vec<AddressedRead> = Vec::with_capacity(tables);
        for round in 0..rounds {
            let indices = &query[round * tables..(round + 1) * tables];
            // Resolve to physical reads and drive the memory simulator
            // with real byte addresses (so DRAM row-buffer state is
            // modelled under the active page policy).
            requests.clear();
            for l in &self.catalog.resolve(indices)? {
                requests.push(self.addressed_read(l.table, l.row, round));
            }
            self.memory.parallel_read_addressed(&requests)?;
            // Functional gather through the fast path (embedding values
            // quantize losslessly per element relative to their stored
            // precision).
            let base = features.len();
            features.resize(base + round_len, 0.0);
            self.gather_round_into(indices, &mut features[base..])?;
            self.quantize_features(&mut features[base..]);
        }
        Ok(())
    }

    /// Measures the lookup-stage time of one query against the simulated
    /// memory (row-buffer state included), without running the MLP.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn measure_lookup(&mut self, query: &[u64]) -> Result<SimTime, MicroRecError> {
        self.check_query(query)?;
        let tables = self.model.num_tables();
        let rounds = self.model.lookups_per_table as usize;
        let mut total = SimTime::ZERO;
        for round in 0..rounds {
            let indices = &query[round * tables..(round + 1) * tables];
            let requests: Vec<AddressedRead> = self
                .catalog
                .resolve(indices)?
                .iter()
                .map(|l| self.addressed_read(l.table, l.row, round))
                .collect();
            total += self.memory.parallel_read_addressed(&requests)?.elapsed;
        }
        Ok(total)
    }

    /// Sets the DRAM page policy of the simulated memory (closed page by
    /// default; open page lets Zipf-skewed traffic hit open rows).
    pub fn set_row_policy(&mut self, policy: RowPolicy) {
        self.memory.set_row_policy(policy);
    }

    /// Resets accumulated memory statistics and, when the engine is
    /// tiered, its per-tier counters.
    pub fn reset_stats(&mut self) {
        self.memory.reset_stats();
        if let Some(tiered) = &mut self.tiered {
            tiered.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_cpu::CpuReferenceEngine;
    use microrec_placement::AllocStrategy;

    fn toy_engine(precision: Precision) -> MicroRec {
        MicroRec::builder(ModelSpec::dlrm_rmc2(6, 8)).precision(precision).seed(11).build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_engine() {
        let e = toy_engine(Precision::Fixed16);
        assert_eq!(e.model().num_tables(), 6);
        assert!(e.fits_device());
        assert!(e.latency().as_us() < 100.0);
        assert!(e.throughput_items_per_sec() > 1e4);
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
    fn predict_drives_memory_statistics() {
        let mut e = toy_engine(Precision::Fixed16);
        assert_eq!(e.memory().stats().total().reads, 0);
        let q = vec![0u64; 24];
        e.predict(&q).unwrap();
        // 6 physical tables x 4 rounds = 24 reads.
        assert_eq!(e.memory().stats().total().reads, 24);
        e.reset_stats();
        assert_eq!(e.memory().stats().total().reads, 0);
    }

    #[test]
    fn merged_engine_equals_unmerged_engine() {
        // A cramped memory forces merging; predictions must not change.
        let model = ModelSpec::new(
            "cramped",
            (0..6)
                .map(|i| microrec_embedding::TableSpec::new(format!("t{i}"), 100 + i as u64, 4))
                .collect(),
            vec![64, 32],
            1,
        );
        let mut few_channels = MemoryConfig::fpga_without_hbm(3);
        few_channels.banks.retain(|b| b.id.kind.is_dram());
        let accel = AccelConfig {
            clock_hz: 120_000_000,
            precision: Precision::Fixed32,
            pes_per_layer: vec![16, 16],
            macs_per_pe_cycle: 10,
        };

        let mut merged = MicroRec::builder(model.clone())
            .memory(few_channels.clone())
            .precision(Precision::Fixed32)
            .seed(3)
            .accel_config(accel.clone())
            .build()
            .unwrap();
        assert!(merged.plan().merge.tables_eliminated() > 0, "expected merging");

        let mut unmerged = MicroRec::builder(model)
            .memory(few_channels)
            .precision(Precision::Fixed32)
            .seed(3)
            .accel_config(accel)
            .search_options(HeuristicOptions {
                allow_merge: false,
                strategy: AllocStrategy::RoundRobin,
                ..Default::default()
            })
            .build()
            .unwrap();

        for k in 0..30u64 {
            let q: Vec<u64> = (0..6).map(|j| (k * 13 + j * 7) % 100).collect();
            assert_eq!(
                merged.predict(&q).unwrap(),
                unmerged.predict(&q).unwrap(),
                "merging must be invisible to predictions"
            );
        }
        assert!(merged.placement_cost().lookup_latency <= unmerged.placement_cost().lookup_latency);
    }

    #[test]
    fn predict_batch_is_bit_identical_and_counts_reads() {
        for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
            let mut sequential = toy_engine(precision);
            let mut batched = toy_engine(precision);
            for batch in [1usize, 7, 64] {
                let queries: Vec<Vec<u64>> = (0..batch)
                    .map(|i| (0..24).map(|j| ((i * 7919 + j * 104_729) % 500_000) as u64).collect())
                    .collect();
                let singles: Vec<f32> =
                    queries.iter().map(|q| sequential.predict(q).unwrap()).collect();
                batched.reset_stats();
                let fast = batched.predict_batch(&queries).unwrap();
                assert_eq!(fast.len(), batch);
                for (i, (f, s)) in fast.iter().zip(&singles).enumerate() {
                    assert_eq!(
                        f.to_bits(),
                        s.to_bits(),
                        "{precision:?} batch {batch} item {i}: {f} vs {s}"
                    );
                }
                // Same physical traffic: 6 tables x 4 rounds per query.
                assert_eq!(batched.memory().stats().total().reads, (batch * 24) as u64);
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut e = toy_engine(Precision::Fixed16);
        assert!(e.predict_batch(&[]).unwrap().is_empty());
        assert_eq!(e.memory().stats().total().reads, 0);
    }

    #[test]
    fn malformed_query_rejected() {
        let mut e = toy_engine(Precision::Fixed16);
        assert!(e.predict(&[0u64; 23]).is_err());
        let mut q = vec![0u64; 24];
        q[3] = u64::MAX;
        assert!(e.predict(&q).is_err());
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
            arena.reset_stats();
            let got = arena.predict_batch(&queries).unwrap();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{precision:?} batch {i}");
            }
            // The simulated memory still sees every physical read: the
            // arena is a host-side structure, not a DRAM model.
            assert_eq!(arena.memory().stats().total().reads, (queries.len() * 6 * 4) as u64);
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
    fn production_engine_builds_and_matches_table3() {
        let e = MicroRec::builder(ModelSpec::small_production()).seed(5).build().unwrap();
        assert_eq!(e.plan().num_tables(), 42);
        assert_eq!(e.placement_cost().dram_rounds, 1);
        // Memory ledger reflects the plan.
        let allocated: u64 = e.memory().banks().map(|b| b.used()).sum();
        assert_eq!(allocated, e.placement_cost().storage_bytes);
    }
}
