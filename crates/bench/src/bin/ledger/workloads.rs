//! The five workloads: which model, which embedding store, which index
//! distribution, which load. Names are final; each `why` says which layer
//! the workload stresses and which it bypasses, so an optimisation has one
//! workload that exercises its mechanism and one on which the prediction
//! is "no change".

use microrec_core::{AdmissionPolicy, MicroRec, MicroRecBuilder, RuntimeConfig};
use microrec_embedding::{ModelSpec, Precision, RowFormat, TableSpec};

/// Seed of table contents and MLP weights, the same for the oracle and
/// the system under test. `--seed` never reaches the program: it only
/// picks the queries and the arrival times.
pub const MODEL_SEED: u64 = 42;

/// Items per `predict_batch` call; also `RuntimeConfig::default().max_batch`.
pub const BATCH: usize = 32;

/// Rows in the hot-row cache of `lookup-cold` (and of the ledger's own
/// cache probe).
pub const CACHE_ROWS: usize = 65_536;

/// How embeddings are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// All rows resident in one `EmbeddingArena`, no cache.
    Arena,
    /// Tiered store with a quarter of the bytes resident, the rest read
    /// with `pread` on the serving thread, behind a 65 536-row hot-row
    /// cache.
    TieredQuarter,
}

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One thread calls `predict_batch(BATCH)` back to back.
    BatchClosed,
    /// Seeded Poisson arrivals at a fixed absolute rate into the serving
    /// runtime (`admission: Reject`).
    ServeOpen { rate_per_s: f64 },
    /// The generator keeps this many requests outstanding in the serving
    /// runtime (`admission: Block`).
    ServeWindow { outstanding: usize },
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: fn() -> ModelSpec,
    pub store: Store,
    /// Zipf exponent of the row indices (0 = uniform).
    pub zipf: f64,
    /// Distinct queries generated from `--seed`, replayed cyclically.
    pub pool: usize,
    pub load: Load,
    /// Every n-th request's latency is sampled (1 = all of them).
    pub latency_stride: u64,
}

/// `ModelSpec::small_production()`'s 47 tables with the three id-scale
/// tables cut to 1 M / 500 k / 250 k rows (256 MB at f32), four lookups per
/// table and one 8-wide hidden layer: 188 lookups and 1408 features per
/// item against ~11 k MAC, so the gather dominates. The small
/// merge-candidate tables of the paper are kept.
pub fn lookup47() -> ModelSpec {
    let mut model = ModelSpec::small_production();
    for (table, rows) in model.tables.iter_mut().zip([1_000_000u64, 500_000, 250_000]) {
        table.rows = rows;
    }
    model.name = "lookup47".into();
    model.hidden = vec![8];
    model.lookups_per_table = 4;
    model
}

/// Four tables × 1000 rows × dim 4, two lookups each, one 16-wide hidden
/// layer: an engine so cheap that the serving runtime's own per-request
/// work is a visible share.
pub fn tiny4() -> ModelSpec {
    let tables = (0..4).map(|i| TableSpec::new(format!("tiny{i}_d4"), 1000, 4)).collect();
    ModelSpec::new("tiny4", tables, vec![16], 2)
}

/// 512 features → 1024-512-256-1: ~1.18 M MAC and 32 lookups per item.
fn fc_model() -> ModelSpec {
    ModelSpec::dlrm_rmc2(8, 16)
}

/// The workload list, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fc-batch",
        why: "closed-loop predict_batch(32) on dlrm_rmc2(8,16): the FC stack does ~99% of the work, so a GEMM change shows here and a lookup change must not",
        model: fc_model,
        store: Store::Arena,
        zipf: 1.05,
        pool: 1024,
        load: Load::BatchClosed,
        latency_stride: 1,
    },
    Workload {
        name: "lookup-batch",
        why: "closed-loop predict_batch(32) on lookup47 (188 lookups, 11k MAC per item), all rows resident, no cache: engine gather + arena + in-path memsim dominate, FC is bypassed",
        model: lookup47,
        store: Store::Arena,
        zipf: 1.05,
        pool: 8192,
        load: Load::BatchClosed,
        latency_stride: 1,
    },
    Workload {
        name: "lookup-cold",
        why: "lookup47 with a quarter of the bytes resident, uniform rows, hot-row cache mostly missing, cold rows pread synchronously (page-cache syscall cost, not disk): resident-read gains must not cost here",
        model: lookup47,
        store: Store::TieredQuarter,
        zipf: 0.0,
        pool: 16384,
        load: Load::BatchClosed,
        latency_stride: 1,
    },
    Workload {
        name: "serve-open",
        why: "open-loop Poisson at a fixed 300 req/s (~40% of one worker) into ServingRuntime on the fc-batch model: the latency a user sees, batch-forming wait plus FC service under queueing",
        model: fc_model,
        store: Store::Arena,
        zipf: 1.05,
        pool: 1024,
        load: Load::ServeOpen { rate_per_s: 300.0 },
        latency_stride: 1,
    },
    Workload {
        name: "serve-sat",
        why: "closed loop, 256 requests outstanding into ServingRuntime on tiny4: the only workload where submit, queue, batch close and fulfil are a large share of per-item time",
        model: tiny4,
        store: Store::Arena,
        zipf: 1.05,
        pool: 4096,
        load: Load::ServeWindow { outstanding: 256 },
        latency_stride: 256,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The oracle: the plain engine, procedural tables, reference `predict`.
    pub fn oracle_builder(&self) -> MicroRecBuilder {
        MicroRec::builder((self.model)()).seed(MODEL_SEED)
    }

    /// The workload's model and embedding store on a builder, everything
    /// else at the builder's defaults (datapath precision; two prefetch
    /// workers on the tiered store). Rows are f32, bit-identical to the
    /// oracle's catalog reads.
    pub fn default_builder(&self) -> MicroRecBuilder {
        let model = (self.model)();
        let total = model.total_bytes(Precision::F32);
        let builder = MicroRec::builder(model).seed(MODEL_SEED);
        match self.store {
            Store::Arena => builder.embedding_arena(RowFormat::F32),
            Store::TieredQuarter => {
                builder.tiered_storage(total / 4, RowFormat::F32).hot_row_cache(CACHE_ROWS)
            }
        }
    }

    /// The system under test. It is `default_builder` except that the
    /// tiered store reads cold rows on the serving thread: with the default
    /// two prefetch workers the same engine is 4-5x slower and its speed is
    /// set by how fast the host wakes a halted vCPU (three threads on two
    /// vCPUs), which made `p50_us` spread 22% over ten seeds on a quiet
    /// host — no bound the format allows survives that. The default
    /// configuration is measured in every traced run as the per-layer rows
    /// `embedding.cold_async_items_per_s` and `embedding.cold_async_p50_us`.
    pub fn builder(&self) -> MicroRecBuilder {
        match self.store {
            Store::Arena => self.default_builder(),
            Store::TieredQuarter => self.default_builder().prefetch_workers(0),
        }
    }

    /// The serving runtime's configuration, for the two serve workloads.
    pub fn runtime_config(&self) -> Option<RuntimeConfig> {
        let admission = match self.load {
            Load::BatchClosed => return None,
            Load::ServeOpen { .. } => AdmissionPolicy::Reject,
            Load::ServeWindow { .. } => AdmissionPolicy::Block,
        };
        Some(RuntimeConfig { workers: 1, admission, ..RuntimeConfig::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_have_the_shapes_the_workloads_are_named_for() {
        let fc = fc_model();
        assert_eq!((fc.feature_len(), fc.lookups_per_item()), (512, 32));
        let l47 = lookup47();
        l47.validate().unwrap();
        assert_eq!((l47.num_tables(), l47.feature_len(), l47.lookups_per_item()), (47, 1408, 188));
        let mb = l47.total_bytes(Precision::F32) >> 20;
        assert!((230..280).contains(&mb), "{mb} MB");
        let tiny = tiny4();
        tiny.validate().unwrap();
        assert_eq!((tiny.feature_len(), tiny.lookups_per_item()), (32, 8));
    }

    #[test]
    fn pools_are_whole_batches_and_runtime_configs_match_the_load() {
        for w in &WORKLOADS {
            assert_eq!(w.pool % BATCH, 0, "{}", w.name);
            assert_eq!(w.runtime_config().is_some(), w.load != Load::BatchClosed, "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert_eq!(BATCH, RuntimeConfig::default().max_batch);
        assert!(find("nope").is_none());
    }
}
