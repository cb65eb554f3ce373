//! The traced run's per-layer numbers, all taken from outside the program
//! with the ledger's own spans around public calls.
//!
//! The replay sends the same kind of batch through the real call
//! (`predict_batch`) and through the decomposed sequence — per item
//! `gather_features_into`, then quantise, then `forward_batch_into` — and
//! through probes of the parts the gather is made of (`measure_lookup`,
//! `Catalog::resolve`, the row source, a hot-row cache of the ledger's
//! own) and of the FC stack (`PackedLayer::forward_batch` per layer).
//! What the decomposed sequence does not explain of the real call is
//! reported as `core.engine.other_us_per_item`.
//!
//! Nothing here re-derives what the engine keeps to itself. The FC stack
//! of the decomposed sequence is a stand-in of the model's **shape** with
//! weights of the ledger's own (a dense GEMM's time does not depend on the
//! values), so only the real call's answers are compared to the reference;
//! the embedding store's build time is the difference between two builder
//! calls, not a copy of the engine's channel assignment.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use microrec_core::{MicroRec, RuntimeSnapshot};
use microrec_dnn::{FixedNum, Mlp, PackedMlp, ScratchArena, Q16, Q32};
use microrec_embedding::{
    Catalog, EmbeddingArena, HotRowCache, Precision, TierCounters, TieredStore,
};
use microrec_memsim::MemoryConfig;
use microrec_placement::{heuristic_search, HeuristicOptions};

use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Store, Workload, BATCH, CACHE_ROWS, MODEL_SEED};

/// This host's measured rooflines.
#[derive(Debug, Clone, Copy)]
pub struct Rooflines {
    pub peak_gmacs: f64,
    pub stream_gbps: f64,
}

/// Simulated numbers, exact for a given seed: they must not move unless
/// a change says it moves them. (`placement.rounds` and
/// `placement.tables_merged` come from the search in `setup_components`.)
pub fn simulated_counts(
    engine: &mut MicroRec,
    queries: &[Vec<u64>],
    v: &mut Values,
) -> Result<(), String> {
    let mut total_ns = 0.0;
    for q in queries {
        total_ns += engine.measure_lookup(q).map_err(|e| format!("measure_lookup: {e}"))?.as_ns();
    }
    v.insert("memsim.sim_lookup_ns", total_ns / queries.len() as f64);
    v.insert("accel.sim_latency_us", engine.latency().as_us());
    v.insert("accel.sim_items_per_s", engine.throughput_items_per_sec());
    Ok(())
}

/// The serving runtime's own counters and the spans around `submit`.
pub fn runtime_metrics(snapshot: Option<&RuntimeSnapshot>, tracer: &Tracer, v: &mut Values) {
    let Some(s) = snapshot else { return };
    let batches = s.batches.max(1) as f64;
    v.insert("core.runtime.mean_batch", s.mean_batch_size);
    v.insert("core.runtime.deadline_close_frac", s.deadline_closes as f64 / batches);
    v.insert("core.runtime.size_close_frac", s.size_closes as f64 / batches);
    v.insert("core.runtime.rejected", s.rejected as f64);
    v.insert("core.runtime.inner_p50_us", s.latency.p50_us);
    let submits = tracer.count("core.runtime.submit").max(1) as f64;
    v.insert("core.runtime.submit_ns", tracer.total_ns("core.runtime.submit") as f64 / submits);
}

/// Where rows come from when the gather is taken apart.
enum RowSource {
    Arena(Arc<EmbeddingArena>),
    Tiered(Box<TieredStore>),
}

/// What the replay works on.
pub struct Replay<'a> {
    pub batches: &'a [Vec<Vec<u64>>],
    /// Reference answer bits of every query of the pool, in pool order.
    pub reference: &'a [u32],
    /// How long to replay for.
    pub budget: Duration,
    pub rates: Rooflines,
}

/// Replays batches through the real call, the decomposed sequence and
/// the probes until the budget is spent.
pub fn decompose(
    input: &Replay<'_>,
    engine: &mut MicroRec,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Result<(), String> {
    match engine.precision() {
        Precision::Fixed16 => replay::<Q16>(input, engine, tracer, v),
        Precision::Fixed32 => replay::<Q32>(input, engine, tracer, v),
        Precision::F32 => replay::<f32>(input, engine, tracer, v),
    }
}

fn replay<T: FixedNum>(
    input: &Replay<'_>,
    engine: &mut MicroRec,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Result<(), String> {
    let Replay { batches, reference, budget, rates } = *input;
    let model = engine.model().clone();
    let tables = model.num_tables();
    let rounds = model.lookups_per_table as usize;
    let dims: Vec<u32> = engine.catalog().logical_tables().iter().map(|t| t.dim()).collect();
    let round_len: usize = dims.iter().map(|&d| d as usize).sum();
    let offsets: Vec<usize> = dims
        .iter()
        .scan(0usize, |acc, &d| {
            let at = *acc;
            *acc += d as usize;
            Some(at)
        })
        .collect();

    // A stand-in of the model's shape; its weights are not the engine's.
    let mlp = Mlp::top_mlp(model.feature_len(), &model.hidden, MODEL_SEED)
        .map_err(|e| format!("mlp: {e}"))?;
    let pack_start = Instant::now();
    let packed: PackedMlp<T> = PackedMlp::pack(&mlp);
    v.insert("dnn.pack_s", pack_start.elapsed().as_secs_f64());
    let mut scratch = ScratchArena::new();
    packed.warm(BATCH, &mut scratch);
    let macs_per_item: usize = packed.layers().iter().map(|l| l.input_dim() * l.output_dim()).sum();

    let mut rows = match (engine.arena(), engine.tiered_store()) {
        (Some(arena), _) => RowSource::Arena(Arc::clone(arena)),
        (None, Some(store)) => RowSource::Tiered(Box::new(store.clone())),
        (None, None) => return Err("the engine has neither an arena nor a tiered store".into()),
    };
    let mut cache = HotRowCache::new(&dims, CACHE_ROWS, 8);
    let mut misses = Vec::with_capacity(tables);
    let blank = vec![0.0f32; dims.iter().copied().max().unwrap_or(0) as usize];

    let mut features: Vec<Vec<f32>> = vec![Vec::new(); BATCH];
    let mut staging: Vec<T> = Vec::new();
    let mut round_buf = vec![0.0f32; round_len];
    let mut ping: Vec<T> = Vec::new();
    let mut pong: Vec<T> = Vec::new();
    const LAYER_SPANS: [&str; 4] = ["dnn.layer0", "dnn.layer1", "dnn.layer2", "dnn.layer3"];

    let mut tier_real = TierCounters::default();
    let mut done = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget || done == 0 {
        let id = done as u64;
        // The decomposed sequence and the probes take a batch half a pool
        // away from the real call's, so the engine's hot-row cache (where
        // it has one) sees no query twice in a row.
        let real = done % batches.len();
        let other = (done + batches.len() / 2) % batches.len();
        let root = tracer.begin("batch", None, id);

        let before = engine.tier_counters();
        let span = tracer.begin("replay.predict_batch", root, id);
        let out =
            engine.predict_batch(&batches[real]).map_err(|e| format!("predict_batch: {e}"))?;
        tracer.end(span);
        let after = engine.tier_counters().delta_since(&before);
        tier_real.cold_reads += after.cold_reads;
        tier_real.prefetch_hits += after.prefetch_hits;
        tier_real.bytes_from_cold += after.bytes_from_cold;
        tier_real.cold_errors += after.cold_errors;
        if out
            .iter()
            .map(|c| c.to_bits())
            .ne(reference[real * BATCH..(real + 1) * BATCH].iter().copied())
        {
            return Err("traced predict_batch differs from the reference".into());
        }

        let batch = &batches[other];
        let decomposed = tracer.begin("decomposed", root, id);
        let span = tracer.begin("core.engine.gather", decomposed, id);
        for (q, item) in batch.iter().zip(&mut features) {
            engine.gather_features_into(q, item).map_err(|e| format!("gather: {e}"))?;
        }
        tracer.end(span);
        let span = tracer.begin("dnn.quantize", decomposed, id);
        staging.clear();
        for item in &features {
            staging.extend(item.iter().map(|&x| T::from_f32(x)));
        }
        tracer.end(span);
        let span = tracer.begin("dnn.fc", decomposed, id);
        let ctrs = packed
            .forward_batch_into(&staging, BATCH, &mut scratch)
            .map_err(|e| format!("forward_batch_into: {e}"))?;
        tracer.end(span);
        tracer.end(decomposed);
        black_box(ctrs);

        let probes = tracer.begin("probes", root, id);
        let span = tracer.begin("memsim.simlookup", probes, id);
        for q in batch {
            black_box(engine.measure_lookup(q).map_err(|e| format!("measure_lookup: {e}"))?);
        }
        tracer.end(span);
        let catalog: &Catalog = engine.catalog();
        let span = tracer.begin("embedding.resolve", probes, id);
        for q in batch {
            for indices in q.chunks_exact(tables) {
                black_box(catalog.resolve(indices).map_err(|e| format!("resolve: {e}"))?);
            }
        }
        tracer.end(span);
        let span = tracer.begin("embedding.rows", probes, id);
        for q in batch {
            for indices in q.chunks_exact(tables) {
                let read = match &mut rows {
                    RowSource::Arena(arena) => arena.gather_into(indices, &mut round_buf),
                    RowSource::Tiered(store) => {
                        store.gather_round(indices, &offsets, &mut round_buf)
                    }
                };
                read.map_err(|e| format!("row source: {e}"))?;
                black_box(&round_buf);
            }
        }
        tracer.end(span);
        let span = tracer.begin("embedding.cache", probes, id);
        for q in batch {
            for indices in q.chunks_exact(tables) {
                cache.probe_round(indices, &mut round_buf, &mut misses);
                for &t in &misses {
                    let dim = dims[t] as usize;
                    cache.insert(t, indices[t], &blank[..dim], dim * 4);
                }
            }
        }
        tracer.end(span);
        for (i, layer) in packed.layers().iter().enumerate() {
            let input: &[T] = if i == 0 { &staging } else { &ping };
            let span = tracer.begin(LAYER_SPANS[i.min(3)], probes, id);
            layer.forward_batch(input, BATCH, &mut pong).map_err(|e| format!("layer {i}: {e}"))?;
            tracer.end(span);
            std::mem::swap(&mut ping, &mut pong);
        }
        tracer.end(probes);
        tracer.end(root);
        done += 1;
    }

    let items = (done * BATCH) as f64;
    let lookups = items * (rounds * tables) as f64;
    let us_per_item = |name: &str| tracer.total_ns(name) as f64 / 1e3 / items;
    let predict = us_per_item("replay.predict_batch");
    let gather = us_per_item("core.engine.gather");
    let fc = us_per_item("dnn.quantize") + us_per_item("dnn.fc");
    v.insert("core.engine.predict_us_per_item", predict);
    v.insert("core.engine.gather_us_per_item", gather);
    v.insert("dnn.fc_us_per_item", fc);
    v.insert("core.engine.other_us_per_item", predict - gather - fc);
    const LAYER_METRICS: [&str; 4] = [
        "dnn.layer0_us_per_batch",
        "dnn.layer1_us_per_batch",
        "dnn.layer2_us_per_batch",
        "dnn.layer3_us_per_batch",
    ];
    for (span, metric) in LAYER_SPANS.iter().zip(LAYER_METRICS) {
        v.insert(metric, tracer.total_ns(span) as f64 / 1e3 / done as f64);
    }
    let gmacs = macs_per_item as f64 * items / tracer.total_ns("dnn.fc").max(1) as f64;
    v.insert("dnn.macs_per_item", macs_per_item as f64);
    v.insert("dnn.gmacs_per_s", gmacs);
    v.insert("dnn.roofline_frac", gmacs / rates.peak_gmacs);
    v.insert("memsim.simlookup_us_per_item", us_per_item("memsim.simlookup"));
    v.insert(
        "embedding.resolve_ns_per_lookup",
        tracer.total_ns("embedding.resolve") as f64 / lookups,
    );
    let rows_ns = tracer.total_ns("embedding.rows").max(1) as f64;
    v.insert("embedding.rows_ns_per_lookup", rows_ns / lookups);
    // Computed from the table dims and the f32 row format, not measured.
    let bytes_per_item = (round_len * 4 * rounds) as f64;
    v.insert("embedding.bytes_per_item", bytes_per_item);
    v.insert("embedding.stream_frac", bytes_per_item * items / rows_ns / rates.stream_gbps);
    v.insert("embedding.cache_ns_per_lookup", tracer.total_ns("embedding.cache") as f64 / lookups);
    v.insert("embedding.cache_hit_frac", cache.hit_rate());

    if let RowSource::Tiered(store) = &rows {
        let probe = store.counters();
        let cold = tier_real.cold_reads.max(1) as f64;
        v.insert("embedding.cold_reads_per_item", tier_real.cold_reads as f64 / items);
        v.insert("embedding.prefetch_hit_frac", tier_real.prefetch_hits as f64 / cold);
        v.insert("embedding.cold_bytes_per_item", tier_real.bytes_from_cold as f64 / items);
        v.insert("embedding.cold_errors", (tier_real.cold_errors + probe.cold_errors) as f64);
        // Time of the probe's rounds (resident rows included, they are a
        // few ns each) per cold read the probe made.
        v.insert("embedding.cold_us_per_read", rows_ns / 1e3 / probe.cold_reads.max(1) as f64);
    }
    Ok(())
}

/// `predict_batch` back to back on `engine` alone, every answer compared
/// to the reference, starting at batch `first`. Returns the median over
/// five slices of the budget of correct items per second, and the median
/// call time in µs.
pub fn closed_loop(
    engine: &mut MicroRec,
    batches: &[Vec<Vec<u64>>],
    reference: &[u32],
    budget: Duration,
    first: usize,
) -> Result<(f64, f64), String> {
    const SLICES: u32 = 5;
    let mut order = (first..).map(|i| i % batches.len());
    let mut rates = Vec::new();
    let mut calls_us = Vec::new();
    for _ in 0..SLICES {
        let mut items = 0usize;
        let start = Instant::now();
        while start.elapsed() < budget / SLICES || items == 0 {
            let b = order.next().expect("the batch order is endless");
            let call = Instant::now();
            let out =
                engine.predict_batch(&batches[b]).map_err(|e| format!("predict_batch: {e}"))?;
            calls_us.push(call.elapsed().as_secs_f64() * 1e6);
            let want = reference[b * BATCH..(b + 1) * BATCH].iter().copied();
            if out.iter().map(|c| c.to_bits()).ne(want) {
                return Err("a closed-loop answer differs from the reference".into());
            }
            items += BATCH;
        }
        rates.push(items as f64 / start.elapsed().as_secs_f64());
    }
    Ok((stats::median(&rates), stats::median(&calls_us)))
}

/// The workload's tiered engine with the builder's default prefetch
/// workers (cold rows fetched by helper threads while the serving thread
/// reads the resident ones): the side rows that show what the prefetcher
/// costs or buys, as `closed_loop` reads them.
pub fn cold_async(
    w: &Workload,
    batches: &[Vec<Vec<u64>>],
    reference: &[u32],
    budget: Duration,
) -> Result<(f64, f64), String> {
    let mut engine = w.default_builder().build().map_err(|e| format!("async engine build: {e}"))?;
    // Starts a quarter of a pool away from anything the replay touched.
    closed_loop(&mut engine, batches, reference, budget, batches.len() / 4)
}

/// The parts of set-up that can be timed from outside, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    search_s: f64,
    catalog_s: f64,
    /// `builder.build()` of the plain engine: no arena, no tiers, no cache.
    bare_s: f64,
}

/// Times placement search and catalog build on their own and the plain
/// engine's build (which contains both), and reads the exact placement
/// counts off the search.
pub fn setup_components(
    w: &Workload,
    pass: u64,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Result<SetupParts, String> {
    let model = (w.model)();
    let parts = tracer.begin("setup.components", None, pass);
    let span = tracer.begin("placement.search", parts, pass);
    let outcome = heuristic_search(
        &model,
        &MemoryConfig::u280(),
        Precision::F32,
        &HeuristicOptions::default(),
    )
    .map_err(|e| format!("placement search: {e}"))?;
    let search_s = tracer.end(span) as f64 / 1e9;
    v.insert("placement.rounds", outcome.cost.dram_rounds as f64);
    v.insert("placement.tables_merged", outcome.plan.merge.tables_eliminated() as f64);
    let span = tracer.begin("embedding.catalog_build", parts, pass);
    let catalog = Catalog::build(&model, &outcome.plan.merge, MODEL_SEED)
        .map_err(|e| format!("catalog: {e}"))?;
    let catalog_s = tracer.end(span) as f64 / 1e9;
    drop(catalog);
    let span = tracer.begin("core.engine.build_bare", parts, pass);
    let bare = w.oracle_builder().build().map_err(|e| format!("plain engine build: {e}"))?;
    let bare_s = tracer.end(span) as f64 / 1e9;
    drop(bare);
    tracer.end(parts);
    Ok(SetupParts { search_s, catalog_s, bare_s })
}

impl SetupParts {
    /// Books the set-up parts, given the time of the workload's real
    /// engine build. The embedding store (arena, or resident arena plus
    /// cold file — one call from outside, booked under `cold_build_s`) is
    /// what the real build takes beyond the plain engine's; the build's
    /// self time is what the plain engine's takes beyond search and
    /// catalog. Differences of separate timings: noise can push one below
    /// zero, where it is reported as zero.
    pub fn book(&self, store: Store, engine_build_s: f64, v: &mut Values) {
        let store_s = (engine_build_s - self.bare_s).max(0.0);
        let (arena_s, cold_s) = match store {
            Store::Arena => (store_s, 0.0),
            Store::TieredQuarter => (0.0, store_s),
        };
        v.insert("placement.search_s", self.search_s);
        v.insert("embedding.catalog_build_s", self.catalog_s);
        v.insert("embedding.arena_build_s", arena_s);
        v.insert("embedding.cold_build_s", cold_s);
        v.insert(
            "core.engine.build_self_s",
            (self.bare_s - self.search_s - self.catalog_s).max(0.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_parts_are_differences_floored_at_zero() {
        let parts = SetupParts { search_s: 0.02, catalog_s: 0.01, bare_s: 0.05 };
        let mut v = Values::new();
        parts.book(Store::Arena, 0.45, &mut v);
        assert!((v["embedding.arena_build_s"] - 0.40).abs() < 1e-12);
        assert_eq!(v["embedding.cold_build_s"], 0.0);
        assert!((v["core.engine.build_self_s"] - 0.02).abs() < 1e-12);
        // A real build that noise made quicker than the plain one.
        let mut v = Values::new();
        parts.book(Store::TieredQuarter, 0.04, &mut v);
        assert_eq!((v["embedding.arena_build_s"], v["embedding.cold_build_s"]), (0.0, 0.0));
        let noisy = SetupParts { search_s: 0.04, catalog_s: 0.02, bare_s: 0.05 };
        noisy.book(Store::Arena, 0.5, &mut v);
        assert_eq!(v["core.engine.build_self_s"], 0.0);
    }
}
