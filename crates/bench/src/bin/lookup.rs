//! Embedding-lookup fast-path benchmark: wall-clock gather throughput of
//! the legacy per-table path vs the contiguous [`EmbeddingArena`] (f32,
//! f16, i8 rows) with and without the [`HotRowCache`], under Zipf(1.05)
//! and uniform traffic. Emits one JSON record per point (committed as
//! `BENCH_lookup.json`).
//!
//! The bin also enforces the fast path's functional contracts before
//! timing anything: the f32 arena must gather bit-identically to the
//! legacy tables, and for every row format the cache-fronted path must be
//! bit-identical to the same storage without a cache.
//!
//! Run with `cargo run --release -p microrec-bench --bin lookup`
//! (`-- --smoke` for the time-bounded CI variant).

use std::hint::black_box;
use std::time::Instant;

use microrec_embedding::{
    EmbeddingArena, EmbeddingTable, HotRowCache, ModelSpec, RowFormat, TableSpec, TierCounters,
    TieredBacking, TieredStore,
};
use microrec_json::ToJson;
use microrec_workload::{QueryGenConfig, QueryGenerator};

/// Logical embedding tables.
const TABLES: usize = 16;
/// Row dimension (f32 elements per row).
const DIM: u32 = 32;
/// Simulated memory channels the arena is striped over.
const CHANNELS: usize = 8;
/// Hot-row cache capacity in rows (128K rows × 128 B = 16 MiB). Sized as
/// a hot tier the way HugeCTR's parameter server sizes its GPU cache —
/// a double-digit percentage of the row space — so the Zipf(1.05) head
/// fits; uniform traffic does not fit, and the bench reports both
/// regimes.
const CACHE_ROWS: usize = 131_072;
/// Cache associativity.
const CACHE_WAYS: usize = 8;
/// Resident budgets for the tiered sweep, as percentages of the encoded
/// embedding bytes. 5% leaves every equal-sized table cold (the cache is
/// the only memory tier), 25% admits a quarter of the tables, 100% is
/// all-resident (the tiered store degenerates to the arena).
const TIERED_BUDGET_PCTS: [u64; 3] = [100, 25, 5];
/// Async cold-read prefetch workers per tiered store when the machine has
/// spare cores. On a single-core host the workers cannot overlap with the
/// serving thread — every handoff is a context switch — so the bench
/// drops to synchronous reads there (see [`prefetch_workers`]).
const PREFETCH_WORKERS: usize = 2;

/// Prefetch workers to actually use on this host.
fn prefetch_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores > 1 {
        PREFETCH_WORKERS
    } else {
        0
    }
}

/// One measured configuration, serialized into `BENCH_lookup.json`.
#[derive(Debug, Clone, PartialEq)]
struct LookupPoint {
    /// Traffic distribution (`"zipf-1.05"` or `"uniform"`).
    dist: String,
    /// Row storage (`"legacy"`, `"f32"`, `"f16"`, `"i8"`).
    storage: String,
    /// Cache capacity in rows (0 = cache off).
    cache_rows: u64,
    /// Mean wall-clock time per row gathered.
    ns_per_lookup: f64,
    /// Steady-state cache hit rate (0 when the cache is off).
    hit_rate: f64,
    /// Speedup over the legacy no-cache path under the same traffic.
    speedup_vs_legacy: f64,
    /// Feature bytes served from the cache during the timed passes.
    bytes_from_cache: u64,
    /// Source-row bytes fetched from storage during the timed passes.
    bytes_from_memory: u64,
}

microrec_json::impl_json_struct!(
    LookupPoint,
    required {
        dist,
        storage,
        cache_rows,
        ns_per_lookup,
        hit_rate,
        speedup_vs_legacy,
        bytes_from_cache,
        bytes_from_memory,
    }
);

/// Row storage backing one gather configuration.
enum Storage<'a> {
    Legacy(&'a [EmbeddingTable]),
    Arena(&'a EmbeddingArena),
}

impl Storage<'_> {
    fn label(&self) -> &'static str {
        match self {
            Storage::Legacy(_) => "legacy",
            Storage::Arena(a) => a.format().as_str(),
        }
    }

    /// Reads one row into `slot`, returning the source bytes it cost.
    fn read_row_into(&self, table: usize, row: u64, slot: &mut [f32]) -> usize {
        match self {
            Storage::Legacy(tables) => {
                tables[table].read_row(row, slot).expect("legacy read");
                slot.len() * 4
            }
            Storage::Arena(arena) => {
                arena.read_row_into(table, row, slot).expect("arena read");
                arena.source_row_bytes(table)
            }
        }
    }
}

/// Cache-fronted gather state: the cache plus its reusable miss scratch.
struct CachedPath {
    cache: HotRowCache,
    misses: Vec<usize>,
}

impl CachedPath {
    fn new() -> Self {
        CachedPath {
            cache: HotRowCache::new(&[DIM; TABLES], CACHE_ROWS, CACHE_WAYS),
            misses: Vec::with_capacity(TABLES),
        }
    }
}

/// Gathers one query's rows into `out`, optionally through the cache.
/// The cached path probes the whole round first, then services misses in
/// bulk, so independent cache-line fetches overlap.
fn gather(storage: &Storage<'_>, cached: Option<&mut CachedPath>, query: &[u64], out: &mut [f32]) {
    let dim = DIM as usize;
    match cached {
        Some(path) => {
            path.cache.probe_round(query, out, &mut path.misses);
            for &table in &path.misses {
                let slot = &mut out[table * dim..(table + 1) * dim];
                let bytes = storage.read_row_into(table, query[table], slot);
                path.cache.insert(table, query[table], slot, bytes);
            }
        }
        None => match storage {
            Storage::Arena(arena) => arena.gather_into(query, out).expect("arena gather"),
            Storage::Legacy(_) => {
                for (table, &row) in query.iter().enumerate() {
                    storage.read_row_into(table, row, &mut out[table * dim..(table + 1) * dim]);
                }
            }
        },
    }
}

/// Times `passes` full sweeps over `queries`, returning ns per row
/// gathered for the fastest pass (robust to scheduler interference) plus
/// the cache's steady-state counters accumulated over every timed pass.
fn measure(
    storage: &Storage<'_>,
    mut cached: Option<CachedPath>,
    queries: &[Vec<u64>],
    passes: usize,
) -> (f64, f64, u64, u64) {
    let mut out = vec![0.0f32; TABLES * DIM as usize];
    // Warm pass: faults the arena pages in and fills the cache.
    for q in queries {
        gather(storage, cached.as_mut(), q, &mut out);
    }
    if let Some(p) = cached.as_mut() {
        p.cache.reset_stats();
    }
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for q in queries {
            gather(storage, cached.as_mut(), q, &mut out);
            black_box(out[0]);
        }
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    let lookups = (queries.len() * TABLES) as f64;
    match cached {
        Some(p) => (
            best / lookups,
            p.cache.hit_rate(),
            p.cache.bytes_from_cache(),
            p.cache.bytes_from_memory(),
        ),
        None => (best / lookups, 0.0, 0, 0),
    }
}

/// One measured tiered-store configuration (always behind the warm
/// hot-row cache), serialized into the `tiered_points` section.
#[derive(Debug, Clone, PartialEq)]
struct TieredPoint {
    /// Traffic distribution (`"zipf-1.05"` or `"uniform"`).
    dist: String,
    /// Row storage format (`"f32"` or `"f16"`).
    storage: String,
    /// Resident budget as a percentage of the encoded embedding bytes.
    budget_pct: u64,
    /// Resident budget in bytes.
    budget_bytes: u64,
    /// Tables the residency policy admitted under the budget.
    resident_tables: u64,
    /// Hot-row cache capacity in rows.
    cache_rows: u64,
    /// Mean wall-clock time per row gathered (fastest pass).
    ns_per_lookup: f64,
    /// Steady-state cache hit rate.
    hit_rate: f64,
    /// Throughput relative to the all-resident (100% budget) point under
    /// the same traffic and format (1.0 at 100%).
    qps_vs_all_resident: f64,
    /// Rows served from the resident arena tier over the timed passes.
    resident_hits: u64,
    /// Rows read from the file-backed cold tier over the timed passes.
    cold_reads: u64,
    /// Cold reads whose async prefetch completed before collection.
    prefetch_hits: u64,
    /// Bytes read from the cold tier over the timed passes.
    bytes_from_cold: u64,
}

microrec_json::impl_json_struct!(
    TieredPoint,
    required {
        dist,
        storage,
        budget_pct,
        budget_bytes,
        resident_tables,
        cache_rows,
        ns_per_lookup,
        hit_rate,
        qps_vs_all_resident,
        resident_hits,
        cold_reads,
        prefetch_hits,
        bytes_from_cold,
    }
);

/// Gathers one query through the tiered store, optionally behind the
/// hot-row cache (probe the whole round, then serve only the misses).
fn tiered_gather(
    store: &mut TieredStore,
    cached: Option<&mut CachedPath>,
    query: &[u64],
    offsets: &[usize],
    out: &mut [f32],
) {
    match cached {
        Some(path) => {
            let CachedPath { cache, misses } = path;
            cache.probe_round(query, out, misses);
            store
                .serve_rows(query, misses, offsets, out, |t, slot, bytes| {
                    cache.insert(t, query[t], slot, bytes);
                })
                .expect("tiered serve");
        }
        None => store.gather_round(query, offsets, out).expect("tiered gather"),
    }
}

/// Times `passes` sweeps over `queries` through the tiered store behind a
/// warm cache. Returns ns per lookup for the fastest pass, the cache hit
/// rate, and the per-tier counters accumulated over the timed passes.
fn measure_tiered(
    store: &mut TieredStore,
    queries: &[Vec<u64>],
    offsets: &[usize],
    passes: usize,
) -> (f64, f64, TierCounters) {
    let mut path = CachedPath::new();
    let mut out = vec![0.0f32; TABLES * DIM as usize];
    // Warm pass: fills the cache, faults resident pages, pulls the cold
    // file into the OS page cache, and spins up the prefetch workers.
    for q in queries {
        tiered_gather(store, Some(&mut path), q, offsets, &mut out);
    }
    path.cache.reset_stats();
    store.reset_stats();
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for q in queries {
            tiered_gather(store, Some(&mut path), q, offsets, &mut out);
            black_box(out[0]);
        }
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    let counters = store.counters();
    assert_eq!(counters.cold_errors, 0, "cold tier reported I/O errors while timing");
    (best / (queries.len() * TABLES) as f64, path.cache.hit_rate(), counters)
}

/// The tiered store must be bit-identical to the all-resident arena of
/// the same format at every budget, cache on and off — before anything
/// is timed.
fn check_tiered_bit_identity(
    arena: &EmbeddingArena,
    backing: &std::sync::Arc<TieredBacking>,
    offsets: &[usize],
    queries: &[Vec<u64>],
) {
    let mut store = TieredStore::new(std::sync::Arc::clone(backing), prefetch_workers());
    let mut path = CachedPath::new();
    let mut expected = vec![0.0f32; TABLES * DIM as usize];
    let mut got = vec![0.0f32; TABLES * DIM as usize];
    for q in queries {
        arena.gather_into(q, &mut expected).expect("arena gather");
        tiered_gather(&mut store, None, q, offsets, &mut got);
        assert_eq!(
            bits(&got),
            bits(&expected),
            "{} tiered (no cache) diverged from the arena",
            arena.format()
        );
        tiered_gather(&mut store, Some(&mut path), q, offsets, &mut got);
        assert_eq!(
            bits(&got),
            bits(&expected),
            "{} tiered (cached) diverged from the arena",
            arena.format()
        );
    }
}

/// Generates `n` queries (one row per table) from the model's generator.
fn generate(model: &ModelSpec, zipf: f64, n: usize) -> Vec<Vec<u64>> {
    let mut gen = QueryGenerator::new(model, QueryGenConfig { zipf_exponent: zipf, seed: 0xB00C })
        .expect("generator");
    (0..n).map(|_| gen.next_query()).collect()
}

/// Every configuration must produce bit-identical features to the legacy
/// cacheless gather (f32 storage) or to its own cacheless gather
/// (quantized storage): the cache must never change a single bit.
fn check_bit_identity(tables: &[EmbeddingTable], arenas: &[EmbeddingArena], queries: &[Vec<u64>]) {
    let dim = DIM as usize;
    let mut expected = vec![0.0f32; TABLES * dim];
    let mut got = vec![0.0f32; TABLES * dim];
    for arena in arenas {
        let storage = Storage::Arena(arena);
        let mut path = CachedPath::new();
        for q in queries {
            gather(&storage, None, q, &mut expected);
            if arena.format() == RowFormat::F32 {
                // f32 arena ≡ legacy tables, bit for bit.
                gather(&Storage::Legacy(tables), None, q, &mut got);
                assert_eq!(bits(&got), bits(&expected), "f32 arena diverged from legacy");
            }
            // Cache-on ≡ cache-off for every storage format.
            gather(&storage, Some(&mut path), q, &mut got);
            assert_eq!(bits(&got), bits(&expected), "{} cache diverged", arena.format());
        }
        assert!(path.cache.hits() > 0, "identity stream never hit the cache");
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rows_per_table, num_queries, passes) =
        if smoke { (20_000u64, 2_000usize, 2usize) } else { (25_000, 20_000, 5) };

    let specs: Vec<TableSpec> = (0..TABLES)
        .map(|i| TableSpec::new(format!("lookup_{i:02}"), rows_per_table, DIM))
        .collect();
    let model = ModelSpec::new("lookup-bench", specs, vec![64], 1);
    let tables: Vec<EmbeddingTable> = model
        .tables
        .iter()
        .enumerate()
        .map(|(i, spec)| EmbeddingTable::procedural(spec.clone(), 0x10_0C + i as u64))
        .collect();
    let channel_of: Vec<usize> = (0..TABLES).map(|i| i % CHANNELS).collect();

    eprintln!(
        "building arenas: {TABLES} tables x {rows_per_table} rows x {DIM} dims over {CHANNELS} channels"
    );
    let arenas: Vec<EmbeddingArena> = [RowFormat::F32, RowFormat::F16, RowFormat::I8]
        .into_iter()
        .map(|f| EmbeddingArena::build(&tables, f, &channel_of, u64::MAX).expect("arena"))
        .collect();
    for arena in &arenas {
        eprintln!(
            "  {:>3} arena: {:.1} MiB, 64B-aligned: {}",
            arena.format().as_str(),
            arena.total_bytes() as f64 / (1 << 20) as f64,
            arena.is_aligned(),
        );
    }

    let identity_queries = generate(&model, 1.05, if smoke { 200 } else { 1_000 });
    check_bit_identity(&tables, &arenas, &identity_queries);
    eprintln!("bit-identity (f32 arena vs legacy, cache on vs off): ok");

    let mut points = Vec::new();
    let mut headline = 0.0f64;
    for (dist, zipf) in [("zipf-1.05", 1.05), ("uniform", 0.0)] {
        let queries = generate(&model, zipf, num_queries);
        let mut legacy_ns = 0.0f64;
        for storage in
            std::iter::once(Storage::Legacy(&tables)).chain(arenas.iter().map(Storage::Arena))
        {
            for cached in [false, true] {
                let path = cached.then(CachedPath::new);
                let (ns, hit_rate, from_cache, from_memory) =
                    measure(&storage, path, &queries, passes);
                if !cached && matches!(storage, Storage::Legacy(_)) {
                    legacy_ns = ns;
                }
                let speedup = legacy_ns / ns;
                if dist == "zipf-1.05" && storage.label() == "f16" && cached {
                    headline = speedup;
                }
                eprintln!(
                    "{dist:>9} {:>6} cache={:<5} {ns:>7.2} ns/lookup  hit {:>5.1}%  {speedup:>5.2}x",
                    storage.label(),
                    cached,
                    hit_rate * 100.0,
                );
                points.push(LookupPoint {
                    dist: dist.to_string(),
                    storage: storage.label().to_string(),
                    cache_rows: if cached { CACHE_ROWS as u64 } else { 0 },
                    ns_per_lookup: ns,
                    hit_rate,
                    speedup_vs_legacy: speedup,
                    bytes_from_cache: from_cache,
                    bytes_from_memory: from_memory,
                });
            }
        }
    }

    // Acceptance gate: warm f16 rows behind the cache must gather at
    // least 2x faster than the legacy scalar path under Zipf(1.05).
    eprintln!("headline (f16 + warm cache vs legacy, Zipf 1.05): {headline:.2}x");
    assert!(headline >= 2.0, "f16 warm-cache speedup {headline:.2}x below the 2x gate");

    // ---- Tiered parameter-store sweep -----------------------------------
    // Budget {100%, 25%, 5%} x {zipf, uniform} x {f32, f16}, every point
    // behind the warm hot-row cache. The uniform points are the honest
    // counter-case: with no reuse the cache cannot shield the cold tier,
    // so a small budget pays the file-read cost on most rounds.
    let offsets: Vec<usize> = (0..TABLES).map(|t| t * DIM as usize).collect();
    let mut tiered_points = Vec::new();
    let mut gate_ratio = f64::INFINITY;
    for format in [RowFormat::F32, RowFormat::F16] {
        let arena = arenas.iter().find(|a| a.format() == format).expect("arena");
        let row_bytes = DIM as u64 * format.bytes_per_elem() as u64;
        let total_bytes = TABLES as u64 * rows_per_table * row_bytes;
        let backings: Vec<(u64, std::sync::Arc<TieredBacking>)> = TIERED_BUDGET_PCTS
            .into_iter()
            .map(|pct| {
                let budget = total_bytes * pct / 100;
                let backing = TieredBacking::build(&tables, format, &channel_of, budget)
                    .expect("tiered backing");
                assert!(backing.resident_bytes() <= budget, "residency plan exceeded budget");
                // Bit-identity gate before timing: every budget must serve
                // the exact bits the all-resident arena serves.
                check_tiered_bit_identity(arena, &backing, &offsets, &identity_queries);
                (pct, backing)
            })
            .collect();
        eprintln!("tiered bit-identity ({} at {TIERED_BUDGET_PCTS:?}% budgets): ok", format);
        for (dist, zipf) in [("zipf-1.05", 1.05), ("uniform", 0.0)] {
            let queries = generate(&model, zipf, num_queries);
            let mut all_resident_ns = 0.0f64;
            for (pct, backing) in &backings {
                let mut store =
                    TieredStore::new(std::sync::Arc::clone(backing), prefetch_workers());
                let (ns, hit_rate, counters) =
                    measure_tiered(&mut store, &queries, &offsets, passes);
                if *pct == 100 {
                    all_resident_ns = ns;
                }
                let qps_ratio = all_resident_ns / ns;
                if *pct == 25 && dist == "zipf-1.05" {
                    gate_ratio = gate_ratio.min(qps_ratio);
                }
                eprintln!(
                    "{dist:>9} {:>4} tiered {pct:>3}% {ns:>8.2} ns/lookup  hit {:>5.1}%  \
                     {:.0}% of all-resident qps  cold {} (prefetch {})",
                    format.as_str(),
                    hit_rate * 100.0,
                    qps_ratio * 100.0,
                    counters.cold_reads,
                    counters.prefetch_hits,
                );
                tiered_points.push(TieredPoint {
                    dist: dist.to_string(),
                    storage: format.as_str().to_string(),
                    budget_pct: *pct,
                    budget_bytes: total_bytes * pct / 100,
                    resident_tables: backing.num_resident_tables() as u64,
                    cache_rows: CACHE_ROWS as u64,
                    ns_per_lookup: ns,
                    hit_rate,
                    qps_vs_all_resident: qps_ratio,
                    resident_hits: counters.resident_hits,
                    cold_reads: counters.cold_reads,
                    prefetch_hits: counters.prefetch_hits,
                    bytes_from_cold: counters.bytes_from_cold,
                });
            }
        }
    }
    // Acceptance gate (full runs only; --smoke is too short to time
    // reliably): the warm tiered path at a 25% budget must keep at least
    // 70% of all-resident throughput under Zipf(1.05).
    eprintln!("tiered gate (Zipf 1.05, 25% budget, worst format): {:.0}%", gate_ratio * 100.0);
    if !smoke {
        assert!(
            gate_ratio >= 0.70,
            "tiered 25%-budget qps {:.2} below 70% of all-resident",
            gate_ratio
        );
    }

    let obj = vec![
        ("model".to_string(), model.name.to_json()),
        ("tables".to_string(), (TABLES as u64).to_json()),
        ("rows_per_table".to_string(), rows_per_table.to_json()),
        ("dim".to_string(), u64::from(DIM).to_json()),
        ("channels".to_string(), (CHANNELS as u64).to_json()),
        ("cache_rows".to_string(), (CACHE_ROWS as u64).to_json()),
        ("cache_ways".to_string(), (CACHE_WAYS as u64).to_json()),
        ("queries".to_string(), (num_queries as u64).to_json()),
        ("passes".to_string(), (passes as u64).to_json()),
        ("bit_identical".to_string(), true.to_json()),
        ("headline_speedup_f16_warm_zipf".to_string(), headline.to_json()),
        ("points".to_string(), points.to_json()),
        ("tiered_budget_pcts".to_string(), TIERED_BUDGET_PCTS.to_vec().to_json()),
        ("prefetch_workers".to_string(), (prefetch_workers() as u64).to_json()),
        ("tiered_gate_qps_vs_all_resident".to_string(), gate_ratio.to_json()),
        ("tiered_points".to_string(), tiered_points.to_json()),
    ];
    println!("{}", microrec_json::to_string_pretty(&microrec_json::Json::Obj(obj)));
}
