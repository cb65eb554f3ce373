//! Proves the steady-state embedding row path performs zero heap
//! allocations: the tables' bulk row fill, repeated round gathers from an
//! [`EmbeddingArena`], through
//! a warm [`HotRowCache`] in front of it, and from a [`TieredStore`]
//! (resident reads and cold `pread`s alike) never touch the global
//! allocator.
//!
//! A single `#[test]` keeps the process to one test thread, so the
//! counting allocator's delta is attributable to the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to the `System` allocator and
// only adds a relaxed atomic increment, so `GlobalAlloc`'s contract holds
// exactly as it does for `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we pass the
    // layout through to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller gave us, forwarded to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with this
    // layout — which means it came from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` pair is valid for `System` per the above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; all three
    // arguments are forwarded to `System` untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Minimum allocation delta of `f` over a few attempts. The lookup path
/// under test is deterministic, so if it allocated even once per call the
/// delta would be positive on *every* attempt; taking the minimum filters
/// out unrelated one-shot allocations from harness threads sharing the
/// process-global counter.
fn settled_delta(mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = allocation_count();
        f();
        best = best.min(allocation_count() - before);
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn steady_state_lookup_never_allocates() {
    use microrec_embedding::{
        EmbeddingArena, EmbeddingTable, HotRowCache, TableSpec, TieredBacking, TieredStore,
    };

    let tables: Vec<EmbeddingTable> =
        (0..6).map(|i| EmbeddingTable::procedural(TableSpec::new("t", 500, 16), 100 + i)).collect();
    let offsets: Vec<usize> = (0..6).map(|t| t * 16).collect();
    // A deterministic skewed trace: row = i² mod 97.
    let trace: Vec<u64> = (0..512u64).map(|i| (i * i) % 97).collect();

    // The bulk row fill every arena build spends its time in, from a
    // procedural and a materialized table, and the per-row read beside it.
    for table in [tables[0].clone(), tables[0].to_materialized(u64::MAX).unwrap()] {
        let mut bulk = vec![0.0f32; 500 * 16];
        let mut row = [0.0f32; 16];
        table.fill_rows(0, &mut bulk).unwrap();
        let delta = settled_delta(|| {
            for start in [0, 7, 250] {
                table.fill_rows(start, &mut bulk[..250 * 16]).unwrap();
            }
            for &r in &trace {
                table.read_row(r, &mut row).unwrap();
            }
        });
        assert_eq!(delta, 0, "the bulk row fill allocated");
    }

    let arena = EmbeddingArena::build(&tables).unwrap();
    let mut out = vec![0.0f32; arena.feature_len()];
    let run = |out: &mut [f32]| {
        for &row in &trace {
            arena.gather_into(&[row; 6], out).unwrap();
        }
    };
    run(&mut out);
    let delta = settled_delta(|| {
        for _ in 0..8 {
            run(&mut out);
        }
    });
    assert_eq!(delta, 0, "arena gather allocated in steady state");

    // The hot-row cache in front of the arena (the perf ledger's own
    // probe): per-row lookups, and whole-round probes once the miss
    // scratch has been sized to the table count, hits and misses alike.
    let mut cache = HotRowCache::new(&[16; 6], 256, 8);
    let source_bytes = 16 * size_of::<f32>();
    let per_row = |cache: &mut HotRowCache, out: &mut [f32]| {
        for &row in &trace {
            for (t, slot) in out.chunks_exact_mut(16).enumerate() {
                if !cache.lookup_into(t, row, slot) {
                    arena.read_row_into(t, row, slot).unwrap();
                    cache.insert(t, row, slot, source_bytes);
                }
            }
        }
    };
    per_row(&mut cache, &mut out);
    assert!(cache.hits() > 0, "warm-up produced no hits");
    let delta = settled_delta(|| {
        for _ in 0..8 {
            per_row(&mut cache, &mut out);
        }
    });
    assert_eq!(delta, 0, "cache lookup path allocated in steady state");

    let mut misses = Vec::with_capacity(6);
    let probe = |cache: &mut HotRowCache, out: &mut [f32], misses: &mut Vec<usize>| {
        for &row in &trace {
            cache.probe_round(&[row; 6], out, misses);
            for &t in misses.iter() {
                let slot = &mut out[offsets[t]..offsets[t] + 16];
                arena.read_row_into(t, row, slot).unwrap();
                cache.insert(t, row, slot, source_bytes);
            }
        }
    };
    probe(&mut cache, &mut out, &mut misses);
    let delta = settled_delta(|| {
        for _ in 0..8 {
            probe(&mut cache, &mut out, &mut misses);
        }
    });
    assert_eq!(delta, 0, "probe_round path allocated in steady state");
    assert!(cache.misses() > 0, "the trace must also miss");

    // Half the bytes resident: three tables are read from the cold file.
    let budget = arena.total_bytes() / 2;
    let backing = TieredBacking::build(&tables, budget).unwrap();
    assert!(backing.num_resident_tables() < 6, "the cold tier must exist");
    let mut store = TieredStore::new(backing);
    let round = |store: &mut TieredStore, out: &mut [f32]| {
        for &row in &trace {
            store.gather_round(&[row; 6], &offsets, out).unwrap();
        }
    };
    round(&mut store, &mut out);
    let delta = settled_delta(|| {
        for _ in 0..8 {
            round(&mut store, &mut out);
        }
    });
    assert_eq!(delta, 0, "tiered gather allocated in steady state");
    assert!(store.counters().cold_reads > 0);
}
