//! Proves the steady-state embedding-lookup fast path performs zero heap
//! allocations: with a warm [`HotRowCache`] in front of an
//! [`EmbeddingArena`], repeated gathers (hits and misses alike) never
//! touch the global allocator.
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
    use microrec_embedding::{EmbeddingArena, EmbeddingTable, HotRowCache, RowFormat, TableSpec};

    let tables: Vec<EmbeddingTable> =
        (0..6).map(|i| EmbeddingTable::procedural(TableSpec::new("t", 500, 16), 100 + i)).collect();
    let dims = [16u32; 6];

    for format in [RowFormat::F32, RowFormat::F16, RowFormat::I8] {
        let arena = EmbeddingArena::build(&tables, format, &[0; 6]).unwrap();
        let mut cache = HotRowCache::new(&dims, 256, 8);
        let mut out = vec![0.0f32; arena.feature_len()];
        // A deterministic skewed trace: row = i² mod 97 re-hits heavily.
        let trace: Vec<u64> = (0..512u64).map(|i| (i * i) % 97).collect();

        // Warm: run the whole trace once through the cache-fronted path.
        let run = |cache: &mut HotRowCache, out: &mut [f32]| {
            for &row in &trace {
                let mut offset = 0usize;
                for (t, &dim) in dims.iter().enumerate() {
                    let dim = dim as usize;
                    let slot = &mut out[offset..offset + dim];
                    if !cache.lookup_into(t, row, slot) {
                        arena.read_row_into(t, row, slot).unwrap();
                        cache.insert(t, row, slot, arena.source_row_bytes(t));
                    }
                    offset += dim;
                }
            }
        };
        run(&mut cache, &mut out);
        assert!(cache.hits() > 0, "warm-up produced no hits");

        let delta = settled_delta(|| {
            for _ in 0..8 {
                run(&mut cache, &mut out);
            }
        });
        assert_eq!(delta, 0, "{format} lookup path allocated in steady state");

        // The batched probe is equally allocation-free once its miss
        // scratch has been sized to the table count.
        let mut misses = Vec::with_capacity(dims.len());
        let probe = |cache: &mut HotRowCache, out: &mut [f32], misses: &mut Vec<usize>| {
            for &row in &trace {
                let query = [row; 6];
                cache.probe_round(&query, out, misses);
                for &t in misses.iter() {
                    let offset = t * 16;
                    let slot = &mut out[offset..offset + 16];
                    arena.read_row_into(t, row, slot).unwrap();
                    cache.insert(t, row, slot, arena.source_row_bytes(t));
                }
            }
        };
        probe(&mut cache, &mut out, &mut misses);
        let delta = settled_delta(|| {
            for _ in 0..8 {
                probe(&mut cache, &mut out, &mut misses);
            }
        });
        assert_eq!(delta, 0, "{format} probe_round path allocated in steady state");
    }
}
