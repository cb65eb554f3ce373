//! Proves the DNN kernels perform zero heap allocations in steady state:
//! after one warm-up call, repeated `forward_batch_into` calls at f32, Q2.13
//! and Q8.23 never touch the global allocator.
//!
//! It also pins the set-up path's allocations: packing the ledger's FC stack
//! at Q2.13, warming an arena and serving the first batch request exactly
//! the heap blocks they requested before the wide-accumulator kernel, grown
//! only by the AMX tile's byte planes and A-plane scratch.
//!
//! A single `#[test]` keeps the process to one test thread, so the
//! counting allocator's delta is attributable to the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// While set, every request's size is appended to `RECORDED`.
static RECORDING: AtomicBool = AtomicBool::new(false);
static RECORDED: [AtomicUsize; 32] = [const { AtomicUsize::new(0) }; 32];
static RECORDED_LEN: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if RECORDING.load(Ordering::Relaxed) {
        let at = RECORDED_LEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = RECORDED.get(at) {
            slot.store(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method delegates verbatim to the `System` allocator and
// only adds relaxed atomic bookkeeping, so `GlobalAlloc`'s contract holds
// exactly as it does for `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we pass the
    // layout through to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
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
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap requests of 32 calls of `f`, after one warming call.
fn steady_delta(mut f: impl FnMut()) -> u64 {
    f();
    let before = allocation_count();
    for _ in 0..32 {
        f();
    }
    allocation_count() - before
}

/// The packed batch path at precision `T`, at `batch` and at a batch of
/// one: it asks for no block once warm.
fn steady_state_at<T: microrec_dnn::FixedNum>(name: &str, inputs: &[f32], batch: usize) {
    use microrec_dnn::{Mlp, PackedMlp, ScratchArena};

    // 68 outputs are 17 panels: on an AVX-512 VNNI host the Q2.13 path runs
    // its 6-panel tile, the 4-panel rest and the AVX2 tile on the odd last
    // panel; the 1-wide head runs `gemm_packed`'s scalar tail.
    let mlp = Mlp::top_mlp(64, &[128, 68], 7).unwrap();
    let inputs: Vec<T> = inputs.iter().map(|&v| T::from_f32(v)).collect();
    let packed: PackedMlp<T> = PackedMlp::pack(&mlp);
    let mut arena = ScratchArena::new();
    packed.warm(batch, &mut arena);
    let delta = steady_delta(|| {
        let out = packed.forward_batch_into(&inputs, batch, &mut arena).unwrap();
        assert_eq!(out.len(), batch);
    });
    assert_eq!(delta, 0, "{name} forward_batch_into allocated in steady state");
    let delta = steady_delta(|| {
        let out = packed.forward_batch_into(&inputs[..64], 1, &mut arena).unwrap();
        assert_eq!(out.len(), 1);
    });
    assert_eq!(delta, 0, "{name} batch of one allocated in steady state");
}

#[test]
fn steady_state_forward_never_allocates() {
    use microrec_dnn::{Q16, Q32};

    let batch = 64usize;
    let inputs: Vec<f32> = (0..batch * 64).map(|i| ((i as f32) * 0.013).sin() * 0.5).collect();
    steady_state_at::<f32>("f32", &inputs, batch);
    steady_state_at::<Q16>("Q2.13", &inputs, batch);
    steady_state_at::<Q32>("Q8.23", &inputs, batch);

    set_up_requests_the_parents_heap_blocks();
}

/// `PackedMlp::<Q16>::pack` of the ledger's 512→1024→512→256→1 stack, then
/// `warm(32)` and one batch: the list of request sizes captured at commit
/// 151bce5, the last one with a per-MAC-saturating Q2.13 kernel, grown only
/// by the AMX tile's byte planes and A-plane scratch — the same blocks in
/// the same order, three of them twice as large and the arena's by half.
/// The panel, bias and arena blocks are the contract; the small first block
/// is the `Vec` of `PackedLayer` structs, pinned apart from them so that a
/// layout change fails with its cause.
fn set_up_requests_the_parents_heap_blocks() {
    use microrec_dnn::{Mlp, PackedLayer, PackedMlp, ScratchArena, Q16};

    let mlp = Mlp::top_mlp(512, &[1024, 512, 256], 7).unwrap();
    let inputs: Vec<Q16> =
        (0..32 * 512).map(|i| Q16::from_f32(((i as f32) * 0.013).sin() * 0.5)).collect();

    RECORDED_LEN.store(0, Ordering::Relaxed);
    RECORDING.store(true, Ordering::Relaxed);
    let packed: PackedMlp<Q16> = PackedMlp::pack(&mlp);
    let mut arena = ScratchArena::new();
    packed.warm(32, &mut arena);
    let replies = packed.forward_batch_into(&inputs, 32, &mut arena).unwrap().len();
    RECORDING.store(false, Ordering::Relaxed);

    assert_eq!(replies, 32);
    let recorded: Vec<usize> = RECORDED[..RECORDED_LEN.load(Ordering::Relaxed)]
        .iter()
        .map(|size| size.load(Ordering::Relaxed))
        .collect();
    let layers = 4 * std::mem::size_of::<PackedLayer<Q16>>();
    assert_eq!(
        layers, 288,
        "`PackedLayer<Q16>` is no longer 72 bytes: the ledger's `serve-open/setup_s` rose ≈20 % \
         when this block became 320 (EXPERIMENTS.md, PR 24) — re-measure it before moving this pin"
    );
    let parent = [
        layers,
        // Per layer: the panel buffer (`k·n` two-byte elements; where k ≥ 64
        // and n ≥ 16 followed by as many bytes of byte planes: 1 MB → 2 MB,
        // 1 MB → 2 MB, 256 KB → 512 KB, the 256×1 head unchanged), then the
        // bias.
        2_097_152, 2048, 2_097_152, 1024, 524_288, 512, 512, 2,
        // `warm(32)`: the arena's two ping-pong buffers, each a layer's
        // output and the A planes past it — 32 × 1024 + 32 × 512 × 2 / 2
        // or 32 × 512 + 32 × 1024 × 2 / 2 elements, plus 32 for the 64-byte
        // line — where the parent's held 32 × 1024 elements (65 536 bytes).
        98_368, 98_368,
    ];
    assert_eq!(recorded, parent, "set-up heap requests differ from the parent's");
}
