//! # microrec-par
//!
//! Rayon-style data parallelism built on `std::thread::scope`. The build
//! environment has no registry access, so this crate provides the small
//! slice of rayon's API the workspace actually uses — `join`, `scope`,
//! and indexed parallel maps with dynamic work stealing — with no
//! external dependencies and no global thread pool to configure.
//!
//! All entry points degrade gracefully: with `threads <= 1` (or a single
//! available core) they run inline on the caller's thread, which keeps
//! single-threaded determinism tests trivially correct.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Returns the number of worker threads to use by default: the machine's
/// available parallelism, clamped to at least 1.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Runs two closures, potentially in parallel, and returns both results.
///
/// The first closure runs on the calling thread; the second runs on a
/// scoped worker. Mirrors `rayon::join`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = hb.join().expect("parallel closure panicked");
        (ra, rb)
    })
}

/// Maps `f` over `items`, running up to `threads` workers that pull items
/// dynamically from a shared atomic cursor (work stealing by index).
/// Results come back in input order.
///
/// With `threads <= 1` or fewer than two items, runs inline with no
/// thread spawns.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                if !local.is_empty() {
                    out.lock().expect("result mutex poisoned").extend(local);
                }
            });
        }
    });

    let mut pairs = out.into_inner().expect("result mutex poisoned");
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), items.len());
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Splits `0..len` into at most `threads` contiguous chunks of
/// near-equal size and maps `f` over the `(start, end)` ranges in
/// parallel. Returns per-chunk results in range order.
///
/// Useful when the caller wants each worker to own a contiguous shard
/// (e.g. batch slices) rather than interleaved items.
pub fn par_chunks<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = threads.min(len).max(1);
    let base = len / threads;
    let extra = len % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    par_map(&ranges, threads, |i, r| f(i, r.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let got = par_map(&items, threads, |_, &x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_actually_runs_concurrently_safe() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..1000).collect();
        par_map(&items, 8, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn par_chunks_partitions_exactly() {
        for len in [0usize, 1, 5, 7, 64, 100] {
            for threads in [1usize, 2, 3, 7, 16] {
                let ranges = par_chunks(len, threads, |_, r| r);
                let total: usize = ranges.iter().map(ExactSizeIterator::len).sum();
                assert_eq!(total, len, "len {len} threads {threads}");
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous shards");
                    assert!(!r.is_empty(), "no empty shard emitted");
                    next = r.end;
                }
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert!(par_chunks(0, 8, |_, r| r).is_empty());
    }
}
