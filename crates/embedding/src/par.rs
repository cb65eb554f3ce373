//! Rayon-style data parallelism built on `std::thread::scope`: the one
//! slice of rayon's API the arena fill and the cold-file write use, an
//! indexed parallel map with dynamic work stealing, with no global thread
//! pool to configure.
//!
//! With `threads <= 1` (or a single available core) the map runs inline on
//! the caller's thread, which keeps single-threaded determinism tests
//! trivially correct.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Returns the number of worker threads to use by default: the machine's
/// available parallelism, clamped to at least 1.
#[must_use]
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Maps `f` over `items`, running up to `threads` workers that pull items
/// dynamically from a shared atomic cursor (work stealing by index).
/// Results come back in input order.
///
/// With `threads <= 1` or fewer than two items, runs inline with no
/// thread spawns.
pub(crate) fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn empty_input_is_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
    }
}
