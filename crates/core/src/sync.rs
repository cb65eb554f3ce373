//! Poison-tolerant, nesting-checked locking helpers for the serving path.
//!
//! Every mutex in the runtime guards state whose invariants hold between
//! operations (a queue is consistent after each push/drain, a reply slot
//! between fulfil and take, a histogram between records), so a panic on
//! one thread must not take the lock — and with it admission, serving,
//! and shutdown — down with it. All runtime code acquires locks through
//! [`lock_or_recover`] and waits on condvars through [`wait`] instead of
//! `.lock().unwrap()`: a poisoned mutex is recovered, not propagated, so a
//! panicked thread can never wedge `ServingRuntime::shutdown` or starve
//! other request threads. [`wait`] takes the condvar wait itself as a
//! closure, so each `Condvar::wait` stays written at its call site, inside
//! the predicate loop the `condvar-loop` lint checks.
//!
//! The same helpers carry the lock discipline. The runtime's three locks
//! (queue state, reply slot, latency histogram) never nest, so no lock
//! order can deadlock and no thread blocks with a lock another thread
//! needs. Debug builds check that where it can break, on every call: a
//! thread-local count of runtime locks held makes [`lock_or_recover`]
//! panic when the thread already holds one, [`wait`] panic when the thread
//! holds any lock besides the one it waits on, and [`join`] panic when the
//! thread holds any at all. Release builds compile the count out, and the
//! helpers are the plain `std` calls.

use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// A runtime lock's guard: a counted wrapper in debug builds, the `std`
/// guard itself in release builds.
#[cfg(debug_assertions)]
pub(crate) type Guard<'a, T> = held::Counted<'a, T>;
/// A runtime lock's guard: a counted wrapper in debug builds, the `std`
/// guard itself in release builds.
#[cfg(not(debug_assertions))]
pub(crate) type Guard<'a, T> = MutexGuard<'a, T>;

/// Unwraps any poison-carrying result by taking the guard from the poison
/// error.
fn recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// # Panics
///
/// In debug builds, if this thread already holds a runtime lock.
#[cfg(not(debug_assertions))]
pub(crate) fn lock_or_recover<T>(mutex: &Mutex<T>) -> Guard<'_, T> {
    recover(mutex.lock())
}

/// Runs `wait` — a `Condvar::wait` on `guard`'s lock — and recovers the
/// re-acquired guard.
///
/// # Panics
///
/// In debug builds, if this thread holds any runtime lock besides
/// `guard`'s.
#[cfg(not(debug_assertions))]
pub(crate) fn wait<'a, T>(
    guard: Guard<'a, T>,
    wait: impl FnOnce(MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>>,
) -> Guard<'a, T> {
    recover(wait(guard))
}

/// Joins `handle`.
///
/// # Panics
///
/// In debug builds, if this thread holds any runtime lock.
#[cfg(not(debug_assertions))]
pub(crate) fn join<T>(handle: JoinHandle<T>) -> thread::Result<T> {
    handle.join()
}

#[cfg(debug_assertions)]
pub(crate) use held::{join, lock_or_recover, wait};

#[cfg(debug_assertions)]
mod held {
    use super::{recover, thread, JoinHandle, LockResult, Mutex, MutexGuard};
    use std::cell::Cell;
    use std::ops::{Deref, DerefMut};

    thread_local! {
        /// Runtime locks this thread holds.
        static HELD: Cell<usize> = const { Cell::new(0) };
    }

    fn held() -> usize {
        HELD.with(Cell::get)
    }

    /// One count in [`HELD`], given back when dropped (also on unwind).
    #[derive(Debug)]
    struct Count;

    impl Count {
        fn new() -> Count {
            HELD.with(|h| h.set(h.get() + 1));
            Count
        }
    }

    impl Drop for Count {
        fn drop(&mut self) {
            HELD.with(|h| h.set(h.get() - 1));
        }
    }

    /// A `MutexGuard` that counts as held for as long as it lives.
    #[derive(Debug)]
    pub(crate) struct Counted<'a, T> {
        guard: MutexGuard<'a, T>,
        _count: Count,
    }

    impl<T> Deref for Counted<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<T> DerefMut for Counted<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    pub(crate) fn lock_or_recover<T>(mutex: &Mutex<T>) -> Counted<'_, T> {
        assert_eq!(held(), 0, "runtime locks never nest: this thread already holds one");
        let guard = recover(mutex.lock());
        Counted { guard, _count: Count::new() }
    }

    pub(crate) fn wait<'a, T>(
        guard: Counted<'a, T>,
        wait: impl FnOnce(MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>>,
    ) -> Counted<'a, T> {
        assert_eq!(held(), 1, "condvar wait while holding another runtime lock");
        let Counted { guard, _count } = guard;
        Counted { guard: recover(wait(guard)), _count }
    }

    pub(crate) fn join<T>(handle: JoinHandle<T>) -> thread::Result<T> {
        assert_eq!(held(), 0, "join while holding a runtime lock");
        handle.join()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Condvar;

        #[test]
        #[should_panic(expected = "runtime locks never nest")]
        fn nested_acquisition_panics() {
            let (a, b) = (Mutex::new(0u32), Mutex::new(0u32));
            let _outer = lock_or_recover(&a);
            let _inner = lock_or_recover(&b);
        }

        #[test]
        #[should_panic(expected = "condvar wait while holding another runtime lock")]
        fn wait_under_another_lock_panics() {
            let (a, b) = (Mutex::new(0u32), Mutex::new(0u32));
            let _outer = lock_or_recover(&a);
            // Counted by hand, so the nesting check is not what fires.
            let mut inner = Counted { guard: b.lock().unwrap(), _count: Count::new() };
            let ready = Condvar::new();
            while *inner == 0 {
                inner = wait(inner, |g| ready.wait(g));
            }
        }

        #[test]
        #[should_panic(expected = "join while holding a runtime lock")]
        fn join_under_a_lock_panics() {
            let a = Mutex::new(0u32);
            let _guard = lock_or_recover(&a);
            let _ = join(std::thread::spawn(|| ()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar};

    #[test]
    fn lock_or_recover_survives_a_panicked_holder() {
        let shared = Arc::new(Mutex::new(7u32));
        let holder = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(shared.is_poisoned(), "the panic must have poisoned the mutex");
        let mut guard = lock_or_recover(&shared);
        assert_eq!(*guard, 7, "state written before the panic is still there");
        *guard = 8;
        drop(guard);
        assert_eq!(*lock_or_recover(&shared), 8);
    }

    #[test]
    fn sequential_locks_and_a_wait_on_the_only_one_held_pass() {
        let (a, b) = (Mutex::new(0u32), Mutex::new(0u32));
        *lock_or_recover(&a) += 1;
        *lock_or_recover(&b) += 1;
        let ready = Condvar::new();
        let mut guard = lock_or_recover(&a);
        while *guard < 1 {
            guard = wait(guard, |g| ready.wait(g));
        }
        drop(guard);
        join(std::thread::spawn(|| ())).unwrap();
    }

    #[test]
    fn a_panic_with_a_lock_held_gives_its_count_back() {
        let a = Mutex::new(0u32);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock_or_recover(&a);
            panic!("dies holding the lock");
        }));
        assert!(unwound.is_err());
        // The unwind dropped the guard, so this thread holds nothing.
        drop(lock_or_recover(&Mutex::new(0u32)));
    }
}
