//! Poison-tolerant, nesting-checked locking helpers for the serving path.
//!
//! Every mutex in the runtime guards state whose invariants hold between
//! operations (a queue is consistent after each push/drain, a reply slot
//! between fulfil and take, a histogram between records), so a panic on
//! one thread must not take the lock — and with it admission, serving,
//! and shutdown — down with it. All runtime code acquires locks through
//! [`lock_or_recover`] and waits on condvars through [`wait_while`] instead
//! of `.lock().unwrap()`: a poisoned mutex is recovered, not propagated, so
//! a panicked thread can never wedge `ServingRuntime::shutdown` or starve
//! other request threads. [`wait_while`] takes the condition it waits out
//! and re-checks it after every wake-up, so no call site can forget the
//! loop a spurious wake-up needs; clippy's `disallowed_methods` rejects a
//! bare `Condvar::wait` anywhere in the workspace.
//!
//! The same helpers carry the lock discipline. The runtime's three locks
//! (queue state, reply slot, latency histogram) never nest, so no lock
//! order can deadlock and no thread blocks with a lock another thread
//! needs. Debug builds check that where it can break, on every call: a
//! thread-local count of runtime locks held makes [`lock_or_recover`]
//! panic when the thread already holds one, [`wait_while`] panic when the
//! thread holds any lock besides the one it waits on, and [`join`] panic
//! when the thread holds any at all. Release builds compile the count out,
//! and the helpers are thin wrappers over the `std` calls.
//!
//! Like the runtime it serves, this module denies the panicking shortcuts
//! (`unwrap`, `expect`, `panic!` and kin) outside its tests.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// Blocks on `condvar` while `blocked` holds for `guard`'s state.
/// `Condvar::wait_while` gives up on the first wake-up that finds the lock
/// poisoned, without re-checking, so the poisoned guard is recovered and
/// the wait resumed until `blocked` is false.
fn recover_wait_while<'a, T>(
    mut guard: MutexGuard<'a, T>,
    condvar: &Condvar,
    mut blocked: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    loop {
        match condvar.wait_while(guard, &mut blocked) {
            Ok(guard) => return guard,
            Err(poisoned) => guard = poisoned.into_inner(),
        }
    }
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

/// Blocks on `condvar` while `blocked` holds for `guard`'s state, and
/// returns the re-acquired guard, recovered if a holder panicked.
///
/// # Panics
///
/// In debug builds, if this thread holds any runtime lock besides
/// `guard`'s.
#[cfg(not(debug_assertions))]
pub(crate) fn wait_while<'a, T>(
    guard: Guard<'a, T>,
    condvar: &Condvar,
    blocked: impl FnMut(&mut T) -> bool,
) -> Guard<'a, T> {
    recover_wait_while(guard, condvar, blocked)
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
pub(crate) use held::{join, lock_or_recover, wait_while};

#[cfg(debug_assertions)]
mod held {
    use super::{recover, recover_wait_while, thread, Condvar, JoinHandle, Mutex, MutexGuard};
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

    pub(crate) fn wait_while<'a, T>(
        guard: Counted<'a, T>,
        condvar: &Condvar,
        blocked: impl FnMut(&mut T) -> bool,
    ) -> Counted<'a, T> {
        assert_eq!(held(), 1, "condvar wait while holding another runtime lock");
        let Counted { guard, _count } = guard;
        Counted { guard: recover_wait_while(guard, condvar, blocked), _count }
    }

    pub(crate) fn join<T>(handle: JoinHandle<T>) -> thread::Result<T> {
        assert_eq!(held(), 0, "join while holding a runtime lock");
        handle.join()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

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
            let inner = Counted { guard: b.lock().unwrap(), _count: Count::new() };
            let _inner = wait_while(inner, &Condvar::new(), |v| *v == 0);
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
        drop(wait_while(lock_or_recover(&a), &Condvar::new(), |v| *v < 1));
        join(std::thread::spawn(|| ())).unwrap();
    }

    #[test]
    fn wait_while_outlasts_a_wake_up_on_a_poisoned_lock() {
        // (ready, times the waiter checked its condition)
        let shared = Arc::new((Mutex::new((false, 0u32)), Condvar::new()));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("poisons the lock");
        })
        .join();
        let waiter_shared = Arc::clone(&shared);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*waiter_shared;
            let state = wait_while(lock_or_recover(lock), cv, |(ready, checks)| {
                *checks += 1;
                !*ready
            });
            state.0
        });
        let (lock, cv) = &*shared;
        let checks_reach = |n: u32| loop {
            // The waiter checks only with the lock held, so it is asleep
            // on the condvar whenever this sees a new count.
            if lock_or_recover(lock).1 >= n || waiter.is_finished() {
                break;
            }
            std::thread::yield_now();
        };
        checks_reach(1);
        // A wake-up with the condition still true, on a poisoned lock.
        cv.notify_all();
        checks_reach(2);
        lock_or_recover(lock).0 = true;
        cv.notify_all();
        assert!(waiter.join().unwrap(), "the waiter returned before its condition cleared");
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
