//! Bounded MPSC admission queue with batch-forming pop.
//!
//! Producers (request threads) push single requests; consumers (engine
//! workers) pop whole micro-batches. The queue is bounded, which is the
//! admission-control half of the runtime: when it is full a producer
//! either blocks (`push_blocking`, backpressure) or is turned away
//! (`try_push`, reject policy). The batch-forming pop is the runtime's
//! close rule, and it is work-conserving: a consumer blocks only while the
//! queue is empty and otherwise takes what is queued now, up to
//! `max_batch` — a [`BatchClose::Size`] close when `max_batch` or more are
//! queued, [`BatchClose::Ready`] when fewer are, [`BatchClose::Drain`] for
//! a short batch after shutdown. Batches therefore grow only while every
//! consumer is busy, and nothing in the queue reads a clock.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::sync::{lock_or_recover, wait_while, Guard};

/// Why a micro-batch closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClose {
    /// `max_batch` or more requests were queued; the batch is full.
    Size,
    /// A free worker took everything queued, fewer than `max_batch`.
    Ready,
    /// The runtime is shutting down and drained the queue.
    Drain,
}

/// Why a push was refused.
#[derive(Debug)]
pub(crate) enum PushError<T> {
    /// The queue is at capacity (reject-policy admission control).
    Full(T),
    /// The queue has been closed for shutdown.
    Closed(T),
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue whose consumers pop micro-batches.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> Guard<'_, State<T>> {
        // Queue state stays consistent under panics (each mutation is a
        // single push/drain), so a poisoned lock is recovered, not fatal.
        lock_or_recover(&self.state)
    }

    /// Pushes, blocking while the queue is full. Returns the item if the
    /// queue closed before space appeared (the request was never admitted).
    pub fn push_blocking(&self, item: T) -> Result<(), T> {
        let mut state = wait_while(self.lock(), &self.not_full, |s| {
            !s.closed && s.items.len() >= self.capacity
        });
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pushes without blocking; fails when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Closes the queue: future pushes fail, blocked producers wake with
    /// their item returned, and consumers drain what remains.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Pops the next micro-batch: everything queued, up to `max_batch`,
    /// blocking only while the queue is empty. Returns `None` once the
    /// queue is closed **and** empty — the clean-drain termination signal.
    pub fn pop_batch(&self, max_batch: usize) -> Option<(Vec<T>, BatchClose)> {
        let max_batch = max_batch.max(1);
        let mut state =
            wait_while(self.lock(), &self.not_empty, |s| s.items.is_empty() && !s.closed);
        let queued = state.items.len();
        if queued == 0 {
            return None;
        }
        let close = if queued >= max_batch {
            BatchClose::Size
        } else if state.closed {
            BatchClose::Drain
        } else {
            BatchClose::Ready
        };
        Some(self.take(&mut state, max_batch, close))
    }

    fn take(
        &self,
        state: &mut Guard<'_, State<T>>,
        n: usize,
        close: BatchClose,
    ) -> (Vec<T>, BatchClose) {
        let n = n.min(state.items.len());
        let batch: Vec<T> = state.items.drain(..n).collect();
        // Space freed: wake every blocked producer (each re-checks).
        self.not_full.notify_all();
        (batch, close)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn filled(capacity: usize, values: std::ops::Range<u32>) -> BoundedQueue<u32> {
        let q = BoundedQueue::new(capacity);
        for v in values {
            q.try_push(v).map_err(|_| ()).unwrap();
        }
        q
    }

    #[test]
    fn one_queued_item_is_returned_at_once() {
        // Nothing else is coming: a pop that waited for company would
        // never return.
        let q = filled(16, 7..8);
        assert_eq!(q.pop_batch(8), Some((vec![7], BatchClose::Ready)));
        assert_eq!(q.lock().items.len(), 0);
    }

    #[test]
    fn everything_queued_below_max_batch_is_taken_in_fifo_order() {
        let q = filled(16, 0..10);
        assert_eq!(q.pop_batch(32), Some(((0..10).collect(), BatchClose::Ready)));
    }

    #[test]
    fn max_batch_or_more_queued_is_a_size_close() {
        let q = filled(16, 0..10);
        assert_eq!(q.pop_batch(4), Some((vec![0, 1, 2, 3], BatchClose::Size)));
        assert_eq!(q.pop_batch(6), Some(((4..10).collect(), BatchClose::Size)));
        assert_eq!(q.lock().items.len(), 0);
        // With `max_batch = 1` every pop is one item and a size close.
        let q = filled(16, 0..5);
        for v in 0..5 {
            assert_eq!(q.pop_batch(1), Some((vec![v], BatchClose::Size)));
        }
    }

    #[test]
    fn try_push_rejects_when_full() {
        let q = filled(2, 0..2);
        match q.try_push(2) {
            Err(PushError::Full(it)) => assert_eq!(it, 2),
            other => panic!("expected Full, got {:?}", other.map_err(|_| "err")),
        }
        assert_eq!(q.lock().items.len(), 2);
    }

    #[test]
    fn close_wakes_blocked_producer_with_item_back() {
        let q = Arc::new(filled(1, 0..1));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push_blocking(1));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!producer.is_finished(), "a push into a full queue must block");
        q.close();
        assert_eq!(producer.join().unwrap(), Err(1), "close must hand the item back");
    }

    #[test]
    fn blocked_producer_resumes_when_space_frees() {
        let q = Arc::new(filled(1, 0..1));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push_blocking(1));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!producer.is_finished(), "a push into a full queue must block");
        // Consume one: the producer must slot in.
        assert_eq!(q.pop_batch(1).unwrap().0, vec![0]);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop_batch(1).unwrap().0, vec![1]);
    }

    #[test]
    fn poisoned_queue_still_closes_and_drains() {
        // Regression for poison tolerance: a thread that dies holding the
        // state lock poisons it with items still queued. Every subsequent
        // operation — push, close, drain — must recover the lock instead
        // of propagating the panic, otherwise shutdown would deadlock or
        // crash the caller.
        let q = Arc::new(filled(16, 1..2));
        let q2 = Arc::clone(&q);
        let holder = std::thread::spawn(move || {
            let _guard = q2.state.lock().unwrap();
            panic!("dies holding the queue lock");
        });
        assert!(holder.join().is_err(), "the injected panic must surface");
        assert!(q.state.is_poisoned());

        // The queue must remain fully operational on the poisoned lock.
        q.try_push(2).map_err(|_| ()).unwrap();
        assert_eq!(q.lock().items.len(), 2);
        q.close();
        assert_eq!(
            q.pop_batch(8),
            Some((vec![1, 2], BatchClose::Drain)),
            "no item may be lost to the poisoned lock"
        );
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn closed_queue_drains_then_signals_done() {
        let q = filled(16, 0..5);
        q.close();
        assert!(matches!(q.try_push(99), Err(PushError::Closed(_))));
        // A full batch is still a size close even mid-drain.
        assert_eq!(q.pop_batch(3), Some((vec![0, 1, 2], BatchClose::Size)));
        assert_eq!(q.pop_batch(3), Some((vec![3, 4], BatchClose::Drain)));
        assert!(q.pop_batch(3).is_none());
    }
}
