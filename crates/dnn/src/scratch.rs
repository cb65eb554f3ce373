//! Reusable scratch buffers for the zero-allocation inference fast path.
//!
//! Every MLP forward pass needs two activation buffers (layer input and
//! layer output, ping-ponged between layers). Allocating them per call puts
//! the allocator on the serving hot path; [`ScratchArena`] owns both
//! buffers so a warmed arena serves an unbounded stream of predictions
//! without touching the heap: `Vec::clear` + `extend_from_slice` and
//! `resize` never allocate while the request fits the reserved capacity.
//!
//! # Lifetime rules
//!
//! The slice returned by a forward pass borrows the arena, so it must be
//! consumed (or copied out) before the arena is reused. An arena is *not*
//! thread-safe — give each engine replica / worker thread its own. After an
//! error the arena's contents are unspecified but its capacity is intact;
//! just issue the next forward pass.

use crate::fixed::FixedNum;

/// Two reusable ping-pong activation buffers.
///
/// # Examples
///
/// ```
/// use microrec_dnn::{Mlp, PackedMlp, ScratchArena};
///
/// let mlp = Mlp::top_mlp(32, &[64, 16], 9)?;
/// let packed: PackedMlp<f32> = PackedMlp::pack(&mlp);
/// let mut arena = ScratchArena::<f32>::new();
/// arena.warm(4 * mlp.max_width()); // one-off; after this, batches of 4 never allocate
/// let x = vec![0.1f32; 4 * 32];
/// let ctr = packed.forward_batch_into(&x, 4, &mut arena)?[0];
/// assert!(ctr > 0.0 && ctr < 1.0);
/// # Ok::<(), microrec_dnn::DnnError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScratchArena<T> {
    ping: Vec<T>,
    pong: Vec<T>,
}

impl<T: FixedNum> ScratchArena<T> {
    /// Creates an empty arena (first use will allocate; call
    /// [`ScratchArena::warm`] to front-load that).
    #[must_use]
    pub fn new() -> Self {
        ScratchArena { ping: Vec::new(), pong: Vec::new() }
    }

    /// Reserves `capacity` elements in both buffers. For an [`Mlp`] this is
    /// `batch * mlp.max_width()`; after warming, forward passes up to that
    /// size perform zero heap allocations.
    ///
    /// [`Mlp`]: crate::Mlp
    pub fn warm(&mut self, capacity: usize) {
        self.ping.reserve(capacity.saturating_sub(self.ping.len()));
        self.pong.reserve(capacity.saturating_sub(self.pong.len()));
    }

    /// Guaranteed allocation-free request size (minimum of the two buffer
    /// capacities).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ping.capacity().min(self.pong.capacity())
    }

    /// Loads `input` into the front buffer.
    pub(crate) fn load(&mut self, input: &[T]) {
        self.ping.clear();
        self.ping.extend_from_slice(input);
    }

    /// Front (current activations) and back (next layer's output) buffers.
    pub(crate) fn buffers(&mut self) -> (&[T], &mut Vec<T>) {
        (&self.ping, &mut self.pong)
    }

    /// Makes the freshly written back buffer the new front.
    pub(crate) fn swap(&mut self) {
        std::mem::swap(&mut self.ping, &mut self.pong);
    }

    /// The front buffer (the result after the last layer's swap).
    pub(crate) fn front(&self) -> &[T] {
        &self.ping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_reserves_both_buffers() {
        let mut arena = ScratchArena::<f32>::new();
        assert_eq!(arena.capacity(), 0);
        arena.warm(128);
        assert!(arena.capacity() >= 128);
        // Warming smaller never shrinks.
        arena.warm(16);
        assert!(arena.capacity() >= 128);
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut arena = ScratchArena::<f32>::new();
        arena.load(&[1.0, 2.0]);
        {
            let (front, back) = arena.buffers();
            assert_eq!(front, &[1.0, 2.0]);
            back.clear();
            back.extend_from_slice(&[3.0]);
        }
        arena.swap();
        assert_eq!(arena.front(), &[3.0]);
    }

    #[test]
    fn reuse_within_capacity_does_not_grow() {
        let mut arena = ScratchArena::<f32>::new();
        arena.warm(64);
        let cap = (arena.ping.capacity(), arena.pong.capacity());
        for n in [64usize, 1, 32, 64] {
            arena.load(&vec![0.5; n]);
            let (_, back) = arena.buffers();
            back.resize(n, 0.0);
            arena.swap();
        }
        assert_eq!((arena.ping.capacity(), arena.pong.capacity()), cap);
    }
}
