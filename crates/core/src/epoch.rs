//! Epoch-based generation handles for online arena re-sharding.
//!
//! The read-only-`Arc` sharing model (one arena/tiered backing built up
//! front, cloned into every engine replica) assumed the layout never
//! changes while serving. Traffic-adaptive placement breaks that: a
//! migration builds a *new-layout* arena off-thread and must hand it to
//! every worker without dropping, duplicating, or tearing a request.
//!
//! The protocol here is a single publication point ([`GenerationCell`])
//! plus batch-boundary pickup:
//!
//! 1. The migrator builds the new generation completely off to the side
//!    (shielded in its own thread — a panic mid-build cannot reach the
//!    cell, so the old generation keeps serving).
//! 2. [`GenerationCell::publish`] installs the payload under a mutex and
//!    *then* bumps the version counter (release ordering), so any worker
//!    that observes the new version also observes the full payload.
//! 3. Workers poll the version (one relaxed-cost atomic load) at the top
//!    of each gather — i.e. at batch boundaries, never inside one — and
//!    clone the `Arc` handles on change. A batch therefore runs entirely
//!    on one generation; the swap is invisible mid-batch by construction.
//! 4. The old arena is dropped when the last engine holding its `Arc`
//!    picks up the new generation — exactly "when the last in-flight
//!    batch retires", with the refcount as the retirement ledger.
//!
//! Bit identity makes the pickup safe at *any* batch boundary: a rebuilt
//! generation relocates encoded bytes verbatim
//! ([`EmbeddingArena::rebuild_with_channels`]), so a query answered by
//! generation *n* and one answered by *n+1* return identical bits, and
//! the hot-row cache (keyed by logical table/row) never needs flushing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use microrec_embedding::{EmbeddingArena, TieredBacking};

use crate::error::MicroRecError;

/// One published arena layout generation: the handles every engine needs
/// to serve it. Exactly one of `arena`/`backing` is populated, matching
/// how the engines were built (all-resident vs tiered).
#[derive(Debug, Clone, Default)]
pub struct ArenaGeneration {
    /// Monotonic layout generation (0 = the as-built layout).
    pub generation: u64,
    /// All-resident arena for this generation, when engines serve one.
    pub arena: Option<Arc<EmbeddingArena>>,
    /// Tiered backing for this generation, when engines serve tiered.
    pub backing: Option<Arc<TieredBacking>>,
}

impl ArenaGeneration {
    /// Wraps an all-resident arena as a generation payload.
    #[must_use]
    pub fn from_arena(arena: Arc<EmbeddingArena>) -> Self {
        ArenaGeneration { generation: arena.generation(), arena: Some(arena), backing: None }
    }

    /// Wraps a tiered backing as a generation payload.
    #[must_use]
    pub fn from_backing(backing: Arc<TieredBacking>) -> Self {
        ArenaGeneration { generation: backing.generation(), arena: None, backing: Some(backing) }
    }
}

/// The shared publication point between the migration coordinator (single
/// writer) and every serving engine (many readers).
///
/// Readers pay one atomic load per gather when nothing changed; only an
/// actual version change takes the mutex to clone the payload's `Arc`s.
#[derive(Debug)]
pub struct GenerationCell {
    /// Bumped once per publish, *after* the payload is installed.
    version: AtomicU64,
    slot: Mutex<ArenaGeneration>,
}

impl GenerationCell {
    /// Creates a cell serving `initial` as version 0.
    #[must_use]
    pub fn new(initial: ArenaGeneration) -> Arc<Self> {
        Arc::new(GenerationCell { version: AtomicU64::new(0), slot: Mutex::new(initial) })
    }

    /// The current publish version (0 = as built; +1 per publish).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones the currently published generation's handles.
    #[must_use]
    pub fn snapshot(&self) -> ArenaGeneration {
        // A poisoned mutex means a publisher panicked between installing
        // the payload and releasing the lock; the payload itself is a
        // plain assignment and is intact either way — keep serving.
        self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Publishes `generation`: installs the payload, then bumps the
    /// version so readers that see the new version see the full payload.
    pub fn publish(&self, generation: ArenaGeneration) {
        {
            let mut slot = self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            *slot = generation;
        }
        self.version.fetch_add(1, Ordering::Release);
    }
}

/// Runs `build` on a dedicated thread and joins it, converting a panic
/// into an error instead of unwinding into the caller — the shield that
/// guarantees a crash mid-rebuild leaves the old generation serving
/// (nothing is published unless `build` returns `Ok`).
///
/// # Errors
///
/// Returns the builder's own error, or [`MicroRecError::Runtime`] if the
/// build thread panicked or could not be spawned.
pub fn build_generation_shielded<F>(build: F) -> Result<ArenaGeneration, MicroRecError>
where
    F: FnOnce() -> Result<ArenaGeneration, MicroRecError> + Send + 'static,
{
    let spawned = std::thread::Builder::new().name("microrec-migrate-build".into()).spawn(build);
    match spawned {
        Ok(handle) => match handle.join() {
            Ok(result) => result,
            Err(_) => Err(MicroRecError::Runtime(
                "arena rebuild panicked; the old generation keeps serving".into(),
            )),
        },
        Err(e) => Err(MicroRecError::Runtime(format!("could not spawn rebuild thread: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_embedding::{EmbeddingTable, RowFormat, TableSpec};

    fn arena(generation: u64) -> Arc<EmbeddingArena> {
        let tables = vec![EmbeddingTable::procedural(TableSpec::new("t", 10, 4), 1)];
        let base = EmbeddingArena::build(&tables, RowFormat::F32, &[0]).unwrap();
        if generation == 0 {
            Arc::new(base)
        } else {
            Arc::new(base.rebuild_with_channels(&[0], generation).unwrap())
        }
    }

    #[test]
    fn publish_bumps_version_and_swaps_payload() {
        let cell = GenerationCell::new(ArenaGeneration::from_arena(arena(0)));
        assert_eq!(cell.version(), 0);
        assert_eq!(cell.snapshot().generation, 0);
        cell.publish(ArenaGeneration::from_arena(arena(7)));
        assert_eq!(cell.version(), 1);
        assert_eq!(cell.snapshot().generation, 7);
    }

    #[test]
    fn shielded_build_converts_panic_into_error() {
        let err = build_generation_shielded(|| panic!("injected")).unwrap_err();
        assert!(err.to_string().contains("old generation keeps serving"), "{err}");
        let ok = build_generation_shielded(|| Ok(ArenaGeneration::from_arena(arena(3)))).unwrap();
        assert_eq!(ok.generation, 3);
    }

    #[test]
    fn old_arena_drops_when_last_holder_adopts() {
        let old = arena(0);
        let cell = GenerationCell::new(ArenaGeneration::from_arena(Arc::clone(&old)));
        // Two "workers" hold the old generation.
        let w1 = cell.snapshot();
        let w2 = cell.snapshot();
        cell.publish(ArenaGeneration::from_arena(arena(1)));
        // Cell no longer references the old arena; only the workers do.
        assert_eq!(Arc::strong_count(&old), 3);
        drop(w1);
        assert_eq!(Arc::strong_count(&old), 2);
        drop(w2);
        assert_eq!(Arc::strong_count(&old), 1, "last in-flight handle retires the old arena");
    }
}
