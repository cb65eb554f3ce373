//! A thread-safe engine pool for concurrent query serving.
//!
//! The functional [`MicroRec`] engine is stateful (memory statistics,
//! row-buffer state), so it takes `&mut self` per prediction. A serving
//! host wants many request threads; [`EnginePool`] holds N engine replicas
//! behind mutexes and hands each caller an *uncontended* one: dispatch
//! first try-locks every replica (starting from a rotating hint so load
//! spreads evenly) and only blocks when all replicas are busy. Batches are
//! sharded across replicas so a single caller drives the whole pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use microrec_embedding::{ModelSpec, Precision};

use crate::engine::{MicroRec, MicroRecBuilder};
use crate::error::MicroRecError;
use crate::sync::lock_or_recover;

/// A pool of identical engines for multi-threaded prediction.
///
/// # Examples
///
/// ```
/// use microrec_core::EnginePool;
/// use microrec_embedding::{ModelSpec, Precision};
///
/// let pool = EnginePool::build(ModelSpec::dlrm_rmc2(4, 4), Precision::Fixed32, 2, 7)?;
/// let ctr = pool.predict(&vec![3u64; 16])?;
/// assert!(ctr > 0.0 && ctr < 1.0);
/// # Ok::<(), microrec_core::MicroRecError>(())
/// ```
#[derive(Debug)]
pub struct EnginePool {
    engines: Vec<Mutex<MicroRec>>,
    next: AtomicUsize,
}

impl EnginePool {
    /// Builds `replicas` identical engines (same seed: identical tables and
    /// weights, so every replica answers every query identically).
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the engine cannot be built.
    pub fn build(
        model: ModelSpec,
        precision: Precision,
        replicas: usize,
        seed: u64,
    ) -> Result<Self, MicroRecError> {
        Self::from_builder(MicroRecBuilder::new(model).precision(precision).seed(seed), replicas)
    }

    /// Builds `replicas` identical engines from one configured builder.
    /// When the builder enables an embedding arena, it is materialized
    /// once and shared read-only (`Arc`) across all replicas, so pool
    /// memory no longer scales with the worker count.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the engine cannot be built.
    pub fn from_builder(
        mut builder: MicroRecBuilder,
        replicas: usize,
    ) -> Result<Self, MicroRecError> {
        let replicas = replicas.max(1);
        builder.prepare_shared_arena()?;
        let mut engines = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            engines.push(Mutex::new(builder.clone().build()?));
        }
        Ok(EnginePool { engines, next: AtomicUsize::new(0) })
    }

    /// Number of replicas.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.engines.len()
    }

    /// Acquires an uncontended replica if any is free (work stealing),
    /// falling back to a blocking lock on the rotation hint otherwise.
    fn acquire(&self) -> MutexGuard<'_, MicroRec> {
        let start = self.next.fetch_add(1, Ordering::Relaxed) % self.engines.len();
        for probe in 0..self.engines.len() {
            let idx = (start + probe) % self.engines.len();
            match self.engines[idx].try_lock() {
                Ok(guard) => return guard,
                Err(std::sync::TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => {}
            }
        }
        // All replicas busy: queue on the hinted one. Engine state stays
        // consistent per query, so a replica poisoned by a panicked caller
        // is recovered rather than retired.
        lock_or_recover(&self.engines[start])
    }

    /// Predicts a CTR on the first uncontended replica (try-lock scan),
    /// blocking only when every replica is busy.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn predict(&self, query: &[u64]) -> Result<f32, MicroRecError> {
        self.acquire().predict(query)
    }

    /// Predicts a batch by sharding it into contiguous per-replica chunks
    /// served in parallel, each through the engine's batched fast path.
    /// Results come back in query order and are bit-identical to
    /// [`EnginePool::predict`] called per item.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn predict_batch(&self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        // Tiny batches (≤ one query per replica) would shard into
        // single-query chunks and pay a thread spawn per item; one
        // replica's batched fast path beats that.
        if queries.len() <= self.engines.len() {
            return self.acquire().predict_batch(queries);
        }
        let shards = microrec_par::par_chunks(queries.len(), self.engines.len(), |_, range| {
            self.acquire().predict_batch(&queries[range])
        });
        let mut out = Vec::with_capacity(queries.len());
        for shard in shards {
            out.extend(shard?);
        }
        Ok(out)
    }

    /// Total simulated memory reads across all replicas.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.engines.iter().map(|e| lock_or_recover(e).memory().stats().total().reads).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pool() -> Arc<EnginePool> {
        Arc::new(EnginePool::build(ModelSpec::dlrm_rmc2(4, 8), Precision::Fixed32, 3, 5).unwrap())
    }

    #[test]
    fn replicas_answer_identically() {
        let p = pool();
        let q = vec![123u64; 16];
        // Dispatch rotates through all replicas; answers must agree.
        let first = p.predict(&q).unwrap();
        for _ in 0..5 {
            assert_eq!(p.predict(&q).unwrap(), first);
        }
    }

    #[test]
    fn concurrent_prediction_from_many_threads() {
        let p = pool();
        let queries_per_thread = 50;
        let threads = 8;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let p = Arc::clone(&p);
                handles.push(scope.spawn(move || {
                    for k in 0..queries_per_thread {
                        let q: Vec<u64> =
                            (0..16).map(|j| ((t * 97 + k * 13 + j) % 500_000) as u64).collect();
                        let ctr = p.predict(&q).unwrap();
                        assert!(ctr > 0.0 && ctr < 1.0);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        // Every query drove 4 physical reads x 4 rounds.
        assert_eq!(p.total_reads(), (threads * queries_per_thread * 16) as u64);
    }

    #[test]
    fn poisoned_replica_keeps_serving() {
        // A request thread that panics while holding a replica must not
        // retire that replica: the next caller recovers the lock and the
        // engine still answers bit-identically to its siblings.
        let p = EnginePool::build(ModelSpec::dlrm_rmc2(4, 4), Precision::Fixed32, 1, 5).unwrap();
        let q = vec![9u64; 16];
        let expected = p.predict(&q).unwrap();
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = p.engines[0].lock().unwrap();
                    panic!("request thread dies holding the only replica");
                })
                .join()
        });
        assert!(p.engines[0].is_poisoned(), "the panic must have poisoned the replica");
        assert_eq!(p.predict(&q).unwrap().to_bits(), expected.to_bits());
        assert!(p.total_reads() > 0, "stats remain readable through the poisoned lock");
    }

    #[test]
    fn pool_of_one_still_works() {
        let p = EnginePool::build(ModelSpec::dlrm_rmc2(4, 4), Precision::Fixed16, 0, 1).unwrap();
        assert_eq!(p.replicas(), 1, "replicas clamp to >= 1");
        let out = p.predict_batch(&vec![vec![0u64; 16]; 4]).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn contended_mixed_traffic_stays_bit_identical() {
        // Many threads hammer the pool with interleaved single and batched
        // requests; every answer must match the uncontended ground truth.
        let p = pool();
        let queries: Vec<Vec<u64>> = (0..32)
            .map(|i| (0..16).map(|j| ((i * 131 + j * 17) % 500_000) as u64).collect())
            .collect();
        let expected: Vec<u32> = queries.iter().map(|q| p.predict(q).unwrap().to_bits()).collect();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let p = Arc::clone(&p);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..10 {
                        if (t + round) % 2 == 0 {
                            let got = p.predict_batch(queries).unwrap();
                            for (g, e) in got.iter().zip(expected) {
                                assert_eq!(g.to_bits(), *e);
                            }
                        } else {
                            for (q, e) in queries.iter().zip(expected) {
                                assert_eq!(p.predict(q).unwrap().to_bits(), *e);
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn tiny_batches_below_replica_count_stay_correct() {
        // Regression: batch < replicas must not shard into degenerate
        // chunks — every size from empty through replicas+1 must match
        // item-by-item results bit for bit.
        let p = pool();
        assert!(p.predict_batch(&[]).unwrap().is_empty());
        for batch in 1..=p.replicas() + 1 {
            let queries: Vec<Vec<u64>> = (0..batch)
                .map(|i| (0..16).map(|j| ((i * 53 + j * 19) % 500_000) as u64).collect())
                .collect();
            let singles: Vec<f32> = queries.iter().map(|q| p.predict(q).unwrap()).collect();
            let batched = p.predict_batch(&queries).unwrap();
            assert_eq!(batched.len(), batch);
            for (i, (b, s)) in batched.iter().zip(&singles).enumerate() {
                assert_eq!(b.to_bits(), s.to_bits(), "batch {batch} item {i}");
            }
        }
    }

    #[test]
    fn pool_replicas_share_one_arena() {
        use microrec_embedding::RowFormat;
        // Pre-warmed replicas must not scale arena memory with worker
        // count: every replica holds the same Arc allocation.
        let builder = MicroRecBuilder::new(ModelSpec::dlrm_rmc2(4, 8))
            .precision(Precision::Fixed16)
            .seed(5)
            .embedding_arena(RowFormat::F16)
            .hot_row_cache(64);
        let p = EnginePool::from_builder(builder, 4).unwrap();
        let arenas: Vec<_> = p
            .engines
            .iter()
            .map(|e| Arc::clone(lock_or_recover(e).arena().expect("arena configured")))
            .collect();
        for other in &arenas[1..] {
            assert!(Arc::ptr_eq(&arenas[0], other), "replica built a private arena copy");
        }
        // 4 replicas + the 4 guards above = 8 strong refs, one allocation.
        assert_eq!(Arc::strong_count(&arenas[0]), 8);
        // The pool still predicts identically across replicas.
        let q = vec![7u64; 16];
        let first = p.predict(&q).unwrap();
        for _ in 0..4 {
            assert_eq!(p.predict(&q).unwrap().to_bits(), first.to_bits());
        }
    }

    #[test]
    fn every_replica_observes_a_published_generation() {
        use crate::epoch::{ArenaGeneration, GenerationCell};
        use microrec_embedding::RowFormat;
        // A generation published through the epoch cell must reach every
        // pooled replica at its next prediction — and change no bits.
        let mut builder = MicroRecBuilder::new(ModelSpec::dlrm_rmc2(4, 8))
            .precision(Precision::Fixed16)
            .seed(5)
            .embedding_arena(RowFormat::F16);
        builder.prepare_shared_arena().unwrap();
        let arena = Arc::clone(builder.shared_arena_handle().unwrap());
        let cell = GenerationCell::new(ArenaGeneration::from_arena(Arc::clone(&arena)));
        let p = EnginePool::from_builder(builder.epoch_cell(Arc::clone(&cell)), 3).unwrap();

        let queries: Vec<Vec<u64>> = (0..12)
            .map(|i| (0..16).map(|j| ((i * 211 + j * 37) % 500_000) as u64).collect())
            .collect();
        let expected: Vec<u32> = queries.iter().map(|q| p.predict(q).unwrap().to_bits()).collect();

        // Re-shard the shared arena onto a different channel layout and
        // publish it as generation 1.
        let channels: Vec<usize> = (0..arena.num_tables()).map(|i| (i + 1) % 2).collect();
        let rebuilt = arena.rebuild_with_channels(&channels, 1).unwrap();
        cell.publish(ArenaGeneration::from_arena(Arc::new(rebuilt)));

        // Drive each replica directly: all of them adopt, bits unchanged.
        for engine in &p.engines {
            let mut guard = lock_or_recover(engine);
            for (q, e) in queries.iter().zip(&expected) {
                assert_eq!(guard.predict(q).unwrap().to_bits(), *e, "bits changed across swap");
            }
            assert_eq!(guard.store_generation(), 1, "replica missed the published generation");
        }
        // The sharded batch path sees the same generation and bits.
        let batched = p.predict_batch(&queries).unwrap();
        for (b, e) in batched.iter().zip(&expected) {
            assert_eq!(b.to_bits(), *e);
        }
    }

    #[test]
    fn sharded_batch_matches_item_by_item() {
        let p = pool();
        let queries: Vec<Vec<u64>> = (0..23)
            .map(|i| (0..16).map(|j| ((i * 31 + j * 7) % 500_000) as u64).collect())
            .collect();
        let singles: Vec<f32> = queries.iter().map(|q| p.predict(q).unwrap()).collect();
        let batched = p.predict_batch(&queries).unwrap();
        assert_eq!(batched.len(), singles.len());
        for (b, s) in batched.iter().zip(&singles) {
            assert_eq!(b.to_bits(), s.to_bits(), "batch result drifted");
        }
    }
}
