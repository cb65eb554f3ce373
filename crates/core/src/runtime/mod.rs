//! Streaming micro-batch serving runtime.
//!
//! Turns a live arrival stream into batched inference: producers
//! [`submit`](ServingRuntime::submit) single queries into a bounded
//! admission queue (backpressure or rejection when full), worker threads
//! pop micro-batches and run them through [`MicroRec::predict_batch`] on a
//! private engine replica whose packed weights and scratch arena are
//! pre-warmed at startup, so the steady-state DNN loop never allocates.
//! The close rule is work-conserving: a free worker takes whatever is
//! queued now, up to `max_batch`, and blocks only on an empty queue — an
//! idle runtime answers at service time, and batches grow by themselves
//! while every worker is busy. Each batch records why it closed
//! ([`BatchClose`]): full at `max_batch`, short because that was all that
//! was queued, or short in the shutdown drain.
//! Every request carries its enqueue timestamp; completions feed a shared
//! [`LatencyHistogram`] from which p50/p95/p99/p999 are read out online.
//!
//! ```text
//!  submit() ──▶ [bounded queue] ──▶ batch former ──▶ worker 0 (engine+arena)
//!  submit() ──▶      │ depth ≤ queue_depth  │   ──▶ worker 1 (engine+arena)
//!  submit() ──▶      ▼ full? block / reject ▼   ──▶ ...
//!           a free worker takes min(queued, max_batch)
//! ```

// Every admitted request is answered with a value or an error. The worker
// contains engine panics, but one in admission, the queue or a reply slot
// would drop requests, so the runtime and its submodules take no panicking
// shortcut outside their tests.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

mod histogram;
mod queue;
mod replay;

pub use histogram::{LatencyHistogram, LatencyPercentiles};
pub use queue::BatchClose;
pub use replay::{replay_trace, ReplayOutcome};

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use microrec_embedding::TierCounters;

use crate::engine::{MicroRec, MicroRecBuilder};
use crate::error::MicroRecError;
use crate::sync::{join, lock_or_recover, wait_while};
use queue::{BoundedQueue, PushError};

/// What to do with a new request when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the producer until space frees (backpressure).
    #[default]
    Block,
    /// Refuse immediately with [`RuntimeError::Rejected`] and count a drop.
    Reject,
}

/// Configuration of the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads, each owning one engine replica.
    pub workers: usize,
    /// Most requests a worker takes from the queue as one micro-batch.
    pub max_batch: usize,
    /// Admission-queue capacity (requests waiting to be batched).
    pub queue_depth: usize,
    /// Full-queue behavior.
    pub admission: AdmissionPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            max_batch: 32,
            queue_depth: 1024,
            admission: AdmissionPolicy::Block,
        }
    }
}

/// Why a submitted request did not produce a prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The admission queue was full under [`AdmissionPolicy::Reject`].
    Rejected,
    /// The runtime is shutting down and admits no new requests.
    ShuttingDown,
    /// The query's arity does not match the served model.
    BadQuery {
        /// Indices the model expects per query.
        expected: usize,
        /// Indices the query actually carried.
        actual: usize,
    },
    /// The engine failed on this query (e.g. out-of-range row index).
    Failed(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Rejected => write!(f, "admission queue full, request rejected"),
            RuntimeError::ShuttingDown => write!(f, "runtime is shutting down"),
            RuntimeError::BadQuery { expected, actual } => {
                write!(f, "query arity mismatch: expected {expected} indices, got {actual}")
            }
            RuntimeError::Failed(msg) => write!(f, "inference failed: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// One-shot completion slot shared between a request and its
/// [`PendingPrediction`].
#[derive(Debug)]
struct Slot {
    result: Mutex<Option<Result<f32, RuntimeError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot { result: Mutex::new(None), ready: Condvar::new() })
    }

    fn fulfill(&self, value: Result<f32, RuntimeError>) {
        let mut slot = lock_or_recover(&self.result);
        *slot = Some(value);
        drop(slot);
        self.ready.notify_all();
    }
}

/// Handle to an admitted request's eventual prediction.
#[derive(Debug)]
pub struct PendingPrediction {
    slot: Arc<Slot>,
}

impl PendingPrediction {
    /// Blocks until the prediction completes. Every admitted request is
    /// answered, even when the engine panics on it: the worker contains the
    /// panic and fails only this request.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Failed`] if the engine rejected the query or
    /// panicked on it.
    pub fn wait(self) -> Result<f32, RuntimeError> {
        let mut slot = lock_or_recover(&self.slot.result);
        // `wait_while` returns only once the slot is filled; the loop takes
        // the answer out of its `Option` without an `unwrap`.
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = wait_while(slot, &self.slot.ready, |result| result.is_none());
        }
    }

    /// Returns the prediction if it already completed, without blocking.
    #[must_use]
    pub fn try_take(&self) -> Option<Result<f32, RuntimeError>> {
        lock_or_recover(&self.slot.result).take()
    }
}

/// A queued request: the query, its admission instant, and where to
/// deliver the answer.
#[derive(Debug)]
struct Request {
    query: Vec<u64>,
    enqueued_at: Instant,
    slot: Arc<Slot>,
}

/// Shared runtime counters plus the completion-latency histogram.
#[derive(Debug, Default)]
struct SharedStats {
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    size_closes: AtomicU64,
    ready_closes: AtomicU64,
    drain_closes: AtomicU64,
    hist: Mutex<LatencyHistogram>,
    /// Per-tier totals across all workers, populated when the engines
    /// serve through the tiered parameter store.
    tier_resident_hits: AtomicU64,
    tier_cold_reads: AtomicU64,
    tier_bytes_from_cold: AtomicU64,
    tier_cold_errors: AtomicU64,
}

/// Aggregated per-tier counters of a runtime whose workers serve through
/// the tiered parameter store.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeLookupStats {
    /// Rows served by the resident arena (L2) across all workers.
    pub resident_hits: u64,
    /// Rows read from the file-backed cold store (L3).
    pub cold_reads: u64,
    /// Bytes moved off the cold store.
    pub bytes_from_cold: u64,
    /// Cold reads that failed (truncated/unreadable store file).
    pub cold_errors: u64,
}

impl RuntimeLookupStats {
    /// Whether the cold tier has served every read it was asked for. A
    /// runtime keeps draining while this is `false` — only the affected
    /// lookups fail — but the tier needs operator attention.
    #[must_use]
    pub fn cold_tier_healthy(&self) -> bool {
        self.cold_errors == 0
    }
}

/// Point-in-time view of the runtime's counters and tail latency.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSnapshot {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests dropped by the reject policy.
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an engine error.
    pub failed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Batches closed full: `max_batch` or more requests were queued.
    pub size_closes: u64,
    /// Batches of fewer than `max_batch`: a free worker took everything
    /// that was queued.
    pub ready_closes: u64,
    /// Always 0: no batch waits for a deadline. Kept so readers of older
    /// snapshots (the perf ledger's `deadline_close_frac`) keep compiling.
    pub deadline_closes: u64,
    /// Batches closed by the shutdown drain.
    pub drain_closes: u64,
    /// Mean requests per executed batch (0 when no batches ran).
    pub mean_batch_size: f64,
    /// Mean enqueue→completion latency in microseconds.
    pub mean_latency_us: f64,
    /// Enqueue→completion latency percentiles.
    pub latency: LatencyPercentiles,
}

impl RuntimeSnapshot {
    /// Fraction of offered requests dropped (`rejected / (admitted +
    /// rejected)`, 0 when nothing was offered).
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let offered = self.admitted + self.rejected;
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }
}

/// The streaming serving runtime: bounded admission queue, work-conserving
/// batch former, and a pool of engine-replica workers.
///
/// Dropping the runtime shuts it down cleanly: the queue closes, workers
/// drain every admitted request, and their threads are joined.
#[derive(Debug)]
pub struct ServingRuntime {
    queue: Arc<BoundedQueue<Request>>,
    stats: Arc<SharedStats>,
    config: RuntimeConfig,
    expected_arity: usize,
    /// Whether the engines serve through the tiered parameter store.
    tiered: bool,
    workers: Vec<JoinHandle<()>>,
}

impl ServingRuntime {
    /// Builds one engine replica per worker from `builder` (which packs its
    /// weights), pre-warms each replica's staging matrix and scratch arena
    /// at `max_batch` (so the steady-state loop allocates only per-request
    /// and per-batch results), and starts the workers.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if an engine fails to build or a worker
    /// thread cannot be spawned.
    pub fn start(
        mut builder: MicroRecBuilder,
        config: RuntimeConfig,
    ) -> Result<Self, MicroRecError> {
        let config = RuntimeConfig {
            workers: config.workers.max(1),
            max_batch: config.max_batch.max(1),
            queue_depth: config.queue_depth.max(1),
            ..config
        };
        // When an embedding arena is configured, materialize it once and
        // share it read-only across all worker replicas (worker memory no
        // longer scales with the arena size).
        builder.prepare_shared_arena()?;
        // The admission queue is created here, before the replicas: set-up
        // time moves with the heap layout (EXPERIMENTS.md, "The engine
        // without the simulator"), and `tests/setup_alloc.rs` pins this
        // order.
        let queue = Arc::new(BoundedQueue::new(config.queue_depth));
        // Pre-warm: one full-width dummy batch sizes the staging matrix and
        // the arena, then the stats reset hides it from the tier counters.
        let warm_engine = |builder: &MicroRecBuilder| -> Result<MicroRec, MicroRecError> {
            let mut engine = builder.clone().build()?;
            let arity = engine.model().num_tables() * engine.model().lookups_per_table as usize;
            let warm = vec![vec![0u64; arity]; config.max_batch];
            engine.predict_batch(&warm)?;
            engine.reset_stats();
            Ok(engine)
        };
        let mut engines: Vec<MicroRec> = Vec::with_capacity(config.workers);
        while engines.len() < config.workers {
            engines.push(warm_engine(&builder)?);
        }
        let expected_arity =
            engines[0].model().num_tables() * engines[0].model().lookups_per_table as usize;
        let tiered = engines[0].is_tiered();
        let stats = Arc::new(SharedStats::default());
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(config.workers);
        let mut replicas = engines.into_iter();
        for id in 0..config.workers {
            // This worker's replica, taken as a one-element `Vec` and popped
            // back out rather than with `next()`: the ledger's `setup_s`
            // moves with the allocation order here (EXPERIMENTS.md, PR 19),
            // so start-up allocates exactly what it always has.
            let mut replica: Vec<MicroRec> = replicas.by_ref().take(1).collect();
            let spawned =
                std::thread::Builder::new().name(format!("microrec-worker-{id}")).spawn({
                    let queue = Arc::clone(&queue);
                    let stats = Arc::clone(&stats);
                    let Some(engine) = replica.pop() else {
                        // Unreachable: the pool is sized above.
                        return Err(abort_start(
                            &queue,
                            workers,
                            MicroRecError::Runtime("worker engine pool exhausted".into()),
                        ));
                    };
                    // Boxed here although `spawn` boxes it again, for the
                    // same reason: handing `spawn` the ≈1.1 KB closure
                    // itself drops this block and grows std's own by as
                    // much (EXPERIMENTS.md, "One execution path").
                    Box::new(move || {
                        worker_loop(
                            engine,
                            &queue,
                            &stats,
                            config,
                            MicroRec::predict_batch,
                            MicroRec::predict,
                        );
                    }) as Box<dyn FnOnce() + Send>
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    return Err(abort_start(
                        &queue,
                        workers,
                        MicroRecError::Runtime(format!("failed to spawn worker {id}: {e}")),
                    ));
                }
            }
        }
        Ok(ServingRuntime { queue, stats, config, expected_arity, tiered, workers })
    }

    /// The active configuration (after clamping zero knobs to 1).
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Submits one query for prediction.
    ///
    /// Under [`AdmissionPolicy::Block`] this blocks while the queue is
    /// full; under [`AdmissionPolicy::Reject`] it fails fast and the drop
    /// is counted.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadQuery`] for a wrong-arity query (checked before
    /// admission), [`RuntimeError::Rejected`] on a full queue under the
    /// reject policy, [`RuntimeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, query: Vec<u64>) -> Result<PendingPrediction, RuntimeError> {
        if query.len() != self.expected_arity {
            return Err(RuntimeError::BadQuery {
                expected: self.expected_arity,
                actual: query.len(),
            });
        }
        let slot = Slot::new();
        let request = Request { query, enqueued_at: Instant::now(), slot: Arc::clone(&slot) };
        match self.config.admission {
            AdmissionPolicy::Block => {
                if self.queue.push_blocking(request).is_err() {
                    return Err(RuntimeError::ShuttingDown);
                }
            }
            AdmissionPolicy::Reject => match self.queue.try_push(request) {
                Ok(()) => {}
                Err(PushError::Full(_)) => {
                    self.stats.rejected.fetch_add(1, Relaxed);
                    return Err(RuntimeError::Rejected);
                }
                Err(PushError::Closed(_)) => return Err(RuntimeError::ShuttingDown),
            },
        }
        self.stats.admitted.fetch_add(1, Relaxed);
        Ok(PendingPrediction { slot })
    }

    /// Reads the current counters and latency percentiles.
    #[must_use]
    pub fn snapshot(&self) -> RuntimeSnapshot {
        let hist = lock_or_recover(&self.stats.hist);
        let batches = self.stats.batches.load(Relaxed);
        let completed = self.stats.completed.load(Relaxed);
        let failed = self.stats.failed.load(Relaxed);
        RuntimeSnapshot {
            admitted: self.stats.admitted.load(Relaxed),
            rejected: self.stats.rejected.load(Relaxed),
            completed,
            failed,
            batches,
            size_closes: self.stats.size_closes.load(Relaxed),
            ready_closes: self.stats.ready_closes.load(Relaxed),
            deadline_closes: 0,
            drain_closes: self.stats.drain_closes.load(Relaxed),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                (completed + failed) as f64 / batches as f64
            },
            mean_latency_us: hist.mean_us(),
            latency: hist.percentiles(),
        }
    }

    /// A copy of the completion-latency histogram (for reports that need
    /// more than the standard percentiles).
    #[must_use]
    pub fn histogram(&self) -> LatencyHistogram {
        lock_or_recover(&self.stats.hist).clone()
    }

    /// Aggregated per-tier counters across workers, or `None` when the
    /// engines do not serve through the tiered parameter store.
    #[must_use]
    pub fn lookup_stats(&self) -> Option<RuntimeLookupStats> {
        self.tiered.then(|| RuntimeLookupStats {
            resident_hits: self.stats.tier_resident_hits.load(Relaxed),
            cold_reads: self.stats.tier_cold_reads.load(Relaxed),
            bytes_from_cold: self.stats.tier_bytes_from_cold.load(Relaxed),
            cold_errors: self.stats.tier_cold_errors.load(Relaxed),
        })
    }

    /// Shuts down: closes the queue (new submits fail, blocked producers
    /// wake), waits for workers to drain every admitted request, and joins
    /// them. Idempotent. Returns the final snapshot.
    pub fn shutdown(&mut self) -> RuntimeSnapshot {
        self.queue.close();
        for worker in self.workers.drain(..) {
            // Engine panics are contained per request, so a worker only
            // dies on a runtime bug; the runtime's counters remain valid.
            let _ = join(worker);
        }
        self.snapshot()
    }
}

impl Drop for ServingRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Unwinds a start-up that failed part-way: closes the queue so the
/// workers already spawned drain out, joins them, and hands `error` back
/// for the caller to return.
fn abort_start(
    queue: &BoundedQueue<Request>,
    workers: Vec<JoinHandle<()>>,
    error: MicroRecError,
) -> MicroRecError {
    queue.close();
    for worker in workers {
        let _ = join(worker);
    }
    error
}

/// Books a popped batch — one more batch, closed for `close` — and moves
/// each query out of its request into `queries` (the producer's
/// allocation is reused, so the steady-state loop stays allocation-free).
fn open_batch(
    stats: &SharedStats,
    batch: &mut [Request],
    close: BatchClose,
    queries: &mut Vec<Vec<u64>>,
) {
    stats.batches.fetch_add(1, Relaxed);
    let closes = match close {
        BatchClose::Size => &stats.size_closes,
        BatchClose::Ready => &stats.ready_closes,
        BatchClose::Drain => &stats.drain_closes,
    };
    closes.fetch_add(1, Relaxed);
    queries.clear();
    queries.extend(batch.iter_mut().map(|r| std::mem::take(&mut r.query)));
}

/// Runs a popped batch through the engine and answers every request:
/// records each latency and fulfils each slot. A failed batch falls back
/// to `predict_one` per item, so one bad query fails only its own request.
/// Both calls run under [`contained`]: an engine panic is a failure of the
/// call it happened in, never a lost batch or a dead worker.
fn deliver(
    stats: &SharedStats,
    batch: Vec<Request>,
    queries: &[Vec<u64>],
    engine: &mut MicroRec,
    predict_batch: impl FnOnce(&mut MicroRec, &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError>,
    mut predict_one: impl FnMut(&mut MicroRec, &[u64]) -> Result<f32, MicroRecError>,
) {
    match contained(|| predict_batch(engine, queries)) {
        Ok(ctrs) => {
            let now = Instant::now();
            let mut hist = lock_or_recover(&stats.hist);
            for request in &batch {
                hist.record_duration(now.saturating_duration_since(request.enqueued_at));
            }
            drop(hist);
            stats.completed.fetch_add(batch.len() as u64, Relaxed);
            for (request, ctr) in batch.into_iter().zip(ctrs) {
                request.slot.fulfill(Ok(ctr));
            }
        }
        Err(_) => {
            for (request, query) in batch.into_iter().zip(queries) {
                match contained(|| predict_one(engine, query)) {
                    Ok(ctr) => {
                        let elapsed = request.enqueued_at.elapsed();
                        lock_or_recover(&stats.hist).record_duration(elapsed);
                        stats.completed.fetch_add(1, Relaxed);
                        request.slot.fulfill(Ok(ctr));
                    }
                    Err(e) => {
                        stats.failed.fetch_add(1, Relaxed);
                        request.slot.fulfill(Err(RuntimeError::Failed(e.to_string())));
                    }
                }
            }
        }
    }
}

/// Runs one engine call, turning a panic into
/// [`MicroRecError::Runtime`]`("engine panicked: …")`. The worker keeps
/// serving with the same replica: a batch path the call had taken out is
/// rebuilt by the next batch, and the tier counters may keep the
/// interrupted call's reads.
fn contained<T>(call: impl FnOnce() -> Result<T, MicroRecError>) -> Result<T, MicroRecError> {
    std::panic::catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        Err(MicroRecError::Runtime(format!("engine panicked: {what}")))
    })
}

/// Adds the movement of a tiered `engine`'s counters since `published` to
/// the shared stats, and remembers the new values in `published`.
fn publish_tiers(engine: &MicroRec, stats: &SharedStats, published: &mut TierCounters) {
    let now = engine.tier_counters();
    let delta = now.delta_since(published);
    stats.tier_resident_hits.fetch_add(delta.resident_hits, Relaxed);
    stats.tier_cold_reads.fetch_add(delta.cold_reads, Relaxed);
    stats.tier_bytes_from_cold.fetch_add(delta.bytes_from_cold, Relaxed);
    stats.tier_cold_errors.fetch_add(delta.cold_errors, Relaxed);
    *published = now;
}

/// Steady-state loop of one worker: pop a micro-batch, run it through the
/// private engine replica, deliver results, publish the batch's tier
/// counter movement. The two engine calls are parameters only so a test
/// can make them panic; in service they are `MicroRec::predict_batch` and
/// `MicroRec::predict`.
fn worker_loop(
    mut engine: MicroRec,
    queue: &BoundedQueue<Request>,
    stats: &SharedStats,
    config: RuntimeConfig,
    mut predict_batch: impl FnMut(&mut MicroRec, &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError>,
    mut predict_one: impl FnMut(&mut MicroRec, &[u64]) -> Result<f32, MicroRecError>,
) {
    let mut queries: Vec<Vec<u64>> = Vec::with_capacity(config.max_batch);
    let mut published = TierCounters::default();
    while let Some((mut batch, close)) = queue.pop_batch(config.max_batch) {
        open_batch(stats, &mut batch, close, &mut queries);
        deliver(stats, batch, &queries, &mut engine, &mut predict_batch, &mut predict_one);
        if engine.is_tiered() {
            publish_tiers(&engine, stats, &mut published);
        }
    }
}

#[cfg(test)]
mod close_tests {
    //! The close rule under a held worker: requests are admitted into a
    //! runtime whose worker has not started, so what each batch holds is
    //! decided by the test, not by thread timing.

    use super::*;
    use microrec_embedding::ModelSpec;
    use std::time::Duration;

    fn build_engine() -> MicroRec {
        MicroRec::builder(ModelSpec::dlrm_rmc2(4, 4)).seed(7).build().unwrap()
    }

    /// A runtime with its queue open and no worker yet, plus
    /// the engine [`release`] will serve with.
    fn held(config: RuntimeConfig) -> (ServingRuntime, MicroRec) {
        let engine = build_engine();
        let model = engine.model();
        let runtime = ServingRuntime {
            queue: Arc::new(BoundedQueue::new(config.queue_depth)),
            stats: Arc::new(SharedStats::default()),
            config,
            expected_arity: model.num_tables() * model.lookups_per_table as usize,
            tiered: false,
            workers: Vec::new(),
        };
        (runtime, engine)
    }

    /// Starts the held runtime's one worker.
    fn release(runtime: &mut ServingRuntime, engine: MicroRec) {
        release_with(runtime, engine, MicroRec::predict_batch, MicroRec::predict);
    }

    /// Starts the held runtime's one worker with the given engine calls.
    fn release_with(
        runtime: &mut ServingRuntime,
        engine: MicroRec,
        predict_batch: impl FnMut(&mut MicroRec, &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError>
            + Send
            + 'static,
        predict_one: impl FnMut(&mut MicroRec, &[u64]) -> Result<f32, MicroRecError> + Send + 'static,
    ) {
        let (queue, stats) = (Arc::clone(&runtime.queue), Arc::clone(&runtime.stats));
        let config = runtime.config;
        runtime.workers.push(std::thread::spawn(move || {
            worker_loop(engine, &queue, &stats, config, predict_batch, predict_one);
        }));
    }

    /// The request's answer, waited for at most 10 s: a lost answer fails
    /// the test instead of hanging it.
    fn answer(pending: &PendingPrediction) -> Result<f32, RuntimeError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(result) = pending.try_take() {
                return result;
            }
            assert!(Instant::now() < deadline, "request not answered within 10 s");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn query(runtime: &ServingRuntime, i: u64) -> Vec<u64> {
        (0..runtime.expected_arity as u64).map(|slot| (i * 31 + slot) % 100).collect()
    }

    #[test]
    fn reject_policy_counts_drops_and_completes_the_rest() {
        let (mut runtime, engine) = held(RuntimeConfig {
            workers: 1,
            max_batch: 4,
            queue_depth: 2,
            admission: AdmissionPolicy::Reject,
        });
        let mut pending = Vec::new();
        for i in 0..50 {
            match runtime.submit(query(&runtime, i)) {
                Ok(p) => pending.push(p),
                Err(e) => assert_eq!(e, RuntimeError::Rejected),
            }
        }
        assert_eq!(pending.len(), 2, "a depth-2 queue nobody pops admits exactly two");
        assert_eq!(runtime.snapshot().rejected, 48);
        release(&mut runtime, engine);
        let snapshot = runtime.shutdown();
        assert_eq!((snapshot.admitted, snapshot.rejected, snapshot.completed), (2, 48, 2));
        assert!((snapshot.drop_rate() - 48.0 / 50.0).abs() < 1e-12);
        for p in pending {
            answer(&p).expect("admitted requests must still complete");
        }
    }

    #[test]
    fn size_closes_dominate_under_saturation() {
        let (mut runtime, engine) =
            held(RuntimeConfig { workers: 1, max_batch: 32, ..RuntimeConfig::default() });
        // Eight full batches and five left over, all queued before the
        // worker looks.
        let pending: Vec<_> =
            (0..261).map(|i| runtime.submit(query(&runtime, i)).expect("submit")).collect();
        release(&mut runtime, engine);
        for p in pending {
            answer(&p).expect("predict");
        }
        let snapshot = runtime.shutdown();
        assert_eq!(snapshot.completed, 261);
        assert_eq!(
            (snapshot.batches, snapshot.size_closes, snapshot.ready_closes, snapshot.drain_closes),
            (9, 8, 1, 0)
        );
        assert_eq!(snapshot.deadline_closes, 0);
        assert!((snapshot.mean_batch_size - 261.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn shutdown_drains_what_a_late_worker_finds_queued() {
        let (mut runtime, engine) =
            held(RuntimeConfig { workers: 1, max_batch: 8, ..RuntimeConfig::default() });
        let pending: Vec<_> =
            (0..11).map(|i| runtime.submit(query(&runtime, i)).expect("submit")).collect();
        // Close first, then start the worker: a full batch is still a
        // size close, the remainder is the drain.
        runtime.queue.close();
        release(&mut runtime, engine);
        let snapshot = runtime.shutdown();
        assert_eq!(
            (
                snapshot.completed,
                snapshot.size_closes,
                snapshot.ready_closes,
                snapshot.drain_closes
            ),
            (11, 1, 0, 1)
        );
        for p in pending {
            answer(&p).expect("every admitted request must complete");
        }
    }

    #[test]
    fn engine_panics_fail_only_their_request_and_the_worker_keeps_serving() {
        let (mut runtime, engine) =
            held(RuntimeConfig { workers: 1, max_batch: 8, ..RuntimeConfig::default() });
        let pending: Vec<_> =
            (0..4).map(|i| runtime.submit(query(&runtime, i)).expect("submit")).collect();
        // All four are queued before the worker looks, so they are one
        // batch. Its batch call panics, and so does the per-item fallback
        // on request 2 alone.
        let poison = query(&runtime, 2);
        let in_batch = poison.clone();
        release_with(
            &mut runtime,
            engine,
            move |e, queries| {
                assert!(!queries.contains(&in_batch), "injected batch panic");
                e.predict_batch(queries)
            },
            move |e, q| {
                assert!(q != poison.as_slice(), "injected item panic");
                e.predict(q)
            },
        );
        let mut sequential = build_engine();
        for (i, p) in pending.iter().enumerate() {
            match answer(p) {
                Ok(got) => {
                    let want = sequential.predict(&query(&runtime, i as u64)).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "request {i}");
                }
                Err(RuntimeError::Failed(msg)) if i == 2 => {
                    assert!(msg.contains("engine panicked: injected item panic"), "{msg}");
                }
                other => panic!("request {i}: unexpected {other:?}"),
            }
        }
        assert_eq!((runtime.snapshot().completed, runtime.snapshot().failed), (3, 1));

        // The same worker serves the next request through its batch call.
        let next = runtime.submit(query(&runtime, 4)).expect("submit");
        let want = sequential.predict(&query(&runtime, 4)).unwrap();
        assert_eq!(answer(&next).map(f32::to_bits), Ok(want.to_bits()));
        let snapshot = runtime.shutdown();
        assert_eq!((snapshot.completed, snapshot.failed, snapshot.batches), (4, 1, 2));
    }
}

#[cfg(test)]
mod poison_tests {
    use super::*;

    #[test]
    fn fulfilled_slot_survives_a_poisoned_result_lock() {
        // A waiter-side panic with the result lock held poisons the slot;
        // the worker's `fulfill` and a later `wait` must both recover it.
        let slot = Slot::new();
        let holder = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _guard = holder.result.lock().unwrap();
            panic!("waiter dies holding the slot lock");
        })
        .join();
        assert!(slot.result.is_poisoned());
        slot.fulfill(Ok(0.25));
        let pending = PendingPrediction { slot };
        assert_eq!(pending.wait(), Ok(0.25));
    }

    #[test]
    fn snapshot_and_histogram_survive_a_poisoned_histogram_lock() {
        let stats = SharedStats::default();
        lock_or_recover(&stats.hist).record_us(100.0);
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = stats.hist.lock().unwrap();
                    panic!("recorder dies holding the histogram lock");
                })
                .join()
        });
        assert!(stats.hist.is_poisoned());
        // The recorded sample is still readable through the poisoned lock.
        assert!(lock_or_recover(&stats.hist).mean_us() > 0.0);
    }
}
