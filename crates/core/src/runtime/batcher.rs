//! Deterministic micro-batch forming.
//!
//! The serving runtime's close rule is work-conserving: a worker that is
//! free takes whatever is queued *now*, up to `max_batch`, and waits only
//! while the queue is empty. Nothing waits for a batch to fill, so at low
//! load a request is served alone at service time; batches grow by
//! themselves while every worker is busy, which is exactly when batching
//! pays. This module states that rule as a pure function over arrival
//! timestamps, a per-batch service time and a worker count, so it can be
//! tested deterministically (same seeded arrival stream ⇒ same batch
//! boundaries) independent of thread scheduling. The real-time queue
//! ([`BoundedQueue::pop_batch`](super::queue::BoundedQueue::pop_batch))
//! applies the same rule to whatever its workers' real service times
//! leave queued.

/// The batch former's two parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFormerConfig {
    /// A batch never holds more than this many requests.
    pub max_batch: usize,
    /// Workers popping batches from the one shared queue.
    pub workers: usize,
}

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

/// One planned micro-batch over an arrival trace: requests
/// `[start, end)` are taken together at `close_at_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedBatch {
    /// Index of the first request in the batch.
    pub start: usize,
    /// One past the last request in the batch.
    pub end: usize,
    /// Instant the batch closed, in trace microseconds.
    pub close_at_us: u64,
    /// Which rule closed the batch.
    pub close: BatchClose,
    /// The modelled worker that ran it, busy from `close_at_us` for the
    /// batch's service time.
    pub worker: usize,
}

impl PlannedBatch {
    /// Number of requests in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the batch is empty (never produced by the planner).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Plans the micro-batches the close rule produces over a sorted arrival
/// trace (`arrivals_us[i]` = arrival instant of request `i` in
/// microseconds) when a batch of `n` requests keeps its worker busy for
/// `service_us(n)` microseconds.
///
/// The worker that is free earliest (lowest index on a tie) takes the
/// next batch the moment it is free and a request is queued: everything
/// that has arrived by then, up to `max_batch`. Deterministic: the same
/// trace, config and service times always produce the same plan. The
/// plan is an exact, in-order partition of the trace, and no request
/// waits while a worker is free.
///
/// # Panics
///
/// Panics if `cfg.max_batch` or `cfg.workers` is zero.
#[must_use]
pub fn plan_batches(
    arrivals_us: &[u64],
    cfg: &BatchFormerConfig,
    service_us: impl Fn(usize) -> u64,
) -> Vec<PlannedBatch> {
    assert!(cfg.max_batch > 0, "max_batch must be at least 1");
    assert!(cfg.workers > 0, "workers must be at least 1");
    debug_assert!(arrivals_us.windows(2).all(|w| w[0] <= w[1]), "arrivals must be sorted");
    let mut free_at = vec![0u64; cfg.workers];
    let mut plan = Vec::new();
    let mut start = 0usize;
    while start < arrivals_us.len() {
        let mut worker = 0;
        for (w, &free) in free_at.iter().enumerate() {
            if free < free_at[worker] {
                worker = w;
            }
        }
        let close_at_us = free_at[worker].max(arrivals_us[start]);
        let queued = arrivals_us[start..].partition_point(|&t| t <= close_at_us);
        let end = start + queued.min(cfg.max_batch);
        let close = if queued >= cfg.max_batch { BatchClose::Size } else { BatchClose::Ready };
        plan.push(PlannedBatch { start, end, close_at_us, close, worker });
        free_at[worker] = close_at_us.saturating_add(service_us(end - start));
        start = end;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_rng::{Exp, Rng};

    fn poisson_trace_us(rate_per_sec: f64, n: usize, seed: u64) -> Vec<u64> {
        let exp = Exp::new(rate_per_sec).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                t += exp.sample(&mut rng) * 1e6;
                t as u64
            })
            .collect()
    }

    /// 80 µs to start a batch plus 20 µs per item.
    fn linear(n: usize) -> u64 {
        80 + 20 * n as u64
    }

    /// Checks the plan against the rule, from the plan alone: an exact
    /// in-order partition, no batch over `max_batch`, no worker running
    /// two batches at once, and no request left queued at an instant some
    /// worker was free.
    fn check_invariants(
        arrivals: &[u64],
        cfg: &BatchFormerConfig,
        service_us: impl Fn(usize) -> u64,
        plan: &[PlannedBatch],
    ) {
        let mut next = 0usize;
        // Each worker's busy intervals, in plan order.
        let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cfg.workers];
        for b in plan {
            assert_eq!(b.start, next, "batches must tile the trace in order");
            assert!(!b.is_empty(), "no empty batches");
            assert!(b.len() <= cfg.max_batch, "batch over max_batch");
            assert!(arrivals[b.end - 1] <= b.close_at_us, "a batch holds only what has arrived");
            match b.close {
                BatchClose::Size => assert_eq!(b.len(), cfg.max_batch),
                BatchClose::Ready => {
                    assert!(b.len() < cfg.max_batch);
                    // Ready means the queue was emptied.
                    assert!(arrivals.get(b.end).is_none_or(|&t| t > b.close_at_us));
                }
                BatchClose::Drain => panic!("planner never drains"),
            }
            let lane = &mut busy[b.worker];
            assert!(lane.last().is_none_or(|&(_, until)| until <= b.close_at_us), "worker overlap");
            lane.push((b.close_at_us, b.close_at_us + service_us(b.len())));
            next = b.end;
        }
        assert_eq!(next, arrivals.len(), "every request is batched");
        // Work conservation: from the moment a batch's oldest request
        // arrived until the batch closed, every worker was busy.
        for b in plan {
            let waited_from = arrivals[b.start];
            for (w, lane) in busy.iter().enumerate() {
                let mut covered_to = waited_from;
                for &(from, until) in lane {
                    if from <= covered_to && until > covered_to {
                        covered_to = until;
                    }
                }
                assert!(
                    covered_to >= b.close_at_us,
                    "request {} waited from {waited_from} to {} while worker {w} was free at {covered_to}",
                    b.start,
                    b.close_at_us
                );
            }
        }
    }

    #[test]
    fn same_seed_means_same_boundaries() {
        let cfg = BatchFormerConfig { max_batch: 16, workers: 2 };
        let a = plan_batches(&poisson_trace_us(30_000.0, 3_000, 7), &cfg, linear);
        let b = plan_batches(&poisson_trace_us(30_000.0, 3_000, 7), &cfg, linear);
        assert_eq!(a, b, "seeded arrivals must produce identical plans");
        let c = plan_batches(&poisson_trace_us(30_000.0, 3_000, 8), &cfg, linear);
        assert_ne!(a, c, "a different seed should shift boundaries");
        check_invariants(&poisson_trace_us(30_000.0, 3_000, 7), &cfg, linear, &a);
    }

    #[test]
    fn invariants_hold_across_loads_and_worker_counts() {
        for (seed, rate) in [(1u64, 300.0), (2, 8_000.0), (3, 60_000.0), (4, 2_000_000.0)] {
            let arrivals = poisson_trace_us(rate, 2_000, seed);
            for workers in [1usize, 2, 3] {
                for max_batch in [1usize, 4, 32] {
                    let cfg = BatchFormerConfig { max_batch, workers };
                    let plan = plan_batches(&arrivals, &cfg, linear);
                    check_invariants(&arrivals, &cfg, linear, &plan);
                }
            }
        }
    }

    #[test]
    fn zero_service_time_serves_every_request_alone() {
        // Distinct arrival instants and a worker that is always free
        // again before the next one: nothing ever queues behind anything.
        let arrivals: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let cfg = BatchFormerConfig { max_batch: 32, workers: 1 };
        let plan = plan_batches(&arrivals, &cfg, |_| 0);
        check_invariants(&arrivals, &cfg, |_| 0, &plan);
        assert_eq!(plan.len(), arrivals.len());
        for (i, b) in plan.iter().enumerate() {
            assert_eq!((b.len(), b.close, b.close_at_us), (1, BatchClose::Ready, arrivals[i]));
        }
    }

    #[test]
    fn low_load_is_served_at_arrival_not_after_a_window() {
        // 300 req/s against ~100 µs of service (the ledger's serve-open):
        // the worker is idle at almost every arrival.
        let arrivals = poisson_trace_us(300.0, 2_000, 11);
        let cfg = BatchFormerConfig { max_batch: 32, workers: 1 };
        let plan = plan_batches(&arrivals, &cfg, linear);
        check_invariants(&arrivals, &cfg, linear, &plan);
        assert!(plan.iter().all(|b| b.close == BatchClose::Ready));
        let at_arrival = plan.iter().filter(|b| b.close_at_us == arrivals[b.start]).count();
        assert!(at_arrival as f64 > plan.len() as f64 * 0.95, "{at_arrival}/{}", plan.len());
        let mean = arrivals.len() as f64 / plan.len() as f64;
        assert!(mean < 1.1, "mean batch {mean} should be ~1 at 300 req/s");
    }

    #[test]
    fn service_far_above_inter_arrival_fills_batches() {
        // 1M req/s against ~700 µs per full batch: the backlog outgrows
        // max_batch during the first service and stays there.
        let arrivals = poisson_trace_us(1_000_000.0, 4_000, 3);
        let cfg = BatchFormerConfig { max_batch: 32, workers: 1 };
        let plan = plan_batches(&arrivals, &cfg, linear);
        check_invariants(&arrivals, &cfg, linear, &plan);
        let size_closes = plan.iter().filter(|b| b.close == BatchClose::Size).count();
        assert!(size_closes + 3 >= plan.len(), "{size_closes}/{} size closes", plan.len());
    }

    #[test]
    fn burst_splits_across_free_workers_then_queues() {
        // 100 simultaneous arrivals, max_batch 32, two free workers: both
        // take a full batch at once, the rest waits out a service time.
        let arrivals = vec![5_000u64; 100];
        let cfg = BatchFormerConfig { max_batch: 32, workers: 2 };
        let plan = plan_batches(&arrivals, &cfg, linear);
        check_invariants(&arrivals, &cfg, linear, &plan);
        let got: Vec<_> =
            plan.iter().map(|b| (b.len(), b.close, b.close_at_us, b.worker)).collect();
        let busy_until = 5_000 + linear(32);
        assert_eq!(
            got,
            vec![
                (32, BatchClose::Size, 5_000, 0),
                (32, BatchClose::Size, 5_000, 1),
                (32, BatchClose::Size, busy_until, 0),
                (4, BatchClose::Ready, busy_until, 1),
            ]
        );
    }

    #[test]
    fn max_batch_one_degenerates_to_item_at_a_time() {
        let arrivals = poisson_trace_us(5_000.0, 100, 1);
        let cfg = BatchFormerConfig { max_batch: 1, workers: 1 };
        let plan = plan_batches(&arrivals, &cfg, linear);
        check_invariants(&arrivals, &cfg, linear, &plan);
        assert_eq!(plan.len(), 100);
        assert!(plan.iter().all(|b| b.close == BatchClose::Size));
    }

    #[test]
    fn empty_trace_plans_nothing() {
        let cfg = BatchFormerConfig { max_batch: 8, workers: 1 };
        assert!(plan_batches(&[], &cfg, linear).is_empty());
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_panics() {
        let _ = plan_batches(&[1, 2], &BatchFormerConfig { max_batch: 0, workers: 1 }, linear);
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn zero_workers_panics() {
        let _ = plan_batches(&[1, 2], &BatchFormerConfig { max_batch: 8, workers: 0 }, linear);
    }
}
