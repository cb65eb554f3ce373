//! Multi-path execution: a dispatch seam over every engine variant and a
//! per-batch cost-model router on top.
//!
//! The repo has accumulated a matrix of execution paths — the monolithic
//! [`MicroRec`] engine, the sharded [`EnginePool`], and the staged
//! [`PipelineExecutor`] — each further parameterized by arena row format
//! and hot-row cache configuration. Every static choice is wrong for some
//! regime: the pipelined path loses ~9× on a tiny MLP (hop overhead
//! dominates), and the hot-row cache loses on uniform traffic (the probe
//! is pure overhead at a ~1.6% hit rate). This module makes the choice
//! per batch instead:
//!
//! 1. [`ExecutionPath`] is the one dispatch trait all variants implement.
//! 2. [`PathCost`] is a fitted linear cost `fixed + n·per_item` per path,
//!    measured at startup.
//! 3. [`PathCostModel`] scores every registered path per batch from the
//!    calibrated costs, EWMA-corrected observed latency, and a live
//!    traffic-cacheability sketch, and applies the SLO guard.
//! 4. [`PathSet`] owns the built engines plus a shared model and routes
//!    each batch to the predicted-fastest path.
//!
//! On this crate's single-core reference hardware the router's wins come
//! from picking the leaner datapath for the regime (see DESIGN.md), not
//! from overlap — the cost model measures whatever the host provides.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use microrec_embedding::{ModelSpec, RowFormat};

use crate::engine::{MicroRec, MicroRecBuilder};
use crate::error::MicroRecError;
use crate::pipeline::{PipelineExecutor, PipelinePlan, PipelineShared};
use crate::pool::EnginePool;
use crate::sync::lock_or_recover;

/// EWMA smoothing factor for observed per-item latency. Single-batch
/// timings at the tens-of-microseconds scale jitter by ±20%, so the
/// estimate must average over ~1/alpha batches for a real 5–10% gap
/// between paths to dominate the noise.
const EWMA_ALPHA: f64 = 0.1;
/// Below this live hit-rate estimate, cache-fronted paths are scored as
/// cold (penalized), so uniform traffic routes around the cache.
const COLD_HIT_FLOOR: f64 = 0.10;
/// Under overload the router is stricter about what counts as warm.
const OVERLOAD_HIT_FLOOR: f64 = 0.30;
/// Score multiplier applied to cache-fronted paths under cold traffic.
const COLD_PENALTY: f64 = 3.0;
/// A non-winning path is only re-probed when its score is within this
/// factor of the winner (never re-probe a hopeless path).
const PROBE_BAND: f64 = 1.5;
/// Dispatches a path must sit idle before it becomes probe-eligible.
/// Kept short: when a preemption burst poisons the best path's estimate
/// and the router flees to a slower one, the detour lasts until the
/// next probe pair re-measures the fallen path warm — this constant
/// bounds that recovery latency.
const REPROBE_IDLE: u64 = 16;
/// Minimum dispatches between any two probe pairs (bounds probe
/// overhead to at most `2 (PROBE_BAND - 1) / PROBE_SPACING` of the
/// winner's cost). Probes come in back-to-back pairs: the first batch
/// on a long-idle path pays its cold-start transient (evicted caches,
/// parked threads) and is discarded; only the second, warm batch is
/// recorded. A single cold probe would systematically overestimate
/// every challenger and lock in a wrong incumbent.
const PROBE_SPACING: u64 = 32;
/// A challenger must score below `incumbent × HYSTERESIS_MARGIN` to
/// displace it. Near-tied paths otherwise ping-pong on EWMA noise, and
/// every flip to the slightly-worse path costs real latency. The band
/// must stay narrower than the smallest path gap worth capturing
/// (~10%), or the router can sit on a path it should leave.
const HYSTERESIS_MARGIN: f64 = 0.95;
/// EWMA weight for an observation on a path that sat idle for
/// [`REPROBE_IDLE`]+ dispatches: its stale estimate should yield to
/// fresh evidence much faster than the steady-state [`EWMA_ALPHA`].
const REFRESH_ALPHA: f64 = 0.5;
/// Tag slots in the traffic-cacheability sketch (power of two).
const SKETCH_SLOTS: usize = 4096;
/// Lookups per sketch measurement window.
const SKETCH_WINDOW: u64 = 1024;
/// Single-item timing iterations during startup calibration.
const CALIBRATION_SINGLES: usize = 8;

/// Which engine variant a path runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// One [`MicroRec`] engine, batched fast path.
    Monolithic,
    /// [`PipelineExecutor`] over a staged plan.
    Pipelined,
    /// [`EnginePool`] sharding batches across replicas.
    Pool,
}

/// Identity of one routable path: variant, arena format, cache config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathDescriptor {
    /// Human-readable unique name, e.g. `"monolithic-nocache"`.
    pub name: &'static str,
    /// Engine variant.
    pub kind: PathKind,
    /// Arena row format label (`"legacy"` when no arena is configured).
    pub format: &'static str,
    /// Whether a hot-row cache fronts this path's gathers.
    pub cached: bool,
}

/// Fitted linear cost of one path: `batch_us(n) = fixed_us + n · per_item_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCost {
    /// Per-batch fixed overhead (dispatch, pipeline fill, lock handoff).
    pub fixed_us: f64,
    /// Marginal per-item cost at calibration batch size.
    pub per_item_us: f64,
    /// Measured single-item latency — the SLO guard's metric.
    pub single_us: f64,
}

impl PathCost {
    /// Predicted total latency of a batch of `n` items.
    #[must_use]
    pub fn batch_us(&self, n: usize) -> f64 {
        self.fixed_us + n as f64 * self.per_item_us
    }

    /// Fits the two-parameter model from a single-item measurement and a
    /// whole-batch measurement of `batch` items.
    #[must_use]
    pub fn fit(single_us: f64, batch_total_us: f64, batch: usize) -> PathCost {
        let n = batch.max(2) as f64;
        let marginal = (batch_total_us - single_us) / (n - 1.0);
        // A negative slope means batching amortizes nearly everything;
        // keep a fraction of the mean as the honest marginal floor.
        let per_item_us = marginal.max(batch_total_us / n * 0.1).max(1e-3);
        PathCost {
            fixed_us: (single_us - per_item_us).max(0.0),
            per_item_us,
            single_us: single_us.max(1e-3),
        }
    }
}

/// The router's verdict for one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteDecision {
    /// Index of the chosen path (into the [`PathSet`] / model order).
    pub path: usize,
    /// Predicted total batch latency of the chosen path, µs.
    pub predicted_us: f64,
    /// The SLO guard engaged (remaining budget below the throughput
    /// winner's predicted cost) and the measured lowest-latency path was
    /// taken instead.
    pub slo_fallback: bool,
    /// This dispatch is a staleness re-probe of a near-winner path, not
    /// the argmin choice.
    pub probe: bool,
}

/// Live cacheability estimate of the query stream, independent of any
/// real cache: a direct-mapped tag table over `(lookup slot, id)` keys
/// whose hit rate tracks how much short-term reuse the traffic offers.
/// Zipf traffic scores high, uniform traffic over large tables scores
/// near zero — exactly the signal that decides cache-on vs cache-off
/// paths without waiting for a cold cache to prove itself.
#[derive(Debug, Clone)]
struct TrafficSketch {
    tags: Vec<u64>,
    window_hits: u64,
    window_lookups: u64,
    rate: f64,
    warm: bool,
}

impl TrafficSketch {
    fn new() -> Self {
        TrafficSketch {
            tags: vec![0u64; SKETCH_SLOTS],
            window_hits: 0,
            window_lookups: 0,
            rate: 0.0,
            warm: false,
        }
    }

    fn note(&mut self, queries: &[Vec<u64>]) {
        for query in queries {
            for (slot, &id) in query.iter().enumerate() {
                let key = mix64(id ^ (slot as u64).wrapping_mul(0xA24B_AED4_963E_E407)) | 1;
                let idx = (key >> 1) as usize & (SKETCH_SLOTS - 1);
                if self.tags[idx] == key {
                    self.window_hits += 1;
                } else {
                    self.tags[idx] = key;
                }
                self.window_lookups += 1;
            }
        }
        if self.window_lookups >= SKETCH_WINDOW {
            let fresh = self.window_hits as f64 / self.window_lookups as f64;
            self.rate = if self.warm { 0.5 * self.rate + 0.5 * fresh } else { fresh };
            self.warm = true;
            self.window_hits = 0;
            self.window_lookups = 0;
        }
    }

    fn hit_rate(&self) -> Option<f64> {
        self.warm.then_some(self.rate)
    }
}

/// SplitMix64 finalizer — deterministic, well-mixed tags.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Clone)]
struct PathState {
    descriptor: PathDescriptor,
    cost: PathCost,
    calibrated: bool,
    /// Observed per-item latency, EWMA-smoothed; 0 until first feedback.
    ewma_us: f64,
    /// Scratch: score computed for the current routing decision.
    score_us: f64,
    /// Dispatches since this path last ran.
    idle: u64,
    /// The path just became the incumbent: its next observation carries
    /// the engine's cold-start transient (evicted caches, parked
    /// threads), which measures switching cost, not steady-state cost —
    /// skip it so one flip can't poison the estimate and cause churn.
    transient: bool,
    /// The path sat idle ≥ [`REPROBE_IDLE`] before this dispatch: blend
    /// its next observation at [`REFRESH_ALPHA`].
    refresh: bool,
    /// Last ≤ 3 per-item observations. The EWMA is fed the median of
    /// this window, so an isolated scheduler-preemption outlier (which
    /// can be several × the true cost) never enters the estimate — a
    /// single bad sample must not make the router flee its best path.
    recent: [f64; 3],
    recent_len: usize,
    recent_pos: usize,
    dispatches: u64,
    items: u64,
    predicted_us_sum: f64,
    observed_batches: u64,
    observed_us_sum: f64,
}

impl PathState {
    fn new(descriptor: PathDescriptor) -> Self {
        PathState {
            descriptor,
            cost: PathCost { fixed_us: 0.0, per_item_us: 0.0, single_us: 0.0 },
            calibrated: false,
            ewma_us: 0.0,
            score_us: 0.0,
            idle: 0,
            transient: false,
            refresh: false,
            recent: [0.0; 3],
            recent_len: 0,
            recent_pos: 0,
            dispatches: 0,
            items: 0,
            predicted_us_sum: 0.0,
            observed_batches: 0,
            observed_us_sum: 0.0,
        }
    }

    /// Pushes a per-item observation and returns the window's robust
    /// estimate: the median once three samples exist, otherwise the
    /// minimum (latency noise is one-sided — preemption inflates a
    /// sample, nothing deflates one).
    fn note_recent(&mut self, per_item: f64) -> f64 {
        self.recent[self.recent_pos] = per_item;
        self.recent_pos = (self.recent_pos + 1) % self.recent.len();
        self.recent_len = (self.recent_len + 1).min(self.recent.len());
        if self.recent_len == self.recent.len() {
            let [a, b, c] = self.recent;
            // Median of three: smallest of the pairwise maxima.
            a.max(b).min(a.max(c)).min(b.max(c))
        } else {
            self.recent[..self.recent_len].iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Forgets the observation window (stale history must not vote).
    fn clear_recent(&mut self) {
        self.recent_len = 0;
        self.recent_pos = 0;
    }
}

/// Per-path routing statistics, exported by [`PathCostModel::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouterPathStats {
    /// Which path this row describes.
    pub descriptor: PathDescriptor,
    /// Calibrated linear cost.
    pub cost: PathCost,
    /// EWMA-smoothed observed per-item latency, if any feedback arrived.
    pub ewma_us: Option<f64>,
    /// Batches routed to this path.
    pub dispatches: u64,
    /// Items routed to this path.
    pub items: u64,
    /// Mean predicted batch latency at dispatch time, µs.
    pub mean_predicted_us: f64,
    /// Mean observed batch latency, µs.
    pub mean_observed_us: f64,
}

/// Aggregate router statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterSnapshot {
    /// One row per registered path, in registration order.
    pub paths: Vec<RouterPathStats>,
    /// Times the SLO guard engaged and took the lowest-latency path.
    pub slo_fallbacks: u64,
    /// Staleness re-probe dispatches.
    pub probes: u64,
    /// Live traffic-cacheability estimate (None until the sketch warms).
    pub traffic_hit_rate: Option<f64>,
}

/// The per-batch cost model: calibrated linear costs per path, EWMA
/// feedback from observed latency, a traffic-cacheability sketch, and
/// the SLO guard. Shared across workers behind a mutex; all hot methods
/// are allocation-free.
#[derive(Debug)]
pub struct PathCostModel {
    paths: Vec<PathState>,
    sketch: TrafficSketch,
    slo_fallbacks: u64,
    probes: u64,
    since_probe: u64,
    /// Incumbent path of the last regular (non-probe, non-fallback)
    /// dispatch, protected by [`HYSTERESIS_MARGIN`].
    last_choice: Option<usize>,
    /// A probe fired last batch: the next batch re-dispatches the same
    /// path warm, and that observation is the one recorded.
    pending_probe: Option<usize>,
    /// Cold/warm regime of the previous routing decision, to detect
    /// traffic-regime flips.
    was_cold: bool,
}

impl PathCostModel {
    /// A model over `descriptors`, costs unseeded (see
    /// [`PathCostModel::seed_cost`]).
    #[must_use]
    pub fn new(descriptors: Vec<PathDescriptor>) -> Self {
        PathCostModel {
            paths: descriptors.into_iter().map(PathState::new).collect(),
            sketch: TrafficSketch::new(),
            slo_fallbacks: 0,
            probes: 0,
            since_probe: PROBE_SPACING,
            last_choice: None,
            pending_probe: None,
            was_cold: false,
        }
    }

    /// Number of registered paths.
    #[must_use]
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Descriptor of path `i`, if registered.
    #[must_use]
    pub fn descriptor(&self, i: usize) -> Option<PathDescriptor> {
        self.paths.get(i).map(|p| p.descriptor)
    }

    /// Installs the startup-calibrated cost of path `i`.
    pub fn seed_cost(&mut self, i: usize, cost: PathCost) {
        if let Some(p) = self.paths.get_mut(i) {
            p.cost = cost;
            p.calibrated = true;
        }
    }

    /// Re-seeds the model after an online arena re-shard: every path's
    /// observed history (EWMA, median window, probe bookkeeping) belongs
    /// to the *old* layout generation and must not vote on the new one.
    /// Calibrated cost lines are kept — the datapath shape is unchanged,
    /// only the embedding channel layout moved — so the first post-swap
    /// batches route on calibration until fresh feedback accumulates,
    /// exactly like startup.
    pub fn reseed_after_swap(&mut self) {
        for p in &mut self.paths {
            p.ewma_us = 0.0;
            p.clear_recent();
            p.transient = false;
            p.refresh = false;
            // Startup state, not probe-eligible: an immediate probe would
            // send the first post-swap batch to a non-winner. Paths earn
            // probe eligibility again after REPROBE_IDLE dispatches.
            p.idle = 0;
        }
        self.last_choice = None;
        self.pending_probe = None;
        self.since_probe = PROBE_SPACING;
    }

    /// True once every registered path has a calibrated cost.
    #[must_use]
    pub fn is_seeded(&self) -> bool {
        !self.paths.is_empty() && self.paths.iter().all(|p| p.calibrated)
    }

    /// Folds a formed batch's queries into the traffic sketch.
    pub fn note_traffic(&mut self, queries: &[Vec<u64>]) {
        self.sketch.note(queries);
    }

    /// Live traffic-cacheability estimate, once the sketch warms.
    #[must_use]
    pub fn traffic_hit_rate(&self) -> Option<f64> {
        self.sketch.hit_rate()
    }

    /// Scores every path for a batch of `items` and picks one.
    ///
    /// `items` is whatever the work-conserving close handed the worker:
    /// one or two requests when workers are idle, up to `max_batch` when
    /// all are busy — both ends of the calibrated line are live inputs.
    /// `remaining_us` is the batch's remaining SLO budget (None = no
    /// objective), the objective minus the oldest request's queue age:
    /// when the throughput winner's predicted cost exceeds it, the guard
    /// falls back to the measured lowest-latency path.
    /// Under `overload` the router degrades conservatively: no probe
    /// dispatches, and a stricter warmth floor routes around cache
    /// paths that would miss.
    pub fn route(
        &mut self,
        items: usize,
        remaining_us: Option<f64>,
        overload: bool,
    ) -> RouteDecision {
        let n = items.max(1) as f64;
        let hit = self.sketch.hit_rate();
        let floor = if overload { OVERLOAD_HIT_FLOOR } else { COLD_HIT_FLOOR };
        let cold = hit.is_some_and(|rate| rate < floor);
        if cold != self.was_cold {
            // Traffic regime flipped (warm↔cold): every cache-fronted
            // path's observed history belongs to the old regime. Drop it
            // so scoring falls back to the calibrated line (plus the
            // cold penalty) instead of chasing a stale EWMA.
            self.was_cold = cold;
            for p in &mut self.paths {
                if p.descriptor.cached {
                    p.ewma_us = 0.0;
                    p.clear_recent();
                }
            }
        }
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, p) in self.paths.iter_mut().enumerate() {
            // Once feedback arrives the EWMA per-item rate replaces the
            // calibrated line. It amortizes the fixed cost at the batch
            // sizes recently served, which follow the load (≈1 idle,
            // `max_batch` saturated), so it is a rate for the current
            // load, not for a fixed batch size.
            let mut score = if p.ewma_us > 0.0 {
                n * p.ewma_us
            } else {
                p.cost.fixed_us + n * p.cost.per_item_us
            };
            if p.descriptor.cached && cold {
                score *= COLD_PENALTY;
            }
            p.score_us = score;
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        // Switching hysteresis: the incumbent keeps the batch unless the
        // challenger is decisively cheaper.
        if let Some(prev) = self.last_choice {
            if prev != best
                && self
                    .paths
                    .get(prev)
                    .is_some_and(|p| best_score >= p.score_us * HYSTERESIS_MARGIN)
            {
                best = prev;
                best_score = self.paths.get(prev).map_or(best_score, |p| p.score_us);
            }
        }
        let mut choice = best;
        let mut probe = false;
        let mut probe_follow = false;
        // Probe follow-up: the previous batch ran this path cold (and
        // the observation was discarded); run it once more warm so the
        // recorded measurement is its steady-state cost.
        if let Some(i) = self.pending_probe.take() {
            if !overload && i < self.paths.len() {
                choice = i;
                probe = true;
                probe_follow = true;
                self.probes += 1;
            }
        }
        // Staleness re-probe: give a near-winner path a real batch now
        // and then, so EWMA feedback can correct calibration drift.
        if !probe && !overload && self.since_probe >= PROBE_SPACING {
            let mut stalest: Option<usize> = None;
            for (i, p) in self.paths.iter().enumerate() {
                // A path with no live feedback is scored off its startup
                // calibration — cold, small-batch, untrusted. It cannot
                // be banned by its own untrusted score: probe it once,
                // and let the measured EWMA decide from then on.
                let unseeded = p.ewma_us <= 0.0;
                if i == best
                    || p.idle < REPROBE_IDLE
                    || (!unseeded && p.score_us > best_score * PROBE_BAND)
                {
                    continue;
                }
                let stale_now = self.paths.get(i).map_or(0, |s| s.idle);
                if stalest.is_none_or(|j| self.paths.get(j).map_or(0, |s| s.idle) < stale_now) {
                    stalest = Some(i);
                }
            }
            if let Some(i) = stalest {
                choice = i;
                probe = true;
                self.probes += 1;
                self.since_probe = 0;
                self.pending_probe = Some(i);
            }
        }
        let mut slo_fallback = false;
        if let Some(remaining) = remaining_us {
            let chosen_score = self.paths.get(choice).map_or(0.0, |p| p.score_us);
            if chosen_score > remaining {
                // Objective at risk: take the measured lowest-latency
                // path (calibrated single-item latency, cold-adjusted),
                // not the highest-throughput one.
                let mut low = choice;
                let mut low_lat = f64::INFINITY;
                for (i, p) in self.paths.iter().enumerate() {
                    let mut lat = p.cost.single_us;
                    if p.descriptor.cached && cold {
                        lat *= COLD_PENALTY;
                    }
                    if lat < low_lat {
                        low_lat = lat;
                        low = i;
                    }
                }
                choice = low;
                probe = false;
                probe_follow = false;
                self.pending_probe = None;
                slo_fallback = true;
                self.slo_fallbacks += 1;
            }
        }
        if !probe {
            self.since_probe = self.since_probe.saturating_add(1);
        }
        let switched = !probe && !slo_fallback && self.last_choice != Some(choice);
        if !probe && !slo_fallback {
            self.last_choice = Some(choice);
        }
        let mut predicted = 0.0;
        for (i, p) in self.paths.iter_mut().enumerate() {
            if i == choice {
                if switched || (probe && !probe_follow) {
                    // A switch or the cold half of a probe pair: discard
                    // the next observation, it measures the transition.
                    p.transient = true;
                }
                if p.idle >= REPROBE_IDLE {
                    p.refresh = true;
                }
                p.idle = 0;
                p.dispatches += 1;
                p.items += items as u64;
                p.predicted_us_sum += p.score_us;
                predicted = p.score_us;
            } else {
                p.idle = p.idle.saturating_add(1);
            }
        }
        RouteDecision { path: choice, predicted_us: predicted, slo_fallback, probe }
    }

    /// Feeds an observed batch latency back into the chosen path's EWMA.
    pub fn observe(&mut self, decision: &RouteDecision, items: usize, observed_us: f64) {
        if let Some(p) = self.paths.get_mut(decision.path) {
            p.observed_batches += 1;
            p.observed_us_sum += observed_us;
            if p.transient {
                // First batch after a switch: cold-start cost, not path
                // cost. Keep `refresh` armed for the next observation.
                p.transient = false;
                return;
            }
            let per_item = observed_us / items.max(1) as f64;
            let alpha = if p.refresh {
                // Fresh evidence after idleness: the old window is
                // stale history and must not outvote the new sample.
                p.clear_recent();
                REFRESH_ALPHA
            } else {
                EWMA_ALPHA
            };
            p.refresh = false;
            let value = p.note_recent(per_item);
            p.ewma_us =
                if p.ewma_us > 0.0 { alpha * value + (1.0 - alpha) * p.ewma_us } else { value };
        }
    }

    /// Point-in-time statistics for reporting.
    #[must_use]
    pub fn snapshot(&self) -> RouterSnapshot {
        RouterSnapshot {
            paths: self
                .paths
                .iter()
                .map(|p| RouterPathStats {
                    descriptor: p.descriptor,
                    cost: p.cost,
                    ewma_us: (p.ewma_us > 0.0).then_some(p.ewma_us),
                    dispatches: p.dispatches,
                    items: p.items,
                    mean_predicted_us: if p.dispatches > 0 {
                        p.predicted_us_sum / p.dispatches as f64
                    } else {
                        0.0
                    },
                    mean_observed_us: if p.observed_batches > 0 {
                        p.observed_us_sum / p.observed_batches as f64
                    } else {
                        0.0
                    },
                })
                .collect(),
            slo_fallbacks: self.slo_fallbacks,
            probes: self.probes,
            traffic_hit_rate: self.sketch.hit_rate(),
        }
    }
}

/// Deterministic calibration query set: valid ids for every table slot,
/// spread by a fixed LCG so lookups stride across rows (and the hot-row
/// cache sees a realistic mix).
fn calibration_queries(spec: &ModelSpec, count: usize) -> Vec<Vec<u64>> {
    let arity = spec.lookups_per_item() as usize;
    let per_table = spec.lookups_per_table.max(1) as usize;
    (0..count as u64)
        .map(|k| {
            (0..arity as u64)
                .map(|j| {
                    let rows =
                        spec.tables[(j as usize / per_table).min(spec.tables.len() - 1)].rows;
                    (k.wrapping_mul(7919).wrapping_add(j.wrapping_mul(104_729))) % rows.max(1)
                })
                .collect()
        })
        .collect()
}

/// The single dispatch seam over every engine variant: anything that can
/// answer a query (and a batch of queries) can be a routable path.
pub trait ExecutionPath: Send {
    /// Predicts the CTR for one query.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the query is malformed or the
    /// underlying engine fails.
    fn predict(&mut self, query: &[u64]) -> Result<f32, MicroRecError>;

    /// Predicts CTRs for a batch of queries, order-preserving.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if any query is malformed or the
    /// underlying engine fails.
    fn predict_batch(&mut self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError>;
}

impl ExecutionPath for MicroRec {
    fn predict(&mut self, query: &[u64]) -> Result<f32, MicroRecError> {
        MicroRec::predict(self, query)
    }

    fn predict_batch(&mut self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError> {
        MicroRec::predict_batch(self, queries)
    }
}

impl ExecutionPath for EnginePool {
    fn predict(&mut self, query: &[u64]) -> Result<f32, MicroRecError> {
        EnginePool::predict(self, query)
    }

    fn predict_batch(&mut self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError> {
        // lint: allow(transitive-hot-path-alloc) replica fan-out owns one result vec per worker thread per batch
        EnginePool::predict_batch(self, queries)
    }
}

impl ExecutionPath for PipelineExecutor {
    fn predict(&mut self, query: &[u64]) -> Result<f32, MicroRecError> {
        PipelineExecutor::predict(self, query)
    }

    fn predict_batch(&mut self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError> {
        PipelineExecutor::predict_batch(self, queries)
    }
}

/// Owned engine behind one path. The enum (rather than a boxed trait
/// object) keeps shutdown explicit: the staged executor must join its
/// stage threads by value.
enum PathEngine {
    Mono(Box<MicroRec>),
    Pool(EnginePool),
    Staged(PipelineExecutor),
}

impl PathEngine {
    fn as_path(&mut self) -> &mut dyn ExecutionPath {
        match self {
            PathEngine::Mono(e) => &mut **e,
            PathEngine::Pool(e) => e,
            PathEngine::Staged(e) => e,
        }
    }
}

/// A built path matrix plus its (shareable) cost model: the unit one
/// serving worker routes over.
pub struct PathSet {
    engines: Vec<PathEngine>,
    model: Arc<Mutex<PathCostModel>>,
    pipeline_shared: Vec<Arc<PipelineShared>>,
}

impl std::fmt::Debug for PathSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathSet").field("paths", &self.engines.len()).finish_non_exhaustive()
    }
}

impl PathSet {
    /// Builds the standard path matrix for `builder`'s configuration and
    /// calibrates a fresh cost model (see [`PathSet::build_shared`] to
    /// reuse a seeded model across workers).
    ///
    /// The matrix: the monolithic engine as configured; a cache-off
    /// monolithic twin when a hot-row cache is configured (the uniform-
    /// traffic escape path); a per-layer staged pipeline; and a two-
    /// replica cache-off [`EnginePool`]. A tiered builder
    /// registers its monolithic paths as `"tiered"`/`"tiered-nocache"`
    /// (every path shares one tiered backing), so the cost model learns
    /// the tiered store's real cost rather than an all-resident estimate.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if any engine fails to build or the
    /// calibration probes fail.
    pub fn build(builder: &MicroRecBuilder, max_batch: usize) -> Result<Self, MicroRecError> {
        Self::assemble(builder, max_batch, None)
    }

    /// Builds the same path matrix but shares `model` (from an earlier
    /// [`PathSet::build`] on an identically-configured builder), skipping
    /// re-calibration when the model is already seeded.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if engine construction fails or `model`
    /// was built over a different path matrix.
    pub fn build_shared(
        builder: &MicroRecBuilder,
        max_batch: usize,
        model: Arc<Mutex<PathCostModel>>,
    ) -> Result<Self, MicroRecError> {
        Self::assemble(builder, max_batch, Some(model))
    }

    fn assemble(
        builder: &MicroRecBuilder,
        max_batch: usize,
        shared: Option<Arc<Mutex<PathCostModel>>>,
    ) -> Result<Self, MicroRecError> {
        let mut base = builder.clone();
        base.prepare_shared_arena()?;
        let spec = base.model_spec().clone();
        let arity = spec.lookups_per_item() as usize;
        let cached = base.cache_rows() > 0;
        let tiered = base.is_tiered();
        let format = base.arena_row_format().map_or("legacy", RowFormat::as_str);

        let warm = |b: MicroRecBuilder| -> Result<MicroRec, MicroRecError> {
            let mut engine = b.build()?;
            engine.predict(&vec![0u64; arity])?;
            engine.reset_stats();
            Ok(engine)
        };

        let mut descriptors = Vec::new();
        let mut engines = Vec::new();
        let mut pipeline_shared = Vec::new();

        // Tiered builders register their engines under tiered path names:
        // the cost model then learns the tiered store's real cost (cold
        // reads included) instead of inheriting an all-resident estimate.
        // Every path in the matrix shares the same tiered backing (it was
        // prepared above), so the names track the whole matrix's storage.
        descriptors.push(PathDescriptor {
            name: match (tiered, cached) {
                (true, true) => "tiered",
                (true, false) => "tiered-nocache",
                (false, true) => "monolithic",
                (false, false) => "monolithic-nocache",
            },
            kind: PathKind::Monolithic,
            format,
            cached,
        });
        engines.push(PathEngine::Mono(Box::new(warm(base.clone())?)));

        if cached {
            descriptors.push(PathDescriptor {
                name: if tiered { "tiered-nocache" } else { "monolithic-nocache" },
                kind: PathKind::Monolithic,
                format,
                cached: false,
            });
            engines.push(PathEngine::Mono(Box::new(warm(base.clone().hot_row_cache(0))?)));
        }

        let plan = PipelinePlan::per_layer(spec.hidden.len() + 1, 4);
        let staged = PipelineExecutor::with_plan(vec![warm(base.clone())?], &plan)?;
        pipeline_shared.push(Arc::clone(staged.shared()));
        descriptors.push(PathDescriptor {
            name: "pipelined",
            kind: PathKind::Pipelined,
            format,
            cached,
        });
        engines.push(PathEngine::Staged(staged));

        descriptors.push(PathDescriptor {
            name: "pool",
            kind: PathKind::Pool,
            format,
            cached: false,
        });
        engines.push(PathEngine::Pool(EnginePool::from_builder(base.clone().hot_row_cache(0), 2)?));

        let model = match shared {
            Some(model) => {
                {
                    let guard = lock_or_recover(&model);
                    if guard.num_paths() != descriptors.len() {
                        return Err(MicroRecError::Runtime(format!(
                            "shared cost model covers {} paths, this builder produces {}",
                            guard.num_paths(),
                            descriptors.len()
                        )));
                    }
                }
                model
            }
            None => Arc::new(Mutex::new(PathCostModel::new(descriptors))),
        };

        let mut set = PathSet { engines, model, pipeline_shared };
        if !lock_or_recover(&set.model).is_seeded() {
            set.calibrate(&spec, max_batch)?;
        }
        Ok(set)
    }

    /// Measures each path at batch 1 and batch `min(max_batch, 32)` on a
    /// deterministic query stream and seeds the cost model.
    fn calibrate(&mut self, spec: &ModelSpec, max_batch: usize) -> Result<(), MicroRecError> {
        let batch = max_batch.clamp(2, 32);
        let queries = calibration_queries(spec, batch * 3);
        let model = &self.model;
        for (i, engine) in self.engines.iter_mut().enumerate() {
            let path = engine.as_path();
            // Warm: touch the datapath (and any cache) once.
            path.predict_batch(&queries[..batch])?;
            let start = Instant::now();
            for q in queries.iter().take(CALIBRATION_SINGLES) {
                path.predict(q)?;
            }
            let single_us = start.elapsed().as_secs_f64() * 1e6 / CALIBRATION_SINGLES as f64;
            let start = Instant::now();
            path.predict_batch(&queries[batch..2 * batch])?;
            path.predict_batch(&queries[2 * batch..3 * batch])?;
            let batch_us = start.elapsed().as_secs_f64() * 1e6 / 2.0;
            lock_or_recover(model).seed_cost(i, PathCost::fit(single_us, batch_us, batch));
        }
        Ok(())
    }

    /// Number of routable paths.
    #[must_use]
    pub fn num_paths(&self) -> usize {
        self.engines.len()
    }

    /// Descriptor of path `i`.
    #[must_use]
    pub fn descriptor(&self, i: usize) -> Option<PathDescriptor> {
        lock_or_recover(&self.model).descriptor(i)
    }

    /// The shared cost model (for reuse via [`PathSet::build_shared`]).
    #[must_use]
    pub fn model(&self) -> Arc<Mutex<PathCostModel>> {
        Arc::clone(&self.model)
    }

    /// Stage counters of the staged paths in this set.
    pub(crate) fn pipeline_shared(&self) -> &[Arc<PipelineShared>] {
        &self.pipeline_shared
    }

    /// Folds the batch into the traffic sketch and picks a path (see
    /// [`PathCostModel::route`] for `remaining_us`/`overload` semantics).
    pub fn route(
        &mut self,
        queries: &[Vec<u64>],
        remaining_us: Option<f64>,
        overload: bool,
    ) -> RouteDecision {
        let mut model = lock_or_recover(&self.model);
        model.note_traffic(queries);
        model.route(queries.len(), remaining_us, overload)
    }

    /// Runs a batch on path `path`.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError::Runtime`] for an unknown path index, or
    /// the underlying engine's error.
    pub fn predict_batch_on(
        &mut self,
        path: usize,
        queries: &[Vec<u64>],
    ) -> Result<Vec<f32>, MicroRecError> {
        match self.engines.get_mut(path) {
            Some(engine) => engine.as_path().predict_batch(queries),
            // lint: allow(transitive-hot-path-alloc) cold arm: an unknown path index is a routing bug, not steady state
            None => Err(MicroRecError::Runtime(format!("unknown path index {path}"))),
        }
    }

    /// Runs one query on path `path` (per-item fallback path).
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError::Runtime`] for an unknown path index, or
    /// the underlying engine's error.
    pub fn predict_on(&mut self, path: usize, query: &[u64]) -> Result<f32, MicroRecError> {
        match self.engines.get_mut(path) {
            Some(engine) => engine.as_path().predict(query),
            // lint: allow(transitive-hot-path-alloc) cold arm: an unknown path index is a routing bug, not steady state
            None => Err(MicroRecError::Runtime(format!("unknown path index {path}"))),
        }
    }

    /// Feeds an observed batch latency back into the cost model.
    pub fn observe(&self, decision: &RouteDecision, items: usize, observed_us: f64) {
        lock_or_recover(&self.model).observe(decision, items, observed_us);
    }

    /// Point-in-time router statistics.
    #[must_use]
    pub fn snapshot(&self) -> RouterSnapshot {
        lock_or_recover(&self.model).snapshot()
    }

    /// Joins the staged paths' stage threads and drops every engine.
    pub fn shutdown(self) {
        for engine in self.engines {
            if let PathEngine::Staged(executor) = engine {
                drop(executor.shutdown_all());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor(name: &'static str, kind: PathKind, cached: bool) -> PathDescriptor {
        PathDescriptor { name, kind, format: "f16", cached }
    }

    fn seeded_two_path() -> PathCostModel {
        let mut model = PathCostModel::new(vec![
            descriptor("pipelined", PathKind::Pipelined, false),
            descriptor("monolithic", PathKind::Monolithic, false),
        ]);
        // Pipelined: high fixed fill cost, cheap marginal items — the
        // throughput winner at batch 32, latency loser at batch 1.
        model.seed_cost(0, PathCost { fixed_us: 400.0, per_item_us: 10.0, single_us: 410.0 });
        model.seed_cost(1, PathCost { fixed_us: 0.0, per_item_us: 50.0, single_us: 50.0 });
        model
    }

    #[test]
    fn routes_to_the_predicted_fastest_path() {
        let mut model = seeded_two_path();
        // Batch 32: 400 + 320 = 720 beats 1600.
        assert_eq!(model.route(32, None, false).path, 0);
        // Batch 2: 420 loses to 100.
        assert_eq!(model.route(2, None, false).path, 1);
    }

    #[test]
    fn one_and_two_item_batches_are_scored_on_the_calibrated_line() {
        // An idle worker is handed batches of one or two, so the fixed
        // term decides: 30 + 10n against 35n crosses between n = 1 and 2.
        let mut model = PathCostModel::new(vec![
            descriptor("staged", PathKind::Pipelined, false),
            descriptor("monolithic", PathKind::Monolithic, false),
        ]);
        let staged = PathCost::fit(40.0, 30.0 + 32.0 * 10.0, 32);
        let mono = PathCost::fit(35.0, 32.0 * 35.0, 32);
        model.seed_cost(0, staged);
        model.seed_cost(1, mono);
        let one = model.route(1, None, false);
        assert_eq!((one.path, one.predicted_us), (1, mono.fixed_us + mono.per_item_us));
        // Hysteresis keeps an incumbent only within 5%; 50 vs 70 is not.
        let two = model.route(2, None, false);
        assert_eq!((two.path, two.predicted_us), (0, staged.fixed_us + 2.0 * staged.per_item_us));
        assert!((one.predicted_us - 35.0).abs() < 1e-9 && (two.predicted_us - 50.0).abs() < 1e-9);
    }

    #[test]
    fn slo_guard_falls_back_to_the_lowest_latency_path() {
        let mut model = seeded_two_path();
        let relaxed = model.route(32, Some(10_000.0), false);
        assert_eq!(relaxed.path, 0);
        assert!(!relaxed.slo_fallback);
        // 500 µs remaining < the winner's predicted 720 µs: take the
        // measured lowest single-item-latency path instead.
        let tight = model.route(32, Some(500.0), false);
        assert_eq!(tight.path, 1);
        assert!(tight.slo_fallback);
        assert_eq!(model.snapshot().slo_fallbacks, 1);
    }

    #[test]
    fn ewma_feedback_overrides_a_stale_calibration() {
        let mut model = seeded_two_path();
        let decision = model.route(32, None, false);
        assert_eq!(decision.path, 0);
        // The pipelined path turns out far worse than calibrated:
        // 3200 µs per 32-item batch = 100 µs/item vs the 50 of path 1.
        for _ in 0..8 {
            model.observe(&decision, 32, 3200.0);
        }
        assert_eq!(model.route(32, None, false).path, 1);
    }

    #[test]
    fn reseed_after_swap_drops_observed_history_but_keeps_calibration() {
        let mut model = seeded_two_path();
        let decision = model.route(32, None, false);
        assert_eq!(decision.path, 0);
        // Pre-swap feedback poisons the pipelined path's estimate far
        // above its calibrated line (old-layout measurements).
        for _ in 0..8 {
            model.observe(&decision, 32, 3200.0);
        }
        assert_eq!(model.route(32, None, false).path, 1, "EWMA overrode calibration");
        model.reseed_after_swap();
        let snap = model.snapshot();
        assert!(snap.paths.iter().all(|p| p.ewma_us.is_none()), "observed history cleared");
        assert!(model.is_seeded(), "calibrated cost lines survive the swap");
        // Routing falls back to the calibrated lines: the pipelined path
        // wins batch 32 again, exactly like startup.
        assert_eq!(model.route(32, None, false).path, 0);
    }

    #[test]
    fn cold_traffic_routes_around_the_cache_path() {
        let mut model = PathCostModel::new(vec![
            descriptor("monolithic", PathKind::Monolithic, true),
            descriptor("monolithic-nocache", PathKind::Monolithic, false),
        ]);
        // Cache path slightly cheaper per calibration (warm stream).
        model.seed_cost(0, PathCost { fixed_us: 0.0, per_item_us: 40.0, single_us: 40.0 });
        model.seed_cost(1, PathCost { fixed_us: 0.0, per_item_us: 50.0, single_us: 50.0 });
        assert_eq!(model.route(16, None, false).path, 0);
        // Uniform traffic: every (slot, id) key distinct → sketch rate ~0.
        let uniform: Vec<Vec<u64>> =
            (0..64u64).map(|i| (0..32u64).map(|j| i * 1000 + j * 31).collect()).collect();
        for chunk in uniform.chunks(8) {
            model.note_traffic(chunk);
        }
        assert!(model.traffic_hit_rate().is_some_and(|r| r < 0.10));
        assert_eq!(model.route(16, None, false).path, 1);
        // Skewed traffic (one hot query repeated) warms the sketch back up.
        let hot: Vec<Vec<u64>> = (0..64).map(|_| vec![7u64; 32]).collect();
        for chunk in hot.chunks(8) {
            model.note_traffic(chunk);
        }
        assert!(model.traffic_hit_rate().is_some_and(|r| r > 0.5));
        assert_eq!(model.route(16, None, false).path, 0);
    }

    #[test]
    fn calibration_queries_are_valid_and_deterministic() {
        let spec = ModelSpec::dlrm_rmc2(4, 4);
        let a = calibration_queries(&spec, 16);
        let b = calibration_queries(&spec, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for q in &a {
            assert_eq!(q.len(), spec.lookups_per_item() as usize);
        }
        let distinct: std::collections::HashSet<&Vec<u64>> = a.iter().collect();
        assert!(distinct.len() > 1, "queries must not all collide");
    }

    #[test]
    fn cost_fit_recovers_fixed_and_marginal_terms() {
        let cost = PathCost::fit(410.0, 400.0 + 32.0 * 10.0, 32);
        assert!((cost.per_item_us - 10.0).abs() < 1.0, "{cost:?}");
        assert!((cost.fixed_us - 400.0).abs() < 11.0, "{cost:?}");
        assert!((cost.batch_us(10) - 500.0).abs() < 15.0, "{cost:?}");
    }

    #[test]
    fn hysteresis_keeps_the_incumbent_across_noise_but_not_regressions() {
        let mut model = PathCostModel::new(vec![
            descriptor("a", PathKind::Monolithic, false),
            descriptor("b", PathKind::Pool, false),
        ]);
        model.seed_cost(0, PathCost { fixed_us: 0.0, per_item_us: 10.0, single_us: 10.0 });
        model.seed_cost(1, PathCost { fixed_us: 0.0, per_item_us: 10.4, single_us: 10.4 });
        let d = model.route(16, None, false);
        assert_eq!(d.path, 0);
        // Noise nudges the incumbent 2% past the challenger: within the
        // hysteresis band, the incumbent keeps the traffic.
        for _ in 0..16 {
            model.observe(&d, 16, 16.0 * 10.6);
        }
        assert_eq!(model.route(16, None, false).path, 0);
        // A real regression (2x) is decisive and displaces it.
        for _ in 0..16 {
            model.observe(&d, 16, 16.0 * 20.0);
        }
        assert_eq!(model.route(16, None, false).path, 1);
    }

    #[test]
    fn an_isolated_latency_outlier_never_moves_the_estimate() {
        let mut model = PathCostModel::new(vec![
            descriptor("a", PathKind::Monolithic, false),
            descriptor("b", PathKind::Pool, false),
        ]);
        model.seed_cost(0, PathCost { fixed_us: 0.0, per_item_us: 10.0, single_us: 10.0 });
        model.seed_cost(1, PathCost { fixed_us: 0.0, per_item_us: 11.0, single_us: 11.0 });
        let d = model.route(16, None, false);
        assert_eq!(d.path, 0);
        for _ in 0..8 {
            model.observe(&d, 16, 16.0 * 10.0);
        }
        // One scheduler-preempted batch at 5x the true cost: the
        // median-of-3 window rejects it, the estimate holds, and the
        // router must not flee to the slower path.
        model.observe(&d, 16, 16.0 * 50.0);
        let next = model.route(16, None, false);
        assert_eq!(next.path, 0, "a single outlier made the router flee its best path");
        let ewma = model.snapshot().paths[0].ewma_us.expect("feedback recorded");
        assert!((ewma - 10.0).abs() < 0.5, "outlier leaked into the EWMA: {ewma}");
    }

    #[test]
    fn probe_redispatches_a_stale_near_winner() {
        let mut model = PathCostModel::new(vec![
            descriptor("a", PathKind::Monolithic, false),
            descriptor("b", PathKind::Pool, false),
        ]);
        model.seed_cost(0, PathCost { fixed_us: 0.0, per_item_us: 10.0, single_us: 10.0 });
        model.seed_cost(1, PathCost { fixed_us: 0.0, per_item_us: 12.0, single_us: 12.0 });
        let mut probed = 0;
        for _ in 0..(REPROBE_IDLE + PROBE_SPACING + 4) {
            let d = model.route(16, None, false);
            if d.probe {
                probed += 1;
                assert_eq!(d.path, 1);
            } else {
                assert_eq!(d.path, 0);
            }
        }
        assert!(probed >= 1, "stale near-winner was never re-probed");
        // Under overload, probing is disabled entirely.
        let mut model = seeded_two_path();
        for _ in 0..(REPROBE_IDLE + PROBE_SPACING + 4) {
            assert!(!model.route(32, None, true).probe);
        }
    }
}
