//! Serving-frontier benchmark: drives the live micro-batching runtime
//! ([`ServingRuntime`]) with paced Poisson arrivals and sweeps offered
//! load × worker count, emitting one JSON record per point
//! (committed as `BENCH_serving.json`).
//!
//! Each point replays a seeded trace in real time, so offered load is a
//! wall-clock fact, not a simulation input. Before the sweep the bin
//! measures the sequential single-`predict` capacity of one engine
//! (matching `BENCH_throughput.json`'s `seq_qps`) and checks that a
//! runtime-served batch is bit-identical to sequential prediction.
//!
//! Run with `cargo run --release -p microrec-bench --bin serving`
//! (`-- --smoke` for the time-bounded CI variant).

use std::time::{Duration, Instant};

use microrec_core::{
    AdmissionPolicy, MicroRec, MicroRecBuilder, MigrationRecord, PathKind, PathSet, ReplayOutcome,
    ReshardingPolicy, RuntimeConfig, RuntimeLookupStats, ServingFrontierRecord, ServingRuntime,
};
use microrec_embedding::{ModelSpec, RowFormat, TableSpec};
use microrec_json::{Json, ToJson};
use microrec_memsim::MemoryConfig;
use microrec_placement::HeuristicOptions;
use microrec_workload::{PoissonArrivals, QueryGenConfig, QueryGenerator, RequestTrace};

/// Full-sweep requests per load point.
const FULL_POINT_REQUESTS: usize = 2_000;
/// Smoke-mode requests per load point (a few thousand total).
const SMOKE_POINT_REQUESTS: usize = 800;
/// Queries for the bit-identity check.
const IDENTITY_QUERIES: usize = 96;
/// Hot-row cache capacity in rows, shared config across every engine in
/// this bin. At dim 16 this is a 4 MiB hot tier over the model's 4 M rows;
/// Zipf(1.05) traffic concentrates most lookups on it.
const CACHE_ROWS: usize = 65_536;

/// The one engine configuration every path in this bin uses — sequential
/// baseline and runtime workers alike run f16 arena rows behind the
/// hot-row cache, so the bit-identity check compares like with like.
fn builder(model: &ModelSpec) -> MicroRecBuilder {
    MicroRec::builder(model.clone())
        .seed(42)
        .embedding_arena(RowFormat::F16)
        .hot_row_cache(CACHE_ROWS)
}

fn build(model: &ModelSpec) -> MicroRec {
    builder(model).build().expect("engine")
}

/// Sequential single-predict capacity, measured fresh on this machine so
/// the offered-load multipliers track the hardware the sweep runs on.
fn measure_seq_qps(model: &ModelSpec) -> f64 {
    let mut engine = build(model);
    let trace = RequestTrace::generate(model, 1_000.0, 256, QueryGenConfig::default())
        .expect("seq-capacity trace");
    for q in trace.queries().iter().take(32) {
        engine.predict(q).expect("warmup predict");
    }
    let start = Instant::now();
    for q in trace.queries() {
        engine.predict(q).expect("predict");
    }
    trace.queries().len() as f64 / start.elapsed().as_secs_f64()
}

/// Runtime-served results must be bit-identical to sequential `predict`.
fn check_bit_identity(model: &ModelSpec, config: RuntimeConfig) -> bool {
    let trace =
        RequestTrace::generate(model, 50_000.0, IDENTITY_QUERIES, QueryGenConfig::default())
            .expect("identity trace");
    let mut sequential = build(model);
    let expected: Vec<f32> =
        trace.queries().iter().map(|q| sequential.predict(q).expect("predict")).collect();
    let runtime = ServingRuntime::start(builder(model), config).expect("runtime");
    let pending: Vec<_> =
        trace.queries().iter().map(|q| runtime.submit(q.clone()).expect("submit")).collect();
    pending
        .into_iter()
        .zip(&expected)
        .all(|(p, e)| p.wait().map(|got| got.to_bits() == e.to_bits()).unwrap_or(false))
}

/// One sweep point: fresh runtime, fresh paced replay. Also returns the
/// embedding-lookup counters the workers accumulated over the point.
fn run_point(
    model: &ModelSpec,
    rate: f64,
    n: usize,
    config: RuntimeConfig,
) -> (ReplayOutcome, Option<RuntimeLookupStats>) {
    let trace =
        RequestTrace::generate(model, rate, n, QueryGenConfig::default()).expect("point trace");
    let mut runtime = ServingRuntime::start(builder(model), config).expect("runtime");
    let mut outcome = replay(&runtime, &trace);
    outcome.snapshot = runtime.shutdown();
    let lookup = runtime.lookup_stats();
    (outcome, lookup)
}

fn replay(runtime: &ServingRuntime, trace: &RequestTrace) -> ReplayOutcome {
    microrec_core::replay_trace(runtime, trace)
}

fn config(workers: usize, max_batch: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        max_batch,
        queue_depth: 512,
        admission: AdmissionPolicy::Reject,
        ..RuntimeConfig::default()
    }
}

// ---------------------------------------------------------------------
// Router section: a mixed trace across the path matrix.
// ---------------------------------------------------------------------

/// Items per routed micro-batch.
const ROUTER_BATCH_ITEMS: usize = 16;
/// Items per batch in the tiny-MLP phases. The tiny model answers a
/// 16-item batch in ~30 µs, where the router's fixed per-dispatch cost
/// (two mutex hops, sketch update) is a structural ~10% — the gate
/// would measure bookkeeping, not routing. A tiny model serves at high
/// throughput, so its realistic batches are larger; 64 items amortizes
/// the dispatch cost to ~2%.
const ROUTER_TINY_BATCH_ITEMS: usize = 64;
/// Timed batches per phase (full sweep / smoke).
const ROUTER_PHASE_BATCHES: usize = 96;
const ROUTER_SMOKE_PHASE_BATCHES: usize = 48;
/// Untimed routed batches before each phase's timed section, enough for
/// the traffic sketch (1024-lookup windows), the EWMA, and the incumbent
/// to migrate after a phase change — the timed section measures the
/// router's steady state on homogeneous traffic.
const ROUTER_WARMUP_BATCHES: usize = 48;

/// A tiny-MLP model: stage-hop overhead dominates its [16] hidden layer,
/// so routing it anywhere but monolithic is a predictable mistake.
fn tiny_model() -> ModelSpec {
    ModelSpec::new(
        "tiny-mlp",
        (0..4).map(|i| TableSpec::new(format!("t{i}"), 1_000, 4)).collect(),
        vec![16],
        2,
    )
}

/// One homogeneous phase of the mixed trace.
struct RouterPhase {
    name: &'static str,
    /// Index into the per-model `PathSet` list (0 = default, 1 = tiny).
    set: usize,
    zipf: f64,
    seed: u64,
    /// Items per batch (model-dependent, see [`ROUTER_TINY_BATCH_ITEMS`]).
    items: usize,
}

/// Measured outcome of one phase. Totals are reported; the CI gates
/// compare per-batch medians, which are robust to scheduler-drift
/// outliers that a sum would absorb wholesale.
struct RouterPhaseResult {
    name: &'static str,
    routed_us: f64,
    routed_median_us: f64,
    /// (path name, total µs, per-batch median µs) per static path.
    statics_us: Vec<(&'static str, f64, f64)>,
    /// Timed-section dispatch count per path index.
    dispatches: Vec<u64>,
}

impl RouterPhaseResult {
    fn best_static_median_us(&self) -> f64 {
        self.statics_us.iter().map(|&(_, _, med)| med).fold(f64::INFINITY, f64::min)
    }

    fn worst_static_median_us(&self) -> f64 {
        self.statics_us.iter().map(|&(_, _, med)| med).fold(0.0, f64::max)
    }
}

fn median_us(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn phase_batches(
    spec: &ModelSpec,
    zipf: f64,
    seed: u64,
    batches: usize,
    items: usize,
) -> Vec<Vec<Vec<u64>>> {
    let mut gen = QueryGenerator::new(spec, QueryGenConfig { zipf_exponent: zipf, seed })
        .expect("phase generator");
    (0..batches).map(|_| (0..items).map(|_| gen.next_query()).collect()).collect()
}

/// Batches per interleaved measurement round (per arm).
const ROUTER_ROUND: usize = 8;

/// Replays one phase with the static and routed arms interleaved in
/// rounds over the same wall-clock window, so thermal and scheduler
/// drift hit every arm equally instead of whichever ran last.
fn run_router_phase(
    phase: &RouterPhase,
    set: &mut PathSet,
    spec: &ModelSpec,
    batches: usize,
) -> RouterPhaseResult {
    let trace = phase_batches(spec, phase.zipf, phase.seed, batches, phase.items);

    // Warm every path's caches, then let the router see the phase's
    // traffic: the sketch windows fill, the EWMA unlearns the previous
    // phase, and the incumbent migrates. The timed rounds measure the
    // router's steady state on homogeneous traffic.
    for path in 0..set.num_paths() {
        for batch in trace.iter().take(4) {
            set.predict_batch_on(path, batch).expect("static warmup");
        }
    }
    for batch in trace.iter().cycle().take(ROUTER_WARMUP_BATCHES) {
        set.run_batch(batch, None, false).expect("routed warmup");
    }

    let mut static_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(batches); set.num_paths()];
    let mut routed_samples = Vec::with_capacity(batches);
    let mut static_totals = vec![0.0f64; set.num_paths()];
    let mut routed_us = 0.0f64;
    let mut dispatches = vec![0u64; set.num_paths()];
    for round in trace.chunks(ROUTER_ROUND) {
        for (path, samples) in static_samples.iter_mut().enumerate() {
            let start = Instant::now();
            for batch in round {
                let t = Instant::now();
                set.predict_batch_on(path, batch).expect("static replay");
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
            static_totals[path] += start.elapsed().as_secs_f64() * 1e6;
        }
        let start = Instant::now();
        for batch in round {
            let t = Instant::now();
            let (decision, _) = set.run_batch(batch, None, false).expect("routed replay");
            routed_samples.push(t.elapsed().as_secs_f64() * 1e6);
            dispatches[decision.path] += 1;
        }
        routed_us += start.elapsed().as_secs_f64() * 1e6;
    }

    let statics_us = static_samples
        .iter_mut()
        .enumerate()
        .map(|(path, samples)| {
            let name = set.descriptor(path).expect("descriptor").name;
            (name, static_totals[path], median_us(samples))
        })
        .collect();

    RouterPhaseResult {
        name: phase.name,
        routed_us,
        routed_median_us: median_us(&mut routed_samples),
        statics_us,
        dispatches,
    }
}

/// Fraction of a phase's dispatches that satisfy `pred` on the path
/// descriptor.
fn dispatch_fraction(
    set: &PathSet,
    result: &RouterPhaseResult,
    pred: impl Fn(microrec_core::PathDescriptor) -> bool,
) -> f64 {
    let total: u64 = result.dispatches.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let matching: u64 = result
        .dispatches
        .iter()
        .enumerate()
        .filter(|&(i, _)| set.descriptor(i).is_some_and(&pred))
        .map(|(_, &n)| n)
        .sum();
    matching as f64 / total as f64
}

/// Runs the mixed-trace router section. Returns one JSON object per
/// phase; in smoke mode also CI-gates the routed-vs-static bounds and
/// the counter-case avoidance.
fn run_router_section(smoke: bool) -> Json {
    let batches = if smoke { ROUTER_SMOKE_PHASE_BATCHES } else { ROUTER_PHASE_BATCHES };
    let default_spec = ModelSpec::dlrm_rmc2(8, 16);
    let tiny_spec = tiny_model();
    let specs = [&default_spec, &tiny_spec];
    let mut sets = vec![
        PathSet::build(&builder(&default_spec), ROUTER_BATCH_ITEMS).expect("default path set"),
        // Uncached on purpose: a 1k-row cache over this 4k-row model
        // prices the cached and uncached monolithic paths within ~10%
        // of each other — a near-tie that no router can win reliably
        // and that turns the CI gate into a coin flip. The cache-vs-
        // cold routing dimension belongs to the default set's phases;
        // the tiny set exercises the model-shape dimension.
        PathSet::build(&MicroRec::builder(tiny_spec.clone()).seed(42), ROUTER_TINY_BATCH_ITEMS)
            .expect("tiny path set"),
    ];

    // Alternating model shapes and traffic skews: the router must track
    // each transition instead of settling on one global winner.
    let phases = [
        RouterPhase {
            name: "default-zipf",
            set: 0,
            zipf: 1.05,
            seed: 11,
            items: ROUTER_BATCH_ITEMS,
        },
        RouterPhase {
            name: "tiny-zipf",
            set: 1,
            zipf: 1.05,
            seed: 12,
            items: ROUTER_TINY_BATCH_ITEMS,
        },
        RouterPhase {
            name: "default-uniform",
            set: 0,
            zipf: 0.0,
            seed: 13,
            items: ROUTER_BATCH_ITEMS,
        },
        RouterPhase {
            name: "tiny-uniform",
            set: 1,
            zipf: 0.0,
            seed: 14,
            items: ROUTER_TINY_BATCH_ITEMS,
        },
    ];

    fn run_and_print(
        phase: &RouterPhase,
        sets: &mut [PathSet],
        specs: &[&ModelSpec],
        batches: usize,
    ) -> RouterPhaseResult {
        // Tiny-model batches run in tens of microseconds, so give those
        // phases 4x the batches to keep timer noise inside the CI band.
        let phase_batches = if phase.set == 1 { batches * 4 } else { batches };
        let result = run_router_phase(phase, &mut sets[phase.set], specs[phase.set], phase_batches);
        let mix: Vec<String> = result
            .dispatches
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                format!("{} x{n}", sets[phase.set].descriptor(i).map_or("?", |d| d.name))
            })
            .collect();
        let statics: Vec<String> =
            result.statics_us.iter().map(|&(name, _, med)| format!("{name} {med:.0}")).collect();
        eprintln!(
            "router {:>16}: routed med {:>8.0} us/batch | statics [{}] | {}",
            result.name,
            result.routed_median_us,
            statics.join(", "),
            mix.join(", "),
        );
        result
    }

    let mut results: Vec<(usize, RouterPhaseResult)> = phases
        .iter()
        .map(|phase| (phase.set, run_and_print(phase, &mut sets, &specs, batches)))
        .collect();

    if smoke {
        // This host is shared: a multi-ms preemption burst overlapping a
        // phase's routed rounds inflates its median past any gate a
        // working router can meet. One retry re-measures the phase in a
        // fresh window; the gate holds the retry to the full standard,
        // so only a genuine router defect fails twice.
        for (i, phase) in phases.iter().enumerate() {
            let over = results[i].1.routed_median_us > results[i].1.best_static_median_us() * 1.10;
            if over {
                eprintln!(
                    "router {:>16}: over the 10% budget, retrying once (noise guard)",
                    phase.name
                );
                results[i] = (phase.set, run_and_print(phase, &mut sets, &specs, batches));
            }
        }
        let routed_total: f64 = results.iter().map(|(_, r)| r.routed_median_us).sum();
        let worst_total: f64 = results.iter().map(|(_, r)| r.worst_static_median_us()).sum();
        assert!(
            routed_total < worst_total,
            "routed ({routed_total:.0} us/batch summed) must strictly beat the worst \
             static ({worst_total:.0} us/batch summed) over the mixed trace"
        );
        for (set, result) in &results {
            assert!(
                result.routed_median_us <= result.best_static_median_us() * 1.10,
                "phase {}: routed median {:.0} us exceeds best static median {:.0} us \
                 by more than 10%",
                result.name,
                result.routed_median_us,
                result.best_static_median_us(),
            );
            if result.name.starts_with("tiny") {
                let mono =
                    dispatch_fraction(&sets[*set], result, |d| d.kind == PathKind::Monolithic);
                assert!(
                    mono > 0.5,
                    "phase {}: tiny MLP must mostly route monolithic, got {:.0}%",
                    result.name,
                    mono * 100.0,
                );
            }
            if result.name == "default-uniform" {
                let uncached = dispatch_fraction(&sets[*set], result, |d| !d.cached);
                assert!(
                    uncached > 0.5,
                    "phase {}: uniform traffic must mostly avoid the cold-cache paths, \
                     got {:.0}% uncached",
                    result.name,
                    uncached * 100.0,
                );
            }
        }
        eprintln!("router smoke gates: ok");
    }

    let json = results
        .iter()
        .map(|(set, r)| {
            let statics: Vec<Json> = r
                .statics_us
                .iter()
                .map(|&(name, us, median)| {
                    Json::Obj(vec![
                        ("path".to_string(), name.to_json()),
                        ("us".to_string(), us.to_json()),
                        ("median_batch_us".to_string(), median.to_json()),
                    ])
                })
                .collect();
            let dispatches: Vec<Json> = r
                .dispatches
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let name = sets[*set].descriptor(i).map_or("?", |d| d.name);
                    Json::Obj(vec![
                        ("path".to_string(), name.to_json()),
                        ("batches".to_string(), n.to_json()),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("phase".to_string(), r.name.to_json()),
                ("routed_us".to_string(), r.routed_us.to_json()),
                ("routed_median_batch_us".to_string(), r.routed_median_us.to_json()),
                ("best_static_median_batch_us".to_string(), r.best_static_median_us().to_json()),
                ("worst_static_median_batch_us".to_string(), r.worst_static_median_us().to_json()),
                ("statics".to_string(), Json::Arr(statics)),
                ("dispatches".to_string(), Json::Arr(dispatches)),
            ])
        })
        .collect();

    for set in sets {
        set.shutdown();
    }
    Json::Arr(json)
}

// ---------------------------------------------------------------------
// Adaptive section: phase-shifted skew with online re-sharding.
// ---------------------------------------------------------------------

/// Requests per adaptive phase (full sweep / smoke).
const ADAPTIVE_PHASE_REQUESTS: usize = 1_024;
const ADAPTIVE_SMOKE_PHASE_REQUESTS: usize = 512;
/// Offered load for the adaptive phases: comfortably inside capacity, so
/// phase qps measures serving health around a migration rather than the
/// saturation frontier.
const ADAPTIVE_RATE_QPS: f64 = 10_000.0;
/// Hot-row cache capacity for the adaptive engines: tiny against the hot
/// tables' row space. Every query touches every table exactly once, so
/// per-table access counts carry no signal; the skew shows up as
/// per-table cache-MISS rate divergence.
const ADAPTIVE_CACHE_ROWS: usize = 64;
/// Row counts of [`adaptive_model`], indexed by logical table.
const ADAPTIVE_ROWS: [u64; 4] = [200_000, 100_000, 200_000, 100_000];

/// Two hot and two cold tables on a two-channel DDR platform: the
/// uniform-traffic placement co-locates pairs, so a skewed phase always
/// leaves the re-sharder a strictly better layout to find.
fn adaptive_model() -> ModelSpec {
    ModelSpec::new(
        "adaptive-skew",
        vec![
            TableSpec::new("t0-big", ADAPTIVE_ROWS[0], 16),
            TableSpec::new("t1-small", ADAPTIVE_ROWS[1], 8),
            TableSpec::new("t2-big", ADAPTIVE_ROWS[2], 16),
            TableSpec::new("t3-small", ADAPTIVE_ROWS[3], 8),
        ],
        vec![32, 16],
        1,
    )
}

fn adaptive_builder() -> MicroRecBuilder {
    MicroRec::builder(adaptive_model())
        .memory(MemoryConfig::fpga_without_hbm(2))
        .search_options(HeuristicOptions { allow_merge: false, ..Default::default() })
        .embedding_arena(RowFormat::F32)
        .hot_row_cache(ADAPTIVE_CACHE_ROWS)
        .seed(13)
}

fn adaptive_runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        max_batch: 16,
        queue_depth: 512,
        admission: AdmissionPolicy::Block,
        adaptive: true,
        ..RuntimeConfig::default()
    }
}

/// A paced phase whose `hot` pair walks its full row space (every lookup
/// misses the cache) while the other tables repeat row 7 and hit after
/// the first probe.
fn adaptive_phase_trace(hot: [usize; 2], n: usize, offset: u64, seed: u64) -> RequestTrace {
    let queries = (0..n as u64)
        .map(|i| {
            let i = i + offset;
            let mut q = vec![7u64; 4];
            q[hot[0]] = (i * 7_919) % ADAPTIVE_ROWS[hot[0]];
            q[hot[1]] = (i * 104_729) % ADAPTIVE_ROWS[hot[1]];
            q
        })
        .collect();
    let arrivals =
        PoissonArrivals::new(ADAPTIVE_RATE_QPS, seed).expect("adaptive arrivals").take(n);
    RequestTrace::from_parts(arrivals, queries).expect("adaptive trace")
}

/// Polls until the runtime has published at least `count` migrations or
/// the deadline passes. The background driver re-evaluates every few
/// milliseconds, so on settled counters this is a bounded wait for a
/// deterministic decision.
fn wait_for_migrations(runtime: &ServingRuntime, count: usize, timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    loop {
        let n = runtime.migration_records().len();
        if n >= count || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Measured outcome of one pass over the three-phase shifted trace.
struct AdaptiveAttempt {
    records: Vec<MigrationRecord>,
    identical: bool,
    qps_skewed: f64,
    qps_rotated_pre: f64,
    qps_rotated_post: f64,
    record: ServingFrontierRecord,
}

impl AdaptiveAttempt {
    /// Post-migration steady state must hold the pre-migration rate on
    /// the rotated hot set (0.95 tolerance for scheduler drift on a
    /// shared host; both phases are paced identical work).
    fn qps_held(&self) -> bool {
        self.qps_rotated_post >= self.qps_rotated_pre * 0.95
    }

    fn gates_ok(&self) -> bool {
        self.records.len() >= 2
            && self.identical
            && self.records.iter().all(|m| m.tables_moved > 0)
            && self.qps_held()
    }
}

fn run_adaptive_attempt(n: usize) -> AdaptiveAttempt {
    // Static reference: the same engine configuration served
    // sequentially, with no runtime and no migrations.
    let mut sequential = adaptive_builder().build().expect("static engine");
    let mut expect = |trace: &RequestTrace| -> Vec<f32> {
        trace.queries().iter().map(|q| sequential.predict(q).expect("predict")).collect()
    };

    let mut runtime =
        ServingRuntime::start(adaptive_builder(), adaptive_runtime_config()).expect("runtime");
    // Eager gates: the phase skew, not wall-clock luck, decides.
    runtime.set_resharding_policy(ReshardingPolicy {
        divergence_threshold: 0.01,
        min_traffic: n as u64 / 4,
        cooldown_ms: 0,
    });

    // Phase 1 skews onto {t0, t1}, co-located by the as-built layout.
    let phase1 = adaptive_phase_trace([0, 1], n, 0, 31);
    let want1 = expect(&phase1);
    let skewed = replay(&runtime, &phase1);
    wait_for_migrations(&runtime, 1, Duration::from_secs(2));

    // Phases 2 and 3 rotate the hot set onto whichever table the
    // migrated layout co-locates with t0 (the cold-table tie-break moves
    // with counter noise, so the pair is observed, not predicted),
    // forcing the driver to adapt a second time.
    let channels = runtime.resharding_channels().expect("adaptive runtime exposes channels");
    let partner = (1..4).find(|&t| channels[t] == channels[0]).expect("co-located partner");
    let rotated = [0, partner];
    // qps on the rotated hot set while the second migration triggers and
    // swaps underneath.
    let phase2 = adaptive_phase_trace(rotated, n, 1_000_000, 32);
    let want2 = expect(&phase2);
    let pre = replay(&runtime, &phase2);
    wait_for_migrations(&runtime, 2, Duration::from_secs(2));
    // Steady state on the re-adapted layout.
    let phase3 = adaptive_phase_trace(rotated, n, 2_000_000, 33);
    let want3 = expect(&phase3);
    let mut post = replay(&runtime, &phase3);
    post.snapshot = runtime.shutdown();
    let lookup = runtime.lookup_stats();
    let records = runtime.migration_records();

    let identical =
        [(&skewed, &want1), (&pre, &want2), (&post, &want3)].iter().all(|(outcome, exp)| {
            outcome.results.len() == exp.len()
                && outcome
                    .results
                    .iter()
                    .zip(exp.iter())
                    .all(|(got, e)| got.is_some_and(|g| g.to_bits() == e.to_bits()))
        });

    let mut record = ServingFrontierRecord::from_run(&adaptive_runtime_config(), &post)
        .with_migrations(&records);
    if let Some(stats) = &lookup {
        record = record.with_lookup(stats);
    }

    AdaptiveAttempt {
        records,
        identical,
        qps_skewed: skewed.qps,
        qps_rotated_pre: pre.qps,
        qps_rotated_post: post.qps,
        record,
    }
}

/// Runs the phase-shifted adaptive section. In smoke mode, CI-gates that
/// serving stayed bit-identical across at least one online migration and
/// that the post-migration steady state held the pre-migration rate.
fn run_adaptive_section(smoke: bool) -> Json {
    let n = if smoke { ADAPTIVE_SMOKE_PHASE_REQUESTS } else { ADAPTIVE_PHASE_REQUESTS };
    let mut attempt = run_adaptive_attempt(n);
    if smoke && !attempt.gates_ok() {
        // One retry re-measures in a fresh window (shared-host noise
        // guard, same policy as the router gates); the retry is held to
        // the full standard, so only a genuine defect fails twice.
        eprintln!("adaptive: smoke gates missed, retrying once (noise guard)");
        attempt = run_adaptive_attempt(n);
    }

    for m in &attempt.records {
        eprintln!(
            "adaptive gen {:>2}: {} table(s) moved | divergence {:>5.1}% | weighted lookup \
             {:.2} -> {:.2} us | build {:>6} us, swap {:>3} us",
            m.generation,
            m.tables_moved,
            m.divergence * 100.0,
            m.old_weighted_us,
            m.new_weighted_us,
            m.build_us,
            m.swap_us,
        );
    }
    eprintln!(
        "adaptive: {} migration(s) | qps skewed {:.0}, rotated pre {:.0} -> post {:.0} | \
         bit-identity {}",
        attempt.records.len(),
        attempt.qps_skewed,
        attempt.qps_rotated_pre,
        attempt.qps_rotated_post,
        if attempt.identical { "ok" } else { "FAILED" },
    );

    if smoke {
        assert!(
            attempt.records.len() >= 2,
            "both skew phases must publish an online migration, got {}",
            attempt.records.len()
        );
        assert!(attempt.identical, "adaptive runtime diverged from the static engine");
        for m in &attempt.records {
            assert!(m.tables_moved > 0, "gen {}: a migration must move tables", m.generation);
            assert!(
                m.new_weighted_us < m.old_weighted_us,
                "gen {}: migration must improve the traffic-weighted lookup cost \
                 ({} -> {} us)",
                m.generation,
                m.old_weighted_us,
                m.new_weighted_us,
            );
        }
        assert!(
            attempt.qps_held(),
            "post-migration steady state ({:.0} qps) fell below the pre-migration rate \
             ({:.0} qps) on the rotated hot set",
            attempt.qps_rotated_post,
            attempt.qps_rotated_pre,
        );
        eprintln!("adaptive smoke gates: ok");
    }

    Json::Obj(vec![
        ("model".to_string(), "adaptive-skew".to_json()),
        ("requests_per_phase".to_string(), n.to_json()),
        ("bit_identical".to_string(), attempt.identical.to_json()),
        ("migrations_published".to_string(), attempt.records.len().to_json()),
        ("qps_skewed".to_string(), attempt.qps_skewed.to_json()),
        ("qps_rotated_pre".to_string(), attempt.qps_rotated_pre.to_json()),
        ("qps_rotated_post".to_string(), attempt.qps_rotated_post.to_json()),
        ("post_migration_point".to_string(), attempt.record.to_json()),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let model = ModelSpec::dlrm_rmc2(8, 16);

    let seq_qps = measure_seq_qps(&model);
    eprintln!("sequential capacity: {seq_qps:.1} qps");

    let identity_ok = check_bit_identity(&model, config(2, 32));
    assert!(identity_ok, "runtime-served results diverged from sequential predict");
    eprintln!("bit-identity vs sequential predict: ok ({IDENTITY_QUERIES} queries)");

    // (offered multiplier over seq capacity, workers). The close rule is
    // work-conserving, so the low multiples sit at service time with
    // batches of one; the high ones are where batches grow.
    let points: Vec<(f64, usize)> = if smoke {
        vec![(2.0, 1), (32.0, 2)]
    } else {
        [2.0, 8.0, 32.0, 64.0].iter().flat_map(|&mult| [(mult, 1), (mult, 2)]).collect()
    };
    let n = if smoke { SMOKE_POINT_REQUESTS } else { FULL_POINT_REQUESTS };

    let mut records = Vec::with_capacity(points.len());
    for &(mult, workers) in &points {
        let rate = seq_qps * mult;
        let cfg = config(workers, 64);
        let (outcome, lookup) = run_point(&model, rate, n, cfg);
        let mut record = ServingFrontierRecord::from_run(&cfg, &outcome);
        if let Some(stats) = &lookup {
            record = record.with_lookup(stats);
        }
        let hit_rate = lookup.as_ref().map_or(0.0, |s| s.hit_rate());
        eprintln!(
            "offered {:>7.0} qps ({mult:.0}x seq, {workers} worker): \
             sustained {:>7.0} qps, mean batch {:>5.2}, p99 {:>8.0} us, drops {:.2}%, \
             cache hit {:>5.1}%",
            rate,
            record.qps,
            record.mean_batch_size,
            record.p99_us,
            record.drop_rate * 100.0,
            hit_rate * 100.0,
        );
        if smoke {
            // CI gate: at ≥2x sequential offered load the runtime must
            // beat sequential capacity with real batching and finite tail.
            assert!(record.qps > seq_qps, "runtime slower than sequential at {mult}x load");
            assert!(record.mean_batch_size > 1.0, "no batching happened at {mult}x load");
            assert!(record.p99_us.is_finite() && record.p99_us > 0.0, "bad p99");
            let stats = record.lookup.as_ref().expect("cache-enabled runtime lost its counters");
            assert!(stats.hits + stats.misses > 0, "no lookups were counted");
        }
        records.push(record);
    }

    let router = run_router_section(smoke);
    let adaptive = run_adaptive_section(smoke);

    let obj = vec![
        ("seq_qps".to_string(), seq_qps.to_json()),
        ("bit_identical".to_string(), identity_ok.to_json()),
        ("requests_per_point".to_string(), n.to_json()),
        ("points".to_string(), records.to_json()),
        ("router".to_string(), router),
        ("adaptive".to_string(), adaptive),
    ];
    println!("{}", microrec_json::to_string_pretty(&microrec_json::Json::Obj(obj)));
}
