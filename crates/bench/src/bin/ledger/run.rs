//! One run of one workload: generate the inputs from the seed, establish
//! the reference answers with the oracle, set the system up (timed), gate
//! on correctness, offer the load in segments, and turn what was measured
//! into the catalogue's metrics.
//!
//! An untraced run (`trace = false`) yields the end-to-end metrics; a
//! traced run yields the per-layer ones (see `layers.rs` for the
//! decomposition it adds).

use std::cell::Cell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use microrec_core::{MicroRec, PendingPrediction, RuntimeSnapshot, ServingRuntime};
use microrec_workload::{QueryGenConfig, QueryGenerator};

use crate::host::Host;
use crate::layers;
use crate::metrics::Values;
use crate::openloop::{drive_open, drive_window, poisson_schedule, Backend, Reply, WallClock};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Load, Store, Workload, BATCH};

/// Queries checked bit for bit against the reference `predict` before any
/// timing.
const GATE_QUERIES: usize = 128;

/// Timed set-ups per untraced run; `setup_s` is the quickest of them, for
/// the reason `Summary` gives. A set-up of a few milliseconds is repeated
/// until `SETUP_FLOOR_S` has been spent on set-ups (at most
/// `SETUP_REPEATS_MAX` times), so that it is read as steadily as one that
/// takes a second.
const SETUP_REPEATS: usize = 5;
const SETUP_REPEATS_MAX: usize = 50;
const SETUP_FLOOR_S: f64 = 0.5;

/// Latency booked for a request that was refused, failed or answered
/// wrongly: it misses any latency limit, so it sits beyond every
/// percentile instead of vanishing from the sample.
const MISS_US: f64 = 1e9;

/// Salt separating the arrival-time stream from the query stream, both
/// derived from `--seed`.
const ARRIVAL_SALT: u64 = 0xA881_7A15;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measured time: the load segments (and, traced, the decomposition).
    pub seconds: f64,
    pub trace: bool,
    /// Where the trace file and the cold-tier scratch file go.
    pub out_dir: PathBuf,
}

/// What came out.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// One stretch of offered load.
#[derive(Debug, Clone, Default)]
struct Segment {
    secs: f64,
    ok: u64,
    failed: u64,
    lat_us: Vec<f64>,
}

/// A segment of the load plan: how long, traced or not, kept or warm-up.
#[derive(Debug, Clone, Copy)]
struct Phase {
    secs: f64,
    traced: bool,
    kept: bool,
}

/// Untraced: sixteen equal segments, the first two a warm-up that is
/// dropped. Traced: two warm-up, four untraced and four traced segments in
/// 80% of the time; the decomposition replay gets the rest.
fn load_plan(seconds: f64, trace: bool) -> Vec<Phase> {
    if trace {
        let secs = seconds * 0.8 / 10.0;
        (0..10).map(|i| Phase { secs, traced: i >= 6, kept: i >= 2 }).collect()
    } else {
        (0..16).map(|i| Phase { secs: seconds / 16.0, traced: false, kept: i >= 2 }).collect()
    }
}

/// The system under test, set up and answering.
enum System {
    Engine(Box<MicroRec>),
    Runtime(Box<ServingRuntime>),
}

/// Builds the system from the workload's builder and takes it to its
/// first correct prediction; returns it with the seconds that took.
fn setup_once(
    w: &Workload,
    pool: &[Vec<u64>],
    reference: &[u32],
    tracer: &mut Tracer,
) -> Result<(System, f64), String> {
    let start = Instant::now();
    let root = tracer.begin("setup", None, 0);
    let system = match w.runtime_config() {
        None => {
            let span = tracer.begin("core.engine.build", root, 0);
            let mut engine = w.builder().build().map_err(|e| format!("engine build: {e}"))?;
            tracer.end(span);
            let span = tracer.begin("setup.first_prediction", root, 0);
            let out = engine.predict_batch(&pool[..BATCH]).map_err(|e| format!("predict: {e}"))?;
            tracer.end(span);
            if out.iter().map(|v| v.to_bits()).ne(reference[..BATCH].iter().copied()) {
                return Err("first batch after setup differs from the oracle".into());
            }
            System::Engine(Box::new(engine))
        }
        Some(config) => {
            let span = tracer.begin("core.runtime.start", root, 0);
            let runtime = ServingRuntime::start(w.builder(), config)
                .map_err(|e| format!("runtime start: {e}"))?;
            tracer.end(span);
            let span = tracer.begin("setup.first_prediction", root, 0);
            let first = runtime
                .submit(pool[0].clone())
                .map_err(|e| format!("first submit: {e}"))?
                .wait()
                .map_err(|e| format!("first reply: {e}"))?;
            tracer.end(span);
            if first.to_bits() != reference[0] {
                return Err("first reply after setup differs from the oracle".into());
            }
            System::Runtime(Box::new(runtime))
        }
    };
    tracer.end(root);
    Ok((system, start.elapsed().as_secs_f64()))
}

/// Answers of the system under test for the first `GATE_QUERIES` queries.
fn gate_answers(system: &mut System, pool: &[Vec<u64>]) -> Result<Vec<u32>, String> {
    let queries = &pool[..GATE_QUERIES.min(pool.len())];
    match system {
        System::Engine(engine) => {
            let mut out = Vec::with_capacity(queries.len());
            for chunk in queries.chunks(BATCH) {
                let ctrs = engine.predict_batch(chunk).map_err(|e| format!("gate predict: {e}"))?;
                out.extend(ctrs.into_iter().map(f32::to_bits));
            }
            Ok(out)
        }
        System::Runtime(runtime) => {
            let pending: Vec<PendingPrediction> = queries
                .iter()
                .map(|q| runtime.submit(q.clone()).map_err(|e| format!("gate submit: {e}")))
                .collect::<Result<_, _>>()?;
            pending
                .into_iter()
                .map(|p| p.wait().map(f32::to_bits).map_err(|e| format!("gate reply: {e}")))
                .collect()
        }
    }
}

/// Closed loop: `predict_batch` back to back, each call timed and every
/// reply compared to the reference.
fn load_batches(
    engine: &mut MicroRec,
    batches: &[Vec<Vec<u64>>],
    reference: &[u32],
    plan: &[Phase],
    tracer: &mut Tracer,
) -> Vec<Segment> {
    let mut cursor = 0usize;
    let mut segments = Vec::with_capacity(plan.len());
    for phase in plan {
        tracer.set_enabled(phase.traced);
        let mut seg = Segment::default();
        let budget = Duration::from_secs_f64(phase.secs);
        let seg_start = Instant::now();
        loop {
            let call_start = Instant::now();
            if call_start - seg_start >= budget {
                break;
            }
            let b = cursor % batches.len();
            let span = tracer.begin("core.engine.predict_batch", None, cursor as u64);
            let out = engine.predict_batch(&batches[b]);
            tracer.end(span);
            let us = call_start.elapsed().as_secs_f64() * 1e6;
            let want = &reference[b * BATCH..(b + 1) * BATCH];
            let ok = match &out {
                Ok(ctrs) if ctrs.len() == BATCH => {
                    ctrs.iter().zip(want).filter(|(got, want)| got.to_bits() == **want).count()
                }
                _ => 0,
            };
            seg.ok += ok as u64;
            seg.failed += (BATCH - ok) as u64;
            seg.lat_us.push(if ok == BATCH { us } else { MISS_US });
            cursor += 1;
        }
        seg.secs = seg_start.elapsed().as_secs_f64();
        segments.push(seg);
    }
    tracer.set_enabled(false);
    segments
}

/// The serving runtime as a load-generator backend: request `seq` carries
/// query `seq % pool`. `submit` is wrapped in a span for the requests
/// `should_trace` picks.
struct RuntimeBackend<'a, F: Fn(u64) -> bool> {
    runtime: &'a ServingRuntime,
    pool: &'a [Vec<u64>],
    tracer: &'a mut Tracer,
    should_trace: F,
}

impl<F: Fn(u64) -> bool> Backend for RuntimeBackend<'_, F> {
    type Ticket = PendingPrediction;

    fn submit(&mut self, seq: u64) -> Result<PendingPrediction, ()> {
        let query = self.pool[seq as usize % self.pool.len()].clone();
        let span = if (self.should_trace)(seq) {
            self.tracer.begin("core.runtime.submit", None, seq)
        } else {
            None
        };
        let ticket = self.runtime.submit(query);
        self.tracer.end(span);
        ticket.map_err(|_| ())
    }

    fn poll(&mut self, ticket: &PendingPrediction) -> Option<Reply> {
        ticket.try_take().map(|r| r.map_err(|_| ()))
    }
}

/// Index of the phase that time `t_ns` (from the start of the load) falls
/// in; times past the end belong to the last phase.
fn phase_at(bounds_ns: &[u64], t_ns: u64) -> usize {
    bounds_ns.iter().position(|&end| t_ns < end).unwrap_or(bounds_ns.len() - 1)
}

/// Load through the serving runtime, open loop or fixed window. Returns
/// the segments and the generator's lag samples (open loop only).
fn load_runtime(
    w: &Workload,
    runtime: &ServingRuntime,
    pool: &[Vec<u64>],
    reference: &[u32],
    plan: &[Phase],
    seed: u64,
    tracer: &mut Tracer,
) -> (Vec<Segment>, Vec<f64>) {
    let mut bounds_ns = Vec::with_capacity(plan.len());
    let mut end = 0u64;
    for phase in plan {
        end += (phase.secs * 1e9) as u64;
        bounds_ns.push(end);
    }
    let mut segments = vec![Segment::default(); plan.len()];
    for (seg, phase) in segments.iter_mut().zip(plan) {
        seg.secs = phase.secs;
    }
    let right = |seq: u64, reply: Reply| matches!(reply, Ok(v) if v.to_bits() == reference[seq as usize % pool.len()]);
    let mut lags_us = Vec::new();
    // Offset of the load's clock from the tracer's, to place request spans.
    tracer.set_enabled(true);
    let base = tracer.begin("load", None, 0);
    let clock = WallClock::start();
    let base_ns = base.map_or(0, |b| tracer.spans()[b as usize].start_ns);
    let mut timed: Vec<(u64, u64, u64)> = Vec::new(); // (seq, from_ns, seen_ns)
    match w.load {
        Load::BatchClosed => unreachable!("batch workloads run on the engine"),
        Load::ServeOpen { rate_per_s } => {
            let schedule = poisson_schedule(rate_per_s, end, seed ^ ARRIVAL_SALT);
            // The open loop decides tracing per request from its due time.
            let should_trace = |seq: u64| plan[phase_at(&bounds_ns, schedule[seq as usize])].traced;
            let mut backend = RuntimeBackend { runtime, pool, tracer, should_trace };
            let outcomes = drive_open(&clock, &mut backend, &schedule);
            for o in &outcomes {
                let phase = phase_at(&bounds_ns, o.due_ns);
                let seg = &mut segments[phase];
                lags_us.push(o.lag_us());
                match o.latency_us() {
                    Some(us) if right(o.seq, o.reply) => {
                        seg.ok += 1;
                        seg.lat_us.push(us);
                        if plan[phase].traced {
                            timed.push((o.seq, o.due_ns, o.seen_ns.unwrap_or(o.due_ns)));
                        }
                    }
                    _ => {
                        seg.failed += 1;
                        seg.lat_us.push(MISS_US);
                    }
                }
            }
        }
        Load::ServeWindow { outstanding } => {
            let stride = w.latency_stride;
            // The window loop traces every `stride`-th request while the
            // clock is inside a traced phase.
            let tracing = Cell::new(false);
            let should_trace = |seq: u64| tracing.get() && seq.is_multiple_of(stride);
            let mut backend = RuntimeBackend { runtime, pool, tracer, should_trace };
            let counts: Vec<Cell<(u64, u64)>> = vec![Cell::new((0, 0)); plan.len()];
            drive_window(
                &clock,
                &mut backend,
                outstanding,
                end,
                stride,
                |seq, reply, now_ns| {
                    let phase = phase_at(&bounds_ns, now_ns);
                    tracing.set(plan[phase].traced);
                    let (ok, failed) = counts[phase].get();
                    counts[phase].set(if right(seq, reply) {
                        (ok + 1, failed)
                    } else {
                        (ok, failed + 1)
                    });
                },
                |seq, sent_ns, seen_ns| {
                    let phase = phase_at(&bounds_ns, seen_ns);
                    segments[phase].lat_us.push(seen_ns.saturating_sub(sent_ns) as f64 / 1e3);
                    if plan[phase].traced {
                        timed.push((seq, sent_ns, seen_ns));
                    }
                },
            );
            for (seg, count) in segments.iter_mut().zip(&counts) {
                let (ok, failed) = count.get();
                seg.ok = ok;
                seg.failed = failed;
                // A failed reply has no sample of its own in a strided
                // sample; book one miss per failure so it still counts.
                seg.lat_us.extend(std::iter::repeat_n(MISS_US, failed as usize));
            }
        }
    }
    for (seq, from_ns, seen_ns) in timed {
        tracer.record("request", base, seq, base_ns + from_ns, base_ns + seen_ns);
    }
    tracer.end(base);
    tracer.set_enabled(false);
    (segments, lags_us)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What a set of segments says about the system.
///
/// The host decides the estimator. It is a shared 2-vCPU VM whose vCPUs
/// lose a third to a half of a physical core for seconds to minutes at a
/// time; the interference only ever slows a segment down. Over ten seeds
/// on a busy stretch the median over segments spread 31–41% (`qps`) and
/// 33–49% (`p50_us`) on the batch workloads — beyond any bound the
/// benchmark format allows — where the best segment of the same runs
/// spread 8–17% and 5–19% (quiet: 8% against 1–2%). So:
///
/// * `qps`: closed loops report the **best** segment's correct items per
///   second; the open loop, whose rate is fixed, reports all correct items
///   over all the time.
/// * `p50_us`: the **lowest** segment median.
/// * `p95_us`, `p99_us`: percentiles of all the segments' samples pooled;
///   reported, not gated.
///
/// What the best segment cannot see — a stall or pause that hits only some
/// segments — is carried beside it: the median over segments and the
/// min–max range are printed with every run, and the traced run reports
/// `load.qps_segment_spread`.
struct Summary {
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    samples: usize,
    /// Correct items per second of each segment, in order.
    rates: Vec<f64>,
    /// Median latency of each segment in µs, in order.
    medians: Vec<f64>,
}

fn summarize<'a>(segments: impl Iterator<Item = &'a Segment>, open_loop: bool) -> Summary {
    let mut rates = Vec::new();
    let mut medians = Vec::new();
    let mut pooled = Vec::new();
    let (mut ok, mut secs) = (0u64, 0.0);
    for seg in segments {
        rates.push(seg.ok as f64 / seg.secs);
        medians.push(stats::median(&seg.lat_us));
        pooled.extend_from_slice(&seg.lat_us);
        ok += seg.ok;
        secs += seg.secs;
    }
    stats::sort(&mut pooled);
    Summary {
        qps: if open_loop { ok as f64 / secs } else { min_max(&rates).1 },
        p50_us: min_max(&medians).0,
        p95_us: stats::percentile_sorted(&pooled, 0.95),
        p99_us: stats::percentile_sorted(&pooled, 0.99),
        samples: pooled.len(),
        rates,
        medians,
    }
}

impl Summary {
    /// How uneven the segments were: (fastest − slowest) / fastest.
    fn qps_segment_spread(&self) -> f64 {
        let (lo, hi) = min_max(&self.rates);
        if hi > 0.0 {
            (hi - lo) / hi
        } else {
            0.0
        }
    }
}

/// Smallest and largest of a sample.
fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let w = cfg.workload;
    let mut v = Values::new();
    let mut tracer = Tracer::new(cfg.trace);

    // Inputs: the seed picks the queries (and, open loop, the arrivals).
    let model = (w.model)();
    let gen_start = Instant::now();
    let pool =
        QueryGenerator::new(&model, QueryGenConfig { zipf_exponent: w.zipf, seed: cfg.seed })
            .map_err(|e| format!("query generator: {e}"))?
            .next_batch(w.pool);
    let gen_ns_per_query = gen_start.elapsed().as_nanos() as f64 / w.pool as f64;
    let batches: Vec<Vec<Vec<u64>>> = pool.chunks(BATCH).map(<[Vec<u64>]>::to_vec).collect();

    // Reference answers from the oracle: the plain engine reading
    // procedural tables. Its batched path answers the whole pool; the
    // first GATE_QUERIES of those are checked against reference `predict`.
    let mut oracle = w.oracle_builder().build().map_err(|e| format!("oracle build: {e}"))?;
    let mut reference = Vec::with_capacity(pool.len());
    for batch in &batches {
        let ctrs = oracle.predict_batch(batch).map_err(|e| format!("oracle batch: {e}"))?;
        reference.extend(ctrs.into_iter().map(f32::to_bits));
    }
    for (q, &want) in pool.iter().zip(&reference).take(GATE_QUERIES) {
        let got = oracle.predict(q).map_err(|e| format!("oracle predict: {e}"))?;
        if got.to_bits() != want {
            return Err("oracle predict_batch differs from oracle predict".into());
        }
    }
    if cfg.trace {
        layers::simulated_counts(&mut oracle, &pool[..GATE_QUERIES.min(pool.len())], &mut v)?;
    }
    drop(oracle);

    // The first touch of memory the guest has not used before costs host
    // page faults, several times the work itself. Untraced runs therefore
    // set up SETUP_REPEATS times and report the quickest; the traced run
    // does each allocating step twice and keeps the second.
    let mut parts = layers::SetupParts::default();
    if cfg.trace {
        for pass in 0..2 {
            parts = layers::setup_components(w, pass, &mut tracer, &mut v)?;
        }
    }
    let repeats = if cfg.trace { 2 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut system = None;
    while setups.len() < repeats
        || (!cfg.trace
            && setups.len() < SETUP_REPEATS_MAX
            && setups.iter().sum::<f64>() < SETUP_FLOOR_S)
    {
        drop(system.take());
        let (built, secs) = setup_once(w, &pool, &reference, &mut tracer)?;
        setups.push(secs);
        system = Some(built);
    }
    let mut system = system.expect("at least one set-up ran");
    v.insert("setup_s", min_max(&setups).0);

    // Correctness gate, before any timing.
    if gate_answers(&mut system, &pool)? != reference[..GATE_QUERIES.min(pool.len())] {
        return Err(format!("{}: gate queries differ from the oracle", w.name));
    }

    // Load.
    let plan = load_plan(cfg.seconds, cfg.trace);
    let (segments, lags_us, snapshot): (Vec<Segment>, Vec<f64>, Option<RuntimeSnapshot>) =
        match &mut system {
            System::Engine(engine) => {
                (load_batches(engine, &batches, &reference, &plan, &mut tracer), Vec::new(), None)
            }
            System::Runtime(runtime) => {
                let (segments, lags) =
                    load_runtime(w, runtime, &pool, &reference, &plan, cfg.seed, &mut tracer);
                (segments, lags, Some(runtime.shutdown()))
            }
        };
    let failed: u64 = segments.iter().map(|s| s.failed).sum();
    let attempted = failed + segments.iter().map(|s| s.ok).sum::<u64>();
    // Kept segments, optionally only the traced or only the untraced ones.
    let kept = |traced: Option<bool>| {
        segments
            .iter()
            .zip(&plan)
            .filter(move |(_, p)| p.kept && traced.is_none_or(|t| p.traced == t))
            .map(|(s, _)| s)
    };
    let open_loop = matches!(w.load, Load::ServeOpen { .. });
    let untraced = summarize(kept(Some(false)), open_loop);

    if cfg.trace {
        let traced = summarize(kept(Some(true)), open_loop);
        // Closed loops lose throughput to tracing; the open loop's rate
        // is fixed, so there the cost shows in the median latency.
        let overhead = if open_loop {
            traced.p50_us / untraced.p50_us - 1.0
        } else {
            1.0 - traced.qps / untraced.qps
        };
        v.insert("trace.overhead_frac", overhead);
        let all = summarize(kept(None), open_loop);
        v.insert("tail.p95_us", all.p95_us);
        v.insert("tail.p99_us", all.p99_us);
        v.insert("tail.samples", all.samples as f64);
        v.insert("load.qps_segment_spread", all.qps_segment_spread());
        v.insert("load.sent", attempted as f64);
        v.insert("fail_frac", failed as f64 / attempted.max(1) as f64);
        v.insert("workload.gen_ns_per_query", gen_ns_per_query);
        let mut lags = lags_us;
        stats::sort(&mut lags);
        v.insert("workload.gen_lag_us_p99", stats::percentile_sorted(&lags, 0.99));
        layers::runtime_metrics(snapshot.as_ref(), &tracer, &mut v);

        // Decomposition on an engine of its own: the workload's engine,
        // or — for the serve workloads — one built like the workers'.
        let host = Host::detect();
        let peak_gmacs = crate::host::peak_gmacs_per_s();
        let stream_gbps = crate::host::stream_gbps();
        v.insert("host.cores", host.cores as f64);
        v.insert("host.simd", f64::from(host.simd_mask));
        v.insert("host.peak_gmacs_per_s", peak_gmacs);
        v.insert("host.stream_gbps", stream_gbps);
        let runtime_start_s = tracer.last_s("core.runtime.start");
        let mut engine = match system {
            System::Engine(engine) => engine,
            System::Runtime(runtime) => {
                drop(runtime);
                tracer.set_enabled(true);
                let span = tracer.begin("core.engine.build", None, 0);
                let engine = w.builder().build().map_err(|e| format!("engine build: {e}"))?;
                tracer.end(span);
                Box::new(engine)
            }
        };
        tracer.set_enabled(true);
        let engine_build_s = tracer.last_s("core.engine.build");
        parts.book(w.store, engine_build_s, &mut v);
        if w.runtime_config().is_some() {
            v.insert("core.runtime.start_s", (runtime_start_s - engine_build_s).max(0.0));
        }
        let rates = layers::Rooflines { peak_gmacs, stream_gbps };
        let budget = Duration::from_secs_f64(cfg.seconds * 0.2);
        let replay = layers::Replay { batches: &batches, reference: &reference, budget, rates };
        layers::decompose(&replay, &mut engine, &mut tracer, &mut v)?;
        if let Load::ServeWindow { .. } = w.load {
            // The engine alone, back to back and undisturbed by the probes.
            let (alone_per_s, _) =
                layers::closed_loop(&mut engine, &batches, &reference, budget, 0)?;
            let overhead_us = 1e6 / untraced.qps - 1e6 / alone_per_s;
            v.insert("core.runtime.overhead_us_per_item", overhead_us);
        }
        drop(engine);
        if w.store == Store::TieredQuarter {
            let (rate, p50_us) = layers::cold_async(w, &batches, &reference, budget)?;
            v.insert("embedding.cold_async_items_per_s", rate);
            v.insert("embedding.cold_async_p50_us", p50_us);
        }
        let path = cfg.out_dir.join(format!("trace-{}.json", w.name));
        tracer
            .write_json(&path, w.name, cfg.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace: {} spans in {}", tracer.spans().len(), path.display());
    } else {
        v.insert("qps", untraced.qps);
        v.insert("p50_us", untraced.p50_us);
        v.insert("rss_mb", peak_rss_mb()?);
        let (qps_lo, qps_hi) = min_max(&untraced.rates);
        let (p50_lo, p50_hi) = min_max(&untraced.medians);
        println!(
            "# {}: qps {:.1} (segments: median {:.1}, range {qps_lo:.1}..{qps_hi:.1}); p50 {:.1} us \
             (segments: median {:.1}, range {p50_lo:.1}..{p50_hi:.1}); pooled p95 {:.1} us over \
             {} samples",
            w.name,
            untraced.qps,
            stats::median(&untraced.rates),
            untraced.p50_us,
            stats::median(&untraced.medians),
            untraced.p95_us,
            untraced.samples,
        );
        println!(
            "# {}: per segment qps {:.1?}; p50 us {:.1?}; set-ups {setups:.4?} s",
            w.name, untraced.rates, untraced.medians,
        );
    }
    println!("# {}: sent {attempted}, succeeded {}, failed {failed}", w.name, attempted - failed);
    Ok(RunResult { correct: failed == 0, attempted, failed, values: v })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(secs: f64, ok: u64, lat_us: &[f64]) -> Segment {
        Segment { secs, ok, failed: 0, lat_us: lat_us.to_vec() }
    }

    #[test]
    fn closed_loop_reads_the_best_segment_and_the_open_loop_all_of_them() {
        let segments = [
            segment(1.0, 100, &[10.0, 12.0, 14.0]),
            segment(1.0, 50, &[20.0, 24.0, 28.0]),
            segment(2.0, 180, &[11.0, 13.0, 90.0]),
        ];
        let closed = summarize(segments.iter(), false);
        assert_eq!(closed.qps, 100.0);
        assert_eq!(closed.p50_us, 12.0);
        assert_eq!(closed.rates, [100.0, 50.0, 90.0]);
        assert_eq!(closed.qps_segment_spread(), 0.5);
        // The tail is pooled: the slow sample of the third segment is in it.
        assert_eq!(closed.samples, 9);
        assert!(closed.p99_us > 80.0);
        let open = summarize(segments.iter(), true);
        assert_eq!(open.qps, 330.0 / 4.0);
        assert_eq!(open.p50_us, 12.0);
    }
}
