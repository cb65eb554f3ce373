//! Staged dataflow pipeline: the monolithic predict path decomposed into
//! FIFO-connected stages, mirroring the paper's accelerator structure
//! (Figure 1: embedding lookup → concatenation → one PE group per FC
//! layer, coupled by on-chip FIFOs so item *i+1*'s lookup overlaps item
//! *i*'s GEMM).
//!
//! The topology is described by a [`PipelinePlan`]: each stage runs as
//! one or more parallel **lanes** (threads), and adjacent FC layers can
//! be **fused** into one stage when their occupancy counters show the
//! extra thread would mostly stall. The **lookup** stage owns one engine
//! per lane (memory simulator, arena, cache) and produces the quantized
//! concatenated feature vector; each **fc** stage owns its group of
//! pre-packed layers ([`PackedLayer`], shared read-only across lanes)
//! and a per-lane scratch buffer; the **sink** stage turns the final
//! activation into the CTR and recycles the job shell back to the
//! caller.
//!
//! Stages are connected by the bounded SPSC rings vendored in
//! `microrec-par`. Between a stage with P lanes and one with C lanes
//! sits a P×C ring *mesh*, so every ring keeps exactly one producer and
//! one consumer. Item *q* is processed by lane *q mod P* of a P-lane
//! stage; the fan-out side deals items over the mesh by a deterministic
//! cyclic schedule and the fan-in side ([`microrec_par::FanIn`])
//! re-emits them in sequence order, parking early arrivals from fast
//! lanes in a pre-allocated reorder buffer. Dispatch is deterministic,
//! so results are **bit-identical** to [`MicroRec::predict`] at every
//! lane count: the same engine gather, the same [`PackedLayer`] kernels,
//! the same final `to_f32`, in the same order.
//!
//! Failure containment: a malformed query turns into an error *job* that
//! flows through the remaining stages untouched, so one bad item never
//! stalls its neighbours. A panicking lane closes its rings on unwind;
//! the close cascades lane by lane to the result ring, every in-flight
//! item fails with a runtime error, and the executor reports unhealthy —
//! it never wedges.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;

use microrec_dnn::{forward_layers, FixedNum, PackedLayer, PackedMlp, Q16, Q32};
use microrec_embedding::Precision;
use microrec_par::{FanIn, FanOut, Sequenced, SpscPushError, SpscRing};

use crate::engine::MicroRec;
use crate::error::MicroRecError;

pub mod plan;

pub use plan::{FcStage, PipelinePlan};

/// How the serving runtime executes inference on each worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// The classic path: one thread per worker runs gather + full MLP
    /// back to back through [`MicroRec::predict_batch`].
    #[default]
    Monolithic,
    /// The staged dataflow path: each worker owns a [`PipelineExecutor`]
    /// whose lookup/fc/sink stages run on their own threads, connected by
    /// bounded FIFOs (the fixed per-layer, one-lane topology).
    Pipelined,
    /// Build the full path matrix ([`crate::PathSet`]) per worker and
    /// route every formed batch to its predicted-fastest path, with EWMA
    /// feedback and the SLO guard (see [`crate::PathCostModel`]).
    Routed,
}

impl ExecutionMode {
    /// Stable lower-case name for reports and the CLI.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ExecutionMode::Monolithic => "monolithic",
            ExecutionMode::Pipelined => "pipelined",
            ExecutionMode::Routed => "routed",
        }
    }
}

/// Configuration of a [`PipelineExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Capacity of each inter-stage FIFO, in jobs. Depth 1 serializes the
    /// stages (useful as a counter-case); the default of 4 lets short
    /// stage-time imbalances absorb into the rings.
    pub fifo_depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { fifo_depth: 4 }
    }
}

/// Point-in-time counters of one pipeline stage (summed across workers
/// when read through the serving runtime; lanes of one stage share the
/// counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage name: `"lookup"`, `"fc0"`…`"fcN"` (`"fc0-2"` when fused),
    /// or `"sink"`.
    pub name: String,
    /// Parallel lanes this stage runs as.
    pub lanes: u64,
    /// Jobs this stage processed (summed across its lanes).
    pub items: u64,
    /// Pops that found the input FIFO empty (the stage was starved).
    pub stalls: u64,
    /// Pushes that found the output FIFO full (the stage was blocked by
    /// its consumer).
    pub backpressure: u64,
    /// Sum over pops of the input-FIFO occupancy observed at that pop
    /// (including the popped job); divide by `items` for the mean.
    pub occupancy_sum: u64,
}

impl StageSnapshot {
    /// Mean input-FIFO occupancy observed at pop time (0 when idle).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.items as f64
        }
    }
}

/// Live counters of one stage, updated by its lane threads with relaxed
/// atomics (safe for any number of lanes).
#[derive(Debug)]
struct StageState {
    name: String,
    lanes: u64,
    items: AtomicU64,
    stalls: AtomicU64,
    backpressure: AtomicU64,
    occupancy_sum: AtomicU64,
}

impl StageState {
    fn named(name: String, lanes: usize) -> Self {
        StageState {
            name,
            lanes: lanes as u64,
            items: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            backpressure: AtomicU64::new(0),
            occupancy_sum: AtomicU64::new(0),
        }
    }
}

/// Counter block shared between the lane threads, the executor, and the
/// serving runtime's snapshot path.
#[derive(Debug)]
pub(crate) struct PipelineShared {
    stages: Vec<StageState>,
    poisoned: AtomicBool,
}

impl PipelineShared {
    pub(crate) fn snapshots(&self) -> Vec<StageSnapshot> {
        self.stages
            .iter()
            .map(|s| StageSnapshot {
                name: s.name.clone(),
                lanes: s.lanes,
                items: s.items.load(Relaxed),
                stalls: s.stalls.load(Relaxed),
                backpressure: s.backpressure.load(Relaxed),
                occupancy_sum: s.occupancy_sum.load(Relaxed),
            })
            .collect()
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Relaxed)
    }
}

/// Sentinel: no stage is poisoned (jobs carry this in `poison_at`).
const NO_POISON: usize = usize::MAX;

/// One query's travelling state. The shell (both `Vec`s) is recycled
/// through the owner's free list, so the steady-state pipeline allocates
/// nothing per item.
#[derive(Debug)]
struct PipeJob<T> {
    seq: u64,
    query: Vec<u64>,
    data: Vec<T>,
    err: Option<MicroRecError>,
    poison_at: usize,
}

impl<T> Sequenced for PipeJob<T> {
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// What the sink hands back: the answer plus the job shell for reuse.
#[derive(Debug)]
struct PipeResult<T> {
    seq: u64,
    value: Result<f32, MicroRecError>,
    shell: PipeJob<T>,
}

/// Counted pop from a lane's fan-in: records a stall when no item is
/// immediately available and the observed occupancy + item count on
/// success.
fn pop_counted<T: Sequenced>(input: &mut FanIn<T>, stage: &StageState) -> Option<T> {
    if !input.is_ready() && !input.expected_closed() {
        stage.stalls.fetch_add(1, Relaxed);
    }
    let item = input.pop()?;
    stage.occupancy_sum.fetch_add(input.occupancy() as u64 + 1, Relaxed);
    stage.items.fetch_add(1, Relaxed);
    Some(item)
}

/// Counted push into a lane's fan-out: records backpressure when the
/// scheduled output ring is full, then blocks until space frees. `Err`
/// hands the item back on a closed ring.
fn push_counted<T>(output: &mut FanOut<T>, stage: &StageState, item: T) -> Result<(), T> {
    match output.try_push(item) {
        Ok(()) => Ok(()),
        Err(SpscPushError::Closed(item)) => Err(item),
        Err(SpscPushError::Full(item)) => {
            stage.backpressure.fetch_add(1, Relaxed);
            output.push_blocking(item)
        }
    }
}

/// Counted push for the sink's plain result ring (single consumer, no
/// fan-out needed).
fn push_counted_ring<T>(ring: &SpscRing<T>, stage: &StageState, item: T) -> Result<(), T> {
    match ring.try_push(item) {
        Ok(()) => Ok(()),
        Err(SpscPushError::Closed(item)) => Err(item),
        Err(SpscPushError::Full(item)) => {
            stage.backpressure.fetch_add(1, Relaxed);
            ring.push_blocking(item)
        }
    }
}

/// Unwind guard every lane holds: closing its whole input column and
/// output row on exit — normal or panicking — makes shutdown (and lane
/// failure) cascade through the pipeline instead of wedging it. On a
/// panic it also marks the pipeline poisoned so the owner can report
/// *why* the rings died.
struct LaneGuard<In, Out> {
    inputs: Vec<Arc<SpscRing<In>>>,
    outputs: Vec<Arc<SpscRing<Out>>>,
    shared: Arc<PipelineShared>,
}

impl<In, Out> Drop for LaneGuard<In, Out> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.poisoned.store(true, Relaxed);
        }
        for ring in &self.inputs {
            ring.close();
        }
        for ring in &self.outputs {
            ring.close();
        }
    }
}

/// The ring mesh in front of one stage: `mesh[p][c]` carries jobs from
/// producer lane `p` to consumer lane `c`.
type StageMesh<T> = Vec<Vec<Arc<SpscRing<PipeJob<T>>>>>;

/// How one lane is wired into the meshes on either side of its stage:
/// the ring column it consumes, the ring row it feeds, and the cyclic
/// schedules plus sequence arithmetic that keep order deterministic.
struct LaneWiring<T> {
    in_rings: Vec<Arc<SpscRing<PipeJob<T>>>>,
    in_schedule: Vec<usize>,
    first_seq: u64,
    seq_stride: u64,
    reorder_capacity: usize,
    out_rings: Vec<Arc<SpscRing<PipeJob<T>>>>,
    out_schedule: Vec<usize>,
}

impl<T: Send> LaneWiring<T> {
    fn guard(&self, shared: &Arc<PipelineShared>) -> LaneGuard<PipeJob<T>, PipeJob<T>> {
        LaneGuard {
            inputs: self.in_rings.clone(),
            outputs: self.out_rings.clone(),
            shared: Arc::clone(shared),
        }
    }

    fn split(self) -> (FanIn<PipeJob<T>>, FanOut<PipeJob<T>>) {
        let input = FanIn::new(
            self.in_rings,
            self.in_schedule,
            self.first_seq,
            self.seq_stride,
            self.reorder_capacity,
        );
        let output = FanOut::new(self.out_rings, self.out_schedule);
        (input, output)
    }
}

/// Stage 0, one lane: owns an engine; gathers + quantizes the feature
/// vector for every item whose sequence number lands on this lane.
fn lookup_loop<T: FixedNum + Send>(
    mut engine: MicroRec,
    wiring: LaneWiring<T>,
    shared: &Arc<PipelineShared>,
) -> MicroRec {
    // lint: allow(transitive-hot-path-alloc) lane guard is wired once, before the steady-state loop
    let _guard = wiring.guard(shared);
    // lint: allow(transitive-hot-path-alloc) fan-in/fan-out construction happens before the first job
    let (mut input, mut output) = wiring.split();
    let stage = &shared.stages[0];
    let mut features: Vec<f32> = Vec::with_capacity(engine.model().feature_len() as usize);
    while let Some(mut job) = pop_counted(&mut input, stage) {
        if job.err.is_none() {
            if job.poison_at == 0 {
                // lint: allow(no-panic-serving) test-only fault injection; the guard contains it
                panic!("pipeline stage 'lookup' poisoned by test hook");
            }
            match engine.gather_features_into(&job.query, &mut features) {
                Ok(()) => {
                    job.data.clear();
                    job.data.extend(features.iter().map(|&v| T::from_f32(v)));
                }
                Err(e) => job.err = Some(e),
            }
        }
        if push_counted(&mut output, stage, job).is_err() {
            break;
        }
    }
    engine
}

/// Stages 1..=F, one lane: applies its stage's fused group of packed
/// layers back to back, ping-ponging the job's payload with a per-lane
/// scratch buffer. The layer group itself is shared read-only across
/// the stage's lanes.
fn fc_loop<T: FixedNum + Send>(
    layers: &Arc<Vec<PackedLayer<T>>>,
    stage_index: usize,
    wiring: LaneWiring<T>,
    shared: &Arc<PipelineShared>,
) {
    // lint: allow(transitive-hot-path-alloc) lane guard is wired once, before the steady-state loop
    let _guard = wiring.guard(shared);
    // lint: allow(transitive-hot-path-alloc) fan-in/fan-out construction happens before the first job
    let (mut input, mut output) = wiring.split();
    let stage = &shared.stages[stage_index];
    let width = layers.iter().map(PackedLayer::output_dim).max().unwrap_or(0);
    let mut scratch: Vec<T> = Vec::with_capacity(width);
    while let Some(mut job) = pop_counted(&mut input, stage) {
        if job.err.is_none() {
            if job.poison_at == stage_index {
                // lint: allow(no-panic-serving) test-only fault injection; the guard contains it
                panic!("pipeline stage '{}' poisoned by test hook", stage.name);
            }
            if let Err(e) = forward_layers(layers, 1, &mut job.data, &mut scratch) {
                job.err = Some(MicroRecError::Dnn(e));
            }
        }
        if push_counted(&mut output, stage, job).is_err() {
            break;
        }
    }
}

/// Final stage, always one lane: converts the last activation (or the
/// carried error) into the caller-visible result and sends the emptied
/// shell back for reuse.
fn sink_guard<T: FixedNum + Send>(
    in_rings: &[Arc<SpscRing<PipeJob<T>>>],
    output: &Arc<SpscRing<PipeResult<T>>>,
    shared: &Arc<PipelineShared>,
) -> LaneGuard<PipeJob<T>, PipeResult<T>> {
    LaneGuard {
        inputs: in_rings.to_vec(),
        outputs: vec![Arc::clone(output)],
        shared: Arc::clone(shared),
    }
}

fn sink_loop<T: FixedNum + Send>(
    index: usize,
    in_rings: Vec<Arc<SpscRing<PipeJob<T>>>>,
    in_schedule: Vec<usize>,
    reorder_capacity: usize,
    output: &Arc<SpscRing<PipeResult<T>>>,
    shared: &Arc<PipelineShared>,
) {
    // lint: allow(transitive-hot-path-alloc) lane guard is wired once, before the steady-state loop
    let _guard = sink_guard(&in_rings, output, shared);
    // lint: allow(transitive-hot-path-alloc) fan-in construction happens before the first job
    let mut input = FanIn::new(in_rings, in_schedule, 0, 1, reorder_capacity);
    let stage = &shared.stages[index];
    while let Some(mut job) = pop_counted(&mut input, stage) {
        if job.err.is_none() && job.poison_at == index {
            // lint: allow(no-panic-serving) test-only fault injection; the guard contains it
            panic!("pipeline stage 'sink' poisoned by test hook");
        }
        let value = match job.err.take() {
            Some(e) => Err(e),
            None => Ok(job.data.first().map_or(0.0, |v| v.to_f32())),
        };
        job.query.clear();
        job.data.clear();
        let seq = job.seq;
        if push_counted_ring(output, stage, PipeResult { seq, value, shell: job }).is_err() {
            break;
        }
    }
}

/// `(offset + k * stride) mod modulo` for one full period: the cyclic
/// order in which a lane visits its ring row/column. Deterministic, so
/// both sides of a mesh agree on where every sequence number travels.
fn cycle_schedule(offset: usize, stride: usize, modulo: usize) -> Vec<usize> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let period = modulo / gcd(stride, modulo).max(1);
    (0..period.max(1)).map(|k| (offset + k * stride) % modulo).collect()
}

/// The executor at one concrete datapath precision.
#[derive(Debug)]
struct TypedPipeline<T> {
    submit: FanOut<PipeJob<T>>,
    results: Arc<SpscRing<PipeResult<T>>>,
    shared: Arc<PipelineShared>,
    /// Recycled job shells; bounded by the pipeline's in-flight capacity.
    free: Vec<PipeJob<T>>,
    next_seq: u64,
    poison_at: usize,
    lookups: Vec<JoinHandle<MicroRec>>,
    stages: Vec<JoinHandle<()>>,
}

impl<T: FixedNum + Send + Sync + 'static> TypedPipeline<T> {
    fn build(engines: Vec<MicroRec>, plan: &PipelinePlan) -> Result<Self, MicroRecError> {
        let packed: PackedMlp<T> = PackedMlp::pack(engines[0].mlp());
        let layers = packed.into_layers();
        plan.validate(layers.len())?;
        if engines.len() != plan.lookup_lanes {
            return Err(MicroRecError::Runtime(format!(
                "plan wants {} lookup lanes but {} engines were provided",
                plan.lookup_lanes,
                engines.len()
            )));
        }
        let depth = plan.fifo_depth.max(1);
        let spin = plan.spin_rounds;

        // Split the packed layers into the plan's fused groups, shared
        // read-only across each stage's lanes.
        let mut groups: Vec<Arc<Vec<PackedLayer<T>>>> = Vec::with_capacity(plan.fc.len());
        let mut names: Vec<String> = Vec::with_capacity(plan.fc.len());
        let mut layer_iter = layers.into_iter();
        let mut first = 0usize;
        for stage in &plan.fc {
            let group: Vec<PackedLayer<T>> = layer_iter.by_ref().take(stage.layers).collect();
            names.push(if stage.layers == 1 {
                format!("fc{first}")
            } else {
                format!("fc{first}-{}", first + stage.layers - 1)
            });
            first += stage.layers;
            groups.push(Arc::new(group));
        }

        // Lanes per stage: lookup, each FC stage, sink.
        let mut lane_counts: Vec<usize> = Vec::with_capacity(plan.num_stages());
        lane_counts.push(plan.lookup_lanes);
        lane_counts.extend(plan.fc.iter().map(|s| s.lanes));
        lane_counts.push(1);

        let mut stage_states = Vec::with_capacity(plan.num_stages());
        stage_states.push(StageState::named("lookup".to_string(), plan.lookup_lanes));
        for (name, stage) in names.iter().zip(&plan.fc) {
            stage_states.push(StageState::named(name.clone(), stage.lanes));
        }
        stage_states.push(StageState::named("sink".to_string(), 1));
        let shared =
            Arc::new(PipelineShared { stages: stage_states, poisoned: AtomicBool::new(false) });

        // meshes[s][p][c] feeds stage s's lane c from producer lane p;
        // mesh 0's single producer is the owner. The sink writes the
        // separate result ring.
        let ring = || Arc::new(SpscRing::with_spin(depth, spin));
        let mut meshes: Vec<StageMesh<T>> = Vec::new();
        let mut mesh_capacity = 0usize;
        for (s, &consumers) in lane_counts.iter().enumerate() {
            let producers = if s == 0 { 1 } else { lane_counts[s - 1] };
            mesh_capacity += producers * consumers * depth;
            meshes.push((0..producers).map(|_| (0..consumers).map(|_| ring()).collect()).collect());
        }
        // The result ring can hold everything that can possibly be in
        // flight (every mesh slot plus one job in each lane's hands), so
        // the sink never blocks on an owner that is still submitting.
        let total_lanes: usize = lane_counts.iter().sum();
        let results: Arc<SpscRing<PipeResult<T>>> =
            Arc::new(SpscRing::new(mesh_capacity + total_lanes + 1));

        let submit = FanOut::new(meshes[0][0].clone(), cycle_schedule(0, 1, plan.lookup_lanes));

        let mut pipeline = TypedPipeline {
            submit,
            results: Arc::clone(&results),
            shared: Arc::clone(&shared),
            free: Vec::new(),
            next_seq: 0,
            poison_at: NO_POISON,
            lookups: Vec::with_capacity(plan.lookup_lanes),
            stages: Vec::new(),
        };

        let spawn_failed = |pipeline: &mut Self, name: &str, e: std::io::Error| {
            pipeline.submit.close_all();
            pipeline.join_all();
            MicroRecError::Runtime(format!("failed to spawn pipeline stage {name}: {e}"))
        };

        // The wiring of lane `c` of stage `s`: it consumes its column of
        // mesh s following the producer cycle, and feeds its row of mesh
        // s+1 following the consumer cycle.
        let wire = |s: usize, c: usize| -> LaneWiring<T> {
            let producers = if s == 0 { 1 } else { lane_counts[s - 1] };
            let consumers = lane_counts[s];
            let in_rings: Vec<_> = (0..producers).map(|p| Arc::clone(&meshes[s][p][c])).collect();
            let next_consumers = lane_counts.get(s + 1).copied().unwrap_or(1);
            let out_rings: Vec<_> =
                if s + 1 < meshes.len() { meshes[s + 1][c].clone() } else { Vec::new() };
            LaneWiring {
                in_rings,
                in_schedule: cycle_schedule(c, consumers, producers),
                first_seq: c as u64,
                seq_stride: consumers as u64,
                reorder_capacity: producers * depth,
                out_rings,
                out_schedule: cycle_schedule(c, consumers, next_consumers),
            }
        };

        for (lane, engine) in engines.into_iter().enumerate() {
            let handle =
                std::thread::Builder::new().name(format!("microrec-stage-lookup.{lane}")).spawn({
                    let wiring = wire(0, lane);
                    let shared = Arc::clone(&shared);
                    move || lookup_loop(engine, wiring, &shared)
                });
            match handle {
                Ok(h) => pipeline.lookups.push(h),
                Err(e) => return Err(spawn_failed(&mut pipeline, "lookup", e)),
            }
        }

        for (i, group) in groups.iter().enumerate() {
            let stage_index = i + 1;
            for lane in 0..plan.fc[i].lanes {
                let handle = std::thread::Builder::new()
                    .name(format!("microrec-stage-{}.{lane}", names[i]))
                    .spawn({
                        let group = Arc::clone(group);
                        let wiring = wire(stage_index, lane);
                        let shared = Arc::clone(&shared);
                        move || fc_loop(&group, stage_index, wiring, &shared)
                    });
                match handle {
                    Ok(h) => pipeline.stages.push(h),
                    Err(e) => return Err(spawn_failed(&mut pipeline, &names[i], e)),
                }
            }
        }

        let sink_index = lane_counts.len() - 1;
        let sink_producers = lane_counts[sink_index - 1];
        let handle = std::thread::Builder::new().name("microrec-stage-sink".to_string()).spawn({
            let in_rings: Vec<_> =
                (0..sink_producers).map(|p| Arc::clone(&meshes[sink_index][p][0])).collect();
            let in_schedule = cycle_schedule(0, 1, sink_producers);
            let reorder_capacity = sink_producers * depth;
            let output = Arc::clone(&results);
            let shared = Arc::clone(&shared);
            move || sink_loop(sink_index, in_rings, in_schedule, reorder_capacity, &output, &shared)
        });
        match handle {
            Ok(h) => pipeline.stages.push(h),
            Err(e) => return Err(spawn_failed(&mut pipeline, "sink", e)),
        }

        Ok(pipeline)
    }

    /// Why submissions or results fail once the rings are dead.
    fn dead_error(&self) -> MicroRecError {
        if self.shared.is_poisoned() {
            MicroRecError::Runtime("pipeline stage panicked; executor is dead".into())
        } else {
            MicroRecError::Runtime("pipeline is shut down".into())
        }
    }

    /// A job shell for `query`, recycled from the free list when one is
    /// available (steady state never allocates new shells).
    fn job_for(&mut self, query: &[u64]) -> PipeJob<T> {
        let mut job = self.free.pop().unwrap_or_else(|| PipeJob {
            seq: 0,
            // lint: allow(transitive-hot-path-alloc) fresh shell only while the free list warms up; steady state recycles
            query: Vec::new(),
            // lint: allow(transitive-hot-path-alloc) fresh shell only while the free list warms up; steady state recycles
            data: Vec::new(),
            err: None,
            poison_at: NO_POISON,
        });
        job.seq = self.next_seq;
        self.next_seq += 1;
        job.query.clear();
        job.query.extend_from_slice(query);
        job.data.clear();
        job.err = None;
        job.poison_at = self.poison_at;
        job
    }

    fn recycle(&mut self, mut shell: PipeJob<T>) {
        shell.query.clear();
        shell.data.clear();
        shell.err = None;
        self.free.push(shell);
    }

    /// One query through the whole pipeline (submit, then wait for its
    /// result). Bit-identical to the monolithic path.
    fn predict(&mut self, query: &[u64]) -> Result<f32, MicroRecError> {
        let job = self.job_for(query);
        let want = job.seq;
        if let Err(rejected) = self.submit.push_blocking(job) {
            self.recycle(rejected);
            return Err(self.dead_error());
        }
        while let Some(result) = self.results.pop_blocking() {
            let seq = result.seq;
            let value = result.value;
            self.recycle(result.shell);
            if seq == want {
                return value;
            }
        }
        Err(self.dead_error())
    }

    /// Streams a batch through the pipeline, keeping every lane busy:
    /// submissions interleave with result drains, so up to the pipeline's
    /// whole in-flight capacity of queries overlap. Results come back in
    /// submission order (the fan-in restores it at every join). Matches
    /// [`MicroRec::predict_batch`]: any failed item fails the batch.
    fn predict_batch(&mut self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError> {
        let mut out = Vec::with_capacity(queries.len());
        let mut first_err: Option<MicroRecError> = None;
        let mut submitted = 0usize;
        while out.len() < queries.len() {
            // Fill the submit mesh without blocking. A Full rejection
            // leaves the fan-out cursor in place, so un-claiming the
            // sequence number keeps job seq and dispatch lane in step.
            while submitted < queries.len() {
                let job = self.job_for(&queries[submitted]);
                match self.submit.try_push(job) {
                    Ok(()) => submitted += 1,
                    Err(SpscPushError::Full(job)) => {
                        self.recycle(job);
                        self.next_seq -= 1;
                        break;
                    }
                    Err(SpscPushError::Closed(job)) => {
                        self.recycle(job);
                        return Err(self.dead_error());
                    }
                }
            }
            // Drain one result. Blocking is safe: out.len() < submitted
            // here (a full submit ring implies jobs in flight), so the
            // pipeline always has something to deliver.
            match self.results.pop_blocking() {
                Some(result) => {
                    match result.value {
                        Ok(v) => out.push(v),
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                            out.push(f32::NAN);
                        }
                    }
                    self.recycle(result.shell);
                }
                None => return Err(self.dead_error()),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    fn join_all(&mut self) -> Vec<MicroRec> {
        // lint: allow(transitive-hot-path-alloc) shutdown path: runs once when the executor winds down
        let engines = self.lookups.drain(..).filter_map(|h| h.join().ok()).collect();
        for handle in self.stages.drain(..) {
            let _ = handle.join();
        }
        engines
    }

    /// Closes the submit mesh, drains the stages, joins their threads,
    /// and hands every lane's engine back (lanes whose thread panicked
    /// are missing from the result).
    fn shutdown(&mut self) -> Vec<MicroRec> {
        self.submit.close_all();
        self.join_all()
    }
}

impl<T> Drop for TypedPipeline<T> {
    fn drop(&mut self) {
        self.submit.close_all();
        for handle in self.lookups.drain(..) {
            let _ = handle.join();
        }
        for handle in self.stages.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Precision dispatch: the pipeline is monomorphized per datapath type,
/// chosen once from the engines' precision.
#[derive(Debug)]
enum TypedExecutor {
    F32(TypedPipeline<f32>),
    Q16(TypedPipeline<Q16>),
    Q32(TypedPipeline<Q32>),
}

/// Runs one or more [`MicroRec`] engines as a staged dataflow pipeline:
/// lanes of lookup / fused-FC / sink stages connected by bounded SPSC
/// ring meshes, with per-stage occupancy/stall/backpressure counters.
///
/// Predictions are bit-identical to [`MicroRec::predict`] at every
/// precision, arena format, and lane count; see the module docs for the
/// argument.
///
/// # Examples
///
/// ```
/// use microrec_core::{MicroRec, PipelineConfig, PipelineExecutor};
/// use microrec_embedding::ModelSpec;
///
/// let engine = MicroRec::builder(ModelSpec::dlrm_rmc2(4, 4)).build()?;
/// let mut exec = PipelineExecutor::new(engine, PipelineConfig::default())?;
/// let ctr = exec.predict(&vec![7u64; 16])?;
/// assert!(ctr > 0.0 && ctr < 1.0);
/// let stats = exec.stage_stats();
/// assert_eq!(stats.first().map(|s| s.name.as_str()), Some("lookup"));
/// # Ok::<(), microrec_core::MicroRecError>(())
/// ```
#[derive(Debug)]
pub struct PipelineExecutor {
    inner: TypedExecutor,
    plan: PipelinePlan,
}

impl PipelineExecutor {
    /// Decomposes `engine` into the fixed per-layer topology (one
    /// single-lane stage per FC layer) and starts one thread per stage.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError::Runtime`] if a stage thread cannot be
    /// spawned (already-spawned stages are shut down and joined).
    pub fn new(engine: MicroRec, config: PipelineConfig) -> Result<Self, MicroRecError> {
        let num_layers = engine.model().hidden.len() + 1;
        let plan = PipelinePlan::per_layer(num_layers, config.fifo_depth);
        Self::with_plan(vec![engine], &plan)
    }

    /// Builds the topology `plan` describes. `engines` supplies one
    /// engine per lookup lane; for bit-identical results across lane
    /// counts they must be built from the same builder (same seed and
    /// arena), which makes their gathers interchangeable.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError::Runtime`] when `engines` is empty or
    /// mismatches the plan's lookup lanes, the engines disagree on
    /// precision, the plan fails [`PipelinePlan::validate`], or a stage
    /// thread cannot be spawned.
    pub fn with_plan(engines: Vec<MicroRec>, plan: &PipelinePlan) -> Result<Self, MicroRecError> {
        let Some(first) = engines.first() else {
            return Err(MicroRecError::Runtime("pipeline needs at least one engine".into()));
        };
        let precision = first.precision();
        if engines.iter().any(|e| e.precision() != precision) {
            return Err(MicroRecError::Runtime(
                "all lookup-lane engines must share one precision".into(),
            ));
        }
        let inner = match precision {
            Precision::F32 => TypedExecutor::F32(TypedPipeline::build(engines, plan)?),
            Precision::Fixed16 => TypedExecutor::Q16(TypedPipeline::build(engines, plan)?),
            Precision::Fixed32 => TypedExecutor::Q32(TypedPipeline::build(engines, plan)?),
        };
        Ok(PipelineExecutor { inner, plan: plan.clone() })
    }

    /// The topology this executor runs.
    #[must_use]
    pub fn plan(&self) -> &PipelinePlan {
        &self.plan
    }

    /// Predicts one query's CTR through the staged pipeline.
    ///
    /// # Errors
    ///
    /// Returns the engine's error for a malformed query (the error rode
    /// through the pipeline as a failed job), or
    /// [`MicroRecError::Runtime`] once the executor is dead.
    pub fn predict(&mut self, query: &[u64]) -> Result<f32, MicroRecError> {
        match &mut self.inner {
            TypedExecutor::F32(p) => p.predict(query),
            TypedExecutor::Q16(p) => p.predict(query),
            TypedExecutor::Q32(p) => p.predict(query),
        }
    }

    /// Streams a batch through the pipeline with all lanes overlapping.
    /// Output order matches input order; any failed item fails the batch
    /// (same contract as [`MicroRec::predict_batch`]).
    ///
    /// # Errors
    ///
    /// Returns the first per-item engine error, or
    /// [`MicroRecError::Runtime`] once the executor is dead.
    pub fn predict_batch(&mut self, queries: &[Vec<u64>]) -> Result<Vec<f32>, MicroRecError> {
        match &mut self.inner {
            TypedExecutor::F32(p) => p.predict_batch(queries),
            TypedExecutor::Q16(p) => p.predict_batch(queries),
            TypedExecutor::Q32(p) => p.predict_batch(queries),
        }
    }

    /// Per-stage counters: lanes, items, stalls, backpressure, occupancy.
    #[must_use]
    pub fn stage_stats(&self) -> Vec<StageSnapshot> {
        self.shared().snapshots()
    }

    /// Number of stages (lookup + FC stages + sink).
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.shared().stages.len()
    }

    /// `false` once any lane thread has panicked.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        !self.shared().is_poisoned()
    }

    /// The counter block, for the serving runtime's snapshot path.
    pub(crate) fn shared(&self) -> &Arc<PipelineShared> {
        match &self.inner {
            TypedExecutor::F32(p) => &p.shared,
            TypedExecutor::Q16(p) => &p.shared,
            TypedExecutor::Q32(p) => &p.shared,
        }
    }

    /// Shuts the pipeline down (close, drain, join) and returns the
    /// first lookup lane's engine — with its accumulated memory/cache
    /// statistics — unless that lane panicked. Replicated lookups should
    /// use [`PipelineExecutor::shutdown_all`] so no lane's counters are
    /// dropped.
    #[must_use]
    pub fn shutdown(self) -> Option<MicroRec> {
        self.shutdown_all().into_iter().next()
    }

    /// Shuts the pipeline down and returns *every* lookup lane's engine,
    /// so per-lane cache and memory counters can be merged exactly once
    /// (lanes whose thread panicked are missing).
    #[must_use]
    pub fn shutdown_all(mut self) -> Vec<MicroRec> {
        match &mut self.inner {
            TypedExecutor::F32(p) => p.shutdown(),
            TypedExecutor::Q16(p) => p.shutdown(),
            TypedExecutor::Q32(p) => p.shutdown(),
        }
    }

    /// Test hook: every job submitted after this call panics the lane of
    /// the given stage that processes it (0 = lookup, 1..=F = fc stages,
    /// F+1 = sink), simulating a lane fault. Not part of the public API.
    #[doc(hidden)]
    pub fn poison_stage(&mut self, index: usize) {
        match &mut self.inner {
            TypedExecutor::F32(p) => p.poison_at = index,
            TypedExecutor::Q16(p) => p.poison_at = index,
            TypedExecutor::Q32(p) => p.poison_at = index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_embedding::ModelSpec;

    fn toy_engine() -> MicroRec {
        MicroRec::builder(ModelSpec::dlrm_rmc2(4, 4)).seed(11).build().unwrap()
    }

    #[test]
    fn executor_matches_monolithic_predict() {
        let mut mono = toy_engine();
        let mut exec = PipelineExecutor::new(toy_engine(), PipelineConfig::default()).unwrap();
        // Stages: lookup + one per hidden layer + the output layer + sink.
        assert_eq!(exec.num_stages(), 3 + mono.model().hidden.len());
        for k in 0..30u64 {
            let q: Vec<u64> = (0..16).map(|j| (k * 7919 + j * 104_729) % 500_000).collect();
            let want = mono.predict(&q).unwrap();
            let got = exec.predict(&q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "query {k}");
        }
        let stats = exec.stage_stats();
        assert_eq!(stats.len(), exec.num_stages());
        assert!(stats.iter().all(|s| s.items == 30), "{stats:?}");
        assert!(stats.iter().all(|s| s.lanes == 1), "{stats:?}");
        assert_eq!(stats[0].name, "lookup");
        assert_eq!(stats.last().unwrap().name, "sink");
    }

    #[test]
    fn replicated_lanes_match_monolithic_predict() {
        let mut mono = toy_engine();
        let plan = PipelinePlan {
            fifo_depth: 2,
            spin_rounds: 8,
            lookup_lanes: 2,
            fc: vec![FcStage { layers: 1, lanes: 3 }, FcStage { layers: 3, lanes: 1 }],
        };
        let mut exec =
            PipelineExecutor::with_plan(vec![toy_engine(), toy_engine()], &plan).unwrap();
        assert_eq!(exec.num_stages(), 4, "lookup + 2 fused fc stages + sink");
        let queries: Vec<Vec<u64>> = (0..40u64)
            .map(|k| (0..16).map(|j| (k * 7919 + j * 104_729) % 500_000).collect())
            .collect();
        let want: Vec<f32> = queries.iter().map(|q| mono.predict(q).unwrap()).collect();
        let got = exec.predict_batch(&queries).unwrap();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "query {i}");
        }
        let stats = exec.stage_stats();
        assert_eq!(stats[0].lanes, 2);
        assert_eq!(stats[1].lanes, 3);
        assert_eq!(stats[1].name, "fc0");
        assert_eq!(stats[2].name, "fc1-3");
        assert_eq!(stats.iter().map(|s| s.items).max(), Some(40));
        let engines = exec.shutdown_all();
        assert_eq!(engines.len(), 2, "every lookup lane's engine comes back");
    }

    #[test]
    fn lookup_lanes_observe_a_published_generation() {
        use crate::epoch::{ArenaGeneration, GenerationCell};
        use microrec_embedding::RowFormat;
        use std::sync::Arc;
        // The gather runs on the lookup stage threads; a generation
        // published mid-serve must be adopted there at the next batch
        // boundary, on every lane, without changing any bits.
        let mut builder =
            MicroRec::builder(ModelSpec::dlrm_rmc2(4, 4)).seed(11).embedding_arena(RowFormat::F32);
        builder.prepare_shared_arena().unwrap();
        let arena = Arc::clone(builder.shared_arena_handle().unwrap());
        let cell = GenerationCell::new(ArenaGeneration::from_arena(Arc::clone(&arena)));
        let builder = builder.epoch_cell(Arc::clone(&cell));
        let plan = PipelinePlan {
            fifo_depth: 2,
            spin_rounds: 8,
            lookup_lanes: 2,
            fc: vec![FcStage { layers: 4, lanes: 1 }],
        };
        let engines = vec![builder.clone().build().unwrap(), builder.clone().build().unwrap()];
        let mut exec = PipelineExecutor::with_plan(engines, &plan).unwrap();
        let queries: Vec<Vec<u64>> = (0..24u64)
            .map(|k| (0..16).map(|j| (k * 7919 + j * 104_729) % 500_000).collect())
            .collect();
        let want = exec.predict_batch(&queries).unwrap();

        let channels: Vec<usize> = (0..arena.num_tables()).map(|i| (i + 1) % 2).collect();
        let rebuilt = arena.rebuild_with_channels(&channels, 1).unwrap();
        cell.publish(ArenaGeneration::from_arena(Arc::new(rebuilt)));

        let got = exec.predict_batch(&queries).unwrap();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "query {i} changed bits across the swap");
        }
        for engine in exec.shutdown_all() {
            assert_eq!(engine.store_generation(), 1, "a lookup lane missed the swap");
        }
    }

    #[test]
    fn malformed_query_fails_item_not_pipeline() {
        let mut exec = PipelineExecutor::new(toy_engine(), PipelineConfig::default()).unwrap();
        assert!(exec.predict(&[0u64; 3]).is_err(), "wrong arity must fail");
        // The pipeline survives and keeps serving.
        assert!(exec.is_healthy());
        let q = vec![5u64; 16];
        assert!(exec.predict(&q).is_ok());
    }

    #[test]
    fn shutdown_returns_engine_with_stats() {
        let mut exec = PipelineExecutor::new(toy_engine(), PipelineConfig::default()).unwrap();
        let q = vec![9u64; 16];
        exec.predict(&q).unwrap();
        let engine = exec.shutdown().expect("engine comes back");
        // 4 tables x 4 rounds of physical reads ran against its memory.
        assert_eq!(engine.memory().stats().total().reads, 16);
    }

    #[test]
    fn fifo_depth_one_still_correct() {
        let mut mono = toy_engine();
        let mut exec =
            PipelineExecutor::new(toy_engine(), PipelineConfig { fifo_depth: 1 }).unwrap();
        let queries: Vec<Vec<u64>> =
            (0..10).map(|k| (0..16).map(|j| (k * 13 + j) as u64 % 1000).collect()).collect();
        let want: Vec<f32> = queries.iter().map(|q| mono.predict(q).unwrap()).collect();
        let got = exec.predict_batch(&queries).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn cycle_schedule_is_a_full_period() {
        assert_eq!(cycle_schedule(0, 1, 3), vec![0, 1, 2]);
        assert_eq!(cycle_schedule(1, 3, 1), vec![0]);
        // 3 producers feeding 2 consumers: consumer 0 cycles producers
        // 0, 2, 1 (seqs 0, 2, 4 mod 3).
        assert_eq!(cycle_schedule(0, 2, 3), vec![0, 2, 1]);
        // 2 producers feeding 4 consumers: producer 0's items (seq 0,
        // 2, ...) land on consumers 0, 2 cyclically.
        assert_eq!(cycle_schedule(0, 2, 4), vec![0, 2]);
    }
}
