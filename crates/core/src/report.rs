//! Comparison reports: CPU baseline vs MicroRec.
//!
//! These types regenerate the paper's evaluation tables. Speedups follow
//! the paper's definitions exactly:
//!
//! * **End-to-end (Table 2)** — CPU batch latency at batch `B` divided by
//!   the FPGA's *batch latency* for the same `B` (pipeline fill plus
//!   `B − 1` initiation intervals; the caption notes the FPGA figure
//!   "consists of both the stable stages ... as well as the time overhead
//!   of starting and ending").
//! * **Embedding layer (Table 4)** — CPU embedding-layer latency at `B`
//!   divided by `B ×` the accelerator's per-item lookup latency.

use microrec_cpu::CpuTimingModel;
use microrec_embedding::{ModelSpec, Precision};
use microrec_memsim::SimTime;

use crate::engine::MicroRec;
use crate::error::MicroRecError;
use crate::pipeline::{Calibration, PipelinePlan, StageSnapshot};
use crate::router::RouterSnapshot;
use crate::runtime::{ReplayOutcome, RuntimeConfig, RuntimeLookupStats};

/// One CPU operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPoint {
    /// Batch size.
    pub batch: u64,
    /// Batch latency.
    pub latency: SimTime,
    /// Throughput in items per second.
    pub items_per_sec: f64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
}

/// One FPGA operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaPoint {
    /// Datapath precision.
    pub precision: Precision,
    /// Single-item latency.
    pub latency: SimTime,
    /// Steady-state throughput in items per second.
    pub items_per_sec: f64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
}

/// End-to-end comparison for one model (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndReport {
    /// Model name.
    pub model: String,
    /// CPU rows, one per batch size.
    pub cpu: Vec<CpuPoint>,
    /// FPGA single-item point.
    pub fpga: FpgaPoint,
    /// FPGA batch latency per CPU batch size (for the speedup rows).
    pub fpga_batch_latency: Vec<SimTime>,
}

impl EndToEndReport {
    /// Builds the report by running the CPU timing model at each batch and
    /// the already-built `engine` for the FPGA side.
    #[must_use]
    pub fn build(engine: &MicroRec, cpu: &CpuTimingModel, batches: &[u64]) -> Self {
        let model = engine.model();
        let cpu_points = batches
            .iter()
            .map(|&b| CpuPoint {
                batch: b,
                latency: cpu.total_time(model, b),
                items_per_sec: cpu.throughput_items_per_sec(model, b),
                ops_per_sec: cpu.throughput_ops_per_sec(model, b),
            })
            .collect();
        let fpga = FpgaPoint {
            precision: engine.precision(),
            latency: engine.latency(),
            items_per_sec: engine.throughput_items_per_sec(),
            ops_per_sec: engine.throughput_ops_per_sec(),
        };
        let fpga_batch_latency = batches.iter().map(|&b| engine.batch_latency(b)).collect();
        EndToEndReport { model: model.name.clone(), cpu: cpu_points, fpga, fpga_batch_latency }
    }

    /// Speedup of the FPGA over the CPU at each batch size (the paper's
    /// "Speedup: FPGA" rows).
    #[must_use]
    pub fn speedups(&self) -> Vec<f64> {
        self.cpu
            .iter()
            .zip(&self.fpga_batch_latency)
            .map(|(c, &f)| c.latency.as_ns() / f.as_ns())
            .collect()
    }
}

/// Embedding-layer comparison for one model (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingReport {
    /// Model name.
    pub model: String,
    /// CPU embedding-layer latency per batch size.
    pub cpu: Vec<(u64, SimTime)>,
    /// Per-item lookup latency, HBM only (no Cartesian merging).
    pub fpga_hbm: SimTime,
    /// Per-item lookup latency with HBM + Cartesian products.
    pub fpga_hbm_cartesian: SimTime,
}

impl EmbeddingReport {
    /// Builds the report from the two engines (merged and unmerged).
    #[must_use]
    pub fn build(
        merged: &MicroRec,
        unmerged: &MicroRec,
        cpu: &CpuTimingModel,
        batches: &[u64],
    ) -> Self {
        let model = merged.model();
        EmbeddingReport {
            model: model.name.clone(),
            cpu: batches.iter().map(|&b| (b, cpu.embedding_time(model, b))).collect(),
            fpga_hbm: unmerged.placement_cost().lookup_latency,
            fpga_hbm_cartesian: merged.placement_cost().lookup_latency,
        }
    }

    /// `(speedup_hbm, speedup_hbm_cartesian)` per batch size.
    #[must_use]
    pub fn speedups(&self) -> Vec<(u64, f64, f64)> {
        self.cpu
            .iter()
            .map(|&(b, t)| {
                let fpga_hbm = self.fpga_hbm.as_ns() * b as f64;
                let fpga_cart = self.fpga_hbm_cartesian.as_ns() * b as f64;
                (b, t.as_ns() / fpga_hbm, t.as_ns() / fpga_cart)
            })
            .collect()
    }
}

/// AWS rental prices of the appendix cost comparison (USD per hour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AwsPrices {
    /// The CPU server (16 vCPU).
    pub cpu_per_hour: f64,
    /// The FPGA server (U250-class).
    pub fpga_per_hour: f64,
}

impl Default for AwsPrices {
    fn default() -> Self {
        // Appendix: $1.82/h CPU vs $1.65/h FPGA.
        AwsPrices { cpu_per_hour: 1.82, fpga_per_hour: 1.65 }
    }
}

/// Cost-efficiency comparison (appendix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// USD per million inferences on the CPU server.
    pub cpu_usd_per_million: f64,
    /// USD per million inferences on the FPGA server.
    pub fpga_usd_per_million: f64,
}

impl CostReport {
    /// Computes cost per million inferences from throughputs.
    #[must_use]
    pub fn build(cpu_items_per_sec: f64, fpga_items_per_sec: f64, prices: AwsPrices) -> Self {
        let per_million = |price_per_hour: f64, rate: f64| price_per_hour / 3600.0 / rate * 1e6;
        CostReport {
            cpu_usd_per_million: per_million(prices.cpu_per_hour, cpu_items_per_sec),
            fpga_usd_per_million: per_million(prices.fpga_per_hour, fpga_items_per_sec),
        }
    }

    /// How many times cheaper the FPGA serves a fixed query volume.
    #[must_use]
    pub fn advantage(&self) -> f64 {
        self.cpu_usd_per_million / self.fpga_usd_per_million
    }
}

/// Embedding-lookup counters for one serving run: which row format the
/// engines stored, how the hot-row cache performed, and how many bytes
/// the lookups moved from cache versus backing memory. Attached to
/// [`ServingFrontierRecord`] as the optional `lookup` field, so records
/// written before the fast path existed still parse.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupCountersRecord {
    /// Arena row format (`"f32"`, `"f16"`, or `"i8"`).
    pub format: String,
    /// Hot-row cache capacity in rows (0 = cache disabled).
    pub cache_rows: u64,
    /// Cache hits across all tables and workers.
    pub hits: u64,
    /// Cache misses across all tables and workers.
    pub misses: u64,
    /// `hits / (hits + misses)`; 0 when no lookups ran.
    pub hit_rate: f64,
    /// Feature bytes served from the cache (dequantized f32).
    pub bytes_from_cache: u64,
    /// Source-row bytes fetched from backing storage on misses.
    pub bytes_from_memory: u64,
    /// Cache hits per logical table.
    pub per_table_hits: Vec<u64>,
    /// Cache misses per logical table.
    pub per_table_misses: Vec<u64>,
    /// Rows served by the tiered store's resident arena; `None` for runs
    /// that predate the tiered store or did not use it (records written
    /// without these per-tier keys still parse).
    pub resident_hits: Option<u64>,
    /// Rows read from the file-backed cold tier.
    pub cold_reads: Option<u64>,
    /// Cold reads fully overlapped by the async prefetcher.
    pub prefetch_hits: Option<u64>,
    /// Bytes moved off the cold store.
    pub bytes_from_cold: Option<u64>,
}

microrec_json::impl_json_struct!(
    LookupCountersRecord,
    required {
        format,
        cache_rows,
        hits,
        misses,
        hit_rate,
        bytes_from_cache,
        bytes_from_memory,
        per_table_hits,
        per_table_misses,
    },
    default { resident_hits, cold_reads, prefetch_hits, bytes_from_cold }
);

impl LookupCountersRecord {
    /// Converts the runtime's aggregated lookup stats into the record form.
    /// Per-tier fields are populated only for tiered runs.
    #[must_use]
    pub fn from_stats(stats: &RuntimeLookupStats) -> Self {
        LookupCountersRecord {
            format: stats.format.to_string(),
            cache_rows: stats.cache_rows as u64,
            hits: stats.hits,
            misses: stats.misses,
            hit_rate: stats.hit_rate(),
            bytes_from_cache: stats.bytes_from_cache,
            bytes_from_memory: stats.bytes_from_memory,
            per_table_hits: stats.per_table_hits.clone(),
            per_table_misses: stats.per_table_misses.clone(),
            resident_hits: stats.tiered.then_some(stats.resident_hits),
            cold_reads: stats.tiered.then_some(stats.cold_reads),
            prefetch_hits: stats.tiered.then_some(stats.prefetch_hits),
            bytes_from_cold: stats.tiered.then_some(stats.bytes_from_cold),
        }
    }
}

/// Counters of one dataflow-pipeline stage, in the form bench records
/// persist (`BENCH_pipeline.json`). Built from the executor's or the
/// runtime's [`StageSnapshot`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStageRecord {
    /// Stage name (`"lookup"`, `"fc0"`…, `"sink"`).
    pub stage: String,
    /// Jobs the stage processed.
    pub items: u64,
    /// Pops that found the stage's input FIFO empty.
    pub stalls: u64,
    /// Pushes that found the stage's output FIFO full.
    pub backpressure: u64,
    /// Mean input-FIFO occupancy observed at pop time.
    pub mean_occupancy: f64,
    /// Parallel lanes the stage ran as (0 in records written before
    /// replication existed; treat 0 and 1 the same).
    pub lanes: u64,
}

microrec_json::impl_json_struct!(
    PipelineStageRecord,
    required { stage, items, stalls, backpressure, mean_occupancy },
    default { lanes }
);

impl PipelineStageRecord {
    /// Converts one stage's counters into the record form.
    #[must_use]
    pub fn from_snapshot(snapshot: &StageSnapshot) -> Self {
        PipelineStageRecord {
            stage: snapshot.name.clone(),
            items: snapshot.items,
            stalls: snapshot.stalls,
            backpressure: snapshot.backpressure,
            mean_occupancy: snapshot.mean_occupancy(),
            lanes: snapshot.lanes,
        }
    }
}

/// The auto-tuner's measured cost model and the topology it solved, in
/// the form bench records persist (`BENCH_pipeline.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRecord {
    /// Human-readable lane topology (see [`PipelinePlan::summary`]).
    pub plan: String,
    /// FIFO depth the plan settled on.
    pub fifo_depth: u64,
    /// SPSC spin budget the plan settled on.
    pub spin_rounds: u64,
    /// Measured gather + quantize time of the lookup stage (µs/item).
    pub lookup_us: f64,
    /// Measured per-layer packed forward times (µs/item, layer order).
    pub layer_us: Vec<f64>,
    /// Measured one-way cross-thread handoff cost (µs).
    pub hop_us: f64,
    /// Measured monolithic `predict` time (µs/item).
    pub monolithic_us: f64,
    /// Measured pilot run of the solved topology (µs/item).
    pub pipelined_us: f64,
    /// Core budget the solver worked with.
    pub cores: u64,
    /// The execution mode the cost model chose.
    pub chosen: String,
}

microrec_json::impl_json_struct!(
    CalibrationRecord,
    required {
        plan,
        fifo_depth,
        spin_rounds,
        lookup_us,
        layer_us,
        hop_us,
        monolithic_us,
        pipelined_us,
        cores,
        chosen
    }
);

impl CalibrationRecord {
    /// Converts a calibration and its solved plan into the record form.
    #[must_use]
    pub fn from_calibration(calibration: &Calibration, plan: &PipelinePlan) -> Self {
        CalibrationRecord {
            plan: plan.summary(),
            fifo_depth: plan.fifo_depth as u64,
            spin_rounds: plan.spin_rounds as u64,
            lookup_us: calibration.lookup_us,
            layer_us: calibration.layer_us.clone(),
            hop_us: calibration.hop_us,
            monolithic_us: calibration.monolithic_us,
            pipelined_us: calibration.pipelined_us,
            cores: calibration.cores as u64,
            chosen: crate::router::PathCostModel::from_calibration(calibration, plan)
                .choose_mode()
                .as_str()
                .to_string(),
        }
    }
}

/// One path's routing statistics, in the form bench records persist.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterPathRecord {
    /// Path name (`"monolithic"`, `"monolithic-nocache"`, `"pipelined"`,
    /// `"pool"`…).
    pub path: String,
    /// Engine variant (`"monolithic"`, `"pipelined"`, `"replicated"`,
    /// `"pool"`).
    pub kind: String,
    /// Arena row format label.
    pub format: String,
    /// Whether a hot-row cache fronts this path.
    pub cached: bool,
    /// Batches the router dispatched to this path.
    pub dispatches: u64,
    /// Items the router dispatched to this path.
    pub items: u64,
    /// Mean predicted batch latency at dispatch time (µs).
    pub mean_predicted_us: f64,
    /// Mean observed batch latency (µs).
    pub mean_observed_us: f64,
    /// Calibrated per-batch fixed cost (µs).
    pub fixed_us: f64,
    /// Calibrated marginal per-item cost (µs).
    pub per_item_us: f64,
    /// Calibrated single-item latency (µs) — the SLO guard's metric.
    pub single_us: f64,
}

microrec_json::impl_json_struct!(
    RouterPathRecord,
    required {
        path,
        kind,
        format,
        cached,
        dispatches,
        items,
        mean_predicted_us,
        mean_observed_us,
        fixed_us,
        per_item_us,
        single_us,
    }
);

/// Aggregate router statistics for one run (`BENCH_serving.json`'s
/// optional `router` field and the `serve --live --routed` summary).
#[derive(Debug, Clone, PartialEq)]
pub struct RouterRecord {
    /// One row per registered path, in registration order.
    pub paths: Vec<RouterPathRecord>,
    /// Times the SLO guard engaged and took the lowest-latency path.
    pub slo_fallbacks: u64,
    /// Staleness re-probe dispatches.
    pub probes: u64,
    /// Final traffic-cacheability estimate (-1 when the sketch never
    /// warmed).
    pub traffic_hit_rate: f64,
}

microrec_json::impl_json_struct!(
    RouterRecord,
    required { paths, slo_fallbacks, probes, traffic_hit_rate }
);

impl RouterRecord {
    /// Converts a router snapshot into the record form.
    #[must_use]
    pub fn from_snapshot(snapshot: &RouterSnapshot) -> Self {
        RouterRecord {
            paths: snapshot
                .paths
                .iter()
                .map(|p| RouterPathRecord {
                    path: p.descriptor.name.to_string(),
                    kind: p.descriptor.kind.as_str().to_string(),
                    format: p.descriptor.format.to_string(),
                    cached: p.descriptor.cached,
                    dispatches: p.dispatches,
                    items: p.items,
                    mean_predicted_us: p.mean_predicted_us,
                    mean_observed_us: p.mean_observed_us,
                    fixed_us: p.cost.fixed_us,
                    per_item_us: p.cost.per_item_us,
                    single_us: p.cost.single_us,
                })
                .collect(),
            slo_fallbacks: snapshot.slo_fallbacks,
            probes: snapshot.probes,
            traffic_hit_rate: snapshot.traffic_hit_rate.unwrap_or(-1.0),
        }
    }
}

/// One online placement migration: what triggered it, the plan delta, and
/// how long the shielded rebuild and the publish took. Attached to
/// [`ServingFrontierRecord`] as the optional `migrations` field, so
/// records written before traffic-adaptive placement existed still parse.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Layout generation published by this migration (the as-built layout
    /// is generation 0).
    pub generation: u64,
    /// Total hot-row-cache hits in the trigger window (since the previous
    /// migration, or startup).
    pub trigger_hits: u64,
    /// Total hot-row-cache misses in the trigger window — the counts the
    /// traffic profile was distilled from.
    pub trigger_misses: u64,
    /// Predicted fractional improvement of the weighted lookup score
    /// (`(old - new) / old`) that cleared the policy threshold.
    pub divergence: f64,
    /// Traffic-weighted lookup score of the old layout (µs).
    pub old_weighted_us: f64,
    /// Traffic-weighted lookup score of the new layout (µs).
    pub new_weighted_us: f64,
    /// Logical tables whose channel assignment changed.
    pub tables_moved: u64,
    /// Wall-clock time of the off-thread arena rebuild (µs).
    pub build_us: f64,
    /// Wall-clock time of the publish itself (µs) — the only step the
    /// serving path can observe, and it is one mutex store plus an atomic
    /// bump.
    pub swap_us: f64,
}

microrec_json::impl_json_struct!(
    MigrationRecord,
    required {
        generation,
        trigger_hits,
        trigger_misses,
        divergence,
        old_weighted_us,
        new_weighted_us,
        tables_moved,
        build_us,
        swap_us,
    }
);

/// One point on the serving runtime's QPS/tail-latency frontier: the
/// outcome of replaying one offered load through one runtime
/// configuration. Serializes to the `BENCH_serving.json` row format.
/// Records written while batches still closed on a deadline also carry
/// that deadline as a key of its own; unknown keys are ignored on read.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingFrontierRecord {
    /// Offered Poisson load (queries per second).
    pub offered_qps: f64,
    /// Sustained completion rate (queries per second).
    pub qps: f64,
    /// Median enqueue→completion latency (µs).
    pub p50_us: f64,
    /// 95th-percentile latency (µs).
    pub p95_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
    /// 99.9th-percentile latency (µs).
    pub p999_us: f64,
    /// Mean latency (µs).
    pub mean_latency_us: f64,
    /// Fraction of offered requests dropped at admission.
    pub drop_rate: f64,
    /// Mean requests per executed micro-batch.
    pub mean_batch_size: f64,
    /// Worker threads (engine replicas).
    pub workers: u64,
    /// Batch-size close threshold.
    pub max_batch: u64,
    /// Admission-queue capacity.
    pub queue_depth: u64,
    /// Requests that produced a prediction.
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Embedding-lookup counters, when the run used the arena fast path.
    /// Absent from records written before the fast path existed.
    pub lookup: Option<LookupCountersRecord>,
    /// Per-path routing counters, when the run used routed execution.
    /// Absent from records written before the router existed.
    pub router: Option<RouterRecord>,
    /// Online placement migrations the run performed, when it served with
    /// `--adaptive`. Absent from records written before traffic-adaptive
    /// placement existed.
    pub migrations: Option<Vec<MigrationRecord>>,
}

microrec_json::impl_json_struct!(
    ServingFrontierRecord,
    required {
        offered_qps,
        qps,
        p50_us,
        p95_us,
        p99_us,
        p999_us,
        mean_latency_us,
        drop_rate,
        mean_batch_size,
        workers,
        max_batch,
        queue_depth,
        completed,
        rejected,
    },
    default { lookup, router, migrations }
);

impl ServingFrontierRecord {
    /// Builds the record for one replayed load point.
    #[must_use]
    pub fn from_run(config: &RuntimeConfig, outcome: &ReplayOutcome) -> Self {
        let snap = &outcome.snapshot;
        ServingFrontierRecord {
            offered_qps: outcome.offered_qps,
            qps: outcome.qps,
            p50_us: snap.latency.p50_us,
            p95_us: snap.latency.p95_us,
            p99_us: snap.latency.p99_us,
            p999_us: snap.latency.p999_us,
            mean_latency_us: snap.mean_latency_us,
            drop_rate: snap.drop_rate(),
            mean_batch_size: snap.mean_batch_size,
            workers: config.workers as u64,
            max_batch: config.max_batch as u64,
            queue_depth: config.queue_depth as u64,
            completed: outcome.completed as u64,
            rejected: outcome.rejected as u64,
            lookup: None,
            router: None,
            migrations: None,
        }
    }

    /// Attaches embedding-lookup counters from a runtime's aggregated
    /// stats (builder style, for use after [`Self::from_run`]).
    #[must_use]
    pub fn with_lookup(mut self, stats: &RuntimeLookupStats) -> Self {
        self.lookup = Some(LookupCountersRecord::from_stats(stats));
        self
    }

    /// Attaches per-path routing counters from a routed runtime (builder
    /// style, for use after [`Self::from_run`]).
    #[must_use]
    pub fn with_router(mut self, snapshot: &RouterSnapshot) -> Self {
        self.router = Some(RouterRecord::from_snapshot(snapshot));
        self
    }

    /// Attaches the online migrations an adaptive run performed (builder
    /// style, for use after [`Self::from_run`]).
    #[must_use]
    pub fn with_migrations(mut self, records: &[MigrationRecord]) -> Self {
        self.migrations = Some(records.to_vec());
        self
    }
}

/// Convenience: builds the full Table 2 report for `model` at `precision`.
///
/// # Errors
///
/// Returns [`MicroRecError`] if the engine cannot be built.
pub fn end_to_end_report(
    model: &ModelSpec,
    precision: Precision,
    batches: &[u64],
) -> Result<EndToEndReport, MicroRecError> {
    let engine = MicroRec::builder(model.clone()).precision(precision).build()?;
    Ok(EndToEndReport::build(&engine, &CpuTimingModel::aws_16vcpu(), batches))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BATCHES: [u64; 6] = [1, 64, 256, 512, 1024, 2048];

    #[test]
    fn table2_speedup_small_fp16_matches_paper() {
        let report =
            end_to_end_report(&ModelSpec::small_production(), Precision::Fixed16, &BATCHES)
                .unwrap();
        let speedups = report.speedups();
        // Paper: 204.72x at B=1 down to 4.19x at B=2048.
        let b1 = speedups[0];
        let b2048 = speedups[5];
        assert!((100.0..350.0).contains(&b1), "B=1 speedup {b1:.1}");
        assert!((3.0..6.0).contains(&b2048), "B=2048 speedup {b2048:.2}");
        // Speedups decrease with batch size.
        for w in speedups.windows(2) {
            assert!(w[1] <= w[0], "speedups must decrease with batch");
        }
    }

    #[test]
    fn table2_speedup_large_fp32_matches_paper() {
        let report =
            end_to_end_report(&ModelSpec::large_production(), Precision::Fixed32, &BATCHES)
                .unwrap();
        let speedups = report.speedups();
        // Paper: 241.54x at B=1, 3.39x at B=2048.
        assert!((120.0..420.0).contains(&speedups[0]), "B=1 speedup {:.1}", speedups[0]);
        assert!((2.4..4.8).contains(&speedups[5]), "B=2048 speedup {:.2}", speedups[5]);
    }

    #[test]
    fn fpga_wins_at_every_batch_size() {
        for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
            for precision in [Precision::Fixed16, Precision::Fixed32] {
                let report = end_to_end_report(&model, precision, &BATCHES).unwrap();
                for (i, s) in report.speedups().iter().enumerate() {
                    assert!(*s > 1.0, "{} {precision} B={} speedup {s}", model.name, BATCHES[i]);
                }
            }
        }
    }

    #[test]
    fn cost_report_matches_appendix_conclusion() {
        // Appendix: 4-5x speedup at fixed-32 with a cheaper instance =>
        // clear long-term benefit.
        let report =
            end_to_end_report(&ModelSpec::small_production(), Precision::Fixed32, &[2048]).unwrap();
        let cost = CostReport::build(
            report.cpu[0].items_per_sec,
            report.fpga.items_per_sec,
            AwsPrices::default(),
        );
        assert!(cost.advantage() > 2.0, "advantage {:.2}", cost.advantage());
        assert!(cost.fpga_usd_per_million < cost.cpu_usd_per_million);
    }

    #[test]
    fn serving_record_without_lookup_field_still_parses() {
        // Records committed before the embedding fast path existed carry
        // no `lookup` key; decoding must default it to `None`.
        let old = r#"{
            "offered_qps": 1000.0, "qps": 990.0,
            "p50_us": 10.0, "p95_us": 20.0, "p99_us": 30.0, "p999_us": 40.0,
            "mean_latency_us": 12.0, "drop_rate": 0.01, "mean_batch_size": 4.0,
            "workers": 2, "max_batch": 8, "max_wait_us": 100, "queue_depth": 64,
            "completed": 990, "rejected": 10
        }"#;
        let rec: ServingFrontierRecord = microrec_json::from_str(old).unwrap();
        assert_eq!(rec.lookup, None);
        assert_eq!(rec.router, None);
        assert_eq!(rec.completed, 990);
    }

    #[test]
    fn serving_record_with_router_round_trips_and_old_records_still_parse() {
        // A PR 4-era record: has `lookup` but predates `router`.
        let pre_router = r#"{
            "offered_qps": 1000.0, "qps": 990.0,
            "p50_us": 10.0, "p95_us": 20.0, "p99_us": 30.0, "p999_us": 40.0,
            "mean_latency_us": 12.0, "drop_rate": 0.01, "mean_batch_size": 4.0,
            "workers": 2, "max_batch": 8, "max_wait_us": 100, "queue_depth": 64,
            "completed": 990, "rejected": 10,
            "lookup": {
                "format": "f16", "cache_rows": 4096, "hits": 900, "misses": 100,
                "hit_rate": 0.9, "bytes_from_cache": 57600, "bytes_from_memory": 3200,
                "per_table_hits": [450, 450], "per_table_misses": [50, 50]
            }
        }"#;
        let mut rec: ServingFrontierRecord = microrec_json::from_str(pre_router).unwrap();
        assert!(rec.lookup.is_some());
        assert_eq!(rec.router, None);

        rec.router = Some(RouterRecord {
            paths: vec![RouterPathRecord {
                path: "monolithic".to_string(),
                kind: "monolithic".to_string(),
                format: "f16".to_string(),
                cached: true,
                dispatches: 120,
                items: 1900,
                mean_predicted_us: 800.0,
                mean_observed_us: 820.0,
                fixed_us: 5.0,
                per_item_us: 50.0,
                single_us: 55.0,
            }],
            slo_fallbacks: 3,
            probes: 2,
            traffic_hit_rate: 0.82,
        });
        let encoded = microrec_json::to_string(&rec);
        let back: ServingFrontierRecord = microrec_json::from_str(&encoded).unwrap();
        assert_eq!(back, rec);
        let router = back.router.unwrap();
        assert_eq!(router.paths.len(), 1);
        assert_eq!(router.paths[0].path, "monolithic");
        assert_eq!(router.slo_fallbacks, 3);
    }

    #[test]
    fn serving_record_without_migrations_field_still_parses() {
        // A PR 7-era record: has `lookup` and `router` semantics but
        // predates traffic-adaptive placement, so no `migrations` key;
        // decoding must default it to `None`.
        let pre_adaptive = r#"{
            "offered_qps": 1000.0, "qps": 990.0,
            "p50_us": 10.0, "p95_us": 20.0, "p99_us": 30.0, "p999_us": 40.0,
            "mean_latency_us": 12.0, "drop_rate": 0.01, "mean_batch_size": 4.0,
            "workers": 2, "max_batch": 8, "max_wait_us": 100, "queue_depth": 64,
            "completed": 990, "rejected": 10,
            "lookup": {
                "format": "f16", "cache_rows": 4096, "hits": 900, "misses": 100,
                "hit_rate": 0.9, "bytes_from_cache": 57600, "bytes_from_memory": 3200,
                "per_table_hits": [450, 450], "per_table_misses": [50, 50]
            }
        }"#;
        let rec: ServingFrontierRecord = microrec_json::from_str(pre_adaptive).unwrap();
        assert_eq!(rec.migrations, None);
        assert!(rec.lookup.is_some());

        // And the migration-extended form round-trips.
        let extended = rec.with_migrations(&[MigrationRecord {
            generation: 1,
            trigger_hits: 42_000,
            trigger_misses: 18_000,
            divergence: 0.12,
            old_weighted_us: 1.9,
            new_weighted_us: 1.67,
            tables_moved: 3,
            build_us: 5200.0,
            swap_us: 4.0,
        }]);
        let encoded = microrec_json::to_string(&extended);
        let back: ServingFrontierRecord = microrec_json::from_str(&encoded).unwrap();
        assert_eq!(back, extended);
        let migrations = back.migrations.unwrap();
        assert_eq!(migrations.len(), 1);
        assert_eq!(migrations[0].generation, 1);
        assert_eq!(migrations[0].tables_moved, 3);
    }

    #[test]
    fn serving_record_with_lookup_round_trips() {
        let old = r#"{
            "offered_qps": 1000.0, "qps": 990.0,
            "p50_us": 10.0, "p95_us": 20.0, "p99_us": 30.0, "p999_us": 40.0,
            "mean_latency_us": 12.0, "drop_rate": 0.01, "mean_batch_size": 4.0,
            "workers": 2, "max_batch": 8, "max_wait_us": 100, "queue_depth": 64,
            "completed": 990, "rejected": 10
        }"#;
        let mut rec: ServingFrontierRecord = microrec_json::from_str(old).unwrap();
        rec.lookup = Some(LookupCountersRecord {
            format: "f16".to_string(),
            cache_rows: 4096,
            hits: 900,
            misses: 100,
            hit_rate: 0.9,
            bytes_from_cache: 57600,
            bytes_from_memory: 3200,
            per_table_hits: vec![450, 450],
            per_table_misses: vec![50, 50],
            resident_hits: Some(80),
            cold_reads: Some(20),
            prefetch_hits: Some(18),
            bytes_from_cold: Some(640),
        });
        let encoded = microrec_json::to_string(&rec);
        let back: ServingFrontierRecord = microrec_json::from_str(&encoded).unwrap();
        assert_eq!(back, rec);
        let lookup = back.lookup.unwrap();
        assert_eq!(lookup.format, "f16");
        assert_eq!(lookup.per_table_hits, vec![450, 450]);
        assert_eq!(lookup.cold_reads, Some(20));
    }

    #[test]
    fn lookup_record_without_tier_fields_still_parses() {
        // A PR 4-era `lookup` block predates the tiered parameter store:
        // no per-tier keys; decoding must default each of them to `None`.
        let pre_tiered = r#"{
            "format": "f16", "cache_rows": 4096, "hits": 900, "misses": 100,
            "hit_rate": 0.9, "bytes_from_cache": 57600, "bytes_from_memory": 3200,
            "per_table_hits": [450, 450], "per_table_misses": [50, 50]
        }"#;
        let rec: LookupCountersRecord = microrec_json::from_str(pre_tiered).unwrap();
        assert_eq!(rec.resident_hits, None);
        assert_eq!(rec.cold_reads, None);
        assert_eq!(rec.prefetch_hits, None);
        assert_eq!(rec.bytes_from_cold, None);
        assert_eq!(rec.hits, 900);
        // And the tier-extended form round-trips.
        let tiered = LookupCountersRecord {
            resident_hits: Some(700),
            cold_reads: Some(200),
            prefetch_hits: Some(180),
            bytes_from_cold: Some(6400),
            ..rec
        };
        let encoded = microrec_json::to_string(&tiered);
        let back: LookupCountersRecord = microrec_json::from_str(&encoded).unwrap();
        assert_eq!(back, tiered);
    }

    #[test]
    fn cpu_points_are_self_consistent() {
        let report =
            end_to_end_report(&ModelSpec::small_production(), Precision::Fixed16, &[256]).unwrap();
        let p = report.cpu[0];
        let implied = p.batch as f64 / p.latency.as_secs();
        assert!((implied - p.items_per_sec).abs() / p.items_per_sec < 1e-9);
    }
}
