//! Hybrid CPU+FPGA serving (DeepRecSys-style scheduling).
//!
//! Gupta et al. 2020a (§6's related work) maximize throughput under a
//! latency constraint by splitting query streams between CPUs and
//! accelerators. With both engines modelled here, the same idea is a small
//! router: queries go to the MicroRec pipeline while its backlog stays
//! bounded, and overflow spills to the batching CPU engine, which is happy
//! to trade latency for throughput. The tests show the crossover the
//! scheduling paper is about: below FPGA capacity the router sends
//! everything to the accelerator; past it, the CPU absorbs the overflow
//! and keeps the SLA hit rate from collapsing.

use microrec_cpu::CpuTimingModel;
use microrec_embedding::ModelSpec;
use microrec_memsim::SimTime;
use microrec_workload::{simulate_batched_serving, LatencyStats, WorkloadError};

use crate::engine::MicroRec;
use crate::serve::ServingReport;

/// Configuration of the hybrid router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Largest tolerated FPGA admission backlog before spilling to CPU.
    pub backlog_limit: SimTime,
    /// CPU batch size for spilled queries.
    pub cpu_batch: usize,
    /// CPU batch aggregation timeout.
    pub cpu_max_wait: SimTime,
    /// Steady-state hit rate of a modelled hot-row cache in front of the
    /// accelerator's embedding reads (e.g. the perf ledger's
    /// `embedding.cache_hit_frac`). `Some(h)` shrinks the modelled lookup
    /// stage via [`surviving_dram_fraction`]; `None` models the uncached
    /// engine.
    pub lookup_hit_rate: Option<f64>,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            backlog_limit: SimTime::from_ms(1.0),
            cpu_batch: 256,
            cpu_max_wait: SimTime::from_ms(10.0),
            lookup_hit_rate: None,
        }
    }
}

/// Expected fraction of a round-combined lookup's DRAM rounds that still
/// reach memory behind a hot-row cache with per-lookup hit rate
/// `hit_rate`: the paper's round combining issues one DRAM round for all
/// `tables` lookups together, so a round is saved only when every lookup
/// in it hits the cache (probability `hit_rate^tables` under independent
/// hits). DESIGN.md §9 derives this mapping.
#[must_use]
pub fn surviving_dram_fraction(hit_rate: f64, tables: usize) -> f64 {
    let h = hit_rate.clamp(0.0, 1.0);
    1.0 - h.powi(i32::try_from(tables).unwrap_or(i32::MAX))
}

/// Single-item fill latency with the cache model applied: the lookup
/// stage shrinks by the fraction of DRAM rounds the cache absorbs; the
/// MLP stages are unchanged.
fn cache_adjusted_fill(engine: &MicroRec, hit_rate: f64) -> SimTime {
    let lookup = engine.placement_cost().lookup_latency;
    let surviving = surviving_dram_fraction(hit_rate, engine.model().num_tables());
    let saved = SimTime::from_ns(lookup.as_ns() * (1.0 - surviving));
    engine.latency().saturating_sub(saved)
}

/// Outcome of a hybrid serving simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridReport {
    /// Combined response-time summary.
    pub combined: ServingReport,
    /// Fraction of queries served by the FPGA.
    pub fpga_fraction: f64,
}

/// Routes `arrivals` between `engine` (item-by-item pipeline) and the CPU
/// baseline (batched), then summarizes against `sla`.
///
/// # Examples
///
/// ```
/// use microrec_core::{simulate_hybrid_serving, HybridConfig, MicroRec};
/// use microrec_cpu::CpuTimingModel;
/// use microrec_embedding::ModelSpec;
/// use microrec_memsim::SimTime;
/// use microrec_workload::PoissonArrivals;
///
/// let model = ModelSpec::dlrm_rmc2(4, 4);
/// let engine = MicroRec::builder(model.clone()).build()?;
/// let trace = PoissonArrivals::new(10_000.0, 1).unwrap().take(2_000);
/// let report = simulate_hybrid_serving(
///     &engine,
///     &CpuTimingModel::aws_16vcpu(),
///     &model,
///     &HybridConfig::default(),
///     &trace,
///     SimTime::from_ms(25.0),
/// ).unwrap();
/// assert!(report.combined.sla_hit_rate > 0.99);
/// # Ok::<(), microrec_core::MicroRecError>(())
/// ```
///
/// # Errors
///
/// Returns [`WorkloadError::NoSamples`] for an empty trace.
pub fn simulate_hybrid_serving(
    engine: &MicroRec,
    cpu: &CpuTimingModel,
    model: &ModelSpec,
    config: &HybridConfig,
    arrivals: &[SimTime],
    sla: SimTime,
) -> Result<HybridReport, WorkloadError> {
    let ii = engine.pipeline().initiation_interval();
    let fill = match config.lookup_hit_rate {
        Some(h) => cache_adjusted_fill(engine, h),
        None => engine.latency(),
    };

    let mut fpga_next_slot = SimTime::ZERO;
    let mut fpga_latencies = Vec::new();
    let mut cpu_arrivals = Vec::new();
    for &arr in arrivals {
        let start = arr.max(fpga_next_slot);
        if start.saturating_sub(arr) <= config.backlog_limit {
            fpga_next_slot = start + ii;
            fpga_latencies.push((start + fill).saturating_sub(arr));
        } else {
            cpu_arrivals.push(arr);
        }
    }
    let cpu_latencies = simulate_batched_serving(
        &cpu_arrivals,
        config.cpu_batch,
        config.cpu_max_wait,
        cpu.total_time(model, config.cpu_batch as u64),
    );

    let fpga_count = fpga_latencies.len();
    let mut all = fpga_latencies;
    all.extend(cpu_latencies);
    let span = arrivals.last().copied().unwrap_or(SimTime::ZERO)
        + all.iter().copied().max().unwrap_or(SimTime::ZERO);
    let combined = ServingReport {
        latency: LatencyStats::from_samples(&all)?,
        tail: crate::serve::tail_percentiles(&all),
        sla_hit_rate: LatencyStats::sla_hit_rate(&all, sla),
        throughput: if span.is_zero() { f64::INFINITY } else { all.len() as f64 / span.as_secs() },
    };
    Ok(HybridReport { combined, fpga_fraction: fpga_count as f64 / arrivals.len() as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::simulate_microrec_serving;
    use microrec_embedding::Precision;
    use microrec_workload::PoissonArrivals;

    fn setup() -> (MicroRec, CpuTimingModel, ModelSpec) {
        let model = ModelSpec::small_production();
        let engine =
            MicroRec::builder(model.clone()).precision(Precision::Fixed16).build().unwrap();
        (engine, CpuTimingModel::aws_16vcpu(), model)
    }

    #[test]
    fn below_capacity_everything_goes_to_the_fpga() {
        let (engine, cpu, model) = setup();
        let rate = engine.throughput_items_per_sec() * 0.5;
        let mut arrivals = PoissonArrivals::new(rate, 3).unwrap();
        let trace = arrivals.take(10_000);
        let report = simulate_hybrid_serving(
            &engine,
            &cpu,
            &model,
            &HybridConfig::default(),
            &trace,
            SimTime::from_ms(20.0),
        )
        .unwrap();
        assert!(report.fpga_fraction > 0.999, "fraction {}", report.fpga_fraction);
        assert!(report.combined.sla_hit_rate > 0.999);
    }

    #[test]
    fn overload_spills_to_cpu_and_preserves_sla() {
        let (engine, cpu, model) = setup();
        // Offer 8% above the FPGA's capacity — a spill the CPU (batch 256:
        // ~30k items/s under a 10 ms wait cap) can actually absorb. Much
        // beyond that no single CPU server helps, which is DeepRecSys's
        // own scaling argument for *fleets* of CPUs behind accelerators.
        let rate = engine.throughput_items_per_sec() * 1.08;
        let mut arrivals = PoissonArrivals::new(rate, 7).unwrap();
        // Long enough for the saturated FPGA-only queue to blow the SLA.
        let trace = arrivals.take(120_000);
        let sla = SimTime::from_ms(25.0);

        let fpga_only = simulate_microrec_serving(&engine, &trace, sla).unwrap();
        let hybrid =
            simulate_hybrid_serving(&engine, &cpu, &model, &HybridConfig::default(), &trace, sla)
                .unwrap();
        assert!(
            hybrid.fpga_fraction > 0.7 && hybrid.fpga_fraction < 0.999,
            "overflow should spill: {}",
            hybrid.fpga_fraction
        );
        assert!(
            hybrid.combined.sla_hit_rate > fpga_only.sla_hit_rate,
            "hybrid {} must beat saturated fpga-only {}",
            hybrid.combined.sla_hit_rate,
            fpga_only.sla_hit_rate
        );
        assert!(hybrid.combined.sla_hit_rate > 0.9, "{}", hybrid.combined.sla_hit_rate);
    }

    #[test]
    fn surviving_fraction_shape() {
        // No hits → every DRAM round survives; perfect hits → none do.
        assert!((surviving_dram_fraction(0.0, 8) - 1.0).abs() < 1e-12);
        assert!(surviving_dram_fraction(1.0, 8).abs() < 1e-12);
        // Monotonically decreasing in the hit rate, and more tables make
        // a fully-hit round rarer.
        assert!(surviving_dram_fraction(0.5, 8) > surviving_dram_fraction(0.9, 8));
        assert!(surviving_dram_fraction(0.9, 16) > surviving_dram_fraction(0.9, 2));
        // Out-of-range inputs clamp instead of going negative.
        assert!((surviving_dram_fraction(1.5, 4) - 0.0).abs() < 1e-12);
        assert!((surviving_dram_fraction(-0.5, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cache_hit_rate_shrinks_fill_latency() {
        let (engine, cpu, model) = setup();
        let rate = engine.throughput_items_per_sec() * 0.5;
        let trace = PoissonArrivals::new(rate, 11).unwrap().take(5_000);
        let sla = SimTime::from_ms(20.0);
        let plain =
            simulate_hybrid_serving(&engine, &cpu, &model, &HybridConfig::default(), &trace, sla)
                .unwrap();
        let cached_cfg = HybridConfig { lookup_hit_rate: Some(0.95), ..HybridConfig::default() };
        let cached =
            simulate_hybrid_serving(&engine, &cpu, &model, &cached_cfg, &trace, sla).unwrap();
        assert!(
            cached.combined.latency.mean <= plain.combined.latency.mean,
            "cache-adjusted fill must not increase latency: {:?} vs {:?}",
            cached.combined.latency.mean,
            plain.combined.latency.mean
        );
        // A lossless cache model (hit rate 1.0 over every table) strictly
        // beats the uncached fill when the lookup stage is non-zero.
        let perfect_cfg = HybridConfig { lookup_hit_rate: Some(1.0), ..HybridConfig::default() };
        let perfect =
            simulate_hybrid_serving(&engine, &cpu, &model, &perfect_cfg, &trace, sla).unwrap();
        assert!(perfect.combined.latency.mean < plain.combined.latency.mean);
    }

    #[test]
    fn empty_trace_errors() {
        let (engine, cpu, model) = setup();
        assert!(matches!(
            simulate_hybrid_serving(
                &engine,
                &cpu,
                &model,
                &HybridConfig::default(),
                &[],
                SimTime::from_ms(1.0)
            ),
            Err(WorkloadError::NoSamples)
        ));
    }
}
