//! Online-serving simulation: offered load → response-time distribution.
//!
//! §4.1's argument is about *serving*, not raw throughput: a batching CPU
//! engine must hold queries until a batch fills, while the deep pipeline
//! admits each query the moment a slot frees. These helpers drive both
//! disciplines with the same arrival trace — the MicroRec side through the
//! event-driven [`FlowSim`] over its simulated pipeline's stages — and report
//! SLA-oriented statistics.

use microrec_accel::FlowSim;
use microrec_cpu::CpuTimingModel;
use microrec_embedding::ModelSpec;
use microrec_memsim::SimTime;
use microrec_workload::{simulate_batched_serving, LatencyStats, WorkloadError};

use crate::runtime::{LatencyHistogram, LatencyPercentiles};
use crate::simulator::Simulator;

/// Response-time summary of one serving simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingReport {
    /// Latency percentiles.
    pub latency: LatencyStats,
    /// Tail percentiles (p50/p95/p99/p999) from the fixed-bucket
    /// histogram the live runtime also uses, in microseconds.
    pub tail: LatencyPercentiles,
    /// Fraction of queries answered within the SLA.
    pub sla_hit_rate: f64,
    /// Served queries per second over the simulated span.
    pub throughput: f64,
}

/// Folds simulated latencies into the runtime's histogram representation.
fn tail_percentiles(latencies: &[SimTime]) -> LatencyPercentiles {
    let mut hist = LatencyHistogram::new();
    for l in latencies {
        hist.record_us(l.as_us());
    }
    hist.percentiles()
}

fn report(
    latencies: &[SimTime],
    span: SimTime,
    sla: SimTime,
) -> Result<ServingReport, WorkloadError> {
    Ok(ServingReport {
        latency: LatencyStats::from_samples(latencies)?,
        tail: tail_percentiles(latencies),
        sla_hit_rate: LatencyStats::sla_hit_rate(latencies, sla),
        throughput: if span.is_zero() {
            f64::INFINITY
        } else {
            latencies.len() as f64 / span.as_secs()
        },
    })
}

/// Serves `arrivals` through `sim`'s pipeline (item-by-item, FIFO depth
/// 2) and summarizes against `sla`.
///
/// # Errors
///
/// Returns [`WorkloadError::NoSamples`] for an empty trace.
pub fn simulate_microrec_serving(
    sim: &Simulator,
    arrivals: &[SimTime],
    sla: SimTime,
) -> Result<ServingReport, WorkloadError> {
    let flow = FlowSim::new(sim.pipeline(), 2).run(arrivals);
    report(&flow.latencies, flow.makespan(), sla)
}

/// Serves `arrivals` through the CPU baseline with batch aggregation
/// (`batch_size` queries or `max_wait`, whichever first) and summarizes
/// against `sla`.
///
/// # Errors
///
/// Returns [`WorkloadError::NoSamples`] for an empty trace.
pub fn simulate_cpu_serving(
    model: &ModelSpec,
    cpu: &CpuTimingModel,
    batch_size: usize,
    max_wait: SimTime,
    arrivals: &[SimTime],
    sla: SimTime,
) -> Result<ServingReport, WorkloadError> {
    let service = cpu.total_time(model, batch_size as u64);
    let latencies = simulate_batched_serving(arrivals, batch_size, max_wait, service);
    let span = arrivals.last().copied().unwrap_or(SimTime::ZERO)
        + latencies.iter().copied().max().unwrap_or(SimTime::ZERO);
    report(&latencies, span, sla)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_embedding::Precision;
    use microrec_placement::HeuristicOptions;
    use microrec_workload::PoissonArrivals;

    #[test]
    fn microrec_meets_sla_that_cpu_misses() {
        let model = ModelSpec::small_production();
        let sim =
            Simulator::build(&model, Precision::Fixed16, &HeuristicOptions::default()).unwrap();
        let cpu = CpuTimingModel::aws_16vcpu();
        let mut arrivals = PoissonArrivals::new(50_000.0, 3).unwrap();
        let trace = arrivals.take(10_000);
        let sla = SimTime::from_ms(20.0);

        let fpga = simulate_microrec_serving(&sim, &trace, sla).unwrap();
        let cpu_report =
            simulate_cpu_serving(&model, &cpu, 2048, SimTime::from_ms(15.0), &trace, sla).unwrap();
        assert!(fpga.sla_hit_rate > 0.999, "fpga hit {}", fpga.sla_hit_rate);
        assert!(fpga.latency.p99 < cpu_report.latency.p50);
        assert!(fpga.latency.p99.as_us() < 100.0);
    }

    #[test]
    fn overload_shows_up_as_latency_growth() {
        let sim = Simulator::build(
            &ModelSpec::small_production(),
            Precision::Fixed16,
            &HeuristicOptions::default(),
        )
        .unwrap();
        // Offer 2x the pipeline's capacity.
        let capacity = sim.throughput_items_per_sec();
        let mut arrivals = PoissonArrivals::new(capacity * 2.0, 5).unwrap();
        let trace = arrivals.take(5_000);
        let sla = SimTime::from_ms(20.0);
        let loaded = simulate_microrec_serving(&sim, &trace, sla).unwrap();
        let mut light = PoissonArrivals::new(capacity * 0.5, 5).unwrap();
        let light_trace = light.take(5_000);
        let light_report = simulate_microrec_serving(&sim, &light_trace, sla).unwrap();
        assert!(loaded.latency.p99 > light_report.latency.p99 * 4);
        // Under overload the pipeline still drains at its capacity.
        assert!((loaded.throughput - capacity).abs() / capacity < 0.1);
    }

    #[test]
    fn empty_trace_is_an_error() {
        let sim = Simulator::build(
            &ModelSpec::dlrm_rmc2(4, 4),
            Precision::Fixed16,
            &HeuristicOptions::default(),
        )
        .unwrap();
        assert!(matches!(
            simulate_microrec_serving(&sim, &[], SimTime::from_ms(1.0)),
            Err(WorkloadError::NoSamples)
        ));
    }
}
