//! Online serving scenario: a Poisson query stream served by (a) the CPU
//! baseline with batching and (b) MicroRec's item-by-item pipeline —
//! the latency argument of §4.1 made concrete with SLA percentiles.
//!
//! Run with: `cargo run --example online_serving`

use microrec_core::Simulator;
use microrec_cpu::CpuTimingModel;
use microrec_embedding::{ModelSpec, Precision};
use microrec_memsim::SimTime;
use microrec_placement::HeuristicOptions;
use microrec_workload::{
    simulate_batched_serving, simulate_pipelined_serving, LatencyStats, PoissonArrivals,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelSpec::small_production();
    let sla = SimTime::from_ms(30.0);
    let rate = 50_000.0; // queries per second

    let mut arrivals = PoissonArrivals::new(rate, 7)?;
    let stream = arrivals.take(50_000);
    println!("offered load: {rate:.0} QPS, SLA {sla}, {} queries\n", stream.len());

    // CPU baseline: best-throughput batching (B=2048, bounded wait).
    let cpu = CpuTimingModel::aws_16vcpu();
    for batch in [256usize, 2048] {
        let service = cpu.total_time(&model, batch as u64);
        let latencies = simulate_batched_serving(&stream, batch, SimTime::from_ms(10.0), service);
        let stats = LatencyStats::from_samples(&latencies)?;
        println!(
            "CPU batch={batch:4}: p50 {:>10} p99 {:>10} SLA hit {:.1}% (service {:.1} ms/batch)",
            stats.p50,
            stats.p99,
            LatencyStats::sla_hit_rate(&latencies, sla) * 100.0,
            service.as_ms()
        );
    }

    // MicroRec: no batching; queries enter the pipeline as they arrive.
    let options = HeuristicOptions::default();
    let sim = Simulator::build(&model, Precision::Fixed16, &options)?;
    let latencies =
        simulate_pipelined_serving(&stream, sim.pipeline().initiation_interval(), sim.latency());
    let stats = LatencyStats::from_samples(&latencies)?;
    println!(
        "MicroRec      : p50 {:>10} p99 {:>10} SLA hit {:.1}% (II {}, fill {})",
        stats.p50,
        stats.p99,
        LatencyStats::sla_hit_rate(&latencies, sla) * 100.0,
        sim.pipeline().initiation_interval(),
        sim.latency()
    );
    println!("\nReading: batching pays for throughput with milliseconds of");
    println!("aggregation wait; the deep pipeline removes the wait entirely");
    println!("(§4.1: 'latency concerns are eliminated by this highly pipelined design').");
    Ok(())
}
