//! Quickstart: build the MicroRec engine for the small Alibaba production
//! model, run one inference, and print what the paper's headline numbers
//! look like in the simulator.
//!
//! Run with: `cargo run --example quickstart`

use microrec_core::{MicroRec, Simulator};
use microrec_cpu::CpuTimingModel;
use microrec_embedding::{ModelSpec, Precision};
use microrec_placement::HeuristicOptions;
use microrec_workload::{QueryGenConfig, QueryGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The model: 47 embedding tables, 352-dim feature, (1024,512,256)
    //    top MLP — the paper's "smaller recommendation model".
    let model = ModelSpec::small_production();
    println!(
        "model: {} ({} tables, {} features, {:.1} GB)",
        model.name,
        model.num_tables(),
        model.feature_len(),
        model.total_bytes(Precision::F32) as f64 / 1e9
    );

    // 2. Simulate the U280: runs Algorithm 1 (Cartesian merging + hybrid
    //    memory placement) and assembles the pipelined accelerator.
    let options = HeuristicOptions::default();
    let sim = Simulator::build(&model, Precision::Fixed16, &options)?;
    let cost = sim.placement_cost();
    println!(
        "placement: {} physical tables, {} in DRAM, {} on chip, {} DRAM round(s), lookup {}",
        sim.plan().num_tables(),
        cost.tables_in_dram,
        cost.tables_on_chip,
        cost.dram_rounds,
        cost.lookup_latency,
    );

    // 3. One real inference through the served engine's fixed-point
    //    datapath.
    let mut engine = MicroRec::builder(model.clone()).precision(Precision::Fixed16).build()?;
    let mut queries = QueryGenerator::new(&model, QueryGenConfig::default())?;
    let query = queries.next_query();
    let ctr = engine.predict(&query)?;
    println!("predicted CTR: {ctr:.4}");

    // 4. The headline comparison.
    let cpu = CpuTimingModel::aws_16vcpu();
    let cpu_latency = cpu.total_time(&model, 2048);
    println!(
        "latency:   MicroRec {} per item vs CPU {:.1} ms per 2048-batch",
        sim.latency(),
        cpu_latency.as_ms()
    );
    println!(
        "throughput: MicroRec {:.0} items/s vs CPU {:.0} items/s ({:.1}x)",
        sim.throughput_items_per_sec(),
        cpu.throughput_items_per_sec(&model, 2048),
        cpu_latency.as_ns() / sim.batch_latency(2048).as_ns(),
    );
    Ok(())
}
