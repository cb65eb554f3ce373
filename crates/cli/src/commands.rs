//! Command implementations, returning their output as strings (testable).

use std::fmt::Write as _;

use microrec_core::{
    replay_trace, simulate_microrec_serving, AdmissionPolicy, MicroRec, RuntimeConfig,
    ServingRuntime, Simulator,
};
use microrec_cpu::CpuTimingModel;
use microrec_embedding::{Precision, RowFormat};
use microrec_memsim::{MemoryConfig, SimTime};
use microrec_placement::{heuristic_search, AllocStrategy, HeuristicOptions};
use microrec_workload::{PoissonArrivals, QueryGenConfig, QueryGenerator, RequestTrace};

use crate::args::ModelArg;

/// Boxed error shorthand.
pub type CliResult = Result<String, Box<dyn std::error::Error>>;

/// `microrec plan`.
pub fn run_plan(
    model: &ModelArg,
    no_merge: bool,
    strategy: AllocStrategy,
    verbose: bool,
    json: bool,
) -> CliResult {
    let spec = model.to_spec();
    let out = heuristic_search(
        &spec,
        &MemoryConfig::u280(),
        Precision::F32,
        &HeuristicOptions { allow_merge: !no_merge, strategy, ..Default::default() },
    )?;
    if json {
        return Ok(microrec_json::to_string_pretty(&out.plan) + "\n");
    }
    let mut s = String::new();
    writeln!(s, "model: {} ({} logical tables)", spec.name, spec.num_tables())?;
    writeln!(
        s,
        "plan:  {} physical tables ({} merged pairs), {} in DRAM, {} on chip",
        out.plan.num_tables(),
        out.plan.merge.groups.len(),
        out.cost.tables_in_dram,
        out.cost.tables_on_chip,
    )?;
    writeln!(
        s,
        "cost:  lookup {} | {} DRAM round(s) | storage {:.2} GB ({:+.2}% overhead)",
        out.cost.lookup_latency,
        out.cost.dram_rounds,
        out.cost.storage_bytes as f64 / 1e9,
        (out.cost.storage_bytes as f64 / spec.total_bytes(Precision::F32) as f64 - 1.0) * 100.0,
    )?;
    writeln!(s, "search: {} solutions evaluated", out.evaluated)?;
    if verbose {
        writeln!(s, "\nbank map:")?;
        for table in &out.plan.placed {
            let banks: Vec<String> = table.banks.iter().map(ToString::to_string).collect();
            writeln!(
                s,
                "  {:<28} {:>12} rows x dim {:<3} -> {}",
                table.spec.name,
                table.spec.rows,
                table.spec.dim,
                banks.join(", ")
            )?;
        }
    }
    Ok(s)
}

/// `microrec predict`.
pub fn run_predict(
    model: &ModelArg,
    queries: usize,
    precision: Precision,
    zipf: f64,
    seed: u64,
) -> CliResult {
    let spec = model.to_spec();
    let mut engine = MicroRec::builder(spec.clone()).precision(precision).seed(seed).build()?;
    let mut sim = Simulator::build(&spec, precision, &HeuristicOptions::default())?;
    let mut gen = QueryGenerator::new(&spec, QueryGenConfig { zipf_exponent: zipf, seed })?;
    let mut s = String::new();
    writeln!(s, "model: {} | precision {precision} | {queries} queries", spec.name)?;
    for i in 0..queries {
        let q = gen.next_query();
        let ctr = engine.predict(&q)?;
        // Serving does not drive the simulated memory: issue the query's
        // reads to it for the `memory:` line.
        sim.observe(std::slice::from_ref(&q))?;
        writeln!(s, "  query {i:>3}: CTR {ctr:.4}")?;
    }
    let stats = sim.memory().stats().total();
    writeln!(s, "memory: {} reads, {} bytes, busy {}", stats.reads, stats.bytes, stats.busy)?;
    writeln!(
        s,
        "timing: {} per item, {:.0} items/s steady state",
        sim.latency(),
        sim.throughput_items_per_sec()
    )?;
    Ok(s)
}

/// `microrec compare`.
pub fn run_compare(model: &ModelArg, batch: u64, precision: Precision) -> CliResult {
    let spec = model.to_spec();
    let sim = Simulator::build(&spec, precision, &HeuristicOptions::default())?;
    let cpu = CpuTimingModel::aws_16vcpu();
    let cpu_latency = cpu.total_time(&spec, batch);
    let fpga_batch = sim.batch_latency(batch);
    let mut s = String::new();
    writeln!(s, "model: {} | batch {batch} | precision {precision}", spec.name)?;
    writeln!(
        s,
        "CPU:      {:>12} for the batch | {:>10.0} items/s | {:.1} GOP/s",
        cpu_latency.to_string(),
        cpu.throughput_items_per_sec(&spec, batch),
        cpu.throughput_ops_per_sec(&spec, batch) / 1e9,
    )?;
    writeln!(
        s,
        "MicroRec: {:>12} for the batch | {:>10.0} items/s | {:.1} GOP/s | {} per item",
        fpga_batch.to_string(),
        sim.throughput_items_per_sec(),
        sim.throughput_ops_per_sec() / 1e9,
        sim.latency(),
    )?;
    writeln!(s, "speedup:  {:.2}x", cpu_latency.as_ns() / fpga_batch.as_ns())?;
    Ok(s)
}

/// `microrec serve`.
pub fn run_serve(model: &ModelArg, rate: f64, queries: usize, sla_ms: f64) -> CliResult {
    let spec = model.to_spec();
    let sim = Simulator::build(&spec, Precision::Fixed16, &HeuristicOptions::default())?;
    let sla = SimTime::from_ms(sla_ms);
    let mut arrivals = PoissonArrivals::new(rate, 0xACCE55)?;
    let trace = arrivals.take(queries);
    let mut s = String::new();
    writeln!(
        s,
        "model {} | {rate:.0} QPS offered vs {:.0} items/s capacity | SLA {sla_ms} ms",
        spec.name,
        sim.throughput_items_per_sec()
    )?;
    let fpga = simulate_microrec_serving(&sim, &trace, sla)?;
    writeln!(
        s,
        "MicroRec only: p50 {} p99 {} SLA hit {:.2}%",
        fpga.latency.p50,
        fpga.latency.p99,
        fpga.sla_hit_rate * 100.0
    )?;
    Ok(s)
}

/// `microrec serve --live`: drives the real micro-batching runtime with a
/// paced wall-clock replay of a seeded Poisson trace. A non-zero
/// `resident_bytes` serves the embeddings through the tiered parameter
/// store, keeping at most that many bytes of tables resident (f32 rows,
/// bit-identical to the all-resident engine) and the rest file-backed.
pub fn run_serve_live(
    model: &ModelArg,
    rate: f64,
    queries: usize,
    config: RuntimeConfig,
    resident_bytes: u64,
) -> CliResult {
    let spec = model.to_spec();
    let trace = RequestTrace::generate(&spec, rate, queries, QueryGenConfig::default())?;
    let mut builder = MicroRec::builder(spec.clone());
    if resident_bytes > 0 {
        builder = builder.tiered_storage(resident_bytes, RowFormat::F32);
    }
    let mut runtime = ServingRuntime::start(builder, config)?;
    let outcome = replay_trace(&runtime, &trace);
    let snap = runtime.shutdown();
    let lookup = runtime.lookup_stats();
    let mut s = String::new();
    writeln!(
        s,
        "model {} | live runtime: {} worker(s), max_batch {}, queue {} ({})",
        spec.name,
        config.workers,
        config.max_batch,
        config.queue_depth,
        match config.admission {
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::Reject => "reject",
        },
    )?;
    writeln!(
        s,
        "load:  {:.0} QPS offered, {:.0} QPS sustained ({} of {} completed, drop rate {:.2}%)",
        outcome.offered_qps,
        outcome.qps,
        outcome.completed,
        outcome.offered,
        snap.drop_rate() * 100.0,
    )?;
    writeln!(
        s,
        "tail:  p50 {:.0} us | p95 {:.0} us | p99 {:.0} us | p999 {:.0} us | mean {:.0} us",
        snap.latency.p50_us,
        snap.latency.p95_us,
        snap.latency.p99_us,
        snap.latency.p999_us,
        snap.mean_latency_us,
    )?;
    writeln!(
        s,
        "batch: mean size {:.2} over {} batches ({} size-closed, {} ready-closed, {} drained)",
        snap.mean_batch_size, snap.batches, snap.size_closes, snap.ready_closes, snap.drain_closes,
    )?;
    if let Some(lookup) = &lookup {
        writeln!(
            s,
            "tier:  {} resident hits, {} cold reads ({:.1} KiB from disk), cold tier {}",
            lookup.resident_hits,
            lookup.cold_reads,
            lookup.bytes_from_cold as f64 / 1024.0,
            if lookup.cold_tier_healthy() { "healthy" } else { "UNHEALTHY" },
        )?;
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_output_mentions_structure() {
        let out =
            run_plan(&ModelArg::Small, false, AllocStrategy::RoundRobin, false, false).unwrap();
        assert!(out.contains("42 physical tables"), "{out}");
        assert!(out.contains("1 DRAM round"), "{out}");
        let out =
            run_plan(&ModelArg::Small, true, AllocStrategy::RoundRobin, false, false).unwrap();
        assert!(out.contains("47 physical tables"), "{out}");
    }

    #[test]
    fn verbose_plan_lists_every_table() {
        let out = run_plan(
            &ModelArg::Dlrm { tables: 4, dim: 8 },
            false,
            AllocStrategy::RoundRobin,
            true,
            false,
        )
        .unwrap();
        for i in 0..4 {
            assert!(out.contains(&format!("rmc2_{i:02}_d8")), "{out}");
        }
    }

    #[test]
    fn json_plan_round_trips() {
        let out = run_plan(
            &ModelArg::Dlrm { tables: 4, dim: 8 },
            false,
            AllocStrategy::RoundRobin,
            false,
            true,
        )
        .unwrap();
        let plan: microrec_placement::Plan = microrec_json::from_str(&out).unwrap();
        assert_eq!(plan.num_tables(), 4);
        plan.validate(&ModelArg::Dlrm { tables: 4, dim: 8 }.to_spec(), &MemoryConfig::u280())
            .unwrap();
    }

    #[test]
    fn predict_produces_ctrs() {
        let out = run_predict(&ModelArg::Dlrm { tables: 4, dim: 4 }, 3, Precision::Fixed32, 1.0, 9)
            .unwrap();
        assert_eq!(out.matches("CTR 0.").count(), 3, "{out}");
        // 4 tables x 4 lookup rounds x 3 queries, observed one by one.
        assert!(out.contains("memory: 48 reads,"), "{out}");
    }

    #[test]
    fn compare_reports_speedup() {
        let out = run_compare(&ModelArg::Small, 2048, Precision::Fixed16).unwrap();
        assert!(out.contains("speedup:"), "{out}");
        let x: f64 = out
            .split("speedup:")
            .nth(1)
            .unwrap()
            .trim()
            .trim_end_matches("x\n")
            .trim_end_matches('x')
            .trim()
            .parse()
            .unwrap();
        assert!(x > 3.0, "speedup {x}");
    }

    #[test]
    fn serve_reports_sla() {
        let out = run_serve(&ModelArg::Dlrm { tables: 4, dim: 4 }, 10_000.0, 2_000, 25.0).unwrap();
        assert!(out.contains("SLA hit"), "{out}");
    }

    #[test]
    fn serve_live_runs_the_runtime() {
        let config = RuntimeConfig {
            workers: 1,
            max_batch: 8,
            queue_depth: 256,
            admission: AdmissionPolicy::Block,
        };
        let out =
            run_serve_live(&ModelArg::Dlrm { tables: 4, dim: 4 }, 2_000.0, 200, config, 0).unwrap();
        assert!(out.contains("200 of 200 completed"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("mean size"), "{out}");
    }

    #[test]
    fn serve_live_tiered_reports_tier_counters() {
        let config = RuntimeConfig {
            workers: 1,
            max_batch: 8,
            queue_depth: 256,
            admission: AdmissionPolicy::Block,
        };
        // dlrm:4x4 is 32 MiB of f32 rows; an 8 MiB budget keeps one table
        // resident and serves the other three from the cold file.
        let out =
            run_serve_live(&ModelArg::Dlrm { tables: 4, dim: 4 }, 2_000.0, 200, config, 8 << 20)
                .unwrap();
        assert!(out.contains("200 of 200 completed"), "{out}");
        assert!(out.contains("tier:"), "{out}");
        assert!(out.contains("resident hits"), "{out}");
        assert!(out.contains("cold reads"), "{out}");
        assert!(out.contains("cold tier healthy"), "{out}");
    }
}
