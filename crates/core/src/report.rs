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
use microrec_placement::HeuristicOptions;

use crate::error::MicroRecError;
use crate::simulator::Simulator;

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
    /// the already-built simulator `sim` for the FPGA side.
    #[must_use]
    pub fn build(sim: &Simulator, cpu: &CpuTimingModel, batches: &[u64]) -> Self {
        let model = sim.model();
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
            precision: sim.precision(),
            latency: sim.latency(),
            items_per_sec: sim.throughput_items_per_sec(),
            ops_per_sec: sim.throughput_ops_per_sec(),
        };
        let fpga_batch_latency = batches.iter().map(|&b| sim.batch_latency(b)).collect();
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
    /// Builds the report from the two simulators (merged and unmerged).
    #[must_use]
    pub fn build(
        merged: &Simulator,
        unmerged: &Simulator,
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

/// Convenience: builds the full Table 2 report for `model` at `precision`.
///
/// # Errors
///
/// Returns [`MicroRecError`] if the simulator cannot be built.
pub fn end_to_end_report(
    model: &ModelSpec,
    precision: Precision,
    batches: &[u64],
) -> Result<EndToEndReport, MicroRecError> {
    let options = HeuristicOptions::default();
    let sim = Simulator::build(model, precision, &options)?;
    Ok(EndToEndReport::build(&sim, &CpuTimingModel::aws_16vcpu(), batches))
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
    fn cpu_points_are_self_consistent() {
        let report =
            end_to_end_report(&ModelSpec::small_production(), Precision::Fixed16, &[256]).unwrap();
        let p = report.cpu[0];
        let implied = p.batch as f64 / p.latency.as_secs();
        assert!((implied - p.items_per_sec).abs() / p.items_per_sec < 1e-9);
    }
}
