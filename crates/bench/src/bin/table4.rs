//! Regenerates Table 4: embedding-layer latency, CPU baseline vs FPGA
//! (HBM only, and HBM + Cartesian).

use microrec_bench::{fmt_speedup, print_table};
use microrec_core::{EmbeddingReport, Simulator};
use microrec_cpu::CpuTimingModel;
use microrec_embedding::{ModelSpec, Precision};
use microrec_placement::HeuristicOptions;

const BATCHES: [u64; 6] = [1, 64, 256, 512, 1024, 2048];

fn main() {
    let cpu = CpuTimingModel::aws_16vcpu();
    // Paper: (model) -> (hbm-only us, hbm+cartesian us, speedups at B=2048)
    let paper =
        [("alibaba-small", 0.774, 0.458, 8.17, 13.82), ("alibaba-large", 2.26, 1.63, 11.07, 14.70)];
    for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
        let simulator = |allow_merge| {
            let options = HeuristicOptions { allow_merge, ..Default::default() };
            Simulator::build(&model, Precision::Fixed16, &options).expect("simulator")
        };
        let (merged, unmerged) = (simulator(true), simulator(false));
        let report = EmbeddingReport::build(&merged, &unmerged, &cpu, &BATCHES);

        let mut rows = Vec::new();
        rows.push(
            std::iter::once("CPU latency (ms)".to_string())
                .chain(report.cpu.iter().map(|(_, t)| format!("{:.2}", t.as_ms())))
                .collect::<Vec<_>>(),
        );
        let speedups = report.speedups();
        rows.push(
            std::iter::once("Speedup: HBM".to_string())
                .chain(speedups.iter().map(|(_, h, _)| fmt_speedup(*h)))
                .collect(),
        );
        rows.push(
            std::iter::once("Speedup: HBM+Cartesian".to_string())
                .chain(speedups.iter().map(|(_, _, c)| fmt_speedup(*c)))
                .collect(),
        );
        let mut headers: Vec<String> = vec!["".into()];
        headers.extend(BATCHES.iter().map(|b| format!("B={b}")));
        print_table(&format!("Table 4: Embedding layer, {}", report.model), &headers, &rows);

        let p = paper.iter().find(|r| r.0 == report.model).expect("paper row");
        println!(
            "FPGA lookup latency: HBM only {:.3} us (paper {:.3}), HBM+Cartesian {:.3} us (paper {:.3})",
            report.fpga_hbm.as_us(),
            p.1,
            report.fpga_hbm_cartesian.as_us(),
            p.2,
        );
        let last = speedups.last().expect("rows");
        println!(
            "B=2048 speedup: HBM {} (paper {}x), HBM+Cartesian {} (paper {}x)",
            fmt_speedup(last.1),
            p.3,
            fmt_speedup(last.2),
            p.4,
        );
    }
}
