//! Regenerates Figure 7: end-to-end throughput as the number of embedding
//! lookup rounds grows (robustness of the pipelined design).

use microrec_bench::print_table;
use microrec_core::Simulator;
use microrec_embedding::{ModelSpec, Precision};
use microrec_placement::HeuristicOptions;

fn main() {
    let mut rows = Vec::new();
    let mut knees = Vec::new();
    for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
        for precision in [Precision::Fixed16, Precision::Fixed32] {
            let options = HeuristicOptions::default();
            let sim = Simulator::build(&model, precision, &options).expect("simulator");
            let pipe = sim.pipeline();
            let base = pipe.throughput_items_per_sec();
            let mut knee = None;
            let mut cells = vec![format!("{} {precision}", model.name)];
            for rounds in 1..=8u32 {
                let t = pipe.with_lookup_rounds(rounds).throughput_items_per_sec();
                if knee.is_none() && t < base * 0.999 {
                    knee = Some(rounds);
                }
                cells.push(format!("{:.0}k", t / 1e3));
            }
            knees.push((model.name.clone(), precision, knee));
            rows.push(cells);
        }
    }
    let mut headers = vec!["Config".to_string()];
    headers.extend((1..=8).map(|r| format!("{r} rounds")));
    print_table("Figure 7: Throughput (items/s) vs lookup rounds", &headers, &rows);

    println!();
    for (model, precision, knee) in knees {
        match knee {
            Some(k) => println!("{model} {precision}: throughput degrades from {k} rounds"),
            None => println!("{model} {precision}: flat across the whole sweep"),
        }
    }
    println!("\nPaper: the smaller and larger models tolerate 6 and 4 rounds of");
    println!("lookups at fixed-16 before end-to-end throughput degrades at all.");
}
