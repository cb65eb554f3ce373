//! Quantization study: how datapath precision affects recommendation
//! quality — not just CTR error, but the *ranking* the model exists to
//! produce (the lens §5.3's fp16-vs-fp32 trade-off should be judged by).
//!
//! Run with: `cargo run --example quantization_study`

use microrec_core::{ranking_fidelity, MicroRec};
use microrec_cpu::CpuReferenceEngine;
use microrec_dnn::QuantizedMlp;
use microrec_embedding::{ModelSpec, Precision};
use microrec_workload::{QueryGenConfig, QueryGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelSpec::dlrm_rmc2(8, 16);
    let seed = 33;
    let cpu = CpuReferenceEngine::build(&model, seed)?;
    let mut gen = QueryGenerator::new(&model, QueryGenConfig::default())?;
    let candidates = gen.next_batch(64);
    let reference: Vec<f32> =
        candidates.iter().map(|q| cpu.predict(q)).collect::<Result<_, _>>()?;

    println!("ranking fidelity vs f32 reference, 64 candidates ({})\n", model.name);
    println!(
        "{:>22} {:>12} {:>8} {:>14} {:>12} {:>12}",
        "datapath", "kendall tau", "top-1", "top-10 overlap", "mean |err|", "max |err|"
    );
    // Absolute CTR error against the f32 reference: (mean, max) over the candidates.
    let ctr_error = |scores: &[f32]| {
        let errs = reference.iter().zip(scores).map(|(r, s)| (r - s).abs());
        (errs.clone().sum::<f32>() / scores.len() as f32, errs.fold(0.0f32, f32::max))
    };

    // The paper's two fixed-point datapaths.
    for precision in [Precision::Fixed32, Precision::Fixed16] {
        let mut engine =
            MicroRec::builder(model.clone()).precision(precision).seed(seed).build()?;
        let scores: Vec<f32> =
            candidates.iter().map(|q| engine.predict(q)).collect::<Result<_, _>>()?;
        let f = ranking_fidelity(&reference, &scores);
        let (mean_err, max_err) = ctr_error(&scores);
        println!(
            "{:>22} {:>12.3} {:>8} {:>13.0}% {:>12.2e} {:>12.2e}",
            format!("Q-format {precision}"),
            f.kendall_tau,
            if f.top1_match { "match" } else { "MISS" },
            f.top10_overlap * 100.0,
            mean_err,
            max_err
        );
    }

    // Per-tensor calibrated integer quantization (extension).
    let calibration: Vec<Vec<f32>> =
        candidates.iter().take(16).map(|q| cpu.gather_features(q)).collect::<Result<_, _>>()?;
    for bits in [16u8, 8, 6, 4] {
        let q = QuantizedMlp::quantize(cpu.mlp(), bits, &calibration)?;
        let scores: Vec<f32> = candidates
            .iter()
            .map(|query| {
                let features = cpu.gather_features(query)?;
                q.predict_ctr(&features).map_err(Into::into)
            })
            .collect::<Result<_, Box<dyn std::error::Error>>>()?;
        let f = ranking_fidelity(&reference, &scores);
        let (mean_err, max_err) = ctr_error(&scores);
        println!(
            "{:>22} {:>12.3} {:>8} {:>13.0}% {:>12.2e} {:>12.2e} ({} weight bytes)",
            format!("per-tensor int{bits}"),
            f.kendall_tau,
            if f.top1_match { "match" } else { "MISS" },
            f.top10_overlap * 100.0,
            mean_err,
            max_err,
            q.weight_bytes(),
        );
    }

    println!("\nReading: the paper's fixed-32 datapath ranks identically to f32;");
    println!("fixed-16 accumulates wide and saturates once per output, so a CTR is");
    println!("off by about one 1/8192 output step and the ranking all but survives.");
    println!("With per-tensor calibration (an extension the paper forgoes), even");
    println!("8-bit integers preserve the ranking — halving weight storage again.");
    Ok(())
}
