//! `microrec` — command-line interface to the MicroRec reproduction.
//!
//! ```text
//! microrec plan --model small -v
//! microrec predict --model dlrm:8x16 --queries 5
//! microrec compare --model large --batch 2048 --precision fixed32
//! microrec serve --live --model dlrm:4x4 --rate 2000 --queries 500
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

use args::{parse, Command, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &cli.command {
        Command::Help => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Command::Plan { model, no_merge, strategy, verbose, json } => {
            commands::run_plan(model, *no_merge, *strategy, *verbose, *json)
        }
        Command::Predict { model, queries, precision, zipf, seed } => {
            commands::run_predict(model, *queries, *precision, *zipf, *seed)
        }
        Command::Compare { model, batch, precision } => {
            commands::run_compare(model, *batch, *precision)
        }
        Command::Serve {
            model,
            rate,
            queries,
            sla_ms,
            live,
            workers,
            max_batch,
            queue_depth,
            reject,
            resident_bytes,
        } => {
            if *live {
                let config = microrec_core::RuntimeConfig {
                    workers: *workers,
                    max_batch: *max_batch,
                    queue_depth: *queue_depth,
                    admission: if *reject {
                        microrec_core::AdmissionPolicy::Reject
                    } else {
                        microrec_core::AdmissionPolicy::Block
                    },
                };
                commands::run_serve_live(model, *rate, *queries, config, *resident_bytes)
            } else {
                commands::run_serve(model, *rate, *queries, *sla_ms)
            }
        }
    };
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
