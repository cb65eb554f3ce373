//! Runs every paper table/figure binary in sequence — the single command
//! behind EXPERIMENTS.md.
//!
//! `cargo run -p microrec-bench --bin all_experiments`

use std::process::Command;

const BINS: &[&str] = &[
    "table1", "fig3", "table2", "table3", "table4", "table5", "table6", "fig7", "cost", "ablation",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for bin in BINS {
        let rule = "=".repeat(70);
        println!("\n{rule}\n=== {bin}\n{rule}");
        let status = Command::new(dir.join(bin)).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("{bin} failed: {other:?}");
                failures.push(*bin);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall {} experiment binaries completed", BINS.len());
    } else {
        eprintln!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::BINS;

    #[test]
    fn every_listed_bin_has_a_source() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for bin in BINS {
            assert!(dir.join(format!("{bin}.rs")).is_file(), "no src/bin/{bin}.rs for `{bin}`");
        }
    }
}
