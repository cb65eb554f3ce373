//! Runs every paper bin and compares its stdout byte for byte with a
//! golden recorded from it. The bins print the simulated reproduction of
//! the paper's tables and figures; their output is deterministic, so any
//! change to what they print, intended or not, shows here.
//!
//! After a change that means to move a number, re-record a golden with
//! `cargo run --release -p microrec-bench --bin <name> > crates/bench/tests/paper_bins/<name>.txt`.

use std::process::Command;

/// Runs the bin at `path` and checks its stdout against the golden
/// `want`.
fn check(name: &str, path: &str, want: &str) {
    let out = Command::new(path).output().unwrap_or_else(|e| panic!("{name}: cannot run: {e}"));
    assert!(out.status.success(), "{name}: exited with {}", out.status);
    let got = String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{name}: stdout: {e}"));
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "{name}: stdout differs from tests/paper_bins/{name}.txt (first differing line: \
             {line:?}); it now reads:\n{got}"
        );
    }
}

macro_rules! paper_bins {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                include_str!(concat!("paper_bins/", stringify!($name), ".txt")),
            );
        }
    )*};
}

paper_bins!(table1, table2, table3, table4, table5, table6, fig3, fig7, cost, ablation);
