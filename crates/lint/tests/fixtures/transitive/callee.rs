//! Helper for the designated root in `violation.rs` — deliberately in a
//! different file. It can panic, so the root's call site anchors one
//! transitive-panic finding.

pub fn assemble_report(queries: &[u64]) -> usize {
    let doubled: Vec<u64> = queries.iter().map(|q| q * 2).collect();
    *doubled.last().unwrap() as usize
}
