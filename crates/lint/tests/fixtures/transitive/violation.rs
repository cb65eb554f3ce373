//! Cross-file transitive root: `serve_batch` is a designated serving
//! function; its helper lives in `callee.rs`, so the witness chain in the
//! finding crosses a file boundary.

pub fn serve_batch(queries: &[u64]) -> usize {
    assemble_report(queries)
}
