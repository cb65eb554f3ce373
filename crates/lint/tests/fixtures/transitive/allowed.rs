//! The same reachability, justified at the root's call site through the
//! escape hatch.

pub fn serve_batch(queries: &[u64]) -> usize {
    // lint: allow(transitive-panic) admission guarantees a non-empty batch
    tail(queries)
}

fn tail(queries: &[u64]) -> usize {
    *queries.last().unwrap() as usize
}
