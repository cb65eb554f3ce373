//! A designated root whose whole call tree cannot panic: nothing to
//! report.

pub fn serve_batch(queries: &[u64]) -> usize {
    checksum(queries)
}

fn checksum(queries: &[u64]) -> usize {
    queries.iter().map(|q| (q & 0xff) as usize).sum()
}
