//! Zipf-aware hot-row cache for embedding lookups.
//!
//! A fixed-capacity, set-associative cache of **f32 rows**
//! keyed by `(table, row)`, with CLOCK (second-chance) eviction. Because it
//! stores the exact f32 values the source read produced, a hit is
//! bit-identical to the read it replaces.
//!
//! No engine serves through it: a probe costs more than the resident row
//! it would skip, and on the perf ledger's `lookup-cold` workload it
//! skipped 0.08 of 12 cold reads per item (EXPERIMENTS.md, "One row
//! path"). It is kept only as the ledger's own probe behind its
//! `embedding.cache_*` rows, and goes when those rows are retired.
//!
//! All storage is allocated in [`HotRowCache::new`]; `lookup_into`,
//! `probe_round` and `insert` are allocation-free
//! (`tests/zero_alloc_lookup.rs`). Per-table hit/miss counters and
//! bytes-moved accounting are maintained inline.

use crate::table::splitmix64;

/// Set-associative CLOCK cache of embedding rows.
///
/// # Examples
///
/// ```
/// use microrec_embedding::HotRowCache;
///
/// // Two tables of dim 4, room for 8 rows, 4-way sets.
/// let mut cache = HotRowCache::new(&[4, 4], 8, 4);
/// let mut out = [0.0f32; 4];
/// assert!(!cache.lookup_into(0, 17, &mut out)); // cold miss
/// cache.insert(0, 17, &[1.0, 2.0, 3.0, 4.0], 16);
/// assert!(cache.lookup_into(0, 17, &mut out)); // warm hit
/// assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct HotRowCache {
    /// Packed `(table << 48) | row` key per slot; [`EMPTY`] marks an
    /// invalid slot (one load per way instead of a separate valid bitmap).
    keys: Vec<u64>,
    refbit: Vec<bool>,
    /// CLOCK hand per set.
    hand: Vec<usize>,
    /// Row data, `max_dim` elements per slot.
    data: Vec<f32>,
    dims: Vec<u32>,
    /// `sets - 1`; sets is a power of two so the set index is a mask, not
    /// a division, on the per-lookup path.
    set_mask: usize,
    ways: usize,
    max_dim: usize,
    hits: Vec<u64>,
    misses: Vec<u64>,
    bytes_from_cache: u64,
    bytes_from_memory: u64,
}

/// Key sentinel for an invalid slot. Unreachable from [`pack_key`] for any
/// real table: it would need table 65535 *and* row 2^48 - 1.
const EMPTY: u64 = u64::MAX;

/// Largest power of two `<= n` (n must be nonzero).
#[inline]
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n > 0);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Packs a `(table, row)` key. Row indices fit 48 bits (the largest
/// production table has 26M rows).
#[inline]
fn pack_key(table: usize, row: u64) -> u64 {
    debug_assert!(row < 1 << 48);
    let key = ((table as u64) << 48) | row;
    debug_assert!(key != EMPTY);
    key
}

impl HotRowCache {
    /// Builds a cache holding up to `rows` rows for tables of
    /// the given dims, organized as `ways`-associative sets. The set count
    /// is `rows / ways` rounded down to a power of two (minimum one set),
    /// keeping the per-lookup set index a mask rather than a division.
    #[must_use]
    pub fn new(dims: &[u32], rows: usize, ways: usize) -> Self {
        let ways = ways.max(1);
        let sets = prev_power_of_two((rows / ways).max(1));
        let slots = sets * ways;
        let max_dim = dims.iter().copied().max().unwrap_or(0) as usize;
        HotRowCache {
            keys: vec![EMPTY; slots],
            refbit: vec![false; slots],
            hand: vec![0; sets],
            data: vec![0.0; slots * max_dim],
            dims: dims.to_vec(),
            set_mask: sets - 1,
            ways,
            max_dim,
            hits: vec![0; dims.len()],
            misses: vec![0; dims.len()],
            bytes_from_cache: 0,
            bytes_from_memory: 0,
        }
    }

    /// Total row capacity (sets × ways).
    #[must_use]
    pub fn capacity(&self) -> usize {
        (self.set_mask + 1) * self.ways
    }

    /// Set associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        // Deterministic spread of (table, row) keys across sets.
        (splitmix64(key) as usize) & self.set_mask
    }

    /// Looks up `(table, row)`; on a hit copies the cached row into `out`
    /// (first `dim` elements), marks the slot recently used, and counts a
    /// hit. On a miss counts a miss. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range or `out` is shorter than the
    /// table's dim.
    #[inline]
    pub fn lookup_into(&mut self, table: usize, row: u64, out: &mut [f32]) -> bool {
        let dim = self.dims[table] as usize;
        let key = pack_key(table, row);
        let base = self.set_of(key) * self.ways;
        let set_keys = &self.keys[base..base + self.ways];
        if let Some(way) = set_keys.iter().position(|&k| k == key) {
            let slot = base + way;
            self.refbit[slot] = true;
            let start = slot * self.max_dim;
            out[..dim].copy_from_slice(&self.data[start..start + dim]);
            self.hits[table] += 1;
            self.bytes_from_cache += dim as u64 * 4;
            return true;
        }
        self.misses[table] += 1;
        false
    }

    /// Probes one whole lookup round (one row index per table, in table
    /// order) against the cache. Hit rows are copied into their slice of
    /// `out` (concatenated table dims); missing table indices are appended
    /// to `misses` (cleared first) for the caller to read from backing
    /// storage and [`HotRowCache::insert`].
    ///
    /// Identical in observable effect to calling
    /// [`HotRowCache::lookup_into`] per table, but the probe loop carries
    /// no backing-storage work in its shadow, so the CPU overlaps the
    /// per-table cache-line fetches instead of serializing a
    /// probe→read→insert dependency chain on every miss. Allocation-free
    /// when `misses` has capacity for one entry per table.
    ///
    /// # Panics
    ///
    /// Panics if `indices` has more entries than the cache has tables or
    /// `out` is shorter than the summed dims.
    #[inline]
    pub fn probe_round(&mut self, indices: &[u64], out: &mut [f32], misses: &mut Vec<usize>) {
        misses.clear();
        let mut offset = 0usize;
        for (table, &row) in indices.iter().enumerate() {
            let dim = self.dims[table] as usize;
            let key = pack_key(table, row);
            let base = self.set_of(key) * self.ways;
            let set_keys = &self.keys[base..base + self.ways];
            if let Some(way) = set_keys.iter().position(|&k| k == key) {
                let slot = base + way;
                self.refbit[slot] = true;
                let start = slot * self.max_dim;
                out[offset..offset + dim].copy_from_slice(&self.data[start..start + dim]);
                self.hits[table] += 1;
                self.bytes_from_cache += dim as u64 * 4;
            } else {
                self.misses[table] += 1;
                misses.push(table);
            }
            offset += dim;
        }
    }

    /// Inserts a freshly read row, evicting a victim from its set with the
    /// CLOCK second-chance policy. `source_bytes` is what the backing read
    /// moved from memory (row bytes in the arena's storage format) and is
    /// added to the bytes-from-memory counter. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range or `values` is shorter than the
    /// table's dim.
    #[inline]
    pub fn insert(&mut self, table: usize, row: u64, values: &[f32], source_bytes: usize) {
        self.bytes_from_memory += source_bytes as u64;
        let dim = self.dims[table] as usize;
        let key = pack_key(table, row);
        let set = self.set_of(key);
        let base = set * self.ways;
        // CLOCK: prefer an invalid slot, else sweep clearing reference
        // bits; after two sweeps every bit is clear, so this terminates.
        let set_keys = &self.keys[base..base + self.ways];
        let mut victim = set_keys.iter().position(|&k| k == EMPTY).map(|way| base + way);
        if victim.is_none() {
            let mut hand = self.hand[set];
            for _ in 0..2 * self.ways {
                let slot = base + hand;
                hand += 1;
                if hand == self.ways {
                    hand = 0;
                }
                if self.refbit[slot] {
                    self.refbit[slot] = false;
                } else {
                    victim = Some(slot);
                    break;
                }
            }
            self.hand[set] = hand;
        }
        let slot = victim.unwrap_or(base);
        let start = slot * self.max_dim;
        self.data[start..start + dim].copy_from_slice(&values[..dim]);
        self.keys[slot] = key;
        self.refbit[slot] = true;
    }

    /// Invalidates every slot (counters are kept; see
    /// [`HotRowCache::reset_stats`]).
    pub fn clear(&mut self) {
        self.keys.iter_mut().for_each(|k| *k = EMPTY);
        self.refbit.iter_mut().for_each(|r| *r = false);
        self.hand.iter_mut().for_each(|h| *h = 0);
    }

    /// Zeroes all hit/miss/bytes counters.
    pub fn reset_stats(&mut self) {
        self.hits.iter_mut().for_each(|h| *h = 0);
        self.misses.iter_mut().for_each(|m| *m = 0);
        self.bytes_from_cache = 0;
        self.bytes_from_memory = 0;
    }

    /// Total hits across tables.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Total misses across tables.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Per-table hit counters, in logical table order.
    #[must_use]
    pub fn per_table_hits(&self) -> &[u64] {
        &self.hits
    }

    /// Per-table miss counters, in logical table order.
    #[must_use]
    pub fn per_table_misses(&self) -> &[u64] {
        &self.misses
    }

    /// Hit fraction over all lookups so far (0 when none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let total = h + self.misses();
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// Bytes served from the cache (f32 rows).
    #[must_use]
    pub fn bytes_from_cache(&self) -> u64 {
        self.bytes_from_cache
    }

    /// Bytes moved from backing memory on misses (as `insert` was told).
    #[must_use]
    pub fn bytes_from_memory(&self) -> u64 {
        self.bytes_from_memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f32, dim: usize) -> Vec<f32> {
        (0..dim).map(|i| v + i as f32).collect()
    }

    #[test]
    fn hit_returns_inserted_values_exactly() {
        let mut c = HotRowCache::new(&[8, 4], 16, 4);
        c.insert(0, 3, &row(1.0, 8), 32);
        c.insert(1, 3, &row(9.0, 4), 16);
        let mut out = [0.0f32; 8];
        assert!(c.lookup_into(0, 3, &mut out));
        assert_eq!(&out[..], &row(1.0, 8)[..]);
        assert!(c.lookup_into(1, 3, &mut out[..4]));
        assert_eq!(&out[..4], &row(9.0, 4)[..]);
        // Same row index in different tables are distinct keys.
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn counters_and_bytes_account_per_table() {
        let mut c = HotRowCache::new(&[8, 4], 16, 4);
        let mut out = [0.0f32; 8];
        assert!(!c.lookup_into(0, 1, &mut out));
        c.insert(0, 1, &row(0.5, 8), 16); // the source bytes are the caller's count
        assert!(c.lookup_into(0, 1, &mut out));
        assert!(c.lookup_into(0, 1, &mut out));
        assert!(!c.lookup_into(1, 1, &mut out[..4]));
        assert_eq!(c.per_table_hits(), &[2, 0]);
        assert_eq!(c.per_table_misses(), &[1, 1]);
        assert_eq!(c.bytes_from_cache(), 64); // 2 hits x 8 elems x 4 bytes
        assert_eq!(c.bytes_from_memory(), 16);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.hits() + c.misses(), 0);
        assert_eq!(c.bytes_from_cache(), 0);
    }

    #[test]
    fn clock_gives_referenced_rows_a_second_chance() {
        // One set, 2 ways: fill with A and B, touch A, insert C.
        // CLOCK must evict B (refbit clear) and keep A.
        let mut c = HotRowCache::new(&[2], 2, 2);
        assert_eq!(c.capacity(), 2);
        // Find three rows that map to the single set (sets == 1, so all do).
        c.insert(0, 10, &[1.0, 1.0], 8);
        c.insert(0, 11, &[2.0, 2.0], 8);
        let mut out = [0.0f32; 2];
        // Inserts set refbits; sweep will clear both, then evict at the
        // hand. Touch row 10 AFTER a full sweep to test second chance:
        c.insert(0, 12, &[3.0, 3.0], 8); // clears both refbits, evicts slot 0
                                         // Exactly one of 10/11 was evicted; the survivor + 12 are present.
        let present: Vec<u64> =
            [10u64, 11, 12].iter().copied().filter(|&r| c.lookup_into(0, r, &mut out)).collect();
        assert_eq!(present.len(), 2);
        assert!(present.contains(&12));
        // Now touch the survivor (refbit set), insert another row: the
        // survivor must survive again, 12 (untouched... but just looked
        // up) — make it deterministic: lookups above set refbits on both.
        // Clear state and test the pure second-chance sequence instead.
        let mut c = HotRowCache::new(&[2], 2, 2);
        c.insert(0, 10, &[1.0, 1.0], 8);
        c.insert(0, 11, &[2.0, 2.0], 8);
        // Sweep 1 (insert 12): both refbits set -> cleared; evicts at hand
        // wrap; 12 lands with refbit set.
        c.insert(0, 12, &[3.0, 3.0], 8);
        // Touch 12, then insert 13: the non-12 slot has refbit clear and
        // must be the victim; 12 survives.
        assert!(c.lookup_into(0, 12, &mut out));
        c.insert(0, 13, &[4.0, 4.0], 8);
        assert!(c.lookup_into(0, 12, &mut out), "recently used row evicted");
        assert!(c.lookup_into(0, 13, &mut out));
    }

    #[test]
    fn associativity_isolates_sets() {
        // Many sets: rows landing in different sets never evict each other.
        let mut c = HotRowCache::new(&[4], 64, 4);
        let mut out = [0.0f32; 4];
        for r in 0..16u64 {
            c.insert(0, r, &row(r as f32, 4), 16);
        }
        let resident = (0..16u64).filter(|&r| c.lookup_into(0, r, &mut out)).count();
        assert_eq!(resident, 16, "64-row cache must hold 16 distinct rows");
    }

    #[test]
    fn eviction_is_deterministic() {
        let ops: Vec<u64> = (0..200).map(|i| splitmix64(i) % 40).collect();
        let run = || {
            let mut c = HotRowCache::new(&[4], 8, 2);
            let mut out = [0.0f32; 4];
            for &r in &ops {
                if !c.lookup_into(0, r, &mut out) {
                    c.insert(0, r, &row(r as f32, 4), 16);
                }
            }
            (c.hits(), c.misses(), c.bytes_from_cache(), c.bytes_from_memory())
        };
        assert_eq!(run(), run());
        let (hits, misses, _, _) = run();
        assert_eq!(hits + misses, 200);
        assert!(hits > 0, "a 40-row key space over 200 ops must re-hit");
    }

    #[test]
    fn probe_round_matches_per_row_lookups() {
        // Drive the same trace through probe_round and through per-row
        // lookup_into/insert on a twin cache: output values must agree
        // bit-exactly every round. Counters may differ — probe-then-insert
        // reorders probes relative to inserts within a round, and sets are
        // shared across tables, so an insert can evict a row the per-row
        // order would still have hit — but each twin must stay internally
        // consistent (hits + misses == lookups, per table and in total).
        let dims = [4u32, 2, 4];
        let rows = |t: usize, r: u64| row((t * 100) as f32 + r as f32, dims[t] as usize);
        let trace: Vec<Vec<u64>> =
            (0..50u64).map(|i| vec![splitmix64(i) % 9, splitmix64(i + 99) % 9, i % 3]).collect();

        let mut batched = HotRowCache::new(&dims, 16, 4);
        let mut per_row = HotRowCache::new(&dims, 16, 4);
        let mut misses = Vec::with_capacity(dims.len());
        let mut out_a = [0.0f32; 10];
        let mut out_b = [0.0f32; 10];
        let offsets = [0usize, 4, 6];
        for q in &trace {
            batched.probe_round(q, &mut out_a, &mut misses);
            for &t in &misses {
                let dim = dims[t] as usize;
                let values = rows(t, q[t]);
                out_a[offsets[t]..offsets[t] + dim].copy_from_slice(&values);
                batched.insert(t, q[t], &values, dim * 4);
            }
            for (t, &r) in q.iter().enumerate() {
                let dim = dims[t] as usize;
                let slot = &mut out_b[offsets[t]..offsets[t] + dim];
                if !per_row.lookup_into(t, r, slot) {
                    slot.copy_from_slice(&rows(t, r));
                    per_row.insert(t, r, slot, dim * 4);
                }
            }
            assert_eq!(out_a, out_b);
        }
        let rounds = trace.len() as u64;
        for c in [&batched, &per_row] {
            for t in 0..dims.len() {
                assert_eq!(c.per_table_hits()[t] + c.per_table_misses()[t], rounds);
            }
            assert_eq!(c.hits() + c.misses(), rounds * dims.len() as u64);
            assert!(c.hits() > 0 && c.misses() > 0);
        }
    }

    #[test]
    fn tiny_capacity_still_works() {
        let mut c = HotRowCache::new(&[4], 0, 8);
        // Rounds up to one set of 8 ways.
        assert_eq!(c.capacity(), 8);
        c.insert(0, 1, &row(1.0, 4), 16);
        let mut out = [0.0f32; 4];
        assert!(c.lookup_into(0, 1, &mut out));
    }
}
