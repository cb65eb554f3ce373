//! Arena-backed embedding storage.
//!
//! An [`EmbeddingArena`] materializes a model's logical tables into one
//! contiguous, 64-byte-aligned `f32` buffer per memory channel, so a
//! round-combined batch gather walks sequential stride-indexed slices
//! instead of pointer-chasing per-table `Vec`s (and, for procedural
//! tables, instead of re-hashing every element on every read). Rows are
//! exact copies of the table values, so a read is a copy, bit-identical
//! to [`crate::EmbeddingTable::read_row`]: the paper keeps every embedding
//! element 32 bits wide for both datapath precisions (Table 4).
//!
//! Alignment is achieved without `unsafe` by over-allocating each channel
//! buffer and skipping a computed element pad; table bases are then kept
//! on 64-byte boundaries by construction.
//!
//! Building an arena is a bulk fill: the layout is fixed first, every
//! channel is allocated zeroed at its final length (untouched pages,
//! straight from the OS), and the tables' rows are then written in place
//! by [`EmbeddingTable::fill_rows`] in jobs of a few thousand rows spread
//! over the host's cores — so both the value generation and the
//! first-touch page faults of a large arena are split. The bytes do not
//! depend on how the jobs are scheduled.

use std::sync::{Mutex, PoisonError};

use crate::error::EmbeddingError;
use crate::table::EmbeddingTable;

/// Bytes of alignment for channel buffers and table bases.
const ALIGN: usize = 64;

/// `f32` elements per [`ALIGN`] bytes.
const ALIGN_ELEMS: usize = ALIGN / size_of::<f32>();

/// Arenas smaller than this are filled on the calling thread: a few
/// milliseconds of fill do not repay spawning threads (and a tiny model's
/// process should not grow thread stacks and allocator arenas for it).
const PAR_FILL_FLOOR_BYTES: u64 = 4 << 20;

/// Elements per fill job: small enough that the jobs of one large table
/// balance across threads, large enough that handing out a job costs
/// nothing next to filling it.
const FILL_JOB_ELEMS: usize = 1 << 14;

/// How arena rows are stored: exact `f32` values, 4 bytes per element.
/// It has one value; the engine builder's `embedding_arena` and
/// `tiered_storage` take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFormat {
    /// Exact `f32` values (bit-identical to the source tables).
    F32,
}

/// Where one logical table lives inside the arena.
#[derive(Debug, Clone, Copy)]
struct TableLoc {
    channel: usize,
    /// Element offset of row 0 within the channel buffer.
    base: usize,
    rows: u64,
    dim: usize,
}

/// Contiguous, aligned `f32` storage for a model's logical embedding
/// tables.
///
/// # Examples
///
/// ```
/// use microrec_embedding::{EmbeddingArena, EmbeddingTable, TableSpec};
///
/// let tables = vec![
///     EmbeddingTable::procedural(TableSpec::new("a", 100, 8), 1),
///     EmbeddingTable::procedural(TableSpec::new("b", 50, 8), 2),
/// ];
/// let arena = EmbeddingArena::build(&tables, &[0, 0])?;
/// let mut row = [0.0f32; 8];
/// arena.read_row_into(1, 7, &mut row)?;
/// let mut expect = [0.0f32; 8];
/// tables[1].read_row(7, &mut expect)?;
/// assert_eq!(row, expect); // arena reads are bit-identical
/// # Ok::<(), microrec_embedding::EmbeddingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingArena {
    /// One buffer per memory channel, each starting with its alignment pad.
    channels: Vec<Vec<f32>>,
    tables: Vec<TableLoc>,
    names: Vec<String>,
    feature_len: usize,
    total_bytes: u64,
}

/// Rounds `n` elements up so the next table base lands on a 64-byte
/// boundary (relative to an aligned origin).
fn align_up(n: usize) -> usize {
    n.div_ceil(ALIGN_ELEMS) * ALIGN_ELEMS
}

/// Channel sizes and table placement under one channel assignment.
struct Layout {
    /// Elements per channel, inter-table padding included.
    channel_elems: Vec<usize>,
    /// Each table's element offset from its channel's aligned origin
    /// (always a multiple of 64 bytes).
    bases: Vec<usize>,
}

impl Layout {
    /// Lays tables of `table_elems` elements out back to back, in table
    /// order, on the channels `channel_of` names.
    fn plan(table_elems: impl Iterator<Item = usize>, channel_of: &[usize]) -> Layout {
        let num_channels = channel_of.iter().map(|&c| c + 1).max().unwrap_or(1);
        let mut channel_elems = vec![0usize; num_channels];
        let bases = table_elems
            .zip(channel_of)
            .map(|(elems, &ch)| {
                let base = channel_elems[ch];
                channel_elems[ch] = align_up(base + elems);
                base
            })
            .collect();
        Layout { channel_elems, bases }
    }

    /// Bytes of all channels.
    fn bytes(&self) -> u64 {
        self.channel_elems.iter().map(|&e| (e * size_of::<f32>()) as u64).sum()
    }

    /// Allocates every channel zero-filled at its final length: `pad`
    /// elements up to the buffer's first 64-byte boundary, then the
    /// channel's elements. Returns the channels and their pads. A zeroed
    /// allocation this large comes from the OS untouched, so its pages are
    /// first touched by whoever writes the rows.
    fn alloc(&self) -> (Vec<Vec<f32>>, Vec<usize>) {
        self.channel_elems
            .iter()
            .map(|&elems| {
                let mut buf = vec![0.0f32; elems + ALIGN_ELEMS];
                let pad_bytes = (ALIGN - buf.as_ptr() as usize % ALIGN) % ALIGN;
                debug_assert_eq!(pad_bytes % size_of::<f32>(), 0);
                let pad = pad_bytes / size_of::<f32>();
                buf.truncate(pad + elems);
                (buf, pad)
            })
            .unzip()
    }
}

/// Splits `skip` elements and then `take` elements off the front of
/// `rest`, returning the taken run.
fn carve<'a, T>(rest: &mut &'a mut [T], skip: usize, take: usize) -> &'a mut [T] {
    let (_, tail) = std::mem::take(rest).split_at_mut(skip);
    let (taken, tail) = tail.split_at_mut(take);
    *rest = tail;
    taken
}

/// One unit of arena fill: rows `start_row..` of `table`, as many as fit
/// `dst`.
struct FillJob<'a> {
    table: &'a EmbeddingTable,
    start_row: u64,
    dst: &'a mut [f32],
}

/// Threads that fill an arena of `arena_bytes`.
fn fill_threads(arena_bytes: u64) -> usize {
    if arena_bytes < PAR_FILL_FLOOR_BYTES {
        1
    } else {
        microrec_par::default_threads()
    }
}

/// Allocates `layout`'s channels and has `fill` write every table's rows
/// into place, `threads` jobs at a time. Returns the channels and their
/// pads.
fn materialize<F>(
    tables: &[EmbeddingTable],
    channel_of: &[usize],
    layout: &Layout,
    threads: usize,
    fill: F,
) -> Result<(Vec<Vec<f32>>, Vec<usize>), EmbeddingError>
where
    F: Fn(&EmbeddingTable, u64, &mut [f32]) -> Result<(), EmbeddingError> + Sync,
{
    let (mut channels, pads) = layout.alloc();
    // Carve the channels into disjoint per-job slices; tables sharing a
    // channel follow each other at their planned bases.
    let mut rest: Vec<&mut [f32]> =
        channels.iter_mut().zip(&pads).map(|(buf, &pad)| &mut buf[pad..]).collect();
    let mut carved = vec![0usize; rest.len()];
    let mut jobs = Vec::new();
    for ((table, &ch), &base) in tables.iter().zip(channel_of).zip(&layout.bases) {
        let (rows, dim) = (table.rows() as usize, table.dim() as usize);
        let mut region = carve(&mut rest[ch], base - carved[ch], rows * dim);
        carved[ch] = base + rows * dim;
        let job_rows = (FILL_JOB_ELEMS / dim.max(1)).max(1);
        for start_row in (0..rows).step_by(job_rows) {
            let n = job_rows.min(rows - start_row);
            jobs.push(Mutex::new(FillJob {
                table,
                start_row: start_row as u64,
                dst: carve(&mut region, 0, n * dim),
            }));
        }
    }
    // Each job is locked once, by the one thread that runs it.
    microrec_par::par_map(&jobs, threads, |_, job| {
        let mut job = job.lock().unwrap_or_else(PoisonError::into_inner);
        let FillJob { table, start_row, dst } = &mut *job;
        fill(table, *start_row, dst)
    })
    .into_iter()
    .collect::<Result<(), _>>()?;
    drop(jobs);
    Ok((channels, pads))
}

impl EmbeddingArena {
    /// Materializes `tables` into channel arenas. `channel_of[i]` assigns
    /// logical table `i` to a memory channel (use all zeros for a single
    /// arena).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::BufferSizeMismatch`] if `channel_of` does
    /// not have one entry per table.
    pub fn build(tables: &[EmbeddingTable], channel_of: &[usize]) -> Result<Self, EmbeddingError> {
        Self::build_on(tables, channel_of, fill_threads)
    }

    /// [`build`](Self::build) with the fill's thread count (a function of
    /// the arena's bytes) chosen by the caller.
    fn build_on(
        tables: &[EmbeddingTable],
        channel_of: &[usize],
        threads_for: impl FnOnce(u64) -> usize,
    ) -> Result<Self, EmbeddingError> {
        if channel_of.len() != tables.len() {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: tables.len(),
                actual: channel_of.len(),
            });
        }
        let layout =
            Layout::plan(tables.iter().map(|t| t.rows() as usize * t.dim() as usize), channel_of);
        let total_bytes = layout.bytes();
        let threads = threads_for(total_bytes);
        let (channels, pads) =
            materialize(tables, channel_of, &layout, threads, EmbeddingTable::fill_rows)?;
        let locs = tables
            .iter()
            .zip(channel_of)
            .zip(&layout.bases)
            .map(|((table, &ch), &base)| TableLoc {
                channel: ch,
                base: base + pads[ch],
                rows: table.rows(),
                dim: table.dim() as usize,
            })
            .collect();
        Ok(EmbeddingArena {
            channels,
            tables: locs,
            names: tables.iter().map(|t| t.name().to_string()).collect(),
            feature_len: tables.iter().map(|t| t.dim() as usize).sum(),
            total_bytes,
        })
    }

    /// Number of logical tables stored.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Concatenated feature length (Σ dims) for one lookup round.
    #[must_use]
    pub fn feature_len(&self) -> usize {
        self.feature_len
    }

    /// Size of the arena in bytes (rows + alignment padding).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Vector length of table `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    #[must_use]
    pub fn dim(&self, table: usize) -> usize {
        self.tables[table].dim
    }

    /// Whether this arena stores exactly the shapes of `tables` (used to
    /// validate a shared arena against an engine's catalog).
    #[must_use]
    pub fn matches(&self, tables: &[EmbeddingTable]) -> bool {
        self.tables.len() == tables.len()
            && self
                .tables
                .iter()
                .zip(tables)
                .all(|(loc, t)| loc.rows == t.rows() && loc.dim == t.dim() as usize)
    }

    /// Whether every table base sits on a 64-byte boundary.
    #[must_use]
    pub fn is_aligned(&self) -> bool {
        self.tables.iter().all(|loc| {
            let channel = self.channels[loc.channel].as_ptr() as usize;
            (channel + loc.base * size_of::<f32>()).is_multiple_of(ALIGN)
        })
    }

    /// Copies row `row` of logical table `table` into `out` (length must
    /// equal the table's dim), bit-identical to [`EmbeddingTable::read_row`]
    /// on the source table.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::IndexOutOfRange`] or
    /// [`EmbeddingError::BufferSizeMismatch`].
    #[inline]
    pub fn read_row_into(
        &self,
        table: usize,
        row: u64,
        out: &mut [f32],
    ) -> Result<(), EmbeddingError> {
        let loc = match self.tables.get(table) {
            Some(loc) if row < loc.rows => *loc,
            _ => {
                return Err(EmbeddingError::IndexOutOfRange {
                    table: self.names.get(table).cloned().unwrap_or_default(),
                    index: row,
                    rows: self.tables.get(table).map_or(0, |l| l.rows),
                });
            }
        };
        if out.len() != loc.dim {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: loc.dim,
                actual: out.len(),
            });
        }
        let start = loc.base + row as usize * loc.dim;
        out.copy_from_slice(&self.channels[loc.channel][start..start + loc.dim]);
        Ok(())
    }

    /// Gathers the concatenated feature vector for one query (a row index
    /// per logical table) into `out`, in logical table order — the arena
    /// equivalent of [`crate::Catalog::gather`].
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::ArityMismatch`],
    /// [`EmbeddingError::BufferSizeMismatch`], or
    /// [`EmbeddingError::IndexOutOfRange`].
    #[inline]
    pub fn gather_into(&self, indices: &[u64], out: &mut [f32]) -> Result<(), EmbeddingError> {
        if indices.len() != self.tables.len() {
            return Err(EmbeddingError::ArityMismatch {
                expected: self.tables.len(),
                actual: indices.len(),
            });
        }
        if out.len() != self.feature_len {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: self.feature_len,
                actual: out.len(),
            });
        }
        let mut offset = 0usize;
        for (table, &row) in indices.iter().enumerate() {
            let dim = self.tables[table].dim;
            self.read_row_into(table, row, &mut out[offset..offset + dim])?;
            offset += dim;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TableSpec;

    fn tables() -> Vec<EmbeddingTable> {
        vec![
            EmbeddingTable::procedural(TableSpec::new("a", 40, 8), 1),
            EmbeddingTable::procedural(TableSpec::new("b", 25, 12), 2),
            EmbeddingTable::procedural(TableSpec::new("c", 60, 4), 3),
        ]
    }

    #[test]
    fn f32_arena_is_bit_identical_to_tables() {
        let tabs = tables();
        let arena = EmbeddingArena::build(&tabs, &[0, 0, 0]).unwrap();
        for (t, table) in tabs.iter().enumerate() {
            let dim = table.dim() as usize;
            let mut got = vec![0.0f32; dim];
            let mut want = vec![0.0f32; dim];
            for row in 0..table.rows() {
                arena.read_row_into(t, row, &mut got).unwrap();
                table.read_row(row, &mut want).unwrap();
                assert_eq!(got, want, "table {t} row {row}");
            }
        }
    }

    #[test]
    fn gather_matches_catalog_order() {
        let tabs = tables();
        let arena = EmbeddingArena::build(&tabs, &[0, 1, 0]).unwrap();
        assert_eq!(arena.feature_len(), 24);
        let indices = [7u64, 3, 59];
        let mut got = vec![0.0f32; 24];
        arena.gather_into(&indices, &mut got).unwrap();
        let mut want = Vec::new();
        for (t, &row) in indices.iter().enumerate() {
            want.extend(tabs[t].row(row).unwrap());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn arena_bases_are_aligned() {
        let arena = EmbeddingArena::build(&tables(), &[0, 0, 1]).unwrap();
        assert!(arena.is_aligned());
    }

    /// Tables that share channels, span several fill jobs, and include
    /// the degenerate sizes (one row; fewer elements than a cache line).
    fn fill_tables() -> Vec<EmbeddingTable> {
        vec![
            EmbeddingTable::procedural(TableSpec::new("a", 5_000, 8), 11),
            EmbeddingTable::procedural(TableSpec::new("b", 2_500, 12), 12),
            EmbeddingTable::procedural(TableSpec::new("c", 60, 4), 13),
            EmbeddingTable::procedural(TableSpec::new("d", 1, 16), 14),
            EmbeddingTable::procedural(TableSpec::new("e", 4_097, 4), 15),
        ]
    }

    /// Checks every byte of `arena` against the obvious construction: one
    /// `read_row` at a time, appended to its channel, zeros up to the next
    /// 64 bytes after each table.
    fn assert_matches_row_by_row_build(
        arena: &EmbeddingArena,
        tables: &[EmbeddingTable],
        channel_of: &[usize],
    ) {
        let num_channels = channel_of.iter().max().unwrap() + 1;
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); num_channels];
        let mut want_bases = Vec::new();
        for (table, &ch) in tables.iter().zip(channel_of) {
            want_bases.push(want[ch].len());
            let mut row = vec![0.0f32; table.dim() as usize];
            for r in 0..table.rows() {
                table.read_row(r, &mut row).unwrap();
                want[ch].extend(row.iter().map(|v| v.to_bits()));
            }
            let padded = want[ch].len().div_ceil(ALIGN_ELEMS) * ALIGN_ELEMS;
            want[ch].resize(padded, 0);
        }

        let got: Vec<Vec<u32>> =
            arena.channels.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect();
        assert_eq!(got.len(), num_channels);
        for (ch, (got, want)) in got.iter().zip(&want).enumerate() {
            let pad = got.len() - want.len();
            assert!(pad < ALIGN_ELEMS, "channel {ch}: pad {pad}");
            assert!(got[..pad].iter().all(|&v| v == 0), "channel {ch}: dirty pad");
            assert!(got[pad..] == want[..], "channel {ch}: rows differ");
            for (t, loc) in arena.tables.iter().enumerate().filter(|(_, l)| l.channel == ch) {
                assert_eq!(loc.base, pad + want_bases[t], "table {t}");
                assert_eq!((loc.rows, loc.dim), (tables[t].rows(), tables[t].dim() as usize));
            }
        }
        let bytes: usize = want.iter().map(|c| c.len() * size_of::<f32>()).sum();
        assert_eq!(arena.total_bytes(), bytes as u64);
        assert!(arena.is_aligned());
    }

    #[test]
    fn bulk_fill_is_byte_identical_to_a_row_by_row_build() {
        let procedural = fill_tables();
        let materialized: Vec<EmbeddingTable> =
            procedural.iter().map(|t| t.to_materialized(u64::MAX).unwrap()).collect();
        // One channel, fewer channels than fill threads, more channels
        // than fill threads; one thread, two, and more than there are
        // channels.
        for channel_of in [[0usize; 5], [0, 1, 0, 1, 1], [4, 1, 0, 1, 2]] {
            for tables in [&procedural, &materialized] {
                for threads in [1usize, 2, 7] {
                    let arena = EmbeddingArena::build_on(tables, &channel_of, |_| threads).unwrap();
                    assert_matches_row_by_row_build(&arena, tables, &channel_of);
                }
            }
        }
    }

    #[test]
    fn an_arena_under_the_size_floor_is_filled_on_the_calling_thread() {
        use std::collections::HashSet;
        use std::thread::{current, ThreadId};

        // Which threads fill `tables` when the arena holds `bytes` bytes.
        let fillers = |bytes: u64| -> HashSet<ThreadId> {
            let tables = fill_tables();
            let channel_of = [0, 1, 0, 1, 2];
            let layout = Layout::plan(
                tables.iter().map(|t| t.rows() as usize * t.dim() as usize),
                &channel_of,
            );
            let seen = Mutex::new(HashSet::new());
            let fill = |table: &EmbeddingTable, row, dst: &mut [f32]| {
                seen.lock().unwrap().insert(current().id());
                table.fill_rows(row, dst)
            };
            materialize(&tables, &channel_of, &layout, fill_threads(bytes), fill).unwrap();
            seen.into_inner().unwrap()
        };
        // The ledger's tiny4 arena is 64 KB.
        assert_eq!(fillers(64 << 10), HashSet::from([current().id()]));
        assert_eq!(fillers(PAR_FILL_FLOOR_BYTES - 1), HashSet::from([current().id()]));
        if microrec_par::default_threads() > 1 {
            assert!(!fillers(PAR_FILL_FLOOR_BYTES).contains(&current().id()));
        }
    }

    #[test]
    fn bad_reads_fail() {
        let arena = EmbeddingArena::build(&tables(), &[0, 0, 0]).unwrap();
        let mut out = [0.0f32; 8];
        assert!(arena.read_row_into(0, 40, &mut out).is_err());
        assert!(arena.read_row_into(9, 0, &mut out).is_err());
        assert!(arena.read_row_into(1, 0, &mut out).is_err()); // dim 12 != 8
        assert!(arena.gather_into(&[0, 0], &mut [0.0; 24]).is_err());
        assert!(arena.gather_into(&[0, 0, 0], &mut [0.0; 23]).is_err());
        assert!(arena.matches(&tables()));
        assert!(!arena.matches(&tables()[..2]));
    }
}
