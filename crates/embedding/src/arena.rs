//! Arena-backed embedding storage.
//!
//! An [`EmbeddingArena`] materializes a model's logical tables into one
//! contiguous, 64-byte-aligned buffer per memory channel, so a
//! round-combined batch gather walks sequential stride-indexed slices
//! instead of pointer-chasing per-table `Vec`s (and, for procedural
//! tables, instead of re-hashing every element on every read). Rows can
//! be stored in three formats:
//!
//! * [`RowFormat::F32`] — exact copies of the table values; reads are
//!   bit-identical to [`crate::EmbeddingTable::read_row`].
//! * [`RowFormat::F16`] — IEEE half precision, 2 bytes/element (2× fewer
//!   row bytes moved per gather).
//! * [`RowFormat::I8`] — symmetric 8-bit quantization with one `f32`
//!   scale per row, ~1 byte/element (4× fewer row bytes).
//!
//! Decoding is fused with the copy into the destination buffer by the
//! runtime-dispatched kernels in `microrec-dnn` (`f16_decode_slice`,
//! `i8_dequant_slice`), which are bit-identical to their scalar
//! references. Alignment is achieved without `unsafe` by over-allocating
//! each channel buffer and skipping a computed element pad; table bases
//! are then kept on 64-byte boundaries by construction.
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
use microrec_dnn::{f16_decode_slice, f16_encode_slice, i8_dequant_slice, i8_quant_slice};

/// Bytes of alignment for channel buffers and table bases.
const ALIGN: usize = 64;

/// Arenas smaller than this are filled on the calling thread: a few
/// milliseconds of fill do not repay spawning threads (and a tiny model's
/// process should not grow thread stacks and allocator arenas for it).
const PAR_FILL_FLOOR_BYTES: u64 = 4 << 20;

/// Elements per fill job: small enough that the jobs of one large table
/// balance across threads and the `f32` staging buffer of an encoded
/// format stays a 64 KB allocation, large enough that handing out a job
/// costs nothing next to filling it.
const FILL_JOB_ELEMS: usize = 1 << 14;

/// How arena rows are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFormat {
    /// Exact `f32` values (bit-identical to the source tables).
    F32,
    /// IEEE 754 binary16, 2 bytes per element.
    F16,
    /// 8-bit symmetric quantization with a per-row `f32` scale.
    I8,
}

impl RowFormat {
    /// Bytes per stored element (excluding the `i8` per-row scale).
    #[must_use]
    pub fn bytes_per_elem(self) -> usize {
        match self {
            RowFormat::F32 => 4,
            RowFormat::F16 => 2,
            RowFormat::I8 => 1,
        }
    }

    /// Stable lowercase name (used in bench/report records).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RowFormat::F32 => "f32",
            RowFormat::F16 => "f16",
            RowFormat::I8 => "i8",
        }
    }
}

impl std::fmt::Display for RowFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The channels' backing stores, all in the arena's row format.
#[derive(Debug, Clone)]
enum Channels {
    F32(Vec<Vec<f32>>),
    F16(Vec<Vec<u16>>),
    I8(Vec<Vec<i8>>),
}

/// Where one logical table lives inside the arena.
#[derive(Debug, Clone, Copy)]
struct TableLoc {
    channel: usize,
    /// Element offset of row 0 within the channel buffer.
    base: usize,
    rows: u64,
    dim: usize,
    /// Index of this table's first per-row scale (I8 only).
    scale_base: usize,
}

/// Contiguous, aligned, optionally quantized storage for a model's
/// logical embedding tables.
///
/// # Examples
///
/// ```
/// use microrec_embedding::{EmbeddingArena, EmbeddingTable, RowFormat, TableSpec};
///
/// let tables = vec![
///     EmbeddingTable::procedural(TableSpec::new("a", 100, 8), 1),
///     EmbeddingTable::procedural(TableSpec::new("b", 50, 8), 2),
/// ];
/// let arena = EmbeddingArena::build(&tables, RowFormat::F32, &[0, 0])?;
/// let mut row = [0.0f32; 8];
/// arena.read_row_into(1, 7, &mut row)?;
/// let mut expect = [0.0f32; 8];
/// tables[1].read_row(7, &mut expect)?;
/// assert_eq!(row, expect); // F32 arena reads are bit-identical
/// # Ok::<(), microrec_embedding::EmbeddingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingArena {
    format: RowFormat,
    channels: Channels,
    tables: Vec<TableLoc>,
    names: Vec<String>,
    /// Per-row dequantization scales (I8 format only, else empty).
    scales: Vec<f32>,
    feature_len: usize,
    total_bytes: u64,
}

/// Rounds `n` elements up so the next table base lands on a 64-byte
/// boundary (relative to an aligned origin).
fn align_up(n: usize, elem_bytes: usize) -> usize {
    let step = ALIGN / elem_bytes;
    n.div_ceil(step) * step
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
    fn plan(
        table_elems: impl Iterator<Item = usize>,
        channel_of: &[usize],
        elem_bytes: usize,
    ) -> Layout {
        let num_channels = channel_of.iter().map(|&c| c + 1).max().unwrap_or(1);
        let mut channel_elems = vec![0usize; num_channels];
        let bases = table_elems
            .zip(channel_of)
            .map(|(elems, &ch)| {
                let base = channel_elems[ch];
                channel_elems[ch] = align_up(base + elems, elem_bytes);
                base
            })
            .collect();
        Layout { channel_elems, bases }
    }

    /// Encoded bytes of all channels.
    fn bytes(&self, elem_bytes: usize) -> u64 {
        self.channel_elems.iter().map(|&e| (e * elem_bytes) as u64).sum()
    }

    /// Allocates every channel zero-filled at its final length: `pad`
    /// elements up to the buffer's first 64-byte boundary, then the
    /// channel's elements. Returns the channels and their pads. A zeroed
    /// allocation this large comes from the OS untouched, so its pages are
    /// first touched by whoever writes the rows.
    fn alloc<T: Copy + Default>(&self) -> (Vec<Vec<T>>, Vec<usize>) {
        let elem_bytes = size_of::<T>();
        self.channel_elems
            .iter()
            .map(|&elems| {
                let mut buf = vec![T::default(); elems + ALIGN / elem_bytes];
                let pad_bytes = (ALIGN - buf.as_ptr() as usize % ALIGN) % ALIGN;
                debug_assert_eq!(pad_bytes % elem_bytes, 0);
                let pad = pad_bytes / elem_bytes;
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
/// `dst`, plus (for `i8`) those rows' scales.
struct FillJob<'a, T> {
    table: &'a EmbeddingTable,
    start_row: u64,
    dst: &'a mut [T],
    scales: &'a mut [f32],
}

/// Threads that fill an arena of `arena_bytes`.
fn fill_threads(arena_bytes: u64) -> usize {
    if arena_bytes < PAR_FILL_FLOOR_BYTES {
        1
    } else {
        microrec_par::default_threads()
    }
}

/// Allocates `layout`'s channels and has `encode` write every table's
/// rows (and `scales`, one per row, when the format has them) into place,
/// `threads` jobs at a time. Returns the channels and their pads.
fn materialize<T, E>(
    tables: &[EmbeddingTable],
    channel_of: &[usize],
    layout: &Layout,
    mut scales: &mut [f32],
    threads: usize,
    encode: E,
) -> Result<(Vec<Vec<T>>, Vec<usize>), EmbeddingError>
where
    T: Copy + Default + Send,
    E: Fn(&EmbeddingTable, u64, &mut [T], &mut [f32]) -> Result<(), EmbeddingError> + Sync,
{
    let (mut channels, pads) = layout.alloc::<T>();
    // Carve the channels (and the scales, which run in table order) into
    // disjoint per-job slices; tables sharing a channel follow each other
    // at their planned bases.
    let mut rest: Vec<&mut [T]> =
        channels.iter_mut().zip(&pads).map(|(buf, &pad)| &mut buf[pad..]).collect();
    let mut carved = vec![0usize; rest.len()];
    let mut jobs = Vec::new();
    for ((table, &ch), &base) in tables.iter().zip(channel_of).zip(&layout.bases) {
        let (rows, dim) = (table.rows() as usize, table.dim() as usize);
        let mut region = carve(&mut rest[ch], base - carved[ch], rows * dim);
        carved[ch] = base + rows * dim;
        let scale_rows = rows.min(scales.len());
        let mut table_scales = carve(&mut scales, 0, scale_rows);
        let job_rows = (FILL_JOB_ELEMS / dim.max(1)).max(1);
        for start_row in (0..rows).step_by(job_rows) {
            let n = job_rows.min(rows - start_row);
            let scale_rows = n.min(table_scales.len());
            jobs.push(Mutex::new(FillJob {
                table,
                start_row: start_row as u64,
                dst: carve(&mut region, 0, n * dim),
                scales: carve(&mut table_scales, 0, scale_rows),
            }));
        }
    }
    // Each job is locked once, by the one thread that runs it.
    microrec_par::par_map(&jobs, threads, |_, job| {
        let mut job = job.lock().unwrap_or_else(PoisonError::into_inner);
        let FillJob { table, start_row, dst, scales } = &mut *job;
        encode(table, *start_row, dst, scales)
    })
    .into_iter()
    .collect::<Result<(), _>>()?;
    drop(jobs);
    Ok((channels, pads))
}

fn encode_f32(
    table: &EmbeddingTable,
    start_row: u64,
    dst: &mut [f32],
    _scales: &mut [f32],
) -> Result<(), EmbeddingError> {
    table.fill_rows(start_row, dst)
}

fn encode_f16(
    table: &EmbeddingTable,
    start_row: u64,
    dst: &mut [u16],
    _scales: &mut [f32],
) -> Result<(), EmbeddingError> {
    let mut values = vec![0.0f32; dst.len()];
    table.fill_rows(start_row, &mut values)?;
    f16_encode_slice(&values, dst);
    Ok(())
}

fn encode_i8(
    table: &EmbeddingTable,
    start_row: u64,
    dst: &mut [i8],
    scales: &mut [f32],
) -> Result<(), EmbeddingError> {
    let dim = table.dim() as usize;
    let mut values = vec![0.0f32; dst.len()];
    table.fill_rows(start_row, &mut values)?;
    for (row, scale) in scales.iter_mut().enumerate() {
        let at = row * dim..(row + 1) * dim;
        *scale = i8_quant_slice(&values[at.clone()], &mut dst[at]);
    }
    Ok(())
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
    pub fn build(
        tables: &[EmbeddingTable],
        format: RowFormat,
        channel_of: &[usize],
    ) -> Result<Self, EmbeddingError> {
        Self::build_on(tables, format, channel_of, fill_threads)
    }

    /// [`build`](Self::build) with the fill's thread count (a function of
    /// the arena's encoded bytes) chosen by the caller.
    fn build_on(
        tables: &[EmbeddingTable],
        format: RowFormat,
        channel_of: &[usize],
        threads_for: impl FnOnce(u64) -> usize,
    ) -> Result<Self, EmbeddingError> {
        if channel_of.len() != tables.len() {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: tables.len(),
                actual: channel_of.len(),
            });
        }
        let elem_bytes = format.bytes_per_elem();
        let layout = Layout::plan(
            tables.iter().map(|t| t.rows() as usize * t.dim() as usize),
            channel_of,
            elem_bytes,
        );
        let total_rows: u64 = tables.iter().map(EmbeddingTable::rows).sum();
        let scale_rows = if format == RowFormat::I8 { total_rows } else { 0 };
        let total_bytes = layout.bytes(elem_bytes).saturating_add(scale_rows.saturating_mul(4));

        let mut scales = vec![0.0f32; scale_rows as usize];
        let threads = threads_for(total_bytes);
        let (channels, pads) = match format {
            RowFormat::F32 => {
                let (bufs, pads) =
                    materialize(tables, channel_of, &layout, &mut scales, threads, encode_f32)?;
                (Channels::F32(bufs), pads)
            }
            RowFormat::F16 => {
                let (bufs, pads) =
                    materialize(tables, channel_of, &layout, &mut scales, threads, encode_f16)?;
                (Channels::F16(bufs), pads)
            }
            RowFormat::I8 => {
                let (bufs, pads) =
                    materialize(tables, channel_of, &layout, &mut scales, threads, encode_i8)?;
                (Channels::I8(bufs), pads)
            }
        };

        let mut scale_base = 0usize;
        let locs = tables
            .iter()
            .zip(channel_of)
            .zip(&layout.bases)
            .map(|((table, &ch), &base)| {
                let loc = TableLoc {
                    channel: ch,
                    base: base + pads[ch],
                    rows: table.rows(),
                    dim: table.dim() as usize,
                    scale_base,
                };
                if format == RowFormat::I8 {
                    scale_base += table.rows() as usize;
                }
                loc
            })
            .collect();
        Ok(EmbeddingArena {
            format,
            channels,
            tables: locs,
            names: tables.iter().map(|t| t.name().to_string()).collect(),
            scales,
            feature_len: tables.iter().map(|t| t.dim() as usize).sum(),
            total_bytes,
        })
    }

    /// The row storage format.
    #[must_use]
    pub fn format(&self) -> RowFormat {
        self.format
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

    /// Encoded size of the arena in bytes (rows + `i8` scales + padding).
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
        fn addr_of<T>(channel: &[T], idx: usize) -> usize {
            channel.as_ptr() as usize + idx * size_of::<T>()
        }
        self.tables.iter().all(|loc| {
            let base_addr = match &self.channels {
                Channels::F32(c) => addr_of(&c[loc.channel], loc.base),
                Channels::F16(c) => addr_of(&c[loc.channel], loc.base),
                Channels::I8(c) => addr_of(&c[loc.channel], loc.base),
            };
            base_addr.is_multiple_of(ALIGN)
        })
    }

    /// Decodes row `row` of logical table `table` into `out` (length must
    /// equal the table's dim). For [`RowFormat::F32`] this is bit-identical
    /// to [`EmbeddingTable::read_row`] on the source table.
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
        let end = start + loc.dim;
        match &self.channels {
            Channels::F32(c) => out.copy_from_slice(&c[loc.channel][start..end]),
            Channels::F16(c) => f16_decode_slice(&c[loc.channel][start..end], out),
            Channels::I8(c) => {
                let scale = self.scales[loc.scale_base + row as usize];
                i8_dequant_slice(&c[loc.channel][start..end], scale, out);
            }
        }
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
        let arena = EmbeddingArena::build(&tabs, RowFormat::F32, &[0, 0, 0]).unwrap();
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
        let arena = EmbeddingArena::build(&tabs, RowFormat::F32, &[0, 1, 0]).unwrap();
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
    fn quantized_formats_bound_error() {
        let tabs = tables();
        for (format, tol) in [(RowFormat::F16, 1e-3f32), (RowFormat::I8, 1.0 / 127.0)] {
            let arena = EmbeddingArena::build(&tabs, format, &[0, 0, 0]).unwrap();
            let mut got = [0.0f32; 12];
            let mut want = [0.0f32; 12];
            for (t, table) in tabs.iter().enumerate() {
                let dim = table.dim() as usize;
                for row in [0, table.rows() - 1] {
                    arena.read_row_into(t, row, &mut got[..dim]).unwrap();
                    table.read_row(row, &mut want[..dim]).unwrap();
                    for (g, w) in got[..dim].iter().zip(&want[..dim]) {
                        // Values lie in [-1, 1): absolute tolerance works.
                        assert!((g - w).abs() <= tol, "{format}: {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn arena_bases_are_aligned() {
        for format in [RowFormat::F32, RowFormat::F16, RowFormat::I8] {
            let arena = EmbeddingArena::build(&tables(), format, &[0, 0, 1]).unwrap();
            assert!(arena.is_aligned(), "{format} arena misaligned");
        }
    }

    #[test]
    fn quantized_formats_shrink_storage() {
        let tabs = tables();
        let f32a = EmbeddingArena::build(&tabs, RowFormat::F32, &[0, 0, 0]).unwrap();
        let f16a = EmbeddingArena::build(&tabs, RowFormat::F16, &[0, 0, 0]).unwrap();
        let i8a = EmbeddingArena::build(&tabs, RowFormat::I8, &[0, 0, 0]).unwrap();
        assert!(f16a.total_bytes() < f32a.total_bytes());
        assert!(i8a.total_bytes() < f16a.total_bytes());
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

    /// An arena's contents as bit patterns: per channel, the pad and the
    /// elements after it.
    fn channel_bits(arena: &EmbeddingArena) -> Vec<Vec<u32>> {
        match &arena.channels {
            Channels::F32(c) => c.iter().map(|b| b.iter().map(|v| v.to_bits()).collect()).collect(),
            Channels::F16(c) => {
                c.iter().map(|b| b.iter().map(|&v| u32::from(v)).collect()).collect()
            }
            Channels::I8(c) => {
                c.iter().map(|b| b.iter().map(|&v| u32::from(v as u8)).collect()).collect()
            }
        }
    }

    /// Checks every byte of `arena` against the obvious construction: one
    /// `read_row` at a time, encoded and appended to its channel, zeros up
    /// to the next 64 bytes after each table.
    fn assert_matches_row_by_row_build(
        arena: &EmbeddingArena,
        tables: &[EmbeddingTable],
        format: RowFormat,
        channel_of: &[usize],
    ) {
        let step = ALIGN / format.bytes_per_elem();
        let num_channels = channel_of.iter().max().unwrap() + 1;
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); num_channels];
        let mut want_scales: Vec<f32> = Vec::new();
        let mut want_bases = Vec::new();
        for (table, &ch) in tables.iter().zip(channel_of) {
            let dim = table.dim() as usize;
            want_bases.push((want[ch].len(), want_scales.len()));
            let mut row = vec![0.0f32; dim];
            for r in 0..table.rows() {
                table.read_row(r, &mut row).unwrap();
                match format {
                    RowFormat::F32 => want[ch].extend(row.iter().map(|v| v.to_bits())),
                    RowFormat::F16 => {
                        let mut enc = vec![0u16; dim];
                        f16_encode_slice(&row, &mut enc);
                        want[ch].extend(enc.iter().map(|&v| u32::from(v)));
                    }
                    RowFormat::I8 => {
                        let mut enc = vec![0i8; dim];
                        want_scales.push(i8_quant_slice(&row, &mut enc));
                        want[ch].extend(enc.iter().map(|&v| u32::from(v as u8)));
                    }
                }
            }
            let padded = want[ch].len().div_ceil(step) * step;
            want[ch].resize(padded, 0);
        }

        let got = channel_bits(arena);
        assert_eq!(got.len(), num_channels);
        for (ch, (got, want)) in got.iter().zip(&want).enumerate() {
            let pad = got.len() - want.len();
            assert!(pad < step, "{format} channel {ch}: pad {pad}");
            assert!(got[..pad].iter().all(|&v| v == 0), "{format} channel {ch}: dirty pad");
            assert!(got[pad..] == want[..], "{format} channel {ch}: rows differ");
            for (t, loc) in arena.tables.iter().enumerate().filter(|(_, l)| l.channel == ch) {
                let (base, scale_base) = want_bases[t];
                assert_eq!((loc.base, loc.scale_base), (pad + base, scale_base), "table {t}");
                assert_eq!((loc.rows, loc.dim), (tables[t].rows(), tables[t].dim() as usize));
            }
        }
        assert_eq!(
            arena.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            want_scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "{format} scales"
        );
        let bytes: usize = want.iter().map(|c| c.len() * format.bytes_per_elem()).sum();
        assert_eq!(arena.total_bytes(), (bytes + want_scales.len() * 4) as u64);
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
            for format in [RowFormat::F32, RowFormat::F16, RowFormat::I8] {
                for tables in [&procedural, &materialized] {
                    for threads in [1usize, 2, 7] {
                        let arena =
                            EmbeddingArena::build_on(tables, format, &channel_of, |_| threads)
                                .unwrap();
                        assert_matches_row_by_row_build(&arena, tables, format, &channel_of);
                    }
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
                4,
            );
            let seen = Mutex::new(HashSet::new());
            let encode = |table: &EmbeddingTable, row, dst: &mut [f32], scales: &mut [f32]| {
                seen.lock().unwrap().insert(current().id());
                encode_f32(table, row, dst, scales)
            };
            materialize(&tables, &channel_of, &layout, &mut [], fill_threads(bytes), encode)
                .unwrap();
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
        let arena = EmbeddingArena::build(&tables(), RowFormat::F32, &[0, 0, 0]).unwrap();
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
