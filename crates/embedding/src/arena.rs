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

use crate::error::EmbeddingError;
use crate::table::EmbeddingTable;
use microrec_dnn::{f16_decode_slice, f16_encode_slice, i8_dequant_slice, i8_quant_slice};

/// Bytes of alignment for channel buffers and table bases.
const ALIGN: usize = 64;

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

/// One channel's backing store in the arena's row format.
#[derive(Debug, Clone)]
enum ChannelBuf {
    F32(Vec<f32>),
    F16(Vec<u16>),
    I8(Vec<i8>),
}

impl ChannelBuf {
    fn len(&self) -> usize {
        match self {
            ChannelBuf::F32(v) => v.len(),
            ChannelBuf::F16(v) => v.len(),
            ChannelBuf::I8(v) => v.len(),
        }
    }

    /// Address of element `idx`, for alignment accounting.
    fn addr_of(&self, idx: usize) -> usize {
        match self {
            ChannelBuf::F32(v) => v.as_ptr() as usize + idx * 4,
            ChannelBuf::F16(v) => v.as_ptr() as usize + idx * 2,
            ChannelBuf::I8(v) => v.as_ptr() as usize + idx,
        }
    }

    /// Appends `len` encoded elements starting at `start` in `src`. Both
    /// buffers come from the same arena format by construction; a
    /// mismatched pair appends nothing (debug-asserted).
    fn extend_from_range(&mut self, src: &ChannelBuf, start: usize, len: usize) {
        match (self, src) {
            (ChannelBuf::F32(d), ChannelBuf::F32(s)) => d.extend_from_slice(&s[start..start + len]),
            (ChannelBuf::F16(d), ChannelBuf::F16(s)) => d.extend_from_slice(&s[start..start + len]),
            (ChannelBuf::I8(d), ChannelBuf::I8(s)) => d.extend_from_slice(&s[start..start + len]),
            _ => debug_assert!(false, "channel format mismatch"),
        }
    }
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
/// let arena = EmbeddingArena::build(&tables, RowFormat::F32, &[0, 0], u64::MAX)?;
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
    channels: Vec<ChannelBuf>,
    tables: Vec<TableLoc>,
    names: Vec<String>,
    /// Per-row dequantization scales (I8 format only, else empty).
    scales: Vec<f32>,
    feature_len: usize,
    total_bytes: u64,
    /// Layout generation: 0 for a freshly built arena, bumped by
    /// [`EmbeddingArena::rebuild_with_channels`] during online re-sharding.
    generation: u64,
}

/// Rounds `n` elements up so the next table base lands on a 64-byte
/// boundary (relative to an aligned origin).
fn align_up(n: usize, elem_bytes: usize) -> usize {
    let step = ALIGN / elem_bytes;
    n.div_ceil(step) * step
}

impl EmbeddingArena {
    /// Materializes `tables` into channel arenas. `channel_of[i]` assigns
    /// logical table `i` to a memory channel (use all zeros for a single
    /// arena). Fails if the encoded arena would exceed `limit_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::BufferSizeMismatch`] if `channel_of` does
    /// not have one entry per table, or
    /// [`EmbeddingError::TooLargeToMaterialize`] over `limit_bytes`.
    pub fn build(
        tables: &[EmbeddingTable],
        format: RowFormat,
        channel_of: &[usize],
        limit_bytes: u64,
    ) -> Result<Self, EmbeddingError> {
        if channel_of.len() != tables.len() {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: tables.len(),
                actual: channel_of.len(),
            });
        }
        let num_channels = channel_of.iter().map(|&c| c + 1).max().unwrap_or(1);
        let elem_bytes = format.bytes_per_elem();

        // Size each channel (element counts include inter-table padding).
        let mut channel_elems = vec![0usize; num_channels];
        let mut total_rows = 0u64;
        for (table, &ch) in tables.iter().zip(channel_of) {
            let elems = (table.rows() as usize) * table.dim() as usize;
            channel_elems[ch] = align_up(channel_elems[ch] + elems, elem_bytes);
            total_rows += table.rows();
        }
        let scale_bytes = if format == RowFormat::I8 { total_rows.saturating_mul(4) } else { 0 };
        let total_bytes = channel_elems
            .iter()
            .map(|&e| (e * elem_bytes) as u64)
            .sum::<u64>()
            .saturating_add(scale_bytes);
        if total_bytes > limit_bytes {
            return Err(EmbeddingError::TooLargeToMaterialize {
                table: "<arena>".into(),
                bytes: total_bytes,
                limit: limit_bytes,
            });
        }

        // Allocate each channel with slack for the alignment pad; capacity
        // is reserved up front so the data pointer (and thus the measured
        // pad) stays valid while the buffer grows within it.
        let slack = ALIGN / elem_bytes;
        let mut channels: Vec<ChannelBuf> = channel_elems
            .iter()
            .map(|&elems| match format {
                RowFormat::F32 => ChannelBuf::F32(Vec::with_capacity(elems + slack)),
                RowFormat::F16 => ChannelBuf::F16(Vec::with_capacity(elems + slack)),
                RowFormat::I8 => ChannelBuf::I8(Vec::with_capacity(elems + slack)),
            })
            .collect();
        let mut pads = vec![0usize; num_channels];
        for (buf, pad) in channels.iter_mut().zip(&mut pads) {
            let misalign = buf.addr_of(0) % ALIGN;
            let pad_bytes = (ALIGN - misalign) % ALIGN;
            debug_assert_eq!(pad_bytes % elem_bytes, 0);
            *pad = pad_bytes / elem_bytes;
            match buf {
                ChannelBuf::F32(v) => v.resize(*pad, 0.0),
                ChannelBuf::F16(v) => v.resize(*pad, 0),
                ChannelBuf::I8(v) => v.resize(*pad, 0),
            }
        }

        // Encode every table row-by-row into its channel.
        let mut locs = Vec::with_capacity(tables.len());
        let mut names = Vec::with_capacity(tables.len());
        let mut scales = Vec::new();
        if format == RowFormat::I8 {
            scales.reserve(total_rows as usize);
        }
        let max_dim = tables.iter().map(|t| t.dim() as usize).max().unwrap_or(0);
        let mut tmp = vec![0.0f32; max_dim];
        for (table, &ch) in tables.iter().zip(channel_of) {
            let dim = table.dim() as usize;
            let buf = &mut channels[ch];
            let base = buf.len() - pads[ch]; // aligned-origin-relative
            let scale_base = scales.len();
            for row in 0..table.rows() {
                table.read_row(row, &mut tmp[..dim])?;
                match buf {
                    ChannelBuf::F32(v) => v.extend_from_slice(&tmp[..dim]),
                    ChannelBuf::F16(v) => {
                        let start = v.len();
                        v.resize(start + dim, 0);
                        f16_encode_slice(&tmp[..dim], &mut v[start..]);
                    }
                    ChannelBuf::I8(v) => {
                        let start = v.len();
                        v.resize(start + dim, 0);
                        scales.push(i8_quant_slice(&tmp[..dim], &mut v[start..]));
                    }
                }
            }
            // Pad so the next table base stays 64-byte aligned.
            let padded = align_up(buf.len() - pads[ch], elem_bytes) + pads[ch];
            match buf {
                ChannelBuf::F32(v) => v.resize(padded, 0.0),
                ChannelBuf::F16(v) => v.resize(padded, 0),
                ChannelBuf::I8(v) => v.resize(padded, 0),
            }
            locs.push(TableLoc {
                channel: ch,
                base: base + pads[ch],
                rows: table.rows(),
                dim,
                scale_base,
            });
            names.push(table.name().to_string());
        }

        let feature_len = tables.iter().map(|t| t.dim() as usize).sum();
        Ok(EmbeddingArena {
            format,
            channels,
            tables: locs,
            names,
            scales,
            feature_len,
            total_bytes,
            generation: 0,
        })
    }

    /// Re-materializes this arena under a new channel assignment without
    /// touching the source tables: every table's already-encoded bytes are
    /// relocated verbatim (per-row `i8` scales shared untouched), so each
    /// row of the new arena decodes bit-identically to the old one — the
    /// invariant the online re-sharding swap depends on. The new arena is
    /// tagged with `generation`.
    ///
    /// Relocation is a raw copy, not a decode/re-encode round trip: it
    /// costs one memcpy per table and cannot drift quantized values.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::BufferSizeMismatch`] if `channel_of` does
    /// not have one entry per table.
    pub fn rebuild_with_channels(
        &self,
        channel_of: &[usize],
        generation: u64,
    ) -> Result<Self, EmbeddingError> {
        if channel_of.len() != self.tables.len() {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: self.tables.len(),
                actual: channel_of.len(),
            });
        }
        let num_channels = channel_of.iter().map(|&c| c + 1).max().unwrap_or(1);
        let elem_bytes = self.format.bytes_per_elem();

        let mut channel_elems = vec![0usize; num_channels];
        for (loc, &ch) in self.tables.iter().zip(channel_of) {
            let elems = loc.rows as usize * loc.dim;
            channel_elems[ch] = align_up(channel_elems[ch] + elems, elem_bytes);
        }
        let scale_bytes = (self.scales.len() as u64) * 4;
        let total_bytes = channel_elems
            .iter()
            .map(|&e| (e * elem_bytes) as u64)
            .sum::<u64>()
            .saturating_add(scale_bytes);

        let slack = ALIGN / elem_bytes;
        let mut channels: Vec<ChannelBuf> = channel_elems
            .iter()
            .map(|&elems| match self.format {
                RowFormat::F32 => ChannelBuf::F32(Vec::with_capacity(elems + slack)),
                RowFormat::F16 => ChannelBuf::F16(Vec::with_capacity(elems + slack)),
                RowFormat::I8 => ChannelBuf::I8(Vec::with_capacity(elems + slack)),
            })
            .collect();
        let mut pads = vec![0usize; num_channels];
        for (buf, pad) in channels.iter_mut().zip(&mut pads) {
            let misalign = buf.addr_of(0) % ALIGN;
            let pad_bytes = (ALIGN - misalign) % ALIGN;
            debug_assert_eq!(pad_bytes % elem_bytes, 0);
            *pad = pad_bytes / elem_bytes;
            match buf {
                ChannelBuf::F32(v) => v.resize(*pad, 0.0),
                ChannelBuf::F16(v) => v.resize(*pad, 0),
                ChannelBuf::I8(v) => v.resize(*pad, 0),
            }
        }

        let mut locs = Vec::with_capacity(self.tables.len());
        for (loc, &ch) in self.tables.iter().zip(channel_of) {
            let elems = loc.rows as usize * loc.dim;
            let src = &self.channels[loc.channel];
            let buf = &mut channels[ch];
            let base = buf.len() - pads[ch];
            buf.extend_from_range(src, loc.base, elems);
            let padded = align_up(buf.len() - pads[ch], elem_bytes) + pads[ch];
            match buf {
                ChannelBuf::F32(v) => v.resize(padded, 0.0),
                ChannelBuf::F16(v) => v.resize(padded, 0),
                ChannelBuf::I8(v) => v.resize(padded, 0),
            }
            locs.push(TableLoc {
                channel: ch,
                base: base + pads[ch],
                rows: loc.rows,
                dim: loc.dim,
                scale_base: loc.scale_base,
            });
        }

        Ok(EmbeddingArena {
            format: self.format,
            channels,
            tables: locs,
            names: self.names.clone(),
            scales: self.scales.clone(),
            feature_len: self.feature_len,
            total_bytes,
            generation,
        })
    }

    /// The layout generation this arena belongs to (0 = as built).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
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

    /// Bytes one row read moves from memory in this format (row elements
    /// plus the per-row scale for `i8`).
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    #[must_use]
    pub fn source_row_bytes(&self, table: usize) -> usize {
        let loc = &self.tables[table];
        loc.dim * self.format.bytes_per_elem() + if self.format == RowFormat::I8 { 4 } else { 0 }
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
            let base_addr = self.channels[loc.channel].addr_of(loc.base);
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
        match &self.channels[loc.channel] {
            ChannelBuf::F32(v) => out.copy_from_slice(&v[start..start + loc.dim]),
            ChannelBuf::F16(v) => f16_decode_slice(&v[start..start + loc.dim], out),
            ChannelBuf::I8(v) => {
                let scale = self.scales[loc.scale_base + row as usize];
                i8_dequant_slice(&v[start..start + loc.dim], scale, out);
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
        let arena = EmbeddingArena::build(&tabs, RowFormat::F32, &[0, 0, 0], u64::MAX).unwrap();
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
        let arena = EmbeddingArena::build(&tabs, RowFormat::F32, &[0, 1, 0], u64::MAX).unwrap();
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
            let arena = EmbeddingArena::build(&tabs, format, &[0, 0, 0], u64::MAX).unwrap();
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
            let arena = EmbeddingArena::build(&tables(), format, &[0, 0, 1], u64::MAX).unwrap();
            assert!(arena.is_aligned(), "{format} arena misaligned");
        }
    }

    #[test]
    fn quantized_formats_shrink_storage() {
        let tabs = tables();
        let f32a = EmbeddingArena::build(&tabs, RowFormat::F32, &[0, 0, 0], u64::MAX).unwrap();
        let f16a = EmbeddingArena::build(&tabs, RowFormat::F16, &[0, 0, 0], u64::MAX).unwrap();
        let i8a = EmbeddingArena::build(&tabs, RowFormat::I8, &[0, 0, 0], u64::MAX).unwrap();
        assert!(f16a.total_bytes() < f32a.total_bytes());
        assert!(i8a.total_bytes() < f16a.total_bytes());
        assert_eq!(f32a.source_row_bytes(0), 32);
        assert_eq!(f16a.source_row_bytes(0), 16);
        assert_eq!(i8a.source_row_bytes(0), 12); // 8 elems + 4-byte scale
    }

    #[test]
    fn rebuild_relocates_bit_identically_in_every_format() {
        let tabs = tables();
        for format in [RowFormat::F32, RowFormat::F16, RowFormat::I8] {
            let old = EmbeddingArena::build(&tabs, format, &[0, 1, 0], u64::MAX).unwrap();
            // Rotate the channel assignment: table moves across channels.
            let new = old.rebuild_with_channels(&[1, 0, 0], 3).unwrap();
            assert_eq!(new.generation(), 3);
            assert_eq!(old.generation(), 0);
            assert!(new.is_aligned(), "{format} rebuilt arena misaligned");
            assert_eq!(new.feature_len(), old.feature_len());
            let mut got = [0.0f32; 12];
            let mut want = [0.0f32; 12];
            for (t, table) in tabs.iter().enumerate() {
                let dim = table.dim() as usize;
                for row in 0..table.rows() {
                    new.read_row_into(t, row, &mut got[..dim]).unwrap();
                    old.read_row_into(t, row, &mut want[..dim]).unwrap();
                    assert_eq!(
                        got[..dim].iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        want[..dim].iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "{format}: table {t} row {row} drifted across relocation"
                    );
                }
            }
        }
    }

    #[test]
    fn rebuild_to_fewer_channels_compacts() {
        let tabs = tables();
        let spread = EmbeddingArena::build(&tabs, RowFormat::F16, &[0, 1, 2], u64::MAX).unwrap();
        let packed = spread.rebuild_with_channels(&[0, 0, 0], 1).unwrap();
        let direct = EmbeddingArena::build(&tabs, RowFormat::F16, &[0, 0, 0], u64::MAX).unwrap();
        assert_eq!(packed.total_bytes(), direct.total_bytes());
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 8];
        packed.read_row_into(0, 5, &mut a).unwrap();
        direct.read_row_into(0, 5, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rebuild_rejects_wrong_arity() {
        let arena = EmbeddingArena::build(&tables(), RowFormat::F32, &[0, 0, 0], u64::MAX).unwrap();
        assert!(matches!(
            arena.rebuild_with_channels(&[0, 0], 1),
            Err(EmbeddingError::BufferSizeMismatch { .. })
        ));
    }

    #[test]
    fn build_respects_limit() {
        assert!(matches!(
            EmbeddingArena::build(&tables(), RowFormat::F32, &[0, 0, 0], 64),
            Err(EmbeddingError::TooLargeToMaterialize { .. })
        ));
    }

    #[test]
    fn bad_reads_fail() {
        let arena = EmbeddingArena::build(&tables(), RowFormat::F32, &[0, 0, 0], u64::MAX).unwrap();
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
