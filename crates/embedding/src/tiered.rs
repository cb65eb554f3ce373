//! Two-tier embedding parameter store: resident arena → file-backed cold
//! tier.
//!
//! The paper's larger production model (98 tables, 15.1 GB) does not fit
//! the single in-memory [`EmbeddingArena`]; NVIDIA's inference parameter
//! server shows the production answer: keep the hot head of the access
//! distribution resident and serve the tail from cheaper storage, with one
//! read path per tier. This module supplies the two pieces the repo was
//! missing:
//!
//! * **L2½/L3 split** — [`TieredBacking`] partitions the logical tables
//!   between a budget-capped resident [`EmbeddingArena`] (whole tables,
//!   chosen by the deterministic residency policy below) and a
//!   [`ColdStore`]: the same encoded rows written to a file at build time
//!   and read back with positioned `pread` (`FileExt::read_at`), so a cold
//!   read moves exactly one row and never touches a shared cursor.
//! * **One-pass round serving** — [`TieredStore`] walks a lookup round
//!   once in table order: a resident row is a stride-indexed arena read, a
//!   cold row is one positioned read into a store-owned buffer followed by
//!   the arena's own decode kernel, on the serving thread. The read buffer
//!   is sized once at construction, so the steady state is allocation-free.
//!   There is no prefetcher: worker threads fed over SPSC rings served
//!   4 987 items/s on the ledger's `lookup-cold` where this synchronous
//!   pass serves 20 596 — a dozen futex hand-offs per item to hide a
//!   ≈1.5 µs page-cache `pread` (EXPERIMENTS.md, "One cold-read path").
//!
//! ## Residency policy
//!
//! Every logical table is probed exactly once per lookup round (one sparse
//! feature per table), so the expected rows served per resident byte is
//! proportional to `1 / table_bytes` — admitting the smallest tables first
//! is the optimal greedy knapsack under round traffic. The policy sorts
//! tables by (encoded bytes ascending, index ascending) and admits while
//! the running total fits the budget; ties on size resolve by index so the
//! plan is deterministic and identical across replicas.
//!
//! ## Bit identity
//!
//! Cold rows are encoded at build time by the *same* kernels the arena
//! uses (`f16_encode_slice`, `i8_quant_slice`) and decoded by byte-slice
//! twins of the same decode kernels, so a tiered gather is bit-identical
//! to an all-resident arena gather at every row format — the tier split is
//! purely a capacity/latency trade, never an accuracy one.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use microrec_dnn::{
    f16_decode_le_slice, f16_encode_slice, f32_decode_le_slice, i8_dequant_le_slice, i8_quant_slice,
};

use crate::arena::{EmbeddingArena, RowFormat};
use crate::error::EmbeddingError;
use crate::table::EmbeddingTable;

/// Which tier serves a logical table's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Rows live in the in-memory resident arena.
    Resident,
    /// Rows live in the file-backed cold store.
    Cold,
}

/// Monotonic tag making concurrent cold-store file names unique within a
/// process (the process id distinguishes across processes). A counter, not
/// a timestamp: the embedding crate is under the determinism lint.
static COLD_FILE_TAG: AtomicU64 = AtomicU64::new(0);

/// Encoded bytes one row occupies in `format` (the `i8` per-row scale is
/// stored inline in the cold tier, so it counts here).
fn stored_row_bytes(dim: usize, format: RowFormat) -> usize {
    dim * format.bytes_per_elem() + if format == RowFormat::I8 { 4 } else { 0 }
}

/// Deterministic frequency-aware residency plan: smallest tables first
/// under the byte budget (see the module docs for why that is the greedy
/// optimum for round traffic).
#[derive(Debug, Clone)]
pub struct ResidencyPlan {
    tiers: Vec<Tier>,
    resident_bytes: u64,
    cold_bytes: u64,
}

impl ResidencyPlan {
    /// Plans residency for `tables` encoded as `format` under
    /// `budget_bytes` of resident row storage.
    #[must_use]
    pub fn plan(tables: &[EmbeddingTable], format: RowFormat, budget_bytes: u64) -> Self {
        let bytes_of =
            |t: &EmbeddingTable| t.rows() * stored_row_bytes(t.dim() as usize, format) as u64;
        let mut order: Vec<usize> = (0..tables.len()).collect();
        order.sort_by_key(|&i| (bytes_of(&tables[i]), i));
        let mut tiers = vec![Tier::Cold; tables.len()];
        let mut resident_bytes = 0u64;
        let mut cold_bytes = 0u64;
        for &i in &order {
            let bytes = bytes_of(&tables[i]);
            if resident_bytes.saturating_add(bytes) <= budget_bytes {
                tiers[i] = Tier::Resident;
                resident_bytes += bytes;
            } else {
                cold_bytes += bytes;
            }
        }
        ResidencyPlan { tiers, resident_bytes, cold_bytes }
    }

    /// Tier assignment per logical table.
    #[must_use]
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Encoded bytes admitted to the resident arena.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Encoded bytes relegated to the cold store.
    #[must_use]
    pub fn cold_bytes(&self) -> u64 {
        self.cold_bytes
    }
}

/// Location of one cold table inside the store file.
#[derive(Debug, Clone, Copy)]
struct ColdTableLoc {
    /// Byte offset of the table's first row.
    base: u64,
    /// Fixed encoded stride per row (scale prefix included for `i8`).
    row_bytes: usize,
    rows: u64,
}

/// File-backed cold tier: arena-layout rows written once at build time and
/// read back with positioned reads. The file lives in the OS temp
/// directory and is deleted on drop (best effort).
///
/// We use `pread` rather than `mmap`: this crate is `#![forbid(unsafe_code)]`
/// and a raw-syscall mmap would need an `unsafe` block plus a lifetime
/// argument for the mapping; a positioned read into an owned buffer has
/// neither problem, and for one-row reads the page-cache hit cost is
/// dominated by the syscall either way (see DESIGN.md §13).
#[derive(Debug)]
pub struct ColdStore {
    file: File,
    path: PathBuf,
    format: RowFormat,
    /// Indexed by logical table; `None` for resident tables.
    tables: Vec<Option<ColdTableLoc>>,
    names: Vec<String>,
    total_bytes: u64,
    max_row_bytes: usize,
}

/// Builds the cold-tier error for one table (allocation lives in this
/// outlined arm so the read path itself stays allocation-free on success).
#[cold]
fn cold_io_error(name: &str, detail: &std::io::Error) -> EmbeddingError {
    EmbeddingError::ColdTierIo { table: name.to_string(), detail: detail.to_string() }
}

/// Positioned full-buffer read at `offset` (pread; never moves a cursor,
/// so one shared read-only handle serves every engine replica
/// concurrently).
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

/// Portable fallback for non-unix hosts: re-open cheaply is not an option,
/// so fall back to `seek_read` on Windows-alikes is unavailable here —
/// instead clone the handle per call. Correct but slower; every supported
/// target in CI is unix.
#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut dup = file.try_clone()?;
    dup.seek(SeekFrom::Start(offset))?;
    dup.read_exact(buf)
}

impl ColdStore {
    /// Writes every `Cold`-assigned table's encoded rows to a fresh store
    /// file and returns the handle. Row encoding is identical to
    /// [`EmbeddingArena::build`]'s (same kernels, row by row).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::ColdTierIo`] if the store file cannot be
    /// created or written, or propagates table read errors.
    pub fn build(
        tables: &[EmbeddingTable],
        format: RowFormat,
        tiers: &[Tier],
    ) -> Result<Self, EmbeddingError> {
        let tag = COLD_FILE_TAG.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("microrec-cold-{}-{tag}.rows", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| cold_io_error("<store>", &e))?;

        let max_dim = tables.iter().map(|t| t.dim() as usize).max().unwrap_or(0);
        let mut row_f32 = vec![0.0f32; max_dim];
        let mut encoded = vec![0u8; stored_row_bytes(max_dim, format)];
        let mut locs: Vec<Option<ColdTableLoc>> = Vec::with_capacity(tables.len());
        let mut names = Vec::with_capacity(tables.len());
        let mut offset = 0u64;
        let mut max_row_bytes = 0usize;
        {
            let mut writer = BufWriter::new(&file);
            for (i, table) in tables.iter().enumerate() {
                names.push(table.name().to_string());
                if tiers[i] != Tier::Cold {
                    locs.push(None);
                    continue;
                }
                let dim = table.dim() as usize;
                let row_bytes = stored_row_bytes(dim, format);
                max_row_bytes = max_row_bytes.max(row_bytes);
                locs.push(Some(ColdTableLoc { base: offset, row_bytes, rows: table.rows() }));
                for row in 0..table.rows() {
                    table.read_row(row, &mut row_f32[..dim])?;
                    let n = encode_row(&row_f32[..dim], format, &mut encoded);
                    writer.write_all(&encoded[..n]).map_err(|e| cold_io_error(table.name(), &e))?;
                }
                offset += table.rows() * row_bytes as u64;
            }
            writer.flush().map_err(|e| cold_io_error("<store>", &e))?;
        }
        file.sync_data().map_err(|e| cold_io_error("<store>", &e))?;
        Ok(ColdStore {
            file,
            path,
            format,
            tables: locs,
            names,
            total_bytes: offset,
            max_row_bytes,
        })
    }

    /// Reads one encoded row into the prefix of `buf` (which must hold at
    /// least [`ColdStore::max_row_bytes`]).
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::IndexOutOfRange`] for a bad row or a table that is
    /// not cold; [`EmbeddingError::ColdTierIo`] when the positioned read
    /// fails (missing, truncated, or unreadable store file).
    #[inline]
    pub fn read_row(&self, table: usize, row: u64, buf: &mut [u8]) -> Result<(), EmbeddingError> {
        let loc = match self.tables.get(table) {
            Some(Some(loc)) if row < loc.rows => *loc,
            _ => {
                return Err(EmbeddingError::IndexOutOfRange {
                    table: self.names.get(table).cloned().unwrap_or_default(),
                    index: row,
                    rows: self.tables.get(table).and_then(|l| l.map(|l| l.rows)).unwrap_or(0),
                });
            }
        };
        let offset = loc.base + row * loc.row_bytes as u64;
        match read_exact_at(&self.file, &mut buf[..loc.row_bytes], offset) {
            Ok(()) => Ok(()),
            Err(e) => Err(cold_io_error(&self.names[table], &e)),
        }
    }

    /// Decodes an encoded row previously read by [`ColdStore::read_row`]
    /// into `out` (length = the table's dim), using the same dequantize
    /// kernels as the resident arena.
    #[inline]
    pub fn decode_row(&self, buf: &[u8], out: &mut [f32]) {
        let dim = out.len();
        match self.format {
            RowFormat::F32 => f32_decode_le_slice(&buf[..dim * 4], out),
            RowFormat::F16 => f16_decode_le_slice(&buf[..dim * 2], out),
            RowFormat::I8 => {
                let scale = f32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
                i8_dequant_le_slice(&buf[4..4 + dim], scale, out);
            }
        }
    }

    /// Encoded bytes one row of `table` moves from the file.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range or not cold.
    #[must_use]
    pub fn row_bytes(&self, table: usize) -> usize {
        match &self.tables[table] {
            Some(loc) => loc.row_bytes,
            None => 0,
        }
    }

    /// Largest encoded row stride in the store (read-buffer size).
    #[must_use]
    pub fn max_row_bytes(&self) -> usize {
        self.max_row_bytes
    }

    /// Total encoded bytes on disk.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Path of the backing file (exposed for fault-injection tests and
    /// operator diagnostics).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ColdStore {
    fn drop(&mut self) {
        // Best effort: the file is process-private scratch.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Encodes one f32 row into `out`'s prefix; returns the encoded length.
fn encode_row(row: &[f32], format: RowFormat, out: &mut [u8]) -> usize {
    match format {
        RowFormat::F32 => {
            for (chunk, v) in out.chunks_exact_mut(4).zip(row) {
                chunk.copy_from_slice(&v.to_le_bytes());
            }
            row.len() * 4
        }
        RowFormat::F16 => {
            let mut half = [0u16; 1];
            for (chunk, v) in out.chunks_exact_mut(2).zip(row) {
                f16_encode_slice(std::slice::from_ref(v), &mut half);
                chunk.copy_from_slice(&half[0].to_le_bytes());
            }
            row.len() * 2
        }
        RowFormat::I8 => {
            let (scale_prefix, elems) = out.split_at_mut(4);
            let mut q = vec![0i8; row.len()];
            let scale = i8_quant_slice(row, &mut q);
            scale_prefix.copy_from_slice(&scale.to_le_bytes());
            for (dst, &v) in elems.iter_mut().zip(&q) {
                *dst = v as u8;
            }
            4 + row.len()
        }
    }
}

/// The shared, read-only half of the tiered store: the residency plan, the
/// budget-capped resident arena (over the resident subset only), and the
/// cold store. Built once and shared via `Arc` across engine replicas, so
/// pre-warming workers never multiplies resident memory.
#[derive(Debug)]
pub struct TieredBacking {
    format: RowFormat,
    tiers: Vec<Tier>,
    /// Arena over the resident subset, in logical-table order; empty when
    /// nothing fits the budget.
    resident: EmbeddingArena,
    /// Logical table index → arena-local index (resident tables only).
    resident_index: Vec<Option<usize>>,
    /// `None` when every table fits the budget (the 100% case pays no I/O).
    cold: Option<ColdStore>,
    dims: Vec<usize>,
    rows: Vec<u64>,
    feature_len: usize,
    budget_bytes: u64,
    resident_bytes: u64,
    cold_bytes: u64,
}

impl TieredBacking {
    /// Plans residency under `budget_bytes`, materializes the resident
    /// arena, and writes the cold store. `channel_of` assigns each logical
    /// table to a memory channel exactly as [`EmbeddingArena::build`] does;
    /// the assignment is filtered down to the resident subset.
    ///
    /// # Errors
    ///
    /// Propagates arena build and cold-store I/O errors;
    /// [`EmbeddingError::BufferSizeMismatch`] if `channel_of` is the wrong
    /// length.
    pub fn build(
        tables: &[EmbeddingTable],
        format: RowFormat,
        channel_of: &[usize],
        budget_bytes: u64,
    ) -> Result<Arc<Self>, EmbeddingError> {
        if channel_of.len() != tables.len() {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: tables.len(),
                actual: channel_of.len(),
            });
        }
        let plan = ResidencyPlan::plan(tables, format, budget_bytes);
        let mut resident_tables = Vec::new();
        let mut resident_channels = Vec::new();
        let mut resident_index = vec![None; tables.len()];
        for (i, table) in tables.iter().enumerate() {
            if plan.tiers[i] == Tier::Resident {
                resident_index[i] = Some(resident_tables.len());
                // Build-time clone of the source table handle; procedural
                // tables are a few words, materialized ones briefly double
                // until the arena encodes them.
                resident_tables.push(table.clone());
                resident_channels.push(channel_of[i]);
            }
        }
        let resident = EmbeddingArena::build(&resident_tables, format, &resident_channels)?;
        let any_cold = plan.tiers.contains(&Tier::Cold);
        let cold =
            if any_cold { Some(ColdStore::build(tables, format, &plan.tiers)?) } else { None };
        let dims: Vec<usize> = tables.iter().map(|t| t.dim() as usize).collect();
        let rows: Vec<u64> = tables.iter().map(EmbeddingTable::rows).collect();
        let feature_len = dims.iter().sum();
        Ok(Arc::new(TieredBacking {
            format,
            tiers: plan.tiers,
            resident,
            resident_index,
            cold,
            dims,
            rows,
            feature_len,
            budget_bytes,
            resident_bytes: plan.resident_bytes,
            cold_bytes: plan.cold_bytes,
        }))
    }

    /// The row storage format (shared by both tiers).
    #[must_use]
    pub fn format(&self) -> RowFormat {
        self.format
    }

    /// Tier serving logical table `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    #[must_use]
    pub fn tier(&self, table: usize) -> Tier {
        self.tiers[table]
    }

    /// Number of logical tables.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.tiers.len()
    }

    /// Concatenated feature length (Σ dims) of one lookup round.
    #[must_use]
    pub fn feature_len(&self) -> usize {
        self.feature_len
    }

    /// The configured resident byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Encoded bytes admitted to the resident arena (≤ the budget; the
    /// arena itself adds only alignment padding, reported by
    /// [`TieredBacking::resident_arena_bytes`]).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Actual allocated size of the resident arena, padding included.
    #[must_use]
    pub fn resident_arena_bytes(&self) -> u64 {
        self.resident.total_bytes()
    }

    /// Encoded bytes served from the cold store.
    #[must_use]
    pub fn cold_bytes(&self) -> u64 {
        self.cold_bytes
    }

    /// Number of tables admitted to the resident arena.
    #[must_use]
    pub fn num_resident_tables(&self) -> usize {
        self.resident_index.iter().filter(|i| i.is_some()).count()
    }

    /// Path of the cold store file, when a cold tier exists (exposed for
    /// fault-injection tests and operator diagnostics).
    #[must_use]
    pub fn cold_store_path(&self) -> Option<&Path> {
        self.cold.as_ref().map(|c| c.path())
    }

    /// Whether this backing stores exactly the shapes of `tables` (used to
    /// validate a shared backing against an engine's catalog, mirroring
    /// [`EmbeddingArena::matches`]).
    #[must_use]
    pub fn matches(&self, tables: &[EmbeddingTable]) -> bool {
        self.dims.len() == tables.len()
            && self
                .dims
                .iter()
                .zip(&self.rows)
                .zip(tables)
                .all(|((&dim, &rows), t)| rows == t.rows() && dim == t.dim() as usize)
    }
}

/// Per-tier serving counters for one engine's [`TieredStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Rows served by the resident arena (L2).
    pub resident_hits: u64,
    /// Rows read from the cold store (L3).
    pub cold_reads: u64,
    /// Always 0: there is no prefetcher, every cold row is read on the
    /// serving thread. Kept so the frozen perf ledger
    /// (`embedding.prefetch_hit_frac`) keeps compiling.
    pub prefetch_hits: u64,
    /// Bytes moved off the cold store.
    pub bytes_from_cold: u64,
    /// Cold reads that failed (truncated/unreadable store file). The tier
    /// is unhealthy while this grows, but serving keeps draining — only
    /// the affected lookups fail.
    pub cold_errors: u64,
}

impl TierCounters {
    /// Counter movement since `prev` (for per-batch delta publishing).
    #[must_use]
    pub fn delta_since(&self, prev: &TierCounters) -> TierCounters {
        TierCounters {
            resident_hits: self.resident_hits - prev.resident_hits,
            cold_reads: self.cold_reads - prev.cold_reads,
            prefetch_hits: self.prefetch_hits - prev.prefetch_hits,
            bytes_from_cold: self.bytes_from_cold - prev.bytes_from_cold,
            cold_errors: self.cold_errors - prev.cold_errors,
        }
    }
}

/// The per-engine serving half of the tiered store: the one-pass round
/// walk, an engine-owned cold-read buffer, and counters over a shared
/// [`TieredBacking`].
///
/// Cloning (engine replicas derive `Clone`) shares the backing and starts
/// with zeroed counters.
#[derive(Debug)]
pub struct TieredStore {
    backing: Arc<TieredBacking>,
    /// Read buffer for cold rows (largest encoded cold row).
    cold_buf: Vec<u8>,
    counters: TierCounters,
}

impl TieredStore {
    /// Creates a serving view over `backing`.
    #[must_use]
    pub fn new(backing: Arc<TieredBacking>) -> Self {
        let buf_bytes = backing.cold.as_ref().map_or(0, |c| c.max_row_bytes());
        TieredStore { backing, cold_buf: vec![0u8; buf_bytes], counters: TierCounters::default() }
    }

    /// The shared backing.
    #[must_use]
    pub fn backing(&self) -> &Arc<TieredBacking> {
        &self.backing
    }

    /// Current counter values.
    #[must_use]
    pub fn counters(&self) -> TierCounters {
        self.counters
    }

    /// Resets the serving counters (the backing is untouched).
    pub fn reset_stats(&mut self) {
        self.counters = TierCounters::default();
    }

    /// Serves one whole lookup round (every logical table) into `out`,
    /// with `offsets[t]` giving each table's start inside the feature
    /// vector.
    ///
    /// One pass in table order: a resident row is read from the arena, a
    /// cold row is read from the store file and decoded, both on the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// Returns the first row failure; the round is always walked to the
    /// end first, and surviving rows (including later ones) are still
    /// written and counted.
    #[inline]
    pub fn gather_round(
        &mut self,
        indices: &[u64],
        offsets: &[usize],
        out: &mut [f32],
    ) -> Result<(), EmbeddingError> {
        if indices.len() != self.backing.dims.len() {
            return Err(EmbeddingError::ArityMismatch {
                expected: self.backing.dims.len(),
                actual: indices.len(),
            });
        }
        if out.len() != self.backing.feature_len {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: self.backing.feature_len,
                actual: out.len(),
            });
        }
        let mut first_err: Option<EmbeddingError> = None;
        for (t, &row) in indices.iter().enumerate() {
            let dim = self.backing.dims[t];
            let offset = offsets[t];
            let slot = &mut out[offset..offset + dim];
            match self.backing.tiers[t] {
                Tier::Resident => {
                    let local = match self.backing.resident_index[t] {
                        Some(local) => local,
                        None => continue,
                    };
                    match self.backing.resident.read_row_into(local, row, slot) {
                        Ok(()) => self.counters.resident_hits += 1,
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                Tier::Cold => {
                    let Some(cold) = &self.backing.cold else { continue };
                    match cold.read_row(t, row, &mut self.cold_buf) {
                        Ok(()) => {
                            cold.decode_row(&self.cold_buf, slot);
                            self.counters.cold_reads += 1;
                            self.counters.bytes_from_cold += cold.row_bytes(t) as u64;
                        }
                        Err(e) => {
                            self.counters.cold_errors += 1;
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Clone for TieredStore {
    fn clone(&self) -> Self {
        TieredStore::new(Arc::clone(&self.backing))
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
            EmbeddingTable::procedural(TableSpec::new("d", 10, 16), 4),
        ]
    }

    fn total_bytes(tabs: &[EmbeddingTable], format: RowFormat) -> u64 {
        tabs.iter().map(|t| t.rows() * stored_row_bytes(t.dim() as usize, format) as u64).sum()
    }

    fn offsets_of(tabs: &[EmbeddingTable]) -> Vec<usize> {
        let mut offsets = Vec::new();
        let mut acc = 0usize;
        for t in tabs {
            offsets.push(acc);
            acc += t.dim() as usize;
        }
        offsets
    }

    #[test]
    fn residency_plan_admits_smallest_tables_first_deterministically() {
        let tabs = tables();
        // Encoded f32 bytes: a=1280, b=1200, c=960, d=640.
        let plan = ResidencyPlan::plan(&tabs, RowFormat::F32, 1700);
        assert_eq!(plan.tiers(), &[Tier::Cold, Tier::Cold, Tier::Resident, Tier::Resident]);
        assert_eq!(plan.resident_bytes(), 960 + 640);
        assert_eq!(plan.cold_bytes(), 1280 + 1200);
        // Zero budget: everything cold. Huge budget: everything resident.
        let none = ResidencyPlan::plan(&tabs, RowFormat::F32, 0);
        assert!(none.tiers().iter().all(|&t| t == Tier::Cold));
        let all = ResidencyPlan::plan(&tabs, RowFormat::F32, u64::MAX);
        assert!(all.tiers().iter().all(|&t| t == Tier::Resident));
        assert_eq!(all.resident_bytes(), total_bytes(&tabs, RowFormat::F32));
    }

    #[test]
    fn tiered_gather_is_bit_identical_to_all_resident_at_every_format() {
        let tabs = tables();
        let channel_of = vec![0usize; tabs.len()];
        let offsets = offsets_of(&tabs);
        for format in [RowFormat::F32, RowFormat::F16, RowFormat::I8] {
            let full = EmbeddingArena::build(&tabs, format, &channel_of).unwrap();
            let budget = total_bytes(&tabs, format) / 3;
            let backing = TieredBacking::build(&tabs, format, &channel_of, budget).unwrap();
            assert!(backing.num_resident_tables() < tabs.len(), "cold tier must exist");
            assert!(backing.resident_bytes() <= budget);
            let mut store = TieredStore::new(Arc::clone(&backing));
            let mut got = vec![0.0f32; backing.feature_len()];
            let mut want = vec![0.0f32; backing.feature_len()];
            for q in 0u64..50 {
                let indices: Vec<u64> = tabs
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (q * 13 + i as u64 * 7) % t.rows())
                    .collect();
                store.gather_round(&indices, &offsets, &mut got).unwrap();
                full.gather_into(&indices, &mut want).unwrap();
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "format {format:?} query {q} elem {i}");
                }
            }
            let c = store.counters();
            assert!(c.resident_hits > 0 && c.cold_reads > 0);
            assert_eq!(c.resident_hits + c.cold_reads, 50 * tabs.len() as u64);
            assert_eq!(c.cold_errors, 0);
            assert_eq!(c.prefetch_hits, 0, "there is no prefetcher");
            assert!(c.bytes_from_cold > 0);
        }
    }

    #[test]
    fn truncated_store_fails_only_affected_rounds_and_reports() {
        let tabs = tables();
        let channel_of = vec![0usize; tabs.len()];
        let offsets = offsets_of(&tabs);
        let budget = total_bytes(&tabs, RowFormat::F32) / 3;
        let backing = TieredBacking::build(&tabs, RowFormat::F32, &channel_of, budget).unwrap();
        let path = backing.cold_store_path().expect("cold tier exists").to_path_buf();
        let mut store = TieredStore::new(Arc::clone(&backing));
        let mut want = vec![0.0f32; backing.feature_len()];
        let indices = vec![0u64; tabs.len()];
        store.gather_round(&indices, &offsets, &mut want).unwrap();

        // Truncate the store mid-serve: cold reads now hit EOF.
        OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
        let before = store.counters();
        let mut out = vec![0.0f32; backing.feature_len()];
        let err = store.gather_round(&indices, &offsets, &mut out).unwrap_err();
        assert!(matches!(err, EmbeddingError::ColdTierIo { .. }), "got {err:?}");
        let failed = store.counters().delta_since(&before);
        let cold_tables = tabs.len() - backing.num_resident_tables();
        assert_eq!(failed.cold_errors, cold_tables as u64, "every cold read of the round counts");
        // The round was walked to the end: the resident rows after the
        // first failing cold row were still served.
        assert_eq!(failed.resident_hits, backing.num_resident_tables() as u64);

        // The next round fails the same way (the file is still truncated).
        let err = store.gather_round(&indices, &offsets, &mut out).unwrap_err();
        assert!(matches!(err, EmbeddingError::ColdTierIo { .. }));

        // Restore the file's contents: later rounds are served again, by
        // the same store, with the same bits.
        let restored = ColdStore::build(
            &tabs,
            RowFormat::F32,
            &ResidencyPlan::plan(&tabs, RowFormat::F32, budget).tiers,
        )
        .unwrap();
        std::fs::copy(restored.path(), &path).unwrap();
        store.gather_round(&indices, &offsets, &mut out).unwrap();
        assert_eq!(out, want);
    }

    #[test]
    fn all_resident_backing_has_no_cold_file() {
        let tabs = tables();
        let channel_of = vec![0usize; tabs.len()];
        let backing = TieredBacking::build(&tabs, RowFormat::F16, &channel_of, u64::MAX).unwrap();
        assert!(backing.cold_store_path().is_none());
        assert_eq!(backing.num_resident_tables(), tabs.len());
        assert_eq!(backing.cold_bytes(), 0);
        let mut store = TieredStore::new(backing);
        let offsets = offsets_of(&tabs);
        let mut out = vec![0.0f32; store.backing().feature_len()];
        store.gather_round(&[0, 0, 0, 0], &offsets, &mut out).unwrap();
        let c = store.counters();
        assert_eq!(c.cold_reads, 0);
        assert_eq!(c.resident_hits, tabs.len() as u64);
    }

    #[test]
    fn clone_shares_backing_but_not_counters() {
        let tabs = tables();
        let channel_of = vec![0usize; tabs.len()];
        let budget = total_bytes(&tabs, RowFormat::F32) / 2;
        let backing = TieredBacking::build(&tabs, RowFormat::F32, &channel_of, budget).unwrap();
        let mut store = TieredStore::new(backing);
        let offsets = offsets_of(&tabs);
        let mut out = vec![0.0f32; store.backing().feature_len()];
        store.gather_round(&[1, 1, 1, 1], &offsets, &mut out).unwrap();
        assert!(store.counters().cold_reads > 0);
        let clone = store.clone();
        assert!(Arc::ptr_eq(store.backing(), clone.backing()));
        assert_eq!(clone.counters(), TierCounters::default());
    }

    #[test]
    fn cold_store_rejects_resident_tables_and_bad_rows() {
        let tabs = tables();
        let plan = ResidencyPlan::plan(&tabs, RowFormat::F32, 1700);
        let cold = ColdStore::build(&tabs, RowFormat::F32, plan.tiers()).unwrap();
        let mut buf = vec![0u8; cold.max_row_bytes()];
        // Table 2 is resident under this plan; table 0 is cold.
        assert!(matches!(
            cold.read_row(2, 0, &mut buf),
            Err(EmbeddingError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            cold.read_row(0, 40, &mut buf),
            Err(EmbeddingError::IndexOutOfRange { .. })
        ));
        cold.read_row(0, 39, &mut buf).unwrap();
    }
}
