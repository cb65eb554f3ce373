//! Three-tier embedding parameter store: hot-row cache → resident arena →
//! file-backed cold tier.
//!
//! The paper's larger production model (98 tables, 15.1 GB) does not fit
//! the single in-memory [`EmbeddingArena`]; NVIDIA's inference parameter
//! server shows the production answer: keep the hot head of the access
//! distribution resident and serve the tail from cheaper storage, hiding
//! the miss latency with prefetch. This module supplies the two pieces the
//! repo was missing:
//!
//! * **L2½/L3 split** — [`TieredBacking`] partitions the logical tables
//!   between a budget-capped resident [`EmbeddingArena`] (whole tables,
//!   chosen by the deterministic residency policy below) and a
//!   [`ColdStore`]: the same encoded rows written to a file at build time
//!   and read back with positioned `pread` (`FileExt::read_at`), so a cold
//!   read moves exactly one row and never touches a shared cursor.
//! * **Round-classified serving with async prefetch** — [`TieredStore`]
//!   extends the batched `probe_round` protocol: a whole lookup round is
//!   classified per tier *before* any miss is serviced, cold rows are
//!   enqueued to a bounded prefetcher (worker threads fed by
//!   [`microrec_par::SpscRing`] request/response pairs, reusing its
//!   close-then-drain shutdown), resident rows are served while the cold
//!   reads are in flight, and the responses are collected in enqueue order.
//!   Job shells (row buffers) are pre-allocated and recycled, so the steady
//!   state is allocation-free.
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
use std::thread::JoinHandle;

use microrec_dnn::{
    f16_decode_le_slice, f16_encode_slice, f32_decode_le_slice, i8_dequant_le_slice, i8_quant_slice,
};
use microrec_par::SpscRing;

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
/// dominated by the syscall either way (see DESIGN.md §15).
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
/// so one shared read-only handle serves every engine replica and
/// prefetch worker concurrently).
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
    /// Shared (`Arc`) so an online re-shard can relocate the resident
    /// arena without rewriting the cold file: cold rows never move.
    cold: Option<Arc<ColdStore>>,
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
        let resident =
            EmbeddingArena::build(&resident_tables, format, &resident_channels, u64::MAX)?;
        let any_cold = plan.tiers.contains(&Tier::Cold);
        let cold = if any_cold {
            Some(Arc::new(ColdStore::build(tables, format, &plan.tiers)?))
        } else {
            None
        };
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

    /// The layout generation of the resident arena (0 = as built; bumped
    /// by [`TieredBacking::rebuild_with_channels`]).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.resident.generation()
    }

    /// Re-materializes the backing under a new per-logical-table channel
    /// assignment. Only the resident arena is relocated (raw encoded-byte
    /// copy, bit-identical rows — see
    /// [`EmbeddingArena::rebuild_with_channels`]); the cold store file is
    /// shared untouched, since cold rows are addressed by file offset and
    /// never move. Tier membership is deliberately preserved: residency is
    /// a byte-budget decision, not a channel decision.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::BufferSizeMismatch`] if `channel_of` does
    /// not have one entry per logical table.
    pub fn rebuild_with_channels(
        &self,
        channel_of: &[usize],
        generation: u64,
    ) -> Result<Arc<Self>, EmbeddingError> {
        if channel_of.len() != self.tiers.len() {
            return Err(EmbeddingError::BufferSizeMismatch {
                expected: self.tiers.len(),
                actual: channel_of.len(),
            });
        }
        let resident_channels: Vec<usize> = self
            .resident_index
            .iter()
            .zip(channel_of)
            .filter_map(|(local, &ch)| local.map(|_| ch))
            .collect();
        let resident = self.resident.rebuild_with_channels(&resident_channels, generation)?;
        Ok(Arc::new(TieredBacking {
            format: self.format,
            tiers: self.tiers.clone(),
            resident,
            resident_index: self.resident_index.clone(),
            cold: self.cold.clone(),
            dims: self.dims.clone(),
            rows: self.rows.clone(),
            feature_len: self.feature_len,
            budget_bytes: self.budget_bytes,
            resident_bytes: self.resident_bytes,
            cold_bytes: self.cold_bytes,
        }))
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

    /// Bytes one row read moves from its tier (elements + `i8` scale).
    #[must_use]
    pub fn source_row_bytes(&self, table: usize) -> usize {
        stored_row_bytes(self.dims[table], self.format)
    }
}

/// A cold-row fetch in flight between an engine and a prefetch worker.
/// The buffer is pre-sized to the largest cold row and recycled, so a
/// job round-trip performs no allocation.
#[derive(Debug)]
struct PrefetchJob {
    table: usize,
    row: u64,
    buf: Vec<u8>,
    result: Result<(), EmbeddingError>,
}

/// Worker threads plus their request/response rings. Each worker owns one
/// SPSC pair (the engine is the single producer of requests and single
/// consumer of responses), so no ring ever sees two producers.
#[derive(Debug)]
struct Prefetcher {
    requests: Vec<Arc<SpscRing<PrefetchJob>>>,
    responses: Vec<Arc<SpscRing<PrefetchJob>>>,
    workers: Vec<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawns `workers` threads over rings of `depth` jobs each. Returns
    /// `None` if the OS refuses to spawn (the caller falls back to
    /// synchronous reads).
    fn spawn(backing: &Arc<TieredBacking>, workers: usize, depth: usize) -> Option<Prefetcher> {
        let mut prefetcher = Prefetcher {
            requests: Vec::with_capacity(workers),
            responses: Vec::with_capacity(workers),
            workers: Vec::with_capacity(workers),
        };
        for i in 0..workers {
            let requests = Arc::new(SpscRing::new(depth));
            let responses = Arc::new(SpscRing::new(depth));
            let thread_backing = Arc::clone(backing);
            let thread_requests = Arc::clone(&requests);
            let thread_responses = Arc::clone(&responses);
            let spawned = std::thread::Builder::new()
                .name(format!("microrec-prefetch-{i}"))
                .spawn(move || prefetch_loop(&thread_backing, &thread_requests, &thread_responses));
            match spawned {
                Ok(handle) => {
                    prefetcher.requests.push(requests);
                    prefetcher.responses.push(responses);
                    prefetcher.workers.push(handle);
                }
                Err(_) => {
                    prefetcher.shutdown();
                    return None;
                }
            }
        }
        Some(prefetcher)
    }

    /// Close-then-drain shutdown: stop accepting requests, drain every
    /// response ring until the workers close their end, then join.
    fn shutdown(&mut self) {
        for ring in &self.requests {
            ring.close();
        }
        for ring in &self.responses {
            while ring.pop_blocking().is_some() {}
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One prefetch worker: pop a job, perform the positioned read, hand the
/// job back. Ends when the request ring is closed and drained; closes the
/// response ring so the engine's collector can never block forever.
fn prefetch_loop(
    backing: &TieredBacking,
    requests: &SpscRing<PrefetchJob>,
    responses: &SpscRing<PrefetchJob>,
) {
    while let Some(mut job) = requests.pop_blocking() {
        job.result = match &backing.cold {
            Some(cold) => cold.read_row(job.table, job.row, &mut job.buf),
            // Jobs are only enqueued for cold tables; a missing cold store
            // means the backing was built all-resident.
            None => Err(EmbeddingError::IndexOutOfRange {
                table: String::new(),
                index: job.row,
                rows: 0,
            }),
        };
        if responses.push_blocking(job).is_err() {
            break;
        }
    }
    responses.close();
}

/// Per-tier serving counters for one engine's [`TieredStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Rows served by the resident arena (L2).
    pub resident_hits: u64,
    /// Rows read from the cold store (L3), async or synchronous.
    pub cold_reads: u64,
    /// Cold reads whose response was already complete when collected —
    /// i.e. reads fully overlapped with resident-tier work.
    pub prefetch_hits: u64,
    /// Bytes moved out of the resident arena.
    pub bytes_from_resident: u64,
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
            bytes_from_resident: self.bytes_from_resident - prev.bytes_from_resident,
            bytes_from_cold: self.bytes_from_cold - prev.bytes_from_cold,
            cold_errors: self.cold_errors - prev.cold_errors,
        }
    }
}

/// The per-engine serving half of the tiered store: classification,
/// prefetch dispatch, engine-owned scratch, and counters over a shared
/// [`TieredBacking`].
///
/// Cloning (engine replicas derive `Clone`) shares the backing but starts
/// with a fresh, unspawned prefetcher and zeroed counters — worker threads
/// hold `JoinHandle`s, which cannot be cloned, and each replica wants its
/// own SPSC endpoints anyway.
#[derive(Debug)]
pub struct TieredStore {
    backing: Arc<TieredBacking>,
    /// Prefetch worker threads to run (0 = synchronous cold reads).
    prefetch_workers: usize,
    /// Spawned lazily on the first cold miss so that freshly built or
    /// cloned engines that never touch the cold tier pay nothing.
    prefetcher: Option<Prefetcher>,
    /// Recycled job shells (capacity = one full round of cold misses).
    free: Vec<PrefetchJob>,
    /// Worker index of each in-flight job, in enqueue order.
    pending: Vec<usize>,
    /// Read buffer for the synchronous (0-worker) cold path.
    sync_buf: Vec<u8>,
    /// Prebuilt 0..n table list backing [`TieredStore::gather_round`].
    all_tables: Box<[usize]>,
    counters: TierCounters,
}

impl TieredStore {
    /// Creates a serving view over `backing` with `prefetch_workers`
    /// asynchronous cold readers (0 serves cold rows synchronously).
    #[must_use]
    pub fn new(backing: Arc<TieredBacking>, prefetch_workers: usize) -> Self {
        let tables = backing.num_tables();
        let buf_bytes = backing.cold.as_ref().map_or(0, |c| c.max_row_bytes());
        let free: Vec<PrefetchJob> = (0..tables)
            .map(|_| PrefetchJob { table: 0, row: 0, buf: vec![0u8; buf_bytes], result: Ok(()) })
            .collect();
        TieredStore {
            backing,
            prefetch_workers,
            prefetcher: None,
            free,
            pending: Vec::with_capacity(tables),
            sync_buf: vec![0u8; buf_bytes],
            all_tables: (0..tables).collect(),
            counters: TierCounters::default(),
        }
    }

    /// The shared backing.
    #[must_use]
    pub fn backing(&self) -> &Arc<TieredBacking> {
        &self.backing
    }

    /// A serving view over `backing` that *carries this store's counters
    /// forward* — the epoch-swap path. Counter continuity matters: callers
    /// publish per-batch [`TierCounters::delta_since`] deltas against a
    /// previous snapshot, so a swapped-in store that reset its counters to
    /// zero would make those raw-subtraction deltas underflow. The
    /// prefetcher is fresh and unspawned (worker threads hold the *old*
    /// backing's `Arc`; they die with the old store).
    #[must_use]
    pub fn with_backing(&self, backing: Arc<TieredBacking>) -> TieredStore {
        let mut store = TieredStore::new(backing, self.prefetch_workers);
        store.counters = self.counters;
        store
    }

    /// Whether `table` is served by the resident arena.
    #[must_use]
    pub fn is_resident(&self, table: usize) -> bool {
        self.backing.tiers[table] == Tier::Resident
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
    /// vector. The round is classified per tier before any row is
    /// serviced; cold rows overlap with resident ones via the prefetcher.
    ///
    /// # Errors
    ///
    /// Propagates the first row failure after the round is fully drained
    /// (in-flight cold reads are always collected, so a failure never
    /// desynchronizes the rings).
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
        let all = std::mem::take(&mut self.all_tables);
        let result = self.serve_rows(indices, &all, offsets, out, |_, _, _| {});
        self.all_tables = all;
        result
    }

    /// Serves the listed `tables` of one lookup round into `out`
    /// (`offsets[t]` = feature-vector start of table `t`), invoking
    /// `on_row(table, filled_slot, source_bytes)` for each served row —
    /// the hook the hot-row cache uses to admit fresh rows.
    ///
    /// Protocol: classify the whole round, enqueue every cold row to the
    /// prefetcher, serve the resident rows while those reads are in
    /// flight, then collect the cold responses in enqueue order.
    ///
    /// # Errors
    ///
    /// Returns the first row failure; the round is always fully drained
    /// first, and surviving rows (including later ones) are still written
    /// and reported to `on_row`.
    #[inline]
    pub fn serve_rows<F>(
        &mut self,
        indices: &[u64],
        tables: &[usize],
        offsets: &[usize],
        out: &mut [f32],
        mut on_row: F,
    ) -> Result<(), EmbeddingError>
    where
        F: FnMut(usize, &[f32], usize),
    {
        let mut first_err: Option<EmbeddingError> = None;

        // Phase 1: classify and launch. Cold rows go to the prefetch
        // rings round-robin; resident rows are deferred to phase 2.
        self.pending.clear();
        let mut next_worker = 0usize;
        if self.prefetch_workers > 0 && self.prefetcher.is_none() && self.backing.cold.is_some() {
            let any_cold = tables.iter().any(|&t| self.backing.tiers[t] == Tier::Cold);
            if any_cold {
                let depth = self.backing.num_tables().max(1);
                self.prefetcher =
                    // lint: allow(transitive-hot-path-alloc) one-time lazy spawn on the first cold round; every later round reuses the workers and rings
                    Prefetcher::spawn(&self.backing, self.prefetch_workers, depth);
                if self.prefetcher.is_none() {
                    // Spawn refused: degrade to synchronous reads for good.
                    self.prefetch_workers = 0;
                }
            }
        }
        if let Some(prefetcher) = &self.prefetcher {
            let lanes = prefetcher.requests.len();
            for &t in tables {
                if self.backing.tiers[t] != Tier::Cold {
                    continue;
                }
                let Some(mut job) = self.free.pop() else { break };
                job.table = t;
                job.row = indices[t];
                job.result = Ok(());
                match prefetcher.requests[next_worker].push_blocking(job) {
                    Ok(()) => {
                        self.pending.push(next_worker);
                        next_worker = (next_worker + 1) % lanes;
                    }
                    Err(rejected) => {
                        // Ring closed (shutdown race): recycle and fall
                        // back to the synchronous path below.
                        self.free.push(rejected);
                        break;
                    }
                }
            }
        }

        // Phase 2: resident rows (and, with no prefetcher, cold rows
        // synchronously), while the async reads are in flight.
        let launched = self.pending.len();
        let mut seen_cold = 0usize;
        for &t in tables {
            let dim = self.backing.dims[t];
            let offset = offsets[t];
            let slot = &mut out[offset..offset + dim];
            match self.backing.tiers[t] {
                Tier::Resident => {
                    let local = match self.backing.resident_index[t] {
                        Some(local) => local,
                        None => continue,
                    };
                    match self.backing.resident.read_row_into(local, indices[t], slot) {
                        Ok(()) => {
                            let bytes = self.backing.source_row_bytes(t);
                            self.counters.resident_hits += 1;
                            self.counters.bytes_from_resident += bytes as u64;
                            on_row(t, slot, bytes);
                        }
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                Tier::Cold => {
                    seen_cold += 1;
                    if seen_cold <= launched {
                        continue; // travelling through the prefetcher
                    }
                    let Some(cold) = &self.backing.cold else { continue };
                    match cold.read_row(t, indices[t], &mut self.sync_buf) {
                        Ok(()) => {
                            cold.decode_row(&self.sync_buf, slot);
                            let bytes = cold.row_bytes(t);
                            self.counters.cold_reads += 1;
                            self.counters.bytes_from_cold += bytes as u64;
                            on_row(t, slot, bytes);
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

        // Phase 3: collect the in-flight cold rows in enqueue order. Every
        // launched job is drained even after a failure, so the rings stay
        // consistent for the next round.
        for i in 0..self.pending.len() {
            let worker = self.pending[i];
            let Some(prefetcher) = &self.prefetcher else { break };
            let mut job = match prefetcher.responses[worker].try_pop() {
                Some(job) => {
                    self.counters.prefetch_hits += 1;
                    job
                }
                None => match prefetcher.responses[worker].pop_blocking() {
                    Some(job) => job,
                    None => {
                        // Response ring closed mid-round: shutdown race.
                        if first_err.is_none() {
                            first_err = Some(EmbeddingError::ColdTierIo {
                                table: String::new(),
                                detail: "prefetcher shut down mid-round".to_string(),
                            });
                        }
                        break;
                    }
                },
            };
            let t = job.table;
            // Move the result out of the shell (replaced with Ok) so error
            // propagation transfers ownership instead of cloning.
            match std::mem::replace(&mut job.result, Ok(())) {
                Ok(()) => {
                    if let Some(cold) = &self.backing.cold {
                        let dim = self.backing.dims[t];
                        let offset = offsets[t];
                        let slot = &mut out[offset..offset + dim];
                        cold.decode_row(&job.buf, slot);
                        let bytes = cold.row_bytes(t);
                        self.counters.cold_reads += 1;
                        self.counters.bytes_from_cold += bytes as u64;
                        on_row(t, slot, bytes);
                    }
                }
                Err(e) => {
                    self.counters.cold_errors += 1;
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
            self.free.push(job);
        }
        self.pending.clear();

        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Clone for TieredStore {
    fn clone(&self) -> Self {
        TieredStore::new(Arc::clone(&self.backing), self.prefetch_workers)
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
            let full = EmbeddingArena::build(&tabs, format, &channel_of, u64::MAX).unwrap();
            let budget = total_bytes(&tabs, format) / 3;
            for workers in [0usize, 2] {
                let backing = TieredBacking::build(&tabs, format, &channel_of, budget).unwrap();
                assert!(backing.num_resident_tables() < tabs.len(), "cold tier must exist");
                assert!(backing.resident_bytes() <= budget);
                let mut store = TieredStore::new(Arc::clone(&backing), workers);
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
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "format {format:?} workers {workers} query {q} elem {i}"
                        );
                    }
                }
                let c = store.counters();
                assert!(c.resident_hits > 0 && c.cold_reads > 0);
                assert_eq!(c.cold_errors, 0);
                if workers == 0 {
                    assert_eq!(c.prefetch_hits, 0, "sync path never prefetches");
                }
                assert!(c.bytes_from_cold > 0);
            }
        }
    }

    #[test]
    fn serve_rows_admits_to_cache_hook_and_counts_bytes() {
        let tabs = tables();
        let channel_of = vec![0usize; tabs.len()];
        let offsets = offsets_of(&tabs);
        let budget = total_bytes(&tabs, RowFormat::F32) / 3;
        let backing = TieredBacking::build(&tabs, RowFormat::F32, &channel_of, budget).unwrap();
        let mut store = TieredStore::new(backing, 1);
        let indices = vec![1u64, 2, 3, 4];
        let mut out = vec![0.0f32; store.backing().feature_len()];
        let mut admitted = Vec::new();
        let tables_list: Vec<usize> = (0..tabs.len()).collect();
        store
            .serve_rows(&indices, &tables_list, &offsets, &mut out, |t, slot, bytes| {
                admitted.push((t, slot.len(), bytes));
            })
            .unwrap();
        assert_eq!(admitted.len(), tabs.len(), "every table admits exactly once");
        for (t, dim, bytes) in admitted {
            assert_eq!(dim, tabs[t].dim() as usize);
            assert_eq!(bytes, stored_row_bytes(dim, RowFormat::F32));
        }
        let c = store.counters();
        assert_eq!(c.resident_hits + c.cold_reads, tabs.len() as u64);
    }

    #[test]
    fn truncated_store_fails_only_affected_rounds_and_reports() {
        let tabs = tables();
        let channel_of = vec![0usize; tabs.len()];
        let offsets = offsets_of(&tabs);
        let budget = total_bytes(&tabs, RowFormat::F32) / 3;
        let backing = TieredBacking::build(&tabs, RowFormat::F32, &channel_of, budget).unwrap();
        let path = backing.cold_store_path().expect("cold tier exists").to_path_buf();
        for workers in [0usize, 1] {
            let mut store = TieredStore::new(Arc::clone(&backing), workers);
            let mut out = vec![0.0f32; backing.feature_len()];
            let indices = vec![0u64; tabs.len()];
            store.gather_round(&indices, &offsets, &mut out).unwrap();

            // Truncate the store mid-serve: cold reads now hit EOF.
            OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
            let before = store.counters().cold_errors;
            let err = store.gather_round(&indices, &offsets, &mut out).unwrap_err();
            assert!(
                matches!(err, EmbeddingError::ColdTierIo { .. }),
                "workers {workers}: expected ColdTierIo, got {err:?}"
            );
            assert!(store.counters().cold_errors > before, "unhealthy tier must be visible");

            // The store keeps draining: the next round still terminates
            // (and still fails, since the file is still truncated) without
            // wedging a ring.
            let err = store.gather_round(&indices, &offsets, &mut out).unwrap_err();
            assert!(matches!(err, EmbeddingError::ColdTierIo { .. }));

            // Restore the file for the next iteration of the loop.
            drop(store);
            let restored = ColdStore::build(
                &tabs,
                RowFormat::F32,
                &ResidencyPlan::plan(&tabs, RowFormat::F32, budget).tiers,
            )
            .unwrap();
            std::fs::copy(restored.path(), &path).unwrap();
        }
    }

    #[test]
    fn all_resident_backing_has_no_cold_file() {
        let tabs = tables();
        let channel_of = vec![0usize; tabs.len()];
        let backing = TieredBacking::build(&tabs, RowFormat::F16, &channel_of, u64::MAX).unwrap();
        assert!(backing.cold_store_path().is_none());
        assert_eq!(backing.num_resident_tables(), tabs.len());
        assert_eq!(backing.cold_bytes(), 0);
        let mut store = TieredStore::new(backing, 2);
        let offsets = offsets_of(&tabs);
        let mut out = vec![0.0f32; store.backing().feature_len()];
        store.gather_round(&[0, 0, 0, 0], &offsets, &mut out).unwrap();
        let c = store.counters();
        assert_eq!(c.cold_reads, 0);
        assert_eq!(c.resident_hits, tabs.len() as u64);
    }

    #[test]
    fn clone_shares_backing_but_not_counters_or_workers() {
        let tabs = tables();
        let channel_of = vec![0usize; tabs.len()];
        let budget = total_bytes(&tabs, RowFormat::F32) / 2;
        let backing = TieredBacking::build(&tabs, RowFormat::F32, &channel_of, budget).unwrap();
        let mut store = TieredStore::new(backing, 1);
        let offsets = offsets_of(&tabs);
        let mut out = vec![0.0f32; store.backing().feature_len()];
        store.gather_round(&[1, 1, 1, 1], &offsets, &mut out).unwrap();
        assert!(store.counters().cold_reads > 0);
        let clone = store.clone();
        assert!(Arc::ptr_eq(store.backing(), clone.backing()));
        assert_eq!(clone.counters(), TierCounters::default());
        assert!(clone.prefetcher.is_none(), "clones start unspawned");
    }

    #[test]
    fn rebuilt_backing_shares_cold_store_and_stays_bit_identical() {
        let tabs = tables();
        let offsets = offsets_of(&tabs);
        for format in [RowFormat::F32, RowFormat::F16, RowFormat::I8] {
            let budget = total_bytes(&tabs, format) / 2;
            let old = TieredBacking::build(&tabs, format, &[0, 1, 0, 1], budget).unwrap();
            assert_eq!(old.generation(), 0);
            let new = old.rebuild_with_channels(&[1, 0, 1, 0], 5).unwrap();
            assert_eq!(new.generation(), 5);
            // Cold rows never move: both generations hold the same file.
            assert_eq!(old.cold_store_path(), new.cold_store_path());
            assert!(Arc::ptr_eq(old.cold.as_ref().unwrap(), new.cold.as_ref().unwrap()));
            let mut old_store = TieredStore::new(Arc::clone(&old), 0);
            let mut new_store = TieredStore::new(Arc::clone(&new), 0);
            let mut a = vec![0.0f32; old.feature_len()];
            let mut b = vec![0.0f32; new.feature_len()];
            for q in 0u64..30 {
                let indices: Vec<u64> = tabs
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (q * 17 + i as u64 * 3) % t.rows())
                    .collect();
                old_store.gather_round(&indices, &offsets, &mut a).unwrap();
                new_store.gather_round(&indices, &offsets, &mut b).unwrap();
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{format:?} query {q} elem {i} drifted across re-shard"
                    );
                }
            }
        }
    }

    #[test]
    fn with_backing_carries_counters_forward() {
        let tabs = tables();
        let offsets = offsets_of(&tabs);
        let budget = total_bytes(&tabs, RowFormat::F32) / 2;
        let old = TieredBacking::build(&tabs, RowFormat::F32, &[0, 0, 0, 0], budget).unwrap();
        let mut store = TieredStore::new(Arc::clone(&old), 1);
        let mut out = vec![0.0f32; old.feature_len()];
        store.gather_round(&[1, 1, 1, 1], &offsets, &mut out).unwrap();
        let before = store.counters();
        assert!(before.resident_hits > 0);

        let new = old.rebuild_with_channels(&[0, 1, 0, 1], 1).unwrap();
        let mut swapped = store.with_backing(Arc::clone(&new));
        assert_eq!(swapped.counters(), before, "swap must not reset counters");
        assert!(swapped.prefetcher.is_none(), "swapped store starts unspawned");
        assert!(Arc::ptr_eq(swapped.backing(), &new));
        // Deltas against a pre-swap snapshot stay monotone (no underflow).
        swapped.gather_round(&[2, 2, 2, 2], &offsets, &mut out).unwrap();
        let delta = swapped.counters().delta_since(&before);
        assert_eq!(delta.resident_hits + delta.cold_reads, tabs.len() as u64);
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
