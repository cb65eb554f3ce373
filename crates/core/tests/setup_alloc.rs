//! Pins the heap requests `ServingRuntime::start` makes for the perf
//! ledger's two served models, one worker each, on an `f32` embedding arena
//! with the ledger's model seed: the fc model (`dlrm_rmc2(8, 16)`,
//! `serve-open`'s, admission `Reject`) and tiny4 (`serve-sat`'s, admission
//! `Block`).
//!
//! Set-up time is sensitive to allocation layout to the byte: one start-up
//! block growing from 288 to 320 bytes moved the ledger's
//! `serve-open/setup_s` by +20 % (EXPERIMENTS.md). So the request lists are
//! goldens, in order and with their kind: those the calling thread makes
//! inside `start`, and those the worker thread makes from its spawn to its
//! exit at shutdown. The arena's fill threads are left out — which of them
//! takes which fill job, and so how far each one's result list grows, is up
//! to the scheduler — and so are the calling thread's requests for
//! spawning them, whose number is the host's core count.
//!
//! A layout change fails here with its cause: the requests that differ from
//! the golden, each with the glibc chunk it lands in. Update a golden only
//! together with a measurement of the ledger's `setup_s`. The lists hold
//! std's own requests too (thread spawns, formatting), so a toolchain
//! update can move them as well; they were recorded with rustc 1.95.
//!
//! A second phase counts the steady state, in the build profile it runs in
//! (CI runs it in release too). Each engine the runtime can serve with — the
//! fc model on the f32 arena, tiny4 on the f32 arena, the tiered store with
//! a cold tier and the catalog, each at F32, Q2.13 and Q8.23 — is warmed,
//! then every repeat of `predict_batch(32)`, `predict` and
//! `gather_features_into` must ask for a pinned number of blocks. A
//! one-worker tiny4 runtime must ask for `a` blocks per request and `b` per
//! batch. The goldens name their terms, and none of them is the memory
//! simulator's: serving does not drive it. This phase is the served path's
//! allocation contract: a new block per call fails it, in whatever form it
//! is asked for.
//!
//! The binary has its own `main` (`harness = false`): under libtest's output
//! capture every `std::thread::spawn` asks for two more blocks than it does
//! in the ledger, and no other test may run beside this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};

use microrec_core::{AdmissionPolicy, MicroRec, MicroRecBuilder, RuntimeConfig, ServingRuntime};
use microrec_embedding::{ModelSpec, Precision, RowFormat, TableSpec};

/// A request's kind, as logged and as written in a golden (`z`, `r`).
const PLAIN: u64 = 0;
const ZEROED: u64 = 1;
const REALLOC: u64 = 2;

const LOG_CAPACITY: usize = 1 << 14;
static RECORDING: AtomicBool = AtomicBool::new(false);
/// One request per entry: thread tag (bits 56–63), kind (48–55), size.
static LOG: [AtomicU64; LOG_CAPACITY] = [const { AtomicU64::new(0) }; LOG_CAPACITY];
static LOG_LEN: AtomicUsize = AtomicUsize::new(0);
/// Every request of every thread, logged or not: the steady-state phase's
/// counter.
static REQUESTS: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU8 = AtomicU8::new(1);

thread_local! {
    /// This thread's tag in the log; 0 until it first asks for one.
    static THREAD: Cell<u8> = const { Cell::new(0) };
}

fn thread_tag() -> u8 {
    THREAD
        .try_with(|tag| {
            if tag.get() == 0 {
                tag.set(NEXT_THREAD.fetch_add(1, Relaxed));
            }
            tag.get()
        })
        .unwrap_or(u8::MAX)
}

fn note(kind: u64, size: usize) {
    REQUESTS.fetch_add(1, Relaxed);
    if RECORDING.load(Relaxed) {
        let at = LOG_LEN.fetch_add(1, Relaxed);
        if let Some(slot) = LOG.get(at) {
            slot.store(u64::from(thread_tag()) << 56 | kind << 48 | size as u64, Relaxed);
        }
    }
}

struct LoggingAllocator;

// SAFETY: every method delegates verbatim to the `System` allocator and
// only adds relaxed atomic bookkeeping (and a const-initialised
// thread-local without a destructor), so `GlobalAlloc`'s contract holds
// exactly as it does for `System` itself.
unsafe impl GlobalAlloc for LoggingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; the layout is
    // passed through to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(PLAIN, layout.size());
        // SAFETY: same layout the caller gave us, forwarded to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(ZEROED, layout.size());
        // SAFETY: same layout the caller gave us, forwarded to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with this
    // layout — which means it came from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` pair is valid for `System` per the above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; all three
    // arguments are forwarded to `System` untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(REALLOC, new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LoggingAllocator = LoggingAllocator;

/// One logged request, written as in a golden: `N`, `zN` or `rN` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    kind: u64,
    size: usize,
}

impl std::fmt::Display for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let prefix = match self.kind {
            ZEROED => "z",
            REALLOC => "r",
            _ => "",
        };
        write!(f, "{prefix}{}", self.size)
    }
}

impl Request {
    fn parse(token: &str) -> Request {
        let (kind, size) = match token.as_bytes()[0] {
            b'z' => (ZEROED, &token[1..]),
            b'r' => (REALLOC, &token[1..]),
            _ => (PLAIN, token),
        };
        Request { kind, size: size.parse().unwrap_or_else(|_| panic!("bad golden token {token}")) }
    }

    /// The chunk glibc's `malloc` serves the request from on x86-64: the
    /// size plus an 8-byte header, rounded up to 16, at least 32. From
    /// 128 KiB on, unless the dynamic threshold has risen past it, the block
    /// is `mmap`ed whole pages instead.
    fn glibc_chunk(self) -> String {
        let chunk = (self.size + 8).div_ceil(16).max(2) * 16;
        if self.size >= 128 << 10 {
            format!("{chunk} B chunk or mmap")
        } else {
            format!("{chunk} B chunk")
        }
    }
}

/// `requests` as golden text: runs of one request collapsed to
/// `request×count`, wrapped at 100 columns.
fn compress(requests: &[Request]) -> String {
    let (mut text, mut line) = (String::new(), String::new());
    let mut i = 0;
    while i < requests.len() {
        let run = requests[i..].iter().take_while(|&&r| r == requests[i]).count();
        let token = match run {
            1 => requests[i].to_string(),
            _ => format!("{}×{run}", requests[i]),
        };
        if !line.is_empty() && line.len() + token.len() >= 100 {
            text += &line;
            text.push('\n');
            line.clear();
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line += &token;
        i += run;
    }
    text + &line
}

/// The requests a golden lists: whitespace-separated, `request×k` for a
/// run, `[a b c]×threads` for a group made once per arena fill thread, and
/// from `#` to the end of a line a comment.
fn expand(golden: &str, threads: usize) -> Vec<Request> {
    let (mut requests, mut group) = (Vec::new(), None::<Vec<Request>>);
    let words =
        golden.lines().flat_map(|line| line.split('#').next().unwrap_or("").split_whitespace());
    for word in words {
        let (word, run) = word.split_once('×').unwrap_or((word, "1"));
        let run = match run {
            "threads" => threads,
            run => run.parse().unwrap_or_else(|_| panic!("bad run length in golden: {run}")),
        };
        let (opens, word) = word.strip_prefix('[').map_or((false, word), |word| (true, word));
        let (closes, word) = word.strip_suffix(']').map_or((false, word), |word| (true, word));
        if opens {
            group = Some(Vec::new());
        }
        let request = Request::parse(word);
        match group.as_mut() {
            Some(members) if closes => {
                members.push(request);
                let members = group.take().unwrap_or_default();
                (0..run).for_each(|_| requests.extend(&members));
            }
            Some(members) => members.extend(std::iter::repeat_n(request, run)),
            None => requests.extend(std::iter::repeat_n(request, run)),
        }
    }
    requests
}

/// Fails unless `got` is the `golden` list: with the requests between the
/// two lists' longest common prefix and suffix, each with its position and
/// glibc chunk, then the whole list as golden text.
fn assert_requests(what: &str, golden: &str, threads: usize, got: &[Request]) {
    let want = expand(golden, threads);
    if want == got {
        return;
    }
    let prefix = want.iter().zip(got).take_while(|(a, b)| a == b).count();
    let suffix = want[prefix..]
        .iter()
        .rev()
        .zip(got[prefix..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let mut report = format!(
        "{what}: {} requests against the golden's {}; the first {prefix} and the last {suffix} \
         agree, these differ:\n",
        got.len(),
        want.len()
    );
    for (side, list) in [("golden", &want[..]), ("now", got)] {
        let differing = list.iter().enumerate().take(list.len() - suffix).skip(prefix);
        for (at, request) in differing.take(40) {
            report += &format!("  {side:>6} #{at}: {request} ({})\n", request.glibc_chunk());
        }
    }
    panic!(
        "{report}the whole list now (the fill threads' spawns written out {threads} times):\n{}\n",
        compress(got)
    );
}

/// Starts a one-worker runtime on `model` with the ledger's builder and
/// `admission`, shuts it down, and returns the requests of the calling
/// thread inside `start` and those of the worker thread. A first, unlogged
/// start warms the process-wide lazies (std's first-spawn and core-count
/// caches among them), as the ledger's own earlier set-ups and host probe
/// do, so the list does not depend on what ran before in the process.
fn start_requests(model: ModelSpec, admission: AdmissionPolicy) -> (Vec<Request>, Vec<Request>) {
    let builder = MicroRec::builder(model).seed(42).embedding_arena(RowFormat::F32);
    let config = RuntimeConfig { workers: 1, admission, ..RuntimeConfig::default() };
    ServingRuntime::start(builder.clone(), config).expect("runtime starts").shutdown();
    let main = thread_tag();
    LOG_LEN.store(0, Relaxed);
    RECORDING.store(true, Relaxed);
    let mut runtime = ServingRuntime::start(builder, config).expect("runtime starts");
    let started = LOG_LEN.load(Relaxed);
    runtime.shutdown();
    RECORDING.store(false, Relaxed);
    let len = LOG_LEN.load(Relaxed);
    assert!(len <= LOG_CAPACITY, "{len} requests overflow the {LOG_CAPACITY}-entry log");
    let log: Vec<(usize, u8, Request)> = LOG[..len]
        .iter()
        .enumerate()
        .map(|(at, entry)| {
            let entry = entry.load(Relaxed);
            let request =
                Request { kind: entry >> 48 & 0xFF, size: (entry & ((1 << 48) - 1)) as usize };
            (at, (entry >> 56) as u8, request)
        })
        .collect();
    // The worker is the last thread to start asking: the fill threads are
    // joined before `start` builds the engine, let alone spawns it.
    let worker = log.iter().map(|&(_, tag, _)| tag).rfind(|&tag| tag != main);
    let of = |thread: Option<u8>, before: usize| -> Vec<Request> {
        log.iter()
            .filter(|&&(at, tag, _)| Some(tag) == thread && at < before)
            .map(|&(_, _, request)| request)
            .collect()
    };
    (of(Some(main), started), of(worker, len))
}

/// What the worker thread asks for between its spawn and its exit, the
/// same for both models.
const WORKER: &str = "17 768";

/// The tests, run in this order by `main`: libtest is not in this binary.
/// The set-up lists come first, so nothing the steady-state phase leaves
/// behind in the heap moves them.
const TESTS: [(&str, fn()); 2] = [
    ("start_requests_the_golden_heap_blocks", start_requests_the_golden_heap_blocks),
    ("steady_state_requests_the_golden_counts", steady_state_requests_the_golden_counts),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--list") {
        TESTS.iter().for_each(|(name, _)| println!("{name}: test"));
        return;
    }
    let filters: Vec<&String> = args.iter().filter(|arg| !arg.starts_with('-')).collect();
    for (name, test) in TESTS {
        if filters.is_empty() || filters.iter().any(|filter| name.contains(filter.as_str())) {
            test();
            println!("test {name} ... ok");
        }
    }
}

fn start_requests_the_golden_heap_blocks() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if threads > 1 {
        let (main, worker) = start_requests(ModelSpec::dlrm_rmc2(8, 16), AdmissionPolicy::Reject);
        assert_requests("fc, calling thread", include_str!("setup_alloc/fc.txt"), threads, &main);
        assert_requests("fc, worker thread", WORKER, threads, &worker);
    } else {
        eprintln!("fc: SKIPPED: on one core the arena fill runs on the calling thread");
    }
    let (main, worker) = start_requests(tiny4(), AdmissionPolicy::Block);
    assert_requests("tiny4, calling thread", include_str!("setup_alloc/tiny4.txt"), 1, &main);
    assert_requests("tiny4, worker thread", WORKER, 1, &worker);
}

// ---------------------------------------------------------------------------
// Steady state: how many blocks a warm engine and runtime ask for per call
// ---------------------------------------------------------------------------

/// Heap requests one `call` makes once warm: `call` runs once to warm,
/// then `REPEATS` more times, and every repeat must ask for the same
/// number of blocks.
fn requests_per_call(what: &str, mut call: impl FnMut()) -> u64 {
    const REPEATS: usize = 4;
    call();
    let mut counts = [0; REPEATS];
    for count in &mut counts {
        let before = REQUESTS.load(Relaxed);
        call();
        *count = REQUESTS.load(Relaxed) - before;
    }
    assert!(
        counts.iter().all(|&count| count == counts[0]),
        "{what}: the heap requests per call differ between repeats: {counts:?}"
    );
    counts[0]
}

/// `count` deterministic queries for `model`, each with distinct rows.
fn queries(model: &ModelSpec, count: u64) -> Vec<Vec<u64>> {
    let arity = model.num_tables() as u64 * u64::from(model.lookups_per_table);
    let rows = model.tables.iter().map(|t| t.rows).min().unwrap_or(1);
    (0..count).map(|i| (0..arity).map(|j| (i * 7919 + j * 104_729) % rows).collect()).collect()
}

/// `serve-sat`'s model: 4 tables × 1000 rows × dim 4, 2 lookup rounds, one
/// hidden layer of 16.
fn tiny4() -> ModelSpec {
    let tables = (0..4).map(|i| TableSpec::new(format!("tiny{i}_d4"), 1000, 4)).collect();
    ModelSpec::new("tiny4", tables, vec![16], 2)
}

/// Heap requests per call of a warm engine: `predict_batch` of 32 queries,
/// `predict` of one, and `gather_features_into` a reused buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PerCall {
    batch: u64,
    predict: u64,
    gather: u64,
}

/// The goldens, per model and precision. No store changes them: the arena,
/// the tiered store's resident and cold rows and the catalog all fill the
/// caller's slice in place, and no call resolves a query or drives the
/// simulated memory. The terms, with L layers:
///
/// - `gather_features_into`: none, the buffer is reused;
/// - `predict`: the gather into a fresh feature `Vec` (1), then the
///   reference `Mlp`: at F32 the input copy and one `Vec` per layer
///   (1 + L), at Q2.13 and Q8.23 also the quantized input (2 + L);
/// - `predict_batch(32)`: the output `Vec` (1). The gather writes each
///   item's rows straight into the fast path's staging matrix through its
///   one round buffer, both built or warm, as are the packed weights and
///   the scratch arena.
fn golden(model: &str, precision: Precision) -> PerCall {
    let fixed = u64::from(precision != Precision::F32);
    let batch = 1;
    match model {
        // L = 4: 1 + (1 + 4), or + (2 + 4) when quantized.
        "fc" => PerCall { batch, predict: 6 + fixed, gather: 0 },
        // L = 2: 1 + (1 + 2), or + (2 + 2) when quantized.
        "tiny4" => PerCall { batch, predict: 4 + fixed, gather: 0 },
        other => panic!("no golden for model {other}"),
    }
}

/// A one-worker tiny4 runtime, on the f32 arena or the tiered store,
/// serving `N` requests asks for `N·a + batches·b` blocks, across the
/// submitting thread and the worker:
///
/// - a = 1 per request: the reply `Slot`'s `Arc` (1); the engine's
///   `predict_batch` has no per-item term;
/// - b = 2 per batch: the `Vec` `pop_batch` hands the worker (1), and the
///   engine's per-batch term, the output `Vec` (1).
///
/// The queries' own `Vec`s are built before the count and reach the engine
/// without a copy.
const PER_REQUEST: u64 = 1;
const PER_BATCH: u64 = 2;

fn steady_state_requests_the_golden_counts() {
    let mut failures = Vec::new();
    let fc = MicroRec::builder(ModelSpec::dlrm_rmc2(8, 16)).seed(42);
    let arena = fc.clone().embedding_arena(RowFormat::F32).build().expect("fc builds");
    let arena = arena.arena().cloned().expect("the fc engine has an arena");
    let tiny = MicroRec::builder(tiny4()).seed(42);
    // Half of tiny4's 64 000 bytes resident: two tables are read from the
    // cold file.
    let stores = [
        ("fc", "f32 arena", fc.shared_arena(arena)),
        ("tiny4", "f32 arena", tiny.clone().embedding_arena(RowFormat::F32)),
        ("tiny4", "tiered", tiny.clone().tiered_storage(32_000, RowFormat::F32)),
        ("tiny4", "catalog", tiny.clone()),
    ];
    for (model, store, builder) in stores {
        for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
            let what = format!("{model}, {store}, {precision:?}");
            let mut engine = builder.clone().precision(precision).build().expect("engine builds");
            let batch = queries(engine.model(), 32);
            let mut features = Vec::new();
            let got = PerCall {
                batch: requests_per_call(&what, || {
                    engine.predict_batch(&batch).expect("batch predicts");
                }),
                predict: requests_per_call(&what, || {
                    engine.predict(&batch[0]).expect("query predicts");
                }),
                gather: requests_per_call(&what, || {
                    engine.gather_features_into(&batch[0], &mut features).expect("query gathers");
                }),
            };
            if store == "tiered" {
                let backing = engine.tiered_store().expect("tiered").backing();
                assert_eq!(backing.num_resident_tables(), 2, "{what}: two tables are cold");
                assert!(engine.tier_counters().cold_reads > 0, "{what}: no cold read");
            }
            let want = golden(model, precision);
            if got != want {
                failures.push(format!("{what}: got {got:?}, want {want:?}"));
            }
        }
    }

    for (store, builder) in [
        ("f32 arena", tiny.clone().embedding_arena(RowFormat::F32)),
        ("tiered", tiny.tiered_storage(32_000, RowFormat::F32)),
    ] {
        failures.extend(serve_against_the_golden(store, builder));
    }
    assert!(failures.is_empty(), "steady-state heap requests moved:\n{}", failures.join("\n"));
}

/// Serves rounds of `N` requests on a one-worker tiny4 runtime and returns
/// every warm round whose heap requests are not `N·a + batches·b`. Requests
/// go one at a time (a batch each), then all at once (batches of whatever
/// the worker finds queued), so both `a` and `b` show. The first two rounds
/// warm: the first replies ask for a few one-off blocks.
fn serve_against_the_golden(store: &str, builder: MicroRecBuilder) -> Vec<String> {
    const N: usize = 256;
    let config =
        RuntimeConfig { workers: 1, admission: AdmissionPolicy::Block, ..RuntimeConfig::default() };
    let mut runtime = ServingRuntime::start(builder, config).expect("runtime starts");
    let mut pending = Vec::with_capacity(N);
    let mut failures = Vec::new();
    for (round, one_by_one) in [true, false, true, false, true, false].into_iter().enumerate() {
        let requests = queries(&tiny4(), N as u64);
        let batches = runtime.snapshot().batches;
        let before = REQUESTS.load(Relaxed);
        for query in requests {
            pending.push(runtime.submit(query).expect("admitted"));
            if one_by_one {
                pending.pop().expect("just pushed").wait().expect("served");
            }
        }
        for reply in pending.drain(..) {
            reply.wait().expect("served");
        }
        let got = REQUESTS.load(Relaxed) - before;
        let batches = runtime.snapshot().batches - batches;
        let want = N as u64 * PER_REQUEST + batches * PER_BATCH;
        if round >= 2 && got != want {
            failures.push(format!(
                "runtime, {store}, round {round}: got {got}, want {want} = {N} requests × \
                 {PER_REQUEST} + {batches} batches × {PER_BATCH}"
            ));
        }
    }
    if store == "tiered" {
        let tiers = runtime.lookup_stats().expect("tiered runtime");
        assert!(tiers.cold_reads > 0, "runtime, {store}: no cold read");
    }
    runtime.shutdown();
    failures
}
