//! Deterministic cost counters, pinned like the trace SHAs.
//!
//! Wall-clock numbers on a shared host move by ±15%; an allocation count
//! does not move at all. This test binary installs its own counting
//! allocator and pins, per row of [`BUDGET`], how many allocations and
//! allocated bytes one piece of work costs. A change that adds an
//! allocation per record fails here, in every `cargo test`, without a quiet
//! host. A change that moves a count re-pins it in the same diff and says
//! why in CHANGES.md.
//!
//! The `held:` rows are the other half of the census: the blocks and bytes
//! the back end still holds after the quick month, per owner, counted
//! process-wide as what dropping that owner frees. They move when a table's
//! layout does, which no wall-clock bound would notice.
//!
//! Adding a row: measure the work with [`measure`] (or the holding with
//! [`freed_by`]), push it in [`measured_rows`], and pin its counts in
//! [`BUDGET`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use ubuntuone::analytics::engine::{run_all, EngineConfig};
use ubuntuone::core::SimClock;
use ubuntuone::server::{Backend, BackendConfig};
use ubuntuone::trace::{MemorySink, TraceRecord};
use ubuntuone::workload::{Driver, WorkloadConfig};

// ---------------------------------------------------------------------------
// Counting: allocation calls and requested bytes of the current thread,
// and the blocks and bytes live in the whole process.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn note(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
}

fn note_live(blocks: i64, bytes: i64) {
    LIVE_BLOCKS.fetch_add(blocks, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

struct TallyAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s with no destructor, so touching them never allocates.
unsafe impl GlobalAlloc for TallyAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(1, layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(0, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` describe a live block of `System`'s,
        // as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-1, -(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: TallyAlloc = TallyAlloc;

/// What one piece of work cost: allocation calls (a `realloc` counts as
/// one) and the bytes they requested. For a `held:` row, the blocks and
/// bytes that dropping the owner gave back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    allocs: u64,
    bytes: u64,
}

/// Runs `work` on this thread and returns its result with what it
/// allocated. Only this thread's allocations count, so tests running
/// beside it do not perturb the numbers.
fn measure<R>(work: impl FnOnce() -> R) -> (R, Cost) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = work();
    let cost = Cost {
        allocs: ALLOCS.with(Cell::get) - before.0,
        bytes: BYTES.with(Cell::get) - before.1,
    };
    (out, cost)
}

/// The blocks and bytes live in the process right now.
fn live() -> (i64, i64) {
    (
        LIVE_BLOCKS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

/// The live blocks and bytes given back since `before`, process-wide:
/// take both readings while no other thread allocates.
fn freed_since(before: (i64, i64)) -> Cost {
    let after = live();
    Cost {
        allocs: u64::try_from(before.0 - after.0).expect("dropping allocated blocks"),
        bytes: u64::try_from(before.1 - after.1).expect("dropping allocated bytes"),
    }
}

/// Runs `release` and returns what it gave back, as [`freed_since`].
fn freed_by(release: impl FnOnce()) -> Cost {
    let before = live();
    release();
    freed_since(before)
}

// ---------------------------------------------------------------------------
// The budget.
// ---------------------------------------------------------------------------

/// `debug` in a debug build, `release` in a release build: a
/// `u1_core::sync` lock carries its lock-order rank only in debug builds,
/// so the bytes held by an owner whose heap holds locks depend on the
/// build.
const fn by_build(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// The pinned table: one row per measured piece of work.
const BUDGET: &[(&str, Cost)] = &[
    (
        "analytics: engine::run_all over the quick month",
        Cost {
            allocs: 1_788,
            bytes: 8_670_498,
        },
    ),
    (
        "held: the metastore after the quick month",
        Cost {
            allocs: 2_894,
            bytes: by_build(4_067_976, 4_066_872),
        },
    ),
    (
        "held: the blobstore after the quick month",
        Cost {
            allocs: 2,
            bytes: 663_876,
        },
    ),
    (
        "held: the rest of the back end after the quick month",
        Cost {
            allocs: 141,
            bytes: by_build(254_328, 246_896),
        },
    ),
];

/// The quick month on a default back end, through a plain `MemorySink`, on
/// one worker: the trace is the same at any worker count, and what the
/// back end holds at the end repeats exactly only on one. Returns the
/// sorted trace, the engine's configuration and the back end's census.
fn quick_month() -> (Vec<TraceRecord>, EngineConfig, [Cost; 3]) {
    let cfg = WorkloadConfig {
        workers: 1,
        ..WorkloadConfig::quick()
    };
    let backend_cfg = BackendConfig::default();
    let engine = EngineConfig::new(
        cfg.horizon(),
        backend_cfg.cluster.machines as usize,
        backend_cfg.store.shards as usize,
    );
    let clock = SimClock::new();
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        backend_cfg,
        Arc::new(clock.clone()),
        sink.clone(),
    ));
    Driver::new(cfg, Arc::clone(&backend), clock).run();
    let Ok(backend) = Arc::try_unwrap(backend) else {
        panic!("the driver left the back end shared");
    };
    // The trace stays in `sink`, so dropping the rest does not free it.
    let (metastore, blobstore, before_rest) = {
        let backend = backend;
        let metastore = freed_by(|| drop(backend.store));
        let blobstore = freed_by(|| drop(backend.blobs));
        (metastore, blobstore, live())
        // What is left of `backend` drops here.
    };
    let rest = freed_since(before_rest);
    (sink.take_sorted(), engine, [metastore, blobstore, rest])
}

/// Every row of the budget, measured.
fn measured_rows() -> Vec<(&'static str, Cost)> {
    let (records, engine, [metastore, blobstore, rest]) = quick_month();
    let (report, fold) = measure(|| run_all(&records, &engine));
    assert_eq!(report.summary.records, records.len() as u64);
    vec![
        ("analytics: engine::run_all over the quick month", fold),
        ("held: the metastore after the quick month", metastore),
        ("held: the blobstore after the quick month", blobstore),
        ("held: the rest of the back end after the quick month", rest),
    ]
}

#[test]
fn costs_match_the_pinned_budget() {
    assert_eq!(measured_rows(), BUDGET);
}
