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
//! Adding a row: measure the work with [`measure`], push it in
//! [`measured_rows`], and pin its counts in [`BUDGET`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use ubuntuone::analytics::engine::{run_all, EngineConfig};
use ubuntuone::core::SimClock;
use ubuntuone::server::{Backend, BackendConfig};
use ubuntuone::trace::{MemorySink, TraceRecord};
use ubuntuone::workload::{Driver, WorkloadConfig};

// ---------------------------------------------------------------------------
// Counting: allocation calls and requested bytes of the current thread.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
}

struct TallyAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s with no destructor, so touching them never allocates.
unsafe impl GlobalAlloc for TallyAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a live block of `System`'s,
        // as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: TallyAlloc = TallyAlloc;

/// What one piece of work cost: allocation calls (a `realloc` counts as
/// one) and the bytes they requested.
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

// ---------------------------------------------------------------------------
// The budget.
// ---------------------------------------------------------------------------

/// The pinned table: one row per measured piece of work.
const BUDGET: &[(&str, Cost)] = &[(
    "analytics: engine::run_all over the quick month",
    Cost {
        allocs: 1_795,
        bytes: 8_670_661,
    },
)];

/// The quick month on a default back end, through a plain `MemorySink`.
fn quick_month() -> (Vec<TraceRecord>, EngineConfig) {
    let cfg = WorkloadConfig::quick();
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
    Driver::new(cfg, backend, clock).run();
    (sink.take_sorted(), engine)
}

/// Every row of the budget, measured.
fn measured_rows() -> Vec<(&'static str, Cost)> {
    let (records, engine) = quick_month();
    let (report, fold) = measure(|| run_all(&records, &engine));
    assert_eq!(report.summary.records, records.len() as u64);
    vec![("analytics: engine::run_all over the quick month", fold)]
}

#[test]
fn costs_match_the_pinned_budget() {
    assert_eq!(measured_rows(), BUDGET);
}
