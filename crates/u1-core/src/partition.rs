//! Thread-local partition context for the parallel workload driver.
//!
//! The driver partitions the client population by metastore shard and runs
//! each partition on a worker thread. Determinism across worker counts
//! requires that every source of state a partition consumes is keyed by the
//! *partition* (called its **origin**), never by the thread or by global
//! arrival order. This module carries that origin — plus the partition's
//! virtual time and its monotone per-origin counters — as a thread-local
//! context that a worker installs while it runs a partition:
//!
//! - `SimClock::now()` prefers the context's time cell, so concurrent
//!   partitions can sit at different virtual instants without racing on the
//!   shared clock cell.
//! - `TraceRecord::new` stamps records with `(origin, seq)` so a canonical
//!   sort order exists even when two partitions log at the same instant.
//! - `SessionTable::open` derives origin-tagged session ids, keeping id
//!   assignment independent of cross-partition interleaving.
//!
//! - [`OriginBank`] keeps one lazily created state per origin (a latency
//!   model, an RNG stream, a load view) and [`origin_seed`] seeds it, so no
//!   stochastic component is shared between partitions.
//!
//! When no context is installed everything falls back to origin 0 and the
//! callers' own global counters: single-threaded callers (unit tests) and
//! the live TCP reactor, which serves every connection from one thread.

use crate::clock::SimTime;
use crate::rngx;
use crate::sync::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-partition state installed on a worker thread while it runs that
/// partition. One context per partition per run; it persists across days so
/// the counters stay monotone for the whole window.
#[derive(Debug)]
pub struct PartitionCtx {
    /// A shard index, or the coordinator's one past the last shard: shard
    /// counts are `u16`, so every origin fits one.
    origin: u16,
    /// Current virtual time of this partition, in µs.
    time: AtomicU64,
    /// Monotone per-origin trace-record sequence.
    trace_seq: AtomicU64,
    /// Monotone per-origin session-id sequence.
    session_seq: AtomicU64,
}

impl PartitionCtx {
    pub fn new(origin: u16) -> Arc<Self> {
        Arc::new(Self {
            origin,
            time: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            session_seq: AtomicU64::new(0),
        })
    }

    pub fn origin(&self) -> u16 {
        self.origin
    }

    /// Moves this partition's clock. Only the owning worker writes it, so
    /// `Relaxed` suffices.
    pub fn set_time(&self, t: SimTime) {
        self.time.store(t.as_micros(), Ordering::Relaxed);
    }

    pub fn time(&self) -> SimTime {
        SimTime::from_micros(self.time.load(Ordering::Relaxed))
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<PartitionCtx>>> = const { RefCell::new(None) };
}

/// Installs `ctx` on this thread, returning a guard that restores the
/// previous context (usually `None`) on drop.
pub fn install(ctx: Arc<PartitionCtx>) -> CtxGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
    CtxGuard { prev }
}

/// RAII guard from [`install`].
pub struct CtxGuard {
    prev: Option<Arc<PartitionCtx>>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

fn with_current<T>(f: impl FnOnce(&PartitionCtx) -> T) -> Option<T> {
    CURRENT.with(|c| c.borrow().as_deref().map(f))
}

/// Origin of the partition running on this thread; 0 when none is installed.
pub fn current_origin() -> u32 {
    u32::from(origin_or_zero())
}

fn origin_or_zero() -> u16 {
    with_current(|ctx| ctx.origin).unwrap_or(0)
}

/// This partition's virtual time, if a context is installed.
pub fn current_time() -> Option<SimTime> {
    with_current(PartitionCtx::time)
}

/// Next `(origin, seq)` stamp for a trace record; `None` without a context
/// (callers then use the `(0, 0)` stamp).
pub fn next_trace_stamp() -> Option<(u16, u64)> {
    with_current(|ctx| {
        (
            ctx.origin,
            ctx.trace_seq.fetch_add(1, Ordering::Relaxed) + 1,
        )
    })
}

/// Next origin-tagged raw session id; `None` without a context (callers then
/// fall back to their own global counter). The origin lives in the high bits
/// so ids from different partitions never collide.
pub fn next_session_id() -> Option<u64> {
    with_current(|ctx| {
        let seq = ctx.session_seq.fetch_add(1, Ordering::Relaxed) + 1;
        ((u64::from(ctx.origin) + 1) << 40) | seq
    })
}

/// Seed of `origin`'s private stream of a component seeded with `root`:
/// origin 0 keeps the root seed, every other origin derives its own from
/// `(root, label, origin)`.
pub fn origin_seed(root: u64, label: &str, origin: u16) -> u64 {
    if origin == 0 {
        root
    } else {
        rngx::derive_seed(root, label, u64::from(origin))
    }
}

/// Origins per page of an [`OriginBank`]'s page table, and pages per table:
/// `PAGE * PAGE` slots cover every `u16` origin.
const PAGE: usize = 256;

/// One `T` per partition origin, created the first time that origin asks.
///
/// Anything stochastic or load-dependent the back-end keeps (service-time
/// models, failure rolls, session placement) would make results depend on
/// how concurrent partitions interleave if it were shared. A bank gives the
/// calling partition its own instance: a partition runs its events in a
/// deterministic order on whichever worker thread it lands on, so it
/// consumes its instance in a deterministic order too.
///
/// The instances sit in a two-level page table indexed by the origin's high
/// and low byte. Pages and slots are set once, on first use, and never
/// replaced, so finding an origin's slot takes no lock and no hash; only
/// the slot's own mutex is taken, and only its partition contends for it.
pub struct OriginBank<T> {
    pages: [OnceLock<Box<Page<T>>>; PAGE],
}

type Page<T> = [OnceLock<Mutex<T>>; PAGE];

impl<T> Default for OriginBank<T> {
    fn default() -> Self {
        Self {
            pages: [const { OnceLock::new() }; PAGE],
        }
    }
}

impl<T> OriginBank<T> {
    /// Runs `f` on the calling partition's instance, building it with
    /// `make(origin)` on first use. Only that instance is locked while `f`
    /// runs.
    pub fn with<R>(&self, make: impl FnOnce(u16) -> T, f: impl FnOnce(&mut T) -> R) -> R {
        let origin = origin_or_zero();
        let [hi, lo] = origin.to_be_bytes();
        let page =
            self.pages[usize::from(hi)].get_or_init(|| Box::new([const { OnceLock::new() }; PAGE]));
        let slot = page[usize::from(lo)].get_or_init(|| Mutex::new(make(origin)));
        let mut state = slot.lock();
        f(&mut state)
    }

    fn slots(&self) -> impl Iterator<Item = (u16, &Mutex<T>)> {
        (0..=u8::MAX).zip(&self.pages).flat_map(|(hi, page)| {
            (0..=u8::MAX)
                .zip(page.get().into_iter().flat_map(|p| p.iter()))
                .filter_map(move |(lo, slot)| Some((u16::from_be_bytes([hi, lo]), slot.get()?)))
        })
    }
}

impl<T> std::fmt::Debug for OriginBank<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OriginBank")
            .field("origins", &self.slots().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_without_a_context_is_origin_zero_on_the_root_seed() {
        let bank = OriginBank::default();
        let seed = bank.with(|origin| origin_seed(77, "x", origin), |seed| *seed);
        assert_eq!(seed, 77, "origin 0 keeps the root seed");
        assert_eq!(bank.with(|_| panic!("made twice"), |seed| *seed), 77);
        assert_eq!(format!("{bank:?}"), "OriginBank { origins: 1 }");
        assert_eq!(origin_seed(77, "x", 3), rngx::derive_seed(77, "x", 3));
        assert_ne!(origin_seed(77, "x", 3), origin_seed(77, "y", 3));
    }

    #[test]
    fn bank_gives_each_installed_context_its_own_state() {
        let bank: OriginBank<Vec<u16>> = OriginBank::default();
        let made = std::cell::Cell::new(0);
        // Both ends of each page, and of the table, twice each.
        let origins = [0u16, 3, 255, 256, 65535];
        for origin in origins.into_iter().chain(origins) {
            let _g = install(PartitionCtx::new(origin));
            bank.with(
                |o| {
                    made.set(made.get() + 1);
                    vec![o]
                },
                |state| state.push(origin),
            );
        }
        assert_eq!(made.get(), origins.len(), "`make` runs once per origin");
        for origin in origins {
            let _g = install(PartitionCtx::new(origin));
            let state = bank.with(|_| panic!("made twice"), |state| state.clone());
            assert_eq!(state, [origin; 3], "origin {origin}");
        }
    }

    #[test]
    fn threads_racing_to_create_a_slot_share_one_state() {
        let bank: OriginBank<u32> = OriginBank::default();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let (bank, start) = (&bank, &start);
                // Two threads per origin, each origin on its own page.
                s.spawn(move || {
                    let _g = install(PartitionCtx::new(t % 2 * 300));
                    start.wait();
                    for _ in 0..1000 {
                        bank.with(|_| 0, |n| *n += 1);
                    }
                });
            }
        });
        for origin in [0, 300] {
            let _g = install(PartitionCtx::new(origin));
            assert_eq!(bank.with(|_| panic!("made twice"), |n| *n), 2000);
        }
        assert_eq!(format!("{bank:?}"), "OriginBank { origins: 2 }");
    }

    #[test]
    fn defaults_apply_without_a_context() {
        assert_eq!(current_origin(), 0);
        assert_eq!(current_time(), None);
        assert_eq!(next_trace_stamp(), None);
        assert_eq!(next_session_id(), None);
    }

    #[test]
    fn installed_context_supplies_origin_time_and_counters() {
        let ctx = PartitionCtx::new(3);
        ctx.set_time(SimTime::from_secs(42));
        let _g = install(ctx.clone());
        assert_eq!(current_origin(), 3);
        assert_eq!(current_time(), Some(SimTime::from_secs(42)));
        assert_eq!(next_trace_stamp(), Some((3, 1)));
        assert_eq!(next_trace_stamp(), Some((3, 2)));
        let s1 = next_session_id().unwrap();
        let s2 = next_session_id().unwrap();
        assert_ne!(s1, s2);
        assert_eq!(s1 >> 40, 4, "origin + 1 in the high bits");
    }

    #[test]
    fn guard_restores_previous_context() {
        {
            let _outer = install(PartitionCtx::new(1));
            {
                let _inner = install(PartitionCtx::new(2));
                assert_eq!(current_origin(), 2);
            }
            assert_eq!(current_origin(), 1);
        }
        assert_eq!(current_origin(), 0);
    }

    #[test]
    fn contexts_are_per_thread() {
        let _g = install(PartitionCtx::new(7));
        let other = std::thread::spawn(current_origin).join().unwrap();
        assert_eq!(other, 0);
        assert_eq!(current_origin(), 7);
    }
}
