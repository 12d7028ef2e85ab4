//! Lightweight phase accounting for the parallel paths.
//!
//! The multi-core burn-down (DESIGN.md §13) needs to answer "where did the
//! wall-clock go?" without perturbing the thing being measured. This module
//! provides:
//!
//! * [`Phase`] — the closed set of phases the driver accounts time against,
//! * [`PhaseTimers`] — a bank of cache-line-padded atomic nanosecond
//!   counters, shared by reference across worker threads (relaxed ordering:
//!   counters are only read after the workers have been joined),
//! * [`PhaseNanos`] — a plain serializable snapshot of the bank, embedded in
//!   `DriverReport`,
//! * [`Measured`] — a transparent wrapper that *excludes* wall-clock
//!   measurements from a report's `PartialEq`, so determinism asserts
//!   (`report@1worker == report@4workers`, golden literal reports) keep
//!   working while the measurements ride along,
//! * [`CachePadded`] — a 64-byte-aligned wrapper for hot atomics so striped
//!   counters touched by different workers do not false-share a line.
//!
//! Everything here measures with [`std::time::Instant`] (monotonic); no
//! wall-clock (`SystemTime`, banned by `clippy.toml`) or OS entropy is
//! involved, and nothing measured here feeds back into simulation state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::Serialize;

/// Phases the parallel driver accounts time against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Worker threads advancing shard simulations (`run_until`).
    WorkerRun,
    /// Worker threads parked at a day barrier waiting for stragglers plus
    /// the coordinator section.
    BarrierPark,
    /// Draining `BufferedSink` day buffers (per-origin, on worker threads).
    DayFlush,
    /// Sealing the content-index epoch at a day boundary (coordinator).
    Seal,
    /// The coordinator section itself (maintenance, GC, attack waves).
    Coordinator,
}

/// Number of distinct [`Phase`] values (size of a [`PhaseTimers`] bank).
pub const PHASE_COUNT: usize = 5;

impl Phase {
    #[inline]
    fn index(self) -> usize {
        match self {
            Phase::WorkerRun => 0,
            Phase::BarrierPark => 1,
            Phase::DayFlush => 2,
            Phase::Seal => 3,
            Phase::Coordinator => 4,
        }
    }
}

/// Pads the wrapped value out to its own cache line (64 bytes on every
/// target we build for) so adjacent hot atomics written by different
/// threads do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wraps `value` with cache-line alignment.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A bank of per-phase nanosecond counters, one cache line each.
///
/// Shared by reference (`&PhaseTimers`) across scoped worker threads.
/// All operations are `Relaxed`: the bank is an accumulator, not a
/// synchronization primitive — readers snapshot it only after the writers
/// have been joined (or accept a racy-but-monotonic in-flight read).
#[derive(Debug, Default)]
pub struct PhaseTimers {
    banks: [CachePadded<AtomicU64>; PHASE_COUNT],
}

impl PhaseTimers {
    /// A fresh bank with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `nanos` to `phase`'s counter.
    #[inline]
    pub fn add(&self, phase: Phase, nanos: u64) {
        self.banks[phase.index()]
            .0
            .fetch_add(nanos, Ordering::Relaxed);
    }

    /// Current value of one phase counter.
    pub fn get(&self, phase: Phase) -> u64 {
        self.banks[phase.index()].0.load(Ordering::Relaxed)
    }

    /// Snapshots the whole bank into a serializable [`PhaseNanos`].
    pub fn snapshot(&self) -> PhaseNanos {
        PhaseNanos {
            worker_run_nanos: self.get(Phase::WorkerRun),
            barrier_park_nanos: self.get(Phase::BarrierPark),
            day_flush_nanos: self.get(Phase::DayFlush),
            seal_nanos: self.get(Phase::Seal),
            coordinator_nanos: self.get(Phase::Coordinator),
        }
    }
}

/// Elapsed nanoseconds since `start`, clamped into `u64`.
///
/// `u64::MAX` nanoseconds is ~584 years, so the clamp is theoretical; it
/// exists so no `as` cast can silently truncate the `u128`.
#[inline]
pub fn saturating_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A serializable snapshot of a [`PhaseTimers`] bank.
///
/// Counters are cumulative across the whole run (summed over all workers,
/// so a phase that ran on 4 threads for 1s of wall time reports ~4s of
/// thread time — divide by the thread count for per-core occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PhaseNanos {
    /// Thread-nanos spent advancing shard simulations.
    pub worker_run_nanos: u64,
    /// Thread-nanos workers spent parked at day barriers.
    pub barrier_park_nanos: u64,
    /// Thread-nanos draining `BufferedSink` day buffers.
    pub day_flush_nanos: u64,
    /// Nanos sealing content-index epochs (coordinator thread).
    pub seal_nanos: u64,
    /// Nanos in the coordinator section (maintenance/GC/attacks).
    pub coordinator_nanos: u64,
}

impl PhaseNanos {
    /// True when every counter is zero (timing was not collected).
    pub fn is_zero(&self) -> bool {
        *self == PhaseNanos::default()
    }
}

/// A wall-clock measurement riding along an otherwise deterministic value.
///
/// Two runs with the same seed produce identical reports but *different*
/// timings; wrapping the timing in `Measured` makes every `Measured` value
/// compare equal, so report-equality asserts (golden literals, worker-count
/// invariance) ignore it while serialization still carries it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured<T>(pub T);

// Transparent: a `Measured<T>` serializes exactly as its inner `T` (the
// vendored serde stub cannot derive for generic types).
impl<T: Serialize> Serialize for Measured<T> {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl<T> PartialEq for Measured<T> {
    #[inline]
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl<T> std::ops::Deref for Measured<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Measured<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_accumulate_per_phase() {
        let t = PhaseTimers::new();
        t.add(Phase::Seal, 5);
        t.add(Phase::Seal, 7);
        t.add(Phase::Coordinator, 11);
        assert_eq!(t.get(Phase::Seal), 12);
        assert_eq!(t.get(Phase::Coordinator), 11);
        assert_eq!(t.get(Phase::DayFlush), 0);
        let snap = t.snapshot();
        assert_eq!(snap.seal_nanos, 12);
        assert_eq!(snap.coordinator_nanos, 11);
        assert!(!snap.is_zero());
        assert!(PhaseNanos::default().is_zero());
    }

    #[test]
    fn measured_is_invisible_to_equality() {
        #[derive(PartialEq, Debug)]
        struct Report {
            ops: u64,
            timing: Measured<PhaseNanos>,
        }
        let mut a = Report {
            ops: 3,
            timing: Measured(PhaseNanos::default()),
        };
        let b = Report {
            ops: 3,
            timing: Measured(PhaseNanos {
                seal_nanos: 999,
                ..PhaseNanos::default()
            }),
        };
        assert_eq!(a, b);
        a.ops = 4;
        assert_ne!(a, b);
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert!(std::mem::align_of::<CachePadded<AtomicU64>>() >= 64);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 64);
        let banks: [CachePadded<AtomicU64>; 2] = Default::default();
        let a = &banks[0] as *const _ as usize;
        let b = &banks[1] as *const _ as usize;
        assert!(b - a >= 64);
    }
}
