//! Lightweight phase accounting for the parallel paths.
//!
//! The multi-core burn-down (DESIGN.md §13) needs to answer "where did the
//! wall-clock go?" without perturbing the thing being measured. This module
//! provides:
//!
//! * [`PhaseNanos`] — per-phase nanosecond counters, serializable and
//!   embedded in `DriverReport`; each driver worker fills its own and the
//!   driver sums them after the day's join,
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

use std::time::Instant;

use serde::Serialize;

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

/// Elapsed nanoseconds since `start`, clamped into `u64`.
///
/// `u64::MAX` nanoseconds is ~584 years, so the clamp is theoretical; it
/// exists so no `as` cast can silently truncate the `u128`.
#[inline]
pub fn saturating_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds spent per phase of a driver run.
///
/// Counters are cumulative across the whole run (summed over all workers,
/// so a phase that ran on 4 threads for 1s of wall time reports ~4s of
/// thread time — divide by the thread count for per-core occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PhaseNanos {
    /// Thread-nanos spent advancing shard simulations.
    pub worker_run_nanos: u64,
    /// Thread-nanos workers spent waiting at each day's join for the
    /// slowest worker.
    pub barrier_park_nanos: u64,
    /// Thread-nanos draining `BufferedSink` day buffers.
    pub day_flush_nanos: u64,
    /// Nanos sealing content-index epochs (coordinator thread).
    pub seal_nanos: u64,
    /// Nanos in the coordinator section (maintenance/GC/attacks).
    pub coordinator_nanos: u64,
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
        use std::sync::atomic::AtomicU64;
        assert!(std::mem::align_of::<CachePadded<AtomicU64>>() >= 64);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 64);
        let banks: [CachePadded<AtomicU64>; 2] = Default::default();
        let a = &banks[0] as *const _ as usize;
        let b = &banks[1] as *const _ as usize;
        assert!(b - a >= 64);
    }
}
