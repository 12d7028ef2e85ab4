//! Virtual and real time.
//!
//! The paper analyzes one month of production activity. Reproducing the
//! analyses does not require waiting a month: every measured quantity is a
//! function of event *timestamps*. All timestamps in this workspace are
//! [`SimTime`] values (microseconds since the start of the trace window), and
//! components obtain them from a [`Clock`] — either a [`RealClock`] (live TCP
//! mode, examples and integration tests) or a [`SimClock`] that the
//! discrete-event driver advances explicitly (measurement mode).

use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in simulated time: microseconds since the trace window start.
///
/// The paper's trace window opens on 2014-01-11 00:00 UTC; helper methods
/// that need calendar structure (hour of day, day of week) assume the window
/// starts at midnight on a **Saturday**, which is what 2014-01-11 was.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Debug)]
pub struct SimTime(pub u64);

/// A span of simulated time in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Debug)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }
    pub const fn from_secs(s: u64) -> Self {
        Self(s * MICROS_PER_SEC)
    }
    pub const fn from_hours(h: u64) -> Self {
        Self::from_secs(h * 3_600)
    }
    pub const fn from_days(d: u64) -> Self {
        Self::from_hours(d * 24)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Hour-of-day in `[0, 24)`, assuming the window starts at midnight.
    pub fn hour_of_day(self) -> u32 {
        ((self.0 / MICROS_PER_SEC / 3_600) % 24) as u32
    }

    /// Whole days since the window start.
    pub const fn day_index(self) -> u64 {
        self.0 / MICROS_PER_SEC / 86_400
    }

    /// Day of week, `0 = Monday .. 6 = Sunday`. The paper's window opened on
    /// Saturday 2014-01-11.
    pub fn day_of_week(self) -> u32 {
        const WINDOW_START_DOW: u64 = 5; // Saturday, with Monday = 0.
        ((self.day_index() + WINDOW_START_DOW) % 7) as u32
    }

    /// True on Saturday/Sunday.
    pub fn is_weekend(self) -> bool {
        self.day_of_week() >= 5
    }

    /// Saturating subtraction yielding a duration.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Index of the bin of width `bin` this instant falls into.
    pub fn bin_index(self, bin: SimDuration) -> u64 {
        debug_assert!(bin.0 > 0);
        self.0 / bin.0
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }
    pub const fn from_secs(s: u64) -> Self {
        Self(s * MICROS_PER_SEC)
    }
    pub const fn from_mins(m: u64) -> Self {
        Self::from_secs(m * 60)
    }
    pub const fn from_hours(h: u64) -> Self {
        Self::from_secs(h * 3_600)
    }
    pub const fn from_days(d: u64) -> Self {
        Self::from_hours(d * 24)
    }

    /// Converts a (possibly fractional) number of seconds, saturating at zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return Self::ZERO;
        }
        Self((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs < 1.0 {
            write!(f, "{:.3}ms", secs * 1000.0)
        } else if secs < 120.0 {
            write!(f, "{secs:.2}s")
        } else if secs < 2.0 * 3600.0 {
            write!(f, "{:.1}min", secs / 60.0)
        } else if secs < 48.0 * 3600.0 {
            write!(f, "{:.1}h", secs / 3600.0)
        } else {
            write!(f, "{:.1}d", secs / 86400.0)
        }
    }
}

/// Source of the current simulated time.
///
/// Implementations must be cheap and thread-safe: API server processes,
/// client threads and the trace logger all consult the clock on every event.
pub trait Clock: Send + Sync + 'static {
    /// The current instant.
    fn now(&self) -> SimTime;
}

/// Wall-clock-backed clock: `now()` is the elapsed real time since creation.
/// Used in live TCP mode.
#[derive(Debug)]
pub struct RealClock {
    start: Instant,
}

impl RealClock {
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }
}

/// Virtual clock advanced explicitly by the discrete-event driver.
///
/// Cloning shares the underlying instant, so every component handed a clone
/// observes the same timeline.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a clock already positioned at `t`.
    pub fn at(t: SimTime) -> Self {
        let c = Self::new();
        c.set(t);
        c
    }

    /// Moves the clock forward to `t`. Moving backwards is a bug in the
    /// event driver and panics in debug builds; in release the clock clamps
    /// to be monotone.
    pub fn set(&self, t: SimTime) {
        let prev = self.now.swap(t.0, Ordering::SeqCst);
        debug_assert!(prev <= t.0, "SimClock moved backwards: {prev} -> {}", t.0);
        if prev > t.0 {
            self.now.store(prev, Ordering::SeqCst);
        }
    }

    /// Advances by `d` and returns the new time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        SimTime(self.now.fetch_add(d.0, Ordering::SeqCst) + d.0)
    }
}

impl Clock for SimClock {
    /// When a [`crate::partition::PartitionCtx`] is installed on the calling
    /// thread, that partition's own time cell wins: parallel driver workers
    /// sit at different virtual instants without racing on the shared cell.
    fn now(&self) -> SimTime {
        crate::partition::current_time().unwrap_or_else(|| SimTime(self.now.load(Ordering::SeqCst)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_calendar_helpers() {
        let t = SimTime::from_hours(25); // day 1, 01:00
        assert_eq!(t.hour_of_day(), 1);
        assert_eq!(t.day_index(), 1);
        // Window opens Saturday: day 0 = Sat(5), day 1 = Sun(6), day 2 = Mon(0).
        assert_eq!(SimTime::from_days(0).day_of_week(), 5);
        assert_eq!(SimTime::from_days(1).day_of_week(), 6);
        assert_eq!(SimTime::from_days(2).day_of_week(), 0);
        assert!(SimTime::from_days(0).is_weekend());
        assert!(!SimTime::from_days(2).is_weekend());
    }

    #[test]
    fn durations_compose() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t.as_secs(), 15);
        assert_eq!((t - SimTime::from_secs(5)).as_secs(), 10);
        // Saturating: earlier - later = 0.
        assert_eq!((SimTime::from_secs(1) - SimTime::from_secs(5)).0, 0);
    }

    #[test]
    fn duration_from_secs_f64_handles_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    #[test]
    fn sim_clock_is_shared_between_clones() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance(SimDuration::from_secs(3));
        assert_eq!(c2.now().as_secs(), 3);
        c2.set(SimTime::from_secs(10));
        assert_eq!(c.now().as_secs(), 10);
    }

    #[test]
    fn real_clock_is_monotone() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn bin_index_buckets_correctly() {
        let bin = SimDuration::from_hours(1);
        assert_eq!(SimTime::from_secs(10).bin_index(bin), 0);
        assert_eq!(SimTime::from_secs(3_600).bin_index(bin), 1);
        assert_eq!(SimTime::from_secs(7_199).bin_index(bin), 1);
    }

    #[test]
    fn duration_display_is_humane() {
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(30).to_string(), "30.00s");
        assert_eq!(SimDuration::from_mins(30).to_string(), "30.0min");
        assert_eq!(SimDuration::from_hours(10).to_string(), "10.0h");
        assert_eq!(SimDuration::from_days(3).to_string(), "3.0d");
    }
}
