//! Deterministic, seed-driven fault-injection plane.
//!
//! The paper's back-end is defined as much by its failure handling as by its
//! happy path: server-side uploadjobs exist precisely to resume interrupted
//! S3 multipart uploads (§3), week-old jobs are garbage-collected, the
//! 10-shard metadata cluster degrades per-shard (App. A), and §5 analyzes
//! RPC error behavior under stress. This module gives the reproduction a
//! fault surface that exercises those mechanisms **without giving up
//! determinism**: a [`FaultPlan`] describes per-component Bernoulli rates
//! and outage windows, and a [`FaultInjector`] turns the plan into concrete
//! yes/no decisions that are a pure function of `(seed, component,
//! partition origin, per-origin draw index)` — so an identical seed and plan
//! produce an identical fault schedule, and therefore an identical trace, at
//! any worker count.
//!
//! # Determinism argument
//!
//! Two decision mechanisms are used, both worker-count-invariant:
//!
//! * **Outage windows** (shard and auth-service unavailability) are
//!   scheduled from `derive_seed(seed, label, shard)` alone. A lookup is a
//!   pure function of `(shard, virtual time)` — it does not matter which
//!   thread asks, or in which order.
//! * **Bernoulli rolls** (RPC timeouts, blob part-put failures, notification
//!   drops, client crashes) draw from a per-*origin* RNG stream
//!   ([`OriginBank`], like the latency models): each partition of the
//!   parallel driver is pinned to one origin, processes its events in a
//!   deterministic order regardless of which worker thread it lands on, and
//!   therefore consumes its own RNG stream in a deterministic order.
//!
//! With [`FaultPlan::none()`] every probability is zero and every window
//! count is zero: no RNG is ever constructed, no decision ever fires, and
//! the golden trace stays bit-identical to a build without this module.
//!
//! # Trace tagging
//!
//! Fault runs are analyzed through the same one-pass streaming engine as
//! normal runs, so the evidence has to be *in the trace*. Two thread-local
//! tags — an attempt counter and an [`ErrorClass`] — are stamped onto every
//! `TraceRecord` at creation time (see `u1-trace`). Retry loops bump the
//! attempt tag around each re-issue; injection sites set the error class
//! before surfacing a failure. Both default to "first try, no error", which
//! serializes to nothing, keeping fault-free traces byte-identical.

use crate::clock::{SimDuration, SimTime};
use crate::partition::OriginBank;
use crate::rngx;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// Classification of a failed (or fault-affected) operation, carried on
/// trace records so the analytics engine can compute per-class error rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
#[repr(u8)]
pub enum ErrorClass {
    /// A DAL RPC exceeded its timeout budget (injected on the API→DAL path).
    Timeout = 1,
    /// The metadata shard owning the entity was inside an unavailability
    /// window (App. A: the 10-shard cluster degrades per-shard).
    ShardUnavailable = 2,
    /// A blob-store multipart part-put failed (§3: the uploadjob mechanism
    /// exists to resume exactly this).
    PartPut = 3,
    /// The auth service was inside an outage window and the token cache
    /// could not answer either.
    AuthOutage = 4,
    /// Any other error surfaced while a fault plan was active.
    Other = 5,
}

impl ErrorClass {
    /// All classes, for exhaustive analytics iteration.
    pub const ALL: [ErrorClass; 5] = [
        ErrorClass::Timeout,
        ErrorClass::ShardUnavailable,
        ErrorClass::PartPut,
        ErrorClass::AuthOutage,
        ErrorClass::Other,
    ];

    /// Stable label used in the CSV trace encoding and analytics output.
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Timeout => "timeout",
            ErrorClass::ShardUnavailable => "shard_unavailable",
            ErrorClass::PartPut => "part_put",
            ErrorClass::AuthOutage => "auth_outage",
            ErrorClass::Other => "other",
        }
    }

    /// Inverse of [`ErrorClass::label`]; `None` for unknown labels.
    pub fn from_label(s: &str) -> Option<ErrorClass> {
        ErrorClass::ALL.into_iter().find(|c| c.label() == s)
    }
}

// ---------------------------------------------------------------------------
// Thread-local fault tags (attempt counter + error class).
//
// These are independent of `PartitionCtx` so that single-threaded unit tests
// can exercise tagging without installing a partition context. They are set
// and cleared strictly within one client operation on one thread, so a
// `Cell` suffices.
// ---------------------------------------------------------------------------

thread_local! {
    static ATTEMPT: Cell<u8> = const { Cell::new(1) };
    static ERROR_CLASS: Cell<Option<ErrorClass>> = const { Cell::new(None) };
}

/// Current attempt number stamped onto new trace records (1 = first try).
pub fn current_attempt() -> u8 {
    ATTEMPT.with(Cell::get)
}

/// Sets the attempt tag; retry loops call this before each re-issue and
/// reset it (to 1) when the operation resolves.
pub fn set_attempt(n: u8) {
    ATTEMPT.with(|a| a.set(n.max(1)));
}

/// Current error-class tag stamped onto new trace records.
pub fn current_error_class() -> Option<ErrorClass> {
    ERROR_CLASS.with(Cell::get)
}

/// Sets (or clears) the error-class tag. Injection sites set it just before
/// surfacing a failure; the driver clears both tags between operations.
pub fn set_error_class(class: Option<ErrorClass>) {
    ERROR_CLASS.with(|c| c.set(class));
}

/// Resets both tags to their defaults (attempt 1, no error class).
pub fn clear_tags() {
    set_attempt(1);
    set_error_class(None);
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// Bounded exponential backoff: `delay(attempt) = min(base·2^(attempt-1),
/// cap)`, with at most `max_attempts` total attempts. Deterministic (no
/// jitter) so retry schedules replay exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries). Retry budgets
    /// are single digits; a `u8` keeps the attempt tag a byte.
    pub max_attempts: u8,
    /// Backoff before the first retry.
    pub base: SimDuration,
    /// Upper bound on any single backoff delay.
    pub cap: SimDuration,
}

impl RetryPolicy {
    /// Server-side policy for the API→DAL path: 3 attempts, 100 ms base,
    /// 2 s cap.
    pub fn dal_default() -> Self {
        Self {
            max_attempts: 3,
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_secs(2),
        }
    }

    /// Client-side policy used by the workload driver: 3 attempts, 500 ms
    /// base, 8 s cap.
    pub fn client_default() -> Self {
        Self {
            max_attempts: 3,
            base: SimDuration::from_millis(500),
            cap: SimDuration::from_secs(8),
        }
    }

    /// Backoff delay before issuing attempt `attempt + 1` (i.e. after the
    /// failure of `attempt`, 1-based). Saturates at `cap`.
    pub fn backoff(&self, attempt: u8) -> SimDuration {
        let base = self.base.as_micros();
        let shift = attempt.saturating_sub(1).min(20);
        let delay = base.saturating_mul(1u64 << shift);
        SimDuration::from_micros(delay.min(self.cap.as_micros()))
    }
}

/// Per-component fault schedule for one run. All rates are per-decision
/// Bernoulli probabilities; outages are fixed-length windows scheduled
/// uniformly over `horizon` from the plan seed.
///
/// [`FaultPlan::none()`] (the default) disables everything: the golden trace
/// and `DriverReport` of a fault-free run are bit-identical to a build that
/// predates fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that one API→DAL RPC attempt times out.
    pub rpc_timeout_p: f64,
    /// Probability that one blob-store multipart part-put fails.
    pub part_put_p: f64,
    /// Probability that one notification fan-out delivery is dropped.
    pub notify_drop_p: f64,
    /// Probability that a client "crashes" mid-upload, abandoning its
    /// uploadjob (resumed on its next session, or GC'd after a week).
    pub client_crash_p: f64,
    /// Number of unavailability windows per metadata shard.
    pub shard_outages: u32,
    /// Length of each shard unavailability window.
    pub shard_outage_len: SimDuration,
    /// Number of auth-service outage windows.
    pub auth_outages: u32,
    /// Length of each auth-service outage window.
    pub auth_outage_len: SimDuration,
    /// Horizon over which outage windows are scheduled (normally the run's
    /// simulated duration).
    pub horizon: SimDuration,
}

impl FaultPlan {
    /// The empty plan: no faults, no windows, nothing fires.
    pub fn none() -> Self {
        Self {
            rpc_timeout_p: 0.0,
            part_put_p: 0.0,
            notify_drop_p: 0.0,
            client_crash_p: 0.0,
            shard_outages: 0,
            shard_outage_len: SimDuration::ZERO,
            auth_outages: 0,
            auth_outage_len: SimDuration::ZERO,
            horizon: SimDuration::ZERO,
        }
    }

    /// True when no fault can ever fire (every rate zero, every window
    /// count zero). Injection sites early-return on this.
    pub fn is_none(&self) -> bool {
        self.rpc_timeout_p <= 0.0
            && self.part_put_p <= 0.0
            && self.notify_drop_p <= 0.0
            && self.client_crash_p <= 0.0
            && self.shard_outages == 0
            && self.auth_outages == 0
    }

    /// A mild everything-on preset: ~1% shard downtime, 0.2% RPC timeouts,
    /// 1% part-put failures, 2% notification drops, 1% client crashes, one
    /// 20-minute auth outage.
    pub fn light(horizon: SimDuration) -> Self {
        let mut plan = FaultPlan::none();
        plan.horizon = horizon;
        plan.rpc_timeout_p = 0.002;
        plan.part_put_p = 0.01;
        plan.notify_drop_p = 0.02;
        plan.client_crash_p = 0.01;
        plan.shard_outages = 4;
        plan.shard_outage_len = SimDuration::from_micros(horizon.as_micros() / 100 / 4);
        plan.auth_outages = 1;
        plan.auth_outage_len = SimDuration::from_mins(20);
        plan
    }

    /// Parses a `key=value,key=value` spec (the `--faults` CLI syntax), or
    /// the preset names `none` / `light`.
    ///
    /// Keys: `rpc`, `part`, `notify`, `crash` (Bernoulli probabilities) and
    /// `shard`, `auth` (total downtime as a fraction of `horizon`, realized
    /// as 4 resp. 2 equal windows).
    pub fn parse(spec: &str, horizon: SimDuration) -> Result<FaultPlan, String> {
        match spec {
            "none" => return Ok(FaultPlan::none()),
            "light" => return Ok(FaultPlan::light(horizon)),
            _ => {}
        }
        let mut plan = FaultPlan::none();
        plan.horizon = horizon;
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let v: f64 = value
                .parse()
                .map_err(|_| format!("fault spec `{part}`: `{value}` is not a number"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("fault spec `{part}`: {v} outside [0,1]"));
            }
            match key {
                "rpc" => plan.rpc_timeout_p = v,
                "part" => plan.part_put_p = v,
                "notify" => plan.notify_drop_p = v,
                "crash" => plan.client_crash_p = v,
                "shard" => {
                    plan.shard_outages = if v > 0.0 { 4 } else { 0 };
                    plan.shard_outage_len =
                        SimDuration::from_micros((horizon.as_micros() as f64 * v / 4.0) as u64);
                }
                "auth" => {
                    plan.auth_outages = if v > 0.0 { 2 } else { 0 };
                    plan.auth_outage_len =
                        SimDuration::from_micros((horizon.as_micros() as f64 * v / 2.0) as u64);
                }
                _ => return Err(format!("unknown fault key `{key}`")),
            }
        }
        Ok(plan)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

// ---------------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------------

/// One RNG stream per origin per component ([`OriginBank`]): origin `o`
/// draws from `sub_rng(seed, label, o)`, so decisions depend only on the
/// partition and its draw order — never on the thread.
struct Bank {
    label: &'static str,
    seed: u64,
    rngs: OriginBank<SmallRng>,
}

impl Bank {
    fn new(label: &'static str, seed: u64) -> Self {
        Self {
            label,
            seed,
            rngs: OriginBank::default(),
        }
    }

    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let sample: f64 = self.rngs.with(
            |origin| rngx::sub_rng(self.seed, self.label, u64::from(origin)),
            |rng| rng.gen_range(0.0..1.0),
        );
        sample < p
    }
}

/// Turns a [`FaultPlan`] into concrete, deterministic fault decisions.
///
/// Constructed once per run (the backend builds one from its config seed and
/// the driver builds an independent one for client-side crash rolls). All
/// methods are cheap no-ops when the plan [is none](FaultPlan::is_none).
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    rpc: Bank,
    part: Bank,
    notify: Bank,
    crash: Bank,
    /// Auth-service outage windows, computed eagerly.
    auth_windows: Vec<(SimTime, SimTime)>,
}

/// Schedules `count` windows of `len` uniformly over `horizon` from one RNG
/// stream, returned sorted by start time.
fn schedule_windows(
    rng: &mut SmallRng,
    count: u32,
    len: SimDuration,
    horizon: SimDuration,
) -> Vec<(SimTime, SimTime)> {
    let len_us = len.as_micros();
    let span = horizon.as_micros().saturating_sub(len_us);
    let mut windows: Vec<(SimTime, SimTime)> = (0..count)
        .map(|_| {
            let start = if span == 0 { 0 } else { rng.gen_range(0..span) };
            (
                SimTime::from_micros(start),
                SimTime::from_micros(start.saturating_add(len_us)),
            )
        })
        .collect();
    windows.sort_unstable();
    windows
}

fn in_windows(windows: &[(SimTime, SimTime)], t: SimTime) -> bool {
    windows.iter().any(|&(start, end)| t >= start && t < end)
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let auth_windows = if plan.auth_outages > 0 && plan.auth_outage_len > SimDuration::ZERO {
            let mut rng = rngx::sub_rng(seed, "fault-auth-window", 0);
            schedule_windows(
                &mut rng,
                plan.auth_outages,
                plan.auth_outage_len,
                plan.horizon,
            )
        } else {
            Vec::new()
        };
        Self {
            rpc: Bank::new("fault-rpc", seed),
            part: Bank::new("fault-part", seed),
            notify: Bank::new("fault-notify", seed),
            crash: Bank::new("fault-crash", seed),
            auth_windows,
            plan,
            seed,
        }
    }

    /// An injector that never fires (the [`FaultPlan::none()`] plan).
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::none(), 0)
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.plan.is_none()
    }

    /// Should this API→DAL RPC attempt time out?
    pub fn rpc_timeout(&self) -> bool {
        self.rpc.roll(self.plan.rpc_timeout_p)
    }

    /// Should this blob-store part-put fail?
    pub fn part_put_fails(&self) -> bool {
        self.part.roll(self.plan.part_put_p)
    }

    /// Should this notification delivery be dropped?
    pub fn notify_dropped(&self) -> bool {
        self.notify.roll(self.plan.notify_drop_p)
    }

    /// Should the client crash before sending its next upload part?
    pub fn client_crashes(&self) -> bool {
        self.crash.roll(self.plan.client_crash_p)
    }

    /// Is metadata shard `shard` inside an unavailability window at `t`?
    /// Pure function of `(seed, shard, t)` — worker-count invariant. The
    /// shard's windows are scheduled afresh from
    /// `sub_rng(seed, "fault-shard-window", shard)` on each call.
    pub fn shard_down(&self, shard: u64, t: SimTime) -> bool {
        if self.plan.shard_outages == 0 || self.plan.shard_outage_len == SimDuration::ZERO {
            return false;
        }
        let mut rng = rngx::sub_rng(self.seed, "fault-shard-window", shard);
        let windows = schedule_windows(
            &mut rng,
            self.plan.shard_outages,
            self.plan.shard_outage_len,
            self.plan.horizon,
        );
        in_windows(&windows, t)
    }

    /// Is the auth service inside an outage window at `t`?
    pub fn auth_down(&self, t: SimTime) -> bool {
        in_windows(&self.auth_windows, t)
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// A store's slot for the run's [`FaultInjector`], empty until
/// [`install`](Self::install): an empty slot never fires. The slot is set
/// once and never changes after, so a roll reads it without a lock.
#[derive(Debug, Default)]
pub struct InstalledFaults(OnceLock<Arc<FaultInjector>>);

impl InstalledFaults {
    /// Installs `injector` into an empty slot and returns `true`. The first
    /// install wins: on a filled slot this returns `false`, and the
    /// injector installed first keeps deciding every roll.
    pub fn install(&self, injector: Arc<FaultInjector>) -> bool {
        self.0.set(injector).is_ok()
    }

    /// `roll` on the installed injector; `false` when none is installed.
    pub fn fires(&self, roll: impl FnOnce(&FaultInjector) -> bool) -> bool {
        self.0.get().is_some_and(|injector| roll(injector))
    }
}

// ---------------------------------------------------------------------------
// Client-side circuit breaker
// ---------------------------------------------------------------------------

/// Client-side per-shard circuit breaker, owned by one driver partition (so
/// it needs no synchronization and stays deterministic).
///
/// Closed → open after 5 consecutive failures; while open,
/// [`CircuitBreaker::allows`] fast-fails requests until a 60 s cooldown has
/// elapsed, then lets one probe through (half-open). A success closes the
/// breaker; a failure re-opens it for another cooldown.
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    consecutive_failures: u32,
    open_until: Option<SimTime>,
}

/// Consecutive failures that open a [`CircuitBreaker`].
const BREAKER_THRESHOLD: u32 = 5;
/// How long an open [`CircuitBreaker`] fast-fails before its probe.
const BREAKER_COOLDOWN: SimDuration = SimDuration::from_secs(60);

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// May a request be issued at `now`? `false` means fast-fail without
    /// touching the backend.
    pub fn allows(&mut self, now: SimTime) -> bool {
        match self.open_until {
            Some(until) if now < until => false,
            // Cooldown elapsed: half-open, let one probe through.
            Some(_) => {
                self.open_until = None;
                true
            }
            None => true,
        }
    }

    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.open_until = None;
    }

    pub fn record_failure(&mut self, now: SimTime) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= BREAKER_THRESHOLD {
            self.open_until = Some(now + BREAKER_COOLDOWN);
            // Re-arm: a half-open probe failure re-opens immediately.
            self.consecutive_failures = BREAKER_THRESHOLD;
        }
    }

    pub fn is_open(&self, now: SimTime) -> bool {
        matches!(self.open_until, Some(until) if now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(inj.is_none());
        for _ in 0..100 {
            assert!(!inj.rpc_timeout());
            assert!(!inj.part_put_fails());
            assert!(!inj.notify_dropped());
            assert!(!inj.client_crashes());
        }
        assert!(!inj.shard_down(3, SimTime::from_secs(10)));
        assert!(!inj.auth_down(SimTime::from_secs(10)));
        // No RNG stream was ever materialized.
        assert_eq!(format!("{:?}", inj.rpc.rngs), "OriginBank { origins: 0 }");
    }

    #[test]
    fn an_empty_slot_never_fires_and_the_first_install_wins() {
        let slot = InstalledFaults::default();
        assert!(!slot.fires(|_| true), "nothing installed");
        let first = Arc::new(FaultInjector::new(FaultPlan::none(), 1));
        let second = Arc::new(FaultInjector::new(
            FaultPlan::light(SimDuration::from_days(1)),
            2,
        ));
        assert!(slot.install(first));
        assert!(!slot.install(second), "a filled slot refuses");
        assert!(slot.fires(|_| true));
        assert!(
            !slot.fires(|inj| !inj.is_none()),
            "the first injector still decides"
        );
    }

    #[test]
    fn rolls_are_deterministic_per_origin() {
        let plan = FaultPlan {
            rpc_timeout_p: 0.5,
            horizon: SimDuration::from_days(1),
            ..FaultPlan::none()
        };
        let a = FaultInjector::new(plan.clone(), 42);
        let b = FaultInjector::new(plan, 42);
        let seq_a: Vec<bool> = (0..64).map(|_| a.rpc_timeout()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.rpc_timeout()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&x| x) && seq_a.iter().any(|&x| !x));
    }

    #[test]
    fn origins_draw_independent_streams() {
        let plan = FaultPlan {
            part_put_p: 0.5,
            horizon: SimDuration::from_days(1),
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan, 7);
        let base: Vec<bool> = (0..64).map(|_| inj.part_put_fails()).collect();
        let ctx = crate::partition::PartitionCtx::new(3);
        let _g = crate::partition::install(ctx);
        let other: Vec<bool> = (0..64).map(|_| inj.part_put_fails()).collect();
        assert_ne!(base, other, "distinct origins must not share a stream");
    }

    #[test]
    fn shard_windows_cover_requested_downtime() {
        let horizon = SimDuration::from_days(3);
        let plan = FaultPlan {
            shard_outages: 4,
            shard_outage_len: SimDuration::from_mins(30),
            horizon,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan, 11);
        // Sample minute-by-minute; expect roughly 4*30min of downtime (less
        // if windows overlap), and determinism across injectors.
        let down_minutes = (0..horizon.as_secs() / 60)
            .filter(|m| inj.shard_down(2, SimTime::from_secs(m * 60)))
            .count();
        assert!(down_minutes > 0 && down_minutes <= 120, "{down_minutes}");
        let inj2 = FaultInjector::new(inj.plan().clone(), 11);
        for m in 0..horizon.as_secs() / 60 {
            let t = SimTime::from_secs(m * 60);
            assert_eq!(inj.shard_down(2, t), inj2.shard_down(2, t));
        }
        // Different shards get different schedules.
        let other_shard: Vec<bool> = (0..horizon.as_secs() / 60)
            .map(|m| inj.shard_down(5, SimTime::from_secs(m * 60)))
            .collect();
        let this_shard: Vec<bool> = (0..horizon.as_secs() / 60)
            .map(|m| inj.shard_down(2, SimTime::from_secs(m * 60)))
            .collect();
        assert_ne!(other_shard, this_shard);
    }

    #[test]
    fn auth_windows_schedule_once() {
        let plan = FaultPlan {
            auth_outages: 2,
            auth_outage_len: SimDuration::from_mins(10),
            horizon: SimDuration::from_days(1),
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan, 5);
        let down_minutes = (0..24 * 60)
            .filter(|m| inj.auth_down(SimTime::from_secs(m * 60)))
            .count();
        assert!(down_minutes > 0 && down_minutes <= 20, "{down_minutes}");
    }

    #[test]
    fn retry_policy_backs_off_exponentially_with_cap() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_millis(350),
        };
        assert_eq!(p.backoff(1), SimDuration::from_millis(100));
        assert_eq!(p.backoff(2), SimDuration::from_millis(200));
        assert_eq!(p.backoff(3), SimDuration::from_millis(350));
        assert_eq!(p.backoff(30), SimDuration::from_millis(350));
    }

    #[test]
    fn circuit_breaker_opens_cools_down_and_probes() {
        let mut cb = CircuitBreaker::new();
        let t0 = SimTime::from_secs(1000);
        assert!(cb.allows(t0));
        for _ in 1..BREAKER_THRESHOLD {
            cb.record_failure(t0);
        }
        assert!(cb.allows(t0), "below threshold stays closed");
        cb.record_failure(t0);
        assert!(cb.is_open(t0));
        assert!(!cb.allows(SimTime::from_secs(1030)), "open during cooldown");
        assert!(cb.allows(SimTime::from_secs(1061)), "half-open probe");
        cb.record_failure(SimTime::from_secs(1061));
        assert!(
            cb.is_open(SimTime::from_secs(1062)),
            "probe failure re-opens"
        );
        assert!(cb.allows(SimTime::from_secs(1122)));
        cb.record_success();
        assert!(!cb.is_open(SimTime::from_secs(1122)));
        assert!(cb.allows(SimTime::from_secs(1123)));
    }

    #[test]
    fn plan_parse_round_trips_keys() {
        let horizon = SimDuration::from_days(3);
        let plan = FaultPlan::parse("shard=0.01,rpc=0.002,part=0.01,crash=0.005", horizon)
            .expect("valid spec");
        assert_eq!(plan.shard_outages, 4);
        assert_eq!(
            plan.shard_outage_len.as_micros(),
            horizon.as_micros() / 100 / 4
        );
        assert!((plan.rpc_timeout_p - 0.002).abs() < 1e-12);
        assert!((plan.part_put_p - 0.01).abs() < 1e-12);
        assert!((plan.client_crash_p - 0.005).abs() < 1e-12);
        assert!(!plan.is_none());
        assert!(FaultPlan::parse("none", horizon).expect("preset").is_none());
        assert!(!FaultPlan::parse("light", horizon)
            .expect("preset")
            .is_none());
        assert!(FaultPlan::parse("bogus=1", horizon).is_err());
        assert!(FaultPlan::parse("rpc=2.0", horizon).is_err());
        assert!(FaultPlan::parse("rpc", horizon).is_err());
    }

    #[test]
    fn tags_default_and_reset() {
        clear_tags();
        assert_eq!(current_attempt(), 1);
        assert_eq!(current_error_class(), None);
        set_attempt(3);
        set_error_class(Some(ErrorClass::Timeout));
        assert_eq!(current_attempt(), 3);
        assert_eq!(current_error_class(), Some(ErrorClass::Timeout));
        clear_tags();
        assert_eq!(current_attempt(), 1);
        assert_eq!(current_error_class(), None);
        assert_eq!(ErrorClass::from_label("timeout"), Some(ErrorClass::Timeout));
        assert_eq!(ErrorClass::from_label("nope"), None);
    }
}
