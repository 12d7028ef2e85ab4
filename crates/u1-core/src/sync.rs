//! Locks that are never held two at a time.
//!
//! [`Mutex`] and [`RwLock`] wrap the `std::sync` locks with a non-poisoning
//! API: `lock()`, `read()` and `write()` return guards directly, and a
//! holder that panicked does not lock everyone else out. The workspace's
//! whole lock discipline is one rule: a thread holds at most one of these
//! locks at a time. No thread ever waits for a lock while holding one, so
//! no two threads can wait on each other in a cycle. Code that needs two
//! locked values copies what it needs out of the first guard and drops it
//! before taking the second.
//!
//! Debug builds, and so every `cargo test`, check the rule on each
//! acquisition against a per-thread flag and panic on a nested acquire,
//! before blocking. They also count every acquisition, process-wide
//! ([`acquisitions`]), so a test can pin how many locks a piece of work
//! takes. A lock itself is the `std::sync` lock it wraps in every build,
//! and release builds keep no flag and no count.

// The one place the raw locks are allowed (see `clippy.toml`).
#![allow(clippy::disallowed_types)]

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;

/// The panic message of a nested acquire.
#[cfg(debug_assertions)]
const NESTED: &str = "nested lock: this thread already holds a u1_core::sync lock";

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a lock.
    static HOLDING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Locks taken so far in this process.
#[cfg(debug_assertions)]
static ACQUIRED: AtomicU64 = AtomicU64::new(0);

/// How many locks this process has taken so far. Debug builds only: a
/// release lock keeps no count.
#[cfg(debug_assertions)]
pub fn acquisitions() -> u64 {
    ACQUIRED.load(Ordering::Relaxed)
}

/// A guard's claim on its thread's one lock, given back when the guard
/// drops. Zero-sized; release builds keep no claim.
struct Held;

impl Held {
    /// Records that this thread takes a lock, or panics if it already holds
    /// one, and counts the acquisition.
    #[inline]
    fn claim() -> Self {
        #[cfg(debug_assertions)]
        {
            HOLDING.with(|holding| assert!(!holding.replace(true), "{NESTED}"));
            ACQUIRED.fetch_add(1, Ordering::Relaxed);
        }
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HOLDING.with(|holding| holding.set(false));
    }
}

/// A mutual-exclusion lock; see the [module docs](self).
#[derive(Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Access to a [`Mutex`]'s value; the lock is released on drop.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::claim();
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `try_lock` cannot block, so it is not an acquire the rule counts.
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock; see the [module docs](self). A read lock is a lock
/// like any other: a thread may not take one while it holds a lock either.
#[derive(Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

/// Shared access to a [`RwLock`]'s value.
pub struct RwLockReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

/// Exclusive access to a [`RwLock`]'s value.
pub struct RwLockWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = Held::claim();
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = Held::claim();
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            Err(_) => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The three ways to take a lock.
    #[derive(Clone, Copy, Debug)]
    enum Take {
        Lock,
        Read,
        Write,
    }

    const TAKES: [Take; 3] = [Take::Lock, Take::Read, Take::Write];

    /// One lock of each type.
    #[derive(Default)]
    struct Locks(Mutex<()>, RwLock<()>);

    /// Runs `then` while holding one of `locks`, taken the way `take` says.
    fn holding(locks: &Locks, take: Take, then: impl FnOnce()) {
        match take {
            Take::Lock => {
                let _g = locks.0.lock();
                then();
            }
            Take::Read => {
                let _g = locks.1.read();
                then();
            }
            Take::Write => {
                let _g = locks.1.write();
                then();
            }
        }
    }

    /// The message of a caught panic.
    fn message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
    }

    #[test]
    #[cfg(debug_assertions)]
    fn every_nested_acquire_panics() {
        for outer in TAKES {
            for inner in TAKES {
                let (a, b) = (Locks::default(), Locks::default());
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    holding(&a, outer, || holding(&b, inner, || ()));
                }));
                let payload = outcome.expect_err("a nested acquire must panic");
                assert_eq!(
                    message(&*payload),
                    Some(NESTED),
                    "{inner:?} under {outer:?}"
                );
            }
        }
    }

    #[test]
    fn a_guard_gives_its_claim_back_on_unwind() {
        for take in TAKES {
            let (a, b) = (Locks::default(), Locks::default());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                holding(&a, take, || panic!("while holding"));
            }));
            assert_eq!(message(&*outcome.unwrap_err()), Some("while holding"));
            // The guard dropped on unwind, so this thread holds nothing.
            for next in TAKES {
                holding(&b, next, || ());
                holding(&a, next, || ());
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn acquisitions_are_counted() {
        let before = acquisitions();
        let locks = Locks::default();
        for take in TAKES {
            holding(&locks, take, || ());
        }
        // Tests running beside this one take locks too.
        assert!(acquisitions() >= before + 3);
    }

    #[test]
    fn a_panicking_holder_does_not_lock_others_out() {
        let m = std::sync::Arc::new(Mutex::new(1));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(
            std::sync::Arc::into_inner(m).map(Mutex::into_inner),
            Some(2)
        );
    }
}
