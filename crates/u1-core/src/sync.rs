//! Locks that know their place in the lock order.
//!
//! [`Mutex`] and [`RwLock`] wrap the `std::sync` locks with a non-poisoning
//! API: `lock()`, `read()` and `write()` return guards directly, and a
//! holder that panicked does not lock everyone else out. Each lock is built
//! with a [`Rank`], and the variants of [`Rank`], in declaration order, are
//! the workspace's lock-order table. A thread may take a lock only when its
//! rank is strictly above every rank the thread already holds, so no two
//! threads can wait on each other in a cycle. [`Rank::Leaf`] is the top
//! rank and the default: nothing may be taken while a leaf is held.
//!
//! Debug builds, and so every `cargo test`, check the order on each
//! acquisition against a per-thread set of held ranks and panic on the
//! first violation, before blocking. Release builds keep no rank and do no
//! bookkeeping: a lock is the `std::sync` lock it wraps.

// The one place the raw locks are allowed (see `clippy.toml`).
#![allow(clippy::disallowed_types)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// The lock order, lowest first: a thread holding a lock of some rank may
/// take only locks of a higher rank. Only locks that are held while another
/// is taken have a rank of their own below [`Rank::Leaf`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// A driver shard partition (`u1-workload`): the worker runs the
    /// partition's day, and so the whole back-end, under it.
    DriverShard,
    /// `MemorySink`'s sealed prefix: a seal, and `len`, lock each stripe
    /// under it, one at a time.
    SealedPrefix,
    /// A `DirSink` writer stripe: a failed open, write or flush records the
    /// first error under it.
    LogWriters,
    /// Every other lock. Nothing may be taken while a leaf is held.
    #[default]
    Leaf,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Bit `r` is set while this thread holds a lock of rank `r`. Ranks are
    /// taken in strictly increasing order, so no rank is held twice.
    static HELD: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// The rank a lock was built with; zero-sized in release builds.
#[derive(Clone, Copy, Default)]
struct Order {
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl Order {
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    const fn new(rank: Rank) -> Self {
        Self {
            #[cfg(debug_assertions)]
            rank,
        }
    }

    /// Records that this thread takes a lock of this rank, or panics if the
    /// thread already holds one of the same or a higher rank.
    #[inline]
    fn claim(self) -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let bit = 1u32 << self.rank as u32;
            let mask = held.get();
            // A set bit at or above `bit` is a held rank >= this one.
            if mask >= bit {
                let highest = RANKS[(31 - mask.leading_zeros()) as usize];
                panic!(
                    "lock order: taking a {:?} lock while holding a {highest:?} lock",
                    self.rank
                );
            }
            held.set(mask | bit);
        });
        Held {
            #[cfg(debug_assertions)]
            rank: self.rank,
        }
    }
}

/// Every rank, indexed by its bit.
#[cfg(debug_assertions)]
const RANKS: [Rank; 4] = [
    Rank::DriverShard,
    Rank::SealedPrefix,
    Rank::LogWriters,
    Rank::Leaf,
];

/// A guard's claim on its rank, given back when the guard drops.
struct Held {
    #[cfg(debug_assertions)]
    rank: Rank,
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get() & !(1u32 << self.rank as u32)));
    }
}

/// A mutual-exclusion lock with a rank; see the [module docs](self).
#[derive(Default)]
pub struct Mutex<T> {
    order: Order,
    inner: std::sync::Mutex<T>,
}

/// Access to a [`Mutex`]'s value; the lock is released on drop.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Mutex<T> {
    /// A [`Rank::Leaf`] lock.
    pub const fn new(value: T) -> Self {
        Self::ranked(Rank::Leaf, value)
    }

    pub const fn ranked(rank: Rank, value: T) -> Self {
        Self {
            order: Order::new(rank),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.order.claim();
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
        // `try_lock` cannot block, so it takes no part in the order.
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

/// A reader-writer lock with a rank; see the [module docs](self). Readers
/// are ranked like writers: a thread may not take a read lock twice either.
#[derive(Default)]
pub struct RwLock<T> {
    order: Order,
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
    /// A [`Rank::Leaf`] lock.
    pub const fn new(value: T) -> Self {
        Self::ranked(Rank::Leaf, value)
    }

    pub const fn ranked(rank: Rank, value: T) -> Self {
        Self {
            order: Order::new(rank),
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = self.order.claim();
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = self.order.claim();
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

    #[test]
    fn in_order_acquires_and_reacquires_after_drop_pass() {
        let slots = RwLock::ranked(Rank::DriverShard, 1);
        let prefix = Mutex::ranked(Rank::SealedPrefix, 2);
        let leaf = Mutex::new(3);
        {
            let _s = slots.read();
            let _p = prefix.lock();
            assert_eq!(*leaf.lock(), 3);
        }
        // Released out of order, each rank is free again.
        let s = slots.write();
        let p = prefix.lock();
        drop(s);
        drop(p);
        let _s = slots.read();
        assert_eq!(*prefix.lock() + *leaf.lock(), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn out_of_order_acquire_panics_and_leaves_the_held_set_as_it_was() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let low = Mutex::ranked(Rank::DriverShard, ());
        let high = Mutex::ranked(Rank::LogWriters, ());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _h = high.lock();
            let _l = low.lock();
        }));
        let message = outcome.expect_err("DriverShard under LogWriters must panic");
        assert_eq!(
            message.downcast_ref::<String>().map(String::as_str),
            Some("lock order: taking a DriverShard lock while holding a LogWriters lock")
        );
        // The guard taken before the panic gave its rank back on unwind.
        let _l = low.lock();
        let _h = high.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "taking a Leaf lock while holding a Leaf lock")]
    fn anything_under_a_leaf_panics() {
        let (a, b) = (Mutex::new(()), RwLock::<()>::default());
        let _a = a.lock();
        let _b = b.read();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "taking a SealedPrefix lock while holding a Leaf lock")]
    fn a_ranked_lock_under_a_leaf_panics() {
        let (leaf, prefix) = (RwLock::new(()), Mutex::ranked(Rank::SealedPrefix, ()));
        let _leaf = leaf.write();
        let _prefix = prefix.lock();
    }

    #[test]
    fn ranks_are_indexed_by_their_bit() {
        #[cfg(debug_assertions)]
        for (i, rank) in RANKS.iter().enumerate() {
            assert_eq!(*rank as usize, i);
        }
        assert_eq!(Rank::default(), Rank::Leaf);
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
