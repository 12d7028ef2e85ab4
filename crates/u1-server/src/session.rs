//! The session table: one entry per live storage-protocol session.
//!
//! Both maps are striped so concurrent driver partitions do not serialize on
//! a single `RwLock` — `count_op` takes a write lock on every storage
//! operation, which made a global map the hottest lock in the server under
//! the parallel workload driver.

use crate::cluster::Slot;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use u1_core::{FxHashMap, SessionId, SimTime, UserId};

/// Number of independent lock stripes for the live/by-user maps.
const SESSION_STRIPES: usize = 16;

/// A live session's bookkeeping.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    pub session: SessionId,
    pub user: UserId,
    pub slot: Slot,
    pub opened_at: SimTime,
}

#[derive(Debug)]
struct SessionEntry {
    handle: SessionHandle,
    ops: u64,
    data_ops: u64,
}

/// Thread-safe session registry.
#[derive(Debug)]
pub struct SessionTable {
    next_id: AtomicU64,
    live: Vec<RwLock<FxHashMap<SessionId, SessionEntry>>>,
    by_user: Vec<RwLock<FxHashMap<UserId, Vec<SessionId>>>>,
}

impl Default for SessionTable {
    fn default() -> Self {
        Self {
            next_id: AtomicU64::new(0),
            live: (0..SESSION_STRIPES).map(|_| RwLock::default()).collect(),
            by_user: (0..SESSION_STRIPES).map(|_| RwLock::default()).collect(),
        }
    }
}

impl SessionTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn live_stripe(&self, session: SessionId) -> &RwLock<FxHashMap<SessionId, SessionEntry>> {
        &self.live[session.raw() as usize % SESSION_STRIPES]
    }

    fn user_stripe(&self, user: UserId) -> &RwLock<FxHashMap<UserId, Vec<SessionId>>> {
        &self.by_user[user.raw() as usize % SESSION_STRIPES]
    }

    /// Registers a new session.
    ///
    /// When the calling thread carries a [`u1_core::PartitionCtx`], the
    /// session id is derived from the partition's own counter — ids are then
    /// a pure function of (origin, per-origin arrival order), independent of
    /// how partitions are packed onto worker threads. Without a context the
    /// legacy global counter is used.
    pub fn open(&self, user: UserId, slot: Slot, now: SimTime) -> SessionHandle {
        let session = match u1_core::partition::next_session_id() {
            Some(id) => SessionId::new(id),
            None => SessionId::new(self.next_id.fetch_add(1, Ordering::Relaxed) + 1),
        };
        let handle = SessionHandle {
            session,
            user,
            slot,
            opened_at: now,
        };
        self.live_stripe(session).write().insert(
            session,
            SessionEntry {
                handle: handle.clone(),
                ops: 0,
                data_ops: 0,
            },
        );
        self.user_stripe(user)
            .write()
            .entry(user)
            .or_default()
            .push(session);
        handle
    }

    /// Removes a session; returns its handle and (ops, data_ops) counters.
    pub fn close(&self, session: SessionId) -> Option<(SessionHandle, u64, u64)> {
        let entry = self.live_stripe(session).write().remove(&session)?;
        let mut by_user = self.user_stripe(entry.handle.user).write();
        if let Some(v) = by_user.get_mut(&entry.handle.user) {
            v.retain(|s| *s != session);
            if v.is_empty() {
                by_user.remove(&entry.handle.user);
            }
        }
        Some((entry.handle, entry.ops, entry.data_ops))
    }

    pub fn get(&self, session: SessionId) -> Option<SessionHandle> {
        self.live_stripe(session)
            .read()
            .get(&session)
            .map(|e| e.handle.clone())
    }

    /// Counts an operation against a session. `data` marks data-management
    /// operations (the active/cold session distinction of §7.3).
    pub fn count_op(&self, session: SessionId, data: bool) {
        if let Some(e) = self.live_stripe(session).write().get_mut(&session) {
            e.ops += 1;
            if data {
                e.data_ops += 1;
            }
        }
    }

    /// All live sessions of a user (push targets — a user may run several
    /// devices).
    pub fn sessions_of(&self, user: UserId) -> Vec<SessionHandle> {
        let sids: Vec<SessionId> = self
            .user_stripe(user)
            .read()
            .get(&user)
            .cloned()
            .unwrap_or_default();
        sids.into_iter().filter_map(|sid| self.get(sid)).collect()
    }

    pub fn live_count(&self) -> usize {
        self.live.iter().map(|s| s.read().len()).sum()
    }

    /// Force-closes every session of a user (the §5.4 manual DDoS
    /// countermeasure). Returns the closed handles.
    pub fn evict_user(&self, user: UserId) -> Vec<SessionHandle> {
        let sids: Vec<SessionId> = self
            .user_stripe(user)
            .read()
            .get(&user)
            .cloned()
            .unwrap_or_default();
        sids.into_iter()
            .filter_map(|sid| self.close(sid).map(|(h, _, _)| h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use u1_core::{MachineId, ProcessId};

    fn slot() -> Slot {
        Slot {
            machine: MachineId::new(0),
            process: ProcessId::new(0),
        }
    }

    #[test]
    fn open_close_lifecycle() {
        let t = SessionTable::new();
        let h = t.open(UserId::new(1), slot(), SimTime::ZERO);
        assert_eq!(t.live_count(), 1);
        assert!(t.get(h.session).is_some());
        t.count_op(h.session, true);
        t.count_op(h.session, false);
        let (handle, ops, data_ops) = t.close(h.session).unwrap();
        assert_eq!(handle.user, UserId::new(1));
        assert_eq!((ops, data_ops), (2, 1));
        assert!(t.close(h.session).is_none());
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn multi_device_sessions_index_by_user() {
        let t = SessionTable::new();
        let u = UserId::new(9);
        let h1 = t.open(u, slot(), SimTime::ZERO);
        let h2 = t.open(u, slot(), SimTime::ZERO);
        assert_ne!(h1.session, h2.session);
        assert_eq!(t.sessions_of(u).len(), 2);
        t.close(h1.session);
        assert_eq!(t.sessions_of(u).len(), 1);
    }

    #[test]
    fn evict_user_closes_everything() {
        let t = SessionTable::new();
        let u = UserId::new(4);
        t.open(u, slot(), SimTime::ZERO);
        t.open(u, slot(), SimTime::ZERO);
        t.open(UserId::new(5), slot(), SimTime::ZERO);
        let evicted = t.evict_user(u);
        assert_eq!(evicted.len(), 2);
        assert_eq!(t.live_count(), 1);
        assert!(t.sessions_of(u).is_empty());
    }

    #[test]
    fn partition_ctx_derives_namespaced_session_ids() {
        let t = SessionTable::new();
        let ctx = u1_core::PartitionCtx::new(3);
        let _guard = u1_core::partition::install(ctx);
        let h = t.open(UserId::new(1), slot(), SimTime::ZERO);
        // Origin 3 => ids live in the (3 + 1) << 40 namespace.
        assert_eq!(h.session.raw() >> 40, 4);
        assert!(t.get(h.session).is_some());
        assert!(t.close(h.session).is_some());
    }
}
