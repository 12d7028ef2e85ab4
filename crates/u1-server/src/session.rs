//! Live sessions: one shared record per session, indexed by user.
//!
//! A session lives in one place (§3.1.1): the record that opening it builds.
//! The client's [`crate::api::SessionState`] holds it, and so does the
//! table's entry for its user, which the push fan-out, `ban_user` and
//! `live_count` read. Serving a request reads only the record's closed
//! flag, and takes no lock. The user index is striped so concurrent driver
//! partitions do not serialize on a single `RwLock`.

use crate::cluster::Slot;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use u1_core::sync::RwLock;
use u1_core::{FxHashMap, SessionId, UserId};
use u1_proto::msg::Push;

/// Number of independent lock stripes of the user index.
const SESSION_STRIPES: usize = 16;

/// Who a session belongs to and where it runs.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    pub session: SessionId,
    pub user: UserId,
    pub slot: Slot,
}

/// One live session's record.
#[derive(Debug)]
pub(crate) struct Session {
    pub(crate) handle: SessionHandle,
    /// Where its pushes go, when the client subscribed to them.
    pushes: Option<Sender<Push>>,
    /// Set once, by the `swap` that closes the session (its Release half),
    /// and read by `serve` (Acquire).
    closed: AtomicBool,
}

impl Session {
    /// Whether the session has ended (goodbye, teardown or eviction).
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Sends a push to the session's client; false when it did not
    /// subscribe or is gone.
    pub(crate) fn push(&self, push: Push) -> bool {
        self.pushes.as_ref().is_some_and(|tx| tx.send(push).is_ok())
    }
}

/// The live sessions of each user.
#[derive(Debug)]
pub struct SessionTable {
    next_id: AtomicU64,
    by_user: Vec<RwLock<FxHashMap<UserId, Vec<Arc<Session>>>>>,
}

impl Default for SessionTable {
    fn default() -> Self {
        Self {
            next_id: AtomicU64::new(0),
            by_user: (0..SESSION_STRIPES).map(|_| RwLock::default()).collect(),
        }
    }
}

impl SessionTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn stripe(&self, user: UserId) -> &RwLock<FxHashMap<UserId, Vec<Arc<Session>>>> {
        &self.by_user[user.raw() as usize % SESSION_STRIPES]
    }

    /// Registers a new session, with the channel its pushes go to.
    ///
    /// When the calling thread carries a [`u1_core::PartitionCtx`], the
    /// session id is derived from the partition's own counter — ids are then
    /// a pure function of (origin, per-origin arrival order), independent of
    /// how partitions are packed onto worker threads. Without a context the
    /// legacy global counter is used.
    pub(crate) fn open(
        &self,
        user: UserId,
        slot: Slot,
        pushes: Option<Sender<Push>>,
    ) -> Arc<Session> {
        let session = match u1_core::partition::next_session_id() {
            Some(id) => SessionId::new(id),
            None => SessionId::new(self.next_id.fetch_add(1, Ordering::Relaxed) + 1),
        };
        let record = Arc::new(Session {
            handle: SessionHandle {
                session,
                user,
                slot,
            },
            pushes,
            closed: AtomicBool::new(false),
        });
        let mut by_user = self.stripe(user).write();
        by_user.entry(user).or_default().push(Arc::clone(&record));
        record
    }

    /// Closes a session; true for the one caller that closed it.
    pub(crate) fn close(&self, record: &Session) -> bool {
        if record.closed.swap(true, Ordering::AcqRel) {
            return false;
        }
        let user = record.handle.user;
        let mut by_user = self.stripe(user).write();
        if let Some(v) = by_user.get_mut(&user) {
            v.retain(|s| s.handle.session != record.handle.session);
            if v.is_empty() {
                by_user.remove(&user);
            }
        }
        true
    }

    /// Calls `f` with each live session of `user` (push targets — a user
    /// may run several devices), under the user's stripe lock: `f` must
    /// take no lock.
    pub(crate) fn for_each_of(&self, user: UserId, mut f: impl FnMut(&Session)) {
        if let Some(v) = self.stripe(user).read().get(&user) {
            v.iter().for_each(|s| f(s));
        }
    }

    pub fn live_count(&self) -> usize {
        self.by_user
            .iter()
            .map(|s| s.read().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Force-closes every session of a user (the §5.4 manual DDoS
    /// countermeasure). Returns the sessions this call closed.
    pub(crate) fn evict_user(&self, user: UserId) -> Vec<SessionHandle> {
        let sessions = self.stripe(user).write().remove(&user).unwrap_or_default();
        sessions
            .iter()
            .filter(|s| !s.closed.swap(true, Ordering::AcqRel))
            .map(|s| s.handle.clone())
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
        let s = t.open(UserId::new(1), slot(), None);
        assert_eq!(t.live_count(), 1);
        assert!(!s.is_closed());
        assert!(t.close(&s));
        assert!(s.is_closed());
        assert!(!t.close(&s), "a session closes once");
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn multi_device_sessions_index_by_user() {
        let t = SessionTable::new();
        let u = UserId::new(9);
        let s1 = t.open(u, slot(), None);
        let s2 = t.open(u, slot(), None);
        assert_ne!(s1.handle.session, s2.handle.session);
        let count = |t: &SessionTable| {
            let mut n = 0;
            t.for_each_of(u, |_| n += 1);
            n
        };
        assert_eq!(count(&t), 2);
        t.close(&s1);
        assert_eq!(count(&t), 1);
    }

    #[test]
    fn evict_user_closes_everything() {
        let t = SessionTable::new();
        let u = UserId::new(4);
        let s1 = t.open(u, slot(), None);
        t.open(u, slot(), None);
        t.open(UserId::new(5), slot(), None);
        t.close(&s1);
        let evicted = t.evict_user(u);
        assert_eq!(evicted.len(), 1, "the closed session is not evicted");
        assert_eq!(t.live_count(), 1);
        assert!(t.evict_user(u).is_empty());
    }

    #[test]
    fn partition_ctx_derives_namespaced_session_ids() {
        let t = SessionTable::new();
        let ctx = u1_core::PartitionCtx::new(3);
        let _guard = u1_core::partition::install(ctx);
        let s = t.open(UserId::new(1), slot(), None);
        // Origin 3 => ids live in the (3 + 1) << 40 namespace.
        assert_eq!(s.handle.session.raw() >> 40, 4);
        assert!(t.close(&s));
    }
}
