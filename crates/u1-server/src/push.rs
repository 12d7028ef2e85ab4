//! Push-notification routing (§3.4.2).
//!
//! Changes that affect other online clients are pushed over their session
//! connections. The API process handling the change delivers to its own
//! sessions directly; sessions held by other processes are reached through
//! the broker (the RabbitMQ stand-in). Counters distinguish the two paths
//! so the same-process shortcut of footnote 4 is observable.

use crate::cluster::Slot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use u1_core::sync::RwLock;
use u1_core::{FxHashMap, SessionId, UserId, VolumeId};
use u1_proto::msg::Push;

/// The event API servers exchange through the broker: "deliver this push to
/// these users' sessions".
#[derive(Debug, Clone)]
pub struct VolumeEvent {
    /// Volume that changed.
    pub volume: VolumeId,
    /// Users whose clients should be notified.
    pub targets: Vec<UserId>,
    /// The session that caused the change (not re-notified).
    pub origin_session: SessionId,
    /// The process that handled the change.
    pub origin: Slot,
    /// The push to deliver.
    pub push: Push,
}

/// Per-session delivery endpoints plus delivery statistics.
#[derive(Debug, Default)]
pub struct PushRouter {
    /// Sessions that asked to receive pushes (live TCP writers or sim-mode
    /// client mailboxes). Cold sessions simply never register.
    endpoints: RwLock<FxHashMap<SessionId, Sender<Push>>>,
    delivered_local: AtomicU64,
    delivered_remote: AtomicU64,
    /// Pushes addressed to sessions with no registered endpoint.
    unroutable: AtomicU64,
}

impl PushRouter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a delivery endpoint for a session.
    pub fn register(&self, session: SessionId, tx: Sender<Push>) {
        self.endpoints.write().insert(session, tx);
    }

    /// Unregisters on session close.
    pub fn unregister(&self, session: SessionId) {
        self.endpoints.write().remove(&session);
    }

    /// Delivers a push to one session. `local` records which path was used
    /// (same-process fast path vs broker).
    pub fn deliver(&self, session: SessionId, push: Push, local: bool) {
        let sent = self
            .endpoints
            .read()
            .get(&session)
            .map(|tx| tx.send(push).is_ok())
            .unwrap_or(false);
        if !sent {
            self.unroutable.fetch_add(1, Ordering::Relaxed);
        } else if local {
            self.delivered_local.fetch_add(1, Ordering::Relaxed);
        } else {
            self.delivered_remote.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// (delivered via same-process path, delivered via broker, unroutable)
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.delivered_local.load(Ordering::Relaxed),
            self.delivered_remote.load(Ordering::Relaxed),
            self.unroutable.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn push() -> Push {
        Push::VolumeChanged {
            volume: VolumeId::new(1),
            generation: 2,
        }
    }

    #[test]
    fn delivery_reaches_registered_endpoint() {
        let router = PushRouter::new();
        let (tx, rx) = channel();
        router.register(SessionId::new(1), tx);
        router.deliver(SessionId::new(1), push(), true);
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(router.stats(), (1, 0, 0));
    }

    #[test]
    fn unregistered_sessions_count_unroutable() {
        let router = PushRouter::new();
        router.deliver(SessionId::new(9), push(), false);
        assert_eq!(router.stats(), (0, 0, 1));
    }

    #[test]
    fn unregister_stops_delivery() {
        let router = PushRouter::new();
        let (tx, rx) = channel();
        router.register(SessionId::new(1), tx);
        router.unregister(SessionId::new(1));
        router.deliver(SessionId::new(1), push(), false);
        assert!(rx.try_recv().is_err());
        assert_eq!(router.stats(), (0, 0, 1));
    }

    #[test]
    fn local_and_remote_paths_are_counted_separately() {
        let router = PushRouter::new();
        let (tx, _rx) = channel();
        router.register(SessionId::new(1), tx);
        router.deliver(SessionId::new(1), push(), true);
        router.deliver(SessionId::new(1), push(), false);
        assert_eq!(router.stats(), (1, 1, 0));
    }
}
