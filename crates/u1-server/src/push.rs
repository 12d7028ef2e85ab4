//! Push-notification routing (§3.4.2).
//!
//! Changes that affect other online clients are pushed over their session
//! connections. The API process handling the change delivers to its own
//! sessions directly; sessions held by other processes are reached through
//! the broker (the RabbitMQ stand-in). Counters distinguish the two paths
//! so the same-process shortcut of footnote 4 is observable.

use crate::session::Session;
use std::sync::atomic::{AtomicU64, Ordering};
use u1_core::{SessionId, UserId};
use u1_proto::msg::Push;

/// The event API servers exchange through the broker: "deliver this push to
/// these users' sessions".
#[derive(Debug, Clone)]
pub struct VolumeEvent {
    /// Users whose clients should be notified.
    pub targets: Vec<UserId>,
    /// The session that caused the change (not re-notified), if any.
    pub origin_session: Option<SessionId>,
    /// The push to deliver.
    pub push: Push,
}

/// Delivery statistics of the push fan-out.
#[derive(Debug, Default)]
pub struct PushRouter {
    delivered_local: AtomicU64,
    delivered_remote: AtomicU64,
    /// Pushes addressed to sessions that did not subscribe to them.
    unroutable: AtomicU64,
}

impl PushRouter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivers a push to one session. `local` records which path was used
    /// (same-process fast path vs broker).
    pub(crate) fn deliver(&self, session: &Session, push: Push, local: bool) {
        let counter = if !session.push(push) {
            &self.unroutable
        } else if local {
            &self.delivered_local
        } else {
            &self.delivered_remote
        };
        counter.fetch_add(1, Ordering::Relaxed);
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
    use crate::cluster::Slot;
    use crate::session::SessionTable;
    use std::sync::mpsc::channel;
    use u1_core::{MachineId, ProcessId, VolumeId};

    fn push() -> Push {
        Push::VolumeChanged {
            volume: VolumeId::new(1),
            generation: 2,
        }
    }

    fn slot() -> Slot {
        Slot {
            machine: MachineId::new(0),
            process: ProcessId::new(0),
        }
    }

    #[test]
    fn delivery_reaches_registered_endpoint() {
        let (router, table) = (PushRouter::new(), SessionTable::new());
        let (tx, rx) = channel();
        let s = table.open(UserId::new(1), slot(), Some(tx));
        router.deliver(&s, push(), true);
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(router.stats(), (1, 0, 0));
    }

    #[test]
    fn unregistered_sessions_count_unroutable() {
        let (router, table) = (PushRouter::new(), SessionTable::new());
        let cold = table.open(UserId::new(1), slot(), None);
        router.deliver(&cold, push(), false);
        assert_eq!(router.stats(), (0, 0, 1));
    }

    /// A closed session leaves its user's index, so no fan-out finds it;
    /// a client that dropped its receiver is unroutable.
    #[test]
    fn unregister_stops_delivery() {
        let (router, table) = (PushRouter::new(), SessionTable::new());
        let (tx, rx) = channel();
        let s = table.open(UserId::new(1), slot(), Some(tx));
        assert!(table.close(&s));
        let mut found = 0;
        table.for_each_of(UserId::new(1), |_| found += 1);
        assert_eq!(found, 0);
        drop(rx);
        router.deliver(&s, push(), false);
        assert_eq!(router.stats(), (0, 0, 1));
    }

    #[test]
    fn local_and_remote_paths_are_counted_separately() {
        let (router, table) = (PushRouter::new(), SessionTable::new());
        let (tx, rx) = channel();
        let s = table.open(UserId::new(1), slot(), Some(tx));
        router.deliver(&s, push(), true);
        router.deliver(&s, push(), false);
        assert_eq!(rx.try_iter().count(), 2);
        assert_eq!(router.stats(), (1, 1, 0));
    }
}
