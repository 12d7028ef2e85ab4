//! Push-notification routing (§3.4.2).
//!
//! Changes that affect other online clients are pushed over their session
//! connections. `Backend::fan_out` sends each push once, straight down the
//! target session's channel, and counts it as same-process when the
//! session shares the pusher's API process (footnote 4's shortcut) and as
//! cross-process otherwise, the traffic U1 carried over RabbitMQ. Nothing
//! is queued between API processes.

use crate::session::Session;
use std::sync::atomic::{AtomicU64, Ordering};
use u1_proto::msg::Push;

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

    /// Delivers a push to one session: one channel send and one counter.
    /// `local` says whether the session shares the pusher's API process.
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

    /// (delivered same-process, delivered cross-process, unroutable)
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
    use u1_core::{MachineId, ProcessId, UserId, VolumeId};

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
