//! The inter-API-server notification broker (§3.4.2).
//!
//! When two related clients are online and one changes shared state, the
//! API server handling the change must reach the API server holding the
//! other client's TCP connection. U1 used RabbitMQ for this: every API
//! server subscribes to a queue and publishes events that other servers
//! deliver to their connected clients as pushes. Footnote 4 notes the
//! shortcut we also expose: "if connected clients are handled by the same
//! API process, their notifications are sent immediately, i.e. there is no
//! need for inter-process communication with RabbitMQ".
//!
//! The broker is generic over the event type; the server crate publishes
//! its own `VolumeEvent`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use u1_core::sync::RwLock;

/// Identifies one subscriber (one API server process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriberId(pub u64);

/// Broker delivery counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BrokerStats {
    pub published: u64,
    /// Total copies enqueued across subscribers.
    pub delivered: u64,
    /// Publishes that found no remote subscriber.
    pub dropped: u64,
    /// Events lost *before* reaching any queue — the fault-injection plane
    /// models broker outages (RabbitMQ restart, queue overflow) by calling
    /// [`Broker::note_lost`] instead of publishing. Affected clients learn
    /// about the missed change by rescanning at their next session.
    pub lost: u64,
}

/// An in-process message broker standing in for the RabbitMQ server.
pub struct Broker<T: Clone + Send + 'static> {
    subscribers: RwLock<HashMap<SubscriberId, Sender<T>>>,
    next_id: AtomicU64,
    published: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    lost: AtomicU64,
}

impl<T: Clone + Send + 'static> Default for Broker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + 'static> Broker<T> {
    pub fn new() -> Self {
        Self {
            subscribers: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            published: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        }
    }

    /// Subscribes a new consumer (an API server process), returning its id
    /// and the receiving end of its queue.
    pub fn subscribe(&self) -> (SubscriberId, Receiver<T>) {
        let id = SubscriberId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = channel();
        self.subscribers.write().insert(id, tx);
        (id, rx)
    }

    /// Removes a subscriber (process shutdown).
    pub fn unsubscribe(&self, id: SubscriberId) {
        self.subscribers.write().remove(&id);
    }

    /// Publishes an event to every subscriber except `from` (the publishing
    /// process delivers to its own clients directly — the footnote-4
    /// fast path).
    pub fn publish_except(&self, from: Option<SubscriberId>, event: T) {
        self.published.fetch_add(1, Ordering::Relaxed);
        let subs = self.subscribers.read();
        let mut delivered = 0u64;
        for (id, tx) in subs.iter() {
            if Some(*id) == from {
                continue;
            }
            if tx.send(event.clone()).is_ok() {
                delivered += 1;
            }
        }
        if delivered == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.delivered.fetch_add(delivered, Ordering::Relaxed);
    }

    /// Publishes to everyone.
    pub fn publish(&self, event: T) {
        self.publish_except(None, event);
    }

    /// Accounts one event lost in the broker itself (injected fan-out
    /// drop): the publisher decided not to enqueue it anywhere, simulating
    /// a message that died inside RabbitMQ.
    pub fn note_lost(&self) {
        self.lost.fetch_add(1, Ordering::Relaxed);
    }

    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            published: self.published.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
        }
    }
}

/// Drains every event currently queued for a subscriber without blocking.
pub fn drain<T>(rx: &Receiver<T>) -> Vec<T> {
    rx.try_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reaches_all_other_subscribers() {
        let broker: Broker<u32> = Broker::new();
        let (a, rx_a) = broker.subscribe();
        let (_b, rx_b) = broker.subscribe();
        let (_c, rx_c) = broker.subscribe();
        broker.publish_except(Some(a), 42);
        assert_eq!(drain(&rx_a), Vec::<u32>::new(), "publisher skipped");
        assert_eq!(drain(&rx_b), vec![42]);
        assert_eq!(drain(&rx_c), vec![42]);
        let stats = broker.stats();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let broker: Broker<u32> = Broker::new();
        let (a, rx_a) = broker.subscribe();
        let (b, rx_b) = broker.subscribe();
        broker.unsubscribe(b);
        broker.publish_except(None, 7);
        assert_eq!(drain(&rx_a), vec![7]);
        assert_eq!(drain(&rx_b), Vec::<u32>::new());
        let _ = a;
    }

    #[test]
    fn publish_with_no_receivers_counts_as_dropped() {
        let broker: Broker<u32> = Broker::new();
        let (a, _rx) = broker.subscribe();
        broker.publish_except(Some(a), 1);
        assert_eq!(broker.stats().dropped, 1);
    }

    #[test]
    fn lost_events_are_counted_separately_from_undeliverable_ones() {
        let broker: Broker<u32> = Broker::new();
        let (_a, rx) = broker.subscribe();
        broker.note_lost();
        broker.note_lost();
        broker.publish(9);
        let stats = broker.stats();
        assert_eq!((stats.lost, stats.published, stats.dropped), (2, 1, 0));
        assert_eq!(drain(&rx), vec![9], "lost events never reach queues");
    }

    #[test]
    fn events_queue_until_drained() {
        let broker: Broker<&'static str> = Broker::new();
        let (_a, rx) = broker.subscribe();
        broker.publish("x");
        broker.publish("y");
        broker.publish("z");
        assert_eq!(drain(&rx), vec!["x", "y", "z"]);
        assert_eq!(drain(&rx), Vec::<&str>::new());
    }

    #[test]
    fn concurrent_publish_is_safe() {
        use std::sync::Arc;
        let broker: Arc<Broker<u64>> = Arc::new(Broker::new());
        let (_id, rx) = broker.subscribe();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let b = Arc::clone(&broker);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    b.publish(t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(drain(&rx).len(), 1000);
        assert_eq!(broker.stats().published, 1000);
    }
}
