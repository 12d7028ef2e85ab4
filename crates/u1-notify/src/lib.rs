//! A RabbitMQ-like publish/subscribe broker (§3.4.2), kept for one caller.
//!
//! U1's API servers exchanged change events through RabbitMQ, so that the
//! server handling a change could reach the server holding another
//! client's TCP connection. The back end no longer queues anything: its
//! push fan-out delivers each push straight to the target session.
//!
//! The only caller left is the benchmark's `notify.publish_ns` row in
//! `benchmark/src/ledger.rs`, which times [`Broker::publish_except`] to 63
//! subscribers. The crate goes with that row, in the benchmark change that
//! cuts the benchmark's reach into the crates (ROADMAP item 34).

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
}

/// An in-process message broker standing in for the RabbitMQ server.
pub struct Broker<T: Clone + Send + 'static> {
    subscribers: RwLock<HashMap<SubscriberId, Sender<T>>>,
    next_id: AtomicU64,
    published: AtomicU64,
    delivered: AtomicU64,
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

    /// Publishes an event to every subscriber except `from`, or to every
    /// subscriber when `from` is `None`.
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
        self.delivered.fetch_add(delivered, Ordering::Relaxed);
    }

    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            published: self.published.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
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
    fn events_queue_until_drained() {
        let broker: Broker<&'static str> = Broker::new();
        let (_a, rx) = broker.subscribe();
        broker.publish_except(None, "x");
        broker.publish_except(None, "y");
        broker.publish_except(None, "z");
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
                    b.publish_except(None, t * 1000 + i);
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
