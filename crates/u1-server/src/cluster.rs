//! Cluster topology: machines and API/RPC processes, and session placement.
//!
//! Production U1 ran "6 separate racked servers" with "normally 8–16
//! processes per physical machine" (§3.4), and "a session starts in the
//! least loaded machine and lives in the same node until it finishes" (§4).
//! That placement policy, combined with skewed/bursty user activity, is
//! what produces the short-window load imbalance of Fig. 14 — so we
//! reproduce it literally.
//!
//! Load accounting is kept **per partition origin** (see
//! [`u1_core::partition`]): each driver partition places its sessions
//! against its own private view of the slot loads. This removes the single
//! global placement lock from the parallel driver's hot path, and — more
//! importantly — makes every placement a pure function of that partition's
//! own deterministic history, so slot assignments (and hence the
//! machine/process columns of the trace) do not depend on how many worker
//! threads the partitions were packed onto. Threads without a partition
//! context (the live reactor) share the origin-0 view.

use u1_core::partition::OriginBank;
use u1_core::{MachineId, ProcessId};

/// Topology parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Physical API/RPC machines (paper: 6).
    pub machines: u16,
    /// Server processes per machine (paper: 8–16).
    pub processes_per_machine: u16,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            machines: 6,
            processes_per_machine: 12,
        }
    }
}

/// A (machine, process) slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    pub machine: MachineId,
    pub process: ProcessId,
}

/// Tracks per-process load and places sessions.
#[derive(Debug)]
pub struct Cluster {
    slots: Vec<Slot>,
    /// One private load view per partition origin, created on first use:
    /// the active sessions of each slot.
    views: OriginBank<Vec<u64>>,
    config: ClusterConfig,
}

impl Cluster {
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.machines > 0 && config.processes_per_machine > 0);
        let mut slots = Vec::new();
        for m in 0..config.machines {
            for p in 0..config.processes_per_machine {
                slots.push(Slot {
                    machine: MachineId::new(m),
                    process: ProcessId::new(p),
                });
            }
        }
        Self {
            slots,
            views: OriginBank::default(),
            config,
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs `f` on the calling partition's load view.
    fn with_view<R>(&self, f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
        self.views.with(|_| vec![0; self.slots.len()], f)
    }

    /// Places a new session on the least-loaded process (§4's policy)
    /// according to the calling partition's own view. Ties break on slot
    /// order, which keeps placement deterministic.
    pub fn place_session(&self) -> Slot {
        let idx = self.with_view(|loads| {
            // Manual argmin rather than `min_by_key(..).expect(..)`: the
            // constructor guarantees ≥ 1 slot, and the serving tiers deny
            // clippy's `expect_used`.
            let mut idx = 0;
            for i in 1..loads.len() {
                if loads[i] < loads[idx] {
                    idx = i;
                }
            }
            if let Some(best) = loads.get_mut(idx) {
                *best += 1;
            }
            idx
        });
        self.slots.get(idx).copied().unwrap_or(Slot {
            machine: MachineId::new(0),
            process: ProcessId::new(0),
        })
    }

    /// Releases a slot when its session closes. Decrements the calling
    /// partition's view; a release from a different origin than the
    /// placement (e.g. a coordinator-driven ban) saturates at zero.
    pub fn release_session(&self, slot: Slot) {
        if let Some(idx) = self.slots.iter().position(|s| *s == slot) {
            self.with_view(|loads| {
                loads[idx] = loads[idx].saturating_sub(1);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Active sessions per slot in the calling partition's view.
    fn active(cluster: &Cluster) -> Vec<u64> {
        cluster.with_view(|loads| loads.clone())
    }

    #[test]
    fn placement_prefers_least_loaded() {
        let cluster = Cluster::new(ClusterConfig {
            machines: 2,
            processes_per_machine: 2,
        });
        // First four placements land on four distinct slots.
        let mut seen = std::collections::HashSet::new();
        let slots: Vec<Slot> = (0..4).map(|_| cluster.place_session()).collect();
        for s in &slots {
            assert!(seen.insert(*s));
        }
        // Fifth reuses some slot (all at load 1).
        let fifth = cluster.place_session();
        assert!(seen.contains(&fifth));
        // Release two sessions from slot[0]; next placement goes there.
        cluster.release_session(slots[0]);
        // slot[0] may or may not have hosted `fifth`; place and verify the
        // chosen slot has minimal load.
        let placed = cluster.place_session();
        let loads = active(&cluster);
        let placed_load = loads[cluster.slots.iter().position(|s| *s == placed).unwrap()];
        assert!(loads.iter().all(|l| l + 1 >= placed_load));
    }

    #[test]
    fn release_is_idempotent_at_zero() {
        let cluster = Cluster::new(ClusterConfig {
            machines: 1,
            processes_per_machine: 1,
        });
        let slot = cluster.place_session();
        cluster.release_session(slot);
        cluster.release_session(slot); // no underflow panic
        assert_eq!(active(&cluster), [0]);
    }

    #[test]
    fn origins_place_against_independent_views() {
        let cluster = Cluster::new(ClusterConfig {
            machines: 1,
            processes_per_machine: 4,
        });
        // Origin 0 (no ctx) fills two slots.
        let a = cluster.place_session();
        let b = cluster.place_session();
        assert_ne!(a, b);
        // A different origin starts from an empty view: its first placement
        // is slot 0 again, regardless of origin 0's load.
        let ctx = u1_core::PartitionCtx::new(7);
        let guard = u1_core::partition::install(ctx);
        let c = cluster.place_session();
        assert_eq!(c, a);
        assert_eq!(active(&cluster), [1, 0, 0, 0]);
        drop(guard);
        assert_eq!(active(&cluster), [1, 1, 0, 0]);
    }
}
