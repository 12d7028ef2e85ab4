//! Warm/cold storage tiering — the §9 improvement the paper suggests:
//! "U1 may benefit from cold/warm storage services (e.g., Amazon Glacier,
//! f4) to limit the costs related to most inactive users", grounded in the
//! §5.2 observation that ~9% of files sat unused for more than a day before
//! deletion.
//!
//! The model is a cost model, not an availability model: objects demote to
//! Warm and then Cold as they go unaccessed, each tier with its own $/GB
//! rate, and any GET promotes back to Hot. The ablation bench compares the
//! monthly storage bill with and without tiering.

use crate::store::BlobStore;
use u1_core::{SimDuration, SimTime};

/// Storage temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    Hot,
    Warm,
    Cold,
}

/// Unaccessed for this long ⇒ demote Hot → Warm.
const WARM_AFTER: SimDuration = SimDuration::from_days(7);
/// Unaccessed for this long ⇒ demote Warm → Cold.
const COLD_AFTER: SimDuration = SimDuration::from_days(21);
// $/GB/month per tier, approximating 2014 S3 standard vs
// reduced-redundancy vs Glacier pricing.
const HOT_PRICE: f64 = 0.030;
const WARM_PRICE: f64 = 0.024;
const COLD_PRICE: f64 = 0.010;

/// Outcome of one tier sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierSweepReport {
    pub hot_objects: u64,
    pub warm_objects: u64,
    pub cold_objects: u64,
    pub hot_bytes: u64,
    pub warm_bytes: u64,
    pub cold_bytes: u64,
    pub demoted_to_warm: u64,
    pub demoted_to_cold: u64,
}

impl TierSweepReport {
    /// Monthly storage bill.
    pub fn monthly_cost(&self) -> f64 {
        const GB: f64 = 1_000_000_000.0;
        self.hot_bytes as f64 / GB * HOT_PRICE
            + self.warm_bytes as f64 / GB * WARM_PRICE
            + self.cold_bytes as f64 / GB * COLD_PRICE
    }

    /// The bill if everything stayed Hot — the no-tiering baseline.
    pub fn monthly_cost_flat(&self) -> f64 {
        const GB: f64 = 1_000_000_000.0;
        (self.hot_bytes + self.warm_bytes + self.cold_bytes) as f64 / GB * HOT_PRICE
    }
}

/// Runs one demotion sweep over the store.
pub fn tier_sweep(store: &BlobStore, now: SimTime) -> TierSweepReport {
    let mut report = TierSweepReport::default();
    store.for_each_meta_mut(|meta| {
        let idle = now.since(meta.last_access);
        let new_tier = if idle > COLD_AFTER {
            Tier::Cold
        } else if idle > WARM_AFTER {
            Tier::Warm
        } else {
            meta.tier
        };
        if new_tier > meta.tier {
            match new_tier {
                Tier::Warm => report.demoted_to_warm += 1,
                Tier::Cold => report.demoted_to_cold += 1,
                Tier::Hot => {}
            }
            meta.tier = new_tier;
        }
        match meta.tier {
            Tier::Hot => {
                report.hot_objects += 1;
                report.hot_bytes += meta.size;
            }
            Tier::Warm => {
                report.warm_objects += 1;
                report.warm_bytes += meta.size;
            }
            Tier::Cold => {
                report.cold_objects += 1;
                report.cold_bytes += meta.size;
            }
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use u1_core::ContentHash;

    fn h(i: u64) -> ContentHash {
        ContentHash::from_content_id(i)
    }

    #[test]
    fn objects_demote_with_idleness_and_promote_on_access() {
        let store = BlobStore::new();
        store.put(h(1), 1_000, None, SimTime::ZERO);
        store.put(h(2), 2_000, None, SimTime::ZERO);

        // Day 10: both idle > 7d ⇒ warm.
        let report = tier_sweep(&store, SimTime::from_days(10));
        assert_eq!(report.warm_objects, 2);
        assert_eq!(report.demoted_to_warm, 2);

        // Access object 1 at day 20; sweep at day 25: 1 is hot again
        // (accessed 5d ago), 2 idle 25d ⇒ cold.
        store.get(h(1), SimTime::from_days(20));
        let report = tier_sweep(&store, SimTime::from_days(25));
        assert_eq!(report.hot_objects, 1);
        assert_eq!(report.cold_objects, 1);
        assert_eq!(report.hot_bytes, 1_000);
        assert_eq!(report.cold_bytes, 2_000);
    }

    #[test]
    fn tiering_reduces_the_bill() {
        let store = BlobStore::new();
        for i in 0..100 {
            store.put(h(i), 1_000_000_000, None, SimTime::ZERO); // 1GB each
        }
        let report = tier_sweep(&store, SimTime::from_days(30));
        assert_eq!(report.cold_objects, 100);
        let tiered = report.monthly_cost();
        let flat = report.monthly_cost_flat();
        assert!(
            tiered < flat * 0.5,
            "cold storage should cut cost: {tiered} vs {flat}"
        );
    }

    #[test]
    fn fresh_objects_stay_hot() {
        let store = BlobStore::new();
        store.put(h(1), 10, None, SimTime::from_days(29));
        let report = tier_sweep(&store, SimTime::from_days(30));
        assert_eq!(report.hot_objects, 1);
        assert_eq!(report.demoted_to_warm, 0);
    }
}
