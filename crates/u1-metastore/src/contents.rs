//! The striped, epoch-visibility cross-user content index (file-level
//! dedup, §3.3/§5.3).
//!
//! Every commit and unlink of every shard lands here, so the index has to
//! solve both the *contention* and the *determinism* problem of running
//! partitions in parallel:
//!
//! * **Striping** — rows are spread over [`STRIPES`] independent locks by
//!   hash byte, so concurrent commits rarely collide.
//! * **Epoch visibility** — mutations made while partitions run
//!   concurrently are buffered as per-`(hash, origin)` deltas. An origin
//!   observes the committed state plus *its own* deltas only; other
//!   origins' same-epoch activity stays invisible until [`ContentIndex::seal`]
//!   folds the deltas at a synchronization barrier (the driver's day
//!   boundary). Visibility therefore depends only on (origin, epoch), never
//!   on thread interleaving — the same seed gives the same dedup decisions
//!   at any worker count.
//!
//! With a single origin (every unit test, live TCP mode) the origin sees
//! all of its own deltas immediately: visibility is immediate.

use crate::model::ContentRow;
use std::collections::hash_map::Entry;
use u1_core::sync::Mutex;
use u1_core::{ContentHash, FxHashMap, SimTime};

/// Number of index stripes. Power of two, comfortably above any plausible
/// worker count so stripe collisions stay rare.
pub const STRIPES: usize = 64;

/// Buffered same-epoch activity of one origin on one hash.
#[derive(Debug, Clone, Copy)]
struct Delta {
    /// Net refcount change (increfs minus decrefs) this epoch.
    delta: i64,
    /// Size recorded at this origin's first incref (sizes are a pure
    /// function of the hash in this model, so any origin's value agrees).
    size: u64,
    /// Time of this origin's first incref this epoch.
    first_seen: SimTime,
    /// The origin's *view* of the refcount hit zero at some point this
    /// epoch — the caller then deleted the blob, so if the hash survives
    /// the fold the blob must be restored.
    view_zeroed: bool,
}

/// Both maps are keyed by SHA-1 digests (already uniform) and probed on
/// every upload, unlink and download, so they use the Fx hasher; neither is
/// iterated anywhere order could reach an output (`seal` sorts what it
/// drains, `fold_stats` only sums).
#[derive(Debug, Default)]
struct Stripe {
    /// Rows visible to every origin (folded at the last seal).
    committed: FxHashMap<ContentHash, ContentRow>,
    /// Same-epoch deltas, visible only to their origin.
    pending: FxHashMap<(ContentHash, u32), Delta>,
}

/// What a [`ContentIndex::seal`] fold decided about the object store.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SealOutcome {
    /// Hashes whose folded refcount is zero: delete from the object store
    /// (idempotent — an origin may already have deleted them mid-epoch).
    pub dead: Vec<ContentHash>,
    /// `(hash, size)` pairs that survived the fold but whose blob an
    /// origin deleted mid-epoch on a view-local zero: restore them.
    pub live: Vec<(ContentHash, u64)>,
}

/// The striped content index.
#[derive(Debug)]
pub struct ContentIndex {
    stripes: Vec<Mutex<Stripe>>,
}

impl Default for ContentIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentIndex {
    pub fn new() -> Self {
        Self {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
        }
    }

    fn stripe(&self, hash: ContentHash) -> &Mutex<Stripe> {
        &self.stripes[hash.0[0] as usize % STRIPES]
    }

    /// Adds one reference from `origin`.
    pub fn incref(&self, hash: ContentHash, size: u64, now: SimTime, origin: u32) {
        let mut stripe = self.stripe(hash).lock();
        let entry = stripe.pending.entry((hash, origin)).or_insert(Delta {
            delta: 0,
            size,
            first_seen: now,
            view_zeroed: false,
        });
        entry.delta += 1;
    }

    /// Undoes one same-epoch incref (same content re-attached to the same
    /// node: the commit double-counted and takes the count back).
    pub fn undo_incref(&self, hash: ContentHash, origin: u32) {
        let mut stripe = self.stripe(hash).lock();
        if let Some(entry) = stripe.pending.get_mut(&(hash, origin)) {
            entry.delta -= 1;
        }
    }

    /// Drops one reference from `origin`. Returns `true` when the origin's
    /// view of the refcount reached zero — the caller deletes the blob.
    pub fn decref(&self, hash: ContentHash, origin: u32) -> bool {
        let mut guard = self.stripe(hash).lock();
        let stripe = &mut *guard;
        let committed = stripe
            .committed
            .get(&hash)
            .map_or(0, |row| row.refcount as i64);
        let entry = stripe.pending.entry((hash, origin)).or_insert(Delta {
            delta: 0,
            size: 0,
            first_seen: SimTime::ZERO,
            view_zeroed: false,
        });
        entry.delta -= 1;
        // Exactly zero: the last visible reference went away right now. A
        // negative view means an unbalanced release (decref of an
        // untracked hash is a no-op).
        let zeroed = committed + entry.delta == 0;
        if zeroed {
            entry.view_zeroed = true;
        }
        zeroed
    }

    /// The dedup probe: the row as seen by `origin` — committed state plus
    /// the origin's own delta — if that view holds at least one reference.
    pub fn probe(&self, hash: ContentHash, origin: u32) -> Option<ContentRow> {
        let stripe = self.stripe(hash).lock();
        let committed = stripe.committed.get(&hash);
        let own = stripe.pending.get(&(hash, origin));
        let refcount = committed.map_or(0, |row| row.refcount as i64) + own.map_or(0, |d| d.delta);
        if refcount <= 0 {
            return None;
        }
        let (size, first_seen) = match (committed, own) {
            (Some(row), _) => (row.size, row.first_seen),
            (None, Some(d)) => (d.size, d.first_seen),
            (None, None) => return None,
        };
        Some(ContentRow {
            hash,
            size,
            refcount: refcount as u64,
            first_seen,
        })
    }

    /// Folds every pending delta into the committed state. Called at a
    /// synchronization barrier (no concurrent mutators). The fold is
    /// deterministic: per hash it combines origins by commutative
    /// aggregates (sum of deltas, min of first-seen), so the outcome is
    /// independent of both worker count and arrival order.
    pub fn seal(&self) -> SealOutcome {
        let mut out = SealOutcome::default();
        // One buffer reused across stripes: a stripe's deltas are drained
        // into it, sorted by hash, and each run of equal hashes folded.
        let mut deltas: Vec<(ContentHash, Delta)> = Vec::new();
        for stripe in &self.stripes {
            let mut stripe = stripe.lock();
            deltas.clear();
            deltas.extend(
                stripe
                    .pending
                    .drain()
                    .map(|((hash, _origin), delta)| (hash, delta)),
            );
            deltas.sort_unstable_by_key(|&(hash, _)| hash);
            let mut rest = deltas.as_slice();
            while let Some(&(hash, _)) = rest.first() {
                let len = rest.iter().take_while(|(h, _)| *h == hash).count();
                let (run, tail) = rest.split_at(len);
                rest = tail;
                let total: i64 = run.iter().map(|(_, d)| d.delta).sum();
                let zeroed = run.iter().any(|(_, d)| d.view_zeroed);
                match stripe.committed.entry(hash) {
                    Entry::Occupied(mut row) => {
                        let refcount = row.get().refcount.saturating_add_signed(total);
                        if refcount == 0 {
                            row.remove();
                            out.dead.push(hash);
                        } else {
                            row.get_mut().refcount = refcount;
                            if zeroed {
                                out.live.push((hash, row.get().size));
                            }
                        }
                    }
                    Entry::Vacant(slot) => {
                        let refcount = total.max(0) as u64;
                        if refcount == 0 {
                            out.dead.push(hash);
                            continue;
                        }
                        let increfed = run
                            .iter()
                            .map(|(_, d)| d)
                            .filter(|d| d.delta > 0 || d.size > 0);
                        let size = increfed.clone().map(|d| d.size).max().unwrap_or(0);
                        let first_seen = increfed
                            .map(|d| d.first_seen)
                            .min()
                            .unwrap_or(SimTime::ZERO);
                        if zeroed {
                            out.live.push((hash, size));
                        }
                        slot.insert(ContentRow {
                            hash,
                            size,
                            refcount,
                            first_seen,
                        });
                    }
                }
            }
        }
        out.dead.sort();
        out.live.sort();
        out
    }

    /// Global-view aggregate over committed rows plus all pending deltas:
    /// `(distinct_contents, unique_bytes, total_bytes)`. Single-origin
    /// callers get exact numbers; mid-epoch multi-origin callers get the
    /// state a seal would commit.
    pub fn fold_stats(&self) -> (usize, u64, u64) {
        let mut count = 0usize;
        let mut unique = 0u64;
        let mut total = 0u64;
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            let mut folded: FxHashMap<ContentHash, (u64, i64)> = stripe
                .committed
                .iter()
                .map(|(h, r)| (*h, (r.size, r.refcount as i64)))
                .collect();
            for ((hash, _origin), delta) in &stripe.pending {
                let entry = folded.entry(*hash).or_insert((delta.size, 0));
                entry.1 += delta.delta;
                if entry.0 == 0 {
                    entry.0 = delta.size;
                }
            }
            for (size, refcount) in folded.values() {
                if *refcount > 0 {
                    count += 1;
                    unique += size;
                    total += size * (*refcount as u64);
                }
            }
        }
        (count, unique, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u64) -> ContentHash {
        ContentHash::from_content_id(n)
    }

    #[test]
    fn single_origin_sees_its_own_writes_immediately() {
        let idx = ContentIndex::new();
        assert!(idx.probe(h(1), 0).is_none());
        idx.incref(h(1), 100, SimTime::ZERO, 0);
        let row = idx.probe(h(1), 0).unwrap();
        assert_eq!(row.refcount, 1);
        assert_eq!(row.size, 100);
        assert!(idx.decref(h(1), 0), "last ref released");
        assert!(idx.probe(h(1), 0).is_none());
    }

    #[test]
    fn cross_origin_writes_are_invisible_until_seal() {
        let idx = ContentIndex::new();
        idx.incref(h(1), 100, SimTime::ZERO, 0);
        assert!(idx.probe(h(1), 1).is_none(), "other origin blind pre-seal");
        let outcome = idx.seal();
        assert!(outcome.dead.is_empty());
        assert!(outcome.live.is_empty());
        assert_eq!(idx.probe(h(1), 1).unwrap().refcount, 1);
    }

    #[test]
    fn seal_reports_dead_and_restored_hashes() {
        let idx = ContentIndex::new();
        idx.incref(h(1), 50, SimTime::ZERO, 0);
        idx.seal();
        // Origin 0 drops the only committed ref (and would delete the
        // blob), while origin 1 gains one in the same epoch.
        assert!(idx.decref(h(1), 0));
        idx.incref(h(1), 50, SimTime::from_secs(2), 1);
        let outcome = idx.seal();
        assert!(outcome.dead.is_empty());
        assert_eq!(outcome.live, vec![(h(1), 50)], "blob must be restored");
        assert_eq!(idx.probe(h(1), 0).unwrap().refcount, 1);
        // Now the last ref goes away for real.
        assert!(idx.decref(h(1), 1));
        let outcome = idx.seal();
        assert_eq!(outcome.dead, vec![h(1)]);
        assert!(idx.probe(h(1), 1).is_none());
    }

    #[test]
    fn fold_stats_match_a_sealed_view() {
        let idx = ContentIndex::new();
        idx.incref(h(1), 100, SimTime::ZERO, 0);
        idx.incref(h(1), 100, SimTime::ZERO, 1);
        idx.incref(h(2), 30, SimTime::ZERO, 2);
        let (count, unique, total) = idx.fold_stats();
        assert_eq!((count, unique, total), (2, 130, 230));
        idx.seal();
        assert_eq!(idx.fold_stats(), (2, 130, 230));
    }

    #[test]
    fn first_seen_folds_to_the_earliest_origin() {
        let idx = ContentIndex::new();
        idx.incref(h(9), 10, SimTime::from_secs(20), 3);
        idx.incref(h(9), 10, SimTime::from_secs(5), 7);
        idx.seal();
        assert_eq!(
            idx.probe(h(9), 0).unwrap().first_seen,
            SimTime::from_secs(5)
        );
    }

    /// The fold `seal` used before it sorted one vector: group the drained
    /// deltas per hash through a `BTreeMap<[u8; 20], Vec<Delta>>`. Kept as
    /// the oracle the sort-and-fold-runs implementation is checked against.
    fn oracle_seal(idx: &ContentIndex) -> SealOutcome {
        use std::collections::BTreeMap;
        let mut out = SealOutcome::default();
        for stripe in &idx.stripes {
            let mut stripe = stripe.lock();
            let mut by_hash: BTreeMap<[u8; 20], Vec<Delta>> = BTreeMap::new();
            for ((hash, _origin), delta) in stripe.pending.drain() {
                by_hash.entry(hash.0).or_default().push(delta);
            }
            for (hash_bytes, deltas) in by_hash {
                let hash = ContentHash(hash_bytes);
                let total: i64 = deltas.iter().map(|d| d.delta).sum();
                let zeroed = deltas.iter().any(|d| d.view_zeroed);
                let increfed = deltas.iter().filter(|d| d.delta > 0 || d.size > 0);
                let size = increfed.clone().map(|d| d.size).max().unwrap_or(0);
                let first_seen = increfed
                    .map(|d| d.first_seen)
                    .min()
                    .unwrap_or(SimTime::ZERO);
                let folded = match stripe.committed.get(&hash) {
                    Some(row) => ContentRow {
                        refcount: row.refcount.saturating_add_signed(total),
                        ..row.clone()
                    },
                    None => ContentRow {
                        hash,
                        size,
                        refcount: total.max(0) as u64,
                        first_seen,
                    },
                };
                if folded.refcount == 0 {
                    stripe.committed.remove(&hash);
                    out.dead.push(hash);
                } else {
                    if zeroed {
                        out.live.push((hash, folded.size));
                    }
                    stripe.committed.insert(hash, folded);
                }
            }
        }
        out.dead.sort();
        out.live.sort();
        out
    }

    /// One step of a generated history: `(kind, content id, origin, time)`.
    fn apply(idx: &ContentIndex, (kind, id, origin, t): (u8, u64, u32, u64)) {
        match kind {
            0..=3 => idx.incref(h(id), 100 + id, SimTime::from_secs(t), origin),
            4..=6 => {
                idx.decref(h(id), origin);
            }
            _ => idx.undo_incref(h(id), origin),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random incref / decref / undo histories over a small hash pool
        /// and four origins, sealed after every epoch: the outcome and the
        /// committed state must match the old per-hash-`Vec` fold's.
        #[test]
        fn seal_matches_the_grouping_fold(
            epochs in proptest::collection::vec(
                proptest::collection::vec((0u8..8, 0u64..24, 0u32..4, 0u64..1000), 0..120),
                1..6,
            ),
        ) {
            let new = ContentIndex::new();
            let old = ContentIndex::new();
            for epoch in epochs {
                for step in epoch {
                    apply(&new, step);
                    apply(&old, step);
                }
                assert_eq!(new.seal(), oracle_seal(&old));
                for id in 0..24 {
                    assert_eq!(new.probe(h(id), 0), old.probe(h(id), 0), "content {id}");
                }
                assert_eq!(new.fold_stats(), old.fold_stats());
            }
        }
    }
}
