//! Concurrent stress test for the striped, epoch-visibility content index
//! (§3.3 file-level dedup).
//!
//! Eight threads — one per origin, mirroring the parallel driver's
//! shard-per-origin layout — hammer one `ContentIndex` with interleaved
//! upload (incref) and unlink (decref) cycles over a mix of shared and
//! thread-private hashes. Epochs end at a barrier where the main thread
//! seals the index, exactly like the driver's day boundary. The test keeps
//! an independent ledger (per-hash atomic expected refcounts, plus a model
//! of the blob store driven by the same remove-at-zero / seal-restore
//! protocol the real backend uses) and asserts after every seal:
//!
//! * **refcounts balance** — every hash's committed refcount equals the
//!   ledger (total increfs minus decrefs across all threads),
//! * **no double-free** — a hash is never reported dead while references
//!   remain, never dead and restored in the same seal, and a referenced
//!   hash always has its blob after the seal outcome is applied,
//! * **no leak** — once every thread has released its references, a final
//!   seal reports every surviving hash dead, all probes miss, the blob
//!   model is empty, and `fold_stats` is all-zero.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};
use u1_core::sync::Mutex;
use u1_core::{ContentHash, SimTime};
use u1_metastore::ContentIndex;

const THREADS: usize = 8;
const ROUNDS: usize = 6;
const OPS_PER_ROUND: usize = 2_000;
const SHARED_HASHES: usize = 48;
const PRIVATE_HASHES: usize = 16;
const UNIVERSE: usize = SHARED_HASHES + THREADS * PRIVATE_HASHES;

fn hash_of(id: usize) -> ContentHash {
    ContentHash::from_content_id(id as u64 + 1)
}

/// Sizes are a pure function of the hash, as in the real store.
fn size_of(id: usize) -> u64 {
    64 + id as u64 * 8
}

/// Verify the committed state against the ledger after a seal: refcounts
/// balance exactly and a blob exists iff references remain.
fn verify_sealed_view(
    idx: &ContentIndex,
    expected: &[AtomicI64],
    blobs: &Mutex<HashSet<ContentHash>>,
    round: usize,
) {
    // A copy: the index's stripe locks are leaves too, so none may be
    // taken while `blobs` is held.
    let blobs = blobs.lock().clone();
    for (id, want) in expected.iter().enumerate() {
        let want = want.load(Ordering::SeqCst);
        let got = idx.probe(hash_of(id), 0).map(|row| row.refcount as i64);
        match got {
            Some(refcount) => {
                assert_eq!(
                    refcount, want,
                    "round {round}: hash {id} refcount out of balance"
                );
                assert!(
                    blobs.contains(&hash_of(id)),
                    "round {round}: hash {id} still referenced but its blob is gone"
                );
            }
            None => {
                assert_eq!(want, 0, "round {round}: hash {id} leaked from the index");
                assert!(
                    !blobs.contains(&hash_of(id)),
                    "round {round}: hash {id} dead but its blob leaked"
                );
            }
        }
    }
}

#[test]
fn concurrent_upload_unlink_stress_keeps_refcounts_balanced() {
    let idx = Arc::new(ContentIndex::new());
    let expected: Arc<Vec<AtomicI64>> =
        Arc::new((0..UNIVERSE).map(|_| AtomicI64::new(0)).collect());
    let blobs: Arc<Mutex<HashSet<ContentHash>>> = Arc::new(Mutex::new(HashSet::new()));
    // Two waits per round: mutators quiesce, then the main thread seals and
    // verifies before releasing everyone into the next epoch.
    let barrier = Arc::new(Barrier::new(THREADS + 1));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let idx = Arc::clone(&idx);
            let expected = Arc::clone(&expected);
            let blobs = Arc::clone(&blobs);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let origin = t as u32;
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE + t as u64);
                // Refs this thread currently holds, per hash id. Threads
                // only ever release their own references, so per-hash
                // totals never go negative.
                let mut held = vec![0u64; UNIVERSE];
                for round in 0..ROUNDS {
                    for _ in 0..OPS_PER_ROUND {
                        let id = if rng.gen_range(0.0..1.0) < 0.7 {
                            rng.gen_range(0..SHARED_HASHES)
                        } else {
                            SHARED_HASHES + t * PRIVATE_HASHES + rng.gen_range(0..PRIVATE_HASHES)
                        };
                        let h = hash_of(id);
                        if held[id] == 0 || rng.gen_range(0.0..1.0) < 0.55 {
                            // Upload: put the blob on a dedup miss, then
                            // take a reference — the store's commit path.
                            if idx.probe(h, origin).is_none() {
                                blobs.lock().insert(h);
                            }
                            idx.incref(h, size_of(id), SimTime::from_secs(round as u64), origin);
                            held[id] += 1;
                            expected[id].fetch_add(1, Ordering::SeqCst);
                        } else {
                            // Unlink: drop a reference, delete the blob
                            // when this origin's view hits zero.
                            if idx.decref(h, origin) {
                                blobs.lock().remove(&h);
                            }
                            held[id] -= 1;
                            expected[id].fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    barrier.wait(); // epoch over, main thread seals
                    barrier.wait(); // sealed + verified, next epoch
                }
                // Drain: release everything this thread still holds, so
                // the final seal must account for every last reference.
                for (id, refs) in held.into_iter().enumerate() {
                    let h = hash_of(id);
                    for _ in 0..refs {
                        if idx.decref(h, origin) {
                            blobs.lock().remove(&h);
                        }
                        expected[id].fetch_sub(1, Ordering::SeqCst);
                    }
                }
                barrier.wait(); // drain over, final seal
                barrier.wait();
            });
        }

        for round in 0..ROUNDS {
            barrier.wait(); // mutators quiesced
            let outcome = idx.seal();
            let dead: HashSet<ContentHash> = outcome.dead.iter().copied().collect();
            for (h, _size) in &outcome.live {
                assert!(
                    !dead.contains(h),
                    "round {round}: hash both dead and restored in one seal"
                );
            }
            // Apply the seal outcome to the blob model the way the real
            // backend does: dead blobs go (idempotently), mid-epoch
            // view-local deletions of surviving hashes are restored.
            {
                let mut blobs = blobs.lock();
                for h in &outcome.dead {
                    blobs.remove(h);
                }
                for (h, _size) in &outcome.live {
                    blobs.insert(*h);
                }
            }
            verify_sealed_view(&idx, &expected, &blobs, round);
            barrier.wait(); // release mutators into the next epoch
        }

        barrier.wait(); // drain round quiesced
        let outcome = idx.seal();
        {
            let mut blobs = blobs.lock();
            for h in &outcome.dead {
                blobs.remove(h);
            }
            for (h, _size) in &outcome.live {
                blobs.insert(*h);
            }
        }
        for (id, want) in expected.iter().enumerate() {
            assert_eq!(want.load(Ordering::SeqCst), 0, "ledger must drain to zero");
            assert!(
                idx.probe(hash_of(id), 0).is_none(),
                "hash {id} leaked: refs remain after every thread released"
            );
        }
        assert!(
            blobs.lock().is_empty(),
            "blob model must be empty after the final seal"
        );
        assert_eq!(
            idx.fold_stats(),
            (0, 0, 0),
            "fold_stats must report an empty index"
        );
        barrier.wait();
    });
}
