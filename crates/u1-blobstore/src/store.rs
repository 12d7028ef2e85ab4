//! The object store proper.

use crate::multipart::{MultipartError, MultipartUpload};
use crate::tier::Tier;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use u1_core::sync::RwLock;
use u1_core::{ContentHash, FaultInjector, FxHashMap, InstalledFaults, SimTime};

/// Metadata of a stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    pub hash: ContentHash,
    pub size: u64,
    /// The latest simulated instant of a store or GET. Concurrent driver
    /// partitions sit at different instants, so writers keep the later one
    /// rather than whichever ran last.
    pub last_access: SimTime,
    pub tier: Tier,
    /// Number of GETs served for this object.
    pub reads: u64,
}

/// A stored object: its [`ObjectMeta`] less the hash the map key already
/// holds (the public metadata is built on the way out), and its bytes.
#[derive(Debug)]
struct StoredObject {
    size: u64,
    last_access: SimTime,
    reads: u64,
    tier: Tier,
    /// Present in live mode (real bytes); `None` in measurement mode where
    /// only sizes matter. Either way `size` is authoritative.
    data: Option<Vec<u8>>,
}

impl StoredObject {
    fn meta(&self, hash: ContentHash) -> ObjectMeta {
        ObjectMeta {
            hash,
            size: self.size,
            last_access: self.last_access,
            tier: self.tier,
            reads: self.reads,
        }
    }
}

/// Aggregate counters, the raw material for storage-cost accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlobStoreStats {
    pub objects: u64,
    pub bytes_stored: u64,
    pub put_ops: u64,
    pub get_ops: u64,
    pub delete_ops: u64,
    pub bytes_uploaded: u64,
    pub bytes_downloaded: u64,
    pub multipart_initiated: u64,
    pub multipart_completed: u64,
    pub multipart_aborted: u64,
    /// Part-puts rejected by the fault injector (0 without a fault plan).
    pub part_put_failures: u64,
}

/// The S3 stand-in. Thread-safe; all methods take `&self`.
#[derive(Debug, Default)]
pub struct BlobStore {
    /// Keyed by SHA-1 digest / by the multipart ids minted below: Fx maps,
    /// never iterated where order could reach an output.
    objects: RwLock<FxHashMap<ContentHash, StoredObject>>,
    multiparts: RwLock<FxHashMap<u64, MultipartUpload>>,
    next_multipart: AtomicU64,
    /// Sum of `size` over `objects`, updated under the `objects` write
    /// lock by every insert and remove so `stats()` never walks the map.
    bytes_stored: AtomicU64,
    put_ops: AtomicU64,
    get_ops: AtomicU64,
    delete_ops: AtomicU64,
    bytes_uploaded: AtomicU64,
    bytes_downloaded: AtomicU64,
    mp_initiated: AtomicU64,
    mp_completed: AtomicU64,
    mp_aborted: AtomicU64,
    part_put_failures: AtomicU64,
    /// Fault-injection plane; `None` (the default) never fails a part-put.
    faults: InstalledFaults,
}

impl BlobStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the run's fault injector; part-puts then fail with the
    /// plan's `part_put_p` probability. Only the first call installs; it
    /// returns `false` and changes nothing once an injector is installed.
    pub fn set_faults(&self, injector: Arc<FaultInjector>) -> bool {
        self.faults.install(injector)
    }

    /// Whether an object with this content identity exists.
    pub fn contains(&self, hash: ContentHash) -> bool {
        self.objects.read().contains_key(&hash)
    }

    /// Direct PUT of a whole object (used for single-shot small uploads and
    /// for seeding test fixtures). Idempotent: re-putting the same content
    /// is a no-op, which is exactly how content-addressed storage behaves.
    pub fn put(&self, hash: ContentHash, size: u64, data: Option<Vec<u8>>, now: SimTime) {
        self.put_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_uploaded.fetch_add(size, Ordering::Relaxed);
        self.insert_if_absent(hash, size, data, now);
    }

    /// Brings back an object that a partition deleted on its own view of a
    /// refcount that survived the epoch, and stamps its access at `now`
    /// (the epoch's close) whether or not another partition's store put it
    /// back first: which of the two ran first is thread interleaving. Not
    /// client traffic, so the PUT and upload counters do not move.
    pub fn restore(&self, hash: ContentHash, size: u64, now: SimTime) {
        self.insert_if_absent(hash, size, None, now);
    }

    /// Stores the object unless its content identity is already present,
    /// and returns the stored object's metadata either way. Storing present
    /// content counts as an access at `now`.
    fn insert_if_absent(
        &self,
        hash: ContentHash,
        size: u64,
        data: Option<Vec<u8>>,
        now: SimTime,
    ) -> ObjectMeta {
        match self.objects.write().entry(hash) {
            Entry::Occupied(mut existing) => {
                let obj = existing.get_mut();
                obj.last_access = obj.last_access.max(now);
                obj.meta(hash)
            }
            Entry::Vacant(slot) => {
                self.bytes_stored.fetch_add(size, Ordering::Relaxed);
                slot.insert(StoredObject {
                    size,
                    last_access: now,
                    reads: 0,
                    tier: Tier::Hot,
                    data,
                })
                .meta(hash)
            }
        }
    }

    /// GET: returns metadata and (in live mode) bytes. Records the access
    /// for tiering. Cold-tier reads still succeed — tiering is a cost
    /// model, not an availability model.
    pub fn get(&self, hash: ContentHash, now: SimTime) -> Option<(ObjectMeta, Option<Vec<u8>>)> {
        self.get_ops.fetch_add(1, Ordering::Relaxed);
        let mut objects = self.objects.write();
        let obj = objects.get_mut(&hash)?;
        obj.last_access = obj.last_access.max(now);
        obj.reads += 1;
        obj.tier = Tier::Hot;
        self.bytes_downloaded.fetch_add(obj.size, Ordering::Relaxed);
        Some((obj.meta(hash), obj.data.clone()))
    }

    /// Peeks metadata without counting an access.
    pub fn head(&self, hash: ContentHash) -> Option<ObjectMeta> {
        self.objects.read().get(&hash).map(|o| o.meta(hash))
    }

    /// DELETE. Returns true if the object existed.
    pub fn delete(&self, hash: ContentHash) -> bool {
        self.delete_ops.fetch_add(1, Ordering::Relaxed);
        match self.objects.write().remove(&hash) {
            Some(obj) => {
                self.bytes_stored.fetch_sub(obj.size, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    // ----- multipart (Appendix A) ----------------------------------------

    /// Initiates a multipart upload and returns its id (the id the API
    /// server stores into the uploadjob via
    /// `dal.set_uploadjob_multipart_id`).
    pub fn initiate_multipart(&self, now: SimTime) -> u64 {
        self.mp_initiated.fetch_add(1, Ordering::Relaxed);
        let id = self.next_multipart.fetch_add(1, Ordering::Relaxed) + 1;
        self.multiparts
            .write()
            .insert(id, MultipartUpload::new(id, now));
        id
    }

    /// Uploads one part. With a fault injector installed, the put may fail
    /// transiently *before* the part is recorded — the multipart session
    /// stays valid and the caller resumes from the last successful part.
    pub fn upload_part(
        &self,
        multipart_id: u64,
        data_len: u64,
        data: Option<Vec<u8>>,
    ) -> Result<(), MultipartError> {
        if self.faults.fires(FaultInjector::part_put_fails) {
            self.part_put_failures.fetch_add(1, Ordering::Relaxed);
            u1_core::fault::set_error_class(Some(u1_core::fault::ErrorClass::PartPut));
            return Err(MultipartError::PartPutFailed);
        }
        let mut mps = self.multiparts.write();
        let mp = mps
            .get_mut(&multipart_id)
            .ok_or(MultipartError::UnknownUpload)?;
        mp.add_part(data_len, data)
    }

    /// Completes a multipart upload, materializing the object under `hash`.
    pub fn complete_multipart(
        &self,
        multipart_id: u64,
        hash: ContentHash,
        now: SimTime,
    ) -> Result<ObjectMeta, MultipartError> {
        // Checked and removed under one write lock: an empty upload is
        // refused where it stands, never taken out and put back.
        let mp = match self.multiparts.write().entry(multipart_id) {
            Entry::Vacant(_) => return Err(MultipartError::UnknownUpload),
            Entry::Occupied(mp) if mp.get().parts() == 0 => return Err(MultipartError::NoParts),
            Entry::Occupied(mp) => mp.remove(),
        };
        self.mp_completed.fetch_add(1, Ordering::Relaxed);
        let (size, data) = mp.into_object();
        self.bytes_uploaded.fetch_add(size, Ordering::Relaxed);
        self.put_ops.fetch_add(1, Ordering::Relaxed);
        Ok(self.insert_if_absent(hash, size, data, now))
    }

    /// Aborts a multipart upload, discarding its parts (driven by client
    /// cancellation or the weekly uploadjob GC).
    pub fn abort_multipart(&self, multipart_id: u64) -> Result<(), MultipartError> {
        self.multiparts
            .write()
            .remove(&multipart_id)
            .map(|_| {
                self.mp_aborted.fetch_add(1, Ordering::Relaxed);
            })
            .ok_or(MultipartError::UnknownUpload)
    }

    /// Parts received so far for an in-flight multipart upload.
    pub fn multipart_progress(&self, multipart_id: u64) -> Option<(usize, u64)> {
        self.multiparts
            .read()
            .get(&multipart_id)
            .map(|mp| (mp.parts(), mp.bytes()))
    }

    // ----- accounting ------------------------------------------------------

    pub fn stats(&self) -> BlobStoreStats {
        BlobStoreStats {
            objects: self.objects.read().len() as u64,
            bytes_stored: self.bytes_stored.load(Ordering::Relaxed),
            put_ops: self.put_ops.load(Ordering::Relaxed),
            get_ops: self.get_ops.load(Ordering::Relaxed),
            delete_ops: self.delete_ops.load(Ordering::Relaxed),
            bytes_uploaded: self.bytes_uploaded.load(Ordering::Relaxed),
            bytes_downloaded: self.bytes_downloaded.load(Ordering::Relaxed),
            multipart_initiated: self.mp_initiated.load(Ordering::Relaxed),
            multipart_completed: self.mp_completed.load(Ordering::Relaxed),
            multipart_aborted: self.mp_aborted.load(Ordering::Relaxed),
            part_put_failures: self.part_put_failures.load(Ordering::Relaxed),
        }
    }

    /// Applies `f` to every object's metadata (tier sweeps, reports), in no
    /// particular order, and keeps what it does to `last_access`, `tier`
    /// and `reads`. Changes to `hash` and `size` are dropped: `stats()`
    /// reports a counter, not a sum over the objects.
    pub fn for_each_meta_mut(&self, mut f: impl FnMut(&mut ObjectMeta)) {
        for (&hash, obj) in self.objects.write().iter_mut() {
            let mut meta = obj.meta(hash);
            f(&mut meta);
            obj.last_access = meta.last_access;
            obj.tier = meta.tier;
            obj.reads = meta.reads;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u64) -> ContentHash {
        ContentHash::from_content_id(i)
    }

    #[test]
    fn put_get_delete_round_trip() {
        let s = BlobStore::new();
        s.put(h(1), 100, Some(vec![7u8; 100]), SimTime::ZERO);
        assert!(s.contains(h(1)));
        let (meta, data) = s.get(h(1), SimTime::from_secs(5)).unwrap();
        assert_eq!(meta.size, 100);
        assert_eq!(meta.reads, 1);
        assert_eq!(data.unwrap().len(), 100);
        assert!(s.delete(h(1)));
        assert!(!s.delete(h(1)));
        assert!(s.get(h(1), SimTime::ZERO).is_none());
    }

    /// Two partitions at different simulated instants may GET or store the
    /// same object in either wall-clock order; the later instant wins both
    /// ways.
    #[test]
    fn accesses_keep_the_later_time() {
        let s = BlobStore::new();
        let last_access = || s.head(h(1)).unwrap().last_access;
        s.put(h(1), 100, None, SimTime::from_secs(3));
        s.get(h(1), SimTime::from_secs(10));
        s.get(h(1), SimTime::from_secs(5));
        assert_eq!(last_access(), SimTime::from_secs(10));
        s.put(h(1), 100, None, SimTime::ZERO);
        assert_eq!(last_access(), SimTime::from_secs(10));
        s.put(h(1), 100, None, SimTime::from_secs(12));
        assert_eq!(last_access(), SimTime::from_secs(12));
    }

    /// A restore at the epoch's close leaves the same object whether or not
    /// another partition's store brought it back first.
    #[test]
    fn restore_stamps_the_epoch_close_either_way() {
        let (raced, alone) = (BlobStore::new(), BlobStore::new());
        for s in [&raced, &alone] {
            s.put(h(1), 100, None, SimTime::ZERO);
            s.delete(h(1));
        }
        raced.put(h(1), 100, None, SimTime::from_secs(60));
        for s in [&raced, &alone] {
            s.restore(h(1), 100, SimTime::from_days(1));
        }
        assert_eq!(raced.head(h(1)), alone.head(h(1)));
        assert_eq!(alone.head(h(1)).unwrap().last_access, SimTime::from_days(1));
    }

    #[test]
    fn put_is_idempotent_per_content() {
        let s = BlobStore::new();
        s.put(h(1), 100, None, SimTime::ZERO);
        s.put(h(1), 100, None, SimTime::from_secs(1));
        let stats = s.stats();
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.bytes_stored, 100);
        // Both PUTs count as traffic though — the dedup *saving* comes from
        // not issuing the second PUT at all.
        assert_eq!(stats.bytes_uploaded, 200);
    }

    #[test]
    fn multipart_happy_path() {
        let s = BlobStore::new();
        let id = s.initiate_multipart(SimTime::ZERO);
        s.upload_part(id, 5 << 20, None).unwrap();
        s.upload_part(id, 5 << 20, None).unwrap();
        s.upload_part(id, 1 << 20, None).unwrap();
        let meta = s
            .complete_multipart(id, h(9), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(meta.size, 11 << 20);
        assert!(s.contains(h(9)));
        let stats = s.stats();
        assert_eq!(stats.multipart_initiated, 1);
        assert_eq!(stats.multipart_completed, 1);
        // Completed upload's id is gone.
        assert!(s.upload_part(id, 1, None).is_err());
    }

    #[test]
    fn multipart_abort_discards_parts() {
        let s = BlobStore::new();
        let id = s.initiate_multipart(SimTime::ZERO);
        s.upload_part(id, 1000, None).unwrap();
        assert_eq!(s.multipart_progress(id), Some((1, 1000)));
        s.abort_multipart(id).unwrap();
        assert_eq!(s.multipart_progress(id), None);
        assert!(s.abort_multipart(id).is_err());
        assert_eq!(s.stats().multipart_aborted, 1);
    }

    #[test]
    fn completing_empty_or_unknown_multipart_fails() {
        let s = BlobStore::new();
        assert_eq!(
            s.complete_multipart(404, h(1), SimTime::ZERO),
            Err(MultipartError::UnknownUpload)
        );
        let id = s.initiate_multipart(SimTime::ZERO);
        assert_eq!(
            s.complete_multipart(id, h(1), SimTime::ZERO),
            Err(MultipartError::NoParts)
        );
        // Still resumable after the failed complete.
        s.upload_part(id, 10, None).unwrap();
        assert!(s.complete_multipart(id, h(1), SimTime::ZERO).is_ok());
    }

    #[test]
    fn injected_part_put_failures_leave_upload_resumable() {
        use u1_core::FaultPlan;
        let s = BlobStore::new();
        let plan = FaultPlan {
            part_put_p: 0.5,
            ..FaultPlan::none()
        };
        s.set_faults(Arc::new(FaultInjector::new(plan, 3)));
        let id = s.initiate_multipart(SimTime::ZERO);
        let mut ok = 0u64;
        let mut failed = 0u64;
        for _ in 0..64 {
            match s.upload_part(id, 100, None) {
                Ok(()) => ok += 1,
                Err(MultipartError::PartPutFailed) => failed += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(ok > 0 && failed > 0, "ok={ok} failed={failed}");
        // Failed puts recorded nothing; the session stays resumable with
        // exactly the successful parts.
        assert_eq!(s.multipart_progress(id), Some((ok as usize, ok * 100)));
        assert_eq!(s.stats().part_put_failures, failed);
        assert!(s.complete_multipart(id, h(77), SimTime::ZERO).is_ok());
    }

    #[test]
    fn live_mode_multipart_carries_bytes() {
        let s = BlobStore::new();
        let id = s.initiate_multipart(SimTime::ZERO);
        s.upload_part(id, 3, Some(vec![1, 2, 3])).unwrap();
        s.upload_part(id, 2, Some(vec![4, 5])).unwrap();
        s.complete_multipart(id, h(2), SimTime::ZERO).unwrap();
        let (_, data) = s.get(h(2), SimTime::ZERO).unwrap();
        assert_eq!(data.unwrap(), vec![1, 2, 3, 4, 5]);
    }

    proptest::proptest! {
        /// `bytes_stored` is a counter now; after any sequence of puts,
        /// re-puts of stored content, deletes and multipart completions it
        /// must equal what `stats()` used to compute, the sum over objects.
        #[test]
        fn bytes_stored_counter_equals_the_sum_over_objects(
            steps in proptest::collection::vec((0u8..4, 0u64..12, 1u64..5_000), 0..200),
        ) {
            let s = BlobStore::new();
            for (kind, id, size) in steps {
                match kind {
                    0 | 1 => s.put(h(id), size, None, SimTime::ZERO),
                    2 => {
                        s.delete(h(id));
                    }
                    _ => {
                        let mp = s.initiate_multipart(SimTime::ZERO);
                        s.upload_part(mp, size, None).unwrap();
                        s.upload_part(mp, size / 2 + 1, None).unwrap();
                        s.complete_multipart(mp, h(id), SimTime::ZERO).unwrap();
                    }
                }
                let mut sum = 0;
                s.for_each_meta_mut(|meta| sum += meta.size);
                let stats = s.stats();
                assert_eq!(stats.bytes_stored, sum);
                assert_eq!(stats.objects, s.objects.read().len() as u64);
            }
        }
    }
}
