//! The metadata store cluster: shard routing, the cross-user content index
//! (file-level dedup), shares, and id allocation.
//!
//! Locking discipline — the store is built so that the common path touches
//! exactly one shard lock plus at most one *stripe* of a global table, and
//! no two locks of the same kind are ever held together:
//!
//! * **Shard locks** (`RwLock<Shard>`): at most one is held at a time,
//!   except `list_shares`/`create_share`, which take the recipient's and
//!   then the owner's shard *sequentially* (reads only, never nested).
//! * **`volume_owner`** is striped by volume id: `authorize()` — on the
//!   path of every request — read-locks a single stripe and releases it
//!   before any shard lock is taken.
//! * **`contents`** is a [`ContentIndex`]: striped by hash byte with
//!   per-origin epoch visibility, so commits and unlinks from different
//!   partitions neither contend nor observe each other mid-epoch (see the
//!   module docs of [`crate::contents`]). Stripe locks are leaf locks:
//!   nothing else is acquired while one is held.
//! * **`shares`** stays one table under a single `RwLock` — share grants
//!   are rare (1.8% of users, §6.3), written only during setup-time
//!   `create_share`/`delete_volume`, and read-mostly thereafter. The lock
//!   is always taken *after* any shard/stripe lock has been dropped, never
//!   while holding one.
//!
//! Id allocation is per-shard and strided (shard `s` of `S` hands out
//! `s+1, s+1+S, s+1+2S, …`), so concurrent partitions draw disjoint,
//! interleaving-independent id sequences — the paper's "effectively
//! lockless" user-per-shard model, taken at its word.

use crate::contents::{ContentIndex, SealOutcome};
use crate::model::{ContentRow, ShareRow, UploadJobRow, UserRow, VolumeRow};
use crate::shard::{DeadNode, Shard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use u1_core::sync::RwLock;
use u1_core::{
    ContentHash, CoreError, CoreResult, ErrorClass, FaultInjector, FxHashMap, InstalledFaults,
    NodeId, NodeKind, ShardId, SimDuration, SimTime, UploadId, UserId, VolumeId,
};

/// Stripe count for the `volume_owner` routing map.
const OWNER_STRIPES: usize = 64;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shards; production U1 ran 10 (§3.4).
    pub shards: u16,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { shards: 10 }
    }
}

/// Upload jobs untouched for this long are garbage collected (Appendix A:
/// one week).
const UPLOADJOB_MAX_AGE: SimDuration = SimDuration::from_days(7);

/// Result of an operation that may release content references.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Released {
    /// Nodes that died.
    pub dead: Vec<DeadNode>,
    /// Content hashes whose refcount dropped to zero — the caller must
    /// delete these from the object store ("the API server finishes by
    /// deleting the file also from Amazon S3", §3.2).
    pub unreferenced: Vec<ContentHash>,
}

/// Per-shard strided id allocator: shard `s` draws `s+1, s+1+S, s+1+2S, …`
/// so the sequences of different shards are disjoint and independent of
/// cross-shard interleaving.
#[derive(Debug)]
struct StridedAlloc {
    counters: Vec<AtomicU64>,
    stride: u64,
}

impl StridedAlloc {
    fn new(shards: u16) -> Self {
        Self {
            counters: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            stride: shards as u64,
        }
    }

    fn next(&self, shard: ShardId) -> u64 {
        let slot = shard.raw() as usize % self.counters.len();
        let k = self.counters[slot].fetch_add(1, Ordering::Relaxed);
        1 + slot as u64 + k * self.stride
    }
}

/// The sharded metadata store.
pub struct MetaStore {
    config: StoreConfig,
    shards: Vec<RwLock<Shard>>,
    /// Global routing index: volume → owner, striped by volume id. Needed
    /// because requests name volumes, while sharding is by user.
    volume_owner: Vec<RwLock<FxHashMap<VolumeId, UserId>>>,
    /// Cross-user content index (dedup), striped with epoch visibility.
    contents: ContentIndex,
    /// Share grants, indexed both ways.
    shares: RwLock<ShareTable>,
    next_volume: StridedAlloc,
    next_node: StridedAlloc,
    next_upload: StridedAlloc,
    /// Fault-injection plane; `None` (the default) means every shard is
    /// always up.
    faults: InstalledFaults,
}

#[derive(Debug, Default)]
struct ShareTable {
    by_recipient: FxHashMap<UserId, Vec<ShareRow>>,
    by_volume: FxHashMap<VolumeId, Vec<ShareRow>>,
}

impl MetaStore {
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        let shards = (0..config.shards)
            .map(|i| RwLock::new(Shard::new(ShardId::new(i))))
            .collect();
        Self {
            shards,
            volume_owner: (0..OWNER_STRIPES)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            contents: ContentIndex::new(),
            shares: RwLock::new(ShareTable::default()),
            next_volume: StridedAlloc::new(config.shards),
            next_node: StridedAlloc::new(config.shards),
            next_upload: StridedAlloc::new(config.shards),
            faults: InstalledFaults::default(),
            config,
        }
    }

    /// Installs the run's fault injector; requests routed to a shard inside
    /// one of its unavailability windows then fail with
    /// [`CoreError::unavailable`] (App. A: the metadata cluster degrades
    /// per-shard, not as a whole). Only the first call installs; it
    /// returns `false` and changes nothing once an injector is installed.
    pub fn set_faults(&self, injector: Arc<FaultInjector>) -> bool {
        self.faults.install(injector)
    }

    /// Fails if `user`'s shard is inside an unavailability window at the
    /// caller's current virtual time. Checked at the request-routing choke
    /// points, mirroring where U1 routes "operations by user identifier to
    /// the appropriate shard".
    fn check_shard_up(&self, user: UserId) -> CoreResult<()> {
        let down = self.faults.fires(|faults| {
            let now = u1_core::partition::current_time().unwrap_or(SimTime::ZERO);
            faults.shard_down(self.shard_of(user).raw() as u64, now)
        });
        if down {
            u1_core::fault::set_error_class(Some(ErrorClass::ShardUnavailable));
            return Err(CoreError::unavailable(format!(
                "{} unavailable",
                self.shard_of(user)
            )));
        }
        Ok(())
    }

    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Routes a user to their shard, as U1 does: "the system routes
    /// operations by user identifier to the appropriate shard".
    pub fn shard_of(&self, user: UserId) -> ShardId {
        ShardId::new((user.raw() % self.config.shards as u64) as u16)
    }

    pub fn num_shards(&self) -> u16 {
        self.config.shards
    }

    fn shard(&self, user: UserId) -> &RwLock<Shard> {
        &self.shards[self.shard_of(user).raw() as usize]
    }

    fn alloc_volume(&self, owner: UserId) -> VolumeId {
        VolumeId::new(self.next_volume.next(self.shard_of(owner)))
    }

    fn alloc_node(&self, owner: UserId) -> NodeId {
        NodeId::new(self.next_node.next(self.shard_of(owner)))
    }

    fn alloc_upload(&self, owner: UserId) -> UploadId {
        UploadId::new(self.next_upload.next(self.shard_of(owner)))
    }

    fn owner_stripe(&self, volume: VolumeId) -> &RwLock<FxHashMap<VolumeId, UserId>> {
        &self.volume_owner[volume.raw() as usize % OWNER_STRIPES]
    }

    /// Resolves the owner of `volume` and checks `actor` may touch it:
    /// either as the owner or through a share grant. Returns the owner,
    /// whose shard hosts the volume's rows.
    fn authorize(&self, actor: UserId, volume: VolumeId) -> CoreResult<UserId> {
        let owner = *self
            .owner_stripe(volume)
            .read()
            .get(&volume)
            .ok_or_else(|| CoreError::not_found(format!("volume {volume}")))?;
        // The volume's rows live on the owner's shard; fail here if that
        // shard is inside an unavailability window (the routing tier is a
        // separate, always-up index).
        self.check_shard_up(owner)?;
        if owner == actor {
            return Ok(owner);
        }
        let shares = self.shares.read();
        let granted = shares
            .by_volume
            .get(&volume)
            .is_some_and(|rows| rows.iter().any(|s| s.shared_to == actor));
        if granted {
            Ok(owner)
        } else {
            Err(CoreError::permission_denied(format!(
                "{actor} has no access to {volume}"
            )))
        }
    }

    // ----- users & volumes ----------------------------------------------

    /// Registers a user (first connection), creating their root volume.
    pub fn create_user(&self, user: UserId, now: SimTime) -> CoreResult<UserRow> {
        self.check_shard_up(user)?;
        let root = self.alloc_volume(user);
        let row = self.shard(user).write().create_user(user, root, now)?;
        self.owner_stripe(root).write().insert(root, user);
        Ok(row)
    }

    /// `dal.get_user_data`.
    pub fn get_user_data(&self, user: UserId) -> CoreResult<UserRow> {
        self.check_shard_up(user)?;
        self.shard(user).read().get_user_data(user)
    }

    /// `dal.get_root`.
    pub fn get_root(&self, user: UserId) -> CoreResult<VolumeRow> {
        self.check_shard_up(user)?;
        self.shard(user).read().get_root(user)
    }

    /// `dal.list_volumes` — owned volumes only; combine with
    /// [`MetaStore::list_shares`] for the client-visible volume set.
    pub fn list_volumes(&self, user: UserId) -> CoreResult<Vec<VolumeRow>> {
        self.check_shard_up(user)?;
        self.shard(user).read().list_volumes(user)
    }

    /// `dal.list_shares` — volumes shared *to* this user, with their owners.
    pub fn list_shares(&self, user: UserId) -> CoreResult<Vec<(VolumeRow, UserId)>> {
        self.check_shard_up(user)?;
        self.shard(user).read().get_user_data(user)?;
        let grants: Vec<ShareRow> = self
            .shares
            .read()
            .by_recipient
            .get(&user)
            .cloned()
            .unwrap_or_default();
        let mut out = Vec::with_capacity(grants.len());
        for grant in grants {
            // The share's rows live on the owner's shard — the one
            // multi-shard pattern of the data model.
            if let Ok(vol) = self.shard(grant.shared_by).read().get_volume(grant.volume) {
                out.push((vol, grant.shared_by));
            }
        }
        Ok(out)
    }

    /// Grants `to` access to `volume` (which `owner` must own).
    pub fn create_share(
        &self,
        owner: UserId,
        volume: VolumeId,
        to: UserId,
        now: SimTime,
    ) -> CoreResult<ShareRow> {
        if owner == to {
            return Err(CoreError::invalid("cannot share with oneself"));
        }
        let vol = self.shard(owner).read().get_volume(volume)?;
        if vol.owner != owner {
            return Err(CoreError::permission_denied(format!("volume {volume}")));
        }
        // Recipient must exist.
        self.shard(to).read().get_user_data(to)?;
        let row = ShareRow {
            volume,
            shared_by: owner,
            shared_to: to,
            created_at: now,
        };
        let mut shares = self.shares.write();
        let existing = shares
            .by_volume
            .get(&volume)
            .is_some_and(|rows| rows.iter().any(|s| s.shared_to == to));
        if existing {
            return Err(CoreError::conflict("share already exists"));
        }
        shares.by_recipient.entry(to).or_default().push(row.clone());
        shares
            .by_volume
            .entry(volume)
            .or_default()
            .push(row.clone());
        Ok(row)
    }

    /// `dal.create_udf`.
    pub fn create_udf(&self, user: UserId, name: &str, now: SimTime) -> CoreResult<VolumeRow> {
        self.check_shard_up(user)?;
        let volume = self.alloc_volume(user);
        let row = self
            .shard(user)
            .write()
            .create_udf(user, volume, name, now)?;
        self.owner_stripe(volume).write().insert(volume, user);
        Ok(row)
    }

    /// `dal.delete_volume` — the cascade delete.
    pub fn delete_volume(&self, actor: UserId, volume: VolumeId) -> CoreResult<Released> {
        let owner = self.authorize(actor, volume)?;
        let dead = self.shard(owner).write().delete_volume(owner, volume)?;
        self.owner_stripe(volume).write().remove(&volume);
        // Drop share grants on the deleted volume.
        {
            let mut shares = self.shares.write();
            if let Some(rows) = shares.by_volume.remove(&volume) {
                for row in rows {
                    if let Some(v) = shares.by_recipient.get_mut(&row.shared_to) {
                        v.retain(|s| s.volume != volume);
                    }
                }
            }
        }
        let unreferenced = self.release_contents(&dead);
        Ok(Released { dead, unreferenced })
    }

    // ----- nodes ---------------------------------------------------------

    /// `dal.make_file` / `dal.make_dir`.
    pub fn make_node(
        &self,
        actor: UserId,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
        now: SimTime,
    ) -> CoreResult<crate::model::NodeRow> {
        let owner = self.authorize(actor, volume)?;
        let node = self.alloc_node(owner);
        self.shard(owner)
            .write()
            .make_node(owner, volume, node, parent, kind, name, now)
    }

    /// `dal.get_node`.
    pub fn get_node(
        &self,
        actor: UserId,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<crate::model::NodeRow> {
        let owner = self.authorize(actor, volume)?;
        self.shard(owner).read().get_node(volume, node)
    }

    /// `dal.make_content`: binds uploaded (or deduplicated) content to a
    /// file node and maintains the cross-user content index. The second
    /// return value is the replaced content hash if this update left it
    /// unreferenced (the caller deletes it from the object store).
    pub fn make_content(
        &self,
        actor: UserId,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
        now: SimTime,
    ) -> CoreResult<(crate::model::NodeRow, Option<ContentHash>)> {
        let owner = self.authorize(actor, volume)?;
        let origin = u1_core::partition::current_origin();
        let (row, old) = self
            .shard(owner)
            .write()
            .make_content(owner, volume, node, hash, size, now)?;
        self.contents.incref(hash, size, now, origin);
        let mut released = None;
        if let Some(old_hash) = old {
            if old_hash != hash {
                if self.contents.decref(old_hash, origin) {
                    released = Some(old_hash);
                }
            } else {
                // Same content re-attached: undo the double count.
                self.contents.undo_incref(hash, origin);
            }
        }
        Ok((row, released))
    }

    fn release_contents(&self, dead: &[DeadNode]) -> Vec<ContentHash> {
        let origin = u1_core::partition::current_origin();
        let mut unreferenced = Vec::new();
        for d in dead {
            if let Some(hash) = d.content {
                if self.contents.decref(hash, origin) {
                    unreferenced.push(hash);
                }
            }
        }
        unreferenced
    }

    /// `dal.get_reusable_content` — the dedup probe: returns the content row
    /// if a file with this exact hash and size is already stored (§3.3), as
    /// visible to the calling partition.
    pub fn get_reusable_content(&self, hash: ContentHash, size: u64) -> Option<ContentRow> {
        self.contents
            .probe(hash, u1_core::partition::current_origin())
            .filter(|c| c.size == size)
    }

    /// Whether `hash` is a live content for the calling partition — the
    /// presence check the download path uses in place of consulting the
    /// object store (whose blob set is only reconciled at epoch seals).
    pub fn content_visible(&self, hash: ContentHash) -> bool {
        self.contents
            .probe(hash, u1_core::partition::current_origin())
            .is_some()
    }

    /// Folds all same-epoch content-index deltas into the committed state.
    /// Must be called from a synchronization barrier (the parallel driver's
    /// day boundary). The caller applies the outcome to the object store:
    /// delete `dead`, restore `live`.
    pub fn seal_epoch(&self) -> SealOutcome {
        self.contents.seal()
    }

    /// `dal.unlink_node`.
    pub fn unlink(
        &self,
        actor: UserId,
        volume: VolumeId,
        node: NodeId,
        now: SimTime,
    ) -> CoreResult<Released> {
        let owner = self.authorize(actor, volume)?;
        let dead = self.shard(owner).write().unlink(owner, volume, node, now)?;
        let unreferenced = self.release_contents(&dead);
        Ok(Released { dead, unreferenced })
    }

    /// `dal.move`.
    pub fn move_node(
        &self,
        actor: UserId,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
        now: SimTime,
    ) -> CoreResult<crate::model::NodeRow> {
        let owner = self.authorize(actor, volume)?;
        self.shard(owner)
            .write()
            .move_node(owner, volume, node, new_parent, new_name, now)
    }

    /// `dal.get_delta`.
    pub fn get_delta(
        &self,
        actor: UserId,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<crate::model::NodeRow>)> {
        let owner = self.authorize(actor, volume)?;
        self.shard(owner).read().get_delta(volume, from_generation)
    }

    /// `dal.get_from_scratch`.
    pub fn get_from_scratch(
        &self,
        actor: UserId,
        volume: VolumeId,
    ) -> CoreResult<(u64, Vec<crate::model::NodeRow>)> {
        let owner = self.authorize(actor, volume)?;
        self.shard(owner).read().get_from_scratch(volume)
    }

    // ----- upload jobs ----------------------------------------------------

    /// `dal.make_uploadjob`.
    pub fn make_uploadjob(
        &self,
        actor: UserId,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        declared_size: u64,
        now: SimTime,
    ) -> CoreResult<UploadJobRow> {
        let owner = self.authorize(actor, volume)?;
        let upload = self.alloc_upload(owner);
        self.shard(owner).write().make_uploadjob(
            actor,
            volume,
            node,
            upload,
            hash,
            declared_size,
            now,
        )
    }

    fn uploadjob_shard(&self, actor: UserId, upload: UploadId) -> CoreResult<&RwLock<Shard>> {
        // Jobs live on the shard of the volume owner; callers hold the job
        // id, so we search the actor's shard first (overwhelmingly the
        // common case), then authorize through the job's volume.
        let own = self.shard(actor);
        if own.read().get_uploadjob(upload).is_ok() {
            return Ok(own);
        }
        for shard in &self.shards {
            let found = shard.read().get_uploadjob(upload).ok();
            if let Some(job) = found {
                self.authorize(actor, job.volume)?;
                return Ok(shard);
            }
        }
        Err(CoreError::not_found(format!("uploadjob {upload}")))
    }

    /// `dal.get_uploadjob`.
    pub fn get_uploadjob(&self, actor: UserId, upload: UploadId) -> CoreResult<UploadJobRow> {
        self.uploadjob_shard(actor, upload)?
            .read()
            .get_uploadjob(upload)
    }

    /// `dal.set_uploadjob_multipart_id`.
    pub fn set_uploadjob_multipart_id(
        &self,
        actor: UserId,
        upload: UploadId,
        multipart_id: u64,
        now: SimTime,
    ) -> CoreResult<()> {
        self.uploadjob_shard(actor, upload)?
            .write()
            .set_uploadjob_multipart_id(upload, multipart_id, now)
    }

    /// `dal.add_part_to_uploadjob`.
    pub fn add_part_to_uploadjob(
        &self,
        actor: UserId,
        upload: UploadId,
        part_size: u64,
        now: SimTime,
    ) -> CoreResult<UploadJobRow> {
        self.uploadjob_shard(actor, upload)?
            .write()
            .add_part_to_uploadjob(upload, part_size, now)
    }

    /// `dal.touch_uploadjob`.
    pub fn touch_uploadjob(&self, actor: UserId, upload: UploadId, now: SimTime) -> CoreResult<()> {
        self.uploadjob_shard(actor, upload)?
            .write()
            .touch_uploadjob(upload, now)
    }

    /// `dal.delete_uploadjob`.
    pub fn delete_uploadjob(&self, actor: UserId, upload: UploadId) -> CoreResult<UploadJobRow> {
        self.uploadjob_shard(actor, upload)?
            .write()
            .delete_uploadjob(upload)
    }

    /// The periodic garbage collection over every shard. Returns the reaped
    /// jobs so the object store can abort their multipart uploads.
    pub fn gc_uploadjobs(&self, now: SimTime) -> Vec<UploadJobRow> {
        let mut reaped = Vec::new();
        for shard in &self.shards {
            reaped.extend(shard.write().gc_uploadjobs(now, UPLOADJOB_MAX_AGE));
        }
        reaped
    }

    /// Users holding a share grant on `volume` (push-notification fan-out).
    pub fn share_recipients(&self, volume: VolumeId) -> Vec<UserId> {
        self.shares
            .read()
            .by_volume
            .get(&volume)
            .map(|rows| rows.iter().map(|s| s.shared_to).collect())
            .unwrap_or_default()
    }

    /// The owner of a volume, if it exists.
    pub fn owner_of(&self, volume: VolumeId) -> Option<UserId> {
        self.owner_stripe(volume).read().get(&volume).copied()
    }

    // ----- measurement helpers ---------------------------------------------

    /// The deduplication ratio `dr = 1 - (unique / total)` over currently
    /// referenced contents (§5.3).
    pub fn dedup_ratio(&self) -> f64 {
        let (_, unique, total) = self.contents.fold_stats();
        if total == 0 {
            0.0
        } else {
            1.0 - unique as f64 / total as f64
        }
    }

    /// Number of distinct contents currently referenced (global view:
    /// committed plus all same-epoch deltas).
    pub fn content_count(&self) -> usize {
        self.contents.fold_stats().0
    }

    /// End-of-trace snapshot of every volume: owner, kind, live file and
    /// directory counts. Feeds the §6.3 volume analyses (Figs. 10–11).
    pub fn volume_snapshot(&self) -> Vec<VolumeSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().volume_snapshot());
        }
        {
            let shares = self.shares.read();
            for snap in &mut out {
                snap.shared_to = shares
                    .by_volume
                    .get(&snap.volume)
                    .map(|rows| rows.len() as u64)
                    .unwrap_or(0);
            }
        }
        out.sort_by_key(|v| v.volume);
        out
    }
}

/// One row of [`MetaStore::volume_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct VolumeSnapshot {
    pub volume: VolumeId,
    pub owner: UserId,
    pub kind: u1_core::VolumeKind,
    pub files: u64,
    pub dirs: u64,
    /// Users this volume is shared to (0 for unshared volumes).
    pub shared_to: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MetaStore {
        MetaStore::new(StoreConfig::default())
    }

    fn now() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn routing_is_by_user_id_modulo_shards() {
        let s = store();
        assert_eq!(s.shard_of(UserId::new(0)), ShardId::new(0));
        assert_eq!(s.shard_of(UserId::new(13)), ShardId::new(3));
        assert_eq!(s.num_shards(), 10);
    }

    #[test]
    fn shard_outage_windows_degrade_per_shard_not_cluster_wide() {
        use u1_core::{partition, FaultPlan};
        let s = store();
        let user = UserId::new(1); // shard 1
        s.create_user(user, now()).unwrap();
        let plan = FaultPlan {
            shard_outages: 2,
            shard_outage_len: SimDuration::from_hours(2),
            horizon: SimDuration::from_days(2),
            ..FaultPlan::none()
        };
        let inj = Arc::new(FaultInjector::new(plan, 99));
        let shard = s.shard_of(user).raw() as u64;
        let probe = |f: &dyn Fn(SimTime) -> bool| {
            (0..48 * 60)
                .map(|m| SimTime::from_secs(m * 60))
                .find(|t| f(*t))
                .expect("probe found no matching minute")
        };
        let t_down = probe(&|t| inj.shard_down(shard, t));
        let t_up = probe(&|t| !inj.shard_down(shard, t));
        s.set_faults(Arc::clone(&inj));

        // Inside the window, requests routed to this shard fail unavailable.
        let ctx = partition::PartitionCtx::new(0);
        ctx.set_time(t_down);
        let _g = partition::install(ctx.clone());
        assert!(matches!(
            s.get_user_data(user),
            Err(CoreError::Unavailable(_))
        ));
        assert!(matches!(
            s.list_volumes(user),
            Err(CoreError::Unavailable(_))
        ));
        // The cluster degrades per-shard: some other shard is still up at
        // the same instant (2h windows per shard rarely all overlap; assert
        // at least one of the other nine serves).
        let other_up = (0..10u64)
            .filter(|sh| *sh != shard)
            .any(|sh| !inj.shard_down(sh, t_down));
        assert!(other_up, "every other shard down at once — implausible");
        // Outside the window the same request succeeds.
        ctx.set_time(t_up);
        assert!(s.get_user_data(user).is_ok());
        u1_core::fault::clear_tags();
    }

    #[test]
    fn user_lifecycle_and_volume_listing() {
        let s = store();
        let u = UserId::new(7);
        s.create_user(u, now()).unwrap();
        let vols = s.list_volumes(u).unwrap();
        assert_eq!(vols.len(), 1);
        s.create_udf(u, "Photos", now()).unwrap();
        assert_eq!(s.list_volumes(u).unwrap().len(), 2);
        assert_eq!(s.get_root(u).unwrap().volume, vols[0].volume);
    }

    #[test]
    fn sharing_grants_cross_user_access() {
        let s = store();
        let alice = UserId::new(1);
        let bob = UserId::new(2);
        s.create_user(alice, now()).unwrap();
        s.create_user(bob, now()).unwrap();
        let udf = s.create_udf(alice, "Shared stuff", now()).unwrap();

        // Before the grant, bob is denied.
        assert!(matches!(
            s.make_node(bob, udf.volume, None, NodeKind::File, "x", now()),
            Err(CoreError::PermissionDenied(_))
        ));
        s.create_share(alice, udf.volume, bob, now()).unwrap();
        // Duplicate grant is a conflict.
        assert!(s.create_share(alice, udf.volume, bob, now()).is_err());
        // Now bob can write into alice's volume (rows live on alice's shard).
        let node = s
            .make_node(bob, udf.volume, None, NodeKind::File, "x", now())
            .unwrap();
        assert_eq!(node.volume, udf.volume);
        // And sees it in list_shares.
        let shares = s.list_shares(bob).unwrap();
        assert_eq!(shares.len(), 1);
        assert_eq!(shares[0].1, alice);
        assert_eq!(shares[0].0.volume, udf.volume);
    }

    #[test]
    fn share_validation() {
        let s = store();
        let alice = UserId::new(1);
        s.create_user(alice, now()).unwrap();
        let root = s.get_root(alice).unwrap();
        // Sharing with oneself or with a nonexistent user fails.
        assert!(s.create_share(alice, root.volume, alice, now()).is_err());
        assert!(s
            .create_share(alice, root.volume, UserId::new(99), now())
            .is_err());
    }

    #[test]
    fn dedup_index_counts_references() {
        let s = store();
        let alice = UserId::new(1);
        let bob = UserId::new(2);
        s.create_user(alice, now()).unwrap();
        s.create_user(bob, now()).unwrap();
        let av = s.get_root(alice).unwrap().volume;
        let bv = s.get_root(bob).unwrap().volume;
        let h = ContentHash::from_content_id(42);

        let an = s
            .make_node(alice, av, None, NodeKind::File, "song.mp3", now())
            .unwrap();
        let bn = s
            .make_node(bob, bv, None, NodeKind::File, "copy.mp3", now())
            .unwrap();
        // First upload: content unknown.
        assert!(s.get_reusable_content(h, 1000).is_none());
        s.make_content(alice, av, an.node, h, 1000, now()).unwrap();
        // Dedup probe now hits (same hash AND size).
        assert!(s.get_reusable_content(h, 1000).is_some());
        assert!(s.get_reusable_content(h, 999).is_none());
        s.make_content(bob, bv, bn.node, h, 1000, now()).unwrap();
        // dr = 1 - unique/total = 1 - 1000/2000.
        assert!((s.dedup_ratio() - 0.5).abs() < 1e-9);

        // Alice deletes hers: content still referenced by bob.
        let rel = s.unlink(alice, av, an.node, now()).unwrap();
        assert!(rel.unreferenced.is_empty());
        // Bob deletes too: now unreferenced.
        let rel = s.unlink(bob, bv, bn.node, now()).unwrap();
        assert_eq!(rel.unreferenced, vec![h]);
        assert_eq!(s.content_count(), 0);
    }

    #[test]
    fn update_same_content_does_not_double_count() {
        let s = store();
        let u = UserId::new(1);
        s.create_user(u, now()).unwrap();
        let v = s.get_root(u).unwrap().volume;
        let n = s.make_node(u, v, None, NodeKind::File, "a", now()).unwrap();
        let h = ContentHash::from_content_id(1);
        s.make_content(u, v, n.node, h, 10, now()).unwrap();
        s.make_content(u, v, n.node, h, 10, now()).unwrap();
        let rel = s.unlink(u, v, n.node, now()).unwrap();
        assert_eq!(rel.unreferenced, vec![h], "refcount should be exactly 1");
    }

    #[test]
    fn update_with_new_content_releases_old() {
        let s = store();
        let u = UserId::new(1);
        s.create_user(u, now()).unwrap();
        let v = s.get_root(u).unwrap().volume;
        let n = s.make_node(u, v, None, NodeKind::File, "a", now()).unwrap();
        let h1 = ContentHash::from_content_id(1);
        let h2 = ContentHash::from_content_id(2);
        let (_, rel) = s.make_content(u, v, n.node, h1, 10, now()).unwrap();
        assert_eq!(rel, None);
        let (_, rel) = s.make_content(u, v, n.node, h2, 20, now()).unwrap();
        assert_eq!(rel, Some(h1), "replaced content is reported released");
        // h1 is already unreferenced (refcount handling), so only h2 remains.
        assert_eq!(s.content_count(), 1);
        assert!(s.get_reusable_content(h2, 20).is_some());
        assert!(s.get_reusable_content(h1, 10).is_none());
    }

    #[test]
    fn delete_volume_releases_contents_and_shares() {
        let s = store();
        let alice = UserId::new(1);
        let bob = UserId::new(2);
        s.create_user(alice, now()).unwrap();
        s.create_user(bob, now()).unwrap();
        let udf = s.create_udf(alice, "P", now()).unwrap();
        s.create_share(alice, udf.volume, bob, now()).unwrap();
        let n = s
            .make_node(alice, udf.volume, None, NodeKind::File, "f", now())
            .unwrap();
        let h = ContentHash::from_content_id(5);
        s.make_content(alice, udf.volume, n.node, h, 100, now())
            .unwrap();

        let rel = s.delete_volume(alice, udf.volume).unwrap();
        assert_eq!(rel.dead.len(), 1);
        assert_eq!(rel.unreferenced, vec![h]);
        assert!(s.list_shares(bob).unwrap().is_empty());
        assert!(s.get_delta(alice, udf.volume, 0).is_err());
    }

    #[test]
    fn uploadjob_flow_through_store_and_gc() {
        let s = store();
        let u = UserId::new(1);
        s.create_user(u, now()).unwrap();
        let v = s.get_root(u).unwrap().volume;
        let n = s
            .make_node(u, v, None, NodeKind::File, "big.iso", now())
            .unwrap();
        let h = ContentHash::from_content_id(9);
        let job = s.make_uploadjob(u, v, n.node, h, 10 << 20, now()).unwrap();
        s.set_uploadjob_multipart_id(u, job.upload, 1, now())
            .unwrap();
        s.add_part_to_uploadjob(u, job.upload, 5 << 20, now())
            .unwrap();
        s.touch_uploadjob(u, job.upload, SimTime::from_days(1))
            .unwrap();
        // GC at day 5: touched at day 1, age 4 days < 7, survives.
        assert!(s.gc_uploadjobs(SimTime::from_days(5)).is_empty());
        // GC at day 9: age 8 days > 7, reaped.
        let reaped = s.gc_uploadjobs(SimTime::from_days(9));
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].upload, job.upload);
        assert!(s.get_uploadjob(u, job.upload).is_err());
    }

    #[test]
    fn other_users_cannot_touch_foreign_uploadjobs() {
        let s = store();
        let alice = UserId::new(1);
        let eve = UserId::new(3);
        s.create_user(alice, now()).unwrap();
        s.create_user(eve, now()).unwrap();
        let v = s.get_root(alice).unwrap().volume;
        let n = s
            .make_node(alice, v, None, NodeKind::File, "f", now())
            .unwrap();
        let job = s
            .make_uploadjob(alice, v, n.node, ContentHash::EMPTY, 100, now())
            .unwrap();
        assert!(s.get_uploadjob(eve, job.upload).is_err());
        assert!(s.add_part_to_uploadjob(eve, job.upload, 10, now()).is_err());
    }
}
