//! Table rows of the metadata store.

use serde::Serialize;
use u1_core::{
    ContentHash, Name, NodeId, NodeKind, ShardId, SimTime, UploadId, UserId, VolumeId, VolumeKind,
};

/// A user account row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct UserRow {
    pub user: UserId,
    pub shard: ShardId,
    /// The predefined root volume created at client install time (id 0 from
    /// the client's perspective; globally unique here).
    pub root_volume: VolumeId,
    pub created_at: SimTime,
}

/// A volume row. The `generation` is the monotone change counter clients
/// diff against with `GetDelta` (§3.4.2: clients compare local state with
/// the server side "on every connection (generation point)").
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct VolumeRow {
    pub volume: VolumeId,
    pub owner: UserId,
    pub kind: VolumeKind,
    /// Inline-optimized name (volume names are short); the shard keeps the
    /// canonical copy interned in its [`u1_core::NameArena`].
    pub name: Name,
    pub generation: u64,
    pub created_at: SimTime,
    /// Live nodes currently in the volume.
    pub node_count: u64,
}

/// A node row (file or directory). Deleted nodes become tombstones
/// (`is_live = false`) so deltas can report deletions; delete-volume drops
/// rows entirely.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NodeRow {
    pub node: NodeId,
    pub volume: VolumeId,
    pub parent: Option<NodeId>,
    pub kind: NodeKind,
    /// Inline-optimized name; the canonical copy lives in the shard's
    /// [`u1_core::NameArena`], the row is a detached DTO.
    pub name: Name,
    /// Content attached by `make_content`; `None` for directories and files
    /// created but never uploaded.
    pub content: Option<ContentHash>,
    pub size: u64,
    /// Volume generation at which this row last changed.
    pub generation: u64,
    pub is_live: bool,
    pub created_at: SimTime,
    pub changed_at: SimTime,
}

/// Cross-user content index row: one per distinct SHA-1, counting logical
/// links (the basis of the dedup analysis in Fig. 4(a)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ContentRow {
    pub hash: ContentHash,
    pub size: u64,
    /// Number of live file nodes pointing at this content.
    pub refcount: u64,
    pub first_seen: SimTime,
}

/// A share grant: `shared_by` exposes `volume` to `shared_to` (Table 2's
/// ListShares vocabulary).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShareRow {
    pub volume: VolumeId,
    pub shared_by: UserId,
    pub shared_to: UserId,
    pub created_at: SimTime,
}

/// Lifecycle states of a multipart upload job (Fig. 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum UploadState {
    /// Created by `make_uploadjob`, no S3 multipart id yet.
    Created,
    /// `set_uploadjob_multipart_id` ran; parts may be added.
    InProgress,
    /// Commit observed; the job row is deleted right after, so this state
    /// is transient.
    Committed,
}

/// Server-side state of a multipart file transfer between the client and
/// the object store (Appendix A). Persisted in the metadata store for the
/// whole life of the upload so interrupted transfers can resume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct UploadJobRow {
    pub upload: UploadId,
    pub user: UserId,
    pub volume: VolumeId,
    pub node: NodeId,
    pub hash: ContentHash,
    pub declared_size: u64,
    pub state: UploadState,
    /// The object-store multipart upload id, once requested.
    pub multipart_id: Option<u64>,
    /// Sizes of the parts uploaded so far.
    pub part_sizes: Vec<u64>,
    pub created_at: SimTime,
    /// Last client activity; the GC reaps jobs untouched for a week
    /// (`dal.touch_uploadjob`).
    pub touched_at: SimTime,
}

impl UploadJobRow {
    /// Bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        self.part_sizes.iter().sum()
    }

    /// Whether every declared byte has arrived.
    pub fn is_complete(&self) -> bool {
        self.bytes_received() >= self.declared_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_job_progress_accounting() {
        let mut job = UploadJobRow {
            upload: UploadId::new(1),
            user: UserId::new(1),
            volume: VolumeId::new(1),
            node: NodeId::new(1),
            hash: ContentHash::EMPTY,
            declared_size: 12 * 1024 * 1024,
            state: UploadState::Created,
            multipart_id: None,
            part_sizes: vec![],
            created_at: SimTime::ZERO,
            touched_at: SimTime::ZERO,
        };
        assert!(!job.is_complete());
        job.part_sizes.push(5 * 1024 * 1024);
        job.part_sizes.push(5 * 1024 * 1024);
        assert_eq!(job.bytes_received(), 10 * 1024 * 1024);
        assert!(!job.is_complete());
        job.part_sizes.push(2 * 1024 * 1024);
        assert!(job.is_complete());
    }
}
