//! One metadata shard.
//!
//! A shard owns every row of the users routed to it: their volumes, the
//! nodes inside those volumes, and their in-flight upload jobs. All methods
//! take the *resolved volume owner* — the [`store`](crate::store) layer is
//! responsible for routing and for authorizing shared-volume access, which
//! is the only case where a request involves a second shard (§3.4).
//!
//! Reads take the shard lock shared; the paper calls this data model
//! "lockless" because read RPCs exploit parallel access to the shard pair
//! and ordinary operations never span shards.
//!
//! # Storage layout (memory-bounded scale path)
//!
//! Rows are *not* stored as the DTO types of [`crate::model`]. Internally a
//! shard is slab-allocated and index-linked:
//!
//! * All node/volume names live interned in one per-shard
//!   [`NameArena`]; slots carry a 4-byte [`NameId`], and name equality on
//!   the `make_node` idempotency probe is a u32 compare.
//! * Nodes live in a `Vec<NodeSlot>` slab addressed by dense `u32`
//!   indices; the sparse strided [`NodeId`]s map to slots through one
//!   `FxHashMap`. Slots are recycled through a free list — but only by
//!   `delete_volume`, which also drops every per-volume index that could
//!   reference them, so no stale slot reference can survive reuse.
//! * Volumes live in a `Vec<VolumeSlot>` slab the same way; each volume
//!   slot *owns* its secondary indexes (live-name map, change log, member
//!   list), so the cascade delete is a wholesale drop.
//! * Each user's volume-slot indices sit beside their row
//!   (`user_volumes`), so `list_volumes` and the UDF duplicate-name probe
//!   touch that user's handful of volumes. No request path iterates a slab
//!   whole: a shard hosts every user routed to it, nearly all of them idle,
//!   and an op must cost what its own user's rows cost
//!   ([`Shard::volume_snapshot`] is end-of-run reporting, not a request).
//! * The per-volume change log backing `get_delta` is an append-only
//!   `Vec<(generation, slot)>` instead of a `BTreeSet`: generations are
//!   monotone per volume, so the vector is naturally sorted, a log entry is
//!   live iff the slot still carries that generation (updating a node makes
//!   its old entry stale *for free*), and range reads are a binary search
//!   plus a scan. Stale entries are compacted away once they outnumber the
//!   members.
//!
//! Public methods still speak DTO rows; they are materialized on the way
//! out (a [`Name`] is built from the arena text — inline, no allocation,
//! for names up to 22 bytes).

use crate::model::{NodeRow, UploadJobRow, UploadState, UserRow, VolumeRow};
use u1_core::intern::to_u32;
use u1_core::{
    ContentHash, CoreError, CoreResult, FxHashMap, IdArena, Name, NameArena, NameId, NodeId,
    NodeKind, ShardId, SimDuration, SimTime, UploadId, UserId, VolumeId, VolumeKind,
};

/// A deleted node reported back so the caller can release content refs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadNode {
    pub node: NodeId,
    pub kind: NodeKind,
    pub content: Option<ContentHash>,
    pub size: u64,
}

/// Slab storage of one node row. 4-byte interned name, no heap strings;
/// the only owned allocation is the live-children list of directories.
#[derive(Debug, Clone)]
struct NodeSlot {
    node: NodeId,
    volume: VolumeId,
    parent: Option<NodeId>,
    kind: NodeKind,
    name: NameId,
    content: Option<ContentHash>,
    size: u64,
    generation: u64,
    is_live: bool,
    created_at: SimTime,
    changed_at: SimTime,
    /// Live children (directories only), kept sorted ascending so the
    /// unlink cascade walk is iteration-order-free — the same order the
    /// previous `BTreeSet` index produced.
    children: Vec<NodeId>,
}

/// Slab storage of one volume row plus the secondary indexes it owns.
/// Dropping the slot (delete-volume cascade) drops every index that could
/// reference a node slot of this volume.
#[derive(Debug, Clone)]
struct VolumeSlot {
    volume: VolumeId,
    owner: UserId,
    kind: VolumeKind,
    name: NameId,
    generation: u64,
    created_at: SimTime,
    node_count: u64,
    /// False once the slot has been freed (awaiting reuse).
    alive: bool,
    /// Every node slot ever created in this volume (live and tombstoned),
    /// in creation order. Backs `get_from_scratch` and the cascade delete.
    members: Vec<u32>,
    /// Live `(parent, name)` → node slot. Backs `make_node`'s idempotency
    /// probe without scanning the volume.
    live_names: FxHashMap<(Option<NodeId>, NameId), u32>,
    /// Append-only change log `(generation, node slot)`, sorted because
    /// generations are monotone (same-generation unlink batches are
    /// appended sorted by node id). An entry is live iff the slot still
    /// carries that generation. Backs `get_delta` range scans.
    log: Vec<(u64, u32)>,
}

impl Default for VolumeSlot {
    /// The freed-slot placeholder (`alive: false`, empty indexes).
    fn default() -> Self {
        Self {
            volume: VolumeId::new(0),
            owner: UserId::new(0),
            kind: VolumeKind::Root,
            name: NameId::default(),
            generation: 0,
            created_at: SimTime::ZERO,
            node_count: 0,
            alive: false,
            members: Vec::new(),
            live_names: FxHashMap::default(),
            log: Vec::new(),
        }
    }
}

/// Compact a change log only past this length (every member keeps exactly
/// one live entry, so short logs are never worth rewriting).
const LOG_COMPACT_FLOOR: usize = 64;

/// The mutable tables of one shard.
#[derive(Debug, Default)]
pub struct Shard {
    pub id: ShardId,
    /// All node and volume names, interned once per distinct string.
    names: NameArena,
    /// Dense user index; users are never deleted, so no free list.
    users: IdArena<UserId>,
    user_rows: Vec<UserRow>,
    /// Per user (same index as `user_rows`): the slots of the live volumes
    /// they own, in no particular order. Maintained by `create_user`,
    /// `create_udf` and `delete_volume`.
    user_volumes: Vec<Vec<u32>>,
    volumes: FxHashMap<VolumeId, u32>,
    volume_slots: Vec<VolumeSlot>,
    free_volumes: Vec<u32>,
    nodes: FxHashMap<NodeId, u32>,
    node_slots: Vec<NodeSlot>,
    free_nodes: Vec<u32>,
    uploadjobs: FxHashMap<UploadId, UploadJobRow>,
}

fn child_insert(children: &mut Vec<NodeId>, id: NodeId) {
    if let Err(pos) = children.binary_search(&id) {
        children.insert(pos, id);
    }
}

fn child_remove(children: &mut Vec<NodeId>, id: NodeId) {
    if let Ok(pos) = children.binary_search(&id) {
        children.remove(pos);
    }
}

impl Shard {
    pub fn new(id: ShardId) -> Self {
        Self {
            id,
            ..Default::default()
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ----- slab plumbing ----------------------------------------------

    fn intern_name(&mut self, s: &str) -> CoreResult<NameId> {
        self.names
            .intern(s)
            .ok_or_else(|| CoreError::invalid("name arena exhausted"))
    }

    fn alloc_node_slot(&mut self, slot: NodeSlot) -> CoreResult<u32> {
        if let Some(free) = self.free_nodes.pop() {
            self.node_slots[free as usize] = slot;
            Ok(free)
        } else {
            let idx = to_u32(self.node_slots.len())
                .ok_or_else(|| CoreError::invalid("node slab exhausted"))?;
            self.node_slots.push(slot);
            Ok(idx)
        }
    }

    fn alloc_volume_slot(&mut self, slot: VolumeSlot) -> CoreResult<u32> {
        if let Some(free) = self.free_volumes.pop() {
            self.volume_slots[free as usize] = slot;
            Ok(free)
        } else {
            let idx = to_u32(self.volume_slots.len())
                .ok_or_else(|| CoreError::invalid("volume slab exhausted"))?;
            self.volume_slots.push(slot);
            Ok(idx)
        }
    }

    /// Materializes the DTO row for a node slot.
    fn node_row(&self, slot: u32) -> NodeRow {
        let s = &self.node_slots[slot as usize];
        NodeRow {
            node: s.node,
            volume: s.volume,
            parent: s.parent,
            kind: s.kind,
            name: Name::new(self.names.resolve(s.name)),
            content: s.content,
            size: s.size,
            generation: s.generation,
            is_live: s.is_live,
            created_at: s.created_at,
            changed_at: s.changed_at,
        }
    }

    /// Materializes the DTO row for a volume slot.
    fn volume_row(&self, idx: u32) -> VolumeRow {
        let v = &self.volume_slots[idx as usize];
        VolumeRow {
            volume: v.volume,
            owner: v.owner,
            kind: v.kind,
            name: Name::new(self.names.resolve(v.name)),
            generation: v.generation,
            created_at: v.created_at,
            node_count: v.node_count,
        }
    }

    fn user_idx(&self, user: UserId) -> CoreResult<u32> {
        self.users
            .get(user)
            .ok_or_else(|| CoreError::not_found(format!("user {user}")))
    }

    fn volume_idx(&self, volume: VolumeId) -> CoreResult<u32> {
        self.volumes
            .get(&volume)
            .copied()
            .ok_or_else(|| CoreError::not_found(format!("volume {volume}")))
    }

    /// The slot index of `volume` after checking `owner` may write it —
    /// the slab equivalent of the old `volume_mut` authorization helper.
    fn owned_volume_idx(&self, owner: UserId, volume: VolumeId) -> CoreResult<u32> {
        let idx = self.volume_idx(volume)?;
        if self.volume_slots[idx as usize].owner != owner {
            return Err(CoreError::permission_denied(format!("volume {volume}")));
        }
        Ok(idx)
    }

    /// Drops log entries whose slot has since moved to a newer generation.
    /// Live entries stay in `(generation, node)` order (retain preserves
    /// order, and the log was sorted).
    fn maybe_compact_log(&mut self, vidx: u32) {
        let v = &self.volume_slots[vidx as usize];
        if v.log.len() < LOG_COMPACT_FLOOR || v.log.len() <= v.members.len().saturating_mul(2) {
            return;
        }
        let mut log = std::mem::take(&mut self.volume_slots[vidx as usize].log);
        log.retain(|&(generation, slot)| self.node_slots[slot as usize].generation == generation);
        self.volume_slots[vidx as usize].log = log;
    }

    /// Snapshot of every volume on this shard with live file/dir counts.
    pub fn volume_snapshot(&self) -> Vec<crate::store::VolumeSnapshot> {
        self.volume_slots
            .iter()
            .filter(|v| v.alive)
            .map(|vol| {
                let mut files = 0u64;
                let mut dirs = 0u64;
                for &slot in &vol.members {
                    let n = &self.node_slots[slot as usize];
                    if n.is_live {
                        match n.kind {
                            NodeKind::File => files += 1,
                            NodeKind::Directory => dirs += 1,
                        }
                    }
                }
                crate::store::VolumeSnapshot {
                    volume: vol.volume,
                    owner: vol.owner,
                    kind: vol.kind,
                    files,
                    dirs,
                    shared_to: 0,
                }
            })
            .collect()
    }

    // ----- users -------------------------------------------------------

    /// Creates a user and their root volume.
    pub fn create_user(
        &mut self,
        user: UserId,
        root_volume: VolumeId,
        now: SimTime,
    ) -> CoreResult<UserRow> {
        if self.users.get(user).is_some() {
            return Err(CoreError::conflict(format!("user {user} exists")));
        }
        let row = UserRow {
            user,
            shard: self.id,
            root_volume,
            created_at: now,
        };
        let uidx = self
            .users
            .intern(user)
            .ok_or_else(|| CoreError::invalid("user arena exhausted"))?;
        self.user_rows.push(row.clone());
        self.user_volumes.push(Vec::new());
        let name = self.intern_name("Ubuntu One")?;
        let vidx = self.alloc_volume_slot(VolumeSlot {
            volume: root_volume,
            owner: user,
            kind: VolumeKind::Root,
            name,
            generation: 0,
            created_at: now,
            node_count: 0,
            alive: true,
            ..Default::default()
        })?;
        self.volumes.insert(root_volume, vidx);
        self.user_volumes[uidx as usize].push(vidx);
        Ok(row)
    }

    /// `dal.get_user_data`.
    pub fn get_user_data(&self, user: UserId) -> CoreResult<UserRow> {
        Ok(self.user_rows[self.user_idx(user)? as usize].clone())
    }

    /// `dal.get_root`.
    pub fn get_root(&self, user: UserId) -> CoreResult<VolumeRow> {
        let u = self.get_user_data(user)?;
        let idx = self
            .volumes
            .get(&u.root_volume)
            .copied()
            .ok_or_else(|| CoreError::not_found(format!("root volume of {user}")))?;
        Ok(self.volume_row(idx))
    }

    /// `dal.list_volumes` — root plus UDFs owned by the user (shares are
    /// resolved by the store layer).
    pub fn list_volumes(&self, user: UserId) -> CoreResult<Vec<VolumeRow>> {
        let uidx = self.user_idx(user)?;
        let mut vols: Vec<VolumeRow> = self.user_volumes[uidx as usize]
            .iter()
            .map(|&vidx| self.volume_row(vidx))
            .collect();
        vols.sort_by_key(|v| v.volume);
        Ok(vols)
    }

    // ----- volumes -----------------------------------------------------

    /// `dal.create_udf`.
    pub fn create_udf(
        &mut self,
        user: UserId,
        volume: VolumeId,
        name: &str,
        now: SimTime,
    ) -> CoreResult<VolumeRow> {
        let uidx = self.user_idx(user)?;
        if name.is_empty() {
            return Err(CoreError::invalid("empty UDF name"));
        }
        // Same-name probe over this user's volumes: a name never interned
        // cannot name a volume, and equal strings share one id, so the
        // compare is a u32.
        let dup = self.names.lookup(name).is_some_and(|id| {
            self.user_volumes[uidx as usize]
                .iter()
                .any(|&vidx| self.volume_slots[vidx as usize].name == id)
        });
        if dup {
            return Err(CoreError::conflict(format!("UDF '{name}' exists")));
        }
        let name_id = self.intern_name(name)?;
        let vidx = self.alloc_volume_slot(VolumeSlot {
            volume,
            owner: user,
            kind: VolumeKind::UserDefined,
            name: name_id,
            generation: 0,
            created_at: now,
            node_count: 0,
            alive: true,
            ..Default::default()
        })?;
        self.volumes.insert(volume, vidx);
        self.user_volumes[uidx as usize].push(vidx);
        Ok(self.volume_row(vidx))
    }

    pub fn get_volume(&self, volume: VolumeId) -> CoreResult<VolumeRow> {
        Ok(self.volume_row(self.volume_idx(volume)?))
    }

    /// `dal.delete_volume` — the cascade RPC: removes the volume and every
    /// node it contains. The root volume cannot be deleted.
    pub fn delete_volume(&mut self, owner: UserId, volume: VolumeId) -> CoreResult<Vec<DeadNode>> {
        let vidx = self.volume_idx(volume)?;
        {
            let vol = &self.volume_slots[vidx as usize];
            if vol.owner != owner {
                return Err(CoreError::permission_denied(format!("volume {volume}")));
            }
            if vol.kind == VolumeKind::Root {
                return Err(CoreError::invalid("cannot delete the root volume"));
            }
        }
        // Take the whole slot: its member list, live-name map and log go
        // with it, so freed node slots cannot be referenced afterwards.
        let slot = std::mem::take(&mut self.volume_slots[vidx as usize]);
        let mut dead = Vec::with_capacity(slot.members.len());
        for nslot in slot.members {
            let n = &mut self.node_slots[nslot as usize];
            if n.is_live {
                dead.push(DeadNode {
                    node: n.node,
                    kind: n.kind,
                    content: n.content,
                    size: n.size,
                });
            }
            n.children = Vec::new();
            self.nodes.remove(&n.node);
            self.free_nodes.push(nslot);
        }
        // Abandon any in-flight uploads into the deleted volume.
        self.uploadjobs.retain(|_, j| j.volume != volume);
        self.volumes.remove(&volume);
        if let Some(uidx) = self.users.get(owner) {
            self.user_volumes[uidx as usize].retain(|&v| v != vidx);
        }
        self.free_volumes.push(vidx);
        Ok(dead)
    }

    // ----- nodes -------------------------------------------------------

    fn check_parent(&self, volume: VolumeId, parent: Option<NodeId>) -> CoreResult<()> {
        let Some(parent) = parent else {
            return Ok(());
        };
        match self
            .nodes
            .get(&parent)
            .map(|&s| &self.node_slots[s as usize])
        {
            Some(p) if p.volume == volume && p.is_live && p.kind == NodeKind::Directory => Ok(()),
            Some(_) => Err(CoreError::invalid(format!(
                "parent {parent} is not a live directory of {volume}"
            ))),
            None => Err(CoreError::not_found(format!("parent {parent}"))),
        }
    }

    /// `dal.make_file` / `dal.make_dir`. Idempotent on (parent, name): if a
    /// live node with the same name exists under the same parent, it is
    /// returned unchanged — "this operation ... normally precedes a file
    /// upload" (Table 2), and the desktop client re-issues it freely.
    #[allow(clippy::too_many_arguments)]
    pub fn make_node(
        &mut self,
        owner: UserId,
        volume: VolumeId,
        node_id: NodeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
        now: SimTime,
    ) -> CoreResult<NodeRow> {
        if name.is_empty() {
            return Err(CoreError::invalid("empty node name"));
        }
        let vidx = self.owned_volume_idx(owner, volume)?;
        self.check_parent(volume, parent)?;
        // Idempotency probe: only interned names can collide, so a miss in
        // the arena is a miss in the volume.
        if let Some(existing) = self.names.lookup(name).and_then(|id| {
            self.volume_slots[vidx as usize]
                .live_names
                .get(&(parent, id))
                .copied()
        }) {
            if self.node_slots[existing as usize].kind != kind {
                return Err(CoreError::conflict(format!(
                    "node '{name}' exists with different kind"
                )));
            }
            return Ok(self.node_row(existing));
        }
        let name_id = self.intern_name(name)?;
        let generation = {
            let vol = &mut self.volume_slots[vidx as usize];
            vol.generation += 1;
            vol.node_count += 1;
            vol.generation
        };
        let nslot = self.alloc_node_slot(NodeSlot {
            node: node_id,
            volume,
            parent,
            kind,
            name: name_id,
            content: None,
            size: 0,
            generation,
            is_live: true,
            created_at: now,
            changed_at: now,
            children: Vec::new(),
        })?;
        self.nodes.insert(node_id, nslot);
        {
            let vol = &mut self.volume_slots[vidx as usize];
            vol.members.push(nslot);
            vol.live_names.insert((parent, name_id), nslot);
            vol.log.push((generation, nslot));
        }
        if let Some(p) = parent {
            if let Some(&pslot) = self.nodes.get(&p) {
                child_insert(&mut self.node_slots[pslot as usize].children, node_id);
            }
        }
        Ok(self.node_row(nslot))
    }

    /// `dal.get_node`.
    pub fn get_node(&self, volume: VolumeId, node: NodeId) -> CoreResult<NodeRow> {
        match self.nodes.get(&node) {
            Some(&s)
                if self.node_slots[s as usize].volume == volume
                    && self.node_slots[s as usize].is_live =>
            {
                Ok(self.node_row(s))
            }
            _ => Err(CoreError::not_found(format!("node {node} in {volume}"))),
        }
    }

    /// `dal.make_content` — attaches uploaded content to a file node (the
    /// "equivalent of an inode", Table 4). Returns the replaced content, if
    /// any, so the caller can drop its dedup reference.
    #[allow(clippy::too_many_arguments)]
    pub fn make_content(
        &mut self,
        owner: UserId,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
        now: SimTime,
    ) -> CoreResult<(NodeRow, Option<ContentHash>)> {
        let vidx = self.owned_volume_idx(owner, volume)?;
        // The generation advances before the node lookup — a failed
        // make_content still burns a generation, as it always has.
        let generation = {
            let vol = &mut self.volume_slots[vidx as usize];
            vol.generation += 1;
            vol.generation
        };
        let nslot = self
            .nodes
            .get(&node)
            .copied()
            .filter(|&s| {
                let n = &self.node_slots[s as usize];
                n.volume == volume && n.is_live
            })
            .ok_or_else(|| CoreError::not_found(format!("node {node}")))?;
        let row = &mut self.node_slots[nslot as usize];
        if row.kind != NodeKind::File {
            return Err(CoreError::invalid("make_content on a directory"));
        }
        let old = row.content;
        row.content = Some(hash);
        row.size = size;
        row.generation = generation;
        row.changed_at = now;
        // The old log entry went stale the moment the slot's generation
        // moved; just append the new one.
        self.volume_slots[vidx as usize]
            .log
            .push((generation, nslot));
        self.maybe_compact_log(vidx);
        Ok((self.node_row(nslot), old))
    }

    /// `dal.unlink_node`. Deleting a directory cascades to everything under
    /// it (§5.2: "deleting a directory in U1 triggers the deletion of all
    /// the files it contains"). Returns every node that died.
    pub fn unlink(
        &mut self,
        owner: UserId,
        volume: VolumeId,
        node: NodeId,
        now: SimTime,
    ) -> CoreResult<Vec<DeadNode>> {
        let vidx = self.owned_volume_idx(owner, volume)?;
        let root = self
            .nodes
            .get(&node)
            .copied()
            .filter(|&s| {
                let n = &self.node_slots[s as usize];
                n.volume == volume && n.is_live
            })
            .map(|s| self.node_slots[s as usize].node)
            .ok_or_else(|| CoreError::not_found(format!("node {node}")))?;
        // Collect the subtree over the sorted live-children lists — the
        // same traversal order the previous `BTreeSet` index produced.
        let mut doomed = vec![root];
        let mut queue = vec![root];
        while let Some(cur) = queue.pop() {
            if let Some(&s) = self.nodes.get(&cur) {
                let kids = &self.node_slots[s as usize].children;
                doomed.extend(kids.iter().copied());
                queue.extend(kids.iter().copied());
            }
        }
        let generation = {
            let vol = &mut self.volume_slots[vidx as usize];
            vol.generation += 1;
            vol.node_count = vol.node_count.saturating_sub(doomed.len() as u64);
            vol.generation
        };
        let mut dead = Vec::with_capacity(doomed.len());
        let mut batch: Vec<(NodeId, u32)> = Vec::with_capacity(doomed.len());
        for nid in doomed {
            // Doomed ids were collected from live rows above; a missing row
            // means nothing to kill, not an error.
            let Some(&nslot) = self.nodes.get(&nid) else {
                continue;
            };
            let (parent, name_id) = {
                let row = &mut self.node_slots[nslot as usize];
                row.is_live = false;
                row.generation = generation;
                row.changed_at = now;
                dead.push(DeadNode {
                    node: row.node,
                    kind: row.kind,
                    content: row.content,
                    size: row.size,
                });
                row.children = Vec::new();
                (row.parent, row.name)
            };
            self.volume_slots[vidx as usize]
                .live_names
                .remove(&(parent, name_id));
            if let Some(p) = parent {
                if let Some(&pslot) = self.nodes.get(&p) {
                    child_remove(&mut self.node_slots[pslot as usize].children, nid);
                }
            }
            batch.push((nid, nslot));
        }
        // The whole batch shares one generation; append in node order so
        // the log stays sorted by (generation, node).
        batch.sort_by_key(|&(nid, _)| nid);
        self.volume_slots[vidx as usize]
            .log
            .extend(batch.into_iter().map(|(_, nslot)| (generation, nslot)));
        self.maybe_compact_log(vidx);
        Ok(dead)
    }

    /// `dal.move`.
    #[allow(clippy::too_many_arguments)]
    pub fn move_node(
        &mut self,
        owner: UserId,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
        now: SimTime,
    ) -> CoreResult<NodeRow> {
        if new_name.is_empty() {
            return Err(CoreError::invalid("empty node name"));
        }
        let vidx = self.owned_volume_idx(owner, volume)?;
        self.check_parent(volume, new_parent)?;
        // A directory cannot be moved under itself.
        if let Some(mut cursor) = new_parent {
            loop {
                if cursor == node {
                    return Err(CoreError::invalid("move would create a cycle"));
                }
                match self
                    .nodes
                    .get(&cursor)
                    .and_then(|&s| self.node_slots[s as usize].parent)
                {
                    Some(p) => cursor = p,
                    None => break,
                }
            }
        }
        let generation = {
            let vol = &mut self.volume_slots[vidx as usize];
            vol.generation += 1;
            vol.generation
        };
        let nslot = self
            .nodes
            .get(&node)
            .copied()
            .filter(|&s| {
                let n = &self.node_slots[s as usize];
                n.volume == volume && n.is_live
            })
            .ok_or_else(|| CoreError::not_found(format!("node {node}")))?;
        let new_name_id = self.intern_name(new_name)?;
        let (old_parent, old_name_id) = {
            let row = &mut self.node_slots[nslot as usize];
            let old_parent = row.parent;
            let old_name_id = std::mem::replace(&mut row.name, new_name_id);
            row.parent = new_parent;
            row.generation = generation;
            row.changed_at = now;
            (old_parent, old_name_id)
        };
        {
            let vol = &mut self.volume_slots[vidx as usize];
            vol.live_names.remove(&(old_parent, old_name_id));
            vol.live_names.insert((new_parent, new_name_id), nslot);
        }
        if old_parent != new_parent {
            if let Some(p) = old_parent {
                if let Some(&pslot) = self.nodes.get(&p) {
                    child_remove(&mut self.node_slots[pslot as usize].children, node);
                }
            }
            if let Some(p) = new_parent {
                if let Some(&pslot) = self.nodes.get(&p) {
                    child_insert(&mut self.node_slots[pslot as usize].children, node);
                }
            }
        }
        self.volume_slots[vidx as usize]
            .log
            .push((generation, nslot));
        self.maybe_compact_log(vidx);
        Ok(self.node_row(nslot))
    }

    /// `dal.get_delta` — every node changed after `from_generation`,
    /// including tombstones, plus the current generation. Each row goes
    /// through `row` in the one collect, so a caller that answers with
    /// another type than [`NodeRow`] allocates its list once.
    pub fn get_delta<T>(
        &self,
        volume: VolumeId,
        from_generation: u64,
        row: impl FnMut(NodeRow) -> T,
    ) -> CoreResult<(u64, Vec<T>)> {
        let vidx = self.volume_idx(volume)?;
        let vol = &self.volume_slots[vidx as usize];
        // The log is sorted by generation (monotone appends), each node
        // live exactly once at its current generation — so the read is a
        // binary search plus a filtered scan, never a volume scan.
        let start = vol.log.partition_point(|&(g, _)| g <= from_generation);
        let changed = vol.log[start..]
            .iter()
            .filter(|&&(g, s)| self.node_slots[s as usize].generation == g)
            .map(|&(_, s)| self.node_row(s))
            .map(row)
            .collect();
        Ok((vol.generation, changed))
    }

    /// `dal.get_from_scratch` — the cascade read: every live node of the
    /// volume (what a fresh client mirrors), in node order. Each row goes
    /// through `row` as the list is built, as in [`Shard::get_delta`].
    pub fn get_from_scratch<T>(
        &self,
        volume: VolumeId,
        row: impl FnMut(NodeRow) -> T,
    ) -> CoreResult<(u64, Vec<T>)> {
        let vidx = self.volume_idx(volume)?;
        let vol = &self.volume_slots[vidx as usize];
        let mut live: Vec<u32> = vol
            .members
            .iter()
            .copied()
            .filter(|&s| self.node_slots[s as usize].is_live)
            .collect();
        live.sort_by_key(|&s| self.node_slots[s as usize].node);
        let rows = live.into_iter().map(|s| self.node_row(s)).map(row);
        Ok((vol.generation, rows.collect()))
    }

    // ----- upload jobs (Appendix A) -------------------------------------

    /// `dal.make_uploadjob`.
    #[allow(clippy::too_many_arguments)]
    pub fn make_uploadjob(
        &mut self,
        user: UserId,
        volume: VolumeId,
        node: NodeId,
        upload: UploadId,
        hash: ContentHash,
        declared_size: u64,
        now: SimTime,
    ) -> CoreResult<UploadJobRow> {
        self.volume_idx(volume)?;
        let row = UploadJobRow {
            upload,
            user,
            volume,
            node,
            hash,
            declared_size,
            state: UploadState::Created,
            multipart_id: None,
            bytes_received: 0,
            created_at: now,
            touched_at: now,
        };
        self.uploadjobs.insert(upload, row);
        Ok(row)
    }

    /// `dal.get_uploadjob`.
    pub fn get_uploadjob(&self, upload: UploadId) -> CoreResult<UploadJobRow> {
        self.uploadjobs
            .get(&upload)
            .copied()
            .ok_or_else(|| CoreError::not_found(format!("uploadjob {upload}")))
    }

    /// `dal.set_uploadjob_multipart_id`.
    pub fn set_uploadjob_multipart_id(
        &mut self,
        upload: UploadId,
        multipart_id: u64,
        now: SimTime,
    ) -> CoreResult<()> {
        let job = self
            .uploadjobs
            .get_mut(&upload)
            .ok_or_else(|| CoreError::not_found(format!("uploadjob {upload}")))?;
        if job.multipart_id.is_some() {
            return Err(CoreError::conflict("multipart id already set"));
        }
        job.multipart_id = Some(multipart_id);
        job.state = UploadState::InProgress;
        job.touched_at = now;
        Ok(())
    }

    /// `dal.add_part_to_uploadjob`. Returns the bytes the job now holds.
    pub fn add_part_to_uploadjob(
        &mut self,
        upload: UploadId,
        part_size: u64,
        now: SimTime,
    ) -> CoreResult<u64> {
        let job = self
            .uploadjobs
            .get_mut(&upload)
            .ok_or_else(|| CoreError::not_found(format!("uploadjob {upload}")))?;
        if job.state != UploadState::InProgress {
            return Err(CoreError::invalid("uploadjob has no multipart id yet"));
        }
        if part_size == 0 {
            return Err(CoreError::invalid("empty upload part"));
        }
        job.bytes_received += part_size;
        job.touched_at = now;
        Ok(job.bytes_received)
    }

    /// `dal.touch_uploadjob` — client liveness check on a job.
    pub fn touch_uploadjob(&mut self, upload: UploadId, now: SimTime) -> CoreResult<()> {
        let job = self
            .uploadjobs
            .get_mut(&upload)
            .ok_or_else(|| CoreError::not_found(format!("uploadjob {upload}")))?;
        job.touched_at = now;
        Ok(())
    }

    /// `dal.delete_uploadjob` — on commit or cancel.
    pub fn delete_uploadjob(&mut self, upload: UploadId) -> CoreResult<UploadJobRow> {
        self.uploadjobs
            .remove(&upload)
            .ok_or_else(|| CoreError::not_found(format!("uploadjob {upload}")))
    }

    /// The weekly garbage collection: removes jobs untouched for longer
    /// than `max_age` and returns them so the object store can abort the
    /// corresponding multipart uploads.
    pub fn gc_uploadjobs(&mut self, now: SimTime, max_age: SimDuration) -> Vec<UploadJobRow> {
        let mut doomed: Vec<UploadId> = self
            .uploadjobs
            .values()
            .filter(|j| now.since(j.touched_at) > max_age)
            .map(|j| j.upload)
            .collect();
        // The reaped jobs are traced one record each at the same timestamp,
        // so their order must not depend on hash-map iteration order.
        doomed.sort();
        doomed
            .into_iter()
            .filter_map(|id| self.uploadjobs.remove(&id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Shard, UserId, VolumeId) {
        let mut shard = Shard::new(ShardId::new(0));
        let user = UserId::new(1);
        let root = VolumeId::new(100);
        shard.create_user(user, root, SimTime::ZERO).unwrap();
        (shard, user, root)
    }

    #[test]
    fn create_user_makes_root_volume() {
        let (shard, user, root) = setup();
        let vols = shard.list_volumes(user).unwrap();
        assert_eq!(vols.len(), 1);
        assert_eq!(vols[0].volume, root);
        assert_eq!(vols[0].kind, VolumeKind::Root);
        assert_eq!(shard.get_root(user).unwrap().volume, root);
        assert_eq!(shard.get_user_data(user).unwrap().shard, ShardId::new(0));
    }

    #[test]
    fn duplicate_user_is_a_conflict() {
        let (mut shard, user, _) = setup();
        assert!(shard
            .create_user(user, VolumeId::new(200), SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn make_node_bumps_generation_and_count() {
        let (mut shard, user, root) = setup();
        let n1 = shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::File,
                "a.txt",
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n1.generation, 1);
        let vol = shard.get_volume(root).unwrap();
        assert_eq!(vol.generation, 1);
        assert_eq!(vol.node_count, 1);
    }

    #[test]
    fn make_node_is_idempotent_on_name() {
        let (mut shard, user, root) = setup();
        let n1 = shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::File,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        let n2 = shard
            .make_node(
                user,
                root,
                NodeId::new(2),
                None,
                NodeKind::File,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n1.node, n2.node, "same name resolves to same node");
        assert_eq!(shard.get_volume(root).unwrap().node_count, 1);
        // Same name but different kind is a conflict.
        assert!(shard
            .make_node(
                user,
                root,
                NodeId::new(3),
                None,
                NodeKind::Directory,
                "a",
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn make_node_validates_parent() {
        let (mut shard, user, root) = setup();
        // Nonexistent parent.
        assert!(shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                Some(NodeId::new(99)),
                NodeKind::File,
                "a",
                SimTime::ZERO
            )
            .is_err());
        // File as parent.
        shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::File,
                "f",
                SimTime::ZERO,
            )
            .unwrap();
        assert!(shard
            .make_node(
                user,
                root,
                NodeId::new(2),
                Some(NodeId::new(1)),
                NodeKind::File,
                "b",
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn unlink_directory_cascades() {
        let (mut shard, user, root) = setup();
        let dir = shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::Directory,
                "d",
                SimTime::ZERO,
            )
            .unwrap();
        let sub = shard
            .make_node(
                user,
                root,
                NodeId::new(2),
                Some(dir.node),
                NodeKind::Directory,
                "sub",
                SimTime::ZERO,
            )
            .unwrap();
        shard
            .make_node(
                user,
                root,
                NodeId::new(3),
                Some(sub.node),
                NodeKind::File,
                "f",
                SimTime::ZERO,
            )
            .unwrap();
        let dead = shard
            .unlink(user, root, dir.node, SimTime::from_secs(5))
            .unwrap();
        assert_eq!(dead.len(), 3);
        assert_eq!(shard.get_volume(root).unwrap().node_count, 0);
        assert!(shard.get_node(root, NodeId::new(3)).is_err());
    }

    #[test]
    fn delta_reports_changes_and_tombstones() {
        let (mut shard, user, root) = setup();
        let n = shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::File,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        let (gen1, delta) = shard.get_delta(root, 0, |r| r).unwrap();
        assert_eq!(gen1, 1);
        assert_eq!(delta.len(), 1);
        // No changes since gen1.
        let (_, delta) = shard.get_delta(root, gen1, |r| r).unwrap();
        assert!(delta.is_empty());
        // Unlink produces a tombstone entry.
        shard
            .unlink(user, root, n.node, SimTime::from_secs(1))
            .unwrap();
        let (gen2, delta) = shard.get_delta(root, gen1, |r| r).unwrap();
        assert_eq!(gen2, 2);
        assert_eq!(delta.len(), 1);
        assert!(!delta[0].is_live);
    }

    #[test]
    fn make_content_replaces_and_reports_old_hash() {
        let (mut shard, user, root) = setup();
        let n = shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::File,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        let h1 = ContentHash::from_content_id(1);
        let h2 = ContentHash::from_content_id(2);
        let (row, old) = shard
            .make_content(user, root, n.node, h1, 100, SimTime::ZERO)
            .unwrap();
        assert_eq!(old, None);
        assert_eq!(row.size, 100);
        let (row, old) = shard
            .make_content(user, root, n.node, h2, 200, SimTime::ZERO)
            .unwrap();
        assert_eq!(old, Some(h1));
        assert_eq!(row.content, Some(h2));
    }

    #[test]
    fn move_rejects_cycles() {
        let (mut shard, user, root) = setup();
        let a = shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::Directory,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        let b = shard
            .make_node(
                user,
                root,
                NodeId::new(2),
                Some(a.node),
                NodeKind::Directory,
                "b",
                SimTime::ZERO,
            )
            .unwrap();
        // a -> under b (its own child) must fail.
        assert!(shard
            .move_node(user, root, a.node, Some(b.node), "a", SimTime::ZERO)
            .is_err());
        // b -> root level is fine.
        let moved = shard
            .move_node(user, root, b.node, None, "b2", SimTime::ZERO)
            .unwrap();
        assert_eq!(moved.parent, None);
        assert_eq!(moved.name, "b2");
    }

    #[test]
    fn delete_volume_cascades_and_is_forbidden_for_root() {
        let (mut shard, user, root) = setup();
        assert!(shard.delete_volume(user, root).is_err());
        let udf = shard
            .create_udf(user, VolumeId::new(200), "Photos", SimTime::ZERO)
            .unwrap();
        shard
            .make_node(
                user,
                udf.volume,
                NodeId::new(1),
                None,
                NodeKind::File,
                "x",
                SimTime::ZERO,
            )
            .unwrap();
        let dead = shard.delete_volume(user, udf.volume).unwrap();
        assert_eq!(dead.len(), 1);
        assert!(shard.get_volume(udf.volume).is_err());
    }

    #[test]
    fn deleted_volume_slots_are_recycled_safely() {
        let (mut shard, user, _root) = setup();
        // Create a UDF with nodes, delete it, create another: the new
        // volume must reuse the freed slots without leaking old state.
        let udf1 = shard
            .create_udf(user, VolumeId::new(200), "One", SimTime::ZERO)
            .unwrap();
        for i in 0..5 {
            shard
                .make_node(
                    user,
                    udf1.volume,
                    NodeId::new(10 + i),
                    None,
                    NodeKind::File,
                    &format!("f{i}"),
                    SimTime::ZERO,
                )
                .unwrap();
        }
        shard.delete_volume(user, udf1.volume).unwrap();
        let udf2 = shard
            .create_udf(user, VolumeId::new(201), "Two", SimTime::ZERO)
            .unwrap();
        assert_eq!(udf2.generation, 0);
        assert_eq!(udf2.node_count, 0);
        let (generation, live) = shard.get_from_scratch(udf2.volume, |r| r).unwrap();
        assert_eq!(generation, 0);
        assert!(live.is_empty(), "recycled volume slot must start empty");
        // Node slots are recycled too: new nodes land in the new volume.
        let n = shard
            .make_node(
                user,
                udf2.volume,
                NodeId::new(50),
                None,
                NodeKind::File,
                "fresh",
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n.name, "fresh");
        assert_eq!(n.generation, 1);
        let (_, delta) = shard.get_delta(udf2.volume, 0, |r| r).unwrap();
        assert_eq!(delta.len(), 1, "delta must not see the old volume's log");
        // The old volume's ids are gone.
        assert!(shard.get_node(udf2.volume, NodeId::new(10)).is_err());
    }

    #[test]
    fn change_log_compaction_preserves_delta_semantics() {
        let (mut shard, user, root) = setup();
        let n = shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::File,
                "hot",
                SimTime::ZERO,
            )
            .unwrap();
        // Rewrite the same file far past the compaction floor: the log
        // accumulates stale entries and must compact without losing the
        // node's current entry.
        let mut last_generation = 0;
        for i in 0..300u64 {
            let (row, _) = shard
                .make_content(
                    user,
                    root,
                    n.node,
                    ContentHash::from_content_id(i + 1),
                    i + 1,
                    SimTime::from_secs(i),
                )
                .unwrap();
            last_generation = row.generation;
        }
        // From generation zero, exactly one (current) entry is visible.
        let (generation, delta) = shard.get_delta(root, 0, |r| r).unwrap();
        assert_eq!(generation, last_generation);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].generation, last_generation);
        assert_eq!(delta[0].size, 300);
        // From just before the last change, still exactly one.
        let (_, delta) = shard.get_delta(root, last_generation - 1, |r| r).unwrap();
        assert_eq!(delta.len(), 1);
        // From the current generation, nothing.
        let (_, delta) = shard.get_delta(root, last_generation, |r| r).unwrap();
        assert!(delta.is_empty());
    }

    #[test]
    fn permission_checks_apply() {
        let (mut shard, _user, root) = setup();
        let other = UserId::new(2);
        shard
            .create_user(other, VolumeId::new(300), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            shard.make_node(
                other,
                root,
                NodeId::new(9),
                None,
                NodeKind::File,
                "x",
                SimTime::ZERO
            ),
            Err(CoreError::PermissionDenied(_))
        ));
        assert!(matches!(
            shard.delete_volume(other, root),
            Err(CoreError::PermissionDenied(_))
        ));
    }

    #[test]
    fn uploadjob_lifecycle_and_gc() {
        let (mut shard, user, root) = setup();
        let n = shard
            .make_node(
                user,
                root,
                NodeId::new(1),
                None,
                NodeKind::File,
                "big",
                SimTime::ZERO,
            )
            .unwrap();
        let up = UploadId::new(50);
        let h = ContentHash::from_content_id(9);
        shard
            .make_uploadjob(user, root, n.node, up, h, 10_000_000, SimTime::ZERO)
            .unwrap();
        // Parts before multipart id are rejected.
        assert!(shard
            .add_part_to_uploadjob(up, 5_000_000, SimTime::ZERO)
            .is_err());
        shard
            .set_uploadjob_multipart_id(up, 777, SimTime::ZERO)
            .unwrap();
        assert!(shard
            .set_uploadjob_multipart_id(up, 778, SimTime::ZERO)
            .is_err());
        shard
            .add_part_to_uploadjob(up, 5_000_000, SimTime::ZERO)
            .unwrap();
        let received = shard.add_part_to_uploadjob(up, 5_000_000, SimTime::ZERO);
        assert_eq!(received, Ok(10_000_000), "every declared byte");
        // GC: a week-old untouched job is reaped, a fresh one is not.
        let week = SimDuration::from_days(7);
        let reaped = shard.gc_uploadjobs(SimTime::from_days(3), week);
        assert!(reaped.is_empty());
        let reaped = shard.gc_uploadjobs(SimTime::from_days(8), week);
        assert_eq!(reaped.len(), 1);
        assert!(shard.get_uploadjob(up).is_err());
    }

    // ----- the per-user volume list against a scan of every slot ----------

    /// `list_volumes` as it was before the per-user list: filter the whole
    /// volume slab by owner. The definition the list has to reproduce.
    fn scan_list_volumes(shard: &Shard, user: UserId) -> CoreResult<Vec<VolumeRow>> {
        shard.get_user_data(user)?;
        let mut vols: Vec<VolumeRow> = (0..shard.volume_slots.len())
            .filter(|&i| {
                let v = &shard.volume_slots[i];
                v.alive && v.owner == user
            })
            .map(|i| shard.volume_row(i as u32))
            .collect();
        vols.sort_by_key(|v| v.volume);
        Ok(vols)
    }

    /// `create_udf`'s duplicate-name probe as it was: any live volume of
    /// `user` anywhere in the slab carrying `name`.
    fn scan_has_volume_named(shard: &Shard, user: UserId, name: &str) -> bool {
        shard.names.lookup(name).is_some_and(|id| {
            shard
                .volume_slots
                .iter()
                .any(|v| v.alive && v.owner == user && v.name == id)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random create_user / create_udf / delete_volume / list_volumes
        /// histories — duplicate names, unknown and foreign users, root
        /// volumes, recycled slots — give the same rows in the same order
        /// and the same errors as the whole-slab scans did.
        #[test]
        fn per_user_volume_list_matches_a_scan_of_every_slot(
            steps in proptest::collection::vec((0u8..8, 0u64..7, 0u64..7, 0u8..5), 1..80),
        ) {
            let mut shard = Shard::new(ShardId::new(0));
            let mut next_volume = 100u64;
            let mut volumes: Vec<VolumeId> = Vec::new();
            for (kind, a, b, name) in steps {
                // Users 1..=6 may exist; user 7 (a == 6) never does.
                let user = UserId::new(a + 1);
                match kind {
                    0 | 1 if a < 6 => {
                        next_volume += 1;
                        let root = VolumeId::new(next_volume);
                        if shard.create_user(user, root, SimTime::ZERO).is_ok() {
                            volumes.push(root);
                        }
                    }
                    2..=4 => {
                        let name = ["", "Photos", "Music", "Docs", "Ubuntu One"][name as usize];
                        let expected = if shard.get_user_data(user).is_err() {
                            Err(CoreError::not_found(format!("user {user}")))
                        } else if name.is_empty() {
                            Err(CoreError::invalid("empty UDF name"))
                        } else if scan_has_volume_named(&shard, user, name) {
                            Err(CoreError::conflict(format!("UDF '{name}' exists")))
                        } else {
                            Ok(())
                        };
                        next_volume += 1;
                        let volume = VolumeId::new(next_volume);
                        let got = shard.create_udf(user, volume, name, SimTime::ZERO);
                        assert_eq!(got.as_ref().map(|_| ()).map_err(Clone::clone), expected);
                        if let Ok(row) = got {
                            assert_eq!((row.volume, row.owner, row.kind), (volume, user, VolumeKind::UserDefined));
                            volumes.push(volume);
                        }
                    }
                    5 | 6 if !volumes.is_empty() => {
                        // Any volume ever created (roots, live, deleted) by
                        // any user, its owner or not.
                        let volume = volumes[(b as usize * 13 + name as usize) % volumes.len()];
                        let owner_before = shard.get_volume(volume).map(|v| (v.owner, v.kind));
                        let got = shard.delete_volume(user, volume);
                        match owner_before {
                            Err(_) => assert!(matches!(got, Err(CoreError::NotFound(_)))),
                            Ok((owner, _)) if owner != user => {
                                assert!(matches!(got, Err(CoreError::PermissionDenied(_))))
                            }
                            Ok((_, VolumeKind::Root)) => {
                                assert!(matches!(got, Err(CoreError::Invalid(_))))
                            }
                            Ok(_) => assert!(got.is_ok()),
                        }
                    }
                    _ => {}
                }
                for u in 1..=7 {
                    let u = UserId::new(u);
                    assert_eq!(shard.list_volumes(u), scan_list_volumes(&shard, u), "{u}");
                }
            }
        }
    }
}
