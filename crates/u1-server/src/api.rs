//! API-server operation handlers — the server side of every Table-2
//! operation, shared by live TCP mode and virtual-time measurement mode.
//!
//! [`Backend::serve`] is the API server's one translation (§3, Appendix A):
//! a storage-protocol [`Request`] of one session in, the handler calls
//! that implement it, one answer out. The reactor and both client
//! transports reach the handlers through it; the workload driver calls
//! them directly.
//!
//! Each handler:
//! 1. resolves the session,
//! 2. executes the operation's DAL RPCs against the metadata store, with a
//!    sampled service time and an `rpc` trace record per call,
//! 3. performs any object-store work (multipart parts, GETs, deletes),
//! 4. logs one `storage_done` record with the summed duration, and
//! 5. pushes notifications to other affected clients.

use crate::backend::Backend;
use crate::session::SessionHandle;
use u1_core::{
    ApiOpKind, ContentHash, CoreError, CoreResult, NodeId, NodeKind, RpcKind, SessionId,
    SimDuration, UploadId, UserId, VolumeId, VolumeKind,
};
use u1_metastore::NodeRow;
use u1_proto::msg::{NodeInfo, Push, Request, Response, VolumeInfo};
use u1_trace::SessionEvent;

/// Result of `begin_upload`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadOutcome {
    /// Content already known — no bytes need to travel (§3.3 dedup).
    Deduplicated { node: NodeId, generation: u64 },
    /// A multipart upload job was created; stream chunks then commit.
    Started { upload: UploadId },
}

/// Result of a committed upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedUpload {
    pub node: NodeId,
    pub generation: u64,
    pub hash: ContentHash,
    pub bytes_transferred: u64,
}

/// A failed [`Backend::upload_file_with_recovery`] attempt. When `resume`
/// is `Some`, an upload job exists server-side and a later attempt can pick
/// up from the last part that arrived instead of restarting — the §3
/// rationale for upload jobs. `None` means nothing survived (the failure
/// predates job creation, or the job itself is gone).
#[derive(Debug, Clone)]
pub struct UploadFailure {
    pub resume: Option<UploadId>,
    pub error: CoreError,
}

fn ext_of(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.is_empty() => ext,
        _ => "",
    }
}

fn volume_info(row: &u1_metastore::VolumeRow, owner: Option<UserId>) -> VolumeInfo {
    VolumeInfo {
        volume: row.volume,
        kind: row.kind,
        generation: row.generation,
        owner,
        node_count: row.node_count,
    }
}

/// A node row as the protocol carries it. Listing handlers return rows;
/// [`Backend::serve`] converts each row here, once.
fn node_info(row: NodeRow) -> NodeInfo {
    NodeInfo {
        node: row.node,
        kind: row.kind,
        parent: row.parent,
        name: row.name,
        size: row.size,
        hash: row.content,
        generation: row.generation,
        is_dead: !row.is_live,
    }
}

/// One client's session as [`Backend::serve`] keeps it between requests:
/// the back-end session once authenticated, and the channel its pushes
/// arrive on when the client subscribed to them.
#[derive(Debug)]
pub struct SessionState {
    handle: Option<SessionHandle>,
    pushes: Option<crossbeam::channel::Receiver<Push>>,
    subscribe: bool,
}

impl SessionState {
    /// A client that has not authenticated yet; `subscribe_pushes`
    /// registers it for pushes when it does.
    pub fn new(subscribe_pushes: bool) -> Self {
        SessionState {
            handle: None,
            pushes: None,
            subscribe: subscribe_pushes,
        }
    }

    /// The back-end session, once authenticated.
    pub fn handle(&self) -> Option<&SessionHandle> {
        self.handle.as_ref()
    }

    /// Where this session's pushes arrive, when it subscribed.
    pub fn pushes(&self) -> Option<&crossbeam::channel::Receiver<Push>> {
        self.pushes.as_ref()
    }

    fn sid(&self) -> CoreResult<SessionId> {
        self.handle
            .as_ref()
            .map(|h| h.session)
            .ok_or_else(|| CoreError::permission_denied("no session"))
    }
}

/// What [`Backend::serve`] answers one request with.
#[derive(Debug)]
pub enum Served {
    /// Every request but `GetContent`: its one response.
    Response(Response),
    /// `GetContent`: the file's size and hash, and its bytes when the
    /// back-end stores real bytes. A connection frames them as
    /// `ContentBegin`, `ContentChunk`s and `ContentEnd`.
    Content {
        size: u64,
        hash: ContentHash,
        data: Option<Vec<u8>>,
    },
}

/// The protocol's "no node" (`0`) as a parent: the volume's root.
fn parent_of(id: NodeId) -> Option<NodeId> {
    (id.raw() != 0).then_some(id)
}

/// The answer to a request whose handler returns nothing the protocol
/// carries.
fn done<T>(_: T) -> Response {
    Response::Ok
}

fn created(n: NodeInfo) -> Response {
    Response::NodeCreated {
        node: n.node,
        generation: n.generation,
    }
}

fn delta(volume: VolumeId, (generation, rows): (u64, Vec<NodeRow>)) -> Response {
    Response::Delta {
        volume,
        generation,
        nodes: rows.into_iter().map(node_info).collect(),
    }
}

impl Backend {
    /// Serves one protocol request of the session `state` holds. Control
    /// requests need no session: `Ping`; `Authenticate` (a second one on
    /// the same session is a conflict and leaves the first intact);
    /// `QuerySetCaps` (accepted as asked, and traced only once there is a
    /// session); `Bye`, which closes the session *before* answering so a
    /// client that waits for the answer sees its teardown ordered. Every
    /// other request without a session is `denied`.
    pub fn serve(&self, state: &mut SessionState, req: Request) -> CoreResult<Served> {
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Authenticate { token } => {
                if state.handle.is_some() {
                    return Err(CoreError::conflict("already authenticated"));
                }
                let token = u1_auth::Token::from_bytes(&token)
                    .ok_or_else(|| CoreError::invalid("malformed token"))?;
                let h = self.open_session(token)?;
                if state.subscribe {
                    let (tx, rx) = crossbeam::channel::unbounded();
                    self.push_router.register(h.session, tx);
                    state.pushes = Some(rx);
                }
                let resp = Response::AuthOk {
                    session: h.session,
                    user: h.user,
                };
                state.handle = Some(h);
                resp
            }
            Request::QuerySetCaps { caps } => Response::Capabilities {
                accepted: match &state.handle {
                    Some(h) => self.query_set_caps(h.session, caps)?,
                    None => caps,
                },
            },
            Request::Bye => {
                if let Some(h) = state.handle.take() {
                    state.pushes = None;
                    let _ = self.close_session(h.session);
                }
                Response::Ok
            }
            Request::ListVolumes => Response::Volumes {
                volumes: self.list_volumes(state.sid()?)?,
            },
            Request::ListShares => Response::Volumes {
                volumes: self.list_shares(state.sid()?)?,
            },
            Request::CreateUdf { name } => {
                let v = self.create_udf(state.sid()?, &name)?;
                Response::VolumeCreated {
                    volume: v.volume,
                    generation: v.generation,
                }
            }
            Request::DeleteVolume { volume } => done(self.delete_volume(state.sid()?, volume)?),
            Request::MakeFile {
                volume,
                parent,
                name,
            } => {
                let kind = NodeKind::File;
                created(self.make_node(state.sid()?, volume, parent_of(parent), kind, &name)?)
            }
            Request::MakeDir {
                volume,
                parent,
                name,
            } => {
                let kind = NodeKind::Directory;
                created(self.make_node(state.sid()?, volume, parent_of(parent), kind, &name)?)
            }
            Request::Unlink { volume, node } => done(self.unlink(state.sid()?, volume, node)?),
            Request::Move {
                volume,
                node,
                new_parent,
                new_name,
            } => done(self.move_node(
                state.sid()?,
                volume,
                node,
                parent_of(new_parent),
                &new_name,
            )?),
            Request::GetDelta {
                volume,
                from_generation,
            } => delta(
                volume,
                self.get_delta(state.sid()?, volume, from_generation)?,
            ),
            Request::RescanFromScratch { volume } => {
                delta(volume, self.rescan_from_scratch(state.sid()?, volume)?)
            }
            Request::BeginUpload {
                volume,
                node,
                hash,
                size,
            } => match self.begin_upload(state.sid()?, volume, node, hash, size)? {
                UploadOutcome::Deduplicated { node, generation } => Response::UploadDone {
                    node,
                    generation,
                    hash,
                },
                UploadOutcome::Started { upload } => Response::UploadBegun {
                    upload,
                    reusable: false,
                },
            },
            Request::UploadChunk { upload, data } => {
                done(self.upload_chunk(state.sid()?, upload, data.len() as u64, Some(data))?)
            }
            Request::UploadChunkSparse { upload, len } => {
                let sid = state.sid()?;
                // Sparse chunks exist for the measurement path only; a
                // server storing real bytes must not account content it
                // never received.
                if self.cfg.store_real_bytes {
                    return Err(CoreError::invalid("sparse chunk on a real-bytes server"));
                }
                done(self.upload_chunk(sid, upload, len, None)?)
            }
            Request::CommitUpload { upload } => {
                let c = self.commit_upload(state.sid()?, upload)?;
                Response::UploadDone {
                    node: c.node,
                    generation: c.generation,
                    hash: c.hash,
                }
            }
            Request::CancelUpload { upload } => done(self.cancel_upload(state.sid()?, upload)?),
            Request::GetContent { volume, node } => {
                let (size, hash, data) = self.download(state.sid()?, volume, node)?;
                return Ok(Served::Content { size, hash, data });
            }
        };
        Ok(Served::Response(resp))
    }

    fn session(&self, session: SessionId) -> CoreResult<SessionHandle> {
        self.sessions
            .get(session)
            .ok_or_else(|| CoreError::not_found(format!("session {session}")))
    }

    // ----- provisioning ---------------------------------------------------

    /// First-time account setup: creates the store-side user (with root
    /// volume) and returns the OAuth token the desktop client will keep.
    /// Idempotent.
    pub fn register_user(&self, user: UserId) -> u1_auth::Token {
        let _ = self.store.create_user(user, self.now());
        self.auth.register(user, self.now())
    }

    /// Grants `to` access to `owner`'s volume and pushes `VolumeCreated` to
    /// the recipient's live sessions.
    pub fn create_share(&self, owner: UserId, volume: VolumeId, to: UserId) -> CoreResult<()> {
        self.store.create_share(owner, volume, to, self.now())?;
        for sess in self.sessions.sessions_of(to) {
            self.push_router.deliver(
                sess.session,
                Push::VolumeCreated {
                    volume,
                    kind: VolumeKind::Shared,
                },
                true,
            );
        }
        Ok(())
    }

    // ----- session lifecycle ------------------------------------------------

    /// The Authenticate flow (§3.4.1): resolve the token — against the
    /// memcached-style token cache when one is configured, else with one
    /// `auth.get_user_id_from_token` RPC — then establish the session on
    /// the least-loaded process.
    pub fn open_session(&self, token: u1_auth::Token) -> CoreResult<SessionHandle> {
        let slot = self.cluster.place_session();
        if !self.faults.is_none() && self.faults.auth_down(self.now()) {
            // Auth-service outage window: the SSO backend is unreachable.
            // The memcached tier keeps serving whatever it still holds —
            // even past the TTL — so already-seen clients stay able to
            // connect; everyone else fails until the outage ends.
            if let Some(user) = self
                .token_cache
                .as_ref()
                .and_then(|cache| cache.lookup_stale(token))
            {
                self.auth_fallbacks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return self.establish_session(slot, user);
            }
            u1_core::fault::set_error_class(Some(u1_core::fault::ErrorClass::AuthOutage));
            self.log_auth(slot, UserId::new(0), false);
            self.cluster.release_session(slot);
            return Err(CoreError::unavailable("auth service outage"));
        }
        if let Some(cache) = &self.token_cache {
            if let Some(user) = cache.lookup(token, self.now()) {
                // Cache hit: no auth-service round trip at all, so neither
                // the `GetUserIdFromToken` rpc record nor the `auth` record
                // is emitted — exactly what memcached saved the real system.
                return self.establish_session(slot, user);
            }
        }
        if let Err(e) = self.rpc(slot, UserId::new(0), RpcKind::GetUserIdFromToken, 0) {
            self.cluster.release_session(slot);
            return Err(e);
        }
        match self.auth.get_user_id_from_token(token, self.now()) {
            Ok(user) => {
                self.log_auth(slot, user, true);
                if let Some(cache) = &self.token_cache {
                    cache.insert(token, user, self.now());
                }
                self.establish_session(slot, user)
            }
            Err(e) => {
                self.log_auth(slot, UserId::new(0), false);
                self.cluster.release_session(slot);
                Err(e)
            }
        }
    }

    /// Post-auth session start-up: the `GetUserData`/`GetRoot` reads, the
    /// session-table entry and the `session open` trace record.
    fn establish_session(
        &self,
        slot: crate::cluster::Slot,
        user: UserId,
    ) -> CoreResult<SessionHandle> {
        let prep = self
            .rpc(slot, user, RpcKind::GetUserData, 0)
            .and_then(|_| self.rpc(slot, user, RpcKind::GetRoot, 0))
            .and_then(|_| self.store.get_user_data(user).map(|_| ()));
        if let Err(e) = prep {
            // The slot was only reserved; without release a shard outage
            // would leak cluster capacity on every failed open.
            self.cluster.release_session(slot);
            return Err(e);
        }
        let handle = self.sessions.open(user, slot, self.now());
        self.log_session_event(&handle, SessionEvent::Open);
        Ok(handle)
    }

    /// Ends a session (client disconnect, NAT cut, crash — they all look
    /// the same: the TCP connection dies, §3.1.1).
    pub fn close_session(&self, session: SessionId) -> CoreResult<()> {
        let (handle, _ops, _data_ops) = self
            .sessions
            .close(session)
            .ok_or_else(|| CoreError::not_found(format!("session {session}")))?;
        self.push_router.unregister(session);
        self.cluster.release_session(handle.slot);
        self.log_session_event(&handle, SessionEvent::Close);
        Ok(())
    }

    /// Capability negotiation (appears in the Fig. 8 startup flow).
    pub fn query_set_caps(&self, session: SessionId, caps: Vec<String>) -> CoreResult<Vec<String>> {
        let h = self.session(session)?;
        self.log_storage(
            &h,
            ApiOpKind::QuerySetCaps,
            VolumeId::new(0),
            None,
            None,
            0,
            None,
            "",
            true,
            SimDuration::from_micros(50),
        );
        Ok(caps)
    }

    // ----- volume operations -------------------------------------------------

    /// ListVolumes: all volumes of the user — root, UDFs and shares.
    pub fn list_volumes(&self, session: SessionId) -> CoreResult<Vec<VolumeInfo>> {
        let h = self.session(session)?;
        let d = self.rpc(h.slot, h.user, RpcKind::ListVolumes, 0)?;
        let result = self.store.list_volumes(h.user).map(|owned| {
            let mut vols: Vec<VolumeInfo> = owned.iter().map(|v| volume_info(v, None)).collect();
            if let Ok(shares) = self.store.list_shares(h.user) {
                vols.extend(shares.iter().map(|(v, owner)| {
                    let mut info = volume_info(v, Some(*owner));
                    info.kind = VolumeKind::Shared;
                    info
                }));
            }
            vols
        });
        self.log_storage(
            &h,
            ApiOpKind::ListVolumes,
            VolumeId::new(0),
            None,
            None,
            0,
            None,
            "",
            result.is_ok(),
            d,
        );
        result
    }

    /// ListShares: only the volumes shared *to* this user.
    pub fn list_shares(&self, session: SessionId) -> CoreResult<Vec<VolumeInfo>> {
        let h = self.session(session)?;
        let d = self.rpc(h.slot, h.user, RpcKind::ListShares, 0)?;
        let result = self.store.list_shares(h.user).map(|shares| {
            shares
                .iter()
                .map(|(v, owner)| {
                    let mut info = volume_info(v, Some(*owner));
                    info.kind = VolumeKind::Shared;
                    info
                })
                .collect::<Vec<_>>()
        });
        self.log_storage(
            &h,
            ApiOpKind::ListShares,
            VolumeId::new(0),
            None,
            None,
            0,
            None,
            "",
            result.is_ok(),
            d,
        );
        result
    }

    /// CreateUDF.
    pub fn create_udf(&self, session: SessionId, name: &str) -> CoreResult<VolumeInfo> {
        let h = self.session(session)?;
        let d = self.rpc(h.slot, h.user, RpcKind::CreateUdf, 0)?;
        let result = self.store.create_udf(h.user, name, self.now());
        self.log_storage(
            &h,
            ApiOpKind::CreateUdf,
            result.as_ref().map(|v| v.volume).unwrap_or_default(),
            None,
            None,
            0,
            None,
            "",
            result.is_ok(),
            d,
        );
        let row = result?;
        // The user's *other* devices learn about the new volume by push.
        for sess in self.sessions.sessions_of(h.user) {
            if sess.session != session {
                self.push_router.deliver(
                    sess.session,
                    Push::VolumeCreated {
                        volume: row.volume,
                        kind: VolumeKind::UserDefined,
                    },
                    sess.slot == h.slot,
                );
            }
        }
        Ok(volume_info(&row, None))
    }

    /// DeleteVolume — the cascade operation.
    pub fn delete_volume(&self, session: SessionId, volume: VolumeId) -> CoreResult<u64> {
        let h = self.session(session)?;
        // The cascade runs first: its size is what the RPC's service time
        // is sampled from. So by the time the RPC can fail the rows are
        // gone, and the rest of the operation — deleting the blobs the
        // cascade released, logging the op — must happen either way.
        let result = self.store.delete_volume(h.user, volume);
        let rows = result.as_ref().map(|r| r.dead.len() as u64).unwrap_or(0);
        let (d, rpc) = self.rpc_timed(h.slot, h.user, RpcKind::DeleteVolume, rows);
        if let Ok(released) = &result {
            for hash in &released.unreferenced {
                self.blobs.delete(*hash);
            }
        }
        self.log_storage(
            &h,
            ApiOpKind::DeleteVolume,
            volume,
            None,
            None,
            0,
            None,
            "",
            result.is_ok() && rpc.is_ok(),
            d,
        );
        rpc?;
        let released = result?;
        // Other devices of this user learn the volume is gone.
        for sess in self.sessions.sessions_of(h.user) {
            if sess.session != session {
                self.push_router.deliver(
                    sess.session,
                    Push::VolumeDeleted { volume },
                    sess.slot == h.slot,
                );
            }
        }
        Ok(released.dead.len() as u64)
    }

    // ----- namespace operations ----------------------------------------------

    /// Make (file or directory): creates the metadata entry; for files this
    /// "normally precedes a file upload" (Table 2).
    pub fn make_node(
        &self,
        session: SessionId,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
    ) -> CoreResult<NodeInfo> {
        let h = self.session(session)?;
        let rpc_kind = match kind {
            NodeKind::File => RpcKind::MakeFile,
            NodeKind::Directory => RpcKind::MakeDir,
        };
        let op = match kind {
            NodeKind::File => ApiOpKind::MakeFile,
            NodeKind::Directory => ApiOpKind::MakeDir,
        };
        let d = self.rpc(h.slot, h.user, rpc_kind, 0)?;
        let result = self
            .store
            .make_node(h.user, volume, parent, kind, name, self.now());
        self.log_storage(
            &h,
            op,
            volume,
            result.as_ref().ok().map(|n| n.node),
            Some(kind),
            0,
            None,
            ext_of(name),
            result.is_ok(),
            d,
        );
        let row = result?;
        self.notify_change(
            &h,
            volume,
            Push::VolumeChanged {
                volume,
                generation: row.generation,
            },
        );
        Ok(node_info(row))
    }

    /// Unlink.
    pub fn unlink(&self, session: SessionId, volume: VolumeId, node: NodeId) -> CoreResult<u64> {
        let h = self.session(session)?;
        let d = self.rpc(h.slot, h.user, RpcKind::UnlinkNode, 0)?;
        // Capture identity before deletion for the trace record.
        let pre = self.store.get_node(h.user, volume, node).ok();
        let result = self.store.unlink(h.user, volume, node, self.now());
        self.log_storage(
            &h,
            ApiOpKind::Unlink,
            volume,
            Some(node),
            pre.as_ref().map(|n| n.kind),
            0,
            pre.as_ref().and_then(|n| n.content),
            pre.as_ref().map(|n| ext_of(&n.name)).unwrap_or(""),
            result.is_ok(),
            d,
        );
        let released = result?;
        for hash in &released.unreferenced {
            self.blobs.delete(*hash);
        }
        let generation = self
            .store
            .get_delta(h.user, volume, u64::MAX)
            .map(|(g, _)| g)
            .unwrap_or(0);
        self.notify_change(&h, volume, Push::VolumeChanged { volume, generation });
        Ok(released.dead.len() as u64)
    }

    /// Move.
    pub fn move_node(
        &self,
        session: SessionId,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
    ) -> CoreResult<NodeInfo> {
        let h = self.session(session)?;
        let d = self.rpc(h.slot, h.user, RpcKind::Move, 0)?;
        let result = self
            .store
            .move_node(h.user, volume, node, new_parent, new_name, self.now());
        self.log_storage(
            &h,
            ApiOpKind::Move,
            volume,
            Some(node),
            result.as_ref().ok().map(|n| n.kind),
            0,
            None,
            ext_of(new_name),
            result.is_ok(),
            d,
        );
        let row = result?;
        self.notify_change(
            &h,
            volume,
            Push::VolumeChanged {
                volume,
                generation: row.generation,
            },
        );
        Ok(node_info(row))
    }

    /// GetDelta: changes since a known generation, as the shard's rows.
    pub fn get_delta(
        &self,
        session: SessionId,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<NodeRow>)> {
        let h = self.session(session)?;
        let d1 = self.rpc(h.slot, h.user, RpcKind::GetVolumeId, 0)?;
        let d2 = self.rpc(h.slot, h.user, RpcKind::GetDelta, 0)?;
        let result = self.store.get_delta(h.user, volume, from_generation);
        self.log_storage(
            &h,
            ApiOpKind::GetDelta,
            volume,
            None,
            None,
            0,
            None,
            "",
            result.is_ok(),
            d1 + d2,
        );
        result
    }

    /// RescanFromScratch: the full-volume cascade read, as the shard's rows.
    pub fn rescan_from_scratch(
        &self,
        session: SessionId,
        volume: VolumeId,
    ) -> CoreResult<(u64, Vec<NodeRow>)> {
        let h = self.session(session)?;
        let result = self.store.get_from_scratch(h.user, volume);
        let rows = result.as_ref().map(|(_, v)| v.len() as u64).unwrap_or(0);
        let d = self.rpc(h.slot, h.user, RpcKind::GetFromScratch, rows)?;
        self.log_storage(
            &h,
            ApiOpKind::RescanFromScratch,
            volume,
            None,
            None,
            0,
            None,
            "",
            result.is_ok(),
            d,
        );
        result
    }

    // ----- transfers (Appendix A) ----------------------------------------------

    /// Upload phase 1: the dedup probe and, on a miss, upload-job setup.
    /// The client sent the SHA-1 *before* any content (§3.3).
    pub fn begin_upload(
        &self,
        session: SessionId,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
    ) -> CoreResult<UploadOutcome> {
        let h = self.session(session)?;
        let mut d = self.rpc(h.slot, h.user, RpcKind::GetReusableContent, 0)?;
        let node_row = self.store.get_node(h.user, volume, node)?;
        // The content index view is the source of truth for dedup: a hash
        // visible to this partition is either epoch-committed (its blob is
        // guaranteed by seal-time reconciliation) or was put by this
        // partition earlier in the epoch.
        if self.store.get_reusable_content(hash, size).is_some() {
            // Dedup hit: link and finish — no transfer.
            d = d + self.rpc(h.slot, h.user, RpcKind::MakeContent, 0)?;
            let (row, released) =
                self.store
                    .make_content(h.user, volume, node, hash, size, self.now())?;
            if let Some(old) = released {
                self.blobs.delete(old);
            }
            self.log_storage(
                &h,
                ApiOpKind::Upload,
                volume,
                Some(node),
                Some(NodeKind::File),
                size,
                Some(hash),
                ext_of(&node_row.name),
                true,
                d,
            );
            self.notify_change(
                &h,
                volume,
                Push::VolumeChanged {
                    volume,
                    generation: row.generation,
                },
            );
            return Ok(UploadOutcome::Deduplicated {
                node,
                generation: row.generation,
            });
        }
        // Miss: set up the multipart upload job.
        self.rpc(h.slot, h.user, RpcKind::MakeUploadJob, 0)?;
        let job = self
            .store
            .make_uploadjob(h.user, volume, node, hash, size, self.now())?;
        let mp = self.blobs.initiate_multipart(self.now());
        self.rpc(h.slot, h.user, RpcKind::SetUploadJobMultipartId, 0)?;
        self.store
            .set_uploadjob_multipart_id(h.user, job.upload, mp, self.now())?;
        Ok(UploadOutcome::Started { upload: job.upload })
    }

    /// Upload phase 2: one chunk. The API server forwards it to the object
    /// store as a multipart part and records it in the upload job.
    pub fn upload_chunk(
        &self,
        session: SessionId,
        upload: UploadId,
        len: u64,
        data: Option<Vec<u8>>,
    ) -> CoreResult<()> {
        let h = self.session(session)?;
        self.rpc(h.slot, h.user, RpcKind::AddPartToUploadJob, 0)?;
        // Put the part *before* recording it in the upload job: a failed
        // put must leave no metadata claiming bytes the object store never
        // received, or a later commit would complete a short multipart.
        let mp = self
            .store
            .get_uploadjob(h.user, upload)?
            .multipart_id
            .ok_or_else(|| CoreError::invalid("uploadjob has no multipart id"))?;
        self.blobs
            .upload_part(
                mp,
                len,
                if self.cfg.store_real_bytes {
                    data
                } else {
                    None
                },
            )
            .map_err(|e| match e {
                u1_blobstore::MultipartError::PartPutFailed => {
                    CoreError::unavailable(e.to_string())
                }
                other => CoreError::invalid(other.to_string()),
            })?;
        self.store
            .add_part_to_uploadjob(h.user, upload, len, self.now())?;
        Ok(())
    }

    /// Upload phase 3: commit. Completes the S3 multipart, attaches content
    /// to the node, deletes the upload job, logs the Upload operation.
    pub fn commit_upload(
        &self,
        session: SessionId,
        upload: UploadId,
    ) -> CoreResult<CommittedUpload> {
        let h = self.session(session)?;
        let mut d = self.rpc(h.slot, h.user, RpcKind::GetUploadJob, 0)?;
        let job = self.store.get_uploadjob(h.user, upload)?;
        if !job.is_complete() {
            return Err(CoreError::invalid(format!(
                "upload {upload} incomplete: {}/{} bytes",
                job.bytes_received(),
                job.declared_size
            )));
        }
        let mp = job
            .multipart_id
            .ok_or_else(|| CoreError::invalid("uploadjob has no multipart id"))?;
        self.blobs
            .complete_multipart(mp, job.hash, self.now())
            .map_err(|e| CoreError::invalid(e.to_string()))?;
        d = d + self.rpc(h.slot, h.user, RpcKind::MakeContent, 0)?;
        let (row, released) = self.store.make_content(
            h.user,
            job.volume,
            job.node,
            job.hash,
            job.declared_size,
            self.now(),
        )?;
        if let Some(old) = released {
            self.blobs.delete(old);
        }
        d = d + self.rpc(h.slot, h.user, RpcKind::DeleteUploadJob, 0)?;
        self.store.delete_uploadjob(h.user, upload)?;
        let node_row = self.store.get_node(h.user, job.volume, job.node)?;
        d = d + self.transfer_time(job.declared_size);
        self.log_storage(
            &h,
            ApiOpKind::Upload,
            job.volume,
            Some(job.node),
            Some(NodeKind::File),
            job.declared_size,
            Some(job.hash),
            ext_of(&node_row.name),
            true,
            d,
        );
        self.notify_change(
            &h,
            job.volume,
            Push::VolumeChanged {
                volume: job.volume,
                generation: row.generation,
            },
        );
        Ok(CommittedUpload {
            node: job.node,
            generation: row.generation,
            hash: job.hash,
            bytes_transferred: job.declared_size,
        })
    }

    /// Client-side cancellation of an in-flight upload.
    pub fn cancel_upload(&self, session: SessionId, upload: UploadId) -> CoreResult<()> {
        let h = self.session(session)?;
        self.rpc(h.slot, h.user, RpcKind::DeleteUploadJob, 0)?;
        let job = self.store.delete_uploadjob(h.user, upload)?;
        if let Some(mp) = job.multipart_id {
            let _ = self.blobs.abort_multipart(mp);
        }
        Ok(())
    }

    /// The upload schedule (Appendix A) with no content bytes: the dedup
    /// probe, then one size-only part per 5MB of S3 part size, then the
    /// commit. Returns (deduplicated, bytes transferred). `resume`
    /// continues an interrupted upload job from its last recorded part
    /// instead of restarting the transfer.
    pub fn upload_file_with_recovery(
        &self,
        session: SessionId,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
        resume: Option<UploadId>,
    ) -> Result<(bool, u64), UploadFailure> {
        let fail =
            |resume: Option<UploadId>| move |error: CoreError| UploadFailure { resume, error };
        let (upload, received) = match resume {
            Some(upload) => {
                // If the job was reaped (week-old GC) this fails NotFound
                // with `resume: None`: nothing left to continue from.
                let job = self
                    .session(session)
                    .and_then(|h| self.store.get_uploadjob(h.user, upload))
                    .map_err(fail(None))?;
                (upload, job.bytes_received())
            }
            None => match self
                .begin_upload(session, volume, node, hash, size)
                .map_err(fail(None))?
            {
                UploadOutcome::Deduplicated { .. } => return Ok((true, 0)),
                UploadOutcome::Started { upload } => (upload, 0),
            },
        };
        // An empty file still travels as one (1-byte-long, empty) part.
        let total = size.max(1);
        let mut sent = received.min(total);
        while sent < total {
            let part = (total - sent).min(u1_blobstore::PART_SIZE);
            self.upload_chunk(session, upload, part, None)
                .map_err(fail(Some(upload)))?;
            sent += part;
        }
        let committed = self
            .commit_upload(session, upload)
            .map_err(fail(Some(upload)))?;
        Ok((false, committed.bytes_transferred))
    }

    /// Download (GetContent). Returns (size, hash, bytes-if-live).
    pub fn download(
        &self,
        session: SessionId,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<(u64, ContentHash, Option<Vec<u8>>)> {
        let h = self.session(session)?;
        let d = self.rpc(h.slot, h.user, RpcKind::GetNode, 0)?;
        let row = self.store.get_node(h.user, volume, node);
        let result = match &row {
            Ok(r) => match (r.kind, r.content) {
                // Presence is answered by the content index (like the dedup
                // probe); the node row carries the size and the blob store is
                // only consulted for live bytes and read accounting.
                (NodeKind::File, Some(hash)) => {
                    if self.store.content_visible(hash) {
                        let data = self.blobs.get(hash, self.now()).and_then(|(_, d)| d);
                        Ok((r.size, hash, data))
                    } else {
                        Err(CoreError::not_found(format!("content of {node}")))
                    }
                }
                _ => Err(CoreError::invalid(format!("{node} has no content"))),
            },
            Err(e) => Err(e.clone()),
        };
        let size = result.as_ref().map(|(s, _, _)| *s).unwrap_or(0);
        self.log_storage(
            &h,
            ApiOpKind::Download,
            volume,
            Some(node),
            row.as_ref().ok().map(|r| r.kind),
            size,
            result.as_ref().ok().map(|(_, h, _)| *h),
            row.as_ref().map(|r| ext_of(&r.name)).unwrap_or(""),
            result.is_ok(),
            d + self.transfer_time(size),
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendConfig;
    use std::sync::Arc;
    use u1_core::{Sha1, SimClock};
    use u1_trace::MemorySink;

    fn backend() -> (Arc<Backend>, Arc<MemorySink>, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let sink = Arc::new(MemorySink::new());
        let cfg = BackendConfig {
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            store_real_bytes: true,
            ..Default::default()
        };
        let backend = Arc::new(Backend::new(cfg, clock.clone(), sink.clone()));
        (backend, sink, clock)
    }

    fn open(b: &Backend, user: u64) -> SessionHandle {
        let token = b.register_user(UserId::new(user));
        b.open_session(token).unwrap()
    }

    /// A fresh upload of size-only parts, with nothing to resume.
    fn upload(
        b: &Backend,
        h: &SessionHandle,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
    ) -> CoreResult<(bool, u64)> {
        b.upload_file_with_recovery(h.session, volume, node, hash, size, None)
            .map_err(|fail| fail.error)
    }

    #[test]
    fn session_lifecycle_with_auth() {
        let (b, sink, _clock) = backend();
        let h = open(&b, 1);
        assert_eq!(b.sessions.live_count(), 1);
        b.close_session(h.session).unwrap();
        assert_eq!(b.sessions.live_count(), 0);
        let recs = sink.take_sorted();
        let kinds: Vec<&str> = recs.iter().map(|r| r.payload.request_type()).collect();
        assert!(kinds.contains(&"auth"));
        assert!(kinds.contains(&"session"));
        assert!(kinds.contains(&"rpc"));
    }

    #[test]
    fn token_cache_skips_auth_round_trip_on_repeat_opens() {
        let clock = Arc::new(SimClock::new());
        let sink = Arc::new(MemorySink::new());
        let cfg = BackendConfig {
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            auth_cache_ttl: Some(SimDuration::from_hours(8)),
            ..Default::default()
        };
        let b = Backend::new(cfg, clock, sink.clone());
        let user = UserId::new(1);
        let token = b.register_user(user);

        let h1 = b.open_session(token).unwrap();
        b.close_session(h1.session).unwrap();
        let h2 = b.open_session(token).unwrap();
        b.close_session(h2.session).unwrap();

        let stats = b.token_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The cache hit skips both the GetUserIdFromToken rpc record and
        // the auth record: one of each for two session opens.
        let recs = sink.take_sorted();
        let auths = recs
            .iter()
            .filter(|r| matches!(r.payload, u1_trace::Payload::Auth { .. }))
            .count();
        let token_rpcs = recs
            .iter()
            .filter(|r| {
                matches!(
                    r.payload,
                    u1_trace::Payload::Rpc {
                        rpc: RpcKind::GetUserIdFromToken,
                        ..
                    }
                )
            })
            .count();
        assert_eq!((auths, token_rpcs), (1, 1));
        assert_eq!(b.auth.stats().validations, 1);

        // Banning the user invalidates the cached token immediately.
        b.ban_user(user);
        assert!(b.open_session(token).is_err());
    }

    #[test]
    fn bad_token_is_rejected_and_logged() {
        let (b, sink, _clock) = backend();
        let bogus = u1_auth::Token([7u8; 16]);
        assert!(b.open_session(bogus).is_err());
        let recs = sink.take_sorted();
        let auth_fail = recs
            .iter()
            .any(|r| matches!(r.payload, u1_trace::Payload::Auth { success: false, .. }));
        assert!(auth_fail);
        assert_eq!(b.sessions.live_count(), 0);
    }

    #[test]
    fn full_upload_download_round_trip_with_real_bytes() {
        let (b, _sink, _clock) = backend();
        let h = open(&b, 1);
        let root = b.list_volumes(h.session).unwrap()[0].volume;
        let node = b
            .make_node(h.session, root, None, NodeKind::File, "hello.txt")
            .unwrap();
        let data = b"hello, personal cloud".to_vec();
        let hash = Sha1::digest(&data);

        match b
            .begin_upload(h.session, root, node.node, hash, data.len() as u64)
            .unwrap()
        {
            UploadOutcome::Started { upload } => {
                b.upload_chunk(h.session, upload, data.len() as u64, Some(data.clone()))
                    .unwrap();
                let committed = b.commit_upload(h.session, upload).unwrap();
                assert_eq!(committed.hash, hash);
            }
            other => panic!("expected Started, got {other:?}"),
        }
        let (size, got_hash, got_data) = b.download(h.session, root, node.node).unwrap();
        assert_eq!(size, data.len() as u64);
        assert_eq!(got_hash, hash);
        assert_eq!(got_data.unwrap(), data);
    }

    #[test]
    fn second_upload_of_same_content_deduplicates() {
        let (b, _sink, _clock) = backend();
        let h1 = open(&b, 1);
        let h2 = open(&b, 2);
        let v1 = b.list_volumes(h1.session).unwrap()[0].volume;
        let v2 = b.list_volumes(h2.session).unwrap()[0].volume;
        let n1 = b
            .make_node(h1.session, v1, None, NodeKind::File, "song.mp3")
            .unwrap();
        let n2 = b
            .make_node(h2.session, v2, None, NodeKind::File, "same.mp3")
            .unwrap();
        let hash = ContentHash::from_content_id(77);

        let (dedup, sent) = upload(&b, &h1, v1, n1.node, hash, 8_000_000).unwrap();
        assert!(!dedup);
        assert_eq!(sent, 8_000_000);
        let (dedup, sent) = upload(&b, &h2, v2, n2.node, hash, 8_000_000).unwrap();
        assert!(dedup, "cross-user dedup should hit");
        assert_eq!(sent, 0);
        assert!((b.store.dedup_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(b.blobs.stats().objects, 1);
    }

    /// The driver's one-call upload and a protocol client's BeginUpload,
    /// sparse parts and CommitUpload through `serve` are the same back-end
    /// calls: the same upload either way emits the same trace records.
    #[test]
    fn recovery_upload_and_served_requests_emit_the_same_records() {
        let run = |served: bool| {
            let sink = Arc::new(MemorySink::new());
            let cfg = BackendConfig {
                auth: u1_auth::AuthConfig {
                    transient_failure_rate: 0.0,
                    token_ttl: None,
                },
                ..Default::default()
            };
            let b = Backend::new(cfg, Arc::new(SimClock::new()), sink.clone());
            let token = b.register_user(UserId::new(1));
            let mut state = SessionState::new(false);
            let auth = Request::Authenticate {
                token: token.as_bytes().to_vec(),
            };
            b.serve(&mut state, auth).unwrap();
            let sid = state.sid().unwrap();
            let v = b.list_volumes(sid).unwrap()[0].volume;
            let n = b
                .make_node(sid, v, None, NodeKind::File, "film.avi")
                .unwrap()
                .node;
            let hash = ContentHash::from_content_id(21);
            let part = u1_blobstore::PART_SIZE;
            let size = 2 * part + 5; // three parts
            let mut upload = || -> CoreResult<(bool, u64)> {
                if !served {
                    return b
                        .upload_file_with_recovery(sid, v, n, hash, size, None)
                        .map_err(|fail| fail.error);
                }
                let begin = Request::BeginUpload {
                    volume: v,
                    node: n,
                    hash,
                    size,
                };
                let upload = match b.serve(&mut state, begin)? {
                    Served::Response(Response::UploadBegun { upload, .. }) => upload,
                    Served::Response(Response::UploadDone { .. }) => return Ok((true, 0)),
                    other => panic!("begin: {other:?}"),
                };
                for len in [part, part, 5] {
                    b.serve(&mut state, Request::UploadChunkSparse { upload, len })?;
                }
                b.serve(&mut state, Request::CommitUpload { upload })?;
                Ok((false, size))
            };
            assert_eq!(upload(), Ok((false, size)));
            // And again: the dedup probe answers, nothing travels.
            assert_eq!(upload(), Ok((true, 0)));
            sink.take_sorted()
        };
        let (recovery, served) = (run(false), run(true));
        assert!(
            recovery.len() > 10,
            "begin, three parts, commit, dedup probe"
        );
        assert_eq!(recovery, served);
    }

    #[test]
    fn incomplete_upload_cannot_commit_but_can_resume() {
        let (b, _sink, _clock) = backend();
        let h = open(&b, 1);
        let v = b.list_volumes(h.session).unwrap()[0].volume;
        let n = b
            .make_node(h.session, v, None, NodeKind::File, "big.iso")
            .unwrap();
        let hash = ContentHash::from_content_id(5);
        let size = 12 * 1024 * 1024u64;
        let upload = match b.begin_upload(h.session, v, n.node, hash, size).unwrap() {
            UploadOutcome::Started { upload } => upload,
            other => panic!("{other:?}"),
        };
        b.upload_chunk(h.session, upload, 5 << 20, None).unwrap();
        // Interrupted: commit refuses.
        assert!(b.commit_upload(h.session, upload).is_err());
        // Resume: the job remembers the received parts.
        let job = b.store.get_uploadjob(h.user, upload).unwrap();
        assert_eq!(job.bytes_received(), 5 << 20);
        b.upload_chunk(h.session, upload, 5 << 20, None).unwrap();
        b.upload_chunk(h.session, upload, size - (10 << 20), None)
            .unwrap();
        assert!(b.commit_upload(h.session, upload).is_ok());
    }

    #[test]
    fn crashed_upload_resumes_from_last_part_not_from_scratch() {
        let (b, sink, _clock) = backend();
        let h = open(&b, 1);
        let v = b.list_volumes(h.session).unwrap()[0].volume;
        let n = b
            .make_node(h.session, v, None, NodeKind::File, "video.avi")
            .unwrap();
        let hash = ContentHash::from_content_id(9);
        let size = 12 << 20; // three 5MB parts
        let upload = match b.begin_upload(h.session, v, n.node, hash, size).unwrap() {
            UploadOutcome::Started { upload } => upload,
            other => panic!("{other:?}"),
        };
        // Client crashes after the first part.
        b.upload_chunk(h.session, upload, 5 << 20, None).unwrap();
        let _ = sink.take_sorted();

        // The recovery path continues the same job: only the two missing
        // parts travel again, then the commit lands.
        let (dedup, sent) = b
            .upload_file_with_recovery(h.session, v, n.node, hash, size, Some(upload))
            .unwrap();
        assert!(!dedup);
        assert_eq!(sent, size);
        let part_rpcs = sink
            .take_sorted()
            .iter()
            .filter(|r| {
                matches!(
                    r.payload,
                    u1_trace::Payload::Rpc {
                        rpc: RpcKind::AddPartToUploadJob,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(part_rpcs, 2, "resume must not re-send the first part");
        assert!(b.blobs.contains(hash));
        assert!(b.store.get_uploadjob(h.user, upload).is_err(), "job gone");
    }

    #[test]
    fn gc_reaps_crashed_uploads_leaving_no_orphaned_parts() {
        let (b, _sink, clock) = backend();
        let h = open(&b, 1);
        let v = b.list_volumes(h.session).unwrap()[0].volume;
        let n = b
            .make_node(h.session, v, None, NodeKind::File, "orphan.iso")
            .unwrap();
        let hash = ContentHash::from_content_id(11);
        let upload = match b
            .begin_upload(h.session, v, n.node, hash, 10 << 20)
            .unwrap()
        {
            UploadOutcome::Started { upload } => upload,
            other => panic!("{other:?}"),
        };
        b.upload_chunk(h.session, upload, 5 << 20, None).unwrap();
        // The client vanishes; a week later the daily sweep finds the job.
        clock.set(u1_core::SimTime::from_days(8));
        assert_eq!(b.run_maintenance(), 1);
        let stats = b.blobs.stats();
        assert_eq!(stats.multipart_aborted, 1, "S3 multipart aborted");
        assert_eq!(
            stats.multipart_initiated,
            stats.multipart_completed + stats.multipart_aborted,
            "no multipart (and hence no part bytes) left dangling"
        );
        assert!(!b.blobs.contains(hash), "no half-written object");
        // A resume attempt after the GC finds nothing to continue from.
        let err = b
            .upload_file_with_recovery(h.session, v, n.node, hash, 10 << 20, Some(upload))
            .unwrap_err();
        assert!(err.resume.is_none(), "job reaped: nothing to resume");
    }

    #[test]
    fn push_notification_reaches_other_device_of_same_user() {
        let (b, _sink, _clock) = backend();
        let token = b.register_user(UserId::new(1));
        let h1 = b.open_session(token).unwrap();
        let h2 = b.open_session(token).unwrap(); // second device
        let (tx, rx) = crossbeam::channel::unbounded();
        b.push_router.register(h2.session, tx);
        let v = b.list_volumes(h1.session).unwrap()[0].volume;
        b.make_node(h1.session, v, None, NodeKind::File, "new.txt")
            .unwrap();
        b.pump_broker();
        let pushes = u1_notify::drain(&rx);
        assert_eq!(pushes.len(), 1, "second device must be pushed");
        assert!(matches!(pushes[0], Push::VolumeChanged { .. }));
    }

    #[test]
    fn push_notification_reaches_share_recipient() {
        let (b, _sink, _clock) = backend();
        let h1 = open(&b, 1);
        let h2 = open(&b, 2);
        let (tx, rx) = crossbeam::channel::unbounded();
        b.push_router.register(h2.session, tx);
        let udf = b.create_udf(h1.session, "Shared").unwrap();
        b.create_share(h1.user, udf.volume, h2.user).unwrap();
        // Recipient got VolumeCreated.
        assert!(matches!(
            u1_notify::drain(&rx)[..],
            [Push::VolumeCreated { .. }]
        ));
        // A change by the owner lands as VolumeChanged at the recipient.
        b.make_node(h1.session, udf.volume, None, NodeKind::File, "x.pdf")
            .unwrap();
        b.pump_broker();
        let pushes = u1_notify::drain(&rx);
        assert!(
            pushes
                .iter()
                .any(|p| matches!(p, Push::VolumeChanged { .. })),
            "{pushes:?}"
        );
    }

    #[test]
    fn unlink_releases_unreferenced_content_from_blobstore() {
        let (b, _sink, _clock) = backend();
        let h = open(&b, 1);
        let v = b.list_volumes(h.session).unwrap()[0].volume;
        let n = b
            .make_node(h.session, v, None, NodeKind::File, "f.bin")
            .unwrap();
        let hash = ContentHash::from_content_id(3);
        upload(&b, &h, v, n.node, hash, 1000).unwrap();
        assert!(b.blobs.contains(hash));
        b.unlink(h.session, v, n.node).unwrap();
        assert!(!b.blobs.contains(hash), "S3 object deleted with last ref");
    }

    #[test]
    fn get_delta_tracks_changes() {
        let (b, _sink, _clock) = backend();
        let h = open(&b, 1);
        let v = b.list_volumes(h.session).unwrap()[0].volume;
        let (gen0, delta) = b.get_delta(h.session, v, 0).unwrap();
        assert_eq!(gen0, 0);
        assert!(delta.is_empty());
        b.make_node(h.session, v, None, NodeKind::Directory, "docs")
            .unwrap();
        let (gen1, delta) = b.get_delta(h.session, v, gen0).unwrap();
        assert_eq!(gen1, 1);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].name, "docs");
    }

    #[test]
    fn maintenance_reaps_stale_uploadjobs() {
        let (b, _sink, clock) = backend();
        let h = open(&b, 1);
        let v = b.list_volumes(h.session).unwrap()[0].volume;
        let n = b
            .make_node(h.session, v, None, NodeKind::File, "stale.bin")
            .unwrap();
        let upload = match b
            .begin_upload(
                h.session,
                v,
                n.node,
                ContentHash::from_content_id(1),
                10 << 20,
            )
            .unwrap()
        {
            UploadOutcome::Started { upload } => upload,
            other => panic!("{other:?}"),
        };
        b.upload_chunk(h.session, upload, 5 << 20, None).unwrap();
        clock.set(u1_core::SimTime::from_days(8));
        assert_eq!(b.run_maintenance(), 1);
        assert!(b.store.get_uploadjob(h.user, upload).is_err());
        assert_eq!(b.blobs.stats().multipart_aborted, 1);
    }

    #[test]
    fn ban_user_removes_sessions_content_and_token() {
        let (b, _sink, _clock) = backend();
        let token = b.register_user(UserId::new(66));
        let h = b.open_session(token).unwrap();
        let v = b.list_volumes(h.session).unwrap()[0].volume;
        let n = b
            .make_node(h.session, v, None, NodeKind::File, "warez.zip")
            .unwrap();
        let hash = ContentHash::from_content_id(666);
        upload(&b, &h, v, n.node, hash, 50_000_000).unwrap();

        let evicted = b.ban_user(UserId::new(66));
        assert_eq!(evicted, 1);
        assert_eq!(b.sessions.live_count(), 0);
        assert!(!b.blobs.contains(hash), "fraudulent content deleted");
        assert!(b.open_session(token).is_err(), "token revoked");
    }

    #[test]
    fn auth_outage_serves_stale_cache_entries_and_rejects_strangers() {
        use u1_core::{FaultPlan, SimDuration, SimTime};
        let clock = Arc::new(SimClock::new());
        let sink = Arc::new(MemorySink::new());
        let cfg = BackendConfig {
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            auth_cache_ttl: Some(SimDuration::from_hours(8)),
            fault: FaultPlan {
                auth_outages: 1,
                auth_outage_len: SimDuration::from_hours(2),
                horizon: SimDuration::from_days(1),
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let b = Backend::new(cfg, clock.clone(), sink);
        let probe = |want_down: bool| {
            (0..24 * 60)
                .map(|m| SimTime::from_secs(m * 60))
                .find(|t| b.faults.auth_down(*t) == want_down)
                .expect("no matching minute in the day")
        };
        let (t_up, t_down) = (probe(false), probe(true));

        // While the auth service is up, a session open populates the cache.
        clock.set(t_up);
        let token = b.register_user(UserId::new(1));
        let h = b.open_session(token).unwrap();
        b.close_session(h.session).unwrap();

        // During the outage the memcached tier answers for the known
        // client; a token it has never seen has nowhere to go.
        clock.set(t_down);
        let h = b.open_session(token).unwrap();
        assert_eq!(h.user, UserId::new(1));
        b.close_session(h.session).unwrap();
        assert_eq!(b.fault_stats().auth_fallbacks, 1);
        let stranger = b.register_user(UserId::new(2));
        assert!(b.open_session(stranger).is_err());
        assert_eq!(b.sessions.live_count(), 0);
        u1_core::fault::clear_tags();
    }

    #[test]
    fn dropped_fanout_is_remembered_for_next_session_rescan() {
        use u1_core::FaultPlan;
        let clock = Arc::new(SimClock::new());
        let sink = Arc::new(MemorySink::new());
        let cfg = BackendConfig {
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            fault: FaultPlan {
                notify_drop_p: 1.0, // every fan-out dies in the broker
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let b = Backend::new(cfg, clock, sink);
        let token = b.register_user(UserId::new(1));
        let h1 = b.open_session(token).unwrap();
        let h2 = b.open_session(token).unwrap(); // second device
        let (tx, rx) = crossbeam::channel::unbounded();
        b.push_router.register(h2.session, tx);
        let v = b.list_volumes(h1.session).unwrap()[0].volume;
        b.make_node(h1.session, v, None, NodeKind::File, "lost.txt")
            .unwrap();
        b.pump_broker();
        assert!(
            u1_notify::drain(&rx).is_empty(),
            "the push must have been dropped"
        );
        assert!(b.fault_stats().notify_dropped >= 1);
        // The owner's devices learn about the change at next session open.
        assert_eq!(b.take_missed_notify(UserId::new(1)), vec![v]);
        assert!(b.take_missed_notify(UserId::new(1)).is_empty(), "drained");
        u1_core::fault::clear_tags();
    }

    #[test]
    fn failed_ops_are_logged_as_failures() {
        let (b, sink, _clock) = backend();
        let h = open(&b, 1);
        let v = b.list_volumes(h.session).unwrap()[0].volume;
        let _ = sink.take_sorted();
        assert!(b.download(h.session, v, NodeId::new(424242)).is_err());
        let recs = sink.take_sorted();
        assert!(recs.iter().any(|r| matches!(
            r.payload.storage(),
            Some(u1_trace::StorageDone {
                op: ApiOpKind::Download,
                success: false,
                ..
            })
        )));
    }

    /// `delete_volume` runs the store cascade before its RPC (the cascade
    /// size sets the RPC's service time). When the RPC then exhausts its
    /// retry budget the volume is already gone, so the blobs it released
    /// must be deleted and the failed op logged all the same.
    #[test]
    fn delete_volume_out_of_rpc_retries_still_releases_blobs_and_is_logged() {
        use u1_core::FaultPlan;
        let sink = Arc::new(MemorySink::new());
        let cfg = BackendConfig {
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            fault: FaultPlan {
                rpc_timeout_p: 0.5,
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let b = Backend::new(cfg, Arc::new(SimClock::new()), sink.clone());
        let token = b.register_user(UserId::new(1));
        let mut content = 0u64;
        // Half of all RPC attempts time out, so every step may fail; keep
        // opening sessions and filling fresh volumes until a delete whose
        // volume held content runs out of retries.
        for round in 0..500 {
            let Ok(h) = b.open_session(token) else {
                continue;
            };
            if let Ok(udf) = b.create_udf(h.session, &format!("v{round}")) {
                let mut stored = Vec::new();
                for i in 0..3 {
                    content += 1;
                    let hash = ContentHash::from_content_id(content);
                    let uploaded = b
                        .make_node(
                            h.session,
                            udf.volume,
                            None,
                            NodeKind::File,
                            &format!("f{i}"),
                        )
                        .and_then(|n| upload(&b, &h, udf.volume, n.node, hash, 1000));
                    if uploaded.is_ok() {
                        stored.push(hash);
                    }
                }
                let outcome = b.delete_volume(h.session, udf.volume);
                if matches!(outcome, Err(CoreError::Unavailable(_))) && !stored.is_empty() {
                    assert_eq!(b.store.owner_of(udf.volume), None, "the cascade ran");
                    for hash in stored {
                        assert!(!b.store.content_visible(hash));
                        assert!(!b.blobs.contains(hash), "unreferenced blob left behind");
                    }
                    assert!(sink.take_sorted().iter().any(|r| matches!(
                        r.payload.storage(),
                        Some(u1_trace::StorageDone {
                            op: ApiOpKind::DeleteVolume,
                            volume,
                            success: false,
                            ..
                        }) if *volume == udf.volume
                    )));
                    u1_core::fault::clear_tags();
                    return;
                }
            }
            let _ = b.close_session(h.session);
        }
        panic!("no delete_volume ran out of RPC retries in 500 rounds");
    }
}
