//! API-server operation handlers — the server side of every Table-2
//! operation, shared by live TCP mode and virtual-time measurement mode.
//!
//! [`Backend::serve`] is the API server's one translation (§3, Appendix A):
//! a storage-protocol [`Request`] of one session in, the handler calls
//! that implement it, one answer out. It is the only way in: the reactor,
//! both client transports and the workload driver all send requests, and
//! the handlers are private to it.
//!
//! `serve` hands each handler the session's handle, once it has checked
//! that the session is still open. Each handler:
//! 1. executes the operation's DAL RPCs against the metadata store, with a
//!    sampled service time and an `rpc` trace record per call,
//! 2. performs any object-store work (multipart parts, GETs, deletes),
//! 3. logs one `storage_done` record with the summed duration, and
//! 4. pushes notifications to other affected clients.

use crate::backend::Backend;
use crate::session::{Session, SessionHandle};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use u1_blobstore::Blob;
use u1_core::{
    ApiOpKind, ContentHash, CoreError, CoreResult, NodeId, NodeKind, RpcKind, SimDuration,
    UploadId, UserId, VolumeId, VolumeKind,
};
use u1_metastore::NodeRow;
use u1_proto::msg::{NodeInfo, Push, Request, Response, VolumeInfo};
use u1_trace::SessionEvent;

fn ext_of(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.is_empty() => ext,
        _ => "",
    }
}

/// The volume of an op that concerns none: a listing, a capability query.
const NO_VOLUME: VolumeId = VolumeId::new(0);

fn volume_info(row: &u1_metastore::VolumeRow, owner: Option<UserId>) -> VolumeInfo {
    VolumeInfo {
        volume: row.volume,
        kind: row.kind,
        generation: row.generation,
        owner,
        node_count: row.node_count,
    }
}

/// A volume shared to the user, as listings carry it.
fn shared_info((row, owner): &(u1_metastore::VolumeRow, UserId)) -> VolumeInfo {
    VolumeInfo {
        kind: VolumeKind::Shared,
        ..volume_info(row, Some(*owner))
    }
}

/// A node row as the protocol carries it.
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
/// the back-end session's record once authenticated, and the channel its
/// pushes arrive on when the client subscribed to them.
#[derive(Debug)]
pub struct SessionState {
    session: Option<Arc<Session>>,
    pushes: Option<Receiver<Push>>,
    subscribe: bool,
}

impl SessionState {
    /// A client that has not authenticated yet; `subscribe_pushes`
    /// subscribes it to pushes when it does.
    pub fn new(subscribe_pushes: bool) -> Self {
        SessionState {
            session: None,
            pushes: None,
            subscribe: subscribe_pushes,
        }
    }

    /// The back-end session, once authenticated and until the client says
    /// goodbye (an evicted session keeps its handle).
    pub fn handle(&self) -> Option<&SessionHandle> {
        self.session.as_deref().map(|s| &s.handle)
    }

    /// Where this session's pushes arrive, when it subscribed.
    pub fn pushes(&self) -> Option<&Receiver<Push>> {
        self.pushes.as_ref()
    }

    /// The handle of a session that is still open: `denied` before
    /// authenticating, `not_found` once evicted.
    fn live(&self) -> CoreResult<&SessionHandle> {
        match self.session.as_deref() {
            None => Err(unauthenticated()),
            Some(s) if s.is_closed() => Err(CoreError::not_found(format!(
                "session {}",
                s.handle.session
            ))),
            Some(s) => Ok(&s.handle),
        }
    }
}

/// The answer to a request that needs a session, sent before one exists:
/// the same error whether `serve` or the reactor's connection state finds
/// it.
pub(crate) fn unauthenticated() -> CoreError {
    CoreError::permission_denied("authenticate first")
}

/// What [`Backend::serve`] answers one request with.
#[derive(Debug)]
pub enum Served {
    /// Every request but `GetContent`: its one response.
    Response(Response),
    /// `GetContent`: the file's size and hash, and its bytes when the
    /// back-end stores real bytes — the object store's own shared buffer,
    /// not a copy of it. A connection frames them as `ContentBegin`,
    /// `ContentChunk`s and `ContentEnd`, each chunk straight from the
    /// buffer; an in-process caller that wants a `Vec` of its own takes it
    /// with [`Blob::into_vec`].
    Content {
        size: u64,
        hash: ContentHash,
        data: Option<Blob>,
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

fn delta(volume: VolumeId, (generation, nodes): (u64, Vec<NodeInfo>)) -> Response {
    Response::Delta {
        volume,
        generation,
        nodes,
    }
}

fn created(n: NodeInfo) -> Response {
    Response::NodeCreated {
        node: n.node,
        generation: n.generation,
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
                if state.session.is_some() {
                    return Err(CoreError::conflict("already authenticated"));
                }
                let token = u1_auth::Token::from_bytes(&token)
                    .ok_or_else(|| CoreError::invalid("malformed token"))?;
                let (tx, rx) = state.subscribe.then(channel).unzip();
                let session = self.open_session(token, tx)?;
                state.pushes = rx;
                let resp = Response::AuthOk {
                    session: session.handle.session,
                    user: session.handle.user,
                };
                state.session = Some(session);
                resp
            }
            Request::QuerySetCaps { caps } => Response::Capabilities {
                accepted: match state.session {
                    Some(_) => self.query_set_caps(state.live()?, caps),
                    None => caps,
                },
            },
            Request::Bye => {
                if let Some(session) = state.session.take() {
                    state.pushes = None;
                    self.close_session(&session);
                }
                Response::Ok
            }
            Request::ListVolumes => Response::Volumes {
                volumes: self.list_volumes(state.live()?)?,
            },
            Request::ListShares => Response::Volumes {
                volumes: self.list_shares(state.live()?)?,
            },
            Request::CreateUdf { name } => {
                let v = self.create_udf(state.live()?, &name)?;
                Response::VolumeCreated {
                    volume: v.volume,
                    generation: v.generation,
                }
            }
            Request::DeleteVolume { volume } => done(self.delete_volume(state.live()?, volume)?),
            Request::MakeFile {
                volume,
                parent,
                name,
            } => {
                let kind = NodeKind::File;
                created(self.make_node(state.live()?, volume, parent_of(parent), kind, &name)?)
            }
            Request::MakeDir {
                volume,
                parent,
                name,
            } => {
                let kind = NodeKind::Directory;
                created(self.make_node(state.live()?, volume, parent_of(parent), kind, &name)?)
            }
            Request::Unlink { volume, node } => done(self.unlink(state.live()?, volume, node)?),
            Request::Move {
                volume,
                node,
                new_parent,
                new_name,
            } => done(self.move_node(
                state.live()?,
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
                self.get_delta(state.live()?, volume, from_generation)?,
            ),
            Request::RescanFromScratch { volume } => {
                delta(volume, self.rescan_from_scratch(state.live()?, volume)?)
            }
            Request::BeginUpload {
                volume,
                node,
                hash,
                size,
            } => self.begin_upload(state.live()?, volume, node, hash, size)?,
            Request::ResumeUpload { upload } => Response::UploadBegun {
                upload,
                offset: self.resume_upload(state.live()?, upload)?,
            },
            Request::UploadChunk { upload, data } => {
                done(self.upload_chunk(state.live()?, upload, data.len() as u64, Some(data))?)
            }
            Request::UploadChunkSparse { upload, len } => {
                let h = state.live()?;
                // Sparse chunks exist for the measurement path only; a
                // server storing real bytes must not account content it
                // never received.
                if self.cfg.store_real_bytes {
                    return Err(CoreError::invalid("sparse chunk on a real-bytes server"));
                }
                done(self.upload_chunk(h, upload, len, None)?)
            }
            Request::CommitUpload { upload } => self.commit_upload(state.live()?, upload)?,
            Request::CancelUpload { upload } => done(self.cancel_upload(state.live()?, upload)?),
            Request::GetContent { volume, node } => {
                let (size, hash, data) = self.download(state.live()?, volume, node)?;
                return Ok(Served::Content { size, hash, data });
            }
        };
        Ok(Served::Response(resp))
    }

    /// Logs an op that names no node: a listing, a delta, a volume op.
    fn log_op(&self, h: &SessionHandle, op: ApiOpKind, volume: VolumeId, ok: bool, d: SimDuration) {
        self.log_storage(h, op, volume, None, None, 0, None, "", ok, d);
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
        let kind = VolumeKind::Shared;
        self.fan_out(&[to], None, Push::VolumeCreated { volume, kind });
        Ok(())
    }

    // ----- session lifecycle ------------------------------------------------

    /// The Authenticate flow (§3.4.1): resolve the token — against the
    /// memcached-style token cache when one is configured, else with one
    /// `auth.get_user_id_from_token` RPC — then establish the session on
    /// the least-loaded process.
    fn open_session(
        &self,
        token: u1_auth::Token,
        pushes: Option<Sender<Push>>,
    ) -> CoreResult<Arc<Session>> {
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
                return self.establish_session(slot, user, pushes);
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
                return self.establish_session(slot, user, pushes);
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
                self.establish_session(slot, user, pushes)
            }
            Err(e) => {
                self.log_auth(slot, UserId::new(0), false);
                self.cluster.release_session(slot);
                Err(e)
            }
        }
    }

    /// Post-auth session start-up: the `GetUserData`/`GetRoot` reads, the
    /// session's record and the `session open` trace record.
    fn establish_session(
        &self,
        slot: crate::cluster::Slot,
        user: UserId,
        pushes: Option<Sender<Push>>,
    ) -> CoreResult<Arc<Session>> {
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
        let session = self.sessions.open(user, slot, pushes);
        self.log_session_event(&session.handle, SessionEvent::Open);
        Ok(session)
    }

    /// Ends a session (client disconnect, NAT cut, crash — they all look
    /// the same: the TCP connection dies, §3.1.1). A session that was
    /// already closed, by `ban_user`, is left as it is.
    fn close_session(&self, session: &Session) {
        if self.sessions.close(session) {
            self.cluster.release_session(session.handle.slot);
            self.log_session_event(&session.handle, SessionEvent::Close);
        }
    }

    /// Capability negotiation (appears in the Fig. 8 startup flow).
    fn query_set_caps(&self, h: &SessionHandle, caps: Vec<String>) -> Vec<String> {
        let d = SimDuration::from_micros(50);
        self.log_op(h, ApiOpKind::QuerySetCaps, NO_VOLUME, true, d);
        caps
    }

    // ----- volume operations -------------------------------------------------

    /// ListVolumes: all volumes of the user — root, UDFs and shares.
    fn list_volumes(&self, h: &SessionHandle) -> CoreResult<Vec<VolumeInfo>> {
        let d = self.rpc(h.slot, h.user, RpcKind::ListVolumes, 0)?;
        let result = self.store.list_volumes(h.user).map(|owned| {
            let mut vols: Vec<VolumeInfo> = owned.iter().map(|v| volume_info(v, None)).collect();
            if let Ok(shares) = self.store.list_shares(h.user) {
                vols.extend(shares.iter().map(shared_info));
            }
            vols
        });
        self.log_op(h, ApiOpKind::ListVolumes, NO_VOLUME, result.is_ok(), d);
        result
    }

    /// ListShares: only the volumes shared *to* this user.
    fn list_shares(&self, h: &SessionHandle) -> CoreResult<Vec<VolumeInfo>> {
        let d = self.rpc(h.slot, h.user, RpcKind::ListShares, 0)?;
        let shares = self.store.list_shares(h.user);
        let result = shares.map(|shares| shares.iter().map(shared_info).collect::<Vec<_>>());
        self.log_op(h, ApiOpKind::ListShares, NO_VOLUME, result.is_ok(), d);
        result
    }

    /// CreateUDF.
    fn create_udf(&self, h: &SessionHandle, name: &str) -> CoreResult<VolumeInfo> {
        let d = self.rpc(h.slot, h.user, RpcKind::CreateUdf, 0)?;
        let result = self.store.create_udf(h.user, name, self.now());
        self.log_op(
            h,
            ApiOpKind::CreateUdf,
            result.as_ref().map(|v| v.volume).unwrap_or_default(),
            result.is_ok(),
            d,
        );
        let row = result?;
        // The user's *other* devices learn about the new volume by push.
        let (volume, kind) = (row.volume, VolumeKind::UserDefined);
        self.fan_out(&[h.user], Some(h), Push::VolumeCreated { volume, kind });
        Ok(volume_info(&row, None))
    }

    /// DeleteVolume — the cascade operation.
    fn delete_volume(&self, h: &SessionHandle, volume: VolumeId) -> CoreResult<u64> {
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
        self.log_op(
            h,
            ApiOpKind::DeleteVolume,
            volume,
            result.is_ok() && rpc.is_ok(),
            d,
        );
        rpc?;
        let released = result?;
        // Other devices of this user learn the volume is gone.
        self.fan_out(&[h.user], Some(h), Push::VolumeDeleted { volume });
        Ok(released.dead.len() as u64)
    }

    // ----- namespace operations ----------------------------------------------

    /// Make (file or directory): creates the metadata entry; for files this
    /// "normally precedes a file upload" (Table 2).
    fn make_node(
        &self,
        h: &SessionHandle,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
    ) -> CoreResult<NodeInfo> {
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
            h,
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
            h,
            volume,
            Push::VolumeChanged {
                volume,
                generation: row.generation,
            },
        );
        Ok(node_info(row))
    }

    /// Unlink.
    fn unlink(&self, h: &SessionHandle, volume: VolumeId, node: NodeId) -> CoreResult<u64> {
        let d = self.rpc(h.slot, h.user, RpcKind::UnlinkNode, 0)?;
        // Capture identity before deletion for the trace record.
        let pre = self.store.get_node(h.user, volume, node).ok();
        let result = self.store.unlink(h.user, volume, node, self.now());
        self.log_storage(
            h,
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
        self.notify_change(h, volume, Push::VolumeChanged { volume, generation });
        Ok(released.dead.len() as u64)
    }

    /// Move.
    fn move_node(
        &self,
        h: &SessionHandle,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
    ) -> CoreResult<NodeInfo> {
        let d = self.rpc(h.slot, h.user, RpcKind::Move, 0)?;
        let result = self
            .store
            .move_node(h.user, volume, node, new_parent, new_name, self.now());
        self.log_storage(
            h,
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
            h,
            volume,
            Push::VolumeChanged {
                volume,
                generation: row.generation,
            },
        );
        Ok(node_info(row))
    }

    /// GetDelta: changes since a known generation, built as the protocol
    /// carries them in the store's one collect.
    fn get_delta(
        &self,
        h: &SessionHandle,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<NodeInfo>)> {
        let d1 = self.rpc(h.slot, h.user, RpcKind::GetVolumeId, 0)?;
        let d2 = self.rpc(h.slot, h.user, RpcKind::GetDelta, 0)?;
        let result = self
            .store
            .get_delta_as(h.user, volume, from_generation, node_info);
        self.log_op(h, ApiOpKind::GetDelta, volume, result.is_ok(), d1 + d2);
        result
    }

    /// RescanFromScratch: the full-volume cascade read, built as the
    /// protocol carries it.
    fn rescan_from_scratch(
        &self,
        h: &SessionHandle,
        volume: VolumeId,
    ) -> CoreResult<(u64, Vec<NodeInfo>)> {
        let result = self.store.get_from_scratch(h.user, volume, node_info);
        let rows = result.as_ref().map(|(_, v)| v.len() as u64).unwrap_or(0);
        let d = self.rpc(h.slot, h.user, RpcKind::GetFromScratch, rows)?;
        self.log_op(h, ApiOpKind::RescanFromScratch, volume, result.is_ok(), d);
        result
    }

    // ----- transfers (Appendix A) ----------------------------------------------

    /// Upload phase 1: the dedup probe and, on a miss, upload-job setup.
    /// The client sent the SHA-1 *before* any content (§3.3).
    fn begin_upload(
        &self,
        h: &SessionHandle,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
    ) -> CoreResult<Response> {
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
                h,
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
                h,
                volume,
                Push::VolumeChanged {
                    volume,
                    generation: row.generation,
                },
            );
            return Ok(Response::UploadDone {
                node,
                generation: row.generation,
                hash,
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
        Ok(Response::UploadBegun {
            upload: job.upload,
            offset: 0,
        })
    }

    /// `ResumeUpload`: the bytes an unfinished job already holds. Reads the
    /// job where the client left it, with no RPC; a job the weekly GC
    /// reaped is `not_found`.
    fn resume_upload(&self, h: &SessionHandle, upload: UploadId) -> CoreResult<u64> {
        Ok(self.store.get_uploadjob(h.user, upload)?.bytes_received)
    }

    /// Upload phase 2: one chunk. The API server forwards it to the object
    /// store as a multipart part and records it in the upload job.
    fn upload_chunk(
        &self,
        h: &SessionHandle,
        upload: UploadId,
        len: u64,
        data: Option<Vec<u8>>,
    ) -> CoreResult<()> {
        self.rpc(h.slot, h.user, RpcKind::AddPartToUploadJob, 0)?;
        // Put the part *before* recording it in the upload job: a failed
        // put must leave no metadata claiming bytes the object store never
        // received, or a later commit would complete a short multipart.
        let job = self.store.get_uploadjob(h.user, upload)?;
        let mp = job
            .multipart_id
            .ok_or_else(|| CoreError::invalid("uploadjob has no multipart id"))?;
        // Live bytes beyond the declared size are not content: an empty
        // file travels as one one-byte part and commits as no bytes.
        let owed = job.declared_size.saturating_sub(job.bytes_received);
        let data = data.filter(|_| self.cfg.store_real_bytes).map(|mut d| {
            d.truncate(usize::try_from(owed).unwrap_or(usize::MAX));
            d
        });
        self.blobs.upload_part(mp, len, data).map_err(|e| match e {
            u1_blobstore::MultipartError::PartPutFailed => CoreError::unavailable(e.to_string()),
            other => CoreError::invalid(other.to_string()),
        })?;
        self.store
            .add_part_to_uploadjob(h.user, upload, len, self.now())?;
        Ok(())
    }

    /// Upload phase 3: commit. Completes the S3 multipart, attaches content
    /// to the node, deletes the upload job, logs the Upload operation.
    fn commit_upload(&self, h: &SessionHandle, upload: UploadId) -> CoreResult<Response> {
        let mut d = self.rpc(h.slot, h.user, RpcKind::GetUploadJob, 0)?;
        let job = self.store.get_uploadjob(h.user, upload)?;
        if !job.is_complete() {
            return Err(CoreError::invalid(format!(
                "upload {upload} incomplete: {}/{} bytes",
                job.bytes_received, job.declared_size
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
            h,
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
            h,
            job.volume,
            Push::VolumeChanged {
                volume: job.volume,
                generation: row.generation,
            },
        );
        Ok(Response::UploadDone {
            node: job.node,
            generation: row.generation,
            hash: job.hash,
        })
    }

    /// Client-side cancellation of an in-flight upload.
    fn cancel_upload(&self, h: &SessionHandle, upload: UploadId) -> CoreResult<()> {
        self.rpc(h.slot, h.user, RpcKind::DeleteUploadJob, 0)?;
        let job = self.store.delete_uploadjob(h.user, upload)?;
        if let Some(mp) = job.multipart_id {
            let _ = self.blobs.abort_multipart(mp);
        }
        Ok(())
    }

    /// Download (GetContent). Returns (size, hash, bytes-if-live).
    fn download(
        &self,
        h: &SessionHandle,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<(u64, ContentHash, Option<Blob>)> {
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
            h,
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

    /// A back-end with no transient auth failures; `store_real_bytes`
    /// keeps content bytes, otherwise uploads travel as size-only parts.
    fn backend(store_real_bytes: bool) -> (Arc<Backend>, Arc<MemorySink>, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let sink = Arc::new(MemorySink::new());
        let cfg = BackendConfig {
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            store_real_bytes,
            ..Default::default()
        };
        let backend = Arc::new(Backend::new(cfg, clock.clone(), sink.clone()));
        (backend, sink, clock)
    }

    /// A served session of a new user, and its handle.
    fn served(b: &Backend, user: u64) -> (SessionState, SessionHandle) {
        served_as(b, user, false)
    }

    /// [`served`], subscribed to pushes when `subscribe`.
    fn served_as(b: &Backend, user: u64, subscribe: bool) -> (SessionState, SessionHandle) {
        let token = b.register_user(UserId::new(user));
        let mut state = SessionState::new(subscribe);
        let auth = Request::Authenticate {
            token: token.as_bytes().to_vec(),
        };
        b.serve(&mut state, auth).unwrap();
        let h = state.handle().unwrap().clone();
        (state, h)
    }

    fn call(b: &Backend, state: &mut SessionState, req: Request) -> CoreResult<Response> {
        match b.serve(state, req)? {
            Served::Response(resp) => Ok(resp),
            other => panic!("{other:?}"),
        }
    }

    /// The §3.2 upload sequence in size-only parts: `BeginUpload` (or
    /// `ResumeUpload` of `resume`), the parts still owed, `CommitUpload`.
    /// Answers whether the dedup probe hit.
    fn upload(
        b: &Backend,
        state: &mut SessionState,
        (volume, node): (VolumeId, NodeId),
        hash: ContentHash,
        size: u64,
        resume: Option<UploadId>,
    ) -> CoreResult<bool> {
        let begin = match resume {
            Some(upload) => Request::ResumeUpload { upload },
            None => Request::BeginUpload {
                volume,
                node,
                hash,
                size,
            },
        };
        let (upload, mut sent) = match call(b, state, begin)? {
            Response::UploadBegun { upload, offset } => (upload, offset),
            Response::UploadDone { .. } => return Ok(true),
            other => panic!("begin: {other:?}"),
        };
        let total = size.max(1);
        while sent < total {
            let len = (total - sent).min(u1_blobstore::PART_SIZE);
            call(b, state, Request::UploadChunkSparse { upload, len })?;
            sent += len;
        }
        call(b, state, Request::CommitUpload { upload })?;
        Ok(false)
    }

    /// Begins an upload that misses the dedup probe and returns its job.
    fn begin(
        b: &Backend,
        h: &SessionHandle,
        at: (VolumeId, NodeId),
        id: u64,
        size: u64,
    ) -> UploadId {
        let hash = ContentHash::from_content_id(id);
        match b.begin_upload(h, at.0, at.1, hash, size).unwrap() {
            Response::UploadBegun { upload, offset: 0 } => upload,
            other => panic!("{other:?}"),
        }
    }

    fn part_rpcs(sink: &MemorySink) -> usize {
        sink.take_sorted()
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
            .count()
    }

    #[test]
    fn session_lifecycle_with_auth() {
        let (b, sink, _clock) = backend(false);
        let (mut s, _) = served(&b, 1);
        assert_eq!(b.sessions.live_count(), 1);
        call(&b, &mut s, Request::Bye).unwrap();
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

        let s1 = b.open_session(token, None).unwrap();
        b.close_session(&s1);
        let s2 = b.open_session(token, None).unwrap();
        b.close_session(&s2);

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
        assert!(b.open_session(token, None).is_err());
    }

    #[test]
    fn bad_token_is_rejected_and_logged() {
        let (b, sink, _clock) = backend(false);
        let bogus = u1_auth::Token([7u8; 16]);
        assert!(b.open_session(bogus, None).is_err());
        let recs = sink.take_sorted();
        let auth_fail = recs
            .iter()
            .any(|r| matches!(r.payload, u1_trace::Payload::Auth { success: false, .. }));
        assert!(auth_fail);
        assert_eq!(b.sessions.live_count(), 0);
    }

    #[test]
    fn full_upload_download_round_trip_with_real_bytes() {
        let (b, _sink, _clock) = backend(true);
        let (_, h) = served(&b, 1);
        let root = b.list_volumes(&h).unwrap()[0].volume;
        let node = b
            .make_node(&h, root, None, NodeKind::File, "hello.txt")
            .unwrap();
        let data = b"hello, personal cloud".to_vec();
        let hash = Sha1::digest(&data);
        let size = data.len() as u64;
        let Response::UploadBegun { upload, .. } =
            b.begin_upload(&h, root, node.node, hash, size).unwrap()
        else {
            panic!("expected a new upload job");
        };
        b.upload_chunk(&h, upload, size, Some(data.clone()))
            .unwrap();
        let committed = b.commit_upload(&h, upload).unwrap();
        assert!(matches!(committed, Response::UploadDone { hash: h, .. } if h == hash));
        let (size, got_hash, got_data) = b.download(&h, root, node.node).unwrap();
        assert_eq!(size, data.len() as u64);
        assert_eq!(got_hash, hash);
        assert_eq!(got_data.unwrap(), data);
    }

    #[test]
    fn second_upload_of_same_content_deduplicates() {
        let (b, _sink, _clock) = backend(false);
        let (mut s1, h1) = served(&b, 1);
        let (mut s2, h2) = served(&b, 2);
        let v1 = b.list_volumes(&h1).unwrap()[0].volume;
        let v2 = b.list_volumes(&h2).unwrap()[0].volume;
        let n1 = b
            .make_node(&h1, v1, None, NodeKind::File, "song.mp3")
            .unwrap();
        let n2 = b
            .make_node(&h2, v2, None, NodeKind::File, "same.mp3")
            .unwrap();
        let hash = ContentHash::from_content_id(77);

        assert_eq!(
            upload(&b, &mut s1, (v1, n1.node), hash, 8_000_000, None),
            Ok(false)
        );
        let dedup = upload(&b, &mut s2, (v2, n2.node), hash, 8_000_000, None);
        assert_eq!(dedup, Ok(true), "cross-user dedup should hit");
        assert!((b.store.dedup_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(b.blobs.stats().objects, 1);
    }

    /// A resumed upload is the fresh one minus the parts the job already
    /// holds: after the crash, the records of `ResumeUpload` and the rest
    /// equal the fresh upload's records from its second part on, and the
    /// lookup itself emits nothing.
    #[test]
    fn a_resumed_upload_emits_the_fresh_one_from_where_it_stopped() {
        let run = |crash: bool| {
            let (b, sink, _clock) = backend(false);
            let (mut s, h) = served(&b, 1);
            let v = b.list_volumes(&h).unwrap()[0].volume;
            let n = b
                .make_node(&h, v, None, NodeKind::File, "film.avi")
                .unwrap()
                .node;
            let hash = ContentHash::from_content_id(21);
            let size = 2 * u1_blobstore::PART_SIZE + 5; // three parts
            let resume = crash.then(|| {
                let upload = begin(&b, &h, (v, n), 21, size);
                b.upload_chunk(&h, upload, u1_blobstore::PART_SIZE, None)
                    .unwrap();
                upload
            });
            let _ = sink.take_sorted();
            assert_eq!(upload(&b, &mut s, (v, n), hash, size, resume), Ok(false));
            // And again: the dedup probe answers, nothing travels.
            assert_eq!(upload(&b, &mut s, (v, n), hash, size, None), Ok(true));
            sink.take_sorted()
        };
        let (fresh, resumed) = (run(false), run(true));
        // Fresh: probe miss (1 rpc), job setup (2 rpcs), three parts,
        // commit (3 rpcs + op), dedup hit (2 rpcs + op).
        let strip = |recs: &[u1_trace::TraceRecord]| -> Vec<String> {
            recs.iter().map(|r| format!("{:?}", r.payload)).collect()
        };
        let (fresh, resumed) = (strip(&fresh), strip(&resumed));
        assert_eq!(fresh.len(), resumed.len() + 4, "{fresh:#?}\n{resumed:#?}");
        assert_eq!(fresh[4..], resumed[..]);
    }

    #[test]
    fn incomplete_upload_cannot_commit_but_can_resume() {
        let (b, _sink, _clock) = backend(false);
        let (_, h) = served(&b, 1);
        let v = b.list_volumes(&h).unwrap()[0].volume;
        let n = b.make_node(&h, v, None, NodeKind::File, "big.iso").unwrap();
        let size = 12 * 1024 * 1024u64;
        let upload = begin(&b, &h, (v, n.node), 5, size);
        b.upload_chunk(&h, upload, 5 << 20, None).unwrap();
        // Interrupted: commit refuses.
        assert!(b.commit_upload(&h, upload).is_err());
        // Resume: the job remembers the received parts.
        assert_eq!(b.resume_upload(&h, upload), Ok(5 << 20));
        b.upload_chunk(&h, upload, 5 << 20, None).unwrap();
        b.upload_chunk(&h, upload, size - (10 << 20), None).unwrap();
        assert!(b.commit_upload(&h, upload).is_ok());
    }

    #[test]
    fn crashed_upload_resumes_from_last_part_not_from_scratch() {
        let (b, sink, _clock) = backend(false);
        let (mut s, h) = served(&b, 1);
        let v = b.list_volumes(&h).unwrap()[0].volume;
        let n = b
            .make_node(&h, v, None, NodeKind::File, "video.avi")
            .unwrap();
        let size = 12 << 20; // three 5MB parts
        let job = begin(&b, &h, (v, n.node), 9, size);
        // Client crashes after the first part.
        b.upload_chunk(&h, job, 5 << 20, None).unwrap();
        let _ = sink.take_sorted();

        // The resumed sequence continues the same job: only the two
        // missing parts travel again, then the commit lands.
        let hash = ContentHash::from_content_id(9);
        let resumed = upload(&b, &mut s, (v, n.node), hash, size, Some(job));
        assert_eq!(resumed, Ok(false));
        assert_eq!(
            part_rpcs(&sink),
            2,
            "resume must not re-send the first part"
        );
        assert!(b.blobs.contains(hash));
        assert!(b.store.get_uploadjob(h.user, job).is_err(), "job gone");
    }

    #[test]
    fn gc_reaps_crashed_uploads_leaving_no_orphaned_parts() {
        let (b, _sink, clock) = backend(false);
        let (mut s, h) = served(&b, 1);
        let v = b.list_volumes(&h).unwrap()[0].volume;
        let n = b
            .make_node(&h, v, None, NodeKind::File, "orphan.iso")
            .unwrap();
        let upload = begin(&b, &h, (v, n.node), 11, 10 << 20);
        b.upload_chunk(&h, upload, 5 << 20, None).unwrap();
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
        assert!(
            !b.blobs.contains(ContentHash::from_content_id(11)),
            "no half-written object"
        );
        // A resume attempt after the GC finds nothing to continue from.
        let err = call(&b, &mut s, Request::ResumeUpload { upload }).unwrap_err();
        assert!(matches!(err, CoreError::NotFound(_)), "job reaped: {err:?}");
    }

    /// Four devices of one user, each on its own API process: each
    /// subscribed device but the pusher gets one push per change, in
    /// change order, and the unsubscribed one counts unroutable.
    #[test]
    fn push_notification_reaches_other_device_of_same_user() {
        let (b, _sink, _clock) = backend(false);
        let token = b.register_user(UserId::new(1));
        let subscribed = || {
            let (tx, rx) = channel();
            (b.open_session(token, Some(tx)).unwrap(), rx)
        };
        let (s1, rx1) = subscribed(); // the pusher
        let (s2, rx2) = subscribed();
        let (s3, rx3) = subscribed();
        let s4 = b.open_session(token, None).unwrap();
        let slots: std::collections::HashSet<_> =
            [&s1, &s2, &s3, &s4].map(|s| s.handle.slot).into();
        assert_eq!(slots.len(), 4, "four API processes");
        let v = b.list_volumes(&s1.handle).unwrap()[0].volume;
        let changed = |name| {
            let n = b.make_node(&s1.handle, v, None, NodeKind::File, name);
            let generation = n.unwrap().generation;
            Push::VolumeChanged {
                volume: v,
                generation,
            }
        };
        let changes = [changed("a.txt"), changed("b.txt")];
        for rx in [&rx2, &rx3] {
            assert_eq!(rx.try_iter().collect::<Vec<_>>(), changes);
        }
        assert!(rx1.try_iter().next().is_none(), "the pusher is not pushed");
        assert_eq!(b.push_router.stats(), (0, 4, 2), "all cross-process");
    }

    /// Footnote 4: a session on the pusher's own API process is pushed
    /// directly, and the pusher itself is not pushed.
    #[test]
    fn push_to_a_same_process_session_skips_the_broker() {
        let cfg = BackendConfig {
            cluster: crate::ClusterConfig {
                machines: 1,
                processes_per_machine: 1,
            },
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            ..Default::default()
        };
        let b = Backend::new(cfg, Arc::new(SimClock::new()), Arc::new(MemorySink::new()));
        let token = b.register_user(UserId::new(1));
        let (tx1, rx1) = channel();
        let s1 = b.open_session(token, Some(tx1)).unwrap();
        let (tx2, rx2) = channel();
        let _s2 = b.open_session(token, Some(tx2)).unwrap();
        let udf = b.create_udf(&s1.handle, "Photos").unwrap();
        b.delete_volume(&s1.handle, udf.volume).unwrap();
        assert!(rx1.try_iter().next().is_none(), "the pusher is not pushed");
        let pushes = rx2.try_iter().collect::<Vec<_>>();
        assert!(
            matches!(
                pushes[..],
                [Push::VolumeCreated { .. }, Push::VolumeDeleted { .. }]
            ),
            "{pushes:?}"
        );
        assert_eq!(b.push_router.stats(), (2, 0, 0));
    }

    #[test]
    fn push_notification_reaches_share_recipient() {
        let (b, _sink, _clock) = backend(false);
        let (_, h1) = served(&b, 1);
        let (s2, h2) = served_as(&b, 2, true);
        let rx = s2.pushes().unwrap();
        let udf = b.create_udf(&h1, "Shared").unwrap();
        b.create_share(h1.user, udf.volume, h2.user).unwrap();
        // Recipient got VolumeCreated; no session pushed it, so it counts
        // as cross-process.
        assert!(matches!(
            rx.try_iter().collect::<Vec<_>>()[..],
            [Push::VolumeCreated { .. }]
        ));
        assert_eq!(b.push_router.stats(), (0, 1, 0));
        // A change by the owner lands as VolumeChanged at the recipient.
        b.make_node(&h1, udf.volume, None, NodeKind::File, "x.pdf")
            .unwrap();
        let pushes = rx.try_iter().collect::<Vec<_>>();
        assert!(
            pushes
                .iter()
                .any(|p| matches!(p, Push::VolumeChanged { .. })),
            "{pushes:?}"
        );
    }

    #[test]
    fn unlink_releases_unreferenced_content_from_blobstore() {
        let (b, _sink, _clock) = backend(false);
        let (mut s, h) = served(&b, 1);
        let v = b.list_volumes(&h).unwrap()[0].volume;
        let n = b.make_node(&h, v, None, NodeKind::File, "f.bin").unwrap();
        let hash = ContentHash::from_content_id(3);
        upload(&b, &mut s, (v, n.node), hash, 1000, None).unwrap();
        assert!(b.blobs.contains(hash));
        b.unlink(&h, v, n.node).unwrap();
        assert!(!b.blobs.contains(hash), "S3 object deleted with last ref");
    }

    #[test]
    fn get_delta_tracks_changes() {
        let (b, _sink, _clock) = backend(false);
        let (_, h) = served(&b, 1);
        let v = b.list_volumes(&h).unwrap()[0].volume;
        let (gen0, delta) = b.get_delta(&h, v, 0).unwrap();
        assert_eq!(gen0, 0);
        assert!(delta.is_empty());
        b.make_node(&h, v, None, NodeKind::Directory, "docs")
            .unwrap();
        let (gen1, delta) = b.get_delta(&h, v, gen0).unwrap();
        assert_eq!(gen1, 1);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].name, "docs");
    }

    #[test]
    fn maintenance_reaps_stale_uploadjobs() {
        let (b, _sink, clock) = backend(false);
        let (_, h) = served(&b, 1);
        let v = b.list_volumes(&h).unwrap()[0].volume;
        let n = b
            .make_node(&h, v, None, NodeKind::File, "stale.bin")
            .unwrap();
        let upload = begin(&b, &h, (v, n.node), 1, 10 << 20);
        b.upload_chunk(&h, upload, 5 << 20, None).unwrap();
        clock.set(u1_core::SimTime::from_days(8));
        assert_eq!(b.run_maintenance(), 1);
        assert!(b.store.get_uploadjob(h.user, upload).is_err());
        assert_eq!(b.blobs.stats().multipart_aborted, 1);
    }

    #[test]
    fn ban_user_removes_sessions_content_and_token() {
        let (b, _sink, _clock) = backend(false);
        let (mut s, h) = served(&b, 66);
        let v = b.list_volumes(&h).unwrap()[0].volume;
        let n = b
            .make_node(&h, v, None, NodeKind::File, "warez.zip")
            .unwrap();
        let hash = ContentHash::from_content_id(666);
        upload(&b, &mut s, (v, n.node), hash, 50_000_000, None).unwrap();
        let token = b.register_user(UserId::new(66));

        let evicted = b.ban_user(UserId::new(66));
        assert_eq!(evicted, 1);
        assert_eq!(b.sessions.live_count(), 0);
        assert!(!b.blobs.contains(hash), "fraudulent content deleted");
        assert!(b.open_session(token, None).is_err(), "token revoked");
    }

    /// Four threads serve requests on one user's sessions while another
    /// bans the user and the clients say goodbye, some mid-run: whichever
    /// comes first, every session closes exactly once.
    #[test]
    fn concurrent_requests_ban_and_byes_close_each_session_once() {
        let (b, sink, _clock) = backend(false);
        let user = UserId::new(7);
        let token = b.register_user(user).as_bytes().to_vec();
        let root = b.store.get_root(user).unwrap().volume;
        let start = std::sync::Barrier::new(5);
        let served = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (b, token, start, served) = (&b, &token, &start, &served);
                scope.spawn(move || {
                    let mut states: Vec<SessionState> = (0..4)
                        .map(|_| {
                            let mut s = SessionState::new(true);
                            let token = token.clone();
                            b.serve(&mut s, Request::Authenticate { token }).unwrap();
                            s
                        })
                        .collect();
                    start.wait();
                    for round in 0..20 {
                        for (i, s) in states.iter_mut().enumerate() {
                            let _ = b.serve(s, Request::ListVolumes);
                            let name = format!("t{t}-s{i}-r{round}");
                            let make = Request::MakeFile {
                                volume: root,
                                parent: NodeId::new(0),
                                name,
                            };
                            let _ = b.serve(s, make);
                            served.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
                            if round == 10 && i % 2 == 0 {
                                b.serve(s, Request::Bye).unwrap();
                            }
                        }
                    }
                    for s in &mut states {
                        b.serve(s, Request::Bye).unwrap();
                    }
                });
            }
            scope.spawn(|| {
                start.wait();
                // Mid-run: a quarter of the requests have been served.
                while served.load(std::sync::atomic::Ordering::Relaxed) < 160 {
                    std::thread::yield_now();
                }
                b.ban_user(user);
            });
        });
        assert_eq!(b.sessions.live_count(), 0);
        let mut events = std::collections::BTreeMap::new();
        for r in sink.take_sorted() {
            if let u1_trace::Payload::Session { event, session, .. } = r.payload {
                let counts = events.entry(session).or_insert((0, 0));
                match event {
                    SessionEvent::Open => counts.0 += 1,
                    SessionEvent::Close => counts.1 += 1,
                }
            }
        }
        assert_eq!(events.len(), 16);
        assert!(events.values().all(|c| *c == (1, 1)), "{events:?}");
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
        let s = b.open_session(token, None).unwrap();
        b.close_session(&s);

        // During the outage the memcached tier answers for the known
        // client; a token it has never seen has nowhere to go.
        clock.set(t_down);
        let s = b.open_session(token, None).unwrap();
        assert_eq!(s.handle.user, UserId::new(1));
        b.close_session(&s);
        assert_eq!(b.fault_stats().auth_fallbacks, 1);
        let stranger = b.register_user(UserId::new(2));
        assert!(b.open_session(stranger, None).is_err());
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
                notify_drop_p: 1.0, // every fan-out dies
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let b = Backend::new(cfg, clock, sink);
        let token = b.register_user(UserId::new(1));
        let s1 = b.open_session(token, None).unwrap();
        let (tx, rx) = channel();
        let _s2 = b.open_session(token, Some(tx)).unwrap(); // second device
        let v = b.list_volumes(&s1.handle).unwrap()[0].volume;
        b.make_node(&s1.handle, v, None, NodeKind::File, "lost.txt")
            .unwrap();
        assert!(
            rx.try_iter().next().is_none(),
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
        let (b, sink, _clock) = backend(false);
        let (_, h) = served(&b, 1);
        let v = b.list_volumes(&h).unwrap()[0].volume;
        let _ = sink.take_sorted();
        assert!(b.download(&h, v, NodeId::new(424242)).is_err());
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
            let mut s = SessionState::new(false);
            let auth = Request::Authenticate {
                token: token.as_bytes().to_vec(),
            };
            if b.serve(&mut s, auth).is_err() {
                continue;
            }
            let h = s.handle().unwrap().clone();
            if let Ok(udf) = b.create_udf(&h, &format!("v{round}")) {
                let mut stored = Vec::new();
                for i in 0..3 {
                    content += 1;
                    let hash = ContentHash::from_content_id(content);
                    let uploaded = b
                        .make_node(&h, udf.volume, None, NodeKind::File, &format!("f{i}"))
                        .and_then(|n| upload(&b, &mut s, (udf.volume, n.node), hash, 1000, None));
                    if uploaded.is_ok() {
                        stored.push(hash);
                    }
                }
                let outcome = b.delete_volume(&h, udf.volume);
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
            let _ = b.serve(&mut s, Request::Bye);
        }
        panic!("no delete_volume ran out of RPC retries in 500 rounds");
    }
}
