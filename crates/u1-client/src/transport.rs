//! Client transports: the same operations over two very different paths.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use u1_auth::Token;
use u1_core::{ContentHash, CoreError, CoreResult, NodeId, NodeKind, SessionId, UserId, VolumeId};
use u1_proto::conn::{ClientConn, ClientEvent};
use u1_proto::msg::{NodeInfo, Push, Request, RequestId, Response, VolumeInfo};
use u1_proto::tcp;
use u1_server::api::node_info;
use u1_server::Backend;

/// Result of an upload as the client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadResult {
    /// The server already had the content: no bytes were sent (§3.3).
    pub deduplicated: bool,
    /// Bytes actually transferred.
    pub bytes_sent: u64,
}

/// The operations a desktop client performs against the service. One
/// transport == one session == one (possibly virtual) connection.
pub trait Transport {
    /// Authenticates and opens the session. Must be called first.
    fn authenticate(&mut self, token: Token) -> CoreResult<(SessionId, UserId)>;
    fn query_set_caps(&mut self, caps: &[&str]) -> CoreResult<()>;
    fn list_volumes(&mut self) -> CoreResult<Vec<VolumeInfo>>;
    fn list_shares(&mut self) -> CoreResult<Vec<VolumeInfo>>;
    fn create_udf(&mut self, name: &str) -> CoreResult<VolumeInfo>;
    fn delete_volume(&mut self, volume: VolumeId) -> CoreResult<()>;
    fn make_node(
        &mut self,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
    ) -> CoreResult<NodeInfo>;
    fn unlink(&mut self, volume: VolumeId, node: NodeId) -> CoreResult<()>;
    fn move_node(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
    ) -> CoreResult<()>;
    fn get_delta(
        &mut self,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<NodeInfo>)>;
    fn rescan_from_scratch(&mut self, volume: VolumeId) -> CoreResult<(u64, Vec<NodeInfo>)>;
    /// Uploads content for an existing file node. `data` carries real bytes
    /// in live mode; in measurement mode (`None`) only `size` matters, and
    /// a server that stores real bytes refuses the upload.
    fn upload(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> CoreResult<UploadResult>;
    fn download(
        &mut self,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<(u64, ContentHash, Option<Vec<u8>>)>;
    /// Pushes received since the last poll.
    fn poll_pushes(&mut self) -> Vec<Push>;
    /// Ends the session.
    fn close(&mut self);
    /// The session id, once authenticated.
    fn session(&self) -> Option<SessionId>;
}

// ---------------------------------------------------------------------------
// Direct (in-process) transport
// ---------------------------------------------------------------------------

/// Calls the backend's handlers directly, in process: the measurement-mode
/// path, with no socket and no codec between client and back-end.
pub struct DirectTransport {
    backend: Arc<Backend>,
    session: Option<SessionId>,
    push_rx: Option<crossbeam::channel::Receiver<Push>>,
    /// Register for pushes? Cold clients (crashed/quiet) may skip it.
    subscribe_pushes: bool,
}

impl DirectTransport {
    pub fn new(backend: Arc<Backend>) -> Self {
        Self {
            backend,
            session: None,
            push_rx: None,
            subscribe_pushes: true,
        }
    }

    /// Disables push subscription (for modeling clients that never receive
    /// notifications).
    pub fn without_pushes(mut self) -> Self {
        self.subscribe_pushes = false;
        self
    }

    fn sid(&self) -> CoreResult<SessionId> {
        self.session
            .ok_or_else(|| CoreError::invalid("not authenticated"))
    }
}

impl Transport for DirectTransport {
    fn authenticate(&mut self, token: Token) -> CoreResult<(SessionId, UserId)> {
        let h = self.backend.open_session(token)?;
        if self.subscribe_pushes {
            let (tx, rx) = crossbeam::channel::unbounded();
            self.backend.push_router.register(h.session, tx);
            self.push_rx = Some(rx);
        }
        self.session = Some(h.session);
        Ok((h.session, h.user))
    }

    fn query_set_caps(&mut self, caps: &[&str]) -> CoreResult<()> {
        let sid = self.sid()?;
        self.backend
            .query_set_caps(sid, caps.iter().map(|s| s.to_string()).collect())?;
        Ok(())
    }

    fn list_volumes(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        self.backend.list_volumes(self.sid()?)
    }

    fn list_shares(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        self.backend.list_shares(self.sid()?)
    }

    fn create_udf(&mut self, name: &str) -> CoreResult<VolumeInfo> {
        self.backend.create_udf(self.sid()?, name)
    }

    fn delete_volume(&mut self, volume: VolumeId) -> CoreResult<()> {
        self.backend.delete_volume(self.sid()?, volume)?;
        Ok(())
    }

    fn make_node(
        &mut self,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
    ) -> CoreResult<NodeInfo> {
        self.backend
            .make_node(self.sid()?, volume, parent, kind, name)
    }

    fn unlink(&mut self, volume: VolumeId, node: NodeId) -> CoreResult<()> {
        self.backend.unlink(self.sid()?, volume, node)?;
        Ok(())
    }

    fn move_node(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
    ) -> CoreResult<()> {
        self.backend
            .move_node(self.sid()?, volume, node, new_parent, new_name)?;
        Ok(())
    }

    fn get_delta(
        &mut self,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<NodeInfo>)> {
        let (generation, rows) = self
            .backend
            .get_delta(self.sid()?, volume, from_generation)?;
        Ok((generation, rows.into_iter().map(node_info).collect()))
    }

    fn rescan_from_scratch(&mut self, volume: VolumeId) -> CoreResult<(u64, Vec<NodeInfo>)> {
        let (generation, rows) = self.backend.rescan_from_scratch(self.sid()?, volume)?;
        Ok((generation, rows.into_iter().map(node_info).collect()))
    }

    fn upload(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> CoreResult<UploadResult> {
        let (deduplicated, bytes_sent) = self
            .backend
            .upload_file_with_recovery(self.sid()?, volume, node, hash, size, data.as_deref(), None)
            .map_err(|fail| fail.error)?;
        Ok(UploadResult {
            deduplicated,
            bytes_sent,
        })
    }

    fn download(
        &mut self,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<(u64, ContentHash, Option<Vec<u8>>)> {
        self.backend.download(self.sid()?, volume, node)
    }

    fn poll_pushes(&mut self) -> Vec<Push> {
        match &self.push_rx {
            Some(rx) => u1_notify::drain(rx),
            None => Vec::new(),
        }
    }

    fn close(&mut self) {
        if let Some(sid) = self.session.take() {
            let _ = self.backend.close_session(sid);
        }
        self.push_rx = None;
    }

    fn session(&self) -> Option<SessionId> {
        self.session
    }
}

/// Most a download reserves on the strength of the announced size alone;
/// a larger file grows the buffer as its bytes actually arrive.
const MAX_PREALLOC: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// A real protocol connection. Requests are issued synchronously (one
/// outstanding request at a time, like the original client's action queue);
/// pushes arriving between responses are buffered for `poll_pushes`.
pub struct TcpTransport {
    stream: TcpStream,
    conn: ClientConn,
    pushes: Vec<Push>,
    session: Option<SessionId>,
    buf: Vec<u8>,
}

impl TcpTransport {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        tcp::configure(&stream)?;
        Ok(Self {
            stream,
            conn: ClientConn::new(),
            pushes: Vec::new(),
            session: None,
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// Writes one framed request.
    fn send(&mut self, frame: &[u8]) -> CoreResult<()> {
        self.stream
            .write_all(frame)
            .map_err(|e| CoreError::unavailable(format!("send: {e}")))
    }

    /// Blocks until request `id` has its final response, handing every
    /// response of the request to `on_resp` as it arrives (1 for ordinary
    /// ops, begin/chunks/end for content streams) and buffering any pushes
    /// seen along the way.
    fn recv(&mut self, id: RequestId, mut on_resp: impl FnMut(Response)) -> CoreResult<()> {
        loop {
            let n = tcp::read_some(&mut self.stream, &mut self.buf)
                .map_err(|e| CoreError::unavailable(format!("recv: {e}")))?;
            if n == 0 {
                return Err(CoreError::unavailable("connection closed"));
            }
            let events = self
                .conn
                .on_bytes(&self.buf[..n])
                .map_err(|e| CoreError::invalid(format!("protocol: {e}")))?;
            for ev in events {
                match ev {
                    ClientEvent::Push(p) => self.pushes.push(p),
                    ClientEvent::Response { id: got, resp } => {
                        if got != id {
                            return Err(CoreError::invalid("response id mismatch"));
                        }
                        let done = resp.is_final();
                        on_resp(resp);
                        if done {
                            return Ok(());
                        }
                    }
                }
            }
        }
    }

    /// Sends a framed single-response request and unwraps its response,
    /// converting protocol errors.
    fn round_trip(&mut self, id: RequestId, frame: &[u8]) -> CoreResult<Response> {
        self.send(frame)?;
        let mut last = None;
        self.recv(id, |resp| last = Some(resp))?;
        match last {
            Some(Response::Error { code, message }) => Err(wire_error(&code, message)),
            Some(resp) => Ok(resp),
            None => Err(CoreError::invalid("no response")),
        }
    }

    fn call_one(&mut self, req: Request) -> CoreResult<Response> {
        let (id, frame) = self.conn.request(req).map_err(encode_error)?;
        self.round_trip(id, &frame)
    }
}

fn encode_error(e: u1_proto::ConnError) -> CoreError {
    CoreError::invalid(format!("encode: {e}"))
}

/// Reconstitutes a typed [`CoreError`] from its wire form, so TCP clients
/// observe the same error kinds as in-process ones.
fn wire_error(code: &str, message: String) -> CoreError {
    match code {
        "not_found" => CoreError::not_found(message),
        "conflict" => CoreError::conflict(message),
        "denied" => CoreError::permission_denied(message),
        "unavailable" => CoreError::unavailable(message),
        _ => CoreError::invalid(message),
    }
}

impl Transport for TcpTransport {
    fn authenticate(&mut self, token: Token) -> CoreResult<(SessionId, UserId)> {
        match self.call_one(Request::Authenticate {
            token: token.as_bytes().to_vec(),
        })? {
            Response::AuthOk { session, user } => {
                self.session = Some(session);
                Ok((session, user))
            }
            other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
        }
    }

    fn query_set_caps(&mut self, caps: &[&str]) -> CoreResult<()> {
        self.call_one(Request::QuerySetCaps {
            caps: caps.iter().map(|s| s.to_string()).collect(),
        })?;
        Ok(())
    }

    fn list_volumes(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        match self.call_one(Request::ListVolumes)? {
            Response::Volumes { volumes } => Ok(volumes),
            other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
        }
    }

    fn list_shares(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        match self.call_one(Request::ListShares)? {
            Response::Volumes { volumes } => Ok(volumes),
            other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
        }
    }

    fn create_udf(&mut self, name: &str) -> CoreResult<VolumeInfo> {
        match self.call_one(Request::CreateUdf { name: name.into() })? {
            Response::VolumeCreated { volume, generation } => Ok(VolumeInfo {
                volume,
                kind: u1_core::VolumeKind::UserDefined,
                generation,
                owner: None,
                node_count: 0,
            }),
            other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
        }
    }

    fn delete_volume(&mut self, volume: VolumeId) -> CoreResult<()> {
        self.call_one(Request::DeleteVolume { volume })?;
        Ok(())
    }

    fn make_node(
        &mut self,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
    ) -> CoreResult<NodeInfo> {
        let parent_id = parent.unwrap_or(NodeId::new(0));
        let req = match kind {
            NodeKind::File => Request::MakeFile {
                volume,
                parent: parent_id,
                name: name.into(),
            },
            NodeKind::Directory => Request::MakeDir {
                volume,
                parent: parent_id,
                name: name.into(),
            },
        };
        match self.call_one(req)? {
            Response::NodeCreated { node, generation } => Ok(NodeInfo {
                node,
                kind,
                parent,
                name: name.into(),
                size: 0,
                hash: None,
                generation,
                is_dead: false,
            }),
            other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
        }
    }

    fn unlink(&mut self, volume: VolumeId, node: NodeId) -> CoreResult<()> {
        self.call_one(Request::Unlink { volume, node })?;
        Ok(())
    }

    fn move_node(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
    ) -> CoreResult<()> {
        self.call_one(Request::Move {
            volume,
            node,
            new_parent: new_parent.unwrap_or(NodeId::new(0)),
            new_name: new_name.into(),
        })?;
        Ok(())
    }

    fn get_delta(
        &mut self,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<NodeInfo>)> {
        match self.call_one(Request::GetDelta {
            volume,
            from_generation,
        })? {
            Response::Delta {
                generation, nodes, ..
            } => Ok((generation, nodes)),
            other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
        }
    }

    fn rescan_from_scratch(&mut self, volume: VolumeId) -> CoreResult<(u64, Vec<NodeInfo>)> {
        match self.call_one(Request::RescanFromScratch { volume })? {
            Response::Delta {
                generation, nodes, ..
            } => Ok((generation, nodes)),
            other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
        }
    }

    fn upload(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> CoreResult<UploadResult> {
        match self.call_one(Request::BeginUpload {
            volume,
            node,
            hash,
            size,
        })? {
            Response::UploadDone { .. } => Ok(UploadResult {
                deduplicated: true,
                bytes_sent: 0,
            }),
            Response::UploadBegun { upload, .. } => {
                let mut sent = 0u64;
                match data {
                    // No content bytes: declare part lengths without
                    // materializing any — the same part schedule as
                    // `DirectTransport` (one `UploadChunkSparse` per S3
                    // part), so both paths produce identical back-end RPC
                    // sequences and trace records. A real-bytes server
                    // refuses sparse chunks, so the upload fails there
                    // instead of storing bytes the caller never had.
                    None => {
                        let mut remaining = size.max(1);
                        while remaining > 0 {
                            let part = remaining.min(u1_blobstore::PART_SIZE);
                            self.call_one(Request::UploadChunkSparse { upload, len: part })?;
                            sent += part;
                            remaining -= part;
                        }
                    }
                    // Live bytes: wire chunks are bounded by the frame
                    // limit, not the S3 part size; 1MB keeps frames
                    // comfortable. Each chunk is framed straight from the
                    // caller's buffer.
                    Some(bytes) => {
                        const WIRE_CHUNK: usize = 1024 * 1024;
                        let filler = [0u8];
                        let chunks = if bytes.is_empty() {
                            filler.chunks(1)
                        } else {
                            bytes.chunks(WIRE_CHUNK)
                        };
                        for chunk in chunks {
                            let (id, frame) = self
                                .conn
                                .upload_chunk(upload, chunk)
                                .map_err(encode_error)?;
                            self.round_trip(id, &frame)?;
                            sent += chunk.len() as u64;
                        }
                    }
                }
                match self.call_one(Request::CommitUpload { upload })? {
                    Response::UploadDone { .. } => Ok(UploadResult {
                        deduplicated: false,
                        bytes_sent: sent,
                    }),
                    other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
                }
            }
            other => Err(CoreError::invalid(format!("unexpected {}", other.label()))),
        }
    }

    fn download(
        &mut self,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<(u64, ContentHash, Option<Vec<u8>>)> {
        let (id, frame) = self
            .conn
            .request(Request::GetContent { volume, node })
            .map_err(encode_error)?;
        self.send(&frame)?;
        let mut size = 0u64;
        let mut hash = None;
        let mut data = Vec::new();
        let mut chunks_seen = false;
        let mut refused = None;
        self.recv(id, |resp| match resp {
            Response::ContentBegin { size: s, hash: h } => {
                size = s;
                hash = Some(h);
                // One allocation for the whole file — up to a cap, because
                // the size is the server's word.
                data.reserve(usize::try_from(s).map_or(MAX_PREALLOC, |s| s.min(MAX_PREALLOC)));
            }
            Response::ContentChunk { data: d } => {
                chunks_seen = true;
                data.extend_from_slice(&d);
            }
            Response::ContentEnd => {}
            Response::Error { code, message } => refused = Some(wire_error(&code, message)),
            other => {
                refused = Some(CoreError::invalid(format!("unexpected {}", other.label())));
            }
        })?;
        if let Some(e) = refused {
            return Err(e);
        }
        let hash = hash.ok_or_else(|| CoreError::invalid("missing content header"))?;
        // A chunkless stream with a nonzero declared size is measurement
        // mode: the server accounted the transfer but holds no bytes —
        // mirror `DirectTransport` by reporting `None`.
        let data = if !chunks_seen && size > 0 {
            None
        } else {
            Some(data)
        };
        Ok((size, hash, data))
    }

    fn poll_pushes(&mut self) -> Vec<Push> {
        // Opportunistically read anything already buffered on the socket.
        let _ = self.stream.set_nonblocking(true);
        loop {
            match std::io::Read::read(&mut self.stream, &mut self.buf) {
                Ok(0) => break,
                Ok(n) => {
                    if let Ok(events) = self.conn.on_bytes(&self.buf[..n]) {
                        for ev in events {
                            if let ClientEvent::Push(p) = ev {
                                self.pushes.push(p);
                            }
                        }
                    } else {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let _ = self.stream.set_nonblocking(false);
        std::mem::take(&mut self.pushes)
    }

    fn close(&mut self) {
        // A live session says goodbye and waits for the acknowledgement:
        // the server closes the session *before* answering, so by the time
        // `close` returns the teardown is globally ordered — matching
        // `DirectTransport::close`, whose `close_session` call is
        // synchronous. An unauthenticated connection just disconnects.
        if self.session.take().is_some() {
            let _ = self.call_one(Request::Bye);
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn session(&self) -> Option<SessionId> {
        self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use u1_core::{Sha1, SimClock};
    use u1_server::BackendConfig;
    use u1_trace::NullSink;

    /// Real bytes through the in-process transport: the server's upload
    /// loop cuts them into S3 parts, and the download hands them back.
    #[test]
    fn direct_upload_with_real_bytes_round_trips_through_download() {
        let cfg = BackendConfig {
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            store_real_bytes: true,
            ..Default::default()
        };
        let backend = Arc::new(Backend::new(
            cfg,
            Arc::new(SimClock::new()),
            Arc::new(NullSink),
        ));
        let token = backend.register_user(UserId::new(1));
        let mut t = DirectTransport::new(backend);
        t.authenticate(token).unwrap();
        let root = t.list_volumes().unwrap()[0].volume;
        // One byte more than a part: two parts, the second a single byte.
        let data: Vec<u8> = (0..=u1_blobstore::PART_SIZE)
            .map(|i| (i % 251) as u8)
            .collect();
        let hash = Sha1::digest(&data);
        let node = t
            .make_node(root, None, NodeKind::File, "two-parts.bin")
            .unwrap();
        let up = t
            .upload(root, node.node, hash, data.len() as u64, Some(data.clone()))
            .unwrap();
        assert_eq!((up.deduplicated, up.bytes_sent), (false, data.len() as u64));
        let (size, got_hash, got) = t.download(root, node.node).unwrap();
        assert_eq!((size, got_hash), (data.len() as u64, hash));
        assert!(got.unwrap() == data, "bytes survive the part schedule");
    }
}
