//! Client transports: the storage protocol's calls, typed once, over two
//! links to [`Backend::serve`] — a direct call, or a TCP connection.

use std::borrow::Cow;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use u1_auth::Token;
use u1_blobstore::Blob;
use u1_core::{
    ContentHash, CoreError, CoreResult, NodeId, NodeKind, SessionId, UploadId, UserId, VolumeId,
    VolumeKind,
};
use u1_proto::conn::{ClientConn, ClientEvent, Received};
use u1_proto::msg::{NodeInfo, Push, Request, RequestId, Response, VolumeInfo};
use u1_proto::tcp;
use u1_server::api::{Served, SessionState};
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

/// Content bytes per `UploadChunk` when the caller has real bytes. A wire
/// chunk is bounded by the frame limit, not the S3 part size, and 1 MiB
/// keeps frames comfortable. Both links use it, so a live upload is the
/// same sequence of back-end calls in process and over TCP.
const CONTENT_CHUNK: usize = 1024 * 1024;

/// Most a download reserves on the strength of the announced size alone;
/// a larger file grows the buffer as its bytes actually arrive.
const MAX_PREALLOC: usize = 64 * 1024 * 1024;

/// The seam under the typed calls: how one protocol request reaches
/// [`Backend::serve`], and what it answered. [`Transport`] is implemented
/// once, over this.
trait Link {
    /// Sends one request and returns `serve`'s answer, an error response
    /// as the error it stands for.
    fn call(&mut self, req: Request) -> CoreResult<Served>;

    /// `UploadChunk` of the caller's bytes: moved into the request when
    /// they are owned, copied when borrowed.
    fn send_chunk(&mut self, upload: UploadId, data: Cow<'_, [u8]>) -> CoreResult<()> {
        self.respond(Request::UploadChunk {
            upload,
            data: data.into_owned(),
        })
        .map(drop)
    }

    /// Pushes received since the last poll.
    fn take_pushes(&mut self) -> Vec<Push>;

    /// The session id, once authenticated and until closed.
    fn session_id(&self) -> Option<SessionId>;

    /// Drops the link after its goodbye.
    fn disconnect(&mut self);

    /// [`Link::call`] for a request answered by one response.
    fn respond(&mut self, req: Request) -> CoreResult<Response> {
        match self.call(req)? {
            Served::Response(resp) => Ok(resp),
            Served::Content { .. } => Err(CoreError::invalid("unexpected content")),
        }
    }
}

fn unexpected(resp: &Response) -> CoreError {
    CoreError::invalid(format!("unexpected {}", resp.label()))
}

impl<L: Link> Transport for L {
    fn authenticate(&mut self, token: Token) -> CoreResult<(SessionId, UserId)> {
        match self.respond(Request::Authenticate {
            token: token.as_bytes().to_vec(),
        })? {
            Response::AuthOk { session, user } => Ok((session, user)),
            other => Err(unexpected(&other)),
        }
    }

    fn query_set_caps(&mut self, caps: &[&str]) -> CoreResult<()> {
        self.respond(Request::QuerySetCaps {
            caps: caps.iter().map(|s| s.to_string()).collect(),
        })
        .map(drop)
    }

    fn list_volumes(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        match self.respond(Request::ListVolumes)? {
            Response::Volumes { volumes } => Ok(volumes),
            other => Err(unexpected(&other)),
        }
    }

    fn list_shares(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        match self.respond(Request::ListShares)? {
            Response::Volumes { volumes } => Ok(volumes),
            other => Err(unexpected(&other)),
        }
    }

    fn create_udf(&mut self, name: &str) -> CoreResult<VolumeInfo> {
        match self.respond(Request::CreateUdf { name: name.into() })? {
            Response::VolumeCreated { volume, generation } => Ok(VolumeInfo {
                volume,
                kind: VolumeKind::UserDefined,
                generation,
                owner: None,
                node_count: 0,
            }),
            other => Err(unexpected(&other)),
        }
    }

    fn delete_volume(&mut self, volume: VolumeId) -> CoreResult<()> {
        self.respond(Request::DeleteVolume { volume }).map(drop)
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
        match self.respond(req)? {
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
            other => Err(unexpected(&other)),
        }
    }

    fn unlink(&mut self, volume: VolumeId, node: NodeId) -> CoreResult<()> {
        self.respond(Request::Unlink { volume, node }).map(drop)
    }

    fn move_node(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
    ) -> CoreResult<()> {
        self.respond(Request::Move {
            volume,
            node,
            new_parent: new_parent.unwrap_or(NodeId::new(0)),
            new_name: new_name.into(),
        })
        .map(drop)
    }

    fn get_delta(
        &mut self,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<NodeInfo>)> {
        match self.respond(Request::GetDelta {
            volume,
            from_generation,
        })? {
            Response::Delta {
                generation, nodes, ..
            } => Ok((generation, nodes)),
            other => Err(unexpected(&other)),
        }
    }

    fn rescan_from_scratch(&mut self, volume: VolumeId) -> CoreResult<(u64, Vec<NodeInfo>)> {
        match self.respond(Request::RescanFromScratch { volume })? {
            Response::Delta {
                generation, nodes, ..
            } => Ok((generation, nodes)),
            other => Err(unexpected(&other)),
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
        let upload = match self.respond(Request::BeginUpload {
            volume,
            node,
            hash,
            size,
        })? {
            Response::UploadDone { .. } => {
                return Ok(UploadResult {
                    deduplicated: true,
                    bytes_sent: 0,
                })
            }
            Response::UploadBegun { upload, .. } => upload,
            other => return Err(unexpected(&other)),
        };
        let mut sent = 0u64;
        match data {
            // No content bytes: declare part lengths without materializing
            // any, one `UploadChunkSparse` per S3 part — the part schedule
            // of the driver's uploads, so both produce the same back-end
            // calls and trace records. A real-bytes server refuses sparse
            // chunks, so the upload fails there instead of storing bytes
            // the caller never had.
            None => {
                let total = size.max(1);
                while sent < total {
                    let len = (total - sent).min(u1_blobstore::PART_SIZE);
                    self.respond(Request::UploadChunkSparse { upload, len })?;
                    sent += len;
                }
            }
            // A file of one chunk is that chunk: the caller's buffer moves.
            Some(bytes) if (1..=CONTENT_CHUNK).contains(&bytes.len()) => {
                sent = bytes.len() as u64;
                self.send_chunk(upload, Cow::Owned(bytes))?;
            }
            // Live bytes: `CONTENT_CHUNK`-sized chunks of the caller's
            // buffer; an empty file travels as one one-byte chunk.
            Some(bytes) => {
                let chunks = if bytes.is_empty() {
                    [0u8].chunks(1)
                } else {
                    bytes.chunks(CONTENT_CHUNK)
                };
                for chunk in chunks {
                    self.send_chunk(upload, Cow::Borrowed(chunk))?;
                    sent += chunk.len() as u64;
                }
            }
        }
        match self.respond(Request::CommitUpload { upload })? {
            Response::UploadDone { .. } => Ok(UploadResult {
                deduplicated: false,
                bytes_sent: sent,
            }),
            other => Err(unexpected(&other)),
        }
    }

    fn download(
        &mut self,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<(u64, ContentHash, Option<Vec<u8>>)> {
        match self.call(Request::GetContent { volume, node })? {
            Served::Content { size, hash, data } => Ok((size, hash, data.map(Blob::into_vec))),
            Served::Response(other) => Err(unexpected(&other)),
        }
    }

    fn poll_pushes(&mut self) -> Vec<Push> {
        self.take_pushes()
    }

    fn close(&mut self) {
        // A live session says goodbye and waits for the answer: `serve`
        // closes the session *before* answering, so by the time `close`
        // returns the teardown is globally ordered, on either link.
        if self.session_id().is_some() {
            let _ = self.call(Request::Bye);
        }
        self.disconnect();
    }

    fn session(&self) -> Option<SessionId> {
        self.session_id()
    }
}

// ---------------------------------------------------------------------------
// Direct (in-process) link
// ---------------------------------------------------------------------------

/// Calls [`Backend::serve`] in process: the measurement-mode path, with no
/// socket and no codec between client and back-end.
pub struct DirectTransport {
    backend: Arc<Backend>,
    state: SessionState,
}

impl DirectTransport {
    pub fn new(backend: Arc<Backend>) -> Self {
        Self {
            backend,
            state: SessionState::new(true),
        }
    }

    /// Disables push subscription (for modeling clients that never receive
    /// notifications).
    pub fn without_pushes(mut self) -> Self {
        self.state = SessionState::new(false);
        self
    }
}

impl Link for DirectTransport {
    fn call(&mut self, req: Request) -> CoreResult<Served> {
        self.backend.serve(&mut self.state, req)
    }

    fn take_pushes(&mut self) -> Vec<Push> {
        self.state
            .pushes()
            .map_or_else(Vec::new, |rx| rx.try_iter().collect())
    }

    fn session_id(&self) -> Option<SessionId> {
        self.state.handle().map(|h| h.session)
    }

    fn disconnect(&mut self) {}
}

// ---------------------------------------------------------------------------
// TCP link
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
    /// ops, begin/chunks/end for content streams, a chunk's payload as a
    /// slice of the receive buffer) and buffering any pushes seen along the
    /// way.
    fn recv(&mut self, id: RequestId, mut on_resp: impl FnMut(Received<'_>)) -> CoreResult<()> {
        let mut done = false;
        while !done {
            let n = tcp::read_some(&mut self.stream, &mut self.buf)
                .map_err(|e| CoreError::unavailable(format!("recv: {e}")))?;
            if n == 0 {
                return Err(CoreError::unavailable("connection closed"));
            }
            let (pushes, mut stray) = (&mut self.pushes, false);
            self.conn
                .on_bytes_with(&self.buf[..n], |received| match received {
                    Received::Event(ClientEvent::Push(p)) => pushes.push(p),
                    Received::Event(ClientEvent::Response { id: got, .. })
                    | Received::Chunk { id: got, .. }
                        if got != id =>
                    {
                        stray = true
                    }
                    Received::Event(ClientEvent::Response { resp, .. }) => {
                        done = resp.is_final();
                        on_resp(Received::Event(ClientEvent::Response { id, resp }));
                    }
                    chunk @ Received::Chunk { .. } => on_resp(chunk),
                })
                .map_err(|e| CoreError::invalid(format!("protocol: {e}")))?;
            if stray {
                return Err(CoreError::invalid("response id mismatch"));
            }
        }
        Ok(())
    }

    /// Sends a framed single-response request and returns its response,
    /// an error response as the error it stands for.
    fn round_trip(&mut self, id: RequestId, frame: &[u8]) -> CoreResult<Response> {
        self.send(frame)?;
        let mut last = None;
        self.recv(id, |received| {
            if let Received::Event(ClientEvent::Response { resp, .. }) = received {
                last = Some(resp);
            }
        })?;
        match last {
            Some(Response::Error { code, message }) => Err(CoreError::from_code(&code, message)),
            Some(resp) => Ok(resp),
            None => Err(CoreError::invalid("no response")),
        }
    }

    /// Sends a framed `GetContent` and collects its stream, appending each
    /// chunk's payload to the file buffer straight from the receive buffer.
    fn content(&mut self, id: RequestId, frame: &[u8]) -> CoreResult<Served> {
        self.send(frame)?;
        let mut size = 0u64;
        let mut hash = None;
        let mut data = Vec::new();
        let mut chunks_seen = false;
        let mut refused = None;
        self.recv(id, |received| match received {
            Received::Chunk { data: d, .. } => {
                chunks_seen = true;
                data.extend_from_slice(d);
            }
            Received::Event(ClientEvent::Response { resp, .. }) => match resp {
                Response::ContentBegin { size: s, hash: h } => {
                    size = s;
                    hash = Some(h);
                    // One allocation for the whole file — up to a cap,
                    // because the size is the server's word.
                    data.reserve(usize::try_from(s).map_or(MAX_PREALLOC, |s| s.min(MAX_PREALLOC)));
                }
                Response::ContentEnd => {}
                Response::Error { code, message } => {
                    refused = Some(CoreError::from_code(&code, message))
                }
                other => refused = Some(unexpected(&other)),
            },
            // `recv` keeps pushes for `poll_pushes`.
            Received::Event(ClientEvent::Push(_)) => {}
        })?;
        if let Some(e) = refused {
            return Err(e);
        }
        let hash = hash.ok_or_else(|| CoreError::invalid("missing content header"))?;
        // A chunkless stream with a nonzero declared size is measurement
        // mode: the server accounted the transfer but holds no bytes, and
        // `serve` answered with none.
        let data = (chunks_seen || size == 0).then(|| Blob::from(data));
        Ok(Served::Content { size, hash, data })
    }
}

fn encode_error(e: u1_proto::ConnError) -> CoreError {
    CoreError::invalid(format!("encode: {e}"))
}

impl Link for TcpTransport {
    fn call(&mut self, req: Request) -> CoreResult<Served> {
        let content = matches!(req, Request::GetContent { .. });
        let (id, frame) = self.conn.request(req).map_err(encode_error)?;
        if content {
            return self.content(id, &frame);
        }
        let resp = self.round_trip(id, &frame)?;
        if let Response::AuthOk { session, .. } = &resp {
            self.session = Some(*session);
        }
        Ok(Served::Response(resp))
    }

    /// Frames the chunk straight from the caller's buffer.
    fn send_chunk(&mut self, upload: UploadId, data: Cow<'_, [u8]>) -> CoreResult<()> {
        let (id, frame) = self
            .conn
            .upload_chunk(upload, &data)
            .map_err(encode_error)?;
        self.round_trip(id, &frame).map(drop)
    }

    fn take_pushes(&mut self) -> Vec<Push> {
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

    fn session_id(&self) -> Option<SessionId> {
        self.session
    }

    /// The server closes the connection after answering `Bye`; an
    /// unauthenticated one just disconnects.
    fn disconnect(&mut self) {
        self.session = None;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}
