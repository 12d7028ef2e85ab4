//! Binary codec for [`Message`].
//!
//! Layout: one kind byte (request/response/push), a varint request id where
//! applicable, one variant tag byte, then the variant's fields using the
//! [`crate::wire`] primitives. Unknown tags decode to
//! [`WireError::BadDiscriminant`] rather than panicking.

use crate::frame::{build_frame, FrameError};
use crate::msg::{Message, NodeInfo, Push, Request, RequestId, Response, VolumeInfo};
use crate::wire::{self, WireError, WireResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use u1_core::{NodeId, NodeKind, SessionId, UploadId, UserId, VolumeId, VolumeKind};

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_PUSH: u8 = 3;

fn put_volume_kind(buf: &mut impl BufMut, k: VolumeKind) {
    buf.put_u8(match k {
        VolumeKind::Root => 0,
        VolumeKind::UserDefined => 1,
        VolumeKind::Shared => 2,
    });
}

fn get_volume_kind(buf: &mut impl Buf) -> WireResult<VolumeKind> {
    match wire::get_u8(buf)? {
        0 => Ok(VolumeKind::Root),
        1 => Ok(VolumeKind::UserDefined),
        2 => Ok(VolumeKind::Shared),
        d => Err(WireError::BadDiscriminant(d)),
    }
}

fn put_node_kind(buf: &mut impl BufMut, k: NodeKind) {
    buf.put_u8(match k {
        NodeKind::File => 0,
        NodeKind::Directory => 1,
    });
}

fn get_node_kind(buf: &mut impl Buf) -> WireResult<NodeKind> {
    match wire::get_u8(buf)? {
        0 => Ok(NodeKind::File),
        1 => Ok(NodeKind::Directory),
        d => Err(WireError::BadDiscriminant(d)),
    }
}

fn put_opt_hash(buf: &mut impl BufMut, h: &Option<u1_core::ContentHash>) {
    match h {
        None => buf.put_u8(0),
        Some(h) => {
            buf.put_u8(1);
            wire::put_hash(buf, h);
        }
    }
}

fn get_opt_hash(buf: &mut impl Buf) -> WireResult<Option<u1_core::ContentHash>> {
    match wire::get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(wire::get_hash(buf)?)),
        d => Err(WireError::BadDiscriminant(d)),
    }
}

fn put_volume_info(buf: &mut impl BufMut, v: &VolumeInfo) {
    wire::put_uvarint(buf, v.volume.raw());
    put_volume_kind(buf, v.kind);
    wire::put_uvarint(buf, v.generation);
    wire::put_opt_uvarint(buf, v.owner.map(|u| u.raw()));
    wire::put_uvarint(buf, v.node_count);
}

fn get_volume_info(buf: &mut impl Buf) -> WireResult<VolumeInfo> {
    Ok(VolumeInfo {
        volume: VolumeId::new(wire::get_uvarint(buf)?),
        kind: get_volume_kind(buf)?,
        generation: wire::get_uvarint(buf)?,
        owner: wire::get_opt_uvarint(buf)?.map(UserId::new),
        node_count: wire::get_uvarint(buf)?,
    })
}

fn put_node_info(buf: &mut impl BufMut, n: &NodeInfo) {
    wire::put_uvarint(buf, n.node.raw());
    put_node_kind(buf, n.kind);
    wire::put_opt_uvarint(buf, n.parent.map(|p| p.raw()));
    wire::put_str(buf, &n.name);
    wire::put_uvarint(buf, n.size);
    put_opt_hash(buf, &n.hash);
    wire::put_uvarint(buf, n.generation);
    buf.put_u8(u8::from(n.is_dead));
}

fn get_node_info(buf: &mut impl Buf) -> WireResult<NodeInfo> {
    Ok(NodeInfo {
        node: NodeId::new(wire::get_uvarint(buf)?),
        kind: get_node_kind(buf)?,
        parent: wire::get_opt_uvarint(buf)?.map(NodeId::new),
        name: wire::get_str(buf)?.into(),
        size: wire::get_uvarint(buf)?,
        hash: get_opt_hash(buf)?,
        generation: wire::get_uvarint(buf)?,
        is_dead: match wire::get_u8(buf)? {
            0 => false,
            1 => true,
            d => return Err(WireError::BadDiscriminant(d)),
        },
    })
}

mod req_tag {
    pub const AUTHENTICATE: u8 = 1;
    pub const QUERY_SET_CAPS: u8 = 2;
    pub const LIST_VOLUMES: u8 = 3;
    pub const LIST_SHARES: u8 = 4;
    pub const CREATE_UDF: u8 = 5;
    pub const DELETE_VOLUME: u8 = 6;
    pub const MAKE_FILE: u8 = 7;
    pub const MAKE_DIR: u8 = 8;
    pub const UNLINK: u8 = 9;
    pub const MOVE: u8 = 10;
    pub const GET_DELTA: u8 = 11;
    pub const RESCAN: u8 = 12;
    pub const BEGIN_UPLOAD: u8 = 13;
    pub const UPLOAD_CHUNK: u8 = 14;
    pub const COMMIT_UPLOAD: u8 = 15;
    pub const CANCEL_UPLOAD: u8 = 16;
    pub const GET_CONTENT: u8 = 17;
    pub const PING: u8 = 18;
    pub const UPLOAD_CHUNK_SPARSE: u8 = 19;
    pub const BYE: u8 = 20;
    pub const RESUME_UPLOAD: u8 = 21;
}

fn put_request(buf: &mut impl BufMut, req: &Request) {
    use req_tag::*;
    match req {
        Request::Authenticate { token } => {
            buf.put_u8(AUTHENTICATE);
            wire::put_bytes(buf, token);
        }
        Request::QuerySetCaps { caps } => {
            buf.put_u8(QUERY_SET_CAPS);
            wire::put_uvarint(buf, caps.len() as u64);
            for c in caps {
                wire::put_str(buf, c);
            }
        }
        Request::ListVolumes => buf.put_u8(LIST_VOLUMES),
        Request::ListShares => buf.put_u8(LIST_SHARES),
        Request::CreateUdf { name } => {
            buf.put_u8(CREATE_UDF);
            wire::put_str(buf, name);
        }
        Request::DeleteVolume { volume } => {
            buf.put_u8(DELETE_VOLUME);
            wire::put_uvarint(buf, volume.raw());
        }
        Request::MakeFile {
            volume,
            parent,
            name,
        } => {
            buf.put_u8(MAKE_FILE);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, parent.raw());
            wire::put_str(buf, name);
        }
        Request::MakeDir {
            volume,
            parent,
            name,
        } => {
            buf.put_u8(MAKE_DIR);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, parent.raw());
            wire::put_str(buf, name);
        }
        Request::Unlink { volume, node } => {
            buf.put_u8(UNLINK);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, node.raw());
        }
        Request::Move {
            volume,
            node,
            new_parent,
            new_name,
        } => {
            buf.put_u8(MOVE);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, node.raw());
            wire::put_uvarint(buf, new_parent.raw());
            wire::put_str(buf, new_name);
        }
        Request::GetDelta {
            volume,
            from_generation,
        } => {
            buf.put_u8(GET_DELTA);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, *from_generation);
        }
        Request::RescanFromScratch { volume } => {
            buf.put_u8(RESCAN);
            wire::put_uvarint(buf, volume.raw());
        }
        Request::BeginUpload {
            volume,
            node,
            hash,
            size,
        } => {
            buf.put_u8(BEGIN_UPLOAD);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, node.raw());
            wire::put_hash(buf, hash);
            wire::put_uvarint(buf, *size);
        }
        Request::UploadChunk { upload, data } => put_upload_chunk(buf, *upload, data),
        Request::UploadChunkSparse { upload, len } => {
            buf.put_u8(UPLOAD_CHUNK_SPARSE);
            wire::put_uvarint(buf, upload.raw());
            wire::put_uvarint(buf, *len);
        }
        Request::ResumeUpload { upload } => {
            buf.put_u8(RESUME_UPLOAD);
            wire::put_uvarint(buf, upload.raw());
        }
        Request::CommitUpload { upload } => {
            buf.put_u8(COMMIT_UPLOAD);
            wire::put_uvarint(buf, upload.raw());
        }
        Request::CancelUpload { upload } => {
            buf.put_u8(CANCEL_UPLOAD);
            wire::put_uvarint(buf, upload.raw());
        }
        Request::GetContent { volume, node } => {
            buf.put_u8(GET_CONTENT);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, node.raw());
        }
        Request::Ping => buf.put_u8(PING),
        Request::Bye => buf.put_u8(BYE),
    }
}

fn put_upload_chunk(buf: &mut impl BufMut, upload: UploadId, data: &[u8]) {
    buf.put_u8(req_tag::UPLOAD_CHUNK);
    wire::put_uvarint(buf, upload.raw());
    wire::put_bytes(buf, data);
}

fn get_request(buf: &mut impl Buf) -> WireResult<Request> {
    use req_tag::*;
    Ok(match wire::get_u8(buf)? {
        AUTHENTICATE => Request::Authenticate {
            token: wire::get_bytes(buf)?,
        },
        QUERY_SET_CAPS => {
            let n = wire::get_uvarint_len(buf)?;
            if n > 1024 {
                return Err(WireError::BadLength);
            }
            let mut caps = Vec::with_capacity(n);
            for _ in 0..n {
                caps.push(wire::get_str(buf)?);
            }
            Request::QuerySetCaps { caps }
        }
        LIST_VOLUMES => Request::ListVolumes,
        LIST_SHARES => Request::ListShares,
        CREATE_UDF => Request::CreateUdf {
            name: wire::get_str(buf)?,
        },
        DELETE_VOLUME => Request::DeleteVolume {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
        },
        MAKE_FILE => Request::MakeFile {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            parent: NodeId::new(wire::get_uvarint(buf)?),
            name: wire::get_str(buf)?,
        },
        MAKE_DIR => Request::MakeDir {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            parent: NodeId::new(wire::get_uvarint(buf)?),
            name: wire::get_str(buf)?,
        },
        UNLINK => Request::Unlink {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            node: NodeId::new(wire::get_uvarint(buf)?),
        },
        MOVE => Request::Move {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            node: NodeId::new(wire::get_uvarint(buf)?),
            new_parent: NodeId::new(wire::get_uvarint(buf)?),
            new_name: wire::get_str(buf)?,
        },
        GET_DELTA => Request::GetDelta {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            from_generation: wire::get_uvarint(buf)?,
        },
        RESCAN => Request::RescanFromScratch {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
        },
        BEGIN_UPLOAD => Request::BeginUpload {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            node: NodeId::new(wire::get_uvarint(buf)?),
            hash: wire::get_hash(buf)?,
            size: wire::get_uvarint(buf)?,
        },
        UPLOAD_CHUNK => Request::UploadChunk {
            upload: UploadId::new(wire::get_uvarint(buf)?),
            data: wire::get_bytes(buf)?,
        },
        UPLOAD_CHUNK_SPARSE => Request::UploadChunkSparse {
            upload: UploadId::new(wire::get_uvarint(buf)?),
            len: wire::get_uvarint(buf)?,
        },
        RESUME_UPLOAD => Request::ResumeUpload {
            upload: UploadId::new(wire::get_uvarint(buf)?),
        },
        COMMIT_UPLOAD => Request::CommitUpload {
            upload: UploadId::new(wire::get_uvarint(buf)?),
        },
        CANCEL_UPLOAD => Request::CancelUpload {
            upload: UploadId::new(wire::get_uvarint(buf)?),
        },
        GET_CONTENT => Request::GetContent {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            node: NodeId::new(wire::get_uvarint(buf)?),
        },
        PING => Request::Ping,
        BYE => Request::Bye,
        d => return Err(WireError::BadDiscriminant(d)),
    })
}

mod resp_tag {
    pub const OK: u8 = 1;
    pub const ERROR: u8 = 2;
    pub const AUTH_OK: u8 = 3;
    pub const CAPABILITIES: u8 = 4;
    pub const VOLUMES: u8 = 5;
    pub const VOLUME_CREATED: u8 = 6;
    pub const NODE_CREATED: u8 = 7;
    pub const DELTA: u8 = 8;
    pub const UPLOAD_BEGUN: u8 = 9;
    pub const UPLOAD_DONE: u8 = 10;
    pub const CONTENT_BEGIN: u8 = 11;
    pub const CONTENT_CHUNK: u8 = 12;
    pub const CONTENT_END: u8 = 13;
    pub const PONG: u8 = 14;
}

fn put_response(buf: &mut impl BufMut, resp: &Response) {
    use resp_tag::*;
    match resp {
        Response::Ok => buf.put_u8(OK),
        Response::Error { code, message } => {
            buf.put_u8(ERROR);
            wire::put_str(buf, code);
            wire::put_str(buf, message);
        }
        Response::AuthOk { session, user } => {
            buf.put_u8(AUTH_OK);
            wire::put_uvarint(buf, session.raw());
            wire::put_uvarint(buf, user.raw());
        }
        Response::Capabilities { accepted } => {
            buf.put_u8(CAPABILITIES);
            wire::put_uvarint(buf, accepted.len() as u64);
            for c in accepted {
                wire::put_str(buf, c);
            }
        }
        Response::Volumes { volumes } => {
            buf.put_u8(VOLUMES);
            wire::put_uvarint(buf, volumes.len() as u64);
            for v in volumes {
                put_volume_info(buf, v);
            }
        }
        Response::VolumeCreated { volume, generation } => {
            buf.put_u8(VOLUME_CREATED);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, *generation);
        }
        Response::NodeCreated { node, generation } => {
            buf.put_u8(NODE_CREATED);
            wire::put_uvarint(buf, node.raw());
            wire::put_uvarint(buf, *generation);
        }
        Response::Delta {
            volume,
            generation,
            nodes,
        } => {
            buf.put_u8(DELTA);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, *generation);
            wire::put_uvarint(buf, nodes.len() as u64);
            for n in nodes {
                put_node_info(buf, n);
            }
        }
        Response::UploadBegun { upload, offset } => {
            buf.put_u8(UPLOAD_BEGUN);
            wire::put_uvarint(buf, upload.raw());
            wire::put_uvarint(buf, *offset);
        }
        Response::UploadDone {
            node,
            generation,
            hash,
        } => {
            buf.put_u8(UPLOAD_DONE);
            wire::put_uvarint(buf, node.raw());
            wire::put_uvarint(buf, *generation);
            wire::put_hash(buf, hash);
        }
        Response::ContentBegin { size, hash } => {
            buf.put_u8(CONTENT_BEGIN);
            wire::put_uvarint(buf, *size);
            wire::put_hash(buf, hash);
        }
        Response::ContentChunk { data } => put_content_chunk(buf, data),
        Response::ContentEnd => buf.put_u8(CONTENT_END),
        Response::Pong => buf.put_u8(PONG),
    }
}

fn put_content_chunk(buf: &mut impl BufMut, data: &[u8]) {
    buf.put_u8(resp_tag::CONTENT_CHUNK);
    wire::put_bytes(buf, data);
}

fn get_response(buf: &mut impl Buf) -> WireResult<Response> {
    use resp_tag::*;
    Ok(match wire::get_u8(buf)? {
        OK => Response::Ok,
        ERROR => Response::Error {
            code: wire::get_str(buf)?,
            message: wire::get_str(buf)?,
        },
        AUTH_OK => Response::AuthOk {
            session: SessionId::new(wire::get_uvarint(buf)?),
            user: UserId::new(wire::get_uvarint(buf)?),
        },
        CAPABILITIES => {
            let n = wire::get_uvarint_len(buf)?;
            if n > 1024 {
                return Err(WireError::BadLength);
            }
            let mut accepted = Vec::with_capacity(n);
            for _ in 0..n {
                accepted.push(wire::get_str(buf)?);
            }
            Response::Capabilities { accepted }
        }
        VOLUMES => {
            let n = wire::get_uvarint_len(buf)?;
            if n > 1_000_000 {
                return Err(WireError::BadLength);
            }
            let mut volumes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                volumes.push(get_volume_info(buf)?);
            }
            Response::Volumes { volumes }
        }
        VOLUME_CREATED => Response::VolumeCreated {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            generation: wire::get_uvarint(buf)?,
        },
        NODE_CREATED => Response::NodeCreated {
            node: NodeId::new(wire::get_uvarint(buf)?),
            generation: wire::get_uvarint(buf)?,
        },
        DELTA => {
            let volume = VolumeId::new(wire::get_uvarint(buf)?);
            let generation = wire::get_uvarint(buf)?;
            let n = wire::get_uvarint_len(buf)?;
            if n > 10_000_000 {
                return Err(WireError::BadLength);
            }
            let mut nodes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                nodes.push(get_node_info(buf)?);
            }
            Response::Delta {
                volume,
                generation,
                nodes,
            }
        }
        UPLOAD_BEGUN => Response::UploadBegun {
            upload: UploadId::new(wire::get_uvarint(buf)?),
            offset: wire::get_uvarint(buf)?,
        },
        UPLOAD_DONE => Response::UploadDone {
            node: NodeId::new(wire::get_uvarint(buf)?),
            generation: wire::get_uvarint(buf)?,
            hash: wire::get_hash(buf)?,
        },
        CONTENT_BEGIN => Response::ContentBegin {
            size: wire::get_uvarint(buf)?,
            hash: wire::get_hash(buf)?,
        },
        CONTENT_CHUNK => Response::ContentChunk {
            data: wire::get_bytes(buf)?,
        },
        CONTENT_END => Response::ContentEnd,
        PONG => Response::Pong,
        d => return Err(WireError::BadDiscriminant(d)),
    })
}

mod push_tag {
    pub const VOLUME_CHANGED: u8 = 1;
    pub const VOLUME_CREATED: u8 = 2;
    pub const VOLUME_DELETED: u8 = 3;
}

fn put_push(buf: &mut impl BufMut, push: &Push) {
    use push_tag::*;
    match push {
        Push::VolumeChanged { volume, generation } => {
            buf.put_u8(VOLUME_CHANGED);
            wire::put_uvarint(buf, volume.raw());
            wire::put_uvarint(buf, *generation);
        }
        Push::VolumeCreated { volume, kind } => {
            buf.put_u8(VOLUME_CREATED);
            wire::put_uvarint(buf, volume.raw());
            put_volume_kind(buf, *kind);
        }
        Push::VolumeDeleted { volume } => {
            buf.put_u8(VOLUME_DELETED);
            wire::put_uvarint(buf, volume.raw());
        }
    }
}

fn get_push(buf: &mut impl Buf) -> WireResult<Push> {
    use push_tag::*;
    Ok(match wire::get_u8(buf)? {
        VOLUME_CHANGED => Push::VolumeChanged {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            generation: wire::get_uvarint(buf)?,
        },
        VOLUME_CREATED => Push::VolumeCreated {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
            kind: get_volume_kind(buf)?,
        },
        VOLUME_DELETED => Push::VolumeDeleted {
            volume: VolumeId::new(wire::get_uvarint(buf)?),
        },
        d => return Err(WireError::BadDiscriminant(d)),
    })
}

fn put_request_head(buf: &mut impl BufMut, id: RequestId) {
    buf.put_u8(KIND_REQUEST);
    wire::put_uvarint(buf, u64::from(id));
}

fn put_response_head(buf: &mut impl BufMut, id: RequestId) {
    buf.put_u8(KIND_RESPONSE);
    wire::put_uvarint(buf, u64::from(id));
}

/// Room for everything in a message except its variable-length fields:
/// kind, id, tag, and the widest fixed part (three varints and a hash).
const FIXED_PART: usize = 64;

/// Size of `msg` encoded, near enough from above that a buffer reserved for
/// this much is not reallocated while the message is written.
fn room_for(msg: &Message) -> usize {
    let strings = |v: &[String]| v.iter().map(|s| s.len() + 2).sum::<usize>();
    FIXED_PART
        + match msg {
            Message::Request { req, .. } => match req {
                Request::Authenticate { token } => token.len(),
                Request::QuerySetCaps { caps } => strings(caps),
                Request::CreateUdf { name }
                | Request::MakeFile { name, .. }
                | Request::MakeDir { name, .. } => name.len(),
                Request::Move { new_name, .. } => new_name.len(),
                Request::UploadChunk { data, .. } => data.len(),
                _ => 0,
            },
            Message::Response { resp, .. } => match resp {
                Response::Error { code, message } => code.len() + message.len(),
                Response::Capabilities { accepted } => strings(accepted),
                Response::Volumes { volumes } => volumes.len() * 32,
                Response::Delta { nodes, .. } => nodes.iter().map(|n| n.name.len() + 64).sum(),
                Response::ContentChunk { data } => data.len(),
                _ => 0,
            },
            Message::Push(_) => 0,
        }
}

fn put_message(buf: &mut impl BufMut, msg: &Message) {
    match msg {
        Message::Request { id, req } => {
            put_request_head(buf, *id);
            put_request(buf, req);
        }
        Message::Response { id, resp } => {
            put_response_head(buf, *id);
            put_response(buf, resp);
        }
        Message::Push(push) => {
            buf.put_u8(KIND_PUSH);
            put_push(buf, push);
        }
    }
}

/// Encodes a message into `buf`, reserving its size first so a large
/// payload is copied once and never moved by buffer growth.
pub fn encode(msg: &Message, buf: &mut BytesMut) {
    buf.reserve(room_for(msg));
    put_message(buf, msg);
}

/// Encodes `msg` as a complete frame, length prefix included — byte for
/// byte what [`encode`] followed by [`crate::frame::encode_frame`] produces,
/// from a single buffer sized up front. Fails when the body exceeds
/// [`crate::frame::MAX_FRAME_LEN`].
pub fn encode_framed(msg: &Message) -> Result<Bytes, FrameError> {
    build_frame(room_for(msg), |buf| put_message(buf, msg))
}

/// The frame of `Request::UploadChunk { upload, data }` under request `id`,
/// built from borrowed payload bytes: the sender keeps its file in one
/// buffer and never copies a chunk into a message first.
pub fn frame_upload_chunk(
    id: RequestId,
    upload: UploadId,
    data: &[u8],
) -> Result<Bytes, FrameError> {
    build_frame(FIXED_PART + data.len(), |buf| {
        put_request_head(buf, id);
        put_upload_chunk(buf, upload, data);
    })
}

/// The frame of `Response::ContentChunk { data }` answering request `id`,
/// built from borrowed payload bytes.
pub fn frame_content_chunk(id: RequestId, data: &[u8]) -> Result<Bytes, FrameError> {
    build_frame(FIXED_PART + data.len(), |buf| {
        put_response_head(buf, id);
        put_content_chunk(buf, data);
    })
}

/// Decodes one message from a complete frame body. Trailing bytes are an
/// error — frames carry exactly one message.
pub fn decode(mut body: &[u8]) -> WireResult<Message> {
    let msg = match wire::get_u8(&mut body)? {
        KIND_REQUEST => {
            let id = wire::get_uvarint_u32(&mut body)?;
            Message::Request {
                id,
                req: get_request(&mut body)?,
            }
        }
        KIND_RESPONSE => {
            let id = wire::get_uvarint_u32(&mut body)?;
            Message::Response {
                id,
                resp: get_response(&mut body)?,
            }
        }
        KIND_PUSH => Message::Push(get_push(&mut body)?),
        d => return Err(WireError::BadDiscriminant(d)),
    };
    wire::expect_eof(&body)?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use u1_core::ContentHash;

    fn round_trip(msg: Message) {
        let mut buf = BytesMut::new();
        encode(&msg, &mut buf);
        let back = decode(&buf).expect("decode");
        assert_eq!(back, msg);
    }

    /// Asserts `samples` hold a value of every listed variant. The list
    /// expands to a `match` with no wildcard, so a variant added to msg.rs
    /// fails to compile here until it is listed, and once listed fails this
    /// check until it has a sample (which the caller then round-trips).
    macro_rules! assert_every_variant {
        ($samples:expr, $($variant:pat),+ $(,)?) => {{
            let seen: Vec<&str> = $samples
                .iter()
                .map(|s| match s {
                    $($variant => stringify!($variant),)+
                })
                .collect();
            for variant in [$(stringify!($variant)),+] {
                assert!(seen.contains(&variant), "no round-trip sample for `{variant}`");
            }
        }};
    }

    #[test]
    fn all_request_variants_round_trip() {
        let v = VolumeId::new(3);
        let n = NodeId::new(9);
        let samples = [
            Request::Authenticate {
                token: vec![1, 2, 3],
            },
            Request::QuerySetCaps {
                caps: vec!["volumes".into(), "generations".into()],
            },
            Request::ListVolumes,
            Request::ListShares,
            Request::CreateUdf {
                name: "Photos".into(),
            },
            Request::DeleteVolume { volume: v },
            Request::MakeFile {
                volume: v,
                parent: n,
                name: "a.txt".into(),
            },
            Request::MakeDir {
                volume: v,
                parent: n,
                name: "dir".into(),
            },
            Request::Unlink { volume: v, node: n },
            Request::Move {
                volume: v,
                node: n,
                new_parent: NodeId::new(1),
                new_name: "b.txt".into(),
            },
            Request::GetDelta {
                volume: v,
                from_generation: 42,
            },
            Request::RescanFromScratch { volume: v },
            Request::BeginUpload {
                volume: v,
                node: n,
                hash: ContentHash::from_content_id(5),
                size: 123456,
            },
            Request::UploadChunk {
                upload: UploadId::new(7),
                data: vec![0u8; 100],
            },
            Request::UploadChunkSparse {
                upload: UploadId::new(7),
                len: 5 * 1024 * 1024,
            },
            Request::ResumeUpload {
                upload: UploadId::new(7),
            },
            Request::CommitUpload {
                upload: UploadId::new(7),
            },
            Request::CancelUpload {
                upload: UploadId::new(7),
            },
            Request::GetContent { volume: v, node: n },
            Request::Ping,
            Request::Bye,
        ];
        assert_every_variant!(
            samples,
            Request::Authenticate { .. },
            Request::QuerySetCaps { .. },
            Request::ListVolumes,
            Request::ListShares,
            Request::CreateUdf { .. },
            Request::DeleteVolume { .. },
            Request::MakeFile { .. },
            Request::MakeDir { .. },
            Request::Unlink { .. },
            Request::Move { .. },
            Request::GetDelta { .. },
            Request::RescanFromScratch { .. },
            Request::BeginUpload { .. },
            Request::UploadChunk { .. },
            Request::UploadChunkSparse { .. },
            Request::ResumeUpload { .. },
            Request::CommitUpload { .. },
            Request::CancelUpload { .. },
            Request::GetContent { .. },
            Request::Ping,
            Request::Bye,
        );
        for req in samples {
            round_trip(Message::Request { id: 88, req });
        }
    }

    #[test]
    fn all_response_variants_round_trip() {
        let hash = ContentHash::from_content_id(1);
        let samples = [
            Response::Ok,
            Response::Error {
                code: "not_found".into(),
                message: "node n9".into(),
            },
            Response::AuthOk {
                session: SessionId::new(10),
                user: UserId::new(20),
            },
            Response::Capabilities {
                accepted: vec!["generations".into()],
            },
            Response::Volumes {
                volumes: vec![
                    VolumeInfo {
                        volume: VolumeId::new(0),
                        kind: VolumeKind::Root,
                        generation: 5,
                        owner: None,
                        node_count: 10,
                    },
                    VolumeInfo {
                        volume: VolumeId::new(8),
                        kind: VolumeKind::Shared,
                        generation: 2,
                        owner: Some(UserId::new(99)),
                        node_count: 0,
                    },
                ],
            },
            Response::VolumeCreated {
                volume: VolumeId::new(8),
                generation: 1,
            },
            Response::NodeCreated {
                node: NodeId::new(3),
                generation: 6,
            },
            Response::Delta {
                volume: VolumeId::new(0),
                generation: 9,
                nodes: vec![NodeInfo {
                    node: NodeId::new(3),
                    kind: NodeKind::File,
                    parent: Some(NodeId::new(1)),
                    name: "x.jpg".into(),
                    size: 1000,
                    hash: Some(hash),
                    generation: 9,
                    is_dead: false,
                }],
            },
            Response::UploadBegun {
                upload: UploadId::new(4),
                offset: 5 << 20,
            },
            Response::UploadDone {
                node: NodeId::new(3),
                generation: 10,
                hash,
            },
            Response::ContentBegin { size: 55, hash },
            Response::ContentChunk {
                data: vec![9u8; 55],
            },
            Response::ContentEnd,
            Response::Pong,
        ];
        assert_every_variant!(
            samples,
            Response::Ok,
            Response::Error { .. },
            Response::AuthOk { .. },
            Response::Capabilities { .. },
            Response::Volumes { .. },
            Response::VolumeCreated { .. },
            Response::NodeCreated { .. },
            Response::Delta { .. },
            Response::UploadBegun { .. },
            Response::UploadDone { .. },
            Response::ContentBegin { .. },
            Response::ContentChunk { .. },
            Response::ContentEnd,
            Response::Pong,
        );
        for resp in samples {
            round_trip(Message::Response { id: 7, resp });
        }
    }

    #[test]
    fn all_push_variants_round_trip() {
        let samples = [
            Push::VolumeChanged {
                volume: VolumeId::new(1),
                generation: 3,
            },
            Push::VolumeCreated {
                volume: VolumeId::new(2),
                kind: VolumeKind::Shared,
            },
            Push::VolumeDeleted {
                volume: VolumeId::new(2),
            },
        ];
        assert_every_variant!(
            samples,
            Push::VolumeChanged { .. },
            Push::VolumeCreated { .. },
            Push::VolumeDeleted { .. },
        );
        for push in samples {
            round_trip(Message::Push(push));
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = BytesMut::new();
        encode(
            &Message::Request {
                id: 1,
                req: Request::Ping,
            },
            &mut buf,
        );
        buf.put_u8(0xAA);
        assert_eq!(decode(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn unknown_kind_and_tags_are_rejected() {
        assert!(matches!(
            decode(&[9, 0, 1]),
            Err(WireError::BadDiscriminant(9))
        ));
        // Valid kind, bad request tag.
        assert!(matches!(
            decode(&[KIND_REQUEST, 0, 200]),
            Err(WireError::BadDiscriminant(200))
        ));
        // Truncated mid-message.
        assert_eq!(decode(&[KIND_REQUEST]), Err(WireError::Truncated));
        assert_eq!(decode(&[]), Err(WireError::Truncated));
    }
}
