//! Binary codec for [`Message`].
//!
//! Layout: one kind byte (request/response/push), a varint request id where
//! applicable, one variant tag byte, then the variant's fields in wire
//! order, each in the form its `Wire` impl gives it on top of the
//! [`crate::wire`] primitives. Unknown tags decode to
//! [`WireError::BadDiscriminant`] rather than panicking.
//!
//! The wire format is written once, in the `messages!` tables below: one
//! line per variant of [`Request`], [`Response`] and [`Push`], giving its
//! tag, its label and its fields in wire order. Each table generates that
//! type's encoder, its decoder and its `label()`. A message is added with
//! one variant in [`crate::msg`] and one line here; the encoder's `match`
//! has no wildcard, so a variant without a line does not compile, and
//! neither does a tag used twice.

use crate::frame::{build_frame, FrameError};
use crate::msg::{Message, NodeInfo, Push, Request, RequestId, Response, VolumeInfo};
use crate::wire::{self, WireError, WireResult};
use bytes::{BufMut, Bytes, BytesMut};
use u1_core::{
    ContentHash, Name, NodeId, NodeKind, SessionId, UploadId, UserId, VolumeId, VolumeKind,
};

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_PUSH: u8 = 3;

/// A value with one wire form: `put` appends it, `get` reads it back.
///
/// Every `get` is `#[inline]`: without the hint a small message's decode
/// keeps a call per nesting level and runs about a third slower.
trait Wire {
    fn put(&self, buf: &mut BytesMut);
    fn get(buf: &mut &[u8]) -> WireResult<Self>
    where
        Self: Sized;
}

impl Wire for u64 {
    fn put(&self, buf: &mut BytesMut) {
        wire::put_uvarint(buf, *self);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        wire::get_uvarint(buf)
    }
}

/// Request ids: a varint that must fit 32 bits.
impl Wire for u32 {
    fn put(&self, buf: &mut BytesMut) {
        wire::put_uvarint(buf, u64::from(*self));
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        wire::get_uvarint_u32(buf)
    }
}

macro_rules! varint_ids {
    ($($id:ty),+) => {$(
        impl Wire for $id {
            fn put(&self, buf: &mut BytesMut) {
                self.raw().put(buf);
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                u64::get(buf).map(Self::from)
            }
        }
    )+};
}

varint_ids!(UserId, VolumeId, NodeId, SessionId, UploadId);

/// Borrowed bytes; the chunk framers send payloads from here.
impl Wire for [u8] {
    fn put(&self, buf: &mut BytesMut) {
        wire::put_bytes(buf, self);
    }
}

impl Wire for Vec<u8> {
    fn put(&self, buf: &mut BytesMut) {
        self.as_slice().put(buf);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        wire::get_bytes(buf)
    }
}

impl Wire for String {
    fn put(&self, buf: &mut BytesMut) {
        wire::put_str(buf, self);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        wire::get_str(buf)
    }
}

impl Wire for Name {
    fn put(&self, buf: &mut BytesMut) {
        wire::put_str(buf, self);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        wire::get_str(buf).map(Name::from)
    }
}

impl Wire for ContentHash {
    fn put(&self, buf: &mut BytesMut) {
        wire::put_hash(buf, self);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        wire::get_hash(buf)
    }
}

/// A strict 0/1 byte.
impl Wire for bool {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        match wire::get_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(WireError::BadDiscriminant(d)),
        }
    }
}

/// Fieldless enums travel as one byte each; any other byte is refused.
macro_rules! byte_enums {
    ($($ty:ident { $($byte:literal => $variant:ident),+ })+) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                buf.put_u8(match self {
                    $($ty::$variant => $byte,)+
                });
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                match wire::get_u8(buf)? {
                    $($byte => Ok($ty::$variant),)+
                    d => Err(WireError::BadDiscriminant(d)),
                }
            }
        }
    )+};
}

byte_enums! {
    VolumeKind { 0 => Root, 1 => UserDefined, 2 => Shared }
    NodeKind { 0 => File, 1 => Directory }
}

/// A presence byte (a strict bool), then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(if bool::get(buf)? {
            Some(T::get(buf)?)
        } else {
            None
        })
    }
}

/// An element of a counted list, and the most elements a list may declare.
trait Listed: Wire + Sized {
    const MAX: usize;
}

impl Listed for String {
    const MAX: usize = 1024;
}

impl Listed for VolumeInfo {
    const MAX: usize = 1_000_000;
}

impl Listed for NodeInfo {
    const MAX: usize = 10_000_000;
}

/// A varint count, then the elements. A count is only a claim, so at most
/// 1,024 elements are reserved before they arrive.
impl<T: Listed> Wire for Vec<T> {
    fn put(&self, buf: &mut BytesMut) {
        wire::put_uvarint(buf, self.len() as u64);
        for v in self {
            v.put(buf);
        }
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let n = wire::get_uvarint_len(buf)?;
        if n > T::MAX {
            return Err(WireError::BadLength);
        }
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get(buf)?);
        }
        Ok(out)
    }
}

/// Structs travel as their fields, in the order listed.
macro_rules! structs {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                $(self.$field.put(buf);)+
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                Ok(Self { $($field: Wire::get(buf)?),+ })
            }
        }
    )+};
}

structs! {
    VolumeInfo { volume, kind, generation, owner, node_count }
    NodeInfo { node, kind, parent, name, size, hash, generation, is_dead }
}

/// One table per message kind: each line is `tag, "label", Variant { fields
/// in wire order }`. A variant travels as its tag byte, then its fields.
macro_rules! messages {
    ($(
        $kind:ident {
            $($tag:literal, $label:literal, $variant:ident $({ $($field:ident),+ })?,)+
        }
    )+) => {$(
        impl $kind {
            /// Short label for logging and diagnostics.
            pub fn label(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $label,)+
                }
            }

            fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant { .. } => $tag,)+
                }
            }
        }

        impl Wire for $kind {
            fn put(&self, buf: &mut BytesMut) {
                buf.put_u8(self.tag());
                match self {
                    $(Self::$variant $({ $($field),+ })? => {
                        $($($field.put(buf);)+)?
                    })+
                }
            }

            // A tag listed twice is a compile error, not a dead line.
            #[deny(unreachable_patterns)]
            #[inline]
            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                Ok(match wire::get_u8(buf)? {
                    $($tag => Self::$variant $({ $($field: Wire::get(buf)?),+ })?,)+
                    d => return Err(WireError::BadDiscriminant(d)),
                })
            }
        }
    )+};
}

messages! {
    Request {
        1, "authenticate", Authenticate { token },
        2, "query_set_caps", QuerySetCaps { caps },
        3, "list_volumes", ListVolumes,
        4, "list_shares", ListShares,
        5, "create_udf", CreateUdf { name },
        6, "delete_volume", DeleteVolume { volume },
        7, "make_file", MakeFile { volume, parent, name },
        8, "make_dir", MakeDir { volume, parent, name },
        9, "unlink", Unlink { volume, node },
        10, "move", Move { volume, node, new_parent, new_name },
        11, "get_delta", GetDelta { volume, from_generation },
        12, "rescan_from_scratch", RescanFromScratch { volume },
        13, "begin_upload", BeginUpload { volume, node, hash, size },
        14, "upload_chunk", UploadChunk { upload, data },
        15, "commit_upload", CommitUpload { upload },
        16, "cancel_upload", CancelUpload { upload },
        17, "get_content", GetContent { volume, node },
        18, "ping", Ping,
        19, "upload_chunk_sparse", UploadChunkSparse { upload, len },
        20, "bye", Bye,
        21, "resume_upload", ResumeUpload { upload },
    }
    Response {
        1, "ok", Ok,
        2, "error", Error { code, message },
        3, "auth_ok", AuthOk { session, user },
        4, "capabilities", Capabilities { accepted },
        5, "volumes", Volumes { volumes },
        6, "volume_created", VolumeCreated { volume, generation },
        7, "node_created", NodeCreated { node, generation },
        8, "delta", Delta { volume, generation, nodes },
        9, "upload_begun", UploadBegun { upload, offset },
        10, "upload_done", UploadDone { node, generation, hash },
        11, "content_begin", ContentBegin { size, hash },
        12, "content_chunk", ContentChunk { data },
        13, "content_end", ContentEnd,
        14, "pong", Pong,
    }
    Push {
        1, "volume_changed", VolumeChanged { volume, generation },
        2, "volume_created", VolumeCreated { volume, kind },
        3, "volume_deleted", VolumeDeleted { volume },
    }
}

fn put_head(buf: &mut BytesMut, kind: u8, id: RequestId) {
    buf.put_u8(kind);
    id.put(buf);
}

impl Wire for Message {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Message::Request { id, req } => {
                put_head(buf, KIND_REQUEST, *id);
                req.put(buf);
            }
            Message::Response { id, resp } => {
                put_head(buf, KIND_RESPONSE, *id);
                resp.put(buf);
            }
            Message::Push(push) => {
                buf.put_u8(KIND_PUSH);
                push.put(buf);
            }
        }
    }

    #[inline]
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(match wire::get_u8(buf)? {
            KIND_REQUEST => Message::Request {
                id: Wire::get(buf)?,
                req: Wire::get(buf)?,
            },
            KIND_RESPONSE => Message::Response {
                id: Wire::get(buf)?,
                resp: Wire::get(buf)?,
            },
            KIND_PUSH => Message::Push(Wire::get(buf)?),
            d => return Err(WireError::BadDiscriminant(d)),
        })
    }
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

/// Encodes a message into `buf`, reserving its size first so a large
/// payload is copied once and never moved by buffer growth.
pub fn encode(msg: &Message, buf: &mut BytesMut) {
    buf.reserve(room_for(msg));
    msg.put(buf);
}

/// Encodes `msg` as a complete frame, length prefix included — byte for
/// byte what [`encode`] followed by [`crate::frame::encode_frame`] produces,
/// from a single buffer sized up front. Fails when the body exceeds
/// [`crate::frame::MAX_FRAME_LEN`].
pub fn encode_framed(msg: &Message) -> Result<Bytes, FrameError> {
    build_frame(room_for(msg), |buf| msg.put(buf))
}

/// The frame of `Request::UploadChunk { upload, data }` under request `id`,
/// built from borrowed payload bytes: the sender keeps its file in one
/// buffer and never copies a chunk into a message first.
pub fn frame_upload_chunk(
    id: RequestId,
    upload: UploadId,
    data: &[u8],
) -> Result<Bytes, FrameError> {
    let tag = Request::UploadChunk {
        upload,
        data: Vec::new(),
    }
    .tag();
    build_frame(FIXED_PART + data.len(), |buf| {
        put_head(buf, KIND_REQUEST, id);
        buf.put_u8(tag);
        upload.put(buf);
        data.put(buf);
    })
}

/// The frame of `Response::ContentChunk { data }` answering request `id`,
/// built from borrowed payload bytes.
pub fn frame_content_chunk(id: RequestId, data: &[u8]) -> Result<Bytes, FrameError> {
    let tag = Response::ContentChunk { data: Vec::new() }.tag();
    build_frame(FIXED_PART + data.len(), |buf| {
        put_head(buf, KIND_RESPONSE, id);
        buf.put_u8(tag);
        data.put(buf);
    })
}

/// Decodes one message from a complete frame body. Trailing bytes are an
/// error — frames carry exactly one message.
pub fn decode(mut body: &[u8]) -> WireResult<Message> {
    let msg = Message::get(&mut body)?;
    wire::expect_eof(&body)?;
    Ok(msg)
}

/// A frame body decoded by [`decode_borrowed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// `Response::ContentChunk` answering request `id`, its payload a slice
    /// of the frame body.
    ContentChunk { id: RequestId, data: &'a [u8] },
    /// Any other message, decoded as [`decode`] decodes it.
    Message(Message),
}

/// [`decode`], except that a `ContentChunk`'s payload is left where it lies
/// in `body` rather than copied into a message: a download appends it to
/// its file with no copy in between. Same errors as [`decode`] on the same
/// bytes.
#[inline]
pub fn decode_borrowed(body: &[u8]) -> WireResult<Decoded<'_>> {
    let mut buf = body;
    if wire::get_u8(&mut buf)? != KIND_RESPONSE {
        return decode(body).map(Decoded::Message);
    }
    let id = u32::get(&mut buf)?;
    let chunk_tag = Response::ContentChunk { data: Vec::new() }.tag();
    let Some(rest) = buf.strip_prefix(&[chunk_tag]) else {
        let resp = Response::get(&mut buf)?;
        wire::expect_eof(&buf)?;
        return Ok(Decoded::Message(Message::Response { id, resp }));
    };
    buf = rest;
    let len = wire::get_uvarint_len(&mut buf)?;
    if len > buf.len() {
        return Err(WireError::BadLength);
    }
    let (data, rest) = buf.split_at(len);
    wire::expect_eof(&rest)?;
    Ok(Decoded::ContentChunk { id, data })
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

    fn request_samples() -> [Request; 21] {
        let v = VolumeId::new(3);
        let n = NodeId::new(9);
        [
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
        ]
    }

    #[test]
    fn all_request_variants_round_trip() {
        let samples = request_samples();
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

    fn response_samples() -> [Response; 14] {
        let hash = ContentHash::from_content_id(1);
        [
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
        ]
    }

    #[test]
    fn all_response_variants_round_trip() {
        let samples = response_samples();
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

    fn push_samples() -> [Push; 3] {
        [
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
        ]
    }

    #[test]
    fn all_push_variants_round_trip() {
        let samples = push_samples();
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

    /// The bytes of every round-trip sample, framed as the connections
    /// frame them, are pinned: a round trip still passes when the encoder
    /// and the decoder drift the same way, this does not.
    #[test]
    fn every_sample_encodes_to_the_pinned_bytes() {
        let messages = request_samples()
            .into_iter()
            .map(|req| Message::Request { id: 88, req })
            .chain(
                response_samples()
                    .into_iter()
                    .map(|resp| Message::Response { id: 7, resp }),
            )
            .chain(push_samples().into_iter().map(Message::Push));
        let mut sha = u1_core::Sha1::new();
        for msg in messages {
            sha.update(&encode_framed(&msg).expect("fits"));
        }
        assert_eq!(
            sha.finalize().to_hex(),
            "986d499ece36abf8d5249883108af30f5994eb57"
        );
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
        // A list one past its cap is refused on its count, before any
        // element is read: `msg` ends in an empty list, whose count `n`
        // replaces.
        let with_count = |msg: Message, n: u64| {
            let mut buf = BytesMut::new();
            encode(&msg, &mut buf);
            let mut body = buf.to_vec();
            assert_eq!(body.pop(), Some(0));
            wire::put_uvarint(&mut body, n);
            decode(&body)
        };
        let caps = |caps| Message::Request {
            id: 1,
            req: Request::QuerySetCaps { caps },
        };
        let accepted = |accepted| Message::Response {
            id: 1,
            resp: Response::Capabilities { accepted },
        };
        let volumes = Message::Response {
            id: 1,
            resp: Response::Volumes { volumes: vec![] },
        };
        let delta = |nodes| Message::Response {
            id: 1,
            resp: Response::Delta {
                volume: VolumeId::new(1),
                generation: 2,
                nodes,
            },
        };
        assert_eq!(
            with_count(caps(vec![]), 1024),
            Err(WireError::Truncated),
            "1,024 strings are allowed"
        );
        assert_eq!(with_count(caps(vec![]), 1025), Err(WireError::BadLength));
        assert_eq!(
            with_count(accepted(vec![]), 1025),
            Err(WireError::BadLength)
        );
        assert_eq!(with_count(volumes, 1_000_001), Err(WireError::BadLength));
        assert_eq!(
            with_count(delta(vec![]), 10_000_001),
            Err(WireError::BadLength)
        );
        // `is_dead`, a node's last byte, is 0 or 1.
        let node = NodeInfo {
            node: NodeId::new(3),
            kind: NodeKind::File,
            parent: None,
            name: "x".into(),
            size: 1,
            hash: None,
            generation: 2,
            is_dead: false,
        };
        let mut buf = BytesMut::new();
        encode(&delta(vec![node]), &mut buf);
        let last = buf.len() - 1;
        buf[last] = 2;
        assert_eq!(decode(&buf), Err(WireError::BadDiscriminant(2)));
        // And 1,025 real strings are refused the same way.
        let mut buf = BytesMut::new();
        encode(&caps(vec![String::new(); 1025]), &mut buf);
        assert_eq!(decode(&buf), Err(WireError::BadLength));
    }
}
