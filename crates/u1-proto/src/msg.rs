//! The protocol message set.
//!
//! Covers every Table 2 operation plus the mechanics the paper describes
//! around them: capability negotiation at session start (`QuerySetCaps`
//! appears in Fig. 8), chunked content transfer (uploads are sent in parts;
//! the back-end maps them to S3 multipart parts, Appendix A), and
//! server-initiated pushes (§3.4.2).
//!
//! Three message kinds share the connection, distinguished by
//! [`Message`]'s leading tag byte:
//!
//! * [`Request`] — client → server, stamped with a [`RequestId`] for
//!   correlation. Only `Authenticate`, `QuerySetCaps`, and `Ping` are
//!   legal before authentication; everything else earns an error and a
//!   disconnect ([`Request::allowed_unauthenticated`]).
//! * [`Response`] — server → client, echoing the request's id. Most
//!   requests get exactly one; content downloads stream
//!   `ContentBegin` / `ContentChunk`* / `ContentEnd` under a single id,
//!   and only the *final* response ([`Response::is_final`]) retires it.
//! * [`Push`] — server → client, unsolicited, no id (§3.4.2): other
//!   devices' changes arriving on this volume.
//!
//! Byte-level layout is the codec's concern (varints and length-prefixed
//! strings per [`crate::wire`], one message per length-prefixed frame per
//! [`crate::frame`]); this module is the vocabulary. Each variant's tag,
//! label and field order are one line of a table in [`crate::codec`],
//! which also generates `label()`.

use u1_core::{
    ContentHash, Name, NodeId, NodeKind, SessionId, UploadId, UserId, VolumeId, VolumeKind,
};

/// Correlates requests with their responses over the persistent connection.
/// Pushes are unsolicited and carry no request id.
pub type RequestId = u32;

/// A volume as listed by `ListVolumes`/`ListShares`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeInfo {
    pub volume: VolumeId,
    pub kind: VolumeKind,
    /// Current generation (monotone per-volume change counter, the basis of
    /// `GetDelta`).
    pub generation: u64,
    /// For shared volumes: the owning user (`shared_by` in Table 2).
    pub owner: Option<UserId>,
    /// Number of nodes currently in the volume.
    pub node_count: u64,
}

/// A node as carried in deltas and rescans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    pub node: NodeId,
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    /// Inline-optimized node name (≤ 22 bytes stay on the stack); deltas
    /// carry many of these, so no per-entry heap allocation.
    pub name: Name,
    pub size: u64,
    pub hash: Option<ContentHash>,
    /// Generation at which this node last changed.
    pub generation: u64,
    /// True when the delta entry reports a deletion.
    pub is_dead: bool,
}

/// Client-to-server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Present an OAuth token; must be the first request on a connection.
    Authenticate {
        token: Vec<u8>,
    },
    /// Negotiate protocol capabilities (Fig. 8 startup flow).
    QuerySetCaps {
        caps: Vec<String>,
    },
    ListVolumes,
    ListShares,
    CreateUdf {
        name: String,
    },
    DeleteVolume {
        volume: VolumeId,
    },
    MakeFile {
        volume: VolumeId,
        parent: NodeId,
        name: String,
    },
    MakeDir {
        volume: VolumeId,
        parent: NodeId,
        name: String,
    },
    Unlink {
        volume: VolumeId,
        node: NodeId,
    },
    Move {
        volume: VolumeId,
        node: NodeId,
        new_parent: NodeId,
        new_name: String,
    },
    GetDelta {
        volume: VolumeId,
        from_generation: u64,
    },
    RescanFromScratch {
        volume: VolumeId,
    },
    /// Start an upload. The client sends the SHA-1 *before* any content so
    /// the server can deduplicate (§3.3): a hit answers `UploadDone` and no
    /// bytes need to be transferred, a miss `UploadBegun` with a new job.
    BeginUpload {
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
    },
    /// One part of an upload (the back-end forwards 5MB parts to S3).
    UploadChunk {
        upload: UploadId,
        data: Vec<u8>,
    },
    /// One part of an upload carrying only its *declared* length — the
    /// measurement-mode twin of [`Request::UploadChunk`]. The back-end
    /// accounts the bytes (RPC records, transfer time, multipart
    /// bookkeeping) without either side materializing or shipping them, so
    /// a month-scale client fleet does not push terabytes of zeros through
    /// loopback. Servers running with real byte storage reject it.
    UploadChunkSparse {
        upload: UploadId,
        len: u64,
    },
    /// Continue an upload job an earlier session left unfinished (Fig. 17:
    /// jobs exist so an interrupted upload resumes). Answered by
    /// `UploadBegun` with the bytes the job already holds; `not_found` once
    /// the weekly GC has reaped the job.
    ResumeUpload {
        upload: UploadId,
    },
    /// Commit a finished upload.
    CommitUpload {
        upload: UploadId,
    },
    /// Abandon an upload (client-side cancellation; the server also
    /// garbage-collects jobs older than a week, Appendix A).
    CancelUpload {
        upload: UploadId,
    },
    /// Download file contents.
    GetContent {
        volume: VolumeId,
        node: NodeId,
    },
    /// Keep-alive.
    Ping,
    /// Graceful goodbye: close the session *now*, then the connection. The
    /// server answers [`Response::Ok`] after the session is gone, flushes,
    /// and closes — so a client that waits for the reply knows its session
    /// teardown is ordered before anything that happens next (an abrupt
    /// disconnect is reaped asynchronously when the reactor notices EOF).
    Bye,
}

impl Request {
    /// True for the requests allowed before authentication completes.
    pub fn allowed_unauthenticated(&self) -> bool {
        matches!(
            self,
            Request::Authenticate { .. } | Request::QuerySetCaps { .. } | Request::Ping
        )
    }
}

/// Server-to-client replies. A request normally gets exactly one response;
/// `GetContent` streams `ContentBegin`, zero or more `ContentChunk`s and a
/// final `ContentEnd`, all tagged with the request's id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok,
    Error {
        code: String,
        message: String,
    },
    AuthOk {
        session: SessionId,
        user: UserId,
    },
    Capabilities {
        accepted: Vec<String>,
    },
    Volumes {
        volumes: Vec<VolumeInfo>,
    },
    VolumeCreated {
        volume: VolumeId,
        generation: u64,
    },
    NodeCreated {
        node: NodeId,
        generation: u64,
    },
    Delta {
        volume: VolumeId,
        generation: u64,
        nodes: Vec<NodeInfo>,
    },
    UploadBegun {
        upload: UploadId,
        /// Bytes the job already holds: 0 for a new job, the parts received
        /// so far for a resumed one. The client sends from here on.
        offset: u64,
    },
    UploadDone {
        node: NodeId,
        generation: u64,
        hash: ContentHash,
    },
    ContentBegin {
        size: u64,
        hash: ContentHash,
    },
    ContentChunk {
        data: Vec<u8>,
    },
    ContentEnd,
    Pong,
}

impl Response {
    /// Whether this response terminates its request (content streams only
    /// end at `ContentEnd`/`Error`).
    pub fn is_final(&self) -> bool {
        !matches!(
            self,
            Response::ContentBegin { .. } | Response::ContentChunk { .. }
        )
    }
}

/// Unsolicited server pushes over the session connection (§3.4.2): "when
/// remote content changes, the client acts on the incoming unsolicited
/// notification (push) sent by the U1 service".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Push {
    /// A volume the client can see advanced to a new generation; the client
    /// reacts with `GetDelta`.
    VolumeChanged { volume: VolumeId, generation: u64 },
    /// A volume was shared to / created for this user.
    VolumeCreated { volume: VolumeId, kind: VolumeKind },
    /// A volume disappeared.
    VolumeDeleted { volume: VolumeId },
}

/// Anything that can cross the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    Request { id: RequestId, req: Request },
    Response { id: RequestId, resp: Response },
    Push(Push),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unauthenticated_allowance_is_minimal() {
        assert!(Request::Authenticate { token: vec![] }.allowed_unauthenticated());
        assert!(Request::Ping.allowed_unauthenticated());
        assert!(Request::QuerySetCaps { caps: vec![] }.allowed_unauthenticated());
        assert!(!Request::ListVolumes.allowed_unauthenticated());
        assert!(!Request::GetContent {
            volume: VolumeId::new(0),
            node: NodeId::new(0)
        }
        .allowed_unauthenticated());
    }

    #[test]
    fn content_stream_finality() {
        assert!(!Response::ContentBegin {
            size: 1,
            hash: ContentHash::EMPTY
        }
        .is_final());
        assert!(!Response::ContentChunk { data: vec![1] }.is_final());
        assert!(Response::ContentEnd.is_final());
        assert!(Response::Ok.is_final());
        assert!(Response::Error {
            code: "x".into(),
            message: "y".into()
        }
        .is_final());
    }
}
