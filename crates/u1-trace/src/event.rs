//! The typed trace event model.

use serde::Serialize;
use u1_core::{
    ApiOpKind, ContentHash, ErrorClass, Ext, MachineId, NodeId, NodeKind, ProcessId, RpcKind,
    SessionId, ShardId, SimTime, UserId, VolumeId,
};

/// Session lifecycle events (request type `session` in the original trace).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum SessionEvent {
    Open,
    Close,
}

/// The payload of one trace line.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub enum Payload {
    /// Session opened/closed on an API server process.
    Session {
        event: SessionEvent,
        session: SessionId,
        user: UserId,
    },
    /// A completed API operation (request type `storage_done`): the unit the
    /// paper's storage-workload and user-behavior analyses consume. Boxed:
    /// it is the one large variant, so every other record stays 48 bytes.
    Storage(Box<StorageDone>),
    /// An RPC against the metadata store (request type `rpc`), with its
    /// service time — the raw material for Figs. 12–14.
    Rpc {
        rpc: RpcKind,
        shard: ShardId,
        user: UserId,
        service_us: u64,
    },
    /// A request from an API server to the Canonical authentication service
    /// (§3.4.1, Fig. 15). 2.76% of these failed in the original trace.
    Auth { user: UserId, success: bool },
}

impl Payload {
    /// The request type tag used in trace lines (mirrors §4's vocabulary).
    pub fn request_type(&self) -> &'static str {
        match self {
            Payload::Session { .. } => "session",
            Payload::Storage(_) => "storage_done",
            Payload::Rpc { .. } => "rpc",
            Payload::Auth { .. } => "auth",
        }
    }

    /// The user this record concerns.
    pub fn user(&self) -> UserId {
        match self {
            Payload::Session { user, .. }
            | Payload::Rpc { user, .. }
            | Payload::Auth { user, .. } => *user,
            Payload::Storage(done) => done.user,
        }
    }

    /// The `storage_done` fields, if this is a `storage_done` line.
    pub fn storage(&self) -> Option<&StorageDone> {
        match self {
            Payload::Storage(done) => Some(done),
            _ => None,
        }
    }
}

/// The fields of a `storage_done` line, behind [`Payload::Storage`]'s box.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct StorageDone {
    pub op: ApiOpKind,
    pub session: SessionId,
    pub user: UserId,
    pub volume: VolumeId,
    pub node: Option<NodeId>,
    pub kind: Option<NodeKind>,
    /// Transferred bytes for uploads/downloads, 0 for metadata ops.
    pub size: u64,
    /// Content hash for transfers (provided by the client before upload,
    /// §3.3); `None` for metadata operations and directories.
    pub hash: Option<ContentHash>,
    /// File extension in the serializer's canonical sanitized form
    /// (lowercased, no dot); empty when n/a. `Copy`, 17 bytes inline — no
    /// heap string beside the box.
    pub ext: Ext,
    pub success: bool,
    /// Server-side processing time for the request, microseconds.
    pub duration_us: u64,
}

/// One line of the trace: where it was logged, when, and what happened.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct TraceRecord {
    /// Timestamp. Timestamps are NTP-synchronized-but-not-dependable across
    /// servers, exactly as §4 warns; under the parallel driver even one
    /// process's stream interleaves records from concurrently-simulated
    /// partitions, so `(t, origin, seq)` — not `t` alone — is the canonical
    /// order (see [`crate::MemorySink::take_sorted`]).
    pub t: SimTime,
    /// Physical machine that hosted the process.
    pub machine: MachineId,
    /// Server process number, unique within the machine.
    pub process: ProcessId,
    /// Simulation partition that produced this record (0 when the producer
    /// ran without a [`u1_core::PartitionCtx`]). Synthetic — not part of the
    /// paper's logfile schema, so CSV round trips reset it to 0. A shard
    /// index or the coordinator's, so 16 bits, like the shard count.
    pub origin: u16,
    /// Monotone per-origin sequence number; ties with `origin` break
    /// equal-timestamp records deterministically regardless of worker count.
    pub seq: u64,
    /// Which attempt of a retried operation produced this record (1 = first
    /// try). Filled from the thread-local tag set by retry loops (see
    /// [`u1_core::fault`]); always 1 in fault-free runs, and serialized only
    /// when > 1 so fault-free traces stay byte-identical. Retry budgets are
    /// single digits, so one byte.
    pub attempt: u8,
    /// Error classification when this record was produced under an injected
    /// fault; `None` (and unserialized) otherwise.
    pub error_class: Option<ErrorClass>,
    pub payload: Payload,
}

impl TraceRecord {
    pub fn new(t: SimTime, machine: MachineId, process: ProcessId, payload: Payload) -> Self {
        let (origin, seq) = u1_core::partition::next_trace_stamp().unwrap_or((0, 0));
        Self {
            t,
            machine,
            process,
            origin,
            seq,
            attempt: u1_core::fault::current_attempt(),
            error_class: u1_core::fault::current_error_class(),
            payload,
        }
    }

    /// Convenience accessor: true if this record is a completed data
    /// transfer (upload or download).
    pub fn is_transfer(&self) -> bool {
        matches!(self.payload.storage(), Some(done) if done.success && done.op.is_transfer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage(op: ApiOpKind, ok: bool) -> Payload {
        Payload::Storage(Box::new(StorageDone {
            op,
            session: SessionId::new(1),
            user: UserId::new(2),
            volume: VolumeId::new(0),
            node: Some(NodeId::new(3)),
            kind: Some(NodeKind::File),
            size: 100,
            hash: None,
            ext: "txt".into(),
            success: ok,
            duration_us: 500,
        }))
    }

    /// Every trace stage moves records by value — sink chunks, the seal's
    /// merge, the day sort, each fold — so the record's size is its cost.
    /// The `storage_done` fields sit behind a box to keep it here, and the
    /// narrow `origin` and `attempt` share one word with the small fields.
    #[test]
    fn a_record_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Payload>(), 24);
        assert_eq!(std::mem::size_of::<TraceRecord>(), 48);
    }

    #[test]
    fn request_types_match_paper_vocabulary() {
        assert_eq!(
            Payload::Session {
                event: SessionEvent::Open,
                session: SessionId::new(1),
                user: UserId::new(1)
            }
            .request_type(),
            "session"
        );
        assert_eq!(
            storage(ApiOpKind::Upload, true).request_type(),
            "storage_done"
        );
        assert_eq!(
            Payload::Rpc {
                rpc: RpcKind::GetNode,
                shard: ShardId::new(0),
                user: UserId::new(1),
                service_us: 10
            }
            .request_type(),
            "rpc"
        );
        assert_eq!(
            Payload::Auth {
                user: UserId::new(1),
                success: true
            }
            .request_type(),
            "auth"
        );
    }

    #[test]
    fn is_transfer_requires_success_and_transfer_op() {
        let rec = |p| TraceRecord::new(SimTime::ZERO, MachineId::new(0), ProcessId::new(0), p);
        assert!(rec(storage(ApiOpKind::Upload, true)).is_transfer());
        assert!(rec(storage(ApiOpKind::Download, true)).is_transfer());
        assert!(!rec(storage(ApiOpKind::Upload, false)).is_transfer());
        assert!(!rec(storage(ApiOpKind::Unlink, true)).is_transfer());
    }
}
