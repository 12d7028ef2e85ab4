//! Compact builders for trace records, used by this crate's unit tests and
//! by downstream integration tests. Not part of the stable API surface.

use crate::engine::{run_chunks, Battery, EngineConfig, EngineReport};
use u1_core::{
    ApiOpKind, ContentHash, MachineId, NodeId, NodeKind, ProcessId, RpcKind, SessionId, ShardId,
    SimTime, UserId, VolumeId,
};
use u1_trace::{Payload, SessionEvent, StorageDone, TraceRecord};

/// Where a synthetic record is "logged".
pub fn at(t_secs: u64) -> SimTime {
    SimTime::from_secs(t_secs)
}

pub fn session_open(t: SimTime, session: u64, user: u64) -> TraceRecord {
    TraceRecord::new(
        t,
        MachineId::new(0),
        ProcessId::new(0),
        Payload::Session {
            event: SessionEvent::Open,
            session: SessionId::new(session),
            user: UserId::new(user),
        },
    )
}

pub fn session_close(t: SimTime, session: u64, user: u64) -> TraceRecord {
    TraceRecord::new(
        t,
        MachineId::new(0),
        ProcessId::new(0),
        Payload::Session {
            event: SessionEvent::Close,
            session: SessionId::new(session),
            user: UserId::new(user),
        },
    )
}

pub fn auth(t: SimTime, user: u64, success: bool) -> TraceRecord {
    TraceRecord::new(
        t,
        MachineId::new(0),
        ProcessId::new(0),
        Payload::Auth {
            user: UserId::new(user),
            success,
        },
    )
}

/// A generic successful storage op with no node/content attached.
pub fn op(t: SimTime, op: ApiOpKind, session: u64, user: u64) -> TraceRecord {
    TraceRecord::new(
        t,
        MachineId::new(0),
        ProcessId::new(0),
        Payload::Storage(Box::new(StorageDone {
            op,
            session: SessionId::new(session),
            user: UserId::new(user),
            volume: VolumeId::new(1),
            node: None,
            kind: None,
            size: 0,
            hash: None,
            ext: u1_core::Ext::EMPTY,
            success: true,
            duration_us: 100,
        })),
    )
}

/// A transfer (upload/download) on a concrete node.
#[allow(clippy::too_many_arguments)]
pub fn transfer(
    t: SimTime,
    kind: ApiOpKind,
    session: u64,
    user: u64,
    node: u64,
    size: u64,
    content: u64,
    ext: &str,
) -> TraceRecord {
    TraceRecord::new(
        t,
        MachineId::new(0),
        ProcessId::new(0),
        Payload::Storage(Box::new(StorageDone {
            op: kind,
            session: SessionId::new(session),
            user: UserId::new(user),
            volume: VolumeId::new(1),
            node: Some(NodeId::new(node)),
            kind: Some(NodeKind::File),
            size,
            hash: Some(ContentHash::from_content_id(content)),
            ext: u1_core::Ext::new(ext),
            success: true,
            duration_us: 1000,
        })),
    )
}

/// A make/unlink/move on a node.
pub fn node_op(
    t: SimTime,
    op: ApiOpKind,
    session: u64,
    user: u64,
    node: u64,
    kind: NodeKind,
) -> TraceRecord {
    TraceRecord::new(
        t,
        MachineId::new(0),
        ProcessId::new(0),
        Payload::Storage(Box::new(StorageDone {
            op,
            session: SessionId::new(session),
            user: UserId::new(user),
            volume: VolumeId::new(1),
            node: Some(NodeId::new(node)),
            kind: Some(kind),
            size: 0,
            hash: None,
            ext: u1_core::Ext::EMPTY,
            success: true,
            duration_us: 100,
        })),
    )
}

/// An RPC record on a given machine/shard with a service time in micros.
pub fn rpc_on(
    t: SimTime,
    machine: u16,
    process: u16,
    rpc: RpcKind,
    user: u64,
    shard: u16,
    service_us: u64,
) -> TraceRecord {
    TraceRecord::new(
        t,
        MachineId::new(machine),
        ProcessId::new(process),
        Payload::Rpc {
            rpc,
            shard: ShardId::new(shard),
            user: UserId::new(user),
            service_us,
        },
    )
}

/// Re-stamps a record's machine (for load-balance tests).
pub fn on_machine(mut rec: TraceRecord, machine: u16) -> TraceRecord {
    rec.machine = MachineId::new(machine);
    rec
}

/// The battery over `chunks`, contiguous pieces of one sorted trace, each
/// folded alone and merged in order. `chunked(&[&records], horizon)` is
/// the one-chunk report the unit tests read; the split tests compare the
/// report of every split with it.
pub fn chunked(chunks: &[&[TraceRecord]], horizon: SimTime) -> EngineReport {
    run_chunks(Battery::new(&EngineConfig::new(horizon, 1, 1)), chunks)
}

/// Relabels every user, session, volume and node id as `x·φ + k` (wrapping;
/// φ = 0x9E3779B97F4A7C15 is odd, so this is a bijection on `u64`). No
/// report may depend on what an id is, only on which records share one.
pub fn relabel(mut rec: TraceRecord, k: u64) -> TraceRecord {
    let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
    match &mut rec.payload {
        Payload::Session { session, user, .. } => {
            *session = SessionId::new(f(session.raw()));
            *user = UserId::new(f(user.raw()));
        }
        Payload::Storage(done) => {
            done.session = SessionId::new(f(done.session.raw()));
            done.user = UserId::new(f(done.user.raw()));
            done.volume = VolumeId::new(f(done.volume.raw()));
            done.node = done.node.map(|n| NodeId::new(f(n.raw())));
        }
        Payload::Rpc { user, .. } | Payload::Auth { user, .. } => {
            *user = UserId::new(f(user.raw()));
        }
    }
    rec
}
