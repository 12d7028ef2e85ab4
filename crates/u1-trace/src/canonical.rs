//! The canonical trace digest — the determinism backbone every pinned SHA
//! in the repo is an instance of.
//!
//! SHA-1 over every record's [`csvline::write_line`] text followed by
//! `|origin|seq\n`, fed in canonical `(t, origin, seq)` order (what
//! [`MemorySink::take_sorted`](crate::MemorySink::take_sorted) and the
//! concatenated [`DayChunks`](crate::DayChunks) of a stamped directory
//! yield). This module is the only place the formula is written down.

use crate::csvline;
use crate::event::TraceRecord;
use std::fmt::Write as _;
use u1_core::Sha1;

/// Incremental canonical digest, for traces that are never whole in memory
/// (one [`update`](Self::update) per day chunk).
pub struct CanonicalSha {
    sha: Sha1,
    line: String,
}

impl Default for CanonicalSha {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonicalSha {
    pub fn new() -> Self {
        CanonicalSha {
            sha: Sha1::new(),
            line: String::with_capacity(160),
        }
    }

    /// Absorbs the next stretch of the canonical order.
    pub fn update(&mut self, records: &[TraceRecord]) {
        for r in records {
            self.line.clear();
            // Writing into a `String` cannot fail.
            let _ = csvline::write_line(r, &mut self.line);
            let _ = writeln!(self.line, "|{}|{}", r.origin, r.seq);
            self.sha.update(self.line.as_bytes());
        }
    }

    /// The digest as lowercase hex.
    pub fn finish(self) -> String {
        self.sha.finalize().to_hex()
    }
}

/// The canonical digest of a trace already in canonical order.
pub fn canonical_sha(records: &[TraceRecord]) -> String {
    let mut sha = CanonicalSha::new();
    sha.update(records);
    sha.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Payload, SessionEvent, StorageDone};
    use u1_core::{
        ApiOpKind, ContentHash, MachineId, NodeId, NodeKind, ProcessId, RpcKind, SessionId,
        ShardId, SimTime, UserId, VolumeId,
    };

    fn fixture() -> Vec<TraceRecord> {
        let stamped = |secs: u64, origin: u16, seq: u64, payload: Payload| TraceRecord {
            t: SimTime::from_secs(secs),
            machine: MachineId::new(2),
            process: ProcessId::new(7),
            origin,
            seq,
            attempt: 1,
            error_class: None,
            payload,
        };
        vec![
            stamped(
                5,
                0,
                0,
                Payload::Session {
                    event: SessionEvent::Open,
                    session: SessionId::new(17),
                    user: UserId::new(4),
                },
            ),
            stamped(
                9,
                3,
                41,
                Payload::Rpc {
                    rpc: RpcKind::MakeContent,
                    shard: ShardId::new(3),
                    user: UserId::new(4),
                    service_us: 2_100,
                },
            ),
            stamped(
                12,
                3,
                42,
                Payload::Storage(Box::new(StorageDone {
                    op: ApiOpKind::Upload,
                    session: SessionId::new(17),
                    user: UserId::new(4),
                    volume: VolumeId::new(0),
                    node: Some(NodeId::new(99)),
                    kind: Some(NodeKind::File),
                    size: 1_048_576,
                    hash: Some(ContentHash::from_content_id(1)),
                    ext: "jpg".into(),
                    success: true,
                    duration_us: 15_000,
                })),
            ),
        ]
    }

    /// Pins the formula itself: one `(0, 0)`-stamped `Session`, one `Rpc`,
    /// one `Storage`. `benchmark/src/pipeline.rs` carries its own copy of
    /// the formula; if this digest moves, that copy has drifted from it.
    #[test]
    fn digest_of_the_literal_fixture_is_pinned() {
        assert_eq!(
            canonical_sha(&fixture()),
            "3380cfd7ed5e97da65166e4a5654bcc70d94c863"
        );
    }

    #[test]
    fn incremental_updates_equal_one_pass() {
        let records = fixture();
        let mut sha = CanonicalSha::new();
        sha.update(&records[..1]);
        sha.update(&[]);
        sha.update(&records[1..]);
        assert_eq!(sha.finish(), canonical_sha(&records));
    }
}
