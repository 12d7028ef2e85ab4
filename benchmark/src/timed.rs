//! Wrappers over the two seams the program lets the benchmark into: a
//! [`TraceSink`] and a [`Transport`]. Each forwards every call unchanged
//! and accumulates how long the inner call took, so the time spent below
//! the seam can be taken out of the opaque call above it (`Driver::run`,
//! a scripted session).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use u1_auth::Token;
use u1_client::{Transport, UploadResult};
use u1_core::{ContentHash, CoreResult, NodeId, NodeKind, SessionId, UserId, VolumeId};
use u1_proto::msg::{NodeInfo, Push, VolumeInfo};
use u1_trace::{TraceRecord, TraceSink};

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times every call into the sink it wraps. Counters are atomics because
/// the driver's worker threads call the sink, not the benchmark's thread.
pub struct TimedSink<S: TraceSink> {
    inner: S,
    nanos: AtomicU64,
    records: AtomicU64,
}

impl<S: TraceSink> TimedSink<S> {
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            nanos: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }
    }

    /// `(total nanoseconds, records)` spent in and handed to the wrapped
    /// sink.
    pub fn totals(&self) -> (u64, u64) {
        // Relaxed: statistics read after the run's threads have been joined.
        (
            self.nanos.load(Ordering::Relaxed),
            self.records.load(Ordering::Relaxed),
        )
    }

    fn timed(&self, records: usize, f: impl FnOnce(&S)) {
        let t = Instant::now();
        f(&self.inner);
        self.nanos.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        self.records.fetch_add(records as u64, Ordering::Relaxed);
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&self, rec: TraceRecord) {
        self.timed(1, |s| s.record(rec));
    }
    fn record_batch(&self, recs: &[TraceRecord]) {
        self.timed(recs.len(), |s| s.record_batch(recs));
    }
    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        self.timed(recs.len(), |s| s.record_batch_owned(recs));
    }
    fn record_run(&self, origin: u32, run: &mut Vec<TraceRecord>) {
        self.timed(run.len(), |s| s.record_run(origin, run));
    }
    fn flush(&self) {
        self.timed(0, TraceSink::flush);
    }
    fn flush_origin(&self, origin: u32) {
        self.timed(0, |s| s.flush_origin(origin));
    }
    fn io_errors(&self) -> u64 {
        self.inner.io_errors()
    }
}

/// What a [`TimedTransport`] saw for one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    pub calls: u64,
    pub nanos: u64,
}

/// The calls a [`TimedTransport`] keeps apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Authenticate = 0,
    Meta = 1,
    Upload = 2,
    Download = 3,
}

/// Times every [`Transport`] call, kept apart by [`Call`].
pub struct TimedTransport<T: Transport> {
    inner: T,
    stats: [CallStat; 4],
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            stats: [CallStat::default(); 4],
        }
    }

    pub fn stat(&self, call: Call) -> CallStat {
        self.stats[call as usize]
    }

    fn timed<R>(&mut self, call: Call, f: impl FnOnce(&mut T) -> CoreResult<R>) -> CoreResult<R> {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let stat = &mut self.stats[call as usize];
        stat.nanos += elapsed_ns(t);
        stat.calls += 1;
        out
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn authenticate(&mut self, token: Token) -> CoreResult<(SessionId, UserId)> {
        self.timed(Call::Authenticate, |t| t.authenticate(token))
    }
    fn query_set_caps(&mut self, caps: &[&str]) -> CoreResult<()> {
        self.timed(Call::Meta, |t| t.query_set_caps(caps))
    }
    fn list_volumes(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        self.timed(Call::Meta, Transport::list_volumes)
    }
    fn list_shares(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        self.timed(Call::Meta, Transport::list_shares)
    }
    fn create_udf(&mut self, name: &str) -> CoreResult<VolumeInfo> {
        self.timed(Call::Meta, |t| t.create_udf(name))
    }
    fn delete_volume(&mut self, volume: VolumeId) -> CoreResult<()> {
        self.timed(Call::Meta, |t| t.delete_volume(volume))
    }
    fn make_node(
        &mut self,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
    ) -> CoreResult<NodeInfo> {
        self.timed(Call::Meta, |t| t.make_node(volume, parent, kind, name))
    }
    fn unlink(&mut self, volume: VolumeId, node: NodeId) -> CoreResult<()> {
        self.timed(Call::Meta, |t| t.unlink(volume, node))
    }
    fn move_node(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
    ) -> CoreResult<()> {
        self.timed(Call::Meta, |t| {
            t.move_node(volume, node, new_parent, new_name)
        })
    }
    fn get_delta(
        &mut self,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<NodeInfo>)> {
        self.timed(Call::Meta, |t| t.get_delta(volume, from_generation))
    }
    fn rescan_from_scratch(&mut self, volume: VolumeId) -> CoreResult<(u64, Vec<NodeInfo>)> {
        self.timed(Call::Meta, |t| t.rescan_from_scratch(volume))
    }
    fn upload(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> CoreResult<UploadResult> {
        self.timed(Call::Upload, |t| t.upload(volume, node, hash, size, data))
    }
    fn download(
        &mut self,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<(u64, ContentHash, Option<Vec<u8>>)> {
        self.timed(Call::Download, |t| t.download(volume, node))
    }
    fn poll_pushes(&mut self) -> Vec<Push> {
        self.inner.poll_pushes()
    }
    fn close(&mut self) {
        self.inner.close();
    }
    fn session(&self) -> Option<SessionId> {
        self.inner.session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use u1_core::{MachineId, ProcessId, SimTime};
    use u1_trace::{MemorySink, Payload, SessionEvent};

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs(seq),
            MachineId::new(0),
            ProcessId::new(1),
            Payload::Session {
                event: SessionEvent::Open,
                session: SessionId::new(seq),
                user: UserId::new(1),
            },
        )
    }

    #[test]
    fn timed_sink_forwards_everything_and_counts_records() {
        let mem = Arc::new(MemorySink::new());
        let sink = TimedSink::new(Arc::clone(&mem));
        sink.record(rec(1));
        let mut run = vec![rec(2), rec(3)];
        sink.record_run(0, &mut run);
        sink.flush();
        assert_eq!(mem.len(), 3);
        assert_eq!(sink.totals().1, 3);
        assert_eq!(sink.io_errors(), 0);
    }
}
