//! Trace sinks: where running server processes emit their records.
//!
//! [`TraceSink`] is the seam: `record` and its batch forms take records in,
//! `flush` / `flush_origin` push buffered ones on, and `seal_before` passes
//! down the producer's promise that everything below a timestamp has been
//! emitted. [`BufferedSink`] fills one chunk per origin in front of any
//! other sink. [`MemorySink`] keeps the trace in memory — one compact
//! append-only byte log per origin — and hands it over in canonical
//! `(t, origin, seq)` order, merged and decoded in one pass. [`DirSink`] writes
//! the paper's logfiles, one per (machine, process, day), a buffer of whole
//! lines per write. [`NullSink`] drops everything. No sink takes a lock
//! while it holds one (`u1_core::sync`).

use crate::csvline;
use crate::event::{Payload, SessionEvent, StorageDone, TraceRecord};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use u1_core::sync::Mutex;
use u1_core::{
    ApiOpKind, CachePadded, ContentHash, ErrorClass, Ext, MachineId, NodeId, NodeKind, ProcessId,
    RpcKind, SessionId, ShardId, SimTime, UserId, VolumeId,
};

/// Stripe count of [`BufferedSink`]: origins (driver partitions) are spread
/// across this many independent locks so concurrent emitters rarely
/// contend. It stripes by `origin % STRIPES`; origins are small dense
/// integers (one per metastore shard plus the coordinator — 11 by default),
/// so 32 stripes is a perfect collision-free partition up to 32 driver
/// partitions. Each stripe lock is additionally padded to its own cache
/// line: a mutex plus a `Vec` header is well under 64 bytes, so unpadded
/// neighbours would false-share a line between workers even when their
/// locks never collide.
const STRIPES: usize = 32;

/// Records per chunk: [`BufferedSink`] fills a chunk of exactly this
/// capacity per origin and hands it on when full (callers still flush
/// explicitly at day boundaries).
const BUFFER_FLUSH_THRESHOLD: usize = 4096;

/// One entry per origin hashing to a stripe. A stripe holds at most a
/// handful of origins (one per driver partition mapping to it), so a linear
/// scan beats hashing.
type PerOrigin<T> = Vec<(u32, T)>;

fn origin_slot<T: Default>(slots: &mut PerOrigin<T>, origin: u32) -> &mut T {
    let idx = match slots.iter().position(|(o, _)| *o == origin) {
        Some(i) => i,
        None => {
            slots.push((origin, T::default()));
            slots.len() - 1
        }
    };
    &mut slots[idx].1
}

/// Something that accepts trace records. Implementations must be
/// thread-safe: every API/RPC process logs through a shared sink.
pub trait TraceSink: Send + Sync {
    fn record(&self, rec: TraceRecord);

    /// Accepts a borrowed batch of records. The default copies it record by
    /// record into [`TraceSink::record`], the copy a sink that keeps records
    /// has to make; sinks that only look at records ([`DirSink`],
    /// [`NullSink`]) or pass them on ([`BufferedSink`]) override it and copy
    /// nothing.
    fn record_batch(&self, recs: &[TraceRecord]) {
        for rec in recs {
            self.record(rec.clone());
        }
    }

    /// Like [`TraceSink::record_batch`] but drains `recs`, moving the
    /// records instead of cloning them (a `storage_done` record owns its
    /// box). [`BufferedSink`] flushes through this path.
    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        for rec in recs.drain(..) {
            self.record(rec);
        }
    }

    /// Accepts one single-origin run in emission order — the shape
    /// [`BufferedSink`] flushes. `origin` is every record's origin stamp.
    /// On return `run` is empty, and a sink that leaves its allocation in
    /// place lets the caller fill the same buffer again: the default, which
    /// delegates to [`TraceSink::record_batch_owned`], does, and
    /// [`MemorySink`] keeps that default.
    fn record_run(&self, origin: u32, run: &mut Vec<TraceRecord>) {
        let _ = origin;
        self.record_batch_owned(run);
    }

    /// Flushes buffered output (no-op for memory sinks).
    fn flush(&self) {}

    /// Flushes buffering specific to one origin (driver partition), leaving
    /// other origins' buffers untouched. The default is a no-op: sinks
    /// without per-origin buffering have already delivered everything.
    /// [`BufferedSink`] overrides this so each driver worker can drain its
    /// own partitions' day buffers in parallel *before* the day's join,
    /// instead of the coordinator draining every origin serially after it.
    fn flush_origin(&self, origin: u32) {
        let _ = origin;
    }

    /// The producer's promise that no record with `t < before` will arrive
    /// any more (the driver makes it after every day's join). A sink that
    /// orders its records may settle everything below the bound now instead
    /// of at the end; a record that breaks the promise is still a record and
    /// must not be lost or misplaced. The default does nothing.
    fn seal_before(&self, before: SimTime) {
        let _ = before;
    }

    /// Number of I/O errors this sink has swallowed while running degraded
    /// (0 for in-memory sinks, which cannot fail). Surfaced so run reports
    /// can account for dropped trace output instead of hiding it — see
    /// `DriverReport::trace_io_errors` in `u1-workload`.
    fn io_errors(&self) -> u64 {
        0
    }
}

/// Sharing a sink via `Arc` keeps it a sink, including the batch overrides
/// of the underlying type.
impl<S: TraceSink + ?Sized> TraceSink for std::sync::Arc<S> {
    fn record(&self, rec: TraceRecord) {
        (**self).record(rec);
    }
    fn record_batch(&self, recs: &[TraceRecord]) {
        (**self).record_batch(recs);
    }
    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        (**self).record_batch_owned(recs);
    }
    fn record_run(&self, origin: u32, run: &mut Vec<TraceRecord>) {
        (**self).record_run(origin, run);
    }
    fn flush(&self) {
        (**self).flush();
    }
    fn flush_origin(&self, origin: u32) {
        (**self).flush_origin(origin);
    }
    fn seal_before(&self, before: SimTime) {
        (**self).seal_before(before);
    }
    fn io_errors(&self) -> u64 {
        (**self).io_errors()
    }
}

/// Discards all records. Useful for benchmarks isolating server cost.
#[derive(Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _rec: TraceRecord) {}
    fn record_batch(&self, _recs: &[TraceRecord]) {}
    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        recs.clear();
    }
    fn record_run(&self, _origin: u32, run: &mut Vec<TraceRecord>) {
        run.clear();
    }
}

/// Collects records in memory, for analyses that skip the logfile round
/// trip, and hands them over in canonical `(t, origin, seq)` order.
///
/// Each origin's records are encoded into one append-only byte [`Log`],
/// about 16 bytes a record where a `TraceRecord` takes 48 and a
/// `storage_done` box 104 more; the box is freed as its record is appended.
/// A record that breaks its origin's `(t, seq)` order opens a new segment of
/// the log, so each segment is in order. [`TraceSink::seal_before`] only
/// notes its bound, and [`MemorySink::take_sorted`] merges every segment at
/// once, decoding straight into the output: until then the trace is held
/// once, compactly, and nothing is moved twice.
#[derive(Debug, Default)]
pub struct MemorySink {
    store: Mutex<Store>,
}

/// A [`MemorySink`]'s logs and what is known about them.
#[derive(Debug, Default)]
struct Store {
    /// One log per origin, in order of first arrival.
    logs: Vec<Log>,
    /// The log the last record went to: a run is all one origin's.
    current: usize,
    records: usize,
    /// The highest bound sealed since the last `take_sorted`.
    sealed: SimTime,
    /// Records that arrived below `sealed`.
    late: u64,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.store.lock().records
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records since the last `take_sorted` that arrived below a bound
    /// already sealed: a producer broke its [`TraceSink::seal_before`]
    /// promise. They come out of `take_sorted` in their canonical place all
    /// the same, as every record is merged there.
    pub fn late_records(&self) -> u64 {
        self.store.lock().late
    }

    /// Drains and returns all records in canonical order: sorted by
    /// `(t, origin, seq)`, ties in the order they were recorded — what a
    /// stable sort of everything recorded would give. The logs are taken
    /// out under the lock and merged outside it.
    pub fn take_sorted(&self) -> Vec<TraceRecord> {
        let Store { logs, records, .. } = std::mem::take(&mut *self.store.lock());
        merge(&logs, records)
    }
}

impl Store {
    fn append<'a>(&mut self, recs: impl IntoIterator<Item = &'a TraceRecord>) {
        for rec in recs {
            if rec.t < self.sealed {
                self.late += 1;
            }
            self.log(rec.origin).push(rec);
            self.records += 1;
        }
    }

    /// The log of `origin`, opened if there is none yet.
    fn log(&mut self, origin: u16) -> &mut Log {
        if self
            .logs
            .get(self.current)
            .is_none_or(|log| log.origin != origin)
        {
            self.current = match self.logs.iter().position(|log| log.origin == origin) {
                Some(i) => i,
                None => {
                    self.logs.push(Log::new(origin));
                    self.logs.len() - 1
                }
            };
        }
        &mut self.logs[self.current]
    }
}

impl TraceSink for MemorySink {
    fn record(&self, rec: TraceRecord) {
        self.store.lock().append([&rec]);
    }

    fn record_batch(&self, recs: &[TraceRecord]) {
        self.store.lock().append(recs);
    }

    /// Encodes the records, then drops them outside the lock; the emptied
    /// vector, allocation and all, stays with the caller to fill again
    /// (`record_run`'s default comes here).
    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        self.store.lock().append(recs.iter());
        recs.clear();
    }

    fn seal_before(&self, before: SimTime) {
        let mut store = self.store.lock();
        store.sealed = store.sealed.max(before);
    }
}

/// Merge key: the canonical `(t, origin, seq)` order.
type MergeKey = (SimTime, u16, u64);

/// One origin's records, encoded back to back.
///
/// A record is a header byte, then `t` and `seq` as deltas from the
/// previous record of its segment (a varint and a zigzag varint), then
/// `machine` and `process` only when they differ from that record's,
/// `attempt` only when it is not 1 and the error class only when there is
/// one, then the payload's fields: ids, sizes and durations as varints,
/// enums as a byte, a hash as its 20 bytes, an extension as its length and
/// bytes. A segment's first record is encoded against nothing, so each
/// segment decodes on its own.
#[derive(Debug)]
struct Log {
    origin: u16,
    bytes: Vec<u8>,
    /// Where each segment starts in `bytes`, the first at 0.
    segments: Vec<usize>,
    /// The last record, which the next is encoded against.
    last: Cursor,
}

/// What a record is encoded against: the previous record of its segment.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    t: u64,
    seq: u64,
    /// `None` at a segment's start, so its first record writes its place.
    place: Option<(MachineId, ProcessId)>,
}

// The header byte: the payload's kind in the low two bits, then what
// follows the key.
const KIND: u8 = 0b11;
const SESSION: u8 = 0;
const STORAGE: u8 = 1;
const RPC: u8 = 2;
const AUTH: u8 = 3;
/// `machine` and `process` follow.
const PLACE: u8 = 1 << 2;
/// `attempt` follows: it is not 1.
const ATTEMPT: u8 = 1 << 3;
/// An error class follows.
const ERROR: u8 = 1 << 4;
/// A session's `Close`, a `storage_done`'s or an auth's `success`.
const FLAG: u8 = 1 << 5;
/// A `storage_done` has a node.
const NODE: u8 = 1 << 6;
/// A `storage_done` has a hash.
const HASH: u8 = 1 << 7;

/// A fieldless enum's variants by discriminant, built from its `ALL`: what
/// the byte an enum is written as decodes to.
macro_rules! by_discriminant {
    ($all:expr, $len:expr) => {{
        let all = $all;
        let mut table = [all[0]; $len];
        let mut i = 0;
        while i < all.len() {
            table[all[i] as usize] = all[i];
            i += 1;
        }
        table
    }};
}

const OPS: [ApiOpKind; 16] = by_discriminant!(ApiOpKind::ALL, 16);
const RPCS: [RpcKind; 23] = by_discriminant!(RpcKind::ALL, 23);
/// `ErrorClass` counts from 1.
const ERRORS: [ErrorClass; 6] = by_discriminant!(ErrorClass::ALL, 6);
/// A `storage_done`'s node kind, by the high bits of its op byte.
const NODE_KINDS: [Option<NodeKind>; 3] = [None, Some(NodeKind::File), Some(NodeKind::Directory)];

fn flag(on: bool, bit: u8) -> u8 {
    if on {
        bit
    } else {
        0
    }
}

/// Appends `v` as a LEB128 varint.
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A wrapping difference as a varint-friendly unsigned: small magnitudes of
/// either sign stay small.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

impl Log {
    fn new(origin: u16) -> Self {
        Log {
            origin,
            bytes: Vec::new(),
            segments: Vec::new(),
            last: Cursor::default(),
        }
    }

    fn push(&mut self, rec: &TraceRecord) {
        let (t, seq) = (rec.t.as_micros(), rec.seq);
        if self.segments.is_empty() || (t, seq) < (self.last.t, self.last.seq) {
            self.segments.push(self.bytes.len());
            self.last = Cursor::default();
        }
        let place = Some((rec.machine, rec.process));
        let payload = match &rec.payload {
            Payload::Session { event, .. } => SESSION | flag(*event == SessionEvent::Close, FLAG),
            Payload::Storage(done) => {
                STORAGE
                    | flag(done.success, FLAG)
                    | flag(done.node.is_some(), NODE)
                    | flag(done.hash.is_some(), HASH)
            }
            Payload::Rpc { .. } => RPC,
            Payload::Auth { success, .. } => AUTH | flag(*success, FLAG),
        };
        let out = &mut self.bytes;
        out.push(
            payload
                | flag(place != self.last.place, PLACE)
                | flag(rec.attempt != 1, ATTEMPT)
                | flag(rec.error_class.is_some(), ERROR),
        );
        put(out, t - self.last.t);
        put(out, zigzag(seq.wrapping_sub(self.last.seq)));
        if place != self.last.place {
            put(out, rec.machine.raw().into());
            put(out, rec.process.raw().into());
        }
        if rec.attempt != 1 {
            out.push(rec.attempt);
        }
        if let Some(class) = rec.error_class {
            out.push(class as u8);
        }
        match &rec.payload {
            Payload::Session { session, user, .. } => {
                put(out, session.raw());
                put(out, user.raw());
            }
            Payload::Storage(done) => {
                let kind = match done.kind {
                    None => 0,
                    Some(NodeKind::File) => 1,
                    Some(NodeKind::Directory) => 2,
                };
                out.push(done.op as u8 | kind << 4);
                put(out, done.session.raw());
                put(out, done.user.raw());
                put(out, done.volume.raw());
                if let Some(node) = done.node {
                    put(out, node.raw());
                }
                put(out, done.size);
                if let Some(hash) = done.hash {
                    out.extend_from_slice(hash.as_bytes());
                }
                out.push(done.ext.len() as u8);
                out.extend_from_slice(done.ext.as_bytes());
                put(out, done.duration_us);
            }
            Payload::Rpc {
                rpc,
                shard,
                user,
                service_us,
            } => {
                out.push(*rpc as u8);
                put(out, shard.raw().into());
                put(out, user.raw());
                put(out, *service_us);
            }
            Payload::Auth { user, .. } => put(out, user.raw()),
        }
        self.last = Cursor { t, seq, place };
    }

    /// The log's segments, ready to decode, in arrival order.
    fn segments(&self) -> impl Iterator<Item = Segment<'_>> {
        let ends = self.segments.iter().skip(1).copied();
        self.segments
            .iter()
            .zip(ends.chain([self.bytes.len()]))
            .map(|(&start, end)| Segment::new(self.origin, &self.bytes[start..end]))
    }
}

/// Reads one segment of a [`Log`] back, a record at a time.
struct Segment<'a> {
    origin: u16,
    bytes: &'a [u8],
    at: usize,
    last: Cursor,
    /// The next record's header byte and key, read ahead for the merge.
    head: Option<(u8, MergeKey)>,
}

impl<'a> Segment<'a> {
    fn new(origin: u16, bytes: &'a [u8]) -> Self {
        let mut segment = Segment {
            origin,
            bytes,
            at: 0,
            last: Cursor::default(),
            head: None,
        };
        segment.read_head();
        segment
    }

    fn key(&self) -> Option<MergeKey> {
        self.head.map(|(_, key)| key)
    }

    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.at];
        self.at += 1;
        b
    }

    fn varint(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn slice(&mut self, len: usize) -> &'a [u8] {
        let bytes = &self.bytes[self.at..self.at + len];
        self.at += len;
        bytes
    }

    fn read_head(&mut self) {
        self.head = if self.at < self.bytes.len() {
            let head = self.byte();
            let t = self.last.t + self.varint();
            let seq = self.last.seq.wrapping_add(unzigzag(self.varint()));
            Some((head, (SimTime::from_micros(t), self.origin, seq)))
        } else {
            None
        };
    }

    /// Decodes the record whose head was read ahead, and reads the next
    /// head.
    fn next_record(&mut self) -> Option<TraceRecord> {
        let (head, (t, origin, seq)) = self.head?;
        let (machine, process) = if head & PLACE != 0 {
            let machine = MachineId::new(self.varint() as u16);
            (machine, ProcessId::new(self.varint() as u16))
        } else {
            self.last.place.unwrap_or_default()
        };
        let attempt = if head & ATTEMPT != 0 { self.byte() } else { 1 };
        let error_class = (head & ERROR != 0).then(|| ERRORS[usize::from(self.byte())]);
        let payload = match head & KIND {
            SESSION => {
                let session = SessionId::new(self.varint());
                let event = if head & FLAG != 0 {
                    SessionEvent::Close
                } else {
                    SessionEvent::Open
                };
                Payload::Session {
                    event,
                    session,
                    user: UserId::new(self.varint()),
                }
            }
            STORAGE => {
                let op = self.byte();
                let session = SessionId::new(self.varint());
                let user = UserId::new(self.varint());
                let volume = VolumeId::new(self.varint());
                let node = (head & NODE != 0).then(|| NodeId::new(self.varint()));
                let size = self.varint();
                let hash = (head & HASH != 0).then(|| {
                    let mut raw = [0u8; 20];
                    raw.copy_from_slice(self.slice(20));
                    ContentHash::new(raw)
                });
                let ext_len = usize::from(self.byte());
                let ext = Ext::from_bytes(self.slice(ext_len));
                Payload::Storage(Box::new(StorageDone {
                    op: OPS[usize::from(op & 0x0f)],
                    session,
                    user,
                    volume,
                    node,
                    kind: NODE_KINDS[usize::from(op >> 4)],
                    size,
                    hash,
                    ext,
                    success: head & FLAG != 0,
                    duration_us: self.varint(),
                }))
            }
            RPC => {
                let rpc = RPCS[usize::from(self.byte())];
                let shard = ShardId::new(self.varint() as u16);
                let user = UserId::new(self.varint());
                Payload::Rpc {
                    rpc,
                    shard,
                    user,
                    service_us: self.varint(),
                }
            }
            _ => Payload::Auth {
                user: UserId::new(self.varint()),
                success: head & FLAG != 0,
            },
        };
        self.last = Cursor {
            t: t.as_micros(),
            seq,
            place: Some((machine, process)),
        };
        self.read_head();
        Some(TraceRecord {
            t,
            machine,
            process,
            origin,
            seq,
            attempt,
            error_class,
            payload,
        })
    }
}

/// K-way merges every segment of `logs` by `(t, origin, seq)` into one
/// vector of exactly `records` records. Segments of different origins never
/// share a full key; segments of one origin are numbered in arrival order,
/// and a tie goes to the lower number, so equal keys keep the order they
/// were recorded in.
///
/// The merge gallops: the segment with the smallest head keeps emitting
/// until its next key passes the runner-up's head, so the heap is touched
/// once per such stretch instead of once per record. An operation emits its
/// handful of records at one `(t, origin)`, and between two operations of
/// one shard the other shards have usually emitted nothing earlier, so
/// stretches are several records long.
fn merge(logs: &[Log], records: usize) -> Vec<TraceRecord> {
    let mut segments = Vec::with_capacity(logs.iter().map(|log| log.segments.len()).sum());
    segments.extend(logs.iter().flat_map(Log::segments));
    let mut out = Vec::with_capacity(records);
    let mut heap: BinaryHeap<Reverse<(MergeKey, usize)>> =
        BinaryHeap::with_capacity(segments.len());
    for (i, segment) in segments.iter().enumerate() {
        if let Some(key) = segment.key() {
            heap.push(Reverse((key, i)));
        }
    }
    while let Some(Reverse((_, i))) = heap.pop() {
        let bound = heap.peek().map(|Reverse(top)| *top);
        let segment = &mut segments[i];
        let next = loop {
            out.extend(segment.next_record());
            match segment.key() {
                Some(key) if bound.is_none_or(|b| (key, i) < b) => {}
                next => break next,
            }
        };
        if let Some(key) = next {
            heap.push(Reverse((key, i)));
        }
    }
    out
}

/// Buffers records per origin in front of an inner sink, so hot emission
/// paths touch an uncontended stripe instead of the inner sink's locks.
///
/// Each origin fills one chunk of `BUFFER_FLUSH_THRESHOLD` records, which
/// is handed to the inner sink's [`TraceSink::record_run`] when full and at
/// explicit flushes (workers in `u1-workload::driver` flush their origins
/// at day boundaries). If the inner sink only drained the chunk, the same
/// allocation is filled again; if it kept it, a new one is opened on the
/// next record. Either way a chunk is allocated at its final size, never
/// regrown. A borrowed [`TraceSink::record_batch`] is not copied into the
/// chunks: everything buffered is delivered first, then the batch goes to
/// the inner sink's `record_batch` as it is. Because each origin is emitted
/// by exactly one thread and delivered to the inner sink in emission order,
/// buffering never changes the canonical `(t, origin, seq)` trace — only
/// the interleaving of already-concurrent origins.
pub struct BufferedSink<S: TraceSink> {
    inner: S,
    stripes: Vec<CachePadded<Mutex<PerOrigin<Vec<TraceRecord>>>>>,
}

impl<S: TraceSink> BufferedSink<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            stripes: (0..STRIPES)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
        }
    }

    /// The wrapped sink. Records still buffered are not visible in it until
    /// [`TraceSink::flush`].
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn stripe(&self, origin: u32) -> &Mutex<PerOrigin<Vec<TraceRecord>>> {
        &self.stripes[origin as usize % self.stripes.len()]
    }

    /// Delivers every origin's part-filled chunk.
    fn deliver_all(&self) {
        for stripe in &self.stripes {
            let filled: Vec<(u32, Vec<TraceRecord>)> = stripe
                .lock()
                .iter_mut()
                .filter(|(_, buffer)| !buffer.is_empty())
                .map(|(origin, buffer)| (*origin, std::mem::take(buffer)))
                .collect();
            for (origin, chunk) in filled {
                self.deliver(origin, chunk);
            }
        }
    }

    /// Hands `chunk` to the inner sink outside any stripe lock, then keeps
    /// the allocation as the origin's next buffer if the inner sink left it
    /// behind and the origin has not opened another in the meantime.
    fn deliver(&self, origin: u32, mut chunk: Vec<TraceRecord>) {
        self.inner.record_run(origin, &mut chunk);
        chunk.clear();
        if chunk.capacity() == 0 {
            return;
        }
        let mut buffers = self.stripe(origin).lock();
        let buffer = origin_slot(&mut buffers, origin);
        if buffer.capacity() == 0 {
            *buffer = chunk;
        }
    }
}

impl<S: TraceSink> TraceSink for BufferedSink<S> {
    /// Adds `rec` to its origin's open chunk (opened at full size if there
    /// is none) under the stripe lock, and delivers the chunk once that
    /// fills it: at exactly `BUFFER_FLUSH_THRESHOLD` records.
    fn record(&self, rec: TraceRecord) {
        let origin = u32::from(rec.origin);
        let full = {
            let mut buffers = self.stripe(origin).lock();
            let buffer = origin_slot(&mut buffers, origin);
            if buffer.capacity() == 0 {
                buffer.reserve_exact(BUFFER_FLUSH_THRESHOLD);
            }
            buffer.push(rec);
            (buffer.len() >= BUFFER_FLUSH_THRESHOLD).then(|| std::mem::take(buffer))
        };
        if let Some(chunk) = full {
            self.deliver(origin, chunk);
        }
    }

    fn record_batch(&self, recs: &[TraceRecord]) {
        // A batch is already one hand-off: pass it on as it is, borrowed,
        // after what is buffered, so each origin still arrives in order.
        self.deliver_all();
        self.inner.record_batch(recs);
    }

    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        for rec in recs.drain(..) {
            self.record(rec);
        }
    }

    fn flush(&self) {
        self.deliver_all();
        self.inner.flush();
    }

    fn seal_before(&self, before: SimTime) {
        // Whatever is still buffered may lie below the bound.
        self.deliver_all();
        self.inner.seal_before(before);
    }

    fn flush_origin(&self, origin: u32) {
        // Take only this origin's buffer out of its stripe; deliver outside
        // the stripe lock. The inner sink is NOT flushed: flush_origin is
        // the hot per-day path (memory delivery), while I/O flushing stays
        // with the run-final full flush().
        let chunk = {
            let mut buffers = self.stripe(origin).lock();
            let buffer = origin_slot(&mut buffers, origin);
            if buffer.is_empty() {
                return;
            }
            std::mem::take(buffer)
        };
        self.deliver(origin, chunk);
    }

    fn io_errors(&self) -> u64 {
        self.inner.io_errors()
    }
}

impl<S: TraceSink> Drop for BufferedSink<S> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Open logfile for one (machine, process): the simulated day it covers
/// and the buffered writer — `None` when opening the day's file failed and
/// the sink is running degraded for that (process, day).
type DayWriter = (u64, Option<BufWriter<File>>);

thread_local! {
    /// Amortized per-thread serialization buffer: the lines bound for one
    /// file are encoded here, outside any writer lock, then written as a
    /// single byte slice.
    static LINE_BUF: RefCell<Vec<u8>> = RefCell::new(Vec::with_capacity(256));
}

/// Writes paper-style logfiles under a directory: one file per
/// (machine, process, day), rotated as simulated days advance.
///
/// Every (machine, process)'s writer sits in one map under one lock, held
/// across the file I/O of a write on purpose; it is what keeps three
/// promises:
///
/// * **Log-line atomicity.** A span of whole serialized lines is written in
///   one `write_all` under the lock, so lines never tear or interleave.
/// * **Day rotation.** The old day's writer is flushed and retired before
///   the map accepts a line for the new day.
/// * **Flush completeness.** [`TraceSink::flush`] drains every writer under
///   the lock, so no line written before the call is missed.
///
/// The lines are encoded into a per-thread buffer before the lock is taken,
/// so the lock covers the write and its I/O, not the encoding.
///
/// I/O errors do not abort the process: the sink degrades by dropping that
/// (process, day)'s records, counting the failure in
/// [`DirSink::io_errors`] and keeping the first error message in
/// [`DirSink::first_io_error`], which is set once and needs no lock.
pub struct DirSink {
    dir: PathBuf,
    writers: Mutex<HashMap<(MachineId, ProcessId), DayWriter>>,
    /// Append `o=`/`q=` origin/sequence stamps to every line (see
    /// [`csvline::write_line_stamped`]). Off by default: plain mode emits
    /// the paper's exact logfile schema.
    stamped: bool,
    io_errors: AtomicU64,
    first_error: OnceLock<String>,
}

impl DirSink {
    /// Creates the directory (and parents) if needed.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_stamps(dir, false)
    }

    /// Like [`DirSink::create`], but every line carries its `(origin, seq)`
    /// stamp so the directory can be read back into exact canonical order —
    /// the mode the stream-to-disk pipeline uses.
    pub fn create_stamped(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_stamps(dir, true)
    }

    fn with_stamps(dir: impl Into<PathBuf>, stamped: bool) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            writers: Mutex::new(HashMap::new()),
            stamped,
            io_errors: AtomicU64::new(0),
            first_error: OnceLock::new(),
        })
    }

    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Number of failed logfile operations (opens, writes, flushes) since
    /// creation. Each failure degrades (drops) one (process, day) stream;
    /// the next day retries.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Counts one degraded-mode I/O failure and keeps the first message.
    fn note_io_error(&self, msg: impl FnOnce() -> String) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        self.first_error.get_or_init(msg);
    }

    /// The first I/O error observed, if any — enough to diagnose a
    /// misconfigured trace directory without aborting a multi-hour run.
    pub fn first_io_error(&self) -> Option<String> {
        self.first_error.get().cloned()
    }

    fn open(&self, machine: MachineId, process: ProcessId, day: u64) -> Option<BufWriter<File>> {
        let path = self
            .dir
            .join(crate::logfile::logfile_name(machine, process, day));
        // Append: a process may be asked to re-open a day's file after a
        // rotation race; losing previously written lines would corrupt the
        // trace.
        match fs::OpenOptions::new().create(true).append(true).open(&path) {
            Ok(file) => Some(BufWriter::new(file)),
            Err(e) => {
                self.note_io_error(|| format!("open trace logfile {}: {e}", path.display()));
                None
            }
        }
    }

    /// Appends pre-serialized whole lines (newlines included) to the right
    /// (machine, process, day) file.
    fn write_serialized(&self, machine: MachineId, process: ProcessId, day: u64, lines: &[u8]) {
        let mut writers = self.writers.lock();
        let entry = writers.entry((machine, process));
        let slot = match entry {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if o.get().0 != day {
                    // Day changed for this process: flush and rotate, like
                    // the original "one log file per server/service and day".
                    let (_, old) = o.insert((day, self.open(machine, process, day)));
                    if let Some(mut w) = old {
                        if let Err(e) = w.flush() {
                            self.note_io_error(|| format!("flush trace logfile: {e}"));
                        }
                    }
                }
                o.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((day, self.open(machine, process, day)))
            }
        };
        if let Some(w) = &mut slot.1 {
            if let Err(e) = w.write_all(lines) {
                // Degrade exactly like a failed open: count it, drop the
                // writer so the stream goes quiet for the rest of the day
                // instead of emitting torn lines, retry on rotation.
                slot.1 = None;
                self.note_io_error(|| format!("write trace logfile: {e}"));
            }
        }
    }
}

impl TraceSink for DirSink {
    fn record(&self, rec: TraceRecord) {
        self.record_batch(std::slice::from_ref(&rec));
    }

    fn record_batch(&self, recs: &[TraceRecord]) {
        let file_of = |rec: &TraceRecord| (rec.machine, rec.process, rec.t.day_index());
        LINE_BUF.with(|b| {
            let mut buf = b.borrow_mut();
            // Consecutive records bound for one file go to it in one write.
            for span in recs.chunk_by(|a, b| file_of(a) == file_of(b)) {
                buf.clear();
                for rec in span {
                    csvline::encode_line(rec, self.stamped, &mut buf);
                }
                let (machine, process, day) = file_of(&span[0]);
                self.write_serialized(machine, process, day, &buf);
            }
        });
    }

    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        self.record_batch(recs);
        recs.clear();
    }

    fn flush(&self) {
        for (_, slot) in self.writers.lock().iter_mut() {
            if let Some(w) = &mut slot.1 {
                if let Err(e) = w.flush() {
                    slot.1 = None;
                    self.note_io_error(|| format!("flush trace logfile: {e}"));
                }
            }
        }
    }

    fn io_errors(&self) -> u64 {
        DirSink::io_errors(self)
    }
}

impl Drop for DirSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Payload, SessionEvent};
    use u1_core::{SessionId, SimTime, UserId};

    fn rec(t_secs: u64, machine: u16, process: u16) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs(t_secs),
            MachineId::new(machine),
            ProcessId::new(process),
            Payload::Session {
                event: SessionEvent::Open,
                session: SessionId::new(t_secs),
                user: UserId::new(1),
            },
        )
    }

    fn rec_origin(t_secs: u64, origin: u16, seq: u64) -> TraceRecord {
        let mut r = rec(t_secs, 0, 0);
        r.origin = origin;
        r.seq = seq;
        r
    }

    #[test]
    fn memory_sink_sorts_by_time() {
        let sink = MemorySink::new();
        sink.record(rec(30, 0, 0));
        sink.record(rec(10, 0, 0));
        sink.record(rec(20, 0, 0));
        let recs = sink.take_sorted();
        let times: Vec<u64> = recs.iter().map(|r| r.t.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert!(sink.is_empty());
    }

    #[test]
    fn memory_sink_merges_origin_runs_into_canonical_order() {
        let sink = MemorySink::new();
        // Three origins, interleaved timestamps, each arriving in more
        // than one span.
        for (t, origin, seq) in [
            (5u64, 1u16, 0u64),
            (9, 33, 0),
            (3, 2, 0),
            (9, 1, 1),
            (12, 33, 1),
            (9, 2, 1),
        ] {
            sink.record(rec_origin(t, origin, seq));
        }
        let recs = sink.take_sorted();
        let keys: Vec<(u64, u16, u64)> = recs
            .iter()
            .map(|r| (r.t.as_secs(), r.origin, r.seq))
            .collect();
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(keys, expect);
        assert_eq!(recs.len(), 6);
    }

    /// Canonical keys of a trace, timestamps in seconds.
    fn keys(recs: &[TraceRecord]) -> Vec<(u64, u16, u64)> {
        recs.iter()
            .map(|r| (r.t.as_secs(), r.origin, r.seq))
            .collect()
    }

    #[test]
    fn seal_before_notes_the_bound_and_moves_nothing() {
        let sink = MemorySink::new();
        // Origin 1 crosses the bound inside its second chunk, origin 2 ends
        // below it, origin 3 starts at it.
        let chunk = BUFFER_FLUSH_THRESHOLD as u64;
        for seq in 0..chunk + 10 {
            sink.record(rec_origin(seq / 100, 1, seq));
        }
        for seq in 0..5 {
            sink.record(rec_origin(seq, 2, seq));
        }
        sink.record(rec_origin(41, 3, 0));
        let bound = SimTime::from_secs(41);
        let total = sink.len();
        let held = |sink: &MemorySink| {
            let store = sink.store.lock();
            let logs: Vec<(u16, usize, usize)> = store
                .logs
                .iter()
                .map(|log| (log.origin, log.bytes.len(), log.segments.len()))
                .collect();
            logs
        };
        let before = held(&sink);
        assert_eq!(before.len(), 3);
        assert!(before.iter().all(|&(_, _, segments)| segments == 1));

        sink.seal_before(bound);
        // A lower bound does not take it back.
        sink.seal_before(SimTime::ZERO);
        assert_eq!(sink.len(), total);
        assert_eq!(held(&sink), before, "a seal moves no record");
        assert_eq!(sink.store.lock().sealed, bound);
        assert_eq!(sink.late_records(), 0);
        // At the bound is in time; below it is late, and opens a segment
        // of origin 3's log.
        sink.record(rec_origin(41, 3, 1));
        sink.record(rec_origin(40, 3, 2));
        assert_eq!(sink.late_records(), 1);
        assert_eq!(held(&sink)[2].2, 2);

        let recs = sink.take_sorted();
        let mut expect = keys(&recs);
        expect.sort();
        assert_eq!(keys(&recs), expect);
        assert_eq!(recs.len(), total + 2);
        assert!(sink.is_empty());
        assert_eq!(sink.late_records(), 0);
    }

    #[test]
    fn buffered_sink_seal_delivers_and_forwards() {
        let inner = std::sync::Arc::new(MemorySink::new());
        let buffered = BufferedSink::new(std::sync::Arc::clone(&inner));
        for i in 0..100 {
            buffered.record(rec_origin(i, (i % 3) as u16, i));
        }
        // Through an `Arc<dyn TraceSink>`, as the backend holds it.
        let shared: std::sync::Arc<dyn TraceSink> = std::sync::Arc::new(buffered);
        shared.seal_before(SimTime::from_secs(60));
        assert_eq!(inner.len(), 100, "buffered records were delivered");
        assert_eq!(inner.store.lock().sealed, SimTime::from_secs(60));
    }

    #[test]
    fn buffered_sink_batches_like_it_records() {
        // Same-origin spans around the chunk size, after a few records the
        // buffer still holds: a batch is delivered whole, behind them, and
        // leaves the inner sink what per-record emission and a flush leave.
        let chunk = BUFFER_FLUSH_THRESHOLD as u64;
        let mut recs = Vec::new();
        for (origin, len) in [(1, chunk - 1), (2, 3), (1, 2), (2, 2 * chunk + 1), (1, 0)] {
            let start = recs.len() as u64;
            recs.extend((start..start + len).map(|i| rec_origin(i, origin, i)));
        }
        let (buffered, batch) = recs.split_at(7);
        let by_record = std::sync::Arc::new(MemorySink::new());
        let by_batch = std::sync::Arc::new(MemorySink::new());
        let one = BufferedSink::new(std::sync::Arc::clone(&by_record));
        let all = BufferedSink::new(std::sync::Arc::clone(&by_batch));
        recs.iter().for_each(|r| one.record(r.clone()));
        buffered.iter().for_each(|r| all.record(r.clone()));
        assert!(by_batch.is_empty());
        all.record_batch(batch);
        assert_eq!(by_batch.len(), recs.len(), "nothing is left buffered");
        one.flush();
        all.flush();
        assert_eq!(by_batch.len(), recs.len());
        assert_eq!(by_batch.take_sorted(), by_record.take_sorted());
    }

    #[test]
    fn buffered_sink_flush_delivers_everything() {
        let inner = std::sync::Arc::new(MemorySink::new());
        let buffered = BufferedSink::new(std::sync::Arc::clone(&inner));
        for i in 0..100 {
            buffered.record(rec_origin(i, (i % 3) as u16, i));
        }
        assert!(inner.is_empty(), "nothing reaches inner before flush");
        buffered.flush();
        assert_eq!(inner.len(), 100);
    }

    #[test]
    fn buffered_sink_flush_origin_drains_only_that_origin() {
        let inner = std::sync::Arc::new(MemorySink::new());
        let buffered = BufferedSink::new(std::sync::Arc::clone(&inner));
        for i in 0..30u64 {
            buffered.record(rec_origin(i, (i % 3) as u16, i));
        }
        buffered.flush_origin(1);
        assert_eq!(inner.len(), 10, "only origin 1's run is delivered");
        assert!(inner
            .take_sorted()
            .iter()
            .all(|r| r.origin == 1 && r.seq % 3 == 1));
        // Re-flushing a drained origin is a no-op; the full flush delivers
        // the rest.
        buffered.flush_origin(1);
        assert!(inner.is_empty());
        buffered.flush();
        assert_eq!(inner.len(), 20);
        // Same through an `Arc<dyn TraceSink>` (how the driver holds it).
        let shared: std::sync::Arc<dyn TraceSink> =
            std::sync::Arc::new(BufferedSink::new(std::sync::Arc::clone(&inner)));
        let _ = inner.take_sorted();
        shared.record(rec_origin(1, 7, 0));
        shared.flush_origin(7);
        assert_eq!(inner.len(), 1);
    }

    #[test]
    fn dir_sink_rotates_per_day_and_process() {
        let dir = std::env::temp_dir().join(format!("u1-trace-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let sink = DirSink::create(&dir).unwrap();
            sink.record(rec(10, 0, 1)); // day 0, proc 1
            sink.record(rec(20, 0, 2)); // day 0, proc 2
            sink.record(rec(86_400 + 5, 0, 1)); // day 1, proc 1
            sink.flush();
            assert_eq!(sink.io_errors(), 0);
            assert_eq!(sink.first_io_error(), None);
        }
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "production-whitecurrant-1-day00.csv",
                "production-whitecurrant-1-day01.csv",
                "production-whitecurrant-2-day00.csv",
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_sink_batch_writes_the_bytes_per_record_emission_writes() {
        let base = std::env::temp_dir().join(format!("u1-trace-batch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        // Spans of one file, a process change, a day change, a return to an
        // earlier file.
        let recs: Vec<TraceRecord> = [
            (10, 1),
            (11, 1),
            (12, 2),
            (86_400, 2),
            (86_401, 2),
            (86_402, 1),
            (13, 1),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (t, process))| {
            let mut r = rec(t, 0, process);
            (r.origin, r.seq) = (process, i as u64);
            r
        })
        .collect();
        for stamped in [false, true] {
            let dirs = [base.join("one"), base.join("all")];
            for (dir, batched) in dirs.iter().zip([false, true]) {
                let _ = fs::remove_dir_all(dir);
                let sink = DirSink::with_stamps(dir, stamped).unwrap();
                if batched {
                    sink.record_batch(&recs);
                } else {
                    recs.iter().for_each(|r| sink.record(r.clone()));
                }
                sink.flush();
                assert_eq!(sink.io_errors(), 0);
            }
            let mut files = 0;
            for entry in fs::read_dir(&dirs[0]).unwrap() {
                let name = entry.unwrap().file_name();
                let one = fs::read(dirs[0].join(&name)).unwrap();
                assert_eq!(one, fs::read(dirs[1].join(&name)).unwrap(), "{name:?}");
                assert_eq!(one.last(), Some(&b'\n'));
                files += 1;
            }
            assert_eq!(files, 4);
            assert_eq!(fs::read_dir(&dirs[1]).unwrap().count(), 4);
        }
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn dir_sink_degrades_on_unopenable_path() {
        // A file where the sink expects a directory: every open fails, but
        // nothing panics and the failure is observable.
        let bogus = std::env::temp_dir().join(format!("u1-trace-bogus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&bogus);
        let sink = DirSink::create(&bogus).unwrap();
        fs::remove_dir_all(&bogus).unwrap();
        fs::write(&bogus, b"not a directory").unwrap();
        sink.record(rec(10, 0, 1));
        sink.record(rec(20, 0, 1)); // same (process, day): no second open
        sink.record(rec(86_400 + 5, 0, 1)); // next day retries and fails again
        sink.flush();
        assert_eq!(sink.io_errors(), 2);
        assert!(sink.first_io_error().is_some());
        // The count is visible through the trait too (how `Driver::run`
        // surfaces it into `DriverReport::trace_io_errors`), including
        // through an `Arc<dyn TraceSink>` and a `BufferedSink` wrapper.
        let shared: std::sync::Arc<dyn TraceSink> = std::sync::Arc::new(sink);
        assert_eq!(TraceSink::io_errors(&shared), 2);
        let buffered = BufferedSink::new(std::sync::Arc::clone(&shared));
        assert_eq!(buffered.io_errors(), 2);
        let memory: std::sync::Arc<dyn TraceSink> = std::sync::Arc::new(MemorySink::new());
        assert_eq!(TraceSink::io_errors(&memory), 0);
        let _ = fs::remove_file(&bogus);
    }

    /// Write and flush failures (not just failed opens) are counted and
    /// degrade the (process, day) stream without panicking. Tests run as
    /// root, where permission tricks don't bite, so the failing device is
    /// `/dev/full`: opens succeed, every flushed byte returns `ENOSPC`.
    #[cfg(unix)]
    #[test]
    fn dir_sink_counts_write_and_flush_failures() {
        if !std::path::Path::new("/dev/full").exists() {
            return; // non-Linux unix: no such device, nothing to test
        }
        let dir = std::env::temp_dir().join(format!("u1-trace-full-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sink = DirSink::create(&dir).unwrap();
        for proc in [1u16, 2u16] {
            std::os::unix::fs::symlink(
                "/dev/full",
                dir.join(crate::logfile::logfile_name(
                    MachineId::new(0),
                    ProcessId::new(proc),
                    0,
                )),
            )
            .unwrap();
        }
        // Process 1: enough lines to overflow the BufWriter mid-record, so
        // the failure surfaces on the write path itself.
        for i in 0..2_000u64 {
            sink.record(rec(10 + i % 50, 0, 1));
        }
        assert_eq!(sink.io_errors(), 1, "{:?}", sink.first_io_error());
        let first = sink.first_io_error().expect("first error recorded");
        assert!(first.starts_with("write trace logfile"), "was: {first}");
        // The degraded stream goes quiet instead of erroring per record.
        sink.record(rec(11, 0, 1));
        assert_eq!(sink.io_errors(), 1);
        // Process 2: one buffered line; the failure surfaces at flush().
        sink.record(rec(10, 0, 2));
        sink.flush();
        assert_eq!(sink.io_errors(), 2);
        // Both streams degraded; a full-run completion with errors counted
        // is exactly the driver's degraded-mode contract.
        sink.flush();
        assert_eq!(sink.io_errors(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
