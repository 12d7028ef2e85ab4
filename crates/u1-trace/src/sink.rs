//! Trace sinks: where running server processes emit their records.
//!
//! [`TraceSink`] is the seam: `record` and its batch forms take records in,
//! `flush` / `flush_origin` push buffered ones on, and `seal_before` passes
//! down the producer's promise that everything below a timestamp has been
//! emitted. [`BufferedSink`] fills one chunk per origin in front of any
//! other sink. [`MemorySink`] keeps the trace in memory — one vector, a
//! canonical prefix followed by the records not yet settled, which each
//! seal merges and reorders in place, so a sealed day is held once — and
//! hands it over in canonical `(t, origin, seq)` order. [`DirSink`] writes
//! the paper's logfiles, one per (machine, process, day), a buffer of whole
//! lines per write. [`NullSink`] drops everything.

use crate::csvline;
use crate::event::{Payload, SessionEvent, TraceRecord};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use u1_core::sync::{Mutex, Rank};
use u1_core::{CachePadded, MachineId, ProcessId, SessionId, SimTime, UserId};

/// Stripe count used by the lock-sharded sinks below. Origins (driver
/// partitions) and (machine, process) pairs are spread across this many
/// independent locks so concurrent emitters rarely contend.
///
/// [`BufferedSink`] stripes by `origin % STRIPES`; origins are small dense
/// integers (one per metastore shard plus the coordinator — 11 by default),
/// so 32 stripes is a perfect collision-free partition up to 32 driver
/// partitions. Each stripe lock is additionally padded to its own cache
/// line: a mutex plus a `Vec` header is well under 64 bytes, so unpadded
/// neighbours would false-share a line between workers even when their
/// locks never collide.
const STRIPES: usize = 32;

/// Records per chunk: [`BufferedSink`] fills a chunk of exactly this
/// capacity per origin and hands it on when full (callers still flush
/// explicitly at day boundaries), and [`MemorySink`]'s seal reorders its
/// records in blocks of the same size, so a chunk taken whole frees a block.
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
    /// delegates to [`TraceSink::record_batch_owned`], does, and so does
    /// [`MemorySink`], which moves the whole run onto its store in one copy.
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
/// trip. The whole trace is one vector under one lock: the canonical
/// prefix, then the records not yet settled, in arrival order. A run handed
/// over by [`BufferedSink`] is moved onto the end and drained, so the buffer
/// refills its own allocation and a record is stored once, where it lands.
///
/// [`TraceSink::seal_before`] settles everything below the bound: the
/// origins' runs are merged into an order of unsettled positions, and that
/// order is applied in place, block by block, so the merged records take
/// the pages they arrived in. A month sealed day by day therefore holds one
/// copy of its trace, and a seal needs beside it a `u32` per unsettled
/// record and a few blocks; `take_sorted` — "seal everything, take the
/// prefix" — has one day left to settle. Nothing is locked under the one
/// lock, so it is a [`Rank::Leaf`].
#[derive(Debug, Default)]
pub struct MemorySink {
    store: Mutex<Store>,
}

/// A [`MemorySink`]'s records and what is known about them.
#[derive(Debug, Default)]
struct Store {
    /// `records[..settled]` is in canonical `(t, origin, seq)` order as long
    /// as `late` is zero; `records[settled..]` is the unsettled tail.
    records: Vec<TraceRecord>,
    settled: usize,
    /// The tail as `(origin, len)` spans in arrival order, no two adjacent
    /// spans of one origin.
    spans: Vec<(u32, usize)>,
    /// Records a seal merged in below the key the prefix already ended on:
    /// a producer broke its [`TraceSink::seal_before`] promise.
    late: u64,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.store.lock().records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records since the last `take_sorted` that arrived below a bound
    /// already sealed. They come out of `take_sorted` in their canonical
    /// place all the same, at the price of one sort of the whole trace.
    pub fn late_records(&self) -> u64 {
        self.store.lock().late
    }

    /// Drains and returns all records in canonical order: sorted by
    /// `(t, origin, seq)`, ties in the order they were recorded — what a
    /// stable sort of everything recorded would give. The prefix is that
    /// already unless a record arrived late; equal keys sit in it in
    /// arrival order either way (a later seal's records arrived after the
    /// earlier seal, or they would have been part of it), so one stable
    /// sort repairs it.
    pub fn take_sorted(&self) -> Vec<TraceRecord> {
        let Store {
            mut records, late, ..
        } = {
            let mut store = self.store.lock();
            store.seal(None);
            std::mem::take(&mut *store)
        };
        if late > 0 {
            records.sort_by_key(merge_key);
        }
        // The last seal's filler blocks touched pages past the end; the
        // caller keeps the trace for its analyses, so give them back.
        records.shrink_to_fit();
        records
    }
}

impl Store {
    /// Notes `len` more records of `origin` at the end of the tail.
    fn push_span(&mut self, origin: u32, len: usize) {
        match self.spans.last_mut() {
            Some((last, n)) if *last == origin => *n += len,
            _ if len == 0 => {}
            _ => self.spans.push((origin, len)),
        }
    }

    /// Settles every record below `before` (every record for `None`): they
    /// move, in canonical order, to the front of the tail, which then ends
    /// the prefix. What stays in the tail is kept origin by origin, each in
    /// `(t, seq)` order.
    ///
    /// Each run is monotonic in `(t, seq)` (verified, and stable-sorted if
    /// a producer emitted out of order), so the k-way merge of the runs'
    /// heads is exactly what a stable sort of those records by
    /// `(t, origin, seq)` would produce: full keys collide only within one
    /// origin's legacy `(0, 0)`-stamped records, whose emission order both
    /// preserve. If no record below an earlier bound has arrived since, it
    /// also starts at or above the key the prefix ends on.
    fn seal(&mut self, before: Option<SimTime>) {
        let base = self.settled;
        let tail = &self.records[base..];
        if tail.is_empty() {
            return;
        }
        let runs = origin_runs(tail, &self.spans);
        let sources = runs.len();
        let (order, kept) = merge_order(tail, runs, before);
        let merged = order.len() - kept.iter().map(|(_, len)| len).sum::<usize>();
        apply_order(&mut self.records, base, &order, sources);
        self.settled = base + merged;
        self.spans = kept;
        if let Some(end) = base
            .checked_sub(1)
            .map(|last| merge_key(&self.records[last]))
        {
            let new = &self.records[base..self.settled];
            self.late += new.partition_point(|r| merge_key(r) < end) as u64;
        }
    }
}

impl TraceSink for MemorySink {
    fn record(&self, rec: TraceRecord) {
        let mut store = self.store.lock();
        store.push_span(u32::from(rec.origin), 1);
        store.records.push(rec);
    }

    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        let mut store = self.store.lock();
        for rec in recs.iter() {
            store.push_span(u32::from(rec.origin), 1);
        }
        store.records.append(recs);
    }

    fn record_run(&self, origin: u32, recs: &mut Vec<TraceRecord>) {
        // The records move onto the end; the emptied vector, allocation and
        // all, stays with the caller to fill again.
        let mut store = self.store.lock();
        store.push_span(origin, recs.len());
        store.records.append(recs);
    }

    fn seal_before(&self, before: SimTime) {
        self.store.lock().seal(Some(before));
    }
}

/// Merge key: the canonical `(t, origin, seq)` order.
type MergeKey = (SimTime, u16, u64);

fn merge_key(rec: &TraceRecord) -> MergeKey {
    (rec.t, rec.origin, rec.seq)
}

/// One origin's unsettled records in `(t, seq)` order, as tail positions,
/// yielded front to back.
struct Run {
    origin: u32,
    positions: Positions,
}

enum Positions {
    /// The spans the origin arrived in, its records already in order; the
    /// first span left is trimmed as records are taken.
    Spans(std::vec::IntoIter<Range<u32>>, Range<u32>),
    /// One position per record, stable-sorted by `(t, seq)`: the producer
    /// emitted out of order.
    Sorted(std::vec::IntoIter<u32>),
}

impl Run {
    fn peek(&self) -> Option<u32> {
        match &self.positions {
            Positions::Spans(_, current) => (!current.is_empty()).then_some(current.start),
            Positions::Sorted(positions) => positions.as_slice().first().copied(),
        }
    }
}

impl Iterator for Run {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.positions {
            Positions::Spans(rest, current) => {
                let at = current.next()?;
                if Range::is_empty(current) {
                    *current = rest.next().unwrap_or_default();
                }
                Some(at)
            }
            Positions::Sorted(positions) => positions.next(),
        }
    }
}

/// Each origin's run of the tail, origins in order of first arrival. A run
/// is verified to be in `(t, seq)` order, and stable-sorted if it is not.
fn origin_runs(tail: &[TraceRecord], spans: &[(u32, usize)]) -> Vec<Run> {
    let at = |p: u32| &tail[p as usize];
    let mut by_origin: PerOrigin<Vec<Range<u32>>> = Vec::new();
    let mut start = 0u32;
    for &(origin, len) in spans {
        let end = u32::try_from(len)
            .ok()
            .and_then(|len| start.checked_add(len))
            .expect("positions are u32: a tail of fewer than 2^32 records");
        origin_slot(&mut by_origin, origin).push(start..end);
        start = end;
    }
    by_origin
        .into_iter()
        .map(|(origin, spans)| {
            let mut keys = spans
                .iter()
                .flat_map(Range::clone)
                .map(|p| (at(p).t, at(p).seq));
            let mut prev = keys.next();
            let sorted = keys.all(|key| {
                let in_order = prev <= Some(key);
                prev = Some(key);
                in_order
            });
            let positions = if sorted {
                let mut spans = spans.into_iter();
                let first = spans.next().unwrap_or_default();
                Positions::Spans(spans, first)
            } else {
                let mut positions: Vec<u32> = spans.into_iter().flatten().collect();
                positions.sort_by_key(|&p| (at(p).t, at(p).seq));
                Positions::Sorted(positions.into_iter())
            };
            Run { origin, positions }
        })
        .collect()
}

/// K-way merges the runs' records below `before` (all of them for `None`)
/// into an order of tail positions, then appends each run's records left,
/// run by run. Returns that order, a permutation of the tail's positions,
/// and the spans of the records left. Records of different runs never
/// share a full key (the key includes the origin), so the merge is
/// deterministic.
///
/// The merge gallops: the run with the smallest head keeps emitting until
/// its next key passes the runner-up's head, so the heap is touched once
/// per such stretch instead of once per record. An operation emits its
/// handful of records at one `(t, origin)`, and between two operations of
/// one shard the other shards have usually emitted nothing earlier, so
/// stretches are several records long.
fn merge_order(
    tail: &[TraceRecord],
    mut runs: Vec<Run>,
    before: Option<SimTime>,
) -> (Vec<u32>, Vec<(u32, usize)>) {
    let below = |run: &Run| {
        let key = merge_key(&tail[run.peek()? as usize]);
        before.is_none_or(|b| key.0 < b).then_some(key)
    };
    let mut order = Vec::with_capacity(tail.len());
    let mut heap: BinaryHeap<Reverse<(MergeKey, usize)>> = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        if let Some(key) = below(run) {
            heap.push(Reverse((key, i)));
        }
    }
    while let Some(Reverse((_, i))) = heap.pop() {
        let bound = heap.peek().map(|Reverse((key, _))| *key);
        let run = &mut runs[i];
        let next = loop {
            order.extend(run.next());
            match below(run) {
                Some(key) if bound.is_none_or(|b| key < b) => {}
                next => break next,
            }
        };
        if let Some(key) = next {
            heap.push(Reverse((key, i)));
        }
    }
    let mut kept = Vec::new();
    for run in runs {
        let (origin, from) = (run.origin, order.len());
        order.extend(run);
        if order.len() > from {
            kept.push((origin, order.len() - from));
        }
    }
    (order, kept)
}

/// A record that holds a slot while the seal reorders: it owns no heap.
fn filler() -> TraceRecord {
    TraceRecord {
        t: SimTime::ZERO,
        machine: MachineId::new(0),
        process: ProcessId::new(0),
        origin: 0,
        seq: 0,
        attempt: 0,
        error_class: None,
        payload: Payload::Session {
            event: SessionEvent::Open,
            session: SessionId::new(0),
            user: UserId::new(0),
        },
    }
}

/// Rearranges the tail `records[base..]` so that its `i`-th record is the
/// one `order[i]` named, in place.
///
/// The tail is cut into blocks of [`BUFFER_FLUSH_THRESHOLD`] records. The
/// reorder writes its output a block at a time, each into a block none of
/// whose records is still to be taken, swapping every record it takes for
/// a filler; when no block is free, a filler block is pushed at the end.
/// While each run takes its positions front to back, it holds one
/// part-taken block of its own, and a block shared by two spans waits for
/// the later one, so about one filler block per run is needed (room for
/// one more than there are `sources`, the runs the order was merged from,
/// is reserved): a day of `month_1k` needs fewer, one of `month_wide`'s
/// ten runs 13 or 14. An order that jumps about, a run that had to be
/// sorted, may need many. Pushing them only when needed leaves the fewest
/// pages past the end touched. Last, whole-block swaps put the output
/// blocks in order, and the fillers are dropped.
///
/// Following the permutation's cycles record by record would need no
/// filler at all, but it reads the tail in random order.
fn apply_order(records: &mut Vec<TraceRecord>, base: usize, order: &[u32], sources: usize) {
    const BLOCK: usize = BUFFER_FLUSH_THRESHOLD;
    if order.iter().enumerate().all(|(i, &p)| p as usize == i) {
        return;
    }
    let n = order.len();
    let blocks = n.div_ceil(BLOCK);
    records.reserve_exact(base + (blocks + sources + 1) * BLOCK - records.len());
    records.resize_with(base + blocks * BLOCK, filler);
    // Records of each block still to be taken; the filler blocks hold none.
    let mut untaken: Vec<usize> = (0..blocks).map(|b| BLOCK.min(n - b * BLOCK)).collect();
    let mut free: Vec<usize> = Vec::new();

    // `home[j]`: the block that output block `j` was written into.
    let mut home: Vec<usize> = Vec::with_capacity(blocks);
    for out in order.chunks(BLOCK) {
        let block = free.pop().unwrap_or_else(|| {
            records.resize_with(records.len() + BLOCK, filler);
            untaken.push(0);
            untaken.len() - 1
        });
        let at = base + block * BLOCK;
        for (slot, &p) in out.iter().enumerate() {
            let p = p as usize;
            records.swap(at + slot, base + p);
            let source = p / BLOCK;
            untaken[source] -= 1;
            if untaken[source] == 0 {
                free.push(source);
            }
        }
        home.push(block);
    }

    // `held[b]`: the output block that block `b` holds, if any.
    let mut held: Vec<Option<usize>> = vec![None; untaken.len()];
    for (j, &b) in home.iter().enumerate() {
        held[b] = Some(j);
    }
    for j in 0..blocks {
        let b = home[j];
        if b == j {
            continue;
        }
        // Block `j` goes where output block `j` was, with whatever it held.
        let (lo, hi) = (base + j.min(b) * BLOCK, base + j.max(b) * BLOCK);
        let (front, back) = records.split_at_mut(hi);
        front[lo..lo + BLOCK].swap_with_slice(&mut back[..BLOCK]);
        held[b] = held[j];
        if let Some(displaced) = held[j] {
            home[displaced] = b;
        }
    }
    records.truncate(base + n);
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

/// One [`DirSink`] stripe: the day-rotated writers of the (machine,
/// process) pairs hashing to it, padded to a cache line.
type WriterStripe = CachePadded<Mutex<HashMap<(MachineId, ProcessId), DayWriter>>>;

/// Writes paper-style logfiles under a directory: one file per
/// (machine, process, day), rotated as simulated days advance. The writer
/// map is striped by (machine, process) so concurrent processes don't
/// contend on one global lock.
///
/// A stripe lock ([`Rank::LogWriters`]) is held across the file I/O of its
/// writers on purpose; it is what keeps three promises:
///
/// * **Log-line atomicity.** A span of whole serialized lines is written in
///   one `write_all` under the lock, so lines of processes sharing a stripe
///   never tear or interleave.
/// * **Day rotation.** The old day's writer is flushed and retired before
///   the stripe accepts a line for the new day.
/// * **Flush completeness.** [`TraceSink::flush`] drains each stripe under
///   its lock, so no line written before the call is missed.
///
/// I/O errors do not abort the process: the sink degrades by dropping that
/// (process, day)'s records, counting the failure in
/// [`DirSink::io_errors`] and keeping the first error message in
/// [`DirSink::first_io_error`] (a leaf lock, taken under the stripe).
pub struct DirSink {
    dir: PathBuf,
    stripes: Vec<WriterStripe>,
    /// Append `o=`/`q=` origin/sequence stamps to every line (see
    /// [`csvline::write_line_stamped`]). Off by default: plain mode emits
    /// the paper's exact logfile schema.
    stamped: bool,
    // Padded: this counter sits next to the stripe array and is bumped on
    // the degraded path while other threads stream through their stripes.
    io_errors: CachePadded<AtomicU64>,
    first_error: Mutex<Option<String>>,
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
            stripes: (0..STRIPES)
                .map(|_| CachePadded::new(Mutex::ranked(Rank::LogWriters, HashMap::new())))
                .collect(),
            stamped,
            io_errors: CachePadded::new(AtomicU64::new(0)),
            first_error: Mutex::new(None),
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
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(msg());
        }
    }

    /// The first I/O error observed, if any — enough to diagnose a
    /// misconfigured trace directory without aborting a multi-hour run.
    pub fn first_io_error(&self) -> Option<String> {
        self.first_error.lock().clone()
    }

    fn stripe_of(machine: MachineId, process: ProcessId) -> usize {
        // Fibonacci-hash the (machine, process) pair and take high bits:
        // the old `machine*31 + process % STRIPES` folded the paper's small
        // dense machine/process ids onto a handful of stripes (collisions
        // between concurrent processes serialize their writers). The
        // multiplicative mix spreads dense ids uniformly.
        let key = ((machine.raw() as u64) << 32) | process.raw() as u64;
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 58) as usize % STRIPES
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
        let mut writers = self.stripes[Self::stripe_of(machine, process)].lock();
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
        for stripe in &self.stripes {
            for (_, slot) in stripe.lock().iter_mut() {
                if let Some(w) = &mut slot.1 {
                    if let Err(e) = w.flush() {
                        slot.1 = None;
                        self.note_io_error(|| format!("flush trace logfile: {e}"));
                    }
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
    fn seal_before_settles_everything_below_the_bound() {
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

        sink.seal_before(bound);
        assert_eq!(sink.len(), total, "a seal moves records, it drops none");
        let settled = {
            let store = sink.store.lock();
            let (prefix, tail) = store.records.split_at(store.settled);
            assert!(prefix.iter().all(|r| r.t < bound));
            assert!(prefix
                .windows(2)
                .all(|w| merge_key(&w[0]) <= merge_key(&w[1])));
            assert!(tail.iter().all(|r| r.t >= bound));
            // What is left is described origin by origin.
            assert_eq!(store.spans, vec![(1, 6), (3, 1)]);
            store.settled
        };
        // t = seq / 100 < 41 for origin 1's first 4100 records.
        assert_eq!(settled, 4100 + 5);
        // Sealing again, at the same bound or at none yet reached, is a no-op.
        sink.seal_before(bound);
        sink.seal_before(SimTime::ZERO);
        assert_eq!(sink.store.lock().settled, settled);
        assert_eq!(sink.late_records(), 0);

        let recs = sink.take_sorted();
        let mut expect = keys(&recs);
        expect.sort();
        assert_eq!(keys(&recs), expect);
        assert_eq!(recs.len(), total);
        assert!(sink.is_empty());
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
        assert_eq!(inner.store.lock().settled, 60);
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
