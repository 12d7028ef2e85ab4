//! Trace sinks: where running server processes emit their records.
//!
//! [`TraceSink`] is the seam: `record` and its batch forms take records in,
//! `flush` / `flush_origin` push buffered ones on, and `seal_before` passes
//! down the producer's promise that everything below a timestamp has been
//! emitted. [`BufferedSink`] fills one chunk per origin in front of any
//! other sink. [`MemorySink`] keeps the trace in memory — per-origin runs
//! of chunks, merged into one canonical prefix seal by seal, so a month
//! sealed by day holds one copy of its trace — and hands it over in
//! canonical `(t, origin, seq)` order. [`DirSink`] writes the paper's
//! logfiles, one per (machine, process, day), a buffer of whole lines per
//! write. [`NullSink`] drops everything.

use crate::csvline;
use crate::event::TraceRecord;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use u1_core::sync::{Mutex, Rank};
use u1_core::{CachePadded, MachineId, ProcessId, SimTime};

/// Stripe count used by the lock-sharded sinks below. Origins (driver
/// partitions) and (machine, process) pairs are spread across this many
/// independent locks so concurrent emitters rarely contend.
///
/// Origin-keyed sinks ([`MemorySink`], [`BufferedSink`]) stripe by
/// `origin % STRIPES`; origins are small dense integers (one per metastore
/// shard plus the coordinator — 11 by default), so 32 stripes is a perfect
/// collision-free partition up to 32 driver partitions. Each stripe lock is
/// additionally padded to its own cache line: a mutex plus a
/// `Vec` header is well under 64 bytes, so unpadded neighbours would
/// false-share a line between workers even when their locks never collide.
const STRIPES: usize = 32;

/// Records per chunk: [`BufferedSink`] fills a chunk of exactly this
/// capacity per origin and hands it on when full (callers still flush
/// explicitly at day boundaries), and [`MemorySink`] opens chunks of the
/// same size for records that arrive one at a time.
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
    /// On return `run` is empty. A sink that leaves its allocation in place
    /// (the default, which delegates to [`TraceSink::record_batch_owned`])
    /// lets the caller fill the same buffer again; a sink that stores runs
    /// (like [`MemorySink`]) takes the whole vector instead of re-pushing
    /// record by record.
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
    /// own partitions' day buffers in parallel *before* parking at the day
    /// barrier, instead of the coordinator draining every origin serially
    /// while all workers wait.
    fn flush_origin(&self, origin: u32) {
        let _ = origin;
    }

    /// The producer's promise that no record with `t < before` will arrive
    /// any more (the driver makes it at every day barrier). A sink that
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

/// One origin's records in arrival order, as a list of chunks, none of
/// them empty. Each driver partition emits `(t, seq)`-monotonically, so a run
/// is naturally sorted unless the producer bypassed the partition clock
/// (legacy single-threaded emitters, tests).
type ChunkedRun = Vec<Vec<TraceRecord>>;

/// The settled part of the trace: what the seals so far have merged out of
/// the per-origin runs.
#[derive(Debug, Default)]
struct Sealed {
    /// In canonical `(t, origin, seq)` order as long as `late` is zero.
    prefix: Vec<TraceRecord>,
    /// Records a seal merged in below the key the prefix already ended on:
    /// a producer broke its [`TraceSink::seal_before`] promise.
    late: u64,
}

/// Collects records in memory, for analyses that skip the logfile round
/// trip. Records wait as one chunked run per origin (striped by origin so
/// concurrent driver partitions don't serialize on one lock): a run handed
/// over by [`BufferedSink`] becomes the origin's next chunk as it is, so a
/// record is written once, where it was buffered.
///
/// [`TraceSink::seal_before`] moves it once more: everything below the bound
/// is merged out of the runs onto the end of a canonical prefix, and the
/// chunks it came from go back to the allocator, where the next day's chunks
/// find them. A month sealed day by day therefore holds one copy of its
/// trace plus a day of chunks, and `take_sorted` — "seal everything, take
/// the prefix" — has one day left to merge. A sink that is never sealed
/// does the whole merge there, into a vector of fresh pages beside the full
/// set of runs.
///
/// Lock order: `sealed` ([`Rank::SealedPrefix`]), then a stripe.
#[derive(Debug)]
pub struct MemorySink {
    stripes: Vec<CachePadded<Mutex<PerOrigin<ChunkedRun>>>>,
    sealed: Mutex<Sealed>,
}

impl Default for MemorySink {
    fn default() -> Self {
        Self {
            stripes: (0..STRIPES)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
            sealed: Mutex::ranked(Rank::SealedPrefix, Sealed::default()),
        }
    }
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        // Held across the stripes so a concurrent seal cannot be seen half
        // way, its records in neither place.
        let sealed = self.sealed.lock();
        let mut len = sealed.prefix.len();
        for stripe in &self.stripes {
            let runs = stripe.lock();
            len += runs
                .iter()
                .flat_map(|(_, run)| run)
                .map(Vec::len)
                .sum::<usize>();
        }
        len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records since the last `take_sorted` that arrived below a bound
    /// already sealed. They come out of `take_sorted` in their canonical
    /// place all the same, at the price of one sort of the whole trace.
    pub fn late_records(&self) -> u64 {
        self.sealed.lock().late
    }

    /// Appends one record to a run: into the last chunk while it has room,
    /// else into a fresh chunk (never regrowing one).
    fn push(run: &mut ChunkedRun, rec: TraceRecord) {
        match run.last_mut() {
            Some(last) if last.len() < last.capacity() => last.push(rec),
            _ => {
                let mut chunk = Vec::with_capacity(BUFFER_FLUSH_THRESHOLD);
                chunk.push(rec);
                run.push(chunk);
            }
        }
    }

    /// Merges every record below `before` (every record for `None`) out of
    /// the runs onto the end of the prefix.
    ///
    /// Each run is monotonic in `(t, seq)` (verified, and stable-sorted if
    /// a producer emitted out of order), so the k-way merge of the runs'
    /// heads is exactly what a stable sort of those records by
    /// `(t, origin, seq)` would produce: full keys collide only within one
    /// origin's legacy `(0, 0)`-stamped records, whose emission order both
    /// preserve. If no record below an earlier bound has arrived since, it
    /// also starts at or above the key the prefix ends on.
    fn seal(&self, sealed: &mut Sealed, before: Option<SimTime>) {
        let mut heads: Vec<ChunkedRun> = Vec::new();
        for stripe in &self.stripes {
            for (_, run) in stripe.lock().iter_mut() {
                let head = split_head(run, before);
                if !head.is_empty() {
                    heads.push(head);
                }
            }
        }
        let settled = sealed.prefix.len();
        merge_runs_into(heads, &mut sealed.prefix);
        let (old, new) = sealed.prefix.split_at(settled);
        if let Some(end) = old.last().map(merge_key) {
            sealed.late += new.partition_point(|r| merge_key(r) < end) as u64;
        }
    }

    /// Drains and returns all records in canonical order: sorted by
    /// `(t, origin, seq)`, ties in the order they were recorded — what a
    /// stable sort of everything recorded would give. The prefix is that
    /// already unless a record arrived late; equal keys sit in it in
    /// arrival order either way (a later seal's records arrived after the
    /// earlier seal, or they would have been part of it), so one stable
    /// sort repairs it.
    pub fn take_sorted(&self) -> Vec<TraceRecord> {
        let Sealed { mut prefix, late } = {
            let mut sealed = self.sealed.lock();
            self.seal(&mut sealed, None);
            std::mem::take(&mut *sealed)
        };
        if late > 0 {
            prefix.sort_by_key(merge_key);
        }
        prefix
    }
}

impl TraceSink for MemorySink {
    fn record(&self, rec: TraceRecord) {
        let origin = u32::from(rec.origin);
        let stripe = origin as usize % self.stripes.len();
        let mut runs = self.stripes[stripe].lock();
        Self::push(origin_slot(&mut runs, origin), rec);
    }

    fn record_batch_owned(&self, recs: &mut Vec<TraceRecord>) {
        // Take each contiguous same-origin span under one lock acquisition.
        let mut drained = recs.drain(..).peekable();
        while let Some(rec) = drained.next() {
            let origin = rec.origin;
            let stripe = usize::from(origin) % self.stripes.len();
            let mut runs = self.stripes[stripe].lock();
            let run = origin_slot(&mut runs, u32::from(origin));
            Self::push(run, rec);
            while let Some(next) = drained.next_if(|r| r.origin == origin) {
                Self::push(run, next);
            }
        }
    }

    fn record_run(&self, origin: u32, recs: &mut Vec<TraceRecord>) {
        if recs.is_empty() {
            return;
        }
        // The vector itself becomes the origin's next chunk: a pointer move
        // under one lock acquisition. A partly filled buffer (a day-boundary
        // flush) gives its unused tail back first.
        let mut chunk = std::mem::take(recs);
        chunk.shrink_to_fit();
        let stripe = origin as usize % self.stripes.len();
        let mut runs = self.stripes[stripe].lock();
        origin_slot(&mut runs, origin).push(chunk);
    }

    fn seal_before(&self, before: SimTime) {
        self.seal(&mut self.sealed.lock(), Some(before));
    }
}

/// Takes the records below `before` (all of them for `None`) off the front
/// of `run`. The run is put back into `(t, seq)` order first if its producer
/// emitted out of it, so what is taken is a sorted run and the bound falls at
/// one point: whole chunks up to it, then a `partition_point` in the one
/// chunk it divides.
fn split_head(run: &mut ChunkedRun, before: Option<SimTime>) -> ChunkedRun {
    let mut keys = run.iter().flatten().map(|r| (r.t, r.seq));
    let mut prev = keys.next();
    let sorted = keys.all(|key| {
        let in_order = prev <= Some(key);
        prev = Some(key);
        in_order
    });
    if !sorted {
        let mut flat: Vec<TraceRecord> = std::mem::take(run).into_iter().flatten().collect();
        flat.sort_by_key(|r| (r.t, r.seq));
        run.push(flat);
    }
    let Some(before) = before else {
        return std::mem::take(run);
    };
    let whole = run.partition_point(|chunk| chunk.last().is_some_and(|r| r.t < before));
    let mut head: ChunkedRun = run.drain(..whole).collect();
    if let Some(divided) = run.first_mut() {
        let at = divided.partition_point(|r| r.t < before);
        if at > 0 {
            let rest = divided.split_off(at);
            head.push(std::mem::replace(divided, rest));
        }
    }
    head
}

/// Merge key for the k-way merge: the canonical `(t, origin, seq)` order.
type MergeKey = (SimTime, u16, u64);

fn merge_key(rec: &TraceRecord) -> MergeKey {
    (rec.t, rec.origin, rec.seq)
}

/// Read position in one run during the merge. Chunks are freed as they are
/// used up, so the merged output and its input never both exist in full.
struct RunCursor {
    chunks: std::vec::IntoIter<Vec<TraceRecord>>,
    current: std::vec::IntoIter<TraceRecord>,
}

impl RunCursor {
    fn new(run: ChunkedRun) -> Self {
        Self {
            chunks: run.into_iter(),
            current: Vec::new().into_iter(),
        }
    }

    /// Key of the next record, stepping into the next chunk when the
    /// current one is used up; `None` at the end of the run.
    fn head_key(&mut self) -> Option<MergeKey> {
        while self.current.as_slice().is_empty() {
            self.current = self.chunks.next()?.into_iter();
        }
        self.current.as_slice().first().map(merge_key)
    }
}

/// K-way merges per-origin runs, each sorted by `(t, seq)`, onto the end of
/// `out` in `(t, origin, seq)` order. Records of different runs never share
/// a full key (the key includes the origin), so the merge is deterministic.
///
/// The merge gallops: the run with the smallest head keeps emitting until
/// its next key passes the runner-up's head, so the heap is touched once
/// per such stretch instead of once per record. An operation emits its
/// handful of records at one `(t, origin)`, and between two operations of
/// one shard the other shards have usually emitted nothing earlier, so
/// stretches are several records long.
fn merge_runs_into(mut runs: Vec<ChunkedRun>, out: &mut Vec<TraceRecord>) {
    if out.is_empty() && runs.len() == 1 && runs[0].len() == 1 {
        *out = runs.pop().and_then(|mut run| run.pop()).unwrap_or_default();
        return;
    }
    out.reserve(runs.iter().flatten().map(Vec::len).sum());
    let mut cursors: Vec<RunCursor> = runs.into_iter().map(RunCursor::new).collect();
    let mut heap: BinaryHeap<Reverse<(MergeKey, usize)>> = BinaryHeap::with_capacity(cursors.len());
    for (i, cursor) in cursors.iter_mut().enumerate() {
        if let Some(key) = cursor.head_key() {
            heap.push(Reverse((key, i)));
        }
    }
    while let Some(Reverse((_, i))) = heap.pop() {
        let bound = heap.peek().map(|Reverse((key, _))| *key);
        let cursor = &mut cursors[i];
        let next = loop {
            out.extend(cursor.current.next());
            match cursor.head_key() {
                Some(key) if bound.is_none_or(|b| key < b) => {}
                next => break next,
            }
        };
        if let Some(key) = next {
            heap.push(Reverse((key, i)));
        }
    }
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
        // Three origins, interleaved timestamps; origin 33 shares stripe 1
        // with origin 1, exercising the per-stripe multi-run path.
        for (t, origin, seq) in [
            (5u64, 1u16, 0u64),
            (9, 1, 1),
            (9, 33, 0),
            (12, 33, 1),
            (3, 2, 0),
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
            let sealed = sink.sealed.lock();
            assert!(sealed.prefix.iter().all(|r| r.t < bound));
            assert!(sealed
                .prefix
                .windows(2)
                .all(|w| merge_key(&w[0]) <= merge_key(&w[1])));
            sealed.prefix.len()
        };
        // t = seq / 100 < 41 for origin 1's first 4100 records.
        assert_eq!(settled, 4100 + 5);
        for stripe in &sink.stripes {
            for (_, run) in stripe.lock().iter() {
                assert!(run.iter().flatten().all(|r| r.t >= bound));
            }
        }
        // Sealing again, at the same bound or at none yet reached, is a no-op.
        sink.seal_before(bound);
        sink.seal_before(SimTime::ZERO);
        assert_eq!(sink.sealed.lock().prefix.len(), settled);
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
        assert_eq!(inner.sealed.lock().prefix.len(), 60);
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
