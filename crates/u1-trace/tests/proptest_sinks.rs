//! Property tests for the in-memory trace path: whatever interleaving of
//! `record` / `record_run` / `record_batch` / `flush_origin` / `flush` /
//! `seal_before` a set of producers goes through, `MemorySink::take_sorted`
//! — bare or behind a `BufferedSink` — returns the stable sort by
//! `(t, origin, seq)` of everything recorded, `len()` is exact after every
//! call (a seal moves records, it drops none), and a `BufferedSink` delivers
//! each origin's records in emission order out of one allocation per chunk
//! at most. The records are `session` and `storage_done` lines, so boxed
//! payloads go through every split, merge and seal.
//!
//! The previous `MemorySink` — one flat `Vec` per origin filled by
//! `append`, merged one record per heap operation — lives on only here, as
//! the oracle.

use parking_lot::Mutex;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use u1_core::{
    ApiOpKind, ContentHash, MachineId, NodeId, NodeKind, ProcessId, SessionId, SimTime, UserId,
    VolumeId,
};
use u1_trace::{
    BufferedSink, MemorySink, Payload, SessionEvent, StorageDone, TraceRecord, TraceSink,
};

/// `BUFFER_FLUSH_THRESHOLD` of `sink.rs`: records per chunk. The `len()`
/// model below depends on it, so a drift shows up as a failure here.
const CHUNK: usize = 4096;

/// Run lengths around the chunk size.
const LENGTHS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1];

// ---------------------------------------------------------------------------
// Allocation counting: chunk-sized requests made by the current thread.
// ---------------------------------------------------------------------------

/// Anything a quarter of a chunk or larger. Growing a `Vec<TraceRecord>`
/// from nothing to a chunk by doubling makes three such requests; opening
/// it at its final size makes one.
const LARGE: usize = CHUNK / 4 * std::mem::size_of::<TraceRecord>();

thread_local! {
    static LARGE_REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note(size: usize) {
    if size >= LARGE {
        LARGE_REQUESTS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a live block of `System`'s,
        // as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// The oracle: the sink this crate had before chunks.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OracleSink {
    runs: Vec<(u16, Vec<TraceRecord>)>,
}

impl OracleSink {
    fn run_slot(&mut self, origin: u16) -> &mut Vec<TraceRecord> {
        let idx = match self.runs.iter().position(|(o, _)| *o == origin) {
            Some(i) => i,
            None => {
                self.runs.push((origin, Vec::new()));
                self.runs.len() - 1
            }
        };
        &mut self.runs[idx].1
    }

    fn record(&mut self, rec: TraceRecord) {
        self.run_slot(rec.origin).push(rec);
    }

    fn record_run(&mut self, origin: u16, recs: &mut Vec<TraceRecord>) {
        self.run_slot(origin).append(recs);
    }

    fn take_sorted(&mut self) -> Vec<TraceRecord> {
        let mut runs: Vec<Vec<TraceRecord>> = std::mem::take(&mut self.runs)
            .into_iter()
            .map(|(_, run)| run)
            .filter(|run| !run.is_empty())
            .collect();
        for run in &mut runs {
            let sorted = run
                .windows(2)
                .all(|w| (w[0].t, w[0].seq) <= (w[1].t, w[1].seq));
            if !sorted {
                run.sort_by_key(|r| (r.t, r.seq));
            }
        }
        oracle_merge_runs(runs)
    }
}

type MergeKey = (SimTime, u16, u64);

fn merge_key(rec: &TraceRecord) -> MergeKey {
    (rec.t, rec.origin, rec.seq)
}

/// One heap pop and one push per record.
fn oracle_merge_runs(runs: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let total = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<TraceRecord>> =
        runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<TraceRecord>> = Vec::with_capacity(iters.len());
    let mut heap: BinaryHeap<Reverse<(MergeKey, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        let head = it.next();
        if let Some(rec) = &head {
            heap.push(Reverse((merge_key(rec), i)));
        }
        heads.push(head);
    }
    while let Some(Reverse((_, i))) = heap.pop() {
        let next = iters[i].next();
        if let Some(rec) = &next {
            heap.push(Reverse((merge_key(rec), i)));
        }
        if let Some(rec) = std::mem::replace(&mut heads[i], next) {
            out.push(rec);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Producers.
// ---------------------------------------------------------------------------

/// How a producer stamps the records of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stamp {
    /// `(t, seq)` monotone per origin, several records per timestamp — a
    /// driver partition.
    Clocked,
    /// Sequence numbers still count up but timestamps jump backwards — a
    /// producer that bypassed the partition clock.
    BackInTime,
    /// Origin 0, sequence 0 on every record — an emitter without a
    /// partition context.
    Legacy,
}

/// One step of a generated history.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `len` calls of `record`.
    Records {
        origin: u16,
        len: usize,
        stamp: Stamp,
    },
    /// One `record_run` of `len` records.
    Run {
        origin: u16,
        len: usize,
        stamp: Stamp,
    },
    /// One borrowed `record_batch` of `len` records of origins
    /// `1..=origins`, interleaved in `(t, origin, seq)` order.
    Batch {
        origins: u16,
        len: usize,
        stamp: Stamp,
    },
    FlushOrigin {
        origin: u16,
    },
    Flush,
    /// One `seal_before`, at the bound `quarters / 4` of the way from the
    /// producers' first timestamp to their latest (never below the previous
    /// seal's): anywhere from "nothing yet" to "everything so far", as a
    /// rule inside some origin's chunk and below records already delivered.
    Seal {
        quarters: u64,
    },
}

fn arb_stamp() -> impl Strategy<Value = Stamp> {
    (0u8..8).prop_map(|roll| match roll {
        0 => Stamp::BackInTime,
        1 => Stamp::Legacy,
        _ => Stamp::Clocked,
    })
}

/// Steps over origins `1..=origins` (origin 0 is the legacy emitter's).
fn arb_step(origins: u16) -> impl Strategy<Value = Step> {
    let origin = (0..origins).prop_map(|o| o + 1);
    let len = (0usize..LENGTHS.len()).prop_map(|i| LENGTHS[i]);
    prop_oneof![
        (origin.clone(), len.clone(), arb_stamp()).prop_map(|(origin, len, stamp)| Step::Records {
            origin,
            len,
            stamp
        }),
        (origin.clone(), 0usize..40, arb_stamp()).prop_map(|(origin, len, stamp)| Step::Records {
            origin,
            len,
            stamp
        }),
        (origin.clone(), len.clone(), arb_stamp()).prop_map(|(origin, len, stamp)| Step::Run {
            origin,
            len,
            stamp
        }),
        (1..origins + 1, len, arb_stamp()).prop_map(|(origins, len, stamp)| Step::Batch {
            origins,
            len,
            stamp
        }),
        origin.prop_map(|origin| Step::FlushOrigin { origin }),
        Just(Step::Flush),
        // Twice: a seal as often as the two kinds of flush together.
        (0u64..5).prop_map(|quarters| Step::Seal { quarters }),
        (0u64..5).prop_map(|quarters| Step::Seal { quarters }),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<Step>> {
    (1u16..13).prop_flat_map(|origins| proptest::collection::vec(arb_step(origins), 1..14))
}

/// Mints the records of a history: per-origin clocks and sequence numbers,
/// and a serial in the payload so no two records are equal.
#[derive(Default)]
struct Producers {
    clock_us: Vec<u64>,
    next_seq: Vec<u64>,
    serial: u64,
}

/// Where every producer's clock starts.
const EPOCH_US: u64 = 1_000_000;

impl Producers {
    /// The timestamp `quarters / 4` of the way from the epoch to the latest
    /// clock.
    fn bound(&self, quarters: u64) -> SimTime {
        let latest = self.clock_us.iter().copied().max().unwrap_or(EPOCH_US);
        SimTime::from_micros(EPOCH_US + (latest - EPOCH_US) * quarters / 4)
    }

    fn mint(&mut self, origin: u16, stamp: Stamp) -> TraceRecord {
        let slot = usize::from(origin);
        if self.clock_us.len() <= slot {
            self.clock_us.resize(slot + 1, EPOCH_US);
            self.next_seq.resize(slot + 1, 0);
        }
        self.serial += 1;
        // A handful of records per timestamp, like the records of one op.
        if self.serial.is_multiple_of(5) {
            self.clock_us[slot] += 1 + self.serial % 900;
        }
        let t = match stamp {
            Stamp::Clocked | Stamp::Legacy => self.clock_us[slot],
            Stamp::BackInTime => self.clock_us[slot] / (2 + self.serial % 3),
        };
        let (session, user) = (SessionId::new(self.serial), UserId::new(u64::from(origin)));
        // Two records in three are `storage_done`: one with a hash and an
        // extension, one with neither.
        let payload = match self.serial % 3 {
            0 => Payload::Session {
                event: SessionEvent::Open,
                session,
                user,
            },
            full => Payload::Storage(Box::new(StorageDone {
                op: ApiOpKind::Upload,
                session,
                user,
                volume: VolumeId::new(0),
                node: Some(NodeId::new(self.serial)),
                kind: Some(NodeKind::File),
                size: self.serial * 10,
                hash: (full == 1).then(|| ContentHash::from_content_id(self.serial)),
                ext: u1_core::Ext::new(if full == 1 { "jpg" } else { "" }),
                success: true,
                duration_us: 5,
            })),
        };
        let mut rec = TraceRecord::new(
            SimTime::from_micros(t),
            MachineId::new(0),
            ProcessId::new(0),
            payload,
        );
        if stamp == Stamp::Legacy {
            (rec.origin, rec.seq) = (0, 0);
        } else {
            (rec.origin, rec.seq) = (origin, self.next_seq[slot]);
            self.next_seq[slot] += 1;
        }
        rec
    }

    /// `len` records of origins `1..=origins` in turn, in canonical order.
    fn batch(&mut self, origins: u16, len: usize, stamp: Stamp) -> Vec<TraceRecord> {
        let mut batch: Vec<TraceRecord> = (0..len)
            .map(|i| self.mint(1 + i as u16 % origins, stamp))
            .collect();
        batch.sort_by_key(merge_key);
        batch
    }
}

/// What a `BufferedSink` has handed to its inner sink: full chunks as they
/// fill, the rest at flushes.
#[derive(Default)]
struct DeliveryModel {
    pending: Vec<usize>,
    delivered: usize,
}

impl DeliveryModel {
    fn record(&mut self, origin: u16) {
        let slot = usize::from(origin);
        if self.pending.len() <= slot {
            self.pending.resize(slot + 1, 0);
        }
        self.pending[slot] += 1;
        if self.pending[slot] == CHUNK {
            self.flush_origin(origin);
        }
    }

    fn flush_origin(&mut self, origin: u16) {
        if let Some(p) = self.pending.get_mut(usize::from(origin)) {
            self.delivered += std::mem::take(p);
        }
    }

    fn flush(&mut self) {
        self.delivered += self.pending.drain(..).sum::<usize>();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn take_sorted_is_the_stable_canonical_sort_of_everything_recorded(history in arb_history()) {
        let bare = MemorySink::new();
        let inner = Arc::new(MemorySink::new());
        let buffered = BufferedSink::new(Arc::clone(&inner));
        let mut oracle = OracleSink::default();
        let mut producers = Producers::default();
        let mut model = DeliveryModel::default();
        let mut everything: Vec<TraceRecord> = Vec::new();
        let mut sealed_before = SimTime::ZERO;

        for step in history {
            match step {
                Step::Records { origin, len, stamp } => {
                    for _ in 0..len {
                        let rec = producers.mint(origin, stamp);
                        model.record(rec.origin);
                        bare.record(rec.clone());
                        buffered.record(rec.clone());
                        oracle.record(rec.clone());
                        everything.push(rec);
                    }
                }
                Step::Run { origin, len, stamp } => {
                    // A run is single-origin, so a legacy run goes to
                    // origin 0 as a whole.
                    let run: Vec<TraceRecord> =
                        (0..len).map(|_| producers.mint(origin, stamp)).collect();
                    let run_origin = if stamp == Stamp::Legacy { 0 } else { origin };
                    for rec in &run {
                        model.record(rec.origin);
                    }
                    bare.record_run(u32::from(run_origin), &mut run.clone());
                    buffered.record_run(u32::from(run_origin), &mut run.clone());
                    oracle.record_run(run_origin, &mut run.clone());
                    everything.extend(run);
                }
                Step::Batch { origins, len, stamp } => {
                    let batch = producers.batch(origins, len, stamp);
                    // A buffered sink delivers what it holds, then the batch.
                    model.flush();
                    model.delivered += batch.len();
                    bare.record_batch(&batch);
                    buffered.record_batch(&batch);
                    batch.iter().for_each(|rec| oracle.record(rec.clone()));
                    everything.extend(batch);
                }
                Step::FlushOrigin { origin } => {
                    model.flush_origin(origin);
                    bare.flush_origin(u32::from(origin));
                    buffered.flush_origin(u32::from(origin));
                }
                Step::Flush => {
                    model.flush();
                    bare.flush();
                    buffered.flush();
                }
                Step::Seal { quarters } => {
                    // Bounds never go back, though they may repeat. A
                    // `BackInTime` or `Legacy` record emitted after this
                    // may lie below it all the same: the sinks must cope.
                    sealed_before = sealed_before.max(producers.bound(quarters));
                    // A buffered sink delivers what it holds, then forwards.
                    model.flush();
                    bare.seal_before(sealed_before);
                    buffered.seal_before(sealed_before);
                }
            }
            prop_assert_eq!(bare.len(), everything.len());
            prop_assert_eq!(inner.len(), model.delivered);
        }
        buffered.flush();
        prop_assert_eq!(inner.len(), everything.len());

        // `sort_by_key` is stable: equal keys (one origin's legacy records)
        // keep the order they were recorded in.
        everything.sort_by_key(merge_key);
        let from_oracle = oracle.take_sorted();
        prop_assert!(from_oracle == everything, "the old sink disagrees with the stable sort");
        let from_bare = bare.take_sorted();
        prop_assert!(from_bare == everything, "bare MemorySink: wrong order or content");
        let from_buffered = inner.take_sorted();
        prop_assert!(from_buffered == everything, "BufferedSink<MemorySink>: wrong order or content");

        prop_assert!(bare.take_sorted().is_empty());
        prop_assert!(inner.take_sorted().is_empty());
        prop_assert_eq!((bare.len(), inner.len()), (0, 0));
        prop_assert!(bare.is_empty());
    }
}

/// A producer that breaks its promise: after a seal it emits a record below
/// the bound. The sink counts it and `take_sorted` still returns the
/// canonical order — per record and through a `BufferedSink`.
#[test]
fn a_record_below_an_earlier_seal_still_comes_out_in_canonical_order() {
    for through_buffer in [false, true] {
        let inner = Arc::new(MemorySink::new());
        let buffered = BufferedSink::new(Arc::clone(&inner));
        let sink: &dyn TraceSink = if through_buffer { &buffered } else { &*inner };
        let mut producers = Producers::default();
        let mut everything: Vec<TraceRecord> = Vec::new();
        let mut emit = |producers: &mut Producers, origin, len, stamp| {
            for _ in 0..len {
                let rec = producers.mint(origin, stamp);
                sink.record(rec.clone());
                everything.push(rec);
            }
        };

        emit(&mut producers, 1, CHUNK + 7, Stamp::Clocked);
        emit(&mut producers, 2, 40, Stamp::Clocked);
        sink.seal_before(producers.bound(2));
        assert_eq!(inner.late_records(), 0);
        // `BackInTime` halves the clock at least: far below the bound, which
        // origin 1's clock (the latest) has passed.
        emit(&mut producers, 1, 1, Stamp::BackInTime);
        emit(&mut producers, 1, 300, Stamp::Clocked);
        sink.seal_before(producers.bound(4));
        assert_eq!(inner.late_records(), 1);
        emit(&mut producers, 1, 9, Stamp::Clocked);
        sink.flush();

        assert_eq!(inner.len(), everything.len());
        everything.sort_by_key(merge_key);
        assert!(
            inner.take_sorted() == everything,
            "through_buffer={through_buffer}"
        );
        assert_eq!(inner.late_records(), 0);
    }
}

// ---------------------------------------------------------------------------
// BufferedSink over a sink that only looks at what it is handed.
// ---------------------------------------------------------------------------

/// Checks each run and each batch as it arrives — a run single-origin, and
/// in both every sequence number the one after its origin's previous — and
/// drains runs, leaving the allocation with the caller like the default
/// `record_run` does. Holds no records, so it allocates nothing itself.
#[derive(Default)]
struct CheckingSink {
    state: Mutex<CheckingState>,
}

#[derive(Default)]
struct CheckingState {
    next_seq: [u64; 16],
    records: usize,
    runs: usize,
    largest_run: usize,
    problem: Option<String>,
}

impl CheckingState {
    /// `rec` arrives as part of a delivery for `origin`.
    fn check(&mut self, origin: u32, rec: &TraceRecord) {
        let expected = self.next_seq[origin as usize];
        if (u32::from(rec.origin), rec.seq) != (origin, expected) && self.problem.is_none() {
            self.problem = Some(format!(
                "origin {origin}: got ({}, {}) where seq {expected} was due",
                rec.origin, rec.seq
            ));
        }
        self.next_seq[origin as usize] = rec.seq + 1;
        self.records += 1;
    }
}

impl TraceSink for CheckingSink {
    fn record(&self, rec: TraceRecord) {
        self.record_run(u32::from(rec.origin), &mut vec![rec]);
    }

    fn record_run(&self, origin: u32, run: &mut Vec<TraceRecord>) {
        let mut s = self.state.lock();
        s.runs += 1;
        s.largest_run = s.largest_run.max(run.len());
        for rec in run.drain(..) {
            s.check(origin, &rec);
        }
    }

    fn record_batch(&self, recs: &[TraceRecord]) {
        let mut s = self.state.lock();
        for rec in recs {
            s.check(u32::from(rec.origin), rec);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn buffered_sink_delivers_in_emission_order_from_one_allocation_per_chunk(
        origins in 1u16..13,
        steps in proptest::collection::vec((0u16..12, 0usize..LENGTHS.len(), 0u8..10), 1..14),
    ) {
        let checking = Arc::new(CheckingSink::default());
        let buffered = BufferedSink::new(Arc::clone(&checking));
        let mut producers = Producers::default();
        let mut recorded = 0usize;
        let mut origins_seen = std::collections::BTreeSet::new();

        let before = LARGE_REQUESTS.with(Cell::get);
        // Chunk-sized requests the test makes itself, minting batches.
        let mut minting = 0;
        for (origin, len, action) in steps {
            let origin = origin % origins + 1;
            match action {
                0 => buffered.flush_origin(u32::from(origin)),
                1 => buffered.flush(),
                2 => {
                    let mark = LARGE_REQUESTS.with(Cell::get);
                    let batch = producers.batch(origin, LENGTHS[len], Stamp::Clocked);
                    minting += LARGE_REQUESTS.with(Cell::get) - mark;
                    buffered.record_batch(&batch);
                    recorded += batch.len();
                }
                _ => {
                    for _ in 0..LENGTHS[len] {
                        buffered.record(producers.mint(origin, Stamp::Clocked));
                    }
                    recorded += LENGTHS[len];
                    if LENGTHS[len] > 0 {
                        origins_seen.insert(origin);
                    }
                }
            }
        }
        buffered.flush();
        let large_requests = LARGE_REQUESTS.with(Cell::get) - before - minting;

        let state = checking.state.lock();
        prop_assert!(state.problem.is_none(), "{:?}", state.problem);
        prop_assert_eq!(state.records, recorded);
        prop_assert!(state.largest_run <= CHUNK, "a run of {} records", state.largest_run);
        // The inner sink drains what it is handed, so an origin fills the
        // one chunk it opened over and over: never more than one
        // allocation per chunk's worth of records, and none per flush or
        // batch — a batch is passed on, not copied into chunks.
        prop_assert!(
            large_requests <= origins_seen.len() as u64,
            "{large_requests} chunk-sized allocations for {} origins, {recorded} records in {} runs",
            origins_seen.len(),
            state.runs
        );
    }
}

/// The other side of the hand-off: a `MemorySink` keeps every chunk it is
/// handed, so the buffer opens a new one each time — at its final size.
#[test]
fn chunks_handed_to_a_memory_sink_are_allocated_once_each() {
    let inner = Arc::new(MemorySink::new());
    let buffered = BufferedSink::new(Arc::clone(&inner));
    let mut producers = Producers::default();
    let total = 5 * CHUNK + 17;
    let before = LARGE_REQUESTS.with(Cell::get);
    for _ in 0..total {
        buffered.record(producers.mint(3, Stamp::Clocked));
    }
    buffered.flush();
    let large_requests = LARGE_REQUESTS.with(Cell::get) - before;
    assert_eq!(inner.len(), total);
    // Six chunks opened (five filled, one flushed part-full); shrinking the
    // last one to fit does not count, it is far below a quarter chunk.
    assert_eq!(large_requests, 6);
}
