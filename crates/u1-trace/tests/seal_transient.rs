//! What a seal costs in memory beside the trace it settles.
//!
//! `MemorySink::seal_before` settles a day in place: besides the store it
//! may hold an order of the unsettled records (a `u32` each, plus per-origin
//! position lists if a run must be sorted) and a few blocks of
//! `BUFFER_FLUSH_THRESHOLD` records, one per origin and two more. A seal
//! that merged the day into fresh memory while its input was still live
//! would hold a second copy of the day, 48 bytes per record; this test
//! fails it. It feeds a month-shaped trace: eleven origins, each a driver
//! partition emitting a `(t, seq)`-sorted run through a `BufferedSink` in
//! chunks, over two days that are sealed as the driver seals them.
//!
//! The allocator below counts the live heap of the whole process and its
//! peak, so this binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use u1_core::{MachineId, ProcessId, SessionId, SimTime, UserId};
use u1_trace::{BufferedSink, MemorySink, Payload, SessionEvent, TraceRecord, TraceSink};

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct PeakAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics, so
// touching them never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` describe a live block of `System`'s,
        // as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Driver partitions: ten shards and the coordinator.
const ORIGINS: u16 = 11;

/// `BUFFER_FLUSH_THRESHOLD` of `sink.rs`: records per chunk and per block.
const BLOCK: usize = 4096;

/// Operations each origin runs per day, of four or five records each:
/// about 238,000 records a day over the eleven origins.
const OPS_PER_DAY: u64 = 5_000;

const DAY_US: u64 = 86_400_000_000;

/// A session record of `origin` at `t_us`, stamped with its sequence
/// number: no heap, so the live heap is the sink's own.
fn rec(t_us: u64, origin: u16, seq: u64) -> TraceRecord {
    let mut r = TraceRecord::new(
        SimTime::from_micros(t_us),
        MachineId::new(0),
        ProcessId::new(origin),
        Payload::Session {
            event: SessionEvent::Open,
            session: SessionId::new(seq),
            user: UserId::new(u64::from(origin)),
        },
    );
    (r.origin, r.seq) = (origin, seq);
    r
}

#[test]
fn a_seal_holds_no_second_copy_of_the_day() {
    let sink = Arc::new(MemorySink::new());
    let buffered = BufferedSink::new(Arc::clone(&sink));
    let mut next_seq = [0u64; ORIGINS as usize];
    let record_bytes = std::mem::size_of::<TraceRecord>() as i64;

    for day in 0..2u64 {
        // The origins take turns, an operation of four or five records at
        // a time, each at its own pace through the day.
        let start = day * DAY_US;
        let mut unsettled = 0i64;
        for op in 0..OPS_PER_DAY {
            for origin in 0..ORIGINS {
                let slot = usize::from(origin);
                let t = start + op * (DAY_US / OPS_PER_DAY) + u64::from(origin) * 1_000;
                let records = if (op + u64::from(origin)) % 3 == 0 {
                    5
                } else {
                    4
                };
                for _ in 0..records {
                    buffered.record(rec(t, origin, next_seq[slot]));
                    next_seq[slot] += 1;
                }
                unsettled += records as i64;
            }
        }
        for origin in 0..ORIGINS {
            buffered.flush_origin(u32::from(origin));
        }
        assert!(unsettled >= 200_000, "day {day}: {unsettled} records");

        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        buffered.seal_before(SimTime::from_micros(start + DAY_US));
        let transient = PEAK.load(Ordering::Relaxed) - before;
        let allowed = 8 * unsettled + (i64::from(ORIGINS) + 2) * BLOCK as i64 * record_bytes;
        assert!(
            transient <= allowed,
            "day {day}: the seal of {unsettled} records held {transient} bytes beside the \
             store, over {allowed} (8 B a record and {} blocks)",
            ORIGINS + 2
        );
    }
    let trace = sink.take_sorted();
    assert_eq!(trace.len() as u64, next_seq.iter().sum::<u64>());
    assert!(trace
        .windows(2)
        .all(|w| (w[0].t, w[0].origin, w[0].seq) < (w[1].t, w[1].origin, w[1].seq)));
}
