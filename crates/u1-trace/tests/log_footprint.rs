//! What a `MemorySink` holds: its per-origin logs, at most 24 B a record,
//! until `take_sorted`, whose peak is the output beside those logs and
//! nothing more than the merge's cursors and heap. The trace is the month
//! `seal_transient.rs` feeds: eleven origins, each a driver partition
//! emitting a `(t, seq)`-sorted run of four- and five-record operations
//! through a `BufferedSink`, over two days that are sealed as the driver
//! seals them.
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

/// Operations each origin runs per day, of four or five records each.
const OPS_PER_DAY: u64 = 5_000;

const DAY_US: u64 = 86_400_000_000;

/// Bytes a record may take in the logs, slack of their growth included.
const LOG_BYTES_PER_RECORD: i64 = 24;

/// What the merge may hold beside the output: a cursor and a heap entry
/// per segment, one segment per origin here.
const MERGE_BYTES_PER_ORIGIN: i64 = 256;

/// A session record of `origin` at `t_us`, stamped with its sequence
/// number: no heap, so the output is its records' 48 bytes each.
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
fn the_logs_hold_at_most_24_bytes_a_record_and_take_sorted_adds_only_its_output() {
    let empty = LIVE.load(Ordering::Relaxed);
    let sink = Arc::new(MemorySink::new());
    let mut next_seq = [0u64; ORIGINS as usize];
    {
        let buffered = BufferedSink::new(Arc::clone(&sink));
        for day in 0..2u64 {
            // The origins take turns, an operation of four or five records
            // at a time, each at its own pace through the day.
            let start = day * DAY_US;
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
                }
            }
            for origin in 0..ORIGINS {
                buffered.flush_origin(u32::from(origin));
            }
            buffered.seal_before(SimTime::from_micros(start + DAY_US));
        }
        // Dropping the buffer frees its chunks: what is left is the sink's.
    }
    let records = sink.len() as i64;
    assert_eq!(records as u64, next_seq.iter().sum::<u64>());
    assert!(records >= 400_000, "{records} records");
    let held = LIVE.load(Ordering::Relaxed) - empty;
    assert!(
        held <= LOG_BYTES_PER_RECORD * records,
        "the sink holds {held} bytes for {records} records, over {LOG_BYTES_PER_RECORD} B each"
    );

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let trace = sink.take_sorted();
    let peak = PEAK.load(Ordering::Relaxed) - empty;
    let output = (trace.capacity() * std::mem::size_of::<TraceRecord>()) as i64;
    assert_eq!(trace.len() as i64, records);
    assert_eq!(trace.capacity(), trace.len(), "the output is sized exactly");
    let allowed = held + output + MERGE_BYTES_PER_ORIGIN * i64::from(ORIGINS);
    assert!(
        peak <= allowed,
        "take_sorted peaked at {peak} bytes, over {allowed}: the {held} held and the \
         {output}-byte output"
    );
    assert!(trace
        .windows(2)
        .all(|w| (w[0].t, w[0].origin, w[0].seq) < (w[1].t, w[1].origin, w[1].seq)));
}
