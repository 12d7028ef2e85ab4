//! Process-memory instrumentation for the bench bins: kernel-reported peak
//! RSS (`VmHWM`) and an allocator-byte counter, so every committed bench
//! JSON records how much memory the run actually took.
//!
//! The two views are complementary: `VmHWM` is the whole process at its
//! high-water mark (heap + stacks + mapped files, what a container limit
//! sees), while the counting allocator tracks live heap bytes requested
//! through `Rust`'s global allocator — the number the arena/slab work in
//! this repo directly moves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Reads a `kB` field from `/proc/self/status`, scaled to bytes. Returns
/// `None` off Linux or if the field is missing.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Peak resident set size of this process so far (`VmHWM`), bytes. The
/// kernel only ever raises this — sample it once, at the end of the
/// measured work.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM")
}

static ALLOC_CURRENT: AtomicU64 = AtomicU64::new(0);
static ALLOC_PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: u64) {
    let live = ALLOC_CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    ALLOC_PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Live heap bytes currently allocated through [`CountingAlloc`]; 0 unless
/// the binary installed it as its `#[global_allocator]`.
pub fn alloc_current_bytes() -> u64 {
    ALLOC_CURRENT.load(Ordering::Relaxed)
}

/// High-water mark of [`alloc_current_bytes`] over the process lifetime.
pub fn alloc_peak_bytes() -> u64 {
    ALLOC_PEAK.load(Ordering::Relaxed)
}

/// A thin counting wrapper over the system allocator. Install per bench
/// binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: u1_bench::mem::CountingAlloc = u1_bench::mem::CountingAlloc;
/// ```
///
/// Overhead is two relaxed atomic ops per allocation — invisible next to
/// the allocation itself, but not free enough to force on non-bench users
/// of the lib.
pub struct CountingAlloc;

// SAFETY: every method delegates to `System` with unchanged arguments; the
// counter updates don't touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        ALLOC_CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                note_alloc(new - old);
            } else {
                ALLOC_CURRENT.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}
