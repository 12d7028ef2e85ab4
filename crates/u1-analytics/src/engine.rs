//! The streaming fold/merge analytics engine.
//!
//! [`Battery`] is the one [`TraceFold`]: it folds every analysis of the
//! report from ONE decode of each record, and merges partial states from
//! disjoint contiguous chunks earlier←later (see the battery module and
//! DESIGN.md §10). It is the only implementation of the figures: every
//! statistic of the paper is a field of the [`EngineReport`] that
//! [`run_all`] returns. A test-only reference (`tests/oracle`) recomputes
//! each field from the paper's definitions, with no code in common.
//! [`run_all_chunked`] splits the record slice into contiguous chunks
//! (adaptively sized — see [`plan_chunk_count`]), folds each on its own
//! thread and tree-merges the partials in chunk order; the result is
//! exactly equal to the serial pass (see DESIGN.md §10 for the determinism
//! argument and §13 for the scaling model).

pub use crate::battery::Battery;
use crate::ddos::DdosReport;
use crate::dedup::DedupAnalysis;
use crate::dependencies::{DependencyAnalysis, LifetimeAnalysis};
use crate::faults::FaultAnalysis;
use crate::markov::TransitionGraph;
use crate::rpc::{LoadBalance, RpcAnalysis};
use crate::sessions::{AuthActivity, SessionAnalysis};
use crate::storage::{
    RwRatioAnalysis, SizeByExtension, SizeCategoryShares, TaxonomyShares, UpdateAnalysis,
};
use crate::summary::TraceSummary;
use crate::timeseries::{OnlineActiveSeries, TrafficSeries};
use crate::users::{ActiveOnlineSummary, ClassShares, OpMix, TrafficInequality};
use serde::Serialize;
use u1_core::SimTime;
use u1_trace::TraceRecord;

/// A streaming, mergeable analysis.
///
/// Laws the differential tests pin down:
/// * **battery == oracle**: every field of the [`Battery`]'s report
///   equals the test-only reference computed from the paper's
///   definitions, exactly or within a stated error bound.
/// * **merge is associative** and respects concatenation: for any split of
///   a sorted slice into contiguous chunks, folding each chunk into a
///   partial (from [`TraceFold::new_partial`]) and merging earlier←later
///   yields the same output as one serial pass.
pub trait TraceFold: Sized {
    type Output;

    /// An empty fold carrying the same configuration (horizon, op, …),
    /// suitable for folding one chunk of a larger stream.
    fn new_partial(&self) -> Self;

    /// Absorbs one record. Records must arrive in trace (timestamp-sorted
    /// slice) order within a chunk.
    fn feed(&mut self, rec: &TraceRecord);

    /// Absorbs the partial state of the chunk *immediately after* this
    /// one's. `self` is the earlier chunk.
    fn merge(&mut self, later: Self);

    /// Finalizes into the fold's output.
    fn finish(self) -> Self::Output;
}

/// The first and last value one entity showed within one chunk of the
/// trace: all a merge needs to see the pair that spans a chunk boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ends<T> {
    first: Option<T>,
    last: Option<T>,
}

impl<T> Default for Ends<T> {
    fn default() -> Self {
        Self {
            first: None,
            last: None,
        }
    }
}

impl<T: Copy> Ends<T> {
    /// Records `x`, returning the value it follows, if any.
    pub(crate) fn push(&mut self, x: T) -> Option<T> {
        let prev = self.last.replace(x);
        self.first = self.first.or(Some(x));
        prev
    }

    /// Appends the same entity's ends in the chunk after this one,
    /// returning the pair that spans the boundary, if any.
    pub(crate) fn join(&mut self, later: Ends<T>) -> Option<(T, T)> {
        let pair = self.last.zip(later.first);
        self.first = self.first.or(later.first);
        self.last = later.last.or(self.last);
        pair
    }
}

/// One serial pass: feed every record, then finish.
pub fn run_fold<F: TraceFold>(mut fold: F, records: &[TraceRecord]) -> F::Output {
    for rec in records {
        fold.feed(rec);
    }
    fold.finish()
}

/// Folds each chunk into a fresh partial and merges them left-to-right into
/// `seed`. Chunks must be contiguous pieces of one sorted slice, in order.
/// This is the serial reference for the chunk-parallel path and the
/// workhorse of the adversarial-split differential tests.
pub fn run_chunks<F: TraceFold>(mut seed: F, chunks: &[&[TraceRecord]]) -> F::Output {
    for chunk in chunks {
        let mut part = seed.new_partial();
        for rec in *chunk {
            part.feed(rec);
        }
        seed.merge(part);
    }
    seed.finish()
}

/// Floor on records per chunk: below this, thread spawn + merge overhead
/// dominates the fold work and the "parallel" run is slower than serial.
pub const MIN_CHUNK_RECORDS: usize = 4096;

/// Adaptive chunk count: at most one chunk per thread, but never so many
/// that a chunk falls under [`MIN_CHUNK_RECORDS`] records. Degenerate
/// requests (tiny traces, huge thread counts) collapse to 1 — a plain
/// serial fold with zero spawn overhead.
pub fn plan_chunk_count(len: usize, threads: usize) -> usize {
    threads.max(1).min((len / MIN_CHUNK_RECORDS).max(1))
}

/// Caps a requested thread count at the host's available parallelism:
/// more fold threads than cores never helps (each carries its own partial
/// battery state, so oversubscription just thrashes caches). Pure
/// scheduling — the merge law makes chunk count invisible in the output.
pub fn host_clamped(threads: usize) -> usize {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    threads.min(cpus)
}

/// Pairwise parallel reduction of chunk partials, in chunk order: rounds of
/// adjacent-pair merges `(0←1), (2←3), …` until one partial remains. The
/// merge law (associative, concat-respecting) makes this bit-identical to
/// the left-fold, but the depth is `log2(chunks)` instead of `chunks`, and
/// the pairs within a round merge concurrently.
pub fn tree_merge<F>(mut parts: Vec<F>) -> Option<F>
where
    F: TraceFold + Send,
{
    while parts.len() > 1 {
        // An odd trailing partial sits this round out and rejoins at the end,
        // so chunk order is preserved.
        let leftover = if parts.len() % 2 == 1 {
            parts.pop()
        } else {
            None
        };
        let mut pairs: Vec<(F, F)> = Vec::with_capacity(parts.len() / 2);
        let mut iter = parts.drain(..);
        while let (Some(earlier), Some(later)) = (iter.next(), iter.next()) {
            pairs.push((earlier, later));
        }
        drop(iter);
        let mut merged: Vec<F> = if pairs.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = pairs
                    .into_iter()
                    .map(|(mut earlier, later)| {
                        scope.spawn(move || {
                            earlier.merge(later);
                            earlier
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("merge worker panicked"))
                    .collect()
            })
        } else {
            pairs
                .into_iter()
                .map(|(mut earlier, later)| {
                    earlier.merge(later);
                    earlier
                })
                .collect()
        };
        merged.extend(leftover);
        parts = merged;
    }
    parts.pop()
}

/// Chunk-parallel run: splits `records` into contiguous chunks (see
/// [`plan_chunk_count`]), folds each on its own thread, tree-merges the
/// partials in chunk order. Output is exactly equal to [`run_fold`] at
/// every thread count.
pub fn run_chunked<F>(mut seed: F, records: &[TraceRecord], threads: usize) -> F::Output
where
    F: TraceFold + Send,
{
    let chunks = plan_chunk_count(records.len(), host_clamped(threads));
    if chunks <= 1 {
        return run_fold(seed, records);
    }
    let chunk_len = records.len().div_ceil(chunks);
    let partials: Vec<F> = std::thread::scope(|scope| {
        let handles: Vec<_> = records
            .chunks(chunk_len)
            .map(|chunk| {
                let mut part = seed.new_partial();
                scope.spawn(move || {
                    for rec in chunk {
                        part.feed(rec);
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fold worker panicked"))
            .collect()
    });
    if let Some(merged) = tree_merge(partials) {
        seed.merge(merged);
    }
    seed.finish()
}

/// Per-minute load-balance window of Fig. 14, minutes (the paper plots
/// 60).
pub const LB_MINUTES: usize = 60;

/// Extensions for the Fig. 4(b) size-by-extension curves.
pub const EXTS: [&str; 6] = ["jpg", "mp3", "pdf", "doc", "java", "zip"];

/// The trace's dimensions, which the full experiment battery takes as
/// inputs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Trace horizon (bins cover `[0, horizon)`).
    pub horizon: SimTime,
    /// API machines for the Fig. 14 load-balance grid.
    pub machines: usize,
    /// Metadata-store shards for the Fig. 14 load-balance grid.
    pub shards: usize,
}

impl EngineConfig {
    pub fn new(horizon: SimTime, machines: usize, shards: usize) -> Self {
        Self {
            horizon,
            machines,
            shards,
        }
    }
}

/// Everything the Table-3/figure battery needs, from one pass.
#[derive(Debug, Serialize)]
pub struct EngineReport {
    pub summary: TraceSummary,
    pub traffic: TrafficSeries,
    pub diurnal_swing: f64,
    pub online_active: OnlineActiveSeries,
    pub active_online: ActiveOnlineSummary,
    pub size_shares: SizeCategoryShares,
    pub rw: RwRatioAnalysis,
    pub updates: UpdateAnalysis,
    pub taxonomy: TaxonomyShares,
    pub size_by_ext: SizeByExtension,
    pub dedup: DedupAnalysis,
    pub dependencies: DependencyAnalysis,
    pub lifetimes: LifetimeAnalysis,
    pub ddos: DdosReport,
    pub op_mix: OpMix,
    pub inequality: TrafficInequality,
    pub class_shares: ClassShares,
    pub markov: TransitionGraph,
    pub burst_upload: crate::burstiness::Burstiness,
    pub burst_unlink: crate::burstiness::Burstiness,
    pub rpc: RpcAnalysis,
    pub load_balance: LoadBalance,
    pub auth: AuthActivity,
    pub sessions: SessionAnalysis,
    pub faults: FaultAnalysis,
}

/// One pass over the trace, all analyses at once.
pub fn run_all(records: &[TraceRecord], cfg: &EngineConfig) -> EngineReport {
    run_fold(Battery::new(cfg), records)
}

/// One chunk-parallel pass over the trace, all analyses at once.
pub fn run_all_chunked(
    records: &[TraceRecord],
    cfg: &EngineConfig,
    threads: usize,
) -> EngineReport {
    run_chunked(Battery::new(cfg), records, threads)
}

/// What the off-disk pass saw, alongside its report.
#[derive(Debug)]
pub struct OffDiskStats {
    /// Parse counters summed over every day (plus the directory's skipped
    /// foreign files), identical to a whole-directory read's stats.
    pub parse: u1_trace::ParseStats,
    /// Days folded.
    pub days: usize,
    /// Largest single-day record buffer held in memory — the pass's working
    /// set, ~1/30 of the month's records instead of all of them.
    pub peak_chunk_records: usize,
}

/// The bounded-memory analytics path: folds a *stamped* trace directory
/// (see `DirSink::create_stamped`) day by day — read one day (`threads`
/// files parsed at once), sort it into canonical `(t, origin, seq)` order,
/// feed it to the running battery, drop it, next day. Day files partition
/// the trace by `t.day_index()`, so the concatenation of the sorted days is
/// the exact canonical record sequence and the report equals [`run_all`]
/// over the fully materialized trace bit for bit — while peak memory stays
/// at one day's records.
pub fn run_all_offdisk(
    dir: &std::path::Path,
    cfg: &EngineConfig,
    threads: usize,
) -> std::io::Result<(EngineReport, OffDiskStats)> {
    let mut chunks = u1_trace::LogDirReader::new(dir).day_chunks(threads)?;
    let mut parse = u1_trace::ParseStats {
        skipped_files: chunks.skipped_files(),
        ..u1_trace::ParseStats::default()
    };
    let mut seed = Battery::new(cfg);
    let mut days = 0usize;
    let mut peak_chunk_records = 0usize;
    while let Some(chunk) = chunks.next_day() {
        let chunk = chunk?;
        parse.absorb(&chunk.stats);
        days += 1;
        peak_chunk_records = peak_chunk_records.max(chunk.records.len());
        for rec in &chunk.records {
            seed.feed(rec);
        }
    }
    Ok((
        seed.finish(),
        OffDiskStats {
            parse,
            days,
            peak_chunk_records,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;

    fn mixed_records() -> Vec<TraceRecord> {
        let mut recs = Vec::new();
        for u in 1..=8u64 {
            recs.push(session_open(at(u * 10), u, u));
            recs.push(auth(at(u * 10 + 1), u, u % 5 != 0));
            for k in 0..6u64 {
                recs.push(transfer(
                    at(u * 10 + 100 + k * 700),
                    if k % 3 == 0 { Download } else { Upload },
                    u,
                    u,
                    u * 100 + k % 4,
                    1000 * (k + 1),
                    u * 10 + k % 3,
                    if k % 2 == 0 { "jpg" } else { "mp3" },
                ));
            }
            recs.push(node_op(
                at(u * 10 + 5000),
                Unlink,
                u,
                u,
                u * 100,
                u1_core::NodeKind::File,
            ));
            recs.push(rpc_on(
                at(u * 10 + 2),
                (u % 3) as u16,
                0,
                u1_core::RpcKind::GetNode,
                u,
                (u % 4) as u16,
                1000 + u * 10,
            ));
            recs.push(session_close(at(u * 10 + 6000), u, u));
        }
        recs.sort_by_key(|r| r.t);
        recs
    }

    #[test]
    fn battery_chunked_equals_serial_at_any_split() {
        let recs = mixed_records();
        let cfg = EngineConfig::new(SimTime::from_hours(3), 3, 4);
        let serial = serde_json::to_value(&run_all(&recs, &cfg));
        for threads in [1, 2, 3, 7, 64] {
            let chunked = serde_json::to_value(&run_all_chunked(&recs, &cfg, threads));
            assert_eq!(chunked, serial, "threads={threads}");
        }
        // Adversarial: every record its own chunk.
        let singles: Vec<&[TraceRecord]> = recs.chunks(1).collect();
        let report = run_chunks(Battery::new(&cfg), &singles);
        assert_eq!(serde_json::to_value(&report), serial);
    }

    #[test]
    fn run_chunks_is_associative() {
        let recs = mixed_records();
        let cfg = EngineConfig::new(SimTime::from_hours(3), 3, 4);
        let (a, rest) = recs.split_at(recs.len() / 3);
        let (b, c) = rest.split_at(rest.len() / 2);
        // (A·B)·C
        let left = {
            let mut ab = Battery::new(&cfg);
            for part in [a, b] {
                let mut p = ab.new_partial();
                part.iter().for_each(|r| p.feed(r));
                ab.merge(p);
            }
            let mut pc = ab.new_partial();
            c.iter().for_each(|r| pc.feed(r));
            ab.merge(pc);
            ab.finish()
        };
        // A·(B·C)
        let right = {
            let mut bc = {
                let mut seed = Battery::new(&cfg);
                let mut pb = seed.new_partial();
                b.iter().for_each(|r| pb.feed(r));
                let mut pcc = seed.new_partial();
                c.iter().for_each(|r| pcc.feed(r));
                pb.merge(pcc);
                seed.merge(pb);
                seed
            };
            let mut root = bc.new_partial();
            let mut pa = root.new_partial();
            a.iter().for_each(|r| pa.feed(r));
            root.merge(pa);
            // root now holds A; absorb (B·C).
            std::mem::swap(&mut root, &mut bc);
            // after swap: root = (B·C) battery, bc = A battery — merge A←(B·C).
            bc.merge(root);
            bc.finish()
        };
        assert_eq!(serde_json::to_value(&left), serde_json::to_value(&right));
    }

    #[test]
    fn chunk_planner_clamps_degenerate_splits() {
        // Tiny traces never fan out, no matter how many threads are asked
        // for — the old planner spawned 64 threads for 64 records.
        assert_eq!(plan_chunk_count(0, 64), 1);
        assert_eq!(plan_chunk_count(1, 64), 1);
        assert_eq!(plan_chunk_count(MIN_CHUNK_RECORDS - 1, 64), 1);
        assert_eq!(plan_chunk_count(MIN_CHUNK_RECORDS, 64), 1);
        assert_eq!(plan_chunk_count(2 * MIN_CHUNK_RECORDS, 64), 2);
        // Big traces are still capped at one chunk per thread.
        assert_eq!(plan_chunk_count(100 * MIN_CHUNK_RECORDS, 4), 4);
        assert_eq!(plan_chunk_count(100 * MIN_CHUNK_RECORDS, 1), 1);
        assert_eq!(plan_chunk_count(100 * MIN_CHUNK_RECORDS, 0), 1);
        // And the degenerate-split run still equals serial (the clamp must
        // not change output, only the schedule).
        let recs = mixed_records();
        let cfg = EngineConfig::new(SimTime::from_hours(3), 3, 4);
        let serial = serde_json::to_value(&run_all(&recs, &cfg));
        for threads in [2, 64, 1024] {
            assert_eq!(plan_chunk_count(recs.len(), threads), 1);
            let got = serde_json::to_value(&run_all_chunked(&recs, &cfg, threads));
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn tree_merge_equals_left_fold_at_any_partial_count() {
        let recs = mixed_records();
        let cfg = EngineConfig::new(SimTime::from_hours(3), 3, 4);
        let serial = serde_json::to_value(&run_all(&recs, &cfg));
        for parts in [1usize, 2, 3, 5, 8, 13] {
            let chunk_len = recs.len().div_ceil(parts);
            let mut seed = Battery::new(&cfg);
            let partials: Vec<Battery> = recs
                .chunks(chunk_len)
                .map(|chunk| {
                    let mut p = seed.new_partial();
                    chunk.iter().for_each(|r| p.feed(r));
                    p
                })
                .collect();
            if let Some(merged) = tree_merge(partials) {
                seed.merge(merged);
            }
            let got = serde_json::to_value(&seed.finish());
            assert_eq!(got, serial, "parts={parts}");
        }
        assert!(tree_merge(Vec::<Battery>::new()).is_none());
    }

    /// The off-disk day-by-day pass over a stamped trace directory equals
    /// `run_all` over the fully materialized canonical record sequence —
    /// field-for-field, at several thread counts — while holding at most
    /// one day's records.
    #[test]
    fn offdisk_run_equals_in_memory_run() {
        let mut recs = Vec::new();
        // Three days of the mixed workload, with deliberate cross-origin
        // timestamp ties (origin/seq stamps assigned round-robin).
        for day in 0..3u64 {
            for (i, mut rec) in mixed_records().into_iter().enumerate() {
                rec.t = SimTime::from_micros(rec.t.as_micros() + day * 86_400 * 1_000_000);
                rec.origin = (i % 3) as u16;
                rec.seq = (day as usize * 10_000 + i) as u64;
                recs.push(rec);
            }
        }
        recs.sort_by_key(|r| (r.t, r.origin, r.seq));
        let cfg = EngineConfig::new(SimTime::from_hours(72), 3, 4);
        let serial = serde_json::to_value(&run_all(&recs, &cfg));

        let dir = std::env::temp_dir().join(format!("u1-offdisk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let sink = u1_trace::DirSink::create_stamped(&dir).unwrap();
            use u1_trace::TraceSink;
            for rec in &recs {
                sink.record(rec.clone());
            }
            sink.flush();
            assert_eq!(sink.io_errors(), 0);
        }
        for threads in [1, 2, 8] {
            let (report, stats) = run_all_offdisk(&dir, &cfg, threads).unwrap();
            assert_eq!(serde_json::to_value(&report), serial, "threads={threads}");
            assert_eq!(stats.days, 3);
            assert_eq!(stats.parse.parsed, recs.len());
            assert_eq!(stats.parse.malformed, 0);
            assert!(
                stats.peak_chunk_records < recs.len(),
                "working set should be one day, not the whole trace"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_trace_finishes_cleanly() {
        let cfg = EngineConfig::new(SimTime::from_hours(1), 1, 1);
        let report = run_all(&[], &cfg);
        assert_eq!(report.summary.records, 0);
        assert_eq!(report.dedup.unique_contents, 0);
        assert_eq!(report.sessions.sessions, 0);
    }
}
