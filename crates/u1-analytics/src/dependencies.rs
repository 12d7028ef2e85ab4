//! Per-node operation dependencies, reads-per-file and node lifetimes
//! (§5.2, Fig. 3).
//!
//! For each node we track its Write (upload), Read (download) and Delete
//! (unlink) events and classify consecutive pairs into the paper's six
//! dependencies: WAW/RAW/DAW (after a write) and WAR/RAR/DAR (after a
//! read), collecting the inter-operation time for each.

use crate::engine::TraceFold;
use crate::stats::Ecdf;
use serde::Serialize;
use u1_core::{ApiOpKind, FxHashMap, NodeKind, SimDuration, SimTime};
use u1_trace::{StorageDone, TraceRecord};

/// The six dependency kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Dependency {
    WriteAfterWrite,
    ReadAfterWrite,
    DeleteAfterWrite,
    WriteAfterRead,
    ReadAfterRead,
    DeleteAfterRead,
}

impl Dependency {
    pub const AFTER_WRITE: [Dependency; 3] = [
        Dependency::WriteAfterWrite,
        Dependency::ReadAfterWrite,
        Dependency::DeleteAfterWrite,
    ];
    pub const AFTER_READ: [Dependency; 3] = [
        Dependency::WriteAfterRead,
        Dependency::ReadAfterRead,
        Dependency::DeleteAfterRead,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Dependency::WriteAfterWrite => "WAW",
            Dependency::ReadAfterWrite => "RAW",
            Dependency::DeleteAfterWrite => "DAW",
            Dependency::WriteAfterRead => "WAR",
            Dependency::ReadAfterRead => "RAR",
            Dependency::DeleteAfterRead => "DAR",
        }
    }
}

/// Full dependency analysis output.
#[derive(Debug, Serialize)]
pub struct DependencyAnalysis {
    /// Inter-operation-time ECDF (seconds) per dependency.
    pub times: Vec<(Dependency, Ecdf)>,
    /// Pair counts per dependency.
    pub counts: Vec<(Dependency, u64)>,
    /// Downloads per file (only files downloaded at least once).
    pub reads_per_file: Ecdf,
    /// Fraction of WAW gaps under one hour (§5.2 reports 80%).
    pub waw_under_1h: f64,
    /// Fraction of RAR gaps within one day (§5.2 reports ~40%).
    pub rar_under_1d: f64,
    /// Files unused for > 1 day before deletion, and all deleted files
    /// (§5.2: 12.5M ≈ 9.1% of all files were dying files).
    pub dying_files: u64,
    pub deleted_files: u64,
    /// Distinct files observed.
    pub total_files: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Ev {
    W,
    R,
    D,
}

fn classify(prev: Ev, ev: Ev) -> Option<Dependency> {
    match (prev, ev) {
        (Ev::W, Ev::W) => Some(Dependency::WriteAfterWrite),
        (Ev::W, Ev::R) => Some(Dependency::ReadAfterWrite),
        (Ev::W, Ev::D) => Some(Dependency::DeleteAfterWrite),
        (Ev::R, Ev::W) => Some(Dependency::WriteAfterRead),
        (Ev::R, Ev::R) => Some(Dependency::ReadAfterRead),
        (Ev::R, Ev::D) => Some(Dependency::DeleteAfterRead),
        _ => None, // nothing meaningful follows a delete
    }
}

/// Per-node event chain inside one chunk: the first event (which may pair
/// with an earlier chunk's last event at merge) and the running last state
/// (`None` after a delete — nothing meaningful follows a delete).
struct Chain {
    first: (Ev, SimTime),
    last: Option<(Ev, SimTime)>,
}

/// Streaming state behind [`dependency_analysis`].
pub struct DependencyFold {
    nodes: FxHashMap<u64, Chain>,
    gaps: FxHashMap<Dependency, Vec<f64>>,
    reads: FxHashMap<u64, u64>,
    dying: u64,
    deleted: u64,
}

impl DependencyFold {
    pub fn new() -> Self {
        Self {
            nodes: FxHashMap::default(),
            gaps: FxHashMap::default(),
            reads: FxHashMap::default(),
            dying: 0,
            deleted: 0,
        }
    }

    fn record_pair(&mut self, prev: Ev, prev_t: SimTime, ev: Ev, t: SimTime) {
        if let Some(dep) = classify(prev, ev) {
            let gap = t.since(prev_t);
            self.gaps.entry(dep).or_default().push(gap.as_secs_f64());
            if ev == Ev::D && gap > SimDuration::from_days(1) {
                self.dying += 1;
            }
        }
    }
}

impl Default for DependencyFold {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFold for DependencyFold {
    type Output = DependencyAnalysis;

    fn new_partial(&self) -> Self {
        DependencyFold::new()
    }

    fn feed(&mut self, rec: &TraceRecord) {
        let Some(StorageDone {
            op,
            success: true,
            node: Some(node),
            kind,
            ..
        }) = rec.payload.storage()
        else {
            return;
        };
        if *kind == Some(NodeKind::Directory) {
            return;
        }
        let ev = match op {
            ApiOpKind::Upload => Ev::W,
            ApiOpKind::Download => Ev::R,
            ApiOpKind::Unlink => Ev::D,
            _ => return,
        };
        let node = node.raw();
        if ev == Ev::R {
            *self.reads.entry(node).or_default() += 1;
        }
        let next = (ev != Ev::D).then_some((ev, rec.t));
        match self.nodes.get_mut(&node) {
            Some(chain) => {
                let prev = chain.last;
                chain.last = next;
                if let Some((p, p_t)) = prev {
                    self.record_pair(p, p_t, ev, rec.t);
                }
            }
            None => {
                self.nodes.insert(
                    node,
                    Chain {
                        first: (ev, rec.t),
                        last: next,
                    },
                );
            }
        }
        if ev == Ev::D {
            self.deleted += 1;
        }
    }

    fn merge(&mut self, later: Self) {
        for (node, chain) in later.nodes {
            match self.nodes.get_mut(&node) {
                Some(mine) => {
                    let boundary = mine.last;
                    mine.last = chain.last;
                    if let Some((prev, prev_t)) = boundary {
                        let (ev, t) = chain.first;
                        self.record_pair(prev, prev_t, ev, t);
                    }
                }
                None => {
                    self.nodes.insert(node, chain);
                }
            }
        }
        for (dep, xs) in later.gaps {
            self.gaps.entry(dep).or_default().extend(xs);
        }
        for (node, c) in later.reads {
            *self.reads.entry(node).or_default() += c;
        }
        self.dying += later.dying;
        self.deleted += later.deleted;
    }

    fn finish(mut self) -> DependencyAnalysis {
        let pct =
            |gaps: &FxHashMap<Dependency, Vec<f64>>, dep: Dependency, limit: SimDuration| -> f64 {
                gaps.get(&dep)
                    .map(|v| {
                        if v.is_empty() {
                            0.0
                        } else {
                            v.iter().filter(|&&g| g <= limit.as_secs_f64()).count() as f64
                                / v.len() as f64
                        }
                    })
                    .unwrap_or(0.0)
            };
        let waw_under_1h = pct(
            &self.gaps,
            Dependency::WriteAfterWrite,
            SimDuration::from_hours(1),
        );
        let rar_under_1d = pct(
            &self.gaps,
            Dependency::ReadAfterRead,
            SimDuration::from_days(1),
        );

        let all_deps = Dependency::AFTER_WRITE
            .into_iter()
            .chain(Dependency::AFTER_READ);
        DependencyAnalysis {
            counts: all_deps
                .clone()
                .map(|d| (d, self.gaps.get(&d).map(|v| v.len() as u64).unwrap_or(0)))
                .collect(),
            times: all_deps
                .map(|d| (d, Ecdf::new(self.gaps.remove(&d).unwrap_or_default())))
                .collect(),
            reads_per_file: Ecdf::new(self.reads.values().map(|&c| c as f64).collect()),
            waw_under_1h,
            rar_under_1d,
            dying_files: self.dying,
            deleted_files: self.deleted,
            total_files: self.nodes.len() as u64,
        }
    }
}

pub fn dependency_analysis(records: &[TraceRecord]) -> DependencyAnalysis {
    crate::engine::run_fold(DependencyFold::new(), records)
}

/// Fig. 3(c): node lifetimes — Make(kind) to Unlink, per node kind.
#[derive(Debug, Serialize)]
pub struct LifetimeAnalysis {
    pub file_lifetimes: Ecdf,
    pub dir_lifetimes: Ecdf,
    pub files_created: u64,
    pub dirs_created: u64,
    /// Fractions of created nodes deleted within the window.
    pub file_mortality: f64,
    pub dir_mortality: f64,
    /// ... and within 8 hours of creation.
    pub file_mortality_8h: f64,
    pub dir_mortality_8h: f64,
}

/// A make/unlink event that could not be resolved against chunk-local state
/// and must replay, in time order, against earlier chunks at merge.
enum LtEvent {
    Make { node: u64, kind: NodeKind },
    Unlink { node: u64, t: SimTime },
}

/// Streaming state behind [`lifetime_analysis`].
///
/// A Make whose node is absent from the chunk-local `created` map is counted
/// provisionally and recorded as a boundary event; if the merge finds the
/// node already created in an earlier chunk, the provisional count is taken
/// back (matching the serial pass, which only counts first creations but
/// still refreshes the creation record). Unlinks that found nothing local
/// stay pending and resolve against earlier chunks the same way.
pub struct LifetimeFold {
    created: FxHashMap<u64, (NodeKind, SimTime)>,
    file_lt: Vec<f64>,
    dir_lt: Vec<f64>,
    files_created: u64,
    dirs_created: u64,
    boundary: Vec<LtEvent>,
}

impl LifetimeFold {
    pub fn new() -> Self {
        Self {
            created: FxHashMap::default(),
            file_lt: Vec::new(),
            dir_lt: Vec::new(),
            files_created: 0,
            dirs_created: 0,
            boundary: Vec::new(),
        }
    }

    fn push_lifetime(&mut self, kind: NodeKind, secs: f64) {
        match kind {
            NodeKind::File => self.file_lt.push(secs),
            NodeKind::Directory => self.dir_lt.push(secs),
        }
    }

    fn uncount_make(&mut self, kind: NodeKind) {
        match kind {
            NodeKind::File => self.files_created -= 1,
            NodeKind::Directory => self.dirs_created -= 1,
        }
    }
}

impl Default for LifetimeFold {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFold for LifetimeFold {
    type Output = LifetimeAnalysis;

    fn new_partial(&self) -> Self {
        LifetimeFold::new()
    }

    fn feed(&mut self, rec: &TraceRecord) {
        let Some(StorageDone {
            op,
            success: true,
            node: Some(node),
            ..
        }) = rec.payload.storage()
        else {
            return;
        };
        let node = node.raw();
        match op {
            ApiOpKind::MakeFile | ApiOpKind::MakeDir => {
                let kind = if *op == ApiOpKind::MakeFile {
                    NodeKind::File
                } else {
                    NodeKind::Directory
                };
                if self.created.insert(node, (kind, rec.t)).is_none() {
                    match kind {
                        NodeKind::File => self.files_created += 1,
                        NodeKind::Directory => self.dirs_created += 1,
                    }
                    self.boundary.push(LtEvent::Make { node, kind });
                }
            }
            ApiOpKind::Unlink => {
                if let Some((kind, t0)) = self.created.remove(&node) {
                    self.push_lifetime(kind, rec.t.since(t0).as_secs_f64());
                } else {
                    self.boundary.push(LtEvent::Unlink { node, t: rec.t });
                }
            }
            _ => {}
        }
    }

    fn merge(&mut self, later: Self) {
        // Replay the later chunk's boundary events, in time order, against
        // our (earlier) creation state.
        let mut kept = Vec::new();
        for ev in later.boundary {
            match ev {
                LtEvent::Make { node, kind } => {
                    if self.created.remove(&node).is_some() {
                        // The node already existed, so the serial pass would
                        // not have counted this Make; the later chunk's own
                        // state carries the refreshed creation record.
                        self.uncount_make(kind);
                    } else {
                        kept.push(ev);
                    }
                }
                LtEvent::Unlink { node, t } => {
                    if let Some((kind, t0)) = self.created.remove(&node) {
                        self.push_lifetime(kind, t.since(t0).as_secs_f64());
                    } else {
                        kept.push(ev);
                    }
                }
            }
        }
        self.boundary.extend(kept);
        self.created.extend(later.created);
        self.file_lt.extend(later.file_lt);
        self.dir_lt.extend(later.dir_lt);
        self.files_created += later.files_created;
        self.dirs_created += later.dirs_created;
    }

    fn finish(self) -> LifetimeAnalysis {
        let eight_h = SimDuration::from_hours(8).as_secs_f64();
        let frac8 = |v: &[f64], total: u64| {
            if total == 0 {
                0.0
            } else {
                v.iter().filter(|&&x| x <= eight_h).count() as f64 / total as f64
            }
        };
        LifetimeAnalysis {
            file_mortality: if self.files_created == 0 {
                0.0
            } else {
                self.file_lt.len() as f64 / self.files_created as f64
            },
            dir_mortality: if self.dirs_created == 0 {
                0.0
            } else {
                self.dir_lt.len() as f64 / self.dirs_created as f64
            },
            file_mortality_8h: frac8(&self.file_lt, self.files_created),
            dir_mortality_8h: frac8(&self.dir_lt, self.dirs_created),
            files_created: self.files_created,
            dirs_created: self.dirs_created,
            file_lifetimes: Ecdf::new(self.file_lt),
            dir_lifetimes: Ecdf::new(self.dir_lt),
        }
    }
}

pub fn lifetime_analysis(records: &[TraceRecord]) -> LifetimeAnalysis {
    crate::engine::run_fold(LifetimeFold::new(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;

    #[test]
    fn classifies_all_six_dependencies() {
        let recs = vec![
            transfer(at(0), Upload, 1, 1, 1, 10, 1, "a"),     // W
            transfer(at(60), Upload, 1, 1, 1, 10, 2, "a"),    // WAW, 60s
            transfer(at(120), Download, 1, 1, 1, 10, 2, "a"), // RAW
            transfer(at(180), Download, 1, 1, 1, 10, 2, "a"), // RAR
            transfer(at(240), Upload, 1, 1, 1, 10, 3, "a"),   // WAR
            node_op(at(300), Unlink, 1, 1, 1, u1_core::NodeKind::File), // DAW
            transfer(at(0), Upload, 1, 2, 2, 10, 4, "b"),
            transfer(at(100), Download, 1, 2, 2, 10, 4, "b"), // RAW
            node_op(at(200), Unlink, 1, 2, 2, u1_core::NodeKind::File), // DAR
        ];
        let a = dependency_analysis(&recs);
        let count = |d: Dependency| a.counts.iter().find(|(k, _)| *k == d).unwrap().1;
        assert_eq!(count(Dependency::WriteAfterWrite), 1);
        assert_eq!(count(Dependency::ReadAfterWrite), 2);
        assert_eq!(count(Dependency::ReadAfterRead), 1);
        assert_eq!(count(Dependency::WriteAfterRead), 1);
        assert_eq!(count(Dependency::DeleteAfterWrite), 1);
        assert_eq!(count(Dependency::DeleteAfterRead), 1);
        assert_eq!(a.deleted_files, 2);
        assert_eq!(a.total_files, 2);
        assert!((a.waw_under_1h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dying_files_need_a_quiet_day_before_deletion() {
        let recs = vec![
            transfer(at(0), Upload, 1, 1, 1, 10, 1, "a"),
            node_op(at(2 * 86_400), Unlink, 1, 1, 1, u1_core::NodeKind::File),
            transfer(at(0), Upload, 1, 1, 2, 10, 2, "a"),
            node_op(at(3_600), Unlink, 1, 1, 2, u1_core::NodeKind::File),
        ];
        let a = dependency_analysis(&recs);
        assert_eq!(a.dying_files, 1);
        assert_eq!(a.deleted_files, 2);
    }

    #[test]
    fn reads_per_file_builds_distribution() {
        let recs = vec![
            transfer(at(0), Upload, 1, 1, 1, 10, 1, "a"),
            transfer(at(1), Download, 1, 1, 1, 10, 1, "a"),
            transfer(at(2), Download, 1, 1, 1, 10, 1, "a"),
            transfer(at(3), Download, 1, 1, 1, 10, 1, "a"),
            transfer(at(0), Upload, 1, 1, 2, 10, 2, "a"),
            transfer(at(1), Download, 1, 1, 2, 10, 2, "a"),
        ];
        let a = dependency_analysis(&recs);
        assert_eq!(a.reads_per_file.len(), 2);
        assert_eq!(a.reads_per_file.max(), 3.0);
    }

    #[test]
    fn lifetimes_pair_make_with_unlink() {
        let recs = vec![
            node_op(at(0), MakeFile, 1, 1, 1, u1_core::NodeKind::File),
            node_op(at(100), MakeDir, 1, 1, 2, u1_core::NodeKind::Directory),
            node_op(at(3_600), Unlink, 1, 1, 1, u1_core::NodeKind::File),
            node_op(at(0), MakeFile, 1, 1, 3, u1_core::NodeKind::File), // survives
        ];
        let l = lifetime_analysis(&recs);
        assert_eq!(l.files_created, 2);
        assert_eq!(l.dirs_created, 1);
        assert!((l.file_mortality - 0.5).abs() < 1e-9);
        assert_eq!(l.dir_mortality, 0.0);
        assert!((l.file_mortality_8h - 0.5).abs() < 1e-9);
        assert_eq!(l.file_lifetimes.median(), 3_600.0);
    }

    #[test]
    fn chunked_dependencies_match_serial_at_every_split() {
        // Node 1 spans chunks (W..W..R..D with gaps); node 2 is deleted and
        // re-written; node 3 exists only in the tail.
        let recs = vec![
            transfer(at(0), Upload, 1, 1, 1, 10, 1, "a"),
            transfer(at(60), Upload, 1, 1, 1, 10, 2, "a"),
            transfer(at(0), Upload, 1, 2, 2, 10, 3, "b"),
            node_op(at(30), Unlink, 1, 2, 2, u1_core::NodeKind::File),
            transfer(at(40), Upload, 1, 2, 2, 10, 4, "b"),
            transfer(at(120), Download, 1, 1, 1, 10, 2, "a"),
            node_op(at(2 * 86_400), Unlink, 1, 1, 1, u1_core::NodeKind::File),
            transfer(at(2 * 86_400 + 5), Upload, 1, 3, 3, 10, 5, "c"),
            transfer(at(2 * 86_400 + 9), Download, 1, 3, 3, 10, 5, "c"),
        ];
        let serial = dependency_analysis(&recs);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = crate::engine::run_chunks(DependencyFold::new(), &[a, b]);
            assert_eq!(
                serde_json::to_value(&got),
                serde_json::to_value(&serial),
                "split={split}"
            );
        }
        // Single-record chunks exercise every boundary at once.
        let chunks: Vec<&[_]> = recs.chunks(1).collect();
        let got = crate::engine::run_chunks(DependencyFold::new(), &chunks);
        assert_eq!(serde_json::to_value(&got), serde_json::to_value(&serial));
    }

    #[test]
    fn chunked_lifetimes_match_serial_at_every_split() {
        // Exercises the re-make quirk: a second Make refreshes the creation
        // record without counting, and an Unlink then measures from the
        // refreshed time.
        let recs = vec![
            node_op(at(0), MakeFile, 1, 1, 1, u1_core::NodeKind::File),
            node_op(at(50), MakeFile, 1, 1, 1, u1_core::NodeKind::File), // refresh, not counted
            node_op(at(100), MakeDir, 1, 1, 2, u1_core::NodeKind::Directory),
            node_op(at(3_650), Unlink, 1, 1, 1, u1_core::NodeKind::File), // lifetime 3600 from refresh
            node_op(at(4_000), MakeFile, 1, 1, 1, u1_core::NodeKind::File), // counted again
            node_op(at(5_000), Unlink, 1, 1, 3, u1_core::NodeKind::File), // never created: ignored
            node_op(at(6_000), Unlink, 1, 1, 2, u1_core::NodeKind::Directory),
        ];
        let serial = lifetime_analysis(&recs);
        assert_eq!(serial.files_created, 2);
        assert_eq!(serial.file_lifetimes.median(), 3_600.0);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = crate::engine::run_chunks(LifetimeFold::new(), &[a, b]);
            assert_eq!(
                serde_json::to_value(&got),
                serde_json::to_value(&serial),
                "split={split}"
            );
        }
        let chunks: Vec<&[_]> = recs.chunks(1).collect();
        let got = crate::engine::run_chunks(LifetimeFold::new(), &chunks);
        assert_eq!(serde_json::to_value(&got), serde_json::to_value(&serial));
    }
}
