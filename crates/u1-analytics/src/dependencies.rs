//! Per-node operation dependencies, reads-per-file and node lifetimes
//! (§5.2, Fig. 3).
//!
//! For each node we track its Write (upload), Read (download) and Delete
//! (unlink) events and classify consecutive pairs into the paper's six
//! dependencies: WAW/RAW/DAW (after a write) and WAR/RAR/DAR (after a
//! read), collecting the inter-operation time for each.

use crate::stats::{secs, Ecdf};
use serde::Serialize;
use u1_core::{ApiOpKind, NodeKind, SimDuration, SimTime};

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

/// A file node event: Write (upload), Read (download) or Delete (unlink).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Ev {
    W,
    R,
    D,
}

impl Ev {
    pub(crate) fn of(op: ApiOpKind) -> Option<Ev> {
        match op {
            ApiOpKind::Upload => Some(Ev::W),
            ApiOpKind::Download => Some(Ev::R),
            ApiOpKind::Unlink => Some(Ev::D),
            _ => None,
        }
    }
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

/// A file node's event chain within one chunk: its first event (which may
/// pair with an earlier chunk's last at merge) and the running last one
/// (`None` after a delete — nothing meaningful follows a delete). Flat, so
/// it packs into 24 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    first: Ev,
    first_t: SimTime,
    last: Option<Ev>,
    last_t: SimTime,
}

impl Chain {
    /// Replaces the last event, returning the one it follows.
    fn push(&mut self, next: Option<Ev>, t: SimTime) -> Option<(Ev, SimTime)> {
        let prev = self.last.map(|ev| (ev, self.last_t));
        (self.last, self.last_t) = (next, t);
        prev
    }
}

/// Inter-operation gaps (microseconds) per dependency, in declaration
/// order, plus the delete counts.
#[derive(Debug, Default)]
pub(crate) struct Deps {
    gaps: [Vec<u64>; 6],
    dying: u64,
    deleted: u64,
}

impl Deps {
    fn pair(&mut self, (prev, prev_t): (Ev, SimTime), ev: Ev, t: SimTime) {
        if let Some(dep) = classify(prev, ev) {
            let gap = t.since(prev_t);
            self.gaps[dep as usize].push(gap.as_micros());
            if ev == Ev::D && gap > SimDuration::from_days(1) {
                self.dying += 1;
            }
        }
    }

    /// One successful event on a file node, whose chain and download
    /// count are `chain` and `reads`.
    pub(crate) fn event(&mut self, chain: &mut Option<Chain>, reads: &mut u64, ev: Ev, t: SimTime) {
        *reads += u64::from(ev == Ev::R);
        self.deleted += u64::from(ev == Ev::D);
        let next = (ev != Ev::D).then_some(ev);
        match chain {
            Some(c) => {
                if let Some(prev) = c.push(next, t) {
                    self.pair(prev, ev, t);
                }
            }
            None => {
                *chain = Some(Chain {
                    first: ev,
                    first_t: t,
                    last: next,
                    last_t: t,
                })
            }
        }
    }

    /// Appends the same node's chain in the chunk after this one, pairing
    /// the two events that span the boundary.
    pub(crate) fn join(&mut self, earlier: &mut Option<Chain>, later: Option<Chain>) {
        match (earlier.as_mut(), later) {
            (Some(mine), Some(next)) => {
                if let Some(prev) = mine.push(next.last, next.last_t) {
                    self.pair(prev, next.first, next.first_t);
                }
            }
            (None, next) if next.is_some() => *earlier = next,
            _ => {}
        }
    }

    /// Adds the gaps and counts of the chunk after this one.
    pub(crate) fn merge(&mut self, later: Deps) {
        for (mine, theirs) in self.gaps.iter_mut().zip(later.gaps) {
            mine.extend(theirs);
        }
        self.dying += later.dying;
        self.deleted += later.deleted;
    }

    /// The analysis, given every file node's download count and how many
    /// file nodes had a chain.
    pub(crate) fn finish(self, reads: impl Iterator<Item = u64>, files: u64) -> DependencyAnalysis {
        let times: Vec<(Dependency, Ecdf)> = Dependency::AFTER_WRITE
            .into_iter()
            .chain(Dependency::AFTER_READ)
            .zip(self.gaps)
            .map(|(dep, gaps)| (dep, Ecdf::from_ints(gaps, secs)))
            .collect();
        // The ECDF is sorted, so its CDF at `limit` is the fraction of gaps
        // at most `limit` (0 when there are none).
        let under =
            |dep: Dependency, limit: SimDuration| times[dep as usize].1.cdf(limit.as_secs_f64());
        DependencyAnalysis {
            counts: times.iter().map(|(d, e)| (*d, e.len() as u64)).collect(),
            reads_per_file: Ecdf::from_ints(reads.filter(|&c| c > 0).collect(), |c| c as f64),
            waw_under_1h: under(Dependency::WriteAfterWrite, SimDuration::from_hours(1)),
            rar_under_1d: under(Dependency::ReadAfterRead, SimDuration::from_days(1)),
            times,
            dying_files: self.dying,
            deleted_files: self.deleted,
            total_files: files,
        }
    }
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

/// A node's live creation: its kind and when it was (last) made.
pub(crate) type Created = Option<(NodeKind, SimTime)>;

/// Lifetimes (microseconds) of unlinked nodes and creation counts, per
/// node kind.
#[derive(Debug, Default)]
pub(crate) struct Lifetimes {
    file_lt: Vec<u64>,
    dir_lt: Vec<u64>,
    files_created: u64,
    dirs_created: u64,
}

impl Lifetimes {
    pub(crate) fn created(&mut self, kind: NodeKind) -> &mut u64 {
        match kind {
            NodeKind::File => &mut self.files_created,
            NodeKind::Directory => &mut self.dirs_created,
        }
    }

    /// A make. Only a node's first make counts; a re-make refreshes the
    /// creation time uncounted. Returns whether this one counted.
    pub(crate) fn make(&mut self, created: &mut Created, kind: NodeKind, t: SimTime) -> bool {
        let counted = created.replace((kind, t)).is_none();
        *self.created(kind) += u64::from(counted);
        counted
    }

    /// An unlink: a lifetime if the node's creation is on record, else
    /// `false`.
    pub(crate) fn unlink(&mut self, created: &mut Created, t: SimTime) -> bool {
        let Some((kind, t0)) = created.take() else {
            return false;
        };
        let lt = t.since(t0).as_micros();
        match kind {
            NodeKind::File => self.file_lt.push(lt),
            NodeKind::Directory => self.dir_lt.push(lt),
        }
        true
    }

    /// Adds the lifetimes and counts of the chunk after this one.
    pub(crate) fn merge(&mut self, later: Lifetimes) {
        self.file_lt.extend(later.file_lt);
        self.dir_lt.extend(later.dir_lt);
        self.files_created += later.files_created;
        self.dirs_created += later.dirs_created;
    }

    pub(crate) fn finish(self) -> LifetimeAnalysis {
        let eight_h = SimDuration::from_hours(8).as_secs_f64();
        let frac = |n: usize, total: u64| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64
            }
        };
        let within_8h = |lt: &[u64]| lt.iter().filter(|&&us| secs(us) <= eight_h).count();
        LifetimeAnalysis {
            file_mortality: frac(self.file_lt.len(), self.files_created),
            dir_mortality: frac(self.dir_lt.len(), self.dirs_created),
            file_mortality_8h: frac(within_8h(&self.file_lt), self.files_created),
            dir_mortality_8h: frac(within_8h(&self.dir_lt), self.dirs_created),
            files_created: self.files_created,
            dirs_created: self.dirs_created,
            file_lifetimes: Ecdf::from_ints(self.file_lt, secs),
            dir_lifetimes: Ecdf::from_ints(self.dir_lt, secs),
        }
    }
}

/// The node kind a make creates.
pub(crate) fn made(op: ApiOpKind) -> Option<NodeKind> {
    match op {
        ApiOpKind::MakeFile => Some(NodeKind::File),
        ApiOpKind::MakeDir => Some(NodeKind::Directory),
        _ => None,
    }
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
        let a = chunked(&[&recs], SimTime::from_days(3)).dependencies;
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
        let a = chunked(&[&recs], SimTime::from_days(3)).dependencies;
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
        let a = chunked(&[&recs], SimTime::from_days(3)).dependencies;
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
        let l = chunked(&[&recs], SimTime::from_days(3)).lifetimes;
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
        let serial = chunked(&[&recs], SimTime::from_days(3)).dependencies;
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = chunked(&[a, b], SimTime::from_days(3)).dependencies;
            assert_eq!(
                serde_json::to_value(&got),
                serde_json::to_value(&serial),
                "split={split}"
            );
        }
        // Single-record chunks exercise every boundary at once.
        let chunks: Vec<&[_]> = recs.chunks(1).collect();
        let got = chunked(&chunks, SimTime::from_days(3)).dependencies;
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
        let serial = chunked(&[&recs], SimTime::from_days(3)).lifetimes;
        assert_eq!(serial.files_created, 2);
        assert_eq!(serial.file_lifetimes.median(), 3_600.0);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = chunked(&[a, b], SimTime::from_days(3)).lifetimes;
            assert_eq!(
                serde_json::to_value(&got),
                serde_json::to_value(&serial),
                "split={split}"
            );
        }
        let chunks: Vec<&[_]> = recs.chunks(1).collect();
        let got = chunked(&chunks, SimTime::from_days(3)).lifetimes;
        assert_eq!(serde_json::to_value(&got), serde_json::to_value(&serial));
    }
}
