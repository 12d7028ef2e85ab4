//! File-level deduplication analysis (§5.3, Fig. 4(a)).

use crate::engine::TraceFold;
use crate::stats::Ecdf;
use serde::Serialize;
use u1_core::{ApiOpKind, ContentHash, FxHashMap};
use u1_trace::{StorageDone, TraceRecord};

/// Fig. 4(a): distribution of logical copies per distinct content, and the
/// dedup ratio `dr = 1 - D_unique / D_total`.
#[derive(Debug, Clone, Serialize)]
pub struct DedupAnalysis {
    /// Distinct contents observed in uploads.
    pub unique_contents: u64,
    /// Total upload operations carrying a hash.
    pub total_uploads: u64,
    pub unique_bytes: u64,
    pub total_bytes: u64,
    pub dedup_ratio: f64,
    /// Fraction of contents uploaded exactly once.
    pub singleton_fraction: f64,
    /// ECDF over copies-per-content.
    pub copies_per_content: Ecdf,
    /// The most duplicated content's copy count (the "hot spot").
    pub max_copies: u64,
}

/// Streaming state behind [`dedup_analysis`]: copies and last-seen size per
/// content hash. Merging adds copy counts; the later chunk's size wins,
/// matching the serial "size of the last upload" rule.
pub struct DedupFold {
    per_hash: FxHashMap<ContentHash, (u64, u64)>, // hash -> (copies, size)
}

impl DedupFold {
    pub fn new() -> Self {
        Self {
            per_hash: FxHashMap::default(),
        }
    }
}

impl Default for DedupFold {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFold for DedupFold {
    type Output = DedupAnalysis;

    fn new_partial(&self) -> Self {
        DedupFold::new()
    }

    fn feed(&mut self, rec: &TraceRecord) {
        if let Some(StorageDone {
            op: ApiOpKind::Upload,
            success: true,
            hash: Some(hash),
            size,
            ..
        }) = rec.payload.storage()
        {
            let entry = self.per_hash.entry(*hash).or_insert((0, *size));
            entry.0 += 1;
            entry.1 = *size;
        }
    }

    fn merge(&mut self, mut later: Self) {
        // Copies are additive; the recorded size is the LATER chunk's last
        // upload. Accumulate into whichever map is larger.
        if later.per_hash.len() > self.per_hash.len() {
            std::mem::swap(&mut self.per_hash, &mut later.per_hash);
            // Base is now the later chunk: earlier copies add in, but the
            // later chunk's size stands for hashes it already saw.
            for (hash, (copies, size)) in later.per_hash.drain() {
                let entry = self.per_hash.entry(hash).or_insert((0, size));
                entry.0 += copies;
            }
        } else {
            for (hash, (copies, size)) in later.per_hash {
                let entry = self.per_hash.entry(hash).or_insert((0, size));
                entry.0 += copies;
                entry.1 = size;
            }
        }
    }

    fn finish(self) -> DedupAnalysis {
        let per_hash = self.per_hash;
        let unique_contents = per_hash.len() as u64;
        let total_uploads: u64 = per_hash.values().map(|(c, _)| *c).sum();
        let unique_bytes: u64 = per_hash.values().map(|(_, s)| *s).sum();
        let total_bytes: u64 = per_hash.values().map(|(c, s)| c * s).sum();
        let singletons = per_hash.values().filter(|(c, _)| *c == 1).count() as u64;
        let copies: Vec<f64> = per_hash.values().map(|(c, _)| *c as f64).collect();
        DedupAnalysis {
            unique_contents,
            total_uploads,
            unique_bytes,
            total_bytes,
            dedup_ratio: if total_bytes == 0 {
                0.0
            } else {
                1.0 - unique_bytes as f64 / total_bytes as f64
            },
            singleton_fraction: if unique_contents == 0 {
                0.0
            } else {
                singletons as f64 / unique_contents as f64
            },
            max_copies: per_hash.values().map(|(c, _)| *c).max().unwrap_or(0),
            copies_per_content: Ecdf::new(copies),
        }
    }
}

pub fn dedup_analysis(records: &[TraceRecord]) -> DedupAnalysis {
    crate::engine::run_fold(DedupFold::new(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::Upload;

    #[test]
    fn ratio_counts_duplicate_bytes() {
        let recs = vec![
            transfer(at(1), Upload, 1, 1, 1, 100, 42, "mp3"),
            transfer(at(2), Upload, 1, 2, 2, 100, 42, "mp3"), // same content, user 2
            transfer(at(3), Upload, 1, 3, 3, 100, 42, "mp3"), // again
            transfer(at(4), Upload, 1, 1, 4, 300, 7, "pdf"),  // unique
        ];
        let d = dedup_analysis(&recs);
        assert_eq!(d.unique_contents, 2);
        assert_eq!(d.total_uploads, 4);
        assert_eq!(d.unique_bytes, 400);
        assert_eq!(d.total_bytes, 600);
        assert!((d.dedup_ratio - (1.0 - 400.0 / 600.0)).abs() < 1e-12);
        assert!((d.singleton_fraction - 0.5).abs() < 1e-12);
        assert_eq!(d.max_copies, 3);
    }

    #[test]
    fn empty_trace_is_zero() {
        let d = dedup_analysis(&[]);
        assert_eq!(d.dedup_ratio, 0.0);
        assert_eq!(d.unique_contents, 0);
        assert!(d.copies_per_content.is_empty());
    }

    #[test]
    fn downloads_do_not_affect_dedup() {
        let recs = vec![
            transfer(at(1), Upload, 1, 1, 1, 100, 1, "a"),
            transfer(at(2), u1_core::ApiOpKind::Download, 1, 1, 1, 100, 1, "a"),
        ];
        let d = dedup_analysis(&recs);
        assert_eq!(d.total_uploads, 1);
    }
}
