//! File-level deduplication analysis (§5.3, Fig. 4(a)).

use crate::stats::Ecdf;
use serde::Serialize;

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

/// The uploads of one content: how many, and the size of the last one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Copies {
    copies: u64,
    size: u64,
}

impl Copies {
    pub(crate) fn add(&mut self, size: u64) {
        self.copies += 1;
        self.size = size;
    }

    /// Adds the same content's uploads in the chunk after this one, whose
    /// last upload's size wins.
    pub(crate) fn join(&mut self, later: Copies) {
        self.copies += later.copies;
        self.size = later.size;
    }
}

/// Fig. 4(a) over every uploaded content's copies.
pub(crate) fn dedup<'a>(contents: impl Iterator<Item = &'a Copies> + Clone) -> DedupAnalysis {
    let unique_contents = contents.clone().count() as u64;
    let total_uploads: u64 = contents.clone().map(|c| c.copies).sum();
    let unique_bytes: u64 = contents.clone().map(|c| c.size).sum();
    let total_bytes: u64 = contents.clone().map(|c| c.copies * c.size).sum();
    let singletons = contents.clone().filter(|c| c.copies == 1).count() as u64;
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
        max_copies: contents.clone().map(|c| c.copies).max().unwrap_or(0),
        copies_per_content: Ecdf::from_ints(contents.map(|c| c.copies).collect(), |c| c as f64),
    }
}

#[cfg(test)]
mod tests {
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
        let d = chunked(&[&recs], at(60)).dedup;
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
        let d = chunked(&[], at(60)).dedup;
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
        let d = chunked(&[&recs], at(60)).dedup;
        assert_eq!(d.total_uploads, 1);
    }
}
