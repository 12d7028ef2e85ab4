//! Storage-workload analyses (§5.1, §5.3): size-category traffic shares,
//! R/W ratios, update overhead, file-type taxonomy and size distributions.

use crate::engine::TraceFold;
use crate::stats::{acf, Acf, Ecdf};
use crate::timeseries::{self, TrafficSeries};
use serde::Serialize;
use u1_core::{ApiOpKind, ContentHash, FileCategory, FxHashMap, SimTime, SizeCategory};
use u1_trace::{StorageDone, TraceRecord};

/// Fig. 2(b): per size-bucket shares of operations and bytes, separately
/// for uploads and downloads.
#[derive(Debug, Clone, Serialize)]
pub struct SizeCategoryShares {
    pub categories: Vec<&'static str>,
    pub upload_op_share: Vec<f64>,
    pub upload_byte_share: Vec<f64>,
    pub download_op_share: Vec<f64>,
    pub download_byte_share: Vec<f64>,
}

/// Streaming state behind [`size_category_shares`].
#[derive(Default)]
pub struct SizeCategoryFold {
    up_ops: [u64; 5],
    up_bytes: [u64; 5],
    down_ops: [u64; 5],
    down_bytes: [u64; 5],
}

impl SizeCategoryFold {
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceFold for SizeCategoryFold {
    type Output = SizeCategoryShares;

    fn new_partial(&self) -> Self {
        Self::default()
    }

    fn feed(&mut self, rec: &TraceRecord) {
        if let Some(StorageDone {
            op,
            success: true,
            size,
            ..
        }) = rec.payload.storage()
        {
            let idx = SizeCategory::ALL
                .iter()
                .position(|c| *c == SizeCategory::of(u1_core::ByteSize(*size)))
                .expect("category");
            match op {
                ApiOpKind::Upload => {
                    self.up_ops[idx] += 1;
                    self.up_bytes[idx] += size;
                }
                ApiOpKind::Download => {
                    self.down_ops[idx] += 1;
                    self.down_bytes[idx] += size;
                }
                _ => {}
            }
        }
    }

    fn merge(&mut self, later: Self) {
        for i in 0..5 {
            self.up_ops[i] += later.up_ops[i];
            self.up_bytes[i] += later.up_bytes[i];
            self.down_ops[i] += later.down_ops[i];
            self.down_bytes[i] += later.down_bytes[i];
        }
    }

    fn finish(self) -> SizeCategoryShares {
        let share = |xs: [u64; 5]| -> Vec<f64> {
            let total: u64 = xs.iter().sum();
            xs.iter()
                .map(|&x| {
                    if total == 0 {
                        0.0
                    } else {
                        x as f64 / total as f64
                    }
                })
                .collect()
        };
        SizeCategoryShares {
            categories: SizeCategory::ALL.iter().map(|c| c.label()).collect(),
            upload_op_share: share(self.up_ops),
            upload_byte_share: share(self.up_bytes),
            download_op_share: share(self.down_ops),
            download_byte_share: share(self.down_bytes),
        }
    }
}

pub fn size_category_shares(records: &[TraceRecord]) -> SizeCategoryShares {
    crate::engine::run_fold(SizeCategoryFold::new(), records)
}

/// Fig. 2(c): the hourly R/W (download/upload bytes) ratio series, its
/// distribution, autocorrelation, and the 6am–3pm hour-of-day profile.
#[derive(Debug, Clone, Serialize)]
pub struct RwRatioAnalysis {
    /// One ratio per hour (hours with zero uploads are skipped).
    pub hourly: Vec<f64>,
    pub median: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub acf: Acf,
    /// Mean ratio per hour-of-day (24 entries).
    pub by_hour_of_day: Vec<f64>,
}

/// Derives the R/W analysis from an already-computed hourly traffic series —
/// the single-pass battery computes the series once and shares it.
pub fn rw_ratio_from_series(ts: &TrafficSeries) -> RwRatioAnalysis {
    // Hours with negligible volume produce degenerate ratios (a scaled-down
    // population has near-empty night hours the production system never
    // had); require at least 2% of the mean hourly volume on both sides.
    let mean_up = crate::stats::mean(&ts.upload_bytes).max(1.0);
    let mean_down = crate::stats::mean(&ts.download_bytes).max(1.0);
    let (min_up, min_down) = (0.02 * mean_up, 0.02 * mean_down);
    let mut hourly = Vec::new();
    let mut by_hour: Vec<Vec<f64>> = vec![Vec::new(); 24];
    for (i, (up, down)) in ts.upload_bytes.iter().zip(&ts.download_bytes).enumerate() {
        if *up > min_up && *down > min_down {
            let ratio = down / up;
            hourly.push(ratio);
            by_hour[i % 24].push(ratio);
        }
    }
    let ecdf = Ecdf::new(hourly.clone());
    RwRatioAnalysis {
        median: ecdf.median(),
        mean: ecdf.mean(),
        min: ecdf.min(),
        max: ecdf.max(),
        acf: acf(&hourly, hourly.len().saturating_sub(1).min(700)),
        by_hour_of_day: by_hour
            .into_iter()
            .map(|v| crate::stats::mean(&v))
            .collect(),
        hourly,
    }
}

pub fn rw_ratio(records: &[TraceRecord], horizon: SimTime) -> RwRatioAnalysis {
    rw_ratio_from_series(&timeseries::traffic_per_hour(records, horizon))
}

/// §5.1: updates — uploads to a node that already had different content.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct UpdateAnalysis {
    pub uploads: u64,
    pub update_uploads: u64,
    pub upload_bytes: u64,
    pub update_bytes: u64,
    pub update_op_fraction: f64,
    pub update_traffic_fraction: f64,
}

type Content = (Option<ContentHash>, u64);

/// Streaming state behind [`update_analysis`]. An "update" compares each
/// upload with the node's *previous* upload, so a chunk's first upload of a
/// node cannot be classified locally: the partial keeps both the first and
/// the last content seen per node, and the merge classifies the one
/// boundary-straddling pair per node.
pub struct UpdateFold {
    // node -> (first upload content in this partial, last upload content).
    nodes: FxHashMap<u64, (Content, Content)>,
    uploads: u64,
    update_uploads: u64,
    upload_bytes: u64,
    update_bytes: u64,
}

impl UpdateFold {
    pub fn new() -> Self {
        Self {
            nodes: FxHashMap::default(),
            uploads: 0,
            update_uploads: 0,
            upload_bytes: 0,
            update_bytes: 0,
        }
    }
}

impl Default for UpdateFold {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFold for UpdateFold {
    type Output = UpdateAnalysis;

    fn new_partial(&self) -> Self {
        UpdateFold::new()
    }

    fn feed(&mut self, rec: &TraceRecord) {
        if let Some(StorageDone {
            op: ApiOpKind::Upload,
            success: true,
            node: Some(node),
            hash,
            size,
            ..
        }) = rec.payload.storage()
        {
            self.uploads += 1;
            self.upload_bytes += size;
            let content: Content = (*hash, *size);
            match self.nodes.get_mut(&node.raw()) {
                Some((_, last)) => {
                    // The paper's definition: "an upload of an existing file
                    // that has distinct hash/size".
                    if *last != content {
                        self.update_uploads += 1;
                        self.update_bytes += size;
                    }
                    *last = content;
                }
                None => {
                    self.nodes.insert(node.raw(), (content, content));
                }
            }
        }
    }

    fn merge(&mut self, mut later: Self) {
        self.uploads += later.uploads;
        self.upload_bytes += later.upload_bytes;
        self.update_uploads += later.update_uploads;
        self.update_bytes += later.update_bytes;
        if later.nodes.len() > self.nodes.len() {
            // Iterate the smaller (earlier) map into the later one. The
            // boundary pair is still (earlier last → later first); the
            // merged span keeps the earlier first and the later last.
            std::mem::swap(&mut self.nodes, &mut later.nodes);
            for (node, (first, last)) in later.nodes.drain() {
                match self.nodes.get_mut(&node) {
                    Some((their_first, _)) => {
                        if last != *their_first {
                            self.update_uploads += 1;
                            self.update_bytes += their_first.1;
                        }
                        *their_first = first;
                    }
                    None => {
                        self.nodes.insert(node, (first, last));
                    }
                }
            }
        } else {
            for (node, (first, last)) in later.nodes {
                match self.nodes.get_mut(&node) {
                    Some((_, my_last)) => {
                        // The later chunk's first upload of this node follows
                        // our last one: classify that boundary pair now.
                        if *my_last != first {
                            self.update_uploads += 1;
                            self.update_bytes += first.1;
                        }
                        *my_last = last;
                    }
                    None => {
                        self.nodes.insert(node, (first, last));
                    }
                }
            }
        }
    }

    fn finish(self) -> UpdateAnalysis {
        let mut out = UpdateAnalysis {
            uploads: self.uploads,
            update_uploads: self.update_uploads,
            upload_bytes: self.upload_bytes,
            update_bytes: self.update_bytes,
            update_op_fraction: 0.0,
            update_traffic_fraction: 0.0,
        };
        if out.uploads > 0 {
            out.update_op_fraction = out.update_uploads as f64 / out.uploads as f64;
        }
        if out.upload_bytes > 0 {
            out.update_traffic_fraction = out.update_bytes as f64 / out.upload_bytes as f64;
        }
        out
    }
}

pub fn update_analysis(records: &[TraceRecord]) -> UpdateAnalysis {
    crate::engine::run_fold(UpdateFold::new(), records)
}

/// Fig. 4(c): per-category share of files and of storage bytes.
#[derive(Debug, Clone, Serialize)]
pub struct TaxonomyShares {
    pub categories: Vec<&'static str>,
    pub file_share: Vec<f64>,
    pub byte_share: Vec<f64>,
}

/// Streaming state behind [`taxonomy_shares`]: last-writer-wins per node,
/// so merging extends with the later chunk's entries winning.
pub struct TaxonomyFold {
    node_cat: FxHashMap<u64, (FileCategory, u64)>,
}

impl TaxonomyFold {
    pub fn new() -> Self {
        Self {
            node_cat: FxHashMap::default(),
        }
    }
}

impl Default for TaxonomyFold {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFold for TaxonomyFold {
    type Output = TaxonomyShares;

    fn new_partial(&self) -> Self {
        TaxonomyFold::new()
    }

    fn feed(&mut self, rec: &TraceRecord) {
        if let Some(StorageDone {
            op: ApiOpKind::Upload,
            success: true,
            node: Some(node),
            size,
            ext,
            ..
        }) = rec.payload.storage()
        {
            self.node_cat
                .insert(node.raw(), (FileCategory::of_extension(ext), *size));
        }
    }

    fn merge(&mut self, mut later: Self) {
        // Last writer wins. When the later (winning) map is larger, make it
        // the base and let earlier entries only fill absent nodes.
        if later.node_cat.len() > self.node_cat.len() {
            std::mem::swap(&mut self.node_cat, &mut later.node_cat);
            for (node, v) in later.node_cat.drain() {
                self.node_cat.entry(node).or_insert(v);
            }
        } else {
            self.node_cat.extend(later.node_cat);
        }
    }

    fn finish(self) -> TaxonomyShares {
        let mut files: FxHashMap<FileCategory, u64> = FxHashMap::default();
        let mut bytes: FxHashMap<FileCategory, u64> = FxHashMap::default();
        for (cat, size) in self.node_cat.values() {
            *files.entry(*cat).or_default() += 1;
            *bytes.entry(*cat).or_default() += size;
        }
        let total_files: u64 = files.values().sum();
        let total_bytes: u64 = bytes.values().sum();
        TaxonomyShares {
            categories: FileCategory::ALL.iter().map(|c| c.label()).collect(),
            file_share: FileCategory::ALL
                .iter()
                .map(|c| files.get(c).copied().unwrap_or(0) as f64 / total_files.max(1) as f64)
                .collect(),
            byte_share: FileCategory::ALL
                .iter()
                .map(|c| bytes.get(c).copied().unwrap_or(0) as f64 / total_bytes.max(1) as f64)
                .collect(),
        }
    }
}

pub fn taxonomy_shares(records: &[TraceRecord]) -> TaxonomyShares {
    crate::engine::run_fold(TaxonomyFold::new(), records)
}

/// Fig. 4(b): size ECDF for all uploaded files plus chosen extensions.
#[derive(Debug, Clone, Serialize)]
pub struct SizeByExtension {
    pub all: Ecdf,
    pub by_ext: Vec<(String, Ecdf)>,
    pub under_1mb_fraction: f64,
}

/// Streaming state behind [`size_by_extension`]. The ECDF sorts at finish,
/// so chunk concatenation order never shows in the output.
pub struct SizeByExtFold {
    exts: Vec<String>,
    all: Vec<f64>,
    per: FxHashMap<String, Vec<f64>>,
}

impl SizeByExtFold {
    pub fn new(exts: Vec<String>) -> Self {
        Self {
            exts,
            all: Vec::new(),
            per: FxHashMap::default(),
        }
    }
}

impl TraceFold for SizeByExtFold {
    type Output = SizeByExtension;

    fn new_partial(&self) -> Self {
        SizeByExtFold::new(self.exts.clone())
    }

    fn feed(&mut self, rec: &TraceRecord) {
        if let Some(StorageDone {
            op: ApiOpKind::Upload,
            success: true,
            size,
            ext,
            ..
        }) = rec.payload.storage()
        {
            self.all.push(*size as f64);
            if self.exts.iter().any(|e| e.as_str() == ext.as_str()) {
                self.per
                    .entry(ext.to_string())
                    .or_default()
                    .push(*size as f64);
            }
        }
    }

    fn merge(&mut self, mut later: Self) {
        // Multiset buffers: the ECDFs sort at finish, so append onto
        // whichever side is larger instead of always copying `later`.
        if later.all.len() > self.all.len() {
            std::mem::swap(&mut self.all, &mut later.all);
        }
        self.all.append(&mut later.all);
        if later.per.len() > self.per.len() {
            std::mem::swap(&mut self.per, &mut later.per);
        }
        for (ext, mut sizes) in later.per.drain() {
            let mine = self.per.entry(ext).or_default();
            if sizes.len() > mine.len() {
                std::mem::swap(mine, &mut sizes);
            }
            mine.append(&mut sizes);
        }
    }

    fn finish(mut self) -> SizeByExtension {
        let all = Ecdf::new(self.all);
        let under_1mb_fraction = all.cdf(1_000_000.0);
        SizeByExtension {
            under_1mb_fraction,
            by_ext: self
                .exts
                .iter()
                .filter_map(|e| self.per.remove(e).map(|v| (e.to_string(), Ecdf::new(v))))
                .collect(),
            all,
        }
    }
}

pub fn size_by_extension(records: &[TraceRecord], exts: &[&str]) -> SizeByExtension {
    let exts = exts.iter().map(|e| e.to_string()).collect();
    crate::engine::run_fold(SizeByExtFold::new(exts), records)
}

/// Diurnal swing of upload traffic from an already-computed hourly series.
pub fn upload_diurnal_swing_from_series(ts: &TrafficSeries) -> f64 {
    let mut by_hour = vec![Vec::new(); 24];
    for (i, up) in ts.upload_bytes.iter().enumerate() {
        by_hour[i % 24].push(*up);
    }
    let means: Vec<f64> = by_hour.iter().map(|v| crate::stats::mean(v)).collect();
    let peak = means.iter().cloned().fold(0.0f64, f64::max);
    let trough = means.iter().cloned().fold(f64::MAX, f64::min).max(1.0);
    peak / trough
}

/// Diurnal swing of upload traffic (Fig. 2(a)'s "up to 10x higher").
pub fn upload_diurnal_swing(records: &[TraceRecord], horizon: SimTime) -> f64 {
    upload_diurnal_swing_from_series(&timeseries::traffic_per_hour(records, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;

    #[test]
    fn size_shares_split_ops_and_bytes() {
        let recs = vec![
            // 3 tiny uploads, 1 huge upload.
            transfer(at(1), Upload, 1, 1, 1, 1_000, 1, "txt"),
            transfer(at(2), Upload, 1, 1, 2, 2_000, 2, "txt"),
            transfer(at(3), Upload, 1, 1, 3, 3_000, 3, "txt"),
            transfer(at(4), Upload, 1, 1, 4, 100_000_000, 4, "iso"),
        ];
        let s = size_category_shares(&recs);
        assert!((s.upload_op_share[0] - 0.75).abs() < 1e-9, "{s:?}");
        assert!(s.upload_byte_share[4] > 0.99, "{s:?}");
        assert_eq!(s.download_op_share.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn rw_ratio_computes_hourly_and_profile() {
        // Hour 0: 100 up, 200 down → ratio 2. Hour 1: 100/50 → 0.5.
        let recs = vec![
            transfer(at(10), Upload, 1, 1, 1, 100, 1, "a"),
            transfer(at(20), Download, 1, 1, 1, 200, 1, "a"),
            transfer(at(3700), Upload, 1, 1, 2, 100, 2, "a"),
            transfer(at(3800), Download, 1, 1, 2, 50, 2, "a"),
        ];
        let rw = rw_ratio(&recs, SimTime::from_hours(2));
        assert_eq!(rw.hourly, vec![2.0, 0.5]);
        assert!((rw.mean - 1.25).abs() < 1e-9);
        assert_eq!(rw.by_hour_of_day[0], 2.0);
        assert_eq!(rw.by_hour_of_day[1], 0.5);
    }

    #[test]
    fn updates_require_changed_hash_or_size() {
        let recs = vec![
            transfer(at(1), Upload, 1, 1, 7, 100, 1, "txt"), // first upload
            transfer(at(2), Upload, 1, 1, 7, 100, 1, "txt"), // same content: not an update
            transfer(at(3), Upload, 1, 1, 7, 120, 2, "txt"), // update
            transfer(at(4), Upload, 1, 1, 8, 50, 3, "txt"),  // other node, first
        ];
        let u = update_analysis(&recs);
        assert_eq!(u.uploads, 4);
        assert_eq!(u.update_uploads, 1);
        assert_eq!(u.update_bytes, 120);
        assert!((u.update_op_fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    fn updates_split_across_chunks_match_serial() {
        let recs = vec![
            transfer(at(1), Upload, 1, 1, 7, 100, 1, "txt"),
            transfer(at(2), Upload, 1, 1, 7, 100, 1, "txt"),
            transfer(at(3), Upload, 1, 1, 7, 120, 2, "txt"),
            transfer(at(4), Upload, 1, 1, 8, 50, 3, "txt"),
            transfer(at(5), Upload, 1, 1, 8, 60, 4, "txt"),
        ];
        let serial = update_analysis(&recs);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = crate::engine::run_chunks(UpdateFold::new(), &[a, b]);
            assert_eq!(got, serial, "split={split}");
        }
    }

    #[test]
    fn taxonomy_counts_distinct_nodes_with_final_size() {
        let recs = vec![
            transfer(at(1), Upload, 1, 1, 1, 10, 1, "c"),
            transfer(at(2), Upload, 1, 1, 1, 30, 2, "c"), // updated same node
            transfer(at(3), Upload, 1, 1, 2, 4_000, 3, "mp3"),
        ];
        let t = taxonomy_shares(&recs);
        let code_idx = t.categories.iter().position(|c| *c == "code").unwrap();
        let av_idx = t
            .categories
            .iter()
            .position(|c| *c == "audio_video")
            .unwrap();
        assert!((t.file_share[code_idx] - 0.5).abs() < 1e-9);
        assert!((t.byte_share[av_idx] - 4000.0 / 4030.0).abs() < 1e-9);
    }

    #[test]
    fn size_by_extension_builds_requested_curves() {
        let recs = vec![
            transfer(at(1), Upload, 1, 1, 1, 100, 1, "jpg"),
            transfer(at(2), Upload, 1, 1, 2, 5_000_000, 2, "mp3"),
            transfer(at(3), Upload, 1, 1, 3, 200, 3, "txt"),
        ];
        let s = size_by_extension(&recs, &["jpg", "mp3"]);
        assert_eq!(s.all.len(), 3);
        assert_eq!(s.by_ext.len(), 2);
        assert!((s.under_1mb_fraction - 2.0 / 3.0).abs() < 1e-9);
    }
}
