//! Storage-workload analyses (§5.1, §5.3): size-category traffic shares,
//! R/W ratios, update overhead, file-type taxonomy and size distributions.

use crate::engine::EXTS;
use crate::stats::{acf, Acf, Ecdf};
use crate::timeseries::TrafficSeries;
use serde::Serialize;
use u1_core::{ApiOpKind, ByteSize, FileCategory, SizeCategory};

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

/// Transfer ops and bytes per size bucket, in [`SizeCategory::ALL`] order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SizeCounts {
    up_ops: [u64; 5],
    up_bytes: [u64; 5],
    down_ops: [u64; 5],
    down_bytes: [u64; 5],
}

impl SizeCounts {
    /// Counts one successful storage op, if it moved file contents.
    pub(crate) fn add(&mut self, op: ApiOpKind, size: u64) {
        let i = SizeCategory::of(ByteSize(size)) as usize;
        let (ops, bytes) = match op {
            ApiOpKind::Upload => (&mut self.up_ops, &mut self.up_bytes),
            ApiOpKind::Download => (&mut self.down_ops, &mut self.down_bytes),
            _ => return,
        };
        ops[i] += 1;
        bytes[i] += size;
    }

    pub(crate) fn merge(&mut self, later: &SizeCounts) {
        for i in 0..5 {
            self.up_ops[i] += later.up_ops[i];
            self.up_bytes[i] += later.up_bytes[i];
            self.down_ops[i] += later.down_ops[i];
            self.down_bytes[i] += later.down_bytes[i];
        }
    }

    pub(crate) fn finish(&self) -> SizeCategoryShares {
        let share = |xs: &[u64; 5]| -> Vec<f64> {
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
            upload_op_share: share(&self.up_ops),
            upload_byte_share: share(&self.up_bytes),
            download_op_share: share(&self.down_ops),
            download_byte_share: share(&self.down_bytes),
        }
    }
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

/// The R/W analysis of the hourly traffic series.
pub(crate) fn rw_ratio_from_series(ts: &TrafficSeries) -> RwRatioAnalysis {
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

/// §5.1: updates — uploads to a node that already had different content.
#[derive(Debug, Clone, Default, Serialize, PartialEq)]
pub struct UpdateAnalysis {
    pub uploads: u64,
    pub update_uploads: u64,
    pub upload_bytes: u64,
    pub update_bytes: u64,
    pub update_op_fraction: f64,
    pub update_traffic_fraction: f64,
}

/// What an upload carried: its content — the hash, if any, or the
/// battery's slot for it — and its size.
pub(crate) type Content<C> = (C, u64);

/// One node's successful uploads within one chunk of the trace. An
/// "update" compares each upload with the node's *previous* one, so the
/// chunk's first upload is kept for the merge to compare with the earlier
/// chunk's last. The last upload's file category is the node's for Fig.
/// 4(c), which counts each node once, as last written. Flat, so that with
/// `u32` content slots it packs into 32 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Uploads<C> {
    first: C,
    first_size: u64,
    last: C,
    pub last_size: u64,
    pub category: FileCategory,
}

impl<C: Copy> Uploads<C> {
    fn first(&self) -> Content<C> {
        (self.first, self.first_size)
    }

    fn last(&self) -> Content<C> {
        (self.last, self.last_size)
    }

    fn set_last(&mut self, (content, size): Content<C>, category: FileCategory) {
        (self.last, self.last_size, self.category) = (content, size, category);
    }

    /// Renames both contents.
    pub(crate) fn map_contents(&mut self, f: impl Fn(C) -> C) {
        self.first = f(self.first);
        self.last = f(self.last);
    }
}

impl UpdateAnalysis {
    fn count_update(&mut self, bytes: u64) {
        self.update_uploads += 1;
        self.update_bytes += bytes;
    }

    /// One successful upload to a node.
    pub(crate) fn upload<C: Copy + PartialEq>(
        &mut self,
        node: &mut Option<Uploads<C>>,
        content: Content<C>,
        category: FileCategory,
    ) {
        self.uploads += 1;
        self.upload_bytes += content.1;
        match node {
            Some(seen) => {
                // The paper's definition: "an upload of an existing file
                // that has distinct hash/size".
                if seen.last() != content {
                    self.count_update(content.1);
                }
                seen.set_last(content, category);
            }
            None => {
                *node = Some(Uploads {
                    first: content.0,
                    first_size: content.1,
                    last: content.0,
                    last_size: content.1,
                    category,
                })
            }
        }
    }

    /// Appends the same node's uploads in the chunk after this one,
    /// classifying the one upload pair that spans the boundary.
    pub(crate) fn join<C: Copy + PartialEq>(
        &mut self,
        earlier: &mut Option<Uploads<C>>,
        later: Option<Uploads<C>>,
    ) {
        match (earlier.as_mut(), later) {
            (Some(seen), Some(next)) => {
                if seen.last() != next.first() {
                    self.count_update(next.first_size);
                }
                seen.set_last(next.last(), next.category);
            }
            (None, next) if next.is_some() => *earlier = next,
            _ => {}
        }
    }

    /// Adds the counts of the chunk after this one.
    pub(crate) fn merge(&mut self, later: &UpdateAnalysis) {
        self.uploads += later.uploads;
        self.update_uploads += later.update_uploads;
        self.upload_bytes += later.upload_bytes;
        self.update_bytes += later.update_bytes;
    }

    pub(crate) fn finish(mut self) -> UpdateAnalysis {
        if self.uploads > 0 {
            self.update_op_fraction = self.update_uploads as f64 / self.uploads as f64;
        }
        if self.upload_bytes > 0 {
            self.update_traffic_fraction = self.update_bytes as f64 / self.upload_bytes as f64;
        }
        self
    }
}

/// Fig. 4(c): per-category share of files and of storage bytes.
#[derive(Debug, Clone, Serialize)]
pub struct TaxonomyShares {
    pub categories: Vec<&'static str>,
    pub file_share: Vec<f64>,
    pub byte_share: Vec<f64>,
}

/// Fig. 4(c) over every uploaded node's category and size as last written.
pub(crate) fn taxonomy(nodes: impl Iterator<Item = (FileCategory, u64)>) -> TaxonomyShares {
    let mut files = [0u64; 7];
    let mut bytes = [0u64; 7];
    for (cat, size) in nodes {
        files[cat as usize] += 1;
        bytes[cat as usize] += size;
    }
    let share = |xs: &[u64; 7]| {
        let total = xs.iter().sum::<u64>().max(1) as f64;
        xs.iter().map(|&x| x as f64 / total).collect()
    };
    TaxonomyShares {
        categories: FileCategory::ALL.iter().map(|c| c.label()).collect(),
        file_share: share(&files),
        byte_share: share(&bytes),
    }
}

/// Fig. 4(b): size ECDF for all uploaded files plus chosen extensions.
#[derive(Debug, Clone, Serialize)]
pub struct SizeByExtension {
    pub all: Ecdf,
    pub by_ext: Vec<(String, Ecdf)>,
    pub under_1mb_fraction: f64,
}

/// Fig. 4(b) from the upload sizes: all of them, and those of each
/// extension of [`EXTS`] (`per[i]` holds `EXTS[i]`'s; an extension with no
/// uploads gets no curve).
pub(crate) fn size_by_ext(all: Vec<u64>, per: Vec<Vec<u64>>) -> SizeByExtension {
    let all = Ecdf::from_ints(all, |s| s as f64);
    SizeByExtension {
        under_1mb_fraction: all.cdf(1_000_000.0),
        by_ext: EXTS
            .iter()
            .zip(per)
            .filter(|(_, sizes)| !sizes.is_empty())
            .map(|(e, sizes)| (e.to_string(), Ecdf::from_ints(sizes, |s| s as f64)))
            .collect(),
        all,
    }
}

/// Diurnal swing of upload traffic (Fig. 2(a)'s "up to 10x higher"): the
/// busiest hour of day's mean over the quietest's.
pub(crate) fn upload_diurnal_swing_from_series(ts: &TrafficSeries) -> f64 {
    let mut by_hour = vec![Vec::new(); 24];
    for (i, up) in ts.upload_bytes.iter().enumerate() {
        by_hour[i % 24].push(*up);
    }
    let means: Vec<f64> = by_hour.iter().map(|v| crate::stats::mean(v)).collect();
    let peak = means.iter().cloned().fold(0.0f64, f64::max);
    let trough = means.iter().cloned().fold(f64::MAX, f64::min).max(1.0);
    peak / trough
}

#[cfg(test)]
mod tests {
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;
    use u1_core::SimTime;

    #[test]
    fn size_shares_split_ops_and_bytes() {
        let recs = vec![
            // 3 tiny uploads, 1 huge upload.
            transfer(at(1), Upload, 1, 1, 1, 1_000, 1, "txt"),
            transfer(at(2), Upload, 1, 1, 2, 2_000, 2, "txt"),
            transfer(at(3), Upload, 1, 1, 3, 3_000, 3, "txt"),
            transfer(at(4), Upload, 1, 1, 4, 100_000_000, 4, "iso"),
        ];
        let s = chunked(&[&recs], at(60)).size_shares;
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
        let rw = chunked(&[&recs], SimTime::from_hours(2)).rw;
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
        let u = chunked(&[&recs], at(60)).updates;
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
        let serial = chunked(&[&recs], at(60)).updates;
        assert_eq!((serial.update_uploads, serial.update_bytes), (2, 180));
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = chunked(&[a, b], at(60)).updates;
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
        let t = chunked(&[&recs], at(60)).taxonomy;
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
        // The default configuration asks for jpg, mp3 and four more.
        let s = chunked(&[&recs], at(60)).size_by_ext;
        assert_eq!(s.all.len(), 3);
        assert_eq!(s.by_ext.len(), 2);
        assert!((s.under_1mb_fraction - 2.0 / 3.0).abs() < 1e-9);
    }
}
