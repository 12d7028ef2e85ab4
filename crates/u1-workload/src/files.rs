//! File model: extensions, sizes, content popularity (dedup) and planned
//! node lifetimes.

use rand::rngs::SmallRng;
use rand::Rng;
use u1_core::{paper, rngx};
use u1_core::{ContentHash, FileCategory, Name, SimDuration};

/// Extension frequency weights, shaped to Fig. 4(c): Code holds the most
/// files, Audio/Video few files but the most bytes, Docs ≈ 10% of files.
const EXT_WEIGHTS: &[(&str, f64)] = &[
    // code (~30% of files)
    ("c", 4.0),
    ("h", 4.5),
    ("py", 4.0),
    ("js", 3.5),
    ("java", 2.5),
    ("php", 2.0),
    ("html", 3.0),
    ("css", 2.0),
    ("xml", 2.5),
    ("json", 2.0),
    // pics (~20%)
    ("jpg", 12.0),
    ("png", 6.0),
    ("gif", 2.0),
    // docs (~10%)
    ("pdf", 3.5),
    ("txt", 3.0),
    ("doc", 1.5),
    ("docx", 1.0),
    ("odt", 0.5),
    ("tex", 0.5),
    // audio/video (~6%)
    ("mp3", 4.0),
    ("ogg", 0.8),
    ("mp4", 0.7),
    ("avi", 0.5),
    // binary (~12%)
    ("o", 5.0),
    ("pyc", 3.0),
    ("jar", 1.5),
    ("deb", 1.0),
    ("db", 1.5),
    // compressed (~5%)
    ("gz", 2.0),
    ("zip", 2.0),
    ("tar", 1.0),
    // other (~17%)
    ("log", 5.0),
    ("bak", 4.0),
    ("dat", 4.0),
    ("cfg", 4.0),
];

/// Log-normal size parameters per category: (median bytes, sigma). Tuned so
/// that ~90% of files are < 1MB overall (Fig. 4(b)) while Audio/Video and
/// Compressed dominate bytes (Fig. 4(c)) and >25MB files carry most traffic
/// (Fig. 2(b)).
fn size_params(cat: FileCategory) -> (f64, f64) {
    match cat {
        FileCategory::Code => (3_000.0, 1.5),
        FileCategory::Pics => (250_000.0, 1.2),
        FileCategory::Docs => (40_000.0, 1.8),
        FileCategory::AudioVideo => (3_500_000.0, 1.9),
        FileCategory::Binary => (60_000.0, 2.0),
        FileCategory::Compressed => (900_000.0, 2.3),
        FileCategory::Other => (15_000.0, 1.9),
    }
}

/// A sampled new file.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Generated names are short ("f123.ext"), so they stay inline in
    /// [`Name`] — no heap allocation per sampled file.
    pub name: Name,
    pub ext: &'static str,
    pub category: FileCategory,
    pub size: u64,
    pub content_id: u64,
    pub hash: ContentHash,
    /// Planned time from creation to deletion; `None` = outlives the trace.
    pub lifetime: Option<SimDuration>,
}

/// Global content-popularity pool: a small set of popular contents (songs,
/// installers...) that many users upload, producing the Fig. 4(a) long tail
/// and the 17% dedup ratio, plus unique contents for everything else.
///
/// Popular ranks map to a fixed (size, ext) identity derived from the pool
/// seed alone (see `FileModel::popular_identity`), so independent
/// per-partition pools agree on every popular content without sharing
/// state — cross-partition dedup (matching hash AND size) keeps working
/// under the parallel driver, and the mapping no longer depends on which
/// client happens to draw a rank first.
pub struct ContentPool {
    /// Size of the popular pool.
    popular: u64,
    /// Zipf exponent over popular ranks.
    zipf_s: f64,
    /// Probability that a new file's content comes from the popular pool.
    p_popular: f64,
    /// Unique-content ids advance by `stride` from a per-partition start, so
    /// concurrent partitions never collide or depend on interleaving.
    stride: u64,
    next_unique: u64,
}

impl ContentPool {
    /// `expected_files` scales the popular pool so duplication statistics
    /// are population-size independent.
    pub fn new(expected_files: u64) -> Self {
        Self::with_stride(expected_files, 0, 1)
    }

    /// A pool whose unique-content ids are the arithmetic sequence
    /// `(1 << 32) + partition + k * stride` — disjoint across partitions.
    pub fn with_stride(expected_files: u64, partition: u64, stride: u64) -> Self {
        debug_assert!(stride > 0 && partition < stride);
        Self {
            popular: (expected_files / 100).clamp(16, 500_000),
            zipf_s: 0.95,
            // Tuned to land dr ≈ 0.17 (§5.3) together with the Zipf skew.
            p_popular: 0.165,
            stride,
            next_unique: (1 << 32) + partition,
        }
    }

    /// A guaranteed-unique content id (file updates always produce new
    /// content — edits don't collide).
    pub fn unique(&mut self) -> u64 {
        self.next_unique += self.stride;
        self.next_unique
    }
}

/// Stateful file generator.
pub struct FileModel {
    pool: ContentPool,
    ext_cdf: Vec<(&'static str, f64)>,
    /// Seed the popular-rank identities are derived from. Every partition
    /// of one experiment must share it.
    pool_seed: u64,
    next_name: u64,
    name_stride: u64,
}

impl FileModel {
    pub fn new(expected_files: u64) -> Self {
        Self::with_partition(expected_files, 0, 0, 1)
    }

    /// A file model for one driver partition: names and unique content ids
    /// advance by `stride` from `partition`, so the id spaces of concurrent
    /// partitions are disjoint and independent of execution interleaving.
    /// `partition 0, stride 1` reproduces the legacy single-threaded
    /// sequences exactly.
    pub fn with_partition(
        expected_files: u64,
        pool_seed: u64,
        partition: u64,
        stride: u64,
    ) -> Self {
        debug_assert!(stride > 0 && partition < stride);
        let total: f64 = EXT_WEIGHTS.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        let ext_cdf = EXT_WEIGHTS
            .iter()
            .map(|(e, w)| {
                acc += w / total;
                (*e, acc)
            })
            .collect();
        Self {
            pool: ContentPool::with_stride(expected_files, partition, stride),
            ext_cdf,
            pool_seed,
            next_name: partition,
            name_stride: stride,
        }
    }

    /// The fixed (size, ext) identity of a popular content rank, with the
    /// extension's category, derived from the pool seed alone. Dedup
    /// requires matching hash AND size, so every drawer of a rank must agree
    /// on its size without coordination.
    fn popular_identity(&self, rank: u64) -> (u64, &'static str, FileCategory) {
        let mut rng = rngx::sub_rng(self.pool_seed, "popular-content", rank);
        let ext = self.sample_ext(&mut rng);
        let category = FileCategory::of_extension(ext);
        (Self::sample_size(&mut rng, category), ext, category)
    }

    fn sample_ext(&self, rng: &mut SmallRng) -> &'static str {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.ext_cdf
            .iter()
            .find(|(_, cum)| u <= *cum)
            .map(|(e, _)| *e)
            .unwrap_or("dat")
    }

    fn sample_size(rng: &mut SmallRng, cat: FileCategory) -> u64 {
        let (median, sigma) = size_params(cat);
        let size = rngx::sample_lognormal(rng, median.ln(), sigma);
        (size as u64).clamp(1, 8 << 30)
    }

    /// Samples the planned lifetime of a new node, honoring the Fig. 3(c)
    /// mortality profile.
    pub fn sample_lifetime(rng: &mut SmallRng, is_dir: bool) -> Option<SimDuration> {
        let (p_8h, p_month) = if is_dir {
            (
                paper::DIR_DEATH_IN_8H.value,
                paper::DIR_DEATH_IN_MONTH.value,
            )
        } else {
            (
                paper::FILE_DEATH_IN_8H.value,
                paper::FILE_DEATH_IN_MONTH.value,
            )
        };
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < p_8h {
            // Dies within 8 hours: log-uniform between 60s and 8h.
            let lo = 60.0f64;
            let hi = 8.0 * 3600.0;
            let secs = lo * (hi / lo).powf(rng.gen_range(0.0..1.0));
            Some(SimDuration::from_secs_f64(secs))
        } else if u < p_month {
            // Dies later in the month: log-uniform between 8h and 30d.
            let lo = 8.0 * 3600.0f64;
            let hi = 30.0 * 86_400.0;
            let secs = lo * (hi / lo).powf(rng.gen_range(0.0..1.0));
            Some(SimDuration::from_secs_f64(secs))
        } else {
            None
        }
    }

    /// Samples a brand-new file.
    pub fn new_file(&mut self, rng: &mut SmallRng) -> FileSpec {
        let ext = self.sample_ext(rng);
        let category = FileCategory::of_extension(ext);
        let default_size = Self::sample_size(rng, category);
        let (content_id, size, ext, category) = if rng.gen_range(0.0..1.0) < self.pool.p_popular {
            let rank = rngx::sample_zipf(rng, self.pool.popular, self.pool.zipf_s);
            let (size, ext, category) = self.popular_identity(rank);
            (rank, size, ext, category)
        } else {
            (self.pool.unique(), default_size, ext, category)
        };
        self.next_name += self.name_stride;
        FileSpec {
            name: Name::from_fmt(format_args!("f{}.{}", self.next_name, ext)),
            ext,
            category,
            size,
            content_id,
            hash: ContentHash::from_content_id(content_id),
            lifetime: Self::sample_lifetime(rng, false),
        }
    }

    /// Samples the updated content of an existing file: new unique content,
    /// size jittered around the old one (edits grow/shrink files slightly;
    /// re-tagged media keeps its size).
    pub fn updated_file(&mut self, rng: &mut SmallRng, old_size: u64) -> (u64, ContentHash, u64) {
        let content_id = self.pool.unique();
        let factor = 1.0 + rng.gen_range(-0.10..0.12);
        let size = ((old_size as f64 * factor) as u64).max(1);
        (content_id, ContentHash::from_content_id(content_id), size)
    }

    /// Fresh directory name (short enough to stay inline in [`Name`]).
    pub fn new_dir_name(&mut self) -> Name {
        self.next_name += self.name_stride;
        Name::from_fmt(format_args!("dir{}", self.next_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn model_and_rng() -> (FileModel, SmallRng) {
        (FileModel::new(100_000), SmallRng::seed_from_u64(42))
    }

    #[test]
    fn ninety_percent_of_files_are_under_1mb() {
        let (mut m, mut rng) = model_and_rng();
        let n = 20_000;
        let small = (0..n)
            .filter(|_| m.new_file(&mut rng).size < 1_000_000)
            .count();
        let frac = small as f64 / n as f64;
        assert!((0.84..=0.95).contains(&frac), "under-1MB fraction {frac}");
    }

    #[test]
    fn code_dominates_count_audio_video_dominates_bytes() {
        let (mut m, mut rng) = model_and_rng();
        let mut count: HashMap<FileCategory, u64> = HashMap::new();
        let mut bytes: HashMap<FileCategory, u64> = HashMap::new();
        for _ in 0..30_000 {
            let f = m.new_file(&mut rng);
            *count.entry(f.category).or_default() += 1;
            *bytes.entry(f.category).or_default() += f.size;
        }
        let code_count = count[&FileCategory::Code];
        let av_bytes = bytes[&FileCategory::AudioVideo];
        assert!(
            count
                .iter()
                .all(|(c, n)| *c == FileCategory::Code || *n <= code_count),
            "{count:?}"
        );
        assert!(
            bytes
                .iter()
                .all(|(c, b)| *c == FileCategory::AudioVideo || *b <= av_bytes),
            "{bytes:?}"
        );
        // Code's storage share is small despite its count lead (Fig. 4(c)).
        let total_bytes: u64 = bytes.values().sum();
        assert!((bytes[&FileCategory::Code] as f64) < 0.05 * total_bytes as f64);
    }

    #[test]
    fn duplicate_contents_share_size_and_hash() {
        let (mut m, mut rng) = model_and_rng();
        let mut seen: HashMap<u64, (u64, ContentHash)> = HashMap::new();
        let mut dups = 0;
        for _ in 0..20_000 {
            let f = m.new_file(&mut rng);
            if let Some((size, hash)) = seen.get(&f.content_id) {
                dups += 1;
                assert_eq!(*size, f.size, "dedup requires identical size");
                assert_eq!(*hash, f.hash);
            } else {
                seen.insert(f.content_id, (f.size, f.hash));
            }
        }
        assert!(dups > 500, "expect meaningful duplication, got {dups}");
    }

    #[test]
    fn dedup_byte_ratio_lands_near_paper_value() {
        let (mut m, mut rng) = model_and_rng();
        let mut unique: HashMap<u64, u64> = HashMap::new();
        let mut total = 0u64;
        for _ in 0..60_000 {
            let f = m.new_file(&mut rng);
            total += f.size;
            unique.entry(f.content_id).or_insert(f.size);
        }
        let unique_bytes: u64 = unique.values().sum();
        let dr = 1.0 - unique_bytes as f64 / total as f64;
        assert!(
            (0.05..=0.30).contains(&dr),
            "dedup ratio {dr} too far from paper's 0.171"
        );
    }

    #[test]
    fn lifetimes_match_mortality_profile() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 50_000;
        let mut die_8h = 0;
        let mut die_month = 0;
        for _ in 0..n {
            match FileModel::sample_lifetime(&mut rng, false) {
                Some(d) if d <= SimDuration::from_hours(8) => {
                    die_8h += 1;
                    die_month += 1;
                }
                Some(_) => die_month += 1,
                None => {}
            }
        }
        let f8 = die_8h as f64 / n as f64;
        let fm = die_month as f64 / n as f64;
        for (got, row) in [
            (f8, paper::FILE_DEATH_IN_8H),
            (fm, paper::FILE_DEATH_IN_MONTH),
        ] {
            assert!((got - row.value).abs() < 0.02, "{} {got}", row.id);
        }
    }

    #[test]
    fn updates_always_get_fresh_content() {
        let (mut m, mut rng) = model_and_rng();
        let (c1, h1, s1) = m.updated_file(&mut rng, 1000);
        let (c2, h2, _) = m.updated_file(&mut rng, 1000);
        assert_ne!(c1, c2);
        assert_ne!(h1, h2);
        assert!((890..=1130).contains(&s1), "size jitter near old: {s1}");
    }
}
