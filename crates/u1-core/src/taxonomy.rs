//! The file-type taxonomy of §5.3 of the paper.
//!
//! The authors classified the 55 most popular file extensions into 7
//! categories — Pics, Code, Docs, Audio/Video, Application/Binary and
//! Compressed (plus an implicit Other) — and studied the number-of-files vs
//! storage-share trade-off per category (Fig. 4(c)).

use serde::Serialize;
use std::fmt;

/// One of the paper's file categories.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum FileCategory {
    Pics,
    Code,
    Docs,
    AudioVideo,
    Binary,
    Compressed,
    Other,
}

impl FileCategory {
    /// All categories, in a stable presentation order.
    pub const ALL: [FileCategory; 7] = [
        FileCategory::Pics,
        FileCategory::Code,
        FileCategory::Docs,
        FileCategory::AudioVideo,
        FileCategory::Binary,
        FileCategory::Compressed,
        FileCategory::Other,
    ];

    /// Classifies a file extension (without the leading dot, case-insensitive).
    pub fn of_extension(ext: &str) -> FileCategory {
        let lower = ext.to_ascii_lowercase();
        match lower.as_str() {
            // Pics: .jpg, .png, .gif, etc.
            "jpg" | "jpeg" | "png" | "gif" | "bmp" | "tiff" | "svg" | "ico" | "raw" | "xcf" => {
                FileCategory::Pics
            }
            // Code: .php, .c, .js, etc.
            "php" | "c" | "h" | "cpp" | "hpp" | "js" | "py" | "java" | "rb" | "pl" | "sh"
            | "css" | "html" | "htm" | "xml" | "json" | "rs" | "go" | "sql" | "patch" => {
                FileCategory::Code
            }
            // Docs: .pdf, .txt, .doc, etc.
            "pdf" | "txt" | "doc" | "docx" | "odt" | "xls" | "xlsx" | "ods" | "ppt" | "pptx"
            | "odp" | "tex" | "md" | "rtf" | "csv" => FileCategory::Docs,
            // Audio/Video: .mp3, .wav, .ogg, etc.
            "mp3" | "wav" | "ogg" | "flac" | "m4a" | "wma" | "mp4" | "avi" | "mkv" | "mov"
            | "webm" | "flv" => FileCategory::AudioVideo,
            // Application/Binary: .o, .msf, .jar, etc.
            "o" | "msf" | "jar" | "so" | "dll" | "exe" | "bin" | "deb" | "rpm" | "iso" | "img"
            | "pyc" | "class" | "db" | "sqlite" => FileCategory::Binary,
            // Compressed: .gz, .zip, etc.
            "gz" | "zip" | "bz2" | "xz" | "7z" | "rar" | "tar" | "tgz" => FileCategory::Compressed,
            _ => FileCategory::Other,
        }
    }

    /// Classifies a file name by its final extension.
    pub fn of_filename(name: &str) -> FileCategory {
        match name.rsplit_once('.') {
            Some((stem, ext)) if !stem.is_empty() && !ext.is_empty() => Self::of_extension(ext),
            _ => FileCategory::Other,
        }
    }

    /// Whether files in this category are typically already compressed and so
    /// gain little from the client's transfer compression (§5.3: "compressing
    /// files does not provide much benefits in many cases").
    pub fn is_incompressible(self) -> bool {
        matches!(
            self,
            FileCategory::Compressed | FileCategory::AudioVideo | FileCategory::Pics
        )
    }

    /// Stable label used in reports and trace lines.
    pub fn label(self) -> &'static str {
        match self {
            FileCategory::Pics => "pics",
            FileCategory::Code => "code",
            FileCategory::Docs => "docs",
            FileCategory::AudioVideo => "audio_video",
            FileCategory::Binary => "binary",
            FileCategory::Compressed => "compressed",
            FileCategory::Other => "other",
        }
    }

    /// Parses a label produced by [`FileCategory::label`].
    pub fn from_label(s: &str) -> Option<FileCategory> {
        Self::ALL.into_iter().find(|c| c.label() == s)
    }
}

impl fmt::Display for FileCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Extensions the workload generator draws from, mirroring the "55 most
/// popular extensions" the paper classified, with the six Fig. 4(b)
/// exemplars (`jpg mp3 pdf doc java zip`) present.
pub const POPULAR_EXTENSIONS: &[&str] = &[
    // pics
    "jpg", "png", "gif", "bmp", "svg", "ico", "tiff", "xcf", // code
    "php", "c", "h", "cpp", "js", "py", "java", "rb", "css", "html", "xml", "json", "sh", "sql",
    // docs
    "pdf", "txt", "doc", "docx", "odt", "xls", "ppt", "tex", "md", "csv", // audio/video
    "mp3", "wav", "ogg", "flac", "m4a", "mp4", "avi", "mkv", "mov", // binary
    "o", "jar", "so", "exe", "bin", "deb", "iso", "pyc", "db", // compressed
    "gz", "zip", "bz2", "7z", "rar", "tar",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4b_exemplars_classify_as_in_the_paper() {
        assert_eq!(FileCategory::of_extension("jpg"), FileCategory::Pics);
        assert_eq!(FileCategory::of_extension("mp3"), FileCategory::AudioVideo);
        assert_eq!(FileCategory::of_extension("pdf"), FileCategory::Docs);
        assert_eq!(FileCategory::of_extension("doc"), FileCategory::Docs);
        assert_eq!(FileCategory::of_extension("java"), FileCategory::Code);
        assert_eq!(FileCategory::of_extension("zip"), FileCategory::Compressed);
    }

    #[test]
    fn classification_is_case_insensitive() {
        assert_eq!(FileCategory::of_extension("JPG"), FileCategory::Pics);
        assert_eq!(FileCategory::of_extension("Mp3"), FileCategory::AudioVideo);
    }

    #[test]
    fn filename_classification_handles_edge_cases() {
        assert_eq!(
            FileCategory::of_filename("a.tar.gz"),
            FileCategory::Compressed
        );
        assert_eq!(FileCategory::of_filename("noext"), FileCategory::Other);
        assert_eq!(FileCategory::of_filename(".bashrc"), FileCategory::Other);
        assert_eq!(
            FileCategory::of_filename("trailingdot."),
            FileCategory::Other
        );
        assert_eq!(
            FileCategory::of_filename("song.mp3"),
            FileCategory::AudioVideo
        );
    }

    #[test]
    fn label_round_trips() {
        for c in FileCategory::ALL {
            assert_eq!(FileCategory::from_label(c.label()), Some(c));
        }
        assert_eq!(FileCategory::from_label("nope"), None);
    }

    #[test]
    fn incompressibility_matches_section_5_3() {
        assert!(FileCategory::Compressed.is_incompressible());
        assert!(FileCategory::AudioVideo.is_incompressible());
        assert!(!FileCategory::Docs.is_incompressible());
        assert!(!FileCategory::Code.is_incompressible());
    }

    #[test]
    fn popular_extensions_all_classify_non_other() {
        for ext in POPULAR_EXTENSIONS {
            assert_ne!(
                FileCategory::of_extension(ext),
                FileCategory::Other,
                "{ext} should be categorized"
            );
        }
    }
}
