//! Byte quantities and the file-size categories of Fig. 2(b).

use serde::Serialize;
use std::fmt;

pub const KIB: u64 = 1 << 10;
pub const MIB: u64 = 1 << 20;
pub const GIB: u64 = 1 << 30;
pub const TIB: u64 = 1 << 40;

/// A byte count with humane formatting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Debug)]
pub struct ByteSize(pub u64);

impl ByteSize {
    pub const fn new(bytes: u64) -> Self {
        Self(bytes)
    }
    pub const fn mib(m: u64) -> Self {
        Self(m * MIB)
    }
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::ops::Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 < KIB {
            write!(f, "{}B", self.0)
        } else if self.0 < MIB {
            write!(f, "{:.1}KiB", b / KIB as f64)
        } else if self.0 < GIB {
            write!(f, "{:.1}MiB", b / MIB as f64)
        } else if self.0 < TIB {
            write!(f, "{:.2}GiB", b / GIB as f64)
        } else {
            write!(f, "{:.2}TiB", b / TIB as f64)
        }
    }
}

/// The five file-size buckets of Fig. 2(b): `x<0.5`, `0.5<x<1`, `1<x<5`,
/// `5<x<25`, `25<x` (MBytes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub enum SizeCategory {
    /// < 0.5 MB
    Tiny,
    /// 0.5–1 MB
    Small,
    /// 1–5 MB
    Medium,
    /// 5–25 MB
    Large,
    /// > 25 MB
    Huge,
}

impl SizeCategory {
    pub const ALL: [SizeCategory; 5] = [
        SizeCategory::Tiny,
        SizeCategory::Small,
        SizeCategory::Medium,
        SizeCategory::Large,
        SizeCategory::Huge,
    ];

    /// Buckets a file size. The paper uses decimal megabytes.
    pub fn of(size: ByteSize) -> SizeCategory {
        const MB: u64 = 1_000_000;
        let b = size.0;
        if b < MB / 2 {
            SizeCategory::Tiny
        } else if b < MB {
            SizeCategory::Small
        } else if b < 5 * MB {
            SizeCategory::Medium
        } else if b < 25 * MB {
            SizeCategory::Large
        } else {
            SizeCategory::Huge
        }
    }

    /// Axis label used by the Fig. 2(b) reproduction.
    pub fn label(self) -> &'static str {
        match self {
            SizeCategory::Tiny => "x<0.5",
            SizeCategory::Small => "0.5<x<1",
            SizeCategory::Medium => "1<x<5",
            SizeCategory::Large => "5<x<25",
            SizeCategory::Huge => "25<x",
        }
    }
}

impl fmt::Display for SizeCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_categories_match_fig2b_edges() {
        assert_eq!(SizeCategory::of(ByteSize(0)), SizeCategory::Tiny);
        assert_eq!(SizeCategory::of(ByteSize(499_999)), SizeCategory::Tiny);
        assert_eq!(SizeCategory::of(ByteSize(500_000)), SizeCategory::Small);
        assert_eq!(SizeCategory::of(ByteSize(999_999)), SizeCategory::Small);
        assert_eq!(SizeCategory::of(ByteSize(1_000_000)), SizeCategory::Medium);
        assert_eq!(SizeCategory::of(ByteSize(4_999_999)), SizeCategory::Medium);
        assert_eq!(SizeCategory::of(ByteSize(5_000_000)), SizeCategory::Large);
        assert_eq!(SizeCategory::of(ByteSize(24_999_999)), SizeCategory::Large);
        assert_eq!(SizeCategory::of(ByteSize(25_000_000)), SizeCategory::Huge);
    }

    #[test]
    fn byte_size_formats() {
        assert_eq!(ByteSize(512).to_string(), "512B");
        assert_eq!(ByteSize(2 * KIB).to_string(), "2.0KiB");
        assert_eq!(ByteSize::mib(3).to_string(), "3.0MiB");
        assert_eq!(ByteSize(GIB).to_string(), "1.00GiB");
        assert_eq!(ByteSize(2 * TIB).to_string(), "2.00TiB");
    }

    #[test]
    fn byte_size_sums() {
        let total: ByteSize = [ByteSize(1), ByteSize(2), ByteSize(3)].into_iter().sum();
        assert_eq!(total, ByteSize(6));
        let mut b = ByteSize(1);
        b += ByteSize(9);
        assert_eq!(b + ByteSize(10), ByteSize(20));
    }
}
