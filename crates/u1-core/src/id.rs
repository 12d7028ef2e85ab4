//! Strongly-typed identifiers for the U1 protocol entities (§3.1.1).
//!
//! The real system used back-end-generated UUIDs for nodes and contents. We
//! keep ids as compact integers (`u64` / 160-bit hashes) because the
//! reproduction routinely simulates tens of millions of events; the types
//! below make it impossible to confuse, say, a volume id with a node id.

use serde::Serialize;
use std::fmt;

macro_rules! impl_u64_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Wraps a raw integer id.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw integer id.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

impl_u64_id!(
    /// A user account. The paper traced 1,294,794 distinct users.
    UserId,
    "u"
);
impl_u64_id!(
    /// A volume: a container of nodes (§3.1.1). Volume 0 is the root volume
    /// created at client install time; others are user-defined folders (UDFs)
    /// or shares.
    VolumeId,
    "v"
);
impl_u64_id!(
    /// A node: a file or directory inside a volume.
    NodeId,
    "n"
);
impl_u64_id!(
    /// A storage-protocol session. One session per connected desktop client;
    /// sessions end when the TCP connection drops (§3.1.1).
    SessionId,
    "s"
);
impl_u64_id!(
    /// A server-side multipart upload job (Appendix A).
    UploadId,
    "j"
);

/// A shard of the metadata store. The production cluster had 10 shards of
/// 2 servers each (§3.4); operations are routed to shards by user id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default, Debug)]
pub struct ShardId(pub u16);

impl ShardId {
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// A physical machine in the Canonical datacenter. API/RPC processes ran on
/// 6 machines named after fruit (the paper shows `whitecurrant`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default, Debug)]
pub struct MachineId(pub u16);

impl MachineId {
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The fruit machine names used in trace logfile names, mirroring the
    /// paper's `production-whitecurrant-23-20140128` example.
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 12] = [
            "whitecurrant",
            "blackcurrant",
            "gooseberry",
            "boysenberry",
            "cloudberry",
            "elderberry",
            "huckleberry",
            "loganberry",
            "mulberry",
            "salmonberry",
            "serviceberry",
            "thimbleberry",
        ];
        NAMES[self.0 as usize % NAMES.len()]
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An API/RPC server process. Unique within a machine (§4): "the identifier
/// of the process is unique within a machine".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default, Debug)]
pub struct ProcessId(pub u16);

impl ProcessId {
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The SHA-1 digest of a file's contents. U1 desktop clients send this hash
/// before uploading so the server can deduplicate at file granularity (§3.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct ContentHash(pub [u8; 20]);

impl ContentHash {
    /// The hash of the empty file.
    pub const EMPTY: ContentHash = ContentHash([
        0xda, 0x39, 0xa3, 0xee, 0x5e, 0x6b, 0x4b, 0x0d, 0x32, 0x55, 0xbf, 0xef, 0x95, 0x60, 0x18,
        0x90, 0xaf, 0xd8, 0x07, 0x09,
    ]);

    pub const fn new(raw: [u8; 20]) -> Self {
        Self(raw)
    }

    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Builds a synthetic hash from a 64-bit content identity. The workload
    /// generator models content popularity with integer ids; expanding them
    /// through SHA-1 keeps hashes uniformly distributed and collision-free at
    /// simulation scale while exercising the same dedup lookup paths.
    pub fn from_content_id(id: u64) -> Self {
        crate::sha1::Sha1::digest(&id.to_be_bytes())
    }

    /// Hex encoding, as it appears in trace log lines.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(40);
        let _ = self.write_hex(&mut s);
        s
    }

    /// The 40 hex digits as ASCII bytes, for encoders that build a line as
    /// bytes (the trace serializer does, on every transfer line).
    pub fn hex_bytes(&self) -> [u8; 40] {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut buf = [0u8; 40];
        for (pair, b) in buf.chunks_exact_mut(2).zip(&self.0) {
            pair[0] = HEX[(b >> 4) as usize];
            pair[1] = HEX[(b & 0xf) as usize];
        }
        buf
    }

    /// Writes the 40-char hex form into `out` without allocating.
    pub fn write_hex<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        // Built from the hex alphabet, so it is ASCII.
        out.write_str(std::str::from_utf8(&self.hex_bytes()).unwrap_or("-"))
    }

    /// Parses the 40-char hex form produced by [`ContentHash::to_hex`].
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 40 || !s.is_ascii() {
            return None;
        }
        let mut raw = [0u8; 20];
        let bytes = s.as_bytes();
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            raw[i] = ((hi << 4) | lo) as u8;
        }
        Some(Self(raw))
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sha1:{}", self.to_hex())
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Whether a node is a file or a directory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum NodeKind {
    File,
    Directory,
}

impl NodeKind {
    pub fn is_file(self) -> bool {
        matches!(self, NodeKind::File)
    }
    pub fn is_dir(self) -> bool {
        matches!(self, NodeKind::Directory)
    }
}

/// The three volume kinds of §3.1.1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum VolumeKind {
    /// The predefined `~/Ubuntu One` volume with id 0.
    Root,
    /// A user-defined folder (UDF).
    UserDefined,
    /// A sub-volume of another user to which this user has access.
    Shared,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(UserId::new(7).to_string(), "u7");
        assert_eq!(VolumeId::new(0).to_string(), "v0");
        assert_eq!(NodeId::new(12).to_string(), "n12");
        assert_eq!(SessionId::new(3).to_string(), "s3");
        assert_eq!(UploadId::new(9).to_string(), "j9");
        assert_eq!(ShardId::new(4).to_string(), "shard4");
    }

    #[test]
    fn machine_names_are_stable_and_cycle() {
        assert_eq!(MachineId::new(0).name(), "whitecurrant");
        assert_eq!(MachineId::new(12).name(), "whitecurrant");
        assert_ne!(MachineId::new(1).name(), MachineId::new(2).name());
    }

    #[test]
    fn content_hash_hex_round_trip() {
        let h = ContentHash::from_content_id(0xdead_beef);
        let hex = h.to_hex();
        assert_eq!(hex.len(), 40);
        assert_eq!(ContentHash::from_hex(&hex), Some(h));
    }

    #[test]
    fn content_hash_rejects_bad_hex() {
        assert_eq!(ContentHash::from_hex(""), None);
        assert_eq!(ContentHash::from_hex("zz"), None);
        let mut s = "0".repeat(40);
        s.replace_range(0..1, "g");
        assert_eq!(ContentHash::from_hex(&s), None);
    }

    #[test]
    fn empty_hash_matches_sha1_of_nothing() {
        assert_eq!(crate::sha1::Sha1::digest(b""), ContentHash::EMPTY);
    }

    #[test]
    fn distinct_content_ids_yield_distinct_hashes() {
        let a = ContentHash::from_content_id(1);
        let b = ContentHash::from_content_id(2);
        assert_ne!(a, b);
    }
}
