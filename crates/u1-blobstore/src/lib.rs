//! An S3-like object store standing in for Amazon S3 (us-east), where U1
//! kept all file contents (§3.2, §3.4).
//!
//! U1 interacted with S3 through exactly two surfaces, both reproduced here:
//!
//! * the **multipart upload API** (Appendix A): initiate → upload 5MB parts
//!   → complete/abort, driven by the server-side `uploadjob` state machine,
//! * plain GET/DELETE of whole objects keyed by content identity.
//!
//! Objects are keyed by the content's SHA-1, which is what makes the
//! file-level cross-user deduplication of §3.3 work: a dedup hit in the
//! metadata store means the object is already here.
//!
//! The [`tier`] module adds the warm/cold storage tiering the paper's §9
//! proposes as an improvement (citing Amazon Glacier and Facebook's f4) —
//! used by the ablation benches to quantify the suggestion.

pub mod multipart;
pub mod store;
pub mod tier;

pub use multipart::{MultipartError, MultipartUpload, PART_SIZE};
pub use store::{Blob, BlobStore, BlobStoreStats, ObjectMeta};
pub use tier::{Tier, TierSweepReport};
