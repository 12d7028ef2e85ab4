//! Trace collection for the U1 back-end reproduction (§4 of the paper).
//!
//! The original measurement captured one logfile per API/RPC server process
//! per day, named like `production-whitecurrant-23-20140128`, each strictly
//! sequential and timestamped, with request types `storage`/`storage_done`,
//! `rpc` and `session`. About 1% of lines could not be parsed.
//!
//! This crate reproduces that pipeline:
//!
//! * [`TraceRecord`] / [`Payload`] / [`StorageDone`] — the typed event model,
//! * [`csvline`] — the line format (one CSV line per record),
//! * [`canonical`] — the canonical trace digest every pinned SHA is an
//!   instance of,
//! * [`sink`] — where running servers emit records ([`MemorySink`] for
//!   in-process analysis, [`DirSink`] for paper-style logfile directories),
//! * [`logfile`] — logfile naming, per-process day rotation, directory
//!   reading (whole or a day at a time, one file per task) with
//!   malformed-line tolerance, and timestamp merge,
//! * [`anonymize`] — the keyed id-scrambling pass Canonical applied before
//!   releasing the dataset.

pub mod anonymize;
pub mod canonical;
pub mod csvline;
pub mod event;
pub mod logfile;
pub mod sink;

pub use anonymize::Anonymizer;
pub use canonical::{canonical_sha, CanonicalSha};
pub use event::{Payload, SessionEvent, StorageDone, TraceRecord};
pub use logfile::{
    logfile_name, parse_logfile_name, DayChunk, DayChunks, LogDirReader, ParseStats,
};
pub use sink::{BufferedSink, DirSink, MemorySink, NullSink, TraceSink};
