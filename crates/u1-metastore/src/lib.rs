//! The U1 metadata store (§3.4): a user-sharded, in-memory reimplementation
//! of the PostgreSQL cluster behind the DAL RPC surface.
//!
//! The production system kept all metadata in a 20-server PostgreSQL cluster
//! configured as 10 master/replica shards, routing every operation to a shard
//! by **user id** so that "metadata of a user's files and folders reside
//! always in the same shard" and ordinary operations never lock more than one
//! shard. Only shared-folder operations can touch a second shard.
//!
//! This crate reproduces that architecture:
//!
//! * [`model`] — the table rows (users, volumes, nodes, contents, shares,
//!   upload jobs) and volume *generations* that power `GetDelta`,
//! * [`shard`] — one shard: the single-shard DAL operations under one
//!   reader-writer lock (reads are lock-shared, i.e. "lockless" in the
//!   paper's sense of never blocking each other),
//! * [`store`] — the cluster: user→shard routing, the cross-user content
//!   index used for file-level deduplication, share management (the one
//!   multi-shard case), and upload-job garbage collection,
//! * [`latency`] — the calibrated per-RPC-class service-time model that
//!   reproduces the long-tailed distributions of Figs. 12–13.

pub mod contents;
pub mod latency;
pub mod model;
pub mod shard;
pub mod store;

pub use contents::{ContentIndex, SealOutcome};
pub use latency::LatencyModel;
pub use model::{ContentRow, NodeRow, ShareRow, UploadJobRow, UploadState, UserRow, VolumeRow};
pub use store::{MetaStore, StoreConfig};
