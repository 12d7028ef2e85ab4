//! Core vocabulary for `ubuntuone-rs`, a reproduction of the UbuntuOne (U1)
//! Personal Cloud back-end described in *"Dissecting UbuntuOne: Autopsy of a
//! Global-scale Personal Cloud Back-end"* (Gracia-Tinedo et al., IMC 2015).
//!
//! This crate holds the types shared by every other crate in the workspace:
//!
//! * strongly-typed identifiers for the protocol entities of §3.1.1 of the
//!   paper (users, volumes, nodes, sessions, contents),
//! * a pure-Rust SHA-1 implementation (U1 clients identify file contents by
//!   SHA-1 prior to upload, enabling file-level cross-user deduplication),
//! * a virtual/real [`clock`] abstraction so that the month-long measurement
//!   of the paper can be reproduced in virtual time on a laptop,
//! * the file-type taxonomy of §5.3 (categories and extensions),
//! * the file-size categories used by Fig. 2(b),
//! * every number from the paper that some code reads, each once, with its
//!   section or figure ([`paper`]),
//! * deterministic RNG plumbing used across the workload generator,
//! * the workspace's locks, never held two at a time ([`sync`]).

pub mod clock;
pub mod error;
pub mod fault;
pub mod fxhash;
pub mod id;
pub mod intern;
pub mod op;
pub mod paper;
pub mod partition;
pub mod rngx;
pub mod sha1;
pub mod size;
pub mod sync;
pub mod taxonomy;
pub mod timing;

pub use clock::{Clock, RealClock, SimClock, SimDuration, SimTime};
pub use error::{CoreError, CoreResult};
pub use fault::{
    CircuitBreaker, ErrorClass, FaultInjector, FaultPlan, InstalledFaults, RetryPolicy,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use id::{
    ContentHash, MachineId, NodeId, NodeKind, ProcessId, SessionId, ShardId, UploadId, UserId,
    VolumeId, VolumeKind,
};
pub use intern::{Ext, IdArena, Name, NameArena, NameId};
pub use op::{ApiOpKind, RpcClass, RpcKind};
pub use partition::PartitionCtx;
pub use sha1::Sha1;
pub use size::{ByteSize, SizeCategory};
pub use taxonomy::FileCategory;
pub use timing::{CachePadded, Measured, PhaseNanos};
