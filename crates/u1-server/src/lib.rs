//! The U1 metadata back-end (§3.2, §3.4): everything that ran inside the
//! Canonical datacenter.
//!
//! ```text
//!                       ┌───────────────────────────────────────────┐
//!   clients ── TCP ──▶  │ gateway (least-loaded session placement)  │
//!                       │   API processes ──▶ RPC workers           │
//!                       │        │                 │                │
//!                       │        │                 ▼                │
//!                       │        │        metadata store (shards)   │
//!                       │        ▼                                  │
//!                       │   notification broker (RabbitMQ stand-in) │
//!                       └────────┼──────────────────────────────────┘
//!                                ▼
//!                        object store (S3 stand-in)
//! ```
//!
//! The central type is [`Backend`]: it owns the metadata store, the object
//! store, the auth service, the broker, the cluster topology (machines ×
//! API/RPC processes), the session table and the trace sink. Handlers are
//! synchronous so the same code path serves
//!
//! * **live mode** — [`tcpserver::TcpServer`] accepts real protocol
//!   connections and hands each decoded request to [`Backend::serve`],
//!   the one request path that the in-process client transport uses too,
//!   and
//! * **measurement mode** — the workload driver calls handlers directly
//!   under a virtual clock, producing month-scale traces in seconds.
//!
//! Every handler logs the paper's trace vocabulary (session, storage_done,
//! rpc, auth records) through the configured sink.

pub mod api;
pub mod backend;
pub mod cluster;
pub mod push;
pub mod session;
pub mod tcpserver;
pub mod tokencache;

pub use backend::{Backend, BackendConfig};
pub use cluster::ClusterConfig;
pub use push::VolumeEvent;
pub use session::SessionHandle;
pub use tcpserver::{ReactorConfig, TcpServer, WireStats};
pub use tokencache::{TokenCache, TokenCacheStats};
