//! `ubuntuone` — a production-quality Rust reproduction of
//! *"Dissecting UbuntuOne: Autopsy of a Global-scale Personal Cloud
//! Back-end"* (Gracia-Tinedo et al., ACM IMC 2015).
//!
//! This facade crate re-exports the workspace so downstream users (and the
//! runnable examples under `examples/`) can depend on one crate:
//!
//! * [`core`] — ids, SHA-1, clocks, file taxonomy, operation vocabulary,
//! * [`proto`] — the U1 storage protocol (wire format, framing, sans-io
//!   connection state machines, TCP transport),
//! * [`metastore`] — the user-sharded metadata store (DAL) with the
//!   calibrated service-time model,
//! * [`blobstore`] — the S3-like object store with multipart uploads and
//!   warm/cold tiering,
//! * [`auth`] — the OAuth-style token service and per-server token cache,
//! * [`notify`] — the RabbitMQ-like notification broker,
//! * [`server`] — the back-end itself (gateway, API handlers, upload state
//!   machine, push fan-out, live TCP front-end),
//! * [`client`] — the desktop client's transports (in-process or over
//!   TCP, one `Transport` trait),
//! * [`workload`] — the calibrated synthetic population and the
//!   discrete-event driver,
//! * [`trace`] — the paper-format trace pipeline,
//! * [`analytics`] — the statistics kit and the per-figure analyzers.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` — start a backend, connect a client over
//! TCP, upload, and have a second device download the file and, after a
//! push, its edit, checking the bytes and SHA-1 each time.

pub use u1_analytics as analytics;
pub use u1_auth as auth;
pub use u1_blobstore as blobstore;
pub use u1_client as client;
pub use u1_core as core;
pub use u1_metastore as metastore;
pub use u1_notify as notify;
pub use u1_proto as proto;
pub use u1_server as server;
pub use u1_trace as trace;
pub use u1_workload as workload;
