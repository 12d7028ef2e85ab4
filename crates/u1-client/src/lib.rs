//! How a U1 desktop client (§3.3) reaches the service: the storage
//! protocol's client calls behind one [`Transport`] trait. Each call
//! becomes protocol requests, and one implementation of the trait sends
//! them over either of two links to `u1_server::Backend::serve`.
//!
//! * [`DirectTransport`] calls `serve` in process (measurement mode: no
//!   socket, no codec).
//! * [`TcpTransport`] speaks the storage protocol over a real TCP
//!   connection (live mode), buffering pushes between responses.
//!
//! So both links send the same requests. An upload without content
//! bytes declares one `UploadChunkSparse` per 5 MiB S3 part (a server
//! that stores real bytes refuses them); real bytes travel as 1 MiB
//! `UploadChunk`s — framed straight from the caller's buffer over TCP —
//! and an empty file as one 1-byte chunk.
//!
//! The client's *behaviour* — hash before upload so the server can
//! deduplicate, a full re-upload on every update (no delta updates, no
//! bundling, no sync deferment, §3.3, §5.1), a delta and a download after
//! every push — is modelled by the workload driver in `u1-workload`, which
//! is where the traces come from. `examples/quickstart.rs` and
//! `examples/shared_folder.rs` issue the same §3.2 workflow call by call
//! through a transport.

pub mod transport;

pub use transport::{DirectTransport, TcpTransport, Transport, UploadResult};
