//! How a U1 desktop client (§3.3) reaches the service: the storage
//! protocol's client calls behind one [`Transport`] trait, over two paths.
//!
//! * [`DirectTransport`] calls the back-end's handlers in process
//!   (measurement mode: no socket, no codec).
//! * [`TcpTransport`] speaks the storage protocol over a real TCP
//!   connection (live mode), buffering pushes between responses.
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
