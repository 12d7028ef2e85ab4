//! Calibrated synthetic workload for the U1 back-end.
//!
//! The original dataset (758GB, 1.29M users, 30 days) is not available, so
//! this crate synthesizes a client population whose behavior matches every
//! distribution §5–§7 of the paper publishes. The paper's numbers live in
//! [`u1_core::paper`] with section references; these modules turn them
//! into generators:
//!
//! * [`files`] — extensions, per-category sizes, content popularity (dedup),
//!   planned node lifetimes,
//! * [`users`] — the four activity classes and the heavy-tailed per-user
//!   activity skew behind the Gini ≈ 0.89 Lorenz curve,
//! * [`markov`] — the Fig. 8 operation-transition chain,
//! * [`sessions`] — session arrivals (diurnal, weekday-aware), durations,
//!   and the active/cold split,
//! * [`attack`] — the three DDoS episodes of §5.4,
//! * [`driver`] — the discrete-event loop that replays all of the above
//!   against a [`u1_server::Backend`] under a virtual clock, producing a
//!   month of trace in seconds.

pub mod attack;
pub mod driver;
pub mod files;
pub mod markov;
pub mod sessions;
pub mod users;

pub use driver::{Driver, DriverReport, WorkloadConfig};
pub use users::UserClass;
