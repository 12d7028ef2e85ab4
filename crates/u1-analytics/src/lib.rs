//! Trace analytics: everything needed to regenerate the paper's §5–§7
//! figures and tables from a trace.
//!
//! The input is always a timestamp-sorted `&[TraceRecord]` (from a
//! [`u1_trace::MemorySink`] or a merged logfile directory read). Each
//! module holds the report type and the fold steps of one slice of the
//! paper:
//!
//! * [`stats`] — the numeric kit: ECDF, quantiles, histograms, Gini/Lorenz,
//!   autocorrelation, power-law MLE, Pearson correlation,
//! * [`timeseries`] — hourly/minutely binning of requests and traffic
//!   (Figs. 2(a), 5, 6, 15),
//! * [`storage`] — storage-workload analyses (Figs. 2(b), 2(c), 4(b), 4(c)),
//! * [`dedup`] — duplicates-per-hash and the dedup ratio (Fig. 4(a)),
//! * [`dependencies`] — per-node operation dependencies, reads-per-file and
//!   node lifetimes (Fig. 3),
//! * [`users`] — online/active users, op mix, per-user traffic, Lorenz/Gini,
//!   activity classes (Figs. 6, 7),
//! * [`markov`] — the empirical operation-transition graph (Fig. 8),
//! * [`burstiness`] — inter-operation times and their power-law fit (Fig. 9),
//! * [`volumes`] — files/dirs per volume and volume-type distributions
//!   (Figs. 10, 11; consumes a [`u1_metastore::store::VolumeSnapshot`]),
//! * [`faults`] — error rates, error-class mix and retry-latency
//!   inflation under an injected fault plan,
//! * [`rpc`] — RPC service-time distributions, the class scatter, and load
//!   balance (Figs. 12, 13, 14),
//! * [`sessions`] — session lengths, ops/session, auth activity (Figs. 15,
//!   16),
//! * [`ddos`] — attack detection from request-rate anomalies (Fig. 5),
//! * [`summary`] — Table 3 and the Table 1 findings check.
//!
//! [`engine::run_all`] evaluates every analysis in a single pass over the
//! records: the [`engine::Battery`] decodes each record once and keeps
//! per-user, per-node, per-session and per-content state in one table per
//! entity kind. It is an [`engine::TraceFold`], so it also runs
//! chunk-parallel and merges partial states without changing any output
//! bit. It is the only way to compute a figure; the crate's tests check
//! every field against a reference built from the paper's definitions
//! (`tests/oracle`).

// `float_cmp` is denied for the kernels (Cargo.toml); unit tests compare
// results of small exact inputs against their exact expected values.
#![cfg_attr(test, allow(clippy::float_cmp))]

mod battery;
pub mod burstiness;
pub mod ddos;
pub mod dedup;
pub mod dependencies;
pub mod engine;
pub mod faults;
pub mod markov;
pub mod rpc;
pub mod sessions;
pub mod stats;
pub mod storage;
pub mod summary;
pub mod testkit;
pub mod timeseries;
pub mod users;
pub mod volumes;

pub use stats::Ecdf;
