//! The wire-tier parity contract: a closed-loop client fleet run over real
//! TCP sockets (epoll reactor, frame codec, send queues) must produce the
//! **byte-identical** back-end trace and the identical fleet report as the
//! same fleet run through the in-process [`DirectTransport`].
//!
//! This is the serving tier's equivalent of the driver's worker-count
//! determinism check: it proves the socket path adds transport, not
//! behavior. The lockstep fleet keeps one request in flight globally and
//! advances the shared virtual clock before every action, so any
//! divergence — a reordered RPC, an extra session-table touch, a
//! different upload part schedule — shows up as a hash mismatch.

use std::sync::Arc;
use ubuntuone::auth::AuthConfig;
use ubuntuone::client::{DirectTransport, TcpTransport};
use ubuntuone::core::{SimClock, UserId};
use ubuntuone::server::{Backend, BackendConfig, TcpServer};
use ubuntuone::trace::{canonical_sha, MemorySink};
use ubuntuone::workload::{fleet, FleetConfig, FleetReport};

/// Expected canonical trace SHA-1 for the golden fleet scenario below.
/// Both the in-process and the wire run must land exactly here; re-pin
/// only when the session model or the backend trace format deliberately
/// changes.
const GOLDEN_FLEET_SHA: &str = "eb00bac02fd1cd06f56abc12770d8fad5573949e";

fn golden_config() -> FleetConfig {
    FleetConfig {
        users: 12,
        sessions_per_user: 2,
        seed: 11,
    }
}

/// Fault-free measurement-mode backend under a shared virtual clock.
fn measurement_backend(clock: Arc<SimClock>) -> (Arc<Backend>, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        BackendConfig {
            auth: AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            ..Default::default()
        },
        clock,
        sink.clone(),
    ));
    (backend, sink)
}

fn register(backend: &Backend, users: u32) -> Vec<ubuntuone::auth::Token> {
    (0..users)
        .map(|i| backend.register_user(UserId::new(u64::from(i) + 1)))
        .collect()
}

fn run_direct(cfg: &FleetConfig) -> (FleetReport, String) {
    let clock = Arc::new(SimClock::new());
    let (backend, sink) = measurement_backend(clock.clone());
    let tokens = register(&backend, cfg.users);
    let report = fleet::run_lockstep(cfg, &clock, &tokens, |_| {
        DirectTransport::new(Arc::clone(&backend))
    });
    (report, canonical_sha(&sink.take_sorted()))
}

fn run_wire(cfg: &FleetConfig) -> (FleetReport, String) {
    let clock = Arc::new(SimClock::new());
    let (backend, sink) = measurement_backend(clock.clone());
    let tokens = register(&backend, cfg.users);
    let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("bind reactor");
    let addr = server.local_addr();
    let report = fleet::run_lockstep(cfg, &clock, &tokens, |_| {
        TcpTransport::connect(addr)
            .expect("loopback connect")
            .with_sparse_content()
    });
    server.shutdown();
    (report, canonical_sha(&sink.take_sorted()))
}

#[test]
fn wire_fleet_reproduces_in_process_trace_byte_for_byte() {
    let cfg = golden_config();
    let (direct_report, direct_hash) = run_direct(&cfg);
    let (wire_report, wire_hash) = run_wire(&cfg);

    assert!(direct_report.ops_executed > 0, "fleet did real work");
    assert!(direct_report.uploads > 0, "fleet uploaded something");
    assert_eq!(
        direct_report, wire_report,
        "fleet reports diverged between in-process and wire transports"
    );
    assert_eq!(
        direct_hash, wire_hash,
        "canonical traces diverged between in-process and wire transports"
    );
    assert_eq!(
        direct_hash, GOLDEN_FLEET_SHA,
        "golden fleet trace moved — re-pin only for deliberate model changes"
    );
}

#[test]
fn wire_fleet_is_deterministic_across_runs() {
    let cfg = FleetConfig {
        users: 6,
        sessions_per_user: 1,
        seed: 23,
    };
    let (r1, h1) = run_wire(&cfg);
    let (r2, h2) = run_wire(&cfg);
    assert_eq!(r1, r2);
    assert_eq!(h1, h2);
}
