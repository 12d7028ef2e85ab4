//! Trace pipeline integration: a simulated trace written to paper-format
//! logfiles, read back, merged and anonymized must give the same analytics
//! report, byte for byte, as the in-memory records — the fidelity
//! Canonical's release pipeline needed.

use std::sync::Arc;
use ubuntuone::analytics::engine::{run_all, EngineConfig};
use ubuntuone::core::{SimClock, SimTime};
use ubuntuone::server::{Backend, BackendConfig};
use ubuntuone::trace::{Anonymizer, DirSink, LogDirReader, MemorySink, TraceRecord, TraceSink};
use ubuntuone::workload::{Driver, WorkloadConfig};

fn cfg() -> WorkloadConfig {
    WorkloadConfig {
        users: 250,
        days: 5,
        seed: 31337,
        attacks: false,
        seed_files: 0.6,
        workers: 0,
    }
}

/// The compact JSON of the whole analytics report over `records`.
fn report_json(records: &[TraceRecord], backend: &Backend, horizon: SimTime) -> String {
    let cfg = EngineConfig::new(
        horizon,
        backend.config().cluster.machines as usize,
        backend.config().store.shards as usize,
    );
    serde_json::to_string(&run_all(records, &cfg)).expect("report serializes")
}

/// A sink that tees into memory and a logfile directory at once.
struct Tee(Arc<MemorySink>, DirSink);

impl TraceSink for Tee {
    fn record(&self, rec: TraceRecord) {
        self.0.record(rec.clone());
        self.1.record(rec);
    }
    fn flush(&self) {
        self.1.flush();
    }
}

#[test]
fn logfile_round_trip_preserves_every_analysis_input() {
    let dir = std::env::temp_dir().join(format!("u1-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mem = Arc::new(MemorySink::new());
    let tee = Arc::new(Tee(mem.clone(), DirSink::create(&dir).unwrap()));

    let clock = SimClock::new();
    let backend = Arc::new(Backend::new(
        BackendConfig::default(),
        Arc::new(clock.clone()),
        tee,
    ));
    let workload = cfg();
    let horizon = workload.horizon();
    Driver::new(workload, Arc::clone(&backend), clock).run();
    backend.flush_trace();

    let direct = mem.take_sorted();
    let (from_disk, stats) = LogDirReader::new(&dir).read_all().unwrap();

    assert_eq!(stats.malformed, 0, "we wrote every line; all must parse");
    assert_eq!(direct.len(), from_disk.len());
    // The multisets agree record-by-record after the same stable sort.
    for (a, b) in direct.iter().zip(from_disk.iter()) {
        assert_eq!(a.t, b.t);
    }
    // The whole report computed from both sources agrees byte for byte.
    assert_eq!(
        report_json(&direct, &backend, horizon),
        report_json(&from_disk, &backend, horizon)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn anonymization_preserves_all_aggregate_statistics() {
    let mem = Arc::new(MemorySink::new());
    let clock = SimClock::new();
    let backend = Arc::new(Backend::new(
        BackendConfig::default(),
        Arc::new(clock.clone()),
        mem.clone(),
    ));
    let workload = cfg();
    let horizon = workload.horizon();
    Driver::new(workload, Arc::clone(&backend), clock).run();

    let original = mem.take_sorted();
    let mut anonymized = original.clone();
    Anonymizer::new(0xDEAD_BEEF).anonymize_all(&mut anonymized);

    // Raw ids differ...
    let raw_users: std::collections::HashSet<u64> =
        original.iter().map(|r| r.payload.user().raw()).collect();
    let anon_users: std::collections::HashSet<u64> =
        anonymized.iter().map(|r| r.payload.user().raw()).collect();
    assert_ne!(raw_users, anon_users, "ids must be scrambled");
    assert_eq!(raw_users.len(), anon_users.len(), "…but stay distinct");

    // ...while the whole report is untouched: the keyed bijection keeps
    // every per-user, per-session and per-node correlation, and the
    // extensions.
    assert_eq!(
        report_json(&original, &backend, horizon),
        report_json(&anonymized, &backend, horizon)
    );
}
