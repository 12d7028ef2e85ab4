//! Scenario execution: one simulated month, everything the analyses need.

use std::path::PathBuf;
use std::sync::Arc;
use u1_analytics::engine::EngineConfig;
use u1_core::fault::FaultPlan;
use u1_core::{SimClock, SimTime};
use u1_metastore::store::VolumeSnapshot;
use u1_server::{Backend, BackendConfig};
use u1_trace::{BufferedSink, DirSink, MemorySink, TraceRecord, TraceSink};
use u1_workload::{Driver, DriverReport, WorkloadConfig};

/// A completed simulation run plus end-of-run state snapshots. `T` is where
/// the trace ended up: the sorted records of an in-memory run, or the
/// directory of a stream-to-disk one ([`StreamedScenario`]).
pub struct Scenario<T = Vec<TraceRecord>> {
    pub cfg: WorkloadConfig,
    pub horizon: SimTime,
    pub records: T,
    pub volumes: Vec<VolumeSnapshot>,
    pub store_dedup_ratio: f64,
    pub report: DriverReport,
    /// First trace I/O failure, if the sink ran degraded (the count is in
    /// `report.trace_io_errors`). Always `None` for an in-memory run.
    pub first_trace_io_error: Option<String>,
    /// The backend itself, for experiments that keep interacting with it.
    pub backend: Arc<Backend>,
}

/// A completed stream-to-disk run: the trace went straight to per-(machine,
/// process, day) stamped logfiles under the `records` directory instead of
/// accumulating in memory, so the run's peak RSS is bounded by live
/// metastore/driver state — not by the month of records. Read the trace
/// back with `u1_analytics::engine::run_all_offdisk` (bit-identical to the
/// in-memory report) or `LogDirReader`.
pub type StreamedScenario = Scenario<PathBuf>;

/// Runs a workload against a fresh backend under a virtual clock.
pub fn run_scenario(cfg: WorkloadConfig) -> Scenario {
    run_scenario_with_faults(cfg, FaultPlan::none())
}

/// [`run_scenario`] with a fault plan injected into the backend (the driver
/// reads the same plan off the backend for its client-side behavior).
pub fn run_scenario_with_faults(cfg: WorkloadConfig, fault: FaultPlan) -> Scenario {
    run_on(cfg, fault, MemorySink::new(), |sink| {
        (sink.take_sorted(), None)
    })
}

/// [`run_scenario`], but streaming every record to stamped logfiles under
/// `dir` as the simulation runs. The wiring is the same generic builder —
/// same seeds, same `BufferedSink` per-origin runs, same flush-off-barrier
/// machinery (the driver is sink-agnostic) — so the emitted record
/// sequence, and therefore the canonical `(t, origin, seq)` trace and its
/// golden hash, match the in-memory mode exactly.
pub fn run_scenario_streamed(
    cfg: WorkloadConfig,
    dir: impl Into<PathBuf>,
) -> std::io::Result<StreamedScenario> {
    let sink = DirSink::create_stamped(dir)?;
    Ok(run_on(cfg, FaultPlan::none(), sink, |sink| {
        (sink.dir().to_path_buf(), sink.first_io_error())
    }))
}

/// The one builder: wires `sink` behind the batched emission path (the
/// driver flushes at day boundaries and on run exit), runs the month, and
/// asks `trace` what the sink holds once it is over.
fn run_on<S, T>(
    cfg: WorkloadConfig,
    fault: FaultPlan,
    sink: S,
    trace: impl FnOnce(&S) -> (T, Option<String>),
) -> Scenario<T>
where
    S: TraceSink + 'static,
{
    let clock = SimClock::new();
    let sink = Arc::new(sink);
    let backend_cfg = BackendConfig {
        seed: cfg.seed ^ 0xBACC,
        fault,
        ..BackendConfig::default()
    };
    let backend = Arc::new(Backend::new(
        backend_cfg,
        Arc::new(clock.clone()),
        Arc::new(BufferedSink::new(Arc::clone(&sink))),
    ));
    let driver = Driver::new(cfg.clone(), Arc::clone(&backend), clock);
    let started = std::time::Instant::now();
    let report = driver.run();
    eprintln!(
        "[scenario] {} users x {} days in {:.1}s",
        cfg.users,
        cfg.days,
        started.elapsed().as_secs_f64()
    );
    let (records, first_trace_io_error) = trace(&sink);
    Scenario {
        horizon: cfg.horizon(),
        records,
        volumes: backend.store.volume_snapshot(),
        store_dedup_ratio: backend.store.dedup_ratio(),
        report,
        first_trace_io_error,
        cfg,
        backend,
    }
}

/// The engine configuration a scenario implies: its horizon, the backend's
/// API-machine and store-shard counts, and the paper's default extension
/// list / detector parameters.
pub fn engine_config<T>(scn: &Scenario<T>) -> EngineConfig {
    EngineConfig::new(
        scn.horizon,
        scn.backend.config().cluster.machines as usize,
        scn.backend.config().store.shards as usize,
    )
}

/// Applies the harness's environment overrides (`U1_USERS`, `U1_DAYS`,
/// `U1_SEED`, `U1_ATTACKS=0`) to `cfg`.
pub fn config_from_env(mut cfg: WorkloadConfig) -> WorkloadConfig {
    if let Ok(v) = std::env::var("U1_USERS") {
        cfg.users = v.parse().expect("U1_USERS must be an integer");
    }
    if let Ok(v) = std::env::var("U1_DAYS") {
        cfg.days = v.parse().expect("U1_DAYS must be an integer");
    }
    if let Ok(v) = std::env::var("U1_SEED") {
        cfg.seed = v.parse().expect("U1_SEED must be an integer");
    }
    if std::env::var("U1_ATTACKS").as_deref() == Ok("0") {
        cfg.attacks = false;
    }
    cfg
}

/// Runs `paper_scaled()` under the environment overrides (see crate docs).
pub fn scenario_from_env() -> Scenario {
    run_scenario(config_from_env(WorkloadConfig::paper_scaled()))
}
