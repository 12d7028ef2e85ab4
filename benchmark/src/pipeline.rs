//! The in-process measurement pipeline both month workloads, the off-disk
//! workload and the ledger drive: simulate a population against a fresh
//! back-end into a trace sink, then hand the trace to the analytics engine.

use crate::timed::TimedSink;
use std::fmt::Write as _;
use std::sync::Arc;
use u1_analytics::engine::EngineConfig;
use u1_core::{Sha1, SimClock};
use u1_server::{Backend, BackendConfig};
use u1_trace::{csvline, BufferedSink, MemorySink, TraceRecord, TraceSink};
use u1_workload::{Driver, DriverReport, WorkloadConfig};

/// The simulated population of one workload; everything else is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub users: u64,
    pub days: u64,
}

impl Shape {
    /// One load-generating thread's worth of configuration, attacks on — the
    /// paper month's settings. The population is always generated from
    /// [`crate::DEFAULT_SEED`]: it is a fixed parameter of the workload, like
    /// its shape. The paper's activity distribution is so heavy-tailed (1% of
    /// users make most of the traffic) that two populations of the same
    /// size, 1,000 users or 16,000, differ by ±13% in total work and by more
    /// in cost per operation, which no regression bound survives. What
    /// `--seed` varies is the back-end's stochastic models (see
    /// [`Simulation::prepare`]).
    pub fn config(self, workers: usize) -> WorkloadConfig {
        WorkloadConfig {
            users: self.users,
            days: self.days,
            seed: crate::DEFAULT_SEED,
            attacks: true,
            seed_files: 1.0,
            workers,
        }
    }
}

/// A month ready to run: a fresh back-end whose trace goes through
/// `BufferedSink` into a `MemorySink`, and the driver for `cfg`. Building
/// it is a repetition's own set-up; [`Simulation::run`] is the timed part.
pub struct Simulation {
    driver: Driver,
    engine: EngineConfig,
    timed: Option<Arc<TimedSink<Arc<MemorySink>>>>,
    mem: Arc<MemorySink>,
}

/// One finished simulation, still holding its sink.
pub struct Simulated {
    pub report: DriverReport,
    pub engine: EngineConfig,
    /// `(nanoseconds, records)` the memory sink took; zeros unless the run
    /// was traced.
    pub sink_totals: (u64, u64),
    mem: Arc<MemorySink>,
}

impl Simulation {
    /// A traced run puts a [`TimedSink`] between the two sinks, where it
    /// sees one call per flushed run rather than one per record.
    ///
    /// `seed` (the run's `--seed`) seeds the back-end: RPC service-time
    /// sampling, transient auth failures, fault-plane streams. Those change
    /// which sessions succeed and when, so the trace differs from seed to
    /// seed (by a few percent in size) while the population stays the same.
    /// At the default seed this is exactly the repo's golden configuration.
    pub fn prepare(cfg: &WorkloadConfig, seed: u64, traced: bool) -> Simulation {
        let clock = SimClock::new();
        let mem = Arc::new(MemorySink::new());
        let timed = traced.then(|| Arc::new(TimedSink::new(Arc::clone(&mem))));
        let sink: Arc<dyn TraceSink> = match &timed {
            Some(t) => Arc::new(BufferedSink::new(Arc::clone(t))),
            None => Arc::new(BufferedSink::new(Arc::clone(&mem))),
        };
        let backend = Arc::new(Backend::new(
            BackendConfig {
                seed: seed ^ 0xBACC,
                ..BackendConfig::default()
            },
            Arc::new(clock.clone()),
            sink,
        ));
        let engine = EngineConfig::new(
            cfg.horizon(),
            backend.config().cluster.machines as usize,
            backend.config().store.shards as usize,
        );
        Simulation {
            driver: Driver::new(cfg.clone(), backend, clock),
            engine,
            timed,
            mem,
        }
    }

    /// `Driver::run`, nothing else.
    pub fn run(self) -> Simulated {
        let report = self.driver.run();
        Simulated {
            report,
            engine: self.engine,
            sink_totals: self.timed.map_or((0, 0), |t| t.totals()),
            mem: self.mem,
        }
    }
}

impl Simulated {
    /// Drains the sink into the canonical `(t, origin, seq)` order.
    pub fn take_sorted(&self) -> Vec<TraceRecord> {
        self.mem.take_sorted()
    }
}

/// SHA-1 over the canonical trace: every record's CSV line plus its
/// `|origin|seq` stamp, in `take_sorted` order — the formula the repo's
/// golden tests and `BENCH_*.json` artifacts pin.
pub fn canonical_sha(records: &[TraceRecord]) -> String {
    let mut sha = Sha1::new();
    let mut line = String::with_capacity(160);
    for r in records {
        line.clear();
        let _ = csvline::write_line(r, &mut line);
        let _ = writeln!(line, "|{}|{}", r.origin, r.seq);
        sha.update(line.as_bytes());
    }
    sha.finalize().to_hex()
}

/// Hex SHA-1 of arbitrary text (report fingerprints, script digests).
pub fn sha_hex(text: &str) -> String {
    Sha1::digest(text.as_bytes()).to_hex()
}
