//! `month_1k` and `month_wide`: the paper month simulated in memory and
//! analysed, at two shapes with about the same number of trace records.
//!
//! Stages: (1) `Driver::run`, one worker, attacks on, trace through
//! `BufferedSink` into a `MemorySink` — rate in simulated operations;
//! (2) the same plus `MemorySink::take_sorted` — rate in trace records
//! emitted in canonical order; (3) `engine::run_all` over the sorted trace
//! — rate in records analysed.

use crate::metrics::Metrics;
use crate::pipeline::{canonical_sha, sha_hex, Shape, Simulation};
use crate::span::{ratio, Recorder};
use crate::workload::{Rep, Workload};
use std::marker::PhantomData;
use u1_trace::TraceRecord;

/// Shape and pinned output of one month workload.
pub trait MonthSpec {
    const NAME: &'static str;
    const SHAPE: Shape;
    /// Canonical trace SHA-1 at [`crate::DEFAULT_SEED`].
    const PINNED_SHA: &'static str;
}

/// 1,000 users over the full 30 days: per-user state stays resident in
/// cache, 1.78 M records at the default seed.
pub struct Dense;
impl MonthSpec for Dense {
    const NAME: &'static str = "month_1k";
    const SHAPE: Shape = Shape {
        users: 1_000,
        days: 30,
    };
    const PINNED_SHA: &'static str = "5022351108cff8cfafdff175220d9a6735598057";
}

/// 16,000 users over 2 days: about the same record count (1.94 M) spread
/// over 16 times the resident clients.
pub struct Wide;
impl MonthSpec for Wide {
    const NAME: &'static str = "month_wide";
    const SHAPE: Shape = Shape {
        users: 16_000,
        days: 2,
    };
    const PINNED_SHA: &'static str = "c4130072ddc9669a6ac543748f17803c0d1d130e";
}

pub struct Month<S: MonthSpec> {
    seed: u64,
    /// The last repetition's sorted trace, kept for verification.
    last: Vec<TraceRecord>,
    last_records_reported: u64,
    op_errors: u64,
    spec: PhantomData<S>,
}

impl<S: MonthSpec> Workload for Month<S> {
    const NAME: &'static str = S::NAME;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Month {
            seed,
            last: Vec::new(),
            last_records_reported: 0,
            op_errors: 0,
            spec: PhantomData,
        })
    }

    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        // Free the previous repetition's trace first: two resident traces
        // would double the peak this workload reports.
        self.last = Vec::new();
        let cfg = S::SHAPE.config(1);
        let mut rep = Rep::default();

        let sim = Simulation::prepare(&cfg, self.seed, rec.enabled());
        let id = rec.enter("workload.run");
        let sim = rep.stage(0, || sim.run());
        let (sink_ns, sink_records) = sim.sink_totals;
        rec.aggregate("trace.memsink", sink_ns, sink_records);
        let ops = sim.report.ops_executed + sim.report.attack_ops;
        rec.exit(id, ops);

        let id = rec.enter("trace.take_sorted");
        let records = rep.stage(1, || sim.take_sorted());
        rec.exit(id, records.len() as u64);
        // Stage 2 is emission end to end: the run plus the sort. (`wall_s`
        // keeps counting each second once.)
        rep.stage_s[1] += rep.stage_s[0];

        let id = rec.enter("analytics.run_all");
        let report = rep.stage(2, || u1_analytics::engine::run_all(&records, &sim.engine));
        rec.exit(id, records.len() as u64);

        let n = records.len() as f64;
        rep.items = [ops as f64, n, n];
        rep.attempted = ops;
        // The driver's own `op_errors` are simulated clients meeting
        // conflicts and vanished nodes: part of the generated workload, the
        // same on every repetition (the fingerprint covers them), and
        // reported per layer. `failed` counts what the benchmark itself
        // finds wrong.
        rep.failed = sim.report.trace_io_errors;
        self.op_errors = sim.report.op_errors;
        self.last_records_reported = report.summary.records;
        // The report's phase timers are wall-clock; everything else is a
        // function of the seed.
        let mut counters = sim.report.clone();
        counters.timing = Default::default();
        let driver = format!("{counters:?}");
        let analysis = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        rep.fingerprint = sha_hex(&format!("{driver}\n{analysis}"));
        self.last = records;
        Ok(rep)
    }

    fn verify(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.last_records_reported != self.last.len() as u64 {
            problems.push(format!(
                "analytics counted {} records, the trace holds {}",
                self.last_records_reported,
                self.last.len()
            ));
        }
        let sorted = self
            .last
            .windows(2)
            .all(|w| (w[0].t, w[0].origin, w[0].seq) <= (w[1].t, w[1].origin, w[1].seq));
        if !sorted {
            problems.push("take_sorted returned records out of canonical order".into());
        }
        let sha = canonical_sha(&self.last);
        eprintln!(
            "[{}] canonical trace sha1 {sha} ({} records, seed {:#x})",
            S::NAME,
            self.last.len(),
            self.seed
        );
        if self.seed == crate::DEFAULT_SEED && sha != S::PINNED_SHA {
            problems.push(format!(
                "canonical trace sha1 {sha} differs from the pinned {}",
                S::PINNED_SHA
            ));
        }
        problems
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
        let run = rec.totals("workload.run");
        out.set("workload.run_s", run.ns as f64 / 1e9);
        out.set("workload.ops", run.count as f64);
        out.set(
            "workload.self_ns_per_op",
            ratio(run.self_ns as f64, run.count as f64),
        );
        out.set(
            "workload.allocs_per_op",
            ratio(run.allocs as f64, run.count as f64),
        );
        out.set("workload.op_errors", self.op_errors as f64);
        out.set(
            "trace.memsink_ns_per_record",
            rec.totals("trace.memsink").ns_per_item(),
        );
        out.set(
            "trace.take_sorted_ns_per_record",
            rec.totals("trace.take_sorted").ns_per_item(),
        );
        let fold = rec.totals("analytics.run_all");
        out.set("analytics.fold_ns_per_record", fold.ns_per_item());
        out.set(
            "analytics.allocs_per_kilorecord",
            ratio(fold.allocs as f64 * 1000.0, fold.count as f64),
        );
        Ok(())
    }
}
