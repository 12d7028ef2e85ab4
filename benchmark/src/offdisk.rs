//! `trace_offdisk`: the scale path. Set-up simulates the `month_1k`
//! population once and keeps its sorted trace; the generator, the metastore
//! and the reactor do nothing in the timed stages.
//!
//! Stages: (1) write the trace through `BufferedSink<DirSink>` (stamped
//! lines) and flush, into a fresh directory — records written; (2) read it
//! back day by day with `LogDirReader::day_chunks` (parse + per-day sort)
//! — records read; (3) `engine::run_all_offdisk` over the directory
//! (parse + sort + fold) — records analysed. Write side and read side are
//! separate metrics so a format change that speeds one and slows the other
//! shows.

use crate::metrics::Metrics;
use crate::month::{Dense, MonthSpec};
use crate::pipeline::{sha_hex, Simulation};
use crate::span::{ratio, Recorder};
use crate::workload::{Rep, Workload};
use std::path::PathBuf;
use u1_analytics::engine::{self, EngineConfig};
use u1_trace::{BufferedSink, DirSink, LogDirReader, TraceRecord, TraceSink};

pub struct OffDisk {
    records: Vec<TraceRecord>,
    engine: EngineConfig,
    root: PathBuf,
    reps: u32,
    /// The last repetition's off-disk report, serialised.
    last_report: String,
    last_read_back: u64,
    trace_bytes: u64,
    malformed: u64,
    io_errors: u64,
    peak_chunk_records: u64,
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for OffDisk {
    const NAME: &'static str = "trace_offdisk";

    fn setup(seed: u64) -> Result<Self, String> {
        let sim = Simulation::prepare(&Dense::SHAPE.config(1), seed, false).run();
        let records = sim.take_sorted();
        // Inside the checkout, unique per process so concurrent runs do not
        // share files.
        let root = PathBuf::from("benchmark/out").join(format!("offdisk-{}", std::process::id()));
        Ok(OffDisk {
            records,
            engine: sim.engine,
            root,
            reps: 0,
            last_report: String::new(),
            last_read_back: 0,
            trace_bytes: 0,
            malformed: 0,
            io_errors: 0,
            peak_chunk_records: 0,
        })
    }

    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        let dir = self.root.join(format!("rep{}", self.reps));
        self.reps += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", dir.display());
        let mut rep = Rep::default();
        let n = self.records.len() as u64;

        let id = rec.enter("trace.dirsink_write");
        let io_errors = rep.stage(0, || -> std::io::Result<u64> {
            let sink = BufferedSink::new(DirSink::create_stamped(&dir)?);
            sink.record_batch(&self.records);
            sink.flush();
            Ok(sink.io_errors())
        });
        rec.exit(id, n);
        let io_errors = io_errors.map_err(|e| io("creating", e))?;
        self.trace_bytes = dir_bytes(&dir);

        let id = rec.enter("trace.day_chunks");
        let read = rep.stage(1, || -> std::io::Result<(u64, u64, bool)> {
            let mut chunks = LogDirReader::new(&dir).day_chunks(1)?;
            let (mut records, mut malformed, mut ordered) = (0u64, 0u64, true);
            while let Some(chunk) = chunks.next_day() {
                let chunk = chunk?;
                records += chunk.records.len() as u64;
                malformed += chunk.stats.malformed as u64;
                ordered &= chunk
                    .records
                    .windows(2)
                    .all(|w| (w[0].t, w[0].origin, w[0].seq) <= (w[1].t, w[1].origin, w[1].seq));
            }
            Ok((records, malformed, ordered))
        });
        rec.exit(id, n);
        let (read_back, malformed, ordered) = read.map_err(|e| io("reading", e))?;

        let id = rec.enter("analytics.run_all_offdisk");
        let analysed = rep.stage(2, || engine::run_all_offdisk(&dir, &self.engine, 1));
        rec.exit(id, n);
        let (report, stats) = analysed.map_err(|e| io("analysing", e))?;

        std::fs::remove_dir_all(&dir).map_err(|e| io("removing", e))?;

        rep.items = [n as f64; 3];
        rep.attempted = n;
        rep.failed = io_errors + malformed + stats.parse.malformed as u64;
        if !ordered {
            return Err("day_chunks returned a day out of canonical order".into());
        }
        self.last_read_back = read_back;
        self.malformed = malformed;
        self.io_errors = io_errors;
        self.peak_chunk_records = stats.peak_chunk_records as u64;
        self.last_report = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        rep.fingerprint = sha_hex(&format!(
            "{read_back}|{}|{}\n{}",
            stats.days, stats.parse.parsed, self.last_report
        ));
        Ok(rep)
    }

    fn verify(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.last_read_back != self.records.len() as u64 {
            problems.push(format!(
                "read back {} records, wrote {}",
                self.last_read_back,
                self.records.len()
            ));
        }
        let in_memory = engine::run_all(&self.records, &self.engine);
        match serde_json::to_string(&in_memory) {
            Ok(text) if text == self.last_report => {}
            Ok(_) => problems.push(
                "the off-disk report differs from engine::run_all over the same trace".into(),
            ),
            Err(e) => problems.push(format!("serialising the in-memory report: {e}")),
        }
        let _ = std::fs::remove_dir_all(&self.root);
        problems
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
        let write = rec.totals("trace.dirsink_write");
        let read = rec.totals("trace.day_chunks");
        let fold = rec.totals("analytics.run_all_offdisk");
        out.set("trace.dirsink_ns_per_record", write.ns_per_item());
        out.set("trace.daychunk_ns_per_record", read.ns_per_item());
        out.set(
            "trace.bytes_per_record",
            ratio(self.trace_bytes as f64, self.records.len() as f64),
        );
        out.set("trace.io_errors", self.io_errors as f64);
        out.set("trace.malformed", self.malformed as f64);
        // The engine reads the day chunks itself; what is left after taking
        // the stand-alone read out is the fold.
        out.set(
            "analytics.offdisk_fold_ns_per_record",
            ratio(fold.ns.saturating_sub(read.ns) as f64, fold.count as f64),
        );
        out.set(
            "analytics.peak_chunk_records",
            self.peak_chunk_records as f64,
        );
        Ok(())
    }
}

impl Drop for OffDisk {
    fn drop(&mut self) {
        // A run that failed half-way must not leave its trace behind.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
