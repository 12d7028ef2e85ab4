//! Several threads writing logfiles through one `BufferedSink<DirSink>` at
//! once, as the driver's workers do on the stream-to-disk path.
//!
//! Four producer threads each emit two origins, alternating record by
//! record. Every origin's records spread over the same (machine, process,
//! day) files, so the threads' chunks meet in every file under `DirSink`'s
//! one writer lock. Whatever the interleaving, every line must parse, each
//! file must hold exactly the records written for it, and reading the
//! directory back by day must give each origin's records in the order it
//! emitted them.

use std::collections::BTreeMap;
use std::fs;
use std::sync::Barrier;
use u1_core::{MachineId, ProcessId, SessionId, SimTime, UserId};
use u1_trace::csvline::parse_line;
use u1_trace::{
    parse_logfile_name, BufferedSink, DirSink, LogDirReader, Payload, SessionEvent, TraceRecord,
    TraceSink,
};

const THREADS: u16 = 4;
const ORIGINS: u16 = 2 * THREADS;

/// Records per origin: more than one `BufferedSink` chunk of 4,096.
const PER_ORIGIN: u64 = 5_000;

/// The origin's `k`-th record: `t` rises with `k` over three days, and
/// consecutive records change machine and process, so every origin writes
/// to each of the 18 files.
fn record(origin: u16, k: u64) -> TraceRecord {
    let t = SimTime::from_secs(k * 3 * 86_400 / PER_ORIGIN + u64::from(origin));
    let machine = MachineId::new((k % 2) as u16);
    let process = ProcessId::new((k / 2 % 3) as u16 + 1);
    let mut rec = TraceRecord::new(
        t,
        machine,
        process,
        Payload::Session {
            event: SessionEvent::Open,
            session: SessionId::new(u64::from(origin) * PER_ORIGIN + k),
            user: UserId::new(u64::from(origin)),
        },
    );
    (rec.origin, rec.seq) = (origin, k);
    rec
}

/// The file a record belongs in.
fn file_of(rec: &TraceRecord) -> (MachineId, ProcessId, u64) {
    (rec.machine, rec.process, rec.t.day_index())
}

#[test]
fn threads_sharing_logfiles_write_whole_lines_in_emission_order() {
    let dir = std::env::temp_dir().join(format!("u1-dir-sink-threads-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let sink = BufferedSink::new(DirSink::create_stamped(&dir).expect("trace directory"));
    let start = Barrier::new(usize::from(THREADS));
    std::thread::scope(|s| {
        for thread in 0..THREADS {
            let (sink, start) = (&sink, &start);
            s.spawn(move || {
                let origins = [thread, thread + THREADS];
                start.wait();
                for k in 0..PER_ORIGIN {
                    for origin in origins {
                        let rec = record(origin, k);
                        let new_day =
                            k > 0 && record(origin, k - 1).t.day_index() != rec.t.day_index();
                        if new_day {
                            sink.flush_origin(u32::from(origin));
                        }
                        sink.record(rec);
                    }
                }
            });
        }
    });
    sink.flush();
    assert_eq!(sink.io_errors(), 0, "{:?}", sink.inner().first_io_error());
    drop(sink);

    let written: Vec<Vec<TraceRecord>> = (0..ORIGINS)
        .map(|origin| (0..PER_ORIGIN).map(|k| record(origin, k)).collect())
        .collect();
    let mut expected: BTreeMap<String, usize> = BTreeMap::new();
    for rec in written.iter().flatten() {
        let (machine, process, day) = file_of(rec);
        *expected
            .entry(u1_trace::logfile_name(machine, process, day))
            .or_default() += 1;
    }
    assert_eq!(expected.len(), 18);

    let mut found: BTreeMap<String, usize> = BTreeMap::new();
    for entry in fs::read_dir(&dir).expect("trace directory") {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        let (machine, process, _) = parse_logfile_name(name).expect("a logfile name");
        let bytes = fs::read(&path).expect("readable logfile");
        assert_eq!(bytes.last(), Some(&b'\n'), "{name} ends mid-line");
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            if let Err(e) = parse_line(line, machine, process) {
                panic!("{name}: {e:?}: {}", String::from_utf8_lossy(line));
            }
        }
        found.insert(
            name.to_string(),
            bytes.iter().filter(|&&b| b == b'\n').count(),
        );
    }
    assert_eq!(found, expected, "lines per file");

    let mut read: Vec<Vec<TraceRecord>> = vec![Vec::new(); usize::from(ORIGINS)];
    let mut days = LogDirReader::new(&dir).day_chunks(2).expect("day chunks");
    while let Some(chunk) = days.next_day() {
        let chunk = chunk.expect("a readable day");
        assert_eq!(chunk.stats.malformed, 0);
        for rec in chunk.records {
            read[usize::from(rec.origin)].push(rec);
        }
    }
    for (origin, (read, written)) in read.iter().zip(&written).enumerate() {
        assert!(read == written, "origin {origin} read back out of order");
    }
    let _ = fs::remove_dir_all(&dir);
}
