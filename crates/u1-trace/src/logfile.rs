//! Logfile naming, directory reading and timestamp merging.
//!
//! Mirrors §4 of the paper: one logfile per server process per day, named
//! `production-<machine>-<process>-<date>`; each file is internally
//! sequential; a merged, timestamp-sorted view is what the analyses consume;
//! ~1% of lines may fail to parse and are skipped (and counted).
//!
//! There is one read path, and its unit is the file. A file is read whole
//! into a buffer the caller reuses, lines are found by scanning it for `\n`,
//! and each goes through [`csvline::parse_line`] as bytes, straight into the
//! caller's record vector. Nothing checks that a file is UTF-8: a line of
//! garbage — binary bytes, a NUL, half a record — is one
//! [`ParseStats::malformed`] count like any other line that does not parse;
//! a line holding nothing but `\r` is blank and not counted at all.
//!
//! A day read with more than one thread ([`LogDirReader::day_chunks`]) parses
//! one file per task, largest file first, and appends the files' records in
//! path order: records and counters are the same at every thread count.

use crate::csvline;
use crate::event::TraceRecord;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use u1_core::{MachineId, ProcessId};

/// Bytes of logfile per record, for reserving the record vector before a
/// read: on the low side of real traces (stamped lines average 78 bytes).
const RESERVE_BYTES_PER_RECORD: usize = 64;

/// Builds the logfile name for a (machine, process, day) triple, e.g.
/// `production-whitecurrant-23-day05.csv` — same structure as the paper's
/// `production-whitecurrant-23-20140128` with a trace-relative day index
/// instead of a calendar date.
pub fn logfile_name(machine: MachineId, process: ProcessId, day: u64) -> String {
    format!(
        "production-{}-{}-day{:02}.csv",
        machine.name(),
        process.raw(),
        day
    )
}

/// Parses a logfile name back into its (machine, process, day) components.
/// Returns `None` for files that are not trace logfiles.
pub fn parse_logfile_name(name: &str) -> Option<(MachineId, ProcessId, u64)> {
    let rest = name.strip_prefix("production-")?.strip_suffix(".csv")?;
    // rest = <machinename>-<process>-dayNN ; machine names contain no '-'.
    let mut parts = rest.split('-');
    let machine_name = parts.next()?;
    let process: u16 = parts.next()?.parse().ok()?;
    let day: u64 = parts.next()?.strip_prefix("day")?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    // Recover the machine id from its name. Names cycle every 12 ids; we use
    // the first id with that name, which is unique for clusters of <= 12
    // machines (the original had 6).
    let machine = (0u16..12)
        .map(MachineId::new)
        .find(|m| m.name() == machine_name)?;
    Some((machine, ProcessId::new(process), day))
}

/// Counters describing a file or directory read.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ParseStats {
    pub files: usize,
    pub lines: usize,
    pub parsed: usize,
    pub malformed: usize,
    /// Files whose names did not look like trace logfiles.
    pub skipped_files: usize,
}

impl ParseStats {
    /// Fraction of lines that failed to parse (the paper reports ~1%).
    pub fn malformed_fraction(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.malformed as f64 / self.lines as f64
        }
    }

    /// Folds another file's (or day's) counters into this one.
    pub fn absorb(&mut self, other: &ParseStats) {
        self.files += other.files;
        self.lines += other.lines;
        self.parsed += other.parsed;
        self.malformed += other.malformed;
        self.skipped_files += other.skipped_files;
    }
}

/// The read path: parses every line of `path` onto the end of `records` and
/// returns the file's counters (`files == 1`). The bytes are read once into
/// `buf`, whose old contents are dropped and whose allocation the caller
/// keeps for the next file. Malformed lines are counted and skipped, never
/// fatal.
fn read_file_into(
    path: &Path,
    machine: MachineId,
    process: ProcessId,
    buf: &mut Vec<u8>,
    records: &mut Vec<TraceRecord>,
) -> std::io::Result<ParseStats> {
    let mut stats = ParseStats {
        files: 1,
        ..ParseStats::default()
    };
    buf.clear();
    fs::File::open(path)?.read_to_end(buf)?;
    records.reserve(buf.len() / RESERVE_BYTES_PER_RECORD);
    let mut pos = 0;
    while pos < buf.len() {
        let rest = &buf[pos..];
        let mut line = &rest[..csvline::find_byte(rest, b'\n').unwrap_or(rest.len())];
        pos += line.len() + 1;
        while let [head @ .., b'\r'] = line {
            line = head;
        }
        if line.is_empty() {
            continue;
        }
        stats.lines += 1;
        match csvline::parse_line(line, machine, process) {
            Ok(rec) => {
                stats.parsed += 1;
                records.push(rec);
            }
            Err(_) => stats.malformed += 1,
        }
    }
    Ok(stats)
}

/// A parsed logfile path with the origin and day encoded in its name.
type LogfileEntry = (PathBuf, MachineId, ProcessId, u64);

/// One file's read: its records and counters.
type FileRead = std::io::Result<(Vec<TraceRecord>, ParseStats)>;

/// Reads the given logfiles and concatenates their records in the order
/// given (no sort — callers pick their own ordering key) onto one vector,
/// reserved once from the files' sizes.
///
/// With one file, or `threads <= 1`, or a single-core host, the files are
/// read one after another straight onto that vector. Otherwise
/// `min(threads, files, cores)` workers claim files off an atomic cursor,
/// largest first, each into a vector of its own, and the files' vectors are
/// appended in the given order: the result is the serial one at every
/// thread count.
fn read_files(files: &[LogfileEntry], threads: usize) -> FileRead {
    let sizes = files
        .iter()
        .map(|(path, ..)| fs::metadata(path).map(|m| m.len()))
        .collect::<std::io::Result<Vec<u64>>>()?;
    let bytes: u64 = sizes.iter().sum();
    let mut records = Vec::with_capacity(bytes as usize / RESERVE_BYTES_PER_RECORD);
    let mut stats = ParseStats::default();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = threads.min(files.len()).min(cpus);
    if workers <= 1 {
        let mut buf = Vec::new();
        for (path, machine, process, _day) in files {
            let read = read_file_into(path, *machine, *process, &mut buf, &mut records)?;
            stats.absorb(&read);
        }
        return Ok((records, stats));
    }
    // Largest first, so the last file claimed is a small one; the stable
    // sort leaves equal sizes in path order.
    let mut claims: Vec<usize> = (0..files.len()).collect();
    claims.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let next = AtomicUsize::new(0);
    let mut reads: Vec<(usize, FileRead)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let (mut buf, mut done) = (Vec::new(), Vec::new());
                    while let Some(&i) = claims.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (path, machine, process, _day) = &files[i];
                        let mut recs = Vec::new();
                        let read = read_file_into(path, *machine, *process, &mut buf, &mut recs);
                        done.push((i, read.map(|file_stats| (recs, file_stats))));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parse worker panicked"))
            .collect()
    });
    reads.sort_unstable_by_key(|&(i, _)| i);
    for (_, read) in reads {
        let (mut recs, file_stats) = read?;
        stats.absorb(&file_stats);
        records.append(&mut recs);
    }
    Ok((records, stats))
}

/// Reads a directory of trace logfiles.
pub struct LogDirReader {
    dir: PathBuf,
}

impl LogDirReader {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The directory's logfiles in deterministic (path-sorted) order, plus
    /// the count of skipped foreign files.
    fn logfiles(&self) -> std::io::Result<(Vec<LogfileEntry>, usize)> {
        let mut entries: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        // Deterministic file order so ties in timestamps break identically
        // across runs.
        entries.sort();
        let mut files = Vec::with_capacity(entries.len());
        let mut skipped = 0usize;
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            match parse_logfile_name(name) {
                Some((machine, process, day)) => files.push((path, machine, process, day)),
                None => skipped += 1,
            }
        }
        Ok((files, skipped))
    }

    /// Reads and merges every logfile, returning records sorted by
    /// timestamp (stable within ties, so equal timestamps keep path order)
    /// plus parse statistics. Malformed lines are counted and skipped, never
    /// fatal — matching the original pipeline's tolerance.
    pub fn read_all(&self) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
        let (files, skipped_files) = self.logfiles()?;
        let (mut records, mut stats) = read_files(&files, 1)?;
        stats.skipped_files = skipped_files;
        records.sort_by_key(|r| r.t);
        Ok((records, stats))
    }

    /// Groups the directory's logfiles by the day index in their names and
    /// returns a bounded-memory iterator over them, ascending. This is the
    /// off-disk scale path: [`DirSink`](crate::DirSink) picks each record's
    /// file by `t.day_index()`, so the day files exactly partition the trace
    /// by time, and one day (~1/30 of a month) is the largest buffer the
    /// reader ever holds.
    ///
    /// Each chunk is sorted by `(t, origin, seq)`. On a *stamped* directory
    /// (see [`DirSink::create_stamped`](crate::DirSink::create_stamped))
    /// the concatenation of all chunks is therefore the exact canonical
    /// order of `MemorySink::take_sorted` — what lets off-disk analytics
    /// reproduce the in-memory results bit for bit.
    pub fn day_chunks(&self, threads: usize) -> std::io::Result<DayChunks> {
        let (files, skipped_files) = self.logfiles()?;
        let mut days: Vec<(u64, Vec<LogfileEntry>)> = Vec::new();
        // `logfiles()` is path-sorted, not day-sorted (day is the last name
        // component), so group via a sort by day; the per-day file order
        // stays path-sorted because the sort is stable.
        let mut sorted = files;
        sorted.sort_by_key(|(_, _, _, day)| *day);
        for entry in sorted {
            match days.last_mut() {
                Some((day, group)) if *day == entry.3 => group.push(entry),
                _ => days.push((entry.3, vec![entry])),
            }
        }
        Ok(DayChunks {
            days,
            threads: threads.max(1),
            next: 0,
            skipped_files,
        })
    }
}

/// One day of a trace directory, parsed and canonically sorted.
pub struct DayChunk {
    /// The day index shared by every record's `t.day_index()`.
    pub day: u64,
    /// The day's records, sorted by `(t, origin, seq)`.
    pub records: Vec<TraceRecord>,
    /// Parse counters for this day's files only.
    pub stats: ParseStats,
}

/// Iterator over a trace directory's days in ascending order; see
/// [`LogDirReader::day_chunks`]. Only one day's records are in memory at a
/// time — the caller folds a chunk and drops it before asking for the next.
pub struct DayChunks {
    days: Vec<(u64, Vec<LogfileEntry>)>,
    threads: usize,
    next: usize,
    skipped_files: usize,
}

impl DayChunks {
    /// Number of distinct days in the directory.
    pub fn days(&self) -> usize {
        self.days.len()
    }

    /// Foreign (non-logfile) files in the directory; attribute this once
    /// when summing chunk stats to reproduce [`LogDirReader::read_all`]'s
    /// totals.
    pub fn skipped_files(&self) -> usize {
        self.skipped_files
    }

    /// Reads, parses and canonically sorts the next day. `None` when every
    /// day has been consumed.
    pub fn next_day(&mut self) -> Option<std::io::Result<DayChunk>> {
        let (day, files) = self.days.get(self.next)?;
        self.next += 1;
        Some(read_files(files, self.threads).map(|(mut records, stats)| {
            records.sort_by_key(|r| (r.t, r.origin, r.seq));
            DayChunk {
                day: *day,
                records,
                stats,
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Payload, SessionEvent};
    use crate::sink::{DirSink, TraceSink};
    use std::io::Write;
    use u1_core::{SessionId, SimTime, UserId};

    #[test]
    fn logfile_names_round_trip() {
        for (m, p, d) in [(0u16, 0u16, 0u64), (3, 23, 28), (11, 255, 99)] {
            let name = logfile_name(MachineId::new(m), ProcessId::new(p), d);
            let (m2, p2, d2) = parse_logfile_name(&name).expect(&name);
            assert_eq!(m2.name(), MachineId::new(m).name());
            assert_eq!(p2.raw(), p);
            assert_eq!(d2, d);
        }
    }

    #[test]
    fn rejects_foreign_file_names() {
        assert_eq!(parse_logfile_name("README.md"), None);
        assert_eq!(parse_logfile_name("production-whitecurrant-1.csv"), None);
        assert_eq!(parse_logfile_name("production-mars-1-day01.csv"), None);
        assert_eq!(
            parse_logfile_name("production-whitecurrant-x-day01.csv"),
            None
        );
    }

    fn write_corrupted_dir(dir: &Path) -> Vec<TraceRecord> {
        let _ = fs::remove_dir_all(dir);
        let mut expected = Vec::new();
        {
            let sink = DirSink::create(dir).unwrap();
            for i in 0..50u64 {
                let rec = TraceRecord::new(
                    SimTime::from_secs(i * 100),
                    MachineId::new((i % 3) as u16),
                    ProcessId::new((i % 4) as u16),
                    Payload::Session {
                        event: if i % 2 == 0 {
                            SessionEvent::Open
                        } else {
                            SessionEvent::Close
                        },
                        session: SessionId::new(i),
                        user: UserId::new(i % 7),
                    },
                );
                expected.push(rec.clone());
                sink.record(rec);
            }
            sink.flush();
        }
        // Corrupt one file with garbage lines and drop in a foreign file.
        // Seven of the lines are malformed (two only by an origin or an
        // attempt one past its width); the blank line and the lone `\r` are
        // not lines at all. None of the bytes after the fourth line would
        // get past a reader that insists on UTF-8.
        let garbage_target = fs::read_dir(dir).unwrap().next().unwrap().unwrap().path();
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(&garbage_target)
                .unwrap();
            writeln!(f, "totally,bogus,line").unwrap();
            writeln!(f, "12345,frobnicate").unwrap();
            writeln!(f, "4800000000,auth,u1,ok,o=65536").unwrap();
            writeln!(f, "4800000000,auth,u1,ok,a=256").unwrap();
            f.write_all(b"\xff\xfe\x80 not text\n").unwrap();
            f.write_all(b"77,auth,u\0,ok\n").unwrap();
            f.write_all(b"\r\n\n").unwrap();
            f.write_all(b"4900000001,session,open,s5").unwrap();
        }
        fs::write(dir.join("notes.txt"), "not a trace\n").unwrap();
        expected.sort_by_key(|r| r.t);
        expected
    }

    #[test]
    fn write_then_read_round_trip_with_corruption_tolerance() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-test-{}", std::process::id()));
        let expected = write_corrupted_dir(&dir);

        let (records, stats) = LogDirReader::new(&dir).read_all().unwrap();
        assert_eq!(stats.parsed, 50);
        assert_eq!(stats.malformed, 7);
        assert_eq!(stats.lines, 57);
        assert_eq!(stats.skipped_files, 1);
        assert!(stats.malformed_fraction() > 0.0);
        assert_eq!(records.len(), 50);
        // Sorted by time.
        assert!(records.windows(2).all(|w| w[0].t <= w[1].t));
        // Same multiset of payloads.
        for (a, b) in records.iter().zip(expected.iter()) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.payload, b.payload);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Drains `day_chunks(threads)`: the days' records end to end, and
    /// their counters summed with the directory's skipped files.
    fn read_by_day(reader: &LogDirReader, threads: usize) -> (Vec<TraceRecord>, ParseStats) {
        let mut chunks = reader.day_chunks(threads).unwrap();
        let mut stats = ParseStats {
            skipped_files: chunks.skipped_files(),
            ..ParseStats::default()
        };
        let mut all = Vec::new();
        while let Some(chunk) = chunks.next_day() {
            let chunk = chunk.unwrap();
            stats.absorb(&chunk.stats);
            all.extend(chunk.records);
        }
        (all, stats)
    }

    /// Bytes that are not text cost one malformed line each, on every read
    /// path alike: the whole-directory read, the day chunks at every thread
    /// count, and the corrupted file read on its own.
    #[test]
    fn bytes_that_are_not_text_are_malformed_lines_on_every_read_path() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-bytes-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);

        let reader = LogDirReader::new(&dir);
        let (serial, serial_stats) = reader.read_all().unwrap();
        assert_eq!((serial.len(), serial_stats.malformed), (50, 7));
        // Every record is from day 0 with a timestamp of its own, so the one
        // day chunk is the whole directory in the same order.
        for threads in [1, 2, 4, 8] {
            let (all, stats) = read_by_day(&reader, threads);
            assert_eq!(stats, serial_stats, "day stats differ at {threads} threads");
            assert_eq!(all, serial, "day records differ at {threads} threads");
        }

        let (files, _) = reader.logfiles().unwrap();
        let (path, machine, process, _day) = files
            .iter()
            .find(|(path, _, _, _)| fs::read(path).unwrap().contains(&0xff))
            .expect("the corrupted file");
        let mut recs = Vec::new();
        let stats = read_file_into(path, *machine, *process, &mut Vec::new(), &mut recs).unwrap();
        assert_eq!((stats.files, stats.malformed), (1, 7));
        assert_eq!(stats.parsed, recs.len());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The day chunks at 1/2/4/8 threads over a directory holding an empty
    /// logfile, a file whose last line has no trailing newline and the
    /// non-text bytes of [`write_corrupted_dir`]: records and summed stats
    /// equal the one-thread read, and so does [`LogDirReader::read_all`].
    #[test]
    fn day_chunks_match_the_serial_read_with_edge_files() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-edge-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);
        fs::write(dir.join("production-whitecurrant-7-day00.csv"), b"").unwrap();
        let target = dir.join("production-whitecurrant-1-day00.csv");
        let mut bytes = fs::read(&target).unwrap();
        assert_eq!(bytes.pop(), Some(b'\n'));
        fs::write(&target, &bytes).unwrap();

        let reader = LogDirReader::new(&dir);
        let (serial, serial_stats) = read_by_day(&reader, 1);
        assert_eq!((serial.len(), serial_stats.files), (50, 13));
        for threads in [2, 4, 8] {
            let (par, par_stats) = read_by_day(&reader, threads);
            assert_eq!(par_stats, serial_stats, "stats differ at {threads} threads");
            assert_eq!(par, serial, "records differ at {threads} threads");
        }
        assert_eq!(reader.read_all().unwrap(), (serial, serial_stats));
        let _ = fs::remove_dir_all(&dir);
    }

    /// An unstamped directory carries no `(origin, seq)` to break timestamp
    /// ties, so the file order does: records with equal timestamps come
    /// back in the path order of their files, from the whole-directory
    /// read and from the day chunks at every thread count — even though a
    /// day read with more than one thread claims the larger, later file
    /// first.
    #[test]
    fn equal_timestamps_keep_path_order_in_an_unstamped_directory() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-ties-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let auth = |t: u64, process: u16, user: u64| {
            TraceRecord::new(
                SimTime::from_secs(t),
                MachineId::new(0),
                ProcessId::new(process),
                Payload::Auth {
                    user: UserId::new(user),
                    success: true,
                },
            )
        };
        // File "-1-" sorts first; "-2-" is larger, so it is claimed first.
        let first = (0..4).map(|i| auth(i * 10, 1, 100 + i));
        let second = (0..40).map(|i| auth(i, 2, 200 + i));
        let mut expected: Vec<TraceRecord> = first.chain(second).collect();
        {
            let sink = DirSink::create(&dir).unwrap();
            for rec in &expected {
                sink.record(rec.clone());
            }
            sink.flush();
        }
        // Each tie is broken by file: the first file's record, then the
        // second's.
        expected.sort_by_key(|r| r.t);
        let key = |recs: &[TraceRecord]| -> Vec<(SimTime, Payload)> {
            recs.iter().map(|r| (r.t, r.payload.clone())).collect()
        };
        let expected = key(&expected);

        let reader = LogDirReader::new(&dir);
        assert_eq!(key(&reader.read_all().unwrap().0), expected, "read_all");
        for threads in [1, 2, 4] {
            let (all, _) = read_by_day(&reader, threads);
            assert_eq!(key(&all), expected, "day chunks at {threads} threads");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Day-chunked reading of a *stamped* directory: chunks come back in
    /// ascending day order, each internally sorted by `(t, origin, seq)`,
    /// and their concatenation is the full canonical order — including
    /// equal-timestamp records from different origins, which `t`-only
    /// sorting cannot break deterministically.
    #[test]
    fn stamped_day_chunks_concatenate_into_canonical_order() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-days-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut expected = Vec::new();
        {
            let sink = DirSink::create_stamped(&dir).unwrap();
            let mut i = 0u64;
            for day in 0..3u64 {
                for origin in 0..4u16 {
                    for seq in 0..25u64 {
                        // Deliberate cross-origin timestamp collisions: t
                        // depends on seq but not origin.
                        let mut rec = TraceRecord::new(
                            SimTime::from_secs(day * 86_400 + seq * 60),
                            MachineId::new((i % 3) as u16),
                            ProcessId::new((i % 4) as u16),
                            Payload::Session {
                                event: SessionEvent::Open,
                                session: SessionId::new(i),
                                user: UserId::new(u64::from(origin)),
                            },
                        );
                        rec.origin = origin;
                        rec.seq = seq;
                        expected.push(rec.clone());
                        sink.record(rec);
                        i += 1;
                    }
                }
            }
            sink.flush();
        }
        expected.sort_by_key(|r| (r.t, r.origin, r.seq));

        for threads in [1, 4] {
            let mut chunks = LogDirReader::new(&dir).day_chunks(threads).unwrap();
            assert_eq!(chunks.days(), 3);
            assert_eq!(chunks.skipped_files(), 0);
            let mut all = Vec::new();
            let mut stats = ParseStats::default();
            let mut last_day = None;
            while let Some(chunk) = chunks.next_day() {
                let chunk = chunk.unwrap();
                assert!(last_day < Some(chunk.day), "days out of order");
                last_day = Some(chunk.day);
                assert!(chunk.records.iter().all(|r| r.t.day_index() == chunk.day));
                stats.absorb(&chunk.stats);
                all.extend(chunk.records);
            }
            assert_eq!(stats.parsed, expected.len());
            assert_eq!(stats.malformed, 0);
            assert_eq!(all, expected, "at {threads} threads");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A sorted trace handed to a buffered stamped `DirSink` as one borrowed
    /// batch — how the off-disk path writes it — goes to the files as it is:
    /// every file's lines come out in canonical order, and the day chunks
    /// read back are the batch, record for record, boxed payloads included.
    #[test]
    fn a_sorted_batch_reads_back_from_a_buffered_dir_sink_as_it_was() {
        use crate::event::StorageDone;
        use crate::sink::BufferedSink;
        use u1_core::{ApiOpKind, ContentHash, NodeId, NodeKind, RpcKind, ShardId, VolumeId};

        let dir = std::env::temp_dir().join(format!("u1-logdir-batch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut batch = Vec::new();
        for i in 0..600u64 {
            let (origin, user) = ((i % 5) as u16, UserId::new(i % 13));
            let payload = match i % 4 {
                0 => Payload::Session {
                    event: SessionEvent::Open,
                    session: SessionId::new(i),
                    user,
                },
                1 => Payload::Rpc {
                    rpc: RpcKind::GetNode,
                    shard: ShardId::new((i % 3) as u16),
                    user,
                    service_us: i,
                },
                _ => Payload::Storage(Box::new(StorageDone {
                    op: ApiOpKind::Upload,
                    session: SessionId::new(i),
                    user,
                    volume: VolumeId::new(0),
                    node: Some(NodeId::new(i)),
                    kind: Some(NodeKind::File),
                    size: i * 1000,
                    // Every other storage line without hash and extension.
                    hash: (i % 4 == 2).then(|| ContentHash::from_content_id(i)),
                    ext: u1_core::Ext::new(if i % 4 == 2 { "jpg" } else { "" }),
                    success: true,
                    duration_us: 7,
                })),
            };
            // Three days, each over all six (machine, process) pairs, with
            // timestamps shared across origins.
            let t = SimTime::from_secs((i / 6 % 3) * 86_400 + i / 7);
            let mut rec = TraceRecord::new(
                t,
                MachineId::new((i % 3) as u16),
                ProcessId::new((i % 2) as u16),
                payload,
            );
            (rec.origin, rec.seq) = (origin, i);
            batch.push(rec);
        }
        batch.sort_by_key(|r| (r.t, r.origin, r.seq));

        let sink = BufferedSink::new(DirSink::create_stamped(&dir).unwrap());
        sink.record_batch(&batch);
        sink.flush();
        assert_eq!(sink.io_errors(), 0);

        let reader = LogDirReader::new(&dir);
        let (files, _) = reader.logfiles().unwrap();
        assert_eq!(files.len(), 3 * 3 * 2);
        let (mut buf, mut recs) = (Vec::new(), Vec::new());
        for (path, machine, process, _day) in &files {
            recs.clear();
            let stats = read_file_into(path, *machine, *process, &mut buf, &mut recs).unwrap();
            assert_eq!(stats.malformed, 0);
            assert!(
                recs.windows(2)
                    .all(|w| (w[0].t, w[0].origin, w[0].seq) < (w[1].t, w[1].origin, w[1].seq)),
                "{path:?} is out of canonical order"
            );
        }
        let mut chunks = reader.day_chunks(2).unwrap();
        let mut read_back = Vec::new();
        while let Some(chunk) = chunks.next_day() {
            read_back.extend(chunk.unwrap().records);
        }
        assert_eq!(read_back, batch);
        let _ = fs::remove_dir_all(&dir);
    }
}
