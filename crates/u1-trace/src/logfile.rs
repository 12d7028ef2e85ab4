//! Logfile naming, directory reading and timestamp merging.
//!
//! Mirrors §4 of the paper: one logfile per server process per day, named
//! `production-<machine>-<process>-<date>`; each file is internally
//! sequential; a merged, timestamp-sorted view is what the analyses consume;
//! ~1% of lines may fail to parse and are skipped (and counted).
//!
//! There is one read path. A file (or a byte range of one) is read once into
//! a buffer the caller reuses, lines are found by scanning it for `\n`, and
//! each goes through [`csvline::parse_line`] as bytes, straight into the
//! caller's record vector. Nothing checks that a file is UTF-8: a line of
//! garbage — binary bytes, a NUL, half a record — is one
//! [`ParseStats::malformed`] count like any other line that does not parse;
//! a line holding nothing but `\r` is blank and not counted at all.
//!
//! [`LogDirReader::read_all_parallel`] splits files into *byte ranges aligned
//! to line boundaries* (each task seeks into its own handle, so one big file
//! does not serialize the read on one task) and concatenates per-range output
//! in `(file, range)` order — identical to the serial [`LogDirReader::read_all`].
//!
//! Range-split convention: a range `[start, end)` owns every line whose
//! *first byte* lies in the range. A task with `start > 0` starts reading at
//! `start - 1` and discards through the first `\n` (that line's first byte
//! is owned by an earlier range), and the last line of a range may extend
//! past `end` (later ranges skip it by the same rule). Every line is
//! therefore parsed exactly once no matter where the split points land —
//! mid-line, on a boundary, or past EOF.

use crate::csvline;
use crate::event::TraceRecord;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use u1_core::sync::Mutex;
use u1_core::{MachineId, ProcessId, SimTime};

/// Floor on planned range size: below this, per-task overhead (open, seek,
/// partial-line skip) beats the parallelism. Small files still parse as a
/// single range each.
const MIN_RANGE_BYTES: u64 = 256 * 1024;

/// How much is read at a time past a range's end to finish its last line.
const TAIL_BYTES: u64 = 256;

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

    /// Folds another file's (or directory shard's) counters into this one —
    /// the merge used by the parallel reader.
    pub fn absorb(&mut self, other: &ParseStats) {
        self.files += other.files;
        self.lines += other.lines;
        self.parsed += other.parsed;
        self.malformed += other.malformed;
        self.skipped_files += other.skipped_files;
    }
}

/// The read path: parses every line of `path` whose first byte lies in
/// `[start, end)` (the module-level split convention; `end == u64::MAX` for
/// a whole file) onto the end of `records`, and returns the range's counters
/// with `files == 0`. The bytes are read once into `buf`, whose old contents
/// are dropped and whose allocation the caller keeps for the next file.
/// Malformed lines are counted and skipped, never fatal.
fn read_range_into(
    path: &Path,
    machine: MachineId,
    process: ProcessId,
    (start, end): (u64, u64),
    buf: &mut Vec<u8>,
    records: &mut Vec<TraceRecord>,
) -> std::io::Result<ParseStats> {
    let mut stats = ParseStats::default();
    if start >= end {
        return Ok(stats);
    }
    let mut file = fs::File::open(path)?;
    // One byte early: if that byte is a `\n`, `start` is a line boundary;
    // if not, it belongs to a line an earlier range owns, dropped below.
    let from = start.saturating_sub(1);
    if from > 0 {
        file.seek(SeekFrom::Start(from))?;
    }
    buf.clear();
    let mut want = end - from;
    let mut got = file.by_ref().take(want).read_to_end(buf)? as u64;
    // The range's last line may run past `end`: read on to its `\n` or EOF.
    let mut unseen = buf.len().saturating_sub(1);
    while got == want && !buf[unseen..].contains(&b'\n') {
        unseen = buf.len();
        want = TAIL_BYTES;
        got = file.by_ref().take(want).read_to_end(buf)? as u64;
    }
    // Where `end` falls in the buffer: lines starting before it are ours.
    let owned = (end - from).min(buf.len() as u64) as usize;
    records.reserve(owned / RESERVE_BYTES_PER_RECORD);
    let mut pos = match start {
        0 => 0,
        _ => csvline::find_byte(buf, b'\n').map_or(buf.len(), |newline| newline + 1),
    };
    while pos < owned {
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

/// Parses a single logfile into records plus its own [`ParseStats`]
/// (`files == 1`).
pub fn read_logfile(
    path: &Path,
    machine: MachineId,
    process: ProcessId,
) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
    let (records, mut stats) = read_logfile_range(path, machine, process, 0, u64::MAX)?;
    stats.files = 1;
    Ok((records, stats))
}

/// Parses the byte range `[start, end)` of one logfile: every line whose
/// first byte lies in the range, following the module-level split
/// convention. Returns records plus stats with `files == 0` — the caller
/// attributes the file once (on the range with `start == 0`), so summing
/// range stats in order reproduces the serial per-file [`ParseStats`]
/// exactly.
pub fn read_logfile_range(
    path: &Path,
    machine: MachineId,
    process: ProcessId,
    start: u64,
    end: u64,
) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
    let (mut buf, mut records) = (Vec::new(), Vec::new());
    let stats = read_range_into(path, machine, process, (start, end), &mut buf, &mut records)?;
    Ok((records, stats))
}

/// Parses one logfile serially but through the range reader, splitting at
/// the given byte offsets (unsorted, duplicate, mid-line, or past-EOF
/// offsets are all fine). A verification helper: output must be identical
/// to [`read_logfile`] for *any* split set, which is what the differential
/// tests assert with adversarial offsets.
pub fn read_logfile_at_splits(
    path: &Path,
    machine: MachineId,
    process: ProcessId,
    splits: &[u64],
) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
    let len = fs::metadata(path)?.len();
    let mut points: Vec<u64> = splits.iter().map(|&s| s.min(len)).collect();
    points.push(0);
    points.push(len);
    points.sort_unstable();
    points.dedup();
    let mut records = Vec::new();
    let mut stats = ParseStats {
        files: 1,
        ..ParseStats::default()
    };
    let mut buf = Vec::new();
    for w in points.windows(2) {
        let range = (w[0], w[1]);
        let read = read_range_into(path, machine, process, range, &mut buf, &mut records)?;
        stats.absorb(&read);
    }
    Ok((records, stats))
}

/// One planned parse task: the byte range `[start, end)` of file index
/// `file`. `first` marks the range that attributes the file itself (stats
/// `files` count) so per-file stats stay identical to serial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RangeTask {
    file: usize,
    first: bool,
    start: u64,
    end: u64,
}

/// Plans line-boundary-agnostic byte ranges over the files: roughly
/// `threads * 4` equal-size tasks across the total byte count (for load
/// balance under the work-stealing cursor), floored at [`MIN_RANGE_BYTES`],
/// each file split independently. Empty files yield one empty range so
/// they are still counted.
fn plan_ranges(sizes: &[u64], threads: usize) -> Vec<RangeTask> {
    let total: u64 = sizes.iter().sum();
    let target_tasks = (threads * 4).max(1) as u64;
    let bytes_per_task = (total / target_tasks).max(MIN_RANGE_BYTES);
    let mut tasks = Vec::new();
    for (file, &len) in sizes.iter().enumerate() {
        let ranges = (len / bytes_per_task).max(1);
        let chunk = len.div_ceil(ranges).max(1);
        let mut start = 0u64;
        loop {
            let end = (start + chunk).min(len);
            tasks.push(RangeTask {
                file,
                first: start == 0,
                start,
                end,
            });
            if end >= len {
                break;
            }
            start = end;
        }
    }
    tasks
}

/// A parsed logfile path with the origin and day encoded in its name.
type LogfileEntry = (PathBuf, MachineId, ProcessId, u64);

/// Reads the given logfiles serially, concatenating records in file order
/// (no sort — callers pick their own ordering key): every file is parsed
/// straight onto the end of one vector, reserved once from the files' sizes.
fn read_files(files: &[LogfileEntry]) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
    let mut stats = ParseStats::default();
    let sizes = files
        .iter()
        .map(|(path, ..)| fs::metadata(path).map(|m| m.len()));
    let bytes = sizes.sum::<std::io::Result<u64>>()?;
    let mut records = Vec::with_capacity(bytes as usize / RESERVE_BYTES_PER_RECORD);
    let mut buf = Vec::new();
    for (path, machine, process, _day) in files {
        let whole = (0, u64::MAX);
        let read = read_range_into(path, *machine, *process, whole, &mut buf, &mut records)?;
        stats.absorb(&read);
        stats.files += 1;
    }
    Ok((records, stats))
}

/// Reads the given logfiles via planned byte ranges on a work-stealing
/// cursor (see the module docs), concatenating per-range output in
/// `(file, range)` order — byte-identical to [`read_files`] at every thread
/// count. No sort.
fn read_files_parallel(
    files: &[LogfileEntry],
    threads: usize,
) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
    let threads = threads.max(1);
    if threads <= 1 || files.is_empty() {
        return read_files(files);
    }
    let sizes = files
        .iter()
        .map(|(path, _, _, _)| fs::metadata(path).map(|m| m.len()))
        .collect::<std::io::Result<Vec<u64>>>()?;
    let tasks = plan_ranges(&sizes, threads);
    type TaskResult = std::io::Result<(Vec<TraceRecord>, ParseStats)>;
    let slots: Mutex<Vec<Option<TaskResult>>> =
        Mutex::new((0..tasks.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    // Tasks are planned for the REQUESTED thread count (so granularity
    // and the range/merge logic are identical on every host), but the
    // worker pool is capped at the host's cores: extra OS threads just
    // time-slice the same cores over disjoint buffers. Pure scheduling —
    // tasks drain off the cursor, output is position-indexed.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = threads.min(tasks.len()).min(cpus.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut buf = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else {
                        break;
                    };
                    let (path, machine, process, _day) = &files[task.file];
                    let (range, mut records) = ((task.start, task.end), Vec::new());
                    let result =
                        read_range_into(path, *machine, *process, range, &mut buf, &mut records)
                            .map(|stats| (records, stats));
                    slots.lock()[i] = Some(result);
                }
            });
        }
    });
    let slots = slots.into_inner();
    let mut stats = ParseStats::default();
    let mut records = Vec::new();
    for (task, slot) in tasks.iter().zip(slots) {
        let (mut recs, range_stats) =
            slot.ok_or_else(|| std::io::Error::other("parse task missing"))??;
        stats.absorb(&range_stats);
        stats.files += usize::from(task.first);
        records.append(&mut recs);
    }
    Ok((records, stats))
}

/// Sorts `records` by `key` with equal keys left in their current order. A
/// record is 48 bytes, so the stable sort moves the records themselves: it
/// finds the sorted runs a day's files are laid end to end in and merges
/// them, and leaves records already in order where they are.
fn sort_records(records: &mut [TraceRecord], key: impl Fn(&TraceRecord) -> (SimTime, u16, u64)) {
    records.sort_by_key(key);
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
    /// timestamp (stable within ties) plus parse statistics. Malformed lines
    /// are counted and skipped, never fatal — matching the original
    /// pipeline's tolerance.
    pub fn read_all(&self) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
        self.read_all_parallel(1)
    }

    /// [`Self::read_all`] parallelized over line-aligned byte ranges (see
    /// the module docs for the split convention): every file is split into
    /// ~equal byte ranges, tasks are claimed off an atomic cursor, and each
    /// task seeks its own file handle — so one large file parallelizes
    /// instead of serializing on a single per-file task. Per-range output
    /// is concatenated in `(file, range)` order — the exact byte order of
    /// the serial reader — and stable-sorted by timestamp, so records *and*
    /// per-file stats are identical to `read_all` at every thread count.
    pub fn read_all_parallel(
        &self,
        threads: usize,
    ) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
        let (files, skipped_files) = self.logfiles()?;
        let mut stats = ParseStats {
            skipped_files,
            ..ParseStats::default()
        };
        let (mut records, read_stats) = read_files_parallel(&files, threads)?;
        stats.absorb(&read_stats);
        sort_records(&mut records, |r| (r.t, 0, 0));
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
        Some(
            read_files_parallel(files, self.threads).map(|(mut records, stats)| {
                sort_records(&mut records, |r| (r.t, r.origin, r.seq));
                DayChunk {
                    day: *day,
                    records,
                    stats,
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Payload, SessionEvent};
    use crate::sink::{DirSink, TraceSink};
    use std::io::Write;
    use u1_core::{SessionId, UserId};

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

    #[test]
    fn parallel_read_is_identical_to_serial_at_every_thread_count() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-par-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);

        let reader = LogDirReader::new(&dir);
        let (serial, serial_stats) = reader.read_all().unwrap();
        for threads in [1, 2, 3, 8, 64] {
            let (par, par_stats) = reader.read_all_parallel(threads).unwrap();
            assert_eq!(par_stats, serial_stats, "stats differ at {threads} threads");
            assert_eq!(par, serial, "records differ at {threads} threads");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Bytes that are not text cost one malformed line each, on every read
    /// path alike: the directory reads (serial, parallel, by day) and the
    /// range reader split at every byte offset of the corrupted file all
    /// return the serial result, records and counters.
    #[test]
    fn bytes_that_are_not_text_are_malformed_lines_on_every_read_path() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-bytes-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);

        let reader = LogDirReader::new(&dir);
        let (serial, serial_stats) = reader.read_all().unwrap();
        assert_eq!((serial.len(), serial_stats.malformed), (50, 7));
        for threads in [1, 2, 4, 8] {
            let (par, par_stats) = reader.read_all_parallel(threads).unwrap();
            assert_eq!(par_stats, serial_stats, "stats differ at {threads} threads");
            assert_eq!(par, serial, "records differ at {threads} threads");

            // Every record is from day 0 with a timestamp of its own, so the
            // one day chunk is the whole directory in the same order.
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
            assert_eq!(stats, serial_stats, "day stats differ at {threads} threads");
            assert_eq!(all, serial, "day records differ at {threads} threads");
        }

        let (files, _) = reader.logfiles().unwrap();
        let (path, machine, process, _day) = files
            .iter()
            .find(|(path, _, _, _)| fs::read(path).unwrap().contains(&0xff))
            .expect("the corrupted file");
        let (whole, whole_stats) = read_logfile(path, *machine, *process).unwrap();
        assert_eq!(whole_stats.malformed, 7);
        for split in 0..=fs::metadata(path).unwrap().len() {
            let (recs, stats) = read_logfile_at_splits(path, *machine, *process, &[split]).unwrap();
            assert_eq!(stats, whole_stats, "stats differ split at byte {split}");
            assert_eq!(recs, whole, "records differ split at byte {split}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite for the byte-range reader: adversarial split points — mid
    /// line, every line boundary, past EOF, degenerate zero-width — must
    /// reproduce the serial per-file records and [`ParseStats`] exactly,
    /// including on an empty file and a file whose final line has no
    /// trailing newline.
    #[test]
    fn range_reader_survives_adversarial_split_points() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-split-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);
        // Adversarial additions: an empty (but valid-named) logfile and a
        // file whose final line lacks the trailing newline.
        let empty = dir.join("production-whitecurrant-7-day00.csv");
        fs::write(&empty, b"").unwrap();
        let target = dir.join("production-whitecurrant-1-day00.csv");
        let mut bytes = fs::read(&target).unwrap_or_default();
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            fs::write(&target, &bytes).unwrap();
        }

        let (files, _) = LogDirReader::new(&dir).logfiles().unwrap();
        assert!(files.iter().any(|(p, _, _, _)| p == &empty));
        for (path, machine, process, _day) in &files {
            let (serial, serial_stats) = read_logfile(path, *machine, *process).unwrap();
            let len = fs::metadata(path).unwrap().len();
            let splits: Vec<Vec<u64>> = vec![
                vec![],                              // no split at all
                vec![0, len, len + 10_000],          // boundaries + past EOF
                vec![1],                             // mid first line
                vec![len / 2],                       // mid file
                vec![len.saturating_sub(1)],         // inside the final line
                (0..len).step_by(7).collect(),       // dense, mostly mid-line
                (0..=len).collect(),                 // every byte a split
                vec![len / 3, len / 3, 2 * len / 3], // duplicates
            ];
            for split in &splits {
                let (recs, stats) =
                    read_logfile_at_splits(path, *machine, *process, split).unwrap();
                assert_eq!(
                    stats, serial_stats,
                    "per-file stats differ at splits {split:?} for {path:?}"
                );
                assert_eq!(
                    recs, serial,
                    "records differ at splits {split:?} for {path:?}"
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The directory-level byte-range reader at thread counts 1/2/4/8 on a
    /// directory containing an empty file and a no-trailing-newline file:
    /// records and stats byte-identical to serial, and the planner actually
    /// splits a large file into multiple ranges.
    #[test]
    fn byte_range_parallel_read_matches_serial_with_edge_files() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-range-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);
        fs::write(dir.join("production-whitecurrant-7-day00.csv"), b"").unwrap();
        let target = dir.join("production-whitecurrant-1-day00.csv");
        let mut bytes = fs::read(&target).unwrap_or_default();
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            fs::write(&target, &bytes).unwrap();
        }

        let reader = LogDirReader::new(&dir);
        let (serial, serial_stats) = reader.read_all().unwrap();
        for threads in [1, 2, 4, 8] {
            let (par, par_stats) = reader.read_all_parallel(threads).unwrap();
            assert_eq!(par_stats, serial_stats, "stats differ at {threads} threads");
            assert_eq!(par, serial, "records differ at {threads} threads");
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
        for (path, machine, process, _day) in &files {
            let (recs, stats) = read_logfile(path, *machine, *process).unwrap();
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

    /// The sort helper against the stable sort by key, which is all it may
    /// be, however it gets there: per-origin runs laid end to end, then with
    /// records displaced, many sharing a timestamp and all the legacy
    /// `(0, 0)` stamp — equal keys must keep their input order, exactly as
    /// `sort_by_key` leaves them.
    #[test]
    fn sort_records_is_the_stable_sort_by_key() {
        let mut records = Vec::new();
        for run in 0..5u64 {
            for i in 0..40u64 {
                let mut rec = TraceRecord::new(
                    SimTime::from_secs((i * 7 + run) / 3),
                    MachineId::new(run as u16),
                    ProcessId::new(0),
                    Payload::Auth {
                        // Tells records with equal keys apart.
                        user: UserId::new(run * 100 + i),
                        success: true,
                    },
                );
                (rec.origin, rec.seq) = if run % 2 == 0 {
                    (0, 0)
                } else {
                    (run as u16, i)
                };
                records.push(rec);
            }
        }
        let mut state = 0x9E37_79B9u64;
        for round in 0..4 {
            type Key = fn(&TraceRecord) -> (SimTime, u16, u64);
            for key in [(|r| (r.t, 0, 0)) as Key, |r| (r.t, r.origin, r.seq)] {
                let mut expected = records.clone();
                expected.sort_by_key(key);
                let mut sorted = records.clone();
                sort_records(&mut sorted, key);
                assert_eq!(sorted, expected, "round {round}");
                // Already in order: left as it is.
                sort_records(&mut sorted, key);
                assert_eq!(sorted, expected, "round {round}, second sort");
            }
            for _ in 0..30 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (a, b) = (
                    (state >> 33) as usize % records.len(),
                    (state >> 13) as usize % records.len(),
                );
                records.swap(a, b);
            }
        }
    }

    /// The range planner: every byte covered exactly once, per-file `first`
    /// flags, empty files kept, large files split.
    #[test]
    fn range_planner_covers_every_byte_exactly_once() {
        let sizes = [3 * MIN_RANGE_BYTES + 17, 0, 1, MIN_RANGE_BYTES];
        let tasks = plan_ranges(&sizes, 4);
        for (file, &len) in sizes.iter().enumerate() {
            let mine: Vec<&RangeTask> = tasks.iter().filter(|t| t.file == file).collect();
            assert!(!mine.is_empty(), "file {file} lost");
            assert!(mine[0].first && mine[0].start == 0);
            assert!(mine[1..].iter().all(|t| !t.first));
            assert_eq!(mine.last().unwrap().end, len);
            for w in mine.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap/overlap in file {file}");
            }
        }
        // The big file actually split; the empty file still has one task.
        assert!(tasks.iter().filter(|t| t.file == 0).count() > 1);
        assert_eq!(
            tasks
                .iter()
                .filter(|t| t.file == 1)
                .map(|t| (t.start, t.end))
                .collect::<Vec<_>>(),
            vec![(0, 0)]
        );
    }
}
