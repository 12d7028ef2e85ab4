//! The discrete-event workload driver.
//!
//! Replays a month of client activity against a [`Backend`] under a
//! virtual clock: session arrivals per user (diurnal, weekday-aware),
//! Fig. 8 operation chains inside active sessions with Fig. 9 bursty think
//! times, calibrated file sizes/dedup/lifetimes, the three §5.4 DDoS
//! episodes, and the daily upload-job GC. Every server-side effect is
//! logged through the backend's trace sink, producing the dataset the
//! analytics crate consumes.
//!
//! Each simulated client speaks the storage protocol: it is one
//! [`SessionState`], an op draws its targets and builds a
//! [`Request`], and [`Backend::serve`] answers it, as it answers a socket
//! client. An upload is the §3.2 request sequence, resumed after a crash
//! with `ResumeUpload`. Only population seeding, maintenance and the
//! attack response reach past `serve`, into the store and the back-end.
//!
//! # Parallel execution
//!
//! The client population is partitioned by metastore shard
//! (`MetaStore::shard_of`) into one `ShardSim` per shard,
//! plus a coordinator partition that owns the cross-cutting events
//! (maintenance GC and the §5.4 attack episodes). Each partition carries its
//! own event queue, its own [`u1_core::PartitionCtx`] (origin = shard
//! index), its own strided [`FileModel`] namespace, and per-client RNG
//! substreams — so every random draw and every id a partition consumes is a
//! pure function of the seed and the partition, never of thread
//! interleaving.
//!
//! Partitions are packed onto `cfg.workers` OS threads by *measured* load:
//! day 0 uses client counts as the proxy, and every later day re-packs the
//! shards LPT-style (heaviest first onto the least-loaded worker) using the
//! event counts each shard actually processed the previous day. Workers run
//! a day of virtual time at a time, drain their own partitions' buffered
//! trace runs ([`Backend::flush_trace_origin`]) *before* parking, then park
//! on a barrier while the coordinator runs its own events for the day,
//! seals the content-index epoch ([`Backend::seal_content_epoch`]), making
//! the day's cross-partition dedup state globally visible, and seals the
//! day's trace ([`Backend::seal_trace_before`]). Because no
//! mutable state is keyed by thread or by global arrival order — packing
//! and flush scheduling only move *when* work happens on the wall clock,
//! never *what* the simulation computes — the report and the
//! canonically-sorted trace are identical for every worker count:
//! `workers` is purely a wall-clock knob. Where the wall-clock goes is
//! accounted per phase ([`u1_core::timing`]) and surfaced in
//! [`DriverReport::timing`].

use crate::attack::AttackScript;
use crate::files::{FileModel, FileSpec};
use crate::markov;
use crate::sessions::{self, SessionPlan};
use crate::users::{sample_profile, UserClass, UserProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Barrier};
use u1_auth::Token;
use u1_blobstore::PART_SIZE;
use u1_core::fault::{self, CircuitBreaker, FaultInjector, RetryPolicy};
use u1_core::partition::PartitionCtx;
use u1_core::sync::{Mutex, Rank};
use u1_core::timing::{saturating_nanos, Measured, Phase, PhaseNanos, PhaseTimers};
use u1_core::{
    rngx, ApiOpKind, ContentHash, CoreError, CoreResult, FxHashMap, Name, NodeId, NodeKind,
    SimDuration, SimTime, UploadId, UserId, VolumeId,
};
use u1_proto::msg::{Request, Response};
use u1_server::api::{Served, SessionState};
use u1_server::Backend;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Simulated user population (the paper had 1.29M; the default scale
    /// keeps laptop runtimes in seconds while preserving every shape).
    pub users: u64,
    /// Trace window length in days (paper: 30).
    pub days: u64,
    /// Master seed: same seed ⇒ identical trace.
    pub seed: u64,
    /// Inject the three §5.4 DDoS episodes.
    pub attacks: bool,
    /// Scale factor on the pre-trace seeded file population.
    pub seed_files: f64,
    /// Worker threads the shard partitions are packed onto; `0` means one
    /// per metastore shard. The report and the canonically-sorted trace are
    /// identical for every value — this knob only trades wall-clock time.
    pub workers: usize,
}

impl WorkloadConfig {
    /// Canonical trace SHA (`u1_trace::canonical_sha`) of the
    /// [`paper_scaled`](Self::paper_scaled) month against a default backend
    /// seeded `seed ^ 0xBACC` — the wiring of the experiment harness. The
    /// trace the rest of the repo is calibrated against; pinned by
    /// `golden_paper_scaled_month_sha` in `tests/month_simulation.rs` and,
    /// streamed to disk and read back, by u1-bench's `scale_tier_2500`.
    pub const PAPER_SCALED_MONTH_SHA: &'static str = "276c0d2a4087360ada6eeef55bc5cc592668a01f";

    /// The default measurement-scale configuration used by the experiment
    /// harness: a 1:~500 scale-down of the paper's population over the full
    /// 30-day window.
    pub fn paper_scaled() -> Self {
        Self {
            users: 2_500,
            days: 30,
            seed: 0x0B5E55ED,
            attacks: true,
            seed_files: 1.0,
            workers: 0,
        }
    }

    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Self {
            users: 300,
            days: 7,
            seed: 7,
            attacks: true,
            seed_files: 1.0,
            workers: 0,
        }
    }

    pub fn horizon(&self) -> SimTime {
        SimTime::from_days(self.days)
    }
}

/// What the driver did — the ground truth the trace analyses are checked
/// against.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct DriverReport {
    pub users: u64,
    pub seeded_files: u64,
    pub sessions_opened: u64,
    pub sessions_auth_failed: u64,
    pub ops_executed: u64,
    pub op_errors: u64,
    pub uploads: u64,
    pub upload_updates: u64,
    pub uploads_deduplicated: u64,
    pub bytes_uploaded: u64,
    pub downloads: u64,
    pub bytes_downloaded: u64,
    pub unlinks: u64,
    pub attack_sessions: u64,
    pub attack_ops: u64,
    pub users_banned: u64,
    pub maintenance_runs: u64,
    pub uploadjobs_reaped: u64,
    /// Token-cache counters (the backend's memcached tier; zeros when the
    /// cache is disabled). Globals read off the backend once at the end of
    /// the run, not per-partition counters — `absorb` skips them.
    pub token_cache_hits: u64,
    pub token_cache_misses: u64,
    // ----- fault plane (all zeros under `FaultPlan::none()`) -------------
    /// Client-side retries of ops that failed `unavailable`.
    pub client_retries: u64,
    /// Ops the client skipped because its per-shard circuit breaker was
    /// open (no server work, no trace record).
    pub breaker_fastfails: u64,
    /// Uploads cut short by an injected client crash (the upload job stays
    /// behind, resumable or GC bait).
    pub uploads_interrupted: u64,
    /// Crashed uploads continued from their last recorded part at a later
    /// session.
    pub uploads_resumed: u64,
    /// Crashed uploads whose job was gone (reaped by the weekly GC) when
    /// the client came back.
    pub uploads_abandoned: u64,
    /// Rescans forced by a dropped change notification.
    pub rescans_forced: u64,
    /// Backend-side fault counters, read once at the end of the run like
    /// the token-cache stats — `absorb` skips them.
    pub rpc_timeouts: u64,
    pub rpc_retries: u64,
    pub auth_fallbacks: u64,
    pub notify_dropped: u64,
    pub part_put_failures: u64,
    /// Degraded-mode I/O errors swallowed by the trace sink (`DirSink`
    /// keeps running after a failed open/write; this surfaces the count).
    pub trace_io_errors: u64,
    /// Per-phase wall-clock accounting for the run (worker run / barrier
    /// park / day flush / seal / coordinator thread-nanos). Wrapped in
    /// [`Measured`] so it is invisible to `PartialEq`: two runs with the
    /// same seed produce equal reports but different timings, and the
    /// determinism asserts (golden literal, worker-count invariance) must
    /// keep holding. `absorb` skips it.
    pub timing: Measured<PhaseNanos>,
}

impl DriverReport {
    /// Sums every counter of `other` into `self`. `users` is a population
    /// parameter, not a counter — the driver sets it once at the end.
    fn absorb(&mut self, other: &DriverReport) {
        self.seeded_files += other.seeded_files;
        self.sessions_opened += other.sessions_opened;
        self.sessions_auth_failed += other.sessions_auth_failed;
        self.ops_executed += other.ops_executed;
        self.op_errors += other.op_errors;
        self.uploads += other.uploads;
        self.upload_updates += other.upload_updates;
        self.uploads_deduplicated += other.uploads_deduplicated;
        self.bytes_uploaded += other.bytes_uploaded;
        self.downloads += other.downloads;
        self.bytes_downloaded += other.bytes_downloaded;
        self.unlinks += other.unlinks;
        self.attack_sessions += other.attack_sessions;
        self.attack_ops += other.attack_ops;
        self.users_banned += other.users_banned;
        self.maintenance_runs += other.maintenance_runs;
        self.uploadjobs_reaped += other.uploadjobs_reaped;
        self.client_retries += other.client_retries;
        self.breaker_fastfails += other.breaker_fastfails;
        self.uploads_interrupted += other.uploads_interrupted;
        self.uploads_resumed += other.uploads_resumed;
        self.uploads_abandoned += other.uploads_abandoned;
        self.rescans_forced += other.rescans_forced;
    }
}

/// A file the client keeps. Until its upload lands it is only what
/// `BeginUpload` declares, and `death` and `last_write` are set on landing.
#[derive(Debug, Clone)]
struct FileRef {
    volume: VolumeId,
    node: u1_core::NodeId,
    name: u1_core::Name,
    size: u64,
    hash: ContentHash,
    death: Option<SimTime>,
    last_write: SimTime,
}

#[derive(Debug, Clone)]
struct DirRef {
    volume: VolumeId,
    node: u1_core::NodeId,
    death: Option<SimTime>,
}

struct ClientState {
    user: UserId,
    token: Token,
    profile: UserProfile,
    /// Every behavioral draw of this client comes from its own substream
    /// (`sub_rng(seed, "client", user-1)`), so the draw sequence is
    /// independent of how clients across partitions interleave.
    rng: SmallRng,
    /// The client's protocol session, authenticated while it is online.
    session: SessionState,
    session_end: SimTime,
    ops_left: u64,
    last_op: ApiOpKind,
    root: VolumeId,
    udfs: Vec<VolumeId>,
    /// Add to `files` and `dirs`, and remove from `files`, only through the
    /// methods below: they keep the three cached answers that follow in
    /// step. (Removing a directory cannot invalidate a lower bound.)
    files: Vec<FileRef>,
    dirs: Vec<DirRef>,
    /// Lower bounds on the earliest planned death among `files` / `dirs`
    /// (`None`: nothing is planned to die). While a bound lies in the
    /// future the overdue scans have nothing to find and are skipped.
    next_file_death: Option<SimTime>,
    next_dir_death: Option<SimTime>,
    /// Index of the most recently written file — what the scan in
    /// [`ClientState::latest_written`] returns — or `None` when a removal
    /// may have changed the answer and the next use has to scan again.
    latest_write: Option<usize>,
    known_gen: FxHashMap<VolumeId, u64>,
    pending_upload: Option<FileRef>,
    /// Survives session ends (that is its whole point): a crashed upload
    /// is resumed from its job at the next session, or abandoned once the
    /// GC reaps the job.
    crashed_upload: Option<(FileRef, UploadId)>,
    move_counter: u64,
    /// Machine-paced session (large planned op volume syncs at server
    /// turnaround speed, not human think time).
    bulk: bool,
    /// Occasional users may make a couple of tiny (<10KB-total) transfers
    /// over the month — §6.1's class definition allows it, and Fig. 7(b)
    /// needs ~25%/14% of users to have uploaded/downloaded *something*.
    tiny_budget: u8,
}

/// Folds one more planned death into a lower bound on the earliest one.
fn note_death(bound: &mut Option<SimTime>, death: Option<SimTime>) {
    if let Some(d) = death {
        *bound = Some(bound.map_or(d, |b| b.min(d)));
    }
}

/// Index of the first item whose planned death is at or before `t`. The
/// scan over `deaths` defines the answer; `bound` only says when it cannot
/// find anything, and is made exact whenever a full scan comes up empty.
fn first_overdue(
    deaths: impl Iterator<Item = Option<SimTime>>,
    bound: &mut Option<SimTime>,
    t: SimTime,
) -> Option<usize> {
    if bound.is_none_or(|b| b > t) {
        return None;
    }
    let mut earliest = None;
    for (i, death) in deaths.enumerate() {
        if death.is_some_and(|d| d <= t) {
            return Some(i);
        }
        note_death(&mut earliest, death);
    }
    *bound = earliest;
    None
}

impl ClientState {
    fn push_file(&mut self, file: FileRef) {
        note_death(&mut self.next_file_death, file.death);
        self.files.push(file);
        self.note_write(self.files.len() - 1);
    }

    fn push_dir(&mut self, dir: DirRef) {
        note_death(&mut self.next_dir_death, dir.death);
        self.dirs.push(dir);
    }

    /// `swap_remove`: the last file takes the removed one's index, which
    /// can change which file wins a `last_write` tie, so the cached
    /// "latest" is dropped. The death bounds stay valid lower bounds.
    fn remove_file(&mut self, idx: usize) -> FileRef {
        self.latest_write = None;
        self.files.swap_remove(idx)
    }

    fn dirs_in(&self, vol: VolumeId) -> impl Iterator<Item = &DirRef> {
        self.dirs.iter().filter(move |d| d.volume == vol)
    }

    /// Forgets every file and directory of a deleted volume.
    fn forget_volume(&mut self, vol: VolumeId) {
        self.latest_write = None;
        self.files.retain(|f| f.volume != vol);
        self.dirs.retain(|d| d.volume != vol);
    }

    /// A (re-)upload of `files[idx]` landed at `t`.
    fn rewrite_file(&mut self, idx: usize, size: u64, hash: ContentHash, t: SimTime) {
        let f = &mut self.files[idx];
        f.size = size;
        f.hash = hash;
        f.last_write = t;
        self.note_write(idx);
    }

    /// Keeps a valid `latest_write` valid after `files[idx].last_write` was
    /// set: virtual time never runs backwards within a partition, so the
    /// new stamp can only tie with or beat the cached one, and among ties
    /// the scan picks the highest index.
    fn note_write(&mut self, idx: usize) {
        if let Some(best) = self.latest_write {
            let (new, old) = (self.files[idx].last_write, self.files[best].last_write);
            if new > old || (new == old && idx >= best) {
                self.latest_write = Some(idx);
            }
        }
    }

    /// The most recently written file (the last one among equals; 0 when
    /// there are none). The scan is the definition; the cache repeats its
    /// answer until a removal invalidates it.
    fn latest_written(&mut self) -> usize {
        let scan = |files: &[FileRef]| {
            files
                .iter()
                .enumerate()
                .max_by_key(|(_, f)| f.last_write)
                .map(|(i, _)| i)
        };
        if self.latest_write.is_none() {
            self.latest_write = scan(&self.files);
        }
        debug_assert_eq!(self.latest_write, scan(&self.files));
        self.latest_write.unwrap_or(0)
    }

    fn overdue_file(&mut self, t: SimTime) -> Option<usize> {
        first_overdue(
            self.files.iter().map(|f| f.death),
            &mut self.next_file_death,
            t,
        )
    }

    fn overdue_dir(&mut self, t: SimTime) -> Option<usize> {
        first_overdue(
            self.dirs.iter().map(|d| d.death),
            &mut self.next_dir_death,
            t,
        )
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    SessionStart(u32),
    Op(u32),
    SessionEnd(u32),
    Maintenance,
    AttackWave(u8),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    t: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct AttackState {
    script: AttackScript,
    user: UserId,
    token: Token,
    responded: bool,
}

// ----- per-client helpers (free functions so partition methods can borrow
// ----- a client and the shared file model disjointly) -----------------------

fn pick_volume(c: &mut ClientState) -> VolumeId {
    if !c.udfs.is_empty() && c.rng.gen_range(0.0..1.0) < 0.3 {
        c.udfs[c.rng.gen_range(0..c.udfs.len())]
    } else {
        c.root
    }
}

/// `scratch` is per-partition scratch reused across calls (and across days)
/// so the hot op path does not allocate a fresh directory list per draw.
/// The RNG draw sequence is identical to the old allocating version.
fn pick_parent(
    c: &mut ClientState,
    vol: VolumeId,
    scratch: &mut Vec<u1_core::NodeId>,
) -> Option<u1_core::NodeId> {
    if c.rng.gen_range(0.0..1.0) < 0.5 {
        return None;
    }
    scratch.clear();
    scratch.extend(c.dirs.iter().filter(|d| d.volume == vol).map(|d| d.node));
    if scratch.is_empty() {
        None
    } else {
        Some(scratch[c.rng.gen_range(0..scratch.len())])
    }
}

/// Re-write targets mix the just-written file (80% of WAW gaps < 1h, §5.2)
/// with large media files (§5.1 blames .mp3 re-tagging for the 18.5%
/// update-traffic share: metadata edits re-upload big files).
fn pick_update_target(c: &mut ClientState) -> usize {
    let roll: f64 = c.rng.gen_range(0.0..1.0);
    if roll < 0.45 {
        c.latest_written()
    } else if roll < 0.85 {
        // Largest of a random handful (media re-tagging).
        let mut best = c.rng.gen_range(0..c.files.len());
        for _ in 0..6 {
            let cand = c.rng.gen_range(0..c.files.len());
            if c.files[cand].size > c.files[best].size {
                best = cand;
            }
        }
        best
    } else {
        c.rng.gen_range(0..c.files.len())
    }
}

/// Restricts chain proposals to the user's class, and applies the
/// morning-download bias (§5.1's R/W trend).
fn class_filter(c: &mut ClientState, mut op: ApiOpKind, t: SimTime) -> ApiOpKind {
    use ApiOpKind::*;
    // Hour-of-day swap between transfer directions.
    let bias = sessions::download_bias(t);
    if op == Upload && bias > 1.0 && c.rng.gen_range(0.0..1.0) < (bias - 1.0) * 0.35 {
        op = Download;
    } else if op == Download && bias < 1.0 && c.rng.gen_range(0.0..1.0) < (1.0 - bias) * 0.35 {
        op = Upload;
    }
    match c.profile.class {
        UserClass::Occasional => match op {
            // Tiny-budget transfers keep the user under the 10KB
            // "occasional" ceiling; everything else degrades to
            // metadata work.
            Upload | MakeFile | Download if c.tiny_budget > 0 => op,
            Upload | Download | MakeFile => GetDelta,
            other => other,
        },
        UserClass::UploadOnly => match op {
            Download => GetDelta,
            other => other,
        },
        UserClass::DownloadOnly => match op {
            Upload | MakeFile | MakeDir => Download,
            other => other,
        },
        UserClass::Heavy => op,
    }
}

/// One upload as the §3.2 request sequence on `session`: `BeginUpload`, or
/// `ResumeUpload` of the job in `job`, then one `UploadChunkSparse` per S3
/// part still owed, then `CommitUpload`. With `crash` the client dies after
/// half the parts, with no commit or cancel: that ends as `unavailable`.
/// `job` holds the upload job once the server has one and keeps holding it
/// through a later failure, so a retry resumes it; a failed resume leaves
/// it empty. Answers whether the dedup probe hit.
fn send_upload(
    backend: &Backend,
    session: &mut SessionState,
    up: &FileRef,
    job: &mut Option<UploadId>,
    crash: bool,
) -> CoreResult<bool> {
    let begin = match job.take() {
        Some(upload) => Request::ResumeUpload { upload },
        None => Request::BeginUpload {
            volume: up.volume,
            node: up.node,
            hash: up.hash,
            size: up.size,
        },
    };
    let (upload, mut sent) = match backend.serve(session, begin)? {
        Served::Response(Response::UploadBegun { upload, offset }) => (upload, offset),
        // The dedup probe hit: the content is already stored.
        Served::Response(Response::UploadDone { .. }) => return Ok(true),
        other => return Err(CoreError::invalid(format!("begin answered {other:?}"))),
    };
    *job = Some(upload);
    // An empty file still travels as one (1-byte-long, empty) part.
    let total = up.size.max(1);
    let mut parts = if crash {
        total.div_ceil(PART_SIZE) / 2
    } else {
        u64::MAX
    };
    while sent < total && parts > 0 {
        let len = (total - sent).min(PART_SIZE);
        if let Err(e) = backend.serve(session, Request::UploadChunkSparse { upload, len }) {
            if crash {
                break;
            }
            return Err(e);
        }
        sent += len;
        parts -= 1;
    }
    if crash {
        return Err(CoreError::unavailable("client crashed mid-upload"));
    }
    backend.serve(session, Request::CommitUpload { upload })?;
    Ok(false)
}

/// One partition of the parallel driver: the clients whose users live on a
/// single metastore shard, with their own event queue, file-name/content
/// namespace, and trace origin.
struct ShardSim {
    origin: u32,
    ctx: Arc<PartitionCtx>,
    backend: Arc<Backend>,
    clients: Vec<ClientState>,
    files: FileModel,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    report: DriverReport,
    /// Client-side view of the fault plane (its own seed stream, distinct
    /// from the backend's): used only for injected client crashes.
    faults: Arc<FaultInjector>,
    /// One breaker per partition — a partition *is* one metastore shard,
    /// which is exactly the failure domain the outage windows cover.
    breaker: CircuitBreaker,
    /// Events processed since the start of the run. The day loop reads the
    /// per-day delta to re-pack shards onto workers by measured load (a
    /// wall-clock-only decision: the count never feeds back into events).
    events_processed: u64,
    /// Reusable scratch for [`pick_parent`]'s directory candidate list.
    dir_scratch: Vec<u1_core::NodeId>,
}

impl ShardSim {
    fn push_event(&mut self, t: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            t,
            seq: self.seq,
            kind,
        }));
    }

    /// Runs every queued event with `t < end`. Events at or past `end` stay
    /// queued for the next day slice.
    fn run_until(&mut self, end: SimTime) {
        while self.queue.peek().is_some_and(|Reverse(ev)| ev.t < end) {
            let Some(Reverse(ev)) = self.queue.pop() else {
                break;
            };
            self.ctx.set_time(ev.t);
            fault::clear_tags();
            self.events_processed += 1;
            match ev.kind {
                EventKind::SessionStart(u) => self.on_session_start(u as usize, ev.t),
                EventKind::Op(u) => self.on_op(u as usize, ev.t),
                EventKind::SessionEnd(u) => self.on_session_end(u as usize, ev.t),
                EventKind::Maintenance | EventKind::AttackWave(_) => {
                    unreachable!("coordinator event in a shard partition")
                }
            }
        }
    }

    /// Pre-trace state for this partition's clients: volumes, directories
    /// and files that existed before the window opened. Written directly
    /// into the store/blobstore so no trace records are emitted — exactly
    /// like the real system, whose month-long trace opens onto years of
    /// accumulated state.
    fn seed_population(&mut self, cfg: &WorkloadConfig) {
        for i in 0..self.clients.len() {
            // The substream is keyed by the *global* user index so the
            // seeded state of any one user is partition-layout-independent.
            let global = self.clients[i].user.raw() - 1;
            let mut rng = rngx::sub_rng(cfg.seed, "seed-files", global);
            let (class_files, class_dirs) = match self.clients[i].profile.class {
                UserClass::Occasional => (6.0, 1.4),
                UserClass::UploadOnly => (30.0, 5.0),
                UserClass::DownloadOnly => (35.0, 6.0),
                UserClass::Heavy => (80.0, 13.0),
            };
            // One shared scale factor for files AND dirs: per-volume file
            // and dir counts are near-perfectly correlated in the paper
            // (Pearson 0.998, Fig. 10).
            let weight = self.clients[i].profile.weight.clamp(0.5, 40.0);
            let user = self.clients[i].user;

            // Nearly all UDF owners already had their UDF before the window.
            if self.clients[i].profile.has_udf && rng.gen_range(0.0..1.0) < 0.95 {
                if let Ok(v) = self
                    .backend
                    .store
                    .create_udf(user, "Documents", SimTime::ZERO)
                {
                    self.clients[i].udfs.push(v.volume);
                }
            }
            let volumes: Vec<VolumeId> = std::iter::once(self.clients[i].root)
                .chain(self.clients[i].udfs.iter().copied())
                .collect();

            // Seed each volume with a single random scale applied to both
            // its files and its dirs, keeping the two proportional.
            for &vol in &volumes {
                let vol_scale =
                    weight * cfg.seed_files * rng.gen_range(0.4..1.6) / volumes.len() as f64;
                let n_files = (class_files * vol_scale) as u64;
                let n_dirs = (class_dirs * vol_scale).round() as u64;
                for _ in 0..n_dirs {
                    if let Ok(node) = self.backend.store.make_node(
                        user,
                        vol,
                        None,
                        NodeKind::Directory,
                        &self.files.new_dir_name(),
                        SimTime::ZERO,
                    ) {
                        self.clients[i].push_dir(DirRef {
                            volume: vol,
                            node: node.node,
                            death: None,
                        });
                    }
                }
                // A parent is the nth of this volume's directories, found
                // by counting: no per-file list of candidates.
                let n_vol_dirs = self.clients[i].dirs_in(vol).count();
                for _ in 0..n_files {
                    let spec = self.files.new_file(&mut rng);
                    let parent = if rng.gen_range(0.0..1.0) < 0.4 || n_vol_dirs == 0 {
                        None
                    } else {
                        let nth = rng.gen_range(0..n_vol_dirs);
                        self.clients[i].dirs_in(vol).nth(nth).map(|d| d.node)
                    };
                    if let Ok(node) = self.backend.store.make_node(
                        user,
                        vol,
                        parent,
                        NodeKind::File,
                        &spec.name,
                        SimTime::ZERO,
                    ) {
                        let _ = self.backend.store.make_content(
                            user,
                            vol,
                            node.node,
                            spec.hash,
                            spec.size,
                            SimTime::ZERO,
                        );
                        self.backend
                            .blobs
                            .put(spec.hash, spec.size, None, SimTime::ZERO);
                        self.report.seeded_files += 1;
                        self.clients[i].push_file(FileRef {
                            volume: vol,
                            node: node.node,
                            name: spec.name,
                            size: spec.size,
                            hash: spec.hash,
                            death: None,
                            last_write: SimTime::ZERO,
                        });
                    }
                }
            }
        }
    }

    // ----- session lifecycle ------------------------------------------------

    fn on_session_start(&mut self, u: usize, t: SimTime) {
        // Schedule the next session regardless of what happens now.
        let gap = {
            let c = &mut self.clients[u];
            sessions::next_session_gap(&mut c.rng, &c.profile, t)
        };
        self.push_event(t + gap, EventKind::SessionStart(u as u32));

        if self.clients[u].session.handle().is_some() {
            return; // still connected; skip this arrival
        }
        let auth = Request::Authenticate {
            token: self.clients[u].token.as_bytes().to_vec(),
        };
        match self.send(u, auth) {
            Ok(_) => {
                self.report.sessions_opened += 1;
                let plan: SessionPlan = {
                    let c = &mut self.clients[u];
                    sessions::plan_session(&mut c.rng, &c.profile)
                };
                {
                    let c = &mut self.clients[u];
                    c.session_end = t + plan.duration;
                    c.ops_left = plan.planned_ops;
                    c.bulk = plan.planned_ops > 3_000;
                    c.last_op = ApiOpKind::Authenticate;
                }
                self.push_event(t + plan.duration, EventKind::SessionEnd(u as u32));

                if !self.faults.is_none() {
                    self.recover_session_state(u, t);
                }
                // Startup chatter: a fraction of (re)connections list
                // volumes/shares; active sessions always do (Fig. 8 flow).
                let long_enough = plan.duration > SimDuration::from_secs(2);
                if long_enough && (plan.active || self.clients[u].rng.gen_range(0.0..1.0) < 0.15) {
                    let _ = self.send(u, caps());
                    let _ = self.send(u, Request::ListVolumes);
                    if self.clients[u].rng.gen_range(0.0..1.0) < 0.6 {
                        let _ = self.send(u, Request::ListShares);
                    }
                    // Generation-point check.
                    let root = self.clients[u].root;
                    let from = *self.clients[u].known_gen.get(&root).unwrap_or(&0);
                    let delta = Request::GetDelta {
                        volume: root,
                        from_generation: from,
                    };
                    if let Ok(Served::Response(Response::Delta { generation, .. })) =
                        self.send(u, delta)
                    {
                        self.clients[u].known_gen.insert(root, generation);
                    }
                }
                if plan.active {
                    // Deletions made while offline sync at reconnect: sweep
                    // files whose planned lifetime expired (this is what
                    // realizes the Fig. 3(c) mortality profile).
                    self.sweep_overdue(u, t);
                    let gap = {
                        let c = &mut self.clients[u];
                        sessions::interop_gap_with_mode(&mut c.rng, false, c.bulk)
                    };
                    self.push_event(t + gap, EventKind::Op(u as u32));
                }
            }
            Err(_) => {
                self.report.sessions_auth_failed += 1;
                // Transient auth failure: the client retries shortly.
                let retry = SimDuration::from_secs(self.clients[u].rng.gen_range(20..120));
                self.push_event(t + retry, EventKind::SessionStart(u as u32));
            }
        }
    }

    fn on_session_end(&mut self, u: usize, t: SimTime) {
        if self.clients[u].session.handle().is_some() && t >= self.clients[u].session_end {
            let _ = self.send(u, Request::Bye);
            self.clients[u].ops_left = 0;
            self.clients[u].pending_upload = None;
        }
    }

    /// Unlinks up to 40 overdue nodes at session start (offline deletions
    /// syncing back).
    fn sweep_overdue(&mut self, u: usize, t: SimTime) {
        for _ in 0..40 {
            let Some(idx) = self.clients[u].overdue_file(t) else {
                break;
            };
            let f = self.clients[u].remove_file(idx);
            self.report.unlinks += 1;
            self.report.ops_executed += 1;
            let (volume, node) = (f.volume, f.node);
            if self.call(u, Request::Unlink { volume, node }).is_err() {
                self.report.op_errors += 1;
            }
        }
        for _ in 0..8 {
            let Some(idx) = self.clients[u].overdue_dir(t) else {
                break;
            };
            let d = self.clients[u].dirs.swap_remove(idx);
            self.report.unlinks += 1;
            self.report.ops_executed += 1;
            let (volume, node) = (d.volume, d.node);
            if self.call(u, Request::Unlink { volume, node }).is_err() {
                self.report.op_errors += 1;
            }
        }
    }

    // ----- the protocol ------------------------------------------------------

    /// Sends one request of client `u` through [`Backend::serve`], once.
    fn send(&mut self, u: usize, req: Request) -> CoreResult<Served> {
        self.backend.serve(&mut self.clients[u].session, req)
    }

    /// The executor of every op: sends one request of client `u` under
    /// [`ShardSim::retry`]. Fault-free there is one attempt, and the request
    /// itself goes out; each retry sends a copy.
    fn call(&mut self, u: usize, req: Request) -> CoreResult<Served> {
        if self.faults.is_none() {
            return self.send(u, req);
        }
        self.retry(u, |b, s| b.serve(s, req.clone()))
    }

    /// Client-side retry with bounded exponential backoff, fronted by a
    /// per-partition circuit breaker (a partition *is* one metastore shard,
    /// which is exactly the failure domain the injected outage windows
    /// cover). Under `FaultPlan::none()` this is a plain passthrough call,
    /// so the fault-free driver is bit-identical to the pre-fault one.
    ///
    /// Only `unavailable` errors are retried; anything else (not-found,
    /// permission, invalid) is a real answer, not a fault.
    fn retry<T>(
        &mut self,
        u: usize,
        mut f: impl FnMut(&Backend, &mut SessionState) -> CoreResult<T>,
    ) -> CoreResult<T> {
        let session = &mut self.clients[u].session;
        if self.faults.is_none() {
            return f(&self.backend, session);
        }
        let now = u1_core::partition::current_time().unwrap_or(SimTime::ZERO);
        if !self.breaker.allows(now) {
            self.report.breaker_fastfails += 1;
            return Err(CoreError::unavailable("circuit open"));
        }
        let policy = RetryPolicy::client_default();
        let mut attempt = 1u8;
        loop {
            fault::set_attempt(attempt);
            match f(&self.backend, session) {
                Ok(v) => {
                    self.breaker.record_success();
                    fault::set_attempt(1);
                    return Ok(v);
                }
                Err(e) => {
                    let transient = matches!(e, CoreError::Unavailable(_));
                    if transient {
                        self.breaker.record_failure(now);
                    }
                    if !transient || attempt >= policy.max_attempts {
                        fault::set_attempt(1);
                        return Err(e);
                    }
                    self.report.client_retries += 1;
                    attempt += 1;
                }
            }
        }
    }

    /// One logical upload under the failure model, counted in the report
    /// when it lands. An injected client crash abandons the job after half
    /// its parts (to be resumed at the next session, or reaped by the
    /// weekly GC); otherwise the whole request sequence is the unit
    /// [`ShardSim::retry`] repeats, and a repeat resumes the job from its
    /// last recorded part instead of restarting the stream. With no fault
    /// plan neither can happen and this is one sequence.
    fn do_upload(&mut self, u: usize, up: &FileRef) -> CoreResult<()> {
        let mut job = None;
        let dedup = if self.faults.client_crashes() {
            let session = &mut self.clients[u].session;
            let outcome = send_upload(&self.backend, session, up, &mut job, true);
            if let Some(upload) = job.filter(|_| outcome.is_err()) {
                self.clients[u].crashed_upload = Some((up.clone(), upload));
                self.report.uploads_interrupted += 1;
            }
            outcome
        } else {
            self.retry(u, |b, s| send_upload(b, s, up, &mut job, false))
        }?;
        self.report.uploads += 1;
        if dedup {
            self.report.uploads_deduplicated += 1;
        } else {
            self.report.bytes_uploaded += up.size;
        }
        Ok(())
    }

    /// Post-(re)connect recovery, run right after a session opens when the
    /// fault plane is live: resume a crashed upload from its last recorded
    /// part, and rescan any volume whose change notification the broker
    /// dropped while we were away — the client can't know *what* changed,
    /// only that its generation point can't be trusted (the paper's
    /// rescan-from-scratch path).
    fn recover_session_state(&mut self, u: usize, t: SimTime) {
        if let Some((up, upload)) = self.clients[u].crashed_upload.take() {
            let mut job = Some(upload);
            let session = &mut self.clients[u].session;
            match send_upload(&self.backend, session, &up, &mut job, false) {
                Ok(_) => {
                    self.report.uploads += 1;
                    self.report.uploads_resumed += 1;
                    self.report.bytes_uploaded += up.size;
                    let c = &mut self.clients[u];
                    if let Some(idx) = c
                        .files
                        .iter()
                        .position(|f| f.volume == up.volume && f.node == up.node)
                    {
                        c.rewrite_file(idx, up.size, up.hash, t);
                    } else {
                        let death = FileModel::sample_lifetime(&mut c.rng, false).map(|d| t + d);
                        c.push_file(FileRef {
                            death,
                            last_write: t,
                            ..up
                        });
                    }
                }
                // The job was reaped by the weekly GC (or the node is
                // gone): nothing left to continue from.
                Err(_) if job.is_none() => self.report.uploads_abandoned += 1,
                // Still transiently failing; keep it for next session.
                Err(_) => self.clients[u].crashed_upload = Some((up, upload)),
            }
        }
        let user = self.clients[u].user;
        for volume in self.backend.take_missed_notify(user) {
            self.report.rescans_forced += 1;
            let _ = self.send(u, Request::RescanFromScratch { volume });
        }
    }

    // ----- operations -------------------------------------------------------

    fn on_op(&mut self, u: usize, t: SimTime) {
        if self.clients[u].session.handle().is_none()
            || t >= self.clients[u].session_end
            || self.clients[u].ops_left == 0
        {
            return;
        }
        self.clients[u].ops_left -= 1;

        let op = {
            let c = &mut self.clients[u];
            let proposed = markov::next_op(&mut c.rng, c.last_op);
            class_filter(c, proposed, t)
        };
        self.execute_op(u, op, t);
        self.clients[u].last_op = op;

        if self.clients[u].ops_left > 0 {
            let metadata = !op.is_transfer();
            let gap = {
                let c = &mut self.clients[u];
                sessions::interop_gap_with_mode(&mut c.rng, metadata, c.bulk)
            };
            self.push_event(t + gap, EventKind::Op(u as u32));
        }
    }

    fn execute_op(&mut self, u: usize, op: ApiOpKind, t: SimTime) {
        use ApiOpKind::*;
        self.report.ops_executed += 1;
        let ok = match op {
            Upload => self.op_upload(u, t),
            Download => self.op_download(u),
            MakeFile => self.op_make_file(u, t),
            MakeDir => self.op_make_dir(u, t),
            Unlink => self.op_unlink(u, t),
            Move => self.op_move(u),
            GetDelta => self.op_get_delta(u),
            ListVolumes => self.call(u, Request::ListVolumes).is_ok(),
            ListShares => self.call(u, Request::ListShares).is_ok(),
            CreateUdf => self.op_create_udf(u),
            DeleteVolume => self.op_delete_volume(u),
            RescanFromScratch => {
                let volume = self.clients[u].root;
                self.call(u, Request::RescanFromScratch { volume }).is_ok()
            }
            QuerySetCaps => self.call(u, caps()).is_ok(),
            Authenticate | OpenSession | CloseSession => true,
        };
        if !ok {
            self.report.op_errors += 1;
        }
    }

    /// `MakeFile` / `MakeDir` under `parent` (`None`: the volume's root):
    /// the new node, if the server made one.
    fn make(
        &mut self,
        u: usize,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &Name,
    ) -> Option<NodeId> {
        let (parent, name) = (parent.unwrap_or(NodeId::new(0)), name.as_str().into());
        let req = match kind {
            NodeKind::File => Request::MakeFile {
                volume,
                parent,
                name,
            },
            NodeKind::Directory => Request::MakeDir {
                volume,
                parent,
                name,
            },
        };
        match self.call(u, req) {
            Ok(Served::Response(Response::NodeCreated { node, .. })) => Some(node),
            _ => None,
        }
    }

    fn op_upload(&mut self, u: usize, t: SimTime) -> bool {
        // A Make that preceded us?
        if let Some(up) = self.clients[u].pending_upload.take() {
            if self.do_upload(u, &up).is_err() {
                return false;
            }
            let c = &mut self.clients[u];
            let death = FileModel::sample_lifetime(&mut c.rng, false).map(|d| t + d);
            c.push_file(FileRef {
                death,
                last_write: t,
                ..up
            });
            return true;
        }
        // Re-write an existing file? The U1 client re-uploads on any change;
        // §5.1 finds 10.05% of uploads carry *distinct* hash/size (updates),
        // and Fig. 3(a) shows WAW as the most common dependency — which
        // includes same-content re-uploads (e.g. touched files dedup away).
        let is_rewrite = {
            let c = &mut self.clients[u];
            !c.files.is_empty() && c.rng.gen_range(0.0..1.0) < 0.18
        };
        if is_rewrite {
            let (idx, up, distinct) = {
                let c = &mut self.clients[u];
                let idx = pick_update_target(c);
                let f = &c.files[idx];
                let (old_size, old_hash) = (f.size, f.hash);
                let distinct = c.rng.gen_range(0.0..1.0) < 0.55;
                let (hash, size) = if distinct {
                    let (_, h, s) = self.files.updated_file(&mut c.rng, old_size);
                    (h, s)
                } else {
                    // Same content re-uploaded: the dedup probe
                    // short-circuits.
                    (old_hash, old_size)
                };
                let up = FileRef {
                    hash,
                    size,
                    ..c.files[idx].clone()
                };
                (idx, up, distinct)
            };
            if self.do_upload(u, &up).is_err() {
                return false;
            }
            if distinct {
                self.report.upload_updates += 1;
            }
            self.clients[u].rewrite_file(idx, up.size, up.hash, t);
            return true;
        }
        // Brand-new file: Make then upload in one chain step.
        if self.clients[u].files.len() > 4_000 {
            // Hygiene cap: treat as an update instead of growing unboundedly.
            return self.op_get_delta(u);
        }
        // Directory growth tracks file growth (users sync whole folders),
        // keeping per-volume file:dir ratios stable — the Fig. 10
        // correlation.
        if self.clients[u].rng.gen_range(0.0..1.0) < 0.15 {
            let vol = pick_volume(&mut self.clients[u]);
            let name = self.files.new_dir_name();
            if let Some(node) = self.make(u, vol, None, NodeKind::Directory, &name) {
                let c = &mut self.clients[u];
                let death = FileModel::sample_lifetime(&mut c.rng, true).map(|d| t + d);
                c.push_dir(DirRef {
                    volume: vol,
                    node,
                    death,
                });
            }
        }
        let mut spec: FileSpec = self.files.new_file(&mut self.clients[u].rng);
        if self.clients[u].profile.class == UserClass::Occasional {
            // Tiny transfer: stay under the 10KB "occasional" ceiling.
            spec.size = spec.size.min(4 * 1024);
            self.clients[u].tiny_budget = self.clients[u].tiny_budget.saturating_sub(1);
        }
        let vol = pick_volume(&mut self.clients[u]);
        let parent = pick_parent(&mut self.clients[u], vol, &mut self.dir_scratch);
        let Some(node) = self.make(u, vol, parent, NodeKind::File, &spec.name) else {
            return false;
        };
        let up = FileRef {
            volume: vol,
            node,
            name: spec.name,
            size: spec.size,
            hash: spec.hash,
            death: spec.lifetime.map(|d| t + d),
            last_write: t,
        };
        if self.do_upload(u, &up).is_err() {
            return false;
        }
        self.clients[u].push_file(up);
        true
    }

    fn op_download(&mut self, u: usize) -> bool {
        if self.clients[u].files.is_empty() {
            return self.op_get_delta(u);
        }
        let occasional = self.clients[u].profile.class == UserClass::Occasional;
        let idx = {
            let c = &mut self.clients[u];
            if occasional {
                // Tiny download only (stay under the occasional ceiling).
                c.files.iter().position(|f| f.size <= 4 * 1024)
            } else if c.rng.gen_range(0.0..1.0) < 0.12 {
                // Fetch what was just written (RAW; sync to another device).
                Some(c.latest_written())
            } else {
                // Mild size bias: popular big media is fetched more, which
                // is what pushes the download byte share of >25MB files
                // above the upload share (Fig. 2(b)).
                let mut best = c.rng.gen_range(0..c.files.len());
                for _ in 0..3 {
                    let cand = c.rng.gen_range(0..c.files.len());
                    if c.files[cand].size > c.files[best].size && c.rng.gen_range(0.0..1.0) < 0.7 {
                        best = cand;
                    }
                }
                Some(best)
            }
        };
        let Some(idx) = idx else {
            return self.op_get_delta(u);
        };
        if occasional {
            self.clients[u].tiny_budget = self.clients[u].tiny_budget.saturating_sub(1);
        }
        let f = &self.clients[u].files[idx];
        let (volume, node) = (f.volume, f.node);
        match self.call(u, Request::GetContent { volume, node }) {
            Ok(Served::Content { size, .. }) => {
                self.report.downloads += 1;
                self.report.bytes_downloaded += size;
                true
            }
            _ => {
                // Stale reference (e.g. volume deleted): drop it.
                self.clients[u].remove_file(idx);
                false
            }
        }
    }

    fn op_make_file(&mut self, u: usize, t: SimTime) -> bool {
        let spec = self.files.new_file(&mut self.clients[u].rng);
        let vol = pick_volume(&mut self.clients[u]);
        let parent = pick_parent(&mut self.clients[u], vol, &mut self.dir_scratch);
        let Some(node) = self.make(u, vol, parent, NodeKind::File, &spec.name) else {
            return false;
        };
        self.clients[u].pending_upload = Some(FileRef {
            volume: vol,
            node,
            name: spec.name,
            size: spec.size,
            hash: spec.hash,
            death: None,
            last_write: t,
        });
        true
    }

    fn op_make_dir(&mut self, u: usize, t: SimTime) -> bool {
        let vol = pick_volume(&mut self.clients[u]);
        let name = self.files.new_dir_name();
        let Some(node) = self.make(u, vol, None, NodeKind::Directory, &name) else {
            return false;
        };
        let c = &mut self.clients[u];
        let death = FileModel::sample_lifetime(&mut c.rng, true).map(|d| t + d);
        c.push_dir(DirRef {
            volume: vol,
            node,
            death,
        });
        true
    }

    fn op_unlink(&mut self, u: usize, t: SimTime) -> bool {
        // Overdue file first (planned lifetime reached), then overdue dir,
        // then occasionally an old file.
        let (volume, node) = if let Some(idx) = self.clients[u].overdue_file(t) {
            let f = self.clients[u].remove_file(idx);
            (f.volume, f.node)
        } else if let Some(idx) = self.clients[u].overdue_dir(t) {
            // Cascades server-side; forget local files under that volume's
            // dir lazily (stale refs are swept on failed ops).
            let d = self.clients[u].dirs.swap_remove(idx);
            (d.volume, d.node)
        } else {
            let c = &mut self.clients[u];
            if c.files.is_empty() || c.rng.gen_range(0.0..1.0) >= 0.4 {
                // Nothing to delete: degrade to a metadata check.
                return self.op_get_delta(u);
            }
            let idx = c.rng.gen_range(0..c.files.len());
            let f = self.clients[u].remove_file(idx);
            (f.volume, f.node)
        };
        self.report.unlinks += 1;
        self.call(u, Request::Unlink { volume, node }).is_ok()
    }

    fn op_move(&mut self, u: usize) -> bool {
        if self.clients[u].files.is_empty() {
            return self.op_get_delta(u);
        }
        let (idx, volume, node, name) = {
            let c = &mut self.clients[u];
            let idx = c.rng.gen_range(0..c.files.len());
            c.move_counter += 1;
            let f = &c.files[idx];
            let name = Name::from_fmt(format_args!("r{}_{}", c.move_counter, f.name));
            (idx, f.volume, f.node, name)
        };
        let new_parent = pick_parent(&mut self.clients[u], volume, &mut self.dir_scratch);
        let req = Request::Move {
            volume,
            node,
            new_parent: new_parent.unwrap_or(NodeId::new(0)),
            new_name: name.as_str().into(),
        };
        if self.call(u, req).is_err() {
            return false;
        }
        self.clients[u].files[idx].name = name;
        true
    }

    fn op_get_delta(&mut self, u: usize) -> bool {
        let volume = pick_volume(&mut self.clients[u]);
        let from_generation = *self.clients[u].known_gen.get(&volume).unwrap_or(&0);
        let req = Request::GetDelta {
            volume,
            from_generation,
        };
        let Ok(Served::Response(Response::Delta { generation, .. })) = self.call(u, req) else {
            return false;
        };
        self.clients[u].known_gen.insert(volume, generation);
        true
    }

    fn op_create_udf(&mut self, u: usize) -> bool {
        if self.clients[u].udfs.len() >= 3 || !self.clients[u].profile.has_udf {
            return self.op_get_delta(u);
        }
        let name = format!("udf{}", self.clients[u].udfs.len() + 1);
        let Ok(Served::Response(Response::VolumeCreated { volume, .. })) =
            self.call(u, Request::CreateUdf { name })
        else {
            return false;
        };
        self.clients[u].udfs.push(volume);
        true
    }

    fn op_delete_volume(&mut self, u: usize) -> bool {
        if self.clients[u].udfs.is_empty() {
            return self.call(u, Request::ListVolumes).is_ok();
        }
        let idx = {
            let c = &mut self.clients[u];
            c.rng.gen_range(0..c.udfs.len())
        };
        let volume = self.clients[u].udfs.swap_remove(idx);
        let ok = self.call(u, Request::DeleteVolume { volume }).is_ok();
        self.clients[u].forget_volume(volume);
        ok
    }
}

/// The capability every client asks for at startup (Fig. 8).
fn caps() -> Request {
    Request::QuerySetCaps {
        caps: vec!["generations".into()],
    }
}

/// The coordinator partition: owns the daily maintenance GC and the §5.4
/// attack episodes. It runs between day slices, while every shard partition
/// is parked on the barrier, so its cross-shard effects (bans, GC sweeps)
/// never race client activity.
struct CoordinatorSim {
    ctx: Arc<PartitionCtx>,
    backend: Arc<Backend>,
    rng: SmallRng,
    files: FileModel,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    attacks: Vec<AttackState>,
    report: DriverReport,
    /// Whole-population counters merged at the last day boundary — the
    /// attack waves scale off these ("× normal" multipliers).
    baseline: DriverReport,
    /// How much virtual time the baseline counters cover (the shard
    /// partitions have already finished the current day when they are
    /// merged).
    baseline_window: SimTime,
}

impl CoordinatorSim {
    fn push_event(&mut self, t: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            t,
            seq: self.seq,
            kind,
        }));
    }

    fn run_until(&mut self, end: SimTime) {
        while self.queue.peek().is_some_and(|Reverse(ev)| ev.t < end) {
            let Some(Reverse(ev)) = self.queue.pop() else {
                break;
            };
            self.ctx.set_time(ev.t);
            fault::clear_tags();
            match ev.kind {
                EventKind::Maintenance => self.on_maintenance(ev.t),
                EventKind::AttackWave(i) => self.on_attack_wave(i as usize, ev.t),
                EventKind::SessionStart(_) | EventKind::Op(_) | EventKind::SessionEnd(_) => {
                    unreachable!("client event in the coordinator partition")
                }
            }
        }
    }

    fn setup_attacks(&mut self, cfg: &WorkloadConfig) {
        for (i, script) in AttackScript::paper_attacks().into_iter().enumerate() {
            if script.start >= cfg.horizon() {
                continue;
            }
            let user = UserId::new(10_000_000 + i as u64);
            let token = self.backend.register_user(user);
            // The content the attacker distributes.
            let root = self.backend.store.get_root(user).unwrap().volume;
            for f in 0..5 {
                let spec = self.files.new_file(&mut self.rng);
                let node = self
                    .backend
                    .store
                    .make_node(
                        user,
                        root,
                        None,
                        NodeKind::File,
                        &format!("leak{f}_{}", spec.name),
                        SimTime::ZERO,
                    )
                    .unwrap();
                let size = spec.size.max(20_000_000); // big media payloads
                let _ = self.backend.store.make_content(
                    user,
                    root,
                    node.node,
                    spec.hash,
                    size,
                    SimTime::ZERO,
                );
                self.backend.blobs.put(spec.hash, size, None, SimTime::ZERO);
            }
            let start = script.start;
            self.attacks.push(AttackState {
                script,
                user,
                token,
                responded: false,
            });
            self.push_event(start, EventKind::AttackWave(i as u8));
        }
    }

    fn on_maintenance(&mut self, t: SimTime) {
        self.report.maintenance_runs += 1;
        self.report.uploadjobs_reaped += self.backend.run_maintenance() as u64;
        self.push_event(t + SimDuration::from_days(1), EventKind::Maintenance);
    }

    fn on_attack_wave(&mut self, i: usize, t: SimTime) {
        let (intensity, done, should_respond, token, user) = {
            let a = &self.attacks[i];
            (
                a.script.intensity(t),
                t >= a.script.end(),
                a.script.responded(t) && !a.responded,
                a.token,
                a.user,
            )
        };
        if should_respond {
            // Engineers notice and pull the plug (§5.4): ban the user.
            self.backend.ban_user(user);
            self.attacks[i].responded = true;
            self.report.users_banned += 1;
        }
        if done {
            return;
        }
        // Baselines from the whole population's merged counters so
        // multipliers mean "× normal". Normalize by the window those
        // counters actually cover, not the wave time.
        let hours = (self.baseline_window.as_secs_f64() / 3600.0).max(1.0);
        let normal_sessions_per_min =
            (self.baseline.sessions_opened as f64 / hours / 60.0).max(0.5);
        let normal_ops_per_min = (self.baseline.ops_executed as f64 / hours / 60.0).max(0.5);

        let a = &self.attacks[i];
        let bot_sessions =
            (normal_sessions_per_min * a.script.auth_multiplier * intensity).round() as u64;
        let mut bot_ops_budget =
            (normal_ops_per_min * a.script.storage_multiplier * intensity).round() as u64;

        // Attacker's distributed files (fetched fresh each wave; empty
        // after the ban's cleanup).
        let attacker_files: Vec<(VolumeId, NodeId)> = self
            .backend
            .store
            .get_root(user)
            .ok()
            .and_then(|root| {
                self.backend
                    .store
                    .get_from_scratch(user, root.volume, |n| n)
                    .ok()
                    .map(|(_, nodes)| {
                        nodes
                            .iter()
                            .filter(|n| n.content.is_some())
                            .map(|n| (root.volume, n.node))
                            .collect()
                    })
            })
            .unwrap_or_default();

        for _ in 0..bot_sessions.min(5_000) {
            let mut bot = SessionState::new(false);
            let auth = Request::Authenticate {
                token: token.as_bytes().to_vec(),
            };
            match self.backend.serve(&mut bot, auth) {
                Ok(_) => {
                    self.report.attack_sessions += 1;
                    // Each bot leeches a few ops from the shared account.
                    let ops = self.rng.gen_range(1..=8).min(bot_ops_budget.max(1));
                    for _ in 0..ops {
                        if bot_ops_budget == 0 {
                            break;
                        }
                        bot_ops_budget -= 1;
                        self.report.attack_ops += 1;
                        if !attacker_files.is_empty() && self.rng.gen_range(0.0..1.0) < 0.85 {
                            let (volume, node) =
                                attacker_files[self.rng.gen_range(0..attacker_files.len())];
                            let _ = self
                                .backend
                                .serve(&mut bot, Request::GetContent { volume, node });
                        } else {
                            // Leech uploads: push new content through the
                            // shared account.
                            let spec = self.files.new_file(&mut self.rng);
                            if let Ok(root) = self.backend.store.get_root(user) {
                                let make = Request::MakeFile {
                                    volume: root.volume,
                                    parent: NodeId::new(0),
                                    name: spec.name.as_str().into(),
                                };
                                if let Ok(Served::Response(Response::NodeCreated {
                                    node, ..
                                })) = self.backend.serve(&mut bot, make)
                                {
                                    let up = FileRef {
                                        volume: root.volume,
                                        node,
                                        name: spec.name,
                                        size: spec.size,
                                        hash: spec.hash,
                                        death: None,
                                        last_write: t,
                                    };
                                    let _ =
                                        send_upload(&self.backend, &mut bot, &up, &mut None, false);
                                }
                            }
                        }
                    }
                    let _ = self.backend.serve(&mut bot, Request::Bye);
                }
                Err(_) => {
                    // Post-ban: a storm of failing authentications.
                    self.report.sessions_auth_failed += 1;
                }
            }
        }
        self.push_event(
            t + SimDuration::from_secs(60),
            EventKind::AttackWave(i as u8),
        );
    }
}

/// Packs `weights.len()` shards onto `workers` bins, heaviest-first onto
/// the currently lightest bin (LPT / greedy makespan). Deterministic: ties
/// break toward the lower shard index and the lower bin index. Packing is
/// a pure wall-clock decision — every shard still runs exactly its own
/// events, so results are packing-invariant.
fn pack_lpt(weights: &[u64], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (Reverse(weights[i]), i));
    let mut loads = vec![0u64; workers];
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for i in order {
        let mut best = 0;
        for (w, &load) in loads.iter().enumerate() {
            if load < loads[best] {
                best = w;
            }
        }
        // A zero-weight shard still costs a lock + queue peek; floor at 1
        // so empty shards spread instead of piling onto one bin.
        loads[best] += weights[i].max(1);
        bins[best].push(i);
    }
    bins
}

/// The driver itself.
pub struct Driver {
    cfg: WorkloadConfig,
    backend: Arc<Backend>,
    clock: u1_core::SimClock,
    shards: Vec<ShardSim>,
    coordinator: CoordinatorSim,
}

impl Driver {
    pub fn new(cfg: WorkloadConfig, backend: Arc<Backend>, clock: u1_core::SimClock) -> Self {
        let shard_count = backend.store.num_shards();
        // Shard partitions use namespaces 0..shard_count; the coordinator
        // takes the one past the end. Strided file models keep every
        // partition's names and synthetic content ids disjoint.
        let stride = u64::from(shard_count) + 1;
        let expected_files = cfg.users * 60;
        // The client-side view of the fault plane: the backend's plan, but
        // its own derived seed stream, so injected client crashes are
        // independent of (and don't perturb) the server-side rolls.
        let faults = Arc::new(FaultInjector::new(
            backend.config().fault.clone(),
            rngx::derive_seed(cfg.seed, "client-faults", 0),
        ));
        let shards = (0..shard_count)
            .map(|s| ShardSim {
                origin: u32::from(s),
                ctx: PartitionCtx::new(s),
                backend: Arc::clone(&backend),
                clients: Vec::new(),
                files: FileModel::with_partition(expected_files, cfg.seed, u64::from(s), stride),
                queue: BinaryHeap::new(),
                seq: 0,
                report: DriverReport::default(),
                faults: Arc::clone(&faults),
                breaker: CircuitBreaker::new(),
                events_processed: 0,
                dir_scratch: Vec::new(),
            })
            .collect();
        let coordinator = CoordinatorSim {
            ctx: PartitionCtx::new(shard_count),
            backend: Arc::clone(&backend),
            rng: SmallRng::seed_from_u64(rngx::derive_seed(cfg.seed, "driver", 0)),
            files: FileModel::with_partition(
                expected_files,
                cfg.seed,
                u64::from(shard_count),
                stride,
            ),
            queue: BinaryHeap::new(),
            seq: 0,
            attacks: Vec::new(),
            report: DriverReport::default(),
            baseline: DriverReport::default(),
            baseline_window: SimTime::ZERO,
        };
        Self {
            cfg,
            backend,
            clock,
            shards,
            coordinator,
        }
    }

    // ----- setup ------------------------------------------------------------

    fn setup(&mut self) {
        // Population. User ids start at 1 (id 0 is the "unknown" sentinel).
        // Profile and behavior substreams are keyed by the global user
        // index, so a user's whole life is independent of partition layout.
        for i in 0..self.cfg.users {
            let user = UserId::new(i + 1);
            let mut rng = rngx::sub_rng(self.cfg.seed, "user", i);
            let profile = sample_profile(&mut rng);
            let token = self.backend.register_user(user);
            let root = self
                .backend
                .store
                .get_root(user)
                .expect("root volume exists")
                .volume;
            let shard = self.backend.store.shard_of(user).raw() as usize;
            self.shards[shard].clients.push(ClientState {
                user,
                token,
                profile,
                rng: rngx::sub_rng(self.cfg.seed, "client", i),
                session: SessionState::new(false),
                session_end: SimTime::ZERO,
                ops_left: 0,
                last_op: ApiOpKind::Authenticate,
                root,
                udfs: Vec::new(),
                files: Vec::new(),
                dirs: Vec::new(),
                next_file_death: None,
                next_dir_death: None,
                latest_write: None,
                known_gen: FxHashMap::default(),
                pending_upload: None,
                crashed_upload: None,
                move_counter: 0,
                bulk: false,
                tiny_budget: 2,
            });
        }
        for sim in &mut self.shards {
            sim.seed_population(&self.cfg);
        }
        // Shares between consenting users (1.8% of the population, §6.3):
        // a ring over the sharers in global user order.
        let mut sharers: Vec<(u64, usize, usize)> = Vec::new();
        for (s, sim) in self.shards.iter().enumerate() {
            for (u, c) in sim.clients.iter().enumerate() {
                if c.profile.shares {
                    sharers.push((c.user.raw(), s, u));
                }
            }
        }
        sharers.sort_unstable();
        for k in 0..sharers.len() {
            let (_, si, ui) = sharers[k];
            let (_, sj, uj) = sharers[(k + 1) % sharers.len()];
            if (si, ui) == (sj, uj) {
                continue;
            }
            let owner = self.shards[si].clients[ui].user;
            let to = self.shards[sj].clients[uj].user;
            let volume = self.shards[si].clients[ui]
                .udfs
                .first()
                .copied()
                .unwrap_or(self.shards[si].clients[ui].root);
            let _ = self
                .backend
                .store
                .create_share(owner, volume, to, SimTime::ZERO);
        }
        // First session per user.
        for sim in &mut self.shards {
            for u in 0..sim.clients.len() {
                let gap = {
                    let c = &mut sim.clients[u];
                    sessions::next_session_gap(&mut c.rng, &c.profile, SimTime::ZERO)
                };
                // Spread initial arrivals over the first day regardless of
                // rate.
                let t0 = SimTime::from_micros(
                    gap.as_micros() % SimDuration::from_days(1).as_micros().max(1),
                );
                sim.push_event(t0, EventKind::SessionStart(u as u32));
            }
        }
        // Daily maintenance at 03:00 (quiet hours).
        self.coordinator
            .push_event(SimTime::from_hours(3), EventKind::Maintenance);
        // Attacks.
        if self.cfg.attacks {
            let cfg = self.cfg.clone();
            self.coordinator.setup_attacks(&cfg);
        }
    }

    /// Runs the whole window and returns the report. The trace lands in
    /// the backend's sink.
    pub fn run(mut self) -> DriverReport {
        {
            let _g = u1_core::partition::install(self.coordinator.ctx.clone());
            self.setup();
            // Commit the seeded population (and the attack payloads) so
            // every partition sees it from day 0.
            self.backend.seal_content_epoch();
        }
        let horizon = self.cfg.horizon();
        let days = self.cfg.days;
        let shard_count = self.shards.len();
        let workers = match self.cfg.workers {
            0 => shard_count.max(1),
            w => w.min(shard_count).max(1),
        };
        let coord_origin = u32::from(self.coordinator.ctx.origin());
        // One lock per shard partition: shards migrate between workers when
        // the day-boundary re-pack moves them, so they cannot be owned by
        // one thread's stack. Workers lock only their assigned shards while
        // running a day; the coordinator locks each briefly while every
        // worker is parked — the locks are never contended, they only carry
        // ownership across days. A worker runs the back-end under its
        // shard's lock, so that lock ranks below every other one.
        let shards: Vec<Mutex<ShardSim>> = self
            .shards
            .drain(..)
            .map(|sim| Mutex::ranked(Rank::DriverShard, sim))
            .collect();
        // Day 0 packs by client count (the only load signal available
        // before anything ran); each later day re-packs by the event count
        // each shard actually processed the previous day.
        let init_weights: Vec<u64> = shards
            .iter()
            .map(|s| s.lock().clients.len() as u64)
            .collect();
        let assignments: Vec<Mutex<Vec<usize>>> = pack_lpt(&init_weights, workers)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let timers = PhaseTimers::new();
        let barrier = Barrier::new(workers + 1);
        let coordinator = &mut self.coordinator;
        let backend = &self.backend;
        std::thread::scope(|s| {
            for w in 0..workers {
                let barrier = &barrier;
                let shards = &shards;
                let assignments = &assignments;
                let timers = &timers;
                s.spawn(move || {
                    let mut mine: Vec<usize> = Vec::new();
                    for day in 0..days {
                        let day_end = SimTime::from_days(day + 1).min(horizon);
                        mine.clear();
                        mine.extend_from_slice(&assignments[w].lock());
                        for &i in &mine {
                            let mut sim = shards[i].lock();
                            let _g = u1_core::partition::install(sim.ctx.clone());
                            let t_run = std::time::Instant::now();
                            sim.run_until(day_end);
                            timers.add(Phase::WorkerRun, saturating_nanos(t_run));
                            // Drain this partition's buffered day run *off*
                            // the barrier: flushing in parallel here instead
                            // of serially on the coordinator while everyone
                            // waits. Per-origin order is preserved, so the
                            // canonical trace is unchanged.
                            let t_flush = std::time::Instant::now();
                            backend.flush_trace_origin(sim.origin);
                            timers.add(Phase::DayFlush, saturating_nanos(t_flush));
                        }
                        let t_park = std::time::Instant::now();
                        // All partitions quiescent: let the coordinator run.
                        barrier.wait();
                        // Coordinator done; next day slice may start.
                        barrier.wait();
                        timers.add(Phase::BarrierPark, saturating_nanos(t_park));
                    }
                });
            }
            let mut prev_events: Vec<u64> = vec![0; shard_count];
            let mut deltas: Vec<u64> = vec![0; shard_count];
            for day in 0..days {
                let day_end = SimTime::from_days(day + 1).min(horizon);
                barrier.wait();
                {
                    let _g = u1_core::partition::install(coordinator.ctx.clone());
                    // Fold the parked shards' reports into the attack
                    // baseline and read the per-day event deltas that drive
                    // the next day's packing. The locks are uncontended:
                    // every worker is parked on the barrier.
                    let mut baseline = coordinator.report.clone();
                    for (i, shard) in shards.iter().enumerate() {
                        let sim = shard.lock();
                        baseline.absorb(&sim.report);
                        deltas[i] = sim.events_processed - prev_events[i];
                        prev_events[i] = sim.events_processed;
                    }
                    coordinator.baseline = baseline;
                    coordinator.baseline_window = day_end;
                    let t_coord = std::time::Instant::now();
                    coordinator.run_until(day_end);
                    coordinator.ctx.set_time(day_end);
                    timers.add(Phase::Coordinator, saturating_nanos(t_coord));
                    let t_seal = std::time::Instant::now();
                    backend.seal_content_epoch();
                    timers.add(Phase::Seal, saturating_nanos(t_seal));
                    // Every shard origin was drained by its worker before
                    // parking; only the coordinator's own day records
                    // (attacks, maintenance) remain buffered. With them
                    // delivered the day is complete: every partition's
                    // clock stands at `day_end`, so the sink may settle
                    // everything before it.
                    let t_flush = std::time::Instant::now();
                    backend.flush_trace_origin(coord_origin);
                    backend.seal_trace_before(day_end);
                    timers.add(Phase::DayFlush, saturating_nanos(t_flush));
                    if day + 1 < days {
                        for (slot, bin) in assignments.iter().zip(pack_lpt(&deltas, workers)) {
                            *slot.lock() = bin;
                        }
                    }
                }
                barrier.wait();
            }
        });
        self.clock.set(horizon);
        // Run-final full flush: leftover buffers (anything recorded outside
        // a partition ctx) and sink I/O flushing.
        self.backend.flush_trace();
        let mut report = self.coordinator.report.clone();
        for shard in &shards {
            report.absorb(&shard.lock().report);
        }
        report.users = self.cfg.users;
        report.timing = Measured(timers.snapshot());
        let cache = self.backend.token_cache_stats();
        report.token_cache_hits = cache.hits;
        report.token_cache_misses = cache.misses;
        let faults = self.backend.fault_stats();
        report.rpc_timeouts = faults.rpc_timeouts;
        report.rpc_retries = faults.rpc_retries;
        report.auth_fallbacks = faults.auth_fallbacks;
        report.notify_dropped = faults.notify_dropped;
        report.part_put_failures = self.backend.blobs.stats().part_put_failures;
        report.trace_io_errors = self.backend.trace_io_errors();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use u1_core::SimClock;
    use u1_server::BackendConfig;
    use u1_trace::MemorySink;

    type Run = (DriverReport, Vec<u1_trace::TraceRecord>);

    /// The quick workload (120 users x 3 days, seed 11) against a backend
    /// built from `backend_cfg`, emitting per record or, with `buffered`,
    /// through a `BufferedSink`.
    fn run_on(backend_cfg: BackendConfig, attacks: bool, workers: usize, buffered: bool) -> Run {
        run_keeping_backend(backend_cfg, attacks, workers, buffered).0
    }

    /// [`run_on`], also handing back the backend the run left behind.
    fn run_keeping_backend(
        backend_cfg: BackendConfig,
        attacks: bool,
        workers: usize,
        buffered: bool,
    ) -> (Run, Arc<Backend>) {
        let cfg = WorkloadConfig {
            users: 120,
            days: 3,
            seed: 11,
            attacks,
            seed_files: 0.5,
            workers,
        };
        run_config(backend_cfg, cfg, buffered)
    }

    /// Runs `cfg` against a backend built from `backend_cfg`.
    fn run_config(
        backend_cfg: BackendConfig,
        cfg: WorkloadConfig,
        buffered: bool,
    ) -> (Run, Arc<Backend>) {
        let clock = SimClock::new();
        let sink = Arc::new(MemorySink::new());
        let emit: Arc<dyn u1_trace::TraceSink> = if buffered {
            Arc::new(u1_trace::BufferedSink::new(Arc::clone(&sink)))
        } else {
            sink.clone()
        };
        let backend = Arc::new(Backend::new(backend_cfg, Arc::new(clock.clone()), emit));
        let report = Driver::new(cfg, Arc::clone(&backend), clock).run();
        // The driver sealed the trace at every day barrier; nothing it
        // emitted afterwards may lie before one.
        assert_eq!(sink.late_records(), 0);
        ((report, sink.take_sorted()), backend)
    }

    fn run_quick_with(workers: usize) -> Run {
        run_on(BackendConfig::default(), false, workers, false)
    }

    fn run_quick() -> Run {
        run_quick_with(0)
    }

    #[test]
    fn quick_run_produces_a_coherent_trace() {
        let (report, records) = run_quick();
        assert!(report.sessions_opened > 150, "{report:?}");
        assert!(report.ops_executed > 20, "{report:?}");
        assert!(report.uploads + report.downloads > 5, "{report:?}");
        assert!(!records.is_empty());
        // Timestamps are sorted and within the window.
        assert!(records.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(records.iter().all(|r| r.t <= SimTime::from_days(3)));
        // All four record families appear.
        let mut kinds = std::collections::HashSet::new();
        for r in &records {
            kinds.insert(r.payload.request_type());
        }
        for k in ["session", "storage_done", "rpc", "auth"] {
            assert!(kinds.contains(k), "missing {k} records");
        }
    }

    #[test]
    fn trace_is_deterministic_given_seed() {
        let (r1, t1) = run_quick();
        let (r2, t2) = run_quick();
        assert_eq!(r1, r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // A week and a half past the start: objects last touched before
        // day 1.5 of the 3-day run demote to Warm and the rest stay Hot, so
        // the sweep reads every object's last access time.
        let now = SimTime::from_hours(7 * 24 + 36);
        let run = |workers, buffered| {
            let (run, backend) =
                run_keeping_backend(BackendConfig::default(), false, workers, buffered);
            (run, u1_blobstore::tier::tier_sweep(&backend.blobs, now))
        };
        let ((r1, t1), s1) = run(1, false);
        assert!(s1.hot_objects > 0 && s1.warm_objects > 0, "{s1:?}");
        for buffered in [false, true] {
            for workers in [1, 2, 4, 8] {
                let ((r, t), s) = run(workers, buffered);
                let at = format!("workers={workers} buffered={buffered}");
                assert_eq!(r1, r, "report differs at {at}");
                assert_eq!(t1, t, "canonical trace differs at {at}");
                assert_eq!(s1, s, "blob tiers differ at {at}");
            }
        }
    }

    #[test]
    fn lpt_packing_is_deterministic_and_balanced() {
        // Heaviest shard first onto the emptiest bin; ties to lower index.
        let bins = pack_lpt(&[5, 9, 1, 7, 3], 2);
        // Placement order 9,7,5,3,1: loads end at bin0 = 9+3+1 = 13,
        // bin1 = 7+5 = 12 — within one item of optimal. Every shard
        // appears exactly once.
        assert_eq!(bins, vec![vec![1, 4, 2], vec![3, 0]]);
        let mut all: Vec<usize> = bins.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        // Zero weights floor at 1 so empty shards still spread.
        let bins = pack_lpt(&[0, 0, 0, 0], 2);
        assert_eq!(bins.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 2]);
        // More workers than shards leaves trailing bins empty, never panics.
        let bins = pack_lpt(&[4], 3);
        assert_eq!(bins, vec![vec![0], vec![], vec![]]);
        // Identical input ⇒ identical packing (the repack is wall-clock
        // only, but the schedule itself must be reproducible).
        assert_eq!(pack_lpt(&[5, 9, 1, 7, 3], 2), pack_lpt(&[5, 9, 1, 7, 3], 2));
    }

    /// Setup shares one volume along a ring over the sharers in global user
    /// order: each sharer receives from the one before it. Nothing in the
    /// trace or the report depends on who shares with whom, so the output
    /// pins cannot see a reordered ring (a hash-ordered one passes them
    /// all); this test pins the order itself.
    #[test]
    fn shares_ring_the_sharers_in_global_user_order() {
        let clock = SimClock::new();
        let backend = Arc::new(Backend::new(
            BackendConfig::default(),
            Arc::new(clock.clone()),
            Arc::new(MemorySink::new()),
        ));
        let cfg = WorkloadConfig {
            users: 600,
            days: 1,
            seed: 11,
            attacks: false,
            seed_files: 0.0,
            workers: 0,
        };
        let mut driver = Driver::new(cfg, Arc::clone(&backend), clock);
        driver.setup();
        let mut sharers: Vec<UserId> = driver
            .shards
            .iter()
            .flat_map(|s| &s.clients)
            .filter(|c| c.profile.shares)
            .map(|c| c.user)
            .collect();
        sharers.sort_unstable();
        assert!(sharers.len() >= 3, "only {} sharers", sharers.len());
        for (k, &to) in sharers.iter().enumerate() {
            let from = sharers[(k + sharers.len() - 1) % sharers.len()];
            let owners: Vec<UserId> = backend
                .store
                .list_shares(to)
                .expect("no faults installed")
                .into_iter()
                .map(|(_, owner)| owner)
                .collect();
            assert_eq!(owners, [from], "shares received by {to}");
        }
    }

    /// Locks the exact observable output of the driver — full report plus a
    /// SHA-1 over every canonical trace line and its `(origin, seq)` stamp.
    /// The constants were recorded on the pre-optimization code; the
    /// zero-allocation serializer, the k-way-merge `take_sorted`, and the
    /// batched sink path must all be byte-for-byte invisible here. If this
    /// test fails, a perf change altered observable behavior.
    #[test]
    fn golden_trace_and_report_are_unchanged() {
        let (report, records) = run_on(BackendConfig::default(), true, 0, false);
        assert_eq!(records.len(), 8184);
        assert_eq!(
            u1_trace::canonical_sha(&records),
            "78be5180fee062f073b8838c0cb695e681de3f1b"
        );
        assert_eq!(
            report,
            DriverReport {
                users: 120,
                seeded_files: 246,
                sessions_opened: 338,
                sessions_auth_failed: 9,
                ops_executed: 1884,
                op_errors: 0,
                uploads: 100,
                upload_updates: 6,
                uploads_deduplicated: 14,
                bytes_uploaded: 101_463_468,
                downloads: 23,
                bytes_downloaded: 25_701_437,
                unlinks: 33,
                attack_sessions: 0,
                attack_ops: 0,
                users_banned: 0,
                maintenance_runs: 3,
                uploadjobs_reaped: 0,
                token_cache_hits: 0,
                token_cache_misses: 0,
                client_retries: 0,
                breaker_fastfails: 0,
                uploads_interrupted: 0,
                uploads_resumed: 0,
                uploads_abandoned: 0,
                rescans_forced: 0,
                rpc_timeouts: 0,
                rpc_retries: 0,
                auth_fallbacks: 0,
                notify_dropped: 0,
                part_put_failures: 0,
                trace_io_errors: 0,
                // `Measured` compares equal regardless of the run's actual
                // timings; listed so the literal stays exhaustive.
                timing: Measured(PhaseNanos::default()),
            }
        );
        // The same through a `BufferedSink`, the way the month is run: whole
        // chunks delivered, sealed day by day.
        let (buffered_report, buffered_records) = run_on(BackendConfig::default(), true, 0, true);
        assert_eq!(buffered_report, report);
        assert_eq!(
            u1_trace::canonical_sha(&buffered_records),
            "78be5180fee062f073b8838c0cb695e681de3f1b"
        );
    }

    /// The differential determinism guarantee of the fault plane, half 1:
    /// a backend constructed with an *explicit* `FaultPlan::none()` (the
    /// injector object exists, every probability is zero, no outage
    /// windows) reproduces the golden trace SHA and report byte-for-byte.
    /// Injection must be free when disabled — not just "small".
    #[test]
    fn explicit_none_fault_plan_reproduces_the_golden_trace() {
        let backend_cfg = BackendConfig {
            fault: u1_core::fault::FaultPlan::none(),
            ..Default::default()
        };
        let (report, records) = run_on(backend_cfg, true, 0, false);
        assert_eq!(records.len(), 8184);
        assert_eq!(
            u1_trace::canonical_sha(&records),
            "78be5180fee062f073b8838c0cb695e681de3f1b"
        );
        assert_eq!(report.rpc_timeouts + report.client_retries, 0);
        assert_eq!(report.uploads_interrupted, 0);
    }

    fn run_faulted(workers: usize) -> Run {
        let backend_cfg = BackendConfig {
            fault: u1_core::fault::FaultPlan::light(SimDuration::from_days(3)),
            ..Default::default()
        };
        run_on(backend_cfg, false, workers, false)
    }

    /// A crashed upload is resumed at its client's next session, or
    /// abandoned when the weekly GC reaped its job first: the two branches
    /// of `recover_session_state`. Eighteen days leave room for a client
    /// to stay away longer than the GC's week.
    #[test]
    fn crashed_uploads_are_resumed_or_abandoned() {
        let days = 18;
        let backend_cfg = BackendConfig {
            fault: u1_core::fault::FaultPlan::parse("crash=0.3", SimDuration::from_days(days))
                .expect("spec"),
            ..Default::default()
        };
        let cfg = WorkloadConfig {
            users: 80,
            days,
            seed: 11,
            attacks: false,
            seed_files: 0.5,
            workers: 1,
        };
        let ((r, _), _) = run_config(backend_cfg, cfg, false);
        assert!(r.uploads_resumed > 0, "{r:?}");
        assert!(r.uploads_abandoned > 0, "{r:?}");
        assert!(r.uploadjobs_reaped >= r.uploads_abandoned, "{r:?}");
    }

    /// Half 2: a *nonzero* plan is deterministic — same seed and plan give
    /// the same faults, retries, and trace regardless of worker count —
    /// and actually fires (visible retries / error classes in the trace).
    /// The one-worker trace and the client-side fault counters are pinned:
    /// this is the run through the retry, breaker, crash and forced-rescan
    /// branches. The light plan crashes two uploads, and neither client
    /// comes back within the three days, so nothing resumes and nothing is
    /// abandoned here.
    #[test]
    fn faulted_run_is_deterministic_across_worker_counts() {
        let (r1, t1) = run_faulted(1);
        assert_eq!(t1.len(), 8500);
        assert_eq!(
            u1_trace::canonical_sha(&t1),
            "4e53bd4a99aa8b3ebbc79167a770b43331bd935d"
        );
        assert_eq!(
            (
                r1.uploads_interrupted,
                r1.uploads_resumed,
                r1.uploads_abandoned,
                r1.rescans_forced,
                r1.client_retries,
                r1.breaker_fastfails,
            ),
            (2, 0, 0, 1, 9, 12),
            "{r1:?}"
        );
        for workers in [2, 4, 8] {
            let (r, t) = run_faulted(workers);
            assert_eq!(r1, r, "faulted report differs at workers={workers}");
            assert_eq!(t1, t, "faulted trace differs at workers={workers}");
        }
        // The plan fired: server-side timeouts with retries, and the trace
        // carries attempt/error-class annotations.
        assert!(r1.rpc_timeouts > 0, "{r1:?}");
        assert!(r1.rpc_retries > 0, "{r1:?}");
        assert!(
            t1.iter().any(|r| r.attempt > 1),
            "no retried attempts in trace"
        );
        assert!(
            t1.iter().any(|r| r.error_class.is_some()),
            "no error classes in trace"
        );
        // And the run survived: a light plan degrades, it doesn't wedge.
        assert!(r1.sessions_opened > 100, "{r1:?}");
        assert!(r1.uploads > 10, "{r1:?}");
    }

    /// The differential test for the batched path: a run whose backend logs
    /// through a `BufferedSink` (day-boundary + threshold flushes,
    /// `record_batch_owned` delivery) must produce the same report and a
    /// byte-identical canonical trace as the per-record run.
    #[test]
    fn buffered_sink_run_is_byte_identical_to_per_record_run() {
        let (direct_report, direct_trace) = run_quick_with(2);
        let (buffered_report, buffered_trace) = run_on(BackendConfig::default(), false, 2, true);

        assert_eq!(direct_report, buffered_report);
        assert_eq!(direct_trace.len(), buffered_trace.len());
        for (a, b) in direct_trace.iter().zip(&buffered_trace) {
            assert_eq!(u1_trace::csvline::to_line(a), u1_trace::csvline::to_line(b));
            assert_eq!((a.origin, a.seq), (b.origin, b.seq));
        }
    }

    fn run_quick_cached(workers: usize) -> Run {
        let backend_cfg = BackendConfig {
            auth_cache_ttl: Some(SimDuration::from_hours(8)),
            ..Default::default()
        };
        run_on(backend_cfg, false, workers, false)
    }

    /// With the memcached tier enabled, repeat opens hit the cache — and
    /// because each token is only ever touched by its owning partition, the
    /// hit/miss counters and the trace stay worker-count-invariant.
    #[test]
    fn token_cache_hits_are_worker_count_invariant() {
        let (r1, t1) = run_quick_cached(1);
        let (r4, t4) = run_quick_cached(4);
        assert_eq!(r1, r4, "cached report must be worker-count-invariant");
        assert_eq!(t1, t4, "cached trace must be worker-count-invariant");
        assert!(r1.token_cache_hits > 0, "{r1:?}");
        assert!(r1.token_cache_misses > 0, "{r1:?}");
        // Every session-open attempt consults the cache exactly once: hits
        // skip the auth round trip entirely, misses fall through to it.
        assert_eq!(
            r1.token_cache_hits + r1.token_cache_misses,
            r1.sessions_opened + r1.sessions_auth_failed,
            "{r1:?}"
        );
    }

    #[test]
    fn attacks_inject_visible_spikes_and_get_banned() {
        let clock = SimClock::new();
        let sink = Arc::new(MemorySink::new());
        let backend = Arc::new(Backend::new(
            BackendConfig::default(),
            Arc::new(clock.clone()),
            sink.clone(),
        ));
        let cfg = WorkloadConfig {
            users: 100,
            days: 6, // covers attacks on days 4 and 5
            seed: 13,
            attacks: true,
            seed_files: 0.3,
            workers: 0,
        };
        let report = Driver::new(cfg, backend, clock).run();
        assert!(report.attack_sessions > 50, "{report:?}");
        assert!(report.attack_ops > 50, "{report:?}");
        assert_eq!(report.users_banned, 2, "both in-window attacks answered");
        assert!(
            report.sessions_auth_failed > 20,
            "post-ban auth storm: {report:?}"
        );
    }

    #[test]
    fn update_fraction_is_near_ten_percent() {
        let clock = SimClock::new();
        let sink = Arc::new(MemorySink::new());
        let backend = Arc::new(Backend::new(
            BackendConfig::default(),
            Arc::new(clock.clone()),
            sink,
        ));
        let cfg = WorkloadConfig {
            users: 250,
            days: 5,
            seed: 17,
            attacks: false,
            seed_files: 1.0,
            workers: 0,
        };
        let report = Driver::new(cfg, backend, clock).run();
        assert!(report.uploads > 150, "need volume: {report:?}");
        let frac = report.upload_updates as f64 / report.uploads as f64;
        assert!((0.04..=0.20).contains(&frac), "update fraction {frac}");
    }

    /// ROADMAP item 4, "name them op by op": a fault-free run still counts
    /// `op_errors` — every one a race of the session model with itself, none
    /// a server fault. Each failed `storage_done` record must fall in this
    /// written list and come with the earlier record that explains it:
    ///
    /// * `Unlink` / `Move` / `Download` of a node that no longer exists: the
    ///   client unlinked a directory earlier, the server removed everything
    ///   below it in the same cascade, and the client forgets such files
    ///   lazily ("stale refs are swept on failed ops", `op_unlink`).
    /// * `CreateUdf` refused as a duplicate: UDFs are named by how many the
    ///   client has (`udf{n+1}`), so after a `DeleteVolume` the next name can
    ///   be one still in use.
    ///
    /// Anything else — a failed listing, delta, make or upload, a failure
    /// carrying an injected error class, a failed op of an attack bot —
    /// fails the test. (An upload whose node went with a cascade is refused
    /// in `begin_upload` before anything is logged: it counts in
    /// `op_errors`, which is therefore at least the number of records here.)
    #[test]
    fn fault_free_failures_are_named_session_model_races() {
        use u1_trace::StorageDone;
        let clock = SimClock::new();
        let sink = Arc::new(MemorySink::new());
        let backend = Arc::new(Backend::new(
            BackendConfig::default(),
            Arc::new(clock.clone()),
            sink.clone(),
        ));
        let report = Driver::new(WorkloadConfig::quick(), backend, clock).run();
        let records = sink.take_sorted();

        // What a later failure may be explained by, per (user, volume).
        let mut dir_cascades = std::collections::HashSet::new();
        let mut udf_deleted = std::collections::HashSet::new();
        let mut failures: std::collections::BTreeMap<&str, u64> = Default::default();
        for rec in &records {
            let Some(StorageDone {
                op,
                user,
                volume,
                kind,
                success,
                ..
            }) = rec.payload.storage()
            else {
                continue;
            };
            if *success {
                match op {
                    ApiOpKind::Unlink if *kind == Some(NodeKind::Directory) => {
                        dir_cascades.insert((*user, *volume));
                    }
                    ApiOpKind::DeleteVolume => {
                        udf_deleted.insert(*user);
                    }
                    _ => {}
                }
                continue;
            }
            assert_eq!(rec.error_class, None, "injected fault in {rec:?}");
            let explained = match op {
                ApiOpKind::Unlink | ApiOpKind::Move | ApiOpKind::Download => {
                    // `kind: None` is the server saying the node is gone.
                    kind.is_none() && dir_cascades.contains(&(*user, *volume))
                }
                ApiOpKind::CreateUdf => udf_deleted.contains(user),
                _ => false,
            };
            assert!(explained, "unexplained failure: {rec:?}");
            *failures.entry(op.label()).or_default() += 1;
        }
        let named: u64 = failures.values().sum();
        assert!(named > 0, "the quick run no longer exercises the races");
        assert!(report.op_errors >= named, "{report:?} vs {failures:?}");
    }
}
