//! A closed-loop client fleet, generic over the transport.
//!
//! The workload [`Driver`](crate::Driver) is built for scale: it calls the
//! backend in-process and shard-parallel. This module is built for
//! *equivalence*: the same calibrated session model (§7 think times, §6
//! user classes, Markov op chains) driving any [`Transport`] — the
//! in-process [`DirectTransport`](u1_client::DirectTransport) or a real
//! socket via [`TcpTransport`](u1_client::TcpTransport) — so a wire-tier
//! run can be compared against an in-process run *byte for byte* at the
//! trace level.
//!
//! [`run_lockstep`] is the comparison harness: virtual time, a single
//! thread, one request in flight globally. Client actions are sequenced by
//! a `(SimTime, seq)` event heap, and the shared [`SimClock`] is advanced
//! before every action — so the order of backend calls, the latency-RNG
//! sample order, the session-id assignment and the trace `seq` stamps are
//! all pure functions of the fleet seed, independent of which transport
//! carries the requests. Two runs (direct vs. wire) against identically
//! seeded backends must produce identical [`FleetReport`]s and identical
//! canonical trace hashes; `tests/wire_fleet_parity.rs` enforces exactly
//! that. (Load on the wire tier is the benchmark's job: `wire_loopback`
//! in `benchmark/` drives it from a multiplexed open-loop client.)

use crate::files::FileModel;
use crate::markov;
use crate::sessions::{interop_gap_with_mode, next_session_gap, plan_session};
use crate::users::{sample_profile, UserProfile};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use u1_auth::Token;
use u1_client::Transport;
use u1_core::timing::Measured;
use u1_core::{rngx, ApiOpKind, NodeId, NodeKind, SimClock, SimTime, VolumeId};

/// Fleet shape. Deliberately much smaller than
/// [`WorkloadConfig`](crate::WorkloadConfig): the fleet exists to exercise
/// the wire, not to reproduce the paper's month.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of clients; client `i` authenticates as `UserId(i + 1)`.
    pub users: u32,
    /// Sessions each client runs before retiring.
    pub sessions_per_user: u32,
    /// Root seed for every client-side random stream.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            users: 24,
            sessions_per_user: 3,
            seed: 11,
        }
    }
}

/// What a fleet run did, in deterministic counters.
///
/// Everything here is a pure function of the fleet seed and the backend it
/// ran against — **except** `pushes_observed`: push frames race the
/// client's polling in wire mode, so the count is wrapped in [`Measured`]
/// and compares equal by construction. Report equality between a direct
/// and a wire run is the fleet-level half of the parity contract (the
/// canonical trace hash is the backend-level half).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct FleetReport {
    pub users: u64,
    /// Sessions attempted (one `authenticate` each).
    pub sessions: u64,
    /// Sessions whose plan included data operations (~5.6%, §7.3).
    pub active_sessions: u64,
    pub ops_executed: u64,
    pub op_errors: u64,
    pub uploads: u64,
    pub uploads_deduplicated: u64,
    pub bytes_uploaded: u64,
    pub downloads: u64,
    pub bytes_downloaded: u64,
    /// Metadata (non-transfer) operations.
    pub metadata_ops: u64,
    /// Push notifications observed by clients. Wire delivery timing is
    /// racy, hence eq-invisible.
    pub pushes_observed: Measured<u64>,
}

impl FleetReport {
    fn absorb(&mut self, other: &FleetReport) {
        self.sessions += other.sessions;
        self.active_sessions += other.active_sessions;
        self.ops_executed += other.ops_executed;
        self.op_errors += other.op_errors;
        self.uploads += other.uploads;
        self.uploads_deduplicated += other.uploads_deduplicated;
        self.bytes_uploaded += other.bytes_uploaded;
        self.downloads += other.downloads;
        self.bytes_downloaded += other.bytes_downloaded;
        self.metadata_ops += other.metadata_ops;
        self.pushes_observed.0 += other.pushes_observed.0;
    }
}

/// What one client does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Connect,
    Op,
    Close,
}

/// The session-model state of one client.
struct ClientSim {
    token: Token,
    rng: SmallRng,
    profile: UserProfile,
    files: FileModel,
    /// File nodes this client created, with their last uploaded size.
    known_files: Vec<(VolumeId, NodeId, u64)>,
    dirs: Vec<(VolumeId, NodeId)>,
    udfs: Vec<VolumeId>,
    root: Option<VolumeId>,
    /// Last generation seen for the root volume (drives `GetDelta`).
    generation: u64,
    last_op: ApiOpKind,
    sessions_left: u32,
    remaining_ops: u64,
    session_end: SimTime,
    /// Machine-paced session (large planned op count → bulk think times).
    bulk: bool,
    report: FleetReport,
}

impl ClientSim {
    fn new(index: u32, token: Token, seed: u64, sessions: u32) -> Self {
        let mut rng = rngx::sub_rng(seed, "fleet-user", u64::from(index));
        let profile = sample_profile(&mut rng);
        ClientSim {
            token,
            rng,
            profile,
            files: FileModel::new(256),
            known_files: Vec::new(),
            dirs: Vec::new(),
            udfs: Vec::new(),
            root: None,
            generation: 0,
            last_op: ApiOpKind::ListVolumes,
            sessions_left: sessions,
            remaining_ops: 0,
            session_end: SimTime::ZERO,
            bulk: false,
            report: FleetReport::default(),
        }
    }

    /// Opens a session: authenticate, negotiate caps, list volumes (the
    /// Fig. 8 startup sequence). Returns the action+gap that follows.
    fn connect<T: Transport>(&mut self, t: &mut T, now: SimTime) -> (Action, SimTime) {
        self.report.sessions += 1;
        if t.authenticate(self.token).is_err() {
            self.report.op_errors += 1;
            return self.after_close(now);
        }
        self.count(
            t.query_set_caps(&["fleet"]).map(|_| 0),
            ApiOpKind::QuerySetCaps,
        );
        match t.list_volumes() {
            Ok(vols) => {
                self.report.ops_executed += 1;
                self.report.metadata_ops += 1;
                self.root = vols.first().map(|v| v.volume);
            }
            Err(_) => {
                self.report.ops_executed += 1;
                self.report.metadata_ops += 1;
                self.report.op_errors += 1;
            }
        }
        let plan = plan_session(&mut self.rng, &self.profile);
        self.session_end = now + plan.duration;
        self.remaining_ops = plan.planned_ops;
        self.bulk = plan.planned_ops > 1_000;
        if plan.active {
            self.report.active_sessions += 1;
            let gap = interop_gap_with_mode(&mut self.rng, true, self.bulk);
            (Action::Op, now + gap)
        } else {
            (Action::Close, self.session_end)
        }
    }

    /// Runs one operation; returns the follow-up action and its time.
    fn op<T: Transport>(&mut self, t: &mut T, now: SimTime) -> (Action, SimTime) {
        if self.remaining_ops == 0 || now >= self.session_end {
            return (Action::Close, now);
        }
        let op = markov::next_op(&mut self.rng, self.last_op);
        self.last_op = op;
        self.execute(t, op);
        self.report.pushes_observed.0 += t.poll_pushes().len() as u64;
        self.remaining_ops -= 1;
        let metadata = !matches!(op, ApiOpKind::Upload | ApiOpKind::Download);
        let gap = interop_gap_with_mode(&mut self.rng, metadata, self.bulk);
        (Action::Op, now + gap)
    }

    /// Ends the session; returns the next connect (or nothing if retired).
    fn close<T: Transport>(&mut self, t: &mut T, now: SimTime) -> (Action, SimTime) {
        self.report.pushes_observed.0 += t.poll_pushes().len() as u64;
        t.close();
        self.after_close(now)
    }

    fn after_close(&mut self, now: SimTime) -> (Action, SimTime) {
        self.sessions_left = self.sessions_left.saturating_sub(1);
        let gap = next_session_gap(&mut self.rng, &self.profile, now);
        (Action::Connect, now + gap)
    }

    fn count(&mut self, result: Result<u64, u1_core::CoreError>, op: ApiOpKind) {
        self.report.ops_executed += 1;
        match op {
            ApiOpKind::Upload | ApiOpKind::Download => {}
            _ => self.report.metadata_ops += 1,
        }
        if result.is_err() {
            self.report.op_errors += 1;
        }
    }

    /// Maps one Markov op onto transport calls. Every branch decision
    /// draws only from the client RNG and prior deterministic results.
    fn execute<T: Transport>(&mut self, t: &mut T, op: ApiOpKind) {
        let Some(root) = self.root else {
            // Startup listing failed: only volume-independent ops make
            // sense; keep the RNG schedule moving with a listing.
            let r = t.list_volumes().map(|v| {
                self.root = v.first().map(|i| i.volume);
                0
            });
            self.count(r, ApiOpKind::ListVolumes);
            return;
        };
        match op {
            ApiOpKind::Upload => {
                let update = !self.known_files.is_empty() && self.rng.gen_range(0.0..1.0) < 0.30;
                if update {
                    let idx = self.rng.gen_range(0..self.known_files.len());
                    let (vol, node, old_size) = self.known_files[idx];
                    let (_cid, hash, size) = self.files.updated_file(&mut self.rng, old_size);
                    match t.upload(vol, node, hash, size, None) {
                        Ok(res) => {
                            self.report.ops_executed += 1;
                            self.report.uploads += 1;
                            self.report.bytes_uploaded += res.bytes_sent;
                            if res.deduplicated {
                                self.report.uploads_deduplicated += 1;
                            }
                            self.known_files[idx].2 = size;
                        }
                        Err(_) => {
                            self.report.ops_executed += 1;
                            self.report.uploads += 1;
                            self.report.op_errors += 1;
                        }
                    }
                } else {
                    let spec = self.files.new_file(&mut self.rng);
                    match t.make_node(root, None, NodeKind::File, spec.name.as_str()) {
                        Ok(info) => {
                            self.report.ops_executed += 1;
                            self.report.metadata_ops += 1;
                            match t.upload(root, info.node, spec.hash, spec.size, None) {
                                Ok(res) => {
                                    self.report.ops_executed += 1;
                                    self.report.uploads += 1;
                                    self.report.bytes_uploaded += res.bytes_sent;
                                    if res.deduplicated {
                                        self.report.uploads_deduplicated += 1;
                                    }
                                    self.known_files.push((root, info.node, spec.size));
                                }
                                Err(_) => {
                                    self.report.ops_executed += 1;
                                    self.report.uploads += 1;
                                    self.report.op_errors += 1;
                                }
                            }
                        }
                        Err(_) => {
                            self.report.ops_executed += 1;
                            self.report.metadata_ops += 1;
                            self.report.op_errors += 1;
                        }
                    }
                }
            }
            ApiOpKind::Download => {
                if self.known_files.is_empty() {
                    let r = t.get_delta(root, self.generation).map(|(generation, _)| {
                        self.generation = generation;
                        0
                    });
                    self.count(r, ApiOpKind::GetDelta);
                } else {
                    let idx = self.rng.gen_range(0..self.known_files.len());
                    let (vol, node, _) = self.known_files[idx];
                    match t.download(vol, node) {
                        Ok((size, _hash, _data)) => {
                            self.report.ops_executed += 1;
                            self.report.downloads += 1;
                            self.report.bytes_downloaded += size;
                        }
                        Err(_) => {
                            self.report.ops_executed += 1;
                            self.report.downloads += 1;
                            self.report.op_errors += 1;
                        }
                    }
                }
            }
            ApiOpKind::MakeFile => {
                let spec = self.files.new_file(&mut self.rng);
                let r = t
                    .make_node(root, None, NodeKind::File, spec.name.as_str())
                    .map(|info| {
                        self.known_files.push((root, info.node, 0));
                        0
                    });
                self.count(r, op);
            }
            ApiOpKind::MakeDir => {
                let name = self.files.new_dir_name();
                let r = t
                    .make_node(root, None, NodeKind::Directory, name.as_str())
                    .map(|info| {
                        self.dirs.push((root, info.node));
                        0
                    });
                self.count(r, op);
            }
            ApiOpKind::Unlink => {
                if self.known_files.is_empty() {
                    let r = t.list_shares().map(|_| 0);
                    self.count(r, ApiOpKind::ListShares);
                } else {
                    let idx = self.rng.gen_range(0..self.known_files.len());
                    let (vol, node, _) = self.known_files.swap_remove(idx);
                    let r = t.unlink(vol, node).map(|_| 0);
                    self.count(r, op);
                }
            }
            ApiOpKind::Move => {
                if self.known_files.is_empty() {
                    let r = t.list_volumes().map(|_| 0);
                    self.count(r, ApiOpKind::ListVolumes);
                } else {
                    let idx = self.rng.gen_range(0..self.known_files.len());
                    let (vol, node, _) = self.known_files[idx];
                    let new_parent = if self.dirs.is_empty() {
                        None
                    } else {
                        let d = self.rng.gen_range(0..self.dirs.len());
                        Some(self.dirs[d].1)
                    };
                    let name = self.files.new_dir_name();
                    let r = t.move_node(vol, node, new_parent, name.as_str()).map(|_| 0);
                    self.count(r, op);
                }
            }
            ApiOpKind::GetDelta => {
                let r = t.get_delta(root, self.generation).map(|(generation, _)| {
                    self.generation = generation;
                    0
                });
                self.count(r, op);
            }
            ApiOpKind::RescanFromScratch => {
                let r = t.rescan_from_scratch(root).map(|(generation, _)| {
                    self.generation = generation;
                    0
                });
                self.count(r, op);
            }
            ApiOpKind::ListVolumes => {
                let r = t.list_volumes().map(|_| 0);
                self.count(r, op);
            }
            ApiOpKind::ListShares => {
                let r = t.list_shares().map(|_| 0);
                self.count(r, op);
            }
            ApiOpKind::CreateUdf => {
                let name = self.files.new_dir_name();
                let r = t.create_udf(name.as_str()).map(|info| {
                    self.udfs.push(info.volume);
                    0
                });
                self.count(r, op);
            }
            ApiOpKind::DeleteVolume => {
                if self.udfs.is_empty() {
                    let r = t.list_volumes().map(|_| 0);
                    self.count(r, ApiOpKind::ListVolumes);
                } else {
                    let idx = self.rng.gen_range(0..self.udfs.len());
                    let vol = self.udfs.swap_remove(idx);
                    self.known_files.retain(|(v, _, _)| *v != vol);
                    self.dirs.retain(|(v, _)| *v != vol);
                    let r = t.delete_volume(vol).map(|_| 0);
                    self.count(r, op);
                }
            }
            ApiOpKind::QuerySetCaps => {
                let r = t.query_set_caps(&["fleet"]).map(|_| 0);
                self.count(r, op);
            }
            // Session bookkeeping kinds never come out of the Markov chain
            // mid-session; keep the schedule moving if they ever do.
            ApiOpKind::Authenticate | ApiOpKind::OpenSession | ApiOpKind::CloseSession => {
                let r = t.list_volumes().map(|_| 0);
                self.count(r, ApiOpKind::ListVolumes);
            }
        }
    }
}

/// Runs the fleet in **lockstep virtual time**: one thread, one request in
/// flight globally, the shared `clock` advanced to each event's timestamp
/// before the event runs.
///
/// `tokens[i]` authenticates client `i` (register users on the backend in
/// index order so ids line up). `factory(i)` builds client `i`'s transport
/// each time it (re)connects — a fresh connection per session, like the
/// real client.
pub fn run_lockstep<T, F>(
    cfg: &FleetConfig,
    clock: &SimClock,
    tokens: &[Token],
    mut factory: F,
) -> FleetReport
where
    T: Transport,
    F: FnMut(usize) -> T,
{
    assert_eq!(
        tokens.len(),
        cfg.users as usize,
        "one token per fleet client"
    );
    let mut clients: Vec<ClientSim> = tokens
        .iter()
        .enumerate()
        .map(|(i, tok)| ClientSim::new(i as u32, *tok, cfg.seed, cfg.sessions_per_user))
        .collect();
    let mut transports: Vec<Option<T>> = (0..clients.len()).map(|_| None).collect();

    // Min-heap on (time, seq): seq is a global tiebreaker so simultaneous
    // events run in a deterministic order.
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
    let mut actions: Vec<Action> = vec![Action::Connect; clients.len()];
    let mut seq = 0u64;
    for (i, client) in clients.iter_mut().enumerate() {
        let gap = next_session_gap(&mut client.rng, &client.profile, SimTime::ZERO);
        heap.push(Reverse((SimTime::ZERO + gap, seq, i)));
        seq += 1;
    }

    while let Some(Reverse((now, _, i))) = heap.pop() {
        clock.set(now);
        let client = &mut clients[i];
        let (next_action, next_at) = match actions[i] {
            Action::Connect => {
                if client.sessions_left == 0 {
                    continue;
                }
                let mut t = factory(i);
                let next = client.connect(&mut t, now);
                transports[i] = Some(t);
                next
            }
            Action::Op => match transports[i].as_mut() {
                Some(t) => client.op(t, now),
                None => continue,
            },
            Action::Close => match transports[i].as_mut() {
                Some(t) => {
                    let next = client.close(t, now);
                    transports[i] = None;
                    next
                }
                None => continue,
            },
        };
        if next_action == Action::Connect && client.sessions_left == 0 {
            continue; // retired
        }
        actions[i] = next_action;
        heap.push(Reverse((next_at, seq, i)));
        seq += 1;
    }

    let mut total = FleetReport {
        users: u64::from(cfg.users),
        ..Default::default()
    };
    for c in &clients {
        total.absorb(&c.report);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use u1_client::DirectTransport;
    use u1_core::UserId;
    use u1_server::{Backend, BackendConfig};
    use u1_trace::MemorySink;

    fn fleet_backend(seed: u64) -> (Arc<Backend>, Arc<SimClock>, Arc<MemorySink>) {
        let clock = Arc::new(SimClock::new());
        let sink = Arc::new(MemorySink::new());
        let backend = Arc::new(Backend::new(
            BackendConfig {
                seed: seed ^ 0xBACC,
                ..Default::default()
            },
            clock.clone(),
            sink.clone(),
        ));
        (backend, clock, sink)
    }

    fn register(backend: &Backend, users: u32) -> Vec<Token> {
        (0..users)
            .map(|i| backend.register_user(UserId::new(u64::from(i) + 1)))
            .collect()
    }

    #[test]
    fn lockstep_is_deterministic_across_runs() {
        let cfg = FleetConfig {
            users: 8,
            sessions_per_user: 2,
            seed: 5,
        };
        let mut reports = Vec::new();
        let mut hashes = Vec::new();
        for _ in 0..2 {
            let (backend, clock, sink) = fleet_backend(cfg.seed);
            let tokens = register(&backend, cfg.users);
            let report = run_lockstep(&cfg, &clock, &tokens, |_| {
                DirectTransport::new(Arc::clone(&backend))
            });
            reports.push(report);
            hashes.push(u1_trace::canonical_sha(&sink.take_sorted()));
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(hashes[0], hashes[1]);
        assert!(reports[0].ops_executed > 0, "fleet did real work");
        assert_eq!(reports[0].sessions, 16, "8 users x 2 sessions");
    }
}
