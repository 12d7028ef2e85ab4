//! `wire_loopback`: the only workload in which the codec, the framing, the
//! nonblocking I/O helpers, `u1-net` and the reactor do any work.
//!
//! An in-process `TcpServer` (real-bytes back-end, `NullSink`) listens on
//! 127.0.0.1; one client thread drives it. Stages: (1) **sat** — closed
//! loop, two connections with 16 requests in flight each, a fixed script of
//! small metadata requests; rate in acknowledged requests; (2) **upload**
//! and (3) **download** — closed loop, one transfer at a time over
//! `TcpTransport`, 1 MiB files; rates in MiB of payload. A traced run adds
//! the **open** phase between sat and upload: Poisson arrivals at a fixed
//! rate, latency measured from each request's *intended* send time.
//!
//! Every repetition starts a fresh back-end and server, so repetitions
//! begin from the same state and nothing accumulates in the process.

use crate::metrics::Metrics;
use crate::pipeline::sha_hex;
use crate::rng::Rng;
use crate::span::{ratio, Recorder};
use crate::stats::percentile;
use crate::timed::{Call, TimedTransport};
use crate::workload::{Rep, Workload};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use u1_auth::{AuthConfig, Token};
use u1_client::{DirectTransport, TcpTransport, Transport};
use u1_core::{ContentHash, CoreResult, NodeId, NodeKind, RealClock, Sha1, UserId, VolumeId};
use u1_net::{Interest, Poller};
use u1_proto::conn::{ClientConn, ClientEvent};
use u1_proto::msg::{Request, Response};
use u1_proto::nio::{read_once, ReadOutcome, SendQueue};
use u1_server::{Backend, BackendConfig, ReactorConfig, TcpServer, WireStats};
use u1_trace::NullSink;

// Fixed parameters. They change only in a PR whose subject is the benchmark.

/// Requests of the sat phase, over both connections.
pub const SAT_REQUESTS: usize = 300_000;
/// Requests each connection keeps in flight in the sat phase.
pub const SAT_WINDOW: usize = 16;
/// Load-carrying connections (one session each).
pub const CONNECTIONS: usize = 2;
/// Offered rate of the open phase, requests per second over both
/// connections: about a third of what the sat phase sustains on the
/// reference host.
pub const OPEN_RATE: f64 = 40_000.0;
/// Length of the open phase.
pub const OPEN_SECONDS: f64 = 2.0;
/// Files uploaded in the bulk phase; each is downloaded twice.
pub const BULK_FILES: usize = 96;
pub const FILE_BYTES: usize = 1024 * 1024;
/// One file in ten repeats the content of an earlier one, so the
/// hash-before-upload dedup short-cut is on the path.
const REPEAT_EVERY: usize = 10;

/// One request of a script, free of anything only a live back-end knows:
/// targets are indices into the nodes the repetition pre-creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    MakeFile,
    Move(usize),
    Unlink(usize),
    /// `writes_before` write requests precede this one in the script, so
    /// the volume's head generation is known without waiting for a reply.
    GetDelta {
        writes_before: u64,
        back: u64,
    },
    ListVolumes,
    ListShares,
}

/// A connection's script and how many targets it needs pre-created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub steps: Vec<Step>,
    pub targets: usize,
    /// Write requests in the script: how far it advances the volume's
    /// generation.
    pub writes: u64,
}

impl Script {
    /// The request mix: 25% MakeFile, 15% Move, 10% Unlink, 30% GetDelta
    /// near the head, 10% ListVolumes, 10% ListShares. No step depends on a
    /// reply: every Move and Unlink has its own pre-created target.
    pub fn plan(seed: u64, conn: usize, len: usize) -> Script {
        let mut rng = Rng::derive(seed, &format!("script-{conn}"));
        let mut steps = Vec::with_capacity(len);
        let (mut targets, mut writes) = (0usize, 0u64);
        for _ in 0..len {
            let step = match rng.below(100) {
                0..=24 => Step::MakeFile,
                25..=39 => {
                    targets += 1;
                    Step::Move(targets - 1)
                }
                40..=49 => {
                    targets += 1;
                    Step::Unlink(targets - 1)
                }
                50..=79 => Step::GetDelta {
                    writes_before: writes,
                    back: rng.below(8),
                },
                80..=89 => Step::ListVolumes,
                _ => Step::ListShares,
            };
            if matches!(step, Step::MakeFile | Step::Move(_) | Step::Unlink(_)) {
                writes += 1;
            }
            steps.push(step);
        }
        Script {
            steps,
            targets,
            writes,
        }
    }

    /// Digest of the script: same seed, same digest.
    pub fn digest(&self) -> String {
        sha_hex(&format!("{:?}", self.steps))
    }
}

/// What a script's steps are bound to once the back-end exists.
#[derive(Debug, Clone)]
pub struct Targets {
    pub volume: VolumeId,
    pub nodes: Vec<NodeId>,
    /// The volume's generation after the targets were created.
    pub generation: u64,
}

fn made_name(i: usize) -> String {
    format!("made-{i}.dat")
}

fn moved_name(i: usize) -> String {
    format!("moved-{i}.dat")
}

impl Step {
    /// The step as a protocol request (root-level parent is id 0 on the
    /// wire).
    pub fn request(self, i: usize, t: &Targets) -> Request {
        let root = NodeId::new(0);
        match self {
            Step::MakeFile => Request::MakeFile {
                volume: t.volume,
                parent: root,
                name: made_name(i),
            },
            Step::Move(k) => Request::Move {
                volume: t.volume,
                node: t.nodes[k],
                new_parent: root,
                new_name: moved_name(i),
            },
            Step::Unlink(k) => Request::Unlink {
                volume: t.volume,
                node: t.nodes[k],
            },
            Step::GetDelta {
                writes_before,
                back,
            } => Request::GetDelta {
                volume: t.volume,
                from_generation: (t.generation + writes_before).saturating_sub(back),
            },
            Step::ListVolumes => Request::ListVolumes,
            Step::ListShares => Request::ListShares,
        }
    }

    /// The same step through a [`Transport`].
    pub fn apply<T: Transport>(self, i: usize, t: &Targets, via: &mut T) -> CoreResult<()> {
        match self {
            Step::MakeFile => via
                .make_node(t.volume, None, NodeKind::File, &made_name(i))
                .map(|_| ()),
            Step::Move(k) => via.move_node(t.volume, t.nodes[k], None, &moved_name(i)),
            Step::Unlink(k) => via.unlink(t.volume, t.nodes[k]),
            Step::GetDelta {
                writes_before,
                back,
            } => via
                .get_delta(
                    t.volume,
                    (t.generation + writes_before).saturating_sub(back),
                )
                .map(|_| ()),
            Step::ListVolumes => via.list_volumes().map(|_| ()),
            Step::ListShares => via.list_shares().map(|_| ()),
        }
    }
}

/// A fresh back-end (real bytes, `NullSink`, wall clock, no injected auth
/// failures) with its registered users.
pub struct Bed {
    pub backend: Arc<Backend>,
    pub tokens: Vec<Token>,
}

impl Bed {
    /// Users get ids 1.., so consecutive users live on different metastore
    /// shards and their node ids do not depend on how requests interleave.
    pub fn new(users: usize) -> Bed {
        let backend = Arc::new(Backend::new(
            BackendConfig {
                auth: AuthConfig {
                    transient_failure_rate: 0.0,
                    token_ttl: None,
                },
                store_real_bytes: true,
                ..BackendConfig::default()
            },
            Arc::new(RealClock::new()),
            Arc::new(NullSink),
        ));
        let tokens = (1..=users as u64)
            .map(|u| backend.register_user(UserId::new(u)))
            .collect();
        Bed { backend, tokens }
    }

    pub fn direct(&self, user: usize) -> CoreResult<DirectTransport> {
        let mut t = DirectTransport::new(Arc::clone(&self.backend)).without_pushes();
        t.authenticate(self.tokens[user])?;
        Ok(t)
    }

    /// Pre-creates `count` files in the user's root volume, in-process.
    pub fn prepare(&self, user: usize, count: usize) -> CoreResult<Targets> {
        let mut t = self.direct(user)?;
        let root = root_volume(&mut t)?;
        let mut nodes = Vec::with_capacity(count);
        let mut generation = root.1;
        for k in 0..count {
            let info = t.make_node(root.0, None, NodeKind::File, &format!("target-{k}.dat"))?;
            generation = info.generation;
            nodes.push(info.node);
        }
        t.close();
        Ok(Targets {
            volume: root.0,
            nodes,
            generation,
        })
    }

    pub fn serve(&self, cfg: ReactorConfig) -> Result<TcpServer, String> {
        TcpServer::start_with(Arc::clone(&self.backend), "127.0.0.1:0", cfg)
            .map_err(|e| format!("starting the reactor: {e}"))
    }
}

fn root_volume<T: Transport>(t: &mut T) -> CoreResult<(VolumeId, u64)> {
    let volumes = t.list_volumes()?;
    volumes
        .iter()
        .find(|v| v.kind == u1_core::VolumeKind::Root)
        .map(|v| (v.volume, v.generation))
        .ok_or_else(|| u1_core::CoreError::not_found("root volume"))
}

/// Digest of a volume's full listing, free of node ids: what a fresh client
/// would mirror after everything the script did.
pub fn listing_digest<T: Transport>(t: &mut T, volume: VolumeId) -> CoreResult<String> {
    let (generation, nodes) = t.rescan_from_scratch(volume)?;
    let mut lines: Vec<String> = nodes
        .iter()
        .map(|n| {
            format!(
                "{}|{:?}|{}|{}|{}",
                n.name.as_str(),
                n.kind,
                n.size,
                n.is_dead,
                n.parent.is_some()
            )
        })
        .collect();
    lines.sort_unstable();
    Ok(sha_hex(&format!("{generation}\n{}", lines.join("\n"))))
}

fn tcp(addr: SocketAddr, token: Token) -> Result<TcpTransport, String> {
    let mut t = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
    t.authenticate(token)
        .map_err(|e| format!("authenticate: {e}"))?;
    Ok(t)
}

// ---------------------------------------------------------------------------
// The pipelined client
// ---------------------------------------------------------------------------

/// One nonblocking protocol connection that may have many requests in
/// flight: the sans-io `ClientConn` over a `TcpStream`, written through a
/// `SendQueue`, read with `read_once`.
struct PipeConn {
    stream: TcpStream,
    conn: ClientConn,
    out: SendQueue,
    in_flight: usize,
    buf: Vec<u8>,
}

impl PipeConn {
    /// Connects and authenticates (blocking), then goes nonblocking and
    /// registers with `poller` under `token`.
    fn open(addr: SocketAddr, auth: Token, poller: &Poller, token: u64) -> Result<Self, String> {
        let io = |e: std::io::Error| format!("wire connection: {e}");
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        u1_proto::tcp::configure(&stream).map_err(io)?;
        let mut conn = ClientConn::new();
        let (_, bytes) = conn
            .request(Request::Authenticate {
                token: auth.as_bytes().to_vec(),
            })
            .map_err(|e| e.to_string())?;
        stream.write_all(&bytes).map_err(io)?;
        let mut buf = vec![0u8; 64 * 1024];
        while conn.session().is_none() {
            let n = u1_proto::tcp::read_some(&mut stream, &mut buf).map_err(io)?;
            if n == 0 {
                return Err("server closed the connection during authentication".into());
            }
            for ev in conn.on_bytes(&buf[..n]).map_err(|e| e.to_string())? {
                if let ClientEvent::Response {
                    resp: Response::Error { message, .. },
                    ..
                } = ev
                {
                    return Err(format!("authentication refused: {message}"));
                }
            }
        }
        stream.set_nonblocking(true).map_err(io)?;
        poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .map_err(io)?;
        Ok(PipeConn {
            stream,
            conn,
            out: SendQueue::new(),
            in_flight: 0,
            buf,
        })
    }

    /// Queues a request; returns its id.
    fn send(&mut self, req: Request) -> Result<u32, String> {
        let (id, bytes) = self.conn.request(req).map_err(|e| e.to_string())?;
        self.out.push(bytes);
        self.in_flight += 1;
        Ok(id)
    }

    fn flush(&mut self) -> Result<(), String> {
        if !self.out.is_empty() {
            self.out
                .write_to(&mut self.stream)
                .map_err(|e| format!("send: {e}"))?;
        }
        Ok(())
    }

    /// Reads whatever has arrived; calls `on_final(id, is_error)` for every
    /// request that completed. Returns how many did.
    fn drain(&mut self, mut on_final: impl FnMut(u32, bool)) -> Result<usize, String> {
        let mut done = 0;
        loop {
            match read_once(&mut self.stream, &mut self.buf).map_err(|e| format!("recv: {e}"))? {
                ReadOutcome::WouldBlock => return Ok(done),
                ReadOutcome::Closed => return Err("server closed the connection".into()),
                ReadOutcome::Bytes(n) => {
                    let events = self
                        .conn
                        .on_bytes(&self.buf[..n])
                        .map_err(|e| format!("protocol: {e}"))?;
                    for ev in events {
                        if let ClientEvent::Response { id, resp } = ev {
                            if resp.is_final() {
                                self.in_flight -= 1;
                                done += 1;
                                on_final(id, matches!(resp, Response::Error { .. }));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The load generator's connections and the poller they share.
struct Fleet {
    poller: Poller,
    conns: Vec<PipeConn>,
}

impl Fleet {
    fn open(addr: SocketAddr, tokens: &[Token]) -> Result<Fleet, String> {
        let poller = Poller::new().map_err(|e| format!("epoll: {e}"))?;
        let conns = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| PipeConn::open(addr, t, &poller, i as u64))
            .collect::<Result<_, _>>()?;
        Ok(Fleet { poller, conns })
    }

    /// Closed loop: every connection keeps up to `window` requests of its
    /// script in flight until the script is done. Returns
    /// `(acknowledged, error replies, wall seconds)`.
    fn closed_loop(
        &mut self,
        scripts: Vec<Vec<Request>>,
        window: usize,
    ) -> Result<(u64, u64, f64), String> {
        let mut scripts: Vec<_> = scripts.into_iter().map(Vec::into_iter).collect();
        let (mut acked, mut errors) = (0u64, 0u64);
        let mut events = Vec::new();
        let started = Instant::now();
        loop {
            let mut progressed = false;
            for (c, script) in self.conns.iter_mut().zip(&mut scripts) {
                while c.in_flight < window {
                    let Some(req) = script.next() else { break };
                    c.send(req)?;
                    progressed = true;
                }
                c.flush()?;
            }
            for c in &mut self.conns {
                let done = c.drain(|_, is_error| {
                    acked += 1;
                    errors += u64::from(is_error);
                })?;
                progressed |= done > 0;
            }
            let finished = self
                .conns
                .iter()
                .zip(&scripts)
                .all(|(c, s)| c.in_flight == 0 && s.len() == 0);
            if finished {
                return Ok((acked, errors, started.elapsed().as_secs_f64()));
            }
            let backlog = self.conns.iter().any(|c| !c.out.is_empty());
            if !progressed && !backlog {
                // Windows are full and nothing has arrived: sleep until a
                // socket is readable instead of spinning on `read`.
                events.clear();
                self.poller
                    .wait(&mut events, Some(Duration::from_millis(5)))
                    .map_err(|e| format!("epoll wait: {e}"))?;
            }
        }
    }

    /// Open loop: request `i` goes out on connection `i % n` as soon as its
    /// due time has come, whatever is still in flight.
    fn open_loop(
        &mut self,
        requests: Vec<Request>,
        mut book: OpenLoopBook,
    ) -> Result<(OpenLoopBook, u64), String> {
        let n = self.conns.len();
        // Request ids on one connection are consecutive, so the position in
        // this list recovers the schedule index from a reply's id.
        let mut sent: Vec<(Option<u32>, Vec<usize>)> = vec![(None, Vec::new()); n];
        let mut errors = 0u64;
        let mut requests = requests.into_iter();
        let mut next = 0usize;
        let started = Instant::now();
        let now_ns = || u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let deadline = book.due_ns.last().copied().unwrap_or(0) + 30_000_000_000;
        while book.outstanding() > 0 {
            if now_ns() > deadline {
                return Err(format!(
                    "open loop: {} requests still unanswered 30 s after the last was due",
                    book.outstanding()
                ));
            }
            while book.due_ns.get(next).is_some_and(|&due| due <= now_ns()) {
                let Some(req) = requests.next() else { break };
                let c = next % n;
                let id = self.conns[c].send(req)?;
                self.conns[c].flush()?;
                sent[c].0.get_or_insert(id);
                sent[c].1.push(next);
                book.mark_sent(next, now_ns());
                next += 1;
            }
            for (c, (first, order)) in self.conns.iter_mut().zip(&sent) {
                c.flush()?;
                c.drain(|id, is_error| {
                    let at = now_ns();
                    let pos = first.map_or(0, |f| id.wrapping_sub(f)) as usize;
                    if let Some(&i) = order.get(pos) {
                        book.mark_reply(i, at);
                    }
                    errors += u64::from(is_error);
                })?;
            }
        }
        Ok((book, errors))
    }
}

/// Poisson arrival times, in nanoseconds from the phase start.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::derive(seed, "open-arrivals");
    let mean_ns = 1e9 / rate_per_s;
    let horizon = seconds * 1e9;
    let mut at = 0.0;
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.05) as usize);
    loop {
        at += rng.exp(mean_ns);
        if at >= horizon {
            return due;
        }
        due.push(at as u64);
    }
}

/// The open loop's bookkeeping: when each request was due, how late the
/// generator sent it, and how long after its *due* time the reply came —
/// so a stall delays the latency of every request queued behind it instead
/// of hiding them (coordinated omission).
#[derive(Debug, Clone)]
pub struct OpenLoopBook {
    pub due_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
    pub latency_ns: Vec<u64>,
    replied: Vec<bool>,
    outstanding: usize,
}

impl OpenLoopBook {
    pub fn new(due_ns: Vec<u64>) -> OpenLoopBook {
        let n = due_ns.len();
        OpenLoopBook {
            due_ns,
            late_ns: vec![0; n],
            latency_ns: vec![0; n],
            replied: vec![false; n],
            outstanding: n,
        }
    }

    /// Requests not yet answered (sent or not).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    pub fn mark_sent(&mut self, i: usize, now_ns: u64) {
        self.late_ns[i] = now_ns.saturating_sub(self.due_ns[i]);
    }

    pub fn mark_reply(&mut self, i: usize, now_ns: u64) {
        if !std::mem::replace(&mut self.replied[i], true) {
            self.latency_ns[i] = now_ns.saturating_sub(self.due_ns[i]);
            self.outstanding -= 1;
        }
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

struct BulkFile {
    content: usize,
    hash: ContentHash,
}

pub struct WireLoopback {
    seed: u64,
    scripts: Vec<Script>,
    contents: Vec<Vec<u8>>,
    files: Vec<BulkFile>,
    /// Listing digests (one per user) after the last repetition's sat phase.
    last_listing: Vec<String>,
    last_stats: Option<WireStats>,
    last_open: Option<OpenLoopBook>,
}

/// One fully prepared repetition: server up, targets made, connections
/// authenticated.
struct Arena {
    bed: Bed,
    server: TcpServer,
    targets: Vec<Targets>,
    fleet: Fleet,
}

impl WireLoopback {
    fn arena(&self, cfg: ReactorConfig) -> Result<Arena, String> {
        let bed = Bed::new(CONNECTIONS);
        let targets = self
            .scripts
            .iter()
            .enumerate()
            .map(|(u, s)| bed.prepare(u, s.targets))
            .collect::<CoreResult<Vec<_>>>()
            .map_err(|e| format!("preparing targets: {e}"))?;
        let server = bed.serve(cfg)?;
        let fleet = Fleet::open(server.local_addr(), &bed.tokens)?;
        Ok(Arena {
            bed,
            server,
            targets,
            fleet,
        })
    }

    fn requests(&self, targets: &[Targets], len: usize) -> Vec<Vec<Request>> {
        self.scripts
            .iter()
            .zip(targets)
            .map(|(s, t)| {
                s.steps
                    .iter()
                    .take(len)
                    .enumerate()
                    .map(|(i, step)| step.request(i, t))
                    .collect()
            })
            .collect()
    }

    /// The open phase's requests: reads only (deltas near the head the sat
    /// phase left, and listings), so any number of them can be outstanding
    /// in any order without changing what the sat phase left.
    fn open_requests(&self, targets: &[Targets], n: usize) -> Vec<Request> {
        let mut rng = Rng::derive(self.seed, "open-mix");
        (0..n)
            .map(|i| {
                let user = i % targets.len();
                let t = &targets[user];
                let head = t.generation + self.scripts[user].writes;
                match rng.below(5) {
                    0..=2 => Request::GetDelta {
                        volume: t.volume,
                        from_generation: head.saturating_sub(rng.below(8)),
                    },
                    3 => Request::ListVolumes,
                    _ => Request::ListShares,
                }
            })
            .collect()
    }
}

impl Workload for WireLoopback {
    const NAME: &'static str = "wire_loopback";

    fn setup(seed: u64) -> Result<Self, String> {
        let scripts: Vec<Script> = (0..CONNECTIONS)
            .map(|c| Script::plan(seed, c, SAT_REQUESTS / CONNECTIONS))
            .collect();
        for (c, s) in scripts.iter().enumerate() {
            eprintln!("[wire_loopback] connection {c} script sha1 {}", s.digest());
        }
        let mut rng = Rng::derive(seed, "bulk-contents");
        let mut contents: Vec<Vec<u8>> = Vec::new();
        let mut files = Vec::with_capacity(BULK_FILES);
        for i in 0..BULK_FILES {
            let content = if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
                rng.below(contents.len() as u64) as usize
            } else {
                let mut data = vec![0u8; FILE_BYTES];
                rng.fill(&mut data);
                contents.push(data);
                contents.len() - 1
            };
            files.push(BulkFile {
                content,
                hash: Sha1::digest(&contents[content]),
            });
        }
        Ok(WireLoopback {
            seed,
            scripts,
            contents,
            files,
            last_listing: Vec::new(),
            last_stats: None,
            last_open: None,
        })
    }

    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        let mut arena = self.arena(ReactorConfig::default())?;
        let addr = arena.server.local_addr();
        let mut rep = Rep::default();

        // --- sat ---------------------------------------------------------
        let scripts = self.requests(&arena.targets, SAT_REQUESTS);
        let id = rec.enter("wire.sat");
        let (acked, errors, _) = rep.stage(0, || arena.fleet.closed_loop(scripts, SAT_WINDOW))?;
        rec.exit(id, acked);
        rep.items[0] = acked as f64;
        rep.attempted += SAT_REQUESTS as u64;
        rep.failed += errors + (SAT_REQUESTS as u64).saturating_sub(acked);

        let mut listing = Vec::new();
        for (u, t) in arena.targets.iter().enumerate() {
            let mut session = tcp(addr, arena.bed.tokens[u])?;
            listing.push(listing_digest(&mut session, t.volume).map_err(|e| e.to_string())?);
            session.close();
        }

        // --- open (traced runs only; its numbers are per-layer) -----------
        if rec.enabled() {
            let due = poisson_schedule(self.seed, OPEN_RATE, OPEN_SECONDS);
            let requests = self.open_requests(&arena.targets, due.len());
            let id = rec.enter("wire.open");
            let (book, errors) = arena.fleet.open_loop(requests, OpenLoopBook::new(due))?;
            rec.exit(id, book.due_ns.len() as u64);
            rep.attempted += book.due_ns.len() as u64;
            rep.failed += errors;
            self.last_open = Some(book);
        }

        // --- bulk ---------------------------------------------------------
        let volume = arena.targets[0].volume;
        let mut session = tcp(addr, arena.bed.tokens[0])?;
        let mut nodes = Vec::with_capacity(self.files.len());
        let mut payloads = Vec::with_capacity(self.files.len());
        for (i, f) in self.files.iter().enumerate() {
            let info = session
                .make_node(volume, None, NodeKind::File, &format!("bulk-{i}.bin"))
                .map_err(|e| format!("creating bulk file: {e}"))?;
            nodes.push(info.node);
            payloads.push(self.contents[f.content].clone());
        }
        let mib = |files: usize| (files * FILE_BYTES) as f64 / (1024.0 * 1024.0);

        let id = rec.enter("wire.upload");
        let upload_failures = rep.stage(1, || {
            let mut failures = 0u64;
            for ((f, &node), data) in self.files.iter().zip(&nodes).zip(payloads) {
                let sent = session.upload(volume, node, f.hash, FILE_BYTES as u64, Some(data));
                failures += u64::from(sent.is_err());
            }
            failures
        });
        rec.exit(id, (self.files.len() * FILE_BYTES) as u64);
        rep.items[1] = mib(self.files.len());

        let id = rec.enter("wire.download");
        let download_failures = rep.stage(2, || {
            let mut failures = 0u64;
            for _ in 0..2 {
                for (f, &node) in self.files.iter().zip(&nodes) {
                    let intact = match session.download(volume, node) {
                        Ok((_, hash, Some(data))) => {
                            hash == f.hash && data == self.contents[f.content]
                        }
                        _ => false,
                    };
                    failures += u64::from(!intact);
                }
            }
            failures
        });
        rec.exit(id, (2 * self.files.len() * FILE_BYTES) as u64);
        rep.items[2] = mib(2 * self.files.len());
        rep.attempted += 3 * self.files.len() as u64;
        rep.failed += upload_failures + download_failures;
        session.close();

        let stats = arena.server.stats();
        rep.failed += stats.protocol_errors + stats.evicted_slow;
        arena.server.shutdown();
        rep.fingerprint = sha_hex(&listing.join("\n"));
        self.last_listing = listing;
        self.last_stats = Some(stats);
        Ok(rep)
    }

    /// Replays the same scripts in-process on a fresh back-end: the wire
    /// tier must add transport, not behaviour.
    fn verify(&mut self) -> Vec<String> {
        let bed = Bed::new(CONNECTIONS);
        let mut problems = Vec::new();
        for (u, script) in self.scripts.iter().enumerate() {
            let replayed = (|| -> CoreResult<String> {
                let targets = bed.prepare(u, script.targets)?;
                let mut direct = bed.direct(u)?;
                for (i, step) in script.steps.iter().enumerate() {
                    step.apply(i, &targets, &mut direct)?;
                }
                let digest = listing_digest(&mut direct, targets.volume)?;
                direct.close();
                Ok(digest)
            })();
            match replayed {
                Ok(d) if self.last_listing.get(u) == Some(&d) => {}
                Ok(d) => problems.push(format!(
                    "user {u}: listing over the wire {:?}, through DirectTransport {d}",
                    self.last_listing.get(u)
                )),
                Err(e) => problems.push(format!("user {u}: in-process replay failed: {e}")),
            }
        }
        problems
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
        if let Some(book) = &self.last_open {
            let sorted = |v: &[u64]| {
                let mut v = v.to_vec();
                v.sort_unstable();
                v
            };
            let lat = sorted(&book.latency_ns);
            let us = |p: f64| percentile(&lat, p) as f64 / 1e3;
            out.set("wire.lat_p50_us", us(50.0));
            out.set("wire.lat_p90_us", us(90.0));
            out.set("wire.lat_p99_us", us(99.0));
            out.set("wire.lat_p999_us", us(99.9));
            out.set("wire.lat_max_us", us(100.0));
            out.set(
                "wire.gen_late_p99_us",
                percentile(&sorted(&book.late_ns), 99.0) as f64 / 1e3,
            );
        }
        let (up, down) = (rec.totals("wire.upload"), rec.totals("wire.download"));
        out.set(
            "wire.alloc_bytes_per_payload_byte",
            ratio(
                (up.alloc_bytes + down.alloc_bytes) as f64,
                (up.count + down.count) as f64,
            ),
        );
        if let Some(stats) = self.last_stats {
            out.set("wire.protocol_errors", stats.protocol_errors as f64);
            out.set("wire.evicted_slow", stats.evicted_slow as f64);
            out.set("wire.pushes_forwarded", stats.pushes_forwarded as f64);
        }

        // The in-flight ladder: the same mix at 1, 16 and 64 requests in
        // flight per connection, each on a fresh server.
        for (window, len, name) in [
            (1, 20_000, "wire.sat_ops_per_s.w1"),
            (16, 100_000, "wire.sat_ops_per_s.w16"),
            (64, 100_000, "wire.sat_ops_per_s.w64"),
        ] {
            let mut arena = self.arena(ReactorConfig::default())?;
            let scripts = self.requests(&arena.targets, len / CONNECTIONS);
            let id = rec.enter(name);
            let (acked, _, wall) = arena.fleet.closed_loop(scripts, window)?;
            rec.exit(id, acked);
            out.set(name, acked as f64 / wall);
            arena.server.shutdown();
        }

        // Ping-pong through the blocking client, alone and then with 256
        // authenticated, silent sessions parked on the reactor (the paper's
        // idle majority). A roomier accept throttle: the parked sessions
        // all come from one address within a second.
        let roomy = ReactorConfig {
            accept_burst_per_ip: 4096,
            ..ReactorConfig::default()
        };
        let pingpong = |parked: usize, rec: &mut Recorder, span: &str| -> Result<f64, String> {
            // Each parked session is another user's: nothing the measured
            // session does fans out to them.
            let bed = Bed::new(1 + parked);
            let script = Script::plan(self.seed, 0, 10_000);
            let targets = bed.prepare(0, script.targets).map_err(|e| e.to_string())?;
            let server = bed.serve(roomy.clone())?;
            let addr = server.local_addr();
            let idle = bed.tokens[1..]
                .iter()
                .map(|&token| tcp(addr, token))
                .collect::<Result<Vec<_>, _>>()?;
            let mut timed = TimedTransport::new(tcp(addr, bed.tokens[0])?);
            let id = rec.enter(span);
            for (i, step) in script.steps.iter().enumerate() {
                step.apply(i, &targets, &mut timed)
                    .map_err(|e| format!("ping-pong step {i}: {e}"))?;
            }
            let stat = timed.stat(Call::Meta);
            rec.aggregate("wire.pingpong_call", stat.nanos, stat.calls);
            rec.exit(id, stat.calls);
            timed.close();
            for mut session in idle {
                session.close();
            }
            server.shutdown();
            Ok(ratio(stat.nanos as f64, stat.calls as f64))
        };
        let alone = pingpong(0, rec, "wire.pingpong")?;
        let crowded = pingpong(256, rec, "wire.pingpong_idle256")?;
        out.set("wire.pingpong_ns_per_op", alone);
        out.set("wire.idle256_delta_ns_per_op", crowded - alone);

        // Connection set-up: TCP connect plus the Authenticate round trip.
        let bed = Bed::new(1);
        let server = bed.serve(roomy)?;
        let sessions = 500u64;
        let id = rec.enter("wire.connect_auth");
        let started = Instant::now();
        for _ in 0..sessions {
            tcp(server.local_addr(), bed.tokens[0])?.close();
        }
        let per_session = started.elapsed().as_nanos() as f64 / sessions as f64;
        rec.exit(id, sessions);
        out.set("wire.connect_auth_ns", per_session);
        server.shutdown();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_digest() {
        let a = Script::plan(0x0B5E_55ED, 0, 5_000);
        let b = Script::plan(0x0B5E_55ED, 0, 5_000);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), Script::plan(0x0B5E_55ED, 1, 5_000).digest());
        assert_ne!(a.digest(), Script::plan(0x0B5E_55EE, 0, 5_000).digest());
    }

    #[test]
    fn script_mix_and_targets_are_as_documented() {
        let s = Script::plan(3, 0, 100_000);
        let share = |f: fn(&Step) -> bool| s.steps.iter().filter(|x| f(x)).count() as f64 / 1e5;
        assert!((share(|x| matches!(x, Step::MakeFile)) - 0.25).abs() < 0.01);
        assert!((share(|x| matches!(x, Step::Move(_))) - 0.15).abs() < 0.01);
        assert!((share(|x| matches!(x, Step::Unlink(_))) - 0.10).abs() < 0.01);
        assert!((share(|x| matches!(x, Step::GetDelta { .. })) - 0.30).abs() < 0.01);
        // Every Move and Unlink owns a distinct target.
        let mut used: Vec<usize> = s
            .steps
            .iter()
            .filter_map(|x| match x {
                Step::Move(k) | Step::Unlink(k) => Some(*k),
                _ => None,
            })
            .collect();
        used.sort_unstable();
        assert_eq!(used, (0..s.targets).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_is_seeded_sorted_and_at_the_requested_rate() {
        let a = poisson_schedule(9, 40_000.0, 0.5);
        assert_eq!(a, poisson_schedule(9, 40_000.0, 0.5));
        assert_ne!(a, poisson_schedule(10, 40_000.0, 0.5));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((a.len() as f64 - 20_000.0).abs() < 600.0, "{}", a.len());
        assert!(a.last().is_some_and(|&t| t < 500_000_000));
    }

    /// Latency runs from the *intended* send time: a generator that sends
    /// late does not make the request look faster, and lateness is kept
    /// apart.
    #[test]
    fn open_loop_book_charges_latency_from_the_due_time() {
        let mut book = OpenLoopBook::new(vec![100, 200, 300]);
        assert_eq!(book.outstanding(), 3);
        book.mark_sent(0, 100);
        book.mark_sent(1, 260); // the generator was 60 ns late
        book.mark_sent(2, 290); // never early: clamps at 0
        book.mark_reply(1, 500);
        book.mark_reply(0, 400);
        book.mark_reply(0, 999); // a duplicate reply changes nothing
        assert_eq!(book.outstanding(), 1);
        book.mark_reply(2, 1_300);
        assert_eq!(book.outstanding(), 0);
        assert_eq!(book.late_ns, vec![0, 60, 0]);
        assert_eq!(book.latency_ns, vec![300, 300, 1_000]);
    }

    #[test]
    fn steps_bind_to_targets_the_same_way_on_both_paths() {
        let t = Targets {
            volume: VolumeId::new(7),
            nodes: vec![NodeId::new(11), NodeId::new(12)],
            generation: 40,
        };
        assert_eq!(
            Step::Unlink(1).request(5, &t),
            Request::Unlink {
                volume: VolumeId::new(7),
                node: NodeId::new(12)
            }
        );
        assert_eq!(
            Step::GetDelta {
                writes_before: 10,
                back: 3
            }
            .request(0, &t),
            Request::GetDelta {
                volume: VolumeId::new(7),
                from_generation: 47
            }
        );
    }
}
