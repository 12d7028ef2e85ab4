//! Live TCP front-end: an epoll reactor serving the storage protocol.
//!
//! Threading model (DESIGN.md §15): **one thread**, the Twisted shape the
//! real U1 API servers had — a single event loop multiplexing every
//! persistent client connection over level-triggered `epoll` (via
//! [`u1_net::Poller`]). There are no per-connection threads, no
//! per-session push-writer threads, and no socket mutexes: every read,
//! every dispatch, and every write happens on the reactor thread, and
//! outbound frames (responses *and* pushes) go through a per-connection
//! [`SendQueue`] that the reactor drains when the socket reports writable.
//!
//! The reactor is the wire and nothing more: each decoded request goes to
//! [`Backend::serve`] — the entry point the in-process client transport
//! calls too — and its answer is framed back onto the connection.
//!
//! Admission control (§5.4 — U1 ran per-IP throttling after the 2014
//! abuse incident):
//!
//! * a hard cap on concurrent connections ([`ReactorConfig::max_connections`]),
//! * a per-IP accept throttle (at most `accept_burst_per_ip` accepts per
//!   `accept_window` from one address),
//! * a per-connection send budget: a client that stops reading while the
//!   server owes it bytes accumulates queued frames, and once the queue
//!   exceeds [`ReactorConfig::send_budget_bytes`] the connection is evicted
//!   — slow readers cost bounded memory, not unbounded growth.
//!
//! Shutdown drains: accepting stops, queued bytes are flushed, and any
//! connection still unflushed at `drain_timeout` is force-closed.

use crate::api::{Served, SessionState};
use crate::backend::Backend;
use std::collections::HashMap;
use std::io::Write;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use u1_core::fxhash::FxHashMap;
use u1_core::CoreError;
use u1_net::{Interest, Poller};
use u1_proto::conn::{ServerConn, ServerEvent};
use u1_proto::msg::{Request, RequestId, Response};
use u1_proto::nio::{read_once, ReadOutcome, SendQueue};
use u1_proto::tcp;

/// Maximum bytes per ContentChunk response.
const DOWNLOAD_CHUNK: usize = 256 * 1024;

/// Token under which the listening socket is registered.
const LISTENER: u64 = 0;

/// Size of the reactor's one read buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Most bytes read from one connection per readiness event. A readable
/// connection is read until the socket is empty or this much has been
/// taken, whichever is first; what is left re-arms the (level-triggered)
/// event, so a peer that never stops sending gets its turn like everyone
/// else instead of owning the loop.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// Reactor tuning knobs. [`ReactorConfig::default`] matches what the tests
/// and benches expect from a well-behaved deployment.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Hard cap on concurrently served connections; accepts beyond it are
    /// refused (closed immediately).
    pub max_connections: usize,
    /// Accepts allowed from one IP per `accept_window` before the reactor
    /// starts refusing that address (§5.4 per-IP throttling).
    pub accept_burst_per_ip: u32,
    /// Length of the per-IP accounting window.
    pub accept_window: Duration,
    /// Eviction threshold for a connection's unsent queued bytes.
    pub send_budget_bytes: usize,
    /// Upper bound on one `epoll_wait`; also the cadence at which pending
    /// pushes are forwarded and the shutdown flag is observed.
    pub tick: Duration,
    /// How long shutdown waits for queued bytes to flush before
    /// force-closing the stragglers.
    pub drain_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 1024,
            accept_burst_per_ip: 256,
            accept_window: Duration::from_secs(1),
            send_budget_bytes: 32 * 1024 * 1024,
            tick: Duration::from_millis(5),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Monotone counters the reactor maintains; snapshot via
/// [`TcpServer::stats`]. All relaxed: they are diagnostics, not
/// synchronization.
#[derive(Debug, Default)]
struct WireCounters {
    accepted: AtomicU64,
    refused_capacity: AtomicU64,
    refused_throttle: AtomicU64,
    evicted_slow: AtomicU64,
    graceful_byes: AtomicU64,
    eof_reaps: AtomicU64,
    protocol_errors: AtomicU64,
    pushes_forwarded: AtomicU64,
}

/// A point-in-time copy of the reactor's admission/lifecycle counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Connections admitted past all admission checks.
    pub accepted: u64,
    /// Accepts refused because `max_connections` was reached.
    pub refused_capacity: u64,
    /// Accepts refused by the per-IP throttle.
    pub refused_throttle: u64,
    /// Connections evicted for exceeding their send budget (slow readers).
    pub evicted_slow: u64,
    /// Sessions ended by an explicit `Bye` (vs. reaped on EOF).
    pub graceful_byes: u64,
    /// Connections reaped because the peer disconnected (EOF/hangup/error).
    pub eof_reaps: u64,
    /// Connections dropped for framing or protocol violations.
    pub protocol_errors: u64,
    /// Push notifications forwarded onto client connections.
    pub pushes_forwarded: u64,
}

impl WireCounters {
    fn snapshot(&self) -> WireStats {
        WireStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused_capacity: self.refused_capacity.load(Ordering::Relaxed),
            refused_throttle: self.refused_throttle.load(Ordering::Relaxed),
            evicted_slow: self.evicted_slow.load(Ordering::Relaxed),
            graceful_byes: self.graceful_byes.load(Ordering::Relaxed),
            eof_reaps: self.eof_reaps.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            pushes_forwarded: self.pushes_forwarded.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the [`TcpServer`] handle and the reactor thread.
struct Shared {
    shutdown: AtomicBool,
    counters: WireCounters,
}

/// A running TCP server.
pub struct TcpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds and starts the reactor with default tuning. Pass
    /// `"127.0.0.1:0"` to get an ephemeral port (see
    /// [`TcpServer::local_addr`]).
    pub fn start(backend: Arc<Backend>, addr: &str) -> std::io::Result<TcpServer> {
        Self::start_with(backend, addr, ReactorConfig::default())
    }

    /// Binds and starts the reactor with explicit tuning.
    pub fn start_with(
        backend: Arc<Backend>,
        addr: &str,
        cfg: ReactorConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            counters: WireCounters::default(),
        });
        let shared2 = Arc::clone(&shared);
        let reactor = std::thread::Builder::new()
            .name("u1-reactor".into())
            .spawn(move || {
                Reactor {
                    backend,
                    listener,
                    poller,
                    shared: shared2,
                    cfg,
                    conns: FxHashMap::default(),
                    throttle: HashMap::new(),
                    next_token: LISTENER + 1,
                }
                .run();
            })?;
        Ok(TcpServer {
            addr: local,
            shared,
            reactor: Some(reactor),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Admission and lifecycle counters, as of now.
    pub fn stats(&self) -> WireStats {
        self.shared.counters.snapshot()
    }

    /// Stops accepting, drains queued bytes (bounded by
    /// [`ReactorConfig::drain_timeout`]), closes every connection, and joins
    /// the reactor thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
    }
}

fn err_response(e: &CoreError) -> Response {
    Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    }
}

/// Why a connection is being torn down — selects the stat to bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// The peer stopped sending (EOF, hangup) or the socket failed.
    Eof,
    Protocol,
    Evicted,
    /// Queue flushed after a close-worthy exchange (Bye, auth refusal,
    /// pre-auth violation) or during shutdown drain.
    Flushed,
}

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    peer_ip: IpAddr,
    proto: ServerConn,
    sendq: SendQueue,
    /// What [`Backend::serve`] keeps of this connection's session.
    session: SessionState,
    /// Set once the connection has read its last request: flush the send
    /// queue, then tear down for this cause. No more reads are processed.
    closing: Option<Cause>,
    /// Last interest registered with the poller (write side toggles; read
    /// side goes off once `closing`).
    interest: Interest,
}

struct Reactor {
    backend: Arc<Backend>,
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared>,
    cfg: ReactorConfig,
    /// Keyed by poller token: our own counter, so the fast hasher is safe.
    conns: FxHashMap<u64, Conn>,
    /// Keyed by peer address, which the peer chooses: default hasher.
    throttle: HashMap<IpAddr, (Instant, u32)>,
    next_token: u64,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::with_capacity(256);
        let mut read_buf = vec![0u8; READ_CHUNK];
        let mut draining_since: Option<Instant> = None;

        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) && draining_since.is_none() {
                draining_since = Some(Instant::now());
                let _ = self.poller.deregister(self.listener.as_raw_fd());
                for conn in self.conns.values_mut() {
                    conn.closing.get_or_insert(Cause::Flushed);
                }
            }
            if let Some(t0) = draining_since {
                if self.conns.is_empty() {
                    return;
                }
                if t0.elapsed() >= self.cfg.drain_timeout {
                    self.teardown_all();
                    return;
                }
            }

            events.clear();
            if self.poller.wait(&mut events, Some(self.cfg.tick)).is_err() {
                // The poller itself failing is unrecoverable; drop
                // everything (sessions are reaped in teardown).
                self.teardown_all();
                return;
            }

            for &ev in &events {
                if ev.token == LISTENER {
                    if draining_since.is_none() {
                        self.accept_ready();
                    }
                    continue;
                }
                // A hangup is read like readable data: whatever the peer
                // sent before it stopped is still in the socket, and the
                // read that finds the end tears the connection down.
                // Writability is consumed by the post-pass below.
                if ev.readable || ev.hangup {
                    self.conn_readable(ev.token, &mut read_buf);
                }
            }

            self.post_pass();
        }
    }

    /// Accepts until the backlog is empty, applying admission control.
    fn accept_ready(&mut self) {
        loop {
            let (stream, peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            if self.conns.len() >= self.cfg.max_connections {
                self.shared
                    .counters
                    .refused_capacity
                    .fetch_add(1, Ordering::Relaxed);
                continue; // dropping the stream closes it
            }
            if !self.admit_ip(peer.ip()) {
                self.shared
                    .counters
                    .refused_throttle
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = tcp::configure(&stream);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                continue;
            }
            self.shared
                .counters
                .accepted
                .fetch_add(1, Ordering::Relaxed);
            self.conns.insert(
                token,
                Conn {
                    stream,
                    peer_ip: peer.ip(),
                    proto: ServerConn::new(),
                    sendq: SendQueue::new(),
                    session: SessionState::new(true),
                    closing: None,
                    interest: Interest::READ,
                },
            );
        }
    }

    /// Sliding-window per-IP accept throttle.
    fn admit_ip(&mut self, ip: IpAddr) -> bool {
        let now = Instant::now();
        let entry = self.throttle.entry(ip).or_insert((now, 0));
        if now.duration_since(entry.0) > self.cfg.accept_window {
            *entry = (now, 0);
        }
        entry.1 += 1;
        entry.1 <= self.cfg.accept_burst_per_ip
    }

    /// Reads the connection until its socket is empty, the peer is done,
    /// or [`READ_BUDGET`] is spent, feeding the protocol state machine and
    /// dispatching what comes out.
    fn conn_readable(&mut self, token: u64, buf: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // torn down earlier this batch
        };
        let mut taken = 0;
        let verdict = 'read: loop {
            // Draining connections take no more input; neither does one
            // that is out of budget for this event, or already owed more
            // than it may be (the post-pass evicts it unless it drains).
            if conn.closing.is_some()
                || taken >= READ_BUDGET
                || conn.sendq.queued_bytes() > self.cfg.send_budget_bytes
            {
                return;
            }
            let n = match read_once(&mut conn.stream, buf) {
                Ok(ReadOutcome::Bytes(n)) => n,
                Ok(ReadOutcome::WouldBlock) => return,
                Ok(ReadOutcome::Closed) => {
                    // The peer finished sending; it may well still be
                    // reading. It gets the replies it is owed, then the
                    // close.
                    conn.closing = Some(Cause::Eof);
                    return;
                }
                Err(_) => break Cause::Eof,
            };
            taken += n;
            let Ok(events) = conn.proto.on_bytes(&buf[..n]) else {
                break Cause::Protocol;
            };
            for ev in events {
                if conn.closing.is_some() {
                    return;
                }
                let keep = match ev {
                    ServerEvent::Unauthenticated { id } => {
                        conn.closing = Some(Cause::Flushed);
                        let denied = CoreError::permission_denied("authenticate first");
                        queue(conn, id, err_response(&denied))
                    }
                    ServerEvent::Request { id, req } => {
                        dispatch(&self.backend, &self.shared.counters, conn, id, req)
                    }
                };
                if !keep {
                    break 'read Cause::Protocol;
                }
            }
        };
        self.teardown(token, verdict);
    }

    /// Per-tick maintenance over every connection: forward pending pushes,
    /// flush send queues, toggle write interest, enforce the send budget,
    /// and finish `closing` connections whose queues drained.
    fn post_pass(&mut self) {
        // Connections to tear down once the pass is over (the map cannot
        // shrink while it is being walked). Empty on almost every tick, so
        // the pass allocates nothing.
        let mut doomed: Vec<(u64, Cause)> = Vec::new();
        for (&token, conn) in &mut self.conns {
            // Pushes routed to this session since the last tick (delivered
            // by backend calls — possibly on behalf of *other* connections'
            // requests — earlier in this same reactor loop).
            if conn.closing.is_none() {
                if let Some(rx) = conn.session.pushes() {
                    let mut forwarded = 0u64;
                    let mut dead = false;
                    while let Ok(push) = rx.try_recv() {
                        match conn.proto.push(push) {
                            Ok(bytes) => {
                                conn.sendq.push(bytes);
                                forwarded += 1;
                            }
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    if forwarded > 0 {
                        self.shared
                            .counters
                            .pushes_forwarded
                            .fetch_add(forwarded, Ordering::Relaxed);
                    }
                    if dead {
                        doomed.push((token, Cause::Protocol));
                        continue;
                    }
                }
            }

            if !conn.sendq.is_empty() && conn.sendq.write_to(&mut conn.stream).is_err() {
                doomed.push((token, Cause::Eof));
                continue;
            }

            if conn.sendq.queued_bytes() > self.cfg.send_budget_bytes {
                doomed.push((token, Cause::Evicted));
                continue;
            }

            let interest = match (conn.closing, conn.sendq.is_empty()) {
                (Some(cause), true) => {
                    doomed.push((token, cause));
                    continue;
                }
                (Some(_), false) => Interest::WRITE,
                (None, false) => Interest::READ_WRITE,
                (None, true) => Interest::READ,
            };
            if interest != conn.interest
                && self
                    .poller
                    .reregister(conn.stream.as_raw_fd(), token, interest)
                    .is_ok()
            {
                conn.interest = interest;
            }
        }
        for (token, cause) in doomed {
            self.teardown(token, cause);
        }
    }

    /// Closes every connection at once (drain deadline, poller failure).
    fn teardown_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.teardown(token, Cause::Flushed);
        }
    }

    /// Removes a connection: best-effort flush of anything already queued,
    /// session reap, poller cleanup, stats.
    fn teardown(&mut self, token: u64, cause: Cause) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if cause == Cause::Flushed {
            let _ = conn.sendq.write_to(&mut conn.stream);
            let _ = conn.stream.flush();
        }
        // The session dies with its TCP connection (§3.1.1): an implicit
        // Bye, which does nothing if a real one already closed it.
        let _ = self.backend.serve(&mut conn.session, Request::Bye);
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let counter = match cause {
            Cause::Eof => Some(&self.shared.counters.eof_reaps),
            Cause::Protocol => Some(&self.shared.counters.protocol_errors),
            Cause::Evicted => Some(&self.shared.counters.evicted_slow),
            Cause::Flushed => None,
        };
        if let Some(c) = counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
        // Stop the throttle map from growing without bound: the entry is
        // only interesting while its window is hot.
        if let Some((start, _)) = self.throttle.get(&conn.peer_ip) {
            if start.elapsed() > self.cfg.accept_window {
                self.throttle.remove(&conn.peer_ip);
            }
        }
    }
}

/// Frames one response onto the connection's send queue; false when it does
/// not fit a frame (protocol-fatal: the connection is dropped).
fn queue(conn: &mut Conn, id: RequestId, resp: Response) -> bool {
    conn.proto
        .respond(id, resp)
        .map(|bytes| conn.sendq.push(bytes))
        .is_ok()
}

/// Serves one request and queues its answer; returns false to drop the
/// connection (a frame that cannot be encoded). What a request means is
/// [`Backend::serve`]'s; what is left here is the wire's: marking the
/// connection authenticated, closing it after a goodbye or an
/// authentication that left it without a session (§3.1.1), and framing a
/// download's bytes straight from the buffer `serve` returned. All writes
/// go through the send queue — nothing here touches the socket.
fn dispatch(
    backend: &Backend,
    counters: &WireCounters,
    conn: &mut Conn,
    id: RequestId,
    req: Request,
) -> bool {
    let authenticate = matches!(req, Request::Authenticate { .. });
    let bye = matches!(req, Request::Bye);
    if bye && conn.session.handle().is_some() {
        counters.graceful_byes.fetch_add(1, Ordering::Relaxed);
    }
    let served = backend.serve(&mut conn.session, req);
    if bye || (authenticate && conn.session.handle().is_none()) {
        conn.closing = Some(Cause::Flushed);
    }
    match served {
        Ok(Served::Response(resp)) => {
            if let Response::AuthOk { session, user } = &resp {
                conn.proto.mark_authenticated(*session, *user);
            }
            queue(conn, id, resp)
        }
        Ok(Served::Content { size, hash, data }) => {
            if !queue(conn, id, Response::ContentBegin { size, hash }) {
                return false;
            }
            // Measurement mode returns no bytes: the stream is Begin
            // immediately followed by End, and the declared size is the
            // transfer's accounting. Live bytes are chunked below the
            // frame limit.
            for chunk in data.as_deref().unwrap_or_default().chunks(DOWNLOAD_CHUNK) {
                let Ok(frame) = conn.proto.content_chunk(id, chunk) else {
                    return false;
                };
                conn.sendq.push(frame);
            }
            queue(conn, id, Response::ContentEnd)
        }
        Err(e) => queue(conn, id, err_response(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendConfig;
    use std::io::Read;
    use u1_core::{RealClock, UserId};
    use u1_proto::conn::{ClientConn, ClientEvent};
    use u1_trace::MemorySink;

    fn test_backend(store_real_bytes: bool) -> Arc<Backend> {
        Arc::new(Backend::new(
            BackendConfig {
                auth: u1_auth::AuthConfig {
                    transient_failure_rate: 0.0,
                    token_ttl: None,
                },
                store_real_bytes,
                ..Default::default()
            },
            Arc::new(RealClock::new()),
            Arc::new(MemorySink::new()),
        ))
    }

    /// Minimal blocking client against the reactor.
    struct TestClient {
        stream: TcpStream,
        conn: ClientConn,
    }

    impl TestClient {
        fn connect(addr: SocketAddr) -> Self {
            TestClient {
                stream: TcpStream::connect(addr).expect("connect"),
                conn: ClientConn::new(),
            }
        }

        fn call(&mut self, req: Request) -> Response {
            let (id, bytes) = self.conn.request(req).expect("encode");
            self.stream.write_all(&bytes).expect("send");
            let mut buf = [0u8; 64 * 1024];
            loop {
                let n = self.stream.read(&mut buf).expect("recv");
                assert!(n > 0, "server closed mid-call");
                for ev in self.conn.on_bytes(&buf[..n]).expect("protocol") {
                    if let ClientEvent::Response { id: got, resp } = ev {
                        if got == id && resp.is_final() {
                            return resp;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn over_capacity_accepts_are_refused() {
        let backend = test_backend(false);
        let server = TcpServer::start_with(
            backend,
            "127.0.0.1:0",
            ReactorConfig {
                max_connections: 2,
                ..Default::default()
            },
        )
        .expect("start");
        let mut a = TestClient::connect(server.local_addr());
        let mut b = TestClient::connect(server.local_addr());
        assert_eq!(a.call(Request::Ping), Response::Pong);
        assert_eq!(b.call(Request::Ping), Response::Pong);

        // The third connection is admitted by the kernel but refused by the
        // reactor: the first read observes the close.
        let mut c = TcpStream::connect(server.local_addr()).expect("connect");
        let mut buf = [0u8; 16];
        let n = c.read(&mut buf).expect("refused reads as EOF");
        assert_eq!(n, 0, "refused connection must be closed unread");
        assert_eq!(server.stats().refused_capacity, 1);
        assert_eq!(server.stats().accepted, 2);
        server.shutdown();
    }

    #[test]
    fn per_ip_throttle_refuses_bursts() {
        let backend = test_backend(false);
        let server = TcpServer::start_with(
            backend,
            "127.0.0.1:0",
            ReactorConfig {
                accept_burst_per_ip: 3,
                accept_window: Duration::from_secs(60),
                ..Default::default()
            },
        )
        .expect("start");
        let mut kept = Vec::new();
        for _ in 0..3 {
            let mut c = TestClient::connect(server.local_addr());
            assert_eq!(c.call(Request::Ping), Response::Pong);
            kept.push(c);
        }
        let mut c = TcpStream::connect(server.local_addr()).expect("connect");
        let mut buf = [0u8; 16];
        assert_eq!(c.read(&mut buf).expect("refused"), 0);
        let stats = server.stats();
        assert_eq!(stats.refused_throttle, 1);
        assert_eq!(stats.accepted, 3);
        server.shutdown();
    }

    #[test]
    fn slow_reader_is_evicted_once_over_budget() {
        let backend = test_backend(true);
        let server = TcpServer::start_with(
            Arc::clone(&backend),
            "127.0.0.1:0",
            ReactorConfig {
                send_budget_bytes: 64 * 1024,
                ..Default::default()
            },
        )
        .expect("start");
        let mut c = session(&backend, server.local_addr(), 9);
        let Response::Volumes { volumes } = c.call(Request::ListVolumes) else {
            panic!("volumes");
        };
        let root = volumes[0].volume;
        let resp = c.call(Request::MakeFile {
            volume: root,
            parent: u1_core::NodeId::new(0),
            name: "big.bin".into(),
        });
        let Response::NodeCreated { node, .. } = resp else {
            panic!("make_file: {resp:?}");
        };
        // 32MB of real bytes: larger than any loopback socket buffer, so
        // queued frames must exceed the 64KB budget while we refuse to read.
        let data: Vec<u8> = (0..32 * 1024 * 1024u32).map(|i| (i % 240) as u8).collect();
        let hash = u1_core::Sha1::digest(&data);
        let resp = c.call(Request::BeginUpload {
            volume: root,
            node,
            hash,
            size: data.len() as u64,
        });
        let Response::UploadBegun { upload, .. } = resp else {
            panic!("begin: {resp:?}");
        };
        for chunk in data.chunks(4 * 1024 * 1024) {
            assert_eq!(
                c.call(Request::UploadChunk {
                    upload,
                    data: chunk.to_vec(),
                }),
                Response::Ok
            );
        }
        assert!(matches!(
            c.call(Request::CommitUpload { upload }),
            Response::UploadDone { .. }
        ));

        // Ask for the content back, then stop reading entirely.
        let (_id, bytes) = c
            .conn
            .request(Request::GetContent { volume: root, node })
            .expect("encode");
        c.stream.write_all(&bytes).expect("send");
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().evicted_slow == 0 {
            assert!(Instant::now() < deadline, "eviction never happened");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().evicted_slow, 1);
        server.shutdown();
    }

    #[test]
    fn bye_closes_session_before_responding() {
        let backend = test_backend(false);
        let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("start");
        let mut c = session(&backend, server.local_addr(), 4);
        assert_eq!(backend.sessions.live_count(), 1);
        assert_eq!(c.call(Request::Bye), Response::Ok);
        // The Ok was queued after close_session ran on the reactor: by the
        // time the client has it, the session is gone.
        assert_eq!(backend.sessions.live_count(), 0);
        assert_eq!(server.stats().graceful_byes, 1);
        // And the connection is closed right after the flush.
        let mut buf = [0u8; 16];
        assert_eq!(c.stream.read(&mut buf).expect("closed"), 0);
        server.shutdown();
    }

    /// Authenticates a fresh user on a new connection.
    fn session(backend: &Backend, addr: SocketAddr, user: u64) -> TestClient {
        let token = backend.register_user(UserId::new(user));
        let mut c = TestClient::connect(addr);
        let auth = c.call(Request::Authenticate {
            token: token.as_bytes().to_vec(),
        });
        assert!(matches!(auth, Response::AuthOk { .. }), "{auth:?}");
        c
    }

    /// Reads the stream to EOF and returns every response on it.
    fn responses_until_eof(c: &mut TestClient) -> Vec<Response> {
        let mut rest = Vec::new();
        c.stream.read_to_end(&mut rest).expect("read to EOF");
        c.conn
            .on_bytes(&rest)
            .expect("protocol")
            .into_iter()
            .map(|ev| match ev {
                ClientEvent::Response { resp, .. } => resp,
                ClientEvent::Push(p) => panic!("unexpected push {p:?}"),
            })
            .collect()
    }

    /// A client that pipelines its last requests and half-closes has sent
    /// them *before* the hangup: all are served, and a `Bye` among them is
    /// a graceful goodbye, not an EOF reap.
    #[test]
    fn requests_pipelined_before_a_half_close_are_all_answered() {
        let backend = test_backend(false);
        let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("start");
        let mut c = session(&backend, server.local_addr(), 21);
        let mut burst = Vec::new();
        for req in [
            Request::Ping,
            Request::ListVolumes,
            Request::Ping,
            Request::Bye,
        ] {
            burst.extend_from_slice(&c.conn.request(req).expect("encode").1);
        }
        c.stream.write_all(&burst).expect("send");
        c.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let replies = responses_until_eof(&mut c);
        assert!(
            matches!(
                replies.as_slice(),
                [
                    Response::Pong,
                    Response::Volumes { .. },
                    Response::Pong,
                    Response::Ok
                ]
            ),
            "{replies:?}"
        );
        let stats = server.stats();
        assert_eq!((stats.graceful_byes, stats.eof_reaps), (1, 0));
        assert_eq!(backend.sessions.live_count(), 0);
        server.shutdown();
    }

    /// Without a `Bye` the half-close is an EOF reap — after the replies
    /// the peer is still there to read.
    #[test]
    fn half_close_without_bye_is_answered_then_reaped() {
        let backend = test_backend(false);
        let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("start");
        let mut c = session(&backend, server.local_addr(), 22);
        let mut burst = Vec::new();
        for _ in 0..3 {
            burst.extend_from_slice(&c.conn.request(Request::Ping).expect("encode").1);
        }
        c.stream.write_all(&burst).expect("send");
        c.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        assert_eq!(responses_until_eof(&mut c), vec![Response::Pong; 3]);
        let stats = server.stats();
        assert_eq!((stats.graceful_byes, stats.eof_reaps), (0, 1));
        assert_eq!(backend.sessions.live_count(), 0);
        server.shutdown();
    }

    /// The read budget at work: a connection that never stops sending —
    /// 10,000 pipelined pings per burst, burst after burst — cannot keep a
    /// second connection's single ping waiting until it is done. The flood
    /// goes on until that ping has been answered; with the budget that is a
    /// few reactor rounds (what the socket buffers hold, some 70 bursts
    /// here), while a read loop without one answers nobody until the
    /// flooder's own send budget stops it, some 1,300 bursts in.
    #[test]
    fn a_flooding_connection_cannot_starve_another() {
        const BURST: u32 = 10_000;
        const MAX_BURSTS: u32 = 400;
        let backend = test_backend(false);
        let server = TcpServer::start(backend, "127.0.0.1:0").expect("start");
        let addr = server.local_addr();
        let answered = Arc::new(AtomicBool::new(false));
        let (first_burst_out, first_burst) = std::sync::mpsc::channel();

        let flood = TcpStream::connect(addr).expect("connect");
        let mut flood_in = flood.try_clone().expect("clone");
        let writer = {
            let answered = Arc::clone(&answered);
            let mut out = flood;
            std::thread::spawn(move || {
                // One burst, encoded once and sent over and over (the
                // server does not mind request ids repeating): the socket
                // must never run dry while the server is reading it.
                let mut conn = ClientConn::new();
                let mut burst = Vec::new();
                for _ in 0..BURST {
                    burst.extend_from_slice(&conn.request(Request::Ping).expect("encode").1);
                }
                let mut bursts = 0u32;
                while bursts < MAX_BURSTS && !answered.load(Ordering::SeqCst) {
                    out.write_all(&burst).expect("flood");
                    bursts += 1;
                    if bursts == 1 {
                        first_burst_out.send(()).expect("main is waiting");
                    }
                }
                bursts
            })
        };
        // The flooder's other half drains the replies, so the server never
        // has cause to evict it as a slow reader, until it has as many as
        // pings were sent (known only once the writer is done).
        let sent = Arc::new(AtomicU64::new(u64::MAX));
        let reader = {
            let sent = Arc::clone(&sent);
            flood_in
                .set_read_timeout(Some(Duration::from_millis(50)))
                .expect("timeout");
            std::thread::spawn(move || {
                let mut dec = u1_proto::FrameDecoder::new();
                let mut buf = vec![0u8; 64 * 1024];
                let mut pongs = 0u64;
                while pongs < sent.load(Ordering::SeqCst) {
                    let n = match flood_in.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                        Err(e) if e.kind() == std::io::ErrorKind::TimedOut => continue,
                        Err(e) => panic!("flood replies: {e}"),
                    };
                    dec.extend(&buf[..n]);
                    while dec.next_frame_with(|_| ()).expect("frame").is_some() {
                        pongs += 1;
                    }
                }
                pongs
            })
        };

        first_burst.recv().expect("first burst written");
        let mut quiet = TestClient::connect(addr);
        quiet
            .stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        assert_eq!(quiet.call(Request::Ping), Response::Pong);
        answered.store(true, Ordering::SeqCst);

        let bursts = writer.join().expect("writer");
        assert!(
            bursts < MAX_BURSTS,
            "the quiet connection was only answered once the flood had ended"
        );
        // Nothing of the flood was lost either.
        sent.store(u64::from(bursts) * u64::from(BURST), Ordering::SeqCst);
        assert_eq!(
            reader.join().expect("reader"),
            u64::from(bursts) * u64::from(BURST)
        );
        assert_eq!(server.stats().evicted_slow, 0);
        server.shutdown();
    }

    /// A 1 MiB `UploadChunk` arriving in pieces on one connection, small
    /// requests on another in between: both are answered correctly, and the
    /// upload commits and reads back intact.
    #[test]
    fn a_large_chunk_interleaved_with_small_requests_is_served_correctly() {
        let backend = test_backend(true);
        let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("start");
        let mut big = session(&backend, server.local_addr(), 31);
        let mut small = session(&backend, server.local_addr(), 32);

        let Response::Volumes { volumes } = big.call(Request::ListVolumes) else {
            panic!("volumes");
        };
        let root = volumes[0].volume;
        let resp = big.call(Request::MakeFile {
            volume: root,
            parent: u1_core::NodeId::new(0),
            name: "one-mib.bin".into(),
        });
        let Response::NodeCreated { node, .. } = resp else {
            panic!("make_file: {resp:?}");
        };
        let data: Vec<u8> = (0..1024 * 1024u32).map(|i| (i % 251) as u8).collect();
        let hash = u1_core::Sha1::digest(&data);
        let resp = big.call(Request::BeginUpload {
            volume: root,
            node,
            hash,
            size: data.len() as u64,
        });
        let Response::UploadBegun { upload, .. } = resp else {
            panic!("begin: {resp:?}");
        };

        // The chunk frame goes out in five pieces; between any two the
        // other connection gets a complete exchange.
        let (chunk_id, frame) = big.conn.upload_chunk(upload, &data).expect("encode");
        for piece in frame.chunks(frame.len() / 5 + 1) {
            big.stream.write_all(piece).expect("send piece");
            assert_eq!(small.call(Request::Ping), Response::Pong);
            assert!(matches!(
                small.call(Request::ListVolumes),
                Response::Volumes { .. }
            ));
        }
        let mut buf = [0u8; 4096];
        let n = big.stream.read(&mut buf).expect("chunk reply");
        assert_eq!(
            big.conn.on_bytes(&buf[..n]).expect("protocol"),
            vec![ClientEvent::Response {
                id: chunk_id,
                resp: Response::Ok
            }]
        );
        let done = big.call(Request::CommitUpload { upload });
        assert!(
            matches!(done, Response::UploadDone { hash: h, .. } if h == hash),
            "{done:?}"
        );

        // Read it back through the chunked download path.
        let (id, bytes) = big
            .conn
            .request(Request::GetContent { volume: root, node })
            .expect("encode");
        big.stream.write_all(&bytes).expect("send");
        let mut got = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        'stream: loop {
            let n = big.stream.read(&mut buf).expect("recv");
            assert!(n > 0, "server closed mid-download");
            for ev in big.conn.on_bytes(&buf[..n]).expect("protocol") {
                match ev {
                    ClientEvent::Response {
                        id: got_id,
                        resp: Response::ContentChunk { data },
                    } if got_id == id => got.extend_from_slice(&data),
                    ClientEvent::Response {
                        resp: Response::ContentEnd,
                        ..
                    } => break 'stream,
                    ClientEvent::Response {
                        resp: Response::ContentBegin { size, .. },
                        ..
                    } => assert_eq!(size, data.len() as u64),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(got == data, "downloaded bytes differ from the upload");
        let stats = server.stats();
        assert_eq!((stats.protocol_errors, stats.evicted_slow), (0, 0));
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_and_closes_connections() {
        let backend = test_backend(false);
        let server = TcpServer::start(backend, "127.0.0.1:0").expect("start");
        let mut c = TestClient::connect(server.local_addr());
        assert_eq!(c.call(Request::Ping), Response::Pong);
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "idle connections drain immediately, not at the deadline"
        );
        let mut buf = [0u8; 16];
        assert_eq!(c.stream.read(&mut buf).expect("drained close"), 0);
    }
}
