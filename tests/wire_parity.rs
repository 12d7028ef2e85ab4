//! The wire-tier parity contract: one scripted, lockstep conversation run
//! through the in-process [`DirectTransport`] and again over real TCP
//! sockets (epoll reactor, frame codec, send queues) must produce the same
//! per-call transcript and the **byte-identical** back-end trace, at a
//! pinned SHA.
//!
//! The script is lockstep: one thread, one request in flight globally, the
//! shared virtual clock set before every call, the calls of four sessions
//! interleaved. It issues every [`Transport`] method at least once and
//! states the outcome it expects of each call — including the calls that
//! must fail — so any divergence (a reordered RPC, an extra session-table
//! touch, a different part schedule, a lost error kind) is either a failed
//! expectation, a transcript mismatch or a hash mismatch.

use std::fmt::Debug;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ubuntuone::auth::{AuthConfig, Token};
use ubuntuone::client::{DirectTransport, TcpTransport, Transport};
use ubuntuone::core::{
    ContentHash, CoreResult, NodeKind, SimClock, SimDuration, SimTime, UserId, VolumeKind,
};
use ubuntuone::proto::msg::Push;
use ubuntuone::server::{Backend, BackendConfig, TcpServer};
use ubuntuone::trace::{canonical_sha, MemorySink};

/// Canonical trace SHA-1 of the script below. Both runs must land exactly
/// here; re-pin only when the script or the back-end's trace deliberately
/// changes.
const GOLDEN_SCRIPT_SHA: &str = "2c0ed60f7fb4f701ecb34cc9710b002989eb764f";

/// Fault-free measurement-mode backend under a shared virtual clock.
fn measurement_backend(clock: Arc<SimClock>) -> (Arc<Backend>, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        BackendConfig {
            auth: AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            ..Default::default()
        },
        clock,
        sink.clone(),
    ));
    (backend, sink)
}

/// The lockstep bookkeeping: advances the clock before every call, checks
/// the call's outcome against what the script expects and writes it down.
struct Script<'a> {
    clock: &'a SimClock,
    now: SimTime,
    transcript: Vec<String>,
}

impl Script<'_> {
    fn tick(&mut self) {
        // Uneven steps, so records of different calls never share an instant
        // by construction of the script rather than by luck.
        let step = 1_000 + 137 * self.transcript.len() as u64;
        self.now += SimDuration::from_micros(step);
        self.clock.set(self.now);
    }

    /// A call that must succeed; its result goes into the transcript.
    fn ok<T: Debug>(&mut self, label: &str, call: impl FnOnce() -> CoreResult<T>) -> T {
        self.tick();
        match call() {
            Ok(v) => {
                self.transcript.push(format!("{label} -> {v:?}"));
                v
            }
            Err(e) => panic!("{label}: expected success, got {e}"),
        }
    }

    /// A call that must fail with error kind `code`.
    fn err<T: Debug>(&mut self, label: &str, code: &str, call: impl FnOnce() -> CoreResult<T>) {
        self.tick();
        match call() {
            Ok(v) => panic!("{label}: expected {code}, got {v:?}"),
            Err(e) => {
                assert_eq!(e.code(), code, "{label}: {e}");
                self.transcript.push(format!("{label} -> err {code}"));
            }
        }
    }
}

/// Polls until the first push arrives (wire delivery is asynchronous: the
/// reactor forwards pushes on its own pass).
fn await_push(t: &mut impl Transport) -> Push {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(push) = t.poll_pushes().into_iter().next() {
            return push;
        }
        assert!(Instant::now() < deadline, "push never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The conversation: users 1–3, user 1 on two devices.
fn run_script<T: Transport>(
    clock: &SimClock,
    backend: &Backend,
    tokens: &[Token],
    mut connect: impl FnMut() -> T,
) -> Vec<String> {
    let mut s = Script {
        clock,
        now: SimTime::ZERO,
        transcript: Vec::new(),
    };
    let (alice, bob) = (UserId::new(1), UserId::new(2));
    let (mut a1, mut a2, mut b, mut c) = (connect(), connect(), connect(), connect());
    let small = ContentHash::from_content_id(1);
    let big = ContentHash::from_content_id(2);
    let edited = ContentHash::from_content_id(3);
    const BIG_SIZE: u64 = 12 * 1024 * 1024 + 123; // three 5MB parts

    // Fig. 8 start-up, four sessions interleaved.
    let (a1_sid, user) = s.ok("a1.authenticate", || a1.authenticate(tokens[0]));
    assert_eq!((a1.session(), user), (Some(a1_sid), alice));
    s.ok("b.authenticate", || b.authenticate(tokens[1]));
    s.ok("a1.query_set_caps", || a1.query_set_caps(&["generations"]));
    s.ok("a2.authenticate", || a2.authenticate(tokens[0]));
    let b_root = s.ok("b.list_volumes", || b.list_volumes())[0].volume;
    let a_root = s.ok("a1.list_volumes", || a1.list_volumes())[0].volume;
    s.ok("c.authenticate", || c.authenticate(tokens[2]));
    let c_root = s.ok("c.list_volumes", || c.list_volumes())[0].volume;
    let (gen0, delta) = s.ok("a1.get_delta(0)", || a1.get_delta(a_root, 0));
    assert!(gen0 == 0 && delta.is_empty(), "fresh root volume");

    // A UDF, shared to user 3 (sharing is provisioned out of band).
    let udf = s.ok("b.create_udf", || {
        b.create_udf("Shared")
            .map(|v| (v.volume, v.kind, v.generation))
    });
    assert_eq!(udf.1, VolumeKind::UserDefined);
    let udf = udf.0;
    s.ok("create_share", || {
        backend.create_share(bob, udf, UserId::new(3))
    });
    let shares = s.ok("c.list_shares", || c.list_shares());
    assert_eq!(shares.len(), 1);
    assert_eq!((shares[0].volume, shares[0].owner), (udf, Some(bob)));
    assert_eq!(s.ok("c.list_volumes+share", || c.list_volumes()).len(), 2);

    // Namespace work; user 1's second device hears about it by push.
    let made = |r: CoreResult<ubuntuone::proto::msg::NodeInfo>| r.map(|n| (n.node, n.generation));
    let docs = s.ok("a1.make_dir", || {
        made(a1.make_node(a_root, None, NodeKind::Directory, "docs"))
    });
    let push = await_push(&mut a2);
    assert!(
        matches!(push, Push::VolumeChanged { volume, generation } if volume == a_root && generation == docs.1),
        "{push:?}"
    );
    let note = s.ok("a1.make_file", || {
        made(a1.make_node(a_root, Some(docs.0), NodeKind::File, "note.txt"))
    });
    let iso = s.ok("b.make_file", || {
        made(b.make_node(udf, None, NodeKind::File, "disk.iso"))
    });
    let copy = s.ok("c.make_file", || {
        made(c.make_node(c_root, None, NodeKind::File, "copy.txt"))
    });
    let empty = s.ok("b.make_file(empty)", || {
        made(b.make_node(b_root, None, NodeKind::File, "empty.bin"))
    });

    // Transfers: one part, three sparse parts, a cross-user dedup hit, and
    // new content over an existing file.
    let sent =
        |r: CoreResult<ubuntuone::client::UploadResult>| r.map(|u| (u.deduplicated, u.bytes_sent));
    let up = s.ok("a1.upload(one part)", || {
        sent(a1.upload(a_root, note.0, small, 4096, None))
    });
    assert_eq!(up, (false, 4096));
    let up = s.ok("b.upload(three parts)", || {
        sent(b.upload(udf, iso.0, big, BIG_SIZE, None))
    });
    assert_eq!(up, (false, BIG_SIZE));
    let up = s.ok("c.upload(dedup)", || {
        sent(c.upload(c_root, copy.0, small, 4096, None))
    });
    assert_eq!(up, (true, 0), "the server already has this content");
    let up = s.ok("a1.upload(rewrite)", || {
        sent(a1.upload(a_root, note.0, edited, 9000, None))
    });
    assert_eq!(up, (false, 9000));
    let got = s.ok("a2.download", || a2.download(a_root, note.0));
    assert_eq!(got, (9000, edited, None), "sizes only in measurement mode");
    let got = s.ok("c.download", || c.download(c_root, copy.0));
    assert_eq!((got.0, got.1), (4096, small));
    s.err("b.download(no content)", "invalid", || {
        b.download(b_root, empty.0)
    });

    // Generation points: from 0, from head, and the full rescan.
    s.ok("a1.move", || {
        a1.move_node(a_root, note.0, None, "renamed.txt")
    });
    let (head, delta) = s.ok("a2.get_delta(0)", || a2.get_delta(a_root, 0));
    assert_eq!(delta.len(), 2, "{delta:?}");
    let (again, delta) = s.ok("a2.get_delta(head)", || a2.get_delta(a_root, head));
    assert!(again == head && delta.is_empty(), "nothing since head");
    let (_, nodes) = s.ok("a2.rescan", || a2.rescan_from_scratch(a_root));
    assert_eq!(nodes.len(), 2);

    // Deletions, and what they leave unreachable.
    s.ok("a1.unlink", || a1.unlink(a_root, note.0));
    s.err("a1.unlink(again)", "not_found", || {
        a1.unlink(a_root, note.0)
    });
    s.err("a2.download(unlinked)", "not_found", || {
        a2.download(a_root, note.0)
    });
    s.ok("b.delete_volume", || b.delete_volume(udf));
    s.err("b.make_file(deleted volume)", "not_found", || {
        made(b.make_node(udf, None, NodeKind::File, "late.txt"))
    });
    assert!(s.ok("c.list_shares(after)", || c.list_shares()).is_empty());

    // Goodbyes, interleaved; pushes still queued are the transports' own.
    for (label, t) in [
        ("c", &mut c),
        ("a1", &mut a1),
        ("b", &mut b),
        ("a2", &mut a2),
    ] {
        t.poll_pushes();
        s.tick();
        t.close();
        assert_eq!(t.session(), None);
        s.transcript.push(format!("{label}.close"));
    }
    s.transcript
}

fn register(backend: &Backend) -> Vec<Token> {
    (1..=3)
        .map(|u| backend.register_user(UserId::new(u)))
        .collect()
}

fn run_direct() -> (Vec<String>, String) {
    let clock = Arc::new(SimClock::new());
    let (backend, sink) = measurement_backend(clock.clone());
    let tokens = register(&backend);
    let transcript = run_script(&clock, &backend, &tokens, || {
        DirectTransport::new(Arc::clone(&backend))
    });
    (transcript, canonical_sha(&sink.take_sorted()))
}

fn run_wire() -> (Vec<String>, String) {
    let clock = Arc::new(SimClock::new());
    let (backend, sink) = measurement_backend(clock.clone());
    let tokens = register(&backend);
    let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("bind reactor");
    let addr = server.local_addr();
    let transcript = run_script(&clock, &backend, &tokens, || {
        TcpTransport::connect(addr).expect("loopback connect")
    });
    server.shutdown();
    (transcript, canonical_sha(&sink.take_sorted()))
}

#[test]
fn wire_reproduces_in_process_transcript_and_trace() {
    let (direct_transcript, direct_hash) = run_direct();
    let (wire_transcript, wire_hash) = run_wire();
    assert_eq!(
        direct_transcript, wire_transcript,
        "a call's outcome differs between the transports"
    );
    assert_eq!(
        direct_hash, wire_hash,
        "canonical traces diverged between in-process and wire transports"
    );
    assert_eq!(
        direct_hash, GOLDEN_SCRIPT_SHA,
        "golden script trace moved — re-pin only for deliberate changes"
    );
}
