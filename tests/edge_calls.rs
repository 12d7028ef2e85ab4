//! The calls at the edge of a session get one answer, whichever transport
//! carries them: both reach the back-end through `Backend::serve`, so a
//! call made before authenticating, a second authentication, a
//! content-less upload to a server that stores real bytes, a live upload
//! of more than one chunk, an empty file and an upload resumed in a later
//! session end the same way in process and over TCP. Each case runs on a
//! fresh back-end through both links, and the outcomes are compared.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use ubuntuone::auth::AuthConfig;
use ubuntuone::blobstore::PART_SIZE;
use ubuntuone::client::{DirectTransport, TcpTransport, Transport};
use ubuntuone::core::{
    ApiOpKind, ContentHash, CoreResult, NodeId, NodeKind, RpcKind, Sha1, SimClock, SimTime,
    UploadId, UserId,
};
use ubuntuone::proto::conn::{ClientConn, ClientEvent};
use ubuntuone::proto::msg::{Request, Response};
use ubuntuone::server::api::{Served, SessionState};
use ubuntuone::server::{Backend, BackendConfig, TcpServer};
use ubuntuone::trace::{canonical_sha, MemorySink, Payload, SessionEvent};

/// One case's outcome: `ok`, or the error kind.
fn kind<T>(r: CoreResult<T>) -> String {
    r.map_or_else(|e| e.code().to_string(), |_| "ok".into())
}

fn backend(store_real_bytes: bool) -> (Arc<Backend>, Arc<MemorySink>) {
    backend_on(store_real_bytes, Arc::new(SimClock::new()))
}

fn backend_on(store_real_bytes: bool, clock: Arc<SimClock>) -> (Arc<Backend>, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        BackendConfig {
            auth: AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            store_real_bytes,
            ..Default::default()
        },
        clock,
        sink.clone(),
    ));
    (backend, sink)
}

/// Runs `case` against a fresh back-end, once per transport, and returns
/// the two outcomes: in process, then over TCP.
fn both(
    store_real_bytes: bool,
    case: impl Fn(&mut dyn Transport, &Backend, &MemorySink) -> Vec<String>,
) -> (Vec<String>, Vec<String>) {
    let direct = {
        let (backend, sink) = backend(store_real_bytes);
        let mut t = DirectTransport::new(Arc::clone(&backend));
        case(&mut t, &backend, &sink)
    };
    let wire = {
        let (backend, sink) = backend(store_real_bytes);
        let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("bind");
        let mut t = TcpTransport::connect(server.local_addr()).expect("connect");
        let outcome = case(&mut t, &backend, &sink);
        server.shutdown();
        outcome
    };
    (direct, wire)
}

#[test]
fn a_data_call_before_authenticating_is_denied() {
    let (direct, wire) = both(false, |t, _, _| vec![kind(t.list_volumes())]);
    assert_eq!(direct, ["denied"]);
    assert_eq!(direct, wire);
}

/// An error reaches the client as the value the back-end returned, text
/// included, and not only as the same kind.
#[test]
fn an_error_is_the_same_value_on_both_links() {
    fn error<T>(r: CoreResult<T>) -> String {
        r.map_or_else(|e| format!("{e:?}"), |_| "ok".into())
    }
    let (direct, wire) = both(false, |t, _, _| vec![error(t.list_volumes())]);
    assert_eq!(direct, [r#"PermissionDenied("authenticate first")"#]);
    assert_eq!(direct, wire);
    let (direct, wire) = both(false, |t, backend, _| {
        let token = backend.register_user(UserId::new(1));
        t.authenticate(token).expect("authenticate");
        let root = t.list_volumes().expect("volumes")[0].volume;
        let missing = error(t.unlink(root, NodeId::new(999)));
        t.close();
        vec![missing]
    });
    assert_eq!(direct, [r#"NotFound("node n999")"#]);
    assert_eq!(direct, wire);
}

#[test]
fn caps_before_authenticating_are_accepted_and_not_traced() {
    let (direct, wire) = both(false, |t, backend, sink| {
        let token = backend.register_user(UserId::new(1));
        let caps = kind(t.query_set_caps(&["generations"]));
        let traced = sink
            .take_sorted()
            .iter()
            .any(|r| matches!(r.payload.storage(), Some(s) if s.op == ApiOpKind::QuerySetCaps));
        let auth = kind(t.authenticate(token));
        t.close();
        vec![caps, format!("traced: {traced}"), auth]
    });
    assert_eq!(direct, ["ok", "traced: false", "ok"]);
    assert_eq!(direct, wire);
}

#[test]
fn a_second_authentication_conflicts_and_keeps_the_first_session() {
    let (direct, wire) = both(false, |t, backend, _| {
        let token = backend.register_user(UserId::new(1));
        let (first, _) = t.authenticate(token).expect("first authentication");
        let again = kind(t.authenticate(token));
        let kept = t.session() == Some(first) && backend.sessions.live_count() == 1;
        let usable = kind(t.list_volumes());
        t.close();
        let closed = backend.sessions.live_count() == 0;
        vec![
            again,
            format!("first kept: {kept}"),
            usable,
            format!("closed: {closed}"),
        ]
    });
    assert_eq!(
        direct,
        ["conflict", "first kept: true", "ok", "closed: true"]
    );
    assert_eq!(direct, wire);
}

#[test]
fn a_sparse_upload_to_a_real_bytes_server_is_refused() {
    let (direct, wire) = both(true, |t, backend, _| {
        let token = backend.register_user(UserId::new(1));
        t.authenticate(token).expect("authenticate");
        let root = t.list_volumes().expect("volumes")[0].volume;
        let node = t
            .make_node(root, None, NodeKind::File, "f.bin")
            .expect("make")
            .node;
        let upload = kind(t.upload(root, node, ContentHash::from_content_id(1), 64, None));
        let stored = backend.blobs.stats().objects;
        t.close();
        vec![upload, format!("objects: {stored}")]
    });
    assert_eq!(direct, ["invalid", "objects: 0"]);
    assert_eq!(direct, wire);
}

/// Real bytes, one byte more than an S3 part: both links cut them into the
/// same 1 MiB chunks (one upload-job part each), and the download hands
/// them back whole.
#[test]
fn a_live_upload_is_chunked_alike_and_round_trips() {
    let data: Vec<u8> = (0..=ubuntuone::blobstore::PART_SIZE)
        .map(|i| (i % 251) as u8)
        .collect();
    let (direct, wire) = both(true, |t, backend, sink| {
        let token = backend.register_user(UserId::new(1));
        t.authenticate(token).expect("authenticate");
        let root = t.list_volumes().expect("volumes")[0].volume;
        let node = t
            .make_node(root, None, NodeKind::File, "six-chunks.bin")
            .expect("make")
            .node;
        let hash = Sha1::digest(&data);
        let up = t
            .upload(root, node, hash, data.len() as u64, Some(data.clone()))
            .expect("upload");
        let parts = sink
            .take_sorted()
            .iter()
            .filter(|r| {
                matches!(
                    r.payload,
                    Payload::Rpc {
                        rpc: RpcKind::AddPartToUploadJob,
                        ..
                    }
                )
            })
            .count();
        let (size, got_hash, got) = t.download(root, node).expect("download");
        t.close();
        vec![
            format!("{up:?}, parts: {parts}"),
            format!("size {size}, hash kept: {}", got_hash == hash),
            format!("bytes kept: {}", got.as_deref() == Some(&data[..])),
        ]
    });
    assert_eq!(
        direct,
        [
            format!(
                "UploadResult {{ deduplicated: false, bytes_sent: {} }}, parts: 6",
                data.len()
            ),
            format!("size {}, hash kept: true", data.len()),
            "bytes kept: true".to_string(),
        ]
    );
    assert_eq!(direct, wire);
}

/// An empty file with real bytes travels as one one-byte chunk, and the
/// back-end keeps none of it: the download hands back no bytes.
#[test]
fn an_empty_file_downloads_as_no_bytes() {
    let (direct, wire) = both(true, |t, backend, _| {
        let token = backend.register_user(UserId::new(1));
        t.authenticate(token).expect("authenticate");
        let root = t.list_volumes().expect("volumes")[0].volume;
        let node = t
            .make_node(root, None, NodeKind::File, "empty.txt")
            .expect("make")
            .node;
        let hash = Sha1::digest(b"");
        let up = kind(t.upload(root, node, hash, 0, Some(Vec::new())));
        let got = t.download(root, node).expect("download");
        t.close();
        vec![up, format!("{got:?}")]
    });
    let want = format!("(0, {:?}, Some([]))", Sha1::digest(b""));
    assert_eq!(direct, ["ok".to_string(), want]);
    assert_eq!(direct, wire);
}

/// Raw request frames: `serve` in process, or one TCP connection.
enum Link {
    Direct(Arc<Backend>, SessionState),
    Wire(TcpStream, ClientConn),
}

impl Link {
    /// One request's response, or the error's wire code.
    fn call(&mut self, req: Request) -> Result<Response, String> {
        let resp = match self {
            Link::Direct(backend, state) => match backend.serve(state, req) {
                Ok(Served::Response(resp)) => resp,
                Ok(content) => panic!("{content:?}"),
                Err(e) => return Err(e.code().to_string()),
            },
            Link::Wire(stream, conn) => {
                let (id, frame) = conn.request(req).expect("encode");
                stream.write_all(&frame).expect("send");
                let mut buf = [0u8; 4096];
                'read: loop {
                    let n = stream.read(&mut buf).expect("recv");
                    assert!(n > 0, "server closed mid-call");
                    for ev in conn.on_bytes(&buf[..n]).expect("protocol") {
                        if let ClientEvent::Response { id: got, resp } = ev {
                            assert_eq!(got, id);
                            break 'read resp;
                        }
                    }
                }
            }
        };
        match resp {
            Response::Error { code, .. } => Err(code),
            resp => Ok(resp),
        }
    }
}

/// Raw links to one back-end, and every answer they got.
struct Script {
    backend: Arc<Backend>,
    server: Option<TcpServer>,
    answers: Vec<String>,
}

impl Script {
    /// A new connection over TCP when the script has a server, else a new
    /// in-process session.
    fn connect(&self) -> Link {
        match &self.server {
            Some(server) => {
                let stream = TcpStream::connect(server.local_addr()).expect("connect");
                Link::Wire(stream, ClientConn::new())
            }
            None => Link::Direct(Arc::clone(&self.backend), SessionState::new(false)),
        }
    }

    fn call(&mut self, link: &mut Link, req: Request) -> Result<Response, String> {
        let answer = link.call(req);
        self.answers.push(format!("{answer:?}"));
        answer
    }

    /// Authenticates `link` as user 1, makes a file in its root and sends
    /// the first of its upload's two parts.
    fn start(&mut self, link: &mut Link, name: &str) -> UploadId {
        let token = self.backend.register_user(UserId::new(1));
        let auth = Request::Authenticate {
            token: token.as_bytes().to_vec(),
        };
        self.call(link, auth).expect("authenticate");
        let root = self.backend.store.get_root(UserId::new(1)).expect("root");
        let make = Request::MakeFile {
            volume: root.volume,
            parent: NodeId::new(0),
            name: name.into(),
        };
        let Ok(Response::NodeCreated { node, .. }) = self.call(link, make) else {
            panic!("make {name}");
        };
        let begin = Request::BeginUpload {
            volume: root.volume,
            node,
            hash: ContentHash::from_content_id(node.raw()),
            size: PART_SIZE + 5,
        };
        let Ok(Response::UploadBegun { upload, .. }) = self.call(link, begin) else {
            panic!("begin {name}");
        };
        let part = Request::UploadChunkSparse {
            upload,
            len: PART_SIZE,
        };
        self.call(link, part).expect("first part");
        upload
    }
}

/// §3.2 with an interruption: begin, one sparse part, goodbye; a new
/// session resumes the job from the part it holds and commits it. A job
/// the weekly GC reaped has nothing left to resume.
#[test]
fn an_upload_resumes_in_a_later_session_alike_on_both_links() {
    let run = |wire: bool| {
        let clock = Arc::new(SimClock::new());
        let (backend, sink) = backend_on(false, Arc::clone(&clock));
        let server =
            wire.then(|| TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("bind"));
        let mut s = Script {
            backend: Arc::clone(&backend),
            server,
            answers: Vec::new(),
        };
        let mut first = s.connect();
        let upload = s.start(&mut first, "film.avi");
        s.call(&mut first, Request::Bye).expect("bye");
        let mut second = s.connect();
        let token = backend.register_user(UserId::new(1)).as_bytes().to_vec();
        s.call(&mut second, Request::Authenticate { token })
            .expect("authenticate again");
        let resumed = s.call(&mut second, Request::ResumeUpload { upload });
        let offset = PART_SIZE;
        assert_eq!(resumed, Ok(Response::UploadBegun { upload, offset }));
        s.call(&mut second, Request::UploadChunkSparse { upload, len: 5 })
            .expect("last part");
        s.call(&mut second, Request::CommitUpload { upload })
            .expect("commit");
        s.call(&mut second, Request::Bye).expect("bye");

        let mut third = s.connect();
        let upload = s.start(&mut third, "disk.iso");
        clock.set(SimTime::from_days(8));
        assert_eq!(backend.run_maintenance(), 1, "the GC reaps the job");
        let reaped = s.call(&mut third, Request::ResumeUpload { upload });
        assert_eq!(reaped, Err("not_found".to_string()));
        s.call(&mut third, Request::Bye).expect("bye");
        drop((first, second, third));
        if let Some(server) = s.server.take() {
            server.shutdown();
        }
        (s.answers, canonical_sha(&sink.take_sorted()))
    };
    assert_eq!(run(false), run(true));
}

/// A session that `ban_user` evicted stays in its client's hands: its next
/// request answers `not_found` for the session, the same value on both
/// links, and traces nothing; its goodbye adds no second `Close`.
#[test]
fn an_evicted_session_answers_not_found_and_closes_once() {
    let run = |wire: bool| {
        let (backend, sink) = backend(false);
        let server =
            wire.then(|| TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("bind"));
        let mut t: Box<dyn Transport> = match &server {
            Some(server) => Box::new(TcpTransport::connect(server.local_addr()).expect("connect")),
            None => Box::new(DirectTransport::new(Arc::clone(&backend))),
        };
        let token = backend.register_user(UserId::new(1));
        t.authenticate(token).expect("authenticate");
        assert_eq!(backend.ban_user(UserId::new(1)), 1);
        let mut records = sink.take_sorted();
        let answer = t
            .list_volumes()
            .map_or_else(|e| format!("{e:?}"), |_| "ok".into());
        let traced = sink.take_sorted().len();
        t.close();
        if let Some(server) = server {
            server.shutdown();
        }
        records.extend(sink.take_sorted());
        let closes = records
            .iter()
            .filter(|r| {
                matches!(
                    r.payload,
                    Payload::Session {
                        event: SessionEvent::Close,
                        ..
                    }
                )
            })
            .count();
        vec![
            answer,
            format!("traced: {traced}"),
            format!("closes: {closes}"),
        ]
    };
    let direct = run(false);
    assert_eq!(
        direct,
        [r#"NotFound("session s1")"#, "traced: 0", "closes: 1"]
    );
    assert_eq!(direct, run(true));
}
