//! The calls at the edge of a session get one answer, whichever transport
//! carries them: both reach the back-end through `Backend::serve`, so a
//! call made before authenticating, a second authentication, a
//! content-less upload to a server that stores real bytes and a live
//! upload of more than one chunk end the same way in process and over TCP.
//! Each case runs on a fresh back-end through both transports, and the
//! outcomes are compared.

use std::sync::Arc;
use ubuntuone::auth::AuthConfig;
use ubuntuone::client::{DirectTransport, TcpTransport, Transport};
use ubuntuone::core::{
    ApiOpKind, ContentHash, CoreResult, NodeKind, RpcKind, Sha1, SimClock, UserId,
};
use ubuntuone::server::{Backend, BackendConfig, TcpServer};
use ubuntuone::trace::{MemorySink, Payload};

/// One case's outcome: `ok`, or the error kind.
fn kind<T>(r: CoreResult<T>) -> String {
    r.map_or_else(|e| e.code().to_string(), |_| "ok".into())
}

fn backend(store_real_bytes: bool) -> (Arc<Backend>, Arc<MemorySink>) {
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
        Arc::new(SimClock::new()),
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
