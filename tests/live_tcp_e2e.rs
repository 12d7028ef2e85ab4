//! End-to-end integration over real TCP: the full client↔server protocol
//! stack, multi-device push sync, interrupted-connection behavior, and
//! abuse handling — the live-mode counterpart of the virtual-time
//! measurement pipeline. Each client step is a protocol call, and every
//! check is on what the server returned.

use std::net::SocketAddr;
use std::sync::Arc;
use ubuntuone::auth::{AuthConfig, Token};
use ubuntuone::client::{TcpTransport, Transport};
use ubuntuone::core::{NodeKind, RealClock, Sha1, UserId, VolumeId};
use ubuntuone::proto::msg::{NodeInfo, Push};
use ubuntuone::server::{tcpserver::TcpServer, Backend, BackendConfig};
use ubuntuone::trace::{MemorySink, Payload, SessionEvent};

fn live_backend() -> (Arc<Backend>, TcpServer, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        BackendConfig {
            auth: AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            store_real_bytes: true,
            ..Default::default()
        },
        Arc::new(RealClock::new()),
        sink.clone(),
    ));
    let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("bind");
    (backend, server, sink)
}

/// The Fig. 8 start-up: Authenticate → QuerySetCaps → ListVolumes →
/// ListShares → GetDelta from 0 on the root volume. Returns the device, its
/// root volume and that volume's generation.
fn start_up(addr: SocketAddr, token: Token) -> (TcpTransport, VolumeId, u64) {
    let mut device = TcpTransport::connect(addr).unwrap();
    device.authenticate(token).unwrap();
    device
        .query_set_caps(&["volumes", "generations", "dedup"])
        .unwrap();
    let root = device.list_volumes().unwrap()[0].volume;
    device.list_shares().unwrap();
    let (generation, _) = device.get_delta(root, 0).unwrap();
    (device, root, generation)
}

/// Answers `device`'s pushes as the desktop client does — a GetDelta from
/// `*known` for each `VolumeChanged` past it on `volume` — until a delta
/// row satisfies `wanted`. The push crosses broker + TCP asynchronously,
/// so this polls. Returns the row and the number of pushes seen.
fn await_delta(
    device: &mut TcpTransport,
    volume: VolumeId,
    known: &mut u64,
    wanted: impl Fn(&NodeInfo) -> bool,
) -> (NodeInfo, usize) {
    let mut pushes = 0;
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        for push in device.poll_pushes() {
            pushes += 1;
            let Push::VolumeChanged {
                volume: v,
                generation,
            } = push
            else {
                continue;
            };
            if v != volume || generation <= *known {
                continue;
            }
            let (generation, rows) = device.get_delta(volume, *known).unwrap();
            *known = generation;
            if let Some(row) = rows.into_iter().find(|r| wanted(r)) {
                return (row, pushes);
            }
        }
    }
    panic!("no wanted delta row after {pushes} pushes");
}

#[test]
fn upload_download_round_trip_preserves_bytes() {
    let (backend, server, _sink) = live_backend();
    let token = backend.register_user(UserId::new(1));
    let mut t = TcpTransport::connect(server.local_addr()).unwrap();
    t.authenticate(token).unwrap();
    let vols = t.list_volumes().unwrap();
    let root = vols[0].volume;

    // 3MB of structured data — spans multiple wire chunks.
    let data: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
    let hash = Sha1::digest(&data);
    let node = t.make_node(root, None, NodeKind::File, "big.bin").unwrap();
    let up = t
        .upload(root, node.node, hash, data.len() as u64, Some(data.clone()))
        .unwrap();
    assert!(!up.deduplicated);
    assert_eq!(up.bytes_sent, data.len() as u64);

    let (size, got_hash, got_data) = t.download(root, node.node).unwrap();
    assert_eq!(size, data.len() as u64);
    assert_eq!(got_hash, hash);
    assert_eq!(got_data.unwrap(), data, "bytes survive the full stack");
    t.close();
    server.shutdown();
}

#[test]
fn cross_user_dedup_over_tcp() {
    let (backend, server, _sink) = live_backend();
    let t1 = backend.register_user(UserId::new(1));
    let t2 = backend.register_user(UserId::new(2));
    let data = vec![42u8; 500_000];
    let hash = Sha1::digest(&data);

    let mut alice = TcpTransport::connect(server.local_addr()).unwrap();
    alice.authenticate(t1).unwrap();
    let av = alice.list_volumes().unwrap()[0].volume;
    let an = alice
        .make_node(av, None, NodeKind::File, "song.mp3")
        .unwrap();
    let up = alice
        .upload(av, an.node, hash, data.len() as u64, Some(data.clone()))
        .unwrap();
    assert!(!up.deduplicated);

    let mut bob = TcpTransport::connect(server.local_addr()).unwrap();
    bob.authenticate(t2).unwrap();
    let bv = bob.list_volumes().unwrap()[0].volume;
    let bn = bob.make_node(bv, None, NodeKind::File, "same.mp3").unwrap();
    let up = bob
        .upload(bv, bn.node, hash, data.len() as u64, Some(data))
        .unwrap();
    assert!(up.deduplicated, "second copy dedups server-side");
    assert_eq!(up.bytes_sent, 0);
    assert_eq!(backend.blobs.stats().objects, 1);
    server.shutdown();
}

#[test]
fn second_device_receives_push_over_tcp() {
    let (backend, server, _sink) = live_backend();
    let token = backend.register_user(UserId::new(7));
    let (mut dev1, root, _) = start_up(server.local_addr(), token);
    let (mut dev2, _, mut known) = start_up(server.local_addr(), token);

    let content = b"push me".to_vec();
    let hash = Sha1::digest(&content);
    let node = dev1
        .make_node(root, None, NodeKind::File, "pushed.txt")
        .unwrap();
    dev1.upload(
        root,
        node.node,
        hash,
        content.len() as u64,
        Some(content.clone()),
    )
    .unwrap();

    let (row, pushes) = await_delta(&mut dev2, root, &mut known, |r| {
        r.name == "pushed.txt" && r.hash.is_some()
    });
    assert!(pushes >= 1);
    assert_eq!((row.node, row.hash), (node.node, Some(hash)));
    let (size, got_hash, data) = dev2.download(root, row.node).unwrap();
    let data = data.expect("a real-bytes server returns content");
    assert_eq!((size, got_hash), (content.len() as u64, hash));
    assert_eq!(data, content, "device 2 gets device 1's bytes");
    assert_eq!(
        Sha1::digest(&data),
        hash,
        "and they hash to the declared SHA-1"
    );
    server.shutdown();
}

#[test]
fn unlink_reaches_second_device_as_push_and_tombstone() {
    let (backend, server, _sink) = live_backend();
    let token = backend.register_user(UserId::new(8));
    let (mut dev1, root, _) = start_up(server.local_addr(), token);
    let (mut dev2, _, mut known) = start_up(server.local_addr(), token);

    let content = b"short-lived".to_vec();
    let node = dev1
        .make_node(root, None, NodeKind::File, "temp.bin")
        .unwrap();
    dev1.upload(
        root,
        node.node,
        Sha1::digest(&content),
        content.len() as u64,
        Some(content),
    )
    .unwrap();
    await_delta(&mut dev2, root, &mut known, |r| {
        r.node == node.node && r.hash.is_some()
    });

    dev1.unlink(root, node.node).unwrap();
    let (row, pushes) = await_delta(&mut dev2, root, &mut known, |r| r.node == node.node);
    assert!(pushes >= 1, "the unlink is pushed");
    assert!(row.is_dead, "the delta carries a tombstone: {row:?}");
    let (_, rows) = dev2.get_delta(root, 0).unwrap();
    assert!(
        rows.iter().all(|r| r.node != node.node || r.is_dead),
        "no live row for the unlinked file"
    );
    server.shutdown();
}

#[test]
fn upload_without_content_is_refused_by_a_real_bytes_server() {
    let (backend, server, _sink) = live_backend();
    let token = backend.register_user(UserId::new(5));
    let mut t = TcpTransport::connect(server.local_addr()).unwrap();
    t.authenticate(token).unwrap();
    let root = t.list_volumes().unwrap()[0].volume;
    let node = t
        .make_node(root, None, NodeKind::File, "claimed.bin")
        .unwrap();
    // A size and a hash but no bytes: the sizes-only upload of the
    // measurement path, which a server keeping real content must refuse
    // rather than store anything under that hash.
    let claimed = b"bytes the caller never sends";
    let result = t.upload(
        root,
        node.node,
        Sha1::digest(claimed),
        claimed.len() as u64,
        None,
    );
    assert!(
        result.is_err(),
        "upload without content succeeded: {result:?}"
    );
    assert_eq!(backend.blobs.stats().objects, 0, "no object stored");
    t.close();
    server.shutdown();
}

#[test]
fn dropped_connection_is_reaped_and_its_node_takes_a_fresh_upload() {
    let (backend, server, sink) = live_backend();
    let token = backend.register_user(UserId::new(3));

    // A device makes a file and its connection drops before any upload
    // (the NAT-cut behavior behind the paper's 32%-under-1s sessions): no
    // Bye, the socket just closes.
    {
        let mut t = TcpTransport::connect(server.local_addr()).unwrap();
        t.authenticate(token).unwrap();
        let root = t.list_volumes().unwrap()[0].volume;
        let _node = t.make_node(root, None, NodeKind::File, "half.bin").unwrap();
    }
    // Server notices EOF and closes the session.
    let mut closed = false;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        if backend.sessions.live_count() == 0 {
            closed = true;
            break;
        }
    }
    assert!(closed, "server must reap the dead session");

    // Reconnect: same token, fresh session; the file node is still there
    // and an upload to it completes.
    let mut t = TcpTransport::connect(server.local_addr()).unwrap();
    t.authenticate(token).unwrap();
    let root = t.list_volumes().unwrap()[0].volume;
    let (_, nodes) = t.rescan_from_scratch(root).unwrap();
    let node = nodes
        .iter()
        .find(|n| n.name == "half.bin")
        .expect("node survived");
    let data = vec![9u8; 100_000];
    let hash = Sha1::digest(&data);
    let up = t
        .upload(root, node.node, hash, data.len() as u64, Some(data))
        .unwrap();
    assert!(!up.deduplicated);
    t.close();
    server.shutdown();

    std::thread::sleep(std::time::Duration::from_millis(50));
    // The trace saw both sessions open and close.
    let records = sink.take_sorted();
    let opens = records
        .iter()
        .filter(|r| {
            matches!(
                r.payload,
                Payload::Session {
                    event: SessionEvent::Open,
                    ..
                }
            )
        })
        .count();
    assert!(opens >= 2, "two sessions traced, got {opens}");
}

#[test]
fn banned_user_cannot_reconnect() {
    let (backend, server, _sink) = live_backend();
    let token = backend.register_user(UserId::new(66));
    let mut t = TcpTransport::connect(server.local_addr()).unwrap();
    t.authenticate(token).unwrap();
    backend.ban_user(UserId::new(66));

    let mut t2 = TcpTransport::connect(server.local_addr()).unwrap();
    assert!(t2.authenticate(token).is_err(), "token revoked after ban");
    server.shutdown();
}

#[test]
fn unauthenticated_requests_are_refused() {
    let (_backend, server, _sink) = live_backend();
    let mut t = TcpTransport::connect(server.local_addr()).unwrap();
    // No authenticate: data ops must be rejected.
    assert!(t.list_volumes().is_err());
    server.shutdown();
}
