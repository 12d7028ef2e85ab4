//! Quickstart: bring up a real U1 back-end on a TCP socket, connect a
//! desktop client, upload a file, download it on a second device, and watch
//! that device get push-notified of an edit — the §3.2 workflow of the
//! paper, end to end, written as the protocol calls a client makes.
//!
//! Every download is checked against what was uploaded (bytes and SHA-1);
//! a mismatch exits non-zero.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use ubuntuone::auth::Token;
use ubuntuone::client::{TcpTransport, Transport};
use ubuntuone::core::{NodeKind, RealClock, Sha1, UserId, VolumeId};
use ubuntuone::proto::msg::{NodeInfo, Push};
use ubuntuone::server::{tcpserver::TcpServer, Backend, BackendConfig};
use ubuntuone::trace::MemorySink;

/// The Fig. 8 start-up: Authenticate → QuerySetCaps → ListVolumes →
/// ListShares, then GetDelta from generation 0 on the root volume. Returns
/// the root volume, its generation and the nodes the delta listed.
fn start_up(device: &mut impl Transport, token: Token) -> (VolumeId, u64, Vec<NodeInfo>) {
    device.authenticate(token).expect("authenticate");
    device
        .query_set_caps(&["volumes", "generations", "dedup"])
        .expect("query_set_caps");
    let root = device.list_volumes().expect("list_volumes")[0].volume;
    device.list_shares().expect("list_shares");
    let (generation, nodes) = device.get_delta(root, 0).expect("get_delta");
    (root, generation, nodes)
}

/// Downloads `file` and checks it is `expected`, byte for byte, under the
/// SHA-1 the delta declared.
fn download_and_check(
    device: &mut impl Transport,
    root: VolumeId,
    file: &NodeInfo,
    expected: &[u8],
) {
    let (size, hash, data) = device.download(root, file.node).expect("download");
    let data = data.expect("a real-bytes server returns content");
    let digest = Sha1::digest(&data);
    if data != expected || Some(hash) != file.hash || digest != hash {
        eprintln!(
            "{}: downloaded {size} bytes with sha1 {digest}, declared {hash}; expected {} bytes with sha1 {}",
            file.name,
            expected.len(),
            Sha1::digest(expected)
        );
        std::process::exit(1);
    }
}

fn main() {
    // 1. The back-end: metadata store (10 shards), object store, auth
    //    service, notification broker — all behind one TCP gateway.
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        BackendConfig {
            auth: ubuntuone::auth::AuthConfig {
                transient_failure_rate: 0.0, // keep the demo deterministic
                token_ttl: None,
            },
            store_real_bytes: true, // live mode: keep actual bytes
            ..Default::default()
        },
        Arc::new(RealClock::new()),
        sink.clone(),
    ));
    let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("bind");
    println!("U1 back-end listening on {}", server.local_addr());

    // 2. Provision an account (credentials -> OAuth token, §3.4.1).
    let token = backend.register_user(UserId::new(1));

    // 3. First device starts up and uploads a file: Make, then Upload of
    //    the hashed content (the server deduplicates on the SHA-1, §3.3).
    let mut device1 = TcpTransport::connect(server.local_addr()).expect("connect");
    let (root, _, _) = start_up(&mut device1, token);
    println!(
        "device1 session {:?}, root volume {root}",
        device1.session()
    );

    let content = b"the pool on the roof must have a leak".to_vec();
    let hash = Sha1::digest(&content);
    let notes = device1
        .make_node(root, None, NodeKind::File, "notes.txt")
        .expect("make_node");
    device1
        .upload(
            root,
            notes.node,
            hash,
            content.len() as u64,
            Some(content.clone()),
        )
        .expect("upload");
    println!(
        "device1 uploaded notes.txt ({} bytes, sha1 {})",
        content.len(),
        hash
    );

    // 4. Second device of the same user starts up: its GetDelta lists the
    //    file, and it downloads it.
    let mut device2 = TcpTransport::connect(server.local_addr()).expect("connect");
    let (_, mut known, nodes) = start_up(&mut device2, token);
    let listed = nodes
        .iter()
        .find(|n| n.name == "notes.txt")
        .expect("notes.txt in device2's delta");
    download_and_check(&mut device2, root, listed, &content);
    println!(
        "device2 downloaded notes.txt: node {}, {} bytes, sha1 matches",
        listed.node,
        content.len()
    );

    // 5. device1 edits the file — a full re-upload to the same node (no
    //    delta updates); device2 learns by push over its open TCP
    //    connection (§3.4.2), fetches the delta and downloads the new
    //    version. No polling of the server.
    let edited = b"the pool on the roof must have a leak -- fixed".to_vec();
    let new_hash = Sha1::digest(&edited);
    device1
        .upload(
            root,
            notes.node,
            new_hash,
            edited.len() as u64,
            Some(edited.clone()),
        )
        .expect("upload the edit");
    let mut pushes = 0;
    let mut synced = false;
    // Give the push a moment to traverse broker + TCP.
    for _ in 0..50 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        for push in device2.poll_pushes() {
            pushes += 1;
            let Push::VolumeChanged { volume, generation } = push else {
                continue;
            };
            if volume != root || generation <= known {
                continue;
            }
            let (generation, delta) = device2.get_delta(root, known).expect("get_delta");
            known = generation;
            for file in delta
                .iter()
                .filter(|n| n.node == notes.node && n.hash == Some(new_hash))
            {
                download_and_check(&mut device2, root, file, &edited);
                synced = true;
            }
        }
        if synced {
            break;
        }
    }
    assert!(synced, "device2 never received the edit");
    println!("device2 received push and downloaded the edit, sha1 matches ({pushes} pushes)");

    // 6. The whole exchange was traced in the paper's vocabulary.
    device1.close();
    device2.close();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let records = sink.take_sorted();
    println!("\ntrace: {} records; first few:", records.len());
    for rec in records.iter().take(8) {
        println!("  {}", ubuntuone::trace::csvline::to_line(rec));
    }
    server.shutdown();
    println!("\nquickstart complete ✔");
}
