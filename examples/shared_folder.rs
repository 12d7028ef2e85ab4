//! Shared-folder collaboration (§3.2's synchronization workflow): Alice
//! shares a folder with Bob; changes propagate by push across API
//! processes; Bob's deletion syncs back to Alice; identical
//! content between the two users is deduplicated server-side. Each client
//! step is the protocol call the desktop client makes.
//!
//! ```text
//! cargo run --example shared_folder
//! ```

use std::sync::Arc;
use ubuntuone::auth::Token;
use ubuntuone::client::{DirectTransport, Transport};
use ubuntuone::core::{ContentHash, NodeKind, SimClock, UserId, VolumeId};
use ubuntuone::proto::msg::{NodeInfo, Push};
use ubuntuone::server::{Backend, BackendConfig};
use ubuntuone::trace::MemorySink;

/// The Fig. 8 start-up: Authenticate → QuerySetCaps → ListVolumes →
/// ListShares, then GetDelta from generation 0 on the root volume.
/// Returns the root volume.
fn start_up(device: &mut impl Transport, token: Token) -> VolumeId {
    device.authenticate(token).expect("authenticate");
    device
        .query_set_caps(&["volumes", "generations", "dedup"])
        .expect("query_set_caps");
    let root = device.list_volumes().expect("list_volumes")[0].volume;
    device.list_shares().expect("list_shares");
    device.get_delta(root, 0).expect("get_delta");
    root
}

/// A client's reaction to its pushes: a GetDelta on `volume` from `known`
/// for each `VolumeChanged` past it. Returns the delta rows, with `known`
/// advanced to the last generation seen.
fn sync_pushes(device: &mut impl Transport, volume: VolumeId, known: &mut u64) -> Vec<NodeInfo> {
    let mut rows = Vec::new();
    for push in device.poll_pushes() {
        if let Push::VolumeChanged {
            volume: v,
            generation,
        } = push
        {
            if v == volume && generation > *known {
                let (generation, delta) = device.get_delta(volume, *known).expect("get_delta");
                *known = generation;
                rows.extend(delta);
            }
        }
    }
    rows
}

fn main() {
    let backend = Arc::new(Backend::new(
        BackendConfig {
            auth: ubuntuone::auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            ..Default::default()
        },
        Arc::new(SimClock::new()),
        Arc::new(MemorySink::new()),
    ));

    let alice_token = backend.register_user(UserId::new(1));
    let bob_token = backend.register_user(UserId::new(2));

    let mut alice = DirectTransport::new(Arc::clone(&backend));
    let mut bob = DirectTransport::new(Arc::clone(&backend));
    start_up(&mut alice, alice_token);
    let bob_root = start_up(&mut bob, bob_token);

    // Alice creates a UDF and shares it with Bob.
    let project = alice.create_udf("paper-draft").expect("create UDF");
    backend
        .create_share(UserId::new(1), project.volume, UserId::new(2))
        .expect("share grant");
    println!("alice shared volume {} with bob", project.volume);

    // Bob sees the share arrive as a push, and lists it.
    let arrived = bob
        .poll_pushes()
        .into_iter()
        .any(|p| matches!(p, Push::VolumeCreated { volume, .. } if volume == project.volume));
    assert!(arrived, "bob is pushed the new share");
    let shares = bob.list_shares().expect("list shares");
    assert_eq!(shares.len(), 1);
    println!(
        "bob's ListShares: volume {} owned by {:?}",
        shares[0].volume, shares[0].owner
    );
    let (mut bob_known, _) = bob.get_delta(project.volume, 0).expect("bob's first delta");
    let (mut alice_known, _) = alice
        .get_delta(project.volume, 0)
        .expect("alice's first delta");

    // Alice drops a draft in (Make, then Upload); Bob gets pushed, fetches
    // the delta, downloads.
    let hash = ContentHash::from_content_id(2015);
    let draft = alice
        .make_node(project.volume, None, NodeKind::File, "intro.tex")
        .expect("alice makes the draft");
    alice
        .upload(project.volume, draft.node, hash, 48_000, None)
        .expect("alice uploads");
    let delta = sync_pushes(&mut bob, project.volume, &mut bob_known);
    let bobs_copy = delta
        .iter()
        .find(|n| n.name == "intro.tex" && n.hash == Some(hash))
        .expect("bob has the draft");
    let (size, got_hash, _) = bob
        .download(project.volume, bobs_copy.node)
        .expect("bob downloads");
    assert_eq!((size, got_hash), (48_000, hash));
    println!(
        "bob downloaded intro.tex (node {}, {size} bytes)",
        bobs_copy.node
    );

    // Bob re-uploads the same bytes into his own root — the server
    // deduplicates across users (§3.3): zero bytes travel.
    let copy = bob
        .make_node(bob_root, None, NodeKind::File, "intro-copy.tex")
        .expect("bob makes the copy");
    let up = bob
        .upload(bob_root, copy.node, hash, 48_000, None)
        .expect("bob re-uploads");
    assert!(up.deduplicated);
    assert_eq!(up.bytes_sent, 0);
    println!(
        "bob's re-upload was deduplicated (bytes sent: {})",
        up.bytes_sent
    );

    // Bob deletes the shared draft; the tombstone pushes back to Alice.
    bob.unlink(project.volume, bobs_copy.node)
        .expect("bob deletes");
    let delta = sync_pushes(&mut alice, project.volume, &mut alice_known);
    assert!(delta.iter().any(|n| n.node == draft.node && n.is_dead));
    println!("alice saw the deletion propagate back ✔");

    // Four pushes, each cross-process: the share grant, which no session
    // pushed, Alice's make and commit, and Bob's unlink. Footnote 4's
    // same-process path is for sessions on the pusher's own API process,
    // and the two devices were placed on different ones.
    let (local, remote, unroutable) = backend.push_router.stats();
    println!("push routing: {local} same-process, {remote} cross-process, {unroutable} unroutable");
    assert_eq!((local, remote, unroutable), (0, 4, 0));
    println!("store dedup ratio: {:.3}", backend.store.dedup_ratio());
}
