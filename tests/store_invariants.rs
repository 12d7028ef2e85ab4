//! Property-based invariants of the metadata store and the upload state
//! machine under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::HashMap;
use ubuntuone::core::{ContentHash, NodeKind, SimTime, UserId};
use ubuntuone::metastore::{MetaStore, StoreConfig};

#[derive(Debug, Clone)]
enum Op {
    MakeFile {
        user: u8,
        name_seed: u8,
    },
    MakeDir {
        user: u8,
        name_seed: u8,
    },
    AttachContent {
        user: u8,
        pick: u8,
        content: u8,
        size: u16,
    },
    Unlink {
        user: u8,
        pick: u8,
    },
    Move {
        user: u8,
        pick: u8,
        name_seed: u8,
    },
    CreateUdf {
        user: u8,
        name_seed: u8,
    },
    DeleteUdf {
        user: u8,
        pick: u8,
    },
    GetDelta {
        user: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(user, name_seed)| Op::MakeFile { user, name_seed }),
        (any::<u8>(), any::<u8>()).prop_map(|(user, name_seed)| Op::MakeDir { user, name_seed }),
        (any::<u8>(), any::<u8>(), any::<u8>(), 1u16..10_000).prop_map(
            |(user, pick, content, size)| Op::AttachContent {
                user,
                pick,
                content,
                size
            }
        ),
        (any::<u8>(), any::<u8>()).prop_map(|(user, pick)| Op::Unlink { user, pick }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(user, pick, name_seed)| Op::Move {
            user,
            pick,
            name_seed
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(user, name_seed)| Op::CreateUdf { user, name_seed }),
        (any::<u8>(), any::<u8>()).prop_map(|(user, pick)| Op::DeleteUdf { user, pick }),
        any::<u8>().prop_map(|user| Op::GetDelta { user }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the op sequence, the store never panics; generations are
    /// monotone; node counts equal live nodes; the content index's
    /// refcounts match the number of live file nodes per hash; every live
    /// volume is listed by exactly its owner.
    #[test]
    fn metastore_invariants_hold(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let store = MetaStore::new(StoreConfig::default());
        const USERS: u8 = 4;
        let now = SimTime::ZERO;
        let mut roots = Vec::new();
        for u in 0..USERS {
            let user = UserId::new(u as u64 + 1);
            store.create_user(user, now).unwrap();
            roots.push(store.get_root(user).unwrap().volume);
        }
        // Model state: live file nodes per user, hash refcounts.
        let mut live_nodes: Vec<Vec<(ubuntuone::core::NodeId, Option<ContentHash>)>> =
            vec![Vec::new(); USERS as usize];
        let mut refcounts: HashMap<ContentHash, i64> = HashMap::new();
        let mut last_gen: HashMap<u64, u64> = HashMap::new();

        for op in &ops {
            match op {
                Op::MakeFile { user, name_seed } => {
                    let u = (user % USERS) as usize;
                    let uid = UserId::new(u as u64 + 1);
                    let name = format!("f{name_seed}");
                    if let Ok(row) = store.make_node(uid, roots[u], None, NodeKind::File, &name, now) {
                        if !live_nodes[u].iter().any(|(n, _)| *n == row.node) {
                            live_nodes[u].push((row.node, row.content));
                            // Idempotent make may return an existing node
                            // with content attached.
                            if let Some(h) = row.content {
                                // Already counted.
                                let _ = h;
                            }
                        }
                    }
                }
                Op::MakeDir { user, name_seed } => {
                    let u = (user % USERS) as usize;
                    let uid = UserId::new(u as u64 + 1);
                    let _ = store.make_node(uid, roots[u], None, NodeKind::Directory, &format!("d{name_seed}"), now);
                }
                Op::AttachContent { user, pick, content, size } => {
                    let u = (user % USERS) as usize;
                    let uid = UserId::new(u as u64 + 1);
                    if live_nodes[u].is_empty() { continue; }
                    let idx = (*pick as usize) % live_nodes[u].len();
                    let (node, old) = live_nodes[u][idx];
                    // Content sizes must be consistent per hash for the
                    // index: derive size from the content id.
                    let hash = ContentHash::from_content_id(*content as u64 % 16);
                    let fixed_size = 100 + (*content as u64 % 16) * 10;
                    let _ = size;
                    if let Ok((row, _released)) = store.make_content(uid, roots[u], node, hash, fixed_size, now) {
                        if let Some(oldh) = old {
                            if oldh != hash {
                                *refcounts.entry(oldh).or_insert(0) -= 1;
                            }
                        }
                        if old != Some(hash) {
                            *refcounts.entry(hash).or_insert(0) += 1;
                        }
                        live_nodes[u][idx] = (node, row.content);
                    }
                }
                Op::Unlink { user, pick } => {
                    let u = (user % USERS) as usize;
                    let uid = UserId::new(u as u64 + 1);
                    if live_nodes[u].is_empty() { continue; }
                    let idx = (*pick as usize) % live_nodes[u].len();
                    let (node, hash) = live_nodes[u][idx];
                    if store.unlink(uid, roots[u], node, now).is_ok() {
                        live_nodes[u].remove(idx);
                        if let Some(h) = hash {
                            *refcounts.entry(h).or_insert(0) -= 1;
                        }
                    }
                }
                Op::Move { user, pick, name_seed } => {
                    let u = (user % USERS) as usize;
                    let uid = UserId::new(u as u64 + 1);
                    if live_nodes[u].is_empty() { continue; }
                    let idx = (*pick as usize) % live_nodes[u].len();
                    let (node, _) = live_nodes[u][idx];
                    let _ = store.move_node(uid, roots[u], node, None, &format!("m{name_seed}"), now);
                }
                Op::CreateUdf { user, name_seed } => {
                    let u = (user % USERS) as usize;
                    let uid = UserId::new(u as u64 + 1);
                    let _ = store.create_udf(uid, &format!("udf{name_seed}"), now);
                }
                Op::DeleteUdf { user, pick } => {
                    let u = (user % USERS) as usize;
                    let uid = UserId::new(u as u64 + 1);
                    let udfs: Vec<_> = store.list_volumes(uid).unwrap()
                        .into_iter().filter(|v| v.volume != roots[u]).collect();
                    if udfs.is_empty() { continue; }
                    let doomed = udfs[(*pick as usize) % udfs.len()].volume;
                    // Somebody else's attempt is refused and changes nothing.
                    let other = UserId::new((u as u64 + 1) % USERS as u64 + 1);
                    prop_assert!(store.delete_volume(other, doomed).is_err());
                    store.delete_volume(uid, doomed).unwrap();
                    prop_assert!(store.list_volumes(uid).unwrap().iter().all(|v| v.volume != doomed));
                }
                Op::GetDelta { user } => {
                    let u = (user % USERS) as usize;
                    let uid = UserId::new(u as u64 + 1);
                    let (generation, _) = store.get_delta(uid, roots[u], 0).unwrap();
                    // Generations are monotone per volume.
                    let prev = last_gen.entry(roots[u].raw()).or_insert(0);
                    prop_assert!(generation >= *prev, "generation regressed");
                    *prev = generation;
                }
            }
        }

        // Final invariants.
        for u in 0..USERS as usize {
            let uid = UserId::new(u as u64 + 1);
            let (_, live) = store.get_from_scratch(uid, roots[u]).unwrap();
            let vol = store.list_volumes(uid).unwrap()
                .into_iter().find(|v| v.volume == roots[u]).unwrap();
            prop_assert_eq!(vol.node_count as usize, live.len(),
                "volume node_count matches live nodes");
            // Our model's files are a subset of the live nodes (dirs too).
            let model_files = &live_nodes[u];
            for (node, _) in model_files {
                prop_assert!(live.iter().any(|n| n.node == *node),
                    "model node {} must be live", node);
            }
        }
        // Every live volume is listed by exactly its owner, and nothing
        // else is listed.
        let snapshot = store.volume_snapshot();
        let mut listed = 0;
        for u in 0..USERS as u64 {
            let uid = UserId::new(u + 1);
            let vols = store.list_volumes(uid).unwrap();
            prop_assert!(vols.windows(2).all(|w| w[0].volume < w[1].volume), "sorted, no duplicates");
            for v in &vols {
                prop_assert_eq!(v.owner, uid);
                prop_assert!(snapshot.iter().any(|s| s.volume == v.volume && s.owner == uid),
                    "listed volume {} is not live", v.volume);
            }
            listed += vols.len();
        }
        prop_assert_eq!(listed, snapshot.len(), "a live volume is missing from its owner's list");
        // Dedup index: every positive refcount hash is reusable at its size;
        // every zero/negative is gone.
        for (hash, count) in &refcounts {
            let size = 100 + (0..16).find(|i| ContentHash::from_content_id(*i) == *hash).unwrap_or(0) * 10;
            let present = store.get_reusable_content(*hash, size).is_some();
            if *count > 0 {
                prop_assert!(present, "hash with {count} refs must be indexed");
            } else {
                prop_assert!(!present, "hash with {count} refs must be dropped");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The upload state machine never loses committed bytes: any interleaving
    /// of chunks, premature commits and cancels either ends with the full
    /// object stored or with no object at all — never a torn one.
    #[test]
    fn upload_state_machine_is_atomic(
        chunks in proptest::collection::vec(1u64..6_000_000, 1..8),
        premature_commits in 0usize..3,
        cancel_at in proptest::option::of(0usize..8),
    ) {
        use ubuntuone::server::{Backend, BackendConfig};
        use ubuntuone::server::api::UploadOutcome;
        use ubuntuone::trace::MemorySink;
        use std::sync::Arc;

        let backend = Arc::new(Backend::new(
            BackendConfig {
                auth: ubuntuone::auth::AuthConfig { transient_failure_rate: 0.0, token_ttl: None },
                ..Default::default()
            },
            Arc::new(ubuntuone::core::SimClock::new()),
            Arc::new(MemorySink::new()),
        ));
        let token = backend.register_user(UserId::new(1));
        let h = backend.open_session(token).unwrap();
        let v = backend.list_volumes(h.session).unwrap()[0].volume;
        let node = backend.make_node(h.session, v, None, NodeKind::File, "x.bin").unwrap();
        let total: u64 = chunks.iter().sum();
        let hash = ContentHash::from_content_id(total);

        let upload = match backend.begin_upload(h.session, v, node.node, hash, total).unwrap() {
            UploadOutcome::Started { upload } => upload,
            UploadOutcome::Deduplicated { .. } => return Ok(()),
        };

        let mut sent = 0u64;
        let mut cancelled = false;
        for (i, chunk) in chunks.iter().enumerate() {
            if Some(i) == cancel_at {
                backend.cancel_upload(h.session, upload).unwrap();
                cancelled = true;
                break;
            }
            if i < premature_commits && sent < total {
                // Premature commit must be refused, and must not destroy
                // progress.
                prop_assert!(backend.commit_upload(h.session, upload).is_err());
            }
            backend.upload_chunk(h.session, upload, *chunk, None).unwrap();
            sent += chunk;
        }
        if !cancelled {
            let committed = backend.commit_upload(h.session, upload).unwrap();
            prop_assert_eq!(committed.bytes_transferred, total);
            let meta = backend.blobs.head(hash).expect("object stored");
            prop_assert_eq!(meta.size, total, "no torn object");
        } else {
            prop_assert!(!backend.blobs.contains(hash), "cancelled upload leaves nothing");
            // The job is gone: further chunks are rejected.
            prop_assert!(backend.upload_chunk(h.session, upload, 1, None).is_err());
        }
    }
}
