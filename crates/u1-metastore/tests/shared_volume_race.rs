//! Share recipients on other shards race a volume owner on the owner's
//! shard.
//!
//! The owner's thread makes nodes and upload jobs in shared UDFs and then
//! deletes each UDF but one, while three recipients, each on a shard of its own,
//! read deltas of the same volumes, run upload jobs in them, and guess the
//! ids of jobs on the owner's shard (ids are strided per shard, so they
//! are easy to guess). Every answer a recipient gets must be `Ok`,
//! `not_found` or `permission_denied`: a volume can vanish under it, and a
//! job in the owner's unshared root volume is not its to touch. Debug
//! builds also check on every acquisition that no thread holds two locks,
//! so a nested shard lock panics here.

use std::thread;
use u1_core::{ContentHash, CoreError, CoreResult, NodeKind, SimTime, UploadId, UserId, VolumeId};
use u1_metastore::{MetaStore, StoreConfig};

const UDFS: usize = 6;
const NODES_PER_UDF: usize = 40;
const PASSES: usize = 150;
/// How many job ids past the first one of the owner's shard a recipient
/// guesses per pass.
const GUESSES: u64 = 24;

fn acceptable<T>(r: &CoreResult<T>) -> bool {
    matches!(
        r,
        Ok(_) | Err(CoreError::NotFound(_) | CoreError::PermissionDenied(_))
    )
}

#[test]
fn recipients_racing_the_owner_get_ok_not_found_or_denied() {
    let t = SimTime::ZERO;
    let store = MetaStore::new(StoreConfig { shards: 10 });
    let owner = UserId::new(1);
    let recipients = [UserId::new(2), UserId::new(13), UserId::new(24)];
    store.create_user(owner, t).unwrap();
    for r in recipients {
        store.create_user(r, t).unwrap();
    }
    let root = store.get_root(owner).unwrap().volume;
    let udfs: Vec<VolumeId> = (0..UDFS)
        .map(|i| {
            let udf = store.create_udf(owner, &format!("shared {i}"), t).unwrap();
            for r in recipients {
                store.create_share(owner, udf.volume, r, t).unwrap();
            }
            udf.volume
        })
        .collect();
    let (kept, doomed) = udfs.split_first().unwrap();
    // A job in the owner's unshared root: every recipient's guesses reach
    // it, and none may touch it.
    let secret = store
        .make_node(owner, root, None, NodeKind::File, "secret", t)
        .unwrap();
    let secret_job = store
        .make_uploadjob(owner, root, secret.node, ContentHash::EMPTY, 1, t)
        .unwrap();
    // The owner's shard `s` draws job ids `s+1, s+1+S, …`.
    let first_job = u64::from(store.shard_of(owner).raw()) + 1;

    thread::scope(|scope| {
        scope.spawn(|| {
            for (i, &udf) in doomed.iter().enumerate() {
                for k in 0..NODES_PER_UDF {
                    let node = store
                        .make_node(owner, udf, None, NodeKind::File, &format!("f{k}"), t)
                        .unwrap();
                    store
                        .make_uploadjob(owner, udf, node.node, ContentHash::EMPTY, 1, t)
                        .unwrap();
                }
                store
                    .make_node(owner, root, None, NodeKind::File, &format!("r{i}"), t)
                    .unwrap();
                store.delete_volume(owner, udf).unwrap();
            }
        });
        let handles: Vec<_> = recipients
            .iter()
            .map(|&r| {
                let (store, kept, udfs) = (&store, *kept, &udfs);
                scope.spawn(move || {
                    let (mut ok, mut denied) = (0u32, 0u32);
                    let mut check = |r: &CoreResult<()>| {
                        assert!(acceptable(r), "{r:?}");
                        ok += u32::from(r.is_ok());
                        denied += u32::from(matches!(r, Err(CoreError::PermissionDenied(_))));
                    };
                    for pass in 0..PASSES {
                        let udf = udfs[pass % UDFS];
                        check(&store.get_delta(r, udf, 0).map(drop));
                        check(&store.get_delta(r, root, 0).map(drop));
                        check(&store.get_delta(r, kept, 0).map(drop));
                        let target = if pass % 2 == 0 { kept } else { udf };
                        check(&own_upload(store, r, target, pass));
                        for k in 0..GUESSES {
                            let job = UploadId::new(first_job + k * 10);
                            check(&store.get_uploadjob(r, job).map(drop));
                            check(&store.touch_uploadjob(r, job, t));
                        }
                    }
                    (ok, denied)
                })
            })
            .collect();
        for h in handles {
            let (ok, denied) = h.join().unwrap();
            assert!(ok > 0 && denied > 0, "ok {ok}, denied {denied}");
        }
    });

    // The owner's root job is as the owner left it, and every UDF but the
    // kept one is gone.
    assert_eq!(
        store.get_uploadjob(owner, secret_job.upload),
        Ok(secret_job)
    );
    assert_eq!(store.owner_of(*kept), Some(owner));
    for &udf in doomed {
        assert_eq!(store.owner_of(udf), None);
    }
}

/// A recipient's whole upload job in a shared volume the owner may be
/// deleting: each step may find the volume, or the job, gone.
fn own_upload(store: &MetaStore, r: UserId, udf: VolumeId, pass: usize) -> CoreResult<()> {
    let t = SimTime::ZERO;
    let name = format!("{r}-{pass}");
    let node = store.make_node(r, udf, None, NodeKind::File, &name, t)?;
    let job = store.make_uploadjob(r, udf, node.node, ContentHash::EMPTY, 4, t)?;
    store.set_uploadjob_multipart_id(r, job.upload, 1, t)?;
    store.add_part_to_uploadjob(r, job.upload, 4, t)?;
    store.get_uploadjob(r, job.upload)?;
    store.delete_uploadjob(r, job.upload).map(drop)
}
