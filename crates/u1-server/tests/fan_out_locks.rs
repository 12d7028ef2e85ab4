//! How many `u1_core::sync` locks one `MakeFile` takes, with and without a
//! second device of the user to push to on another API process.
//!
//! The counter is process-wide, so this file is a test binary of its own
//! with one test: nothing runs beside the measured request. Debug builds
//! only, as a release lock keeps no count.
#![cfg(debug_assertions)]

use std::sync::Arc;
use u1_core::sync::acquisitions;
use u1_core::{CoreResult, NodeId, SimClock, UserId};
use u1_proto::msg::{Push, Request};
use u1_server::api::SessionState;
use u1_server::{Backend, BackendConfig};
use u1_trace::MemorySink;

/// A fresh default back end (6 machines × 12 API processes) whose auth
/// service never fails.
fn backend() -> Backend {
    let cfg = BackendConfig {
        auth: u1_auth::AuthConfig {
            transient_failure_rate: 0.0,
            token_ttl: None,
        },
        ..Default::default()
    };
    Backend::new(cfg, Arc::new(SimClock::new()), Arc::new(MemorySink::new()))
}

/// A session of `user`, subscribed to pushes.
fn authenticate(b: &Backend, user: UserId) -> CoreResult<SessionState> {
    let token = b.register_user(user).as_bytes().to_vec();
    let mut state = SessionState::new(true);
    b.serve(&mut state, Request::Authenticate { token })?;
    Ok(state)
}

/// The locks one `MakeFile` by `pusher` on `user`'s root takes.
fn make_file_locks(b: &Backend, user: UserId, pusher: &mut SessionState) -> CoreResult<u64> {
    let make = Request::MakeFile {
        volume: b.store.get_root(user)?.volume,
        parent: NodeId::new(0),
        name: "new.txt".into(),
    };
    let before = acquisitions();
    b.serve(pusher, make)?;
    Ok(acquisitions() - before)
}

/// The pushes that reached `state` so far.
fn pushes(state: &SessionState) -> Vec<Push> {
    state
        .pushes()
        .map_or_else(Vec::new, |rx| rx.try_iter().collect())
}

#[test]
fn a_cross_process_push_takes_no_lock_per_api_process() {
    let user = UserId::new(1);
    let b = backend();
    let mut pusher = authenticate(&b, user).unwrap();
    let alone = make_file_locks(&b, user, &mut pusher).unwrap();

    let b = backend();
    let mut pusher = authenticate(&b, user).unwrap();
    let second = authenticate(&b, user).unwrap();
    let slot = |s: &SessionState| s.handle().unwrap().slot;
    assert_ne!(slot(&pusher), slot(&second), "another API process");
    let with_second = make_file_locks(&b, user, &mut pusher).unwrap();
    assert!(pushes(&pusher).is_empty(), "the pusher is not pushed");
    let got = pushes(&second);
    assert!(matches!(got[..], [Push::VolumeChanged { .. }]), "{got:?}");

    // The second device costs no lock: its push is one channel send.
    assert_eq!((alone, with_second), (8, 8));
}
