//! Ids are labels. Over small generated traces whose user, session and node
//! ids are sparse 64-bit values (and reused: sessions by several users,
//! nodes by several ops), relabelling every id by a bijection on `u64` must
//! leave the battery's report unchanged, and on the relabelled trace the
//! report must agree with the reference built from the paper's
//! definitions, serially and merged across a split.

mod oracle;

use proptest::prelude::*;
use serde::Serialize;
use u1_analytics::engine::{run_all, run_chunks, Battery, EngineConfig};
use u1_analytics::testkit::*;
use u1_core::{ApiOpKind, NodeKind, RpcKind, SimTime};
use u1_trace::{Payload, TraceRecord};

const DAYS: u64 = 3;

/// One generated event: (kind, user, session, node, second, size, content,
/// success). The id fields index into the trace's sparse id pools.
type Event = (u8, usize, usize, usize, u64, u64, u64, bool);

fn record(ev: Event, users: &[u64], sessions: &[u64], nodes: &[u64]) -> TraceRecord {
    let (kind, u, s, n, secs, size, content, ok) = ev;
    let (t, user, session, node) = (at(secs), users[u], sessions[s], nodes[n]);
    let ext = ["jpg", "mp3", "txt", ""][(content % 4) as usize];
    // Mostly one size per content, so a node can be re-uploaded unchanged;
    // sometimes another, as a hash collision would give.
    let size = if size % 3 == 0 {
        size
    } else {
        content * 1_000_000
    };
    let mut rec = match kind {
        0 => session_open(t, session, user),
        1 => session_close(t, session, user),
        2 => auth(t, user, ok),
        3 => transfer(
            t,
            ApiOpKind::Upload,
            session,
            user,
            node,
            size,
            content,
            ext,
        ),
        4 => transfer(
            t,
            ApiOpKind::Download,
            session,
            user,
            node,
            size,
            content,
            ext,
        ),
        5 => node_op(t, ApiOpKind::MakeFile, session, user, node, NodeKind::File),
        6 => node_op(
            t,
            ApiOpKind::MakeDir,
            session,
            user,
            node,
            NodeKind::Directory,
        ),
        7 => node_op(t, ApiOpKind::Unlink, session, user, node, NodeKind::File),
        8 => op(t, ApiOpKind::GetDelta, session, user),
        _ => rpc_on(
            t,
            (size % 3) as u16,
            0,
            RpcKind::ALL[(content % 23) as usize],
            user,
            (node % 4) as u16,
            size,
        ),
    };
    if let Payload::Storage(done) = &mut rec.payload {
        // Mostly successes, so chains and sessions form.
        done.success = ok || content % 3 != 0;
    }
    rec
}

fn trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    let pools = (
        proptest::collection::vec(any::<u64>(), 1..5),
        proptest::collection::vec(any::<u64>(), 1..6),
        proptest::collection::vec(any::<u64>(), 1..7),
    );
    let event = (
        0u8..10,
        0usize..4,
        0usize..5,
        0usize..6,
        0..DAYS * 86_400,
        0u64..30_000_000,
        0u64..12,
        any::<bool>(),
    );
    (pools, proptest::collection::vec(event, 0..80)).prop_map(|((users, sessions, nodes), evs)| {
        let mut recs: Vec<TraceRecord> = evs
            .into_iter()
            .map(|(kind, u, s, n, secs, size, content, ok)| {
                let ev = (
                    kind,
                    u % users.len(),
                    s % sessions.len(),
                    n % nodes.len(),
                    secs,
                    size,
                    content,
                    ok,
                );
                record(ev, &users, &sessions, &nodes)
            })
            .collect();
        recs.sort_by_key(|r| r.t);
        recs
    })
}

fn json<T: Serialize>(x: &T) -> serde_json::Value {
    serde_json::to_value(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn relabelled_sparse_ids_change_nothing(
        recs in trace(),
        k in any::<u64>(),
        split in 0usize..100,
    ) {
        let cfg = EngineConfig::new(SimTime::from_days(DAYS), 3, 4);
        let original = run_all(&recs, &cfg);
        let relabelled: Vec<TraceRecord> = recs.iter().map(|r| relabel(r.clone(), k)).collect();
        let report = run_all(&relabelled, &cfg);
        prop_assert_eq!(json(&report), json(&original));
        oracle::check(&report, &relabelled, &cfg);
        let (a, b) = relabelled.split_at(split.min(relabelled.len()));
        let merged = run_chunks(Battery::new(&cfg), &[a, b]);
        oracle::check(&merged, &relabelled, &cfg);
        prop_assert_eq!(json(&merged), json(&report));
    }
}
